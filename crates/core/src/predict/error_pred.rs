//! Table 8: predicting individual error types with random forests
//! (the task of Mahdisoltani et al. \[17\], recreated and extended with the
//! young/old partitioning of Section 5.3/5.4).

use super::PredictConfig;
use crate::features::{build_dataset, AgeFilter, ExtractOptions, LabelKind};
use crate::report::TextTable;
use ssd_ml::cross_validate;
use ssd_types::{ErrorKind, FleetTrace};

/// The targets of Table 8, in the paper's row order.
pub fn table8_targets() -> Vec<(String, LabelKind)> {
    let mut targets = vec![("Bad block".to_string(), LabelKind::BadBlock)];
    for kind in [
        ErrorKind::Erase,
        ErrorKind::FinalRead,
        ErrorKind::FinalWrite,
        ErrorKind::Meta,
        ErrorKind::Read,
        ErrorKind::Response,
        ErrorKind::Timeout,
        ErrorKind::Uncorrectable,
        ErrorKind::Write,
    ] {
        targets.push((
            kind.name()
                .strip_suffix(" error")
                .unwrap_or(kind.name())
                .to_string(),
            LabelKind::Error(kind),
        ));
    }
    targets
}

/// One Table 8 row: (target name, combined AUC, young AUC, old AUC).
pub type ErrorPredictionRow = (String, Option<f64>, Option<f64>, Option<f64>);

/// Result of the Table 8 experiment.
#[derive(Debug, Clone)]
pub struct ErrorPrediction {
    /// One row per target. AUCs are `None` where the target class was
    /// too rare to evaluate (the paper likewise marks response errors "—"
    /// for the age splits).
    pub rows: Vec<ErrorPredictionRow>,
}

fn try_cv(
    trace: &FleetTrace,
    config: &PredictConfig,
    label: LabelKind,
    filter: AgeFilter,
) -> Option<f64> {
    let data = build_dataset(
        trace,
        &ExtractOptions { label, age_filter: filter, ..config.extract_opts(2) },
    );
    let (pos, neg) = data.class_counts();
    // Too-rare targets cannot be cross-validated meaningfully.
    if pos < 25 || neg < 25 {
        return None;
    }
    // A target whose folds cannot all be filled or evaluated is "--" too.
    cross_validate(&config.forest, &data, &config.cv)
        .ok()
        .map(|r| r.mean())
}

/// Runs Table 8 (N = 2, as in the paper).
pub fn error_prediction(trace: &FleetTrace, config: &PredictConfig) -> ErrorPrediction {
    let rows = table8_targets()
        .into_iter()
        .map(|(name, label)| {
            let combined = try_cv(trace, config, label, AgeFilter::All);
            let young = try_cv(trace, config, label, AgeFilter::Young);
            let old = try_cv(trace, config, label, AgeFilter::Old);
            (name, combined, young, old)
        })
        .collect();
    ErrorPrediction { rows }
}

impl ErrorPrediction {
    /// AUC cell lookup by target name and column (0 = combined, 1 = young,
    /// 2 = old).
    pub fn auc(&self, target: &str, column: usize) -> Option<f64> {
        let row = self.rows.iter().find(|(n, ..)| n == target)?;
        match column {
            0 => row.1,
            1 => row.2,
            2 => row.3,
            _ => None,
        }
    }

    /// Renders as the paper's Table 8.
    pub fn table(&self) -> TextTable {
        let fmt = |v: &Option<f64>| v.map_or("--".to_string(), |a| format!("{a:.3}"));
        let mut t = TextTable::new(
            "Table 8: random forest ROC AUC predicting error types (N=2)",
            vec![
                "Error".into(),
                "Combined".into(),
                "Young".into(),
                "Old".into(),
            ],
        );
        for (name, c, y, o) in &self.rows {
            t.push_row(vec![name.clone(), fmt(c), fmt(y), fmt(o)]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn common_errors_are_predictable_and_rare_ones_are_skipped() {
        let trace = shared_trace();
        let mut cfg = PredictConfig::fast(17);
        // Error events are rarer than failure days at small fleet scale;
        // sample more negatives to keep folds populated.
        cfg.negative_sample_rate = 0.02;
        let r = error_prediction(trace, &cfg);
        assert_eq!(r.rows.len(), 10);
        // Uncorrectable errors: strongly predictable (paper: 0.933)
        // because cumulative history identifies error-prone drives.
        let ue = r.auc("uncorrectable", 0).expect("UE should be evaluable");
        assert!(ue > 0.75, "UE AUC {ue}");
        // Response errors are too rare at this scale (paper marks the age
        // splits "—"); the combined column may also be absent here.
        assert!(r.auc("response", 1).is_none() || r.auc("response", 1).unwrap() > 0.0);
        let _ = r.table().render();
    }
}

ssd_types::impl_json_struct!(ErrorPrediction { rows });
