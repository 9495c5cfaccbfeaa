//! Table 8: predicting individual error types with random forests
//! (the task of Mahdisoltani et al. \[17\], recreated and extended with the
//! young/old partitioning of Section 5.3/5.4).

use super::PredictConfig;
use crate::features::{age_rows, build_dataset, ExtractOptions, LabelKind};
use crate::report::TextTable;
use ssd_ml::Dataset;
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

/// Runs Table 8 (N = 2, as in the paper). Each target builds one dataset,
/// cuts its young and old rows, and cross-validates the evaluable ones
/// of the three as one batch; the next target's dataset is built once
/// this batch is done.
pub fn error_prediction(trace: &FleetTrace, config: &PredictConfig) -> ErrorPrediction {
    let rows = table8_targets()
        .into_iter()
        .map(|(name, label)| {
            let data = build_dataset(trace, &ExtractOptions { label, ..config.extract_opts(2) });
            let [young, old] = age_rows(&data).map(|rows| data.select(&rows));
            // Too-rare targets cannot be cross-validated meaningfully.
            let (cells, datasets): (Vec<usize>, Vec<Dataset>) = [data, young, old]
                .into_iter()
                .enumerate()
                .filter(|(_, d)| {
                    let (pos, neg) = d.class_counts();
                    pos >= 25 && neg >= 25
                })
                .unzip();
            let mut aucs = [None; 3];
            for (cell, cv) in cells.into_iter().zip(config.forest_cvs(&datasets)) {
                // A target whose folds cannot all be filled or evaluated
                // is "--" too.
                aucs[cell] = cv.ok().map(|r| r.mean());
            }
            let [combined, young, old] = aucs;
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
