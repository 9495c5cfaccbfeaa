//! Figure 16: random-forest feature importances for infant vs mature
//! drives (Section 5.4).

use super::PredictConfig;
use crate::features::age_rows;
use crate::report::TextTable;
use ssd_ml::CvError;
use ssd_types::FleetTrace;

/// Ranked feature importances for one age partition.
#[derive(Debug, Clone)]
pub struct ImportanceRanking {
    /// Partition label ("Young Drives" / "Old Drives").
    pub partition: String,
    /// (feature name, normalized MDI importance), descending.
    pub ranked: Vec<(String, f64)>,
}

impl ImportanceRanking {
    /// Position of a feature in the ranking (0 = most important).
    pub fn rank_of(&self, feature: &str) -> Option<usize> {
        self.ranked.iter().position(|(n, _)| n == feature)
    }

    /// Renders the top `n` features as a table (Figure 16's bars).
    pub fn table(&self, n: usize) -> TextTable {
        let mut t = TextTable::new(
            format!("Figure 16: feature importance — {}", self.partition),
            vec!["Feature".into(), "Importance".into()],
        );
        for (name, imp) in self.ranked.iter().take(n) {
            t.push_row(vec![name.clone(), format!("{imp:.4}")]);
        }
        t
    }
}

/// Trains a forest on each age partition's rows of the N = 1 dataset and
/// extracts their MDI rankings, young then old. Each partition fails on
/// its own when its downsampled training rows lack a class (a short trace
/// has no old drives, a tiny fleet no failures).
pub fn feature_importance(
    trace: &FleetTrace,
    config: &PredictConfig,
) -> (
    Result<ImportanceRanking, CvError>,
    Result<ImportanceRanking, CvError>,
) {
    let data = config.dataset(trace, 1);
    let [young, old] = age_rows(&data);
    let rank_for = |rows: &[usize], label: &str| {
        let forest = config.fit_forest(&data, rows)?;
        Ok(ImportanceRanking {
            partition: label.to_string(),
            ranked: forest.ranked_importances(data.feature_names()),
        })
    };
    (rank_for(&young, "Young Drives"), rank_for(&old, "Old Drives"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn importances_differ_between_age_groups() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(13);
        let (young, old) = feature_importance(trace, &cfg);
        let (young, old) = (young.unwrap(), old.unwrap());
        assert_eq!(young.ranked.len(), crate::features::N_FEATURES);
        // Normalized.
        let sum: f64 = young.ranked.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        // Section 5.4: drive age dominates the young model (rank 1 at the
        // paper's 30k-drive scale; ~6 at our default 6k scale). On this
        // small shared test fleet the rank is noisy, so require only the
        // upper half.
        let age_rank_young = young.rank_of("drive age").unwrap();
        assert!(
            age_rank_young < crate::features::N_FEATURES / 2,
            "drive age rank for young drives: {age_rank_young}"
        );
        // The two rankings must differ (Observation 12).
        let top_young: Vec<&str> = young.ranked[..5].iter().map(|(n, _)| n.as_str()).collect();
        let top_old: Vec<&str> = old.ranked[..5].iter().map(|(n, _)| n.as_str()).collect();
        assert_ne!(top_young, top_old, "rankings should differ");
        let _ = young.table(10).render();
        let _ = old.table(10).render();
    }

    #[test]
    fn a_fleet_without_failures_is_a_typed_error_per_partition() {
        use ssd_sim::{FleetGen, SimConfig};
        let trace = FleetGen::new(&SimConfig {
            drives_per_model: 3,
            horizon_days: 60,
            seed: 1,
            ..SimConfig::default()
        })
        .trace();
        let (young, old) = feature_importance(&trace, &PredictConfig::fast(1));
        assert!(matches!(young, Err(CvError::MissingClass { positives: 0, .. })), "{young:?}");
        assert!(matches!(old, Err(CvError::MissingClass { positives: 0, .. })), "{old:?}");
    }
}

ssd_types::impl_json_struct!(ImportanceRanking { partition, ranked });
