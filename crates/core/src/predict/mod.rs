//! Failure prediction (Section 5): the six classifiers, the evaluation
//! protocol, and the post-prediction analyses of Tables 6–8 and
//! Figures 12–16.

pub mod age_analysis;
pub mod error_pred;
pub mod importance;
pub mod models;
pub mod online;
pub mod per_model;
pub mod sweep;

use crate::features::{build_dataset, ExtractOptions};
use ssd_ml::{
    cross_validate_batch, downsample_majority, CvError, CvOptions, CvResult, Dataset,
    ForestConfig, KnnConfig, LinearSvmConfig, LogisticRegressionConfig, MlpConfig, RandomForest,
    Trainer, TreeConfig,
};
use ssd_types::FleetTrace;

/// Shared configuration for the prediction experiments.
#[derive(Debug, Clone)]
pub struct PredictConfig {
    /// Negative drive-day sampling rate when building datasets (all
    /// positives are kept; see [`crate::features::ExtractOptions`]).
    pub negative_sample_rate: f64,
    /// Cross-validation protocol (defaults to the paper's 5-fold, 1:1).
    pub cv: CvOptions,
    /// Random-forest configuration used in the RF-centric experiments.
    pub forest: ForestConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for PredictConfig {
    fn default() -> Self {
        PredictConfig {
            negative_sample_rate: 0.05,
            cv: CvOptions::default(),
            forest: ForestConfig::default(),
            seed: 0,
        }
    }
}

impl PredictConfig {
    /// A lighter configuration for tests and quick runs: fewer trees,
    /// higher sampling.
    pub fn fast(seed: u64) -> Self {
        PredictConfig {
            negative_sample_rate: 0.04,
            cv: CvOptions {
                k: 5,
                downsample_ratio: 1.0,
                seed,
            },
            forest: ForestConfig {
                n_trees: 30,
                ..Default::default()
            },
            seed,
        }
    }

    /// Extraction options for a swap-prediction dataset with lookahead `n`:
    /// the one dataset recipe. Table 8's variants override the label
    /// (`ExtractOptions { label, ..config.extract_opts(2) }`); age and
    /// model partitions are row selections of the built dataset
    /// ([`crate::features::age_rows`], [`crate::features::model_rows`]).
    pub fn extract_opts(&self, lookahead_days: u32) -> ExtractOptions {
        ExtractOptions {
            lookahead_days,
            negative_sample_rate: self.negative_sample_rate,
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Builds the swap-prediction dataset for lookahead `n` days.
    pub fn dataset(&self, trace: &FleetTrace, lookahead_days: u32) -> Dataset {
        build_dataset(trace, &self.extract_opts(lookahead_days))
    }

    /// Fits the configured forest on `rows` of `data` under the paper's
    /// training protocol outside cross-validation: the rows are
    /// downsampled with `cv.downsample_ratio`, and both the downsample and
    /// the fit are seeded by `seed`. Fails when the kept rows lack a class.
    pub fn fit_forest(&self, data: &Dataset, rows: &[usize]) -> Result<RandomForest, CvError> {
        let idx = downsample_majority(data, rows, self.cv.downsample_ratio, self.seed)?;
        Ok(RandomForest::fit(&self.forest, &data.select(&idx), self.seed))
    }

    /// Cross-validates the configured forest on each dataset as one
    /// batch; results in dataset order.
    pub(crate) fn forest_cvs(&self, datasets: &[Dataset]) -> Vec<Result<CvResult, CvError>> {
        let cvs: Vec<(&dyn Trainer, &Dataset)> =
            datasets.iter().map(|d| (&self.forest as &dyn Trainer, d)).collect();
        cross_validate_batch(&cvs, &self.cv)
    }
}

/// Full-fleet datasets a cross-validation batch keeps resident, which
/// bounds the stage's peak memory. Partitions cut from one dataset (the
/// three drive models of Figure 13 and Table 7, the young and old rows
/// of Figure 15 and Table 8) hold its rows once and count as one, so
/// Table 8's batch of a label's joint dataset and its two age partitions
/// holds two.
pub(crate) const RESIDENT_DATASETS: usize = 2;

/// The paper's six classifier families (Table 6 row order), each at its
/// fixed default hyperparameters (`bench_ablations` in `crates/bench`
/// sweeps them).
pub fn six_model_trainers() -> Vec<Box<dyn Trainer>> {
    vec![
        Box::new(LogisticRegressionConfig::default()),
        Box::new(KnnConfig::default()),
        Box::new(LinearSvmConfig::default()),
        Box::new(MlpConfig::default()),
        Box::new(TreeConfig::default()),
        Box::new(ForestConfig::default()),
    ]
}

#[cfg(test)]
pub(crate) mod test_support {
    use ssd_sim::{FleetGen, SimConfig};
    use ssd_types::FleetTrace;
    use std::sync::OnceLock;

    /// A shared medium trace so each predict test doesn't regenerate it.
    pub fn shared_trace() -> &'static FleetTrace {
        static TRACE: OnceLock<FleetTrace> = OnceLock::new();
        TRACE.get_or_init(|| {
            FleetGen::new(&SimConfig {
                drives_per_model: 500,
                horizon_days: 2190,
                seed: 8,
                ..SimConfig::default()
            })
            .trace()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_trainers_have_the_papers_names() {
        let names: Vec<String> = six_model_trainers().iter().map(|t| t.name()).collect();
        assert_eq!(
            names,
            vec![
                "Logistic Reg.",
                "k-NN",
                "SVM",
                "Neural Network",
                "Decision Tree",
                "Random Forest"
            ]
        );
    }

    #[test]
    fn dataset_builder_produces_positives() {
        let trace = test_support::shared_trace();
        let cfg = PredictConfig::fast(1);
        let data = cfg.dataset(trace, 1);
        let (pos, neg) = data.class_counts();
        assert!(pos > 20, "positives {pos}");
        assert!(neg > 10 * pos, "imbalance expected: {pos} vs {neg}");
    }
}
