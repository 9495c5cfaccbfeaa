//! Random forest: bagged CART trees with per-split feature subsampling.
//!
//! The paper's best model across every experiment (Tables 6–8): "we find
//! that Random Forest models perform best on this data set … since they
//! work well with discrete data \[and\] are able to model nonlinear effects"
//! (Section 5.2). Trees are trained in parallel on the in-tree worker pool
//! (`ssd_parallel`), each from an independent deterministic seed, so the
//! fitted forest is reproducible regardless of thread count.
//!
//! A bootstrap is row weights: each tree's draws are counted straight into
//! its worker's [`crate::split_kernel`] row layout, and the tree scans and
//! partitions only the ~63 % of rows that were drawn at least once.

use crate::classifier::{Classifier, Trainer};
use crate::dataset::Dataset;
use crate::flat::FlatForest;
use crate::split_kernel::{PresortedDataset, TreeScratch, MAX_SAMPLE};
use crate::tree::{DecisionTree, TreeConfig};
use ssd_parallel::prelude::*;
use ssd_stats::SplitMix64;
use ssd_types::cast::{f64_from_usize, u64_from_usize, usize_from_u64};

/// Hyperparameters for the random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth parameters. If `tree.max_features` is `None`, the
    /// forest substitutes ⌈√d⌉ at fit time (the standard default).
    pub tree: TreeConfig,
    /// Bootstrap sample size as a fraction of the training size.
    pub bootstrap_fraction: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            tree: TreeConfig {
                max_depth: 14,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
            bootstrap_fraction: 1.0,
        }
    }
}

impl ForestConfig {
    /// Panics with a descriptive message if any hyperparameter is
    /// degenerate (including the nested [`TreeConfig`]). Called by
    /// [`RandomForest::fit`].
    pub fn validate(&self) {
        assert!(
            self.n_trees >= 1,
            "ForestConfig.n_trees must be >= 1 (got 0): an empty ensemble cannot predict"
        );
        assert!(
            self.bootstrap_fraction.is_finite() && self.bootstrap_fraction > 0.0,
            "ForestConfig.bootstrap_fraction must be a finite positive number (got {}): \
             it scales the per-tree bootstrap sample size",
            self.bootstrap_fraction
        );
        self.tree.validate();
    }
}

/// A fitted random forest.
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    importances: Vec<f64>,
}

impl RandomForest {
    /// Fits `n_trees` trees on bootstrap resamples, in parallel. Each
    /// worker thread owns one reusable `TreeScratch` (the per-tree row
    /// layout) and draws its tree's bootstrap straight into it, so
    /// per-tree training does not allocate per node — and the fitted
    /// forest is still identical for every pool size because each tree's
    /// seed stream is its own.
    pub fn fit(config: &ForestConfig, data: &Dataset, seed: u64) -> Self {
        config.validate();
        assert!(data.n_rows() >= 2, "forest needs at least two rows");
        let n = data.n_rows();
        #[expect(
            clippy::as_conversions,
            reason = "fractional bootstrap target rounded to a whole row count; saturates, and the limit below rejects it"
        )]
        let boot = ((n as f64) * config.bootstrap_fraction).round().max(1.0) as usize;
        assert!(
            boot <= MAX_SAMPLE && n <= MAX_SAMPLE,
            "ForestConfig.bootstrap_fraction of {} asks for {boot} bootstrap draws over {n} rows, \
             above the tree kernel's limit of {MAX_SAMPLE} (u32 multiplicities and row ids)",
            config.bootstrap_fraction
        );
        let mut tree_cfg = config.tree.clone();
        if tree_cfg.max_features.is_none() {
            let d = data.n_features();
            #[expect(
                clippy::as_conversions,
                reason = "ceil(sqrt(d)) feature heuristic is integral by construction"
            )]
            let max_features = (d as f64).sqrt().ceil() as usize;
            tree_cfg.max_features = Some(max_features);
            tree_cfg.validate();
        }
        // Sort every feature column exactly once; each tree filters its
        // bootstrap's orders from this shared read-only structure.
        let pre = PresortedDataset::build(data);
        let trees: Vec<DecisionTree> = (0..config.n_trees)
            .into_par_iter()
            .map_init(TreeScratch::new, |scratch, t| {
                // Independent stream per tree: bootstrap + feature draws.
                let mut rng = SplitMix64::for_stream(seed, u64_from_usize(t));
                let draws = (0..boot).map(|_| usize_from_u64(rng.next_bounded(u64_from_usize(n))));
                let (n_boot, n_pos) = scratch.sample(&pre, data, draws);
                DecisionTree::grow(&tree_cfg, &pre, scratch, n_boot, n_pos, rng.next_u64())
            })
            .collect();
        // MDI importances: mean of per-tree raw importances, normalized.
        let d = data.n_features();
        let mut importances = vec![0.0f64; d];
        for t in &trees {
            for (acc, &v) in importances.iter_mut().zip(t.raw_importances()) {
                *acc += v;
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for v in &mut importances {
                *v /= total;
            }
        }
        RandomForest { trees, importances }
    }

    /// Normalized MDI feature importances (sum to 1 unless degenerate).
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Importances paired with names, sorted descending — the presentation
    /// of Figure 16.
    pub fn ranked_importances(&self, names: &[String]) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = names
            .iter()
            .cloned()
            .zip(self.importances.iter().copied())
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted trees in ensemble order, for [`crate::flat`]'s
    /// flattening pass.
    pub(crate) fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }
}

impl Classifier for RandomForest {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(row)).sum();
        sum / f64_from_usize(self.trees.len())
    }

    /// Flattens once and scores through [`FlatForest`], bit-identical to
    /// [`predict_proba`](Self::predict_proba) on every row.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        FlatForest::from_forest(self).predict_batch(data)
    }

    fn name(&self) -> &'static str {
        "Random Forest"
    }
}

impl Trainer for ForestConfig {
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        Box::new(RandomForest::fit(self, data, seed))
    }

    fn name(&self) -> String {
        "Random Forest".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use ssd_stats::SplitMix64;

    fn noisy_nonlinear(n: usize, seed: u64) -> Dataset {
        // Ring classification with label noise: forests should beat
        // single trees here.
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let x = rng.next_f64() * 2.0 - 1.0;
            let y = rng.next_f64() * 2.0 - 1.0;
            let r = (x * x + y * y).sqrt();
            let mut label = (0.4..0.8).contains(&r);
            if rng.next_f64() < 0.05 {
                label = !label;
            }
            d.push_row(&[x as f32, y as f32], label, i as u32);
        }
        d
    }

    #[test]
    fn forest_fits_nonlinear_structure() {
        let train = noisy_nonlinear(800, 1);
        let test = noisy_nonlinear(300, 2);
        let cfg = ForestConfig {
            n_trees: 40,
            ..Default::default()
        };
        let m = RandomForest::fit(&cfg, &train, 0);
        let scores = m.predict_batch(&test);
        assert!(roc_auc(&scores, test.labels()) > 0.9);
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let train = noisy_nonlinear(600, 3);
        let test = noisy_nonlinear(300, 4);
        let tree = DecisionTree::fit(&TreeConfig::default(), &train, 0);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 60,
                ..Default::default()
            },
            &train,
            0,
        );
        let auc_tree = roc_auc(&tree.predict_batch(&test), test.labels());
        let auc_forest = roc_auc(&forest.predict_batch(&test), test.labels());
        assert!(
            auc_forest >= auc_tree - 0.005,
            "forest {auc_forest} vs tree {auc_tree}"
        );
    }

    #[test]
    fn fit_is_deterministic_across_runs() {
        let train = noisy_nonlinear(300, 5);
        let cfg = ForestConfig {
            n_trees: 10,
            ..Default::default()
        };
        let a = RandomForest::fit(&cfg, &train, 7);
        let b = RandomForest::fit(&cfg, &train, 7);
        assert_eq!(a.predict_batch(&train), b.predict_batch(&train));
        assert_eq!(a.feature_importances(), b.feature_importances());
    }

    #[test]
    fn importances_are_normalized_and_informative() {
        let mut rng = SplitMix64::new(6);
        let mut d = Dataset::with_dims(3);
        for i in 0..500 {
            let x = rng.next_f64() as f32;
            let n1 = rng.next_f64() as f32;
            let n2 = rng.next_f64() as f32;
            d.push_row(&[n1, x, n2], x > 0.5, i as u32);
        }
        let m = RandomForest::fit(
            &ForestConfig {
                n_trees: 30,
                ..Default::default()
            },
            &d,
            0,
        );
        let imp = m.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > imp[0] && imp[1] > imp[2], "{imp:?}");
        let ranked = m.ranked_importances(&[
            "noise1".into(),
            "signal".into(),
            "noise2".into(),
        ]);
        assert_eq!(ranked[0].0, "signal");
    }

    #[test]
    fn probability_is_mean_of_trees() {
        let train = noisy_nonlinear(200, 8);
        let m = RandomForest::fit(
            &ForestConfig {
                n_trees: 5,
                ..Default::default()
            },
            &train,
            0,
        );
        let p = m.predict_proba(train.row(0));
        assert!((0.0..=1.0).contains(&p));
        assert_eq!(m.n_trees(), 5);
    }
}
