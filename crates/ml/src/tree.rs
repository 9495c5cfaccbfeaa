//! CART decision tree (Gini impurity) with mean-decrease-in-impurity
//! feature importances.
//!
//! The tree is the paper's second-best single model (Table 6) and the
//! building block of its best one, the random forest. Importances use the
//! same MDI construction the paper interprets in Figure 16.
//!
//! Growth runs on [`crate::split_kernel`]'s row layout: the sample is a
//! set of distinct dataset rows with multiplicities, a node is a segment
//! of those rows plus its weighted sample count, and every count the tree
//! reads — leaf probabilities, `min_samples_*`, MDI node mass — is
//! weighted. A row listed k times in `fit_on` grows the same tree as k
//! copies of it.

use crate::classifier::{Classifier, Trainer};
use crate::dataset::Dataset;
use crate::split_kernel::{GiniNode, GiniSplit, PresortedDataset, TreeScratch, MAX_SAMPLE};
use ssd_stats::SplitMix64;
use ssd_types::cast::{
    f32_from_usize, f64_from_usize, u16_from_usize, u32_from_usize, u64_from_usize,
    usize_from_u32, usize_from_u64,
};

/// Hyperparameters for CART growth.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth — the paper's grid-searched regularization knob
    /// for tree models (Section 5.2).
    pub max_depth: usize,
    /// Minimum samples required to consider splitting a node.
    pub min_samples_split: usize,
    /// Minimum samples in each child of a split.
    pub min_samples_leaf: usize,
    /// Number of features considered per split; `None` = all (plain CART),
    /// `Some(m)` = uniform random subset of m (used by random forests).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_samples_split: 8,
            min_samples_leaf: 3,
            max_features: None,
        }
    }
}

impl TreeConfig {
    /// Panics with a descriptive message if any hyperparameter is
    /// degenerate. Called by every `fit` entry point.
    pub fn validate(&self) {
        assert!(
            self.max_depth >= 1,
            "TreeConfig.max_depth must be >= 1 (got 0): a depth-0 tree can never split"
        );
        assert!(
            self.min_samples_split >= 2,
            "TreeConfig.min_samples_split must be >= 2 (got {}): a node needs two samples to split",
            self.min_samples_split
        );
        assert!(
            self.min_samples_leaf >= 1,
            "TreeConfig.min_samples_leaf must be >= 1 (got 0): empty leaves have no probability"
        );
        if let Some(m) = self.max_features {
            assert!(
                m >= 1,
                "TreeConfig.max_features must be >= 1 when set (got Some(0)): \
                 no candidate features means no split can ever be found"
            );
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Split {
        feature: u16,
        threshold: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        prob: f32,
    },
}

/// A fitted decision tree.
pub struct DecisionTree {
    nodes: Vec<Node>,
    importances: Vec<f64>,
    n_features: usize,
}

/// Grows one tree over the row layout in a [`TreeScratch`].
///
/// A node is a segment `[lo, hi)` of the distinct sampled rows (and of
/// every sorted order) plus its sample count `n`, weighted by the rows'
/// multiplicities. Counts are threaded down the recursion (totals from
/// [`TreeScratch::sample`], split counts from the winning scan) so no node
/// ever re-counts labels.
struct Builder<'a> {
    config: &'a TreeConfig,
    pre: &'a PresortedDataset,
    scratch: &'a mut TreeScratch,
    n_features: usize,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    n_total: f64,
    rng: SplitMix64,
    /// Scratch for feature subsampling.
    feature_pool: Vec<u16>,
}

impl<'a> Builder<'a> {
    /// Recursively grows the subtree over rows `[lo, hi)` holding `n`
    /// samples, `pos` of them positive; returns its node id.
    fn build(&mut self, lo: usize, hi: usize, n: usize, pos: usize, depth: usize) -> u32 {
        let make_leaf = |nodes: &mut Vec<Node>| {
            nodes.push(Node::Leaf {
                prob: f32_from_usize(pos) / f32_from_usize(n),
            });
            u32_from_usize(nodes.len() - 1)
        };

        if depth >= self.config.max_depth
            || n < self.config.min_samples_split
            || pos == 0
            || pos == n
        {
            return make_leaf(&mut self.nodes);
        }

        let Some(GiniSplit { choice, pos_left }) = self.best_split(lo, hi, n, pos) else {
            return make_leaf(&mut self.nodes);
        };
        let (feature, threshold, split_at) = (choice.feature, choice.threshold, choice.split_at);

        // Accumulate MDI: impurity decrease weighted by node mass.
        self.importances[usize::from(feature)] += choice.gain * f64_from_usize(n) / self.n_total;

        let (n_left, n_right) = (split_at, n - split_at);
        let pos_right = pos - pos_left;

        // Reserve this node's slot before building children (pre-order ids).
        self.nodes.push(Node::Leaf { prob: 0.0 });
        let me = u32_from_usize(self.nodes.len() - 1);

        // If both children are leaves by construction, their probabilities
        // need only the counts just derived — skip the O(n·d) partition.
        let is_leaf = |n_c: usize, pos_c: usize| {
            depth + 1 >= self.config.max_depth
                || n_c < self.config.min_samples_split
                || pos_c == 0
                || pos_c == n_c
        };
        let (left, right) = if is_leaf(n_left, pos_left) && is_leaf(n_right, pos_right) {
            self.nodes.push(Node::Leaf { prob: f32_from_usize(pos_left) / f32_from_usize(n_left) });
            self.nodes.push(Node::Leaf { prob: f32_from_usize(pos_right) / f32_from_usize(n_right) });
            ((me + 1), (me + 2))
        } else {
            // One stable pass re-segments the row list and sorted orders.
            let mid = lo
                + self
                    .scratch
                    .apply_split(self.pre, lo, hi, feature, threshold);
            let left = self.build(lo, mid, n_left, pos_left, depth + 1);
            let right = self.build(mid, hi, n_right, pos_right, depth + 1);
            (left, right)
        };
        self.nodes[usize_from_u32(me)] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Finds the best split over the configured feature subset by scanning
    /// each candidate's column over the node.
    fn best_split(&mut self, lo: usize, hi: usize, n: usize, n_pos: usize) -> Option<GiniSplit> {
        let d = self.n_features;

        // Choose candidate features: all, or a fresh random subset.
        self.feature_pool.clear();
        self.feature_pool.extend(0..u16_from_usize(d));
        let n_candidates = self.config.max_features.unwrap_or(d).min(d);
        if n_candidates < d {
            for i in 0..n_candidates {
                let j = i + usize_from_u64(self.rng.next_bounded(u64_from_usize(d - i)));
                self.feature_pool.swap(i, j);
            }
        }

        let node = GiniNode::new(n, n_pos);
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<GiniSplit> = None;
        for ci in 0..n_candidates {
            let f = self.feature_pool[ci];
            let found = self.scratch.scan_gini(self.pre, f, lo, hi, min_leaf, node);
            if let Some(s) = found {
                if best.is_none_or(|b| s.choice.gain > b.choice.gain) {
                    best = Some(s);
                }
            }
        }
        best
    }
}

impl DecisionTree {
    /// Fits a tree on the rows of `data` listed in `indices` (pass
    /// `0..n_rows` for the full set; a repeated row counts once per
    /// listing, as a bootstrap draw does). `seed` drives feature
    /// subsampling when `max_features` is set.
    pub fn fit_on(config: &TreeConfig, data: &Dataset, indices: &[usize], seed: u64) -> Self {
        config.validate();
        assert!(!indices.is_empty(), "cannot fit a tree on zero rows");
        assert!(
            indices.len() <= MAX_SAMPLE,
            "cannot fit a tree on {} rows: the limit is {MAX_SAMPLE}",
            indices.len()
        );
        let pre = PresortedDataset::build(data);
        let mut scratch = TreeScratch::new();
        let (n, n_pos) = scratch.sample(&pre, data, indices.iter().copied());
        Self::grow(config, &pre, &mut scratch, n, n_pos, seed)
    }

    /// Grows a tree over the sample already laid out in `scratch` — `n`
    /// draws, `n_pos` of them positive — from a [`PresortedDataset`] that
    /// may be shared by every tree of an ensemble, so no per-tree sorting
    /// happens at all.
    pub(crate) fn grow(
        config: &TreeConfig,
        pre: &PresortedDataset,
        scratch: &mut TreeScratch,
        n: usize,
        n_pos: usize,
        seed: u64,
    ) -> Self {
        let n_features = pre.n_features();
        let mut b = Builder {
            config,
            pre,
            scratch,
            n_features,
            nodes: Vec::new(),
            importances: vec![0.0; n_features],
            n_total: f64_from_usize(n),
            // lint:allow(rng-discipline) -- per-tree stream root: the forest derives each tree's seed upstream, and re-mixing would break pinned predictions
            rng: SplitMix64::new(seed),
            feature_pool: Vec::with_capacity(n_features),
        };
        let rows = b.scratch.n_distinct();
        b.build(0, rows, n, n_pos, 0);
        DecisionTree {
            nodes: b.nodes,
            importances: b.importances,
            n_features,
        }
    }

    /// Fits on the full dataset.
    pub fn fit(config: &TreeConfig, data: &Dataset, seed: u64) -> Self {
        let indices: Vec<usize> = (0..data.n_rows()).collect();
        Self::fit_on(config, data, &indices, seed)
    }

    /// Raw (unnormalized) per-feature impurity decrease.
    pub fn raw_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Importances normalized to sum to 1 (all-zero if the tree is a stump).
    pub fn feature_importances(&self) -> Vec<f64> {
        let total: f64 = self.importances.iter().sum();
        if total <= 0.0 {
            return vec![0.0; self.n_features];
        }
        self.importances.iter().map(|&v| v / total).collect()
    }

    /// Number of nodes in the tree.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The pre-order node table, for [`crate::flat`]'s flattening pass.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Maximum depth actually reached.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], id: u32) -> usize {
            match nodes[usize_from_u32(id)] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + walk(nodes, left).max(walk(nodes, right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }
}

impl Classifier for DecisionTree {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut id = 0u32;
        loop {
            match self.nodes[usize_from_u32(id)] {
                Node::Leaf { prob } => return f64::from(prob),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if row[usize::from(feature)] <= threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "Decision Tree"
    }
}

impl Trainer for TreeConfig {
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        Box::new(DecisionTree::fit(self, data, seed))
    }

    fn name(&self) -> String {
        "Decision Tree".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use ssd_stats::SplitMix64;

    fn xor_data(n: usize, seed: u64) -> Dataset {
        // XOR: linearly inseparable, trivially tree-separable.
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let a = rng.next_f64() * 2.0 - 1.0;
            let b = rng.next_f64() * 2.0 - 1.0;
            d.push_row(&[a as f32, b as f32], (a > 0.0) != (b > 0.0), i as u32);
        }
        d
    }

    #[test]
    fn solves_xor() {
        let train = xor_data(600, 1);
        let test = xor_data(200, 2);
        let m = DecisionTree::fit(&TreeConfig::default(), &train, 0);
        let scores = m.predict_batch(&test);
        assert!(roc_auc(&scores, test.labels()) > 0.97);
    }

    #[test]
    fn pure_leaves_give_extreme_probabilities() {
        let mut d = Dataset::with_dims(1);
        for i in 0..20 {
            d.push_row(&[if i < 10 { 0.0 } else { 1.0 }], i >= 10, i as u32);
        }
        let m = DecisionTree::fit(
            &TreeConfig {
                min_samples_split: 2,
                min_samples_leaf: 1,
                ..Default::default()
            },
            &d,
            0,
        );
        assert_eq!(m.predict_proba(&[0.0]), 0.0);
        assert_eq!(m.predict_proba(&[1.0]), 1.0);
    }

    #[test]
    fn depth_limit_is_respected() {
        let train = xor_data(500, 3);
        for max_depth in [1, 2, 4] {
            let m = DecisionTree::fit(
                &TreeConfig {
                    max_depth,
                    ..Default::default()
                },
                &train,
                0,
            );
            assert!(m.depth() <= max_depth, "depth {} > {max_depth}", m.depth());
        }
    }

    #[test]
    fn min_samples_leaf_bounds_leaves() {
        let train = xor_data(300, 4);
        let m = DecisionTree::fit(
            &TreeConfig {
                min_samples_leaf: 50,
                ..Default::default()
            },
            &train,
            0,
        );
        // With 300 rows and ≥50 per leaf there can be at most 6 leaves,
        // i.e. at most 11 nodes.
        assert!(m.n_nodes() <= 11, "{} nodes", m.n_nodes());
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        // Feature 0 is label-defining; feature 1 is noise.
        let mut rng = SplitMix64::new(5);
        let mut d = Dataset::with_dims(2);
        for i in 0..400 {
            let x = rng.next_f64() as f32;
            let noise = rng.next_f64() as f32;
            d.push_row(&[x, noise], x > 0.5, i as u32);
        }
        let m = DecisionTree::fit(&TreeConfig::default(), &d, 0);
        let imp = m.feature_importances();
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.9, "informative feature importance {}", imp[0]);
    }

    #[test]
    fn constant_labels_make_a_stump() {
        let mut d = Dataset::with_dims(1);
        for i in 0..10 {
            d.push_row(&[i as f32], true, i as u32);
        }
        let m = DecisionTree::fit(&TreeConfig::default(), &d, 0);
        assert_eq!(m.n_nodes(), 1);
        assert_eq!(m.predict_proba(&[3.0]), 1.0);
        assert_eq!(m.feature_importances(), vec![0.0]);
    }

    #[test]
    fn feature_subsampling_is_seed_deterministic() {
        let train = xor_data(300, 6);
        let cfg = TreeConfig {
            max_features: Some(1),
            ..Default::default()
        };
        let a = DecisionTree::fit(&cfg, &train, 42);
        let b = DecisionTree::fit(&cfg, &train, 42);
        let pa = a.predict_batch(&train);
        let pb = b.predict_batch(&train);
        assert_eq!(pa, pb);
    }

    #[test]
    fn fit_on_subset_uses_only_those_rows() {
        let mut d = Dataset::with_dims(1);
        // Rows 0..10 say "feature>0.5 → positive"; rows 10..20 invert it.
        for i in 0..10 {
            d.push_row(&[1.0], true, i as u32);
            d.push_row(&[0.0], false, i as u32);
        }
        for i in 10..20 {
            d.push_row(&[1.0], false, i as u32);
            d.push_row(&[0.0], true, i as u32);
        }
        let first_half: Vec<usize> = (0..20).collect();
        let m = DecisionTree::fit_on(&TreeConfig::default(), &d, &first_half, 0);
        assert!(m.predict_proba(&[1.0]) > 0.5);
        assert!(m.predict_proba(&[0.0]) < 0.5);
    }
}
