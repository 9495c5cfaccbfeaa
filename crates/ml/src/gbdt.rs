//! Gradient-boosted decision trees with logistic loss.
//!
//! The paper closes by noting it is "working on … improv\[ing\] our
//! prediction models for large N" (Section 7). Boosting is the natural
//! next step beyond bagging: where the random forest averages
//! independently-grown deep trees, GBDT grows shallow trees sequentially
//! on the gradient of the loss, which often squeezes more signal out of
//! weak, distant-horizon features. The ablation benches compare the two
//! at several lookaheads.
//!
//! Implementation: standard second-order (Newton) leaf values for the
//! logistic loss, deterministic per-round row subsampling, and an internal
//! variance-reduction regression tree. Each round's subsample is laid out
//! in [`crate::split_kernel`]'s row layout with unit multiplicities (it
//! draws without replacement) over an all-sorted column set; gradients and
//! hessians are indexed by dataset row and summed in `(value, row)` order.

use crate::classifier::{sigmoid, Classifier, Trainer};
use crate::dataset::Dataset;
use crate::flat::FlatGbdt;
use crate::split_kernel::{scan_feature, NewtonCriterion, PresortedDataset, TreeScratch};
use ssd_stats::SplitMix64;
use ssd_types::cast::{f64_from_usize, u16_from_usize, u32_from_usize, u64_from_usize, usize_from_u32, usize_from_u64};

/// Hyperparameters for gradient boosting.
#[derive(Debug, Clone, PartialEq)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum depth of each (shallow) tree.
    pub max_depth: usize,
    /// Minimum rows per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of rows sampled (without replacement) per round.
    pub subsample: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_trees: 150,
            learning_rate: 0.1,
            max_depth: 4,
            min_samples_leaf: 5,
            subsample: 0.8,
        }
    }
}

impl GbdtConfig {
    /// Panics with a descriptive message if any hyperparameter is
    /// degenerate. Called by [`Gbdt::fit`].
    pub fn validate(&self) {
        assert!(
            self.n_trees >= 1,
            "GbdtConfig.n_trees must be >= 1 (got 0): zero rounds fit nothing"
        );
        assert!(
            self.learning_rate.is_finite() && self.learning_rate > 0.0,
            "GbdtConfig.learning_rate must be a finite positive number (got {})",
            self.learning_rate
        );
        assert!(
            self.max_depth >= 1,
            "GbdtConfig.max_depth must be >= 1 (got 0): depth-0 trees can never split"
        );
        assert!(
            self.min_samples_leaf >= 1,
            "GbdtConfig.min_samples_leaf must be >= 1 (got 0): empty leaves have no value"
        );
        assert!(
            self.subsample.is_finite() && self.subsample > 0.0 && self.subsample <= 1.0,
            "GbdtConfig.subsample must be in (0, 1] (got {}): it is the fraction of rows \
             sampled without replacement per round",
            self.subsample
        );
    }
}

/// One node of the internal regression tree.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegNode {
    Split {
        feature: u16,
        threshold: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        value: f64,
    },
}

/// A regression tree fitted to (gradient, hessian) pairs with Newton leaf
/// values `−Σg / (Σh + λ)`.
pub(crate) struct RegTree {
    nodes: Vec<RegNode>,
}

const LAMBDA: f64 = 1.0; // L2 on leaf values, as in standard GBDT

/// Grows one regression tree over the row layout in a [`TreeScratch`],
/// whose sample has unit multiplicities. Nodes are segments `[lo, hi)` of
/// the shared per-feature orders over the sampled rows; every column is
/// sorted ([`PresortedDataset::build_sorted`]), so feature `f` is sorted
/// column `f`. `grad`/`hess` are indexed by dataset row.
struct RegBuilder<'a> {
    pre: &'a PresortedDataset,
    scratch: &'a mut TreeScratch,
    grad: &'a [f64],
    hess: &'a [f64],
    max_depth: usize,
    min_leaf: usize,
    nodes: Vec<RegNode>,
}

impl<'a> RegBuilder<'a> {
    /// Gradient/hessian totals of the rows in `order`, summed in its
    /// deterministic (value, row) order.
    fn sums(&self, order: &[u32]) -> (f64, f64) {
        let (mut g, mut h) = (0.0, 0.0);
        for &row in order {
            g += self.grad[usize_from_u32(row)];
            h += self.hess[usize_from_u32(row)];
        }
        (g, h)
    }

    fn build(&mut self, lo: usize, hi: usize, depth: usize) -> u32 {
        let n = hi - lo;
        let (g_sum, h_sum) = self.sums(self.scratch.order_segment(0, lo, hi));
        let leaf = |nodes: &mut Vec<RegNode>| {
            nodes.push(RegNode::Leaf { value: -g_sum / (h_sum + LAMBDA) });
            u32_from_usize(nodes.len() - 1)
        };
        if depth >= self.max_depth || n < 2 * self.min_leaf {
            return leaf(&mut self.nodes);
        }
        let Some((feature, threshold, split_at)) = self.best_split(lo, hi, g_sum, h_sum)
        else {
            return leaf(&mut self.nodes);
        };
        self.nodes.push(RegNode::Leaf { value: 0.0 });
        let me = u32_from_usize(self.nodes.len() - 1);

        // If both children are leaves by construction, their Newton values
        // need only the left/right sums, which the winning feature's
        // (pre-partition) segment already yields — skip the O(n·d)
        // partition.
        let child_is_leaf =
            |n_c: usize| depth + 1 >= self.max_depth || n_c < 2 * self.min_leaf;
        let (left, right) = if child_is_leaf(split_at) && child_is_leaf(n - split_at) {
            let winner = self
                .scratch
                .order_segment(usize::from(feature), lo, lo + split_at);
            let (gl, hl) = self.sums(winner);
            self.nodes.push(RegNode::Leaf { value: -gl / (hl + LAMBDA) });
            self.nodes.push(RegNode::Leaf {
                value: -(g_sum - gl) / ((h_sum - hl) + LAMBDA),
            });
            (me + 1, me + 2)
        } else {
            // Unit multiplicities: the left block's row count is `split_at`.
            let mid = lo
                + self
                    .scratch
                    .apply_split(self.pre, lo, hi, feature, threshold);
            let left = self.build(lo, mid, depth + 1);
            let right = self.build(mid, hi, depth + 1);
            (left, right)
        };
        self.nodes[usize_from_u32(me)] = RegNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        me
    }

    /// Best split by gain of the Newton objective:
    /// `gain = G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)`,
    /// scanning each feature's pre-sorted node segment.
    fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        g_tot: f64,
        h_tot: f64,
    ) -> Option<(u16, f32, usize)> {
        let mut crit = NewtonCriterion::new(self.grad, self.hess, g_tot, h_tot, LAMBDA);
        let mut best: Option<(u16, f32, usize, f64)> = None;
        for f in 0..self.pre.n_features() {
            let order = self.scratch.order_segment(f, lo, hi);
            if let Some((threshold, gain, split_at)) =
                scan_feature(order, self.pre.values_of(f), self.min_leaf, &mut crit)
            {
                if best.is_none_or(|b| gain > b.3) {
                    best = Some((u16_from_usize(f), threshold, split_at, gain));
                }
            }
        }
        best.map(|(f, t, s, _)| (f, t, s))
    }
}

impl RegTree {
    /// The pre-order node table, for [`crate::flat`]'s flattening pass.
    pub(crate) fn nodes(&self) -> &[RegNode] {
        &self.nodes
    }

    fn predict(&self, row: &[f32]) -> f64 {
        let mut id = 0u32;
        loop {
            match self.nodes[usize_from_u32(id)] {
                RegNode::Leaf { value } => return value,
                RegNode::Split {
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
}

/// A fitted gradient-boosted model.
pub struct Gbdt {
    base_score: f64,
    learning_rate: f64,
    trees: Vec<RegTree>,
}

impl Gbdt {
    /// Fits with logistic loss.
    pub fn fit(config: &GbdtConfig, data: &Dataset, seed: u64) -> Self {
        config.validate();
        assert!(data.n_rows() >= 2, "GBDT needs at least two rows");
        let (pos, neg) = data.class_counts();
        assert!(pos > 0 && neg > 0, "GBDT needs both classes");
        let n = data.n_rows();
        let p0 = f64_from_usize(pos) / f64_from_usize(n);
        let base_score = (p0 / (1.0 - p0)).ln();

        let mut scores = vec![base_score; n];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let mut trees = Vec::with_capacity(config.n_trees);
        // lint:allow(rng-discipline) -- fit-entry stream root: the caller owns seed derivation, and re-mixing here would break pinned predictions
        let mut rng = SplitMix64::new(seed);
        #[expect(
            clippy::as_conversions,
            reason = "rounding a fractional subsample target down to a whole row count is the point"
        )]
        let sample_size = (f64_from_usize(n) * config.subsample).round().max(2.0) as usize;
        let mut pool: Vec<usize> = (0..n).collect();
        // The feature columns never change across rounds: sort them once
        // and derive each round's subsample orders from the shared result.
        let pre = PresortedDataset::build_sorted(data);
        // One scratch serves every boosting round: the row layout is
        // recycled, so a round allocates nothing but its node vector.
        let mut scratch = TreeScratch::new();

        for _ in 0..config.n_trees {
            // Logistic gradients: g = p − y, h = p(1 − p).
            for i in 0..n {
                let p = sigmoid(scores[i]);
                let y = f64::from(u8::from(data.label(i)));
                grad[i] = p - y;
                hess[i] = (p * (1.0 - p)).max(1e-9);
            }
            // Deterministic partial shuffle for the round's subsample.
            for i in 0..sample_size.min(n) {
                let j = i + usize_from_u64(rng.next_bounded(u64_from_usize(n - i)));
                pool.swap(i, j);
            }
            let (rows, _) = scratch.sample(&pre, data, pool[..sample_size.min(n)].iter().copied());
            let mut builder = RegBuilder {
                pre: &pre,
                scratch: &mut scratch,
                grad: &grad,
                hess: &hess,
                max_depth: config.max_depth,
                min_leaf: config.min_samples_leaf,
                nodes: Vec::new(),
            };
            builder.build(0, rows, 0);
            let tree = RegTree {
                nodes: builder.nodes,
            };
            for (i, score) in scores.iter_mut().enumerate() {
                *score += config.learning_rate * tree.predict(data.row(i));
            }
            trees.push(tree);
        }
        Gbdt {
            base_score,
            learning_rate: config.learning_rate,
            trees,
        }
    }

    /// Number of boosting rounds performed.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The fitted prior log-odds, for [`crate::flat`].
    pub(crate) fn base_score(&self) -> f64 {
        self.base_score
    }

    /// The shrinkage applied per round, for [`crate::flat`].
    pub(crate) fn shrinkage(&self) -> f64 {
        self.learning_rate
    }

    /// The boosting rounds in fit order, for [`crate::flat`].
    pub(crate) fn reg_trees(&self) -> &[RegTree] {
        &self.trees
    }
}

impl Classifier for Gbdt {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut score = self.base_score;
        for t in &self.trees {
            score += self.learning_rate * t.predict(row);
        }
        sigmoid(score)
    }

    /// Flattens once and scores through [`FlatGbdt`], bit-identical to
    /// [`predict_proba`](Self::predict_proba) on every row.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        FlatGbdt::from_gbdt(self).predict_batch(data)
    }

    fn name(&self) -> &'static str {
        "GBDT"
    }
}

impl Trainer for GbdtConfig {
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        Box::new(Gbdt::fit(self, data, seed))
    }

    fn name(&self) -> String {
        "GBDT".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;

    fn xor_data(n: usize, seed: u64) -> Dataset {
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
        let m = Gbdt::fit(&GbdtConfig::default(), &train, 0);
        let auc = roc_auc(&m.predict_batch(&test), test.labels());
        assert!(auc > 0.97, "AUC {auc}");
    }

    #[test]
    fn more_rounds_fit_training_data_better() {
        let train = xor_data(300, 3);
        // A single depth-4 tree cannot rank XOR perfectly; many rounds can.
        let small = Gbdt::fit(
            &GbdtConfig {
                n_trees: 1,
                ..Default::default()
            },
            &train,
            0,
        );
        let large = Gbdt::fit(
            &GbdtConfig {
                n_trees: 100,
                ..Default::default()
            },
            &train,
            0,
        );
        let auc_small = roc_auc(&small.predict_batch(&train), train.labels());
        let auc_large = roc_auc(&large.predict_batch(&train), train.labels());
        assert!(auc_large >= auc_small, "{auc_large} vs {auc_small}");
        assert!(auc_large > 0.97, "{auc_large}");
    }

    #[test]
    fn base_score_reflects_class_prior() {
        let mut d = Dataset::with_dims(1);
        let mut rng = SplitMix64::new(4);
        for i in 0..400 {
            // Label independent of the (noise) feature.
            d.push_row(&[rng.next_f64() as f32], i % 4 == 0, i as u32);
        }
        let m = Gbdt::fit(
            &GbdtConfig {
                n_trees: 3,
                ..Default::default()
            },
            &d,
            0,
        );
        // With no signal, predictions stay near the 25% prior.
        let mean: f64 = m.predict_batch(&d).iter().sum::<f64>() / d.n_rows() as f64;
        assert!((mean - 0.25).abs() < 0.1, "mean prediction {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let train = xor_data(200, 5);
        let cfg = GbdtConfig {
            n_trees: 20,
            ..Default::default()
        };
        let a = Gbdt::fit(&cfg, &train, 9);
        let b = Gbdt::fit(&cfg, &train, 9);
        assert_eq!(a.predict_batch(&train), b.predict_batch(&train));
        assert_eq!(a.n_trees(), 20);
    }

    #[test]
    fn probabilities_are_valid() {
        let train = xor_data(150, 6);
        let m = Gbdt::fit(&GbdtConfig::default(), &train, 0);
        for i in 0..train.n_rows() {
            let p = m.predict_proba(train.row(i));
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        let mut d = Dataset::with_dims(1);
        d.push_row(&[0.0], true, 0);
        d.push_row(&[1.0], true, 1);
        Gbdt::fit(&GbdtConfig::default(), &d, 0);
    }
}
