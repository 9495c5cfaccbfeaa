//! A flattened random forest for cache-friendly batch scoring.
//!
//! The pointer forest in [`crate::forest`] is the right shape for
//! training but a poor fit for fleet-wide scoring: each prediction chases
//! `Vec<Node>` enums across 50+ independently grown trees, so the working
//! set per *row* is the entire ensemble. This module flattens a fitted
//! forest into structure-of-arrays node tables —
//! feature index, threshold, child offset, leaf payload — laid out in
//! breadth-first order with sibling children adjacent, and evaluates rows
//! in blocks with a tree-outer / row-inner loop: one tree's hot upper
//! levels stay resident in cache across a whole block of rows instead of
//! the whole forest competing for cache on every row. It is the only
//! batch path: `RandomForest::predict_batch` flattens once and scores
//! here, and the pointer trees keep just their per-row `predict_proba`
//! walk as the reference.
//!
//! Equivalence contract: for every row, [`FlatForest`] returns
//! probabilities *bit-identical* to the pointer forest it was flattened
//! from — same traversal predicate (`row[f] <= t`, with NaN routed to the
//! right child), same left-to-right tree accumulation order, same final
//! division by the tree count. `tests/flat_equivalence.rs` pins this
//! with a property battery; `ssd-bench`'s `bench_flat_predict` pins the
//! speedup.
//!
//! ```
//! use ssd_ml::{Classifier, Dataset, FlatForest, ForestConfig, RandomForest};
//!
//! let mut data = Dataset::with_dims(2);
//! for i in 0..40u32 {
//!     let x = i as f32 / 40.0;
//!     data.push_row(&[x, 1.0 - x], x > 0.5, i);
//! }
//! let forest = RandomForest::fit(
//!     &ForestConfig { n_trees: 5, ..ForestConfig::default() },
//!     &data,
//!     42,
//! );
//! let flat = FlatForest::from_forest(&forest);
//! for i in 0..data.n_rows() {
//!     let row = data.row(i);
//!     // Flattening changes layout, never bits.
//!     assert_eq!(flat.predict_proba(row).to_bits(), forest.predict_proba(row).to_bits());
//! }
//! ```

use crate::classifier::Classifier;
use crate::dataset::Dataset;
use crate::forest::RandomForest;
use crate::tree::Node;
use ssd_parallel::prelude::*;
use ssd_types::cast::{f64_from_usize, u32_from_usize, usize_from_u32};
use std::collections::VecDeque;

/// Sentinel in the `feature` column marking a leaf node.
const LEAF: u32 = u32::MAX;

/// Rows per evaluation block: large enough to amortize the per-tree loop
/// restart, small enough that a block of 31-feature rows plus its f64
/// accumulator stays in L1/L2 alongside one tree's node arrays.
const BLOCK_ROWS: usize = 256;

/// Rows walked in lockstep per tree. A single root-to-leaf walk is a
/// chain of dependent loads (node → feature value → child id), so one
/// walk at a time leaves the core idle between levels; eight independent
/// walks in flight let those chains overlap.
const LANES: usize = 8;

/// Structure-of-arrays node storage of a flat forest.
///
/// Per node: `feature[i]` (or [`LEAF`]), `threshold[i]`, and `payload[i]`
/// — the id of the *first* child for splits (the second child is always
/// `payload[i] + 1`; flattening renumbers siblings adjacently), or an
/// index into `leaf_values` for leaves. `roots[t]` is tree `t`'s root id.
struct FlatNodes {
    feature: Vec<u32>,
    threshold: Vec<f32>,
    payload: Vec<u32>,
    roots: Vec<u32>,
    /// Max root-to-leaf edge count per tree, parallel to `roots` — the
    /// iteration bound for the branchless lockstep walk.
    depths: Vec<u32>,
    /// Leaf positive-class probabilities.
    leaf_values: Vec<f32>,
}

impl FlatNodes {
    fn new() -> Self {
        FlatNodes {
            feature: Vec::new(),
            threshold: Vec::new(),
            payload: Vec::new(),
            roots: Vec::new(),
            depths: Vec::new(),
            leaf_values: Vec::new(),
        }
    }

    /// Reserves `n` node slots and returns the first id.
    fn alloc(&mut self, n: usize) -> u32 {
        let base = u32_from_usize(self.feature.len());
        for _ in 0..n {
            self.feature.push(LEAF);
            self.threshold.push(0.0);
            self.payload.push(0);
        }
        base
    }

    /// Flattens one pointer tree (rooted at `src[0]`) breadth-first,
    /// renumbering so every split's children land in adjacent slots.
    fn push_tree(&mut self, src: &[Node]) {
        let root = self.alloc(1);
        self.roots.push(root);
        let mut max_depth = 0u32;
        let mut queue: VecDeque<(u32, u32, u32)> = VecDeque::new();
        queue.push_back((0, root, 0));
        while let Some((s, dst, depth)) = queue.pop_front() {
            max_depth = max_depth.max(depth);
            match src[usize_from_u32(s)] {
                Node::Leaf { prob } => {
                    self.feature[usize_from_u32(dst)] = LEAF;
                    self.payload[usize_from_u32(dst)] = u32_from_usize(self.leaf_values.len());
                    self.leaf_values.push(prob);
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let first = self.alloc(2);
                    self.feature[usize_from_u32(dst)] = u32::from(feature);
                    self.threshold[usize_from_u32(dst)] = threshold;
                    self.payload[usize_from_u32(dst)] = first;
                    queue.push_back((left, first, depth + 1));
                    queue.push_back((right, first + 1, depth + 1));
                }
            }
        }
        self.depths.push(max_depth);
    }

    /// Walks one tree for one row and returns its leaf probability.
    #[inline]
    fn leaf_for(&self, root: u32, row: &[f32]) -> f32 {
        let mut id = usize_from_u32(root);
        loop {
            let f = self.feature[id];
            if f == LEAF {
                return self.leaf_values[usize_from_u32(self.payload[id])];
            }
            // `!(x <= t)` — not `x > t` — so a NaN feature takes the right
            // child exactly as the pointer trees' if/else does.
            #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must go right")]
            let go_right = !(row[usize_from_u32(f)] <= self.threshold[id]);
            id = usize_from_u32(self.payload[id] + u32::from(go_right));
        }
    }

    /// One level-synchronous step for lane `j`: advance its id one level,
    /// or hold it in place (via conditional moves, no branch) if it
    /// already sits on a leaf.
    #[inline(always)]
    fn step_lane(&self, rows: &[f32], n_features: usize, j: usize, id: usize) -> usize {
        let f = self.feature[id];
        let is_leaf = f == LEAF;
        // Leaves load row column 0 harmlessly; the stepped id is
        // discarded by the `is_leaf` select below.
        let fi = if is_leaf { 0 } else { usize_from_u32(f) };
        let x = rows[j * n_features + fi];
        // `!(x <= t)` — not `x > t` — so a NaN feature takes the right
        // child exactly as the pointer trees' if/else does.
        #[expect(clippy::neg_cmp_op_on_partial_ord, reason = "NaN must go right")]
        let go_right = !(x <= self.threshold[id]);
        let next = usize_from_u32(self.payload[id] + u32::from(go_right));
        if is_leaf {
            id
        } else {
            next
        }
    }

    /// Walks one tree for `n ≤ LANES` consecutive rows in lockstep and
    /// adds each row's leaf probability to its accumulator.
    ///
    /// A single root-to-leaf walk is a chain of dependent loads, so the
    /// walks advance level-synchronously: exactly `depth` passes with no
    /// data-dependent branches. A lane that reaches a leaf early
    /// self-loops there via conditional moves — the leaf's (ignored)
    /// threshold and payload are still loaded, but the lane's id never
    /// changes — so every pass is branch-predictable and the eight load
    /// chains stay in flight. Per-row results are identical to
    /// [`leaf_for`](Self::leaf_for) — lockstep changes only the schedule.
    #[expect(
        clippy::needless_range_loop,
        reason = "the eight-lane scoring kernel: its indexed lane loop is the shape the lockstep walk is tuned for"
    )]
    #[inline]
    fn fold_group(
        &self,
        root: u32,
        depth: u32,
        rows: &[f32],
        n_features: usize,
        n: usize,
        acc: &mut [f64],
    ) {
        let mut ids = [usize_from_u32(root); LANES];
        if n == LANES {
            // Full group: a compile-time lane count lets the level pass
            // unroll completely, keeping all eight load chains in flight.
            for _ in 0..depth {
                for j in 0..LANES {
                    ids[j] = self.step_lane(rows, n_features, j, ids[j]);
                }
            }
        } else {
            for _ in 0..depth {
                for (j, id_slot) in ids.iter_mut().enumerate().take(n) {
                    *id_slot = self.step_lane(rows, n_features, j, *id_slot);
                }
            }
        }
        for (j, a) in acc.iter_mut().enumerate().take(n) {
            *a += f64::from(self.leaf_values[usize_from_u32(self.payload[ids[j]])]);
        }
    }

    /// Runs [`fold_group`](Self::fold_group) across a whole block of rows
    /// for every tree, tree-outer so one tree stays cache-hot per pass.
    fn fold_block(&self, chunk: &[f32], n_features: usize, acc: &mut [f64]) {
        let n_rows = acc.len();
        for (t, &root) in self.roots.iter().enumerate() {
            let depth = self.depths[t];
            let mut r = 0;
            while r < n_rows {
                let n = LANES.min(n_rows - r);
                self.fold_group(
                    root,
                    depth,
                    &chunk[r * n_features..],
                    n_features,
                    n,
                    &mut acc[r..r + n],
                );
                r += n;
            }
        }
    }

    fn n_nodes(&self) -> usize {
        self.feature.len()
    }
}

/// Splits a row-major feature buffer into blocks and evaluates them in
/// parallel; `eval` fills each block's zero-initialized score slice.
/// Block boundaries never affect values (each row's score depends only on
/// its own features), so output order equals input order for every pool
/// size.
fn batch_eval(
    features: &[f32],
    n_features: usize,
    eval: impl Fn(&[f32], &mut [f64]) + Sync,
) -> Vec<f64> {
    assert!(n_features > 0, "n_features must be positive");
    assert_eq!(
        features.len() % n_features,
        0,
        "feature buffer length must be a multiple of n_features"
    );
    let blocks: Vec<Vec<f64>> = features
        .par_chunks(BLOCK_ROWS * n_features)
        .map(|chunk| {
            let mut acc = vec![0.0f64; chunk.len() / n_features];
            eval(chunk, &mut acc);
            acc
        })
        .collect();
    let mut out = Vec::with_capacity(features.len() / n_features);
    for b in blocks {
        out.extend(b);
    }
    out
}

/// Scores a contiguous row-major feature buffer in one call — the
/// interface `predict_fleet_day`-style callers batch thousands of drives
/// through.
pub trait BatchScorer: Send + Sync {
    /// Scores every `n_features`-wide row of `features`, preserving row
    /// order. Panics if the buffer length is not a multiple of
    /// `n_features`.
    fn predict_rows(&self, features: &[f32], n_features: usize) -> Vec<f64>;

    /// Human-readable scorer name.
    fn scorer_name(&self) -> &'static str;
}

/// A [`RandomForest`] flattened into contiguous node arrays.
pub struct FlatForest {
    nodes: FlatNodes,
}

impl FlatForest {
    /// Flattens a fitted forest in O(total nodes).
    pub fn from_forest(forest: &RandomForest) -> Self {
        let mut nodes = FlatNodes::new();
        for tree in forest.trees() {
            nodes.push_tree(tree.nodes());
        }
        FlatForest { nodes }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.nodes.roots.len()
    }

    /// Total node count across all flattened trees.
    pub fn n_nodes(&self) -> usize {
        self.nodes.n_nodes()
    }

    fn eval_block(&self, chunk: &[f32], n_features: usize, acc: &mut [f64]) {
        self.nodes.fold_block(chunk, n_features, acc);
        let n = f64_from_usize(self.nodes.roots.len());
        for a in acc {
            *a /= n;
        }
    }
}

impl BatchScorer for FlatForest {
    fn predict_rows(&self, features: &[f32], n_features: usize) -> Vec<f64> {
        batch_eval(features, n_features, |chunk, acc| {
            self.eval_block(chunk, n_features, acc)
        })
    }

    fn scorer_name(&self) -> &'static str {
        "Flat Random Forest"
    }
}

impl Classifier for FlatForest {
    /// Bit-identical to [`RandomForest::predict_proba`]: trees accumulate
    /// left to right into an f64 sum, divided once at the end.
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut sum = 0.0f64;
        for &root in &self.nodes.roots {
            sum += f64::from(self.nodes.leaf_for(root, row));
        }
        sum / f64_from_usize(self.nodes.roots.len())
    }

    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        self.predict_rows(data.raw_features(), data.n_features())
    }

    fn name(&self) -> &'static str {
        "Flat Random Forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use ssd_stats::SplitMix64;

    fn ring_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let x = rng.next_f64() * 2.0 - 1.0;
            let y = rng.next_f64() * 2.0 - 1.0;
            let r = (x * x + y * y).sqrt();
            d.push_row(&[x as f32, y as f32], (0.4..0.8).contains(&r), i as u32);
        }
        d
    }

    #[test]
    fn forest_flattening_preserves_tree_and_leaf_counts() {
        let data = ring_data(300, 1);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 7,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        assert_eq!(flat.n_trees(), 7);
        assert!(flat.n_nodes() >= 7, "every tree has at least a root");
    }

    #[test]
    fn flat_forest_matches_pointer_forest_bitwise() {
        let data = ring_data(400, 2);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 9,
                ..Default::default()
            },
            &data,
            3,
        );
        let flat = FlatForest::from_forest(&forest);
        for i in 0..data.n_rows() {
            let p = forest.predict_proba(data.row(i));
            let q = flat.predict_proba(data.row(i));
            assert_eq!(p.to_bits(), q.to_bits(), "row {i}: {p} vs {q}");
        }
        // Both batch entry points score through the flat arrays; they
        // must reproduce the pointer trees' per-row walk.
        let per_row: Vec<f64> = (0..data.n_rows())
            .map(|i| forest.predict_proba(data.row(i)))
            .collect();
        assert_eq!(flat.predict_batch(&data), per_row);
        assert_eq!(forest.predict_batch(&data), per_row);
    }

    #[test]
    fn nan_rows_route_like_the_pointer_trees() {
        let data = ring_data(200, 6);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 5,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        for probe in [
            [f32::NAN, 0.1],
            [0.1, f32::NAN],
            [f32::NAN, f32::NAN],
            [f32::INFINITY, -0.3],
            [-0.3, f32::NEG_INFINITY],
        ] {
            let p = forest.predict_proba(&probe);
            let q = flat.predict_proba(&probe);
            assert_eq!(p.to_bits(), q.to_bits(), "probe {probe:?}");
        }
    }

    #[test]
    fn predict_rows_handles_empty_and_ragged_block_tails() {
        let data = ring_data(BLOCK_ROWS + 17, 7);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 3,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        assert!(flat.predict_rows(&[], 2).is_empty());
        let scores = flat.predict_rows(data.raw_features(), 2);
        assert_eq!(scores.len(), data.n_rows());
        let per_row: Vec<f64> = (0..data.n_rows())
            .map(|i| forest.predict_proba(data.row(i)))
            .collect();
        assert_eq!(scores, per_row);
    }

    #[test]
    #[should_panic(expected = "multiple of n_features")]
    fn predict_rows_rejects_misaligned_buffers() {
        let data = ring_data(50, 8);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 2,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        flat.predict_rows(&[0.0, 1.0, 2.0], 2);
    }
}
