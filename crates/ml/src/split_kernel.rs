//! Pre-sorted and binned column split kernel over a per-tree row layout,
//! the Gini split finder of the CART tree and so of the random forest.
//!
//! The naive CART recipe clones and re-sorts every candidate feature column
//! at every node — `O(d · n log n)` *per node*. This module never sorts
//! inside a tree. `PresortedDataset::build` looks at each feature column
//! once per ensemble fit and stores it as one of two kinds:
//!
//! * **Sorted columns** (the sklearn/XGBoost recipe). The column's row
//!   order is sorted once; every tree filters its sample's order out of it
//!   in one linear pass. A node scans its segment of that order (`O(n)`,
//!   no sorting), and applying a split re-segments the order with one
//!   **stable partition**, so each segment stays sorted by value for the
//!   node that owns it.
//! * **Binned columns.** A column with at most 256 distinct values is
//!   stored as `u8` codes plus its ascending distinct values. A node scans
//!   it by building a per-code `(count, positives)` histogram over the
//!   node's rows and walking the occupied codes in ascending order —
//!   `O(n + occupied code range)`, not `O(256)`. A split never moves it.
//!
//! # The row layout
//!
//! A tree is fitted on a multiset of dataset rows — a bootstrap draws rows
//! with replacement, so only about `1 − 1/e` of its draws are distinct.
//! `TreeScratch::sample` stores the sample as row weights (the
//! scikit-learn recipe): a per-dataset-row `[multiplicity, positive
//! multiplicity]`, the ascending list of distinct sampled rows, and each
//! sorted column's order restricted to those rows. Scans read values and
//! codes straight from the `PresortedDataset` by row and add
//! multiplicities to their left-side counts; a split partitions only the
//! distinct rows. A node is a segment `[lo, hi)` of the row list and of
//! every sorted order, plus its weighted sample count, which the caller
//! threads separately.
//!
//! # Determinism and bit-identity
//!
//! Sorting uses `f32::total_cmp` with the row id as tie-break, so a node's
//! per-feature sequence is a pure function of its member *set* —
//! independent of insertion order, thread count, and of the path of
//! partitions that produced the node. The Gini split a node picks is the
//! naive re-sorting finder's over one sample per draw, bit for bit:
//!
//! * Duplicates of a row share every value, so no candidate boundary falls
//!   between them; adding a row's multiplicity at once reaches exactly the
//!   `n_left`/`pos_left` the naive finder has at each boundary.
//! * Gini gains are computed from integer counts — exactly the sums of
//!   `1.0`s the naive finder accumulates.
//! * Codes group values equal under `==`, as the sorted scan's boundary
//!   test does (so `-0.0` and `+0.0` share a code). The binned walk
//!   therefore visits exactly the boundaries between distinct values that
//!   the sorted scan visits, with the same `n_left`/`pos_left`, the same
//!   `min_leaf`/`GAIN_EPS` tests, the same earliest-wins tie rule and the
//!   same [`split_threshold`] of the two adjacent distinct values. (A zero
//!   code stores `+0.0`; [`split_threshold`] returns the same bits for
//!   either sign of a zero operand.)
//! * Feature subsampling draws nothing from the column kinds.
//!
//! [`reference_best_split_gini`] retains the naive finder, and the
//! property suite pins the binned, sorted and naive finders to each other.

use crate::dataset::Dataset;
use ssd_types::cast::{
    f64_from_usize, u16_from_usize, u32_from_u64, u32_from_usize, u64_from_usize, u8_from_usize,
    usize_from_u32,
};

/// Gains at or below this threshold are not worth a split (guards against
/// floating-point noise producing size-zero improvements).
pub(crate) const GAIN_EPS: f64 = 1e-12;

/// Columns with at most this many distinct values are binned (`u8` codes).
const MAX_BINS: usize = 256;

/// The most draws one tree sample may hold: multiplicities, histogram
/// counts and row ids are `u32`.
pub(crate) const MAX_SAMPLE: usize = usize_from_u32(u32::MAX);

/// Gini impurity of a node with `pos` positives out of `n`.
#[inline]
pub(crate) fn gini(pos: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

/// Midpoint of two adjacent observed feature values, clamped so that
/// `v_lo <= threshold < v_hi`.
///
/// The unclamped `v_lo + (v_hi - v_lo) / 2.0` can round **up to `v_hi`**
/// in `f32` when the two values are adjacent floats (round-to-even lands
/// on `v_hi` whenever its mantissa is even). A threshold equal to `v_hi`
/// sends rows with value `v_hi` left at predict time (`x <= threshold`)
/// even though training counted them right — the clamp keeps training and
/// inference on the same side.
#[inline]
pub fn split_threshold(v_lo: f32, v_hi: f32) -> f32 {
    debug_assert!(v_lo < v_hi);
    let mid = v_lo + (v_hi - v_lo) / 2.0;
    if mid >= v_hi {
        v_lo
    } else {
        mid
    }
}

/// A chosen split: the feature, the decision threshold, its Gini gain, and
/// how many of the node's samples go left.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitChoice {
    /// Feature column the split tests.
    pub feature: u16,
    /// Decision threshold; rows with `value <= threshold` go left.
    pub threshold: f32,
    /// Gini impurity decrease of the split.
    pub gain: f64,
    /// Number of the node's samples (draws, counted with multiplicity) on
    /// the left side.
    pub split_at: usize,
}

/// A Gini split plus its left-side positive count, taken from the scan
/// that found it so neither child re-counts labels.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GiniSplit {
    pub(crate) choice: SplitChoice,
    pub(crate) pos_left: usize,
}

/// Gini gain arithmetic for one node: its size, positive count and
/// impurity.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GiniNode {
    size: usize,
    n: f64,
    n_pos: f64,
    impurity: f64,
}

impl GiniNode {
    /// A node of `n` samples, `n_pos` of them positive.
    pub(crate) fn new(n: usize, n_pos: usize) -> Self {
        let (size, n, n_pos) = (n, f64_from_usize(n), f64_from_usize(n_pos));
        GiniNode {
            size,
            n,
            n_pos,
            impurity: gini(n_pos, n),
        }
    }

    /// Impurity decrease of a split with `n_left` samples, `pos_left` of
    /// them positive, on the left. Counts convert to `f64` exactly, so this
    /// equals the gain over a left side summed as `1.0`s in any order.
    #[inline]
    fn gain(&self, n_left: usize, pos_left: usize) -> f64 {
        let n_left = f64_from_usize(n_left);
        let pos_left = f64_from_usize(pos_left);
        let n_right = self.n - n_left;
        let imp_left = gini(pos_left, n_left);
        let imp_right = gini(self.n_pos - pos_left, n_right);
        let weighted = (n_left * imp_left + n_right * imp_right) / self.n;
        self.impurity - weighted
    }

    /// The best-so-far update at one candidate boundary, shared by the
    /// sorted and binned scans: both sides must hold `min_leaf` samples,
    /// the gain must clear [`GAIN_EPS`], and the earliest boundary wins
    /// ties.
    #[inline]
    fn consider(
        &self,
        best: &mut Option<(f32, f64, usize, usize)>,
        (n_left, pos_left): (usize, usize),
        min_leaf: usize,
        v_lo: f32,
        v_hi: f32,
    ) {
        if n_left < min_leaf || self.size - n_left < min_leaf {
            return;
        }
        let gain = self.gain(n_left, pos_left);
        if gain > GAIN_EPS && best.is_none_or(|b| gain > b.1) {
            *best = Some((split_threshold(v_lo, v_hi), gain, n_left, pos_left));
        }
    }
}

/// The Gini scan of a sorted column: walks the node's distinct rows in
/// value order, adding each row's `[multiplicity, positives]` to the left
/// side, and evaluates every boundary between distinct values. Returns
/// `(threshold, gain, n_left, pos_left)`, counts weighted.
fn scan_sorted_gini(
    order: &[u32],
    values: &[f32],
    weight: &[[u32; 2]],
    min_leaf: usize,
    node: GiniNode,
) -> Option<(f32, f64, usize, usize)> {
    let (&first, rest) = order.split_first()?;
    let mut best: Option<(f32, f64, usize, usize)> = None;
    let [count, pos] = weight[usize_from_u32(first)];
    let (mut n_left, mut pos_left) = (usize_from_u32(count), usize_from_u32(pos));
    let mut v_prev = values[usize_from_u32(first)];
    for &row in rest {
        let row = usize_from_u32(row);
        let v = values[row];
        // Only a boundary between distinct values is a candidate.
        if v != v_prev {
            node.consider(&mut best, (n_left, pos_left), min_leaf, v_prev, v);
            v_prev = v;
        }
        let [count, pos] = weight[row];
        n_left += usize_from_u32(count);
        pos_left += usize_from_u32(pos);
    }
    best
}

/// The binned counterpart of [`scan_sorted_gini`]: histograms the node's
/// `rows` by code into `hist` (all zero on entry and on return), adding
/// multiplicities, then walks the occupied codes in ascending order,
/// evaluating the boundary between each pair of adjacent occupied codes.
fn scan_binned_gini(
    rows: &[u32],
    codes: &[u8],
    bins: &[f32],
    weight: &[[u32; 2]],
    min_leaf: usize,
    node: GiniNode,
    hist: &mut [[u32; 2]],
) -> Option<(f32, f64, usize, usize)> {
    if rows.len() < 2 {
        return None;
    }
    let (mut c_min, mut c_max) = (u8::MAX, 0u8);
    for &row in rows {
        let row = usize_from_u32(row);
        let c = codes[row];
        let [count, pos] = weight[row];
        let h = &mut hist[usize::from(c)];
        h[0] += count;
        h[1] += pos;
        c_min = c_min.min(c);
        c_max = c_max.max(c);
    }
    let mut best: Option<(f32, f64, usize, usize)> = None;
    let (mut n_left, mut pos_left) = (0usize, 0usize);
    let mut prev: Option<usize> = None;
    for c in usize::from(c_min)..=usize::from(c_max) {
        let [count, pos] = std::mem::take(&mut hist[c]);
        if count == 0 {
            continue;
        }
        if let Some(p) = prev {
            node.consider(&mut best, (n_left, pos_left), min_leaf, bins[p], bins[c]);
        }
        n_left += usize_from_u32(count);
        pos_left += usize_from_u32(pos);
        prev = Some(c);
    }
    best
}

/// Where a feature column lives: its index among the sorted or among the
/// binned columns of a [`PresortedDataset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    Sorted(usize),
    Binned(usize),
}

/// A column value with `-0.0` mapped to `+0.0`, so that `total_cmp` on
/// keys orders values and groups exactly the ones equal under `==`.
#[inline]
fn bin_key(v: f32) -> f32 {
    // lint:allow(float-determinism) -- `==` is exactly the equivalence binning must mirror: it matches both zeros
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// An unsigned key whose order is `f32::total_cmp`'s.
#[inline]
fn total_order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// The ascending distinct keys of `col`, or `None` when it holds more than
/// `max` of them or a NaN (which equals nothing, not even itself).
fn distinct_keys(col: &[f32], max: usize) -> Option<Vec<f32>> {
    let mut keys: Vec<f32> = Vec::new();
    let mut last = f32::NAN;
    for &v in col {
        if v == last {
            continue;
        }
        if v.is_nan() {
            return None;
        }
        let key = bin_key(v);
        if let Err(at) = keys.binary_search_by(|k| k.total_cmp(&key)) {
            if keys.len() == max {
                return None;
            }
            keys.insert(at, key);
        }
        last = v;
    }
    Some(keys)
}

/// Fully-sorted or binned feature columns over an entire dataset, built
/// **once per ensemble fit** and shared (immutably) by every tree.
///
/// A tree's sample is a set of dataset rows with multiplicities, so its
/// sorted orders are *filtered* out of the full-data orders by one linear
/// pass — `O(N)` per sorted column and tree instead of `O(n log n)`.
/// Binned columns need no order at all. Scans read values and codes from
/// here by dataset row.
pub(crate) struct PresortedDataset {
    n_rows: usize,
    /// Per feature, where its column lives.
    columns: Vec<Column>,
    /// Sorted columns' values, column-major: `values[k * n_rows + row]`.
    values: Vec<f32>,
    /// Sorted columns' row ids by `(value, row)`: `order[k * n_rows + i]`.
    order: Vec<u32>,
    /// Binned columns' codes, column-major: `codes[b * n_rows + row]`.
    codes: Vec<u8>,
    /// Binned columns' distinct values, ascending: code `c` of binned
    /// column `b` stands for `bins[b][c]`.
    bins: Vec<Vec<f32>>,
}

impl PresortedDataset {
    /// The Gini tree's layout: columns with at most 256 distinct values
    /// are binned, every other column is sorted — the only `O(N log N)`
    /// work an ensemble fit performs.
    pub(crate) fn build(data: &Dataset) -> Self {
        Self::build_with(data, MAX_BINS)
    }

    /// Every column sorted, none binned: the layout on which
    /// [`presorted_best_split_gini`] tests the sorted scan alone.
    fn build_sorted(data: &Dataset) -> Self {
        Self::build_with(data, 0)
    }

    fn build_with(data: &Dataset, max_bins: usize) -> Self {
        let n = data.n_rows();
        let d = data.n_features();
        let mut pre = PresortedDataset {
            n_rows: n,
            columns: Vec::with_capacity(d),
            values: Vec::new(),
            order: Vec::new(),
            codes: Vec::new(),
            bins: Vec::new(),
        };
        let mut col = Vec::with_capacity(n);
        let mut keyed: Vec<u64> = Vec::new();
        for f in 0..d {
            col.clear();
            col.extend((0..n).map(|row| data.row(row)[f]));
            if let Some(keys) = distinct_keys(&col, max_bins) {
                pre.columns.push(Column::Binned(pre.bins.len()));
                pre.codes.extend(col.iter().map(|&v| {
                    let key = bin_key(v);
                    u8_from_usize(keys.partition_point(|k| k.total_cmp(&key).is_lt()))
                }));
                pre.bins.push(keys);
            } else {
                pre.columns.push(Column::Sorted(pre.n_sorted()));
                // Sorting `(value key, row)` packed into one `u64` orders
                // rows by `(value, row)` without an indirect comparator.
                keyed.clear();
                keyed.extend(col.iter().enumerate().map(|(row, &v)| {
                    u64::from(total_order_key(v)) << 32 | u64_from_usize(row)
                }));
                keyed.sort_unstable();
                pre.order.extend(keyed.iter().map(|&k| u32_from_u64(k & u64::from(u32::MAX))));
                pre.values.extend_from_slice(&col);
            }
        }
        pre
    }

    /// Number of feature columns.
    pub(crate) fn n_features(&self) -> usize {
        self.columns.len()
    }

    fn n_sorted(&self) -> usize {
        self.columns.len() - self.bins.len()
    }

    /// Sorted column `k`'s values by dataset row.
    #[inline]
    fn values_of(&self, k: usize) -> &[f32] {
        &self.values[k * self.n_rows..(k + 1) * self.n_rows]
    }

    /// Binned column `b`'s codes by dataset row.
    #[inline]
    fn codes_of(&self, b: usize) -> &[u8] {
        &self.codes[b * self.n_rows..(b + 1) * self.n_rows]
    }
}

/// The per-tree row layout over a [`PresortedDataset`], plus the scan and
/// partition scratch, reused across fits.
///
/// [`sample`](Self::sample) lays out one tree's sample as per-row weights,
/// the distinct sampled rows and each sorted column's order over them.
/// Node segmentation is shared: a node owns `[lo, hi)` of the row list and
/// of every sorted order simultaneously. One instance serves any number of
/// *sequential* fits; the forest threads one through each parallel worker
/// so growing a node allocates nothing.
pub(crate) struct TreeScratch {
    /// Per dataset row: `[multiplicity, positive multiplicity]` in the
    /// sample (zero for unsampled rows).
    weight: Vec<[u32; 2]>,
    /// The distinct sampled rows, ascending within each node segment.
    rows: Vec<u32>,
    /// Sorted columns' orders over the distinct sampled rows:
    /// `order[k * rows.len() + i]` is the row with the i-th smallest value
    /// of sorted column `k` within its node segment.
    order: Vec<u32>,
    /// Goes-right mask by dataset row, written for a node's rows when a
    /// split is applied to it.
    right: Vec<u8>,
    /// Right-side spill buffer for the stable partition.
    tmp: Vec<u32>,
    /// Per-code `(count, positives)` for binned scans; all zero between
    /// scans.
    hist: Vec<[u32; 2]>,
}

impl TreeScratch {
    /// An empty scratch; buffers grow on first fit and are then reused.
    pub(crate) fn new() -> Self {
        TreeScratch {
            weight: Vec::new(),
            rows: Vec::new(),
            order: Vec::new(),
            right: Vec::new(),
            tmp: Vec::new(),
            hist: vec![[0; 2]; MAX_BINS],
        }
    }

    /// Lays out the sample of dataset rows `draws` (repeats allowed, at
    /// most [`MAX_SAMPLE`] of them) without sorting: counts each row's
    /// multiplicity and positives, lists the distinct rows ascending, and
    /// filters every sorted column's full order down to them. Returns the
    /// sample's `(size, positives)`, counted with multiplicity.
    pub(crate) fn sample(
        &mut self,
        pre: &PresortedDataset,
        data: &Dataset,
        draws: impl IntoIterator<Item = usize>,
    ) -> (usize, usize) {
        let big_n = pre.n_rows;
        self.weight.clear();
        self.weight.resize(big_n, [0; 2]);
        let (mut n, mut n_pos) = (0usize, 0usize);
        for row in draws {
            let label = data.label(row);
            let w = &mut self.weight[row];
            w[0] += 1;
            w[1] += u32::from(label);
            n += 1;
            n_pos += usize::from(label);
        }
        debug_assert!(
            n <= MAX_SAMPLE,
            "a sample of {n} draws overflows the u32 weights"
        );

        let weight = &self.weight;
        self.rows.clear();
        self.rows
            .extend((0..u32_from_usize(big_n)).filter(|&r| weight[usize_from_u32(r)][0] > 0));
        self.order.clear();
        for k in 0..pre.n_sorted() {
            let full = &pre.order[k * big_n..(k + 1) * big_n];
            self.order
                .extend(full.iter().filter(|&&r| weight[usize_from_u32(r)][0] > 0));
        }
        self.right.clear();
        self.right.resize(big_n, 0);
        (n, n_pos)
    }

    /// Number of distinct rows in the current sample.
    pub(crate) fn n_distinct(&self) -> usize {
        self.rows.len()
    }

    /// The node segment `[lo, hi)` of sorted column `k`'s order.
    #[inline]
    fn order_segment(&self, k: usize, lo: usize, hi: usize) -> &[u32] {
        let base = k * self.rows.len();
        &self.order[base + lo..base + hi]
    }

    /// Scans feature `f` over the node `[lo, hi)` for its best Gini split,
    /// through whichever kind of column `pre` stores it as. `node` holds
    /// the node's weighted totals.
    pub(crate) fn scan_gini(
        &mut self,
        pre: &PresortedDataset,
        f: u16,
        lo: usize,
        hi: usize,
        min_leaf: usize,
        node: GiniNode,
    ) -> Option<GiniSplit> {
        let found = match pre.columns[usize::from(f)] {
            Column::Sorted(k) => scan_sorted_gini(
                self.order_segment(k, lo, hi),
                pre.values_of(k),
                &self.weight,
                min_leaf,
                node,
            ),
            Column::Binned(b) => scan_binned_gini(
                &self.rows[lo..hi],
                pre.codes_of(b),
                &pre.bins[b],
                &self.weight,
                min_leaf,
                node,
                &mut self.hist,
            ),
        };
        found.map(|(threshold, gain, split_at, pos_left)| GiniSplit {
            choice: SplitChoice {
                feature: f,
                threshold,
                gain,
                split_at,
            },
            pos_left,
        })
    }

    /// Applies a split to the node `[lo, hi)`: marks each of its rows whose
    /// `feature` value exceeds `threshold` as going right, then stably
    /// partitions the row list and every sorted order segment so the
    /// left-going rows occupy `[lo, lo + left)` — still in order — and the
    /// rest `[lo + left, hi)`. Returns `left`, the left child's number of
    /// distinct rows.
    ///
    /// A sorted winner's own order is already partitioned (its left block
    /// *is* its first `left` positions) and is skipped; a binned column is
    /// never moved.
    pub(crate) fn apply_split(
        &mut self,
        pre: &PresortedDataset,
        lo: usize,
        hi: usize,
        feature: u16,
        threshold: f32,
    ) -> usize {
        let winner = pre.columns[usize::from(feature)];
        let node = &self.rows[lo..hi];
        let mut n_right = 0usize;
        match winner {
            Column::Sorted(k) => {
                let vals = pre.values_of(k);
                for &row in node {
                    let row = usize_from_u32(row);
                    let r = u8::from(vals[row] > threshold);
                    self.right[row] = r;
                    n_right += usize::from(r);
                }
            }
            Column::Binned(b) => {
                // Codes at or above `cut` stand for values above the
                // threshold.
                let cut = pre.bins[b].partition_point(|&v| v <= threshold);
                let codes = pre.codes_of(b);
                for &row in node {
                    let row = usize_from_u32(row);
                    let r = u8::from(usize::from(codes[row]) >= cut);
                    self.right[row] = r;
                    n_right += usize::from(r);
                }
            }
        }
        let left = hi - lo - n_right;
        debug_assert!(left > 0 && n_right > 0);
        let tmp = &mut self.tmp;
        tmp.resize(hi - lo, 0);
        partition(&mut self.rows[lo..hi], &self.right, left, tmp);
        let n_rows = self.rows.len();
        for k in 0..pre.n_sorted() {
            if winner == Column::Sorted(k) {
                continue;
            }
            let base = k * n_rows;
            partition(
                &mut self.order[base + lo..base + hi],
                &self.right,
                left,
                tmp,
            );
        }
        left
    }
}

/// Stably moves the rows of `seg` not marked in `right` to its front
/// (there are `n_left` of them) and the marked ones behind.
#[inline]
fn partition(seg: &mut [u32], right: &[u8], n_left: usize, tmp: &mut [u32]) {
    let (mut wl, mut wr) = (0usize, 0usize);
    // Branchless two-way spill: store to both cursors unconditionally
    // (`wl <= k` keeps the in-place left write from clobbering unread
    // input) and advance one of them — the 50/50-unpredictable side test
    // never becomes a branch.
    for k in 0..seg.len() {
        let s = seg[k];
        let r = usize::from(right[usize_from_u32(s)]);
        seg[wl] = s;
        tmp[wr] = s;
        wl += 1 - r;
        wr += r;
    }
    debug_assert_eq!(wl, n_left);
    seg[wl..].copy_from_slice(&tmp[..wr]);
}

/// The naive per-node split finder the tree used before the pre-sorted
/// kernel, retained as a test reference: per feature it copies the node's
/// samples, sorts them by `(value, position)`, and scans them one sample
/// at a time — `O(d · n log n)` for a single call. `indices` lists dataset
/// rows, one sample per entry. Semantics (candidate boundaries,
/// `min_leaf`, tie handling, threshold clamp, gain epsilon) match the
/// production kernel exactly.
pub fn reference_best_split_gini(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    let m = indices.len();
    if m < 2 {
        return None;
    }
    let labels: Vec<bool> = indices.iter().map(|&i| data.label(i)).collect();
    let node = GiniNode::new(m, labels.iter().filter(|&&l| l).count());
    let mut best: Option<SplitChoice> = None;
    for f in 0..u16_from_usize(data.n_features()) {
        let vals: Vec<f32> = indices.iter().map(|&i| data.row(i)[usize::from(f)]).collect();
        let order = naive_order(&vals);
        let mut pos_left = 0usize;
        for k in 0..m - 1 {
            let i = usize_from_u32(order[k]);
            pos_left += usize::from(labels[i]);
            let (v_here, v_next) = (vals[i], vals[usize_from_u32(order[k + 1])]);
            let n_left = k + 1;
            // Only a boundary between distinct values, with `min_leaf`
            // samples on each side, is a candidate.
            if v_here == v_next || n_left < min_leaf || m - n_left < min_leaf {
                continue;
            }
            let gain = node.gain(n_left, pos_left);
            if gain > GAIN_EPS && best.is_none_or(|b| gain > b.gain) {
                let threshold = split_threshold(v_here, v_next);
                best = Some(SplitChoice { feature: f, threshold, gain, split_at: n_left });
            }
        }
    }
    best
}

/// Positions `0..vals.len()` sorted by `(value, position)`.
fn naive_order(vals: &[f32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..u32_from_usize(vals.len())).collect();
    order.sort_unstable_by(|&a, &b| {
        vals[usize_from_u32(a)]
            .total_cmp(&vals[usize_from_u32(b)])
            .then(a.cmp(&b))
    });
    order
}

/// Runs the production Gini kernel as a one-shot root-node split finder
/// over all features, with low-cardinality columns binned as in every
/// tree fit — the head-to-head counterpart of
/// [`reference_best_split_gini`] for the equivalence property tests.
pub fn binned_best_split_gini(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    root_split_gini(&PresortedDataset::build(data), data, indices, min_leaf)
}

/// [`binned_best_split_gini`] with every column sorted, none binned.
pub fn presorted_best_split_gini(
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    root_split_gini(&PresortedDataset::build_sorted(data), data, indices, min_leaf)
}

fn root_split_gini(
    pre: &PresortedDataset,
    data: &Dataset,
    indices: &[usize],
    min_leaf: usize,
) -> Option<SplitChoice> {
    let mut scratch = TreeScratch::new();
    let (n, n_pos) = scratch.sample(pre, data, indices.iter().copied());
    let node = GiniNode::new(n, n_pos);
    let rows = scratch.n_distinct();
    let mut best: Option<SplitChoice> = None;
    for f in 0..u16_from_usize(data.n_features()) {
        if let Some(s) = scratch.scan_gini(pre, f, 0, rows, min_leaf, node) {
            if best.is_none_or(|b| s.choice.gain > b.gain) {
                best = Some(s.choice);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_feature_data() -> Dataset {
        // Feature 0 separates perfectly at 0.5; feature 1 is constant.
        let mut d = Dataset::with_dims(2);
        for i in 0..8 {
            let x = i as f32 / 8.0;
            d.push_row(&[x, 1.0], x >= 0.5, i as u32);
        }
        d
    }

    #[test]
    fn low_cardinality_columns_are_binned() {
        // 256 distinct values bin, 257 do not; -0.0 and +0.0 count once.
        let mut d = Dataset::with_dims(3);
        for i in 0..257 {
            let zero = if i % 2 == 0 { 0.0 } else { -0.0 };
            let capped = if i < 256 { i as f32 } else { -0.0 };
            d.push_row(&[capped, i as f32, zero], i % 3 == 0, i as u32);
        }
        let pre = PresortedDataset::build(&d);
        assert_eq!(pre.columns, vec![Column::Binned(0), Column::Sorted(0), Column::Binned(1)]);
        assert_eq!(pre.bins[0].len(), 256);
        assert_eq!(pre.bins[1], vec![0.0]);
        assert_eq!(pre.codes[..3], [0, 1, 2]);
        assert_eq!(pre.codes[256], 0, "-0.0 shares +0.0's code");
        assert!(pre.codes[257..].iter().all(|&c| c == 0));
        let sorted = PresortedDataset::build_sorted(&d);
        assert!(sorted.bins.is_empty());
        assert_eq!(sorted.n_sorted(), 3);
    }

    #[test]
    fn total_order_key_matches_total_cmp() {
        let vals = [
            f32::NEG_INFINITY, -2.5, -f32::MIN_POSITIVE, -f32::from_bits(1), -0.0, 0.0,
            f32::from_bits(1), 1.0, f32::MAX, f32::INFINITY,
        ];
        for a in vals {
            for b in vals {
                let got = total_order_key(a).cmp(&total_order_key(b));
                assert_eq!(got, a.total_cmp(&b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn kernel_finds_the_separating_split() {
        let d = two_feature_data();
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        let reference = reference_best_split_gini(&d, &indices, 1).expect("split");
        for got in [
            presorted_best_split_gini(&d, &indices, 1).expect("split"),
            binned_best_split_gini(&d, &indices, 1).expect("split"),
        ] {
            assert_eq!(got.feature, 0);
            assert_eq!(got.split_at, 4);
            assert!(got.threshold >= 3.0 / 8.0 && got.threshold < 0.5);
            assert_eq!(got, reference);
        }
    }

    #[test]
    fn partition_keeps_segments_sorted() {
        let d = two_feature_data();
        let indices: Vec<usize> = (0..d.n_rows()).collect();
        for pre in [PresortedDataset::build_sorted(&d), PresortedDataset::build(&d)] {
            let mut scratch = TreeScratch::new();
            scratch.sample(&pre, &d, indices.iter().copied());
            assert_eq!(scratch.apply_split(&pre, 0, 8, 0, 0.4), 4);
            for k in 0..pre.n_sorted() {
                let vals = pre.values_of(k);
                for seg in [
                    scratch.order_segment(k, 0, 4),
                    scratch.order_segment(k, 4, 8),
                ] {
                    for w in seg.windows(2) {
                        let (a, b) = (w[0] as usize, w[1] as usize);
                        assert!(vals[a] < vals[b] || (vals[a] == vals[b] && a < b));
                    }
                }
                // The left block holds exactly the low-x rows 0..4.
                let mut left = scratch.order_segment(k, 0, 4).to_vec();
                left.sort_unstable();
                assert_eq!(left, vec![0, 1, 2, 3]);
            }
            // The row list stays ascending within each child.
            assert_eq!(scratch.rows, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        }
    }

    #[test]
    fn binned_winner_partitions_sorted_orders() {
        // Feature 0 has three levels and wins; feature 1 is continuous
        // (sorted) and must be re-segmented around the binned winner's cut.
        let mut d = Dataset::with_dims(2);
        for i in 0..300u32 {
            let x = ((i * 7) % 3) as f32;
            d.push_row(&[x, (i * 37 % 300) as f32], x > 0.5, i);
        }
        let pre = PresortedDataset::build(&d);
        assert_eq!(pre.columns, vec![Column::Binned(0), Column::Sorted(0)]);
        let mut scratch = TreeScratch::new();
        let (n, n_pos) = scratch.sample(&pre, &d, 0..d.n_rows());
        let s = scratch
            .scan_gini(&pre, 0, 0, 300, 1, GiniNode::new(n, n_pos))
            .expect("split");
        assert_eq!((s.choice.split_at, s.pos_left), (100, 0));
        assert_eq!(
            scratch.apply_split(&pre, 0, 300, 0, s.choice.threshold),
            100
        );
        let left: Vec<u32> = (0..300).filter(|&i| d.row(i as usize)[0] == 0.0).collect();
        assert_eq!(scratch.rows[..100], left[..]);
        let seg = scratch.order_segment(0, 0, 100);
        let vals = pre.values_of(0);
        assert!(seg.windows(2).all(|w| vals[w[0] as usize] < vals[w[1] as usize]));
        let mut seg = seg.to_vec();
        seg.sort_unstable();
        assert_eq!(seg, left);
    }

    #[test]
    fn split_threshold_clamps_adjacent_floats() {
        // Adjacent mantissas where the naive midpoint rounds up to v_hi.
        let v_lo = f32::from_bits(0x3F80_0001);
        let v_hi = f32::from_bits(0x3F80_0002);
        let t = split_threshold(v_lo, v_hi);
        assert!(v_lo <= t && t < v_hi, "threshold {t} not in [{v_lo}, {v_hi})");
        // A comfortably-separated pair still gets the true midpoint.
        assert_eq!(split_threshold(1.0, 2.0), 1.5);
    }

    #[test]
    fn sample_counts_multiplicities_and_filters_orders() {
        // Weights count draws per row; the row list and every sorted order
        // hold each sampled row once, orders by (value, row).
        let d = two_feature_data();
        let pre = PresortedDataset::build_sorted(&d);
        let mut scratch = TreeScratch::new();
        let boot = [3usize, 0, 3, 5, 1, 1, 7, 3];
        assert_eq!(scratch.sample(&pre, &d, boot), (8, 2));
        assert_eq!(scratch.rows, vec![0, 1, 3, 5, 7]);
        let weights: Vec<[u32; 2]> = [0, 1, 3, 5, 7].map(|r| scratch.weight[r]).to_vec();
        assert_eq!(weights, vec![[1, 0], [2, 0], [3, 0], [1, 1], [1, 1]]);
        assert_eq!(scratch.weight[2], [0, 0]);
        for k in 0..2 {
            let vals = pre.values_of(k);
            let mut want = scratch.rows.clone();
            want.sort_by(|&a, &b| {
                vals[a as usize]
                    .total_cmp(&vals[b as usize])
                    .then(a.cmp(&b))
            });
            assert_eq!(scratch.order_segment(k, 0, 5), &want[..]);
        }
    }

    #[test]
    fn duplicate_draws_count_with_multiplicity() {
        // Bootstrap draws repeat rows; each draw is one sample.
        let d = two_feature_data();
        let indices = vec![0usize, 0, 0, 7, 7, 7];
        let reference = reference_best_split_gini(&d, &indices, 1).unwrap();
        for got in [
            presorted_best_split_gini(&d, &indices, 1).expect("split"),
            binned_best_split_gini(&d, &indices, 1).expect("split"),
        ] {
            assert_eq!(got.split_at, 3);
            assert_eq!(got, reference);
        }
        // With every draw on one side of a min_leaf of 4, no split exists.
        assert_eq!(binned_best_split_gini(&d, &indices, 4), None);
        assert_eq!(reference_best_split_gini(&d, &indices, 4), None);
    }
}
