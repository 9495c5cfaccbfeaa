//! k-nearest-neighbours classifier.
//!
//! Brute-force Euclidean search over the (standardized, downsampled)
//! training set. At the paper's training sizes — a few thousand rows after
//! 1:1 downsampling (Section 5.1) — brute force with a bounded max-heap is
//! faster in practice than tree indexes in ~20 dimensions, and batch
//! prediction parallelizes trivially on the in-tree worker pool
//! (`ssd_parallel`).
//!
//! # Block layout
//!
//! [`Knn::fit`] standardizes the training rows straight into blocks of
//! `LANES` = 8 rows: block `b` owns rows `b·8 .. b·8 + 8` and stores one
//! `[f32; 8]` per dimension, so `blocks[b·d + j][l]` is feature `j` of row
//! `b·8 + l`. The last block is zero-padded; its padding lanes are never
//! offered to the heap. The scan computes a whole block's eight squared
//! distances with one lane-parallel pass per dimension — straight-line
//! code that auto-vectorizes on baseline x86-64 — and then offers the
//! eight distances to the bounded max-heap in row order.
//!
//! Batch scoring takes the queries `QUERY_TILE` = 8 at a time, blocks
//! outer and queries inner, so each block is read from memory once per
//! tile rather than once per query; every query keeps its own heap and
//! still sees the rows in row order.
//!
//! # Why the scores are bit-identical to a row-at-a-time scan
//!
//! The reference scan (kept as a test oracle) walks one row at a time and
//! stops summing as soon as the partial sum exceeds the current k-th best
//! distance. The block scan differs only in when it stops:
//!
//! - Each lane adds the squared deltas `(train − query)²` in dimension
//!   order, starting from `0.0`, exactly as the reference does, so every
//!   full f32 sum is the same.
//! - The early exit only ever rejected a row whose partial sum was already
//!   above the bound. Adding non-negative squares never lowers an f32 sum
//!   under round-to-nearest (and NaN fails every comparison either way),
//!   so the full sum rejects that same row under the same
//!   `dist < bound || heap.len() < k` rule.
//! - Rows are offered in the same order, so the heap sees the same
//!   push/pop sequence, ends with the same internal array, and the f64
//!   vote sum runs over the neighbours in the same order.

use crate::classifier::{Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_parallel::prelude::*;
use ssd_types::cast::f64_from_usize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Training rows per block in the scan layout. An internal constant: it
/// changes the schedule of the distance arithmetic, never its result.
const LANES: usize = 8;

/// Queries scored together per pass over the training blocks. Like
/// `LANES`, it changes the schedule only: every query still sees its
/// rows in row order.
const QUERY_TILE: usize = 8;

/// Hyperparameters for k-NN.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnConfig {
    /// Number of neighbours.
    pub k: usize,
    /// Weight votes by inverse distance instead of uniformly.
    pub distance_weighted: bool,
}

impl Default for KnnConfig {
    fn default() -> Self {
        KnnConfig {
            k: 15,
            distance_weighted: true,
        }
    }
}

/// A fitted k-NN model (stores the standardized training set in the
/// block layout described in the module docs).
pub struct Knn {
    config: KnnConfig,
    scaler: Scaler,
    /// `n_blocks · d` lane groups; `blocks[b * d + j][l]` is standardized
    /// feature `j` of training row `b * LANES + l`.
    blocks: Vec<[f32; LANES]>,
    labels: Vec<bool>,
    d: usize,
}

/// Max-heap entry ordered by distance (largest on top, for eviction).
struct HeapItem {
    dist: f32,
    label: bool,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist.total_cmp(&other.dist)
    }
}

/// Per-worker scoring buffers for one tile of queries: each query's
/// standardized row and neighbour heap.
struct Scratch {
    queries: Vec<Vec<f32>>,
    heaps: Vec<BinaryHeap<HeapItem>>,
}

impl Knn {
    /// Fits (memorizes) the training set. If the training set is smaller
    /// than `k`, `k` is clamped to its size — tiny cross-validation folds
    /// on heavily downsampled data would otherwise be unusable.
    pub fn fit(config: &KnnConfig, data: &Dataset) -> Self {
        assert!(config.k >= 1);
        assert!(data.n_rows() >= 1, "empty training set");
        let mut config = config.clone();
        config.k = config.k.min(data.n_rows());
        let scaler = Scaler::fit(data);
        let n = data.n_rows();
        let d = data.n_features();
        let mut blocks = vec![[0.0f32; LANES]; n.div_ceil(LANES) * d];
        let mut scaled = Vec::with_capacity(d);
        for i in 0..n {
            scaler.transform_row(data.row(i), &mut scaled);
            let (b, l) = (i / LANES, i % LANES);
            for (lanes, &v) in blocks[b * d..(b + 1) * d].iter_mut().zip(&scaled) {
                lanes[l] = v;
            }
        }
        Knn {
            config,
            scaler,
            blocks,
            labels: data.labels().to_vec(),
            d,
        }
    }

    /// Buffers for tiles of up to `tile` queries.
    fn scratch(&self, tile: usize) -> Scratch {
        Scratch {
            queries: vec![Vec::with_capacity(self.d); tile],
            heaps: (0..tile)
                .map(|_| BinaryHeap::with_capacity(self.config.k + 1))
                .collect(),
        }
    }

    /// Fills `scratch.heaps[q]` with the `k` nearest training rows to the
    /// standardized `scratch.queries[q]`, for the first `n_queries` slots.
    /// Blocks go outer, so each block is loaded once per tile; within a
    /// block every query is offered its eight rows in row order.
    fn k_nearest(&self, n_queries: usize, scratch: &mut Scratch) {
        let k = self.config.k;
        let queries = &scratch.queries[..n_queries];
        let heaps = &mut scratch.heaps[..n_queries];
        for heap in heaps.iter_mut() {
            heap.clear();
        }
        for (block, labels) in self
            .blocks
            .chunks_exact(self.d)
            .zip(self.labels.chunks(LANES))
        {
            for (query, heap) in queries.iter().zip(heaps.iter_mut()) {
                let dist = lane_distances(block, query);
                for (&dist, &label) in dist.iter().zip(labels) {
                    // A full heap's top is the k-th best distance so far.
                    if heap.len() < k || heap.peek().is_some_and(|top| dist < top.dist) {
                        heap.push(HeapItem { dist, label });
                        if heap.len() > k {
                            heap.pop();
                        }
                    }
                }
            }
        }
    }

    /// Scores a tile of raw rows (row-major, at most as many as
    /// `scratch` has slots).
    fn score_tile(&self, rows: &[f32], scratch: &mut Scratch) -> Vec<f64> {
        let n_queries = rows.len() / self.d;
        for (row, query) in rows.chunks_exact(self.d).zip(&mut scratch.queries) {
            self.scaler.transform_row(row, query);
        }
        self.k_nearest(n_queries, scratch);
        scratch.heaps[..n_queries]
            .iter()
            .map(|heap| vote(heap, self.config.distance_weighted))
            .collect()
    }
}

/// One block's eight squared distances: lane `l` sums `(x − q)²` over
/// the dimensions in order, starting from `0.0`.
fn lane_distances(block: &[[f32; LANES]], query: &[f32]) -> [f32; LANES] {
    let mut acc = [0.0f32; LANES];
    for (lanes, &q) in block.iter().zip(query) {
        for (a, &x) in acc.iter_mut().zip(lanes) {
            let delta = x - q;
            *a += delta * delta;
        }
    }
    acc
}

/// The neighbours' score: the inverse-distance-weighted or uniform share
/// of positive votes, summed in the heap's internal order.
fn vote(neighbours: &BinaryHeap<HeapItem>, distance_weighted: bool) -> f64 {
    if distance_weighted {
        let mut pos = 0.0f64;
        let mut total = 0.0f64;
        for item in neighbours.iter() {
            let w = 1.0 / (f64::from(item.dist).sqrt() + 1e-6);
            total += w;
            if item.label {
                pos += w;
            }
        }
        // lint:allow(float-determinism) -- division-by-zero guard; weights are strictly positive whenever any neighbour exists
        if total == 0.0 {
            0.5
        } else {
            pos / total
        }
    } else {
        let k = neighbours.len().max(1);
        let pos = neighbours.iter().filter(|i| i.label).count();
        f64_from_usize(pos) / f64_from_usize(k)
    }
}

impl Classifier for Knn {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        self.score_tile(row, &mut self.scratch(1))[0]
    }

    /// Parallel over tiles of `QUERY_TILE` rows, with one set of
    /// buffers per worker instead of allocations per row.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let tiles: Vec<Vec<f64>> = data
            .raw_features()
            .par_chunks(QUERY_TILE * self.d)
            .map_init(
                || self.scratch(QUERY_TILE),
                |scratch, rows| self.score_tile(rows, scratch),
            )
            .collect();
        tiles.concat()
    }

    fn name(&self) -> &'static str {
        "k-NN"
    }
}

impl Trainer for KnnConfig {
    fn fit(&self, data: &Dataset, _seed: u64) -> Box<dyn Classifier> {
        Box::new(Knn::fit(self, data))
    }

    fn name(&self) -> String {
        "k-NN".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;
    use ssd_stats::SplitMix64;
    use ssd_testkit::{for_each_case, Gen};

    /// The row-at-a-time scan the block layout replaced: row-major
    /// standardized points, with an early exit once a row's partial
    /// distance passes the current k-th best. Kept as the oracle the lane
    /// scan must match bit for bit.
    struct Reference {
        scaler: Scaler,
        points: Vec<f32>,
        labels: Vec<bool>,
        d: usize,
        k: usize,
    }

    impl Reference {
        fn fit(config: &KnnConfig, data: &Dataset) -> Self {
            let scaler = Scaler::fit(data);
            let mut scaled = data.clone();
            scaler.transform(&mut scaled);
            Reference {
                scaler,
                points: scaled.raw_features().to_vec(),
                labels: data.labels().to_vec(),
                d: data.n_features(),
                k: config.k.min(data.n_rows()),
            }
        }

        fn k_nearest(&self, row: &[f32]) -> BinaryHeap<HeapItem> {
            let mut query = Vec::new();
            self.scaler.transform_row(row, &mut query);
            let k = self.k;
            let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
            for i in 0..self.labels.len() {
                let point = &self.points[i * self.d..(i + 1) * self.d];
                let bound = if heap.len() == k {
                    heap.peek().map_or(f32::INFINITY, |h| h.dist)
                } else {
                    f32::INFINITY
                };
                let mut dist = 0.0f32;
                for (a, b) in point.iter().zip(&query) {
                    let delta = a - b;
                    dist += delta * delta;
                    if dist > bound {
                        break;
                    }
                }
                if dist < bound || heap.len() < k {
                    heap.push(HeapItem {
                        dist,
                        label: self.labels[i],
                    });
                    if heap.len() > k {
                        heap.pop();
                    }
                }
            }
            heap
        }
    }

    /// The heap's internal array as `(distance bits, label)` pairs — the
    /// exact order the vote sums run in.
    fn heap_bits(heap: &BinaryHeap<HeapItem>) -> Vec<(u32, bool)> {
        heap.iter().map(|h| (h.dist.to_bits(), h.label)).collect()
    }

    /// Training sets sized to straddle the block width (1–40 rows, so
    /// ragged tails and the n < k clamp) or to span many blocks (257–600
    /// rows), with constant columns, few-level columns and duplicated
    /// rows that tie at the k-th distance.
    fn lane_case(g: &mut Gen) -> Dataset {
        let n = if g.bool() {
            g.usize_in(1, 41)
        } else {
            g.usize_in(257, 601)
        };
        let d = g.usize_in(1, 7);
        // 0 = continuous, 1 = constant, 2.. = that many levels.
        let kinds: Vec<usize> = (0..d).map(|_| g.usize_in(0, 5)).collect();
        let mut data = Dataset::with_dims(d);
        let mut row = vec![0f32; d];
        for i in 0..n {
            if i == 0 || !g.ratio(0.2) {
                for (v, &kind) in row.iter_mut().zip(&kinds) {
                    let x = g.f64_in(-3.0, 3.0);
                    *v = match kind {
                        0 => x as f32,
                        1 => 1.5,
                        levels => (x * levels as f64).round() as f32,
                    };
                }
            }
            // Otherwise `row` repeats the previous row: an exact duplicate.
            data.push_row(&row, g.bool(), i as u32);
        }
        data
    }

    #[test]
    fn lane_scan_matches_row_scan_bitwise() {
        for_each_case("lane_scan_matches_row_scan_bitwise", 96, |g| {
            let data = lane_case(g);
            let d = data.n_features();
            let config = KnnConfig {
                k: *g.choose(&[1, 2, 7, 8, 9, 15, 40]),
                distance_weighted: g.bool(),
            };
            let model = Knn::fit(&config, &data);
            let reference = Reference::fit(&config, &data);
            // Probes: training rows (zero distances, duplicate ties),
            // fresh rows, and rows carrying non-finite values.
            let mut probes = Dataset::with_dims(d);
            let mut rows: Vec<Vec<f32>> = Vec::new();
            for _ in 0..12 {
                let row = if g.bool() {
                    data.row(g.usize_in(0, data.n_rows())).to_vec()
                } else {
                    (0..d).map(|_| g.f64_in(-4.0, 4.0) as f32).collect()
                };
                probes.push_row(&row, false, 0);
                rows.push(row);
            }
            let mut poisoned: Vec<f32> = (0..d).map(|_| g.f64_in(-1.0, 1.0) as f32).collect();
            poisoned[g.usize_in(0, d)] = *g.choose(&[f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            rows.push(poisoned);

            let batch = model.predict_batch(&probes);
            let mut scratch = model.scratch(1);
            for (i, row) in rows.iter().enumerate() {
                let want_heap = reference.k_nearest(row);
                let want = vote(&want_heap, config.distance_weighted);
                model.scaler.transform_row(row, &mut scratch.queries[0]);
                model.k_nearest(1, &mut scratch);
                assert_eq!(
                    heap_bits(&scratch.heaps[0]),
                    heap_bits(&want_heap),
                    "probe {i}: heap"
                );
                let got = model.predict_proba(row);
                assert_eq!(got.to_bits(), want.to_bits(), "probe {i}: {got} vs {want}");
                if let Some(b) = batch.get(i) {
                    assert_eq!(
                        b.to_bits(),
                        want.to_bits(),
                        "probe {i}: batch {b} vs {want}"
                    );
                }
            }
        });
    }

    #[test]
    fn heap_item_equality_agrees_with_its_order() {
        let item = |dist| HeapItem { dist, label: false };
        // total_cmp separates the zeros and equates NaN with itself; `==`
        // must say the same as `cmp`.
        assert!(item(0.0) != item(-0.0));
        assert!(item(f32::NAN) == item(f32::NAN));
        assert!(item(1.0) == item(1.0));
        assert_eq!(item(-0.0).cmp(&item(0.0)), Ordering::Less);
    }

    fn clustered(n: usize, seed: u64) -> Dataset {
        // Two Gaussian-ish blobs at (±1, ±1).
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let pos = i % 2 == 0;
            let c = if pos { 1.0 } else { -1.0 };
            let x = c + (rng.next_f64() - 0.5);
            let y = c + (rng.next_f64() - 0.5);
            d.push_row(&[x as f32, y as f32], pos, i as u32);
        }
        d
    }

    #[test]
    fn classifies_separated_blobs() {
        let train = clustered(300, 1);
        let test = clustered(100, 2);
        let m = Knn::fit(&KnnConfig::default(), &train);
        let scores = m.predict_batch(&test);
        assert!(roc_auc(&scores, test.labels()) > 0.98);
    }

    #[test]
    fn k_one_memorizes_training_points() {
        let train = clustered(50, 3);
        let m = Knn::fit(
            &KnnConfig {
                k: 1,
                distance_weighted: false,
            },
            &train,
        );
        for i in 0..train.n_rows() {
            let p = m.predict_proba(train.row(i));
            assert_eq!(p >= 0.5, train.label(i), "row {i}");
        }
    }

    #[test]
    fn uniform_proba_is_vote_fraction() {
        // 3 neighbours, one positive among them → exactly 1/3.
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0);
        train.push_row(&[0.1], false, 1);
        train.push_row(&[0.2], false, 2);
        train.push_row(&[10.0], true, 3);
        let m = Knn::fit(
            &KnnConfig {
                k: 3,
                distance_weighted: false,
            },
            &train,
        );
        let p = m.predict_proba(&[0.05]);
        assert!((p - 1.0 / 3.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn distance_weighting_prefers_closer_neighbours() {
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0); // very close to query
        train.push_row(&[5.0], false, 1);
        train.push_row(&[6.0], false, 2);
        let m = Knn::fit(
            &KnnConfig {
                k: 3,
                distance_weighted: true,
            },
            &train,
        );
        // Uniform voting would give 1/3; weighting must exceed 1/2.
        assert!(m.predict_proba(&[0.01]) > 0.5);
    }

    #[test]
    fn k_is_clamped_to_training_size() {
        let mut train = Dataset::with_dims(1);
        train.push_row(&[0.0], true, 0);
        let m = Knn::fit(&KnnConfig::default(), &train); // k = 15 > 1 row
        // The single (positive) neighbour decides every prediction.
        assert!(m.predict_proba(&[5.0]) > 0.5);
    }
}
