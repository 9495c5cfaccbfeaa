//! k-nearest-neighbours classifier.
//!
//! Brute-force Euclidean search over the (standardized, downsampled)
//! training set. At the paper's training sizes — a few thousand rows after
//! 1:1 downsampling (Section 5.1) — brute force with a bounded max-heap is
//! faster in practice than tree indexes in ~20 dimensions, and batch
//! prediction parallelizes trivially on the in-tree worker pool
//! (`ssd_parallel`).

use crate::classifier::{Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_types::cast::f64_from_usize;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A fitted k-NN model (stores the standardized training set).
pub struct Knn {
    config: KnnConfig,
    scaler: Scaler,
    points: Vec<f32>, // row-major, standardized
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
        self.dist == other.dist
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
        let mut scaled = data.clone();
        scaler.transform(&mut scaled);
        Knn {
            config,
            scaler,
            points: scaled.raw_features().to_vec(),
            labels: data.labels().to_vec(),
            d: data.n_features(),
        }
    }

    fn k_nearest(&self, query: &[f32]) -> BinaryHeap<HeapItem> {
        let k = self.config.k;
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::with_capacity(k + 1);
        let n = self.labels.len();
        for i in 0..n {
            let row = &self.points[i * self.d..(i + 1) * self.d];
            // Early-exit distance accumulation against the current worst.
            let bound = if heap.len() == k {
                heap.peek().map_or(f32::INFINITY, |h| h.dist)
            } else {
                f32::INFINITY
            };
            let mut dist = 0.0f32;
            for (a, b) in row.iter().zip(query) {
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

impl Classifier for Knn {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut buf = Vec::with_capacity(row.len());
        self.scaler.transform_row(row, &mut buf);
        let neighbours = self.k_nearest(&buf);
        if self.config.distance_weighted {
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
