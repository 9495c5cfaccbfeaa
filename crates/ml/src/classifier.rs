//! The classifier abstraction shared by all six model families.

use crate::dataset::Dataset;
use ssd_parallel::prelude::*;

/// A trained binary classifier producing a continuous score in `[0, 1]`
/// interpretable as P(positive | features) — the paper's model output
/// ("a continuous output in the interval \[0,1\] … the conditional
/// probability of failure given the input", Section 5.1).
pub trait Classifier: Send + Sync {
    /// Scores a single feature row.
    fn predict_proba(&self, row: &[f32]) -> f64;

    /// Scores every row of a dataset (parallel by default).
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .into_par_iter()
            .map(|i| self.predict_proba(data.row(i)))
            .collect()
    }

    /// Short display name for result tables.
    fn name(&self) -> &'static str;
}

/// A training recipe: fits a [`Classifier`] to a dataset. Implemented by
/// the config type of each model family.
pub trait Trainer: Send + Sync {
    /// Fits a model. `seed` controls any training-time randomness
    /// (bootstraps, initialization, shuffling) for reproducibility.
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier>;

    /// Display name for result tables.
    fn name(&self) -> String;
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant(f64);
    impl Classifier for Constant {
        fn predict_proba(&self, _row: &[f32]) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    #[test]
    fn batch_prediction_matches_single() {
        let mut d = Dataset::with_dims(1);
        for i in 0..10 {
            d.push_row(&[i as f32], i % 2 == 0, i as u32);
        }
        let c = Constant(0.42);
        let batch = c.predict_batch(&d);
        assert_eq!(batch, vec![0.42; 10]);
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999_999);
        assert!(sigmoid(-30.0) < 1e-6);
        // Stability at extremes.
        assert!(sigmoid(1000.0).is_finite());
        assert!(sigmoid(-1000.0).is_finite());
        // Antisymmetry.
        for z in [-3.0, -1.0, 0.5, 2.0] {
            assert!((sigmoid(z) + sigmoid(-z) - 1.0).abs() < 1e-12);
        }
    }
}
