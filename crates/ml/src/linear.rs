//! Linear models: L2-regularized logistic regression and a linear SVM.
//!
//! Both standardize features internally (fit on the training data), train
//! by deterministic full-batch gradient descent with momentum, and expose
//! probabilities through the logistic link (for the SVM this is a
//! monotone mapping of the margin, which leaves ROC behaviour unchanged).

use crate::classifier::{sigmoid, Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_stats::SplitMix64;
use ssd_types::cast::{f64_from_usize, u64_from_usize, usize_from_u64};

/// Hyperparameters for logistic regression.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegressionConfig {
    /// L2 (ridge) penalty strength — the paper's grid-searched
    /// regularization knob for this model (Section 5.2).
    pub l2: f64,
    /// Learning rate.
    pub learning_rate: f64,
    /// Gradient-descent iterations.
    pub epochs: usize,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        LogisticRegressionConfig {
            l2: 1e-3,
            learning_rate: 0.5,
            epochs: 300,
        }
    }
}

/// A trained logistic-regression model.
pub struct LogisticRegression {
    scaler: Scaler,
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Fits by full-batch gradient descent with Nesterov-free momentum.
    pub fn fit(config: &LogisticRegressionConfig, data: &Dataset) -> Self {
        let (scaler, x, y) = prepare(data);
        let d = data.n_features();
        let n = data.n_rows();
        let mut w = vec![0.0f64; d];
        let mut b = 0.0f64;
        let mut vw = vec![0.0f64; d];
        let mut vb = 0.0f64;
        let momentum = 0.9;
        let mut grad = vec![0.0f64; d];
        for _ in 0..config.epochs {
            grad.iter_mut().for_each(|g| *g = 0.0);
            let mut gb = 0.0;
            for i in 0..n {
                let row = &x[i * d..(i + 1) * d];
                let z: f64 = b + dot(&w, row);
                let err = sigmoid(z) - y[i];
                for (g, &v) in grad.iter_mut().zip(row) {
                    *g += err * v;
                }
                gb += err;
            }
            let inv_n = 1.0 / f64_from_usize(n);
            for j in 0..d {
                let g = grad[j] * inv_n + config.l2 * w[j];
                vw[j] = momentum * vw[j] - config.learning_rate * g;
                w[j] += vw[j];
            }
            vb = momentum * vb - config.learning_rate * gb * inv_n;
            b += vb;
        }
        LogisticRegression {
            scaler,
            weights: w,
            bias: b,
        }
    }

    /// Learned weights (in standardized feature space).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl Classifier for LogisticRegression {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut buf = Vec::with_capacity(row.len());
        self.scaler.transform_row(row, &mut buf);
        sigmoid(self.bias + dot32(&self.weights, &buf))
    }

    fn name(&self) -> &'static str {
        "Logistic Reg."
    }
}

impl Trainer for LogisticRegressionConfig {
    fn fit(&self, data: &Dataset, _seed: u64) -> Box<dyn Classifier> {
        Box::new(LogisticRegression::fit(self, data))
    }

    fn name(&self) -> String {
        "Logistic Reg.".into()
    }
}

/// Hyperparameters for the linear SVM (Pegasos-style hinge-loss SGD).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvmConfig {
    /// Regularization strength λ of the Pegasos objective.
    pub lambda: f64,
    /// Number of epochs (full passes in shuffled order).
    pub epochs: usize,
}

impl Default for LinearSvmConfig {
    fn default() -> Self {
        LinearSvmConfig {
            lambda: 1e-4,
            epochs: 30,
        }
    }
}

/// A trained linear SVM.
pub struct LinearSvm {
    scaler: Scaler,
    weights: Vec<f64>,
    bias: f64,
}

impl LinearSvm {
    /// Fits with the Pegasos stochastic sub-gradient method
    /// (Shalev-Shwartz et al., ICML '07): step size 1/(λt), projection-free.
    pub fn fit(config: &LinearSvmConfig, data: &Dataset, seed: u64) -> Self {
        let (scaler, x, y) = prepare(data);
        let d = data.n_features();
        let n = data.n_rows();
        let mut w = vec![0.0f64; d];
        let mut b = 0.0f64;
        let mut order: Vec<usize> = (0..n).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "fit-entry stream root: the caller owns seed derivation, and re-mixing here would break pinned predictions"
        )]
        let mut rng = SplitMix64::new(seed);
        let mut t = 0usize;
        for _ in 0..config.epochs {
            // Deterministic reshuffle each epoch.
            for i in (1..order.len()).rev() {
                let j = usize_from_u64(rng.next_bounded(u64_from_usize(i + 1)));
                order.swap(i, j);
            }
            for &i in &order {
                t += 1;
                let eta = 1.0 / (config.lambda * f64_from_usize(t));
                let row = &x[i * d..(i + 1) * d];
                let yi = if y[i] > 0.5 { 1.0 } else { -1.0 };
                let margin = yi * (b + dot(&w, row));
                // w ← (1 − ηλ) w [+ η y x if margin < 1]
                let shrink = 1.0 - eta * config.lambda;
                for wj in w.iter_mut() {
                    *wj *= shrink;
                }
                if margin < 1.0 {
                    for (wj, &v) in w.iter_mut().zip(row) {
                        *wj += eta * yi * v;
                    }
                    b += eta * yi * 0.1; // unregularized, damped bias update
                }
            }
        }
        LinearSvm {
            scaler,
            weights: w,
            bias: b,
        }
    }
}

impl Classifier for LinearSvm {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut buf = Vec::with_capacity(row.len());
        self.scaler.transform_row(row, &mut buf);
        // Monotone squash of the margin: preserves ranking (hence ROC).
        sigmoid(self.bias + dot32(&self.weights, &buf))
    }

    fn name(&self) -> &'static str {
        "SVM"
    }
}

impl Trainer for LinearSvmConfig {
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        Box::new(LinearSvm::fit(self, data, seed))
    }

    fn name(&self) -> String {
        "SVM".into()
    }
}

/// Standardizes a dataset and unpacks it into `(scaler, x, y)` with `x`
/// row-major f64 and `y ∈ {0.0, 1.0}`.
fn prepare(data: &Dataset) -> (Scaler, Vec<f64>, Vec<f64>) {
    let scaler = Scaler::fit(data);
    let mut scaled = data.clone();
    scaler.transform(&mut scaled);
    let x: Vec<f64> = scaled.raw_features().iter().map(|&v| f64::from(v)).collect();
    let y: Vec<f64> = data.labels().iter().map(|&l| f64::from(u8::from(l))).collect();
    (scaler, x, y)
}

#[inline]
fn dot(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(&a, &b)| a * b).sum()
}

#[inline]
fn dot32(w: &[f64], x: &[f32]) -> f64 {
    w.iter().zip(x).map(|(&a, &b)| a * f64::from(b)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::roc_auc;

    /// Linearly separable toy data: label = (x0 + x1 > 0).
    fn separable(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let a = rng.next_f64() * 4.0 - 2.0;
            let b = rng.next_f64() * 4.0 - 2.0;
            d.push_row(&[a as f32, b as f32], a + b > 0.0, i as u32);
        }
        d
    }

    fn auc_of(model: &dyn Classifier, data: &Dataset) -> f64 {
        let scores = model.predict_batch(data);
        roc_auc(&scores, data.labels())
    }

    #[test]
    fn logistic_separates_linear_data() {
        let train = separable(400, 1);
        let test = separable(200, 2);
        let m = LogisticRegression::fit(&LogisticRegressionConfig::default(), &train);
        assert!(auc_of(&m, &test) > 0.97);
    }

    #[test]
    fn logistic_weights_point_the_right_way() {
        let train = separable(400, 3);
        let m = LogisticRegression::fit(&LogisticRegressionConfig::default(), &train);
        assert!(m.weights()[0] > 0.0);
        assert!(m.weights()[1] > 0.0);
    }

    #[test]
    fn strong_l2_shrinks_weights() {
        let train = separable(400, 4);
        let loose = LogisticRegression::fit(
            &LogisticRegressionConfig {
                l2: 1e-6,
                ..Default::default()
            },
            &train,
        );
        let tight = LogisticRegression::fit(
            &LogisticRegressionConfig {
                l2: 1.0,
                ..Default::default()
            },
            &train,
        );
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>();
        assert!(norm(tight.weights()) < 0.5 * norm(loose.weights()));
    }

    #[test]
    fn svm_separates_linear_data() {
        let train = separable(400, 5);
        let test = separable(200, 6);
        let m = LinearSvm::fit(&LinearSvmConfig::default(), &train, 0);
        assert!(auc_of(&m, &test) > 0.97);
    }

    #[test]
    fn svm_is_seed_reproducible() {
        let train = separable(100, 7);
        let a = LinearSvm::fit(&LinearSvmConfig::default(), &train, 9);
        let b = LinearSvm::fit(&LinearSvmConfig::default(), &train, 9);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn probabilities_are_probabilities() {
        let train = separable(100, 8);
        let m = LogisticRegression::fit(&LogisticRegressionConfig::default(), &train);
        for i in 0..train.n_rows() {
            let p = m.predict_proba(train.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn trainer_trait_objects_work() {
        let train = separable(200, 10);
        let trainers: Vec<Box<dyn Trainer>> = vec![
            Box::new(LogisticRegressionConfig::default()),
            Box::new(LinearSvmConfig::default()),
        ];
        for t in trainers {
            let m = t.fit(&train, 0);
            assert!(auc_of(m.as_ref(), &train) > 0.9, "{}", t.name());
        }
    }
}
