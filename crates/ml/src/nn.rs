//! Multi-layer perceptron with ReLU hidden layers, sigmoid output, and
//! Adam optimization — the paper's "neural network" entry, whose
//! grid-searched hyperparameters were "the sizes of the hidden layers"
//! (Section 5.2).

use crate::classifier::{sigmoid, Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_parallel::prelude::*;
use ssd_stats::SplitMix64;
use ssd_types::cast::{f64_from_usize, u64_from_usize, usize_from_u64};

/// Hyperparameters for the MLP.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. `[32, 16]`.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32, 16],
            learning_rate: 1e-2,
            epochs: 60,
            batch_size: 64,
            weight_decay: 1e-4,
        }
    }
}

/// One dense layer's parameters and Adam state.
struct Layer {
    w: Vec<f64>, // out × in, row-major
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
    // Adam moments.
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Layer {
    fn new(n_in: usize, n_out: usize, rng: &mut SplitMix64) -> Self {
        // He initialization for ReLU nets.
        let scale = (2.0 / f64_from_usize(n_in)).sqrt();
        let w = (0..n_in * n_out)
            .map(|_| (rng.next_f64() * 2.0 - 1.0) * scale)
            .collect();
        Layer {
            w,
            b: vec![0.0; n_out],
            n_in,
            n_out,
            mw: vec![0.0; n_in * n_out],
            vw: vec![0.0; n_in * n_out],
            mb: vec![0.0; n_out],
            vb: vec![0.0; n_out],
        }
    }

    /// `out = W·x + b`.
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            let z: f64 = self.b[o] + row.iter().zip(x).map(|(&w, &v)| w * v).sum::<f64>();
            out.push(z);
        }
    }
}

/// A fitted MLP.
pub struct Mlp {
    scaler: Scaler,
    layers: Vec<Layer>,
}

impl Mlp {
    /// Trains with Adam on mini-batches of binary cross-entropy.
    pub fn fit(config: &MlpConfig, data: &Dataset, seed: u64) -> Self {
        let scaler = Scaler::fit(data);
        let mut scaled = data.clone();
        scaler.transform(&mut scaled);
        let n = data.n_rows();
        let d = data.n_features();

        #[expect(
            clippy::disallowed_methods,
            reason = "fit-entry stream root: the caller owns seed derivation, and re-mixing here would break pinned predictions"
        )]
        let mut rng = SplitMix64::new(seed);
        let mut dims = vec![d];
        dims.extend_from_slice(&config.hidden);
        dims.push(1);
        let mut layers: Vec<Layer> = dims
            .windows(2)
            .map(|w| Layer::new(w[0], w[1], &mut rng))
            .collect();

        let mut order: Vec<usize> = (0..n).collect();
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        let mut t_step = 0usize;

        // Pre-allocated forward/backward scratch (one per layer boundary).
        let n_layers = layers.len();
        let mut acts: Vec<Vec<f64>> = dims.iter().map(|&k| Vec::with_capacity(k)).collect();
        let mut deltas: Vec<Vec<f64>> = dims[1..].iter().map(|&k| vec![0.0; k]).collect();
        // Gradient accumulators per layer.
        let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for _ in 0..config.epochs {
            // Deterministic shuffle.
            for i in (1..n).rev() {
                let j = usize_from_u64(rng.next_bounded(u64_from_usize(i + 1)));
                order.swap(i, j);
            }
            for batch in order.chunks(config.batch_size) {
                for l in 0..n_layers {
                    gw[l].iter_mut().for_each(|g| *g = 0.0);
                    gb[l].iter_mut().for_each(|g| *g = 0.0);
                }
                for &i in batch {
                    // Forward pass with ReLU activations.
                    acts[0].clear();
                    acts[0].extend(scaled.row(i).iter().map(|&v| f64::from(v)));
                    for l in 0..n_layers {
                        let (before, after) = acts.split_at_mut(l + 1);
                        layers[l].forward(&before[l], &mut after[0]);
                        if l + 1 < n_layers {
                            for v in after[0].iter_mut() {
                                *v = v.max(0.0); // ReLU
                            }
                        }
                    }
                    let y = f64::from(u8::from(data.label(i)));
                    let p = sigmoid(acts[n_layers][0]);
                    // dL/dz for sigmoid + BCE is (p − y).
                    deltas[n_layers - 1][0] = p - y;
                    // Backward pass.
                    for l in (0..n_layers).rev() {
                        // Accumulate gradients for layer l.
                        for o in 0..layers[l].n_out {
                            let dl = deltas[l][o];
                            gb[l][o] += dl;
                            let grow = &mut gw[l]
                                [o * layers[l].n_in..(o + 1) * layers[l].n_in];
                            for (g, &a) in grow.iter_mut().zip(&acts[l]) {
                                *g += dl * a;
                            }
                        }
                        if l > 0 {
                            // delta_{l-1} = (Wᵀ delta_l) ⊙ ReLU'(z_{l-1}).
                            let (dprev, dcur) = deltas.split_at_mut(l);
                            let dprev = &mut dprev[l - 1];
                            dprev.iter_mut().for_each(|v| *v = 0.0);
                            for (o, &dl) in dcur[0].iter().enumerate() {
                                let row = &layers[l].w
                                    [o * layers[l].n_in..(o + 1) * layers[l].n_in];
                                for (dp, &w) in dprev.iter_mut().zip(row) {
                                    *dp += dl * w;
                                }
                            }
                            for (dp, &a) in dprev.iter_mut().zip(&acts[l]) {
                                if a <= 0.0 {
                                    *dp = 0.0;
                                }
                            }
                        }
                    }
                }
                // Adam update.
                t_step += 1;
                #[expect(
                    clippy::as_conversions,
                    reason = "Adam step counter stays far below i32::MAX for any real epoch budget"
                )]
                let t = t_step as i32;
                let (bc1, bc2) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
                let scale = 1.0 / f64_from_usize(batch.len());
                for l in 0..n_layers {
                    let layer = &mut layers[l];
                    for (k, g0) in gw[l].iter().enumerate() {
                        let g = g0 * scale + config.weight_decay * layer.w[k];
                        layer.mw[k] = beta1 * layer.mw[k] + (1.0 - beta1) * g;
                        layer.vw[k] = beta2 * layer.vw[k] + (1.0 - beta2) * g * g;
                        let mhat = layer.mw[k] / bc1;
                        let vhat = layer.vw[k] / bc2;
                        layer.w[k] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                    for (k, g0) in gb[l].iter().enumerate() {
                        let g = g0 * scale;
                        layer.mb[k] = beta1 * layer.mb[k] + (1.0 - beta1) * g;
                        layer.vb[k] = beta2 * layer.vb[k] + (1.0 - beta2) * g * g;
                        let mhat = layer.mb[k] / bc1;
                        let vhat = layer.vb[k] / bc2;
                        layer.b[k] -= config.learning_rate * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
        Mlp { scaler, layers }
    }
}

/// Per-worker scoring buffers: the standardized row and the two
/// activation vectors the layers ping-pong between.
#[derive(Default)]
struct Scratch {
    scaled: Vec<f32>,
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl Mlp {
    /// Forward pass for one row through reusable buffers.
    fn score(&self, row: &[f32], scratch: &mut Scratch) -> f64 {
        let Scratch { scaled, cur, next } = scratch;
        self.scaler.transform_row(row, scaled);
        cur.clear();
        cur.extend(scaled.iter().map(|&v| f64::from(v)));
        let n_layers = self.layers.len();
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(cur, next);
            if l + 1 < n_layers {
                for v in next.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            std::mem::swap(cur, next);
        }
        sigmoid(cur[0])
    }
}

impl Classifier for Mlp {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        self.score(row, &mut Scratch::default())
    }

    /// Parallel over rows, with one set of buffers per worker instead of
    /// three allocations per row.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        (0..data.n_rows())
            .into_par_iter()
            .map_init(Scratch::default, |scratch, i| {
                self.score(data.row(i), scratch)
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "Neural Network"
    }
}

impl Trainer for MlpConfig {
    fn fit(&self, data: &Dataset, seed: u64) -> Box<dyn Classifier> {
        Box::new(Mlp::fit(self, data, seed))
    }

    fn name(&self) -> String {
        "Neural Network".into()
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
    fn learns_xor() {
        let train = xor_data(600, 1);
        let test = xor_data(200, 2);
        let cfg = MlpConfig {
            epochs: 120,
            ..Default::default()
        };
        let m = Mlp::fit(&cfg, &train, 0);
        let scores = m.predict_batch(&test);
        let auc = roc_auc(&scores, test.labels());
        assert!(auc > 0.95, "AUC {auc}");
    }

    #[test]
    fn training_is_seed_deterministic() {
        let train = xor_data(200, 3);
        let cfg = MlpConfig {
            epochs: 10,
            ..Default::default()
        };
        let a = Mlp::fit(&cfg, &train, 11);
        let b = Mlp::fit(&cfg, &train, 11);
        assert_eq!(a.predict_batch(&train), b.predict_batch(&train));
    }

    #[test]
    fn batch_scores_match_per_row_scores_bitwise() {
        let train = xor_data(150, 7);
        let cfg = MlpConfig {
            hidden: vec![6, 3],
            epochs: 5,
            ..Default::default()
        };
        let m = Mlp::fit(&cfg, &train, 2);
        let test = xor_data(300, 8);
        let batch = m.predict_batch(&test);
        for (i, b) in batch.iter().enumerate() {
            assert_eq!(
                b.to_bits(),
                m.predict_proba(test.row(i)).to_bits(),
                "row {i}"
            );
        }
    }

    #[test]
    fn outputs_are_probabilities() {
        let train = xor_data(100, 4);
        let cfg = MlpConfig {
            epochs: 5,
            ..Default::default()
        };
        let m = Mlp::fit(&cfg, &train, 0);
        for i in 0..train.n_rows() {
            let p = m.predict_proba(train.row(i));
            assert!((0.0..=1.0).contains(&p) && p.is_finite());
        }
    }

    #[test]
    fn deeper_config_builds_matching_layers() {
        let train = xor_data(80, 5);
        let cfg = MlpConfig {
            hidden: vec![8, 4, 2],
            epochs: 2,
            ..Default::default()
        };
        let m = Mlp::fit(&cfg, &train, 0);
        assert_eq!(m.layers.len(), 4); // 3 hidden + output
        assert_eq!(m.layers[0].n_in, 2);
        assert_eq!(m.layers[3].n_out, 1);
    }
}
