//! Multi-layer perceptron with ReLU hidden layers, sigmoid output, and
//! Adam optimization — the paper's "neural network" entry, whose
//! grid-searched hyperparameters were "the sizes of the hidden layers"
//! (Section 5.2).
//!
//! # Block layout
//!
//! Training and scoring run a whole block of rows through each layer at
//! once. A block's activations are stored feature-major: value `k` of row
//! `r` sits at `k · stride + r`, where `stride` is the block capacity
//! rounded up to `ROWS` = 8 lanes. Three kernels work on that layout:
//!
//! - `forward` computes `z = W·x + b` for a tile of two outputs × eight
//!   rows, walking the inputs once and keeping the 16 partial sums in
//!   registers, then applies ReLU on hidden layers;
//! - `propagate` computes `δ_prev = Wᵀ·δ` the same way, for two inputs ×
//!   eight rows per tile, and zeroes it where the layer's input was not
//!   positive (ReLU′);
//! - `accumulate` adds `δ·xᵀ` into the weight gradients for two outputs ×
//!   `COLS` = 8 inputs per tile, reading a row-major copy of the layer's
//!   input (its row stride rounded up to `COLS`, the pad columns zero),
//!   one batch row after another.
//!
//! Lanes past the last live row of a tile are computed and ignored: no
//! kernel combines values of different lanes, and the gradient kernel
//! reads live rows only.
//!
//! # Why the model is bit-identical to a row-at-a-time pass
//!
//! The reference (kept as a test oracle) runs one sample at a time
//! through the layers and accumulates its gradients before the next. The
//! block kernels change which elements are computed together, never the
//! arithmetic of one element:
//!
//! - each forward sum starts at `-0.0`, as `Iterator::sum` does, adds
//!   `w·x` in input order and then adds the bias, so every logit is the
//!   same f64;
//! - each propagated delta starts at `0.0` and adds `δ·w` in output
//!   order, and the ReLU′ mask reads the same activation;
//! - each weight and bias gradient starts from the batch's zeroed
//!   accumulator and adds `δ·x` in batch-row order. The weights do not
//!   change inside a batch, so finishing every row's forward pass before
//!   any gradient is added changes nothing the gradients read.
//!
//! Rust never fuses a multiply and an add on its own, so vectorising
//! across lanes keeps each lane's rounding. The Adam update is the same
//! code on the same gradients, so every fitted weight is bit-equal, and
//! scoring runs the same `forward`, so `predict_batch` equals
//! `predict_proba` bit for bit.

use crate::classifier::{sigmoid, Classifier, Trainer};
use crate::dataset::{Dataset, Scaler};
use ssd_parallel::prelude::*;
use ssd_stats::SplitMix64;
use ssd_types::cast::{f64_from_usize, u64_from_usize, usize_from_u64};

/// Row lanes per register tile. An internal constant: it changes the
/// schedule of the arithmetic, never its result.
const ROWS: usize = 8;

/// Inputs per gradient tile. Like `ROWS`, it changes the schedule only.
const COLS: usize = 8;

/// Rows scored together by `predict_batch`.
const SCORE_BLOCK: usize = 64;

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

    /// `z = W·x + b` over the first `lanes` lanes of a feature-major
    /// block, with ReLU applied when `relu` is set.
    fn forward(&self, x: &[f64], z: &mut [f64], stride: usize, lanes: usize, relu: bool) {
        let n_in = self.n_in;
        let mut store = |o: usize, r0: usize, acc: &[f64; ROWS]| {
            for (v, &a) in z[o * stride + r0..][..ROWS].iter_mut().zip(acc) {
                let s = self.b[o] + a;
                *v = if relu { s.max(0.0) } else { s };
            }
        };
        for r0 in (0..lanes).step_by(ROWS) {
            let pairs = self.w.chunks_exact(2 * n_in);
            let single = pairs.remainder();
            for (p, wp) in pairs.enumerate() {
                let (w0, w1) = wp.split_at(n_in);
                let (mut a0, mut a1) = ([-0.0; ROWS], [-0.0; ROWS]);
                for ((xk, &c0), &c1) in x.chunks_exact(stride).zip(w0).zip(w1) {
                    for ((s0, s1), &v) in a0.iter_mut().zip(&mut a1).zip(&xk[r0..r0 + ROWS]) {
                        *s0 += c0 * v;
                        *s1 += c1 * v;
                    }
                }
                store(2 * p, r0, &a0);
                store(2 * p + 1, r0, &a1);
            }
            if !single.is_empty() {
                let mut a0 = [-0.0; ROWS];
                for (xk, &c0) in x.chunks_exact(stride).zip(single) {
                    for (s0, &v) in a0.iter_mut().zip(&xk[r0..r0 + ROWS]) {
                        *s0 += c0 * v;
                    }
                }
                store(self.n_out - 1, r0, &a0);
            }
        }
    }

    /// `δ_prev = (Wᵀ·δ) ⊙ ReLU′(x)` over the first `lanes` lanes, where
    /// `x` is this layer's (post-ReLU) input.
    fn propagate(&self, delta: &[f64], x: &[f64], prev: &mut [f64], stride: usize, lanes: usize) {
        let n_in = self.n_in;
        let mut store = |k: usize, r0: usize, acc: &[f64; ROWS]| {
            let live = &x[k * stride + r0..][..ROWS];
            for ((v, &a), &act) in prev[k * stride + r0..][..ROWS]
                .iter_mut()
                .zip(acc)
                .zip(live)
            {
                *v = if act <= 0.0 { 0.0 } else { a };
            }
        };
        for r0 in (0..lanes).step_by(ROWS) {
            let mut k = 0;
            while k < n_in {
                let (mut a0, mut a1) = ([0.0; ROWS], [0.0; ROWS]);
                if k + 1 < n_in {
                    for (dk, wo) in delta.chunks_exact(stride).zip(self.w.chunks_exact(n_in)) {
                        let (c0, c1) = (wo[k], wo[k + 1]);
                        for ((s0, s1), &d) in a0.iter_mut().zip(&mut a1).zip(&dk[r0..r0 + ROWS]) {
                            *s0 += d * c0;
                            *s1 += d * c1;
                        }
                    }
                    store(k, r0, &a0);
                    store(k + 1, r0, &a1);
                    k += 2;
                } else {
                    for (dk, wo) in delta.chunks_exact(stride).zip(self.w.chunks_exact(n_in)) {
                        let c0 = wo[k];
                        for (s0, &d) in a0.iter_mut().zip(&dk[r0..r0 + ROWS]) {
                            *s0 += d * c0;
                        }
                    }
                    store(k, r0, &a0);
                    k += 1;
                }
            }
        }
    }

    /// Applies one Adam step from the summed batch gradients.
    fn adam_step(&mut self, config: &MlpConfig, gw: &[f64], gb: &[f64], scale: f64, t_step: usize) {
        let (beta1, beta2, eps): (f64, f64, f64) = (0.9, 0.999, 1e-8);
        #[expect(
            clippy::as_conversions,
            reason = "Adam step counter stays far below i32::MAX for any real epoch budget"
        )]
        let t = t_step as i32;
        let (bc1, bc2) = (1.0 - beta1.powi(t), 1.0 - beta2.powi(t));
        let weights = self
            .w
            .iter_mut()
            .zip(&mut self.mw)
            .zip(&mut self.vw)
            .zip(gw);
        for (((w, m), v), g0) in weights {
            let g = g0 * scale + config.weight_decay * *w;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *w -= config.learning_rate * mhat / (vhat.sqrt() + eps);
        }
        let biases = self
            .b
            .iter_mut()
            .zip(&mut self.mb)
            .zip(&mut self.vb)
            .zip(gb);
        for (((b, m), v), g0) in biases {
            let g = g0 * scale;
            *m = beta1 * *m + (1.0 - beta1) * g;
            *v = beta2 * *v + (1.0 - beta2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *b -= config.learning_rate * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// `gw[o, k] += Σ_r δ[o, r] · x[r, k]` and `gb[o] += Σ_r δ[o, r]` over the
/// first `rows` rows in row order. `delta` is feature-major with `stride`
/// lanes; `xt` is row-major with `n_in` rounded up to `COLS` per row.
fn accumulate(
    delta: &[f64],
    stride: usize,
    rows: usize,
    xt: &[f64],
    n_in: usize,
    gw: &mut [f64],
    gb: &mut [f64],
) {
    let kp = n_in.next_multiple_of(COLS);
    let xt = &xt[..rows * kp];
    let load = |g: &[f64], k0: usize| {
        let mut acc = [0.0; COLS];
        for (a, &v) in acc.iter_mut().zip(&g[k0..]) {
            *a = v;
        }
        acc
    };
    let store = |g: &mut [f64], k0: usize, acc: &[f64; COLS]| {
        for (v, &a) in g[k0..].iter_mut().zip(acc) {
            *v = a;
        }
    };
    let mut pairs = gw.chunks_exact_mut(2 * n_in);
    for (gp, dp) in pairs.by_ref().zip(delta.chunks_exact(2 * stride)) {
        let (g0, g1) = gp.split_at_mut(n_in);
        let (d0, d1) = (&dp[..rows], &dp[stride..stride + rows]);
        for k0 in (0..kp).step_by(COLS) {
            let (mut a0, mut a1) = (load(g0, k0), load(g1, k0));
            for ((&e0, &e1), xr) in d0.iter().zip(d1).zip(xt.chunks_exact(kp)) {
                for ((s0, s1), &v) in a0.iter_mut().zip(&mut a1).zip(&xr[k0..k0 + COLS]) {
                    *s0 += e0 * v;
                    *s1 += e1 * v;
                }
            }
            store(g0, k0, &a0);
            store(g1, k0, &a1);
        }
    }
    let g0 = pairs.into_remainder();
    if !g0.is_empty() {
        let o = gb.len() - 1;
        let d0 = &delta[o * stride..o * stride + rows];
        for k0 in (0..kp).step_by(COLS) {
            let mut a0 = load(g0, k0);
            for (&e0, xr) in d0.iter().zip(xt.chunks_exact(kp)) {
                for (s0, &v) in a0.iter_mut().zip(&xr[k0..k0 + COLS]) {
                    *s0 += e0 * v;
                }
            }
            store(g0, k0, &a0);
        }
    }
    for (g, dk) in gb.iter_mut().zip(delta.chunks_exact(stride)) {
        for &d in &dk[..rows] {
            *g += d;
        }
    }
}

/// Training buffers for one mini-batch, sized once per fit.
struct Workspace {
    /// Lane stride: the batch size rounded up to `ROWS`.
    stride: usize,
    /// `acts[l]`: layer `l`'s input, feature-major (`acts[0]` the
    /// standardized rows, the last entry the output logits).
    acts: Vec<Vec<f64>>,
    /// `deltas[l]`: dL/dz of layer `l`'s outputs, feature-major.
    deltas: Vec<Vec<f64>>,
    /// `inputs[l]`: row-major copy of `acts[l]` for the gradient kernel.
    inputs: Vec<Vec<f64>>,
}

impl Workspace {
    fn new(layers: &[Layer], batch_size: usize) -> Self {
        let stride = batch_size.max(1).next_multiple_of(ROWS);
        let mut acts: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.n_in * stride]).collect();
        acts.push(vec![0.0; stride]);
        Workspace {
            stride,
            acts,
            deltas: layers.iter().map(|l| vec![0.0; l.n_out * stride]).collect(),
            inputs: layers
                .iter()
                .map(|l| vec![0.0; l.n_in.next_multiple_of(COLS) * batch_size.max(1)])
                .collect(),
        }
    }

    /// Adds the batch's summed gradients into the zeroed `gw`/`gb`.
    fn accumulate(
        &mut self,
        layers: &[Layer],
        scaled: &Dataset,
        batch: &[usize],
        gw: &mut [Vec<f64>],
        gb: &mut [Vec<f64>],
    ) {
        let Workspace {
            stride,
            acts,
            deltas,
            inputs,
        } = self;
        let stride = *stride;
        let rows = batch.len();
        let lanes = rows.next_multiple_of(ROWS);
        let kp = scaled.n_features().next_multiple_of(COLS);
        for (r, &i) in batch.iter().enumerate() {
            let xr = &mut inputs[0][r * kp..];
            for (k, &v) in scaled.row(i).iter().enumerate() {
                acts[0][k * stride + r] = f64::from(v);
                xr[k] = f64::from(v);
            }
        }
        let n_layers = layers.len();
        for (l, layer) in layers.iter().enumerate() {
            let (before, after) = acts.split_at_mut(l + 1);
            layer.forward(&before[l], &mut after[0], stride, lanes, l + 1 < n_layers);
        }
        // dL/dz for sigmoid + BCE is (p − y).
        for ((d, &z), &i) in deltas[n_layers - 1]
            .iter_mut()
            .zip(&acts[n_layers])
            .zip(batch)
        {
            *d = sigmoid(z) - f64::from(u8::from(scaled.label(i)));
        }
        for (l, layer) in layers.iter().enumerate().rev() {
            let kp = layer.n_in.next_multiple_of(COLS);
            if l > 0 {
                for (r, xr) in inputs[l].chunks_exact_mut(kp).take(rows).enumerate() {
                    for (k, v) in xr[..layer.n_in].iter_mut().enumerate() {
                        *v = acts[l][k * stride + r];
                    }
                }
            }
            accumulate(
                &deltas[l], stride, rows, &inputs[l], layer.n_in, &mut gw[l], &mut gb[l],
            );
            if l > 0 {
                let (dprev, dcur) = deltas.split_at_mut(l);
                layer.propagate(&dcur[0], &acts[l], &mut dprev[l - 1], stride, lanes);
            }
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
        let mut work: Option<Workspace> = None;
        Self::train(config, data, seed, |layers, scaled, batch, gw, gb| {
            work.get_or_insert_with(|| Workspace::new(layers, config.batch_size))
                .accumulate(layers, scaled, batch, gw, gb);
        })
    }

    /// The training loop around a batch-gradient kernel: initialization,
    /// per-epoch shuffles, and one Adam step per mini-batch.
    fn train(
        config: &MlpConfig,
        data: &Dataset,
        seed: u64,
        mut gradients: impl FnMut(&[Layer], &Dataset, &[usize], &mut [Vec<f64>], &mut [Vec<f64>]),
    ) -> Self {
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
        let mut t_step = 0usize;
        let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut gb: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        for _ in 0..config.epochs {
            // Deterministic shuffle.
            for i in (1..n).rev() {
                let j = usize_from_u64(rng.next_bounded(u64_from_usize(i + 1)));
                order.swap(i, j);
            }
            for batch in order.chunks(config.batch_size) {
                for (w, b) in gw.iter_mut().zip(&mut gb) {
                    w.fill(0.0);
                    b.fill(0.0);
                }
                gradients(&layers, &scaled, batch, &mut gw, &mut gb);
                t_step += 1;
                let scale = 1.0 / f64_from_usize(batch.len());
                for ((layer, w), b) in layers.iter_mut().zip(&gw).zip(&gb) {
                    layer.adam_step(config, w, b, scale, t_step);
                }
            }
        }
        Mlp { scaler, layers }
    }
}

/// Per-worker scoring buffers: the standardized row and the two
/// feature-major activation blocks the layers ping-pong between.
#[derive(Default)]
struct Scratch {
    scaled: Vec<f32>,
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl Mlp {
    /// Scores `rows` consecutive rows from `row(i)` in one block through
    /// the forward kernel, appending the probabilities to `out`.
    fn score_block<'a>(
        &self,
        rows: usize,
        row: impl Fn(usize) -> &'a [f32],
        scratch: &mut Scratch,
        out: &mut Vec<f64>,
    ) {
        let Scratch { scaled, cur, next } = scratch;
        let stride = rows.next_multiple_of(ROWS);
        let widest = self
            .layers
            .iter()
            .map(|l| l.n_in.max(l.n_out))
            .max()
            .unwrap_or(1);
        cur.clear();
        cur.resize(widest * stride, 0.0);
        next.clear();
        next.resize(widest * stride, 0.0);
        for r in 0..rows {
            self.scaler.transform_row(row(r), scaled);
            for (k, &v) in scaled.iter().enumerate() {
                cur[k * stride + r] = f64::from(v);
            }
        }
        let n_layers = self.layers.len();
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(cur, next, stride, stride, l + 1 < n_layers);
            std::mem::swap(cur, next);
        }
        out.extend(cur[..rows].iter().map(|&z| sigmoid(z)));
    }
}

impl Classifier for Mlp {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        let mut out = Vec::with_capacity(1);
        self.score_block(1, |_| row, &mut Scratch::default(), &mut out);
        out.first().copied().unwrap_or(f64::NAN)
    }

    /// Parallel over blocks of `SCORE_BLOCK` rows, with one set of
    /// buffers per worker.
    fn predict_batch(&self, data: &Dataset) -> Vec<f64> {
        let n = data.n_rows();
        let blocks: Vec<Vec<f64>> = (0..n.div_ceil(SCORE_BLOCK))
            .into_par_iter()
            .map_init(Scratch::default, |scratch, b| {
                let start = b * SCORE_BLOCK;
                let rows = SCORE_BLOCK.min(n - start);
                let mut out = Vec::with_capacity(rows);
                self.score_block(rows, |r| data.row(start + r), scratch, &mut out);
                out
            })
            .collect();
        blocks.concat()
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

    /// The row-at-a-time pass the block kernels replaced: one sample's
    /// forward and backward pass at a time.
    mod reference {
        use super::super::*;

        /// `out = W·x + b` for one row.
        fn forward(layer: &Layer, x: &[f64], out: &mut Vec<f64>) {
            out.clear();
            for o in 0..layer.n_out {
                let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                let z: f64 = layer.b[o] + row.iter().zip(x).map(|(&w, &v)| w * v).sum::<f64>();
                out.push(z);
            }
        }

        pub(super) fn fit(config: &MlpConfig, data: &Dataset, seed: u64) -> Mlp {
            let mut acts: Vec<Vec<f64>> = Vec::new();
            let mut deltas: Vec<Vec<f64>> = Vec::new();
            Mlp::train(config, data, seed, |layers, scaled, batch, gw, gb| {
                let n_layers = layers.len();
                if acts.is_empty() {
                    acts = layers.iter().map(|l| Vec::with_capacity(l.n_in)).collect();
                    acts.push(Vec::with_capacity(1));
                    deltas = layers.iter().map(|l| vec![0.0; l.n_out]).collect();
                }
                for &i in batch {
                    acts[0].clear();
                    acts[0].extend(scaled.row(i).iter().map(|&v| f64::from(v)));
                    for l in 0..n_layers {
                        let (before, after) = acts.split_at_mut(l + 1);
                        forward(&layers[l], &before[l], &mut after[0]);
                        if l + 1 < n_layers {
                            for v in after[0].iter_mut() {
                                *v = v.max(0.0);
                            }
                        }
                    }
                    let y = f64::from(u8::from(scaled.label(i)));
                    deltas[n_layers - 1][0] = sigmoid(acts[n_layers][0]) - y;
                    for l in (0..n_layers).rev() {
                        for o in 0..layers[l].n_out {
                            let dl = deltas[l][o];
                            gb[l][o] += dl;
                            let grow = &mut gw[l][o * layers[l].n_in..(o + 1) * layers[l].n_in];
                            for (g, &a) in grow.iter_mut().zip(&acts[l]) {
                                *g += dl * a;
                            }
                        }
                        if l > 0 {
                            let (dprev, dcur) = deltas.split_at_mut(l);
                            let dprev = &mut dprev[l - 1];
                            dprev.iter_mut().for_each(|v| *v = 0.0);
                            for (o, &dl) in dcur[0].iter().enumerate() {
                                let row =
                                    &layers[l].w[o * layers[l].n_in..(o + 1) * layers[l].n_in];
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
            })
        }

        /// Scores one row a layer at a time.
        pub(super) fn score(m: &Mlp, row: &[f32]) -> f64 {
            let mut scaled = Vec::new();
            m.scaler.transform_row(row, &mut scaled);
            let mut cur: Vec<f64> = scaled.iter().map(|&v| f64::from(v)).collect();
            let mut next = Vec::new();
            for (l, layer) in m.layers.iter().enumerate() {
                forward(layer, &cur, &mut next);
                if l + 1 < m.layers.len() {
                    for v in next.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                std::mem::swap(&mut cur, &mut next);
            }
            sigmoid(cur[0])
        }
    }

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

    /// Wider, noisier rows: 11 features, a few of them constant or
    /// mostly zero, so ReLU masks and pad columns both get exercised.
    fn wide_data(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(11);
        for i in 0..n {
            let mut row = [0f32; 11];
            for (j, v) in row.iter_mut().enumerate() {
                let u = rng.next_f64();
                *v = match j {
                    0 => 3.0,
                    1 if u < 0.8 => 0.0,
                    _ => (u * 4.0 - 2.0) as f32,
                };
            }
            let label = row[2] + row[3] * row[4] > 0.5;
            d.push_row(&row, label, i as u32);
        }
        d
    }

    fn assert_same_model(a: &Mlp, b: &Mlp, what: &str) {
        assert_eq!(a.layers.len(), b.layers.len(), "{what}");
        for (l, (x, y)) in a.layers.iter().zip(&b.layers).enumerate() {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&x.w), bits(&y.w), "{what}: layer {l} weights");
            assert_eq!(bits(&x.b), bits(&y.b), "{what}: layer {l} biases");
        }
    }

    #[test]
    fn block_kernels_fit_the_reference_model_bit_for_bit() {
        let cases: [(&[usize], usize, usize); 6] = [
            (&[32, 16], 64, 203),
            (&[6, 3], 7, 150),
            (&[8, 4, 2], 64, 97),
            (&[5], 1, 41),
            (&[32, 16], 7, 130),
            (&[6, 3], 1, 33),
        ];
        for data in [xor_data(203, 21), wide_data(203, 22)] {
            for &(hidden, batch_size, n) in &cases {
                assert!(n % batch_size != 0 || batch_size == 1);
                let idx: Vec<usize> = (0..n).collect();
                let train = data.select(&idx);
                let cfg = MlpConfig {
                    hidden: hidden.to_vec(),
                    epochs: 6,
                    batch_size,
                    ..Default::default()
                };
                let what = format!(
                    "hidden {hidden:?}, batch {batch_size}, n {n}, d {}",
                    train.n_features()
                );
                let block = Mlp::fit(&cfg, &train, 5);
                assert_same_model(&block, &reference::fit(&cfg, &train, 5), &what);
                let batch = block.predict_batch(&data);
                for (i, p) in batch.iter().enumerate() {
                    let one = block.predict_proba(data.row(i));
                    assert_eq!(p.to_bits(), one.to_bits(), "{what}: row {i}");
                    assert_eq!(
                        one.to_bits(),
                        reference::score(&block, data.row(i)).to_bits(),
                        "{what}: row {i}"
                    );
                }
            }
        }
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
