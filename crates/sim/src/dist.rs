//! Sampling distributions for the fleet simulator.
//!
//! Implemented from scratch on top of [`SplitMix64`] (rather than pulling in
//! `rand_distr`) because the distributions are part of the reproduced
//! substrate: they are unit- and property-tested against analytic moments,
//! and keeping them local makes the generative model self-contained and
//! bit-reproducible.

use ssd_stats::SplitMix64;

/// Standard normal sample via the Box–Muller transform (one value per call;
/// the second value is intentionally discarded to keep callers stateless).
pub fn normal(rng: &mut SplitMix64, mean: f64, std_dev: f64) -> f64 {
    debug_assert!(std_dev >= 0.0);
    // Avoid ln(0) by nudging u1 away from zero.
    let u1 = (1.0 - rng.next_f64()).max(1e-300);
    let u2 = rng.next_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

/// Log-normal sample with the given parameters of the *underlying* normal
/// (median = exp(mu)).
pub fn log_normal(rng: &mut SplitMix64, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Exponential sample with the given rate (mean = 1/rate).
pub fn exponential(rng: &mut SplitMix64, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u = (1.0 - rng.next_f64()).max(1e-300);
    -u.ln() / rate
}

/// Bernoulli trial.
#[inline]
pub fn bernoulli(rng: &mut SplitMix64, p: f64) -> bool {
    rng.next_f64() < p
}

/// Poisson sample.
///
/// Uses Knuth's product-of-uniforms method for small means and a normal
/// approximation (rounded, clamped at 0) for large means, where the exact
/// method would need O(lambda) uniforms.
#[expect(
    clippy::as_conversions,
    reason = "normal-approximation Poisson sample rounded to a count"
)]
pub fn poisson(rng: &mut SplitMix64, lambda: f64) -> u64 {
    debug_assert!(lambda >= 0.0);
    // lint:allow(float-determinism) -- exact-zero fast path; any nonzero lambda takes the sampling branches
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = normal(rng, lambda, lambda.sqrt());
        x.round().max(0.0) as u64
    }
}

/// Geometric sample: number of failures before the first success,
/// support `{0, 1, 2, …}`, success probability `p`.
#[expect(clippy::as_conversions, reason = "geometric inversion: the floor IS the sample")]
pub fn geometric(rng: &mut SplitMix64, p: f64) -> u64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    if p >= 1.0 {
        return 0;
    }
    let u = (1.0 - rng.next_f64()).max(1e-300);
    (u.ln() / (1.0 - p).ln()).floor() as u64
}

/// A geometric sampler with the `ln(1 − p)` divisor precomputed, for hot
/// paths that draw repeatedly at a fixed success probability (the report
/// schedule draws one per emission and several per gap renewal).
///
/// Draw-for-draw bit-identical to [`geometric`]: the cached divisor is
/// the *same* `f64` value the free function recomputes, and the `p = 1`
/// short-circuit consumes no RNG state in either form.
#[derive(Debug, Clone, Copy)]
pub struct Geometric {
    /// `ln(1 − p)`; `-∞` when `p = 1` (the always-zero distribution).
    ln_q: f64,
}

impl Geometric {
    /// Prepares a sampler for success probability `p` in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        debug_assert!(p > 0.0 && p <= 1.0);
        Geometric {
            ln_q: (1.0 - p).ln(),
        }
    }

    /// Draws one sample, consuming exactly one `next_f64` (none if `p = 1`).
    #[expect(clippy::as_conversions, reason = "geometric inversion: the floor IS the sample")]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if !self.ln_q.is_finite() {
            return 0;
        }
        let u = (1.0 - rng.next_f64()).max(1e-300);
        (u.ln() / self.ln_q).floor() as u64
    }
}

/// A piecewise-linear inverse CDF defined by anchor points
/// `(value, cumulative_probability)`.
///
/// This is how the simulator hits the paper's published duration CDFs
/// exactly (Figures 4–5, Table 5): the anchors are the paper's numbers, and
/// sampling interpolates log-linearly between them, which reproduces the
/// heavy-tailed shapes on the paper's log-scaled axes.
#[derive(Debug, Clone)]
pub struct PiecewiseCdf {
    /// (value, cdf) anchors, strictly increasing in both coordinates.
    anchors: Vec<(f64, f64)>,
    /// Interpolate in log-value space (for log-scale heavy tails).
    log_space: bool,
}

impl PiecewiseCdf {
    /// Builds a sampler from anchors `(value, cdf)`. The first anchor's cdf
    /// need not be 0 (mass below it maps to the first value) but the last
    /// anchor must have cdf 1.0. Anchors must be strictly increasing.
    pub fn new(anchors: Vec<(f64, f64)>, log_space: bool) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        for w in anchors.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "anchors must be strictly increasing: {w:?}"
            );
        }
        let last = anchors[anchors.len() - 1];
        assert!(
            (last.1 - 1.0).abs() < 1e-9,
            "final anchor must have cdf = 1.0"
        );
        if log_space {
            assert!(anchors[0].0 > 0.0, "log-space anchors must be positive");
        }
        PiecewiseCdf { anchors, log_space }
    }

    /// Draws one sample by inverse-CDF interpolation.
    pub fn sample(&self, rng: &mut SplitMix64) -> f64 {
        self.inverse(rng.next_f64())
    }

    /// Deterministic inverse CDF: maps `u ∈ [0,1)` to a value.
    pub fn inverse(&self, u: f64) -> f64 {
        let first = self.anchors[0];
        if u <= first.1 {
            return first.0;
        }
        for w in self.anchors.windows(2) {
            let (v0, c0) = w[0];
            let (v1, c1) = w[1];
            if u <= c1 {
                let t = (u - c0) / (c1 - c0);
                return if self.log_space {
                    (v0.ln() + t * (v1.ln() - v0.ln())).exp()
                } else {
                    v0 + t * (v1 - v0)
                };
            }
        }
        // Constructor asserts at least two anchors, so `last` exists; fall
        // back to the final anchor's value when u lands past every segment.
        self.anchors.last().map_or(f64::NAN, |a| a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(0xDEAD_BEEF)
    }

    fn sample_mean_std(mut f: impl FnMut(&mut SplitMix64) -> f64, n: usize) -> (f64, f64) {
        let mut r = rng();
        let mut s = ssd_stats::Summary::new();
        for _ in 0..n {
            s.push(f(&mut r));
        }
        (s.mean(), s.std_dev())
    }

    #[test]
    fn normal_moments() {
        let (m, s) = sample_mean_std(|r| normal(r, 5.0, 2.0), 100_000);
        assert!((m - 5.0).abs() < 0.03, "mean {m}");
        assert!((s - 2.0).abs() < 0.03, "std {s}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = rng();
        let mut v: Vec<f64> = (0..50_000).map(|_| log_normal(&mut r, 3.0, 1.0)).collect();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = v[v.len() / 2];
        assert!((median - 3.0f64.exp()).abs() / 3.0f64.exp() < 0.05, "{median}");
    }

    #[test]
    fn exponential_mean() {
        let (m, _) = sample_mean_std(|r| exponential(r, 0.25), 100_000);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn poisson_small_and_large_means() {
        let (m, s) = sample_mean_std(|r| poisson(r, 4.0) as f64, 100_000);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
        assert!((s * s - 4.0).abs() < 0.2, "var {}", s * s);
        let (m2, _) = sample_mean_std(|r| poisson(r, 200.0) as f64, 20_000);
        assert!((m2 - 200.0).abs() < 1.0, "mean {m2}");
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn geometric_mean() {
        // Mean of geometric (failures before success) = (1-p)/p.
        let (m, _) = sample_mean_std(|r| geometric(r, 0.2) as f64, 100_000);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        let mut r = rng();
        assert_eq!(geometric(&mut r, 1.0), 0);
    }

    #[test]
    fn cached_geometric_is_draw_for_draw_identical() {
        // The cached form must match the free function from identical RNG
        // state — same values, same number of draws consumed — including
        // the no-draw `p = 1` edge.
        for p in [0.004, 0.002, 0.02, 0.37, 0.97, 1.0] {
            let g = Geometric::new(p);
            let mut ra = SplitMix64::for_stream(99, 5);
            let mut rb = SplitMix64::for_stream(99, 5);
            for _ in 0..2_000 {
                assert_eq!(g.sample(&mut ra), geometric(&mut rb, p), "p={p}");
                assert_eq!(ra.next_u64(), rb.next_u64(), "stream drift at p={p}");
            }
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let hits = (0..100_000).filter(|_| bernoulli(&mut r, 0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "{f}");
    }

    #[test]
    fn piecewise_cdf_hits_anchor_fractions() {
        // Reproduce a Figure-4-like shape: 20% ≤ 1 day, 80% ≤ 7 days,
        // 92% ≤ 100, 100% ≤ 500.
        let cdf = PiecewiseCdf::new(
            vec![(1.0, 0.20), (7.0, 0.80), (100.0, 0.92), (500.0, 1.0)],
            true,
        );
        let mut r = rng();
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| cdf.sample(&mut r)).collect();
        let frac_le = |x: f64| samples.iter().filter(|&&v| v <= x).count() as f64 / n as f64;
        assert!((frac_le(1.0) - 0.20).abs() < 0.01);
        assert!((frac_le(7.0) - 0.80).abs() < 0.01);
        assert!((frac_le(100.0) - 0.92).abs() < 0.01);
        assert!(samples.iter().all(|&v| v <= 500.0 + 1e-9));
    }

    #[test]
    fn piecewise_inverse_is_monotone() {
        let cdf = PiecewiseCdf::new(vec![(1.0, 0.1), (10.0, 0.5), (100.0, 1.0)], true);
        let mut prev = 0.0;
        for i in 0..=100 {
            let v = cdf.inverse(i as f64 / 100.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn piecewise_rejects_bad_anchors() {
        PiecewiseCdf::new(vec![(5.0, 0.5), (5.0, 1.0)], false);
    }
}
