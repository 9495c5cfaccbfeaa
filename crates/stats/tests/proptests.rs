//! Property-based tests for the statistics substrate.

use ssd_stats::{fractional_ranks, pearson, quantile, spearman, Ecdf, Summary};
use ssd_testkit::{for_each_case, Gen};

fn finite_vec(g: &mut Gen, max_len: usize) -> Vec<f64> {
    g.vec(1, max_len - 1, |g| g.f64_in(-1e6, 1e6))
}

#[test]
fn ecdf_is_monotone_and_bounded() {
    for_each_case("ecdf_is_monotone_and_bounded", 256, |g| {
        let samples = finite_vec(g, 200);
        let xs = finite_vec(g, 20);
        let e = Ecdf::new(&samples);
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for x in sorted {
            let v = e.eval(x);
            assert!((0.0..=1.0).contains(&v));
            assert!(v >= prev - 1e-15);
            prev = v;
        }
    });
}

#[test]
fn ecdf_censoring_caps_total_mass() {
    for_each_case("ecdf_censoring_caps_total_mass", 256, |g| {
        let samples = finite_vec(g, 100);
        let censored = g.u64_in(0, 1000);
        let e = Ecdf::with_censored(&samples, censored);
        let top = e.eval(f64::MAX);
        let expected = samples.len() as f64 / (samples.len() as f64 + censored as f64);
        assert!((top - expected).abs() < 1e-12);
    });
}

#[test]
fn quantile_is_monotone_in_q() {
    for_each_case("quantile_is_monotone_in_q", 256, |g| {
        let samples = finite_vec(g, 100);
        let q1 = g.f64_unit();
        let q2 = g.f64_unit();
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        assert!(quantile(&samples, lo) <= quantile(&samples, hi) + 1e-12);
    });
}

#[test]
fn quantile_is_bounded_by_extremes() {
    for_each_case("quantile_is_bounded_by_extremes", 256, |g| {
        let samples = finite_vec(g, 100);
        let q = g.f64_unit();
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&samples, q);
        assert!(v >= min - 1e-12 && v <= max + 1e-12);
    });
}

#[test]
fn ranks_sum_to_gauss_total() {
    for_each_case("ranks_sum_to_gauss_total", 256, |g| {
        let samples = finite_vec(g, 150);
        let ranks = fractional_ranks(&samples);
        let n = samples.len() as f64;
        let sum: f64 = ranks.iter().sum();
        assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
    });
}

#[test]
fn spearman_is_in_unit_interval() {
    for_each_case("spearman_is_in_unit_interval", 256, |g| {
        let xs = finite_vec(g, 100);
        // Build a second variable with some relation to the first.
        let ys: Vec<f64> = xs.iter().map(|v| (v * 0.5).sin() * 10.0).collect();
        if xs.len() >= 2 {
            let s = spearman(&xs, &ys);
            if !s.is_nan() {
                assert!((-1.0..=1.0).contains(&s) || s.abs() - 1.0 < 1e-12);
            }
        }
    });
}

#[test]
fn spearman_invariant_under_monotone_transform() {
    for_each_case("spearman_invariant_under_monotone_transform", 256, |g| {
        let xs = g.vec(3, 79, |g| g.f64_in(0.1, 1e3));
        let ys: Vec<f64> = xs.iter().rev().cloned().collect();
        let base = spearman(&xs, &ys);
        let xs_t: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
        let ys_t: Vec<f64> = ys.iter().map(|v| v * v).collect();
        let t = spearman(&xs_t, &ys_t);
        if !base.is_nan() && !t.is_nan() {
            assert!((base - t).abs() < 1e-9, "{base} vs {t}");
        }
    });
}

#[test]
fn pearson_is_symmetric() {
    for_each_case("pearson_is_symmetric", 256, |g| {
        let xs = finite_vec(g, 60);
        let ys: Vec<f64> = xs.iter().map(|v| v * 2.0 + 1.0).collect();
        if xs.len() >= 2 {
            let a = pearson(&xs, &ys);
            let b = pearson(&ys, &xs);
            if !a.is_nan() {
                assert!((a - b).abs() < 1e-12);
            }
        }
    });
}

#[test]
fn summary_merge_matches_whole() {
    for_each_case("summary_merge_matches_whole", 256, |g| {
        let samples = finite_vec(g, 200);
        let split = g.usize_in(0, 200);
        let cut = split.min(samples.len());
        let whole = Summary::of(&samples);
        let mut left = Summary::of(&samples[..cut]);
        left.merge(&Summary::of(&samples[cut..]));
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-6);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    });
}
