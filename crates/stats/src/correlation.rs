//! Pearson and Spearman correlation (Table 2 of the paper).
//!
//! The paper uses Spearman correlations "as a non-parametric measure of
//! correlation … able to detect all sorts of monotonic relationships, not
//! just linear ones". Spearman is implemented exactly that way: fractional
//! ranks (tie-aware) fed into Pearson.

use crate::rank::fractional_ranks;
use ssd_parallel::prelude::*;

/// Pearson product-moment correlation of two equal-length slices.
///
/// Returns NaN if either input is constant or shorter than 2.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "correlation inputs must be equal length");
    let n = x.len();
    if n < 2 {
        return f64::NAN;
    }
    let nf = n as f64;
    let mx = x.iter().sum::<f64>() / nf;
    let my = y.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - mx;
        let dy = yi - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    // lint:allow(float-determinism) -- degenerate-variance guard; exact zero means a constant input column
    if sxx == 0.0 || syy == 0.0 {
        return f64::NAN;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Spearman rank correlation of two equal-length slices.
pub fn spearman(x: &[f64], y: &[f64]) -> f64 {
    let rx = fractional_ranks(x);
    let ry = fractional_ranks(y);
    pearson(&rx, &ry)
}

/// Computes the full Spearman correlation matrix of a set of variables
/// (one slice per variable, all the same length).
///
/// Ranks are computed once per variable, then all pairs are correlated in
/// parallel. The result is symmetric with a unit diagonal.
pub fn spearman_matrix(variables: &[&[f64]]) -> Vec<Vec<f64>> {
    let k = variables.len();
    if k == 0 {
        return Vec::new();
    }
    let n = variables[0].len();
    for v in variables {
        assert_eq!(v.len(), n, "all variables must have equal length");
    }
    // Rank each variable once (parallel over variables).
    let ranks: Vec<Vec<f64>> = variables
        .par_iter()
        .map(|v| fractional_ranks(v))
        .collect();
    // Correlate every unordered pair (parallel over pairs).
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
        .collect();
    let vals: Vec<((usize, usize), f64)> = pairs
        .par_iter()
        .map(|&(i, j)| ((i, j), pearson(&ranks[i], &ranks[j])))
        .collect();
    let mut m = vec![vec![0.0; k]; k];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for ((i, j), v) in vals {
        m[i][j] = v;
        m[j][i] = v;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_linear() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yn = [-2.0, -4.0, -6.0, -8.0];
        assert!((pearson(&x, &yn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_nan() {
        assert!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_nan());
    }

    #[test]
    fn spearman_detects_monotone_nonlinear() {
        // y = exp(x) is monotone but nonlinear: Spearman = 1, Pearson < 1.
        let x: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| v.exp()).collect();
        assert!((spearman(&x, &y) - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y) < 0.999);
    }

    #[test]
    fn spearman_known_value_with_ties() {
        // Hand-computed example: x = [1,2,2,3], y = [1,3,2,4].
        // ranks x = [1, 2.5, 2.5, 4]; ranks y = [1, 3, 2, 4].
        let s = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 3.0, 2.0, 4.0]);
        // Pearson of ranks: computed analytically = 0.9487 (≈ 3/sqrt(10)).
        assert!((s - 0.948_683_298_050_513_7).abs() < 1e-9, "{s}");
    }

    #[test]
    fn spearman_invariant_to_monotone_transform() {
        let x = [0.3, 1.2, 5.0, 2.2, 0.9, 4.4];
        let y = [10.0, 20.0, 35.0, 28.0, 14.0, 31.0];
        let base = spearman(&x, &y);
        let x_t: Vec<f64> = x.iter().map(|v| v.ln()).collect();
        let y_t: Vec<f64> = y.iter().map(|v| v * v + 3.0).collect();
        assert!((spearman(&x_t, &y_t) - base).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_symmetric_unit_diagonal() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [2.0, 1.0, 4.0, 3.0, 6.0];
        let c = [5.0, 4.0, 3.0, 2.0, 1.0];
        let m = spearman_matrix(&[&a, &b, &c]);
        assert_eq!(m.len(), 3);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 1.0);
            for (j, &v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-15);
            }
        }
        assert!((m[0][2] + 1.0).abs() < 1e-12); // a vs c perfectly reversed
        assert!((m[0][1] - spearman(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix() {
        assert!(spearman_matrix(&[]).is_empty());
    }
}
