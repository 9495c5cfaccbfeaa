//! Quantiles with linear interpolation (R type-7, the numpy default).

/// Computes the `q`-quantile (`0 ≤ q ≤ 1`) of a **sorted** slice using
/// linear interpolation between order statistics (R type-7).
///
/// Returns NaN for an empty slice. Panics if `q` is outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Computes the `q`-quantile of an unsorted slice (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&v, q)
}

/// First quartile, median, third quartile of an unsorted slice — the
/// shaded-band statistics of Figure 7.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (
        quantile_sorted(&v, 0.25),
        quantile_sorted(&v, 0.50),
        quantile_sorted(&v, 0.75),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.5), 2.5);
    }

    #[test]
    fn extremes_are_min_and_max() {
        let v = [9.0, 4.0, 7.0, 1.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 9.0);
    }

    #[test]
    fn type7_interpolation_matches_numpy() {
        // numpy.percentile([1,2,3,4], 25) == 1.75
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0], 0.25) - 1.75).abs() < 1e-12);
        // numpy.percentile([15,20,35,40,50], 40) == 29.0
        assert!((quantile(&[15.0, 20.0, 35.0, 40.0, 50.0], 0.40) - 29.0).abs() < 1e-12);
    }

    #[test]
    fn quartiles_of_known_data() {
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn empty_is_nan_and_single_is_itself() {
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_fraction_panics() {
        quantile(&[1.0], 1.5);
    }
}
