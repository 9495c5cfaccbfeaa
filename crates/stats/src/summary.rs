//! Streaming summary statistics (Welford's online algorithm).

/// Numerically stable streaming summary: count, mean, variance, min, max.
///
/// Uses Welford's algorithm so that a six-year, 40M-row trace can be
/// summarized in one pass without catastrophic cancellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Builds a summary over a slice in one pass.
    pub fn of(values: &[f64]) -> Self {
        let mut s = Summary::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (Chan et al. parallel merge),
    /// so summaries of disjoint sample sets combine into the summary of
    /// their union.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean; NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n−1 denominator); NaN when fewer than 2 samples.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation; +∞ when empty.
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation; −∞ when empty.
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_and_single() {
        let e = Summary::new();
        assert!(e.mean().is_nan());
        assert!(e.variance().is_nan());
        let s = Summary::of(&[3.0]);
        assert_eq!(s.mean(), 3.0);
        assert!(s.variance().is_nan());
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let whole = Summary::of(&all);
        let mut a = Summary::of(&all[..313]);
        let b = Summary::of(&all[313..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = Summary::of(&[1.0, 2.0]);
        let snapshot = s;
        s.merge(&Summary::new());
        assert_eq!(s, snapshot);
        let mut e = Summary::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn stable_under_large_offsets() {
        // Classic catastrophic-cancellation test: variance of data with a
        // huge common offset.
        let base = 1e9;
        let s = Summary::of(&[base + 4.0, base + 7.0, base + 13.0, base + 16.0]);
        assert!((s.variance() - 30.0).abs() < 1e-6, "{}", s.variance());
    }
}
