//! Minimal deterministic PRNG (SplitMix64).
//!
//! SplitMix64 (Steele, Lea & Flood, OOPSLA '14) passes BigCrush, needs only
//! a single `u64` of state, and — crucially for this workspace — makes
//! *hierarchical seeding* trivial: hashing `(master_seed, stream_id)`
//! through one SplitMix64 step yields independent streams, which is how the
//! fleet simulator gives every drive its own reproducible randomness
//! independent of generation order or thread count.

/// SplitMix64 generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent stream for `(seed, stream)` pairs.
    ///
    /// The pair is mixed through two SplitMix64 steps so that nearby stream
    /// ids (0, 1, 2, …) do not produce correlated initial states.
    #[expect(
        clippy::disallowed_methods,
        reason = "the substream derivation itself: the raw constructor is its mixing step"
    )]
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut base = SplitMix64::new(seed);
        let a = base.next_u64();
        let mut mix = SplitMix64::new(a ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        SplitMix64::new(mix.next_u64())
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only retry when low < bound and below threshold.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_values_for_seed_zero() {
        // Reference values from the canonical SplitMix64 implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(r.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn streams_differ() {
        let mut s0 = SplitMix64::for_stream(7, 0);
        let mut s1 = SplitMix64::for_stream(7, 1);
        let x: Vec<u64> = (0..8).map(|_| s0.next_u64()).collect();
        let y: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        assert_ne!(x, y);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(123);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn f64_mean_is_near_half() {
        let mut r = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bounded_is_in_range_and_covers() {
        let mut r = SplitMix64::new(5);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_bounded(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
