//! Deterministic property-testing harness.
//!
//! In-tree substrate for the `proptest` surface this workspace used: a
//! seeded value generator ([`Gen`]) plus a [`for_each_case`] runner that
//! executes a property over many generated cases and, on failure, reports
//! the case index and the exact seed that reproduces it.
//!
//! Unlike proptest there is no shrinking and no persistence file: cases are
//! derived from a fixed per-property seed (hashed from the property name),
//! so every run — local or CI — exercises the identical inputs. A failing
//! case can be replayed directly with [`Gen::from_seed`].

#![deny(missing_docs)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// SplitMix64 PRNG step (public-domain constants; same generator the
/// simulator uses, duplicated here so the harness has zero dependencies).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of the property name, used as its base seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Seeded generator of arbitrary values, one per test case.
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Generator for an explicit seed — use this to replay a failing case
    /// reported by [`for_each_case`].
    pub fn from_seed(seed: u64) -> Self {
        Gen { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform in `[lo, hi)`. Panics if the range is empty.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Multiply-shift bounding (Lemire); bias is negligible for test data.
        lo + ((self.u64() as u128 * span as u128) >> 64) as u64
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(u64::from(lo), u64::from(hi)) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform in `[0, 1)` with 53-bit precision.
    pub fn f64_unit(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64_unit()
    }

    /// Fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// True with probability `p`.
    pub fn ratio(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// A vector of `len ∈ [min_len, max_len]` values drawn from `f`.
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len + 1);
        (0..len).map(|_| f(self)).collect()
    }

    /// `Some(f(g))` half the time, `None` the other half.
    pub fn option<T>(&mut self, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// Pick one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }
}

/// Outcome of a property body: either run to completion (possibly
/// panicking on a failed assertion) or discard the case, proptest's
/// `prop_assume!` semantics. Produced by [`assume!`].
pub enum CaseResult {
    /// The case ran (assertions inside have already panicked on failure).
    Ran,
    /// A precondition failed; the case does not count against the property.
    Discarded,
}

/// Early-return discard for preconditions, mirroring `prop_assume!`.
/// Usable only inside closures returning [`CaseResult`].
#[macro_export]
macro_rules! assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::CaseResult::Discarded;
        }
    };
}

fn base_seed(name: &str) -> u64 {
    // Mix the name hash once so consecutive-integer-like hashes spread out.
    let mut s = fnv1a(name);
    splitmix64(&mut s)
}

fn run<F: Fn(&mut Gen) -> CaseResult>(name: &str, cases: u64, property: F) {
    let base = base_seed(name);
    let mut executed = 0u64;
    let mut attempt = 0u64;
    // Cap total attempts so an over-restrictive precondition fails loudly
    // instead of looping forever (proptest's max_global_rejects analogue).
    let max_attempts = cases.saturating_mul(16).max(256);
    while executed < cases {
        assert!(
            attempt < max_attempts,
            "property {name:?} discarded too many cases ({attempt} attempts \
             for {executed}/{cases} executed); loosen its preconditions"
        );
        let case_seed = base ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        attempt += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            property(&mut Gen::from_seed(case_seed))
        }));
        match outcome {
            Ok(CaseResult::Ran) => executed += 1,
            Ok(CaseResult::Discarded) => {}
            Err(panic) => {
                eprintln!(
                    "property {name:?} failed at case {executed} \
                     (replay with Gen::from_seed({case_seed:#x}))"
                );
                resume_unwind(panic);
            }
        }
    }
}

/// Run `property` over `cases` deterministic generated cases.
///
/// The property asserts with ordinary `assert!`/`assert_eq!`; a panic fails
/// the surrounding test after printing the reproducing seed. For
/// preconditions use [`for_each_case_filtered`] with the [`assume!`] macro.
pub fn for_each_case(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    run(name, cases, |g| {
        property(g);
        CaseResult::Ran
    });
}

/// [`for_each_case`] for properties with preconditions: the body returns
/// [`CaseResult`], normally via the [`assume!`] macro followed by
/// `CaseResult::Ran`. Discarded cases are regenerated so `cases` real
/// executions always happen.
pub fn for_each_case_filtered(
    name: &str,
    cases: u64,
    property: impl Fn(&mut Gen) -> CaseResult,
) {
    run(name, cases, property);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = Gen::from_seed(42);
        let mut b = Gen::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::from_seed(7);
        for _ in 0..10_000 {
            let v = g.u64_in(10, 20);
            assert!((10..20).contains(&v));
            let f = g.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&f));
            let x = g.f64_unit();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn vec_lengths_span_bounds() {
        let mut g = Gen::from_seed(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(g.vec(0, 3, |g| g.bool()).len());
        }
        assert_eq!(seen, [0usize, 1, 2, 3].into_iter().collect());
    }

    #[test]
    fn cases_vary_and_runner_executes_all() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let count = AtomicU64::new(0);
        let values = std::sync::Mutex::new(Vec::new());
        for_each_case("meta_case_variation", 32, |g| {
            count.fetch_add(1, Ordering::Relaxed);
            values.lock().unwrap().push(g.u64());
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
        let vals = values.into_inner().unwrap();
        let distinct: std::collections::HashSet<_> = vals.iter().collect();
        assert!(distinct.len() > 30, "cases should differ");
    }

    #[test]
    fn discarded_cases_are_regenerated() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ran = AtomicU64::new(0);
        for_each_case_filtered("meta_assume", 16, |g| {
            let v = g.u64_in(0, 4);
            assume!(v != 0);
            assert!(v > 0);
            ran.fetch_add(1, Ordering::Relaxed);
            CaseResult::Ran
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn failing_property_panics() {
        let result = std::panic::catch_unwind(|| {
            for_each_case("meta_failing", 64, |g| {
                assert!(g.u64_in(0, 10) < 9, "deliberate failure");
            });
        });
        assert!(result.is_err());
    }
}
