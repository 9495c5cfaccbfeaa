//! Dense per-day error counters.

use crate::error_kind::ErrorKind;
use std::ops::{Add, AddAssign, Index, IndexMut};

/// Per-day counts for each of the ten error types, stored densely and
/// indexed by [`ErrorKind`].
///
/// Counts are `u64`: correctable-error counts in particular can be very
/// large (they count corrected *bits*), and cumulative sums over a six-year
/// lifetime overflow `u32` easily.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorCounts(pub [u64; ErrorKind::COUNT]);

// Serialized transparently, as the bare array of ten counts.
impl crate::json::ToJson for ErrorCounts {
    fn to_json(&self) -> crate::json::Value {
        crate::json::ToJson::to_json(&self.0)
    }
}

impl crate::json::FromJson for ErrorCounts {
    fn from_json(v: &crate::json::Value) -> Result<Self, crate::json::JsonError> {
        <[u64; ErrorKind::COUNT]>::from_json(v).map(ErrorCounts)
    }
}

impl ErrorCounts {
    /// All-zero counters.
    #[inline]
    pub fn zero() -> Self {
        Self::default()
    }

    /// Returns the count for one error kind.
    #[inline]
    pub fn get(&self, kind: ErrorKind) -> u64 {
        self.0[kind.index()]
    }

    /// Sets the count for one error kind.
    #[inline]
    pub fn set(&mut self, kind: ErrorKind, value: u64) {
        self.0[kind.index()] = value;
    }

    /// Adds `value` to the count for one error kind.
    #[inline]
    pub fn add_count(&mut self, kind: ErrorKind, value: u64) {
        self.0[kind.index()] += value;
    }

    /// Total count across all error kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Total count across non-transparent error kinds only.
    pub fn total_non_transparent(&self) -> u64 {
        ErrorKind::non_transparent().map(|k| self.get(k)).sum()
    }

    /// Iterate over `(kind, count)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ErrorKind, u64)> + '_ {
        ErrorKind::ALL.into_iter().map(move |k| (k, self.get(k)))
    }

    /// Element-wise saturating sum of two counters.
    pub fn saturating_add(&self, other: &Self) -> Self {
        let mut out = [0u64; ErrorKind::COUNT];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].saturating_add(other.0[i]);
        }
        ErrorCounts(out)
    }
}

impl Index<ErrorKind> for ErrorCounts {
    type Output = u64;
    #[inline]
    fn index(&self, kind: ErrorKind) -> &u64 {
        &self.0[kind.index()]
    }
}

impl IndexMut<ErrorKind> for ErrorCounts {
    #[inline]
    fn index_mut(&mut self, kind: ErrorKind) -> &mut u64 {
        &mut self.0[kind.index()]
    }
}

impl Add for ErrorCounts {
    type Output = ErrorCounts;
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        out += rhs;
        out
    }
}

impl AddAssign for ErrorCounts {
    fn add_assign(&mut self, rhs: Self) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_add_roundtrip() {
        let mut c = ErrorCounts::zero();
        assert_eq!(c.total(), 0);
        c.set(ErrorKind::Uncorrectable, 5);
        c.add_count(ErrorKind::Uncorrectable, 2);
        assert_eq!(c.get(ErrorKind::Uncorrectable), 7);
        assert_eq!(c[ErrorKind::Uncorrectable], 7);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn non_transparent_totals() {
        let mut c = ErrorCounts::zero();
        c.set(ErrorKind::Correctable, 100); // transparent
        c.set(ErrorKind::FinalRead, 3); // non-transparent
        c.set(ErrorKind::Timeout, 1); // non-transparent
        assert_eq!(c.total(), 104);
        assert_eq!(c.total_non_transparent(), 4);
    }

    #[test]
    fn addition_is_elementwise() {
        let mut a = ErrorCounts::zero();
        a.set(ErrorKind::Read, 1);
        let mut b = ErrorCounts::zero();
        b.set(ErrorKind::Read, 2);
        b.set(ErrorKind::Erase, 5);
        let c = a + b;
        assert_eq!(c.get(ErrorKind::Read), 3);
        assert_eq!(c.get(ErrorKind::Erase), 5);
        a += b;
        assert_eq!(a, c);
    }

    #[test]
    fn saturating_add_does_not_wrap() {
        let mut a = ErrorCounts::zero();
        a.set(ErrorKind::Meta, u64::MAX - 1);
        let mut b = ErrorCounts::zero();
        b.set(ErrorKind::Meta, 10);
        assert_eq!(a.saturating_add(&b).get(ErrorKind::Meta), u64::MAX);
    }

    #[test]
    fn iter_yields_all_kinds_in_order() {
        let c = ErrorCounts::zero();
        let kinds: Vec<_> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds.as_slice(), &ErrorKind::ALL);
    }
}
