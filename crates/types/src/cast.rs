//! Checked numeric conversions for the workspace's documented 64-bit
//! target policy (`usize`/`isize` are 64 bits wide).
//!
//! `crates/sim` and `crates/ml` deny `clippy::as_conversions` outside
//! tests, because a bare `x as f64` silently truncates or rounds when
//! `x` outgrows the destination. These helpers hold the one `as` each
//! conversion needs, spell the source type in their signature, so the
//! conversion is auditable at the call site, and carry `debug_assert!`s
//! for every claim of losslessness.
//!
//! **Release behavior is bit-identical to the `as` cast each helper
//! wraps**: the asserts compile out of release builds, and the cast
//! itself is the same operation. Archive goldens and pinned predictions
//! are therefore unaffected by switching a call site to a helper.
//!
//! Conversions that are lossy *by design* (quantization, hashing,
//! sampling) should not use these helpers: keep the `as` cast and
//! justify it with `#[expect(clippy::as_conversions, reason = "…")]` on
//! the enclosing statement or function.

/// Largest integer magnitude an `f64` holds exactly (2^53).
pub const F64_EXACT_INT: u64 = 1 << 53;

/// Largest integer magnitude an `f32` holds exactly (2^24).
pub const F32_EXACT_INT: u32 = 1 << 24;

/// `u64` → `usize`, lossless under the 64-bit target policy.
#[inline]
pub fn usize_from_u64(x: u64) -> usize {
    debug_assert!(usize::try_from(x).is_ok(), "u64 {x} exceeds usize");
    x as usize
}

/// `u32` → `usize`, always lossless (usize is at least 32 bits here).
#[inline]
pub const fn usize_from_u32(x: u32) -> usize {
    x as usize
}

/// `usize` → `u64`, lossless under the 64-bit target policy.
#[inline]
pub const fn u64_from_usize(x: usize) -> u64 {
    x as u64
}

/// `usize` → `u32`; the caller asserts the value fits (drive counts,
/// day indices, and feature/bin indices all stay far below 2^32).
#[inline]
pub fn u32_from_usize(x: usize) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "usize {x} exceeds u32");
    x as u32
}

/// `u64` → `u32`; the caller asserts the value fits.
#[inline]
pub fn u32_from_u64(x: u64) -> u32 {
    debug_assert!(u32::try_from(x).is_ok(), "u64 {x} exceeds u32");
    x as u32
}

/// `usize` → `u16`; the caller asserts the value fits (packed tree and
/// kernel indices).
#[inline]
pub fn u16_from_usize(x: usize) -> u16 {
    debug_assert!(u16::try_from(x).is_ok(), "usize {x} exceeds u16");
    x as u16
}

/// `usize` → `u8`; the caller asserts the value fits (bin codes of
/// low-cardinality feature columns).
#[inline]
pub fn u8_from_usize(x: usize) -> u8 {
    debug_assert!(u8::try_from(x).is_ok(), "usize {x} exceeds u8");
    x as u8
}

/// `usize` → `f64`, exact while the value stays below 2^53 — true for
/// every row, drive, and bin count this workspace can hold in memory.
#[inline]
pub fn f64_from_usize(x: usize) -> f64 {
    debug_assert!((x as u64) < F64_EXACT_INT, "usize {x} rounds in f64");
    x as f64
}

/// `usize` → `f32`, exact while the value stays below 2^24 (day counts
/// and small indices used as features).
#[inline]
pub fn f32_from_usize(x: usize) -> f32 {
    debug_assert!((x as u64) < u64::from(F32_EXACT_INT), "usize {x} rounds in f32");
    x as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_round_trips() {
        assert_eq!(usize_from_u64(u64::from(u32::MAX)), 4_294_967_295);
        assert_eq!(usize_from_u32(u32::MAX), 4_294_967_295);
        assert_eq!(u64_from_usize(usize::MAX), u64::MAX);
        assert_eq!(u32_from_usize(4_294_967_295), u32::MAX);
        assert_eq!(u32_from_u64(7), 7);
        assert_eq!(u16_from_usize(65_535), u16::MAX);
        assert_eq!(u8_from_usize(255), u8::MAX);
    }

    #[test]
    fn float_conversions_are_exact_in_range() {
        assert_eq!(f64_from_usize((1 << 53) - 1) as u64, (1u64 << 53) - 1);
        assert_eq!(f32_from_usize(1 << 24 >> 1), 8_388_608.0);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    #[cfg(debug_assertions)]
    fn narrowing_overflow_is_caught_in_debug() {
        u32_from_usize(1 << 33);
    }

    #[test]
    #[should_panic(expected = "rounds in f32")]
    #[cfg(debug_assertions)]
    fn f32_rounding_is_caught_in_debug() {
        f32_from_usize((1 << 24) + 1);
    }
}
