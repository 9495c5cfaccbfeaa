//! Daily workload generation: read/write/erase operations and P/E wear.
//!
//! Figure 7 of the paper shows that daily write intensity is roughly flat
//! in drive age — except that *infant* drives see markedly **fewer** writes
//! (ruling out the burn-in hypothesis for infant mortality). The model
//! here reproduces exactly that: a drive-level log-normal intensity, daily
//! log-normal jitter, and a < 1 multiplier during the first three months.
//!
//! Wear (P/E accrual) is handled separately by [`WearModel`]: a
//! deterministic fixed-point rate per operational day, a pure function of
//! the drive's traits and age. Determinism is what lets the generator
//! advance wear over a skipped span with one closed-form sum
//! ([`WearModel::span`]) and land on exactly the integer a day-by-day
//! walk would have reached (pinned against the test oracle in
//! [`crate::drive`]).

use crate::calibration;
use crate::dist;
use crate::health::DriveTraits;
use ssd_stats::SplitMix64;
use ssd_types::cast::{u32_from_u64, usize_from_u32};

/// One day's workload counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DayWorkload {
    /// Read operations served.
    pub read_ops: u64,
    /// Write operations served.
    pub write_ops: u64,
    /// Erase operations performed.
    pub erase_ops: u64,
}

/// Age-dependent write-intensity multiplier: reduced during the infancy
/// window, ramping to 1.0 over the fourth month (Figure 7).
pub fn age_multiplier(age_days: u32) -> f64 {
    let infancy = calibration::INFANCY_DAYS;
    if age_days < infancy {
        calibration::INFANT_WRITE_MULT
    } else if age_days < infancy + 30 {
        // Linear ramp from the infant multiplier to full intensity.
        let t = f64::from(age_days - infancy) / 30.0;
        calibration::INFANT_WRITE_MULT + t * (1.0 - calibration::INFANT_WRITE_MULT)
    } else {
        1.0
    }
}

/// Samples one operational day's workload for a drive of the given age.
pub fn sample_day(traits: &DriveTraits, age_days: u32, rng: &mut SplitMix64) -> DayWorkload {
    let jitter = dist::log_normal(rng, 0.0, calibration::DAILY_WRITE_SIGMA);
    let write_ops = (calibration::MEDIAN_DAILY_WRITES
        * traits.write_factor
        * age_multiplier(age_days)
        * jitter)
        .max(0.0);
    let read_jitter = dist::log_normal(rng, 0.0, 0.25);
    let read_ops = write_ops * traits.read_ratio * read_jitter;
    let erase_ops = write_ops / calibration::WRITES_PER_ERASE;
    DayWorkload {
        read_ops: to_ops(read_ops),
        write_ops: to_ops(write_ops),
        erase_ops: to_ops(erase_ops),
    }
}

#[inline]
#[expect(clippy::as_conversions, reason = "clamped float rate quantized to a whole op count")]
fn to_ops(x: f64) -> u64 {
    x.min(1e18).round().max(0.0) as u64
}

/// Fixed-point scale for wear accounting: rates are stored in units of
/// `2^-20` P/E cycles per day, so integer sums are exact and
/// order-independent.
pub const WEAR_SCALE_BITS: u32 = 20;

/// Length (days) of the infancy→mature write-intensity ramp.
const RAMP_DAYS: u32 = 30;

/// Deterministic per-drive wear: the median daily P/E accrual as a pure
/// function of age, in fixed point.
///
/// The rate at age `a` is
/// `round(2^20 · MEDIAN_DAILY_WRITES · write_factor · age_multiplier(a) /
/// WRITES_PER_PE_CYCLE)`: the drive-level intensity without daily jitter.
/// (The jittered *mean* would sit `e^{σ²/2} ≈ 13%` higher; the calibration
/// bands in `tests/calibration_acceptance.rs` — Figure 8's under-1500
/// fraction and Table 2's P/E↔age correlation — hold for the median-based
/// rate.) Because `age_multiplier` takes only 32 distinct values (infant,
/// 30 ramp days, mature), the cumulative wear over any age interval is a
/// three-segment closed form.
#[derive(Debug, Clone)]
pub struct WearModel {
    infant: u64,
    mature: u64,
    /// Prefix sums of the 30 ramp-day rates: `ramp_prefix[i]` is the wear
    /// of ramp days `0..i`.
    ramp_prefix: [u64; usize_from_u32(RAMP_DAYS) + 1],
}

impl WearModel {
    /// Builds the rate table for one drive's traits.
    pub fn new(traits: &DriveTraits) -> Self {
        let base = calibration::MEDIAN_DAILY_WRITES * traits.write_factor
            / calibration::WRITES_PER_PE_CYCLE;
        let scale = f64::from(1u32 << WEAR_SCALE_BITS);
        #[expect(
            clippy::as_conversions,
            reason = "fixed-point wear rate: rounding to scaled integer cycles is the encoding"
        )]
        let rate = |mult: f64| (base * mult * scale).round().clamp(0.0, 1e18) as u64;
        let mut ramp_prefix = [0u64; usize_from_u32(RAMP_DAYS) + 1];
        for i in 0..RAMP_DAYS {
            let mult = age_multiplier(calibration::INFANCY_DAYS + i);
            ramp_prefix[usize_from_u32(i) + 1] = ramp_prefix[usize_from_u32(i)] + rate(mult);
        }
        WearModel {
            infant: rate(calibration::INFANT_WRITE_MULT),
            mature: rate(1.0),
            ramp_prefix,
        }
    }

    /// Fixed-point wear accrued on one operational day at `age` — the
    /// per-day term [`span`](WearModel::span) sums; used by the test
    /// oracles only.
    #[cfg(test)]
    pub(crate) fn rate(&self, age: u32) -> u64 {
        let infancy = calibration::INFANCY_DAYS;
        if age < infancy {
            self.infant
        } else if age < infancy + RAMP_DAYS {
            let i = usize_from_u32(age - infancy);
            self.ramp_prefix[i + 1] - self.ramp_prefix[i]
        } else {
            self.mature
        }
    }

    /// Total fixed-point wear over the operational ages `[from, to)` —
    /// exactly `Σ rate(a)`, evaluated in O(1).
    pub fn span(&self, from: u32, to: u32) -> u64 {
        if to <= from {
            return 0;
        }
        let infancy = calibration::INFANCY_DAYS;
        let ramp_end = infancy + RAMP_DAYS;
        let infant_days = u64::from(to.min(infancy).saturating_sub(from.min(infancy)));
        let lo = usize_from_u32(from.clamp(infancy, ramp_end) - infancy);
        let hi = usize_from_u32(to.clamp(infancy, ramp_end) - infancy);
        let mature_days = u64::from(to.max(ramp_end) - from.max(ramp_end));
        self.infant * infant_days + (self.ramp_prefix[hi] - self.ramp_prefix[lo])
            + self.mature * mature_days
    }

    /// Whole P/E cycles represented by a fixed-point wear accumulator.
    pub fn cycles(wear: u64) -> u32 {
        u32_from_u64((wear >> WEAR_SCALE_BITS).min(u64::from(u32::MAX)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ModelParams;
    use ssd_types::DriveModel;

    fn traits(seed: u64) -> DriveTraits {
        let p = ModelParams::for_model(DriveModel::MlcA);
        let mut rng = SplitMix64::for_stream(seed, 0);
        DriveTraits::sample(&p, &mut rng)
    }

    #[test]
    fn age_multiplier_shape() {
        assert_eq!(age_multiplier(0), calibration::INFANT_WRITE_MULT);
        assert_eq!(age_multiplier(89), calibration::INFANT_WRITE_MULT);
        assert!(age_multiplier(105) > calibration::INFANT_WRITE_MULT);
        assert!(age_multiplier(105) < 1.0);
        assert_eq!(age_multiplier(120), 1.0);
        assert_eq!(age_multiplier(2000), 1.0);
    }

    #[test]
    fn infant_days_have_fewer_writes_in_expectation() {
        let t = traits(1);
        let mut rng = SplitMix64::new(10);
        let n = 4000;
        let young: f64 = (0..n)
            .map(|_| sample_day(&t, 30, &mut rng).write_ops as f64)
            .sum::<f64>()
            / n as f64;
        let old: f64 = (0..n)
            .map(|_| sample_day(&t, 400, &mut rng).write_ops as f64)
            .sum::<f64>()
            / n as f64;
        assert!(
            young < 0.75 * old,
            "young mean {young} should be well below old mean {old}"
        );
    }

    #[test]
    fn wear_span_equals_per_day_sum() {
        let w = WearModel::new(&traits(2));
        // Across every boundary of the piecewise rate.
        for (from, to) in [(0, 90), (80, 130), (90, 120), (0, 500), (117, 118), (300, 300)] {
            let daily: u64 = (from..to).map(|a| w.rate(a)).sum();
            assert_eq!(w.span(from, to), daily, "span [{from}, {to})");
        }
        assert!(w.rate(30) < w.rate(100));
        assert!(w.rate(100) < w.rate(500));
    }

    #[test]
    fn median_daily_pe_rate_is_sub_unity() {
        // The fleet-median P/E accrual must keep six-year totals well under
        // the 3000-cycle limit (Figure 8: most failures < 1500 cycles).
        let mut rates: Vec<f64> = (0..300)
            .map(|seed| {
                let w = WearModel::new(&traits(seed));
                w.rate(1000) as f64 / f64::from(1u32 << WEAR_SCALE_BITS)
            })
            .collect();
        rates.sort_by(|a, b| a.total_cmp(b));
        let median = rates[rates.len() / 2];
        assert!(median < 1.0, "median daily P/E rate {median}");
        assert!(median > 0.2, "median daily P/E rate {median}");
    }
}
