//! Daily error emission, conditioned on latent drive state.
//!
//! The emission model encodes the paper's observed error structure:
//!
//! * Table 1 marginals: each error kind's fleet-wide day probability.
//! * Figure 10: only the error-prone subpopulation ever sees uncorrectable
//!   errors; failed drives are over-represented in it.
//! * Figure 11: symptomatic failures escalate sharply in the final days,
//!   with *young* (defective) drives emitting counts orders of magnitude
//!   higher than mature ones.
//! * Table 2: final read errors are generated from the same underlying
//!   events as uncorrectable errors (Spearman ≈ 0.97); erase errors scale
//!   with device wear (the only error with notable P/E correlation);
//!   response/timeout/meta/final-write errors co-occur on rare
//!   "controller glitch" days, producing their mutual mild correlations.

use crate::calibration::{self, ModelParams};
use crate::dist;
use crate::health::DriveTraits;
use ssd_stats::SplitMix64;
use ssd_types::cast::{u32_from_u64, usize_from_u32};
use ssd_types::{ErrorCounts, ErrorKind, PE_CYCLE_LIMIT};

/// Escalation context for a day close to a symptomatic failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Escalation {
    /// Days until the failure day (0 = the failure day itself).
    pub days_to_failure: u32,
    /// Whether the upcoming failure is an infant (defect) failure.
    pub infant: bool,
}

/// Per-day error state passed to the emitter.
#[derive(Debug, Clone, Copy)]
pub struct ErrorContext {
    /// Drive age in days (the UE age ramp; see
    /// [`calibration::UE_AGE_RAMP_BASE`]).
    pub age_days: u32,
    /// Cumulative P/E cycles at the start of the day (wear).
    pub pe_cycles: u32,
    /// Escalation window info if the drive is within
    /// [`calibration::ESCALATION_WINDOW_DAYS`] of a symptomatic failure.
    pub escalation: Option<Escalation>,
    /// The drive carries a *symptomatic manufacturing defect*: it is headed
    /// for an infant failure and emits elevated errors over its whole
    /// (short) life, not just the final week.
    pub defect_symptomatic: bool,
    /// Days until the next failure (any kind), when within the escalation
    /// window. Even "silent" failures retire a few blocks via erase
    /// failures at the end — this calibrates the paper's 26% of failures
    /// with *no* symptoms at all (Section 4.2) without touching the
    /// uncorrectable-error statistics of Figures 10–11.
    pub pre_failure_days: Option<u32>,
}

/// Emits one day's error counts and the number of *grown-bad-block*
/// increments implied by them.
pub fn sample_day(
    params: &ModelParams,
    traits: &DriveTraits,
    ctx: &ErrorContext,
    rng: &mut SplitMix64,
) -> (ErrorCounts, u32) {
    let mut errors = ErrorCounts::zero();
    let mut grown_blocks = 0u32;

    // --- Correctable errors: most days, large bit counts (Table 1). ---
    if dist::bernoulli(rng, params.error_prob(ErrorKind::Correctable)) {
        let mut bits = dist::log_normal(rng, (2.0e4f64).ln(), 2.0);
        // Correctable-error volume escalates ahead of symptomatic
        // failures: the paper's mature-failure model ranks the daily
        // correctable-error count among its top features (Figure 16).
        if let Some(esc) = ctx.escalation {
            let closeness = f64::from(
                calibration::ESCALATION_WINDOW_DAYS.saturating_sub(esc.days_to_failure),
            );
            bits *= 1.0 + 4.0 * closeness;
        }
        #[expect(
            clippy::as_conversions,
            reason = "clamped log-normal sample quantized to an error count"
        )]
        errors.set(ErrorKind::Correctable, bits.min(1e12) as u64 + 1);
    }

    // --- Uncorrectable errors (and coupled final read errors). ---
    let ue_prob = match ctx.escalation {
        // Defective infants escalate harder than mature drives (Figure 11
        // top: the young curve sits above the old one).
        Some(esc) if esc.infant => {
            (escalation_ue_prob(esc) * 2.0).max(calibration::DEFECT_UE_DAY_PROB)
        }
        Some(esc) => escalation_ue_prob(esc),
        None if ctx.defect_symptomatic => {
            calibration::DEFECT_UE_DAY_PROB.max(traits.ue_day_prob)
        }
        None => {
            // Age-ramped baseline incidence (Table 2: age-UE Spearman 0.36).
            let ramp = calibration::UE_AGE_RAMP_BASE
                + calibration::UE_AGE_RAMP_SLOPE * f64::from(ctx.age_days);
            (traits.ue_day_prob * ramp / calibration::UE_AGE_RAMP_MEAN).min(0.25)
        }
    };
    if ue_prob > 0.0 && dist::bernoulli(rng, ue_prob) {
        #[expect(
            clippy::as_conversions,
            reason = "clamped log-normal sample quantized to an error count"
        )]
        let count = match ctx.escalation {
            Some(esc) => escalation_ue_count(esc, rng),
            None if ctx.defect_symptomatic => {
                // Persistently high counts across the defective drive's
                // short life (Figure 10's heavy young tail).
                dist::log_normal(rng, (500.0f64).ln(), 2.0).ceil().min(1e12) as u64
            }
            None => dist::log_normal(rng, 2.0f64.ln(), 1.0).ceil().max(1.0) as u64,
        };
        errors.set(ErrorKind::Uncorrectable, count);
        // Final read errors are "essentially the same event" (Table 2
        // discussion, Spearman 0.97): a thinned copy of the UE process.
        if dist::bernoulli(rng, 0.45) {
            #[expect(
                clippy::as_conversions,
                reason = "thinning an integer count through a float ratio is lossy on purpose"
            )]
            let fr = ((count as f64) * 0.30).ceil().max(1.0) as u64;
            errors.set(ErrorKind::FinalRead, fr);
        }
        // Uncorrectable errors retire blocks (Section 2: a block is marked
        // bad when a non-transparent error occurs in it).
        grown_blocks += u32_from_u64(dist::poisson(rng, 0.4));
        if let Some(esc) = ctx.escalation {
            // Symptomatic pre-failure days grow blocks aggressively,
            // more so for defective infants (Figure 10 tails).
            let lambda = if esc.infant { 6.0 } else { 2.0 };
            grown_blocks += u32_from_u64(dist::poisson(rng, lambda));
        } else if ctx.defect_symptomatic {
            grown_blocks += u32_from_u64(dist::poisson(rng, 3.0));
        }
    }
    // Small independent final-read remainder to top up the Table 1
    // marginal beyond the UE-coupled part. Like UEs, these concentrate in
    // the error-prone subpopulation — spreading them uniformly would
    // destroy the near-unit UE↔final-read rank correlation of Table 2.
    let fr_independent = (params.error_prob(ErrorKind::FinalRead)
        - 0.45 * params.error_prob(ErrorKind::Uncorrectable))
    .max(0.0);
    if traits.error_prone
        && dist::bernoulli(
            rng,
            (fr_independent / calibration::ERROR_PRONE_FRACTION).min(1.0),
        )
    {
        errors.add_count(ErrorKind::FinalRead, 1 + dist::geometric(rng, 0.6));
    }

    // --- Erase errors: the one wear-coupled error type (Table 2). ---
    // Day probability scales linearly with wear, normalized so the fleet
    // marginal stays at the calibrated base (mean P/E ≈ 1250 → factor
    // 0.3 + 0.7·(1250/3000) ≈ 0.59; divide base by it).
    let wear = f64::from(ctx.pe_cycles) / f64::from(PE_CYCLE_LIMIT);
    let erase_prob = params.error_prob(ErrorKind::Erase) / 0.59
        * (0.3 + 0.7 * wear)
        * traits.erase_err_factor;
    if dist::bernoulli(rng, erase_prob.min(0.5)) {
        errors.set(ErrorKind::Erase, 1 + dist::geometric(rng, 0.5));
        grown_blocks += u32_from_u64(dist::poisson(rng, 0.5));
    }
    // Dying drives retire blocks via the firmware's background media
    // scans — visible as grown-bad-block increments without any
    // host-visible error count. Calibrated so ≈ half of otherwise
    // symptomless failures develop a few bad blocks in their final week,
    // landing the paper's 26% fully-symptomless failures (Section 4.2)
    // and making the cumulative bad-block count an informative feature,
    // as in Figure 16.
    if ctx.pre_failure_days.is_some() {
        grown_blocks += u32_from_u64(dist::poisson(rng, 0.1));
    }

    // --- Transparent retry errors: read / write (Table 1 marginals,
    // concentrated per drive by the proneness factors). ---
    let read_prob = (params.error_prob(ErrorKind::Read) * traits.read_err_factor).min(0.5);
    if dist::bernoulli(rng, read_prob) {
        errors.set(ErrorKind::Read, 1 + dist::geometric(rng, 0.5));
    }
    let write_prob = (params.error_prob(ErrorKind::Write) * traits.write_err_factor).min(0.5);
    if dist::bernoulli(rng, write_prob) {
        errors.set(ErrorKind::Write, 1 + dist::geometric(rng, 0.5));
    }

    // --- Controller glitch days: co-occurring rare errors. ---
    // A single latent event explains the positive correlations among
    // timeout/response/final-write/meta errors (Table 2: timeout–response
    // 0.53, timeout–final-write 0.44, meta–final-write 0.35).
    let glitch_prob = (3.0e-5 * traits.glitch_factor).min(0.1);
    if dist::bernoulli(rng, glitch_prob) {
        if dist::bernoulli(rng, 0.25) {
            errors.add_count(ErrorKind::Timeout, 1 + dist::geometric(rng, 0.7));
        }
        if dist::bernoulli(rng, 0.08) {
            errors.add_count(ErrorKind::Response, 1);
        }
        if dist::bernoulli(rng, 0.45) {
            errors.add_count(ErrorKind::FinalWrite, 1 + dist::geometric(rng, 0.7));
        }
        if dist::bernoulli(rng, 0.35) {
            errors.add_count(ErrorKind::Meta, 1);
        }
    }
    // Independent remainders for the very rare kinds, keeping Table 1
    // marginals: p_indep ≈ p_base − p_glitch·p_within.
    for (kind, within) in [
        (ErrorKind::Timeout, 0.25),
        (ErrorKind::Response, 0.08),
        (ErrorKind::FinalWrite, 0.45),
        (ErrorKind::Meta, 0.35),
    ] {
        let p = ((params.error_prob(kind) - 3.0e-5 * within).max(0.0)
            * traits.glitch_factor)
            .min(0.1);
        if dist::bernoulli(rng, p) {
            errors.add_count(kind, 1);
        }
    }

    (errors, grown_blocks)
}

/// Escalating UE-day probability as a symptomatic failure approaches
/// (see [`calibration::ESCALATION_UE_PROB`]).
fn escalation_ue_prob(esc: Escalation) -> f64 {
    let idx = usize_from_u32(esc.days_to_failure).min(calibration::ESCALATION_UE_PROB.len() - 1);
    calibration::ESCALATION_UE_PROB[idx]
}

/// Escalating UE counts: grow as the failure approaches; infant (defect)
/// failures emit roughly two orders of magnitude more (Figure 11 bottom:
/// the young 95th percentile reaches 10⁶–10⁷).
#[expect(
    clippy::as_conversions,
    reason = "clamped log-normal sample quantized to an error count"
)]
fn escalation_ue_count(esc: Escalation, rng: &mut SplitMix64) -> u64 {
    let closeness =
        f64::from(calibration::ESCALATION_WINDOW_DAYS.saturating_sub(esc.days_to_failure));
    let mut mu = (50.0f64).ln() + 0.7 * closeness;
    if esc.infant {
        mu += (100.0f64).ln();
    }
    dist::log_normal(rng, mu, 1.5).ceil().clamp(1.0, 1e12) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_types::DriveModel;

    fn setup() -> (ModelParams, DriveTraits) {
        let p = ModelParams::for_model(DriveModel::MlcB);
        let mut rng = SplitMix64::new(1);
        // Force an error-prone drive for the UE tests.
        let mut t = DriveTraits::sample(&p, &mut rng);
        t.error_prone = true;
        t.ue_day_prob = 0.011;
        (p, t)
    }

    fn quiet_ctx() -> ErrorContext {
        ErrorContext {
            age_days: 1000,
            pe_cycles: 500,
            escalation: None,
            defect_symptomatic: false,
            pre_failure_days: None,
        }
    }

    #[test]
    fn correctable_errors_hit_table1_marginal() {
        let (p, t) = setup();
        let mut rng = SplitMix64::new(2);
        let n = 50_000;
        let days_with = (0..n)
            .filter(|_| {
                let (e, _) = sample_day(&p, &t, &quiet_ctx(), &mut rng);
                e.get(ErrorKind::Correctable) > 0
            })
            .count();
        let frac = days_with as f64 / n as f64;
        assert!(
            (frac - 0.776308).abs() < 0.01,
            "correctable day fraction {frac}"
        );
    }

    #[test]
    fn non_prone_drives_see_no_ues_outside_escalation() {
        let (p, mut t) = setup();
        t.error_prone = false;
        t.ue_day_prob = 0.0;
        let mut rng = SplitMix64::new(3);
        for _ in 0..20_000 {
            let (e, _) = sample_day(&p, &t, &quiet_ctx(), &mut rng);
            assert_eq!(e.get(ErrorKind::Uncorrectable), 0);
        }
    }

    #[test]
    fn escalation_raises_ue_probability_toward_failure() {
        let far = escalation_ue_prob(Escalation {
            days_to_failure: 6,
            infant: false,
        });
        let near = escalation_ue_prob(Escalation {
            days_to_failure: 0,
            infant: false,
        });
        assert!(near > far, "near {near} far {far}");
        assert!((0.1..=0.3).contains(&near));
    }

    #[test]
    fn infant_escalation_counts_dwarf_mature_ones() {
        let mut rng = SplitMix64::new(4);
        let n = 2000;
        let mean = |infant: bool, rng: &mut SplitMix64| -> f64 {
            (0..n)
                .map(|_| {
                    escalation_ue_count(
                        Escalation {
                            days_to_failure: 0,
                            infant,
                        },
                        rng,
                    ) as f64
                })
                .map(|v| v.ln())
                .sum::<f64>()
                / n as f64
        };
        let young = mean(true, &mut rng);
        let old = mean(false, &mut rng);
        // ~2 orders of magnitude in log space (ln 100 ≈ 4.6).
        assert!(young - old > 3.5, "young {young} old {old}");
    }

    #[test]
    fn final_read_errors_co_occur_with_ues() {
        let (p, t) = setup();
        let mut rng = SplitMix64::new(5);
        let mut ue_days = 0u32;
        let mut fr_given_ue = 0u32;
        for _ in 0..400_000 {
            let (e, _) = sample_day(&p, &t, &quiet_ctx(), &mut rng);
            if e.get(ErrorKind::Uncorrectable) > 0 {
                ue_days += 1;
                if e.get(ErrorKind::FinalRead) > 0 {
                    fr_given_ue += 1;
                }
            }
        }
        assert!(ue_days > 1000);
        let frac = f64::from(fr_given_ue) / f64::from(ue_days);
        assert!((frac - 0.45).abs() < 0.05, "P(FR | UE) = {frac}");
    }

    #[test]
    fn erase_errors_scale_with_wear() {
        let (p, t) = setup();
        let mut rng = SplitMix64::new(6);
        let count_at = |pe: u32, rng: &mut SplitMix64| {
            (0..200_000)
                .filter(|_| {
                    let ctx = ErrorContext {
                        age_days: 1000,
                        pe_cycles: pe,
                        escalation: None,
                        defect_symptomatic: false,
                        pre_failure_days: None,
                    };
                    let (e, _) = sample_day(&p, &t, &ctx, rng);
                    e.get(ErrorKind::Erase) > 0
                })
                .count()
        };
        let low = count_at(0, &mut rng);
        let high = count_at(3000, &mut rng);
        assert!(
            high as f64 > 2.0 * low as f64,
            "wear scaling: low {low} high {high}"
        );
    }

    #[test]
    fn grown_blocks_only_from_error_events() {
        let (p, mut t) = setup();
        t.error_prone = false;
        t.ue_day_prob = 0.0;
        let mut rng = SplitMix64::new(7);
        let mut total_blocks = 0u32;
        let mut error_days = 0u32;
        for _ in 0..100_000 {
            let (e, g) = sample_day(&p, &t, &quiet_ctx(), &mut rng);
            if g > 0 {
                total_blocks += g;
                // Block growth requires a UE or erase-error event.
                assert!(
                    e.get(ErrorKind::Erase) > 0 || e.get(ErrorKind::Uncorrectable) > 0,
                    "grown blocks without a causing error"
                );
                error_days += 1;
            }
        }
        assert!(error_days > 0, "expected some erase-error block growth");
        assert!(total_blocks >= error_days);
    }
}
