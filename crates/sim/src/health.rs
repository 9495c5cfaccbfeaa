//! Latent drive state and lifecycle planning.
//!
//! Each drive draws immutable *traits* at birth (defect class, error
//! proneness, workload intensity), then a [`LifecyclePlan`] is sampled:
//! the full sequence of operational periods, failures, swap days, and
//! repair re-entries over the observation horizon. Day-by-day log emission
//! (in [`crate::drive`]) is conditioned on this plan.
//!
//! The three-stage failure timeline of the paper's Figure 2 is explicit
//! here: failure (last active day) → optional reported-inactive period →
//! optional silent period → swap → repair → optional re-entry.

use crate::calibration::{
    self, infant_age_cdf, inactivity_cdf, non_operational_cdf, ModelParams,
};
use crate::dist;
use ssd_stats::SplitMix64;
use ssd_types::cast::u32_from_u64;

/// Quantizes a continuous duration sample to a whole day count of at
/// least one day, matching the paper's day-granular timelines.
#[expect(
    clippy::as_conversions,
    reason = "ceil-clamped sample: fractional days do not exist in the trace"
)]
fn days_from_sample(x: f64) -> u32 {
    x.ceil().max(1.0) as u32
}

/// Immutable per-drive latent traits, drawn once at birth.
#[derive(Debug, Clone)]
pub struct DriveTraits {
    /// Drive is in the error-prone subpopulation (sees non-transparent
    /// errors during normal operation; elevated mature hazard).
    pub error_prone: bool,
    /// Drive-level daily probability of an uncorrectable-error day
    /// (zero for non-prone drives).
    pub ue_day_prob: f64,
    /// Drive-level write-intensity multiplier (log-normal heterogeneity).
    pub write_factor: f64,
    /// Drive-level read:write ratio.
    pub read_ratio: f64,
    /// Factory bad blocks present at purchase.
    pub factory_bad_blocks: u32,
    /// Drive-level multiplier on read-retry-error incidence. Rare errors
    /// cluster heavily per drive in the field — that clustering is what
    /// makes them predictable from their own history (Table 8: read-error
    /// prediction reaches AUC 0.971). Mean 1 across the fleet so Table 1
    /// marginals are preserved.
    pub read_err_factor: f64,
    /// Drive-level multiplier on write-retry-error incidence (mean 1).
    pub write_err_factor: f64,
    /// Drive-level multiplier on erase-error incidence (mean 1).
    pub erase_err_factor: f64,
    /// Drive-level multiplier on controller-glitch incidence
    /// (meta/response/timeout/final-write cluster; mean 1).
    pub glitch_factor: f64,
}

impl DriveTraits {
    /// Samples traits for one drive.
    pub fn sample(params: &ModelParams, rng: &mut SplitMix64) -> Self {
        let error_prone = dist::bernoulli(rng, calibration::ERROR_PRONE_FRACTION);
        // Prone drives' personal UE-day probability is log-normally
        // distributed; the 1.65 divisor (= e^{σ²/2} for σ = 1) makes the
        // *mean* day-probability across prone drives equal the Table 1
        // marginal divided by the prone fraction.
        let ue_day_prob = if error_prone {
            let base = params.error_prob(ssd_types::ErrorKind::Uncorrectable)
                / calibration::ERROR_PRONE_FRACTION;
            (base / 1.65 * dist::log_normal(rng, 0.0, 1.0)).min(0.20)
        } else {
            0.0
        };
        let write_factor = dist::log_normal(rng, 0.0, calibration::DRIVE_WRITE_SIGMA);
        let read_ratio =
            calibration::READ_WRITE_RATIO * dist::log_normal(rng, 0.0, 0.30);
        let factory_bad_blocks =
            u32_from_u64(dist::poisson(rng, calibration::FACTORY_BAD_BLOCK_MEAN));
        // Mean-1 log-normal proneness factors: LogNormal(−σ²/2, σ).
        let mean_one = |rng: &mut SplitMix64, sigma: f64| {
            dist::log_normal(rng, -sigma * sigma / 2.0, sigma)
        };
        DriveTraits {
            error_prone,
            ue_day_prob,
            write_factor,
            read_ratio,
            factory_bad_blocks,
            read_err_factor: mean_one(rng, calibration::READ_ERR_SIGMA),
            write_err_factor: mean_one(rng, calibration::WRITE_ERR_SIGMA),
            erase_err_factor: mean_one(rng, calibration::ERASE_ERR_SIGMA),
            glitch_factor: mean_one(rng, calibration::GLITCH_SIGMA),
        }
    }
}

/// One planned failure with its full swap/repair timeline (ages in days
/// since the drive's first day of operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFailure {
    /// Age of the drive's last day of operational activity — the paper's
    /// failure point (Section 3).
    pub fail_day: u32,
    /// Number of days after `fail_day` during which the drive still files
    /// reports but serves no reads/writes (the "soft removal"); 0 if none.
    pub inactive_days: u32,
    /// Age at which the physical swap occurs (`fail_day < swap_day`).
    pub swap_day: u32,
    /// Age at which the drive re-enters the field, if observed.
    pub reentry_day: Option<u32>,
    /// Whether the failure emits escalating errors beforehand (symptomatic)
    /// or strikes silently.
    pub symptomatic: bool,
    /// Whether this is an infant (manufacturing-defect) failure.
    pub infant: bool,
    /// Residual activity multiplier on the failure day itself (1.0 = the
    /// failure strikes at full workload; < 1.0 = the scheduler drained the
    /// drive in its final days). Failure-day activity decline is the
    /// signal behind read/write counts ranking high in the paper's
    /// mature-failure feature importances (Figure 16), but it is *not*
    /// universal — "there is no single metric that triggers a drive
    /// failure" — so only some failures exhibit it.
    pub decline: f64,
}

/// A drive's complete planned lifecycle within the observation horizon.
#[derive(Debug, Clone)]
pub struct LifecyclePlan {
    /// Trace day on which the drive entered production.
    pub deploy_day: u32,
    /// Drive age (days) at the end of the observation horizon.
    pub horizon_age: u32,
    /// Every failure observed within the horizon, in chronological order.
    pub failures: Vec<PlannedFailure>,
    /// If the drive's last failure had an unobserved swap (the failure
    /// occurred but the swap falls beyond the horizon), the age of that
    /// terminal failure: the drive stops reporting, with no swap event.
    pub terminal_unswapped_failure: Option<u32>,
}

impl LifecyclePlan {
    /// Samples the deployment day for a drive (staggered fleet roll-out;
    /// see [`calibration::EARLY_DEPLOY_FRACTION`]).
    pub fn sample_deploy_day(rng: &mut SplitMix64) -> u32 {
        if dist::bernoulli(rng, calibration::EARLY_DEPLOY_FRACTION) {
            u32_from_u64(rng.next_bounded(u64::from(calibration::EARLY_DEPLOY_WINDOW_DAYS)))
        } else {
            calibration::EARLY_DEPLOY_WINDOW_DAYS
                + u32_from_u64(rng.next_bounded(u64::from(
                    calibration::LATE_DEPLOY_END_DAYS - calibration::EARLY_DEPLOY_WINDOW_DAYS,
                )))
        }
    }

    /// Samples a full lifecycle for a drive with the given traits.
    ///
    /// `horizon_days` is the trace length; the drive is observable for
    /// `horizon_days - deploy_day` days of age.
    pub fn sample(
        params: &ModelParams,
        traits: &DriveTraits,
        horizon_days: u32,
        rng: &mut SplitMix64,
    ) -> Self {
        Self::sample_weighted(params, traits, horizon_days, rng, 1.0).0
    }

    /// Samples a lifecycle with the first-period infant-failure
    /// probability boosted by `infant_boost` (importance sampling of the
    /// defective subpopulation), returning the plan together with its
    /// importance log-weight `ln(p(plan) / q(plan))`.
    ///
    /// Only the single first-period infant Bernoulli is reweighted: with
    /// target probability `p` and proposal `q = min(p·boost, 0.5)`, a
    /// boosted drive carries `ln(p/q)` (infant branch) or
    /// `ln((1−p)/(1−q))` (mature branch). For `infant_boost = 1.0` the
    /// draw sequence is identical to [`LifecyclePlan::sample`] and the
    /// log-weight is exactly `0.0`.
    pub fn sample_weighted(
        params: &ModelParams,
        traits: &DriveTraits,
        horizon_days: u32,
        rng: &mut SplitMix64,
        infant_boost: f64,
    ) -> (Self, f64) {
        let deploy_day = Self::sample_deploy_day(rng);
        let horizon_age = horizon_days.saturating_sub(deploy_day);
        let mut failures = Vec::new();
        let mut terminal_unswapped_failure = None;
        let mut log_weight = 0.0f64;

        let hazard = if traits.error_prone {
            params.mature_daily_hazard_prone()
        } else {
            params.mature_daily_hazard_base()
        };
        let p_infant = params.infant_failure_prob();
        let boosted = infant_boost > 1.0;
        let q_infant = if boosted {
            (p_infant * infant_boost).min(0.5)
        } else {
            p_infant
        };

        let mut period_start = 0u32;
        let mut first_period = true;
        loop {
            // --- When does this operational period end in failure? ---
            let infant_hit = first_period && {
                let hit = dist::bernoulli(rng, q_infant);
                // Uniform sampling has q == p, where both ratios are
                // exactly 1.0 and ln(1.0) adds an exact +0.0 — so the
                // skip leaves the weight bit-identical.
                if boosted {
                    log_weight += if hit {
                        (p_infant / q_infant).ln()
                    } else {
                        ((1.0 - p_infant) / (1.0 - q_infant)).ln()
                    };
                }
                hit
            };
            #[expect(
                clippy::as_conversions,
                reason = "offset is ceil-clamped to [1, 10*365*6] just above; truncation is exact"
            )]
            let (fail_day, infant) = if infant_hit {
                // Manufacturing defect: failure age drawn from the infant
                // CDF (Figure 6's spike in the first 90 days).
                let age = days_from_sample(infant_age_cdf().sample(rng));
                (age, true)
            } else {
                // Constant mature hazard; for the first period it applies
                // only beyond the 90-day infancy boundary (Figure 6's flat
                // dashed line after month 3).
                let offset = dist::exponential(rng, hazard).ceil().max(1.0);
                if offset > 10.0 * 365.0 * 6.0 {
                    // Far beyond any horizon; avoid u32 overflow below.
                    break;
                }
                let base = if first_period {
                    period_start + calibration::INFANCY_DAYS
                } else {
                    period_start
                };
                (base.saturating_add(offset as u32), false)
            };
            if fail_day >= horizon_age {
                break; // survives the observation window
            }

            // --- Symptomatic or silent failure? ---
            let symptomatic = if infant {
                dist::bernoulli(rng, calibration::DEFECT_SYMPTOMATIC_FRACTION)
            } else {
                // Mature failures escalate only on error-prone drives.
                traits.error_prone
            };

            // --- Non-operational period between failure and swap ---
            let non_op = days_from_sample(non_operational_cdf().sample(rng));
            let inactive_days = if dist::bernoulli(rng, calibration::INACTIVITY_BEFORE_SWAP_PROB)
            {
                let inact = days_from_sample(inactivity_cdf().sample(rng));
                // Leave at least the paper's 80%-frequent silent day when
                // the sampled inactivity would swallow the whole period.
                if dist::bernoulli(rng, calibration::SILENT_BEFORE_SWAP_PROB) {
                    inact.min(non_op.saturating_sub(1))
                } else {
                    inact.min(non_op)
                }
            } else {
                0
            };
            let swap_day = fail_day + non_op;
            if swap_day >= horizon_age {
                // Failure observed (drive goes quiet) but the swap itself is
                // censored by the horizon.
                terminal_unswapped_failure = Some(fail_day);
                break;
            }

            // --- Repair and possible re-entry ---
            let reentry_target =
                (params.reentry_prob * calibration::REENTRY_CENSOR_COMPENSATION).min(1.0);
            let reentry_day = if dist::bernoulli(rng, reentry_target) {
                let repair = days_from_sample(params.repair_cdf.sample(rng));
                let day = swap_day + repair;
                (day < horizon_age).then_some(day)
            } else {
                None
            };

            let decline = if dist::bernoulli(rng, calibration::DECLINE_BEFORE_FAILURE_PROB) {
                0.05 + 0.55 * rng.next_f64()
            } else {
                1.0
            };
            failures.push(PlannedFailure {
                fail_day,
                inactive_days,
                swap_day,
                reentry_day,
                symptomatic,
                infant,
                decline,
            });

            match reentry_day {
                Some(day) => {
                    period_start = day;
                    first_period = false;
                }
                None => break, // in repair (or retired) until the horizon
            }
        }

        (
            LifecyclePlan {
                deploy_day,
                horizon_age,
                failures,
                terminal_unswapped_failure,
            },
            log_weight,
        )
    }

    /// True if the drive is planned to fail at least once in the window
    /// (including a terminal failure whose swap is censored). Test-only
    /// helper for calibration checks.
    #[cfg(test)]
    pub fn ever_fails(&self) -> bool {
        !self.failures.is_empty() || self.terminal_unswapped_failure.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_types::DriveModel;

    fn params() -> ModelParams {
        ModelParams::for_model(DriveModel::MlcB)
    }

    fn plan_for_seed(seed: u64) -> (DriveTraits, LifecyclePlan) {
        let p = params();
        let mut rng = SplitMix64::for_stream(seed, 0);
        let traits = DriveTraits::sample(&p, &mut rng);
        let plan = LifecyclePlan::sample(&p, &traits, calibration::HORIZON_DAYS, &mut rng);
        (traits, plan)
    }

    #[test]
    fn plans_are_chronologically_consistent() {
        for seed in 0..500 {
            let (_, plan) = plan_for_seed(seed);
            let mut prev_end = 0u32;
            for f in &plan.failures {
                assert!(f.fail_day >= prev_end, "failure before previous re-entry");
                assert!(f.swap_day > f.fail_day, "swap must follow failure");
                assert!(
                    f.fail_day + f.inactive_days <= f.swap_day,
                    "inactive period must fit before the swap"
                );
                assert!(f.swap_day < plan.horizon_age);
                if let Some(re) = f.reentry_day {
                    assert!(re > f.swap_day);
                    assert!(re < plan.horizon_age);
                    prev_end = re;
                }
            }
            if let Some(t) = plan.terminal_unswapped_failure {
                assert!(t < plan.horizon_age);
            }
        }
    }

    #[test]
    fn failure_fraction_is_near_target() {
        let p = params();
        let n = 20_000;
        let mut failed = 0;
        for seed in 0..n {
            let mut rng = SplitMix64::for_stream(999, seed);
            let traits = DriveTraits::sample(&p, &mut rng);
            let plan =
                LifecyclePlan::sample(&p, &traits, calibration::HORIZON_DAYS, &mut rng);
            if plan.ever_fails() {
                failed += 1;
            }
        }
        let frac = failed as f64 / n as f64;
        // Target 14.3% for MLC-B; allow a band for horizon censoring.
        assert!(
            (frac - p.failed_fraction).abs() < 0.025,
            "failed fraction {frac} vs target {}",
            p.failed_fraction
        );
    }

    #[test]
    fn infant_failures_are_roughly_a_quarter() {
        let p = params();
        let mut infant = 0u32;
        let mut total = 0u32;
        for seed in 0..30_000 {
            let mut rng = SplitMix64::for_stream(7, seed);
            let traits = DriveTraits::sample(&p, &mut rng);
            let plan =
                LifecyclePlan::sample(&p, &traits, calibration::HORIZON_DAYS, &mut rng);
            for f in &plan.failures {
                total += 1;
                if f.infant {
                    infant += 1;
                    assert!(f.fail_day <= 90);
                }
            }
        }
        let share = f64::from(infant) / f64::from(total);
        assert!((share - 0.25).abs() < 0.05, "infant share {share}");
    }

    #[test]
    fn deploy_days_span_the_window() {
        let mut rng = SplitMix64::new(3);
        let days: Vec<u32> = (0..10_000)
            .map(|_| LifecyclePlan::sample_deploy_day(&mut rng))
            .collect();
        let early = days.iter().filter(|&&d| d < 730).count() as f64 / 10_000.0;
        assert!((early - calibration::EARLY_DEPLOY_FRACTION).abs() < 0.02);
        assert!(days.iter().all(|&d| d < calibration::LATE_DEPLOY_END_DAYS));
    }

    #[test]
    fn some_drives_fail_multiple_times() {
        let p = params();
        let mut multi = 0;
        for seed in 0..30_000 {
            let mut rng = SplitMix64::for_stream(11, seed);
            let traits = DriveTraits::sample(&p, &mut rng);
            let plan =
                LifecyclePlan::sample(&p, &traits, calibration::HORIZON_DAYS, &mut rng);
            if plan.failures.len() >= 2 {
                multi += 1;
            }
        }
        // Table 4: ~1.2% of drives fail 2+ times (for the whole fleet);
        // just assert the phenomenon exists without being common.
        assert!(multi > 10, "expected some repeat failures, got {multi}");
        assert!(multi < 1500, "repeat failures too common: {multi}");
    }

    #[test]
    fn traits_are_deterministic_per_stream() {
        let p = params();
        let mut r1 = SplitMix64::for_stream(42, 5);
        let mut r2 = SplitMix64::for_stream(42, 5);
        let t1 = DriveTraits::sample(&p, &mut r1);
        let t2 = DriveTraits::sample(&p, &mut r2);
        assert_eq!(t1.write_factor, t2.write_factor);
        assert_eq!(t1.ue_day_prob, t2.ue_day_prob);
        assert_eq!(t1.factory_bad_blocks, t2.factory_bad_blocks);
    }

    #[test]
    fn boost_one_matches_uniform_sampling_exactly() {
        let p = params();
        for seed in 0..200 {
            let mut r1 = SplitMix64::for_stream(21, seed);
            let mut r2 = SplitMix64::for_stream(21, seed);
            let t1 = DriveTraits::sample(&p, &mut r1);
            let t2 = DriveTraits::sample(&p, &mut r2);
            let a = LifecyclePlan::sample(&p, &t1, calibration::HORIZON_DAYS, &mut r1);
            let (b, lw) =
                LifecyclePlan::sample_weighted(&p, &t2, calibration::HORIZON_DAYS, &mut r2, 1.0);
            assert_eq!(a.deploy_day, b.deploy_day);
            assert_eq!(a.failures, b.failures);
            assert_eq!(a.terminal_unswapped_failure, b.terminal_unswapped_failure);
            assert_eq!(lw.to_bits(), 0.0f64.to_bits());
            // The RNG streams must stay in lockstep too.
            assert_eq!(r1.next_u64(), r2.next_u64());
        }
    }

    #[test]
    fn boosted_sampling_oversamples_infants_and_weights_correct_it() {
        let p = params();
        let boost = 4.0;
        let n = 20_000u32;
        let mut raw_infants = 0u32;
        let mut weighted_infants = 0.0f64;
        let mut total_weight = 0.0f64;
        for seed in 0..u64::from(n) {
            let mut rng = SplitMix64::for_stream(13, seed);
            let traits = DriveTraits::sample(&p, &mut rng);
            let (plan, lw) = LifecyclePlan::sample_weighted(
                &p,
                &traits,
                calibration::HORIZON_DAYS,
                &mut rng,
                boost,
            );
            let w = lw.exp();
            total_weight += w;
            if plan.failures.first().map(|f| f.infant).unwrap_or(false)
                || plan
                    .terminal_unswapped_failure
                    .map(|t| t <= 90 && plan.failures.is_empty())
                    .unwrap_or(false)
            {
                raw_infants += 1;
                weighted_infants += w;
            }
        }
        let p_inf = p.infant_failure_prob();
        let q_inf = (p_inf * boost).min(0.5);
        let raw_share = f64::from(raw_infants) / f64::from(n);
        let weighted_share = weighted_infants / total_weight;
        // Oversampled share tracks q, the weighted estimate recovers p,
        // and the mean weight is ≈ 1 (self-normalization sanity).
        assert!((raw_share - q_inf).abs() < 0.25 * q_inf, "raw {raw_share} vs q {q_inf}");
        assert!(
            (weighted_share - p_inf).abs() < 0.25 * p_inf,
            "weighted {weighted_share} vs p {p_inf}"
        );
        let mean_w = total_weight / f64::from(n);
        assert!((mean_w - 1.0).abs() < 0.05, "mean weight {mean_w}");
    }

    #[test]
    fn non_prone_drives_have_zero_ue_prob() {
        let p = params();
        for seed in 0..200 {
            let mut rng = SplitMix64::for_stream(1, seed);
            let t = DriveTraits::sample(&p, &mut rng);
            if !t.error_prone {
                assert_eq!(t.ue_day_prob, 0.0);
            } else {
                assert!(t.ue_day_prob > 0.0);
            }
        }
    }
}
