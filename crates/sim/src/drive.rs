//! Emission of a single drive's log from its lifecycle plan, walked span
//! by span from one scheduled report to the next.
//!
//! The drive's life decomposes into *segments* derived from its plan:
//! operational runs, reported-inactive windows after failures, and silent
//! repair windows. Within an operational run, which days emit a report is
//! decided by a `ReportSchedule` — a renewal process on the drive's
//! dedicated schedule RNG stream that yields the *indices* of emitted
//! days directly, so non-emitted days consume no randomness at all. Wear
//! is deterministic ([`WearModel`]) and report contents draw from a
//! second dedicated stream, only on emitted days.
//!
//! Because every random draw is attached to an emitted day (or to the
//! schedule that locates it), skipped days need no work at all: the walker
//! jumps straight to the next scheduled index and adds the skipped span's
//! wear with one closed-form [`WearModel::span`] sum. The test module keeps
//! the naive day-by-day walk (one `rate(age)` per day, every day's index
//! compared against the schedule) as a reference oracle; unit tests here
//! and in [`crate::fleet`] pin the span walker to it byte for byte.
//! DESIGN.md §13 gives the argument.

use crate::calibration::{self, ModelParams};
use crate::dist;
use crate::errors::{sample_day as sample_errors, ErrorContext, Escalation};
use crate::health::{DriveTraits, LifecyclePlan};
use crate::workload::{sample_day as sample_workload, WearModel};
use ssd_stats::SplitMix64;
use ssd_types::cast::{u32_from_u64, usize_from_u32, usize_from_u64};
use ssd_types::{DailyReport, DriveLog, SwapEvent};

/// Per-drive generation options (report density, importance boost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveGenOptions {
    /// Report probability in permille, clamped to `1..=1000`.
    pub report_permille: u32,
    /// Multiplier on the infant-failure probability of the first
    /// operational period (importance sampling). `1.0` means uniform
    /// sampling with log-weight exactly `0.0`.
    pub infant_boost: f64,
}

impl Default for DriveGenOptions {
    fn default() -> Self {
        DriveGenOptions {
            report_permille: calibration::DEFAULT_REPORT_PERMILLE,
            infant_boost: 1.0,
        }
    }
}

/// Renewal process yielding the operational-day indices that emit a
/// report, skipping multi-day logging gaps (Figure 1's Data Count < Max
/// Age). All draws come from the dedicated schedule stream, and only at
/// emissions/gap renewals — never per skipped day — so skipping a span
/// consumes exactly what walking it day by day would.
struct ReportSchedule {
    /// Per-day report process (cached-divisor geometric at probability
    /// `report_permille / 1000`).
    emit: dist::Geometric,
    /// Gap-arrival process (geometric at `GAP_START_PROBABILITY`).
    gap: dist::Geometric,
    /// Operational-day index where the next logging gap begins.
    next_gap: u64,
    /// Exclusive end of the current (merged) gap window.
    gap_until: u64,
    /// The next emission index.
    next_emit: u64,
}

impl ReportSchedule {
    fn new(report_permille: u32, rng: &mut SplitMix64) -> Self {
        let p = f64::from(report_permille.clamp(1, 1000)) / 1000.0;
        let mut s = ReportSchedule {
            emit: dist::Geometric::new(p),
            gap: dist::Geometric::new(calibration::GAP_START_PROBABILITY),
            next_gap: 0,
            gap_until: 0,
            next_emit: 0,
        };
        // The first gap can begin no earlier than day 1 (a gap is noticed
        // as missing reports *after* a logged day), mirroring the renewal
        // used after each gap ends.
        s.next_gap = 1 + s.gap.sample(rng);
        s.next_emit = s.resolve(s.emit.sample(rng), rng);
        s
    }

    /// The operational-day index of the next report.
    fn next_emit(&self) -> u64 {
        self.next_emit
    }

    /// Consumes the current emission and schedules the following one.
    fn advance(&mut self, rng: &mut SplitMix64) {
        let cand = self.next_emit + 1 + self.emit.sample(rng);
        self.next_emit = self.resolve(cand, rng);
    }

    /// Settles a candidate emission index against the gap process:
    /// renews gaps crossed by the candidate and pushes candidates that
    /// land inside a gap past its end.
    fn resolve(&mut self, mut cand: u64, rng: &mut SplitMix64) -> u64 {
        loop {
            while self.next_gap <= cand {
                let start = self.next_gap;
                let len = 1 + rng.next_bounded(u64::from(calibration::GAP_MAX_DAYS));
                self.gap_until = self.gap_until.max(start + len);
                self.next_gap = self.gap_until + 1 + self.gap.sample(rng);
            }
            if cand >= self.gap_until {
                return cand;
            }
            // Swallowed by a gap: resume the report process at its end.
            cand = self.gap_until + self.emit.sample(rng);
        }
    }
}

/// One contiguous window of a drive's life that can produce reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegmentKind {
    /// Normal operation (reports per the schedule, wear accrues).
    Operational,
    /// Failed but still reporting with zero provisioned activity.
    InactiveReported,
}

#[derive(Debug, Clone, Copy)]
struct LifeSegment {
    start: u32,
    /// Exclusive.
    end: u32,
    kind: SegmentKind,
}

/// Decomposes the plan into report-bearing segments, in age order.
/// Silent windows, repair windows, and everything past the horizon or a
/// terminal failure produce no segment (and no reports).
fn life_segments(plan: &LifecyclePlan) -> Vec<LifeSegment> {
    let horizon = plan.horizon_age;
    let mut segs = Vec::with_capacity(plan.failures.len() * 2 + 1);
    let mut cur = 0u32;
    for f in &plan.failures {
        let op_end = f.fail_day.saturating_add(1).min(horizon);
        if op_end > cur {
            segs.push(LifeSegment {
                start: cur,
                end: op_end,
                kind: SegmentKind::Operational,
            });
        }
        // Inactive-reported window: `fail_day < age <= fail_day +
        // inactive_days`, never reaching the swap day or the horizon.
        let inact_end = f
            .fail_day
            .saturating_add(f.inactive_days)
            .saturating_add(1)
            .min(f.swap_day)
            .min(horizon);
        if inact_end > op_end {
            segs.push(LifeSegment {
                start: op_end,
                end: inact_end,
                kind: SegmentKind::InactiveReported,
            });
        }
        match f.reentry_day {
            Some(re) => cur = re.max(cur),
            None => return segs, // in repair until the horizon
        }
    }
    let tail_end = match plan.terminal_unswapped_failure {
        // Ages ≤ t are operational; past t the drive goes quiet forever
        // (its swap is beyond the horizon).
        Some(t) => t.saturating_add(1).min(horizon),
        None => horizon,
    };
    if tail_end > cur {
        segs.push(LifeSegment {
            start: cur,
            end: tail_end,
            kind: SegmentKind::Operational,
        });
    }
    segs
}

/// Activity multiplier applied in the final days before *any* failure:
/// workload drains as the data-center scheduler backs off the sick drive.
/// This is the signal behind the paper's Figure 16, where daily read and
/// write counts rank among the most important mature-failure features
/// ("a drive is more likely to not have any activity before a failure").
fn activity_decline(plan: &LifecyclePlan, age: u32) -> f64 {
    let mut next_fail: Option<(u32, f64)> = None;
    for f in &plan.failures {
        if age <= f.fail_day {
            next_fail = Some((f.fail_day, f.decline));
            break;
        }
        // Inside this failure's non-operational window or later periods:
        // keep scanning only if we're past its re-entry.
        match f.reentry_day {
            Some(re) if age >= re => continue,
            _ => break,
        }
    }
    match next_fail {
        Some((day, floor)) if floor < 1.0 => {
            // Ramp from full workload three days out down to the
            // per-failure floor on the failure day itself.
            match usize_from_u32(day - age) {
                0 => floor,
                1 => floor + (1.0 - floor) * 0.5,
                2 => floor + (1.0 - floor) * 0.8,
                _ => 1.0,
            }
        }
        _ => 1.0,
    }
}

/// Days until the next failure of any kind (symptomatic or silent), when
/// within the escalation window.
fn days_to_next_failure(plan: &LifecyclePlan, age: u32) -> Option<u32> {
    for f in &plan.failures {
        if age <= f.fail_day {
            let dtf = f.fail_day - age;
            return (dtf < calibration::ESCALATION_WINDOW_DAYS).then_some(dtf);
        }
        match f.reentry_day {
            Some(re) if age >= re => continue,
            _ => return None,
        }
    }
    plan.terminal_unswapped_failure.and_then(|t| {
        (age <= t && t - age < calibration::ESCALATION_WINDOW_DAYS).then(|| t - age)
    })
}

/// Infant flag and symptomatic flag for the failure whose escalation window
/// covers `age`, if any.
fn escalation_for(plan: &LifecyclePlan, age: u32) -> Option<Escalation> {
    for f in &plan.failures {
        if age <= f.fail_day
            && f.symptomatic
            && f.fail_day - age < calibration::ESCALATION_WINDOW_DAYS
        {
            return Some(Escalation {
                days_to_failure: f.fail_day - age,
                infant: f.infant,
            });
        }
        if age <= f.fail_day {
            return None;
        }
    }
    None
}

/// Generates one drive's reports and swaps into `log`.
///
/// `log` is a reusable buffer: its reports and swaps are cleared and its
/// `log_weight` is set here, while `id` and `model` are the caller's, the
/// same reuse contract as [`TraceDecoder::next_drive_into`]. All
/// randomness derives from `rng`, which callers seed per drive (see
/// [`crate::fleet`]), making generation order- and thread-independent.
/// With `infant_boost > 1` the first-period infant-failure probability is
/// boosted and `log_weight` carries the correction (exactly `0.0`
/// otherwise).
///
/// [`TraceDecoder::next_drive_into`]: ssd_types::codec::TraceDecoder::next_drive_into
pub fn generate_drive_into(
    params: &ModelParams,
    horizon_days: u32,
    opts: &DriveGenOptions,
    rng: &mut SplitMix64,
    log: &mut DriveLog,
) {
    let (traits, plan) = plan_drive_into(params, horizon_days, opts, rng, log);
    emit_into_opts(params, &traits, &plan, opts, rng, log);
}

/// Samples the drive's traits and lifecycle plan, then resets `log` for
/// emission: reports and swaps cleared, `log_weight` set.
fn plan_drive_into(
    params: &ModelParams,
    horizon_days: u32,
    opts: &DriveGenOptions,
    rng: &mut SplitMix64,
    log: &mut DriveLog,
) -> (DriveTraits, LifecyclePlan) {
    let traits = DriveTraits::sample(params, rng);
    let (plan, log_weight) =
        LifecyclePlan::sample_weighted(params, &traits, horizon_days, rng, opts.infant_boost);
    log.reports.clear();
    log.swaps.clear();
    log.log_weight = log_weight;
    (traits, plan)
}

/// Mutable per-drive emission state.
struct EmitState {
    /// Fixed-point wear accumulator (see [`WearModel`]).
    wear: u64,
    grown_bad_blocks: u32,
    read_only: bool,
}

/// Core emission: walks the drive's life-segments and appends each
/// observable report (and every swap) to `log`.
///
/// `rng` is the tail of the per-drive stream after traits and plan were
/// sampled; one draw from it seeds two independent substreams — the
/// report schedule and the report contents — so that skipping days never
/// perturbs later draws.
fn emit_into_opts(
    params: &ModelParams,
    traits: &DriveTraits,
    plan: &LifecyclePlan,
    opts: &DriveGenOptions,
    rng: &mut SplitMix64,
    log: &mut DriveLog,
) {
    // Capacity hint only (never observable in the output): expected
    // report count at the configured density, padded so typical variance
    // stays within one allocation. Hinting the full horizon instead made
    // the allocator — not the walker — the dominant per-drive cost for
    // sparse fleets.
    let expected =
        u64::from(plan.horizon_age) * u64::from(opts.report_permille.clamp(1, 1000)) / 1000;
    log.reports
        .reserve(usize_from_u64(expected + expected / 4 + 8));

    let sub = rng.next_u64();
    let mut sched_rng = SplitMix64::for_stream(sub, 1);
    let mut emit_rng = SplitMix64::for_stream(sub, 2);
    let mut sched = ReportSchedule::new(opts.report_permille, &mut sched_rng);
    let wear_model = WearModel::new(traits);
    let mut st = EmitState {
        wear: 0,
        grown_bad_blocks: 0,
        read_only: false,
    };

    // Index of the next operational day on the schedule axis (counts
    // operational days only, contiguously across segments).
    let mut op_idx = 0u64;
    for seg in life_segments(plan) {
        match seg.kind {
            SegmentKind::Operational => {
                // Every operational segment after the first follows a
                // repair: the swapped-in drive returns refurbished.
                st.read_only = false;
                let len = u64::from(seg.end - seg.start);
                // Ages in `[seg.start, accrued)` already counted.
                let mut accrued = seg.start;
                while sched.next_emit() < op_idx + len {
                    let age = seg.start + u32_from_u64(sched.next_emit() - op_idx);
                    sched.advance(&mut sched_rng);
                    st.wear += wear_model.span(accrued, age + 1);
                    accrued = age + 1;
                    emit_op_day(params, traits, plan, age, &mut st, &mut emit_rng, log);
                }
                st.wear += wear_model.span(accrued, seg.end);
                op_idx += len;
            }
            SegmentKind::InactiveReported => {
                emit_inactive_segment(traits, seg, &st, &mut emit_rng, log)
            }
        }
    }
    emit_swaps(plan, log);
}

/// Emits a failed-but-reporting window: every day reports (they are the
/// observable symptom) with zero activity, and no wear accrues.
fn emit_inactive_segment(
    traits: &DriveTraits,
    seg: LifeSegment,
    st: &EmitState,
    rng: &mut SplitMix64,
    log: &mut DriveLog,
) {
    for age in seg.start..seg.end {
        let mut r = DailyReport::empty(age);
        r.pe_cycles = WearModel::cycles(st.wear);
        r.factory_bad_blocks = traits.factory_bad_blocks;
        r.grown_bad_blocks = st.grown_bad_blocks;
        r.status_dead = dist::bernoulli(rng, 0.7);
        r.status_read_only = st.read_only;
        log.reports.push(r);
    }
}

/// Emits every planned swap, in plan (= ascending swap-day) order.
fn emit_swaps(plan: &LifecyclePlan, log: &mut DriveLog) {
    for f in &plan.failures {
        log.swaps.push(SwapEvent {
            swap_day: f.swap_day,
            reentry_day: f.reentry_day,
        });
    }
}

/// Emits one operational day's report: workload, errors, status flags.
/// This is where every content-stream draw of an operational day happens.
fn emit_op_day(
    params: &ModelParams,
    traits: &DriveTraits,
    plan: &LifecyclePlan,
    age: u32,
    st: &mut EmitState,
    rng: &mut SplitMix64,
    log: &mut DriveLog,
) {
    // The drive is defect-symptomatic while heading toward an infant
    // symptomatic failure in its first operational period.
    let defect_symptomatic = plan
        .failures
        .first()
        .map(|f| f.infant && f.symptomatic && age <= f.fail_day)
        .unwrap_or(false);
    let mut w = sample_workload(traits, age, rng);
    let decline = activity_decline(plan, age);
    if decline < 1.0 {
        #[expect(
            clippy::as_conversions,
            reason = "deliberate quantization: declining op counts round toward zero"
        )]
        let scale_ops = |ops: u64| ((ops as f64) * decline) as u64;
        w.read_ops = scale_ops(w.read_ops);
        // Keep the failure day "active" (≥ 1 op) so the failure-point
        // definition still lands on it.
        w.write_ops = scale_ops(w.write_ops).max(1);
        w.erase_ops = scale_ops(w.erase_ops);
    }
    let pe_cycles = WearModel::cycles(st.wear);
    let ctx = ErrorContext {
        age_days: age,
        pe_cycles,
        escalation: escalation_for(plan, age),
        defect_symptomatic,
        pre_failure_days: days_to_next_failure(plan, age),
    };
    let (errors, new_blocks) = sample_errors(params, traits, &ctx, rng);
    st.grown_bad_blocks = st.grown_bad_blocks.saturating_add(new_blocks);
    // A drive sometimes latches read-only mode during its final
    // symptomatic decline.
    if ctx.escalation.is_some() && !st.read_only && dist::bernoulli(rng, 0.08) {
        st.read_only = true;
    }

    let mut r = DailyReport::empty(age);
    r.read_ops = w.read_ops;
    r.write_ops = if st.read_only { 0 } else { w.write_ops };
    r.erase_ops = if st.read_only { 0 } else { w.erase_ops };
    r.pe_cycles = pe_cycles;
    r.factory_bad_blocks = traits.factory_bad_blocks;
    r.grown_bad_blocks = st.grown_bad_blocks;
    r.status_read_only = st.read_only;
    r.errors = errors;
    log.reports.push(r);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::health::PlannedFailure;
    use ssd_types::{DriveId, DriveModel};

    /// Reference walker: samples traits and plan and resets `log` exactly
    /// like [`generate_drive_into`], then emits through the naive
    /// day-by-day traversal ([`emit_day_by_day`]). The span walker must
    /// reproduce its output byte for byte.
    pub(crate) fn generate_drive_into_day_by_day(
        params: &ModelParams,
        horizon_days: u32,
        opts: &DriveGenOptions,
        rng: &mut SplitMix64,
        log: &mut DriveLog,
    ) {
        let (traits, plan) = plan_drive_into(params, horizon_days, opts, rng, log);
        emit_day_by_day(params, &traits, &plan, opts, rng, log);
    }

    /// The day-by-day oracle of [`emit_into_opts`]: walks every
    /// operational day, adds one `rate(age)` of wear per day, and compares
    /// each day's schedule index against the next scheduled emission.
    fn emit_day_by_day(
        params: &ModelParams,
        traits: &DriveTraits,
        plan: &LifecyclePlan,
        opts: &DriveGenOptions,
        rng: &mut SplitMix64,
        log: &mut DriveLog,
    ) {
        let sub = rng.next_u64();
        let mut sched_rng = SplitMix64::for_stream(sub, 1);
        let mut emit_rng = SplitMix64::for_stream(sub, 2);
        let mut sched = ReportSchedule::new(opts.report_permille, &mut sched_rng);
        let wear_model = WearModel::new(traits);
        let mut st = EmitState {
            wear: 0,
            grown_bad_blocks: 0,
            read_only: false,
        };
        let mut op_idx = 0u64;
        for seg in life_segments(plan) {
            match seg.kind {
                SegmentKind::Operational => {
                    st.read_only = false;
                    for age in seg.start..seg.end {
                        st.wear += wear_model.rate(age);
                        if op_idx == sched.next_emit() {
                            sched.advance(&mut sched_rng);
                            emit_op_day(params, traits, plan, age, &mut st, &mut emit_rng, log);
                        }
                        op_idx += 1;
                    }
                }
                SegmentKind::InactiveReported => {
                    emit_inactive_segment(traits, seg, &st, &mut emit_rng, log)
                }
            }
        }
        emit_swaps(plan, log);
    }

    fn params() -> ModelParams {
        ModelParams::for_model(DriveModel::MlcB)
    }

    fn traits() -> DriveTraits {
        let mut rng = SplitMix64::new(0);
        let mut t = DriveTraits::sample(&params(), &mut rng);
        t.error_prone = true;
        t.ue_day_prob = 0.01;
        t
    }

    fn plan_with_failure() -> LifecyclePlan {
        LifecyclePlan {
            deploy_day: 0,
            horizon_age: 400,
            failures: vec![PlannedFailure {
                fail_day: 200,
                inactive_days: 3,
                swap_day: 210,
                reentry_day: Some(300),
                symptomatic: true,
                infant: false,
                decline: 0.2,
            }],
            terminal_unswapped_failure: None,
        }
    }

    /// Emits `plan` for [`traits`] at `opts` through the production span
    /// walker, or through the day-by-day oracle when `oracle` is set.
    fn emit_with(
        t: &DriveTraits,
        plan: &LifecyclePlan,
        opts: &DriveGenOptions,
        seed: u64,
        oracle: bool,
    ) -> DriveLog {
        let p = params();
        let mut rng = SplitMix64::new(seed);
        let mut log = DriveLog::new(DriveId(1), DriveModel::MlcB);
        if oracle {
            emit_day_by_day(&p, t, plan, opts, &mut rng, &mut log);
        } else {
            emit_into_opts(&p, t, plan, opts, &mut rng, &mut log);
        }
        log
    }

    /// Production emission of `plan` at default options.
    fn emit(t: &DriveTraits, plan: &LifecyclePlan, seed: u64) -> DriveLog {
        emit_with(t, plan, &DriveGenOptions::default(), seed, false)
    }

    #[test]
    fn emitted_log_validates() {
        let log = emit(&traits(), &plan_with_failure(), 42);
        log.validate().expect("log invariants");
        assert_eq!(log.swaps.len(), 1);
        assert_eq!(log.swaps[0].swap_day, 210);
        assert_eq!(log.swaps[0].reentry_day, Some(300));
    }

    #[test]
    fn span_walker_matches_day_by_day_oracle_on_crafted_plans() {
        let multi = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 1000,
            failures: vec![
                PlannedFailure {
                    fail_day: 100,
                    inactive_days: 2,
                    swap_day: 110,
                    reentry_day: Some(200),
                    symptomatic: false,
                    infant: false,
                    decline: 1.0,
                },
                PlannedFailure {
                    fail_day: 500,
                    inactive_days: 0,
                    swap_day: 505,
                    reentry_day: None,
                    symptomatic: true,
                    infant: false,
                    decline: 0.3,
                },
            ],
            terminal_unswapped_failure: None,
        };
        let healthy = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 2190,
            failures: vec![],
            terminal_unswapped_failure: None,
        };
        let terminal = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 500,
            failures: vec![],
            terminal_unswapped_failure: Some(100),
        };
        let t = traits();
        let opts = DriveGenOptions::default();
        for plan in [&multi, &healthy, &terminal, &plan_with_failure()] {
            for seed in 0..20 {
                let oracle = emit_with(&t, plan, &opts, seed, true);
                let span = emit_with(&t, plan, &opts, seed, false);
                assert_eq!(span, oracle, "seed {seed}");
            }
        }
    }

    #[test]
    fn sparse_reporting_still_emits_and_matches_the_oracle() {
        let t = traits();
        let plan = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 2190,
            failures: vec![],
            terminal_unswapped_failure: None,
        };
        for permille in [1, 5, 50, 1000] {
            let opts = DriveGenOptions {
                report_permille: permille,
                ..Default::default()
            };
            let a = emit_with(&t, &plan, &opts, 7, false);
            assert_eq!(a, emit_with(&t, &plan, &opts, 7, true), "permille {permille}");
            // Expected density, loosely: p · horizon, minus gap loss.
            let expected = 2190.0 * f64::from(permille) / 1000.0;
            assert!(
                (a.reports.len() as f64) < expected * 1.5 + 30.0,
                "permille {permille}: {} reports",
                a.reports.len()
            );
            a.validate().expect("log invariants");
        }
    }

    #[test]
    fn silent_window_has_no_reports_and_inactive_window_reports_zero_activity() {
        let log = emit(&traits(), &plan_with_failure(), 43);
        // Inactive reported window: ages 201..=203 report with no activity.
        for r in log.reports.iter().filter(|r| (201..=203).contains(&r.age_days)) {
            assert!(!r.is_active(), "inactive window must have no reads/writes");
        }
        assert!(
            log.reports.iter().any(|r| (201..=203).contains(&r.age_days)),
            "inactive window must report"
        );
        // Silent window: ages 204..210 and repair 210..300 have no reports.
        assert!(
            !log.reports.iter().any(|r| (204..300).contains(&r.age_days)),
            "no reports during silence/repair"
        );
        // Operation resumes at re-entry.
        assert!(log.reports.iter().any(|r| r.age_days >= 300));
    }

    #[test]
    fn pe_cycles_are_monotone_and_grow() {
        let plan = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 600,
            failures: vec![],
            terminal_unswapped_failure: None,
        };
        let log = emit(&traits(), &plan, 44);
        assert!(log.reports.len() > 500);
        let first = log.reports.first().unwrap().pe_cycles;
        let last = log.reports.last().unwrap().pe_cycles;
        assert!(last > first);
        log.validate().unwrap();
    }

    #[test]
    fn terminal_failure_stops_reporting_without_swap() {
        let plan = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 500,
            failures: vec![],
            terminal_unswapped_failure: Some(100),
        };
        let log = emit(&traits(), &plan, 45);
        assert!(log.swaps.is_empty());
        assert!(log.reports.iter().all(|r| r.age_days <= 100));
    }

    #[test]
    fn escalation_days_show_elevated_errors() {
        let mut t = traits();
        t.ue_day_prob = 0.0; // isolate the escalation signal
        t.error_prone = true;
        let mut ue_days_near_failure = 0u32;
        let mut trials = 0u32;
        for seed in 0..300 {
            let log = emit(&t, &plan_with_failure(), seed);
            for r in &log.reports {
                if (194..=200).contains(&r.age_days) {
                    trials += 1;
                    if r.errors.get(ssd_types::ErrorKind::Uncorrectable) > 0 {
                        ue_days_near_failure += 1;
                    }
                }
            }
        }
        let rate = f64::from(ue_days_near_failure) / f64::from(trials);
        // Mean of the escalation schedule ≈ 0.069.
        assert!(rate > 0.03, "escalation rate {rate}");
    }

    #[test]
    fn multi_failure_lifecycle_emits_correct_phases() {
        let plan = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 1000,
            failures: vec![
                PlannedFailure {
                    fail_day: 100,
                    inactive_days: 2,
                    swap_day: 110,
                    reentry_day: Some(200),
                    symptomatic: false,
                    infant: false,
                    decline: 1.0,
                },
                PlannedFailure {
                    fail_day: 500,
                    inactive_days: 0,
                    swap_day: 505,
                    reentry_day: None,
                    symptomatic: true,
                    infant: false,
                    decline: 0.3,
                },
            ],
            terminal_unswapped_failure: None,
        };
        let log = emit(&traits(), &plan, 77);
        log.validate().unwrap();
        assert_eq!(log.swaps.len(), 2);
        // No reports in either repair window.
        assert!(!log.reports.iter().any(|r| (110..200).contains(&r.age_days)));
        assert!(!log.reports.iter().any(|r| r.age_days >= 505));
        // Second life exists.
        assert!(log.reports.iter().any(|r| (200..500).contains(&r.age_days)));
        // Activity decline on the second failure day: its write volume
        // should sit well below the drive's typical day.
        let fail_day_writes = log
            .reports
            .iter()
            .find(|r| r.age_days == 500)
            .map(|r| r.write_ops);
        if let Some(w) = fail_day_writes {
            let typical: Vec<u64> = log
                .reports
                .iter()
                .filter(|r| (300..450).contains(&r.age_days))
                .map(|r| r.write_ops)
                .collect();
            let mean = typical.iter().sum::<u64>() / typical.len().max(1) as u64;
            assert!(w < mean, "declined day {w} vs typical {mean}");
        }
    }

    #[test]
    fn defect_symptomatic_infants_emit_persistent_ues() {
        let mut t = traits();
        t.error_prone = false;
        t.ue_day_prob = 0.0;
        let plan = LifecyclePlan {
            deploy_day: 0,
            horizon_age: 300,
            failures: vec![PlannedFailure {
                fail_day: 60,
                inactive_days: 0,
                swap_day: 65,
                reentry_day: None,
                symptomatic: true,
                infant: true,
                decline: 1.0,
            }],
            terminal_unswapped_failure: None,
        };
        let mut ue_days = 0u32;
        for seed in 0..50 {
            let log = emit(&t, &plan, seed);
            ue_days += log
                .reports
                .iter()
                .filter(|r| r.errors.get(ssd_types::ErrorKind::Uncorrectable) > 0)
                .count() as u32;
        }
        // ~60 days × 8% × 50 runs ≈ 240 expected; assert well above zero.
        assert!(ue_days > 100, "persistent defect UEs: {ue_days}");
    }

    #[test]
    fn generate_drive_is_deterministic() {
        let p = params();
        let opts = DriveGenOptions::default();
        let run = || {
            let mut rng = SplitMix64::for_stream(5, 17);
            let mut log = DriveLog::new(DriveId(9), DriveModel::MlcB);
            generate_drive_into(&p, 2190, &opts, &mut rng, &mut log);
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn generating_into_a_used_log_equals_a_fresh_log() {
        // Drive A leaves reports, swaps and a non-zero log-weight in the
        // buffer; generating drive B over them must match B in a fresh log.
        let p = params();
        let opts = DriveGenOptions {
            infant_boost: 4.0,
            ..Default::default()
        };
        let gen = |stream: u64, log: &mut DriveLog| {
            generate_drive_into(&p, 2190, &opts, &mut SplitMix64::for_stream(5, stream), log)
        };
        let mut reused = DriveLog::new(DriveId(2), DriveModel::MlcB);
        let a = (0..500)
            .find(|&stream| {
                gen(stream, &mut reused);
                !reused.reports.is_empty()
                    && !reused.swaps.is_empty()
                    && reused.log_weight.to_bits() != 0
            })
            .expect("some stream yields a drive with reports, swaps and a weight");
        let mut fresh = DriveLog::new(DriveId(2), DriveModel::MlcB);
        gen(a + 1, &mut fresh);
        gen(a + 1, &mut reused);
        assert_eq!(reused, fresh);
        assert_eq!(reused.log_weight.to_bits(), fresh.log_weight.to_bits());
    }

    #[test]
    fn importance_boost_one_is_weightless_and_identical_to_uniform() {
        // Boost 1.0 must take the unweighted lifecycle sampler's path draw
        // for draw and leave the log-weight at exactly +0.0.
        let p = params();
        let opts = DriveGenOptions {
            infant_boost: 1.0,
            ..Default::default()
        };
        let mut r1 = SplitMix64::for_stream(9, 3);
        let mut a = DriveLog::new(DriveId(4), DriveModel::MlcB);
        generate_drive_into(&p, 2190, &opts, &mut r1, &mut a);
        let mut r2 = SplitMix64::for_stream(9, 3);
        let mut b = DriveLog::new(DriveId(4), DriveModel::MlcB);
        let t = DriveTraits::sample(&p, &mut r2);
        let plan = LifecyclePlan::sample(&p, &t, 2190, &mut r2);
        emit_into_opts(&p, &t, &plan, &opts, &mut r2, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.log_weight.to_bits(), 0.0f64.to_bits());
    }
}
