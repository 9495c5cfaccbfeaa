//! Per-shard views folded at load, and the plan a request batch compiles
//! into.
//!
//! Each shard owns a disjoint subset of the fleet's drives. The fleet
//! never changes after load, so [`ShardState::push_drive`] folds each
//! drive into the views every query reads and then drops its log:
//!
//! - a [`SummaryAccumulator`] (Tables 1, 3, 4 and Figures 4–5);
//! - the survival [`Duration`] list, one entry per operational period;
//! - integer exposure and event counts per age day, sized by the ages
//!   seen, with every age at or past the horizon in one overflow cell;
//! - an [`OnlineFleet`] feature tracker, scored in one batch call the
//!   first time a top-K request needs it and kept sorted by (score desc,
//!   id asc).
//!
//! A batch of requests compiles into one [`PassPlan`] — the union of
//! everything the batch needs — and [`ShardState::execute`] answers it by
//! lookup into those views, producing a [`ShardPartial`] the service
//! merges across shards in shard order.
//!
//! # Why merging is exact, not approximate
//!
//! Every partial is either additive or order-insensitive, so the merged
//! answer is byte-identical to a single-shard fold over the whole fleet:
//!
//! - **Summary** — [`SummaryAccumulator`] is an order-independent fold
//!   with an additive [`merge`](SummaryAccumulator::merge); its ECDFs
//!   sort at `finish()`.
//! - **Survival** — shards contribute raw [`Duration`]s;
//!   `KaplanMeier::fit` sorts and aggregates per distinct time, so the
//!   concatenation order across shards cannot affect the curve.
//! - **Hazard** — [`BinnedRate`] holds integer event/exposure counts per
//!   bin; addition commutes.
//! - **Top-K** — per-drive scores depend only on that drive's telemetry
//!   (pinned by PR 6's equivalence battery), and the global top-k under
//!   the total order (score desc, id asc) is a subset of the union of
//!   per-shard top-k lists, so truncating each shard to `k` loses
//!   nothing.
//!
//! # Why the hazard re-bin is exact
//!
//! A `bin_days = w` hazard over horizon `h` has `n = max(1, ⌈h / w⌉)`
//! bins and puts age `a` in bin `min(⌊a / w⌋, n − 1)`. Every age `a ≥ h`
//! lands in the last bin, because `⌊a / w⌋ ≥ ⌊h / w⌋ ≥ ⌈h / w⌉ − 1`.
//! So the per-day view keeps one cell per age below `h` plus a single
//! overflow cell at index `h` for all later ages, and re-binning that
//! cell as age `h` puts its counts exactly where the per-report walk
//! would. The counts are integers, so the re-bin is exact for every
//! `bin_days`.
//!
//! [`Duration`]: ssd_stats::Duration

use super::protocol::Request;
use crate::failure::failure_records;
use crate::lifecycle::survival_durations;
use crate::predict::online::OnlineFleet;
use crate::streaming::SummaryAccumulator;
use ssd_ml::BatchScorer;
use ssd_stats::{BinnedRate, Duration};
use ssd_types::{DriveId, DriveLog, DriveModel};
use std::sync::{Arc, OnceLock};

/// One top-K row: drive, model, swap probability.
type Ranked = (DriveId, DriveModel, f64);

/// One shard's views of its drives, folded at load.
pub struct ShardState {
    /// Trace horizon (fleet-wide, same on every shard).
    horizon_days: u32,
    /// Total daily reports across this shard's drives.
    drive_days: u64,
    /// Summary fold over the shard's drives.
    summary: SummaryAccumulator,
    /// Survival durations, one per operational period.
    durations: Vec<Duration>,
    /// Daily reports per age cell: one cell per age below the horizon,
    /// then one overflow cell for every later age.
    exposure: Vec<u64>,
    /// Failures per age cell.
    events: Vec<u64>,
    /// Incremental feature state for the shard's drives.
    online: OnlineFleet,
    /// Shared flattened scorer, if the service trained one.
    scorer: Option<Arc<dyn BatchScorer>>,
    /// `online` scored once, highest risk first; reset by every push.
    ranked: OnceLock<Vec<Ranked>>,
}

impl ShardState {
    /// An empty shard for a trace with the given horizon.
    pub fn new(horizon_days: u32, scorer: Option<Arc<dyn BatchScorer>>) -> Self {
        ShardState {
            horizon_days,
            drive_days: 0,
            summary: SummaryAccumulator::new(),
            durations: Vec::new(),
            exposure: Vec::new(),
            events: Vec::new(),
            online: OnlineFleet::new(),
            scorer,
            ranked: OnceLock::new(),
        }
    }

    /// Folds one drive into the shard's views and drops its log.
    pub fn push_drive(&mut self, drive: DriveLog) {
        self.fold(&drive);
    }

    /// [`push_drive`](Self::push_drive) on a borrowed log, so the loader
    /// can reuse one read buffer for every drive.
    pub(super) fn fold(&mut self, d: &DriveLog) {
        self.drive_days += d.reports.len() as u64;
        self.summary.observe(d);
        self.durations.extend(survival_durations(d));
        for r in &d.reports {
            bump(&mut self.exposure, r.age_days, self.horizon_days);
        }
        for f in failure_records(d) {
            bump(&mut self.events, f.fail_day, self.horizon_days);
        }
        self.online.observe_drive(d);
        self.ranked = OnceLock::new();
    }

    /// Total daily reports folded into this shard.
    pub fn drive_days(&self) -> u64 {
        self.drive_days
    }

    /// The shard's drives scored in one batch call and sorted highest
    /// risk first, ties toward the lower drive id — the same total order
    /// the merge step re-applies globally. Computed on first use; empty
    /// without a scorer.
    pub(super) fn ranked(&self) -> &[Ranked] {
        self.ranked.get_or_init(|| {
            let Some(scorer) = &self.scorer else {
                return Vec::new();
            };
            let mut rows: Vec<Ranked> = self
                .online
                .predict_fleet_day(scorer.as_ref())
                .into_iter()
                .map(|(id, p)| {
                    let model = self.online.model_of(id).unwrap_or(DriveModel::from_index(0));
                    (id, model, p)
                })
                .collect();
            rows.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
            rows
        })
    }

    /// Answers a whole plan by lookup into the shard's views.
    pub fn execute(&self, plan: &PassPlan) -> ShardPartial {
        ShardPartial {
            summary: plan.summary.then(|| self.summary.clone()),
            durations: if plan.survival {
                self.durations.clone()
            } else {
                Vec::new()
            },
            hazards: plan.hazard_bins.iter().map(|&w| self.hazard(w)).collect(),
            top: match plan.top_k {
                Some(k) => self.ranked().iter().take(k).copied().collect(),
                None => Vec::new(),
            },
        }
    }

    /// Re-bins the per-day view into `bin_days`-wide age bins.
    fn hazard(&self, bin_days: u32) -> BinnedRate {
        let mut rate = BinnedRate::new(n_bins(self.horizon_days, bin_days));
        let last = rate.n_bins() - 1;
        for (cell, &n) in self.exposure.iter().enumerate() {
            rate.add_exposure(bin_of(cell, bin_days, last), n);
        }
        for (cell, &n) in self.events.iter().enumerate() {
            rate.add_events(bin_of(cell, bin_days, last), n);
        }
        rate
    }
}

/// Adds one to the age cell of `age_days` — the age itself below the
/// horizon, the overflow cell `horizon_days` at or past it — growing
/// `counts` to reach it.
fn bump(counts: &mut Vec<u64>, age_days: u32, horizon_days: u32) {
    let cell = age_days.min(horizon_days) as usize;
    if counts.len() <= cell {
        counts.resize(cell + 1, 0);
    }
    counts[cell] += 1;
}

/// Number of `bin_days`-wide age bins covering a horizon (at least 1, so
/// the clamp onto the last bin always has a landing spot).
pub fn n_bins(horizon_days: u32, bin_days: u32) -> usize {
    (horizon_days.div_ceil(bin_days.max(1)).max(1)) as usize
}

/// Bin index of an age cell, clamped into range (the overflow cell and
/// any age past the nominal horizon land in the last bin).
fn bin_of(cell: usize, bin_days: u32, last: usize) -> usize {
    (cell / bin_days.max(1) as usize).min(last)
}

/// The union of work a batch of requests needs from each shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassPlan {
    /// Any request in the batch wants the fleet summary.
    pub summary: bool,
    /// Any request wants the Kaplan–Meier time-to-failure curve.
    pub survival: bool,
    /// Distinct hazard bin widths requested, sorted ascending.
    pub hazard_bins: Vec<u32>,
    /// Largest `k` requested, if any top-K request is present.
    pub top_k: Option<usize>,
}

impl PassPlan {
    /// Compiles a request batch into the union plan. `Info` requests need
    /// no shard work and contribute nothing.
    pub fn for_requests(requests: &[Request]) -> PassPlan {
        let mut plan = PassPlan {
            summary: false,
            survival: false,
            hazard_bins: Vec::new(),
            top_k: None,
        };
        for r in requests {
            match *r {
                Request::Info => {}
                Request::Summary => plan.summary = true,
                Request::Survival => plan.survival = true,
                Request::Hazard { bin_days } => {
                    if !plan.hazard_bins.contains(&bin_days) {
                        plan.hazard_bins.push(bin_days);
                    }
                }
                Request::TopK { k } => {
                    plan.top_k = Some(plan.top_k.map_or(k, |cur| cur.max(k)));
                }
            }
        }
        plan.hazard_bins.sort_unstable();
        plan
    }

    /// Whether the plan needs no shard work at all.
    pub fn is_empty(&self) -> bool {
        !self.summary && !self.survival && self.hazard_bins.is_empty() && self.top_k.is_none()
    }
}

/// One shard's contribution to a plan's answers.
#[derive(Default)]
pub struct ShardPartial {
    /// Summary fold over the shard's drives, if the plan asked.
    pub summary: Option<SummaryAccumulator>,
    /// Raw survival durations (events + censored) from the shard.
    pub durations: Vec<Duration>,
    /// One accumulator per entry of [`PassPlan::hazard_bins`].
    pub hazards: Vec<BinnedRate>,
    /// The shard's top-k `(id, model, score)` rows, highest risk first.
    pub top: Vec<(DriveId, DriveModel, f64)>,
}

impl ShardPartial {
    /// Folds another shard's partial into this one. Shard order does not
    /// affect any finished answer (see the module docs), but the service
    /// still merges in shard order for good measure.
    pub fn absorb(&mut self, other: ShardPartial) {
        let ShardPartial {
            summary,
            durations,
            hazards,
            top,
        } = other;
        match (&mut self.summary, summary) {
            (Some(a), Some(b)) => a.merge(&b),
            (slot @ None, Some(b)) => *slot = Some(b),
            _ => {}
        }
        self.durations.extend(durations);
        if self.hazards.is_empty() {
            self.hazards = hazards;
        } else {
            for (a, b) in self.hazards.iter_mut().zip(&hazards) {
                a.merge(b);
            }
        }
        self.top.extend(top);
    }

    /// Re-applies the global total order to the merged top rows and
    /// truncates to `k`.
    pub fn finish_top(&mut self, k: usize) {
        self.top
            .sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
        self.top.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_unions_and_dedupes() {
        let plan = PassPlan::for_requests(&[
            Request::Info,
            Request::TopK { k: 5 },
            Request::Hazard { bin_days: 90 },
            Request::Summary,
            Request::Hazard { bin_days: 30 },
            Request::TopK { k: 12 },
            Request::Hazard { bin_days: 30 },
        ]);
        assert!(plan.summary);
        assert!(!plan.survival);
        assert_eq!(plan.hazard_bins, vec![30, 90]);
        assert_eq!(plan.top_k, Some(12));
        assert!(!plan.is_empty());
        assert!(PassPlan::for_requests(&[Request::Info]).is_empty());
    }

    #[test]
    fn bin_math_covers_the_horizon() {
        assert_eq!(n_bins(2190, 30), 73);
        assert_eq!(n_bins(2190, 3650), 1);
        assert_eq!(n_bins(0, 30), 1);
        assert_eq!(bin_of(0, 30, 72), 0);
        assert_eq!(bin_of(2189, 30, 72), 72);
        // Ages past the nominal horizon clamp into the last bin.
        assert_eq!(bin_of(9999, 30, 72), 72);
    }
}
