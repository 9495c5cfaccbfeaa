//! Constant-memory trace summarization: one fold over drives, arriving in
//! any order, from any source.
//!
//! Every analysis `ssdstat` prints by default — failure incidence
//! (Table 3), failure-count distribution (Table 4), error incidence
//! (Table 1), the non-operational-period ECDF (Figure 4), and the
//! time-to-repair ECDF (Figure 5) — is a per-drive fold: no analysis
//! needs two drives resident at once. [`SummaryAccumulator`] is the one
//! implementation of all five: feed it drives one at a time (e.g. from a
//! streaming `TraceDecoder` over a multi-GB archive) and [`finish`]
//! produces the result structs. The resident functions in [`lifecycle`]
//! and [`characterize`] read one field of [`summarize`], the same fold
//! run over a resident trace on the worker pool. The result does not
//! depend on the order drives are observed in: the counts are integers
//! and the ECDFs sort at [`finish`].
//!
//! Folds are also *additive*: two accumulators built over disjoint drive
//! sets [`merge`] into the same state one fold over the union would have
//! produced — the property the pool fold and the sharded `ssdserve`
//! service rely on:
//!
//! ```
//! use ssd_field_study_core::streaming::SummaryAccumulator;
//! use ssd_types::{DailyReport, DriveId, DriveLog, DriveModel};
//!
//! let drive = |id: u32| {
//!     let mut d = DriveLog::new(DriveId(id), DriveModel::MlcB);
//!     d.reports.push(DailyReport::empty(0));
//!     d
//! };
//!
//! // One fold over both drives...
//! let mut whole = SummaryAccumulator::new();
//! whole.observe(&drive(0));
//! whole.observe(&drive(1));
//!
//! // ...equals two disjoint folds, merged.
//! let (mut left, mut right) = (SummaryAccumulator::new(), SummaryAccumulator::new());
//! left.observe(&drive(0));
//! right.observe(&drive(1));
//! left.merge(&right);
//!
//! assert_eq!(left.n_drives(), whole.n_drives());
//! assert_eq!(left.finish().total_drive_days, whole.finish().total_drive_days);
//! ```
//!
//! [`finish`]: SummaryAccumulator::finish
//! [`merge`]: SummaryAccumulator::merge
//! [`lifecycle`]: crate::lifecycle
//! [`characterize`]: crate::characterize

use crate::characterize::ErrorIncidence;
use crate::failure::failure_records;
use crate::lifecycle::{FailureCountDistribution, FailureIncidence};
use ssd_parallel::prelude::*;
use ssd_stats::Ecdf;
use ssd_types::{DriveLog, DriveModel, ErrorKind, FleetTrace};

/// Everything `ssdstat`'s default report needs, computed in one streaming
/// pass. The resident analysis functions return its fields.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Number of drives observed.
    pub n_drives: usize,
    /// Total daily reports across all drives.
    pub total_drive_days: usize,
    /// Total swap events across all drives.
    pub total_swaps: usize,
    /// Table 3, returned by `lifecycle::failure_incidence`.
    pub failure_incidence: FailureIncidence,
    /// Table 4, returned by `lifecycle::failure_count_distribution`.
    pub failure_counts: FailureCountDistribution,
    /// Table 1, returned by `characterize::error_incidence`.
    pub error_incidence: ErrorIncidence,
    /// Figure 4, returned by `lifecycle::non_operational_ecdf`.
    pub non_operational: Ecdf,
    /// Figure 5, returned by `lifecycle::time_to_repair_ecdf`.
    pub time_to_repair: Ecdf,
    /// Importance-weighted population estimates; `Some` only when at least
    /// one observed drive carried a non-zero log-weight (i.e. the archive
    /// came from an importance-sampled fleet). For uniform fleets the raw
    /// tallies above already estimate the population and this is `None`.
    pub weighted: Option<WeightedSummary>,
}

/// Horvitz–Thompson estimates over an importance-sampled fleet: every
/// tally weights each drive by `exp(log_weight)`, recovering the
/// statistics a uniformly sampled fleet of the same seed would show (the
/// equivalence is pinned, with tolerances, by `tests/fastforward.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSummary {
    /// Σ exp(log_weight): the estimated number of population drives the
    /// sample stands in for.
    pub effective_drives: f64,
    /// Per model, in [`DriveModel::ALL`] order:
    /// `(name, weighted swap events, weighted drives, weighted fraction of
    /// drives that ever failed)` — the weighted analogue of Table 3.
    pub per_model: Vec<(String, f64, f64, f64)>,
    /// Weighted fleet-wide fraction of drives that ever failed.
    pub total_failed_fraction: f64,
    /// Weighted swap events per drive across the fleet (the swap *rate*).
    pub swaps_per_drive: f64,
    /// Weighted error day-probabilities per [`ErrorKind`] per model — the
    /// weighted analogue of Table 1.
    pub error_rates: Vec<[f64; 3]>,
}

/// Per-drive fold state behind [`StreamSummary`].
///
/// Peak memory is the accumulator itself: a few fixed-size count tables
/// plus one `f64` per failure event (for the two ECDFs) — independent of
/// trace size for realistic failure rates, and never proportional to
/// drive-days.
#[derive(Debug, Clone)]
pub struct SummaryAccumulator {
    n_drives: usize,
    total_drive_days: usize,
    total_swaps: usize,
    // Table 3: per DriveModel::ALL index.
    model_drives: [usize; 3],
    model_failures: [usize; 3],
    model_failed_drives: [usize; 3],
    // Table 4.
    count_of: Vec<usize>,
    // Table 1.
    days: [u64; 3],
    error_days: [[u64; 3]; ErrorKind::COUNT],
    // Figures 4 and 5. Samples are buffered unsorted; Ecdf sorts at
    // finish(), which is what makes the fold order-independent.
    non_operational_days: Vec<f64>,
    repair_days: Vec<f64>,
    repairs_censored: u64,
    // Importance-weighted parallel tallies (w = exp(log_weight) per
    // drive). Exact duplicates of the integer tallies when every drive is
    // uniform (w = 1), in which case `finish` omits the weighted section.
    saw_nonzero_weight: bool,
    w_drives: f64,
    w_model_drives: [f64; 3],
    w_model_failures: [f64; 3],
    w_model_failed_drives: [f64; 3],
    w_days: [f64; 3],
    w_error_days: [[f64; 3]; ErrorKind::COUNT],
}

impl Default for SummaryAccumulator {
    fn default() -> Self {
        SummaryAccumulator::new()
    }
}

impl SummaryAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        SummaryAccumulator {
            n_drives: 0,
            total_drive_days: 0,
            total_swaps: 0,
            model_drives: [0; 3],
            model_failures: [0; 3],
            model_failed_drives: [0; 3],
            count_of: vec![0],
            days: [0; 3],
            error_days: [[0; 3]; ErrorKind::COUNT],
            non_operational_days: Vec::new(),
            repair_days: Vec::new(),
            repairs_censored: 0,
            saw_nonzero_weight: false,
            w_drives: 0.0,
            w_model_drives: [0.0; 3],
            w_model_failures: [0.0; 3],
            w_model_failed_drives: [0.0; 3],
            w_days: [0.0; 3],
            w_error_days: [[0.0; 3]; ErrorKind::COUNT],
        }
    }

    /// Folds one drive in. Drives may arrive in any order; each must be
    /// observed exactly once.
    pub fn observe(&mut self, d: &DriveLog) {
        let m = d.model.index();
        self.n_drives += 1;
        self.total_drive_days += d.reports.len();
        self.total_swaps += d.swaps.len();

        // Table 3.
        self.model_drives[m] += 1;
        self.model_failures[m] += d.swaps.len();
        if d.ever_failed() {
            self.model_failed_drives[m] += 1;
        }

        // Table 4.
        let k = d.swaps.len();
        if self.count_of.len() <= k {
            self.count_of.resize(k + 1, 0);
        }
        self.count_of[k] += 1;

        // Weighted parallels (Horvitz–Thompson).
        let w = d.log_weight.exp();
        if d.log_weight.to_bits() != 0 {
            self.saw_nonzero_weight = true;
        }
        self.w_drives += w;
        self.w_model_drives[m] += w;
        self.w_model_failures[m] += w * d.swaps.len() as f64;
        if d.ever_failed() {
            self.w_model_failed_drives[m] += w;
        }
        self.w_days[m] += w * d.reports.len() as f64;

        // Table 1.
        self.days[m] += d.reports.len() as u64;
        for r in &d.reports {
            for (kind, c) in r.errors.iter() {
                if c > 0 {
                    self.error_days[kind.index()][m] += 1;
                    self.w_error_days[kind.index()][m] += w;
                }
            }
        }

        // Figure 4.
        for f in failure_records(d) {
            self.non_operational_days
                .push(f64::from(f.non_operational_days()));
        }

        // Figure 5.
        for s in &d.swaps {
            match s.repair_days() {
                Some(r) => self.repair_days.push(f64::from(r)),
                None => self.repairs_censored += 1,
            }
        }
    }

    /// Merges another accumulator in (e.g. from a parallel shard).
    pub fn merge(&mut self, other: &SummaryAccumulator) {
        self.n_drives += other.n_drives;
        self.total_drive_days += other.total_drive_days;
        self.total_swaps += other.total_swaps;
        for m in 0..3 {
            self.model_drives[m] += other.model_drives[m];
            self.model_failures[m] += other.model_failures[m];
            self.model_failed_drives[m] += other.model_failed_drives[m];
            self.days[m] += other.days[m];
        }
        if self.count_of.len() < other.count_of.len() {
            self.count_of.resize(other.count_of.len(), 0);
        }
        for (k, c) in other.count_of.iter().enumerate() {
            self.count_of[k] += c;
        }
        for k in 0..ErrorKind::COUNT {
            for m in 0..3 {
                self.error_days[k][m] += other.error_days[k][m];
            }
        }
        self.non_operational_days
            .extend_from_slice(&other.non_operational_days);
        self.repair_days.extend_from_slice(&other.repair_days);
        self.repairs_censored += other.repairs_censored;
        self.saw_nonzero_weight |= other.saw_nonzero_weight;
        self.w_drives += other.w_drives;
        for m in 0..3 {
            self.w_model_drives[m] += other.w_model_drives[m];
            self.w_model_failures[m] += other.w_model_failures[m];
            self.w_model_failed_drives[m] += other.w_model_failed_drives[m];
            self.w_days[m] += other.w_days[m];
        }
        for k in 0..ErrorKind::COUNT {
            for m in 0..3 {
                self.w_error_days[k][m] += other.w_error_days[k][m];
            }
        }
    }

    /// Number of drives observed so far.
    pub fn n_drives(&self) -> usize {
        self.n_drives
    }

    /// Finalizes the fold into the result structs of Tables 1, 3, 4 and
    /// Figures 4–5.
    pub fn finish(&self) -> StreamSummary {
        let mut per_model = Vec::new();
        let mut total_failures = 0;
        let mut total_failed = 0;
        for m in DriveModel::ALL {
            let i = m.index();
            let drives = self.model_drives[i];
            per_model.push((
                m.name().to_string(),
                self.model_failures[i],
                drives,
                if drives == 0 {
                    0.0
                } else {
                    self.model_failed_drives[i] as f64 / drives as f64
                },
            ));
            total_failures += self.model_failures[i];
            total_failed += self.model_failed_drives[i];
        }
        let failure_incidence = FailureIncidence {
            per_model,
            total_failures,
            total_failed_fraction: if self.n_drives == 0 {
                0.0
            } else {
                total_failed as f64 / self.n_drives as f64
            },
        };

        let rates = (0..ErrorKind::COUNT)
            .map(|k| {
                let mut row = [0.0; 3];
                for (m, rate) in row.iter_mut().enumerate() {
                    if self.days[m] > 0 {
                        *rate = self.error_days[k][m] as f64 / self.days[m] as f64;
                    }
                }
                row
            })
            .collect();

        StreamSummary {
            n_drives: self.n_drives,
            total_drive_days: self.total_drive_days,
            total_swaps: self.total_swaps,
            failure_incidence,
            failure_counts: FailureCountDistribution {
                count_of: self.count_of.clone(),
            },
            error_incidence: ErrorIncidence { rates },
            non_operational: Ecdf::new(&self.non_operational_days),
            time_to_repair: Ecdf::with_censored(&self.repair_days, self.repairs_censored),
            weighted: self.saw_nonzero_weight.then(|| self.finish_weighted()),
        }
    }

    fn finish_weighted(&self) -> WeightedSummary {
        let mut per_model = Vec::new();
        let mut total_failed = 0.0;
        let mut total_failures = 0.0;
        for m in DriveModel::ALL {
            let i = m.index();
            let drives = self.w_model_drives[i];
            per_model.push((
                m.name().to_string(),
                self.w_model_failures[i],
                drives,
                if drives > 0.0 {
                    self.w_model_failed_drives[i] / drives
                } else {
                    0.0
                },
            ));
            total_failed += self.w_model_failed_drives[i];
            total_failures += self.w_model_failures[i];
        }
        let error_rates = (0..ErrorKind::COUNT)
            .map(|k| {
                let mut row = [0.0; 3];
                for (m, rate) in row.iter_mut().enumerate() {
                    if self.w_days[m] > 0.0 {
                        *rate = self.w_error_days[k][m] / self.w_days[m];
                    }
                }
                row
            })
            .collect();
        WeightedSummary {
            effective_drives: self.w_drives,
            per_model,
            total_failed_fraction: if self.w_drives > 0.0 {
                total_failed / self.w_drives
            } else {
                0.0
            },
            swaps_per_drive: if self.w_drives > 0.0 {
                total_failures / self.w_drives
            } else {
                0.0
            },
            error_rates,
        }
    }
}

/// Folds a resident trace on the worker pool: one accumulator per chunk
/// of drives, merged in chunk order, then finished. The unweighted fields
/// equal a sequential fold's exactly (integer counts, ECDFs sorted at
/// `finish`), and the chunking depends only on the drive count, so the
/// weighted sums do not depend on the pool size either.
pub fn summarize(trace: &FleetTrace) -> StreamSummary {
    trace
        .drives
        .par_iter()
        .fold(SummaryAccumulator::new, |mut acc, d| {
            acc.observe(d);
            acc
        })
        .reduce(SummaryAccumulator::new, |mut a, b| {
            a.merge(&b);
            a
        })
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{FleetGen, Sampling, SimConfig};

    fn trace() -> FleetTrace {
        FleetGen::new(&SimConfig {
            drives_per_model: 200,
            horizon_days: 2190,
            seed: 77,
            ..SimConfig::default()
        })
        .trace()
    }

    /// Independent reference: each table as its own plain sequential loop
    /// over the resident trace, sharing no code with the fold.
    mod oracle {
        use crate::failure::failure_records;
        use crate::lifecycle::FailureIncidence;
        use ssd_stats::Ecdf;
        use ssd_types::{DriveModel, ErrorKind, FleetTrace};

        /// Table 3.
        pub fn failure_incidence(t: &FleetTrace) -> FailureIncidence {
            let mut per_model = Vec::new();
            let (mut failures, mut failed) = (0, 0);
            for m in DriveModel::ALL {
                let drives: Vec<_> = t.drives_of(m).collect();
                let f: usize = drives.iter().map(|d| d.swaps.len()).sum();
                let fd = drives.iter().filter(|d| d.ever_failed()).count();
                let frac = if drives.is_empty() {
                    0.0
                } else {
                    fd as f64 / drives.len() as f64
                };
                per_model.push((m.name().to_string(), f, drives.len(), frac));
                failures += f;
                failed += fd;
            }
            FailureIncidence {
                per_model,
                total_failures: failures,
                total_failed_fraction: failed as f64 / t.n_drives() as f64,
            }
        }

        /// Table 4: drives per lifetime failure count.
        pub fn failure_counts(t: &FleetTrace) -> Vec<usize> {
            let max = t.drives.iter().map(|d| d.swaps.len()).max().unwrap_or(0);
            (0..=max)
                .map(|k| t.drives.iter().filter(|d| d.swaps.len() == k).count())
                .collect()
        }

        /// Table 1: error-day fraction per (kind, model).
        pub fn error_rates(t: &FleetTrace) -> Vec<[f64; 3]> {
            ErrorKind::ALL
                .iter()
                .map(|&kind| {
                    let mut row = [0.0; 3];
                    for m in DriveModel::ALL {
                        let days: usize = t.drives_of(m).map(|d| d.reports.len()).sum();
                        let hit = t
                            .drives_of(m)
                            .flat_map(|d| &d.reports)
                            .filter(|r| r.errors.get(kind) > 0)
                            .count();
                        if days > 0 {
                            row[m.index()] = hit as f64 / days as f64;
                        }
                    }
                    row
                })
                .collect()
        }

        /// Figure 4.
        pub fn non_operational(t: &FleetTrace) -> Ecdf {
            let days: Vec<f64> = t
                .drives
                .iter()
                .flat_map(failure_records)
                .map(|f| f64::from(f.non_operational_days()))
                .collect();
            Ecdf::new(&days)
        }

        /// Figure 5, never-returning swaps censored.
        pub fn time_to_repair(t: &FleetTrace) -> Ecdf {
            let swaps: Vec<_> = t.drives.iter().flat_map(|d| &d.swaps).collect();
            let days: Vec<f64> = swaps
                .iter()
                .filter_map(|s| s.repair_days())
                .map(f64::from)
                .collect();
            Ecdf::with_censored(&days, (swaps.len() - days.len()) as u64)
        }
    }

    fn assert_matches_oracle(summary: &StreamSummary, t: &FleetTrace) {
        assert_eq!(summary.n_drives, t.n_drives());
        assert_eq!(summary.total_drive_days, t.total_drive_days());
        assert_eq!(summary.total_swaps, t.total_swaps());

        let inc = oracle::failure_incidence(t);
        assert_eq!(summary.failure_incidence.per_model, inc.per_model);
        assert_eq!(summary.failure_incidence.total_failures, inc.total_failures);
        assert_eq!(
            summary.failure_incidence.total_failed_fraction,
            inc.total_failed_fraction
        );
        assert_eq!(summary.failure_counts.count_of, oracle::failure_counts(t));
        assert_eq!(summary.error_incidence.rates, oracle::error_rates(t));
        assert_eq!(summary.non_operational, oracle::non_operational(t));
        assert_eq!(summary.time_to_repair, oracle::time_to_repair(t));
    }

    #[test]
    fn streaming_fold_equals_resident_analyses() {
        let t = trace();
        let mut acc = SummaryAccumulator::new();
        for d in &t.drives {
            acc.observe(d);
        }
        assert_matches_oracle(&acc.finish(), &t);
        // The resident entry points read the pool fold.
        assert_matches_oracle(&summarize(&t), &t);
    }

    #[test]
    fn fold_order_does_not_matter() {
        let t = trace();
        let mut acc = SummaryAccumulator::new();
        for d in t.drives.iter().rev() {
            acc.observe(d);
        }
        assert_matches_oracle(&acc.finish(), &t);
    }

    #[test]
    fn sharded_merge_equals_single_fold() {
        let t = trace();
        let mid = t.drives.len() / 3;
        let mut a = SummaryAccumulator::new();
        let mut b = SummaryAccumulator::new();
        for d in &t.drives[..mid] {
            a.observe(d);
        }
        for d in &t.drives[mid..] {
            b.observe(d);
        }
        a.merge(&b);
        assert_eq!(a.n_drives(), t.n_drives());
        assert_matches_oracle(&a.finish(), &t);
    }

    #[test]
    fn empty_accumulator_finishes_cleanly() {
        let s = SummaryAccumulator::new().finish();
        assert_eq!(s.n_drives, 0);
        assert_eq!(s.failure_incidence.total_failed_fraction, 0.0);
        assert_eq!(s.failure_counts.count_of, vec![0]);
        assert_eq!(s.non_operational.n_finite(), 0);
        assert!(s.weighted.is_none());
    }

    #[test]
    fn uniform_fleets_omit_the_weighted_section() {
        let t = trace();
        let mut acc = SummaryAccumulator::new();
        for d in &t.drives {
            acc.observe(d);
        }
        assert!(acc.finish().weighted.is_none());
    }

    #[test]
    fn weighted_tallies_track_exp_log_weight() {
        // Give one drive weight 2 (log-weight ln 2) and leave the rest at
        // unit weight: the effective fleet size must grow by exactly one.
        let t = trace();
        let mut acc = SummaryAccumulator::new();
        for (i, d) in t.drives.iter().enumerate() {
            let mut d = d.clone();
            if i == 0 {
                d.log_weight = (2.0f64).ln();
            }
            acc.observe(&d);
        }
        let s = acc.finish();
        let w = s.weighted.expect("non-zero weight must produce a section");
        // One drive double-counted: effective fleet is n_drives + 1.
        assert!((w.effective_drives - (t.n_drives() as f64 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn importance_weighted_incidence_tracks_uniform_ground_truth() {
        let cfg = SimConfig {
            drives_per_model: 400,
            horizon_days: 2190,
            seed: 913,
            ..SimConfig::default()
        };
        let uniform = FleetGen::new(&cfg).trace();
        let boosted = FleetGen::new(&cfg)
            .sampling(Sampling::Importance { boost: 4.0 })
            .trace();

        let fold = |t: &FleetTrace| {
            let mut acc = SummaryAccumulator::new();
            for d in &t.drives {
                acc.observe(d);
            }
            acc.finish()
        };
        let u = fold(&uniform);
        let b = fold(&boosted);
        let w = b.weighted.expect("importance fleet must carry weights");

        // Raw boosted incidence is inflated; the weighted estimate must
        // come back near the uniform ground truth.
        let truth = u.failure_incidence.total_failed_fraction;
        let raw = b.failure_incidence.total_failed_fraction;
        assert!(raw > truth, "boost must visibly inflate raw incidence");
        assert!(
            (w.total_failed_fraction - truth).abs() < 0.35 * truth,
            "weighted {} vs uniform {}",
            w.total_failed_fraction,
            truth
        );
        // Effective drive count stays near the real sample size.
        assert!((w.effective_drives - boosted.n_drives() as f64).abs() < 0.1 * w.effective_drives);
    }

    #[test]
    fn weighted_section_merges_like_raw_tallies() {
        let cfg = SimConfig {
            drives_per_model: 100,
            horizon_days: 1200,
            seed: 5,
            ..SimConfig::default()
        };
        let t = FleetGen::new(&cfg)
            .sampling(Sampling::Importance { boost: 5.0 })
            .trace();
        let mut whole = SummaryAccumulator::new();
        for d in &t.drives {
            whole.observe(d);
        }
        let mid = t.drives.len() / 2;
        let mut a = SummaryAccumulator::new();
        let mut b = SummaryAccumulator::new();
        for d in &t.drives[..mid] {
            a.observe(d);
        }
        for d in &t.drives[mid..] {
            b.observe(d);
        }
        a.merge(&b);
        let sw = whole.finish().weighted.unwrap();
        let sm = a.finish().weighted.unwrap();
        assert!((sw.effective_drives - sm.effective_drives).abs() < 1e-9);
        assert!((sw.total_failed_fraction - sm.total_failed_fraction).abs() < 1e-12);
        assert!((sw.swaps_per_drive - sm.swaps_per_drive).abs() < 1e-12);
    }
}
