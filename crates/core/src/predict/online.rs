//! Online prediction: incremental per-drive feature state scored in one
//! flat batch per fleet-day.
//!
//! The offline experiments materialize a full labeled dataset before any
//! model sees a row. A monitoring service cannot: telemetry arrives one
//! (drive, day) report at a time, and the service must answer "which
//! drives look risky *today*" without replaying history. [`OnlineFleet`]
//! keeps exactly the state that question needs — one
//! [`RollingFeatures`] accumulator and one materialized 31-column feature
//! row per drive, in a single contiguous buffer — and
//! [`predict_fleet_day`](OnlineFleet::predict_fleet_day) hands that
//! buffer to a flattened scorer ([`BatchScorer`], the `FlatForest`) in
//! one cache-friendly call.
//!
//! Because the per-drive state is folded with the same
//! [`RollingFeatures`] the offline path uses, the online feature vector
//! for a drive-day is bit-identical to the corresponding
//! [`build_dataset`](crate::features::build_dataset) row
//! (`tests/online_predict.rs` pins this), and scores are independent of
//! both drive arrival order and thread-pool size.
//!
//! ```
//! use ssd_field_study_core::OnlineFleet;
//! use ssd_types::{DailyReport, DriveId, DriveModel};
//!
//! let mut fleet = OnlineFleet::new();
//! // Replay three days of telemetry for one drive, in age order.
//! for day in 0..3u32 {
//!     let mut report = DailyReport::empty(day);
//!     report.write_ops = 100 + u64::from(day);
//!     fleet.observe(DriveId(7), DriveModel::MlcD, &report);
//! }
//! assert_eq!(fleet.n_drives(), 1);
//! let row = fleet.features_of(DriveId(7)).expect("drive was observed");
//! assert!(row.iter().all(|v| v.is_finite()));
//! ```

use crate::features::{RollingFeatures, N_FEATURES};
use ssd_ml::BatchScorer;
use ssd_types::{DailyReport, DriveId, DriveLog, DriveModel};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One row of a risk ranking: drive, model, swap probability.
pub type Ranked = (DriveId, DriveModel, f64);

/// The ranking order: highest score first, ties toward the lower drive
/// id. It is total, so a ranking does not depend on drive arrival order,
/// pool size or how shards split the fleet.
pub(crate) fn by_risk(a: &Ranked, b: &Ranked) -> Ordering {
    b.2.total_cmp(&a.2).then(a.0 .0.cmp(&b.0 .0))
}

/// Incremental feature state for every drive seen so far, materialized as
/// one contiguous row-major feature matrix ready for batch scoring.
#[derive(Debug, Default, Clone)]
pub struct OnlineFleet {
    /// Drive id → slot in the parallel vectors below.
    slots: BTreeMap<u32, usize>,
    ids: Vec<DriveId>,
    models: Vec<DriveModel>,
    state: Vec<RollingFeatures>,
    /// `ids.len() × N_FEATURES`, slot-major: slot `s`'s current feature
    /// row lives at `features[s * N_FEATURES ..][..N_FEATURES]`.
    features: Vec<f32>,
}

impl OnlineFleet {
    /// An empty fleet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct drives observed.
    pub fn n_drives(&self) -> usize {
        self.ids.len()
    }

    /// Drive ids in first-observation order (the order
    /// [`predict_fleet_day`](Self::predict_fleet_day) scores them in).
    pub fn ids(&self) -> &[DriveId] {
        &self.ids
    }

    /// Folds one day's report for one drive into its feature state.
    /// Reports for a given drive must arrive in age order (the order
    /// every [`TraceSource`](ssd_types::source::TraceSource) yields
    /// them); drives may interleave arbitrarily.
    pub fn observe(&mut self, id: DriveId, model: DriveModel, report: &DailyReport) {
        let slot = self.slot_of(id, model);
        let st = &mut self.state[slot];
        st.accumulate(report);
        st.write_row(report, &mut self.features[slot * N_FEATURES..(slot + 1) * N_FEATURES]);
    }

    /// Folds a run of a drive's reports, in age order, the drive-major
    /// shape archives stream in: the same state and feature row as
    /// [`observe`](Self::observe) once per report, from one slot lookup
    /// and one row write (a row holds only the cumulative counters and the
    /// last report). The log may continue a history observed earlier. An
    /// empty log changes nothing; in particular it adds no drive.
    pub fn observe_drive(&mut self, log: &DriveLog) {
        let Some(last) = log.reports.last() else {
            return;
        };
        let slot = self.slot_of(log.id, log.model);
        let st = &mut self.state[slot];
        for r in &log.reports {
            st.accumulate(r);
        }
        st.write_row(last, &mut self.features[slot * N_FEATURES..(slot + 1) * N_FEATURES]);
    }

    /// The slot of drive `id`, added with `model` and a zero row on its
    /// first observation.
    fn slot_of(&mut self, id: DriveId, model: DriveModel) -> usize {
        if let Some(&s) = self.slots.get(&id.0) {
            return s;
        }
        let s = self.ids.len();
        self.slots.insert(id.0, s);
        self.ids.push(id);
        self.models.push(model);
        self.state.push(RollingFeatures::new());
        self.features.extend(std::iter::repeat_n(0.0, N_FEATURES));
        s
    }

    /// The current feature row for a drive, if it has been observed.
    pub fn features_of(&self, id: DriveId) -> Option<&[f32]> {
        self.slots
            .get(&id.0)
            .map(|&s| &self.features[s * N_FEATURES..(s + 1) * N_FEATURES])
    }

    /// Scores every observed drive's *current* feature row in one batch
    /// call — the service hot path. Returns `(drive, probability)` in
    /// [`ids`](Self::ids) order. Per-drive scores depend only on that
    /// drive's telemetry, so they are independent of drive arrival order
    /// and of the scorer's parallel pool size.
    pub fn predict_fleet_day(&self, scorer: &dyn BatchScorer) -> Vec<(DriveId, f64)> {
        let scores = scorer.predict_rows(&self.features, N_FEATURES);
        self.ids.iter().copied().zip(scores).collect()
    }

    /// [`predict_fleet_day`](Self::predict_fleet_day) as a risk ranking,
    /// highest score first, ties toward the lower drive id: the list
    /// `ssdpredict` prints and each `ssdserve` shard answers top-K
    /// requests from.
    pub fn rank(&self, scorer: &dyn BatchScorer) -> Vec<Ranked> {
        let mut rows: Vec<Ranked> = self
            .predict_fleet_day(scorer)
            .into_iter()
            .zip(&self.models)
            .map(|((id, p), &model)| (id, model, p))
            .collect();
        rows.sort_by(by_risk);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{build_dataset, ExtractOptions};
    use crate::predict::test_support::shared_trace;
    use ssd_ml::{FlatForest, ForestConfig, RandomForest};
    use ssd_types::FleetTrace;

    /// A cheap sub-trace: the first `n` drives of the shared fleet.
    fn sub_trace(n: usize) -> FleetTrace {
        let full = shared_trace();
        let mut t = FleetTrace::new(full.horizon_days);
        t.drives = full.drives.iter().take(n).cloned().collect();
        t
    }

    #[test]
    fn online_rows_match_offline_rows_day_by_day() {
        let trace = sub_trace(40);
        let opts = ExtractOptions {
            negative_sample_rate: 1.0,
            ..Default::default()
        };
        let offline = build_dataset(&trace, &opts);
        let mut fleet = OnlineFleet::new();
        let mut cursor = 0usize;
        for log in trace.drives.iter() {
            for r in &log.reports {
                fleet.observe(log.id, log.model, r);
                let online_row = fleet.features_of(log.id).unwrap();
                assert_eq!(
                    offline.row(cursor),
                    online_row,
                    "drive {} day {}",
                    log.id.0,
                    r.age_days
                );
                cursor += 1;
            }
        }
    }

    #[test]
    fn predict_fleet_day_scores_every_drive_once() {
        let trace = sub_trace(60);
        let opts = ExtractOptions {
            negative_sample_rate: 0.2,
            lookahead_days: 7,
            ..Default::default()
        };
        let data = build_dataset(&trace, &opts);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 10,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        let mut fleet = OnlineFleet::new();
        for log in &trace.drives {
            fleet.observe_drive(log);
        }
        let scored = fleet.predict_fleet_day(&flat);
        assert_eq!(scored.len(), fleet.n_drives());
        let mut seen = std::collections::BTreeSet::new();
        for (id, p) in &scored {
            assert!((0.0..=1.0).contains(p), "drive {}: {p}", id.0);
            assert!(seen.insert(id.0), "drive {} scored twice", id.0);
        }

        // The ranking is the same scores with each drive's model, sorted
        // by (score desc, id asc).
        let ranked = fleet.rank(&flat);
        assert_eq!(ranked.len(), scored.len());
        assert!(ranked.windows(2).all(|w| by_risk(&w[0], &w[1]).is_lt()));
        for &(id, model, p) in &ranked {
            let log = trace.drives.iter().find(|d| d.id == id).unwrap();
            assert_eq!(model, log.model, "drive {}", id.0);
            assert!(scored.contains(&(id, p)), "drive {}", id.0);
        }
    }

    #[test]
    fn interleaved_arrival_matches_drive_major_arrival() {
        let trace = sub_trace(10);
        let drives: Vec<_> = trace.drives.iter().collect();
        let mut drive_major = OnlineFleet::new();
        for log in &drives {
            drive_major.observe_drive(log);
        }
        // Day-major interleaving: day 0 of every drive, then day 1, …
        let mut interleaved = OnlineFleet::new();
        let max_days = drives.iter().map(|l| l.reports.len()).max().unwrap();
        for day in 0..max_days {
            for log in &drives {
                if let Some(r) = log.reports.get(day) {
                    interleaved.observe(log.id, log.model, r);
                }
            }
        }
        for log in &drives {
            assert_eq!(
                drive_major.features_of(log.id),
                interleaved.features_of(log.id),
                "drive {}",
                log.id.0
            );
        }
    }

    #[test]
    fn observe_drive_matches_halves_and_per_report_folds() {
        let trace = sub_trace(40);
        let (mut whole, mut halves, mut per_report) =
            (OnlineFleet::new(), OnlineFleet::new(), OnlineFleet::new());
        for log in trace.drives.iter().filter(|l| l.reports.len() >= 2) {
            whole.observe_drive(log);
            let (head, tail) = log.reports.split_at(log.reports.len() / 2);
            for part in [head, tail] {
                let mut half = log.clone();
                half.reports = part.to_vec();
                halves.observe_drive(&half);
            }
            for r in &log.reports {
                per_report.observe(log.id, log.model, r);
            }
        }
        assert!(whole.n_drives() > 0);
        for other in [&halves, &per_report] {
            assert_eq!(other.ids(), whole.ids());
            assert_eq!(other.models, whole.models);
            for &id in whole.ids() {
                assert_eq!(other.features_of(id), whole.features_of(id), "drive {}", id.0);
            }
        }
    }

    #[test]
    fn empty_log_adds_no_drive() {
        let trace = sub_trace(5);
        let mut fleet = OnlineFleet::new();
        let mut empty = trace.drives[0].clone();
        empty.reports.clear();
        fleet.observe_drive(&empty);
        assert_eq!(fleet.n_drives(), 0);
        assert_eq!(fleet.features_of(empty.id), None);
        let seen = trace.drives.iter().find(|l| !l.reports.is_empty()).unwrap();
        fleet.observe_drive(seen);
        let row = fleet.features_of(seen.id).unwrap().to_vec();
        let mut again = seen.clone();
        again.reports.clear();
        fleet.observe_drive(&again);
        assert_eq!(fleet.n_drives(), 1);
        assert_eq!(fleet.features_of(seen.id), Some(&row[..]));
    }

    #[test]
    fn empty_fleet_scores_empty() {
        let trace = sub_trace(30);
        let opts = ExtractOptions {
            negative_sample_rate: 0.2,
            ..Default::default()
        };
        let data = build_dataset(&trace, &opts);
        let forest = RandomForest::fit(
            &ForestConfig {
                n_trees: 2,
                ..Default::default()
            },
            &data,
            0,
        );
        let flat = FlatForest::from_forest(&forest);
        let fleet = OnlineFleet::new();
        assert!(fleet.predict_fleet_day(&flat).is_empty());
        assert_eq!(fleet.features_of(DriveId(0)), None);
    }
}
