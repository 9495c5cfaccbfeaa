//! Feature extraction and lookahead labeling (Section 5.1).
//!
//! "As input, we use each of the workload and error statistics itemized in
//! Section 2. For each of these statistics, we include two values: the
//! value of the statistic on the day of prediction as well as a cumulative
//! count over the course of the drive's lifetime."
//!
//! One dataset row = one reported drive-day. The label marks whether a
//! swap-inducing failure (or, for Table 8, a given error type) occurs
//! within the next `N` days.
//!
//! There is one dataset per label and lookahead. The young/old partitions
//! of Section 5.3 and the per-model partitions of Figure 13 and Table 7
//! are row selections of it ([`age_rows`], [`model_rows`]), never
//! extractions of their own.

use crate::failure::failure_records;
use ssd_ml::Dataset;
use ssd_parallel::prelude::*;
use ssd_stats::SplitMix64;
use ssd_types::source::{TraceReadError, TraceReader};
use ssd_types::{DailyReport, DriveId, DriveLog, DriveModel, ErrorKind, FleetTrace, INFANCY_DAYS};
use std::collections::BTreeMap;

/// Number of features per row.
pub const N_FEATURES: usize = 31;

/// Column of the "drive age" feature (age in days on the row's day).
pub(crate) const AGE_COLUMN: usize = 29;

/// Feature names in column order, matching the paper's labels (Figure 16).
pub fn feature_names() -> Vec<String> {
    let mut names = vec![
        "read count".to_string(),
        "write count".to_string(),
        "erase count".to_string(),
    ];
    for k in ErrorKind::ALL {
        names.push(format!("{} error", k.short_name()));
    }
    names.push("status read only".to_string());
    names.push("cum read count".to_string());
    names.push("cum write count".to_string());
    names.push("cum erase count".to_string());
    for k in ErrorKind::ALL {
        names.push(format!("cum {} error", k.short_name()));
    }
    names.push("pe cycle".to_string());
    names.push("cum bad block count".to_string());
    names.push("drive age".to_string());
    names.push("corr err rate".to_string());
    names
}

/// What event the label marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelKind {
    /// A swap-inducing failure within the next `N` days, *including* the
    /// current day (the failure day itself is the last operational day and
    /// is the paper's canonical positive).
    Swap,
    /// An occurrence of the given error type within the next `N` days,
    /// strictly after the current day (the current day's count is already
    /// a feature — Table 8's error-prediction task from reference \[17\]).
    Error(ErrorKind),
    /// Growth of the grown-bad-block counter within the next `N` days,
    /// strictly after the current day (Table 8, "Bad block" row).
    BadBlock,
}

/// Options for [`build_dataset`]: the lookahead, the label and the
/// negative sampling. They select no drive or age; a partition is a row
/// selection of the built dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractOptions {
    /// Lookahead window `N` in days (`N ≥ 1`).
    pub lookahead_days: u32,
    /// What the label marks.
    pub label: LabelKind,
    /// Keep each *negative* row with this probability (all positives are
    /// kept). ROC metrics are invariant to uniform negative subsampling in
    /// expectation, and this keeps multi-million-day traces in memory.
    pub negative_sample_rate: f64,
    /// Seed for the deterministic negative-sampling hash.
    pub seed: u64,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            lookahead_days: 1,
            label: LabelKind::Swap,
            negative_sample_rate: 0.05,
            seed: 0,
        }
    }
}

/// Incremental per-drive feature state: the cumulative counters that,
/// together with one day's [`DailyReport`], determine that day's
/// 31-column feature row.
///
/// This is the single definition of the paper's rolling feature set.
/// [`build_dataset`] folds it over each drive's history offline;
/// `predict::online::OnlineFleet` folds the *same* state drive-day by
/// drive-day as telemetry streams in, so online and offline feature
/// vectors are equal by construction (pinned by
/// `tests/online_predict.rs`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RollingFeatures {
    read: u64,
    write: u64,
    erase: u64,
    errors: [u64; ErrorKind::COUNT],
}

impl RollingFeatures {
    /// Fresh state for a drive with no observed history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one day's report into the cumulative counters. Call once per
    /// report, in age order, *before* [`write_row`](Self::write_row) for
    /// that day — cumulative columns include the current day, matching
    /// the offline scan.
    pub fn accumulate(&mut self, r: &DailyReport) {
        self.read += r.read_ops;
        self.write += r.write_ops;
        self.erase += r.erase_ops;
        for (k, c) in r.errors.iter() {
            self.errors[k.index()] += c;
        }
    }

    /// Writes the day's feature row (all [`N_FEATURES`] columns — the
    /// buffer may be reused across days without clearing). Panics unless
    /// `row` is exactly [`N_FEATURES`] wide.
    pub fn write_row(&self, r: &DailyReport, row: &mut [f32]) {
        assert_eq!(row.len(), N_FEATURES, "feature row has a fixed width");
        row[0] = r.read_ops as f32;
        row[1] = r.write_ops as f32;
        row[2] = r.erase_ops as f32;
        for (k, c) in r.errors.iter() {
            row[3 + k.index()] = c as f32;
        }
        row[13] = f32::from(u8::from(r.status_read_only));
        row[14] = self.read as f32;
        row[15] = self.write as f32;
        row[16] = self.erase as f32;
        for (i, &c) in self.errors.iter().enumerate() {
            row[17 + i] = c as f32;
        }
        row[27] = r.pe_cycles as f32;
        row[28] = r.bad_blocks() as f32;
        row[AGE_COLUMN] = r.age_days as f32;
        row[30] =
            self.errors[ErrorKind::Correctable.index()] as f32 / (self.read.max(1) as f32);
    }
}

/// Computes the label for the report at index `ri` of `log`.
fn label_for(
    log: &DriveLog,
    ri: usize,
    fail_days: &[u32],
    opts: &ExtractOptions,
) -> bool {
    let age = log.reports[ri].age_days;
    let n = opts.lookahead_days;
    match opts.label {
        LabelKind::Swap => fail_days
            .iter()
            .any(|&f| f >= age && f - age < n),
        LabelKind::Error(kind) => log.reports[ri + 1..]
            .iter()
            .take_while(|r| r.age_days <= age + n)
            .any(|r| r.errors.get(kind) > 0),
        LabelKind::BadBlock => {
            let current = log.reports[ri].grown_bad_blocks;
            log.reports[ri + 1..]
                .iter()
                .take_while(|r| r.age_days <= age + n)
                .any(|r| r.grown_bad_blocks > current)
        }
    }
}

/// Panics on degenerate extraction options; shared by every entry point.
fn validate_options(opts: &ExtractOptions) {
    assert!(opts.lookahead_days >= 1, "lookahead must be at least 1 day");
    assert!(
        (0.0..=1.0).contains(&opts.negative_sample_rate) && opts.negative_sample_rate > 0.0,
        "negative sample rate must be in (0, 1]"
    );
}

/// Emits one drive's labeled rows into `data`; `row` is reusable scratch.
/// Labels need the drive's full history (lookahead), so this is the unit
/// of work for both the resident and streaming builders. Every report
/// draws its keep decision, so whether a row is kept depends only on its
/// drive, its day, its label and the options.
fn extract_drive(log: &DriveLog, opts: &ExtractOptions, row: &mut [f32], data: &mut Dataset) {
    let fail_days: Vec<u32> = failure_records(log).iter().map(|f| f.fail_day).collect();
    // One deterministic sampling stream per drive: row retention does
    // not depend on which other drives are in the trace.
    let mut sampler = SplitMix64::for_stream(opts.seed, u64::from(log.id.0));
    let mut cum = RollingFeatures::new();
    for ri in 0..log.reports.len() {
        let r = &log.reports[ri];
        cum.accumulate(r);
        let label = label_for(log, ri, &fail_days, opts);
        // Sample negatives; always advance the RNG so retention of a
        // given day is independent of the label definition.
        let keep_draw = sampler.next_f64();
        if !label && keep_draw >= opts.negative_sample_rate {
            continue;
        }
        cum.write_row(r, row);
        data.push_row(row, label, log.id.0);
    }
}

/// Whether a row's drive age (its [`AGE_COLUMN`] value) is an infant's,
/// at most [`INFANCY_DAYS`] (the young side of Section 5.3's split).
pub(crate) fn is_young(age_days: f32) -> bool {
    f64::from(age_days) <= f64::from(INFANCY_DAYS)
}

/// Section 5.3's age partitions of `data` as row selections: the rows of
/// young drives, then those of old drives, each ascending. Together they
/// hold every row once.
pub fn age_rows(data: &Dataset) -> [Vec<usize>; 2] {
    let mut rows = [Vec::new(), Vec::new()];
    for i in 0..data.n_rows() {
        rows[usize::from(!is_young(data.row(i)[AGE_COLUMN]))].push(i);
    }
    rows
}

/// The rows of `data` from each drive model's drives in `trace` (the
/// row's group is its drive id), in [`DriveModel::ALL`] order, each
/// ascending. Selecting them equals building the dataset over a trace of
/// that model's drives alone, since each drive samples its own stream.
pub fn model_rows(trace: &FleetTrace, data: &Dataset) -> Vec<Vec<usize>> {
    let model_of: BTreeMap<u32, usize> =
        trace.drives.iter().map(|d| (d.id.0, d.model.index())).collect();
    let mut rows = vec![Vec::new(); DriveModel::ALL.len()];
    for (i, g) in data.groups().iter().enumerate() {
        if let Some(&m) = model_of.get(g) {
            rows[m].push(i);
        }
    }
    rows
}

/// Builds a labeled dataset from a fleet trace.
///
/// Rows are emitted in (drive, day) order; groups carry the drive ID for
/// grouped cross-validation. Deterministic for fixed options. Runs of
/// drives are extracted concurrently and appended in drive order into
/// one allocation of the final size; a drive's rows depend on that drive
/// alone, so the rows do not depend on the pool size.
pub fn build_dataset(trace: &FleetTrace, opts: &ExtractOptions) -> Dataset {
    validate_options(opts);
    let runs: Vec<Dataset> = trace
        .drives
        .par_chunks(trace.drives.len().div_ceil(32).max(1))
        .map(|logs| {
            let mut data = Dataset::new(feature_names());
            let mut row = vec![0f32; N_FEATURES];
            for log in logs {
                extract_drive(log, opts, &mut row, &mut data);
            }
            data
        })
        .collect();
    let mut data = Dataset::new(feature_names());
    data.reserve(runs.iter().map(Dataset::n_rows).sum());
    for run in &runs {
        data.append(run);
    }
    data
}

/// Builds the same dataset as [`build_dataset`] from an opened
/// [`TraceReader`], holding one drive resident at a time — archives never
/// materialize a [`FleetTrace`]. Each drive is validated before
/// extraction, so corrupt-but-decodable input surfaces as a typed error
/// instead of garbage rows.
///
/// Equivalence with the resident path over the same trace is pinned by
/// `tests/online_predict.rs`.
pub fn build_dataset_streaming(
    reader: &mut TraceReader<'_>,
    opts: &ExtractOptions,
) -> Result<Dataset, TraceReadError> {
    validate_options(opts);
    let mut data = Dataset::new(feature_names());
    let mut row = vec![0f32; N_FEATURES];
    let mut log = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    while reader.next_drive_into(&mut log)? {
        log.validate().map_err(TraceReadError::Invalid)?;
        extract_drive(&log, opts, &mut row, &mut data);
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_types::{DailyReport, DriveId, SwapEvent};

    fn active(age: u32) -> DailyReport {
        let mut r = DailyReport::empty(age);
        r.read_ops = 10;
        r.write_ops = 5;
        r
    }

    fn tiny_trace() -> FleetTrace {
        let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
        for age in 0..100 {
            let mut r = active(age);
            r.pe_cycles = age;
            if age == 40 {
                r.errors.set(ErrorKind::Uncorrectable, 3);
            }
            log.reports.push(r);
        }
        log.swaps.push(SwapEvent {
            swap_day: 105,
            reentry_day: None,
        });
        let mut t = FleetTrace::new(200);
        t.drives.push(log);
        t
    }

    fn opts_all() -> ExtractOptions {
        ExtractOptions {
            negative_sample_rate: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn schema_size_matches() {
        assert_eq!(feature_names().len(), N_FEATURES);
        assert_eq!(feature_names()[AGE_COLUMN], "drive age");
    }

    #[test]
    fn one_row_per_report_at_full_sampling() {
        let t = tiny_trace();
        let d = build_dataset(&t, &opts_all());
        assert_eq!(d.n_rows(), 100);
        assert_eq!(d.n_features(), N_FEATURES);
    }

    #[test]
    fn swap_label_marks_final_operational_days() {
        let t = tiny_trace();
        // Failure day = 99 (last active report before swap at 105).
        let opts = ExtractOptions {
            lookahead_days: 3,
            ..opts_all()
        };
        let d = build_dataset(&t, &opts);
        // Rows with age 97, 98, 99 are positive (99 - age < 3).
        let positives: Vec<u32> = (0..d.n_rows())
            .filter(|&i| d.label(i))
            .map(|i| d.row(i)[29] as u32)
            .collect();
        assert_eq!(positives, vec![97, 98, 99]);
    }

    #[test]
    fn cumulative_features_accumulate() {
        let t = tiny_trace();
        let d = build_dataset(&t, &opts_all());
        // Row at age 50: cum read = 51 * 10.
        let idx = (0..d.n_rows()).find(|&i| d.row(i)[29] == 50.0).unwrap();
        assert_eq!(d.row(idx)[14], 510.0);
        // Cum uncorrectable error counts the day-40 burst from then on.
        let cum_ue_col = 17 + ErrorKind::Uncorrectable.index();
        assert_eq!(d.row(idx)[cum_ue_col], 3.0);
        let idx39 = (0..d.n_rows()).find(|&i| d.row(i)[29] == 39.0).unwrap();
        assert_eq!(d.row(idx39)[cum_ue_col], 0.0);
    }

    #[test]
    fn error_label_looks_strictly_ahead() {
        let t = tiny_trace();
        let opts = ExtractOptions {
            lookahead_days: 2,
            label: LabelKind::Error(ErrorKind::Uncorrectable),
            ..opts_all()
        };
        let d = build_dataset(&t, &opts);
        let labels: Vec<(u32, bool)> = (0..d.n_rows())
            .map(|i| (d.row(i)[29] as u32, d.label(i)))
            .collect();
        // UE occurs on day 40: days 38 and 39 are positive; day 40 is NOT
        // (its own count is a feature, not a target).
        assert!(labels.iter().any(|&(a, l)| a == 38 && l));
        assert!(labels.iter().any(|&(a, l)| a == 39 && l));
        assert!(labels.iter().any(|&(a, l)| a == 40 && !l));
        assert!(labels.iter().any(|&(a, l)| a == 41 && !l));
    }

    #[test]
    fn age_rows_partition_rows() {
        let t = tiny_trace();
        let d = build_dataset(&t, &opts_all());
        let [young, old] = age_rows(&d);
        assert_eq!(young.len() + old.len(), 100);
        assert!(young.iter().all(|&i| d.row(i)[AGE_COLUMN] <= 90.0));
        assert!(old.iter().all(|&i| d.row(i)[AGE_COLUMN] > 90.0));
    }

    #[test]
    fn negative_sampling_keeps_positives() {
        let t = tiny_trace();
        let opts = ExtractOptions {
            lookahead_days: 3,
            negative_sample_rate: 0.1,
            ..Default::default()
        };
        let d = build_dataset(&t, &opts);
        let pos = (0..d.n_rows()).filter(|&i| d.label(i)).count();
        assert_eq!(pos, 3, "all positives kept");
        assert!(d.n_rows() < 60, "negatives subsampled: {}", d.n_rows());
        // Deterministic.
        let d2 = build_dataset(&t, &opts);
        assert_eq!(d, d2);
    }

    #[test]
    fn model_rows_select_each_models_drives() {
        let t = tiny_trace(); // single MLC-A drive
        let d = build_dataset(&t, &opts_all());
        let rows = model_rows(&t, &d);
        assert_eq!(rows[DriveModel::MlcA.index()], (0..100).collect::<Vec<usize>>());
        assert!(rows[DriveModel::MlcB.index()].is_empty());
        assert!(rows[DriveModel::MlcD.index()].is_empty());
    }

    #[test]
    fn status_and_derived_columns_are_populated() {
        let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
        let mut r0 = active(0);
        r0.errors.set(ErrorKind::Correctable, 40); // 40 bits over 10 reads
        log.reports.push(r0);
        let mut r1 = active(1);
        r1.status_read_only = true;
        log.reports.push(r1);
        let mut t = FleetTrace::new(10);
        t.drives.push(log);
        let d = build_dataset(&t, &opts_all());
        // Column 13 = status read only; column 30 = corr err rate.
        assert_eq!(d.row(0)[13], 0.0);
        assert_eq!(d.row(1)[13], 1.0);
        // corr err rate at day 0: 40 corrected bits / 10 cumulative reads.
        assert!((d.row(0)[30] - 4.0).abs() < 1e-6, "{}", d.row(0)[30]);
        // At day 1: still 40 bits / 20 reads = 2.0.
        assert!((d.row(1)[30] - 2.0).abs() < 1e-6, "{}", d.row(1)[30]);
    }

    #[test]
    fn groups_carry_drive_ids() {
        let mut t = FleetTrace::new(10);
        for id in [3u32, 9] {
            let mut log = DriveLog::new(DriveId(id), DriveModel::MlcA);
            log.reports.push(active(0));
            t.drives.push(log);
        }
        let d = build_dataset(&t, &opts_all());
        assert_eq!(d.group(0), 3);
        assert_eq!(d.group(1), 9);
    }

    #[test]
    #[should_panic(expected = "lookahead must be at least 1")]
    fn zero_lookahead_is_rejected() {
        let t = tiny_trace();
        build_dataset(
            &t,
            &ExtractOptions {
                lookahead_days: 0,
                ..opts_all()
            },
        );
    }

    #[test]
    fn bad_block_label_detects_growth() {
        let mut log = DriveLog::new(DriveId(0), DriveModel::MlcA);
        for age in 0..10 {
            let mut r = active(age);
            r.grown_bad_blocks = if age >= 5 { 2 } else { 0 };
            log.reports.push(r);
        }
        let mut t = FleetTrace::new(20);
        t.drives.push(log);
        let d = build_dataset(
            &t,
            &ExtractOptions {
                lookahead_days: 2,
                label: LabelKind::BadBlock,
                ..opts_all()
            },
        );
        let labels: Vec<(u32, bool)> = (0..d.n_rows())
            .map(|i| (d.row(i)[29] as u32, d.label(i)))
            .collect();
        // Growth happens between day 4 and 5: days 3 and 4 are positive.
        assert!(labels.iter().any(|&(a, l)| a == 3 && l));
        assert!(labels.iter().any(|&(a, l)| a == 4 && l));
        assert!(labels.iter().any(|&(a, l)| a == 5 && !l));
    }
}
