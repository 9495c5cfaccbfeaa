//! Reusable columnar arena for hot-path report emission.
//!
//! The baseline generation path materializes a `Vec<DailyReport>` per
//! drive — at paper scale (30k drives × 6 years) that is tens of millions
//! of array-of-structs reports and one fresh multi-hundred-kilobyte
//! allocation per drive. [`ReportArena`] replaces that with one
//! struct-of-arrays buffer per worker: each report field lives in its own
//! column, drives fill the columns in place via the
//! [`ReportSink`] trait, and
//! [`columns`](ReportArena::columns) hands the varint codec a borrowed
//! [`ReportColumns`] view to serialize from directly — no intermediate
//! fleet-sized trace ever exists. Cleared between drives, the arena's
//! buffers stay warm for the lifetime of the worker.

use crate::drive::ReportSink;
use ssd_types::codec::{ReportColumns, STATUS_DEAD, STATUS_READ_ONLY};
use ssd_types::{DailyReport, ErrorKind, SwapEvent};

/// Columnar scratch buffers holding one drive's reports at a time.
///
/// One column per telemetry counter in the paper's Table 1 schema (see
/// DESIGN.md §"Simulator internals" for the field-by-field mapping). The
/// arena implements [`ReportSink`], so
/// [`generate_drive_into`](crate::generate_drive_into) can emit straight
/// into it; [`clear`](ReportArena::clear) resets the lengths without
/// releasing capacity.
#[derive(Debug, Default)]
pub struct ReportArena {
    age_days: Vec<u32>,
    read_ops: Vec<u64>,
    write_ops: Vec<u64>,
    erase_ops: Vec<u64>,
    pe_cycles: Vec<u32>,
    status_flags: Vec<u8>,
    factory_bad_blocks: Vec<u32>,
    grown_bad_blocks: Vec<u32>,
    errors: [Vec<u64>; ErrorKind::COUNT],
    swaps: Vec<SwapEvent>,
    log_weight: f64,
}

impl ReportArena {
    /// An empty arena with no reserved capacity.
    pub fn new() -> Self {
        ReportArena::default()
    }

    /// An arena pre-sized for `reports` rows per column, avoiding growth
    /// reallocation during the first drive.
    pub fn with_capacity(reports: usize) -> Self {
        let mut a = ReportArena::default();
        a.reserve(reports);
        a
    }

    /// Number of buffered reports.
    pub fn len(&self) -> usize {
        self.age_days.len()
    }

    /// True when no reports are buffered.
    pub fn is_empty(&self) -> bool {
        self.age_days.is_empty()
    }

    /// Drops all buffered reports and swaps, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.age_days.clear();
        self.read_ops.clear();
        self.write_ops.clear();
        self.erase_ops.clear();
        self.pe_cycles.clear();
        self.status_flags.clear();
        self.factory_bad_blocks.clear();
        self.grown_bad_blocks.clear();
        for col in &mut self.errors {
            col.clear();
        }
        self.swaps.clear();
        self.log_weight = 0.0;
    }

    /// The buffered drive's importance-sampling log-weight (`0.0` unless
    /// the generator reported one via [`ReportSink::weight`]).
    pub fn log_weight(&self) -> f64 {
        self.log_weight
    }

    /// Borrowed struct-of-arrays view over the buffered reports, ready for
    /// [`encode_drive_soa`](ssd_types::codec::encode_drive_soa).
    pub fn columns(&self) -> ReportColumns<'_> {
        ReportColumns {
            age_days: &self.age_days,
            read_ops: &self.read_ops,
            write_ops: &self.write_ops,
            erase_ops: &self.erase_ops,
            pe_cycles: &self.pe_cycles,
            status_flags: &self.status_flags,
            factory_bad_blocks: &self.factory_bad_blocks,
            grown_bad_blocks: &self.grown_bad_blocks,
            errors: std::array::from_fn(|i| self.errors[i].as_slice()),
        }
    }

    /// The buffered swap events, in emission order.
    pub fn swaps(&self) -> &[SwapEvent] {
        &self.swaps
    }
}

impl ReportSink for ReportArena {
    fn reserve(&mut self, additional: usize) {
        self.age_days.reserve(additional);
        self.read_ops.reserve(additional);
        self.write_ops.reserve(additional);
        self.erase_ops.reserve(additional);
        self.pe_cycles.reserve(additional);
        self.status_flags.reserve(additional);
        self.factory_bad_blocks.reserve(additional);
        self.grown_bad_blocks.reserve(additional);
        for col in &mut self.errors {
            col.reserve(additional);
        }
    }

    fn weight(&mut self, log_weight: f64) {
        self.log_weight = log_weight;
    }

    fn report(&mut self, r: &DailyReport) {
        self.age_days.push(r.age_days);
        self.read_ops.push(r.read_ops);
        self.write_ops.push(r.write_ops);
        self.erase_ops.push(r.erase_ops);
        self.pe_cycles.push(r.pe_cycles);
        self.status_flags.push(
            u8::from(r.status_dead) * STATUS_DEAD
                | u8::from(r.status_read_only) * STATUS_READ_ONLY,
        );
        self.factory_bad_blocks.push(r.factory_bad_blocks);
        self.grown_bad_blocks.push(r.grown_bad_blocks);
        for (i, (_, count)) in r.errors.iter().enumerate() {
            self.errors[i].push(count);
        }
    }

    fn swap(&mut self, s: SwapEvent) {
        self.swaps.push(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::ModelParams;
    use crate::drive::{generate_drive_into, DriveGenOptions};
    use ssd_stats::SplitMix64;
    use ssd_types::codec::encode_drive_soa;
    use ssd_types::{DriveId, DriveLog, DriveModel};

    #[test]
    fn arena_emission_matches_drive_log() {
        let params = ModelParams::for_model(DriveModel::MlcA);
        let opts = DriveGenOptions::default();
        let mut log = DriveLog::new(DriveId(7), DriveModel::MlcA);
        generate_drive_into(&params, 1500, &opts, &mut SplitMix64::for_stream(3, 7), &mut log);
        let mut arena = ReportArena::new();
        generate_drive_into(&params, 1500, &opts, &mut SplitMix64::for_stream(3, 7), &mut arena);

        assert_eq!(arena.len(), log.reports.len());
        let cols = arena.columns();
        for (i, r) in log.reports.iter().enumerate() {
            assert_eq!(cols.age_days[i], r.age_days);
            assert_eq!(cols.read_ops[i], r.read_ops);
            assert_eq!(cols.pe_cycles[i], r.pe_cycles);
            assert_eq!(cols.status_flags[i] & STATUS_DEAD != 0, r.status_dead);
            assert_eq!(cols.status_flags[i] & STATUS_READ_ONLY != 0, r.status_read_only);
        }
        assert_eq!(arena.swaps(), log.swaps.as_slice());

        // And the encoded bytes agree with the owned-log encoder.
        let mut soa = Vec::new();
        encode_drive_soa(&mut soa, log.id, log.model, arena.log_weight(), cols, arena.swaps());
        let trace = ssd_types::FleetTrace {
            horizon_days: 1500,
            drives: vec![log],
        };
        let full = ssd_types::codec::encode_trace(&trace);
        assert_eq!(&full[full.len() - soa.len()..], soa.as_slice());
    }

    #[test]
    fn clear_retains_capacity() {
        let params = ModelParams::for_model(DriveModel::MlcB);
        let mut arena = ReportArena::with_capacity(64);
        // Some streams plan a drive that never reports; find one that does.
        for stream in 0..16 {
            arena.clear();
            generate_drive_into(
                &params,
                800,
                &DriveGenOptions::default(),
                &mut SplitMix64::for_stream(1, stream),
                &mut arena,
            );
            if !arena.is_empty() {
                break;
            }
        }
        assert!(!arena.is_empty());
        let cap = arena.age_days.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.swaps().len(), 0);
        assert_eq!(arena.age_days.capacity(), cap);
    }
}
