//! The daily performance report record (Section 2 of the paper).

use crate::counts::ErrorCounts;

/// One day of drive activity, as reported in the error log.
///
/// Field-for-field this mirrors the metrics enumerated in Section 2:
/// a timestamp (here: whole days since the beginning of the drive's
/// lifetime), daily read/write/erase operation counts, the cumulative P/E
/// cycle count, two status flags (dead, read-only), factory and grown
/// bad-block counts (both cumulative), and the per-day error counters.
///
/// Days on which the drive reports nothing (complete failure, or simply
/// missing from the log) have **no** `DailyReport`; absence of a report is
/// itself a signal used by the failure-point definition in Section 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DailyReport {
    /// Drive age in whole days at the time of this report (day 0 = first
    /// day of the drive's lifetime). The original log reports microseconds
    /// since lifetime start; daily summaries make days the natural unit.
    pub age_days: u32,
    /// Number of read operations performed during this day.
    pub read_ops: u64,
    /// Number of write operations performed during this day.
    pub write_ops: u64,
    /// Number of erase operations performed during this day.
    pub erase_ops: u64,
    /// Cumulative program–erase cycles over the drive's lifetime.
    pub pe_cycles: u32,
    /// Status flag: the drive has died.
    pub status_dead: bool,
    /// Status flag: the drive is operating in read-only mode.
    pub status_read_only: bool,
    /// Cumulative count of factory bad blocks (non-operational at purchase).
    pub factory_bad_blocks: u32,
    /// Cumulative count of grown bad blocks (blocks retired after a
    /// non-transparent error occurred in them).
    pub grown_bad_blocks: u32,
    /// Counts of each error type that occurred during this day.
    pub errors: ErrorCounts,
}

crate::impl_json_struct!(DailyReport {
    age_days,
    read_ops,
    write_ops,
    erase_ops,
    pe_cycles,
    status_dead,
    status_read_only,
    factory_bad_blocks,
    grown_bad_blocks,
    errors,
});

impl DailyReport {
    /// A blank report for a given age with all counters zero.
    pub fn empty(age_days: u32) -> Self {
        DailyReport {
            age_days,
            read_ops: 0,
            write_ops: 0,
            erase_ops: 0,
            pe_cycles: 0,
            status_dead: false,
            status_read_only: false,
            factory_bad_blocks: 0,
            grown_bad_blocks: 0,
            errors: ErrorCounts::zero(),
        }
    }

    /// Total cumulative bad blocks (factory + grown).
    #[inline]
    pub fn bad_blocks(&self) -> u32 {
        self.factory_bad_blocks + self.grown_bad_blocks
    }

    /// True if the drive serviced any read or write operations this day.
    ///
    /// Section 3 defines *inactivity* as "an absence of read or write
    /// operations provisioned to the drive"; a run of inactive days before
    /// a swap marks the soft removal from production.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.read_ops > 0 || self.write_ops > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_kind::ErrorKind;

    #[test]
    fn empty_report_is_inactive_and_errorless() {
        let r = DailyReport::empty(10);
        assert_eq!(r.age_days, 10);
        assert!(!r.is_active());
        assert_eq!(r.errors.total(), 0);
        assert_eq!(r.bad_blocks(), 0);
    }

    #[test]
    fn activity_requires_reads_or_writes() {
        let mut r = DailyReport::empty(0);
        r.erase_ops = 100; // erases alone do not count as provisioned work
        assert!(!r.is_active());
        r.read_ops = 1;
        assert!(r.is_active());
        r.read_ops = 0;
        r.write_ops = 1;
        assert!(r.is_active());
    }

    #[test]
    fn bad_blocks_sums_factory_and_grown() {
        let mut r = DailyReport::empty(0);
        r.factory_bad_blocks = 3;
        r.grown_bad_blocks = 4;
        assert_eq!(r.bad_blocks(), 7);
    }

    #[test]
    fn serde_roundtrip() {
        let mut r = DailyReport::empty(42);
        r.write_ops = 1_000_000;
        r.errors.set(ErrorKind::Uncorrectable, 9);
        let json = crate::json::to_string(&r);
        let back: DailyReport = crate::json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
