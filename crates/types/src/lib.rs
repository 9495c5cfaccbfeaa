//! # ssd-types
//!
//! Data model for SSD field telemetry, mirroring the log schema described in
//! Section 2 of *"SSD Failures in the Field: Symptoms, Causes, and Prediction
//! Models"* (SC '19).
//!
//! The trace consists of **daily performance logs** for three MLC SSD models
//! collected over six years. Each drive is identified by a hashed serial
//! number ([`DriveId`]); for each day of operation a [`DailyReport`] records
//! workload counters (reads, writes, erases), cumulative program–erase
//! cycles, status flags, bad-block counts, and per-day counts for ten error
//! types ([`ErrorKind`]). Separately, **swap events** ([`SwapEvent`]) mark
//! the moments failed drives are extracted for repair.
//!
//! The types in this crate are the interchange boundary of the whole
//! workspace: the simulator (`ssd-sim`) produces them, and every analysis
//! in `ssd-field-study-core` consumes them. A user with access to a real
//! field trace can deserialize it into these types (all types are
//! JSON-enabled via the in-tree [`json`] module and a compact binary codec
//! is provided in [`codec`]) and run the identical analyses.
//!
//! ## Layout
//!
//! * [`id`] — drive identifiers.
//! * [`model`] — the three MLC drive models (MLC-A, MLC-B, MLC-D).
//! * [`error_kind`] — the ten-error taxonomy and the transparent /
//!   non-transparent split.
//! * [`counts`] — dense per-day error counters indexed by [`ErrorKind`].
//! * [`report`] — the daily report record.
//! * [`swap`] — swap (repair-extraction) events.
//! * [`log`] — a single drive's full history and fleet-level traces.
//! * [`codec`] — compact binary serialization for large traces, resident
//!   and streaming ([`codec::TraceDecoder`] / [`codec::TraceEncoder`]).
//! * [`source`] — uniform [`source::TraceSource`] / [`source::TraceReader`]
//!   access over archive / JSON / CSV / in-memory traces.
//! * [`json`] — minimal JSON writer/parser and conversion traits (the
//!   workspace builds offline, so this replaces `serde`/`serde_json`).
//! * [`cast`] — checked numeric conversions with the source type spelled
//!   out, for the `as`-free code `clippy::as_conversions` asks of `sim`
//!   and `ml`.

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod cast;
pub mod codec;
pub mod counts;
pub mod csv;
pub mod error_kind;
pub mod id;
pub mod json;
pub mod log;
pub mod model;
pub mod report;
pub mod source;
pub mod swap;

pub use counts::ErrorCounts;
pub use error_kind::{ErrorClass, ErrorKind};
pub use id::DriveId;
pub use log::{DriveLog, FleetTrace};
pub use model::DriveModel;
pub use report::DailyReport;
pub use swap::SwapEvent;

/// Number of days in a (simulation) year. The paper reports durations in
/// days, months, and years; we use the 365-day convention throughout.
pub const DAYS_PER_YEAR: u32 = 365;

/// Number of days in a (simulation) month, following the paper's convention
/// of 30-day months when bucketing drive age.
pub const DAYS_PER_MONTH: u32 = 30;

/// Longest accepted observation horizon: a century of daily reports per
/// drive, far past the paper's six years yet small enough that buffers
/// sized by the horizon stay a few MiB. `ssdgen` refuses to generate past
/// it and every [`source::TraceSource`] refuses to read past it.
pub const MAX_HORIZON_DAYS: u32 = 100 * DAYS_PER_YEAR;

/// Age boundary (days) between *infant* ("young") and *mature* ("old")
/// drives. Section 4.1 identifies a ~90-day high-mortality infancy period
/// and all young/old splits in the paper use this boundary.
pub const INFANCY_DAYS: u32 = 90;

/// Manufacturer P/E-cycle endurance limit for all three drive models
/// (Section 2: "For our drive models, this limit is 3000 cycles").
pub const PE_CYCLE_LIMIT: u32 = 3000;
