//! # ssd-sim
//!
//! Generative SSD fleet simulator — the substitution for the proprietary
//! Google trace studied in *"SSD Failures in the Field"* (SC '19).
//!
//! The paper's data gate (Appendix: the trace is not public) is bridged by
//! a latent-state generative model calibrated to every population statistic
//! the paper publishes:
//!
//! * failure incidence per model (Table 3) and repeat-failure counts
//!   (Table 4) via per-drive hazard processes with an infant-defect
//!   subpopulation;
//! * error-type day-probabilities (Table 1) via per-kind emission models
//!   with an error-prone subpopulation (Figure 10);
//! * the swap/repair lifecycle (Figures 2–5, Table 5) via piecewise-CDF
//!   samplers anchored at the paper's published percentages;
//! * pre-failure error escalation (Figure 11) via a symptomatic-failure
//!   escalation window;
//! * workload and wear (Figures 7–9) via log-normal write intensity with
//!   an infant under-provisioning multiplier and writes-per-P/E accrual.
//!
//! Everything downstream (characterization, ML) consumes only the emitted
//! [`ssd_types::FleetTrace`]; the latent state never leaks, so prediction
//! difficulty is preserved.
//!
//! ## Determinism
//!
//! Every drive's randomness derives from `SplitMix64::for_stream(seed,
//! drive_id)`; fleet generation runs in parallel on `ssd-parallel`'s
//! scoped workers and is bit-identical across thread counts.
//!
//! ## Hot path
//!
//! All fleet generation goes through the [`FleetGen`] builder.
//! [`FleetGen::trace`] materializes an owned [`ssd_types::FleetTrace`] —
//! convenient for analysis, but at paper scale (30k drives × 6 years) the
//! intermediate trace costs gigabytes of reports. When the goal is an
//! encoded archive, [`FleetGen::run`] generates each drive into one
//! [`ssd_types::DriveLog`] reused per drive-id chunk and encodes it
//! immediately, producing the same bytes as `encode_trace(&gen.trace())`
//! without the intermediate fleet (see DESIGN.md §"Simulator
//! internals"). Each drive
//! is emitted by jumping from one scheduled report to the next, so
//! non-reporting days cost O(1) per span (DESIGN.md §13), and
//! [`Sampling::Importance`] oversamples the defective infant
//! subpopulation, recording correcting log-weights in the archive.
//!
//! ```
//! use ssd_sim::{FleetGen, SimConfig};
//!
//! let config = SimConfig {
//!     drives_per_model: 50,
//!     horizon_days: 365,
//!     seed: 1,
//!     ..SimConfig::default()
//! };
//! let trace = FleetGen::new(&config).trace();
//! assert_eq!(trace.n_drives(), 150);
//! trace.validate().unwrap();
//! ```

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod calibration;
pub mod config;
pub mod dist;
pub mod drive;
pub mod errors;
pub mod fleet;
pub mod health;
pub mod workload;

pub use calibration::ModelParams;
pub use config::SimConfig;
pub use drive::{generate_drive_into, DriveGenOptions};
pub use fleet::{ArchiveStats, FleetGen, Sampling};
pub use workload::WearModel;
pub use health::{DriveTraits, LifecyclePlan, PlannedFailure};
