//! Umbrella crate re-exporting the whole `ssd-field-study` workspace.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cli;

pub use ssd_field_study_core as core;
pub use ssd_ml as ml;
pub use ssd_parallel as parallel;
pub use ssd_sim as sim;
pub use ssd_stats as stats;
pub use ssd_types as types;
