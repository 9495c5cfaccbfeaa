//! # ssd-field-study-core
//!
//! The paper's contribution, reimplemented end to end: the failure-point
//! definition of Section 3, the feature engineering and labeling protocol
//! of Section 5.1, and one module per characterization/prediction
//! experiment.
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Figure 1 | [`characterize::trace_coverage`] |
//! | Table 1 | [`characterize::error_incidence`] ¹ |
//! | Table 2 | [`characterize::correlation_matrix`] |
//! | Table 3 | [`lifecycle::failure_incidence`] ¹ |
//! | Table 4 | [`lifecycle::failure_count_distribution`] ¹ |
//! | Figure 3 | [`lifecycle::time_to_failure_ecdf`] |
//! | Figure 4 | [`lifecycle::non_operational_ecdf`] ¹ |
//! | Figure 5 | [`lifecycle::time_to_repair_ecdf`] ¹ |
//! | Table 5 | [`lifecycle::repair_reentry`] |
//! | Figure 6 | [`aging::failure_age`] |
//! | Figure 7 | [`aging::write_intensity`] |
//! | Figures 8–9 | [`aging::wear_at_failure`] |
//! | Figure 10 | [`errors_analysis::cumulative_error_cdfs`] |
//! | Figure 11 | [`errors_analysis::pre_failure_errors`] |
//! | Table 6 | [`predict::models::model_comparison`] |
//! | Figure 12 | [`predict::sweep::lookahead_sweep`] |
//! | Figure 13 | [`predict::per_model::per_model_roc`] |
//! | Table 7 | [`predict::per_model::transfer_matrix`] |
//! | Figure 14 | [`predict::age_analysis::tpr_by_age`] |
//! | Figure 15 | [`predict::age_analysis::young_old_roc`] |
//! | Figure 16 | [`predict::importance::feature_importance`] |
//! | Table 8 | [`predict::error_pred::error_prediction`] |
//!
//! ¹ One field of [`streaming::summarize`]: the
//! [`streaming::SummaryAccumulator`] fold is the only code computing
//! Tables 1, 3, 4 and Figures 4–5, for resident traces, streamed
//! archives (`ssdstat`) and the `ssdserve` shards alike.
//!
//! (Figure 2 is the schematic failure timeline; its semantics are the
//! state machine in [`failure`].)

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod aging;
pub mod characterize;
pub mod errors_analysis;
pub mod failure;
pub mod features;
pub mod lifecycle;
pub mod observations;
pub mod predict;
mod reentry;
pub mod report;
pub mod serve;
pub mod streaming;

pub use failure::{failure_records, operational_periods, FailureRecord, OperationalPeriod};
pub use features::{
    build_dataset, build_dataset_streaming, feature_names, AgeFilter, ExtractOptions, LabelKind,
    RollingFeatures,
};
pub use predict::online::OnlineFleet;
pub use observations::{audit_model_observations, audit_trace_observations, ObservationCheck};
pub use predict::PredictConfig;
pub use reentry::{reentry_analysis, ReentryAnalysis};
pub use report::{Series, TextTable};
