//! # ssd-stats
//!
//! Statistics substrate for the SSD field-study reproduction.
//!
//! The paper's characterization sections are built from a small set of
//! statistical primitives, all implemented here from scratch:
//!
//! * [`summary`] — streaming means/variances (Welford) and summaries.
//! * [`mod@quantile`] — quantiles with linear interpolation (R type-7) and
//!   quartiles (Figure 7's shaded bands).
//! * [`ecdf`] — empirical CDFs, including *censored* ECDFs with a mass at
//!   infinity (the "∞" bars of Figures 3 and 5).
//! * [`rank`] — tie-aware fractional ranking.
//! * [`correlation`] — Pearson and Spearman correlation and full matrices
//!   (Table 2); Spearman is rank-then-Pearson, so it detects arbitrary
//!   monotone relationships.
//! * [`hazard`] — exposure-normalized event rates (the dashed failure-rate
//!   curves of Figures 6 and 8, where raw counts must be normalized by the
//!   number of drives at risk in each bin).
//! * [`survival`] — Kaplan–Meier product-limit estimation for the
//!   right-censored durations of Figures 3 and 5, and two-sample
//!   Kolmogorov–Smirnov separation tests.
//! * [`rng`] — a tiny, dependency-free SplitMix64 generator used wherever
//!   a consumer needs deterministic randomness (sampling, shuffling,
//!   stream splitting).

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod correlation;
pub mod ecdf;
pub mod hazard;
pub mod quantile;
pub mod rank;
pub mod rng;
pub mod summary;
pub mod survival;

pub use correlation::{pearson, spearman, spearman_matrix};
pub use ecdf::Ecdf;
pub use hazard::BinnedRate;
pub use quantile::{quantile, quartiles};
pub use rank::fractional_ranks;
pub use rng::SplitMix64;
pub use summary::Summary;
pub use survival::{ks_p_value, ks_statistic, Duration, KaplanMeier};
