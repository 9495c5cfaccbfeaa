//! # ssd-ml
//!
//! From-scratch machine-learning substrate for the SSD field-study
//! reproduction. The paper's Python/scikit-learn stack has no canonical
//! Rust equivalent, so every piece is implemented here:
//!
//! * the six classifier families of Table 6 — [`linear::LogisticRegression`],
//!   [`knn::Knn`], [`linear::LinearSvm`], [`Mlp`],
//!   [`tree::DecisionTree`], and [`forest::RandomForest`] (with MDI feature
//!   importances for Figure 16);
//! * [`FlatForest`], a fitted forest flattened into node arrays for batch
//!   scoring ([`flat`]): the risk scorer of the online pipeline;
//! * the evaluation protocol of Section 5.1 — ROC curves and AUC
//!   ([`metrics`]), and drive-grouped k-fold CV ([`cv`]) whose step 2,
//!   training-side 1:1 downsampling, is [`downsample_majority`]: every
//!   fit trains on the rows it keeps, and it fails with a typed
//!   [`CvError::MissingClass`] when they lack a class.
//!
//! All training is deterministic given a seed, and the parallel paths
//! (cross-validation folds, forest training, batch prediction) are
//! reduction-order stable.

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod classifier;
pub mod cv;
pub mod dataset;
pub mod flat;
pub mod forest;
pub mod knn;
pub mod linear;
pub mod metrics;
mod nn;
pub mod split;
pub mod split_kernel;
pub mod tree;

pub use classifier::{Classifier, Trainer};
pub use cv::{cross_validate, cross_validate_batch, CvError, CvOptions, CvResult};
pub use dataset::{Dataset, Scaler};
pub use flat::{BatchScorer, FlatForest};
pub use forest::{ForestConfig, RandomForest};
pub use knn::{Knn, KnnConfig};
pub use linear::{LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig};
pub use metrics::{roc_auc, roc_auc_weighted, Confusion, RocCurve, RocPoint};
pub use nn::{Mlp, MlpConfig};
pub use split::{downsample_majority, grouped_kfold};
pub use tree::{DecisionTree, TreeConfig};
