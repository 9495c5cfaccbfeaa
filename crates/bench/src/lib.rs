//! Kernel micro-benchmarks and hyperparameter ablations.
//!
//! The bench targets time the kernels under the end-to-end workloads:
//! fleet generation and the archive codec (`bench_sim`), ML training and
//! batch scoring (`bench_ml_kernels`), flat ensemble inference
//! (`bench_flat_predict`) and the fleet service (`bench_serve`).
//! `bench_ablations` sweeps the forest and dataset hyperparameters and
//! prints each variant's AUC. Per-artifact timings come from the
//! `reproduce` workload's traced layers in `perfbench`. The [`harness`]
//! module provides the in-tree Criterion-compatible timing shim the bench
//! targets link against.

#![deny(missing_docs)]

pub mod harness;

pub use harness::{BatchSize, Bencher, BenchmarkGroup, Criterion};
