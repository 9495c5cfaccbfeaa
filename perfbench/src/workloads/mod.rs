//! The four workloads, each one process's worth of work.

pub(crate) mod archive_scan;
pub(crate) mod predict_online;
pub(crate) mod reproduce;
pub(crate) mod serve_mix;

use crate::trace::{self, NameTotals, Span};
use crate::{metric, Ctx, Metric, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;

pub(crate) fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let wall = Instant::now();
    let mut outcome = match name {
        "archive_scan" => archive_scan::run(ctx),
        "predict_online" => predict_online::run(ctx),
        "serve_mix" => serve_mix::run(ctx),
        "reproduce" => reproduce::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }?;
    if ctx.tracer.enabled() {
        outcome.per_layer.extend(trace_balance(ctx, wall));
    }
    Ok(outcome)
}

/// Per-layer times read from the spans of a traced run.
pub(crate) struct Layers {
    totals: BTreeMap<String, NameTotals>,
    /// Divisor turning totals into per-repetition figures.
    per: f64,
}

impl Layers {
    pub(crate) fn new(spans: &[Span], reps: usize) -> Self {
        Layers {
            totals: trace::totals_by_name(spans),
            per: reps.max(1) as f64,
        }
    }

    /// Self time of every span named `name`, in seconds per repetition.
    pub(crate) fn self_s(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.self_ns as f64) / 1e9 / self.per
    }
}

/// Closes the books on a traced run: writes out the per-span-name table,
/// accounts for the wall time as the workload track's Σ self time plus a
/// remainder, and estimates the recorder's own cost from the span count.
fn trace_balance(ctx: &Ctx, wall: Instant) -> Vec<Metric> {
    let wall_ns = wall.elapsed().as_nanos() as f64;
    let spans = ctx.tracer.take();
    for (name, t) in trace::totals_by_name(&spans) {
        let requests = spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.request)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        println!(
            "# span {name}: count {} total {:.6} s self {:.6} s request ids {requests}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    let (self_sum, _) = trace::track_balance(&spans, 0);
    let overhead_ns = spans.len() as f64 * trace::span_cost_ns();
    println!(
        "# trace: {} spans; main track self time {:.6} s + remainder {:.6} s = wall {:.6} s; \
         estimated tracing overhead {:.6} s",
        spans.len(),
        self_sum as f64 / 1e9,
        (wall_ns - self_sum as f64) / 1e9,
        wall_ns / 1e9,
        overhead_ns / 1e9
    );
    vec![
        metric("trace.wall_s", wall_ns / 1e9, "s"),
        metric("trace.remainder_s", (wall_ns - self_sum as f64) / 1e9, "s"),
        metric("trace.overhead_s", overhead_ns / 1e9, "s"),
    ]
}
