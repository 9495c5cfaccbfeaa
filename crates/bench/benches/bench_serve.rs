//! Fleet-service request benchmarks: one `FleetService` on two shards,
//! timed frame-to-frame.
//!
//! `serve_summary` times the whole-fleet summary query: a lookup of each
//! shard's folded accumulator, the additive merge, and the render.
//! Shard count only partitions the fold done at load, so one shard count
//! stands for all. `serve_topk` times a top-k read of the rankings scored
//! at load, and `serve_mixed_batch` times a 4-query array frame (summary,
//! survival, hazard, top-k) answered from one pass over the shards'
//! views.
//!
//! The `shard_pass` group isolates the per-shard unit under those
//! numbers: one shard's `ShardState::execute` lookup, with no merge or
//! render around it. Reading `shard_pass_*` against `serve_*` separates
//! the view lookup from the merge and render.

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_field_study_core::features::{build_dataset, ExtractOptions};
use ssd_field_study_core::serve::shard::{PassPlan, ShardState};
use ssd_field_study_core::serve::{FleetService, Request, ScorerSpec, ServeConfig};
use ssd_ml::{FlatForest, ForestConfig, RandomForest};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::source::TraceSource;
use std::sync::Arc;

fn bench_cfg() -> SimConfig {
    SimConfig {
        drives_per_model: 150,
        horizon_days: 730,
        seed: 11,
        ..SimConfig::default()
    }
}

fn service() -> FleetService {
    let source = TraceSource::InMemory(FleetGen::new(&bench_cfg()).trace());
    let cfg = ServeConfig {
        shards: 2,
        scorer: ScorerSpec::Forest { trees: 20 },
        lookahead_days: 7,
        sample_rate: 0.5,
        seed: 7,
        ..ServeConfig::default()
    };
    FleetService::load(&source, &cfg).expect("bench fleet loads")
}

fn bench_serve(c: &mut Criterion) {
    // Frame bodies as `FleetService::respond` sees them (the connection
    // loop strips the 4-byte length prefix before this layer).
    let summary = br#"{"q":"summary"}"#;
    let topk = br#"{"q":"topk","k":50}"#;
    let mixed =
        br#"[{"q":"summary"},{"q":"survival"},{"q":"hazard","bin_days":30},{"q":"topk","k":50}]"#;

    let svc = service();
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);
    g.bench_function("serve_summary", |b| {
        b.iter(|| svc.respond(summary).expect("summary responds"))
    });
    g.bench_function("serve_topk", |b| {
        b.iter(|| svc.respond(topk).expect("topk responds"))
    });
    g.bench_function("serve_mixed_batch", |b| {
        b.iter(|| svc.respond(mixed).expect("mixed batch responds"))
    });
    g.finish();
}

/// One shard's `execute()` lookup in isolation: the same fleet dealt
/// round-robin onto two shards exactly as `FleetService::load` does, the
/// same 20-tree flattened forest, but no merge or render. The first
/// top-k plan scores the shard's rankings; the timed passes reuse them,
/// as the service's do.
fn bench_shard_pass(c: &mut Criterion) {
    let sim = bench_cfg();
    let trace = FleetGen::new(&sim).trace();
    let opts = ExtractOptions {
        lookahead_days: 7,
        negative_sample_rate: 0.5,
        seed: 7,
        ..Default::default()
    };
    let data = build_dataset(&trace, &opts);
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 20,
            ..Default::default()
        },
        &data,
        7,
    );
    let scorer: Arc<dyn ssd_ml::BatchScorer> = Arc::new(FlatForest::from_forest(&forest));
    let mut shards = [
        ShardState::new(sim.horizon_days, Some(scorer.clone())),
        ShardState::new(sim.horizon_days, Some(scorer)),
    ];
    for (i, drive) in trace.drives.into_iter().enumerate() {
        shards[i % 2].push_drive(drive);
    }
    let shard = &shards[0];

    let summary = PassPlan::for_requests(&[Request::Summary]);
    let topk = PassPlan::for_requests(&[Request::TopK { k: 50 }]);
    let mixed = PassPlan::for_requests(&[
        Request::Summary,
        Request::Survival,
        Request::Hazard { bin_days: 30 },
        Request::TopK { k: 50 },
    ]);

    let mut g = c.benchmark_group("shard_pass");
    g.sample_size(20);
    g.bench_function("shard_pass_summary", |b| b.iter(|| shard.execute(&summary)));
    g.bench_function("shard_pass_topk", |b| b.iter(|| shard.execute(&topk)));
    g.bench_function("shard_pass_mixed", |b| b.iter(|| shard.execute(&mixed)));
    g.finish();
}

criterion_group!(benches, bench_serve, bench_shard_pass);
criterion_main!(benches);
