//! Substrate benchmark: fleet generation throughput, the span walker on
//! event-sparse fleets, and trace codec performance.

use ssd_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use ssd_field_study_core::streaming::SummaryAccumulator;
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::codec::{decode_trace, encode_trace, encode_trace_to, TraceDecoder};

fn cfg() -> SimConfig {
    SimConfig {
        drives_per_model: 60,
        horizon_days: 1500,
        seed: 1,
        ..SimConfig::default()
    }
}

/// Event-sparse telemetry: drives report ~0.2% of days (a handful of
/// event-bearing reports over six years), so almost every day is skipped
/// by the span walker. Its byte-identity with the day-by-day oracle on
/// such configs is pinned by the `ssd-sim` unit tests; this config only
/// measures the cost left once skipped days are free.
fn sparse_cfg(drives_per_model: u32) -> SimConfig {
    SimConfig {
        drives_per_model,
        horizon_days: 6 * 365,
        seed: 1,
        report_permille: 2,
    }
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_generation");
    g.sample_size(10);
    g.bench_function("parallel_180_drives", |b| {
        b.iter(|| FleetGen::new(&cfg()).trace())
    });
    g.finish();
}

/// The span walker on an event-sparse fleet, streamed to a null sink so
/// only generation+encoding is measured: with skipped days free, this is
/// the per-drive floor of trait/plan sampling (EXPERIMENTS.md).
fn bench_fastforward(c: &mut Criterion) {
    let cfg = sparse_cfg(500);
    let mut g = c.benchmark_group("fastforward");
    g.sample_size(10);
    g.bench_function("sparse_1500_drives_6y", |b| {
        b.iter(|| FleetGen::new(&cfg).run(&mut std::io::sink()).unwrap())
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let trace = FleetGen::new(&cfg()).trace();
    let encoded = encode_trace(&trace);
    let mut g = c.benchmark_group("trace_codec");
    g.sample_size(10);
    g.bench_function("encode", |b| b.iter(|| encode_trace(&trace)));
    g.bench_function("decode", |b| {
        b.iter_batched(
            || encoded.clone(),
            |bytes| decode_trace(&bytes).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Streaming paths against the resident ones above: encode_stream
    // writes drive-by-drive through the Write-sink encoder, decode_stream
    // folds the whole archive into a summary without materializing drives.
    g.bench_function("encode_stream", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(encoded.len());
            encode_trace_to(&trace, &mut out).unwrap();
            out
        })
    });
    g.bench_function("decode_stream", |b| {
        b.iter(|| {
            let mut dec = TraceDecoder::new(encoded.as_slice()).unwrap();
            let mut acc = SummaryAccumulator::new();
            dec.for_each_drive(|d| acc.observe(d)).unwrap();
            acc.finish()
        })
    });
    g.finish();
}

/// The archive path (each chunk generates its drives into one reused
/// `DriveLog` and encodes each at once) against materializing the whole
/// fleet and then encoding it, at bench scale. The byte-level
/// equivalence of the two is pinned by tests/determinism.rs; this group
/// tracks the perf delta.
fn bench_archive(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_archive");
    g.sample_size(10);
    g.bench_function("archive_180_drives", |b| {
        b.iter(|| FleetGen::new(&cfg()).run_vec())
    });
    g.bench_function("baseline_180_drives", |b| {
        b.iter(|| encode_trace(&FleetGen::new(&cfg()).trace()))
    });
    g.bench_function("stream_180_drives", |b| {
        b.iter(|| {
            let mut sink = std::io::sink();
            FleetGen::new(&cfg()).run(&mut sink).unwrap()
        })
    });
    g.finish();
}

/// Paper-scale throughput: 30k drives × 6 years. Opt-in via
/// `SSD_BENCH_PAPER=1` — one dense iteration takes several seconds, so it
/// is excluded from the standard sweep. `fastforward_sparse_30k_6y`
/// measures the span walker on the event-sparse paper-scale fleet.
fn bench_paper_scale(c: &mut Criterion) {
    if std::env::var("SSD_BENCH_PAPER").map(|v| v != "1").unwrap_or(true) {
        return;
    }
    let cfg = SimConfig::paper_scale(1);
    let mut g = c.benchmark_group("paper_scale");
    g.sample_size(2);
    g.bench_function("archive_30k_6y", |b| {
        b.iter(|| FleetGen::new(&cfg).run_vec())
    });
    let sparse = sparse_cfg(10_000);
    g.bench_function("fastforward_sparse_30k_6y", |b| {
        b.iter(|| FleetGen::new(&sparse).run(&mut std::io::sink()).unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_fastforward,
    bench_codec,
    bench_archive,
    bench_paper_scale,
);
criterion_main!(benches);
