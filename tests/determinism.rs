//! Determinism contracts: the whole pipeline is a pure function of
//! (configuration, seed) — independent of thread count and repeatable
//! across runs.

use ssd_field_study::core::{build_dataset, ExtractOptions};
use ssd_field_study::ml::{cross_validate, CvOptions, ForestConfig, Trainer};
use ssd_field_study::parallel::with_threads;
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::codec::encode_trace;
use ssd_field_study::types::FleetTrace;

fn cfg() -> SimConfig {
    SimConfig {
        drives_per_model: 100,
        horizon_days: 1000,
        seed: 31415,
        ..SimConfig::default()
    }
}

/// `FleetGen::trace` run on a one-thread pool: the sequential reference.
fn trace_on_one_thread(cfg: &SimConfig) -> FleetTrace {
    with_threads(1, || FleetGen::new(cfg).trace())
}

#[test]
fn fleet_generation_is_thread_count_independent() {
    let cfg = cfg();
    let parallel = FleetGen::new(&cfg).trace();
    let sequential = trace_on_one_thread(&cfg);
    assert_eq!(parallel, sequential);
    // Byte-identical archives, not just structural equality.
    assert_eq!(encode_trace(&parallel), encode_trace(&sequential));
}

#[test]
fn fleet_generation_is_repeatable_within_and_across_thread_pools() {
    let cfg = cfg();
    let a = FleetGen::new(&cfg).trace();
    let a_bytes = encode_trace(&a);
    // Runs on differently-sized pools must agree byte-for-byte.
    for n_threads in [1, 2, 5] {
        let b = with_threads(n_threads, || FleetGen::new(&cfg).trace());
        assert_eq!(a, b, "pool size {n_threads} changed the fleet");
        assert_eq!(a_bytes, encode_trace(&b));
    }
}

#[test]
fn archive_is_byte_identical_to_encoded_trace_at_every_pool_size() {
    // 50 drives per model, seeded: the chunked archive path must
    // reproduce materializing a FleetTrace on one thread and encoding it,
    // bit for bit, at every pool size.
    let cfg = SimConfig {
        drives_per_model: 50,
        horizon_days: 1000,
        seed: 271828,
        ..SimConfig::default()
    };
    let baseline = encode_trace(&trace_on_one_thread(&cfg));
    assert_eq!(
        FleetGen::new(&cfg).run_vec(),
        baseline,
        "archive path diverged from the encoded trace"
    );
    for n_threads in [1, 2, 5] {
        let archived = with_threads(n_threads, || FleetGen::new(&cfg).run_vec());
        assert_eq!(
            archived, baseline,
            "pool size {n_threads} changed the archive"
        );
    }
}

#[test]
fn streamed_archive_is_byte_identical_to_in_memory_at_every_pool_size() {
    // The Write-sink writer emits waves of chunks as they land; the bytes
    // on the sink must match the in-memory archive (and therefore the
    // encode_trace baseline) at every pool size.
    let cfg = SimConfig {
        drives_per_model: 50,
        horizon_days: 1000,
        seed: 271828,
        ..SimConfig::default()
    };
    let baseline = FleetGen::new(&cfg).run_vec();
    for n_threads in [1, 2, 5] {
        let mut streamed = Vec::new();
        let stats = with_threads(n_threads, || FleetGen::new(&cfg).run(&mut streamed)).unwrap();
        assert_eq!(
            streamed, baseline,
            "pool size {n_threads} changed the streamed archive"
        );
        assert_eq!(stats.bytes, baseline.len() as u64);
        assert_eq!(stats.drives, 150);
    }
}

#[test]
fn datasets_and_models_are_reproducible() {
    let trace = FleetGen::new(&cfg()).trace();
    let opts = ExtractOptions {
        lookahead_days: 2,
        negative_sample_rate: 0.2,
        ..Default::default()
    };
    let d1 = build_dataset(&trace, &opts);
    let d2 = build_dataset(&trace, &opts);
    assert_eq!(d1, d2);

    let forest = ForestConfig {
        n_trees: 12,
        ..Default::default()
    };
    let m1 = forest.fit(&d1, 9);
    let m2 = forest.fit(&d2, 9);
    assert_eq!(m1.predict_batch(&d1), m2.predict_batch(&d1));
}

#[test]
fn cross_validation_is_reproducible() {
    let trace = FleetGen::new(&cfg()).trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 3,
            negative_sample_rate: 0.3,
            ..Default::default()
        },
    );
    let forest = ForestConfig {
        n_trees: 8,
        ..Default::default()
    };
    let opts = CvOptions {
        k: 3,
        downsample_ratio: 1.0,
        seed: 77,
    };
    let a = cross_validate(&forest, &data, &opts);
    let b = cross_validate(&forest, &data, &opts);
    assert_eq!(a, b);
}

#[test]
fn seeds_actually_matter() {
    let mut c1 = cfg();
    let mut c2 = cfg();
    c1.seed = 1;
    c2.seed = 2;
    assert_ne!(FleetGen::new(&c1).trace(), FleetGen::new(&c2).trace());
}
