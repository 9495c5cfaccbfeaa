//! Flat-vs-pointer batch scoring benchmarks, plus the online fleet hot
//! path.
//!
//! The `flat_predict` group pits the flattened node-array forest
//! (`ssd_ml::flat`) against the pointer forest it was built from,
//! on the same `forest_50`-scale batch the `score_2k_rows` baseline uses
//! (2k rows × 31 features). `predict_fleet_day` times one whole-fleet
//! scoring call through `OnlineFleet` — the online service hot path.
//! Flat and pointer scores are bit-identical (see
//! `crates/ml/tests/flat_equivalence.rs`); only the cache behavior
//! differs.

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_field_study_core::{build_dataset, ExtractOptions, OnlineFleet};
use ssd_ml::{BatchScorer, Classifier, Dataset, FlatForest, ForestConfig, RandomForest};
use ssd_sim::{FleetGen, SimConfig};
use ssd_stats::SplitMix64;

/// The `forest_50`-scale batch: ~2k rows, 31 features, nonlinear
/// boundary — the same shape as `bench_ml_kernels`' training set.
fn score_set() -> Dataset {
    let mut rng = SplitMix64::new(3);
    let mut d = Dataset::with_dims(31);
    let mut row = vec![0f32; 31];
    for i in 0..2000 {
        for v in row.iter_mut() {
            *v = rng.next_f64() as f32;
        }
        let label = (row[0] > 0.5) != (row[5] > 0.6) || row[29] > 0.9;
        d.push_row(&row, label, i as u32);
    }
    d
}

/// Scores a pointer forest row by row through the trait's default
/// parallel `predict_batch`. The forest's own `predict_batch` flattens
/// first and scores through `ssd_ml::flat`, so this wrapper is what keeps
/// the pointer-tree walk measurable.
struct PointerWalk<'a>(&'a dyn Classifier);

impl Classifier for PointerWalk<'_> {
    fn predict_proba(&self, row: &[f32]) -> f64 {
        self.0.predict_proba(row)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn bench_flat_vs_pointer(c: &mut Criterion) {
    let data = score_set();
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 50,
            ..Default::default()
        },
        &data,
        0,
    );
    let flat_forest = FlatForest::from_forest(&forest);

    let mut g = c.benchmark_group("flat_predict");
    g.sample_size(20);
    g.bench_function("pointer_forest_50", |b| {
        b.iter(|| PointerWalk(&forest).predict_batch(&data))
    });
    g.bench_function("flat_forest", |b| {
        b.iter(|| flat_forest.predict_rows(data.raw_features(), data.n_features()))
    });
    g.finish();
}

fn bench_fleet_day(c: &mut Criterion) {
    // A small fleet's full history feeds the online state; the timed
    // region is exactly one whole-fleet scoring call.
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 400,
        horizon_days: 730,
        seed: 11,
        ..SimConfig::default()
    })
    .trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 7,
            negative_sample_rate: 0.2,
            ..Default::default()
        },
    );
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 50,
            ..Default::default()
        },
        &data,
        0,
    );
    let flat = FlatForest::from_forest(&forest);
    let mut fleet = OnlineFleet::new();
    for log in &trace.drives {
        fleet.observe_drive(log);
    }
    let mut g = c.benchmark_group("flat_predict");
    g.sample_size(20);
    g.bench_function("predict_fleet_day", |b| {
        b.iter(|| fleet.predict_fleet_day(&flat))
    });
    g.finish();
}

criterion_group!(benches, bench_flat_vs_pointer, bench_fleet_day);
criterion_main!(benches);
