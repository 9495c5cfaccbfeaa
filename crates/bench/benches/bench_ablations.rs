//! Ablation benches for the design choices DESIGN.md calls out:
//! forest size, tree depth, downsampling ratio, and daily-only vs
//! cumulative-only feature sets. Each variant reports its wall-clock (the
//! Criterion measurement) and prints its cross-validated AUC once, so the
//! accuracy/cost trade-off is visible in one run.
//!
//! All work happens inside the `bench_function` closures, which the
//! harness skips for ids a filter excludes: `-- forest_size` builds the
//! dataset once and fits only the three forest-size variants.

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_field_study_core::{build_dataset, ExtractOptions, PredictConfig};
use ssd_ml::{cross_validate, CvOptions, Dataset, ForestConfig};
use ssd_sim::{FleetGen, SimConfig};
use std::sync::OnceLock;

/// The configuration every sweep starts from.
fn bench_predict_config() -> PredictConfig {
    PredictConfig::fast(8080)
}

fn dataset() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let trace = FleetGen::new(&SimConfig {
            drives_per_model: 120,
            horizon_days: 1500,
            seed: 9090,
            ..SimConfig::default()
        })
        .trace();
        build_dataset(
            &trace,
            &ExtractOptions {
                lookahead_days: 1,
                negative_sample_rate: 0.04,
                ..Default::default()
            },
        )
    })
}

fn bench_forest_size(c: &mut Criterion) {
    let cfg = bench_predict_config();
    let mut g = c.benchmark_group("ablation_forest_size");
    g.sample_size(10);
    for n_trees in [10usize, 50, 150] {
        let forest = ForestConfig {
            n_trees,
            ..Default::default()
        };
        g.bench_function(format!("n_trees_{n_trees}"), |b| {
            let data = dataset();
            let auc = cross_validate(&forest, data, &cfg.cv).unwrap().mean();
            eprintln!("[ablation] n_trees={n_trees}: AUC {auc:.3}");
            b.iter(|| cross_validate(&forest, data, &cfg.cv).unwrap())
        });
    }
    g.finish();
}

fn bench_tree_depth(c: &mut Criterion) {
    let cfg = bench_predict_config();
    let mut g = c.benchmark_group("ablation_tree_depth");
    g.sample_size(10);
    for depth in [4usize, 10, 20] {
        let mut forest = cfg.forest.clone();
        forest.tree.max_depth = depth;
        g.bench_function(format!("max_depth_{depth}"), |b| {
            let data = dataset();
            let auc = cross_validate(&forest, data, &cfg.cv).unwrap().mean();
            eprintln!("[ablation] max_depth={depth}: AUC {auc:.3}");
            b.iter(|| cross_validate(&forest, data, &cfg.cv).unwrap())
        });
    }
    g.finish();
}

fn bench_downsampling_ratio(c: &mut Criterion) {
    let cfg = bench_predict_config();
    let mut g = c.benchmark_group("ablation_downsample_ratio");
    g.sample_size(10);
    // The paper tested ratios beyond 1:1 and saw "miniscule improvements
    // or overall reductions in performance" (Section 5.1).
    for ratio in [1.0f64, 3.0, 10.0] {
        let opts = CvOptions {
            downsample_ratio: ratio,
            ..cfg.cv
        };
        g.bench_function(format!("neg_per_pos_{ratio}"), |b| {
            let data = dataset();
            let auc = cross_validate(&cfg.forest, data, &opts).unwrap().mean();
            eprintln!("[ablation] ratio=1:{ratio}: AUC {auc:.3}");
            b.iter(|| cross_validate(&cfg.forest, data, &opts).unwrap())
        });
    }
    g.finish();
}

/// Daily-only vs cumulative-only feature sets (Section 5.1 motivates
/// including both; this quantifies each half's contribution).
fn bench_feature_sets(c: &mut Criterion) {
    let cfg = bench_predict_config();
    // Columns 0..=13 are daily features (+ the age column 29 as context);
    // columns 14..=30 are cumulative/derived.
    let project = |cols: &[usize]| {
        let data = dataset();
        let names: Vec<String> = cols
            .iter()
            .map(|&j| data.feature_names()[j].clone())
            .collect();
        let mut out = Dataset::new(names);
        let mut row = Vec::with_capacity(cols.len());
        for i in 0..data.n_rows() {
            row.clear();
            let full = data.row(i);
            row.extend(cols.iter().map(|&j| full[j]));
            out.push_row(&row, data.label(i), data.group(i));
        }
        out
    };
    let daily: Vec<usize> = (0..=13).collect();
    let cumulative: Vec<usize> = (14..=30).collect();
    let mut g = c.benchmark_group("ablation_feature_sets");
    g.sample_size(10);
    for (name, cols) in [("daily_only", daily), ("cumulative_only", cumulative)] {
        g.bench_function(name, |b| {
            let proj = project(&cols);
            let auc = cross_validate(&cfg.forest, &proj, &cfg.cv).unwrap().mean();
            eprintln!("[ablation] features={name}: AUC {auc:.3}");
            b.iter(|| cross_validate(&cfg.forest, &proj, &cfg.cv).unwrap())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_forest_size,
    bench_tree_depth,
    bench_downsampling_ratio,
    bench_feature_sets
);
criterion_main!(benches);
