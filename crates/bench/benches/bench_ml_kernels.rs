//! ML-substrate micro-benchmarks: training and scoring kernels for each
//! of the six classifier families, a forest fit on imbalanced
//! mixed-cardinality data, batch scoring of one cross-validation fold,
//! plus the ROC/AUC metric.

use ssd_bench::{criterion_group, criterion_main, Criterion};
use ssd_ml::{
    roc_auc, Dataset, ForestConfig, KnnConfig, LinearSvmConfig,
    LogisticRegressionConfig, MlpConfig, Trainer, TreeConfig,
};
use ssd_stats::SplitMix64;

/// Balanced synthetic training set shaped like a downsampled fold:
/// ~2k rows, 31 features, nonlinear boundary.
fn train_set() -> Dataset {
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

/// Imbalanced drive-day-shaped training set: ~50k rows, ~0.6 % positives,
/// 31 columns of mixed cardinality — 12 continuous (more than 256
/// distinct values) beside 19 sparse counts and flags (at most a few
/// dozen distinct values), like the per-kind error counts and status bits
/// of the prediction dataset.
fn imbalanced_set() -> Dataset {
    let mut rng = SplitMix64::new(5);
    let mut d = Dataset::with_dims(31);
    let mut row = vec![0f32; 31];
    for i in 0..50_000 {
        for v in &mut row[..12] {
            *v = (rng.next_f64() * 5000.0).floor() as f32;
        }
        for v in &mut row[12..30] {
            *v = if rng.next_f64() < 0.05 {
                (-(1.0 - rng.next_f64()).ln() * 3.0).floor().min(40.0) as f32
            } else {
                0.0
            };
        }
        row[30] = f32::from(u8::from(rng.next_f64() < 0.02));
        let p = 0.002 + 0.15 * f64::from(u8::from(row[12] > 2.0)) + 0.05 * f64::from(row[30]);
        d.push_row(&row, rng.next_f64() < p, i as u32);
    }
    d
}

fn bench_training(c: &mut Criterion) {
    let data = train_set();
    let mut g = c.benchmark_group("train_2k_rows");
    g.sample_size(10);
    let trainers: Vec<(&str, Box<dyn Trainer>)> = vec![
        ("logistic", Box::new(LogisticRegressionConfig::default())),
        ("svm", Box::new(LinearSvmConfig::default())),
        ("knn_fit", Box::new(KnnConfig::default())),
        ("mlp", Box::new(MlpConfig { epochs: 20, ..Default::default() })),
        ("tree", Box::new(TreeConfig::default())),
        (
            "forest_50",
            Box::new(ForestConfig {
                n_trees: 50,
                ..Default::default()
            }),
        ),
    ];
    for (name, t) in &trainers {
        g.bench_function(*name, |b| b.iter(|| t.fit(&data, 0)));
    }
    g.finish();
}

fn bench_imbalanced_training(c: &mut Criterion) {
    let data = imbalanced_set();
    let forest = ForestConfig {
        n_trees: 30,
        ..Default::default()
    };
    let mut g = c.benchmark_group("train_imbalanced");
    g.sample_size(10);
    g.bench_function("forest_30", |b| b.iter(|| forest.fit(&data, 0)));
    g.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let data = train_set();
    let forest = ForestConfig {
        n_trees: 50,
        ..Default::default()
    }
    .fit(&data, 0);
    let knn = KnnConfig::default().fit(&data, 0);
    let mut g = c.benchmark_group("score_2k_rows");
    g.sample_size(10);
    g.bench_function("forest_50", |b| b.iter(|| forest.predict_batch(&data)));
    g.bench_function("knn", |b| b.iter(|| knn.predict_batch(&data)));
    g.finish();
}

/// One mixed-cardinality row: 12 continuous columns and 19 sparse counts
/// and flags. Positive rows draw their counts more often and larger.
fn fold_row(rng: &mut SplitMix64, positive: bool, row: &mut [f32]) {
    let (rate, scale) = if positive { (0.3, 6.0) } else { (0.05, 3.0) };
    for v in &mut row[..12] {
        *v = (rng.next_f64() * 5000.0).floor() as f32;
    }
    for v in &mut row[12..30] {
        *v = if rng.next_f64() < rate {
            (-(1.0 - rng.next_f64()).ln() * scale).floor().min(40.0) as f32
        } else {
            0.0
        };
    }
    row[30] = f32::from(u8::from(rng.next_f64() < if positive { 0.2 } else { 0.02 }));
}

/// A cross-validation fold shaped like Table 6's at a 7-day lookahead:
/// a 1:1 downsampled training set of ~5.5k rows and an imbalanced test
/// set of ~45k rows with ~1.5 % positives, over 31 mixed-cardinality
/// columns.
fn cv_fold() -> (Dataset, Dataset) {
    let mut rng = SplitMix64::new(7);
    let mut row = vec![0f32; 31];
    let mut train = Dataset::with_dims(31);
    for i in 0..5_500 {
        let positive = i % 2 == 0;
        fold_row(&mut rng, positive, &mut row);
        train.push_row(&row, positive, i as u32);
    }
    let mut test = Dataset::with_dims(31);
    for i in 0..45_000 {
        let positive = rng.next_f64() < 0.015;
        fold_row(&mut rng, positive, &mut row);
        test.push_row(&row, positive, i as u32);
    }
    (train, test)
}

fn bench_cv_fold_scoring(c: &mut Criterion) {
    let (train, test) = cv_fold();
    let mut g = c.benchmark_group("score_cv_fold");
    g.sample_size(10);
    // Fits happen inside the closures so a filtered-out run skips them;
    // only the batch scoring (forest flattening included) is timed.
    g.bench_function("knn", |b| {
        let knn = KnnConfig::default().fit(&train, 0);
        b.iter(|| knn.predict_batch(&test))
    });
    g.bench_function("forest_100", |b| {
        let forest = ForestConfig::default().fit(&train, 0);
        b.iter(|| forest.predict_batch(&test))
    });
    g.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut rng = SplitMix64::new(9);
    let n = 200_000;
    let scores: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let labels: Vec<bool> = scores.iter().map(|&s| rng.next_f64() < s).collect();
    c.benchmark_group("metrics")
        .sample_size(20)
        .bench_function("roc_auc_200k", |b| b.iter(|| roc_auc(&scores, &labels)));
}

criterion_group!(
    benches,
    bench_training,
    bench_imbalanced_training,
    bench_scoring,
    bench_cv_fold_scoring,
    bench_metrics
);
criterion_main!(benches);
