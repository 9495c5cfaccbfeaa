//! Golden-prediction pins for the tree-family learners and k-NN.
//!
//! The exact scores of `DecisionTree` and `RandomForest` on fixed
//! seeds were captured from the per-node-sorting implementation that
//! predates the pre-sorted column kernel (with the threshold-rounding
//! clamp already applied, since that bugfix intentionally moves thresholds
//! that used to round up onto `v_next`). The rewrite must reproduce them
//! bit-for-bit: same candidate thresholds, same tie handling, same seeded
//! feature draws.
//!
//! The `Knn` scores were captured from the row-at-a-time early-exit scan
//! that predates the lane-blocked scan; both the per-row and the batch
//! path must reproduce them bit-for-bit.
//!
//! Regenerate the constants with
//! `SSD_GOLDEN_PRINT=1 cargo test -p ssd-ml --test goldens -- --nocapture`
//! — but only after convincing yourself the change is *supposed* to move
//! predictions.

use ssd_ml::{Classifier, Dataset, ForestConfig, Knn, KnnConfig, RandomForest};
use ssd_ml::{DecisionTree, TreeConfig};
use ssd_stats::SplitMix64;

/// Deterministic nonlinear train set: 400 rows, 8 features.
fn golden_data() -> Dataset {
    let mut rng = SplitMix64::new(0xD1CE);
    let mut d = Dataset::with_dims(8);
    let mut row = vec![0f32; 8];
    for i in 0..400 {
        for v in row.iter_mut() {
            *v = rng.next_f64() as f32;
        }
        // Nonlinear boundary with ties: quantize two columns to 4 levels.
        row[2] = (row[2] * 4.0).floor() / 4.0;
        row[5] = (row[5] * 4.0).floor() / 4.0;
        let label = (row[0] > 0.5) != (row[2] >= 0.5) || row[7] > 0.9;
        d.push_row(&row, label, i as u32);
    }
    d
}

/// Ten probe rows drawn from the same distribution (different stream).
fn probe_rows() -> Vec<Vec<f32>> {
    let mut rng = SplitMix64::new(0xBEEF);
    (0..10)
        .map(|_| (0..8).map(|_| rng.next_f64() as f32).collect())
        .collect()
}

fn check(name: &str, got: &[f64], want_bits: &[u64]) {
    if std::env::var("SSD_GOLDEN_PRINT").is_ok() {
        let bits: Vec<String> = got.iter().map(|p| format!("0x{:016X}", p.to_bits())).collect();
        println!("{name}: [\n    {},\n]", bits.join(",\n    "));
        return;
    }
    assert_eq!(got.len(), want_bits.len());
    for (i, (&p, &w)) in got.iter().zip(want_bits).enumerate() {
        assert_eq!(
            p.to_bits(),
            w,
            "{name}[{i}]: got {p} (0x{:016X}), want {} (0x{w:016X})",
            p.to_bits(),
            f64::from_bits(w),
        );
    }
}

#[test]
fn decision_tree_scores_are_pinned() {
    let data = golden_data();
    let model = DecisionTree::fit(&TreeConfig::default(), &data, 0);
    let got: Vec<f64> = probe_rows().iter().map(|r| model.predict_proba(r)).collect();
    check("tree", &got, &TREE_GOLDEN);
}

#[test]
fn random_forest_scores_are_pinned() {
    let data = golden_data();
    let cfg = ForestConfig {
        n_trees: 15,
        ..Default::default()
    };
    let model = RandomForest::fit(&cfg, &data, 7);
    let got: Vec<f64> = probe_rows().iter().map(|r| model.predict_proba(r)).collect();
    check("forest", &got, &FOREST_GOLDEN);
}

#[test]
fn knn_scores_are_pinned() {
    let data = golden_data();
    let probes = probe_rows();
    let mut batch = Dataset::with_dims(8);
    for (i, r) in probes.iter().enumerate() {
        batch.push_row(r, false, i as u32);
    }
    for (name, distance_weighted, want) in [
        ("knn_weighted", true, &KNN_WEIGHTED_GOLDEN),
        ("knn_uniform", false, &KNN_UNIFORM_GOLDEN),
    ] {
        let cfg = KnnConfig {
            k: 15,
            distance_weighted,
        };
        let model = Knn::fit(&cfg, &data);
        let got: Vec<f64> = probes.iter().map(|r| model.predict_proba(r)).collect();
        check(name, &got, want);
        check(name, &model.predict_batch(&batch), want);
    }
}

const TREE_GOLDEN: [u64; 10] = [
    0x3FD24924A0000000,
    0x3FF0000000000000,
    0x3FF0000000000000,
    0x3FD5555560000000,
    0x0000000000000000,
    0x3FD24924A0000000,
    0x3FF0000000000000,
    0x3FD5555560000000,
    0x0000000000000000,
    0x3FE99999A0000000,
];

const FOREST_GOLDEN: [u64; 10] = [
    0x3FD3333333333333,
    0x3FEC2464B0000000,
    0x3FD230815BBBBBBC,
    0x3FE3E93E94444444,
    0x3FDEA2426AAAAAAB,
    0x3FDAE147AEEEEEEF,
    0x3FEE52E52EEEEEEF,
    0x3FCDDDDDDDDDDDDE,
    0x3FE493A182222222,
    0x3FE6666666666666,
];

/// k = 15, inverse-distance votes.
const KNN_WEIGHTED_GOLDEN: [u64; 10] = [
    0x3FCF2D30ECDE84FB,
    0x3FEBC0FDD885AB94,
    0x3FDD165931420C48,
    0x3FE4124C982A4733,
    0x3FDA0CC76BE3006F,
    0x3FEC188FE9ADA3F5,
    0x3FE106574AD71FAA,
    0x3FD3EABE6DEC74D1,
    0x3FE4D92DA6867EB4,
    0x3FD8C18C2B5B7565,
];

/// k = 15, uniform votes.
const KNN_UNIFORM_GOLDEN: [u64; 10] = [
    0x3FD1111111111111,
    0x3FEBBBBBBBBBBBBC,
    0x3FDDDDDDDDDDDDDE,
    0x3FE3333333333333,
    0x3FD999999999999A,
    0x3FEBBBBBBBBBBBBC,
    0x3FDDDDDDDDDDDDDE,
    0x3FD5555555555555,
    0x3FE5555555555555,
    0x3FD999999999999A,
];
