//! Regression tests for the split-finder bugfix sweep that shipped with
//! the pre-sorted column kernel:
//!
//! 1. threshold rounding clamp — midpoints of adjacent f32 values used to
//!    round up onto the right child's value, sending it left at predict
//!    time;
//! 2. non-finite feature rejection at `Dataset::push_row` (NaN broke the
//!    sorted-column total order silently);
//! 3. positive-count passdown — children derive their label counts from
//!    the parent's partition instead of re-counting (a fully-grown tree
//!    must still produce exactly-pure leaves);
//! 4. `validate()` on every config, with a descriptive panic per
//!    degenerate hyperparameter.

use ssd_ml::{Classifier, Dataset, ForestConfig, RandomForest};
use ssd_ml::{DecisionTree, TreeConfig};
use ssd_stats::SplitMix64;

// ---------------------------------------------------------------------
// 1. Threshold rounding clamp: `v_lo <= threshold < v_hi` even when the
//    two split values are adjacent floats and the midpoint rounds up.
// ---------------------------------------------------------------------

/// Adjacent f32 values whose exact midpoint rounds (ties-to-even) to the
/// *upper* value: 1.0 + 1ulp and 1.0 + 2ulp.
fn adjacent_pair() -> (f32, f32) {
    let v_lo = f32::from_bits(0x3F80_0001);
    let v_hi = f32::from_bits(0x3F80_0002);
    assert_eq!(v_hi, f32::from_bits(v_lo.to_bits() + 1));
    (v_lo, v_hi)
}

/// 10 rows at `v_lo` labelled false, 10 rows at `v_hi` labelled true.
fn adjacent_data() -> (Dataset, f32, f32) {
    let (v_lo, v_hi) = adjacent_pair();
    let mut d = Dataset::with_dims(1);
    for i in 0..10 {
        d.push_row(&[v_lo], false, i);
        d.push_row(&[v_hi], true, 10 + i);
    }
    (d, v_lo, v_hi)
}

#[test]
fn tree_threshold_separates_adjacent_floats() {
    let (d, v_lo, v_hi) = adjacent_data();
    let m = DecisionTree::fit(
        &TreeConfig {
            min_samples_split: 2,
            min_samples_leaf: 1,
            ..Default::default()
        },
        &d,
        0,
    );
    // Before the clamp, the learned threshold equalled v_hi, so the
    // `row <= threshold` predicate sent v_hi rows into the all-false left
    // leaf. Both rows must land in their own pure leaf.
    assert_eq!(m.predict_proba(&[v_lo]), 0.0, "v_lo must go left");
    assert_eq!(m.predict_proba(&[v_hi]), 1.0, "v_hi must go right");
}

// ---------------------------------------------------------------------
// 2. Non-finite features are rejected at ingest.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "non-finite feature value")]
fn push_row_rejects_nan() {
    let mut d = Dataset::with_dims(2);
    d.push_row(&[1.0, f32::NAN], true, 0);
}

#[test]
#[should_panic(expected = "non-finite feature value")]
fn push_row_rejects_infinity() {
    let mut d = Dataset::with_dims(2);
    d.push_row(&[f32::INFINITY, 1.0], true, 0);
}

#[test]
#[should_panic(expected = "non-finite feature value")]
fn push_row_rejects_negative_infinity() {
    let mut d = Dataset::with_dims(1);
    d.push_row(&[f32::NEG_INFINITY], false, 0);
}

// ---------------------------------------------------------------------
// 3. Positive-count passdown: a fully-grown tree on distinct feature
//    values must reproduce every training label exactly. If a child's
//    positive count drifted from its true partition count, some "pure"
//    leaf would carry a fractional probability.
// ---------------------------------------------------------------------

#[test]
fn fully_grown_tree_has_exactly_pure_leaves() {
    let mut rng = SplitMix64::new(0xC0DE);
    let mut d = Dataset::with_dims(1);
    for i in 0..64 {
        // Distinct values, labels decoupled from feature order.
        d.push_row(&[i as f32], rng.next_u64() & 1 == 1, i as u32);
    }
    let (pos, neg) = d.class_counts();
    assert!(pos > 0 && neg > 0, "labels degenerate for this seed");
    let m = DecisionTree::fit(
        &TreeConfig {
            max_depth: 64,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
        },
        &d,
        0,
    );
    for i in 0..d.n_rows() {
        let p = m.predict_proba(d.row(i));
        let want = f64::from(u8::from(d.label(i)));
        assert_eq!(p, want, "row {i}: leaf probability {p}, label {want}");
    }
}

// ---------------------------------------------------------------------
// 4. Config validation: each degenerate hyperparameter dies with its own
//    descriptive message, from the public fit entry points.
// ---------------------------------------------------------------------

fn two_class_data() -> Dataset {
    let mut d = Dataset::with_dims(1);
    for i in 0..8 {
        d.push_row(&[i as f32], i >= 4, i as u32);
    }
    d
}

#[test]
#[should_panic(expected = "TreeConfig.max_depth must be >= 1")]
fn tree_rejects_zero_depth() {
    let cfg = TreeConfig {
        max_depth: 0,
        ..Default::default()
    };
    DecisionTree::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "TreeConfig.min_samples_split must be >= 2")]
fn tree_rejects_min_samples_split_below_two() {
    let cfg = TreeConfig {
        min_samples_split: 1,
        ..Default::default()
    };
    DecisionTree::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "TreeConfig.min_samples_leaf must be >= 1")]
fn tree_rejects_zero_min_samples_leaf() {
    let cfg = TreeConfig {
        min_samples_leaf: 0,
        ..Default::default()
    };
    DecisionTree::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "TreeConfig.max_features must be >= 1 when set")]
fn tree_rejects_zero_max_features() {
    let cfg = TreeConfig {
        max_features: Some(0),
        ..Default::default()
    };
    DecisionTree::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "ForestConfig.n_trees must be >= 1")]
fn forest_rejects_zero_trees() {
    let cfg = ForestConfig {
        n_trees: 0,
        ..Default::default()
    };
    RandomForest::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "ForestConfig.bootstrap_fraction must be a finite positive number")]
fn forest_rejects_zero_bootstrap_fraction() {
    let cfg = ForestConfig {
        bootstrap_fraction: 0.0,
        ..Default::default()
    };
    RandomForest::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "ForestConfig.bootstrap_fraction must be a finite positive number")]
fn forest_rejects_nan_bootstrap_fraction() {
    let cfg = ForestConfig {
        bootstrap_fraction: f64::NAN,
        ..Default::default()
    };
    RandomForest::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "above the tree kernel's limit")]
fn forest_rejects_bootstrap_beyond_the_kernel_width() {
    // 8e12 draws overflow the kernel's u32 weights: the fit must refuse
    // with a message before it allocates anything per draw.
    let cfg = ForestConfig {
        bootstrap_fraction: 1e12,
        ..Default::default()
    };
    RandomForest::fit(&cfg, &two_class_data(), 0);
}

#[test]
#[should_panic(expected = "TreeConfig.max_depth must be >= 1")]
fn forest_validates_nested_tree_config() {
    let mut cfg = ForestConfig::default();
    cfg.tree.max_depth = 0;
    RandomForest::fit(&cfg, &two_class_data(), 0);
}

// ---------------------------------------------------------------------
// 5. ROC AUC midrank tie convention: tied score groups take the average
//    of the ranks they span, so a constant scorer is exactly chance.
// ---------------------------------------------------------------------

#[test]
fn auc_of_all_equal_scores_is_exactly_half_despite_imbalance() {
    // 3 positives vs 97 negatives, one constant score: strict `>` ranking
    // would report 0.0 and `>=` would report 1.0; midrank must give 0.5
    // exactly (every positive/negative pair is half-concordant).
    let scores = vec![0.25f64; 100];
    let mut labels = vec![false; 100];
    labels[10] = true;
    labels[50] = true;
    labels[99] = true;
    let auc = ssd_ml::roc_auc(&scores, &labels);
    assert_eq!(auc.to_bits(), 0.5f64.to_bits(), "got {auc}");
    // And the tied ROC curve integrates to the same value: a single
    // diagonal segment from (0,0) to (1,1).
    let curve = ssd_ml::RocCurve::compute(&scores, &labels);
    assert!((curve.auc() - 0.5).abs() < 1e-15);
    assert_eq!(curve.points.len(), 2, "one tie group, one vertex");
}

#[test]
fn auc_midrank_matches_half_credit_on_a_block_tied_group() {
    // One positive scores above everything, one negative below, and the
    // middle block ties one positive with one negative. Concordant pairs:
    // top positive beats both negatives (2), tied positive beats the low
    // negative (1) and half-counts against its tie partner (0.5) →
    // AUC = 3.5 / 4.
    let scores = vec![0.9, 0.5, 0.5, 0.1];
    let labels = vec![true, true, false, false];
    let auc = ssd_ml::roc_auc(&scores, &labels);
    assert!((auc - 0.875).abs() < 1e-15, "got {auc}");
}
