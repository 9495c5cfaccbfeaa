//! Property-based tests for the ML substrate: metric identities, split
//! invariants, and classifier output contracts.

use ssd_ml::split_kernel::{
    binned_best_split_gini, presorted_best_split_gini, reference_best_split_gini,
};
use ssd_ml::{
    downsample_majority, grouped_kfold, roc_auc, Classifier, Confusion, Dataset, DecisionTree,
    ForestConfig, RandomForest, RocCurve, TreeConfig,
};
use ssd_testkit::{assume, for_each_case, for_each_case_filtered, CaseResult, Gen};

/// Scores plus labels guaranteed to contain both classes.
fn scored_labels(g: &mut Gen) -> (Vec<f64>, Vec<bool>) {
    let mut v: Vec<(f64, bool)> = g.vec(4, 199, |g| (g.f64_unit(), g.bool()));
    // Force at least one of each class.
    v[0].1 = true;
    v[1].1 = false;
    v.into_iter().unzip()
}

#[test]
fn auc_is_in_unit_interval() {
    for_each_case("auc_is_in_unit_interval", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let a = roc_auc(&scores, &labels);
        assert!((0.0..=1.0).contains(&a));
    });
}

#[test]
fn auc_label_flip_antisymmetry() {
    for_each_case("auc_label_flip_antisymmetry", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let flipped: Vec<bool> = labels.iter().map(|&l| !l).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&scores, &flipped);
        assert!((a + b - 1.0).abs() < 1e-9, "{a} + {b}");
    });
}

#[test]
fn auc_invariant_under_monotone_score_transform() {
    for_each_case("auc_invariant_under_monotone_score_transform", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let transformed: Vec<f64> = scores.iter().map(|s| (s * 3.0).exp()).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&transformed, &labels);
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    });
}

#[test]
fn rank_auc_equals_curve_auc() {
    for_each_case("rank_auc_equals_curve_auc", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let a = roc_auc(&scores, &labels);
        let b = RocCurve::compute(&scores, &labels).auc();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    });
}

#[test]
fn roc_curve_is_monotone_to_corner() {
    for_each_case("roc_curve_is_monotone_to_corner", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let c = RocCurve::compute(&scores, &labels);
        for w in c.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        let last = c.points.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    });
}

#[test]
fn operating_point_lookup_is_monotone_and_consistent() {
    for_each_case("operating_point_lookup_is_monotone_and_consistent", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let c = RocCurve::compute(&scores, &labels);
        let mut prev = 0.0;
        for max_fpr in [0.0, 0.01, 0.05, 0.1, 0.5, 1.0] {
            let t = c.tpr_at_fpr(max_fpr);
            assert!((0.0..=1.0).contains(&t), "TPR {t} out of range");
            assert!(t >= prev, "lookup must be monotone in the FPR budget");
            // Spec: the best TPR among operating points within budget.
            let best = c
                .points
                .iter()
                .filter(|p| p.fpr <= max_fpr)
                .map(|p| p.tpr)
                .fold(0.0, f64::max);
            assert!((t - best).abs() < 1e-12, "lookup {t} vs best {best} at {max_fpr}");
            prev = t;
        }
        // The whole curve is within an FPR budget of 1.
        assert_eq!(c.tpr_at_fpr(1.0), 1.0);
    });
}

#[test]
fn confusion_counts_partition_samples() {
    for_each_case("confusion_counts_partition_samples", 256, |g| {
        let (scores, labels) = scored_labels(g);
        let thr = g.f64_unit();
        let c = Confusion::at_threshold(&scores, &labels, thr);
        assert_eq!(c.tp + c.fp + c.tn + c.fn_, labels.len());
        assert!((c.tpr() + c.fnr() - 1.0).abs() < 1e-12 || c.tp + c.fn_ == 0);
    });
}

#[test]
fn kfold_partitions_rows_and_respects_groups() {
    for_each_case_filtered("kfold_partitions_rows_and_respects_groups", 256, |g| {
        let n_groups = g.u32_in(6, 30);
        let rows_per_group = g.usize_in(1, 6);
        let k = g.usize_in(2, 6);
        let seed = g.u64();
        assume!(n_groups as usize >= k);
        let mut d = Dataset::with_dims(1);
        for grp in 0..n_groups {
            for r in 0..rows_per_group {
                d.push_row(&[r as f32], r % 2 == 0, grp);
            }
        }
        let folds = grouped_kfold(&d, k, seed).unwrap();
        let total: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(total, d.n_rows());
        // Each group appears in exactly one fold.
        for grp in 0..n_groups {
            let holders = folds
                .iter()
                .filter(|f| f.iter().any(|&i| d.group(i) == grp))
                .count();
            assert_eq!(holders, 1, "group {grp} in {holders} folds");
        }
        CaseResult::Ran
    });
}

#[test]
fn downsampling_keeps_all_positives_and_ratio() {
    for_each_case("downsampling_keeps_all_positives_and_ratio", 256, |g| {
        let n_pos = g.usize_in(1, 30);
        let n_neg = g.usize_in(30, 200);
        let ratio = g.f64_in(0.5, 4.0);
        let seed = g.u64();
        let mut d = Dataset::with_dims(1);
        for i in 0..(n_pos + n_neg) {
            d.push_row(&[i as f32], i < n_pos, i as u32);
        }
        let all: Vec<usize> = (0..d.n_rows()).collect();
        let kept = downsample_majority(&d, &all, ratio, seed).unwrap();
        let kept_pos = kept.iter().filter(|&&i| d.label(i)).count();
        let kept_neg = kept.len() - kept_pos;
        assert_eq!(kept_pos, n_pos, "positives must all be kept");
        let want = ((n_pos as f64) * ratio).round() as usize;
        assert!(kept_neg == want.min(n_neg), "{} vs {}", kept_neg, want.min(n_neg));
    });
}

/// One generated feature column of `n` values, of a kind picked to land
/// on either side of the kernel's 256-distinct-value binning cut and on
/// the boundary cases of the split scan.
fn kernel_column(g: &mut Gen, n: usize) -> Vec<f32> {
    match g.usize_in(0, 6) {
        // Continuous: (almost surely) all distinct.
        0 => (0..n).map(|_| g.f64_unit() as f32).collect(),
        // Heavy ties: 1-4 quantized levels.
        1 => {
            let lv = g.usize_in(1, 4) as f64;
            (0..n).map(|_| ((g.f64_unit() * lv).floor() / lv) as f32).collect()
        }
        // Exactly 256 or 257 distinct values (fewer on small cases), each
        // present at least once, in shuffled row order.
        2 => {
            let k = if g.bool() { 256 } else { 257 }.min(n);
            let step = g.f64_in(0.001, 3.0) as f32;
            let mut col: Vec<f32> = (0..n)
                .map(|i| if i < k { i } else { g.usize_in(0, k - 1) })
                .map(|c| c as f32 * step - 7.0)
                .collect();
            for i in (1..n).rev() {
                col.swap(i, g.usize_in(0, i));
            }
            col
        }
        // Signed zeros beside their nearest neighbours.
        3 => {
            let tiny = f32::from_bits(1);
            let pool = [-0.0, 0.0, tiny, -tiny, 0.5, -0.5];
            (0..n).map(|_| *g.choose(&pool)).collect()
        }
        // Adjacent f32 values, where the midpoint threshold clamps.
        4 => {
            let base = 0x3F80_0001 + g.u32_in(0, 1);
            (0..n).map(|_| f32::from_bits(base + g.u32_in(0, 2))).collect()
        }
        // Constant column: never splittable.
        5 => vec![g.f64_in(-2.0, 2.0) as f32; n],
        // Continuous with a few repeats (a low-cardinality mass point).
        _ => (0..n)
            .map(|_| if g.ratio(0.3) { 1.0 } else { g.f64_unit() as f32 })
            .collect(),
    }
}

/// Random dataset for kernel-equivalence checks: up to 4 columns of mixed
/// kinds ([`kernel_column`]) on either a small node (6-60 rows) or a
/// larger one (257-600 rows, so a column can exceed the binning cut),
/// plus bootstrap-style index lists with duplicate rows.
fn kernel_case(g: &mut Gen) -> (Dataset, Vec<usize>) {
    let n = if g.bool() { g.usize_in(6, 60) } else { g.usize_in(257, 600) };
    let d = g.usize_in(1, 4);
    let cols: Vec<Vec<f32>> = (0..d).map(|_| kernel_column(g, n)).collect();
    let mut data = Dataset::with_dims(d);
    let mut row = vec![0f32; d];
    for i in 0..n {
        for (v, col) in row.iter_mut().zip(&cols) {
            *v = col[i];
        }
        data.push_row(&row, g.bool(), i as u32);
    }
    // Half the cases fit on a bootstrap-style resample (duplicates!).
    let indices: Vec<usize> = if g.bool() {
        (0..n).map(|_| g.usize_in(0, n - 1)).collect()
    } else {
        (0..n).collect()
    };
    (data, indices)
}

#[test]
fn presorted_gini_split_matches_naive_reference() {
    for_each_case("presorted_gini_split_matches_naive_reference", 512, |g| {
        let (data, indices) = kernel_case(g);
        let min_leaf = g.usize_in(1, 4);
        let want = reference_best_split_gini(&data, &indices, min_leaf);
        let finders = [
            ("presorted", presorted_best_split_gini(&data, &indices, min_leaf)),
            ("binned", binned_best_split_gini(&data, &indices, min_leaf)),
        ];
        for (name, got) in finders {
            match (&want, &got) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.feature, b.feature, "{name} feature: {a:?} vs {b:?}");
                    let (ta, tb) = (a.threshold.to_bits(), b.threshold.to_bits());
                    assert_eq!(ta, tb, "{name}: {a:?} vs {b:?}");
                    assert_eq!(a.split_at, b.split_at, "{name}: {a:?} vs {b:?}");
                    // Every path evaluates the identical count arithmetic.
                    assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{name}: {a:?} vs {b:?}");
                }
                _ => panic!("split disagreement: reference {want:?}, {name} {got:?}"),
            }
        }
    });
}

#[test]
fn tree_fit_on_repeated_rows_matches_fit_on_materialised_sample() {
    // The row layout weights each distinct row by its multiplicity; the
    // oracle fits the same draws as a dataset with one row per draw. Both
    // must grow the same tree, bit for bit.
    for_each_case(
        "tree_fit_on_repeated_rows_matches_fit_on_materialised_sample",
        256,
        |g| {
            let n = if g.bool() {
                g.usize_in(6, 60)
            } else {
                g.usize_in(257, 400)
            };
            let d = g.usize_in(1, 5);
            let cols: Vec<Vec<f32>> = (0..d).map(|_| kernel_column(g, n)).collect();
            let mut data = Dataset::with_dims(d);
            let mut row = vec![0f32; d];
            for i in 0..n {
                for (v, col) in row.iter_mut().zip(&cols) {
                    *v = col[i];
                }
                data.push_row(&row, g.bool(), i as u32);
            }
            // Draws over the whole dataset, or over as few as 1-8 rows so
            // multiplicities get large.
            let pool: Vec<usize> = if g.bool() {
                (0..n).collect()
            } else {
                (0..g.usize_in(1, 9)).map(|_| g.usize_in(0, n)).collect()
            };
            let m = g.usize_in(1, 2 * n + 1);
            let indices: Vec<usize> = (0..m).map(|_| *g.choose(&pool)).collect();
            let cfg = TreeConfig {
                max_depth: g.usize_in(1, 9),
                min_samples_split: g.usize_in(2, 13),
                min_samples_leaf: g.usize_in(1, 7),
                max_features: if g.bool() {
                    None
                } else {
                    Some(g.usize_in(1, d + 1))
                },
            };
            let seed = g.u64();
            let weighted = DecisionTree::fit_on(&cfg, &data, &indices, seed);
            let oracle = DecisionTree::fit(&cfg, &data.select(&indices), seed);
            assert_eq!(weighted.n_nodes(), oracle.n_nodes(), "{cfg:?}");
            let bits = |t: &DecisionTree| -> Vec<u64> {
                t.raw_importances().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&weighted), bits(&oracle), "importances under {cfg:?}");
            for i in 0..n {
                let (a, b) = (
                    weighted.predict_proba(data.row(i)),
                    oracle.predict_proba(data.row(i)),
                );
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "row {i} under {cfg:?}: {a} vs {b}"
                );
            }
        },
    );
}

#[test]
fn forest_predictions_identical_across_pool_sizes() {
    // Per-worker scratch reuse must not leak state between trees: the
    // fitted forest is a function of (config, data, seed) only, never of
    // how trees were packed onto workers.
    let mut rng = ssd_stats::SplitMix64::new(0xF0_4E57);
    let mut d = Dataset::with_dims(3);
    let mut row = vec![0f32; 3];
    for i in 0..250 {
        for v in row.iter_mut() {
            *v = rng.next_f64() as f32;
        }
        row[1] = (row[1] * 3.0).floor() / 3.0; // ties
        d.push_row(&row, row[0] + row[1] > 1.0, i as u32);
    }
    let cfg = ForestConfig {
        n_trees: 12,
        ..Default::default()
    };
    let fit_and_score = |threads: usize| {
        ssd_parallel::with_threads(threads, || {
            let m = RandomForest::fit(&cfg, &d, 11);
            (m.predict_batch(&d), m.feature_importances().to_vec())
        })
    };
    let (scores_1, imp_1) = fit_and_score(1);
    for threads in [2, 5] {
        let (scores, imp) = fit_and_score(threads);
        let same = scores.iter().zip(&scores_1).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "pool size {threads} changed forest predictions");
        assert_eq!(imp, imp_1, "pool size {threads} changed importances");
    }
}

#[test]
fn forest_with_both_column_kinds_identical_across_pool_sizes() {
    // 700 rows: two continuous columns (sorted) beside a 3-level, a
    // 40-level and a 256-level column (binned), so parallel fits exercise
    // both scans and binned winners partitioning sorted orders.
    let mut rng = ssd_stats::SplitMix64::new(0xB1_4A7D);
    let mut d = Dataset::with_dims(5);
    for i in 0..700 {
        let a = rng.next_f64() as f32;
        let b = rng.next_f64() as f32;
        let c3 = (rng.next_f64() * 3.0).floor() as f32;
        let c40 = (rng.next_f64() * 40.0).floor() as f32;
        let c256 = (i % 256) as f32;
        let label = a + c3 / 3.0 + c40 / 80.0 > 1.2 || (c256 < 4.0 && b > 0.5);
        d.push_row(&[a, c3, b, c40, c256], label, i as u32);
    }
    let cfg = ForestConfig {
        n_trees: 12,
        ..Default::default()
    };
    let fit_and_score = |threads: usize| {
        ssd_parallel::with_threads(threads, || {
            let m = RandomForest::fit(&cfg, &d, 11);
            (m.predict_batch(&d), m.feature_importances().to_vec())
        })
    };
    let (scores_1, imp_1) = fit_and_score(1);
    assert!(imp_1.iter().all(|&v| v > 0.0), "every column should win splits: {imp_1:?}");
    for threads in [2, 5] {
        let (scores, imp) = fit_and_score(threads);
        let same = scores.iter().zip(&scores_1).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "pool size {threads} changed forest predictions");
        assert_eq!(imp, imp_1, "pool size {threads} changed importances");
    }
}

#[test]
fn tree_probabilities_are_valid_and_pure_leaves_exact() {
    for_each_case("tree_probabilities_are_valid_and_pure_leaves_exact", 256, |g| {
        let rows: Vec<(f32, bool)> = g.vec(10, 119, |g| (g.f64_unit() as f32, g.bool()));
        let mut d = Dataset::with_dims(1);
        for (i, (x, l)) in rows.iter().enumerate() {
            d.push_row(&[*x], *l, i as u32);
        }
        let t = DecisionTree::fit(&TreeConfig::default(), &d, 1);
        for i in 0..d.n_rows() {
            let p = t.predict_proba(d.row(i));
            assert!((0.0..=1.0).contains(&p));
        }
        // Importances are a probability vector (or all zero for stumps).
        let imp = t.feature_importances();
        let s: f64 = imp.iter().sum();
        assert!(s.abs() < 1e-9 || (s - 1.0).abs() < 1e-9);
    });
}
