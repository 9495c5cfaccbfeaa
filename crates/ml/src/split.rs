//! Grouped k-fold splitting (step 1 of the evaluation protocol in
//! [`crate::cv`]) and majority-class downsampling of the training rows
//! (step 2): [`downsample_majority`] is the one place that decides which
//! rows a model trains on, and it fails with a typed
//! [`CvError::MissingClass`] when those rows lack a class.

use crate::cv::CvError;
use crate::dataset::Dataset;
use ssd_stats::SplitMix64;
use ssd_types::cast::{u64_from_usize, usize_from_u64};

/// Assigns each *group* (drive ID) to one of `k` folds, then returns the
/// row indices of each fold.
///
/// Partitioning by group rather than by row is the paper's guard against
/// leakage: "we avoid splitting observations for a given drive across the
/// training and testing sets … by partitioning the folds based on drive
/// ID" (Section 5.1).
///
/// Fails when `k < 2` or when the dataset has fewer than `k` distinct
/// groups.
pub fn grouped_kfold(data: &Dataset, k: usize, seed: u64) -> Result<Vec<Vec<usize>>, CvError> {
    if k < 2 {
        return Err(CvError::TooFewFolds { k });
    }
    // Collect distinct groups in first-appearance order (deterministic).
    let mut groups: Vec<u32> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for &g in data.groups() {
        if seen.insert(g) {
            groups.push(g);
        }
    }
    if groups.len() < k {
        return Err(CvError::TooFewGroups { groups: groups.len(), k });
    }
    // Deterministic shuffle of groups, then round-robin into folds so fold
    // sizes differ by at most one group.
    #[expect(
        clippy::disallowed_methods,
        reason = "split-entry stream root: the fold seed arrives pre-derived, and re-mixing would change pinned fold assignments"
    )]
    let mut rng = SplitMix64::new(seed);
    for i in (1..groups.len()).rev() {
        let j = usize_from_u64(rng.next_bounded(u64_from_usize(i + 1)));
        groups.swap(i, j);
    }
    let mut fold_of = std::collections::BTreeMap::new();
    for (i, g) in groups.iter().enumerate() {
        fold_of.insert(*g, i % k);
    }
    let mut folds = vec![Vec::new(); k];
    for i in 0..data.n_rows() {
        folds[fold_of[&data.group(i)]].push(i);
    }
    Ok(folds)
}

/// Complement of a fold: all row indices not in `fold`, ascending.
pub fn complement(data: &Dataset, fold: &[usize]) -> Vec<usize> {
    let mut in_fold = vec![false; data.n_rows()];
    for &i in fold {
        if let Some(m) = in_fold.get_mut(i) {
            *m = true;
        }
    }
    (0..data.n_rows()).filter(|&i| !in_fold[i]).collect()
}

/// Step 2 of the evaluation protocol (Section 5.1): randomly downsamples
/// the majority class among `indices` to `ratio` negatives per positive
/// (ratio 1.0 = the paper's 1:1 balance). Minority rows are always kept,
/// and downsampled rows come back ascending.
///
/// If negatives are already at or below the requested ratio the indices
/// are returned unchanged (no upsampling is performed). Fails with
/// [`CvError::MissingClass`], counting the rows it would keep, when those
/// rows lack a class: no positive or no negative among `indices`, or a
/// `ratio` that rounds the negative target to zero.
pub fn downsample_majority(
    data: &Dataset,
    indices: &[usize],
    ratio: f64,
    seed: u64,
) -> Result<Vec<usize>, CvError> {
    assert!(ratio > 0.0);
    let mut pos: Vec<usize> = Vec::new();
    let mut neg: Vec<usize> = Vec::new();
    for &i in indices {
        if data.label(i) {
            pos.push(i);
        } else {
            neg.push(i);
        }
    }
    #[expect(
        clippy::as_conversions,
        reason = "fractional downsampling target rounded to a whole row count"
    )]
    let want_neg = ((pos.len() as f64) * ratio).round() as usize;
    let keep_neg = if pos.is_empty() { neg.len() } else { want_neg.min(neg.len()) };
    if pos.is_empty() || keep_neg == 0 {
        return Err(CvError::MissingClass { positives: pos.len(), negatives: keep_neg });
    }
    if keep_neg == neg.len() {
        return Ok(indices.to_vec());
    }
    // Deterministic partial Fisher–Yates: draw `keep_neg` negatives.
    #[expect(
        clippy::disallowed_methods,
        reason = "sampling-entry stream root: the caller owns seed derivation, and re-mixing would change pinned downsamples"
    )]
    let mut rng = SplitMix64::new(seed);
    for i in 0..keep_neg {
        let j = i + usize_from_u64(rng.next_bounded(u64_from_usize(neg.len() - i)));
        neg.swap(i, j);
    }
    neg.truncate(keep_neg);
    let mut out = pos;
    out.append(&mut neg);
    out.sort_unstable(); // stable downstream iteration order
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped_data(n_groups: u32, rows_per_group: usize) -> Dataset {
        let mut d = Dataset::with_dims(1);
        for g in 0..n_groups {
            for r in 0..rows_per_group {
                d.push_row(&[r as f32], (g + r as u32).is_multiple_of(7), g);
            }
        }
        d
    }

    #[test]
    fn folds_partition_all_rows() {
        let d = grouped_data(23, 5);
        let folds = grouped_kfold(&d, 5, 42).unwrap();
        let total: usize = folds.iter().map(Vec::len).sum();
        assert_eq!(total, d.n_rows());
        let mut seen = std::collections::BTreeSet::new();
        for f in &folds {
            for &i in f {
                assert!(seen.insert(i), "row {i} in two folds");
            }
        }
    }

    #[test]
    fn groups_never_straddle_folds() {
        let d = grouped_data(23, 5);
        let folds = grouped_kfold(&d, 5, 42).unwrap();
        for (fi, f) in folds.iter().enumerate() {
            for &i in f {
                let g = d.group(i);
                // Every row of group g must be in this same fold.
                for (fj, f2) in folds.iter().enumerate() {
                    if fj != fi {
                        assert!(
                            !f2.iter().any(|&r| d.group(r) == g),
                            "group {g} split across folds {fi} and {fj}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_sizes_are_balanced_in_groups() {
        let d = grouped_data(25, 4);
        let folds = grouped_kfold(&d, 5, 1).unwrap();
        for f in &folds {
            let groups: std::collections::HashSet<u32> =
                f.iter().map(|&i| d.group(i)).collect();
            assert_eq!(groups.len(), 5); // 25 groups / 5 folds
        }
    }

    #[test]
    fn kfold_is_deterministic_and_seed_sensitive() {
        let d = grouped_data(20, 3);
        assert_eq!(grouped_kfold(&d, 4, 9).unwrap(), grouped_kfold(&d, 4, 9).unwrap());
        assert_ne!(grouped_kfold(&d, 4, 9).unwrap(), grouped_kfold(&d, 4, 10).unwrap());
    }

    #[test]
    fn complement_is_exact() {
        let d = grouped_data(10, 2);
        let folds = grouped_kfold(&d, 2, 0).unwrap();
        let c = complement(&d, &folds[0]);
        assert_eq!(c.len() + folds[0].len(), d.n_rows());
        for &i in &c {
            assert!(!folds[0].contains(&i));
        }
    }

    #[test]
    fn downsample_achieves_one_to_one() {
        let mut d = Dataset::with_dims(1);
        for i in 0..100 {
            d.push_row(&[i as f32], i < 10, i);
        }
        let all: Vec<usize> = (0..100).collect();
        let ds = downsample_majority(&d, &all, 1.0, 5).unwrap();
        let pos = ds.iter().filter(|&&i| d.label(i)).count();
        let neg = ds.len() - pos;
        assert_eq!(pos, 10, "all positives kept");
        assert_eq!(neg, 10, "negatives downsampled to 1:1");
    }

    #[test]
    fn downsample_respects_ratio() {
        let mut d = Dataset::with_dims(1);
        for i in 0..110 {
            d.push_row(&[i as f32], i < 10, i);
        }
        let all: Vec<usize> = (0..110).collect();
        let ds = downsample_majority(&d, &all, 3.0, 5).unwrap();
        let neg = ds.iter().filter(|&&i| !d.label(i)).count();
        assert_eq!(neg, 30);
    }

    #[test]
    fn downsample_noop_when_already_balanced() {
        let mut d = Dataset::with_dims(1);
        for i in 0..20 {
            d.push_row(&[i as f32], i % 2 == 0, i);
        }
        let all: Vec<usize> = (0..20).collect();
        let ds = downsample_majority(&d, &all, 1.0, 5).unwrap();
        assert_eq!(ds, all);
    }

    /// `n` rows, the first `n_pos` positive, one group each.
    fn labelled(n: u32, n_pos: u32) -> Dataset {
        let mut d = Dataset::with_dims(1);
        for i in 0..n {
            d.push_row(&[i as f32], i < n_pos, i);
        }
        d
    }

    #[test]
    fn downsample_of_one_class_is_a_typed_error() {
        let negatives = labelled(12, 0);
        let all: Vec<usize> = (0..12).collect();
        assert_eq!(
            downsample_majority(&negatives, &all, 1.0, 5),
            Err(CvError::MissingClass { positives: 0, negatives: 12 })
        );
        let positives = labelled(7, 7);
        let all: Vec<usize> = (0..7).collect();
        assert_eq!(
            downsample_majority(&positives, &all, 1.0, 5),
            Err(CvError::MissingClass { positives: 7, negatives: 0 })
        );
        assert_eq!(
            downsample_majority(&positives, &[], 1.0, 5),
            Err(CvError::MissingClass { positives: 0, negatives: 0 })
        );
    }

    #[test]
    fn a_ratio_that_rounds_the_negatives_to_zero_is_a_typed_error() {
        // 2 positives × 0.2 = 0.4 negatives, which rounds to none.
        let d = labelled(50, 2);
        let all: Vec<usize> = (0..50).collect();
        assert_eq!(
            downsample_majority(&d, &all, 0.2, 5),
            Err(CvError::MissingClass { positives: 2, negatives: 0 })
        );
        // 0.3 rounds 0.6 up to one negative.
        let one = downsample_majority(&d, &all, 0.3, 5).unwrap();
        assert_eq!(one.len(), 3);
    }

    #[test]
    fn downsample_keeps_pinned_rows_in_a_stable_order() {
        // Pinned rows: a shuffled, strided index list with 2 positives
        // (rows 3 and 0) keeps both and the two negatives this seed
        // draws, ascending...
        let d = labelled(40, 4);
        let indices: Vec<usize> = (0..40).rev().step_by(3).collect();
        let kept = downsample_majority(&d, &indices, 1.0, 11).unwrap();
        assert_eq!(kept, vec![0, 3, 30, 39]);
        // ...while rows already within the ratio come back untouched, in
        // the caller's order.
        let d = labelled(40, 30);
        assert_eq!(downsample_majority(&d, &indices, 1.0, 11).unwrap(), indices);
    }
}
