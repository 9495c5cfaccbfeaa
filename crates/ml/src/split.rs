//! Grouped k-fold splitting and majority-class downsampling.

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

/// Randomly downsamples the majority class among `indices` to achieve
/// `ratio` negatives per positive (ratio 1.0 = the paper's 1:1 balance,
/// Section 5.1). Minority rows are always kept. Returns a new index list.
///
/// If negatives are already at or below the requested ratio the indices
/// are returned unchanged (no upsampling is performed).
pub fn downsample_majority(
    data: &Dataset,
    indices: &[usize],
    ratio: f64,
    seed: u64,
) -> Vec<usize> {
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
    if neg.len() <= want_neg || pos.is_empty() {
        return indices.to_vec();
    }
    // Deterministic partial Fisher–Yates: draw `want_neg` negatives.
    #[expect(
        clippy::disallowed_methods,
        reason = "sampling-entry stream root: the caller owns seed derivation, and re-mixing would change pinned downsamples"
    )]
    let mut rng = SplitMix64::new(seed);
    for i in 0..want_neg {
        let j = i + usize_from_u64(rng.next_bounded(u64_from_usize(neg.len() - i)));
        neg.swap(i, j);
    }
    neg.truncate(want_neg);
    let mut out = pos;
    out.append(&mut neg);
    out.sort_unstable(); // stable downstream iteration order
    out
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
        let ds = downsample_majority(&d, &all, 1.0, 5);
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
        let ds = downsample_majority(&d, &all, 3.0, 5);
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
        let ds = downsample_majority(&d, &all, 1.0, 5);
        assert_eq!(ds, all);
    }
}
