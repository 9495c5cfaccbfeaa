//! Grouped k-fold cross-validation with train-side downsampling —
//! the paper's exact evaluation protocol (Section 5.1):
//!
//! 1. split drive IDs into k groups (no drive straddles train/test);
//! 2. downsample the majority class *of the training fold only* to 1:1
//!    ([`downsample_majority`], which fails with
//!    [`CvError::MissingClass`] when the kept rows lack a class);
//! 3. train, score the untouched (imbalanced) test fold, compute ROC AUC;
//! 4. report the mean ± standard deviation across folds.
//!
//! # One fold pass per batch
//!
//! [`cross_validate_batch`] runs several `(trainer, dataset)`
//! cross-validations together, in two parallel passes on the worker pool:
//!
//! - *prepare*: each distinct dataset (compared by address) is split once,
//!   and each of its folds is prepared once — the complement, the
//!   downsampled training indices, and the check that the test rows hold
//!   both classes (the training rows' check is `downsample_majority`'s).
//!   Every trainer on that dataset reuses them;
//! - *fit*: every `(trainer, fold)` job runs in one parallel map, so the
//!   pool stays busy until the last job of the whole batch rather than
//!   idling at the end of each cross-validation. A job copies its fold's
//!   training and test rows out of the dataset, fits, scores and drops
//!   them, so only the jobs in flight hold row copies.
//!
//! [`cross_validate`] is the one-CV call of the same entry point. The
//! folds are independent and seeded by their index — the downsample by
//! `seed ^ fold·0x9E3779B9`, the fit by `seed + fold`, neither by the
//! trainer — so the fold AUCs are the same for every pool size and every
//! batch a cross-validation runs in, and they come back in fold order.

use crate::classifier::Trainer;
use crate::dataset::Dataset;
use crate::metrics::roc_auc;
use crate::split::{complement, downsample_majority, grouped_kfold};
use ssd_parallel::prelude::*;
use ssd_types::cast::{f64_from_usize, u64_from_usize};

/// Why a dataset cannot be put through the evaluation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CvError {
    /// Fewer than two folds were asked for.
    TooFewFolds {
        /// The requested fold count.
        k: usize,
    },
    /// The dataset has fewer distinct groups (drives) than folds.
    TooFewGroups {
        /// Distinct groups in the dataset.
        groups: usize,
        /// The requested fold count.
        k: usize,
    },
    /// No fold had both classes in its training and test splits.
    NoEvaluableFold {
        /// The fold count.
        k: usize,
    },
    /// Rows that must hold both classes (to train on, or to draw a ROC
    /// curve over) lack one.
    MissingClass {
        /// Positive rows.
        positives: usize,
        /// Negative rows.
        negatives: usize,
    },
}

impl std::fmt::Display for CvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CvError::TooFewFolds { k } => {
                write!(f, "cross-validation needs at least two folds (k = {k})")
            }
            CvError::TooFewGroups { groups, k } => write!(
                f,
                "{k}-fold cross-validation needs at least {k} distinct drives, the dataset has {groups}"
            ),
            CvError::NoEvaluableFold { k } => {
                write!(f, "none of the {k} folds has both classes in its training and test rows")
            }
            CvError::MissingClass { positives, negatives } => write!(
                f,
                "rows need both classes, found {positives} positive / {negatives} negative"
            ),
        }
    }
}

impl std::error::Error for CvError {}

/// Result of a cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CvResult {
    /// Per-fold ROC AUC values.
    pub fold_aucs: Vec<f64>,
}

impl CvResult {
    /// Mean AUC across folds.
    pub fn mean(&self) -> f64 {
        self.fold_aucs.iter().sum::<f64>() / f64_from_usize(self.fold_aucs.len())
    }

    /// Sample standard deviation across folds (0 for a single fold).
    pub fn std_dev(&self) -> f64 {
        let n = self.fold_aucs.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self
            .fold_aucs
            .iter()
            .map(|a| (a - m) * (a - m))
            .sum::<f64>()
            / f64_from_usize(n - 1))
            .sqrt()
    }

    /// Formats as `mean ± std`, the presentation of Table 6.
    pub fn display(&self) -> String {
        format!("{:.3} ± {:.3}", self.mean(), self.std_dev())
    }
}

/// Options for [`cross_validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvOptions {
    /// Number of folds (the paper uses 5).
    pub k: usize,
    /// Negatives-per-positive ratio after training-fold downsampling
    /// (the paper uses 1.0).
    pub downsample_ratio: f64,
    /// Seed for fold assignment, downsampling, and model training.
    pub seed: u64,
}

impl Default for CvOptions {
    fn default() -> Self {
        CvOptions {
            k: 5,
            downsample_ratio: 1.0,
            seed: 0,
        }
    }
}

/// Runs grouped k-fold cross-validation of `trainer` on `data`; fold
/// AUCs come back in fold order.
///
/// Folds whose test split lacks one of the two classes are skipped (this
/// can happen on tiny datasets); at least one fold must be evaluable.
pub fn cross_validate(
    trainer: &dyn Trainer,
    data: &Dataset,
    opts: &CvOptions,
) -> Result<CvResult, CvError> {
    cross_validate_batch(&[(trainer, data)], opts)
        .into_iter()
        .next()
        .unwrap_or(Err(CvError::NoEvaluableFold { k: opts.k }))
}

/// Whether the rows at `indices` hold both classes.
fn both_classes(data: &Dataset, indices: &[usize]) -> bool {
    let pos = indices.iter().filter(|&&i| data.label(i)).count();
    pos > 0 && pos < indices.len()
}

/// The downsampled training rows of fold `fi`, or `None` when the fold's
/// test rows or those training rows lack a class.
fn prepare_fold(data: &Dataset, fold: &[usize], fi: usize, opts: &CvOptions) -> Option<Vec<usize>> {
    if !both_classes(data, fold) {
        return None;
    }
    downsample_majority(
        data,
        &complement(data, fold),
        opts.downsample_ratio,
        opts.seed ^ u64_from_usize(fi).wrapping_mul(0x9E37_79B9),
    )
    .ok()
}

/// Runs several cross-validations as one fold pass (see the module docs)
/// and returns their results in `cvs` order. Each result equals what
/// [`cross_validate`] returns for that pair alone.
///
/// Every dataset in the batch stays resident until it returns; callers
/// bound the batch's memory by how many datasets they put in it.
pub fn cross_validate_batch(
    cvs: &[(&dyn Trainer, &Dataset)],
    opts: &CvOptions,
) -> Vec<Result<CvResult, CvError>> {
    // Distinct datasets, and which one each CV runs on.
    let mut sets: Vec<&Dataset> = Vec::new();
    let set_of: Vec<usize> = cvs
        .iter()
        .map(|&(_, data)| {
            sets.iter()
                .position(|&s| std::ptr::eq(s, data))
                .unwrap_or_else(|| {
                    sets.push(data);
                    sets.len() - 1
                })
        })
        .collect();
    let splits: Vec<Result<Vec<Vec<usize>>, CvError>> = sets
        .iter()
        .map(|data| grouped_kfold(data, opts.k, opts.seed))
        .collect();

    let fold_counts: Vec<usize> = splits
        .iter()
        .map(|s| s.as_ref().map_or(0, Vec::len))
        .collect();
    let fold_ids: Vec<(usize, usize)> = fold_counts
        .iter()
        .enumerate()
        .flat_map(|(si, &n)| (0..n).map(move |fi| (si, fi)))
        .collect();
    let mut prepared = fold_ids
        .par_iter()
        .map(|&(si, fi)| {
            let folds = splits[si].as_ref().ok()?;
            prepare_fold(sets[si], &folds[fi], fi, opts)
        })
        .collect::<Vec<Option<Vec<usize>>>>()
        .into_iter();
    let prepared: Vec<Vec<Option<Vec<usize>>>> = fold_counts
        .iter()
        .map(|&n| prepared.by_ref().take(n).collect())
        .collect();

    let jobs: Vec<(usize, usize)> = set_of
        .iter()
        .enumerate()
        .flat_map(|(ci, &si)| {
            let evaluable = prepared[si].iter().enumerate().filter(|(_, f)| f.is_some());
            evaluable.map(move |(fi, _)| (ci, fi))
        })
        .collect();
    let aucs: Vec<f64> = jobs
        .par_iter()
        .filter_map(|&(ci, fi)| {
            let ((trainer, data), si) = (cvs[ci], set_of[ci]);
            let train = data.select(prepared[si][fi].as_ref()?);
            let test = data.select(&splits[si].as_ref().ok()?[fi]);
            let model = trainer.fit(&train, opts.seed.wrapping_add(u64_from_usize(fi)));
            let scores = model.predict_batch(&test);
            Some(roc_auc(&scores, test.labels()))
        })
        .collect();

    let mut fold_aucs: Vec<Vec<f64>> = vec![Vec::new(); cvs.len()];
    for (&(ci, _), auc) in jobs.iter().zip(aucs) {
        fold_aucs[ci].push(auc);
    }
    fold_aucs
        .into_iter()
        .zip(&set_of)
        .map(|(fold_aucs, &si)| {
            splits[si].as_ref().map_err(Clone::clone)?;
            if fold_aucs.is_empty() {
                return Err(CvError::NoEvaluableFold { k: opts.k });
            }
            Ok(CvResult { fold_aucs })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LogisticRegressionConfig;
    use ssd_stats::SplitMix64;

    /// Imbalanced separable data: ~5% positives, label = x0 > 1.6.
    fn imbalanced(n: usize, seed: u64) -> Dataset {
        let mut rng = SplitMix64::new(seed);
        let mut d = Dataset::with_dims(2);
        for i in 0..n {
            let x = rng.next_f64() * 2.0;
            let noise = rng.next_f64() as f32;
            d.push_row(&[x as f32, noise], x > 1.9, (i / 4) as u32);
        }
        d
    }

    #[test]
    fn cv_produces_k_good_folds() {
        let data = imbalanced(2000, 1);
        let r = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.fold_aucs.len(), 5);
        assert!(r.mean() > 0.95, "mean AUC {}", r.mean());
        assert!(r.std_dev() < 0.1);
    }

    #[test]
    fn cv_is_deterministic() {
        let data = imbalanced(800, 2);
        let o = CvOptions::default();
        let a = cross_validate(&LogisticRegressionConfig::default(), &data, &o).unwrap();
        let b = cross_validate(&LogisticRegressionConfig::default(), &data, &o).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_format() {
        let r = CvResult {
            fold_aucs: vec![0.9, 0.8],
        };
        assert!((r.mean() - 0.85).abs() < 1e-12);
        let s = r.display();
        assert!(s.starts_with("0.850 ±"), "{s}");
    }

    #[test]
    fn single_fold_std_is_zero() {
        let r = CvResult {
            fold_aucs: vec![0.77],
        };
        assert_eq!(r.std_dev(), 0.0);
    }

    #[test]
    fn folds_without_positives_are_skipped() {
        // 10 groups; only groups 0 and 1 carry positives. With k = 5 some
        // test folds have no positive rows and must be skipped, not crash.
        let mut d = Dataset::with_dims(1);
        let mut rng = SplitMix64::new(9);
        for g in 0..10u32 {
            for r in 0..40 {
                let x = rng.next_f64() as f32;
                let label = g < 2 && r % 4 == 0 && x > 0.5;
                d.push_row(&[x + f32::from(u8::from(label))], label, g);
            }
        }
        let r = cross_validate(
            &LogisticRegressionConfig::default(),
            &d,
            &CvOptions {
                k: 5,
                downsample_ratio: 1.0,
                seed: 3,
            },
        )
        .unwrap();
        assert!(r.fold_aucs.len() < 5, "some folds must be skipped");
        assert!(!r.fold_aucs.is_empty());
    }

    #[test]
    fn downsample_ratio_changes_training_balance_not_test() {
        let data = imbalanced(1500, 9);
        let a = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions {
                downsample_ratio: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let b = cross_validate(
            &LogisticRegressionConfig::default(),
            &data,
            &CvOptions {
                downsample_ratio: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        // Both protocols must evaluate on the same (imbalanced) folds and
        // reach comparable AUC on separable data.
        assert_eq!(a.fold_aucs.len(), b.fold_aucs.len());
        assert!((a.mean() - b.mean()).abs() < 0.05);
    }

    #[test]
    fn unusable_datasets_are_typed_errors() {
        let lr = LogisticRegressionConfig::default();
        // 3 drives cannot fill 5 grouped folds.
        let mut few = Dataset::with_dims(1);
        for g in 0..3u32 {
            few.push_row(&[g as f32], g == 0, g);
        }
        assert_eq!(
            cross_validate(&lr, &few, &CvOptions::default()),
            Err(CvError::TooFewGroups { groups: 3, k: 5 })
        );
        let one_fold = CvOptions { k: 1, ..Default::default() };
        assert_eq!(cross_validate(&lr, &few, &one_fold), Err(CvError::TooFewFolds { k: 1 }));
        // Enough drives, but no positive row anywhere.
        let negatives = imbalanced(400, 5);
        let mut none = Dataset::with_dims(2);
        for i in 0..negatives.n_rows() {
            none.push_row(negatives.row(i), false, negatives.group(i));
        }
        let err = cross_validate(&lr, &none, &CvOptions::default()).unwrap_err();
        assert_eq!(err, CvError::NoEvaluableFold { k: 5 });
        assert!(err.to_string().contains("both classes"), "{err}");
    }
}
