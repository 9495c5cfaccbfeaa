//! Figures 14–15: age-dependent predictive performance (Section 5.3).
//!
//! The paper discovers that infant failures are fundamentally more
//! predictable: TPR at conservative thresholds is far higher for drives
//! under three months old (Figure 14), young-vs-old ROC curves separate
//! (Figure 15), and training separate young/old models yields
//! 0.970 vs 0.890 AUC.

use super::PredictConfig;
use crate::features::{age_rows, is_young, AGE_COLUMN};
use crate::report::Series;
use ssd_ml::split::complement;
use ssd_ml::{grouped_kfold, Classifier, CvError, Dataset, RocCurve};
use ssd_types::{FleetTrace, DAYS_PER_MONTH};

/// Held-out scores from one grouped train/test split.
struct HeldOut {
    scores: Vec<f64>,
    labels: Vec<bool>,
    ages_days: Vec<f32>,
}

/// Fits the forest on the complement of fold 0 and scores fold 0. Fails
/// when those training rows lack a class (a fleet without failures).
fn held_out_scores(data: &Dataset, config: &PredictConfig) -> Result<HeldOut, CvError> {
    let folds = grouped_kfold(data, config.cv.k, config.cv.seed)?;
    let model = config.fit_forest(data, &complement(data, &folds[0]))?;
    let test = data.select(&folds[0]);
    let scores = model.predict_batch(&test);
    Ok(HeldOut {
        labels: test.labels().to_vec(),
        ages_days: (0..test.n_rows()).map(|i| test.row(i)[AGE_COLUMN]).collect(),
        scores,
    })
}

/// Figure 14: true positive rate per age month at several probability
/// thresholds.
#[derive(Debug, Clone)]
pub struct TprByAge {
    /// One series per threshold: (age month, TPR among positives of that
    /// age).
    pub series: Vec<Series>,
}

/// Runs Figure 14 (thresholds as in the paper's figure legend). Fails
/// when the dataset has fewer drives than folds or the held-out split's
/// training rows lack a class.
pub fn tpr_by_age(
    trace: &FleetTrace,
    config: &PredictConfig,
    thresholds: &[f64],
) -> Result<TprByAge, CvError> {
    let data = config.dataset(trace, 1);
    let held = held_out_scores(&data, config)?;
    let n_months = 30usize; // the figure spans 0..30 months
    let series = thresholds
        .iter()
        .map(|&thr| {
            let mut tp = vec![0u32; n_months];
            let mut pos = vec![0u32; n_months];
            for ((&s, &l), &age) in held
                .scores
                .iter()
                .zip(&held.labels)
                .zip(&held.ages_days)
            {
                if !l {
                    continue;
                }
                let m = (age / DAYS_PER_MONTH as f32) as usize;
                if m >= n_months {
                    continue;
                }
                pos[m] += 1;
                if s >= thr {
                    tp[m] += 1;
                }
            }
            let pts: Vec<(f64, f64)> = (0..n_months)
                .filter(|&m| pos[m] > 0)
                .map(|m| (m as f64, f64::from(tp[m]) / f64::from(pos[m])))
                .collect();
            Series::new(format!("threshold {thr:.2}"), pts)
        })
        .collect();
    Ok(TprByAge { series })
}

/// Figure 15 plus the separately-trained AUCs of Section 5.3.
#[derive(Debug, Clone)]
pub struct YoungOldRoc {
    /// ROC over young-drive rows of a jointly trained model.
    pub young_curve: Series,
    /// ROC over old-drive rows of a jointly trained model.
    pub old_curve: Series,
    /// AUC over young rows (joint model).
    pub young_auc: f64,
    /// AUC over old rows (joint model).
    pub old_auc: f64,
    /// Cross-validated AUC of a model trained *only* on young rows
    /// (paper: 0.970 ± 0.005).
    pub young_trained_auc: (f64, f64),
    /// Cross-validated AUC of a model trained *only* on old rows
    /// (paper: 0.890 ± 0.005).
    pub old_trained_auc: (f64, f64),
}

/// Runs Figure 15 and the partitioned-training comparison. Fails when a
/// dataset cannot be cross-validated or a held-out age partition lacks a
/// class.
pub fn young_old_roc(trace: &FleetTrace, config: &PredictConfig) -> Result<YoungOldRoc, CvError> {
    let data = config.dataset(trace, 1);
    let held = held_out_scores(&data, config)?;
    let mut split: [(Vec<f64>, Vec<bool>); 2] =
        [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    for ((&s, &l), &age) in held.scores.iter().zip(&held.labels).zip(&held.ages_days) {
        let slot = usize::from(!is_young(age));
        split[slot].0.push(s);
        split[slot].1.push(l);
    }
    let curve_of = |scores: &[f64], labels: &[bool], name: &str| {
        let positives = labels.iter().filter(|&&l| l).count();
        let negatives = labels.len() - positives;
        if positives == 0 || negatives == 0 {
            return Err(CvError::MissingClass { positives, negatives });
        }
        let c = RocCurve::compute(scores, labels);
        let auc = c.auc();
        Ok((
            Series::new(
                format!("{name} (AUC={auc:.3})"),
                c.points.iter().map(|p| (p.fpr, p.tpr)).collect(),
            ),
            auc,
        ))
    };
    let (young_curve, young_auc) = curve_of(&split[0].0, &split[0].1, "Young")?;
    let (old_curve, old_auc) = curve_of(&split[1].0, &split[1].1, "Old")?;

    // Separately trained models on the age partitions of the joint
    // dataset, cross-validated as one batch once the joint dataset is
    // dropped.
    let partitions: Vec<Dataset> = age_rows(&data).iter().map(|rows| data.select(rows)).collect();
    drop(data);
    let trained = config
        .forest_cvs(&partitions)
        .into_iter()
        .map(|r| r.map(|r| (r.mean(), r.std_dev())))
        .collect::<Result<Vec<(f64, f64)>, CvError>>()?;
    Ok(YoungOldRoc {
        young_curve,
        old_curve,
        young_auc,
        old_auc,
        young_trained_auc: trained[0],
        old_trained_auc: trained[1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn young_failures_are_more_predictable() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(11);
        let r = young_old_roc(trace, &cfg).unwrap();
        // Section 5.3: young-trained 0.970 vs old-trained 0.890. Assert the
        // ordering with a margin for small-fleet noise.
        assert!(
            r.young_trained_auc.0 > r.old_trained_auc.0 - 0.05,
            "young {} vs old {}",
            r.young_trained_auc.0,
            r.old_trained_auc.0
        );
        assert!(r.young_trained_auc.0 > 0.8, "young {}", r.young_trained_auc.0);
        assert!(r.old_trained_auc.0 > 0.7, "old {}", r.old_trained_auc.0);
        assert!(!r.young_curve.points.is_empty());
        assert!(!r.old_curve.points.is_empty());
    }

    #[test]
    fn tpr_series_exist_and_decline_with_threshold() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(12);
        let t = tpr_by_age(trace, &cfg, &[0.85, 0.95]).unwrap();
        assert_eq!(t.series.len(), 2);
        // A stricter threshold can only lower each month's TPR.
        for (lo, hi) in t.series[0].points.iter().zip(&t.series[1].points) {
            if lo.0 == hi.0 {
                assert!(hi.1 <= lo.1 + 1e-12, "month {}: {} > {}", lo.0, hi.1, lo.1);
            }
        }
    }

    #[test]
    fn a_fleet_without_failures_is_a_typed_error_for_tpr_by_age() {
        // 15 drives over 400 days: enough drives for 5 grouped folds, no
        // swap, so fold 0's training rows hold no positive.
        let trace = ssd_sim::FleetGen::new(&ssd_sim::SimConfig {
            drives_per_model: 5,
            horizon_days: 400,
            seed: 2,
            ..ssd_sim::SimConfig::default()
        })
        .trace();
        assert_eq!(trace.total_swaps(), 0);
        let err = tpr_by_age(&trace, &PredictConfig::fast(2), &[0.85]).unwrap_err();
        assert!(matches!(err, CvError::MissingClass { positives: 0, .. }), "{err}");
    }

    #[test]
    fn a_held_out_partition_without_failures_is_a_typed_error() {
        // In this small fleet one age partition of held-out fold 0 holds
        // no failure, so its ROC curve is undefined.
        let trace = ssd_sim::FleetGen::new(&ssd_sim::SimConfig {
            drives_per_model: 60,
            horizon_days: 2190,
            seed: 2,
            ..ssd_sim::SimConfig::default()
        })
        .trace();
        let err = young_old_roc(&trace, &PredictConfig::fast(7)).unwrap_err();
        assert!(matches!(err, CvError::MissingClass { positives: 0, .. }), "{err}");
    }
}

ssd_types::impl_json_struct!(TprByAge { series });

ssd_types::impl_json_struct!(YoungOldRoc { young_curve, old_curve, young_auc, old_auc, young_trained_auc, old_trained_auc });
