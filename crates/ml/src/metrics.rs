//! Classifier evaluation: ROC curves, ROC AUC, confusion statistics.
//!
//! The paper evaluates every model with ROC AUC because the data are
//! extremely imbalanced ("1 failure for each 10,000 non-failure cases",
//! Section 5.1) and the ROC curve's TPR/FPR axes are insensitive to the
//! class ratio.

use ssd_types::cast::f64_from_usize;

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False positive rate at this threshold.
    pub fpr: f64,
    /// True positive rate (recall) at this threshold.
    pub tpr: f64,
    /// Discrimination threshold achieving this point (scores ≥ threshold
    /// are predicted positive).
    pub threshold: f64,
}

/// A full ROC curve (monotone in both axes, from (0,0) to (1,1)).
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Curve points, in increasing-FPR order.
    pub points: Vec<RocPoint>,
}

impl RocCurve {
    /// Computes the ROC curve for continuous `scores` against boolean
    /// `labels`. Ties in score produce a single curve vertex (the standard
    /// construction). Panics if either class is absent.
    pub fn compute(scores: &[f64], labels: &[bool]) -> Self {
        assert_eq!(scores.len(), labels.len());
        let n_pos = labels.iter().filter(|&&l| l).count();
        let n_neg = labels.len() - n_pos;
        assert!(n_pos > 0 && n_neg > 0, "ROC needs both classes present");

        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));

        let mut points = vec![RocPoint {
            fpr: 0.0,
            tpr: 0.0,
            threshold: f64::INFINITY,
        }];
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut i = 0;
        while i < order.len() {
            let s = scores[order[i]];
            // Consume the whole tie group before emitting a vertex.
            while i < order.len() && scores[order[i]] == s {
                if labels[order[i]] {
                    tp += 1;
                } else {
                    fp += 1;
                }
                i += 1;
            }
            points.push(RocPoint {
                fpr: f64_from_usize(fp) / f64_from_usize(n_neg),
                tpr: f64_from_usize(tp) / f64_from_usize(n_pos),
                threshold: s,
            });
        }
        RocCurve { points }
    }

    /// Area under the curve by trapezoidal integration.
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            area += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
        }
        area
    }

    /// The point of the largest threshold whose FPR does not exceed
    /// `max_fpr` (operating-point lookup for low-false-positive
    /// deployment); `None` only when `max_fpr` is below 0.
    pub fn operating_point(&self, max_fpr: f64) -> Option<&RocPoint> {
        self.points.iter().take_while(|p| p.fpr <= max_fpr).last()
    }
}

/// ROC AUC via the rank-sum (Mann–Whitney) identity with tie correction —
/// O(n log n) and exactly equal to trapezoidal integration of the tied
/// ROC curve. Preferred when the curve itself is not needed.
///
/// Tie convention: every member of a tie group receives the group's
/// *midrank* — the average of the ranks the group spans — so a tie
/// between a positive and a negative counts as half a concordant pair.
/// This is the standard Mann–Whitney treatment (scikit-learn and R's
/// pROC agree): a degenerate scorer that emits one constant score for
/// everything gets AUC exactly 0.5 regardless of class balance, not the
/// 0.0 or 1.0 that strict `>` or `>=` rank comparisons would report.
/// `tests/regressions.rs` pins this against all-equal and block-tied
/// score vectors.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    assert!(n_pos > 0 && n_neg > 0, "AUC needs both classes present");
    // Fractional ranks of the scores (average rank for ties).
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i + 1;
        while j < idx.len() && scores[idx[j]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = f64_from_usize(i + 1 + j) / 2.0;
        for &k in &idx[i..j] {
            if labels[k] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j;
    }
    let pos = f64_from_usize(n_pos);
    let u = rank_sum_pos - pos * (pos + 1.0) / 2.0;
    u / (pos * f64_from_usize(n_neg))
}

/// Weighted ROC AUC: the Mann–Whitney statistic over weighted pairs,
/// `Σ wᵢwⱼ·[sᵢ > sⱼ] + ½·Σ wᵢwⱼ·[sᵢ = sⱼ]` over (positive i, negative j),
/// normalized by total positive × negative weight.
///
/// Used with importance-sampled fleets, where each example carries its
/// drive's `exp(log_weight)`: the weighted AUC estimates the AUC the
/// uniformly sampled population would produce. With all weights `1.0`
/// this agrees with [`roc_auc`] (same tie convention — equal scores count
/// half). O(n log n): one sort, one sweep over score tie groups.
pub fn roc_auc_weighted(scores: &[f64], labels: &[bool], weights: &[f64]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    assert_eq!(scores.len(), weights.len());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut concordant = 0.0f64;
    let mut w_pos_total = 0.0f64;
    let mut w_neg_below = 0.0f64; // negatives with strictly smaller score
    let mut i = 0;
    while i < idx.len() {
        let mut j = i + 1;
        while j < idx.len() && scores[idx[j]] == scores[idx[i]] {
            j += 1;
        }
        let mut w_pos_group = 0.0;
        let mut w_neg_group = 0.0;
        for &k in &idx[i..j] {
            if labels[k] {
                w_pos_group += weights[k];
            } else {
                w_neg_group += weights[k];
            }
        }
        concordant += w_pos_group * (w_neg_below + 0.5 * w_neg_group);
        w_pos_total += w_pos_group;
        w_neg_below += w_neg_group;
        i = j;
    }
    let w_neg_total = w_neg_below;
    assert!(
        w_pos_total > 0.0 && w_neg_total > 0.0,
        "AUC needs both classes present with positive weight"
    );
    concordant / (w_pos_total * w_neg_total)
}

/// Confusion counts at a fixed threshold (score ≥ threshold → positive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Computes confusion counts.
    pub fn at_threshold(scores: &[f64], labels: &[bool], threshold: f64) -> Self {
        let mut c = Confusion {
            tp: 0,
            fp: 0,
            tn: 0,
            fn_: 0,
        };
        for (&s, &l) in scores.iter().zip(labels) {
            match (s >= threshold, l) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, false) => c.tn += 1,
                (false, true) => c.fn_ += 1,
            }
        }
        c
    }

    /// True positive rate (recall); 0 when no positives.
    pub fn tpr(&self) -> f64 {
        let p = self.tp + self.fn_;
        if p == 0 {
            0.0
        } else {
            f64_from_usize(self.tp) / f64_from_usize(p)
        }
    }

    /// False positive rate; 0 when no negatives.
    pub fn fpr(&self) -> f64 {
        let n = self.fp + self.tn;
        if n == 0 {
            0.0
        } else {
            f64_from_usize(self.fp) / f64_from_usize(n)
        }
    }

    /// Precision; 0 when nothing predicted positive.
    pub fn precision(&self) -> f64 {
        let pp = self.tp + self.fp;
        if pp == 0 {
            0.0
        } else {
            f64_from_usize(self.tp) / f64_from_usize(pp)
        }
    }

    /// False negative rate = 1 − TPR.
    pub fn fnr(&self) -> f64 {
        1.0 - self.tpr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_classifier_auc_is_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
        let c = RocCurve::compute(&scores, &labels);
        assert!((c.auc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_classifier_auc_is_zero() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(roc_auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn random_constant_scores_auc_is_half() {
        let scores = [0.5; 6];
        let labels = [true, false, true, false, true, false];
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
        assert!((RocCurve::compute(&scores, &labels).auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_auc_equals_curve_auc_with_ties() {
        let scores = [0.3, 0.7, 0.7, 0.2, 0.9, 0.3, 0.5, 0.5];
        let labels = [false, true, false, false, true, true, false, true];
        let a = roc_auc(&scores, &labels);
        let b = RocCurve::compute(&scores, &labels).auc();
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn label_flip_antisymmetry() {
        let scores = [0.1, 0.4, 0.35, 0.8, 0.65, 0.9, 0.5];
        let labels = [false, false, true, true, false, true, true];
        let flipped: Vec<bool> = labels.iter().map(|&l| !l).collect();
        let a = roc_auc(&scores, &labels);
        let b = roc_auc(&scores, &flipped);
        assert!((a + b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_auc_value() {
        // scores: pos {0.8, 0.4}, neg {0.6, 0.2}.
        // Pairs: (0.8>0.6), (0.8>0.2), (0.4<0.6 → 0), (0.4>0.2) → 3/4.
        let scores = [0.8, 0.4, 0.6, 0.2];
        let labels = [true, true, false, false];
        assert!((roc_auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone() {
        let scores = [0.1, 0.9, 0.5, 0.7, 0.3, 0.6];
        let labels = [false, true, false, true, true, false];
        let c = RocCurve::compute(&scores, &labels);
        for w in c.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        let last = c.points.last().unwrap();
        assert_eq!((last.fpr, last.tpr), (1.0, 1.0));
    }

    #[test]
    fn confusion_and_rates() {
        let scores = [0.9, 0.8, 0.3, 0.6, 0.1];
        let labels = [true, false, true, false, false];
        let c = Confusion::at_threshold(&scores, &labels, 0.5);
        assert_eq!((c.tp, c.fp, c.tn, c.fn_), (1, 2, 1, 1));
        assert!((c.tpr() - 0.5).abs() < 1e-12);
        assert!((c.fpr() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.precision() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.fnr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn operating_point_lookup() {
        let scores = [0.9, 0.8, 0.7, 0.6, 0.5];
        let labels = [true, true, false, true, false];
        let c = RocCurve::compute(&scores, &labels);
        // At FPR = 0 we already have TPR = 2/3 (two positives above the
        // first negative), at threshold 0.8.
        let p = c.operating_point(0.0).unwrap();
        assert!((p.tpr - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.threshold, 0.8);
        assert!((c.operating_point(0.6).unwrap().tpr - 1.0).abs() < 1e-12);
        assert!(c.operating_point(-0.1).is_none());
    }

    #[test]
    #[should_panic(expected = "both classes")]
    fn single_class_panics() {
        roc_auc(&[0.1, 0.2], &[true, true]);
    }

    #[test]
    fn unit_weights_match_unweighted_auc() {
        let scores = [0.3, 0.7, 0.7, 0.2, 0.9, 0.3, 0.5, 0.5];
        let labels = [false, true, false, false, true, true, false, true];
        let w = vec![1.0; scores.len()];
        let a = roc_auc(&scores, &labels);
        let b = roc_auc_weighted(&scores, &labels, &w);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn integer_weights_equal_repetition_auc() {
        let scores = [0.8, 0.4, 0.6, 0.2, 0.5];
        let labels = [true, true, false, false, true];
        let weights = [2.0, 1.0, 3.0, 1.0, 2.0];
        let mut exp_scores = Vec::new();
        let mut exp_labels = Vec::new();
        for i in 0..scores.len() {
            for _ in 0..weights[i] as usize {
                exp_scores.push(scores[i]);
                exp_labels.push(labels[i]);
            }
        }
        let a = roc_auc_weighted(&scores, &labels, &weights);
        let b = roc_auc(&exp_scores, &exp_labels);
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn weighted_constant_scores_auc_is_half() {
        let scores = [0.5; 4];
        let labels = [true, false, true, false];
        let weights = [0.2, 3.0, 1.5, 0.7];
        let a = roc_auc_weighted(&scores, &labels, &weights);
        assert!((a - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_examples_are_ignored() {
        // A wrongly-ranked positive with zero weight must not move the AUC.
        let a = roc_auc_weighted(&[0.9, 0.2], &[true, false], &[1.0, 1.0]);
        let b = roc_auc_weighted(
            &[0.9, 0.2, 0.1],
            &[true, false, true],
            &[1.0, 1.0, 0.0],
        );
        assert!((a - 1.0).abs() < 1e-12);
        assert!((b - 1.0).abs() < 1e-12);
    }
}
