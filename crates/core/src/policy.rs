//! Proactive-replacement policy evaluation — the paper's motivating
//! application (Section 1: predicting retirements enables "early
//! replacement before failure happens, migration of data and VMs").
//!
//! A trained predictor watches every reported drive-day of a deployment
//! fleet; the first day a drive's failure probability crosses the alert
//! threshold, the operator performs a planned migration. Failures with no
//! prior alert cost an emergency recovery; alerts on drives that never
//! fail waste a migration.

use crate::failure::failure_records;
use crate::features::{build_dataset, ExtractOptions, AGE_COLUMN};
use ssd_ml::Classifier;
use ssd_types::FleetTrace;
use std::collections::{BTreeMap, BTreeSet};

/// Cost model (arbitrary consistent units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyCosts {
    /// Unplanned failure: rebuild from redundancy, downtime risk.
    pub emergency: f64,
    /// Planned migration triggered by an alert that preceded a failure.
    pub planned: f64,
    /// Migration triggered by an alert on a drive that never failed.
    pub false_alert: f64,
}

impl Default for PolicyCosts {
    fn default() -> Self {
        PolicyCosts {
            emergency: 100.0,
            planned: 12.0,
            false_alert: 12.0,
        }
    }
}

/// Outcome of running the policy at one threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyOutcome {
    /// Alert threshold evaluated.
    pub threshold: f64,
    /// Failures preceded by an alert (converted to planned migrations).
    pub caught: usize,
    /// Failures with no prior alert (emergencies).
    pub missed: usize,
    /// Alerted drives that never failed.
    pub false_alerts: usize,
    /// Total policy cost under the cost model.
    pub policy_cost: f64,
    /// Cost of the purely reactive baseline (every failure an emergency).
    pub reactive_cost: f64,
}

impl PolicyOutcome {
    /// Fractional saving vs the reactive baseline (negative = worse).
    pub fn saving(&self) -> f64 {
        // lint:allow(float-determinism) -- division-by-zero guard; exact zero is the only special case
        if self.reactive_cost == 0.0 {
            0.0
        } else {
            1.0 - self.policy_cost / self.reactive_cost
        }
    }
}

/// Evaluates a trained model as a day-by-day alerting policy on a
/// deployment trace, across several thresholds.
///
/// The deployment dataset is built with `negative_sample_rate = 1` so no
/// drive-day is skipped; `lookahead_days` only affects labeling, not the
/// alert mechanics, and may be anything ≥ 1.
pub fn evaluate_policy(
    model: &dyn Classifier,
    deploy: &FleetTrace,
    thresholds: &[f64],
    costs: &PolicyCosts,
) -> Vec<PolicyOutcome> {
    let data = build_dataset(
        deploy,
        &ExtractOptions {
            lookahead_days: 1,
            negative_sample_rate: 1.0,
            ..Default::default()
        },
    );
    let scores = model.predict_batch(&data);

    let failed_drives: BTreeSet<u32> = deploy
        .drives
        .iter()
        .filter(|d| d.ever_failed())
        .map(|d| d.id.0)
        .collect();
    let n_failures: usize = deploy
        .drives
        .iter()
        .map(|d| failure_records(d).len())
        .sum();

    thresholds
        .iter()
        .map(|&threshold| {
            // First-alert age per drive.
            let mut first_alert: BTreeMap<u32, f32> = BTreeMap::new();
            for i in 0..data.n_rows() {
                if scores[i] >= threshold {
                    let drive = data.group(i);
                    let age = data.row(i)[AGE_COLUMN];
                    first_alert
                        .entry(drive)
                        .and_modify(|a| *a = a.min(age))
                        .or_insert(age);
                }
            }
            let mut caught = 0;
            let mut missed = 0;
            for d in &deploy.drives {
                for f in failure_records(d) {
                    match first_alert.get(&d.id.0) {
                        Some(&age) if age <= f.fail_day as f32 => caught += 1,
                        _ => missed += 1,
                    }
                }
            }
            let false_alerts = first_alert
                .keys()
                .filter(|d| !failed_drives.contains(d))
                .count();
            let policy_cost = caught as f64 * costs.planned
                + missed as f64 * costs.emergency
                + false_alerts as f64 * costs.false_alert;
            PolicyOutcome {
                threshold,
                caught,
                missed,
                false_alerts,
                policy_cost,
                reactive_cost: n_failures as f64 * costs.emergency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;
    use crate::PredictConfig;
    use ssd_ml::{downsample_majority, Trainer};
    use ssd_sim::{FleetGen, SimConfig};

    fn trained_model() -> Box<dyn Classifier> {
        let cfg = PredictConfig::fast(30);
        let data = cfg.dataset(shared_trace(), 3);
        let all: Vec<usize> = (0..data.n_rows()).collect();
        let idx = downsample_majority(&data, &all, 1.0, 0);
        cfg.forest.fit(&data.select(&idx), 0)
    }

    #[test]
    fn policy_beats_reactive_at_reasonable_thresholds() {
        let model = trained_model();
        let deploy = FleetGen::new(&SimConfig {
            drives_per_model: 250,
            horizon_days: 2190,
            seed: 777, // disjoint from the training fleet
            ..SimConfig::default()
        })
        .trace();
        let outcomes = evaluate_policy(
            model.as_ref(),
            &deploy,
            &[0.9, 0.97, 1.0],
            &PolicyCosts::default(),
        );
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(
                o.caught + o.missed,
                deploy.drives.iter().map(|d| failure_records(d).len()).sum::<usize>()
            );
            assert!(o.reactive_cost > 0.0);
        }
        // At least one threshold should save versus purely reactive
        // operation (the paper's motivation for prediction).
        assert!(
            outcomes.iter().any(|o| o.saving() > 0.0),
            "no threshold saved: {outcomes:?}"
        );
    }

    #[test]
    fn higher_threshold_means_fewer_alerts() {
        let model = trained_model();
        let deploy = FleetGen::new(&SimConfig {
            drives_per_model: 150,
            horizon_days: 1500,
            seed: 888,
            ..SimConfig::default()
        })
        .trace();
        let outcomes = evaluate_policy(
            model.as_ref(),
            &deploy,
            &[0.3, 0.95],
            &PolicyCosts::default(),
        );
        let alerts = |o: &PolicyOutcome| o.caught + o.false_alerts;
        assert!(
            alerts(&outcomes[1]) <= alerts(&outcomes[0]),
            "stricter threshold cannot alert more"
        );
    }
}

ssd_types::impl_json_struct!(PolicyCosts { emergency, planned, false_alert });

ssd_types::impl_json_struct!(PolicyOutcome { threshold, caught, missed, false_alerts, policy_cost, reactive_cost });
