//! The swap/repair lifecycle: Tables 3–5 and Figures 3–5 (Section 3).

use crate::failure::operational_periods;
use crate::report::{pct, Series, TextTable};
use crate::streaming::{summarize, StreamSummary};
use ssd_stats::{Duration, Ecdf, KaplanMeier};
use ssd_types::{DriveLog, DriveModel, FleetTrace};

/// Table 3: failure incidence per model.
#[derive(Debug, Clone)]
pub struct FailureIncidence {
    /// Per model: (number of failures, number of drives, fraction of
    /// drives failing at least once).
    pub per_model: Vec<(String, usize, usize, f64)>,
    /// Totals across models.
    pub total_failures: usize,
    /// Fleet-wide fraction of drives that fail at least once.
    pub total_failed_fraction: f64,
}

/// Computes Table 3: the [`summarize`] fold's failure incidence.
pub fn failure_incidence(trace: &FleetTrace) -> FailureIncidence {
    summarize(trace).failure_incidence
}

impl FailureIncidence {
    /// Renders as the paper's Table 3.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 3: failure incidence",
            vec!["Model".into(), "#Failures".into(), "%Failed".into()],
        );
        for (name, failures, _, frac) in &self.per_model {
            t.push_row(vec![name.clone(), failures.to_string(), pct(*frac)]);
        }
        t.push_row(vec![
            "All".into(),
            self.total_failures.to_string(),
            pct(self.total_failed_fraction),
        ]);
        t
    }
}

/// Table 4: distribution of lifetime failure counts.
#[derive(Debug, Clone)]
pub struct FailureCountDistribution {
    /// `count_of[k]` = number of drives with exactly k failures
    /// (index 0 = never failed), up to the maximum observed.
    pub count_of: Vec<usize>,
}

/// Computes Table 4: the [`summarize`] fold's failure counts.
pub fn failure_count_distribution(trace: &FleetTrace) -> FailureCountDistribution {
    summarize(trace).failure_counts
}

impl FailureCountDistribution {
    /// Fraction of all drives with exactly `k` failures.
    pub fn frac_of_all(&self, k: usize) -> f64 {
        let total: usize = self.count_of.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.count_of.get(k).copied().unwrap_or(0) as f64 / total as f64
    }

    /// Fraction of *failed* drives with exactly `k ≥ 1` failures.
    pub fn frac_of_failed(&self, k: usize) -> f64 {
        let failed: usize = self.count_of.iter().skip(1).sum();
        if failed == 0 || k == 0 {
            return 0.0;
        }
        self.count_of.get(k).copied().unwrap_or(0) as f64 / failed as f64
    }

    /// Renders as the paper's Table 4.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 4: distribution of lifetime failure counts",
            vec![
                "Number of failures".into(),
                "% of drives".into(),
                "% of failed drives".into(),
            ],
        );
        for k in 0..self.count_of.len() {
            t.push_row(vec![
                k.to_string(),
                format!("{:.3}", self.frac_of_all(k) * 100.0),
                if k == 0 {
                    "--".into()
                } else {
                    format!("{:.3}", self.frac_of_failed(k) * 100.0)
                },
            ]);
        }
        t
    }
}

/// Figure 3: CDF of operational-period length ("time to failure"), with
/// censored mass (periods never observed to end) at infinity.
pub fn time_to_failure_ecdf(trace: &FleetTrace) -> Ecdf {
    let mut lengths = Vec::new();
    let mut censored = 0u64;
    for d in &trace.drives {
        for p in operational_periods(d) {
            match p.length_to_failure {
                Some(l) => lengths.push(f64::from(l)),
                None => censored += 1,
            }
        }
    }
    Ecdf::with_censored(&lengths, censored)
}

/// Figure 4: CDF of the pre-swap non-operational period (days between the
/// failure and the physical swap), read from the [`summarize`] fold.
pub fn non_operational_ecdf(trace: &FleetTrace) -> Ecdf {
    summarize(trace).non_operational
}

/// Figure 5: CDF of time to repair, with never-returning drives at ∞,
/// read from the [`summarize`] fold.
pub fn time_to_repair_ecdf(trace: &FleetTrace) -> Ecdf {
    summarize(trace).time_to_repair
}

/// Kaplan–Meier estimate of the time-to-failure distribution — the
/// principled treatment of Figure 3's censoring, where the paper's ECDF
/// instead lumps never-ending periods into an "∞" bar. Since >80% of
/// periods are censored, the KM failure CDF sits *above* the raw ECDF at
/// every horizon (censored periods stop diluting the denominator).
pub fn time_to_failure_km(trace: &FleetTrace) -> KaplanMeier {
    let durations: Vec<Duration> = trace.drives.iter().flat_map(survival_durations).collect();
    KaplanMeier::fit(&durations)
}

/// One drive's operational periods as survival durations, in period
/// order: a period that ends in failure is an event at its length; the
/// trailing period is censored at its observed span.
pub fn survival_durations(d: &DriveLog) -> impl Iterator<Item = Duration> {
    let max_age = d.max_age_days();
    operational_periods(d)
        .into_iter()
        .map(move |p| match p.length_to_failure {
            Some(l) => Duration {
                time: f64::from(l),
                event: true,
            },
            None => Duration {
                time: f64::from(max_age.saturating_sub(p.start_day)),
                event: false,
            },
        })
}

/// Table 5: percentage of swapped drives that re-enter within n days, per
/// model (with, in parentheses in the paper, the same as a fraction of all
/// drives).
#[derive(Debug, Clone)]
pub struct RepairReentry {
    /// Horizon days used as columns (the paper: 10, 30, 100, 365, 730,
    /// 1095, ∞ — ∞ encoded as `None`).
    pub horizons: Vec<Option<u32>>,
    /// Per model: percentages of swapped drives re-entering within each
    /// horizon, plus (in the second slot) percentage of *all* drives.
    pub rows: Vec<(String, Vec<(f64, f64)>)>,
}

/// Computes Table 5.
pub fn repair_reentry(trace: &FleetTrace) -> RepairReentry {
    let horizons: Vec<Option<u32>> = vec![
        Some(10),
        Some(30),
        Some(100),
        Some(365),
        Some(730),
        Some(1095),
        None,
    ];
    let mut rows = Vec::new();
    for m in DriveModel::ALL {
        let mut n_drives = 0usize;
        let mut n_swaps = 0usize;
        let mut repair_times: Vec<u32> = Vec::new();
        for d in trace.drives_of(m) {
            n_drives += 1;
            for s in &d.swaps {
                n_swaps += 1;
                if let Some(r) = s.repair_days() {
                    repair_times.push(r);
                }
            }
        }
        let mut cells = Vec::new();
        for h in &horizons {
            let count = match h {
                Some(days) => repair_times.iter().filter(|&&r| r <= *days).count(),
                None => repair_times.len(),
            };
            let of_swapped = if n_swaps == 0 {
                0.0
            } else {
                count as f64 / n_swaps as f64
            };
            let of_all = if n_drives == 0 {
                0.0
            } else {
                count as f64 / n_drives as f64
            };
            cells.push((of_swapped * 100.0, of_all * 100.0));
        }
        rows.push((m.name().to_string(), cells));
    }
    RepairReentry { horizons, rows }
}

impl RepairReentry {
    /// Renders as the paper's Table 5.
    pub fn table(&self) -> TextTable {
        let mut header = vec!["Model".to_string()];
        for h in &self.horizons {
            header.push(match h {
                Some(10) => "10 days".into(),
                Some(30) => "30 days".into(),
                Some(100) => "100 days".into(),
                Some(365) => "1 year".into(),
                Some(730) => "2 years".into(),
                Some(1095) => "3 years".into(),
                Some(d) => format!("{d} days"),
                None => "inf".into(),
            });
        }
        let mut t = TextTable::new(
            "Table 5: % of swapped drives re-entering within n days (of all drives)",
            header,
        );
        for (name, cells) in &self.rows {
            let mut row = vec![name.clone()];
            for (swapped, all) in cells {
                row.push(format!("{swapped:.1} ({all:.2})"));
            }
            t.push_row(row);
        }
        t
    }
}

/// Figure 3/4/5 as printable series (CDF steps thinned for display);
/// Figures 4 and 5 come from one [`summarize`] fold.
pub fn lifecycle_series(trace: &FleetTrace) -> Vec<Series> {
    let ttf = time_to_failure_ecdf(trace);
    let StreamSummary {
        non_operational: nop,
        time_to_repair: ttr,
        ..
    } = summarize(trace);
    vec![
        Series::new(
            format!(
                "Fig 3: time to failure (censored mass {:.1}%)",
                ttf.censored_fraction() * 100.0
            ),
            ttf.steps(),
        ),
        Series::new("Fig 4: non-operational period (days)", nop.steps()),
        Series::new(
            format!(
                "Fig 5: time to repair (never-returning {:.1}%)",
                ttr.censored_fraction() * 100.0
            ),
            ttr.steps(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{FleetGen, SimConfig};

    fn trace() -> FleetTrace {
        FleetGen::new(&SimConfig {
            drives_per_model: 400,
            horizon_days: 2190,
            seed: 77,
            ..SimConfig::default()
        })
        .trace()
    }

    #[test]
    fn incidence_bands_match_table3() {
        let t = trace();
        let inc = failure_incidence(&t);
        // MLC-A lowest, MLC-B highest (Table 3 ordering).
        let fracs: Vec<f64> = inc.per_model.iter().map(|r| r.3).collect();
        assert!(fracs[0] < fracs[1], "MLC-A {} < MLC-B {}", fracs[0], fracs[1]);
        assert!((0.02..0.13).contains(&fracs[0]), "MLC-A {}", fracs[0]);
        assert!((0.08..0.20).contains(&fracs[1]), "MLC-B {}", fracs[1]);
        assert!((0.05..0.11).contains(&inc.total_failed_fraction) || inc.total_failed_fraction < 0.16);
        let _ = inc.table().render();
    }

    #[test]
    fn count_distribution_is_dominated_by_single_failures() {
        let t = trace();
        let dist = failure_count_distribution(&t);
        // Table 4: ~89% of drives never fail; among failed drives ~90%
        // fail exactly once.
        assert!(dist.frac_of_all(0) > 0.8);
        assert!(dist.frac_of_failed(1) > 0.75, "{}", dist.frac_of_failed(1));
        let total: f64 = (0..dist.count_of.len()).map(|k| dist.frac_of_all(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let _ = dist.table().render();
    }

    #[test]
    fn time_to_failure_is_mostly_censored() {
        let t = trace();
        let e = time_to_failure_ecdf(&t);
        // Figure 3: more than 80% of operational periods never end.
        assert!(
            e.censored_fraction() > 0.75,
            "censored {}",
            e.censored_fraction()
        );
    }

    #[test]
    fn non_operational_period_shape_matches_fig4() {
        let t = trace();
        let e = non_operational_ecdf(&t);
        // ~20% within 1 day, ~80% within 7 days, long tail past 100 days.
        let p1 = e.eval(1.0);
        let p7 = e.eval(7.0);
        let p100 = e.eval(100.0);
        assert!((0.10..0.35).contains(&p1), "P(<=1d) {p1}");
        assert!((0.70..0.90).contains(&p7), "P(<=7d) {p7}");
        assert!(p100 < 0.97, "tail beyond 100 days should exist: {p100}");
    }

    #[test]
    fn repair_is_slow_and_half_never_return() {
        let t = trace();
        let e = time_to_repair_ecdf(&t);
        // Figure 5: about half never observed to re-enter (a bit more at
        // our scale because late swaps censor re-entry).
        assert!(
            (0.35..0.75).contains(&e.censored_fraction()),
            "never-returning {}",
            e.censored_fraction()
        );
        let tab = repair_reentry(&t);
        // Within-10-days re-entry is a small percentage for every model.
        for (name, cells) in &tab.rows {
            assert!(cells[0].0 < 20.0, "{name}: 10-day re-entry {}", cells[0].0);
            // Monotone in horizon.
            for w in cells.windows(2) {
                assert!(w[1].0 >= w[0].0 - 1e-12);
            }
        }
        let _ = tab.table().render();
    }

    #[test]
    fn km_failure_cdf_dominates_raw_ecdf() {
        let t = trace();
        let km = time_to_failure_km(&t);
        let raw = time_to_failure_ecdf(&t);
        // Proper censoring handling can only raise the failure CDF.
        for horizon in [180.0, 365.0, 1095.0] {
            assert!(
                km.cdf(horizon) >= raw.eval(horizon) - 1e-9,
                "KM {} vs raw {} at {horizon}",
                km.cdf(horizon),
                raw.eval(horizon)
            );
        }
        assert!(km.n_censored() > km.n_events(), "mostly censored data");
    }

    #[test]
    fn lifecycle_series_are_well_formed() {
        let t = trace();
        let series = lifecycle_series(&t);
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(!s.points.is_empty(), "{} empty", s.name);
        }
    }
}

ssd_types::impl_json_struct!(FailureIncidence { per_model, total_failures, total_failed_fraction });

ssd_types::impl_json_struct!(FailureCountDistribution { count_of });

ssd_types::impl_json_struct!(RepairReentry { horizons, rows });
