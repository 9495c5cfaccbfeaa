//! Error incidence vs. failure: Figures 10–11 (Section 4.2).

use crate::failure::failure_records;
use crate::report::Series;
use ssd_stats::{quantile, Ecdf};
use ssd_types::{ErrorKind, FleetTrace};

/// Figure 10: CDFs of cumulative bad-block and uncorrectable-error counts
/// for young failures, old failures, and never-failed drives.
#[derive(Debug, Clone)]
pub struct CumulativeErrorCdfs {
    /// Bad blocks: (young, old, not-failed) CDFs.
    pub bad_blocks: [Series; 3],
    /// Uncorrectable errors: (young, old, not-failed) CDFs.
    pub uncorrectable: [Series; 3],
    /// Fraction with zero UEs: young failures, old failures, not-failed —
    /// the paper's 68% / 45% / 80%.
    pub zero_ue_fracs: [f64; 3],
    /// Fraction of failures with no non-transparent errors *and* no grown
    /// bad blocks (paper: 26%).
    pub symptomless_failure_frac: f64,
}

/// Computes Figure 10.
pub fn cumulative_error_cdfs(trace: &FleetTrace) -> CumulativeErrorCdfs {
    // Cumulative counts are taken up to the failure day (for failures) or
    // over the full observed life (not-failed drives).
    let mut bb = [Vec::new(), Vec::new(), Vec::new()];
    let mut ue = [Vec::new(), Vec::new(), Vec::new()];
    let mut symptomless = 0usize;
    let mut n_failures = 0usize;
    for d in &trace.drives {
        let failures = failure_records(d);
        if failures.is_empty() {
            if let Some(last) = d.reports.last() {
                let cum_ue: u64 = d
                    .reports
                    .iter()
                    .map(|r| r.errors.get(ErrorKind::Uncorrectable))
                    .sum();
                bb[2].push(f64::from(last.bad_blocks()));
                ue[2].push(cum_ue as f64);
            }
            continue;
        }
        for f in &failures {
            n_failures += 1;
            let upto = f.fail_day;
            let mut cum_ue = 0u64;
            let mut cum_nt = 0u64;
            let mut last_bb = 0u32;
            let mut grown_bb = 0u32;
            for r in &d.reports {
                if r.age_days > upto {
                    break;
                }
                cum_ue += r.errors.get(ErrorKind::Uncorrectable);
                cum_nt += r.errors.total_non_transparent();
                last_bb = r.bad_blocks();
                grown_bb = r.grown_bad_blocks;
            }
            let slot = usize::from(!f.is_young()); // young=0, old=1
            bb[slot].push(f64::from(last_bb));
            ue[slot].push(cum_ue as f64);
            if cum_nt == 0 && grown_bb == 0 {
                symptomless += 1;
            }
        }
    }
    let zero_frac = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            // lint:allow(float-determinism) -- exact-zero test on integer-valued counts, not a rounding comparison
            v.iter().filter(|&&x| x == 0.0).count() as f64 / v.len() as f64
        }
    };
    let zero_ue_fracs = [zero_frac(&ue[0]), zero_frac(&ue[1]), zero_frac(&ue[2])];
    let mk = |name: &str, v: &[f64]| Series::new(name, Ecdf::new(v).steps());
    CumulativeErrorCdfs {
        bad_blocks: [
            mk("Young", &bb[0]),
            mk("Old", &bb[1]),
            mk("Not Failed", &bb[2]),
        ],
        uncorrectable: [
            mk("Young", &ue[0]),
            mk("Old", &ue[1]),
            mk("Not Failed", &ue[2]),
        ],
        zero_ue_fracs,
        symptomless_failure_frac: if n_failures == 0 {
            0.0
        } else {
            symptomless as f64 / n_failures as f64
        },
    }
}

/// Figure 11: uncorrectable-error behaviour in the days before a failure.
#[derive(Debug, Clone)]
pub struct PreFailureErrors {
    /// Top graph: P(a UE occurred within the last n days before failure),
    /// for young and old failures, n = 0..=7.
    pub p_ue_within: [Series; 2],
    /// Baseline: probability of a UE within an arbitrary n-day window.
    pub baseline: Series,
    /// Bottom graph: upper percentiles (95/85/75) of nonzero UE counts on
    /// each day before the swap, young and old.
    pub count_percentiles: Vec<Series>,
}

/// Computes Figure 11 with a window of up to 7 days before the failure.
pub fn pre_failure_errors(trace: &FleetTrace) -> PreFailureErrors {
    const W: usize = 8; // days-before 0..=7
    // P(UE within last n days): per failure, find the most recent UE day.
    let mut within = [[0u64; W]; 2];
    let mut totals = [0u64; 2];
    // Nonzero UE counts per day-before-failure, young/old.
    let mut counts: [Vec<Vec<f64>>; 2] = [vec![Vec::new(); W], vec![Vec::new(); W]];
    // Baseline: fraction of arbitrary n-day windows containing a UE,
    // estimated from per-day UE rates.
    let mut ue_days = 0u64;
    let mut all_days = 0u64;
    for d in &trace.drives {
        for r in &d.reports {
            all_days += 1;
            if r.errors.get(ErrorKind::Uncorrectable) > 0 {
                ue_days += 1;
            }
        }
        for f in failure_records(d) {
            let slot = usize::from(!f.is_young());
            totals[slot] += 1;
            let Some(ri) = f.report_idx else { continue };
            // Scan the last W reported days up to the failure day.
            let mut nearest: Option<usize> = None;
            for r in d.reports[..=ri].iter().rev() {
                let back = (f.fail_day - r.age_days) as usize;
                if back >= W {
                    break;
                }
                let c = r.errors.get(ErrorKind::Uncorrectable);
                if c > 0 {
                    counts[slot][back].push(c as f64);
                    nearest = Some(match nearest {
                        Some(n) => n.min(back),
                        None => back,
                    });
                }
            }
            if let Some(nearest) = nearest {
                for w in &mut within[slot][nearest..] {
                    *w += 1;
                }
            }
        }
    }
    let daily_rate = if all_days == 0 {
        0.0
    } else {
        ue_days as f64 / all_days as f64
    };
    let p_series = |slot: usize, name: &str| {
        Series::new(
            name,
            (0..W)
                .map(|n| {
                    let p = if totals[slot] == 0 {
                        0.0
                    } else {
                        within[slot][n] as f64 / totals[slot] as f64
                    };
                    (n as f64, p)
                })
                .collect(),
        )
    };
    let baseline = Series::new(
        "Baseline",
        (0..W)
            .map(|n| {
                // P(≥1 UE in an (n+1)-day window) under day-independence.
                (n as f64, 1.0 - (1.0 - daily_rate).powi(n as i32 + 1))
            })
            .collect(),
    );
    let mut count_percentiles = Vec::new();
    for (slot, label) in [(0usize, "Young"), (1, "Old")] {
        for q in [0.95, 0.85, 0.75] {
            let pts: Vec<(f64, f64)> = (0..W)
                .filter(|&n| counts[slot][n].len() >= 3)
                .map(|n| (n as f64, quantile(&counts[slot][n], q)))
                .collect();
            count_percentiles.push(Series::new(
                format!("{}% {label}", (q * 100.0) as u32),
                pts,
            ));
        }
    }
    PreFailureErrors {
        p_ue_within: [p_series(0, "Young"), p_series(1, "Old")],
        baseline,
        count_percentiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{FleetGen, SimConfig};

    fn trace() -> FleetTrace {
        FleetGen::new(&SimConfig {
            drives_per_model: 500,
            horizon_days: 2190,
            seed: 101,
            ..SimConfig::default()
        })
        .trace()
    }

    #[test]
    fn failed_drives_see_more_errors_than_survivors() {
        let t = trace();
        let c = cumulative_error_cdfs(&t);
        let [young_zero, old_zero, ok_zero] = c.zero_ue_fracs;
        // Figure 10: not-failed ~80% zero-UE; old failures substantially
        // lower; young failures in between.
        assert!((0.65..0.95).contains(&ok_zero), "not-failed zero {ok_zero}");
        assert!(old_zero < ok_zero, "old {old_zero} < not-failed {ok_zero}");
        assert!(young_zero > old_zero, "young {young_zero} > old {old_zero}");
        // A noticeable share of failures is entirely symptomless (paper 26%).
        assert!(
            (0.08..0.60).contains(&c.symptomless_failure_frac),
            "symptomless {}",
            c.symptomless_failure_frac
        );
    }

    #[test]
    fn error_probability_rises_toward_failure() {
        let t = trace();
        let p = pre_failure_errors(&t);
        for s in &p.p_ue_within {
            // Monotone in the window length by construction.
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12);
            }
        }
        // Failed drives beat the baseline in their final week.
        let last = |s: &Series| s.points.last().unwrap().1;
        let old_week = last(&p.p_ue_within[1]);
        let base_week = last(&p.baseline);
        assert!(
            old_week > 2.0 * base_week,
            "old {old_week} vs baseline {base_week}"
        );
        // Yet most failures see no UE in the final week (paper: ~75%).
        assert!(old_week < 0.6, "P(UE in last week) {old_week}");
    }

    #[test]
    fn young_failure_counts_dwarf_old_ones() {
        let t = trace();
        let p = pre_failure_errors(&t);
        // Compare the 95th-percentile curves at day 0 (failure day).
        let at0 = |name: &str| {
            p.count_percentiles
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.points.iter().find(|pt| pt.0 == 0.0).map(|pt| pt.1))
        };
        // The paper's gap is ~2 orders of magnitude; with only a few dozen
        // young failures at this fleet scale the 95th percentile is noisy,
        // so assert a conservative separation (the full 100× gap is
        // asserted at the generator level in ssd-sim's escalation tests).
        if let (Some(y), Some(o)) = (at0("95% Young"), at0("95% Old")) {
            assert!(y > 2.0 * o, "young 95th {y} vs old {o}");
        }
    }
}

ssd_types::impl_json_struct!(CumulativeErrorCdfs { bad_blocks, uncorrectable, zero_ue_fracs, symptomless_failure_frac });

ssd_types::impl_json_struct!(PreFailureErrors { p_ue_within, baseline, count_percentiles });
