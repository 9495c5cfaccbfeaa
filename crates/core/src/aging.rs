//! Age and device wear vs. failure: Figures 6–9 (Section 4.1).

use crate::failure::failure_records;
use crate::report::Series;
use ssd_stats::{ks_p_value, ks_statistic, quartiles, BinnedRate, Ecdf};
use ssd_types::{FleetTrace, DAYS_PER_MONTH};

/// Figure 6: failure-age CDF plus the exposure-normalized monthly failure
/// rate (the bias-corrected dashed curve).
#[derive(Debug, Clone)]
pub struct FailureAge {
    /// CDF of drive age (months) at failure.
    pub age_cdf: Series,
    /// Failure rate per month of age: failures / drives observed alive in
    /// that age month.
    pub monthly_rate: Series,
    /// Fraction of failures on drives < 30 days old (paper: 15%).
    pub frac_under_30d: f64,
    /// Fraction of failures on drives < 90 days old (paper: 25%).
    pub frac_under_90d: f64,
}

/// Computes Figure 6.
pub fn failure_age(trace: &FleetTrace) -> FailureAge {
    let n_months = (trace.horizon_days / DAYS_PER_MONTH + 1) as usize;
    let mut rate = BinnedRate::new(n_months);
    let mut fail_ages = Vec::new();
    for d in &trace.drives {
        // Exposure: a drive contributes to every age month it was observed
        // reporting in.
        let mut seen_month = vec![false; n_months];
        for r in &d.reports {
            let m = (r.age_days / DAYS_PER_MONTH) as usize;
            if m < n_months {
                seen_month[m] = true;
            }
        }
        for (m, &seen) in seen_month.iter().enumerate() {
            if seen {
                rate.add_exposure(m, 1);
            }
        }
        for f in failure_records(d) {
            fail_ages.push(f64::from(f.fail_day));
            let m = (f.fail_day / DAYS_PER_MONTH) as usize;
            if m < n_months {
                rate.add_events(m, 1);
            }
        }
    }
    let ecdf = Ecdf::new(&fail_ages);
    let frac_under_30d = ecdf.eval(29.999);
    let frac_under_90d = ecdf.eval(89.999);
    let age_cdf = Series::new(
        "CDF of failure age",
        ecdf.steps()
            .into_iter()
            .map(|(x, y)| (x / f64::from(DAYS_PER_MONTH), y))
            .collect(),
    );
    let monthly_rate = Series::new(
        "failure rate per month",
        rate.rates()
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_nan())
            .map(|(m, &r)| (m as f64, r))
            .collect(),
    );
    FailureAge {
        age_cdf,
        monthly_rate,
        frac_under_30d,
        frac_under_90d,
    }
}

/// Figure 7: quartiles of daily write intensity per month of drive age.
#[derive(Debug, Clone)]
pub struct WriteIntensity {
    /// Per month: (month, Q1, median, Q3) of daily write operations.
    pub quartiles_by_month: Vec<(u32, f64, f64, f64)>,
}

/// Computes Figure 7.
///
/// Keeps every report's daily write count, bucketed by month of age, so
/// memory grows with the trace's drive-days; months with fewer than 20
/// reports get no quartiles. This matches the paper's per-month
/// distribution construction.
pub fn write_intensity(trace: &FleetTrace) -> WriteIntensity {
    let n_months = (trace.horizon_days / DAYS_PER_MONTH + 1) as usize;
    let mut by_month: Vec<Vec<f64>> = vec![Vec::new(); n_months];
    for d in &trace.drives {
        for r in &d.reports {
            let m = (r.age_days / DAYS_PER_MONTH) as usize;
            if m < n_months {
                by_month[m].push(r.write_ops as f64);
            }
        }
    }
    let quartiles_by_month = by_month
        .iter()
        .enumerate()
        .filter(|(_, v)| v.len() >= 20)
        .map(|(m, v)| {
            let (q1, q2, q3) = quartiles(v);
            (m as u32, q1, q2, q3)
        })
        .collect();
    WriteIntensity { quartiles_by_month }
}

/// Figures 8 and 9: P/E cycles at failure.
#[derive(Debug, Clone)]
pub struct WearAtFailure {
    /// Figure 8 CDF: P/E cycle count at failure, all failures.
    pub pe_cdf: Series,
    /// Figure 8 dashed: failure rate per 250-cycle bin, exposure-normalized.
    pub rate_per_bin: Series,
    /// Figure 9: CDF split for young (≤ 90 d) failures.
    pub pe_cdf_young: Series,
    /// Figure 9: CDF split for old (> 90 d) failures.
    pub pe_cdf_old: Series,
    /// Fraction of failures occurring below 1500 P/E cycles (paper: ~98%).
    pub frac_under_1500: f64,
    /// Two-sample KS statistic between young and old P/E-at-failure
    /// distributions — quantifies Figure 9's "young failures inhabit a
    /// distinct, small range" claim.
    pub young_old_ks: f64,
    /// Asymptotic p-value for the KS statistic.
    pub young_old_ks_p: f64,
}

/// Computes Figures 8 and 9. P/E bins are 250 cycles wide, up to 6000+.
pub fn wear_at_failure(trace: &FleetTrace) -> WearAtFailure {
    const BIN: f64 = 250.0;
    const N_BINS: usize = 26; // 0..6500
    let mut rate = BinnedRate::new(N_BINS);
    let mut pe_all = Vec::new();
    let mut pe_young = Vec::new();
    let mut pe_old = Vec::new();
    for d in &trace.drives {
        // Exposure: one unit per P/E bin the drive was observed in.
        let mut seen = [false; N_BINS];
        for r in &d.reports {
            let b = ((f64::from(r.pe_cycles) / BIN) as usize).min(N_BINS - 1);
            seen[b] = true;
        }
        for (b, &s) in seen.iter().enumerate() {
            if s {
                rate.add_exposure(b, 1);
            }
        }
        for f in failure_records(d) {
            let Some(ri) = f.report_idx else { continue };
            let pe = f64::from(d.reports[ri].pe_cycles);
            pe_all.push(pe);
            if f.is_young() {
                pe_young.push(pe);
            } else {
                pe_old.push(pe);
            }
            let b = ((pe / BIN) as usize).min(N_BINS - 1);
            rate.add_events(b, 1);
        }
    }
    let all = Ecdf::new(&pe_all);
    let frac_under_1500 = all.eval(1499.999);
    let (young_old_ks, young_old_ks_p) = if pe_young.is_empty() || pe_old.is_empty() {
        (f64::NAN, f64::NAN)
    } else {
        let d = ks_statistic(&pe_young, &pe_old);
        (d, ks_p_value(d, pe_young.len(), pe_old.len()))
    };
    WearAtFailure {
        pe_cdf: Series::new("CDF of P/E count at failure", all.steps()),
        rate_per_bin: Series::new(
            "failure rate per 250-cycle bin",
            rate.rates()
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.is_nan())
                .map(|(b, &r)| (b as f64 * BIN + BIN / 2.0, r))
                .collect(),
        ),
        pe_cdf_young: Series::new("Young", Ecdf::new(&pe_young).steps()),
        pe_cdf_old: Series::new("Old", Ecdf::new(&pe_old).steps()),
        frac_under_1500,
        young_old_ks,
        young_old_ks_p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{FleetGen, SimConfig};

    fn trace() -> FleetTrace {
        FleetGen::new(&SimConfig {
            drives_per_model: 400,
            horizon_days: 2190,
            seed: 99,
            ..SimConfig::default()
        })
        .trace()
    }

    #[test]
    fn infant_mortality_shows_in_cdf_and_rate() {
        let t = trace();
        let fa = failure_age(&t);
        // Paper: ~15% of failures < 30 days, ~25% < 90 days.
        assert!(
            (0.08..0.35).contains(&fa.frac_under_30d),
            "under-30d {}",
            fa.frac_under_30d
        );
        assert!(
            (0.15..0.42).contains(&fa.frac_under_90d),
            "under-90d {}",
            fa.frac_under_90d
        );
        // Normalized rate: months 0-2 elevated vs the mature plateau.
        let rates: Vec<(f64, f64)> = fa.monthly_rate.points.clone();
        let infant: f64 = rates
            .iter()
            .filter(|(m, _)| *m < 3.0)
            .map(|(_, r)| r)
            .sum::<f64>()
            / 3.0;
        let mature: f64 = {
            let v: Vec<f64> = rates
                .iter()
                .filter(|(m, _)| (6.0..48.0).contains(m))
                .map(|(_, r)| *r)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            infant > 1.5 * mature,
            "infant rate {infant} vs mature {mature}"
        );
    }

    #[test]
    fn write_intensity_dips_for_infants() {
        let t = trace();
        let wi = write_intensity(&t);
        assert!(wi.quartiles_by_month.len() > 24);
        let median_of = |month: u32| {
            wi.quartiles_by_month
                .iter()
                .find(|(m, ..)| *m == month)
                .map(|&(_, _, q2, _)| q2)
                .unwrap()
        };
        // Months 0-2 markedly below month 12 (Figure 7's infant dip).
        assert!(median_of(1) < 0.8 * median_of(12));
        // Flat beyond infancy: month 12 vs month 36 within 25%.
        let (a, b) = (median_of(12), median_of(36));
        assert!((a / b - 1.0).abs() < 0.25, "month12 {a} vs month36 {b}");
        // Quartile ordering.
        for &(_, q1, q2, q3) in &wi.quartiles_by_month {
            assert!(q1 <= q2 && q2 <= q3);
        }
    }

    #[test]
    fn failures_happen_well_below_pe_limit() {
        let t = trace();
        let w = wear_at_failure(&t);
        // Paper: ~98% of failures before 1500 cycles; allow a band.
        assert!(
            w.frac_under_1500 > 0.85,
            "under-1500 fraction {}",
            w.frac_under_1500
        );
        // Young failures inhabit a compressed P/E range: their median is
        // far below the old median (Figure 9).
        let median = |s: &Series| {
            s.points
                .iter()
                .find(|p| p.1 >= 0.5)
                .map(|p| p.0)
                .unwrap_or(f64::NAN)
        };
        let my = median(&w.pe_cdf_young);
        let mo = median(&w.pe_cdf_old);
        assert!(my < 0.5 * mo, "young median {my} vs old {mo}");
        // KS confirms the distributions are distinct with high confidence.
        assert!(w.young_old_ks > 0.4, "KS {}", w.young_old_ks);
        assert!(w.young_old_ks_p < 0.01, "p {}", w.young_old_ks_p);
    }

    #[test]
    fn failure_rate_is_flat_beyond_infancy_in_pe() {
        let t = trace();
        let w = wear_at_failure(&t);
        // The normalized per-bin rate must not blow up near the 3000 limit
        // (Observation 8: drives beyond the limit fail at low rates).
        let near_limit: Vec<f64> = w
            .rate_per_bin
            .points
            .iter()
            .filter(|(pe, _)| (2500.0..3500.0).contains(pe))
            .map(|(_, r)| *r)
            .collect();
        let early: Vec<f64> = w
            .rate_per_bin
            .points
            .iter()
            .filter(|(pe, _)| (500.0..1500.0).contains(pe))
            .map(|(_, r)| *r)
            .collect();
        if !near_limit.is_empty() && !early.is_empty() {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(
                mean(&near_limit) < 5.0 * mean(&early).max(1e-6),
                "no wear-out cliff expected"
            );
        }
    }
}

ssd_types::impl_json_struct!(FailureAge { age_cdf, monthly_rate, frac_under_30d, frac_under_90d });

ssd_types::impl_json_struct!(WriteIntensity { quartiles_by_month });

ssd_types::impl_json_struct!(WearAtFailure { pe_cdf, rate_per_bin, pe_cdf_young, pe_cdf_old, frac_under_1500, young_old_ks, young_old_ks_p });
