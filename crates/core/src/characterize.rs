//! Trace characterization: Figure 1, Table 1, and Table 2 (Section 2).

use crate::report::{Series, TextTable};
use crate::streaming::summarize;
use ssd_parallel::prelude::*;
use ssd_stats::{spearman_matrix, Ecdf};
use ssd_types::{DriveModel, ErrorKind, FleetTrace};

/// Figure 1: CDFs of maximum observed drive age and of the number of
/// recorded drive days ("Data Count"), per drive.
#[derive(Debug, Clone)]
pub struct TraceCoverage {
    /// "Max Age" CDF (x in years).
    pub max_age: Series,
    /// "Data Count" CDF (x in years' worth of daily entries).
    pub data_count: Series,
    /// Fraction of drives observed for at least 4 years (the paper: for
    /// over 50% of drives, data extends over 4–6 years).
    pub frac_observed_4y_plus: f64,
}

/// Computes Figure 1.
pub fn trace_coverage(trace: &FleetTrace) -> TraceCoverage {
    let max_ages: Vec<f64> = trace
        .drives
        .iter()
        .map(|d| f64::from(d.max_age_days()) / 365.0)
        .collect();
    let data_counts: Vec<f64> = trace
        .drives
        .iter()
        .map(|d| d.data_count() as f64 / 365.0)
        .collect();
    let age_ecdf = Ecdf::new(&max_ages);
    let count_ecdf = Ecdf::new(&data_counts);
    let frac_observed_4y_plus = 1.0 - age_ecdf.eval(4.0 - 1e-9);
    TraceCoverage {
        max_age: Series::new("Max Age", age_ecdf.steps()),
        data_count: Series::new("Data Count", count_ecdf.steps()),
        frac_observed_4y_plus,
    }
}

/// Table 1: proportion of drive days that exhibit each error type,
/// per drive model.
#[derive(Debug, Clone)]
pub struct ErrorIncidence {
    /// `rates[kind][model]` = fraction of recorded drive days with at
    /// least one error of that kind.
    pub rates: Vec<[f64; 3]>,
}

/// Computes Table 1: the [`summarize`] fold's error incidence.
pub fn error_incidence(trace: &FleetTrace) -> ErrorIncidence {
    summarize(trace).error_incidence
}

impl ErrorIncidence {
    /// Renders as the paper's Table 1 (errors as rows, models as columns).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 1: proportion of drive days that exhibit each error type",
            vec![
                "Error type".into(),
                "MLC-A".into(),
                "MLC-B".into(),
                "MLC-D".into(),
            ],
        );
        for kind in ErrorKind::ALL {
            let row = self.rates[kind.index()];
            t.push_row(vec![
                kind.name().into(),
                format!("{:.6}", row[0]),
                format!("{:.6}", row[1]),
                format!("{:.6}", row[2]),
            ]);
        }
        t
    }

    /// Rate for one (kind, model) cell.
    pub fn rate(&self, kind: ErrorKind, model: DriveModel) -> f64 {
        self.rates[kind.index()][model.index()]
    }
}

/// The variables of Table 2, in the paper's row order.
pub const CORRELATION_VARS: [&str; 12] = [
    "erase",
    "final read",
    "final write",
    "meta",
    "read",
    "response",
    "timeout",
    "uncorrectable",
    "write",
    "P/E cycle",
    "bad block count",
    "drive age",
];

/// Table 2: Spearman correlations among cumulative error counts, P/E
/// cycles, bad-block count, and drive age.
#[derive(Debug, Clone)]
pub struct CorrelationMatrix {
    /// Symmetric 12×12 matrix in [`CORRELATION_VARS`] order.
    pub matrix: Vec<Vec<f64>>,
    /// Number of drive observations used.
    pub n_samples: usize,
}

/// Computes Table 2.
///
/// Following the paper, correlations are taken across drives over
/// *cumulative lifetime* counts: one observation per drive, at its last
/// report (its most complete cumulative snapshot).
pub fn correlation_matrix(trace: &FleetTrace) -> CorrelationMatrix {
    // Per-drive cumulative vectors.
    let rows: Vec<[f64; 12]> = trace
        .drives
        .par_iter()
        .filter_map(|d| {
            let last = d.reports.last()?;
            let mut cum_err = [0u64; ErrorKind::COUNT];
            for r in &d.reports {
                for (k, c) in r.errors.iter() {
                    cum_err[k.index()] += c;
                }
            }
            Some([
                cum_err[ErrorKind::Erase.index()] as f64,
                cum_err[ErrorKind::FinalRead.index()] as f64,
                cum_err[ErrorKind::FinalWrite.index()] as f64,
                cum_err[ErrorKind::Meta.index()] as f64,
                cum_err[ErrorKind::Read.index()] as f64,
                cum_err[ErrorKind::Response.index()] as f64,
                cum_err[ErrorKind::Timeout.index()] as f64,
                cum_err[ErrorKind::Uncorrectable.index()] as f64,
                cum_err[ErrorKind::Write.index()] as f64,
                f64::from(last.pe_cycles),
                f64::from(last.bad_blocks()),
                f64::from(last.age_days),
            ])
        })
        .collect();
    let n = rows.len();
    let columns: Vec<Vec<f64>> = (0..12)
        .map(|j| rows.iter().map(|r| r[j]).collect())
        .collect();
    let col_refs: Vec<&[f64]> = columns.iter().map(|c| c.as_slice()).collect();
    CorrelationMatrix {
        matrix: spearman_matrix(&col_refs),
        n_samples: n,
    }
}

impl CorrelationMatrix {
    /// Correlation between two named variables, if both are in
    /// [`CORRELATION_VARS`].
    pub fn try_get(&self, a: &str, b: &str) -> Option<f64> {
        let ia = CORRELATION_VARS.iter().position(|&v| v == a)?;
        let ib = CORRELATION_VARS.iter().position(|&v| v == b)?;
        Some(self.matrix[ia][ib])
    }

    /// Correlation between two named variables; NaN for unknown names
    /// (NaN fails every threshold comparison, so a typo surfaces in the
    /// acceptance checks instead of panicking).
    pub fn get(&self, a: &str, b: &str) -> f64 {
        self.try_get(a, b).unwrap_or(f64::NAN)
    }

    /// Renders the lower triangle as the paper's Table 2.
    pub fn table(&self) -> TextTable {
        let mut header = vec!["".to_string()];
        header.extend(CORRELATION_VARS.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(
            format!(
                "Table 2: Spearman correlations among cumulative counts (n={})",
                self.n_samples
            ),
            header,
        );
        for (i, name) in CORRELATION_VARS.iter().enumerate() {
            let mut row = vec![name.to_string()];
            for j in 0..CORRELATION_VARS.len() {
                if j <= i {
                    let v = self.matrix[i][j];
                    row.push(if v.is_nan() {
                        "--".into()
                    } else {
                        format!("{v:.2}")
                    });
                } else {
                    row.push("".into());
                }
            }
            t.push_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_sim::{FleetGen, SimConfig};

    fn small_trace() -> FleetTrace {
        FleetGen::new(&SimConfig {
            drives_per_model: 120,
            horizon_days: 1200,
            seed: 31,
            ..SimConfig::default()
        })
        .trace()
    }

    #[test]
    fn coverage_cdf_reaches_one() {
        let t = small_trace();
        let c = trace_coverage(&t);
        let last = c.max_age.points.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
        assert!(c.frac_observed_4y_plus >= 0.0);
        // Data count cannot exceed max age for any drive, so the data-count
        // CDF is (weakly) to the left: its median is ≤ the age median.
        let med = |s: &Series| {
            s.points
                .iter()
                .find(|p| p.1 >= 0.5)
                .map(|p| p.0)
                .unwrap_or(f64::NAN)
        };
        assert!(med(&c.data_count) <= med(&c.max_age) + 1e-9);
    }

    #[test]
    fn incidence_orders_match_calibration() {
        let t = small_trace();
        let inc = error_incidence(&t);
        // Correctable errors on ~80% of days; uncorrectable on ~0.2%.
        for m in DriveModel::ALL {
            let corr = inc.rate(ErrorKind::Correctable, m);
            let ue = inc.rate(ErrorKind::Uncorrectable, m);
            assert!((0.70..0.90).contains(&corr), "{m}: corr {corr}");
            assert!(ue < 0.02, "{m}: ue {ue}");
            assert!(corr > 100.0 * ue);
        }
        let table = inc.table();
        assert_eq!(table.rows.len(), ErrorKind::COUNT);
    }

    #[test]
    fn correlation_matrix_shape_and_key_cells() {
        let t = small_trace();
        let c = correlation_matrix(&t);
        assert_eq!(c.matrix.len(), 12);
        // Uncorrectable vs final read: the near-unit coupling of Table 2.
        let ue_fr = c.get("uncorrectable", "final read");
        assert!(ue_fr > 0.7, "UE vs final-read Spearman {ue_fr}");
        // P/E vs age: strong (0.73 in the paper).
        let pe_age = c.get("P/E cycle", "drive age");
        assert!(pe_age > 0.5, "P/E vs age Spearman {pe_age}");
        // Symmetry + unit diagonal.
        for i in 0..12 {
            assert!((c.matrix[i][i] - 1.0).abs() < 1e-9);
            for j in 0..12 {
                let a = c.matrix[i][j];
                let b = c.matrix[j][i];
                assert!(a.is_nan() && b.is_nan() || (a - b).abs() < 1e-12);
            }
        }
        let _ = c.table().render();
    }
}

ssd_types::impl_json_struct!(TraceCoverage { max_age, data_count, frac_observed_4y_plus });

ssd_types::impl_json_struct!(ErrorIncidence { rates });

ssd_types::impl_json_struct!(CorrelationMatrix { matrix, n_samples });
