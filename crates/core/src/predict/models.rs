//! Table 6: cross-validated ROC AUC of the six classifiers at lookahead
//! windows N ∈ {1, 2, 3, 7}.

use super::PredictConfig;
use crate::report::TextTable;
use ssd_ml::{cross_validate_batch, CvError, Dataset, Trainer};
use ssd_types::FleetTrace;

/// Result of the Table 6 experiment.
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Lookahead windows evaluated (columns).
    pub lookaheads: Vec<u32>,
    /// Per model: name and (mean, std) AUC per lookahead.
    pub rows: Vec<(String, Vec<(f64, f64)>)>,
}

/// Runs Table 6. Fails when a dataset cannot be cross-validated (a fleet
/// with too few drives or failures).
pub fn model_comparison(
    trace: &FleetTrace,
    config: &PredictConfig,
    lookaheads: &[u32],
) -> Result<ModelComparison, CvError> {
    let trainers = super::six_model_trainers();
    let mut rows: Vec<(String, Vec<(f64, f64)>)> =
        trainers.iter().map(|t| (t.name(), Vec::new())).collect();
    for &n in lookaheads {
        // One batch per lookahead: 6 trainers × k folds on one dataset.
        let data = config.dataset(trace, n);
        let cvs: Vec<(&dyn Trainer, &Dataset)> =
            trainers.iter().map(|t| (t.as_ref(), &data)).collect();
        let results = cross_validate_batch(&cvs, &config.cv);
        for (r, row) in results.into_iter().zip(rows.iter_mut()) {
            let r = r?;
            row.1.push((r.mean(), r.std_dev()));
        }
    }
    Ok(ModelComparison {
        lookaheads: lookaheads.to_vec(),
        rows,
    })
}

impl ModelComparison {
    /// AUC mean for a (model name, lookahead) cell.
    pub fn auc(&self, model: &str, lookahead: u32) -> Option<f64> {
        let col = self.lookaheads.iter().position(|&n| n == lookahead)?;
        self.rows
            .iter()
            .find(|(name, _)| name == model)
            .map(|(_, cells)| cells[col].0)
    }

    /// Renders as the paper's Table 6 (`mean ± std`, best model per column
    /// implicit from the values).
    pub fn table(&self) -> TextTable {
        let mut header = vec!["N (lookahead days)".to_string()];
        header.extend(self.lookaheads.iter().map(|n| n.to_string()));
        let mut t = TextTable::new(
            "Table 6: ROC AUC per prediction model and lookahead window",
            header,
        );
        for (name, cells) in &self.rows {
            let mut row = vec![name.clone()];
            for (mean, std) in cells {
                row.push(format!("{mean:.3} ± {std:.3}"));
            }
            t.push_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::test_support::shared_trace;

    #[test]
    fn forest_wins_and_short_lookahead_is_easier() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(3);
        let cmp = model_comparison(trace, &cfg, &[1, 7]).unwrap();
        assert_eq!(cmp.rows.len(), 6);

        let rf_1 = cmp.auc("Random Forest", 1).unwrap();
        let rf_7 = cmp.auc("Random Forest", 7).unwrap();
        let lr_1 = cmp.auc("Logistic Reg.", 1).unwrap();

        // Shape claims of Table 6: RF is strong at N=1 (paper 0.905); all
        // models degrade as the window grows; RF beats logistic regression.
        assert!(rf_1 > 0.78, "RF AUC at N=1: {rf_1}");
        assert!(rf_1 > rf_7 - 0.02, "N=1 ({rf_1}) should beat N=7 ({rf_7})");
        assert!(rf_1 >= lr_1 - 0.02, "RF {rf_1} vs LR {lr_1}");
        let _ = cmp.table().render();
    }
}

ssd_types::impl_json_struct!(ModelComparison { lookaheads, rows });
