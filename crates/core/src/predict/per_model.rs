//! Figure 13 (per-model ROC curves) and Table 7 (cross-model transfer).

use super::PredictConfig;
use crate::features::{build_dataset, ExtractOptions};
use crate::report::{Series, TextTable};
use ssd_ml::split::complement;
use ssd_ml::{grouped_kfold, roc_auc, Classifier, CvError, Dataset, RandomForest, RocCurve};
use ssd_types::{DriveModel, FleetTrace};
use std::collections::BTreeSet;

/// A ROC curve labeled with its AUC, for one drive model (Figure 13).
#[derive(Debug, Clone)]
pub struct ModelRoc {
    /// Drive model name.
    pub model: String,
    /// Cross-validated mean AUC.
    pub auc: f64,
    /// A representative ROC curve (the first held-out fold whose test
    /// rows hold both classes).
    pub curve: Series,
}

/// The N = 1 dataset of each drive model.
fn per_model_datasets(trace: &FleetTrace, config: &PredictConfig) -> Vec<Dataset> {
    DriveModel::ALL
        .iter()
        .map(|&m| {
            build_dataset(trace, &ExtractOptions { model: Some(m), ..config.extract_opts(1) })
        })
        .collect()
}

/// Runs Figure 13: random forest, N = 1, evaluated per drive model. Fails
/// when a model's dataset cannot be cross-validated.
pub fn per_model_roc(
    trace: &FleetTrace,
    config: &PredictConfig,
) -> Result<Vec<ModelRoc>, CvError> {
    let datasets = per_model_datasets(trace, config);
    DriveModel::ALL
        .iter()
        .zip(&datasets)
        .zip(config.forest_cvs(&datasets))
        .map(|((&m, data), cv)| {
            let cv = cv?;
            // Representative curve from the first grouped fold whose test
            // split contains both classes (small fleets can leave folds
            // without a single failure day).
            let folds = grouped_kfold(data, config.cv.k, config.cv.seed)?;
            let fold = folds
                .iter()
                .find(|f| {
                    let pos = f.iter().filter(|&&i| data.label(i)).count();
                    pos > 0 && pos < f.len()
                })
                .unwrap_or(&folds[0]);
            let model = config.fit_forest(data, &complement(data, fold))?;
            let test = data.select(fold);
            let curve = RocCurve::compute(&model.predict_batch(&test), test.labels());
            Ok(ModelRoc {
                model: m.name().to_string(),
                auc: cv.mean(),
                curve: Series::new(
                    format!("{} (AUC={:.3})", m.name(), cv.mean()),
                    curve.points.iter().map(|p| (p.fpr, p.tpr)).collect(),
                ),
            })
        })
        .collect()
}

/// Table 7: AUC of a random forest trained on one model's drives and
/// tested on another's (N = 1). The diagonal is cross-validated; the last
/// column trains on all three models.
#[derive(Debug, Clone)]
pub struct TransferMatrix {
    /// `auc[test][train]`, train columns being [A, B, D, All].
    pub auc: Vec<Vec<f64>>,
}

/// Runs Table 7. Fails when a model's dataset cannot be cross-validated
/// or a transfer cell's training rows lack a class.
pub fn transfer_matrix(
    trace: &FleetTrace,
    config: &PredictConfig,
) -> Result<TransferMatrix, CvError> {
    let datasets = per_model_datasets(trace, config);
    let diagonal = config
        .forest_cvs(&datasets)
        .into_iter()
        .map(|r| r.map(|r| r.mean()))
        .collect::<Result<Vec<f64>, CvError>>()?;
    let all = config.dataset(trace, 1);
    let mut auc = vec![vec![0.0; 4]; 3];
    for (ti, test) in datasets.iter().enumerate() {
        let score = |model: RandomForest| roc_auc(&model.predict_batch(test), test.labels());
        for (si, train) in datasets.iter().enumerate() {
            auc[ti][si] = if ti == si {
                diagonal[ti]
            } else {
                let rows: Vec<usize> = (0..train.n_rows()).collect();
                score(config.fit_forest(train, &rows)?)
            };
        }
        // "All" trains on the union of models minus the test model's
        // drives, then scores that model's rows.
        let test_drives: BTreeSet<u32> = test.groups().iter().copied().collect();
        let rows: Vec<usize> =
            (0..all.n_rows()).filter(|&i| !test_drives.contains(&all.group(i))).collect();
        auc[ti][3] = score(config.fit_forest(&all, &rows)?);
    }
    Ok(TransferMatrix { auc })
}

impl TransferMatrix {
    /// Renders as the paper's Table 7.
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table 7: random forest transfer AUC (N=1); diagonal cross-validated",
            vec![
                "Test \\ Train".into(),
                "MLC-A".into(),
                "MLC-B".into(),
                "MLC-D".into(),
                "All".into(),
            ],
        );
        for (ti, m) in DriveModel::ALL.iter().enumerate() {
            let mut row = vec![m.name().to_string()];
            for si in 0..4 {
                row.push(format!("{:.3}", self.auc[ti][si]));
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
    fn per_model_rocs_are_comparable() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(7);
        let rocs = per_model_roc(trace, &cfg).unwrap();
        assert_eq!(rocs.len(), 3);
        for r in &rocs {
            // Figure 13: all three models predict nearly identically well
            // (0.900–0.918 in the paper); we allow a generous band.
            assert!(r.auc > 0.70, "{}: AUC {}", r.model, r.auc);
            assert!(!r.curve.points.is_empty());
        }
        let spread = rocs.iter().map(|r| r.auc).fold(f64::MIN, f64::max)
            - rocs.iter().map(|r| r.auc).fold(f64::MAX, f64::min);
        assert!(spread < 0.15, "per-model AUC spread {spread}");
    }

    #[test]
    fn transfer_works_and_diagonal_is_strong() {
        let trace = shared_trace();
        let cfg = PredictConfig::fast(8);
        let t = transfer_matrix(trace, &cfg).unwrap();
        for ti in 0..3 {
            for si in 0..4 {
                let v = t.auc[ti][si];
                assert!((0.5..=1.0).contains(&v), "cell [{ti}][{si}] = {v}");
            }
            // Cross-model training degrades only mildly (Table 7).
            let diag = t.auc[ti][ti];
            for si in 0..3 {
                assert!(
                    t.auc[ti][si] > diag - 0.20,
                    "transfer [{ti}][{si}] {} vs diagonal {diag}",
                    t.auc[ti][si]
                );
            }
        }
        let _ = t.table().render();
    }
}

ssd_types::impl_json_struct!(ModelRoc { model, auc, curve });

ssd_types::impl_json_struct!(TransferMatrix { auc });
