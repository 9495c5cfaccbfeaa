//! Figure 13 (per-model ROC curves) and Table 7 (cross-model transfer).

use super::PredictConfig;
use crate::features::{build_dataset, ExtractOptions};
use crate::report::{Series, TextTable};
use ssd_ml::{
    cross_validate, downsample_majority, grouped_kfold, roc_auc, train_test_auc,
    RocCurve, Trainer,
};
use ssd_ml::split::complement;
use ssd_types::{DriveModel, FleetTrace};

fn model_dataset(
    trace: &FleetTrace,
    config: &PredictConfig,
    model: Option<DriveModel>,
    lookahead: u32,
) -> ssd_ml::Dataset {
    build_dataset(
        trace,
        &ExtractOptions {
            lookahead_days: lookahead,
            negative_sample_rate: config.negative_sample_rate,
            seed: config.seed,
            model,
            ..Default::default()
        },
    )
}

/// A ROC curve labeled with its AUC, for one drive model (Figure 13).
#[derive(Debug, Clone)]
pub struct ModelRoc {
    /// Drive model name.
    pub model: String,
    /// Cross-validated mean AUC.
    pub auc: f64,
    /// A representative ROC curve (held-out fold 0).
    pub curve: Series,
}

/// Runs Figure 13: random forest, N = 1, evaluated per drive model.
pub fn per_model_roc(trace: &FleetTrace, config: &PredictConfig) -> Vec<ModelRoc> {
    DriveModel::ALL
        .iter()
        .map(|&m| {
            let data = model_dataset(trace, config, Some(m), 1);
            let cv = cross_validate(&config.forest, &data, &config.cv);
            // Representative curve from the first grouped fold whose test
            // split contains both classes (small fleets can leave folds
            // without a single failure day).
            let folds = grouped_kfold(&data, config.cv.k, config.cv.seed);
            let fold = folds
                .iter()
                .find(|f| {
                    let t = data.select(f);
                    let (pos, neg) = t.class_counts();
                    pos > 0 && neg > 0
                })
                .unwrap_or(&folds[0]);
            let test = data.select(fold);
            let train_idx = downsample_majority(
                &data,
                &complement(&data, fold),
                config.cv.downsample_ratio,
                config.seed,
            );
            let model_fit = config.forest.fit(&data.select(&train_idx), config.seed);
            let scores = model_fit.predict_batch(&test);
            let curve = RocCurve::compute(&scores, test.labels());
            ModelRoc {
                model: m.name().to_string(),
                auc: cv.mean(),
                curve: Series::new(
                    format!("{} (AUC={:.3})", m.name(), cv.mean()),
                    curve.points.iter().map(|p| (p.fpr, p.tpr)).collect(),
                ),
            }
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

/// Runs Table 7.
pub fn transfer_matrix(trace: &FleetTrace, config: &PredictConfig) -> TransferMatrix {
    let datasets: Vec<ssd_ml::Dataset> = DriveModel::ALL
        .iter()
        .map(|&m| model_dataset(trace, config, Some(m), 1))
        .collect();
    let all = model_dataset(trace, config, None, 1);
    let mut auc = vec![vec![0.0; 4]; 3];
    for (ti, test) in datasets.iter().enumerate() {
        for (si, train) in datasets.iter().enumerate() {
            auc[ti][si] = if ti == si {
                cross_validate(&config.forest, train, &config.cv).mean()
            } else {
                train_test_auc(
                    &config.forest,
                    train,
                    test,
                    config.cv.downsample_ratio,
                    config.seed,
                )
            };
        }
        // "All" column: train on everything except this model's drives
        // would break the paper's protocol — the paper trains on all data
        // and cross-validates, so the test drives are held out by fold.
        // We approximate with a train/test split where training drives of
        // the test model are excluded by grouped folding inside
        // `train_test_auc` being replaced by CV on the union:
        auc[ti][3] = {
            // Train on all three models; the grouped CV inside keeps the
            // test drives out of training. Evaluate only rows of the test
            // model by training on `all` minus this model's drives.
            let scores_auc = transfer_all_to(&all, test, config);
            scores_auc
        };
    }
    TransferMatrix { auc }
}

/// Trains on the union dataset with the test model's drives removed, then
/// scores the test model's rows.
fn transfer_all_to(
    all: &ssd_ml::Dataset,
    test: &ssd_ml::Dataset,
    config: &PredictConfig,
) -> f64 {
    use std::collections::BTreeSet;
    let test_drives: BTreeSet<u32> = test.groups().iter().copied().collect();
    let train_idx: Vec<usize> = (0..all.n_rows())
        .filter(|&i| !test_drives.contains(&all.group(i)))
        .collect();
    let train_idx = downsample_majority(all, &train_idx, config.cv.downsample_ratio, config.seed);
    let model = config.forest.fit(&all.select(&train_idx), config.seed);
    let scores = model.predict_batch(test);
    roc_auc(&scores, test.labels())
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
        let rocs = per_model_roc(trace, &cfg);
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
        let t = transfer_matrix(trace, &cfg);
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
