//! End-to-end integration: fleet simulation → feature extraction →
//! training → evaluation, across crate boundaries.

use ssd_field_study::core::features::{age_rows, model_rows};
use ssd_field_study::core::{build_dataset, ExtractOptions, LabelKind};
use ssd_field_study::ml::{
    cross_validate, CvOptions, Dataset, ForestConfig, LogisticRegressionConfig,
};
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::{DriveModel, ErrorKind, FleetTrace};

fn trace() -> ssd_field_study::types::FleetTrace {
    FleetGen::new(&SimConfig {
        drives_per_model: 400,
        horizon_days: 2190,
        seed: 555,
        ..SimConfig::default()
    })
    .trace()
}

#[test]
fn full_pipeline_reaches_paper_band_auc() {
    let trace = trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 1,
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let r = cross_validate(
        &ForestConfig {
            n_trees: 60,
            ..Default::default()
        },
        &data,
        &CvOptions::default(),
    )
    .unwrap();
    // Paper Table 6: RF at N=1 is 0.905 ± 0.008 on 30k drives. At 1.2k
    // drives we accept a generous band around it.
    assert!(
        (0.78..=0.99).contains(&r.mean()),
        "RF N=1 AUC {} outside the acceptance band",
        r.mean()
    );
}

#[test]
fn forest_beats_linear_model_end_to_end() {
    let trace = trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 1,
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let opts = CvOptions::default();
    let rf = cross_validate(
        &ForestConfig {
            n_trees: 60,
            ..Default::default()
        },
        &data,
        &opts,
    )
    .unwrap();
    let lr = cross_validate(&LogisticRegressionConfig::default(), &data, &opts).unwrap();
    // Table 6 ordering: Random Forest > Logistic Regression (0.905 vs
    // 0.796). Allow for CV noise with a small slack.
    assert!(
        rf.mean() > lr.mean() - 0.01,
        "RF {} should not trail LR {}",
        rf.mean(),
        lr.mean()
    );
}

#[test]
fn longer_lookahead_is_harder_end_to_end() {
    let trace = trace();
    let mut aucs = Vec::new();
    for n in [1u32, 7, 21] {
        let data = build_dataset(
            &trace,
            &ExtractOptions {
                lookahead_days: n,
                negative_sample_rate: 0.05,
                ..Default::default()
            },
        );
        let r = cross_validate(
            &ForestConfig {
                n_trees: 40,
                ..Default::default()
            },
            &data,
            &CvOptions::default(),
        )
        .unwrap();
        aucs.push(r.mean());
    }
    // Figure 12's downward trend: N=1 must beat N=21 clearly.
    assert!(
        aucs[0] > aucs[2] + 0.01,
        "AUC should decay with lookahead: {aucs:?}"
    );
}

#[test]
fn young_partition_is_more_predictable_end_to_end() {
    let trace = trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 1,
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let mk = |rows: &[usize]| {
        cross_validate(
            &ForestConfig {
                n_trees: 40,
                ..Default::default()
            },
            &data.select(rows),
            &CvOptions::default(),
        )
        .unwrap()
        .mean()
    };
    let [young, old] = age_rows(&data);
    let young = mk(&young);
    let old = mk(&old);
    // Section 5.3: 0.970 young vs 0.890 old. Assert ordering with slack.
    assert!(
        young > old - 0.05,
        "young {young} should not trail old {old} meaningfully"
    );
}

/// Features (as bits), labels and groups, for bit-equality checks.
fn contents(d: &Dataset) -> (Vec<u32>, Vec<bool>, Vec<u32>) {
    (
        d.raw_features().iter().map(|v| v.to_bits()).collect(),
        d.labels().to_vec(),
        d.groups().to_vec(),
    )
}

#[test]
fn age_and_model_partitions_are_row_selections_of_one_dataset() {
    let trace = trace();
    let opts = ExtractOptions {
        lookahead_days: 1,
        negative_sample_rate: 0.05,
        ..Default::default()
    };
    let data = build_dataset(&trace, &opts);
    // Young and old split the joint rows exactly, at the infancy bound.
    let [young, old] = age_rows(&data);
    assert!(!young.is_empty() && !old.is_empty());
    let mut both: Vec<usize> = young.iter().chain(&old).copied().collect();
    both.sort_unstable();
    assert_eq!(both, (0..data.n_rows()).collect::<Vec<usize>>());
    assert!(young.iter().all(|&i| data.row(i)[29] <= 90.0));
    assert!(old.iter().all(|&i| data.row(i)[29] > 90.0));
    // A model's selection is the dataset of a trace of its drives alone.
    for (m, rows) in DriveModel::ALL.iter().zip(model_rows(&trace, &data)) {
        let mut alone = FleetTrace::new(trace.horizon_days);
        alone.drives = trace.drives.iter().filter(|d| d.model == *m).cloned().collect();
        let selected = data.select(&rows);
        assert!(selected.n_rows() > 0, "{m} has no rows");
        assert_eq!(contents(&selected), contents(&build_dataset(&alone, &opts)), "{m}");
    }
}

#[test]
fn error_prediction_pipeline_works() {
    let trace = trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 2,
            label: LabelKind::Error(ErrorKind::Uncorrectable),
            negative_sample_rate: 0.02,
            ..Default::default()
        },
    );
    let (pos, neg) = data.class_counts();
    assert!(pos > 50 && neg > 50, "classes: {pos}/{neg}");
    let r = cross_validate(
        &ForestConfig {
            n_trees: 40,
            ..Default::default()
        },
        &data,
        &CvOptions::default(),
    )
    .unwrap();
    // Paper Table 8: UE prediction at 0.933; drive history makes this an
    // easier task than swap prediction.
    assert!(r.mean() > 0.75, "UE-prediction AUC {}", r.mean());
}
