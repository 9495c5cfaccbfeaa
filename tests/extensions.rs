//! Integration coverage for the beyond-the-paper extensions, GBDT and the
//! observation audit, both running on the same simulated fleet end to end.

use ssd_field_study::core::{audit_trace_observations, build_dataset, ExtractOptions};
use ssd_field_study::ml::{cross_validate, CvOptions, ForestConfig, GbdtConfig};
use ssd_field_study::sim::{FleetGen, SimConfig};
use ssd_field_study::types::FleetTrace;
use std::sync::OnceLock;

fn trace() -> &'static FleetTrace {
    static T: OnceLock<FleetTrace> = OnceLock::new();
    T.get_or_init(|| {
        FleetGen::new(&SimConfig {
            drives_per_model: 300,
            horizon_days: 2190,
            seed: 31337,
            ..SimConfig::default()
        })
        .trace()
    })
}

#[test]
fn gbdt_is_competitive_with_the_forest() {
    let data = build_dataset(
        trace(),
        &ExtractOptions {
            lookahead_days: 7, // the "large N" regime the paper targets next
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let opts = CvOptions::default();
    let rf = cross_validate(
        &ForestConfig {
            n_trees: 40,
            ..Default::default()
        },
        &data,
        &opts,
    )
    .unwrap();
    let gb = cross_validate(
        &GbdtConfig {
            n_trees: 80,
            ..Default::default()
        },
        &data,
        &opts,
    )
    .unwrap();
    // At 900 drives the downsampled training folds hold only ~60 positive
    // rows — far below boosting's comfort zone — so GBDT trails the forest
    // here; the assertion bounds the gap rather than demanding parity.
    assert!(gb.mean() > 0.60, "GBDT N=7 AUC {}", gb.mean());
    assert!(
        rf.mean() - gb.mean() < 0.15,
        "GBDT {} vs RF {} diverged",
        gb.mean(),
        rf.mean()
    );
}

#[test]
fn trace_observations_audit_passes_end_to_end() {
    let checks = audit_trace_observations(trace());
    let failing: Vec<u8> = checks.iter().filter(|c| !c.holds).map(|c| c.id).collect();
    assert!(
        failing.len() <= 1,
        "at most one scale-sensitive observation may fail at 900 drives: {failing:?}"
    );
}
