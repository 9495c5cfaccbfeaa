//! Integration coverage for the beyond-the-paper observation audit,
//! running on a simulated fleet end to end.

use ssd_field_study::core::audit_trace_observations;
use ssd_field_study::sim::{FleetGen, SimConfig};

#[test]
fn trace_observations_audit_passes_end_to_end() {
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 300,
        horizon_days: 2190,
        seed: 31337,
        ..SimConfig::default()
    })
    .trace();
    let checks = audit_trace_observations(&trace);
    let failing: Vec<u8> = checks.iter().filter(|c| !c.holds).map(|c| c.id).collect();
    assert!(
        failing.len() <= 1,
        "at most one scale-sensitive observation may fail at 900 drives: {failing:?}"
    );
}
