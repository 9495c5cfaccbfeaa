//! Auditing the paper's 13 observations against a fleet.
//!
//! The paper condenses its findings into numbered Observations. This
//! example re-checks every one of them automatically — the tool a site
//! would run against its *own* field data to see which of the paper's
//! conclusions transfer to its fleet.
//!
//! ```sh
//! cargo run --release --example observation_audit
//! ```

use ssd_field_study::core::observations::{
    audit_model_observations, audit_trace_observations, render_checks,
};
use ssd_field_study::core::PredictConfig;
use ssd_field_study::ml::CvError;
use ssd_field_study::sim::{FleetGen, SimConfig};

fn main() -> Result<(), CvError> {
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 700,
        horizon_days: 6 * 365,
        seed: 13,
        ..SimConfig::default()
    })
    .trace();
    println!(
        "auditing {} drives / {} drive-days against the paper's observations...\n",
        trace.n_drives(),
        trace.total_drive_days()
    );

    // Observations 1–11: pure trace statistics.
    let mut checks = audit_trace_observations(&trace);

    // Observations 12–13 need trained models (takes a little longer).
    checks.extend(audit_model_observations(&trace, &PredictConfig::fast(13))?);

    println!("{}", render_checks(&checks));

    let holding = checks.iter().filter(|c| c.holds).count();
    println!("{holding}/{} observations hold on this fleet", checks.len());
    if holding < checks.len() {
        println!("(a real fleet diverging here is exactly the interesting signal)");
        std::process::exit(1);
    }
    Ok(())
}
