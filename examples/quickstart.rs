//! Quickstart: simulate a small SSD fleet, inspect it, and train a failure
//! predictor — the whole pipeline in ~50 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ssd_field_study::core::{build_dataset, ExtractOptions};
use ssd_field_study::ml::{cross_validate, CvError, CvOptions, ForestConfig};
use ssd_field_study::sim::{FleetGen, SimConfig};

fn main() -> Result<(), CvError> {
    // 1. Simulate a fleet: 300 drives of each MLC model over six years.
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 300,
        horizon_days: 6 * 365,
        seed: 42,
        ..SimConfig::default()
    })
    .trace();
    println!(
        "fleet: {} drives, {} drive-days, {} swap events",
        trace.n_drives(),
        trace.total_drive_days(),
        trace.total_swaps()
    );

    // 2. Turn the raw logs into a supervised dataset: one row per reported
    //    drive-day, labeled "does a swap-inducing failure occur within the
    //    next day?".
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 1,
            negative_sample_rate: 0.05, // all positives, 5% of negatives
            ..Default::default()
        },
    );
    let (pos, neg) = data.class_counts();
    println!("dataset: {} rows ({pos} failure days, {neg} healthy days)", data.n_rows());

    // 3. Cross-validate a random forest with the paper's protocol: 5 folds
    //    grouped by drive ID, training folds downsampled to 1:1.
    let result = cross_validate(
        &ForestConfig::default(),
        &data,
        &CvOptions {
            k: 5,
            downsample_ratio: 1.0,
            seed: 42,
        },
    )?;
    println!("random forest ROC AUC (N=1): {}", result.display());
    println!("(the paper reports 0.905 ± 0.008 on the full 30k-drive trace)");
    Ok(())
}
