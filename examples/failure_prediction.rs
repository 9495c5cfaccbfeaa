//! Operating a failure predictor: choose a deployment threshold, inspect
//! the alerts it would raise, and compare the six model families.
//!
//! The paper's use case (Section 5): "if we are able to detect future
//! failures far enough in advance with sufficient certainty, we have the
//! option to take preventative action". Production deployments need a low
//! false-positive rate, so we pick the operating point from the ROC curve.
//!
//! ```sh
//! cargo run --release --example failure_prediction
//! ```

use ssd_field_study::core::predict::six_model_trainers;
use ssd_field_study::core::{build_dataset, ExtractOptions, PredictConfig};
use ssd_field_study::ml::split::complement;
use ssd_field_study::ml::{
    cross_validate, grouped_kfold, Classifier, Confusion, CvError, CvOptions, RocCurve,
};
use ssd_field_study::sim::{FleetGen, SimConfig};

fn main() -> Result<(), CvError> {
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 700,
        horizon_days: 6 * 365,
        seed: 9,
        ..SimConfig::default()
    })
    .trace();
    let data = build_dataset(
        &trace,
        &ExtractOptions {
            lookahead_days: 3, // three days of warning to migrate data
            negative_sample_rate: 0.05,
            ..Default::default()
        },
    );
    let (pos, neg) = data.class_counts();
    println!("dataset: {pos} failure-imminent days, {neg} healthy days\n");

    // -- Compare the six model families (Table 6's protocol) --------------
    let cv = CvOptions {
        k: 5,
        downsample_ratio: 1.0,
        seed: 9,
    };
    println!("cross-validated ROC AUC (N = 3 days):");
    for t in &six_model_trainers() {
        let r = cross_validate(t.as_ref(), &data, &cv)?;
        println!("  {:<16} {}", t.name(), r.display());
    }

    // -- Pick an operating point on a held-out fold -----------------------
    // Step 2 of the protocol: the default forest on the 1:1-downsampled
    // training side, downsample and fit both seeded 9.
    let fit = PredictConfig {
        cv,
        seed: 9,
        ..PredictConfig::default()
    };
    let folds = grouped_kfold(&data, 5, 9)?;
    let model = fit.fit_forest(&data, &complement(&data, &folds[0]))?;
    let test = data.select(&folds[0]);
    let scores = model.predict_batch(&test);
    let curve = RocCurve::compute(&scores, test.labels());
    println!("\nheld-out AUC: {:.3}", curve.auc());

    println!("\noperating points (score >= threshold raises an alert):");
    println!(
        "  {:>9}  {:>6}  {:>8}  {:>9}  {:>11}",
        "threshold", "recall", "FPR", "precision", "alerts/10k"
    );
    for max_fpr in [0.001, 0.01, 0.05] {
        // Largest threshold whose FPR stays within budget.
        let point = curve
            .points
            .iter()
            .take_while(|p| p.fpr <= max_fpr)
            .last()
            .expect("curve starts at fpr 0");
        let c = Confusion::at_threshold(&scores, test.labels(), point.threshold);
        println!(
            "  {:>9.3}  {:>5.1}%  {:>7.2}%  {:>8.1}%  {:>11.1}",
            point.threshold,
            c.tpr() * 100.0,
            c.fpr() * 100.0,
            c.precision() * 100.0,
            (c.tp + c.fp) as f64 / test.n_rows() as f64 * 10_000.0
        );
    }
    println!(
        "\nAt a strict FPR budget the model still catches a sizable share of\n\
         failures days in advance - enough to migrate data off sick drives."
    );
    Ok(())
}
