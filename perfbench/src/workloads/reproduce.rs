//! `reproduce`: `repro --scale test`.
//!
//! Set-up is `FleetGen::trace` of the test-scale fleet (300 drives per
//! model × 6 years, resident). One timed operation runs the 22 experiment ids
//! `repro` runs at that scale, with `PredictConfig::fast(seed)`. Every
//! result is rendered to JSON outside the timed region.

use super::Layers;
use crate::spec::EXPERIMENTS;
use crate::stats::{median, Digest};
use crate::{metric, Ctx, Outcome};
use ssd_field_study_core::predict::{age_analysis, importance, models, per_model, sweep};
use ssd_field_study_core::{aging, characterize, errors_analysis, lifecycle, PredictConfig};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::json::{self, ToJson};
use ssd_types::FleetTrace;
use std::time::Instant;

/// Runs one experiment the way `repro` does and returns its results.
fn experiment(id: &str, trace: &FleetTrace, cfg: &PredictConfig) -> Vec<Box<dyn ToJson>> {
    fn one(v: impl ToJson + 'static) -> Vec<Box<dyn ToJson>> {
        vec![Box::new(v)]
    }
    match id {
        "fig1" => one(characterize::trace_coverage(trace)),
        "tab1" => one(characterize::error_incidence(trace)),
        "tab2" => one(characterize::correlation_matrix(trace)),
        "tab3" => one(lifecycle::failure_incidence(trace)),
        "tab4" => one(lifecycle::failure_count_distribution(trace)),
        "fig3" | "fig4" | "fig5" => {
            let idx = match id {
                "fig3" => 0,
                "fig4" => 1,
                _ => 2,
            };
            lifecycle::lifecycle_series(trace)
                .into_iter()
                .nth(idx)
                .map_or_else(Vec::new, one)
        }
        "tab5" => one(lifecycle::repair_reentry(trace)),
        "fig6" => one(aging::failure_age(trace)),
        "fig7" => one(aging::write_intensity(trace)),
        "fig8" | "fig9" => one(aging::wear_at_failure(trace)),
        "fig10" => one(errors_analysis::cumulative_error_cdfs(trace)),
        "fig11" => one(errors_analysis::pre_failure_errors(trace)),
        "tab6" => one(models::model_comparison(trace, cfg, &[1, 2, 3, 7])),
        "fig12" => one(sweep::lookahead_sweep(
            trace,
            cfg,
            &[1, 2, 3, 5, 7, 10, 14, 21, 30],
        )),
        "fig13" => one(per_model::per_model_roc(trace, cfg)),
        "tab7" => one(per_model::transfer_matrix(trace, cfg)),
        "fig14" => one(age_analysis::tpr_by_age(trace, cfg, &[0.85, 0.90, 0.95])),
        "fig15" => one(age_analysis::young_old_roc(trace, cfg)),
        "fig16" => {
            let (young, old) = importance::feature_importance(trace, cfg);
            vec![Box::new(young), Box::new(old)]
        }
        _ => Vec::new(),
    }
}

pub(crate) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let root = tracer.open("workload", None, None);
    let sim = SimConfig::test_scale(ctx.seed);
    let mut setups = Vec::new();
    let mut trace = None;
    for _ in 0..3 {
        drop(trace.take());
        let t = Instant::now();
        trace = Some(tracer.scope("sim.trace", root, |_| FleetGen::new(&sim).trace()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let trace = trace.ok_or("no trace generated")?;
    let mut cfg = PredictConfig::fast(ctx.seed);
    cfg.seed = ctx.seed;
    cfg.cv.seed = ctx.seed;

    let mut times = Vec::new();
    let mut digests = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let reps = ctx.repeat(2, |_| {
        let t = Instant::now();
        let results: Vec<(&str, Vec<Box<dyn ToJson>>)> = tracer.scope("rep", root, |p| {
            EXPERIMENTS
                .iter()
                .map(|&(module, id)| {
                    let r = tracer.scope(&format!("{module}.{id}"), p, |_| {
                        experiment(id, &trace, &cfg)
                    });
                    (id, r)
                })
                .collect()
        });
        times.push(t.elapsed().as_secs_f64());
        // Outside the timed region: every id returned and renders to
        // JSON that parses back.
        let mut d = Digest::new();
        for (id, values) in &results {
            attempted += 1;
            let mut ok = !values.is_empty();
            for v in values {
                let body = json::to_string(&crate::Raw(v.to_json()));
                ok &= json::parse(&body).is_ok();
                d.update(id.as_bytes());
                d.update(body.as_bytes());
            }
            if !ok {
                eprintln!("reproduce: {id} returned no result or unparseable JSON");
                failed += 1;
            }
        }
        digests.push(d.hex());
        Ok(())
    })?;
    tracer.close(root);
    if digests.iter().any(|d| *d != digests[0]) {
        eprintln!("reproduce: experiment output changed between repetitions");
        failed += 1;
    }

    let mut per_layer = Vec::new();
    if tracer.enabled() {
        let spans = tracer.snapshot();
        per_layer.push(metric(
            "sim.trace_s",
            Layers::new(&spans, setups.len()).self_s("sim.trace"),
            "s",
        ));
        let l = Layers::new(&spans, reps);
        for (module, id) in EXPERIMENTS {
            per_layer.push(metric(
                format!("{module}.{id}_s"),
                l.self_s(&format!("{module}.{id}")),
                "s",
            ));
        }
    }
    Ok(Outcome {
        end_to_end: vec![
            metric("setup_s", median(&setups), "s"),
            metric("op_s", median(&times), "s"),
        ],
        per_layer,
        attempted,
        failed,
        digest: format!(
            "experiments {} ({} drives, {} drive-days)",
            digests[0],
            trace.n_drives(),
            trace.total_drive_days()
        ),
    })
}
