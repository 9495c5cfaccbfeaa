//! Regenerates every table and figure of the paper from a simulated fleet —
//! or from a real trace.
//!
//! ```text
//! repro [--scale test|default|paper] [--seed N] [--json DIR]
//!       [--trace PATH [--horizon DAYS]] [IDS...]
//! ```
//!
//! `IDS` are experiment identifiers (`tab1`, `fig6`, …) as listed in
//! DESIGN.md; with no ids, every experiment runs. `--json DIR` additionally
//! writes each result as JSON for EXPERIMENTS.md bookkeeping. With
//! `--trace`, the fleet is loaded from an archive / JSON export / CSV
//! directory (`--horizon` required for CSV) instead of simulated, so the
//! paper's analyses run against real field data in this tool's schema.

#![deny(missing_docs)]

use ssd_field_study_core::predict::{
    age_analysis, error_pred, importance, models, per_model, sweep,
};
use ssd_field_study_core::report::render_series;
use ssd_field_study_core::{aging, characterize, errors_analysis, lifecycle};
use ssd_field_study_core::{PredictConfig, Series};
use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::source::TraceSource;
use ssd_types::FleetTrace;

const USAGE: &str = "repro [--scale test|default|paper] [--seed N] [--json DIR] \
                     [--trace PATH [--horizon DAYS]] [IDS...]";

struct Args {
    scale: String,
    seed: u64,
    json_dir: Option<String>,
    trace: Option<String>,
    horizon: Option<u32>,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut args = Args {
        scale: "default".into(),
        seed: 7,
        json_dir: None,
        trace: None,
        horizon: None,
        ids: Vec::new(),
    };
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--scale" => args.scale = it.value("--scale")?,
            "--seed" => args.seed = it.parsed("--seed")?,
            "--json" => args.json_dir = Some(it.value("--json")?),
            "--trace" => args.trace = Some(it.value("--trace")?),
            "--horizon" => args.horizon = Some(it.parsed("--horizon")?),
            // Bare tokens are experiment ids; unknown flags still error.
            flag if flag.starts_with('-') => return Err(it.unknown(flag)),
            id if KNOWN_IDS.contains(&id) => args.ids.push(id.to_string()),
            id => {
                return Err(UsageError(format!(
                    "unknown experiment id: {id} (see DESIGN.md)"
                )))
            }
        }
    }
    Ok(args)
}

/// Every experiment id `repro` accepts, in default run order: the
/// paper's 22 figures and tables, then `tab8`, then the two extensions
/// that run only when named.
const KNOWN_IDS: [&str; 25] = [
    "fig1", "tab1", "tab2", "tab3", "tab4", "fig3", "fig4", "fig5", "tab5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "tab6", "fig12", "fig13", "tab7", "fig14", "fig15", "fig16", "tab8",
    "obs", "reentry",
];

/// The ids run when none are named: the paper's 22, plus `tab8` except
/// at test scale (it runs 30 cross-validations).
fn default_ids(scale: &str) -> &'static [&'static str] {
    let n = if scale == "test" { 22 } else { 23 };
    &KNOWN_IDS[..n]
}

fn save_json(
    dir: &Option<String>,
    id: &str,
    value: &impl ssd_types::json::ToJson,
) -> Result<(), BinError> {
    if let Some(dir) = dir {
        let path = format!("{dir}/{id}.json");
        let body = ssd_types::json::to_string_pretty(value);
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("  [wrote {path}]");
    }
    Ok(())
}

fn print_series(title: &str, series: &[Series]) {
    println!("{}", render_series(title, series, 16));
}

fn run_experiment(
    id: &str,
    trace: &FleetTrace,
    cfg: &PredictConfig,
    json: &Option<String>,
) -> Result<(), BinError> {
    println!("=== {id} ===");
    match id {
        "fig1" => {
            let r = characterize::trace_coverage(trace);
            print_series(
                "Figure 1: CDFs of max observed age and data count (years)",
                &[r.max_age.clone(), r.data_count.clone()],
            );
            println!(
                "fraction of drives observed 4+ years: {:.3}\n",
                r.frac_observed_4y_plus
            );
            save_json(json, id, &r)?;
        }
        "tab1" => {
            let r = characterize::error_incidence(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "tab2" => {
            let r = characterize::correlation_matrix(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "tab3" => {
            let r = lifecycle::failure_incidence(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "tab4" => {
            let r = lifecycle::failure_count_distribution(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "fig3" | "fig4" | "fig5" => {
            let series = lifecycle::lifecycle_series(trace);
            let idx = match id {
                "fig3" => 0,
                "fig4" => 1,
                _ => 2,
            };
            print_series("Lifecycle CDF", &series[idx..=idx]);
            save_json(json, id, &series[idx])?;
        }
        "tab5" => {
            let r = lifecycle::repair_reentry(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "fig6" => {
            let r = aging::failure_age(trace);
            print_series(
                "Figure 6: failure age CDF (months) and normalized monthly rate",
                &[r.age_cdf.clone(), r.monthly_rate.clone()],
            );
            println!(
                "failures <30d: {:.1}%   <90d: {:.1}%\n",
                r.frac_under_30d * 100.0,
                r.frac_under_90d * 100.0
            );
            save_json(json, id, &r)?;
        }
        "fig7" => {
            let r = aging::write_intensity(trace);
            println!("Figure 7: daily write-intensity quartiles by age month");
            println!("{:>6} {:>14} {:>14} {:>14}", "month", "Q1", "median", "Q3");
            for &(m, q1, q2, q3) in r.quartiles_by_month.iter().step_by(3) {
                println!("{m:>6} {q1:>14.3e} {q2:>14.3e} {q3:>14.3e}");
            }
            println!();
            save_json(json, id, &r)?;
        }
        "fig8" | "fig9" => {
            let r = aging::wear_at_failure(trace);
            if id == "fig8" {
                print_series(
                    "Figure 8: P/E at failure (CDF + normalized per-250-cycle rate)",
                    &[r.pe_cdf.clone(), r.rate_per_bin.clone()],
                );
                println!("failures below 1500 P/E: {:.1}%\n", r.frac_under_1500 * 100.0);
            } else {
                print_series(
                    "Figure 9: P/E at failure, young vs old",
                    &[r.pe_cdf_young.clone(), r.pe_cdf_old.clone()],
                );
            }
            save_json(json, id, &r)?;
        }
        "fig10" => {
            let r = errors_analysis::cumulative_error_cdfs(trace);
            print_series("Figure 10a: cumulative bad blocks", &r.bad_blocks);
            print_series("Figure 10b: cumulative uncorrectable errors", &r.uncorrectable);
            println!(
                "zero-UE fractions — young: {:.2} old: {:.2} not-failed: {:.2}",
                r.zero_ue_fracs[0], r.zero_ue_fracs[1], r.zero_ue_fracs[2]
            );
            println!(
                "symptomless failures: {:.1}%\n",
                r.symptomless_failure_frac * 100.0
            );
            save_json(json, id, &r)?;
        }
        "fig11" => {
            let r = errors_analysis::pre_failure_errors(trace);
            let mut top = r.p_ue_within.to_vec();
            top.push(r.baseline.clone());
            print_series("Figure 11 (top): P(UE within last n days)", &top);
            print_series(
                "Figure 11 (bottom): UE-count percentiles by day before failure",
                &r.count_percentiles,
            );
            save_json(json, id, &r)?;
        }
        "tab6" => {
            let r = models::model_comparison(trace, cfg, &[1, 2, 3, 7]);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "fig12" => {
            let r = sweep::lookahead_sweep(trace, cfg, &[1, 2, 3, 5, 7, 10, 14, 21, 30]);
            print_series("Figure 12: RF AUC vs lookahead N", std::slice::from_ref(&r.auc));
            save_json(json, id, &r)?;
        }
        "fig13" => {
            let r = per_model::per_model_roc(trace, cfg);
            let curves: Vec<Series> = r.iter().map(|m| m.curve.clone()).collect();
            print_series("Figure 13: per-model ROC curves (RF, N=1)", &curves);
            save_json(json, id, &r)?;
        }
        "tab7" => {
            let r = per_model::transfer_matrix(trace, cfg);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "fig14" => {
            let r = age_analysis::tpr_by_age(trace, cfg, &[0.85, 0.90, 0.95]);
            print_series("Figure 14: TPR by drive age (months)", &r.series);
            save_json(json, id, &r)?;
        }
        "fig15" => {
            let r = age_analysis::young_old_roc(trace, cfg);
            print_series(
                "Figure 15: young vs old ROC (jointly trained)",
                &[r.young_curve.clone(), r.old_curve.clone()],
            );
            println!(
                "separately trained: young {:.3} ± {:.3}, old {:.3} ± {:.3}\n",
                r.young_trained_auc.0,
                r.young_trained_auc.1,
                r.old_trained_auc.0,
                r.old_trained_auc.1
            );
            save_json(json, id, &r)?;
        }
        "fig16" => {
            let (young, old) = importance::feature_importance(trace, cfg);
            println!("{}", young.table(10));
            println!("{}", old.table(10));
            save_json(json, "fig16_young", &young)?;
            save_json(json, "fig16_old", &old)?;
        }
        "tab8" => {
            let r = error_pred::error_prediction(trace, cfg);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        "obs" => {
            let mut checks = ssd_field_study_core::audit_trace_observations(trace);
            checks.extend(ssd_field_study_core::audit_model_observations(trace, cfg));
            println!(
                "{}",
                ssd_field_study_core::observations::render_checks(&checks)
            );
            save_json(json, id, &checks)?;
        }
        "reentry" => {
            let r = ssd_field_study_core::reentry_analysis(trace);
            println!("{}", r.table());
            save_json(json, id, &r)?;
        }
        other => return Err(format!("unknown experiment id: {other}").into()),
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), BinError> {
    if let Some(dir) = &args.json_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
    }
    let trace = if let Some(path) = &args.trace {
        // Real-data mode: the experiments need random access across the
        // whole fleet, so the trace loads resident.
        let source = TraceSource::from_path(path, args.horizon)?;
        let t0 = std::time::Instant::now();
        let trace = source.load()?;
        trace
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        eprintln!(
            "loaded {path}: {} drives, {} drive-days, {} swaps ({:.1}s)",
            trace.n_drives(),
            trace.total_drive_days(),
            trace.total_swaps(),
            t0.elapsed().as_secs_f64()
        );
        trace
    } else {
        let sim_cfg = match args.scale.as_str() {
            "test" => SimConfig::test_scale(args.seed),
            "default" => SimConfig::default_scale(args.seed),
            "paper" => SimConfig::paper_scale(args.seed),
            other => return Err(format!("unknown scale '{other}' (use test|default|paper)").into()),
        };
        eprintln!(
            "generating fleet: {} drives/model over {} days (seed {}) ...",
            sim_cfg.drives_per_model, sim_cfg.horizon_days, sim_cfg.seed
        );
        let t0 = std::time::Instant::now();
        let trace = FleetGen::new(&sim_cfg).trace();
        eprintln!(
            "fleet ready: {} drives, {} drive-days, {} swaps ({:.1}s)",
            trace.n_drives(),
            trace.total_drive_days(),
            trace.total_swaps(),
            t0.elapsed().as_secs_f64()
        );
        trace
    };

    let mut predict_cfg = if args.scale == "test" {
        PredictConfig::fast(args.seed)
    } else {
        PredictConfig::default()
    };
    predict_cfg.seed = args.seed;
    predict_cfg.cv.seed = args.seed;

    let ids: Vec<&str> = if args.ids.is_empty() {
        default_ids(&args.scale).to_vec()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };
    for id in ids {
        let t = std::time::Instant::now();
        run_experiment(id, &trace, &predict_cfg, &args.json_dir)?;
        eprintln!("  [{id} took {:.1}s]", t.elapsed().as_secs_f64());
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("repro", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("repro", &*e);
    }
}
