//! Inspects an archived fleet trace: summary statistics, lifecycle tables,
//! and the observation audit — everything a site needs to sanity-check its
//! own data once it is in this tool's schema.
//!
//! ```text
//! ssdstat --trace PATH [--horizon DAYS] [--audit]
//! ```
//!
//! `PATH` may be a `.ssdfs` binary archive, a `.json` export, or a
//! directory containing `reports.csv` + `swaps.csv` (then `--horizon` is
//! required, since CSVs do not carry it).
//!
//! The default report is a single streaming pass: binary archives are
//! decoded drive-by-drive through `TraceSource`, folded into a
//! `SummaryAccumulator`, and never held resident — a multi-GB archive
//! summarizes at constant memory. `--audit` additionally loads the trace
//! resident, since the observation audit is a cross-drive analysis.

#![deny(missing_docs)]

use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_field_study_core::observations::{audit_trace_observations, render_checks};
use ssd_field_study_core::streaming::{StreamSummary, SummaryAccumulator};
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel};

const USAGE: &str = "ssdstat --trace PATH [--horizon DAYS] [--audit]";

struct Args {
    trace: String,
    horizon: Option<u32>,
    audit: bool,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut args = Args {
        trace: String::new(),
        horizon: None,
        audit: false,
    };
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--trace" => args.trace = it.value("--trace")?,
            "--horizon" => args.horizon = Some(it.parsed("--horizon")?),
            "--audit" => args.audit = true,
            other => return Err(it.unknown(other)),
        }
    }
    if args.trace.is_empty() {
        return Err("--trace is required".into());
    }
    Ok(args)
}

fn print_summary(s: &StreamSummary, horizon_days: u32) {
    println!("trace summary");
    println!("  drives:       {}", s.n_drives);
    println!("  drive-days:   {}", s.total_drive_days);
    println!("  swaps:        {}", s.total_swaps);
    println!("  horizon:      {} days", horizon_days);
    println!();
    println!("{}", s.failure_incidence.table());
    println!("{}", s.failure_counts.table());
    println!("{}", s.error_incidence.table());

    if s.non_operational.n_finite() > 0 {
        println!(
            "non-operational period: P(<=1d) {:.2}, P(<=7d) {:.2}",
            s.non_operational.eval(1.0),
            s.non_operational.eval(7.0)
        );
    }
    println!(
        "repairs never observed to complete: {:.1}%",
        s.time_to_repair.censored_fraction() * 100.0
    );

    // Importance-sampled archives carry per-drive log-weights: surface the
    // reweighted (population) estimates next to the raw sample tallies.
    if let Some(w) = &s.weighted {
        println!();
        println!("importance-weighted population estimates");
        println!("  effective drives:       {:.1}", w.effective_drives);
        println!("  weighted failed frac:   {:.4}", w.total_failed_fraction);
        println!("  weighted swaps/drive:   {:.4}", w.swaps_per_drive);
        for (name, failures, drives, failed_frac) in &w.per_model {
            println!(
                "  {name:<6} weighted failures {failures:>9.1} over {drives:>9.1} drives \
                 (failed frac {failed_frac:.4})"
            );
        }
    }
}

fn run(args: &Args) -> Result<(), BinError> {
    let source = TraceSource::from_path(&args.trace, args.horizon)?;

    // One streaming pass: validate and fold each drive, holding exactly
    // one drive resident for binary archives.
    let mut reader = source.open()?;
    let horizon_days = reader.horizon_days();
    let mut acc = SummaryAccumulator::new();
    let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    while reader.next_drive_into(&mut drive)? {
        drive
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        acc.observe(&drive);
    }
    print_summary(&acc.finish(), horizon_days);

    if args.audit {
        println!();
        // The audit compares distributions across drives, so it needs the
        // whole trace resident.
        let trace = source.load()?;
        let checks = audit_trace_observations(&trace);
        println!("{}", render_checks(&checks));
        let holds = checks.iter().filter(|c| c.holds).count();
        println!("{holds}/{} paper observations hold on this trace", checks.len());
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("ssdstat", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("ssdstat", &*e);
    }
}
