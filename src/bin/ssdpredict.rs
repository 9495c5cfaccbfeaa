//! Streams an archived fleet trace through the online prediction
//! pipeline: train on history, then rank every drive by its current-day
//! swap risk.
//!
//! ```text
//! ssdpredict --trace PATH [--horizon DAYS] [--lookahead N] [--trees T]
//!            [--seed S] [--sample-rate R] [--top K]
//! ```
//!
//! `PATH` may be a `.ssdfs` binary archive, a `.json` export, or a CSV
//! directory (then `--horizon` is required). The run is two streaming
//! passes over the source, each holding one drive resident:
//!
//! 1. **Train** — `serve::train_scorer`, the trainer `ssdserve` loads
//!    with: every drive folds into a labeled dataset (swap within
//!    `--lookahead` days), a `--trees`-tree random forest is fitted, and
//!    it is flattened into contiguous node arrays (`ssd_ml::flat`).
//! 2. **Score** — each drive's history replays through [`OnlineFleet`]'s
//!    incremental feature state; `OnlineFleet::rank` then scores the
//!    whole fleet's current day in one batch call and orders it the way
//!    `ssdserve` answers top-K requests, and the top `--top` risky drives
//!    are printed.
//!
//! `drives:` counts every drive in the source, as `ssdstat` and
//! `ssdserve` do. `scored drives:` counts the drives with at least one
//! report, the only ones with a current day to score; `mean score`
//! averages over those.
//!
//! `--trees`, `--lookahead` and `--sample-rate` are checked before the
//! trace is opened, with the same rules as `ssdserve`.
//!
//! Output is deterministic for fixed inputs and flags, for every
//! thread-pool size.

#![deny(missing_docs)]

use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_field_study_core::serve::{train_scorer, ScorerSpec};
use ssd_field_study_core::OnlineFleet;
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel};

const USAGE: &str = "ssdpredict --trace PATH [--horizon DAYS] [--lookahead N] [--trees T] \
                     [--seed S] [--sample-rate R] [--top K]";

struct Args {
    trace: String,
    horizon: Option<u32>,
    scorer: ScorerSpec,
    lookahead: u32,
    seed: u64,
    sample_rate: f64,
    top: usize,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut trace = String::new();
    let mut horizon = None;
    let mut trees = 30;
    let mut lookahead = 7;
    let mut seed = 0;
    let mut sample_rate = 1.0;
    let mut top = 10;
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--trace" => trace = it.value("--trace")?,
            "--horizon" => horizon = Some(it.parsed("--horizon")?),
            "--lookahead" => lookahead = it.parsed("--lookahead")?,
            "--trees" => trees = it.parsed("--trees")?,
            "--seed" => seed = it.parsed("--seed")?,
            "--sample-rate" => sample_rate = it.parsed("--sample-rate")?,
            "--top" => top = it.parsed("--top")?,
            other => return Err(it.unknown(other)),
        }
    }
    if trace.is_empty() {
        return Err("--trace is required".into());
    }
    let scorer = ScorerSpec::Forest { trees };
    scorer.check(lookahead, sample_rate)?;
    Ok(Args {
        trace,
        horizon,
        scorer,
        lookahead,
        seed,
        sample_rate,
        top,
    })
}

fn run(args: &Args) -> Result<(), BinError> {
    let source = TraceSource::from_path(&args.trace, args.horizon)?;

    // Pass 1: train on the streamed history.
    let scorer = train_scorer(
        &source,
        args.scorer,
        args.lookahead,
        args.sample_rate,
        args.seed,
    )?
    .ok_or("no scorer to train")?;
    eprintln!("trained {} in one streaming pass", scorer.scorer_name());

    // Pass 2: replay each drive's telemetry through the online feature
    // state, then rank the whole fleet's current day in one batch.
    let mut reader = source.open()?;
    let mut fleet = OnlineFleet::new();
    let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    let mut drives = 0u64;
    let mut drive_days = 0u64;
    while reader.next_drive_into(&mut drive)? {
        drive
            .validate()
            .map_err(|e| format!("trace invariants: {e}"))?;
        drives += 1;
        drive_days += drive.reports.len() as u64;
        fleet.observe_drive(&drive);
    }
    let ranked = fleet.rank(scorer.as_ref());

    let n = fleet.n_drives();
    let mean = if n == 0 {
        0.0
    } else {
        ranked.iter().map(|r| r.2).sum::<f64>() / n as f64
    };
    println!("fleet risk (swap within {} days)", args.lookahead);
    println!("  drives:      {drives}");
    println!("  scored drives: {n}");
    println!("  drive-days:  {drive_days}");
    println!("  mean score:  {mean:.4}");
    println!();
    println!("top {} drives by current-day risk:", args.top.min(n));
    for (id, model, p) in ranked.iter().take(args.top) {
        println!(
            "  drive {:>6}  model {:<6}  score {:.4}",
            id.0,
            model.name(),
            p
        );
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("ssdpredict", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("ssdpredict", &*e);
    }
}
