//! Generates a calibrated synthetic fleet trace and archives it.
//!
//! ```text
//! ssdgen --out DIR [--drives N] [--days D | --years Y] [--seed S]
//!        [--format bin|json|csv] [--importance BOOST]
//! ```
//!
//! Formats:
//! * `bin`  — compact varint archive (`trace.ssdfs`), smallest; streamed
//!   to disk chunk-by-chunk, so paper-scale fleets never hold the archive
//!   (or a `FleetTrace`) in memory;
//! * `json` — `trace.json`, for ad-hoc tooling;
//! * `csv`  — `reports.csv` + `swaps.csv`, for pandas/R.
//!
//! `--importance BOOST` oversamples the defective infant subpopulation by
//! `BOOST` and records per-drive log-weights in the archive for
//! downstream weighted estimators.
//!
//! Sizes are checked up front: the fleet total (`3 × N` drives) must fit
//! the `u32` drive-id space, and the horizon may not exceed
//! `MAX_HORIZON_DAYS` (100 years). Either violation is a usage error (exit 2).

#![deny(missing_docs)]

use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_sim::{FleetGen, Sampling, SimConfig};
use ssd_types::{codec, csv, MAX_HORIZON_DAYS};
use std::fs::File;
use std::io::{BufWriter, Write};

const USAGE: &str = "ssdgen --out DIR [--drives N] [--days D | --years Y] [--seed S] \
                     [--format bin|json|csv] [--importance BOOST]";

struct Args {
    out: String,
    drives_per_model: u32,
    horizon_days: u32,
    seed: u64,
    format: String,
    importance: Option<f64>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut args = Args {
        out: String::new(),
        drives_per_model: 2000,
        horizon_days: 6 * cli::DAYS_PER_YEAR,
        seed: 1,
        format: "bin".into(),
        importance: None,
    };
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--out" => args.out = it.value("--out")?,
            "--drives" => {
                let n: u32 = it.parsed("--drives")?;
                if n.checked_mul(3).is_none() {
                    return Err(format!(
                        "--drives {n}: the fleet total (3 x {n} drives) overflows the u32 \
                         drive-id space (max {})",
                        u32::MAX / 3
                    )
                    .into());
                }
                args.drives_per_model = n;
            }
            "--days" => args.horizon_days = horizon("--days", it.parsed("--days")?, 1)?,
            "--years" => {
                args.horizon_days =
                    horizon("--years", it.parsed("--years")?, cli::DAYS_PER_YEAR)?
            }
            "--seed" => args.seed = it.parsed("--seed")?,
            "--format" => args.format = it.value("--format")?,
            "--importance" => {
                let boost: f64 = it.parsed("--importance")?;
                if !(boost >= 1.0 && boost.is_finite()) {
                    return Err("--importance must be a finite boost >= 1.0".into());
                }
                args.importance = Some(boost);
            }
            other => return Err(it.unknown(other)),
        }
    }
    if args.out.is_empty() {
        return Err("--out is required".into());
    }
    Ok(args)
}

/// `value` units of `days_per_unit` days, or a usage error when the
/// product overflows or exceeds `MAX_HORIZON_DAYS`.
fn horizon(flag: &str, value: u32, days_per_unit: u32) -> Result<u32, UsageError> {
    value
        .checked_mul(days_per_unit)
        .filter(|&days| days <= MAX_HORIZON_DAYS)
        .ok_or_else(|| {
            format!(
                "{flag} {value}: horizon exceeds the maximum of {MAX_HORIZON_DAYS} days \
                 ({} years)",
                MAX_HORIZON_DAYS / cli::DAYS_PER_YEAR
            )
            .into()
        })
}

fn fleet_gen<'a>(args: &Args, cfg: &'a SimConfig) -> FleetGen<'a> {
    let sampling = match args.importance {
        Some(boost) => Sampling::Importance { boost },
        None => Sampling::Uniform,
    };
    FleetGen::new(cfg).sampling(sampling)
}

fn run(args: &Args) -> Result<(), BinError> {
    let cfg = SimConfig {
        drives_per_model: args.drives_per_model,
        horizon_days: args.horizon_days,
        seed: args.seed,
        ..SimConfig::default()
    };
    eprintln!(
        "generating {} drives over {} days (seed {})...",
        cfg.total_drives(),
        cfg.horizon_days,
        cfg.seed
    );
    let gen = fleet_gen(args, &cfg);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {}: {e}", args.out))?;
    match args.format.as_str() {
        "bin" => {
            // Streamed: drives are generated and encoded in bounded waves
            // straight to the file; the archive (byte-identical to the
            // in-memory path, pinned by tests/determinism.rs) is never
            // resident.
            let path = format!("{}/trace.ssdfs", args.out);
            let file = File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
            let mut w = BufWriter::new(file);
            let stats = gen.run(&mut w)?;
            w.flush()?;
            eprintln!(
                "generated {} drive-days, {} swaps",
                stats.drive_days, stats.swaps
            );
            eprintln!("wrote {path} ({:.2} MiB)", stats.bytes as f64 / 1048576.0);
        }
        "json" => {
            let trace = gen.trace();
            trace
                .validate()
                .map_err(|e| format!("generated trace must validate: {e}"))?;
            eprintln!(
                "generated {} drive-days, {} swaps",
                trace.total_drive_days(),
                trace.total_swaps()
            );
            let path = format!("{}/trace.json", args.out);
            let body = codec::trace_to_json(&trace)?;
            std::fs::write(&path, &body).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path} ({:.2} MiB)", body.len() as f64 / 1048576.0);
        }
        "csv" => {
            if args.importance.is_some() {
                return Err("csv export has no weight column; use --format bin|json \
                            with --importance"
                    .into());
            }
            let trace = gen.trace();
            trace
                .validate()
                .map_err(|e| format!("generated trace must validate: {e}"))?;
            eprintln!(
                "generated {} drive-days, {} swaps",
                trace.total_drive_days(),
                trace.total_swaps()
            );
            let rp = format!("{}/reports.csv", args.out);
            let sp = format!("{}/swaps.csv", args.out);
            let mut rw = BufWriter::new(
                File::create(&rp).map_err(|e| format!("create {rp}: {e}"))?,
            );
            csv::write_reports_csv(&trace, &mut rw)?;
            rw.flush()?;
            let mut sw = BufWriter::new(
                File::create(&sp).map_err(|e| format!("create {sp}: {e}"))?,
            );
            csv::write_swaps_csv(&trace, &mut sw)?;
            sw.flush()?;
            eprintln!("wrote {rp} and {sp}");
        }
        other => return Err(format!("unknown format '{other}' (use bin|json|csv)").into()),
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("ssdgen", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("ssdgen", &*e);
    }
}
