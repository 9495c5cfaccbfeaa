//! End-to-end benchmark for the ssd-field-study workspace.
//!
//! Runs one workload per process through the library's public entry
//! points, making the same calls the five bins make, and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! traced run records spans around each call into a layer and reports
//! the per-layer metrics instead. Every workload reports every metric
//! name of `BENCHMARK.json`.
//!
//! ```text
//! perfbench --workload archive_scan|predict_online|serve_mix|reproduce
//!           --seed N --seconds S --trace 0|1
//! perfbench --write-manifest PATH     # render BENCHMARK.json from the spec
//! ```
//!
//! Inputs are generated from `--seed`. Scratch files live under
//! `.bench_work/` in the current directory and are removed at exit.

#![forbid(unsafe_code)]

mod openloop;
mod spec;
mod stats;
mod trace;
mod workloads;

use ssd_types::json::{self, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// One reported number.
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
}

pub(crate) fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload hands back to the driver loop.
pub(crate) struct Outcome {
    /// End-to-end metrics, measured with tracing off (also printed by the
    /// traced run, so its overhead shows).
    pub(crate) end_to_end: Vec<Metric>,
    /// Per-layer metrics; only filled by the traced run.
    pub(crate) per_layer: Vec<Metric>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Fingerprint of the workload's output, stable across runs of the
    /// same seed.
    pub(crate) digest: String,
}

/// Everything a workload needs from the command line.
pub(crate) struct Ctx {
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) tracer: Tracer,
    pub(crate) work: PathBuf,
}

impl Ctx {
    /// Repeats `f` until `seconds` have been spent in it, at least
    /// `min_reps` times. Returns how many times it ran.
    pub(crate) fn repeat(
        &self,
        min_reps: usize,
        mut f: impl FnMut(usize) -> Result<(), String>,
    ) -> Result<usize, String> {
        let start = Instant::now();
        let mut reps = 0;
        while reps < min_reps || start.elapsed().as_secs_f64() < self.seconds {
            f(reps)?;
            reps += 1;
        }
        Ok(reps)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    manifest: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        manifest: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--write-manifest" => args.manifest = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.manifest.is_none() && spec::workload(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join("|")
        ));
    }
    Ok(args)
}

/// VmHWM of this process in MiB: the peak resident set of a process that
/// ran only one workload.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn metrics_value(ms: &[Metric]) -> Value {
    Value::Obj(
        ms.iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Obj(vec![
                        ("value".into(), Value::Float(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Wraps a ready-made [`Value`] for the workspace JSON writer.
pub(crate) struct Raw(pub(crate) Value);

impl json::ToJson for Raw {
    fn to_json(&self) -> Value {
        self.0.clone()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work: work.clone(),
    };
    let outcome = workloads::run(&args.workload, &ctx);
    // Scratch output is removed whether or not the workload succeeded.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut outcome = outcome?;
    outcome
        .end_to_end
        .push(metric("peak_rss_mb", peak_rss_mb()?, "MiB"));

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# host: nproc={nproc} pool={} commit={} seed={} workload={} seconds={} trace={}",
        ssd_parallel::current_num_threads(),
        commit(),
        args.seed,
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# output digest: {}", outcome.digest);
    println!(
        "# failed_frac = {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let label = if args.trace {
        "end-to-end (traced run)"
    } else {
        "end-to-end"
    };
    for m in &outcome.end_to_end {
        println!("# {label}: {} = {} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.per_layer {
        println!("# per-layer: {} = {} {}", m.name, m.value, m.unit);
    }

    let measured = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end[..outcome.end_to_end.len() - 1]
    };
    let expected = spec::metric_names(&args.workload, args.trace);
    let names: Vec<&str> = measured.iter().map(|m| m.name.as_str()).collect();
    if names != expected {
        return Err(format!(
            "metrics {names:?} do not match the spec {expected:?}"
        ));
    }
    // The result names every metric of the manifest; a layer this
    // workload never calls reads 0.
    let reported: Vec<Metric> = if args.trace {
        spec::per_layer_union()
            .into_iter()
            .map(|(name, unit, _)| {
                let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                metric(name, value, unit)
            })
            .collect()
    } else {
        std::mem::take(&mut outcome.end_to_end)
    };
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), metrics_value(&reported)),
    ]);
    println!("{}", json::to_string(&Raw(result)));
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.manifest {
        if let Err(e) = std::fs::write(path, spec::manifest()) {
            eprintln!("perfbench: write {path}: {e}");
            std::process::exit(1);
        }
        return;
    }
    // A printed result exits 0 even when a check failed: the result line
    // itself says `"correct": false` and counts the failures.
    match run(&args) {
        Ok(_) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
