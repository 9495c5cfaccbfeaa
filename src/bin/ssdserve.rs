//! Long-running fleet service: load an archive once, answer many queries.
//!
//! ```text
//! ssdserve --trace PATH [--horizon DAYS] [--shards N] [--queue-cap CONNS]
//!          [--model forest|gbdt|none] [--trees T] [--seed S]
//!          [--lookahead N] [--sample-rate R] [--socket PATH]
//! ```
//!
//! Startup makes two streaming passes over the trace: train a flattened
//! risk scorer (unless `--model none`), then fold drives round-robin into
//! the views of `--shards` shards, keeping no drive logs. After the
//! `ready` line on stderr, the service answers length-prefixed JSON
//! request frames (see `ssd_field_study_core::serve::protocol`) on
//! stdin/stdout — or, with `--socket`, on a Unix socket, one thread per
//! connection, at most `--queue-cap` connections at a time (further
//! clients wait to be accepted). A socket connection idle past
//! `serve::server::CONNECTION_DEADLINE` is dropped.
//!
//! Responses are byte-identical for any `--shards` value and any client
//! interleaving. Malformed frames get a typed error frame and a nonzero
//! exit (stdio mode) or a closed connection (socket mode).

#![forbid(unsafe_code)]

use ssd_field_study::cli::{self, ArgStream, BinError, UsageError};
use ssd_field_study_core::serve::{serve_connection, FleetService, ScorerSpec, ServeConfig};
use ssd_types::source::TraceSource;
use std::sync::Arc;

const USAGE: &str = "ssdserve --trace PATH [--horizon DAYS] [--shards N] \
                     [--queue-cap CONNS] [--model forest|gbdt|none] [--trees T] [--seed S] \
                     [--lookahead N] [--sample-rate R] [--socket PATH]";

struct Args {
    trace: String,
    horizon: Option<u32>,
    shards: usize,
    queue_cap: usize,
    model: String,
    trees: usize,
    seed: u64,
    lookahead: u32,
    sample_rate: f64,
    socket: Option<String>,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut args = Args {
        trace: String::new(),
        horizon: None,
        shards: 4,
        queue_cap: 16,
        model: "forest".into(),
        trees: 30,
        seed: 0,
        lookahead: 7,
        sample_rate: 1.0,
        socket: None,
    };
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--trace" => args.trace = it.value("--trace")?,
            "--horizon" => args.horizon = Some(it.parsed("--horizon")?),
            "--shards" => args.shards = it.parsed("--shards")?,
            "--queue-cap" => args.queue_cap = it.parsed("--queue-cap")?,
            "--model" => args.model = it.value("--model")?,
            "--trees" => args.trees = it.parsed("--trees")?,
            "--seed" => args.seed = it.parsed("--seed")?,
            "--lookahead" => args.lookahead = it.parsed("--lookahead")?,
            "--sample-rate" => args.sample_rate = it.parsed("--sample-rate")?,
            "--socket" => args.socket = Some(it.value("--socket")?),
            other => return Err(it.unknown(other)),
        }
    }
    if args.trace.is_empty() {
        return Err("--trace is required".into());
    }
    if args.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(args)
}

fn scorer_spec(args: &Args) -> Result<ScorerSpec, BinError> {
    match args.model.as_str() {
        "forest" => Ok(ScorerSpec::Forest { trees: args.trees }),
        "gbdt" => Ok(ScorerSpec::Gbdt { trees: args.trees }),
        "none" => Ok(ScorerSpec::None),
        other => Err(format!("unknown model '{other}' (use forest|gbdt|none)").into()),
    }
}

fn run(args: &Args) -> Result<(), BinError> {
    let source = TraceSource::from_path(&args.trace, args.horizon)?;
    let cfg = ServeConfig {
        shards: args.shards,
        queue_cap: args.queue_cap,
        scorer: scorer_spec(args)?,
        lookahead_days: args.lookahead,
        sample_rate: args.sample_rate,
        seed: args.seed,
    };
    let service = Arc::new(FleetService::load(&source, &cfg)?);
    let meta = service.meta();
    eprintln!(
        "ready: {} drives / {} drive-days on {} shards (scorer: {})",
        meta.n_drives,
        meta.drive_days,
        meta.n_shards,
        meta.scorer.unwrap_or("none"),
    );

    match &args.socket {
        Some(path) => serve_socket(path, service, cfg.queue_cap),
        None => {
            // stdio mode: one client, answered in-thread.
            let mut stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            serve_connection(&service, &mut stdin, &mut stdout)?;
            Ok(())
        }
    }
}

#[cfg(unix)]
fn serve_socket(
    path: &str,
    service: Arc<FleetService>,
    max_connections: usize,
) -> Result<(), BinError> {
    use ssd_field_study_core::serve::server::serve_unix;
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)
        .map_err(|e| format!("bind {path}: {e}"))?;
    eprintln!("listening on {path}");
    serve_unix(&listener, service, max_connections)?;
    Ok(())
}

#[cfg(not(unix))]
fn serve_socket(
    _path: &str,
    _service: Arc<FleetService>,
    _max_connections: usize,
) -> Result<(), BinError> {
    Err("--socket requires a Unix platform; use stdio mode".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => cli::usage_exit("ssdserve", &e),
    };
    if let Err(e) = run(&args) {
        cli::runtime_exit("ssdserve", &*e);
    }
}
