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
//! `--model`, `--trees`, `--lookahead` and `--sample-rate` are checked
//! before the trace is opened, with the same rules as `ssdpredict`, even
//! under `--model none`.
//!
//! Responses are byte-identical for any `--shards` value and any client
//! interleaving. Malformed frames get a typed error frame and a nonzero
//! exit (stdio mode) or a closed connection (socket mode).

#![deny(missing_docs)]

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
    socket: Option<String>,
    cfg: ServeConfig,
}

fn parse_args() -> Result<Args, UsageError> {
    let mut trace = String::new();
    let mut horizon = None;
    let mut socket = None;
    let mut model = "forest".to_string();
    let mut trees = 30;
    let mut cfg = ServeConfig::default();
    let mut it = ArgStream::from_env(USAGE);
    while let Some(a) = it.next_arg() {
        match a.as_str() {
            "--trace" => trace = it.value("--trace")?,
            "--horizon" => horizon = Some(it.parsed("--horizon")?),
            "--shards" => cfg.shards = it.parsed("--shards")?,
            "--queue-cap" => cfg.queue_cap = it.parsed("--queue-cap")?,
            "--model" => model = it.value("--model")?,
            "--trees" => trees = it.parsed("--trees")?,
            "--seed" => cfg.seed = it.parsed("--seed")?,
            "--lookahead" => cfg.lookahead_days = it.parsed("--lookahead")?,
            "--sample-rate" => cfg.sample_rate = it.parsed("--sample-rate")?,
            "--socket" => socket = Some(it.value("--socket")?),
            other => return Err(it.unknown(other)),
        }
    }
    if trace.is_empty() {
        return Err("--trace is required".into());
    }
    if cfg.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    cfg.scorer = ScorerSpec::parse(&model, trees, true)?;
    cfg.scorer.check(cfg.lookahead_days, cfg.sample_rate)?;
    Ok(Args {
        trace,
        horizon,
        socket,
        cfg,
    })
}

fn run(args: &Args) -> Result<(), BinError> {
    let source = TraceSource::from_path(&args.trace, args.horizon)?;
    let service = Arc::new(FleetService::load(&source, &args.cfg)?);
    let meta = service.meta();
    eprintln!(
        "ready: {} drives / {} drive-days on {} shards (scorer: {})",
        meta.n_drives,
        meta.drive_days,
        meta.n_shards,
        meta.scorer.unwrap_or("none"),
    );

    match &args.socket {
        Some(path) => serve_socket(path, service, args.cfg.queue_cap),
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
