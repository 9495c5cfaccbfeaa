//! The fleet service: per-shard views folded at load behind a
//! batch-answering API.
//!
//! [`FleetService::load`] makes two streaming passes over a
//! [`TraceSource`]: the first trains an optional flattened scorer
//! ([`ssd_ml::flat`](ssd_ml::FlatForest)) on lookahead-labeled history,
//! the second deals drives round-robin onto `N` shards, each folding its
//! drives into the views of [`super::shard`] and keeping no drive log.
//! The shards' risk rankings are scored before `load` returns.
//!
//! [`FleetService::handle`] compiles a *batch* of requests into one union
//! [`PassPlan`], looks the plan up in every shard in shard order on the
//! calling thread, and merges the partials. Because every partial is
//! additive or order-insensitive (see [`super::shard`]), the responses
//! are byte-identical for any shard count and any request interleaving —
//! the service-level restatement of the workspace's determinism
//! contract, pinned by `tests/serve.rs`.

use super::protocol::{error_body, fit_response, render, ProtocolError, Request};
use super::shard::{PassPlan, ShardPartial, ShardState};
use crate::features::{build_dataset_streaming, ExtractOptions};
use crate::streaming::StreamSummary;
use ssd_ml::{BatchScorer, FlatForest, ForestConfig, RandomForest};
use ssd_stats::KaplanMeier;
use ssd_types::json::Value;
use ssd_types::source::{TraceReadError, TraceSource};
use ssd_types::{DriveId, DriveLog, DriveModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which risk scorer the service trains at load time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScorerSpec {
    /// No scorer; top-K requests answer with a typed error response.
    None,
    /// Random forest with this many trees, flattened for batch scoring.
    Forest {
        /// Number of trees.
        trees: usize,
    },
}

impl ScorerSpec {
    /// Parses `ssdserve`'s `--model` name with its `--trees` count:
    /// `forest` or `none`.
    pub fn parse(name: &str, trees: usize) -> Result<ScorerSpec, String> {
        match name {
            "forest" => Ok(ScorerSpec::Forest { trees }),
            "none" => Ok(ScorerSpec::None),
            other => Err(format!("unknown model '{other}' (use forest|none)")),
        }
    }

    /// Checks the training settings `ssdpredict` and `ssdserve` take as
    /// flags: at least one tree, a lookahead of at least one day, a
    /// negative sample rate in `(0, 1]`. Lookahead and sample rate are
    /// checked for [`ScorerSpec::None`] too, so whether a flag is valid
    /// does not depend on `--model`.
    pub fn check(self, lookahead_days: u32, sample_rate: f64) -> Result<(), String> {
        if let ScorerSpec::Forest { trees: 0 } = self {
            return Err("--trees must be at least 1".into());
        }
        if lookahead_days == 0 {
            return Err("--lookahead must be at least 1 day".into());
        }
        if !(sample_rate > 0.0 && sample_rate <= 1.0) {
            return Err(format!(
                "--sample-rate must be in (0, 1], got {sample_rate}"
            ));
        }
        Ok(())
    }
}

/// Load-time configuration for [`FleetService::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of shards the load folds the fleet into (clamped to at
    /// least 1). It only partitions the fold: answers are byte-identical
    /// for any value.
    pub shards: usize,
    /// Most socket connections served at once, the cap `ssdserve` passes
    /// to [`serve_unix`](super::server::serve_unix) (clamped to at least
    /// 1). [`FleetService::load`] does not read it.
    pub queue_cap: usize,
    /// Risk scorer to train on the archive's history.
    pub scorer: ScorerSpec,
    /// Label lookahead in days for scorer training ("swap within N days").
    pub lookahead_days: u32,
    /// Negative-row sampling rate in `(0, 1]` for scorer training.
    pub sample_rate: f64,
    /// Training seed (sampling + tree fitting).
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_cap: 16,
            scorer: ScorerSpec::Forest { trees: 30 },
            lookahead_days: 7,
            sample_rate: 1.0,
            seed: 0,
        }
    }
}

/// Typed failure of service construction or request handling.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The trace source failed to open, decode, or validate.
    Read(TraceReadError),
    /// Scorer training was requested but impossible (e.g. one-class data)
    /// or misconfigured.
    Train(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Read(e) => write!(f, "read trace: {e}"),
            ServeError::Train(msg) => write!(f, "train scorer: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Read(e) => Some(e),
            ServeError::Train(_) => None,
        }
    }
}

impl From<TraceReadError> for ServeError {
    fn from(e: TraceReadError) -> Self {
        ServeError::Read(e)
    }
}

/// Immutable fleet-wide facts, answered without touching the shards.
#[derive(Debug, Clone)]
pub struct FleetMeta {
    /// Number of shards.
    pub n_shards: usize,
    /// Total drives folded across all shards.
    pub n_drives: u64,
    /// Total daily reports folded across all shards.
    pub drive_days: u64,
    /// Observation-window length declared by the source.
    pub horizon_days: u32,
    /// Name of the trained scorer, if any.
    pub scorer: Option<&'static str>,
    /// Label lookahead the scorer was trained with.
    pub lookahead_days: u32,
}

/// A loaded fleet, folded into per-shard views, answering request
/// batches.
///
/// The views are read-only after load, so the service is `Sync`:
/// connection threads share one instance and call
/// [`handle`](Self::handle) / [`respond`](Self::respond) concurrently
/// without locks.
pub struct FleetService {
    shards: Vec<ShardState>,
    meta: FleetMeta,
    passes: AtomicU64,
}

/// Trains the flat risk scorer on a source's history, in one streaming
/// pass: labels every drive-day "swap within `lookahead_days`", keeps
/// negative rows at `sample_rate`, fits the forest with `seed`,
/// and flattens it. `Ok(None)` for [`ScorerSpec::None`]. `ssdpredict`
/// and [`FleetService::load`] both train through it.
pub fn train_scorer(
    source: &TraceSource,
    scorer: ScorerSpec,
    lookahead_days: u32,
    sample_rate: f64,
    seed: u64,
) -> Result<Option<Arc<dyn BatchScorer>>, ServeError> {
    scorer
        .check(lookahead_days, sample_rate)
        .map_err(ServeError::Train)?;
    let trees = match scorer {
        ScorerSpec::None => return Ok(None),
        ScorerSpec::Forest { trees } => trees,
    };
    let opts = ExtractOptions {
        lookahead_days,
        negative_sample_rate: sample_rate,
        seed,
        ..Default::default()
    };
    let data = build_dataset_streaming(&mut source.open()?, &opts)?;
    let (pos, neg) = data.class_counts();
    if pos == 0 || neg == 0 {
        return Err(ServeError::Train(format!(
            "training data needs both classes: {pos} positive / {neg} negative rows \
             (try a longer trace or a larger lookahead)"
        )));
    }
    let fc = ForestConfig {
        n_trees: trees,
        ..Default::default()
    };
    let forest = RandomForest::fit(&fc, &data, seed);
    Ok(Some(Arc::new(FlatForest::from_forest(&forest))))
}

impl FleetService {
    /// Loads an archive into a sharded service: one streaming training
    /// pass (if a scorer is configured), then one streaming dealing pass
    /// that folds drives round-robin into the shards' views.
    pub fn load(source: &TraceSource, cfg: &ServeConfig) -> Result<FleetService, ServeError> {
        let n_shards = cfg.shards.max(1);
        let scorer = train_scorer(
            source,
            cfg.scorer,
            cfg.lookahead_days,
            cfg.sample_rate,
            cfg.seed,
        )?;
        let scorer_name = scorer.as_ref().map(|s| s.scorer_name());

        let mut reader = source.open()?;
        let horizon_days = reader.horizon_days();
        let mut shards: Vec<ShardState> = (0..n_shards)
            .map(|_| ShardState::new(horizon_days, scorer.clone()))
            .collect();
        let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        let mut dealt: u64 = 0;
        while reader.next_drive_into(&mut drive)? {
            drive.validate().map_err(TraceReadError::Invalid)?;
            // Round-robin in stream order: shard membership is a pure
            // function of drive position, independent of timing.
            let slot = (dealt % n_shards as u64) as usize;
            shards[slot].fold(&drive);
            dealt += 1;
        }
        // Score every shard now, so no request pays for it.
        for shard in &shards {
            shard.ranked();
        }
        let n_drives = dealt;
        let drive_days = shards.iter().map(ShardState::drive_days).sum();
        Ok(FleetService {
            shards,
            meta: FleetMeta {
                n_shards,
                n_drives,
                drive_days,
                horizon_days,
                scorer: scorer_name,
                lookahead_days: cfg.lookahead_days,
            },
            passes: AtomicU64::new(0),
        })
    }

    /// Fleet-wide facts (also the `info` response).
    pub fn meta(&self) -> &FleetMeta {
        &self.meta
    }

    /// How many shard passes the service has run: one per batch that
    /// needs any shard work, however many requests it carries.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::SeqCst)
    }

    /// Answers a request batch with at most one shard pass. Each request
    /// gets its own response [`Value`], index-aligned with `requests`;
    /// per-request problems (top-K without a scorer) come back as error
    /// values, so this currently always returns `Ok`.
    pub fn handle(&self, requests: &[Request]) -> Result<Vec<Value>, ServeError> {
        let plan = PassPlan::for_requests(requests);
        let merged = (!plan.is_empty()).then(|| {
            self.passes.fetch_add(1, Ordering::SeqCst);
            let mut merged = ShardPartial::default();
            for shard in &self.shards {
                merged.absorb(shard.execute(&plan));
            }
            if let Some(k) = plan.top_k {
                merged.finish_top(k);
            }
            merged
        });

        let summary = merged
            .as_ref()
            .and_then(|m| m.summary.as_ref())
            .map(|acc| acc.finish());
        let survival = merged
            .as_ref()
            .filter(|_| plan.survival)
            .map(|m| KaplanMeier::fit(&m.durations));

        let mut out = Vec::with_capacity(requests.len());
        for r in requests {
            out.push(match *r {
                Request::Info => self.info_value(),
                Request::Summary => match &summary {
                    Some(s) => summary_value(s),
                    None => internal_error_value("summary pass missing"),
                },
                Request::Survival => match &survival {
                    Some(km) => survival_value(km),
                    None => internal_error_value("survival pass missing"),
                },
                Request::Hazard { bin_days } => {
                    let rate = merged.as_ref().and_then(|m| {
                        plan.hazard_bins
                            .iter()
                            .position(|&w| w == bin_days)
                            .and_then(|i| m.hazards.get(i))
                    });
                    match rate {
                        Some(rate) => hazard_value(bin_days, rate),
                        None => internal_error_value("hazard pass missing"),
                    }
                }
                Request::TopK { k } => match (&self.meta.scorer, &merged) {
                    (Some(_), Some(m)) => topk_value(k, &m.top),
                    (None, _) => error_value(
                        "bad-request",
                        "service has no scorer (started with --model none); \
                         top-K risk ranking is unavailable",
                    ),
                    (Some(_), None) => internal_error_value("top-K pass missing"),
                },
            });
        }
        Ok(out)
    }

    /// Full frame-level round trip: parses one request frame body and
    /// renders the matching response body (object in → object out, array
    /// in → array out). Malformed bodies surface as [`ProtocolError`] for
    /// the transport to report; a failed [`handle`](Self::handle) would
    /// render as an internal error response instead of killing the
    /// connection, and so does an answer larger than
    /// [`MAX_RESPONSE_FRAME`](super::protocol::MAX_RESPONSE_FRAME)
    /// (kind `response-too-large`).
    pub fn respond(&self, frame_body: &[u8]) -> Result<Vec<u8>, ProtocolError> {
        let (requests, batched) = Request::parse_frame(frame_body)?;
        let values = match self.handle(&requests) {
            Ok(v) => v,
            Err(e) => return Ok(error_body("internal", &e.to_string())),
        };
        let body = if batched {
            render(&Value::Arr(values))
        } else {
            match values.into_iter().next() {
                Some(v) => render(&v),
                None => render(&Value::Arr(Vec::new())),
            }
        };
        Ok(fit_response(body))
    }

    fn info_value(&self) -> Value {
        let m = &self.meta;
        Value::Obj(vec![
            ("drives".into(), Value::UInt(m.n_drives)),
            ("drive_days".into(), Value::UInt(m.drive_days)),
            ("horizon_days".into(), Value::UInt(u64::from(m.horizon_days))),
            ("shards".into(), Value::UInt(m.n_shards as u64)),
            (
                "scorer".into(),
                match m.scorer {
                    Some(name) => Value::Str(name.to_string()),
                    None => Value::Null,
                },
            ),
            (
                "lookahead_days".into(),
                Value::UInt(u64::from(m.lookahead_days)),
            ),
        ])
    }
}

/// Ages (days) the summary response probes its ECDFs at.
const ECDF_PROBE_DAYS: [u32; 5] = [1, 3, 7, 14, 30];

fn finite_or_null(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Null
    }
}

fn ecdf_probes(e: &ssd_stats::Ecdf) -> Value {
    Value::Arr(
        ECDF_PROBE_DAYS
            .iter()
            .map(|&d| {
                Value::Arr(vec![
                    Value::UInt(u64::from(d)),
                    Value::Float(e.eval(f64::from(d))),
                ])
            })
            .collect(),
    )
}

fn summary_value(s: &StreamSummary) -> Value {
    let per_model = s
        .failure_incidence
        .per_model
        .iter()
        .map(|(name, failures, drives, frac)| {
            Value::Obj(vec![
                ("model".into(), Value::Str(name.clone())),
                ("failures".into(), Value::UInt(*failures as u64)),
                ("drives".into(), Value::UInt(*drives as u64)),
                ("failed_frac".into(), Value::Float(*frac)),
            ])
        })
        .collect();
    let failure_counts = s
        .failure_counts
        .count_of
        .iter()
        .map(|&c| Value::UInt(c as u64))
        .collect();
    let error_rates = s
        .error_incidence
        .rates
        .iter()
        .map(|row| Value::Arr(row.iter().map(|&r| Value::Float(r)).collect()))
        .collect();
    Value::Obj(vec![
        ("drives".into(), Value::UInt(s.n_drives as u64)),
        ("drive_days".into(), Value::UInt(s.total_drive_days as u64)),
        ("swaps".into(), Value::UInt(s.total_swaps as u64)),
        ("per_model".into(), Value::Arr(per_model)),
        (
            "total_failures".into(),
            Value::UInt(s.failure_incidence.total_failures as u64),
        ),
        (
            "failed_frac".into(),
            Value::Float(s.failure_incidence.total_failed_fraction),
        ),
        ("failure_counts".into(), Value::Arr(failure_counts)),
        ("error_rates".into(), Value::Arr(error_rates)),
        ("non_operational".into(), ecdf_probes(&s.non_operational)),
        (
            "time_to_repair".into(),
            Value::Obj(vec![
                ("probes".into(), ecdf_probes(&s.time_to_repair)),
                (
                    "censored_fraction".into(),
                    Value::Float(s.time_to_repair.censored_fraction()),
                ),
            ]),
        ),
    ])
}

fn survival_value(km: &KaplanMeier) -> Value {
    let steps = km
        .steps()
        .iter()
        .map(|&(t, surv)| Value::Arr(vec![Value::Float(t), Value::Float(surv)]))
        .collect();
    Value::Obj(vec![
        ("steps".into(), Value::Arr(steps)),
        ("events".into(), Value::UInt(km.n_events() as u64)),
        ("censored".into(), Value::UInt(km.n_censored() as u64)),
        (
            "median".into(),
            match km.median() {
                Some(t) => Value::Float(t),
                None => Value::Null,
            },
        ),
    ])
}

fn hazard_value(bin_days: u32, rate: &ssd_stats::BinnedRate) -> Value {
    Value::Obj(vec![
        ("bin_days".into(), Value::UInt(u64::from(bin_days))),
        (
            "events".into(),
            Value::Arr(rate.events().iter().map(|&e| Value::UInt(e)).collect()),
        ),
        (
            "exposure".into(),
            Value::Arr(rate.exposure().iter().map(|&x| Value::UInt(x)).collect()),
        ),
        (
            "rates".into(),
            Value::Arr(rate.rates().iter().map(|&r| finite_or_null(r)).collect()),
        ),
    ])
}

fn topk_value(k: usize, top: &[(DriveId, DriveModel, f64)]) -> Value {
    let drives = top
        .iter()
        .take(k)
        .map(|&(id, model, score)| {
            Value::Obj(vec![
                ("id".into(), Value::UInt(u64::from(id.0))),
                ("model".into(), Value::Str(model.name().to_string())),
                ("score".into(), Value::Float(score)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("k".into(), Value::UInt(k as u64)),
        ("drives".into(), Value::Arr(drives)),
    ])
}

fn error_value(kind: &str, msg: &str) -> Value {
    Value::Obj(vec![(
        "err".into(),
        Value::Obj(vec![
            ("kind".into(), Value::Str(kind.to_string())),
            ("msg".into(), Value::Str(msg.to_string())),
        ]),
    )])
}

fn internal_error_value(msg: &str) -> Value {
    error_value("internal", msg)
}
