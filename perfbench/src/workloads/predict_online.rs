//! `predict_online`: `ssdpredict` from an archive path to a ranked list.
//!
//! The input archive (500 drives per model × 6 years) is generated in
//! set-up. The timed operation is `ssdpredict`'s job: `build_dataset_streaming`
//! (lookahead 7, sample rate 0.1), a 30-tree `RandomForest::fit`,
//! `FlatForest::from_forest`, a replay through
//! `OnlineFleet::observe_drive`, `predict_fleet_day`, and the ranking.

use super::Layers;
use crate::stats::{median, Digest};
use crate::trace::{SpanId, Tracer};
use crate::{metric, Ctx, Outcome};
use ssd_field_study_core::features::{build_dataset_streaming, ExtractOptions};
use ssd_field_study_core::OnlineFleet;
use ssd_ml::{FlatForest, ForestConfig, RandomForest};
use ssd_sim::{FleetGen, SimConfig};
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel};
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Drives per model in the `predict_online` and `serve_mix` archives.
pub(crate) const DRIVES_PER_MODEL: u32 = 500;
pub(crate) const LOOKAHEAD_DAYS: u32 = 7;
pub(crate) const SAMPLE_RATE: f64 = 0.1;
pub(crate) const TREES: usize = 30;

/// Writes the 500-drives-per-model archive for `seed`, in `ssdgen`'s
/// default mode. Returns the number of drives written.
pub(crate) fn write_archive(path: &Path, seed: u64) -> Result<u64, String> {
    let cfg = SimConfig {
        drives_per_model: DRIVES_PER_MODEL,
        ..SimConfig::default_scale(seed)
    };
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    let stats = FleetGen::new(&cfg)
        .run(&mut w)
        .map_err(|e| format!("generate: {e}"))?;
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(stats.drives)
}

/// The `ssdpredict` training options for `seed`.
pub(crate) fn extract_options(seed: u64) -> ExtractOptions {
    ExtractOptions {
        lookahead_days: LOOKAHEAD_DAYS,
        negative_sample_rate: SAMPLE_RATE,
        seed,
        ..Default::default()
    }
}

/// Trains the service's and `ssdpredict`'s flattened forest.
pub(crate) fn train(
    source: &TraceSource,
    seed: u64,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<(FlatForest, usize, usize), String> {
    let data = tracer.scope("features.dataset", parent, |_| {
        let mut reader = source.open().map_err(|e| e.to_string())?;
        build_dataset_streaming(&mut reader, &extract_options(seed)).map_err(|e| e.to_string())
    })?;
    let (pos, neg) = data.class_counts();
    if pos == 0 || neg == 0 {
        return Err(format!(
            "training data needs both classes: {pos} positive / {neg} negative rows"
        ));
    }
    let cfg = ForestConfig {
        n_trees: TREES,
        ..Default::default()
    };
    let forest = tracer.scope("ml.fit", parent, |_| RandomForest::fit(&cfg, &data, seed));
    let flat = tracer.scope("ml.flatten", parent, |_| FlatForest::from_forest(&forest));
    Ok((flat, data.n_rows(), pos))
}

struct Job {
    ranked: Vec<(DriveId, f64)>,
    n_drives: usize,
    rows: usize,
    positive: usize,
}

fn job(path: &Path, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Result<Job, String> {
    let source = TraceSource::from_path(path, None).map_err(|e| e.to_string())?;
    let (scorer, rows, positive) = train(&source, seed, tracer, parent)?;
    let mut reader = source.open().map_err(|e| e.to_string())?;
    let mut fleet = OnlineFleet::new();
    let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
    while tracer
        .scope("codec.decode", parent, |_| {
            reader.next_drive_into(&mut drive)
        })
        .map_err(|e| format!("decode: {e}"))?
    {
        tracer
            .scope("types.validate", parent, |_| drive.validate())
            .map_err(|e| format!("trace invariants: {e}"))?;
        tracer.scope("online.observe", parent, |_| fleet.observe_drive(&drive));
    }
    let mut ranked = tracer.scope("online.score", parent, |_| fleet.predict_fleet_day(&scorer));
    tracer.scope("online.rank", parent, |_| {
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    });
    Ok(Job {
        ranked,
        n_drives: fleet.n_drives(),
        rows,
        positive,
    })
}

/// Problems with a ranked list: exactly one finite score in [0, 1] per
/// drive.
fn ranking_problems(job: &Job, drives: u64) -> Vec<String> {
    let mut out = Vec::new();
    if job.ranked.len() as u64 != drives || job.n_drives as u64 != drives {
        out.push(format!(
            "{} scores for {} drives ({drives} in the archive)",
            job.ranked.len(),
            job.n_drives
        ));
    }
    let ids: BTreeSet<u32> = job.ranked.iter().map(|(id, _)| id.0).collect();
    if ids.len() != job.ranked.len() {
        out.push("a drive was scored twice".into());
    }
    if let Some((id, p)) = job
        .ranked
        .iter()
        .find(|(_, p)| !(p.is_finite() && (0.0..=1.0).contains(p)))
    {
        out.push(format!("drive {} has score {p}", id.0));
    }
    out
}

fn ranking_digest(ranked: &[(DriveId, f64)]) -> String {
    let mut d = Digest::new();
    for (id, p) in ranked {
        d.update(&id.0.to_le_bytes());
        d.update(&p.to_bits().to_le_bytes());
    }
    d.hex()
}

pub(crate) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let root = tracer.open("workload", None, None);
    let path = ctx.work.join("predict.ssdfs");
    // Set-up: the benchmark's own input generation, three times.
    let mut setups = Vec::new();
    let mut drives = 0;
    for _ in 0..3 {
        let t = Instant::now();
        drives = tracer.scope("setup.generate", root, |_| write_archive(&path, ctx.seed))?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut times = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    ctx.repeat(2, |_| {
        let t = Instant::now();
        let j = tracer.scope("job", root, |p| job(&path, ctx.seed, tracer, p))?;
        times.push(t.elapsed().as_secs_f64());
        jobs.push(j);
        Ok(())
    })?;
    tracer.close(root);

    let mut failed = 0;
    let digests: Vec<String> = jobs.iter().map(|j| ranking_digest(&j.ranked)).collect();
    for (j, d) in jobs.iter().zip(&digests) {
        let problems = ranking_problems(j, drives);
        for p in &problems {
            eprintln!("predict_online: {p}");
        }
        if !problems.is_empty() || *d != digests[0] {
            failed += 1;
        }
    }
    let mut per_layer = Vec::new();
    if tracer.enabled() {
        let l = Layers::new(&tracer.snapshot(), jobs.len());
        per_layer = vec![
            metric("features.dataset_s", l.self_s("features.dataset"), "s"),
            metric("features.rows", jobs[0].rows as f64, "count"),
            metric("features.positive_rows", jobs[0].positive as f64, "count"),
            metric("ml.fit_s", l.self_s("ml.fit"), "s"),
            metric("ml.flatten_s", l.self_s("ml.flatten"), "s"),
            metric("codec.decode_s", l.self_s("codec.decode"), "s"),
            metric("online.observe_s", l.self_s("online.observe"), "s"),
            metric("online.score_s", l.self_s("online.score"), "s"),
        ];
    }
    let top: Vec<String> = jobs[0]
        .ranked
        .iter()
        .take(3)
        .map(|(id, p)| format!("{}:{p:.4}", id.0))
        .collect();
    Ok(Outcome {
        end_to_end: vec![
            metric("setup_s", median(&setups), "s"),
            metric("op_s", median(&times), "s"),
        ],
        per_layer,
        attempted: jobs.len() as u64,
        failed,
        digest: format!(
            "ranking {} ({} drives; top {})",
            digests[0],
            jobs[0].ranked.len(),
            top.join(" ")
        ),
    })
}
