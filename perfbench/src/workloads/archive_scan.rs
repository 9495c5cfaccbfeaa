//! `archive_scan`: `ssdgen` then `ssdstat`.
//!
//! Generates the default-scale fleet (6,000 drives × 6 years) with
//! `FleetGen::run` streaming into a file, in `ssdgen`'s default mode,
//! then reads it back the way `ssdstat` does: `TraceSource::open`,
//! `next_drive_into`, `DriveLog::validate`, `SummaryAccumulator::observe`
//! and `finish`. One operation is one generate-then-scan pass. Three
//! warm-up passes are the set-up; the timed passes repeat it for the run
//! length.

use super::Layers;
use crate::stats::{digest_file, median};
use crate::trace::{SpanId, Tracer};
use crate::{metric, Ctx, Outcome};
use ssd_field_study_core::streaming::SummaryAccumulator;
use ssd_sim::{ArchiveStats, FleetGen, SimConfig};
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, DriveLog, DriveModel};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Warm-up passes before timing; their median is `setup_s`.
const SETUP_PASSES: usize = 3;

/// A `Write` that times and counts what reaches the file.
struct TimedWrite<'a> {
    inner: File,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    bytes: u64,
}

impl Write for TimedWrite<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let span = self.tracer.open("io.write", self.parent, None);
        let n = self.inner.write(buf);
        self.tracer.close(span);
        let n = n?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One generate-then-scan pass.
struct Pass {
    stats: ArchiveStats,
    written: u64,
    gen_s: f64,
    scan_s: f64,
    scanned: (u64, u64, u64),
}

fn pass(
    cfg: &SimConfig,
    path: &Path,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Pass, String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let t0 = Instant::now();
    let (stats, sink) = tracer
        .scope("sim.gen", parent, |p| {
            let mut w = BufWriter::new(TimedWrite {
                inner: file,
                tracer,
                parent: p,
                bytes: 0,
            });
            let stats = FleetGen::new(cfg).run(&mut w)?;
            let sink = w.into_inner().map_err(|e| e.into_error())?;
            Ok::<_, std::io::Error>((stats, sink))
        })
        .map_err(|e| format!("generate: {e}"))?;
    let gen_s = t0.elapsed().as_secs_f64();
    let written = sink.bytes;
    // Untimed: finish the disk writeback so the scan does not compete
    // with it.
    sink.inner
        .sync_all()
        .map_err(|e| format!("sync {}: {e}", path.display()))?;

    let t1 = Instant::now();
    let summary = tracer.scope("ssdstat.scan", parent, |p| {
        let source = TraceSource::from_path(path, None).map_err(|e| e.to_string())?;
        let mut reader = source.open().map_err(|e| e.to_string())?;
        let mut acc = SummaryAccumulator::new();
        let mut drive = DriveLog::new(DriveId(0), DriveModel::from_index(0));
        while tracer
            .scope("codec.decode", p, |_| reader.next_drive_into(&mut drive))
            .map_err(|e| format!("decode: {e}"))?
        {
            tracer
                .scope("types.validate", p, |_| drive.validate())
                .map_err(|e| format!("trace invariants: {e}"))?;
            tracer.scope("streaming.observe", p, |_| acc.observe(&drive));
        }
        Ok::<_, String>(tracer.scope("streaming.finish", p, |_| acc.finish()))
    })?;
    let scan_s = t1.elapsed().as_secs_f64();
    Ok(Pass {
        stats,
        written,
        gen_s,
        scan_s,
        scanned: (
            summary.n_drives as u64,
            summary.total_drive_days as u64,
            summary.total_swaps as u64,
        ),
    })
}

pub(crate) fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let tracer = &ctx.tracer;
    let root = tracer.open("workload", None, None);
    let cfg = SimConfig::default_scale(ctx.seed);
    let path = ctx.work.join("trace.ssdfs");
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut digest = None;
    // Checks run outside the timed regions: the scan must see exactly
    // what generation reported writing, and every pass must produce the
    // same bytes.
    let mut check = |p: &Pass| -> Result<(), String> {
        attempted += 2;
        let (d, len) = digest_file(&path).map_err(|e| format!("digest: {e}"))?;
        let s = &p.stats;
        let mut bad = 0;
        if (s.drives, s.drive_days, s.swaps) != p.scanned {
            eprintln!(
                "archive_scan: scanned {:?} but generation reported {s:?}",
                p.scanned
            );
            bad += 1;
        }
        if len != s.bytes || p.written != s.bytes {
            eprintln!(
                "archive_scan: file holds {len} bytes, wrote {}, stats say {}",
                p.written, s.bytes
            );
            bad += 1;
        }
        match &digest {
            None => digest = Some(d),
            Some(first) if *first != d => {
                eprintln!("archive_scan: archive digest changed between passes");
                bad += 1;
            }
            Some(_) => {}
        }
        failed += bad;
        Ok(())
    };

    let mut setups = Vec::new();
    let mut first = None;
    for _ in 0..SETUP_PASSES {
        let t0 = Instant::now();
        let p = tracer.scope("setup", root, |p| pass(&cfg, &path, tracer, p))?;
        setups.push(t0.elapsed().as_secs_f64());
        check(&p)?;
        first.get_or_insert(p);
    }
    let first = first.ok_or("no set-up pass")?;
    let mut passes = vec![];
    ctx.repeat(1, |_| {
        let p = tracer.scope("pass", root, |r| pass(&cfg, &path, tracer, r))?;
        check(&p)?;
        passes.push(p);
        Ok(())
    })?;
    tracer.close(root);

    let days = first.stats.drive_days as f64;
    let gen_rate = median(&passes.iter().map(|p| days / p.gen_s).collect::<Vec<_>>());
    let scan_rate = median(&passes.iter().map(|p| days / p.scan_s).collect::<Vec<_>>());
    println!("# archive_scan: generate {gen_rate:.0} drive-days/s, scan {scan_rate:.0} drive-days/s");
    let op_s = median(&passes.iter().map(|p| p.gen_s + p.scan_s).collect::<Vec<_>>());
    let mut per_layer = Vec::new();
    if tracer.enabled() {
        let n = passes.len() + SETUP_PASSES;
        let l = Layers::new(&tracer.snapshot(), n);
        let decode_s = l.self_s("codec.decode");
        per_layer = vec![
            metric("sim.gen_s", l.self_s("sim.gen"), "s"),
            metric("io.write_s", l.self_s("io.write"), "s"),
            metric("io.write_bytes", first.written as f64, "bytes"),
            metric("sim.drive_days", days, "count"),
            metric("sim.swaps", first.stats.swaps as f64, "count"),
            metric("codec.decode_s", decode_s, "s"),
            metric(
                "codec.decode_ns_per_drive_day",
                decode_s * 1e9 / days.max(1.0),
                "ns",
            ),
            metric("types.validate_s", l.self_s("types.validate"), "s"),
            metric("streaming.observe_s", l.self_s("streaming.observe"), "s"),
            metric("streaming.finish_s", l.self_s("streaming.finish"), "s"),
        ];
    }
    Ok(Outcome {
        end_to_end: vec![
            metric("setup_s", median(&setups), "s"),
            metric("op_s", op_s, "s"),
        ],
        per_layer,
        attempted,
        failed,
        digest: format!(
            "archive {} ({} bytes, {} drives, {} drive-days, {} swaps)",
            digest.unwrap_or_default(),
            first.stats.bytes,
            first.stats.drives,
            first.stats.drive_days,
            first.stats.swaps
        ),
    })
}
