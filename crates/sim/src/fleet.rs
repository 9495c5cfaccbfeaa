//! Parallel fleet generation behind the [`FleetGen`] builder.
//!
//! Each drive's randomness derives from `SplitMix64::for_stream(seed, id)`,
//! so the trace is a pure function of the configuration: the same fleet is
//! produced regardless of thread count or generation order (verified by a
//! determinism test comparing single- and multi-threaded output). Every
//! drive is emitted by the span walker of [`crate::drive`]; the unit tests
//! below pin whole-fleet archives to its day-by-day test oracle.
//!
//! [`FleetGen`] is the single entry point: pick a [`Sampling`] strategy
//! and a destination ([`run`](FleetGen::run) streams an archive,
//! [`trace`](FleetGen::trace) materializes an owned [`FleetTrace`]).

use crate::calibration::ModelParams;
use crate::config::SimConfig;
use crate::drive::{generate_drive_into, DriveGenOptions};
use ssd_parallel::prelude::*;
use ssd_stats::SplitMix64;
use ssd_types::cast::{u32_from_usize, u64_from_usize, usize_from_u32, usize_from_u64};
use ssd_types::codec::{encode_drive, TraceEncoder};
use ssd_types::{DriveId, DriveLog, DriveModel, FleetTrace};
use std::io::Write;

/// How the fleet's drive population is sampled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// Every drive drawn from the calibrated population distribution;
    /// all log-weights are exactly `0.0`.
    Uniform,
    /// The defective/infant subpopulation is oversampled by `boost`
    /// (first-period infant-failure probability multiplied by `boost`,
    /// capped at 0.5); each drive's archive record carries the
    /// correcting log-weight for downstream weighted estimators.
    Importance {
        /// Multiplier on the infant-failure probability (≥ 1.0).
        boost: f64,
    },
}

impl Sampling {
    fn infant_boost(self) -> f64 {
        match self {
            Sampling::Uniform => 1.0,
            Sampling::Importance { boost } => boost.max(1.0),
        }
    }
}

/// Builder for fleet generation: configuration plus sampling strategy.
///
/// ```
/// use ssd_sim::{FleetGen, Sampling, SimConfig};
///
/// let config = SimConfig::test_scale(7);
/// let mut archive = Vec::new();
/// let stats = FleetGen::new(&config)
///     .sampling(Sampling::Uniform)
///     .run(&mut archive)
///     .unwrap();
/// assert_eq!(stats.drives, u64::from(config.total_drives()));
/// assert_eq!(stats.bytes, archive.len() as u64);
/// ```
#[derive(Debug, Clone)]
pub struct FleetGen<'a> {
    config: &'a SimConfig,
    sampling: Sampling,
}

impl<'a> FleetGen<'a> {
    /// Starts a builder with [`Sampling::Uniform`].
    pub fn new(config: &'a SimConfig) -> Self {
        FleetGen {
            config,
            sampling: Sampling::Uniform,
        }
    }

    /// Selects the population sampling strategy.
    pub fn sampling(mut self, sampling: Sampling) -> Self {
        self.sampling = sampling;
        self
    }

    fn opts(&self) -> DriveGenOptions {
        DriveGenOptions {
            report_permille: self.config.report_permille,
            infant_boost: self.sampling.infant_boost(),
        }
    }

    /// Generates the fleet and streams the compact binary archive into
    /// `sink` without ever materializing a [`FleetTrace`] or the full
    /// archive.
    ///
    /// This is the hot path for paper-scale fleets (30k drives × 6
    /// years): drives are split into `min(n, 128)` contiguous id ranges;
    /// each range is generated drive by drive into one reused
    /// [`DriveLog`], and every drive is serialized into the range's byte
    /// buffer as soon as it is generated. Chunks are produced in bounded *waves* (a small
    /// multiple of the worker count) and appended to the sink in id order
    /// as each wave lands, so peak memory is one wave of encoded chunks —
    /// not the whole archive — regardless of fleet size.
    ///
    /// The chunk boundaries are a pure function of the drive count and
    /// the append order is chunk-id order, so the bytes written are
    /// identical to `encode_trace(&self.trace())` at every pool size and
    /// wave size (pinned by `tests/determinism.rs`).
    pub fn run<W: Write>(&self, sink: W) -> std::io::Result<ArchiveStats> {
        let params = all_params();
        let opts = self.opts();
        let n = self.config.total_drives();
        let n_chunks = archive_chunks(n);
        let chunk_size = if n_chunks == 0 { 0 } else { n.div_ceil(n_chunks) };
        // Two chunks in flight per worker keeps the pool busy while
        // bounding resident encoded bytes to one wave.
        let wave = u32_from_usize(ssd_parallel::current_num_threads().max(1) * 2);

        let mut enc = TraceEncoder::to_sink(sink, self.config.horizon_days, u64::from(n))?;
        let mut stats = ArchiveStats {
            drives: u64::from(n),
            drive_days: 0,
            swaps: 0,
            bytes: 0,
        };
        let mut c0 = 0u32;
        while c0 < n_chunks {
            let c1 = c0.saturating_add(wave).min(n_chunks);
            let chunks: Vec<EncodedChunk> = (c0..c1)
                .into_par_iter()
                .map(|c| {
                    // Trailing chunks collapse to empty ranges when
                    // ceil-sized chunks cover the fleet early (e.g. 180
                    // drives / 128).
                    let lo = (c * chunk_size).min(n);
                    let hi = (lo + chunk_size).min(n);
                    self.encode_chunk(&params, &opts, lo, hi)
                })
                .collect();
            for chunk in &chunks {
                enc.append_encoded(chunk.drives, &chunk.bytes)?;
                stats.drive_days += chunk.drive_days;
                stats.swaps += chunk.swaps;
            }
            c0 = c1;
        }
        stats.bytes = enc.bytes_written();
        enc.finish_sink()?;
        Ok(stats)
    }

    /// Generates the fleet into an in-memory archive. Thin wrapper over
    /// [`run`](FleetGen::run) with a `Vec<u8>` sink — the bytes are
    /// identical; large fleets should stream to disk instead.
    pub fn run_vec(&self) -> Vec<u8> {
        // ~40 encoded bytes per *reported* day: scale the hint by the
        // configured report density rather than the full horizon.
        let expected_days = u64::from(self.config.total_drives())
            * u64::from(self.config.horizon_days)
            * u64::from(self.config.report_permille.clamp(1, 1000))
            / 1000;
        let mut out = Vec::with_capacity(64 + usize_from_u64(expected_days + expected_days / 4) * 40);
        #[expect(clippy::expect_used, reason = "io::Write into a Vec<u8> is infallible")]
        self.run(&mut out).expect("Vec sink cannot fail");
        out
    }

    /// Generates an owned [`FleetTrace`] in parallel — convenient for
    /// resident analysis; costs gigabytes at paper scale.
    pub fn trace(&self) -> FleetTrace {
        let params = all_params();
        let opts = self.opts();
        let drives = (0..self.config.total_drives())
            .into_par_iter()
            .map(|i| {
                let mut log = DriveLog::new(DriveId(i), DriveModel::from_index(0));
                self.gen_drive_into(&params, &opts, i, &mut log);
                log
            })
            .collect();
        FleetTrace {
            horizon_days: self.config.horizon_days,
            drives,
        }
    }

    /// Drive `i`'s model and private RNG stream — the only place either
    /// is decided. Drives are striped across models (`i % 3` picks the
    /// model, so per-model sub-fleets are equally sized and id-stable),
    /// and each drive draws from its own `for_stream(seed, i)` substream.
    fn drive_stream(&self, i: u32) -> (DriveModel, SplitMix64) {
        let model = DriveModel::from_index(usize_from_u32(i % 3));
        (model, SplitMix64::for_stream(self.config.seed, u64::from(i)))
    }

    /// Generates drive `i` into `log`, reusing its buffers: sets the id
    /// and model, and [`generate_drive_into`] refills the rest.
    fn gen_drive_into(
        &self,
        params: &[ModelParams],
        opts: &DriveGenOptions,
        i: u32,
        log: &mut DriveLog,
    ) {
        let (model, mut rng) = self.drive_stream(i);
        log.id = DriveId(i);
        log.model = model;
        generate_drive_into(
            &params[model.index()],
            self.config.horizon_days,
            opts,
            &mut rng,
            log,
        );
    }

    /// Generates and encodes the contiguous drive-id range `[lo, hi)` into
    /// one byte buffer through one reused [`DriveLog`].
    fn encode_chunk(
        &self,
        params: &[ModelParams],
        opts: &DriveGenOptions,
        lo: u32,
        hi: u32,
    ) -> EncodedChunk {
        let config = self.config;
        let mut log = DriveLog::new(DriveId(lo), DriveModel::from_index(0));
        log.reports.reserve(usize_from_u32(config.horizon_days));
        // ~40 encoded bytes per *reported* drive-day (matching
        // encode_trace's hint), scaled by the configured report density.
        let expected_days = u64::from(hi - lo)
            * u64::from(config.horizon_days)
            * u64::from(config.report_permille.clamp(1, 1000))
            / 1000;
        let mut bytes =
            Vec::with_capacity(usize_from_u64((expected_days + expected_days / 4) * 40));
        let mut drive_days = 0u64;
        let mut swaps = 0u64;
        for i in lo..hi {
            self.gen_drive_into(params, opts, i, &mut log);
            drive_days += u64_from_usize(log.reports.len());
            swaps += u64_from_usize(log.swaps.len());
            encode_drive(&mut bytes, &log);
        }
        EncodedChunk {
            drives: u64::from(hi - lo),
            drive_days,
            swaps,
            bytes,
        }
    }
}

fn all_params() -> Vec<ModelParams> {
    DriveModel::ALL
        .iter()
        .map(|&m| ModelParams::for_model(m))
        .collect()
}

/// Number of worker chunks the archive path splits a fleet into. A pure
/// function of the drive count — never of the thread count — so the chunk
/// boundaries (and therefore the assembled bytes) are identical at every
/// pool size.
fn archive_chunks(n_drives: u32) -> u32 {
    n_drives.min(128)
}

/// What [`FleetGen::run`] wrote, for logging/reporting without a second
/// pass over the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Number of drives in the archive.
    pub drives: u64,
    /// Total daily reports across all drives (simulated drive-days that
    /// produced telemetry).
    pub drive_days: u64,
    /// Total swap events across all drives.
    pub swaps: u64,
    /// Archive size in bytes (header included).
    pub bytes: u64,
}

/// One generated chunk of encoded drives, plus its tallies.
struct EncodedChunk {
    drives: u64,
    drive_days: u64,
    swaps: u64,
    bytes: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::tests::generate_drive_into_day_by_day;
    use ssd_types::codec::encode_trace;

    /// `gen`'s fleet built sequentially through the day-by-day reference
    /// walker, from the same per-drive models and streams.
    fn oracle_trace(gen: &FleetGen) -> FleetTrace {
        let params = all_params();
        let opts = gen.opts();
        let drives = (0..gen.config.total_drives())
            .map(|i| {
                let (model, mut rng) = gen.drive_stream(i);
                let mut log = DriveLog::new(DriveId(i), model);
                generate_drive_into_day_by_day(
                    &params[model.index()],
                    gen.config.horizon_days,
                    &opts,
                    &mut rng,
                    &mut log,
                );
                log
            })
            .collect();
        FleetTrace {
            horizon_days: gen.config.horizon_days,
            drives,
        }
    }

    #[test]
    fn span_walker_archive_matches_day_by_day_oracle_at_every_pool_size() {
        let cfg = SimConfig {
            drives_per_model: 50,
            horizon_days: 1000,
            seed: 271828,
            ..SimConfig::default()
        };
        let gen = FleetGen::new(&cfg);
        let oracle = encode_trace(&oracle_trace(&gen));
        for n_threads in [1, 2, 5] {
            let pool = ssd_parallel::ThreadPoolBuilder::new()
                .num_threads(n_threads)
                .build()
                .unwrap();
            let archived = pool.install(|| gen.run_vec());
            assert!(
                archived == oracle,
                "pool size {n_threads}: span-walker archive diverged from the day-by-day oracle"
            );
        }
    }

    #[test]
    fn span_walker_archives_match_day_by_day_oracle_for_arbitrary_configs() {
        ssd_testkit::for_each_case(
            "span_walker_archives_match_day_by_day_oracle_for_arbitrary_configs",
            24,
            |g| {
                let cfg = SimConfig {
                    drives_per_model: g.u32_in(1, 12),
                    horizon_days: g.u32_in(200, 1500),
                    seed: g.u64(),
                    report_permille: g.u32_in(1, 1000),
                };
                let sampling = if g.u32_in(0, 2) == 1 {
                    Sampling::Importance {
                        boost: g.f64_in(1.0, 8.0),
                    }
                } else {
                    Sampling::Uniform
                };
                let gen = FleetGen::new(&cfg).sampling(sampling);
                assert!(
                    gen.run_vec() == encode_trace(&oracle_trace(&gen)),
                    "span-walker archive diverged from the day-by-day oracle"
                );
            },
        );
    }

    fn tiny() -> SimConfig {
        SimConfig {
            drives_per_model: 60,
            horizon_days: 800,
            seed: 123,
            ..SimConfig::default()
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let cfg = tiny();
        let gen = FleetGen::new(&cfg);
        let pool = ssd_parallel::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        assert_eq!(gen.trace(), pool.install(|| gen.trace()));
    }

    #[test]
    fn fleet_validates_and_has_all_models() {
        let trace = FleetGen::new(&tiny()).trace();
        trace.validate().expect("trace invariants");
        for m in DriveModel::ALL {
            assert_eq!(trace.drives_of(m).count(), 60);
        }
        assert!(trace.total_drive_days() > 10_000);
    }

    #[test]
    fn different_seeds_give_different_fleets() {
        let mut cfg = tiny();
        let a = FleetGen::new(&cfg).trace();
        cfg.seed = 456;
        let b = FleetGen::new(&cfg).trace();
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let cfg = tiny();
        assert_eq!(FleetGen::new(&cfg).trace(), FleetGen::new(&cfg).trace());
    }

    #[test]
    fn archive_path_matches_encode_of_generated_fleet() {
        let cfg = tiny();
        let baseline = ssd_types::codec::encode_trace(&FleetGen::new(&cfg).trace());
        assert_eq!(FleetGen::new(&cfg).run_vec(), baseline);
    }

    #[test]
    fn archive_path_handles_degenerate_sizes() {
        for drives_per_model in [0, 1] {
            let cfg = SimConfig {
                drives_per_model,
                horizon_days: 400,
                seed: 9,
                ..SimConfig::default()
            };
            let baseline = ssd_types::codec::encode_trace(&FleetGen::new(&cfg).trace());
            assert_eq!(FleetGen::new(&cfg).run_vec(), baseline);
            assert!(ssd_types::codec::decode_trace(&FleetGen::new(&cfg).run_vec()).is_ok());
        }
    }

    #[test]
    fn archive_to_sink_matches_in_memory_and_reports_stats() {
        let cfg = tiny();
        let gen = FleetGen::new(&cfg);
        let baseline = gen.run_vec();
        let trace = gen.trace();
        let mut streamed = Vec::new();
        let stats = gen.run(&mut streamed).unwrap();
        assert_eq!(streamed, baseline);
        assert_eq!(stats.drives, trace.n_drives() as u64);
        assert_eq!(stats.drive_days, trace.total_drive_days() as u64);
        assert_eq!(stats.swaps, trace.total_swaps() as u64);
        assert_eq!(stats.bytes, baseline.len() as u64);
    }

    #[test]
    fn importance_sampling_weights_archive_drives() {
        let cfg = tiny();
        let uniform = FleetGen::new(&cfg).trace();
        let boosted = FleetGen::new(&cfg)
            .sampling(Sampling::Importance { boost: 6.0 })
            .trace();
        assert!(uniform
            .drives
            .iter()
            .all(|d| d.log_weight.to_bits() == 0));
        let weighted = boosted
            .drives
            .iter()
            .filter(|d| d.log_weight.to_bits() != 0)
            .count();
        assert_eq!(
            weighted,
            boosted.drives.len(),
            "every importance-sampled drive must carry a weight factor"
        );
        // Boosted fleets contain more infant swaps (that is the point).
        let infant_swaps = |t: &FleetTrace| {
            t.drives
                .iter()
                .flat_map(|d| &d.swaps)
                .filter(|s| s.swap_day <= 120)
                .count()
        };
        assert!(infant_swaps(&boosted) > infant_swaps(&uniform));
        // And the archive round-trips the weights.
        let archive = FleetGen::new(&cfg)
            .sampling(Sampling::Importance { boost: 6.0 })
            .run_vec();
        let decoded = ssd_types::codec::decode_trace(&archive).unwrap();
        for (a, b) in decoded.drives.iter().zip(&boosted.drives) {
            assert_eq!(a.log_weight.to_bits(), b.log_weight.to_bits());
        }
    }

    #[test]
    fn archive_to_sink_propagates_write_errors() {
        /// Accepts `budget` bytes, then fails every write.
        struct FailingSink {
            budget: usize,
        }
        impl std::io::Write for FailingSink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.budget == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "disk full",
                    ));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let err = FleetGen::new(&tiny())
            .run(FailingSink { budget: 1000 })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }

    #[test]
    fn some_failures_occur_at_test_scale() {
        let cfg = SimConfig {
            drives_per_model: 300,
            horizon_days: crate::calibration::HORIZON_DAYS,
            seed: 7,
            ..SimConfig::default()
        };
        let trace = FleetGen::new(&cfg).trace();
        let failed = trace.drives.iter().filter(|d| d.ever_failed()).count();
        // Fleet mean failed fraction ≈ 11%; at 900 drives expect ~100.
        assert!(failed > 40, "only {failed} failed drives");
        assert!(failed < 250, "{failed} failed drives is too many");
    }
}
