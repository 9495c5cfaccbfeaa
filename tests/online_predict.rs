//! Integration battery for the online prediction pipeline: streaming
//! feature extraction, incremental per-drive state, and flattened
//! whole-fleet scoring.
//!
//! The pipeline promises three equivalences, each pinned here:
//!
//! 1. **streaming = offline** — `build_dataset_streaming` over an
//!    archived trace file produces the *same dataset* (bit-for-bit
//!    features, same labels, same sampling draws) as `build_dataset`
//!    over the in-memory fleet it was encoded from;
//! 2. **online = offline** — `OnlineFleet` fed day by day, in any drive
//!    order and any thread-pool size, scores every drive identically;
//! 3. **robustness** — truncated or byte-flipped archives surface typed
//!    errors from the streaming extractor, never panics.
//!
//! `predict_fleet_day` output is additionally pinned with bit-level
//! goldens (regenerate with `SSD_GOLDEN_PRINT=1 cargo test --test
//! online_predict -- --nocapture` after an intentional change).

use ssd_field_study_core::{
    build_dataset, build_dataset_streaming, ExtractOptions, OnlineFleet,
};
use ssd_ml::{FlatForest, ForestConfig, RandomForest};
use ssd_sim::{FleetGen, SimConfig};
use ssd_testkit::{for_each_case, Gen};
use ssd_types::codec::encode_trace;
use ssd_types::source::TraceSource;
use ssd_types::{DriveId, FleetTrace};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Small but non-trivial fleet: 3 models × 40 drives over 800 days.
/// This seed yields 5 swaps (~70 positive training rows with the
/// 14-day lookahead) — enough failures that a fitted forest produces a
/// non-trivial risk ranking. (Shorter horizons often produce *zero*
/// swaps, which would silently pin an all-zero degenerate golden; the
/// extraction tests guard `class_counts` for exactly that reason.)
fn small_fleet() -> FleetTrace {
    FleetGen::new(&SimConfig {
        drives_per_model: 40,
        horizon_days: 800,
        seed: 11,
        ..SimConfig::default()
    })
    .trace()
}

fn extract_opts() -> ExtractOptions {
    ExtractOptions {
        lookahead_days: 14,
        negative_sample_rate: 0.5,
        seed: 7,
        ..Default::default()
    }
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssd_online_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join("trace.ssdfs")
}

#[test]
fn streaming_extraction_over_archive_file_equals_offline_extraction() {
    let trace = small_fleet();
    let offline = build_dataset(&trace, &extract_opts());

    let path = scratch_file("stream_eq");
    std::fs::write(&path, encode_trace(&trace)).expect("write archive");
    let source = TraceSource::from_path(path.to_str().unwrap(), None).expect("open source");
    let mut reader = source.open().expect("open reader");
    let streamed = build_dataset_streaming(&mut reader, &extract_opts()).expect("stream dataset");

    // Dataset derives PartialEq over features, labels, and groups — this
    // is bit-level equality of every f32 feature cell plus identical
    // negative-sampling draws.
    assert_eq!(offline, streamed);
    let (pos, neg) = offline.class_counts();
    assert!(pos > 0 && neg > 0, "fixture degenerated: {pos} pos / {neg} neg");
    std::fs::remove_file(&path).ok();
}

#[test]
fn fleet_day_scores_are_identical_for_every_drive_order() {
    let trace = small_fleet();
    let data = build_dataset(&trace, &extract_opts());
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 10,
            ..Default::default()
        },
        &data,
        3,
    );
    let flat = FlatForest::from_forest(&forest);

    let score_in_order = |order: &[usize]| -> BTreeMap<u32, u64> {
        let mut fleet = OnlineFleet::new();
        for &i in order {
            fleet.observe_drive(&trace.drives[i]);
        }
        fleet
            .predict_fleet_day(&flat)
            .into_iter()
            .map(|(id, p)| (id.0, p.to_bits()))
            .collect()
    };

    let forward: Vec<usize> = (0..trace.drives.len()).collect();
    let baseline = score_in_order(&forward);
    // Only drives that reported at least once occupy a fleet slot.
    let reporting = trace.drives.iter().filter(|d| !d.reports.is_empty()).count();
    assert_eq!(baseline.len(), reporting);
    assert!(reporting > 0, "fixture degenerated: no reporting drives");

    let mut reversed = forward.clone();
    reversed.reverse();
    assert_eq!(baseline, score_in_order(&reversed), "reverse arrival order");

    // The per-drive feature rows behind those scores are themselves
    // order-independent, and every scored drive exposes one.
    let build_fleet = |order: &[usize]| {
        let mut fleet = OnlineFleet::new();
        for &i in order {
            fleet.observe_drive(&trace.drives[i]);
        }
        fleet
    };
    let (fwd_fleet, rev_fleet) = (build_fleet(&forward), build_fleet(&reversed));
    for &id in baseline.keys() {
        let id = DriveId(id);
        let row = fwd_fleet.features_of(id).expect("scored drive has a feature row");
        assert_eq!(Some(row), rev_fleet.features_of(id), "feature row of drive {}", id.0);
    }

    // Deterministic shuffles: same per-drive scores no matter how the
    // fleet's telemetry happens to interleave.
    let mut g = Gen::from_seed(0x0D5E);
    for round in 0..3 {
        let mut shuffled = forward.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, g.usize_in(0, i + 1));
        }
        assert_eq!(baseline, score_in_order(&shuffled), "shuffle round {round}");
    }
}

#[test]
fn fleet_day_scores_are_identical_across_pool_sizes() {
    let trace = small_fleet();
    let data = build_dataset(&trace, &extract_opts());
    let cfg = ForestConfig {
        n_trees: 10,
        ..Default::default()
    };
    let run_with_pool = |threads: usize| -> Vec<u64> {
        ssd_parallel::with_threads(threads, || {
            let forest = RandomForest::fit(&cfg, &data, 3);
            let flat = FlatForest::from_forest(&forest);
            let mut fleet = OnlineFleet::new();
            for log in &trace.drives {
                fleet.observe_drive(log);
            }
            fleet
                .predict_fleet_day(&flat)
                .into_iter()
                .map(|(_, p)| p.to_bits())
                .collect()
        })
    };
    let single = run_with_pool(1);
    for threads in [2, 5] {
        assert_eq!(single, run_with_pool(threads), "pool size {threads}");
    }
}

#[test]
fn predict_fleet_day_goldens_are_pinned() {
    // End-to-end pin: simulator → offline training set → forest → flat
    // scorer → online replay → whole-fleet batch scores. Any change to
    // feature extraction, tree fitting, flattening, or traversal moves
    // these bits.
    let trace = small_fleet();
    let data = build_dataset(&trace, &extract_opts());
    let forest = RandomForest::fit(
        &ForestConfig {
            n_trees: 10,
            ..Default::default()
        },
        &data,
        3,
    );
    let flat = FlatForest::from_forest(&forest);
    let mut fleet = OnlineFleet::new();
    for log in &trace.drives {
        fleet.observe_drive(log);
    }
    let mut scored = fleet.predict_fleet_day(&flat);
    // Healthy end-of-trace drives all sit in pure-negative leaves and
    // score exactly 0.0; pin the top of the risk ranking instead, where
    // the interesting bits live (ties break toward the lower drive id).
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    let got: Vec<f64> = scored.iter().take(8).map(|&(_, p)| p).collect();

    if std::env::var("SSD_GOLDEN_PRINT").is_ok() {
        let bits: Vec<String> =
            got.iter().map(|p| format!("0x{:016X}", p.to_bits())).collect();
        println!("fleet_day: [\n    {},\n]", bits.join(",\n    "));
        return;
    }
    assert_eq!(got.len(), FLEET_DAY_GOLDEN.len());
    for (i, (&p, &w)) in got.iter().zip(&FLEET_DAY_GOLDEN).enumerate() {
        assert_eq!(
            p.to_bits(),
            w,
            "fleet_day[{i}]: got {p} (0x{:016X}), want {} (0x{w:016X})",
            p.to_bits(),
            f64::from_bits(w),
        );
    }
}

const FLEET_DAY_GOLDEN: [u64; 8] = [
    0x3FF0000000000000,
    0x3FF0000000000000,
    0x3FEF5C28F6666666,
    0x3FDB851EB999999A,
    0x3FB9AE042599999A,
    0x3FB999999999999A,
    0x3FA999999999999A,
    0x3F50B7E6E6666666,
];

#[test]
fn mutated_archives_error_cleanly_through_streaming_extraction() {
    // Fuzz the decoder + extractor stack: truncations at every kind of
    // boundary and random byte flips must yield Ok (mutation landed in
    // padding/unreached bytes) or a typed TraceReadError — never a panic,
    // never an abort. The cases are deterministic, so any failure
    // reproduces.
    let trace = FleetGen::new(&SimConfig {
        drives_per_model: 4,
        horizon_days: 90,
        seed: 5,
        ..SimConfig::default()
    })
    .trace();
    let archive = encode_trace(&trace);
    let path = scratch_file("fuzz");

    let feed = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write mutated archive");
        let source = match TraceSource::from_path(path.to_str().unwrap(), None) {
            Ok(s) => s,
            Err(_) => return, // typed error at open: acceptable
        };
        let mut reader = match source.open() {
            Ok(r) => r,
            Err(_) => return,
        };
        // Result intentionally ignored: both Ok and Err are in-contract;
        // only a panic (which fails the test) is not.
        let _ = build_dataset_streaming(&mut reader, &extract_opts());
    };

    for_each_case("truncated_archives_never_panic", 64, |g| {
        let cut = g.usize_in(0, archive.len());
        feed(&archive[..cut]);
    });

    for_each_case("byte_flipped_archives_never_panic", 128, |g| {
        let mut bytes = archive.clone();
        for _ in 0..g.usize_in(1, 8) {
            let at = g.usize_in(0, bytes.len());
            bytes[at] ^= g.u64() as u8 | 1; // always a real flip
        }
        feed(&bytes);
    });

    std::fs::remove_file(&path).ok();
}
