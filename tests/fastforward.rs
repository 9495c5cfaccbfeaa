//! Importance-sampled fleets against uniform ground truth.
//!
//! The tentpole contract for `Sampling::Importance` is statistical, not
//! bitwise: boosting the defective/infant subpopulation changes *which*
//! fleet is simulated, but the recorded log-weights must let every
//! weighted estimator (summary tallies, Kaplan–Meier survival, ROC AUC)
//! recover the uniform population's statistics within pinned tolerances —
//! while simulating strictly fewer drive-days on the same seed. The
//! byte-level identity of the generator's span walker with its day-by-day
//! oracle lives in the `ssd-sim` unit tests (`drive.rs`, `fleet.rs`); this
//! file owns the estimator-equivalence half plus codec round-trip fuzz for
//! the weight column.

use ssd_field_study::core::failure::operational_periods;
use ssd_field_study::core::lifecycle::time_to_failure_km;
use ssd_field_study::core::streaming::{StreamSummary, SummaryAccumulator};
use ssd_field_study::ml::{roc_auc, roc_auc_weighted};
use ssd_field_study::sim::{FleetGen, Sampling, SimConfig};
use ssd_field_study::stats::{Duration, KaplanMeier};
use ssd_field_study::types::codec::{decode_trace, encode_trace};
use ssd_field_study::types::{DriveLog, FleetTrace};
use ssd_testkit::for_each_case;

/// Oversampling factor for the defective/infant subpopulation.
const BOOST: f64 = 4.0;

fn cfg() -> SimConfig {
    SimConfig {
        drives_per_model: 1000,
        horizon_days: 1095,
        seed: 7,
        ..SimConfig::default()
    }
}

fn uniform_trace() -> FleetTrace {
    FleetGen::new(&cfg()).trace()
}

fn boosted_trace() -> FleetTrace {
    FleetGen::new(&cfg())
        .sampling(Sampling::Importance { boost: BOOST })
        .trace()
}

fn summarize(trace: &FleetTrace) -> StreamSummary {
    let mut acc = SummaryAccumulator::new();
    for d in &trace.drives {
        acc.observe(d);
    }
    acc.finish()
}

/// Step-function evaluation of a Kaplan–Meier curve at time `t`.
fn surv_at(km: &KaplanMeier, t: f64) -> f64 {
    let mut s = 1.0;
    for &(time, surv) in km.steps() {
        if time <= t {
            s = surv;
        } else {
            break;
        }
    }
    s
}

/// A deliberately simple per-drive risk score — cumulative error events
/// plus end-of-life grown bad blocks — so the AUC comparison exercises
/// the weighted estimator, not a model's variance.
fn heuristic_score(d: &DriveLog) -> f64 {
    let errors: u64 = d
        .reports
        .iter()
        .map(|r| r.errors.0.iter().sum::<u64>())
        .sum();
    let grown = d.reports.last().map_or(0, |r| u64::from(r.grown_bad_blocks));
    (errors + grown) as f64
}

#[test]
fn importance_weighted_summary_matches_uniform_population() {
    let uniform = uniform_trace();
    let boosted = boosted_trace();
    let u = summarize(&uniform);
    let b = summarize(&boosted);

    // Uniform fleets carry all-zero log-weights, so the weighted section
    // is omitted; the boosted fleet must produce it.
    assert!(u.weighted.is_none(), "uniform fleet grew a weighted section");
    let w = b.weighted.as_ref().expect("boosted fleet has weights");

    // The boost concentrates simulation effort on short-lived drives:
    // strictly fewer drive-days than the uniform fleet on the same seed.
    assert!(
        b.total_drive_days < u.total_drive_days,
        "importance sampling did not reduce simulated drive-days: {} vs {}",
        b.total_drive_days,
        u.total_drive_days,
    );

    // Horvitz–Thompson recovery of Table 3. The *raw* boosted tallies
    // overstate failure incidence ~2.5× (0.096 vs 0.038 on this seed);
    // the weighted estimates must land within a pinned band of uniform
    // ground truth, and strictly closer than the raw tallies.
    let u_failed = u.failure_incidence.total_failed_fraction;
    let raw_failed = b.failure_incidence.total_failed_fraction;
    assert!(
        (w.total_failed_fraction - u_failed).abs() < 0.01,
        "weighted failed fraction {:.5} vs uniform {u_failed:.5}",
        w.total_failed_fraction,
    );
    assert!(
        (w.total_failed_fraction - u_failed).abs() < (raw_failed - u_failed).abs(),
        "weighting did not improve on raw boosted tallies",
    );

    let u_swap_rate = u.total_swaps as f64 / u.n_drives as f64;
    assert!(
        (w.swaps_per_drive - u_swap_rate).abs() / u_swap_rate < 0.2,
        "weighted swap rate {:.5} vs uniform {u_swap_rate:.5}",
        w.swaps_per_drive,
    );

    // Σ exp(log_weight) estimates the population size the sample stands
    // in for — it must hover around the actual fleet size.
    let n = b.n_drives as f64;
    assert!(
        (w.effective_drives - n).abs() / n < 0.05,
        "effective drives {:.1} vs fleet size {n}",
        w.effective_drives,
    );

    // Per-model failed fractions (the rows of Table 3), same band.
    for ((name, _, _, uf), (_, _, _, wf)) in
        u.failure_incidence.per_model.iter().zip(&w.per_model)
    {
        assert!(
            (wf - uf).abs() < 0.015,
            "model {name}: weighted failed frac {wf:.5} vs uniform {uf:.5}",
        );
    }

    // Weighted error day-probabilities (Table 1): the dominant kinds are
    // tight; rare kinds (a handful of events fleet-wide) get a loose
    // absolute band so sampling noise can't flake the test.
    for (i, (ur, wr)) in u.error_incidence.rates.iter().zip(&w.error_rates).enumerate() {
        for (m, (a, b)) in ur.iter().zip(wr).enumerate() {
            let tol = (a * 0.25).max(5e-5);
            assert!(
                (a - b).abs() < tol,
                "error kind {i} model {m}: weighted rate {b:.6} vs uniform {a:.6}",
            );
        }
    }
}

#[test]
fn importance_weighted_km_matches_uniform_curve() {
    let uniform = uniform_trace();
    let boosted = boosted_trace();
    let km_u = time_to_failure_km(&uniform);

    let mut durations = Vec::new();
    let mut weights = Vec::new();
    for d in &boosted.drives {
        let w = d.log_weight.exp();
        for p in operational_periods(d) {
            durations.push(match p.length_to_failure {
                Some(l) => Duration {
                    time: f64::from(l),
                    event: true,
                },
                None => Duration {
                    time: f64::from(d.max_age_days().saturating_sub(p.start_day)),
                    event: false,
                },
            });
            weights.push(w);
        }
    }
    let km_w = KaplanMeier::fit_weighted(&durations, &weights);

    // Anchor the weighted curve to the uniform one across the horizon.
    // Observed diffs on this seed are ≤ 0.006; the band leaves ~3× slack.
    for t in [30.0, 90.0, 365.0, 730.0, 1000.0] {
        let su = surv_at(&km_u, t);
        let sw = surv_at(&km_w, t);
        assert!(
            (su - sw).abs() < 0.02,
            "KM at t={t}: weighted {sw:.5} vs uniform {su:.5}",
        );
    }
}

#[test]
fn importance_weighted_auc_matches_uniform() {
    let uniform = uniform_trace();
    let boosted = boosted_trace();

    let (su, lu): (Vec<f64>, Vec<bool>) = uniform
        .drives
        .iter()
        .map(|d| (heuristic_score(d), d.ever_failed()))
        .unzip();
    let auc_u = roc_auc(&su, &lu);

    let mut sb = Vec::new();
    let mut lb = Vec::new();
    let mut wb = Vec::new();
    for d in &boosted.drives {
        sb.push(heuristic_score(d));
        lb.push(d.ever_failed());
        wb.push(d.log_weight.exp());
    }
    let auc_w = roc_auc_weighted(&sb, &lb, &wb);
    let auc_raw = roc_auc(&sb, &lb);

    // On this seed: uniform 0.544, weighted 0.548, raw (unweighted on the
    // boosted fleet) 0.502 — the weights both recover the population AUC
    // and visibly out-correct ignoring them.
    assert!(
        (auc_w - auc_u).abs() < 0.03,
        "weighted AUC {auc_w:.4} vs uniform {auc_u:.4}",
    );
    assert!(
        (auc_w - auc_u).abs() < (auc_raw - auc_u).abs(),
        "weighting did not improve on the raw boosted AUC \
         (weighted {auc_w:.4}, raw {auc_raw:.4}, uniform {auc_u:.4})",
    );
}

#[test]
fn weighted_archives_roundtrip_byte_exactly_under_fuzz() {
    // Codec round-trip fuzz over the weight column: random small
    // importance-sampled fleets (random seed, size, boost) must decode to
    // bit-identical log-weights and re-encode to the identical archive.
    for_each_case("weighted_archive_roundtrip", 16, |g| {
        let cfg = SimConfig {
            drives_per_model: g.u32_in(2, 12),
            horizon_days: g.u32_in(30, 400),
            seed: g.u64(),
            ..SimConfig::default()
        };
        let boost = g.f64_in(1.0, 12.0);
        let trace = FleetGen::new(&cfg)
            .sampling(Sampling::Importance { boost })
            .trace();
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).expect("weighted archive decodes");
        assert_eq!(back.drives.len(), trace.drives.len());
        for (a, b) in back.drives.iter().zip(&trace.drives) {
            assert_eq!(
                a.log_weight.to_bits(),
                b.log_weight.to_bits(),
                "weight bits changed across the codec"
            );
        }
        assert_eq!(back, trace);
        assert_eq!(encode_trace(&back), bytes, "re-encode diverged");
    });
}
