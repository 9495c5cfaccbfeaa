//! Property-based tests: simulator invariants must hold for arbitrary
//! seeds and fleet shapes, and emitted logs must always validate.

use ssd_sim::calibration::ModelParams;
use ssd_sim::dist::PiecewiseCdf;
use ssd_sim::{generate_drive_into, DriveGenOptions, FleetGen, Sampling, SimConfig};
use ssd_stats::SplitMix64;
use ssd_testkit::for_each_case;
use ssd_types::{DriveId, DriveLog, DriveModel};

/// One drive generated at default options from `rng`.
fn generate_drive(
    id: DriveId,
    model: DriveModel,
    params: &ModelParams,
    horizon: u32,
    rng: &mut SplitMix64,
) -> DriveLog {
    let mut log = DriveLog::new(id, model);
    generate_drive_into(params, horizon, &DriveGenOptions::default(), rng, &mut log);
    log
}

#[test]
fn any_generated_drive_log_validates() {
    for_each_case("any_generated_drive_log_validates", 32, |g| {
        let seed = g.u64();
        let model_idx = g.usize_in(0, 3);
        let horizon = g.u32_in(100, 2500);
        let model = DriveModel::from_index(model_idx);
        let params = ModelParams::for_model(model);
        let mut rng = SplitMix64::for_stream(seed, 0);
        let log = generate_drive(DriveId(0), model, &params, horizon, &mut rng);
        assert!(log.validate().is_ok(), "{:?}", log.validate());
        // All ages within the horizon.
        for r in &log.reports {
            assert!(r.age_days < horizon);
        }
        for s in &log.swaps {
            assert!(s.swap_day < horizon);
            if let Some(re) = s.reentry_day {
                assert!(re < horizon);
            }
        }
    });
}

#[test]
fn failure_day_precedes_swap_in_emitted_logs() {
    for_each_case("failure_day_precedes_swap_in_emitted_logs", 32, |g| {
        let seed = g.u64();
        let params = ModelParams::for_model(DriveModel::MlcB);
        let mut rng = SplitMix64::for_stream(seed, 1);
        let log = generate_drive(DriveId(1), DriveModel::MlcB, &params, 2190, &mut rng);
        for s in &log.swaps {
            // There must be no report on or after the swap day until the
            // re-entry day (the drive is physically absent).
            let until = s.reentry_day.unwrap_or(u32::MAX);
            assert!(
                !log.reports
                    .iter()
                    .any(|r| r.age_days >= s.swap_day && r.age_days < until),
                "report during repair window"
            );
        }
    });
}

#[test]
fn small_fleets_validate_and_are_deterministic() {
    for_each_case("small_fleets_validate_and_are_deterministic", 32, |g| {
        let cfg = SimConfig {
            drives_per_model: g.u32_in(1, 20),
            horizon_days: g.u32_in(200, 1500),
            seed: g.u64(),
            ..SimConfig::default()
        };
        let a = FleetGen::new(&cfg).trace();
        assert!(a.validate().is_ok());
        let b = FleetGen::new(&cfg).trace();
        assert_eq!(a, b);
    });
}

#[test]
fn importance_sampled_fleets_validate_with_finite_weights() {
    for_each_case(
        "importance_sampled_fleets_validate_with_finite_weights",
        16,
        |g| {
            let cfg = SimConfig {
                drives_per_model: g.u32_in(1, 15),
                horizon_days: g.u32_in(200, 1200),
                seed: g.u64(),
                ..SimConfig::default()
            };
            let boost = g.f64_in(1.0, 16.0);
            let trace = FleetGen::new(&cfg)
                .sampling(Sampling::Importance { boost })
                .trace();
            assert!(trace.validate().is_ok());
            for d in &trace.drives {
                assert!(d.log_weight.is_finite(), "non-finite weight");
            }
        },
    );
}

#[test]
fn piecewise_cdf_inverse_is_monotone_and_bounded() {
    for_each_case("piecewise_cdf_inverse_is_monotone_and_bounded", 32, |g| {
        let v1 = g.f64_in(1.0, 10.0);
        let v2 = g.f64_in(20.0, 100.0);
        let c1 = g.f64_in(0.05, 0.5);
        let us = g.vec(1, 49, |g| g.f64_unit());
        let cdf = PiecewiseCdf::new(vec![(v1, c1), (v2, 1.0)], true);
        let mut sorted = us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for u in sorted {
            let v = cdf.inverse(u);
            assert!(v >= v1 - 1e-12 && v <= v2 + 1e-12);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    });
}

#[test]
fn distributions_have_valid_support() {
    for_each_case("distributions_have_valid_support", 32, |g| {
        let mut rng = SplitMix64::new(g.u64());
        for _ in 0..200 {
            assert!(ssd_sim::dist::exponential(&mut rng, 0.1) >= 0.0);
            assert!(ssd_sim::dist::log_normal(&mut rng, 0.0, 1.0) > 0.0);
            let n = ssd_sim::dist::normal(&mut rng, 0.0, 1.0);
            assert!(n.is_finite());
        }
    });
}
