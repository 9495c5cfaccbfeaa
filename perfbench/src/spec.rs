//! The benchmark's contract: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! rendered from this table (`perfbench --write-manifest BENCHMARK.json`),
//! and a test pins that the committed file matches it.

use crate::workloads::serve_mix::{RATES, SERVE_TAIL};
use crate::Raw;
use ssd_types::json::{self, Value};

pub(crate) struct WorkloadSpec {
    pub(crate) name: &'static str,
    why: &'static str,
}

/// Every workload reports every metric of the manifest: the end-to-end
/// ones in [`end_to_end_specs`], and in a traced run the union of the
/// per-layer ones. `op_s` is the median wall time of one operation, and
/// each workload's `why` says what its operation is.
pub(crate) const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "archive_scan",
        why: "ssdgen then ssdstat, 6,000 drives x 6 years, op = generate + scan the archive: sim and codec do nearly all the work, no ML, no service",
    },
    WorkloadSpec {
        name: "predict_online",
        why: "ssdpredict on 1,500 drives x 6 years, op = archive to ranked list: one 30-tree forest fit dominates, so ml kernel work shows",
    },
    WorkloadSpec {
        name: "serve_mix",
        why: "", // rendered by `serve_why`, since it names the fixed rates
    },
    WorkloadSpec {
        name: "reproduce",
        why: "repro --scale test, op = the 22 experiment ids: resident analyses plus many small cross-validated fits",
    },
];

fn serve_why() -> String {
    format!(
        "ssdserve --socket, 2 shards, 2 connections, op = 200 mixed requests closed-loop: protocol, shard pool, coalescing; traced open loop at {}/{}/{} rps",
        RATES[0].1, RATES[1].1, RATES[2].1
    )
}

pub(crate) fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit, better, bound)` of every end-to-end metric.
fn end_to_end_specs() -> Vec<(String, &'static str, &'static str, f64)> {
    // Timings get the widest bound the contract allows: on the shared
    // 2-vCPU host they were defined on, host speed alone drifted by tens
    // of percent within an hour. Memory does not drift with host speed.
    [
        ("setup_s", "s", "lower", 0.25),
        ("op_s", "s", "lower", 0.25),
        ("peak_rss_mb", "MiB", "lower", 0.15),
    ]
    .into_iter()
    .map(|(n, u, b, bound)| (n.to_string(), u, b, bound))
    .collect()
}

/// Experiment ids `repro` runs at test scale, with the module each
/// belongs to.
pub(crate) const EXPERIMENTS: [(&str, &str); 22] = [
    ("characterize", "fig1"),
    ("characterize", "tab1"),
    ("characterize", "tab2"),
    ("lifecycle", "tab3"),
    ("lifecycle", "tab4"),
    ("lifecycle", "fig3"),
    ("lifecycle", "fig4"),
    ("lifecycle", "fig5"),
    ("lifecycle", "tab5"),
    ("aging", "fig6"),
    ("aging", "fig7"),
    ("aging", "fig8"),
    ("aging", "fig9"),
    ("errors_analysis", "fig10"),
    ("errors_analysis", "fig11"),
    ("predict", "tab6"),
    ("predict", "fig12"),
    ("predict", "fig13"),
    ("predict", "tab7"),
    ("predict", "fig14"),
    ("predict", "fig15"),
    ("predict", "fig16"),
];

/// Serve query kinds, in report order.
pub(crate) const KINDS: [&str; 5] = ["topk", "survival", "summary", "hazard", "batch"];

/// `(name, unit, better)` of every per-layer metric a workload reports.
fn per_layer_specs(workload: &str) -> Vec<(String, &'static str, &'static str)> {
    let s = |n: &str, u: &'static str, b: &'static str| (n.to_string(), u, b);
    let mut v = match workload {
        "archive_scan" => vec![
            s("sim.gen_s", "s", "lower"),
            s("io.write_s", "s", "lower"),
            s("io.write_bytes", "bytes", "lower"),
            s("sim.drive_days", "count", "higher"),
            s("sim.swaps", "count", "higher"),
            s("codec.decode_s", "s", "lower"),
            s("codec.decode_ns_per_drive_day", "ns", "lower"),
            s("types.validate_s", "s", "lower"),
            s("streaming.observe_s", "s", "lower"),
            s("streaming.finish_s", "s", "lower"),
        ],
        "predict_online" => vec![
            s("features.dataset_s", "s", "lower"),
            s("features.rows", "count", "higher"),
            s("features.positive_rows", "count", "higher"),
            s("ml.fit_s", "s", "lower"),
            s("ml.flatten_s", "s", "lower"),
            s("codec.decode_s", "s", "lower"),
            s("online.observe_s", "s", "lower"),
            s("online.score_s", "s", "lower"),
        ],
        "serve_mix" => {
            let mut v = Vec::new();
            for k in KINDS {
                v.push((format!("serve.respond_ms.{k}"), "ms", "lower"));
                v.push((format!("serve.handle_ms.{k}"), "ms", "lower"));
                v.push((format!("protocol.parse_us.{k}"), "us", "lower"));
                v.push((format!("shard.execute_ms.{k}"), "ms", "lower"));
            }
            v.push(s("client.max_rate_rps", "1/s", "higher"));
            for tail in ["p50", SERVE_TAIL] {
                for (level, _) in RATES {
                    v.push((format!("client.{tail}_ms.{level}"), "ms", "lower"));
                }
            }
            v.push(s("serve.passes_per_request", "ratio", "lower"));
            v.push(s("client.queue_ms", "ms", "lower"));
            v.push(s("client.lateness_ms", "ms", "lower"));
            v
        }
        "reproduce" => {
            let mut v = vec![s("sim.trace_s", "s", "lower")];
            for (module, id) in EXPERIMENTS {
                v.push((format!("{module}.{id}_s"), "s", "lower"));
            }
            v
        }
        _ => Vec::new(),
    };
    v.push(s("trace.wall_s", "s", "lower"));
    v.push(s("trace.remainder_s", "s", "lower"));
    v.push(s("trace.overhead_s", "s", "lower"));
    v
}

/// `(name, unit, better)` of every per-layer metric of any workload, in
/// first-seen order. A traced run reports all of them; a layer its
/// workload never calls reads 0.
pub(crate) fn per_layer_union() -> Vec<(String, &'static str, &'static str)> {
    let mut seen = std::collections::BTreeSet::new();
    WORKLOADS
        .iter()
        .flat_map(|w| per_layer_specs(w.name))
        .filter(|m| seen.insert(m.0.clone()))
        .collect()
}

/// Metric names a workload itself measures, in order, for the chosen
/// mode. The end-to-end ones come without `peak_rss_mb`, which the
/// driver loop adds.
pub(crate) fn metric_names(workload: &str, traced: bool) -> Vec<String> {
    if traced {
        return per_layer_specs(workload)
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
    }
    vec!["setup_s".into(), "op_s".into()]
}

/// Seconds one run measures.
const RUN_SECONDS: u64 = 10;

/// Renders `BENCHMARK.json`.
pub(crate) fn manifest() -> String {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::Str(s.to_string())).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let why = if w.why.is_empty() {
                serve_why()
            } else {
                w.why.to_string()
            };
            Value::Obj(vec![
                ("name".into(), Value::Str(w.name.into())),
                ("why".into(), Value::Str(why)),
            ])
        })
        .collect();
    let end_to_end = end_to_end_specs()
        .into_iter()
        .map(|(name, unit, better, bound)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name)),
                ("unit".into(), Value::Str(unit.into())),
                ("better".into(), Value::Str(better.into())),
                ("bound".into(), Value::Float(bound)),
            ])
        })
        .collect();
    let per_layer = per_layer_union()
        .into_iter()
        .map(|(name, unit, better)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(name)),
                ("unit".into(), Value::Str(unit.into())),
                ("better".into(), Value::Str(better.into())),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("command".into(), strs(&["bash", "perfbench/run.sh"])),
        ("paths".into(), strs(&["perfbench"])),
        ("run_seconds".into(), Value::UInt(RUN_SECONDS)),
        ("workloads".into(), Value::Arr(workloads)),
        ("end_to_end".into(), Value::Arr(end_to_end)),
        ("per_layer".into(), Value::Arr(per_layer)),
    ]);
    let mut out = json::to_string_pretty(&Raw(doc));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "re-render with `perfbench --write-manifest BENCHMARK.json`"
        );
    }

    #[test]
    fn every_reported_metric_is_declared_once() {
        let declared: Vec<String> = end_to_end_specs().into_iter().map(|m| m.0).collect();
        let mut unique = declared.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), declared.len());
        let mut measured = metric_names("archive_scan", false);
        measured.push("peak_rss_mb".into());
        assert_eq!(measured, declared);
        let union = per_layer_union();
        assert!(union.len() <= 128);
        for w in &WORKLOADS {
            for (name, unit, better) in per_layer_specs(w.name) {
                // A per-layer name shared by workloads keeps one unit.
                assert!(
                    union.contains(&(name.clone(), unit, better)),
                    "{} reports {name} in {unit} unlike another workload",
                    w.name
                );
            }
        }
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        for (name, unit, _, bound) in end_to_end_specs() {
            assert!(
                ok_name(&name) && unit.len() <= 16 && bound <= 0.25,
                "{name}"
            );
        }
        for w in &WORKLOADS {
            let why = if w.why.is_empty() {
                serve_why()
            } else {
                w.why.to_string()
            };
            assert!(
                ok_name(w.name) && why.len() <= 200 && !why.contains('\n'),
                "{}",
                w.name
            );
            for (name, unit, _) in per_layer_specs(w.name) {
                assert!(ok_name(&name) && unit.len() <= 16, "{name}");
            }
        }
    }
}
