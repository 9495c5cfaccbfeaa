//! End-to-end smoke tests for the three binaries on a tiny fleet
//! (7 drives/model × 3 models ≈ 20 drives over 120 days). Each test drives
//! the compiled binary through `CARGO_BIN_EXE_*` the way a user would, then
//! checks the artifacts with the library entry points.

use ssd_types::{codec, json};
use std::path::PathBuf;
use std::process::Command;

const DRIVES_PER_MODEL: &str = "7";
const DAYS: &str = "120";
const SEED: &str = "99";

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssd_bin_smoke_{}_{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str]) -> std::process::Output {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn gen_trace(dir: &std::path::Path, format: &str) {
    run(
        env!("CARGO_BIN_EXE_ssdgen"),
        &[
            "--out",
            dir.to_str().unwrap(),
            "--drives",
            DRIVES_PER_MODEL,
            "--days",
            DAYS,
            "--seed",
            SEED,
            "--format",
            format,
        ],
    );
}

#[test]
fn ssdgen_bin_archive_decodes_and_validates() {
    let dir = scratch("gen_bin");
    gen_trace(&dir, "bin");
    let bytes = std::fs::read(dir.join("trace.ssdfs")).expect("read archive");
    let trace = codec::decode_trace(&bytes).expect("decode archive");
    trace.validate().expect("trace invariants");
    assert_eq!(trace.horizon_days, 120);
    assert_eq!(trace.n_drives(), 21, "7 drives for each of 3 models");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdgen_formats_agree_on_the_same_seed() {
    let bin_dir = scratch("gen_agree_bin");
    let json_dir = scratch("gen_agree_json");
    gen_trace(&bin_dir, "bin");
    gen_trace(&json_dir, "json");
    let bytes = std::fs::read(bin_dir.join("trace.ssdfs")).expect("read archive");
    let from_bin = codec::decode_trace(&bytes).expect("decode archive");
    let body = std::fs::read_to_string(json_dir.join("trace.json")).expect("read json");
    let from_json = codec::trace_from_json(&body).expect("parse json trace");
    assert_eq!(from_bin, from_json, "bin and json exports must carry the same trace");
    std::fs::remove_dir_all(&bin_dir).ok();
    std::fs::remove_dir_all(&json_dir).ok();
}

/// Runs `ssdgen` with `args` appended to `--out DIR`, asserts the typed
/// usage-error exit (code 2, no panic) and that nothing was generated,
/// and returns stderr.
fn ssdgen_usage_error(name: &str, args: &[&str]) -> String {
    let dir = scratch(name);
    let out = Command::new(env!("CARGO_BIN_EXE_ssdgen"))
        .arg("--out")
        .arg(&dir)
        .args(args)
        .output()
        .expect("spawn ssdgen");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "ssdgen {args:?} must be a usage error:\n{stderr}");
    assert!(stderr.starts_with("ssdgen: "), "usage error line expected:\n{stderr}");
    assert!(!dir.join("trace.ssdfs").exists(), "rejected run must write nothing");
    std::fs::remove_dir_all(&dir).ok();
    stderr
}

#[test]
fn ssdgen_rejects_fleets_beyond_the_drive_id_space() {
    // 3 × 2e9 wraps a u32: the run must stop before generating anything.
    let stderr = ssdgen_usage_error("gen_drives", &["--drives", "2000000000"]);
    assert!(stderr.contains("--drives 2000000000"), "{stderr}");
    assert!(stderr.contains("max 1431655765"), "{stderr}");
}

#[test]
fn ssdgen_rejects_horizons_beyond_the_maximum() {
    for args in [
        ["--years", "99999999"],
        ["--years", "101"],
        ["--days", "36501"],
        ["--days", "4294967295"],
    ] {
        let stderr = ssdgen_usage_error("gen_horizon", &args);
        assert!(stderr.contains("maximum of 36500 days"), "{args:?}: {stderr}");
    }
}

#[test]
fn ssdstat_reads_binary_archive_and_audits() {
    let dir = scratch("stat_bin");
    gen_trace(&dir, "bin");
    let trace_path = dir.join("trace.ssdfs");
    let out = run(
        env!("CARGO_BIN_EXE_ssdstat"),
        &["--trace", trace_path.to_str().unwrap(), "--audit"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace summary"), "missing summary:\n{stdout}");
    assert!(stdout.contains("drives:       21"), "wrong drive count:\n{stdout}");
    assert!(
        stdout.contains("paper observations hold on this trace"),
        "missing audit tail:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdstat_reads_csv_directory_with_horizon() {
    let dir = scratch("stat_csv");
    gen_trace(&dir, "csv");
    assert!(dir.join("reports.csv").is_file());
    assert!(dir.join("swaps.csv").is_file());
    let out = run(
        env!("CARGO_BIN_EXE_ssdstat"),
        &["--trace", dir.to_str().unwrap(), "--horizon", DAYS],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("horizon:      120 days"), "wrong horizon:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_runs_cheap_experiments_and_writes_parseable_json() {
    let dir = scratch("repro");
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &[
            "--scale",
            "test",
            "--seed",
            SEED,
            "--json",
            dir.to_str().unwrap(),
            "fig1",
            "tab3",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== fig1 ==="), "fig1 did not run:\n{stdout}");
    assert!(stdout.contains("=== tab3 ==="), "tab3 did not run:\n{stdout}");
    for id in ["fig1", "tab3"] {
        let body = std::fs::read_to_string(dir.join(format!("{id}.json")))
            .unwrap_or_else(|e| panic!("read {id}.json: {e}"));
        let value = json::parse(&body).unwrap_or_else(|e| panic!("parse {id}.json: {e}"));
        assert!(
            matches!(value, json::Value::Obj(_)),
            "{id}.json should be a JSON object"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_unknown_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "bogus"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "bogus scale must fail");
}

#[test]
fn repro_rejects_unknown_experiment_ids_before_generating() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "test", "tab3", "tab99"])
        .output()
        .expect("spawn repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains("repro: unknown experiment id: tab99"),
        "stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("generating fleet"),
        "generated first:\n{stderr}"
    );
}

#[test]
fn repro_reports_unwritable_json_paths_without_panicking() {
    let dir = scratch("repro_json_unwritable");
    // A directory under a regular file cannot be created.
    let file = dir.join("regular");
    std::fs::write(&file, b"x").unwrap();
    let under_file = file.join("sub");
    // A result file that is already a directory cannot be written.
    let taken = dir.join("taken");
    std::fs::create_dir_all(taken.join("tab3.json")).unwrap();
    for (json_dir, bad_path) in [
        (&under_file, under_file.clone()),
        (&taken, taken.join("tab3.json")),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "--scale",
                "test",
                "--json",
                json_dir.to_str().unwrap(),
                "tab3",
            ])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(
            last.starts_with("repro: ") && last.contains(bad_path.to_str().unwrap()),
            "stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_runs_experiments_from_an_archived_trace() {
    let dir = scratch("repro_trace");
    gen_trace(&dir, "bin");
    let trace_path = dir.join("trace.ssdfs");
    let out = run(
        env!("CARGO_BIN_EXE_repro"),
        &["--trace", trace_path.to_str().unwrap(), "--scale", "test", "tab3"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("=== tab3 ==="), "tab3 did not run:\n{stdout}");
    assert!(stderr.contains("loaded"), "should load, not simulate:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdstat_rejects_truncated_archive_with_nonzero_exit() {
    let dir = scratch("stat_truncated");
    gen_trace(&dir, "bin");
    let bytes = std::fs::read(dir.join("trace.ssdfs")).expect("read archive");
    let cut_path = dir.join("truncated.ssdfs");
    std::fs::write(&cut_path, &bytes[..bytes.len() / 2]).expect("write truncated");

    let out = Command::new(env!("CARGO_BIN_EXE_ssdstat"))
        .args(["--trace", cut_path.to_str().unwrap()])
        .output()
        .expect("spawn ssdstat");
    assert!(!out.status.success(), "truncated archive must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected end of input at byte"),
        "error should name the truncation offset:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdstat_rejects_corrupt_archive_with_nonzero_exit() {
    let dir = scratch("stat_corrupt");
    std::fs::create_dir_all(&dir).ok();
    let bad_path = dir.join("corrupt.ssdfs");
    std::fs::write(&bad_path, b"this is not an archive at all").expect("write corrupt");

    let out = Command::new(env!("CARGO_BIN_EXE_ssdstat"))
        .args(["--trace", bad_path.to_str().unwrap()])
        .output()
        .expect("spawn ssdstat");
    assert!(!out.status.success(), "corrupt archive must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad magic"),
        "error should report the bad header:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_truncated_archive_with_nonzero_exit() {
    let dir = scratch("repro_truncated");
    gen_trace(&dir, "bin");
    let bytes = std::fs::read(dir.join("trace.ssdfs")).expect("read archive");
    let cut_path = dir.join("truncated.ssdfs");
    std::fs::write(&cut_path, &bytes[..bytes.len() - 7]).expect("write truncated");

    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--trace", cut_path.to_str().unwrap(), "tab3"])
        .output()
        .expect("spawn repro");
    assert!(!out.status.success(), "truncated archive must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("repro:"),
        "error should be reported with the bin name:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_reports_fleets_too_small_to_cross_validate_with_typed_errors() {
    // 3 drives per model over 60 days: too few drives report to fill five
    // grouped folds, and no partition holds a failure.
    let dir = scratch("repro_too_small");
    run(
        env!("CARGO_BIN_EXE_ssdgen"),
        &["--out", dir.to_str().unwrap(), "--drives", "3", "--days", "60", "--seed", "1"],
    );
    let trace = dir.join("trace.ssdfs");
    for id in ["tab6", "fig12", "fig13", "tab7", "fig14", "fig15", "fig16", "obs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--trace", trace.to_str().unwrap(), id])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{id} must be a runtime error:\n{stderr}");
        let last = stderr.lines().last().unwrap_or("");
        assert!(
            last.starts_with(&format!("repro: {id}: "))
                && (last.contains("distinct drives") || last.contains("both classes")),
            "{id} should name the experiment and the cause:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_reading_bin_rejects_a_declared_horizon_past_the_maximum() {
    let dir = scratch("huge_horizon");
    // Magic, varint horizon 4,000,000,000, varint 0 drives.
    let bytes = codec::encode_trace(&ssd_types::FleetTrace::new(4_000_000_000));
    assert_eq!(bytes.len(), 14);
    let path = dir.join("huge.ssdfs");
    std::fs::write(&path, &bytes).expect("write archive");
    let trace = path.to_str().unwrap();
    let runs: [(&str, &str, Vec<&str>); 4] = [
        ("ssdstat", env!("CARGO_BIN_EXE_ssdstat"), vec!["--trace", trace]),
        ("ssdpredict", env!("CARGO_BIN_EXE_ssdpredict"), vec!["--trace", trace]),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), vec!["--trace", trace]),
        ("repro", env!("CARGO_BIN_EXE_repro"), vec!["--trace", trace, "tab3"]),
    ];
    for (name, bin, args) in runs {
        let out = Command::new(bin).args(&args).output().expect("spawn binary");
        assert_eq!(out.status.code(), Some(1), "{name} must exit 1, not abort");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{name}:"))
                && stderr.contains("declared horizon of 4000000000 days exceeds the maximum of 36500 days"),
            "{name} must report the typed horizon error:\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdstat_reports_missing_file_path_in_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ssdstat"))
        .args(["--trace", "/no/such/trace.ssdfs"])
        .output()
        .expect("spawn ssdstat");
    assert!(!out.status.success(), "missing file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/no/such/trace.ssdfs"),
        "error should name the path:\n{stderr}"
    );
}

/// ssdpredict needs a trace with actual failures to train on; the shared
/// 7-drive/120-day fleet has none, so these tests generate a larger one.
fn gen_predict_trace(dir: &std::path::Path) {
    run(
        env!("CARGO_BIN_EXE_ssdgen"),
        &[
            "--out",
            dir.to_str().unwrap(),
            "--drives",
            "40",
            "--days",
            "800",
            "--seed",
            "11",
            "--format",
            "bin",
        ],
    );
}

#[test]
fn ssdpredict_ranks_fleet_from_binary_archive() {
    let dir = scratch("predict_bin");
    gen_predict_trace(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_ssdpredict"),
        &[
            "--trace",
            dir.join("trace.ssdfs").to_str().unwrap(),
            "--lookahead",
            "14",
            "--sample-rate",
            "0.5",
            "--seed",
            "7",
            "--trees",
            "10",
            "--top",
            "5",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("trained Flat Random Forest"), "missing train line:\n{stderr}");
    assert!(stdout.contains("fleet risk (swap within 14 days)"), "missing header:\n{stdout}");
    assert!(stdout.contains("top 5 drives by current-day risk"), "missing ranking:\n{stdout}");
    // The header block reports every drive in the archive, then the
    // drives that reported telemetry and so have a current day to score.
    assert!(stdout.contains("  drives:      120\n"), "wrong fleet size:\n{stdout}");
    assert!(stdout.contains("  scored drives: 66\n"), "wrong scored count:\n{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn training_flags_are_usage_errors_before_the_trace_is_opened() {
    // The trace does not exist: a bin that opened it before checking its
    // flags would exit 1 with a read error instead of 2.
    let trace = "/no/such/trace.ssdfs";
    let cases: [(&str, &str, &[&str], &str); 10] = [
        ("ssdpredict", env!("CARGO_BIN_EXE_ssdpredict"), &["--trees", "0"], "--trees"),
        ("ssdpredict", env!("CARGO_BIN_EXE_ssdpredict"), &["--sample-rate", "0"], "--sample-rate"),
        ("ssdpredict", env!("CARGO_BIN_EXE_ssdpredict"), &["--lookahead", "0"], "--lookahead"),
        // The forest is ssdpredict's only scorer, so it has no --model flag.
        ("ssdpredict", env!("CARGO_BIN_EXE_ssdpredict"), &["--model", "forest"], "unknown argument --model"),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), &["--trees", "0"], "--trees"),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), &["--sample-rate", "0"], "--sample-rate"),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), &["--lookahead", "0"], "--lookahead"),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), &["--model", "bogus"], "unknown model 'bogus'"),
        ("ssdserve", env!("CARGO_BIN_EXE_ssdserve"), &["--model", "gbdt"], "unknown model 'gbdt' (use forest|none)"),
        (
            "ssdserve",
            env!("CARGO_BIN_EXE_ssdserve"),
            &["--model", "none", "--sample-rate", "2"],
            "--sample-rate",
        ),
    ];
    for (name, bin, flags, expect) in cases {
        let out = Command::new(bin)
            .args(["--trace", trace])
            .args(flags)
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {flags:?} must be a usage error:\n{stderr}");
        assert!(
            stderr.starts_with(&format!("{name}: ")) && stderr.contains(expect),
            "{name} {flags:?} must name the bad flag ({expect}):\n{stderr}"
        );
    }
}

#[test]
fn ssdpredict_and_ssdserve_rank_the_same_drives() {
    let dir = scratch("rank_agreement");
    gen_predict_trace(&dir);
    let trace = dir.join("trace.ssdfs");
    let flags = ["--trees", "10", "--seed", "7", "--lookahead", "14", "--sample-rate", "0.5"];

    let mut args = vec!["--trace", trace.to_str().unwrap(), "--top", "5"];
    args.extend(flags);
    let out = run(env!("CARGO_BIN_EXE_ssdpredict"), &args);
    // Ranking lines read "  drive {id}  model {model}  score {score:.4}".
    let predicted: Vec<(u64, String, String)> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| {
            let w: Vec<&str> = line.split_whitespace().collect();
            match w.as_slice() {
                ["drive", id, "model", model, "score", score] => {
                    Some((id.parse().unwrap(), model.to_string(), score.to_string()))
                }
                _ => None,
            }
        })
        .collect();
    assert_eq!(predicted.len(), 5, "ssdpredict must list 5 drives");

    let out = run_ssdserve(&trace, &flags, &serve_frame(br#"{"q":"topk","k":5}"#));
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let frames = serve_split(&out.stdout);
    let top = json::parse(std::str::from_utf8(&frames[0]).unwrap()).expect("topk json");
    let Some(json::Value::Arr(drives)) = top.get("drives") else {
        panic!("topk answer lists drives")
    };
    let served: Vec<(u64, String, String)> = drives
        .iter()
        .map(|d| {
            (
                d.get("id").and_then(json::Value::as_u64).expect("id"),
                d.get("model").and_then(json::Value::as_str).expect("model").to_string(),
                format!("{:.4}", d.get("score").and_then(json::Value::as_f64).expect("score")),
            )
        })
        .collect();
    assert_eq!(predicted, served, "both bins must rank the same drives in the same order");
    std::fs::remove_dir_all(&dir).ok();
}

/// The number after `label` on the first stdout line that starts with it.
fn count_after(stdout: &[u8], label: &str) -> u64 {
    let text = String::from_utf8_lossy(stdout);
    text.lines()
        .find_map(|l| l.trim_start().strip_prefix(label))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or_else(|| panic!("no `{label}` count in:\n{text}"))
}

#[test]
fn every_bin_reports_the_same_fleet_size() {
    let dir = scratch("fleet_size");
    gen_predict_trace(&dir);
    let trace = dir.join("trace.ssdfs");
    let path = trace.to_str().unwrap();
    let flags = ["--trees", "10", "--seed", "7", "--lookahead", "14", "--sample-rate", "0.5"];

    let stat = run(env!("CARGO_BIN_EXE_ssdstat"), &["--trace", path]);
    let mut args = vec!["--trace", path];
    args.extend(flags);
    let predict = run(env!("CARGO_BIN_EXE_ssdpredict"), &args);
    let served = run_ssdserve(&trace, &flags, &serve_frame(br#"{"q":"info"}"#));
    assert!(served.status.success(), "stderr:\n{}", String::from_utf8_lossy(&served.stderr));
    let info = json::parse(std::str::from_utf8(&serve_split(&served.stdout)[0]).unwrap())
        .expect("info json");

    let drives = count_after(&stat.stdout, "drives:");
    assert_eq!(count_after(&predict.stdout, "drives:"), drives, "ssdpredict vs ssdstat");
    assert_eq!(info.get("drives").and_then(json::Value::as_u64), Some(drives), "ssdserve vs ssdstat");
    assert!(count_after(&predict.stdout, "scored drives:") <= drives);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdpredict_reports_single_class_traces_with_typed_error() {
    // The shared tiny fleet produces no swaps, so training must fail
    // with the class-balance diagnostic, not a panic or a zero ranking.
    let dir = scratch("predict_single_class");
    gen_trace(&dir, "bin");
    let out = Command::new(env!("CARGO_BIN_EXE_ssdpredict"))
        .args(["--trace", dir.join("trace.ssdfs").to_str().unwrap()])
        .output()
        .expect("spawn ssdpredict");
    assert!(!out.status.success(), "single-class trace must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ssdpredict:") && stderr.contains("needs both classes"),
        "error should explain the class imbalance:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdpredict_rejects_truncated_archive_with_nonzero_exit() {
    let dir = scratch("predict_truncated");
    gen_trace(&dir, "bin");
    let bytes = std::fs::read(dir.join("trace.ssdfs")).expect("read archive");
    let cut_path = dir.join("truncated.ssdfs");
    std::fs::write(&cut_path, &bytes[..bytes.len() * 2 / 3]).expect("write truncated");

    let out = Command::new(env!("CARGO_BIN_EXE_ssdpredict"))
        .args(["--trace", cut_path.to_str().unwrap()])
        .output()
        .expect("spawn ssdpredict");
    assert!(!out.status.success(), "truncated archive must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ssdpredict:") && stderr.contains("unexpected end of input"),
        "error should name the truncation:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdpredict_rejects_corrupt_archive_with_nonzero_exit() {
    let dir = scratch("predict_corrupt");
    std::fs::create_dir_all(&dir).ok();
    let bad_path = dir.join("corrupt.ssdfs");
    std::fs::write(&bad_path, b"definitely not a trace archive").expect("write corrupt");

    let out = Command::new(env!("CARGO_BIN_EXE_ssdpredict"))
        .args(["--trace", bad_path.to_str().unwrap()])
        .output()
        .expect("spawn ssdpredict");
    assert!(!out.status.success(), "corrupt archive must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad magic"), "error should report the bad header:\n{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdpredict_never_panics_on_byte_mutated_archives() {
    // Flip bytes at spread-out offsets: whatever the decoder makes of the
    // damage, the process must exit via the typed error path (or clean
    // success if the flip landed somewhere inert) — never a panic, never
    // a signal.
    let dir = scratch("predict_mutated");
    gen_trace(&dir, "bin");
    let bytes = std::fs::read(dir.join("trace.ssdfs")).expect("read archive");
    for (i, stride) in [(1usize, 97usize), (2, 251), (3, 509), (4, 1021)] {
        let mut mutated = bytes.clone();
        let mut at = 8 + i; // past the magic so the decoder engages
        while at < mutated.len() {
            mutated[at] ^= 0x55;
            at += stride;
        }
        let mut_path = dir.join(format!("mutated_{i}.ssdfs"));
        std::fs::write(&mut_path, &mutated).expect("write mutated");
        let out = Command::new(env!("CARGO_BIN_EXE_ssdpredict"))
            .args(["--trace", mut_path.to_str().unwrap()])
            .output()
            .expect("spawn ssdpredict");
        assert!(
            out.status.code().is_some(),
            "mutation {i}: killed by signal instead of exiting"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "mutation {i} panicked:\n{stderr}");
        if !out.status.success() {
            assert!(
                stderr.contains("ssdpredict:"),
                "mutation {i}: failure must go through the typed error path:\n{stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds one length-prefixed request frame.
fn serve_frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

/// Splits a response stream back into frame bodies.
fn serve_split(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        frames.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    assert!(bytes.is_empty(), "trailing partial frame");
    frames
}

fn run_ssdserve(trace: &std::path::Path, extra: &[&str], input: &[u8]) -> std::process::Output {
    use std::io::Write;
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ssdserve"));
    cmd.args(["--trace", trace.to_str().unwrap()])
        .args(extra)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    let mut child = cmd.spawn().expect("spawn ssdserve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input)
        .expect("write requests");
    child.wait_with_output().expect("collect ssdserve output")
}

#[test]
fn ssdserve_answers_queries_over_stdio() {
    let dir = scratch("serve_stdio");
    gen_predict_trace(&dir);
    let mut input = Vec::new();
    input.extend(serve_frame(br#"{"q":"info"}"#));
    input.extend(serve_frame(br#"[{"q":"summary"},{"q":"topk","k":3}]"#));
    let out = run_ssdserve(
        &dir.join("trace.ssdfs"),
        &["--shards", "3", "--lookahead", "14", "--sample-rate", "0.5", "--trees", "8", "--seed", "7"],
        &input,
    );
    assert!(out.status.success(), "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("ready:"), "missing ready line:\n{stderr}");
    let frames = serve_split(&out.stdout);
    assert_eq!(frames.len(), 2, "one response frame per request frame");
    let info = json::parse(std::str::from_utf8(&frames[0]).unwrap()).expect("info json");
    assert_eq!(
        info.get("shards").and_then(json::Value::as_u64),
        Some(3),
        "info must echo the shard count"
    );
    let batch = json::parse(std::str::from_utf8(&frames[1]).unwrap()).expect("batch json");
    let json::Value::Arr(items) = batch else {
        panic!("array frame must get an array response")
    };
    assert_eq!(items.len(), 2);
    assert!(items[0].get("drives").is_some(), "summary answer");
    assert!(items[1].get("drives").is_some(), "topk answer");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdserve_rejects_malformed_frames_with_typed_error_and_nonzero_exit() {
    let dir = scratch("serve_malformed");
    gen_trace(&dir, "bin");
    let mut input = serve_frame(br#"{"q":"info"}"#);
    input.extend(serve_frame(b"{this is not json"));
    let out = run_ssdserve(&dir.join("trace.ssdfs"), &["--model", "none"], &input);
    assert!(!out.status.success(), "malformed frame must exit nonzero");
    let frames = serve_split(&out.stdout);
    assert_eq!(frames.len(), 2, "info answer then error frame");
    let err = json::parse(std::str::from_utf8(&frames[1]).unwrap()).expect("error json");
    assert_eq!(
        err.get("err")
            .and_then(|e| e.get("kind"))
            .and_then(json::Value::as_str),
        Some("invalid-json")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssdserve_serves_concurrent_unix_socket_clients() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let dir = scratch("serve_socket");
    gen_trace(&dir, "bin");
    let sock = dir.join("ssdserve.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_ssdserve"))
        .args([
            "--trace",
            dir.join("trace.ssdfs").to_str().unwrap(),
            "--model",
            "none",
            "--shards",
            "2",
            "--socket",
            sock.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn ssdserve");
    // Wait for the socket to appear (startup trains nothing here).
    let mut waited = 0;
    while !sock.exists() && waited < 100 {
        std::thread::sleep(std::time::Duration::from_millis(100));
        waited += 1;
    }
    assert!(sock.exists(), "socket never appeared");

    let ask = |body: &[u8]| -> Vec<u8> {
        let mut stream = UnixStream::connect(&sock).expect("connect");
        stream.write_all(&serve_frame(body)).expect("send");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("receive");
        let frames = serve_split(&reply);
        assert_eq!(frames.len(), 1);
        frames.into_iter().next().unwrap()
    };

    let solo = ask(br#"{"q":"summary"}"#);
    let mut handles = Vec::new();
    for _ in 0..4 {
        let sockpath = sock.clone();
        handles.push(std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&sockpath).expect("connect");
            stream
                .write_all(&serve_frame(br#"{"q":"summary"}"#))
                .expect("send");
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).expect("receive");
            serve_split(&reply).into_iter().next().unwrap()
        }));
    }
    for h in handles {
        assert_eq!(
            h.join().expect("client"),
            solo,
            "concurrent socket clients must get solo-identical bytes"
        );
    }
    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
