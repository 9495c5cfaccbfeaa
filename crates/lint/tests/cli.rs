//! End-to-end tests of the `ssd-lint` binary: exit codes, rule
//! selection, and the `file:line: [rule]` output contract.

use std::path::Path;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssd-lint"))
}

fn workspace_root() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .display()
        .to_string()
}

#[test]
fn clean_workspace_exits_zero() {
    let out = bin()
        .args(["--root", &workspace_root()])
        .output()
        .expect("run ssd-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("clean"), "stdout: {stdout}");
}

#[test]
fn hermeticity_rule_alone_exits_zero() {
    // The thin replacement for the old tests/hermetic.rs: the dependency
    // graph must be entirely in-tree.
    let out = bin()
        .args(["--root", &workspace_root(), "--rule", "hermeticity"])
        .output()
        .expect("run ssd-lint");
    assert!(
        out.status.success(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_rules_names_every_rule() {
    let out = bin().arg("--list-rules").output().expect("run ssd-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in [
        "float-determinism",
        "nondeterminism",
        "hermeticity",
        "unsafe-gate",
        "rng-discipline",
        "dead-pub",
        "allow-grammar",
    ] {
        assert!(stdout.contains(name), "missing {name}: {stdout}");
    }
}

#[test]
fn non_workspace_root_exits_two() {
    // crates/lint has a Cargo.toml but no [workspace] table.
    let out = bin()
        .args(["--root", env!("CARGO_MANIFEST_DIR")])
        .output()
        .expect("run ssd-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn unknown_rule_exits_two() {
    let out = bin()
        .args(["--root", &workspace_root(), "--rule", "no-such-rule"])
        .output()
        .expect("run ssd-lint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn violations_exit_one_with_file_line_output() {
    // Point the tool at a synthetic workspace with one violation.
    let dir = std::env::temp_dir().join("ssd-lint-cli-fixture");
    let src = dir.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        dir.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write root manifest");
    std::fs::write(
        dir.join("crates/core").join("Cargo.toml"),
        "[package]\nname = \"ssd-core\"\n",
    )
    .expect("write crate manifest");
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f() -> std::collections::HashMap<u32, u32> {\n    std::collections::HashMap::new()\n}\n",
    )
    .expect("write lib.rs");

    let out = bin()
        .args(["--root", dir.to_str().expect("utf8 path")])
        .output()
        .expect("run ssd-lint");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/core/src/lib.rs:3: [nondeterminism]"),
        "stdout: {stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
