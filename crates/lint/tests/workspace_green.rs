//! Meta-tests: the workspace itself lints clean, and every crate root
//! carries the compiler gates. Together they are the standing gate — a
//! new hash map, wall-clock read, raw `SplitMix64::new`, non-path
//! dependency or missing unsafe gate in scoped library code turns the
//! first red, and a crate root that drops a `deny` (so `unwrap`, `as` or
//! an undocumented `pub` item would slip past clippy) turns the second.

use ssd_lint::{lint_workspace, RuleId, SCOPED_CRATES};
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let diags = lint_workspace(workspace_root(), &RuleId::ALL).expect("lint walk");
    assert!(
        diags.is_empty(),
        "ssd-lint found {} violation(s):\n{}",
        diags.len(),
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn single_rule_subsets_are_clean_too() {
    for rule in RuleId::ALL {
        let diags = lint_workspace(workspace_root(), &[rule, RuleId::AllowGrammar])
            .expect("lint walk");
        assert!(diags.is_empty(), "[{}] {diags:?}", rule.name());
    }
}

/// Lints every scoped library root denies everywhere: each public item
/// documented, and each suppression a reasoned `#[expect]`, never an
/// `#[allow]`.
const ALWAYS: &[&str] = &[
    "missing_docs",
    "clippy::allow_attributes",
    "clippy::allow_attributes_without_reason",
];
/// Lints denied outside tests: panic-freedom, and no `pub` item hidden
/// in a private module where `missing_docs` cannot see it.
const OUTSIDE_TESTS: &[&str] = &[
    "unreachable_pub",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
];

/// The lints a crate root denies: `(everywhere, outside tests only)`,
/// read from its `#![deny(…)]` and `#![cfg_attr(not(test), deny(…))]`
/// attributes with whitespace removed, so rustfmt's line breaks do not
/// matter.
fn denied(path: &Path) -> (Vec<String>, Vec<String>) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let src: String = text.split_whitespace().collect();
    let lints = |open: &str| -> Vec<String> {
        src.split(open)
            .skip(1)
            .flat_map(|rest| rest.split(')').next().unwrap_or("").split(','))
            .filter(|l| !l.is_empty())
            .map(str::to_string)
            .collect()
    };
    (lints("#![deny("), lints("#![cfg_attr(not(test),deny("))
}

fn assert_denies(path: &Path, always: &[&str], outside_tests: &[&str]) {
    let (all, non_test) = denied(path);
    for lint in always {
        assert!(all.iter().any(|l| l == lint), "{} does not deny {lint}", path.display());
    }
    for lint in outside_tests {
        assert!(
            all.iter().chain(&non_test).any(|l| l == lint),
            "{} does not deny {lint} outside tests",
            path.display()
        );
    }
}

/// Every `.rs` file directly under `dir`, or nothing if it does not exist.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect()
}

#[test]
fn scoped_crate_roots_carry_the_compiler_gates() {
    let root = workspace_root();
    for krate in SCOPED_CRATES {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        assert_denies(&lib, ALWAYS, OUTSIDE_TESTS);
    }
    // Cast discipline in the numeric hot paths: every `as` is an error.
    for krate in ["sim", "ml"] {
        let lib = root.join("crates").join(krate).join("src/lib.rs");
        assert_denies(&lib, &[], &["clippy::as_conversions"]);
    }
    // The analyzer's own bin exports nothing, so `unreachable_pub` is moot.
    assert_denies(&root.join("crates/lint/src/main.rs"), ALWAYS, &OUTSIDE_TESTS[1..]);

    // Every other crate root, bins included, at least documents itself.
    let mut roots = vec![root.join("src/lib.rs")];
    roots.extend(rs_files(&root.join("src/bin")));
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    for dir in crates.map(|e| e.expect("dir entry").path()) {
        let src = dir.join("src");
        roots.extend(["lib.rs", "main.rs"].map(|f| src.join(f)).into_iter().filter(|p| p.is_file()));
        roots.extend(rs_files(&src.join("bin")));
    }
    assert!(roots.len() > SCOPED_CRATES.len(), "{roots:?}");
    for path in &roots {
        assert_denies(path, &["missing_docs"], &[]);
    }
}
