//! Meta-tests: the workspace itself lints clean, and every crate carries
//! the compiler gates. Together they are the standing gate — a new
//! `.partial_cmp()` or dead `pub` item turns the first red, and a crate
//! root, manifest or `clippy.toml` that drops a gate (so `unwrap`, `as`,
//! an undocumented `pub` item, a hash map, a wall-clock read, a raw
//! `SplitMix64::new` or `unsafe` would slip past rustc and clippy) turns
//! the second.

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
/// Lints denied outside tests: panic-freedom, no `pub` item hidden in a
/// private module where `missing_docs` cannot see it, and none of the
/// types and methods `clippy.toml` disallows.
const OUTSIDE_TESTS: &[&str] = &[
    "unreachable_pub",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
];

/// What `clippy.toml` must disallow: hash-ordered collections, wall-clock
/// reads and the raw seed constructor.
const DISALLOWED_PATHS: &[&str] = &[
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::time::Instant::now",
    "std::time::SystemTime::now",
    "ssd_stats::rng::SplitMix64::new",
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

/// The lines of table `[header]` in a TOML file, whitespace and
/// comments removed.
fn table(path: &Path, header: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let lines = text.lines().map(|l| {
        l.split('#').next().unwrap_or("").split_whitespace().collect::<String>()
    });
    lines
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .collect()
}

fn assert_table_has(path: &Path, header: &str, entry: &str) {
    assert!(
        table(path, header).iter().any(|l| l == entry),
        "{} lacks `{entry}` under {header}",
        path.display()
    );
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

    // `unsafe` is denied everywhere; the determinism lints are allowed
    // by default and denied above, with their paths in `clippy.toml`.
    let manifest = root.join("Cargo.toml");
    assert_table_has(&manifest, "[workspace.lints.rust]", "unsafe_code=\"deny\"");
    for lint in ["disallowed_types", "disallowed_methods"] {
        assert_table_has(&manifest, "[workspace.lints.clippy]", &format!("{lint}=\"allow\""));
    }
    let clippy = std::fs::read_to_string(root.join("clippy.toml")).expect("read clippy.toml");
    for path in DISALLOWED_PATHS {
        assert!(clippy.contains(&format!("path = \"{path}\"")), "clippy.toml lacks {path}");
    }

    // Every other crate root, bins included, at least documents itself,
    // and every member manifest inherits the workspace lints.
    assert_table_has(&manifest, "[lints]", "workspace=true");
    let mut roots = vec![root.join("src/lib.rs")];
    roots.extend(rs_files(&root.join("src/bin")));
    let crates = std::fs::read_dir(root.join("crates")).expect("read crates/");
    for dir in crates.map(|e| e.expect("dir entry").path()) {
        assert_table_has(&dir.join("Cargo.toml"), "[lints]", "workspace=true");
        let src = dir.join("src");
        roots.extend(["lib.rs", "main.rs"].map(|f| src.join(f)).into_iter().filter(|p| p.is_file()));
        roots.extend(rs_files(&src.join("bin")));
    }
    assert!(roots.len() > SCOPED_CRATES.len(), "{roots:?}");
    for path in &roots {
        assert_denies(path, &["missing_docs"], &[]);
    }
}
