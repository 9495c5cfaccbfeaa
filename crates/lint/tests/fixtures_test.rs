//! Per-rule fixture tests: each rule family is demonstrated by a
//! violating fixture, a clean rewrite, and (where the escape hatch makes
//! sense) an allow-honored variant. Fixtures live in `tests/fixtures/`
//! and are linted as strings — they are never compiled and never scanned
//! by the workspace walker (which only visits `crates/*/src`).

use ssd_lint::{lint_manifest_str, lint_source_str, Diagnostic, RuleId};

/// Lints a fixture as if it were library source of a scoped crate.
fn lint_scoped(src: &str) -> Vec<Diagnostic> {
    lint_source_str("crates/core/src/fixture.rs", src, &RuleId::ALL)
}

/// Lints a fixture as if it were a crate root.
fn lint_root(src: &str) -> Vec<Diagnostic> {
    lint_source_str("crates/core/src/lib.rs", src, &RuleId::ALL)
}

fn rules_fired(diags: &[Diagnostic]) -> Vec<RuleId> {
    let mut rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn test_regions_are_exempt() {
    let diags = lint_scoped(include_str!("fixtures/test_region.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_determinism_fixture() {
    let bad = lint_scoped(include_str!("fixtures/float_determinism_bad.rs"));
    // partial_cmp, == 0.5, != 0.1 — plus the unwrap on partial_cmp's Option.
    assert!(
        bad.iter().filter(|d| d.rule == RuleId::FloatDeterminism).count() == 3,
        "{bad:?}"
    );

    let clean = lint_scoped(include_str!("fixtures/float_determinism_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");

    let allowed = lint_scoped(include_str!("fixtures/float_determinism_allowed.rs"));
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn nondeterminism_fixture() {
    let bad = lint_scoped(include_str!("fixtures/nondeterminism_bad.rs"));
    let fired: Vec<&Diagnostic> =
        bad.iter().filter(|d| d.rule == RuleId::Nondeterminism).collect();
    // HashMap ×3 (use + two mentions), HashSet ×3, SystemTime::now, Instant::now.
    assert!(fired.len() >= 4, "{fired:?}");
    assert!(fired.iter().any(|d| d.message.contains("HashMap")));
    assert!(fired.iter().any(|d| d.message.contains("SystemTime::now")));

    let clean = lint_scoped(include_str!("fixtures/nondeterminism_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");

    let allowed = lint_scoped(include_str!("fixtures/nondeterminism_allowed.rs"));
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn unsafe_gate_fixture() {
    let bad = lint_root(include_str!("fixtures/unsafe_gate_bad.rs"));
    assert_eq!(rules_fired(&bad), vec![RuleId::UnsafeGate], "{bad:?}");

    let clean = lint_root(include_str!("fixtures/unsafe_gate_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");

    // The gate applies to crate roots only: a module file without the
    // attribute is fine.
    let module = lint_scoped(include_str!("fixtures/unsafe_gate_bad.rs"));
    assert!(module.is_empty(), "{module:?}");
}

#[test]
fn allow_grammar_fixture() {
    let diags = lint_scoped(include_str!("fixtures/allow_grammar_bad.rs"));
    let fired: Vec<&Diagnostic> =
        diags.iter().filter(|d| d.rule == RuleId::AllowGrammar).collect();
    // Missing reason, unknown rule, missing parens, and a rule that
    // moved to a compiler lint.
    assert_eq!(fired.len(), 4, "{fired:?}");
    assert!(fired.iter().any(|d| d.message.contains("unknown rule `no-such-rule`")));
    assert!(fired.iter().any(|d| d.message.contains("unknown rule `lossy-cast`")));
    assert!(fired.iter().any(|d| d.message.contains("malformed")));
}

#[test]
fn hermeticity_fixture() {
    let bad = lint_manifest_str(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/hermeticity_bad.toml"),
        &RuleId::ALL,
    );
    let fired: Vec<&Diagnostic> =
        bad.iter().filter(|d| d.rule == RuleId::Hermeticity).collect();
    // serde (banned + non-path), left-pad (non-path), criterion dotted
    // table (banned + non-path).
    assert!(fired.len() >= 4, "{fired:?}");
    assert!(fired.iter().any(|d| d.message.contains("banned external crate `serde`")));
    assert!(fired.iter().any(|d| d.message.contains("left-pad")));
    assert!(fired.iter().any(|d| d.message.contains("criterion")));

    let clean = lint_manifest_str(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/hermeticity_clean.toml"),
        &RuleId::ALL,
    );
    assert!(clean.is_empty(), "{clean:?}");

    let allowed = lint_manifest_str(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/hermeticity_allowed.toml"),
        &RuleId::ALL,
    );
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn diagnostics_format_as_path_line_rule() {
    let diags = lint_root(include_str!("fixtures/unsafe_gate_bad.rs"));
    let text = diags[0].to_string();
    assert_eq!(
        text,
        "crates/core/src/lib.rs:1: [unsafe-gate] crate root is missing `#![forbid(unsafe_code)]`"
    );
}

#[test]
fn out_of_scope_paths_are_ignored() {
    let bad = include_str!("fixtures/nondeterminism_bad.rs");
    // bench/testkit are exempt crates; tests and benches are exempt roles.
    for path in [
        "crates/bench/src/lib.rs",
        "crates/testkit/src/fixture.rs",
        "crates/core/tests/fixture.rs",
        "crates/core/benches/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = lint_source_str(path, bad, &RuleId::ALL);
        let fired: Vec<&Diagnostic> =
            diags.iter().filter(|d| d.rule == RuleId::Nondeterminism).collect();
        assert!(fired.is_empty(), "{path}: {fired:?}");
    }
}

#[test]
fn rng_discipline_fixture() {
    let bad = lint_scoped(include_str!("fixtures/rng_discipline_bad.rs"));
    let fired: Vec<&Diagnostic> =
        bad.iter().filter(|d| d.rule == RuleId::RngDiscipline).collect();
    assert_eq!(fired.len(), 1, "{bad:?}");
    assert!(fired[0].message.contains("for_stream"), "{fired:?}");

    let clean = lint_scoped(include_str!("fixtures/rng_discipline_clean.rs"));
    assert!(clean.is_empty(), "{clean:?}");

    let allowed = lint_scoped(include_str!("fixtures/rng_discipline_allowed.rs"));
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn rng_discipline_is_legitimate_in_stats() {
    // `crates/stats` owns the substream derivation, so the raw
    // constructor is allowed there without any directive.
    let diags = lint_source_str(
        "crates/stats/src/fixture.rs",
        include_str!("fixtures/rng_discipline_bad.rs"),
        &RuleId::ALL,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

/// Assembles a fixture file set rooted like real workspace paths, so the
/// symbol graph sees a surface file plus a consumer.
fn file_set(surface: &str, consumer: &str) -> Vec<(String, String)> {
    vec![
        ("crates/core/src/fixture.rs".to_string(), surface.to_string()),
        ("tests/fixture_consumer.rs".to_string(), consumer.to_string()),
    ]
}

#[test]
fn dead_pub_fixture() {
    use ssd_lint::lint_file_set;

    let consumer = include_str!("fixtures/dead_pub_consumer.rs");
    let bad = lint_file_set(
        &file_set(include_str!("fixtures/dead_pub_lib.rs"), consumer),
        &[RuleId::DeadPub],
    );
    // `used_entry` is named by the consumer; `unused_entry` is not.
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, RuleId::DeadPub);
    assert!(bad[0].message.contains("unused_entry"), "{bad:?}");

    let allowed = lint_file_set(
        &file_set(include_str!("fixtures/dead_pub_allowed.rs"), consumer),
        &[RuleId::DeadPub],
    );
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn dead_pub_without_consumer_flags_both() {
    use ssd_lint::lint_file_set;

    let files = vec![(
        "crates/core/src/fixture.rs".to_string(),
        include_str!("fixtures/dead_pub_lib.rs").to_string(),
    )];
    let diags = lint_file_set(&files, &[RuleId::DeadPub]);
    assert_eq!(diags.len(), 2, "{diags:?}");
}
