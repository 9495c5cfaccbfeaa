//! Per-rule fixture tests: each rule family is demonstrated by a
//! violating fixture, a clean rewrite or consumer, and an allow-honored
//! variant. Fixtures live in `tests/fixtures/` and are linted as strings
//! — they are never compiled, and the workspace walker skips them.

use ssd_lint::{lint_source_str, Diagnostic, RuleId};

/// Lints a fixture as if it were library source of a scoped crate.
fn lint_scoped(src: &str) -> Vec<Diagnostic> {
    lint_source_str("crates/core/src/fixture.rs", src, &RuleId::ALL)
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
fn diagnostics_format_as_path_line_rule() {
    let diags = lint_scoped(include_str!("fixtures/float_determinism_bad.rs"));
    let text = diags[0].to_string();
    assert_eq!(
        text,
        "crates/core/src/fixture.rs:5: [float-determinism] `.partial_cmp()` is not a total \
         order over floats; use `total_cmp` so NaN/-0.0 sort deterministically"
    );
}

#[test]
fn out_of_scope_paths_are_ignored() {
    let bad = include_str!("fixtures/float_determinism_bad.rs");
    // bench/testkit are exempt crates; tests and benches are exempt roles.
    for path in [
        "crates/bench/src/lib.rs",
        "crates/testkit/src/fixture.rs",
        "crates/core/tests/fixture.rs",
        "crates/core/benches/fixture.rs",
        "tests/fixture.rs",
    ] {
        let diags = lint_source_str(path, bad, &RuleId::ALL);
        assert!(diags.is_empty(), "{path}: {diags:?}");
    }
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
