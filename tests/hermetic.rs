//! Hermetic-build guard: every package in the lock files resolves in
//! tree. Cargo records a `source` key for each registry or git package
//! and never for a path package, so a lock entry with a `source` is an
//! external dependency, direct or transitive. The check reads both the
//! workspace lock and the benchmark's own `perfbench/Cargo.lock`.

use std::path::Path;

/// The `name` of every `[[package]]` in `lock` that records a `source`.
fn sourced_packages(lock: &str) -> Vec<String> {
    lock.split("[[package]]")
        .skip(1)
        .filter(|entry| {
            entry
                .lines()
                .any(|l| l.trim_start().starts_with("source ="))
        })
        .map(|entry| {
            entry
                .lines()
                .find_map(|l| l.trim_start().strip_prefix("name ="))
                .map_or("<unnamed>", |name| name.trim().trim_matches('"'))
                .to_string()
        })
        .collect()
}

#[test]
fn all_dependencies_resolve_in_tree() {
    // CARGO_MANIFEST_DIR of this package is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for lock in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let path = root.join(lock);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(text.contains("[[package]]"), "{lock} lists no packages");
        let external = sourced_packages(&text);
        assert!(
            external.is_empty(),
            "{lock} has non-path packages: {}",
            external.join(", ")
        );
    }
}

#[test]
fn a_registry_entry_is_reported() {
    let lock = "version = 4\n\n[[package]]\nname = \"ssd-types\"\nversion = \"0.1.0\"\n\n\
                [[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(sourced_packages(lock), ["serde"]);
}
