//! `ssd-lint`: in-tree static analysis for the workspace invariants no
//! compiler lint expresses — float ordering and dead public items.
//!
//! The reproduction's core claims (byte-identical archives at every pool
//! size, bit-identical forest predictions) are properties of the *code*,
//! not just of today's test inputs. This crate makes the ones rustc and
//! clippy cannot see machine-checked: a zero-dependency, token-level
//! analyzer (own lexer — see [`lexer`]) walks the workspace and reports
//! rule violations as `file:line` diagnostics, gated in
//! `scripts/verify.sh`.
//!
//! Rule families (see [`rules::RuleId`]):
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `float-determinism` | library `src/` | no `.partial_cmp()`, no `==`/`!=` vs float literals |
//! | `dead-pub` | whole workspace | every fully-`pub` item referenced outside its file |
//! | `allow-grammar` | everywhere | `lint:allow` comments parse and name a real rule |
//!
//! "Library `src/`" means `crates/{core,lint,ml,parallel,sim,stats,types}/src`
//! outside `#[test]`/`#[cfg(test)]` items; tests, benches, examples, and
//! the bench/testkit substrate crates may compare floats freely.
//!
//! Everything else is a rustc or clippy lint (DESIGN §9), which sees
//! types where a token scanner only sees names: panic-freedom, cast
//! discipline and docs are denied at each crate root; hash collections,
//! wall-clock reads and raw `SplitMix64::new` are `clippy.toml`'s
//! disallowed types and methods, denied outside tests at the same roots;
//! `unsafe_code` is denied by the root `[workspace.lints]` table; and
//! `tests/hermetic.rs` checks that every locked package is a path crate.
//!
//! `float-determinism` is a per-file token scan. `dead-pub` is
//! *cross-file*: the engine parses every file's item
//! tree (see [`parser`]), assembles a workspace-wide
//! [`graph::SymbolGraph`] mapping each `pub` definition
//! ([`graph::DefSite`]) to the set of files mentioning its name — code
//! tokens and doc text alike — and reports definitions nothing else
//! references. Bins, tests, benches, and examples are scanned as use
//! sites, so an item kept alive only by a test is still alive.
//!
//! A violation that is genuinely intended carries an escape hatch on its
//! own line or the line above:
//!
//! ```text
//! // lint:allow(<rule>) -- <reason>
//! ```
//!
//! The reason is mandatory and the rule name must exist; anything else is
//! itself a diagnostic, so a stale or misspelled allow cannot silently
//! disable a gate. This crate is inside the lint's own scope: the
//! analyzer must pass itself.

#![deny(missing_docs, clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(unreachable_pub, clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod graph;
pub mod lexer;
pub mod parser;
pub mod rules;

use lexer::{lex, Token, TokenKind};
pub use rules::RuleId;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule that fired.
    pub rule: RuleId,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Failure to run the lint at all (as opposed to finding violations).
#[derive(Debug)]
pub enum LintError {
    /// An I/O failure while walking or reading the workspace.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The given root does not look like the workspace root.
    NotAWorkspace(PathBuf),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error at {}: {source}", path.display())
            }
            LintError::NotAWorkspace(p) => write!(
                f,
                "{} is not a workspace root (no Cargo.toml with [workspace])",
                p.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// Crates whose `src/` trees are held to `float-determinism`, and whose
/// lib roots carry the compiler gates (DESIGN §9). `bench` and `testkit`
/// are test substrates and exempt by design (they time things and drive
/// property tests).
pub const SCOPED_CRATES: &[&str] = &["core", "lint", "ml", "parallel", "sim", "stats", "types"];

/// True for library source of a scoped crate, given a workspace-relative
/// `/`-separated path.
fn is_scoped_src(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(parts.as_slice(), ["crates", krate, "src", ..] if SCOPED_CRATES.contains(krate))
}

/// True for binary entry points: `src/main.rs` and anything under a
/// `src/bin/` directory, at the root or inside a crate.
pub fn is_bin_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["src", "main.rs"]
            | ["src", "bin", ..]
            | ["crates", _, "src", "main.rs"]
            | ["crates", _, "src", "bin", ..]
    )
}

/// True if a file's `pub` items belong to the library surface the
/// dead-pub rule polices: scoped-crate `src/` or the root crate's
/// `src/`, excluding binary entry points (whose `pub` items are
/// internal to the bin).
fn defines_surface(rel_path: &str) -> bool {
    if is_bin_root(rel_path) {
        return false;
    }
    is_scoped_src(rel_path) || rel_path.starts_with("src/")
}

/// Finds the token index of the bracket matching `tokens[open]`.
fn find_matching(tokens: &[Token<'_>], open: usize, open_p: &str, close_p: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_p) {
            depth += 1;
        } else if t.is_punct(close_p) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// True if the attribute body tokens mark test-only code: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ...))]`. A `not(...)` anywhere in
/// the body disqualifies it (`#[cfg(not(test))]` is production code).
fn is_test_attr(body: &[Token<'_>]) -> bool {
    let has_test = body.iter().any(|t| t.is_ident("test"));
    let has_not = body.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

/// Computes the 1-based line ranges (inclusive) covered by test-only
/// items: a `#[test]`/`#[cfg(test)]` attribute, any further attributes,
/// and the item they annotate through its closing `}` or `;`.
pub fn test_region_lines(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let Some(attr_close) = find_matching(tokens, i + 1, "[", "]") else {
            break;
        };
        if !is_test_attr(&tokens[i + 2..attr_close]) {
            i = attr_close + 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes between the test attribute and the item.
        let mut j = attr_close + 1;
        while tokens.get(j).is_some_and(|t| t.is_punct("#"))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct("["))
        {
            match find_matching(tokens, j + 1, "[", "]") {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // The item body ends at its matching `}` (fn/mod/impl) or at `;`
        // (use/type/const declarations).
        let mut end = None;
        for (k, t) in tokens.iter().enumerate().skip(j) {
            if t.is_punct(";") {
                end = Some(k);
                break;
            }
            if t.is_punct("{") {
                end = find_matching(tokens, k, "{", "}");
                break;
            }
        }
        match end {
            Some(e) => {
                regions.push((start_line, tokens[e].line));
                i = e + 1;
            }
            None => break,
        }
    }
    regions
}

fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Runs the enabled per-file rules over one Rust file.
///
/// `float-determinism` applies to scoped library sources outside test
/// regions; the engine then honors `lint:allow` and, in every file,
/// reports broken allow directives.
pub fn lint_source_str(rel_path: &str, src: &str, enabled: &[RuleId]) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let mut findings = Vec::new();

    if is_scoped_src(rel_path) && enabled.contains(&RuleId::FloatDeterminism) {
        rules::check_float_determinism(&lexed.tokens, &mut findings);
        // Test-only code may compare floats freely.
        let regions = test_region_lines(&lexed.tokens);
        findings.retain(|f| !in_regions(f.line, &regions));
    }

    // Allow-directive suppression: a directive covers its own line and
    // the line directly below.
    findings.retain(|f| {
        !lexed.allows.iter().any(|a| {
            a.rule == f.rule.name() && (a.line == f.line || a.line + 1 == f.line)
        })
    });

    if enabled.contains(&RuleId::AllowGrammar) {
        for m in &lexed.malformed {
            findings.push(rules::Finding {
                line: m.line,
                rule: RuleId::AllowGrammar,
                message: format!("malformed lint:allow comment: {}", m.problem),
            });
        }
        for a in &lexed.allows {
            if RuleId::parse(&a.rule).is_none() {
                findings.push(rules::Finding {
                    line: a.line,
                    rule: RuleId::AllowGrammar,
                    message: format!("lint:allow names unknown rule `{}`", a.rule),
                });
            }
        }
    }

    into_diagnostics(rel_path, findings)
}

fn into_diagnostics(rel_path: &str, findings: Vec<rules::Finding>) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = findings
        .into_iter()
        .map(|f| Diagnostic {
            path: rel_path.to_string(),
            line: f.line,
            rule: f.rule,
            message: f.message,
        })
        .collect();
    out.sort_by_key(|d| (d.line, d.rule));
    out
}

/// Lints a set of files as one unit: every per-file rule over each
/// file, then the cross-file symbol-graph rules over all of them
/// together. `files` holds `(workspace-relative path, contents)` pairs
/// of `.rs` files; every one — whatever its role — contributes
/// identifier references to the [`graph::SymbolGraph`] consumed by
/// dead-pub.
pub fn lint_file_set(files: &[(String, String)], enabled: &[RuleId]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (path, text) in files {
        diags.extend(lint_source_str(path, text, enabled));
    }

    if enabled.contains(&RuleId::DeadPub) {
        let mut symbols = Vec::new();
        let mut allows = Vec::new();
        for (path, text) in files {
            let lexed = lex(text);
            let mut ident_lines: BTreeMap<String, Vec<u32>> = BTreeMap::new();
            for t in lexed.tokens.iter().filter(|t| t.kind == TokenKind::Ident) {
                ident_lines.entry(t.text.to_string()).or_default().push(t.line);
            }
            graph::doc_idents(text, &mut ident_lines);
            let defines = defines_surface(path);
            let items = if defines {
                parser::parse_items(&lexed.tokens)
            } else {
                Vec::new()
            };
            symbols.push(graph::FileSymbols {
                rel_path: path.clone(),
                items,
                ident_lines,
                doc_lines: lexed.doc_lines,
                defines_surface: defines,
            });
            allows.push(lexed.allows);
        }
        let symbol_graph = graph::build(&symbols);
        for (file_idx, finding) in graph::dead_pub(&symbol_graph, &symbols) {
            let suppressed = allows[file_idx].iter().any(|a| {
                a.rule == RuleId::DeadPub.name()
                    && (a.line == finding.line || a.line + 1 == finding.line)
            });
            if !suppressed {
                diags.push(Diagnostic {
                    path: symbols[file_idx].rel_path.clone(),
                    line: finding.line,
                    rule: finding.rule,
                    message: finding.message,
                });
            }
        }
    }

    diags.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    diags
}

fn read(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic reporting order.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let iter = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        entries.push(entry.path());
    }
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

/// Subdirectories of each crate (and the root) scanned for `.rs` files.
/// Every file is checked for allow grammar and counts as a use site for
/// the dead-pub symbol graph; only scoped `src/` files get
/// float-determinism.
const SCAN_DIRS: &[&str] = &["src", "tests", "benches", "examples"];

/// Lint-rule fixture corpus: deliberately violating sources that must
/// never be linted as workspace code.
const FIXTURE_PREFIX: &str = "crates/lint/tests/fixtures/";

/// Lints the whole workspace rooted at `root` with the given rules.
///
/// Scans all `.rs` files under `src/`, `tests/`, `benches/`, and
/// `examples/` of the root and of every `crates/*` package.
/// `float-determinism` applies only to scoped library sources; the wider
/// net exists so the dead-pub graph sees every legitimate use site. The
/// lint's own fixture corpus (deliberately violating sources) is
/// excluded.
pub fn lint_workspace(root: &Path, enabled: &[RuleId]) -> Result<Vec<Diagnostic>, LintError> {
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() || !read(&root_manifest)?.contains("[workspace]") {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut scan_roots = vec![root.to_path_buf()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let iter = std::fs::read_dir(&crates_dir).map_err(|source| LintError::Io {
            path: crates_dir.clone(),
            source,
        })?;
        let mut crate_dirs = Vec::new();
        for entry in iter {
            let entry = entry.map_err(|source| LintError::Io {
                path: crates_dir.clone(),
                source,
            })?;
            crate_dirs.push(entry.path());
        }
        crate_dirs.sort();
        scan_roots.extend(crate_dirs.into_iter().filter(|dir| dir.join("Cargo.toml").is_file()));
    }

    let mut sources = Vec::new();
    for scan_root in &scan_roots {
        for sub in SCAN_DIRS {
            collect_rs(&scan_root.join(sub), &mut sources)?;
        }
    }

    let mut files = Vec::new();
    for source in &sources {
        let rel = rel_display(root, source);
        if rel.starts_with(FIXTURE_PREFIX) {
            continue;
        }
        files.push((rel, read(source)?));
    }
    Ok(lint_file_set(&files, enabled))
}
