//! The rule families `ssd-lint` enforces.
//!
//! Each source rule is a pure function over the token stream of one file
//! (see [`crate::lexer`]); the hermeticity rule is a line-level check
//! over `Cargo.toml` manifests. Rules report *candidate* diagnostics;
//! the engine in `lib.rs` applies `lint:allow` suppression and test-region
//! exclusion before anything reaches the user.

use crate::lexer::{Token, TokenKind};

/// Identifies one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `.partial_cmp()` and no `==`/`!=` against float literals in
    /// library sources — ordering must go through `total_cmp`.
    FloatDeterminism,
    /// No `HashMap`/`HashSet` and no `SystemTime::now`/`Instant::now` in
    /// library sources — iteration order and wall clocks are
    /// nondeterministic inputs.
    Nondeterminism,
    /// Every `Cargo.toml` dependency must resolve in-tree (`path =` or
    /// workspace inheritance); known external crates are name-banned.
    Hermeticity,
    /// Every crate root must carry `#![forbid(unsafe_code)]`.
    UnsafeGate,
    /// Every non-test `SplitMix64` construction outside `crates/stats`
    /// must go through the `for_stream` substream-derivation API; a raw
    /// `new(seed)` silently breaks the per-drive substream contract.
    RngDiscipline,
    /// Fully-`pub` library items must be referenced from at least one
    /// other file in the workspace (symbol-graph rule).
    DeadPub,
    /// `lint:allow` comments must parse and name a real rule.
    AllowGrammar,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 7] = [
        RuleId::FloatDeterminism,
        RuleId::Nondeterminism,
        RuleId::Hermeticity,
        RuleId::UnsafeGate,
        RuleId::RngDiscipline,
        RuleId::DeadPub,
        RuleId::AllowGrammar,
    ];

    /// The kebab-case name used on the CLI and in allow comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatDeterminism => "float-determinism",
            RuleId::Nondeterminism => "nondeterminism",
            RuleId::Hermeticity => "hermeticity",
            RuleId::UnsafeGate => "unsafe-gate",
            RuleId::RngDiscipline => "rng-discipline",
            RuleId::DeadPub => "dead-pub",
            RuleId::AllowGrammar => "allow-grammar",
        }
    }

    /// One-line description for `--list-rules`.
    pub fn description(self) -> &'static str {
        match self {
            RuleId::FloatDeterminism => {
                "no .partial_cmp() or ==/!= against float literals; use total_cmp"
            }
            RuleId::Nondeterminism => {
                "no HashMap/HashSet or SystemTime::now/Instant::now in library sources"
            }
            RuleId::Hermeticity => {
                "every Cargo.toml dependency is a path/workspace dependency"
            }
            RuleId::UnsafeGate => "every crate root carries #![forbid(unsafe_code)]",
            RuleId::RngDiscipline => {
                "SplitMix64 is constructed via for_stream outside crates/stats, never raw new(seed)"
            }
            RuleId::DeadPub => {
                "every fully-pub library item is referenced from at least one other file"
            }
            RuleId::AllowGrammar => "lint:allow comments parse and name a real rule",
        }
    }

    /// Parses a CLI/allow-comment rule name.
    pub fn parse(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// A candidate finding: line plus message (the engine attaches the path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// 1-based source line.
    pub line: u32,
    /// Rule that fired.
    pub rule: RuleId,
    /// What is wrong and what to do instead.
    pub message: String,
}

fn finding(line: u32, rule: RuleId, message: impl Into<String>) -> Finding {
    Finding { line, rule, message: message.into() }
}

/// float-determinism: flags `.partial_cmp(` calls and `==`/`!=` where
/// either operand token is a float literal.
pub fn check_float_determinism(tokens: &[Token<'_>], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("partial_cmp")
            && i > 0
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
        {
            out.push(finding(
                t.line,
                RuleId::FloatDeterminism,
                "`.partial_cmp()` is not a total order over floats; use `total_cmp` \
                 so NaN/-0.0 sort deterministically",
            ));
        }
        if t.kind == TokenKind::Punct && (t.text == "==" || t.text == "!=") {
            let float_neighbor = (i > 0 && tokens[i - 1].kind == TokenKind::Float)
                || tokens.get(i + 1).is_some_and(|n| n.kind == TokenKind::Float);
            if float_neighbor {
                out.push(finding(
                    t.line,
                    RuleId::FloatDeterminism,
                    format!(
                        "`{}` against a float literal is rounding-sensitive; compare \
                         via `total_cmp`/`to_bits` or justify with \
                         `// lint:allow(float-determinism) -- <reason>`",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// Hash-ordered collections whose iteration order varies run to run.
const HASH_COLLECTIONS: &[&str] = &["HashMap", "HashSet"];
/// `Type::now()` clock reads that make output depend on wall time.
const CLOCK_TYPES: &[&str] = &["SystemTime", "Instant"];

/// nondeterminism: flags hash-ordered collections and wall-clock reads.
pub fn check_nondeterminism(tokens: &[Token<'_>], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if HASH_COLLECTIONS.contains(&t.text) {
            out.push(finding(
                t.line,
                RuleId::Nondeterminism,
                format!(
                    "`{}` iteration order is nondeterministic; use the BTree \
                     equivalent or sort before anything observable",
                    t.text
                ),
            ));
        }
        if CLOCK_TYPES.contains(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
        {
            out.push(finding(
                t.line,
                RuleId::Nondeterminism,
                format!("`{}::now()` reads the wall clock; outputs must be a pure \
                         function of inputs and seeds", t.text),
            ));
        }
    }
}

/// unsafe-gate: the token stream must contain `#![forbid(unsafe_code)]`.
pub fn check_unsafe_gate(tokens: &[Token<'_>], out: &mut Vec<Finding>) {
    let want = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    let found = tokens.windows(want.len()).any(|w| {
        w.iter().zip(want.iter()).all(|(tok, expect)| match tok.kind {
            TokenKind::Ident => tok.text == *expect,
            TokenKind::Punct => tok.text == *expect,
            _ => false,
        })
    });
    if !found {
        out.push(finding(
            1,
            RuleId::UnsafeGate,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ));
    }
}

/// External crates the seed once depended on; their reappearance in any
/// manifest is the most likely hermeticity regression.
const BANNED_CRATES: &[&str] = &["rayon", "serde", "serde_json", "bytes", "proptest", "criterion"];

/// True for section headers naming a dependency table, including
/// `[workspace.dependencies]`, `[dev-dependencies]`, target-specific
/// tables, and dotted single-dependency tables like `[dependencies.foo]`.
fn is_dependency_section(header: &str) -> bool {
    let h = header.trim_matches(['[', ']']);
    h == "workspace.dependencies"
        || h.split('.').any(|part| {
            part == "dependencies" || part == "dev-dependencies" || part == "build-dependencies"
        })
}

/// A dependency entry is hermetic iff its value declares a `path` source
/// or inherits one from the workspace table (`workspace = true`).
fn entry_is_hermetic(value: &str) -> bool {
    value.contains("path") || value.replace(' ', "").contains("workspace=true")
}

/// hermeticity: every dependency in a `Cargo.toml` must be `path =` or
/// workspace-inherited, and banned external crate names must not appear
/// as dependency keys. Line-level, like the manifest format itself.
pub fn check_hermeticity(manifest: &str, out: &mut Vec<Finding>) {
    let mut in_dep_section = false;
    // `[dependencies.foo]`-style tables spread one entry over following
    // lines; collect the body and judge when the table closes.
    let mut dotted: Option<(u32, String, String)> = None;
    let flush = |dotted: &mut Option<(u32, String, String)>, out: &mut Vec<Finding>| {
        if let Some((line, header, body)) = dotted.take() {
            if !entry_is_hermetic(&body) {
                out.push(finding(
                    line,
                    RuleId::Hermeticity,
                    format!("{header} is not a path dependency"),
                ));
            }
        }
    };
    for (idx, raw) in manifest.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush(&mut dotted, out);
            in_dep_section = is_dependency_section(line);
            let inner = line.trim_matches(['[', ']']);
            let last = inner.split('.').next_back();
            if in_dep_section
                && inner.split('.').count() > 1
                && inner != "workspace.dependencies"
                && last != Some("dependencies")
                && last != Some("dev-dependencies")
                && last != Some("build-dependencies")
            {
                // e.g. [dev-dependencies.foo]
                if let Some(name) = last {
                    check_banned_name(name, lineno, out);
                }
                dotted = Some((lineno, line.to_string(), String::new()));
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        if let Some((_, _, body)) = dotted.as_mut() {
            body.push_str(line);
            body.push('\n');
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        // Dotted-key form: `ssd-types.workspace = true`.
        let base = name.strip_suffix(".workspace").unwrap_or(name);
        check_banned_name(base, lineno, out);
        let inherits = name.ends_with(".workspace") && value.trim() == "true";
        if !inherits && !entry_is_hermetic(value) {
            out.push(finding(
                lineno,
                RuleId::Hermeticity,
                format!(
                    "dependency `{base}` = {} is not a path/workspace dependency \
                     (the build environment has no crate registry)",
                    value.trim()
                ),
            ));
        }
    }
    flush(&mut dotted, out);
}

fn check_banned_name(name: &str, line: u32, out: &mut Vec<Finding>) {
    if BANNED_CRATES.contains(&name) {
        out.push(finding(
            line,
            RuleId::Hermeticity,
            format!("banned external crate `{name}` reintroduced; use the in-tree substrate"),
        ));
    }
}

/// rng-discipline: flags `SplitMix64::new(` constructions. The raw
/// constructor is reserved for `crates/stats` (where `for_stream`'s
/// mixing lives); everywhere else a raw seed bypasses the substream
/// derivation that keeps fleets byte-identical across pool sizes and
/// traversal modes (DESIGN.md §13).
pub fn check_rng_discipline(tokens: &[Token<'_>], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("SplitMix64")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|n| n.is_ident("new"))
            && tokens.get(i + 3).is_some_and(|n| n.is_punct("("))
        {
            out.push(finding(
                t.line,
                RuleId::RngDiscipline,
                "raw `SplitMix64::new(seed)` bypasses the substream discipline; derive \
                 independent streams with `SplitMix64::for_stream(seed, stream)` (or \
                 justify with `// lint:allow(rng-discipline) -- <reason>`)",
            ));
        }
    }
}
