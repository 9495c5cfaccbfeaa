//! The rule families `ssd-lint` enforces.
//!
//! `float-determinism` is a pure function over the token stream of one
//! file (see [`crate::lexer`]); `dead-pub` lives in [`crate::graph`].
//! Rules report *candidate* diagnostics; the engine in `lib.rs` applies
//! `lint:allow` suppression and test-region exclusion before anything
//! reaches the user.

use crate::lexer::{Token, TokenKind};

/// Identifies one rule family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No `.partial_cmp()` and no `==`/`!=` against float literals in
    /// library sources — ordering must go through `total_cmp`.
    FloatDeterminism,
    /// Fully-`pub` library items must be referenced from at least one
    /// other file in the workspace (symbol-graph rule).
    DeadPub,
    /// `lint:allow` comments must parse and name a real rule.
    AllowGrammar,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 3] = [RuleId::FloatDeterminism, RuleId::DeadPub, RuleId::AllowGrammar];

    /// The kebab-case name used on the CLI and in allow comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::FloatDeterminism => "float-determinism",
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
