//! A token-level lexer for Rust source, in the same spirit as the in-tree
//! JSON parser: hand-rolled, zero-dependency, and strict about the cases
//! that matter for linting.
//!
//! The lexer's job is narrower than a compiler's: it must never mistake
//! comment or string-literal *content* for code (so `// calls .unwrap()`
//! and `"panic!"` are invisible to rules), must keep accurate line
//! numbers for diagnostics, and must distinguish float literals from
//! tuple indices so `w[0].1 == 0.0` flags the float comparison and not
//! the field access. It does not need to classify every Rust operator:
//! unrecognized punctuation is passed through one character at a time.
//!
//! Alongside tokens, the lexer extracts [`AllowDirective`]s from line
//! comments of the form:
//!
//! ```text
//! // lint:allow(<rule>) -- <reason>
//! ```
//!
//! The reason is mandatory; a directive with a missing reason or an
//! unparseable shape is reported as malformed rather than silently
//! ignored, so a typo cannot quietly disable a gate.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`unwrap`, `fn`, `HashMap`, ...).
    Ident,
    /// Integer literal (including tuple indices like the `1` in `x.1`).
    Int,
    /// Float literal (`0.0`, `1e-9`, `2f64`, ...).
    Float,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`, `'_`).
    Lifetime,
    /// Punctuation; compound operators that matter to rules (`==`, `!=`,
    /// `::`, `..`, `->`, `=>`, `<=`, `>=`, `&&`, `||`) are single tokens.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Lexeme class.
    pub kind: TokenKind,
    /// The exact source text of the token.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl<'a> Token<'a> {
    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == name
    }

    /// True if this token is the punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

/// A parsed `// lint:allow(<rule>) -- <reason>` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 1-based line the comment sits on (a directive suppresses matching
    /// diagnostics on its own line and the line directly below it).
    pub line: u32,
    /// The rule name inside the parentheses, as written.
    pub rule: String,
}

/// A `lint:allow` comment that could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedAllow {
    /// 1-based line of the broken directive.
    pub line: u32,
    /// Human-readable description of what is wrong.
    pub problem: String,
}

/// The full result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed<'a> {
    /// Code tokens in source order.
    pub tokens: Vec<Token<'a>>,
    /// Well-formed allow directives found in line comments.
    pub allows: Vec<AllowDirective>,
    /// Broken allow directives (reported as diagnostics by the engine).
    pub malformed: Vec<MalformedAllow>,
    /// Lines on which a doc comment (`///`, `//!`, `/** */`, `/*! */`)
    /// *ends*, in ascending order. The item parser uses these to decide
    /// whether an item is documented (a doc comment ends directly above
    /// the item's first line), and the symbol graph scans doc text for
    /// identifier references so doctest usage keeps an item alive.
    pub doc_lines: Vec<u32>,
}

/// Parses the body of a comment that contains `lint:allow`, starting at
/// the directive keyword. Returns `Ok(rule)` or `Err(problem)`.
fn parse_allow_body(text: &str) -> Result<String, String> {
    let Some(rest) = text.strip_prefix("lint:allow") else {
        return Err("directive must start with `lint:allow(`".to_string());
    };
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing `(` after `lint:allow`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)` after rule name".to_string());
    };
    let rule = rest[..close].trim();
    if rule.is_empty() {
        return Err("empty rule name".to_string());
    }
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("missing ` -- <reason>` after the rule".to_string());
    };
    if reason.trim().is_empty() {
        return Err("empty reason after `--`".to_string());
    }
    Ok(rule.to_string())
}

/// Scans a comment's text for a `lint:allow` directive and records it.
fn scan_comment(text: &str, line: u32, out: &mut Lexed<'_>) {
    let Some(at) = text.find("lint:allow") else {
        return;
    };
    match parse_allow_body(&text[at..]) {
        Ok(rule) => out.allows.push(AllowDirective { line, rule }),
        Err(problem) => out.malformed.push(MalformedAllow { line, problem }),
    }
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    /// Advances one byte, tracking newlines.
    fn bump(&mut self) {
        if self.peek() == Some(b'\n') {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.src[self.pos..].starts_with(pat)
    }
}

const COMPOUND_PUNCT: &[&str] = &[
    "..=", "==", "!=", "<=", ">=", "::", "..", "->", "=>", "&&", "||",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lexes one Rust source file into tokens plus allow directives.
///
/// The lexer is total: malformed input (unterminated strings, stray
/// bytes) never aborts the scan — it degrades to consuming single bytes,
/// keeping diagnostics flowing for the rest of the file.
pub fn lex(src: &str) -> Lexed<'_> {
    let mut out = Lexed::default();
    let mut c = Cursor { src, bytes: src.as_bytes(), pos: 0, line: 1 };

    while let Some(b) = c.peek() {
        // Whitespace.
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        // Line comment. Allow directives are only recognized in plain
        // `//` comments: `///` and `//!` docs may *describe* the grammar
        // without enacting it.
        if c.starts_with("//") {
            let start = c.pos;
            let line = c.line;
            while c.peek().is_some_and(|b| b != b'\n') {
                c.bump();
            }
            let text = &src[start..c.pos];
            let is_doc = text.starts_with("///") || text.starts_with("//!");
            if is_doc {
                out.doc_lines.push(line);
            } else {
                scan_comment(text, line, &mut out);
            }
            continue;
        }
        // Block comment, nested per Rust; directives are not honored here.
        if c.starts_with("/*") {
            // `/**` and `/*!` open doc comments (`/**/` does not: it is the
            // empty plain comment).
            let is_doc = (c.starts_with("/**") && !c.starts_with("/**/"))
                || c.starts_with("/*!");
            c.bump_n(2);
            let mut depth = 1usize;
            while depth > 0 && c.peek().is_some() {
                if c.starts_with("/*") {
                    depth += 1;
                    c.bump_n(2);
                } else if c.starts_with("*/") {
                    depth -= 1;
                    c.bump_n(2);
                } else {
                    c.bump();
                }
            }
            if is_doc {
                out.doc_lines.push(c.line);
            }
            continue;
        }
        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#.
        if matches!(b, b'r' | b'b') {
            if let Some(len) = raw_or_byte_string_len(&c) {
                let start = c.pos;
                let line = c.line;
                c.bump_n(len);
                out.tokens.push(Token { kind: TokenKind::Str, text: &src[start..c.pos], line });
                continue;
            }
            // Byte char literal b'x'.
            if b == b'b' && c.peek_at(1) == Some(b'\'') {
                let start = c.pos;
                let line = c.line;
                c.bump(); // consume `b`, then lex as a char literal
                lex_char_literal(&mut c);
                out.tokens.push(Token { kind: TokenKind::Char, text: &src[start..c.pos], line });
                continue;
            }
        }
        // Identifier / keyword.
        if is_ident_start(b) {
            let start = c.pos;
            let line = c.line;
            while c.peek().is_some_and(is_ident_continue) {
                c.bump();
            }
            out.tokens.push(Token { kind: TokenKind::Ident, text: &src[start..c.pos], line });
            continue;
        }
        // Plain string literal.
        if b == b'"' {
            let start = c.pos;
            let line = c.line;
            c.bump();
            while let Some(sb) = c.peek() {
                if sb == b'\\' {
                    c.bump_n(2);
                } else if sb == b'"' {
                    c.bump();
                    break;
                } else {
                    c.bump();
                }
            }
            out.tokens.push(Token { kind: TokenKind::Str, text: &src[start..c.pos], line });
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            let start = c.pos;
            let line = c.line;
            if is_lifetime(&c) {
                c.bump(); // `'`
                while c.peek().is_some_and(is_ident_continue) {
                    c.bump();
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text: &src[start..c.pos],
                    line,
                });
            } else {
                lex_char_literal(&mut c);
                out.tokens.push(Token { kind: TokenKind::Char, text: &src[start..c.pos], line });
            }
            continue;
        }
        // Number literal.
        if b.is_ascii_digit() {
            let start = c.pos;
            let line = c.line;
            // After a `.` token this is a tuple index (`pair.0`), which must
            // not greedily consume a following `.` (`pair.0.1`).
            let after_dot = out.tokens.last().is_some_and(|t| t.is_punct("."));
            let kind = lex_number(&mut c, after_dot);
            out.tokens.push(Token { kind, text: &src[start..c.pos], line });
            continue;
        }
        // Punctuation: compound operators first, then single bytes.
        let line = c.line;
        let mut matched = false;
        for op in COMPOUND_PUNCT {
            if c.starts_with(op) {
                let start = c.pos;
                c.bump_n(op.len());
                out.tokens.push(Token { kind: TokenKind::Punct, text: &src[start..c.pos], line });
                matched = true;
                break;
            }
        }
        if !matched {
            let start = c.pos;
            c.bump();
            out.tokens.push(Token { kind: TokenKind::Punct, text: &src[start..c.pos], line });
        }
    }
    out
}

/// If the cursor sits on a raw/byte string opener (`r"`, `r#`, `b"`,
/// `br`, `rb`), returns the total byte length of the literal.
fn raw_or_byte_string_len(c: &Cursor<'_>) -> Option<usize> {
    let rest = &c.bytes[c.pos..];
    let mut i = 0usize;
    // Prefix letters: r, b, br, rb (Rust only has r, b, br; accept rb too).
    while i < 2 && rest.get(i).is_some_and(|&b| b == b'r' || b == b'b') {
        i += 1;
    }
    let has_r = rest[..i].contains(&b'r');
    let mut hashes = 0usize;
    while rest.get(i + hashes) == Some(&b'#') {
        hashes += 1;
    }
    if hashes > 0 && !has_r {
        return None; // `b#` is not a string opener
    }
    if rest.get(i + hashes) != Some(&b'"') {
        return None;
    }
    let body_start = i + hashes + 1;
    if has_r {
        // Raw string: ends at `"` followed by `hashes` hash marks.
        let mut j = body_start;
        while j < rest.len() {
            if rest[j] == b'"' && rest[j + 1..].len() >= hashes
                && rest[j + 1..j + 1 + hashes].iter().all(|&b| b == b'#')
            {
                return Some(j + 1 + hashes);
            }
            j += 1;
        }
        Some(rest.len()) // unterminated: consume to EOF
    } else {
        // Cooked byte string with escapes.
        let mut j = body_start;
        while j < rest.len() {
            match rest[j] {
                b'\\' => j += 2,
                b'"' => return Some(j + 1),
                _ => j += 1,
            }
        }
        Some(rest.len())
    }
}

/// Distinguishes `'a` / `'static` (lifetime) from `'x'` / `'\n'` (char).
fn is_lifetime(c: &Cursor<'_>) -> bool {
    // `'` + ident-start, where the char after the ident is NOT a closing
    // quote. `'a'` is a char literal; `'a,` / `'a>` / `'a ` are lifetimes.
    let Some(first) = c.peek_at(1) else {
        return false;
    };
    if first == b'\\' || !is_ident_start(first) {
        return false;
    }
    let mut i = 2;
    while c.peek_at(i).is_some_and(is_ident_continue) {
        i += 1;
    }
    c.peek_at(i) != Some(b'\'')
}

/// Consumes a char/byte-char literal starting at `'`.
fn lex_char_literal(c: &mut Cursor<'_>) {
    c.bump(); // opening '
    if c.peek() == Some(b'\\') {
        c.bump_n(2);
    } else {
        c.bump();
    }
    // Consume through the closing quote (tolerate unterminated input).
    while let Some(b) = c.peek() {
        if b == b'\'' {
            c.bump();
            break;
        }
        if b == b'\n' {
            break;
        }
        c.bump();
    }
}

/// Consumes a number literal; returns `Int` or `Float`.
fn lex_number(c: &mut Cursor<'_>, tuple_index: bool) -> TokenKind {
    // Radix prefixes are always integers.
    if c.peek() == Some(b'0')
        && matches!(c.peek_at(1), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
    {
        c.bump_n(2);
        while c
            .peek()
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_')
        {
            c.bump();
        }
        return TokenKind::Int;
    }
    let mut is_float = false;
    while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        c.bump();
    }
    if !tuple_index {
        // Fractional part: `.` followed by a digit, or a bare trailing `.`
        // not followed by an identifier (so `1.max(2)` stays an int call).
        if c.peek() == Some(b'.') {
            let next = c.peek_at(1);
            let frac_digit = next.is_some_and(|b| b.is_ascii_digit());
            let bare_dot =
                next.is_none_or(|b| !is_ident_start(b) && b != b'.' && !b.is_ascii_digit());
            if frac_digit || bare_dot {
                is_float = true;
                c.bump();
                while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    c.bump();
                }
            }
        }
        // Exponent.
        if matches!(c.peek(), Some(b'e' | b'E')) {
            let mut i = 1;
            if matches!(c.peek_at(1), Some(b'+' | b'-')) {
                i = 2;
            }
            if c.peek_at(i).is_some_and(|b| b.is_ascii_digit()) {
                is_float = true;
                c.bump_n(i);
                while c.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                    c.bump();
                }
            }
        }
    }
    // Suffix (u32, i64, f32, f64, usize, ...).
    let suffix_start = c.pos;
    while c.peek().is_some_and(is_ident_continue) {
        c.bump();
    }
    let suffix = &c.src[suffix_start..c.pos];
    if suffix == "f32" || suffix == "f64" {
        is_float = true;
    }
    if is_float {
        TokenKind::Float
    } else {
        TokenKind::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text.to_string()))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        assert!(idents("// unwrap() in a comment").is_empty());
        assert!(idents("/* unwrap() /* nested */ still comment */").is_empty());
        assert_eq!(idents("foo /* x */ bar"), ["foo", "bar"]);
    }

    #[test]
    fn strings_hide_their_contents() {
        assert!(idents(r#""call .unwrap() now""#).is_empty());
        assert!(idents(r##"r#"raw "quoted" unwrap"#"##).is_empty());
        assert!(idents(r#"b"bytes with unwrap""#).is_empty());
        // Escaped quote does not end the literal.
        assert!(idents(r#""esc \" unwrap""#).is_empty());
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("'a' 'x 'static '_ '\\n'");
        assert_eq!(
            toks,
            [
                (TokenKind::Char, "'a'".to_string()),
                (TokenKind::Lifetime, "'x".to_string()),
                (TokenKind::Lifetime, "'static".to_string()),
                (TokenKind::Lifetime, "'_".to_string()),
                (TokenKind::Char, "'\\n'".to_string()),
            ]
        );
    }

    #[test]
    fn float_vs_tuple_index() {
        // `pair.0` is punct + Int, not a float literal.
        let toks = kinds("pair.0");
        assert_eq!(toks[1], (TokenKind::Punct, ".".to_string()));
        assert_eq!(toks[2], (TokenKind::Int, "0".to_string()));
        // Real floats in their usual spellings.
        for src in ["0.0", "1e-9", "2f64", "3.5f32", "1_000.25"] {
            let t = kinds(src);
            assert_eq!(t.len(), 1, "{src}: {t:?}");
            assert_eq!(t[0].0, TokenKind::Float, "{src}");
        }
        assert_eq!(kinds("42")[0].0, TokenKind::Int);
    }

    #[test]
    fn compound_punct_is_one_token() {
        let toks = kinds("a == b != c .. d ..= e :: f");
        let puncts: Vec<String> = toks
            .into_iter()
            .filter(|t| t.0 == TokenKind::Punct)
            .map(|t| t.1)
            .collect();
        assert_eq!(puncts, ["==", "!=", "..", "..=", "::"]);
    }

    #[test]
    fn line_numbers_are_one_based() {
        let lexed = lex("a\nb\n\nc");
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4]);
    }

    #[test]
    fn allow_directive_round_trip() {
        let lexed = lex("// lint:allow(nondeterminism) -- caller checked\nx.unwrap();");
        assert_eq!(lexed.allows.len(), 1);
        assert_eq!(lexed.allows[0].rule, "nondeterminism");
        assert_eq!(lexed.allows[0].line, 1);
        assert!(lexed.malformed.is_empty());
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let lexed = lex("// lint:allow(nondeterminism)\n");
        assert!(lexed.allows.is_empty());
        assert_eq!(lexed.malformed.len(), 1);
    }

    #[test]
    fn doc_comments_do_not_carry_directives() {
        // Docs may describe the grammar without enacting it.
        let lexed = lex("/// lint:allow(nondeterminism) -- example in docs\n//! lint:allow(broken\n");
        assert!(lexed.allows.is_empty());
        assert!(lexed.malformed.is_empty());
    }
}
