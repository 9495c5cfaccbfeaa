//! A recursive-descent *item* parser over the token stream of
//! [`crate::lexer`].
//!
//! This is deliberately not a full Rust parser: it recognizes the item
//! skeleton of a file — functions, structs, enums, unions, traits, type
//! aliases, consts/statics, modules, impl blocks, `use` declarations, and
//! `macro_rules!` definitions — together with each item's visibility,
//! attribute span, and line extent. Expression bodies are skipped as
//! balanced token trees. That is exactly the information the cross-file
//! `dead-pub` rule needs and nothing more, which
//! keeps the parser total: any token soup parses to *some* item list,
//! malformed input degrades to skipped tokens, and the parser can never
//! panic or loop (every path advances the cursor).
//!
//! Generic arguments are skipped with the classic angle-bracket
//! heuristic: `<` opens a generic list only when it follows an
//! identifier, `>`, or `::`, which is unambiguous in item-signature
//! position (the only place this parser looks).

use crate::lexer::{Token, TokenKind};

/// What kind of item a parsed [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free function, method, or associated function).
    Fn,
    /// `struct` or `union`.
    Struct,
    /// `enum`.
    Enum,
    /// `trait` declaration (children are its associated items).
    Trait,
    /// `type` alias.
    TypeAlias,
    /// `const` item.
    Const,
    /// `static` item.
    Static,
    /// `mod` (inline `{}` modules carry their items as children).
    Mod,
    /// `use` declaration (imports and re-exports).
    Use,
    /// `impl` block (children are its associated items).
    Impl,
    /// `macro_rules!` definition.
    MacroDef,
    /// `extern crate`.
    ExternCrate,
}

/// How an item is exported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No visibility keyword.
    Private,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)` — restricted and
    /// therefore never part of the cross-crate surface.
    Restricted,
    /// Bare `pub`.
    Public,
}

/// One parsed item with its position and (for block items) children.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item class.
    pub kind: ItemKind,
    /// The defining identifier; `None` for `impl` blocks and `use`
    /// declarations.
    pub name: Option<String>,
    /// Visibility as written.
    pub vis: Visibility,
    /// 1-based line of the first outer attribute (equals [`kw_line`]
    /// when the item has no attributes).
    ///
    /// [`kw_line`]: Item::kw_line
    pub attr_line: u32,
    /// 1-based line of the visibility/keyword token.
    pub kw_line: u32,
    /// 1-based line of the item's final token (`;` or closing `}`).
    pub end_line: u32,
    /// True when an outer attribute marks the item test-only
    /// (`#[test]`, `#[cfg(test)]`).
    pub is_test: bool,
    /// For [`ItemKind::Impl`]: true when this is a `impl Trait for Type`
    /// block (whose associated items belong to the trait contract, not
    /// the inherent surface).
    pub is_trait_impl: bool,
    /// For [`ItemKind::Impl`]: every identifier in the impl header
    /// (trait path, self type, generic bounds) between `impl` and the
    /// body `{`. The symbol graph uses these to decide whether an impl
    /// block is attached to a live definition.
    pub header_idents: Vec<String>,
    /// Associated/nested items of `mod`, `trait`, and `impl` blocks.
    pub children: Vec<Item>,
}

/// Depth-first visit of every item in a parsed file, with the parent
/// item (if any) alongside.
pub fn for_each_item<'a>(
    items: &'a [Item],
    visit: &mut impl FnMut(&'a Item, Option<&'a Item>),
) {
    fn rec<'a>(
        items: &'a [Item],
        parent: Option<&'a Item>,
        visit: &mut impl FnMut(&'a Item, Option<&'a Item>),
    ) {
        for item in items {
            visit(item, parent);
            rec(&item.children, Some(item), visit);
        }
    }
    rec(items, None, visit);
}

/// Parses the item tree of one file from its token stream.
pub fn parse_items(tokens: &[Token<'_>]) -> Vec<Item> {
    let mut p = Parser { tokens, pos: 0 };
    p.items_until(None)
}

struct Parser<'t, 'a> {
    tokens: &'t [Token<'a>],
    pos: usize,
}

/// Keywords that introduce an item after attributes/visibility/qualifiers.
const QUALIFIERS: &[&str] = &["default", "const", "async", "unsafe", "extern"];

impl<'t, 'a> Parser<'t, 'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + ahead)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn last_line(&self) -> u32 {
        self.tokens
            .get(self.pos.saturating_sub(1))
            .map_or(1, |t| t.line)
    }

    /// Parses items until EOF (`close == None`) or a closing `}` at this
    /// nesting level (`close == Some(())`, the `}` is consumed by the
    /// caller's balanced skip, so we stop *before* it).
    fn items_until(&mut self, close: Option<()>) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(t) = self.peek() {
            if close.is_some() && t.is_punct("}") {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.item() {
                items.push(item);
            }
            if self.pos == before {
                // Safety valve: unrecognized token — skip it so the
                // parser always terminates.
                self.bump();
            }
        }
        items
    }

    /// Parses one item (attributes + visibility + keyword + body).
    /// Returns `None` for tokens that do not start an item (stray
    /// semicolons, inner attributes, unrecognized input).
    fn item(&mut self) -> Option<Item> {
        // Stray semicolons between items.
        if self.peek().is_some_and(|t| t.is_punct(";")) {
            self.bump();
            return None;
        }
        // Inner attribute `#![...]`: belongs to the enclosing scope.
        if self.peek().is_some_and(|t| t.is_punct("#"))
            && self.peek_at(1).is_some_and(|t| t.is_punct("!"))
        {
            self.bump(); // #
            self.bump(); // !
            self.skip_balanced("[", "]");
            return None;
        }

        // Outer attributes.
        let mut attr_line = None;
        let mut is_test = false;
        while self.peek().is_some_and(|t| t.is_punct("#"))
            && self.peek_at(1).is_some_and(|t| t.is_punct("["))
        {
            if attr_line.is_none() {
                attr_line = Some(self.peek().map_or(1, |t| t.line));
            }
            self.bump(); // #
            let body_start = self.pos + 1;
            self.skip_balanced("[", "]");
            let body = &self.tokens[body_start.min(self.tokens.len())
                ..self.pos.saturating_sub(1).min(self.tokens.len())];
            if attr_is_test(body) {
                is_test = true;
            }
        }

        // Visibility.
        let mut vis = Visibility::Private;
        let mut kw_line = self.peek().map_or(1, |t| t.line);
        if self.peek().is_some_and(|t| t.is_ident("pub")) {
            kw_line = self.peek().map_or(1, |t| t.line);
            self.bump();
            if self.peek().is_some_and(|t| t.is_punct("(")) {
                vis = Visibility::Restricted;
                self.skip_balanced("(", ")");
            } else {
                vis = Visibility::Public;
            }
        }
        let attr_line = attr_line.unwrap_or(kw_line);
        if vis == Visibility::Private {
            kw_line = self.peek().map_or(kw_line, |t| t.line);
        }

        // Qualifiers before the item keyword: `const fn`, `async fn`,
        // `unsafe fn`, `unsafe trait`, `unsafe impl`, `extern "C" fn`.
        // A lone `const`/`extern` that is itself the item keyword
        // (`const X: ...`, `extern crate`, `extern "C" { ... }`) is
        // handled by not consuming it here.
        while let Some(t) = self.peek() {
            if t.kind != TokenKind::Ident || !QUALIFIERS.contains(&t.text) {
                break;
            }
            match t.text {
                "const" => {
                    // Qualifier only when a further qualifier or `fn`
                    // follows; otherwise it is a const item.
                    let next_is_fn_chain = self.peek_at(1).is_some_and(|n| {
                        n.is_ident("fn")
                            || n.is_ident("unsafe")
                            || n.is_ident("async")
                            || n.is_ident("extern")
                    });
                    if !next_is_fn_chain {
                        break;
                    }
                    self.bump();
                }
                "extern" => {
                    // `extern crate foo;` and `extern "C" { ... }` are
                    // items; `extern "C" fn` is a qualifier.
                    if self.peek_at(1).is_some_and(|n| n.is_ident("crate")) {
                        break;
                    }
                    let fn_after_abi = self
                        .peek_at(1)
                        .is_some_and(|n| n.kind == TokenKind::Str)
                        && self.peek_at(2).is_some_and(|n| n.is_ident("fn"));
                    let fn_direct = self.peek_at(1).is_some_and(|n| n.is_ident("fn"));
                    if !(fn_after_abi || fn_direct) {
                        break;
                    }
                    self.bump();
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                        self.bump();
                    }
                }
                _ => self.bump(),
            }
        }

        let kw = self.peek()?;
        let kw_text = if kw.kind == TokenKind::Ident { kw.text } else { "" };
        let mut item = Item {
            kind: ItemKind::Use,
            name: None,
            vis,
            attr_line,
            kw_line,
            end_line: kw.line,
            is_test,
            is_trait_impl: false,
            header_idents: Vec::new(),
            children: Vec::new(),
        };
        match kw_text {
            "fn" => {
                self.bump();
                item.kind = ItemKind::Fn;
                item.name = self.ident_name();
                // Signature (generics, params, return type, where clause)
                // runs to the body `{` or a bodyless `;`.
                self.skip_to_body_or_semi();
                item.end_line = self.last_line();
            }
            "struct" | "union" => {
                self.bump();
                item.kind = ItemKind::Struct;
                item.name = self.ident_name();
                // Unit `;`, tuple `(..);`, or braced `{..}` — the first
                // top-level `{` or `;` ends the item either way.
                self.skip_to_body_or_semi();
                item.end_line = self.last_line();
            }
            "enum" => {
                self.bump();
                item.kind = ItemKind::Enum;
                item.name = self.ident_name();
                self.skip_to_body_or_semi();
                item.end_line = self.last_line();
            }
            "trait" => {
                self.bump();
                item.kind = ItemKind::Trait;
                item.name = self.ident_name();
                if self.skip_signature_to_open_brace() {
                    item.children = self.items_until(Some(()));
                    self.expect_close_brace();
                }
                item.end_line = self.last_line();
            }
            "type" => {
                self.bump();
                item.kind = ItemKind::TypeAlias;
                item.name = self.ident_name();
                self.skip_to_semi();
                item.end_line = self.last_line();
            }
            "const" | "static" => {
                self.bump();
                item.kind = if kw_text == "const" { ItemKind::Const } else { ItemKind::Static };
                if self.peek().is_some_and(|t| t.is_ident("mut")) {
                    self.bump();
                }
                // `const _: () = ...;` uses `_`, lexed as an identifier.
                item.name = self.ident_name().filter(|n| n != "_");
                self.skip_to_semi();
                item.end_line = self.last_line();
            }
            "mod" => {
                self.bump();
                item.kind = ItemKind::Mod;
                item.name = self.ident_name();
                match self.peek() {
                    Some(t) if t.is_punct("{") => {
                        self.bump();
                        item.children = self.items_until(Some(()));
                        self.expect_close_brace();
                    }
                    _ => self.skip_to_semi(),
                }
                item.end_line = self.last_line();
            }
            "use" => {
                self.bump();
                item.kind = ItemKind::Use;
                self.skip_to_semi();
                item.end_line = self.last_line();
            }
            "impl" => {
                self.bump();
                item.kind = ItemKind::Impl;
                let header_start = self.pos;
                item.is_trait_impl = self.skip_impl_header();
                item.header_idents = self.tokens
                    [header_start..self.pos.min(self.tokens.len())]
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.to_string())
                    .collect();
                if self.peek().is_some_and(|t| t.is_punct("{")) {
                    self.bump();
                    item.children = self.items_until(Some(()));
                    self.expect_close_brace();
                }
                item.end_line = self.last_line();
            }
            "macro_rules" => {
                self.bump();
                item.kind = ItemKind::MacroDef;
                if self.peek().is_some_and(|t| t.is_punct("!")) {
                    self.bump();
                }
                item.name = self.ident_name();
                // The definition body is one balanced token tree.
                match self.peek() {
                    Some(t) if t.is_punct("{") => self.skip_balanced("{", "}"),
                    Some(t) if t.is_punct("(") => {
                        self.skip_balanced("(", ")");
                        self.skip_to_semi();
                    }
                    Some(t) if t.is_punct("[") => {
                        self.skip_balanced("[", "]");
                        self.skip_to_semi();
                    }
                    _ => {}
                }
                item.end_line = self.last_line();
            }
            "extern" => {
                self.bump();
                if self.peek().is_some_and(|t| t.is_ident("crate")) {
                    item.kind = ItemKind::ExternCrate;
                    self.bump();
                    item.name = self.ident_name();
                    self.skip_to_semi();
                } else {
                    // Foreign module `extern "C" { ... }`.
                    item.kind = ItemKind::Mod;
                    if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
                        self.bump();
                    }
                    if self.peek().is_some_and(|t| t.is_punct("{")) {
                        self.bump();
                        item.children = self.items_until(Some(()));
                        self.expect_close_brace();
                    }
                }
                item.end_line = self.last_line();
            }
            _ => {
                // Not an item start; tell the caller to skip the token.
                return None;
            }
        }
        Some(item)
    }

    /// Consumes one identifier token and returns its text.
    fn ident_name(&mut self) -> Option<String> {
        let t = self.peek()?;
        if t.kind == TokenKind::Ident {
            let name = t.text.to_string();
            self.bump();
            Some(name)
        } else {
            None
        }
    }

    /// Skips a balanced `open`..`close` pair starting at the cursor (the
    /// opener need not be the current token: leading tokens before the
    /// first opener are consumed too). Tolerates unbalanced input by
    /// running to EOF.
    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    return;
                }
            }
            self.bump();
        }
    }

    /// Skips to (and past) the next `;` at zero bracket depth.
    fn skip_to_semi(&mut self) {
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut brace = 0usize;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text {
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "{" => brace += 1,
                    "}" => {
                        if brace == 0 {
                            // Unexpected scope close: stop before it so the
                            // enclosing block parser sees it.
                            return;
                        }
                        brace -= 1;
                    }
                    ";" if paren == 0 && bracket == 0 && brace == 0 => {
                        self.bump();
                        return;
                    }
                    _ => {}
                }
            }
            self.bump();
        }
    }

    /// Skips an item signature up to its body: consumes through the
    /// closing `}` of a braced body, or through a terminating `;` for
    /// bodyless forms (trait method declarations, unit structs). Uses
    /// the angle-bracket heuristic so `fn f<T: Into<Vec<u8>>>() -> R<T>
    /// where T: X { .. }` finds the right brace.
    fn skip_to_body_or_semi(&mut self) {
        if self.skip_signature_to_open_brace() {
            // Cursor sits just past `{`; consume the balanced remainder.
            let mut depth = 1usize;
            while let Some(t) = self.peek() {
                if t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                self.bump();
            }
        }
    }

    /// Skips signature tokens until a `{` at zero depth (consuming it and
    /// returning `true`) or a `;` at zero depth (consuming it, `false`).
    fn skip_signature_to_open_brace(&mut self) -> bool {
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut angle = 0usize;
        let mut prev_opens_generics = false;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text {
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "<" if prev_opens_generics => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    "{" if paren == 0 && bracket == 0 && angle == 0 => {
                        self.bump();
                        return true;
                    }
                    ";" if paren == 0 && bracket == 0 && angle == 0 => {
                        self.bump();
                        return false;
                    }
                    "}" if paren == 0 && bracket == 0 => {
                        // Scope closes before any body: malformed input;
                        // leave the `}` for the enclosing parser.
                        return false;
                    }
                    _ => {}
                }
            }
            prev_opens_generics = t.kind == TokenKind::Ident
                || t.is_punct(">")
                || t.is_punct("::")
                || t.is_punct("<");
            self.bump();
        }
        false
    }

    /// Skips an `impl` header (generics, type path, optional `for Type`,
    /// where clause) up to the opening `{`, *without* consuming it.
    /// Returns true when a top-level `for` makes this a trait impl.
    fn skip_impl_header(&mut self) -> bool {
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut angle = 0usize;
        let mut prev_opens_generics = false;
        let mut saw_for = false;
        while let Some(t) = self.peek() {
            match t.kind {
                TokenKind::Ident if t.text == "for" && angle == 0 && paren == 0 => {
                    saw_for = true;
                }
                TokenKind::Ident if t.text == "where" && angle == 0 && paren == 0 => {
                    // `for` inside a where clause (`for<'a> Fn(..)`) is
                    // higher-ranked-bound syntax, not a trait impl marker;
                    // stop classifying and just find the brace.
                    self.skip_where_to_open_brace();
                    return saw_for;
                }
                TokenKind::Punct => match t.text {
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "<" if prev_opens_generics || self.pos_is_impl_generics() => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    "{" if paren == 0 && bracket == 0 && angle == 0 => return saw_for,
                    _ => {}
                },
                _ => {}
            }
            prev_opens_generics = t.kind == TokenKind::Ident
                || t.is_punct(">")
                || t.is_punct("::")
                || t.is_punct("<");
            self.bump();
        }
        saw_for
    }

    /// True when the cursor sits on the `<` directly after the `impl`
    /// keyword (`impl<T> ...`), where no identifier precedes it.
    fn pos_is_impl_generics(&self) -> bool {
        self.pos
            .checked_sub(1)
            .and_then(|i| self.tokens.get(i))
            .is_some_and(|t| t.is_ident("impl"))
    }

    /// From inside a where clause, finds the body `{` (not consumed).
    fn skip_where_to_open_brace(&mut self) {
        let mut paren = 0usize;
        let mut bracket = 0usize;
        let mut angle = 0usize;
        let mut prev_opens_generics = false;
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Punct {
                match t.text {
                    "(" => paren += 1,
                    ")" => paren = paren.saturating_sub(1),
                    "[" => bracket += 1,
                    "]" => bracket = bracket.saturating_sub(1),
                    "<" if prev_opens_generics => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    "{" if paren == 0 && bracket == 0 && angle == 0 => return,
                    _ => {}
                }
            }
            prev_opens_generics = t.kind == TokenKind::Ident
                || t.is_punct(">")
                || t.is_punct("::")
                || t.is_punct("<");
            self.bump();
        }
    }

    /// Consumes the `}` that closed an `items_until(Some(()))` block.
    fn expect_close_brace(&mut self) {
        if self.peek().is_some_and(|t| t.is_punct("}")) {
            self.bump();
        }
    }
}

/// True if the attribute body marks test-only code (`#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, ...))]`); `not(...)` disqualifies.
fn attr_is_test(body: &[Token<'_>]) -> bool {
    let has_test = body.iter().any(|t| t.is_ident("test"));
    let has_not = body.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<Item> {
        parse_items(&lex(src).tokens)
    }

    fn names(items: &[Item]) -> Vec<String> {
        items.iter().filter_map(|i| i.name.clone()).collect()
    }

    #[test]
    fn simple_items() {
        let items = parse(
            "pub fn a() {}\nstruct B;\npub enum C { X, Y }\nconst D: u8 = 0;\nstatic E: u8 = 1;\ntype F = u8;",
        );
        assert_eq!(names(&items), ["a", "B", "C", "D", "E", "F"]);
        assert_eq!(items[0].kind, ItemKind::Fn);
        assert_eq!(items[0].vis, Visibility::Public);
        assert_eq!(items[1].vis, Visibility::Private);
        assert_eq!(items[2].kind, ItemKind::Enum);
        assert_eq!(items[3].kind, ItemKind::Const);
        assert_eq!(items[4].kind, ItemKind::Static);
        assert_eq!(items[5].kind, ItemKind::TypeAlias);
    }

    #[test]
    fn nested_generics_do_not_swallow_the_body() {
        let items = parse(
            "pub fn f<T: Into<Vec<u8>>, const N: usize>(x: [T; N]) -> Vec<Vec<u8>>\n\
             where T: Clone + Into<Vec<Box<u8>>> {\n    let y = x;\n}\npub fn g() {}",
        );
        assert_eq!(names(&items), ["f", "g"]);
        assert_eq!(items[0].end_line, 4);
    }

    #[test]
    fn impl_trait_and_dyn_in_signatures() {
        let items = parse(
            "pub fn mk(v: impl Iterator<Item = u8>) -> impl Fn(u8) -> u8 { move |x| x }\n\
             pub fn dy(b: Box<dyn Fn() -> Vec<u8>>) {}",
        );
        assert_eq!(names(&items), ["mk", "dy"]);
    }

    #[test]
    fn comparison_in_body_is_not_a_generic() {
        // `a < b` inside a body must not unbalance the angle tracker for
        // the *next* item.
        let items = parse("fn f(a: u8, b: u8) -> bool { a < b }\npub struct S;\n");
        assert_eq!(names(&items), ["f", "S"]);
        assert_eq!(items[1].vis, Visibility::Public);
    }

    #[test]
    fn impl_blocks_classify_inherent_vs_trait() {
        let items = parse(
            "impl Foo { pub fn a(&self) {} fn b() {} }\n\
             impl<T: Clone> Display for Bar<T> { fn fmt(&self) {} }\n",
        );
        assert_eq!(items.len(), 2);
        assert!(!items[0].is_trait_impl);
        assert_eq!(names(&items[0].children), ["a", "b"]);
        assert_eq!(items[0].children[0].vis, Visibility::Public);
        assert!(items[1].is_trait_impl);
        assert_eq!(names(&items[1].children), ["fmt"]);
    }

    #[test]
    fn where_clause_with_hrtb_on_impl() {
        let items = parse(
            "impl<F> Runner<F> where for<'a> F: Fn(&'a str) -> u8 { pub fn go(&self) {} }",
        );
        assert_eq!(items.len(), 1);
        assert!(!items[0].is_trait_impl, "HRTB `for` must not mark a trait impl");
        assert_eq!(names(&items[0].children), ["go"]);
    }

    #[test]
    fn modules_nest() {
        let items = parse(
            "pub mod outer {\n  mod inner { pub fn deep() {} }\n  pub fn shallow() {}\n}\nmod leaf;",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].children.len(), 2);
        assert_eq!(names(&items[0].children[0].children), ["deep"]);
        assert_eq!(items[1].kind, ItemKind::Mod);
        assert_eq!(items[1].name.as_deref(), Some("leaf"));
    }

    #[test]
    fn trait_with_bodyless_and_default_methods() {
        let items = parse(
            "pub trait T: Clone where Self: Sized {\n  fn must(&self) -> u8;\n  fn dflt(&self) -> u8 { 0 }\n  type Assoc;\n  const K: u8;\n}",
        );
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, ItemKind::Trait);
        assert_eq!(names(&items[0].children), ["must", "dflt", "Assoc", "K"]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        let items = parse(
            "macro_rules! m { ($x:expr) => { pub fn not_an_item() { $x } }; }\npub fn real() {}",
        );
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].kind, ItemKind::MacroDef);
        assert_eq!(items[0].name.as_deref(), Some("m"));
        assert!(items[0].children.is_empty(), "macro bodies must not parse as items");
        assert_eq!(items[1].name.as_deref(), Some("real"));
    }

    #[test]
    fn qualifiers_and_abi_strings() {
        let items = parse(
            "pub const fn c() -> u8 { 0 }\npub async fn a() {}\npub unsafe fn u() {}\n\
             pub extern \"C\" fn x() {}\nconst PLAIN: u8 = 0;",
        );
        let got = names(&items);
        assert_eq!(got, ["c", "a", "u", "x", "PLAIN"]);
        assert!(items[..4].iter().all(|i| i.kind == ItemKind::Fn));
        assert_eq!(items[4].kind, ItemKind::Const);
    }

    #[test]
    fn attributes_and_test_marking() {
        let items = parse(
            "#[derive(Debug, Clone)]\n#[repr(C)]\npub struct S { x: u8 }\n\
             #[cfg(test)]\nmod tests { fn helper() {} }\n#[cfg(not(test))]\npub fn prod() {}",
        );
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].attr_line, 1);
        assert_eq!(items[0].kw_line, 3);
        assert!(!items[0].is_test);
        assert!(items[1].is_test);
        assert!(!items[2].is_test, "cfg(not(test)) is production code");
    }

    #[test]
    fn restricted_visibility() {
        let items = parse("pub(crate) fn a() {}\npub(in crate::x) fn b() {}\npub(super) fn c() {}");
        assert!(items.iter().all(|i| i.vis == Visibility::Restricted));
    }

    #[test]
    fn tuple_and_unit_structs_with_where() {
        let items = parse(
            "pub struct Unit;\npub struct Tup(pub u8, Vec<u8>);\n\
             pub struct W<T>(T) where T: Clone;\npub fn after() {}",
        );
        assert_eq!(names(&items), ["Unit", "Tup", "W", "after"]);
    }

    #[test]
    fn use_and_extern_crate() {
        let items = parse("pub use crate::a::{b, c as d};\nextern crate alloc;\npub fn f() {}");
        assert_eq!(items[0].kind, ItemKind::Use);
        assert_eq!(items[1].kind, ItemKind::ExternCrate);
        assert_eq!(items[2].name.as_deref(), Some("f"));
    }

    #[test]
    fn const_underscore_has_no_name() {
        let items = parse("const _: () = assert!(true);\npub fn f() {}");
        assert_eq!(items[0].kind, ItemKind::Const);
        assert!(items[0].name.is_none());
        assert_eq!(items[1].name.as_deref(), Some("f"));
    }

    #[test]
    fn malformed_input_terminates() {
        // Unbalanced braces, stray punctuation, truncated items: the
        // parser must always terminate and never panic.
        for src in [
            "fn f( {",
            "pub struct",
            "impl {{{",
            "}}}}",
            "pub fn a() { fn b( }",
            "macro_rules! broken {",
            "trait T { fn x(",
            "<<<>>> :: !! pub",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn line_spans_cover_attributes_and_bodies() {
        let src = "/// doc\n#[derive(Debug)]\npub struct S {\n    x: u8,\n}\n";
        let items = parse(src);
        assert_eq!(items[0].attr_line, 2);
        assert_eq!(items[0].kw_line, 3);
        assert_eq!(items[0].end_line, 5);
    }

    #[test]
    fn for_each_item_visits_nested() {
        let items = parse("mod m { impl X { pub fn f() {} } }");
        let mut seen = Vec::new();
        for_each_item(&items, &mut |item, parent| {
            seen.push((
                item.name.clone(),
                parent.and_then(|p| p.name.clone()),
            ));
        });
        assert_eq!(seen.len(), 3); // mod, impl, fn
        assert_eq!(seen[2].0.as_deref(), Some("f"));
    }
}
