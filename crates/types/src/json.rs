//! Minimal JSON support: a document model, a writer (compact and pretty),
//! a recursive-descent parser, and [`ToJson`] / [`FromJson`] conversion
//! traits.
//!
//! In-tree substrate for the `serde`/`serde_json` surface this workspace
//! used: struct ⇄ object, unit enum ⇄ string, `Vec`/array/tuple ⇄ array,
//! `Option` ⇄ `null`-or-value, and newtype ids serialized transparently.
//! Implementations for concrete types are generated with the
//! [`impl_json_struct!`](crate::impl_json_struct) and
//! [`impl_json_enum!`](crate::impl_json_enum) macros.
//!
//! Numbers keep integer fidelity: `u64`/`i64` round-trip exactly (they are
//! stored as integers, not `f64`), and non-finite floats serialize as
//! `null` (matching `serde_json`'s lossy behaviour) and parse back as NaN.

use std::fmt::Write as _;

/// A parsed JSON document.
///
/// Object members preserve insertion order (a `Vec`, not a map): the
/// documents handled here are small, and order-preservation keeps output
/// deterministic and diffable.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer that fits in `i64` (only produced for negative values).
    Int(i64),
    /// A non-negative integer (kept exact up to `u64::MAX`).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64` if it is numeric (`null` reads as NaN).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::UInt(u) => Some(u as f64),
            Value::Float(f) => Some(f),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a `u64` if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(u) => Some(u),
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Maximum nesting depth [`parse`] accepts before returning
/// [`JsonError::TooDeep`]. Deep enough for any document this workspace
/// produces, shallow enough that adversarial input cannot overflow the
/// parser's recursion stack.
pub const MAX_DEPTH: usize = 128;

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// Malformed document or failed conversion, with a human-readable
    /// message (parse errors carry a byte position).
    Msg(String),
    /// Nesting exceeded [`MAX_DEPTH`] at the given byte offset; returned
    /// instead of overflowing the recursion stack on adversarial input.
    TooDeep {
        /// Byte offset where one nesting level too many opened.
        at: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Msg(m) => write!(f, "json error: {m}"),
            JsonError::TooDeep { at } => write!(
                f,
                "json error: nesting deeper than {MAX_DEPTH} levels at byte {at}"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    /// Message-carrying error.
    pub fn msg(message: impl Into<String>) -> Self {
        JsonError::Msg(message.into())
    }

    /// Conversion-failure error: expected `what`, found `v`.
    pub fn expected(what: &str, v: &Value) -> Self {
        let found = match v {
            Value::Null => "null".to_string(),
            Value::Bool(b) => format!("bool {b}"),
            Value::Int(i) => format!("number {i}"),
            Value::UInt(u) => format!("number {u}"),
            Value::Float(f) => format!("number {f}"),
            Value::Str(s) => format!("string {s:?}"),
            Value::Arr(a) => format!("array of {} items", a.len()),
            Value::Obj(o) => format!("object with {} members", o.len()),
        };
        JsonError::msg(format!("expected {what}, found {found}"))
    }
}

/// Conversion into the JSON document model.
pub trait ToJson {
    /// Build the [`Value`] representing `self`.
    fn to_json(&self) -> Value;
}

/// Fallible conversion out of the JSON document model.
pub trait FromJson: Sized {
    /// Reconstruct `Self` from a [`Value`].
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{}` on f64 is the shortest representation that round-trips.
        let mut text = format!("{f}");
        // Keep floats syntactically floats (serde_json prints 1.0, not 1),
        // so integer-valued floats round-trip as Float rather than UInt.
        if !text.contains(['.', 'e', 'E']) {
            text.push_str(".0");
        }
        out.push_str(&text);
    } else {
        // serde_json serializes non-finite floats as null.
        out.push_str("null");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) {
    const PAD: &str = "  ";
    match v {
        Value::Arr(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=indent {
                    out.push_str(PAD);
                }
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push_str(PAD);
            }
            out.push(']');
        }
        Value::Obj(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                for _ in 0..=indent {
                    out.push_str(PAD);
                }
                write_escaped(out, k);
                out.push_str(": ");
                write_pretty(item, out, indent + 1);
            }
            out.push('\n');
            for _ in 0..indent {
                out.push_str(PAD);
            }
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

/// Serialize to a compact JSON string.
pub fn to_string(value: &impl ToJson) -> String {
    let mut out = String::new();
    write_compact(&value.to_json(), &mut out);
    out
}

/// Serialize to a human-readable, 2-space-indented JSON string.
pub fn to_string_pretty(value: &impl ToJson) -> String {
    let mut out = String::new();
    write_pretty(&value.to_json(), &mut out, 0);
    out
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.skip_ws();
        if depth >= MAX_DEPTH {
            return Err(JsonError::TooDeep { at: self.pos });
        }
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.expect_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_keyword("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.expect_keyword("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect_byte(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(members)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or '}' in object"));
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected ',' or ']' in array"));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a trailing \uXXXX.
                            self.expect_byte(b'\\')?;
                            self.expect_byte(b'u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(code)
                        } else {
                            char::from_u32(hi)
                        };
                        out.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: re-decode from the original slice.
                    let start = self.pos - 1;
                    let width = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return Err(self.err("invalid utf-8 byte in string")),
                    };
                    let end = start + width;
                    let slice = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated utf-8 sequence"))?;
                    let s = std::str::from_utf8(slice)
                        .map_err(|_| self.err("invalid utf-8 sequence in string"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .bump()
                .and_then(|b| (b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::msg(format!("invalid number at byte {start}")))?;
        if !is_float {
            // Integer fidelity: keep u64/i64 exact when they fit.
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(i) = stripped.parse::<u64>() {
                    if i <= i64::MAX as u64 {
                        return Ok(Value::Int(-(i as i64)));
                    }
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError::msg(format!("invalid number {text:?} at byte {start}")))
    }
}

/// Parse a JSON string into the document model.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    let v = p.parse_value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Parse a JSON string directly into a [`FromJson`] type.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

// ---------------------------------------------------------------------------
// Trait implementations for primitives and containers
// ---------------------------------------------------------------------------

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let u = v.as_u64().ok_or_else(|| JsonError::expected(stringify!($t), v))?;
                <$t>::try_from(u).map_err(|_| JsonError::msg(format!(
                    "{u} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Value {
        if *self >= 0 {
            Value::UInt(*self as u64)
        } else {
            Value::Int(*self)
        }
    }
}

impl FromJson for i64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match *v {
            Value::Int(i) => Ok(i),
            Value::UInt(u) => {
                i64::try_from(u).map_err(|_| JsonError::msg(format!("{u} out of range for i64")))
            }
            _ => Err(JsonError::expected("i64", v)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::expected("number", v))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(JsonError::expected("bool", v)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_str().map(str::to_string).ok_or_else(|| JsonError::expected("string", v))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}

/// `Ok` renders as its value and `Err` as `{"error": "<message>"}`, so a
/// fallible analysis renders exactly like its result when it succeeds.
impl<T: ToJson, E: std::fmt::Display> ToJson for Result<T, E> {
    fn to_json(&self) -> Value {
        match self {
            Ok(t) => t.to_json(),
            Err(e) => Value::Obj(vec![("error".to_string(), Value::Str(e.to_string()))]),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Arr(items) => items.iter().map(T::from_json).collect(),
            _ => Err(JsonError::expected("array", v)),
        }
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::msg(format!("expected array of {N} items, found {n}")))
    }
}

macro_rules! impl_json_tuple {
    ($n:literal; $($t:ident . $idx:tt),+) => {
        impl<$($t: ToJson),+> ToJson for ($($t,)+) {
            fn to_json(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($t: FromJson),+> FromJson for ($($t,)+) {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::Arr(items) if items.len() == $n => Ok((
                        $($t::from_json(&items[$idx])?,)+
                    )),
                    _ => Err(JsonError::expected(concat!("array of ", $n, " items"), v)),
                }
            }
        }
    };
}

impl_json_tuple!(2; A.0, B.1);
impl_json_tuple!(3; A.0, B.1, C.2);
impl_json_tuple!(4; A.0, B.1, C.2, D.3);

/// Fetch and convert a required object member; used by the impl macros.
pub fn field<T: FromJson>(v: &Value, name: &str) -> Result<T, JsonError> {
    let member = v
        .get(name)
        .ok_or_else(|| JsonError::msg(format!("missing field {name:?}")))?;
    T::from_json(member).map_err(|e| match e {
        JsonError::Msg(m) => JsonError::msg(format!("field {name:?}: {m}")),
        other => other,
    })
}

/// Implement [`ToJson`]/[`FromJson`] for a named-field struct, mapping it
/// to a JSON object with one member per listed field (serde's default
/// struct representation).
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![
                    $((stringify!($field).to_string(),
                       $crate::json::ToJson::to_json(&self.$field)),)+
                ])
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value)
                -> Result<Self, $crate::json::JsonError>
            {
                Ok($ty {
                    $($field: $crate::json::field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implement [`ToJson`]/[`FromJson`] for a unit-variant enum, mapping each
/// variant to its name as a JSON string (serde's default unit-variant
/// representation).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                $crate::json::Value::Str(name.to_string())
            }
        }
        impl $crate::json::FromJson for $ty {
            fn from_json(v: &$crate::json::Value)
                -> Result<Self, $crate::json::JsonError>
            {
                match v.as_str() {
                    $(Some(stringify!($variant)) => Ok($ty::$variant),)+
                    _ => Err($crate::json::JsonError::expected(
                        concat!("variant of ", stringify!($ty)), v)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Point {
        x: f64,
        label: String,
        count: u64,
    }
    impl_json_struct!(Point { x, label, count });

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    impl_json_enum!(Color { Red, Green });

    #[test]
    fn struct_roundtrip_and_shape() {
        let p = Point { x: 1.5, label: "a\"b".to_string(), count: u64::MAX };
        let s = to_string(&p);
        assert_eq!(s, format!("{{\"x\":1.5,\"label\":\"a\\\"b\",\"count\":{}}}", u64::MAX));
        let back: Point = from_str(&s).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn enum_as_string() {
        assert_eq!(to_string(&Color::Green), "\"Green\"");
        assert_eq!(from_str::<Color>("\"Red\"").unwrap(), Color::Red);
        assert!(from_str::<Color>("\"Blue\"").is_err());
    }

    #[test]
    fn result_renders_its_value_or_an_error_object() {
        let ok: Result<Color, String> = Ok(Color::Red);
        assert_eq!(to_string(&ok), to_string(&Color::Red));
        let err: Result<Color, String> = Err("no \"folds\"".to_string());
        assert_eq!(to_string(&err), "{\"error\":\"no \\\"folds\\\"\"}");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, Some(2.5f64)), (3, None)];
        let s = to_string(&v);
        assert_eq!(s, "[[1,2.5],[3,null]]");
        let back: Vec<(u32, Option<f64>)> = from_str(&s).unwrap();
        assert_eq!(back, v);
        let arr = [1u64, 2, 3];
        let back: [u64; 3] = from_str(&to_string(&arr)).unwrap();
        assert_eq!(back, arr);
        assert!(from_str::<[u64; 4]>("[1,2,3]").is_err());
    }

    #[test]
    fn nonfinite_floats_serialize_as_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        let back: f64 = from_str("null").unwrap();
        assert!(back.is_nan());
    }

    #[test]
    fn integer_fidelity_at_u64_range() {
        let giant = u64::MAX - 1;
        let back: u64 = from_str(&to_string(&giant)).unwrap();
        assert_eq!(back, giant);
        let neg: i64 = from_str("-42").unwrap();
        assert_eq!(neg, -42);
    }

    #[test]
    fn parser_handles_whitespace_escapes_and_unicode() {
        let v = parse(" { \"k\" : [ 1 , \"\\u00e9\\n\\uD83D\\uDE00\" , true ] } ").unwrap();
        let arr = v.get("k").unwrap();
        match arr {
            Value::Arr(items) => {
                assert_eq!(items[0], Value::UInt(1));
                assert_eq!(items[1], Value::Str("é\n😀".to_string()));
                assert_eq!(items[2], Value::Bool(true));
            }
            _ => panic!("expected array"),
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn pretty_output_parses_back() {
        let p = Point { x: -0.25, label: "hi".into(), count: 7 };
        let pretty = to_string_pretty(&p);
        assert!(pretty.contains("\n  \"x\": -0.25"));
        let back: Point = from_str(&pretty).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for f in [0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0] {
            let back: f64 = from_str(&to_string(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }
}
