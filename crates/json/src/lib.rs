//! Hand-rolled JSON for the FedL workspace.
//!
//! A tiny reader/writer replacing `serde`/`serde_json` so the workspace
//! builds with zero registry dependencies (see `docs/BUILD.md`). It
//! covers exactly what the repo needs — learner checkpoints, run traces
//! (JSON lines), and the figure results pipeline — while keeping the
//! emitted bytes compatible with what `serde_json` produced:
//!
//! * objects preserve insertion order (serde emits struct fields in
//!   declaration order);
//! * [`Value::to_json_pretty`](Value::to_json_pretty) uses serde_json's pretty layout
//!   (two-space indent, `": "` separators);
//! * floats print in shortest-roundtrip form with a trailing `.0` for
//!   integral values, integers print without a fraction, and non-finite
//!   floats serialize as `null` — all serde_json behaviors.
//!
//! The conversion traits [`ToJson`]/[`FromJson`] play the role of
//! `Serialize`/`Deserialize`. A struct whose JSON is its own field list
//! declares that list once with [`record!`], which writes both impls; the
//! few records of another shape implement them by hand.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Value::parse`] accepts; one
/// level more is an [`Error`]. The parser recurses once per level, so
/// without a cap a few tens of kilobytes of `[` — a frame any peer can
/// checksum correctly — overflow a thread's stack and abort the process.
/// What this workspace writes nests a handful of levels deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON document.
///
/// Objects are stored as insertion-ordered `(key, value)` pairs rather
/// than a map: the workspace writes small fixed-shape objects where
/// field order carries the serde struct-field order we want to
/// reproduce, and linear key lookup is faster than hashing at these
/// sizes anyway.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without a fractional part or exponent, e.g. `42`.
    Int(i64),
    /// Any other number, e.g. `0.5` or `1e-3`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion-ordered key/value pairs).
    Obj(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`] or a [`FromJson`] conversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
    /// Byte offset in the input for parse errors; `None` for shape
    /// errors raised during conversion.
    offset: Option<usize>,
}

impl Error {
    /// A conversion ("wrong shape") error.
    pub fn msg(msg: impl Into<String>) -> Self {
        Self { msg: msg.into(), offset: None }
    }

    fn at(msg: impl Into<String>, offset: usize) -> Self {
        Self { msg: msg.into(), offset: Some(offset) }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "{} at byte {o}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

// ---------------------------------------------------------------------------
// Construction and access helpers
// ---------------------------------------------------------------------------

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member of an object by key, or `None`. A parsed object keeps a
    /// duplicate key's every pair, in order; `get` returns the first, and
    /// the later ones are never read.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object member, as an [`Error`] when absent.
    pub fn field(&self, key: &str) -> Result<&Value, Error> {
        self.get(key).ok_or_else(|| Error::msg(format!("missing field `{key}`")))
    }

    /// Numeric value as `f64` (`Int` and `Float` both qualify; `null`
    /// reads as NaN, the inverse of writing non-finite floats as null).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Integer value, if the number is integral.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Some(f as i64),
            _ => None,
        }
    }

    /// Non-negative integer as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|i| usize::try_from(i).ok())
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String contents.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::Int(u as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<f32> for Value {
    fn from(f: f32) -> Self {
        Value::Float(f as f64)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// A buffer [`Value::write_json`] appends to: a `String`, or the bytes
/// of a frame that carries the document behind a header it already
/// holds (`fedl_store`'s envelope writer), where the document is rendered
/// in place and never re-validated as UTF-8.
pub trait JsonSink {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
}

impl JsonSink for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

impl JsonSink for Vec<u8> {
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// [`fmt::Write`] into a sink, noting whether what went through spelled
/// a fraction or an exponent.
struct Spelled<'a, S> {
    out: &'a mut S,
    fraction: bool,
}

impl<S: JsonSink> fmt::Write for Spelled<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.fraction |= s.bytes().any(|b| b == b'.' || b == b'e' || b == b'E');
        self.out.push_str(s);
        Ok(())
    }
}

/// `value`'s `Display` form appended to `out`; `true` when it spelled a
/// fraction or an exponent.
fn write_display(out: &mut impl JsonSink, value: impl fmt::Display) -> bool {
    let mut spelled = Spelled { out, fraction: false };
    write!(spelled, "{value}").expect("a sink cannot fail");
    spelled.fraction
}

/// Writes an integer's decimal digits (what `Display` spells), without
/// the formatting machinery: an integer is the most common thing a frame
/// or a checkpoint holds.
fn write_int(out: &mut impl JsonSink, i: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = i.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if i < 0 {
        out.push_str("-");
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Writes a float the way serde_json does: shortest-roundtrip digits,
/// a trailing `.0` for integral finite values, `null` for NaN/inf.
fn write_f64(out: &mut impl JsonSink, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if !write_display(out, v) {
        out.push_str(".0");
    }
}

/// Bytes a string literal must escape: `"`, `\` and the control range.
/// All are ASCII, so a match is always a char boundary. The writer
/// escapes exactly these; the reader ends a run at them and refuses the
/// control range raw.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Width of one scan step of [`first_escape`].
const ESCAPE_BLOCK: usize = 64;

/// Index of the first byte of `bytes` that needs escaping. A block is
/// tested as a whole — the fold has no early exit, so it compiles to
/// vector compares — and searched byte by byte only once it is known
/// to hold a match.
fn first_escape(bytes: &[u8]) -> Option<usize> {
    let mut blocks = bytes.chunks_exact(ESCAPE_BLOCK);
    for (i, block) in (&mut blocks).enumerate() {
        if block.iter().fold(false, |any, &b| any | needs_escape(b)) {
            let at = block.iter().position(|&b| needs_escape(b)).expect("the block matched");
            return Some(i * ESCAPE_BLOCK + at);
        }
    }
    let tail = blocks.remainder();
    tail.iter().position(|&b| needs_escape(b)).map(|at| bytes.len() - tail.len() + at)
}

/// Writes `s` as a JSON string literal. Clean runs are copied in one
/// piece, so a megabyte string value costs one block-wise scan and one
/// `memcpy`, not a push per character.
fn write_escaped(out: &mut impl JsonSink, s: &str) {
    out.push_str("\"");
    let mut rest = s;
    while let Some(i) = first_escape(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            b => {
                write_display(out, format_args!("\\u{b:04x}"));
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push_str("\"");
}

impl Value {
    /// Compact serialization (serde_json `to_string` layout: no spaces).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.json_len_hint());
        self.write_json(&mut out);
        out
    }

    /// A lower bound on the length of [`Self::to_json`] — numbers counted
    /// at their shortest spelling, strings unescaped: what to reserve
    /// before rendering, so a document that is mostly string (a packed
    /// column frame) is written into one allocation instead of a
    /// doubling chain.
    pub fn json_len_hint(&self) -> usize {
        // Brackets, then one separator between neighbours.
        let wrapped = |items: usize, inner: usize| 2 + inner + items.saturating_sub(1);
        match self {
            Value::Null | Value::Bool(_) => 4,
            Value::Int(_) => 1,
            Value::Float(_) => 3,
            Value::Str(s) => s.len() + 2,
            Value::Arr(items) => wrapped(items.len(), items.iter().map(Value::json_len_hint).sum()),
            Value::Obj(pairs) => wrapped(
                pairs.len(),
                pairs.iter().map(|(k, v)| k.len() + 3 + v.json_len_hint()).sum(),
            ),
        }
    }

    /// Pretty serialization (serde_json `to_string_pretty` layout:
    /// two-space indent, `": "` after keys, one element per line).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// [`Self::to_json`] appended to `out` — for callers that render a
    /// document behind a header they already hold (the store envelope,
    /// a wire frame) without an intermediate copy.
    pub fn write_json(&self, out: &mut impl JsonSink) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => write_int(out, *i),
            Value::Float(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push_str("[");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    item.write_json(out);
                }
                out.push_str("]");
            }
            Value::Obj(pairs) => {
                out.push_str("{");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",");
                    }
                    write_escaped(out, k);
                    out.push_str(":");
                    v.write_json(out);
                }
                out.push_str("}");
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        const INDENT: &str = "  ";
        match self {
            Value::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    for _ in 0..=depth {
                        out.push_str(INDENT);
                    }
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                for _ in 0..depth {
                    out.push_str(INDENT);
                }
                out.push('}');
            }
            other => other.write_json(out),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    /// The document when it is known to be UTF-8 ([`Value::parse`]): runs
    /// of a string literal are sliced from it as `&str`, so its UTF-8 is
    /// never checked twice. `None` for a [`Cursor`], which checks each run
    /// it reads on its own.
    text: Option<&'a str>,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    /// `bytes[start..end]` as text, or `None` where that is not UTF-8.
    fn slice(&self, start: usize, end: usize) -> Option<&'a str> {
        match self.text {
            Some(text) => text.get(start..end),
            None => std::str::from_utf8(&self.bytes[start..end]).ok(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(format!("expected `{}`", b as char), self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::at("unexpected end of input", self.pos)),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::at("invalid literal", self.pos))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(Error::at(format!("unexpected byte `{}`", b as char), self.pos)),
        }
    }

    /// Parses one array or object one level further down, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::at(format!("nesting deeper than {MAX_DEPTH} levels"), self.pos));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(Error::at("expected `,` or `]`", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(Error::at("expected `,` or `}`", self.pos)),
            }
        }
    }

    /// Four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| {
                hex.iter().try_fold(0, |code, &b| Some(code << 4 | (b as char).to_digit(16)?))
            })
            .ok_or_else(|| Error::at("bad \\u escape", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// A string literal, consumed run by run: everything up to the next
    /// byte the writer would have escaped is found by the writer's own
    /// block scan ([`first_escape`]), validated and copied in one piece,
    /// so the cost is linear in the literal's length (a per-character
    /// `from_utf8` over the rest of the input made a key ahead of a
    /// megabyte value re-validate that megabyte once per key byte). A raw
    /// control character (0x00–0x1F) inside the literal is an error at
    /// its offset: RFC 8259 §7 requires those escaped.
    fn string(&mut self) -> Result<String, Error> {
        let open = self.pos;
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = &self.bytes[self.pos..];
            let len = first_escape(run).ok_or_else(|| Error::at("unterminated string", open))?;
            if run[len] < 0x20 {
                return Err(Error::at("unescaped control character in string", self.pos + len));
            }
            // The bytes that end a run are ASCII, so a run ends on a char
            // boundary: in a document known to be UTF-8 this slices in O(1)
            // where `from_utf8` would re-validate the run.
            let text = self
                .slice(self.pos, self.pos + len)
                .ok_or_else(|| Error::at("invalid UTF-8 in string", self.pos))?;
            out.push_str(text);
            self.pos += len + 1;
            if run[len] == b'"' {
                return Ok(out);
            }
            let esc = *self.bytes.get(self.pos).ok_or_else(|| Error::at("bad escape", self.pos))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let mut code = self.hex4()?;
                    // Surrogate pairs: only the BMP subset the writer
                    // emits is needed, but decode pairs anyway.
                    if (0xD800..0xDC00).contains(&code) {
                        if !self.eat_literal("\\u") {
                            return Err(Error::at("lone surrogate", self.pos));
                        }
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(Error::at("lone surrogate", self.pos));
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| Error::at("invalid codepoint", self.pos))?,
                    );
                }
                _ => return Err(Error::at("unknown escape", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Every byte scanned is ASCII.
        let text = self.slice(start, self.pos).ok_or_else(|| Error::at("bad number", start))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::at(format!("bad number `{text}`"), start))
        } else {
            match text.parse::<i64>() {
                Ok(i) => Ok(Value::Int(i)),
                // Out-of-range integers degrade to float, as serde_json
                // does with arbitrary_precision off.
                Err(_) => text
                    .parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::at(format!("bad number `{text}`"), start)),
            }
        }
    }
}

impl Value {
    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Value, Error> {
        let mut p = Parser { text: Some(text), bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::at("trailing characters", p.pos));
        }
        Ok(v)
    }
}

/// A forward reader over the bytes of one compact JSON document, for a
/// caller that knows the document's shape and reads it token by token
/// straight into its own types (`fedl-serve`'s wire frames) instead of
/// building a [`Value`] tree. Values are read by the parser
/// [`Value::parse`] runs, so a number or string read here is the one
/// `Value::parse` would have produced at the same offset. The bytes are
/// not checked as UTF-8 up front: a string read checks the runs it copies.
pub struct Cursor<'a> {
    parser: Parser<'a>,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { parser: Parser { text: None, bytes, pos: 0, depth: 0 } }
    }

    /// Consumes `token` if the unread bytes begin with it.
    pub fn eat(&mut self, token: &[u8]) -> bool {
        let p = &mut self.parser;
        let found = p.bytes[p.pos..].starts_with(token);
        if found {
            p.pos += token.len();
        }
        found
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        &self.parser.bytes[self.parser.pos..]
    }

    /// `true` once every byte is read.
    pub fn at_end(&self) -> bool {
        self.rest().is_empty()
    }

    /// One value, as [`Value::parse`] reads it here (leading whitespace
    /// included).
    pub fn value(&mut self) -> Result<Value, Error> {
        self.parser.value()
    }

    /// One string literal, escapes decoded, as [`Value::parse`] reads it.
    pub fn string(&mut self) -> Result<String, Error> {
        self.parser.string()
    }

    /// The bytes between the quotes of a string literal that holds no
    /// escape, consumed; `None`, with nothing consumed, for anything else.
    /// The bytes are not checked as UTF-8.
    pub fn raw_str(&mut self) -> Option<&'a [u8]> {
        let inner = self.rest().strip_prefix(b"\"")?;
        let len = first_escape(inner)?;
        if inner[len] != b'"' {
            return None;
        }
        self.parser.pos += len + 2;
        Some(&inner[..len])
    }
}

/// Reads JSON Lines leniently: each non-blank line is parsed as one
/// document and handed to `row`. A line that does not parse, or that
/// `row` refuses — a torn tail from a killed writer, a hand-edited
/// typo — is skipped, never fatal; returns how many were.
pub fn parse_lines(text: &str, mut row: impl FnMut(&Value) -> Result<(), Error>) -> usize {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .filter(|line| Value::parse(line).and_then(|v| row(&v)).is_err())
        .count()
}

// ---------------------------------------------------------------------------
// Conversion traits
// ---------------------------------------------------------------------------

/// Conversion into a [`Value`] (the workspace's `Serialize`).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json_value(&self) -> Value;
}

/// Conversion out of a [`Value`] (the workspace's `Deserialize`).
pub trait FromJson: Sized {
    /// Reconstructs `Self`, with an [`Error`] on shape mismatch.
    fn from_json_value(v: &Value) -> Result<Self, Error>;
}

impl ToJson for f64 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl FromJson for f64 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::msg("expected number"))
    }
}
impl ToJson for f32 {
    fn to_json_value(&self) -> Value {
        Value::Float(*self as f64)
    }
}
impl FromJson for f32 {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().map(|f| f as f32).ok_or_else(|| Error::msg("expected number"))
    }
}
/// Unsigned integers ride as JSON ints and are read back range-checked:
/// a value the type cannot hold is an error, never wrapped into one it
/// can. (A `u64` above `i64::MAX` is written wrapped and so refused on
/// read; what is written here stays below it.)
macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json_value(v: &Value) -> Result<Self, Error> {
                let i = v.as_i64().filter(|&i| i >= 0);
                let i = i.ok_or_else(|| Error::msg("expected non-negative integer"))?;
                <$t>::try_from(i).map_err(|_| Error::msg(format!("{i} out of {} range", stringify!($t))))
            }
        }
    )*};
}
unsigned!(usize, u32, u64);
impl ToJson for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_bool().ok_or_else(|| Error::msg("expected bool"))
    }
}
impl ToJson for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::msg("expected string"))
    }
}
impl<T: ToJson> ToJson for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json_value).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        v.as_arr()
            .ok_or_else(|| Error::msg("expected array"))?
            .iter()
            .map(T::from_json_value)
            .collect()
    }
}
impl<T: ToJson> ToJson for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_json_value(),
            None => Value::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json_value(v).map(Some)
        }
    }
}
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}
impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![self.0.to_json_value(), self.1.to_json_value(), self.2.to_json_value()])
    }
}
impl ToJson for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}
impl FromJson for Value {
    fn from_json_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
impl<K: Ord + ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.to_string(), v.to_json_value())).collect())
    }
}

// ---------------------------------------------------------------------------
// Typed writing and reading without a tree
// ---------------------------------------------------------------------------

/// A value that writes its compact JSON straight into a sink: the bytes
/// `to_json_value().write_json(out)` spells, without building the
/// [`Value`] (`fedl-serve` writes every wire field this way).
pub trait WriteJson {
    /// An upper bound on the bytes [`Self::write_json`] appends: what to
    /// reserve so the write never grows its buffer.
    fn json_len(&self) -> usize;
    /// Appends the value's compact JSON.
    fn write_json(&self, out: &mut impl JsonSink);
}

/// A value read straight off a [`Cursor`]: what [`FromJson`] makes of the
/// value there, without building the [`Value`] for a string or an array.
/// `None` — any refusal, and any shape this forward read does not take —
/// means "read the document through [`Value::parse`] instead", which
/// then gives the refusal its error.
pub trait ReadJson: Sized {
    /// Reads the value at the cursor, or declines.
    fn read_json(cursor: &mut Cursor<'_>) -> Option<Self>;
}

/// Bytes [`write_int`] spells for `i`.
fn int_len(i: i64) -> usize {
    usize::from(i < 0) + i.unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// An upper bound on the bytes [`write_f64`] spells for `v`. `Display`
/// prints the shortest digits that round-trip (17 at most) without an
/// exponent, so besides those digits, a sign, a point and a `.0` there
/// are only the zeros that place them: at most one per factor of ten in
/// the magnitude, which the binary exponent bounds (log10 2 < 0.30103).
fn f64_len_bound(v: f64) -> usize {
    if !v.is_finite() || v == 0.0 {
        return 4;
    }
    let biased = (v.to_bits() >> 52 & 0x7ff) as i64;
    // A subnormal's magnitude goes down to 2^-1074.
    let exp2 = if biased == 0 { 1074 } else { (biased - 1023).unsigned_abs() as usize };
    22 + (exp2 * 30_103).div_ceil(100_000)
}

impl WriteJson for f64 {
    fn json_len(&self) -> usize {
        f64_len_bound(*self)
    }
    fn write_json(&self, out: &mut impl JsonSink) {
        write_f64(out, *self);
    }
}

impl WriteJson for f32 {
    fn json_len(&self) -> usize {
        f64_len_bound(*self as f64)
    }
    fn write_json(&self, out: &mut impl JsonSink) {
        write_f64(out, *self as f64);
    }
}

/// As [`ToJson`] writes them: the value as an `i64`.
macro_rules! write_int {
    ($($t:ty),*) => {$(
        impl WriteJson for $t {
            fn json_len(&self) -> usize {
                int_len(*self as i64)
            }
            fn write_json(&self, out: &mut impl JsonSink) {
                write_int(out, *self as i64);
            }
        }
    )*};
}
write_int!(usize, u32, u64);

impl WriteJson for bool {
    fn json_len(&self) -> usize {
        5
    }
    fn write_json(&self, out: &mut impl JsonSink) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl WriteJson for String {
    /// An escape is two bytes or six (`\u00XX`).
    fn json_len(&self) -> usize {
        2 + self.len() + 5 * self.bytes().filter(|&b| needs_escape(b)).count()
    }
    fn write_json(&self, out: &mut impl JsonSink) {
        write_escaped(out, self);
    }
}

impl<T: WriteJson> WriteJson for Vec<T> {
    fn json_len(&self) -> usize {
        2 + self.len().saturating_sub(1) + self.iter().map(T::json_len).sum::<usize>()
    }
    fn write_json(&self, out: &mut impl JsonSink) {
        out.push_str("[");
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(",");
            }
            item.write_json(out);
        }
        out.push_str("]");
    }
}

/// Scalars: the parser's value, converted by the type's [`FromJson`].
macro_rules! read_scalar {
    ($($t:ty),*) => {$(
        impl ReadJson for $t {
            fn read_json(cursor: &mut Cursor<'_>) -> Option<Self> {
                <$t>::from_json_value(&cursor.value().ok()?).ok()
            }
        }
    )*};
}
read_scalar!(f64, f32, usize, u32, u64, bool);

impl ReadJson for String {
    fn read_json(cursor: &mut Cursor<'_>) -> Option<Self> {
        cursor.string().ok()
    }
}

impl<T: ReadJson> ReadJson for Vec<T> {
    /// Compact arrays only (no whitespace around `[`, `,` or `]`), sized
    /// by the commas ahead of the first `]`: exact for an array of
    /// numbers, so the vector is allocated once.
    fn read_json(cursor: &mut Cursor<'_>) -> Option<Self> {
        if !cursor.eat(b"[") {
            return None;
        }
        if cursor.eat(b"]") {
            return Some(Vec::new());
        }
        let rest = cursor.rest();
        let end = rest.iter().position(|&b| b == b']').unwrap_or(rest.len());
        let mut items = Vec::with_capacity(1 + rest[..end].iter().filter(|&&b| b == b',').count());
        loop {
            items.push(T::read_json(cursor)?);
            if cursor.eat(b"]") {
                return Some(items);
            }
            if !cursor.eat(b",") {
                return None;
            }
        }
    }
}

/// Free-function form of [`Value::obj`] for terse call sites.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    Value::obj(pairs)
}

/// Reads a required struct field of a [`FromJson`] type.
pub fn read_field<T: FromJson>(obj: &Value, key: &str) -> Result<T, Error> {
    T::from_json_value(obj.field(key)?).map_err(|e| Error::msg(format!("field `{key}`: {e}")))
}

/// A struct declared with [`record!`]: its fields as `(key, value)`
/// pairs in declaration order — the object its [`ToJson`] writes, for a
/// caller that places them among others (a checkpoint's stamp, an
/// event's fields).
pub trait Record {
    /// The declared fields, each under its own name.
    fn fields(&self) -> Vec<(&'static str, Value)>;
}

/// Declares a struct's JSON form once: its keys, which are its field
/// names, in the order they are written. Key order is the compatibility
/// contract of every checkpoint, cache key and fingerprint a record
/// lands in, so a field is added or moved here and nowhere else.
///
/// `record!(T { a, b })` writes [`Record`], [`ToJson`] (an object of
/// those keys) and [`FromJson`] (each key through [`read_field`], so a
/// missing or mistyped key is an error naming it). Fields that are not
/// written — runtime-only buffers, diagnostics — follow a `;` as the
/// rest of the struct literal, `field: expr` or `..base`.
/// `record!(encode T { a, b })` writes the first two only, for a
/// canonical text nothing reads back.
///
/// ```
/// struct Step { beta: f64, delta: f64, calls: usize }
/// fedl_json::record!(Step { beta, delta; calls: 0 });
///
/// use fedl_json::{FromJson, ToJson};
/// let text = Step { beta: 0.5, delta: 2.0, calls: 9 }.to_json_value().to_json();
/// assert_eq!(text, r#"{"beta":0.5,"delta":2.0}"#);
/// let back = Step::from_json_value(&fedl_json::Value::parse(&text).unwrap()).unwrap();
/// assert_eq!((back.beta, back.delta, back.calls), (0.5, 2.0, 0));
/// ```
#[macro_export]
macro_rules! record {
    (encode $ty:ident { $($key:ident),+ $(,)? }) => {
        impl $crate::Record for $ty {
            fn fields(&self) -> Vec<(&'static str, $crate::Value)> {
                vec![$((stringify!($key), $crate::ToJson::to_json_value(&self.$key))),+]
            }
        }
        impl $crate::ToJson for $ty {
            fn to_json_value(&self) -> $crate::Value {
                $crate::Value::obj($crate::Record::fields(self))
            }
        }
    };
    ($ty:ident { $($key:ident),+ $(,)? $(; $($rest:tt)*)? }) => {
        $crate::record!(encode $ty { $($key),+ });
        impl $crate::FromJson for $ty {
            fn from_json_value(v: &$crate::Value) -> Result<Self, $crate::Error> {
                Ok(Self { $($key: $crate::read_field(v, stringify!($key))?,)+ $($($rest)*)? })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_compact() {
        let text = r#"{"a":1,"b":[true,null,-2.5],"c":"x\"y","d":{"e":0.1}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn parse_lines_skips_and_counts_what_it_cannot_read() {
        let text = "{\"n\":1}\n\n  \nnot json\n{\"n\":\"two\"}\n{\"n\":3}\n{\"n\":4";
        let mut seen = Vec::new();
        let skipped = parse_lines(text, |v| {
            seen.push(read_field::<usize>(v, "n")?);
            Ok(())
        });
        assert_eq!(seen, vec![1, 3], "good lines around the bad ones survive");
        assert_eq!(skipped, 3, "unparseable, refused by the row, torn tail; blanks are not lines");
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = Value::obj([
            ("policy", Value::from("FedL")),
            ("iid", Value::from(true)),
            ("budget", Value::Float(30000.0)),
            ("epochs", Value::Arr(vec![Value::obj([("epoch", Value::from(0usize))])])),
            ("empty", Value::Arr(vec![])),
        ]);
        let want = "{\n  \"policy\": \"FedL\",\n  \"iid\": true,\n  \"budget\": 30000.0,\n  \"epochs\": [\n    {\n      \"epoch\": 0\n    }\n  ],\n  \"empty\": []\n}";
        assert_eq!(v.to_json_pretty(), want);
    }

    #[test]
    fn float_formatting_matches_serde_json() {
        let mut out = String::new();
        write_f64(&mut out, 30000.0);
        assert_eq!(out, "30000.0");
        out.clear();
        write_f64(&mut out, 0.653145042139057);
        assert_eq!(out, "0.653145042139057");
        out.clear();
        write_f64(&mut out, -2.0);
        assert_eq!(out, "-2.0");
        out.clear();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
        out.clear();
        write_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn integers_stay_integers() {
        let v = Value::parse("[0, 42, -7, 9223372036854775807]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0], Value::Int(0));
        assert_eq!(items[3], Value::Int(i64::MAX));
        assert_eq!(v.to_json(), "[0,42,-7,9223372036854775807]");
    }

    #[test]
    fn floats_with_exponents_parse() {
        let v = Value::parse("[1e3, -2.5E-2, 0.0]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_f64().unwrap(), 1000.0);
        assert_eq!(items[1].as_f64().unwrap(), -0.025);
        assert_eq!(items[2], Value::Float(0.0));
    }

    #[test]
    fn null_reads_as_nan() {
        let v = Value::parse("null").unwrap();
        assert!(v.as_f64().unwrap().is_nan());
        assert_eq!(Option::<f64>::from_json_value(&v).unwrap(), None);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600} \u{1}";
        let v = Value::Str(original.to_string());
        let text = v.to_json();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.as_str().unwrap(), original);
    }

    #[test]
    fn unicode_escape_parses() {
        let v = Value::parse(r#""A😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "A\u{1F600}");
    }

    #[test]
    fn string_runs_hold_multibyte_utf8_and_split_at_escapes() {
        // Two runs of multi-byte text split by one escape; a surrogate
        // pair between two more runs.
        let v = Value::parse(r#""héllo wörld ✓\nдалее 日本語\ud83d\ude00tail""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo wörld ✓\nдалее 日本語\u{1F600}tail");
        // Adjacent escapes leave empty runs between them.
        let v = Value::parse(r#""\\\"\/\b\f\u0041""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\\\"/\u{8}\u{c}A");
        // Escapes the writer emits come back as the same text, runs and all.
        let original = "α\"β\\γ\nδ\u{1}ε\tζ\rη";
        let text = Value::Str(original.to_string()).to_json();
        assert_eq!(text, "\"α\\\"β\\\\γ\\nδ\\u0001ε\\tζ\\rη\"");
        assert_eq!(Value::parse(&text).unwrap().as_str().unwrap(), original);
    }

    /// The string literal one character at a time: what the block-wise
    /// writer must spell, wherever its blocks fall.
    fn escaped_per_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn escapes_are_found_wherever_the_scan_blocks_fall() {
        // Lengths around one and two blocks, with an escape as the first
        // byte, the last byte, on either side of each block edge, nowhere,
        // and everywhere; a two-byte character straddling the first edge.
        for len in [0, 1, 62, 63, 64, 65, 66, 127, 128, 129, 200] {
            let clean = "a".repeat(len);
            let mut cases = vec![clean.clone(), "\n".repeat(len)];
            for at in [0, 1, 62, 63, 64, 65, 126, 127, 128, len.saturating_sub(1)] {
                if at < len {
                    for escape in ["\"", "\\", "\t", "\u{1f}"] {
                        let mut s = clean.clone();
                        s.replace_range(at..at + 1, escape);
                        cases.push(s);
                    }
                }
            }
            if len >= 66 {
                let mut s = clean.clone();
                s.replace_range(63..65, "é");
                s.replace_range(len - 1..len, "\"");
                cases.push(s);
            }
            for s in cases {
                let rendered = Value::Str(s.clone()).to_json();
                assert_eq!(rendered, escaped_per_char(&s), "{s:?}");
                assert_eq!(Value::parse(&rendered).unwrap().as_str().unwrap(), s);
            }
        }
    }

    #[test]
    fn the_length_hint_never_exceeds_the_rendering() {
        let doc = obj(vec![
            ("n", Value::Null),
            ("t", Value::Bool(true)),
            ("f", Value::Bool(false)),
            ("i", Value::Int(-120)),
            ("x", Value::Float(0.5)),
            ("nan", Value::Float(f64::NAN)),
            ("s", Value::from("quote \" and \n newline")),
            ("empty", Value::Arr(vec![])),
            ("arr", Value::Arr(vec![Value::Int(1), Value::from("é"), Value::Obj(vec![])])),
        ]);
        assert!(doc.json_len_hint() <= doc.to_json().len());
        // Exact where there is nothing to escape and no number to spell:
        // a packed column frame reserves its whole body.
        let frame = obj(vec![("type", Value::from("part")), ("column", Value::from("QUJD"))]);
        assert_eq!(frame.json_len_hint(), frame.to_json().len());
        assert_eq!(Value::Arr(vec![]).json_len_hint(), 2);
    }

    #[test]
    fn malformed_strings_are_errors_with_offsets() {
        let offset = |text: &str| Value::parse(text).unwrap_err().offset;
        // An unterminated run points at the string's opening quote —
        // also when an escape split it and the second run never ends.
        assert_eq!(offset(r#"{"key": "never closed"#), Some(8));
        assert_eq!(offset(r#"["ok", "one\ntwo"#), Some(7));
        // Surrogates: lone high, high followed by a non-low, lone low.
        for text in [r#""\ud83d""#, r#""\ud83dx""#, r#""\ud83d\u0041""#, r#""\ude00""#] {
            assert!(Value::parse(text).is_err(), "{text}");
        }
        for text in [r#""\u12""#, r#""\u+123""#, r#""\uzzzz""#, r#""\q""#, "\"\\"] {
            assert!(Value::parse(text).is_err(), "{text}");
        }
    }

    #[test]
    fn raw_control_characters_are_refused_and_escaped_ones_round_trip() {
        for b in 0u8..0x20 {
            let c = char::from(b);
            // Raw, alone and behind a run that crosses a scan block: an
            // error at the byte itself, in a value and in a key.
            for (text, at) in [
                (format!("\"{c}\""), 1),
                (format!("[\"{}{c}tail\"]", "a".repeat(70)), 72),
                (format!("{{\"k{c}\":1}}"), 3),
            ] {
                let err = Value::parse(&text).unwrap_err();
                assert_eq!(err.offset, Some(at), "byte {b:#04x} in {text:?}");
                assert!(err.to_string().contains("control character"), "{err}");
            }
            // Escaped as the writer spells it, and as `\u00XX`.
            let s = format!("x{c}y");
            assert_eq!(
                Value::parse(&Value::from(s.as_str()).to_json()).unwrap().as_str(),
                Some(&*s)
            );
            let spelled = format!("\"x\\u{:04X}y\"", b);
            assert_eq!(Value::parse(&spelled).unwrap().as_str(), Some(&*s));
        }
        // 0x7F and everything above it are not control characters here.
        assert_eq!(Value::parse("\"\u{7f}é\"").unwrap().as_str(), Some("\u{7f}é"));
    }

    #[test]
    fn escapes_at_a_megabyte_strings_block_edges_parse_equal() {
        for at in [63usize, 64, 65] {
            for escape in ["\"", "\\", "\n", "\u{1f}"] {
                let mut s = "QUJD".repeat(1 << 18);
                s.replace_range(at..at + 1, escape);
                s.replace_range(s.len() - at..s.len() - at + 1, escape);
                let text = Value::Str(s.clone()).to_json();
                assert_eq!(Value::parse(&text).unwrap().as_str(), Some(&*s), "{escape:?} at {at}");
            }
        }
    }

    #[test]
    fn a_16_mb_string_parses_and_rerenders_linearly() {
        // The regression guard for the quadratic: a `from_utf8` over the
        // remaining input per character would not finish here; the run
        // scanner takes milliseconds. A key ahead of the value and a
        // value behind it make sure neither end re-scans the middle.
        let big = "QUJD".repeat(4 << 20);
        let text = format!(r#"{{"head":1,"column":"{big}","tail":[2.5,"é"]}}"#);
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("column").unwrap().as_str().unwrap().len(), 16 << 20);
        assert_eq!(v.to_json(), text);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Value::parse("not json").is_err());
        assert!(Value::parse("{\"a\":1,}").is_err());
        assert!(Value::parse("[1, 2").is_err());
        assert!(Value::parse("{} trailing").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn object_order_and_lookup() {
        let v = Value::parse(r#"{"z":1,"a":2,"z":3}"#).unwrap();
        // First match wins on lookup; order is preserved on write.
        assert_eq!(v.get("z").unwrap(), &Value::Int(1));
        assert_eq!(v.to_json(), r#"{"z":1,"a":2,"z":3}"#);
        assert!(v.get("missing").is_none());
        assert!(v.field("missing").is_err());
    }

    #[test]
    fn conversion_traits_round_trip() {
        let xs = vec![1.5f64, -0.25, 3.0];
        let back = Vec::<f64>::from_json_value(&xs.to_json_value()).unwrap();
        assert_eq!(xs, back);
        let opt: Vec<Option<usize>> = vec![Some(3), None, Some(0)];
        let back = Vec::<Option<usize>>::from_json_value(&opt.to_json_value()).unwrap();
        assert_eq!(opt, back);
    }

    #[test]
    fn read_field_reports_key() {
        let v = Value::parse(r#"{"good": 1}"#).unwrap();
        let err = read_field::<f64>(&v, "bad").unwrap_err();
        assert!(err.to_string().contains("bad"));
        assert_eq!(read_field::<usize>(&v, "good").unwrap(), 1);
    }

    /// `value` written by [`WriteJson`]: the bytes its tree spells, within
    /// the bound it reserves.
    fn typed_write<T: WriteJson + ToJson>(value: &T) {
        let mut typed = String::new();
        value.write_json(&mut typed);
        assert_eq!(typed, value.to_json_value().to_json());
        assert!(typed.len() <= value.json_len(), "{typed} over its bound {}", value.json_len());
    }

    #[test]
    fn typed_writes_spell_what_the_tree_spells_within_their_bound() {
        // Random bits, and the floats whose spelling is longest: the
        // largest and smallest magnitudes, with and without the `.0`.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut floats = vec![
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE * 0.999,
            f64::MAX,
            f64::MIN,
            1e16,
            1e17,
            -123_456_789_012_345_680.0,
            1.0 / 3.0,
            -1e-7,
            f64::NAN,
            f64::NEG_INFINITY,
        ];
        floats.extend((0..50_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        }));
        for x in floats {
            typed_write(&x);
            typed_write(&(x as f32));
            typed_write(&(x.to_bits() >> (x.to_bits() % 64)));
        }
        for i in [0u64, 9, 10, 99, 100, u32::MAX as u64, i64::MAX as u64, u64::MAX] {
            typed_write(&i);
            typed_write(&(i as usize));
            typed_write(&(i as u32));
        }
        typed_write(&true);
        typed_write(&false);
        for s in ["", "FedL", "quote \" backslash \\ newline \n \u{1} \u{1f}", "é✓\t"] {
            typed_write(&s.to_string());
        }
        typed_write(&vec![1.5f64, -0.0, 1e300, f64::NAN]);
        typed_write(&Vec::<usize>::new());
        typed_write(&vec![vec![1usize, 20], vec![]]);
    }

    /// `text` read by [`ReadJson`] matches what [`FromJson`] makes of
    /// `Value::parse(text)` (compared by `Debug`: `NaN` reads as itself),
    /// or the read declines. Returns whether it read.
    fn typed_read<T: ReadJson + FromJson + fmt::Debug>(text: &str) -> bool {
        let mut cursor = Cursor::new(text.as_bytes());
        let Some(read) = T::read_json(&mut cursor).filter(|_| cursor.at_end()) else {
            return false;
        };
        let tree = Value::parse(text).ok().and_then(|v| T::from_json_value(&v).ok());
        assert_eq!(format!("{:?}", Some(read)), format!("{tree:?}"), "{text}");
        true
    }

    #[test]
    fn typed_reads_match_the_tree_or_decline() {
        let texts = [
            "0",
            "-7",
            "7.0",
            "1.5",
            "-1e3",
            "1e400",
            "null",
            "true",
            "false",
            "9223372036854775808",
            "4294967296",
            "\"x\"",
            "\"a\\u0041\\n\u{e9}\"",
            "[1,2,3]",
            "[]",
            "[1, 2]",
            "[1.5,-0.0,null]",
            "[\"a\"]",
            "[1,2",
            "",
        ];
        for text in texts {
            typed_read::<f64>(text);
            typed_read::<f32>(text);
            typed_read::<usize>(text);
            typed_read::<u32>(text);
            typed_read::<u64>(text);
            typed_read::<bool>(text);
            typed_read::<String>(text);
            typed_read::<Vec<f64>>(text);
            typed_read::<Vec<usize>>(text);
        }
        // What a frame holds is read, not declined.
        assert!(typed_read::<usize>("73"));
        assert!(typed_read::<f64>("30000.0"));
        assert!(typed_read::<String>("\"quote \\\" and \\u0041\""));
        assert!(typed_read::<Vec<usize>>("[3,17,40]"));
        assert!(typed_read::<Vec<f32>>("[0.30000001192092896,-0.125]"));
    }

    #[test]
    fn raw_strings_are_escape_free_literals() {
        let mut cursor = Cursor::new(b"\"abc\",\"a\\nb\"");
        assert_eq!(cursor.raw_str(), Some(&b"abc"[..]));
        assert!(cursor.eat(b","));
        // An escape: declined, nothing consumed; the parser reads it.
        assert_eq!(cursor.raw_str(), None);
        assert_eq!(cursor.string().unwrap(), "a\nb");
        assert!(cursor.at_end());
        for text in ["\"open", "x\"", "", "\"\u{1}\""] {
            assert_eq!(Cursor::new(text.as_bytes()).raw_str(), None, "{text:?}");
        }
        // Bytes that are not UTF-8 are the caller's to check.
        assert_eq!(Cursor::new(b"\"\xff\"").raw_str(), Some(&b"\xff"[..]));
        assert!(Cursor::new(b"\"\xff\"").string().is_err());
    }

    /// `depth` levels of `open`, a `1`, then the closers.
    fn nested(open: &str, close: &str, depth: usize) -> String {
        format!("{}1{}", open.repeat(depth), close.repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Value::parse(&nested(open, close, 64)).is_ok());
            assert!(Value::parse(&nested(open, close, MAX_DEPTH)).is_ok());
            let err = Value::parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        }
        // Depth is nesting, not count: many siblings at depth one are fine.
        let wide = format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH));
        assert!(Value::parse(&wide).is_ok());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // 20 000 levels on a 2 MB stack (the default for a spawned
        // thread) aborted the process before the cap; unclosed, closed,
        // and mixed, each is now an error at the first level past it.
        let cases = ["[".repeat(20_000), nested("[", "]", 20_000), "{\"a\":[".repeat(10_000)];
        let worker = std::thread::Builder::new().stack_size(2 << 20).spawn(move || {
            cases.iter().map(|text| Value::parse(text).unwrap_err()).collect::<Vec<_>>()
        });
        let errors = worker.unwrap().join().expect("the parse must not overflow its stack");
        for err in errors {
            assert!(err.to_string().contains("nesting deeper than"), "{err}");
        }
    }
}
