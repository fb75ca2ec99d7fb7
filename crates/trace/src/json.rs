//! A minimal JSON value type with serializer and parser, plus the
//! [`TraceEvent`] ⇄ JSON mapping.
//!
//! Hand-rolled because the sandbox builds offline (no serde). The
//! dialect is plain RFC 8259 minus exotica we never produce: integers
//! round-trip exactly through [`Json::Int`]; floats are printed with
//! `{:?}` (shortest representation that reparses to the same bits), so
//! probability payloads round-trip bit-exactly too.
//!
//! Strings are copied a run at a time: the writer and the parser look
//! for the next byte that needs an escape and copy everything before it
//! whole, so a long payload (a schedule, a source file) costs about a
//! `memcpy`. The parser reads at most [`Json::MAX_DEPTH`] nested arrays and
//! objects, so a hostile line cannot overflow the stack.

use crate::event::{MotionKind, Pass, RejectReason, TieBreak, TraceEvent};
use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number without fractional part or exponent.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The deepest nesting of arrays and objects [`Json::parse`] accepts;
    /// one level more is an error. The daemon protocol nests three deep
    /// and trace events two.
    pub const MAX_DEPTH: usize = 128;

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Moves the value of member `key` (the one [`Json::get`] finds) out
    /// of an object, leaving `null` in its place.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(members) => members
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(x) => Some(*x),
            _ => None,
        }
    }

    fn write<W: fmt::Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}"),
            // `{:?}` prints integral floats as e.g. "1.0" — keeping the
            // dot, so the reparse stays a Float.
            Json::Float(x) if x.is_finite() => write!(out, "{x:?}"),
            Json::Float(_) => out.write_str("null"), // JSON has no NaN/inf
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write(out)?;
                }
                out.write_char(']')
            }
            Json::Obj(members) => {
                out.write_char('{')?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_json_string(k, out)?;
                    out.write_char(':')?;
                    v.write(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Parses one JSON value from `text` (which must contain nothing
    /// else but whitespace).
    ///
    /// # Errors
    ///
    /// Malformed JSON, a number out of range, or arrays and objects
    /// nested deeper than [`Json::MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    /// Compact serialization (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f)
    }
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);

/// The high bit of every byte of `x` below `n` (for `n <= 0x80`). Bytes
/// above a flagged one may be flagged falsely, but the lowest flag is
/// exact, and that is the only one [`find`] reads.
fn bytes_below(x: u64, n: u8) -> u64 {
    x.wrapping_sub(ONES * u64::from(n)) & !x & (ONES << 7)
}

/// The high bit of every byte of `x` equal to `b` (lowest flag exact).
fn bytes_equal(x: u64, b: u8) -> u64 {
    bytes_below(x ^ (ONES * u64::from(b)), 1)
}

/// Flags a quote or a backslash: where a string's run ends when parsing.
fn quote_or_backslash(x: u64) -> u64 {
    bytes_equal(x, b'"') | bytes_equal(x, b'\\')
}

/// Flags a byte that must be escaped inside a JSON string: where a run
/// ends when writing.
fn needs_escape(x: u64) -> u64 {
    quote_or_backslash(x) | bytes_below(x, 0x20)
}

/// The index of the first byte of `bytes` that `flags` marks, tested
/// eight bytes at a time.
fn find(bytes: &[u8], flags: impl Fn(u64) -> u64) -> Option<usize> {
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let hits = flags(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let mut tail = [0xff; 8]; // 0xff is flagged by neither test
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let hits = flags(u64::from_le_bytes(tail));
    (hits != 0).then(|| at + hits.trailing_zeros() as usize / 8)
}

/// Writes `s` as a quoted JSON string: every run of bytes that need no
/// escape in one `write_str`.
fn write_json_string<W: fmt::Write>(s: &str, out: &mut W) -> fmt::Result {
    out.write_char('"')?;
    let bytes = s.as_bytes();
    let mut start = 0;
    while let Some(len) = find(&bytes[start..], needs_escape) {
        let at = start + len;
        // Escapable bytes are ASCII, so `at` is a char boundary.
        out.write_str(&s[start..at])?;
        match bytes[at] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            b => write!(out, "\\u{:04x}", b)?,
        }
        start = at + 1;
    }
    out.write_str(&s[start..])?;
    out.write_char('"')
}

/// Writes one JSON object member by member straight into a `String`, so
/// a value the caller holds (a schedule's text, a program) is escaped in
/// place rather than copied into a [`Json`] tree first. The bytes are
/// those of the equivalent [`Json::Obj`]. (Writing to a `String` cannot
/// fail, so the writers' `fmt::Result`s are dropped.)
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Starts member `key` and returns the buffer its value goes into.
    pub fn key(&mut self, key: &str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        let _ = write_json_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let _ = write_json_string(value, self.key(key));
        self
    }

    /// An integer member.
    pub fn int(&mut self, key: &str, value: i64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// A member holding any [`Json`] value.
    pub fn value(&mut self, key: &str, value: &Json) -> &mut Self {
        let _ = value.write(self.key(key));
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// A malformed JSON document (or a well-formed one that is not a trace
/// event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == Json::MAX_DEPTH {
                    return Err(self.err("arrays and objects nested too deep"));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// A string: each run up to the next quote or backslash is copied
    /// whole. The input is a `&str` and both delimiters are ASCII, so
    /// every run is valid UTF-8 on a char boundary.
    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let Some(len) = find(&self.bytes[start..], quote_or_backslash) else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            self.pos = start + len + 1;
            out.push_str(&self.text[start..start + len]);
            if self.bytes[start + len] == b'"' {
                return Ok(out);
            }
            let Some(e) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match e {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|_| {
                            u32::from_str_radix(&self.text[self.pos..self.pos + 4], 16).ok()
                        })
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    // Surrogate pairs never appear in our output;
                    // map lone surrogates to the replacement char.
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = &self.text[start..self.pos];
        if is_float {
            // A float too large for `f64` would print back as `null`.
            text.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .map(Json::Float)
                .ok_or_else(|| self.err("bad number"))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("bad number"))
        }
    }
}

// ---------------------------------------------------------------------
// TraceEvent ⇄ JSON
// ---------------------------------------------------------------------

fn obj(event: &'static str, rest: Vec<(&str, Json)>) -> Json {
    let mut members = vec![("event".to_owned(), Json::Str(event.to_owned()))];
    members.extend(rest.into_iter().map(|(k, v)| (k.to_owned(), v)));
    Json::Obj(members)
}

fn labels(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl TraceEvent {
    /// Serializes as one compact JSON object (one line, no newline).
    pub fn to_json(&self) -> String {
        let value = match self {
            TraceEvent::PassBegin { pass } => {
                obj("pass-begin", vec![("pass", Json::Str(pass.name().into()))])
            }
            TraceEvent::PassEnd { pass, nanos } => obj(
                "pass-end",
                vec![
                    ("pass", Json::Str(pass.name().into())),
                    ("nanos", Json::Int(*nanos as i64)),
                ],
            ),
            TraceEvent::WebsRenamed { count } => {
                obj("webs-renamed", vec![("count", Json::Int(*count as i64))])
            }
            TraceEvent::LoopUnrolled { header } => {
                obj("loop-unrolled", vec![("header", Json::Str(header.clone()))])
            }
            TraceEvent::LoopRotated { header } => {
                obj("loop-rotated", vec![("header", Json::Str(header.clone()))])
            }
            TraceEvent::RegionBegin { region, blocks } => obj(
                "region-begin",
                vec![
                    ("region", Json::Int(i64::from(*region))),
                    ("blocks", labels(blocks)),
                ],
            ),
            TraceEvent::RegionSkipped { region, reason } => obj(
                "region-skipped",
                vec![
                    ("region", Json::Int(i64::from(*region))),
                    ("reason", Json::Str(reason.code().into())),
                ],
            ),
            TraceEvent::CandidateBlocks {
                target,
                equivalent,
                speculative,
            } => obj(
                "candidate-blocks",
                vec![
                    ("target", Json::Str(target.clone())),
                    ("equivalent", labels(equivalent)),
                    (
                        "speculative",
                        Json::Arr(
                            speculative
                                .iter()
                                .map(|(b, p)| {
                                    Json::Arr(vec![Json::Str(b.clone()), Json::Float(*p)])
                                })
                                .collect(),
                        ),
                    ),
                ],
            ),
            TraceEvent::SpecBlockRejected {
                target,
                block,
                prob,
                reason,
            } => obj(
                "spec-block-rejected",
                vec![
                    ("target", Json::Str(target.clone())),
                    ("block", Json::Str(block.clone())),
                    ("prob", Json::Float(*prob)),
                    ("reason", Json::Str(reason.code().into())),
                ],
            ),
            TraceEvent::CandidateRejected {
                inst,
                home,
                target,
                reason,
            } => obj(
                "candidate-rejected",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("home", Json::Str(home.clone())),
                    ("target", Json::Str(target.clone())),
                    ("reason", Json::Str(reason.code().into())),
                ],
            ),
            TraceEvent::Placed {
                inst,
                block,
                cycle,
                tie,
            } => obj(
                "placed",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("block", Json::Str(block.clone())),
                    ("cycle", Json::Int(*cycle as i64)),
                    ("tie", Json::Str(tie.name().into())),
                ],
            ),
            TraceEvent::Moved {
                inst,
                from,
                into,
                cycle,
                kind,
                tie,
            } => obj(
                "moved",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("from", Json::Str(from.clone())),
                    ("into", Json::Str(into.clone())),
                    ("cycle", Json::Int(*cycle as i64)),
                    ("kind", Json::Str(kind.name().into())),
                    ("tie", Json::Str(tie.name().into())),
                ],
            ),
            TraceEvent::Rejected {
                inst,
                home,
                target,
                reason,
            } => obj(
                "rejected",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("home", Json::Str(home.clone())),
                    ("target", Json::Str(target.clone())),
                    ("reason", Json::Str(reason.code().into())),
                ],
            ),
            TraceEvent::Duplicated {
                inst,
                home,
                into,
                cycle,
                copies,
            } => obj(
                "duplicated",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("home", Json::Str(home.clone())),
                    ("into", Json::Str(into.clone())),
                    ("cycle", Json::Int(*cycle as i64)),
                    (
                        "copies",
                        Json::Arr(
                            copies
                                .iter()
                                .map(|(b, id)| {
                                    Json::Arr(vec![Json::Str(b.clone()), Json::Int(i64::from(*id))])
                                })
                                .collect(),
                        ),
                    ),
                ],
            ),
            TraceEvent::Renamed {
                inst,
                home,
                old,
                new,
            } => obj(
                "renamed",
                vec![
                    ("inst", Json::Int(i64::from(*inst))),
                    ("home", Json::Str(home.clone())),
                    ("old", Json::Str(old.clone())),
                    ("new", Json::Str(new.clone())),
                ],
            ),
            TraceEvent::BlockScheduled { block, changed } => obj(
                "block-scheduled",
                vec![
                    ("block", Json::Str(block.clone())),
                    ("changed", Json::Bool(*changed)),
                ],
            ),
        };
        value.to_string()
    }

    /// Parses an event back from one JSON line, inverting
    /// [`TraceEvent::to_json`].
    pub fn from_json_line(line: &str) -> Result<TraceEvent, JsonError> {
        let v = Json::parse(line)?;
        let fail = |what: &str| JsonError {
            message: format!("missing or bad {what}"),
            offset: 0,
        };
        let s = |key: &str| -> Result<String, JsonError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| fail(key))
        };
        let u = |key: &str| -> Result<u64, JsonError> {
            v.get(key).and_then(Json::as_u64).ok_or_else(|| fail(key))
        };
        let u32_of = |key: &str| -> Result<u32, JsonError> {
            u(key).and_then(|x| u32::try_from(x).map_err(|_| fail(key)))
        };
        let f = |key: &str| -> Result<f64, JsonError> {
            v.get(key).and_then(Json::as_f64).ok_or_else(|| fail(key))
        };
        let strs = |key: &str| -> Result<Vec<String>, JsonError> {
            match v.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| i.as_str().map(str::to_owned).ok_or_else(|| fail(key)))
                    .collect(),
                _ => Err(fail(key)),
            }
        };
        let pass = |key: &str| -> Result<Pass, JsonError> {
            s(key).and_then(|name| Pass::from_name(&name).ok_or_else(|| fail(key)))
        };
        let reason = |key: &str| -> Result<RejectReason, JsonError> {
            s(key).and_then(|code| RejectReason::from_code(&code).ok_or_else(|| fail(key)))
        };
        let tie = |key: &str| -> Result<TieBreak, JsonError> {
            s(key).and_then(|name| TieBreak::from_name(&name).ok_or_else(|| fail(key)))
        };

        let event = s("event")?;
        Ok(match event.as_str() {
            "pass-begin" => TraceEvent::PassBegin {
                pass: pass("pass")?,
            },
            "pass-end" => TraceEvent::PassEnd {
                pass: pass("pass")?,
                nanos: u("nanos")?,
            },
            "webs-renamed" => TraceEvent::WebsRenamed { count: u("count")? },
            "loop-unrolled" => TraceEvent::LoopUnrolled {
                header: s("header")?,
            },
            "loop-rotated" => TraceEvent::LoopRotated {
                header: s("header")?,
            },
            "region-begin" => TraceEvent::RegionBegin {
                region: u32_of("region")?,
                blocks: strs("blocks")?,
            },
            "region-skipped" => TraceEvent::RegionSkipped {
                region: u32_of("region")?,
                reason: reason("reason")?,
            },
            "candidate-blocks" => {
                let speculative = match v.get("speculative") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|pair| match pair {
                            Json::Arr(kv) if kv.len() == 2 => {
                                let b = kv[0].as_str().ok_or_else(|| fail("speculative"))?;
                                let p = kv[1].as_f64().ok_or_else(|| fail("speculative"))?;
                                Ok((b.to_owned(), p))
                            }
                            _ => Err(fail("speculative")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(fail("speculative")),
                };
                TraceEvent::CandidateBlocks {
                    target: s("target")?,
                    equivalent: strs("equivalent")?,
                    speculative,
                }
            }
            "spec-block-rejected" => TraceEvent::SpecBlockRejected {
                target: s("target")?,
                block: s("block")?,
                prob: f("prob")?,
                reason: reason("reason")?,
            },
            "candidate-rejected" => TraceEvent::CandidateRejected {
                inst: u32_of("inst")?,
                home: s("home")?,
                target: s("target")?,
                reason: reason("reason")?,
            },
            "placed" => TraceEvent::Placed {
                inst: u32_of("inst")?,
                block: s("block")?,
                cycle: u("cycle")?,
                tie: tie("tie")?,
            },
            "moved" => TraceEvent::Moved {
                inst: u32_of("inst")?,
                from: s("from")?,
                into: s("into")?,
                cycle: u("cycle")?,
                kind: s("kind")
                    .and_then(|name| MotionKind::from_name(&name).ok_or_else(|| fail("kind")))?,
                tie: tie("tie")?,
            },
            "rejected" => TraceEvent::Rejected {
                inst: u32_of("inst")?,
                home: s("home")?,
                target: s("target")?,
                reason: reason("reason")?,
            },
            "duplicated" => {
                let copies = match v.get("copies") {
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|pair| match pair {
                            Json::Arr(kv) if kv.len() == 2 => {
                                let b = kv[0].as_str().ok_or_else(|| fail("copies"))?;
                                let id = kv[1]
                                    .as_u64()
                                    .and_then(|x| u32::try_from(x).ok())
                                    .ok_or_else(|| fail("copies"))?;
                                Ok((b.to_owned(), id))
                            }
                            _ => Err(fail("copies")),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err(fail("copies")),
                };
                TraceEvent::Duplicated {
                    inst: u32_of("inst")?,
                    home: s("home")?,
                    into: s("into")?,
                    cycle: u("cycle")?,
                    copies,
                }
            }
            "renamed" => TraceEvent::Renamed {
                inst: u32_of("inst")?,
                home: s("home")?,
                old: s("old")?,
                new: s("new")?,
            },
            "block-scheduled" => TraceEvent::BlockScheduled {
                block: s("block")?,
                changed: match v.get("changed") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err(fail("changed")),
                },
            },
            _ => return Err(fail("event")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn values_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(-3)),
            ("b".into(), Json::Float(0.25)),
            ("c".into(), Json::Str("x \"y\"\nz".into())),
            ("d".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(Json::parse(&v.to_string()).expect("parses"), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Float(1.0);
        assert_eq!(v.to_string(), "1.0");
        assert_eq!(Json::parse("1.0").expect("parses"), v);
    }

    #[test]
    fn unicode_strings_survive() {
        let v = Json::Str("блок α→β".into());
        assert_eq!(Json::parse(&v.to_string()).expect("parses"), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2,]").is_err()); // no trailing commas
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\u+abc\"").is_err()); // four hex digits
        assert!(Json::parse("\"\\u12\"").is_err());
        // `inf` would print back as `null`.
        assert!(Json::parse("4e5678").is_err());
        assert_eq!(Json::parse("4e56").expect("finite"), Json::Float(4e56));
    }

    #[test]
    fn strings_copy_in_runs_and_escape_like_one_char_at_a_time() {
        let all: String = (0..0x250u32)
            .filter_map(char::from_u32)
            .chain("é€𝄞\u{7f}\u{2028}".chars())
            .collect();
        let text = Json::Str(all.clone()).to_string();
        // The per-character rules: the five short escapes, `\u00xx` for
        // the other control characters, everything else verbatim.
        let mut want = String::from('"');
        for c in all.chars() {
            match c {
                '"' => want.push_str("\\\""),
                '\\' => want.push_str("\\\\"),
                '\n' => want.push_str("\\n"),
                '\r' => want.push_str("\\r"),
                '\t' => want.push_str("\\t"),
                c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                c => want.push(c),
            }
        }
        want.push('"');
        assert_eq!(text, want);
        assert_eq!(Json::parse(&text).expect("parses"), Json::Str(all));
        assert_eq!(
            Json::parse(r#""a\/b\bc\fd\u00e9\ud800""#).expect("parses"),
            Json::Str("a/b\u{8}c\u{c}dé\u{fffd}".into())
        );
    }

    #[test]
    fn the_object_writer_writes_what_the_tree_would() {
        let tree = Json::Obj(vec![
            ("s".into(), Json::Str("a\"b\n".into())),
            ("i".into(), Json::Int(-7)),
            ("b".into(), Json::Bool(false)),
            ("v".into(), Json::Arr(vec![Json::Float(0.5), Json::Null])),
        ]);
        let mut out = String::new();
        let mut w = ObjectWriter::new(&mut out);
        w.str("s", "a\"b\n").int("i", -7).bool("b", false);
        w.value("v", &Json::Arr(vec![Json::Float(0.5), Json::Null]));
        w.end();
        assert_eq!(out, tree.to_string());
        let mut empty = String::new();
        ObjectWriter::new(&mut empty).end();
        assert_eq!(empty, "{}");
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(Json::MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(Json::MAX_DEPTH + 1)).expect_err("one level too deep");
        assert_eq!(err.offset, Json::MAX_DEPTH);
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(Json::MAX_DEPTH + 1),
            "}".repeat(Json::MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past the cap the parser stops at the cap, on a small stack.
        let deep = thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(100_000)).is_err())
            .expect("spawns");
        assert!(deep.join().expect("no stack overflow"));
    }
}
