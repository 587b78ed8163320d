//! The tail-line codec: one point as one JSON line, the format of every
//! open tail and JSONL (codec v1) segment.
//!
//! [`encode_point_line`] appends a line to a caller-owned buffer;
//! [`decode_point_line`] walks a line field by field without building a
//! document. The decoder accepts what a general JSON reader followed by
//! field lookups accepts — keys in any order, whitespace between
//! tokens, unknown keys with arbitrarily shaped values skipped, a
//! repeated key meaning its last occurrence, escaped strings — and
//! rejects what such a reader rejects: a syntax error anywhere in the
//! line, content after the closing brace, a missing or mistyped required
//! field. Two deliberate differences from a float-backed reader:
//!
//! * **Integers are exact.** A number written without fraction or
//!   exponent is parsed as `u64`/`i64`, so every value the binary codec
//!   can hold reads back from a tail unchanged. Only a token with a
//!   fraction or exponent (or an integer past the type's range) goes
//!   through `f64` and is rounded.
//! * **Nesting is bounded.** A value nested deeper than [`MAX_DEPTH`] is
//!   a decode failure, not a stack overflow.
//!
//! ```text
//! line      = ws "{" ws [ member *( ws "," ws member ) ] ws "}" ws
//! member    = string ws ":" ws value
//! counter   : "t": uint, "kind": "counter",   "v": uint
//! gauge     : "t": uint, "kind": "gauge",     "v": int
//! histogram : "t": uint, "kind": "histogram", "count": uint, "sum": uint,
//!             "buckets": [ [uint, uint] ... ], optional "min"/"max": uint
//!             (absent or mistyped: the empty-interval sentinels)
//! ```

use super::{Point, PointValue, SeriesKind};
use crate::HistogramState;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Deepest value nesting the decoder follows.
const MAX_DEPTH: u32 = 64;

/// Appends `p` as one JSON document (no trailing newline). Histogram
/// `min`/`max` are omitted for empty intervals so the `u64::MAX` "empty"
/// sentinel never reaches a float-backed JSON reader.
pub fn encode_point_line(out: &mut String, p: &Point) {
    // Writing to a `String` cannot fail.
    match &p.value {
        PointValue::Counter(v) => {
            let _ = write!(out, "{{\"t\":{},\"kind\":\"counter\",\"v\":{}}}", p.t, v);
        }
        PointValue::Gauge(v) => {
            let _ = write!(out, "{{\"t\":{},\"kind\":\"gauge\",\"v\":{}}}", p.t, v);
        }
        PointValue::Histogram(h) => {
            let _ = write!(
                out,
                "{{\"t\":{},\"kind\":\"histogram\",\"count\":{},\"sum\":{}",
                p.t, h.count, h.sum
            );
            if h.count > 0 {
                let _ = write!(out, ",\"min\":{},\"max\":{}", h.min, h.max);
            }
            out.push_str(",\"buckets\":[");
            for (i, &(b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{b},{n}]");
            }
            out.push_str("]}");
        }
    }
}

/// Decodes one line (without its newline). `None` for anything that is
/// not exactly one well-formed point document.
pub fn decode_point_line(line: &str) -> Option<Point> {
    let mut c = Cursor {
        src: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut f = Fields::default();
    c.skip_ws();
    c.expect(b'{')?;
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.string()?;
            c.skip_ws();
            c.expect(b':')?;
            c.skip_ws();
            match key.as_ref() {
                "t" => f.t = c.number_or_skip()?,
                "v" => f.v = c.number_or_skip()?,
                "count" => f.count = c.number_or_skip()?,
                "sum" => f.sum = c.number_or_skip()?,
                "min" => f.min = c.number_or_skip()?,
                "max" => f.max = c.number_or_skip()?,
                "kind" => {
                    f.kind = if c.peek() == Some(b'"') {
                        SeriesKind::parse(&c.string()?)
                    } else {
                        c.skip_value(0)?;
                        None
                    }
                }
                "buckets" => f.buckets = Some(c.buckets_or_skip()?),
                _ => c.skip_value(0)?,
            }
            c.skip_ws();
            match c.peek()? {
                b',' => c.pos += 1,
                b'}' => {
                    c.pos += 1;
                    break;
                }
                _ => return None,
            }
        }
    }
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return None;
    }
    let t = as_u64(f.t?)?;
    let value = match f.kind? {
        SeriesKind::Counter => PointValue::Counter(as_u64(f.v?)?),
        SeriesKind::Gauge => PointValue::Gauge(as_i64(f.v?)?),
        SeriesKind::Histogram => PointValue::Histogram(HistogramState {
            count: as_u64(f.count?)?,
            buckets: f.buckets??,
            sum: as_u64(f.sum?)?,
            min: f.min.and_then(as_u64).unwrap_or(u64::MAX),
            max: f.max.and_then(as_u64).unwrap_or(0),
        }),
    };
    Some(Point { t, value })
}

/// What the known keys held at their last occurrence: the number token
/// for numeric fields (`None` when absent or not a number), the parsed
/// kind, and the bucket list (`Some(None)`: present but not a list of
/// `[index, count]` pairs).
#[derive(Default)]
struct Fields<'a> {
    t: Option<&'a str>,
    v: Option<&'a str>,
    count: Option<&'a str>,
    sum: Option<&'a str>,
    min: Option<&'a str>,
    max: Option<&'a str>,
    kind: Option<SeriesKind>,
    buckets: Option<Option<Vec<(u32, u64)>>>,
}

/// A number token as an unsigned integer: exact when written as one,
/// otherwise the non-negative `f64` rounded (saturating).
fn as_u64(tok: &str) -> Option<u64> {
    if let Ok(v) = tok.parse::<u64>() {
        return Some(v);
    }
    let n = tok.parse::<f64>().ok()?;
    (n >= 0.0).then(|| n.round() as u64)
}

/// A number token as a signed integer: exact when written as one,
/// otherwise the `f64` rounded (saturating).
fn as_i64(tok: &str) -> Option<i64> {
    if let Ok(v) = tok.parse::<i64>() {
        return Some(v);
    }
    Some(tok.parse::<f64>().ok()?.round() as i64)
}

struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.pos += 1)
    }

    /// A string literal, borrowed from the line unless it holds an
    /// escape.
    fn string(&mut self) -> Option<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek()? {
                b'"' => {
                    // Both ends sit on ASCII quotes: a char boundary.
                    let s = &self.src[start..self.pos];
                    self.pos += 1;
                    return Some(Cow::Borrowed(s));
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Some(Cow::Owned(out));
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek()? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())?;
                            // Surrogates map to the replacement character;
                            // the store never writes them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // One UTF-8 scalar: the line is a `&str`, so the
                    // continuation bytes follow their lead byte.
                    let from = self.pos;
                    self.pos += 1;
                    while self.peek().is_some_and(|b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[from..self.pos]);
                }
            }
        }
    }

    /// A number token: `-? digit* [. digit*] [(e|E) (+|-)? digit*]`,
    /// accepted when it reads as an integer or as an `f64`.
    fn number(&mut self) -> Option<&'a str> {
        let start = self.pos;
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = self.pos;
        self.skip_digits();
        let mut integer = self.pos > digits;
        if self.peek() == Some(b'.') {
            integer = false;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integer = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let tok = &self.src[start..self.pos];
        (integer || tok.parse::<f64>().is_ok()).then_some(tok)
    }

    fn skip_digits(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    /// The value of a numeric field: its token when it is a number,
    /// `Some(None)` for any other well-formed value, `None` on a syntax
    /// error.
    fn number_or_skip(&mut self) -> Option<Option<&'a str>> {
        if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return self.number().map(Some);
        }
        self.skip_value(0)?;
        Some(None)
    }

    /// Skips one well-formed value of any shape.
    fn skip_value(&mut self, depth: u32) -> Option<()> {
        if depth > MAX_DEPTH {
            return None;
        }
        match self.peek()? {
            b'{' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Some(());
                }
                loop {
                    self.skip_ws();
                    self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    self.skip_value(depth + 1)?;
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Some(());
                        }
                        _ => return None,
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Some(());
                }
                loop {
                    self.skip_ws();
                    self.skip_value(depth + 1)?;
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Some(());
                        }
                        _ => return None,
                    }
                }
            }
            b'"' => self.string().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number().map(drop),
            _ => None,
        }
    }

    fn literal(&mut self, lit: &str) -> Option<()> {
        self.bytes[self.pos..]
            .starts_with(lit.as_bytes())
            .then(|| self.pos += lit.len())
    }

    /// The value of `"buckets"`: the pairs when it is a list of
    /// two-number lists, `Some(None)` for any other well-formed value.
    fn buckets_or_skip(&mut self) -> Option<Option<Vec<(u32, u64)>>> {
        let start = self.pos;
        if let Some(pairs) = self.bucket_pairs() {
            return Some(Some(pairs));
        }
        self.pos = start;
        self.skip_value(0)?;
        Some(None)
    }

    fn bucket_pairs(&mut self) -> Option<Vec<(u32, u64)>> {
        let mut pairs = Vec::new();
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(pairs);
        }
        loop {
            self.skip_ws();
            self.expect(b'[')?;
            self.skip_ws();
            let index = as_u64(self.number()?)?;
            self.skip_ws();
            self.expect(b',')?;
            self.skip_ws();
            let count = as_u64(self.number()?)?;
            self.skip_ws();
            self.expect(b']')?;
            // The bucket index is a `u32` on disk and in memory; a
            // larger number keeps its low bits, as it always has.
            pairs.push((index as u32, count));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(pairs);
                }
                _ => return None,
            }
        }
    }
}
