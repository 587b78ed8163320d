//! A PromQL-subset query engine over long-term stats and live metrics.
//!
//! The LTS plane (PR 6) can dump raw series; this module lets callers
//! *ask* it things: instant and range queries over selectors with label
//! matchers, `rate`/`increase`/`delta`, `histogram_quantile` on the
//! log-bucket histograms, `sum`/`avg`/`min`/`max`/`count` with
//! `by`/`without` grouping, and scalar arithmetic/comparisons.
//!
//! The engine evaluates one expression over a set of [`SeriesSource`]s.
//! A source is either a long-term store ([`LtsSource`]) or the live
//! registry ([`RegistrySource`]); the federation plane registers one
//! source per shard, tagged with a `shard="..."` label, so a single
//! evaluation *is* the cross-shard merge: plain selectors keep the
//! shard label, `sum by (path)` aggregates across shards. A source
//! that fails to enumerate (unreadable shard store) contributes a
//! warning to the response instead of failing the whole query.
//!
//! Semantics deviate from upstream PromQL where the store does
//! (documented in DESIGN.md Appendix G):
//!
//! - LTS counter points are **per-interval deltas**, so
//!   `rate(c[W])` = (sum of deltas in `(t-W, t]`) / W and a bare
//!   counter selector is the running total (sum of all deltas ≤ t).
//! - `=~`/`!~` take `*`-wildcard patterns (the [`selector_matches`]
//!   grammar), not full regexes — the crate is std-only.
//! - `histogram_quantile(q, sel[W])` merges the delta histogram
//!   states in the window bucket-wise and reads the quantile off the
//!   merged sparse log-bucket histogram (≤6.25% bucket error);
//!   without a window it reads the newest state in the lookback.
//! - Vector-to-vector binary operations are not in the subset.

use crate::http::{HttpRequest, HttpResponse};
use crate::lts::{
    downsample, fold_series_range, json_escape, selector_matches, LtsReader, Point, PointValue,
    RangeFold, SeriesInfo,
};
use crate::lts::{Resolution, SeriesKind};
use crate::metrics::quantile_of;
use crate::Registry;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::SystemTime;

/// How far back an instant evaluation looks for the newest sample
/// before declaring a series stale, floor value (seconds). The
/// effective lookback is `max(LOOKBACK_FLOOR_SECS, 2 * resolution
/// window)` so hourly points stay visible at hourly steps.
pub const LOOKBACK_FLOOR_SECS: u64 = 300;

/// Range-query step cap: `(end - start) / step` may not exceed this
/// many evaluation points (mirrors Prometheus' 11k-point limit).
pub const MAX_RANGE_STEPS: u64 = 11_000;

/// Expressions whose tree is deeper than this are refused, a pair of
/// parentheses counting as a level: the parser, the evaluator and `Drop`
/// all recurse over the tree, and a query that fits in one request head
/// would otherwise overflow the stack of the thread serving it. The
/// same bound as [`MAX_JSON_DEPTH`](crate::MAX_JSON_DEPTH).
const MAX_QUERY_DEPTH: usize = 128;

// ---------------------------------------------------------------------
// Durations and label-set parsing
// ---------------------------------------------------------------------

/// Parses `"90"`, `"90s"`, `"15m"`, `"2h"`, `"1d"`, or `"1w"` into
/// seconds. Bare numbers are seconds.
pub fn parse_duration(s: &str) -> Option<u64> {
    let s = s.trim();
    if s.is_empty() {
        return None;
    }
    let (num, unit) = match s.find(|c: char| !c.is_ascii_digit()) {
        None => (s, ""),
        Some(0) => return None,
        Some(i) => s.split_at(i),
    };
    let n: u64 = num.parse().ok()?;
    let mult = match unit {
        "" | "s" => 1,
        "m" => 60,
        "h" => 3_600,
        "d" => 86_400,
        "w" => 604_800,
        _ => return None,
    };
    n.checked_mul(mult)
}

/// Splits a stored series name that may embed a label set —
/// `netqos_path_used_bps{path="alpha"}` — into the base name and the
/// decoded `(key, value)` pairs, sorted by key. Names without a
/// well-formed suffix come back with no labels.
pub fn parse_series_name(name: &str) -> (String, Vec<(String, String)>) {
    let Some(open) = name.find('{') else {
        return (name.to_owned(), Vec::new());
    };
    if !name.ends_with('}') || open == 0 {
        return (name.to_owned(), Vec::new());
    }
    let base = &name[..open];
    let body = &name[open + 1..name.len() - 1];
    match parse_label_body(body) {
        Some(mut labels) => {
            labels.sort();
            (base.to_owned(), labels)
        }
        None => (name.to_owned(), Vec::new()),
    }
}

/// Parses `k="v",k2="v2"` with `\\`, `\"`, `\n` escapes in values.
fn parse_label_body(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let b = body.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let key_start = i;
        while i < b.len() && b[i] != b'=' {
            i += 1;
        }
        let key = body[key_start..i].trim().to_owned();
        if key.is_empty() || i >= b.len() {
            return None;
        }
        i += 1; // '='
        if i >= b.len() || b[i] != b'"' {
            return None;
        }
        i += 1;
        let mut value = String::new();
        loop {
            if i >= b.len() {
                return None;
            }
            match b[i] {
                b'"' => break,
                b'\\' => {
                    i += 1;
                    match b.get(i)? {
                        b'\\' => value.push('\\'),
                        b'"' => value.push('"'),
                        b'n' => value.push('\n'),
                        _ => return None,
                    }
                }
                c => value.push(c as char),
            }
            i += 1;
        }
        i += 1; // closing quote
        labels.push((key, value));
        if i < b.len() {
            if b[i] != b',' {
                return None;
            }
            i += 1;
        }
    }
    Some(labels)
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Dur(u64),
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Eq,
    Ne,
    ReMatch,
    NreMatch,
    EqEq,
    Gt,
    Lt,
    Ge,
    Le,
    Plus,
    Minus,
    Star,
    Slash,
}

fn tok_name(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => format!("`{s}`"),
        Tok::Num(n) => format!("`{n}`"),
        Tok::Str(s) => format!("\"{s}\""),
        Tok::Dur(d) => format!("duration `{d}s`"),
        Tok::LParen => "`(`".into(),
        Tok::RParen => "`)`".into(),
        Tok::LBrace => "`{`".into(),
        Tok::RBrace => "`}`".into(),
        Tok::LBracket => "`[`".into(),
        Tok::RBracket => "`]`".into(),
        Tok::Comma => "`,`".into(),
        Tok::Eq => "`=`".into(),
        Tok::Ne => "`!=`".into(),
        Tok::ReMatch => "`=~`".into(),
        Tok::NreMatch => "`!~`".into(),
        Tok::EqEq => "`==`".into(),
        Tok::Gt => "`>`".into(),
        Tok::Lt => "`<`".into(),
        Tok::Ge => "`>=`".into(),
        Tok::Le => "`<=`".into(),
        Tok::Plus => "`+`".into(),
        Tok::Minus => "`-`".into(),
        Tok::Star => "`*`".into(),
        Tok::Slash => "`/`".into(),
    }
}

fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b'{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            b'}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            b'[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            b']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b'+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            b'-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            b'=' => {
                i += 1;
                match b.get(i) {
                    Some(b'=') => {
                        toks.push(Tok::EqEq);
                        i += 1;
                    }
                    Some(b'~') => {
                        toks.push(Tok::ReMatch);
                        i += 1;
                    }
                    _ => toks.push(Tok::Eq),
                }
            }
            b'!' => {
                i += 1;
                match b.get(i) {
                    Some(b'=') => {
                        toks.push(Tok::Ne);
                        i += 1;
                    }
                    Some(b'~') => {
                        toks.push(Tok::NreMatch);
                        i += 1;
                    }
                    _ => return Err("expected `!=` or `!~`".into()),
                }
            }
            b'>' => {
                i += 1;
                if b.get(i) == Some(&b'=') {
                    toks.push(Tok::Ge);
                    i += 1;
                } else {
                    toks.push(Tok::Gt);
                }
            }
            b'<' => {
                i += 1;
                if b.get(i) == Some(&b'=') {
                    toks.push(Tok::Le);
                    i += 1;
                } else {
                    toks.push(Tok::Lt);
                }
            }
            b'"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        None => return Err("unterminated string".into()),
                        Some(b'"') => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            i += 1;
                            match b.get(i) {
                                Some(b'\\') => s.push('\\'),
                                Some(b'"') => s.push('"'),
                                Some(b'n') => s.push('\n'),
                                _ => return Err("bad string escape".into()),
                            }
                            i += 1;
                        }
                        Some(&c) => {
                            s.push(c as char);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                    i += 1;
                }
                let num = &src[start..i];
                // A unit letter glued to an integer is a duration
                // literal (`5m`, `1h`) — only meaningful in `[...]`.
                let unit_here = i < b.len()
                    && matches!(b[i], b's' | b'm' | b'h' | b'd' | b'w')
                    && !matches!(b.get(i + 1), Some(c) if c.is_ascii_alphanumeric() || *c == b'_');
                if unit_here && !num.contains('.') {
                    let d = parse_duration(&format!("{}{}", num, b[i] as char))
                        .ok_or_else(|| format!("bad duration `{num}{}`", b[i] as char))?;
                    toks.push(Tok::Dur(d));
                    i += 1;
                } else {
                    let n: f64 = num.parse().map_err(|_| format!("bad number `{num}`"))?;
                    toks.push(Tok::Num(n));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b':' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b':')
                {
                    i += 1;
                }
                toks.push(Tok::Ident(src[start..i].to_owned()));
            }
            c => return Err(format!("unexpected character `{}`", c as char)),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// AST and parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatchOp {
    Eq,
    Ne,
    Re,
    Nre,
}

#[derive(Debug, Clone)]
struct Matcher {
    label: String,
    op: MatchOp,
    pattern: String,
}

#[derive(Debug, Clone)]
struct Selector {
    name: Option<String>,
    matchers: Vec<Matcher>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeFn {
    Rate,
    Increase,
    Delta,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AggOp {
    Sum,
    Avg,
    Min,
    Max,
    Count,
}

impl AggOp {
    fn name(self) -> &'static str {
        match self {
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
            AggOp::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Gt,
    Lt,
    Ge,
    Le,
}

impl BinOp {
    fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Gt | BinOp::Lt | BinOp::Ge | BinOp::Le
        )
    }
}

#[derive(Debug, Clone)]
struct Grouping {
    without: bool,
    labels: Vec<String>,
}

#[derive(Debug, Clone)]
enum Expr {
    Number(f64),
    Selector(Selector),
    RangeFn {
        f: RangeFn,
        sel: Selector,
        window: u64,
    },
    HistQuantile {
        q: f64,
        sel: Selector,
        window: Option<u64>,
    },
    Agg {
        op: AggOp,
        grouping: Option<Grouping>,
        arg: Box<Expr>,
    },
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Parentheses, unary minuses and aggregations open around the
    /// current token.
    nesting: usize,
}

/// An expression and the depth of its tree.
type Parsed = (Expr, usize);

fn too_deep() -> String {
    format!("expression nests deeper than {MAX_QUERY_DEPTH} levels")
}

/// `e` as a tree `depth` deep, refused past [`MAX_QUERY_DEPTH`].
fn bounded(e: Expr, depth: usize) -> Result<Parsed, String> {
    if depth > MAX_QUERY_DEPTH {
        return Err(too_deep());
    }
    Ok((e, depth))
}

/// `lhs op rhs`, refused past [`MAX_QUERY_DEPTH`].
fn bin(op: BinOp, (lhs, l): Parsed, (rhs, r): Parsed) -> Result<Parsed, String> {
    let e = Expr::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    };
    bounded(e, 1 + l.max(r))
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok, ctx: &str) -> Result<(), String> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => Err(format!(
                "expected {} {ctx}, found {}",
                tok_name(&want),
                tok_name(&t)
            )),
            None => Err(format!(
                "expected {} {ctx}, found end of query",
                tok_name(&want)
            )),
        }
    }

    /// Parses what `parse` reads one level further in, refusing before
    /// it recurses past [`MAX_QUERY_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Parsed, String>) -> Result<Parsed, String> {
        if self.nesting == MAX_QUERY_DEPTH {
            return Err(too_deep());
        }
        self.nesting += 1;
        let inner = parse(self);
        self.nesting -= 1;
        inner
    }

    fn parse_expr(&mut self) -> Result<Parsed, String> {
        let mut lhs = self.parse_additive()?;
        loop {
            let op = match self.peek() {
                Some(Tok::EqEq) => BinOp::Eq,
                Some(Tok::Ne) => BinOp::Ne,
                Some(Tok::Gt) => BinOp::Gt,
                Some(Tok::Lt) => BinOp::Lt,
                Some(Tok::Ge) => BinOp::Ge,
                Some(Tok::Le) => BinOp::Le,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = bin(op, lhs, self.parse_additive()?)?;
        }
    }

    fn parse_additive(&mut self) -> Result<Parsed, String> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = bin(op, lhs, self.parse_multiplicative()?)?;
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Parsed, String> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.bump();
            lhs = bin(op, lhs, self.parse_unary()?)?;
        }
    }

    fn parse_unary(&mut self) -> Result<Parsed, String> {
        if self.peek() == Some(&Tok::Minus) {
            self.bump();
            let inner = self.nested(Self::parse_unary)?;
            return bin(BinOp::Sub, (Expr::Number(0.0), 1), inner);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Parsed, String> {
        match self.bump() {
            Some(Tok::Num(n)) => Ok((Expr::Number(n), 1)),
            Some(Tok::LParen) => {
                let (e, depth) = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen, "to close `(`")?;
                bounded(e, depth + 1)
            }
            Some(Tok::LBrace) => {
                let matchers = self.parse_matchers()?;
                let sel = Selector {
                    name: None,
                    matchers,
                };
                Ok((Expr::Selector(sel), 1))
            }
            Some(Tok::Ident(id)) => self.parse_ident(id),
            Some(t) => Err(format!("unexpected {}", tok_name(&t))),
            None => Err("unexpected end of query".into()),
        }
    }

    fn parse_ident(&mut self, id: String) -> Result<Parsed, String> {
        match id.as_str() {
            "rate" | "increase" | "delta" => {
                let f = match id.as_str() {
                    "rate" => RangeFn::Rate,
                    "increase" => RangeFn::Increase,
                    _ => RangeFn::Delta,
                };
                self.expect(Tok::LParen, &format!("after `{id}`"))?;
                let sel = self.parse_selector()?;
                let window = self.parse_window(&id)?;
                self.expect(Tok::RParen, &format!("to close `{id}(`"))?;
                Ok((Expr::RangeFn { f, sel, window }, 1))
            }
            "histogram_quantile" => {
                self.expect(Tok::LParen, "after `histogram_quantile`")?;
                let q = match self.bump() {
                    Some(Tok::Num(n)) => n,
                    Some(t) => {
                        return Err(format!(
                            "histogram_quantile needs a numeric quantile, found {}",
                            tok_name(&t)
                        ))
                    }
                    None => return Err("histogram_quantile needs a numeric quantile".into()),
                };
                self.expect(Tok::Comma, "after the quantile")?;
                let sel = self.parse_selector()?;
                let window = if self.peek() == Some(&Tok::LBracket) {
                    Some(self.parse_window("histogram_quantile")?)
                } else {
                    None
                };
                self.expect(Tok::RParen, "to close `histogram_quantile(`")?;
                Ok((Expr::HistQuantile { q, sel, window }, 1))
            }
            "sum" | "avg" | "min" | "max" | "count" => {
                let op = match id.as_str() {
                    "sum" => AggOp::Sum,
                    "avg" => AggOp::Avg,
                    "min" => AggOp::Min,
                    "max" => AggOp::Max,
                    _ => AggOp::Count,
                };
                let mut grouping = self.try_parse_grouping()?;
                self.expect(Tok::LParen, &format!("after `{id}`"))?;
                let (arg, depth) = self.nested(Self::parse_expr)?;
                self.expect(Tok::RParen, &format!("to close `{id}(`"))?;
                if grouping.is_none() {
                    grouping = self.try_parse_grouping()?;
                }
                let arg = Box::new(arg);
                bounded(Expr::Agg { op, grouping, arg }, depth + 1)
            }
            _ => {
                let matchers = if self.peek() == Some(&Tok::LBrace) {
                    self.bump();
                    self.parse_matchers()?
                } else {
                    Vec::new()
                };
                let sel = Selector {
                    name: Some(id),
                    matchers,
                };
                Ok((Expr::Selector(sel), 1))
            }
        }
    }

    fn try_parse_grouping(&mut self) -> Result<Option<Grouping>, String> {
        let without = match self.peek() {
            Some(Tok::Ident(w)) if w == "by" => false,
            Some(Tok::Ident(w)) if w == "without" => true,
            _ => return Ok(None),
        };
        self.bump();
        self.expect(Tok::LParen, "after `by`/`without`")?;
        let mut labels = Vec::new();
        if self.peek() != Some(&Tok::RParen) {
            loop {
                match self.bump() {
                    Some(Tok::Ident(l)) => labels.push(l),
                    Some(t) => {
                        return Err(format!("expected a label name, found {}", tok_name(&t)))
                    }
                    None => return Err("expected a label name".into()),
                }
                match self.peek() {
                    Some(Tok::Comma) => {
                        self.bump();
                    }
                    _ => break,
                }
            }
        }
        self.expect(Tok::RParen, "to close the grouping")?;
        Ok(Some(Grouping { without, labels }))
    }

    fn parse_window(&mut self, ctx: &str) -> Result<u64, String> {
        self.expect(
            Tok::LBracket,
            &format!("(`{ctx}` takes a range like `[5m]`)"),
        )?;
        let secs = match self.bump() {
            Some(Tok::Dur(d)) => d,
            Some(Tok::Num(n)) if n > 0.0 && n.fract() == 0.0 => n as u64,
            Some(t) => {
                return Err(format!(
                    "expected a duration like `5m` in the range, found {}",
                    tok_name(&t)
                ))
            }
            None => return Err("expected a duration in the range".into()),
        };
        if secs == 0 {
            return Err("range duration must be positive".into());
        }
        self.expect(Tok::RBracket, "to close the range")?;
        Ok(secs)
    }

    fn parse_selector(&mut self) -> Result<Selector, String> {
        match self.bump() {
            Some(Tok::Ident(name)) => {
                let matchers = if self.peek() == Some(&Tok::LBrace) {
                    self.bump();
                    self.parse_matchers()?
                } else {
                    Vec::new()
                };
                Ok(Selector {
                    name: Some(name),
                    matchers,
                })
            }
            Some(Tok::LBrace) => Ok(Selector {
                name: None,
                matchers: self.parse_matchers()?,
            }),
            Some(t) => Err(format!("expected a selector, found {}", tok_name(&t))),
            None => Err("expected a selector".into()),
        }
    }

    /// Parses matchers after a consumed `{`, through the closing `}`.
    fn parse_matchers(&mut self) -> Result<Vec<Matcher>, String> {
        let mut matchers = Vec::new();
        if self.peek() == Some(&Tok::RBrace) {
            self.bump();
            return Ok(matchers);
        }
        loop {
            let label = match self.bump() {
                Some(Tok::Ident(l)) => l,
                Some(t) => return Err(format!("expected a label name, found {}", tok_name(&t))),
                None => return Err("expected a label name".into()),
            };
            let op = match self.bump() {
                Some(Tok::Eq) => MatchOp::Eq,
                Some(Tok::Ne) => MatchOp::Ne,
                Some(Tok::ReMatch) => MatchOp::Re,
                Some(Tok::NreMatch) => MatchOp::Nre,
                Some(t) => {
                    return Err(format!(
                        "expected `=`, `!=`, `=~`, or `!~`, found {}",
                        tok_name(&t)
                    ))
                }
                None => return Err("expected a match operator".into()),
            };
            let pattern = match self.bump() {
                Some(Tok::Str(s)) => s,
                Some(t) => {
                    return Err(format!("expected a quoted pattern, found {}", tok_name(&t)))
                }
                None => return Err("expected a quoted pattern".into()),
            };
            matchers.push(Matcher { label, op, pattern });
            match self.bump() {
                Some(Tok::Comma) => continue,
                Some(Tok::RBrace) => break,
                Some(t) => return Err(format!("expected `,` or `}}`, found {}", tok_name(&t))),
                None => return Err("unclosed `{`".into()),
            }
        }
        Ok(matchers)
    }
}

fn parse_query(src: &str) -> Result<Expr, String> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err("empty query".into());
    }
    let mut p = Parser {
        toks,
        pos: 0,
        nesting: 0,
    };
    let (e, _) = p.parse_expr()?;
    match p.peek() {
        None => Ok(e),
        Some(Tok::LBracket) => Err(
            "range selectors (`[5m]`) are only valid as arguments to rate/increase/delta/histogram_quantile"
                .into(),
        ),
        Some(t) => Err(format!("unexpected {} after expression", tok_name(t))),
    }
}

/// Parses `query` and reports its first syntax error without evaluating
/// anything — the hook linters (e.g. `netqos record lint`) use to
/// validate expressions against the engine's actual grammar.
pub fn check_query(query: &str) -> Result<(), String> {
    parse_query(query).map(|_| ())
}

/// A scalar-typed expression yields `resultType: "scalar"`; anything
/// touching a selector yields a vector (or matrix over a range).
fn expr_is_scalar(e: &Expr) -> bool {
    match e {
        Expr::Number(_) => true,
        Expr::Bin { lhs, rhs, .. } => expr_is_scalar(lhs) && expr_is_scalar(rhs),
        _ => false,
    }
}

/// The selector-bearing leaves of `e`, each with its selector.
fn collect_leaves<'a>(e: &'a Expr, out: &mut Vec<(&'a Selector, &'a Expr)>) {
    match e {
        Expr::Number(_) => {}
        Expr::Selector(sel) | Expr::RangeFn { sel, .. } | Expr::HistQuantile { sel, .. } => {
            out.push((sel, e))
        }
        Expr::Agg { arg, .. } => collect_leaves(arg, out),
        Expr::Bin { lhs, rhs, .. } => {
            collect_leaves(lhs, out);
            collect_leaves(rhs, out);
        }
    }
}

/// The earliest time an evaluation of `leaf` at `t` reads from a series
/// of `kind`: a window function reads its window, an instant read looks
/// back for the newest sample, and a bare counter reads everything —
/// its instant value is the running total of its deltas.
fn reads_from(leaf: &Expr, kind: SeriesKind, t: u64, lookback: u64) -> u64 {
    match leaf {
        Expr::RangeFn { window, .. }
        | Expr::HistQuantile {
            window: Some(window),
            ..
        } => t.saturating_sub(*window),
        Expr::Selector(_) if kind == SeriesKind::Counter => 0,
        _ => t.saturating_sub(lookback),
    }
}

// ---------------------------------------------------------------------
// Series sources
// ---------------------------------------------------------------------

/// One queryable series as a source advertises it: parsed name, sorted
/// labels, kind, and a fetch closure returning canonical points for
/// `[start, end]` at a resolution.
pub struct PromSeries {
    /// Base metric name (labels stripped).
    pub base: String,
    /// Decoded label pairs, sorted by key (no `__name__`).
    pub labels: Vec<(String, String)>,
    /// Counter, gauge, or histogram.
    pub kind: SeriesKind,
    /// Source-scoped key handed back to [`SeriesSource::fold_range`]
    /// (the store slug for [`LtsSource`]; sources without a fold path
    /// can use any identifier).
    pub key: String,
    /// Fetches points in `[start, end]` at the given resolution, or why not.
    #[allow(clippy::type_complexity)]
    pub fetch: Arc<dyn Fn(Resolution, u64, u64) -> Result<Vec<Point>, String> + Send + Sync>,
}

/// Decides from a series' base name and sorted labels whether a query
/// wants it ([`SeriesSource::select`]).
pub type SeriesFilter<'a> = dyn FnMut(&str, &[(String, String)]) -> bool + 'a;

/// Anything the engine can evaluate over: enumerates its series or
/// fails with a reason (which becomes a response warning, not a query
/// failure, on multi-source engines).
pub trait SeriesSource: Send + Sync {
    /// Every series this source can serve.
    fn series(&self) -> Result<Vec<PromSeries>, String>;

    /// The series whose base name and sorted labels `want` accepts —
    /// what a query asks a source for. The default filters
    /// [`SeriesSource::series`]; a source that keeps its catalogue
    /// matches against that first, so a series no selector names is
    /// never built.
    fn select(&self, want: &mut SeriesFilter<'_>) -> Result<Vec<PromSeries>, String> {
        let mut all = self.series()?;
        all.retain(|s| want(&s.base, &s.labels));
        Ok(all)
    }

    /// Newest point timestamp across the source, if cheaply known —
    /// used as the default evaluation time for instant queries.
    fn newest_t(&self) -> Option<u64> {
        None
    }

    /// Folds the counter series behind `key` over `(after, upto]`
    /// without materializing its points, if the source can do so with
    /// answers identical to a canonical scan. `None` sends the engine
    /// down the general fetch-and-materialize path.
    fn fold_range(
        &self,
        _key: &str,
        _kind: SeriesKind,
        _res: Resolution,
        _after: Option<u64>,
        _upto: u64,
    ) -> Option<RangeFold> {
        None
    }
}

/// A [`SeriesSource`] over a long-term store directory. Keeps the
/// parsed `series.idx` across queries: the file only ever changes by
/// growing a line (a new series), shrinking (recovery truncating a torn
/// tail) or being rewritten by a compaction, and each of those moves
/// its length or its modification time, which every query checks.
pub struct LtsSource {
    reader: Arc<LtsReader>,
    index_path: PathBuf,
    index: Mutex<CachedIndex>,
}

/// One `series.idx` entry with its name already split into base and
/// sorted labels.
struct IndexedSeries {
    info: SeriesInfo,
    base: String,
    labels: Vec<(String, String)>,
}

#[derive(Default)]
struct CachedIndex {
    /// Length and modification time of `series.idx` when `entries` was
    /// read; `None` while the file is missing.
    stamp: Option<(u64, Option<SystemTime>)>,
    entries: Arc<[Arc<IndexedSeries>]>,
}

impl LtsSource {
    /// A source reading `reader`'s store.
    pub fn new(reader: LtsReader) -> LtsSource {
        LtsSource {
            index_path: reader.dir().join("series.idx"),
            reader: Arc::new(reader),
            index: Mutex::new(CachedIndex::default()),
        }
    }

    /// The index as of now, re-read only when the file has changed.
    fn entries(&self) -> Result<Arc<[Arc<IndexedSeries>]>, String> {
        // Stamp before reading: a line added in between makes the next
        // query read again, never this one's result stick.
        let stamp = fs::metadata(&self.index_path)
            .ok()
            .map(|m| (m.len(), m.modified().ok()));
        if stamp.is_none() && !self.reader.dir().is_dir() {
            return Err(format!(
                "no long-term store at {}",
                self.reader.dir().display()
            ));
        }
        let mut cached = self.index.lock();
        if cached.stamp != stamp {
            cached.entries = self
                .reader
                .index()
                .into_iter()
                .map(|info| {
                    let (base, labels) = parse_series_name(&info.name);
                    Arc::new(IndexedSeries { info, base, labels })
                })
                .collect();
            cached.stamp = stamp;
        }
        Ok(cached.entries.clone())
    }
}

impl SeriesSource for LtsSource {
    fn series(&self) -> Result<Vec<PromSeries>, String> {
        self.select(&mut |_, _| true)
    }

    fn select(&self, want: &mut SeriesFilter<'_>) -> Result<Vec<PromSeries>, String> {
        Ok(self
            .entries()?
            .iter()
            .filter(|e| want(&e.base, &e.labels))
            .map(|e| {
                let (reader, entry) = (self.reader.clone(), e.clone());
                PromSeries {
                    base: e.base.clone(),
                    labels: e.labels.clone(),
                    kind: e.info.kind,
                    key: e.info.slug.clone(),
                    fetch: Arc::new(move |res, start, end| {
                        (reader.series_points(&entry.info, res, start, end))
                            .map_err(|e| e.to_string())
                    }),
                }
            })
            .collect())
    }

    fn newest_t(&self) -> Option<u64> {
        let entries = self.entries().ok()?;
        entries
            .iter()
            .filter_map(|e| self.reader.newest_of(&e.info.slug))
            .max()
    }

    fn fold_range(
        &self,
        key: &str,
        kind: SeriesKind,
        res: Resolution,
        after: Option<u64>,
        upto: u64,
    ) -> Option<RangeFold> {
        fold_series_range(self.reader.dir(), key, kind, res, after, upto)
    }
}

/// A [`SeriesSource`] over the live [`Registry`]: instant-only — every
/// fetch reports the current value stamped at the requested end time,
/// so range functions see at most one point. Attach an [`LtsSource`]
/// for history.
pub struct RegistrySource {
    registry: Arc<Registry>,
}

impl RegistrySource {
    /// A source over `registry`'s current values.
    pub fn new(registry: Arc<Registry>) -> RegistrySource {
        RegistrySource { registry }
    }
}

impl SeriesSource for RegistrySource {
    fn series(&self) -> Result<Vec<PromSeries>, String> {
        let mut out = Vec::new();
        (self.registry).visit_counters(|name, c| {
            let c = c.clone();
            out.push(live_series(name, SeriesKind::Counter, move || {
                PointValue::Counter(c.get())
            }));
        });
        (self.registry).visit_gauges(|name, g| {
            let g = g.clone();
            out.push(live_series(name, SeriesKind::Gauge, move || {
                PointValue::Gauge(g.get())
            }));
        });
        (self.registry).visit_histograms(|name, h| {
            let h = h.clone();
            out.push(live_series(name, SeriesKind::Histogram, move || {
                PointValue::Histogram(h.to_state())
            }));
        });
        Ok(out)
    }
}

/// The registry metric `name` as a series whose every fetch is one
/// point: `read()` stamped at the fetch's end time.
fn live_series(
    name: &str,
    kind: SeriesKind,
    read: impl Fn() -> PointValue + Send + Sync + 'static,
) -> PromSeries {
    let (base, labels) = parse_series_name(name);
    PromSeries {
        base,
        labels,
        kind,
        key: name.to_string(),
        fetch: Arc::new(move |_res, _start, end| {
            Ok(vec![Point {
                t: end,
                value: read(),
            }])
        }),
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// A label set, shared by every sample of every step that carries it.
type Labels = Rc<[(String, String)]>;

/// Per-query view of one matched series. Points are materialized
/// lazily: an instant evaluation whose windows the source can fold
/// ([`SeriesSource::fold_range`]) never fetches the vector at all; the
/// first evaluation that needs points fetches once and builds a
/// prefix-sum over counter deltas so later steps are a binary search.
struct SeriesData {
    base: String,
    labels: Labels,
    kind: SeriesKind,
    key: String,
    source: Arc<dyn SeriesSource>,
    #[allow(clippy::type_complexity)]
    fetch: Arc<dyn Fn(Resolution, u64, u64) -> Result<Vec<Point>, String> + Send + Sync>,
    /// The earliest time any step of the query reads from this series:
    /// [`reads_from`] at the first evaluation time, over the leaves
    /// that select it.
    fetch_start: u64,
    /// `(pts, cum)` where `cum[i]` = sum of counter deltas
    /// `pts[0..=i]` (counters only), kept as an integer too wide to
    /// overflow so a window's sum is the same wherever the fetch
    /// started. `None` until first needed.
    #[allow(clippy::type_complexity)]
    data: RefCell<Option<(Vec<Point>, Vec<u128>)>>,
}

impl SeriesData {
    /// Materializes (once) the point vector and counter prefix sums.
    #[allow(clippy::type_complexity)]
    fn ensure(&self, ctx: &Ctx) -> Result<std::cell::Ref<'_, (Vec<Point>, Vec<u128>)>, String> {
        if self.data.borrow().is_none() {
            let pts = (self.fetch)(ctx.res, self.fetch_start, ctx.fetch_end)?;
            ctx.stats.borrow_mut().points_scanned += pts.len() as u64;
            let cum = if self.kind == SeriesKind::Counter {
                let mut acc = 0u128;
                pts.iter()
                    .map(|p| {
                        if let PointValue::Counter(v) = &p.value {
                            acc += u128::from(*v);
                        }
                        acc
                    })
                    .collect()
            } else {
                Vec::new()
            };
            *self.data.borrow_mut() = Some((pts, cum));
        }
        Ok(std::cell::Ref::map(self.data.borrow(), |d| {
            d.as_ref().unwrap()
        }))
    }

    /// The pushdown fast path: a whole-window counter fold from the
    /// source. Taken only on instant evaluations (a range query reuses
    /// one materialization across all its steps) and only while the
    /// series is still unmaterialized.
    fn fold(&self, ctx: &Ctx, after: Option<u64>, upto: u64) -> Option<RangeFold> {
        if !ctx.allow_fold || self.data.borrow().is_some() {
            return None;
        }
        let f = self
            .source
            .fold_range(&self.key, self.kind, ctx.res, after, upto)?;
        let mut st = ctx.stats.borrow_mut();
        st.pushdown_evals += 1;
        st.points_scanned += f.points_scanned;
        st.segments_folded += f.segments_folded;
        Some(f)
    }
}

/// Sum of the counter deltas `pts[lo..hi]` off their prefix sums,
/// saturating as [`RangeFold::sum`] does, so the fold and the
/// materialized path give one answer at any magnitude.
fn window_sum(cum: &[u128], lo: usize, hi: usize) -> f64 {
    let sum = cum[hi - 1] - if lo > 0 { cum[lo - 1] } else { 0 };
    u64::try_from(sum).unwrap_or(u64::MAX) as f64
}

struct Ctx {
    series: Vec<SeriesData>,
    lookback: u64,
    res: Resolution,
    fetch_end: u64,
    /// Instant queries may answer counter windows via
    /// [`SeriesSource::fold_range`]; range queries always materialize.
    allow_fold: bool,
    stats: RefCell<QueryStats>,
    /// What an aggregation without grouping groups by.
    no_labels: Labels,
    /// Group keys derived so far, by aggregation and input label set,
    /// both by address, so a range query derives each once and not once
    /// per step. An entry holds its input set: the address stays taken.
    #[allow(clippy::type_complexity)]
    group_keys: RefCell<HashMap<(*const Grouping, *const [(String, String)]), (Labels, Labels)>>,
}

impl Ctx {
    /// The labels of `labels` that `g` groups by.
    fn group_key(&self, g: &Grouping, labels: &Labels) -> Labels {
        let mut keys = self.group_keys.borrow_mut();
        let (_, key) = keys
            .entry((g as *const Grouping, Rc::as_ptr(labels)))
            .or_insert_with(|| {
                let key = labels
                    .iter()
                    .filter(|(k, _)| g.labels.contains(k) != g.without)
                    .cloned()
                    .collect();
                (labels.clone(), key)
            });
        key.clone()
    }
}

/// An intermediate vector element (timestamp implied by the step); the
/// name is the series' own, or empty once an operation dropped it.
#[derive(Debug, Clone)]
struct VSample<'a> {
    name: &'a str,
    labels: Labels,
    v: f64,
}

enum Val<'a> {
    Scalar(f64),
    Vector(Vec<VSample<'a>>),
}

/// The evaluator: expressions over any number of sources, each
/// optionally tagged with a shard label. Evaluation is deterministic —
/// results are sorted by name then labels — so identical stores yield
/// byte-identical responses.
#[derive(Default)]
pub struct QueryEngine {
    sources: Vec<(Option<String>, Arc<dyn SeriesSource>)>,
    /// Warnings attached to every response (e.g. a federation shard
    /// with no store to query).
    extra_warnings: Vec<String>,
}

impl QueryEngine {
    /// An engine with no sources (every query is empty).
    pub fn new() -> QueryEngine {
        QueryEngine::default()
    }

    /// Adds a source. With `shard` set, every series it serves gains a
    /// `shard="..."` label and its failures are reported per shard.
    pub fn push_source(&mut self, shard: Option<&str>, source: Arc<dyn SeriesSource>) {
        self.sources.push((shard.map(str::to_owned), source));
    }

    /// Builder form of [`QueryEngine::push_source`].
    pub fn with_source(mut self, shard: Option<&str>, source: Arc<dyn SeriesSource>) -> Self {
        self.push_source(shard, source);
        self
    }

    /// Attaches a warning carried on every response.
    pub fn push_warning(&mut self, warning: String) {
        self.extra_warnings.push(warning);
    }

    /// Newest point timestamp across all sources — the default instant
    /// evaluation time (falls back to the caller's clock when unknown).
    pub fn newest_t(&self) -> Option<u64> {
        self.sources.iter().filter_map(|(_, s)| s.newest_t()).max()
    }

    /// The context of evaluations at `first_eval` and later, up to
    /// `fetch_end`.
    fn build_ctx(
        &self,
        ast: &Expr,
        res: Resolution,
        first_eval: u64,
        fetch_end: u64,
        allow_fold: bool,
    ) -> (Ctx, Vec<String>) {
        let mut leaves = Vec::new();
        collect_leaves(ast, &mut leaves);
        let lookback = LOOKBACK_FLOOR_SECS.max(2 * res.window_secs());
        let mut warnings = self.extra_warnings.clone();
        let mut series = Vec::new();
        for (shard, source) in &self.sources {
            let selected = source.select(&mut |base, labels| match shard {
                None => leaves.iter().any(|(sel, _)| sel_matches(sel, base, labels)),
                Some(name) => {
                    let labels = shard_labels(labels.to_vec(), name);
                    leaves
                        .iter()
                        .any(|(sel, _)| sel_matches(sel, base, &labels))
                }
            });
            let metas = match selected {
                Ok(m) => m,
                Err(e) => {
                    warnings.push(match shard {
                        Some(name) => format!("shard {name}: {e}"),
                        None => e,
                    });
                    continue;
                }
            };
            for meta in metas {
                let labels = match shard {
                    Some(name) => shard_labels(meta.labels, name),
                    None => meta.labels,
                };
                let fetch_start = leaves
                    .iter()
                    .filter(|(sel, _)| sel_matches(sel, &meta.base, &labels))
                    .map(|(_, leaf)| reads_from(leaf, meta.kind, first_eval, lookback))
                    .min()
                    .unwrap_or(0);
                series.push(SeriesData {
                    base: meta.base,
                    labels: labels.into(),
                    kind: meta.kind,
                    key: meta.key,
                    source: source.clone(),
                    fetch: meta.fetch,
                    fetch_start,
                    data: RefCell::new(None),
                });
            }
        }
        let stats = RefCell::new(QueryStats {
            series: series.len() as u64,
            ..QueryStats::default()
        });
        (
            Ctx {
                series,
                lookback,
                res,
                fetch_end,
                allow_fold,
                stats,
                no_labels: Rc::new([]),
                group_keys: RefCell::default(),
            },
            warnings,
        )
    }

    /// Evaluates `query` at time `t` against data at resolution `res`.
    pub fn instant(&self, query: &str, t: u64, res: Resolution) -> Result<QueryOutcome, String> {
        let ast = parse_query(query)?;
        let (ctx, warnings) = self.build_ctx(&ast, res, t, t, true);
        let result = match eval(&ast, &ctx, t)? {
            Val::Scalar(v) => QueryResult::Scalar { t, v },
            Val::Vector(samples) => QueryResult::Vector(sorted_samples(samples, t)),
        };
        Ok(QueryOutcome {
            result,
            warnings,
            stats: ctx.stats.into_inner(),
        })
    }

    /// Evaluates `query` at each step in `[start, end]`. The data
    /// resolution follows the step: ≥1h steps read hourly points,
    /// ≥1m steps read minutely points, finer steps read raw seconds.
    pub fn range(
        &self,
        query: &str,
        start: u64,
        end: u64,
        step: u64,
    ) -> Result<QueryOutcome, String> {
        if step == 0 {
            return Err("step must be positive".into());
        }
        if end < start {
            return Err("end must not precede start".into());
        }
        if (end - start) / step >= MAX_RANGE_STEPS {
            return Err(format!(
                "range spans more than {MAX_RANGE_STEPS} steps; widen the step or narrow the range"
            ));
        }
        let res = resolution_for_step(step);
        let ast = parse_query(query)?;
        let (ctx, warnings) = self.build_ctx(&ast, res, start, end, false);
        let result = if expr_is_scalar(&ast) {
            let mut values = Vec::new();
            let mut t = start;
            while t <= end {
                if let Val::Scalar(v) = eval(&ast, &ctx, t)? {
                    values.push((t, v));
                }
                t = match t.checked_add(step) {
                    Some(n) => n,
                    None => break,
                };
            }
            QueryResult::Matrix(vec![MatrixSeries {
                name: String::new(),
                labels: Vec::new(),
                values,
            }])
        } else {
            let mut grouped: BTreeMap<(&str, Labels), Vec<(u64, f64)>> = BTreeMap::new();
            let mut t = start;
            while t <= end {
                if let Val::Vector(samples) = eval(&ast, &ctx, t)? {
                    for s in samples {
                        grouped
                            .entry((s.name, s.labels))
                            .or_default()
                            .push((t, s.v));
                    }
                }
                t = match t.checked_add(step) {
                    Some(n) => n,
                    None => break,
                };
            }
            QueryResult::Matrix(
                grouped
                    .into_iter()
                    .map(|((name, labels), values)| MatrixSeries {
                        name: name.to_owned(),
                        labels: labels.to_vec(),
                        values,
                    })
                    .collect(),
            )
        };
        Ok(QueryOutcome {
            result,
            warnings,
            stats: ctx.stats.into_inner(),
        })
    }
}

/// `labels` as a shard's series carry them: its own `shard` label, if
/// any, replaced by the shard's name.
fn shard_labels(mut labels: Vec<(String, String)>, shard: &str) -> Vec<(String, String)> {
    labels.retain(|(k, _)| k != "shard");
    labels.push(("shard".to_owned(), shard.to_owned()));
    labels.sort();
    labels
}

/// The data resolution a range step implies.
pub fn resolution_for_step(step: u64) -> Resolution {
    if step >= 3_600 {
        Resolution::Hour1
    } else if step >= 60 {
        Resolution::Min1
    } else {
        Resolution::Raw1s
    }
}

fn sorted_samples(samples: Vec<VSample>, t: u64) -> Vec<Sample> {
    let mut out: Vec<Sample> = samples
        .into_iter()
        .map(|s| Sample {
            name: s.name.to_owned(),
            labels: s.labels.to_vec(),
            t,
            v: s.v,
        })
        .collect();
    out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
    out
}

fn sel_matches(sel: &Selector, base: &str, labels: &[(String, String)]) -> bool {
    if let Some(name) = &sel.name {
        if name != base {
            return false;
        }
    }
    for m in &sel.matchers {
        let value = if m.label == "__name__" {
            base
        } else {
            labels
                .iter()
                .find(|(k, _)| *k == m.label)
                .map(|(_, v)| v.as_str())
                .unwrap_or("")
        };
        let ok = match m.op {
            MatchOp::Eq => value == m.pattern,
            MatchOp::Ne => value != m.pattern,
            MatchOp::Re => selector_matches(&m.pattern, value),
            MatchOp::Nre => !selector_matches(&m.pattern, value),
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Index range of points with `t` in `(after, upto]`.
fn window_indices(pts: &[Point], after: Option<u64>, upto: u64) -> (usize, usize) {
    let lo = match after {
        None => 0,
        Some(a) => pts.partition_point(|p| p.t <= a),
    };
    let hi = pts.partition_point(|p| p.t <= upto);
    (lo, hi)
}

fn gauge_value(p: &Point) -> f64 {
    match &p.value {
        PointValue::Gauge(v) => *v as f64,
        PointValue::Counter(v) => *v as f64,
        PointValue::Histogram(_) => f64::NAN,
    }
}

fn eval<'a>(e: &'a Expr, ctx: &'a Ctx, t: u64) -> Result<Val<'a>, String> {
    match e {
        Expr::Number(n) => Ok(Val::Scalar(*n)),
        Expr::Selector(sel) => {
            let mut out = Vec::new();
            for sd in &ctx.series {
                if !sel_matches(sel, &sd.base, &sd.labels) || sd.kind == SeriesKind::Histogram {
                    continue;
                }
                if sd.kind == SeriesKind::Counter {
                    // Pushdown: a bare counter's instant value is the
                    // running total, i.e. the fold of every delta ≤ t.
                    if let Some(fold) = sd.fold(ctx, None, t) {
                        let Some(last) = fold.last_t else { continue };
                        if t.saturating_sub(last) >= ctx.lookback {
                            continue;
                        }
                        out.push(VSample {
                            name: &sd.base,
                            labels: sd.labels.clone(),
                            v: fold.sum as f64,
                        });
                        continue;
                    }
                }
                let d = sd.ensure(ctx)?;
                let (pts, cum) = (&d.0, &d.1);
                let (_, hi) = window_indices(pts, None, t);
                if hi == 0 {
                    continue;
                }
                let last = &pts[hi - 1];
                if t.saturating_sub(last.t) >= ctx.lookback {
                    continue;
                }
                let v = match sd.kind {
                    // Counters are stored as per-interval deltas; the
                    // instant value is the running total.
                    SeriesKind::Counter => window_sum(cum, 0, hi),
                    SeriesKind::Gauge => gauge_value(last),
                    SeriesKind::Histogram => continue,
                };
                out.push(VSample {
                    name: &sd.base,
                    labels: sd.labels.clone(),
                    v,
                });
            }
            Ok(Val::Vector(out))
        }
        Expr::RangeFn { f, sel, window } => {
            let mut out = Vec::new();
            let after = t.checked_sub(*window);
            for sd in &ctx.series {
                if !sel_matches(sel, &sd.base, &sd.labels) {
                    continue;
                }
                let v = match (f, sd.kind) {
                    (RangeFn::Rate | RangeFn::Increase, SeriesKind::Counter) => {
                        // Pushdown: rate/increase need only the delta
                        // sum over (t-window, t], which the source can
                        // fold segment-by-segment.
                        let sum = if let Some(fold) = sd.fold(ctx, after, t) {
                            if fold.count == 0 {
                                continue;
                            }
                            fold.sum as f64
                        } else {
                            let d = sd.ensure(ctx)?;
                            let (lo, hi) = window_indices(&d.0, after, t);
                            if lo >= hi {
                                continue;
                            }
                            window_sum(&d.1, lo, hi)
                        };
                        if *f == RangeFn::Rate {
                            sum / *window as f64
                        } else {
                            sum
                        }
                    }
                    (RangeFn::Delta, SeriesKind::Gauge) => {
                        let d = sd.ensure(ctx)?;
                        let pts = &d.0;
                        let (lo, hi) = window_indices(pts, after, t);
                        if hi.saturating_sub(lo) < 2 {
                            continue;
                        }
                        gauge_value(&pts[hi - 1]) - gauge_value(&pts[lo])
                    }
                    // Kind mismatches drop the series, like Prometheus
                    // evaluating rate() over a gauge: no match, no error.
                    _ => continue,
                };
                out.push(VSample {
                    name: "",
                    labels: sd.labels.clone(),
                    v,
                });
            }
            Ok(Val::Vector(out))
        }
        Expr::HistQuantile { q, sel, window } => {
            let mut out = Vec::new();
            for sd in &ctx.series {
                if !sel_matches(sel, &sd.base, &sd.labels) || sd.kind != SeriesKind::Histogram {
                    continue;
                }
                let d = sd.ensure(ctx)?;
                let pts = &d.0;
                let merged = match window {
                    Some(w) => {
                        let (lo, hi) = window_indices(pts, t.checked_sub(*w), t);
                        if lo >= hi {
                            continue;
                        }
                        downsample(SeriesKind::Histogram, &pts[lo..hi])
                    }
                    None => {
                        let (_, hi) = window_indices(pts, None, t);
                        if hi == 0 || t.saturating_sub(pts[hi - 1].t) >= ctx.lookback {
                            continue;
                        }
                        Some(pts[hi - 1].value.clone())
                    }
                };
                let Some(PointValue::Histogram(state)) = merged else {
                    continue;
                };
                if state.count == 0 {
                    continue;
                }
                let v =
                    quantile_of(state.buckets.iter().copied(), state.count, state.max, *q) as f64;
                out.push(VSample {
                    name: "",
                    labels: sd.labels.clone(),
                    v,
                });
            }
            Ok(Val::Vector(out))
        }
        Expr::Agg { op, grouping, arg } => {
            let Val::Vector(samples) = eval(arg, ctx, t)? else {
                return Err(format!(
                    "{}() needs a vector argument, got a scalar",
                    op.name()
                ));
            };
            let mut groups: BTreeMap<Labels, Vec<f64>> = BTreeMap::new();
            for s in samples {
                let key = match grouping {
                    None => ctx.no_labels.clone(),
                    Some(g) => ctx.group_key(g, &s.labels),
                };
                groups.entry(key).or_default().push(s.v);
            }
            let out = groups
                .into_iter()
                .map(|(labels, vs)| {
                    let v = match op {
                        AggOp::Sum => vs.iter().sum(),
                        AggOp::Avg => vs.iter().sum::<f64>() / vs.len() as f64,
                        AggOp::Min => vs.iter().cloned().fold(f64::INFINITY, f64::min),
                        AggOp::Max => vs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                        AggOp::Count => vs.len() as f64,
                    };
                    VSample {
                        name: "",
                        labels,
                        v,
                    }
                })
                .collect();
            Ok(Val::Vector(out))
        }
        Expr::Bin { op, lhs, rhs } => {
            let l = eval(lhs, ctx, t)?;
            let r = eval(rhs, ctx, t)?;
            match (l, r) {
                (Val::Scalar(a), Val::Scalar(b)) => Ok(Val::Scalar(if op.is_comparison() {
                    if scalar_cmp(*op, a, b) {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    scalar_arith(*op, a, b)
                })),
                (Val::Vector(v), Val::Scalar(s)) => Ok(Val::Vector(apply_vs(*op, v, s, false))),
                (Val::Scalar(s), Val::Vector(v)) => Ok(Val::Vector(apply_vs(*op, v, s, true))),
                (Val::Vector(_), Val::Vector(_)) => {
                    Err("vector-to-vector binary operations are not in the supported subset".into())
                }
            }
        }
    }
}

fn scalar_arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        _ => f64::NAN,
    }
}

fn scalar_cmp(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Gt => a > b,
        BinOp::Lt => a < b,
        BinOp::Ge => a >= b,
        BinOp::Le => a <= b,
        _ => false,
    }
}

/// Vector-scalar operation. `flipped` means the scalar was the left
/// operand. Comparisons filter the vector (keeping names); arithmetic
/// maps values and drops metric names, like Prometheus.
fn apply_vs(op: BinOp, v: Vec<VSample<'_>>, s: f64, flipped: bool) -> Vec<VSample<'_>> {
    if op.is_comparison() {
        v.into_iter()
            .filter(|sample| {
                let (a, b) = if flipped {
                    (s, sample.v)
                } else {
                    (sample.v, s)
                };
                scalar_cmp(op, a, b)
            })
            .collect()
    } else {
        v.into_iter()
            .map(|mut sample| {
                let (a, b) = if flipped {
                    (s, sample.v)
                } else {
                    (sample.v, s)
                };
                sample.v = scalar_arith(op, a, b);
                sample.name = "";
                sample
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Results and rendering
// ---------------------------------------------------------------------

/// One instant-vector element.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (empty once a function or aggregation dropped it).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Evaluation timestamp (Unix seconds).
    pub t: u64,
    /// The value.
    pub v: f64,
}

/// One matrix row: a labelled series of `(t, value)` step results.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSeries {
    /// Metric name (empty once a function or aggregation dropped it).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// Step results, oldest first.
    pub values: Vec<(u64, f64)>,
}

/// What a query evaluated to.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A scalar expression.
    Scalar {
        /// Evaluation timestamp.
        t: u64,
        /// The value.
        v: f64,
    },
    /// An instant vector.
    Vector(Vec<Sample>),
    /// A range evaluation.
    Matrix(Vec<MatrixSeries>),
}

/// Evaluation work counters, carried on every [`QueryOutcome`] and
/// rendered into the API body only when the request asks (`stats=`) —
/// the default response bytes stay pinned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Series matched by the query's selectors.
    pub series: u64,
    /// Points materialized or stream-decoded.
    pub points_scanned: u64,
    /// Window evaluations answered by [`SeriesSource::fold_range`].
    pub pushdown_evals: u64,
    /// Sealed segments folded from header stats alone (no decode).
    pub segments_folded: u64,
}

/// A query result plus any per-shard warnings gathered on the way.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The evaluated result.
    pub result: QueryResult,
    /// Warnings (unreadable shard stores, shards without stores).
    pub warnings: Vec<String>,
    /// How much work the evaluation did.
    pub stats: QueryStats,
}

/// Prometheus-style sample value formatting: integers bare, floats in
/// Rust's shortest round-trip form, infinities as `+Inf`/`-Inf`.
pub fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else if v == v.trunc() && v.abs() < 9_007_199_254_740_992.0 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn write_metric_object(out: &mut String, name: &str, labels: &[(String, String)]) {
    out.push('{');
    let mut first = true;
    if !name.is_empty() {
        let _ = write!(out, "\"__name__\":{}", json_escape(name));
        first = false;
    }
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}:{}", json_escape(k), json_escape(v));
    }
    out.push('}');
}

impl QueryOutcome {
    /// Renders the Prometheus HTTP API response body:
    /// `{"status":"success","data":{"resultType":...,"result":...}}`,
    /// with a `"warnings"` array when any shard degraded.
    pub fn to_api_json(&self) -> String {
        self.to_api_json_with(false)
    }

    /// [`QueryOutcome::to_api_json`], optionally appending the
    /// evaluation's [`QueryStats`] as a `"stats"` object inside
    /// `"data"`. Off by default so existing response bytes stay
    /// unchanged.
    pub fn to_api_json_with(&self, include_stats: bool) -> String {
        let mut out = String::from("{\"status\":\"success\",\"data\":{\"resultType\":");
        match &self.result {
            QueryResult::Scalar { t, v } => {
                let _ = write!(
                    out,
                    "\"scalar\",\"result\":[{},{}]",
                    t,
                    json_escape(&fmt_value(*v))
                );
            }
            QueryResult::Vector(samples) => {
                out.push_str("\"vector\",\"result\":[");
                for (i, s) in samples.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"metric\":");
                    write_metric_object(&mut out, &s.name, &s.labels);
                    let _ = write!(
                        out,
                        ",\"value\":[{},{}]}}",
                        s.t,
                        json_escape(&fmt_value(s.v))
                    );
                }
                out.push(']');
            }
            QueryResult::Matrix(series) => {
                out.push_str("\"matrix\",\"result\":[");
                for (i, row) in series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"metric\":");
                    write_metric_object(&mut out, &row.name, &row.labels);
                    out.push_str(",\"values\":[");
                    for (j, (t, v)) in row.values.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{},{}]", t, json_escape(&fmt_value(*v)));
                    }
                    out.push_str("]}");
                }
                out.push(']');
            }
        }
        if include_stats {
            let s = &self.stats;
            let _ = write!(
                out,
                ",\"stats\":{{\"series\":{},\"pointsScanned\":{},\"pushdownEvals\":{},\"segmentsFolded\":{}}}",
                s.series, s.points_scanned, s.pushdown_evals, s.segments_folded
            );
        }
        out.push('}');
        if !self.warnings.is_empty() {
            out.push_str(",\"warnings\":[");
            for (i, w) in self.warnings.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&json_escape(w));
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// The Prometheus HTTP API error body (`status: error`).
pub fn query_error_json(msg: &str) -> String {
    format!(
        "{{\"status\":\"error\",\"errorType\":\"bad_data\",\"error\":{}}}",
        json_escape(msg)
    )
}

fn bad_request(msg: &str) -> HttpResponse {
    HttpResponse::json(400, format!("{}\n", query_error_json(msg)))
}

/// Serves `GET /api/v1/query` (`range = false`) or
/// `GET /api/v1/query_range` (`range = true`) over `engine`.
///
/// Instant parameters: `query` (required), `time` (Unix seconds;
/// defaults to the newest stored point, else `now_unix`), `step`
/// (optional data resolution, `1s`/`1m`/`1h`). Range parameters:
/// `query`, `start`, `end` (Unix seconds), `step` (seconds or a
/// duration like `1m`); the step picks the data resolution. Malformed
/// parameters and evaluation errors answer 400 with a Prometheus-style
/// error body; degraded shards surface as `warnings` on a 200.
pub fn api_query_response(
    engine: &QueryEngine,
    req: &HttpRequest,
    range: bool,
    now_unix: u64,
) -> HttpResponse {
    match api_query_outcome(engine, req, range, now_unix) {
        Ok(o) => HttpResponse::json(200, format!("{}\n", o.to_api_json_with(wants_stats(req)))),
        Err(resp) => resp,
    }
}

/// Whether the request opted into the `"stats"` object
/// (`stats=` anything but `false`/empty, Prometheus-style `stats=all`).
pub fn wants_stats(req: &HttpRequest) -> bool {
    req.query_param("stats")
        .is_some_and(|s| !s.is_empty() && s != "false" && s != "0")
}

/// The evaluation half of [`api_query_response`]: parses the request and
/// evaluates it, returning the raw [`QueryOutcome`] so callers can graft
/// extra warnings on (e.g. the live plane's slow-query annotation)
/// before rendering, or a ready-made error response.
pub fn api_query_outcome(
    engine: &QueryEngine,
    req: &HttpRequest,
    range: bool,
    now_unix: u64,
) -> Result<QueryOutcome, HttpResponse> {
    let Some(query) = req.query_param("query") else {
        return Err(bad_request("missing query= parameter"));
    };
    let outcome = if range {
        let parse_t = |key: &str| -> Result<u64, HttpResponse> {
            match req.query_param(key) {
                Some(s) => s
                    .parse()
                    .map_err(|_| bad_request(&format!("{key}= must be Unix seconds (got {s:?})"))),
                None => Err(bad_request(&format!("missing {key}= parameter"))),
            }
        };
        let (start, end) = match (parse_t("start"), parse_t("end")) {
            (Ok(s), Ok(e)) => (s, e),
            (Err(resp), _) | (_, Err(resp)) => return Err(resp),
        };
        let step = match req.query_param("step") {
            Some(s) => match parse_duration(&s) {
                Some(d) if d > 0 => d,
                _ => {
                    return Err(bad_request(&format!(
                        "step= must be a positive duration (got {s:?})"
                    )))
                }
            },
            None => return Err(bad_request("missing step= parameter")),
        };
        engine.range(&query, start, end, step)
    } else {
        let t = match req.query_param("time") {
            Some(s) => match s.parse() {
                Ok(t) => t,
                Err(_) => {
                    return Err(bad_request(&format!(
                        "time= must be Unix seconds (got {s:?})"
                    )))
                }
            },
            None => engine.newest_t().unwrap_or(now_unix),
        };
        let res = match req.query_param("step") {
            Some(s) => match Resolution::parse(&s) {
                Some(r) => r,
                None => {
                    return Err(bad_request(&format!(
                        "step= must be 1s, 1m, or 1h (got {s:?})"
                    )))
                }
            },
            None => Resolution::Raw1s,
        };
        engine.instant(&query, t, res)
    };
    outcome.map_err(|e| bad_request(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    /// A fixed in-memory source for engine tests.
    struct VecSource {
        series: Vec<(String, SeriesKind, Vec<Point>)>,
    }

    impl SeriesSource for VecSource {
        fn series(&self) -> Result<Vec<PromSeries>, String> {
            Ok(self
                .series
                .iter()
                .map(|(name, kind, pts)| {
                    let (base, labels) = parse_series_name(name);
                    let pts = pts.clone();
                    PromSeries {
                        key: name.clone(),
                        base,
                        labels,
                        kind: *kind,
                        fetch: Arc::new(move |_res, start, end| {
                            Ok(pts
                                .iter()
                                .filter(|p| p.t >= start && p.t <= end)
                                .cloned()
                                .collect())
                        }),
                    }
                })
                .collect())
        }
    }

    struct FailingSource;

    impl SeriesSource for FailingSource {
        fn series(&self) -> Result<Vec<PromSeries>, String> {
            Err("store unreadable".into())
        }
    }

    fn counter_pts(deltas: &[(u64, u64)]) -> Vec<Point> {
        deltas
            .iter()
            .map(|&(t, v)| Point {
                t,
                value: PointValue::Counter(v),
            })
            .collect()
    }

    fn gauge_pts(vals: &[(u64, i64)]) -> Vec<Point> {
        vals.iter()
            .map(|&(t, v)| Point {
                t,
                value: PointValue::Gauge(v),
            })
            .collect()
    }

    fn engine_with(series: Vec<(String, SeriesKind, Vec<Point>)>) -> QueryEngine {
        QueryEngine::new().with_source(None, Arc::new(VecSource { series }))
    }

    fn vector_of(outcome: &QueryOutcome) -> &[Sample] {
        match &outcome.result {
            QueryResult::Vector(v) => v,
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn parses_durations() {
        assert_eq!(parse_duration("90"), Some(90));
        assert_eq!(parse_duration("90s"), Some(90));
        assert_eq!(parse_duration("15m"), Some(900));
        assert_eq!(parse_duration("2h"), Some(7200));
        assert_eq!(parse_duration("1d"), Some(86_400));
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("5x"), None);
        assert_eq!(parse_duration("m"), None);
    }

    #[test]
    fn parses_labelled_series_names() {
        let (base, labels) = parse_series_name("netqos_path_used_bps{path=\"alpha\"}");
        assert_eq!(base, "netqos_path_used_bps");
        assert_eq!(labels, vec![("path".to_owned(), "alpha".to_owned())]);

        let (base, labels) = parse_series_name("plain_name");
        assert_eq!(base, "plain_name");
        assert!(labels.is_empty());

        // Escaped quote in the value.
        let (_, labels) = parse_series_name("m{a=\"x\\\"y\"}");
        assert_eq!(labels[0].1, "x\"y");
    }

    #[test]
    fn parse_errors_are_reported() {
        let eng = engine_with(Vec::new());
        for (q, needle) in [
            ("", "empty query"),
            ("rate(x)", "range"),
            ("sum(", "unexpected end"),
            ("x[5m]", "only valid as arguments"),
            ("x{a=}", "quoted pattern"),
            ("x ?? y", "unexpected character"),
            ("rate(x[0s])", "positive"),
            ("histogram_quantile(x, y)", "numeric quantile"),
        ] {
            let err = eng.instant(q, 100, Resolution::Raw1s).unwrap_err();
            assert!(err.contains(needle), "{q}: {err}");
        }
    }

    #[test]
    fn instant_counter_is_running_total_and_gauge_is_last() {
        let eng = engine_with(vec![
            (
                "reqs_total".into(),
                SeriesKind::Counter,
                counter_pts(&[(10, 5), (11, 7), (12, 1)]),
            ),
            (
                "temp".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 3), (12, 9)]),
            ),
        ]);
        let out = eng.instant("reqs_total", 11, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&out)[0].v, 12.0);
        let out = eng.instant("temp", 12, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&out)[0].v, 9.0);
        // Stale series (beyond lookback) drop out.
        let out = eng.instant("temp", 12 + 400, Resolution::Raw1s).unwrap();
        assert!(vector_of(&out).is_empty());
    }

    #[test]
    fn rate_and_increase_sum_window_deltas() {
        let eng = engine_with(vec![(
            "reqs_total".into(),
            SeriesKind::Counter,
            counter_pts(&[(10, 5), (20, 7), (30, 9)]),
        )]);
        // Window (10, 30]: deltas 7 + 9.
        let out = eng
            .instant("increase(reqs_total[20])", 30, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].v, 16.0);
        let out = eng
            .instant("rate(reqs_total[20])", 30, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].v, 0.8);
        // The metric name is dropped by rate().
        assert_eq!(vector_of(&out)[0].name, "");
        // Empty window: no sample.
        let out = eng
            .instant("rate(reqs_total[5])", 9, Resolution::Raw1s)
            .unwrap();
        assert!(vector_of(&out).is_empty());
    }

    #[test]
    fn window_sums_are_exact_whatever_came_before_the_window() {
        // Past 2^53 a float prefix sum stops counting by ones, and past
        // 2^64 only saturation is left: the fold's arithmetic.
        let eng = engine_with(vec![(
            "big_total".into(),
            SeriesKind::Counter,
            counter_pts(&[(10, 1 << 60), (20, 1), (30, 1), (40, 1), (50, u64::MAX)]),
        )]);
        let increase = |window: u64, t: u64| {
            let out = eng
                .instant(
                    &format!("increase(big_total[{window}])"),
                    t,
                    Resolution::Raw1s,
                )
                .unwrap();
            vector_of(&out)[0].v
        };
        assert_eq!(increase(30, 40), 3.0);
        assert_eq!(increase(40, 40), ((1u64 << 60) + 3) as f64);
        assert_eq!(increase(20, 50), u64::MAX as f64);
        let total = eng.instant("big_total", 50, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&total)[0].v, u64::MAX as f64);
    }

    #[test]
    fn delta_needs_two_gauge_points() {
        let eng = engine_with(vec![(
            "temp".into(),
            SeriesKind::Gauge,
            gauge_pts(&[(10, 3), (20, 9), (30, 4)]),
        )]);
        let out = eng
            .instant("delta(temp[15])", 30, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].v, -5.0); // 4 - 9 over (15, 30]
        let out = eng
            .instant("delta(temp[5])", 30, Resolution::Raw1s)
            .unwrap();
        assert!(vector_of(&out).is_empty());
    }

    #[test]
    fn histogram_quantile_merges_window_states() {
        let h1 = Histogram::new();
        for _ in 0..100 {
            h1.record(100);
        }
        let h2 = Histogram::new();
        for _ in 0..100 {
            h2.record(10_000);
        }
        let eng = engine_with(vec![(
            "lat_ns".into(),
            SeriesKind::Histogram,
            vec![
                Point {
                    t: 10,
                    value: PointValue::Histogram(h1.to_state()),
                },
                Point {
                    t: 20,
                    value: PointValue::Histogram(h2.to_state()),
                },
            ],
        )]);
        // Merged window: half the samples at ~100, half at ~10000.
        let out = eng
            .instant(
                "histogram_quantile(0.25, lat_ns[20])",
                20,
                Resolution::Raw1s,
            )
            .unwrap();
        let v = vector_of(&out)[0].v;
        assert!((90.0..=110.0).contains(&v), "{v}");
        let out = eng
            .instant(
                "histogram_quantile(0.99, lat_ns[20])",
                20,
                Resolution::Raw1s,
            )
            .unwrap();
        let v = vector_of(&out)[0].v;
        assert!((9_000.0..=11_000.0).contains(&v), "{v}");
        // Without a window: newest state only.
        let out = eng
            .instant("histogram_quantile(0.5, lat_ns)", 20, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out)[0].v;
        assert!((9_000.0..=11_000.0).contains(&v), "{v}");
        // A bare histogram selector yields nothing (not an error).
        let out = eng.instant("lat_ns", 20, Resolution::Raw1s).unwrap();
        assert!(vector_of(&out).is_empty());
    }

    #[test]
    fn aggregation_by_and_without() {
        let eng = engine_with(vec![
            (
                "used{path=\"a\",shard=\"s1\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 1)]),
            ),
            (
                "used{path=\"a\",shard=\"s2\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 2)]),
            ),
            (
                "used{path=\"b\",shard=\"s1\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 10)]),
            ),
        ]);
        let out = eng
            .instant("sum by (path) (used)", 10, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].labels, vec![("path".to_owned(), "a".to_owned())]);
        assert_eq!(v[0].v, 3.0);
        assert_eq!(v[1].v, 10.0);

        let out = eng
            .instant("sum without (shard) (used)", 10, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].v, 3.0);

        // Suffix grouping form, and the plain all-collapse.
        let out = eng
            .instant("max(used) by (shard)", 10, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].v, 10.0); // shard s1: max(1, 10)
        let out = eng.instant("count(used)", 10, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&out)[0].v, 3.0);
        let out = eng.instant("avg(used)", 10, Resolution::Raw1s).unwrap();
        assert!((vector_of(&out)[0].v - 13.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn label_matchers_and_wildcards() {
        let eng = engine_with(vec![
            (
                "used{path=\"alpha\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 1)]),
            ),
            (
                "used{path=\"beta\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 2)]),
            ),
            ("other".into(), SeriesKind::Gauge, gauge_pts(&[(10, 3)])),
        ]);
        let out = eng
            .instant("used{path=\"alpha\"}", 10, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out).len(), 1);
        let out = eng
            .instant("used{path=~\"*a\"}", 10, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out).len(), 2);
        let out = eng
            .instant("used{path!=\"alpha\"}", 10, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].labels[0].1, "beta");
        let out = eng
            .instant("{__name__=~\"use*\"}", 10, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out).len(), 2);
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let eng = engine_with(vec![
            ("a".into(), SeriesKind::Gauge, gauge_pts(&[(10, 4)])),
            ("b".into(), SeriesKind::Gauge, gauge_pts(&[(10, 10)])),
        ]);
        let out = eng.instant("a * 8", 10, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&out)[0].v, 32.0);
        assert_eq!(vector_of(&out)[0].name, ""); // arithmetic drops names
        let out = eng
            .instant("{__name__=~\"*\"} > 5", 10, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "b"); // comparison keeps names
        let out = eng.instant("(1 + 2) * 3", 10, Resolution::Raw1s).unwrap();
        assert_eq!(out.result, QueryResult::Scalar { t: 10, v: 9.0 });
        let out = eng.instant("2 > 1", 10, Resolution::Raw1s).unwrap();
        assert_eq!(out.result, QueryResult::Scalar { t: 10, v: 1.0 });
        // Scalar on the left filters the vector side too.
        let out = eng
            .instant("5 > {__name__=~\"*\"}", 10, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].name, "a");
        let err = eng.instant("a + b", 10, Resolution::Raw1s).unwrap_err();
        assert!(err.contains("vector-to-vector"), "{err}");
    }

    #[test]
    fn shard_labels_merge_sources_and_failures_warn() {
        let s1 = VecSource {
            series: vec![(
                "used{path=\"a\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 1)]),
            )],
        };
        let s2 = VecSource {
            series: vec![(
                "used{path=\"a\"}".into(),
                SeriesKind::Gauge,
                gauge_pts(&[(10, 5)]),
            )],
        };
        let mut eng = QueryEngine::new();
        eng.push_source(Some("east"), Arc::new(s1));
        eng.push_source(Some("west"), Arc::new(s2));
        eng.push_source(Some("south"), Arc::new(FailingSource));

        let out = eng.instant("used", 10, Resolution::Raw1s).unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 2);
        assert!(v[0]
            .labels
            .contains(&("shard".to_owned(), "east".to_owned())));
        assert!(v[1]
            .labels
            .contains(&("shard".to_owned(), "west".to_owned())));
        assert_eq!(out.warnings, vec!["shard south: store unreadable"]);

        // Cross-shard aggregation folds the shard label away.
        let out = eng
            .instant("sum by (path) (used)", 10, Resolution::Raw1s)
            .unwrap();
        let v = vector_of(&out);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].v, 6.0);
        assert_eq!(v[0].labels, vec![("path".to_owned(), "a".to_owned())]);
    }

    #[test]
    fn range_query_builds_sorted_matrix() {
        let eng = engine_with(vec![(
            "reqs_total".into(),
            SeriesKind::Counter,
            counter_pts(&[(10, 2), (11, 2), (12, 2), (13, 2)]),
        )]);
        let out = eng.range("increase(reqs_total[2])", 11, 13, 1).unwrap();
        let QueryResult::Matrix(rows) = &out.result else {
            panic!("expected matrix");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values, vec![(11, 4.0), (12, 4.0), (13, 4.0)]);

        // Scalar expressions become a constant anonymous series.
        let out = eng.range("4 / 2", 10, 12, 1).unwrap();
        let QueryResult::Matrix(rows) = &out.result else {
            panic!("expected matrix");
        };
        assert_eq!(rows[0].values, vec![(10, 2.0), (11, 2.0), (12, 2.0)]);

        assert!(eng.range("1", 10, 5, 1).is_err());
        assert!(eng.range("1", 0, 10, 0).is_err());
        assert!(eng.range("1", 0, 100_000, 1).is_err());
    }

    #[test]
    fn api_json_shapes_are_stable() {
        let eng = engine_with(vec![(
            "used{path=\"a\"}".into(),
            SeriesKind::Gauge,
            gauge_pts(&[(10, 3)]),
        )]);
        let out = eng.instant("used", 10, Resolution::Raw1s).unwrap();
        assert_eq!(
            out.to_api_json(),
            "{\"status\":\"success\",\"data\":{\"resultType\":\"vector\",\"result\":[{\"metric\":{\"__name__\":\"used\",\"path\":\"a\"},\"value\":[10,\"3\"]}]}}"
        );
        let out = eng.range("used", 10, 11, 1).unwrap();
        assert_eq!(
            out.to_api_json(),
            "{\"status\":\"success\",\"data\":{\"resultType\":\"matrix\",\"result\":[{\"metric\":{\"__name__\":\"used\",\"path\":\"a\"},\"values\":[[10,\"3\"],[11,\"3\"]]}]}}"
        );
        let out = eng.instant("1.5", 7, Resolution::Raw1s).unwrap();
        assert_eq!(
            out.to_api_json(),
            "{\"status\":\"success\",\"data\":{\"resultType\":\"scalar\",\"result\":[7,\"1.5\"]}}"
        );
        assert_eq!(
            query_error_json("nope"),
            "{\"status\":\"error\",\"errorType\":\"bad_data\",\"error\":\"nope\"}"
        );
    }

    #[test]
    fn value_formatting() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(-4.0), "-4");
        assert_eq!(fmt_value(0.8), "0.8");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
    }

    #[test]
    fn registry_source_serves_instant_values() {
        let reg = Registry::new();
        reg.counter("reqs_total").add(41);
        reg.gauge("depth{q=\"fast\"}").set(17);
        reg.histogram("lat_ns").record(1000);
        let eng = QueryEngine::new().with_source(None, Arc::new(RegistrySource::new(reg)));
        let out = eng.instant("reqs_total", 100, Resolution::Raw1s).unwrap();
        assert_eq!(vector_of(&out)[0].v, 41.0);
        let out = eng
            .instant("depth{q=\"fast\"}", 100, Resolution::Raw1s)
            .unwrap();
        assert_eq!(vector_of(&out)[0].v, 17.0);
        let out = eng
            .instant("histogram_quantile(0.5, lat_ns)", 100, Resolution::Raw1s)
            .unwrap();
        assert!(vector_of(&out)[0].v > 0.0);
    }

    #[test]
    fn check_query_lints_without_evaluating() {
        assert!(check_query("rate(reqs_total[5m])").is_ok());
        assert!(check_query("sum(a) / sum(b)").is_ok());
        assert!(check_query("rate(").is_err());
        assert!(check_query("").is_err());
    }

    /// Every shape the grammar nests in, `n` levels deep past a bare
    /// `1`: parentheses, unary minuses and a `+` chain.
    fn nested_queries(n: usize) -> [String; 3] {
        [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "-".repeat(n)),
            vec!["1"; n + 1].join("+"),
        ]
    }

    /// Each shape at the most levels `bytes` of query holds, `+` spelled
    /// as `plus`.
    fn filling(bytes: usize, plus: &str) -> [String; 3] {
        let terms = (bytes + plus.len()) / (1 + plus.len());
        [
            format!(
                "{}1{}",
                "(".repeat((bytes - 1) / 2),
                ")".repeat((bytes - 1) / 2)
            ),
            format!("{}1", "-".repeat(bytes - 1)),
            vec!["1"; terms].join(plus),
        ]
    }

    /// A tree as deep as the cap parses and evaluates; one level more,
    /// or a whole request head of nesting, is an ordinary parse error.
    /// Run on the 2 MiB stack each HTTP connection's thread has.
    #[test]
    fn nesting_past_the_cap_is_a_parse_error_not_a_stack_overflow() {
        let run = || {
            let engine = QueryEngine::new();
            for q in nested_queries(MAX_QUERY_DEPTH - 1) {
                assert!(check_query(&q).is_ok(), "{q}");
                let out = engine.instant(&q, 0, Resolution::Raw1s).unwrap();
                assert!(matches!(out.result, QueryResult::Scalar { .. }), "{q}");
            }
            // One level more, and a whole request head of nesting.
            let past = nested_queries(MAX_QUERY_DEPTH);
            for q in past.iter().chain(&filling(8 * 1024 - 1, "+")) {
                let err = check_query(q).unwrap_err();
                assert!(err.contains("nests deeper than 128"), "{err}");
                assert!(engine.instant(q, 0, Resolution::Raw1s).is_err());
            }
        };
        let thread = std::thread::Builder::new().stack_size(2 << 20);
        thread.spawn(run).unwrap().join().unwrap();
    }

    /// Over HTTP: a query nested as deep as a request head allows is a
    /// 400, and the server goes on answering.
    #[test]
    fn a_nested_query_in_one_request_head_is_a_400() {
        use crate::http::{http_get, HttpServer, Router};
        let engine = QueryEngine::new();
        let router: Arc<Router> =
            Arc::new(move |req| Some(api_query_response(&engine, req, false, 0).into()));
        let server = HttpServer::serve("127.0.0.1:0", router).unwrap();
        let port = server.local_addr().port();
        // The request line's `GET`, path, `?query=` and ` HTTP/1.1`, and
        // the headers `http_get` sends, leave room for 8 000 bytes.
        for q in filling(8_000, "%2B") {
            let (status, body) =
                http_get("127.0.0.1", port, &format!("/api/v1/query?query={q}")).unwrap();
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("nests deeper than 128"), "{body}");
        }
        let (status, body) = http_get("127.0.0.1", port, "/api/v1/query?query=1%2B1").unwrap();
        assert_eq!((status, body.contains("\"2\"")), (200, true), "{body}");
        server.stop();
    }

    fn store_backed_engine(tag: &str) -> (std::path::PathBuf, QueryEngine, Vec<Point>) {
        use crate::lts::{LtsConfig, LtsCounters, LtsStore, SegmentCodec};
        let dir = std::env::temp_dir().join(format!("netqos-promql-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = LtsConfig {
            codec: SegmentCodec::Binary,
            seal_points: 64,
            ..LtsConfig::default()
        };
        let mut store = LtsStore::open(&dir, config, LtsCounters::detached()).unwrap();
        let mut pts = Vec::new();
        for t in 0..300u64 {
            store.append("c_total", t, PointValue::Counter(t % 5));
            pts.push(Point {
                t,
                value: PointValue::Counter(t % 5),
            });
            if t % 70 == 69 {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        let eng =
            QueryEngine::new().with_source(None, Arc::new(LtsSource::new(LtsReader::open(&dir))));
        (dir, eng, pts)
    }

    #[test]
    fn pushdown_matches_materialized_evaluation() {
        let (dir, eng, pts) = store_backed_engine("pushdown");
        // The same data behind a source with no fold path: every
        // evaluation takes the general, materializing path.
        let slow = QueryEngine::new().with_source(
            None,
            Arc::new(VecSource {
                series: vec![("c_total".into(), SeriesKind::Counter, pts)],
            }),
        );
        for query in [
            "c_total",
            "rate(c_total[100s])",
            "rate(c_total[299s])",
            "increase(c_total[250s])",
            "sum(rate(c_total[200s]))",
        ] {
            let fast = eng.instant(query, 299, Resolution::Raw1s).unwrap();
            let general = slow.instant(query, 299, Resolution::Raw1s).unwrap();
            assert_eq!(
                vector_of(&fast)
                    .iter()
                    .map(|s| (s.name.clone(), s.v))
                    .collect::<Vec<_>>(),
                vector_of(&general)
                    .iter()
                    .map(|s| (s.name.clone(), s.v))
                    .collect::<Vec<_>>(),
                "{query}"
            );
            assert!(fast.stats.pushdown_evals > 0, "{query}: {:?}", fast.stats);
            assert_eq!(general.stats.pushdown_evals, 0);
            assert!(general.stats.points_scanned > 0);
        }
        // Sealed segments fully inside the window fold from header
        // stats, so the fast path touches far fewer points.
        let fast = eng
            .instant("rate(c_total[299s])", 299, Resolution::Raw1s)
            .unwrap();
        assert!(fast.stats.segments_folded > 0, "{:?}", fast.stats);
        assert!(fast.stats.points_scanned < 300, "{:?}", fast.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_queries_materialize_once_not_per_step() {
        let (dir, eng, _) = store_backed_engine("range-stats");
        let out = eng.range("rate(c_total[60s])", 100, 280, 10).unwrap();
        assert!(matches!(out.result, QueryResult::Matrix(_)));
        // No fold on the range path; the per-series fetch happens once.
        assert_eq!(out.stats.pushdown_evals, 0);
        assert_eq!(out.stats.series, 1);
        assert!(out.stats.points_scanned <= 300, "{:?}", out.stats);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_render_only_when_asked() {
        let (dir, eng, _) = store_backed_engine("stats-json");
        let out = eng.instant("c_total", 299, Resolution::Raw1s).unwrap();
        let plain = out.to_api_json();
        assert!(!plain.contains("\"stats\""));
        let with = out.to_api_json_with(true);
        assert!(with.contains("\"stats\":{\"series\":1,"), "{with}");
        assert!(with.contains("\"pushdownEvals\""), "{with}");
        // Identical payload otherwise: stripping the stats object from
        // the verbose form yields the plain form.
        let req = |q: &str| HttpRequest {
            method: "GET".into(),
            path: "/api/v1/query".into(),
            query: q.into(),
            accept: String::new(),
        };
        assert!(!wants_stats(&req("query=c_total")));
        assert!(!wants_stats(&req("query=c_total&stats=false")));
        assert!(!wants_stats(&req("query=c_total&stats=0")));
        assert!(wants_stats(&req("query=c_total&stats=true")));
        assert!(wants_stats(&req("query=c_total&stats=all")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
