//! Reference oracle: the lexer and parser the library used before it
//! lexed on demand.
//!
//! The lexer tokenizes the whole file into a `Vec` of owned tokens, each
//! identifier and string literal a `String` of its own, before the parser
//! sees any of them; the parser clones each token it consumes. Slow and
//! obviously right: the differential tests (`tests/differential.rs`)
//! require the library's `parse` to return the same `SpecFile`, or the
//! same `SpecError`, spans included, on every input.

use netqos_spec::ast::*;
use netqos_spec::{Span, SpecError};
use netqos_topology::NodeKind;

// ---------------------------------------------------------------------------
// Lexer: the whole file at once
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ident(String),
    Str(String),
    Int(u64),
    Bandwidth(u64),
    Percent(f64),
    LBrace,
    RBrace,
    Semi,
    Dot,
    Arrow,
    Eof,
}

impl Token {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier `{s}`"),
            Token::Str(s) => format!("string {s:?}"),
            Token::Int(n) => format!("number `{n}`"),
            Token::Bandwidth(b) => format!("bandwidth `{b}bps`"),
            Token::Percent(p) => format!("percentage `{}%`", p * 100.0),
            Token::LBrace => "`{`".to_owned(),
            Token::RBrace => "`}`".to_owned(),
            Token::Semi => "`;`".to_owned(),
            Token::Dot => "`.`".to_owned(),
            Token::Arrow => "`<->`".to_owned(),
            Token::Eof => "end of input".to_owned(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Spanned {
    token: Token,
    span: Span,
}

fn unit_multiplier(unit: &str) -> Option<u64> {
    Some(match unit {
        "bps" => 1,
        "Kbps" | "kbps" => 1_000,
        "Mbps" | "mbps" => 1_000_000,
        "Gbps" | "gbps" => 1_000_000_000,
        "Bps" => 8,
        "KBps" | "kBps" => 8_000,
        "MBps" | "mBps" => 8_000_000,
        _ => return None,
    })
}

fn lex(src: &str) -> Result<Vec<Spanned>, SpecError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! bump {
        () => {{
            let c = chars.next();
            if let Some(c) = c {
                if c == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
            }
            c
        }};
    }

    loop {
        loop {
            match chars.peek() {
                Some(c) if c.is_whitespace() => {
                    bump!();
                }
                Some('#') => {
                    while let Some(&c) = chars.peek() {
                        if c == '\n' {
                            break;
                        }
                        bump!();
                    }
                }
                _ => break,
            }
        }

        let span = Span::new(line, col);
        let Some(&c) = chars.peek() else {
            out.push(Spanned {
                token: Token::Eof,
                span,
            });
            return Ok(out);
        };

        let token = if c.is_ascii_alphabetic() || c == '_' {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                    s.push(c);
                    bump!();
                } else {
                    break;
                }
            }
            Token::Ident(s)
        } else if c.is_ascii_digit() {
            let mut digits = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() {
                    digits.push(c);
                    bump!();
                } else {
                    break;
                }
            }
            if chars.peek() == Some(&'.') {
                let save = (chars.clone(), line, col);
                bump!();
                let mut frac = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_digit() {
                        frac.push(c);
                        bump!();
                    } else {
                        break;
                    }
                }
                let unit_follows =
                    !frac.is_empty() && matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic());
                if unit_follows {
                    digits.push('.');
                    digits.push_str(&frac);
                } else {
                    (chars, line, col) = save;
                }
            }
            let mut unit = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphabetic() {
                    unit.push(c);
                    bump!();
                } else {
                    break;
                }
            }
            if unit.is_empty() && chars.peek() == Some(&'%') {
                bump!();
                let v: f64 = digits.parse().map_err(|_| SpecError::BadNumber {
                    span,
                    text: digits.clone(),
                })?;
                Token::Percent(v / 100.0)
            } else if unit.is_empty() {
                let v: u64 = digits.parse().map_err(|_| SpecError::BadNumber {
                    span,
                    text: digits.clone(),
                })?;
                Token::Int(v)
            } else {
                let mult = unit_multiplier(&unit).ok_or_else(|| SpecError::UnknownUnit {
                    span,
                    unit: unit.clone(),
                })?;
                let v: f64 = digits.parse().map_err(|_| SpecError::BadNumber {
                    span,
                    text: digits.clone(),
                })?;
                Token::Bandwidth((v * mult as f64).round() as u64)
            }
        } else if c == '"' {
            bump!();
            let mut s = String::new();
            loop {
                match bump!() {
                    Some('"') => break,
                    Some('\n') | None => return Err(SpecError::UnterminatedString { span }),
                    Some(c) => s.push(c),
                }
            }
            Token::Str(s)
        } else if c == '<' {
            bump!();
            if chars.peek() == Some(&'-') {
                bump!();
                if chars.peek() == Some(&'>') {
                    bump!();
                    Token::Arrow
                } else {
                    return Err(SpecError::UnexpectedChar { span, ch: '-' });
                }
            } else {
                return Err(SpecError::UnexpectedChar { span, ch: '<' });
            }
        } else {
            bump!();
            match c {
                '{' => Token::LBrace,
                '}' => Token::RBrace,
                ';' => Token::Semi,
                '.' => Token::Dot,
                other => return Err(SpecError::UnexpectedChar { span, ch: other }),
            }
        };
        out.push(Spanned { token, span });
    }
}

// ---------------------------------------------------------------------------
// Parser: over the token vector, one clone per token consumed
// ---------------------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Spanned {
        let t = self.peek().clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn expected(&self, what: &'static str) -> SpecError {
        SpecError::Expected {
            span: self.peek().span,
            expected: what,
            found: self.peek().token.describe(),
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), SpecError> {
        match &self.peek().token {
            Token::Ident(_) => {
                let t = self.bump();
                match t.token {
                    Token::Ident(s) => Ok((s, t.span)),
                    _ => unreachable!(),
                }
            }
            _ => Err(self.expected("an identifier")),
        }
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<Span, SpecError> {
        match &self.peek().token {
            Token::Ident(s) if s == kw => Ok(self.bump().span),
            _ => Err(SpecError::Expected {
                span: self.peek().span,
                expected: kw,
                found: self.peek().token.describe(),
            }),
        }
    }

    fn expect(&mut self, t: Token, what: &'static str) -> Result<Span, SpecError> {
        if self.peek().token == t {
            Ok(self.bump().span)
        } else {
            Err(self.expected(what))
        }
    }

    fn expect_string(&mut self) -> Result<String, SpecError> {
        match &self.peek().token {
            Token::Str(_) => {
                let t = self.bump();
                match t.token {
                    Token::Str(s) => Ok(s),
                    _ => unreachable!(),
                }
            }
            _ => Err(self.expected("a string literal")),
        }
    }

    fn expect_bandwidth(&mut self) -> Result<u64, SpecError> {
        match self.peek().token {
            Token::Bandwidth(b) => {
                self.bump();
                Ok(b)
            }
            Token::Int(n) => {
                self.bump();
                Ok(n)
            }
            _ => Err(self.expected("a bandwidth (e.g. 100Mbps)")),
        }
    }

    fn expect_ip(&mut self) -> Result<String, SpecError> {
        let mut parts = Vec::with_capacity(4);
        for i in 0..4 {
            match self.peek().token {
                Token::Int(n) => {
                    self.bump();
                    parts.push(n.to_string());
                }
                _ => return Err(self.expected("an IPv4 address")),
            }
            if i < 3 {
                self.expect(Token::Dot, "`.` in IPv4 address")?;
            }
        }
        Ok(parts.join("."))
    }

    fn parse_file(&mut self) -> Result<SpecFile, SpecError> {
        let mut file = SpecFile::default();
        loop {
            match &self.peek().token {
                Token::Eof => return Ok(file),
                Token::Ident(kw) => match kw.as_str() {
                    "host" => {
                        let span = self.bump().span;
                        file.nodes.push(self.parse_node(NodeKind::Host, span)?);
                    }
                    "device" => {
                        let span = self.bump().span;
                        let (name, _) = self.expect_ident()?;
                        let (kind_word, kind_span) = self.expect_ident()?;
                        let kind: NodeKind =
                            kind_word.parse().map_err(|_| SpecError::UnknownKind {
                                span: kind_span,
                                kind: kind_word.clone(),
                            })?;
                        let mut node = self.parse_node_body(name, kind, span)?;
                        node.span = span;
                        file.nodes.push(node);
                    }
                    "connection" => {
                        let span = self.bump().span;
                        let a = self.parse_endpoint()?;
                        self.expect(Token::Arrow, "`<->`")?;
                        let b = self.parse_endpoint()?;
                        self.expect(Token::Semi, "`;`")?;
                        file.connections.push(ConnectionDecl { a, b, span });
                    }
                    "qospath" => {
                        let span = self.bump().span;
                        file.qos_paths.push(self.parse_qospath(span)?);
                    }
                    "application" => {
                        let span = self.bump().span;
                        file.applications.push(self.parse_application(span)?);
                    }
                    _ => {
                        return Err(self.expected(
                            "`host`, `device`, `connection`, `application`, or `qospath`",
                        ))
                    }
                },
                _ => return Err(self.expected("a declaration")),
            }
        }
    }

    fn parse_node(&mut self, kind: NodeKind, span: Span) -> Result<NodeDecl, SpecError> {
        let (name, _) = self.expect_ident()?;
        self.parse_node_body(name, kind, span)
    }

    fn parse_node_body(
        &mut self,
        name: String,
        kind: NodeKind,
        span: Span,
    ) -> Result<NodeDecl, SpecError> {
        let mut node = NodeDecl::new(&name, kind);
        node.span = span;
        self.expect(Token::LBrace, "`{`")?;
        loop {
            match &self.peek().token {
                Token::RBrace => {
                    self.bump();
                    return Ok(node);
                }
                Token::Ident(kw) => {
                    let kw = kw.clone();
                    let kw_span = self.peek().span;
                    match kw.as_str() {
                        "os" => {
                            self.bump();
                            let v = self.expect_string()?;
                            if node.os.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "os".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "address" => {
                            self.bump();
                            let v = self.expect_ip()?;
                            if node.address.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "address".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "snmp" => {
                            self.bump();
                            self.expect_keyword("community")?;
                            let v = self.expect_string()?;
                            if node.snmp_community.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "snmp community".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "speed" => {
                            self.bump();
                            let v = self.expect_bandwidth()?;
                            if node.default_speed.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "speed".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "interface" => {
                            self.bump();
                            node.interfaces.push(self.parse_interface(kw_span)?);
                        }
                        _ => {
                            return Err(self
                                .expected("`os`, `address`, `snmp`, `speed`, `interface`, or `}`"))
                        }
                    }
                }
                _ => return Err(self.expected("a node property or `}`")),
            }
        }
    }

    fn parse_interface(&mut self, span: Span) -> Result<InterfaceDecl, SpecError> {
        let (local_name, _) = self.expect_ident()?;
        let mut decl = InterfaceDecl {
            local_name,
            speed_bps: None,
            span,
        };
        match self.peek().token {
            Token::Semi => {
                self.bump();
                Ok(decl)
            }
            Token::LBrace => {
                self.bump();
                loop {
                    match &self.peek().token {
                        Token::RBrace => {
                            self.bump();
                            return Ok(decl);
                        }
                        Token::Ident(kw) if kw == "speed" => {
                            let kw_span = self.peek().span;
                            self.bump();
                            let v = self.expect_bandwidth()?;
                            if decl.speed_bps.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "speed".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        _ => return Err(self.expected("`speed` or `}`")),
                    }
                }
            }
            _ => Err(self.expected("`;` or `{`")),
        }
    }

    fn parse_application(&mut self, span: Span) -> Result<AppDecl, SpecError> {
        let (name, _) = self.expect_ident()?;
        self.expect_keyword("on")?;
        let (host, _) = self.expect_ident()?;
        let mut decl = AppDecl {
            name,
            host,
            pinned: false,
            span,
        };
        match self.peek().token {
            Token::Semi => {
                self.bump();
                Ok(decl)
            }
            Token::LBrace => {
                self.bump();
                loop {
                    match &self.peek().token {
                        Token::RBrace => {
                            self.bump();
                            return Ok(decl);
                        }
                        Token::Ident(kw) if kw == "pinned" => {
                            self.bump();
                            decl.pinned = true;
                            self.expect(Token::Semi, "`;`")?;
                        }
                        _ => return Err(self.expected("`pinned` or `}`")),
                    }
                }
            }
            _ => Err(self.expected("`;` or `{`")),
        }
    }

    fn parse_endpoint(&mut self) -> Result<EndpointRef, SpecError> {
        let (node, _) = self.expect_ident()?;
        self.expect(Token::Dot, "`.`")?;
        let (interface, _) = self.expect_ident()?;
        Ok(EndpointRef { node, interface })
    }

    fn parse_qospath(&mut self, span: Span) -> Result<QosPathDecl, SpecError> {
        let (name, _) = self.expect_ident()?;
        self.expect_keyword("from")?;
        let (from, _) = self.expect_ident()?;
        self.expect_keyword("to")?;
        let (to, _) = self.expect_ident()?;
        let mut decl = QosPathDecl {
            name,
            from,
            to,
            min_available_bps: None,
            max_utilization: None,
            application: None,
            span,
        };
        self.expect(Token::LBrace, "`{`")?;
        loop {
            match &self.peek().token {
                Token::RBrace => {
                    self.bump();
                    return Ok(decl);
                }
                Token::Ident(kw) => {
                    let kw = kw.clone();
                    let kw_span = self.peek().span;
                    match kw.as_str() {
                        "min_available" => {
                            self.bump();
                            let v = self.expect_bandwidth()?;
                            if decl.min_available_bps.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "min_available".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "max_utilization" => {
                            self.bump();
                            let v = match self.peek().token {
                                Token::Percent(p) => {
                                    self.bump();
                                    p
                                }
                                _ => return Err(self.expected("a percentage (e.g. 80%)")),
                            };
                            if decl.max_utilization.replace(v).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "max_utilization".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        "application" => {
                            self.bump();
                            let (app, _) = self.expect_ident()?;
                            if decl.application.replace(app).is_some() {
                                return Err(SpecError::DuplicateProperty {
                                    span: kw_span,
                                    name: "application".into(),
                                });
                            }
                            self.expect(Token::Semi, "`;`")?;
                        }
                        _ => {
                            return Err(self.expected(
                                "`min_available`, `max_utilization`, `application`, or `}`",
                            ))
                        }
                    }
                }
                _ => return Err(self.expected("a qospath property or `}`")),
            }
        }
    }
}

/// Lexes the whole file, then parses the tokens.
pub fn parse(src: &str) -> Result<SpecFile, SpecError> {
    let tokens = lex(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.parse_file()
}
