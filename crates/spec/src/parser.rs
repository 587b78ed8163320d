//! Recursive-descent parser for the specification language.
//!
//! Grammar (EBNF, `#`-comments and whitespace insignificant):
//!
//! ```text
//! file        := decl* EOF
//! decl        := host | device | connection | qospath
//! host        := "host" IDENT "{" node-item* "}"
//! device      := "device" IDENT KIND "{" node-item* "}"     KIND := switch|hub|router
//! node-item   := "os" STR ";" | "address" ip ";" | "snmp" "community" STR ";"
//!              | "speed" BW ";" | interface
//! interface   := "interface" IDENT (";" | "{" if-item* "}")
//! if-item     := "speed" BW ";"
//! connection  := "connection" endpoint "<->" endpoint ";"
//! endpoint    := IDENT "." IDENT
//! qospath     := "qospath" IDENT "from" IDENT "to" IDENT "{" qos-item* "}"
//! qos-item    := "min_available" BW ";" | "max_utilization" PCT ";"
//! ip          := INT "." INT "." INT "." INT
//! ```
//!
//! The parser pulls tokens from the lexer one at a time and copies each
//! name once, into the AST. A lexing error anywhere in the file outranks
//! a parse error: on a parse error the rest of the file is lexed, and its
//! first lexing error, if any, is what [`parse`] returns.

use crate::ast::*;
use crate::error::{Span, SpecError};
use crate::lexer::{Lexer, Spanned, Token};
use netqos_topology::NodeKind;
use std::fmt::Write as _;

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The one token of lookahead.
    peek: Spanned<'src>,
}

impl<'src> Parser<'src> {
    /// Consumes the lookahead, lexing the token after it.
    fn bump(&mut self) -> Result<Spanned<'src>, SpecError> {
        let next = self.lexer.next_token()?;
        Ok(std::mem::replace(&mut self.peek, next))
    }

    fn expected(&self, what: &'static str) -> SpecError {
        SpecError::Expected {
            span: self.peek.span,
            expected: what,
            found: self.peek.token.describe(),
        }
    }

    fn expect_ident(&mut self) -> Result<(&'src str, Span), SpecError> {
        match self.peek.token {
            Token::Ident(s) => Ok((s, self.bump()?.span)),
            _ => Err(self.expected("an identifier")),
        }
    }

    fn expect_name(&mut self) -> Result<String, SpecError> {
        Ok(self.expect_ident()?.0.to_owned())
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<Span, SpecError> {
        match self.peek.token {
            Token::Ident(s) if s == kw => Ok(self.bump()?.span),
            _ => Err(self.expected(kw)),
        }
    }

    fn expect(&mut self, t: Token, what: &'static str) -> Result<Span, SpecError> {
        if self.peek.token == t {
            Ok(self.bump()?.span)
        } else {
            Err(self.expected(what))
        }
    }

    fn expect_string(&mut self) -> Result<String, SpecError> {
        match self.peek.token {
            Token::Str(s) => {
                self.bump()?;
                Ok(s.to_owned())
            }
            _ => Err(self.expected("a string literal")),
        }
    }

    fn expect_bandwidth(&mut self) -> Result<u64, SpecError> {
        match self.peek.token {
            // bare numbers are bits/second
            Token::Bandwidth(b) | Token::Int(b) => {
                self.bump()?;
                Ok(b)
            }
            _ => Err(self.expected("a bandwidth (e.g. 100Mbps)")),
        }
    }

    /// An IPv4 address: INT . INT . INT . INT (validated structurally; the
    /// simulator validates ranges).
    fn expect_ip(&mut self) -> Result<String, SpecError> {
        let mut ip = String::with_capacity("255.255.255.255".len());
        for i in 0..4 {
            let Token::Int(n) = self.peek.token else {
                return Err(self.expected("an IPv4 address"));
            };
            self.bump()?;
            let _ = write!(ip, "{n}");
            if i < 3 {
                self.expect(Token::Dot, "`.` in IPv4 address")?;
                ip.push('.');
            }
        }
        Ok(ip)
    }

    fn parse_file(&mut self) -> Result<SpecFile, SpecError> {
        let mut file = SpecFile::default();
        loop {
            let Token::Ident(kw) = self.peek.token else {
                return match self.peek.token {
                    Token::Eof => Ok(file),
                    _ => Err(self.expected("a declaration")),
                };
            };
            let span = self.peek.span;
            match kw {
                "host" => {
                    self.bump()?;
                    let (name, _) = self.expect_ident()?;
                    file.nodes
                        .push(self.parse_node_body(name, NodeKind::Host, span)?);
                }
                "device" => {
                    self.bump()?;
                    // device NAME KIND { ... }
                    let (name, _) = self.expect_ident()?;
                    let (kind_word, kind_span) = self.expect_ident()?;
                    let kind: NodeKind = kind_word.parse().map_err(|_| SpecError::UnknownKind {
                        span: kind_span,
                        kind: kind_word.to_owned(),
                    })?;
                    file.nodes.push(self.parse_node_body(name, kind, span)?);
                }
                "connection" => {
                    self.bump()?;
                    let a = self.parse_endpoint()?;
                    self.expect(Token::Arrow, "`<->`")?;
                    let b = self.parse_endpoint()?;
                    self.expect(Token::Semi, "`;`")?;
                    file.connections.push(ConnectionDecl { a, b, span });
                }
                "qospath" => {
                    self.bump()?;
                    file.qos_paths.push(self.parse_qospath(span)?);
                }
                "application" => {
                    self.bump()?;
                    file.applications.push(self.parse_application(span)?);
                }
                _ => {
                    return Err(self
                        .expected("`host`, `device`, `connection`, `application`, or `qospath`"))
                }
            }
        }
    }

    fn parse_node_body(
        &mut self,
        name: &str,
        kind: NodeKind,
        span: Span,
    ) -> Result<NodeDecl, SpecError> {
        let mut node = NodeDecl::new(name, kind);
        node.span = span;
        self.expect(Token::LBrace, "`{`")?;
        loop {
            let kw = match self.peek.token {
                Token::RBrace => {
                    self.bump()?;
                    return Ok(node);
                }
                Token::Ident(kw) => kw,
                _ => return Err(self.expected("a node property or `}`")),
            };
            let kw_span = self.peek.span;
            let duplicate = |name: &str| SpecError::DuplicateProperty {
                span: kw_span,
                name: name.into(),
            };
            match kw {
                "os" => {
                    self.bump()?;
                    let v = self.expect_string()?;
                    if node.os.replace(v).is_some() {
                        return Err(duplicate("os"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "address" => {
                    self.bump()?;
                    let v = self.expect_ip()?;
                    if node.address.replace(v).is_some() {
                        return Err(duplicate("address"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "snmp" => {
                    self.bump()?;
                    self.expect_keyword("community")?;
                    let v = self.expect_string()?;
                    if node.snmp_community.replace(v).is_some() {
                        return Err(duplicate("snmp community"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "speed" => {
                    self.bump()?;
                    let v = self.expect_bandwidth()?;
                    if node.default_speed.replace(v).is_some() {
                        return Err(duplicate("speed"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "interface" => {
                    self.bump()?;
                    node.interfaces.push(self.parse_interface(kw_span)?);
                }
                _ => {
                    return Err(
                        self.expected("`os`, `address`, `snmp`, `speed`, `interface`, or `}`")
                    )
                }
            }
        }
    }

    fn parse_interface(&mut self, span: Span) -> Result<InterfaceDecl, SpecError> {
        let mut decl = InterfaceDecl {
            local_name: self.expect_name()?,
            speed_bps: None,
            span,
        };
        match self.peek.token {
            Token::Semi => {
                self.bump()?;
                Ok(decl)
            }
            Token::LBrace => {
                self.bump()?;
                loop {
                    match self.peek.token {
                        Token::RBrace => {
                            self.bump()?;
                            return Ok(decl);
                        }
                        Token::Ident("speed") => {
                            let kw_span = self.bump()?.span;
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

    /// `application NAME on HOST ( ";" | "{" ("pinned" ";")* "}" )`
    fn parse_application(&mut self, span: Span) -> Result<AppDecl, SpecError> {
        let name = self.expect_name()?;
        self.expect_keyword("on")?;
        let mut decl = AppDecl {
            name,
            host: self.expect_name()?,
            pinned: false,
            span,
        };
        match self.peek.token {
            Token::Semi => {
                self.bump()?;
                Ok(decl)
            }
            Token::LBrace => {
                self.bump()?;
                loop {
                    match self.peek.token {
                        Token::RBrace => {
                            self.bump()?;
                            return Ok(decl);
                        }
                        Token::Ident("pinned") => {
                            self.bump()?;
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
        let node = self.expect_name()?;
        self.expect(Token::Dot, "`.`")?;
        Ok(EndpointRef {
            node,
            interface: self.expect_name()?,
        })
    }

    fn parse_qospath(&mut self, span: Span) -> Result<QosPathDecl, SpecError> {
        let name = self.expect_name()?;
        self.expect_keyword("from")?;
        let from = self.expect_name()?;
        self.expect_keyword("to")?;
        let mut decl = QosPathDecl {
            name,
            from,
            to: self.expect_name()?,
            min_available_bps: None,
            max_utilization: None,
            application: None,
            span,
        };
        self.expect(Token::LBrace, "`{`")?;
        loop {
            let kw = match self.peek.token {
                Token::RBrace => {
                    self.bump()?;
                    return Ok(decl);
                }
                Token::Ident(kw) => kw,
                _ => return Err(self.expected("a qospath property or `}`")),
            };
            let kw_span = self.peek.span;
            let duplicate = |name: &str| SpecError::DuplicateProperty {
                span: kw_span,
                name: name.into(),
            };
            match kw {
                "min_available" => {
                    self.bump()?;
                    let v = self.expect_bandwidth()?;
                    if decl.min_available_bps.replace(v).is_some() {
                        return Err(duplicate("min_available"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "max_utilization" => {
                    self.bump()?;
                    let Token::Percent(v) = self.peek.token else {
                        return Err(self.expected("a percentage (e.g. 80%)"));
                    };
                    self.bump()?;
                    if decl.max_utilization.replace(v).is_some() {
                        return Err(duplicate("max_utilization"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                "application" => {
                    self.bump()?;
                    let app = self.expect_name()?;
                    if decl.application.replace(app).is_some() {
                        return Err(duplicate("application"));
                    }
                    self.expect(Token::Semi, "`;`")?;
                }
                _ => {
                    return Err(
                        self.expected("`min_available`, `max_utilization`, `application`, or `}`")
                    )
                }
            }
        }
    }
}

/// Parses a specification file into its AST.
pub fn parse(src: &str) -> Result<SpecFile, SpecError> {
    let mut lexer = Lexer::new(src);
    let peek = lexer.next_token()?;
    let mut p = Parser { lexer, peek };
    // A lexing error already reported exhausted the lexer, so `finish`
    // finds no later one in its place.
    p.parse_file()
        .map_err(|e| p.lexer.finish().err().unwrap_or(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # A small system
        host L {
            os "Linux";
            address 10.0.0.1;
            snmp community "public";
            interface eth0 { speed 100Mbps; }
        }
        device sw switch {
            speed 100Mbps;
            interface p1;
            interface p2 { speed 10Mbps; }
        }
        connection L.eth0 <-> sw.p1;
        qospath track from L to L {
            min_available 500KBps;
            max_utilization 80%;
        }
    "#;

    #[test]
    fn parses_sample() {
        let f = parse(SAMPLE).unwrap();
        assert_eq!(f.nodes.len(), 2);
        assert_eq!(f.connections.len(), 1);
        assert_eq!(f.qos_paths.len(), 1);

        let l = &f.nodes[0];
        assert_eq!(l.name, "L");
        assert_eq!(l.kind, NodeKind::Host);
        assert_eq!(l.os.as_deref(), Some("Linux"));
        assert_eq!(l.address.as_deref(), Some("10.0.0.1"));
        assert_eq!(l.snmp_community.as_deref(), Some("public"));
        assert_eq!(l.interfaces[0].speed_bps, Some(100_000_000));

        let sw = &f.nodes[1];
        assert_eq!(sw.kind, NodeKind::Switch);
        assert_eq!(sw.default_speed, Some(100_000_000));
        assert_eq!(sw.interfaces.len(), 2);
        assert_eq!(sw.interfaces[0].speed_bps, None);
        assert_eq!(sw.interfaces[1].speed_bps, Some(10_000_000));

        let c = &f.connections[0];
        assert_eq!(c.a.to_string(), "L.eth0");
        assert_eq!(c.b.to_string(), "sw.p1");

        let q = &f.qos_paths[0];
        assert_eq!(q.name, "track");
        assert_eq!(q.min_available_bps, Some(4_000_000));
        assert_eq!(q.max_utilization, Some(0.8));
    }

    #[test]
    fn empty_file_parses() {
        let f = parse("  # nothing here\n").unwrap();
        assert_eq!(f, SpecFile::default());
    }

    #[test]
    fn hub_and_router_kinds() {
        let f = parse("device h hub { interface p1; } device r router { interface p1; }").unwrap();
        assert_eq!(f.nodes[0].kind, NodeKind::Hub);
        assert_eq!(f.nodes[1].kind, NodeKind::Router);
    }

    #[test]
    fn unknown_kind_rejected() {
        let err = parse("device x bridge { }").unwrap_err();
        assert!(matches!(err, SpecError::UnknownKind { .. }));
    }

    #[test]
    fn duplicate_property_rejected() {
        let err = parse("host L { os \"a\"; os \"b\"; }").unwrap_err();
        assert!(matches!(err, SpecError::DuplicateProperty { .. }));
    }

    #[test]
    fn missing_semicolon_reported_with_position() {
        let err = parse("host L {\n  os \"a\"\n}").unwrap_err();
        match err {
            SpecError::Expected { span, .. } => assert_eq!(span.line, 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_lexing_error_after_a_parse_error_outranks_it() {
        assert_eq!(
            parse("host L { banana }\nhost M { os \"unterminated\n}"),
            Err(SpecError::UnterminatedString {
                span: Span::new(2, 13)
            })
        );
        assert!(matches!(
            parse("host L { banana }"),
            Err(SpecError::Expected { .. })
        ));
    }

    #[test]
    fn garbage_after_decl_rejected() {
        assert!(parse("host L { } banana").is_err());
    }

    #[test]
    fn connection_requires_arrow() {
        assert!(parse("connection A.e0 -- B.e0;").is_err());
    }

    #[test]
    fn bare_number_speed_is_bps() {
        let f = parse("host L { interface e { speed 2500000; } }").unwrap();
        assert_eq!(f.nodes[0].interfaces[0].speed_bps, Some(2_500_000));
    }

    #[test]
    fn ip_address_structure_enforced() {
        assert!(parse("host L { address 10.0.0; }").is_err());
        assert!(parse("host L { address banana; }").is_err());
    }
}
