//! The tokenizer.
//!
//! Token kinds: identifiers (including dotted endpoint refs handled by the
//! parser), string literals, bandwidth quantities (`100Mbps`), bare
//! integers, percentages (`80%`), and punctuation (`{ } ; . <->`).
//! `#` starts a comment running to end of line.
//!
//! The parser pulls one token at a time from a [`Lexer`]; identifiers and
//! strings are slices of the source, so lexing allocates nothing but the
//! text of an error. Columns count chars, not bytes.

use crate::error::{Span, SpecError};

/// A lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'src> {
    /// Identifier or keyword.
    Ident(&'src str),
    /// Double-quoted string (contents, unescaped).
    Str(&'src str),
    /// A bare integer.
    Int(u64),
    /// A bandwidth quantity resolved to bits/second.
    Bandwidth(u64),
    /// A percentage resolved to a fraction in `[0, +∞)`.
    Percent(f64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `.`
    Dot,
    /// `<->`
    Arrow,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// Human-readable description for error messages.
    pub fn describe(&self) -> String {
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

/// A token plus its source position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spanned<'src> {
    /// The token.
    pub token: Token<'src>,
    /// Where it starts.
    pub span: Span,
}

/// Converts a unit suffix to a bits-per-second multiplier.
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

/// Tokens on demand from one source text.
///
/// After an error the lexer is exhausted: every later call returns
/// [`Token::Eof`], so the first error is the only one it reports.
pub struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next char.
    pos: usize,
    line: u32,
    col: u32,
}

impl<'src> Lexer<'src> {
    /// A lexer at the start of `src`.
    pub fn new(src: &'src str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    /// The next token, or the error that ends the input.
    pub fn next_token(&mut self) -> Result<Spanned<'src>, SpecError> {
        self.lex_token().inspect_err(|_| self.pos = self.src.len())
    }

    /// Lexes the rest of the input, returning its first error.
    pub fn finish(&mut self) -> Result<(), SpecError> {
        while self.next_token()?.token != Token::Eof {}
        Ok(())
    }

    fn peek_byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    fn peek_char(&self) -> Option<char> {
        match self.peek_byte(0)? {
            b if b.is_ascii() => Some(b as char),
            _ => self.src[self.pos..].chars().next(),
        }
    }

    /// Moves past `len` bytes that hold no newline.
    fn advance(&mut self, len: usize) -> &'src str {
        let src = self.src;
        let text = &src[self.pos..self.pos + len];
        self.pos += len;
        self.col += text.chars().count() as u32;
        text
    }

    /// Moves past the ASCII bytes that satisfy `accept` (none of which may
    /// be a newline).
    fn eat_ascii(&mut self, accept: fn(&u8) -> bool) -> &'src str {
        let len = self.src.as_bytes()[self.pos..]
            .iter()
            .take_while(|b| accept(b))
            .count();
        self.advance(len)
    }

    fn skip_trivia(&mut self) {
        while let Some(c) = self.peek_char() {
            if c == '\n' {
                self.pos += 1;
                self.line += 1;
                self.col = 1;
            } else if c.is_whitespace() {
                self.advance(c.len_utf8());
            } else if c == '#' {
                let rest = &self.src.as_bytes()[self.pos..];
                self.advance(rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len()));
            } else {
                break;
            }
        }
    }

    fn lex_token(&mut self) -> Result<Spanned<'src>, SpecError> {
        self.skip_trivia();
        let span = Span::new(self.line, self.col);
        let Some(c) = self.peek_char() else {
            return Ok(Spanned {
                token: Token::Eof,
                span,
            });
        };
        let token = match c {
            'a'..='z' | 'A'..='Z' | '_' => Token::Ident(
                self.eat_ascii(|b| b.is_ascii_alphanumeric() || *b == b'_' || *b == b'-'),
            ),
            '0'..='9' => self.number(span)?,
            '"' => {
                let rest = &self.src.as_bytes()[self.pos + 1..];
                match rest.iter().position(|&b| b == b'"' || b == b'\n') {
                    Some(end) if rest[end] == b'"' => {
                        let quoted = self.advance(end + 2);
                        Token::Str(&quoted[1..end + 1])
                    }
                    _ => return Err(SpecError::UnterminatedString { span }),
                }
            }
            '<' => match (self.peek_byte(1), self.peek_byte(2)) {
                (Some(b'-'), Some(b'>')) => {
                    self.advance(3);
                    Token::Arrow
                }
                (Some(b'-'), _) => return Err(SpecError::UnexpectedChar { span, ch: '-' }),
                _ => return Err(SpecError::UnexpectedChar { span, ch: '<' }),
            },
            '{' | '}' | ';' | '.' => {
                self.advance(1);
                match c {
                    '{' => Token::LBrace,
                    '}' => Token::RBrace,
                    ';' => Token::Semi,
                    _ => Token::Dot,
                }
            }
            other => return Err(SpecError::UnexpectedChar { span, ch: other }),
        };
        Ok(Spanned { token, span })
    }

    /// An integer, a percentage, or a bandwidth quantity.
    fn number(&mut self, span: Span) -> Result<Token<'src>, SpecError> {
        let start = self.pos;
        self.eat_ascii(u8::is_ascii_digit);
        // A dot may begin a fractional quantity (`1.5Mbps`) or an IP
        // address / endpoint separator (`10.0.0.1`): it belongs to the
        // number only when digits and then a unit letter follow it.
        if self.peek_byte(0) == Some(b'.') {
            let frac = self.src.as_bytes()[self.pos + 1..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            if frac > 0
                && self
                    .peek_byte(1 + frac)
                    .is_some_and(|b| b.is_ascii_alphabetic())
            {
                self.advance(1 + frac);
            }
        }
        let text = &self.src[start..self.pos];
        let bad_number = || SpecError::BadNumber {
            span,
            text: text.to_owned(),
        };
        let unit = self.eat_ascii(u8::is_ascii_alphabetic);
        if unit.is_empty() && self.peek_byte(0) == Some(b'%') {
            self.advance(1);
            let v: f64 = text.parse().map_err(|_| bad_number())?;
            Ok(Token::Percent(v / 100.0))
        } else if unit.is_empty() {
            // Dotted numbers without a unit are ambiguous with endpoint
            // refs; only integers are allowed bare.
            Ok(Token::Int(text.parse().map_err(|_| bad_number())?))
        } else {
            let mult = unit_multiplier(unit).ok_or_else(|| SpecError::UnknownUnit {
                span,
                unit: unit.to_owned(),
            })?;
            let v: f64 = text.parse().map_err(|_| bad_number())?;
            Ok(Token::Bandwidth((v * mult as f64).round() as u64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> Result<Vec<Spanned<'_>>, SpecError> {
        let mut lexer = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            let t = lexer.next_token()?;
            out.push(t);
            if t.token == Token::Eof {
                return Ok(out);
            }
        }
    }

    fn tokens(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            tokens("host L { }"),
            vec![
                Token::Ident("host"),
                Token::Ident("L"),
                Token::LBrace,
                Token::RBrace,
                Token::Eof
            ]
        );
    }

    #[test]
    fn bandwidth_units() {
        assert_eq!(tokens("100Mbps")[0], Token::Bandwidth(100_000_000));
        assert_eq!(tokens("10Kbps")[0], Token::Bandwidth(10_000));
        assert_eq!(tokens("1Gbps")[0], Token::Bandwidth(1_000_000_000));
        assert_eq!(tokens("500KBps")[0], Token::Bandwidth(4_000_000));
        assert_eq!(tokens("1.5Mbps")[0], Token::Bandwidth(1_500_000));
        assert_eq!(tokens("42")[0], Token::Int(42));
        assert_eq!(tokens("42bps")[0], Token::Bandwidth(42));
    }

    #[test]
    fn percentages() {
        assert_eq!(tokens("80%")[0], Token::Percent(0.8));
    }

    #[test]
    fn strings_and_comments() {
        let toks = tokens("os \"Windows NT\"; # trailing comment\nhost");
        assert_eq!(
            toks,
            vec![
                Token::Ident("os"),
                Token::Str("Windows NT"),
                Token::Semi,
                Token::Ident("host"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn arrow_and_dot() {
        assert_eq!(
            tokens("L.eth0 <-> sw.p1"),
            vec![
                Token::Ident("L"),
                Token::Dot,
                Token::Ident("eth0"),
                Token::Arrow,
                Token::Ident("sw"),
                Token::Dot,
                Token::Ident("p1"),
                Token::Eof
            ]
        );
    }

    #[test]
    fn spans_track_lines_and_cols() {
        let spanned = lex("host\n  L").unwrap();
        assert_eq!(spanned[0].span, Span::new(1, 1));
        assert_eq!(spanned[1].span, Span::new(2, 3));
    }

    #[test]
    fn columns_count_chars_and_unicode_whitespace_separates() {
        // `é` is two bytes, NBSP and U+2028 are whitespace.
        let spanned = lex("os \"é\"\u{a0};\u{2028}# é\n \u{a0}x").unwrap();
        let at: Vec<_> = spanned.iter().map(|s| (s.token, s.span)).collect();
        assert_eq!(
            at,
            vec![
                (Token::Ident("os"), Span::new(1, 1)),
                (Token::Str("é"), Span::new(1, 4)),
                (Token::Semi, Span::new(1, 8)),
                (Token::Ident("x"), Span::new(2, 3)),
                (Token::Eof, Span::new(2, 4)),
            ]
        );
        assert_eq!(
            lex("\"é\" é"),
            Err(SpecError::UnexpectedChar {
                span: Span::new(1, 5),
                ch: 'é'
            })
        );
    }

    #[test]
    fn errors() {
        assert!(matches!(
            lex("$"),
            Err(SpecError::UnexpectedChar { ch: '$', .. })
        ));
        assert!(matches!(
            lex("\"abc"),
            Err(SpecError::UnterminatedString { .. })
        ));
        assert!(matches!(lex("10Zbps"), Err(SpecError::UnknownUnit { .. })));
        assert!(matches!(lex("< x"), Err(SpecError::UnexpectedChar { .. })));
        assert_eq!(
            lex("99999999999999999999"),
            Err(SpecError::BadNumber {
                span: Span::new(1, 1),
                text: "99999999999999999999".into()
            })
        );
    }

    #[test]
    fn an_error_exhausts_the_lexer() {
        let mut lexer = Lexer::new("a $ b");
        assert_eq!(lexer.next_token().unwrap().token, Token::Ident("a"));
        assert!(lexer.next_token().is_err());
        assert_eq!(lexer.next_token().unwrap().token, Token::Eof);
        assert_eq!(
            Lexer::new("a \"b\n c $ d %").finish(),
            Err(SpecError::UnterminatedString {
                span: Span::new(1, 3)
            })
        );
    }

    #[test]
    fn dotted_integers_lex_as_ip_parts() {
        // IPs must come through as INT . INT . INT . INT for the parser.
        assert_eq!(
            tokens("10.0.0.1"),
            vec![
                Token::Int(10),
                Token::Dot,
                Token::Int(0),
                Token::Dot,
                Token::Int(0),
                Token::Dot,
                Token::Int(1),
                Token::Eof
            ]
        );
        // But a fraction directly followed by a unit is one quantity.
        assert_eq!(tokens("2.5Mbps")[0], Token::Bandwidth(2_500_000));
        // Trailing dot without digits stays a separate Dot token.
        assert_eq!(
            tokens("1.x"),
            vec![Token::Int(1), Token::Dot, Token::Ident("x"), Token::Eof]
        );
    }

    #[test]
    fn ident_with_digits_and_dashes() {
        assert_eq!(tokens("S1 eth-0")[0], Token::Ident("S1"));
        assert_eq!(tokens("S1 eth-0")[1], Token::Ident("eth-0"));
    }
}
