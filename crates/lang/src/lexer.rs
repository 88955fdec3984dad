//! Lexer for the canonical textual IR / scenario format.
//!
//! Newlines are significant (they terminate statements, which is what
//! disambiguates `ret` from `ret r1`), `#` starts a comment running to
//! end of line, and identifiers may contain interior dots so runtime-op
//! mnemonics like `rt.store_record` lex as one token. Every token carries
//! its byte [`Span`].

use crate::diag::{LangError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier, keyword, or mnemonic (`worker`, `mem`, `rt.tx_begin`,
    /// `r12`, `bb3`, `fn0`).
    Ident(String),
    /// Unsigned decimal magnitude; sign is a separate [`Tok::Minus`].
    Int(u64),
    /// Double-quoted string (escaped function names).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `?`
    Question,
    /// `=`
    Equals,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `->`
    Arrow,
    /// `<-`
    LArrow,
    /// End of line (statement terminator).
    Newline,
    /// End of input.
    Eof,
}

impl Tok {
    /// Short human name for error messages.
    pub fn describe(&self) -> String {
        match self {
            Tok::Ident(s) => format!("`{s}`"),
            Tok::Int(v) => format!("`{v}`"),
            Tok::Str(_) => "string".into(),
            Tok::LParen => "`(`".into(),
            Tok::RParen => "`)`".into(),
            Tok::LBrace => "`{`".into(),
            Tok::RBrace => "`}`".into(),
            Tok::LBracket => "`[`".into(),
            Tok::RBracket => "`]`".into(),
            Tok::Comma => "`,`".into(),
            Tok::Colon => "`:`".into(),
            Tok::Question => "`?`".into(),
            Tok::Equals => "`=`".into(),
            Tok::Plus => "`+`".into(),
            Tok::Minus => "`-`".into(),
            Tok::Arrow => "`->`".into(),
            Tok::LArrow => "`<-`".into(),
            Tok::Newline => "end of line".into(),
            Tok::Eof => "end of input".into(),
        }
    }
}

/// A token plus its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Byte range in the source.
    pub span: Span,
}

/// A cursor over a lexed token stream — the one `peek` / `bump` / `expect_*`
/// vocabulary of the scenario header and the program section. Reads past
/// the end keep returning the final [`Tok::Eof`].
pub(crate) struct Cursor {
    toks: Vec<Token>,
    pos: usize,
}

impl Cursor {
    /// A cursor at the start of `toks`, which must end in [`Tok::Eof`].
    pub(crate) fn new(toks: Vec<Token>) -> Cursor {
        Cursor { toks, pos: 0 }
    }

    pub(crate) fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    /// The token after [`Cursor::peek`]'s, if any.
    pub(crate) fn peek_second(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    /// The span of the token consumed last (of the first, before any).
    pub(crate) fn prev_span(&self) -> Span {
        self.toks[self.pos.saturating_sub(1)].span
    }

    pub(crate) fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn eat_newlines(&mut self) {
        while self.peek().tok == Tok::Newline {
            self.bump();
        }
    }

    pub(crate) fn expect(&mut self, want: Tok, ctx: &str) -> Result<Token, LangError> {
        let t = self.bump();
        if t.tok == want {
            Ok(t)
        } else {
            Err(LangError::new(
                format!("expected {} {ctx}, found {}", want.describe(), t.tok.describe()),
                t.span,
                format!("expected {}", want.describe()),
            ))
        }
    }

    pub(crate) fn expect_ident(&mut self, ctx: &str) -> Result<(String, Span), LangError> {
        let t = self.bump();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.span)),
            other => Err(LangError::new(
                format!("expected identifier {ctx}, found {}", other.describe()),
                t.span,
                "expected an identifier",
            )),
        }
    }

    pub(crate) fn expect_keyword(&mut self, word: &str, ctx: &str) -> Result<Span, LangError> {
        let (s, span) = self.expect_ident(ctx)?;
        if s == word {
            Ok(span)
        } else {
            Err(LangError::new(
                format!("expected `{word}` {ctx}, found `{s}`"),
                span,
                format!("expected `{word}`"),
            ))
        }
    }

    pub(crate) fn expect_u64(&mut self, ctx: &str) -> Result<(u64, Span), LangError> {
        let t = self.bump();
        match t.tok {
            Tok::Int(v) => Ok((v, t.span)),
            other => Err(LangError::new(
                format!("expected integer {ctx}, found {}", other.describe()),
                t.span,
                "expected an integer",
            )),
        }
    }

    /// Consumes the end-of-statement newline (or accepts EOF for the last
    /// line of a file); anything else is an error labelled `label`.
    pub(crate) fn expect_line_end(&mut self, label: &str) -> Result<(), LangError> {
        match &self.peek().tok {
            Tok::Newline => {
                self.bump();
                Ok(())
            }
            Tok::Eof => Ok(()),
            other => Err(LangError::new(
                format!("expected end of line, found {}", other.describe()),
                self.peek().span,
                label,
            )),
        }
    }
}

/// Lexes `source` into a token stream ending in [`Tok::Eof`].
///
/// # Errors
/// Returns a spanned [`LangError`] on the first unrecognized character,
/// malformed escape, unterminated string, or numeric overflow.
pub fn lex(source: &str) -> Result<Vec<Token>, LangError> {
    let b = source.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let start = i;
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'\n' => {
                toks.push(Token { tok: Tok::Newline, span: Span::new(start, start + 1) });
                i += 1;
            }
            b'(' | b')' | b'{' | b'}' | b'[' | b']' | b',' | b':' | b'?' | b'=' | b'+' => {
                let tok = match c {
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b',' => Tok::Comma,
                    b':' => Tok::Colon,
                    b'?' => Tok::Question,
                    b'=' => Tok::Equals,
                    _ => Tok::Plus,
                };
                toks.push(Token { tok, span: Span::new(start, start + 1) });
                i += 1;
            }
            b'-' => {
                if i + 1 < b.len() && b[i + 1] == b'>' {
                    toks.push(Token { tok: Tok::Arrow, span: Span::new(start, start + 2) });
                    i += 2;
                } else {
                    toks.push(Token { tok: Tok::Minus, span: Span::new(start, start + 1) });
                    i += 1;
                }
            }
            b'<' => {
                if i + 1 < b.len() && b[i + 1] == b'-' {
                    toks.push(Token { tok: Tok::LArrow, span: Span::new(start, start + 2) });
                    i += 2;
                } else {
                    return Err(LangError::new(
                        "unrecognized character `<`",
                        Span::new(start, start + 1),
                        "expected `<-` here",
                    ));
                }
            }
            b'0'..=b'9' => {
                let mut v: u64 = 0;
                while i < b.len() && b[i].is_ascii_digit() {
                    let d = (b[i] - b'0') as u64;
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(d))
                        .ok_or_else(|| {
                            let mut end = i;
                            while end < b.len() && b[end].is_ascii_digit() {
                                end += 1;
                            }
                            LangError::new(
                                "integer literal overflows 64 bits",
                                Span::new(start, end),
                                "does not fit in a u64 magnitude",
                            )
                        })?;
                    i += 1;
                }
                toks.push(Token { tok: Tok::Int(v), span: Span::new(start, i) });
            }
            b'"' => {
                let (s, end) = lex_string(source, start)?;
                toks.push(Token { tok: Tok::Str(s), span: Span::new(start, end) });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                i += 1;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Ident(source[start..i].to_string()),
                    span: Span::new(start, i),
                });
            }
            _ => {
                // Span the whole UTF-8 character, not just its first byte.
                let ch_len = source[start..].chars().next().map_or(1, |c| c.len_utf8());
                return Err(LangError::new(
                    format!("unrecognized character `{}`", &source[start..start + ch_len]),
                    Span::new(start, start + ch_len),
                    "not part of any token",
                ));
            }
        }
    }
    toks.push(Token { tok: Tok::Eof, span: Span::new(b.len(), b.len()) });
    Ok(toks)
}

/// Lexes a double-quoted string starting at byte `start` (which must hold
/// `"`). Returns the unescaped contents and the byte offset one past the
/// closing quote.
fn lex_string(source: &str, start: usize) -> Result<(String, usize), LangError> {
    let b = source.as_bytes();
    let mut out = String::new();
    let mut i = start + 1;
    while i < b.len() {
        match b[i] {
            b'"' => return Ok((out, i + 1)),
            b'\n' => break,
            b'\\' => {
                let esc_start = i;
                i += 1;
                let Some(&e) = b.get(i) else { break };
                match e {
                    b'\\' => out.push('\\'),
                    b'"' => out.push('"'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'x' => {
                        let hex = source.get(i + 1..i + 3).filter(|h| h.is_ascii());
                        let v = hex.and_then(|h| u8::from_str_radix(h, 16).ok());
                        match v {
                            Some(v) => {
                                out.push(v as char);
                                i += 2;
                            }
                            None => {
                                return Err(LangError::new(
                                    "malformed `\\x` escape",
                                    Span::new(esc_start, (i + 3).min(b.len())),
                                    "expected two hex digits",
                                ))
                            }
                        }
                    }
                    _ => {
                        return Err(LangError::new(
                            format!("unknown escape `\\{}`", e as char),
                            Span::new(esc_start, i + 1),
                            "valid escapes: \\\\ \\\" \\n \\t \\r \\xNN",
                        ))
                    }
                }
                i += 1;
            }
            _ => {
                let ch = source[i..].chars().next().expect("in-bounds char");
                out.push(ch);
                i += ch.len_utf8();
            }
        }
    }
    Err(LangError::new(
        "unterminated string",
        Span::new(start, start + 1),
        "string opened here never closes",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_an_instruction_line() {
        assert_eq!(
            kinds("r1 = add r0, 1\n"),
            vec![
                Tok::Ident("r1".into()),
                Tok::Equals,
                Tok::Ident("add".into()),
                Tok::Ident("r0".into()),
                Tok::Comma,
                Tok::Int(1),
                Tok::Newline,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn lexes_addresses_arrows_and_negative_offsets() {
        assert_eq!(
            kinds("mem[r1-8] = 7"),
            vec![
                Tok::Ident("mem".into()),
                Tok::LBracket,
                Tok::Ident("r1".into()),
                Tok::Minus,
                Tok::Int(8),
                Tok::RBracket,
                Tok::Equals,
                Tok::Int(7),
                Tok::Eof,
            ]
        );
        assert_eq!(
            kinds("0 -> 1 <- x"),
            vec![
                Tok::Int(0),
                Tok::Arrow,
                Tok::Int(1),
                Tok::LArrow,
                Tok::Ident("x".into()),
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn dotted_mnemonics_are_one_token() {
        assert_eq!(
            kinds("rt.store_record"),
            vec![Tok::Ident("rt.store_record".into()), Tok::Eof]
        );
    }

    #[test]
    fn comments_run_to_end_of_line() {
        assert_eq!(
            kinds("ret # the end\nret"),
            vec![Tok::Ident("ret".into()), Tok::Newline, Tok::Ident("ret".into()), Tok::Eof]
        );
    }

    #[test]
    fn strings_unescape() {
        assert_eq!(
            kinds(r#""a\"b\\c\n\x01""#),
            vec![Tok::Str("a\"b\\c\n\x01".into()), Tok::Eof]
        );
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = lex("ab 12").unwrap();
        assert_eq!(toks[0].span, Span::new(0, 2));
        assert_eq!(toks[1].span, Span::new(3, 5));
        assert_eq!(toks[2].span, Span::new(5, 5));
    }

    #[test]
    fn full_span_u64_magnitude_lexes() {
        assert_eq!(kinds("18446744073709551615"), vec![Tok::Int(u64::MAX), Tok::Eof]);
        assert!(lex("18446744073709551616").is_err());
    }

    #[test]
    fn errors_are_spanned() {
        let e = lex("ok @").unwrap_err();
        assert_eq!(e.primary.span, Span::new(3, 4));
        let e = lex("\"never closed").unwrap_err();
        assert_eq!(e.primary.span.start, 0);
        let e = lex("a < b").unwrap_err();
        assert!(e.message.contains('<'), "{e:?}");
    }
}
