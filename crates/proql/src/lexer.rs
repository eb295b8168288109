//! ProQL lexer.
//!
//! Keywords are not reserved at the lexical level: everything wordy is
//! an [`Tok::Ident`] and the parser matches keywords case-insensitively,
//! so module names like `Mdealer1` or `in-flight-stats` need no
//! quoting. Identifiers may contain `-` (ProQL has no arithmetic), which
//! is what makes the `m-nodes` class names single tokens.
//!
//! Every token carries a [`Span`] — a half-open **byte** range into the
//! original source — which the parser records for the constructs the
//! analyzer ([`crate::analyze`]) reports on, so diagnostics point at
//! the exact offending text.

use crate::error::{ProqlError, Result};

/// A half-open byte range `start..end` into the source text.
///
/// Offsets are byte offsets (not char offsets), so `&src[span.start..
/// span.end]` always slices the token's exact source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    pub fn new(start: usize, end: usize) -> Span {
        Span { start, end }
    }

    /// A zero-width span at `at` (end-of-input diagnostics).
    pub fn point(at: usize) -> Span {
        Span { start: at, end: at }
    }

    /// Smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Bare word: keyword, class name, module name, field, …
    Ident(String),
    /// Single-quoted string literal (provenance tokens, module names).
    Str(String),
    /// Unsigned integer literal.
    Int(u64),
    /// `#123` — a node id reference.
    NodeId(u32),
    LParen,
    RParen,
    Comma,
    Semi,
    /// `*` — only used by `COUNT(*)`.
    Star,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Str(s) => write!(f, "'{s}'"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::NodeId(n) => write!(f, "#{n}"),
            Tok::LParen => f.write_str("("),
            Tok::RParen => f.write_str(")"),
            Tok::Comma => f.write_str(","),
            Tok::Semi => f.write_str(";"),
            Tok::Star => f.write_str("*"),
            Tok::Eq => f.write_str("="),
            Tok::Ne => f.write_str("!="),
            Tok::Lt => f.write_str("<"),
            Tok::Le => f.write_str("<="),
            Tok::Gt => f.write_str(">"),
            Tok::Ge => f.write_str(">="),
        }
    }
}

/// A token together with its byte span in the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub span: Span,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '-'
}

/// Tokenize a ProQL script, attaching a byte [`Span`] to every token.
/// `--` starts a comment running to end of line. [`ProqlError::Lex`]
/// positions are byte offsets into `input`.
pub fn lex_spanned(input: &str) -> Result<Vec<SpannedTok>> {
    let mut out = Vec::new();
    let bytes = input.as_bytes();
    let mut i = 0;
    let mut push = |tok: Tok, start: usize, end: usize| {
        out.push(SpannedTok {
            tok,
            span: Span::new(start, end),
        });
    };
    while i < bytes.len() {
        let Some(c) = input[i..].chars().next() else {
            break;
        };
        match c {
            _ if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Comment to end of line. '\n' is ASCII, so a byte scan
                // cannot land mid-codepoint.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                push(Tok::LParen, i, i + 1);
                i += 1;
            }
            ')' => {
                push(Tok::RParen, i, i + 1);
                i += 1;
            }
            ',' => {
                push(Tok::Comma, i, i + 1);
                i += 1;
            }
            ';' => {
                push(Tok::Semi, i, i + 1);
                i += 1;
            }
            '*' => {
                push(Tok::Star, i, i + 1);
                i += 1;
            }
            '=' => {
                push(Tok::Eq, i, i + 1);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                push(Tok::Ne, i, i + 2);
                i += 2;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(Tok::Le, i, i + 2);
                    i += 2;
                } else {
                    push(Tok::Lt, i, i + 1);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    push(Tok::Ge, i, i + 2);
                    i += 2;
                } else {
                    push(Tok::Gt, i, i + 1);
                    i += 1;
                }
            }
            '\'' => {
                // The closing quote is ASCII and UTF-8 continuation
                // bytes never equal 0x27, so a byte scan is safe.
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(ProqlError::Lex {
                        pos: i,
                        message: "unterminated string literal".into(),
                    });
                }
                push(Tok::Str(input[start..j].to_string()), i, j + 1);
                i = j + 1;
            }
            '#' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(ProqlError::Lex {
                        pos: i,
                        message: "expected digits after '#'".into(),
                    });
                }
                let digits = &input[start..j];
                let id = digits.parse::<u32>().map_err(|_| ProqlError::Lex {
                    pos: i,
                    message: format!("node id #{digits} out of range"),
                })?;
                push(Tok::NodeId(id), i, j);
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let digits = &input[start..j];
                let n = digits.parse::<u64>().map_err(|_| ProqlError::Lex {
                    pos: start,
                    message: format!("integer {digits} out of range"),
                })?;
                push(Tok::Int(n), start, j);
                i = j;
            }
            _ if is_ident_start(c) => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let Some(ch) = input[j..].chars().next() else {
                        break;
                    };
                    if !is_ident_continue(ch) {
                        break;
                    }
                    j += ch.len_utf8();
                }
                push(Tok::Ident(input[start..j].to_string()), start, j);
                i = j;
            }
            other => {
                return Err(ProqlError::Lex {
                    pos: i,
                    message: format!("unexpected character {other:?}"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tokens of `input`, without their spans.
    fn lex(input: &str) -> Result<Vec<Tok>> {
        Ok(lex_spanned(input)?.into_iter().map(|s| s.tok).collect())
    }

    #[test]
    fn lexes_statement_shapes() {
        let toks = lex("MATCH m-nodes WHERE module = 'Mdealer1';").unwrap();
        assert_eq!(
            toks,
            vec![
                Tok::Ident("MATCH".into()),
                Tok::Ident("m-nodes".into()),
                Tok::Ident("WHERE".into()),
                Tok::Ident("module".into()),
                Tok::Eq,
                Tok::Str("Mdealer1".into()),
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn lexes_node_refs_ints_and_ne() {
        let toks = lex("DEPENDS(#42, 'C2') DEPTH 3 kind != delta").unwrap();
        assert!(toks.contains(&Tok::NodeId(42)));
        assert!(toks.contains(&Tok::Int(3)));
        assert!(toks.contains(&Tok::Ne));
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let toks = lex("-- a comment\n  STATS -- trailing\n").unwrap();
        assert_eq!(toks, vec![Tok::Ident("STATS".into())]);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        assert!(matches!(lex("WHY 'C2"), Err(ProqlError::Lex { .. })));
    }

    #[test]
    fn bare_hash_is_an_error() {
        assert!(matches!(lex("# 12"), Err(ProqlError::Lex { .. })));
    }

    #[test]
    fn spans_are_byte_ranges_into_the_source() {
        let src = "MATCH m-nodes WHERE module = 'Mdealer1';";
        let toks = lex_spanned(src).unwrap();
        for t in &toks {
            let text = &src[t.span.start..t.span.end];
            match &t.tok {
                Tok::Ident(s) => assert_eq!(text, s),
                Tok::Str(s) => assert_eq!(text, format!("'{s}'")),
                Tok::Eq => assert_eq!(text, "="),
                Tok::Semi => assert_eq!(text, ";"),
                other => panic!("unexpected token {other:?}"),
            }
        }
        // The string literal span covers both quotes.
        let lit = toks.iter().find(|t| matches!(t.tok, Tok::Str(_))).unwrap();
        assert_eq!(lit.span, Span::new(29, 39));
    }

    #[test]
    fn spans_survive_multibyte_text_and_comments() {
        let src = "-- caf\u{e9}\nWHY 'caf\u{e9}'";
        let toks = lex_spanned(src).unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(&src[toks[1].span.start..toks[1].span.end], "'caf\u{e9}'");
    }

    #[test]
    fn lex_error_position_is_a_byte_offset() {
        // Two two-byte 'é's before the offending '@': byte offset 11,
        // not char offset 9.
        let err = lex("caf\u{e9} caf\u{e9}@").unwrap_err();
        match err {
            ProqlError::Lex { pos, .. } => assert_eq!(pos, 11),
            other => panic!("expected lex error, got {other:?}"),
        }
    }
}
