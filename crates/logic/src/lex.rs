//! The shared lexer for the constraint-formula surface syntaxes.
//!
//! Two parsers read linear-constraint text: [`crate::parse_formula`] (FO+LIN
//! formulas) and `lcdb-core`'s `parse_regformula` (the region logic family).
//! Their token streams differ only in a few surface features — set-variable
//! names (`$M`), the bracket/semicolon tokens of the fixpoint operators, and
//! the `!=` comparison — so the character-level scan lives here once,
//! parameterized by [`LexOptions`]. Each parser maps the [`RawTok`] stream
//! into its own token type (classifying words as keywords, identifiers, or
//! region variables — a *parser* concern, not a lexical one).

use lcdb_arith::Rational;
use lcdb_lp::Rel;
use std::fmt;

/// Error produced when lexing or parsing a formula fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

/// How many levels a formula may nest, the whole formula being the first:
/// a parenthesis, a `not`, a binder, an operator body and the right side of
/// an `->` each open one. The recursive-descent parsers (this crate's and
/// `lcdb-core`'s) spend stack per level, so the input must not choose the
/// depth; every later walk of the tree — lowering, printing, `Drop` — is
/// bounded with it.
pub const MAX_NESTING: usize = 256;

impl ParseError {
    /// A formula opens a level beyond [`MAX_NESTING`] at byte `position`.
    pub fn too_deep(position: usize) -> Self {
        ParseError {
            message: format!("nesting deeper than {MAX_NESTING}"),
            position,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A surface token, before the parser classifies words.
#[derive(Debug, Clone, PartialEq)]
pub enum RawTok {
    /// An identifier or keyword: `[A-Za-z_][A-Za-z0-9_]*`.
    Word(String),
    /// A `$name` set-variable token (only with [`LexOptions::set_names`]).
    SetName(String),
    /// A rational literal: `digits`, `digits/digits`, or `digits.digits`.
    Number(Rational),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[` (only with [`LexOptions::brackets`])
    LBracket,
    /// `]` (only with [`LexOptions::brackets`])
    RBracket,
    /// `,`
    Comma,
    /// `;` (only with [`LexOptions::brackets`])
    Semicolon,
    /// `.` (the quantifier dot; a dot inside a number is part of the literal)
    Dot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `<`, `<=`, `=`, `>=`, `>`
    Rel(Rel),
    /// `!=` (only with [`LexOptions::not_equal`])
    NotEqual,
    /// `->`
    Arrow,
}

/// Which optional surface features the lexer accepts. Characters outside the
/// enabled set are "unexpected character" errors, exactly as if the lexer
/// had no rule for them.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexOptions {
    /// Accept `$name` set-variable tokens (region-logic syntax).
    pub set_names: bool,
    /// Accept `[`, `]`, and `;` (the fixpoint/TC operator brackets).
    pub brackets: bool,
    /// Accept the `!=` comparison.
    pub not_equal: bool,
}

/// Tokenize `input`, pairing every token with its starting byte offset.
pub fn lex(input: &str, opts: LexOptions) -> Result<Vec<(RawTok, usize)>, ParseError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        let err = |message: String, position: usize| ParseError { message, position };
        let unexpected = |position: usize| ParseError {
            message: format!("unexpected character '{}'", c),
            position,
        };
        match c {
            '(' => {
                out.push((RawTok::LParen, start));
                i += 1;
            }
            ')' => {
                out.push((RawTok::RParen, start));
                i += 1;
            }
            '[' if opts.brackets => {
                out.push((RawTok::LBracket, start));
                i += 1;
            }
            ']' if opts.brackets => {
                out.push((RawTok::RBracket, start));
                i += 1;
            }
            ';' if opts.brackets => {
                out.push((RawTok::Semicolon, start));
                i += 1;
            }
            ',' => {
                out.push((RawTok::Comma, start));
                i += 1;
            }
            '.' => {
                out.push((RawTok::Dot, start));
                i += 1;
            }
            '+' => {
                out.push((RawTok::Plus, start));
                i += 1;
            }
            '*' => {
                out.push((RawTok::Star, start));
                i += 1;
            }
            '$' if opts.set_names => {
                let mut j = i + 1;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                if j == i + 1 {
                    return Err(err("expected a name after '$'".into(), start));
                }
                out.push((RawTok::SetName(input[i + 1..j].to_string()), start));
                i = j;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&b'>') {
                    out.push((RawTok::Arrow, start));
                    i += 2;
                } else {
                    out.push((RawTok::Minus, start));
                    i += 1;
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((RawTok::Rel(Rel::Le), start));
                    i += 2;
                } else {
                    out.push((RawTok::Rel(Rel::Lt), start));
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((RawTok::Rel(Rel::Ge), start));
                    i += 2;
                } else {
                    out.push((RawTok::Rel(Rel::Gt), start));
                    i += 1;
                }
            }
            '=' => {
                out.push((RawTok::Rel(Rel::Eq), start));
                i += 1;
            }
            '!' if opts.not_equal => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push((RawTok::NotEqual, start));
                    i += 2;
                } else {
                    return Err(err("expected '=' after '!'".into(), start));
                }
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                // Optional "/digits" (fraction) or ".digits" (decimal). A dot
                // only counts as part of the number if followed by a digit —
                // otherwise it is the quantifier dot.
                if j < bytes.len() && bytes[j] == b'/' {
                    let mut k = j + 1;
                    while k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        k += 1;
                    }
                    if k == j + 1 {
                        return Err(err("expected digits after '/'".into(), j));
                    }
                    j = k;
                } else if j + 1 < bytes.len()
                    && bytes[j] == b'.'
                    && (bytes[j + 1] as char).is_ascii_digit()
                {
                    let mut k = j + 1;
                    while k < bytes.len() && (bytes[k] as char).is_ascii_digit() {
                        k += 1;
                    }
                    j = k;
                }
                let text = &input[i..j];
                let value: Rational = text
                    .parse()
                    .map_err(|e| err(format!("bad number '{}': {}", text, e), start))?;
                out.push((RawTok::Number(value), start));
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len()
                    && ((bytes[j] as char).is_ascii_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                out.push((RawTok::Word(input[i..j].to_string()), start));
                i = j;
            }
            _ => return Err(unexpected(start)),
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};

    #[test]
    fn numbers_fractions_decimals() {
        let toks = lex("1 1/2 1.5", LexOptions::default()).unwrap();
        let values: Vec<_> = toks
            .into_iter()
            .map(|(t, _)| match t {
                RawTok::Number(n) => n,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(values, vec![int(1), rat(1, 2), rat(3, 2)]);
    }

    #[test]
    fn quantifier_dot_vs_decimal_dot() {
        let toks = lex("x. 1.5", LexOptions::default()).unwrap();
        assert_eq!(toks.len(), 3);
        assert!(matches!(toks[1].0, RawTok::Dot));
        assert!(matches!(toks[2].0, RawTok::Number(_)));
    }

    #[test]
    fn optional_features_are_gated() {
        // Disabled: the characters are plain lexical errors.
        for src in ["[", "]", ";", "$M", "x != 1"] {
            assert!(lex(src, LexOptions::default()).is_err(), "{src}");
        }
        // Enabled: they tokenize.
        let all = LexOptions {
            set_names: true,
            brackets: true,
            not_equal: true,
        };
        assert!(lex("[ ] ; $M", all).is_ok());
        assert_eq!(
            lex("x != 1", all).unwrap()[1].0,
            RawTok::NotEqual
        );
        assert!(lex("$", all).is_err()); // still needs a name
        assert!(lex("!", all).is_err()); // still needs '='
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = lex("ab  <= cd", LexOptions::default()).unwrap();
        let positions: Vec<usize> = toks.iter().map(|&(_, p)| p).collect();
        assert_eq!(positions, vec![0, 4, 7]);
    }
}
