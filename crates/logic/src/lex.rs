//! The shared lexer and token cursor for the constraint-formula syntaxes.
//!
//! Two grammars read linear-constraint text: [`crate::parse_formula`] (FO+LIN
//! formulas) and `lcdb-core`'s `parse_regformula` (the region logic family),
//! both through the one skeleton in [`crate::parser`]. Their token streams
//! differ only in a few surface features — the keyword table, set-variable
//! names (`$M`), the bracket/semicolon tokens of the fixpoint operators, and
//! the `!=` comparison — so the scan lives here once, parameterized by
//! [`LexOptions`], and both grammars read its [`Tok`]s through one
//! [`TokenCursor`].

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
/// an `->` each open one. The recursive-descent parser spends stack per
/// level, so the input must not choose the depth; every later walk of the
/// tree — lowering, printing, `Drop` — is bounded with it.
pub const MAX_NESTING: usize = 256;

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A surface token. Words borrow their text from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    /// A word of the grammar's keyword table ([`LexOptions::keywords`]).
    Keyword(&'static str),
    /// Any other word: `[A-Za-z_][A-Za-z0-9_]*`.
    Word(&'a str),
    /// A `$name` set-variable token (only with [`LexOptions::region`]).
    SetName(&'a str),
    /// A rational literal: `digits`, `digits/digits`, or `digits.digits`.
    Number(Rational),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[` (only with [`LexOptions::region`])
    LBracket,
    /// `]` (only with [`LexOptions::region`])
    RBracket,
    /// `,`
    Comma,
    /// `;` (only with [`LexOptions::region`])
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

/// A grammar's lexical surface. Characters outside the enabled set are
/// "unexpected character" errors, exactly as if the lexer had no rule for
/// them.
#[derive(Debug, Clone, Copy, Default)]
pub struct LexOptions {
    /// The words lexed as [`Tok::Keyword`]; every other word is a
    /// [`Tok::Word`].
    pub keywords: &'static [&'static str],
    /// Accept `$name`, `[`, `]` and `;` (the region logic's set variables
    /// and operator brackets).
    pub region: bool,
    /// Accept the `!=` comparison.
    pub not_equal: bool,
}

/// Tokenize `input`, pairing every token with its starting byte offset.
pub fn lex<'a>(input: &'a str, opts: &LexOptions) -> Result<Vec<(Tok<'a>, usize)>, ParseError> {
    let bytes = input.as_bytes();
    // The end of the run of bytes from `from` on that `keep` admits.
    let run = |from: usize, keep: fn(&u8) -> bool| {
        from + bytes[from..].iter().take_while(|&b| keep(b)).count()
    };
    let word_byte = |b: &u8| b.is_ascii_alphanumeric() || *b == b'_';
    let fail = |message: String, position: usize| Err(ParseError { message, position });
    // Dense text averages about two bytes a token.
    let mut out = Vec::with_capacity(input.len() / 2);
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).copied();
        let (tok, end) = match c {
            _ if c.is_whitespace() => {
                i += 1;
                continue;
            }
            '(' => (Tok::LParen, i + 1),
            ')' => (Tok::RParen, i + 1),
            '[' if opts.region => (Tok::LBracket, i + 1),
            ']' if opts.region => (Tok::RBracket, i + 1),
            ';' if opts.region => (Tok::Semicolon, i + 1),
            ',' => (Tok::Comma, i + 1),
            '.' => (Tok::Dot, i + 1),
            '+' => (Tok::Plus, i + 1),
            '*' => (Tok::Star, i + 1),
            '-' if next == Some(b'>') => (Tok::Arrow, i + 2),
            '-' => (Tok::Minus, i + 1),
            '<' if next == Some(b'=') => (Tok::Rel(Rel::Le), i + 2),
            '<' => (Tok::Rel(Rel::Lt), i + 1),
            '>' if next == Some(b'=') => (Tok::Rel(Rel::Ge), i + 2),
            '>' => (Tok::Rel(Rel::Gt), i + 1),
            '=' => (Tok::Rel(Rel::Eq), i + 1),
            '!' if opts.not_equal && next == Some(b'=') => (Tok::NotEqual, i + 2),
            '!' if opts.not_equal => return fail("expected '=' after '!'".into(), i),
            '$' if opts.region => {
                let end = run(i + 1, word_byte);
                if end == i + 1 {
                    return fail("expected a name after '$'".into(), i);
                }
                (Tok::SetName(&input[i + 1..end]), end)
            }
            _ if c.is_ascii_digit() => {
                // Optional "/digits" (fraction) or ".digits" (decimal). A dot
                // only counts as part of the number if followed by a digit —
                // otherwise it is the quantifier dot.
                let mut end = run(i, u8::is_ascii_digit);
                if bytes.get(end) == Some(&b'/') {
                    let k = run(end + 1, u8::is_ascii_digit);
                    if k == end + 1 {
                        return fail("expected digits after '/'".into(), end);
                    }
                    end = k;
                } else if bytes.get(end) == Some(&b'.')
                    && bytes.get(end + 1).is_some_and(u8::is_ascii_digit)
                {
                    end = run(end + 1, u8::is_ascii_digit);
                }
                let text = &input[i..end];
                match text.parse() {
                    Ok(value) => (Tok::Number(value), end),
                    Err(e) => return fail(format!("bad number '{}': {}", text, e), i),
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let end = run(i, word_byte);
                let word = &input[i..end];
                let tok = match opts.keywords.iter().find(|&&k| k == word) {
                    Some(&k) => Tok::Keyword(k),
                    None => Tok::Word(word),
                };
                (tok, end)
            }
            _ => return fail(format!("unexpected character '{}'", c), i),
        };
        out.push((tok, i));
        i = end;
    }
    Ok(out)
}

/// A lexed formula being parsed: the grammar skeleton ([`crate::parser`])
/// and each language's own productions read it through `peek` and `bump`,
/// and open every nesting level through [`TokenCursor::nested`]. An error is
/// placed at [`TokenCursor::here`], the next unread token.
pub struct TokenCursor<'a> {
    /// The unread tokens with their byte offsets.
    rest: std::vec::IntoIter<(Tok<'a>, usize)>,
    /// The input's length: where "end of input" is.
    end: usize,
    /// Nesting levels open, at most [`MAX_NESTING`].
    depth: usize,
}

impl<'a> TokenCursor<'a> {
    /// Lex `input` with `opts`.
    pub fn new(input: &'a str, opts: &LexOptions) -> Result<Self, ParseError> {
        Ok(TokenCursor {
            rest: lex(input, opts)?.into_iter(),
            end: input.len(),
            depth: 0,
        })
    }

    /// The unread tokens, next first.
    pub fn ahead(&self) -> impl Iterator<Item = &Tok<'a>> {
        self.rest.as_slice().iter().map(|(t, _)| t)
    }

    /// The next token.
    pub fn peek(&self) -> Option<&Tok<'a>> {
        self.ahead().next()
    }

    /// Byte offset of the next token, or the input's length at its end.
    pub fn here(&self) -> usize {
        self.rest.as_slice().first().map_or(self.end, |&(_, p)| p)
    }

    /// An error at [`TokenCursor::here`].
    pub fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.here(),
        }
    }

    /// Take the next token.
    pub fn bump(&mut self) -> Option<Tok<'a>> {
        self.rest.next().map(|(t, _)| t)
    }

    /// Take the next token if it is `want`.
    pub fn eat(&mut self, want: &Tok<'_>) -> bool {
        let hit = self.peek() == Some(want);
        if hit {
            self.rest.next();
        }
        hit
    }

    /// Take the next token, which must be `want`; otherwise fail with
    /// "expected {what}".
    pub fn expect(&mut self, want: &Tok<'_>, what: &str) -> Result<(), ParseError> {
        if self.eat(want) {
            Ok(())
        } else {
            Err(self.err(format!("expected {}", what)))
        }
    }

    /// Take the next token, which must be a word `accept` admits; otherwise
    /// fail with "expected {what}" just past it.
    pub fn word(&mut self, accept: fn(&str) -> bool, what: &str) -> Result<&'a str, ParseError> {
        match self.bump() {
            Some(Tok::Word(w)) if accept(w) => Ok(w),
            _ => Err(self.err(format!("expected {}", what))),
        }
    }

    /// `item ("," item)*`.
    pub fn commas<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut items = vec![item(self)?];
        while self.eat(&Tok::Comma) {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Run `parse` one nesting level down.
    pub fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};

    #[test]
    fn numbers_fractions_decimals() {
        let toks = lex("1 1/2 1.5", &LexOptions::default()).unwrap();
        let values: Vec<_> = toks
            .into_iter()
            .map(|(t, _)| match t {
                Tok::Number(n) => n,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(values, vec![int(1), rat(1, 2), rat(3, 2)]);
    }

    #[test]
    fn quantifier_dot_vs_decimal_dot() {
        let toks = lex("x. 1.5", &LexOptions::default()).unwrap();
        assert_eq!(toks.len(), 3);
        assert!(matches!(toks[1].0, Tok::Dot));
        assert!(matches!(toks[2].0, Tok::Number(_)));
    }

    #[test]
    fn optional_features_are_gated() {
        // Disabled: the characters are plain lexical errors.
        for src in ["[", "]", ";", "$M", "x != 1"] {
            assert!(lex(src, &LexOptions::default()).is_err(), "{src}");
        }
        // Enabled: they tokenize.
        let all = LexOptions {
            keywords: &["in"],
            region: true,
            not_equal: true,
        };
        assert!(lex("[ ] ; $M", &all).is_ok());
        assert_eq!(lex("x != 1", &all).unwrap()[1].0, Tok::NotEqual);
        assert!(lex("$", &all).is_err()); // still needs a name
        assert!(lex("!", &all).is_err()); // still needs '='

        // Keywords come from the table; every other word is a word.
        let toks = lex("in inside", &all).unwrap();
        assert_eq!(toks[0].0, Tok::Keyword("in"));
        assert_eq!(toks[1].0, Tok::Word("inside"));
    }

    #[test]
    fn offsets_are_byte_positions() {
        let toks = lex("ab  <= cd", &LexOptions::default()).unwrap();
        let positions: Vec<usize> = toks.iter().map(|&(_, p)| p).collect();
        assert_eq!(positions, vec![0, 4, 7]);
    }
}
