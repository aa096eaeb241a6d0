//! Concrete syntax for FO+LIN formulas.
//!
//! ```text
//! formula  := or ( "->" or )*                  (implication, right assoc.)
//! or       := and ( "or" and )*
//! and      := unary ( "and" unary )*
//! unary    := "not" unary
//!           | ("exists" | "forall") ident ("," ident)* "." formula
//!           | "(" formula ")"
//!           | "true" | "false"
//!           | ident "(" expr ("," expr)* ")"   (relation application)
//!           | expr (REL expr)+                 (comparison chains allowed)
//! REL      := "<" | "<=" | "=" | ">=" | ">" | "!="
//! expr     := ["-"] term ( ("+" | "-") term )*
//! term     := number [ "*" ident ] | ident
//! number   := digits [ "/" digits | "." digits ]
//! ```
//!
//! Example: `exists x. S(x, y) and 0 < x < 10 and 2*x - y <= 1/2`.

use crate::lex::{self, LexOptions, RawTok, MAX_NESTING};
use crate::{Atom, Formula, LinExpr};
use lcdb_arith::Rational;
use lcdb_lp::Rel;

pub use crate::lex::ParseError;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(Rational),
    LParen,
    RParen,
    Comma,
    Dot,
    Plus,
    Minus,
    Star,
    Rel(Rel),
    NotEqual,
    Arrow,
    And,
    Or,
    Not,
    Exists,
    Forall,
    True,
    False,
}

/// Tokenize through the shared lexer ([`crate::lex`]) and classify words
/// into this grammar's keywords.
fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let raw = lex::lex(
        input,
        LexOptions {
            not_equal: true,
            ..LexOptions::default()
        },
    )?;
    Ok(raw
        .into_iter()
        .map(|(t, p)| {
            let tok = match t {
                RawTok::Word(w) => match w.as_str() {
                    "and" => Tok::And,
                    "or" => Tok::Or,
                    "not" => Tok::Not,
                    "exists" => Tok::Exists,
                    "forall" => Tok::Forall,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    _ => Tok::Ident(w),
                },
                RawTok::Number(n) => Tok::Number(n),
                RawTok::LParen => Tok::LParen,
                RawTok::RParen => Tok::RParen,
                RawTok::Comma => Tok::Comma,
                RawTok::Dot => Tok::Dot,
                RawTok::Plus => Tok::Plus,
                RawTok::Minus => Tok::Minus,
                RawTok::Star => Tok::Star,
                RawTok::Rel(r) => Tok::Rel(r),
                RawTok::NotEqual => Tok::NotEqual,
                RawTok::Arrow => Tok::Arrow,
                // Gated off by the options above.
                RawTok::SetName(_)
                | RawTok::LBracket
                | RawTok::RBracket
                | RawTok::Semicolon => {
                    unreachable!("token not produced without its LexOptions feature")
                }
            };
            (tok, p)
        })
        .collect())
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    input_len: usize,
    /// Nesting levels open at `pos`, at most [`MAX_NESTING`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|&(_, p)| p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {}", what)))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            position: self.here(),
        }
    }

    /// Run `parse` one nesting level down.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(ParseError::too_deep(self.here()));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn formula(&mut self) -> Result<Formula, ParseError> {
        self.nested(|p| {
            let lhs = p.or_formula()?;
            if p.peek() == Some(&Tok::Arrow) {
                p.bump();
                let rhs = p.formula()?; // right associative
                Ok(lhs.implies(rhs))
            } else {
                Ok(lhs)
            }
        })
    }

    fn or_formula(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.and_formula()?];
        while self.peek() == Some(&Tok::Or) {
            self.bump();
            parts.push(self.and_formula()?);
        }
        if parts.len() == 1 {
            parts.pop().ok_or_else(|| self.err("empty disjunction".into()))
        } else {
            Ok(Formula::or(parts))
        }
    }

    fn and_formula(&mut self) -> Result<Formula, ParseError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Tok::And) {
            self.bump();
            parts.push(self.unary()?);
        }
        if parts.len() == 1 {
            parts.pop().ok_or_else(|| self.err("empty conjunction".into()))
        } else {
            Ok(Formula::and(parts))
        }
    }

    fn unary(&mut self) -> Result<Formula, ParseError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.bump();
                Ok(Formula::not(self.nested(Self::unary)?))
            }
            Some(Tok::Exists) | Some(Tok::Forall) => {
                let is_exists = matches!(self.peek(), Some(Tok::Exists));
                self.bump();
                let mut vars = Vec::new();
                loop {
                    match self.bump() {
                        Some(Tok::Ident(v)) => vars.push(v),
                        _ => return Err(self.err("expected variable name".into())),
                    }
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Dot, "'.' after quantified variables")?;
                let mut body = self.formula()?;
                for v in vars.into_iter().rev() {
                    body = if is_exists {
                        Formula::Exists(v, Box::new(body))
                    } else {
                        Formula::Forall(v, Box::new(body))
                    };
                }
                Ok(body)
            }
            Some(Tok::LParen) => {
                self.bump();
                let f = self.formula()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(f)
            }
            Some(Tok::True) => {
                self.bump();
                Ok(Formula::True)
            }
            Some(Tok::False) => {
                self.bump();
                Ok(Formula::False)
            }
            Some(Tok::Ident(_)) if self.peek2() == Some(&Tok::LParen) => {
                let Some(Tok::Ident(name)) = self.bump() else {
                    unreachable!()
                };
                self.bump(); // '('
                let mut args = vec![self.expr()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    args.push(self.expr()?);
                }
                self.expect(&Tok::RParen, "')' after relation arguments")?;
                Ok(Formula::Pred(name, args))
            }
            Some(_) => self.comparison(),
            None => Err(self.err("unexpected end of input".into())),
        }
    }

    /// A chain `e1 REL e2 REL e3 …` becomes the conjunction of adjacent
    /// comparisons (e.g. `0 < x < 10`).
    fn comparison(&mut self) -> Result<Formula, ParseError> {
        let first = self.expr()?;
        let mut parts = Vec::new();
        let mut lhs = first;
        let mut any = false;
        loop {
            let rel = match self.peek() {
                Some(Tok::Rel(r)) => {
                    let r = *r;
                    self.bump();
                    Some(Ok(r))
                }
                Some(Tok::NotEqual) => {
                    self.bump();
                    Some(Err(())) // marker for !=
                }
                _ => None,
            };
            let Some(rel) = rel else { break };
            any = true;
            // `lhs - rhs`, built in the left side's own map; the right side
            // moves on to be the left side of the chain's next link.
            let mut expr = std::mem::replace(&mut lhs, self.expr()?);
            expr.add_scaled(&lhs, &-Rational::ONE);
            let atom = |expr, rel| Formula::Atom(Atom { expr, rel });
            match rel {
                Ok(rel) => parts.push(atom(expr, rel)),
                Err(()) => parts.push(Formula::or(vec![
                    atom(expr.clone(), Rel::Lt),
                    atom(expr, Rel::Gt),
                ])),
            }
        }
        if !any {
            return Err(self.err("expected a comparison operator".into()));
        }
        Ok(Formula::and(parts))
    }

    fn expr(&mut self) -> Result<LinExpr, ParseError> {
        let mut negate_first = false;
        if self.peek() == Some(&Tok::Minus) {
            self.bump();
            negate_first = true;
        }
        let mut acc = self.term()?;
        if negate_first {
            acc = acc.scale(&-Rational::one());
        }
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    acc.add_scaled(&self.term()?, &Rational::ONE);
                }
                Some(Tok::Minus) => {
                    self.bump();
                    acc.add_scaled(&self.term()?, &-Rational::ONE);
                }
                _ => break,
            }
        }
        Ok(acc)
    }

    fn term(&mut self) -> Result<LinExpr, ParseError> {
        match self.bump() {
            Some(Tok::Number(n)) => {
                if self.peek() == Some(&Tok::Star) {
                    self.bump();
                    match self.bump() {
                        Some(Tok::Ident(v)) => Ok(LinExpr::var(v).scale(&n)),
                        _ => Err(self.err("expected variable after '*'".into())),
                    }
                } else {
                    Ok(LinExpr::constant(n))
                }
            }
            Some(Tok::Ident(v)) => Ok(LinExpr::var(v)),
            _ => Err(self.err("expected a number or variable".into())),
        }
    }
}

/// Parse a formula from its concrete syntax.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        input_len: input.len(),
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input after formula".into()));
    }
    Ok(f)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};
    use std::collections::BTreeMap;

    fn env(pairs: &[(&str, Rational)]) -> BTreeMap<String, Rational> {
        pairs
            .iter()
            .map(|(v, val)| (v.to_string(), val.clone()))
            .collect()
    }

    #[test]
    fn parse_simple_atom() {
        let f = parse_formula("x < 1").unwrap();
        assert!(f.eval(&env(&[("x", int(0))])));
        assert!(!f.eval(&env(&[("x", int(1))])));
    }

    #[test]
    fn parse_comparison_chain() {
        let f = parse_formula("0 < x < 10").unwrap();
        assert!(f.eval(&env(&[("x", int(5))])));
        assert!(!f.eval(&env(&[("x", int(0))])));
        assert!(!f.eval(&env(&[("x", int(10))])));
    }

    #[test]
    fn parse_arithmetic() {
        let f = parse_formula("2*x - y + 1/2 <= 3").unwrap();
        assert!(f.eval(&env(&[("x", int(1)), ("y", int(0))])));
        assert!(!f.eval(&env(&[("x", int(2)), ("y", int(0))])));
        let g = parse_formula("-x + 0.5 = 0").unwrap();
        assert!(g.eval(&env(&[("x", rat(1, 2))])));
    }

    #[test]
    fn parse_boolean_connectives() {
        let f = parse_formula("x < 0 or (x > 1 and not x > 2)").unwrap();
        assert!(f.eval(&env(&[("x", int(-1))])));
        assert!(f.eval(&env(&[("x", rat(3, 2))])));
        assert!(!f.eval(&env(&[("x", rat(1, 2))])));
        assert!(!f.eval(&env(&[("x", int(3))])));
    }

    #[test]
    fn parse_implication() {
        let f = parse_formula("x > 0 -> x > 1").unwrap();
        assert!(f.eval(&env(&[("x", int(-1))]))); // vacuous
        assert!(f.eval(&env(&[("x", int(2))])));
        assert!(!f.eval(&env(&[("x", rat(1, 2))])));
    }

    #[test]
    fn parse_quantifiers() {
        let f = parse_formula("exists y. y > x and y < x + 1").unwrap();
        assert!(f.eval(&env(&[("x", int(7))])));
        let g = parse_formula("forall y. y >= x -> y + 1 > x").unwrap();
        assert!(g.eval(&env(&[("x", int(0))])));
        // Multi-variable binder.
        let h = parse_formula("exists a, b. a < x and x < b").unwrap();
        assert!(h.eval(&env(&[("x", int(0))])));
    }

    #[test]
    fn parse_predicates() {
        let f = parse_formula("S(x, y + 1)").unwrap();
        match &f {
            Formula::Pred(name, args) => {
                assert_eq!(name, "S");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected predicate, got {}", other),
        }
    }

    #[test]
    fn parse_not_equal() {
        let f = parse_formula("x != 1").unwrap();
        assert!(f.eval(&env(&[("x", int(0))])));
        assert!(!f.eval(&env(&[("x", int(1))])));
    }

    #[test]
    fn quantifier_dot_vs_decimal_dot() {
        // `exists x. x > 1.5` must lex `.` and `1.5` correctly.
        let f = parse_formula("exists x. x > 1.5 and x < 2").unwrap();
        assert!(f.eval(&BTreeMap::new()));
    }

    #[test]
    fn parse_true_false() {
        assert_eq!(parse_formula("true").unwrap(), Formula::True);
        assert_eq!(parse_formula("false and x < 1").unwrap(), Formula::False);
    }

    #[test]
    fn nesting_is_capped() {
        for (open, close) in [("(", ")"), ("not ", ""), ("exists x. ", ""), ("x < 1 -> ", "")] {
            let nest = |levels: usize| {
                let n = levels - 1;
                format!("{}x < 1{}", open.repeat(n), close.repeat(n))
            };
            assert!(parse_formula(&nest(MAX_NESTING)).is_ok(), "{open:?}");
            let err = parse_formula(&nest(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.message, format!("nesting deeper than {MAX_NESTING}"));
            assert!(err.to_string().contains("at byte"), "{err}");
            // However deep: an error, not a stack overflow.
            assert_eq!(parse_formula(&nest(200_000)).unwrap_err().message, err.message);
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_formula("").is_err());
        assert!(parse_formula("x <").is_err());
        assert!(parse_formula("x ! 1").is_err());
        assert!(parse_formula("exists . x < 1").is_err());
        assert!(parse_formula("x < 1 )").is_err());
        assert!(parse_formula("1/").is_err());
        assert!(parse_formula("@").is_err());
        assert!(parse_formula("x").is_err()); // bare expression is not a formula
    }

    #[test]
    fn roundtrip_through_display() {
        // Display may re-orient atoms (e.g. `-x < 0` prints as `x > 0`), so
        // round-trips are checked semantically on a sample grid rather than
        // structurally.
        for src in [
            "x < 1",
            "0 < x and x < 10",
            "2*x - 3*y <= 1/2",
            "x = 1 or x > 3",
            "not (x <= 2 and y >= 0)",
        ] {
            let f = parse_formula(src).unwrap();
            let printed = f.to_string();
            let g = parse_formula(&printed)
                .unwrap_or_else(|e| panic!("reparse of '{}' failed: {}", printed, e));
            for vx in -2i64..=11 {
                for vy in -2i64..=2 {
                    let e = env(&[("x", int(vx)), ("y", int(vy))]);
                    assert_eq!(
                        f.eval(&e),
                        g.eval(&e),
                        "roundtrip mismatch for '{}' -> '{}' at ({}, {})",
                        src,
                        printed,
                        vx,
                        vy
                    );
                }
            }
        }
        // Quantified formulas re-parse too.
        let q = parse_formula("exists y. y > x and y < x + 1").unwrap();
        let q2 = parse_formula(&q.to_string()).unwrap();
        let e = env(&[("x", int(3)), ("y", int(0))]);
        assert_eq!(q.eval(&e), q2.eval(&e));
    }
}
