//! Concrete syntax for FO+LIN formulas, and the grammar skeleton that
//! `lcdb-core`'s region logic extends.
//!
//! ```text
//! formula  := or ( "->" or )*                  (implication, right assoc.)
//! or       := and ( "or" and )*
//! and      := unary ( "and" unary )*
//! unary    := "not" unary
//!           | ("exists" | "forall") ident ("," ident)* "." formula
//!           | "true" | "false"
//!           | ident "(" expr ("," expr)* ")"   (relation application)
//!           | <the language's own productions>
//!           | "(" formula ")"
//!           | expr (REL expr)+                 (comparison chains allowed)
//! REL      := "<" | "<=" | "=" | ">=" | ">" | "!="
//! expr     := ["-"] term ( ("+" | "-") term )*
//! term     := number [ "*" ident ] | ident
//! number   := digits [ "/" digits | "." digits ]
//! ```
//!
//! FO+LIN adds no productions of its own, lexes `!=`, and reads every word
//! as an element variable. Example:
//! `exists x. S(x, y) and 0 < x < 10 and 2*x - y <= 1/2`.

use crate::lex::{LexOptions, Tok, TokenCursor};
use crate::{Atom, Formula, LinExpr};
use lcdb_arith::Rational;
use lcdb_lp::Rel;

pub use crate::lex::ParseError;
#[cfg(test)]
use crate::lex::MAX_NESTING;

/// A language read through the shared skeleton: its lexical surface, its
/// tree constructors, and its own `unary` productions.
pub trait Grammar {
    /// The tree a parse builds.
    type Formula;
    /// The keyword table and the optional tokens.
    const LEX: LexOptions;
    /// Whether `word` names an element variable (a `term` and the variable
    /// after `number *`).
    fn is_element(word: &str) -> bool;
    /// One comparison `expr REL 0`.
    fn atom(atom: Atom) -> Self::Formula;
    /// A relation application `name(args)`.
    fn pred(name: String, args: Vec<LinExpr>) -> Self::Formula;
    /// Negation.
    fn not(f: Self::Formula) -> Self::Formula;
    /// Conjunction.
    fn and(parts: Vec<Self::Formula>) -> Self::Formula;
    /// Disjunction.
    fn or(parts: Vec<Self::Formula>) -> Self::Formula;
    /// `exists var. body` (or `forall` when `exists` is false).
    fn quantify(exists: bool, var: String, body: Self::Formula) -> Self::Formula;
    /// The language's own `unary` productions, tried after the shared
    /// keyword forms and relation application. `None` leaves the next token
    /// to a parenthesized formula, a comparison, or the end-of-input error.
    fn unary(c: &mut TokenCursor<'_>) -> Result<Option<Self::Formula>, ParseError>;
}

/// FO+LIN.
struct Fo;

impl Grammar for Fo {
    type Formula = Formula;
    const LEX: LexOptions = LexOptions {
        keywords: &["and", "or", "not", "exists", "forall", "true", "false"],
        region: false,
        not_equal: true,
    };

    fn is_element(_: &str) -> bool {
        true
    }

    fn atom(atom: Atom) -> Formula {
        Formula::Atom(atom)
    }

    fn pred(name: String, args: Vec<LinExpr>) -> Formula {
        Formula::Pred(name, args)
    }

    fn not(f: Formula) -> Formula {
        Formula::not(f)
    }

    fn and(parts: Vec<Formula>) -> Formula {
        Formula::and(parts)
    }

    fn or(parts: Vec<Formula>) -> Formula {
        Formula::or(parts)
    }

    fn quantify(exists: bool, var: String, body: Formula) -> Formula {
        if exists {
            Formula::Exists(var, Box::new(body))
        } else {
            Formula::Forall(var, Box::new(body))
        }
    }

    fn unary(_: &mut TokenCursor<'_>) -> Result<Option<Formula>, ParseError> {
        Ok(None)
    }
}

/// Parse a whole input in grammar `G`.
pub fn parse<G: Grammar>(input: &str) -> Result<G::Formula, ParseError> {
    let mut c = TokenCursor::new(input, &G::LEX)?;
    let f = formula::<G>(&mut c)?;
    if c.peek().is_some() {
        return Err(c.err("trailing input after formula"));
    }
    Ok(f)
}

/// `formula`, one nesting level down.
pub fn formula<G: Grammar>(c: &mut TokenCursor<'_>) -> Result<G::Formula, ParseError> {
    c.nested(|c| {
        let lhs = joined(c, "or", G::or, |c| joined(c, "and", G::and, unary::<G>))?;
        if c.eat(&Tok::Arrow) {
            let rhs = formula::<G>(c)?; // right associative
            Ok(G::or(vec![G::not(lhs), rhs]))
        } else {
            Ok(lhs)
        }
    })
}

/// `item (sep item)*`, joined when there is more than one.
fn joined<'a, F>(
    c: &mut TokenCursor<'a>,
    sep: &'static str,
    join: fn(Vec<F>) -> F,
    item: impl Fn(&mut TokenCursor<'a>) -> Result<F, ParseError>,
) -> Result<F, ParseError> {
    let first = item(c)?;
    if c.peek() != Some(&Tok::Keyword(sep)) {
        return Ok(first);
    }
    let mut parts = Vec::with_capacity(4);
    parts.push(first);
    while c.eat(&Tok::Keyword(sep)) {
        parts.push(item(c)?);
    }
    Ok(join(parts))
}

fn unary<G: Grammar>(c: &mut TokenCursor<'_>) -> Result<G::Formula, ParseError> {
    match c.peek() {
        Some(Tok::Keyword("not")) => {
            c.bump();
            Ok(G::not(c.nested(unary::<G>)?))
        }
        Some(&Tok::Keyword(q @ ("exists" | "forall"))) => {
            c.bump();
            let vars = c.commas(|c| c.word(|_| true, "variable name"))?;
            c.expect(&Tok::Dot, "'.' after quantified variables")?;
            let body = formula::<G>(c)?;
            Ok(vars
                .into_iter()
                .rev()
                .fold(body, |body, v| G::quantify(q == "exists", v.into(), body)))
        }
        Some(&Tok::Keyword(b @ ("true" | "false"))) => {
            c.bump();
            // The empty conjunction is true, the empty disjunction false.
            Ok(if b == "true" { G::and(Vec::new()) } else { G::or(Vec::new()) })
        }
        Some(Tok::Word(_)) if c.ahead().nth(1) == Some(&Tok::LParen) => {
            let name = c.word(|_| true, "relation name")?.into();
            c.bump(); // '('
            let args = c.commas(expr::<G>)?;
            c.expect(&Tok::RParen, "')' after relation arguments")?;
            Ok(G::pred(name, args))
        }
        _ => match G::unary(c)? {
            Some(f) => Ok(f),
            None => match c.peek() {
                Some(Tok::LParen) => {
                    c.bump();
                    let f = formula::<G>(c)?;
                    c.expect(&Tok::RParen, "')'")?;
                    Ok(f)
                }
                Some(_) => {
                    let first = expr::<G>(c)?;
                    comparison::<G>(c, first, "expected a comparison operator")
                }
                None => Err(c.err("unexpected end of input")),
            },
        },
    }
}

/// The rest of a chain `first REL e2 REL e3 …`: the conjunction of its
/// adjacent comparisons (e.g. `0 < x < 10`). Fails with `missing` when no
/// comparison follows `first`.
pub fn comparison<G: Grammar>(
    c: &mut TokenCursor<'_>,
    first: LinExpr,
    missing: &str,
) -> Result<G::Formula, ParseError> {
    let mut chain = None;
    let mut lhs = first;
    loop {
        let rel = match c.peek() {
            Some(&Tok::Rel(rel)) => Some(rel),
            Some(Tok::NotEqual) => None,
            _ => break,
        };
        c.bump();
        // `lhs - rhs`, built in the left side's own map; the right side
        // moves on to be the left side of the chain's next link.
        let mut expr = std::mem::replace(&mut lhs, expr::<G>(c)?);
        expr.add_scaled(&lhs, &-Rational::ONE);
        let link = match rel {
            Some(rel) => G::atom(Atom { expr, rel }),
            None => {
                let lt = G::atom(Atom {
                    expr: expr.clone(),
                    rel: Rel::Lt,
                });
                G::or(vec![lt, G::atom(Atom { expr, rel: Rel::Gt })])
            }
        };
        // A lone comparison is itself, with no list around it.
        chain = Some(match chain {
            None => link,
            Some(links) => G::and(vec![links, link]),
        });
    }
    chain.ok_or_else(|| c.err(missing))
}

/// `["-"] term (("+" | "-") term)*` with `term := number ["*" element] |
/// element`, each term added to one expression as it is read.
pub fn expr<G: Grammar>(c: &mut TokenCursor<'_>) -> Result<LinExpr, ParseError> {
    let mut acc = LinExpr::zero();
    let mut sign = if c.eat(&Tok::Minus) { -Rational::ONE } else { Rational::ONE };
    loop {
        match c.bump() {
            Some(Tok::Number(n)) if c.eat(&Tok::Star) => {
                acc.add_term(c.word(G::is_element, "variable after '*'")?, &n * &sign);
            }
            Some(Tok::Number(n)) => acc.add_scaled(&LinExpr::constant(n), &sign),
            Some(Tok::Word(v)) if G::is_element(v) => acc.add_term(v, sign),
            _ => return Err(c.err("expected a number or variable")),
        }
        sign = if c.eat(&Tok::Plus) {
            Rational::ONE
        } else if c.eat(&Tok::Minus) {
            -Rational::ONE
        } else {
            return Ok(acc);
        };
    }
}

/// Parse a formula from its concrete syntax.
pub fn parse_formula(input: &str) -> Result<Formula, ParseError> {
    parse::<Fo>(input)
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

    mod print_parse {
        use super::*;
        use crate::arb::arb_fo_formula;
        use crate::{Database, Relation};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Printing is a parse inverse: the printed text parses back to
            /// a formula that prints the same and holds at the same points
            /// (a binder's body must not capture a following conjunct).
            #[test]
            fn printing_reparses_to_the_same_formula(f in arb_fo_formula(12)) {
                let printed = f.to_string();
                let g = parse_formula(&printed)
                    .unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
                prop_assert_eq!(g.to_string(), printed.clone());
                let mut db = Database::new();
                let less = parse_formula("a < b").unwrap();
                db.insert("S", Relation::new(vec!["a".into(), "b".into()], less));
                let (f, g) = (f.expand_predicates(&db), g.expand_predicates(&db));
                for vx in -1..=1 {
                    for vy in -1..=1 {
                        for vz in -1..=1 {
                            let e = env(&[("x", int(vx)), ("y", int(vy)), ("z", int(vz))]);
                            prop_assert_eq!(f.eval(&e), g.eval(&e), "'{}' at {:?}", printed, e);
                        }
                    }
                }
            }
        }
    }
}
