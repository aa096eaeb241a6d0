//! Concrete syntax for the region logic family.
//!
//! Variable sorts are distinguished lexically, following the paper's
//! conventions (§4: "small letters for element variables and capital letters
//! for region variables"):
//!
//! * `x`, `y`, … (lowercase) — element variables over ℝ,
//! * `R`, `Z`, … (uppercase) — region variables,
//! * `$M` — set variables (sets of region tuples),
//! * relation symbols appear in application position: `S(x, y)`.
//!
//! The grammar is FO+LIN's ([`lcdb_logic::parser`]: connectives, binders,
//! relation application, comparison chains) plus region atoms and
//! operators. A binder's sort is read off its variable's case; `!=` is not
//! a token, and the variable after `number *` must be an element variable.
//!
//! ```text
//! unary    := <FO+LIN's unary>
//!           | "adj" "(" RVAR "," RVAR ")"
//!           | "bounded" "(" RVAR ")"
//!           | "dim" "(" RVAR ")" "=" NUM
//!           | RVAR "=" RVAR | RVAR "subset" IDENT
//!           | "(" expr ("," expr)* ")" "in" RVAR  |  expr "in" RVAR
//!           | "$" IDENT "(" RVAR ("," RVAR)* ")"      (set application)
//!           | "[" FIXOP "$" IDENT ("," RVAR)+ "." formula "]" "(" RVAR* ")"
//!           | "[" ("tc"|"dtc") RVAR* ";" RVAR* "." formula "]"
//!                 "(" RVAR* ";" RVAR* ")"
//!           | "[" "rbit" var "." formula "]" "(" RVAR "," RVAR ")"
//! FIXOP    := "lfp" | "ifp" | "pfp"
//! ```
//!
//! Example — the paper's connectivity fixed point:
//!
//! ```text
//! forall Rx. forall Ry. (Rx subset S and Ry subset S) ->
//!   [lfp $M, R, Rp. (R = Rp and R subset S) or
//!       (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)
//! ```

use crate::regfo::{FixMode, RegFormula};
#[cfg(test)]
use lcdb_logic::lex::MAX_NESTING;
use lcdb_logic::lex::{LexOptions, Tok, TokenCursor};
use lcdb_logic::parser::{self, comparison, expr, formula, Grammar};
use lcdb_logic::{Atom, LinExpr, ParseError, Rel};

/// The region logic: FO+LIN's skeleton plus region atoms and operators.
struct Reg;

impl Grammar for Reg {
    type Formula = RegFormula;
    const LEX: LexOptions = LexOptions {
        keywords: &[
            "and", "or", "not", "exists", "forall", "true", "false", "adj", "bounded", "dim",
            "subset", "in", "lfp", "ifp", "pfp", "tc", "dtc", "rbit",
        ],
        region: true,
        not_equal: false,
    };

    /// Lowercase- or `_`-initial; an uppercase-initial word is a region
    /// variable (or, applied, a relation symbol).
    fn is_element(word: &str) -> bool {
        !word.starts_with(|ch: char| ch.is_uppercase())
    }

    fn atom(atom: Atom) -> RegFormula {
        RegFormula::Lin(atom)
    }

    fn pred(name: String, args: Vec<LinExpr>) -> RegFormula {
        RegFormula::Pred(name, args)
    }

    fn not(f: RegFormula) -> RegFormula {
        RegFormula::not(f)
    }

    fn and(parts: Vec<RegFormula>) -> RegFormula {
        RegFormula::and(parts)
    }

    fn or(parts: Vec<RegFormula>) -> RegFormula {
        RegFormula::or(parts)
    }

    fn quantify(exists: bool, var: String, body: RegFormula) -> RegFormula {
        match (exists, Self::is_element(&var)) {
            (true, true) => RegFormula::exists_elem(var, body),
            (true, false) => RegFormula::exists_region(var, body),
            (false, true) => RegFormula::forall_elem(var, body),
            (false, false) => RegFormula::forall_region(var, body),
        }
    }

    fn unary(c: &mut TokenCursor<'_>) -> Result<Option<RegFormula>, ParseError> {
        let f = match c.peek() {
            Some(Tok::Keyword("adj")) => {
                c.bump();
                c.expect(&Tok::LParen, "'('")?;
                let a = regvar(c)?;
                c.expect(&Tok::Comma, "','")?;
                let b = regvar(c)?;
                c.expect(&Tok::RParen, "')'")?;
                RegFormula::Adj(a, b)
            }
            Some(Tok::Keyword("bounded")) => {
                c.bump();
                c.expect(&Tok::LParen, "'('")?;
                let r = regvar(c)?;
                c.expect(&Tok::RParen, "')'")?;
                RegFormula::Bounded(r)
            }
            Some(Tok::Keyword("dim")) => {
                c.bump();
                c.expect(&Tok::LParen, "'('")?;
                let r = regvar(c)?;
                c.expect(&Tok::RParen, "')'")?;
                c.expect(&Tok::Rel(Rel::Eq), "'='")?;
                match c.bump() {
                    Some(Tok::Number(n)) if n.is_integer() && !n.is_negative() => {
                        let k = n
                            .numer()
                            .to_i64()
                            .and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| c.err("dimension out of range"))?;
                        RegFormula::DimEq(r, k)
                    }
                    _ => return Err(c.err("expected a dimension literal")),
                }
            }
            Some(Tok::SetName(_)) => {
                let m = set_name(c)?;
                c.expect(&Tok::LParen, "'(' after set variable")?;
                let vars = c.commas(regvar)?;
                c.expect(&Tok::RParen, "')'")?;
                RegFormula::SetApp(m, vars)
            }
            Some(Tok::LBracket) => operator(c)?,
            // R = R'  or  R subset S (an applied one was a relation symbol)
            Some(Tok::Word(w)) if !Self::is_element(w) => {
                let a = regvar(c)?;
                match c.bump() {
                    Some(Tok::Rel(Rel::Eq)) => RegFormula::RegionEq(a, regvar(c)?),
                    Some(Tok::Keyword("subset")) => {
                        let name = c.word(|_| true, "a relation name after 'subset'")?;
                        RegFormula::SubsetOf(a, name.into())
                    }
                    _ => return Err(c.err("expected '=' or 'subset' after region variable")),
                }
            }
            Some(Tok::LParen) if tuple_ahead(c) => {
                c.bump();
                let args = c.commas(expr::<Reg>)?;
                c.expect(&Tok::RParen, "')'")?;
                c.bump(); // 'in'
                RegFormula::In(args, regvar(c)?)
            }
            None | Some(Tok::LParen) => return Ok(None),
            Some(_) => {
                let first = expr::<Reg>(c)?;
                if !c.eat(&Tok::Keyword("in")) {
                    let missing = "expected a comparison, 'in', or region operation";
                    return comparison::<Reg>(c, first, missing).map(Some);
                }
                RegFormula::In(vec![first], regvar(c)?)
            }
        };
        Ok(Some(f))
    }
}

fn regvar(c: &mut TokenCursor<'_>) -> Result<String, ParseError> {
    c.word(|w| !Reg::is_element(w), "a region variable (uppercase)").map(String::from)
}

fn set_name(c: &mut TokenCursor<'_>) -> Result<String, ParseError> {
    match c.bump() {
        Some(Tok::SetName(m)) => Ok(m.into()),
        _ => Err(c.err("expected a set variable ($name)")),
    }
}

/// Whether the tokens from the current `(` read `( expr ("," expr)* ) in`
/// — a point tuple's containment rather than a parenthesized formula —
/// decided without consuming them. Mirrors [`expr`]: `["-"] term (("+" |
/// "-") term)*` with `term := number ["*" element] | element`.
fn tuple_ahead(c: &TokenCursor<'_>) -> bool {
    let element = |t: Option<&Tok>| matches!(t, Some(Tok::Word(w)) if Reg::is_element(w));
    let mut toks = c.ahead().skip(1).peekable();
    loop {
        toks.next_if_eq(&&Tok::Minus);
        loop {
            match toks.next() {
                Some(Tok::Number(_)) => {
                    if toks.next_if_eq(&&Tok::Star).is_some() && !element(toks.next()) {
                        return false;
                    }
                }
                t if element(t) => {}
                _ => return false,
            }
            if toks
                .next_if(|t| matches!(t, Tok::Plus | Tok::Minus))
                .is_none()
            {
                break;
            }
        }
        match toks.next() {
            Some(Tok::Comma) => {}
            Some(Tok::RParen) => return toks.next() == Some(&Tok::Keyword("in")),
            _ => return false,
        }
    }
}

/// `. body ] (`, between an operator's variables and its arguments.
fn operator_body(c: &mut TokenCursor<'_>) -> Result<RegFormula, ParseError> {
    c.expect(&Tok::Dot, "'.'")?;
    let body = formula::<Reg>(c)?;
    c.expect(&Tok::RBracket, "']'")?;
    c.expect(&Tok::LParen, "'('")?;
    Ok(body)
}

/// `[lfp $M, R, … . body](args)`, `[tc Ls ; Rs . body](As ; Bs)`,
/// `[rbit x. body](Rn, Rd)`.
fn operator(c: &mut TokenCursor<'_>) -> Result<RegFormula, ParseError> {
    c.bump(); // '['
    match c.bump() {
        Some(Tok::Keyword(op @ ("lfp" | "ifp" | "pfp"))) => {
            let mode = match op {
                "lfp" => FixMode::Lfp,
                "ifp" => FixMode::Ifp,
                _ => FixMode::Pfp,
            };
            let set_var = set_name(c)?;
            if !c.eat(&Tok::Comma) {
                return Err(c.err("fixed point needs at least one tuple variable"));
            }
            let vars = c.commas(regvar)?;
            let body = operator_body(c)?.into();
            let args = c.commas(regvar)?;
            c.expect(&Tok::RParen, "')'")?;
            if args.len() != vars.len() {
                return Err(c.err(format!(
                    "fixed point arity mismatch: {} variables, {} arguments",
                    vars.len(),
                    args.len()
                )));
            }
            Ok(RegFormula::Fix {
                mode,
                set_var,
                vars,
                body,
                args,
            })
        }
        Some(Tok::Keyword(op @ ("tc" | "dtc"))) => {
            let left = c.commas(regvar)?;
            c.expect(&Tok::Semicolon, "';' between TC tuples")?;
            let right = c.commas(regvar)?;
            let body = operator_body(c)?.into();
            let arg_left = c.commas(regvar)?;
            c.expect(&Tok::Semicolon, "';' between TC arguments")?;
            let arg_right = c.commas(regvar)?;
            c.expect(&Tok::RParen, "')'")?;
            if [right.len(), arg_left.len(), arg_right.len()] != [left.len(); 3] {
                return Err(c.err("TC tuple arity mismatch"));
            }
            Ok(RegFormula::Tc {
                deterministic: op == "dtc",
                left,
                right,
                body,
                arg_left,
                arg_right,
            })
        }
        Some(Tok::Keyword("rbit")) => {
            let var = c.word(Reg::is_element, "an element variable after 'rbit'")?.into();
            let body = operator_body(c)?.into();
            let rn = regvar(c)?;
            c.expect(&Tok::Comma, "','")?;
            let rd = regvar(c)?;
            c.expect(&Tok::RParen, "')'")?;
            Ok(RegFormula::Rbit { var, body, rn, rd })
        }
        _ => Err(c.err("expected 'lfp', 'ifp', 'pfp', 'tc', 'dtc', or 'rbit'")),
    }
}

/// Parse a region-logic formula from its concrete syntax.
pub fn parse_regformula(input: &str) -> Result<RegFormula, ParseError> {
    parser::parse::<Reg>(input)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::RegionExtension;
    use crate::Evaluator;
    use lcdb_logic::{parse_formula, Relation};

    fn ext1(src: &str) -> RegionExtension {
        let rel = Relation::new(vec!["x".into()], parse_formula(src).unwrap());
        RegionExtension::arrangement(rel)
    }

    #[test]
    fn parse_region_quantifiers_and_subset() {
        let f = parse_regformula("exists R. R subset S").unwrap();
        let ext = ext1("0 < x and x < 1");
        assert!(Evaluator::new(&ext).eval_sentence(&f));
        let g = parse_regformula("forall R. R subset S").unwrap();
        assert!(!Evaluator::new(&ext).eval_sentence(&g));
    }

    #[test]
    fn parse_sorted_binders() {
        // Mixed element and region binders in one quantifier.
        let f = parse_regformula("exists x, R. S(x) and x in R and bounded(R)").unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&f));
        assert!(!Evaluator::new(&ext1("x > 0")).eval_sentence(&f));
    }

    #[test]
    fn parse_adj_dim_bounded() {
        let f = parse_regformula(
            "exists R, Q. adj(R, Q) and dim(R) = 0 and dim(Q) = 1 and bounded(Q)",
        )
        .unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&f));
    }

    #[test]
    fn parse_connectivity_matches_builder() {
        let src = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> \
                   [lfp $M, R, Rp. (R = Rp and R subset S) or \
                   (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";
        let parsed = parse_regformula(src).unwrap();
        for db in [
            "0 < x and x < 2",
            "(0 < x and x < 1) or (2 < x and x < 3)",
        ] {
            let ext = ext1(db);
            let ev = Evaluator::new(&ext);
            assert_eq!(
                ev.eval_sentence(&parsed),
                ev.eval_sentence(&crate::queries::connectivity()),
                "{}",
                db
            );
        }
    }

    #[test]
    fn parse_tc_and_dtc() {
        let f = parse_regformula(
            "forall A. forall B. [tc X ; Y . adj(X, Y)](A ; B)",
        )
        .unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&f));
        let d = parse_regformula("forall A. [dtc X ; Y . adj(X, Y)](A ; A)").unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&d));
    }

    #[test]
    fn parse_rbit() {
        let f = parse_regformula(
            "exists Rn, Rd. [rbit x. 2*x = 3](Rn, Rd)",
        )
        .unwrap();
        let ext = ext1("0 < x and x < 2");
        assert!(Evaluator::new(&ext).eval_sentence(&f));
    }

    #[test]
    fn parse_tuple_containment() {
        let f = parse_regformula("exists R. (1/2) in R and R subset S").unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&f));
        // 2-tuple form parses (evaluation needs a 2-ary database).
        let g = parse_regformula("exists R. (x + 1, 2*y) in R");
        assert!(g.is_ok());
    }

    #[test]
    fn parse_pfp_and_ifp() {
        let f = parse_regformula(
            "exists R. [pfp $M, X. not $M(X)](R)",
        )
        .unwrap();
        assert!(!Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&f));
        let g = parse_regformula("forall R. [ifp $M, X. not $M(X)](R)").unwrap();
        assert!(Evaluator::new(&ext1("0 < x and x < 1")).eval_sentence(&g));
    }

    #[test]
    fn nesting_is_capped() {
        for (open, close) in [
            ("(", ")"),
            ("not ", ""),
            ("exists R. ", ""),
            ("forall x. ", ""),
            ("R subset S -> ", ""),
            ("[lfp $M, R. ", "](R)"),
        ] {
            let nest = |levels: usize| {
                let n = levels - 1;
                format!("{}R subset S{}", open.repeat(n), close.repeat(n))
            };
            assert!(parse_regformula(&nest(MAX_NESTING)).is_ok(), "{open:?}");
            let err = parse_regformula(&nest(MAX_NESTING + 1)).unwrap_err();
            assert_eq!(err.message, format!("nesting deeper than {MAX_NESTING}"));
            assert!(err.to_string().contains("at byte"), "{err}");
            // However deep: an error, not a stack overflow.
            assert_eq!(parse_regformula(&nest(200_000)).unwrap_err().message, err.message);
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_regformula("").is_err());
        assert!(parse_regformula("exists R").is_err());
        assert!(parse_regformula("adj(R)").is_err());
        assert!(parse_regformula("[lfp $M. true](R)").is_err()); // no tuple vars
        assert!(parse_regformula("[lfp $M, X. true](R, Q)").is_err()); // arity
        assert!(parse_regformula("R subset").is_err());
        assert!(parse_regformula("$M(x)").is_err()); // element var in set app
        assert!(parse_regformula("x < 1 )").is_err());
    }

    #[test]
    fn display_roundtrip_for_core_fragment() {
        // The Display form of parsed formulas is stable under re-parsing for
        // the connective fragment.
        for src in ["adj(A, B)", "A = B", "bounded(R)", "dim(R) = 2"] {
            let f = parse_regformula(src).unwrap();
            let _ = f.to_string();
        }
    }
}
