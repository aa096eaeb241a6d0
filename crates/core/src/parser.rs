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
//! ```text
//! formula  := or ( "->" or )*
//! or       := and ( "or" and )*
//! and      := unary ( "and" unary )*
//! unary    := "not" unary
//!           | ("exists" | "forall") var ("," var)* "." formula
//!           | "(" formula ")" | "true" | "false"
//!           | "adj" "(" RVAR "," RVAR ")"
//!           | "bounded" "(" RVAR ")"
//!           | "dim" "(" RVAR ")" "=" NUM
//!           | RVAR "=" RVAR | RVAR "subset" IDENT
//!           | "(" expr ("," expr)* ")" "in" RVAR  |  expr "in" RVAR
//!           | IDENT "(" expr ("," expr)* ")"          (relation symbol)
//!           | "$" IDENT "(" RVAR ("," RVAR)* ")"      (set application)
//!           | "[" FIXOP "$" IDENT ("," RVAR)+ "." formula "]" "(" RVAR* ")"
//!           | "[" ("tc"|"dtc") RVAR* ";" RVAR* "." formula "]"
//!                 "(" RVAR* ";" RVAR* ")"
//!           | "[" "rbit" var "." formula "]" "(" RVAR "," RVAR ")"
//!           | expr REL expr (chains allowed)
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
use lcdb_logic::lex::{self, LexOptions, RawTok, MAX_NESTING};
use lcdb_logic::{Atom, LinExpr, ParseError, Rel};
use lcdb_arith::Rational;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),   // lowercase-initial identifier
    RegVar(String),  // uppercase-initial identifier
    SetVar(String),  // $name
    Number(Rational),
    Keyword(&'static str),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Semicolon,
    Dot,
    Plus,
    Minus,
    Star,
    Rel(Rel),
    Arrow,
}

const KEYWORDS: [&str; 18] = [
    "and", "or", "not", "exists", "forall", "true", "false", "adj", "bounded", "dim",
    "subset", "in", "lfp", "ifp", "pfp", "tc", "dtc", "rbit",
];

/// Tokenize through the shared lexer ([`lcdb_logic::lex`]), then classify
/// words: keywords, region variables (uppercase-initial), or identifiers.
fn lex(input: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let raw = lex::lex(
        input,
        LexOptions {
            set_names: true,
            brackets: true,
            not_equal: false,
        },
    )?;
    Ok(raw
        .into_iter()
        .map(|(t, p)| {
            let tok = match t {
                RawTok::Word(word) => {
                    if let Some(&kw) = KEYWORDS.iter().find(|&&k| k == word) {
                        Tok::Keyword(kw)
                    } else if word.starts_with(|ch: char| ch.is_uppercase()) {
                        Tok::RegVar(word)
                    } else {
                        Tok::Ident(word)
                    }
                }
                RawTok::SetName(name) => Tok::SetVar(name),
                RawTok::Number(n) => Tok::Number(n),
                RawTok::LParen => Tok::LParen,
                RawTok::RParen => Tok::RParen,
                RawTok::LBracket => Tok::LBracket,
                RawTok::RBracket => Tok::RBracket,
                RawTok::Comma => Tok::Comma,
                RawTok::Semicolon => Tok::Semicolon,
                RawTok::Dot => Tok::Dot,
                RawTok::Plus => Tok::Plus,
                RawTok::Minus => Tok::Minus,
                RawTok::Star => Tok::Star,
                RawTok::Rel(r) => Tok::Rel(r),
                RawTok::Arrow => Tok::Arrow,
                // Gated off: not_equal is false for this grammar.
                RawTok::NotEqual => {
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
    len: usize,
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

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn here(&self) -> usize {
        self.toks.get(self.pos).map(|&(_, p)| p).unwrap_or(self.len)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            position: self.here(),
        }
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {}", what)))
        }
    }


    fn regvar(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::RegVar(v)) => Ok(v),
            _ => Err(self.err("expected a region variable (uppercase)")),
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

    fn formula(&mut self) -> Result<RegFormula, ParseError> {
        self.nested(|p| {
            let lhs = p.or_formula()?;
            if p.peek() == Some(&Tok::Arrow) {
                p.bump();
                let rhs = p.formula()?;
                Ok(lhs.implies(rhs))
            } else {
                Ok(lhs)
            }
        })
    }

    fn or_formula(&mut self) -> Result<RegFormula, ParseError> {
        let mut parts = vec![self.and_formula()?];
        while self.peek() == Some(&Tok::Keyword("or")) {
            self.bump();
            parts.push(self.and_formula()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("parsed at least one part")
        } else {
            RegFormula::or(parts)
        })
    }

    fn and_formula(&mut self) -> Result<RegFormula, ParseError> {
        let mut parts = vec![self.unary()?];
        while self.peek() == Some(&Tok::Keyword("and")) {
            self.bump();
            parts.push(self.unary()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("parsed at least one part")
        } else {
            RegFormula::and(parts)
        })
    }

    fn unary(&mut self) -> Result<RegFormula, ParseError> {
        match self.peek() {
            Some(Tok::Keyword("not")) => {
                self.bump();
                Ok(RegFormula::not(self.nested(Self::unary)?))
            }
            Some(&Tok::Keyword(q @ ("exists" | "forall"))) => {
                self.bump();
                // Sorted binders: uppercase = region, lowercase = element.
                let mut binders = Vec::new();
                loop {
                    match self.bump() {
                        Some(Tok::RegVar(v)) => binders.push((v, true)),
                        Some(Tok::Ident(v)) => binders.push((v, false)),
                        _ => return Err(self.err("expected a variable after quantifier")),
                    }
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.expect(&Tok::Dot, "'.' after quantified variables")?;
                let mut body = self.formula()?;
                for (v, is_region) in binders.into_iter().rev() {
                    body = match (q, is_region) {
                        ("exists", true) => RegFormula::exists_region(v, body),
                        ("exists", false) => RegFormula::exists_elem(v, body),
                        (_, true) => RegFormula::forall_region(v, body),
                        (_, false) => RegFormula::forall_elem(v, body),
                    };
                }
                Ok(body)
            }
            Some(Tok::Keyword("true")) => {
                self.bump();
                Ok(RegFormula::True)
            }
            Some(Tok::Keyword("false")) => {
                self.bump();
                Ok(RegFormula::False)
            }
            Some(Tok::Keyword("adj")) => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let a = self.regvar()?;
                self.expect(&Tok::Comma, "','")?;
                let b = self.regvar()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::Adj(a, b))
            }
            Some(Tok::Keyword("bounded")) => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let r = self.regvar()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::Bounded(r))
            }
            Some(Tok::Keyword("dim")) => {
                self.bump();
                self.expect(&Tok::LParen, "'('")?;
                let r = self.regvar()?;
                self.expect(&Tok::RParen, "')'")?;
                self.expect(&Tok::Rel(Rel::Eq), "'='")?;
                match self.bump() {
                    Some(Tok::Number(n)) if n.is_integer() && !n.is_negative() => {
                        let k = n.numer().to_i64().and_then(|v| usize::try_from(v).ok())
                            .ok_or_else(|| self.err("dimension out of range"))?;
                        Ok(RegFormula::DimEq(r, k))
                    }
                    _ => Err(self.err("expected a dimension literal")),
                }
            }
            Some(Tok::SetVar(m)) => {
                let m = m.clone();
                self.pos += 1;
                self.expect(&Tok::LParen, "'(' after set variable")?;
                let mut vars = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    vars.push(self.regvar()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::SetApp(m, vars))
            }
            Some(Tok::LBracket) => self.operator_formula(),
            Some(Tok::RegVar(name)) if self.peek2() == Some(&Tok::LParen) => {
                // Uppercase relation symbol applied to element terms (the
                // paper's `S(x̄)`): unambiguous because region variables are
                // never applied.
                let name = name.clone();
                self.pos += 2;
                let mut args = vec![self.expr()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    args.push(self.expr()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::Pred(name, args))
            }
            Some(Tok::RegVar(_)) => {
                // R = R'  or  R subset S
                let a = self.regvar()?;
                match self.bump() {
                    Some(Tok::Rel(Rel::Eq)) => {
                        let b = self.regvar()?;
                        Ok(RegFormula::RegionEq(a, b))
                    }
                    Some(Tok::Keyword("subset")) => match self.bump() {
                        Some(Tok::Ident(rel)) | Some(Tok::RegVar(rel)) => {
                            Ok(RegFormula::SubsetOf(a, rel))
                        }
                        _ => Err(self.err("expected a relation name after 'subset'")),
                    },
                    _ => Err(self.err("expected '=' or 'subset' after region variable")),
                }
            }
            Some(Tok::Ident(name)) if self.peek2() == Some(&Tok::LParen) => {
                let name = name.clone();
                self.pos += 2;
                let mut args = vec![self.expr()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    args.push(self.expr()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::Pred(name, args))
            }
            Some(Tok::LParen) => {
                // Either a parenthesized formula or a point tuple `(e, …) in R`.
                if let Some(f) = self.try_tuple_containment()? {
                    return Ok(f);
                }
                self.bump();
                let f = self.formula()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(f)
            }
            Some(_) => self.comparison_or_containment(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Lookahead for `( expr , … ) in R`; resets position on failure.
    fn try_tuple_containment(&mut self) -> Result<Option<RegFormula>, ParseError> {
        let save = self.pos;
        if self.peek() != Some(&Tok::LParen) {
            return Ok(None);
        }
        self.bump();
        let mut args = Vec::new();
        loop {
            match self.expr() {
                Ok(e) => args.push(e),
                Err(_) => {
                    self.pos = save;
                    return Ok(None);
                }
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                Some(Tok::RParen) => {
                    self.bump();
                    break;
                }
                _ => {
                    self.pos = save;
                    return Ok(None);
                }
            }
        }
        if self.peek() == Some(&Tok::Keyword("in")) {
            self.bump();
            let r = self.regvar()?;
            Ok(Some(RegFormula::In(args, r)))
        } else {
            self.pos = save;
            Ok(None)
        }
    }

    /// `[lfp $M, R, … . body](args)`, `[tc Ls ; Rs . body](As ; Bs)`,
    /// `[rbit x. body](Rn, Rd)`.
    fn operator_formula(&mut self) -> Result<RegFormula, ParseError> {
        self.expect(&Tok::LBracket, "'['")?;
        match self.bump() {
            Some(Tok::Keyword(op @ ("lfp" | "ifp" | "pfp"))) => {
                let mode = match op {
                    "lfp" => FixMode::Lfp,
                    "ifp" => FixMode::Ifp,
                    _ => FixMode::Pfp,
                };
                let set_var = match self.bump() {
                    Some(Tok::SetVar(m)) => m,
                    _ => return Err(self.err("expected a set variable ($name)")),
                };
                let mut vars = Vec::new();
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    vars.push(self.regvar()?);
                }
                if vars.is_empty() {
                    return Err(self.err("fixed point needs at least one tuple variable"));
                }
                self.expect(&Tok::Dot, "'.'")?;
                let body = self.formula()?;
                self.expect(&Tok::RBracket, "']'")?;
                self.expect(&Tok::LParen, "'('")?;
                let mut args = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    args.push(self.regvar()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                if args.len() != vars.len() {
                    return Err(self.err(format!(
                        "fixed point arity mismatch: {} variables, {} arguments",
                        vars.len(),
                        args.len()
                    )));
                }
                Ok(RegFormula::Fix {
                    mode,
                    set_var,
                    vars,
                    body: body.into(),
                    args,
                })
            }
            Some(Tok::Keyword(op @ ("tc" | "dtc"))) => {
                let mut left = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    left.push(self.regvar()?);
                }
                self.expect(&Tok::Semicolon, "';' between TC tuples")?;
                let mut right = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    right.push(self.regvar()?);
                }
                self.expect(&Tok::Dot, "'.'")?;
                let body = self.formula()?;
                self.expect(&Tok::RBracket, "']'")?;
                self.expect(&Tok::LParen, "'('")?;
                let mut arg_left = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    arg_left.push(self.regvar()?);
                }
                self.expect(&Tok::Semicolon, "';' between TC arguments")?;
                let mut arg_right = vec![self.regvar()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.bump();
                    arg_right.push(self.regvar()?);
                }
                self.expect(&Tok::RParen, "')'")?;
                if left.len() != right.len()
                    || arg_left.len() != left.len()
                    || arg_right.len() != left.len()
                {
                    return Err(self.err("TC tuple arity mismatch"));
                }
                Ok(RegFormula::Tc {
                    deterministic: op == "dtc",
                    left,
                    right,
                    body: body.into(),
                    arg_left,
                    arg_right,
                })
            }
            Some(Tok::Keyword("rbit")) => {
                let var = match self.bump() {
                    Some(Tok::Ident(v)) => v,
                    _ => return Err(self.err("expected an element variable after 'rbit'")),
                };
                self.expect(&Tok::Dot, "'.'")?;
                let body = self.formula()?;
                self.expect(&Tok::RBracket, "']'")?;
                self.expect(&Tok::LParen, "'('")?;
                let rn = self.regvar()?;
                self.expect(&Tok::Comma, "','")?;
                let rd = self.regvar()?;
                self.expect(&Tok::RParen, "')'")?;
                Ok(RegFormula::Rbit {
                    var,
                    body: body.into(),
                    rn,
                    rd,
                })
            }
            _ => Err(self.err("expected 'lfp', 'ifp', 'pfp', 'tc', 'dtc', or 'rbit'")),
        }
    }

    /// `expr REL expr` chains, or `expr in R`.
    fn comparison_or_containment(&mut self) -> Result<RegFormula, ParseError> {
        let first = self.expr()?;
        if self.peek() == Some(&Tok::Keyword("in")) {
            self.bump();
            let r = self.regvar()?;
            return Ok(RegFormula::In(vec![first], r));
        }
        let mut parts = Vec::new();
        let mut lhs = first;
        let mut any = false;
        while let Some(&Tok::Rel(rel)) = self.peek() {
            self.pos += 1;
            any = true;
            // `lhs - rhs`, built in the left side's own map; the right side
            // moves on to be the left side of the chain's next link.
            let mut expr = std::mem::replace(&mut lhs, self.expr()?);
            expr.add_scaled(&lhs, &-Rational::one());
            parts.push(RegFormula::Lin(Atom { expr, rel }));
        }
        if !any {
            return Err(self.err("expected a comparison, 'in', or region operation"));
        }
        Ok(RegFormula::and(parts))
    }

    fn expr(&mut self) -> Result<LinExpr, ParseError> {
        let mut negate = false;
        if self.peek() == Some(&Tok::Minus) {
            self.bump();
            negate = true;
        }
        let mut acc = self.term()?;
        if negate {
            acc = acc.scale(&-Rational::one());
        }
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.bump();
                    let t = self.term()?;
                    acc = acc.add(&t);
                }
                Some(Tok::Minus) => {
                    self.bump();
                    let t = self.term()?;
                    acc = acc.sub(&t);
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
                        _ => Err(self.err("expected an element variable after '*'")),
                    }
                } else {
                    Ok(LinExpr::constant(n))
                }
            }
            Some(Tok::Ident(v)) => Ok(LinExpr::var(v)),
            _ => Err(self.err("expected a number or element variable")),
        }
    }
}

/// Parse a region-logic formula from its concrete syntax.
pub fn parse_regformula(input: &str) -> Result<RegFormula, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        len: input.len(),
        depth: 0,
    };
    let f = p.formula()?;
    if p.pos != p.toks.len() {
        return Err(p.err("trailing input after formula"));
    }
    Ok(f)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::RegionExtension;
    use crate::Evaluator;
    use lcdb_logic::{parse_formula, Relation};

    fn ext1(src: &str) -> RegionExtension {
        let rel = Relation::new(vec!["x".into()], &parse_formula(src).unwrap());
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
