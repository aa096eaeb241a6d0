//! Linear expressions and atomic constraints over named real variables.

use crate::Var;
use lcdb_arith::Rational;
use lcdb_lp::{LinConstraint, Rel};
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A linear expression `Σ aᵢ·xᵢ + c` with rational coefficients over named
/// variables. Zero-coefficient terms are never stored.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    terms: BTreeMap<Var, Rational>,
    constant: Rational,
}

impl LinExpr {
    /// The constant expression `c`.
    pub fn constant(c: Rational) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The variable expression `x`.
    pub fn var(name: impl Into<Var>) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(name.into(), Rational::one());
        LinExpr {
            terms,
            constant: Rational::zero(),
        }
    }

    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// Build from explicit terms and constant, dropping zero coefficients.
    pub fn from_terms(terms: impl IntoIterator<Item = (Var, Rational)>, constant: Rational) -> Self {
        let mut map: BTreeMap<Var, Rational> = BTreeMap::new();
        for (v, c) in terms {
            if !c.is_zero() {
                *map.entry(v).or_insert_with(Rational::zero) += &c;
            }
        }
        map.retain(|_, c| !c.is_zero());
        LinExpr {
            terms: map,
            constant,
        }
    }

    /// Coefficient of a variable (zero if absent).
    pub fn coeff(&self, v: &str) -> Rational {
        self.terms.get(v).cloned().unwrap_or_else(Rational::zero)
    }

    /// The constant term.
    pub fn constant_term(&self) -> &Rational {
        &self.constant
    }

    /// Iterate over `(variable, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, &Rational)> {
        self.terms.iter()
    }

    /// The set of variables with nonzero coefficient.
    pub fn vars(&self) -> BTreeSet<Var> {
        self.terms.keys().cloned().collect()
    }

    /// Does the expression mention the variable?
    pub fn mentions(&self, v: &str) -> bool {
        self.terms.contains_key(v)
    }

    /// The variable this expression is, if it is one variable with
    /// coefficient one and no constant.
    pub fn as_var(&self) -> Option<&Var> {
        let mut terms = self.terms.iter();
        match (terms.next(), terms.next()) {
            (Some((v, c)), None) if c.is_one() && self.constant.is_zero() => Some(v),
            _ => None,
        }
    }

    /// Is this a constant expression?
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// `self += factor · other`, in place: the one accumulation every sum,
    /// difference and substitution goes through.
    pub fn add_scaled(&mut self, other: &LinExpr, factor: &Rational) {
        if factor.is_zero() {
            return;
        }
        let unit = factor.is_one();
        let times = |c: &Rational| if unit { c.clone() } else { c * factor };
        for (v, c) in &other.terms {
            self.add_term(v, times(c));
        }
        if !other.constant.is_zero() {
            self.constant += &times(&other.constant);
        }
    }

    /// `self += c · v`.
    pub(crate) fn add_term(&mut self, v: &str, c: Rational) {
        if c.is_zero() {
            return;
        }
        let Some(entry) = self.terms.get_mut(v) else {
            self.terms.insert(v.to_string(), c);
            return;
        };
        *entry += &c;
        if entry.is_zero() {
            self.terms.remove(v);
        }
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &LinExpr) -> LinExpr {
        let mut sum = self.clone();
        sum.add_scaled(other, &Rational::ONE);
        sum
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &LinExpr) -> LinExpr {
        let mut difference = self.clone();
        difference.add_scaled(other, &-Rational::ONE);
        difference
    }

    /// Scalar multiple.
    pub fn scale(&self, c: &Rational) -> LinExpr {
        let mut multiple = LinExpr::zero();
        multiple.add_scaled(self, c);
        multiple
    }

    /// Substitute a variable by an expression.
    pub fn substitute(&self, v: &str, replacement: &LinExpr) -> LinExpr {
        self.substitute_all(&[(v, replacement)])
    }

    /// Simultaneous substitution: every variable named in `subst` is replaced
    /// by its expression at once (of two entries for one name the first
    /// counts), so a replacement that mentions another substituted name — or
    /// its own — is not substituted again.
    pub fn substitute_all<E: Borrow<LinExpr>>(&self, subst: &[(&str, E)]) -> LinExpr {
        let mut out = LinExpr::constant(self.constant.clone());
        for (v, a) in &self.terms {
            match subst.iter().find(|(name, _)| name == v) {
                Some((_, replacement)) => out.add_scaled(replacement.borrow(), a),
                None => out.add_term(v, a.clone()),
            }
        }
        out
    }

    /// Evaluate at a point given by a variable assignment.
    ///
    /// # Panics
    /// Panics if a mentioned variable is unassigned.
    pub fn eval(&self, env: &BTreeMap<Var, Rational>) -> Rational {
        Rational::dot(self.at(env))
    }

    /// The pairs of the inner product `Σ c·env[v] + constant`.
    fn at<'a>(&'a self, env: &'a BTreeMap<Var, Rational>) -> impl Iterator<Item = (&'a Rational, &'a Rational)> {
        let value = |v: &Var| env.get(v).unwrap_or_else(|| panic!("unassigned variable '{}'", v));
        let terms = self.terms.iter().map(move |(v, c)| (c, value(v)));
        terms.chain(std::iter::once((&self.constant, &Rational::ONE)))
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, c) in &self.terms {
            if first {
                if c.is_one() {
                    write!(f, "{}", v)?;
                } else if *c == -Rational::one() {
                    write!(f, "-{}", v)?;
                } else {
                    write!(f, "{}*{}", c, v)?;
                }
                first = false;
            } else if c.is_negative() {
                if *c == -Rational::one() {
                    write!(f, " - {}", v)?;
                } else {
                    write!(f, " - {}*{}", -c, v)?;
                }
            } else if c.is_one() {
                write!(f, " + {}", v)?;
            } else {
                write!(f, " + {}*{}", c, v)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant.is_positive() {
            write!(f, " + {}", self.constant)?;
        } else if self.constant.is_negative() {
            write!(f, " - {}", -&self.constant)?;
        }
        Ok(())
    }
}

impl fmt::Debug for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

/// The relations of [`Atom::negate`]'s atoms, in its order: `e REL 0` fails
/// exactly where one of `e R 0` holds.
pub(crate) fn negations(rel: Rel) -> &'static [Rel] {
    match rel {
        Rel::Lt => &[Rel::Ge],
        Rel::Le => &[Rel::Gt],
        Rel::Ge => &[Rel::Lt],
        Rel::Gt => &[Rel::Le],
        Rel::Eq => &[Rel::Lt, Rel::Gt],
    }
}

/// An atomic linear constraint, normalized as `expr REL 0`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The left-hand side; the atom asserts `expr REL 0`.
    pub expr: LinExpr,
    /// The comparison relation against zero.
    pub rel: Rel,
}

impl Atom {
    /// Build the atom `lhs REL rhs` (stored as `lhs - rhs REL 0`).
    pub fn new(mut lhs: LinExpr, rel: Rel, rhs: LinExpr) -> Self {
        lhs.add_scaled(&rhs, &-Rational::ONE);
        Atom { expr: lhs, rel }
    }

    /// Negation as an (up to two-element) disjunction-free set:
    /// `¬(e < 0) ≡ e ≥ 0`, `¬(e = 0) ≡ e < 0 ∨ e > 0` (two atoms).
    pub fn negate(&self) -> Vec<Atom> {
        negations(self.rel)
            .iter()
            .map(|&rel| Atom {
                expr: self.expr.clone(),
                rel,
            })
            .collect()
    }

    /// Evaluate the atom at a point.
    pub fn eval(&self, env: &BTreeMap<Var, Rational>) -> bool {
        self.rel.admits(Rational::dot_sign(self.expr.at(env)))
    }

    /// Substitute a variable by an expression.
    pub fn substitute(&self, v: &str, replacement: &LinExpr) -> Atom {
        Atom {
            expr: self.expr.substitute(v, replacement),
            rel: self.rel,
        }
    }

    /// [`LinExpr::substitute_all`] on the atom's expression.
    pub fn substitute_all<E: Borrow<LinExpr>>(&self, subst: &[(&str, E)]) -> Atom {
        Atom {
            expr: self.expr.substitute_all(subst),
            rel: self.rel,
        }
    }

    /// If the atom is variable-free, its truth value.
    pub fn constant_truth(&self) -> Option<bool> {
        self.expr.is_constant().then(|| self.rel.admits(self.expr.constant_term().sign()))
    }

    /// Convert to an [`LinConstraint`] over an explicit variable order.
    ///
    /// Variables outside `order` must not occur.
    pub fn to_constraint(&self, order: &[Var]) -> LinConstraint {
        let coeffs: Vec<Rational> = order.iter().map(|v| self.expr.coeff(v)).collect();
        debug_assert!(
            self.expr.vars().iter().all(|v| order.contains(v)),
            "atom mentions variables outside the given order"
        );
        // expr REL 0 with expr = a·x + c  ⇔  a·x REL -c.
        LinConstraint::new(coeffs, self.rel, -self.expr.constant_term().clone())
    }

    /// Canonicalize: scale so the leading coefficient magnitude pattern is
    /// primitive (integral with positive leading coefficient); `Ge`/`Gt`
    /// become `Le`/`Lt` by negation. Equal point sets get equal
    /// representations for common cases, enabling deduplication.
    pub fn canonicalize(&self) -> Atom {
        let (expr, rel) = match self.rel {
            Rel::Ge => (self.expr.scale(&-Rational::one()), Rel::Le),
            Rel::Gt => (self.expr.scale(&-Rational::one()), Rel::Lt),
            r => (self.expr.clone(), r),
        };
        // Scale by the positive factor making all coefficients (variables and
        // constant) primitive integers: multiply by lcm(denominators), divide
        // by gcd(integerized numerators).
        let mut atom = Atom { expr, rel };
        let all: Vec<&Rational> = atom.expr.terms.values().chain([&atom.expr.constant]).collect();
        if let Some(factor) = Rational::primitive_factor(&all).filter(|f| !f.is_one()) {
            debug_assert!(factor.is_positive());
            atom.expr = atom.expr.scale(&factor);
        }
        // For equalities, fix the sign of the leading coefficient.
        if atom.rel == Rel::Eq {
            let leading_negative = atom
                .expr
                .terms()
                .next()
                .map(|(_, c)| c.is_negative())
                .unwrap_or(false);
            if leading_negative {
                atom.expr = atom.expr.scale(&-Rational::one());
            }
        }
        atom
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print as `terms REL -constant`; if every variable coefficient is
        // negative (the shape canonicalization produces for `>`-style
        // constraints), negate both sides and flip the relation so the
        // output reads `y > 2` rather than `-y < -2`.
        let mut expr = self.expr.clone();
        let mut rel = self.rel;
        if !expr.terms.is_empty() && expr.terms.values().all(|c| c.is_negative()) {
            expr = expr.scale(&-Rational::one());
            rel = rel.flip();
        }
        let terms = LinExpr {
            terms: expr.terms.clone(),
            constant: Rational::zero(),
        };
        let rhs = -expr.constant.clone();
        let op = match rel {
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Eq => "=",
            Rel::Ge => ">=",
            Rel::Gt => ">",
        };
        write!(f, "{} {} {}", terms, op, rhs)
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};

    fn env(pairs: &[(&str, i64)]) -> BTreeMap<Var, Rational> {
        pairs
            .iter()
            .map(|&(v, x)| (v.to_string(), int(x)))
            .collect()
    }

    #[test]
    fn expr_arith_and_cancellation() {
        let x = LinExpr::var("x");
        let y = LinExpr::var("y");
        let e = x.scale(&int(2)).add(&y).add(&LinExpr::constant(int(3)));
        assert_eq!(e.coeff("x"), int(2));
        assert_eq!(e.coeff("y"), int(1));
        assert_eq!(e.coeff("z"), int(0));
        let cancelled = e.sub(&x.scale(&int(2)));
        assert!(!cancelled.mentions("x"));
        assert_eq!(cancelled.coeff("y"), int(1));
    }

    #[test]
    fn expr_eval() {
        let e = LinExpr::var("x")
            .scale(&rat(1, 2))
            .add(&LinExpr::constant(int(1)));
        assert_eq!(e.eval(&env(&[("x", 4)])), int(3));
    }

    #[test]
    #[should_panic(expected = "unassigned")]
    fn expr_eval_missing_var() {
        LinExpr::var("q").eval(&BTreeMap::new());
    }

    #[test]
    fn substitute_var() {
        // (2x + y)[x := y + 1] = 3y + 2.
        let e = LinExpr::var("x").scale(&int(2)).add(&LinExpr::var("y"));
        let r = LinExpr::var("y").add(&LinExpr::constant(int(1)));
        let s = e.substitute("x", &r);
        assert_eq!(s.coeff("y"), int(3));
        assert_eq!(*s.constant_term(), int(2));
        assert!(!s.mentions("x"));
    }

    #[test]
    fn atom_eval_and_negate() {
        // x - 1 < 0.
        let a = Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(1)));
        assert!(a.eval(&env(&[("x", 0)])));
        assert!(!a.eval(&env(&[("x", 1)])));
        let neg = a.negate();
        assert_eq!(neg.len(), 1);
        assert!(neg[0].eval(&env(&[("x", 1)])));
        // Negating equality gives two strict atoms.
        let eq = Atom::new(LinExpr::var("x"), Rel::Eq, LinExpr::constant(int(1)));
        let neg = eq.negate();
        assert_eq!(neg.len(), 2);
        assert!(neg.iter().any(|n| n.eval(&env(&[("x", 0)]))));
        assert!(neg.iter().any(|n| n.eval(&env(&[("x", 2)]))));
        assert!(!neg.iter().any(|n| n.eval(&env(&[("x", 1)]))));
    }

    #[test]
    fn atom_constant_truth() {
        let t = Atom::new(LinExpr::constant(int(0)), Rel::Le, LinExpr::constant(int(1)));
        assert_eq!(t.constant_truth(), Some(true));
        let f = Atom::new(LinExpr::constant(int(2)), Rel::Lt, LinExpr::constant(int(1)));
        assert_eq!(f.constant_truth(), Some(false));
        let open = Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(1)));
        assert_eq!(open.constant_truth(), None);
    }

    #[test]
    fn atom_canonicalization_dedups() {
        // 2x < 4  and  x < 2  and  -x > -2  all canonicalize identically.
        let a = Atom::new(
            LinExpr::var("x").scale(&int(2)),
            Rel::Lt,
            LinExpr::constant(int(4)),
        );
        let b = Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(2)));
        let c = Atom::new(
            LinExpr::var("x").scale(&int(-1)),
            Rel::Gt,
            LinExpr::constant(int(-2)),
        );
        assert_eq!(a.canonicalize(), b.canonicalize());
        assert_eq!(c.canonicalize(), b.canonicalize());
        // Fractional coefficients scale to integers.
        let f = Atom::new(
            LinExpr::var("x").scale(&rat(1, 3)),
            Rel::Lt,
            LinExpr::constant(rat(2, 3)),
        );
        assert_eq!(f.canonicalize(), b.canonicalize());
    }

    #[test]
    fn atom_to_constraint() {
        // 2x + y - 3 <= 0  over order [x, y]  =>  [2, 1]·v <= 3.
        let a = Atom::new(
            LinExpr::var("x")
                .scale(&int(2))
                .add(&LinExpr::var("y")),
            Rel::Le,
            LinExpr::constant(int(3)),
        );
        let c = a.to_constraint(&["x".into(), "y".into()]);
        assert_eq!(c.coeffs, vec![int(2), int(1)]);
        assert_eq!(c.rel, Rel::Le);
        assert_eq!(c.rhs, int(3));
    }

    #[test]
    fn display_readable() {
        let a = Atom::new(
            LinExpr::var("x")
                .scale(&int(2))
                .add(&LinExpr::var("y").scale(&int(-1))),
            Rel::Le,
            LinExpr::constant(int(3)),
        );
        assert_eq!(a.to_string(), "2*x - y <= 3");
        assert_eq!(LinExpr::zero().to_string(), "0");
    }
}
