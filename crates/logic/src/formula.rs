//! First-order formulas over `(ℝ, <, +)` with relation symbols.

use crate::{Atom, Database, LinExpr, Var};
use lcdb_arith::Rational;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A first-order FO+LIN formula.
///
/// Relation symbols (`Pred`) refer to database relations; they are expanded
/// into their quantifier-free definitions before evaluation.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// The true formula.
    True,
    /// The false formula.
    False,
    /// An atomic linear constraint.
    Atom(Atom),
    /// Application of a relation symbol to linear terms.
    Pred(String, Vec<LinExpr>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Existential quantification over a real variable.
    Exists(Var, Box<Formula>),
    /// Universal quantification over a real variable.
    Forall(Var, Box<Formula>),
}

impl Formula {
    /// Conjunction convenience constructor (flattens and short-circuits).
    pub fn and(parts: Vec<Formula>) -> Formula {
        Formula::join(parts, false)
    }

    /// Disjunction convenience constructor (flattens and short-circuits).
    pub fn or(parts: Vec<Formula>) -> Formula {
        Formula::join(parts, true)
    }

    /// `parts` joined by `or` (`disjoin`) or `and`: a part that decides the
    /// connective is the result, a neutral part drops out, and a part that
    /// is the same connective is flattened. The vector is kept unless a part
    /// is flattened.
    fn join(mut parts: Vec<Formula>, disjoin: bool) -> Formula {
        let (neutral, decisive) = match disjoin {
            true => (Formula::False, Formula::True),
            false => (Formula::True, Formula::False),
        };
        if parts.contains(&decisive) {
            return decisive;
        }
        parts.retain(|p| *p != neutral);
        let same =
            |p: &Formula| matches!((p, disjoin), (Formula::Or(_), true) | (Formula::And(_), false));
        if parts.iter().any(same) {
            let mut flat = Vec::with_capacity(parts.len());
            for p in parts {
                match p {
                    Formula::And(inner) | Formula::Or(inner) if same(&p) => flat.extend(inner),
                    p => flat.push(p),
                }
            }
            parts = flat;
        }
        match parts.len() {
            0 => neutral,
            1 => parts.swap_remove(0),
            _ if disjoin => Formula::Or(parts),
            _ => Formula::And(parts),
        }
    }

    /// Negation convenience constructor.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Formula {
        match f {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        }
    }

    /// Implication `self → other` as `¬self ∨ other`.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::or(vec![Formula::not(self), other])
    }

    /// Free (element) variables of the formula.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        match self {
            Formula::True | Formula::False => BTreeSet::new(),
            Formula::Atom(a) => a.expr.vars(),
            Formula::Pred(_, args) => {
                let mut s = BTreeSet::new();
                for a in args {
                    s.extend(a.vars());
                }
                s
            }
            Formula::And(fs) | Formula::Or(fs) => {
                let mut s = BTreeSet::new();
                for f in fs {
                    s.extend(f.free_vars());
                }
                s
            }
            Formula::Not(f) => f.free_vars(),
            Formula::Exists(v, f) | Formula::Forall(v, f) => {
                let mut s = f.free_vars();
                s.remove(v);
                s
            }
        }
    }

    /// Is the formula quantifier-free?
    pub fn is_quantifier_free(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) | Formula::Pred(..) => true,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(|f| f.is_quantifier_free()),
            Formula::Not(f) => f.is_quantifier_free(),
            Formula::Exists(..) | Formula::Forall(..) => false,
        }
    }

    /// Does the formula mention any relation symbol?
    pub fn has_predicates(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => false,
            Formula::Pred(..) => true,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().any(|f| f.has_predicates()),
            Formula::Not(f) => f.has_predicates(),
            Formula::Exists(_, f) | Formula::Forall(_, f) => f.has_predicates(),
        }
    }

    /// Replace every relation symbol by its database definition.
    ///
    /// # Panics
    /// Panics if a relation symbol is missing from the database or applied
    /// with the wrong arity.
    pub fn expand_predicates(&self, db: &Database) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => self.clone(),
            Formula::Pred(name, args) => {
                let rel = db
                    .relation(name)
                    .unwrap_or_else(|| panic!("unknown relation symbol '{}'", name));
                rel.apply(args)
            }
            Formula::And(fs) => {
                Formula::and(fs.iter().map(|f| f.expand_predicates(db)).collect())
            }
            Formula::Or(fs) => Formula::or(fs.iter().map(|f| f.expand_predicates(db)).collect()),
            Formula::Not(f) => Formula::not(f.expand_predicates(db)),
            Formula::Exists(v, f) => {
                Formula::Exists(v.clone(), Box::new(f.expand_predicates(db)))
            }
            Formula::Forall(v, f) => {
                Formula::Forall(v.clone(), Box::new(f.expand_predicates(db)))
            }
        }
    }

    /// Substitute a free variable by a linear expression (capture-avoiding is
    /// not needed because replacement expressions use fresh or free names; a
    /// bound occurrence of the variable shadows the substitution).
    pub fn substitute(&self, v: &str, replacement: &LinExpr) -> Formula {
        self.substitute_all(&[(v, replacement)])
    }

    /// Simultaneous substitution of free variables ([`LinExpr::substitute_all`]
    /// on every term); like [`Formula::substitute`], a binder shadows its own
    /// variable and the shape of the formula is kept as it is.
    pub fn substitute_all<E: Borrow<LinExpr>>(&self, subst: &[(&str, E)]) -> Formula {
        let each = |fs: &[Formula]| fs.iter().map(|f| f.substitute_all(subst)).collect();
        match self {
            Formula::True | Formula::False => self.clone(),
            Formula::Atom(a) => Formula::Atom(a.substitute_all(subst)),
            Formula::Pred(name, args) => Formula::Pred(
                name.clone(),
                args.iter().map(|a| a.substitute_all(subst)).collect(),
            ),
            Formula::And(fs) => Formula::And(each(fs)),
            Formula::Or(fs) => Formula::Or(each(fs)),
            Formula::Not(f) => Formula::Not(Box::new(f.substitute_all(subst))),
            Formula::Exists(bv, f) | Formula::Forall(bv, f) => {
                let free: Vec<(&str, &LinExpr)> = subst
                    .iter()
                    .filter(|(v, _)| v != bv)
                    .map(|(v, e)| (*v, e.borrow()))
                    .collect();
                let body = Box::new(f.substitute_all(&free));
                match self {
                    Formula::Exists(..) => Formula::Exists(bv.clone(), body),
                    _ => Formula::Forall(bv.clone(), body),
                }
            }
        }
    }

    /// Evaluate a predicate-free formula at a point. Quantifiers are decided
    /// by quantifier elimination, so this is exact (no sampling).
    ///
    /// # Panics
    /// Panics if the formula still contains relation symbols or mentions
    /// unassigned free variables.
    pub fn eval(&self, env: &BTreeMap<Var, Rational>) -> bool {
        assert!(
            !self.has_predicates(),
            "expand predicates against a database before evaluating"
        );
        match self {
            Formula::True => true,
            Formula::False => false,
            Formula::Atom(a) => a.eval(env),
            Formula::And(fs) => fs.iter().all(|f| f.eval(env)),
            Formula::Or(fs) => fs.iter().any(|f| f.eval(env)),
            Formula::Not(f) => !f.eval(env),
            Formula::Exists(..) | Formula::Forall(..) => {
                // Substitute the environment, then eliminate quantifiers.
                let mut grounded = self.clone();
                for (v, val) in env {
                    grounded = grounded.substitute(v, &LinExpr::constant(val.clone()));
                }
                let qf = crate::qe::eliminate_quantifiers(&grounded);
                qf.eval(&BTreeMap::new())
            }
            Formula::Pred(..) => unreachable!("has_predicates checked above"),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{}", a),
            Formula::Pred(name, args) => {
                write!(f, "{}(", name)?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", a)?;
                }
                write!(f, ")")
            }
            Formula::And(fs) => write_joined(f, fs, " and "),
            Formula::Or(fs) => write_joined(f, fs, " or "),
            Formula::Not(inner) => write!(f, "not {}", inner),
            Formula::Exists(v, inner) => write!(f, "exists {}. {}", v, inner),
            Formula::Forall(v, inner) => write!(f, "forall {}. {}", v, inner),
        }
    }
}

/// `(a SEP b SEP …)`. A binder's body reaches as far right as the text
/// goes, so a part that ends in one (`exists …`, `forall …`, or `not` of
/// either) is parenthesized unless it is the last.
fn write_joined(f: &mut fmt::Formatter<'_>, parts: &[Formula], sep: &str) -> fmt::Result {
    fn open_ended(part: &Formula) -> bool {
        match part {
            Formula::Exists(..) | Formula::Forall(..) => true,
            Formula::Not(inner) => open_ended(inner),
            _ => false,
        }
    }
    write!(f, "(")?;
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            write!(f, "{}", sep)?;
        }
        if i + 1 < parts.len() && open_ended(part) {
            write!(f, "({})", part)?;
        } else {
            write!(f, "{}", part)?;
        }
    }
    write!(f, ")")
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::Rel;
    use lcdb_arith::int;

    fn x_lt(c: i64) -> Formula {
        Formula::Atom(Atom::new(
            LinExpr::var("x"),
            Rel::Lt,
            LinExpr::constant(int(c)),
        ))
    }

    fn env(pairs: &[(&str, i64)]) -> BTreeMap<Var, Rational> {
        pairs
            .iter()
            .map(|&(v, val)| (v.to_string(), int(val)))
            .collect()
    }

    #[test]
    fn constructors_simplify() {
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![Formula::False, x_lt(1)]), Formula::False);
        assert_eq!(Formula::or(vec![Formula::True, x_lt(1)]), Formula::True);
        assert_eq!(Formula::and(vec![Formula::True, x_lt(1)]), x_lt(1));
        assert_eq!(Formula::not(Formula::not(x_lt(1))), x_lt(1));
    }

    #[test]
    fn free_vars_respect_binding() {
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![x_lt(1), {
                Formula::Atom(Atom::new(
                    LinExpr::var("y"),
                    Rel::Gt,
                    LinExpr::constant(int(0)),
                ))
            }])),
        );
        let fv = f.free_vars();
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn eval_boolean_structure() {
        let f = Formula::and(vec![x_lt(5), Formula::not(x_lt(0))]);
        assert!(f.eval(&env(&[("x", 3)])));
        assert!(!f.eval(&env(&[("x", -1)])));
        assert!(!f.eval(&env(&[("x", 7)])));
    }

    #[test]
    fn eval_quantifier_via_qe() {
        // exists y. y > x and y < x + 1  — always true over the reals.
        let f = Formula::Exists(
            "y".into(),
            Box::new(Formula::and(vec![
                Formula::Atom(Atom::new(LinExpr::var("y"), Rel::Gt, LinExpr::var("x"))),
                Formula::Atom(Atom::new(
                    LinExpr::var("y"),
                    Rel::Lt,
                    LinExpr::var("x").add(&LinExpr::constant(int(1))),
                )),
            ])),
        );
        assert!(f.eval(&env(&[("x", 41)])));
        // forall y. y > x  — always false.
        let g = Formula::Forall(
            "y".into(),
            Box::new(Formula::Atom(Atom::new(
                LinExpr::var("y"),
                Rel::Gt,
                LinExpr::var("x"),
            ))),
        );
        assert!(!g.eval(&env(&[("x", 0)])));
    }

    #[test]
    fn substitution_shadows_bound() {
        let inner = x_lt(1);
        let f = Formula::Exists("x".into(), Box::new(inner.clone()));
        let sub = f.substitute("x", &LinExpr::constant(int(5)));
        assert_eq!(sub, f, "bound variable must shadow substitution");
        let open_sub = inner.substitute("x", &LinExpr::constant(int(5)));
        assert!(!open_sub.eval(&BTreeMap::new())); // 5 < 1
    }

    #[test]
    fn display_roundtrippable_shape() {
        let f = Formula::Exists("x".into(), Box::new(Formula::and(vec![x_lt(1)])));
        assert_eq!(f.to_string(), "exists x. x < 1");
    }
}
