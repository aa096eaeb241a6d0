//! Quantifier elimination for `(ℝ, <, +)` by Fourier–Motzkin elimination.
//!
//! This is what makes FO+LIN *closed* (§2 of the paper): the result of any
//! first-order query on a linear constraint database is again representable
//! by a quantifier-free formula. Equalities eliminate by substitution;
//! inequalities by pairing lower with upper bounds, with strictness
//! propagated (`l < u` when either bound is strict, `l ≤ u` otherwise).

#[cfg(test)]
use crate::dnf::to_dnf;
use crate::dnf::{Cells, Conjunct, Dnf, Strategy};
use crate::{Atom, Database, Formula, LinExpr};
use lcdb_budget::work::{self, Work};
use lcdb_budget::BudgetError;
use lcdb_lp::Rel;

/// Eliminate all quantifiers from a predicate-free formula, returning an
/// equivalent quantifier-free formula (in simplified DNF shape).
///
/// # Panics
/// Panics if the formula mentions relation symbols.
pub fn eliminate_quantifiers(f: &Formula) -> Formula {
    assert!(
        !f.has_predicates(),
        "expand predicates against a database before quantifier elimination"
    );
    let qf = eliminate_rec(f);
    debug_assert!(qf.is_quantifier_free());
    qf
}

fn eliminate_rec(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => f.clone(),
        Formula::And(fs) => Formula::and(fs.iter().map(eliminate_rec).collect()),
        Formula::Or(fs) => Formula::or(fs.iter().map(eliminate_rec).collect()),
        Formula::Not(inner) => Formula::not(eliminate_rec(inner)),
        Formula::Exists(..) | Formula::Forall(..) => {
            // Peel the whole block of like quantifiers, outermost first.
            let exists = matches!(f, Formula::Exists(..));
            let mut vars = Vec::new();
            let mut body = f;
            while let Formula::Exists(v, inner) | Formula::Forall(v, inner) = body {
                if matches!(body, Formula::Exists(..)) != exists {
                    break;
                }
                vars.push(v.as_str());
                body = inner;
            }
            vars.reverse();
            let matrix = eliminate_rec(body);
            let db = Database::new();
            work::deferred(|| eliminate(&matrix, &db, &vars, exists, Strategy::Pruned))
        }
        Formula::Pred(..) => unreachable!("checked by caller"),
    }
}

/// Eliminate a block of like quantifiers over one list of cells: `∃ vars. f`
/// directly, `∀ vars. f` as `¬∃ vars. ¬f`. `vars` is innermost first. The
/// matrix, whose relation symbols are `db`'s, is converted once; each
/// variable is then one Fourier–Motzkin pass over cells that stay known
/// satisfiable, so only the conversion runs LPs.
fn eliminate(
    f: &Formula,
    db: &Database,
    vars: &[&str],
    exists: bool,
    strategy: Strategy,
) -> Result<Formula, BudgetError> {
    let mut cells = Cells::convert(f, db, !exists, strategy)?;
    for var in vars {
        work::charge(Work::QeProjections, 1)?;
        cells.project(var, |mentioning| fm_combine(mentioning, var))?;
    }
    let out = cells.into_dnf().to_formula();
    Ok(if exists { out } else { Formula::not(out) })
}

/// Eliminate a block of element quantifiers of one polarity from a
/// quantifier-free formula (`vars` innermost first), choosing the DNF
/// conversion adaptively ([`crate::dnf::to_dnf_auto`]). Equivalent to one
/// [`eliminate_one_cells`] call per variable, without the round trips
/// through [`Formula`] between them. Every feasibility decision and every
/// variable is charged to the thread's armed budget
/// ([`lcdb_budget::work::charge`]), whose verdict abandons the elimination.
///
/// A relation symbol of `f` is `db`'s: the conversion reads its stored
/// atoms as rows, so the answer is that of `f` with every symbol replaced
/// by [`crate::Relation::apply`], and no expanded matrix is built.
///
/// # Panics
/// Panics if `f` applies a relation `db` lacks, or with the wrong arity.
pub fn try_eliminate_block(
    f: &Formula,
    db: &Database,
    vars: &[&str],
    exists: bool,
) -> Result<Formula, BudgetError> {
    eliminate(f, db, vars, exists, Strategy::Auto)
}

/// [`try_eliminate_block`] of a predicate-free formula, its budget's
/// verdict left for the caller's next charge.
pub fn eliminate_block(f: &Formula, vars: &[&str], exists: bool) -> Formula {
    work::deferred(|| try_eliminate_block(f, &Database::new(), vars, exists))
}

/// Eliminate a single element quantifier from a quantifier-free formula:
/// the one-variable case of [`eliminate_block`]. Robust for deeply
/// redundant formulas such as region-quantifier expansions, where the
/// number of sign cells — not the boolean structure — bounds the work.
pub fn eliminate_one_cells(f: &Formula, var: &str, exists: bool) -> Formula {
    eliminate_block(f, &[var], exists)
}

/// Fourier–Motzkin elimination of a variable from a conjunction of atoms.
///
/// Returns a conjunction equivalent (over the reals) to
/// `∃ var. ⋀ atoms`.
pub fn fm_eliminate_conjunct(conjunct: &Conjunct, var: &str) -> Conjunct {
    let (with_var, rest): (Vec<&Atom>, Vec<&Atom>) =
        conjunct.iter().partition(|a| a.expr.mentions(var));
    let mut out: Conjunct = rest.into_iter().cloned().collect();
    out.extend(fm_combine(&with_var, var));
    out
}

/// Fourier–Motzkin on atoms that all mention `var`: a conjunction
/// equivalent to `∃ var. ⋀ with_var`.
fn fm_combine(with_var: &[&Atom], var: &str) -> Vec<Atom> {
    // Equality substitution: a·x + r = 0  ⇒  x = -r/a.
    if let Some(pos) = with_var.iter().position(|a| a.rel == Rel::Eq) {
        let eq = with_var[pos];
        let a = eq.expr.coeff(var);
        let r = eq.expr.substitute(var, &LinExpr::zero());
        let replacement = r.scale(&(-a.recip()));
        return with_var
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != pos)
            .map(|(_, other)| other.substitute(var, &replacement))
            .collect();
    }

    // Collect bounds: expr = a·x + r REL 0 with a ≠ 0.
    // a > 0:  x REL -r/a  (same direction);  a < 0: direction flips.
    let mut lowers: Vec<(LinExpr, bool)> = Vec::new(); // (bound, strict)
    let mut uppers: Vec<(LinExpr, bool)> = Vec::new();
    for atom in with_var {
        let a = atom.expr.coeff(var);
        let r = atom.expr.substitute(var, &LinExpr::zero());
        let bound = r.scale(&(-a.recip()));
        let (rel, strict) = match atom.rel {
            Rel::Lt => (Rel::Lt, true),
            Rel::Le => (Rel::Le, false),
            Rel::Gt => (Rel::Gt, true),
            Rel::Ge => (Rel::Ge, false),
            Rel::Eq => unreachable!("equalities handled above"),
        };
        let is_upper = match (a.is_positive(), rel) {
            (true, Rel::Lt | Rel::Le) => true,
            (true, Rel::Gt | Rel::Ge) => false,
            (false, Rel::Lt | Rel::Le) => false,
            (false, Rel::Gt | Rel::Ge) => true,
            _ => unreachable!(),
        };
        if is_upper {
            uppers.push((bound, strict));
        } else {
            lowers.push((bound, strict));
        }
    }

    // One-sided bounds are always realizable over ℝ: nothing is left.
    let mut out = Vec::with_capacity(lowers.len() * uppers.len());
    for (l, sl) in &lowers {
        for (u, su) in &uppers {
            let rel = if *sl || *su { Rel::Lt } else { Rel::Le };
            out.push(Atom {
                expr: l.sub(u),
                rel,
            });
        }
    }
    out
}

/// Project a DNF onto a subset of variables by eliminating all others.
pub fn project_dnf(dnf: &Dnf, keep: &[String]) -> Dnf {
    let drop: Vec<String> = dnf
        .vars()
        .into_iter()
        .filter(|v| !keep.contains(v))
        .collect();
    if drop.is_empty() {
        return dnf.clone();
    }
    let mut cells = Cells::from_dnf(dnf);
    work::deferred(|| drop.iter().try_for_each(|var| cells.project(var, |atoms| fm_combine(atoms, var))));
    cells.into_dnf()
}

/// Decide truth of a predicate-free *sentence* (no free variables).
///
/// # Panics
/// Panics if the formula has free variables or relation symbols.
pub fn decide_sentence(f: &Formula) -> bool {
    assert!(
        f.free_vars().is_empty(),
        "decide_sentence requires a sentence"
    );
    let qf = eliminate_quantifiers(f);
    qf.eval(&std::collections::BTreeMap::new())
}

/// Measure the maximum coefficient bit-size appearing in a DNF — used by the
/// coefficient-growth experiment (E18).
pub fn max_coefficient_bits(dnf: &Dnf) -> u64 {
    let mut max = 0;
    for c in &dnf.disjuncts {
        for a in c {
            for (_, coeff) in a.expr.terms() {
                max = max.max(coeff.bit_size());
            }
            max = max.max(a.expr.constant_term().bit_size());
        }
    }
    max
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat, Rational};
    use std::collections::BTreeMap;

    fn atom(var: &str, rel: Rel, c: i64) -> Formula {
        Formula::Atom(Atom::new(
            LinExpr::var(var),
            rel,
            LinExpr::constant(int(c)),
        ))
    }

    fn env(pairs: &[(&str, Rational)]) -> BTreeMap<String, Rational> {
        pairs
            .iter()
            .map(|(v, val)| (v.to_string(), val.clone()))
            .collect()
    }

    #[test]
    fn exists_between() {
        // exists x. x > 0 and x < y  ≡  y > 0.
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                atom("x", Rel::Gt, 0),
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y"))),
            ])),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.is_quantifier_free());
        assert!(qf.eval(&env(&[("y", int(1))])));
        assert!(!qf.eval(&env(&[("y", int(0))])));
        assert!(!qf.eval(&env(&[("y", int(-1))])));
    }

    #[test]
    fn strictness_propagation() {
        // exists x. x >= y and x <= z  ≡  y <= z (non-strict).
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Ge, LinExpr::var("y"))),
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Le, LinExpr::var("z"))),
            ])),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.eval(&env(&[("y", int(1)), ("z", int(1))])));
        // exists x. x > y and x < z  ≡  y < z (strict).
        let g = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Gt, LinExpr::var("y"))),
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("z"))),
            ])),
        );
        let qg = eliminate_quantifiers(&g);
        assert!(!qg.eval(&env(&[("y", int(1)), ("z", int(1))])));
        assert!(qg.eval(&env(&[("y", int(1)), ("z", int(2))])));
    }

    #[test]
    fn equality_substitution() {
        // exists x. 2x = y and x > 1  ≡  y > 2.
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                Formula::Atom(Atom::new(
                    LinExpr::var("x").scale(&int(2)),
                    Rel::Eq,
                    LinExpr::var("y"),
                )),
                atom("x", Rel::Gt, 1),
            ])),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.eval(&env(&[("y", int(3))])));
        assert!(!qf.eval(&env(&[("y", int(2))])));
        assert!(qf.eval(&env(&[("y", rat(201, 100))])));
    }

    #[test]
    fn forall_via_double_negation() {
        // forall x. x < y or x > z: true iff z < y (covers the line).
        let f = Formula::Forall(
            "x".into(),
            Box::new(Formula::or(vec![
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y"))),
                Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Gt, LinExpr::var("z"))),
            ])),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.eval(&env(&[("y", int(1)), ("z", int(0))])));
        assert!(!qf.eval(&env(&[("y", int(0)), ("z", int(0))])));
        assert!(!qf.eval(&env(&[("y", int(0)), ("z", int(1))])));
    }

    #[test]
    fn one_sided_bounds_vanish() {
        // exists x. x > y  — always true.
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::Atom(Atom::new(
                LinExpr::var("x"),
                Rel::Gt,
                LinExpr::var("y"),
            ))),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.eval(&env(&[("y", int(1000))])));
    }

    #[test]
    fn nested_quantifiers() {
        // exists x. forall y. (y <= x or y >= z) — true iff z <= x for some x: always true.
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::Forall(
                "y".into(),
                Box::new(Formula::or(vec![
                    Formula::Atom(Atom::new(LinExpr::var("y"), Rel::Le, LinExpr::var("x"))),
                    Formula::Atom(Atom::new(LinExpr::var("y"), Rel::Ge, LinExpr::var("z"))),
                ])),
            )),
        );
        let qf = eliminate_quantifiers(&f);
        assert!(qf.eval(&env(&[("z", int(5))])));
    }

    #[test]
    fn decide_sentences() {
        // exists x. x > 0 and x < 1: true.
        let t = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                atom("x", Rel::Gt, 0),
                atom("x", Rel::Lt, 1),
            ])),
        );
        assert!(decide_sentence(&t));
        // exists x. x > 0 and x < 0: false.
        let f = Formula::Exists(
            "x".into(),
            Box::new(Formula::and(vec![
                atom("x", Rel::Gt, 0),
                atom("x", Rel::Lt, 0),
            ])),
        );
        assert!(!decide_sentence(&f));
        // forall x. exists y. y > x: true.
        let g = Formula::Forall(
            "x".into(),
            Box::new(Formula::Exists(
                "y".into(),
                Box::new(Formula::Atom(Atom::new(
                    LinExpr::var("y"),
                    Rel::Gt,
                    LinExpr::var("x"),
                ))),
            )),
        );
        assert!(decide_sentence(&g));
    }

    #[test]
    fn projection() {
        // Triangle 0 < x, 0 < y, x + y < 1 projected to x gives 0 < x < 1.
        let tri = to_dnf(&Formula::and(vec![
            atom("x", Rel::Gt, 0),
            atom("y", Rel::Gt, 0),
            Formula::Atom(Atom::new(
                LinExpr::var("x").add(&LinExpr::var("y")),
                Rel::Lt,
                LinExpr::constant(int(1)),
            )),
        ]));
        let proj = project_dnf(&tri, &["x".to_string()]);
        let check = |v: Rational| proj.eval(&env(&[("x", v)]));
        assert!(check(rat(1, 2)));
        assert!(check(rat(99, 100)));
        assert!(!check(int(0)));
        assert!(!check(int(1)));
        assert!(!check(int(2)));
    }

    /// Exact reference decision for `∃ var. f` at `env`. The atoms of `f`
    /// partition the `var`-line into finitely many cells on which the truth
    /// value is constant, so testing every boundary, every midpoint between
    /// consecutive boundaries, and one point beyond each end is complete.
    fn brute_force_exists(f: &Formula, var: &str, env: &BTreeMap<String, Rational>) -> bool {
        let dnf = to_dnf(f);
        let mut boundaries: Vec<Rational> = Vec::new();
        for conj in &dnf.disjuncts {
            for a in conj {
                let coeff = a.expr.coeff(var);
                if !coeff.is_zero() {
                    let rest = a.expr.substitute(var, &LinExpr::zero());
                    boundaries.push(-rest.eval(env) * coeff.recip());
                }
            }
        }
        boundaries.sort();
        boundaries.dedup();
        let mut candidates = vec![Rational::zero()];
        if let (Some(first), Some(last)) = (boundaries.first(), boundaries.last()) {
            candidates.push(first - int(1));
            candidates.push(last + int(1));
        }
        for w in boundaries.windows(2) {
            candidates.push(Rational::midpoint(&w[0], &w[1]));
        }
        candidates.extend(boundaries);
        candidates.into_iter().any(|x| {
            let mut e = env.clone();
            e.insert(var.to_string(), x);
            f.eval(&e)
        })
    }

    /// Sample points for the free variable of the edge-case formulas below.
    fn sample_points() -> Vec<Rational> {
        vec![
            int(-3),
            int(-1),
            rat(-1, 2),
            int(0),
            rat(1, 3),
            rat(1, 2),
            int(1),
            rat(3, 2),
            int(2),
            int(5),
        ]
    }

    fn assert_matches_brute_force(f: &Formula, var: &str, free: &str) {
        let qf = eliminate_quantifiers(&Formula::Exists(var.into(), Box::new(f.clone())));
        assert!(qf.is_quantifier_free());
        for p in sample_points() {
            let e = env(&[(free, p.clone())]);
            assert_eq!(
                qf.eval(&e),
                brute_force_exists(f, var, &e),
                "disagreement at {free} = {p}"
            );
        }
    }

    #[test]
    fn unbounded_variable_matches_brute_force() {
        // x appears in no atom at all: ∃x is a no-op on y < 1.
        let body = Formula::Atom(Atom::new(
            LinExpr::var("y"),
            Rel::Lt,
            LinExpr::constant(int(1)),
        ));
        assert_matches_brute_force(&body, "x", "y");
        // x appears but with one-sided bounds only (always realizable on ℝ).
        let one_sided = Formula::and(vec![
            Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Gt, LinExpr::var("y"))),
            atom("x", Rel::Ge, 2),
        ]);
        assert_matches_brute_force(&one_sided, "x", "y");
    }

    #[test]
    fn contradictory_bounds_match_brute_force() {
        // ∃x. y < x ∧ x < y — empty for every y.
        let twisted = Formula::and(vec![
            Formula::Atom(Atom::new(LinExpr::var("y"), Rel::Lt, LinExpr::var("x"))),
            Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y"))),
        ]);
        assert_matches_brute_force(&twisted, "x", "y");
        let qf = eliminate_quantifiers(&Formula::Exists("x".into(), Box::new(twisted)));
        assert!(!qf.eval(&env(&[("y", int(0))])));
        // ∃x. x ≥ 1 ∧ x ≤ 0 with an unrelated conjunct on y: the
        // contradiction must sink the whole disjunct, not just drop x.
        let contradiction = Formula::and(vec![
            atom("x", Rel::Ge, 1),
            atom("x", Rel::Le, 0),
            atom("y", Rel::Gt, 0),
        ]);
        assert_matches_brute_force(&contradiction, "x", "y");
        // Touching bounds x ≥ y ∧ x ≤ y stay satisfiable (x = y).
        let touching = Formula::and(vec![
            Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Ge, LinExpr::var("y"))),
            Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Le, LinExpr::var("y"))),
        ]);
        assert_matches_brute_force(&touching, "x", "y");
    }

    #[test]
    fn coefficient_zero_atoms_match_brute_force() {
        // `x - x + y < 1` normalizes to a zero coefficient on x: the atom
        // must be treated as x-free (moved out of the elimination), never
        // divided by its zero coefficient.
        let zero_x = LinExpr::var("x").sub(&LinExpr::var("x")).add(&LinExpr::var("y"));
        assert!(!zero_x.mentions("x"));
        let body = Formula::and(vec![
            Formula::Atom(Atom::new(zero_x, Rel::Lt, LinExpr::constant(int(1)))),
            atom("x", Rel::Gt, 0),
            atom("x", Rel::Lt, 2),
        ]);
        assert_matches_brute_force(&body, "x", "y");
        // Same via an explicitly zero-scaled term and from_terms.
        let scaled = LinExpr::from_terms(
            [("x".to_string(), int(0)), ("y".to_string(), int(1))],
            int(0),
        );
        assert!(!scaled.mentions("x"));
        let body2 = Formula::and(vec![
            Formula::Atom(Atom::new(scaled, Rel::Ge, LinExpr::constant(int(0)))),
            Formula::Atom(Atom::new(
                LinExpr::var("x").scale(&int(2)),
                Rel::Eq,
                LinExpr::var("y"),
            )),
            atom("x", Rel::Lt, 1),
        ]);
        assert_matches_brute_force(&body2, "x", "y");
    }

    /// A relation symbol applied to a repeated variable or a constant is
    /// no renaming of its rows: it is expanded through `apply`, once, and
    /// the elimination answers as over that expansion.
    #[test]
    fn applications_that_rename_nothing_eliminate_as_their_expansion() {
        let p = crate::Relation::new(
            vec!["a".into(), "b".into()],
            crate::parse_formula("(a < b + 1 and b < 3) or a = 2*b").unwrap(),
        );
        let mut db = Database::new();
        db.insert("P", p.clone());
        let (x, y) = (LinExpr::var("x"), LinExpr::var("y"));
        let bound = Formula::Atom(Atom::new(y.clone(), Rel::Gt, x.clone()));
        for args in [vec![y.clone(), y.clone()], vec![y.clone(), LinExpr::constant(int(3))]] {
            let with = |symbol: Formula| Formula::and(vec![symbol, bound.clone()]);
            let before = lcdb_budget::work::snapshot();
            let got = try_eliminate_block(&with(Formula::Pred("P".into(), args.clone())), &db, &["y"], true);
            let spent = before.since();
            let want = eliminate_block(&with(p.apply(&args)), &["y"], true);
            assert_eq!(got, Ok(want), "{args:?}");
            assert_eq!(spent[lcdb_budget::work::Work::QePredApplied], 1, "{args:?}");
        }
    }

    /// `∃`/`∀` of `var` decided by the brute-force reference.
    fn brute_force(f: &Formula, var: &str, exists: bool, env: &BTreeMap<String, Rational>) -> bool {
        if exists {
            brute_force_exists(f, var, env)
        } else {
            !brute_force_exists(&Formula::not(f.clone()), var, env)
        }
    }

    /// Block elimination against the chain of one-variable eliminations
    /// (syntactically equal) and, at sample points, against brute force.
    mod block {
        use super::super::{eliminate_block, eliminate_one_cells};
        use super::{brute_force, env, sample_points};
        use crate::arb::arb_formula;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn block_equals_chain_and_brute_force(f in arb_formula(16), polarity in 0..2usize) {
                let exists = polarity == 0;
                let block = eliminate_block(&f, &["z", "y"], exists);
                let inner = eliminate_one_cells(&f, "z", exists);
                prop_assert_eq!(&block, &eliminate_one_cells(&inner, "y", exists));
                // `inner` still mentions x and y: check its own quantifier
                // against brute force on a grid of both.
                for px in sample_points() {
                    for py in sample_points().into_iter().step_by(3) {
                        let e = env(&[("x", px.clone()), ("y", py)]);
                        prop_assert_eq!(inner.eval(&e), brute_force(&f, "z", exists, &e));
                    }
                    let e = env(&[("x", px)]);
                    prop_assert_eq!(block.eval(&e), brute_force(&inner, "y", exists, &e));
                }
            }
        }
    }
}
