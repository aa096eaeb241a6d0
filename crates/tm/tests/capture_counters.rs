//! What a capture sentence (Theorem 6.4) costs, counted, and the mechanism
//! the counts replaced kept as the oracle.
//!
//! The order formulas of §6 quantify over points only, so their element
//! quantifiers are substituted, not eliminated: `qe_calls` is zero on every
//! capture sentence, and quantifier elimination — run here on the regions'
//! own formulas — is the reference the substituted values are checked
//! against. The guards `first(K1)` and `succ(K1, K2)` pin the two tag
//! variables before a stage is joined, so region expansions and lookups sit
//! below what the unnarrowed joins cost, while the tuple space Definition
//! 5.1 sweeps — and with it stages and tuple tests — is what it was.

use lcdb_core::{Decomposition, Evaluator, RegFormula, RegionExtension};
use lcdb_logic::{parse_formula, qe, Atom, Formula, LinExpr, Rel, Relation};
use lcdb_tm::capture::{capture_agreement, first, last, lex_less, succ};
use lcdb_tm::Tm;
use std::collections::BTreeMap;

/// The capture databases of E10 and of the benchmark's `fixpoint_batch`.
const DATABASES: [&str; 3] = [
    "(0 <= x and x < 1) or x = 3 or (5 < x and x < 6) or x = 8 or x = 10",
    "(0 <= x and x <= 1) or x = 2 or (4 < x and x < 6) or x = 7 or x = 9",
    "(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5) or x = 7",
];

/// Per database, for any-one, all-ones and parity: `(fix_iterations,
/// fix_tuple_tests, region_expansions, plan_cache_lookups)` as the parent
/// of the narrowing (commit 7ddae34) counted them, every binder ranging
/// over its whole dimension class.
const UNNARROWED: [[(usize, usize, usize, usize); 3]; 3] = [
    [(4, 9_558, 1_122, 6_116), (5, 11_927, 1_315, 6_244), (8, 18_984, 2_608, 7_336)],
    [(4, 9_558, 1_122, 6_116), (7, 16_641, 1_701, 6_500), (8, 18_984, 2_608, 7_336)],
    [(8, 18_984, 1_894, 6_628), (4, 9_558, 1_122, 6_116), (8, 18_984, 2_608, 7_336)],
];

fn relation(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).expect("formula parses"))
}

#[test]
fn capture_sentences_eliminate_nothing_and_join_narrowed() {
    for (src, unnarrowed) in DATABASES.iter().zip(UNNARROWED) {
        let ext = RegionExtension::arrangement(relation(src));
        let machines = [Tm::any_one(), Tm::all_ones(), Tm::parity()];
        for (tm, (stages, tuple_tests, expansions, lookups)) in machines.iter().zip(unnarrowed) {
            let ev = Evaluator::new(&ext);
            let (direct, logical) = capture_agreement(tm, &ev);
            assert_eq!(direct, logical, "{src}");
            let s = ev.stats();
            assert_eq!(s.qe_calls, 0, "{src}: {s:?}");
            assert_eq!((s.fix_iterations, s.fix_tuple_tests), (stages, tuple_tests), "{src}");
            assert!(s.region_expansions < expansions, "{src}: {s:?}");
            assert!(s.plan_cache_lookups < lookups, "{src}: {s:?}");
        }
    }
}

/// `∃x∃y (x ∈ P ∧ y ∈ Q ∧ x < y)` decided by quantifier elimination on the
/// two regions' formulas.
fn below_by_elimination(ext: &RegionExtension, p: usize, q: usize) -> bool {
    let body = Formula::and(vec![
        ext.region_formula(p, &["x".to_string()]),
        ext.region_formula(q, &["y".to_string()]),
        Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y"))),
    ]);
    let (db, vars) = (ext.database(), ["y", "x"]);
    let closed = qe::try_eliminate_block(&body, db, &vars, true);
    closed.expect("no budget is armed").eval(&BTreeMap::new())
}

#[test]
fn substituted_order_formulas_equal_their_elimination() {
    let in_region = |x: &str, r: &str| RegFormula::In(vec![LinExpr::var(x)], r.into());
    // The order formula without its dimension guards: substitution decides
    // it for two points, half of it for a point and an interval.
    let below = RegFormula::exists_elem(
        "x",
        RegFormula::exists_elem(
            "y",
            RegFormula::and(vec![
                in_region("x", "P"),
                in_region("y", "Q"),
                RegFormula::Lin(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y"))),
            ]),
        ),
    );
    for src in DATABASES {
        for ext in [
            RegionExtension::arrangement(relation(src)),
            RegionExtension::nc1(relation(src)),
        ] {
            let n = ext.num_regions();
            let point = |r: usize| ext.region(r).dim == 0;
            let oracle: Vec<Vec<bool>> = (0..n)
                .map(|p| (0..n).map(|q| below_by_elimination(&ext, p, q)).collect())
                .collect();
            let eliminated = |p: usize, q: usize| oracle[p][q];
            let less = |p: usize, q: usize| point(p) && point(q) && eliminated(p, q);
            let ev = Evaluator::new(&ext);
            let holds = |f: &RegFormula, bound: &[(&str, usize)]| {
                ev.try_eval_with_regions(f, bound).unwrap() == Formula::True
            };
            for p in 0..n {
                let unary = [("P", p)];
                assert_eq!(
                    holds(&first(1, "P"), &unary),
                    point(p) && !(0..n).any(|q| less(q, p)),
                    "{src}: first({p})"
                );
                assert_eq!(
                    holds(&last(1, "P"), &unary),
                    point(p) && !(0..n).any(|q| less(p, q)),
                    "{src}: last({p})"
                );
                for q in 0..n {
                    let binary = [("P", p), ("Q", q)];
                    assert_eq!(holds(&below, &binary), eliminated(p, q), "{src}: below({p}, {q})");
                    assert_eq!(holds(&lex_less(1, "P", "Q"), &binary), less(p, q), "{src}");
                    assert_eq!(
                        holds(&succ(1, "P", "Q"), &binary),
                        less(p, q) && !(0..n).any(|z| less(p, z) && less(z, q)),
                        "{src}: succ({p}, {q})"
                    );
                }
            }
            // Pairs of points cost no elimination; a pair with an interval
            // in it still eliminates what substitution leaves.
            let points = (0..n).filter(|&r| point(r)).count();
            assert!(points > 0 && points < n, "{src}");
            assert!(ev.stats().qe_calls > 0, "{src}: {:?}", ev.stats());
        }
    }
}

/// What substitution relies on: a 0-dimensional region is its witness.
#[test]
fn point_regions_are_their_witnesses() {
    for src in DATABASES {
        for ext in [
            RegionExtension::arrangement(relation(src)),
            RegionExtension::nc1(relation(src)),
        ] {
            let vars: Vec<String> = (0..ext.ambient_dim()).map(|i| format!("c{i}")).collect();
            for r in ext.region_ids().filter(|&r| ext.region(r).dim == 0) {
                let formula = ext.region_formula(r, &vars);
                let witness = &ext.region(r).witness;
                let at = |shift: Option<(usize, i64)>| {
                    let env: BTreeMap<_, _> = vars
                        .iter()
                        .zip(witness)
                        .enumerate()
                        .map(|(i, (v, c))| match shift {
                            Some((j, by)) if i == j => (v.clone(), c + &lcdb_arith::int(by)),
                            _ => (v.clone(), c.clone()),
                        })
                        .collect();
                    formula.eval(&env)
                };
                assert!(at(None), "{src}: region {r} misses its witness");
                for i in 0..vars.len() {
                    assert!(!at(Some((i, 1))) && !at(Some((i, -1))), "{src}: region {r}");
                }
            }
        }
    }
}
