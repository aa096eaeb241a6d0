//! The paper's worked example queries and a small query library.
//!
//! All queries are [`RegFormula`] sentences (boolean queries, the class the
//! capture theorems speak about). `connectivity_paper` is the literal `Conn`
//! of §5 with element quantifiers; [`connectivity`] is the equivalent
//! region-quantified form, which evaluates without quantifier elimination
//! and is what the benchmarks use.

use crate::regfo::{FixMode, RegFormula};
use lcdb_logic::LinExpr;
use std::sync::Arc;

/// The least-fixed-point subformula shared by the connectivity queries:
/// `[LFP_{M,R,R'} ((R = R' ∧ R ⊆ S) ∨ ∃Z (M(R,Z) ∧ adj(Z,R') ∧ R' ⊆ S))](a, b)`
///
/// The fixed point contains a pair `(R, R')` iff `R'` is reachable from `R`
/// by a chain of adjacent regions contained in `S`.
pub fn s_connected(a: &str, b: &str) -> RegFormula {
    let base = RegFormula::and(vec![
        RegFormula::RegionEq("R".into(), "Rp".into()),
        RegFormula::SubsetOf("R".into(), "S".into()),
    ]);
    let step = RegFormula::exists_region(
        "Z",
        RegFormula::and(vec![
            RegFormula::SetApp("M".into(), vec!["R".into(), "Z".into()]),
            RegFormula::Adj("Z".into(), "Rp".into()),
            RegFormula::SubsetOf("Rp".into(), "S".into()),
        ]),
    );
    RegFormula::Fix {
        mode: FixMode::Lfp,
        set_var: "M".into(),
        vars: vec!["R".into(), "Rp".into()],
        body: Arc::new(RegFormula::or(vec![base, step])),
        args: vec![a.to_string(), b.to_string()],
    }
}

/// Topological connectivity of `S`, region-quantified form:
/// every pair of regions contained in `S` is `S`-connected.
pub fn connectivity() -> RegFormula {
    RegFormula::forall_region(
        "Rx",
        RegFormula::forall_region(
            "Ry",
            RegFormula::and(vec![
                RegFormula::SubsetOf("Rx".into(), "S".into()),
                RegFormula::SubsetOf("Ry".into(), "S".into()),
            ])
            .implies(s_connected("Rx", "Ry")),
        ),
    )
}

/// The paper's literal `Conn` query (§5) with element quantifiers:
///
/// `∀x̄∀ȳ (Sx̄ ∧ Sȳ → ∃Rx∃Ry (x̄ ∈ Rx ∧ ȳ ∈ Ry ∧ [LFP …](Rx, Ry)))`
///
/// Exercises quantifier elimination; only for small databases. `d` is the
/// arity of `S`.
pub fn connectivity_paper(d: usize) -> RegFormula {
    let xs: Vec<String> = (0..d).map(|i| format!("x{}", i)).collect();
    let ys: Vec<String> = (0..d).map(|i| format!("y{}", i)).collect();
    let xe: Vec<LinExpr> = xs.iter().map(|v| LinExpr::var(v.clone())).collect();
    let ye: Vec<LinExpr> = ys.iter().map(|v| LinExpr::var(v.clone())).collect();
    let antecedent = RegFormula::and(vec![
        RegFormula::Pred("S".into(), xe.clone()),
        RegFormula::Pred("S".into(), ye.clone()),
    ]);
    let consequent = RegFormula::exists_region(
        "Rx",
        RegFormula::exists_region(
            "Ry",
            RegFormula::and(vec![
                RegFormula::In(xe, "Rx".into()),
                RegFormula::In(ye, "Ry".into()),
                s_connected("Rx", "Ry"),
            ]),
        ),
    );
    let mut f = antecedent.implies(consequent);
    for v in xs.iter().chain(ys.iter()).rev() {
        f = RegFormula::forall_elem(v.clone(), f);
    }
    f
}

/// Is `S` nonempty? (Region-quantified: some region lies in `S`. For the
/// arrangement decomposition this is exact because faces partition `ℝ^d`.)
pub fn nonempty() -> RegFormula {
    RegFormula::exists_region("R", RegFormula::SubsetOf("R".into(), "S".into()))
}

/// Is `S` bounded? Every region contained in `S` is bounded.
pub fn bounded() -> RegFormula {
    RegFormula::forall_region(
        "R",
        RegFormula::SubsetOf("R".into(), "S".into())
            .implies(RegFormula::Bounded("R".into())),
    )
}

/// Does `S` contain a region of dimension exactly `k`?
pub fn has_dimension(k: usize) -> RegFormula {
    RegFormula::exists_region(
        "R",
        RegFormula::and(vec![
            RegFormula::SubsetOf("R".into(), "S".into()),
            RegFormula::DimEq("R".into(), k),
        ]),
    )
}

/// Does `S` have an isolated point: a 0-dimensional `S`-region none of whose
/// adjacent regions is in `S`?
pub fn has_isolated_point() -> RegFormula {
    RegFormula::exists_region(
        "R",
        RegFormula::and(vec![
            RegFormula::SubsetOf("R".into(), "S".into()),
            RegFormula::DimEq("R".into(), 0),
            RegFormula::forall_region(
                "Q",
                RegFormula::Adj("R".into(), "Q".into())
                    .implies(RegFormula::not(RegFormula::SubsetOf("Q".into(), "S".into()))),
            ),
        ]),
    )
}

/// Does `S` have at least `k` connected components? There are `k` regions of
/// `S`, pairwise not `S`-connected.
pub fn at_least_k_components(k: usize) -> RegFormula {
    assert!(k >= 1);
    let names: Vec<String> = (0..k).map(|i| format!("C{}", i)).collect();
    let mut parts: Vec<RegFormula> = names
        .iter()
        .map(|n| RegFormula::SubsetOf(n.clone(), "S".into()))
        .collect();
    for i in 0..k {
        for j in i + 1..k {
            parts.push(RegFormula::not(s_connected(&names[i], &names[j])));
        }
    }
    let mut f = RegFormula::and(parts);
    for n in names.iter().rev() {
        f = RegFormula::exists_region(n.clone(), f);
    }
    f
}

/// The GIS river query of Fig. 6 (§5), *transcribed literally*. The database
/// provides auxiliary relations `spring`, `river`, `chem1`, `chem2` over the
/// same space as `S`.
///
/// Note a subtlety faithfully preserved here: the paper's prose says the
/// query detects a chem2 stretch occurring *after* a chem1 stretch, but the
/// formula as printed is order-insensitive — the second disjunct eventually
/// adds every river region reachable from the spring to `M`, after which the
/// third disjunct fires for **any** coexisting chem1 (reachable) and chem2
/// stretch. This implementation evaluates the printed formula; see
/// [`river_pollution_ordered`] for a query that actually enforces flow
/// order (EXPERIMENTS.md, E7 records the discrepancy).
pub fn river_pollution() -> RegFormula {
    let spring_base = RegFormula::and(vec![
        RegFormula::SubsetOf("R".into(), "spring".into()),
        RegFormula::RegionEq("R".into(), "Rp".into()),
    ]);
    let follow = RegFormula::exists_region(
        "Z",
        RegFormula::exists_region(
            "Zp",
            RegFormula::and(vec![
                RegFormula::SetApp("M".into(), vec!["Z".into(), "Zp".into()]),
                RegFormula::SubsetOf("R".into(), "river".into()),
                RegFormula::Adj("Z".into(), "R".into()),
                RegFormula::RegionEq("R".into(), "Rp".into()),
            ]),
        ),
    );
    let detect = RegFormula::exists_region(
        "Z",
        RegFormula::exists_region(
            "Zp",
            RegFormula::and(vec![
                RegFormula::SetApp("M".into(), vec!["Z".into(), "Zp".into()]),
                RegFormula::SubsetOf("Z".into(), "chem1".into()),
                RegFormula::SubsetOf("R".into(), "chem2".into()),
                RegFormula::RegionEq("Rp".into(), "Z".into()),
            ]),
        ),
    );
    let lfp = RegFormula::Fix {
        mode: FixMode::Lfp,
        set_var: "M".into(),
        vars: vec!["R".into(), "Rp".into()],
        body: Arc::new(RegFormula::or(vec![spring_base, follow, detect])),
        args: vec!["R1".into(), "R2".into()],
    };
    RegFormula::exists_region(
        "R1",
        RegFormula::exists_region(
            "R2",
            RegFormula::and(vec![
                RegFormula::not(RegFormula::RegionEq("R1".into(), "R2".into())),
                lfp,
            ]),
        ),
    )
}

/// Directed adjacency along a 1-dimensional river: `Y` is immediately
/// downstream of `V` if they are adjacent and some point of `Y` lies
/// strictly beyond some point of `V` in river mileage. (Definable in RegFO
/// with element quantifiers; specific to 1-dimensional maps.)
pub fn downstream_adjacent(v: &str, y: &str) -> RegFormula {
    RegFormula::and(vec![
        RegFormula::Adj(v.to_string(), y.to_string()),
        RegFormula::exists_elem(
            "__dx",
            RegFormula::exists_elem(
                "__dy",
                RegFormula::and(vec![
                    RegFormula::In(vec![LinExpr::var("__dx")], v.to_string()),
                    RegFormula::In(vec![LinExpr::var("__dy")], y.to_string()),
                    RegFormula::Lin(lcdb_logic::Atom::new(
                        LinExpr::var("__dx"),
                        lcdb_logic::Rel::Lt,
                        LinExpr::var("__dy"),
                    )),
                ]),
            ),
        ),
    ])
}

/// Order-*sensitive* variant of the river query, with nested fixed points
/// over *directed* adjacency: `Reach1` = river regions downstream of the
/// spring; `Reach2` = river regions downstream of a `Reach1` region carrying
/// chem1; the query fires iff some `Reach2` region carries chem2 — i.e. a
/// chem2 stretch lies at or downstream of a chem1 stretch.
pub fn river_pollution_ordered() -> RegFormula {
    // Reach1(X): downstream of the spring along the river.
    let reach1 = |arg: &str| RegFormula::Fix {
        mode: FixMode::Lfp,
        set_var: "M1".into(),
        vars: vec!["X".into()],
        body: Arc::new(RegFormula::or(vec![
            RegFormula::SubsetOf("X".into(), "spring".into()),
            RegFormula::exists_region(
                "W",
                RegFormula::and(vec![
                    RegFormula::SetApp("M1".into(), vec!["W".into()]),
                    downstream_adjacent("W", "X"),
                    RegFormula::SubsetOf("X".into(), "river".into()),
                ]),
            ),
        ])),
        args: vec![arg.to_string()],
    };
    // Reach2(Y): downstream of a reached chem1 stretch.
    let reach2 = |arg: &str| RegFormula::Fix {
        mode: FixMode::Lfp,
        set_var: "M2".into(),
        vars: vec!["Y".into()],
        body: Arc::new(RegFormula::or(vec![
            RegFormula::and(vec![
                reach1("Y"),
                RegFormula::SubsetOf("Y".into(), "chem1".into()),
            ]),
            RegFormula::exists_region(
                "V",
                RegFormula::and(vec![
                    RegFormula::SetApp("M2".into(), vec!["V".into()]),
                    downstream_adjacent("V", "Y"),
                    RegFormula::SubsetOf("Y".into(), "river".into()),
                ]),
            ),
        ])),
        args: vec![arg.to_string()],
    };
    RegFormula::exists_region(
        "R",
        RegFormula::and(vec![
            reach2("R"),
            RegFormula::SubsetOf("R".into(), "chem2".into()),
        ]),
    )
}

/// `TC`-based connectivity (for the `RegTC` logic of §7): every two
/// `S`-regions are related by the transitive closure of "adjacent within S".
pub fn connectivity_tc(deterministic: bool) -> RegFormula {
    let step = RegFormula::and(vec![
        RegFormula::SubsetOf("X".into(), "S".into()),
        RegFormula::SubsetOf("Y".into(), "S".into()),
        RegFormula::Adj("X".into(), "Y".into()),
    ]);
    RegFormula::forall_region(
        "A",
        RegFormula::forall_region(
            "B",
            RegFormula::and(vec![
                RegFormula::SubsetOf("A".into(), "S".into()),
                RegFormula::SubsetOf("B".into(), "S".into()),
            ])
            .implies(RegFormula::Tc {
                deterministic,
                left: vec!["X".into()],
                right: vec!["Y".into()],
                body: Arc::new(step),
                arg_left: vec!["A".into()],
                arg_right: vec!["B".into()],
            }),
        ),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::RegionExtension;
    use crate::Evaluator;
    use lcdb_logic::{parse_formula, Database, Relation};

    fn relation(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
        )
    }

    fn eval_arr(src: &str, vars: &[&str], q: &RegFormula) -> bool {
        let ext = RegionExtension::arrangement(relation(src, vars));
        Evaluator::new(&ext).eval_sentence(q)
    }

    #[test]
    fn connectivity_1d() {
        assert!(eval_arr("0 < x and x < 2", &["x"], &connectivity()));
        assert!(!eval_arr(
            "(0 < x and x < 1) or (2 < x and x < 3)",
            &["x"],
            &connectivity()
        ));
        // Touching intervals [0,1] ∪ [1,2] are connected (share the point 1).
        assert!(eval_arr(
            "(0 <= x and x <= 1) or (1 <= x and x <= 2)",
            &["x"],
            &connectivity()
        ));
        // Half-open gap: (0,1) ∪ [1,2] is connected too.
        assert!(eval_arr(
            "(0 < x and x < 1) or (1 <= x and x <= 2)",
            &["x"],
            &connectivity()
        ));
        // But (0,1) ∪ (1,2) is not.
        assert!(!eval_arr(
            "(0 < x and x < 1) or (1 < x and x < 2)",
            &["x"],
            &connectivity()
        ));
    }

    #[test]
    fn connectivity_2d_touching_at_point() {
        // Two closed triangles sharing exactly one corner: connected.
        let src = "(x >= 0 and y >= 0 and x + y <= 1) or (x <= 0 and y <= 0 and x + y >= -1)";
        assert!(eval_arr(src, &["x", "y"], &connectivity()));
        // Remove the shared corner from one side: still connected through the
        // other? Separate them instead.
        let apart = "(x >= 0 and y >= 0 and x + y <= 1) or (x <= -1 and y <= -1 and x + y >= -3)";
        assert!(!eval_arr(apart, &["x", "y"], &connectivity()));
    }

    #[test]
    fn paper_conn_equals_region_conn_small() {
        for src in [
            "0 < x and x < 2",
            "(0 < x and x < 1) or (2 < x and x < 3)",
            "(0 <= x and x <= 1) or (1 <= x and x <= 2)",
        ] {
            let ext = RegionExtension::arrangement(relation(src, &["x"]));
            let ev = Evaluator::new(&ext);
            assert_eq!(
                ev.eval_sentence(&connectivity()),
                ev.eval_sentence(&connectivity_paper(1)),
                "{}",
                src
            );
        }
    }

    #[test]
    fn component_counts() {
        let src = "(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5)";
        assert!(eval_arr(src, &["x"], &at_least_k_components(1)));
        assert!(eval_arr(src, &["x"], &at_least_k_components(2)));
        assert!(eval_arr(src, &["x"], &at_least_k_components(3)));
        assert!(!eval_arr(src, &["x"], &at_least_k_components(4)));
    }

    #[test]
    fn boundedness_and_dimension() {
        assert!(eval_arr("0 < x and x < 2", &["x"], &bounded()));
        assert!(!eval_arr("x > 0", &["x"], &bounded()));
        assert!(eval_arr("0 < x and x < 2", &["x"], &has_dimension(1)));
        assert!(!eval_arr("x = 1", &["x"], &has_dimension(1)));
        assert!(eval_arr("x = 1", &["x"], &has_dimension(0)));
        assert!(eval_arr("x = 1", &["x"], &bounded()));
    }

    #[test]
    fn isolated_points() {
        assert!(eval_arr(
            "(0 < x and x < 1) or x = 5",
            &["x"],
            &has_isolated_point()
        ));
        assert!(!eval_arr("0 <= x and x < 1", &["x"], &has_isolated_point()));
        assert!(!eval_arr("x > 1", &["x"], &has_isolated_point()));
    }

    #[test]
    fn nonempty_query() {
        assert!(eval_arr("x = 0", &["x"], &nonempty()));
        assert!(!eval_arr("x < 0 and x > 0", &["x"], &nonempty()));
    }

    #[test]
    fn tc_connectivity_matches_lfp_connectivity() {
        for src in [
            "0 < x and x < 2",
            "(0 < x and x < 1) or (2 < x and x < 3)",
            "(0 <= x and x <= 1) or (1 <= x and x <= 2)",
        ] {
            let ext = RegionExtension::arrangement(relation(src, &["x"]));
            let ev = Evaluator::new(&ext);
            assert_eq!(
                ev.eval_sentence(&connectivity()),
                ev.eval_sentence(&connectivity_tc(false)),
                "{}",
                src
            );
        }
    }

    /// A linear river flowing through 1-d space: spring at the left,
    /// chemicals introduced at given stretches.
    fn river(chem1_at: (i64, i64), chem2_at: (i64, i64)) -> RegionExtension {
        let mut db = Database::new();
        db.insert("S", relation("0 <= x and x <= 10", &["x"]));
        db.insert("river", relation("0 <= x and x <= 10", &["x"]));
        db.insert("spring", relation("x = 0", &["x"]));
        db.insert(
            "chem1",
            relation(&format!("{} < x and x < {}", chem1_at.0, chem1_at.1), &["x"]),
        );
        db.insert(
            "chem2",
            relation(&format!("{} < x and x < {}", chem2_at.0, chem2_at.1), &["x"]),
        );
        let budget = crate::EvalBudget::unlimited();
        RegionExtension::try_new(db, "S", crate::DecompositionKind::Arrangement, &budget).unwrap()
    }

    #[test]
    fn river_pollution_literal_semantics() {
        // The paper's formula as printed is order-insensitive: it fires
        // whenever a (spring-reachable) chem1 stretch and a chem2 stretch
        // both exist.
        let up = river((1, 2), (4, 5));
        assert!(Evaluator::new(&up).eval_sentence(&river_pollution()));
        let down = river((4, 5), (1, 2));
        assert!(Evaluator::new(&down).eval_sentence(&river_pollution()));
        // No chem2 at all (empty stretch): nothing to detect.
        let none = river((1, 2), (7, 7));
        assert!(!Evaluator::new(&none).eval_sentence(&river_pollution()));
        // No chem1: nothing to detect either.
        let none1 = river((7, 7), (1, 2));
        assert!(!Evaluator::new(&none1).eval_sentence(&river_pollution()));
    }

    #[test]
    fn river_pollution_ordered_semantics() {
        // The ordered variant enforces flow order via directed adjacency.
        let up = river((1, 2), (4, 5));
        assert!(Evaluator::new(&up).eval_sentence(&river_pollution_ordered()));
        let down = river((4, 5), (1, 2));
        assert!(!Evaluator::new(&down).eval_sentence(&river_pollution_ordered()));
        // Overlapping stretches: chem2 extends beyond chem1's start: fires.
        let overlap = river((3, 6), (4, 8));
        assert!(Evaluator::new(&overlap).eval_sentence(&river_pollution_ordered()));
        // Missing either chemical: no detection.
        let none = river((1, 2), (7, 7));
        assert!(!Evaluator::new(&none).eval_sentence(&river_pollution_ordered()));
    }
}
