//! Cross-crate integration: queries through the full pipeline, closure
//! round-trips, decomposition independence, and the capture experiment.

use lcdb::arith::{int, rat};
use lcdb::core::{queries, DecompositionKind, Evaluator, FixMode, RegFormula, RegionExtension};
use lcdb::EvalBudget;
use lcdb::logic::LinExpr;
use lcdb::{parse_formula, Database, Relation};
use std::collections::BTreeMap;

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).unwrap())
}

#[test]
fn connectivity_agrees_across_decompositions() {
    // Note 7.1: the logics do not depend on the decomposition.
    for (src, expect) in [
        ("0 <= x and x <= 2", true),
        ("(0 <= x and x <= 1) or (3 <= x and x <= 4)", false),
        ("(0 <= x and x <= 1) or (1 <= x and x <= 2)", true),
    ] {
        let r = rel1(src);
        let arr = RegionExtension::arrangement(r.clone());
        let nc1 = RegionExtension::nc1(r);
        let q = queries::connectivity();
        assert_eq!(
            Evaluator::new(&arr).eval_sentence(&q),
            expect,
            "arrangement on {}",
            src
        );
        assert_eq!(Evaluator::new(&nc1).eval_sentence(&q), expect, "nc1 on {}", src);
    }
}

#[test]
fn closure_outputs_define_the_right_sets() {
    // Minkowski-style shift query: y ∈ S+1 over several representations.
    let reprs = [
        "0 < x and x < 10",
        "(0 < x and x < 6) or (6 < x and x < 10) or x = 6",
    ];
    let q = RegFormula::exists_elem(
        "x",
        RegFormula::and(vec![
            RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
            RegFormula::Lin(lcdb::logic::Atom::new(
                LinExpr::var("y"),
                lcdb::logic::Rel::Eq,
                LinExpr::var("x").add(&LinExpr::constant(int(1))),
            )),
        ]),
    );
    let mut answers = Vec::new();
    for src in reprs {
        let ext = RegionExtension::arrangement(rel1(src));
        let ev = Evaluator::new(&ext);
        let out = ev.eval_query(&q);
        assert!(out.is_quantifier_free());
        answers.push(out);
    }
    // Abstractness (§2): different representations, same answer relation.
    for v in [-5i64, 0, 1, 2, 5, 7, 10, 11, 12] {
        let mut env = BTreeMap::new();
        env.insert("y".to_string(), int(v));
        let a = answers[0].eval(&env);
        let b = answers[1].eval(&env);
        assert_eq!(a, b, "representation-dependence at {}", v);
        assert_eq!(a, v > 1 && v < 11, "wrong answer at {}", v);
    }
}

#[test]
fn mixed_sort_query_end_to_end() {
    // "Some point of S lies in an unbounded region": false for a bounded S,
    // true after removing the bound.
    let q = RegFormula::exists_elem(
        "x",
        RegFormula::exists_region(
            "R",
            RegFormula::and(vec![
                RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
                RegFormula::In(vec![LinExpr::var("x")], "R".into()),
                RegFormula::not(RegFormula::Bounded("R".into())),
            ]),
        ),
    );
    let bounded = RegionExtension::arrangement(rel1("0 < x and x < 1"));
    assert!(!Evaluator::new(&bounded).eval_sentence(&q));
    let unbounded = RegionExtension::arrangement(rel1("x > 0"));
    assert!(Evaluator::new(&unbounded).eval_sentence(&q));
}

#[test]
fn capture_experiment_bit_patterns() {
    use lcdb::tm::capture::{capture_agreement, input_word};
    use lcdb::tm::Tm;
    let machines = [Tm::any_one(), Tm::all_ones(), Tm::parity()];
    for pattern in [0b101001u32, 0b010110] {
        // Database whose k-th point region (k = 0..5) is in S iff bit k is
        // set. Unset bits contribute the hyperplane x = k through an
        // unsatisfiable disjunct, so the point region exists but is not in
        // S. Point 6 is the end-marker cell.
        let mut parts = Vec::new();
        for k in 0..6 {
            if pattern >> k & 1 == 1 {
                parts.push(format!("x = {}", k));
            } else {
                parts.push(format!("(x > {k} and x < {k})", k = k));
            }
        }
        parts.push("(x > 6 and x < 6)".to_string());
        let rel = rel1(&parts.join(" or "));
        let ext = RegionExtension::arrangement(rel);
        let ev = Evaluator::new(&ext);
        // Sanity: the input word is the bit pattern plus the marker.
        let word = input_word(&ev);
        let expect_word: Vec<u8> = (0..6)
            .map(|k| if pattern >> k & 1 == 1 { b'1' } else { b'0' })
            .chain([b'E'])
            .collect();
        assert_eq!(word, expect_word, "pattern {:06b}", pattern);
        for tm in &machines {
            let (direct, logical) = capture_agreement(tm, &ev);
            assert_eq!(direct, logical, "pattern {:06b}", pattern);
        }
    }
}

#[test]
fn rbit_against_arith_bits() {
    // Six point regions address six bits; compare rBIT against BigUint::bit.
    let ext = RegionExtension::arrangement(rel1(
        "x = 0 or x = 1 or x = 2 or x = 3 or x = 4 or x = 5",
    ));
    let ev = Evaluator::new(&ext);
    let zeros = ev.zero_dim_order().to_vec();
    for (n, d) in [(7i64, 5i64), (13, 8), (1, 1), (42, 11)] {
        let q = rat(n, d);
        let body = RegFormula::Lin(lcdb::logic::Atom::new(
            LinExpr::var("x").scale(&int(d)),
            lcdb::logic::Rel::Eq,
            LinExpr::constant(int(n)),
        ));
        let f = RegFormula::Rbit {
            var: "x".into(),
            body: body.into(),
            rn: "Rn".into(),
            rd: "Rd".into(),
        };
        for (i, &rn) in zeros.iter().enumerate() {
            for (j, &rd) in zeros.iter().enumerate() {
                let got = Evaluator::new(&ext)
                    .try_eval_with_regions(&f, &[("Rn", rn), ("Rd", rd)])
                    .unwrap()
                    == lcdb::Formula::True;
                let expect = q.numer_magnitude().bit(i as u64)
                    && q.denom_magnitude().bit(j as u64);
                assert_eq!(got, expect, "{}/{} bits ({}, {})", n, d, i, j);
            }
        }
    }
}

#[test]
fn river_scenarios_full_pipeline() {
    let build = |chem1: (i64, i64), chem2: (i64, i64)| {
        let mut db = Database::new();
        db.insert("S", rel1("0 <= x and x <= 10"));
        db.insert("river", rel1("0 <= x and x <= 10"));
        db.insert("spring", rel1("x = 0"));
        db.insert("chem1", rel1(&format!("{} < x and x < {}", chem1.0, chem1.1)));
        db.insert("chem2", rel1(&format!("{} < x and x < {}", chem2.0, chem2.1)));
        RegionExtension::try_new(db, "S", DecompositionKind::Arrangement, &EvalBudget::unlimited())
        .expect("an unlimited build succeeds")
    };
    let cases = [
        ((1, 2), (4, 5), true, true),   // ordered: chem1 then chem2
        ((4, 5), (1, 2), true, false),  // reversed: literal fires, ordered not
        ((1, 2), (8, 8), false, false), // chem2 missing
    ];
    for (c1, c2, lit, ord) in cases {
        let ext = build(c1, c2);
        let ev = Evaluator::new(&ext);
        assert_eq!(ev.eval_sentence(&queries::river_pollution()), lit);
        assert_eq!(ev.eval_sentence(&queries::river_pollution_ordered()), ord);
    }
}

#[test]
fn pfp_captures_lfp_results() {
    // PFP of a monotone-converging operator equals the LFP (PSPACE ⊇ PTIME).
    for src in [
        "0 < x and x < 2",
        "(0 < x and x < 1) or (2 < x and x < 3)",
    ] {
        let ext = RegionExtension::arrangement(rel1(src));
        let ev = Evaluator::new(&ext);
        let body = |_: ()| {
            RegFormula::or(vec![
                RegFormula::and(vec![
                    RegFormula::RegionEq("R".into(), "Rp".into()),
                    RegFormula::SubsetOf("R".into(), "S".into()),
                ]),
                RegFormula::exists_region(
                    "Z",
                    RegFormula::and(vec![
                        RegFormula::SetApp("M".into(), vec!["R".into(), "Z".into()]),
                        RegFormula::Adj("Z".into(), "Rp".into()),
                        RegFormula::SubsetOf("Rp".into(), "S".into()),
                    ]),
                ),
            ])
        };
        let mk = |mode| {
            RegFormula::forall_region(
                "A",
                RegFormula::forall_region(
                    "B",
                    RegFormula::and(vec![
                        RegFormula::SubsetOf("A".into(), "S".into()),
                        RegFormula::SubsetOf("B".into(), "S".into()),
                    ])
                    .implies(RegFormula::Fix {
                        mode,
                        set_var: "M".into(),
                        vars: vec!["R".into(), "Rp".into()],
                        body: body(()).into(),
                        args: vec!["A".into(), "B".into()],
                    }),
                ),
            )
        };
        let lfp = ev.eval_sentence(&mk(FixMode::Lfp));
        let pfp = ev.eval_sentence(&mk(FixMode::Pfp));
        let ifp = ev.eval_sentence(&mk(FixMode::Ifp));
        assert_eq!(lfp, pfp, "{}", src);
        assert_eq!(lfp, ifp, "{}", src);
    }
}
