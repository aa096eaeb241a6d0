//! Resource-governance integration tests: every budget knob aborts the
//! evaluation pipeline with the matching typed error and partial statistics,
//! and the fallible entry points never panic.

use lcdb::core::DecompositionKind::{self, Arrangement, Nc1};
use lcdb::core::parse_regformula;
use lcdb::{
    parse_formula, queries, CancelToken, Database, EvalBudget, EvalError, EvalStats, Evaluator,
    RegFormula, RegionExtension, Relation,
};
use lcdb::logic::LinExpr;
use lcdb_bench::{alibi_extension, ALIBI_SENTENCE};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).unwrap())
}

/// A disconnected database: connectivity needs several LFP stages, so tight
/// iteration/tuple budgets trip mid-fixpoint.
fn two_gaps() -> Relation {
    rel1("(0 < x and x < 1) or (2 < x and x < 3)")
}

/// Build the `kind` decomposition of `r` and evaluate `sentence` over it,
/// both under `budget`: the verdict with the work counters, or the typed
/// error (carrying the partial counters).
fn eval(
    kind: DecompositionKind,
    r: &Relation,
    sentence: &RegFormula,
    budget: &EvalBudget,
) -> Result<(bool, EvalStats), EvalError> {
    let mut db = Database::new();
    db.insert("S", r.clone());
    let ext = RegionExtension::try_new(db, "S", kind, budget)?;
    let ev = Evaluator::with_budget(&ext, budget.clone());
    let verdict = ev.try_eval_sentence(sentence)?;
    Ok((verdict, ev.stats()))
}

#[test]
fn iteration_limit_stops_fixpoint() {
    let budget = EvalBudget::unlimited().with_max_fix_iterations(1);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("one stage cannot converge");
    match &err {
        EvalError::IterationLimit { limit, stats } => {
            assert_eq!(*limit, 1);
            // Partial stats: the aborted run still reports its work.
            assert!(stats.fix_iterations >= 1, "{:?}", stats);
            assert!(stats.regions > 0, "{:?}", stats);
        }
        other => panic!("expected IterationLimit, got {}", other),
    }
    assert!(err.is_budget_exhaustion());
}

#[test]
fn unlimited_budget_converges() {
    let (verdict, stats) =
        eval(Arrangement, &two_gaps(), &queries::connectivity(), &EvalBudget::unlimited())
            .expect("no limits, no abort");
    assert!(!verdict, "two gapped intervals are disconnected");
    assert!(stats.fix_iterations > 1);
    assert!(stats.regions > 0);
}

#[test]
fn face_limit_stops_arrangement_construction() {
    // Nine hyperplane bundles produce far more than four faces.
    let budget = EvalBudget::unlimited().with_max_faces(4);
    let r = rel1("(0<x and x<1) or (2<x and x<3) or (4<x and x<5) or (6<x and x<7)");
    let err = eval(Arrangement, &r, &queries::connectivity(), &budget)
        .expect_err("face budget is far below the arrangement size");
    match &err {
        EvalError::FaceLimit { limit, reached, .. } => {
            assert_eq!(*limit, 4);
            assert!(*reached > 4, "guard fires once the limit is passed");
        }
        other => panic!("expected FaceLimit, got {}", other),
    }
}

#[test]
fn face_limit_stops_nc1_construction() {
    let budget = EvalBudget::unlimited().with_max_faces(2);
    let r = rel1("(0<x and x<1) or (2<x and x<3) or (4<x and x<5)");
    let err = eval(Nc1, &r, &queries::connectivity(), &budget)
        .expect_err("NC1 decomposition also counts faces");
    assert!(
        matches!(err, EvalError::FaceLimit { .. }),
        "expected FaceLimit, got {}",
        err
    );
}

#[test]
fn cancelled_token_aborts_mid_fixpoint() {
    let token = CancelToken::new();
    token.cancel(); // trip before evaluation: first interrupt check aborts
    let budget = EvalBudget::unlimited().with_cancel_token(token);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("cancelled before the first stage");
    assert!(matches!(err, EvalError::Cancelled { .. }), "got {}", err);
    assert!(err.is_budget_exhaustion());
}

#[test]
fn zero_timeout_exceeds_deadline() {
    let budget = EvalBudget::unlimited().with_timeout(Duration::ZERO);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("deadline already passed when evaluation starts");
    match &err {
        // The deadline guard and the face guard share construction-time
        // checks; a zero timeout must surface as the deadline.
        EvalError::DeadlineExceeded { limit, .. } => assert_eq!(*limit, Duration::ZERO),
        other => panic!("expected DeadlineExceeded, got {}", other),
    }
}

/// The alibi sentence over 64 × 64 beads has a structural estimate of 4096
/// disjuncts but ~1 300 hyperplanes in three variables: enumerating their
/// sign cells does not finish, distributing with pruning takes a moment.
#[test]
fn alibi_sentence_at_64_beads_meets_its_deadline() {
    let ext = alibi_extension(64, 11, true);
    let sentence = parse_regformula(ALIBI_SENTENCE).unwrap();
    let budget = EvalBudget::unlimited().with_timeout(Duration::from_secs(5));
    let ev = Evaluator::with_budget(&ext, budget);
    assert!(ev
        .try_eval_sentence(&sentence)
        .expect("well inside five seconds"));
    assert_eq!(ev.stats().qe_calls, 3);
}

/// Quantifier elimination polls the budget at every feasibility decision:
/// a conversion that outlasts the deadline is abandoned, not finished.
/// Unbounded, the 1024 × 1024 elimination takes 430 ms on a 2-core x86-64
/// (128 × 128 took 18 ms, too close to the deadline to tell a finish from
/// an abort), so no machine finishes it inside 20 ms; the aborted run
/// returns in 100–210 ms there.
#[test]
fn quantifier_elimination_observes_the_deadline() {
    let ext = alibi_extension(1024, 11, true);
    let sentence = parse_regformula(ALIBI_SENTENCE).unwrap();
    let limit = Duration::from_millis(20);
    let ev = Evaluator::with_budget(&ext, EvalBudget::unlimited().with_timeout(limit));
    let started = Instant::now();
    let result = ev.try_eval_sentence(&sentence);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "returned after {took:?}");
    match result {
        Err(EvalError::DeadlineExceeded { limit: l, stats }) => {
            assert_eq!(l, limit);
            assert_eq!(stats.qe_calls, 3, "{stats:?}");
            assert!(stats.regions > 0, "{stats:?}");
        }
        Ok(_) => panic!("finished a 430 ms elimination under a 20 ms deadline in {took:?}"),
        Err(other) => panic!("expected DeadlineExceeded, got {other}"),
    }
}

/// A cancelled token stops the 1024 × 1024 alibi elimination inside the
/// lowering of its matrix: at most one stored disjunct's rows are charged,
/// the second relation symbol is never read and no feasibility decision is
/// made. Counts, not wall time.
#[test]
fn a_cancelled_elimination_stops_within_one_disjunct() {
    use lcdb::budget::work::{self, Work};
    use lcdb::budget::BudgetError;
    use lcdb::logic::qe;
    let (a, b) = lcdb_bench::alibi_pair(1024, 11, true);
    let disjunct = a.dnf().disjuncts[0].len() as u64;
    let token = CancelToken::new();
    token.cancel();
    let budget = EvalBudget::unlimited().with_cancel_token(token);

    let ext = alibi_extension(1024, 11, true);
    let ev = Evaluator::with_budget(&ext, budget.clone());
    let before = work::snapshot();
    let result = ev.try_eval_sentence(&parse_regformula(ALIBI_SENTENCE).unwrap());
    assert!(matches!(result, Err(EvalError::Cancelled { .. })), "{result:?}");
    assert!(before.since()[Work::RowsLowered] <= disjunct);

    // The block itself, as the evaluator hands it over.
    let mut db = Database::new();
    db.insert("A", a);
    db.insert("B", b);
    let args: Vec<LinExpr> = ["t", "x", "y"].into_iter().map(LinExpr::var).collect();
    let matrix = lcdb::Formula::and(vec![
        lcdb::Formula::Pred("A".into(), args.clone()),
        lcdb::Formula::Pred("B".into(), args),
    ]);
    let _armed = work::arm(&budget, [0, 0]);
    let before = work::snapshot();
    let result = qe::try_eliminate_block(&matrix, &db, &["y", "x", "t"], true);
    let spent = before.since();
    assert_eq!(result, Err(BudgetError::Cancelled));
    assert!(spent[Work::RowsLowered] <= disjunct, "{} rows", spent[Work::RowsLowered]);
    assert_eq!(spent[Work::QePredRows], 1, "the second symbol is never read");
    assert_eq!(spent[Work::DnfDecisions], 0);
}

#[test]
fn tuple_test_limit_stops_fixpoint() {
    let budget = EvalBudget::unlimited().with_max_tuple_tests(3);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("connectivity tests many more than 3 tuples");
    match &err {
        EvalError::TupleTestLimit { limit, stats } => {
            assert_eq!(*limit, 3);
            assert!(stats.fix_tuple_tests + stats.tc_edge_tests > 3, "{:?}", stats);
        }
        other => panic!("expected TupleTestLimit, got {}", other),
    }
}

#[test]
fn memory_limit_stops_tuple_space_materialization() {
    // The LFP over pairs of regions wants to enumerate regions², which the
    // 8-byte budget cannot hold; the estimate check fires before allocation.
    let budget = EvalBudget::unlimited().with_max_memory_bytes(8);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("tuple space exceeds 8 bytes");
    assert!(
        matches!(err, EvalError::MemoryLimit { .. }),
        "expected MemoryLimit, got {}",
        err
    );
}

#[test]
fn divergent_pfp_stopped_by_iteration_limit() {
    // The body ¬M(R,Rp) oscillates ∅ → Reg² → ∅ → …, so the PFP diverges.
    // Untamed evaluation detects the cycle via the seen-set and returns the
    // empty set (the PFP divergence semantics); a tight budget aborts the
    // oscillation with a typed error instead.
    use lcdb::core::FixMode;
    let q = RegFormula::exists_region(
        "A",
        RegFormula::exists_region(
            "B",
            RegFormula::Fix {
                mode: FixMode::Pfp,
                set_var: "M".into(),
                vars: vec!["R".into(), "Rp".into()],
                body: RegFormula::not(RegFormula::SetApp(
                    "M".into(),
                    vec!["R".into(), "Rp".into()],
                ))
                .into(),
                args: vec!["A".into(), "B".into()],
            },
        ),
    );
    let (verdict, _) =
        eval(Arrangement, &two_gaps(), &q, &EvalBudget::unlimited())
            .expect("divergence detection needs no budget");
    assert!(!verdict, "a divergent PFP denotes the empty set");
    let budget = EvalBudget::unlimited().with_max_fix_iterations(1);
    let err = eval(Arrangement, &two_gaps(), &q, &budget)
        .expect_err("oscillation exceeds one stage");
    match &err {
        EvalError::IterationLimit { stats, .. } => {
            assert!(stats.fix_iterations >= 1, "{:?}", stats)
        }
        other => panic!("expected IterationLimit, got {}", other),
    }
}

#[test]
fn invalid_query_is_not_budget_exhaustion() {
    let q = RegFormula::exists_region(
        "R",
        RegFormula::SubsetOf("R".into(), "NoSuchRelation".into()),
    );
    let err = eval(Arrangement, &two_gaps(), &q, &EvalBudget::unlimited())
        .expect_err("unknown relation");
    assert!(matches!(err, EvalError::InvalidQuery { .. }), "got {}", err);
    assert!(!err.is_budget_exhaustion());
}

#[test]
fn errors_format_and_chain() {
    let budget = EvalBudget::unlimited().with_max_fix_iterations(1);
    let err = eval(Arrangement, &two_gaps(), &queries::connectivity(), &budget)
        .expect_err("limit 1");
    let msg = err.to_string();
    assert!(msg.contains("iteration limit"), "{}", msg);
    // EvalError is a root error: the chain terminates.
    assert!(std::error::Error::source(&err).is_none());
}

/// Closed region-logic sentences that are well-formed by construction.
fn arb_reg_sentence() -> impl Strategy<Value = RegFormula> {
    let leaf = prop_oneof![
        Just(RegFormula::exists_region(
            "R",
            RegFormula::SubsetOf("R".into(), "S".into())
        )),
        Just(RegFormula::exists_region("R", RegFormula::Bounded("R".into()))),
        Just(RegFormula::forall_region(
            "R",
            RegFormula::exists_region("Q", RegFormula::Adj("R".into(), "Q".into()))
        )),
        Just(RegFormula::exists_elem(
            "x",
            RegFormula::Pred("S".into(), vec![LinExpr::var("x")])
        )),
        Just(queries::connectivity()),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(RegFormula::and),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(RegFormula::or),
            inner.prop_map(RegFormula::not),
        ]
    })
}

/// Random small union-of-intervals databases.
fn arb_intervals() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((-4i64..=4, 1i64..=3), 1..3).prop_map(|spans| {
        let parts: Vec<String> = spans
            .iter()
            .map(|(lo, w)| format!("({} < x and x < {})", lo, lo + w))
            .collect();
        rel1(&parts.join(" or "))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fallible entry points return `Ok` or a typed error — they never
    /// panic, whatever the sentence, database, or budget.
    #[test]
    fn try_eval_never_panics(r in arb_intervals(), q in arb_reg_sentence(), tight in any::<bool>()) {
        let budget = if tight {
            EvalBudget::unlimited()
                .with_max_fix_iterations(2)
                .with_max_tuple_tests(50)
                .with_max_faces(64)
        } else {
            EvalBudget::unlimited()
        };
        let arr = eval(Arrangement, &r, &q, &budget);
        if !tight {
            prop_assert!(arr.is_ok(), "unlimited budget aborted: {:?}", arr.err().map(|e| e.to_string()));
        } else if let Err(e) = arr {
            prop_assert!(e.is_budget_exhaustion(), "non-budget error: {}", e);
        }
        // NC1 path too, unlimited only (its face counts differ).
        let nc1 = eval(Nc1, &r, &q, &EvalBudget::unlimited());
        prop_assert!(nc1.is_ok(), "nc1 aborted: {:?}", nc1.err().map(|e| e.to_string()));
    }
}
