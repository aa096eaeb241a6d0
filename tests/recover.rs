//! Crash-safety integration tests: a budget-killed evaluation checkpoints
//! its completed fixpoint stages, the snapshot round-trips through the
//! binary encoding and through the plan catalog, and a resumed run reaches
//! the verdict and the work counters of an uninterrupted one.

use lcdb::core::{
    database_fingerprint, query_fingerprint, DecompositionKind,
    PlanCatalog, RegFormula, RegionExtension, Resumable,
};
use lcdb::{
    parse_formula, queries, Database, EvalBudget, EvalError, EvalStats, Evaluator, Relation,
    Snapshot,
};
use proptest::prelude::*;
use std::path::PathBuf;

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], &parse_formula(src).unwrap())
}

/// A disconnected database: connectivity needs several LFP stages, so tight
/// iteration/tuple budgets trip mid-fixpoint.
fn two_gaps() -> Relation {
    rel1("(0 < x and x < 1) or (2 < x and x < 3)")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-recover-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The counters a snapshot carries (the plan-cache counters describe one
/// process's memo, not the query's work, and are not persisted).
fn work(s: EvalStats) -> [usize; 7] {
    [
        s.fix_iterations,
        s.fix_tuple_tests,
        s.qe_calls,
        s.region_expansions,
        s.tc_edge_tests,
        s.regions,
        s.quarantined,
    ]
}

/// An uninterrupted evaluation over the arrangement of `r`: the verdict and
/// its work counters.
fn uninterrupted(r: &Relation, q: &RegFormula) -> (bool, EvalStats) {
    let ext = RegionExtension::arrangement(r.clone());
    let ev = Evaluator::new(&ext);
    (ev.eval_sentence(q), ev.stats())
}

/// One sentence evaluation over the arrangement of `r`, the way both front
/// ends run it: through [`PlanCatalog::eval_resumable`].
fn run_through(
    cat: &PlanCatalog,
    r: &Relation,
    q: &RegFormula,
    budget: &EvalBudget,
) -> Resumable<(bool, EvalStats)> {
    let mut db = Database::new();
    db.insert("S", r.clone());
    let db_fp = database_fingerprint(&db, Some("S"));
    let ext = RegionExtension::try_new(db.clone(), "S", DecompositionKind::Arrangement, budget);
    let ev = ext
        .as_ref()
        .map(|ext| Evaluator::with_budget(ext, budget.clone()))
        .map_err(EvalError::clone);
    cat.eval_resumable(q, db_fp, DecompositionKind::Arrangement, ev, |ev| {
        Ok((ev.try_eval_sentence(q)?, ev.stats()))
    })
}

/// The acceptance cycle at the library level: abort mid-fixpoint, persist
/// through the binary encoding, resume, and get the unaborted verdict.
#[test]
fn resume_after_abort_matches_uninterrupted_run() {
    let r = two_gaps();
    let q = queries::connectivity();
    let (full_verdict, full_stats) = uninterrupted(&r, &q);

    let ext = RegionExtension::arrangement(r);
    let tight = EvalBudget::unlimited().with_max_fix_iterations(1);
    let ev = Evaluator::with_budget(&ext, tight);
    let err = ev.try_eval_sentence(&q).expect_err("one stage is not enough");
    assert!(matches!(err, EvalError::IterationLimit { .. }), "{err}");

    // Through the binary format, as a crashed process would leave it.
    let bytes = ev.checkpoint(&q).encode();
    let snap = Snapshot::decode(&bytes).expect("snapshot decodes");

    let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
    ev2.resume_from(&q, &snap).expect("snapshot matches query");
    let verdict = ev2.try_eval_sentence(&q).expect("resume completes");
    assert_eq!(verdict, full_verdict);
    // The snapshot carried the work its stages embody and the resumed run
    // did the rest: together, the counters of the uninterrupted run.
    assert_eq!(work(ev2.stats()), work(full_stats));
}

/// The one-call wrapper both front ends use stores the stages of an aborted
/// run in the catalog, hands them to the next run — in another process, as
/// far as the catalog can tell — and drops them once the query completes.
#[test]
fn recoverable_wrapper_writes_and_consumes_snapshots() {
    let dir = temp_dir("wrapper");
    let r = two_gaps();
    let q = queries::connectivity();
    let entries = |cat: &PlanCatalog| cat.stat().entries;
    let (_, full_stats) = uninterrupted(&r, &q);
    {
        let cat = PlanCatalog::open(&dir).expect("store opens");
        let tight = EvalBudget::unlimited().with_max_fix_iterations(1);
        let aborted = run_through(&cat, &r, &q, &tight);
        let err = aborted.result.expect_err("tight budget aborts");
        assert!(err.is_recoverable(), "{err}");
        assert!(!aborted.resumed && aborted.warnings.is_empty(), "{:?}", aborted.warnings);
        assert_eq!(entries(&cat), 1, "the abort stored its stages");

        // Non-recoverable failures must not leave snapshots behind.
        let bad = lcdb::RegFormula::Pred("S".into(), vec![lcdb::logic::LinExpr::var("x")]);
        let invalid = run_through(&cat, &r, &bad, &EvalBudget::unlimited());
        let err = invalid.result.expect_err("free variables are invalid");
        assert!(!err.is_recoverable(), "{err}");
        assert_eq!(entries(&cat), 1, "invalid query must not checkpoint");
    }
    let cat = PlanCatalog::open(&dir).expect("store reopens");
    let resumed = run_through(&cat, &r, &q, &EvalBudget::unlimited());
    assert!(resumed.resumed && resumed.warnings.is_empty(), "{:?}", resumed.warnings);
    let (verdict, stats) = resumed.result.expect("resume completes");
    assert!(!verdict, "two gapped intervals are disconnected");
    assert_eq!(work(stats), work(full_stats));
    assert_eq!(entries(&cat), 0, "success drops the stages");
    assert!(!run_through(&cat, &r, &q, &EvalBudget::unlimited()).resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An abort before the decomposition exists still leaves something to
/// resume — an entry-less snapshot — and a second abort does not replace
/// stored stages with it.
#[test]
fn abort_before_decomposition_leaves_an_entry() {
    let dir = temp_dir("early");
    let cat = PlanCatalog::open(&dir).expect("store opens");
    let r = two_gaps();
    let q = queries::connectivity();
    let no_faces = EvalBudget::unlimited().with_max_faces(2);
    let early = run_through(&cat, &r, &q, &no_faces);
    assert!(matches!(early.result, Err(EvalError::FaceLimit { .. })));
    assert_eq!(cat.stat().entries, 1);

    // Real stages replace the entry-less snapshot...
    let tight = EvalBudget::unlimited().with_max_fix_iterations(1);
    let aborted = run_through(&cat, &r, &q, &tight);
    assert!(aborted.resumed, "the entry-less snapshot resumes (from the bottom)");
    assert!(matches!(aborted.result, Err(EvalError::IterationLimit { .. })));
    // ...and survive a later abort that never reaches an evaluator.
    let early = run_through(&cat, &r, &q, &no_faces);
    assert!(matches!(early.result, Err(EvalError::FaceLimit { .. })));
    let (full, full_stats) = uninterrupted(&r, &q);
    let resumed = run_through(&cat, &r, &q, &EvalBudget::unlimited());
    let (verdict, stats) = resumed.result.expect("resume completes");
    assert_eq!((verdict, work(stats)), (full, work(full_stats)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot is rejected when offered to the wrong query or a
/// decomposition of a different shape — never silently resumed.
#[test]
fn resume_validates_query_and_decomposition() {
    let r = two_gaps();
    let q = queries::connectivity();
    let ext = RegionExtension::arrangement(r);
    let ev = Evaluator::with_budget(&ext, EvalBudget::unlimited().with_max_fix_iterations(1));
    let _ = ev.try_eval_sentence(&q).expect_err("aborts");
    let snap = ev.checkpoint(&q);

    // Wrong query.
    let other = queries::nonempty();
    let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
    let err = ev2.resume_from(&other, &snap).expect_err("wrong query");
    assert!(err.to_string().contains("different query"), "{err}");

    // Different decomposition (more intervals → more regions).
    let bigger = rel1("(0<x and x<1) or (2<x and x<3) or (4<x and x<5)");
    let ext2 = RegionExtension::arrangement(bigger);
    let ev3 = Evaluator::with_budget(&ext2, EvalBudget::unlimited());
    let err = ev3.resume_from(&q, &snap).expect_err("wrong decomposition");
    assert!(err.to_string().contains("regions"), "{err}");
}

/// Snapshots carry the *canonical plan hash* as the query fingerprint: it
/// survives the binary encoding byte-for-byte, and semantically-neutral AST
/// differences that lowering normalizes away (double negation, duplicate
/// conjuncts) neither change the fingerprint nor invalidate a resume.
#[test]
fn checkpoint_fingerprint_is_canonical_plan_hash() {
    let q = queries::connectivity();
    let ext = RegionExtension::arrangement(two_gaps());
    let ev = Evaluator::with_budget(&ext, EvalBudget::unlimited().with_max_fix_iterations(1));
    let _ = ev.try_eval_sentence(&q).expect_err("aborts");
    let snap = ev.checkpoint(&q);
    assert_eq!(
        snap.fingerprint(),
        query_fingerprint(&q),
        "snapshot must embed the canonical plan hash"
    );

    // Byte-for-byte through the encoding.
    let back = Snapshot::decode(&snap.encode()).expect("snapshot decodes");
    assert_eq!(back.fingerprint(), query_fingerprint(&q));

    // Lowering-normalized variants: ¬¬q and q ∧ q produce the identical
    // plan, hence the identical fingerprint...
    let not_not = RegFormula::Not(RegFormula::Not(q.clone().into()).into());
    let dup_and = RegFormula::And(vec![q.clone(), q.clone()]);
    assert_eq!(query_fingerprint(&q), query_fingerprint(&not_not));
    assert_eq!(query_fingerprint(&q), query_fingerprint(&dup_and));
    // ...so the snapshot resumes under the variant and completes to the
    // uninterrupted verdict.
    let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
    ev2.resume_from(&not_not, &back)
        .expect("plan-identical variant resumes");
    let verdict = ev2.try_eval_sentence(&not_not).expect("completes");
    assert!(!verdict, "two gaps are disconnected");

    // A genuinely different query still has a different fingerprint.
    assert_ne!(
        query_fingerprint(&q),
        query_fingerprint(&queries::nonempty())
    );
}

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

    /// Checkpoint → encode → decode → restore round-trips the exact stage
    /// state: re-checkpointing a resumed evaluator reproduces the snapshot.
    #[test]
    fn checkpoint_roundtrips_exact_state(r in arb_intervals(), cap in 1u64..3) {
        let q = queries::connectivity();
        let relation = r.clone();
        let ext = RegionExtension::arrangement(r);
        let ev = Evaluator::with_budget(
            &ext,
            EvalBudget::unlimited().with_max_fix_iterations(cap),
        );
        let res = ev.try_eval_sentence(&q);
        prop_assume!(res.is_err()); // single-interval cases may converge
        let snap = ev.checkpoint(&q);
        let decoded = Snapshot::decode(&snap.encode()).expect("decodes");
        prop_assert_eq!(&decoded, &snap);
        // A fresh evaluator seeded with the snapshot reproduces it exactly
        // before running any further stages.
        let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
        ev2.resume_from(&q, &decoded).expect("matching snapshot");
        // Resume data only becomes observable progress after the next entry
        // call; equality of verdicts and counters (below) is the
        // behavioural check.
        let v_resumed = ev2.try_eval_sentence(&q).expect("completes");
        let (v_full, full_stats) = uninterrupted(&relation, &q);
        prop_assert_eq!(v_resumed, v_full);
        prop_assert_eq!(work(ev2.stats()), work(full_stats));
    }

    /// Aborting after a random number of stages and resuming always lands
    /// on the same verdict as an uninterrupted evaluation.
    #[test]
    fn random_abort_then_resume_is_equivalent(r in arb_intervals(), cap in 1u64..4) {
        let q = queries::connectivity();
        let (full, _) = uninterrupted(&r, &q);
        let ext = RegionExtension::arrangement(r);
        let ev = Evaluator::with_budget(
            &ext,
            EvalBudget::unlimited().with_max_fix_iterations(cap),
        );
        match ev.try_eval_sentence(&q) {
            Ok(v) => prop_assert_eq!(v, full), // the cap happened to suffice
            Err(e) => {
                prop_assert!(e.is_budget_exhaustion(), "unexpected: {}", e);
                let snap = Snapshot::decode(&ev.checkpoint(&q).encode()).expect("decodes");
                let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
                ev2.resume_from(&q, &snap).expect("matching snapshot");
                let v = ev2.try_eval_sentence(&q).expect("resume completes");
                prop_assert_eq!(v, full);
            }
        }
    }
}
