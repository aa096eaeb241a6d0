//! Deterministic fault-injection tests (enabled with `--features faults`).
//!
//! A seeded [`FaultPlan`] makes one injection site fail on a chosen
//! execution; these tests prove that every such fault surfaces as a typed
//! error accompanied by a valid (decodable, resumable) checkpoint in the
//! plan catalog — never a panic and never a corrupt snapshot — and that
//! under `tolerate_faults` a localized fault is quarantined while the rest
//! of the evaluation completes.
//!
//! The seed comes from `LCDB_FAULT_SEED` (default 3), so CI can sweep a
//! seed matrix without recompiling.
//!
//! [`FaultPlan`]: lcdb::budget::faults::FaultPlan

#![cfg(feature = "faults")]

use lcdb::budget::faults::FaultPlan;
use lcdb::core::{
    database_fingerprint, parse_regformula, DecompositionKind, PlanCatalog, RegionExtension,
    Resumable,
};
use lcdb::datalog::{DatalogError, Literal, Program, Rule};
use lcdb::{
    parse_formula, queries, BudgetError, Database, EvalBudget, EvalError, Evaluator,
    RegFormula, Relation, Snapshot,
};
use std::path::PathBuf;

/// The injection sites of the region-logic pipeline, bottom to top.
const REGION_SITES: &[&str] = &["arith.overflow", "lp.pivot", "geom.face_cap", "core.fix_stage"];

/// A database, a sentence and its verdict: one evaluation route through the
/// pipeline.
type Route = (Relation, RegFormula, bool);

/// Conn over two intervals: exact arithmetic, the arrangement build and a
/// multi-stage fixed point. Arrangements are built without the simplex, so
/// this route never pivots.
fn conn_route() -> Route {
    (two_gaps(), queries::connectivity(), false)
}

/// An element-quantifier sentence whose elimination has to solve a linear
/// program: the route that reaches `lp.pivot`. Once `z` is projected away,
/// `3x < y < x + 1` is a sliver of its propagated box that misses the box's
/// centre, so neither the box nor a point of it decides the disjunct.
fn elimination_route() -> Route {
    let sentence = parse_regformula(
        "exists x. exists y. exists z. S(x) and y > 3*x and y < x + 1 and z > y and z < 2",
    )
    .unwrap();
    (rel1("0 <= x and x <= 4"), sentence, true)
}

/// The route on which `site` is executed.
fn route_through(site: &str) -> Route {
    if site == "lp.pivot" {
        elimination_route()
    } else {
        conn_route()
    }
}

fn seed() -> u64 {
    std::env::var("LCDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).unwrap())
}

fn two_gaps() -> Relation {
    rel1("(0 < x and x < 1) or (2 < x and x < 3)")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-faults-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One sentence evaluation over the arrangement of `relation`, built and
/// run the way both front ends do it: through the catalog's resumable
/// wrapper, so an abort anywhere — decomposition or fixpoint — is stored.
fn run_through(cat: &PlanCatalog, relation: &Relation, sentence: &RegFormula) -> Resumable<bool> {
    let mut db = Database::new();
    db.insert("S", relation.clone());
    let db_fp = database_fingerprint(&db, Some("S"));
    let budget = EvalBudget::unlimited();
    let ext = RegionExtension::try_new(db.clone(), "S", DecompositionKind::Arrangement, &budget);
    let ev = ext
        .as_ref()
        .map(|ext| Evaluator::with_budget(ext, budget))
        .map_err(EvalError::clone);
    cat.eval_resumable(sentence, db_fp, DecompositionKind::Arrangement, ev, |ev| {
        ev.try_eval_sentence(sentence)
    })
}

/// Every region-pipeline site, fired on its first execution, surfaces as
/// `EvalError::InjectedFault` naming the site, with a decodable checkpoint
/// in the store — whether the fault lands during decomposition construction
/// or mid-fixpoint.
#[test]
fn each_site_yields_typed_error_and_valid_checkpoint() {
    for site in REGION_SITES {
        let (relation, sentence, expected) = route_through(site);
        let dir = temp_dir(&site.replace('.', "-"));
        let cat = PlanCatalog::open(&dir).expect("store opens");
        let guard = FaultPlan::new().fail_on(site, 1).arm();
        let aborted = run_through(&cat, &relation, &sentence);
        drop(guard);
        let err = aborted.result.expect_err("armed fault must abort");
        match &err {
            EvalError::InjectedFault { site: s, .. } => assert_eq!(s, site),
            other => panic!("site {site}: expected InjectedFault, got {other}"),
        }
        assert!(err.is_recoverable(), "{err}");
        assert!(aborted.warnings.is_empty(), "site {site}: {:?}", aborted.warnings);
        assert_eq!(cat.stat().entries, 1, "site {site}: no checkpoint stored");

        // The checkpoint is genuinely resumable: with the fault disarmed,
        // the run picks it up (a corrupt one would be a warning and a cold
        // run) and completes with the correct verdict.
        let resumed = run_through(&cat, &relation, &sentence);
        assert!(resumed.resumed, "site {site}: {:?}", resumed.warnings);
        let verdict = resumed
            .result
            .unwrap_or_else(|e| panic!("site {site}: resume failed: {e}"));
        assert_eq!(verdict, expected, "site {site}: wrong verdict after resume");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Seeded plans (the CI matrix entry point): whichever execution the seed
/// picks, the outcome is a typed error with a valid checkpoint, or a clean
/// completion if the chosen execution count is never reached. No panics.
#[test]
fn seeded_plans_never_panic_and_never_corrupt_snapshots() {
    let base = seed();
    for delta in 0..4u64 {
        for (r, (relation, sentence, expected)) in
            [conn_route(), elimination_route()].into_iter().enumerate()
        {
            let dir = temp_dir(&format!("seeded-{delta}-{r}"));
            let cat = PlanCatalog::open(&dir).expect("store opens");
            let guard = FaultPlan::seeded(base.wrapping_add(delta), REGION_SITES, 3).arm();
            let run = run_through(&cat, &relation, &sentence);
            drop(guard);
            match run.result {
                Ok(verdict) => assert_eq!(verdict, expected),
                Err(err) => {
                    assert!(
                        matches!(err, EvalError::InjectedFault { .. }),
                        "seed {base}+{delta}: {err}"
                    );
                    assert_eq!(cat.stat().entries, 1, "recoverable abort checkpoints");
                    let resumed = run_through(&cat, &relation, &sentence);
                    assert!(resumed.resumed, "checkpoint decodes: {:?}", resumed.warnings);
                    assert_eq!(resumed.result.expect("resume completes"), expected);
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Under `tolerate_faults`, a fault local to one fixpoint evaluation is
/// quarantined: the sentence still produces a verdict, marked partial, with
/// the site recorded — instead of aborting the whole run.
#[test]
fn localized_fault_is_quarantined_in_degraded_mode() {
    let ext = RegionExtension::arrangement(two_gaps());
    let q = queries::connectivity();
    let guard = FaultPlan::new().fail_on("core.fix_stage", 1).arm();
    let ev = Evaluator::with_budget(&ext, EvalBudget::unlimited()).tolerate_faults();
    let verdict = ev.try_eval_sentence(&q);
    drop(guard);
    verdict.expect("degraded run completes");
    let quarantined = ev.quarantine();
    assert!(!quarantined.is_empty(), "armed fault was not quarantined");
    assert!(
        quarantined.sites.contains("core.fix_stage"),
        "{:?}",
        quarantined
    );
    assert!(ev.stats().quarantined > 0);

    // Without degradation the same plan aborts the whole evaluation.
    let guard = FaultPlan::new().fail_on("core.fix_stage", 1).arm();
    let strict = Evaluator::with_budget(&ext, EvalBudget::unlimited());
    let err = strict.try_eval_sentence(&q).expect_err("strict mode aborts");
    drop(guard);
    assert!(matches!(err, EvalError::InjectedFault { .. }), "{err}");
}

/// The datalog round loop has its own site: the fault surfaces as a
/// `DatalogError::Budget` carrying `BudgetError::InjectedFault` plus the
/// completed rounds, and the checkpoint resumes to the same verdict the
/// uninterrupted run produces.
#[test]
fn datalog_round_fault_checkpoints_and_resumes() {
    let mut edb = lcdb::Database::new();
    edb.insert("S", rel1("0 <= x and x <= 1"));
    let program = Program::new()
        .rule(Rule::new(
            "reach",
            vec!["x".into()],
            vec![Literal::Pred("S".into(), vec!["x".into()])],
        ))
        .rule(Rule::new(
            "reach",
            vec!["x".into()],
            vec![
                Literal::Pred("reach".into(), vec!["y".into()]),
                Literal::Constraint(match parse_formula("x - y = 1").unwrap() {
                    lcdb::Formula::Atom(a) => a,
                    other => panic!("expected atom, got {other}"),
                }),
            ],
        ));
    let guard = FaultPlan::new().fail_on("datalog.round", 3).arm();
    let err = program
        .try_evaluate(&edb, 6, &EvalBudget::unlimited())
        .expect_err("armed fault must abort");
    drop(guard);
    let rounds = match &err {
        DatalogError::Budget { error, rounds, .. } => {
            assert!(
                matches!(error, BudgetError::InjectedFault { .. }),
                "{error}"
            );
            *rounds
        }
        other => panic!("expected Budget error, got {other}"),
    };
    assert_eq!(rounds, 2, "fault on the 3rd round leaves 2 completed");
    let snap = program.checkpoint(&err).expect("budget abort checkpoints");
    let snap = Snapshot::decode(&snap.encode()).expect("round-trips");
    match program.resume_from(&edb, 6, &EvalBudget::unlimited(), &snap) {
        Ok(lcdb::datalog::EvalOutcome::Diverged { partial, rounds }) => {
            assert_eq!(rounds, 6);
            // Same frontier the uninterrupted 6-round run reaches.
            assert!(partial["reach"].contains(&[lcdb::arith::int(5)]));
        }
        other => panic!("expected Diverged after 6 rounds, got {:?}", other.map(|_| ())),
    }
}
