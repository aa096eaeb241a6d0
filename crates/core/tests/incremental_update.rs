//! Incremental extension maintenance: deriving the region structure of a
//! changed database from an existing one (hyperplane inserts/removes on
//! the face lattice) must agree with a from-scratch rebuild — and refuse
//! to run when a rebuild would be cheaper.

#![allow(clippy::unwrap_used)]

use lcdb_core::{
    queries, ArrangementRegions, Decomposition, EvalBudget, Evaluator, Pool, RegionExtension,
};
use lcdb_logic::{parse_formula, Database, Relation};

fn relation(src: &str, vars: &[&str]) -> Relation {
    Relation::new(
        vars.iter().map(|v| v.to_string()).collect(),
        parse_formula(src).unwrap(),
    )
}

fn db_with(relations: &[(&str, &str, &[&str])]) -> Database {
    let mut db = Database::new();
    for (name, src, vars) in relations {
        db.insert(*name, relation(src, vars));
    }
    db
}

/// The arrangement region structure of `db` over `S`, built from scratch.
fn build(db: Database) -> ArrangementRegions {
    let trace = lcdb_core::TraceHandle::disabled_ref();
    ArrangementRegions::try_new(db, "S", &EvalBudget::unlimited(), trace).unwrap()
}

/// Assert two region structures describe the same decomposition: same
/// region count, and per region (in id order) the same dimension and
/// boundedness, with each witness contained in the corresponding region of
/// the other structure.
fn assert_same_regions(a: &ArrangementRegions, b: &ArrangementRegions) {
    assert_eq!(a.num_regions(), b.num_regions());
    assert_eq!(
        a.arrangement().face_counts_by_dim(),
        b.arrangement().face_counts_by_dim()
    );
    for id in a.region_ids() {
        let ra = a.region(id);
        let rb = b.region(id);
        assert_eq!(ra.dim, rb.dim, "region {id}");
        assert_eq!(ra.bounded, rb.bounded, "region {id}");
        assert!(b.contains_point(id, &ra.witness), "witness escaped {id}");
    }
}

#[test]
fn derive_after_adding_a_relation_matches_rebuild() {
    // The donor knows S; the new snapshot adds a binary relation T whose
    // atoms contribute two fresh hyperplanes. Database iteration is
    // name-ordered, so the rebuild appends T's hyperplanes after S's —
    // exactly the order the derivation inserts them in, which makes the
    // two structures bit-comparable, witnesses included.
    let base = db_with(&[("S", "0 < x and x < 2 and 0 < y", &["x", "y"])]);
    let donor = build(base.clone());

    let extended = db_with(&[
        ("S", "0 < x and x < 2 and 0 < y", &["x", "y"]),
        ("T", "y < 3 and x + y < 4", &["x", "y"]),
    ]);
    let (derived, delta) = donor
        .try_derive(
            extended.clone(),
            "S",
            &EvalBudget::unlimited(),
            &Pool::serial(),
        )
        .unwrap()
        .expect("small delta must derive incrementally");
    assert_eq!(delta.inserted, 2);
    assert_eq!(delta.removed, 0);
    assert_eq!(delta.kept, 3);

    let rebuilt = build(extended);
    assert_same_regions(&derived, &rebuilt);
    // Insert-only derivations share the rebuild's hyperplane order, so the
    // comparison can be exact down to the witnesses.
    for id in derived.region_ids() {
        assert_eq!(derived.region(id).witness, rebuilt.region(id).witness);
    }
}

#[test]
fn derive_after_dropping_a_relation_matches_rebuild_census() {
    let extended = db_with(&[
        ("S", "0 < x and x < 2", &["x", "y"]),
        ("T", "y < 3", &["x", "y"]),
    ]);
    let donor = build(extended);

    let shrunk = db_with(&[("S", "0 < x and x < 2", &["x", "y"])]);
    let (derived, delta) = donor
        .try_derive(shrunk.clone(), "S", &EvalBudget::unlimited(), &Pool::serial())
        .unwrap()
        .expect("small delta must derive incrementally");
    assert_eq!(delta.inserted, 0);
    assert_eq!(delta.removed, 1);
    assert_eq!(delta.kept, 2);

    let rebuilt = build(shrunk);
    assert_same_regions(&derived, &rebuilt);
}

#[test]
fn derive_refuses_when_delta_dominates() {
    // Every hyperplane changes: nothing is shared, so incremental
    // maintenance would replay as many levels as a rebuild without its
    // fused loop. try_derive must hand the decision back to the caller.
    let base = db_with(&[("S", "0 < x and x < 2", &["x", "y"])]);
    let donor = build(base);
    let replaced = db_with(&[("S", "0 < y and y < 2", &["x", "y"])]);
    let outcome = donor
        .try_derive(replaced, "S", &EvalBudget::unlimited(), &Pool::serial())
        .unwrap();
    assert!(outcome.is_none());
}

#[test]
fn derive_refuses_on_arity_change() {
    let base = db_with(&[("S", "0 < x and x < 2", &["x", "y"])]);
    let donor = build(base);
    let other = db_with(&[("S", "0 < x and x < 2", &["x"])]);
    let outcome = donor
        .try_derive(other, "S", &EvalBudget::unlimited(), &Pool::serial())
        .unwrap();
    assert!(outcome.is_none());
}

#[test]
fn derive_respects_budgets() {
    let base = db_with(&[("S", "0 < x and x < 2 and 0 < y and y < 2", &["x", "y"])]);
    let donor = build(base.clone());
    let extended = db_with(&[
        ("S", "0 < x and x < 2 and 0 < y and y < 2", &["x", "y"]),
        ("T", "x + y < 3", &["x", "y"]),
    ]);
    let tight = EvalBudget::unlimited().with_max_faces(2);
    let err = match donor.try_derive(extended, "S", &tight, &Pool::serial()) {
        Err(e) => e,
        Ok(_) => panic!("a two-face cap must trip during derivation"),
    };
    assert!(err.to_string().contains("face"), "{err}");
}

#[test]
fn queries_agree_between_derived_and_rebuilt_extensions() {
    // The end-to-end check: a fixed-point query evaluated over the
    // incrementally derived extension answers exactly like one evaluated
    // over a fresh build of the same snapshot.
    let base = db_with(&[("S", "(0 < x and x < 2) or (3 < x and x < 5)", &["x"])]);
    let donor = build(base.clone());
    let extended = db_with(&[
        ("S", "(0 < x and x < 2) or (3 < x and x < 5)", &["x"]),
        ("T", "x < 4", &["x"]),
    ]);
    let (derived, _) = donor
        .try_derive(
            extended.clone(),
            "S",
            &EvalBudget::unlimited(),
            &Pool::serial(),
        )
        .unwrap()
        .expect("one inserted hyperplane derives incrementally");
    let rebuilt = build(extended);

    let conn = queries::connectivity();
    let a = Evaluator::new(&RegionExtension::from(derived)).eval_sentence(&conn);
    let b = Evaluator::new(&RegionExtension::from(rebuilt)).eval_sentence(&conn);
    assert_eq!(a, b);
}
