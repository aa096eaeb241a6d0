//! The GIS scenario of Fig. 6 (§5): a river with cities on its bank, some of
//! which pollute it with chemicals. The RegLFP program follows the river
//! from its spring, collecting the chemicals seen, and asks whether some
//! stretch carries chemical 2 downstream of a stretch carrying chemical 1.
//!
//! The map is one-dimensional river mileage (the paper stores the tags in an
//! extra dimension; an auxiliary-relation database is equivalent and
//! clearer): `river` is the navigable interval, `spring` its source point,
//! `chem1`/`chem2` the polluted stretches below the offending cities.
//!
//! Run with `cargo run --example gis_river`.

use lcdb::core::DecompositionKind;
use lcdb::{parse_formula, queries, Database, EvalBudget, Evaluator, RegionExtension, Relation};

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).unwrap())
}

fn scenario(name: &str, chem1: (i64, i64), chem2: (i64, i64)) {
    let mut db = Database::new();
    db.insert("S", rel1("0 <= x and x <= 100"));
    db.insert("river", rel1("0 <= x and x <= 100"));
    db.insert("spring", rel1("x = 0"));
    db.insert(
        "chem1",
        rel1(&format!("{} < x and x < {}", chem1.0, chem1.1)),
    );
    db.insert(
        "chem2",
        rel1(&format!("{} < x and x < {}", chem2.0, chem2.1)),
    );
    let kind = DecompositionKind::Arrangement;
    let ext = RegionExtension::try_new(db, "S", kind, &EvalBudget::unlimited())
        .expect("an unlimited build succeeds");
    let ev = Evaluator::new(&ext);
    let literal = ev.eval_sentence(&queries::river_pollution());
    let ordered = ev.eval_sentence(&queries::river_pollution_ordered());
    println!(
        "{name:<40} chem1 {:?}, chem2 {:?}  →  paper formula: {:<5} ordered: {}",
        chem1, chem2, literal, ordered
    );
}

fn main() {
    println!("Fig. 6: following the river from the spring, collecting chemicals.\n");
    scenario("factory upstream, refinery downstream", (10, 20), (60, 70));
    scenario("refinery upstream, factory downstream", (60, 70), (10, 20));
    scenario("overlapping discharges", (30, 50), (40, 60));
    scenario("chemical 2 only", (0, 0), (40, 60));
    scenario("chemical 1 only", (40, 60), (0, 0));
    println!(
        "\nThe paper's printed formula fires whenever both chemicals occur on the\n\
         reachable river; the nested-fixed-point variant enforces flow order\n\
         (chem2 at or downstream of chem1), matching the prose of §5."
    );
}
