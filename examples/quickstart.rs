//! Quickstart: define a spatial relation, build its region extension, run
//! region-logic queries, and get closed (quantifier-free) query answers.
//!
//! Run with `cargo run --example quickstart`.

use lcdb::{parse_formula, queries, Decomposition, Evaluator, RegionExtension, Relation};
use lcdb_core::RegFormula;
use lcdb_logic::LinExpr;

fn main() {
    // A relation S ⊆ ℝ²: a closed triangle plus a disjoint open box.
    let phi = parse_formula(
        "(x >= 0 and y >= 0 and x + y <= 2) or (3 < x and x < 4 and 0 < y and y < 1)",
    )
    .expect("well-formed formula");
    let s = Relation::new(vec!["x".into(), "y".into()], phi);
    println!("S := {}", s);

    // The region extension B^Reg over the arrangement A(S) (§3/§4).
    let ext = RegionExtension::arrangement(s);
    println!(
        "arrangement: {} regions over {} hyperplanes",
        ext.num_regions(),
        7
    );

    let ev = Evaluator::new(&ext);

    // Boolean queries from the library (§5).
    println!("connected?        {}", ev.eval_sentence(&queries::connectivity()));
    println!("bounded?          {}", ev.eval_sentence(&queries::bounded()));
    println!(
        "components >= 2?  {}",
        ev.eval_sentence(&queries::at_least_k_components(2))
    );
    println!(
        "components >= 3?  {}",
        ev.eval_sentence(&queries::at_least_k_components(3))
    );

    // A non-boolean query: the set of x-coordinates of points of S whose
    // containing region is 2-dimensional. The answer comes back as a
    // quantifier-free FO+LIN formula — the closure property of §2.
    let open_x = RegFormula::exists_elem(
        "y",
        RegFormula::exists_region(
            "R",
            RegFormula::and(vec![
                RegFormula::In(
                    vec![LinExpr::var("x"), LinExpr::var("y")],
                    "R".into(),
                ),
                RegFormula::SubsetOf("R".into(), "S".into()),
                RegFormula::DimEq("R".into(), 2),
            ]),
        ),
    );
    let answer = ev.eval_query(&open_x);
    println!("x-extent of the 2-dimensional part of S:");
    println!("  {}", answer);
}
