//! Integration: the region-logic concrete syntax against the query library,
//! and the §8 convex-closure operator against the Fig. 5 construction.

use lcdb::core::{parse_regformula, queries, Evaluator, RegionExtension};
use lcdb::geom::convex_closure;
use lcdb::logic::algebra;
use lcdb::{parse_formula, Relation};

fn rel1(src: &str) -> Relation {
    Relation::new(vec!["x".into()], parse_formula(src).unwrap())
}

#[test]
fn parsed_connectivity_equals_library_on_many_databases() {
    let src = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> \
               [lfp $M, R, Rp. (R = Rp and R subset S) or \
               (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";
    let parsed = parse_regformula(src).unwrap();
    for db in [
        "0 < x and x < 2",
        "(0 < x and x < 1) or (2 < x and x < 3)",
        "(0 <= x and x <= 1) or (1 <= x and x <= 2)",
        "x = 5",
        "x > 0",
    ] {
        let ext = RegionExtension::arrangement(rel1(db));
        let ev = Evaluator::new(&ext);
        assert_eq!(
            ev.eval_sentence(&parsed),
            ev.eval_sentence(&queries::connectivity()),
            "{}",
            db
        );
    }
}

#[test]
fn parsed_component_count_queries() {
    // "at least two components" in concrete syntax.
    let src = "exists C0, C1. C0 subset S and C1 subset S and \
               not [lfp $M, R, Rp. (R = Rp and R subset S) or \
               (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](C0, C1)";
    let parsed = parse_regformula(src).unwrap();
    let two = RegionExtension::arrangement(rel1("(0 < x and x < 1) or (2 < x and x < 3)"));
    assert!(Evaluator::new(&two).eval_sentence(&parsed));
    let one = RegionExtension::arrangement(rel1("0 < x and x < 3"));
    assert!(!Evaluator::new(&one).eval_sentence(&parsed));
}

#[test]
fn parsed_rbit_and_dim_queries() {
    let ext = RegionExtension::arrangement(rel1("x = 0 or x = 1 or x = 2 or x = 3"));
    let ev = Evaluator::new(&ext);
    // 5 = 101₂: numerator bits at ranks 1 and 3 (bits 0 and 2).
    let f = parse_regformula(
        "exists Rn, Rd. [rbit x. x = 5](Rn, Rd) and dim(Rn) = 0 and dim(Rd) = 0",
    )
    .unwrap();
    assert!(ev.eval_sentence(&f));
    // 0 has no set bits: the rBIT relation over point regions is empty.
    let g = parse_regformula(
        "exists Rn, Rd. [rbit x. x = 0](Rn, Rd) and dim(Rn) = 0",
    )
    .unwrap();
    assert!(!ev.eval_sentence(&g));
}

#[test]
fn parsed_open_query_through_cli_syntax() {
    let ext = RegionExtension::arrangement(rel1("(0 < x and x < 1) or (4 < x and x < 5)"));
    let ev = Evaluator::new(&ext);
    let q = parse_regformula("exists x. S(x) and y = x + 10").unwrap();
    let answer = ev.try_eval_query_to_relation(&q, &["y".into()]).unwrap();
    assert!(answer.contains(&[lcdb::arith::rat(21, 2)]));
    assert!(answer.contains(&[lcdb::arith::rat(29, 2)]));
    assert!(!answer.contains(&[lcdb::arith::int(12)]));
}

#[test]
fn convex_closure_bridges_components() {
    // conv of a disconnected relation is connected.
    let r = rel1("(0 <= x and x <= 1) or (3 <= x and x <= 4)");
    let hull = convex_closure(&r);
    assert!(algebra::equivalent(&hull, &rel1("0 <= x and x <= 4")));
    let ext = RegionExtension::arrangement(hull);
    assert!(Evaluator::new(&ext).eval_sentence(&queries::connectivity()));
    // The original is disconnected.
    let ext0 = RegionExtension::arrangement(r);
    assert!(!Evaluator::new(&ext0).eval_sentence(&queries::connectivity()));
}

#[test]
fn topology_operators_compose_with_region_logic() {
    use lcdb::logic::topology;
    // The boundary of (0,1) ∪ (2,3) is four isolated points — a database
    // with four components and only 0-dimensional S-regions.
    let r = rel1("(0 < x and x < 1) or (2 < x and x < 3)");
    let b = topology::boundary(&r);
    let ext = RegionExtension::arrangement(b);
    let ev = Evaluator::new(&ext);
    assert!(ev.eval_sentence(&queries::has_dimension(0)));
    assert!(!ev.eval_sentence(&queries::has_dimension(1)));
    assert!(ev.eval_sentence(&queries::at_least_k_components(4)));
    assert!(!ev.eval_sentence(&queries::at_least_k_components(5)));
    assert!(ev.eval_sentence(&queries::has_isolated_point()));
}
