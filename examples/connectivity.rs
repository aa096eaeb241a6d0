//! Topological connectivity in RegLFP — the paper's flagship example (§5).
//!
//! Builds a family of plane databases and decides connectivity with the
//! least-fixed-point query, showing the fixed-point statistics. Also
//! contrasts the LFP query with the TC-based variant of §7.
//!
//! Run with `cargo run --example connectivity`.

use lcdb::{parse_formula, queries, Decomposition, Evaluator, RegionExtension, Relation};

fn check(name: &str, src: &str) {
    let phi = parse_formula(src).expect("well-formed");
    let s = Relation::new(vec!["x".into(), "y".into()], phi);
    let ext = RegionExtension::arrangement(s);
    let ev = Evaluator::new(&ext);
    let connected = ev.eval_sentence(&queries::connectivity());
    let tc_connected = ev.eval_sentence(&queries::connectivity_tc(false));
    let stats = ev.stats();
    println!(
        "{name:<28} regions={:<4} connected={connected:<5} (TC agrees: {}) lfp-iters={}",
        ext.num_regions(),
        tc_connected == connected,
        stats.fix_iterations,
    );
    assert_eq!(connected, tc_connected, "LFP and TC connectivity must agree");
}

fn main() {
    println!("RegLFP connectivity on plane databases (arrangement decomposition):\n");
    check(
        "triangle",
        "x >= 0 and y >= 0 and x + y <= 2",
    );
    check(
        "two disjoint boxes",
        "(0 < x and x < 1 and 0 < y and y < 1) or (2 < x and x < 3 and 0 < y and y < 1)",
    );
    check(
        "boxes touching at a corner",
        "(0 <= x and x <= 1 and 0 <= y and y <= 1) or (1 <= x and x <= 2 and 1 <= y and y <= 2)",
    );
    check(
        "open boxes near-touching",
        "(0 < x and x < 1 and 0 < y and y < 1) or (1 < x and x < 2 and 1 < y and y < 2)",
    );
    check(
        "strip with a hole removed",
        "(y > 0 and y < 3) and (x > 0 and x < 9) and not (1 < x and x < 2 and 1 < y and y < 2)",
    );
    check(
        "two half-planes joined by a line",
        "x <= -1 or x >= 1 or y = 0",
    );
}
