//! The motivation of §1, run live: naive recursion over linear constraint
//! databases need not terminate, while region fixed points always do.
//!
//! Run with `cargo run --example datalog_divergence`.

use lcdb::datalog::{EvalOutcome, Literal, Program, Rule};
use lcdb::{parse_formula, queries, Database, Decomposition, Evaluator, Formula, RegionExtension, Relation};

fn atom(src: &str) -> lcdb::logic::Atom {
    match parse_formula(src).unwrap() {
        Formula::Atom(a) => a,
        other => panic!("expected atom: {}", other),
    }
}

fn main() {
    let mut edb = Database::new();
    edb.insert(
        "S",
        Relation::new(vec!["x".into()], parse_formula("0 <= x and x <= 1").unwrap()),
    );

    println!("spatial datalog: reach(x) :- S(x).  reach(x) :- reach(y), x = y + 1.\n");

    // Naive datalog with an unbounded step diverges: each round produces a
    // strictly larger relation.
    let unbounded = Program::new()
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
                Literal::Constraint(atom("x - y = 1")),
            ],
        ));
    match unbounded.evaluate(&edb, 10) {
        EvalOutcome::Diverged { partial, rounds } => {
            println!("naive evaluation DIVERGED after the {rounds}-round budget;");
            println!(
                "the partial result keeps growing: reach = {}",
                partial["reach"]
            );
        }
        EvalOutcome::Fixpoint { rounds, .. } => {
            unreachable!("the translation program cannot converge (round {rounds})")
        }
    }

    // Bounding the recursion restores termination...
    let bounded = Program::new()
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
                Literal::Constraint(atom("x - y = 1")),
                Literal::Constraint(atom("x <= 4")),
            ],
        ));
    match bounded.evaluate(&edb, 20) {
        EvalOutcome::Fixpoint { idb, rounds } => {
            println!("\nwith the guard x <= 4: FIXPOINT after {rounds} rounds;");
            println!("reach = {}", idb["reach"]);
        }
        other => unreachable!("{:?}", other),
    }

    // ... and the paper's answer: recursion over the *finite region sort*
    // terminates unconditionally, whatever the query.
    let ext = RegionExtension::arrangement(
        Relation::new(vec!["x".into()], parse_formula("0 <= x and x <= 1").unwrap()),
    );
    let ev = Evaluator::new(&ext);
    let conn = ev.eval_sentence(&queries::connectivity());
    println!(
        "\nregion LFP on the same database: always terminates \
         (connectivity = {conn}, {} stages over a {}-region lattice)",
        ev.stats().fix_iterations,
        ext.num_regions(),
    );
    println!("— the region restriction of Definition 5.1 is what buys termination.");
}
