//! Resource-governed evaluation: budgets, deadlines, cancellation.
//!
//! RegPFP sentences are PSPACE-complete to evaluate and the arrangement has
//! O(n^d) faces, so untrusted or exploratory queries want a leash. This
//! example runs the same connectivity query under a series of budgets and
//! shows the typed errors and partial statistics each abort reports.
//!
//! Run with `cargo run --example budgeted`.

use lcdb::core::DecompositionKind;
use lcdb::{
    parse_formula, queries, CancelToken, Database, EvalBudget, EvalError, EvalStats, Evaluator,
    RegionExtension, Relation,
};
use std::time::Duration;

fn main() {
    let phi = parse_formula("(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5)")
        .expect("well-formed");
    let mut db = Database::new();
    db.insert("S", Relation::new(vec!["x".into()], phi));
    let conn = queries::connectivity();

    // The decomposition is built and the sentence evaluated under the same
    // budget: either may abort.
    let run = |budget: &EvalBudget| -> Result<(bool, EvalStats), EvalError> {
        let kind = DecompositionKind::Arrangement;
        let ext = RegionExtension::try_new(db.clone(), "S", kind, budget)?;
        let ev = Evaluator::with_budget(&ext, budget.clone());
        Ok((ev.try_eval_sentence(&conn)?, ev.stats()))
    };
    let show = |name: &str, budget: EvalBudget| {
        match run(&budget) {
            Ok((verdict, st)) => println!(
                "{name:<24} ok: connected={verdict} (lfp stages {}, tuple tests {})",
                st.fix_iterations, st.fix_tuple_tests
            ),
            Err(e) => {
                let st = e.stats();
                println!(
                    "{name:<24} aborted: {e} (partial: {} stages, {} tuple tests, {} regions)",
                    st.fix_iterations, st.fix_tuple_tests, st.regions
                );
            }
        }
    };

    show("unlimited", EvalBudget::unlimited());
    show(
        "1 lfp stage",
        EvalBudget::unlimited().with_max_fix_iterations(1),
    );
    show(
        "10 tuple tests",
        EvalBudget::unlimited().with_max_tuple_tests(10),
    );
    show("4 faces", EvalBudget::unlimited().with_max_faces(4));
    show("zero deadline", EvalBudget::unlimited().with_timeout(Duration::ZERO));

    // Cancellation: the token is clonable and any thread may trip it; here
    // it is tripped up front, so the first interrupt check aborts.
    let token = CancelToken::new();
    token.cancel();
    show(
        "cancelled token",
        EvalBudget::unlimited().with_cancel_token(token),
    );

    // A generous deadline lets the query finish: the budget only bounds,
    // it never changes answers.
    show(
        "60 s deadline",
        EvalBudget::unlimited().with_timeout(Duration::from_secs(60)),
    );
}
