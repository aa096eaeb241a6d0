//! A variable's name is no part of the answer, whatever it is called: the
//! names below are the temporaries that predicate application and region
//! membership once substituted through (an argument of the same name was
//! captured), and the axes membership names its region formula by now.

use lcdb_core::{parse_regformula, Evaluator, RegionExtension};
use lcdb_logic::{parse_formula, Formula, LinExpr, Relation};

#[test]
fn renaming_a_variable_renames_the_answer() {
    let s = Relation::new(
        vec!["x".into(), "y".into()],
        parse_formula("0 <= x and x < y and y <= 2").expect("parses"),
    );
    let ext = RegionExtension::arrangement(s);
    let ev = Evaluator::new(&ext);
    let parse = |src: String| parse_regformula(&src).expect("parses");
    for a in ["a", "__subst_1", "__subst_0", "x", "y"] {
        let nonempty = parse(format!("exists {a}. exists b. S({a}, b)"));
        assert!(ev.eval_sentence(&nonempty), "{a}");
    }
    let within =
        |a: &str| ev.eval_query(&parse(format!("exists R. ({a}, b) in R and R subset S")));
    let plain = within("a");
    assert!(matches!(&plain, Formula::Or(regions) if regions.len() == 4), "{plain}");
    for a in ["__in1", "__in0", "x1", "x0"] {
        assert_eq!(within(a), plain.substitute_all(&[("a", LinExpr::var(a))]), "{a}");
    }
}
