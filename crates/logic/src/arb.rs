//! Proptest generators shared by the differential tests of [`crate::dnf`]
//! and [`crate::qe`], and the print → parse round trip of [`crate::parser`].

use crate::{Atom, Formula, LinExpr};
use lcdb_arith::int;
use lcdb_lp::Rel;
use proptest::prelude::*;

/// Random atoms over `x`, `y`, `z` with all five relations; zero
/// coefficients are common, so single-variable and constant atoms are too.
pub(crate) fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        -2i64..=2,
        -2i64..=2,
        -2i64..=2,
        -3i64..=3,
        prop_oneof![
            Just(Rel::Lt),
            Just(Rel::Le),
            Just(Rel::Eq),
            Just(Rel::Ge),
            Just(Rel::Gt)
        ],
    )
        .prop_map(|(a, b, c, k, rel)| {
            let expr = [("x", a), ("y", b), ("z", c)]
                .iter()
                .fold(LinExpr::zero(), |e, (v, k)| {
                    e.add(&LinExpr::var(*v).scale(&int(*k)))
                });
            Atom::new(expr, rel, LinExpr::constant(int(k)))
        })
}

/// Random quantifier-free formulas of at most `size` nodes: negations and
/// nested `And`/`Or` over [`arb_atom`].
pub(crate) fn arb_formula(size: u32) -> impl Strategy<Value = Formula> {
    let leaf = arb_atom().prop_map(Formula::Atom);
    leaf.prop_recursive(3, size, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::or),
            inner.prop_map(Formula::not),
        ]
    })
}

/// Random formulas of [`arb_formula`]'s shape that also bind `x`, `y` or `z`
/// (`exists`/`forall`) and apply a binary `S` to random arguments.
pub(crate) fn arb_fo_formula(size: u32) -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        arb_atom().prop_map(Formula::Atom),
        (arb_atom(), arb_atom()).prop_map(|(a, b)| Formula::Pred("S".into(), vec![a.expr, b.expr])),
    ];
    leaf.prop_recursive(3, size, 4, |inner| {
        let var = || prop_oneof![Just("x"), Just("y"), Just("z")];
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Formula::or),
            inner.clone().prop_map(Formula::not),
            (var(), inner.clone()).prop_map(|(v, f)| Formula::Exists(v.into(), Box::new(f))),
            (var(), inner).prop_map(|(v, f)| Formula::Forall(v.into(), Box::new(f))),
        ]
    })
}
