//! Exact bound propagation against the exact LP: `dnf::propagate` may refute
//! only what `lcdb_lp::feasible` refutes, and the box it leaves must still
//! hold every point of the system. How much of the infeasible it refutes is
//! printed, not asserted — the LP behind it decides whatever it leaves.

use lcdb_arith::{rat, Rational};
use lcdb_linalg::dot;
use lcdb_logic::dnf::{propagate, Interval};
use lcdb_lp::{feasible, LinConstraint, Rel};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const RELS: [Rel; 5] = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge, Rel::Gt];

/// The box as rows, so that the LP judges the same system.
fn box_rows(bounds: &[Interval]) -> Vec<LinConstraint> {
    let d = bounds.len();
    let axis = |k: usize, rel: Rel, value: &Rational| {
        let mut coeffs = vec![Rational::ZERO; d];
        coeffs[k] = Rational::ONE;
        LinConstraint::new(coeffs, rel, value.clone())
    };
    let mut rows = Vec::new();
    for (k, interval) in bounds.iter().enumerate() {
        if let Some((lo, strict)) = &interval.lo {
            rows.push(axis(k, if *strict { Rel::Gt } else { Rel::Ge }, lo));
        }
        if let Some((hi, strict)) = &interval.hi {
            rows.push(axis(k, if *strict { Rel::Lt } else { Rel::Le }, hi));
        }
    }
    rows
}

/// Was the system infeasible, and if so, did propagation refute it?
fn check(rows: &[LinConstraint], bounds: &[Interval], inside: &[Vec<Rational>]) -> Result<Option<bool>, String> {
    let d = bounds.len();
    let fail = |what: &str| Err(format!("{what}: rows={rows:?} box={bounds:?}"));
    let mut system = rows.to_vec();
    system.extend(box_rows(bounds));
    let witness = feasible(d, &system);
    let mut propagated = bounds.to_vec();
    let refs: Vec<&LinConstraint> = rows.iter().collect();
    let kept = propagate(&refs, &mut propagated);
    let Some(witness) = witness else {
        return Ok(Some(!kept));
    };
    if !kept {
        return fail("propagation refuted a feasible system");
    }
    let points = inside
        .iter()
        .filter(|p| system.iter().all(|c| c.satisfied_by(p)))
        .chain([&witness]);
    for point in points {
        if !propagated.iter().zip(point).all(|(b, x)| b.contains(x)) {
            return fail(&format!("point {point:?} fell out of the propagated box {propagated:?}"));
        }
    }
    Ok(None)
}

fn small(rng: &mut StdRng, span: i64) -> Rational {
    rat(rng.gen_range(-span..=span), rng.gen_range(1..=3))
}

/// `m` rows in `d` variables; with an anchor most rows pass through or just
/// beside it, so degenerate and barely-feasible systems are common.
fn system(rng: &mut StdRng, d: usize, m: usize, anchor: Option<&[Rational]>) -> Vec<LinConstraint> {
    let mut rows = Vec::with_capacity(m);
    for _ in 0..m {
        let sparse = rng.gen_bool(0.5);
        let coeffs: Vec<Rational> = (0..d)
            .map(|_| {
                if sparse && rng.gen_bool(0.6) {
                    Rational::ZERO
                } else {
                    small(rng, 3)
                }
            })
            .collect();
        let rel = RELS[rng.gen_range(0..5usize)];
        let rhs = match anchor {
            Some(point) if rng.gen_bool(0.8) => {
                let slack = rat(rng.gen_range(0..=2), 2);
                match rel {
                    Rel::Lt | Rel::Le => dot(&coeffs, point) + slack,
                    Rel::Gt | Rel::Ge => dot(&coeffs, point) - slack,
                    Rel::Eq => dot(&coeffs, point),
                }
            }
            _ => small(rng, 6),
        };
        rows.push(LinConstraint::new(coeffs, rel, rhs));
    }
    rows
}

/// A box around `center`: each end absent, closed or strict.
fn boxed(rng: &mut StdRng, center: &[Rational]) -> Vec<Interval> {
    let end = |rng: &mut StdRng, c: &Rational, sign: i64| match rng.gen_range(0..3) {
        0 => None,
        kind => Some((c + &rat(sign * rng.gen_range(0..=6i64), 2), kind == 2)),
    };
    center
        .iter()
        .map(|c| Interval {
            lo: end(rng, c, -1),
            hi: end(rng, c, 1),
        })
        .collect()
}

#[test]
fn seeded_systems_are_never_refuted_when_feasible() {
    let mut rng = StdRng::seed_from_u64(24);
    let (mut infeasible, mut refuted) = (0u32, 0u32);
    for _ in 0..20_000 {
        let d = rng.gen_range(1..=4usize);
        let m = rng.gen_range(0..=24usize);
        let center: Vec<Rational> = (0..d).map(|_| small(&mut rng, 4)).collect();
        let anchored = rng.gen_bool(0.5);
        let rows = system(&mut rng, d, m, anchored.then_some(&center[..]));
        let bounds = boxed(&mut rng, &center);
        match check(&rows, &bounds, &[center]) {
            Ok(Some(hit)) => {
                infeasible += 1;
                refuted += u32::from(hit);
            }
            Ok(None) => {}
            Err(report) => panic!("{report}"),
        }
    }
    println!("propagation refuted {refuted} of {infeasible} infeasible systems (of 20000)");
    assert!(infeasible > 2_000 && infeasible < 18_000, "{infeasible} infeasible: generator off");
}

fn arb_rational(span: i64) -> impl Strategy<Value = Rational> {
    (-span..=span, 1i64..=3).prop_map(|(n, d)| rat(n, d))
}

/// Rows and boxes are drawn four wide and cut to the case's dimension.
fn arb_row() -> impl Strategy<Value = LinConstraint> {
    (
        proptest::collection::vec(prop_oneof![Just(Rational::ZERO), arb_rational(3)], 4),
        0..5usize,
        arb_rational(6),
    )
        .prop_map(|(coeffs, rel, rhs)| LinConstraint::new(coeffs, RELS[rel], rhs))
}

fn arb_interval() -> impl Strategy<Value = Interval> {
    let end = || (0..3usize, arb_rational(6)).prop_map(|(kind, v)| (kind > 0).then_some((v, kind == 2)));
    (end(), end()).prop_map(|(lo, hi)| Interval { lo, hi })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_systems_are_never_refuted_when_feasible(
        d in 1..=4usize,
        rows in proptest::collection::vec(arb_row(), 0..=24),
        bounds in proptest::collection::vec(arb_interval(), 4),
    ) {
        let rows: Vec<LinConstraint> = rows
            .into_iter()
            .map(|row| LinConstraint::new(row.coeffs[..d].to_vec(), row.rel, row.rhs))
            .collect();
        if let Err(report) = check(&rows, &bounds[..d], &[]) {
            prop_assert!(false, "{}", report);
        }
    }
}
