//! The dual-tableau solver against the primal simplex it replaced
//! (`tests/common`): two independent exact solvers must agree on every
//! verdict and every optimal value, and every point either returns must
//! satisfy its system — witnesses and optimal points themselves may differ.

mod common;

use lcdb_arith::{int, rat, Rational};
use lcdb_linalg::dot;
use lcdb_lp::{
    feasible_refs, is_bounded, maximize, FeasibilityBatch, LinConstraint, LpOutcome, Rel,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const RELS: [Rel; 5] = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge, Rel::Gt];

/// Everything the two solvers must agree on for one system and objective.
fn check(d: usize, rows: &[LinConstraint], objective: &[Rational]) -> Result<(), String> {
    let fail = |what: &str| {
        Err(format!(
            "{what}: d={d} rows={rows:?} objective={objective:?}"
        ))
    };
    let satisfied = |system: &[&LinConstraint], point: &[Rational]| {
        point.len() == d && system.iter().all(|c| c.satisfied_by(point))
    };

    // Every prefix, cold; and every split of it into a batch prefix and one
    // probed row. Feasibility is monotone, so the oracle stops at the first
    // empty prefix.
    let refs: Vec<&LinConstraint> = rows.iter().collect();
    let mut alive = true;
    for k in 0..=rows.len() {
        let system = &refs[..k];
        alive = alive && common::feasible(d, system).is_some();
        let cold = feasible_refs(d, system);
        if cold.is_some() != alive {
            return fail(&format!(
                "feasible_refs on the first {k} rows says {cold:?}"
            ));
        }
        if cold.is_some_and(|w| !satisfied(system, &w)) {
            return fail(&format!("feasible_refs witness off the first {k} rows"));
        }
        let Some((last, prefix)) = system.split_last() else {
            continue;
        };
        let warm = FeasibilityBatch::new(d, prefix).probe(last);
        if warm.is_some() != alive {
            return fail(&format!("probe of row {} says {warm:?}", k - 1));
        }
        if warm.is_some_and(|w| !satisfied(system, &w)) {
            return fail(&format!("probe witness of row {} off its system", k - 1));
        }
    }

    let closed: Vec<LinConstraint> = rows.iter().map(LinConstraint::closed).collect();
    let closed_refs: Vec<&LinConstraint> = closed.iter().collect();
    match (
        maximize(d, objective, &closed),
        common::maximize(d, objective, &closed),
    ) {
        (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
        (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
        (LpOutcome::Optimal { value, point }, LpOutcome::Optimal { value: want, .. }) => {
            if value != want || dot(objective, &point) != value {
                return fail(&format!(
                    "maximize value {value} at {point:?}, oracle {want}"
                ));
            }
            if !satisfied(&closed_refs, &point) {
                return fail(&format!("maximize point {point:?} infeasible"));
            }
        }
        (got, want) => return fail(&format!("maximize {got:?}, oracle {want:?}")),
    }
    let (got, want) = (is_bounded(d, rows), common::is_bounded(d, &closed));
    if got != want {
        return fail(&format!("is_bounded {got:?}, oracle {want:?}"));
    }
    Ok(())
}

fn small(rng: &mut StdRng, span: i64) -> Rational {
    rat(rng.gen_range(-span..=span), rng.gen_range(1..=3))
}

/// A system of `m` rows in `d` variables. Half of the systems are anchored:
/// most rows pass through or just beside one hidden point, which makes
/// degenerate vertices, implied equalities and duplicate rows common.
fn system(rng: &mut StdRng, d: usize, m: usize) -> Vec<LinConstraint> {
    let anchor: Option<Vec<Rational>> = rng
        .gen_bool(0.5)
        .then(|| (0..d).map(|_| small(rng, 4)).collect());
    let mut rows: Vec<LinConstraint> = Vec::with_capacity(m);
    for _ in 0..m {
        if !rows.is_empty() && rng.gen_range(0..12) == 0 {
            // A duplicate, or the opposite side of an earlier row.
            let mut again = rows[rng.gen_range(0..rows.len())].clone();
            if rng.gen_bool(0.5) {
                again.rel = again.rel.flip();
            }
            rows.push(again);
            continue;
        }
        let sparse = rng.gen_bool(0.3);
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
        let rhs = match &anchor {
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

#[test]
fn seeded_systems_agree_with_the_primal_oracle() {
    let mut rng = StdRng::seed_from_u64(20);
    for case in 0..20_000 {
        let d = rng.gen_range(0..=4usize);
        // Mostly short systems (every prefix of a long one is checked too).
        let m = if case % 8 == 0 {
            rng.gen_range(0..=24usize)
        } else {
            rng.gen_range(0..=7usize)
        };
        let rows = system(&mut rng, d, m);
        let objective: Vec<Rational> = (0..d).map(|_| small(&mut rng, 3)).collect();
        if let Err(message) = check(d, &rows, &objective) {
            panic!("case {case}: {message}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_systems_agree_with_the_primal_oracle(
        d in 0usize..=4,
        rows in proptest::collection::vec(
            (
                proptest::collection::vec((-4i64..=4, 1i64..=3), 4),
                0usize..5,
                (-9i64..=9, 1i64..=3),
            ),
            0..=24,
        ),
        objective in proptest::collection::vec(-3i64..=3, 4),
    ) {
        let rows: Vec<LinConstraint> = rows
            .into_iter()
            .map(|(coeffs, rel, (num, den))| {
                let coeffs = coeffs[..d].iter().map(|&(n, k)| rat(n, k)).collect();
                LinConstraint::new(coeffs, RELS[rel], rat(num, den))
            })
            .collect();
        let objective: Vec<Rational> = objective[..d].iter().map(|&v| int(v)).collect();
        if let Err(message) = check(d, &rows, &objective) {
            prop_assert!(false, "{}", message);
        }
    }
}

fn row(coeffs: &[i64], rel: Rel, rhs: i64) -> LinConstraint {
    LinConstraint::new(coeffs.iter().map(|&v| int(v)).collect(), rel, int(rhs))
}

fn ints(values: &[i64]) -> Vec<Rational> {
    values.iter().map(|&v| int(v)).collect()
}

/// `check`, and the verdict on the whole system spelled out.
fn expect(d: usize, rows: &[LinConstraint], objective: &[i64], feasible: bool) {
    check(d, rows, &ints(objective)).unwrap();
    let refs: Vec<&LinConstraint> = rows.iter().collect();
    assert_eq!(feasible_refs(d, &refs).is_some(), feasible, "{rows:?}");
}

#[test]
fn a_variable_in_no_row_keeps_its_artificial() {
    // y is mentioned nowhere: its dual row is `0 = 0` for good.
    let rows = [
        row(&[1, 0, 1], Rel::Lt, 4),
        row(&[1, 0, -1], Rel::Gt, 0),
        row(&[0, 0, 1], Rel::Ge, 1),
    ];
    expect(3, &rows, &[1, 0, 0], true);
    assert_eq!(
        maximize(3, &ints(&[0, 1, 0]), &rows.each_ref().map(|c| c.closed())),
        LpOutcome::Unbounded
    );
    match maximize(3, &ints(&[1, 0, 0]), &rows.each_ref().map(|c| c.closed())) {
        LpOutcome::Optimal { value, .. } => assert_eq!(value, int(3)),
        other => panic!("{other:?}"),
    }
    assert_eq!(is_bounded(3, &rows), Some(false));
}

#[test]
fn zero_rows_are_decided_by_their_constants() {
    for d in [0, 2] {
        let zero = vec![0; d];
        expect(d, &[row(&zero, Rel::Lt, 0)], &zero, false);
        expect(d, &[row(&zero, Rel::Le, 1)], &zero, true);
        expect(d, &[row(&zero, Rel::Eq, 1)], &zero, false);
        expect(
            d,
            &[row(&zero, Rel::Eq, 0), row(&zero, Rel::Ge, 0)],
            &zero,
            true,
        );
        expect(
            d,
            &[row(&zero, Rel::Le, 1), row(&zero, Rel::Gt, 0)],
            &zero,
            false,
        );
    }
    // The same rows probed into a prefix with points.
    let prefix = [row(&[1, 1], Rel::Le, 3), row(&[1, -1], Rel::Gt, 0)];
    for (rel, rhs, feasible) in [(Rel::Lt, 0, false), (Rel::Le, 1, true), (Rel::Eq, 1, false)] {
        let mut rows = prefix.to_vec();
        rows.push(row(&[0, 0], rel, rhs));
        expect(2, &rows, &[1, 0], feasible);
    }
}

#[test]
fn dimension_zero() {
    expect(0, &[], &[], true);
    assert_eq!(is_bounded(0, &[]), Some(true));
    assert_eq!(is_bounded(0, &[row(&[], Rel::Ge, 1)]), None);
    assert_eq!(
        maximize(0, &[], &[row(&[], Rel::Le, 0)]),
        LpOutcome::Optimal {
            value: int(0),
            point: vec![]
        }
    );
    assert_eq!(
        maximize(0, &[], &[row(&[], Rel::Le, -1)]),
        LpOutcome::Infeasible
    );
}

#[test]
fn duplicate_and_opposite_rows() {
    let both = [
        row(&[2, 1], Rel::Le, 2),
        row(&[2, 1], Rel::Le, 2),
        row(&[2, 1], Rel::Ge, 2),
    ];
    expect(2, &both, &[2, 1], true);
    let open = [
        row(&[2, 1], Rel::Lt, 2),
        row(&[2, 1], Rel::Lt, 2),
        row(&[2, 1], Rel::Gt, 2),
    ];
    expect(2, &open, &[2, 1], false);
    let gap = [row(&[2, 1], Rel::Le, 2), row(&[-2, -1], Rel::Le, -3)];
    expect(2, &gap, &[0, 1], false);
    let slab = [
        row(&[2, 1], Rel::Lt, 3),
        row(&[-2, -1], Rel::Lt, -2),
        row(&[4, 2], Rel::Lt, 6),
    ];
    expect(2, &slab, &[2, 1], true);
}

#[test]
fn an_implied_equality_meets_a_strict_extension() {
    let prefix = [
        row(&[1, 1], Rel::Le, 2),
        row(&[1, 1], Rel::Ge, 2),
        row(&[1, 0], Rel::Ge, 0),
    ];
    let refs: Vec<&LinConstraint> = prefix.iter().collect();
    let batch = FeasibilityBatch::new(2, &refs);
    for (ext, feasible) in [
        (row(&[1, 1], Rel::Lt, 2), false),
        (row(&[1, 1], Rel::Gt, 2), false),
        (row(&[2, 2], Rel::Eq, 4), true),
        (row(&[2, 2], Rel::Eq, 5), false),
        (row(&[1, -1], Rel::Lt, 0), true),
        (row(&[1, 0], Rel::Lt, 0), false),
    ] {
        assert_eq!(batch.probe(&ext).is_some(), feasible, "{ext:?}");
        let mut rows = prefix.to_vec();
        rows.push(ext);
        expect(2, &rows, &[1, -1], feasible);
    }
}

#[test]
fn many_hyperplanes_through_one_vertex() {
    // Every row is tight at (1, 2, 3): all pivots there are degenerate.
    let normals: [[i64; 3]; 9] = [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
        [1, 1, 0],
        [0, 1, 1],
        [1, 0, 1],
        [1, 1, 1],
        [1, -1, 0],
        [2, 1, -1],
    ];
    let at = |n: &[i64; 3]| n[0] + 2 * n[1] + 3 * n[2];
    let cone: Vec<LinConstraint> = normals.iter().map(|n| row(n, Rel::Ge, at(n))).collect();
    expect(3, &cone, &[-1, -1, -1], true);
    let mut point = cone.clone();
    point.push(row(&[1, 1, 1], Rel::Le, 6));
    expect(3, &point, &[1, 2, 3], true);
    let refs: Vec<&LinConstraint> = point.iter().collect();
    assert_eq!(feasible_refs(3, &refs), Some(ints(&[1, 2, 3])));
    let mut open = point.clone();
    open.push(row(&[1, 2, 3], Rel::Gt, 14));
    expect(3, &open, &[1, 2, 3], false);
}

#[test]
fn beale_cycling_example() {
    // Beale (1955): Dantzig's rule cycles on this program; Bland's does not.
    let q = |n, k| rat(n, k);
    let rows = [
        LinConstraint::new(vec![q(1, 4), int(-8), int(-1), int(9)], Rel::Le, int(0)),
        LinConstraint::new(vec![q(1, 2), int(-12), q(-1, 2), int(3)], Rel::Le, int(0)),
        row(&[0, 0, 1, 0], Rel::Le, 1),
        row(&[1, 0, 0, 0], Rel::Ge, 0),
        row(&[0, 1, 0, 0], Rel::Ge, 0),
        row(&[0, 0, 1, 0], Rel::Ge, 0),
        row(&[0, 0, 0, 1], Rel::Ge, 0),
    ];
    let objective = [q(3, 4), int(-20), q(1, 2), int(-6)];
    check(4, &rows, &objective).unwrap();
    match maximize(4, &objective, &rows) {
        LpOutcome::Optimal { value, .. } => assert_eq!(value, q(5, 4)),
        other => panic!("{other:?}"),
    }
}
