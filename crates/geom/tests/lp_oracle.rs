//! The section-recursion builder against the LP decision procedure it
//! replaced, and the guard that keeps the simplex off the arrangement path.
//!
//! The oracle here is the old construction kept as a *test-only* reference:
//! a sign vector is realizable iff its strict system is LP-feasible, a
//! face's dimension is the ambient dimension minus the rank of its zero-set
//! normals, and it is bounded iff its closure is bounded in every axis
//! direction. The builder must agree with it on sign vectors (in order),
//! dimensions and boundedness, and every witness must lie in its face — on
//! degenerate families (parallel, duplicate and concurrent hyperplanes),
//! hyperplanes through the origin (the first witness lies on them) and
//! near-degenerate cones, and after a random insert/remove sequence.

use lcdb_arith::{int, rat, Rational, Sign};
use lcdb_geom::{Arrangement, Hyperplane, SignVector};
use lcdb_linalg::Matrix;
use lcdb_lp::{LinConstraint, Rel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn constraint(h: &Hyperplane, side: Sign) -> LinConstraint {
    let rel = match side {
        Sign::Negative => Rel::Lt,
        Sign::Zero => Rel::Eq,
        Sign::Positive => Rel::Gt,
    };
    LinConstraint::new(h.coeffs().to_vec(), rel, h.rhs().clone())
}

/// Every face of the arrangement as `(signs, dim, bounded)`, in
/// lexicographic order, decided by LP feasibility, rank and LP boundedness.
fn oracle(d: usize, hs: &[Hyperplane]) -> Vec<(SignVector, usize, bool)> {
    let system = |signs: &[Sign]| -> Vec<LinConstraint> {
        hs.iter().zip(signs).map(|(h, s)| constraint(h, *s)).collect()
    };
    let mut partial: Vec<SignVector> = vec![Vec::new()];
    for _ in hs {
        let mut next = Vec::new();
        for signs in &partial {
            for side in [Sign::Negative, Sign::Zero, Sign::Positive] {
                let mut child = signs.clone();
                child.push(side);
                let cons = system(&child);
                let refs: Vec<&LinConstraint> = cons.iter().collect();
                if lcdb_lp::feasible_refs(d, &refs).is_some() {
                    next.push(child);
                }
            }
        }
        partial = next;
    }
    partial
        .into_iter()
        .map(|signs| {
            let normals: Vec<Vec<Rational>> = hs
                .iter()
                .zip(&signs)
                .filter(|(_, s)| **s == Sign::Zero)
                .map(|(h, _)| h.coeffs().to_vec())
                .collect();
            let dim = if normals.is_empty() {
                d
            } else {
                d - Matrix::from_rows(normals).rank()
            };
            let bounded = lcdb_lp::is_bounded(d, &system(&signs)).expect("realizable face");
            (signs, dim, bounded)
        })
        .collect()
}

fn assert_matches_oracle(a: &Arrangement, context: &str) {
    let expected = oracle(a.ambient_dim(), a.hyperplanes());
    assert_eq!(a.num_faces(), expected.len(), "{context}: face count");
    for (face, (signs, dim, bounded)) in a.faces().iter().zip(&expected) {
        assert_eq!(&face.signs, signs, "{context}: sign vector of face {}", face.id);
        assert_eq!(face.dim, *dim, "{context}: dimension of {face}");
        assert_eq!(face.bounded, *bounded, "{context}: boundedness of {face}");
        assert!(
            a.face_contains(face.id, &face.witness),
            "{context}: witness of {face} escapes it"
        );
    }
}

/// `n` hyperplanes with integer coefficients in `-range..=range`; a zero
/// right-hand side puts every one through the origin. Small ranges make
/// parallel, duplicate and concurrent hyperplanes the common case.
fn family(rng: &mut StdRng, d: usize, n: usize, range: i64, through_origin: bool) -> Vec<Hyperplane> {
    let mut hs = Vec::new();
    while hs.len() < n {
        let coeffs: Vec<i64> = (0..d).map(|_| rng.gen_range(-range..=range)).collect();
        if coeffs.iter().all(|&c| c == 0) {
            continue;
        }
        let rhs = if through_origin { 0 } else { rng.gen_range(-range..=range) };
        hs.push(Hyperplane::new(coeffs.into_iter().map(int).collect(), int(rhs)));
    }
    hs
}

/// A near-degenerate cone: hyperplanes through one apex, each doubled by a
/// copy that misses the apex by `1/scale` — the arrangement looks conical
/// only inside a ball of that radius (the cone radius of Geerts, PAPERS.md).
fn near_cone(rng: &mut StdRng, d: usize, pairs: usize, scale: i64) -> Vec<Hyperplane> {
    let apex: Vec<Rational> = (0..d).map(|_| int(rng.gen_range(-2..=2))).collect();
    let mut hs = Vec::new();
    for h in family(rng, d, pairs, 3, true) {
        let through = lcdb_linalg::dot(h.coeffs(), &apex);
        hs.push(Hyperplane::new(h.coeffs().to_vec(), through.clone()));
        hs.push(Hyperplane::new(h.coeffs().to_vec(), through + rat(1, scale)));
    }
    hs
}

/// How many hyperplanes a family gets: the oracle solves three LPs per cell
/// per level, so the size shrinks with the dimension.
fn size(d: usize) -> usize {
    [0, 10, 7, 5][d]
}

#[test]
fn builder_agrees_with_the_lp_oracle_on_degenerate_families() {
    let mut rng = StdRng::seed_from_u64(15);
    for d in 1..=3 {
        for round in 0..12 {
            for (range, through_origin) in [(1, false), (4, false), (2, true)] {
                let hs = family(&mut rng, d, size(d), range, through_origin);
                let a = Arrangement::build(d, hs);
                assert_matches_oracle(
                    &a,
                    &format!("d={d} round={round} range={range} origin={through_origin}"),
                );
            }
        }
    }
}

#[test]
fn builder_agrees_with_the_lp_oracle_on_near_degenerate_cones() {
    let mut rng = StdRng::seed_from_u64(16);
    for d in 1..=3 {
        for scale in [3, 1_000, 1_000_000_007] {
            let hs = near_cone(&mut rng, d, size(d) / 2, scale);
            let a = Arrangement::build(d, hs);
            assert_matches_oracle(&a, &format!("cone d={d} scale={scale}"));
        }
    }
}

#[test]
fn edits_agree_with_the_lp_oracle() {
    let mut rng = StdRng::seed_from_u64(17);
    for d in 1..=3 {
        for round in 0..4 {
            let mut a = Arrangement::build(d, family(&mut rng, d, size(d) - 1, 2, round % 2 == 0));
            for step in 0..4 {
                let n = a.hyperplanes().len();
                a = if n == size(d) || (n > 1 && rng.gen_bool(0.5)) {
                    a.remove_hyperplane(rng.gen_range(0..n))
                } else {
                    a.insert_hyperplane(family(&mut rng, d, 1, 2, step % 2 == 0).remove(0))
                };
                assert_matches_oracle(&a, &format!("edits d={d} round={round} step={step}"));
            }
        }
    }
}

/// Build, insert and remove on the benchmark's d = 2, n = 12 shape solve no
/// linear program: the calling thread's solver counters do not move.
#[test]
fn arrangement_path_solves_no_lp() {
    let mut rng = StdRng::seed_from_u64(18);
    let mut hs = family(&mut rng, 2, 13, 9, false);
    let extra = hs.remove(12);
    let before = lcdb_lp::counters();
    let a = Arrangement::build(2, hs);
    let inserted = a.insert_hyperplane(extra);
    let removed = inserted.remove_hyperplane(5);
    assert!(a.num_faces() < inserted.num_faces());
    assert!(removed.num_faces() < inserted.num_faces());
    assert_eq!(lcdb_lp::counters(), before, "the simplex is back on the arrangement path");
}
