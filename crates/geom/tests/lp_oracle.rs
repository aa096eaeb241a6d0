//! The LP-free geometry kernel against the LP decision procedures it
//! replaced, and the guards that keep the simplex off those paths.
//!
//! **Arrangements.** The oracle is the old construction kept as a
//! *test-only* reference: a sign vector is realizable iff its strict system
//! is LP-feasible, a face's dimension is the ambient dimension minus the
//! rank of its zero-set normals, and it is bounded iff its closure is
//! bounded in every axis direction. The builder must agree with it on sign
//! vectors (in order), dimensions and boundedness, and every witness must
//! lie in its face — on degenerate families (parallel, duplicate and
//! concurrent hyperplanes), hyperplanes through the origin (the first
//! witness lies on them) and near-degenerate cones, and after a random
//! insert/remove sequence. Boundedness, which the builder reads off one
//! recession ray per face, must also agree with the cube test it ran before
//! (`common::cube_bounded_flags`), and every ray must recede in its face.
//!
//! **V-polyhedra.** The oracle is the coefficient-space LP every
//! [`VPolyhedron`] predicate used to solve (`x = Σ aᵢpᵢ + Σ bⱼrⱼ`,
//! `Σ aᵢ = 1`, coefficients positive or non-negative). The rows of the
//! exact V→H conversion must agree with it on membership, closure
//! membership, recession and equality of point sets — with duplicate
//! generators, `d + 1` coplanar points, rays, a ray and its opposite, and
//! probes with denominators or exactly on a facet or vertex. (The segment
//! test against an open hull has its oracle beside `open_segment_meets` in
//! `nc1.rs`, where both are private.)

mod common;

use common::family;
use lcdb_arith::{int, rat, Rational, Sign};
use lcdb_geom::nc1::decompose_relation;
use lcdb_geom::{Arrangement, Hyperplane, SignVector, VPolyhedron};
use lcdb_linalg::{vec_add, vec_sub, Matrix, QVector};
use lcdb_logic::{parse_formula, Relation};
use lcdb_lp::{LinConstraint, Rel};
use proptest::prelude::*;
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
    let cube = common::cube_bounded_flags(a);
    assert_eq!(a.num_faces(), expected.len(), "{context}: face count");
    for (face, (signs, dim, bounded)) in a.faces().iter().zip(&expected) {
        assert_eq!(&face.signs, signs, "{context}: sign vector of face {}", face.id);
        assert_eq!(face.dim, *dim, "{context}: dimension of {face}");
        assert_eq!(face.bounded(), *bounded, "{context}: boundedness of {face}");
        assert_eq!(face.bounded(), cube[face.id], "{context}: cube boundedness of {face}");
        assert!(
            a.face_contains(face.id, &face.witness),
            "{context}: witness of {face} escapes it"
        );
    }
    common::assert_rays_recede(a, context);
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

/// Boundedness builds no section arrangement. Seven planes
/// `x + t·y + t²·z = t³`, `t = 1..=7`, are in general position (the normals
/// are Vandermonde rows, and a point on four of them would make a cubic in
/// `t` with four roots), so level `k` of a build, a plane of `j` lines and a
/// line of `i` points build `S₃(7) = Σ_k (1 + S₂(k))`, `S₂(k) = Σ_j
/// (1 + S₁(j))`, `S₁(i) = i` sections: 63. The cube test the builder ran
/// before rays added `2d` sections of all seven rows, `1 + S₂(7) = 29` each:
/// 63 + 174 = 237 → 63.
#[test]
fn boundedness_builds_no_sections() {
    let hs = (1..=7)
        .map(|t: i64| Hyperplane::new(vec![int(1), int(t), int(t * t)], int(t * t * t)))
        .collect();
    let trace = lcdb_trace::TraceHandle::new(std::sync::Arc::new(lcdb_trace::MemoryTracer::new()));
    let budget = lcdb_budget::EvalBudget::unlimited();
    let a = Arrangement::try_build_traced(3, hs, &budget, &trace).expect("unlimited");
    assert_eq!(a.face_counts_by_dim(), vec![35, 126, 154, 64]);
    assert_eq!(trace.metrics().counter_snapshot()["geom.sections_built"], 63);
}

/// `x = Σ aᵢpᵢ + Σ bⱼrⱼ` over the coefficients (the `aᵢ` summing to
/// `point_weight`: 1 for a point, 0 for a direction), each `> 0` or `≥ 0`.
fn coefficients_lp(v: &VPolyhedron, x: &[Rational], point_weight: i64, strict: bool) -> bool {
    let generators: Vec<&QVector> = v.points().iter().chain(v.rays()).collect();
    let n = generators.len();
    let mut cons: Vec<LinConstraint> = (0..x.len())
        .map(|coord| {
            let column = generators.iter().map(|g| g[coord].clone()).collect();
            LinConstraint::new(column, Rel::Eq, x[coord].clone())
        })
        .collect();
    let convexity = (0..n).map(|i| int((i < v.points().len()) as i64)).collect();
    cons.push(LinConstraint::new(convexity, Rel::Eq, int(point_weight)));
    for i in 0..n {
        let unit = (0..n).map(|j| int((i == j) as i64)).collect();
        let rel = if strict { Rel::Gt } else { Rel::Ge };
        cons.push(LinConstraint::new(unit, rel, int(0)));
    }
    lcdb_lp::feasible(n, &cons).is_some()
}

fn subset_of_closure_lp(a: &VPolyhedron, b: &VPolyhedron) -> bool {
    a.points().iter().all(|p| coefficients_lp(b, p, 1, false))
        && a.rays().iter().all(|r| coefficients_lp(b, r, 0, false))
}

/// Every predicate of `v` against its LP at every probe (read as a point
/// and as a direction), and the facts that need no oracle.
fn assert_vpoly_matches_lp(v: &VPolyhedron, probes: &[QVector]) -> Result<(), TestCaseError> {
    for x in probes {
        prop_assert_eq!(v.contains(x), coefficients_lp(v, x, 1, true), "{:?} ∋ {:?}", v, x);
        prop_assert_eq!(
            v.closure_contains(x),
            coefficients_lp(v, x, 1, false),
            "closure of {:?} ∋ {:?}",
            v,
            x
        );
        prop_assert_eq!(
            v.recession_contains(x),
            coefficients_lp(v, x, 0, false),
            "recession cone of {:?} ∋ {:?}",
            v,
            x
        );
    }
    prop_assert!(v.contains(&v.interior_point()), "interior point of {:?}", v);
    let p0 = &v.points()[0];
    let spans: Vec<QVector> = v.points()[1..].iter().map(|p| vec_sub(p, p0)).chain(v.rays().iter().cloned()).collect();
    let rank = if spans.is_empty() { 0 } else { Matrix::from_rows(spans).rank() };
    prop_assert_eq!(v.dim(), rank, "dimension of {:?}", v);
    prop_assert_eq!(v.affine_hull().dim(), rank);
    prop_assert!(v.points().iter().all(|p| v.affine_hull().contains(p)));
    Ok(())
}

fn assert_same_set_matches_lp(a: &VPolyhedron, b: &VPolyhedron) -> Result<(), TestCaseError> {
    let (ab, ba) = (subset_of_closure_lp(a, b), subset_of_closure_lp(b, a));
    prop_assert_eq!(a.subset_of_closure(b), ab, "{:?} ⊆ cl {:?}", a, b);
    prop_assert_eq!(a.same_set(b), ab && ba, "{:?} = {:?}", a, b);
    prop_assert_eq!(a.adjacent(b), ab != ba, "{:?} adj {:?}", a, b);
    Ok(())
}

/// Probes that land on facets and vertices by construction — generators,
/// their midpoints, the interior point pushed along and against each ray —
/// next to the caller's own (with denominators).
fn probes(v: &VPolyhedron, extra: Vec<QVector>) -> Vec<QVector> {
    let mut out = extra;
    let inner = v.interior_point();
    for (i, p) in v.points().iter().enumerate() {
        out.push(p.clone());
        for q in &v.points()[..i] {
            out.push(p.iter().zip(q).map(|(a, b)| Rational::midpoint(a, b)).collect());
        }
    }
    for r in v.rays() {
        out.push(r.clone());
        out.push(vec_add(&inner, r));
        out.push(vec_sub(&v.points()[0], r));
    }
    out.push(inner);
    out
}

/// Generators on a coarse integer grid (duplicates and coplanar
/// `(d + 1)`-tuples are the common case); `opposite` adds the negation of
/// the first ray.
fn vpoly(d: usize, points: &[Vec<i64>], rays: &[Vec<i64>], opposite: bool) -> VPolyhedron {
    let q = |v: &Vec<i64>| -> QVector { v[..d].iter().map(|&c| int(c)).collect() };
    let mut rs: Vec<QVector> = rays.iter().filter(|r| r[..d].iter().any(|&c| c != 0)).map(q).collect();
    if let (true, Some(first)) = (opposite, rs.first()) {
        rs.push(first.iter().map(|c| -c).collect());
    }
    VPolyhedron::new(points.iter().map(q).collect(), rs)
}

fn grid(rng: &mut StdRng, n: usize, range: i64) -> Vec<Vec<i64>> {
    (0..n).map(|_| (0..3).map(|_| rng.gen_range(-range..=range)).collect()).collect()
}

#[test]
fn vpolyhedron_agrees_with_the_lp_oracle_on_seeded_generators() {
    let mut rng = StdRng::seed_from_u64(18);
    for d in 1..=3 {
        for round in 0..600 {
            let points = grid(&mut rng, 1 + round % (d + 2), 2);
            let rays = grid(&mut rng, round % 3 * (round % 2), 1);
            let v = vpoly(d, &points, &rays, round % 7 == 0);
            let fractions = (0..4)
                .map(|_| (0..d).map(|_| rat(rng.gen_range(-6..=6), rng.gen_range(1..=3))).collect())
                .collect();
            assert_vpoly_matches_lp(&v, &probes(&v, fractions)).expect("seeded case");
            // The same set with a redundant generator, and an unrelated one.
            let mut more = v.points().to_vec();
            let (first, last) = (&more[0], &more[more.len() - 1]);
            more.push(first.iter().zip(last).map(|(a, b)| Rational::midpoint(a, b)).collect());
            let w = VPolyhedron::new(more, v.rays().to_vec());
            assert_same_set_matches_lp(&v, &w).expect("redundant generator");
            let other = vpoly(d, &grid(&mut rng, 1 + round % (d + 1), 1), &grid(&mut rng, round % 2, 1), false);
            assert_same_set_matches_lp(&v, &other).expect("unrelated pair");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn vpolyhedron_agrees_with_the_lp_oracle(
        d in 1usize..=3,
        points in proptest::collection::vec(proptest::collection::vec(-2i64..=2, 3), 1..6),
        rays in proptest::collection::vec(proptest::collection::vec(-1i64..=1, 3), 0..3),
        opposite in any::<bool>(),
        fractions in proptest::collection::vec(
            proptest::collection::vec((-6i64..=6, 1i64..=3), 3),
            0..4,
        ),
        other in proptest::collection::vec(proptest::collection::vec(-1i64..=1, 3), 1..4),
    ) {
        let v = vpoly(d, &points, &rays, opposite);
        let fractions = fractions
            .iter()
            .map(|x| x[..d].iter().map(|&(n, m)| rat(n, m)).collect())
            .collect();
        assert_vpoly_matches_lp(&v, &probes(&v, fractions))?;
        assert_same_set_matches_lp(&v, &vpoly(d, &other, &rays, false))?;
    }
}

/// The convex `k`-gon with vertices `(i, i²)`, `i < k`.
fn parabola_polygon(k: i64) -> Relation {
    let mut sides: Vec<String> = (0..k - 1)
        .map(|i| format!("y >= {}*x - {}", 2 * i + 1, i * (i + 1)))
        .collect();
    sides.push(format!("y <= {}*x", k - 1));
    let formula = parse_formula(&sides.join(" and ")).expect("polygon formula");
    Relation::new(vec!["x".into(), "y".into()], &formula)
}

/// A decomposition solves the per-disjunct emptiness test and the `2d`
/// cube tests, whatever the vertex count — no program per candidate — and
/// asking the regions anything afterwards solves none.
#[test]
fn nc1_lp_solves_do_not_grow_with_vertices() {
    let solves = |k: i64| {
        let before = lcdb_lp::counters();
        let dec = decompose_relation(&parabola_polygon(k));
        let built = lcdb_lp::counters();
        let k = k as usize;
        assert_eq!(dec.counts_by_dim(), vec![k, 2 * k - 3, k - 2]);
        let names = ["x".to_string(), "y".to_string()];
        for a in &dec.regions {
            let inner = a.set.interior_point();
            assert!(a.set.contains(&inner));
            let env = names.iter().cloned().zip(inner).collect();
            assert!(a.set.atoms(&names, false).iter().all(|atom| atom.eval(&env)));
            for b in &dec.regions {
                assert_eq!(a.set.adjacent(&b.set), b.set.adjacent(&a.set));
                assert_eq!(a.set.same_set(&b.set), std::ptr::eq(a, b));
            }
        }
        assert_eq!(lcdb_lp::counters(), built, "a region predicate solved a linear program");
        built.solves - before.solves
    };
    let (small, large) = (solves(8), solves(16));
    assert_eq!(small, large, "LP solves grow with the vertex count");
    assert!(small <= 1 + 2 * 2, "{small} solves for one disjunct in the plane");
}
