//! Incremental arrangement maintenance vs. from-scratch rebuilds.
//!
//! `insert_hyperplane` promises *bit-for-bit* equality with a rebuild over
//! the extended hyperplane list — face order, sign vectors, dimensions,
//! recession rays, and witnesses. `remove_hyperplane` promises a
//! bit-identical *census* (order, sign vectors, dimensions, boundedness,
//! counts); merged-face witnesses and rays are inherited from constituents
//! and only need to lie inside (recede in) the merged face, and boundedness
//! must agree with the cube test. Both are checked here on fixed scenes and
//! on randomized scenes.

mod common;

use lcdb_arith::{int, rat, Rational};
use lcdb_budget::EvalBudget;
use lcdb_exec::Pool;
use lcdb_geom::{Arrangement, Hyperplane};
use proptest::prelude::*;

fn v(vals: &[i64]) -> Vec<Rational> {
    vals.iter().map(|&x| int(x)).collect()
}

/// Assert the two arrangements are equal bit for bit: same hyperplanes,
/// same faces in the same order with the same witnesses.
fn assert_identical(a: &Arrangement, b: &Arrangement) {
    assert_eq!(a.ambient_dim(), b.ambient_dim());
    assert_eq!(a.hyperplanes(), b.hyperplanes());
    assert_eq!(a.num_faces(), b.num_faces());
    for (fa, fb) in a.faces().iter().zip(b.faces()) {
        assert_eq!(fa.id, fb.id);
        assert_eq!(fa.signs, fb.signs);
        assert_eq!(fa.dim, fb.dim, "dim mismatch at face {:?}", fa.signs);
        assert_eq!(fa.bounded(), fb.bounded(), "bounded mismatch at {:?}", fa.signs);
        assert_eq!(fa.witness, fb.witness, "witness mismatch at {:?}", fa.signs);
        assert_eq!(fa.ray, fb.ray, "ray mismatch at {:?}", fa.signs);
    }
}

/// Assert the two arrangements have the same census: identical face order,
/// sign vectors, dimensions, and boundedness — witnesses may differ but must
/// lie inside the claimed face of the *other* arrangement, and `a`'s rays
/// must recede in their faces and agree with the cube test.
fn assert_same_census(a: &Arrangement, b: &Arrangement) {
    common::assert_rays_recede(a, "census");
    let cube = common::cube_bounded_flags(a);
    assert!(a.faces().iter().all(|f| f.bounded() == cube[f.id]), "cube boundedness");
    assert_eq!(a.ambient_dim(), b.ambient_dim());
    assert_eq!(a.hyperplanes(), b.hyperplanes());
    assert_eq!(a.num_faces(), b.num_faces());
    assert_eq!(a.face_counts_by_dim(), b.face_counts_by_dim());
    for (fa, fb) in a.faces().iter().zip(b.faces()) {
        assert_eq!(fa.signs, fb.signs);
        assert_eq!(fa.dim, fb.dim, "dim mismatch at face {:?}", fa.signs);
        assert_eq!(fa.bounded(), fb.bounded(), "bounded mismatch at {:?}", fa.signs);
        assert!(
            b.face_contains(fb.id, &fa.witness),
            "witness of {:?} escapes its face",
            fa.signs
        );
    }
}

fn triangle() -> Vec<Hyperplane> {
    vec![
        Hyperplane::new(v(&[1, 0]), int(0)),
        Hyperplane::new(v(&[0, 1]), int(0)),
        Hyperplane::new(v(&[1, 1]), int(2)),
    ]
}

#[test]
fn insert_into_triangle_matches_rebuild_bit_for_bit() {
    let hs = triangle();
    let base = Arrangement::build(2, hs[..2].to_vec());
    let incremental = base.insert_hyperplane(hs[2].clone());
    let rebuilt = Arrangement::build(2, hs);
    assert_identical(&incremental, &rebuilt);
    // The triangle census: 3 vertices, 9 edges, 7 cells.
    assert_eq!(incremental.face_counts_by_dim(), vec![3, 9, 7]);
}

#[test]
fn insert_duplicate_hyperplane_is_a_no_op_split() {
    // A duplicate hyperplane never splits any face; every parent has a
    // single child and the whole lattice is inherited.
    let hs = triangle();
    let base = Arrangement::build(2, hs.clone());
    let incremental = base.insert_hyperplane(hs[0].clone());
    let mut extended = hs.clone();
    extended.push(hs[0].clone());
    let rebuilt = Arrangement::build(2, extended);
    assert_identical(&incremental, &rebuilt);
    assert_eq!(incremental.num_faces(), base.num_faces());
}

#[test]
fn insert_from_empty_arrangement() {
    let base = Arrangement::build(2, Vec::new());
    assert_eq!(base.num_faces(), 1);
    let h = Hyperplane::new(v(&[1, -1]), int(0));
    let incremental = base.insert_hyperplane(h.clone());
    let rebuilt = Arrangement::build(2, vec![h]);
    assert_identical(&incremental, &rebuilt);
    assert_eq!(incremental.face_counts_by_dim(), vec![0, 1, 2]);
}

#[test]
fn insert_chain_rebuilds_the_whole_arrangement() {
    // Building by successive inserts from the empty arrangement is the
    // same as one shot — every prefix is bit-identical.
    let hs = [
        Hyperplane::new(v(&[1, 0, 0]), int(0)),
        Hyperplane::new(v(&[0, 1, 0]), int(0)),
        Hyperplane::new(v(&[0, 0, 1]), int(0)),
        Hyperplane::new(v(&[1, 1, 1]), int(1)),
    ];
    let mut acc = Arrangement::build(3, Vec::new());
    for (k, h) in hs.iter().enumerate() {
        acc = acc.insert_hyperplane(h.clone());
        let rebuilt = Arrangement::build(3, hs[..=k].to_vec());
        assert_identical(&acc, &rebuilt);
    }
}

#[test]
fn remove_from_triangle_matches_rebuild_census() {
    let hs = triangle();
    let full = Arrangement::build(2, hs.clone());
    for i in 0..hs.len() {
        let mut rest = hs.clone();
        rest.remove(i);
        let rebuilt = Arrangement::build(2, rest);
        let coarsened = full.remove_hyperplane(i);
        assert_same_census(&coarsened, &rebuilt);
    }
}

#[test]
fn remove_last_hyperplane_leaves_ambient_cell() {
    let h = Hyperplane::new(v(&[1]), int(0));
    let a = Arrangement::build(1, vec![h]);
    let coarsened = a.remove_hyperplane(0);
    assert_eq!(coarsened.num_faces(), 1);
    assert_eq!(coarsened.faces()[0].dim, 1);
    assert!(!coarsened.faces()[0].bounded());
}

#[test]
fn remove_then_insert_round_trips_the_census() {
    let hs = triangle();
    let full = Arrangement::build(2, hs.clone());
    let coarsened = full.remove_hyperplane(1);
    let restored = coarsened.insert_hyperplane(hs[1].clone());
    // Hyperplane order differs (removed one re-appended last), so compare
    // censuses per dimension rather than sign vectors.
    assert_eq!(restored.num_faces(), full.num_faces());
    assert_eq!(restored.face_counts_by_dim(), full.face_counts_by_dim());
}

#[test]
fn incremental_ops_respect_budgets() {
    let hs = triangle();
    let base = Arrangement::build(2, hs[..2].to_vec());
    let tight = EvalBudget::unlimited().with_max_faces(3);
    let msg = match base.try_insert_hyperplane(hs[2].clone(), &tight, &Pool::serial()) {
        Ok(_) => panic!("insert must exhaust the 3-face budget"),
        Err(e) => e.to_string(),
    };
    assert!(msg.contains("face"), "unexpected error: {msg}");
}

/// Strategy: a small scene of distinct hyperplanes in `dim` dimensions with
/// coefficients in [-3, 3] (not all zero) and rational offsets.
fn scene(dim: usize, max_planes: usize) -> impl Strategy<Value = Vec<Hyperplane>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(-3i64..=3, dim),
            -4i64..=4,
            1i64..=3,
        ),
        1..(max_planes + 1),
    )
    .prop_map(|raw| {
        // Deduplicate (canonical interning makes equality exact) so
        // "remove index i" below is unambiguous about which plane vanished.
        let mut out: Vec<Hyperplane> = Vec::new();
        for (coeffs, num, den) in raw {
            if coeffs.iter().all(|&c| c == 0) {
                continue;
            }
            let h = Hyperplane::new(coeffs.into_iter().map(int).collect(), rat(num, den));
            if !out.contains(&h) {
                out.push(h);
            }
        }
        out
    })
    .prop_filter("need at least one hyperplane", |hs| !hs.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Insert is bit-identical to rebuild.
    #[test]
    fn insert_matches_rebuild(hs in scene(2, 4)) {
        let n = hs.len();
        let base = Arrangement::build(2, hs[..n - 1].to_vec());
        let rebuilt = Arrangement::build(2, hs.clone());
        let unlimited = EvalBudget::unlimited();
        let serial = base
            .try_insert_hyperplane(hs[n - 1].clone(), &unlimited, &Pool::serial())
            .expect("unlimited");
        assert_identical(&serial, &rebuilt);
    }

    /// Remove reproduces the rebuild census.
    #[test]
    fn remove_matches_rebuild_census(case in (scene(2, 4), 0usize..64)) {
        let (hs, raw) = case;
        let pick = raw % hs.len();
        let full = Arrangement::build(2, hs.clone());
        let mut rest = hs.clone();
        rest.remove(pick);
        let rebuilt = Arrangement::build(2, rest);
        let unlimited = EvalBudget::unlimited();
        let serial = full
            .try_remove_hyperplane(pick, &unlimited, &Pool::serial())
            .expect("unlimited");
        assert_same_census(&serial, &rebuilt);
    }

    /// 3-dimensional spot check of insert bit-identity.
    #[test]
    fn insert_matches_rebuild_3d(hs in scene(3, 3)) {
        let n = hs.len();
        let base = Arrangement::build(3, hs[..n - 1].to_vec());
        let rebuilt = Arrangement::build(3, hs.clone());
        let incremental = base.insert_hyperplane(hs[n - 1].clone());
        assert_identical(&incremental, &rebuilt);
    }
}
