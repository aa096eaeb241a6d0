//! Faces in sign-vector order, the arrangement's only index, against the
//! mechanisms the order replaced: `remove_hyperplane` against the `HashMap`
//! grouping it ran before (`common::remove_by_hashing`), face for face at
//! every index, and `locate` against a linear `face_contains` scan. Every
//! build, insert and remove must leave the sign vectors strictly
//! increasing. The families are general, parallel, duplicate and through
//! the origin, in dimensions 1 to 3.

mod common;

use common::family;
use lcdb_arith::{int, rat};
use lcdb_geom::{Arrangement, Hyperplane};
use lcdb_linalg::QVector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_strictly_ordered(a: &Arrangement, context: &str) {
    for pair in a.faces().windows(2) {
        assert!(pair[0].signs < pair[1].signs, "{context}: {} does not precede {}", pair[0], pair[1]);
    }
}

/// Face for face: id, signs, dim, witness and ray.
fn assert_same_faces(a: &Arrangement, b: &Arrangement, context: &str) {
    assert_eq!(a.hyperplanes(), b.hyperplanes(), "{context}");
    assert_eq!(a.num_faces(), b.num_faces(), "{context}");
    for (fa, fb) in a.faces().iter().zip(b.faces()) {
        assert_eq!(fa.id, fb.id, "{context}");
        assert_eq!(fa.signs, fb.signs, "{context}");
        assert_eq!(fa.dim, fb.dim, "{context}: dim of {fa}");
        assert_eq!(fa.witness, fb.witness, "{context}: witness of {fa}");
        assert_eq!(fa.ray, fb.ray, "{context}: ray of {fa}");
    }
}

/// The one face a linear scan finds is the one `locate` finds.
fn assert_locate_scans(a: &Arrangement, p: &[lcdb_arith::Rational], context: &str) {
    let scan: Vec<usize> = (0..a.num_faces()).filter(|&f| a.face_contains(f, p)).collect();
    assert_eq!(scan, vec![a.locate(p)], "{context}: {p:?}");
}

fn random_point(rng: &mut StdRng, d: usize) -> QVector {
    (0..d).map(|_| rat(rng.gen_range(-9..=9), rng.gen_range(1..=4))).collect()
}

/// One family of each kind in `ℝ^d`: general (wide coefficients),
/// parallel (one normal), duplicate (every hyperplane twice, once scaled)
/// and through the origin.
fn families(rng: &mut StdRng, d: usize) -> Vec<(&'static str, Vec<Hyperplane>)> {
    let n = [0, 6, 5, 4][d];
    let normal = family(rng, d, 1, 3, true).remove(0);
    let parallel = (0..n)
        .map(|_| Hyperplane::new(normal.coeffs().to_vec(), int(rng.gen_range(-4..=4))))
        .collect();
    let mut duplicate = family(rng, d, n / 2, 2, false);
    for h in duplicate.clone() {
        let twice = |c: &lcdb_arith::Rational| c * &int(2);
        duplicate.push(Hyperplane::new(h.coeffs().iter().map(twice).collect(), twice(h.rhs())));
    }
    vec![
        ("general", family(rng, d, n, 4, false)),
        ("parallel", parallel),
        ("duplicate", duplicate),
        ("through the origin", family(rng, d, n, 2, true)),
    ]
}

#[test]
fn remove_equals_the_hashing_oracle_at_every_index() {
    let mut rng = StdRng::seed_from_u64(32);
    for d in 1..=3 {
        for round in 0..6 {
            for (kind, hs) in families(&mut rng, d) {
                let a = Arrangement::build(d, hs);
                let context = format!("{kind} d={d} round={round}");
                assert_strictly_ordered(&a, &context);
                for i in 0..a.hyperplanes().len() {
                    let removed = a.remove_hyperplane(i);
                    let context = format!("{context} remove {i}");
                    assert_strictly_ordered(&removed, &context);
                    assert_same_faces(&removed, &common::remove_by_hashing(&a, i), &context);
                }
            }
        }
    }
}

#[test]
fn locate_equals_a_linear_scan() {
    let mut rng = StdRng::seed_from_u64(33);
    for d in 1..=3 {
        for round in 0..4 {
            for (kind, hs) in families(&mut rng, d) {
                let a = Arrangement::build(d, hs);
                let context = format!("{kind} d={d} round={round}");
                for f in a.faces() {
                    assert_locate_scans(&a, &f.witness, &context);
                }
                for _ in 0..16 {
                    assert_locate_scans(&a, &random_point(&mut rng, d), &context);
                }
            }
        }
    }
}

#[test]
fn inserts_keep_the_order() {
    let mut rng = StdRng::seed_from_u64(34);
    for d in 1..=3 {
        for (kind, hs) in families(&mut rng, d) {
            let mut a = Arrangement::build(d, Vec::new());
            for (k, h) in hs.into_iter().enumerate() {
                a = a.insert_hyperplane(h);
                assert_strictly_ordered(&a, &format!("{kind} d={d} insert {k}"));
            }
        }
    }
}
