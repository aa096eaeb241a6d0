//! Test oracles for boundedness: the cube test the builder ran after every
//! refinement before faces carried recession rays, and the check that a ray
//! really recedes in its face.

use lcdb_arith::{int, BigInt, Rational, Sign};
use lcdb_geom::{Arrangement, Hyperplane};
use lcdb_linalg::{scale, vec_add};
use std::collections::HashSet;

/// Boundedness of every face by the cube test: with `M` an integer above
/// every coordinate of every vertex, a face is unbounded iff it meets one of
/// the `2d` hyperplanes `x_i = ±M`, i.e. iff its sign vector occurs with a
/// `Zero` for that side in the arrangement extended by it. (The closure of
/// every face has a vertex, all strictly inside the cube: a bounded face lies
/// in the hull of its vertices, and an unbounded one is convex and reaches
/// outside, so it crosses the cube's boundary.) Without a vertex the
/// arrangement has a lineality direction and every face is unbounded.
pub fn cube_bounded_flags(a: &Arrangement) -> Vec<bool> {
    let (d, n) = (a.ambient_dim(), a.hyperplanes().len());
    let vertices = a.faces().iter().filter(|f| f.dim == 0);
    let Some(reach) = vertices.flat_map(|f| f.witness.iter().map(Rational::abs)).max() else {
        return vec![false; a.num_faces()];
    };
    let m = Rational::from_integer(reach.floor() + BigInt::one());
    let mut unbounded: HashSet<Vec<Sign>> = HashSet::new();
    for i in 0..d {
        for rhs in [-&m, m.clone()] {
            let mut coeffs = vec![Rational::ZERO; d];
            coeffs[i] = Rational::ONE;
            let mut hs = a.hyperplanes().to_vec();
            hs.push(Hyperplane::new(coeffs, rhs));
            let cut = Arrangement::build(d, hs);
            let on_side = cut.faces().iter().filter(|f| f.signs[n] == Sign::Zero);
            unbounded.extend(on_side.map(|f| f.signs[..n].to_vec()));
        }
    }
    a.faces().iter().map(|f| !unbounded.contains(&f.signs)).collect()
}

/// Every face's ray recedes in the face: `witness + t·ray` stays in it for
/// `t = 1` and `t = 2¹⁰`.
pub fn assert_rays_recede(a: &Arrangement, context: &str) {
    for f in a.faces() {
        let Some(ray) = &f.ray else { continue };
        for t in [int(1), int(1 << 10)] {
            let p = vec_add(&f.witness, &scale(ray, &t));
            assert!(a.face_contains(f.id, &p), "{context}: ray of {f} leaves it at t = {t}");
        }
    }
}
