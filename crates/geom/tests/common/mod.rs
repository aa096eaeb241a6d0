//! Test oracles: the cube test the builder ran after every refinement
//! before faces carried recession rays, the check that a ray really recedes
//! in its face, and the `HashMap` grouping `remove_hyperplane` ran before
//! faces were grouped by sorting. Also the random hyperplane families the
//! oracle tests share. Each test crate uses a part of this module.
#![allow(dead_code)]

use lcdb_arith::{int, BigInt, Rational, Sign};
use lcdb_geom::{Arrangement, Face, FaceId, Hyperplane, SignVector};
use lcdb_linalg::{scale, vec_add};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// `n` hyperplanes with integer coefficients in `-range..=range`; a zero
/// right-hand side puts every one through the origin. Small ranges make
/// parallel, duplicate and concurrent hyperplanes the common case.
pub fn family(rng: &mut StdRng, d: usize, n: usize, range: i64, through_origin: bool) -> Vec<Hyperplane> {
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

/// `remove_hyperplane` as it grouped faces before: a `HashMap` from the
/// projected sign vector to the constituents in face order, its keys
/// sorted into the rebuild's face order. A merged face takes the largest
/// dimension, the first constituent's witness and the first ray.
pub fn remove_by_hashing(a: &Arrangement, index: usize) -> Arrangement {
    let mut groups: HashMap<SignVector, Vec<FaceId>> = HashMap::new();
    for f in a.faces() {
        let mut signs = f.signs.clone();
        signs.remove(index);
        groups.entry(signs).or_default().push(f.id);
    }
    let mut order: Vec<(SignVector, Vec<FaceId>)> = groups.into_iter().collect();
    order.sort_by(|x, y| x.0.cmp(&y.0));
    let faces = order
        .into_iter()
        .enumerate()
        .map(|(id, (signs, members))| {
            let parts = || members.iter().map(|&m| a.face(m));
            Face {
                id,
                signs,
                dim: parts().map(|f| f.dim).max().expect("groups are nonempty"),
                witness: a.face(members[0]).witness.clone(),
                ray: parts().find_map(|f| f.ray.clone()),
            }
        })
        .collect();
    let mut hyperplanes = a.hyperplanes().to_vec();
    hyperplanes.remove(index);
    Arrangement::from_parts(a.ambient_dim(), hyperplanes, faces).expect("the old grouping is well formed")
}

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
