//! Convex closure of bounded linear constraint relations — the operator the
//! paper's conclusion (§8) proposes adding to capture non-boolean PTIME
//! queries.
//!
//! For a *bounded* relation (a finite union of polytopes), the convex hull
//! is the hull of the disjuncts' vertex sets. We compute the vertices with
//! the Appendix-A machinery and read the hull off the exact V→H conversion
//! of [`VPolyhedron`]: its equality and facet rows, non-strict — producing
//! the hull as a first-class [`Relation`] (closure of the framework, §2).
//!
//! The paper *bans* this operator inside the query language (Fig. 5:
//! convex closure defines multiplication); providing it as an explicit
//! database-level operation is exactly the §8 proposal.

use crate::{nc1, VPolyhedron};
use lcdb_linalg::QVector;
use lcdb_logic::{Formula, Relation};

/// All polytope vertices across the disjuncts of a bounded relation.
///
/// # Panics
/// Panics if the relation is unbounded (the hull would not be closed) or
/// empty.
pub fn relation_vertices(relation: &Relation) -> Vec<QVector> {
    let dec = nc1::decompose_relation(relation);
    assert!(
        !dec.regions.is_empty(),
        "convex closure of an empty relation"
    );
    assert!(
        dec.regions.iter().all(|r| r.set.is_bounded()),
        "convex closure requires a bounded relation"
    );
    let mut vertices: Vec<QVector> = Vec::new();
    for region in &dec.regions {
        if region.dim == 0 {
            let p = region.set.points()[0].clone();
            if !vertices.contains(&p) {
                vertices.push(p);
            }
        }
    }
    vertices.sort();
    vertices
}

/// The convex closure `conv(S)` of a bounded relation, as a relation over
/// the same variables.
pub fn convex_closure(relation: &Relation) -> Relation {
    let names = relation.var_names().to_vec();
    let hull = VPolyhedron::open_hull(relation_vertices(relation));
    let rows = hull.atoms(&names, true).into_iter().map(Formula::Atom);
    Relation::new(names, &Formula::and(rows.collect()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat, Rational};
    use lcdb_logic::parse_formula;

    fn rel(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            &parse_formula(src).unwrap(),
        )
    }

    #[test]
    fn hull_of_two_intervals() {
        // conv((0,1) ∪ (2,3)) = [0, 3] (closure includes the endpoints).
        let r = rel("(0 < x and x < 1) or (2 < x and x < 3)", &["x"]);
        let h = convex_closure(&r);
        assert!(h.contains(&[rat(3, 2)])); // the gap is filled
        assert!(h.contains(&[int(0)]));
        assert!(h.contains(&[int(3)]));
        assert!(!h.contains(&[rat(-1, 10)]));
        assert!(!h.contains(&[rat(31, 10)]));
    }

    #[test]
    fn hull_of_points_is_polytope() {
        // Three isolated points span a triangle.
        let r = rel(
            "(x = 0 and y = 0) or (x = 2 and y = 0) or (x = 0 and y = 2)",
            &["x", "y"],
        );
        let h = convex_closure(&r);
        assert!(h.contains(&[rat(1, 2), rat(1, 2)]));
        assert!(h.contains(&[int(1), int(1)])); // hypotenuse midpoint
        assert!(!h.contains(&[rat(3, 2), rat(3, 2)]));
        assert!(h.contains(&[int(0), int(0)]));
    }

    #[test]
    fn hull_idempotent_and_extensive() {
        let r = rel(
            "(0 <= x and x <= 1 and 0 <= y and y <= 1) or (x = 3 and y = 0)",
            &["x", "y"],
        );
        let h = convex_closure(&r);
        // Extensive: contains the original relation (sample points).
        for p in [
            vec![rat(1, 2), rat(1, 2)],
            vec![int(3), int(0)],
            vec![int(0), int(1)],
        ] {
            assert!(r.contains(&p) && h.contains(&p));
        }
        // Idempotent.
        let hh = convex_closure(&h);
        assert!(lcdb_logic::algebra::equivalent(&h, &hh));
        // Convexity: midpoints of member points are members.
        assert!(h.contains(&[int(2), rat(1, 4)]));
    }

    #[test]
    fn figure5_multiplication_through_hull_operator() {
        // The Fig. 5 construction with the relation-level operator: the hull
        // of {(0, y°), (z°, 0)} contains (x°, y°-1) iff x°·y° = z°.
        let check = |x: Rational, y: Rational, z: Rational| {
            let r = Relation::new(
                vec!["u".into(), "v".into()],
                &parse_formula(&format!(
                    "(u = 0 and v = {}) or (u = {} and v = 0)",
                    y, z
                ))
                .unwrap(),
            );
            let h = convex_closure(&r);
            h.contains(&[x, &y - &Rational::ONE])
        };
        assert!(check(rat(3, 2), int(2), int(3)));
        assert!(!check(rat(3, 2), int(2), int(4)));
        assert!(check(rat(7, 2), int(3), rat(21, 2)));
    }

    #[test]
    #[should_panic(expected = "bounded")]
    fn unbounded_relation_rejected() {
        let r = rel("x > 0", &["x"]);
        let _ = convex_closure(&r);
    }
}
