//! Convex closure of bounded linear constraint relations — the operator the
//! paper's conclusion (§8) proposes adding to capture non-boolean PTIME
//! queries.
//!
//! For a *bounded* relation (a finite union of polytopes), the convex hull
//! is the hull of the disjuncts' vertex sets. We compute the vertices with
//! the first two steps of the Appendix-A decomposition (vertex set, cube
//! test) and read the hull off the exact V→H conversion of [`VPolyhedron`]:
//! its equality and facet rows, non-strict — producing the hull as a
//! first-class [`Relation`] (closure of the framework, §2).
//!
//! The paper *bans* this operator inside the query language (Fig. 5:
//! convex closure defines multiplication); providing it as an explicit
//! database-level operation is exactly the §8 proposal.

use crate::{nc1, VPolyhedron};
use lcdb_budget::{work, EvalBudget};
use lcdb_linalg::QVector;
use lcdb_logic::{Formula, Relation};

/// All polytope vertices across the disjuncts of a bounded relation.
///
/// # Panics
/// Panics if the relation is unbounded (the hull would not be closed) or
/// empty.
pub fn relation_vertices(relation: &Relation) -> Vec<QVector> {
    let (budget, d) = (EvalBudget::unlimited(), relation.arity());
    let mut disjuncts = Vec::new();
    for conj in &relation.dnf().disjuncts {
        let psi = work::deferred(|| nc1::try_read_disjunct(d, conj, relation.var_names(), &budget));
        disjuncts.extend(psi);
    }
    assert!(!disjuncts.is_empty(), "convex closure of an empty relation");
    assert!(disjuncts.iter().all(|psi| psi.bounded), "convex closure requires a bounded relation");
    let mut vertices: Vec<QVector> = disjuncts.into_iter().flat_map(|psi| psi.vertices).collect();
    vertices.sort();
    vertices.dedup();
    vertices
}

/// The convex closure `conv(S)` of a bounded relation, as a relation over
/// the same variables.
pub fn convex_closure(relation: &Relation) -> Relation {
    let names = relation.var_names().to_vec();
    let hull = VPolyhedron::open_hull(relation_vertices(relation));
    let rows = hull.atoms(&names, true).into_iter().map(Formula::Atom);
    Relation::new(names, Formula::and(rows.collect()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat, Rational};
    use lcdb_logic::parse_formula;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rel(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
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
                parse_formula(&format!(
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

    /// What `relation_vertices` returned when it read the vertices off a
    /// whole NC¹ decomposition: its 0-dimensional regions.
    fn region_vertices(relation: &Relation) -> Vec<QVector> {
        let dec = nc1::decompose_relation(relation);
        let points = dec.regions.iter().filter(|r| r.dim == 0);
        let mut vertices: Vec<QVector> = points.map(|r| r.set.points()[0].clone()).collect();
        vertices.sort();
        vertices.dedup();
        vertices
    }

    /// A bounded disjunct over `vars` on a small grid: a box, cut by a
    /// diagonal half-space and flattened onto a facet now and then, with
    /// strict sides now and then; empty unless `nonempty`.
    fn grid_disjunct(rng: &mut StdRng, vars: &[&str], nonempty: bool) -> String {
        let (mut atoms, mut corner) = (Vec::new(), 0);
        for v in vars {
            let lo = rng.gen_range(-3..=2);
            let hi = lo + rng.gen_range(if nonempty { 0 } else { -2 }..=3);
            let lt = if rng.gen_bool(0.3) && hi > lo { "<" } else { "<=" };
            atoms.push(if rng.gen_bool(0.15) {
                format!("{v} = {lo}")
            } else {
                format!("{lo} {lt} {v} and {v} {lt} {hi}")
            });
            corner += lo;
        }
        if rng.gen_bool(0.5) {
            // Above the low corner, so the cut keeps a nonempty box nonempty.
            atoms.push(format!("{} <= {}", vars.join(" + "), corner + rng.gen_range(1..=4)));
        }
        atoms.join(" and ")
    }

    #[test]
    fn vertices_match_the_decomposition_regions() {
        let mut cases = vec![
            rel("(0 < x and x < 1) or (2 < x and x < 3)", &["x"]),
            rel("(x = 0 and y = 0) or (x = 2 and y = 0) or (x = 0 and y = 2)", &["x", "y"]),
            rel("(0 <= x and x <= 1 and 0 <= y and y <= 1) or (x = 3 and y = 0)", &["x", "y"]),
            rel("(u = 0 and v = 2) or (u = 3 and v = 0)", &["u", "v"]),
        ];
        let mut rng = StdRng::seed_from_u64(28);
        for round in 0..60 {
            let vars: &[&str] = [&["x"][..], &["x", "y"], &["x", "y", "z"]][round % 3];
            let first = grid_disjunct(&mut rng, vars, true);
            let rest = (0..rng.gen_range(0..=2)).map(|_| grid_disjunct(&mut rng, vars, false));
            let src = std::iter::once(first).chain(rest).collect::<Vec<_>>().join(") or (");
            cases.push(rel(&format!("({src})"), vars));
        }
        for r in &cases {
            assert_eq!(relation_vertices(r), region_vertices(r), "{r}");
        }
    }

    #[test]
    #[should_panic(expected = "bounded")]
    fn unbounded_relation_rejected() {
        let r = rel("x > 0", &["x"]);
        let _ = convex_closure(&r);
    }
}
