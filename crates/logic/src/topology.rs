//! Topological operators on finitely represented relations.
//!
//! A hallmark of the constraint-database framework: point-set topology is
//! first-order definable over `(ℝ, <, +)`, so closure, interior, and
//! boundary are *computable* on linear constraint relations through
//! quantifier elimination:
//!
//! `closure(S) = { x̄ : ∀ε>0 ∃ȳ (S(ȳ) ∧ ⋀ᵢ |xᵢ−yᵢ| < ε) }`.

use crate::algebra::{complement, difference};
use crate::dnf::to_dnf_pruned;
use crate::{qe, Formula, LinExpr, Relation, Var};

/// Topological closure of the relation (as a point set in `ℝ^d`).
pub fn closure(a: &Relation) -> Relation {
    let d = a.arity();
    let names: Vec<Var> = a.var_names().to_vec();
    let ys: Vec<Var> = (0..d).map(|i| format!("__cy{}", i)).collect();
    let eps: Var = "__ceps".into();
    // S(ȳ) ∧ |xᵢ − yᵢ| < ε for all i.
    let mut conj = vec![a.apply(
        &ys.iter().map(|v| LinExpr::var(v.clone())).collect::<Vec<_>>(),
    )];
    for (x, y) in names.iter().zip(&ys) {
        let diff = LinExpr::var(x.clone()).sub(&LinExpr::var(y.clone()));
        conj.push(Formula::Atom(crate::Atom::new(
            diff.clone(),
            crate::Rel::Lt,
            LinExpr::var(eps.clone()),
        )));
        conj.push(Formula::Atom(crate::Atom::new(
            diff.scale(&-lcdb_arith::Rational::one()),
            crate::Rel::Lt,
            LinExpr::var(eps.clone()),
        )));
    }
    let mut near = Formula::and(conj);
    for y in ys.iter().rev() {
        near = Formula::Exists(y.clone(), Box::new(near));
    }
    let body = Formula::Atom(crate::Atom::new(
        LinExpr::var(eps.clone()),
        crate::Rel::Gt,
        LinExpr::zero(),
    ))
    .implies(near);
    let f = Formula::Forall(eps, Box::new(body));
    let qf = qe::eliminate_quantifiers(&f);
    Relation::from_dnf(names, to_dnf_pruned(&qf).simplify())
}

/// Topological interior: `ℝ^d \ closure(ℝ^d \ S)`.
pub fn interior(a: &Relation) -> Relation {
    complement(&closure(&complement(a)))
}

/// Topological boundary: `closure(S) \ interior(S)`.
pub fn boundary(a: &Relation) -> Relation {
    difference(&closure(a), &interior(a))
}

/// Is the relation topologically closed?
pub fn is_closed(a: &Relation) -> bool {
    crate::algebra::equivalent(a, &closure(a))
}

/// Is the relation topologically open?
pub fn is_open(a: &Relation) -> bool {
    crate::algebra::equivalent(a, &interior(a))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::algebra::{equivalent, intersect};
    use crate::parse_formula;

    fn rel1(src: &str) -> Relation {
        Relation::new(vec!["x".into()], parse_formula(src).unwrap())
    }

    fn rel2(src: &str) -> Relation {
        Relation::new(vec!["x".into(), "y".into()], parse_formula(src).unwrap())
    }

    #[test]
    fn closure_of_open_interval() {
        let a = rel1("0 < x and x < 1");
        let c = closure(&a);
        assert!(equivalent(&c, &rel1("0 <= x and x <= 1")));
        assert!(is_closed(&c));
        assert!(!is_closed(&a));
        assert!(is_open(&a));
        assert!(!is_open(&c));
    }

    #[test]
    fn closure_of_point_and_halfline() {
        assert!(is_closed(&rel1("x = 3")));
        let h = rel1("x > 2");
        assert!(equivalent(&closure(&h), &rel1("x >= 2")));
    }

    #[test]
    fn interior_of_closed_interval() {
        let a = rel1("0 <= x and x <= 1");
        assert!(equivalent(&interior(&a), &rel1("0 < x and x < 1")));
        // A point has empty interior.
        assert!(crate::algebra::is_empty(&interior(&rel1("x = 3"))));
    }

    #[test]
    fn boundary_of_interval() {
        let a = rel1("0 < x and x < 1");
        let b = boundary(&a);
        assert!(equivalent(&b, &rel1("x = 0 or x = 1")));
        // Boundary of the boundary equals the boundary for this family.
        assert!(equivalent(&boundary(&b), &b));
        // No boundary point is inside the open interval.
        assert!(crate::algebra::is_empty(&intersect(&a, &b)));
    }

    #[test]
    fn closure_2d_triangle() {
        let open_tri = rel2("x > 0 and y > 0 and x + y < 1");
        let closed_tri = rel2("x >= 0 and y >= 0 and x + y <= 1");
        assert!(equivalent(&closure(&open_tri), &closed_tri));
        assert!(equivalent(&interior(&closed_tri), &open_tri));
        // Boundary is the union of the three edges.
        let b = boundary(&open_tri);
        assert!(b.contains(&[lcdb_arith::rat(1, 2), lcdb_arith::int(0)]));
        assert!(b.contains(&[lcdb_arith::int(0), lcdb_arith::int(0)]));
        assert!(!b.contains(&[lcdb_arith::rat(1, 4), lcdb_arith::rat(1, 4)]));
    }

    #[test]
    fn closure_union_distributes() {
        let a = rel1("0 < x and x < 1");
        let b = rel1("2 < x and x < 3");
        let u = crate::algebra::union(&a, &b);
        let lhs = closure(&u);
        let rhs = crate::algebra::union(&closure(&a), &closure(&b));
        assert!(equivalent(&lhs, &rhs));
    }

    #[test]
    fn whole_space_and_empty() {
        let full = rel1("0 = 0");
        assert!(is_closed(&full));
        assert!(is_open(&full));
        let empty = rel1("0 = 1");
        assert!(is_closed(&empty));
        assert!(is_open(&empty));
    }
}
