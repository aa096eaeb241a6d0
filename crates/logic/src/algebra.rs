//! Relation algebra on finitely represented relations.
//!
//! Because FO+LIN is closed (§2), the classical relational operations are
//! computable on linear constraint relations: boolean combinations stay
//! quantifier-free, and projection/join compose with Fourier–Motzkin
//! elimination. These operations are what a constraint database *system*
//! offers on top of the query languages.

use crate::dnf::{to_dnf_pruned, Dnf};
use crate::{qe, Formula, LinExpr, Relation, Var};
use lcdb_arith::Rational;

/// Union of two relations of equal arity (over the first one's variables).
pub fn union(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    let args: Vec<LinExpr> = a
        .var_names()
        .iter()
        .map(|v| LinExpr::var(v.clone()))
        .collect();
    let f = Formula::or(vec![a.dnf().to_formula(), b.apply(&args)]);
    Relation::from_dnf(a.var_names().to_vec(), to_dnf_pruned(&f).simplify())
}

/// Intersection of two relations of equal arity.
pub fn intersect(a: &Relation, b: &Relation) -> Relation {
    assert_eq!(a.arity(), b.arity(), "intersection arity mismatch");
    let args: Vec<LinExpr> = a
        .var_names()
        .iter()
        .map(|v| LinExpr::var(v.clone()))
        .collect();
    let f = Formula::and(vec![a.dnf().to_formula(), b.apply(&args)]);
    Relation::from_dnf(a.var_names().to_vec(), to_dnf_pruned(&f).simplify())
}

/// Complement within `ℝ^d`.
pub fn complement(a: &Relation) -> Relation {
    let f = Formula::not(a.dnf().to_formula());
    Relation::from_dnf(a.var_names().to_vec(), to_dnf_pruned(&f).simplify())
}

/// Set difference `a \ b`.
pub fn difference(a: &Relation, b: &Relation) -> Relation {
    intersect(a, &complement_aligned(b, a.var_names()))
}

fn complement_aligned(b: &Relation, names: &[Var]) -> Relation {
    let args: Vec<LinExpr> = names.iter().map(|v| LinExpr::var(v.clone())).collect();
    let f = Formula::not(b.apply(&args));
    Relation::from_dnf(names.to_vec(), to_dnf_pruned(&f).simplify())
}

/// Projection: keep the named coordinates (by index), eliminating the rest
/// with Fourier–Motzkin. The result's variables keep their names.
pub fn project(a: &Relation, keep: &[usize]) -> Relation {
    assert!(keep.iter().all(|&i| i < a.arity()), "projection index range");
    let keep_names: Vec<Var> = keep.iter().map(|&i| a.var_names()[i].clone()).collect();
    let dnf = qe::project_dnf(a.dnf(), &keep_names);
    Relation::from_dnf(keep_names, dnf)
}

/// Translate a relation by a rational vector (Minkowski shift by a point):
/// `x ∈ result ⟺ x - t ∈ a`.
pub fn translate(a: &Relation, t: &[Rational]) -> Relation {
    assert_eq!(t.len(), a.arity(), "translation arity mismatch");
    let args: Vec<LinExpr> = a
        .var_names()
        .iter()
        .zip(t)
        .map(|(v, ti)| LinExpr::var(v.clone()).sub(&LinExpr::constant(ti.clone())))
        .collect();
    let f = a.apply(&args);
    Relation::from_dnf(a.var_names().to_vec(), to_dnf_pruned(&f).simplify())
}

/// Cartesian product: variables of `b` are renamed to avoid collisions.
pub fn product(a: &Relation, b: &Relation) -> Relation {
    let mut names = a.var_names().to_vec();
    let mut disjuncts = Vec::new();
    let b_renamed: Vec<Var> = (0..b.arity())
        .map(|i| format!("{}_r{}", b.var_names()[i], i))
        .collect();
    names.extend(b_renamed.iter().cloned());
    let args: Vec<LinExpr> = b_renamed.iter().map(|v| LinExpr::var(v.clone())).collect();
    let fb = b.apply(&args);
    let f = Formula::and(vec![a.dnf().to_formula(), fb]);
    for c in to_dnf_pruned(&f).disjuncts {
        disjuncts.push(c);
    }
    Relation::from_dnf(names, Dnf { disjuncts })
}

/// Semantic emptiness, inclusion, and equivalence (exact, LP-backed).
pub fn is_empty(a: &Relation) -> bool {
    !a.dnf().is_satisfiable()
}

/// Is `a ⊆ b` as point sets?
pub fn subset(a: &Relation, b: &Relation) -> bool {
    is_empty(&difference(a, b))
}

/// Are `a` and `b` the same point set? (The §2 notion of 𝔄-equivalent
/// representations.)
pub fn equivalent(a: &Relation, b: &Relation) -> bool {
    subset(a, b) && subset(b, a)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::parse_formula;
    use lcdb_arith::{int, rat};

    fn rel1(src: &str) -> Relation {
        Relation::new(vec!["x".into()], parse_formula(src).unwrap())
    }

    fn rel2(src: &str) -> Relation {
        Relation::new(vec!["x".into(), "y".into()], parse_formula(src).unwrap())
    }

    #[test]
    fn union_and_intersection() {
        let a = rel1("0 < x and x < 2");
        let b = rel1("1 < x and x < 3");
        let u = union(&a, &b);
        assert!(u.contains(&[rat(1, 2)]));
        assert!(u.contains(&[rat(5, 2)]));
        assert!(!u.contains(&[int(3)]));
        let i = intersect(&a, &b);
        assert!(i.contains(&[rat(3, 2)]));
        assert!(!i.contains(&[rat(1, 2)]));
        assert!(equivalent(&i, &rel1("1 < x and x < 2")));
    }

    #[test]
    fn complement_and_difference() {
        let a = rel1("0 <= x and x <= 2");
        let c = complement(&a);
        assert!(c.contains(&[int(-1)]));
        assert!(c.contains(&[int(3)]));
        assert!(!c.contains(&[int(1)]));
        assert!(!c.contains(&[int(0)]), "boundary belongs to a, not complement");
        let d = difference(&a, &rel1("1 < x and x <= 2"));
        assert!(equivalent(&d, &rel1("0 <= x and x <= 1")));
    }

    #[test]
    fn projection_of_triangle() {
        let t = rel2("x >= 0 and y >= 0 and x + y <= 2");
        let px = project(&t, &[0]);
        assert_eq!(px.arity(), 1);
        assert!(equivalent(&px, &rel1("0 <= x and x <= 2")));
        // Projecting everything out of a nonempty relation yields "true".
        let p0 = project(&t, &[]);
        assert!(!is_empty(&p0));
    }

    #[test]
    fn translation() {
        let a = rel1("0 < x and x < 1");
        let shifted = translate(&a, &[int(5)]);
        assert!(shifted.contains(&[rat(11, 2)]));
        assert!(!shifted.contains(&[rat(1, 2)]));
        assert!(equivalent(&translate(&shifted, &[int(-5)]), &a));
        // 2-d translation.
        let t = rel2("x >= 0 and y >= 0 and x + y <= 1");
        let moved = translate(&t, &[int(10), int(20)]);
        assert!(moved.contains(&[rat(41, 4), rat(81, 4)]));
        assert!(!moved.contains(&[int(0), int(0)]));
    }

    #[test]
    fn product_arity_and_membership() {
        let a = rel1("0 < x and x < 1");
        let b = rel1("5 < x and x < 6");
        let p = product(&a, &b);
        assert_eq!(p.arity(), 2);
        assert!(p.contains(&[rat(1, 2), rat(11, 2)]));
        assert!(!p.contains(&[rat(11, 2), rat(1, 2)]));
    }

    #[test]
    fn equivalence_of_representations() {
        // The paper's §2 example.
        let r1 = rel1("0 < x and x < 10");
        let r2 = rel1("(0 < x and x < 6) or (6 < x and x < 10) or x = 6");
        assert!(equivalent(&r1, &r2));
        assert!(!equivalent(&r1, &rel1("0 < x and x <= 10")));
    }

    #[test]
    fn de_morgan_on_relations() {
        let a = rel1("0 < x and x < 4");
        let b = rel1("2 < x and x < 6");
        let lhs = complement(&union(&a, &b));
        let rhs = intersect(&complement(&a), &complement(&b));
        assert!(equivalent(&lhs, &rhs));
    }
}
