//! Exact rational linear programming.
//!
//! Quantifier elimination in this reproduction stays polynomial by dropping
//! unsatisfiable disjuncts as they arise — a feasibility question about a
//! system of linear equalities, strict, and non-strict inequalities over the
//! reals. This crate provides an exact simplex with Bland's anti-cycling
//! rule, plus a strict-feasibility oracle that returns *relative-interior*
//! witness points (which let a later decision about the same cell be read off
//! the point instead of a solve).
//!
//! Strict inequalities are handled by the interior-δ method: each strict
//! constraint `a·x < b` becomes `a·x + δ ≤ b`, and we maximize `δ` capped
//! at one. The strict system is feasible iff the optimum is positive, and
//! the witness satisfies every strict constraint with slack ≥ δ.
//!
//! The data-complexity shape of these programs is a fixed, small number of
//! variables `d` under many constraints, so every program is solved through
//! its *dual*: a tableau of `d + 1` rows with one column per constraint
//! (module `simplex`). The optimum's simplex multipliers are the witness, and
//! a further constraint is a further column, which is all a warm start is.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod simplex;

pub use simplex::FeasibilityBatch;

use lcdb_arith::{Rational, Sign};
use lcdb_linalg::QVector;

/// Comparison relation of a linear constraint `a·x REL b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `a·x < b`
    Lt,
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
    /// `a·x > b`
    Gt,
}

impl Rel {
    /// Is this a strict inequality?
    pub fn is_strict(self) -> bool {
        matches!(self, Rel::Lt | Rel::Gt)
    }

    /// The relation with both sides swapped.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Eq => Rel::Eq,
            Rel::Ge => Rel::Le,
            Rel::Gt => Rel::Lt,
        }
    }

    /// The non-strict weakening (`<` ↦ `≤`, `>` ↦ `≥`).
    pub fn closure(self) -> Rel {
        match self {
            Rel::Lt => Rel::Le,
            Rel::Gt => Rel::Ge,
            r => r,
        }
    }

    /// The strict strengthening (`≤` ↦ `<`, `≥` ↦ `>`); equalities stay, so
    /// applying this to a polyhedron's constraints yields its relative
    /// interior.
    pub fn interior(self) -> Rel {
        match self {
            Rel::Le => Rel::Lt,
            Rel::Ge => Rel::Gt,
            r => r,
        }
    }

    /// Does `lhs REL rhs` hold when `lhs − rhs` has sign `sign`?
    pub fn admits(self, sign: Sign) -> bool {
        match self {
            Rel::Lt => sign == Sign::Negative,
            Rel::Le => sign != Sign::Positive,
            Rel::Eq => sign == Sign::Zero,
            Rel::Ge => sign != Sign::Negative,
            Rel::Gt => sign == Sign::Positive,
        }
    }
}

/// A linear constraint `coeffs · x REL rhs` over `d` free real variables.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinConstraint {
    /// Coefficient vector (length = ambient dimension).
    pub coeffs: QVector,
    /// Comparison relation.
    pub rel: Rel,
    /// Right-hand side.
    pub rhs: Rational,
}

impl LinConstraint {
    /// Construct a constraint.
    pub fn new(coeffs: QVector, rel: Rel, rhs: Rational) -> Self {
        LinConstraint { coeffs, rel, rhs }
    }

    /// Does the point satisfy the constraint?
    pub fn satisfied_by(&self, x: &[Rational]) -> bool {
        self.rel.admits(self.side_of(x))
    }

    /// The sign of `coeffs · x − rhs`, found without normalizing a sum.
    ///
    /// # Panics
    /// Panics if `x` is not of the constraint's dimension.
    pub fn side_of(&self, x: &[Rational]) -> Sign {
        assert_eq!(self.coeffs.len(), x.len(), "dot product of unequal lengths");
        let rhs = std::iter::once((&self.rhs, &Rational::MINUS_ONE));
        Rational::dot_sign(self.coeffs.iter().zip(x).chain(rhs))
    }

    /// The same constraint with the relation replaced by its closure.
    pub fn closed(&self) -> LinConstraint {
        LinConstraint {
            coeffs: self.coeffs.clone(),
            rel: self.rel.closure(),
            rhs: self.rhs.clone(),
        }
    }
}

/// Result of an LP optimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpOutcome {
    /// The constraint system has no solution.
    Infeasible,
    /// The objective is unbounded above on the feasible set.
    Unbounded,
    /// An optimal solution with its objective value.
    Optimal {
        /// Optimal objective value.
        value: Rational,
        /// An optimal point (length = ambient dimension).
        point: QVector,
    },
}

/// Maximize `objective · x` subject to the constraints (which must be
/// non-strict; strict constraints are rejected).
///
/// # Panics
/// Panics if any constraint is strict or has the wrong arity.
pub fn maximize(d: usize, objective: &[Rational], constraints: &[LinConstraint]) -> LpOutcome {
    assert!(
        constraints.iter().all(|c| !c.rel.is_strict()),
        "maximize requires non-strict constraints; use feasible() for strict systems"
    );
    simplex::solve(d, objective, constraints)
}

/// Minimize `objective · x` subject to non-strict constraints.
pub fn minimize(d: usize, objective: &[Rational], constraints: &[LinConstraint]) -> LpOutcome {
    let neg: QVector = objective.iter().map(|c| -c).collect();
    match maximize(d, &neg, constraints) {
        LpOutcome::Optimal { value, point } => LpOutcome::Optimal {
            value: -value,
            point,
        },
        other => other,
    }
}

/// Decide feasibility of a mixed system (equalities, strict and non-strict
/// inequalities) over the reals, returning a witness point if feasible.
///
/// The witness lies in the relative interior with respect to the strict
/// constraints: every strict constraint holds with positive slack.
pub fn feasible(d: usize, constraints: &[LinConstraint]) -> Option<QVector> {
    let refs: Vec<&LinConstraint> = constraints.iter().collect();
    simplex::feasible_strict(d, &refs)
}

/// [`feasible`] over borrowed constraints.
///
/// Callers probing many systems that share constraint rows (the DNF cells of
/// `lcdb-logic`, where every system is a set of interned atoms) assemble a
/// slice of references instead of cloning exact-rational rows per probe; the
/// solver copies what it needs into its own tableau either way.
pub fn feasible_refs(d: usize, constraints: &[&LinConstraint]) -> Option<QVector> {
    simplex::feasible_strict(d, constraints)
}

/// Decide whether `objective · x` is bounded above on the (closed) feasible
/// set. Returns `None` if the set is empty.
pub fn bounded_above(
    d: usize,
    objective: &[Rational],
    constraints: &[LinConstraint],
) -> Option<bool> {
    match maximize(d, objective, constraints) {
        LpOutcome::Infeasible => None,
        LpOutcome::Unbounded => Some(false),
        LpOutcome::Optimal { .. } => Some(true),
    }
}

/// Is the closed feasible set of the system bounded (contained in some box)?
/// Returns `None` if the set is empty; otherwise the set is bounded iff every
/// coordinate is bounded above and below on it.
pub fn is_bounded(d: usize, constraints: &[LinConstraint]) -> Option<bool> {
    let closed: Vec<LinConstraint> = constraints.iter().map(|c| c.closed()).collect();
    feasible(d, &closed)?;
    let mut axis = vec![Rational::ZERO; d];
    for i in 0..d {
        for sign in [Rational::ONE, -Rational::ONE] {
            axis[i] = sign;
            if maximize(d, &axis, &closed) == LpOutcome::Unbounded {
                return Some(false);
            }
        }
        axis[i] = Rational::ZERO;
    }
    Some(true)
}

/// Check all candidate extensions of one shared prefix, returning one
/// witness option per candidate (positionally). Equivalent to calling
/// [`feasible_refs`] on each concatenated system, but the prefix is solved
/// only once.
pub fn feasible_batch(
    d: usize,
    prefix: &[&LinConstraint],
    extensions: &[&LinConstraint],
) -> Vec<Option<QVector>> {
    let batch = FeasibilityBatch::new(d, prefix);
    extensions.iter().map(|ext| batch.probe(ext)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};

    fn c(coeffs: &[i64], rel: Rel, rhs: i64) -> LinConstraint {
        LinConstraint::new(coeffs.iter().map(|&v| int(v)).collect(), rel, int(rhs))
    }

    #[test]
    fn rel_eval_and_flip() {
        assert!(Rel::Lt.admits(Sign::Negative));
        assert!(!Rel::Lt.admits(Sign::Zero));
        assert!(Rel::Le.admits(Sign::Zero));
        assert_eq!(Rel::Lt.flip(), Rel::Gt);
        assert_eq!(Rel::Eq.flip(), Rel::Eq);
        assert_eq!(Rel::Gt.closure(), Rel::Ge);
        assert!(Rel::Lt.is_strict() && Rel::Gt.is_strict() && !Rel::Eq.is_strict());
    }

    #[test]
    fn maximize_simple_box() {
        // max x + y s.t. 0 <= x <= 2, 0 <= y <= 3.
        let cons = vec![
            c(&[1, 0], Rel::Le, 2),
            c(&[0, 1], Rel::Le, 3),
            c(&[1, 0], Rel::Ge, 0),
            c(&[0, 1], Rel::Ge, 0),
        ];
        match maximize(2, &[int(1), int(1)], &cons) {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, int(5));
                assert_eq!(point, vec![int(2), int(3)]);
            }
            other => panic!("expected optimal, got {:?}", other),
        }
    }

    #[test]
    fn maximize_with_negative_coordinates() {
        // Optimum at a point with negative coordinates.
        let cons = vec![c(&[1, 0], Rel::Le, -1), c(&[-1, 1], Rel::Le, 0)];
        // max x: x <= -1, y <= x  -> x = -1.
        match maximize(2, &[int(1), int(0)], &cons) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, int(-1)),
            other => panic!("expected optimal, got {:?}", other),
        }
    }

    #[test]
    fn unbounded_direction() {
        let cons = vec![c(&[1], Rel::Ge, 0)];
        assert_eq!(maximize(1, &[int(1)], &cons), LpOutcome::Unbounded);
    }

    #[test]
    fn infeasible_closed() {
        let cons = vec![c(&[1], Rel::Le, 0), c(&[1], Rel::Ge, 1)];
        assert_eq!(maximize(1, &[int(1)], &cons), LpOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints() {
        // max y s.t. x + y = 1, x >= 0, y >= 0  -> y = 1 at x = 0.
        let cons = vec![
            c(&[1, 1], Rel::Eq, 1),
            c(&[1, 0], Rel::Ge, 0),
            c(&[0, 1], Rel::Ge, 0),
        ];
        match maximize(2, &[int(0), int(1)], &cons) {
            LpOutcome::Optimal { value, point } => {
                assert_eq!(value, int(1));
                assert_eq!(point[0], int(0));
                assert_eq!(point[1], int(1));
            }
            other => panic!("expected optimal, got {:?}", other),
        }
    }

    #[test]
    fn strict_feasibility_open_interval() {
        // 0 < x < 1 is feasible with an interior witness.
        let cons = vec![c(&[1], Rel::Gt, 0), c(&[1], Rel::Lt, 1)];
        let w = feasible(1, &cons).expect("open interval nonempty");
        assert!(w[0] > int(0) && w[0] < int(1));
    }

    #[test]
    fn strict_infeasibility_at_point() {
        // x >= 1 and x < 1: infeasible; closed version x >= 1, x <= 1 is not.
        let cons = vec![c(&[1], Rel::Ge, 1), c(&[1], Rel::Lt, 1)];
        assert!(feasible(1, &cons).is_none());
        let closed = vec![c(&[1], Rel::Ge, 1), c(&[1], Rel::Le, 1)];
        assert_eq!(feasible(1, &closed).unwrap(), vec![int(1)]);
    }

    #[test]
    fn strict_open_halfplane_with_equality() {
        // x = y and x > 3: witness on the diagonal beyond 3.
        let cons = vec![c(&[1, -1], Rel::Eq, 0), c(&[1, 0], Rel::Gt, 3)];
        let w = feasible(2, &cons).unwrap();
        assert_eq!(w[0], w[1]);
        assert!(w[0] > int(3));
    }

    #[test]
    fn degenerate_zero_row_constraints() {
        // 0 <= 1 (trivially true), 0 < 0 (false).
        assert!(feasible(1, &[c(&[0], Rel::Le, 1)]).is_some());
        assert!(feasible(1, &[c(&[0], Rel::Lt, 0)]).is_none());
        assert!(feasible(1, &[c(&[0], Rel::Eq, 1)]).is_none());
        assert!(feasible(0, &[]).is_some());
    }

    #[test]
    fn boundedness_checks() {
        let tri = vec![
            c(&[1, 0], Rel::Ge, 0),
            c(&[0, 1], Rel::Ge, 0),
            c(&[1, 1], Rel::Le, 1),
        ];
        assert_eq!(is_bounded(2, &tri), Some(true));
        let halfplane = vec![c(&[1, 0], Rel::Ge, 0)];
        assert_eq!(is_bounded(2, &halfplane), Some(false));
        let empty = vec![c(&[1, 0], Rel::Ge, 1), c(&[1, 0], Rel::Le, 0)];
        assert_eq!(is_bounded(2, &empty), None);
        // A single point is bounded.
        let pt = vec![c(&[1, 0], Rel::Eq, 2), c(&[0, 1], Rel::Eq, 3)];
        assert_eq!(is_bounded(2, &pt), Some(true));
    }

    #[test]
    fn minimize_works() {
        let cons = vec![c(&[1], Rel::Ge, 3)];
        match minimize(1, &[int(1)], &cons) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, int(3)),
            other => panic!("{:?}", other),
        }
    }

    #[test]
    fn rational_coefficients() {
        // max x s.t. (1/3)x <= 1/2  ->  x = 3/2.
        let cons = vec![LinConstraint::new(vec![rat(1, 3)], Rel::Le, rat(1, 2))];
        match maximize(1, &[int(1)], &cons) {
            LpOutcome::Optimal { value, .. } => assert_eq!(value, rat(3, 2)),
            other => panic!("{:?}", other),
        }
    }
}
