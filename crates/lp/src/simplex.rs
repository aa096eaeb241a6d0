//! Dense simplex over exact rationals, run on the *dual* program.
//!
//! Every constraint is normalized to a row `a·x ≤ b` over free variables
//! (`≥` negated, `=` as two rows). The dual of `max c·x` over such rows is
//! `min b·λ` subject to `Σ λᵢaᵢ = c`, `λ ≥ 0`: one equality per *variable*
//! and one column per *row*, so the tableau is as high as the dimension and
//! only as wide as the data. Free variables need no split and rows need no
//! slack. Each equality starts with an artificial variable basic in it;
//! artificials never enter the basis, and one whose value is zero is pinned
//! there (see [`Tableau::iterate`]). Bland's rule (smallest eligible index
//! enters, smallest basic index leaves among ties) guarantees termination.
//!
//! The first `n` columns of the tableau are the images of the unit vectors,
//! that is `B⁻¹` for the current basis `B`. They price a new column into a
//! solved tableau (`B⁻¹v`, which is all a warm start takes), and their
//! reduced costs are the negated simplex multipliers `y = c_B·B⁻¹` — at an
//! optimum, a point of the primal attaining it.

use crate::{LinConstraint, LpOutcome, Rel};
use lcdb_budget::work::{self, Work};
use lcdb_arith::Rational;
use lcdb_linalg::QVector;

/// `acc + t·x`. A factor of 0 or 1 and a zero `acc` cost no arithmetic: every
/// exact operation is a gcd, and tableaux are sparse (a fresh basis is the
/// identity).
fn add_product(acc: Rational, t: &Rational, x: &Rational) -> Rational {
    if t.is_zero() || x.is_zero() {
        return acc;
    }
    let term = if t.is_one() { x.clone() } else { t * x };
    if acc.is_zero() {
        term
    } else {
        acc + term
    }
}

/// `−1` for a negative `v`, `1` otherwise.
fn sign(v: &Rational) -> Rational {
    if v.is_negative() {
        -Rational::ONE
    } else {
        Rational::ONE
    }
}

/// `line -= factor · pivot_row`, entry by entry.
fn eliminate(line: &mut [Rational], factor: &Rational, pivot_row: &[Rational]) {
    let factor = -factor;
    for (v, p) in line.iter_mut().zip(pivot_row) {
        *v = add_product(std::mem::take(v), p, &factor);
    }
}

/// `min cost·λ` subject to `Σ λⱼvⱼ = rhs`, `λ ≥ 0`, in tableau form over a
/// basis `B`.
#[derive(Clone)]
struct Tableau {
    /// Row `r` of `B⁻¹·[I | v₀ v₁ …]`: `n` unit images, then one entry per
    /// pushed column.
    rows: Vec<Vec<Rational>>,
    /// `B⁻¹·rhs`, the values of the basic variables (never negative).
    rhs: Vec<Rational>,
    /// Reduced costs, laid out like a row; the unit images carry `−y`.
    cost: Vec<Rational>,
    /// Objective value of the basic solution.
    value: Rational,
    /// The column basic in each row; `r` itself while the artificial of row
    /// `r` still is.
    basis: Vec<usize>,
}

impl Tableau {
    /// The all-artificial basis for `rhs`, artificial `k` entering its row
    /// with the sign of `rhs[k]`; `multipliers` is `y` for the cost the
    /// caller gives the artificials.
    fn new(rhs: Vec<Rational>, multipliers: &[Rational]) -> Tableau {
        let n = rhs.len();
        let value = Rational::dot(multipliers.iter().zip(&rhs));
        let rows = (0..n)
            .map(|r| {
                let mut row = vec![Rational::ZERO; n];
                row[r] = sign(&rhs[r]);
                row
            })
            .collect();
        Tableau {
            rows,
            rhs: rhs.iter().map(Rational::abs).collect(),
            cost: multipliers.iter().map(|y| -y).collect(),
            value,
            basis: (0..n).collect(),
        }
    }

    /// Append the column `v` with cost `cost`, nonbasic: `B⁻¹v` under the
    /// current basis, priced by the current multipliers.
    fn push(&mut self, v: &[Rational], cost: Rational) {
        let n = self.rows.len();
        assert_eq!(v.len(), n, "constraint arity mismatch");
        let image = |line: &[Rational], start: Rational| {
            line[..n]
                .iter()
                .zip(v)
                .fold(start, |acc, (t, x)| add_product(acc, t, x))
        };
        for row in &mut self.rows {
            let entry = image(row, Rational::ZERO);
            row.push(entry);
        }
        let reduced = image(&self.cost, cost);
        self.cost.push(reduced);
    }

    /// Replace the objective: `costs[j]` for the `j`-th pushed column, zero
    /// for the artificials.
    fn reprice(&mut self, costs: &[Rational]) {
        let n = self.rows.len();
        self.cost.truncate(n);
        self.cost.fill(Rational::ZERO);
        self.cost.extend_from_slice(costs);
        self.value = Rational::ZERO;
        for r in 0..n {
            let Some(factor) = self.basis[r].checked_sub(n).map(|j| &costs[j]) else {
                continue;
            };
            eliminate(&mut self.cost, factor, &self.rows[r]);
            self.value += &(factor * &self.rhs[r]);
        }
    }

    /// Pivot on (row r, column e): make column e basic in row r.
    fn pivot(&mut self, r: usize, e: usize) {
        work::add(Work::LpPivots, 1);
        let inv = self.rows[r][e].recip();
        for v in self.rows[r].iter_mut().chain([&mut self.rhs[r]]) {
            if !v.is_zero() {
                *v *= &inv;
            }
        }
        let pivot_row = std::mem::take(&mut self.rows[r]);
        let pivot_rhs = self.rhs[r].clone();
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i == r || row[e].is_zero() {
                continue;
            }
            let factor = row[e].clone();
            eliminate(row, &factor, &pivot_row);
            self.rhs[i] -= &(&pivot_rhs * &factor);
        }
        if !self.cost[e].is_zero() {
            let factor = self.cost[e].clone();
            eliminate(&mut self.cost, &factor, &pivot_row);
            self.value += &(&pivot_rhs * &factor);
        }
        self.rows[r] = pivot_row;
        self.basis[r] = e;
    }

    /// Run simplex iterations; `true` at an optimum, `false` if the
    /// objective is unbounded below.
    ///
    /// A basic artificial at value zero is *pinned*: any non-zero entry of
    /// the entering column in its row, of either sign, ties the ratio test
    /// at zero. Stepping along such a column would move the artificial off
    /// zero one way or the other, so the step has length zero and — the
    /// artificials having the smallest indices — Bland's tie-break takes the
    /// artificial out, for good. Pinned rows therefore keep value zero, a
    /// basis that is feasible stays so, and a row no column touches keeps
    /// its artificial (the variable of that row is in no constraint). A
    /// cycle cannot contain a pivot that retires an artificial; without one
    /// the pinned rows have zero entries in every entering column and the
    /// pivots are Bland's on the remaining rows.
    fn iterate(&mut self) -> bool {
        let n = self.rows.len();
        loop {
            // Fault-injection site: stands in for a degenerate/cycling pivot.
            // The pivot loop is infallible (Bland's rule terminates), so the
            // fault is deferred and surfaces at the work ledger's next charge.
            #[cfg(feature = "faults")]
            lcdb_budget::faults::hit("lp.pivot");
            let Some(e) = (n..self.cost.len()).find(|&j| self.cost[j].is_negative()) else {
                return true;
            };
            let mut best: Option<(usize, Rational)> = None;
            for r in 0..n {
                let a = &self.rows[r][e];
                let pinned = self.basis[r] < n && self.rhs[r].is_zero();
                if !(a.is_positive() || pinned && !a.is_zero()) {
                    continue;
                }
                let ratio = &self.rhs[r] / a;
                let closer = best.as_ref().is_none_or(|(at, least)| {
                    ratio < *least || ratio == *least && self.basis[r] < self.basis[*at]
                });
                if closer {
                    best = Some((r, ratio));
                }
            }
            let Some((r, _)) = best else {
                return false;
            };
            self.pivot(r, e);
        }
    }

    /// The first `d` simplex multipliers: at an optimum, a primal point.
    fn point(&self, d: usize) -> QVector {
        self.cost[..d].iter().map(|c| -c).collect()
    }
}

/// The rows `a·x + s·δ ≤ b` of `c` — `s` is 1 on a strict row, and left out
/// unless `delta` — each as the column `(a, s)` of the dual and its cost `b`.
fn columns(c: &LinConstraint, delta: bool) -> impl Iterator<Item = (QVector, Rational)> + '_ {
    let sides: &[bool] = match c.rel {
        Rel::Lt | Rel::Le => &[false],
        Rel::Gt | Rel::Ge => &[true],
        Rel::Eq => &[false, true],
    };
    sides.iter().map(move |&negate| {
        let side = |v: &Rational| if negate { -v } else { v.clone() };
        let mut column: QVector = c.coeffs.iter().map(side).collect();
        if delta {
            column.push(if c.rel.is_strict() {
                Rational::ONE
            } else {
                Rational::ZERO
            });
        }
        (column, side(&c.rhs))
    })
}

/// The interior-δ program of a system, solved: `max δ` subject to `δ ≤ 1` and
/// the system's rows, as its dual `min b·λ + μ` subject to `Σ λᵢaᵢ = 0` (one
/// equality per variable), `Σ sᵢλᵢ + μ = 1`. `λ = 0, μ = 1` is a basic
/// solution — `μ` basic at 1, the artificials of the `d` other rows pinned at
/// 0 — so there is no phase 1. `None` if the dual is unbounded: not even the
/// non-strict rows have a common point.
fn interior(d: usize, constraints: &[&LinConstraint]) -> Option<Tableau> {
    let mut unit = vec![Rational::ZERO; d + 1];
    unit[d] = Rational::ONE;
    let mut t = Tableau::new(unit.clone(), &unit);
    // μ's column is the unit vector of the δ row: basic there as it stands.
    t.push(&unit, Rational::ONE);
    t.basis[d] = d + 1;
    for c in constraints {
        for (column, cost) in columns(c, true) {
            t.push(&column, cost);
        }
    }
    t.iterate().then_some(t)
}

/// The verdict of a solved [`interior`] program: its optimum is `δ*`, and the
/// multipliers satisfy every strict row with slack `δ*`.
fn witness(t: &Tableau, d: usize, has_strict: bool) -> Option<QVector> {
    (!has_strict || t.value.is_positive()).then(|| t.point(d))
}

/// Feasibility of a mixed strict/non-strict system via interior-δ
/// maximization; returns a relative-interior witness if feasible.
pub(crate) fn feasible_strict(d: usize, constraints: &[&LinConstraint]) -> Option<QVector> {
    work::add(Work::LpSolves, 1);
    let has_strict = constraints.iter().any(|c| c.rel.is_strict());
    let point = witness(&interior(d, constraints)?, d, has_strict)?;
    debug_assert!(constraints.iter().all(|c| c.satisfied_by(&point)));
    Some(point)
}

/// Solve `max objective·x` over the free variables subject to non-strict
/// constraints: two phases on the dual `min b·λ`, `Σ λᵢaᵢ = objective`.
pub(crate) fn solve(d: usize, objective: &[Rational], constraints: &[LinConstraint]) -> LpOutcome {
    assert_eq!(objective.len(), d, "objective arity mismatch");
    work::add(Work::LpSolves, 1);
    // Phase 1: unit cost on the artificials, none on the columns.
    let signs: QVector = objective.iter().map(sign).collect();
    let mut t = Tableau::new(objective.to_vec(), &signs);
    let mut costs = Vec::with_capacity(constraints.len());
    for c in constraints {
        for (column, cost) in columns(c, false) {
            t.push(&column, Rational::ZERO);
            costs.push(cost);
        }
    }
    let optimal = t.iterate();
    debug_assert!(
        optimal,
        "a sum of non-negative artificials is bounded below"
    );
    if t.value.is_positive() {
        // The dual is empty, so the primal is empty or unbounded.
        let refs: Vec<&LinConstraint> = constraints.iter().collect();
        return match interior(d, &refs) {
            Some(_) => LpOutcome::Unbounded,
            None => LpOutcome::Infeasible,
        };
    }
    t.reprice(&costs);
    if !t.iterate() {
        return LpOutcome::Infeasible;
    }
    LpOutcome::Optimal {
        value: t.value.clone(),
        point: t.point(d),
    }
}

/// A feasibility oracle for a family of systems sharing a constraint prefix.
///
/// Sign-cell enumeration asks, per cell and per new hyperplane, which of the
/// candidate sign extensions `{<, =, >}` are realizable — three systems
/// differing only in their final constraint — and a pruned distribution asks
/// the same of the alternatives of a disjunction. `FeasibilityBatch` solves
/// the shared prefix **once**; since a further constraint is a further
/// *column*, which leaves the basis feasible, each probe appends the
/// candidate's column(s) to a copy of that optimal tableau and pivots on from
/// there, instead of re-solving the prefix from scratch.
///
/// A probe is semantically identical to [`crate::feasible_refs`] on the
/// concatenated system: it decides feasibility over the reals with strict
/// constraints honored via the interior-δ method, and returns a witness in
/// the relative interior of the strict constraints. (The witness point may
/// differ from the one `feasible_refs` picks — both are valid interior
/// points, but the pivot paths differ.)
pub struct FeasibilityBatch {
    d: usize,
    /// The solved prefix; `None` if its non-strict rows have no common point.
    tableau: Option<Tableau>,
    prefix_has_strict: bool,
    #[cfg(debug_assertions)]
    prefix: Vec<LinConstraint>,
}

impl FeasibilityBatch {
    /// Solve the shared prefix.
    pub fn new(d: usize, prefix: &[&LinConstraint]) -> FeasibilityBatch {
        work::add(Work::LpSolves, 1);
        FeasibilityBatch {
            d,
            tableau: interior(d, prefix),
            prefix_has_strict: prefix.iter().any(|c| c.rel.is_strict()),
            #[cfg(debug_assertions)]
            prefix: prefix.iter().map(|&c| c.clone()).collect(),
        }
    }

    /// Do the non-strict constraints of the prefix have a common point at
    /// all? When `false`, every probe answers `None` without any work.
    pub fn prefix_feasible(&self) -> bool {
        self.tableau.is_some()
    }

    /// Decide feasibility of `prefix ∧ extension`, returning an interior
    /// witness if the combined system is realizable.
    pub fn probe(&self, extension: &LinConstraint) -> Option<QVector> {
        self.probe_all(&[extension])
    }

    /// [`probe`](Self::probe) with a whole run of constraints as the
    /// extension: each is one more column (an equality two) on the copy.
    pub fn probe_all(&self, extensions: &[&LinConstraint]) -> Option<QVector> {
        let mut t = self.tableau.as_ref()?.clone();
        work::add(Work::LpWarmProbes, 1);
        for extension in extensions {
            for (column, cost) in columns(extension, true) {
                t.push(&column, cost);
            }
        }
        let has_strict = self.prefix_has_strict || extensions.iter().any(|c| c.rel.is_strict());
        let point = t.iterate().then(|| witness(&t, self.d, has_strict))??;
        #[cfg(debug_assertions)]
        debug_assert!(
            self.prefix
                .iter()
                .chain(extensions.iter().copied())
                .all(|c| c.satisfied_by(&point)),
            "batch probe witness violates its system"
        );
        Some(point)
    }
}
