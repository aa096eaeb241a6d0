//! Test oracle: the dense two-phase *primal* simplex `lcdb-lp` ran on until
//! its entry points moved to the dual tableau. One row per constraint, free
//! variables split into positive and negative parts, a slack per row, an
//! artificial per negative right-hand side that phase 1 drives to zero,
//! Bland's rule. Kept as it was (minus counters, statistics and the fault
//! site) so the differential in `primal_oracle.rs` compares two independent
//! solvers.

use lcdb_arith::Rational;
use lcdb_linalg::QVector;
use lcdb_lp::{LinConstraint, LpOutcome, Rel};

struct Tableau {
    /// `rows x (cols + 1)` matrix; last entry of each row is the rhs.
    rows: Vec<Vec<Rational>>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total number of variables (columns excluding rhs).
    cols: usize,
    /// Objective row: `[reduced costs | -z0]`.
    obj: Vec<Rational>,
    /// Columns that may never enter the basis (artificials in phase 2).
    banned: Vec<bool>,
}

enum StepResult {
    Optimal,
    Unbounded,
}

impl Tableau {
    /// Pivot on (row r, column c): make column c basic in row r.
    fn pivot(&mut self, r: usize, c: usize) {
        let pivot_val = self.rows[r][c].clone();
        debug_assert!(!pivot_val.is_zero());
        let inv = pivot_val.recip();
        for v in self.rows[r].iter_mut() {
            if !v.is_zero() {
                *v *= &inv;
            }
        }
        let pivot_row = self.rows[r].clone();
        for i in 0..self.rows.len() {
            if i == r || self.rows[i][c].is_zero() {
                continue;
            }
            let factor = self.rows[i][c].clone();
            for (j, pv) in pivot_row.iter().enumerate() {
                if !pv.is_zero() {
                    let delta = pv * &factor;
                    let v = &self.rows[i][j] - &delta;
                    self.rows[i][j] = v;
                }
            }
        }
        if !self.obj[c].is_zero() {
            let factor = self.obj[c].clone();
            for (j, pv) in pivot_row.iter().enumerate() {
                if !pv.is_zero() {
                    let delta = pv * &factor;
                    let v = &self.obj[j] - &delta;
                    self.obj[j] = v;
                }
            }
        }
        self.basis[r] = c;
    }

    /// Eliminate basic columns from the objective row.
    fn reduce_objective(&mut self) {
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            if self.obj[b].is_zero() {
                continue;
            }
            let factor = self.obj[b].clone();
            let row = self.rows[r].clone();
            for (j, pv) in row.iter().enumerate() {
                if !pv.is_zero() {
                    let delta = pv * &factor;
                    let v = &self.obj[j] - &delta;
                    self.obj[j] = v;
                }
            }
        }
    }

    /// Run simplex iterations until optimal or unbounded.
    fn iterate(&mut self) -> StepResult {
        loop {
            // Bland: smallest-index column with positive reduced cost.
            let entering = (0..self.cols).find(|&j| !self.banned[j] && self.obj[j].is_positive());
            let Some(e) = entering else {
                return StepResult::Optimal;
            };
            // Ratio test; Bland tie-break on smallest basic variable index.
            let mut best: Option<(usize, Rational)> = None;
            for r in 0..self.rows.len() {
                let a = &self.rows[r][e];
                if !a.is_positive() {
                    continue;
                }
                let ratio = &self.rows[r][self.cols] / a;
                match &best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        if ratio < *bratio || (ratio == *bratio && self.basis[r] < self.basis[*br])
                        {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
            let Some((r, _)) = best else {
                return StepResult::Unbounded;
            };
            self.pivot(r, e);
        }
    }

    /// Current objective value `z0`.
    fn objective_value(&self) -> Rational {
        -self.obj[self.cols].clone()
    }

    /// Value of variable `j` in the current basic solution.
    fn var_value(&self, j: usize) -> Rational {
        for r in 0..self.rows.len() {
            if self.basis[r] == j {
                return self.rows[r][self.cols].clone();
            }
        }
        Rational::ZERO
    }
}

/// Normalize into `a·y ≤ b` rows over the split variables.
fn normalized_rows(d: usize, constraints: &[LinConstraint]) -> Vec<(QVector, Rational)> {
    let mut rows = Vec::new();
    let mut push = |coeffs: &[Rational], rhs: Rational, negate: bool| {
        let mut split = Vec::with_capacity(2 * d);
        if negate {
            split.extend(coeffs.iter().map(|c| -c));
            split.extend(coeffs.iter().cloned());
            rows.push((split, -rhs));
        } else {
            split.extend(coeffs.iter().cloned());
            split.extend(coeffs.iter().map(|c| -c));
            rows.push((split, rhs));
        }
    };
    for c in constraints {
        assert_eq!(c.coeffs.len(), d, "constraint arity mismatch");
        match c.rel {
            Rel::Le => push(&c.coeffs, c.rhs.clone(), false),
            Rel::Ge => push(&c.coeffs, c.rhs.clone(), true),
            Rel::Eq => {
                push(&c.coeffs, c.rhs.clone(), false);
                push(&c.coeffs, c.rhs.clone(), true);
            }
            Rel::Lt | Rel::Gt => unreachable!("strict constraints must be pre-processed"),
        }
    }
    rows
}

/// Build the slack/artificial tableau for `constraints` over `d` split free
/// variables and run phase 1.
/// Returns the phase-1-complete tableau — artificials banned, any basic ones
/// pivoted out where possible — and whether the system is feasible.
fn phase1_tableau(d: usize, constraints: &[LinConstraint]) -> (Tableau, bool) {
    let norm = normalized_rows(d, constraints);
    let m = norm.len();
    let n_struct = 2 * d;
    let n_artificial = norm.iter().filter(|(_, b)| b.is_negative()).count();
    let cols = n_struct + m + n_artificial;

    let mut rows = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut art_cols = Vec::new();
    let mut next_art = n_struct + m;
    for (i, (coeffs, rhs)) in norm.iter().enumerate() {
        let mut row = vec![Rational::ZERO; cols + 1];
        let negate = rhs.is_negative();
        for (j, v) in coeffs.iter().enumerate() {
            row[j] = if negate { -v } else { v.clone() };
        }
        // Slack for this row.
        row[n_struct + i] = if negate {
            -Rational::ONE
        } else {
            Rational::ONE
        };
        row[cols] = if negate { -rhs } else { rhs.clone() };
        if negate {
            row[next_art] = Rational::ONE;
            basis.push(next_art);
            art_cols.push(next_art);
            next_art += 1;
        } else {
            basis.push(n_struct + i);
        }
        rows.push(row);
    }

    let mut t = Tableau {
        rows,
        basis,
        cols,
        obj: vec![Rational::ZERO; cols + 1],
        banned: vec![false; cols],
    };

    // Phase 1: maximize -(sum of artificials).
    if !art_cols.is_empty() {
        for &a in &art_cols {
            t.obj[a] = -Rational::ONE;
        }
        t.reduce_objective();
        match t.iterate() {
            StepResult::Unbounded => unreachable!("phase-1 objective is bounded above by 0"),
            StepResult::Optimal => {}
        }
        if t.objective_value().is_negative() {
            return (t, false);
        }
        // Ban artificials and pivot any remaining basic ones out.
        for &a in &art_cols {
            t.banned[a] = true;
        }
        for r in 0..t.rows.len() {
            if !t.banned[t.basis[r]] {
                continue;
            }
            // The artificial sits at value zero; pivot to any usable column.
            let col = (0..t.cols).find(|&j| !t.banned[j] && !t.rows[r][j].is_zero());
            if let Some(c) = col {
                t.pivot(r, c);
            }
            // If no column is available the row is redundant (all zeros over
            // real variables); leaving the artificial basic at zero is safe
            // because banned columns never enter and the row never binds.
        }
    }
    (t, true)
}

/// Solve `max objective·x` over the free variables subject to non-strict
/// constraints.
pub fn maximize(d: usize, objective: &[Rational], constraints: &[LinConstraint]) -> LpOutcome {
    assert_eq!(objective.len(), d, "objective arity mismatch");
    let (mut t, feasible) = phase1_tableau(d, constraints);
    if !feasible {
        return LpOutcome::Infeasible;
    }
    let cols = t.cols;

    // Phase 2: the real objective over the split variables.
    t.obj = vec![Rational::ZERO; cols + 1];
    for (j, c) in objective.iter().enumerate().take(d) {
        t.obj[j] = c.clone();
        t.obj[d + j] = -c.clone();
    }
    t.reduce_objective();
    match t.iterate() {
        StepResult::Unbounded => LpOutcome::Unbounded,
        StepResult::Optimal => {
            let mut x = Vec::with_capacity(d);
            for j in 0..d {
                x.push(&t.var_value(j) - &t.var_value(d + j));
            }
            LpOutcome::Optimal {
                value: t.objective_value(),
                point: x,
            }
        }
    }
}

/// Rewrite a constraint over `d` variables into the δ-extended space of
/// `d + 1` variables: strict relations pick up a ±1 coefficient on δ (so
/// positive δ means positive slack) and weaken to their closures.
fn delta_extend(c: &LinConstraint, d: usize) -> LinConstraint {
    let mut coeffs = c.coeffs.clone();
    debug_assert_eq!(coeffs.len(), d);
    match c.rel {
        Rel::Lt => {
            coeffs.push(Rational::ONE);
            LinConstraint::new(coeffs, Rel::Le, c.rhs.clone())
        }
        Rel::Gt => {
            coeffs.push(-Rational::ONE);
            LinConstraint::new(coeffs, Rel::Ge, c.rhs.clone())
        }
        rel => {
            coeffs.push(Rational::ZERO);
            LinConstraint::new(coeffs, rel, c.rhs.clone())
        }
    }
}

/// Feasibility of a mixed strict/non-strict system via interior-δ
/// maximization; returns a relative-interior witness if feasible.
pub fn feasible(d: usize, constraints: &[&LinConstraint]) -> Option<QVector> {
    let has_strict = constraints.iter().any(|c| c.rel.is_strict());
    // Work in dimension d+1 with δ as the extra coordinate.
    let dd = d + 1;
    let mut cons: Vec<LinConstraint> = Vec::with_capacity(constraints.len() + 1);
    for c in constraints {
        cons.push(delta_extend(c, d));
    }
    // Cap δ so the objective is bounded.
    let mut cap = vec![Rational::ZERO; dd];
    cap[d] = Rational::ONE;
    cons.push(LinConstraint::new(cap, Rel::Le, Rational::ONE));

    let mut obj = vec![Rational::ZERO; dd];
    obj[d] = Rational::ONE;
    match maximize(dd, &obj, &cons) {
        LpOutcome::Infeasible => None,
        LpOutcome::Unbounded => unreachable!("δ is capped at 1"),
        LpOutcome::Optimal { value, mut point } => {
            if has_strict && !value.is_positive() {
                None
            } else {
                point.truncate(d);
                debug_assert!(constraints.iter().all(|c| c.satisfied_by(&point)));
                Some(point)
            }
        }
    }
}

/// Boundedness of the closed feasible set along every ±axis direction,
/// sharing one phase-1 solve across all `2d` objective re-optimizations.
/// Returns `None` on an empty feasible set, `Some(false)` at the first
/// unbounded direction.
pub fn is_bounded(d: usize, constraints: &[LinConstraint]) -> Option<bool> {
    debug_assert!(constraints.iter().all(|c| !c.rel.is_strict()));
    if d == 0 {
        // A zero-dimensional set is a point or empty.
        return feasible(0, &constraints.iter().collect::<Vec<_>>()).map(|_| true);
    }
    let (mut t, feasible) = phase1_tableau(d, constraints);
    if !feasible {
        return None;
    }
    let cols = t.cols;

    // Each ±axis objective restarts from the previous optimum's basis, which
    // stays primal-feasible throughout — only the objective row changes.
    for i in 0..d {
        for sign in [Rational::ONE, -Rational::ONE] {
            t.obj = vec![Rational::ZERO; cols + 1];
            t.obj[i] = sign.clone();
            t.obj[d + i] = -sign;
            t.reduce_objective();
            if let StepResult::Unbounded = t.iterate() {
                return Some(false);
            }
        }
    }
    Some(true)
}
