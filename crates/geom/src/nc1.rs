//! The Appendix-A decomposition: `regions(ψ)` per disjunct, computable in
//! NC¹ (Lemma A.1).
//!
//! For each disjunct `ψ` of the relation's DNF representation:
//!
//! 1. compute the vertex set `vert(ψ)` from `d`-subsets of the bounding
//!    hyperplanes `𝔥(ψ)` (keeping intersection points in `closure(ψ)`),
//! 2. decide boundedness with the `cube(ψ)` test at coordinate `±2(c+1)`,
//! 3. bounded: *outer* regions are open hulls of at most `d` vertices whose
//!    pairwise open segments avoid the interior of `ψ` — for points of
//!    `closure(ψ)`, iff the two share a tight inequality row. *Inner*
//!    regions are open hulls of the lexicographically smallest vertex
//!    `p_low` and a `d`-multiset `T` of vertices that no open segment
//!    `(p_low, q)` to another vertex meets. One meets iff `q − p_low` is a
//!    strictly positive combination of the directions to `T`: coordinates
//!    from one elimination per tuple when those are independent (always for
//!    `d ≤ 2`), the segment test against `T`'s hull when they are not,
//! 4. unbounded: vertices of `ψ ∩ icube(ψ)` give the bounded regions as in
//!    3; the `up(ψ)` pairs `(p, p−q)` give ray regions and their open hulls.
//!
//! Distinct vertices are extreme points, so a region is its vertex-index set
//! and a hull is built only for a set emitted for the first time (or for a
//! dependent tuple): `4k − 5` for a `k`-gon, one per region (the ledger's
//! `geom.nc1_hulls`, [`Work::Nc1Hulls`]).
//!
//! Unlike the arrangement of §3, these regions may overlap across disjuncts
//! and do not cover all of `ℝ^d` — but every point of `S` lies in at least
//! one region (tested in the integration suite).

use crate::hyperplane::primitive_factor;
use crate::vrep::subsets_of_size;
use crate::{Hyperplane, VPolyhedron};
use lcdb_arith::{Rational, Sign};
use lcdb_budget::work::{self, Work};
use lcdb_budget::{BudgetError, EvalBudget};
use lcdb_linalg::{dot, dot_sign, scale, vec_add, vec_sub, Flat, Matrix, QVector, RrefResult};
use lcdb_logic::{dnf::Conjunct, Relation};
use lcdb_lp::{LinConstraint, Rel};
use std::collections::HashSet;

/// `VPolyhedron::new`, counted.
fn hull(points: Vec<QVector>, rays: Vec<QVector>) -> VPolyhedron {
    work::add(Work::Nc1Hulls, 1);
    VPolyhedron::new(points, rays)
}

/// How a region was produced (the paper's terminology).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// An open hull of at most `d` vertices on the boundary of `ψ`.
    Outer,
    /// A fan region from `p_low` (open hull of `d+1` vertices).
    Inner,
    /// An unbounded ray region `{p + a(p−q) : a > 0}` from `up(ψ)`.
    Ray,
    /// An open hull of several ray regions.
    UnboundedHull,
}

/// One region of the decomposition.
#[derive(Clone, Debug)]
pub struct Nc1Region {
    /// The region's point set.
    pub set: VPolyhedron,
    /// Index of the disjunct of `φ_S` this region was computed from.
    pub disjunct: usize,
    /// Construction kind.
    pub kind: RegionKind,
    /// Dimension of the region.
    pub dim: usize,
}

/// The full decomposition of a relation: the union of `regions(ψᵢ)`.
#[derive(Clone, Debug)]
pub struct Nc1Decomposition {
    /// Ambient dimension.
    pub dim: usize,
    /// All regions across disjuncts.
    pub regions: Vec<Nc1Region>,
}

impl Nc1Decomposition {
    /// Region counts indexed by dimension.
    pub fn counts_by_dim(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.dim + 1];
        for r in &self.regions {
            counts[r.dim] += 1;
        }
        counts
    }

    /// Does any region contain the point?
    pub fn covers(&self, x: &[Rational]) -> bool {
        self.regions.iter().any(|r| r.set.contains(x))
    }
}

/// Decompose a relation: the union of the per-disjunct decompositions.
pub fn decompose_relation(relation: &Relation) -> Nc1Decomposition {
    match try_decompose_relation(relation, &EvalBudget::unlimited()) {
        Ok(dec) => dec,
        Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
    }
}

/// Decompose a relation under a resource budget.
///
/// The accumulated region count is checked against the budget's face cap as
/// each disjunct is decomposed (the vertex-fan construction enumerates
/// `d`-subsets and `d`-multisets of the vertex set, which blows up
/// combinatorially), and each candidate subset, multiset or ray pair is one
/// unit of `geom.nc1_candidates` charged to the budget, which arms the
/// thread's work ledger for the call.
pub fn try_decompose_relation(
    relation: &Relation,
    budget: &EvalBudget,
) -> Result<Nc1Decomposition, BudgetError> {
    let d = relation.arity();
    let order: Vec<String> = relation.var_names().to_vec();
    let _armed = work::arm(budget, [0, 0]);
    let mut regions = Vec::new();
    for (i, conj) in relation.dnf().disjuncts.iter().enumerate() {
        for (set, kind) in try_decompose_conjunct_inner(d, conj, &order, budget)? {
            let dim = set.dim();
            regions.push(Nc1Region {
                set,
                disjunct: i,
                kind,
                dim,
            });
        }
        budget.check_faces(regions.len())?;
    }
    Ok(Nc1Decomposition { dim: d, regions })
}

/// Decompose a single disjunct `ψ` into its regions.
pub fn decompose_conjunct(
    d: usize,
    conj: &Conjunct,
    var_order: &[String],
) -> Vec<(VPolyhedron, RegionKind)> {
    match try_decompose_conjunct(d, conj, var_order, &EvalBudget::unlimited()) {
        Ok(regions) => regions,
        Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
    }
}

/// Budgeted variant of [`decompose_conjunct`].
pub fn try_decompose_conjunct(
    d: usize,
    conj: &Conjunct,
    var_order: &[String],
    budget: &EvalBudget,
) -> Result<Vec<(VPolyhedron, RegionKind)>, BudgetError> {
    let _armed = work::arm(budget, [0, 0]);
    try_decompose_conjunct_inner(d, conj, var_order, budget)
}

fn try_decompose_conjunct_inner(
    d: usize,
    conj: &Conjunct,
    var_order: &[String],
    budget: &EvalBudget,
) -> Result<Vec<(VPolyhedron, RegionKind)>, BudgetError> {
    match try_read_disjunct(d, conj, var_order, budget)? {
        None => Ok(Vec::new()), // empty polyhedron: no regions
        Some(psi) if psi.bounded => try_bounded_regions(d, &psi.vertices, &psi.interior, budget),
        Some(psi) => try_unbounded_regions(d, &psi, budget),
    }
}

/// A nonempty disjunct `ψ` after steps 1 and 2: its closure and relative
/// interior, distinct bounding hyperplanes, vertices, cube bound and verdict.
pub(crate) struct Disjunct {
    closed: Vec<LinConstraint>,
    interior: Vec<LinConstraint>,
    hyperplanes: Vec<Hyperplane>,
    pub(crate) vertices: Vec<QVector>,
    bound: Rational,
    pub(crate) bounded: bool,
}

/// Steps 1 and 2 for one disjunct; `None` when it is empty.
pub(crate) fn try_read_disjunct(
    d: usize,
    conj: &Conjunct,
    var_order: &[String],
    budget: &EvalBudget,
) -> Result<Option<Disjunct>, BudgetError> {
    let original: Vec<LinConstraint> = conj.iter().map(|a| a.to_constraint(var_order)).collect();
    if lcdb_lp::feasible(d, &original).is_none() {
        return Ok(None);
    }
    let closed: Vec<LinConstraint> = original.iter().map(|c| c.closed()).collect();
    // Relative interior of ψ: strict inequalities, equalities kept.
    let interior: Vec<LinConstraint> = original
        .iter()
        .map(|c| LinConstraint::new(c.coeffs.clone(), c.rel.interior(), c.rhs.clone()))
        .collect();
    let mut seen = HashSet::new();
    let hyperplanes: Vec<Hyperplane> = conj
        .iter()
        .filter_map(|a| Hyperplane::from_atom(a, var_order))
        .filter(|h| seen.insert(h.clone()))
        .collect();

    // Step 1: vertices of ψ.
    let vertices = try_vertex_set(d, &hyperplanes, &closed, budget)?;

    // Step 2: boundedness via the cube test.
    let c = max_abs_coordinate(d, &hyperplanes, &vertices);
    let bound = (&c + &Rational::one()) * Rational::from(2);
    let bounded = is_bounded_by_cube(d, &closed, &bound);
    Ok(Some(Disjunct { closed, interior, hyperplanes, vertices, bound, bounded }))
}

/// Vertices: `d`-subsets of hyperplanes meeting in a single point inside the
/// closure.
fn try_vertex_set(
    d: usize,
    hyperplanes: &[Hyperplane],
    closed: &[LinConstraint],
    budget: &EvalBudget,
) -> Result<Vec<QVector>, BudgetError> {
    check_combination_count(hyperplanes.len(), d, budget)?;
    let mut vertices: Vec<QVector> = Vec::new();
    for combo in subsets_of_size(hyperplanes.len(), d) {
        work::charge(Work::Nc1Candidates, 1)?;
        let eqs: Vec<(QVector, Rational)> = combo
            .iter()
            .map(|&i| (hyperplanes[i].coeffs().to_vec(), hyperplanes[i].rhs().clone()))
            .collect();
        let Some(flat) = Flat::from_equations(d, &eqs) else {
            continue;
        };
        if flat.dim() != 0 {
            continue;
        }
        let p = flat.point();
        if closed.iter().all(|con| con.satisfied_by(&p)) && !vertices.contains(&p) {
            vertices.push(p);
            budget.check_faces(vertices.len())?;
        }
    }
    vertices.sort();
    Ok(vertices)
}

/// The constant `c` of Appendix A: max |coordinate| over `vert(ψ)`, falling
/// back to `vert'(ψ)` (adding the coordinate hyperplanes, no closure check)
/// when there are no vertices.
fn max_abs_coordinate(
    d: usize,
    hyperplanes: &[Hyperplane],
    vertices: &[QVector],
) -> Rational {
    let mut c = Rational::zero();
    if !vertices.is_empty() {
        for v in vertices {
            for coord in v {
                c = Rational::max_val(&c, &coord.abs());
            }
        }
        return c;
    }
    // vert'(ψ): add the axis hyperplanes x_i = 0.
    let mut augmented: Vec<Hyperplane> = hyperplanes.to_vec();
    for i in 0..d {
        let mut coeffs = vec![Rational::zero(); d];
        coeffs[i] = Rational::one();
        let h = Hyperplane::new(coeffs, Rational::zero());
        if !augmented.contains(&h) {
            augmented.push(h);
        }
    }
    for combo in subsets_of_size(augmented.len(), d) {
        let eqs: Vec<(QVector, Rational)> = combo
            .iter()
            .map(|&i| (augmented[i].coeffs().to_vec(), augmented[i].rhs().clone()))
            .collect();
        if let Some(flat) = Flat::from_equations(d, &eqs) {
            if flat.dim() == 0 {
                for coord in flat.point() {
                    c = Rational::max_val(&c, &coord.abs());
                }
            }
        }
    }
    c
}

/// Cube test: ψ is bounded iff every cube hyperplane `x_i = ±bound` misses ψ.
fn is_bounded_by_cube(d: usize, closed: &[LinConstraint], bound: &Rational) -> bool {
    for i in 0..d {
        for sign in [1i64, -1] {
            let mut coeffs = vec![Rational::zero(); d];
            coeffs[i] = Rational::one();
            let rhs = if sign > 0 { bound.clone() } else { -bound };
            let mut cons = closed.to_vec();
            cons.push(LinConstraint::new(coeffs, Rel::Eq, rhs));
            if lcdb_lp::feasible(d, &cons).is_some() {
                return false;
            }
        }
    }
    true
}

/// Inner and outer regions for a bounded vertex set. `interior` is the
/// strict constraint system whose relative interior outer segments must
/// avoid (the interior of `ψ` — the *original* ψ also in the unbounded case).
fn try_bounded_regions(
    d: usize,
    vertices: &[QVector],
    interior: &[LinConstraint],
    budget: &EvalBudget,
) -> Result<Vec<(VPolyhedron, RegionKind)>, BudgetError> {
    #[cfg(test)]
    if tests::HULL_ORACLE.with(std::cell::Cell::get) {
        return tests::hull_oracle_regions(d, vertices, interior, budget);
    }
    let mut out: Vec<(VPolyhedron, RegionKind)> = Vec::new();
    if vertices.is_empty() {
        return Ok(out);
    }
    // The vertices are distinct extreme points, so a region is its sorted
    // vertex-index set: a set already emitted is neither decided nor built.
    let mut emitted: HashSet<Vec<usize>> = HashSet::new();
    let open_hull = |set: &[usize]| hull(set.iter().map(|&i| vertices[i].clone()).collect(), Vec::new());

    // Outer regions: open hulls of at most d vertices whose pairwise open
    // segments avoid the interior of ψ, i.e. share a tight inequality row.
    let tight: Vec<Vec<u64>> = vertices.iter().map(|v| tight_rows(v, interior)).collect();
    for size in 1..=d.min(vertices.len()) {
        check_combination_count(vertices.len(), size, budget)?;
        for combo in subsets_of_size(vertices.len(), size) {
            work::charge(Work::Nc1Candidates, 1)?;
            let ok = combo.iter().enumerate().all(|(ii, &i)| {
                let shared = |j: &usize| tight[i].iter().zip(&tight[*j]).any(|(a, b)| a & b != 0);
                combo[ii + 1..].iter().all(shared)
            });
            if ok {
                out.push((open_hull(&combo), RegionKind::Outer));
                emitted.insert(combo);
                budget.check_faces(out.len())?;
            }
        }
    }

    // Inner regions: p_low is the lexicographically smallest vertex; take
    // open hulls of p_low with d further vertices (repetitions allowed) such
    // that segments from p_low to every *other* vertex avoid the hull.
    let p_low = &vertices[0]; // sorted lexicographically
    check_combination_count(vertices.len() + d.saturating_sub(1), d, budget)?;
    for tuple in multisets_of_size(vertices.len(), d) {
        work::charge(Work::Nc1Candidates, 1)?;
        let mut set = tuple;
        set.insert(0, 0);
        set.dedup();
        if emitted.contains(&set) {
            continue;
        }
        let mut others = vertices.iter().enumerate().filter(|(j, _)| set.binary_search(j).is_err());
        let dirs: Vec<QVector> = set[1..].iter().map(|&i| vec_sub(&vertices[i], p_low)).collect();
        let cand = if let Some(cone) = ConeCoordinates::new(d, &dirs) {
            others.all(|(_, q)| !cone.strictly_positive(&vec_sub(q, p_low))).then(|| open_hull(&set))
        } else {
            work::add(Work::Nc1HullDecided, 1);
            let cand = open_hull(&set);
            let inside = interior_system(&cand);
            others.all(|(_, q)| !open_segment_meets(p_low, q, &inside)).then_some(cand)
        };
        if let Some(cand) = cand {
            out.push((cand, RegionKind::Inner));
            emitted.insert(set);
            budget.check_faces(out.len())?;
        }
    }
    Ok(out)
}

/// The inequality rows of the interior system tight at `x`, as a bitset. For
/// `a, b` in the closure a row holds strictly on the open segment `(a, b)`
/// unless tight at both ends, so the segment meets the interior iff the two
/// sets are disjoint.
fn tight_rows(x: &[Rational], interior: &[LinConstraint]) -> Vec<u64> {
    let mut bits = vec![0u64; interior.len().div_ceil(64)];
    for (k, con) in interior.iter().enumerate() {
        if con.rel != Rel::Eq && con.side_of(x) == Sign::Zero {
            bits[k / 64] |= 1 << (k % 64);
        }
    }
    bits
}

/// The rows `R` of an invertible `d × d` matrix with `R·uᵢ = eᵢ` for
/// independent directions `u₁..u_m`: `v = Σ cᵢuᵢ` iff `R·v = (c, 0)`.
struct ConeCoordinates {
    coords: Vec<QVector>,
    normals: Vec<QVector>,
}

impl ConeCoordinates {
    /// One elimination of `[u₁ … u_m | I]`; `None` for dependent directions.
    fn new(d: usize, dirs: &[QVector]) -> Option<Self> {
        let m = dirs.len();
        let mut aug = Matrix::zeros(d, m + d);
        for i in 0..d {
            for (j, u) in dirs.iter().enumerate() {
                *aug.at_mut(i, j) = u[i].clone();
            }
            *aug.at_mut(i, m + i) = Rational::ONE;
        }
        let RrefResult { rref, pivots } = aug.rref();
        let mut coords: Vec<QVector> = (0..d).map(|r| rref.row(r)[m..].to_vec()).collect();
        let normals = coords.split_off(m);
        pivots[..m].iter().copied().eq(0..m).then_some(ConeCoordinates { coords, normals })
    }

    /// Is `v` a combination of the directions with every coefficient
    /// positive — for `v = q − p`, does the open segment `(p, q)` meet the
    /// relative interior of `conv({p} ∪ {p + uᵢ})`?
    fn strictly_positive(&self, v: &[Rational]) -> bool {
        self.coords.iter().all(|w| dot_sign(w, v) == Sign::Positive)
            && self.normals.iter().all(|n| dot_sign(n, v) == Sign::Zero)
    }
}

/// Regions for an unbounded disjunct: bounded regions of `ψ ∩ icube(ψ)` plus
/// ray regions from `up(ψ)` and their open hulls.
fn try_unbounded_regions(
    d: usize,
    psi: &Disjunct,
    budget: &EvalBudget,
) -> Result<Vec<(VPolyhedron, RegionKind)>, BudgetError> {
    let Disjunct { hyperplanes, interior, closed, bound, .. } = psi;
    // Hyperplane set of ψ ∩ icube: add the cube sides.
    let mut augmented = hyperplanes.to_vec();
    let mut cube_closed = closed.to_vec();
    for i in 0..d {
        for sign in [1i64, -1] {
            let mut coeffs = vec![Rational::zero(); d];
            coeffs[i] = Rational::one();
            let rhs = if sign > 0 { bound.clone() } else { -bound };
            let h = Hyperplane::new(coeffs.clone(), rhs.clone());
            if !augmented.contains(&h) {
                augmented.push(h);
            }
            let rel = if sign > 0 { Rel::Le } else { Rel::Ge };
            cube_closed.push(LinConstraint::new(coeffs, rel, rhs));
        }
    }
    let cut_vertices = try_vertex_set(d, &augmented, &cube_closed, budget)?;

    // Bounded part: fan regions over the cut vertex set; outer segments must
    // avoid the interior of the *original* ψ.
    let mut out = try_bounded_regions(d, &cut_vertices, interior, budget)?;

    // up(ψ): p on the cube boundary, direction p - q staying inside closure(ψ).
    let mut ups: Vec<(QVector, QVector)> = Vec::new();
    for p in &cut_vertices {
        let on_boundary = p.iter().any(|coord| coord.abs() == *bound);
        if !on_boundary {
            continue;
        }
        for q in &cut_vertices {
            work::charge(Work::Nc1Candidates, 1)?;
            if q == p {
                continue;
            }
            let dir = vec_sub(p, q);
            if !ray_in_closure(&dir, closed) {
                continue;
            }
            let canon = canonical_direction(&dir);
            if !ups.iter().any(|(bp, bd)| bp == p && *bd == canon) {
                ups.push((p.clone(), canon));
            }
        }
    }

    // Ray regions and open hulls of up to d of them.
    for size in 1..=d.min(ups.len()) {
        check_combination_count(ups.len(), size, budget)?;
        for combo in subsets_of_size(ups.len(), size) {
            work::charge(Work::Nc1Candidates, 1)?;
            let pts: Vec<QVector> = combo.iter().map(|&i| ups[i].0.clone()).collect();
            let rays: Vec<QVector> = combo.iter().map(|&i| ups[i].1.clone()).collect();
            let cand = hull(pts, rays);
            let kind = if size == 1 {
                RegionKind::Ray
            } else {
                RegionKind::UnboundedHull
            };
            if !out.iter().any(|(r, _)| r.same_set(&cand)) {
                out.push((cand, kind));
                budget.check_faces(out.len())?;
            }
        }
    }
    Ok(out)
}

/// `subsets_of_size`/`multisets_of_size` materialize all `C(n, k)` index
/// combinations before the per-combination loops start charging, so the
/// materialization itself must be pre-checked against the memory ceiling.
fn check_combination_count(n: usize, k: usize, budget: &EvalBudget) -> Result<(), BudgetError> {
    let estimated_bytes = binomial(n as u128, k as u128)
        .and_then(|count| count.checked_mul(k as u128 * 8 + 24))
        .and_then(|bytes| usize::try_from(bytes).ok());
    budget.check_memory_estimate(estimated_bytes)
}

/// `C(n, k)` with overflow reported as `None`.
fn binomial(n: u128, k: u128) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i)?;
        acc /= i + 1;
    }
    Some(acc)
}

/// Does the ray direction stay inside the closed polyhedron?
fn ray_in_closure(dir: &[Rational], closed: &[LinConstraint]) -> bool {
    closed.iter().all(|con| {
        assert!(con.rel == con.rel.closure(), "closed constraints only");
        con.rel.admits(dot_sign(&con.coeffs, dir))
    })
}

/// Scale a direction to canonical primitive form for deduplication.
fn canonical_direction(dir: &[Rational]) -> QVector {
    let factor = primitive_factor(dir.iter());
    dir.iter().map(|c| c * &factor).collect()
}

/// Does the open segment (a, b) meet the (relative) interior given by the
/// strict constraint system?
///
/// Along `a + t(b − a)` every constraint is affine in `t`: a strict one cuts
/// the open interval `0 < t < 1` from one end, an equality with a nonzero
/// rate pins `t`. Intersect, then check the candidate point (which also
/// decides rows constant along the segment and a second equality).
fn open_segment_meets(a: &QVector, b: &QVector, interior: &[LinConstraint]) -> bool {
    let dir = vec_sub(b, a);
    let (mut lo, mut hi) = (Rational::ZERO, Rational::ONE);
    let mut pinned = None;
    for con in interior {
        let rate = dot(&con.coeffs, &dir);
        if rate.is_zero() {
            continue;
        }
        let root = (&con.rhs - dot(&con.coeffs, a)) / &rate;
        match con.rel {
            Rel::Eq => pinned = Some(root),
            // Satisfied below the root when the value rises through it.
            Rel::Lt | Rel::Gt if (con.rel == Rel::Lt) == rate.is_positive() => {
                hi = Rational::min_val(&hi, &root)
            }
            Rel::Lt | Rel::Gt => lo = Rational::max_val(&lo, &root),
            Rel::Le | Rel::Ge => unreachable!("interior constraints only"),
        }
    }
    let t = pinned.unwrap_or_else(|| Rational::midpoint(&lo, &hi));
    lo < t && t < hi && {
        let x = vec_add(a, &scale(&dir, &t));
        interior.iter().all(|con| con.satisfied_by(&x))
    }
}

/// The relatively open set as a strict constraint system over its points.
fn interior_system(set: &VPolyhedron) -> Vec<LinConstraint> {
    set.rows()
        .map(|(equality, row)| {
            let rel = if equality { Rel::Eq } else { Rel::Gt };
            LinConstraint::new(row[1..].to_vec(), rel, -&row[0])
        })
        .collect()
}

/// All multisets of `{0..n}` of exactly `size` elements (non-decreasing).
fn multisets_of_size(n: usize, size: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let mut cur = Vec::with_capacity(size);
    fn rec(start: usize, n: usize, size: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i, n, size, cur, out);
            cur.pop();
        }
    }
    rec(0, n, size, &mut cur, &mut out);
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};
    use lcdb_logic::parse_formula;
    use lcdb_lp::feasible;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Test-side switch: build every candidate's hull and decide it by
        /// segment tests, the construction the two facts replaced.
        pub(super) static HULL_ORACLE: Cell<bool> = const { Cell::new(false) };
    }

    /// The bounded regions as Appendix A states them: every outer pair and
    /// every fan candidate decided by `open_segment_meets` (the latter on the
    /// candidate's hull), a region kept unless its rows were kept already.
    pub(super) fn hull_oracle_regions(
        d: usize,
        vertices: &[QVector],
        interior: &[LinConstraint],
        budget: &EvalBudget,
    ) -> Result<Vec<(VPolyhedron, RegionKind)>, BudgetError> {
        let mut out: Vec<(VPolyhedron, RegionKind)> = Vec::new();
        if vertices.is_empty() {
            return Ok(out);
        }
        let push_unique = |cand: VPolyhedron, kind: RegionKind, out: &mut Vec<(VPolyhedron, RegionKind)>| {
            if !out.iter().any(|(r, _)| r.same_set(&cand)) {
                out.push((cand, kind));
            }
        };
        for size in 1..=d.min(vertices.len()) {
            check_combination_count(vertices.len(), size, budget)?;
            for combo in subsets_of_size(vertices.len(), size) {
                work::charge(Work::Nc1Candidates, 1)?;
                let pts: Vec<QVector> = combo.iter().map(|&i| vertices[i].clone()).collect();
                let ok = combo.iter().enumerate().all(|(ii, &i)| {
                    combo[ii + 1..].iter().all(|&j| !open_segment_meets(&vertices[i], &vertices[j], interior))
                });
                if ok {
                    push_unique(hull(pts, Vec::new()), RegionKind::Outer, &mut out);
                    budget.check_faces(out.len())?;
                }
            }
        }
        let p_low = vertices[0].clone();
        check_combination_count(vertices.len() + d.saturating_sub(1), d, budget)?;
        for tuple in multisets_of_size(vertices.len(), d) {
            work::charge(Work::Nc1Candidates, 1)?;
            let mut pts: Vec<QVector> = vec![p_low.clone()];
            pts.extend(tuple.iter().map(|&i| vertices[i].clone()));
            let cand = hull(pts, Vec::new());
            let inside = interior_system(&cand);
            let ok = vertices.iter().enumerate().all(|(j, q)| {
                tuple.contains(&j) || *q == p_low || !open_segment_meets(&p_low, q, &inside)
            });
            if ok {
                push_unique(cand, RegionKind::Inner, &mut out);
                budget.check_faces(out.len())?;
            }
        }
        Ok(out)
    }

    /// Every disjunct's regions (order, kind, point set) and the charged
    /// candidates must be the same decided by the facts and by the hull oracle.
    fn assert_matches_hull_oracle(r: &Relation) {
        let budget = EvalBudget::unlimited();
        let run = |oracle: bool| {
            HULL_ORACLE.with(|o| o.set(oracle));
            let before = work::snapshot();
            let regions: Vec<Vec<(VPolyhedron, RegionKind)>> = r
                .dnf()
                .disjuncts
                .iter()
                .map(|conj| try_decompose_conjunct_inner(r.arity(), conj, r.var_names(), &budget).unwrap())
                .collect();
            HULL_ORACLE.with(|o| o.set(false));
            (regions, before.since()[Work::Nc1Candidates])
        };
        let oracle = run(true);
        assert_eq!(run(false), oracle, "{r}");
    }

    /// `Σ cᵢ·vᵢ` in the parser's syntax, which takes a leading minus only.
    fn lin(coeffs: &[i64], vars: &[&str]) -> String {
        let terms = coeffs.iter().zip(vars);
        terms.fold("0".to_string(), |acc, (c, v)| format!("{acc} {} {}*{v}", if *c < 0 { '-' } else { '+' }, c.abs()))
    }

    /// A centrally symmetric convex `k`-gon (`k` even) drawn the way
    /// `geom_build` draws its polygons: `k/2` pairwise non-parallel edge
    /// vectors of the upper half-plane and their negatives, sorted by angle
    /// and walked from a random start.
    fn symmetric_polygon(rng: &mut StdRng, k: usize) -> Relation {
        let mut dirs: Vec<(i64, i64)> = Vec::new();
        while dirs.len() < k / 2 {
            let v = (rng.gen_range(-12..=12), rng.gen_range(0..=12));
            let upper = v.1 > 0 || v.0 > 0;
            if upper && dirs.iter().all(|u| u.0 * v.1 != u.1 * v.0) {
                dirs.push(v);
            }
        }
        dirs.sort_by(|u, v| (v.0 * u.1 - v.1 * u.0).cmp(&0));
        let edges = dirs.clone().into_iter().chain(dirs.iter().map(|&(x, y)| (-x, -y)));
        let mut p: (i64, i64) = (rng.gen_range(-20..=20), rng.gen_range(-20..=20));
        let sides: Vec<String> = edges
            .map(|(ex, ey)| {
                // The interior lies to the left of the counter-clockwise edge.
                let side = format!("{} >= {}", lin(&[-ey, ex], &["x", "y"]), -ey * p.0 + ex * p.1);
                p = (p.0 + ex, p.1 + ey);
                side
            })
            .collect();
        relation(&sides.join(" and "), &["x", "y"])
    }

    /// A disjunct over the first `d` of `x, y, z`: a unit box (the cube in
    /// `ℝ³`), a square pyramid (a simplex below `ℝ³`), a box flattened by an
    /// equality, a box flattened by two opposite inequalities, an open box
    /// cut by a strict diagonal, or an unbounded wedge — with extra atoms.
    fn shape_src(d: usize, shape: usize, extra: &[(Vec<i64>, usize, i64)]) -> String {
        let v = &["x", "y", "z"][..d];
        let each = |f: &dyn Fn(&str) -> String| v.iter().map(|x| f(x)).collect::<Vec<_>>().join(" and ");
        let boxed = |hi: i64| each(&|x| format!("0 <= {x} and {x} <= {hi}"));
        let mut src = match shape {
            0 => boxed(1),
            1 if d == 3 => "z >= 0 and z <= x and z <= y and x + z <= 2 and y + z <= 2".to_string(),
            1 => format!("{} and {} <= 2", each(&|x| format!("{x} >= 0")), v.join(" + ")),
            2 if d == 1 => "x = 1".to_string(),
            2 => format!("{} and {} = {}", boxed(2), v[0], v[d - 1]),
            3 => format!("{} and {} <= 1 and {} >= 1", boxed(2), v[0], v[0]),
            4 => format!("{} and {} < 3", each(&|x| format!("0 < {x} and {x} < 2")), v.join(" + ")),
            _ => {
                let mut wedge = vec!["x >= 1".to_string()];
                wedge.extend(v[1..].iter().map(|y| format!("{y} <= x and {y} + x >= 0")));
                wedge.join(" and ")
            }
        };
        for (coeffs, rel, rhs) in extra {
            src += &format!(" and {} {} {rhs}", lin(&coeffs[..d], v), ["<", "<=", "=", ">=", ">"][*rel]);
        }
        src
    }

    const CUBE: &str = "0 <= x and x <= 1 and 0 <= y and y <= 1 and 0 <= z and z <= 1";

    fn relation(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
        )
    }

    fn pt(vals: &[i64]) -> QVector {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn interval_decomposition() {
        // [0, 2] in 1D: vertices {0}, {2}, inner segment (0,2).
        let r = relation("x >= 0 and x <= 2", &["x"]);
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim(), vec![2, 1]);
        assert!(d.covers(&[int(0)]));
        assert!(d.covers(&[int(1)]));
        assert!(d.covers(&[int(2)]));
        assert!(!d.covers(&[int(3)]));
    }

    #[test]
    fn triangle_decomposition() {
        // Closed triangle: 3 vertices, 3 edges, 1 inner triangle.
        let r = relation("x >= 0 and y >= 0 and x + y <= 2", &["x", "y"]);
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim(), vec![3, 3, 1]);
        // Interior, edges, vertices all covered.
        assert!(d.covers(&[rat(1, 2), rat(1, 2)]));
        assert!(d.covers(&pt(&[1, 0])));
        assert!(d.covers(&pt(&[0, 0])));
        assert!(!d.covers(&pt(&[2, 2])));
    }

    #[test]
    fn paper_pentagon_census() {
        // The polytope P of Fig. 7/8: a convex pentagon. The decomposition
        // must have 5 vertices, 7 one-dim regions (5 outer edges + 2 inner
        // diagonals from p_low), and 3 inner triangles.
        // Pentagon with vertices (0,0), (3,-1), (5,1), (4,4), (1,3);
        // p_low = (0,0) is lexicographically smallest.
        let r = relation(
            "x + 3*y >= 0 and x - y <= 4 and 3*x + y <= 16 and 3*y - x <= 8 and y <= 3*x",
            &["x", "y"],
        );
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim()[0], 5, "pentagon has five vertices");
        assert_eq!(d.counts_by_dim()[1], 7, "five edges plus two diagonals");
        assert_eq!(d.counts_by_dim()[2], 3, "fan of three triangles");
        let kinds_inner = d
            .regions
            .iter()
            .filter(|r| r.kind == RegionKind::Inner && r.dim == 1)
            .count();
        assert_eq!(kinds_inner, 2, "exactly the two diagonals are inner");
    }

    #[test]
    fn paper_unbounded_census() {
        // The polyhedron P' of Fig. 10: y <= x, y >= -x, x >= 1.
        // Expected: 4 vertices, 4 bounded 1-dim (3 outer + 1 inner diagonal),
        // 2 bounded 2-dim, 2 rays, 1 unbounded 2-dim hull. (App. A example.)
        let r = relation("y <= x and y >= -x and x >= 1", &["x", "y"]);
        let d = decompose_relation(&r);
        let rays = d
            .regions
            .iter()
            .filter(|r| r.kind == RegionKind::Ray)
            .count();
        let hulls = d
            .regions
            .iter()
            .filter(|r| r.kind == RegionKind::UnboundedHull)
            .count();
        assert_eq!(rays, 2, "two ray regions from up(ψ)");
        assert_eq!(hulls, 1, "one unbounded 2-dim hull");
        assert_eq!(d.counts_by_dim()[0], 4);
        let bounded_1d = d
            .regions
            .iter()
            .filter(|r| r.dim == 1 && r.set.is_bounded())
            .count();
        assert_eq!(bounded_1d, 4, "three outer edges plus the inner diagonal");
        let bounded_2d = d
            .regions
            .iter()
            .filter(|r| r.dim == 2 && r.set.is_bounded())
            .count();
        assert_eq!(bounded_2d, 2);
        assert_eq!(d.regions.len(), 13);
        // Far away points inside ψ are covered by unbounded regions.
        assert!(d.covers(&pt(&[100, 0])));
        assert!(d.covers(&pt(&[100, 100])));
        assert!(!d.covers(&pt(&[0, 0])));
    }

    #[test]
    fn empty_disjunct_no_regions() {
        let r = relation("x > 1 and x < 0", &["x"]);
        let d = decompose_relation(&r);
        assert!(d.regions.is_empty());
    }

    #[test]
    fn multiple_disjuncts_union() {
        let r = relation("(x >= 0 and x <= 1) or (x >= 5 and x <= 6)", &["x"]);
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim(), vec![4, 2]);
        assert!(d.regions.iter().any(|reg| reg.disjunct == 0));
        assert!(d.regions.iter().any(|reg| reg.disjunct == 1));
    }

    #[test]
    fn degenerate_single_point() {
        let r = relation("x = 1 and y = 2", &["x", "y"]);
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim(), vec![1, 0, 0]);
        assert!(d.covers(&pt(&[1, 2])));
    }

    #[test]
    fn lower_dimensional_segment() {
        // A segment embedded in the plane (equality constraint).
        let r = relation("y = x and x >= 0 and x <= 2", &["x", "y"]);
        let d = decompose_relation(&r);
        assert_eq!(d.counts_by_dim()[0], 2);
        assert!(d.covers(&pt(&[1, 1])));
        assert!(!d.covers(&pt(&[1, 0])));
    }

    #[test]
    fn halfplane_no_vertices_uses_vert_prime() {
        // A single halfplane has no vertices; vert'(ψ) supplies the constant.
        let r = relation("x + y >= 3", &["x", "y"]);
        let d = decompose_relation(&r);
        assert!(!d.regions.is_empty());
        // Far interior points should be covered by unbounded regions.
        assert!(d.covers(&pt(&[100, 100])));
    }

    /// The `(d+1)`-variable LP that `open_segment_meets` used to solve:
    /// `x = a + t(b − a)`, `0 < t < 1`, `x` in the interior system.
    fn open_segment_meets_lp(d: usize, a: &QVector, b: &QVector, interior: &[LinConstraint]) -> bool {
        let mut cons: Vec<LinConstraint> = Vec::new();
        for con in interior {
            let mut coeffs = con.coeffs.clone();
            coeffs.push(Rational::zero());
            cons.push(LinConstraint::new(coeffs, con.rel, con.rhs.clone()));
        }
        for coord in 0..d {
            let mut coeffs = vec![Rational::zero(); d + 1];
            coeffs[coord] = Rational::one();
            coeffs[d] = &a[coord] - &b[coord];
            cons.push(LinConstraint::new(coeffs, Rel::Eq, a[coord].clone()));
        }
        let mut t = vec![Rational::zero(); d + 1];
        t[d] = Rational::one();
        cons.push(LinConstraint::new(t.clone(), Rel::Gt, Rational::zero()));
        cons.push(LinConstraint::new(t, Rel::Lt, Rational::one()));
        feasible(d + 1, &cons).is_some()
    }

    /// The coefficient-space LP `open_segment_meets_vpoly` used to solve:
    /// `a + t(b − a) = Σ cᵢpᵢ`, `0 < t < 1`, `Σ cᵢ = 1`, `cᵢ > 0`.
    fn open_segment_meets_hull_lp(a: &QVector, b: &QVector, hull: &VPolyhedron) -> bool {
        let nv = 1 + hull.points().len();
        let unit = |i: usize| -> QVector { (0..nv).map(|j| int((i == j) as i64)).collect() };
        let mut cons: Vec<LinConstraint> = (0..a.len())
            .map(|coord| {
                let mut coeffs = vec![&b[coord] - &a[coord]];
                coeffs.extend(hull.points().iter().map(|p| -&p[coord]));
                LinConstraint::new(coeffs, Rel::Eq, -&a[coord])
            })
            .collect();
        let convexity = (0..nv).map(|j| int((j > 0) as i64)).collect();
        cons.push(LinConstraint::new(convexity, Rel::Eq, int(1)));
        cons.push(LinConstraint::new(unit(0), Rel::Lt, int(1)));
        cons.extend((0..nv).map(|i| LinConstraint::new(unit(i), Rel::Gt, int(0))));
        feasible(nv, &cons).is_some()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Open hulls of up to `d + 2` grid points (duplicates and coplanar
        /// tuples included) against segments between grid points, hull
        /// generators and half-integer points: ends on vertices and facets,
        /// segments inside a facet's plane, segments through a vertex.
        #[test]
        fn hull_segment_test_agrees_with_its_lp_formulation(
            d in 1usize..=3,
            points in proptest::collection::vec(proptest::collection::vec(-2i64..=2, 3), 1..6),
            ends in proptest::collection::vec(
                (0usize..8, proptest::collection::vec(-4i64..=4, 3)),
                2..5,
            ),
        ) {
            let hull = VPolyhedron::open_hull(points.iter().map(|p| pt(&p[..d])).collect());
            let inside = interior_system(&hull);
            // An end point is a generator (low selector) or a half-integer point.
            let ends: Vec<QVector> = ends
                .iter()
                .map(|(pick, half)| match hull.points().get(*pick) {
                    Some(p) => p.clone(),
                    None => half[..d].iter().map(|&c| rat(c, 2)).collect(),
                })
                .collect();
            for a in &ends {
                for b in &ends {
                    prop_assert_eq!(
                        open_segment_meets(a, b, &inside),
                        open_segment_meets_hull_lp(a, b, &hull),
                        "({:?}, {:?}) against {:?}", a, b, hull
                    );
                }
            }
        }

        /// Small coefficients make zero rates, roots at the end points and
        /// several equalities pinning the same (or different) `t` common.
        #[test]
        fn segment_test_agrees_with_its_lp_formulation(
            a in proptest::collection::vec(-3i64..=3, 2),
            b in proptest::collection::vec(-3i64..=3, 2),
            raw in proptest::collection::vec(
                (proptest::collection::vec(-2i64..=2, 2), 0usize..3, -3i64..=3),
                0..5,
            ),
        ) {
            let interior: Vec<LinConstraint> = raw
                .into_iter()
                .map(|(coeffs, rel, rhs)| {
                    LinConstraint::new(pt(&coeffs), [Rel::Lt, Rel::Eq, Rel::Gt][rel], int(rhs))
                })
                .collect();
            let (a, b) = (pt(&a), pt(&b));
            prop_assert_eq!(
                open_segment_meets(&a, &b, &interior),
                open_segment_meets_lp(2, &a, &b, &interior)
            );
        }
    }

    #[test]
    fn facts_match_the_hull_oracle_on_the_paper_shapes_and_symmetric_polygons() {
        for (src, vars) in [
            // E12's pentagon, E13's P', the half-plane (vert'), a point, a
            // segment embedded by an equality, an interval.
            ("x + 3*y >= 0 and x - y <= 4 and 3*x + y <= 16 and 3*y - x <= 8 and y <= 3*x", &["x", "y"][..]),
            ("y <= x and y >= -x and x >= 1", &["x", "y"]),
            ("x + y >= 3", &["x", "y"]),
            ("x = 1 and y = 2", &["x", "y"]),
            ("y = x and x >= 0 and x <= 2", &["x", "y"]),
            ("(x >= 0 and x <= 1) or (x >= 5 and x <= 6)", &["x"]),
            (CUBE, &["x", "y", "z"]),
        ] {
            assert_matches_hull_oracle(&relation(src, vars));
        }
        let mut rng = StdRng::seed_from_u64(29);
        for k in (4..=16).step_by(2) {
            assert_matches_hull_oracle(&symmetric_polygon(&mut rng, k));
        }
    }

    /// Hulls built equal regions emitted on a polygon, where every fan tuple
    /// has independent directions; the oracle builds one per candidate.
    #[test]
    fn a_k_gon_builds_one_hull_per_region() {
        let mut rng = StdRng::seed_from_u64(16);
        for k in (4..=16).step_by(2) {
            let r = symmetric_polygon(&mut rng, k as usize);
            assert_eq!(hull_census(&r, false), (4 * k - 5, 4 * k - 5, 0), "{k}-gon");
            assert_eq!(hull_census(&r, true), (4 * k - 5, 2 * k + k * (k + 1) / 2, 0), "{k}-gon, oracle");
        }
    }

    /// Regions, hulls built and fan tuples decided on a hull by one
    /// decomposition, with the facts or with the hull oracle.
    fn hull_census(r: &Relation, oracle: bool) -> (u64, u64, u64) {
        HULL_ORACLE.with(|o| o.set(oracle));
        let before = work::snapshot();
        let regions = decompose_relation(r).regions.len() as u64;
        HULL_ORACLE.with(|o| o.set(false));
        let spent = before.since();
        (regions, spent[Work::Nc1Hulls], spent[Work::Nc1HullDecided])
    }

    /// `p_low` and the three other vertices of a plane through it — one of
    /// three faces or three diagonal rectangles — make the six dependent fan
    /// tuples; every other tuple is decided by coordinates.
    #[test]
    fn the_unit_cube_decides_coplanar_tuples_on_their_hulls() {
        let r = relation(CUBE, &["x", "y", "z"]);
        assert_eq!(hull_census(&r, false), (104, 104, 6));
        // The oracle: 64 accepted outer hulls and all C(10, 3) fan tuples.
        assert_eq!(hull_census(&r, true), (104, 184, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For two points of `closure(ψ)`, the open segment meets the
        /// interior system iff no inequality row is tight at both.
        #[test]
        fn shared_tight_rows_decide_the_segment_test_in_the_closure(
            d in 1usize..=3,
            raw in vec((vec(-2i64..=2, 3), 0usize..5, -2i64..=2), 1..6),
        ) {
            let rels = [Rel::Lt, Rel::Le, Rel::Eq, Rel::Ge, Rel::Gt];
            let interior: Vec<LinConstraint> = raw
                .iter()
                .map(|(c, rel, rhs)| LinConstraint::new(pt(&c[..d]), rels[*rel].interior(), int(*rhs)))
                .collect();
            let side: i64 = if d == 3 { 3 } else { 5 };
            let grid: Vec<QVector> = (0..side.pow(d as u32))
                .map(|n| (0..d as u32).map(|i| int(n / side.pow(i) % side - side / 2)).collect())
                .filter(|p: &QVector| interior.iter().all(|c| c.closed().satisfied_by(p)))
                .collect();
            for a in &grid {
                for b in &grid {
                    let (ta, tb) = (tight_rows(a, &interior), tight_rows(b, &interior));
                    let shared = ta.iter().zip(&tb).any(|(x, y)| x & y != 0);
                    prop_assert_eq!(!shared, open_segment_meets(a, b, &interior), "({:?}, {:?})", a, b);
                }
            }
        }

        /// With independent directions from `p` to `T`, the open segment
        /// `(p, q)` meets the open hull of `{p} ∪ T` iff `q − p` has positive
        /// cone coordinates; dependence is exactly a rank drop.
        #[test]
        fn cone_coordinates_decide_the_segment_test_against_a_fan_hull(
            d in 1usize..=3,
            p in vec(-2i64..=2, 3),
            tuple in vec(vec(-2i64..=2, 3), 1..=3),
            qs in vec(vec(-4i64..=4, 3), 1..8),
        ) {
            let p = pt(&p[..d]);
            let mut fan: Vec<QVector> = tuple.iter().take(d).map(|t| pt(&t[..d])).collect();
            fan.sort();
            fan.dedup();
            fan.retain(|t| *t != p);
            let dirs: Vec<QVector> = fan.iter().map(|t| vec_sub(t, &p)).collect();
            let cone = ConeCoordinates::new(d, &dirs);
            let rank = if dirs.is_empty() { 0 } else { Matrix::from_rows(dirs.clone()).rank() };
            prop_assert_eq!(cone.is_some(), rank == dirs.len());
            let Some(cone) = cone else { return Ok(()) };
            let hull = VPolyhedron::open_hull(std::iter::once(p.clone()).chain(fan.clone()).collect());
            let inside = interior_system(&hull);
            let halves = qs.iter().map(|q| q[..d].iter().map(|&c| rat(c, 2)).collect::<QVector>());
            for q in halves.chain(fan.iter().cloned()) {
                prop_assert_eq!(
                    cone.strictly_positive(&vec_sub(&q, &p)),
                    open_segment_meets(&p, &q, &inside),
                    "p {:?}, fan {:?}, q {:?}", p, fan, q
                );
            }
        }

        /// Random unions in ℝ¹–ℝ³ of solids with coplanar vertices, flat
        /// disjuncts (an equality, or two opposite inequalities), strict
        /// atoms and unbounded wedges, each cut by up to two random atoms.
        #[test]
        fn facts_match_the_hull_oracle_on_random_unions(
            d in 1usize..=3,
            disjuncts in vec((0usize..6, vec((vec(-2i64..=2, 3), 0usize..5, -3i64..=3), 0..=2)), 1..=2),
        ) {
            let src: Vec<String> =
                disjuncts.iter().map(|(shape, extra)| format!("({})", shape_src(d, *shape, extra))).collect();
            assert_matches_hull_oracle(&relation(&src.join(" or "), &["x", "y", "z"][..d]));
        }
    }

    #[test]
    fn subsets_and_multisets() {
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(3, 3).len(), 1);
        assert_eq!(subsets_of_size(2, 3).len(), 0);
        assert_eq!(multisets_of_size(3, 2).len(), 6); // C(3+1,2)=6
        assert_eq!(multisets_of_size(1, 3).len(), 1);
        assert_eq!(multisets_of_size(0, 2).len(), 0);
    }
}
