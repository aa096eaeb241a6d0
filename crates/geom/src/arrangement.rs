//! Hyperplane arrangements `A(S)` with face lattice and incidence graph (§3).
//!
//! Faces are the realizable sign vectors over the hyperplane set: the face of
//! a point `p` is determined by its position vector `(v₁(p), …, vₙ(p))`.
//! Construction is incremental: the cells of the arrangement of a prefix of
//! the hyperplanes are refined one hyperplane `h` at a time. Which cells `h`
//! crosses is decided by **section recursion**: the crossed cells are in
//! bijection with the cells of the `(d−1)`-dimensional arrangement the prefix
//! induces *inside* `h`, which is built by the same procedure (a
//! 0-dimensional section is a single point). No linear program is solved.
//! Boundedness rides along: every cell carries one direction of its
//! closure's recession cone, none when bounded, updated by [`refine`].
//! Level `k` costs one section arrangement plus one step per cell, so a
//! build performs `T_d(n) = Σ_k (T_{d−1}(k) + #cells_k) = O(n^{d+1})` sign
//! evaluations, matching the polynomial bound of Theorem 3.1. The faces'
//! sign-vector order is the only index: refinement merges a section's cells
//! into the parents, removal sorts, and point location binary-searches.

use crate::Hyperplane;
use lcdb_arith::{Rational, Sign};
use lcdb_budget::{BudgetError, EvalBudget, Meter};
use lcdb_exec::Pool;
use lcdb_linalg::{dot, scale, vec_add, vec_sub, Matrix, QVector};
use lcdb_logic::{Atom, LinExpr, Relation};
use lcdb_lp::Rel;
use lcdb_trace::TraceHandle;
use std::fmt;

/// Which side of a hyperplane a face lies on: the paper's `v_i(p)`.
pub type Side = Sign;

/// A face's position vector with respect to the hyperplane list.
pub type SignVector = Vec<Side>;

/// Identifier of a face within an [`Arrangement`].
pub type FaceId = usize;

/// A face of the arrangement: a maximal set of points sharing a position
/// vector. Faces are relatively open and connected, and partition `ℝ^d`.
#[derive(Clone, Debug)]
pub struct Face {
    /// Index of this face in the arrangement.
    pub id: FaceId,
    /// Position vector over the arrangement's hyperplanes.
    pub signs: SignVector,
    /// Dimension of the face (= dimension of its affine support).
    pub dim: usize,
    /// A point in the relative interior of the face.
    pub witness: QVector,
    /// A nonzero direction `u` with `witness + t·u` in the face's closure for
    /// every `t ≥ 0`; `None` exactly when the face is bounded.
    pub ray: Option<QVector>,
}

impl Face {
    /// Is the face contained in some bounding box?
    pub fn bounded(&self) -> bool {
        self.ray.is_none()
    }
}

/// A hyperplane arrangement with its full face list.
#[derive(Clone, Debug)]
pub struct Arrangement {
    dim: usize,
    hyperplanes: Vec<Hyperplane>,
    /// In strictly increasing sign-vector order (`− < 0 < +`, lexicographic),
    /// `faces[i].id == i`: built so, and [`Arrangement::from_parts`] checks it.
    faces: Vec<Face>,
}

impl Arrangement {
    /// Build the arrangement of the given hyperplanes in `ℝ^dim`.
    ///
    /// # Panics
    /// Panics if a hyperplane has the wrong ambient dimension or `dim == 0`.
    pub fn build(dim: usize, hyperplanes: Vec<Hyperplane>) -> Self {
        match Arrangement::try_build(dim, hyperplanes, &EvalBudget::unlimited()) {
            Ok(arrangement) => arrangement,
            Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
        }
    }

    /// Build the arrangement under a resource budget.
    ///
    /// The face count is checked against `budget`'s face cap as the
    /// sign-vector refinement grows (the arrangement has `O(n^d)` faces —
    /// Theorem 3.1 — so the check has to happen *during* construction, not
    /// after), and the deadline/cancellation token are polled once per cell
    /// step, inside the section recursion too. On `Err` nothing is
    /// materialized.
    ///
    /// # Panics
    /// Panics if a hyperplane has the wrong ambient dimension or `dim == 0`;
    /// those are malformed inputs, not resource exhaustion.
    pub fn try_build(
        dim: usize,
        hyperplanes: Vec<Hyperplane>,
        budget: &EvalBudget,
    ) -> Result<Self, BudgetError> {
        Arrangement::try_build_traced(dim, hyperplanes, budget, TraceHandle::disabled_ref())
    }

    /// [`Arrangement::try_build`]; `_pool` is ignored (name pinned by `benchmark/`).
    pub fn try_build_pool(
        dim: usize,
        hyperplanes: Vec<Hyperplane>,
        budget: &EvalBudget,
        _pool: &Pool,
    ) -> Result<Self, BudgetError> {
        Arrangement::try_build(dim, hyperplanes, budget)
    }

    /// [`Arrangement::try_build`] with structured tracing: one span per
    /// refinement level (carrying the level's hyperplane index and incoming
    /// partial-vector count), a span around face finalization, and three
    /// counters: `geom.faces_built`, the final face count,
    /// `geom.cells_split`, the cells crossed by their level's hyperplane
    /// summed over levels (the zone complexity the section recursion pays
    /// for), and `geom.sections_built`, the section arrangements built at
    /// every depth of the recursion. With a disabled handle this is exactly
    /// `try_build`.
    pub fn try_build_traced(
        dim: usize,
        hyperplanes: Vec<Hyperplane>,
        budget: &EvalBudget,
        trace: &TraceHandle,
    ) -> Result<Self, BudgetError> {
        assert!(dim > 0, "arrangements need a positive ambient dimension");
        for h in &hyperplanes {
            assert_eq!(h.dim(), dim, "hyperplane dimension mismatch");
        }
        // The `enabled()` guards keep the detail strings from being
        // formatted on the disabled path — builds can be micro-scale and
        // per-level allocations would show up as measurable overhead.
        let on = trace.enabled();
        let _build_span = on.then(|| {
            trace.span_with(
                "geom.build",
                &format!("dim={} hyperplanes={}", dim, hyperplanes.len()),
            )
        });
        let meter = budget.meter();
        let rows: Vec<Row> = hyperplanes.iter().map(Row::of).collect();
        let mut partial = vec![Cell::whole_space(dim)];
        let (mut cells_split, mut sections_built) = (0, 0);
        for k in 0..rows.len() {
            let _level_span = on.then(|| {
                trace.span_with("geom.level", &format!("level={} partial={}", k, partial.len()))
            });
            let parents = partial.iter().map(|c| (&c.signs[..], &c.witness[..], c.dim, c.ray.as_ref()));
            let (next, crossed, sections) =
                refine(dim, &rows[..=k], parents, &meter, budget, face_guard(budget))?;
            cells_split += crossed;
            sections_built += sections;
            partial = next;
        }

        trace.count("geom.faces_built", partial.len() as u64);
        trace.count("geom.cells_split", cells_split);
        trace.count("geom.sections_built", sections_built);
        let _final_span =
            on.then(|| trace.span_with("geom.finalize", &format!("faces={}", partial.len())));
        Arrangement::finalize(dim, hyperplanes, partial, &meter, budget)
    }

    /// Index the finished cells as faces.
    fn finalize(
        dim: usize,
        hyperplanes: Vec<Hyperplane>,
        cells: Vec<Cell>,
        meter: &Meter,
        budget: &EvalBudget,
    ) -> Result<Self, BudgetError> {
        let mut faces = Vec::with_capacity(cells.len());
        for (id, cell) in cells.into_iter().enumerate() {
            meter.tick(budget)?;
            faces.push(Face {
                id,
                signs: cell.signs,
                dim: cell.dim,
                witness: cell.witness,
                ray: cell.ray,
            });
        }
        Ok(Arrangement {
            dim,
            hyperplanes,
            faces,
        })
    }

    /// Refine the existing face lattice by one new hyperplane, **without**
    /// rebuilding: every current face is split (or kept) against `h` exactly
    /// as the final level of a from-scratch build over
    /// `self.hyperplanes() ++ [h]` would split it.
    ///
    /// The result is bit-for-bit identical to that rebuild — face order,
    /// sign vectors, dimensions, recession rays, *and witnesses* — because
    /// the first `n` levels of the rebuild do not depend on `h` at all (they
    /// reproduce this arrangement's faces), and this method runs the last
    /// level through the same function, with the faces' rays as the
    /// parents'. An insert costs one section arrangement and one step per
    /// face instead of `n + 1` levels.
    ///
    /// # Panics
    /// Panics if `h` has the wrong ambient dimension.
    pub fn insert_hyperplane(&self, h: Hyperplane) -> Arrangement {
        match self.try_insert_hyperplane(h, &EvalBudget::unlimited(), &Pool::serial()) {
            Ok(arrangement) => arrangement,
            Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
        }
    }

    /// Budgeted [`Arrangement::insert_hyperplane`]. The budget protocol
    /// replays the final build level: one meter tick per existing face
    /// during refinement, a face-cap check as children accumulate, and one
    /// tick per new face during finalization. `_pool` is ignored (signature
    /// pinned by `benchmark/`).
    pub fn try_insert_hyperplane(
        &self,
        h: Hyperplane,
        budget: &EvalBudget,
        _pool: &Pool,
    ) -> Result<Arrangement, BudgetError> {
        assert_eq!(h.dim(), self.dim, "hyperplane dimension mismatch");
        let mut hyperplanes = self.hyperplanes.clone();
        hyperplanes.push(h);
        let meter = budget.meter();
        let rows: Vec<Row> = hyperplanes.iter().map(Row::of).collect();
        let parents =
            self.faces.iter().map(|f| (&f.signs[..], &f.witness[..], f.dim, f.ray.as_ref()));
        let (cells, ..) = refine(self.dim, &rows, parents, &meter, budget, face_guard(budget))?;
        Arrangement::finalize(self.dim, hyperplanes, cells, &meter, budget)
    }

    /// Coarsen the face lattice by deleting the hyperplane at `index`:
    /// faces separated only by that hyperplane merge back together.
    ///
    /// The merged lattice has the same sign vectors (with coordinate
    /// `index` projected out), dimensions, boundedness flags, face order,
    /// and face count as a from-scratch build over the remaining
    /// hyperplanes — the census is bit-identical. A merged face is the union
    /// of its constituents: its dimension is their largest, it is bounded
    /// iff all of them are, its ray is the first unbounded one's (a
    /// constituent's closure lies in the union's, so its recession directions
    /// are the union's), and its witness is inherited from the first (in
    /// face order). Witness and ray may differ from the rebuild's though both
    /// always belong to the merged face.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn remove_hyperplane(&self, index: usize) -> Arrangement {
        match self.try_remove_hyperplane(index, &EvalBudget::unlimited(), &Pool::serial()) {
            Ok(arrangement) => arrangement,
            Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
        }
    }

    /// Budgeted [`Arrangement::remove_hyperplane`]: one meter tick per face,
    /// and the face cap checked as merged faces accumulate. `_pool` is
    /// ignored (signature pinned by `benchmark/`).
    pub fn try_remove_hyperplane(
        &self,
        index: usize,
        budget: &EvalBudget,
        _pool: &Pool,
    ) -> Result<Arrangement, BudgetError> {
        assert!(
            index < self.hyperplanes.len(),
            "hyperplane index {index} out of range for {} hyperplanes",
            self.hyperplanes.len()
        );
        let meter = budget.meter();
        let mut hyperplanes = self.hyperplanes.clone();
        hyperplanes.remove(index);

        // A stable sort of the face ids by sign vector with coordinate
        // `index` skipped puts the faces that merge into runs, each in face
        // order (which fixes witness inheritance), and the runs in the order
        // a from-scratch build emits them.
        let projected = |id: FaceId| {
            let signs = &self.faces[id].signs;
            (&signs[..index], &signs[index + 1..])
        };
        let mut order: Vec<FaceId> = (0..self.faces.len()).collect();
        order.sort_by(|&a, &b| projected(a).cmp(&projected(b)));
        let mut faces: Vec<Face> = Vec::new();
        for id in order {
            meter.tick(budget)?;
            let (f, (before, after)) = (&self.faces[id], projected(id));
            match faces.last_mut() {
                Some(g) if g.signs[..index] == *before && g.signs[index..] == *after => {
                    g.dim = g.dim.max(f.dim);
                    g.ray = g.ray.take().or_else(|| f.ray.clone());
                }
                _ => {
                    budget.check_faces(faces.len() + 1)?;
                    let (signs, witness) = ([before, after].concat(), f.witness.clone());
                    faces.push(Face { id: faces.len(), signs, dim: f.dim, witness, ray: f.ray.clone() });
                }
            }
        }
        Ok(Arrangement {
            dim: self.dim,
            hyperplanes,
            faces,
        })
    }

    /// Put the hyperplanes in `order`, a permutation of them: every face's
    /// signs follow the permutation and the faces are sorted again, so face
    /// ids become those of a build over `order` (witnesses and rays are
    /// kept).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of the hyperplanes.
    pub fn reorder(&mut self, order: &[Hyperplane]) {
        assert_eq!(order.len(), self.hyperplanes.len(), "not a permutation");
        let mut seen = vec![false; order.len()];
        let perm: Vec<usize> = order
            .iter()
            .map(|h| {
                let i = self.hyperplanes.iter().position(|g| g == h);
                let i = i.expect("not a permutation: a plane of `order` is missing");
                assert!(!std::mem::replace(&mut seen[i], true), "not a permutation: a plane repeats");
                i
            })
            .collect();
        let mut permuted = Vec::with_capacity(perm.len());
        for f in &mut self.faces {
            permuted.clear();
            permuted.extend(perm.iter().map(|&i| f.signs[i]));
            f.signs.copy_from_slice(&permuted);
        }
        self.faces.sort_unstable_by(|a, b| a.signs.cmp(&b.signs));
        for (id, f) in self.faces.iter_mut().enumerate() {
            f.id = id;
        }
        self.hyperplanes = order.to_vec();
    }

    /// Reassemble an arrangement from previously materialized parts (e.g. a
    /// persisted catalog blob). This is the inverse of reading
    /// [`Arrangement::hyperplanes`] and [`Arrangement::faces`]. It does
    /// **not** re-derive the faces, so the caller is responsible for
    /// the parts having come from a real build. The structural invariants
    /// are still checked: face ids are sequential, sign vectors match the
    /// hyperplane count and strictly increase (so they are distinct),
    /// witnesses have ambient dimension, face dims are `≤ dim`, and a ray is
    /// a nonzero `dim`-vector with `aᵢ·u` zero or of sign `σᵢ` on every
    /// hyperplane (a recession direction of the face's closure).
    pub fn from_parts(
        dim: usize,
        hyperplanes: Vec<Hyperplane>,
        faces: Vec<Face>,
    ) -> Result<Self, String> {
        if dim == 0 {
            return Err("ambient dimension must be positive".into());
        }
        for (i, h) in hyperplanes.iter().enumerate() {
            if h.dim() != dim {
                return Err(format!(
                    "hyperplane {i} has dimension {} in an ambient space of dimension {dim}",
                    h.dim()
                ));
            }
        }
        for (i, f) in faces.iter().enumerate() {
            if f.id != i {
                return Err(format!("face at position {i} carries id {}", f.id));
            }
            if f.signs.len() != hyperplanes.len() {
                return Err(format!(
                    "face {i} has {} signs for {} hyperplanes",
                    f.signs.len(),
                    hyperplanes.len()
                ));
            }
            if i > 0 && faces[i - 1].signs >= f.signs {
                return Err(format!("face {i} does not follow face {} in sign-vector order", i - 1));
            }
            if f.witness.len() != dim {
                return Err(format!(
                    "face {i} witness has dimension {} in ambient dimension {dim}",
                    f.witness.len()
                ));
            }
            if f.dim > dim {
                return Err(format!(
                    "face {i} claims dimension {} above ambient dimension {dim}",
                    f.dim
                ));
            }
            if let Some(u) = &f.ray {
                let nonzero = u.len() == dim && u.iter().any(|c| !c.is_zero());
                let rates = hyperplanes.iter().map(|h| dot(h.coeffs(), u).sign());
                if !nonzero || rates.zip(&f.signs).any(|(r, s)| r != Sign::Zero && r != *s) {
                    return Err(format!("face {i} ray is not a receding nonzero {dim}-vector"));
                }
            }
        }
        Ok(Arrangement {
            dim,
            hyperplanes,
            faces,
        })
    }

    /// Build the arrangement `A(S)` induced by a relation's representation.
    pub fn from_relation(relation: &Relation) -> Self {
        match Arrangement::try_from_relation(relation, &EvalBudget::unlimited()) {
            Ok(arrangement) => arrangement,
            Err(e) => panic!("unlimited budget cannot be exhausted: {e}"),
        }
    }

    /// Budgeted variant of [`Arrangement::from_relation`].
    pub fn try_from_relation(
        relation: &Relation,
        budget: &EvalBudget,
    ) -> Result<Self, BudgetError> {
        budget.check_interrupt()?;
        let hs = crate::extract_hyperplanes(relation);
        Arrangement::try_build(relation.arity(), hs, budget)
    }

    /// Ambient dimension `d`.
    pub fn ambient_dim(&self) -> usize {
        self.dim
    }

    /// The hyperplane list the faces are signed against.
    pub fn hyperplanes(&self) -> &[Hyperplane] {
        &self.hyperplanes
    }

    /// All faces, in strictly increasing sign-vector order.
    pub fn faces(&self) -> &[Face] {
        &self.faces
    }

    /// Number of faces.
    pub fn num_faces(&self) -> usize {
        self.faces.len()
    }

    /// A face by id.
    pub fn face(&self, id: FaceId) -> &Face {
        &self.faces[id]
    }

    /// Face counts indexed by dimension `0..=d`.
    pub fn face_counts_by_dim(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.dim + 1];
        for f in &self.faces {
            counts[f.dim] += 1;
        }
        counts
    }

    /// The face containing a point (faces partition `ℝ^d`, so this is
    /// total): a binary search of the faces for the point's sign vector.
    pub fn locate(&self, p: &[Rational]) -> FaceId {
        assert_eq!(p.len(), self.dim);
        let signs: SignVector = self.hyperplanes.iter().map(|h| h.side_of(p)).collect();
        self.faces
            .binary_search_by(|f| f.signs.cmp(&signs))
            .expect("sign vectors of points are realizable by construction")
    }

    /// Does the face contain the point?
    pub fn face_contains(&self, id: FaceId, p: &[Rational]) -> bool {
        self.faces[id]
            .signs
            .iter()
            .zip(&self.hyperplanes)
            .all(|(s, h)| h.side_of(p) == *s)
    }

    /// Face poset: is `f` contained in the closure of `g`? (Conformality of
    /// sign vectors: every coordinate of `f` is zero or agrees with `g`.)
    pub fn leq(&self, f: FaceId, g: FaceId) -> bool {
        self.faces[f]
            .signs
            .iter()
            .zip(&self.faces[g].signs)
            .all(|(sf, sg)| *sf == Sign::Zero || sf == sg)
    }

    /// The paper's incidence relation (§3): dimensions differ by one and the
    /// lower face lies in the boundary of the higher one.
    pub fn incident(&self, f: FaceId, g: FaceId) -> bool {
        let (df, dg) = (self.faces[f].dim, self.faces[g].dim);
        if df + 1 == dg {
            f != g && self.leq(f, g)
        } else if dg + 1 == df {
            f != g && self.leq(g, f)
        } else {
            false
        }
    }

    /// The paper's adjacency relation (Definition 4.1): one face is contained
    /// in the closure of the other (equivalently, every ε-neighbourhood of
    /// some point of one meets the other).
    pub fn adjacent(&self, f: FaceId, g: FaceId) -> bool {
        f != g && (self.leq(f, g) || self.leq(g, f))
    }

    /// The conjunction of atoms defining the face, over the given variable
    /// names (obtained from the position vector as in §3).
    pub fn face_atoms(&self, id: FaceId, var_names: &[String]) -> Vec<Atom> {
        assert_eq!(var_names.len(), self.dim);
        self.faces[id]
            .signs
            .iter()
            .zip(&self.hyperplanes)
            .map(|(s, h)| {
                let expr = LinExpr::from_terms(
                    var_names
                        .iter()
                        .cloned()
                        .zip(h.coeffs().iter().cloned()),
                    -h.rhs().clone(),
                );
                let rel = match s {
                    Sign::Negative => Rel::Lt,
                    Sign::Zero => Rel::Eq,
                    Sign::Positive => Rel::Gt,
                };
                Atom { expr, rel }
            })
            .collect()
    }

    /// Build the incidence graph (Fig. 4) including the improper faces.
    pub fn incidence_graph(&self) -> IncidenceGraph {
        let n = self.faces.len();
        // Node layout: 0 = Empty, 1..=n = faces, n+1 = Full.
        let mut up = vec![Vec::new(); n + 2];
        let mut down = vec![Vec::new(); n + 2];
        for f in 0..n {
            if self.faces[f].dim == 0 {
                up[0].push(f + 1);
                down[f + 1].push(0);
            }
            if self.faces[f].dim == self.dim {
                up[f + 1].push(n + 1);
                down[n + 1].push(f + 1);
            }
            for g in 0..n {
                if self.faces[f].dim + 1 == self.faces[g].dim && self.leq(f, g) {
                    up[f + 1].push(g + 1);
                    down[g + 1].push(f + 1);
                }
            }
        }
        let mut nodes = Vec::with_capacity(n + 2);
        nodes.push(IncidenceNode::Empty);
        for f in 0..n {
            nodes.push(IncidenceNode::Face(f));
        }
        nodes.push(IncidenceNode::Full);
        IncidenceGraph { nodes, up, down }
    }
}

/// The affine expression `coeffs · x − rhs` whose sign is one coordinate of
/// a position vector: a hyperplane's own expression, or its restriction to a
/// section. Unlike a [`Hyperplane`] a row is never re-canonicalised, so
/// restriction cannot flip an orientation, and its normal may be zero: a
/// prefix hyperplane parallel (or equal) to the section has one constant
/// sign on all of it.
struct Row {
    coeffs: QVector,
    rhs: Rational,
}

impl Row {
    fn of(h: &Hyperplane) -> Row {
        Row {
            coeffs: h.coeffs().to_vec(),
            rhs: h.rhs().clone(),
        }
    }

    fn value(&self, p: &[Rational]) -> Rational {
        dot(&self.coeffs, p) - &self.rhs
    }

    /// The same expression as a function on the section `h = 0`, with
    /// coordinate `pivot` (where `h`'s normal is nonzero) eliminated. It
    /// takes the same *value* at `lift(y)` as `self` does, so section sign
    /// vectors are prefix sign vectors.
    fn restrict(&self, h: &Row, pivot: usize) -> Row {
        let f = &self.coeffs[pivot] / &h.coeffs[pivot];
        Row {
            coeffs: (0..self.coeffs.len())
                .filter(|j| *j != pivot)
                .map(|j| &self.coeffs[j] - &(&f * &h.coeffs[j]))
                .collect(),
            rhs: &self.rhs - &(&f * &h.rhs),
        }
    }

    /// The point of `self = rhs` whose other coordinates are `y`: with
    /// `self.rhs` a point of the hyperplane, with zero a direction inside it.
    fn lift(&self, pivot: usize, y: &[Rational], rhs: &Rational) -> QVector {
        let mut x: QVector = y.to_vec();
        x.insert(pivot, Rational::ZERO);
        x[pivot] = (rhs - dot(&self.coeffs, &x)) / &self.coeffs[pivot];
        x
    }
}

/// A cell of the arrangement of a row prefix: position vector, a point of
/// its relative interior, its dimension, and a nonzero direction of its
/// closure's recession cone (`None` exactly when the cell is bounded).
struct Cell {
    signs: SignVector,
    witness: QVector,
    dim: usize,
    ray: Option<QVector>,
}

impl Cell {
    /// The one cell of the arrangement of no rows: `ℝ^dim`, along `e₁`
    /// unless it is a point.
    fn whole_space(dim: usize) -> Cell {
        let e1 = (0..dim).map(|i| if i == 0 { Rational::ONE } else { Rational::ZERO });
        Cell {
            signs: Vec::new(),
            witness: vec![Rational::ZERO; dim],
            dim,
            ray: (dim > 0).then(|| e1.collect()),
        }
    }
}

/// All cells of the arrangement of `rows` in `ℝ^dim`, in lexicographic
/// sign-vector order, and the section arrangements built on the way.
fn arrangement_cells(
    dim: usize,
    rows: &[Row],
    meter: &Meter,
    budget: &EvalBudget,
) -> Result<(Vec<Cell>, u64), BudgetError> {
    let (mut cells, mut sections) = (vec![Cell::whole_space(dim)], 0);
    for k in 0..rows.len() {
        let parents = cells.iter().map(|c| (&c.signs[..], &c.witness[..], c.dim, c.ray.as_ref()));
        let (next, _, built) = refine(dim, &rows[..=k], parents, meter, budget, |_| Ok(()))?;
        (cells, sections) = (next, sections + built);
    }
    Ok((cells, sections))
}

/// One refinement level, shared by build, insert and the recursion itself:
/// split the cells of the arrangement of `rows[..k]` (the `parents`) by
/// `h = rows[k]`.
///
/// The section arrangement of the prefix inside `h` (in the coordinates
/// other than a pivot of `h`) says which parents are crossed. Its cells are
/// in sign-vector order over the same prefix, and each one's sign vector is
/// the parent's that contains it, so one cursor walks them beside the
/// parents (a merge). A parent whose sign vector does not occur there misses
/// `h` and has one child, on its witness's side. One that occurs with its
/// own dimension lies inside `h`. Any other is crossed: the section cell is its `Zero` child, one dimension
/// lower, and both sides are nonempty. Children are emitted in `[-, 0, +]`
/// order under parents in order — the source of the arrangement-wide
/// lexicographic face order. `after_parent` sees the running child count
/// after every parent, one `meter` tick precedes each. Returns the children,
/// how many parents were crossed and how many sections were built.
///
/// Rays, by `rec(A ∩ B) = rec A ∩ rec B` and `cl(P ∩ h) = cl P ∩ h` for a
/// relatively open `P` meeting `h` (or an open side of it): a child equal to
/// its parent keeps its ray. A ray `r` of a crossed parent's section cell `Z`
/// lies in `rec(cl P) ∩ {a·v = 0}` (`a` the normal of `h`), so all three
/// children get it. If `Z` is bounded and `P` has a ray `u`, `rec(cl P)`
/// meets `a·v = 0` only at 0: the side of `sign(a·u) ≠ 0` gets `u`, and the
/// other `−u` if `rec(cl P)` is the line through `u` (`u` orthogonal to every
/// prefix normal, the lineality space), else it is bounded.
fn refine<'a>(
    dim: usize,
    rows: &[Row],
    parents: impl ExactSizeIterator<Item = (&'a [Side], &'a [Rational], usize, Option<&'a QVector>)>,
    meter: &Meter,
    budget: &EvalBudget,
    mut after_parent: impl FnMut(usize) -> Result<(), BudgetError>,
) -> Result<(Vec<Cell>, u64, u64), BudgetError> {
    let (h, prefix) = rows.split_last().expect("a level has a splitting row");
    let mut sections = 0;
    // Without a normal `h` is one constant sign and has no section.
    let mut section = Vec::new();
    if let Some(p) = h.coeffs.iter().position(|c| !c.is_zero()) {
        let restricted: Vec<Row> = prefix.iter().map(|r| r.restrict(h, p)).collect();
        let (cells, nested) = arrangement_cells(dim - 1, &restricted, meter, budget)?;
        sections = 1 + nested;
        for c in cells {
            let ray = c.ray.map(|r| h.lift(p, &r, &Rational::ZERO));
            section.push(Cell { witness: h.lift(p, &c.witness, &h.rhs), ray, ..c });
        }
    }
    let mut section = section.into_iter().peekable();
    let mut children = Vec::with_capacity(parents.len() * 2);
    let mut crossed = 0;
    for (signs, w, cell_dim, ray) in parents {
        meter.tick(budget)?;
        let mut child = |side: Side, witness: QVector, dim: usize, ray: Option<QVector>| {
            let mut child_signs = Vec::with_capacity(signs.len() + 1);
            child_signs.extend_from_slice(signs);
            child_signs.push(side);
            children.push(Cell {
                signs: child_signs,
                witness,
                dim,
                ray,
            });
        };
        let carried = h.value(w).sign();
        match section.next_if(|c| c.signs == signs) {
            None => child(carried, w.to_vec(), cell_dim, ray.cloned()),
            Some(z) if z.dim == cell_dim => child(Sign::Zero, w.to_vec(), cell_dim, ray.cloned()),
            Some(Cell { witness: z, ray: z_ray, .. }) => {
                crossed += 1;
                let step = |base, dir| step_inside(prefix, signs, base, dir);
                let (neg, zero, pos) = match carried {
                    Sign::Negative => (w.to_vec(), z.clone(), step(&z, &vec_sub(&z, w))),
                    Sign::Positive => (step(&z, &vec_sub(&z, w)), z.clone(), w.to_vec()),
                    // The witness itself lies on `h` (level 0 of a hyperplane
                    // through the origin, say): leave it along a direction of
                    // the cell's own affine hull that `h` is not parallel to.
                    Sign::Zero => {
                        let up = direction_off(h, prefix, signs);
                        let down: QVector = up.iter().map(|c| -c).collect();
                        (step(w, &down), w.to_vec(), step(w, &up))
                    }
                };
                let [neg_ray, pos_ray] = side_rays(h, prefix, ray, z_ray.as_ref());
                child(Sign::Negative, neg, cell_dim, neg_ray);
                child(Sign::Zero, zero, cell_dim - 1, z_ray);
                child(Sign::Positive, pos, cell_dim, pos_ray);
            }
        }
        after_parent(children.len())?;
    }
    debug_assert!(section.next().is_none(), "every section cell lies in a parent");
    Ok((children, crossed, sections))
}

/// The rays of the `[-, +]` sides of a parent with ray `u` crossed by `h`
/// in a section cell with ray `z`, by the rule in [`refine`]'s doc.
fn side_rays(h: &Row, prefix: &[Row], u: Option<&QVector>, z: Option<&QVector>) -> [Option<QVector>; 2] {
    let (Some(u), None) = (u, z) else { return [z.cloned(), z.cloned()] };
    let line = prefix.iter().all(|row| dot(&row.coeffs, u).is_zero());
    let back = line.then(|| u.iter().map(|c| -c).collect());
    if dot(&h.coeffs, u).is_positive() { [back, Some(u.clone())] } else { [Some(u.clone()), back] }
}

/// What build and insert check after every parent of their (top) level: the
/// face cap as children accumulate, and the injected-fault site.
fn face_guard(budget: &EvalBudget) -> impl FnMut(usize) -> Result<(), BudgetError> + '_ {
    move |children| {
        budget.check_faces(children)?;
        // Fault-injection site: a spurious face-cap trip mid-refinement.
        #[cfg(feature = "faults")]
        lcdb_budget::faults::check("geom.face_cap")?;
        Ok(())
    }
}

/// `base + t·dir` for the largest `t ∈ {1, ½, ¼, …}` that keeps every strict
/// sign of the cell `signs` (whose point `base` is): a ratio test over the
/// rows the step moves towards. Powers of two keep witnesses short.
fn step_inside(prefix: &[Row], signs: &[Side], base: &[Rational], dir: &[Rational]) -> QVector {
    let strict = prefix.iter().zip(signs).filter(|(_, side)| **side != Sign::Zero);
    let reach = |(row, side): (&Row, &Side)| {
        let rate = dot(&row.coeffs, dir);
        (rate.sign() == side.flip()).then(|| -(row.value(base) / &rate))
    };
    let limit = strict.filter_map(reach).min();
    let mut t = Rational::ONE;
    let half = Rational::from_i64s(1, 2);
    while limit.as_ref().is_some_and(|l| t >= *l) {
        t *= &half;
    }
    vec_add(base, &scale(dir, &t))
}

/// A direction inside the affine hull of the cell `signs` along which `h`
/// increases. One exists whenever the cell is not contained in `h`.
fn direction_off(h: &Row, prefix: &[Row], signs: &[Side]) -> QVector {
    // The leading zero row fixes the column count for an open cell.
    let normals: Vec<QVector> = std::iter::once(vec![Rational::ZERO; h.coeffs.len()])
        .chain(
            prefix
                .iter()
                .zip(signs)
                .filter(|(_, s)| **s == Sign::Zero)
                .map(|(r, _)| r.coeffs.clone()),
        )
        .collect();
    Matrix::from_rows(normals)
        .nullspace()
        .into_iter()
        .find_map(|u| match dot(&h.coeffs, &u).sign() {
            Sign::Zero => None,
            Sign::Positive => Some(u),
            Sign::Negative => Some(u.iter().map(|c| -c).collect()),
        })
        .expect("a cell crossed by h has a direction leaving h")
}

/// Node of the incidence graph: a proper face or one of the two improper
/// faces (the virtual `(-1)`-dimensional face `∅` and the `(d+1)`-dimensional
/// face `A(S)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidenceNode {
    /// The virtual `(-1)`-dimensional face, incident to every vertex.
    Empty,
    /// A proper face.
    Face(FaceId),
    /// The virtual `(d+1)`-dimensional face, with every `d`-face incident.
    Full,
}

/// The incidence graph of an arrangement (§3, Fig. 4): per node, directed
/// edge lists to the incident faces one dimension up and one dimension down.
#[derive(Clone, Debug)]
pub struct IncidenceGraph {
    /// Node list: `Empty`, the proper faces in id order, then `Full`.
    pub nodes: Vec<IncidenceNode>,
    /// For each node, nodes one dimension higher whose boundary contains it.
    pub up: Vec<Vec<usize>>,
    /// For each node, nodes one dimension lower contained in its boundary.
    pub down: Vec<Vec<usize>>,
}

impl IncidenceGraph {
    /// Number of nodes (faces + 2 improper).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the graph empty? (Never: the improper nodes always exist.)
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

impl fmt::Display for Face {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let signs: String = self
            .signs
            .iter()
            .map(|s| match s {
                Sign::Negative => '-',
                Sign::Zero => '0',
                Sign::Positive => '+',
            })
            .collect();
        write!(f, "face#{} dim={} signs=[{}]", self.id, self.dim, signs)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::int;
    use lcdb_logic::parse_formula;

    fn h(coeffs: &[i64], rhs: i64) -> Hyperplane {
        Hyperplane::new(coeffs.iter().map(|&c| int(c)).collect(), int(rhs))
    }

    fn pt(vals: &[i64]) -> QVector {
        vals.iter().map(|&v| int(v)).collect()
    }

    #[test]
    fn empty_arrangement_is_whole_space() {
        let a = Arrangement::build(2, vec![]);
        assert_eq!(a.num_faces(), 1);
        assert_eq!(a.face(0).dim, 2);
        assert!(!a.face(0).bounded());
        assert_eq!(a.locate(&pt(&[5, -7])), 0);
    }

    #[test]
    fn single_line_in_plane() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0)]);
        // Three faces: below, on, above.
        assert_eq!(a.num_faces(), 3);
        assert_eq!(a.face_counts_by_dim(), vec![0, 1, 2]);
        let on = a.locate(&pt(&[0, 3]));
        assert_eq!(a.face(on).dim, 1);
        let above = a.locate(&pt(&[1, 0]));
        assert_eq!(a.face(above).dim, 2);
        assert!(a.adjacent(on, above));
        assert!(a.incident(on, above));
        assert!(!a.adjacent(above, above));
    }

    #[test]
    fn two_crossing_lines() {
        // x = 0 and y = 0: 9 faces (4 quadrants, 4 rays, 1 vertex).
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0)]);
        assert_eq!(a.num_faces(), 9);
        assert_eq!(a.face_counts_by_dim(), vec![1, 4, 4]);
        let origin = a.locate(&pt(&[0, 0]));
        assert_eq!(a.face(origin).dim, 0);
        assert!(a.face(origin).bounded());
        // The origin is adjacent to every other face.
        for f in 0..a.num_faces() {
            if f != origin {
                assert!(a.adjacent(origin, f), "origin adj {}", f);
                assert!(a.leq(origin, f));
            }
        }
        // But incident only to the four rays.
        let incident_count = (0..a.num_faces())
            .filter(|&f| a.incident(origin, f))
            .count();
        assert_eq!(incident_count, 4);
    }

    #[test]
    fn parallel_lines() {
        // x = 0 and x = 1: 5 faces (3 strips, 2 lines), none bounded.
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[1, 0], 1)]);
        assert_eq!(a.num_faces(), 5);
        assert_eq!(a.face_counts_by_dim(), vec![0, 2, 3]);
        assert!(a.faces().iter().all(|f| !f.bounded()));
        // The middle strip is adjacent to both lines but not to outer strips.
        let mid = a.locate(&pt(&[0, 0]).iter().map(|_| lcdb_arith::rat(1, 2)).collect::<Vec<_>>());
        let left = a.locate(&pt(&[-1, 0]));
        let line0 = a.locate(&pt(&[0, 0]));
        assert!(a.adjacent(mid, line0));
        assert!(!a.adjacent(mid, left));
    }

    #[test]
    fn triangle_arrangement_census() {
        // x = 0, y = 0, x + y = 1 in general position:
        // vertices 3, edges 9, cells 7  (n=3, d=2 formulas).
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0), h(&[1, 1], 1)]);
        assert_eq!(a.face_counts_by_dim(), vec![3, 9, 7]);
        // Exactly one bounded 2-face: the open triangle.
        let bounded_cells: Vec<&Face> = a
            .faces()
            .iter()
            .filter(|f| f.dim == 2 && f.bounded())
            .collect();
        assert_eq!(bounded_cells.len(), 1);
        // Its witness is strictly inside.
        let w = &bounded_cells[0].witness;
        assert!(w[0].is_positive() && w[1].is_positive());
        assert!((&w[0] + &w[1]) < int(1));
    }

    #[test]
    fn from_parts_checks_every_ray() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0), h(&[1, 1], 1)]);
        let with_ray = |id: FaceId, ray: QVector| {
            let mut faces = a.faces().to_vec();
            faces[id].ray = Some(ray);
            Arrangement::from_parts(2, a.hyperplanes().to_vec(), faces)
        };
        let quadrant = a.locate(&pt(&[-1, -1]));
        assert!(with_ray(quadrant, pt(&[-1, -2])).is_ok());
        assert!(with_ray(quadrant, pt(&[-1])).is_err());
        assert!(with_ray(quadrant, pt(&[0, 0])).is_err());
        assert!(with_ray(quadrant, pt(&[1, -1])).is_err());
        // A vertex, a bounded edge and the triangle have no direction at all.
        for p in [pt(&[0, 0]), vec![lcdb_arith::rat(1, 2), int(0)]] {
            let id = a.locate(&p);
            assert!(with_ray(id, pt(&[1, 0])).is_err() && with_ray(id, pt(&[-1, 0])).is_err());
        }
    }

    #[test]
    fn from_parts_refuses_swapped_faces() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0)]);
        let parts = |faces: Vec<Face>| Arrangement::from_parts(2, a.hyperplanes().to_vec(), faces);
        assert!(parts(a.faces().to_vec()).is_ok());
        let mut swapped = a.faces().to_vec();
        swapped.swap(3, 4);
        (swapped[3].id, swapped[4].id) = (3, 4);
        let err = parts(swapped).err().unwrap();
        assert!(err.contains("face 4 does not follow face 3 in sign-vector order"), "{err}");
        let mut doubled = a.faces().to_vec();
        doubled[1].signs = doubled[0].signs.clone();
        assert!(parts(doubled).is_err());
    }

    #[test]
    fn lines_recede_both_ways() {
        // The line x = 0 crossed by y = 0: both half-lines are unbounded,
        // each along its own direction, and the origin is bounded.
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0)]);
        let ray = |p: &[i64]| a.face(a.locate(&pt(p))).ray.clone();
        assert_eq!(ray(&[0, 1]), Some(pt(&[0, 1])));
        assert_eq!(ray(&[0, -1]), Some(pt(&[0, -1])));
        assert_eq!(ray(&[0, 0]), None);
    }

    #[test]
    fn three_concurrent_lines() {
        // x = 0, y = 0, x = y all through the origin: 13 faces.
        // (1 vertex, 6 rays, 6 sectors.)
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0), h(&[1, -1], 0)]);
        assert_eq!(a.face_counts_by_dim(), vec![1, 6, 6]);
        // Vertex adjacent to all 12 other faces; sectors adjacent to 2 rays.
        let v = a.locate(&pt(&[0, 0]));
        let adj_v = (0..a.num_faces()).filter(|&f| a.adjacent(v, f)).count();
        assert_eq!(adj_v, 12);
    }

    #[test]
    fn locate_consistency_with_face_contains() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0), h(&[1, 1], 1)]);
        for p in [pt(&[0, 0]), pt(&[2, 3]), pt(&[-1, 0]), pt(&[1, 0])] {
            let id = a.locate(&p);
            assert!(a.face_contains(id, &p));
            for f in 0..a.num_faces() {
                if f != id {
                    assert!(!a.face_contains(f, &p));
                }
            }
        }
    }

    #[test]
    fn witnesses_lie_in_their_faces() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0), h(&[1, 1], 1)]);
        for f in a.faces() {
            assert_eq!(a.locate(&f.witness), f.id);
        }
    }

    #[test]
    fn face_dimensions_in_3d() {
        // Three coordinate planes: 27 faces, dims 0..3.
        let a = Arrangement::build(
            3,
            vec![h(&[1, 0, 0], 0), h(&[0, 1, 0], 0), h(&[0, 0, 1], 0)],
        );
        assert_eq!(a.num_faces(), 27);
        assert_eq!(a.face_counts_by_dim(), vec![1, 6, 12, 8]);
    }

    #[test]
    fn duplicate_hyperplane_degenerate_signs() {
        // The same hyperplane twice: only conformal sign pairs realizable.
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[2, 0], 0)]);
        assert_eq!(a.num_faces(), 3);
    }

    #[test]
    fn incidence_graph_improper_nodes() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0)]);
        let g = a.incidence_graph();
        assert_eq!(g.len(), a.num_faces() + 2);
        assert!(!g.is_empty());
        // Empty node points up to the single vertex.
        assert_eq!(g.up[0].len(), 1);
        // Full node has the four quadrants below it.
        assert_eq!(g.down[g.len() - 1].len(), 4);
        // Vertex: up to 4 rays, down to Empty.
        let v = a.locate(&pt(&[0, 0]));
        assert_eq!(g.up[v + 1].len(), 4);
        assert_eq!(g.down[v + 1], vec![0]);
    }

    #[test]
    fn face_atoms_define_the_face() {
        let a = Arrangement::build(2, vec![h(&[1, 0], 0), h(&[0, 1], 0)]);
        let names = vec!["x".to_string(), "y".to_string()];
        for f in a.faces() {
            let atoms = a.face_atoms(f.id, &names);
            let env: std::collections::BTreeMap<String, Rational> = names
                .iter()
                .cloned()
                .zip(f.witness.iter().cloned())
                .collect();
            assert!(atoms.iter().all(|at| at.eval(&env)), "{}", f);
        }
    }

    #[test]
    fn from_relation_uses_induced_hyperplanes() {
        let f = parse_formula("(x >= 0 and y >= 0 and x + y <= 1) or (x = 2 and y > 0)").unwrap();
        let r = Relation::new(vec!["x".into(), "y".into()], &f);
        let a = Arrangement::from_relation(&r);
        // x = 0, y = 0 (shared by `y >= 0` and `y > 0`), x + y = 1, x = 2.
        assert_eq!(a.hyperplanes().len(), 4);
        assert_eq!(a.ambient_dim(), 2);
        // Every face is homogeneous w.r.t. membership in S: check witnesses
        // against a few sampled points of the same face.
        for face in a.faces() {
            let in_s = r.contains(&face.witness);
            let _ = in_s; // homogeneity is exercised in the integration tests
        }
    }

    #[test]
    fn reorder_numbers_faces_as_a_build_over_the_new_order() {
        let (a, b, c) = (h(&[1, 0], 0), h(&[0, 1], 1), h(&[1, 1], 3));
        let mut moved = Arrangement::build(2, vec![a.clone(), b.clone(), c.clone()]);
        let order = [c, a, b];
        moved.reorder(&order);
        let built = Arrangement::build(2, order.to_vec());
        assert_eq!(moved.hyperplanes(), built.hyperplanes());
        assert_eq!(moved.num_faces(), built.num_faces());
        for (m, f) in moved.faces().iter().zip(built.faces()) {
            assert_eq!((m.id, &m.signs, m.dim, m.bounded()), (f.id, &f.signs, f.dim, f.bounded()));
            assert_eq!(moved.locate(&m.witness), m.id);
        }
    }

    #[test]
    #[should_panic(expected = "a plane repeats")]
    fn reorder_refuses_a_repeated_plane() {
        let (a, b) = (h(&[1, 0], 0), h(&[0, 1], 1));
        Arrangement::build(2, vec![a.clone(), b]).reorder(&[a.clone(), a]);
    }
}
