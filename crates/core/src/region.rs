//! Region extensions `B^Reg` of linear constraint databases (Definition 4.1)
//! and the [`Decomposition`] interface shared by the arrangement of §3 and
//! the NC¹ decomposition of §7/Appendix A.

use crate::error::EvalError;
use crate::evaluator::EvalStats;
use lcdb_arith::Rational;
use lcdb_budget::EvalBudget;
use lcdb_geom::nc1::{Nc1Decomposition, RegionKind};
use lcdb_geom::{Arrangement, Hyperplane, VPolyhedron};
use lcdb_linalg::QVector;
use lcdb_logic::{Database, Formula, Relation};
use lcdb_exec::ShardedMap;
use lcdb_trace::TraceHandle;
use std::collections::BTreeMap;

/// Which of the two decompositions a region extension is built over. Also
/// part of a stored fixpoint's key, since the two number their regions
/// independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecompositionKind {
    /// The arrangement `A(S)` (§3).
    Arrangement,
    /// The NC¹ decomposition (Appendix A).
    Nc1,
}

/// Per-region metadata exposed to the logics.
#[derive(Clone, Debug)]
pub struct RegionData {
    /// Region id in `0..num_regions()`.
    pub id: usize,
    /// Dimension of the region (of its affine support).
    pub dim: usize,
    /// Is the region contained in some hypercube?
    pub bounded: bool,
    /// A point in the (relative) interior of the region.
    pub witness: QVector,
}

/// A decomposition of `ℝ^d` into finitely many regions, together with the
/// database it was derived from. This is the second sort of `B^Reg`; the
/// logics of §4–§7 are parametric in it (Note 7.1).
///
/// Decompositions are `Send + Sync` so a query server can share one
/// between the requests of its dispatch workers: all queries are `&self`,
/// and the formula table of [`ArrangementRegions`] sits behind a mutex.
pub trait Decomposition: Send + Sync {
    /// Ambient dimension `d`.
    fn ambient_dim(&self) -> usize;

    /// The database the structure expands.
    fn database(&self) -> &Database;

    /// Name of the designated spatial relation `S`.
    fn spatial_relation(&self) -> &str;

    /// Number of regions.
    fn num_regions(&self) -> usize;

    /// Metadata for one region.
    fn region(&self, id: usize) -> &RegionData;

    /// The paper's adjacency relation `adj` (Definition 4.1): one region is
    /// contained in the closure of the other.
    fn adjacent(&self, a: usize, b: usize) -> bool;

    /// The containment relation `∈`: is the point inside the region?
    fn contains_point(&self, id: usize, x: &[Rational]) -> bool;

    /// Downcast support, so callers holding a boxed decomposition can
    /// recover a concrete one (e.g. to use an [`ArrangementRegions`] as the
    /// donor of an incremental update).
    fn as_any(&self) -> &dyn std::any::Any;

    /// A quantifier-free formula over `vars` defining the region.
    fn region_formula(&self, id: usize, vars: &[String]) -> Formula;

    /// Which regions are entirely contained in the named relation: bit `id`
    /// of word `id / 64`. `None` for a relation the database lacks or whose
    /// arity is not the ambient dimension. Computed once per extension.
    ///
    /// Exact for the arrangement (regions are membership-homogeneous, §3);
    /// for the NC¹ decomposition this is decided at the witness point, which
    /// the paper accepts as the price of the weaker decomposition (§7).
    fn members(&self, relation: &str) -> Option<&[u64]>;

    /// Is the region entirely contained in the named relation?
    ///
    /// # Panics
    /// Panics if [`Decomposition::members`] has no vector for the relation.
    fn subset_of(&self, id: usize, relation: &str) -> bool {
        let bits = self
            .members(relation)
            .unwrap_or_else(|| panic!("unknown relation '{}'", relation));
        bits[id / 64] >> (id % 64) & 1 == 1
    }

    /// All region ids, convenience.
    fn region_ids(&self) -> std::ops::Range<usize> {
        0..self.num_regions()
    }
}

/// One membership bit per region for every relation of the ambient arity,
/// decided at the region's witness in exact rationals.
fn membership(db: &Database, d: usize, data: &[RegionData]) -> BTreeMap<String, Vec<u64>> {
    db.relations()
        .filter(|(_, rel)| rel.arity() == d)
        .map(|(name, rel)| {
            let mut bits = vec![0u64; data.len().div_ceil(64)];
            for r in data.iter().filter(|r| rel.contains(&r.witness)) {
                bits[r.id / 64] |= 1 << (r.id % 64);
            }
            (name.clone(), bits)
        })
        .collect()
}

/// The arrangement-based region structure of §3/§4: regions are the faces of
/// `A(S)` (extended over the hyperplanes of *all* database relations of the
/// same arity, so every relation is homogeneous on every region).
pub struct ArrangementRegions {
    db: Database,
    spatial: String,
    arrangement: Arrangement,
    data: Vec<RegionData>,
    /// Faces are homogeneous w.r.t. every relation whose hyperplanes are in
    /// the arrangement, so the witness decides containment exactly.
    members: BTreeMap<String, Vec<u64>>,
    /// Interned membership formulas keyed by (region, variable names):
    /// region-quantifier expansion and `In`-node evaluation ask for the
    /// same formulas thousands of times, from every request that shares
    /// this decomposition — the table builds each once instead of once per
    /// call.
    formulas: ShardedMap<(usize, Vec<String>), Formula>,
}

impl ArrangementRegions {
    /// Build from a database and the designated spatial relation name. The
    /// arrangement is built incrementally and aborts with a typed error as
    /// soon as the face cap, the memory ceiling, the deadline, or the
    /// cancellation token trips — *before* the O(n^d) face table
    /// (Theorem 3.1) is fully materialized. Construction progress is
    /// reported through `trace` (pass [`TraceHandle::disabled_ref`] for
    /// none): a `geom.build` span with per-level `geom.level` sub-spans and
    /// a `geom.faces_built` counter.
    pub fn try_new(
        db: Database,
        spatial: &str,
        budget: &EvalBudget,
        trace: &TraceHandle,
    ) -> Result<Self, EvalError> {
        let (d, hyperplanes) = Self::spatial_hyperplanes(&db, spatial)?;
        let arrangement = Arrangement::try_build_traced(d, hyperplanes, budget, trace)
            .map_err(|e| EvalError::from_budget(e, EvalStats::default()))?;
        Self::from_parts(db, spatial, arrangement)
    }

    /// Pinned by `benchmark/`: [`ArrangementRegions::try_new`] untraced;
    /// `_pool` is ignored.
    pub fn try_new_pool(
        db: Database,
        spatial: &str,
        budget: &EvalBudget,
        _pool: &lcdb_exec::Pool,
    ) -> Result<Self, EvalError> {
        Self::try_new(db, spatial, budget, TraceHandle::disabled_ref())
    }

    /// Reassemble a region structure around an arrangement that was built
    /// earlier (e.g. decoded from the persistent plan catalog), skipping the
    /// `O(n^d)` rebuild. The caller asserts the arrangement was derived from
    /// this database's hyperplanes; the per-region metadata is re-derived
    /// from the faces exactly as [`ArrangementRegions::try_new`] does.
    ///
    /// Returns an error if the spatial relation is missing or its arity does
    /// not match the arrangement's ambient dimension.
    pub fn from_parts(
        db: Database,
        spatial: &str,
        arrangement: Arrangement,
    ) -> Result<Self, EvalError> {
        let d = db
            .relation(spatial)
            .ok_or_else(|| {
                EvalError::invalid_query(format!("unknown spatial relation '{}'", spatial))
            })?
            .arity();
        if d != arrangement.ambient_dim() {
            return Err(EvalError::invalid_query(format!(
                "arrangement has ambient dimension {} but spatial relation '{}' has arity {}",
                arrangement.ambient_dim(),
                spatial,
                d
            )));
        }
        let data = arrangement
            .faces()
            .iter()
            .map(|f| RegionData {
                id: f.id,
                dim: f.dim,
                bounded: f.bounded(),
                witness: f.witness.clone(),
            })
            .collect::<Vec<_>>();
        Ok(ArrangementRegions {
            members: membership(&db, d, &data),
            db,
            spatial: spatial.to_string(),
            arrangement,
            data,
            formulas: ShardedMap::new(),
        })
    }

    /// These regions with the hyperplanes listed as a build over the
    /// database lists them: a derivation keeps its donor's order and
    /// appends new planes, and region ids follow the order.
    pub(crate) fn in_build_order(self) -> Result<Self, EvalError> {
        let (_, target) = Self::spatial_hyperplanes(&self.db, &self.spatial)?;
        if self.arrangement.hyperplanes() == &target[..] {
            return Ok(self);
        }
        let mut arrangement = self.arrangement;
        arrangement.reorder(&target);
        Self::from_parts(self.db, &self.spatial, arrangement)
    }

    /// The underlying arrangement.
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// The hyperplane set the arrangement-based extension is built over:
    /// the deduplicated union of `𝔥(R)` across every relation of the
    /// spatial relation's arity (keeping every relation sign-homogeneous
    /// per face), plus that arity. Exposed so callers can diff two database
    /// snapshots' hyperplane sets before choosing between an incremental
    /// update and a rebuild.
    pub fn spatial_hyperplanes(
        db: &Database,
        spatial: &str,
    ) -> Result<(usize, Vec<Hyperplane>), EvalError> {
        let d = db
            .relation(spatial)
            .ok_or_else(|| {
                EvalError::invalid_query(format!("unknown spatial relation '{}'", spatial))
            })?
            .arity();
        let mut hyperplanes: Vec<Hyperplane> = Vec::new();
        for (_, r) in db.relations() {
            if r.arity() == d {
                for h in lcdb_geom::extract_hyperplanes(r) {
                    if !hyperplanes.contains(&h) {
                        hyperplanes.push(h);
                    }
                }
            }
        }
        Ok((d, hyperplanes))
    }

    /// Derive the region structure of a *changed* database snapshot from
    /// this one by editing the face lattice — removing the hyperplanes that
    /// vanished and inserting the ones that appeared — instead of
    /// rebuilding the arrangement from scratch. Each insert replays one
    /// refinement level over the current faces and each removal is one
    /// merge pass, so small
    /// edits cost far less than the `O(n^d)` rebuild; the resulting face
    /// census is bit-identical to what a rebuild over the same hyperplane
    /// order would produce.
    ///
    /// Returns `Ok(None)` when incremental maintenance does not apply or
    /// pays worse than a rebuild: the spatial arity changed, or the edit
    /// distance between the hyperplane sets is larger than the number of
    /// shared hyperplanes (once fewer planes survive than change, replaying
    /// levels one at a time loses to the fresh build's fused loop). `pool`
    /// is ignored (signature pinned by `benchmark/`).
    pub fn try_derive(
        &self,
        db: Database,
        spatial: &str,
        budget: &EvalBudget,
        pool: &lcdb_exec::Pool,
    ) -> Result<Option<(Self, UpdateDelta)>, EvalError> {
        let (d, target) = Self::spatial_hyperplanes(&db, spatial)?;
        if d != self.arrangement.ambient_dim() {
            return Ok(None);
        }
        let target_set: std::collections::HashSet<&Hyperplane> = target.iter().collect();
        let current = self.arrangement.hyperplanes();
        let current_set: std::collections::HashSet<&Hyperplane> = current.iter().collect();
        let removals: Vec<usize> = current
            .iter()
            .enumerate()
            .filter(|(_, h)| !target_set.contains(h))
            .map(|(i, _)| i)
            .collect();
        let additions: Vec<Hyperplane> = target
            .iter()
            .filter(|h| !current_set.contains(h))
            .cloned()
            .collect();
        let kept = current.len() - removals.len();
        let delta = UpdateDelta {
            inserted: additions.len(),
            removed: removals.len(),
            kept,
        };
        if delta.inserted + delta.removed > kept {
            return Ok(None);
        }
        let map_err = |e| EvalError::from_budget(e, EvalStats::default());
        let mut arrangement = self.arrangement.clone();
        // Removals run highest-index first so earlier indices stay valid.
        for &i in removals.iter().rev() {
            arrangement = arrangement
                .try_remove_hyperplane(i, budget, pool)
                .map_err(map_err)?;
        }
        for h in additions {
            arrangement = arrangement
                .try_insert_hyperplane(h, budget, pool)
                .map_err(map_err)?;
        }
        let regions = Self::from_parts(db, spatial, arrangement)?;
        Ok(Some((regions, delta)))
    }
}

/// How a donor arrangement's hyperplane set was edited by
/// [`ArrangementRegions::try_derive`] to reach a new snapshot's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateDelta {
    /// Hyperplanes inserted into the face lattice.
    pub inserted: usize,
    /// Hyperplanes removed from the face lattice.
    pub removed: usize,
    /// Hyperplanes shared between donor and target.
    pub kept: usize,
}

impl Decomposition for ArrangementRegions {
    fn ambient_dim(&self) -> usize {
        self.arrangement.ambient_dim()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn spatial_relation(&self) -> &str {
        &self.spatial
    }

    fn num_regions(&self) -> usize {
        self.data.len()
    }

    fn region(&self, id: usize) -> &RegionData {
        &self.data[id]
    }

    fn adjacent(&self, a: usize, b: usize) -> bool {
        self.arrangement.adjacent(a, b)
    }

    fn contains_point(&self, id: usize, x: &[Rational]) -> bool {
        self.arrangement.face_contains(id, x)
    }

    fn region_formula(&self, id: usize, vars: &[String]) -> Formula {
        let key = (id, vars.to_vec());
        if let Some(f) = self.formulas.get(&key) {
            return f;
        }
        let f = Formula::and(
            self.arrangement
                .face_atoms(id, vars)
                .into_iter()
                .map(Formula::Atom)
                .collect(),
        );
        self.formulas.insert_if_absent(key, f.clone());
        f
    }

    fn members(&self, relation: &str) -> Option<&[u64]> {
        self.members.get(relation).map(Vec::as_slice)
    }
}

/// The NC¹ region structure of §7/Appendix A: `regions(S)` is the union of
/// the per-disjunct vertex-fan decompositions.
pub struct Nc1Regions {
    db: Database,
    spatial: String,
    decomposition: Nc1Decomposition,
    data: Vec<RegionData>,
    members: BTreeMap<String, Vec<u64>>,
}

impl Nc1Regions {
    /// Build from a database and the designated spatial relation name; the
    /// vertex-fan enumeration aborts with a typed error when the region cap
    /// or memory ceiling is exceeded.
    pub fn try_new(db: Database, spatial: &str, budget: &EvalBudget) -> Result<Self, EvalError> {
        let rel = db.relation(spatial).ok_or_else(|| {
            EvalError::invalid_query(format!("unknown spatial relation '{}'", spatial))
        })?;
        let decomposition = lcdb_geom::nc1::try_decompose_relation(rel, budget)
            .map_err(|e| EvalError::from_budget(e, EvalStats::default()))?;
        let data = decomposition
            .regions
            .iter()
            .enumerate()
            .map(|(id, r)| RegionData {
                id,
                dim: r.dim,
                bounded: r.set.is_bounded(),
                witness: r.set.interior_point(),
            })
            .collect::<Vec<_>>();
        Ok(Nc1Regions {
            members: membership(&db, decomposition.dim, &data),
            db,
            spatial: spatial.to_string(),
            decomposition,
            data,
        })
    }

    /// The underlying decomposition.
    pub fn decomposition(&self) -> &Nc1Decomposition {
        &self.decomposition
    }

    /// Construction kind of a region.
    pub fn kind(&self, id: usize) -> RegionKind {
        self.decomposition.regions[id].kind
    }

    fn vpoly(&self, id: usize) -> &VPolyhedron {
        &self.decomposition.regions[id].set
    }
}

impl Decomposition for Nc1Regions {
    fn ambient_dim(&self) -> usize {
        self.decomposition.dim
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn database(&self) -> &Database {
        &self.db
    }

    fn spatial_relation(&self) -> &str {
        &self.spatial
    }

    fn num_regions(&self) -> usize {
        self.data.len()
    }

    fn region(&self, id: usize) -> &RegionData {
        &self.data[id]
    }

    fn adjacent(&self, a: usize, b: usize) -> bool {
        self.vpoly(a).adjacent(self.vpoly(b))
    }

    fn contains_point(&self, id: usize, x: &[Rational]) -> bool {
        self.vpoly(id).contains(x)
    }

    fn region_formula(&self, id: usize, vars: &[String]) -> Formula {
        let rows = self.vpoly(id).atoms(vars, false);
        Formula::and(rows.into_iter().map(Formula::Atom).collect())
    }

    fn members(&self, relation: &str) -> Option<&[u64]> {
        self.members.get(relation).map(Vec::as_slice)
    }
}

/// A region extension `B^Reg`: the database together with one of the two
/// decompositions, behind the common [`Decomposition`] interface.
pub struct RegionExtension {
    inner: Box<dyn Decomposition>,
}

impl RegionExtension {
    /// The region extension of `db` over the decomposition `kind` of its
    /// spatial relation, built under `budget` (see
    /// [`ArrangementRegions::try_new`] and [`Nc1Regions::try_new`]).
    pub fn try_new(
        db: Database,
        spatial: &str,
        kind: DecompositionKind,
        budget: &EvalBudget,
    ) -> Result<Self, EvalError> {
        let inner: Box<dyn Decomposition> = match kind {
            DecompositionKind::Arrangement => Box::new(ArrangementRegions::try_new(
                db,
                spatial,
                budget,
                TraceHandle::disabled_ref(),
            )?),
            DecompositionKind::Nc1 => Box::new(Nc1Regions::try_new(db, spatial, budget)?),
        };
        Ok(RegionExtension { inner })
    }

    /// Region extension over the arrangement `A(S)` (§3) of a single
    /// spatial relation named `S`, without limits.
    ///
    /// # Panics
    /// Panics only if an injected fault stops the build.
    pub fn arrangement(relation: Relation) -> Self {
        Self::single(relation, DecompositionKind::Arrangement)
    }

    /// Region extension over the NC¹ decomposition (§7) of a single spatial
    /// relation named `S`, without limits; see
    /// [`RegionExtension::arrangement`].
    pub fn nc1(relation: Relation) -> Self {
        Self::single(relation, DecompositionKind::Nc1)
    }

    fn single(relation: Relation, kind: DecompositionKind) -> Self {
        let mut db = Database::new();
        db.insert("S", relation);
        Self::try_new(db, "S", kind, &EvalBudget::unlimited()).unwrap_or_else(|e| panic!("{}", e))
    }

    /// Pinned by `benchmark/`: `RegionExtension::from(regions)`.
    pub fn from_arrangement_regions(regions: ArrangementRegions) -> Self {
        regions.into()
    }

    /// Pinned by `benchmark/`: [`RegionExtension::try_new`] over the
    /// arrangement; `_pool` is ignored.
    pub fn try_arrangement_db_pool(
        db: Database,
        spatial: &str,
        budget: &EvalBudget,
        _pool: &lcdb_exec::Pool,
    ) -> Result<Self, EvalError> {
        Self::try_new(db, spatial, DecompositionKind::Arrangement, budget)
    }

    /// Pinned by `benchmark/`: [`RegionExtension::try_new`] over the NC¹
    /// decomposition.
    pub fn try_nc1_db(db: Database, spatial: &str, budget: &EvalBudget) -> Result<Self, EvalError> {
        Self::try_new(db, spatial, DecompositionKind::Nc1, budget)
    }

    /// Access the decomposition interface.
    pub fn decomposition(&self) -> &dyn Decomposition {
        self.inner.as_ref()
    }

    /// The concrete arrangement-based region structure, if that is what
    /// this extension wraps — `None` for the NC¹ decomposition. Used to
    /// pick a donor for incremental arrangement maintenance.
    pub fn as_arrangement_regions(&self) -> Option<&ArrangementRegions> {
        self.inner.as_any().downcast_ref::<ArrangementRegions>()
    }
}

/// Wrap an already-built arrangement region structure — e.g. one
/// reassembled from the persistent plan catalog — without rebuilding.
impl From<ArrangementRegions> for RegionExtension {
    fn from(regions: ArrangementRegions) -> Self {
        RegionExtension {
            inner: Box::new(regions),
        }
    }
}

impl Decomposition for RegionExtension {
    fn ambient_dim(&self) -> usize {
        self.inner.ambient_dim()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn database(&self) -> &Database {
        self.inner.database()
    }
    fn spatial_relation(&self) -> &str {
        self.inner.spatial_relation()
    }
    fn num_regions(&self) -> usize {
        self.inner.num_regions()
    }
    fn region(&self, id: usize) -> &RegionData {
        self.inner.region(id)
    }
    fn adjacent(&self, a: usize, b: usize) -> bool {
        self.inner.adjacent(a, b)
    }
    fn contains_point(&self, id: usize, x: &[Rational]) -> bool {
        self.inner.contains_point(id, x)
    }
    fn region_formula(&self, id: usize, vars: &[String]) -> Formula {
        self.inner.region_formula(id, vars)
    }
    fn members(&self, relation: &str) -> Option<&[u64]> {
        self.inner.members(relation)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};
    use lcdb_logic::parse_formula;
    use std::collections::BTreeMap;

    fn relation(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            &parse_formula(src).unwrap(),
        )
    }

    #[test]
    fn arrangement_regions_partition() {
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        // Hyperplanes x=0, x=2: five faces of R^1.
        assert_eq!(ext.num_regions(), 5);
        let pts = [int(-1), int(0), int(1), int(2), int(3)];
        let mut seen = std::collections::HashSet::new();
        for p in &pts {
            let ids: Vec<usize> = ext
                .region_ids()
                .filter(|&r| ext.contains_point(r, std::slice::from_ref(p)))
                .collect();
            assert_eq!(ids.len(), 1, "exactly one region per point");
            seen.insert(ids[0]);
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn arrangement_subset_of_s_exact() {
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        let in_s: Vec<usize> = ext
            .region_ids()
            .filter(|&r| ext.subset_of(r, "S"))
            .collect();
        assert_eq!(in_s.len(), 1);
        assert_eq!(ext.region(in_s[0]).dim, 1);
        assert!(ext.region(in_s[0]).bounded);
    }

    #[test]
    fn arrangement_region_formula_matches_membership() {
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        for id in ext.region_ids() {
            let f = ext.region_formula(id, &["x".to_string()]);
            for v in [int(-1), int(0), int(1), int(2), int(3), rat(1, 2)] {
                let mut env = BTreeMap::new();
                env.insert("x".to_string(), v.clone());
                assert_eq!(
                    f.eval(&env),
                    ext.contains_point(id, std::slice::from_ref(&v)),
                    "region {} at {}",
                    id,
                    v
                );
            }
        }
    }

    #[test]
    fn nc1_region_formula_matches_membership() {
        let ext = RegionExtension::nc1(relation(
            "x >= 0 and y >= 0 and x + y <= 2",
            &["x", "y"],
        ));
        let vars = vec!["u".to_string(), "v".to_string()];
        // Every witness (vertices, edge midpoints, the centroid) and an
        // outside point, against every region.
        let mut probes: Vec<QVector> = ext.region_ids().map(|id| ext.region(id).witness.clone()).collect();
        probes.push(vec![int(50), int(50)]);
        let before = lcdb_lp::counters();
        for id in ext.region_ids() {
            let f = ext.region_formula(id, &vars);
            assert!(f.is_quantifier_free());
            for p in &probes {
                let env: BTreeMap<String, Rational> = vars.iter().cloned().zip(p.iter().cloned()).collect();
                assert_eq!(f.eval(&env), ext.contains_point(id, p), "region {} at {:?}", id, p);
            }
            assert!(ext.contains_point(id, &ext.region(id).witness));
        }
        assert_eq!(lcdb_lp::counters(), before, "a region formula solved a linear program");
    }

    #[test]
    fn multi_relation_database_homogeneity() {
        // Auxiliary relation T shares the space; faces must be homogeneous
        // for T too because its hyperplanes join the arrangement.
        let mut db = Database::new();
        db.insert("S", relation("0 < x and x < 4", &["x"]));
        db.insert("T", relation("x > 2", &["x"]));
        let ext = RegionExtension::try_new(
            db,
            "S",
            DecompositionKind::Arrangement,
            &EvalBudget::unlimited(),
        )
        .unwrap();
        // Hyperplanes x=0, x=4, x=2: seven faces.
        assert_eq!(ext.num_regions(), 7);
        for id in ext.region_ids() {
            let w = ext.region(id).witness.clone();
            assert_eq!(
                ext.subset_of(id, "T"),
                ext.database().relation("T").unwrap().contains(&w)
            );
        }
    }

    #[test]
    fn adjacency_symmetry_and_irreflexivity() {
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        for a in ext.region_ids() {
            assert!(!ext.adjacent(a, a));
            for b in ext.region_ids() {
                assert_eq!(ext.adjacent(a, b), ext.adjacent(b, a));
            }
        }
        let nc1 = RegionExtension::nc1(relation("x >= 0 and x <= 2", &["x"]));
        for a in nc1.region_ids() {
            assert!(!nc1.adjacent(a, a));
            for b in nc1.region_ids() {
                assert_eq!(nc1.adjacent(a, b), nc1.adjacent(b, a));
            }
        }
    }

    #[test]
    fn nc1_interval_adjacency() {
        // [0,2]: {0}, {2}, (0,2). The endpoints are adjacent to the segment.
        let ext = RegionExtension::nc1(relation("x >= 0 and x <= 2", &["x"]));
        assert_eq!(ext.num_regions(), 3);
        let seg = ext
            .region_ids()
            .find(|&r| ext.region(r).dim == 1)
            .unwrap();
        for id in ext.region_ids() {
            if id != seg {
                assert!(ext.adjacent(id, seg));
            }
        }
    }

    /// Note 7.1 makes the decomposition a parameter: the one general
    /// constructor and the names `benchmark/` pins build the same
    /// extension, answer the same, and fail the same way.
    #[test]
    fn one_constructor_per_kind() {
        use crate::{queries, Evaluator};
        use lcdb_exec::Pool;
        let conn = queries::connectivity();
        let shapes = [
            ("(0 < x and x < 1) or (2 < x and x < 3)", &["x"][..]),
            (
                "(x >= 0 and y >= 0 and x + y <= 2) or (x >= 2 and y >= 0 and x <= 3 and y <= 1)",
                &["x", "y"][..],
            ),
        ];
        for (src, vars) in shapes {
            let mut db = Database::new();
            db.insert("S", relation(src, vars));
            for kind in [DecompositionKind::Arrangement, DecompositionKind::Nc1] {
                let build = |b: &EvalBudget| RegionExtension::try_new(db.clone(), "S", kind, b);
                let pinned = |b: &EvalBudget| match kind {
                    DecompositionKind::Arrangement => vec![
                        RegionExtension::try_arrangement_db_pool(db.clone(), "S", b, &Pool::serial()),
                        ArrangementRegions::try_new_pool(db.clone(), "S", b, &Pool::serial())
                            .map(RegionExtension::from_arrangement_regions),
                    ],
                    DecompositionKind::Nc1 => vec![RegionExtension::try_nc1_db(db.clone(), "S", b)],
                };
                let unlimited = EvalBudget::unlimited();
                let ext = build(&unlimited).unwrap();
                let verdict = Evaluator::new(&ext).eval_sentence(&conn);
                for shim in pinned(&unlimited) {
                    let shim = shim.unwrap();
                    assert_eq!(shim.num_regions(), ext.num_regions(), "{src} {kind:?}");
                    for id in ext.region_ids() {
                        let (a, b) = (ext.region(id), shim.region(id));
                        assert_eq!((a.dim, a.bounded, &a.witness), (b.dim, b.bounded, &b.witness));
                    }
                    let shim_verdict = Evaluator::new(&shim).eval_sentence(&conn);
                    assert_eq!(shim_verdict, verdict, "{src} {kind:?}");
                }
                let capped = EvalBudget::unlimited().with_max_faces(2);
                let err = build(&capped).err().unwrap();
                assert!(matches!(err, EvalError::FaceLimit { limit: 2, .. }), "{err}");
                for shim in pinned(&capped) {
                    assert_eq!(shim.err(), Some(err.clone()), "{src} {kind:?}");
                }
            }
        }
    }
}
