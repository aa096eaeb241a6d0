//! The one file that names engine types. Everything else in the benchmark
//! works with plain data (text, integers, the wrappers defined here), so a
//! change to the engine's API is a mechanical edit of this file only.
//!
//! The engine is measured from outside: every function here calls public
//! functions of a layer and reads public counters. Functions that a traced
//! run should attribute take the tracer and open a span around the call.

use crate::gen::{Family, Machine, Op};
use crate::trace::Tracer;
use lcdb_arith::{BigInt, Rational};
use lcdb_core::persist::{decode_arrangement, encode_arrangement};
use lcdb_core::{
    compile, database_fingerprint, explain_query, parse_regformula, queries, query_fingerprint,
    ArrangementRegions, Decomposition, EvalBudget, EvalStats, Evaluator, PlanCatalog, Pool,
    RegFormula, RegionExtension, Snapshot, TraceHandle,
};
use lcdb_geom::nc1::try_decompose_relation;
use lcdb_geom::{Arrangement, Hyperplane};
use lcdb_linalg::Matrix;
use lcdb_logic::dnf::{to_dnf, Dnf};
use lcdb_logic::qe::{eliminate_one_cells, max_coefficient_bits};
use lcdb_logic::{parse_formula, Database, Formula, Relation};
use lcdb_lp::{feasible_refs, maximize, FeasibilityBatch, LinConstraint, LpOutcome};
use lcdb_server::proto::FrameReader;
use lcdb_server::{
    apply_define, Client, OpCode, Request, RespCode, Response, ResultCache, Server, ServerConfig,
};
use lcdb_tm::capture::{capture_agreement, compile_linear_tm, input_word};
use lcdb_tm::Tm;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;

type Res<T> = Result<T, String>;

fn int(v: i64) -> Rational {
    lcdb_arith::int(v)
}

// ---------------------------------------------------------------------
// Databases, queries, extensions, evaluation
// ---------------------------------------------------------------------

/// A database and its designated spatial relation.
#[derive(Clone)]
pub struct Db {
    db: Database,
    spatial: String,
}

/// Build a database from `Define` lines through the same function the
/// server's sessions use; the first relation defined is the spatial one.
pub fn define_db(defines: &[String]) -> Res<Db> {
    let mut db = Database::new();
    let mut spatial = None;
    for line in defines {
        apply_define(&mut db, &mut spatial, line)?;
    }
    Ok(Db {
        db,
        spatial: spatial.ok_or("no relation defined")?,
    })
}

impl Db {
    /// The database with one more (or one replaced) relation.
    pub fn with_define(&self, line: &str) -> Res<Db> {
        let mut next = self.clone();
        let mut spatial = Some(next.spatial.clone());
        apply_define(&mut next.db, &mut spatial, line)?;
        Ok(next)
    }

    pub fn fingerprint(&self) -> u64 {
        database_fingerprint(&self.db, Some(&self.spatial))
    }
}

pub struct Query(RegFormula);

pub fn parse(text: &str) -> Res<Query> {
    parse_regformula(text).map(Query).map_err(|e| e.to_string())
}

/// The library's RegTC connectivity sentence (it has no concrete syntax the
/// benchmark would rather own).
pub fn tc_connectivity() -> Query {
    Query(queries::connectivity_tc(false))
}

impl Query {
    pub fn fingerprint(&self) -> u64 {
        query_fingerprint(&self.0)
    }

    /// Compile to a plan; returns the number of interned nodes.
    pub fn plan_nodes(&self) -> usize {
        compile(&self.0).0.len()
    }

    pub fn explain(&self) -> String {
        explain_query(&self.0)
    }
}

/// The work counters of one or more evaluations (`EvalStats`, as plain data).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub fix_iterations: u64,
    pub fix_tuple_tests: u64,
    pub qe_calls: u64,
    pub region_expansions: u64,
    pub plan_cache_lookups: u64,
    pub plan_cache_hits: u64,
}

impl Counts {
    fn of(s: EvalStats) -> Counts {
        Counts {
            fix_iterations: s.fix_iterations as u64,
            fix_tuple_tests: s.fix_tuple_tests as u64,
            qe_calls: s.qe_calls as u64,
            region_expansions: s.region_expansions as u64,
            plan_cache_lookups: s.plan_cache_lookups as u64,
            plan_cache_hits: s.plan_cache_hits as u64,
        }
    }

    pub fn add(&mut self, o: Counts) {
        self.fix_iterations += o.fix_iterations;
        self.fix_tuple_tests += o.fix_tuple_tests;
        self.qe_calls += o.qe_calls;
        self.region_expansions += o.region_expansions;
        self.plan_cache_lookups += o.plan_cache_lookups;
        self.plan_cache_hits += o.plan_cache_hits;
    }
}

pub struct Ext(RegionExtension);

fn pool(threads: usize) -> Pool {
    if threads <= 1 {
        Pool::serial()
    } else {
        Pool::new(threads)
    }
}

/// Build the arrangement-based region extension of a database.
pub fn extension(tr: &mut Tracer, item: u32, db: &Db, threads: usize) -> Res<Ext> {
    tr.span("region.extension", item, |_| {
        RegionExtension::try_arrangement_db_pool(
            db.db.clone(),
            &db.spatial,
            &EvalBudget::unlimited(),
            &pool(threads),
        )
        .map(Ext)
        .map_err(|e| e.to_string())
    })
}

/// Build the NC¹ (vertex-fan) region extension of a database.
pub fn extension_nc1(tr: &mut Tracer, item: u32, db: &Db) -> Res<Ext> {
    tr.span("region.extension_nc1", item, |_| {
        RegionExtension::try_nc1_db(db.db.clone(), &db.spatial, &EvalBudget::unlimited())
            .map(Ext)
            .map_err(|e| e.to_string())
    })
}

impl Ext {
    pub fn regions(&self) -> usize {
        self.0.num_regions()
    }

    /// The arrangement behind the extension (`None` for the NC¹ one).
    pub fn arrangement(&self) -> Option<Arr> {
        self.0
            .as_arrangement_regions()
            .map(|r| Arr(r.arrangement().clone()))
    }

    /// Encode the arrangement to its catalog blob and decode it back;
    /// returns the blob length.
    pub fn arrangement_codec(&self) -> Res<usize> {
        let regions = self
            .0
            .as_arrangement_regions()
            .ok_or("not an arrangement")?;
        let blob = encode_arrangement(regions.arrangement());
        let back = decode_arrangement(&blob).map_err(|e| e.to_string())?;
        if back.num_faces() != regions.arrangement().num_faces() {
            return Err("arrangement blob lost faces".into());
        }
        Ok(blob.len())
    }
}

fn evaluator(ext: &Ext, threads: usize) -> Evaluator<'_> {
    Evaluator::with_budget(&ext.0, EvalBudget::unlimited()).with_pool(pool(threads))
}

/// Evaluate a sentence on a fresh evaluator. `span` names the evaluation
/// for the traced run (`eval.conn`, `eval.gis`, …).
pub fn eval_sentence(
    tr: &mut Tracer,
    span: &'static str,
    item: u32,
    ext: &Ext,
    q: &Query,
    threads: usize,
) -> Res<(bool, Counts)> {
    tr.span(span, item, |_| {
        let ev = evaluator(ext, threads);
        let verdict = ev.try_eval_sentence(&q.0).map_err(|e| e.to_string())?;
        Ok((verdict, Counts::of(ev.stats())))
    })
}

/// Evaluate an open query to its quantifier-free answer, rendered as text.
pub fn eval_query(
    tr: &mut Tracer,
    span: &'static str,
    item: u32,
    ext: &Ext,
    q: &Query,
) -> Res<(String, Counts)> {
    tr.span(span, item, |_| {
        let ev = evaluator(ext, 1);
        let answer = ev.try_eval_query(&q.0).map_err(|e| e.to_string())?;
        Ok((answer.to_string(), Counts::of(ev.stats())))
    })
}

fn machine(m: Machine) -> Tm {
    match m {
        Machine::AnyOne => Tm::any_one(),
        Machine::AllOnes => Tm::all_ones(),
        Machine::Parity => Tm::parity(),
    }
}

/// Both sides of the capture experiment (Theorem 6.4): the direct run of
/// the machine on the region-order word, and the compiled sentence.
pub fn capture(
    tr: &mut Tracer,
    item: u32,
    ext: &Ext,
    m: Machine,
    threads: usize,
) -> Res<(bool, bool, Counts)> {
    tr.span("eval.capture", item, |_| {
        let ev = evaluator(ext, threads);
        let (direct, logical) = capture_agreement(&machine(m), &ev);
        Ok((direct, logical, Counts::of(ev.stats())))
    })
}

/// Compile a machine to its fixed-point sentence; returns the plan size.
pub fn tm_compile(m: Machine) -> usize {
    compile(&compile_linear_tm(&machine(m), 1)).0.len()
}

/// Run a machine directly on the region-order word of a database.
pub fn tm_direct_run(ext: &Ext, m: Machine) -> bool {
    let ev = evaluator(ext, 1);
    let word = input_word(&ev);
    matches!(
        machine(m).run(&word, word.len() + 2),
        lcdb_tm::TmOutcome::Accept
    )
}

/// A fixpoint snapshot of a finished evaluation, for the codec probe.
pub struct Snap(Snapshot);

pub fn snapshot(ext: &Ext, q: &Query) -> Res<Snap> {
    let ev = evaluator(ext, 1);
    ev.try_eval_sentence(&q.0).map_err(|e| e.to_string())?;
    Ok(Snap(ev.checkpoint(&q.0)))
}

impl Snap {
    /// Encode and decode; returns the encoded length.
    pub fn codec(&self) -> Res<usize> {
        let bytes = self.0.encode();
        let back = Snapshot::decode(&bytes).map_err(|e| e.to_string())?;
        if back.fingerprint() != self.0.fingerprint() {
            return Err("snapshot fingerprint changed in the codec".into());
        }
        Ok(bytes.len())
    }
}

/// Does the rendered answer of an open query hold at the given values?
/// (Uses the engine's own formula evaluator on the engine's own output.)
pub fn answer_holds(answer: &str, at: &[(&str, (i64, i64))]) -> Res<bool> {
    let f = parse_formula(answer).map_err(|e| e.to_string())?;
    let env: BTreeMap<String, Rational> = at
        .iter()
        .map(|&(v, (num, den))| (v.to_string(), lcdb_arith::rat(num, den)))
        .collect();
    Ok(f.eval(&env))
}

/// Is the rendered answer of an open query satisfiable at all?
pub fn answer_satisfiable(answer: &str) -> Res<bool> {
    let f = parse_formula(answer).map_err(|e| e.to_string())?;
    Ok(to_dnf(&f).is_satisfiable())
}

/// One semi-naive datalog evaluation shaped like the reproduction harness's
/// E19: reachability along a bounded chain. Returns the round count.
pub fn datalog_seminaive(steps: i64) -> Res<usize> {
    use lcdb_datalog::{EvalOutcome, Literal, Program, Rule, Strategy};
    let atom = |src: &str| match parse_formula(src) {
        Ok(Formula::Atom(a)) => Ok(a),
        other => Err(format!("expected an atom, got {other:?}")),
    };
    let program = Program::new()
        .rule(Rule::new(
            "reach",
            vec!["x".into()],
            vec![Literal::Pred("S".into(), vec!["x".into()])],
        ))
        .rule(Rule::new(
            "reach",
            vec!["x".into()],
            vec![
                Literal::Pred("reach".into(), vec!["y".into()]),
                Literal::Constraint(atom("x - y = 1")?),
                Literal::Constraint(atom(&format!("x <= {steps}"))?),
            ],
        ));
    let edb = define_db(&["S(x) := 0 <= x and x <= 1".to_string()])?.db;
    match program
        .try_evaluate_with(
            &edb,
            2 * steps as usize + 8,
            &EvalBudget::unlimited(),
            Strategy::SemiNaive,
            &Pool::serial(),
        )
        .map_err(|e| e.to_string())?
    {
        EvalOutcome::Fixpoint { rounds, .. } => Ok(rounds),
        EvalOutcome::Diverged { rounds, .. } => {
            Err(format!("bounded chain diverged after {rounds} rounds"))
        }
    }
}

// ---------------------------------------------------------------------
// Geometry, LP, arithmetic
// ---------------------------------------------------------------------

fn hyperplane(row: &[i64]) -> Hyperplane {
    let d = row.len() - 1;
    Hyperplane::new(row[..d].iter().map(|&c| int(c)).collect(), int(row[d]))
}

pub struct Arr(Arrangement);

pub fn build_arrangement(tr: &mut Tracer, item: u32, f: &Family) -> Res<Arr> {
    tr.span("geom.build", item, |_| {
        Arrangement::try_build_pool(
            f.d,
            f.planes.iter().map(|r| hyperplane(r)).collect(),
            &EvalBudget::unlimited(),
            &Pool::serial(),
        )
        .map(Arr)
        .map_err(|e| e.to_string())
    })
}

impl Arr {
    pub fn faces(&self) -> usize {
        self.0.num_faces()
    }

    /// Face counts indexed by dimension.
    pub fn census(&self) -> Vec<u64> {
        self.0
            .face_counts_by_dim()
            .into_iter()
            .map(|c| c as u64)
            .collect()
    }

    pub fn insert(&self, tr: &mut Tracer, item: u32, row: &[i64]) -> Res<Arr> {
        tr.span("geom.insert", item, |_| {
            self.0
                .try_insert_hyperplane(hyperplane(row), &EvalBudget::unlimited(), &Pool::serial())
                .map(Arr)
                .map_err(|e| e.to_string())
        })
    }

    pub fn remove(&self, tr: &mut Tracer, item: u32, index: usize) -> Res<Arr> {
        tr.span("geom.remove", item, |_| {
            self.0
                .try_remove_hyperplane(index, &EvalBudget::unlimited(), &Pool::serial())
                .map(Arr)
                .map_err(|e| e.to_string())
        })
    }

    /// Locate every face's own witness point; returns how many came back to
    /// the face they were taken from (all of them, in a correct engine).
    pub fn locate_witnesses(&self) -> usize {
        self.0
            .faces()
            .iter()
            .filter(|f| self.0.locate(&f.witness) == f.id)
            .count()
    }

    /// The defining system of every face (its atoms over `x0..`), as LP
    /// constraint systems.
    pub fn face_systems(&self) -> LpSystems {
        let d = self.0.ambient_dim();
        let vars: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
        LpSystems {
            d,
            systems: (0..self.0.num_faces())
                .map(|id| {
                    self.0
                        .face_atoms(id, &vars)
                        .iter()
                        .map(|a| a.to_constraint(&vars))
                        .collect()
                })
                .collect(),
        }
    }

    /// The coordinates of every face witness: the rationals this workload's
    /// geometry actually produced.
    pub fn witness_coordinates(&self) -> Numbers {
        Numbers(
            self.0
                .faces()
                .iter()
                .flat_map(|f| f.witness.iter().cloned())
                .collect(),
        )
    }
}

/// NC¹ decomposition of a convex polygon given as a `Define` line. Returns
/// the region census by dimension and whether the two probe points (doubled
/// coordinates) are covered.
pub fn nc1_decompose(
    tr: &mut Tracer,
    item: u32,
    define: &str,
    inside2: (i64, i64),
    outside2: (i64, i64),
) -> Res<(Vec<u64>, bool, bool)> {
    let db = define_db(&[define.to_string()])?;
    let relation = db
        .db
        .relation(&db.spatial)
        .ok_or("polygon relation missing")?;
    tr.span("geom.nc1", item, |_| {
        let dec = try_decompose_relation(relation, &EvalBudget::unlimited())
            .map_err(|e| e.to_string())?;
        let half = |(x, y): (i64, i64)| vec![lcdb_arith::rat(x, 2), lcdb_arith::rat(y, 2)];
        Ok((
            dec.counts_by_dim().into_iter().map(|c| c as u64).collect(),
            dec.covers(&half(inside2)),
            dec.covers(&half(outside2)),
        ))
    })
}

/// Constraint systems for the LP probes.
pub struct LpSystems {
    d: usize,
    systems: Vec<Vec<LinConstraint>>,
}

impl LpSystems {
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// Cold feasibility of system `i` (every face system is feasible).
    pub fn feasible(&self, i: usize) -> bool {
        let refs: Vec<&LinConstraint> = self.systems[i].iter().collect();
        feasible_refs(self.d, &refs).is_some()
    }

    /// Warm probes: solve the shared prefix of system `i` once, then probe
    /// its last constraint `probes` times. Returns how many were feasible.
    pub fn probe_warm(&self, i: usize, probes: usize) -> usize {
        let sys = &self.systems[i];
        let Some((last, prefix)) = sys.split_last() else {
            return 0;
        };
        let refs: Vec<&LinConstraint> = prefix.iter().collect();
        let batch = FeasibilityBatch::new(self.d, &refs);
        (0..probes).filter(|_| batch.probe(last).is_some()).count()
    }

    /// Maximise the first coordinate over the closure of system `i`.
    pub fn maximize_x0(&self, i: usize) -> bool {
        let closed: Vec<LinConstraint> =
            self.systems[i].iter().map(LinConstraint::closed).collect();
        let mut objective = vec![int(0); self.d];
        objective[0] = int(1);
        !matches!(maximize(self.d, &objective, &closed), LpOutcome::Infeasible)
    }
}

/// A stream of rationals for the arithmetic probes.
pub struct Numbers(Vec<Rational>);

impl Numbers {
    pub fn from_ints(values: &[i64]) -> Numbers {
        Numbers(values.iter().map(|&v| int(v)).collect())
    }

    /// Numbers past the word size: each value scaled by a 70-bit constant
    /// over a 67-bit one.
    pub fn big(&self) -> Numbers {
        let num = Rational::from_integer(BigInt::from(3i64).pow(44));
        let den = Rational::from_integer(BigInt::from(7i64).pow(24));
        Numbers(
            self.0
                .iter()
                .map(|v| &(v * &num) / &den + Rational::one())
                .collect(),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Numbers) {
        self.0.extend(other.0);
    }

    /// One pass of `a·b + c` and a comparison over consecutive triples.
    /// Returns (operations done, results wider than 63 bits).
    pub fn mul_add_pass(&self) -> (usize, usize) {
        let mut wide = 0;
        let mut ops = 0;
        for w in self.0.windows(3) {
            let r = &(&w[0] * &w[1]) + &w[2];
            if r.bit_size() > 63 {
                wide += 1;
            }
            std::hint::black_box(r < w[1]);
            ops += 3;
        }
        (ops, wide)
    }

    /// One pass of integer gcds over consecutive numerators.
    pub fn gcd_pass(&self) -> usize {
        let nums: Vec<BigInt> = self
            .0
            .iter()
            .map(|v| v.numer() + BigInt::from(1i64))
            .collect();
        for w in nums.windows(2) {
            std::hint::black_box(w[0].gcd(&w[1]));
        }
        nums.len().saturating_sub(1)
    }
}

/// Solve the 3×3 system of three planes of a family (their common point).
pub fn solve3(f: &Family, triple: [usize; 3]) -> bool {
    let rows = triple
        .iter()
        .map(|&i| f.planes[i][..3].iter().map(|&c| int(c)).collect())
        .collect();
    let rhs: Vec<Rational> = triple.iter().map(|&i| int(f.planes[i][3])).collect();
    Matrix::from_rows(rows).solve(&rhs).is_some()
}

// ---------------------------------------------------------------------
// Logic: quantifier elimination along the public calls
// ---------------------------------------------------------------------

/// A predicate-free first-order formula (predicates expanded against a
/// database through `Relation::apply`).
pub struct Fo(Formula);

/// Expand the predicates of an FO+LIN sentence or query against a database.
pub fn expand(db: &Db, text: &str) -> Res<Fo> {
    let f = parse_formula(text).map_err(|e| e.to_string())?;
    Ok(Fo(f.expand_predicates(&db.db)))
}

/// What one elimination produced.
pub struct QeOutcome {
    /// The quantifier-free result, for `decide`/`is_false`.
    pub answer: Fo,
    pub conjuncts: usize,
    pub max_coeff_bits: u64,
}

impl Fo {
    /// Eliminate every quantifier the way the evaluator does: innermost
    /// first, one `eliminate_one_cells` call per element variable.
    pub fn eliminate(&self, tr: &mut Tracer, item: u32) -> QeOutcome {
        fn rec(f: &Formula) -> Formula {
            match f {
                Formula::Exists(v, g) => eliminate_one_cells(&rec(g), v, true),
                Formula::Forall(v, g) => eliminate_one_cells(&rec(g), v, false),
                Formula::Not(g) => Formula::not(rec(g)),
                Formula::And(gs) => Formula::and(gs.iter().map(rec).collect()),
                Formula::Or(gs) => Formula::or(gs.iter().map(rec).collect()),
                other => other.clone(),
            }
        }
        let qf = tr.span("qe.eliminate", item, |_| rec(&self.0));
        let dnf = to_dnf(&qf);
        QeOutcome {
            conjuncts: dnf.disjuncts.len(),
            max_coeff_bits: max_coefficient_bits(&dnf),
            answer: Fo(qf),
        }
    }

    /// Truth of a variable-free quantifier-free formula.
    pub fn decide(&self) -> bool {
        self.0.eval(&BTreeMap::new())
    }

    pub fn satisfiable(&self) -> bool {
        to_dnf(&self.0).is_satisfiable()
    }

    /// Number of quantifiers in the formula.
    pub fn quantifiers(&self) -> usize {
        fn count(f: &Formula) -> usize {
            match f {
                Formula::Exists(_, g) | Formula::Forall(_, g) => 1 + count(g),
                Formula::Not(g) => count(g),
                Formula::And(gs) | Formula::Or(gs) => gs.iter().map(count).sum(),
                _ => 0,
            }
        }
        count(&self.0)
    }

    /// The quantifier-free matrix converted to DNF by plain distribution —
    /// only for a negation-free matrix under an ∃-prefix. Distributing a
    /// negated union of prisms is exponential in the number of prisms (one
    /// of the hazards in the README), so those formulas return `None`.
    pub fn matrix_dnf(&self) -> Option<DnfBox> {
        fn strip(f: &Formula) -> Option<&Formula> {
            match f {
                Formula::Exists(_, g) => strip(g),
                Formula::Forall(..) => None,
                other => Some(other),
            }
        }
        fn positive(f: &Formula) -> bool {
            match f {
                Formula::And(gs) | Formula::Or(gs) => gs.iter().all(positive),
                Formula::Not(_) | Formula::Exists(..) | Formula::Forall(..) | Formula::Pred(..) => {
                    false
                }
                _ => true,
            }
        }
        strip(&self.0)
            .filter(|m| positive(m))
            .map(|m| DnfBox(to_dnf(m)))
    }
}

pub struct DnfBox(Dnf);

impl DnfBox {
    pub fn disjuncts(&self) -> usize {
        self.0.disjuncts.len()
    }

    pub fn simplify(&self) -> usize {
        self.0.simplify().disjuncts.len()
    }
}

/// Parse the body of a `NAME(vars) := body` line with the FO+LIN parser.
pub fn parse_define_body(define: &str) -> Res<usize> {
    let body = define.split_once(":=").ok_or("not a define line")?.1;
    fn atoms(f: &Formula) -> usize {
        match f {
            Formula::Atom(_) => 1,
            Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => atoms(g),
            Formula::And(gs) | Formula::Or(gs) => gs.iter().map(atoms).sum(),
            _ => 0,
        }
    }
    parse_formula(body)
        .map(|f| atoms(&f))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The persistent catalog
// ---------------------------------------------------------------------

pub struct Catalog(PlanCatalog);

/// Storage counters (`StoreStat`, as plain data).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounts {
    pub wal_bytes: u64,
    pub pages_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub replayed: u64,
}

impl Catalog {
    pub fn open(dir: &Path) -> Res<Catalog> {
        PlanCatalog::open(dir)
            .map(Catalog)
            .map_err(|e| e.to_string())
    }

    pub fn save_result(&self, plan_fp: u64, db_fp: u64, deps: &[String], body: &str) -> Res<()> {
        self.0
            .save_result(plan_fp, db_fp, deps, body.as_bytes())
            .map_err(|e| e.to_string())
    }

    pub fn load_result(&self, plan_fp: u64, db_fp: u64) -> Res<Option<String>> {
        let bytes = self
            .0
            .load_result(plan_fp, db_fp)
            .map_err(|e| e.to_string())?;
        bytes
            .map(|b| String::from_utf8(b).map_err(|e| e.to_string()))
            .transpose()
    }

    pub fn save_extension(&self, ext: &Ext) -> Res<()> {
        let regions = ext.0.as_arrangement_regions().ok_or("not an arrangement")?;
        self.0.save_extension(regions).map_err(|e| e.to_string())
    }

    /// Load a persisted extension; returns its region count.
    pub fn load_extension(&self, db: &Db) -> Res<Option<usize>> {
        self.0
            .load_extension(&db.db, &db.spatial)
            .map(|r| r.map(|regions: ArrangementRegions| regions.num_regions()))
            .map_err(|e| e.to_string())
    }

    pub fn checkpoint(&self) -> Res<()> {
        self.0.checkpoint().map_err(|e| e.to_string())
    }

    pub fn counts(&self) -> StoreCounts {
        let s = self.0.stat();
        StoreCounts {
            wal_bytes: s.wal_bytes,
            pages_bytes: s.pages_bytes,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            replayed: s.replayed as u64,
        }
    }
}

// ---------------------------------------------------------------------
// The server, seen from a client
// ---------------------------------------------------------------------

pub struct ServerHandle {
    server: Server,
    pub addr: String,
}

/// Start an in-process server on an OS-assigned loopback port with two
/// dispatch workers and serial evaluation; everything else is the default.
pub fn start_server(base_db: &[String], store_dir: Option<&Path>) -> Res<ServerHandle> {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        eval_threads: 1,
        base_db: base_db.to_vec(),
        store_dir: store_dir.map(Path::to_path_buf),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, TraceHandle::disabled()).map_err(|e| e.to_string())?;
    let addr = server.addr().to_string();
    Ok(ServerHandle { server, addr })
}

impl ServerHandle {
    /// Stop the listener, drain the workers and join every thread.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// A reply as the client sees it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// `RespCode::Ok`.
    pub ok: bool,
    /// The response code's name; read through `Debug` in failure reports.
    #[allow(dead_code)]
    pub code: &'static str,
    /// 0 = computed, 1 = result cache, 2 = persistent catalog.
    pub aux: u32,
    pub body: String,
}

fn opcode(op: Op) -> OpCode {
    match op {
        Op::Sentence => OpCode::EvalSentence,
        Op::Query => OpCode::EvalQuery,
        Op::Explain => OpCode::Explain,
    }
}

pub struct Conn {
    client: Client,
}

/// Retries a shed request gets before it counts as failed.
const SHED_RETRIES: u32 = 3;

impl Conn {
    pub fn connect(addr: &str, seed: u64) -> Res<Conn> {
        Client::connect(addr)
            .map(|c| Conn {
                client: c.with_seed(seed),
            })
            .map_err(|e| e.to_string())
    }

    fn send(&mut self, op: OpCode, text: &str) -> Res<Reply> {
        let resp = self
            .client
            .with_backoff(op, 0, text, SHED_RETRIES)
            .map_err(|e| e.to_string())?;
        Ok(Reply {
            ok: resp.code == RespCode::Ok,
            code: match resp.code {
                RespCode::Ok => "Ok",
                RespCode::ParseError => "ParseError",
                RespCode::EvalError => "EvalError",
                RespCode::Timeout => "Timeout",
                RespCode::RetryAfter => "RetryAfter",
                RespCode::Fault => "Fault",
                RespCode::BadRequest => "BadRequest",
                RespCode::Internal => "Internal",
            },
            aux: resp.aux,
            body: resp.body,
        })
    }

    pub fn define(&mut self, line: &str) -> Res<Reply> {
        self.send(OpCode::Define, line)
    }

    pub fn request(&mut self, op: Op, text: &str) -> Res<Reply> {
        self.send(opcode(op), text)
    }

    /// Shed responses seen on this connection (each was retried).
    pub fn sheds(&self) -> u64 {
        self.client.sheds
    }

    /// The `Status` counters and gauges.
    pub fn status(&mut self) -> Res<BTreeMap<String, f64>> {
        let reply = self.send(OpCode::Status, "")?;
        Ok(reply
            .body
            .lines()
            .filter_map(|l| l.split_once('='))
            .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
            .collect())
    }

    /// `_sum` and `_count` of a histogram in the `Metrics` exposition.
    pub fn histogram_sum_count(&mut self, name: &str) -> Res<(f64, f64)> {
        let reply = self.send(OpCode::Metrics, "")?;
        // The exposition prefixes names and turns dots into underscores.
        let flat = format!("lcdb_{}", name.replace('.', "_"));
        let field = |suffix: &str| {
            reply
                .body
                .lines()
                .filter_map(|l| l.rsplit_once(' '))
                .find(|(k, _)| *k == format!("{flat}{suffix}"))
                .and_then(|(_, v)| v.parse::<f64>().ok())
        };
        match (field("_sum"), field("_count")) {
            (Some(s), Some(c)) => Ok((s, c)),
            _ => Err(format!("histogram {name} not in the metrics exposition")),
        }
    }
}

/// Encode a request and a response, push both through the incremental
/// frame reader, and decode them again: the wire cost of one round trip
/// without the socket.
pub fn proto_roundtrip(op: Op, text: &str, body: &str) -> Res<usize> {
    let req = Request {
        op: opcode(op),
        id: 7,
        aux: 0,
        text: text.to_string(),
    };
    let resp = Response::ok(7, body);
    let mut reader = FrameReader::new();
    reader.push(&req.to_frame());
    reader.push(&resp.to_frame());
    let first = reader
        .next_frame()
        .map_err(|e| e.to_string())?
        .ok_or("request frame missing")?;
    let second = reader
        .next_frame()
        .map_err(|e| e.to_string())?
        .ok_or("response frame missing")?;
    let req_back = Request::decode(&first).map_err(|e| e.to_string())?;
    let resp_back = Response::decode(&second).map_err(|e| e.to_string())?;
    Ok(req_back.text.len() + resp_back.body.len())
}

// ---------------------------------------------------------------------
// In-process replay of served requests
// ---------------------------------------------------------------------

/// The server's result cache, driven directly.
pub struct CacheProbe(ResultCache);

impl CacheProbe {
    pub fn new(capacity: usize) -> CacheProbe {
        CacheProbe(ResultCache::new(capacity))
    }
    pub fn get(&self, key: (u64, u64)) -> bool {
        self.0.get(key).is_some()
    }
    pub fn put(&self, key: (u64, u64), body: &str) {
        self.0.put(key, body.to_string());
    }
}

/// Replays requests in-process along the same public calls the server's
/// `execute` makes — parse, fingerprint, cache lookup, extension (derived
/// from the closest cached one, or built), evaluation, cache insert,
/// response encoding — with a span around each, so the traced run can say
/// where a served request's time goes without editing the server.
pub struct Replayer {
    cache: ResultCache,
    extensions: HashMap<u64, Arc<RegionExtension>>,
    /// Work counters of every evaluation replayed so far.
    pub counts: Counts,
}

impl Replayer {
    pub fn new() -> Replayer {
        Replayer {
            cache: ResultCache::new(ServerConfig::default().cache_capacity),
            extensions: HashMap::new(),
            counts: Counts::default(),
        }
    }

    fn extension(
        &mut self,
        tr: &mut Tracer,
        item: u32,
        db: &Db,
        db_fp: u64,
    ) -> Res<Arc<RegionExtension>> {
        if let Some(ext) = self.extensions.get(&db_fp) {
            return Ok(Arc::clone(ext));
        }
        let (_, target) = ArrangementRegions::spatial_hyperplanes(&db.db, &db.spatial)
            .map_err(|e| e.to_string())?;
        // The donor sharing the most hyperplanes, as the server picks it.
        let donor = self
            .extensions
            .values()
            .filter_map(|e| e.as_arrangement_regions())
            .filter(|r| {
                r.spatial_relation() == db.spatial
                    && r.ambient_dim() == db.db.relation(&db.spatial).map_or(0, Relation::arity)
            })
            .max_by_key(|r| {
                r.arrangement()
                    .hyperplanes()
                    .iter()
                    .filter(|h| target.contains(h))
                    .count()
            });
        let derived = match donor {
            Some(donor) => tr.span("region.derive", item, |_| {
                donor
                    .try_derive(
                        db.db.clone(),
                        &db.spatial,
                        &EvalBudget::unlimited(),
                        &Pool::serial(),
                    )
                    .map(|d| d.map(|(regions, _)| regions))
                    .map_err(|e| e.to_string())
            })?,
            None => None,
        };
        let regions = match derived {
            Some(regions) => regions,
            None => tr.span("geom.build", item, |_| {
                ArrangementRegions::try_new_pool(
                    db.db.clone(),
                    &db.spatial,
                    &EvalBudget::unlimited(),
                    &Pool::serial(),
                )
                .map_err(|e| e.to_string())
            })?,
        };
        if self.extensions.len() >= 32 {
            self.extensions.clear();
        }
        let ext = Arc::new(RegionExtension::from_arrangement_regions(regions));
        self.extensions.insert(db_fp, Arc::clone(&ext));
        Ok(ext)
    }

    /// Replay one request; returns the body and whether the replayer's own
    /// cache answered it. `eval_span` names the evaluation's span.
    #[allow(clippy::too_many_arguments)]
    pub fn replay(
        &mut self,
        tr: &mut Tracer,
        item: u32,
        db: &Db,
        db_fp: u64,
        op: Op,
        text: &str,
        eval_span: &'static str,
    ) -> Res<(String, bool)> {
        tr.span("replay.request", item, |tr| {
            let query = tr.span("core.parse", item, |_| parse(text))?;
            let plan_fp = tr.span("core.fingerprint", item, |_| query.fingerprint());
            let salt = match op {
                Op::Sentence => 0x5eed_0001u64,
                Op::Query => 0x5eed_0002,
                Op::Explain => 0x5eed_0003,
            };
            let key = (plan_fp ^ salt, if op == Op::Explain { 0 } else { db_fp });
            let cached = tr.span("server.cache_get", item, |_| self.cache.get(key));
            let (body, hit) = match cached {
                Some(body) => (body, true),
                None => {
                    let body = match op {
                        Op::Explain => tr.span("plan.explain", item, |_| query.explain()),
                        _ => {
                            let ext = tr.span("region.extension", item, |tr| {
                                self.extension(tr, item, db, db_fp)
                            })?;
                            let (body, counts) = tr.span(eval_span, item, |_| {
                                let ev =
                                    Evaluator::with_budget(ext.as_ref(), EvalBudget::unlimited());
                                let body = match op {
                                    Op::Sentence => {
                                        ev.try_eval_sentence(&query.0).map(|b| b.to_string())
                                    }
                                    _ => ev.try_eval_query(&query.0).map(|f| f.to_string()),
                                };
                                body.map(|b| (b, Counts::of(ev.stats())))
                                    .map_err(|e| e.to_string())
                            })?;
                            self.counts.add(counts);
                            body
                        }
                    };
                    tr.span("server.cache_put", item, |_| {
                        self.cache.put(key, body.clone())
                    });
                    (body, false)
                }
            };
            tr.span("server.encode", item, |_| {
                std::hint::black_box(Response::ok(item as u64, body.clone()).to_frame().len())
            });
            Ok((body, hit))
        })
    }
}
