//! Plan-driven evaluation of region-logic queries against a region extension.
//!
//! Every entry point first lowers the formula through [`crate::lower`] into
//! an interned [`lcdb_plan::Plan`] DAG (NNF, constant folding,
//! common-subplan sharing, region-quantifier hoisting), then executes the
//! plan. The executor implements the algorithms behind Theorems 4.3, 6.1
//! and 7.3 in two halves:
//!
//! * **Element-free nodes are evaluated set at a time.** The region sort is
//!   finite, so such a node denotes a subset of `Reg^k` for its `k` free
//!   region variables; the `tables` submodule computes that subset once, as
//!   a dense bit table over the variables' quantifier domains. Region
//!   quantifiers are column reductions, fixed points iterate stage tables
//!   over `P(Reg^k)` — a finite lattice, so iteration always terminates (the
//!   paper's central design point) — and `TC`/`DTC` close a bit matrix.
//! * **Nodes with free element variables are interpreted**, here, one
//!   binding at a time, to a quantifier-free FO+LIN formula over those
//!   variables (*closure*): element quantifiers are eliminated by
//!   Fourier–Motzkin with feasibility-pruned DNF conversion — or, where a
//!   membership in a point region says what they are, substituted —, with
//!   the relation symbols of the block's matrix left unexpanded for the
//!   elimination to read from the database's stored rows; region
//!   quantifiers expand into finite disjunctions/conjunctions, `rBIT`
//!   extracts the binary representation of a defined rational. Where the
//!   interpreter meets an element-free subplan it probes that subplan's
//!   table at the current binding.
//!
//! Because plan nodes are hash-consed, sharing is per [`PlanId`]: a shared
//! subplan has one table per choice of domains, and on the formula path one
//! memoized formula per region binding (a block matrix's connectives,
//! atoms and relation symbols excepted: the elimination consumes them).
//!
//! Every recursion path is *fallible*: internally the evaluator threads a
//! private `Stop` error channel so that an [`EvalBudget`] limit (deadline,
//! iteration cap, tuple-test cap, memory ceiling, cancellation) or a
//! malformed query unwinds cleanly to the entry point, where it is reported
//! as an [`EvalError`] carrying the partial [`EvalStats`]. Stage and
//! tuple-test caps are charged per stage, the memory ceiling before every
//! table allocation, the deadline and cancellation per table and per block
//! of rows. There is one fallible entry per answer shape —
//! [`Evaluator::try_eval_sentence`] (a verdict), [`Evaluator::try_eval_query`]
//! (a quantifier-free formula), [`Evaluator::try_eval_query_to_relation`] (a
//! relation) and [`Evaluator::try_eval_with_regions`] (a formula at a region
//! binding) — and a partial answer is one read together with
//! [`Evaluator::quarantine`]. `eval_sentence` and `eval_query` are the quick
//! path for examples and tests: they panic on any error.

mod tables;

use crate::error::EvalError;
use crate::lower;
use crate::regfo::{FixMode, RegFormula};
use crate::region::Decomposition;
use lcdb_arith::{Rational, Sign};
use lcdb_budget::work::{self as ledger, Tally, Work};
use lcdb_budget::{BudgetError, EvalBudget};
use lcdb_exec::Pool;
use lcdb_logic::dnf::{try_to_dnf_pruned, try_to_dnf_strong, Dnf};
use lcdb_logic::{qe, Formula, LinExpr, Rel, Var};
use lcdb_plan::hash::{FastMap, FastSet};
use lcdb_plan::memo::Bindings;
use lcdb_plan::table::Table;
use lcdb_plan::{Plan, PlanId, PlanNode};
use lcdb_recover::{FixKind, FixProgress, FixpointSnapshot, PersistedStats, Snapshot};
use lcdb_trace::TraceHandle;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;
use tables::{Cx, Dom, Env, PlanInfo, Subsets, TableState};

pub use crate::lower::query_fingerprint;

/// Counters describing the work an evaluation performed.
///
/// Reported both on success (via [`Evaluator::stats`]) and on budget aborts
/// (inside [`EvalError`]), so interrupted runs stay debuggable. The six
/// work counts (stages, tuple tests, QE calls, region expansions, TC edge
/// tests, quarantined units) are a view of the work ledger's `eval.*` slots
/// over the evaluator's entry calls, plus what a resumed snapshot carried.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixed-point iterations (applications of the stage operator).
    pub fix_iterations: usize,
    /// Tuples tested across all fixed-point stages.
    pub fix_tuple_tests: usize,
    /// Quantifier eliminations of element variables.
    pub qe_calls: usize,
    /// Region-quantifier expansions: the regions each evaluation of a
    /// region quantifier ranged over — once per table for element-free
    /// quantifiers, once per binding on the formula path.
    pub region_expansions: usize,
    /// Transitive-closure edge evaluations.
    pub tc_edge_tests: usize,
    /// Regions materialized by the decomposition under evaluation.
    pub regions: usize,
    /// Units (table operations, disjuncts, regions) quarantined by
    /// fault-tolerant evaluation ([`Evaluator::tolerate_faults`]).
    pub quarantined: usize,
    /// Interned plan nodes in the last compiled query.
    pub plan_nodes: usize,
    /// Requests for a plan node's result: a table, a cell of a lazily
    /// filled leaf, or a memoized formula.
    pub plan_cache_lookups: usize,
    /// Requests answered by reuse — work avoided by shared-subplan
    /// evaluation.
    pub plan_cache_hits: usize,
}

/// What fault-tolerant evaluation walled off: the units whose local faults
/// were absorbed so the rest of the query could complete. Read after an
/// entry call with [`Evaluator::quarantine`]; when it is not empty, the
/// answer that call returned is a sound evaluation of the query *minus* the
/// quarantined units — partial, not exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Region ids whose quantifier expansion was skipped (formula path).
    pub regions: BTreeSet<usize>,
    /// Disjuncts (of explicit `Or` nodes) dropped (formula path).
    pub disjuncts: usize,
    /// Table operations whose result was replaced by the empty table.
    pub tables: usize,
    /// The faults absorbed: injection-site names or query-defect messages.
    pub sites: BTreeSet<String>,
}

impl Quarantine {
    /// True when nothing was quarantined (the evaluation was complete).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.disjuncts == 0 && self.tables == 0
    }

    /// Total quarantined units.
    pub fn units(&self) -> usize {
        self.regions.len() + self.disjuncts + self.tables
    }
}

/// Which kind of unit a quarantined fault was confined to.
enum QuarantineUnit {
    Disjunct,
    Region(usize),
    Table,
}

/// Live progress of one fixpoint computation: the stage table after the
/// last completed stage, with what it takes to turn it back into tuples of
/// region ids — the in-memory twin of [`lcdb_recover::FixProgress`].
#[derive(Clone)]
struct FixLive {
    mode: FixMode,
    stage: u64,
    /// Index into the table's variables, per declared tuple component.
    order: Vec<usize>,
    /// The regions each declared component ranges over, by position.
    regions: Arc<Vec<Vec<u32>>>,
    table: Arc<Table>,
    /// Work this run spent on the loop's completed stages — what a run
    /// resumed from the stage will not redo. Zero for a loop nested in
    /// another fixed point's body, whose stages already count it.
    spent: Counts,
}

/// A stage installed by [`Evaluator::resume_from`], still as tuples of
/// region ids: the stage table's layout is only known once the query is
/// compiled.
#[derive(Clone)]
struct ResumeEntry {
    mode: FixMode,
    arity: usize,
    stage: u64,
    tuples: Vec<Vec<usize>>,
}

/// Key for checkpoint progress: a stable structural fingerprint of the
/// fixpoint operator plus the region ids bound to its outer dependencies.
/// Unlike plan ids, this survives across processes.
type ProgressKey = (u64, Vec<u64>);

/// The ledger slots of the work counters a snapshot carries, in
/// [`PersistedStats`] order: fixed-point stages, tuple tests, QE calls,
/// region expansions, TC edge tests, quarantined units.
const COUNTED: [Work; 6] = [
    Work::FixIterations,
    Work::FixTupleTests,
    Work::QeCalls,
    Work::RegionExpansions,
    Work::TcEdgeTests,
    Work::Quarantined,
];

/// One count per [`COUNTED`] slot.
type Counts = [usize; 6];

fn persisted(w: Counts, regions: u64) -> PersistedStats {
    PersistedStats {
        fix_iterations: w[0] as u64,
        fix_tuple_tests: w[1] as u64,
        qe_calls: w[2] as u64,
        region_expansions: w[3] as u64,
        tc_edge_tests: w[4] as u64,
        regions,
        quarantined: w[5] as u64,
    }
}

/// An entry-less checkpoint for aborts that happen before any evaluator
/// exists (typically during decomposition construction). Resuming from it
/// restarts the evaluation from the bottom; `regions` is recorded as 0,
/// which [`Evaluator::resume_from`] treats as "any decomposition".
pub(crate) fn empty_checkpoint(query: &RegFormula) -> Snapshot {
    Snapshot::Fixpoint(FixpointSnapshot {
        query_fingerprint: query_fingerprint(query),
        stats: persisted(Counts::default(), 0),
        entries: Vec::new(),
    })
}

fn fix_kind(mode: FixMode) -> FixKind {
    match mode {
        FixMode::Lfp => FixKind::Lfp,
        FixMode::Ifp => FixKind::Ifp,
        FixMode::Pfp => FixKind::Pfp,
    }
}

fn fix_mode(kind: FixKind) -> FixMode {
    match kind {
        FixKind::Lfp => FixMode::Lfp,
        FixKind::Ifp => FixMode::Ifp,
        FixKind::Pfp => FixMode::Pfp,
    }
}

/// Internal error channel of the recursion: either a budget ran out or the
/// query itself is defective. Converted to [`EvalError`] (with statistics
/// attached) at the public entry points.
enum Stop {
    Budget(BudgetError),
    Query(String),
}

impl From<BudgetError> for Stop {
    fn from(e: BudgetError) -> Self {
        Stop::Budget(e)
    }
}

/// Formula-memo key: plan node id plus the bindings of its free region
/// variables (in name order). Only set-variable-free nodes are memoized.
type NodeKey = lcdb_plan::memo::MemoKey;

/// Plan-driven executor for region-logic formulas over a fixed region
/// extension.
///
/// Every public entry point lowers its query through [`crate::lower`] into
/// an interned plan and executes that; tables and memoized formulas are
/// keyed by [`PlanId`] and cleared on every entry call, so results never
/// leak between queries.
///
/// Construct with [`Evaluator::new`] for unlimited evaluation or
/// [`Evaluator::with_budget`] to enforce resource limits, in which case the
/// `try_*` entry points report exhaustion as typed [`EvalError`]s.
pub struct Evaluator<'a> {
    ext: &'a dyn Decomposition,
    budget: EvalBudget,
    /// Dimension of each region.
    dim_of: Vec<u32>,
    /// The narrowed quantifier domains met so far.
    subsets: RefCell<Subsets>,
    /// The table executor's state for the current entry call.
    tabs: RefCell<TableState>,
    /// Operand size above which a table is built in slices; a field so the
    /// unit tests can reach the slicing path on small inputs.
    slice_bytes: Cell<usize>,
    /// Formula-valued memo for set-free composite nodes with free element
    /// variables: shared subplans evaluate once per region binding.
    formula_memo: RefCell<FastMap<NodeKey, Formula>>,
    positivity_checked: RefCell<FastSet<PlanId>>,
    /// The counters that are not the ledger's; the six work counts here
    /// stay zero.
    stats: RefCell<EvalStats>,
    /// The work counts of the entry calls that returned, from what a
    /// resumed snapshot carried on.
    counted: Cell<Counts>,
    /// The ledger at the start of the entry call in progress.
    window: Cell<Option<Tally>>,
    zero_dim_order: Vec<usize>,
    /// Fault-tolerant mode: quarantine localized faults instead of aborting.
    degrade: bool,
    /// What the current entry call has quarantined so far.
    quarantine: RefCell<Quarantine>,
    /// Checkpointable progress: per fixpoint operator (and outer bindings),
    /// the stage table after its last completed stage. Survives an abort so
    /// [`Evaluator::checkpoint`] can persist it.
    progress: RefCell<BTreeMap<ProgressKey, FixLive>>,
    /// Progress installed by [`Evaluator::resume_from`]: fixpoint loops seed
    /// their first stage from here instead of starting at the bottom.
    resume: RefCell<BTreeMap<ProgressKey, ResumeEntry>>,
    /// The work the installed snapshot's stages embody (its `stats`).
    carried: Cell<Counts>,
    /// Structured tracing sink and metrics registry; disabled by default.
    /// See [`Evaluator::with_trace`].
    trace: TraceHandle,
    /// Cached `trace.enabled()` so hot paths pay one branch when tracing is
    /// off instead of a virtual call.
    trace_on: bool,
    /// Per-plan-node profiling (visit counts, reuse, self time); off by
    /// default because it adds two clock reads per plan-node visit.
    profiling: Cell<bool>,
    /// Profile rows indexed by `PlanId`; sized for the plan at entry.
    prof: RefCell<Vec<ProfEntry>>,
    /// Nanoseconds already attributed to children of the node currently on
    /// the evaluation stack — subtracted from the node's wall time to get
    /// its self time, so self times telescope: they sum to the root total.
    prof_child_ns: Cell<u64>,
    /// Stats values already emitted as trace counter events. Counter events
    /// carry the *delta* since this snapshot and are emitted only at stage
    /// and entry boundaries, so event volume stays bounded while the event
    /// sums still reconcile exactly with [`EvalStats`].
    emitted: Cell<EvalStats>,
}

/// Per-plan-node profile counters; see [`Evaluator::plan_profile`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProfEntry {
    /// Times the executor asked for this node: its table, or its formula
    /// at one binding.
    pub visits: u64,
    /// Visits answered by a table or memoized formula that already existed.
    pub memo_hits: u64,
    /// Wall time inside this node including its children, in nanoseconds.
    pub total_ns: u64,
    /// Wall time net of children — the node's own work, in nanoseconds.
    /// Summed over all profiled nodes this equals the root's `total_ns`.
    pub self_ns: u64,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over a region extension with no resource limits.
    pub fn new(ext: &'a dyn Decomposition) -> Self {
        Self::with_budget(ext, EvalBudget::unlimited())
    }

    /// Create an evaluator whose work is governed by `budget`. Use the
    /// `try_*` entry points to observe limit exhaustion as [`EvalError`]s;
    /// the quick-path `eval_sentence`/`eval_query` panic when it runs out.
    pub fn with_budget(ext: &'a dyn Decomposition, budget: EvalBudget) -> Self {
        let dim_of: Vec<u32> = ext.region_ids().map(|r| ext.region(r).dim as u32).collect();
        // Order the 0-dimensional regions lexicographically by the point they
        // contain (they are singletons); this is the total order the rBIT
        // operator and the capture construction rely on (§5, §6).
        let mut zero_dim: Vec<usize> = (0..dim_of.len()).filter(|&r| dim_of[r] == 0).collect();
        zero_dim.sort_by(|&a, &b| ext.region(a).witness.cmp(&ext.region(b).witness));
        Evaluator {
            ext,
            budget,
            dim_of,
            subsets: RefCell::new(Subsets::default()),
            tabs: RefCell::new(TableState::default()),
            slice_bytes: Cell::new(tables::SLICE_BYTES),
            formula_memo: RefCell::new(FastMap::default()),
            positivity_checked: RefCell::new(FastSet::default()),
            stats: RefCell::new(EvalStats {
                regions: ext.num_regions(),
                ..EvalStats::default()
            }),
            counted: Cell::new(Counts::default()),
            window: Cell::new(None),
            zero_dim_order: zero_dim,
            degrade: false,
            quarantine: RefCell::new(Quarantine::default()),
            progress: RefCell::new(BTreeMap::new()),
            resume: RefCell::new(BTreeMap::new()),
            carried: Cell::new(Counts::default()),
            trace: TraceHandle::disabled(),
            trace_on: false,
            profiling: Cell::new(false),
            prof: RefCell::new(Vec::new()),
            prof_child_ns: Cell::new(0),
            emitted: Cell::new(EvalStats::default()),
        }
    }

    /// Attach a tracing/metrics handle. Spans and counter events are emitted
    /// through `trace`'s sink, and the registry is fed even when the sink
    /// itself is a [`lcdb_trace::NullTracer`]. With tracing disabled the hot
    /// paths pay a single cached boolean test.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace_on = trace.enabled();
        self.trace = trace;
        self
    }

    /// The tracing/metrics handle this evaluator reports through (the
    /// disabled default unless [`Evaluator::with_trace`] installed one).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Enable per-plan-node profiling: every [`PlanId`] accumulates visit
    /// count, reuse, and self/total wall time, retrievable after an entry
    /// call via [`Evaluator::plan_profile`]. Adds two monotonic-clock reads
    /// per plan-node visit, so it is off by default.
    pub fn with_profiling(self) -> Self {
        self.profiling.set(true);
        self
    }

    /// The per-plan-node profile accumulated by the last entry call, as
    /// `(plan id, counters)` rows for every node that was visited. Node ids
    /// match the `#id` labels of [`crate::lower::explain_query`] for the
    /// same query. Empty unless [`Evaluator::with_profiling`] was set.
    ///
    /// Self times telescope: the sum of `self_ns` over all rows equals the
    /// root node's `total_ns`.
    pub fn plan_profile(&self) -> Vec<(PlanId, ProfEntry)> {
        self.prof
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.visits > 0)
            .map(|(i, e)| (i as PlanId, *e))
            .collect()
    }

    /// Returns `self`: an evaluator runs on the thread that calls it, and
    /// `_pool` is ignored (name pinned by `benchmark/`).
    pub fn with_pool(self, _pool: Pool) -> Self {
        self
    }

    /// Enable graceful degradation: a fault confined to one table operation
    /// (one plan node over its domains), or on the formula path to one
    /// disjunct or one region of a quantifier expansion — an injected fault
    /// or a localized query defect — quarantines that unit (recorded in
    /// [`EvalStats::quarantined`] and [`Evaluator::quarantine`]) instead
    /// of aborting the whole evaluation. Global resource exhaustion
    /// (deadline, caps, cancellation) still aborts.
    pub fn tolerate_faults(mut self) -> Self {
        self.degrade = true;
        self
    }

    /// Per-entry setup shared by the plan-executing entry points: everything
    /// keyed by plan id belongs to one plan, so it is cleared; the plan's
    /// region variables are resolved to slots; and (when profiling) the
    /// profile table is sized for this plan's node ids.
    fn begin_entry(&self, plan: &Plan) -> PlanInfo {
        *self.tabs.borrow_mut() = TableState::for_plan(plan);
        self.formula_memo.borrow_mut().clear();
        self.positivity_checked.borrow_mut().clear();
        // Per-entry recovery state: the quarantine and checkpointable
        // progress belong to one entry call. The *resume* map is kept — it
        // was installed for the query about to run.
        *self.quarantine.borrow_mut() = Quarantine::default();
        self.progress.borrow_mut().clear();
        self.stats.borrow_mut().plan_nodes = plan.len();
        if self.profiling.get() {
            let mut prof = self.prof.borrow_mut();
            prof.clear();
            prof.resize(plan.len(), ProfEntry::default());
            self.prof_child_ns.set(0);
        }
        PlanInfo::new(plan)
    }

    /// The accumulated work counters.
    ///
    /// Invariant: every reuse was preceded by a request, so
    /// `plan_cache_lookups >= plan_cache_hits` always. Checked here (and
    /// repaired in release builds, where a violation would mean a
    /// lost-update bug upstream rather than a reason to panic).
    pub fn stats(&self) -> EvalStats {
        let (mut s, c) = (*self.stats.borrow(), self.counts());
        (s.fix_iterations, s.fix_tuple_tests, s.qe_calls) = (c[0], c[1], c[2]);
        (s.region_expansions, s.tc_edge_tests, s.quarantined) = (c[3], c[4], c[5]);
        debug_assert!(
            s.plan_cache_lookups >= s.plan_cache_hits,
            "plan-memo hits ({}) exceed lookups ({})",
            s.plan_cache_hits,
            s.plan_cache_lookups
        );
        if s.plan_cache_hits > s.plan_cache_lookups {
            s.plan_cache_lookups = s.plan_cache_hits;
        }
        s
    }

    /// The work counts so far, the entry call in progress included.
    fn counts(&self) -> Counts {
        let mut counts = self.counted.get();
        if let Some(open) = self.window.get() {
            let spent = open.since();
            for (n, w) in counts.iter_mut().zip(COUNTED) {
                *n += spent[w] as usize;
            }
        }
        counts
    }

    /// Flush the stats accumulated since the last flush into the metrics
    /// registry, and — when tracing is enabled — emit matching counter
    /// events. Called at stage and entry boundaries so the event stream
    /// stays sparse; over a whole evaluation the per-name sums equal the
    /// corresponding [`EvalStats`] fields exactly.
    fn flush_trace_counters(&self) {
        let now = self.stats();
        let prev = self.emitted.get();
        let emit = |name: &str, cur: usize, old: usize| {
            if cur > old {
                self.trace.count(name, (cur - old) as u64);
            }
        };
        emit("stats.fix_iterations", now.fix_iterations, prev.fix_iterations);
        emit("stats.fix_tuple_tests", now.fix_tuple_tests, prev.fix_tuple_tests);
        emit("stats.qe_calls", now.qe_calls, prev.qe_calls);
        emit(
            "stats.region_expansions",
            now.region_expansions,
            prev.region_expansions,
        );
        emit("stats.tc_edge_tests", now.tc_edge_tests, prev.tc_edge_tests);
        emit("stats.regions", now.regions, prev.regions);
        emit("stats.quarantined", now.quarantined, prev.quarantined);
        emit(
            "stats.plan_cache_lookups",
            now.plan_cache_lookups,
            prev.plan_cache_lookups,
        );
        emit(
            "stats.plan_cache_hits",
            now.plan_cache_hits,
            prev.plan_cache_hits,
        );
        self.emitted.set(now);
    }

    /// The region extension under evaluation.
    pub fn extension(&self) -> &dyn Decomposition {
        self.ext
    }

    /// The lexicographic order on 0-dimensional regions (region ids, rank
    /// `1..=n` in the paper's numbering).
    pub fn zero_dim_order(&self) -> &[usize] {
        &self.zero_dim_order
    }

    /// Convert the internal error channel to the public error type,
    /// attaching the statistics accumulated so far.
    fn stop_error(&self, stop: Stop) -> EvalError {
        let stats = self.stats();
        match stop {
            Stop::Budget(e) => EvalError::from_budget(e, stats),
            Stop::Query(message) => EvalError::InvalidQuery { message, stats },
        }
    }

    fn query_error(&self, message: impl Into<String>) -> EvalError {
        EvalError::InvalidQuery {
            message: message.into(),
            stats: self.stats(),
        }
    }

    /// Charge one fixed-point stage to the budget. A stage sweeps the whole
    /// tuple space, so its charge also reads the clock.
    fn note_fix_stage(&self) -> Result<(), Stop> {
        // Fault-injection site: a stage transition failing outright.
        #[cfg(feature = "faults")]
        lcdb_budget::faults::check("core.fix_stage")?;
        Ok(ledger::charge(Work::FixIterations, 1)?)
    }

    /// Charge the tuple tests of one fixed-point stage; TC edge tests share
    /// the same cap.
    fn note_fix_tuple_tests(&self, tests: usize) -> Result<(), Stop> {
        Ok(ledger::charge(Work::FixTupleTests, tests as u64)?)
    }

    /// Charge the edge tests of one closure toward the shared tuple-test cap.
    fn note_tc_edge_tests(&self, tests: usize) -> Result<(), Stop> {
        Ok(ledger::charge(Work::TcEdgeTests, tests as u64)?)
    }

    /// Charge the regions one evaluation of a region quantifier ranges over
    /// (metered, not capped).
    fn note_region_expansions(&self, regions: usize) -> Result<(), Stop> {
        Ok(ledger::charge(Work::RegionExpansions, regions as u64)?)
    }

    /// Is this failure confined enough to quarantine? Injected faults and
    /// query defects are local to the unit that tripped them; resource
    /// exhaustion (deadline, caps, cancellation) is global and must abort.
    fn quarantinable(stop: &Stop) -> bool {
        matches!(
            stop,
            Stop::Budget(BudgetError::InjectedFault { .. }) | Stop::Query(_)
        )
    }

    /// In degraded mode, absorb a localized fault: record the unit and the
    /// fault, and let the caller continue without its contribution. Anything
    /// not quarantinable (or with degradation off) propagates unchanged.
    fn absorb(&self, stop: Stop, unit: QuarantineUnit) -> Result<(), Stop> {
        if !self.degrade || !Self::quarantinable(&stop) {
            return Err(stop);
        }
        let site = match &stop {
            Stop::Budget(BudgetError::InjectedFault { site }) => site.clone(),
            Stop::Query(message) => message.clone(),
            // `quarantinable` returned true, so no other variant reaches
            // here; absorbing nothing extra is still sound if one did.
            Stop::Budget(_) => String::new(),
        };
        let mut q = self.quarantine.borrow_mut();
        let (unit_label, metric) = match unit {
            QuarantineUnit::Disjunct => {
                q.disjuncts += 1;
                ("disjunct".to_string(), "quarantine.disjuncts")
            }
            QuarantineUnit::Region(id) => {
                q.regions.insert(id);
                (format!("region={id}"), "quarantine.regions")
            }
            QuarantineUnit::Table => {
                q.tables += 1;
                ("table".to_string(), "quarantine.tables")
            }
        };
        if !site.is_empty() {
            q.sites.insert(site.clone());
        }
        drop(q);
        ledger::add(Work::Quarantined, 1);
        // Quarantine visibility: every absorbed unit counts in the metrics
        // registry (for `--metrics` even without a sink) and, when tracing
        // is on, emits one event naming the unit and the fault site.
        self.trace.metrics().add(metric, 1);
        if self.trace_on {
            self.trace
                .mark("quarantine", &format!("{unit_label} site={site}"));
        }
        Ok(())
    }

    /// What this evaluation quarantined so far (empty unless
    /// [`Evaluator::tolerate_faults`] absorbed something).
    pub fn quarantine(&self) -> Quarantine {
        self.quarantine.borrow().clone()
    }

    /// Snapshot the checkpointable state accumulated by the last entry call
    /// — typically called after a `try_*` method returned a budget error, to
    /// persist the completed fixpoint stages for [`Evaluator::resume_from`].
    ///
    /// `query` must be the formula the entry call evaluated; its fingerprint
    /// binds the snapshot to the query.
    ///
    /// The snapshot's counters are the work its stages *embody* — what was
    /// spent computing them, not what the aborted stage burnt after the last
    /// one completed — so a resumed run, which redoes everything but those
    /// stages, ends on the counters of an uninterrupted run (exactly when
    /// the abort fell inside an outermost fixed point, one confirming stage
    /// over when it fell after a fixed point had already converged).
    pub fn checkpoint(&self, query: &RegFormula) -> Snapshot {
        let progress = self.progress.borrow();
        let _span = self
            .trace
            .span_with("eval.checkpoint", &format!("entries={}", progress.len()));
        let mut embodied = self.carried.get();
        for live in progress.values() {
            for (total, spent) in embodied.iter_mut().zip(live.spent) {
                *total += spent;
            }
        }
        // The stage tables become the snapshot's sorted tuples of region
        // ids here, at the boundary: the format knows nothing of tables.
        let reached = progress.iter().map(|((fp, bindings), live)| FixProgress {
            fingerprint: *fp,
            bindings: bindings.clone(),
            mode: fix_kind(live.mode),
            stage: live.stage,
            arity: live.order.len() as u32,
            tuples: Self::stage_tuples(live),
        });
        // Stages installed by `resume_from` that this run did not get past
        // are still the best known: a second abort must not lose them.
        let resume = self.resume.borrow();
        let kept = resume
            .iter()
            .filter(|(key, _)| !progress.contains_key(*key))
            .map(|((fp, bindings), saved)| FixProgress {
                fingerprint: *fp,
                bindings: bindings.clone(),
                mode: fix_kind(saved.mode),
                stage: saved.stage,
                arity: saved.arity as u32,
                tuples: saved
                    .tuples
                    .iter()
                    .map(|t| t.iter().map(|&r| r as u64).collect())
                    .collect(),
            });
        let mut entries: Vec<FixProgress> = reached.chain(kept).collect();
        entries.sort_by(|a, b| (a.fingerprint, &a.bindings).cmp(&(b.fingerprint, &b.bindings)));
        Snapshot::Fixpoint(FixpointSnapshot {
            query_fingerprint: query_fingerprint(query),
            stats: persisted(embodied, self.ext.num_regions() as u64),
            entries,
        })
    }

    /// Install a snapshot taken by [`Evaluator::checkpoint`] so the next
    /// entry call restarts every recorded fixpoint from its last completed
    /// stage, with the snapshot's work counters carried over.
    ///
    /// The snapshot must match this evaluation: same query (by canonical
    /// plan-hash fingerprint) and a decomposition with the same number of
    /// regions — region ids are only meaningful relative to the
    /// decomposition they came from. Resume with a *fresh or larger*
    /// budget: the carried-over counters count against the new budget's
    /// caps, so re-running under the budget that aborted the original run
    /// trips immediately.
    pub fn resume_from(&self, query: &RegFormula, snapshot: &Snapshot) -> Result<(), EvalError> {
        let _span = self.trace.span("eval.resume");
        let Snapshot::Fixpoint(snap) = snapshot else {
            return Err(self.query_error(
                "cannot resume a region-logic evaluation from a datalog snapshot",
            ));
        };
        let fp = query_fingerprint(query);
        if snap.query_fingerprint != fp {
            return Err(self.query_error(format!(
                "snapshot was taken for a different query (fingerprint {:016x}, expected {:016x})",
                snap.query_fingerprint, fp
            )));
        }
        let here = self.ext.num_regions() as u64;
        if snap.stats.regions != 0 && snap.stats.regions != here {
            return Err(self.query_error(format!(
                "snapshot decomposition had {} regions, this one has {}",
                snap.stats.regions, here
            )));
        }
        let mut resume = self.resume.borrow_mut();
        resume.clear();
        for e in &snap.entries {
            let to_id = |r: u64| -> Result<usize, EvalError> {
                match usize::try_from(r) {
                    Ok(id) if (id as u64) < here => Ok(id),
                    _ => Err(self.query_error(format!(
                        "snapshot references region id {r} outside this decomposition"
                    ))),
                }
            };
            let mut tuples = Vec::with_capacity(e.tuples.len());
            for t in &e.tuples {
                if t.len() != e.arity as usize {
                    return Err(self.query_error(format!(
                        "snapshot holds a {}-tuple in a fixed point of arity {}",
                        t.len(),
                        e.arity
                    )));
                }
                tuples.push(t.iter().map(|&r| to_id(r)).collect::<Result<Vec<_>, _>>()?);
            }
            for &b in &e.bindings {
                to_id(b)?;
            }
            resume.insert(
                (e.fingerprint, e.bindings.clone()),
                ResumeEntry {
                    mode: fix_mode(e.mode),
                    arity: e.arity as usize,
                    stage: e.stage,
                    tuples,
                },
            );
        }
        drop(resume);
        // Carry the prior run's work over; `regions` stays this extension's.
        let st = &snap.stats;
        let carried: Counts = [
            st.fix_iterations, st.fix_tuple_tests, st.qe_calls,
            st.region_expansions, st.tc_edge_tests, st.quarantined,
        ]
        .map(|n| n as usize);
        self.counted.set(carried);
        self.carried.set(carried);
        Ok(())
    }

    /// Evaluate a sentence (no free variables of any sort) to a boolean.
    ///
    /// # Panics
    /// Panics if the formula has free variables, or — when constructed via
    /// [`Evaluator::with_budget`] — if the budget is exhausted. Prefer
    /// [`Evaluator::try_eval_sentence`] for budgeted evaluation.
    pub fn eval_sentence(&self, f: &RegFormula) -> bool {
        self.try_eval_sentence(f).unwrap_or_else(|e| panic!("{}", e))
    }

    /// Evaluate a sentence to a boolean, reporting budget exhaustion and
    /// query defects as typed errors. Under [`Evaluator::tolerate_faults`]
    /// the verdict is partial exactly when [`Evaluator::quarantine`] is not
    /// empty afterwards.
    pub fn try_eval_sentence(&self, f: &RegFormula) -> Result<bool, EvalError> {
        let (plan, root) = lower::compile(f);
        self.check_free(plan.facts(root), "sentence", true, true)?;
        let out = self.metered(|| self.run_entry(&plan, root, "eval.sentence", &[]))?;
        Ok(truth(&out))
    }

    /// The entry check, read off the compiled root: `what` may have no free
    /// set variable, nor — where the flags ask — a free element or region
    /// variable. A variable that constant folding removed is not free: no
    /// value depends on it.
    fn check_free(
        &self,
        facts: &lcdb_plan::NodeFacts,
        what: &str,
        elements: bool,
        regions: bool,
    ) -> Result<(), EvalError> {
        let sort = if elements && !facts.elem_free() {
            "element"
        } else if regions && !facts.free_regions.is_empty() {
            "region"
        } else if !facts.set_free() {
            "set"
        } else {
            return Ok(());
        };
        Err(self.query_error(format!("{what} has free {sort} variables")))
    }

    /// Run a compiled query under the given region bindings and flush the
    /// trace counters: the body of every entry point.
    fn run_entry(
        &self,
        plan: &Plan,
        root: PlanId,
        span: &str,
        bindings: &[(&str, usize)],
    ) -> Result<Formula, EvalError> {
        let info = self.begin_entry(plan);
        let _span = self
            .trace
            .span_with(span, &format!("plan_nodes={}", plan.len()));
        let cx = Cx { plan, info: &info };
        let mut env = Env::new(&info);
        for &(name, id) in bindings {
            if id >= self.ext.num_regions() {
                return Err(self.query_error(format!("no region with id {id}")));
            }
            if let Some(&slot) = info.slots.get(name) {
                env.dom[slot as usize] = Dom::One(id as u32);
                env.val[slot as usize] = id as u32;
            }
        }
        if let Some(v) = plan
            .facts(root)
            .free_regions
            .iter()
            .find(|v| !bindings.iter().any(|(name, _)| name == v))
        {
            return Err(self.query_error(format!("unbound region variable '{}'", v)));
        }
        let out = self.eval_node(cx, root, &mut env);
        self.flush_trace_counters();
        out.map_err(|s| self.stop_error(s))
    }

    /// Run one entry point with the thread's work ledger armed with the
    /// budget — the stages and tuple tests already counted, a resumed
    /// snapshot's included, charged against its caps — count its work and,
    /// with tracing on, add its LP and DNF work (a query's closing
    /// conversion included) to the registry.
    fn metered<T>(&self, entry: impl FnOnce() -> Result<T, EvalError>) -> Result<T, EvalError> {
        let counts = self.counts();
        let capped = [counts[0], counts[1].saturating_add(counts[4])].map(|n| n as u64);
        let _armed = ledger::arm(&self.budget, capped);
        let before = ledger::snapshot();
        self.window.set(Some(before));
        let out = entry();
        self.counted.set(self.counts());
        self.window.set(None);
        if self.trace_on {
            let spent = before.since();
            for w in Work::ALL {
                if w.name().starts_with("lp.") || w.name().starts_with("logic.") {
                    self.trace.metrics().add(w.name(), spent[w]);
                }
            }
        }
        out
    }

    /// Evaluate a query with free *element* variables to a quantifier-free
    /// FO+LIN formula over those variables (the closure property of §2: the
    /// answer is again a finitely representable relation).
    ///
    /// # Panics
    /// Panics if the formula has free region or set variables, or if a
    /// budget installed via [`Evaluator::with_budget`] is exhausted. Prefer
    /// [`Evaluator::try_eval_query`] for budgeted evaluation.
    pub fn eval_query(&self, f: &RegFormula) -> Formula {
        self.try_eval_query(f).unwrap_or_else(|e| panic!("{}", e))
    }

    /// Evaluate an open query to a quantifier-free formula, reporting budget
    /// exhaustion and query defects as typed errors; partial answers as for
    /// [`Evaluator::try_eval_sentence`].
    pub fn try_eval_query(&self, f: &RegFormula) -> Result<Formula, EvalError> {
        let (plan, root) = lower::compile(f);
        self.query_answer(&plan, root)
    }

    fn query_answer(&self, plan: &Plan, root: PlanId) -> Result<Formula, EvalError> {
        self.check_free(plan.facts(root), "query", false, true)?;
        self.metered(|| {
            let out = self.run_entry(plan, root, "eval.query", &[])?;
            // An answer that came out of an elimination is DNF-shaped
            // already: the conversion is then one decision per disjunct, no
            // distribution.
            let dnf = try_to_dnf_strong(&out).map_err(|e| self.stop_error(e.into()))?;
            Ok(dnf.to_formula())
        })
    }

    /// Evaluate an open query and package the answer as a
    /// [`lcdb_logic::Relation`] over the given variable order — the query's
    /// result as a first-class database object (closure, §2). An error if
    /// `var_order` omits a free element variable of the query (a column it
    /// names beyond those is unconstrained).
    pub fn try_eval_query_to_relation(
        &self,
        f: &RegFormula,
        var_order: &[Var],
    ) -> Result<lcdb_logic::Relation, EvalError> {
        let (plan, root) = lower::compile(f);
        if !plan.facts(root).free_elems.iter().all(|x| var_order.contains(x)) {
            return Err(self.query_error(
                "variable order must match the query's free element variables",
            ));
        }
        let qf = self.query_answer(&plan, root)?;
        Ok(lcdb_logic::Relation::new(var_order.to_vec(), qf))
    }

    /// Evaluate with explicit region variable bindings (for tests and for
    /// region-valued sub-queries); every free region variable must be bound.
    pub fn try_eval_with_regions(
        &self,
        f: &RegFormula,
        bindings: &[(&str, usize)],
    ) -> Result<Formula, EvalError> {
        let (plan, root) = lower::compile(f);
        self.check_free(plan.facts(root), "query", false, false)?;
        self.metered(|| self.run_entry(&plan, root, "eval.with_regions", bindings))
    }

    /// Time one visit of a plan node for the profile, crediting children's
    /// wall time to them. `prof_child_ns` holds the time of already-profiled
    /// children of the node currently on the stack; each visit zeroes it for
    /// its own children and adds its total back for its parent, so self
    /// times telescope (Σ self = root total).
    fn profiled<T>(&self, id: PlanId, visit: impl FnOnce() -> T) -> T {
        if !self.profiling.get() {
            return visit();
        }
        let saved_child = self.prof_child_ns.replace(0);
        let start = Instant::now();
        let result = visit();
        let total = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let self_ns = total.saturating_sub(self.prof_child_ns.get());
        if let Some(e) = self.prof.borrow_mut().get_mut(id as usize) {
            e.visits += 1;
            e.total_ns = e.total_ns.saturating_add(total);
            e.self_ns = e.self_ns.saturating_add(self_ns);
        }
        self.prof_child_ns.set(saved_child.saturating_add(total));
        result
    }

    /// Note a reuse for the profile table (cheap: profiling only).
    fn note_memo_hit(&self, id: PlanId) {
        if self.profiling.get() {
            if let Some(e) = self.prof.borrow_mut().get_mut(id as usize) {
                e.memo_hits += 1;
            }
        }
    }

    /// The formula interpreter: a quantifier-free formula over the free
    /// element variables of node `id` at the region binding in `env`
    /// (`True`/`False` when there are none).
    ///
    /// An element-free node is not interpreted: its table (or, for an
    /// element-closed leaf, the leaf's cell) is probed at the binding.
    /// Set-free composite nodes with free element variables are memoized by
    /// `(PlanId, free-region bindings)`, which is what makes hash-consed
    /// shared subplans evaluate once per binding. Degraded mode
    /// disables the formula memo: quarantine accounting is order-dependent,
    /// and a memoized partial answer would replay one order's quarantine
    /// into another.
    fn eval_node(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Formula, Stop> {
        let facts = cx.plan.facts(id);
        if facts.elem_free() {
            // `table` profiles and meters its own visits.
            return self.probe(cx, id, env).map(bool_formula);
        }
        self.profiled(id, || {
            ledger::charge(Work::NodeVisits, 1)?;
            if self.degrade || !facts.set_free() {
                return self.eval_node_uncached(cx, id, env, false);
            }
            let key: NodeKey = (
                id,
                cx.free(id)
                    .iter()
                    .map(|&v| env.val[v as usize] as usize)
                    .collect::<Bindings>(),
            );
            {
                let mut st = self.stats.borrow_mut();
                st.plan_cache_lookups += 1;
                if let Some(cached) = self.formula_memo.borrow().get(&key) {
                    st.plan_cache_hits += 1;
                    drop(st);
                    self.note_memo_hit(id);
                    return Ok(cached.clone());
                }
            }
            let out = self.eval_node_uncached(cx, id, env, false)?;
            self.formula_memo.borrow_mut().insert(key, out.clone());
            Ok(out)
        })
    }

    /// The matrix of a quantifier block whose variables are all eliminated:
    /// its `And`/`Or`/`Not`/`Lin`/`Pred` spine, with each relation symbol
    /// of a non-constant relation left as `Formula::Pred` for the
    /// elimination to read from the database's rows. The elimination
    /// consumes the spine at once, so its nodes skip the formula memo; they
    /// are still charged and profiled. Any other node is `eval_node`'s.
    fn eval_matrix(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Formula, Stop> {
        let spine = matches!(
            cx.plan.node(id),
            PlanNode::And(_)
                | PlanNode::Or(_)
                | PlanNode::Not(_)
                | PlanNode::Lin(_)
                | PlanNode::Pred(..)
        );
        if !spine || cx.plan.facts(id).elem_free() {
            return self.eval_node(cx, id, env);
        }
        self.profiled(id, || {
            ledger::charge(Work::NodeVisits, 1)?;
            self.eval_node_uncached(cx, id, env, true)
        })
    }

    /// One step of the formula interpreter, of a block's `matrix` spine
    /// ([`Evaluator::eval_matrix`]) or not. Also the way an element-closed
    /// leaf computes a cell: its node is interpreted at the cell's binding.
    fn eval_node_uncached(
        &self,
        cx: Cx,
        id: PlanId,
        env: &mut Env,
        matrix: bool,
    ) -> Result<Formula, Stop> {
        let child = |sub: PlanId, env: &mut Env| match matrix {
            true => self.eval_matrix(cx, sub, env),
            false => self.eval_node(cx, sub, env),
        };
        Ok(match cx.plan.node(id) {
            PlanNode::Lin(a) => match a.constant_truth() {
                Some(true) => Formula::True,
                Some(false) => Formula::False,
                None => Formula::Atom(a.clone()),
            },
            PlanNode::Pred(name, args) => {
                let rel = self
                    .ext
                    .database()
                    .relation(name)
                    .ok_or_else(|| Stop::Query(format!("unknown relation '{}'", name)))?;
                match rel.constant_truth() {
                    None if matrix => Formula::Pred(name.clone(), args.clone()),
                    _ => rel.apply(args),
                }
            }
            PlanNode::In(args, _) => {
                let rid = env.val[cx.args(id)[0] as usize] as usize;
                let d = self.ext.ambient_dim();
                if args.len() != d {
                    return Err(Stop::Query(format!(
                        "∈ arity mismatch: {} coordinates for dimension {}",
                        args.len(),
                        d
                    )));
                }
                // Any distinct names do: the substitution is simultaneous,
                // so an argument that mentions one of them is left alone.
                let axes: Vec<String> = (0..d).map(|i| format!("x{i}")).collect();
                let subst: Vec<(&str, &LinExpr)> =
                    axes.iter().map(String::as_str).zip(args).collect();
                self.ext.region_formula(rid, &axes).substitute_all(&subst)
            }
            PlanNode::And(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                for &sub in fs {
                    match child(sub, env)? {
                        Formula::False => return Ok(Formula::False),
                        Formula::True => {}
                        other => parts.push(other),
                    }
                }
                Formula::and(parts)
            }
            PlanNode::Or(fs) => {
                let mut parts = Vec::with_capacity(fs.len());
                for &sub in fs {
                    match child(sub, env) {
                        Ok(Formula::True) => return Ok(Formula::True),
                        Ok(Formula::False) => {}
                        Ok(other) => parts.push(other),
                        // Degraded mode: a fault confined to one disjunct
                        // drops that disjunct (sound for the rest: the
                        // partial answer under-approximates the union).
                        Err(stop) => self.absorb(stop, QuarantineUnit::Disjunct)?,
                    }
                }
                Formula::or(parts)
            }
            PlanNode::Not(inner) => Formula::not(child(*inner, env)?),
            PlanNode::ExistsElem(..) | PlanNode::ForallElem(..) => {
                let (vars, existential, body) = lcdb_plan::exec::quantifier_block(cx.plan, id);
                let (sub, vars) = self.block_body(cx, body, vars, existential, env)?;
                ledger::add(Work::QeCalls, vars.len() as u64);
                if vars.is_empty() {
                    sub
                } else {
                    self.timed_qe(&sub, &vars, existential)?
                }
            }
            PlanNode::ExistsRegion(_, inner) | PlanNode::ForallRegion(_, inner) => {
                let existential = matches!(cx.plan.node(id), PlanNode::ExistsRegion(..));
                self.eval_region_quantifier(cx, id, *inner, env, existential)?
            }
            PlanNode::Rbit { var, body, .. } => {
                bool_formula(self.eval_rbit(cx, id, var, *body, env)?)
            }
            // Everything else is element-free and not element-closed, so
            // `eval_node` answered it from its table.
            other => {
                return Err(Stop::Query(format!(
                    "internal: table-evaluated node reached the formula interpreter: {other:?}"
                )))
            }
        })
    }

    /// Eliminate one block of like quantifiers (`vars` innermost first)
    /// under the budget, feeding its latency into the `qe.eliminate_us`
    /// histogram when tracing is enabled (QE calls are frequent, so they are
    /// histogram samples rather than spans).
    fn timed_qe(&self, sub: &Formula, vars: &[&str], existential: bool) -> Result<Formula, Stop> {
        let start = self.trace_on.then(Instant::now);
        let db = self.ext.database();
        let out = qe::try_eliminate_block(sub, db, vars, existential).map_err(Stop::from);
        if let Some(start) = start {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.trace.metrics().observe("qe.eliminate_us", us);
        }
        out
    }

    /// The body of a block of like element quantifiers over `vars` at the
    /// binding in `env`, and the variables still to be eliminated from it.
    ///
    /// A conjunct `x̄ ∈ P` of an `∃` block (a disjunct `x̄ ∉ P` of a `∀`
    /// block) in distinct block variables, with `P` bound to a region of
    /// dimension 0, says what `x̄` is — the region's one point, which the
    /// decomposition holds as its witness — so those variables are
    /// substituted in the other operands, not eliminated: the order
    /// formulas of §6 quantify over points only and eliminate nothing.
    /// Decided per binding: the same node eliminates where `P` is an
    /// interval.
    fn block_body<'p>(
        &self,
        cx: Cx<'p>,
        body: PlanId,
        mut vars: Vec<&'p str>,
        existential: bool,
        env: &mut Env,
    ) -> Result<(Formula, Vec<&'p str>), Stop> {
        let parts = match (cx.plan.node(body), existential) {
            (PlanNode::And(parts), true) | (PlanNode::Or(parts), false) => &parts[..],
            _ => std::slice::from_ref(&body),
        };
        let mut point: Vec<(&str, LinExpr)> = Vec::new();
        let mut rest: Vec<PlanId> = Vec::with_capacity(parts.len());
        for &p in parts {
            let member = match (cx.plan.node(p), existential) {
                (PlanNode::In(..), true) => Some(p),
                (PlanNode::Not(inner), false) => Some(*inner),
                _ => None,
            };
            match member.and_then(|m| self.point_membership(cx, m, &vars, &point, env)) {
                Some(coordinates) => point.extend(coordinates),
                None => rest.push(p),
            }
        }
        if point.is_empty() {
            return Ok((self.eval_matrix(cx, body, env)?, vars));
        }
        let mut operands = Vec::with_capacity(rest.len());
        for p in rest {
            operands.push(at_point(&self.eval_node(cx, p, env)?, &point));
        }
        vars.retain(|x| point.iter().all(|(y, _)| x != y));
        Ok(if existential {
            (Formula::and(operands), vars)
        } else {
            (Formula::or(operands), vars)
        })
    }

    /// If node `m` is `x̄ ∈ P` with `x̄` distinct variables of `vars` that
    /// `point` does not place yet and `P` bound to a 0-dimensional region:
    /// the variables with that region's coordinates.
    fn point_membership<'p>(
        &self,
        cx: Cx<'p>,
        m: PlanId,
        vars: &[&'p str],
        point: &[(&'p str, LinExpr)],
        env: &Env,
    ) -> Option<Vec<(&'p str, LinExpr)>> {
        let PlanNode::In(args, _) = cx.plan.node(m) else {
            return None;
        };
        let region = env.val[cx.args(m)[0] as usize] as usize;
        let at = &self.ext.region(region).witness;
        if self.dim_of[region] != 0 || args.len() != at.len() {
            return None;
        }
        let mut out: Vec<(&str, LinExpr)> = Vec::with_capacity(args.len());
        for (arg, c) in args.iter().zip(at) {
            let x = arg.as_var()?;
            let x = *vars.iter().find(|v| *v == x)?;
            if point.iter().chain(&out).any(|(y, _)| *y == x) {
                return None;
            }
            out.push((x, LinExpr::constant(c.clone())));
        }
        Some(out)
    }

    /// Expand a region quantifier whose body has free element variables
    /// over its domain: disjunction for ∃R, conjunction for ∀R (Theorem
    /// 4.3's expansion).
    fn eval_region_quantifier(
        &self,
        cx: Cx,
        id: PlanId,
        inner: PlanId,
        env: &mut Env,
        existential: bool,
    ) -> Result<Formula, Stop> {
        let var = cx.args(id)[0];
        let slot = var as usize;
        let dom = self.narrow(cx, inner, var, existential, env)?;
        let ids = self.dom_regions(dom);
        let _span = self.trace_on.then(|| {
            self.trace.span_with(
                "eval.regions",
                &format!(
                    "quantifier={} regions={}",
                    if existential { "exists" } else { "forall" },
                    ids.len()
                ),
            )
        });
        let saved = (env.dom[slot], env.val[slot]);
        env.dom[slot] = dom;
        let run = self.expand_regions(cx, inner, slot, &ids, env, existential);
        (env.dom[slot], env.val[slot]) = saved;
        let parts = match run? {
            Ok(parts) => parts,
            Err(decided) => return Ok(decided),
        };
        Ok(if existential {
            Formula::or(parts)
        } else {
            Formula::and(parts)
        })
    }

    /// The residual formulas of `inner` over `ids`, or the constant that
    /// decided the quantifier early.
    fn expand_regions(
        &self,
        cx: Cx,
        inner: PlanId,
        slot: usize,
        ids: &[u32],
        env: &mut Env,
        existential: bool,
    ) -> Result<Result<Vec<Formula>, Formula>, Stop> {
        let mut parts = Vec::new();
        let mut take = |out: Formula| match out {
            Formula::True if existential => Err(Formula::True),
            Formula::False if !existential => Err(Formula::False),
            Formula::True | Formula::False => Ok(()),
            other => {
                parts.push(other);
                Ok(())
            }
        };
        for &id in ids {
            self.note_region_expansions(1)?;
            env.val[slot] = id;
            match self.eval_node(cx, inner, env) {
                Ok(out) => {
                    if let Err(decided) = take(out) {
                        return Ok(Err(decided));
                    }
                }
                // Degraded mode: skip this region's disjunct/conjunct.
                Err(stop) => self.absorb(stop, QuarantineUnit::Region(id as usize))?,
            }
        }
        Ok(Ok(parts))
    }

    /// The `rBIT` operator (Definition 5.1).
    fn eval_rbit(
        &self,
        cx: Cx,
        id: PlanId,
        var: &str,
        body: PlanId,
        env: &mut Env,
    ) -> Result<bool, Stop> {
        let (rn, rd) = (
            env.val[cx.args(id)[0] as usize] as usize,
            env.val[cx.args(id)[1] as usize] as usize,
        );
        let formula = self.eval_node(cx, body, env)?;
        let free = formula.free_vars();
        if !(free.is_empty() || (free.len() == 1 && free.contains(var))) {
            return Err(Stop::Query(format!(
                "rBIT body must have exactly the one free element variable '{}'",
                var
            )));
        }
        let dnf = try_to_dnf_pruned(&formula)?;
        let Some(a) = unique_solution(&dnf, var) else {
            return Ok(false);
        };
        if a.is_zero() {
            // Case 2: a = 0 relates equal higher-dimensional regions.
            return Ok(rn == rd && self.ext.region(rn).dim > 0);
        }
        // Case 1: rank i of R_n among the 0-dim regions indexes a set bit of
        // the numerator, rank j of R_d a set bit of the denominator.
        // Ranks are 1-based; rank i corresponds to bit i-1 (LSB first).
        let Some(i) = self.zero_dim_order.iter().position(|&r| r == rn) else {
            return Ok(false);
        };
        let Some(j) = self.zero_dim_order.iter().position(|&r| r == rd) else {
            return Ok(false);
        };
        Ok(a.numer_magnitude().bit(i as u64) && a.denom_magnitude().bit(j as u64))
    }
}

/// `f` with the variables of `point` replaced by their values and the atoms
/// that became constant folded.
fn at_point(f: &Formula, point: &[(&str, LinExpr)]) -> Formula {
    let each = |fs: &[Formula]| fs.iter().map(|g| at_point(g, point)).collect();
    match f {
        Formula::Atom(a) => {
            let a = a.substitute_all(point);
            a.constant_truth().map_or(Formula::Atom(a), bool_formula)
        }
        Formula::And(fs) => Formula::and(each(fs)),
        Formula::Or(fs) => Formula::or(each(fs)),
        Formula::Not(g) => Formula::not(at_point(g, point)),
        other => other.substitute_all(point),
    }
}

fn bool_formula(b: bool) -> Formula {
    if b {
        Formula::True
    } else {
        Formula::False
    }
}

/// The truth value of a formula without free variables.
fn truth(f: &Formula) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        other => {
            debug_assert!(other.free_vars().is_empty(), "truth of an open formula");
            other.eval(&BTreeMap::new())
        }
    }
}

/// If the single-variable DNF defines exactly one rational, return it.
fn unique_solution(dnf: &Dnf, var: &str) -> Option<Rational> {
    let mut point: Option<Rational> = None;
    for conj in &dnf.disjuncts {
        match conjunct_solution(conj, var)? {
            None => continue,                 // empty disjunct
            Some(v) => match &point {
                None => point = Some(v),
                Some(p) if *p == v => {}
                _ => return None, // two distinct points
            },
        }
    }
    point
}

/// Solution set of a single-variable conjunct: `Ok(None)` = empty,
/// `Ok(Some(v))` = the single point `v`; outer `None` = a bigger set.
#[allow(clippy::type_complexity)]
fn conjunct_solution(conj: &[lcdb_logic::Atom], var: &str) -> Option<Option<Rational>> {
    // Track the interval [lo, hi] with strictness and any equality pins.
    let mut lo: Option<(Rational, bool)> = None; // (bound, strict)
    let mut hi: Option<(Rational, bool)> = None;
    let mut pin: Option<Rational> = None;
    for atom in conj {
        let a = atom.expr.coeff(var);
        if a.is_zero() {
            // Ground atom: must be constant.
            match atom.constant_truth() {
                Some(true) => continue,
                Some(false) | None => return Some(None),
            }
        }
        // a·x + c REL 0  ⇒  x REL' -c/a.
        let bound = -(atom.expr.constant_term() / &a);
        let flip = a.sign() == Sign::Negative;
        let rel = if flip { atom.rel.flip() } else { atom.rel };
        match rel {
            Rel::Eq => match &pin {
                None => pin = Some(bound),
                Some(p) if *p == bound => {}
                _ => return Some(None),
            },
            Rel::Lt | Rel::Le => {
                let strict = rel == Rel::Lt;
                hi = Some(match hi {
                    None => (bound, strict),
                    Some((h, hs)) => {
                        if bound < h || (bound == h && strict) {
                            (bound, strict)
                        } else {
                            (h, hs)
                        }
                    }
                });
            }
            Rel::Gt | Rel::Ge => {
                let strict = rel == Rel::Gt;
                lo = Some(match lo {
                    None => (bound, strict),
                    Some((l, ls)) => {
                        if bound > l || (bound == l && strict) {
                            (bound, strict)
                        } else {
                            (l, ls)
                        }
                    }
                });
            }
        }
    }
    if let Some(p) = pin {
        let ok_lo = match lo {
            Some((l, s)) => if s { p > l } else { p >= l },
            None => true,
        };
        let ok_hi = match hi {
            Some((h, s)) => if s { p < h } else { p <= h },
            None => true,
        };
        return Some(if ok_lo && ok_hi { Some(p) } else { None });
    }
    match (lo, hi) {
        (Some((l, ls)), Some((h, hs))) => {
            if l > h {
                Some(None)
            } else if l == h {
                if ls || hs {
                    Some(None)
                } else {
                    Some(Some(l))
                }
            } else {
                None // a real interval: not a unique point
            }
        }
        _ => None, // unbounded on some side: not a unique point
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::RegionExtension;
    use lcdb_arith::int;
    use lcdb_logic::{parse_formula, Atom, LinExpr, Relation};

    fn relation(src: &str, vars: &[&str]) -> Relation {
        Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
        )
    }

    fn interval_ext() -> RegionExtension {
        RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]))
    }

    #[test]
    fn region_quantifiers_expand() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // Some region is contained in S.
        let f = RegFormula::exists_region("R", RegFormula::SubsetOf("R".into(), "S".into()));
        assert!(ev.eval_sentence(&f));
        // Not every region is contained in S.
        let g = RegFormula::forall_region("R", RegFormula::SubsetOf("R".into(), "S".into()));
        assert!(!ev.eval_sentence(&g));
    }

    #[test]
    fn element_quantifiers_via_qe() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // ∃x S(x) — S nonempty.
        let f = RegFormula::exists_elem(
            "x",
            RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
        );
        assert!(ev.eval_sentence(&f));
        // ∀x S(x) — false.
        let g = RegFormula::forall_elem(
            "x",
            RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
        );
        assert!(!ev.eval_sentence(&g));
        assert!(ev.stats().qe_calls >= 2);
    }

    #[test]
    fn query_output_is_quantifier_free() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // { y : ∃x (S(x) ∧ y = x + 1) } = (1, 3).
        let f = RegFormula::exists_elem(
            "x",
            RegFormula::and(vec![
                RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
                RegFormula::Lin(Atom::new(
                    LinExpr::var("y"),
                    Rel::Eq,
                    LinExpr::var("x").add(&LinExpr::constant(int(1))),
                )),
            ]),
        );
        let out = ev.eval_query(&f);
        assert!(out.is_quantifier_free());
        let check = |v: i64| {
            let mut env = BTreeMap::new();
            env.insert("y".to_string(), int(v));
            out.eval(&env)
        };
        assert!(check(2));
        assert!(!check(1));
        assert!(!check(3));
        assert!(!check(0));
    }

    #[test]
    fn membership_in_region() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // ∃R (1 ∈ R ∧ R ⊆ S): the point 1 lies in an S-region.
        let f = RegFormula::exists_region(
            "R",
            RegFormula::and(vec![
                RegFormula::In(vec![LinExpr::constant(int(1))], "R".into()),
                RegFormula::SubsetOf("R".into(), "S".into()),
            ]),
        );
        assert!(ev.eval_sentence(&f));
        // Same for the point 5: not in S.
        let g = RegFormula::exists_region(
            "R",
            RegFormula::and(vec![
                RegFormula::In(vec![LinExpr::constant(int(5))], "R".into()),
                RegFormula::SubsetOf("R".into(), "S".into()),
            ]),
        );
        assert!(!ev.eval_sentence(&g));
    }

    #[test]
    fn lfp_reachability_two_components() {
        // S = (0,1) ∪ (2,3): regions of S are not mutually reachable.
        let ext = RegionExtension::arrangement(relation(
            "(0 < x and x < 1) or (2 < x and x < 3)",
            &["x"],
        ));
        let ev = Evaluator::new(&ext);
        let conn = crate::queries::connectivity();
        assert!(!ev.eval_sentence(&conn));
        // A single interval is connected.
        let ext2 = interval_ext();
        let ev2 = Evaluator::new(&ext2);
        assert!(ev2.eval_sentence(&crate::queries::connectivity()));
    }

    #[test]
    fn lfp_positivity_enforced() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        let bad = RegFormula::exists_region(
            "R",
            RegFormula::Fix {
                mode: FixMode::Lfp,
                set_var: "M".into(),
                vars: vec!["X".into()],
                body: Arc::new(RegFormula::not(RegFormula::SetApp(
                    "M".into(),
                    vec!["X".into()],
                ))),
                args: vec!["R".into()],
            },
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.eval_sentence(&bad)
        }));
        assert!(result.is_err(), "negative LFP must be rejected");
    }

    #[test]
    fn ifp_handles_non_monotone_bodies() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // IFP of "X not yet in M": first stage adds everything; fixpoint = all.
        let f = RegFormula::forall_region(
            "R",
            RegFormula::Fix {
                mode: FixMode::Ifp,
                set_var: "M".into(),
                vars: vec!["X".into()],
                body: Arc::new(RegFormula::not(RegFormula::SetApp(
                    "M".into(),
                    vec!["X".into()],
                ))),
                args: vec!["R".into()],
            },
        );
        assert!(ev.eval_sentence(&f));
    }

    #[test]
    fn pfp_divergence_yields_empty() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // PFP of the complement operator oscillates: ∅ → all → ∅ → …
        // By definition the PFP is then empty.
        let f = RegFormula::exists_region(
            "R",
            RegFormula::Fix {
                mode: FixMode::Pfp,
                set_var: "M".into(),
                vars: vec!["X".into()],
                body: Arc::new(RegFormula::not(RegFormula::SetApp(
                    "M".into(),
                    vec!["X".into()],
                ))),
                args: vec!["R".into()],
            },
        );
        assert!(!ev.eval_sentence(&f));
    }

    #[test]
    fn pfp_converging_body_agrees_with_lfp() {
        let ext = RegionExtension::arrangement(relation(
            "(0 < x and x < 1) or (2 < x and x < 3)",
            &["x"],
        ));
        let ev = Evaluator::new(&ext);
        let body = RegFormula::or(vec![
            RegFormula::SubsetOf("X".into(), "S".into()),
            RegFormula::SetApp("M".into(), vec!["X".into()]),
        ]);
        for mode in [FixMode::Lfp, FixMode::Ifp, FixMode::Pfp] {
            let f = RegFormula::forall_region(
                "R",
                RegFormula::SubsetOf("R".into(), "S".into()).implies(RegFormula::Fix {
                    mode,
                    set_var: "M".into(),
                    vars: vec!["X".into()],
                    body: Arc::new(body.clone()),
                    args: vec!["R".into()],
                }),
            );
            assert!(ev.eval_sentence(&f), "{:?}", mode);
        }
    }

    #[test]
    fn tc_and_dtc_reachability() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        // TC over adjacency starting anywhere reaches everything (the line is
        // connected through its face poset).
        let tc_all = RegFormula::forall_region(
            "A",
            RegFormula::forall_region(
                "B",
                RegFormula::Tc {
                    deterministic: false,
                    left: vec!["X".into()],
                    right: vec!["Y".into()],
                    body: Arc::new(RegFormula::Adj("X".into(), "Y".into())),
                    arg_left: vec!["A".into()],
                    arg_right: vec!["B".into()],
                },
            ),
        );
        assert!(ev.eval_sentence(&tc_all));
        // DTC over adjacency: interior faces have several adjacent faces, so
        // deterministic steps are blocked; reflexive pairs still hold.
        let dtc_refl = RegFormula::forall_region(
            "A",
            RegFormula::Tc {
                deterministic: true,
                left: vec!["X".into()],
                right: vec!["Y".into()],
                body: Arc::new(RegFormula::Adj("X".into(), "Y".into())),
                arg_left: vec!["A".into()],
                arg_right: vec!["A".into()],
            },
        );
        assert!(ev.eval_sentence(&dtc_refl));
    }

    #[test]
    fn dtc_strictly_weaker_than_tc() {
        // A 'V' of two segments: the vertex has two adjacent higher regions,
        // so DTC cannot step out of it, but TC can.
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        let ev = Evaluator::new(&ext);
        // From the 0-dim region {0}, TC via adjacency reaches the segment's
        // region; DTC does not (deg > 1).
        let zero_region = ext
            .region_ids()
            .find(|&r| ext.region(r).dim == 0 && ext.contains_point(r, &[int(0)]))
            .unwrap();
        let seg_region = ext
            .region_ids()
            .find(|&r| ext.contains_point(r, &[lcdb_arith::rat(1, 2)]))
            .unwrap();
        let mk = |det: bool| RegFormula::Tc {
            deterministic: det,
            left: vec!["X".into()],
            right: vec!["Y".into()],
            body: Arc::new(RegFormula::Adj("X".into(), "Y".into())),
            arg_left: vec!["A".into()],
            arg_right: vec!["B".into()],
        };
        let bound = [("A", zero_region), ("B", seg_region)];
        let tc = ev.try_eval_with_regions(&mk(false), &bound).unwrap();
        let dtc = ev.try_eval_with_regions(&mk(true), &bound).unwrap();
        assert_eq!(tc, Formula::True);
        assert_eq!(dtc, Formula::False);
    }

    #[test]
    fn rbit_extracts_bits() {
        // S = (0,2); regions: {0}, {2} are the 0-dim regions, ranks 1 and 2.
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        assert_eq!(ev.zero_dim_order().len(), 2);
        let r0 = ev.zero_dim_order()[0]; // {0}, rank 1 -> bit 0
        let r2 = ev.zero_dim_order()[1]; // {2}, rank 2 -> bit 1
        // body: x = 3/2  (numerator 3 = 0b11, denominator 2 = 0b10).
        let body = RegFormula::Lin(Atom::new(
            LinExpr::var("x").scale(&int(2)),
            Rel::Eq,
            LinExpr::constant(int(3)),
        ));
        let mk = |rn: &str, rd: &str| RegFormula::Rbit {
            var: "x".into(),
            body: Arc::new(body.clone()),
            rn: rn.into(),
            rd: rd.into(),
        };
        // numerator bits 0 and 1 set; denominator bit 1 set only.
        let t = |rn, rd| {
            let bound = [("Rn", rn), ("Rd", rd)];
            ev.try_eval_with_regions(&mk("Rn", "Rd"), &bound).unwrap() == Formula::True
        };
        assert!(t(r0, r2)); // num bit0=1, den bit1=1
        assert!(t(r2, r2)); // num bit1=1, den bit1=1
        assert!(!t(r0, r0)); // den bit0=0
        assert!(!t(r2, r0));
    }

    #[test]
    fn rbit_zero_case_and_non_unique() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        let seg = ext
            .region_ids()
            .find(|&r| ext.region(r).dim == 1 && ext.contains_point(r, &[int(1)]))
            .unwrap();
        let zero_r = ev.zero_dim_order()[0];
        // body: x = 0.
        let zero_body = RegFormula::Lin(Atom::new(
            LinExpr::var("x"),
            Rel::Eq,
            LinExpr::zero(),
        ));
        let mk = |body: RegFormula| RegFormula::Rbit {
            var: "x".into(),
            body: Arc::new(body),
            rn: "Rn".into(),
            rd: "Rd".into(),
        };
        let t = |f: &RegFormula, rn, rd| {
            ev.try_eval_with_regions(f, &[("Rn", rn), ("Rd", rd)]).unwrap() == Formula::True
        };
        let f0 = mk(zero_body);
        assert!(t(&f0, seg, seg), "a=0 relates equal higher-dim regions");
        assert!(!t(&f0, zero_r, zero_r), "a=0 excludes 0-dim regions");
        // Non-unique solution (an interval): empty relation.
        let interval_body = RegFormula::Lin(Atom::new(
            LinExpr::var("x"),
            Rel::Gt,
            LinExpr::zero(),
        ));
        let fi = mk(interval_body);
        assert!(!t(&fi, zero_r, zero_r));
        assert!(!t(&fi, seg, seg));
    }

    #[test]
    fn fix_cache_effective() {
        let ext = RegionExtension::arrangement(relation("0 < x and x < 2", &["x"]));
        let ev = Evaluator::new(&ext);
        let conn = crate::queries::connectivity();
        let _ = ev.eval_sentence(&conn);
        let s = ev.stats();
        // One fixed point for all (Rx, Ry) pairs: iterations bounded by the
        // lattice height, not multiplied by |Reg|².
        assert!(
            s.fix_iterations <= ext.num_regions() + 2,
            "fixpoint recomputed per argument pair: {} iterations",
            s.fix_iterations
        );
    }

    #[test]
    fn membership_in_a_point_region_is_a_substitution() {
        // Regions: (-∞,0) {0} (0,2) {2} (2,∞); `y` stays free.
        let ext = interval_ext();
        let x_below_y = Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y")));
        for (src, universal) in [
            ("exists x. (x in P and x < y)", false),
            ("forall x. (not (x in P) or x < y)", true),
            // Not a bare variable: nothing to substitute.
            ("exists x. (x + 1 in P and x + 1 < y)", false),
        ] {
            let f = crate::parse_regformula(src).unwrap();
            for r in ext.region_ids() {
                let ev = Evaluator::new(&ext);
                let got = ev.try_eval_with_regions(&f, &[("P", r)]).unwrap();
                let substituted = ext.region(r).dim == 0 && !src.contains("x + 1");
                assert_eq!(ev.stats().qe_calls, usize::from(!substituted), "{src} at {r}");
                // The same, by elimination on the region's own formula.
                let inside = ext.region_formula(r, &["x".to_string()]);
                let want = if universal {
                    Formula::Forall("x".into(), Box::new(inside.implies(x_below_y.clone())))
                } else {
                    Formula::Exists("x".into(), Box::new(Formula::and(vec![inside, x_below_y.clone()])))
                };
                for y in -3..=5 {
                    let env = BTreeMap::from([("y".to_string(), int(y))]);
                    assert_eq!(got.eval(&env), want.eval(&env), "{src} at region {r}, y = {y}");
                }
            }
        }
    }

    #[test]
    fn entry_checks_read_the_compiled_plan() {
        let ext = interval_ext();
        let ev = Evaluator::new(&ext);
        let open = |what: &str| {
            RegFormula::and(vec![
                crate::parse_regformula(what).unwrap(),
                RegFormula::SubsetOf("R".into(), "S".into()),
            ])
        };
        for (f, sort) in [
            (crate::parse_regformula("x < 1").unwrap(), "element"),
            (open("true"), "region"),
            (RegFormula::SetApp("M".into(), vec![]), "set"),
        ] {
            let err = ev.try_eval_sentence(&f).unwrap_err().to_string();
            assert!(
                err.contains(&format!("sentence has free {sort} variables")),
                "{err}"
            );
        }
        // What constant folding removed is not free: no value depends on it.
        let folded = RegFormula::or(vec![
            RegFormula::and(vec![open("x < 1"), RegFormula::False]),
            RegFormula::exists_region("R", open("true")),
        ]);
        assert!(ev.eval_sentence(&folded));
        assert!(ev.try_eval_query(&open("x < 1")).is_err());
        assert!(ev
            .try_eval_with_regions(&open("x < 1"), &[("R", 0)])
            .is_ok());
    }

    #[test]
    fn unique_solution_analysis() {
        use lcdb_logic::parse_formula;
        let check = |src: &str| {
            let f = parse_formula(src).unwrap();
            unique_solution(&lcdb_logic::dnf::to_dnf_pruned(&f), "x")
        };
        assert_eq!(check("x = 3"), Some(int(3)));
        assert_eq!(check("2*x = 3"), Some(lcdb_arith::rat(3, 2)));
        assert_eq!(check("x >= 1 and x <= 1"), Some(int(1)));
        assert_eq!(check("x = 1 or x = 1"), Some(int(1)));
        assert_eq!(check("x = 1 or x = 2"), None);
        assert_eq!(check("x > 0 and x < 1"), None);
        assert_eq!(check("x > 0"), None);
        assert_eq!(check("x = 1 and x = 2"), None); // empty
        assert_eq!(check("x = 1 or (x > 5 and x < 4)"), Some(int(1)));
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod relation_output_tests {
    use crate::region::RegionExtension;
    use crate::{Evaluator, RegFormula};
    use lcdb_arith::{int, rat};
    use lcdb_logic::{parse_formula, LinExpr, Relation};

    #[test]
    fn query_answers_are_relations() {
        let rel = Relation::new(
            vec!["x".into()],
            parse_formula("(0 < x and x < 1) or (2 < x and x < 3)").unwrap(),
        );
        let ext = RegionExtension::arrangement(rel);
        let ev = Evaluator::new(&ext);
        // { y : ∃x (S(x) ∧ y = 2x) } = (0,2) ∪ (4,6).
        let q = RegFormula::exists_elem(
            "x",
            RegFormula::and(vec![
                RegFormula::Pred("S".into(), vec![LinExpr::var("x")]),
                RegFormula::Lin(lcdb_logic::Atom::new(
                    LinExpr::var("y"),
                    lcdb_logic::Rel::Eq,
                    LinExpr::var("x").scale(&int(2)),
                )),
            ]),
        );
        let answer = ev.try_eval_query_to_relation(&q, &["y".into()]).unwrap();
        assert!(answer.contains(&[int(1)]));
        assert!(answer.contains(&[int(5)]));
        assert!(!answer.contains(&[int(3)]));
        assert!(!answer.contains(&[rat(13, 2)]));
        // The answer relation can itself be decomposed and queried.
        let ext2 = RegionExtension::arrangement(answer);
        let ev2 = Evaluator::new(&ext2);
        assert!(!ev2.eval_sentence(&crate::queries::connectivity()));
    }
}
