//! Spatial datalog over linear constraint databases — the baseline whose
//! shortcomings motivate the paper's region logics.
//!
//! Geerts and Kuijpers \[5\] study datalog with linear-constraint EDBs: IDB
//! predicates are *infinite* finitely-represented relations, and the
//! immediate-consequence operator is evaluated with FO+LIN machinery
//! (conjunction of constraint formulas, projection by quantifier
//! elimination). The fundamental problem (§1 of the paper, and \[18\]): the
//! fixpoint iteration need not terminate — each round can produce strictly
//! larger relations forever, because the value domain ℝ is infinite. The
//! region logics of the paper restrict recursion to the *finite* region sort
//! precisely to repair this.
//!
//! This crate implements naive spatial datalog honestly:
//!
//! * [`Program`] — rules `head(x̄) :- atom₁, …, atomₖ` whose body atoms are
//!   EDB/IDB predicate applications or linear constraints;
//! * [`Program::evaluate`] — bounded evaluation; rule bodies are compiled
//!   once into the interned plan IR of `lcdb-plan` (tagged predicate
//!   leaves, hash-consed sharing) and each stage executes those plans to
//!   compute the immediate consequence as a quantifier-free formula, and
//!   *semantic* convergence is detected by LP-backed inclusion tests.
//!   Rounds are **semi-naive** by default (each round joins against the
//!   per-predicate *delta* of the previous round instead of the full IDB;
//!   [`Strategy::Naive`] recomputes everything, for comparison);
//! * [`EvalOutcome`] — either a fixpoint (with its round count) or
//!   `Diverged` when the stage budget is exhausted — which genuinely happens
//!   (see the `westward_translation` test and experiment E19).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcdb_arith::Rational;
use lcdb_budget::work::{self, Work};
use lcdb_budget::{BudgetError, EvalBudget};
use lcdb_exec::hash::fingerprint_str;
use lcdb_exec::Pool;
use lcdb_logic::dnf::{to_dnf_pruned, Dnf};
use lcdb_logic::{parse_formula, Atom, Database, Formula, LinExpr, Rel, Relation, Var};
use lcdb_plan::exec::{eval_fo, lower_fo, ExecError, FoStats};
use lcdb_plan::{Plan, PlanId};
use lcdb_recover::{DatalogSnapshot, IdbRelation, IdbRepr, PackedAtom, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// How fixpoint rounds compute the immediate consequence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Recompute every rule against the full IDB each round.
    Naive,
    /// Delta-driven rounds: after the first round, a rule only re-fires
    /// through body positions bound to the previous round's *delta* (the
    /// tuples new in that round); combinations that only use older tuples
    /// were already derived. Reaches the same fixpoint in the same number
    /// of rounds as [`Strategy::Naive`] — datalog is positive, so the round
    /// operator is monotone and the delta expansion is exhaustive.
    #[default]
    SemiNaive,
}

/// One consequence computation of a round: a rule (by reference and by its
/// index into the compiled plan roots), and — in semi-naive rounds — which
/// body position reads the delta relation.
struct Job<'r> {
    rule: &'r Rule,
    rule_idx: usize,
    delta_lit: Option<usize>,
}

/// A program compiled to the plan IR: one hash-consed arena shared by every
/// rule body, and the root node of each rule's consequence plan (aligned
/// with `Program::rules`). Predicate leaves are tagged `name@position` so
/// two occurrences of the same predicate at different body positions stay
/// distinct nodes — the semi-naive executor binds exactly one position per
/// job to the delta relation.
struct Compiled {
    plan: Plan,
    roots: Vec<PlanId>,
}

/// A body literal of a rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Literal {
    /// Application of an EDB or IDB predicate to variables.
    Pred(String, Vec<Var>),
    /// A linear constraint over the rule's variables.
    Constraint(lcdb_logic::Atom),
}

/// A datalog rule `head(vars) :- body`.
#[derive(Clone, Debug)]
pub struct Rule {
    /// Head predicate name.
    pub head: String,
    /// Head variable tuple (distinct variables).
    pub head_vars: Vec<Var>,
    /// Body literals (conjunctive).
    pub body: Vec<Literal>,
}

impl Rule {
    /// Construct a rule, checking the head variables are distinct.
    pub fn new(head: impl Into<String>, head_vars: Vec<Var>, body: Vec<Literal>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for v in &head_vars {
            assert!(seen.insert(v.clone()), "repeated head variable '{}'", v);
        }
        Rule {
            head: head.into(),
            head_vars,
            body,
        }
    }
}

/// A spatial datalog program.
#[derive(Clone, Debug, Default)]
pub struct Program {
    rules: Vec<Rule>,
}

/// A failed datalog evaluation.
#[derive(Clone, Debug)]
pub enum DatalogError {
    /// A resource budget ran out mid-evaluation. Carries the IDB relations
    /// after the last fully completed round, so partial progress is
    /// inspectable.
    Budget {
        /// The exhausted limit.
        error: BudgetError,
        /// IDB state after the last completed round.
        partial: BTreeMap<String, Relation>,
        /// Fully completed rounds.
        rounds: usize,
    },
    /// A rule body references a predicate that is neither an IDB head nor
    /// an EDB relation.
    UnknownPredicate {
        /// The undefined predicate name.
        name: String,
    },
    /// A snapshot offered to [`Program::resume_from`] does not belong to
    /// this program, or its persisted relations fail to parse back.
    Snapshot {
        /// Human-readable description of the defect.
        message: String,
    },
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatalogError::Budget { error, rounds, .. } => {
                write!(f, "datalog evaluation aborted after {rounds} rounds: {error}")
            }
            DatalogError::UnknownPredicate { name } => {
                write!(f, "unknown predicate '{name}'")
            }
            DatalogError::Snapshot { message } => {
                write!(f, "unusable datalog snapshot: {message}")
            }
        }
    }
}

impl std::error::Error for DatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DatalogError::Budget { error, .. } => Some(error),
            DatalogError::UnknownPredicate { .. } | DatalogError::Snapshot { .. } => None,
        }
    }
}

/// Result of bounded naive evaluation.
#[derive(Clone, Debug)]
pub enum EvalOutcome {
    /// A (semantic) fixpoint was reached after the given number of rounds.
    Fixpoint {
        /// The IDB relations at the fixpoint.
        idb: BTreeMap<String, Relation>,
        /// Rounds needed.
        rounds: usize,
    },
    /// The stage budget was exhausted without convergence — the program
    /// (empirically) diverges on this database.
    Diverged {
        /// The IDB relations after the last completed round.
        partial: BTreeMap<String, Relation>,
        /// Rounds executed.
        rounds: usize,
    },
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Add a rule.
    pub fn rule(mut self, r: Rule) -> Self {
        self.rules.push(r);
        self
    }

    /// The IDB predicate names (heads of rules).
    pub fn idb_predicates(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for r in &self.rules {
            if !out.iter().any(|(n, _)| n == &r.head) {
                out.push((r.head.clone(), r.head_vars.len()));
            }
        }
        out
    }

    /// Bounded evaluation over a database of EDB relations, with the
    /// default semi-naive rounds.
    ///
    /// Convergence is semantic (inclusion of consecutive stages, decided by
    /// LP satisfiability of the difference formulas).
    ///
    /// # Panics
    /// Panics if a rule body references an unknown predicate. Use
    /// [`Program::try_evaluate`] for a typed error instead.
    pub fn evaluate(&self, edb: &Database, max_rounds: usize) -> EvalOutcome {
        self.try_evaluate(edb, max_rounds, &EvalBudget::unlimited())
            .unwrap_or_else(|e| panic!("{}", e))
    }

    /// Budget-governed evaluation (semi-naive). In addition to the
    /// `max_rounds` stage bound (which yields [`EvalOutcome::Diverged`], the
    /// *expected* non-termination verdict), the budget's deadline,
    /// cancellation token, and fixed-point iteration cap are checked between
    /// rounds; tripping one aborts with [`DatalogError::Budget`] carrying
    /// the IDB state after the last completed round.
    pub fn try_evaluate(
        &self,
        edb: &Database,
        max_rounds: usize,
        budget: &EvalBudget,
    ) -> Result<EvalOutcome, DatalogError> {
        self.try_evaluate_with(edb, max_rounds, budget, Strategy::default(), &Pool::serial())
    }

    /// Evaluation with an explicit round [`Strategy`]. Consequences merge in
    /// (predicate, rule, delta-position) order, so results and round counts
    /// are identical across strategies. `_pool` is ignored (signature pinned
    /// by `benchmark/`).
    pub fn try_evaluate_with(
        &self,
        edb: &Database,
        max_rounds: usize,
        budget: &EvalBudget,
        strategy: Strategy,
        _pool: &Pool,
    ) -> Result<EvalOutcome, DatalogError> {
        self.try_evaluate_traced(
            edb,
            max_rounds,
            budget,
            strategy,
            lcdb_trace::TraceHandle::disabled_ref(),
        )
    }

    /// [`Program::try_evaluate_with`] with a tracing/metrics handle: each
    /// round emits a `datalog.round` span (tagged with the strategy and job
    /// count) plus `datalog.rounds` / `datalog.delta_disjuncts` counters, so
    /// naive-vs-semi-naive delta behaviour is visible in a trace.
    pub fn try_evaluate_traced(
        &self,
        edb: &Database,
        max_rounds: usize,
        budget: &EvalBudget,
        strategy: Strategy,
        trace: &lcdb_trace::TraceHandle,
    ) -> Result<EvalOutcome, DatalogError> {
        let mut idb: BTreeMap<String, Relation> = BTreeMap::new();
        for (name, arity) in self.idb_predicates() {
            let vars: Vec<Var> = (0..arity).map(|i| format!("x{}", i)).collect();
            idb.insert(name, Relation::new(vars, Formula::False));
        }
        self.run_rounds(edb, budget, strategy, idb, 0, max_rounds, trace)
    }

    /// A structural fingerprint of the program's rules, derived from the
    /// canonical hashes of the compiled rule plans (plus each head name and
    /// arity). Two programs with the same rules fingerprint identically —
    /// including across AST differences the lowering normalizes away, such
    /// as head-variable naming. Used to bind snapshots to the program that
    /// produced them.
    pub fn fingerprint(&self) -> u64 {
        let compiled = self.compile();
        let mut desc = String::new();
        for (rule, root) in self.rules.iter().zip(&compiled.roots) {
            desc.push_str(&format!(
                "{}/{}:{:016x};",
                rule.head,
                rule.head_vars.len(),
                compiled.plan.hash(*root)
            ));
        }
        fingerprint_str(&desc)
    }

    /// Lower every rule body into one shared plan arena. Identical
    /// subformulas across rules (same constraint atoms, same tagged
    /// predicate applications) intern to the same node, so a job's memo
    /// answers repeated subplans once.
    fn compile(&self) -> Compiled {
        let mut plan = Plan::new();
        let mut roots = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let f = rule_body_formula(rule);
            let root = lower_fo(&mut plan, &f, true, &mut |name, _| name.to_string());
            roots.push(root);
        }
        Compiled { plan, roots }
    }

    /// Persist the partial progress carried by a [`DatalogError::Budget`]
    /// abort as a resumable [`Snapshot`]. Returns `None` for error variants
    /// that carry no progress (unknown predicates, snapshot defects).
    ///
    /// The IDB relations are serialized structurally — their DNF packed
    /// atom by atom, rationals in exact form — with no round trip through
    /// the pretty-printer and parser. Version-1 snapshots (surface-syntax
    /// text) are still accepted by [`Program::resume_from`].
    pub fn checkpoint(&self, err: &DatalogError) -> Option<Snapshot> {
        match err {
            DatalogError::Budget {
                partial, rounds, ..
            } => {
                let idb = partial
                    .iter()
                    .map(|(name, rel)| IdbRelation {
                        name: name.clone(),
                        vars: rel.var_names().to_vec(),
                        repr: pack_dnf(rel.dnf()),
                    })
                    .collect();
                Some(Snapshot::Datalog(DatalogSnapshot {
                    program_fingerprint: self.fingerprint(),
                    rounds: *rounds as u64,
                    idb,
                }))
            }
            DatalogError::UnknownPredicate { .. } | DatalogError::Snapshot { .. } => None,
        }
    }

    /// Resume an evaluation aborted by a budget from a [`Snapshot`] written
    /// by [`Program::checkpoint`]. The snapshot must carry this program's
    /// fingerprint; its IDB relations seed the round loop, which continues
    /// from the first uncompleted round. The first resumed round evaluates
    /// every rule against the full restored IDB (the true delta is not
    /// persisted), which is sound and re-establishes the delta chain for
    /// the semi-naive rounds that follow. Pass a *fresh* budget — the
    /// counters that tripped the original abort are not carried over.
    pub fn resume_from(
        &self,
        edb: &Database,
        max_rounds: usize,
        budget: &EvalBudget,
        snapshot: &Snapshot,
    ) -> Result<EvalOutcome, DatalogError> {
        self.resume_from_with(edb, max_rounds, budget, snapshot, Strategy::default())
    }

    /// [`Program::resume_from`] with an explicit [`Strategy`].
    pub fn resume_from_with(
        &self,
        edb: &Database,
        max_rounds: usize,
        budget: &EvalBudget,
        snapshot: &Snapshot,
        strategy: Strategy,
    ) -> Result<EvalOutcome, DatalogError> {
        let snap = match snapshot {
            Snapshot::Datalog(s) => s,
            Snapshot::Fixpoint(_) => {
                return Err(DatalogError::Snapshot {
                    message: "snapshot holds region-logic fixpoint state, not datalog rounds"
                        .into(),
                })
            }
        };
        if snap.program_fingerprint != self.fingerprint() {
            return Err(DatalogError::Snapshot {
                message: format!(
                    "program fingerprint mismatch: snapshot {:016x}, program {:016x}",
                    snap.program_fingerprint,
                    self.fingerprint()
                ),
            });
        }
        let mut idb: BTreeMap<String, Relation> = BTreeMap::new();
        for (name, arity) in self.idb_predicates() {
            let vars: Vec<Var> = (0..arity).map(|i| format!("x{}", i)).collect();
            idb.insert(name, Relation::new(vars, Formula::False));
        }
        for saved in &snap.idb {
            let arity = match idb.get(&saved.name) {
                Some(rel) => rel.arity(),
                None => {
                    return Err(DatalogError::Snapshot {
                        message: format!("snapshot names unknown IDB predicate '{}'", saved.name),
                    })
                }
            };
            if saved.vars.len() != arity {
                return Err(DatalogError::Snapshot {
                    message: format!(
                        "snapshot relation '{}' has arity {}, program expects {}",
                        saved.name,
                        saved.vars.len(),
                        arity
                    ),
                });
            }
            let restored = match &saved.repr {
                // Version-1 snapshots: text through the parser.
                IdbRepr::Text(src) => {
                    let formula =
                        parse_formula(src).map_err(|e| DatalogError::Snapshot {
                            message: format!(
                                "snapshot relation '{}' failed to parse: {}",
                                saved.name, e
                            ),
                        })?;
                    Relation::define(saved.vars.clone(), formula).map_err(|e| {
                        DatalogError::Snapshot {
                            message: format!("snapshot relation '{}': {}", saved.name, e),
                        }
                    })?
                }
                // Current snapshots: the packed DNF restores directly.
                IdbRepr::Packed(disjuncts) => {
                    let dnf = unpack_dnf(disjuncts).map_err(|message| {
                        DatalogError::Snapshot {
                            message: format!(
                                "snapshot relation '{}': {}",
                                saved.name, message
                            ),
                        }
                    })?;
                    Relation::from_dnf(saved.vars.clone(), dnf)
                }
            };
            idb.insert(saved.name.clone(), restored);
        }
        self.run_rounds(
            edb,
            budget,
            strategy,
            idb,
            snap.rounds as usize,
            max_rounds,
            lcdb_trace::TraceHandle::disabled_ref(),
        )
    }

    /// The round loop, shared by fresh evaluation (`completed = 0`) and
    /// resumption (`completed` = rounds already persisted). Round numbers
    /// are absolute, so budget and abort bookkeeping stay comparable across
    /// an abort/resume boundary.
    ///
    /// The first round of any run evaluates every rule against the full
    /// IDB — which on a fresh start *is* the naive first round, and on
    /// resume conservatively re-fires everything (the persisted snapshot
    /// has no delta). Each completed round then records the per-predicate
    /// delta `next \ current`, and under [`Strategy::SemiNaive`] later
    /// rounds only fire rules through delta-bound body positions.
    #[allow(clippy::too_many_arguments)]
    fn run_rounds(
        &self,
        edb: &Database,
        budget: &EvalBudget,
        strategy: Strategy,
        mut idb: BTreeMap<String, Relation>,
        completed: usize,
        max_rounds: usize,
        trace: &lcdb_trace::TraceHandle,
    ) -> Result<EvalOutcome, DatalogError> {
        let preds = self.idb_predicates();
        // One plan for the whole run: rule bodies are lowered and optimized
        // once, and every round's jobs execute the interned DAG.
        let compiled = self.compile();
        // The previous round's delta; `None` until a round completes in
        // this process (semi-naive needs a predecessor round to diff).
        let mut delta: Option<BTreeMap<String, Relation>> = None;
        // Rounds are stages: a resumed run's rounds count against the cap.
        let _armed = work::arm(budget, [completed as u64, 0]);
        for round in (completed + 1)..=max_rounds {
            let abort = |error: BudgetError, idb: &BTreeMap<String, Relation>| {
                DatalogError::Budget {
                    error,
                    partial: idb.clone(),
                    rounds: round - 1,
                }
            };
            // Fault-injection site: a round that dies mid-consequence.
            #[cfg(feature = "faults")]
            if let Err(e) = lcdb_budget::faults::check("datalog.round") {
                return Err(abort(e, &idb));
            }
            // A round is a stage: its charge also reads the clock, and
            // returns what the eliminations of the last round left pending.
            if let Err(e) = work::charge(Work::FixIterations, 1) {
                return Err(abort(e, &idb));
            }
            // The round's independent consequence computations, in
            // deterministic (predicate, rule, delta-position) order.
            let jobs = self.round_jobs(strategy, delta.as_ref());
            let _round_span = trace.enabled().then(|| {
                trace.span_with(
                    "datalog.round",
                    &format!(
                        "round={round} strategy={} jobs={}",
                        match strategy {
                            Strategy::Naive => "naive",
                            Strategy::SemiNaive => "semi_naive",
                        },
                        jobs.len()
                    ),
                )
            });
            let consequences: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let bound = job.delta_lit.map(|i| {
                        let d = delta.as_ref().expect("delta jobs only exist once a delta does");
                        (i, d)
                    });
                    self.rule_consequence(&compiled, job.rule_idx, edb, &idb, bound)
                })
                .collect();
            let mut next: BTreeMap<String, Relation> = BTreeMap::new();
            let mut new_delta: BTreeMap<String, Relation> = BTreeMap::new();
            let mut converged = true;
            for (name, arity) in &preds {
                let vars: Vec<Var> = (0..*arity).map(|i| format!("x{}", i)).collect();
                let mut fresh = Vec::new();
                for (job, result) in jobs.iter().zip(&consequences) {
                    if job.rule.head == *name {
                        // First error in job order wins.
                        fresh.push(result.clone()?);
                    }
                }
                let fresh = Formula::or(fresh);
                // Monotone accumulation (datalog is positive).
                let formula = Formula::or(vec![fresh.clone(), idb[name].dnf().to_formula()]);
                let dnf = to_dnf_pruned(&formula).simplify();
                next.insert(name.clone(), Relation::from_dnf(vars.clone(), dnf));
                // Delta = the genuinely new tuples; the round converged when
                // every delta is empty (next ⊆ current, LP-decided).
                let exprs: Vec<LinExpr> =
                    vars.iter().map(|v| LinExpr::var(v.clone())).collect();
                let diff = Formula::and(vec![
                    fresh,
                    Formula::not(idb[name].apply(&exprs)),
                ]);
                let diff_dnf = to_dnf_pruned(&diff).simplify();
                converged &= !diff_dnf.is_satisfiable();
                new_delta.insert(name.clone(), Relation::from_dnf(vars, diff_dnf));
            }
            idb = next;
            delta = Some(new_delta);
            trace.count("datalog.rounds", 1);
            if trace.enabled() {
                // Per-round delta size (DNF disjuncts across predicates):
                // the signal that separates naive from semi-naive rounds.
                let disjuncts: usize = delta
                    .as_ref()
                    .map(|d| d.values().map(|r| r.dnf().disjuncts.len()).sum())
                    .unwrap_or(0);
                trace.count("datalog.delta_disjuncts", disjuncts as u64);
            }
            if converged {
                return Ok(EvalOutcome::Fixpoint { idb, rounds: round });
            }
        }
        Ok(EvalOutcome::Diverged {
            partial: idb,
            rounds: max_rounds.max(completed),
        })
    }

    /// The consequence computations of one round. Naive rounds (and the
    /// first round of any run) fire every rule against the full IDB; a
    /// semi-naive round with a predecessor delta fires one job per
    /// (rule, IDB body position), binding that position to the delta, and
    /// skips non-recursive rules entirely (their consequences are already
    /// in the IDB after round one).
    fn round_jobs<'r>(
        &'r self,
        strategy: Strategy,
        delta: Option<&BTreeMap<String, Relation>>,
    ) -> Vec<Job<'r>> {
        let mut jobs = Vec::new();
        for (name, _) in self.idb_predicates() {
            for (rule_idx, rule) in self.rules.iter().enumerate().filter(|(_, r)| r.head == name) {
                let delta_capable = strategy == Strategy::SemiNaive && delta.is_some();
                let idb_lits: Vec<usize> = if delta_capable {
                    rule.body
                        .iter()
                        .enumerate()
                        .filter_map(|(i, lit)| match lit {
                            Literal::Pred(p, _)
                                if self.idb_predicates().iter().any(|(n, _)| n == p) =>
                            {
                                Some(i)
                            }
                            _ => None,
                        })
                        .collect()
                } else {
                    Vec::new()
                };
                if delta_capable {
                    for i in idb_lits {
                        jobs.push(Job {
                            rule,
                            rule_idx,
                            delta_lit: Some(i),
                        });
                    }
                    // No IDB literal: nothing new can fire after round one.
                } else {
                    jobs.push(Job {
                        rule,
                        rule_idx,
                        delta_lit: None,
                    });
                }
            }
        }
        jobs
    }

    /// The quantifier-free formula for one rule's immediate consequence,
    /// over the canonical head variables `x0..`: execute the rule's
    /// compiled plan, resolving each tagged predicate leaf to the current
    /// EDB/IDB relation. With `delta`, the body literal at the given index
    /// reads the delta relation instead of the full IDB (the semi-naive
    /// variant of the rule).
    fn rule_consequence(
        &self,
        compiled: &Compiled,
        rule_idx: usize,
        edb: &Database,
        idb: &BTreeMap<String, Relation>,
        delta: Option<(usize, &BTreeMap<String, Relation>)>,
    ) -> Result<Formula, DatalogError> {
        let rule = &self.rules[rule_idx];
        let head_vars: Vec<Var> = (0..rule.head_vars.len())
            .map(|i| format!("x{}", i))
            .collect();
        // The resolver is stable for the duration of one job, so one memo
        // spans the whole plan walk: subplans shared across rule bodies
        // (interned to one node) evaluate once.
        let mut memo = HashMap::new();
        let mut stats = FoStats::default();
        let mut resolve = |tagged: &str, exprs: &[LinExpr]| -> Option<Formula> {
            let (name, pos) = tagged.split_once('@')?;
            let pos: usize = pos.parse().ok()?;
            let delta_rel = match delta {
                Some((j, d)) if j == pos => d.get(name),
                _ => None,
            };
            let rel = delta_rel
                .or_else(|| idb.get(name))
                .or_else(|| edb.relation(name))?;
            Some(rel.apply(exprs))
        };
        let qf = eval_fo(
            &compiled.plan,
            compiled.roots[rule_idx],
            &mut resolve,
            &mut memo,
            &mut stats,
        );
        let qf = qf.map_err(|e| match e {
            ExecError::UnknownPredicate(tag) => DatalogError::UnknownPredicate {
                name: tag
                    .split_once('@')
                    .map(|(n, _)| n.to_string())
                    .unwrap_or(tag),
            },
            ExecError::Unsupported(what) => {
                unreachable!("FO lowering produced a non-FO node: {what}")
            }
        })?;
        let temporaries: Vec<Var> = head_vars.iter().map(|canon| format!("__h_{canon}")).collect();
        let back: Vec<(&str, LinExpr)> = temporaries
            .iter()
            .map(String::as_str)
            .zip(head_vars.into_iter().map(LinExpr::var))
            .collect();
        Ok(qf.substitute_all(&back))
    }
}

/// The symbolic body of one rule, ready for lowering: the conjunction of its
/// literals — predicate applications kept as `Formula::Pred` leaves, tagged
/// `name@position` — with head variables renamed to the `__h_`-prefixed
/// canonical names and every body-only variable wrapped in `∃` (projection).
fn rule_body_formula(rule: &Rule) -> Formula {
    let head_vars: Vec<Var> = (0..rule.head_vars.len())
        .map(|i| format!("x{}", i))
        .collect();
    let mut parts = Vec::new();
    for (i, lit) in rule.body.iter().enumerate() {
        match lit {
            Literal::Constraint(a) => parts.push(Formula::Atom(a.clone())),
            Literal::Pred(name, args) => {
                let exprs: Vec<LinExpr> = args.iter().map(|v| LinExpr::var(v.clone())).collect();
                parts.push(Formula::Pred(format!("{}@{}", name, i), exprs));
            }
        }
    }
    let body = Formula::and(parts);
    // One simultaneous renaming: a head variable that is itself named like
    // another position's temporary is renamed once, not twice.
    let renaming: Vec<(&str, LinExpr)> = rule
        .head_vars
        .iter()
        .zip(&head_vars)
        .map(|(hv, canon)| (hv.as_str(), LinExpr::var(format!("__h_{canon}"))))
        .collect();
    let mut f = body.substitute_all(&renaming);
    for v in body.free_vars() {
        if !rule.head_vars.contains(&v) {
            f = Formula::Exists(v, Box::new(f));
        }
    }
    f
}

/// Comparison tag for the packed snapshot form (see
/// [`lcdb_recover::PackedAtom`]).
fn rel_tag(r: Rel) -> u8 {
    match r {
        Rel::Lt => 0,
        Rel::Le => 1,
        Rel::Eq => 2,
        Rel::Ge => 3,
        Rel::Gt => 4,
    }
}

fn tag_rel(t: u8) -> Option<Rel> {
    match t {
        0 => Some(Rel::Lt),
        1 => Some(Rel::Le),
        2 => Some(Rel::Eq),
        3 => Some(Rel::Ge),
        4 => Some(Rel::Gt),
        _ => None,
    }
}

/// Serialize a relation's DNF structurally: every atom becomes its
/// comparison tag, exact constant, and exact `(variable, coefficient)`
/// terms. No pretty-printing, no parsing on the way back.
fn pack_dnf(dnf: &Dnf) -> IdbRepr {
    IdbRepr::Packed(
        dnf.disjuncts
            .iter()
            .map(|conj| {
                conj.iter()
                    .map(|a| PackedAtom {
                        rel: rel_tag(a.rel),
                        constant: a.expr.constant_term().to_string(),
                        terms: a
                            .expr
                            .terms()
                            .map(|(v, c)| (v.clone(), c.to_string()))
                            .collect(),
                    })
                    .collect()
            })
            .collect(),
    )
}

/// Restore a packed DNF. Every defect — unknown comparison tag, unparsable
/// rational — is reported as a message for [`DatalogError::Snapshot`].
fn unpack_dnf(disjuncts: &[Vec<PackedAtom>]) -> Result<Dnf, String> {
    let mut out = Vec::with_capacity(disjuncts.len());
    for conj in disjuncts {
        let mut atoms = Vec::with_capacity(conj.len());
        for pa in conj {
            let rel =
                tag_rel(pa.rel).ok_or_else(|| format!("unknown relation tag {}", pa.rel))?;
            let constant: Rational = pa
                .constant
                .parse()
                .map_err(|_| format!("unparsable constant '{}'", pa.constant))?;
            let mut terms = Vec::with_capacity(pa.terms.len());
            for (v, c) in &pa.terms {
                let coeff: Rational = c
                    .parse()
                    .map_err(|_| format!("unparsable coefficient '{}'", c))?;
                terms.push((v.clone(), coeff));
            }
            atoms.push(Atom {
                expr: LinExpr::from_terms(terms, constant),
                rel,
            });
        }
        out.push(atoms);
    }
    Ok(Dnf { disjuncts: out })
}

/// Semantic inclusion of finitely represented relations: `a ⊆ b` iff
/// `a ∧ ¬b` is unsatisfiable. Exact, via LP on the DNF of the difference.
pub fn subset_of(a: &Relation, b: &Relation) -> bool {
    assert_eq!(a.arity(), b.arity());
    // Align variable names.
    let vars = a.var_names().to_vec();
    let exprs: Vec<LinExpr> = vars.iter().map(|v| LinExpr::var(v.clone())).collect();
    let diff = Formula::and(vec![
        a.dnf().to_formula(),
        Formula::not(b.apply(&exprs)),
    ]);
    !to_dnf_pruned(&diff).is_satisfiable()
}

/// Semantic equality of relations.
pub fn same_relation(a: &Relation, b: &Relation) -> bool {
    subset_of(a, b) && subset_of(b, a)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::{int, rat};
    use lcdb_logic::{parse_formula, Rel};

    fn rel1(src: &str) -> Relation {
        Relation::new(vec!["x".into()], parse_formula(src).unwrap())
    }

    fn atom(src: &str) -> lcdb_logic::Atom {
        match parse_formula(src).unwrap() {
            Formula::Atom(a) => a,
            other => panic!("expected atom, got {}", other),
        }
    }

    #[test]
    fn subset_semantics() {
        assert!(subset_of(&rel1("0 < x and x < 1"), &rel1("0 <= x and x <= 1")));
        assert!(!subset_of(&rel1("0 <= x and x <= 1"), &rel1("0 < x and x < 1")));
        assert!(same_relation(
            &rel1("0 < x and x < 10"),
            &rel1("(0 < x and x < 6) or (6 < x and x < 10) or x = 6"),
        ));
    }

    /// Reachability within a *bounded* window terminates: points reachable
    /// from S by repeatedly stepping +1 while staying below 5.
    #[test]
    fn bounded_step_program_terminates() {
        let mut edb = Database::new();
        edb.insert("S", rel1("0 <= x and x <= 1"));
        // reach(x) :- S(x).
        // reach(x) :- reach(y), x = y + 1, x <= 5.
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
                    Literal::Constraint(atom("x - y = 1")),
                    Literal::Constraint(atom("x <= 5")),
                ],
            ));
        match program.evaluate(&edb, 20) {
            EvalOutcome::Fixpoint { idb, rounds } => {
                let reach = &idb["reach"];
                assert!(rounds <= 8, "rounds {}", rounds);
                assert!(reach.contains(&[int(0)]));
                assert!(reach.contains(&[int(3)]));
                assert!(reach.contains(&[rat(9, 2)]));
                assert!(reach.contains(&[int(5)]));
                assert!(!reach.contains(&[rat(11, 2)]));
                assert!(!reach.contains(&[int(-1)]));
            }
            EvalOutcome::Diverged { rounds, .. } => {
                panic!("bounded program diverged after {} rounds", rounds)
            }
        }
    }

    /// The unbounded translation program diverges — the paper's §1 point:
    /// naive recursion over (ℝ, <, +) does not terminate.
    #[test]
    fn westward_translation_diverges() {
        let mut edb = Database::new();
        edb.insert("S", rel1("0 <= x and x <= 1"));
        // reach(x) :- S(x).
        // reach(x) :- reach(y), x = y + 1.       (no bound!)
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
                    Literal::Constraint(atom("x - y = 1")),
                ],
            ));
        match program.evaluate(&edb, 12) {
            EvalOutcome::Fixpoint { rounds, .. } => {
                panic!("unbounded translation converged?! rounds={}", rounds)
            }
            EvalOutcome::Diverged { partial, rounds } => {
                assert_eq!(rounds, 12);
                // The partial result keeps growing: stage 12 contains 11-ish.
                assert!(partial["reach"].contains(&[int(11)]));
                assert!(!partial["reach"].contains(&[int(100)]));
            }
        }
    }

    /// A budget stops the divergent program with a typed error carrying
    /// the partial IDB, distinct from the expected `Diverged` verdict.
    #[test]
    fn budget_aborts_divergent_program() {
        let mut edb = Database::new();
        edb.insert("S", rel1("0 <= x and x <= 1"));
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
                    Literal::Constraint(atom("x - y = 1")),
                ],
            ));
        let budget = EvalBudget::unlimited().with_max_fix_iterations(3);
        match program.try_evaluate(&edb, 12, &budget) {
            Err(DatalogError::Budget { error, partial, rounds }) => {
                assert!(matches!(error, BudgetError::IterationLimit { limit: 3 }));
                assert_eq!(rounds, 3);
                // Three completed rounds: the window [0, 1+3] is reached.
                assert!(partial["reach"].contains(&[int(3)]));
            }
            other => panic!("expected budget abort, got {:?}", other.map(|_| ())),
        }
        // An unknown predicate is a query error, not budget exhaustion.
        let bad = Program::new().rule(Rule::new(
            "p",
            vec!["x".into()],
            vec![Literal::Pred("missing".into(), vec!["x".into()])],
        ));
        match bad.try_evaluate(&edb, 2, &EvalBudget::unlimited()) {
            Err(DatalogError::UnknownPredicate { name }) => assert_eq!(name, "missing"),
            other => panic!("expected UnknownPredicate, got {:?}", other.map(|_| ())),
        }
    }

    /// Joining two EDB relations through a constraint.
    #[test]
    fn join_rule() {
        let mut edb = Database::new();
        edb.insert("A", rel1("0 <= x and x <= 2"));
        edb.insert("B", rel1("1 <= x and x <= 3"));
        // C(x) :- A(x), B(x).
        let program = Program::new().rule(Rule::new(
            "C",
            vec!["x".into()],
            vec![
                Literal::Pred("A".into(), vec!["x".into()]),
                Literal::Pred("B".into(), vec!["x".into()]),
            ],
        ));
        match program.evaluate(&edb, 5) {
            EvalOutcome::Fixpoint { idb, rounds } => {
                assert!(rounds <= 3);
                let c = &idb["C"];
                assert!(c.contains(&[rat(3, 2)]));
                assert!(!c.contains(&[rat(1, 2)]));
                assert!(!c.contains(&[rat(7, 2)]));
            }
            other => panic!("{:?}", other),
        }
    }

    /// Binary IDB: the "between" closure of an interval family.
    #[test]
    fn binary_idb_projection() {
        let mut edb = Database::new();
        edb.insert(
            "Seg",
            Relation::new(
                vec!["x".into(), "y".into()],
                parse_formula("0 <= x and x <= 1 and 2 <= y and y <= 3").unwrap(),
            ),
        );
        // Mid(z) :- Seg(x, y), 2*z = x + y.
        let program = Program::new().rule(Rule::new(
            "Mid",
            vec!["z".into()],
            vec![
                Literal::Pred("Seg".into(), vec!["x".into(), "y".into()]),
                Literal::Constraint(lcdb_logic::Atom::new(
                    LinExpr::var("z").scale(&int(2)),
                    Rel::Eq,
                    LinExpr::var("x").add(&LinExpr::var("y")),
                )),
            ],
        ));
        match program.evaluate(&edb, 5) {
            EvalOutcome::Fixpoint { idb, .. } => {
                let mid = &idb["Mid"];
                assert!(mid.contains(&[rat(3, 2)])); // midpoint of (1,2)
                assert!(mid.contains(&[int(1)]));    // midpoint of (0,2)
                assert!(mid.contains(&[int(2)]));    // midpoint of (1,3)
                assert!(!mid.contains(&[rat(9, 2)]));
            }
            other => panic!("{:?}", other),
        }
    }

    /// Head variables named like the renaming's own temporaries, crosswise:
    /// `Swap(__h_x1, __h_x0) :- Seg(__h_x0, __h_x1)` is `Swap(b, a) :- Seg(a, b)`.
    #[test]
    fn head_variables_named_like_temporaries() {
        let mut edb = Database::new();
        edb.insert(
            "Seg",
            Relation::new(
                vec!["x".into(), "y".into()],
                parse_formula("0 <= x and x <= 1 and 2 <= y and y <= 3").unwrap(),
            ),
        );
        let swap = |first: &str, second: &str| {
            let program = Program::new().rule(Rule::new(
                "Swap",
                vec![second.into(), first.into()],
                vec![Literal::Pred("Seg".into(), vec![first.into(), second.into()])],
            ));
            match program.evaluate(&edb, 5) {
                EvalOutcome::Fixpoint { idb, .. } => idb["Swap"].clone(),
                other => panic!("{:?}", other),
            }
        };
        let plain = swap("a", "b");
        assert!(plain.contains(&[rat(5, 2), rat(1, 2)]));
        assert!(!plain.contains(&[rat(1, 2), rat(5, 2)]));
        assert_eq!(swap("__h_x0", "__h_x1"), plain);
    }

    fn bounded_reach_program() -> (Database, Program) {
        let mut edb = Database::new();
        edb.insert("S", rel1("0 <= x and x <= 1"));
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
                    Literal::Constraint(atom("x - y = 1")),
                    Literal::Constraint(atom("x <= 5")),
                ],
            ));
        (edb, program)
    }

    /// An abort → checkpoint → resume cycle lands on the same semantic
    /// fixpoint, in the same total number of rounds, as an uninterrupted run.
    #[test]
    fn checkpoint_resume_matches_uninterrupted() {
        let (edb, program) = bounded_reach_program();
        let full = match program.evaluate(&edb, 20) {
            EvalOutcome::Fixpoint { idb, rounds } => (idb, rounds),
            other => panic!("{:?}", other),
        };
        // Kill the run after 2 completed rounds, persist, and restore
        // through the binary snapshot encoding (not just in memory).
        let budget = EvalBudget::unlimited().with_max_fix_iterations(2);
        let err = program
            .try_evaluate(&edb, 20, &budget)
            .expect_err("iteration cap must trip");
        let snap = program.checkpoint(&err).expect("budget abort checkpoints");
        let bytes = snap.encode();
        let restored = Snapshot::decode(&bytes).expect("snapshot round-trips");
        match program.resume_from(&edb, 20, &EvalBudget::unlimited(), &restored) {
            Ok(EvalOutcome::Fixpoint { idb, rounds }) => {
                assert_eq!(rounds, full.1, "resume must not add or skip rounds");
                for (name, rel) in &full.0 {
                    assert!(same_relation(rel, &idb[name]), "relation '{name}' differs");
                }
            }
            other => panic!("expected fixpoint on resume, got {:?}", other.map(|_| ())),
        }
    }

    /// A legacy text-representation snapshot (what decoding a version-1
    /// file yields) resumes to the same fixpoint as the packed form — the
    /// cross-version compatibility contract of the snapshot format.
    #[test]
    fn text_repr_snapshot_resumes_like_packed() {
        let (edb, program) = bounded_reach_program();
        let full = match program.evaluate(&edb, 20) {
            EvalOutcome::Fixpoint { idb, rounds } => (idb, rounds),
            other => panic!("{:?}", other),
        };
        let budget = EvalBudget::unlimited().with_max_fix_iterations(2);
        let err = program.try_evaluate(&edb, 20, &budget).expect_err("cap");
        let (partial, rounds) = match &err {
            DatalogError::Budget {
                partial, rounds, ..
            } => (partial, *rounds),
            other => panic!("{other:?}"),
        };
        // Build the snapshot the way version 1 did: relations rendered to
        // surface syntax, re-parsed on resume.
        let text = Snapshot::Datalog(DatalogSnapshot {
            program_fingerprint: program.fingerprint(),
            rounds: rounds as u64,
            idb: partial
                .iter()
                .map(|(name, rel)| IdbRelation {
                    name: name.clone(),
                    vars: rel.var_names().to_vec(),
                    repr: IdbRepr::Text(rel.dnf().to_formula().to_string()),
                })
                .collect(),
        });
        let packed = program.checkpoint(&err).expect("checkpoints");
        for snap in [text, packed] {
            match program.resume_from(&edb, 20, &EvalBudget::unlimited(), &snap) {
                Ok(EvalOutcome::Fixpoint { idb, rounds }) => {
                    assert_eq!(rounds, full.1);
                    for (name, rel) in &full.0 {
                        assert!(same_relation(rel, &idb[name]), "relation '{name}' differs");
                    }
                }
                other => panic!("expected fixpoint, got {:?}", other.map(|_| ())),
            }
        }
    }

    /// Fingerprints come from the canonical plan hashes: head-variable
    /// renaming (which lowering normalizes away) does not change them,
    /// different rules do.
    #[test]
    fn fingerprint_is_plan_canonical() {
        let body = |v: &str| vec![Literal::Pred("S".into(), vec![v.into()])];
        let p1 = Program::new().rule(Rule::new("p", vec!["x".into()], body("x")));
        let p2 = Program::new().rule(Rule::new("p", vec!["y".into()], body("y")));
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        let p3 = Program::new().rule(Rule::new(
            "p",
            vec!["x".into()],
            vec![Literal::Pred("T".into(), vec!["x".into()])],
        ));
        assert_ne!(p1.fingerprint(), p3.fingerprint());
    }

    /// Snapshots are bound to the program that wrote them.
    #[test]
    fn snapshot_rejected_for_wrong_program() {
        let (edb, program) = bounded_reach_program();
        let budget = EvalBudget::unlimited().with_max_fix_iterations(1);
        let err = program.try_evaluate(&edb, 20, &budget).expect_err("cap");
        let snap = program.checkpoint(&err).expect("checkpoints");
        // A different program (extra rule) must refuse the snapshot.
        let other = program.clone().rule(Rule::new(
            "reach",
            vec!["x".into()],
            vec![Literal::Constraint(atom("x = 7"))],
        ));
        match other.resume_from(&edb, 20, &EvalBudget::unlimited(), &snap) {
            Err(DatalogError::Snapshot { message }) => {
                assert!(message.contains("fingerprint mismatch"), "{message}");
            }
            other => panic!("expected Snapshot error, got {:?}", other.map(|_| ())),
        }
        // A fixpoint-kind snapshot is refused outright.
        let fix = Snapshot::Fixpoint(lcdb_recover::FixpointSnapshot::default());
        match program.resume_from(&edb, 20, &EvalBudget::unlimited(), &fix) {
            Err(DatalogError::Snapshot { message }) => {
                assert!(message.contains("not datalog"), "{message}");
            }
            other => panic!("expected Snapshot error, got {:?}", other.map(|_| ())),
        }
        // Non-budget errors carry no progress to checkpoint.
        assert!(program
            .checkpoint(&DatalogError::UnknownPredicate { name: "q".into() })
            .is_none());
    }

    /// Semi-naive and naive rounds land on the same semantic fixpoint in
    /// the same number of rounds.
    #[test]
    fn semi_naive_matches_naive() {
        let (edb, program) = bounded_reach_program();
        let budget = EvalBudget::unlimited();
        let outcomes: Vec<(BTreeMap<String, Relation>, usize)> =
            [Strategy::Naive, Strategy::SemiNaive]
                .into_iter()
                .map(|strategy| {
                    let untraced = lcdb_trace::TraceHandle::disabled_ref();
                    match program
                        .try_evaluate_traced(&edb, 20, &budget, strategy, untraced)
                        .unwrap()
                    {
                        EvalOutcome::Fixpoint { idb, rounds } => (idb, rounds),
                        other => panic!("{:?}", other),
                    }
                })
                .collect();
        let (ref_idb, ref_rounds) = &outcomes[0];
        for (idb, rounds) in &outcomes[1..] {
            assert_eq!(rounds, ref_rounds);
            for (name, rel) in ref_idb {
                assert!(same_relation(rel, &idb[name]), "relation '{name}' differs");
            }
        }
    }

    /// Divergence verdicts agree across strategies: the unbounded program
    /// is still (correctly) non-terminating under semi-naive rounds.
    #[test]
    fn semi_naive_diverges_like_naive() {
        let mut edb = Database::new();
        edb.insert("S", rel1("0 <= x and x <= 1"));
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
                    Literal::Constraint(atom("x - y = 1")),
                ],
            ));
        let untraced = lcdb_trace::TraceHandle::disabled_ref();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            match program
                .try_evaluate_traced(&edb, 8, &EvalBudget::unlimited(), strategy, untraced)
                .unwrap()
            {
                EvalOutcome::Diverged { partial, rounds } => {
                    assert_eq!(rounds, 8, "{strategy:?}");
                    assert!(partial["reach"].contains(&[int(7)]), "{strategy:?}");
                }
                other => panic!("{strategy:?}: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "repeated head variable")]
    fn repeated_head_vars_rejected() {
        let _ = Rule::new(
            "P",
            vec!["x".into(), "x".into()],
            vec![Literal::Pred("S".into(), vec!["x".into()])],
        );
    }
}
