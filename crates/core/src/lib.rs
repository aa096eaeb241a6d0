//! Region-based fixed-point query languages for linear constraint databases.
//!
//! This crate is the paper's primary contribution (Kreutzer, PODS 2000). A
//! linear constraint database `B = ((ℝ, <, +), S)` is extended to a
//! two-sorted structure `B^Reg = (ℝ, Reg; ≤, +, S, adj, ∈)` whose second
//! sort is a finite set of *regions* — a decomposition of `ℝ^d` derived from
//! the representation of `S` (Definition 4.1). Query languages quantify over
//! both sorts, but recursion (fixed points, transitive closure) is restricted
//! to the finite region sort, which buys both *termination* and *closure*:
//!
//! * [`RegFormula`] — the two-sorted language: FO over elements and regions
//!   (`RegFO`), plus `LFP`/`IFP`/`PFP` operators over sets of region tuples
//!   (`RegLFP`, `RegIFP`, `RegPFP`, §5), the technical `rBIT` operator, and
//!   `TC`/`DTC` operators (§7).
//! * [`Decomposition`] — the interface both decompositions implement:
//!   [`ArrangementRegions`] (the arrangement `A(S)` of §3) and
//!   [`Nc1Regions`] (the Appendix-A vertex-fan decomposition used for the
//!   transitive-closure logics). Note 7.1: the logics are parametric in the
//!   decomposition.
//! * [`Evaluator`] — evaluates queries against a region extension. Sentences
//!   evaluate to booleans; formulas with free element variables evaluate to
//!   quantifier-free FO+LIN formulas (the closure property, Theorem 4.3).
//! * [`queries`] — the paper's worked examples (topological connectivity,
//!   the GIS river query of Fig. 6) and further library queries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod evaluator;
pub mod lower;
mod parser;
pub mod persist;
pub mod queries;
mod region;
mod regfo;

pub use error::EvalError;
pub use evaluator::{
    query_fingerprint, EvalOutcome, EvalStats, Evaluator, ProfEntry, Quarantine,
};
pub use lower::{compile, explain_query};
pub use lcdb_budget::{BudgetError, CancelToken, EvalBudget};
pub use lcdb_exec::Pool;
pub use lcdb_recover::{RecoverError, Snapshot};
pub use lcdb_trace::{
    aggregate as trace_aggregate, Event as TraceEvent, JsonlTracer, MemoryTracer, MetricsRegistry,
    NullTracer, TraceHandle, TraceSummary, Tracer,
};
pub use parser::parse_regformula;
pub use persist::{database_fingerprint, DecompositionKind, PlanCatalog, Resumable};
pub use regfo::{FixMode, RegFormula, RegionVar, SetVar};
pub use region::{
    ArrangementRegions, Decomposition, Nc1Regions, RegionData, RegionExtension, UpdateDelta,
};

/// Convenience: evaluate a region-logic *sentence* against a database
/// relation using the arrangement decomposition.
pub fn eval_sentence_arrangement(
    relation: &lcdb_logic::Relation,
    sentence: &RegFormula,
) -> bool {
    let ext = RegionExtension::arrangement(relation.clone());
    Evaluator::new(&ext).eval_sentence(sentence)
}

/// Convenience: evaluate a region-logic *sentence* using the NC¹
/// decomposition of Appendix A.
pub fn eval_sentence_nc1(relation: &lcdb_logic::Relation, sentence: &RegFormula) -> bool {
    let ext = RegionExtension::nc1(relation.clone());
    Evaluator::new(&ext).eval_sentence(sentence)
}

/// Budget-governed form of [`eval_sentence_arrangement`]: decomposition
/// construction *and* sentence evaluation both run under `budget`. On
/// success the verdict is returned together with the work counters; on
/// exhaustion the [`EvalError`] carries the partial counters instead.
///
/// The budget's deadline is armed when [`EvalBudget::with_timeout`] is
/// called, so build a fresh budget per query.
pub fn try_eval_sentence_arrangement(
    relation: &lcdb_logic::Relation,
    sentence: &RegFormula,
    budget: &EvalBudget,
) -> Result<(bool, EvalStats), EvalError> {
    let ext = RegionExtension::try_arrangement(relation.clone(), budget)?;
    let ev = Evaluator::with_budget(&ext, budget.clone());
    let verdict = ev.try_eval_sentence(sentence)?;
    Ok((verdict, ev.stats()))
}

/// Budget-governed form of [`eval_sentence_nc1`]; see
/// [`try_eval_sentence_arrangement`].
pub fn try_eval_sentence_nc1(
    relation: &lcdb_logic::Relation,
    sentence: &RegFormula,
    budget: &EvalBudget,
) -> Result<(bool, EvalStats), EvalError> {
    let ext = RegionExtension::try_nc1(relation.clone(), budget)?;
    let ev = Evaluator::with_budget(&ext, budget.clone());
    let verdict = ev.try_eval_sentence(sentence)?;
    Ok((verdict, ev.stats()))
}
