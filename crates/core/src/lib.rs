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
pub use evaluator::{query_fingerprint, EvalStats, Evaluator, ProfEntry, Quarantine};
pub use lower::{compile, explain_query};
pub use lcdb_budget::work;
pub use lcdb_budget::{BudgetError, CancelToken, EvalBudget};
pub use lcdb_exec::Pool;
pub use lcdb_recover::{RecoverError, Snapshot};
pub use lcdb_trace::{
    aggregate as trace_aggregate, Event as TraceEvent, JsonlTracer, MemoryTracer, MetricsRegistry,
    NullTracer, TraceHandle, TraceSummary, Tracer,
};
pub use parser::parse_regformula;
pub use persist::{database_fingerprint, PlanCatalog, Resumable};
pub use regfo::{FixMode, RegFormula, RegionVar, SetVar};
pub use region::{
    ArrangementRegions, Decomposition, DecompositionKind, Nc1Regions, RegionData,
    RegionExtension, UpdateDelta,
};
