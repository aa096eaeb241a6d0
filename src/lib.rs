//! `lcdb` — linear constraint databases with region-based fixed-point query
//! languages.
//!
//! Facade crate re-exporting the workspace: see the crate-level docs of the
//! members for detail, and `README.md` for a tour.
//!
//! * [`arith`] — exact big integers and rationals,
//! * [`linalg`] — rational matrices and affine flats,
//! * [`lp`] — exact simplex and strict feasibility,
//! * [`logic`] — FO+LIN formulas, parsing, quantifier elimination,
//! * [`geom`] — arrangements and the NC¹ decomposition,
//! * [`core`] — the region logics RegFO/RegLFP/RegIFP/RegPFP/RegTC/RegDTC,
//! * [`tm`] — Turing machines and the capture experiment,
//! * [`datalog`] — the naive spatial-datalog baseline (terminates only
//!   sometimes; the motivation for region-restricted recursion),
//! * [`budget`] — resource governance (budgets, deadlines, cancellation),
//! * [`recover`] — the snapshot codec: the byte form of fixed-point stages
//!   (they reach a disk through [`core::PlanCatalog`]).

#![forbid(unsafe_code)]

pub use lcdb_arith as arith;
pub use lcdb_budget as budget;
pub use lcdb_core as core;
pub use lcdb_datalog as datalog;
pub use lcdb_geom as geom;
pub use lcdb_linalg as linalg;
pub use lcdb_logic as logic;
pub use lcdb_lp as lp;
pub use lcdb_recover as recover;
pub use lcdb_tm as tm;

pub use lcdb_arith::{rat, BigInt, BigUint, Rational};
pub use lcdb_core::{
    queries, BudgetError, CancelToken, Decomposition, EvalBudget, EvalError, EvalStats,
    Evaluator, Quarantine, RecoverError, RegFormula, RegionExtension, Snapshot,
};
pub use lcdb_logic::{parse_formula, Database, Formula, Relation};
