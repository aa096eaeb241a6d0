//! FO+LIN — first-order logic over the context structure `(ℝ, <, +)`.
//!
//! Linear constraint databases (Kreutzer, PODS 2000, §2) finitely represent
//! infinite relations by quantifier-free DNF formulas of linear
//! (in)equalities with integer (equivalently rational) coefficients. This
//! crate provides:
//!
//! * [`LinExpr`] / [`Atom`] — linear terms and constraints over named
//!   variables,
//! * [`Formula`] — first-order formulas with relation symbols,
//! * DNF normalization ([`dnf`]) and Fourier–Motzkin quantifier elimination
//!   ([`qe`]), which together give the *closure* property: every FO+LIN query
//!   on a linear constraint database evaluates to a quantifier-free formula,
//! * a concrete syntax ([`parse_formula`]) and pretty printer,
//! * [`Database`] — a named collection of finitely represented relations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
#[cfg(test)]
mod arb;
pub mod topology;
mod database;
pub mod dnf;
mod expr;
mod formula;
pub mod lex;
pub mod parser;
pub mod qe;

pub use database::{Database, DefineError, Relation};
pub use expr::{Atom, LinExpr};
pub use formula::Formula;
pub use lcdb_lp::Rel;
pub use parser::{parse_formula, ParseError};

/// A variable name.
pub type Var = String;
