//! Exact arbitrary-precision arithmetic for linear constraint databases.
//!
//! The computation model of Kreutzer (PODS 2000) stores rational coefficients
//! as pairs of integers written bitwise on a Turing tape. This crate provides
//! that model faithfully:
//!
//! * [`BigUint`] — unsigned magnitudes as little-endian `u32` limbs,
//! * [`BigInt`] — signed integers,
//! * [`Rational`] — normalized fractions with positive denominator.
//!
//! The `rBIT` operator of the paper needs bit-level access to numerators and
//! denominators; see [`BigUint::bit`] and [`Rational`] accessors.
//!
//! All types implement the full set of arithmetic operators for owned values
//! and references, total ordering, hashing, and decimal parsing/printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod biguint;
mod rational;

pub use bigint::{BigInt, Sign};
pub use biguint::BigUint;
pub use rational::Rational;

/// Error type for parsing numbers from strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNumError {
    msg: String,
}

impl ParseNumError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl std::fmt::Display for ParseNumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "number parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseNumError {}

/// Convenience constructor: a rational from an integer numerator/denominator pair.
///
/// # Panics
/// Panics if `den == 0`.
pub fn rat(num: i64, den: i64) -> Rational {
    Rational::from_i64s(num, den)
}

/// Convenience constructor: an integer rational.
pub const fn int(n: i64) -> Rational {
    Rational::from_int(n)
}
