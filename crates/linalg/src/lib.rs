//! Exact rational linear algebra for constraint-database geometry.
//!
//! Everything the arrangement construction of Kreutzer (PODS 2000) §3 and the
//! Appendix-A decomposition need: dense rational matrices, Gaussian
//! elimination / reduced row echelon form, linear system solving, nullspace
//! bases, determinants, and canonical representations of affine subspaces
//! ("flats").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flat;
mod matrix;
mod vector;

pub use flat::Flat;
pub use matrix::{Matrix, RrefResult};
pub use vector::{dot, dot_sign, scale, vec_add, vec_sub, QVector};
