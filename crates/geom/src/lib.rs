//! Computational geometry substrate for linear constraint databases.
//!
//! Implements the two decompositions of Kreutzer (PODS 2000):
//!
//! * [`Arrangement`] — the hyperplane arrangement `A(S)` of §3: faces as
//!   realizable sign vectors over the induced hyperplane set `𝔥(S)`, with
//!   dimensions, relative-interior witness points, recession rays, the
//!   face poset, and the incidence graph (including the improper faces).
//! * [`nc1`] — the vertex-fan decomposition of Appendix A (`regions(ψ)` per
//!   disjunct): vertices, cube-based boundedness test, inner/outer regions as
//!   relatively open convex hulls, and ray regions for unbounded polyhedra.
//!
//! Both produce *regions* (connected, sign- or membership-homogeneous subsets
//! of ℝ^d) that the region logics of `lcdb-core` quantify over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrangement;
pub mod hull;
mod hyperplane;
pub mod nc1;
mod vrep;

pub use arrangement::{Arrangement, Face, FaceId, IncidenceGraph, IncidenceNode, Side, SignVector};
pub use hyperplane::{extract_hyperplanes, Hyperplane};
pub use hull::convex_closure;
pub use vrep::VPolyhedron;
