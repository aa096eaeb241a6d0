//! Shared-state primitives for cross-request reuse, and the remnant of the
//! intra-query worker pool.
//!
//! Requests are the unit of parallelism: the server's dispatch workers each
//! run one evaluation at a time, and an evaluation runs on the thread that
//! called it. What concurrent requests share — interned region formulas,
//! hash-consed hyperplanes — lives behind [`ShardedMap`] and [`Interner`];
//! see [`shared`]. Nothing in this crate starts a thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shared;

pub use shared::{Interner, ShardedMap};

/// Inert remnant of the deleted intra-query scheduler, kept because
/// `benchmark/src/engine.rs` names it: nothing reads a `Pool`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Pool;

impl Pool {
    /// The pool; every evaluation runs on its caller's thread.
    pub fn serial() -> Self {
        Pool
    }

    /// Same as [`Pool::serial`]: `threads` is ignored.
    pub fn new(_threads: usize) -> Self {
        Pool
    }
}
