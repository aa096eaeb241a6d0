//! The dependency-free leaf of the workspace: what several layers need and
//! none should own.
//!
//! * [`shared`] — what concurrent requests share (interned region formulas,
//!   hash-consed hyperplanes) lives behind [`ShardedMap`] and [`Interner`].
//!   Requests are the unit of parallelism: the server's dispatch workers
//!   each run one evaluation at a time, and an evaluation runs on the
//!   thread that called it. Nothing in this crate starts a thread.
//! * [`codec`] — the little-endian writers and the one bounds-checked,
//!   offset-reporting [`codec::Cursor`] behind every durable format.
//! * [`hash`] — the process-stable FNV-1a-64 accumulator (checksums,
//!   fingerprints, canonical plan hashes) and SplitMix64.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod hash;
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
