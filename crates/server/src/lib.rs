//! `lcdb-server`: a dependency-free concurrent query server for linear
//! constraint databases.
//!
//! The crate turns the library evaluator into a long-running service:
//!
//! * [`proto`] — the versioned, length-prefixed wire protocol. Decoding is
//!   total (typed errors, never panics) and oversized length prefixes are
//!   rejected before allocation.
//! * [`server`] — the service itself: per-connection sessions with their
//!   own databases, a bounded admission queue drained fairly (round-robin
//!   across clients), per-request deadlines whose clock starts at enqueue,
//!   cancel tokens wired to connection close, overload shedding with
//!   `RETRY_AFTER` hints, idle/read timeouts, and `server.accept` /
//!   `server.read` / `server.dispatch` fault-injection sites (feature
//!   `faults`) that poison at most one connection or request.
//! * [`cache`] — a shared result cache keyed by
//!   `(plan hash, database fingerprint)`.
//! * [`client`] — a blocking client with seeded-jitter retry backoff.
//! * [`load`] — the load generator behind the bundled `lcdb-load` binary.
//!
//! Everything rides on `std::net::TcpListener` and threads — no external
//! dependencies, matching the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod load;
pub mod proto;
pub mod server;

pub use cache::ResultCache;
pub use client::Client;
pub use load::{run as run_load, LoadConfig, LoadReport};
pub use proto::{OpCode, ProtoError, Request, RespCode, Response};
pub use server::{apply_define, Server, ServerConfig};
