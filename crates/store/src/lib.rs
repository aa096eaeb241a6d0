//! WAL-durable paged storage for constraint-database artifacts.
//!
//! Every other layer of the workspace rebuilds its expensive state —
//! hyperplane arrangements, query results, fixpoint stages — from text on
//! every process start. This crate gives those artifacts a crash-safe home:
//!
//! * a **paged binary file** (`store.pages`): fixed 4 KiB pages, each with a
//!   self-identifying header and an FNV-1a-64 checksum over its contents, so
//!   bit-rot and misdirected writes are detected on read, never served;
//! * a **write-ahead log** (`store.wal`): checksummed, length-prefixed
//!   records fsynced before any page is touched; replay truncates a torn
//!   tail and rewrites every page named by a committed record, so recovery
//!   always lands on the pre-write or post-write state of the interrupted
//!   operation;
//! * a small least-recently-used **buffer pool** ([`BufferPool`]);
//!   pages that fail their checksum are quarantined and reported as a typed
//!   [`StoreError`] — the store never panics on corrupt input;
//! * a **catalog** of named blobs keyed by `(class, plan fingerprint,
//!   database fingerprint, name)`, so arrangements and fixpoint results are
//!   computed once and reused across processes. A key names what its blob
//!   was computed from, so an entry never goes stale and nothing is
//!   invalidated: space comes back through [`Store::evict_lru`], which drops
//!   least-recently-used entries (never telemetry) in one WAL record.
//!
//! Crash-robustness is enforced by the [`kill`] module: environment-armed
//! process kill points at every durability-critical step (sites
//! `store.wal_append`, `store.page_flush`, `store.checkpoint`), driven by a
//! torture harness that kills a writer at hundreds of seeded points and
//! byte-checks the recovered state against fault-free baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcdb_exec::codec::CodecError;
use std::fmt;
use std::path::PathBuf;

pub mod kill;
pub mod stats;

mod catalog;
mod page;
mod pool;
mod store;
mod wal;

pub use catalog::{
    Catalog, CatEntry, EntryKey, CLASS_ARRANGEMENT, CLASS_FIXPOINT, CLASS_RESULT, CLASS_STATS,
};
pub use stats::{append_stats, json_u64_field, read_stats, read_stats_batched, stats_batches};
pub use page::{PAGE_PAYLOAD, PAGE_SIZE};
pub use pool::BufferPool;
pub use store::{Store, StoreOptions, StoreStat, VerifyReport};
pub use wal::{ReplayReport, WalOp, WalRecord};

/// Typed errors for every way the store can fail. The store never panics on
/// corrupt or truncated input: every defect is reported through one of these
/// variants.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O error, tagged with what the store was doing.
    Io {
        /// What the store was doing when the error occurred.
        context: &'static str,
        /// The underlying error rendered as text.
        message: String,
    },
    /// A store file began with the wrong magic bytes.
    BadMagic {
        /// Which file ("meta", "catalog", "pages").
        file: &'static str,
    },
    /// A store file was written by an unsupported format version.
    UnsupportedVersion {
        /// Which file.
        file: &'static str,
        /// The version found on disk.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// A whole-file checksum did not match (meta or catalog snapshot).
    ChecksumMismatch {
        /// Which file.
        file: &'static str,
        /// The checksum recorded on disk.
        expected: u64,
        /// The checksum recomputed from the payload.
        found: u64,
    },
    /// A page failed its checksum or self-identification on read; the page
    /// has been quarantined.
    CorruptPage {
        /// The page number.
        page: u32,
        /// The checksum recorded in the page header.
        expected: u64,
        /// The checksum recomputed from the page contents.
        found: u64,
    },
    /// A read touched a page already quarantined by an earlier failure.
    Quarantined {
        /// The page number.
        page: u32,
    },
    /// A file ended in the middle of a structure.
    Truncated {
        /// Which file.
        file: &'static str,
        /// Absolute byte offset at which the reader ran out of bytes.
        offset: u64,
        /// What was being read.
        context: &'static str,
    },
    /// A structurally invalid value (bad enum tag, impossible length, …).
    Malformed {
        /// What was being read.
        context: &'static str,
        /// Human-readable detail.
        message: String,
    },
    /// A reassembled blob did not match the checksum in its catalog entry.
    BlobChecksum {
        /// Rendered entry key.
        entry: String,
        /// The checksum recorded in the catalog.
        expected: u64,
        /// The checksum recomputed from the page payloads.
        found: u64,
    },
    /// A blob exceeded the maximum the store accepts.
    TooLarge {
        /// The offered length.
        len: usize,
        /// The maximum.
        max: usize,
    },
    /// The directory does not contain a store.
    NotAStore {
        /// The directory checked.
        dir: PathBuf,
    },
    /// `init` refused to overwrite an existing store.
    AlreadyExists {
        /// The directory checked.
        dir: PathBuf,
    },
    /// A deterministic fault injected at one of the store's sites
    /// (`faults` feature; see `lcdb_budget::faults`).
    Injected {
        /// The site that fired.
        site: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, message } => write!(f, "i/o error while {context}: {message}"),
            StoreError::BadMagic { file } => write!(f, "{file} file does not start with the store magic"),
            StoreError::UnsupportedVersion { file, found, supported } => write!(
                f,
                "{file} file has version {found}, this build reads version {supported}"
            ),
            StoreError::ChecksumMismatch { file, expected, found } => write!(
                f,
                "{file} file checksum mismatch: recorded {expected:016x}, computed {found:016x}"
            ),
            StoreError::CorruptPage { page, expected, found } => write!(
                f,
                "page {page} is corrupt (recorded checksum {expected:016x}, computed {found:016x}); page quarantined"
            ),
            StoreError::Quarantined { page } => {
                write!(f, "page {page} is quarantined after an earlier corruption")
            }
            StoreError::Truncated { file, offset, context } => write!(
                f,
                "{file} file truncated while reading {context} at byte offset {offset}"
            ),
            StoreError::Malformed { context, message } => {
                write!(f, "malformed {context}: {message}")
            }
            StoreError::BlobChecksum { entry, expected, found } => write!(
                f,
                "blob for {entry} failed its checksum (recorded {expected:016x}, computed {found:016x})"
            ),
            StoreError::TooLarge { len, max } => {
                write!(f, "blob of {len} bytes exceeds the store maximum of {max}")
            }
            StoreError::NotAStore { dir } => {
                write!(f, "{} is not an lcdb store (no store.meta)", dir.display())
            }
            StoreError::AlreadyExists { dir } => {
                write!(f, "{} already contains an lcdb store", dir.display())
            }
            StoreError::Injected { site } => write!(f, "injected fault at site '{site}'"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated {
                label,
                offset,
                context,
            } => StoreError::Truncated {
                file: label,
                offset,
                context,
            },
            CodecError::Malformed { context, message } => StoreError::Malformed { context, message },
        }
    }
}

impl StoreError {
    pub(crate) fn io(context: &'static str, err: std::io::Error) -> StoreError {
        StoreError::Io {
            context,
            message: err.to_string(),
        }
    }
}

/// Check the in-process fault site `site` (armed via `lcdb_budget::faults`
/// under the `faults` feature); a no-op otherwise.
pub(crate) fn fault_check(site: &'static str) -> Result<(), StoreError> {
    #[cfg(feature = "faults")]
    {
        if lcdb_budget::faults::check(site).is_err() {
            return Err(StoreError::Injected { site });
        }
    }
    let _ = site;
    Ok(())
}
