//! The catalog: named blobs keyed by plan and database fingerprints.
//!
//! The catalog is the store's root structure: a map from [`EntryKey`] to the
//! page chain holding the blob, plus the allocation watermarks. It lives in
//! memory while the store is open and is made durable two ways: every
//! mutation is WAL-logged first, and a checkpoint writes the whole catalog
//! as an atomically-renamed, checksummed snapshot (`store.cat`) after which
//! the WAL is reset. Recovery is `snapshot + replay`, and replay is
//! idempotent, so either the old or the new snapshot works.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use lcdb_exec::codec::{put_str, put_u32, put_u64, put_u8, Cursor};
use crate::StoreError;
use lcdb_exec::hash::fnv1a64;

/// Entry class: a named DNF relation (keyed by name).
pub const CLASS_RELATION: u8 = 1;
/// Entry class: a completed hyperplane arrangement (keyed by db fingerprint).
pub const CLASS_ARRANGEMENT: u8 = 2;
/// Entry class: a rendered query/sentence result (keyed by plan ⊕ db).
pub const CLASS_RESULT: u8 = 3;
/// Entry class: the fixpoint stages of an aborted evaluation (keyed by plan
/// ⊕ db), kept until a later run resumes from them and completes.
pub const CLASS_FIXPOINT: u8 = 4;
/// Entry class: an append-only telemetry segment (keyed by name, e.g.
/// `req-00000042`); see the `stats` module.
pub const CLASS_STATS: u8 = 5;

/// The identity of a catalog entry: class, plan fingerprint, database
/// fingerprint, and an optional name (used by [`CLASS_RELATION`] and as a
/// human-readable tag elsewhere).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryKey {
    /// One of the `CLASS_*` constants.
    pub class: u8,
    /// Canonical plan fingerprint (0 where not applicable).
    pub plan_fp: u64,
    /// Database fingerprint (0 where not applicable).
    pub db_fp: u64,
    /// Entry name ("" where not applicable).
    pub name: String,
}

impl EntryKey {
    /// A human-readable rendering for errors and the CLI.
    pub fn render(&self) -> String {
        let class = match self.class {
            CLASS_RELATION => "relation",
            CLASS_ARRANGEMENT => "arrangement",
            CLASS_RESULT => "result",
            CLASS_FIXPOINT => "fixpoint",
            CLASS_STATS => "stats",
            other => return format!("class{other}:{:016x}:{:016x}:{}", self.plan_fp, self.db_fp, self.name),
        };
        format!("{class}:{:016x}:{:016x}:{}", self.plan_fp, self.db_fp, self.name)
    }
}

/// A catalog entry: where a blob lives and how to validate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatEntry {
    /// The entry's identity.
    pub key: EntryKey,
    /// Relation names this entry was computed from; redefining any of them
    /// invalidates the entry.
    pub deps: Vec<String>,
    /// Blob identity stamped into every page of the chain.
    pub blob_id: u64,
    /// The blob's pages in chain order.
    pub pages: Vec<u32>,
    /// Total blob length in bytes.
    pub total_len: u64,
    /// FNV-1a-64 over the blob bytes.
    pub checksum: u64,
}

/// The in-memory catalog plus allocation watermarks.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    /// All live entries.
    pub entries: BTreeMap<EntryKey, CatEntry>,
    /// Next log sequence number to assign.
    pub next_lsn: u64,
    /// Next blob id to assign.
    pub next_blob: u64,
}

const CAT_MAGIC: &[u8; 8] = b"LCDBCAT1";
const CAT_VERSION: u32 = 1;

impl Catalog {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.next_lsn);
        put_u64(&mut out, self.next_blob);
        put_u64(&mut out, self.entries.len() as u64);
        for e in self.entries.values() {
            put_u8(&mut out, e.key.class);
            put_u64(&mut out, e.key.plan_fp);
            put_u64(&mut out, e.key.db_fp);
            put_str(&mut out, &e.key.name);
            put_u32(&mut out, e.deps.len() as u32);
            for d in &e.deps {
                put_str(&mut out, d);
            }
            put_u64(&mut out, e.blob_id);
            put_u32(&mut out, e.pages.len() as u32);
            for p in &e.pages {
                put_u32(&mut out, *p);
            }
            put_u64(&mut out, e.total_len);
            put_u64(&mut out, e.checksum);
        }
        out
    }

    /// Serialize to the snapshot file format:
    /// magic · version · checksum(payload) · payload-len · payload.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(28 + payload.len());
        out.extend_from_slice(CAT_MAGIC);
        put_u32(&mut out, CAT_VERSION);
        put_u64(&mut out, fnv1a64(&payload));
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    /// Decode a snapshot, verifying magic, version, and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Catalog, StoreError> {
        let mut c = Cursor::new(bytes, "catalog");
        if c.take(CAT_MAGIC.len(), "snapshot magic")? != CAT_MAGIC {
            return Err(StoreError::BadMagic { file: "catalog" });
        }
        let version = c.u32("snapshot version")?;
        if version > CAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                file: "catalog",
                found: version,
                supported: CAT_VERSION,
            });
        }
        let expected = c.u64("snapshot checksum")?;
        let len = c.len_prefix("snapshot payload length")?;
        let payload_start = bytes.len() - c.remaining();
        let payload = &bytes[payload_start..payload_start + len];
        let found = fnv1a64(payload);
        if expected != found {
            return Err(StoreError::ChecksumMismatch {
                file: "catalog",
                expected,
                found,
            });
        }
        let mut c = Cursor::with_base(payload, payload_start as u64, "catalog");
        let next_lsn = c.u64("next lsn")?;
        let next_blob = c.u64("next blob id")?;
        let count = c.u64("entry count")?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let class = c.u8("entry class")?;
            let plan_fp = c.u64("entry plan fingerprint")?;
            let db_fp = c.u64("entry db fingerprint")?;
            let name = c.string("entry name")?;
            let ndeps = c.u32("entry dep count")?;
            let mut deps = Vec::with_capacity(ndeps.min(1024) as usize);
            for _ in 0..ndeps {
                deps.push(c.string("entry dep name")?);
            }
            let blob_id = c.u64("entry blob id")?;
            let npages = c.u32("entry page count")?;
            let mut pages = Vec::with_capacity(npages.min(65_536) as usize);
            for _ in 0..npages {
                pages.push(c.u32("entry page number")?);
            }
            let total_len = c.u64("entry blob length")?;
            let checksum = c.u64("entry blob checksum")?;
            let key = EntryKey {
                class,
                plan_fp,
                db_fp,
                name,
            };
            entries.insert(
                key.clone(),
                CatEntry {
                    key,
                    deps,
                    blob_id,
                    pages,
                    total_len,
                    checksum,
                },
            );
        }
        c.done("catalog snapshot")?;
        Ok(Catalog {
            entries,
            next_lsn,
            next_blob,
        })
    }

    /// Write the snapshot atomically: serialize to `path.tmp`, fsync,
    /// rename over `path`. A crash leaves the old snapshot or the new one,
    /// never a torn mixture.
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.encode();
        let tmp = path.with_extension("cat.tmp");
        {
            let mut f = File::create(&tmp)
                .map_err(|e| StoreError::io("creating the catalog snapshot", e))?;
            f.write_all(&bytes)
                .map_err(|e| StoreError::io("writing the catalog snapshot", e))?;
            f.sync_all()
                .map_err(|e| StoreError::io("fsyncing the catalog snapshot", e))?;
        }
        std::fs::rename(&tmp, path)
            .map_err(|e| StoreError::io("renaming the catalog snapshot into place", e))?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = OpenOptions::new().read(true).open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Load a snapshot file; a missing file is an empty catalog.
    pub fn load_from(path: &Path) -> Result<Catalog, StoreError> {
        match std::fs::read(path) {
            Ok(bytes) => Catalog::decode(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Catalog::default()),
            Err(e) => Err(StoreError::io("reading the catalog snapshot", e)),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut cat = Catalog {
            next_lsn: 42,
            next_blob: 7,
            ..Catalog::default()
        };
        let key = EntryKey {
            class: CLASS_ARRANGEMENT,
            plan_fp: 0,
            db_fp: 0xdead_beef,
            name: "arr:R".into(),
        };
        cat.entries.insert(
            key.clone(),
            CatEntry {
                key,
                deps: vec!["R".into(), "S".into()],
                blob_id: 3,
                pages: vec![0, 1, 5],
                total_len: 9000,
                checksum: 0x1234,
            },
        );
        cat
    }

    #[test]
    fn snapshot_roundtrip() {
        let cat = sample();
        let back = Catalog::decode(&cat.encode()).unwrap();
        assert_eq!(back.next_lsn, 42);
        assert_eq!(back.next_blob, 7);
        assert_eq!(back.entries, cat.entries);
    }

    #[test]
    fn truncated_snapshot_is_typed_with_offset() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match Catalog::decode(&bytes[..cut]) {
                Ok(_) => panic!("prefix of {cut} bytes decoded"),
                Err(
                    StoreError::Truncated { .. }
                    | StoreError::BadMagic { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Malformed { .. },
                ) => {}
                Err(other) => panic!("unexpected error at cut {cut}: {other}"),
            }
        }
    }

    #[test]
    fn corrupted_snapshot_byte_is_detected() {
        let bytes = sample().encode();
        // Flip one bit in the payload region.
        let mut bad = bytes.clone();
        let idx = bytes.len() - 3;
        bad[idx] ^= 0x40;
        assert!(matches!(
            Catalog::decode(&bad),
            Err(StoreError::ChecksumMismatch { file: "catalog", .. })
                | Err(StoreError::Malformed { .. })
        ));
    }
}
