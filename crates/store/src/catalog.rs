//! The catalog: named blobs keyed by plan and database fingerprints.
//!
//! The catalog is the store's index: a map from [`EntryKey`] to the log
//! record holding the blob, plus the position the index covers the log up
//! to. It lives in memory while the store is open. A checkpoint writes it as
//! an atomically renamed, checksummed image (`store.cat`); an open loads the
//! image and replays the log records behind its position.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use crate::{kill, StoreError};
use lcdb_exec::codec::{put_str, put_u32, put_u64, put_u8, Cursor};
use lcdb_exec::hash::fnv1a64;

/// Entry class: a completed hyperplane arrangement (keyed by a fingerprint
/// of the hyperplanes it was built over).
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
/// fingerprint, and an optional name (a human-readable tag; the telemetry
/// batches of [`CLASS_STATS`] are told apart by it).
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
            CLASS_ARRANGEMENT => "arrangement",
            CLASS_RESULT => "result",
            CLASS_FIXPOINT => "fixpoint",
            CLASS_STATS => "stats",
            other => return format!("class{other}:{:016x}:{:016x}:{}", self.plan_fp, self.db_fp, self.name),
        };
        format!("{class}:{:016x}:{:016x}:{}", self.plan_fp, self.db_fp, self.name)
    }

    /// Append the key to a catalog image, log record or state dump.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, self.class);
        put_u64(out, self.plan_fp);
        put_u64(out, self.db_fp);
        put_str(out, &self.name);
    }

    /// Read a key written by [`EntryKey::encode`].
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<EntryKey, StoreError> {
        Ok(EntryKey {
            class: c.u8("entry class")?,
            plan_fp: c.u64("entry plan fingerprint")?,
            db_fp: c.u64("entry db fingerprint")?,
            name: c.string("entry name")?,
        })
    }
}

/// A catalog entry: the record holding a blob and how to validate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatEntry {
    /// The entry's identity.
    pub key: EntryKey,
    /// The segment holding the entry's `Put` record.
    pub segment: u32,
    /// Byte offset of the record's frame in its segment.
    pub offset: u64,
    /// Length of the frame, header included.
    pub len: u32,
    /// Blob length in bytes.
    pub total_len: u64,
    /// FNV-1a-64 over the frame's payload and then its header.
    pub checksum: u64,
    /// Write order: an entry's recency after an open starts from it.
    pub seq: u64,
}

/// The in-memory index plus the log position it covers.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    /// All live entries.
    pub entries: BTreeMap<EntryKey, CatEntry>,
    /// The `(segment, offset)` the index covers the log up to: an open
    /// replays the records from there on.
    pub tail: (u32, u64),
    /// Next write sequence number to assign.
    pub next_seq: u64,
}

const CAT_MAGIC: &[u8; 8] = b"LCDBCAT1";
/// Version 3 locates each entry by log record where 2 listed its pages.
const CAT_VERSION: u32 = 3;

impl Catalog {
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.next_seq);
        put_u32(&mut out, self.tail.0);
        put_u64(&mut out, self.tail.1);
        put_u64(&mut out, self.entries.len() as u64);
        for e in self.entries.values() {
            e.key.encode(&mut out);
            put_u32(&mut out, e.segment);
            put_u64(&mut out, e.offset);
            put_u32(&mut out, e.len);
            put_u64(&mut out, e.total_len);
            put_u64(&mut out, e.checksum);
            put_u64(&mut out, e.seq);
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
        if version != CAT_VERSION {
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
        let next_seq = c.u64("next sequence number")?;
        let tail = (c.u32("tail segment")?, c.u64("tail offset")?);
        let entries = c.seq("entry count", |c| {
            let e = CatEntry {
                key: EntryKey::decode(c)?,
                segment: c.u32("entry segment")?,
                offset: c.u64("entry offset")?,
                len: c.u32("entry record length")?,
                total_len: c.u64("entry blob length")?,
                checksum: c.u64("entry record checksum")?,
                seq: c.u64("entry sequence number")?,
            };
            Ok::<_, StoreError>((e.key.clone(), e))
        })?;
        c.done("catalog snapshot")?;
        Ok(Catalog {
            entries: entries.into_iter().collect(),
            tail,
            next_seq,
        })
    }

    /// Write the snapshot atomically: serialize to `path.tmp`, fsync,
    /// rename over `path`. A crash leaves the old snapshot or the new one,
    /// never a torn mixture. Kill points (`store.checkpoint`) sit before
    /// the write, before the rename and after it.
    pub fn write_to(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.encode();
        let tmp = path.with_extension("cat.tmp");
        kill::point("store.checkpoint");
        {
            let mut f = File::create(&tmp)
                .map_err(|e| StoreError::io("creating the catalog snapshot", e))?;
            f.write_all(&bytes)
                .map_err(|e| StoreError::io("writing the catalog snapshot", e))?;
            f.sync_all()
                .map_err(|e| StoreError::io("fsyncing the catalog snapshot", e))?;
        }
        kill::point("store.checkpoint");
        std::fs::rename(&tmp, path)
            .map_err(|e| StoreError::io("renaming the catalog snapshot into place", e))?;
        if let Some(dir) = path.parent() {
            sync_dir(dir);
        }
        kill::point("store.checkpoint");
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

/// Best-effort fsync of a directory, so a file created or renamed in it
/// stays there after a crash.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = OpenOptions::new().read(true).open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut cat = Catalog {
            tail: (4, 42),
            next_seq: 7,
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
                segment: 3,
                offset: 512,
                len: 9040,
                total_len: 9000,
                checksum: 0x1234,
                seq: 5,
            },
        );
        cat
    }

    #[test]
    fn snapshot_roundtrip() {
        let cat = sample();
        let back = Catalog::decode(&cat.encode()).unwrap();
        assert_eq!(back.tail, (4, 42));
        assert_eq!(back.next_seq, 7);
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
