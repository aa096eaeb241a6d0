//! The write-ahead log (`store.wal`).
//!
//! Append-only records, each framed as:
//!
//! ```text
//! u32 payload_len · u64 fnv1a64(payload) · payload
//! ```
//!
//! The payload carries the log sequence number, the operation, and — for
//! puts — the full blob bytes *and the exact page numbers assigned to it*,
//! i.e. physical redo logging. Replay therefore rewrites precisely the page
//! images the fault-free writer would have produced, which is what lets the
//! crash-torture harness demand byte-identical recovery.
//!
//! Fsync discipline: `append` issues `sync_all` before returning — the
//! record is the commit point; data pages are written only after it and may
//! stay volatile until the next checkpoint. Replay stops at the first frame
//! whose length, checksum, or body does not parse, truncates the file
//! there (a torn tail from an interrupted append), and reports the offset.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use lcdb_exec::codec::{put_bytes, put_u32, put_u64, put_u8, Cursor};
use crate::{kill, EntryKey, StoreError};
use lcdb_exec::hash::fnv1a64;

/// Largest record payload `replay` will accept; a bigger length prefix is
/// treated as tail corruption.
pub const MAX_RECORD: usize = 1 << 26; // 64 MiB

const FRAME_HEADER: usize = 4 + 8;

/// One logged operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or replace the blob stored under `key`.
    Put {
        /// The entry's identity.
        key: EntryKey,
        /// Blob identity stamped into every page of the chain.
        blob_id: u64,
        /// The exact pages assigned to the blob, in chain order.
        pages: Vec<u32>,
        /// The blob bytes.
        data: Vec<u8>,
    },
    /// Remove every listed entry, freeing its pages: one key for a delete,
    /// every victim for an eviction. The keys are explicit, so replay
    /// needs no recency and a multi-entry eviction is one record that can
    /// never be half-applied.
    Delete {
        /// The removed entries' keys.
        keys: Vec<EntryKey>,
    },
}

/// A record as appended and replayed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number, strictly increasing within a WAL generation.
    pub lsn: u64,
    /// The operation.
    pub op: WalOp,
}

const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, rec.lsn);
    match &rec.op {
        WalOp::Put {
            key,
            blob_id,
            pages,
            data,
        } => {
            put_u8(&mut out, OP_PUT);
            key.encode(&mut out);
            put_u64(&mut out, *blob_id);
            put_u32(&mut out, pages.len() as u32);
            for p in pages {
                put_u32(&mut out, *p);
            }
            put_bytes(&mut out, data);
        }
        WalOp::Delete { keys } => {
            put_u8(&mut out, OP_DELETE);
            put_u32(&mut out, keys.len() as u32);
            for key in keys {
                key.encode(&mut out);
            }
        }
    }
    out
}

fn decode_payload(payload: &[u8], base: u64) -> Result<WalRecord, StoreError> {
    let mut c = Cursor::with_base(payload, base, "wal");
    let lsn = c.u64("record lsn")?;
    let tag = c.u8("record op tag")?;
    let op = match tag {
        OP_PUT => {
            let key = EntryKey::decode(&mut c)?;
            let blob_id = c.u64("put blob id")?;
            let npages = c.u32("put page count")?;
            let mut pages = Vec::with_capacity(npages.min(65_536) as usize);
            for _ in 0..npages {
                pages.push(c.u32("put page number")?);
            }
            let data = c.bytes("put blob bytes")?.to_vec();
            WalOp::Put {
                key,
                blob_id,
                pages,
                data,
            }
        }
        OP_DELETE => {
            let nkeys = c.u32("delete key count")?;
            let mut keys = Vec::with_capacity(nkeys.min(65_536) as usize);
            for _ in 0..nkeys {
                keys.push(EntryKey::decode(&mut c)?);
            }
            WalOp::Delete { keys }
        }
        other => {
            return Err(StoreError::Malformed {
                context: "wal record op tag",
                message: format!("unknown tag {other} at byte offset {}", base + 8),
            })
        }
    };
    c.done("wal record")?;
    Ok(WalRecord { lsn, op })
}

/// What replay found, including whether a torn tail was truncated.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Committed records replayed.
    pub records: usize,
    /// Byte offset the WAL was truncated to, if a torn tail was found.
    pub torn_at: Option<u64>,
    /// Why the tail was judged torn.
    pub torn_reason: Option<String>,
}

/// An open, append-position WAL.
pub struct Wal {
    file: File,
    len: u64,
}

impl Wal {
    /// Open (creating if missing) and seek to the end. Call
    /// [`Wal::replay`] first — it truncates any torn tail.
    pub fn open_end(path: &Path) -> Result<Wal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io("opening the wal", e))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seeking the wal", e))?;
        Ok(Wal { file, len })
    }

    /// Current length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Append one record and fsync it. Returning `Ok` is the commit point:
    /// the record will survive any crash after this call.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), StoreError> {
        let payload = encode_payload(rec);
        if payload.len() > MAX_RECORD {
            return Err(StoreError::TooLarge {
                len: payload.len(),
                max: MAX_RECORD,
            });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u64(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);

        // Kill points bracket every durability transition of the append:
        // nothing written · torn frame · full frame unsynced · committed.
        kill::point("store.wal_append");
        let half = frame.len() / 2;
        self.file
            .write_all(&frame[..half])
            .map_err(|e| StoreError::io("appending a wal record", e))?;
        kill::point("store.wal_append");
        self.file
            .write_all(&frame[half..])
            .map_err(|e| StoreError::io("appending a wal record", e))?;
        kill::point("store.wal_append");
        self.file
            .sync_all()
            .map_err(|e| StoreError::io("fsyncing the wal", e))?;
        kill::point("store.wal_append");
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Truncate the log to empty (after a successful checkpoint).
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(0)
            .map_err(|e| StoreError::io("truncating the wal", e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| StoreError::io("seeking the wal", e))?;
        self.file
            .sync_all()
            .map_err(|e| StoreError::io("fsyncing the wal", e))?;
        self.len = 0;
        Ok(())
    }

    /// Read every committed record, truncating a torn tail in place.
    ///
    /// Returns the records in append order plus a [`ReplayReport`]. A frame
    /// whose header is incomplete, whose length is implausible, whose
    /// checksum fails, or whose body does not parse marks the torn tail:
    /// everything from its start is cut and the file re-synced.
    pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, ReplayReport), StoreError> {
        let mut report = ReplayReport::default();
        let mut records = Vec::new();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((records, report)),
            Err(e) => return Err(StoreError::io("reading the wal", e)),
        };
        let mut pos = 0usize;
        let mut torn: Option<(u64, String)> = None;
        while pos < bytes.len() {
            let rest = &bytes[pos..];
            if rest.len() < FRAME_HEADER {
                torn = Some((pos as u64, format!("{} trailing bytes, frame header needs {FRAME_HEADER}", rest.len())));
                break;
            }
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let sum = u64::from_le_bytes([
                rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
            ]);
            if len > MAX_RECORD {
                torn = Some((pos as u64, format!("implausible record length {len}")));
                break;
            }
            if rest.len() < FRAME_HEADER + len {
                torn = Some((
                    pos as u64,
                    format!("record claims {len} payload bytes, {} remain", rest.len() - FRAME_HEADER),
                ));
                break;
            }
            let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
            let found = fnv1a64(payload);
            if found != sum {
                torn = Some((
                    pos as u64,
                    format!("payload checksum mismatch (recorded {sum:016x}, computed {found:016x})"),
                ));
                break;
            }
            match decode_payload(payload, pos as u64 + FRAME_HEADER as u64) {
                Ok(rec) => records.push(rec),
                Err(e) => {
                    torn = Some((pos as u64, format!("record body does not parse: {e}")));
                    break;
                }
            }
            pos += FRAME_HEADER + len;
        }
        report.records = records.len();
        if let Some((at, reason)) = torn {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| StoreError::io("opening the wal for truncation", e))?;
            f.set_len(at)
                .map_err(|e| StoreError::io("truncating the torn wal tail", e))?;
            f.sync_all()
                .map_err(|e| StoreError::io("fsyncing the truncated wal", e))?;
            report.torn_at = Some(at);
            report.torn_reason = Some(reason);
        }
        Ok((records, report))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rec(lsn: u64) -> WalRecord {
        WalRecord {
            lsn,
            op: WalOp::Put {
                key: EntryKey {
                    class: 3,
                    plan_fp: 7,
                    db_fp: 9,
                    name: format!("r{lsn}"),
                },
                blob_id: lsn,
                pages: vec![0, 1],
                data: vec![0xAB; 100],
            },
        }
    }

    #[test]
    fn roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("lcdb-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut w = Wal::open_end(&path).unwrap();
            w.append(&rec(1)).unwrap();
            w.append(&rec(2)).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let (recs, rep) = Wal::replay(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(rep.torn_at.is_none());

        // Chop the file at every prefix: replay must never fail, and must
        // recover exactly the records whose frames are complete.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (recs, _rep) = Wal::replay(&path).unwrap();
            assert!(recs.len() <= 2);
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
