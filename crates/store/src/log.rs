//! The record log: numbered segment files of checksummed records.
//!
//! A segment file (`{n:08}.log`) is a sequence of frames, each
//!
//! ```text
//! u32 payload_len · u64 fnv1a64(payload) · payload
//! ```
//!
//! whose payload is one [`Record`]: a `Put` (tag 1 · key · blob bytes) or a
//! `Delete` (tag 2 · key count · keys). A frame is written, then fsynced
//! before the operation returns; that is the commit point, and the frame is
//! the blob's only copy on disk. Replay reads frames from a position onward
//! and stops at the first one whose header, length, checksum or body fails
//! (a torn tail from an interrupted append); the store truncates it there.

use std::path::{Path, PathBuf};

use crate::{EntryKey, StoreError};
use lcdb_exec::codec::{put_bytes, put_u64, put_u8, Cursor};
use lcdb_exec::hash::Fnv;

/// Largest record payload the log accepts; a bigger length prefix is read
/// as tail corruption.
pub const MAX_RECORD: usize = 1 << 26; // 64 MiB

/// Bytes of a frame's header: the payload length and its checksum.
pub(crate) const FRAME_HEADER: usize = 4 + 8;

const TAG_PUT: u8 = 1;
const TAG_DELETE: u8 = 2;

/// One logged operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Insert or replace the blob stored under `key`.
    Put {
        /// The entry's identity.
        key: EntryKey,
        /// The blob bytes.
        data: Vec<u8>,
    },
    /// Remove every listed entry: one key for a delete, every victim for an
    /// eviction. The keys are explicit, so replay needs no recency and a
    /// multi-entry eviction is one record that is never half-applied.
    Delete {
        /// The removed entries' keys.
        keys: Vec<EntryKey>,
    },
}

impl Record {
    /// The record's frame, header included.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Record::Put { key, data } => put_frame(key, data).0,
            Record::Delete { keys } => delete_frame(keys).0,
        }
    }

    /// Decode exactly one frame as [`Record::encode`] writes it: a short
    /// frame is `Truncated`, a payload that fails its checksum is
    /// `ChecksumMismatch`, and trailing bytes or a bad body are `Malformed`.
    pub fn decode(frame: &[u8]) -> Result<Record, StoreError> {
        let mut c = Cursor::new(frame, "log");
        let len = c.u32("record length")? as usize;
        let expected = c.u64("record checksum")?;
        let payload = c.take(len, "record payload")?;
        c.done("log record")?;
        let found = payload_sum(payload);
        if found != expected {
            return Err(StoreError::ChecksumMismatch {
                file: "log",
                expected,
                found,
            });
        }
        decode_payload(payload, FRAME_HEADER as u64)
    }
}

/// The frame of a `Put`, built without copying `data` into a [`Record`],
/// and its [`frame_sum`].
pub(crate) fn put_frame(key: &EntryKey, data: &[u8]) -> (Vec<u8>, u64) {
    let mut out = Vec::with_capacity(FRAME_HEADER + 64 + data.len());
    out.resize(FRAME_HEADER, 0);
    put_u8(&mut out, TAG_PUT);
    key.encode(&mut out);
    put_bytes(&mut out, data);
    seal(out)
}

/// The frame of a `Delete` of `keys`, and its [`frame_sum`].
pub(crate) fn delete_frame(keys: &[EntryKey]) -> (Vec<u8>, u64) {
    let mut out = vec![0; FRAME_HEADER];
    put_u8(&mut out, TAG_DELETE);
    put_u64(&mut out, keys.len() as u64);
    for key in keys {
        key.encode(&mut out);
    }
    seal(out)
}

/// Fill in the header of a frame whose payload follows `FRAME_HEADER`
/// zero bytes, and return it with its [`frame_sum`].
fn seal(mut frame: Vec<u8>) -> (Vec<u8>, u64) {
    let (header, payload) = frame.split_at_mut(FRAME_HEADER);
    let mut h = Fnv::new();
    h.bytes(payload);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&h.finish().to_le_bytes());
    h.bytes(header);
    (frame, h.finish())
}

fn payload_sum(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(payload);
    h.finish()
}

/// The index's checksum of a whole frame: FNV-1a-64 over the payload and
/// then the header, so a flipped byte anywhere in the frame changes it.
/// Its running value after the payload is the checksum the header records.
pub(crate) fn frame_sum(frame: &[u8]) -> u64 {
    let (header, payload) = frame.split_at(FRAME_HEADER.min(frame.len()));
    let mut h = Fnv::new();
    h.bytes(payload);
    h.bytes(header);
    h.finish()
}

/// Decode a payload that starts at absolute offset `base`.
pub(crate) fn decode_payload(payload: &[u8], base: u64) -> Result<Record, StoreError> {
    let mut c = Cursor::with_base(payload, base, "log");
    let record = match c.u8("record tag")? {
        TAG_PUT => Record::Put {
            key: EntryKey::decode(&mut c)?,
            data: c.bytes("put blob bytes")?.to_vec(),
        },
        TAG_DELETE => Record::Delete {
            keys: c.seq("delete key count", EntryKey::decode)?,
        },
        other => {
            return Err(StoreError::Malformed {
                context: "log record tag",
                message: format!("unknown tag {other} at byte offset {base}"),
            })
        }
    };
    c.done("log record")?;
    Ok(record)
}

/// One record found by [`scan`].
pub(crate) struct Scanned {
    /// Byte offset of the frame in its segment.
    pub offset: u64,
    /// Frame length, header included.
    pub len: u32,
    /// [`frame_sum`] of the frame.
    pub checksum: u64,
    pub record: Record,
}

/// Read the frames of `bytes` (one segment's contents) from offset `from`,
/// stopping at the first whose header, length, checksum or body fails.
/// Returns the records and, if it stopped early, the torn tail's offset.
pub(crate) fn scan(bytes: &[u8], from: u64) -> (Vec<Scanned>, Option<u64>) {
    let mut records = Vec::new();
    let mut pos = (from as usize).min(bytes.len());
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        let torn = Some(pos as u64);
        if rest.len() < FRAME_HEADER {
            return (records, torn);
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if len > MAX_RECORD || rest.len() < FRAME_HEADER + len {
            return (records, torn);
        }
        let frame = &rest[..FRAME_HEADER + len];
        let Ok(record) = Record::decode(frame) else {
            return (records, torn);
        };
        records.push(Scanned {
            offset: pos as u64,
            len: frame.len() as u32,
            checksum: frame_sum(frame),
            record,
        });
        pos += FRAME_HEADER + len;
    }
    (records, None)
}

/// The path of segment `no` in the store directory `dir`.
pub(crate) fn segment_path(dir: &Path, no: u32) -> PathBuf {
    dir.join(format!("{no:08}.log"))
}

/// The numbers of the segment files in `dir`, ascending.
pub(crate) fn segment_numbers(dir: &Path) -> Result<Vec<u32>, StoreError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| StoreError::io("listing the segments", e))? {
        let entry = entry.map_err(|e| StoreError::io("listing the segments", e))?;
        let name = entry.file_name();
        let no = name
            .to_str()
            .and_then(|n| n.strip_suffix(".log"))
            .and_then(|n| n.parse::<u32>().ok());
        out.extend(no);
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn put(n: u64) -> Record {
        Record::Put {
            key: EntryKey {
                class: 3,
                plan_fp: 7,
                db_fp: 9,
                name: format!("r{n}"),
            },
            data: vec![0xAB; 100],
        }
    }

    #[test]
    fn roundtrip_and_torn_tail() {
        let mut log = Vec::new();
        for rec in [put(1), put(2)] {
            let frame = rec.encode();
            assert_eq!(Record::decode(&frame).unwrap(), rec);
            log.extend_from_slice(&frame);
        }
        let (recs, torn) = scan(&log, 0);
        assert_eq!(recs.len(), 2);
        assert!(torn.is_none());
        assert_eq!(recs[1].offset, u64::from(recs[0].len));

        // Chop the log at every prefix: scanning never fails, and recovers
        // exactly the records whose frames are complete, in order.
        for cut in 0..log.len() {
            let (recs, torn) = scan(&log[..cut], 0);
            let whole = recs.len() as u64 * u64::from(put(1).encode().len() as u32);
            assert_eq!(torn, (whole < cut as u64).then_some(whole));
            for (i, r) in recs.iter().enumerate() {
                assert_eq!(r.record, put(i as u64 + 1));
            }
        }
    }
}
