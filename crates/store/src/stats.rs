//! The persistent telemetry segment: append-only batches of stats rows
//! stored as log records.
//!
//! Telemetry is stored as [`CLASS_STATS`] catalog entries. Each entry is one
//! *batch*: a newline-joined block of rows (one JSON object per row) under a
//! name of the form `{kind}-{seq:08}` — the zero-padded sequence number
//! makes the catalog's `BTreeMap` ordering the append order, so reading a
//! kind back yields rows in the order they were written. Batches are never
//! rewritten; appending is one `put`, one atomic log record, so a crash
//! loses at most the batch being written, never corrupts earlier telemetry.
//!
//! One kind is in use today: `req`, one row per server request, written by
//! the query server. The row payloads are opaque to this module; they are
//! flat objects of strings and unsigned integers, and `lcdb stats` derives
//! its views from them with [`json_u64_field`] — the exact field reader
//! `lcdb-trace` parses its own JSONL events with.

use crate::catalog::{EntryKey, CLASS_STATS};
use crate::store::Store;
use crate::StoreError;

pub use lcdb_trace::json_u64_field;

/// Append one batch of telemetry rows under `kind`, returning the batch's
/// sequence number. Rows must not contain newlines (they are newline-joined
/// on disk); embedded newlines would split a row on read-back.
pub fn append_stats(store: &mut Store, kind: &str, rows: &[String]) -> Result<u64, StoreError> {
    if rows.is_empty() {
        return Ok(next_seq(store, kind));
    }
    let seq = next_seq(store, kind);
    let key = stats_key(kind, seq);
    let blob = rows.join("\n");
    store.put(key, blob.as_bytes())?;
    Ok(seq)
}

/// Read back every row of `kind`, in append order across all batches.
/// A batch whose record fails its checksum is reported as the underlying
/// [`StoreError`]; earlier batches are unaffected.
pub fn read_stats(store: &mut Store, kind: &str) -> Result<Vec<String>, StoreError> {
    let keys = stats_keys(store, kind);
    let mut out = Vec::new();
    for key in keys {
        let Some(blob) = store.get(&key)? else {
            continue;
        };
        let text = String::from_utf8(blob).map_err(|_| StoreError::Malformed {
            context: "stats batch",
            message: format!("{} is not UTF-8", key.render()),
        })?;
        out.extend(text.lines().map(String::from));
    }
    Ok(out)
}

/// Read back the rows of `kind` batch by batch, in append order: one
/// `(batch name, rows)` pair per batch. `lcdb stats latency` uses the batch
/// boundaries as its unit of "run" when charting a latency trajectory.
pub fn read_stats_batched(
    store: &mut Store,
    kind: &str,
) -> Result<Vec<(String, Vec<String>)>, StoreError> {
    let keys = stats_keys(store, kind);
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let Some(blob) = store.get(&key)? else {
            continue;
        };
        let text = String::from_utf8(blob).map_err(|_| StoreError::Malformed {
            context: "stats batch",
            message: format!("{} is not UTF-8", key.render()),
        })?;
        out.push((key.name.clone(), text.lines().map(String::from).collect()));
    }
    Ok(out)
}

/// The number of batches stored under `kind`.
pub fn stats_batches(store: &Store, kind: &str) -> u64 {
    let prefix = format!("{kind}-");
    store
        .entries()
        .filter(|e| e.key.class == CLASS_STATS && e.key.name.starts_with(&prefix))
        .count() as u64
}

/// The catalog key of batch `seq` of `kind`.
fn stats_key(kind: &str, seq: u64) -> EntryKey {
    EntryKey {
        class: CLASS_STATS,
        plan_fp: 0,
        db_fp: 0,
        name: format!("{kind}-{seq:08}"),
    }
}

/// All batch keys of `kind`, in sequence order (the catalog's key order,
/// thanks to the zero-padded names).
fn stats_keys(store: &Store, kind: &str) -> Vec<EntryKey> {
    let prefix = format!("{kind}-");
    store
        .entries()
        .filter(|e| e.key.class == CLASS_STATS && e.key.name.starts_with(&prefix))
        .map(|e| e.key.clone())
        .collect()
}

/// One past the highest existing sequence number of `kind`.
fn next_seq(store: &Store, kind: &str) -> u64 {
    let prefix = format!("{kind}-");
    store
        .entries()
        .filter(|e| e.key.class == CLASS_STATS)
        .filter_map(|e| e.key.name.strip_prefix(&prefix))
        .filter_map(|seq| seq.parse::<u64>().ok())
        .map(|seq| seq + 1)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lcdb-stats-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_preserve_order_across_batches_and_reopens() {
        let dir = scratch("roundtrip");
        {
            let mut store = Store::init(&dir).unwrap();
            append_stats(&mut store, "req", &["r1".into(), "r2".into()]).unwrap();
            append_stats(&mut store, "req", &["r3".into()]).unwrap();
            append_stats(&mut store, "other", &["b1".into()]).unwrap();
            store.checkpoint().unwrap();
        }
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(read_stats(&mut store, "req").unwrap(), vec!["r1", "r2", "r3"]);
        assert_eq!(read_stats(&mut store, "other").unwrap(), vec!["b1"]);
        assert_eq!(stats_batches(&store, "req"), 2);
        // Appending after a reopen continues the sequence.
        append_stats(&mut store, "req", &["r4".into()]).unwrap();
        assert_eq!(
            read_stats(&mut store, "req").unwrap(),
            vec!["r1", "r2", "r3", "r4"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batches_write_nothing() {
        let dir = scratch("empty");
        let mut store = Store::init(&dir).unwrap();
        append_stats(&mut store, "req", &[]).unwrap();
        assert_eq!(stats_batches(&store, "req"), 0);
        assert!(read_stats(&mut store, "req").unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
