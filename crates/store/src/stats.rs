//! The persistent telemetry segment: append-only batches of stats rows
//! layered on the store's WAL-durable pages.
//!
//! Telemetry is stored as [`CLASS_STATS`] catalog entries. Each entry is one
//! *batch*: a newline-joined block of rows (one JSON object per row) under a
//! name of the form `{kind}-{seq:08}` — the zero-padded sequence number
//! makes the catalog's `BTreeMap` ordering the append order, so reading a
//! kind back yields rows in the order they were written. Batches are never
//! rewritten; appending is one `put`, which the WAL makes atomic, so a crash
//! loses at most the batch being written, never corrupts earlier telemetry.
//!
//! Two kinds are in use today: `req` (one row per server request, written by
//! the query server) and `bench` (one row per experiment run, written by
//! `lcdb stats import` from `BENCH_*.json` files). The row payloads are
//! opaque to this module; the [`Json`] value parser below is what `lcdb
//! stats` uses to derive views from them.

use crate::catalog::{EntryKey, CLASS_STATS};
use crate::store::Store;
use crate::StoreError;

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
    store.put(key, &[], blob.as_bytes())?;
    Ok(seq)
}

/// Read back every row of `kind`, in append order across all batches.
/// A batch whose pages were quarantined by corruption is reported as the
/// underlying [`StoreError`]; earlier batches are unaffected.
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

// ---------------------------------------------------------------------------
// A minimal JSON value parser for telemetry rows and bench files
// ---------------------------------------------------------------------------

/// A parsed JSON value. Just enough JSON for telemetry rows, `BENCH_*.json`
/// imports, and `perf_baseline.json` — objects, arrays, strings with the
/// escapes our writers emit, f64 numbers, booleans, null. Not a validating
/// parser: it accepts some invalid JSON, which is fine for data we wrote
/// ourselves, and rejects anything it cannot make sense of.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included), as an `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON value from `text` (surrounding whitespace tolerated).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let v = parse_value(bytes, &mut at)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing bytes at offset {at}"));
        }
        Ok(v)
    }

    /// The value of `key` in an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of `key` in an object, if present and a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value of `key`, truncated to `u64` (absent or negative
    /// values become `None`).
    pub fn u64(&self, key: &str) -> Option<u64> {
        let n = self.num(key)?;
        if n < 0.0 {
            return None;
        }
        Some(n as u64)
    }

    /// The string value of `key` in an object, if present and a string.
    pub fn str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && matches!(b[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Result<Json, String> {
    skip_ws(b, at);
    match b.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *at += 1;
            let mut pairs = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b'}') {
                *at += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, at);
                let key = match parse_value(b, at)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key is not a string: {other:?}")),
                };
                skip_ws(b, at);
                if b.get(*at) != Some(&b':') {
                    return Err(format!("expected ':' at offset {at}"));
                }
                *at += 1;
                pairs.push((key, parse_value(b, at)?));
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b'}') => {
                        *at += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {at}")),
                }
            }
        }
        Some(b'[') => {
            *at += 1;
            let mut items = Vec::new();
            skip_ws(b, at);
            if b.get(*at) == Some(&b']') {
                *at += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, at)?);
                skip_ws(b, at);
                match b.get(*at) {
                    Some(b',') => *at += 1,
                    Some(b']') => {
                        *at += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {at}")),
                }
            }
        }
        Some(b'"') => {
            *at += 1;
            let mut s = String::new();
            loop {
                match b.get(*at) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        *at += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *at += 1;
                        match b.get(*at) {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'r') => s.push('\r'),
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*at + 1..*at + 5)
                                    .ok_or("truncated \\u escape")?;
                                let hex =
                                    std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| "bad \\u escape")?;
                                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                *at += 4;
                            }
                            other => return Err(format!("unknown escape {other:?}")),
                        }
                        *at += 1;
                    }
                    Some(_) => {
                        // Advance one UTF-8 scalar, not one byte.
                        let rest = std::str::from_utf8(&b[*at..])
                            .map_err(|_| "string is not UTF-8")?;
                        let c = rest.chars().next().ok_or("unterminated string")?;
                        s.push(c);
                        *at += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if b[*at..].starts_with(b"true") => {
            *at += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*at..].starts_with(b"false") => {
            *at += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*at..].starts_with(b"null") => {
            *at += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *at;
            while *at < b.len()
                && matches!(b[*at], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&b[start..*at]).map_err(|_| "bad number")?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number '{text}' at offset {start}"))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::StoreOptions;

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
            append_stats(&mut store, "bench", &["b1".into()]).unwrap();
            store.checkpoint().unwrap();
        }
        let mut store = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(read_stats(&mut store, "req").unwrap(), vec!["r1", "r2", "r3"]);
        assert_eq!(read_stats(&mut store, "bench").unwrap(), vec!["b1"]);
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

    #[test]
    fn json_parses_rows_and_bench_shapes() {
        let row = r#"{"kind":"req","op":"eval_sentence","plan_fp":42,"wall_us":1500,"outcome":"ok"}"#;
        let v = Json::parse(row).unwrap();
        assert_eq!(v.str("op"), Some("eval_sentence"));
        assert_eq!(v.u64("plan_fp"), Some(42));
        assert_eq!(v.u64("wall_us"), Some(1500));
        assert_eq!(v.str("missing"), None);

        let bench = r#"{"bench":"BENCH_3","experiments":[{"id":"E3","wall_us":231976.5},{"id":"E10","wall_us":1546338}]}"#;
        let v = Json::parse(bench).unwrap();
        assert_eq!(v.str("bench"), Some("BENCH_3"));
        let exps = v.get("experiments").unwrap().items();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].str("id"), Some("E3"));
        assert_eq!(exps[0].num("wall_us"), Some(231976.5));

        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert_eq!(Json::parse("[-1.5e3, true, null]").unwrap().items().len(), 3);
    }
}
