//! Integration tests for the store: durability round-trips, corruption
//! detection, least-recently-used eviction, compaction, and the bound on
//! the bytes on disk.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use lcdb_store::{
    EntryKey, Record, Store, StoreError, CLASS_ARRANGEMENT, CLASS_FIXPOINT, CLASS_RESULT,
    CLASS_STATS, SEGMENT_BYTES,
};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-store-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(class: u8, plan_fp: u64, db_fp: u64, name: &str) -> EntryKey {
    EntryKey {
        class,
        plan_fp,
        db_fp,
        name: name.to_string(),
    }
}

fn blob(len: usize, fill: u8) -> Vec<u8> {
    (0..len).map(|i| fill.wrapping_add(i as u8)).collect()
}

#[test]
fn roundtrip_survives_reopen() {
    let dir = scratch("roundtrip");
    let k1 = key(CLASS_RESULT, 1, 2, "");
    let k2 = key(CLASS_ARRANGEMENT, 0, 5, "arrangement");
    let big = blob(12_315, 7);
    {
        let mut s = Store::init(&dir).unwrap();
        s.put(k1.clone(), b"TRUE").unwrap();
        s.put(k2.clone(), &big).unwrap();
        assert_eq!(s.get(&k1).unwrap().unwrap(), b"TRUE");
        // No checkpoint: recovery must come entirely from the replay.
    }
    {
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(&k1).unwrap().unwrap(), b"TRUE");
        assert_eq!(s.get(&k2).unwrap().unwrap(), big);
        s.checkpoint().unwrap();
    }
    {
        // After a checkpoint nothing is behind the index: state comes from
        // the index image and reads of the records it points to.
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.stat().wal_bytes, 0);
        assert_eq!(s.get(&k2).unwrap().unwrap(), big);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replace_and_delete_free_pages() {
    let dir = scratch("replace");
    let mut s = Store::init(&dir).unwrap();
    let k = key(CLASS_RESULT, 9, 9, "");
    s.put(k.clone(), &blob(8_128, 1)).unwrap();
    s.put(k.clone(), b"small").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"small");
    assert_eq!(s.live_bytes(), 5);
    assert!(s.delete(&k).unwrap());
    assert!(!s.delete(&k).unwrap());
    assert!(s.get(&k).unwrap().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Four 100-byte entries of the evictable classes, put in order `a b c d`.
fn four_entries(s: &mut Store) -> [EntryKey; 4] {
    let keys = [
        key(CLASS_RESULT, 1, 9, "result"),
        key(CLASS_ARRANGEMENT, 0, 9, "arrangement"),
        key(CLASS_FIXPOINT, 2, 9, "fixpoint"),
        key(CLASS_RESULT, 3, 9, "result"),
    ];
    for (i, k) in keys.iter().enumerate() {
        s.put(k.clone(), &blob(100, i as u8)).unwrap();
    }
    keys
}

#[test]
fn eviction_drops_the_least_recently_used_first() {
    let dir = scratch("evict-lru");
    let mut s = Store::init(&dir).unwrap();
    let [a, b, c, d] = four_entries(&mut s);
    assert_eq!(s.live_bytes(), 400);
    // Under the target: nothing goes.
    assert_eq!(s.evict_lru(400).unwrap(), 0);
    assert_eq!(s.stat().entries, 4);
    // 400 live bytes down to 250: the two oldest puts.
    assert_eq!(s.evict_lru(250).unwrap(), 2);
    assert_eq!(s.live_bytes(), 200);
    assert!(s.get(&a).unwrap().is_none());
    assert!(s.get(&b).unwrap().is_none());
    assert!(s.get(&c).unwrap().is_some());
    assert!(s.get(&d).unwrap().is_some());
    assert!(s.verify().unwrap().ok);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_get_refreshes_recency() {
    let dir = scratch("evict-get");
    let mut s = Store::init(&dir).unwrap();
    let [a, b, c, d] = four_entries(&mut s);
    assert!(s.get(&a).unwrap().is_some());
    // Now `b` is the oldest use, then `c`.
    assert_eq!(s.evict_lru(200).unwrap(), 2);
    assert!(s.get(&b).unwrap().is_none());
    assert!(s.get(&c).unwrap().is_none());
    assert!(s.get(&a).unwrap().is_some());
    assert!(s.get(&d).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recency_restarts_from_write_order_after_reopen() {
    let dir = scratch("evict-reopen");
    let [a, b, c, d] = {
        let mut s = Store::init(&dir).unwrap();
        let keys = four_entries(&mut s);
        // A use in this process is forgotten by the next one.
        assert!(s.get(&keys[0]).unwrap().is_some());
        // A rewrite is a new blob, so it counts as the newest write.
        s.put(keys[1].clone(), &blob(100, 7)).unwrap();
        keys
    };
    let mut s = Store::open(&dir).unwrap();
    assert_eq!(s.evict_lru(200).unwrap(), 2);
    assert!(s.get(&a).unwrap().is_none());
    assert!(s.get(&c).unwrap().is_none());
    assert!(s.get(&b).unwrap().is_some());
    assert!(s.get(&d).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_is_never_evicted() {
    let dir = scratch("evict-stats");
    let mut s = Store::init(&dir).unwrap();
    let stats = key(CLASS_STATS, 0, 0, "req-00000000");
    s.put(stats.clone(), &blob(300, 1)).unwrap();
    let [a, b, c, d] = four_entries(&mut s);
    // The target is below the telemetry alone: every other entry goes, the
    // oldest entry of all stays.
    assert_eq!(s.evict_lru(0).unwrap(), 4);
    for k in [&a, &b, &c, &d] {
        assert!(s.get(k).unwrap().is_none());
    }
    assert_eq!(s.get(&stats).unwrap().unwrap(), blob(300, 1));
    assert_eq!(s.evict_lru(0).unwrap(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_eviction_replays_to_the_same_catalog() {
    let dir = scratch("evict-replay");
    let dump = {
        let mut s = Store::init(&dir).unwrap();
        four_entries(&mut s);
        assert_eq!(s.evict_lru(250).unwrap(), 2);
        s.canonical_dump().unwrap()
    };
    // No checkpoint: the catalog comes back from the replay alone, and the
    // eviction record names its victims, so replay needs no recency.
    let mut s = Store::open(&dir).unwrap();
    assert_eq!(s.stat().replayed, 5);
    assert_eq!(s.stat().entries, 2);
    assert_eq!(s.live_bytes(), 200);
    assert_eq!(s.canonical_dump().unwrap(), dump);
    s.checkpoint().unwrap();
    drop(s);
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.canonical_dump().unwrap(), dump);
    assert!(s.verify().unwrap().ok);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_version_1_store_is_unsupported() {
    // Version 1 had dependency tags, version 2 a page file beside a WAL.
    for version in [1u32, 2] {
        let dir = scratch(&format!("v{version}"));
        drop(Store::init(&dir).unwrap());
        // Rewrite store.meta with a valid checksum: magic · version ·
        // reserved · fnv1a64(version · reserved).
        let meta = dir.join("store.meta");
        let mut bytes = std::fs::read(&meta).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let sum = lcdb_exec::hash::fnv1a64(&bytes[8..16]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&meta, &bytes).unwrap();
        match Store::open(&dir) {
            Err(e @ StoreError::UnsupportedVersion { file: "meta", supported: 3, .. }) => {
                assert_eq!(
                    e.to_string(),
                    format!("meta file has version {version}, this build reads version 3")
                )
            }
            Err(other) => panic!("expected UnsupportedVersion, got {other}"),
            Ok(_) => panic!("a version-{version} store opened"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The one segment file of a store that has not sealed one.
fn first_segment(dir: &std::path::Path) -> PathBuf {
    dir.join("00000000.log")
}

#[test]
fn bit_flips_are_detected_and_quarantined() {
    let dir = scratch("bitflip");
    let k = key(CLASS_RESULT, 3, 4, "");
    let data = blob(8_178, 9);
    let (offset, len) = {
        let mut s = Store::init(&dir).unwrap();
        s.put(key(CLASS_RESULT, 1, 1, "before"), b"neighbour").unwrap();
        s.put(k.clone(), &data).unwrap();
        // The index now covers the record: an open reads it, not replays it.
        s.checkpoint().unwrap();
        let e = s.entries().find(|e| e.key == k).unwrap();
        (e.offset as usize, e.len as usize)
    };
    let log = first_segment(&dir);
    let pristine = std::fs::read(&log).unwrap();

    // Flip one bit at a spread of offsets inside the record: its length,
    // its checksum, its key and its blob. Every flip must be a typed
    // BlobChecksum error from get(), on every read, and named by verify();
    // never a panic or silently wrong data.
    for rel in [0usize, 3, 4, 11, 12, 20, 40, len / 2, len - 1] {
        let mut bytes = pristine.clone();
        bytes[offset + rel] ^= 0x10;
        std::fs::write(&log, &bytes).unwrap();

        let mut s = Store::open(&dir).unwrap();
        for _ in 0..2 {
            match s.get(&k).unwrap_err() {
                StoreError::BlobChecksum { entry, .. } => assert_eq!(entry, k.render()),
                other => panic!("flip at +{rel}: expected BlobChecksum, got {other}"),
            }
        }
        let report = s.verify().unwrap();
        assert!(!report.ok, "verify missed a flip at +{rel}");
        assert_eq!(report.bad_entries.len(), 1);
        assert_eq!(report.bad_entries[0].0, k.render());
        assert_eq!(s.get(&key(CLASS_RESULT, 1, 1, "before")).unwrap().unwrap(), b"neighbour");
    }
    // Restore: the store must verify clean again.
    std::fs::write(&log, &pristine).unwrap();
    let mut s = Store::open(&dir).unwrap();
    assert!(s.verify().unwrap().ok);
    assert_eq!(s.get(&k).unwrap().unwrap(), data);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_rewrite_clears_quarantine() {
    let dir = scratch("requarantine");
    let k = key(CLASS_RESULT, 1, 1, "");
    let mut s = Store::init(&dir).unwrap();
    s.put(k.clone(), b"first").unwrap();
    s.checkpoint().unwrap();
    let offset = s.entries().next().unwrap().offset as usize;
    // Corrupt the record behind the store's back.
    drop(s);
    let log = first_segment(&dir);
    let mut bytes = std::fs::read(&log).unwrap();
    bytes[offset + 30] ^= 0xFF;
    std::fs::write(&log, &bytes).unwrap();
    let mut s = Store::open(&dir).unwrap();
    assert!(matches!(s.get(&k), Err(StoreError::BlobChecksum { .. })));
    // A new put of the key is a new record: reads serve it, and the
    // corrupt one is dead, so it no longer fails verification.
    s.put(k.clone(), b"second").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"second");
    assert!(s.verify().unwrap().ok);
    // Compaction drops the dead record without reading it.
    s.compact().unwrap();
    assert!(!log.exists());
    assert_eq!(s.get(&k).unwrap().unwrap(), b"second");
    assert!(s.verify().unwrap().ok);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Segment files in a store directory.
fn segment_files(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "log"))
        .count()
}

#[test]
fn compact_drops_dead_segments_and_preserves_state() {
    let dir = scratch("compact");
    let mut s = Store::init(&dir).unwrap();
    let mut keys = Vec::new();
    for i in 0..8u64 {
        let k = key(CLASS_RESULT, i, 0, "");
        s.put(k.clone(), &blob(4_064 + i as usize * 100, i as u8)).unwrap();
        keys.push(k);
    }
    // Delete every other entry, leaving dead records.
    for k in keys.iter().step_by(2) {
        s.delete(k).unwrap();
    }
    let before_dump = s.canonical_dump().unwrap();
    let (before, after) = s.compact().unwrap();
    assert!(after < before, "compaction freed nothing ({before} -> {after})");
    // The log holds the live records and nothing else, and the segment
    // that held the dead ones is gone.
    let live: u64 = s.entries().map(|e| u64::from(e.len)).sum();
    assert_eq!(after, live);
    assert!(!first_segment(&dir).exists());
    assert_eq!(segment_files(&dir), s.stat().segments);
    assert_eq!(s.stat().wal_bytes, 0);
    assert_eq!(s.canonical_dump().unwrap(), before_dump);
    assert!(s.verify().unwrap().ok);
    // Reopen: state still intact.
    drop(s);
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.canonical_dump().unwrap(), before_dump);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bytes of every file in a store directory.
fn disk_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

/// A long-running writer that never checkpoints: puts and evictions
/// churn many times the live target through the store, and the bytes on
/// disk stay within twice the live bytes plus one segment.
#[test]
fn disk_stays_bounded_under_churn() {
    let dir = scratch("churn");
    let mut s = Store::init(&dir).unwrap();

    // Each blob goes to disk once, as one frame of its length: no page
    // rounding, no second copy.
    let k = key(CLASS_RESULT, 0, 0, "first");
    let data = blob(10_000, 1);
    let before = disk_bytes(&dir);
    s.put(k.clone(), &data).unwrap();
    let frame = Record::Put { key: k, data }.encode().len() as u64;
    assert!(frame < 10_000 + 64, "a 10 000-byte blob in a {frame}-byte frame");
    assert_eq!(disk_bytes(&dir) - before, frame);

    let target = SEGMENT_BYTES * 3 / 2;
    let mut written = 0u64;
    let mut i = 1u64;
    while written < 16 * SEGMENT_BYTES {
        let data = blob(32_768 + (i % 7) as usize * 1_000, i as u8);
        s.put(key(CLASS_RESULT, i, 0, ""), &data).unwrap();
        written += data.len() as u64;
        s.evict_lru(target).unwrap();
        let disk = disk_bytes(&dir);
        assert!(
            disk <= 2 * s.live_bytes() + SEGMENT_BYTES,
            "after {written} bytes written: {disk} bytes on disk for {} live",
            s.live_bytes()
        );
        i += 1;
    }
    // Compaction deleted the oldest segments, and replay stays bounded:
    // the index was checkpointed at every seal.
    assert!(!first_segment(&dir).exists());
    assert!(s.stat().wal_bytes <= SEGMENT_BYTES);
    let dump = s.canonical_dump().unwrap();
    drop(s);
    let s = Store::open(&dir).unwrap();
    assert_eq!(s.canonical_dump().unwrap(), dump);
    assert!(s.verify().unwrap().ok);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_truncated_on_open() {
    let dir = scratch("torn");
    {
        let mut s = Store::init(&dir).unwrap();
        s.put(key(CLASS_RESULT, 1, 0, ""), b"committed").unwrap();
    }
    // Append garbage that looks like the start of a frame.
    let log = first_segment(&dir);
    let mut bytes = std::fs::read(&log).unwrap();
    let good = bytes.len() as u64;
    bytes.extend_from_slice(&[0x55; 7]);
    std::fs::write(&log, &bytes).unwrap();
    let mut s = Store::open(&dir).unwrap();
    assert_eq!(s.stat().torn_at, Some((0, good)));
    assert_eq!(s.stat().replayed, 1);
    assert_eq!(
        s.get(&key(CLASS_RESULT, 1, 0, "")).unwrap().unwrap(),
        b"committed"
    );
    // The tail is gone from disk too.
    assert_eq!(std::fs::metadata(&log).unwrap().len(), good);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn init_refuses_to_overwrite() {
    let dir = scratch("exists");
    let _ = Store::init(&dir).unwrap();
    assert!(matches!(
        Store::init(&dir),
        Err(StoreError::AlreadyExists { .. })
    ));
    assert!(matches!(
        Store::open(&dir.join("nope")),
        Err(StoreError::NotAStore { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use lcdb_budget::faults::FaultPlan;

    #[test]
    fn injected_append_fault_fails_put_and_leaves_store_usable() {
        let dir = scratch("fault-append");
        let mut s = Store::init(&dir).unwrap();
        let k = key(CLASS_RESULT, 1, 1, "");
        {
            let _armed = FaultPlan::new().fail_on("store.append", 1).arm();
            assert!(matches!(
                s.put(k.clone(), b"doomed"),
                Err(StoreError::Injected { site: "store.append" })
            ));
        }
        // The failed put never reached the log: nothing committed.
        assert!(s.get(&k).unwrap().is_none());
        s.put(k.clone(), b"fine").unwrap();
        drop(s);
        let mut s = Store::open(&dir).unwrap();
        assert_eq!(s.get(&k).unwrap().unwrap(), b"fine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_checkpoint_fault_is_typed() {
        let dir = scratch("fault-ckpt");
        let mut s = Store::init(&dir).unwrap();
        s.put(key(CLASS_RESULT, 3, 3, ""), b"x").unwrap();
        {
            let _armed = FaultPlan::new().fail_on("store.checkpoint", 1).arm();
            assert!(matches!(
                s.checkpoint(),
                Err(StoreError::Injected { site: "store.checkpoint" })
            ));
        }
        s.checkpoint().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
