//! Integration tests for the store: durability round-trips, corruption
//! detection and quarantine, least-recently-used eviction, and compaction.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use lcdb_store::{
    EntryKey, Store, StoreError, StoreOptions, CLASS_ARRANGEMENT, CLASS_FIXPOINT, CLASS_RESULT,
    CLASS_STATS, PAGE_PAYLOAD, PAGE_SIZE,
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
    let big = blob(3 * PAGE_PAYLOAD + 123, 7); // spans four pages
    {
        let mut s = Store::init(&dir).unwrap();
        s.put(k1.clone(), b"TRUE").unwrap();
        s.put(k2.clone(), &big).unwrap();
        assert_eq!(s.get(&k1).unwrap().unwrap(), b"TRUE");
        // No checkpoint: recovery must come entirely from the WAL.
    }
    {
        let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.get(&k1).unwrap().unwrap(), b"TRUE");
        assert_eq!(s.get(&k2).unwrap().unwrap(), big);
        s.checkpoint().unwrap();
    }
    {
        // After a checkpoint the WAL is empty and state comes from the
        // snapshot + pages.
        let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
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
    s.put(k.clone(), &blob(2 * PAGE_PAYLOAD, 1)).unwrap();
    s.put(k.clone(), b"small").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"small");
    assert!(s.stat().free_pages >= 1);
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
    // Their pages are free for the next put.
    assert!(s.stat().free_pages >= 2);
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
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
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
    // No checkpoint: the catalog comes back from the WAL alone, and the
    // eviction record names its victims, so replay needs no recency.
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(s.replay_report().records, 5);
    assert_eq!(s.stat().entries, 2);
    assert_eq!(s.live_bytes(), 200);
    assert_eq!(s.canonical_dump().unwrap(), dump);
    s.checkpoint().unwrap();
    drop(s);
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(s.canonical_dump().unwrap(), dump);
    assert!(s.verify().unwrap().ok);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_version_1_store_is_unsupported() {
    let dir = scratch("v1");
    drop(Store::init(&dir).unwrap());
    // Rewrite store.meta as version 1 with a valid checksum: magic ·
    // version · page size · fnv1a64(version · page size).
    let meta = dir.join("store.meta");
    let mut bytes = std::fs::read(&meta).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let sum = lcdb_exec::hash::fnv1a64(&bytes[8..16]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&meta, &bytes).unwrap();
    match Store::open(&dir, StoreOptions::default()) {
        Err(e @ StoreError::UnsupportedVersion { file: "meta", found: 1, supported: 2 }) => {
            assert_eq!(e.to_string(), "meta file has version 1, this build reads version 2")
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other}"),
        Ok(_) => panic!("a version-1 store opened"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flips_are_detected_and_quarantined() {
    let dir = scratch("bitflip");
    let k = key(CLASS_RESULT, 3, 4, "");
    let data = blob(2 * PAGE_PAYLOAD + 50, 9);
    let pages: Vec<u32>;
    {
        let mut s = Store::init(&dir).unwrap();
        s.put(k.clone(), &data).unwrap();
        s.checkpoint().unwrap();
        pages = s.entries().next().unwrap().pages.clone();
    }
    let pages_path = dir.join("store.pages");
    let pristine = std::fs::read(&pages_path).unwrap();

    // Flip one bit at a spread of offsets inside every referenced page:
    // header bytes, payload bytes, and the checksum itself. Every flip must
    // be (a) a typed error from get(), (b) flagged by verify(), never a
    // panic or silently wrong data.
    for &page in &pages {
        let base = page as usize * PAGE_SIZE;
        for rel in [0usize, 9, 15, 40, 100, PAGE_SIZE / 2, PAGE_SIZE - 1] {
            let mut bytes = pristine.clone();
            bytes[base + rel] ^= 0x10;
            std::fs::write(&pages_path, &bytes).unwrap();

            let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
            let err = s.get(&k).unwrap_err();
            match err {
                StoreError::CorruptPage { page: p, .. } => assert_eq!(p, page),
                other => panic!("expected CorruptPage, got {other}"),
            }
            // Quarantined: the second read fails fast.
            assert!(matches!(
                s.get(&k).unwrap_err(),
                StoreError::Quarantined { page: p } if p == page
            ));
            let report = s.verify().unwrap();
            assert!(!report.ok, "verify missed a flip in page {page} at +{rel}");
            assert!(report.corrupt_pages.contains(&page));
        }
    }
    // Restore: the store must verify clean again.
    std::fs::write(&pages_path, &pristine).unwrap();
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
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
    let page = s.entries().next().unwrap().pages[0];
    // Corrupt the page behind the store's back.
    drop(s);
    let pages_path = dir.join("store.pages");
    let mut bytes = std::fs::read(&pages_path).unwrap();
    bytes[page as usize * PAGE_SIZE + 60] ^= 0xFF;
    std::fs::write(&pages_path, &bytes).unwrap();
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
    assert!(s.get(&k).is_err());
    // Overwriting the entry moves it to a fresh page; the corrupt slot is
    // demoted to the free list and no longer fails verification (only
    // referenced state counts), while reads serve the new page.
    s.put(k.clone(), b"second").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"second");
    assert!(s.verify().unwrap().ok);
    // Reusing the quarantined slot rewrites it and lifts the quarantine.
    s.put(key(CLASS_RESULT, 2, 2, ""), b"third").unwrap();
    assert_eq!(s.stat().quarantined, 0);
    assert_eq!(
        s.get(&key(CLASS_RESULT, 2, 2, "")).unwrap().unwrap(),
        b"third"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn compact_packs_pages_and_preserves_state() {
    let dir = scratch("compact");
    let mut s = Store::init(&dir).unwrap();
    let mut keys = Vec::new();
    for i in 0..8u64 {
        let k = key(CLASS_RESULT, i, 0, "");
        s.put(k.clone(), &blob(PAGE_PAYLOAD + i as usize * 100, i as u8))
            .unwrap();
        keys.push(k);
    }
    // Delete every other entry, leaving holes.
    for k in keys.iter().step_by(2) {
        s.delete(k).unwrap();
    }
    let before_dump = s.canonical_dump().unwrap();
    let (before, after) = s.compact().unwrap();
    assert!(after < before, "compaction freed no pages ({before} -> {after})");
    assert_eq!(s.stat().free_pages, 0);
    assert_eq!(s.canonical_dump().unwrap(), before_dump);
    assert!(s.verify().unwrap().ok);
    // Reopen: state still intact.
    drop(s);
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(s.canonical_dump().unwrap(), before_dump);
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
    let wal_path = dir.join("store.wal");
    let mut wal = std::fs::read(&wal_path).unwrap();
    let good = wal.len() as u64;
    wal.extend_from_slice(&[0x55; 7]);
    std::fs::write(&wal_path, &wal).unwrap();
    let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(s.replay_report().torn_at, Some(good));
    assert_eq!(s.replay_report().records, 1);
    assert_eq!(
        s.get(&key(CLASS_RESULT, 1, 0, "")).unwrap().unwrap(),
        b"committed"
    );
    // The tail is gone from disk too.
    assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), good);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pool_policies_both_serve_reads() {
    let dir = scratch("pool-lru");
    let mut s = Store::init(&dir).unwrap();
    for i in 0..6u64 {
        s.put(key(CLASS_RESULT, i, 0, ""), &blob(PAGE_PAYLOAD * 2, i as u8))
            .unwrap();
    }
    drop(s);
    let mut s = Store::open(&dir, StoreOptions { pool_pages: 3 }).unwrap();
    for round in 0..3 {
        for i in 0..6u64 {
            let data = s.get(&key(CLASS_RESULT, i, 0, "")).unwrap().unwrap();
            assert_eq!(data.len(), PAGE_PAYLOAD * 2, "round {round}");
        }
    }
    let st = s.stat();
    assert!(st.pool_hits + st.pool_misses > 0);
    assert!(st.pool_resident <= 3);
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
        Store::open(&dir.join("nope"), StoreOptions::default()),
        Err(StoreError::NotAStore { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(feature = "faults")]
mod faults {
    use super::*;
    use lcdb_budget::faults::FaultPlan;

    #[test]
    fn injected_wal_fault_fails_put_and_leaves_store_usable() {
        let dir = scratch("fault-wal");
        let mut s = Store::init(&dir).unwrap();
        let k = key(CLASS_RESULT, 1, 1, "");
        {
            let _armed = FaultPlan::new().fail_on("store.wal_append", 1).arm();
            assert!(matches!(
                s.put(k.clone(), b"doomed"),
                Err(StoreError::Injected { site: "store.wal_append" })
            ));
        }
        // The failed put never reached the WAL: nothing committed.
        assert!(s.get(&k).unwrap().is_none());
        s.put(k.clone(), b"fine").unwrap();
        drop(s);
        let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(s.get(&k).unwrap().unwrap(), b"fine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_page_fault_after_commit_heals_on_reopen() {
        let dir = scratch("fault-page");
        let mut s = Store::init(&dir).unwrap();
        let k = key(CLASS_RESULT, 2, 2, "");
        {
            let _armed = FaultPlan::new().fail_on("store.page_flush", 1).arm();
            assert!(matches!(
                s.put(k.clone(), b"committed-but-unwritten"),
                Err(StoreError::Injected { site: "store.page_flush" })
            ));
        }
        // The WAL committed before the page fault: reopening replays the
        // record and materializes the pages.
        drop(s);
        let mut s = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(
            s.get(&k).unwrap().unwrap(),
            b"committed-but-unwritten"
        );
        assert!(s.verify().unwrap().ok);
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
