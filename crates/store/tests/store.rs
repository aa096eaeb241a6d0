//! Integration tests for the store: durability round-trips, corruption
//! detection and quarantine, dependency invalidation, and compaction.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;

use lcdb_store::{
    EntryKey, Store, StoreError, StoreOptions, CLASS_ARRANGEMENT, CLASS_RELATION,
    CLASS_RESULT, PAGE_PAYLOAD, PAGE_SIZE,
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
    let k2 = key(CLASS_RELATION, 0, 0, "River");
    let big = blob(3 * PAGE_PAYLOAD + 123, 7); // spans four pages
    {
        let mut s = Store::init(&dir).unwrap();
        s.put(k1.clone(), &[], b"TRUE").unwrap();
        s.put(k2.clone(), &["River".into()], &big).unwrap();
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
    s.put(k.clone(), &[], &blob(2 * PAGE_PAYLOAD, 1)).unwrap();
    s.put(k.clone(), &[], b"small").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"small");
    assert!(s.stat().free_pages >= 1);
    assert!(s.delete(&k).unwrap());
    assert!(!s.delete(&k).unwrap());
    assert!(s.get(&k).unwrap().is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn invalidate_dep_removes_dependents_only() {
    let dir = scratch("deps");
    let mut s = Store::init(&dir).unwrap();
    let karr = key(CLASS_ARRANGEMENT, 0, 77, "");
    let kres = key(CLASS_RESULT, 5, 77, "");
    let krel = key(CLASS_RELATION, 0, 0, "River");
    let kother = key(CLASS_RESULT, 6, 78, "");
    s.put(karr.clone(), &["River".into(), "Lake".into()], b"arr").unwrap();
    s.put(kres.clone(), &["River".into()], b"res").unwrap();
    s.put(krel.clone(), &[], b"rel").unwrap();
    s.put(kother.clone(), &["Lake".into()], b"other").unwrap();
    let n = s.invalidate_dep("River").unwrap();
    assert_eq!(n, 3); // arrangement, result, and the named relation itself
    assert!(s.get(&karr).unwrap().is_none());
    assert!(s.get(&kres).unwrap().is_none());
    assert!(s.get(&krel).unwrap().is_none());
    assert_eq!(s.get(&kother).unwrap().unwrap(), b"other");
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
        s.put(k.clone(), &[], &data).unwrap();
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
    s.put(k.clone(), &[], b"first").unwrap();
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
    s.put(k.clone(), &[], b"second").unwrap();
    assert_eq!(s.get(&k).unwrap().unwrap(), b"second");
    assert!(s.verify().unwrap().ok);
    // Reusing the quarantined slot rewrites it and lifts the quarantine.
    s.put(key(CLASS_RESULT, 2, 2, ""), &[], b"third").unwrap();
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
        s.put(k.clone(), &[], &blob(PAGE_PAYLOAD + i as usize * 100, i as u8))
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
        s.put(key(CLASS_RESULT, 1, 0, ""), &[], b"committed").unwrap();
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
        s.put(key(CLASS_RESULT, i, 0, ""), &[], &blob(PAGE_PAYLOAD * 2, i as u8))
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
                s.put(k.clone(), &[], b"doomed"),
                Err(StoreError::Injected { site: "store.wal_append" })
            ));
        }
        // The failed put never reached the WAL: nothing committed.
        assert!(s.get(&k).unwrap().is_none());
        s.put(k.clone(), &[], b"fine").unwrap();
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
                s.put(k.clone(), &[], b"committed-but-unwritten"),
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
        s.put(key(CLASS_RESULT, 3, 3, ""), &[], b"x").unwrap();
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
