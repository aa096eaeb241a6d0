//! The store facade: recovery, puts/gets, checkpointing, verification, and
//! compaction over the paged file + WAL + catalog.
//!
//! Commit protocol for a mutation:
//!
//! 1. append the operation (with its full blob bytes and assigned pages) to
//!    the WAL and fsync — **the commit point**;
//! 2. apply it to the in-memory catalog;
//! 3. write the data pages (write-through; the buffer pool only caches
//!    verified reads).
//!
//! A crash after step 1 is repaired on open: WAL replay rewrites exactly
//! the pages the record names, so recovery is byte-identical to the
//! fault-free execution of every committed operation, and an uncommitted
//! (torn) tail record is truncated away — the pre-write state.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::catalog::{CatEntry, Catalog, EntryKey, CLASS_RELATION};
use lcdb_exec::codec::{put_bytes, put_str, put_u32, put_u64, put_u8};
use crate::page::{
    decode_page, encode_page, is_zero_page, pages_for, KIND_CONT, KIND_HEAD, NO_PAGE, PAGE_SIZE,
};
use crate::pool::BufferPool;
use crate::wal::{ReplayReport, Wal, WalOp, WalRecord};
use crate::{fault_check, kill, StoreError};
use lcdb_exec::hash::fnv1a64;

const META_MAGIC: &[u8; 8] = b"LCDBSTO1";
const META_VERSION: u32 = 1;

/// Largest blob the store accepts (bounded by the WAL record cap).
pub const MAX_BLOB: usize = 1 << 25; // 32 MiB

const META_FILE: &str = "store.meta";
const PAGES_FILE: &str = "store.pages";
const WAL_FILE: &str = "store.wal";
const CAT_FILE: &str = "store.cat";

/// Tunables for opening a store.
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Buffer-pool capacity in pages (0 disables caching; least recently
    /// used pages are evicted first).
    pub pool_pages: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { pool_pages: 256 }
    }
}

/// A point-in-time summary for `lcdb store stat`.
#[derive(Clone, Debug)]
pub struct StoreStat {
    /// Live catalog entries.
    pub entries: usize,
    /// Pages in the data file.
    pub pages: u32,
    /// Pages on the free list.
    pub free_pages: usize,
    /// Pages quarantined since open.
    pub quarantined: usize,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Data file length in bytes.
    pub pages_bytes: u64,
    /// Pages resident in the buffer pool.
    pub pool_resident: usize,
    /// Buffer-pool hits since open.
    pub pool_hits: u64,
    /// Buffer-pool misses since open.
    pub pool_misses: u64,
    /// Next log sequence number.
    pub next_lsn: u64,
    /// WAL records replayed when this store was opened.
    pub replayed: usize,
    /// Offset the WAL was truncated at on open, if a torn tail was found.
    pub torn_at: Option<u64>,
}

/// The outcome of `lcdb store verify`.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Pages in the data file.
    pub pages: u32,
    /// All-zero unreferenced pages (holes from file extension).
    pub holes: u32,
    /// Pages that failed their checksum or self-identification.
    pub corrupt_pages: Vec<u32>,
    /// Live catalog entries checked.
    pub entries: usize,
    /// Entries whose blob failed to reassemble, with the error.
    pub bad_entries: Vec<(String, String)>,
    /// True when every page and every entry verified clean.
    pub ok: bool,
}

/// An open store rooted at a directory.
pub struct Store {
    dir: PathBuf,
    pages_file: File,
    wal: Wal,
    catalog: Catalog,
    pool: BufferPool,
    quarantined: BTreeSet<u32>,
    free: BTreeSet<u32>,
    page_count: u32,
    replay: ReplayReport,
}

impl Store {
    /// True when `dir` contains an initialized store.
    pub fn exists(dir: &Path) -> bool {
        dir.join(META_FILE).is_file()
    }

    /// Initialize a fresh store in `dir` (created if missing) and open it.
    /// Refuses to overwrite an existing store.
    pub fn init(dir: &Path) -> Result<Store, StoreError> {
        if Store::exists(dir) {
            return Err(StoreError::AlreadyExists {
                dir: dir.to_path_buf(),
            });
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| StoreError::io("creating the store directory", e))?;
        let mut meta = Vec::with_capacity(24);
        meta.extend_from_slice(META_MAGIC);
        put_u32(&mut meta, META_VERSION);
        put_u32(&mut meta, PAGE_SIZE as u32);
        let sum = fnv1a64(&meta[8..16]);
        put_u64(&mut meta, sum);
        {
            let mut f = File::create(dir.join(META_FILE))
                .map_err(|e| StoreError::io("creating store.meta", e))?;
            f.write_all(&meta)
                .map_err(|e| StoreError::io("writing store.meta", e))?;
            f.sync_all()
                .map_err(|e| StoreError::io("fsyncing store.meta", e))?;
        }
        Catalog::default().write_to(&dir.join(CAT_FILE))?;
        Store::open(dir, StoreOptions::default())
    }

    /// Open a store, performing recovery: load the catalog snapshot,
    /// replay the WAL (truncating a torn tail), and rewrite every page a
    /// committed record names.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Store, StoreError> {
        read_meta(&dir.join(META_FILE), dir)?;
        let mut catalog = Catalog::load_from(&dir.join(CAT_FILE))?;
        let (records, replay) = Wal::replay(&dir.join(WAL_FILE))?;
        let pages_file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(PAGES_FILE))
            .map_err(|e| StoreError::io("opening store.pages", e))?;
        let mut store = Store {
            dir: dir.to_path_buf(),
            pages_file,
            wal: Wal::open_end(&dir.join(WAL_FILE))?,
            catalog: Catalog::default(),
            pool: BufferPool::new(opts.pool_pages),
            quarantined: BTreeSet::new(),
            free: BTreeSet::new(),
            page_count: 0,
            replay,
        };
        // Redo phase: every committed record is reapplied. Records already
        // reflected in the snapshot are rewritten idempotently — the page
        // images are a pure function of the record.
        for rec in &records {
            catalog.next_lsn = catalog.next_lsn.max(rec.lsn + 1);
            match &rec.op {
                WalOp::Put {
                    class,
                    plan_fp,
                    db_fp,
                    name,
                    deps,
                    blob_id,
                    pages,
                    data,
                } => {
                    catalog.next_blob = catalog.next_blob.max(blob_id + 1);
                    store.write_blob_pages(pages, *blob_id, data)?;
                    let key = EntryKey {
                        class: *class,
                        plan_fp: *plan_fp,
                        db_fp: *db_fp,
                        name: name.clone(),
                    };
                    catalog.entries.insert(
                        key.clone(),
                        CatEntry {
                            key,
                            deps: deps.clone(),
                            blob_id: *blob_id,
                            pages: pages.clone(),
                            total_len: data.len() as u64,
                            checksum: fnv1a64(data),
                        },
                    );
                }
                WalOp::Delete {
                    class,
                    plan_fp,
                    db_fp,
                    name,
                } => {
                    catalog.entries.remove(&EntryKey {
                        class: *class,
                        plan_fp: *plan_fp,
                        db_fp: *db_fp,
                        name: name.clone(),
                    });
                }
                WalOp::InvalidateDep { name } => {
                    for key in victims_of(&catalog, name) {
                        catalog.entries.remove(&key);
                    }
                }
            }
        }
        store.catalog = catalog;
        store.derive_allocation()?;
        Ok(store)
    }

    /// Root directory of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The recovery report from when this store was opened.
    pub fn replay_report(&self) -> &ReplayReport {
        &self.replay
    }

    /// Iterate the live catalog entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = &CatEntry> {
        self.catalog.entries.values()
    }

    /// Look up an entry without reading its blob.
    pub fn entry(&self, key: &EntryKey) -> Option<&CatEntry> {
        self.catalog.entries.get(key)
    }

    fn derive_allocation(&mut self) -> Result<(), StoreError> {
        let file_len = self
            .pages_file
            .metadata()
            .map_err(|e| StoreError::io("inspecting store.pages", e))?
            .len();
        let file_pages = file_len.div_ceil(PAGE_SIZE as u64) as u32;
        let mut used = BTreeSet::new();
        let mut max_ref = 0u32;
        for e in self.catalog.entries.values() {
            for &p in &e.pages {
                used.insert(p);
                max_ref = max_ref.max(p + 1);
            }
        }
        self.page_count = file_pages.max(max_ref);
        self.free = (0..self.page_count).filter(|p| !used.contains(p)).collect();
        Ok(())
    }

    fn write_page_image(&mut self, no: u32, image: &[u8]) -> Result<(), StoreError> {
        let offset = no as u64 * PAGE_SIZE as u64;
        self.pages_file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io("seeking store.pages", e))?;
        // The page is written in two halves with a kill point between: the
        // torture harness uses it to leave a genuinely torn page on disk.
        let half = image.len() / 2;
        self.pages_file
            .write_all(&image[..half])
            .map_err(|e| StoreError::io("writing a page", e))?;
        kill::point("store.page_flush");
        self.pages_file
            .write_all(&image[half..])
            .map_err(|e| StoreError::io("writing a page", e))?;
        self.pool.invalidate(no);
        self.quarantined.remove(&no);
        Ok(())
    }

    fn write_blob_pages(
        &mut self,
        pages: &[u32],
        blob_id: u64,
        data: &[u8],
    ) -> Result<(), StoreError> {
        fault_check("store.page_flush")?;
        kill::point("store.page_flush");
        let payload_per = crate::page::PAGE_PAYLOAD;
        for (i, &no) in pages.iter().enumerate() {
            let start = i * payload_per;
            let end = (start + payload_per).min(data.len());
            let chunk = if start <= data.len() { &data[start..end] } else { &[] };
            let kind = if i == 0 { KIND_HEAD } else { KIND_CONT };
            let next = pages.get(i + 1).copied().unwrap_or(NO_PAGE);
            let image = encode_page(no, kind, next, blob_id, chunk);
            self.write_page_image(no, &image)?;
        }
        kill::point("store.page_flush");
        Ok(())
    }

    /// Insert or replace the blob stored under `key`. `deps` are the
    /// relation names the blob was computed from; redefining any of them
    /// via [`Store::invalidate_dep`] removes the entry.
    pub fn put(&mut self, key: EntryKey, deps: &[String], data: &[u8]) -> Result<(), StoreError> {
        fault_check("store.wal_append")?;
        if data.len() > MAX_BLOB {
            return Err(StoreError::TooLarge {
                len: data.len(),
                max: MAX_BLOB,
            });
        }
        // Choose pages without committing to them: lowest free slots first,
        // then extension past the current high-water mark.
        let needed = pages_for(data.len());
        let mut pages: Vec<u32> = self.free.iter().copied().take(needed).collect();
        let mut next_new = self.page_count;
        while pages.len() < needed {
            pages.push(next_new);
            next_new += 1;
        }
        let blob_id = self.catalog.next_blob;
        let rec = WalRecord {
            lsn: self.catalog.next_lsn,
            op: WalOp::Put {
                class: key.class,
                plan_fp: key.plan_fp,
                db_fp: key.db_fp,
                name: key.name.clone(),
                deps: deps.to_vec(),
                blob_id,
                pages: pages.clone(),
                data: data.to_vec(),
            },
        };
        self.wal.append(&rec)?; // commit point
        self.catalog.next_lsn += 1;
        self.catalog.next_blob += 1;
        for &p in &pages {
            self.free.remove(&p);
        }
        self.page_count = self.page_count.max(next_new);
        let entry = CatEntry {
            key: key.clone(),
            deps: deps.to_vec(),
            blob_id,
            pages: pages.clone(),
            total_len: data.len() as u64,
            checksum: fnv1a64(data),
        };
        let old = self.catalog.entries.insert(key, entry);
        if let Some(old) = old {
            for p in old.pages {
                if !pages.contains(&p) {
                    self.free.insert(p);
                    self.pool.invalidate(p);
                }
            }
        }
        // The operation is committed; page writes only materialize it. A
        // failure here leaves a typed error and a store that heals on the
        // next open (replay rewrites these exact pages).
        self.write_blob_pages(&pages, blob_id, data)?;
        Ok(())
    }

    fn read_page(&mut self, no: u32) -> Result<crate::page::Page, StoreError> {
        if self.quarantined.contains(&no) {
            return Err(StoreError::Quarantined { page: no });
        }
        if let Some(image) = self.pool.get(no) {
            let image = image.clone();
            return decode_page(no, &image);
        }
        let offset = no as u64 * PAGE_SIZE as u64;
        let file_len = self
            .pages_file
            .metadata()
            .map_err(|e| StoreError::io("inspecting store.pages", e))?
            .len();
        if offset + PAGE_SIZE as u64 > file_len {
            return Err(StoreError::Truncated {
                file: "pages",
                offset: file_len,
                context: "page image",
            });
        }
        let mut image = vec![0u8; PAGE_SIZE];
        self.pages_file
            .seek(SeekFrom::Start(offset))
            .map_err(|e| StoreError::io("seeking store.pages", e))?;
        self.pages_file
            .read_exact(&mut image)
            .map_err(|e| StoreError::io("reading a page", e))?;
        match decode_page(no, &image) {
            Ok(page) => {
                self.pool.insert(no, image);
                Ok(page)
            }
            Err(e) => {
                // Quarantine: the slot is never served again until a write
                // replaces it.
                self.quarantined.insert(no);
                self.pool.invalidate(no);
                Err(e)
            }
        }
    }

    fn read_blob(&mut self, entry: &CatEntry) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::with_capacity(entry.total_len as usize);
        for (i, &no) in entry.pages.iter().enumerate() {
            let page = self.read_page(no)?;
            let want_kind = if i == 0 { KIND_HEAD } else { KIND_CONT };
            let want_next = entry.pages.get(i + 1).copied().unwrap_or(NO_PAGE);
            if page.blob_id != entry.blob_id || page.kind != want_kind || page.next != want_next {
                self.quarantined.insert(no);
                self.pool.invalidate(no);
                return Err(StoreError::Malformed {
                    context: "blob page chain",
                    message: format!(
                        "page {no} of {} carries blob {} kind {} next {}, expected blob {} kind {} next {}",
                        entry.key.render(),
                        page.blob_id,
                        page.kind,
                        page.next,
                        entry.blob_id,
                        want_kind,
                        want_next,
                    ),
                });
            }
            out.extend_from_slice(&page.payload);
        }
        if out.len() as u64 != entry.total_len {
            return Err(StoreError::Malformed {
                context: "blob length",
                message: format!(
                    "{} reassembled to {} bytes, catalog records {}",
                    entry.key.render(),
                    out.len(),
                    entry.total_len
                ),
            });
        }
        let found = fnv1a64(&out);
        if found != entry.checksum {
            return Err(StoreError::BlobChecksum {
                entry: entry.key.render(),
                expected: entry.checksum,
                found,
            });
        }
        Ok(out)
    }

    /// Fetch the blob stored under `key`, verifying every page and the
    /// whole-blob checksum. `Ok(None)` when the key is absent.
    pub fn get(&mut self, key: &EntryKey) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.catalog.entries.get(key).cloned() else {
            return Ok(None);
        };
        self.read_blob(&entry).map(Some)
    }

    /// Remove the entry stored under `key`, freeing its pages. Returns
    /// whether an entry existed.
    pub fn delete(&mut self, key: &EntryKey) -> Result<bool, StoreError> {
        fault_check("store.wal_append")?;
        if !self.catalog.entries.contains_key(key) {
            return Ok(false);
        }
        let rec = WalRecord {
            lsn: self.catalog.next_lsn,
            op: WalOp::Delete {
                class: key.class,
                plan_fp: key.plan_fp,
                db_fp: key.db_fp,
                name: key.name.clone(),
            },
        };
        self.wal.append(&rec)?; // commit point
        self.catalog.next_lsn += 1;
        if let Some(old) = self.catalog.entries.remove(key) {
            for p in old.pages {
                self.free.insert(p);
                self.pool.invalidate(p);
            }
        }
        Ok(true)
    }

    /// Remove every entry that depends on relation `name` (its `deps`
    /// contain it, or it *is* the named relation entry), atomically: one
    /// WAL record covers the whole victim set, so a crash can never leave
    /// a half-invalidated catalog. Returns how many entries were removed.
    pub fn invalidate_dep(&mut self, name: &str) -> Result<usize, StoreError> {
        fault_check("store.wal_append")?;
        let victims = victims_of(&self.catalog, name);
        if victims.is_empty() {
            return Ok(0);
        }
        let rec = WalRecord {
            lsn: self.catalog.next_lsn,
            op: WalOp::InvalidateDep {
                name: name.to_string(),
            },
        };
        self.wal.append(&rec)?; // commit point
        self.catalog.next_lsn += 1;
        let n = victims.len();
        for key in victims {
            if let Some(old) = self.catalog.entries.remove(&key) {
                for p in old.pages {
                    self.free.insert(p);
                    self.pool.invalidate(p);
                }
            }
        }
        Ok(n)
    }

    /// Make all applied operations durable and reset the WAL: fsync the
    /// data pages, atomically publish the catalog snapshot, truncate the
    /// log.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        fault_check("store.checkpoint")?;
        kill::point("store.checkpoint");
        self.pages_file
            .sync_all()
            .map_err(|e| StoreError::io("fsyncing store.pages", e))?;
        kill::point("store.checkpoint");
        self.catalog.write_to(&self.dir.join(CAT_FILE))?;
        kill::point("store.checkpoint");
        self.wal.reset()?;
        kill::point("store.checkpoint");
        Ok(())
    }

    /// Scan every page and every entry for corruption. Referenced pages
    /// that fail are quarantined; nothing panics.
    pub fn verify(&mut self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        let mut referenced: BTreeMap<u32, EntryKey> = BTreeMap::new();
        for e in self.catalog.entries.values() {
            for &p in &e.pages {
                referenced.insert(p, e.key.clone());
            }
        }
        let file_len = self
            .pages_file
            .metadata()
            .map_err(|e| StoreError::io("inspecting store.pages", e))?
            .len();
        let slots = file_len.div_ceil(PAGE_SIZE as u64) as u32;
        report.pages = slots;
        for no in 0..slots {
            let offset = no as u64 * PAGE_SIZE as u64;
            let mut image = vec![0u8; PAGE_SIZE];
            let have = (file_len - offset).min(PAGE_SIZE as u64) as usize;
            self.pages_file
                .seek(SeekFrom::Start(offset))
                .map_err(|e| StoreError::io("seeking store.pages", e))?;
            self.pages_file
                .read_exact(&mut image[..have])
                .map_err(|e| StoreError::io("reading a page", e))?;
            if !referenced.contains_key(&no) && is_zero_page(&image) {
                report.holes += 1;
                continue;
            }
            if have < PAGE_SIZE || decode_page(no, &image).is_err() {
                report.corrupt_pages.push(no);
                if referenced.contains_key(&no) {
                    self.quarantined.insert(no);
                    self.pool.invalidate(no);
                }
            }
        }
        report.entries = self.catalog.entries.len();
        let keys: Vec<EntryKey> = self.catalog.entries.keys().cloned().collect();
        for key in keys {
            if let Some(entry) = self.catalog.entries.get(&key).cloned() {
                if let Err(e) = self.read_blob(&entry) {
                    report.bad_entries.push((key.render(), e.to_string()));
                }
            }
        }
        // Only corruption of *referenced* state fails verification; stale
        // complete pages on the free list are harmless.
        report.ok = report.bad_entries.is_empty()
            && report
                .corrupt_pages
                .iter()
                .all(|p| !referenced.contains_key(p));
        Ok(report)
    }

    /// Rewrite live blobs into the lowest page slots (through the normal
    /// WAL-logged put path, so compaction is as crash-safe as any write),
    /// checkpoint, and truncate the data file. Returns (pages before,
    /// pages after).
    pub fn compact(&mut self) -> Result<(u32, u32), StoreError> {
        let before = self.page_count;
        let total: usize = self
            .catalog
            .entries
            .values()
            .map(|e| e.pages.len())
            .sum();
        let target = total as u32;
        // Move entries occupying slots at or above the packed watermark
        // into the holes below it; each move frees its old slots for later
        // moves. An entry straddling the watermark can temporarily spill
        // above it again, but every pass strictly shrinks the occupied
        // tail, so iterate until no entry sits above the watermark.
        for _pass in 0..64 {
            let movers: Vec<EntryKey> = self
                .catalog
                .entries
                .values()
                .filter(|e| e.pages.iter().any(|&p| p >= target))
                .map(|e| e.key.clone())
                .collect();
            if movers.is_empty() {
                break;
            }
            for key in movers {
                let Some(entry) = self.catalog.entries.get(&key).cloned() else {
                    continue;
                };
                let data = self.read_blob(&entry)?;
                let deps = entry.deps.clone();
                self.put(key, &deps, &data)?;
            }
        }
        let high_water = self
            .catalog
            .entries
            .values()
            .flat_map(|e| e.pages.iter().copied())
            .max()
            .map(|p| p + 1)
            .unwrap_or(0);
        self.checkpoint()?;
        self.pages_file
            .set_len(high_water as u64 * PAGE_SIZE as u64)
            .map_err(|e| StoreError::io("truncating store.pages", e))?;
        self.pages_file
            .sync_all()
            .map_err(|e| StoreError::io("fsyncing store.pages", e))?;
        for p in high_water..self.page_count {
            self.pool.invalidate(p);
            self.free.remove(&p);
            self.quarantined.remove(&p);
        }
        self.page_count = high_water;
        Ok((before, high_water))
    }

    /// Summarize the store for `lcdb store stat`.
    pub fn stat(&self) -> StoreStat {
        let (pool_hits, pool_misses) = self.pool.stats();
        StoreStat {
            entries: self.catalog.entries.len(),
            pages: self.page_count,
            free_pages: self.free.len(),
            quarantined: self.quarantined.len(),
            wal_bytes: self.wal.len(),
            pages_bytes: self
                .pages_file
                .metadata()
                .map(|m| m.len())
                .unwrap_or_default(),
            pool_resident: self.pool.resident(),
            pool_hits,
            pool_misses,
            next_lsn: self.catalog.next_lsn,
            replayed: self.replay.records,
            torn_at: self.replay.torn_at,
        }
    }

    /// A canonical byte rendering of the store's whole logical state:
    /// every entry in key order with its dependency tags and blob bytes.
    /// Two stores holding the same logical state dump identical bytes —
    /// this is what the crash-torture harness compares.
    pub fn canonical_dump(&mut self) -> Result<Vec<u8>, StoreError> {
        let keys: Vec<EntryKey> = self.catalog.entries.keys().cloned().collect();
        let mut out = Vec::new();
        put_u64(&mut out, keys.len() as u64);
        for key in keys {
            let Some(entry) = self.catalog.entries.get(&key).cloned() else {
                continue;
            };
            let data = self.read_blob(&entry)?;
            put_u8(&mut out, key.class);
            put_u64(&mut out, key.plan_fp);
            put_u64(&mut out, key.db_fp);
            put_str(&mut out, &key.name);
            put_u32(&mut out, entry.deps.len() as u32);
            for d in &entry.deps {
                put_str(&mut out, d);
            }
            put_bytes(&mut out, &data);
        }
        Ok(out)
    }
}

/// Entries that depend on relation `name`: their `deps` contain it, or
/// they *are* the named relation entry. Pure over the catalog so the live
/// path and WAL replay compute identical victim sets.
fn victims_of(catalog: &Catalog, name: &str) -> Vec<EntryKey> {
    catalog
        .entries
        .values()
        .filter(|e| {
            e.deps.iter().any(|d| d == name)
                || (e.key.class == CLASS_RELATION && e.key.name == name)
        })
        .map(|e| e.key.clone())
        .collect()
}

fn read_meta(path: &Path, dir: &Path) -> Result<(), StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::NotAStore {
                dir: dir.to_path_buf(),
            })
        }
        Err(e) => return Err(StoreError::io("reading store.meta", e)),
    };
    if bytes.len() < 24 {
        return Err(StoreError::Truncated {
            file: "meta",
            offset: bytes.len() as u64,
            context: "meta header",
        });
    }
    if &bytes[..8] != META_MAGIC {
        return Err(StoreError::BadMagic { file: "meta" });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version > META_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: "meta",
            found: version,
            supported: META_VERSION,
        });
    }
    let expected = u64::from_le_bytes([
        bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
    ]);
    let found = fnv1a64(&bytes[8..16]);
    if expected != found {
        return Err(StoreError::ChecksumMismatch {
            file: "meta",
            expected,
            found,
        });
    }
    let page_size = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if page_size as usize != PAGE_SIZE {
        return Err(StoreError::Malformed {
            context: "meta page size",
            message: format!("store uses {page_size}-byte pages, this build uses {PAGE_SIZE}"),
        });
    }
    Ok(())
}
