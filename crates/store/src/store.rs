//! The store facade: recovery, puts/gets, checkpoints, compaction and
//! verification over the record log and its index.
//!
//! Commit protocol for a mutation: append its record to the active segment
//! and fsync — **the commit point** — then apply it to the in-memory index.
//! A crash before the fsync leaves a torn frame that replay truncates (the
//! pre-write state); after it, replay re-applies the record (the post-write
//! state). The record is the only copy of the data, so there is nothing
//! else to write.
//!
//! The active segment is sealed when the next record would take it past
//! [`SEGMENT_BYTES`]: a new segment starts and the index is checkpointed, so
//! an open replays at most the active segment. After every mutation, each
//! sealed segment more than half dead is compacted: its live records are
//! copied forward, the index is checkpointed and the file is deleted. The
//! log therefore stays within twice its live records plus one segment with
//! no caller of [`Store::checkpoint`].
//!
//! Space is reclaimed by [`Store::evict_lru`]: least-recently-used entries
//! go first, in one `Delete` record listing every victim. Recency lives in
//! memory only; after an open it starts from each entry's write order.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use crate::catalog::{sync_dir, CatEntry, Catalog, EntryKey, CLASS_STATS};
use crate::log::{self, Record, FRAME_HEADER, MAX_RECORD};
use crate::{fault_check, kill, StoreError};
use lcdb_exec::codec::{put_bytes, put_u32, put_u64};
use lcdb_exec::hash::fnv1a64;

const META_MAGIC: &[u8; 8] = b"LCDBSTO1";
/// Version 3 keeps the data in the record log alone, where version 2 kept
/// a page file beside a WAL and version 1 also had dependency tags. An
/// older store is refused with [`StoreError::UnsupportedVersion`], not
/// migrated.
const META_VERSION: u32 = 3;

/// Largest blob the store accepts (within the log's record cap).
pub const MAX_BLOB: usize = 1 << 25; // 32 MiB

/// A segment is sealed when the next record would take it past this many
/// bytes; a record larger than that fills a segment of its own.
pub const SEGMENT_BYTES: u64 = 4 << 20; // 4 MiB

const META_FILE: &str = "store.meta";
const CAT_FILE: &str = "store.cat";

/// A point-in-time summary for `lcdb store stat`.
#[derive(Clone, Debug)]
pub struct StoreStat {
    /// Live catalog entries.
    pub entries: usize,
    /// Segment files in the log.
    pub segments: usize,
    /// Sum of the live entries' blob lengths.
    pub live_bytes: u64,
    /// Segment bytes covered by the index checkpoint: every segment before
    /// the checkpoint's position and the one it is in up to it.
    pub pages_bytes: u64,
    /// Segment bytes behind the index checkpoint, the tail the next open
    /// replays; `pages_bytes + wal_bytes` is the whole log.
    pub wal_bytes: u64,
    /// Always 0: a read is one positioned read, through no buffer pool.
    pub pool_hits: u64,
    /// Always 0, as `pool_hits`.
    pub pool_misses: u64,
    /// Tail records replayed when this store was opened.
    pub replayed: usize,
    /// Where a torn tail was truncated on open: (segment, byte offset).
    pub torn_at: Option<(u32, u64)>,
}

/// The outcome of `lcdb store verify`.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Segment files in the log.
    pub segments: usize,
    /// Live catalog entries checked.
    pub entries: usize,
    /// Entries whose record failed to read back, with the error.
    pub bad_entries: Vec<(String, String)>,
    /// True when every entry's record verified clean.
    pub ok: bool,
}

/// One segment file and what the index holds in it.
struct Segment {
    /// The file, open for reading and writing.
    file: File,
    /// Its length.
    bytes: u64,
    /// Bytes of the frames the index points into.
    live: u64,
}

/// An open store rooted at a directory.
pub struct Store {
    dir: PathBuf,
    catalog: Catalog,
    /// The sealed segments by number: never written again.
    sealed: BTreeMap<u32, Segment>,
    /// The segment records are appended to, numbered above every sealed one.
    active_no: u32,
    active: Segment,
    /// Tail records replayed when this store was opened.
    replayed: usize,
    /// Where the open truncated a torn tail.
    torn_at: Option<(u32, u64)>,
    /// Last use of each entry touched since open (a `put` or a `get`);
    /// an untouched entry's last use is its write sequence number.
    recency: HashMap<EntryKey, u64>,
    /// The recency clock; starts above every sequence number at open.
    clock: u64,
    /// Sum of the live entries' blob lengths.
    live_bytes: u64,
}

fn open_segment(dir: &Path, no: u32) -> Result<Segment, StoreError> {
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(log::segment_path(dir, no))
        .map_err(|e| StoreError::io("opening a segment", e))?;
    let bytes = file
        .metadata()
        .map_err(|e| StoreError::io("inspecting a segment", e))?
        .len();
    Ok(Segment {
        file,
        bytes,
        live: 0,
    })
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
        // magic · version · reserved (0) · fnv1a64(version · reserved)
        let mut meta = Vec::with_capacity(24);
        meta.extend_from_slice(META_MAGIC);
        put_u32(&mut meta, META_VERSION);
        put_u32(&mut meta, 0);
        let sum = fnv1a64(&meta[8..16]);
        put_u64(&mut meta, sum);
        let mut f = File::create(dir.join(META_FILE))
            .map_err(|e| StoreError::io("creating store.meta", e))?;
        f.write_all(&meta)
            .map_err(|e| StoreError::io("writing store.meta", e))?;
        f.sync_all()
            .map_err(|e| StoreError::io("fsyncing store.meta", e))?;
        Store::open(dir)
    }

    /// Open a store, performing recovery: load the index checkpoint and
    /// replay the records behind it, truncating a torn tail.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        read_meta(&dir.join(META_FILE), dir)?;
        let mut catalog = Catalog::load_from(&dir.join(CAT_FILE))?;
        let mut segments = BTreeMap::new();
        for no in log::segment_numbers(dir)? {
            segments.insert(no, open_segment(dir, no)?);
        }
        let tail_no = catalog.tail.0;
        if segments.range(tail_no..).next().is_none() {
            segments.insert(tail_no, open_segment(dir, tail_no)?);
            sync_dir(dir);
        }
        let (replayed, torn_at) = replay(dir, &mut catalog, &mut segments)?;
        for e in catalog.entries.values() {
            if let Some(seg) = segments.get_mut(&e.segment) {
                seg.live += u64::from(e.len);
            }
        }
        let (active_no, active) = segments.pop_last().ok_or_else(|| StoreError::Malformed {
            context: "store directory",
            message: "no segment to append to".into(),
        })?;
        Ok(Store {
            dir: dir.to_path_buf(),
            clock: catalog.next_seq,
            live_bytes: catalog.entries.values().map(|e| e.total_len).sum(),
            catalog,
            sealed: segments,
            active_no,
            active,
            replayed,
            torn_at,
            recency: HashMap::new(),
        })
    }

    /// Iterate the live catalog entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = &CatEntry> {
        self.catalog.entries.values()
    }

    fn segment(&self, no: u32) -> Option<&Segment> {
        if no == self.active_no {
            Some(&self.active)
        } else {
            self.sealed.get(&no)
        }
    }

    fn segment_mut(&mut self, no: u32) -> Option<&mut Segment> {
        if no == self.active_no {
            Some(&mut self.active)
        } else {
            self.sealed.get_mut(&no)
        }
    }

    fn segments(&self) -> impl Iterator<Item = (u32, &Segment)> {
        let active = std::iter::once((self.active_no, &self.active));
        self.sealed.iter().map(|(&no, s)| (no, s)).chain(active)
    }

    /// Append `frame` to the active segment and fsync it — the commit
    /// point. Kill points of `site` sit before the write, between its
    /// halves (a torn frame), before the fsync and after it.
    fn append(&mut self, frame: &[u8], site: &'static str) -> Result<(u32, u64), StoreError> {
        let at = self.write(frame, site)?;
        self.sync()?;
        kill::point(site);
        Ok(at)
    }

    /// Write `frame` at the end of the active segment, sealing the segment
    /// first if the frame would overfill it. The frame is durable after the
    /// next `sync`.
    fn write(&mut self, frame: &[u8], site: &'static str) -> Result<(u32, u64), StoreError> {
        if frame.len() > FRAME_HEADER + MAX_RECORD {
            return Err(StoreError::TooLarge {
                len: frame.len(),
                max: FRAME_HEADER + MAX_RECORD,
            });
        }
        if self.active.bytes > 0 && self.active.bytes + frame.len() as u64 > SEGMENT_BYTES {
            self.seal()?;
        }
        let offset = self.active.bytes;
        let (head, rest) = frame.split_at(frame.len() / 2);
        let file = &self.active.file;
        let write = || {
            kill::point(site);
            file.write_all_at(head, offset)?;
            kill::point(site);
            file.write_all_at(rest, offset + head.len() as u64)
        };
        if let Err(e) = write() {
            // Leave no partial frame for a later append to follow.
            let _ = file.set_len(offset);
            return Err(StoreError::io("appending a log record", e));
        }
        kill::point(site);
        self.active.bytes += frame.len() as u64;
        Ok((self.active_no, offset))
    }

    /// Make every record written to the active segment durable.
    fn sync(&self) -> Result<(), StoreError> {
        self.active
            .file
            .sync_data()
            .map_err(|e| StoreError::io("fsyncing a segment", e))
    }

    /// Start a new active segment and checkpoint the index, so the tail an
    /// open replays is never more than one segment. A sealed segment is
    /// durable whole.
    fn seal(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        let no = self.active_no + 1;
        let fresh = open_segment(&self.dir, no)?;
        let old = std::mem::replace(&mut self.active, fresh);
        self.sealed.insert(self.active_no, old);
        self.active_no = no;
        self.checkpoint()
    }

    /// Point the index at `entry`, counting the bytes it makes live and
    /// those of the entry it replaces as dead.
    fn index(&mut self, entry: CatEntry) {
        self.live_bytes += entry.total_len;
        if let Some(seg) = self.segment_mut(entry.segment) {
            seg.live += u64::from(entry.len);
        }
        if let Some(old) = self.catalog.entries.insert(entry.key.clone(), entry) {
            self.unindex(&old);
        }
    }

    fn unindex(&mut self, old: &CatEntry) {
        self.live_bytes -= old.total_len;
        if let Some(seg) = self.segment_mut(old.segment) {
            seg.live -= u64::from(old.len);
        }
    }

    /// Insert or replace the blob stored under `key`, making it the most
    /// recently used entry. The blob is written once, as one `Put` record.
    pub fn put(&mut self, key: EntryKey, data: &[u8]) -> Result<(), StoreError> {
        fault_check("store.append")?;
        if data.len() > MAX_BLOB {
            return Err(StoreError::TooLarge {
                len: data.len(),
                max: MAX_BLOB,
            });
        }
        let (frame, checksum) = log::put_frame(&key, data);
        let (segment, offset) = self.append(&frame, "store.append")?; // commit point
        let seq = self.catalog.next_seq;
        self.catalog.next_seq += 1;
        self.index(CatEntry {
            key: key.clone(),
            segment,
            offset,
            len: frame.len() as u32,
            total_len: data.len() as u64,
            checksum,
            seq,
        });
        self.touch(key);
        self.reclaim()
    }

    fn touch(&mut self, key: EntryKey) {
        self.clock += 1;
        self.recency.insert(key, self.clock);
    }

    fn last_use(&self, entry: &CatEntry) -> u64 {
        self.recency.get(&entry.key).copied().unwrap_or(entry.seq)
    }

    /// Read `entry`'s record: one positioned read and one checksum.
    fn read(&self, entry: &CatEntry) -> Result<Vec<u8>, StoreError> {
        let seg = self
            .segment(entry.segment)
            .ok_or_else(|| StoreError::Malformed {
                context: "index entry",
                message: format!(
                    "{} is in segment {}, which is gone",
                    entry.key.render(),
                    entry.segment
                ),
            })?;
        let mut frame = vec![0; entry.len as usize];
        seg.file
            .read_exact_at(&mut frame, entry.offset)
            .map_err(|e| StoreError::io("reading a log record", e))?;
        let found = log::frame_sum(&frame);
        if found != entry.checksum {
            return Err(StoreError::BlobChecksum {
                entry: entry.key.render(),
                expected: entry.checksum,
                found,
            });
        }
        let payload = frame.get(FRAME_HEADER..).unwrap_or_default();
        match log::decode_payload(payload, entry.offset + FRAME_HEADER as u64)? {
            Record::Put { key, data } if key == entry.key => Ok(data),
            _ => Err(StoreError::Malformed {
                context: "index entry",
                message: format!(
                    "segment {} offset {} holds no put of {}",
                    entry.segment,
                    entry.offset,
                    entry.key.render()
                ),
            }),
        }
    }

    /// Fetch the blob stored under `key`, verifying its record's checksum,
    /// and make it the most recently used entry. `Ok(None)` when the key is
    /// absent.
    pub fn get(&mut self, key: &EntryKey) -> Result<Option<Vec<u8>>, StoreError> {
        let Some(entry) = self.catalog.entries.get(key) else {
            return Ok(None);
        };
        let data = self.read(entry)?;
        self.touch(key.clone());
        Ok(Some(data))
    }

    /// Remove the entry stored under `key`. Returns whether an entry
    /// existed.
    pub fn delete(&mut self, key: &EntryKey) -> Result<bool, StoreError> {
        fault_check("store.append")?;
        if !self.catalog.entries.contains_key(key) {
            return Ok(false);
        }
        self.remove(std::slice::from_ref(key), "store.append")?;
        self.reclaim()?;
        Ok(true)
    }

    /// The sum of the live entries' blob lengths.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Evict least-recently-used entries until the live blob bytes are at
    /// most `target`, and return how many were evicted. Telemetry
    /// ([`CLASS_STATS`]) is never evicted: `lcdb stats` reads it as data, so
    /// the live bytes can stay above a target smaller than it. One `Delete`
    /// record lists every victim, so a crash leaves the whole eviction or
    /// none of it.
    pub fn evict_lru(&mut self, target: u64) -> Result<usize, StoreError> {
        let mut live = self.live_bytes;
        if live <= target {
            return Ok(0);
        }
        let mut by_age: Vec<(u64, &CatEntry)> = self
            .catalog
            .entries
            .values()
            .filter(|e| e.key.class != CLASS_STATS)
            .map(|e| (self.last_use(e), e))
            .collect();
        by_age.sort_unstable_by_key(|&(last_use, _)| last_use);
        let mut victims = Vec::new();
        for (_, e) in by_age {
            if live <= target {
                break;
            }
            live -= e.total_len;
            victims.push(e.key.clone());
        }
        if victims.is_empty() {
            return Ok(0);
        }
        fault_check("store.append")?;
        self.remove(&victims, "store.append")?;
        self.reclaim()?;
        Ok(victims.len())
    }

    /// Log one `Delete` record for `keys`, then drop them from the index.
    fn remove(&mut self, keys: &[EntryKey], site: &'static str) -> Result<(), StoreError> {
        self.append(&log::delete_frame(keys).0, site)?; // commit point
        for key in keys {
            self.recency.remove(key);
            if let Some(old) = self.catalog.entries.remove(key) {
                self.unindex(&old);
            }
        }
        Ok(())
    }

    /// Checkpoint the index: make the log durable, then publish the index
    /// atomically as `store.cat`, covering the log up to its end, so the
    /// next open replays nothing.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        fault_check("store.checkpoint")?;
        self.sync()?;
        self.catalog.tail = (self.active_no, self.active.bytes);
        self.catalog.write_to(&self.dir.join(CAT_FILE))
    }

    /// Compact every sealed segment that is more than half dead.
    fn reclaim(&mut self) -> Result<(), StoreError> {
        while let Some(no) = self
            .sealed
            .iter()
            .find(|(_, s)| s.live * 2 < s.bytes)
            .map(|(&no, _)| no)
        {
            self.compact_segments(&[no])?;
        }
        Ok(())
    }

    /// Copy the live records of the sealed segments `victims` to the active
    /// one, checkpoint the index and delete the files. A record that fails
    /// its checksum is not copied: one `Delete` record drops its entry.
    /// Kill points of `store.compact` sit before each copy, between its
    /// halves and after it.
    fn compact_segments(&mut self, victims: &[u32]) -> Result<(), StoreError> {
        for &no in victims {
            let bytes = std::fs::read(log::segment_path(&self.dir, no))
                .map_err(|e| StoreError::io("reading a segment", e))?;
            let mut live: Vec<CatEntry> = self
                .catalog
                .entries
                .values()
                .filter(|e| e.segment == no)
                .cloned()
                .collect();
            live.sort_unstable_by_key(|e| e.offset);
            let mut lost = Vec::new();
            for e in live {
                let frame = bytes
                    .get(e.offset as usize..)
                    .and_then(|b| b.get(..e.len as usize))
                    .filter(|f| log::frame_sum(f) == e.checksum);
                let Some(frame) = frame else {
                    lost.push(e.key);
                    continue;
                };
                // Unsynced: the checkpoint below syncs the copies before
                // the index points at them, and the originals stay until then.
                let (segment, offset) = self.write(frame, "store.compact")?;
                self.index(CatEntry {
                    segment,
                    offset,
                    ..e
                });
            }
            if !lost.is_empty() {
                self.remove(&lost, "store.compact")?;
            }
        }
        self.checkpoint()?;
        for &no in victims {
            self.sealed.remove(&no);
            kill::point("store.segment_delete");
            std::fs::remove_file(log::segment_path(&self.dir, no))
                .map_err(|e| StoreError::io("deleting a segment", e))?;
            kill::point("store.segment_delete");
        }
        Ok(())
    }

    /// Seal the active segment and compact every segment that holds a dead
    /// record, so the log holds live records only. Returns the log's bytes
    /// before and after.
    pub fn compact(&mut self) -> Result<(u64, u64), StoreError> {
        let before = self.log_bytes();
        if self.active.bytes > 0 {
            self.seal()?;
        }
        let victims: Vec<u32> = self
            .sealed
            .iter()
            .filter(|(_, s)| s.live < s.bytes)
            .map(|(&no, _)| no)
            .collect();
        if !victims.is_empty() {
            self.compact_segments(&victims)?;
        }
        Ok((before, self.log_bytes()))
    }

    fn log_bytes(&self) -> u64 {
        self.segments().map(|(_, s)| s.bytes).sum()
    }

    /// Read back every entry's record and check it. Nothing panics.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let bad_entries: Vec<(String, String)> = self
            .catalog
            .entries
            .values()
            .filter_map(|e| {
                self.read(e)
                    .err()
                    .map(|err| (e.key.render(), err.to_string()))
            })
            .collect();
        Ok(VerifyReport {
            segments: self.sealed.len() + 1,
            entries: self.catalog.entries.len(),
            ok: bad_entries.is_empty(),
            bad_entries,
        })
    }

    /// Summarize the store for `lcdb store stat`.
    pub fn stat(&self) -> StoreStat {
        let (tail_no, tail_offset) = self.catalog.tail;
        let covered = self
            .segments()
            .map(|(no, s)| match no.cmp(&tail_no) {
                std::cmp::Ordering::Less => s.bytes,
                std::cmp::Ordering::Equal => s.bytes.min(tail_offset),
                std::cmp::Ordering::Greater => 0,
            })
            .sum();
        StoreStat {
            entries: self.catalog.entries.len(),
            segments: self.sealed.len() + 1,
            live_bytes: self.live_bytes,
            pages_bytes: covered,
            wal_bytes: self.log_bytes() - covered,
            pool_hits: 0,
            pool_misses: 0,
            replayed: self.replayed,
            torn_at: self.torn_at,
        }
    }

    /// A canonical byte rendering of the store's whole logical state:
    /// every entry in key order with its blob bytes. Reading it does not
    /// count as a use.
    /// Two stores holding the same logical state dump identical bytes —
    /// this is what the crash-torture harness compares.
    pub fn canonical_dump(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::new();
        put_u64(&mut out, self.catalog.entries.len() as u64);
        for entry in self.catalog.entries.values() {
            let data = self.read(entry)?;
            entry.key.encode(&mut out);
            put_bytes(&mut out, &data);
        }
        Ok(out)
    }
}

/// Apply the records behind the index checkpoint, segment by segment from
/// its position on, and return how many there were and where a torn tail
/// was cut. Nothing after the first bad frame was committed, so that frame
/// and every later segment go.
fn replay(
    dir: &Path,
    catalog: &mut Catalog,
    segments: &mut BTreeMap<u32, Segment>,
) -> Result<(usize, Option<(u32, u64)>), StoreError> {
    let (tail_no, tail_offset) = catalog.tail;
    let mut replayed = 0;
    let numbers: Vec<u32> = segments.range(tail_no..).map(|(&no, _)| no).collect();
    for no in numbers {
        let bytes = std::fs::read(log::segment_path(dir, no))
            .map_err(|e| StoreError::io("reading a segment", e))?;
        let from = if no == tail_no { tail_offset } else { 0 };
        let (records, torn) = log::scan(&bytes, from);
        replayed += records.len();
        for r in records {
            match r.record {
                Record::Put { key, data } => {
                    let seq = catalog.next_seq;
                    catalog.next_seq += 1;
                    let entry = CatEntry {
                        key: key.clone(),
                        segment: no,
                        offset: r.offset,
                        len: r.len,
                        total_len: data.len() as u64,
                        checksum: r.checksum,
                        seq,
                    };
                    catalog.entries.insert(key, entry);
                }
                Record::Delete { keys } => {
                    for key in &keys {
                        catalog.entries.remove(key);
                    }
                }
            }
        }
        let Some(at) = torn else { continue };
        if let Some(seg) = segments.get_mut(&no) {
            seg.file
                .set_len(at)
                .map_err(|e| StoreError::io("truncating the torn tail", e))?;
            seg.file
                .sync_all()
                .map_err(|e| StoreError::io("fsyncing the truncated segment", e))?;
            seg.bytes = at;
        }
        for later in segments.split_off(&(no + 1)).into_keys() {
            std::fs::remove_file(log::segment_path(dir, later))
                .map_err(|e| StoreError::io("deleting a segment after a torn tail", e))?;
        }
        return Ok((replayed, Some((no, at))));
    }
    Ok((replayed, None))
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
    if version != META_VERSION {
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
    Ok(())
}
