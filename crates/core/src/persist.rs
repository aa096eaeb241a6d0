//! Persistent plan catalog: durable reuse of expensive evaluation artifacts
//! across processes, backed by [`lcdb_store`].
//!
//! Every process start previously rebuilt the region extension — an `O(n^d)`
//! hyperplane arrangement (Theorem 3.1) — and re-ran every fixpoint from
//! stage zero. The [`PlanCatalog`] gives those artifacts a crash-safe home:
//!
//! * **arrangements** ([`lcdb_store::CLASS_ARRANGEMENT`]) keyed by a
//!   fingerprint of the input of their build,
//!   [`ArrangementRegions::spatial_hyperplanes`]' `(d, hyperplanes)` in
//!   order: every relation of the spatial arity contributes, a relation of
//!   another arity does not, so redefining one reuses the arrangement;
//! * **query results** ([`lcdb_store::CLASS_RESULT`]) keyed by
//!   `(plan fingerprint, database fingerprint)` — the same key the server's
//!   in-memory result cache uses, so a warm start serves µs-scale catalog
//!   fetches instead of ms-scale recomputes;
//! * **fixpoint snapshots** ([`lcdb_store::CLASS_FIXPOINT`]): the
//!   [`Snapshot`] bytes of an *aborted* run, keyed by `(query fingerprint,
//!   database fingerprint, decomposition kind)`. This is the one way
//!   evaluation state survives a process: [`PlanCatalog::eval_resumable`]
//!   wraps an evaluation — resume from the stored stages, run, save on a
//!   recoverable abort, drop the entry on success (the result entry serves
//!   from then on) — and both front ends go through it.
//!
//! Every key names what its blob was computed from, so no entry goes stale
//! and nothing is invalidated when a relation is redefined: the changed
//! database has other keys, and the old entries are still right for the old
//! database. A 64-bit fingerprint collision is the one way a wrong entry
//! could be served — the exposure the in-memory result cache already has —
//! and an arrangement rules even that out by comparing its hyperplanes with
//! the list on load. Space comes back by least-recently-used eviction before
//! a put that would pass [`MAX_LIVE_BYTES`].
//!
//! All blobs ride the store's WAL, page checksums, and quarantine: a torn or
//! bit-flipped catalog entry is reported as a typed [`StoreError`] and the
//! caller falls back to recomputing — never to serving corrupt state.

use crate::evaluator::{empty_checkpoint, query_fingerprint, Evaluator};
use crate::region::{ArrangementRegions, DecompositionKind};
use crate::{EvalError, RegFormula};
use lcdb_exec::codec::{put_str, put_u64, put_u8, Cursor};
use lcdb_exec::hash::{fingerprint_str, Fnv};
use lcdb_geom::{Arrangement, Face, Hyperplane};
use lcdb_logic::Database;
use lcdb_recover::Snapshot;
use lcdb_store::{
    EntryKey, Store, StoreError, StoreOptions, StoreStat, VerifyReport, CLASS_ARRANGEMENT,
    CLASS_FIXPOINT, CLASS_RESULT,
};
use std::path::Path;
use std::str::FromStr;
use std::sync::{Mutex, MutexGuard};

/// Fingerprint of a database: every relation's name, variables and defining
/// formula, plus the designated spatial relation. Process-stable (FNV-1a
/// over the canonical rendering), so catalog keys survive restarts.
pub fn database_fingerprint(db: &Database, spatial: Option<&str>) -> u64 {
    let mut desc = String::new();
    for (name, rel) in db.relations() {
        desc.push_str(name);
        desc.push_str(&rel.to_string());
        desc.push(';');
    }
    desc.push_str("|spatial=");
    desc.push_str(spatial.unwrap_or(""));
    fingerprint_str(&desc)
}

/// Live blob bytes the catalog holds before a put evicts least-recently-used
/// entries. A 20 s `serve_churn` run on a 2-core x86-64 (about 3 000 new
/// databases, store on) ends with 33 MB live in 16 000 entries; the bound
/// holds eight such runs, and eight of the largest blob the store accepts.
/// It must: that run's base-map entries are its least recently used (their
/// reads hit the in-memory cache), and it fails if its restart recomputes
/// them. Pages cost more than live bytes, since an entry takes whole 4 KiB
/// pages: the run's 33 MB filled 94 MB of them.
pub const MAX_LIVE_BYTES: u64 = 256 << 20;

/// Version tag of the arrangement blob layout: 2 stores each face's recession
/// ray where 1 stored a bounded flag.
const ARR_VERSION: u8 = 2;

fn malformed(message: String) -> StoreError {
    StoreError::Malformed {
        context: "arrangement blob",
        message,
    }
}

/// Serialize an arrangement to the catalog blob layout: exact `Rational`
/// renderings for hyperplane coefficients, witnesses and rays (a bounded
/// face's ray has length 0), one byte per sign.
pub fn encode_arrangement(a: &Arrangement) -> Vec<u8> {
    let mut out = Vec::new();
    put_u8(&mut out, ARR_VERSION);
    put_u64(&mut out, a.ambient_dim() as u64);
    put_u64(&mut out, a.hyperplanes().len() as u64);
    for h in a.hyperplanes() {
        put_u64(&mut out, h.coeffs().len() as u64);
        for c in h.coeffs() {
            put_str(&mut out, &c.to_string());
        }
        put_str(&mut out, &h.rhs().to_string());
    }
    put_u64(&mut out, a.faces().len() as u64);
    for f in a.faces() {
        put_u64(&mut out, f.signs.len() as u64);
        for s in &f.signs {
            put_u8(
                &mut out,
                match s {
                    lcdb_arith::Sign::Negative => 0,
                    lcdb_arith::Sign::Zero => 1,
                    lcdb_arith::Sign::Positive => 2,
                },
            );
        }
        put_u64(&mut out, f.dim as u64);
        for v in [&f.witness[..], f.ray.as_deref().unwrap_or_default()] {
            put_u64(&mut out, v.len() as u64);
            for c in v {
                put_str(&mut out, &c.to_string());
            }
        }
    }
    out
}

fn rational(cur: &mut Cursor<'_>, context: &'static str) -> Result<lcdb_arith::Rational, StoreError> {
    let s = cur.string(context)?;
    lcdb_arith::Rational::from_str(&s)
        .map_err(|_| malformed(format!("unparseable rational '{s}' in {context}")))
}

/// Decode an arrangement blob, validating structure (the store has already
/// verified the bytes' checksum). Faces must come in strictly increasing
/// sign-vector order and every ray must recede in its face; LP feasibility
/// is **not** re-run.
pub fn decode_arrangement(bytes: &[u8]) -> Result<Arrangement, StoreError> {
    let mut cur = Cursor::new(bytes, "arrangement blob");
    let version = cur.u8("blob version")?;
    if version != ARR_VERSION {
        return Err(StoreError::UnsupportedVersion {
            file: "arrangement blob",
            found: u32::from(version),
            supported: u32::from(ARR_VERSION),
        });
    }
    let dim = cur.u64("ambient dimension")? as usize;
    let hyperplanes = cur.seq("hyperplane count", |cur| {
        let coeffs = cur.seq("coefficient count", |cur| rational(cur, "hyperplane coefficient"))?;
        let rhs = rational(cur, "hyperplane rhs")?;
        if coeffs.iter().all(|c| c.is_zero()) {
            let end = cur.offset();
            return Err(malformed(format!("hyperplane ending at byte offset {end} has a zero normal")));
        }
        Ok(Hyperplane::new(coeffs, rhs))
    })?;
    let mut id = 0;
    let faces = cur.seq("face count", |cur| {
        let signs = cur.seq("sign count", |cur| match cur.u8("sign")? {
            0 => Ok(lcdb_arith::Sign::Negative),
            1 => Ok(lcdb_arith::Sign::Zero),
            2 => Ok(lcdb_arith::Sign::Positive),
            other => Err(malformed(format!("unknown sign tag {other}"))),
        })?;
        let dim = cur.u64("face dimension")? as usize;
        let witness = cur.seq("witness length", |cur| rational(cur, "witness coordinate"))?;
        let ray = cur.seq("ray length", |cur| rational(cur, "ray coordinate"))?;
        id += 1;
        Ok::<_, StoreError>(Face {
            id: id - 1,
            signs,
            dim,
            witness,
            ray: (!ray.is_empty()).then_some(ray),
        })
    })?;
    cur.done("arrangement blob")?;
    Arrangement::from_parts(dim, hyperplanes, faces).map_err(malformed)
}

/// What [`PlanCatalog::eval_resumable`] reports besides the evaluation's own
/// result.
pub struct Resumable<T> {
    /// What the evaluation returned.
    pub result: Result<T, EvalError>,
    /// The run continued from stages an earlier, aborted run had stored.
    pub resumed: bool,
    /// Store-side problems, none of them fatal: an unreadable or mismatched
    /// stored snapshot (the run went cold), a failed save or drop.
    pub warnings: Vec<String>,
}

/// A process-shared handle on the persistent catalog. All methods take
/// `&self`; the store behind the mutex serializes access, so a server's
/// sessions and a CLI shell can share one handle.
pub struct PlanCatalog {
    store: Mutex<Store>,
}

impl PlanCatalog {
    /// Open the catalog at `dir`, initializing a fresh store if none exists.
    pub fn open(dir: &Path) -> Result<PlanCatalog, StoreError> {
        let store = if Store::exists(dir) {
            Store::open(dir, StoreOptions::default())?
        } else {
            Store::init(dir)?
        };
        Ok(PlanCatalog {
            store: Mutex::new(store),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Put `data` under `key`. A put that would take the live blob bytes
    /// past [`MAX_LIVE_BYTES`] first evicts least-recently-used entries down
    /// to three quarters of it, so one eviction (a sort of the catalog and
    /// one WAL record) pays for a quarter of the bound's worth of puts.
    fn put(&self, key: EntryKey, data: &[u8]) -> Result<(), StoreError> {
        let mut store = self.lock();
        if store.live_bytes() + data.len() as u64 > MAX_LIVE_BYTES {
            store.evict_lru(MAX_LIVE_BYTES / 4 * 3)?;
        }
        store.put(key, data)
    }

    /// The key of the arrangement over `(d, hyperplanes)`: a fingerprint of
    /// exactly that input, in order. Which relation is spatial does not
    /// enter; only its arity does.
    fn arrangement_key(d: usize, hyperplanes: &[Hyperplane]) -> EntryKey {
        let mut h = Fnv::new();
        h.u64(d as u64);
        for plane in hyperplanes {
            h.str(&plane.to_string());
        }
        EntryKey {
            class: CLASS_ARRANGEMENT,
            plan_fp: 0,
            db_fp: h.finish(),
            name: "arrangement".into(),
        }
    }

    /// Load a previously persisted region extension for `db`, rebuilding the
    /// [`ArrangementRegions`] around the live database. Returns `Ok(None)`
    /// on a catalog miss, and when the stored arrangement is not over the
    /// hyperplanes its key names (a fingerprint collision); corrupt blobs
    /// surface as typed errors (the entry stays quarantined) and the caller
    /// recomputes.
    pub fn load_extension(
        &self,
        db: &Database,
        spatial: &str,
    ) -> Result<Option<ArrangementRegions>, StoreError> {
        // An unknown spatial relation has no arrangement; the build reports it.
        let Ok((d, hyperplanes)) = ArrangementRegions::spatial_hyperplanes(db, spatial) else {
            return Ok(None);
        };
        let Some(bytes) = self.lock().get(&Self::arrangement_key(d, &hyperplanes))? else {
            return Ok(None);
        };
        let arrangement = decode_arrangement(&bytes)?;
        if arrangement.ambient_dim() != d || arrangement.hyperplanes() != &hyperplanes[..] {
            return Ok(None);
        }
        ArrangementRegions::from_parts(db.clone(), spatial, arrangement)
            .map(Some)
            .map_err(|e| malformed(e.to_string()))
    }

    /// The catalog rungs of the extension ladder (a front end's in-memory
    /// tier sits above this call): the arrangement persisted over `db`'s
    /// spatial hyperplanes if one loads — a warm start skips the `O(n^d)`
    /// build — otherwise `build`'s, persisted for the next process. Either
    /// way its planes are in build order, so region ids, which a stored
    /// fixpoint snapshot holds, do not depend on whether `build` derived
    /// the arrangement or built it. A corrupt blob or a failed save is a
    /// warning next to the regions, never an error.
    pub fn extension_or_build(
        &self,
        db: &Database,
        spatial: &str,
        build: impl FnOnce() -> Result<ArrangementRegions, EvalError>,
    ) -> Result<(ArrangementRegions, Vec<String>), EvalError> {
        let mut warnings = Vec::new();
        match self.load_extension(db, spatial) {
            Ok(Some(warm)) => return Ok((warm, warnings)),
            Ok(None) => {}
            Err(e) => warnings.push(format!("stored arrangement unreadable ({e}); rebuilding")),
        }
        let built = build()?.in_build_order()?;
        if let Err(e) = self.save_extension(&built) {
            warnings.push(format!("arrangement not saved: {e}"));
        }
        Ok((built, warnings))
    }

    /// Persist a completed region extension under the key of its hyperplane
    /// list. [`PlanCatalog::load_extension`] looks up the list a build over
    /// its database uses, so an arrangement in another order (a derived one
    /// [`PlanCatalog::extension_or_build`] has not put in build order) is
    /// never found.
    pub fn save_extension(&self, regions: &ArrangementRegions) -> Result<(), StoreError> {
        let a = regions.arrangement();
        self.put(Self::arrangement_key(a.ambient_dim(), a.hyperplanes()), &encode_arrangement(a))
    }

    fn result_key(plan_fp: u64, db_fp: u64) -> EntryKey {
        EntryKey {
            class: CLASS_RESULT,
            plan_fp,
            db_fp,
            name: "result".into(),
        }
    }

    /// Look up a persisted query result by `(plan fingerprint, database
    /// fingerprint)`. The payload is whatever the caller stored — the server
    /// stores rendered response text.
    pub fn load_result(&self, plan_fp: u64, db_fp: u64) -> Result<Option<Vec<u8>>, StoreError> {
        self.lock().get(&Self::result_key(plan_fp, db_fp))
    }

    /// Persist a query result under `(plan fingerprint, database
    /// fingerprint)`. Pinned by `benchmark/`: `_deps` is ignored.
    pub fn save_result(
        &self,
        plan_fp: u64,
        db_fp: u64,
        _deps: &[String],
        payload: &[u8],
    ) -> Result<(), StoreError> {
        self.put(Self::result_key(plan_fp, db_fp), payload)
    }

    fn fixpoint_key(query_fp: u64, db_fp: u64, kind: DecompositionKind) -> EntryKey {
        EntryKey {
            class: CLASS_FIXPOINT,
            plan_fp: query_fp,
            db_fp,
            name: match kind {
                DecompositionKind::Arrangement => "fixpoint".into(),
                DecompositionKind::Nc1 => "fixpoint:nc1".into(),
            },
        }
    }

    fn load_fixpoint(&self, key: &EntryKey) -> Result<Option<Snapshot>, StoreError> {
        let Some(bytes) = self.lock().get(key)? else {
            return Ok(None);
        };
        Snapshot::decode(&bytes)
            .map(Some)
            .map_err(|e| StoreError::Malformed {
                context: "fixpoint blob",
                message: e.to_string(),
            })
    }

    /// Run one evaluation so that a killed run is continued by the next:
    /// the stages stored for `(query, db_fp, kind)` by an earlier aborted
    /// run are installed with [`Evaluator::resume_from`], `run` is called,
    /// and then a *recoverable* abort stores [`Evaluator::checkpoint`]
    /// under the same key, while success drops a leftover entry — the
    /// result entry answers from then on, and a snapshot nothing can reach
    /// is a WAL append for nothing.
    ///
    /// `ev` is the evaluator over the decomposition of the database that
    /// `db_fp` names, or the error its construction tripped on: a
    /// recoverable one leaves an entry-less [`empty_checkpoint`] (unless
    /// real stages are already stored), so the next run still finds
    /// something to resume. A stored blob that is
    /// corrupt, or that [`Evaluator::resume_from`] refuses, is a warning and
    /// a cold run; no store failure ever fails the evaluation.
    pub fn eval_resumable<T>(
        &self,
        query: &RegFormula,
        db_fp: u64,
        kind: DecompositionKind,
        ev: Result<Evaluator<'_>, EvalError>,
        run: impl FnOnce(&Evaluator<'_>) -> Result<T, EvalError>,
    ) -> Resumable<T> {
        let key = Self::fixpoint_key(query_fingerprint(query), db_fp, kind);
        let mut warnings = Vec::new();
        let loaded = self.load_fixpoint(&key);
        // The key holds an entry, readable or not.
        let leftover = !matches!(loaded, Ok(None));
        let stored = loaded.unwrap_or_else(|e| {
            warnings.push(format!("stored fixpoint snapshot unreadable ({e}); running cold"));
            None
        });
        let mut resumed = false;
        let (result, snapshot) = match ev {
            Err(e) => {
                let empty = e.is_recoverable() && stored.is_none();
                (Err(e), empty.then(|| empty_checkpoint(query)))
            }
            Ok(ev) => {
                if let Some(stored) = &stored {
                    match ev.resume_from(query, stored) {
                        Ok(()) => resumed = true,
                        Err(e) => warnings.push(format!(
                            "stored fixpoint snapshot not resumable ({e}); running cold"
                        )),
                    }
                }
                let result = run(&ev);
                let aborted = matches!(&result, Err(e) if e.is_recoverable());
                (result, aborted.then(|| ev.checkpoint(query)))
            }
        };
        let kept = match snapshot {
            Some(snapshot) => self.put(key, &snapshot.encode()),
            None if result.is_ok() && leftover => self.lock().delete(&key).map(drop),
            None => Ok(()),
        };
        if let Err(e) = kept {
            warnings.push(format!("fixpoint snapshot not updated: {e}"));
        }
        Resumable {
            result,
            resumed,
            warnings,
        }
    }

    /// Checkpoint the store: flush pages, snapshot the catalog, reset the WAL.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.lock().checkpoint()
    }

    /// Append one batch of telemetry rows under `kind` (e.g. `"req"` for
    /// per-request rows, `"bench"` for imported experiment rows); see
    /// `lcdb_store::stats`. Returns the batch sequence number.
    pub fn append_stats(&self, kind: &str, rows: &[String]) -> Result<u64, StoreError> {
        lcdb_store::append_stats(&mut self.lock(), kind, rows)
    }

    /// Read back every telemetry row of `kind`, in append order.
    pub fn read_stats(&self, kind: &str) -> Result<Vec<String>, StoreError> {
        lcdb_store::read_stats(&mut self.lock(), kind)
    }

    /// Storage statistics.
    pub fn stat(&self) -> StoreStat {
        self.lock().stat()
    }

    /// Full verification sweep over pages and entries.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        self.lock().verify()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::Decomposition;
    use lcdb_logic::{parse_formula, Relation};

    fn sample_db() -> Database {
        let mut db = Database::new();
        let f = parse_formula("(x >= 0 and y >= 0 and x + y <= 2) or (x = y)").unwrap();
        db.insert("S", Relation::new(vec!["x".into(), "y".into()], &f));
        let g = parse_formula("x - y > 1").unwrap();
        db.insert("T", Relation::new(vec!["x".into(), "y".into()], &g));
        db
    }

    fn arrangement(db: Database) -> ArrangementRegions {
        let trace = lcdb_trace::TraceHandle::disabled_ref();
        ArrangementRegions::try_new(db, "S", &crate::EvalBudget::unlimited(), trace).unwrap()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lcdb-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn arrangement_blob_roundtrips_exactly() {
        let db = sample_db();
        let regions = arrangement(db);
        let a = regions.arrangement();
        let blob = encode_arrangement(a);
        let b = decode_arrangement(&blob).unwrap();
        assert_eq!(a.ambient_dim(), b.ambient_dim());
        assert_eq!(a.hyperplanes(), b.hyperplanes());
        assert_eq!(a.num_faces(), b.num_faces());
        for (fa, fb) in a.faces().iter().zip(b.faces()) {
            assert_eq!(fa.id, fb.id);
            assert_eq!(fa.signs, fb.signs);
            assert_eq!(fa.dim, fb.dim);
            assert_eq!(fa.witness, fb.witness);
            assert_eq!(fa.bounded(), fb.bounded());
        }
        // Point location answers identically.
        let p = vec![lcdb_arith::int(1), lcdb_arith::int(1)];
        assert_eq!(a.locate(&p), b.locate(&p));
    }

    /// Every prefix and every single-byte flip of `bytes` goes through
    /// `decode` without a panic; a prefix never decodes, a flip only where
    /// the format has no checksum to see it, and an error that reports an
    /// offset reports one inside the buffer it was given.
    fn mutate<E: std::fmt::Display>(
        what: &str,
        bytes: &[u8],
        checksummed: bool,
        decode: impl Fn(&[u8]) -> Result<(), E>,
        offset: impl Fn(&E) -> Option<u64>,
    ) {
        let inside = |e: &E, len: usize, how: &str| {
            if let Some(at) = offset(e) {
                assert!(at <= len as u64, "{what}: {how} reported offset {at} of {len}: {e}");
            }
        };
        for n in 0..bytes.len() {
            match decode(&bytes[..n]) {
                Ok(()) => panic!("{what}: prefix of {n} bytes decoded"),
                Err(e) => inside(&e, n, "truncation"),
            }
        }
        let mut flipped = bytes.to_vec();
        for i in 0..bytes.len() {
            flipped[i] ^= 0xff;
            match decode(&flipped) {
                Ok(()) => assert!(!checksummed, "{what}: flip at byte {i} decoded"),
                Err(e) => inside(&e, bytes.len(), "flip"),
            }
            flipped[i] ^= 0xff;
        }
    }

    /// The shared `Cursor` under mutation, through each format built on it:
    /// a fixpoint snapshot, a `store.cat` image and an arrangement blob.
    #[test]
    fn every_truncation_and_byte_flip_is_typed() {
        let db = sample_db();
        let regions = arrangement(db.clone());
        let store_offset = |e: &StoreError| match e {
            StoreError::Truncated { offset, .. } => Some(*offset),
            _ => None,
        };

        let q = crate::queries::connectivity();
        let ev = Evaluator::with_budget(
            &regions,
            crate::EvalBudget::unlimited().with_max_fix_iterations(1),
        );
        ev.try_eval_sentence(&q).expect_err("one stage is not enough");
        mutate(
            "snapshot",
            &ev.checkpoint(&q).encode(),
            true,
            |b| Snapshot::decode(b).map(drop),
            |e| match e {
                lcdb_recover::RecoverError::Truncated { offset, .. } => Some(*offset),
                _ => None,
            },
        );

        let dir = scratch("mutate");
        {
            let cat = PlanCatalog::open(&dir).unwrap();
            cat.save_extension(&regions).unwrap();
            cat.save_result(7, 9, &["S".into(), "T".into()], b"true").unwrap();
            cat.checkpoint().unwrap();
        }
        let image = std::fs::read(dir.join("store.cat")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        mutate(
            "store.cat",
            &image,
            true,
            |b| lcdb_store::Catalog::decode(b).map(drop),
            store_offset,
        );

        mutate(
            "arrangement blob",
            &encode_arrangement(regions.arrangement()),
            false,
            |b| decode_arrangement(b).map(drop),
            store_offset,
        );
    }

    /// The faces of `x = 0` on the line, `[−] [0] [+]`: in order the blob
    /// decodes, with the first two swapped it is a typed `Malformed` error.
    #[test]
    fn swapped_faces_are_a_malformed_blob() {
        let blob = |faces: [(u8, u64, &str, Option<&str>); 3]| {
            let mut out = Vec::new();
            put_u8(&mut out, ARR_VERSION);
            for n in [1, 1, 1] {
                // dim, hyperplanes, coefficients
                put_u64(&mut out, n);
            }
            put_str(&mut out, "1");
            put_str(&mut out, "0");
            put_u64(&mut out, faces.len() as u64);
            for (sign, dim, witness, ray) in faces {
                put_u64(&mut out, 1);
                put_u8(&mut out, sign);
                put_u64(&mut out, dim);
                put_u64(&mut out, 1);
                put_str(&mut out, witness);
                put_u64(&mut out, u64::from(ray.is_some()));
                ray.into_iter().for_each(|r| put_str(&mut out, r));
            }
            out
        };
        let (neg, zero, pos) = ((0, 1, "-1", Some("-1")), (1, 0, "0", None), (2, 1, "1", Some("1")));
        let a = decode_arrangement(&blob([neg, zero, pos])).unwrap();
        assert_eq!(a.num_faces(), 3);
        match decode_arrangement(&blob([zero, neg, pos])) {
            Err(StoreError::Malformed { message, .. }) => {
                assert!(message.contains("sign-vector order"), "{message}")
            }
            other => panic!("swapped faces decoded to {:?}", other.map(|a| a.num_faces())),
        }
    }

    /// A v1 blob (a bounded byte where v2 stores the ray) is a typed
    /// version error, and the catalog ladder turns it into a warning and a
    /// rebuild that replaces it.
    #[test]
    fn v1_arrangement_blob_is_unsupported_and_rebuilt() {
        // ℝ² with no hyperplanes: one unbounded face at the origin.
        let mut v1 = Vec::new();
        put_u8(&mut v1, 1);
        for n in [2, 0, 1, 0, 2, 2] {
            // dim, hyperplanes, faces, signs, face dim, witness length
            put_u64(&mut v1, n);
        }
        put_str(&mut v1, "0");
        put_str(&mut v1, "0");
        put_u8(&mut v1, 0);
        assert!(matches!(
            decode_arrangement(&v1),
            Err(StoreError::UnsupportedVersion { found: 1, supported: 2, .. })
        ));

        let dir = scratch("v1");
        let cat = PlanCatalog::open(&dir).unwrap();
        let db = sample_db();
        let (d, hyperplanes) = ArrangementRegions::spatial_hyperplanes(&db, "S").unwrap();
        cat.lock().put(PlanCatalog::arrangement_key(d, &hyperplanes), &v1).unwrap();
        let (built, warnings) = cat.extension_or_build(&db, "S", || Ok(arrangement(db.clone()))).unwrap();
        assert!(
            matches!(&warnings[..], [w] if w.contains("unreadable") && w.contains("rebuilding")),
            "{warnings:?}"
        );
        let warm = cat.load_extension(&db, "S").unwrap().expect("the rebuild was saved");
        assert_eq!(warm.num_regions(), built.num_regions());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn with(db: &Database, name: &str, vars: &[&str], src: &str) -> Database {
        let mut db = db.clone();
        let vars = vars.iter().map(|v| v.to_string()).collect();
        db.insert(name, Relation::new(vars, &parse_formula(src).unwrap()));
        db
    }

    /// The arrangement is keyed by the spatial hyperplanes: a changed plane
    /// is a miss, a relation of another arity or another spatial relation of
    /// the same planes is a hit, and so is the old database after a change.
    #[test]
    fn catalog_roundtrips_extension_keyed_by_its_hyperplanes() {
        let dir = scratch("ext");
        let cat = PlanCatalog::open(&dir).unwrap();
        let db = sample_db();
        assert!(cat.load_extension(&db, "S").unwrap().is_none());

        let built = arrangement(db.clone());
        cat.save_extension(&built).unwrap();
        let warm = cat.load_extension(&db, "S").unwrap().expect("catalog hit");
        assert_eq!(warm.num_regions(), built.num_regions());
        assert_eq!(warm.spatial_relation(), "S");
        for id in warm.region_ids() {
            assert_eq!(warm.region(id).dim, built.region(id).dim);
            assert!(warm.subset_of(id, "S") == built.subset_of(id, "S"));
        }

        // T has S's arity, so its planes are part of the key.
        let changed = with(&db, "T", &["x", "y"], "x - y > 2");
        assert!(cat.load_extension(&changed, "S").unwrap().is_none());
        assert!(cat.load_extension(&db, "S").unwrap().is_some(), "the old entry is still right");
        let unary = with(&db, "U", &["x"], "x > 5");
        assert!(cat.load_extension(&unary, "S").unwrap().is_some());
        let over_t = cat.load_extension(&db, "T").unwrap().expect("same planes, same arity");
        assert_eq!(over_t.spatial_relation(), "T");

        // A blob over other planes under this key (a fingerprint collision)
        // is a miss, not a wrong arrangement.
        let (d, hyperplanes) = ArrangementRegions::spatial_hyperplanes(&db, "S").unwrap();
        let other = encode_arrangement(arrangement(changed).arrangement());
        cat.lock().put(PlanCatalog::arrangement_key(d, &hyperplanes), &other).unwrap();
        assert!(cat.load_extension(&db, "S").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An arrangement derived by edits lists its planes in edit order; the
    /// ladder puts them in build order before it saves and returns them, so
    /// a load finds it and its region ids are a build's.
    #[test]
    fn a_derived_arrangement_is_served_in_build_order() {
        let dir = scratch("derived");
        let cat = PlanCatalog::open(&dir).unwrap();
        let db = sample_db();
        // `A` sorts before S, so a build lists its plane first, where the
        // edit appends it.
        let grown = with(&db, "A", &["x", "y"], "x + 2*y < 3");
        let budget = crate::EvalBudget::unlimited();
        let (derived, delta) = arrangement(db)
            .try_derive(grown.clone(), "S", &budget, &lcdb_exec::Pool::serial())
            .unwrap()
            .expect("one insert beats a rebuild");
        assert_eq!(delta.inserted, 1);
        let (_, canonical) = ArrangementRegions::spatial_hyperplanes(&grown, "S").unwrap();
        assert_ne!(derived.arrangement().hyperplanes(), &canonical[..]);
        let (served, warnings) = cat.extension_or_build(&grown, "S", || Ok(derived)).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(served.arrangement().hyperplanes(), &canonical[..]);
        let warm = cat.load_extension(&grown, "S").unwrap().expect("catalog hit");
        let built = arrangement(grown);
        for regions in [&served, &warm] {
            assert_eq!(regions.num_regions(), built.num_regions());
            for id in regions.region_ids() {
                assert_eq!(regions.region(id).dim, built.region(id).dim);
                assert!(built.contains_point(id, &regions.region(id).witness));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stored blob the store's own checksums pass but the snapshot codec
    /// (garbage) or `resume_from` (another query's stages) refuses: a
    /// warning, a cold run with the right verdict, and the entry dropped.
    #[test]
    fn unusable_stored_fixpoint_is_a_warning_and_a_cold_run() {
        let dir = scratch("refuse");
        let cat = PlanCatalog::open(&dir).unwrap();
        let db = sample_db();
        let db_fp = database_fingerprint(&db, Some("S"));
        let regions = arrangement(db.clone());
        let q = crate::queries::connectivity();
        let verdict = Evaluator::new(&regions).eval_sentence(&q);
        let kind = DecompositionKind::Arrangement;
        let key = || PlanCatalog::fixpoint_key(query_fingerprint(&q), db_fp, kind);
        let foreign = empty_checkpoint(&crate::queries::nonempty()).encode();
        for (blob, complaint) in [
            (&b"LCDBSNAPgarbage"[..], "unreadable"),
            (&foreign[..], "not resumable"),
        ] {
            cat.lock().put(key(), blob).unwrap();
            let ev = Evaluator::new(&regions);
            let run = cat.eval_resumable(&q, db_fp, kind, Ok(ev), |ev| {
                ev.try_eval_sentence(&q)
            });
            assert!(!run.resumed);
            assert!(
                matches!(&run.warnings[..], [w] if w.contains(complaint) && w.contains("cold")),
                "{:?}",
                run.warnings
            );
            assert_eq!(run.result, Ok(verdict));
            assert!(cat.load_fixpoint(&key()).unwrap().is_none(), "entry dropped");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_results_and_fixpoints_survive_reopen() {
        let fixpoint_key = || PlanCatalog::fixpoint_key(42, 9, DecompositionKind::Arrangement);
        let dir = scratch("res");
        {
            let cat = PlanCatalog::open(&dir).unwrap();
            cat.save_result(7, 9, &["S".into()], b"TRUE").unwrap();
            let snap = Snapshot::Fixpoint(lcdb_recover::FixpointSnapshot {
                query_fingerprint: 42,
                stats: Default::default(),
                entries: Vec::new(),
            });
            cat.put(fixpoint_key(), &snap.encode()).unwrap();
            cat.checkpoint().unwrap();
        }
        let cat = PlanCatalog::open(&dir).unwrap();
        assert_eq!(cat.load_result(7, 9).unwrap().as_deref(), Some(&b"TRUE"[..]));
        assert_eq!(cat.load_result(7, 10).unwrap(), None);
        let snap = cat.load_fixpoint(&fixpoint_key()).unwrap().expect("fixpoint hit");
        assert_eq!(snap.fingerprint(), 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
