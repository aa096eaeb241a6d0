//! Deterministic store writer for the crash-torture harness.
//!
//! Runs a seeded workload of puts, deletes, least-recently-used evictions
//! (each after a get), checkpoints and compactions against a store
//! directory. Before each operation it prints `begin-op K` (flushed), so a
//! harness that kills this process mid-write knows which operation was in
//! flight; at the end it prints the kill points passed at each site
//! (`site store.append=N`, …) and in all (`kill_points=H`), which is the
//! size of the kill matrix for this seed.
//!
//! With `--dump-each DIR`, the canonical state dump is written after every
//! operation (`op-K.bin`, plus `op-0.bin` for the empty store): the
//! fault-free baselines the harness byte-compares recovered state against.
//!
//! Killing is armed purely by environment (`LCDB_KILL_AT=n`); see
//! `lcdb_store::kill`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use lcdb_exec::hash::splitmix64;
use lcdb_store::{
    kill, EntryKey, Store, CLASS_ARRANGEMENT, CLASS_FIXPOINT, CLASS_RESULT, CLASS_STATS,
};

/// Blob lengths are drawn from `0..BLOB_LEN`.
const BLOB_LEN: u64 = 12_209;
/// Eviction targets are drawn from `0..EVICT_TARGET` live bytes.
const EVICT_TARGET: u64 = 32_512;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
}

fn random_key(rng: &mut Rng) -> EntryKey {
    let class = [CLASS_STATS, CLASS_ARRANGEMENT, CLASS_RESULT, CLASS_FIXPOINT]
        [(rng.next() % 4) as usize];
    EntryKey {
        class,
        plan_fp: rng.next() % 5,
        db_fp: rng.next() % 3,
        name: format!("blob{}", rng.next() % 6),
    }
}

fn random_data(rng: &mut Rng) -> Vec<u8> {
    let len = (rng.next() % BLOB_LEN) as usize;
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        let chunk = rng.next().to_le_bytes();
        let take = chunk.len().min(len - data.len());
        data.extend_from_slice(&chunk[..take]);
    }
    data
}

fn emit(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn run() -> Result<(), String> {
    let mut dir: Option<PathBuf> = None;
    let mut dump_each: Option<PathBuf> = None;
    let mut seed: u64 = 1;
    let mut ops: u64 = 18;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
            "--dump-each" => dump_each = Some(PathBuf::from(value("--dump-each")?)),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--ops" => {
                ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("bad --ops: {e}"))?
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let dir = dir.ok_or("usage: store_torture --dir DIR [--seed N] [--ops N] [--dump-each DIR]")?;
    // The always-on flight recorder: when a kill point fires mid-write,
    // `lcdb_store::kill` dumps the ring into LCDB_OBS_DIR, and the spans
    // recorded below are the history that dump shows.
    lcdb_trace::recorder::init();
    let trace = lcdb_trace::TraceHandle::disabled_ref();
    let mut store = if Store::exists(&dir) {
        Store::open(&dir).map_err(|e| e.to_string())?
    } else {
        Store::init(&dir).map_err(|e| e.to_string())?
    };
    if let Some(d) = &dump_each {
        std::fs::create_dir_all(d).map_err(|e| e.to_string())?;
        let dump = store.canonical_dump().map_err(|e| e.to_string())?;
        std::fs::write(d.join("op-0.bin"), dump).map_err(|e| e.to_string())?;
    }
    let mut rng = Rng(splitmix64(seed));
    for k in 1..=ops {
        emit(&format!("begin-op {k}"));
        let _span = trace.span_with("torture.op", &format!("op {k}"));
        match rng.next() % 10 {
            0 => store.checkpoint().map_err(|e| e.to_string())?,
            1 => {
                // A delete removes a live entry, if there is one, so it
                // leaves a dead record for a later compaction.
                let live: Vec<EntryKey> = store.entries().map(|e| e.key.clone()).collect();
                let pick = rng.next() as usize % live.len().max(1);
                if let Some(key) = live.get(pick) {
                    store.delete(key).map_err(|e| e.to_string())?;
                }
            }
            2 => {
                // A get moves one entry (if present) to the back of the
                // eviction order; the target ranges from evicting
                // everything evictable to evicting nothing.
                let key = random_key(&mut rng);
                store.get(&key).map_err(|e| e.to_string())?;
                let target = rng.next() % EVICT_TARGET;
                store.evict_lru(target).map_err(|e| e.to_string())?;
            }
            3 => {
                store.compact().map_err(|e| e.to_string())?;
            }
            _ => {
                let key = random_key(&mut rng);
                let data = random_data(&mut rng);
                store.put(key, &data).map_err(|e| e.to_string())?;
            }
        }
        if let Some(d) = &dump_each {
            let dump = store.canonical_dump().map_err(|e| e.to_string())?;
            std::fs::write(d.join(format!("op-{k}.bin")), dump).map_err(|e| e.to_string())?;
        }
    }
    for (site, hits) in kill::site_hits() {
        emit(&format!("site {site}={hits}"));
    }
    emit(&format!("kill_points={}", kill::hits()));
    emit("ops-done");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("store_torture: {e}");
            ExitCode::FAILURE
        }
    }
}
