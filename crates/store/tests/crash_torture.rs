//! Crash-torture: kill the writer at every seeded kill point and demand
//! byte-identical recovery.
//!
//! For each seed the harness first runs the `store_torture` writer to
//! completion, collecting the canonical state dump after every operation
//! (the fault-free baselines) and the total number of kill points the run
//! passes. It then re-runs the same workload once per kill point with the
//! process armed to die exactly there (`LCDB_KILL_AT=n`), reopens the
//! store (recovery), and asserts:
//!
//! * recovery never panics and never returns an error;
//! * the recovered canonical dump is **byte-identical** to the baseline
//!   state either before or after the operation that was in flight;
//! * `verify()` reports the recovered store clean — no silent corruption.
//!
//! Kill points cover every site of `lcdb_store::kill::SITES` — record
//! appends, compaction copies, index checkpoints and segment deletes —
//! including mid-write positions that leave torn frames on disk, and the
//! baseline run of each default seed passes every site. Seeds 1–2 run by
//! default (≥200 points); CI fans seeds 1–5 across jobs via
//! `LCDB_TORTURE_SEED`.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use lcdb_store::kill::{KILL_EXIT_CODE, SITES};
use lcdb_store::Store;

const OPS: u64 = 30;

fn torture_bin() -> &'static str {
    env!("CARGO_BIN_EXE_store_torture")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-torture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Baseline {
    kill_points: u64,
    /// Kill points passed at each site, as `site NAME=N` lines report them.
    site_hits: HashMap<String, u64>,
    /// Canonical dump after op k (index k; index 0 = empty store).
    dumps: Vec<Vec<u8>>,
}

fn run_baseline(root: &Path, seed: u64) -> Baseline {
    let dir = root.join("baseline-store");
    let dumps_dir = root.join("baseline-dumps");
    let out = Command::new(torture_bin())
        .args(["--dir"])
        .arg(&dir)
        .args(["--seed", &seed.to_string(), "--ops", &OPS.to_string()])
        .arg("--dump-each")
        .arg(&dumps_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "baseline run failed for seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let kill_points = stdout
        .lines()
        .find_map(|l| l.strip_prefix("kill_points=").map(|v| v.parse().unwrap()))
        .expect("baseline run did not report kill_points");
    let site_hits = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("site ")?.split_once('='))
        .map(|(site, n)| (site.to_string(), n.parse().unwrap()))
        .collect();
    let dumps = (0..=OPS)
        .map(|k| std::fs::read(dumps_dir.join(format!("op-{k}.bin"))).unwrap())
        .collect();
    Baseline {
        kill_points,
        site_hits,
        dumps,
    }
}

fn last_begun_op(stdout: &str) -> u64 {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("begin-op "))
        .filter_map(|v| v.parse().ok())
        .next_back()
        .unwrap_or(0)
}

#[test]
fn killed_writers_always_recover_to_a_baseline_state() {
    // CI sets LCDB_TORTURE_SEED to fan the matrix across jobs; the default
    // two seeds keep the in-tree run above 200 kill points.
    let seeds: Vec<u64> = match std::env::var("LCDB_TORTURE_SEED") {
        Ok(v) => vec![v.parse().expect("LCDB_TORTURE_SEED must be an integer")],
        Err(_) => vec![1, 2],
    };
    let mut total_points = 0u64;
    let mut survived_full_run = 0u64;
    for &seed in &seeds {
        let root = scratch(&format!("seed{seed}"));
        let baseline = run_baseline(&root, seed);
        assert!(
            baseline.kill_points >= 80,
            "seed {seed} passes only {} kill points; workload too small",
            baseline.kill_points
        );
        total_points += baseline.kill_points;
        if seed <= 2 {
            for site in SITES {
                assert!(
                    baseline.site_hits.get(site).is_some_and(|&n| n > 0),
                    "seed {seed} passes no kill point at {site}: {:?}",
                    baseline.site_hits
                );
            }
        }

        for n in 1..=baseline.kill_points {
            let dir = root.join("killed-store");
            let obs_dir = root.join("killed-dumps");
            let _ = std::fs::remove_dir_all(&dir);
            let _ = std::fs::remove_dir_all(&obs_dir);
            std::fs::create_dir_all(&obs_dir).unwrap();
            let out = Command::new(torture_bin())
                .args(["--dir"])
                .arg(&dir)
                .args(["--seed", &seed.to_string(), "--ops", &OPS.to_string()])
                .env("LCDB_KILL_AT", n.to_string())
                .env("LCDB_OBS_DIR", &obs_dir)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                !stderr.contains("panic"),
                "seed {seed} kill {n}: writer panicked:\n{stderr}"
            );
            if out.status.success() {
                // The armed point was passed only at/after the final
                // bookkeeping; the run completed normally.
                survived_full_run += 1;
            } else {
                assert_eq!(
                    out.status.code(),
                    Some(KILL_EXIT_CODE),
                    "seed {seed} kill {n}: unexpected exit {:?}:\n{stderr}",
                    out.status.code()
                );
                // A kill point is one of the flight recorder's dump
                // sites: the dying process must leave a schema-valid
                // black box behind, naming the site that fired.
                let dumps: Vec<PathBuf> = std::fs::read_dir(&obs_dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .collect();
                assert_eq!(
                    dumps.len(),
                    1,
                    "seed {seed} kill {n}: expected exactly one flight-recorder dump, \
                     found {dumps:?}"
                );
                let text = std::fs::read_to_string(&dumps[0]).unwrap();
                let report = lcdb_trace::recorder::validate_dump(&text).unwrap_or_else(|e| {
                    panic!("seed {seed} kill {n}: invalid flight-recorder dump: {e}")
                });
                assert!(
                    report.reason.starts_with("kill:store."),
                    "seed {seed} kill {n}: dump reason '{}' does not name a kill site",
                    report.reason
                );
            }
            let k = last_begun_op(&stdout) as usize;

            // Recovery must succeed and land on the pre- or post-op state.
            let store = Store::open(&dir)
                .unwrap_or_else(|e| panic!("seed {seed} kill {n}: recovery failed: {e}"));
            let dump = store
                .canonical_dump()
                .unwrap_or_else(|e| panic!("seed {seed} kill {n}: dump failed: {e}"));
            let pre = &baseline.dumps[k.saturating_sub(1)];
            let post = &baseline.dumps[k];
            assert!(
                dump == *pre || dump == *post,
                "seed {seed} kill {n}: recovered state matches neither the \
                 pre- nor post-write baseline of op {k}",
            );
            let report = store
                .verify()
                .unwrap_or_else(|e| panic!("seed {seed} kill {n}: verify errored: {e}"));
            assert!(
                report.ok,
                "seed {seed} kill {n}: verify found corruption after recovery: \
                 bad entries {:?}",
                report.bad_entries
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    // The acceptance bar: hundreds of distinct seeded kill points, and the
    // kills must actually be happening (not all runs surviving).
    if seeds.len() > 1 {
        assert!(
            total_points >= 200,
            "only {total_points} kill points exercised"
        );
    }
    assert!(
        survived_full_run < total_points / 2,
        "most runs survived ({survived_full_run}/{total_points}): kill arming is broken"
    );
}

#[test]
fn killed_run_statistics_are_deterministic_per_seed() {
    // The same seed must pass the same number of kill points on every run,
    // or the matrix in CI would silently drift.
    let root_a = scratch("det-a");
    let root_b = scratch("det-b");
    let a = run_baseline(&root_a, 42);
    let b = run_baseline(&root_b, 42);
    assert_eq!(a.kill_points, b.kill_points);
    assert_eq!(a.site_hits, b.site_hits);
    let a_dumps: HashMap<usize, &Vec<u8>> = a.dumps.iter().enumerate().collect();
    for (k, dump) in b.dumps.iter().enumerate() {
        assert_eq!(a_dumps[&k], dump, "dump after op {k} differs between runs");
    }
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}
