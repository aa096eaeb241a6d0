//! CI performance-regression gate.
//!
//! Replays the timed cores of experiments E3 (arrangement construction)
//! and E10 (PTIME capture) — the two workloads dominated by the scalar
//! rational kernel — and the alibi queries over one 16-bead pair, which
//! are quantifier elimination, and **fails (exit 1)** when any takes more
//! than 1.5× its recorded baseline.
//!
//! * Baselines live in `crates/bench/perf_baseline.json` (override the
//!   path with `LCDB_PERF_BASELINE`). Refresh them with
//!   `LCDB_PERF_BASELINE_REFRESH=1 perf_gate`, which measures and
//!   rewrites the file instead of gating.
//! * The gate auto-skips (exit 0, with a message) on runners where the
//!   measurement would be noise rather than signal: single-core machines,
//!   and machines whose 1-minute load average already exceeds the core
//!   count. `LCDB_PERF_FORCE=1` overrides the skip.
//! * An evaluation runs on one thread, so the numbers do not depend on
//!   the runner's core count, only on its per-core speed.

use lcdb_bench::{replay_e10, replay_e3, replay_qe};
use std::path::PathBuf;

const THRESHOLD: f64 = 1.5;

fn baseline_path() -> PathBuf {
    std::env::var_os("LCDB_PERF_BASELINE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json"))
}

/// Pull `"key":<digits>` out of the baseline JSON. The file is written by
/// this binary alone, so a full JSON parser buys nothing.
fn field(json: &str, key: &str) -> Option<u128> {
    let needle = format!("\"{}\":", key);
    let start = json.find(&needle)? + needle.len();
    let digits: String = json[start..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// 1-minute load average, where the OS exposes it.
fn loadavg1() -> Option<f64> {
    let raw = std::fs::read_to_string("/proc/loadavg").ok()?;
    raw.split_whitespace().next()?.parse().ok()
}

/// One `(row label, baseline key, microseconds)` per gated replay.
fn measure() -> [(&'static str, &'static str, u128); 3] {
    [
        ("E3", "e3_us", replay_e3()),
        ("E10", "e10_us", replay_e10()),
        ("QE", "qe_us", replay_qe()),
    ]
}

fn main() {
    let path = baseline_path();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if std::env::var_os("LCDB_PERF_BASELINE_REFRESH").is_some() {
        let fields: Vec<String> = measure()
            .iter()
            .map(|(_, key, us)| format!("\"{}\":{}", key, us))
            .collect();
        let json = format!("{{{},\"cores\":{}}}\n", fields.join(","), cores);
        match std::fs::write(&path, &json) {
            Ok(()) => println!(
                "perf_gate: baseline refreshed at {}: {}",
                path.display(),
                json.trim_end()
            ),
            Err(e) => {
                eprintln!("perf_gate: cannot write {}: {}", path.display(), e);
                std::process::exit(1);
            }
        }
        return;
    }

    let forced = std::env::var_os("LCDB_PERF_FORCE").is_some();
    if !forced {
        if cores < 2 {
            println!("perf_gate: single-core runner, skipping (set LCDB_PERF_FORCE=1 to gate anyway)");
            return;
        }
        if let Some(load) = loadavg1() {
            if load > cores as f64 {
                println!(
                    "perf_gate: loaded runner (load {:.1} > {} cores), skipping",
                    load, cores
                );
                return;
            }
        }
    }

    let Ok(raw) = std::fs::read_to_string(&path) else {
        // A missing baseline is a setup gap, not a regression: say so
        // loudly but let the build pass, or first-time contributors would
        // be gated on a file only a maintainer's machine can produce.
        println!(
            "perf_gate: no baseline at {} — run with LCDB_PERF_BASELINE_REFRESH=1 to record one",
            path.display()
        );
        return;
    };
    let mut failed = false;
    for (id, key, now) in measure() {
        let Some(base) = field(&raw, key) else {
            eprintln!(
                "perf_gate: malformed baseline {}: no {}",
                path.display(),
                key
            );
            std::process::exit(1);
        };
        let ratio = now as f64 / base.max(1) as f64;
        let verdict = if ratio > THRESHOLD { "FAIL" } else { "ok" };
        println!(
            "perf_gate: {:<4} baseline={:>9}us now={:>9}us ratio={:>5.2}x (limit {:.1}x) {}",
            id, base, now, ratio, THRESHOLD, verdict
        );
        failed |= ratio > THRESHOLD;
    }
    if failed {
        eprintln!(
            "perf_gate: regression beyond {:.1}x — if intentional, refresh with LCDB_PERF_BASELINE_REFRESH=1",
            THRESHOLD
        );
        std::process::exit(1);
    }
}
