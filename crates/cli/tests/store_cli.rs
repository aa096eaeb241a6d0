//! Process-level tests for the persistent plan catalog: the `lcdb store`
//! maintenance subcommand and `--store DIR` warm starts across processes.

use std::path::PathBuf;
use std::process::Command;

const GAPPED: &str = "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)";

fn lcdb(args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_lcdb"))
        .args(args)
        .output()
        .expect("binary runs");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (text, out.status.code().unwrap_or(-1))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-store-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_lifecycle_init_stat_verify_compact() {
    let dir = temp_dir("lifecycle");
    let dir_s = dir.to_string_lossy().into_owned();

    let (out, code) = lcdb(&["store", "init", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("initialized empty store"), "{}", out);

    // Double init is refused.
    let (out, code) = lcdb(&["store", "init", &dir_s]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("already exists"), "{}", out);

    let (out, code) = lcdb(&["store", "stat", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("entries     0"), "{}", out);

    let (out, code) = lcdb(&["store", "verify", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("ok"), "{}", out);

    let (out, code) = lcdb(&["store", "compact", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("compacted"), "{}", out);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_usage_and_errors() {
    let (out, code) = lcdb(&["store", "--help"]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("usage: lcdb store"), "{}", out);

    let (out, code) = lcdb(&["store", "stat"]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("needs a directory"), "{}", out);

    let (out, code) = lcdb(&["store", "frobnicate", "/tmp/nowhere"]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("unknown store action"), "{}", out);

    let dir = temp_dir("missing");
    let (out, code) = lcdb(&["store", "stat", &dir.to_string_lossy()]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("no store at"), "{}", out);
}

/// A failed store operation is an error, not a usage mistake: `verify` of a
/// store with one flipped byte names the bad entry and its verdict, and
/// prints no usage text; an unknown action still does.
#[test]
fn a_damaged_store_fails_verify_without_usage_text() {
    let dir = temp_dir("damaged");
    let dir_s = dir.to_string_lossy().into_owned();
    let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "connected"]);
    assert_eq!(code, 0, "{}", out);
    // Under the index checkpoint, a flipped record is read as damaged, not
    // cut as a torn tail.
    let (out, code) = lcdb(&["store", "compact", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    let segment = std::fs::read_dir(&dir)
        .expect("store directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .max_by_key(|p| std::fs::metadata(p).expect("segment").len())
        .expect("a segment holds the records");
    let mut bytes = std::fs::read(&segment).expect("segment");
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("write");

    let (out, code) = lcdb(&["store", "verify", &dir_s]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("bad entry"), "{}", out);
    assert!(out.contains("verification failed: 1 bad entr(ies)"), "{}", out);
    assert!(!out.contains("usage: lcdb store"), "{}", out);

    let (out, code) = lcdb(&["store", "frobnicate", &dir_s]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("usage: lcdb store"), "{}", out);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The warm-start cycle: process 1 builds and persists the arrangement,
/// process 2 loads it back and answers identically, and the persisted
/// files pass a full verification sweep.
#[test]
fn shell_persists_arrangement_and_warm_starts() {
    let dir = temp_dir("warm");
    let dir_s = dir.to_string_lossy().into_owned();

    let (cold, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "regions", "connected"]);
    assert_eq!(code, 0, "{}", cold);
    assert!(cold.contains("false"), "{}", cold);

    // The store now holds the persisted extension.
    let (out, code) = lcdb(&["store", "stat", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("entries     1"), "{}", out);
    let (out, code) = lcdb(&["store", "verify", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("ok"), "{}", out);

    // A fresh process answers identically from the persisted arrangement.
    let (warm, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "regions", "connected"]);
    assert_eq!(code, 0, "{}", warm);
    assert_eq!(cold, warm, "warm-start output differs from cold run");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A changed definition is a different database: it misses the entries
/// persisted for the old definition, so a later process never sees a stale
/// arrangement.
#[test]
fn a_changed_definition_misses_persisted_entries() {
    let dir = temp_dir("changed");
    let dir_s = dir.to_string_lossy().into_owned();

    let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "connected"]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("false"), "{}", out);

    // Same process-style run, but the relation is redefined to a connected
    // set before evaluating: the persisted gapped arrangement must not be
    // served, and the verdict flips.
    let (out, code) = lcdb(&[
        "--store",
        &dir_s,
        "-e",
        GAPPED,
        "rel S(x) := 0 < x and x < 3",
        "connected",
    ]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("true"), "{}", out);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store of an older format cannot be opened — version 1 (before
/// content-addressed keys) or version 2 (pages beside a WAL, before the
/// record log): the shell warns, runs without persistence, and answers.
#[test]
fn a_version_1_store_warns_and_runs_without_persistence() {
    for version in [1u32, 2] {
        let dir = temp_dir(&format!("v{version}"));
        let dir_s = dir.to_string_lossy().into_owned();
        let (out, code) = lcdb(&["store", "init", &dir_s]);
        assert_eq!(code, 0, "{}", out);
        // store.meta is magic · version · reserved · fnv1a64(version · reserved).
        let meta = dir.join("store.meta");
        let mut bytes = std::fs::read(&meta).expect("meta");
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        let sum = lcdb_exec::hash::fnv1a64(&bytes[8..16]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&meta, &bytes).expect("write meta");

        let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "connected"]);
        assert_eq!(code, 0, "{}", out);
        let warning = format!(
            "meta file has version {version}, this build reads version 3 (persistence disabled)"
        );
        assert!(out.contains(&warning), "{}", out);
        assert!(out.contains("false"), "{}", out);
        let (out, code) = lcdb(&["store", "stat", &dir_s]);
        assert_eq!(code, 1, "{}", out);
        assert!(out.contains(&format!("version {version}")), "{}", out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
