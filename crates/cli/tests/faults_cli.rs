//! Process-level fault-injection tests (enabled with `--features faults`):
//! `LCDB_FAULT_SITE` arms a plan in the spawned `lcdb` process, proving the
//! two crash-safety exit codes end to end — 9 for an unhandled injected
//! fault (with its stages left in the `--store` catalog to resume from) and
//! 8 for a quarantined partial verdict under `--allow-partial`.

#![cfg(feature = "faults")]

use std::path::PathBuf;
use std::process::Command;

const GAPPED: &str = "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)";

fn lcdb_with_fault(site: &str, args: &[&str]) -> (String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_lcdb"))
        .env("LCDB_FAULT_SITE", site)
        .args(args)
        .output()
        .expect("binary runs");
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    (text, out.status.code().unwrap_or(-1))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lcdb-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An injected fault in strict mode exits 9, names the site, and leaves
/// stages in the store that a fault-free process resumes to the correct
/// verdict.
#[test]
fn injected_fault_exits_9_and_checkpoints() {
    let dir = temp_dir("fault-strict");
    let dir_s = dir.to_string_lossy().into_owned();
    let args = ["--store", &dir_s, "-e", GAPPED, "connected"];
    // The second stage transition: one completed stage to resume from.
    let (out, code) = lcdb_with_fault("core.fix_stage:2", &args);
    assert_eq!(code, 9, "{}", out);
    assert!(out.contains("injected fault"), "{}", out);
    assert!(out.contains("core.fix_stage"), "{}", out);

    let resume = Command::new(env!("CARGO_BIN_EXE_lcdb"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&resume.stdout).into_owned();
    assert_eq!(resume.status.code(), Some(0), "{}", text);
    assert!(text.contains("resumed from store"), "{}", text);
    assert!(text.contains("false"), "{}", text);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `--allow-partial` the same fault is quarantined: the query still
/// answers, the partial line names the site, and the process exits 8.
#[test]
fn allow_partial_quarantines_and_exits_8() {
    let (out, code) = lcdb_with_fault(
        "core.fix_stage",
        &["--allow-partial", "-e", GAPPED, "connected"],
    );
    assert_eq!(code, 8, "{}", out);
    assert!(out.contains("partial result: quarantined"), "{}", out);
    assert!(out.contains("core.fix_stage"), "{}", out);
}

/// A plan naming only sites this query never reaches is inert: clean run,
/// exit 0, full verdict.
#[test]
fn unreached_site_is_harmless() {
    let (out, code) = lcdb_with_fault("datalog.round", &["-e", GAPPED, "connected"]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("false"), "{}", out);
}
