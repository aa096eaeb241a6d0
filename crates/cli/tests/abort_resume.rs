//! Process-level crash-safety tests: a run killed by a budget leaves its
//! completed fixpoint stages in the `--store` catalog, and a second process
//! running the same command completes the query from them with the verdict
//! and the work counters of an uninterrupted run.

use std::path::{Path, PathBuf};
use std::process::Command;

const GAPPED: &str = "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)";
/// `connected`, spelled out: the `sentence` command prints the work counters.
const CONN: &str = "sentence forall Rx. forall Ry. (Rx subset S and Ry subset S) -> [lfp $M, R, Rp. (R = Rp and R subset S) or (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";

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
    let dir = std::env::temp_dir().join(format!("lcdb-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Catalog entries in the store at `dir`, as `lcdb store stat` counts them.
fn entries(dir: &Path) -> u64 {
    let (out, code) = lcdb(&["store", "stat", &dir.to_string_lossy()]);
    assert_eq!(code, 0, "{}", out);
    out.lines()
        .find_map(|l| l.trim().strip_prefix("entries"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no entry count in: {}", out))
}

/// The headline acceptance cycle: kill → stages in the store → the same
/// command again → identical verdict and counters, across two processes.
#[test]
fn killed_run_resumes_to_same_verdict() {
    let dir = temp_dir("resume");
    let dir_s = dir.to_string_lossy().into_owned();

    // Uninterrupted reference run.
    let (full, code) = lcdb(&["-e", GAPPED, CONN]);
    assert_eq!(code, 0, "{}", full);
    assert!(full.contains("false"), "{}", full);

    // Killed run: the iteration cap aborts the connectivity LFP.
    let (out, code) = lcdb(&["--store", &dir_s, "--max-iterations", "1", "-e", GAPPED, CONN]);
    assert_eq!(code, 3, "{}", out);
    assert!(!out.contains("resumed from"), "{}", out);
    assert_eq!(entries(&dir), 2, "the arrangement and the fixpoint stages");

    // Fresh process, same command, adequate budget: it says where it picked
    // up, and everything else it prints is what the uninterrupted run
    // printed — verdict, stage total and every other counter.
    let (out, code) = lcdb(&["--store", &dir_s, "--max-iterations", "9", "-e", GAPPED, CONN]);
    assert_eq!(code, 0, "{}", out);
    assert_eq!(out.replacen("resumed from store\n", "", 1), full, "{}", out);
    assert_eq!(entries(&dir), 1, "success consumes the stages");

    // Nothing left to resume: the next run is an ordinary warm start.
    let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, CONN]);
    assert_eq!((out.as_str(), code), (full.as_str(), 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// An abort before any fixpoint stage completed — a deadline that fires at
/// the first table, a face cap that stops the decomposition itself — still
/// leaves a (stage-less) entry behind, and the resumed run completes.
#[test]
fn timeout_before_decomposition_still_checkpoints() {
    for (flag, value, exit, stored) in [("--timeout", "0", 2, 2), ("--max-faces", "2", 4, 1)] {
        let dir = temp_dir(&format!("resume{flag}"));
        let dir_s = dir.to_string_lossy().into_owned();
        let (out, code) = lcdb(&["--store", &dir_s, flag, value, "-e", GAPPED, "connected"]);
        assert_eq!(code, exit, "{}", out);
        assert_eq!(entries(&dir), stored, "{flag}: the fixpoint entry is one of them");
        let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "connected"]);
        assert_eq!(code, 0, "{}", out);
        assert!(out.contains("resumed from store"), "{}", out);
        assert!(out.contains("false"), "{}", out);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A flipped byte in the stored fixpoint blob is refused with a warning,
/// never a panic and never a wrong answer: the run goes cold, gets the
/// right verdict, exits 0 and drops the damaged entry.
#[test]
fn corrupt_snapshot_is_refused() {
    let dir = temp_dir("resume-corrupt");
    let dir_s = dir.to_string_lossy().into_owned();
    let (out, code) = lcdb(&["--store", &dir_s, "--max-iterations", "1", "-e", GAPPED, "connected"]);
    assert_eq!(code, 3, "{}", out);
    // Bring every record under the index checkpoint, or replay would cut
    // the flipped record as a torn tail instead of reading it.
    let (out, code) = lcdb(&["store", "compact", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    let segment = std::fs::read_dir(&dir)
        .expect("store directory")
        .map(|e| e.expect("entry").path())
        .find(|p| {
            p.extension().is_some_and(|x| x == "log")
                && std::fs::read(p).expect("segment").windows(8).any(|w| w == b"LCDBSNAP")
        })
        .expect("a segment holds the stored snapshot");
    let mut bytes = std::fs::read(&segment).expect("segment");
    let blob = bytes
        .windows(8)
        .position(|w| w == b"LCDBSNAP")
        .expect("the stored snapshot starts with its magic");
    bytes[blob + 40] ^= 0x01;
    std::fs::write(&segment, &bytes).expect("write");

    let (out, code) = lcdb(&["--store", &dir_s, "-e", GAPPED, "connected"]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("warning: stored fixpoint snapshot unreadable"), "{}", out);
    assert!(out.contains("running cold"), "{}", out);
    assert!(!out.contains("resumed from"), "{}", out);
    assert!(out.contains("false"), "{}", out);
    assert_eq!(entries(&dir), 1, "only the arrangement is left");
    let _ = std::fs::remove_dir_all(&dir);
}
