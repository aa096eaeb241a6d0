//! Process-level tests: budget flags map tripped limits to distinct exit
//! codes and print partial statistics, end to end through the real binary.

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

#[test]
fn success_exits_zero() {
    let (out, code) = lcdb(&["-e", GAPPED, "connected"]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains("false"), "{}", out);
}

#[test]
fn iteration_limit_exit_code_and_partial_stats() {
    let (out, code) = lcdb(&["--max-iterations", "1", "-e", GAPPED, "connected"]);
    assert_eq!(code, 3, "{}", out);
    assert!(out.contains("iteration limit"), "{}", out);
    assert!(out.contains("partial stats"), "{}", out);
}

#[test]
fn face_limit_exit_code() {
    let (out, code) = lcdb(&["--max-faces=2", "-e", GAPPED, "regions"]);
    assert_eq!(code, 4, "{}", out);
    assert!(out.contains("face limit"), "{}", out);
}

#[test]
fn deadline_exit_code() {
    let (out, code) = lcdb(&["--timeout", "0", "-e", GAPPED, "connected"]);
    assert_eq!(code, 2, "{}", out);
    assert!(out.contains("deadline"), "{}", out);
}

#[test]
fn bad_flag_value_exits_one() {
    let (out, code) = lcdb(&["--timeout", "never", "-e", "help"]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("bad --timeout"), "{}", out);
}

#[test]
fn unknown_flag_exits_one_without_evaluating() {
    // Not a limit flag: it is read as a script path, which does not exist.
    let (out, code) = lcdb(&["--no-such-flag", "2", "-e", GAPPED, "connected"]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.starts_with("error:"), "{}", out);
    assert!(!out.contains("false"), "{}", out);
}

#[test]
fn generic_error_exits_one() {
    let (out, code) = lcdb(&["-e", "spatial Nope"]);
    assert_eq!(code, 1, "{}", out);
    assert!(out.contains("unknown relation"), "{}", out);
}

#[test]
fn hostile_definition_exits_one() {
    let (out, code) = lcdb(&["-e", "rel S(x) := y < 1"]);
    assert_eq!(code, 1, "{}", out);
    assert!(
        out.contains("error: definition mentions unknown variable 'y'"),
        "{}",
        out
    );
}
