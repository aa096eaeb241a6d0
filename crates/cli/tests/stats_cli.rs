//! Process-level tests for `lcdb stats`: a served run persists one `req`
//! row per request, and the two views read those rows back exactly.

use lcdb_server::load::{self, LoadConfig};
use lcdb_server::{Client, RespCode};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const QUERY: &str = "exists R. R subset S";
const REQUESTS: usize = 5;

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
fn views_report_what_the_server_stored() {
    let dir = std::env::temp_dir().join(format!("lcdb-stats-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_string_lossy().into_owned();

    let mut child = Command::new(env!("CARGO_BIN_EXE_lcdb"))
        .args(["serve", "--addr", "127.0.0.1:0", "--store", &dir_s])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read announcement");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {:?}", line))
        .to_string();

    // The load generator behind `lcdb-load`: one client, its define
    // preamble (not a telemetry row), then REQUESTS evaluations.
    let report = load::run(&LoadConfig {
        addr: addr.clone(),
        clients: 1,
        requests: REQUESTS,
        query: QUERY.into(),
        ..LoadConfig::default()
    });
    assert_eq!((report.ok, report.conn_errors), (REQUESTS as u64, 0));
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.shutdown().expect("shutdown io").code, RespCode::Ok);
    assert!(child.wait().expect("server joins").success());

    // A 64-bit FNV fingerprint: any reader that goes through f64 loses
    // its low 11 bits and prints a plan that exists nowhere.
    let fp = lcdb_core::query_fingerprint(&lcdb_core::parse_regformula(QUERY).expect("parses"));
    assert!(fp > 1 << 53, "fingerprint {fp:016x} would survive an f64");
    let (out, code) = lcdb(&["stats", "top", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    assert!(out.contains(&format!("over {REQUESTS} request row(s)")), "{}", out);
    let plans: Vec<&str> = out.lines().skip(2).collect();
    assert_eq!(plans.len(), 1, "{}", out);
    assert!(plans[0].trim_start().starts_with(&format!("{fp:016x} ")), "{}", out);

    let (out, code) = lcdb(&["stats", "latency", &dir_s]);
    assert_eq!(code, 0, "{}", out);
    let batches: Vec<Vec<&str>> = out
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(batches.len(), 1, "{}", out);
    assert_eq!(batches[0][..2], ["req-00000000", &REQUESTS.to_string()], "{}", out);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn removed_actions_are_unknown() {
    for action in ["import", "regressions"] {
        let (out, code) = lcdb(&["stats", action, "/tmp/nowhere"]);
        assert_eq!(code, 1, "{}", out);
        assert!(out.contains(&format!("unknown stats action '{action}'")), "{}", out);
        assert!(out.contains("usage: lcdb stats <top|latency>"), "{}", out);
    }
}
