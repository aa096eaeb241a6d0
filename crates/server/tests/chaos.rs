//! Seeded chaos tests (enabled with `--features faults`): the server's
//! injection sites — `server.accept`, `server.read`, `server.dispatch` —
//! poison at most the affected connection or request. The listener keeps
//! accepting, sibling sessions keep completing with answers identical to a
//! fault-free run, and shutdown stays clean. With a store, an evaluation
//! killed by a fault inside the engine (`core.fix_stage`) leaves its
//! completed fixpoint stages in the catalog and the retry resumes from them.
//!
//! The seed comes from `LCDB_FAULT_SEED` (default 3), matching the CI fault
//! matrix of the rest of the workspace.
//!
//! Every test also runs under the global flight recorder with a shared
//! dump directory: the server marks each injected fault as a
//! `server.fault` trace event, which is one of the recorder's dump
//! triggers, so each fault site must leave a schema-valid dump naming the
//! site that fired.

#![cfg(feature = "faults")]

use lcdb_budget::faults::FaultPlan;
use lcdb_server::{Client, OpCode, RespCode, Server, ServerConfig};
use lcdb_trace::recorder::{self, DumpReport};
use lcdb_trace::TraceHandle;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const SERVER_SITES: &[&str] = &["server.accept", "server.read", "server.dispatch"];
const GAPPED: &str = "S(x) := (0 < x and x < 1) or (2 < x and x < 3)";
const NONEMPTY: &str = "exists x. S(x)";
const CONN: &str = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> [lfp $M, R, Rp. (R = Rp and R subset S) or (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";

fn seed() -> u64 {
    std::env::var("LCDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// Process-wide flight-recorder dump directory. All tests in this binary
/// share the one global recorder, so the directory is set once; the
/// recorder's `server.fault` trigger then auto-dumps on every injected
/// fault any test provokes.
fn obs_dir() -> &'static PathBuf {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("lcdb-chaos-dumps-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create dump dir");
        let rec = recorder::init();
        rec.set_dump_dir(Some(dir.clone()));
        dir
    })
}

/// Validate one dump file, retrying briefly: a sibling test's dump may be
/// mid-write when first read.
fn validate_eventually(path: &Path) -> Result<DumpReport, String> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let attempt = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| recorder::validate_dump(&text));
        match attempt {
            Ok(report) => return Ok(report),
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Assert that the injected fault at `site` left a schema-valid
/// flight-recorder dump naming that site. Polls: the dump is written by
/// whichever server thread hit the site, concurrently with the client.
fn assert_fault_dump(site: &str) {
    let needle = format!("site '{site}'");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(obs_dir()).expect("read dump dir") {
            let path = entry.expect("dir entry").path();
            if let Ok(report) = validate_eventually(&path) {
                if report.reason.contains(&needle) {
                    return;
                }
                seen.push(report.reason);
            }
        }
        assert!(
            Instant::now() <= deadline,
            "no flight-recorder dump names fault site {site}; saw reasons {seen:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn start() -> Server {
    start_with_store(None)
}

fn start_with_store(store_dir: Option<PathBuf>) -> Server {
    obs_dir();
    Server::start(
        ServerConfig {
            idle_timeout: Duration::from_secs(10),
            store_dir,
            ..ServerConfig::default()
        },
        TraceHandle::disabled(),
    )
    .expect("bind and start")
}

/// A poisoned accept drops exactly one connection; the listener and every
/// later session are untouched.
#[test]
fn accept_fault_drops_one_connection_listener_survives() {
    let _guard = FaultPlan::new().fail_on("server.accept", 1).arm();
    let server = start();
    let addr = server.addr().to_string();

    // The victim: TCP connects (the listener accepted), but the server
    // drops the socket before any session starts.
    let mut victim = Client::connect(&addr).expect("tcp handshake succeeds");
    assert!(
        victim.status().is_err(),
        "poisoned accept must close the connection"
    );

    // The site fires once per arming: every subsequent connection is served.
    for _ in 0..3 {
        let mut c = Client::connect(&addr).expect("connect");
        assert_eq!(c.define(GAPPED).expect("define").code, RespCode::Ok);
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    }
    server.shutdown();
    assert_fault_dump("server.accept");
}

/// The connection a server makes to itself to wake its blocked acceptor at
/// shutdown is nobody's session: it must not spend the plan's one
/// `server.accept` hit. Both servers below share this thread's arming, so
/// had the first one's wake-up consumed the fault, the second one's first
/// client would be served instead of dropped.
#[test]
fn shutdown_wake_up_does_not_consume_the_accept_fault() {
    let _guard = FaultPlan::new().fail_on("server.accept", 1).arm();
    start().shutdown();

    let server = start();
    let addr = server.addr().to_string();
    let mut victim = Client::connect(&addr).expect("tcp handshake succeeds");
    assert!(
        victim.status().is_err(),
        "the fault was still there for the first client connection"
    );
    let mut c = Client::connect(&addr).expect("connect");
    let status = c.status().expect("status").body;
    assert!(status.contains("accepted=2\n"), "status:\n{status}");
    assert!(status.contains("faults=1\n"), "status:\n{status}");
    server.shutdown();
}

/// A poisoned read quarantines exactly one session: the client gets a typed
/// Fault response and a closed connection; siblings are unaffected.
#[test]
fn read_fault_quarantines_one_session() {
    let _guard = FaultPlan::new().fail_on("server.read", 1).arm();
    let server = start();
    let addr = server.addr().to_string();

    let mut victim = Client::connect(&addr).expect("connect");
    let r = victim.define(GAPPED).expect("fault response arrives");
    assert_eq!((r.code, r.id), (RespCode::Fault, 0), "{}", r.body);
    assert!(
        victim.status().is_err(),
        "quarantined session is closed after the fault response"
    );

    let mut sibling = Client::connect(&addr).expect("connect");
    assert_eq!(sibling.define(GAPPED).expect("define").code, RespCode::Ok);
    let r = sibling.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    server.shutdown();
    assert_fault_dump("server.read");
}

/// A poisoned dispatch fails exactly one request — with the request's own
/// correlation id — and the same session immediately recovers.
#[test]
fn dispatch_fault_fails_one_request_session_recovers() {
    let _guard = FaultPlan::new().fail_on("server.dispatch", 1).arm();
    let server = start();
    let addr = server.addr().to_string();

    let mut c = Client::connect(&addr).expect("connect");
    // Define is handled inline by the session, not dispatched: unaffected.
    assert_eq!(c.define(GAPPED).expect("define").code, RespCode::Ok);
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval io");
    assert_eq!(r.code, RespCode::Fault, "{}", r.body);
    assert_ne!(r.id, 0, "dispatch fault is request-scoped");

    // Same connection, next request: served normally.
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval io");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    server.shutdown();
    assert_fault_dump("server.dispatch");
}

/// Evaluate `query` against `define`, riding out injected faults: reconnect
/// on dropped connections, retry on Fault responses. Returns the body of
/// the eventual Ok response.
fn robust_eval(addr: &str, define: &str, query: &str) -> String {
    for _attempt in 0..10 {
        let mut c = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        let ok = match c.define(define) {
            Ok(r) if r.code == RespCode::Ok => true,
            Ok(r) if r.code == RespCode::Fault => false, // quarantined session
            Ok(r) => panic!("define: unexpected {:?}: {}", r.code, r.body),
            Err(_) => false, // dropped connection (accept fault)
        };
        if !ok {
            continue;
        }
        // Retry Fault responses on the same session; reconnect on I/O
        // failure. Anything else is a contract violation.
        for _ in 0..10 {
            match c.request(OpCode::EvalSentence, 0, query) {
                Ok(r) if r.code == RespCode::Ok => return r.body,
                Ok(r) if r.code == RespCode::Fault => continue,
                Ok(r) => panic!("eval: unexpected {:?}: {}", r.code, r.body),
                Err(_) => break,
            }
        }
    }
    panic!("no successful evaluation within the retry budget");
}

/// The acceptance gate: under a seeded plan over all three server sites,
/// every client's every query eventually completes with *exactly* the
/// fault-free answer, only fault-poisoned connections/requests are
/// disrupted, and the server shuts down cleanly.
#[test]
fn seeded_chaos_preserves_answers_and_shuts_down_cleanly() {
    // Three clients with distinct databases and distinct expected verdicts.
    let workload: &[(&str, &str, &str)] = &[
        (GAPPED, NONEMPTY, "true"),
        ("S(x) := x < x", NONEMPTY, "false"),
        ("S(x) := 0 <= x and x <= 1", "forall x. not S(x)", "false"),
    ];

    // Fault-free baseline: confirms the expected bodies above.
    {
        let server = start();
        let addr = server.addr().to_string();
        for (def, query, want) in workload {
            assert_eq!(robust_eval(&addr, def, query), *want, "baseline {def}");
        }
        server.shutdown();
    }

    let base = seed();
    for delta in 0..3u64 {
        let _guard = FaultPlan::seeded(base.wrapping_add(delta), SERVER_SITES, 3).arm();
        let server = start();
        let addr = server.addr().to_string();
        std::thread::scope(|scope| {
            for (def, query, want) in workload {
                let addr = addr.clone();
                scope.spawn(move || {
                    for round in 0..3 {
                        assert_eq!(
                            robust_eval(&addr, def, query),
                            *want,
                            "seed {base}+{delta} round {round} db {def}"
                        );
                    }
                });
            }
        });
        // Clean shutdown: every listener/worker/session thread joins.
        server.shutdown();
    }

    // Every dump any injected fault produced — this test's and sibling
    // tests' — must be schema-valid and fault-tagged.
    for entry in std::fs::read_dir(obs_dir()).expect("read dump dir") {
        let path = entry.expect("dir entry").path();
        let report = validate_eventually(&path)
            .unwrap_or_else(|e| panic!("invalid dump {}: {e}", path.display()));
        assert!(
            report.reason.contains("server.fault") || report.reason.contains("quarantine"),
            "dump {} has an unexpected trigger: {}",
            path.display(),
            report.reason
        );
    }
}

/// Fixpoint entries in the store at `dir`, read once the server that owned
/// it has shut down.
fn stored_fixpoints(dir: &Path) -> usize {
    let store = lcdb_store::Store::open(dir).expect("store opens");
    store
        .entries()
        .filter(|e| e.key.class == lcdb_store::CLASS_FIXPOINT)
        .count()
}

/// A fault inside the engine kills one evaluation; with a store, the stages
/// it had completed are in the catalog afterwards, the same request sent
/// again (to a fresh server process over the same store) resumes from them
/// to the verdict a store-less server gives, and the entry is gone once the
/// result is stored.
#[test]
fn aborted_evaluation_is_stored_and_the_retry_resumes() {
    let dir = std::env::temp_dir().join(format!("lcdb-chaos-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let conn = |server: &Server| {
        let mut c = Client::connect(&server.addr().to_string()).expect("connect");
        assert_eq!(c.define(GAPPED).expect("define").code, RespCode::Ok);
        c.eval_sentence(CONN, 0).expect("eval io")
    };

    let server = start();
    let reference = conn(&server);
    server.shutdown();
    assert_eq!(reference.code, RespCode::Ok, "{}", reference.body);

    // The second stage transition fails: one completed stage to store.
    let guard = FaultPlan::new().fail_on("core.fix_stage", 2).arm();
    let server = start_with_store(Some(dir.clone()));
    let r = conn(&server);
    assert_eq!(r.code, RespCode::Fault, "{}", r.body);
    assert!(r.body.contains("core.fix_stage"), "{}", r.body);
    server.shutdown();
    drop(guard);
    assert_eq!(stored_fixpoints(&dir), 1, "the abort left its stages behind");

    let server = start_with_store(Some(dir.clone()));
    let r = conn(&server);
    assert_eq!(
        (r.code, r.body.as_str(), r.aux),
        (RespCode::Ok, reference.body.as_str(), 0),
        "resumed verdict differs from the store-less one"
    );
    server.shutdown();
    assert_eq!(stored_fixpoints(&dir), 0, "success drops the snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}
