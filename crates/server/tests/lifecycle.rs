//! Thread and connection lifecycle, end to end over real sockets: the
//! idle and mid-frame timeouts, shutdown with every kind of blocked thread,
//! `Server::wait`, and the reaping of finished sessions.
//!
//! Every test takes [`serial`]: one of them counts the process's threads,
//! which only means something while no sibling test runs a server.

use lcdb_server::proto::{read_frame, write_frame, OpCode, Request, RespCode};
use lcdb_server::{Client, Server, ServerConfig};
use lcdb_trace::TraceHandle;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{mpsc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

const CONN: &str = "forall Rx. forall Ry. (Rx subset S and Ry subset S) -> [lfp $M, R, Rp. (R = Rp and R subset S) or (exists Z. $M(R, Z) and adj(Z, Rp) and Rp subset S)](Rx, Ry)";

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(cfg, TraceHandle::disabled()).expect("bind and start");
    let addr = server.addr().to_string();
    (server, addr)
}

/// A raw connection whose reads give up after 5 s, so a server that fails
/// to hang up fails the test instead of hanging it.
fn raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    s
}

fn status_field(body: &str, key: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {key} in status:\n{body}"))
}

/// (a) A connection that says nothing is dropped after `idle_timeout`; one
/// that keeps talking, with gaps well inside the timeout, is not.
#[test]
fn idle_connection_is_dropped_a_talking_one_survives() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });
    let mut idle = raw(&addr);
    let mut talker = Client::connect(&addr).expect("connect");
    let opened = Instant::now();
    let hung_up = std::thread::scope(|scope| {
        let idle = scope.spawn(|| {
            let eof = read_frame(&mut idle).expect("a hang-up, not a client-side timeout");
            assert!(eof.is_none(), "the server says nothing to an idle client");
            opened.elapsed()
        });
        while opened.elapsed() < Duration::from_millis(450) {
            assert_eq!(talker.status().expect("talker is alive").code, RespCode::Ok);
            std::thread::sleep(Duration::from_millis(30));
        }
        idle.join().expect("idle client")
    });
    assert!(
        hung_up >= Duration::from_millis(150),
        "dropped early, after {hung_up:?}"
    );
    assert_eq!(talker.status().expect("still alive").code, RespCode::Ok);
    server.shutdown();
}

/// (b) A connection stalled in the middle of a frame is dropped after the
/// short `read_timeout`; its idle-but-healthy neighbour is on the long
/// leash and is not.
#[test]
fn mid_frame_stall_is_dropped_an_idle_neighbour_is_not() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig {
        read_timeout: Duration::from_millis(100),
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    });
    let mut neighbour = Client::connect(&addr).expect("connect");
    assert_eq!(neighbour.status().expect("status").code, RespCode::Ok);

    // A whole frame first, so the session has flipped to the idle leash and
    // must flip back when the next frame stalls after two bytes.
    let mut stalled = raw(&addr);
    let status = Request {
        op: OpCode::Status,
        id: 1,
        aux: 0,
        text: String::new(),
    };
    write_frame(&mut stalled, &status.encode()).expect("write");
    read_frame(&mut stalled).expect("reply").expect("frame");
    let started = Instant::now();
    stalled.write_all(&[18, 0]).expect("half a length prefix");
    let eof = read_frame(&mut stalled).expect("a hang-up, not a client-side timeout");
    assert!(eof.is_none());
    let took = started.elapsed();
    assert!(
        took >= Duration::from_millis(100) && took < Duration::from_secs(4),
        "stalled frame dropped after {took:?}"
    );
    assert_eq!(neighbour.status().expect("neighbour untouched").code, RespCode::Ok);
    server.shutdown();
}

/// (c) Shutdown with eight sessions blocked in `read`, the acceptor blocked
/// in `accept`, a parked worker and one evaluation in flight joins every
/// thread, and the client of that evaluation gets its answer or a typed
/// error — never a dead connection.
#[test]
fn shutdown_joins_blocked_threads_and_answers_the_request_in_flight() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig::default());
    let idle: Vec<TcpStream> = (0..8).map(|_| raw(&addr)).collect();
    let mut watcher = Client::connect(&addr).expect("connect");

    let boxes: Vec<String> = (0..12)
        .map(|i| format!("({} < x and x < {} and 0 < y and y < 1)", 2 * i, 2 * i + 1))
        .collect();
    let mut busy = Client::connect(&addr).expect("connect");
    let r = busy
        .define(&format!("S(x, y) := {}", boxes.join(" or ")))
        .expect("define");
    assert_eq!(r.code, RespCode::Ok, "{}", r.body);

    let (tx, rx) = mpsc::channel();
    let in_flight = std::thread::spawn(move || {
        let _ = tx.send(busy.eval_sentence(CONN, 0));
    });
    // `cache_misses` moves when a worker has the job in hand.
    while status_field(&watcher.status().expect("status").body, "cache_misses") == 0 {
        std::thread::yield_now();
    }
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        started.elapsed()
    );

    let resp = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the in-flight client hears back")
        .expect("a response frame, not a dead connection");
    assert!(
        matches!(resp.code, RespCode::Ok | RespCode::EvalError | RespCode::Timeout),
        "unexpected {:?}: {}",
        resp.code,
        resp.body
    );
    in_flight.join().expect("client thread");
    // Every idle session was cut loose, not left to its idle timeout.
    for mut s in idle {
        assert!(read_frame(&mut s).expect("hang-up").is_none());
    }
    assert!(watcher.status().is_err(), "the watcher's session is gone too");
}

/// (d) The protocol `Shutdown` wakes a `Server::wait` that is already
/// blocked.
#[test]
fn protocol_shutdown_ends_wait() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig::default());
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = tx.send(());
    });
    // Long enough for `wait` to be parked in every run that matters; the
    // assertion holds in either order.
    std::thread::sleep(Duration::from_millis(50));
    assert!(rx.try_recv().is_err(), "wait returned with nobody asking");
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.shutdown().expect("shutdown").code, RespCode::Ok);
    rx.recv_timeout(Duration::from_secs(5))
        .expect("wait returns after the protocol shutdown");
    waiter.join().expect("waiter");
    assert!(
        Client::connect(&addr).and_then(|mut c| c.status()).is_err(),
        "the listener is closed"
    );
}

/// (d') A frame that nests deeper than any stack is one client's parse
/// error: it gets a response, not a hang-up, and the process — every other
/// session and cache with it — goes on serving.
#[test]
fn deeply_nested_frame_is_a_parse_error_not_a_crash() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig::default());
    let mut c = Client::connect(&addr).expect("connect");
    let r = c.define("S(x) := (0 < x and x < 1) or (2 < x and x < 3)");
    assert_eq!(r.expect("define").code, RespCode::Ok);
    // Each frame stays under `MAX_FRAME`.
    let n = 200_000;
    for (open, close, n) in [("(", ")", n), ("not ", "", n), ("exists R. ", "", n / 4)] {
        let deep = format!("{}exists R. R subset S{}", open.repeat(n), close.repeat(n));
        let r = c.eval_sentence(&deep, 0).expect("a response, not a hang-up");
        assert_eq!(r.code, RespCode::ParseError, "{}", r.body);
        assert!(r.body.contains("nesting deeper than"), "{}", r.body);
    }
    let deep = format!("S(x) := {}x < 1{}", "(".repeat(n), ")".repeat(n));
    assert_eq!(c.define(&deep).expect("a response").code, RespCode::ParseError);
    assert_eq!(c.status().expect("same session").code, RespCode::Ok);
    let r = c.eval_sentence(CONN, 0).expect("the server still evaluates");
    assert_eq!((r.code, r.body.trim()), (RespCode::Ok, "false"));
    server.shutdown();
}

/// How many of this process's threads are server sessions (they are spawned
/// under the name `lcdb-session`); `None` where there is no `/proc`. The
/// process-wide `Threads:` count will not do: it includes libtest's own
/// threads, which come and go between two readings.
fn session_threads() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == "lcdb-session")
            .count(),
    )
}

/// (f) Two thousand connections, one after the other: the registry holds
/// the live session and at most the few whose threads have yet to notice
/// that their client hung up — it does not grow with the visits — every
/// session is accounted for as reaped or live, and no session thread is left
/// behind.
#[test]
fn finished_sessions_are_reaped() {
    let _serial = serial();
    let (server, addr) = start(ServerConfig::default());
    let threads_before = session_threads();
    assert!(matches!(threads_before, None | Some(0)), "{threads_before:?}");
    const VISITS: u64 = 2_000;
    for visit in 1..=VISITS {
        let mut c = Client::connect(&addr).expect("connect");
        let body = c.status().expect("status").body;
        let live = status_field(&body, "sessions");
        assert!(live <= 8, "visit {visit}: registry holds {live} sessions");
        assert_eq!(
            status_field(&body, "sessions_reaped") + live,
            status_field(&body, "accepted"),
            "visit {visit}:\n{body}"
        );
    }
    if threads_before.is_some() {
        // The last session's thread is exiting, not yet gone.
        let deadline = Instant::now() + Duration::from_secs(5);
        while session_threads() != Some(0) {
            assert!(
                Instant::now() < deadline,
                "session threads after {VISITS} visits: {:?}",
                session_threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // With every session thread gone, one more visit finds itself alone.
        let mut c = Client::connect(&addr).expect("connect");
        let body = c.status().expect("status").body;
        assert_eq!(status_field(&body, "sessions"), 1, "{body}");
        assert_eq!(status_field(&body, "sessions_reaped"), VISITS, "{body}");
        assert_eq!(status_field(&body, "shed_at_accept"), 0, "{body}");
    }
    server.shutdown();
}

/// The shutdown wake-up is the server's own connection: it is not counted
/// as accepted, and a second shutdown request finds nothing left to do.
#[test]
fn wake_up_connection_is_not_a_client() {
    let _serial = serial();
    let trace = TraceHandle::disabled();
    let server = Server::start(ServerConfig::default(), trace.clone()).expect("start");
    let addr = server.addr().to_string();
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.shutdown().expect("shutdown").code, RespCode::Ok);
    server.shutdown();
    let counters = trace.metrics().counter_snapshot();
    assert_eq!(counters.get("server.accepted"), Some(&1), "{counters:?}");
}
