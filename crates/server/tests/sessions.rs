//! End-to-end session tests: N concurrent clients against one server,
//! per-client database isolation, mixed deadlines, deterministic shedding, disconnect cancellation, and
//! malformed-bytes handling — all over real TCP connections.

use lcdb_server::proto::{read_frame, write_frame, OpCode, Request, RespCode};
use lcdb_server::{Client, Server, ServerConfig};
use lcdb_trace::TraceHandle;
use std::net::TcpStream;
use std::time::Duration;

const GAPPED: &str = "S(x) := (0 < x and x < 1) or (2 < x and x < 3)";
const NONEMPTY: &str = "exists x. S(x)";

fn start(cfg: ServerConfig) -> Server {
    Server::start(cfg, TraceHandle::disabled()).expect("bind and start")
}

fn quick_cfg() -> ServerConfig {
    ServerConfig {
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

fn addr_of(server: &Server) -> String {
    server.addr().to_string()
}

#[test]
fn define_eval_explain_status_shutdown_roundtrip() {
    let server = start(quick_cfg());
    let addr = addr_of(&server);
    let mut c = Client::connect(&addr).expect("connect");

    let r = c.define(GAPPED).expect("define io");
    assert_eq!(r.code, RespCode::Ok, "{}", r.body);

    let r = c.eval_sentence(NONEMPTY, 0).expect("eval io");
    assert_eq!(r.code, RespCode::Ok, "{}", r.body);
    assert_eq!(r.body, "true");
    assert_eq!(r.aux, 0, "first evaluation is not cached");

    // Same plan + same database fingerprint → served from the cache.
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval io");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 1));

    let r = c.explain(NONEMPTY).expect("explain io");
    assert_eq!(r.code, RespCode::Ok, "{}", r.body);
    assert!(!r.body.is_empty(), "plan rendering is non-empty");

    let r = c.status().expect("status io");
    assert_eq!(r.code, RespCode::Ok);
    assert!(r.body.contains("accepted=1"), "status:\n{}", r.body);
    assert!(r.body.contains("cache_hits=1"), "status:\n{}", r.body);

    let r = c.shutdown().expect("shutdown io");
    assert_eq!(r.code, RespCode::Ok);
    // Graceful: wait() observes the protocol-initiated shutdown and joins
    // every thread.
    server.wait();
}

/// The value of the sample `series` in a scraped exposition.
fn sample(scrape: &str, series: &str) -> u64 {
    scrape
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {series} in\n{scrape}"))
}

/// `server.phase.front_us` (parse + fingerprint + cache lookup) observes
/// every eval and explain request once — a miss, a hit, a parse error —
/// and nothing else; the scrape stays a well-formed histogram.
#[test]
fn front_phase_observes_every_served_request() {
    let server = start(quick_cfg());
    let mut c = Client::connect(&addr_of(&server)).expect("connect");
    let front = |c: &mut Client| {
        let scrape = c.metrics().expect("scrape").body;
        let count = sample(&scrape, "lcdb_server_phase_front_us_count");
        let inf = sample(&scrape, "lcdb_server_phase_front_us_bucket{le=\"+Inf\"}");
        assert_eq!(count, inf, "{scrape}");
        count
    };
    assert_eq!(front(&mut c), 0);
    c.define(GAPPED).expect("define");
    assert_eq!(front(&mut c), 0, "a define is not served by a worker");
    // The expected cache flag (`aux`), or `None` for a parse error.
    let requests: [(OpCode, &str, Option<u32>); 5] = [
        (OpCode::EvalSentence, NONEMPTY, Some(0)),
        (OpCode::EvalSentence, NONEMPTY, Some(1)),
        (OpCode::EvalQuery, "S(x)", Some(0)),
        (OpCode::Explain, NONEMPTY, Some(0)),
        (OpCode::EvalSentence, "exists x.", None),
    ];
    for (n, (op, text, aux)) in requests.into_iter().enumerate() {
        let r = c.request(op, 0, text).expect("request");
        match aux {
            Some(aux) => assert_eq!((r.code, r.aux), (RespCode::Ok, aux), "{}", r.body),
            None => assert_eq!(r.code, RespCode::ParseError, "{}", r.body),
        }
        assert_eq!(front(&mut c), n as u64 + 1, "after {text:?}");
    }
    server.shutdown();
}

/// Redefining a relation changes the database fingerprint, so a stale
/// cached answer is never served across a redefinition.
#[test]
fn redefinition_invalidates_cached_answers() {
    let server = start(quick_cfg());
    let mut c = Client::connect(&addr_of(&server)).expect("connect");
    c.define(GAPPED).expect("define");
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));

    // Redefine S to be empty: the same sentence now evaluates fresh (no
    // cache flag) to the opposite verdict.
    c.define("S(x) := x < x").expect("redefine");
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "false", 0));
    server.shutdown();
}

/// N clients with distinct databases stay isolated — each sees only its own
/// relation.
#[test]
fn concurrent_clients_isolated() {
    let server = start(ServerConfig {
        workers: 4,
        ..quick_cfg()
    });
    let addr = addr_of(&server);
    std::thread::scope(|scope| {
        for i in 0..4u64 {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                // Even clients define a non-empty S, odd ones an empty
                // S; the verdicts must never bleed across sessions.
                let (def, want) = if i % 2 == 0 {
                    (GAPPED, "true")
                } else {
                    ("S(x) := x < x", "false")
                };
                let r = c.define(def).expect("define");
                assert_eq!(r.code, RespCode::Ok, "{}", r.body);
                for round in 0..6 {
                    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
                    assert_eq!(
                        (r.code, r.body.as_str()),
                        (RespCode::Ok, want),
                        "client {} round {}",
                        i,
                        round
                    );
                }
            });
        }
    });
    server.shutdown();
}

/// Mixed deadlines: a 1 ms budget on a 2-D database either times out or
/// completes — never hangs, never poisons the session — while an unhurried
/// sibling client completes normally.
#[test]
fn mixed_deadlines_one_server() {
    let server = start(ServerConfig {
        workers: 2,
        ..quick_cfg()
    });
    let addr = addr_of(&server);
    let planar = "S(x, y) := (x >= 0 and y >= 0 and x + y <= 2) or (3 < x and x < 4 and 0 < y and y < 1)";
    let sentence = "exists x, y. S(x, y)";
    std::thread::scope(|scope| {
        let hurried = scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("connect");
            assert_eq!(c.define(planar).expect("define").code, RespCode::Ok);
            let r = c.eval_sentence(sentence, 1).expect("eval io");
            assert!(
                matches!(r.code, RespCode::Ok | RespCode::Timeout),
                "unexpected code {:?}: {}",
                r.code,
                r.body
            );
            // The session survives its own timeout: a follow-up request on
            // the same connection still completes.
            let r = c.eval_sentence(sentence, 0).expect("eval io");
            assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
        });
        let unhurried = scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("connect");
            assert_eq!(c.define(planar).expect("define").code, RespCode::Ok);
            let r = c.eval_sentence(sentence, 0).expect("eval io");
            assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
        });
        hurried.join().expect("hurried client");
        unhurried.join().expect("unhurried client");
    });
    server.shutdown();
}

/// With a zero-length per-client queue every evaluation is shed, with a
/// positive retry hint and the request's own correlation id.
#[test]
fn per_client_queue_sheds_deterministically() {
    let server = start(ServerConfig {
        per_client_queue: 0,
        ..quick_cfg()
    });
    let mut c = Client::connect(&addr_of(&server)).expect("connect");
    assert_eq!(c.define(GAPPED).expect("define").code, RespCode::Ok);
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval io");
    assert_eq!(r.code, RespCode::RetryAfter, "{}", r.body);
    assert!(r.aux > 0, "retry hint must be positive");
    assert_ne!(r.id, 0, "request-level shed echoes the correlation id");

    // Backoff gives up after its retries and reports the shed; the client
    // counted every shed response it saw.
    let r = c
        .with_backoff(OpCode::EvalSentence, 0, NONEMPTY, 2)
        .expect("backoff io");
    assert_eq!(r.code, RespCode::RetryAfter);
    assert_eq!(c.sheds, 3, "initial attempt + 2 retries, all shed");
    server.shutdown();
}

/// With a zero session cap every connection is shed at accept with an
/// unsolicited (id 0) RETRY_AFTER, and the listener keeps running.
#[test]
fn session_cap_sheds_at_accept() {
    let server = start(ServerConfig {
        max_sessions: 0,
        ..quick_cfg()
    });
    let addr = addr_of(&server);
    for _ in 0..3 {
        let mut c = Client::connect(&addr).expect("tcp connect still accepted");
        let r = c.status().expect("shed response arrives");
        assert_eq!((r.code, r.id), (RespCode::RetryAfter, 0));
        assert!(r.aux > 0);
    }
    server.shutdown();
}

/// The same, fifty times over, each on a fresh connection: the server now
/// answers and hangs up the moment it accepts, usually before the client
/// has written its request, and the client must still deliver the shed
/// (it reads the frame already in its buffer when the write fails) so that
/// `with_backoff` can reconnect on the hint. No scheduling hides the race
/// fifty times in a row.
#[test]
fn session_cap_shed_is_delivered_however_the_race_falls() {
    let server = start(ServerConfig {
        max_sessions: 0,
        ..quick_cfg()
    });
    let addr = addr_of(&server);
    for round in 0..50 {
        let mut c = Client::connect(&addr).expect("tcp connect still accepted");
        if round % 2 == 1 {
            // Odd rounds give the server time to have hung up first.
            std::thread::sleep(Duration::from_millis(2));
        }
        let r = if round % 10 == 0 {
            // Backoff reconnects on the hint and is shed again.
            let r = c.with_backoff(OpCode::Status, 0, "", 1);
            assert_eq!(c.sheds, 2, "round {round}: first attempt + one retry");
            r
        } else {
            c.status()
        }
        .expect("shed response arrives");
        assert_eq!((r.code, r.id), (RespCode::RetryAfter, 0), "round {round}");
    }
    server.shutdown();
}

/// A client that enqueues work and vanishes: its cancel token stops the
/// in-flight evaluation, and the server keeps serving everyone else.
#[test]
fn disconnect_cancels_in_flight_work() {
    let server = start(quick_cfg());
    let addr = addr_of(&server);
    {
        let mut s = TcpStream::connect(&addr).expect("connect");
        let define = Request {
            op: OpCode::Define,
            id: 1,
            aux: 0,
            text: GAPPED.into(),
        };
        write_frame(&mut s, &define.encode()).expect("write define");
        read_frame(&mut s).expect("define reply").expect("frame");
        let eval = Request {
            op: OpCode::EvalSentence,
            id: 2,
            aux: 0,
            text: NONEMPTY.into(),
        };
        write_frame(&mut s, &eval.encode()).expect("write eval");
        // Drop without reading the answer: connection close trips the
        // session's cancel token.
    }
    // The server remains fully responsive for a well-behaved client.
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.define(GAPPED).expect("define").code, RespCode::Ok);
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    server.shutdown();
}

/// Garbage inside a well-formed frame poisons only that request; garbage at
/// the framing layer poisons only that connection.
#[test]
fn malformed_input_is_contained()  {
    let server = start(quick_cfg());
    let addr = addr_of(&server);

    // Well-formed frame, nonsense payload: BadRequest, session lives on.
    let mut s = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut s, b"\xFF\xFE not a request").expect("write");
    let resp = read_frame(&mut s).expect("reply").expect("frame");
    let resp = lcdb_server::Response::decode(&resp).expect("decodes");
    assert_eq!((resp.code, resp.id), (RespCode::BadRequest, 0));
    let status = Request {
        op: OpCode::Status,
        id: 9,
        aux: 0,
        text: String::new(),
    };
    write_frame(&mut s, &status.encode()).expect("write status");
    let resp = read_frame(&mut s).expect("reply").expect("frame");
    let resp = lcdb_server::Response::decode(&resp).expect("decodes");
    assert_eq!((resp.code, resp.id), (RespCode::Ok, 9));

    // Oversized length prefix: the stream is unrecoverable, so the server
    // reports BadRequest and closes — without disturbing the listener.
    let mut s2 = TcpStream::connect(&addr).expect("connect");
    use std::io::Write as _;
    s2.write_all(&u32::MAX.to_le_bytes()).expect("write prefix");
    let resp = read_frame(&mut s2).expect("reply").expect("frame");
    let resp = lcdb_server::Response::decode(&resp).expect("decodes");
    assert_eq!(resp.code, RespCode::BadRequest);
    assert!(
        read_frame(&mut s2).expect("clean close").is_none(),
        "connection closed after framing poison"
    );

    // The listener is unaffected.
    let mut c = Client::connect(&addr).expect("connect");
    assert_eq!(c.status().expect("status").code, RespCode::Ok);
    server.shutdown();
}

/// A `Define` that adds a few hyperplanes to an already-built snapshot
/// must take the incremental maintenance path — the cached arrangement is
/// refined in place by hyperplane inserts instead of rebuilt — and the
/// answers must be the same as a cold evaluation of the same snapshot.
#[test]
fn define_extends_arrangement_incrementally() {
    let server = start(quick_cfg());
    let addr = addr_of(&server);
    let mut c = Client::connect(&addr).expect("connect");

    assert_eq!(c.define(GAPPED).expect("define S").code, RespCode::Ok);
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval 1");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));

    // T shares S's arity, so its hyperplane x = 10 joins the arrangement;
    // the new snapshot differs from the cached one by a single insert.
    assert_eq!(
        c.define("T(x) := x < 10").expect("define T").code,
        RespCode::Ok
    );
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval 2");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    let r = c
        .eval_sentence("exists x. (S(x) and T(x))", 0)
        .expect("eval 3");
    assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));

    let status = c.status().expect("status");
    assert!(
        status.body.contains("ext_incremental=1"),
        "second snapshot should derive incrementally:\n{}",
        status.body
    );
    assert!(
        status.body.contains("ext_rebuilds=1"),
        "first snapshot has no donor:\n{}",
        status.body
    );
    server.shutdown();
}

/// One session's `Define` churn must not evict or poison the cache entries
/// other sessions computed against the shared base database: the base
/// fingerprint's entries live in a protected cache segment.
#[test]
fn define_churn_in_one_session_cannot_evict_base_entries() {
    let server = start(ServerConfig {
        base_db: vec![GAPPED.to_string()],
        cache_capacity: 8,
        ..quick_cfg()
    });
    let addr = addr_of(&server);

    // Session A computes and caches the base-database answer.
    let mut a = Client::connect(&addr).expect("connect A");
    let r = a.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 0));
    let r = a.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!(r.aux, 1, "second evaluation is a cache hit");

    // Session B churns: each redefinition gives its private database a
    // fresh fingerprint, and each evaluation inserts a fresh cache entry —
    // far more than the whole cache holds.
    let mut b = Client::connect(&addr).expect("connect B");
    for i in 0..12u64 {
        let r = b
            .define(&format!("S(x) := 0 < x and x < {}", i + 1))
            .expect("define");
        assert_eq!(r.code, RespCode::Ok, "{}", r.body);
        let r = b.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    }

    // B's redefinitions were private: a fresh session still sees the base
    // database, and its cached answer survived B's churn.
    let mut c = Client::connect(&addr).expect("connect C");
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!(
        (r.code, r.body.as_str(), r.aux),
        (RespCode::Ok, "true", 1),
        "base-database entry was evicted or poisoned by session churn"
    );
    server.shutdown();
}

/// Warm start from the persistent catalog: a second server process on the
/// same store directory serves persisted results without recomputing. A
/// changed definition is a different database, so it misses; the base
/// database's entries stay, because their content did not change.
#[test]
fn warm_start_serves_persisted_results_across_processes() {
    let dir = std::env::temp_dir().join(format!("lcdb-server-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        base_db: vec![GAPPED.to_string()],
        store_dir: Some(dir.clone()),
        ..quick_cfg()
    };

    // First "process": compute and persist.
    {
        let server = start(cfg());
        let mut c = Client::connect(&addr_of(&server)).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 0));
        server.shutdown();
    }

    // Second "process": the same query is served from the catalog (aux 2 =
    // store hit), and a *different* query reuses the persisted arrangement.
    {
        let server = start(cfg());
        let mut c = Client::connect(&addr_of(&server)).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!(
            (r.code, r.body.as_str(), r.aux),
            (RespCode::Ok, "true", 2),
            "expected a persistent-catalog hit"
        );
        let r = c.status().expect("status");
        assert!(r.body.contains("store_hits=1"), "status:\n{}", r.body);
        let r = c
            .eval_sentence("exists x. (S(x) and x < 1)", 0)
            .expect("eval");
        assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));

        // Redefining S makes a new database: its answer is computed, not
        // served from what the catalog holds for the base.
        let r = c.define("S(x) := x < x").expect("define");
        assert_eq!(r.code, RespCode::Ok, "{}", r.body);
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "false", 0));
        server.shutdown();
    }

    // Third "process": the redefinition dropped nothing — the base query
    // is still served from the catalog.
    {
        let server = start(cfg());
        let mut c = Client::connect(&addr_of(&server)).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!(
            (r.code, r.body.as_str(), r.aux),
            (RespCode::Ok, "true", 2),
            "the base database's entry must be served warm"
        );
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Define` that leaves the database as it was keeps its key: what the
/// session persisted before it is still served warm after a restart on the
/// same store. A changed definition misses, and changing it back is the
/// stored database again.
#[test]
fn identical_redefinition_keeps_persisted_results_warm() {
    let dir = std::env::temp_dir().join(format!("lcdb-server-redefine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        base_db: vec![GAPPED.to_string()],
        store_dir: Some(dir.clone()),
        ..quick_cfg()
    };
    let warm = |expect_aux: u32, why: &str| {
        let server = start(cfg());
        let mut c = Client::connect(&addr_of(&server)).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", expect_aux), "{why}");
        (server, c)
    };

    // Compute and persist, then re-state the same definition.
    let (server, mut c) = warm(0, "first evaluation computes");
    let r = c.define(GAPPED).expect("define");
    assert_eq!(r.code, RespCode::Ok, "{}", r.body);
    server.shutdown();

    // Restart: the identical re-`Define` is the same database.
    let (server, _) = warm(2, "an unchanged definition must be served warm");
    server.shutdown();

    // Restart, change the definition and change it back, in one session.
    let server = start(cfg());
    let mut c = Client::connect(&addr_of(&server)).expect("connect");
    c.define("S(x) := x < x").expect("define");
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "false", 0), "a changed definition misses");
    c.define(GAPPED).expect("define");
    let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 2), "changed back");
    server.shutdown();

    // Restart: the changed definition dropped nothing.
    let (server, _) = warm(2, "the base database's entry must survive a change");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The arrangement is keyed by the hyperplanes of the relations of the
/// spatial arity: after a restart, a session that defines a relation of
/// another arity is served the stored arrangement, neither rebuilt nor
/// derived.
#[test]
fn redefining_another_arity_reuses_the_stored_arrangement() {
    let dir = std::env::temp_dir().join(format!("lcdb-server-arity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        base_db: vec![GAPPED.to_string()],
        store_dir: Some(dir.clone()),
        ..quick_cfg()
    };
    let extension_counters = |c: &mut Client| {
        let body = c.status().expect("status").body;
        body.lines()
            .filter(|l| l.starts_with("ext_"))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    {
        let server = start(cfg());
        let mut c = Client::connect(&addr_of(&server)).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 0));
        assert!(extension_counters(&mut c).contains(&"ext_rebuilds=1".to_string()));
        server.shutdown();
    }
    let server = start(cfg());
    let mut c = Client::connect(&addr_of(&server)).expect("connect");
    let before = extension_counters(&mut c);
    assert_eq!(before, ["ext_incremental=0", "ext_rebuilds=0"]);
    assert_eq!(c.define("T(x, y) := x < y").expect("define").code, RespCode::Ok);
    let r = c.eval_sentence("exists x. (S(x) and x > 2)", 0).expect("eval");
    assert_eq!((r.code, r.body.as_str(), r.aux), (RespCode::Ok, "true", 0));
    assert_eq!(extension_counters(&mut c), before, "the stored arrangement was not used");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written by the format before content-addressed keys is refused
/// at start with the store's own message.
#[test]
fn a_version_1_store_is_refused_at_start() {
    let dir = std::env::temp_dir().join(format!("lcdb-server-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    drop(lcdb_store::Store::init(&dir).expect("init"));
    // store.meta is magic · version · page size · fnv1a64(version · page size).
    let meta = dir.join("store.meta");
    let mut bytes = std::fs::read(&meta).expect("meta");
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let sum = lcdb_exec::hash::fnv1a64(&bytes[8..16]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&meta, &bytes).expect("write meta");
    let err = Server::start(
        ServerConfig {
            store_dir: Some(dir.clone()),
            ..quick_cfg()
        },
        TraceHandle::disabled(),
    )
    .err()
    .expect("a version-1 store must be refused");
    assert_eq!(err.to_string(), "meta file has version 1, this build reads version 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A server started with a base database serves it to every session.
#[test]
fn base_database_preloaded_for_all_sessions() {
    let server = start(ServerConfig {
        base_db: vec![GAPPED.to_string()],
        ..quick_cfg()
    });
    let addr = addr_of(&server);
    for _ in 0..2 {
        let mut c = Client::connect(&addr).expect("connect");
        let r = c.eval_sentence(NONEMPTY, 0).expect("eval");
        assert_eq!((r.code, r.body.as_str()), (RespCode::Ok, "true"));
    }
    server.shutdown();
}
