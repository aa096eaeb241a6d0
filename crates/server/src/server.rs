//! The concurrent query server.
//!
//! Architecture (all `std`, no dependencies):
//!
//! ```text
//!              accept loop (blocking accept)
//!                   │  reaps finished sessions, caps the live ones,
//!                   │  sheds with RETRY_AFTER
//!          ┌────────┴─────────┐
//!      session thread …  session thread        (one per connection)
//!          │ blocks in read under the idle/read timeout, parses
//!          │ frames, runs Define/Status inline, enqueues Eval/Explain
//!          │ jobs, trips the session's CancelToken when the
//!          │ connection closes
//!          └────────┬─────────┘
//!         admission queue (bounded, fair round-robin per client)
//!          ┌────────┴─────────┐
//!      dispatch worker …  dispatch worker      (fixed pool)
//!          │ budgets each request (deadline counts from enqueue),
//!          │ consults the shared result cache, evaluates on its
//!          │ own thread, writes the response frame
//! ```
//!
//! Nothing polls: every blocked thread waits on the event it is waiting
//! for. Shutdown (API, `Drop`, or the `Shutdown` opcode) sets its flag
//! under the queue's mutex and notifies the workers and [`Server::wait`],
//! wakes the acceptor with a loopback connection to the listening port, and
//! shuts down the read half of every live session's socket: a blocked read
//! returns 0 while an in-flight answer can still be written.
//!
//! Robustness properties, each covered by a test:
//!
//! * **Admission control**: the queue is bounded globally and per client;
//!   an over-limit request is answered immediately with
//!   [`RespCode::RetryAfter`] and a depth-proportional retry hint instead
//!   of growing an unbounded backlog.
//! * **Fair scheduling**: ready clients are served round-robin, so one
//!   chatty client cannot starve the others however fast it enqueues.
//! * **Deadlines**: every request runs under an [`EvalBudget`] whose clock
//!   starts at *enqueue* — time spent queued counts against the deadline,
//!   so an overloaded server fails requests promptly rather than executing
//!   work nobody is waiting for. The budget's cancel token is the session's:
//!   closing the connection cancels that client's in-flight evaluations and
//!   nobody else's.
//! * **Fault isolation**: the injection sites `server.accept`,
//!   `server.read` and `server.dispatch` (feature `faults`) poison at most
//!   the affected connection/request; the listener, sibling sessions and
//!   the dispatcher keep running, which the seeded chaos test asserts.
//! * **Timeouts**: an idle connection is dropped after `idle_timeout`; a
//!   connection that stalls *mid-frame* (slow-loris) is dropped after the
//!   much shorter `read_timeout`.

use crate::cache::ResultCache;
use crate::proto::{
    write_frame, FrameReader, OpCode, Request, RespCode, Response,
};
use lcdb_core::work::{self, Tally, Work};
use lcdb_core::{
    database_fingerprint, explain_query, parse_regformula, query_fingerprint, ArrangementRegions,
    CancelToken, Decomposition, DecompositionKind, EvalBudget, EvalError, Evaluator, PlanCatalog,
    Pool, RegionExtension, TraceHandle,
};
use lcdb_logic::{parse_formula, Database, Relation};
use lcdb_trace::{Counter, Histogram};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor stands back after `accept` itself fails (descriptor
/// exhaustion does not clear by retrying at once); a shutdown ends the wait.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Buffered telemetry rows are appended to the persistent stats segment in
/// batches of this many (and at shutdown), so a busy server amortises the
/// log append instead of paying it per request.
const STATS_BATCH: usize = 32;

/// Everything the server's behaviour depends on. `Default` is tuned for
/// tests and small deployments; the CLI maps `serve` flags onto it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Dispatch worker threads draining the admission queue.
    pub workers: usize,
    /// Ignored: an evaluation runs on its dispatch worker's thread (field
    /// pinned by `benchmark/`).
    pub eval_threads: usize,
    /// Live-session cap; connections over it are shed at accept.
    pub max_sessions: usize,
    /// Global admission-queue bound across all clients.
    pub queue_capacity: usize,
    /// Per-client queued-request bound (a single client cannot fill the
    /// global queue).
    pub per_client_queue: usize,
    /// Deadline applied when a request asks for none.
    pub default_timeout: Duration,
    /// Hard ceiling on client-requested deadlines.
    pub max_timeout: Duration,
    /// Drop a connection with no traffic for this long.
    pub idle_timeout: Duration,
    /// Drop a connection stalled in the middle of a frame for this long.
    pub read_timeout: Duration,
    /// Result-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// `rel`/`spatial` lines every session's database starts from.
    pub base_db: Vec<String>,
    /// Directory of the persistent plan catalog (`lcdb-store`). When set,
    /// the server warm-starts: arrangements and results computed against a
    /// fingerprint found in the catalog are loaded instead of recomputed,
    /// completed evaluations persist their result, and an evaluation killed
    /// by its deadline or a fault persists its completed fixpoint stages for
    /// the retry to resume from. `None` disables persistence entirely.
    pub store_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            eval_threads: 1,
            max_sessions: 64,
            queue_capacity: 128,
            per_client_queue: 16,
            default_timeout: Duration::from_secs(10),
            max_timeout: Duration::from_secs(60),
            idle_timeout: Duration::from_secs(30),
            read_timeout: Duration::from_secs(5),
            cache_capacity: 256,
            base_db: Vec::new(),
            store_dir: None,
        }
    }
}

/// Fault-injection plumbing: when the `faults` feature is on, every thread
/// the server spawns re-arms the plan that was armed on the thread that
/// called [`Server::start`].
#[derive(Clone)]
struct FaultHandle {
    #[cfg(feature = "faults")]
    armed: Option<lcdb_budget::faults::ArmedHandle>,
}

impl FaultHandle {
    fn export() -> FaultHandle {
        FaultHandle {
            #[cfg(feature = "faults")]
            armed: lcdb_budget::faults::export(),
        }
    }

    /// Run a spawned thread's body under the exported plan.
    fn install(&self, f: impl FnOnce()) {
        #[cfg(feature = "faults")]
        let _installed = self.armed.as_ref().map(lcdb_budget::faults::install);
        f()
    }
}

/// Check a named server fault site; `Err` carries the message to report.
fn fault_check(site: &str) -> Result<(), String> {
    #[cfg(feature = "faults")]
    {
        lcdb_budget::faults::check(site).map_err(|e| e.to_string())
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = site;
        Ok(())
    }
}

/// Lock a mutex whose data every update leaves valid at every step, so a
/// holder that panicked poisons nothing worth refusing.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One client connection: read by its session thread, written by that
/// thread and by the workers answering its jobs (`write` keeps their frames
/// whole), closed when the last of them lets go.
struct Conn {
    sock: TcpStream,
    write: Mutex<()>,
}

impl Conn {
    fn new(sock: TcpStream) -> Arc<Conn> {
        Arc::new(Conn {
            sock,
            write: Mutex::new(()),
        })
    }
}

/// A session the acceptor started and nobody has joined yet. The socket is
/// held weakly: the registry can end the session's blocked read at shutdown
/// but never keeps a finished session's connection open.
struct LiveSession {
    thread: JoinHandle<()>,
    conn: Weak<Conn>,
}

/// One queued evaluation request, with everything needed to execute and
/// answer it after the submitting session has moved on (or died).
struct Job {
    session: u64,
    req: Request,
    /// The session's database as of this request — a shared snapshot, not a
    /// copy; a later `Define` gives the session a new one.
    db: Arc<Database>,
    spatial: Option<String>,
    db_fp: u64,
    cancel: CancelToken,
    out: Arc<Conn>,
    enqueued_at: Instant,
}

/// Per-opcode registry handles, resolved once: the request path never
/// formats a metric name or takes the registry mutex.
struct OpMetrics {
    latency: Arc<Histogram>,
    /// The requests' work: every unit their dispatch counted in the work
    /// ledger.
    ticks: Counter,
}

/// The admission queue: per-client FIFOs drained round-robin.
#[derive(Default)]
struct DispatchState {
    queues: BTreeMap<u64, VecDeque<Job>>,
    /// Rotation of session ids with non-empty queues; the front is served
    /// next and re-queued at the back while work remains.
    rotation: VecDeque<u64>,
    queued: usize,
}

/// Why a request was shed at admission.
enum Shed {
    QueueFull { depth: usize },
    ClientFull { depth: usize },
}

struct Shared {
    cfg: ServerConfig,
    trace: TraceHandle,
    /// Where a loopback connection reaches the listener (the shutdown
    /// wake-up of the blocked acceptor).
    wake_addr: SocketAddr,
    /// Set once, under the `dispatch` mutex (see [`Shared::request_shutdown`]).
    shutdown: AtomicBool,
    /// Sessions started and not yet joined; finished ones are reaped on
    /// every accept and every `Status`.
    sessions: Mutex<Vec<LiveSession>>,
    next_session: AtomicU64,
    dispatch: Mutex<DispatchState>,
    /// Workers park here for work or shutdown.
    ready: Condvar,
    /// [`Server::wait`] parks here (same mutex) for shutdown.
    stopped: Condvar,
    cache: ResultCache,
    /// `RegionExtension`s already built, keyed by database fingerprint —
    /// repeated queries against the same database skip the O(n^d)
    /// arrangement build entirely.
    extensions: Mutex<HashMap<u64, Arc<RegionExtension>>>,
    /// Base database every session starts from (pre-parsed once).
    base: (Arc<Database>, Option<String>),
    /// Fingerprint of the base database; its cache and extension entries
    /// are protected from churn by Define-heavy sessions.
    base_fp: u64,
    /// Persistent plan catalog for warm starts (None = persistence off).
    catalog: Option<PlanCatalog>,
    /// Telemetry rows awaiting a batched append to the stats segment.
    /// Always empty while persistence is off — rows are dropped at the
    /// door, never accumulated.
    stats: Mutex<Vec<String>>,
    c_accepted: Counter,
    c_reaped: Counter,
    c_shed: Counter,
    /// The part of `c_shed` refused at accept (session cap), so that
    /// `accepted - shed_at_accept = reaped + live` can be checked from
    /// outside.
    c_shed_accept: Counter,
    c_timeout: Counter,
    c_requests: Counter,
    c_completed: Counter,
    c_cancelled: Counter,
    c_faults: Counter,
    c_cache_hit: Counter,
    c_cache_miss: Counter,
    /// Results served from the persistent catalog (warm starts).
    c_store_hit: Counter,
    /// Extensions derived incrementally from a cached donor arrangement
    /// (hyperplane inserts/removes) instead of an `O(n^d)` rebuild.
    c_ext_incremental: Counter,
    /// Extensions built from scratch (no usable donor, or delta too large).
    c_ext_rebuild: Counter,
    h_latency: Arc<Histogram>,
    /// `EvalSentence`, `EvalQuery`, `Explain` — see [`Shared::op_metrics`].
    ops: [OpMetrics; 3],
    /// Where a request's wall time goes: accepted → session thread reading,
    /// enqueue → pop, `execute`, and the reply's `write_frame`.
    h_accept: Arc<Histogram>,
    h_queue: Arc<Histogram>,
    h_exec: Arc<Histogram>,
    h_write: Arc<Histogram>,
    /// The front of `execute`: parse + fingerprint + cache lookup, the
    /// whole of a cache hit's work.
    h_front: Arc<Histogram>,
}

impl Shared {
    fn new(
        cfg: ServerConfig,
        trace: TraceHandle,
        base: (Database, Option<String>),
        catalog: Option<PlanCatalog>,
        listening_on: SocketAddr,
    ) -> Shared {
        let m = trace.metrics();
        let base_fp = database_fingerprint(&base.0, base.1.as_deref());
        // A listener on the wildcard address is reached through loopback.
        let mut wake_addr = listening_on;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let op_metrics = |op: OpCode| OpMetrics {
            latency: m.histogram(&format!("server.latency_us.{}", op_name(op))),
            ticks: m.counter(&format!("server.ticks.{}", op_name(op))),
        };
        Shared {
            c_accepted: m.counter("server.accepted"),
            c_reaped: m.counter("server.sessions_reaped"),
            c_shed: m.counter("server.shed"),
            c_shed_accept: m.counter("server.shed.accept"),
            c_timeout: m.counter("server.timeout"),
            c_requests: m.counter("server.requests"),
            c_completed: m.counter("server.completed"),
            c_cancelled: m.counter("server.cancelled"),
            c_faults: m.counter("server.faults"),
            c_cache_hit: m.counter("server.cache.hit"),
            c_cache_miss: m.counter("server.cache.miss"),
            c_store_hit: m.counter("server.store.hit"),
            c_ext_incremental: m.counter("server.ext.incremental"),
            c_ext_rebuild: m.counter("server.ext.rebuild"),
            h_latency: m.histogram("server.latency_us"),
            ops: [OpCode::EvalSentence, OpCode::EvalQuery, OpCode::Explain].map(op_metrics),
            h_accept: m.histogram("server.phase.accept_us"),
            h_queue: m.histogram("server.phase.queue_us"),
            h_exec: m.histogram("server.phase.exec_us"),
            h_write: m.histogram("server.phase.write_us"),
            h_front: m.histogram("server.phase.front_us"),
            cache: ResultCache::new(cfg.cache_capacity).protecting(base_fp),
            extensions: Mutex::new(HashMap::new()),
            base: (Arc::new(base.0), base.1),
            base_fp,
            catalog,
            stats: Mutex::new(Vec::new()),
            trace,
            wake_addr,
            shutdown: AtomicBool::new(false),
            sessions: Mutex::new(Vec::new()),
            next_session: AtomicU64::new(1),
            dispatch: Mutex::new(DispatchState::default()),
            ready: Condvar::new(),
            stopped: Condvar::new(),
            cfg,
        }
    }

    /// A server's shared state with no listener behind it, for driving the
    /// admission queue directly.
    #[cfg(test)]
    fn for_test(cfg: ServerConfig) -> Shared {
        let nowhere = SocketAddr::from((Ipv4Addr::LOCALHOST, 0));
        Shared::new(cfg, TraceHandle::disabled(), (Database::new(), None), None, nowhere)
    }

    /// The handles of an opcode the workers execute.
    fn op_metrics(&self, op: OpCode) -> &OpMetrics {
        &self.ops[match op {
            OpCode::EvalSentence => 0,
            OpCode::EvalQuery => 1,
            _ => 2,
        }]
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Publish the shutdown flag and wake every thread that is blocked on
    /// something else. The flag is set under the `dispatch` mutex, so a
    /// worker (or `Server::wait`) between its check and its wait cannot miss
    /// the notification; the acceptor is woken by a connection to its own
    /// port; a session blocked in `read` sees end-of-stream once the read
    /// half of its socket is shut down, while the write half stays open for
    /// answers still in flight. The acceptor registers a session under the
    /// `sessions` lock and only while the flag is clear, so the sweep below
    /// misses none. Idempotent: only the first call does anything.
    fn request_shutdown(&self) {
        {
            let _queue = lock(&self.dispatch);
            if self.shutdown.swap(true, Ordering::SeqCst) {
                return;
            }
            self.ready.notify_all();
            self.stopped.notify_all();
        }
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        for session in lock(&self.sessions).iter() {
            if let Some(conn) = session.conn.upgrade() {
                let _ = conn.sock.shutdown(Shutdown::Read);
            }
        }
    }

    /// Block until shutdown is requested — or, given a limit, at most that
    /// long.
    fn wait_shutdown(&self, limit: Option<Duration>) {
        let mut st = lock(&self.dispatch);
        while !self.is_shutdown() {
            st = match limit {
                None => self.stopped.wait(st).unwrap_or_else(|p| p.into_inner()),
                Some(limit) => {
                    let _ = self.stopped.wait_timeout(st, limit);
                    return;
                }
            };
        }
    }

    /// Join the sessions whose threads have finished and drop them from the
    /// registry, which therefore never outgrows the live sessions by more
    /// than those that ended since the last accept or `Status`.
    fn reap(&self, live: &mut Vec<LiveSession>) {
        let mut i = 0;
        while i < live.len() {
            if live[i].thread.is_finished() {
                let _ = live.swap_remove(i).thread.join();
                self.c_reaped.incr();
            } else {
                i += 1;
            }
        }
    }

    /// Write one response frame to a connection, timed as the `write` phase.
    fn send(&self, conn: &Conn, resp: &Response) -> io::Result<()> {
        let _whole_frame = lock(&conn.write);
        let started = Instant::now();
        let sent = write_frame(&mut &conn.sock, &resp.encode());
        self.h_write.observe(started.elapsed().as_micros() as u64);
        sent
    }

    /// Suggested client backoff, proportional to current congestion.
    fn retry_hint_ms(&self, depth: usize) -> u32 {
        (20 + 5 * depth as u64).min(2_000) as u32
    }

    fn enqueue(&self, job: Job) -> Result<(), Shed> {
        let mut st = lock(&self.dispatch);
        if st.queued >= self.cfg.queue_capacity {
            return Err(Shed::QueueFull { depth: st.queued });
        }
        let depth = st.queued;
        let q = st.queues.entry(job.session).or_default();
        if q.len() >= self.cfg.per_client_queue {
            return Err(Shed::ClientFull { depth });
        }
        let newly_ready = q.is_empty();
        let session = job.session;
        q.push_back(job);
        if newly_ready {
            st.rotation.push_back(session);
        }
        st.queued += 1;
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next job fairly; `None` means the server is shutting down.
    fn pop(&self) -> Option<Job> {
        let mut st = lock(&self.dispatch);
        loop {
            if self.is_shutdown() {
                return None;
            }
            if let Some(sid) = st.rotation.pop_front() {
                let (job, more) = match st.queues.get_mut(&sid) {
                    Some(q) => (q.pop_front(), !q.is_empty()),
                    None => (None, false),
                };
                if more {
                    st.rotation.push_back(sid);
                } else {
                    st.queues.remove(&sid);
                }
                if let Some(job) = job {
                    st.queued -= 1;
                    return Some(job);
                }
                continue;
            }
            st = self.ready.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Buffer one telemetry row for the persistent stats segment. With
    /// persistence off the row is not even built — telemetry must never
    /// grow unbounded memory, nor cost a request anything.
    fn push_stat(&self, row: impl FnOnce() -> String) {
        if self.catalog.is_none() {
            return;
        }
        let full = {
            let mut buf = lock(&self.stats);
            buf.push(row());
            buf.len() >= STATS_BATCH
        };
        if full {
            self.flush_stats();
        }
    }

    /// Append all buffered telemetry rows to the catalog's stats segment.
    fn flush_stats(&self) {
        let Some(cat) = &self.catalog else { return };
        let rows: Vec<String> = std::mem::take(&mut *lock(&self.stats));
        if rows.is_empty() {
            return;
        }
        if let Err(e) = cat.append_stats("req", &rows) {
            self.trace.mark("server.store", &e.to_string());
        }
    }

    fn queue_depth(&self) -> usize {
        lock(&self.dispatch).queued
    }

    /// Build (or fetch) the region extension for a database snapshot: the
    /// in-memory map first, then the persistent catalog (a warm start skips
    /// the O(n^d) arrangement build), then a fresh build — which the
    /// catalog persists for the next process.
    fn extension(
        &self,
        db: &Database,
        spatial: &str,
        db_fp: u64,
        budget: &EvalBudget,
    ) -> Result<Arc<RegionExtension>, EvalError> {
        if let Some(ext) = lock(&self.extensions).get(&db_fp) {
            return Ok(Arc::clone(ext));
        }
        // Cold in memory (and, behind `extension_or_build`, in the
        // catalog). Before paying the O(n^d) rebuild, try to *derive* the
        // arrangement from the closest cached one by inserting/removing
        // the few hyperplanes a Define changed — the common shape of a
        // session: base database plus a handful of redefinitions.
        let build = || match self.derive_incremental(db, spatial, budget) {
            Some(derived) => {
                self.c_ext_incremental.incr();
                Ok(derived)
            }
            None => {
                self.c_ext_rebuild.incr();
                ArrangementRegions::try_new(db.clone(), spatial, budget, &self.trace)
            }
        };
        let regions = match &self.catalog {
            Some(cat) => {
                let (regions, warnings) = cat.extension_or_build(db, spatial, build)?;
                for w in &warnings {
                    self.trace.mark("server.store", w);
                }
                regions
            }
            None => build()?,
        };
        let ext = Arc::new(RegionExtension::from(regions));
        let mut map = lock(&self.extensions);
        // Crude bound: serving is dominated by a handful of hot databases;
        // when a churn-heavy workload overflows the map, dropping it all
        // and rebuilding on demand is simpler than LRU bookkeeping. The
        // base database's extension is the one entry every session uses, so
        // it survives the clear.
        if map.len() >= 32 {
            let base = map.remove(&self.base_fp);
            map.clear();
            if let Some(base) = base {
                map.insert(self.base_fp, base);
            }
        }
        Ok(Arc::clone(map.entry(db_fp).or_insert(ext)))
    }

    /// Derive the region extension for `db` incrementally from the cached
    /// donor whose hyperplane set is closest (smallest edit distance) to
    /// the new snapshot's. Returns `None` when no cached arrangement shares
    /// the spatial relation and dimension, when the best delta is still too
    /// large to beat a rebuild, or when the derivation trips its budget —
    /// callers then fall back to the from-scratch build.
    fn derive_incremental(
        &self,
        db: &Database,
        spatial: &str,
        budget: &EvalBudget,
    ) -> Option<ArrangementRegions> {
        let donors: Vec<Arc<RegionExtension>> = lock(&self.extensions).values().cloned().collect();
        if donors.is_empty() {
            return None;
        }
        let (d, target) = ArrangementRegions::spatial_hyperplanes(db, spatial).ok()?;
        let target_set: std::collections::HashSet<_> = target.iter().collect();
        // Hyperplanes are interned, so set membership is pointer-cheap and
        // scanning every donor costs far less than one LP probe.
        let mut best: Option<(&ArrangementRegions, usize)> = None;
        for ext in &donors {
            let Some(regions) = ext.as_arrangement_regions() else {
                continue;
            };
            if regions.spatial_relation() != spatial || regions.ambient_dim() != d {
                continue;
            }
            let current = regions.arrangement().hyperplanes();
            let shared = current.iter().filter(|h| target_set.contains(h)).count();
            let delta = (current.len() - shared) + (target.len() - shared);
            if best.is_none_or(|(_, b)| delta < b) {
                best = Some((regions, delta));
            }
        }
        let (donor, _) = best?;
        match donor.try_derive(db.clone(), spatial, budget, &Pool::serial()) {
            Ok(Some((regions, delta))) => {
                self.trace.mark(
                    "server.extension",
                    &format!(
                        "incremental: +{} -{} kept {}",
                        delta.inserted, delta.removed, delta.kept
                    ),
                );
                Some(regions)
            }
            Ok(None) => None,
            Err(e) => {
                self.trace.mark("server.extension", &e.to_string());
                None
            }
        }
    }

    /// The status body: one `name=value` per line, counters then gauges.
    fn status_body(&self) -> String {
        let live = {
            let mut live = lock(&self.sessions);
            self.reap(&mut live);
            live.len()
        };
        let mut s = String::new();
        for (name, c) in [
            ("accepted", &self.c_accepted),
            ("sessions_reaped", &self.c_reaped),
            ("shed", &self.c_shed),
            ("shed_at_accept", &self.c_shed_accept),
            ("timeout", &self.c_timeout),
            ("requests", &self.c_requests),
            ("completed", &self.c_completed),
            ("cancelled", &self.c_cancelled),
            ("faults", &self.c_faults),
            ("cache_hits", &self.c_cache_hit),
            ("cache_misses", &self.c_cache_miss),
            ("store_hits", &self.c_store_hit),
            ("ext_incremental", &self.c_ext_incremental),
            ("ext_rebuilds", &self.c_ext_rebuild),
        ] {
            s.push_str(name);
            s.push('=');
            s.push_str(&c.get().to_string());
            s.push('\n');
        }
        s.push_str(&format!(
            "sessions={}\nqueued={}\ncache_entries={}\n",
            live,
            self.queue_depth(),
            self.cache.len(),
        ));
        s
    }
}

/// Salt mixed into the plan hash so the same query text evaluated as a
/// sentence, as an open query, or explained never share a cache entry.
fn op_salt(op: OpCode) -> u64 {
    match op {
        OpCode::EvalSentence => 0x5eed_0001,
        OpCode::EvalQuery => 0x5eed_0002,
        OpCode::Explain => 0x5eed_0003,
        _ => 0x5eed_00ff,
    }
}

/// Apply one definition line to a session database. Accepts
/// `NAME(vars) := formula` (an optional leading `rel ` is tolerated) and
/// `spatial NAME`. Returns the confirmation message.
pub fn apply_define(
    db: &mut Database,
    spatial: &mut Option<String>,
    line: &str,
) -> Result<String, String> {
    let line = line.trim();
    if let Some(name) = line.strip_prefix("spatial ") {
        let name = name.trim();
        if db.relation(name).is_none() {
            return Err(format!("unknown relation '{}'", name));
        }
        *spatial = Some(name.to_string());
        return Ok(format!("spatial relation set to {}", name));
    }
    let line = line.strip_prefix("rel ").unwrap_or(line);
    let (head, body) = line
        .split_once(":=")
        .ok_or("expected `NAME(vars) := formula` or `spatial NAME`")?;
    let head = head.trim();
    let open = head.find('(').ok_or("expected '(' in relation head")?;
    if !head.ends_with(')') {
        return Err("expected ')' at the end of the relation head".into());
    }
    let name = head[..open].trim().to_string();
    if name.is_empty() {
        return Err("empty relation name".into());
    }
    let vars: Vec<String> = head[open + 1..head.len() - 1]
        .split(',')
        .map(|v| v.trim().to_string())
        .collect();
    if vars.iter().all(String::is_empty) {
        return Err("relation needs at least one variable".into());
    }
    let formula = parse_formula(body.trim()).map_err(|e| e.to_string())?;
    let rel = Relation::define(vars, formula).map_err(|e| e.to_string())?;
    spatial.get_or_insert_with(|| name.clone());
    db.insert(name.clone(), rel);
    Ok(format!("defined {}", name))
}

/// Map an evaluation error onto the wire response.
fn eval_error_response(e: &EvalError, id: u64, shared: &Shared) -> Response {
    match e {
        EvalError::DeadlineExceeded { .. } => {
            shared.c_timeout.incr();
            Response::error(RespCode::Timeout, id, e.to_string())
        }
        EvalError::InjectedFault { .. } => {
            shared.c_faults.incr();
            Response::error(RespCode::Fault, id, e.to_string())
        }
        EvalError::InvalidQuery { .. } => {
            Response::error(RespCode::ParseError, id, e.to_string())
        }
        other => Response::error(RespCode::EvalError, id, other.to_string()),
    }
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the listener, drains the workers, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The workers and the acceptor; sessions are in `shared.sessions`.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. `trace` carries both the span sink and the
    /// metrics registry (`server.*` counters, latency histograms); pass
    /// `TraceHandle::disabled()` for an untraced server (counters still
    /// accumulate).
    pub fn start(cfg: ServerConfig, trace: TraceHandle) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let mut base_db = Database::new();
        let mut base_spatial = None;
        for line in &cfg.base_db {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            apply_define(&mut base_db, &mut base_spatial, line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        }

        let catalog = match &cfg.store_dir {
            Some(dir) => Some(
                PlanCatalog::open(dir)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared::new(cfg, trace, (base_db, base_spatial), catalog, addr));

        // Threads spawned here re-arm the *caller's* fault plan, so a
        // seeded chaos test arms once and the whole server participates.
        let faults = FaultHandle::export();
        let mut threads = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let (shared, faults) = (Arc::clone(&shared), faults.clone());
            threads.push(std::thread::spawn(move || {
                faults.install(|| worker_loop(&shared))
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                faults.install(|| accept_loop(&shared, listener, &faults))
            }));
        }
        Ok(Server {
            addr,
            shared,
            threads,
        })
    }

    /// The bound address (with the OS-assigned port when `addr` used 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's trace/metrics handle.
    pub fn trace(&self) -> &TraceHandle {
        &self.shared.trace
    }

    /// Block until a client's `Shutdown` request stops the server, then
    /// join every thread.
    pub fn wait(mut self) {
        self.shared.wait_shutdown(None);
        self.join();
    }

    /// Request shutdown and join every thread (accept loop, workers, and
    /// all live sessions). In-flight evaluations observe their budgets'
    /// cancellation/deadline checks; sessions close their connections.
    pub fn shutdown(mut self) {
        self.join();
    }

    fn join(&mut self) {
        self.shared.request_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // The acceptor is gone: nothing registers a session any more.
        let live = std::mem::take(&mut *lock(&self.shared.sessions));
        for session in live {
            let _ = session.thread.join();
        }
        self.shared.flush_stats();
        self.shared.trace.flush();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, faults: &FaultHandle) {
    loop {
        let accepted = listener.accept();
        let accepted_at = Instant::now();
        let mut live = lock(&shared.sessions);
        // Checked under the registry lock (see `request_shutdown`), and
        // before anything is counted: the connection that woke us for
        // shutdown is no client's, bumps no counter and consumes no fault.
        if shared.is_shutdown() {
            break;
        }
        shared.reap(&mut live);
        let Ok((stream, _peer)) = accepted else {
            // Aborted handshakes are transient; descriptor exhaustion lasts
            // until sessions end, so stand back rather than spin.
            drop(live);
            shared.wait_shutdown(Some(ACCEPT_RETRY));
            continue;
        };
        shared.c_accepted.incr();
        // Fault site: a poisoned accept drops exactly this connection; the
        // listener and every other session live on.
        if let Err(msg) = fault_check("server.accept") {
            shared.c_faults.incr();
            shared.trace.mark("server.fault", &msg);
            continue;
        }
        let conn = Conn::new(stream);
        if live.len() >= shared.cfg.max_sessions {
            shared.c_shed.incr();
            shared.c_shed_accept.incr();
            let hint = shared.retry_hint_ms(shared.queue_depth());
            let _ = shared.send(
                &conn,
                &Response::retry_after(0, hint, "server at session capacity"),
            );
            continue;
        }
        let sid = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let weak = Arc::downgrade(&conn);
        let (sh, faults) = (Arc::clone(shared), faults.clone());
        // Named, so a thread census can tell sessions from everything else.
        match std::thread::Builder::new()
            .name("lcdb-session".into())
            .spawn(move || faults.install(|| session_loop(&sh, conn, sid, accepted_at)))
        {
            Ok(thread) => live.push(LiveSession { thread, conn: weak }),
            // No thread to be had: the connection closes with the closure.
            Err(e) => shared.trace.mark("server.session", &e.to_string()),
        }
    }
}

/// Per-connection loop: frame reassembly, inline Define/Status/Shutdown,
/// admission for Eval/Explain. Returning closes the connection; the
/// session's cancel token is tripped on every exit path so in-flight
/// evaluations for this client stop promptly.
fn session_loop(shared: &Arc<Shared>, conn: Arc<Conn>, sid: u64, accepted_at: Instant) {
    let cancel = CancelToken::new();
    // A connection-level I/O failure has nobody to be reported to (the peer
    // is gone); counters already reflect what was served.
    let _ = session_inner(shared, &conn, sid, &cancel, accepted_at);
    cancel.cancel();
}

fn session_inner(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    sid: u64,
    cancel: &CancelToken,
    accepted_at: Instant,
) -> io::Result<()> {
    conn.sock.set_nodelay(true).ok();
    let respond = |resp: &Response| shared.send(conn, resp);

    let (mut db, mut spatial) = shared.base.clone();
    let mut db_fp = shared.base_fp;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    // The socket's read timeout is the real one: a stalled frame gets the
    // short leash, a quiet-but-healthy client the long one. It is re-armed
    // only when the session flips between the two. (A zero `Duration`
    // would mean "never" to the socket.)
    let leash = |mid_frame: bool| {
        let limit = if mid_frame {
            shared.cfg.read_timeout
        } else {
            shared.cfg.idle_timeout
        };
        conn.sock
            .set_read_timeout(Some(limit.max(Duration::from_millis(1))))
    };
    let mut mid_frame = false;
    leash(mid_frame)?;
    shared
        .h_accept
        .observe(accepted_at.elapsed().as_micros() as u64);

    loop {
        let n = match (&conn.sock).read(&mut buf) {
            // The peer closed, or shutdown cut the read half.
            Ok(0) => return Ok(()),
            Ok(n) => n,
            // Not a byte for the whole of the armed timeout: drop it.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        reader.push(&buf[..n]);
        loop {
            let payload = match reader.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e) => {
                    // Framing is unrecoverable: poison the session.
                    let _ = respond(&Response::error(RespCode::BadRequest, 0, e.to_string()));
                    return Ok(());
                }
            };
            // Fault site: a poisoned read quarantines this session only.
            if let Err(msg) = fault_check("server.read") {
                shared.c_faults.incr();
                shared.trace.mark("server.fault", &msg);
                let _ = respond(&Response::error(RespCode::Fault, 0, msg));
                return Ok(());
            }
            let req = match Request::decode(&payload) {
                Ok(r) => r,
                Err(e) => {
                    // A malformed *request* inside a well-formed frame is
                    // recoverable: report it and keep the session.
                    respond(&Response::error(RespCode::BadRequest, 0, e.to_string()))?;
                    continue;
                }
            };
            shared.c_requests.incr();
            match req.op {
                OpCode::Define => {
                    // Copy-on-write: jobs in flight (and the base database)
                    // keep the snapshot they were given.
                    let resp = match apply_define(Arc::make_mut(&mut db), &mut spatial, &req.text)
                    {
                        Ok(msg) => {
                            // Every later key names the new database, so
                            // nothing persisted for the old one is served.
                            db_fp = database_fingerprint(&db, spatial.as_deref());
                            Response::ok(req.id, msg)
                        }
                        Err(e) => Response::error(RespCode::ParseError, req.id, e),
                    };
                    respond(&resp)?;
                }
                OpCode::Status => {
                    respond(&Response::ok(req.id, shared.status_body()))?;
                }
                OpCode::Metrics => {
                    // Live scrape: the whole registry (counters and log₂
                    // latency histograms) as a deterministic Prometheus-
                    // style exposition, served inline so it works even
                    // when every dispatch worker is busy.
                    respond(&Response::ok(
                        req.id,
                        shared.trace.metrics().render_prometheus(),
                    ))?;
                }
                OpCode::Shutdown => {
                    respond(&Response::ok(req.id, "shutting down"))?;
                    shared.request_shutdown();
                    return Ok(());
                }
                OpCode::EvalSentence | OpCode::EvalQuery | OpCode::Explain => {
                    let (op, id) = (req.op, req.id);
                    let job = Job {
                        session: sid,
                        req,
                        db: Arc::clone(&db),
                        spatial: spatial.clone(),
                        db_fp,
                        cancel: cancel.clone(),
                        out: Arc::clone(conn),
                        enqueued_at: Instant::now(),
                    };
                    if let Err(shed) = shared.enqueue(job) {
                        shared.c_shed.incr();
                        let (depth, what) = match shed {
                            Shed::QueueFull { depth } => (depth, "admission queue full"),
                            Shed::ClientFull { depth } => {
                                (depth, "per-client queue full")
                            }
                        };
                        respond(&Response::retry_after(
                            id,
                            shared.retry_hint_ms(depth),
                            what,
                        ))?;
                        shared.push_stat(|| {
                            stat_row(sid, op_name(op), 0, db_fp, 0, 0, 0, "shed", Tally::default())
                        });
                    }
                }
            }
        }
        if reader.mid_frame() != mid_frame {
            mid_frame = !mid_frame;
            leash(mid_frame)?;
        }
    }
}

/// Dispatch worker: pops fairly, executes under the request budget, writes
/// the response. One worker failing to write (dead client) never affects
/// the next job.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.pop() {
        let op = op_name(job.req.op);
        let queued_us = job.enqueued_at.elapsed().as_micros() as u64;
        shared.h_queue.observe(queued_us);
        if job.cancel.is_cancelled() {
            // The session closed while the job was queued; nobody is
            // waiting for this answer.
            shared.c_cancelled.incr();
            shared.push_stat(|| {
                let none = Tally::default();
                stat_row(job.session, op, 0, job.db_fp, queued_us, 0, 0, "cancelled", none)
            });
            continue;
        }
        let _span = shared.trace.span_with("server.request", op);
        let started = Instant::now();
        // Exact: the request's work and its dispatch run on this one thread.
        let work_before = work::snapshot();
        let mut info = ExecInfo::default();
        let resp = execute(shared, &job, &mut info);
        let self_us = started.elapsed().as_micros() as u64;
        let per_op = shared.op_metrics(job.req.op);
        shared.h_latency.observe(self_us);
        shared.h_exec.observe(self_us);
        per_op.latency.observe(self_us);
        let spent = work_before.since();
        per_op.ticks.add(spent.sum(""));
        shared.c_completed.incr();
        shared.push_stat(|| {
            stat_row(
                job.session,
                op,
                info.plan_fp,
                job.db_fp,
                job.enqueued_at.elapsed().as_micros() as u64,
                self_us,
                info.tier,
                outcome_label(resp.code),
                spent,
            )
        });
        let _ = shared.send(&job.out, &resp);
    }
}

/// What `execute` learned about a request, for the telemetry row.
#[derive(Default)]
struct ExecInfo {
    /// Fingerprint of the parsed query plan (0 if parsing failed).
    plan_fp: u64,
    /// Where the answer came from: 0 = computed, 1 = result cache,
    /// 2 = persistent catalog.
    tier: u8,
}

/// The telemetry outcome tag for a response code.
fn outcome_label(code: RespCode) -> &'static str {
    match code {
        RespCode::Ok => "ok",
        RespCode::ParseError => "parse_error",
        RespCode::EvalError => "eval_error",
        RespCode::Timeout => "timeout",
        RespCode::RetryAfter => "shed",
        RespCode::Fault => "fault",
        RespCode::BadRequest => "bad_request",
        RespCode::Internal => "internal",
    }
}

/// One telemetry row: a single JSON line with a stable key order, so the
/// stats segment is greppable and `lcdb stats` can parse it back. The
/// request's non-zero work counts follow `outcome`, in ledger order and
/// under their trace names.
#[allow(clippy::too_many_arguments)]
fn stat_row(
    session: u64,
    op: &str,
    plan_fp: u64,
    db_fp: u64,
    wall_us: u64,
    self_us: u64,
    tier: u8,
    outcome: &str,
    spent: Tally,
) -> String {
    let mut row = format!(
        "{{\"kind\":\"req\",\"session\":{session},\"op\":\"{op}\",\"plan_fp\":{plan_fp},\
         \"db_fp\":{db_fp},\"wall_us\":{wall_us},\"self_us\":{self_us},\"tier\":{tier},\
         \"outcome\":\"{outcome}\""
    );
    for w in Work::ALL.into_iter().filter(|&w| spent[w] > 0) {
        row.push_str(&format!(",\"{}\":{}", w.name(), spent[w]));
    }
    row.push('}');
    row
}

fn op_name(op: OpCode) -> &'static str {
    match op {
        OpCode::Define => "define",
        OpCode::EvalSentence => "eval_sentence",
        OpCode::EvalQuery => "eval_query",
        OpCode::Explain => "explain",
        OpCode::Status => "status",
        OpCode::Shutdown => "shutdown",
        OpCode::Metrics => "metrics",
    }
}

/// Execute one admitted job to a response, noting the plan fingerprint and
/// answer tier in `info` for the telemetry row.
fn execute(shared: &Arc<Shared>, job: &Job, info: &mut ExecInfo) -> Response {
    let id = job.req.id;
    // Fault site: a poisoned dispatch fails exactly this request; the
    // session and the worker keep going.
    if let Err(msg) = fault_check("server.dispatch") {
        shared.c_faults.incr();
        shared.trace.mark("server.fault", &msg);
        return Response::error(RespCode::Fault, id, msg);
    }
    let front = Instant::now();
    let observe_front = || shared.h_front.observe(front.elapsed().as_micros() as u64);
    let f = match parse_regformula(&job.req.text) {
        Ok(f) => f,
        Err(e) => {
            observe_front();
            return Response::error(RespCode::ParseError, id, e.to_string());
        }
    };
    let plan_fp = query_fingerprint(&f);
    info.plan_fp = plan_fp;
    let cache_db_fp = if job.req.op == OpCode::Explain {
        // Plans are pure syntax: shared across all databases.
        0
    } else {
        job.db_fp
    };
    let key = (plan_fp ^ op_salt(job.req.op), cache_db_fp);
    let cached = shared.cache.get(key);
    observe_front();
    if let Some(body) = cached {
        shared.c_cache_hit.incr();
        info.tier = 1;
        return Response {
            code: RespCode::Ok,
            id,
            aux: 1,
            body,
        };
    }
    shared.c_cache_miss.incr();
    // Warm start: the persistent catalog is keyed identically to the
    // in-memory cache, so a result computed by an earlier process (or
    // evicted from memory) is a µs-scale page fetch instead of a recompute.
    if let Some(cat) = &shared.catalog {
        match cat.load_result(key.0, key.1) {
            Ok(Some(bytes)) => {
                if let Ok(body) = String::from_utf8(bytes) {
                    shared.c_store_hit.incr();
                    info.tier = 2;
                    shared.cache.put(key, body.clone());
                    return Response {
                        code: RespCode::Ok,
                        id,
                        aux: 2,
                        body,
                    };
                }
            }
            Ok(None) => {}
            Err(e) => shared.trace.mark("server.store", &e.to_string()),
        }
    }
    if job.req.op == OpCode::Explain {
        let body = explain_query(&f);
        shared.cache.put(key, body.clone());
        if let Some(cat) = &shared.catalog {
            if let Err(e) = cat.save_result(key.0, key.1, &[], body.as_bytes()) {
                shared.trace.mark("server.store", &e.to_string());
            }
        }
        return Response::ok(id, body);
    }

    // The deadline counts from *enqueue*: queue wait burns budget, so a
    // congested server rejects promptly instead of evaluating for ghosts.
    let limit = if job.req.aux > 0 {
        Duration::from_millis(job.req.aux as u64).min(shared.cfg.max_timeout)
    } else {
        shared.cfg.default_timeout
    };
    let Some(remaining) = limit.checked_sub(job.enqueued_at.elapsed()) else {
        shared.c_timeout.incr();
        return Response::error(
            RespCode::Timeout,
            id,
            format!("deadline ({limit:?}) elapsed while queued"),
        );
    };
    let budget = EvalBudget::unlimited()
        .with_timeout(remaining)
        .with_cancel_token(job.cancel.clone());

    let Some(spatial) = job.spatial.as_deref() else {
        return Response::error(
            RespCode::EvalError,
            id,
            "no relation defined yet; send a define request first",
        );
    };
    let sentence = match job.req.op {
        OpCode::EvalSentence => true,
        OpCode::EvalQuery => false,
        _ => return Response::error(RespCode::Internal, id, "unexpected opcode in dispatcher"),
    };
    let ext = shared.extension(&job.db, spatial, job.db_fp, &budget);
    let ev = ext.as_ref().map_err(EvalError::clone).map(|ext| {
        Evaluator::with_budget(ext.as_ref(), budget).with_trace(shared.trace.clone())
    });
    let run = |ev: &Evaluator| {
        if sentence {
            ev.try_eval_sentence(&f).map(|b| b.to_string())
        } else {
            ev.try_eval_query(&f).map(|fm| fm.to_string())
        }
    };
    // With a store, a run killed by its deadline or a fault leaves its
    // completed fixpoint stages behind, and the next request for the same
    // query on the same database continues from them.
    let result = match &shared.catalog {
        Some(cat) => {
            let kind = DecompositionKind::Arrangement;
            let resumable = cat.eval_resumable(&f, job.db_fp, kind, ev, run);
            for w in &resumable.warnings {
                shared.trace.mark("server.store", w);
            }
            resumable.result
        }
        None => ev.and_then(|ev| run(&ev)),
    };
    match result {
        Ok(body) => {
            shared.cache.put(key, body.clone());
            if let Some(cat) = &shared.catalog {
                if let Err(e) = cat.save_result(key.0, key.1, &[], body.as_bytes()) {
                    shared.trace.mark("server.store", &e.to_string());
                }
            }
            Response::ok(id, body)
        }
        Err(e) => eval_error_response(&e, id, shared),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn define_and_fingerprint() {
        let mut db = Database::new();
        let mut spatial = None;
        let fp0 = database_fingerprint(&db, spatial.as_deref());
        let msg = apply_define(&mut db, &mut spatial, "S(x) := 0 < x and x < 1").unwrap();
        assert_eq!(msg, "defined S");
        assert_eq!(spatial.as_deref(), Some("S"));
        let fp1 = database_fingerprint(&db, spatial.as_deref());
        assert_ne!(fp0, fp1);
        // Same definition → same fingerprint (cache sharing across
        // sessions); different body → different fingerprint.
        let mut db2 = Database::new();
        let mut spatial2 = None;
        apply_define(&mut db2, &mut spatial2, "rel S(x) := 0 < x and x < 1").unwrap();
        assert_eq!(fp1, database_fingerprint(&db2, spatial2.as_deref()));
        apply_define(&mut db2, &mut spatial2, "S(x) := 0 < x and x < 2").unwrap();
        assert_ne!(fp1, database_fingerprint(&db2, spatial2.as_deref()));
    }

    /// Stored catalogs are keyed by the database fingerprint, so its value
    /// for a fixed database is pinned: neither how a database holds its
    /// relations nor how a relation prints may move it.
    #[test]
    fn fingerprint_of_a_fixed_database_is_pinned() {
        let mut db = Database::new();
        let mut spatial = None;
        for line in [
            "S(x, y) := (0 < x and x < 1 and y = 2*x) or (2 <= x and x <= 3 and y = 1/2)",
            "T(x) := not (x < 0 or x = 5)",
        ] {
            apply_define(&mut db, &mut spatial, line).unwrap();
        }
        assert_eq!(database_fingerprint(&db, spatial.as_deref()), 0x5704_c433_0d39_109f);
        assert_eq!(database_fingerprint(&db.clone(), spatial.as_deref()), 0x5704_c433_0d39_109f);
    }

    #[test]
    fn hostile_definitions_are_errors_not_panics() {
        let mut db = Database::new();
        let mut spatial = None;
        for bad in [
            "S(x) := y < 1",                  // unknown variable
            "S(x) := exists y. y < x",        // quantifier
            "S(x) := T(x)",                   // relation symbol
            "S() := 0 < 1",                   // no variables
            "(x) := 0 < x",                   // empty name
            "S(x) : = 0 < x",                 // bad :=
            "spatial T",                      // unknown spatial
            "S(x) := 0 <",                    // parse error
            "R(x, x) := x < 1",               // repeated head variable
            "R(x, ) := x < 1",                // empty head variable
        ] {
            assert!(
                apply_define(&mut db, &mut spatial, bad).is_err(),
                "'{}' should be rejected",
                bad
            );
        }
        assert!(db.relation("S").is_none() && db.relation("R").is_none());
    }

    /// The first offence left to right is the one reported; an atom names
    /// the first of its unknown variables in name order.
    #[test]
    fn definition_errors_name_the_first_offence() {
        let mut db = Database::new();
        let mut spatial = None;
        for (bad, message) in [
            ("S(x) := y < 1", "definition mentions unknown variable 'y'"),
            ("S(x) := exists y. y < x", "quantifier over 'y' not allowed in a definition body"),
            ("S(x) := T(x)", "relation symbol 'T' not allowed in a definition body"),
            ("S() := 0 < 1", "relation needs at least one variable"),
            ("(x) := 0 < x", "empty relation name"),
            ("S(x) : = 0 < x", "expected `NAME(vars) := formula` or `spatial NAME`"),
            ("spatial T", "unknown relation 'T'"),
            ("S(x) := 0 <", "parse error at byte 3: expected a number or variable"),
            (
                "S(x) := (x < 1 and (x < 2 or not (x < 3 and b + a < 4))) or c < 0",
                "definition mentions unknown variable 'a'",
            ),
            ("S(x) := y < 0 and exists z. z < x", "definition mentions unknown variable 'y'"),
            (
                "S(x) := (exists z. z < x) and y < 0",
                "quantifier over 'z' not allowed in a definition body",
            ),
            ("S(x) := not (x < 0 or T(y))", "relation symbol 'T' not allowed in a definition body"),
            ("R(x, x) := x < 1", "variable 'x' named twice in the relation head"),
            ("R(x, ) := x < 1", "empty variable name in the relation head"),
            ("R( , ) := 0 < 1", "relation needs at least one variable"),
        ] {
            assert_eq!(apply_define(&mut db, &mut spatial, bad), Err(message.to_string()));
        }
    }

    /// A job nobody will execute, answering into a throwaway loopback socket.
    fn job(session: u64, id: u64) -> Job {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        Job {
            session,
            req: Request {
                op: OpCode::EvalSentence,
                id,
                aux: 0,
                text: "true".into(),
            },
            db: Arc::new(Database::new()),
            spatial: None,
            db_fp: 0,
            cancel: CancelToken::new(),
            out: Conn::new(stream),
            enqueued_at: Instant::now(),
        }
    }

    #[test]
    fn fair_rotation_serves_clients_round_robin() {
        let shared = Shared::for_test(ServerConfig {
            queue_capacity: 100,
            per_client_queue: 100,
            ..ServerConfig::default()
        });
        // Client 1 floods 4 jobs before client 2's single job arrives;
        // fair rotation still serves client 2 second, not fifth.
        for i in 0..4 {
            shared.enqueue(job(1, i)).map_err(|_| "shed").unwrap();
        }
        shared.enqueue(job(2, 100)).map_err(|_| "shed").unwrap();
        let order: Vec<u64> = (0..5).map(|_| shared.pop().unwrap().session).collect();
        assert_eq!(order, vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn bounded_queue_sheds() {
        let shared = Shared::for_test(ServerConfig {
            queue_capacity: 2,
            per_client_queue: 1,
            ..ServerConfig::default()
        });
        assert!(shared.enqueue(job(1, 0)).is_ok());
        // Per-client bound: client 1's second job is shed even though the
        // global queue has room.
        assert!(matches!(shared.enqueue(job(1, 0)), Err(Shed::ClientFull { .. })));
        assert!(shared.enqueue(job(2, 0)).is_ok());
        // Global bound: a third client is shed at capacity 2.
        assert!(matches!(shared.enqueue(job(3, 0)), Err(Shed::QueueFull { .. })));
    }

    /// The flag is published under the queue's mutex, so a worker parked
    /// with no timeout is always woken by shutdown — and a second request
    /// is a no-op.
    #[test]
    fn shutdown_wakes_a_parked_worker() {
        let shared = Arc::new(Shared::for_test(ServerConfig::default()));
        let worker = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || shared.pop().is_none()
        });
        shared.request_shutdown();
        shared.request_shutdown();
        assert!(worker.join().unwrap(), "pop returns None at shutdown");
        shared.wait_shutdown(None);
    }
}
