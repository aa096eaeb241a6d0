//! The concurrent query server.
//!
//! Architecture (all `std`, no dependencies):
//!
//! ```text
//!              accept loop (non-blocking poll)
//!                   │  caps live sessions, sheds with RETRY_AFTER
//!          ┌────────┴─────────┐
//!      session thread …  session thread        (one per connection)
//!          │ parses frames, runs Define/Status inline,
//!          │ enqueues Eval/Explain jobs, trips the session's
//!          │ CancelToken when the connection closes
//!          └────────┬─────────┘
//!         admission queue (bounded, fair round-robin per client)
//!          ┌────────┴─────────┐
//!      dispatch worker …  dispatch worker      (fixed pool)
//!          │ budgets each request (deadline counts from enqueue),
//!          │ consults the shared result cache, evaluates on an
//!          │ lcdb-exec pool, writes the response frame
//! ```
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
    write_frame, FrameReader, OpCode, ProtoError, Request, RespCode, Response,
};
use lcdb_core::{
    explain_query, parse_regformula, query_fingerprint, ArrangementRegions, CancelToken,
    Decomposition, EvalBudget, EvalError, Evaluator, PlanCatalog, Pool, RegionExtension,
    TraceHandle,
};
use lcdb_logic::{parse_formula, Database, Formula, Relation};
use lcdb_trace::Counter;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked loops (accept poll, session reads, worker waits) check
/// the shutdown flag. Bounds shutdown latency without busy-spinning.
const POLL: Duration = Duration::from_millis(10);

/// Buffered telemetry rows are appended to the persistent stats segment in
/// batches of this many (and at shutdown), so a busy server amortises the
/// WAL append instead of paying it per request.
const STATS_BATCH: usize = 32;

/// Everything the server's behaviour depends on. `Default` is tuned for
/// tests and small deployments; the CLI maps `serve` flags onto it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Dispatch worker threads draining the admission queue.
    pub workers: usize,
    /// `lcdb-exec` pool width used *inside* each evaluation.
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
    /// and completed evaluations are persisted on the way out. `None`
    /// disables persistence entirely.
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
/// called [`Server::start`], exactly like `lcdb-exec` pool workers do.
#[cfg(feature = "faults")]
type FaultHandle = Option<lcdb_budget::faults::ArmedHandle>;
#[cfg(not(feature = "faults"))]
type FaultHandle = ();

#[cfg(feature = "faults")]
fn export_faults() -> FaultHandle {
    lcdb_budget::faults::export()
}
#[cfg(not(feature = "faults"))]
fn export_faults() -> FaultHandle {}

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

/// One queued evaluation request, with everything needed to execute and
/// answer it after the submitting session has moved on (or died).
struct Job {
    session: u64,
    req: Request,
    db: Database,
    spatial: Option<String>,
    db_fp: u64,
    cancel: CancelToken,
    out: Arc<Mutex<TcpStream>>,
    enqueued_at: Instant,
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
    shutdown: AtomicBool,
    active_sessions: AtomicUsize,
    next_session: AtomicU64,
    dispatch: Mutex<DispatchState>,
    ready: Condvar,
    cache: ResultCache,
    /// `RegionExtension`s already built, keyed by database fingerprint —
    /// repeated queries against the same database skip the O(n^d)
    /// arrangement build entirely.
    extensions: Mutex<HashMap<u64, Arc<RegionExtension>>>,
    /// Base database every session starts from (pre-parsed once).
    base: (Database, Option<String>),
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
    c_shed: Counter,
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
}

impl Shared {
    /// Suggested client backoff, proportional to current congestion.
    fn retry_hint_ms(&self, depth: usize) -> u32 {
        (20 + 5 * depth as u64).min(2_000) as u32
    }

    fn enqueue(&self, job: Job) -> Result<(), Shed> {
        let mut st = self.dispatch.lock().unwrap_or_else(|p| p.into_inner());
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
        let mut st = self.dispatch.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
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
            let (guard, _) = self
                .ready
                .wait_timeout(st, POLL)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Buffer one telemetry row for the persistent stats segment. With
    /// persistence off the row is dropped — telemetry must never grow
    /// unbounded memory.
    fn push_stat(&self, row: String) {
        if self.catalog.is_none() {
            return;
        }
        let full = {
            let mut buf = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            buf.push(row);
            buf.len() >= STATS_BATCH
        };
        if full {
            self.flush_stats();
        }
    }

    /// Append all buffered telemetry rows to the catalog's stats segment.
    fn flush_stats(&self) {
        let Some(cat) = &self.catalog else { return };
        let rows: Vec<String> = {
            let mut buf = self.stats.lock().unwrap_or_else(|p| p.into_inner());
            std::mem::take(&mut *buf)
        };
        if rows.is_empty() {
            return;
        }
        if let Err(e) = cat.append_stats("req", &rows) {
            self.trace.mark("server.store", &e.to_string());
        }
    }

    fn queue_depth(&self) -> usize {
        self.dispatch
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queued
    }

    /// Build (or fetch) the region extension for a database snapshot: the
    /// in-memory map first, then the persistent catalog (a warm start skips
    /// the O(n^d) arrangement build), then a fresh build — which is
    /// persisted for the next process.
    fn extension(
        &self,
        db: &Database,
        spatial: &str,
        db_fp: u64,
        budget: &EvalBudget,
        pool: &Pool,
    ) -> Result<Arc<RegionExtension>, EvalError> {
        if let Some(ext) = self
            .extensions
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&db_fp)
        {
            return Ok(Arc::clone(ext));
        }
        let regions = match self.catalog.as_ref().and_then(|cat| {
            // A corrupt or torn catalog blob is a typed error inside the
            // store (the page is quarantined); fall back to rebuilding.
            cat.load_extension(db, spatial).unwrap_or_else(|e| {
                self.trace.mark("server.store", &e.to_string());
                None
            })
        }) {
            Some(warm) => warm,
            None => {
                // Cold in both caches. Before paying the O(n^d) rebuild,
                // try to *derive* the arrangement from the closest cached
                // one by inserting/removing the few hyperplanes a Define
                // changed — the common shape of a session: base database
                // plus a handful of redefinitions.
                let built = match self.derive_incremental(db, spatial, budget, pool) {
                    Some(derived) => {
                        self.c_ext_incremental.incr();
                        derived
                    }
                    None => {
                        self.c_ext_rebuild.incr();
                        ArrangementRegions::try_new_traced(
                            db.clone(),
                            spatial,
                            budget,
                            pool,
                            &self.trace,
                        )?
                    }
                };
                if let Some(cat) = &self.catalog {
                    if let Err(e) = cat.save_extension(&built) {
                        self.trace.mark("server.store", &e.to_string());
                    }
                }
                built
            }
        };
        let ext = Arc::new(RegionExtension::from_arrangement_regions(regions));
        let mut map = self.extensions.lock().unwrap_or_else(|p| p.into_inner());
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
        pool: &Pool,
    ) -> Option<ArrangementRegions> {
        let donors: Vec<Arc<RegionExtension>> = {
            let map = self.extensions.lock().unwrap_or_else(|p| p.into_inner());
            map.values().cloned().collect()
        };
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
        match donor.try_derive(db.clone(), spatial, budget, pool) {
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
        let mut s = String::new();
        for (name, c) in [
            ("accepted", &self.c_accepted),
            ("shed", &self.c_shed),
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
            self.active_sessions.load(Ordering::Relaxed),
            self.queue_depth(),
            self.cache.len(),
        ));
        // Work-stealing pool health, fed by every dispatch worker's pool.
        let m = self.trace.metrics();
        for name in ["server.pool.steals", "server.pool.idle_parks"] {
            s.push_str(&format!("{}={}\n", name, m.counter(name).get()));
        }
        let depth = m.histogram("server.pool.local_queue_depth");
        s.push_str(&format!(
            "server.pool.local_queue_depth.count={}\nserver.pool.local_queue_depth.p90={}\n",
            depth.count(),
            depth.quantile_upper_bound(90),
        ));
        s
    }
}

/// Fingerprint of a session database: every relation's name, variables and
/// defining formula, plus the designated spatial relation. Process-stable
/// (FNV-1a over the canonical rendering), so cache keys survive restarts.
pub fn db_fingerprint(db: &Database, spatial: Option<&str>) -> u64 {
    lcdb_core::database_fingerprint(db, spatial)
}

/// The relation name a `Define` line (re)binds, if any: the head of a
/// `NAME(vars) := formula` definition. `spatial NAME` lines rebind no
/// relation, so dependents of existing definitions stay valid.
fn defined_relation(line: &str) -> Option<&str> {
    let line = line.trim();
    if line.starts_with("spatial ") {
        return None;
    }
    let line = line.strip_prefix("rel ").unwrap_or(line);
    let head = line.split_once(":=")?.0.trim();
    Some(head[..head.find('(')?].trim())
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
        .filter(|v| !v.is_empty())
        .collect();
    if vars.is_empty() {
        return Err("relation needs at least one variable".into());
    }
    let formula = parse_formula(body.trim()).map_err(|e| e.to_string())?;
    // `Relation::new` panics on malformed definitions; a server must turn
    // hostile input into typed errors instead, so validate first.
    validate_definition(&formula, &vars)?;
    let rel = Relation::new(vars, &formula);
    if spatial.is_none() {
        *spatial = Some(name.clone());
    }
    db.insert(name.clone(), rel);
    Ok(format!("defined {}", name))
}

fn validate_definition(f: &Formula, vars: &[String]) -> Result<(), String> {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => {}
        Formula::Pred(name, _) => {
            return Err(format!(
                "relation symbol '{}' not allowed in a definition body",
                name
            ))
        }
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                validate_definition(p, vars)?;
            }
        }
        Formula::Not(inner) => validate_definition(inner, vars)?,
        Formula::Exists(v, _) | Formula::Forall(v, _) => {
            return Err(format!(
                "quantifier over '{}' not allowed in a definition body",
                v
            ))
        }
    }
    for v in f.free_vars() {
        if !vars.contains(&v) {
            return Err(format!("definition mentions unknown variable '{}'", v));
        }
    }
    Ok(())
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
    threads: Vec<std::thread::JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start serving. `trace` carries both the span sink and the
    /// metrics registry (`server.*` counters, latency histograms); pass
    /// `TraceHandle::disabled()` for an untraced server (counters still
    /// accumulate).
    pub fn start(cfg: ServerConfig, trace: TraceHandle) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
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

        let base_fp = db_fingerprint(&base_db, base_spatial.as_deref());
        let catalog = match &cfg.store_dir {
            Some(dir) => Some(
                PlanCatalog::open(dir)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            ),
            None => None,
        };

        let metrics = trace.metrics();
        let shared = Arc::new(Shared {
            c_accepted: metrics.counter("server.accepted"),
            c_shed: metrics.counter("server.shed"),
            c_timeout: metrics.counter("server.timeout"),
            c_requests: metrics.counter("server.requests"),
            c_completed: metrics.counter("server.completed"),
            c_cancelled: metrics.counter("server.cancelled"),
            c_faults: metrics.counter("server.faults"),
            c_cache_hit: metrics.counter("server.cache.hit"),
            c_cache_miss: metrics.counter("server.cache.miss"),
            c_store_hit: metrics.counter("server.store.hit"),
            c_ext_incremental: metrics.counter("server.ext.incremental"),
            c_ext_rebuild: metrics.counter("server.ext.rebuild"),
            cache: ResultCache::new(cfg.cache_capacity).protecting(base_fp),
            extensions: Mutex::new(HashMap::new()),
            base: (base_db, base_spatial),
            base_fp,
            catalog,
            stats: Mutex::new(Vec::new()),
            trace,
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            dispatch: Mutex::new(DispatchState::default()),
            ready: Condvar::new(),
            cfg,
        });

        // Threads spawned here re-arm the *caller's* fault plan, so a
        // seeded chaos test arms once and the whole server participates.
        // (`FaultHandle` is the unit type in non-faults builds.)
        #[allow(clippy::let_unit_value)]
        let faults = export_faults();
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            #[cfg(feature = "faults")]
            let faults = faults.clone();
            threads.push(std::thread::spawn(move || {
                install_faults(&faults, || worker_loop(&shared))
            }));
        }
        {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            #[cfg(feature = "faults")]
            let faults = faults.clone();
            threads.push(std::thread::spawn(move || {
                install_faults(&faults, || accept_loop(&shared, listener, &sessions, &faults))
            }));
        }
        Ok(Server {
            addr,
            shared,
            threads,
            sessions,
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

    /// True once a shutdown has been requested (protocol or API).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Block until a client's `Shutdown` request (or a prior
    /// [`Server::shutdown_now`]) stops the server, then join every thread.
    pub fn wait(mut self) {
        while !self.shared.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(POLL);
        }
        self.join();
    }

    /// Request shutdown and join every thread (accept loop, workers, and
    /// all live sessions). In-flight evaluations observe their budgets'
    /// cancellation/deadline checks; sessions close their connections.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.join();
    }

    fn join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let handles: Vec<_> = {
            let mut s = self.sessions.lock().unwrap_or_else(|p| p.into_inner());
            s.drain(..).collect()
        };
        for t in handles {
            let _ = t.join();
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

fn install_faults(handle: &FaultHandle, f: impl FnOnce()) {
    #[cfg(feature = "faults")]
    let _installed = handle.as_ref().map(lcdb_budget::faults::install);
    #[cfg(not(feature = "faults"))]
    let _ = handle;
    f()
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    sessions: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    faults: &FaultHandle,
) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.c_accepted.incr();
                // Fault site: a poisoned accept drops exactly this
                // connection; the listener and every other session live on.
                if let Err(msg) = fault_check("server.accept") {
                    shared.c_faults.incr();
                    shared.trace.mark("server.fault", &msg);
                    drop(stream);
                    continue;
                }
                if shared.active_sessions.load(Ordering::Relaxed) >= shared.cfg.max_sessions {
                    shared.c_shed.incr();
                    let hint = shared.retry_hint_ms(shared.queue_depth());
                    let resp =
                        Response::retry_after(0, hint, "server at session capacity");
                    let mut stream = stream;
                    let _ = write_frame(&mut stream, &resp.encode());
                    continue;
                }
                shared.active_sessions.fetch_add(1, Ordering::Relaxed);
                let sid = shared.next_session.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                #[cfg(feature = "faults")]
                let faults = faults.clone();
                #[cfg(not(feature = "faults"))]
                #[allow(clippy::let_unit_value)]
                let faults = *faults;
                let handle = std::thread::spawn(move || {
                    install_faults(&faults, || {
                        session_loop(&shared, stream, sid);
                        shared.active_sessions.fetch_sub(1, Ordering::Relaxed);
                    })
                });
                sessions
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => {
                // Transient accept failure (e.g. aborted handshake): keep
                // listening.
                std::thread::sleep(POLL);
            }
        }
    }
}

/// Per-connection loop: frame reassembly, inline Define/Status/Shutdown,
/// admission for Eval/Explain. Returning closes the connection; the
/// session's cancel token is tripped on every exit path so in-flight
/// evaluations for this client stop promptly.
fn session_loop(shared: &Arc<Shared>, mut stream: TcpStream, sid: u64) {
    let cancel = CancelToken::new();
    let result = session_inner(shared, &mut stream, sid, &cancel);
    cancel.cancel();
    if let Err(_e) = result {
        // Connection-level I/O failure: nothing to report to (the peer is
        // gone); counters already reflect what was served.
    }
}

fn session_inner(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    sid: u64,
    cancel: &CancelToken,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL))?;
    let out = Arc::new(Mutex::new(stream.try_clone()?));
    let respond = |resp: &Response| -> io::Result<()> {
        let mut w = out.lock().unwrap_or_else(|p| p.into_inner());
        write_frame(&mut *w, &resp.encode())
    };

    let (mut db, mut spatial) = shared.base.clone();
    let mut db_fp = db_fingerprint(&db, spatial.as_deref());
    let mut reader = FrameReader::new();
    let mut last_data = Instant::now();
    let mut buf = [0u8; 4096];

    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                // No bytes this poll: enforce the idle/read timeouts. A
                // stalled frame gets the short leash; a quiet-but-healthy
                // client the long one.
                let limit = if reader.mid_frame() {
                    shared.cfg.read_timeout
                } else {
                    shared.cfg.idle_timeout
                };
                if last_data.elapsed() > limit {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        last_data = Instant::now();
        reader.push(&buf[..n]);
        loop {
            let payload = match reader.next_frame() {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(e @ ProtoError::Oversized { .. }) => {
                    // Framing is unrecoverable: poison the session.
                    let _ = respond(&Response::error(RespCode::BadRequest, 0, e.to_string()));
                    return Ok(());
                }
                Err(e) => {
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
                    let resp = match apply_define(&mut db, &mut spatial, &req.text) {
                        Ok(msg) => {
                            let before = std::mem::replace(
                                &mut db_fp,
                                db_fingerprint(&db, spatial.as_deref()),
                            );
                            // A rebound relation invalidates every persisted
                            // artifact depending on it — one atomic WAL
                            // record, before the definition is acknowledged,
                            // so no later request can warm-start from state
                            // derived from the old definition. A definition
                            // that leaves the database as it was (sessions
                            // re-state their relations) invalidates nothing:
                            // what the catalog holds is still exactly right.
                            if let (Some(cat), Some(name), true) = (
                                &shared.catalog,
                                defined_relation(&req.text),
                                before != db_fp,
                            ) {
                                if let Err(e) = cat.invalidate_relation(name) {
                                    shared.trace.mark("server.store", &e.to_string());
                                }
                            }
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
                    shared.shutdown.store(true, Ordering::Relaxed);
                    shared.ready.notify_all();
                    return Ok(());
                }
                OpCode::EvalSentence | OpCode::EvalQuery | OpCode::Explain => {
                    let job = Job {
                        session: sid,
                        req: req.clone(),
                        db: db.clone(),
                        spatial: spatial.clone(),
                        db_fp,
                        cancel: cancel.clone(),
                        out: Arc::clone(&out),
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
                            req.id,
                            shared.retry_hint_ms(depth),
                            what,
                        ))?;
                        shared.push_stat(stat_row(
                            sid,
                            op_name(req.op),
                            0,
                            db_fp,
                            0,
                            0,
                            0,
                            "shed",
                        ));
                    }
                }
            }
        }
    }
}

/// Dispatch worker: pops fairly, executes under the request budget, writes
/// the response. One worker failing to write (dead client) never affects
/// the next job.
fn worker_loop(shared: &Arc<Shared>) {
    // Every dispatch worker's pool feeds the same `server.pool.*` metrics:
    // steal counts, idle parks, and the local-queue depth histogram land in
    // the registry and surface in the Status dump.
    let pool = Pool::new(shared.cfg.eval_threads).with_metrics(shared.trace.metrics(), "server.pool");
    let metrics = shared.trace.metrics();
    // The budget meter of every evaluation ticks this registry counter
    // (`Meter::backed_by` in the evaluator); sampling it around `execute`
    // attributes ticks to the opcode that spent them.
    let ticks_total = metrics.counter("budget.meter_ticks");
    while let Some(job) = shared.pop() {
        let op = op_name(job.req.op);
        if job.cancel.is_cancelled() {
            // The session closed while the job was queued; nobody is
            // waiting for this answer.
            shared.c_cancelled.incr();
            shared.push_stat(stat_row(
                job.session,
                op,
                0,
                job.db_fp,
                job.enqueued_at.elapsed().as_micros() as u64,
                0,
                0,
                "cancelled",
            ));
            continue;
        }
        let _span = shared.trace.span_with("server.request", op);
        let started = Instant::now();
        let ticks_before = ticks_total.get();
        let mut info = ExecInfo::default();
        let resp = execute(shared, &job, &pool, &mut info);
        let self_us = started.elapsed().as_micros() as u64;
        metrics.observe("server.latency_us", self_us);
        metrics.observe(&format!("server.latency_us.{op}"), self_us);
        // Best-effort attribution: with concurrent workers the deltas can
        // interleave, but their sum still reconciles against the global
        // `budget.meter_ticks` counter.
        let ticks = ticks_total.get().saturating_sub(ticks_before);
        if ticks > 0 {
            metrics.counter(&format!("server.ticks.{op}")).add(ticks);
        }
        shared.c_completed.incr();
        shared.push_stat(stat_row(
            job.session,
            op,
            info.plan_fp,
            job.db_fp,
            job.enqueued_at.elapsed().as_micros() as u64,
            self_us,
            info.tier,
            outcome_label(resp.code),
        ));
        let mut w = job.out.lock().unwrap_or_else(|p| p.into_inner());
        let _ = write_frame(&mut *w, &resp.encode());
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
/// stats segment is greppable and `lcdb stats` can parse it back.
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
) -> String {
    format!(
        "{{\"kind\":\"req\",\"session\":{session},\"op\":\"{op}\",\"plan_fp\":{plan_fp},\
         \"db_fp\":{db_fp},\"wall_us\":{wall_us},\"self_us\":{self_us},\"tier\":{tier},\
         \"outcome\":\"{outcome}\"}}"
    )
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
fn execute(shared: &Arc<Shared>, job: &Job, pool: &Pool, info: &mut ExecInfo) -> Response {
    let id = job.req.id;
    // Fault site: a poisoned dispatch fails exactly this request; the
    // session and the worker keep going.
    if let Err(msg) = fault_check("server.dispatch") {
        shared.c_faults.incr();
        shared.trace.mark("server.fault", &msg);
        return Response::error(RespCode::Fault, id, msg);
    }
    let f = match parse_regformula(&job.req.text) {
        Ok(f) => f,
        Err(e) => return Response::error(RespCode::ParseError, id, e.to_string()),
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
    if let Some(body) = shared.cache.get(key) {
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
    let ext = match shared.extension(&job.db, spatial, job.db_fp, &budget, pool) {
        Ok(ext) => ext,
        Err(e) => return eval_error_response(&e, id, shared),
    };
    let ev = Evaluator::with_budget(ext.as_ref(), budget)
        .with_pool(pool.clone())
        .with_trace(shared.trace.clone());
    // Resume fixpoint progress persisted by an earlier run of this query
    // (a completed run seeds completed stages; an aborted run its partial
    // ones). A mismatched or corrupt snapshot is ignored.
    if let Some(cat) = &shared.catalog {
        if let Ok(Some(snap)) = cat.load_fixpoint(plan_fp, job.db_fp) {
            if ev.resume_from(&f, &snap).is_err() {
                shared
                    .trace
                    .mark("server.store", "persisted fixpoint snapshot not resumable");
            }
        }
    }
    let result = match job.req.op {
        OpCode::EvalSentence => ev.try_eval_sentence(&f).map(|b| b.to_string()),
        OpCode::EvalQuery => ev.try_eval_query(&f).map(|fm| fm.to_string()),
        _ => {
            return Response::error(RespCode::Internal, id, "unexpected opcode in dispatcher")
        }
    };
    match result {
        Ok(body) => {
            shared.cache.put(key, body.clone());
            if let Some(cat) = &shared.catalog {
                let deps: Vec<String> = job.db.relations().map(|(n, _)| n.clone()).collect();
                if let Err(e) = cat.save_result(key.0, key.1, &deps, body.as_bytes()) {
                    shared.trace.mark("server.store", &e.to_string());
                }
                if let Err(e) = cat.save_fixpoint(&ev.checkpoint(&f), job.db_fp, &deps) {
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
        let fp0 = db_fingerprint(&db, spatial.as_deref());
        let msg = apply_define(&mut db, &mut spatial, "S(x) := 0 < x and x < 1").unwrap();
        assert_eq!(msg, "defined S");
        assert_eq!(spatial.as_deref(), Some("S"));
        let fp1 = db_fingerprint(&db, spatial.as_deref());
        assert_ne!(fp0, fp1);
        // Same definition → same fingerprint (cache sharing across
        // sessions); different body → different fingerprint.
        let mut db2 = Database::new();
        let mut spatial2 = None;
        apply_define(&mut db2, &mut spatial2, "rel S(x) := 0 < x and x < 1").unwrap();
        assert_eq!(fp1, db_fingerprint(&db2, spatial2.as_deref()));
        apply_define(&mut db2, &mut spatial2, "S(x) := 0 < x and x < 2").unwrap();
        assert_ne!(fp1, db_fingerprint(&db2, spatial2.as_deref()));
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
        ] {
            assert!(
                apply_define(&mut db, &mut spatial, bad).is_err(),
                "'{}' should be rejected",
                bad
            );
        }
        assert!(db.relation("S").is_none());
    }

    #[test]
    fn fair_rotation_serves_clients_round_robin() {
        let cfg = ServerConfig {
            queue_capacity: 100,
            per_client_queue: 100,
            ..ServerConfig::default()
        };
        let trace = TraceHandle::disabled();
        let metrics = trace.metrics();
        let shared = Shared {
            c_accepted: metrics.counter("a"),
            c_shed: metrics.counter("b"),
            c_timeout: metrics.counter("c"),
            c_requests: metrics.counter("d"),
            c_completed: metrics.counter("e"),
            c_cancelled: metrics.counter("f"),
            c_faults: metrics.counter("g"),
            c_cache_hit: metrics.counter("h"),
            c_cache_miss: metrics.counter("i"),
            c_store_hit: metrics.counter("j"),
            c_ext_incremental: metrics.counter("k"),
            c_ext_rebuild: metrics.counter("l"),
            cache: ResultCache::new(0),
            extensions: Mutex::new(HashMap::new()),
            base: (Database::new(), None),
            base_fp: 0,
            catalog: None,
            stats: Mutex::new(Vec::new()),
            trace: trace.clone(),
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            dispatch: Mutex::new(DispatchState::default()),
            ready: Condvar::new(),
            cfg,
        };
        let mk = |session: u64, id: u64| {
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
                db: Database::new(),
                spatial: None,
                db_fp: 0,
                cancel: CancelToken::new(),
                out: Arc::new(Mutex::new(stream)),
                enqueued_at: Instant::now(),
            }
        };
        // Client 1 floods 4 jobs before client 2's single job arrives;
        // fair rotation still serves client 2 second, not fifth.
        for i in 0..4 {
            shared.enqueue(mk(1, i)).map_err(|_| "shed").unwrap();
        }
        shared.enqueue(mk(2, 100)).map_err(|_| "shed").unwrap();
        let order: Vec<u64> = (0..5).map(|_| shared.pop().unwrap().session).collect();
        assert_eq!(order, vec![1, 2, 1, 1, 1]);
    }

    #[test]
    fn bounded_queue_sheds() {
        let cfg = ServerConfig {
            queue_capacity: 2,
            per_client_queue: 1,
            ..ServerConfig::default()
        };
        let trace = TraceHandle::disabled();
        let metrics = trace.metrics();
        let shared = Shared {
            c_accepted: metrics.counter("a2"),
            c_shed: metrics.counter("b2"),
            c_timeout: metrics.counter("c2"),
            c_requests: metrics.counter("d2"),
            c_completed: metrics.counter("e2"),
            c_cancelled: metrics.counter("f2"),
            c_faults: metrics.counter("g2"),
            c_cache_hit: metrics.counter("h2"),
            c_cache_miss: metrics.counter("i2"),
            c_store_hit: metrics.counter("j2"),
            c_ext_incremental: metrics.counter("k2"),
            c_ext_rebuild: metrics.counter("l2"),
            cache: ResultCache::new(0),
            extensions: Mutex::new(HashMap::new()),
            base: (Database::new(), None),
            base_fp: 0,
            catalog: None,
            stats: Mutex::new(Vec::new()),
            trace: trace.clone(),
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            next_session: AtomicU64::new(1),
            dispatch: Mutex::new(DispatchState::default()),
            ready: Condvar::new(),
            cfg,
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mk = |session: u64| Job {
            session,
            req: Request {
                op: OpCode::EvalSentence,
                id: 0,
                aux: 0,
                text: "true".into(),
            },
            db: Database::new(),
            spatial: None,
            db_fp: 0,
            cancel: CancelToken::new(),
            out: Arc::new(Mutex::new(
                TcpStream::connect(listener.local_addr().unwrap()).unwrap(),
            )),
            enqueued_at: Instant::now(),
        };
        assert!(shared.enqueue(mk(1)).is_ok());
        // Per-client bound: client 1's second job is shed even though the
        // global queue has room.
        assert!(matches!(shared.enqueue(mk(1)), Err(Shed::ClientFull { .. })));
        assert!(shared.enqueue(mk(2)).is_ok());
        // Global bound: a third client is shed at capacity 2.
        assert!(matches!(shared.enqueue(mk(3)), Err(Shed::QueueFull { .. })));
    }
}
