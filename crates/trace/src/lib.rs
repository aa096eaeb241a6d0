//! Structured tracing, metrics, and profile aggregation for lcdb.
//!
//! The evaluation stack (arrangement construction, quantifier elimination,
//! fixpoint stages, datalog rounds, checkpoint/restore, and the plan
//! executor) reports *what it is doing* through this crate, with three
//! guarantees:
//!
//! * **Zero-cost when disabled.** The default sink is [`NullTracer`]; a
//!   span on a disabled handle is one virtual `enabled()` call, one relaxed
//!   probe of the flight [`recorder`]'s armed flag, and no clock read, no
//!   allocation, no lock. Hot loops additionally cache the enabled bit so
//!   their per-item cost is a branch.
//! * **Thread-aware.** Span parentage follows a per-thread stack (an
//!   evaluation runs on one thread), and every event carries a small
//!   process-stable thread id.
//! * **Stable schema.** The JSONL sink writes one event per line with fixed
//!   keys (`v`, `ev`, `span`, `parent`, `name`, `detail`, `value`,
//!   `thread`, `t_us`); [`Event::parse_jsonl`] reads the same schema back,
//!   so a trace file round-trips through [`aggregate`] — the in-memory
//!   profile aggregation — bit-for-bit with a live [`MemoryTracer`].
//!
//! The [`MetricsRegistry`] is orthogonal to the event stream: a lock-cheap
//! registry of named monotonic counters and log₂-bucketed histograms.
//! Registration takes a mutex; the returned [`Counter`] handle is a bare
//! `Arc<AtomicU64>` that callers cache and bump lock-free.
//!
//! The [`recorder`] module is the always-on flight recorder: every handle
//! feeds its per-thread rings while it is armed, and it dumps them on
//! panics, faults, quarantines, budget aborts and kill points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod recorder;

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Version stamped into every JSONL line (`"v"`); bump on schema change.
pub const SCHEMA_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What kind of trace event a line records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span` is its id, `parent` the enclosing span or 0).
    Enter,
    /// A span closed (`value` is its duration in microseconds).
    Exit,
    /// A named monotonic count was incremented by `value`.
    Counter,
    /// A point event (e.g. one quarantined unit); `detail` carries context.
    Mark,
}

impl EventKind {
    /// The stable wire tag (`"enter"`, `"exit"`, `"counter"`, `"mark"`).
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::Enter => "enter",
            EventKind::Exit => "exit",
            EventKind::Counter => "counter",
            EventKind::Mark => "mark",
        }
    }

    /// Inverse of [`EventKind::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "enter" => EventKind::Enter,
            "exit" => EventKind::Exit,
            "counter" => EventKind::Counter,
            "mark" => EventKind::Mark,
            _ => return None,
        })
    }
}

/// One trace event. The JSONL sink writes exactly these fields per line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Event kind.
    pub kind: EventKind,
    /// Span id for `Enter`/`Exit`; 0 for counters and marks.
    pub span: u64,
    /// Enclosing span id at emission time; 0 when there is none.
    pub parent: u64,
    /// Span or counter name (dotted, e.g. `"fix.stage"`).
    pub name: String,
    /// Free-form context (may be empty).
    pub detail: String,
    /// Counter delta, or span duration in µs on `Exit`; 0 otherwise.
    pub value: u64,
    /// Process-stable small thread id (≥ 1).
    pub thread: u64,
    /// Microseconds since the emitting handle's epoch.
    pub t_us: u64,
}

impl Event {
    /// Serialize as one JSONL line (no trailing newline), stable key order.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"v\":{},\"ev\":\"{}\",\"span\":{},\"parent\":{},\"name\":\"{}\",\"detail\":\"{}\",\"value\":{},\"thread\":{},\"t_us\":{}}}",
            SCHEMA_VERSION,
            self.kind.tag(),
            self.span,
            self.parent,
            json_escape(&self.name),
            json_escape(&self.detail),
            self.value,
            self.thread,
            self.t_us,
        )
    }

    /// Parse a line written by [`Event::to_jsonl`] (tolerates any key
    /// order). Returns `None` on blank lines or schema violations.
    pub fn parse_jsonl(line: &str) -> Option<Event> {
        let line = line.trim();
        if line.is_empty() {
            return None;
        }
        let kind = EventKind::from_tag(&json_str_field(line, "ev")?)?;
        Some(Event {
            kind,
            span: json_u64_field(line, "span")?,
            parent: json_u64_field(line, "parent")?,
            name: json_str_field(line, "name")?,
            detail: json_str_field(line, "detail")?,
            value: json_u64_field(line, "value")?,
            thread: json_u64_field(line, "thread")?,
            t_us: json_u64_field(line, "t_us")?,
        })
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Locate `"key":` in a JSON object line and return the byte offset of the
/// first character of its value.
fn json_value_start(line: &str, key: &str) -> Option<usize> {
    let pat = format!("\"{}\":", key);
    let at = line.find(&pat)?;
    Some(at + pat.len())
}

/// The string value of `key` in a one-line flat JSON object, unescaped —
/// how [`Event::parse_jsonl`] reads its own lines back.
pub fn json_str_field(line: &str, key: &str) -> Option<String> {
    let start = json_value_start(line, key)?;
    let rest = line.get(start..)?.strip_prefix('"')?;
    // Scan to the closing unescaped quote.
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = Some(i);
            break;
        }
    }
    Some(json_unescape(&rest[..end?]))
}

/// The unsigned integer value of `key` in a one-line flat JSON object, read
/// digit by digit (exact over the whole `u64` range — no detour through
/// `f64`). `None` when the key is absent or its value is not a plain
/// unsigned integer.
pub fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let start = json_value_start(line, key)?;
    let rest = line.get(start..)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

// ---------------------------------------------------------------------------
// Thread identity and span parentage
// ---------------------------------------------------------------------------

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A small process-stable id for the calling thread (assigned on first use,
/// starting at 1). Written into every event's `thread` field.
pub fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == 0 {
            id.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// The calling thread's innermost open span; 0 when there is none.
fn current_span() -> u64 {
    SPAN_STACK.with(|s| s.borrow().last().copied()).unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Tracer trait and sinks
// ---------------------------------------------------------------------------

/// A sink for trace events. Implementations must be cheap to call from hot
/// paths and safe to share across threads.
pub trait Tracer: Send + Sync {
    /// Whether events are being recorded. Handles check this *before*
    /// building an event, so a disabled tracer costs one virtual call.
    fn enabled(&self) -> bool {
        true
    }
    /// Record one event.
    fn record(&self, event: &Event);
    /// Flush buffered output (no-op for non-buffering sinks).
    fn flush(&self) {}
}

/// The zero-cost default sink: reports disabled, records nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }
    fn record(&self, _event: &Event) {}
}

/// JSONL sink: one event per line in the stable schema, buffered. Suitable
/// for CI artifact upload; validate with `Event::parse_jsonl` per line.
pub struct JsonlTracer {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlTracer {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::from_writer(Box::new(file)))
    }

    /// Write events to an arbitrary sink (for tests).
    pub fn from_writer(w: Box<dyn Write + Send>) -> Self {
        JsonlTracer {
            out: Mutex::new(BufWriter::new(w)),
        }
    }
}

impl Tracer for JsonlTracer {
    fn record(&self, event: &Event) {
        if let Ok(mut out) = self.out.lock() {
            let _ = writeln!(out, "{}", event.to_jsonl());
        }
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Drop for JsonlTracer {
    fn drop(&mut self) {
        self.flush();
    }
}

/// In-memory sink: collects events for [`aggregate`]-based profile reports
/// and trace-vs-stats consistency checks.
#[derive(Default)]
pub struct MemoryTracer {
    events: Mutex<Vec<Event>>,
}

impl MemoryTracer {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every event recorded so far, in arrival order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }

    /// Aggregate the recorded events into a profile summary.
    pub fn summary(&self) -> TraceSummary {
        aggregate(&self.events())
    }
}

impl Tracer for MemoryTracer {
    fn record(&self, event: &Event) {
        if let Ok(mut e) = self.events.lock() {
            e.push(event.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Per-span-name totals from one trace: how often it ran, wall time
/// including children (`total_us`), and time net of child spans
/// (`self_us`). Self times partition wall time: summed over all names they
/// equal the total duration of the root spans (within rounding).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total duration (µs), including time spent in child spans.
    pub total_us: u64,
    /// Duration net of child spans (µs).
    pub self_us: u64,
}

/// The result of replaying a trace through the in-memory aggregator.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Per-span-name profile rows, sorted by descending self time.
    pub rows: Vec<ProfileRow>,
    /// Summed `Counter` events by name.
    pub counters: BTreeMap<String, u64>,
    /// `Mark` event counts by name.
    pub marks: BTreeMap<String, u64>,
    /// Spans entered but never exited, plus exits with no matching enter.
    pub unbalanced: usize,
}

impl TraceSummary {
    /// The summed counter value for `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Replay a stream of events into per-name self/total times and counter
/// sums. Works on live [`MemoryTracer`] events and on events parsed back
/// from a JSONL file alike — the consistency tests rely on the two agreeing.
pub fn aggregate(events: &[Event]) -> TraceSummary {
    struct Open {
        name: String,
        parent: u64,
        child_us: u64,
    }
    let mut open: HashMap<u64, Open> = HashMap::new();
    let mut rows: BTreeMap<String, ProfileRow> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut marks: BTreeMap<String, u64> = BTreeMap::new();
    let mut unbalanced = 0usize;
    for ev in events {
        match ev.kind {
            EventKind::Enter => {
                open.insert(
                    ev.span,
                    Open {
                        name: ev.name.clone(),
                        parent: ev.parent,
                        child_us: 0,
                    },
                );
            }
            EventKind::Exit => {
                let Some(o) = open.remove(&ev.span) else {
                    unbalanced += 1;
                    continue;
                };
                let dur = ev.value;
                let row = rows.entry(o.name.clone()).or_insert_with(|| ProfileRow {
                    name: o.name.clone(),
                    ..ProfileRow::default()
                });
                row.count += 1;
                row.total_us += dur;
                row.self_us += dur.saturating_sub(o.child_us);
                if let Some(p) = open.get_mut(&o.parent) {
                    p.child_us += dur;
                }
            }
            EventKind::Counter => {
                *counters.entry(ev.name.clone()).or_insert(0) += ev.value;
            }
            EventKind::Mark => {
                *marks.entry(ev.name.clone()).or_insert(0) += 1;
            }
        }
    }
    unbalanced += open.len();
    let mut rows: Vec<ProfileRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
    TraceSummary {
        rows,
        counters,
        marks,
        unbalanced,
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A lock-free handle to a named monotonic counter. Clones share the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Poison-tolerant lock: the registry and the flight recorder must stay
/// usable from panic hooks, where some other thread may have poisoned a
/// mutex.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Add `n` to an atomic cell, sticking at `u64::MAX` instead of wrapping.
/// Histogram counts and sums are diagnostics: a saturated (visibly pinned)
/// value is useful, a silently wrapped one is a lie.
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        if next == cur {
            return; // already saturated (or n == 0)
        }
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A log₂-bucketed latency histogram: bucket `i ≥ 1` counts observations
/// `v` with `floor(log2(v)) == i - 1`; bucket 0 counts zeros. The top
/// bucket (index 64) holds `[2^63, u64::MAX]`, so every `u64` — including
/// `u64::MAX` itself — indexes in range. All counts and the sum saturate
/// at `u64::MAX` rather than wrapping.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..65).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// `0 → 0`; otherwise `floor(log2(v)) + 1`. For `v = u64::MAX` this is
    /// 64, the last of the 65 buckets — no value can index out of range.
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `i`: `0, 1, 3, 7, …` and
    /// `u64::MAX` for the top bucket (where `(1 << i) - 1` would shift out
    /// of range). These are the stable `le=` labels of the Prometheus
    /// exposition and the values [`Histogram::quantile_upper_bound`]
    /// returns.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Record one observation (saturating).
    pub fn observe(&self, v: u64) {
        saturating_fetch_add(&self.buckets[Self::bucket_index(v)], 1);
        saturating_fetch_add(&self.count, 1);
        saturating_fetch_add(&self.sum, v);
    }

    /// Fold `other`'s observations into `self`, bucket by bucket, with
    /// saturating adds. This is how per-thread flight-recorder histograms
    /// become one process-wide histogram at dump time.
    ///
    /// Merge is commutative and associative (up to the common saturation
    /// ceiling, where every order pins at `u64::MAX`): each bucket, the
    /// count, and the sum are independent saturating sums, and
    /// `u64::saturating_add` is itself commutative and associative. The
    /// property tests in `tests/histogram_props.rs` exercise both laws and
    /// the quantile bounds of merged histograms.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            saturating_fetch_add(mine, theirs.load(Ordering::Relaxed));
        }
        saturating_fetch_add(&self.count, other.count.load(Ordering::Relaxed));
        saturating_fetch_add(&self.sum, other.sum.load(Ordering::Relaxed));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (index = [`Histogram::bucket_index`]).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// An upper bound on the p-quantile (0–100) from the bucket
    /// boundaries: the top of the bucket holding the p-th observation.
    /// Exact in the sense that at least `⌈n·p/100⌉` observations are ≤ the
    /// returned value (the arithmetic is done in `u128`, so counts near
    /// `u64::MAX` cannot overflow the rank computation).
    pub fn quantile_upper_bound(&self, p: u64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (u128::from(n) * u128::from(p)).div_ceil(100).max(1);
        let mut seen: u128 = 0;
        for (i, b) in self.bucket_counts().iter().enumerate() {
            seen += u128::from(*b);
            if seen >= target {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A registry of named counters and histograms. Cloning is cheap (shared
/// interior); registration locks, but the returned handles are lock-free —
/// cache them in hot paths.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = lock(&self.inner);
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Add `n` to the counter named `name` (registering it on first use).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = lock(&self.inner);
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Record one observation into the histogram named `name`.
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Current counter values by name.
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        let inner = lock(&self.inner);
        inner
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Render every counter and histogram as stable `name value` lines —
    /// the CLI's `--metrics` dump.
    pub fn render(&self) -> String {
        let inner = lock(&self.inner);
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let _ = writeln!(out, "{name} {}", c.get());
        }
        for (name, h) in &inner.histograms {
            let _ = writeln!(
                out,
                "{name} count={} sum={} p50<={} p99<={}",
                h.count(),
                h.sum(),
                h.quantile_upper_bound(50),
                h.quantile_upper_bound(99),
            );
        }
        out
    }

    /// Render every counter and histogram as a deterministic
    /// Prometheus-style text exposition: metrics sorted by name (the
    /// registry is a `BTreeMap`, so ordering never depends on registration
    /// or thread schedule), histogram buckets as cumulative
    /// `_bucket{le="…"}` series whose labels come from
    /// [`Histogram::bucket_upper_bound`] — stable for a given bucket index
    /// regardless of the data — plus the conventional `_sum`/`_count`
    /// pair. Metric names are sanitized to `[a-zA-Z0-9_]` and prefixed
    /// `lcdb_`. Empty buckets are elided (the cumulative series and the
    /// always-present `le="+Inf"` line lose no information).
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 5);
            out.push_str("lcdb_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        let inner = lock(&self.inner);
        let mut out = String::new();
        for (name, c) in &inner.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {}", c.get());
        }
        for (name, h) in &inner.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (i, b) in h.bucket_counts().iter().enumerate() {
                if *b == 0 {
                    continue;
                }
                cumulative = cumulative.saturating_add(*b);
                if i >= 64 {
                    // The top bucket's upper bound is u64::MAX — it *is*
                    // the +Inf line written below.
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    Histogram::bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{n}_sum {}", h.sum());
            let _ = writeln!(out, "{n}_count {}", h.count());
        }
        out
    }
}

// ---------------------------------------------------------------------------
// TraceHandle and spans
// ---------------------------------------------------------------------------

/// A cheap-to-clone handle bundling a [`Tracer`] sink with a
/// [`MetricsRegistry`]. Every instrumented layer takes one of these; the
/// default ([`TraceHandle::disabled`]) records nothing.
#[derive(Clone)]
pub struct TraceHandle {
    tracer: Arc<dyn Tracer>,
    metrics: MetricsRegistry,
    epoch: Instant,
}

impl Default for TraceHandle {
    fn default() -> Self {
        Self::disabled()
    }
}

static DISABLED: OnceLock<TraceHandle> = OnceLock::new();

impl TraceHandle {
    /// A handle over the [`NullTracer`] (still carries a live registry, so
    /// `--metrics` works without `--trace`).
    pub fn disabled() -> Self {
        Self::new(Arc::new(NullTracer))
    }

    /// A shared disabled handle, for default arguments on hot paths where
    /// constructing a fresh handle per call would allocate.
    pub fn disabled_ref() -> &'static TraceHandle {
        DISABLED.get_or_init(TraceHandle::disabled)
    }

    /// A handle over `tracer` with a fresh registry.
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        Self::with_metrics(tracer, MetricsRegistry::new())
    }

    /// A handle over `tracer` writing metrics into `metrics`.
    pub fn with_metrics(tracer: Arc<dyn Tracer>, metrics: MetricsRegistry) -> Self {
        TraceHandle {
            tracer,
            metrics,
            epoch: Instant::now(),
        }
    }

    /// Whether the sink is recording events. Hot loops may cache this.
    pub fn enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The metrics registry (live even when the sink is disabled).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Microseconds since this handle's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Flush the sink's buffered output.
    pub fn flush(&self) {
        self.tracer.flush();
    }

    /// Open a span. Disabled handles return an inert guard without reading
    /// the clock (unless the flight recorder is armed — then the span goes
    /// live so the recorder's ring sees it).
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_with(name, "")
    }

    /// Open a span with a detail string. The span is live when the handle's
    /// own sink is enabled *or* the flight [`recorder`] is armed; each sink
    /// only receives events while it is enabled.
    pub fn span_with(&self, name: &str, detail: &str) -> Span<'_> {
        let Some(traced) = self.listening() else {
            return Span { inner: None };
        };
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = current_span();
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        let event = self.event(EventKind::Enter, id, parent, name, detail, 0);
        self.emit(traced, event);
        Span {
            inner: Some(SpanInner {
                handle: self,
                id,
                parent,
                name: name.to_string(),
                start: Instant::now(),
                traced,
            }),
        }
    }

    /// Emit a counter event for `value` units of `name` *and* add it to the
    /// registry counter of the same name. No-op event-side when both the
    /// sink and the recorder are disabled.
    pub fn count(&self, name: &str, value: u64) {
        self.metrics.add(name, value);
        if let Some(traced) = self.listening() {
            let event = self.event(EventKind::Counter, 0, current_span(), name, "", value);
            self.emit(traced, event);
        }
    }

    /// Emit a point event (quarantine notices, checkpoint paths, …).
    pub fn mark(&self, name: &str, detail: &str) {
        if let Some(traced) = self.listening() {
            let event = self.event(EventKind::Mark, 0, current_span(), name, detail, 0);
            self.emit(traced, event);
        }
    }

    /// `Some(traced)` when an event would reach anyone — this handle's own
    /// sink (`traced`) or the armed flight recorder — and `None` when no
    /// one listens, so callers build nothing.
    fn listening(&self) -> Option<bool> {
        let traced = self.tracer.enabled();
        (traced || recorder::armed().is_some()).then_some(traced)
    }

    /// An event on the calling thread, stamped now.
    fn event(
        &self,
        kind: EventKind,
        span: u64,
        parent: u64,
        name: &str,
        detail: &str,
        value: u64,
    ) -> Event {
        Event {
            kind,
            span,
            parent,
            name: name.to_string(),
            detail: detail.to_string(),
            value,
            thread: thread_id(),
            t_us: self.now_us(),
        }
    }

    /// Deliver `event` to this handle's sink when `traced`, and to the
    /// flight recorder when it is armed. Every event a handle emits leaves
    /// through here.
    fn emit(&self, traced: bool, event: Event) {
        if traced {
            self.tracer.record(&event);
        }
        if let Some(r) = recorder::armed() {
            r.record(&event);
        }
    }
}

struct SpanInner<'h> {
    handle: &'h TraceHandle,
    id: u64,
    parent: u64,
    name: String,
    start: Instant,
    /// Whether the handle's own sink was enabled at `Enter`; the `Exit`
    /// honours the same decision so the sink never sees an exit without
    /// its enter. (The recorder is re-checked at exit instead — its dump
    /// path reconciles spans truncated by arming/disarming mid-span.)
    traced: bool,
}

/// An open span; emits the `Exit` event (with duration) when dropped, and
/// feeds the duration into the registry histogram named after the span.
#[must_use = "a span measures the scope it is bound to"]
pub struct Span<'h> {
    inner: Option<SpanInner<'h>>,
}

impl Span<'_> {
    /// The span id (0 when the handle is disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&inner.id) {
                s.pop();
            } else {
                // Out-of-order drop (spans held across each other): remove
                // this id wherever it sits so the stack cannot leak.
                s.retain(|&x| x != inner.id);
            }
        });
        let dur_us = inner.start.elapsed().as_micros() as u64;
        inner.handle.metrics.observe(&inner.name, dur_us);
        let h = inner.handle;
        let event = h.event(
            EventKind::Exit,
            inner.id,
            inner.parent,
            &inner.name,
            "",
            dur_us,
        );
        h.emit(inner.traced, event);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::recorder::{validate_dump, FlightRecorder, MAX_DUMPS};
    use super::*;
    use std::path::PathBuf;

    /// Held by the tests that arm the global flight recorder and by those
    /// that need it disarmed (it turns spans on disabled handles live).
    static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

    #[test]
    fn null_tracer_spans_are_inert() {
        let _global = lock(&GLOBAL_RECORDER);
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        let sp = h.span("anything");
        assert_eq!(sp.id(), 0);
        drop(sp);
        h.count("c", 3);
        // Counters still land in the registry with a disabled sink.
        assert_eq!(h.metrics().counter("c").get(), 3);
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        let ev = Event {
            kind: EventKind::Enter,
            span: 7,
            parent: 3,
            name: "fix.stage".into(),
            detail: "mode=lfp \"quoted\" \\slash\nline".into(),
            value: 0,
            thread: 2,
            t_us: 123456,
        };
        let line = ev.to_jsonl();
        assert_eq!(Event::parse_jsonl(&line).unwrap(), ev);
        assert!(Event::parse_jsonl("").is_none());
        assert!(Event::parse_jsonl("{\"v\":1}").is_none());
    }

    #[test]
    fn u64_fields_are_read_exactly() {
        // A telemetry row of the server: the fingerprint does not fit an f64.
        let row = r#"{"kind":"req","op":"eval_sentence","plan_fp":9371306455331559157,"tier":1}"#;
        assert_eq!(json_u64_field(row, "plan_fp"), Some(0x820d_9191_df5c_d6f5));
        assert_eq!(json_u64_field(row, "tier"), Some(1));
        assert_eq!(json_str_field(row, "op").as_deref(), Some("eval_sentence"));
        assert_eq!(json_u64_field(row, "op"), None);
        assert_eq!(json_u64_field(row, "missing"), None);
    }

    #[test]
    fn memory_tracer_aggregates_self_and_total_time() {
        let sink = Arc::new(MemoryTracer::new());
        let h = TraceHandle::new(sink.clone());
        {
            let _outer = h.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = h.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let s = sink.summary();
        assert_eq!(s.unbalanced, 0);
        let outer = s.rows.iter().find(|r| r.name == "outer").unwrap();
        let inner = s.rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert!(outer.total_us >= inner.total_us);
        assert!(outer.self_us <= outer.total_us - inner.total_us + 1);
        // Self times partition the root's total (within µs rounding).
        let self_sum: u64 = s.rows.iter().map(|r| r.self_us).sum();
        assert!(self_sum <= outer.total_us);
        assert!(self_sum + 2 >= outer.total_us, "{self_sum} vs {outer:?}");
    }

    #[test]
    fn aggregate_matches_after_jsonl_replay() {
        let sink = Arc::new(MemoryTracer::new());
        let h = TraceHandle::new(sink.clone());
        {
            let _sp = h.span_with("work", "detail");
            h.count("tuples", 5);
            h.count("tuples", 7);
            h.mark("quarantine", "site=lp.pivot");
        }
        let events = sink.events();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_jsonl()))
            .collect();
        let replayed: Vec<Event> = text.lines().filter_map(Event::parse_jsonl).collect();
        assert_eq!(replayed, events);
        let live = aggregate(&events);
        let replay = aggregate(&replayed);
        assert_eq!(live.counters, replay.counters);
        assert_eq!(live.counter("tuples"), 12);
        assert_eq!(live.marks.get("quarantine"), Some(&1));
        assert_eq!(live.rows.len(), replay.rows.len());
    }

    #[test]
    fn spans_nest_via_thread_stack() {
        let sink = Arc::new(MemoryTracer::new());
        let h = TraceHandle::new(sink.clone());
        let outer = h.span("outer");
        let outer_id = outer.id();
        assert_eq!(current_span(), outer_id);
        let inner = h.span("inner");
        drop(inner);
        drop(outer);
        let events = sink.events();
        let inner_enter = events
            .iter()
            .find(|e| e.kind == EventKind::Enter && e.name == "inner")
            .unwrap();
        assert_eq!(inner_enter.parent, outer_id);
        assert_eq!(current_span(), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let hist = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            hist.observe(v);
        }
        assert_eq!(hist.count(), 6);
        assert_eq!(hist.sum(), 1010);
        let b = hist.bucket_counts();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2, 3
        assert_eq!(b[3], 1); // 4
        assert_eq!(b[10], 1); // 1000 in [512, 1024)
        assert!(hist.quantile_upper_bound(50) >= 2);
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let hist = Histogram::default();
        hist.observe(u64::MAX); // top bucket, index 64 — in range
        hist.observe(u64::MAX); // sum saturates at u64::MAX
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.sum(), u64::MAX);
        assert_eq!(hist.bucket_counts()[64], 2);
        assert_eq!(hist.quantile_upper_bound(50), u64::MAX);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(3), 7);
    }

    #[test]
    fn histogram_merge_folds_buckets_counts_and_sum() {
        let a = Histogram::default();
        let b = Histogram::default();
        for v in [0u64, 1, 1000] {
            a.observe(v);
        }
        for v in [2u64, 3, u64::MAX] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), u64::MAX); // 1001 + MAX saturates
        assert_eq!(a.bucket_counts()[2], 2); // 2, 3 from b
        assert_eq!(a.bucket_counts()[64], 1);
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_labelled() {
        let m = MetricsRegistry::new();
        m.add("server.requests", 3);
        m.observe("server.latency_us", 5);
        m.observe("server.latency_us", 5);
        m.observe("server.latency_us", 900);
        let first = m.render_prometheus();
        assert_eq!(first, m.render_prometheus(), "same data, same text");
        assert!(first.contains("# TYPE lcdb_server_requests counter\nlcdb_server_requests 3\n"));
        assert!(first.contains("# TYPE lcdb_server_latency_us histogram"));
        // 5 → bucket 3 (le=7), 900 → bucket 10 (le=1023); cumulative.
        assert!(first.contains("lcdb_server_latency_us_bucket{le=\"7\"} 2\n"));
        assert!(first.contains("lcdb_server_latency_us_bucket{le=\"1023\"} 3\n"));
        assert!(first.contains("lcdb_server_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(first.contains("lcdb_server_latency_us_sum 910\n"));
        assert!(first.contains("lcdb_server_latency_us_count 3\n"));
        // Counters render before histograms, each block sorted by name.
        let c = first.find("lcdb_server_requests 3").unwrap();
        let h = first.find("lcdb_server_latency_us_count").unwrap();
        assert!(c < h);
    }

    #[test]
    fn registry_render_is_stable() {
        let m = MetricsRegistry::new();
        m.add("b.second", 2);
        m.add("a.first", 1);
        m.observe("lat.us", 100);
        let r = m.render();
        let a = r.find("a.first 1").unwrap();
        let b = r.find("b.second 2").unwrap();
        assert!(a < b, "counters render sorted by name:\n{r}");
        assert!(r.contains("lat.us count=1 sum=100"));
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = thread_id();
        assert!(here >= 1);
        assert_eq!(here, thread_id());
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(here, other);
    }

    // -- flight recorder ---------------------------------------------------

    fn counter_event(name: &str, value: u64) -> Event {
        Event {
            kind: EventKind::Counter,
            span: 0,
            parent: 0,
            name: name.to_string(),
            detail: String::new(),
            value,
            thread: thread_id(),
            t_us: 0,
        }
    }

    fn mark_event(name: &str, detail: &str) -> Event {
        Event {
            kind: EventKind::Mark,
            detail: detail.to_string(),
            ..counter_event(name, 0)
        }
    }

    fn span_pair(id: u64, name: &str) -> (Event, Event) {
        let enter = Event {
            kind: EventKind::Enter,
            span: id,
            parent: 0,
            name: name.to_string(),
            detail: String::new(),
            value: 0,
            thread: thread_id(),
            t_us: 0,
        };
        let mut exit = enter.clone();
        exit.kind = EventKind::Exit;
        exit.value = 5;
        (enter, exit)
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcdb-recorder-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let rec = FlightRecorder::new(8);
        rec.set_armed(true);
        for i in 0..20u64 {
            rec.record(&counter_event("tick", i));
        }
        let dump = rec.render_dump("test");
        let report = validate_dump(&dump).unwrap();
        assert_eq!(report.reason, "test");
        // Last 8 ticks survive; earlier ones were overwritten.
        assert!(dump.contains("\"value\":19"));
        assert!(dump.contains("\"value\":12"));
        assert!(!dump.contains("\"value\":11,"));
        // The dropped count is reported in the footer.
        let events: Vec<Event> = dump.lines().filter_map(Event::parse_jsonl).collect();
        let dropped = events
            .iter()
            .find(|e| e.name == "recorder.dropped")
            .unwrap();
        assert_eq!(dropped.value, 12);
    }

    #[test]
    fn disarmed_recorder_records_nothing() {
        let rec = FlightRecorder::new(8);
        rec.record(&counter_event("tick", 1));
        let dump = rec.render_dump("empty");
        let report = validate_dump(&dump).unwrap();
        // Header + 4 footer marks only.
        assert_eq!(report.events, 5);
    }

    #[test]
    fn dump_synthesizes_exits_for_dangling_enters() {
        let rec = FlightRecorder::new(32);
        rec.set_armed(true);
        let (enter, exit) = span_pair(9001, "closed.span");
        rec.record(&enter);
        rec.record(&exit);
        let (dangling, _) = span_pair(9002, "open.span");
        rec.record(&dangling);
        let dump = rec.render_dump("truncation");
        validate_dump(&dump).unwrap();
        assert!(dump.contains("truncated-by-dump"));
        // The merged span histogram saw the one completed span.
        let events: Vec<Event> = dump.lines().filter_map(Event::parse_jsonl).collect();
        let count = events
            .iter()
            .find(|e| e.name == "recorder.spans.count")
            .unwrap();
        assert_eq!(count.value, 1);
    }

    #[test]
    fn orphan_exits_are_dropped_not_fatal() {
        let rec = FlightRecorder::new(4);
        rec.set_armed(true);
        let (enter, exit) = span_pair(9100, "wide.span");
        rec.record(&enter);
        for i in 0..6u64 {
            rec.record(&counter_event("noise", i)); // overwrites the enter
        }
        rec.record(&exit); // its enter is gone from the ring
        validate_dump(&rec.render_dump("orphan")).unwrap();
    }

    #[test]
    fn trigger_mark_writes_a_dump_file() {
        let dir = scratch("trigger");
        let rec = FlightRecorder::new(16);
        rec.set_armed(true);
        rec.set_dump_dir(Some(dir.clone()));
        rec.record(&mark_event("quarantine", "site=unit"));
        assert_eq!(rec.dumps_written(), 1);
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(entries.len(), 1);
        let text = std::fs::read_to_string(entries[0].as_ref().unwrap().path()).unwrap();
        let report = validate_dump(&text).unwrap();
        assert_eq!(report.reason, "mark:quarantine site=unit");
        // Other marks record without dumping.
        rec.record(&mark_event("test.boom", ""));
        assert_eq!(rec.dumps_written(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_cap_suppresses_later_dumps() {
        let dir = scratch("cap");
        let rec = FlightRecorder::new(4);
        rec.set_armed(true);
        rec.set_dump_dir(Some(dir.clone()));
        for i in 0..(MAX_DUMPS + 3) {
            let wrote = rec.dump_now(&format!("r{i}")).is_some();
            assert_eq!(wrote, i < MAX_DUMPS, "dump {i}");
        }
        assert_eq!(rec.dumps_written(), MAX_DUMPS);
        assert_eq!(rec.dumps_suppressed(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_broken_dumps() {
        assert!(validate_dump("").is_err());
        assert!(validate_dump("not json\n").is_err());
        // Missing header mark.
        let ev = counter_event("x", 1).to_jsonl();
        assert!(validate_dump(&format!("{ev}\n")).is_err());
        // Non-monotone timestamps on one thread.
        let rec = FlightRecorder::new(8);
        let head = rec.render_dump("ok");
        let mut lines: Vec<String> = head.lines().map(String::from).collect();
        let mut early = counter_event("late", 1);
        early.t_us = 0;
        lines.push(early.to_jsonl()); // footer marks have t_us >= 0 … craft one going backwards
        let mut back = counter_event("later", 2);
        back.t_us = 0;
        let mut fwd = back.clone();
        fwd.t_us = 10;
        let crafted = format!(
            "{}\n{}\n{}\n",
            lines[0], // header
            fwd.to_jsonl(),
            back.to_jsonl()
        );
        assert!(validate_dump(&crafted).is_err(), "{crafted}");
        // Unbalanced span.
        let (enter, _) = span_pair(9900, "never.closed");
        let crafted = format!("{}\n{}\n", lines[0], enter.to_jsonl());
        assert!(validate_dump(&crafted).is_err());
    }

    #[test]
    fn global_recorder_sees_spans_from_disabled_handles() {
        let _global = lock(&GLOBAL_RECORDER);
        let rec = recorder::init();
        rec.set_armed(true);
        let handle = TraceHandle::disabled();
        assert!(!handle.enabled());
        {
            let span = handle.span_with("obs.test.span", "via-recorder");
            assert_ne!(span.id(), 0, "recorder arms the span");
            handle.count("obs.test.counter", 3);
        }
        let dump = rec.render_dump("global");
        rec.set_armed(false);
        validate_dump(&dump).unwrap();
        assert!(dump.contains("obs.test.span"));
        assert!(dump.contains("obs.test.counter"));
    }

    /// A ring lives as long as its thread: 64 threads that each record one
    /// event and exit leave only the test thread's ring behind.
    #[test]
    fn rings_belong_to_their_threads() {
        let rec = Arc::new(FlightRecorder::new(8));
        rec.set_armed(true);
        rec.record(&counter_event("main", 0));
        let workers: Vec<_> = (0..64u64)
            .map(|i| {
                let rec = Arc::clone(&rec);
                std::thread::spawn(move || rec.record(&counter_event("worker", i)))
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let report = validate_dump(&rec.render_dump("rings")).unwrap();
        assert_eq!(report.threads, 1, "rings of exited threads remain");
        // Header, the test thread's event, 4 footer marks.
        assert_eq!(report.events, 6);
    }

    /// Trigger marks recorded at once on N threads write N dumps: no dump
    /// in progress on one thread swallows another thread's trigger.
    #[test]
    fn concurrent_trigger_marks_each_dump() {
        const N: usize = 8;
        let dir = scratch("concurrent");
        let rec = Arc::new(FlightRecorder::new(16));
        rec.set_armed(true);
        rec.set_dump_dir(Some(dir.clone()));
        let barrier = Arc::new(std::sync::Barrier::new(N));
        let workers: Vec<_> = (0..N)
            .map(|i| {
                let (rec, barrier) = (Arc::clone(&rec), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    rec.record(&mark_event("quarantine", &format!("worker={i}")));
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(rec.dumps_written(), N as u64);
        let dumps: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(dumps.len(), N);
        for d in dumps {
            let text = std::fs::read_to_string(d.unwrap().path()).unwrap();
            assert!(validate_dump(&text)
                .unwrap()
                .reason
                .starts_with("mark:quarantine"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
