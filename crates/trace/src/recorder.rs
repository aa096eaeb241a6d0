//! The flight recorder: an always-on black box for the evaluation stack.
//!
//! A [`FlightRecorder`] keeps the most recent trace events — spans, marks,
//! counter deltas, in this crate's schema — in fixed-capacity *per-thread*
//! ring buffers. Every [`TraceHandle`](crate::TraceHandle) feeds the
//! process-global recorder ([`init`]) while it is armed, even a handle
//! whose own sink is the [`NullTracer`](crate::NullTracer), and the hot path
//! never contends: each thread appends to its own ring under its own
//! (uncontended) mutex, with no cross-thread synchronization beyond one
//! relaxed atomic probe. A ring belongs to its thread: the recorder holds
//! it weakly, so it is freed when the thread exits.
//!
//! When something goes wrong — a panic ([`init`] chains a panic hook), an
//! injected fault or quarantine (a `server.fault` or `quarantine` mark
//! dumps as it is recorded), a budget abort (the CLI dumps explicitly), or
//! a store kill-site (`lcdb_store::kill::point` dumps before exiting) — the
//! recorder writes a **dump**: a JSONL file in the trace schema, prefixed
//! by a `recorder.dump` mark carrying the reason. Dumps are post-processed
//! so they always validate: per thread, orphan exits (whose enters were
//! overwritten in the ring) are dropped and dangling enters get
//! synthesized `truncated-by-dump` exits, so every dump has balanced spans
//! and per-thread monotone timestamps — [`validate_dump`] checks exactly
//! this contract, and `trace_check --dump` gates it in CI.
//!
//! Dumps go to the directory named by the `LCDB_OBS_DIR` environment
//! variable (or set programmatically with [`FlightRecorder::set_dump_dir`]);
//! with no directory configured, dumping is a cheap no-op. At most
//! `MAX_DUMPS` (32) dumps are written per process; the rest are counted as
//! suppressed. Timestamps are **re-stamped** against the recorder's own
//! epoch at record time, so events gathered from handles with different
//! epochs still form one coherent per-thread timeline.

use crate::{aggregate, lock, thread_id, Event, EventKind, Histogram, TraceSummary};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Instant;

/// Per-thread ring capacity of the global recorder, in events.
const DEFAULT_CAPACITY: usize = 1024;

/// Maximum dumps one process writes; later requests are suppressed (and
/// counted), so a fault storm cannot fill a disk with black boxes.
pub(crate) const MAX_DUMPS: u64 = 32;

/// Environment variable naming the dump directory.
const DUMP_DIR_ENV: &str = "LCDB_OBS_DIR";

/// Name of the mark event heading every dump; its `detail` is the reason.
const DUMP_MARK: &str = "recorder.dump";

/// Mark names whose recording dumps the recorder (injected server faults
/// and evaluator quarantines). The mark itself is in the dump; the reason
/// is `mark:<name>` plus the mark's detail.
const TRIGGERS: [&str; 2] = ["server.fault", "quarantine"];

static NEXT_RECORDER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's rings, one per recorder it has recorded into, keyed by
    /// recorder id (so standalone recorders in tests do not share rings
    /// with the global one). These are the rings' only strong owners: they
    /// are dropped with the thread.
    static THREAD_RINGS: RefCell<Vec<(u64, Arc<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// One thread's slice of the recorder: a bounded ring of recent events
/// plus a histogram of span durations seen on this thread. Only the
/// owning thread appends, so the mutex is uncontended until a dump reads
/// it from the dumping thread.
struct ThreadRing {
    thread: u64,
    buf: Mutex<RingBuf>,
    spans: Histogram,
}

struct RingBuf {
    slots: Vec<Event>,
    /// Index of the oldest slot once the ring has wrapped.
    head: usize,
    /// Events overwritten since the ring filled.
    dropped: u64,
}

impl RingBuf {
    fn push(&mut self, event: Event, capacity: usize) {
        if self.slots.len() < capacity {
            self.slots.push(event);
        } else {
            self.slots[self.head] = event;
            self.head = (self.head + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// The retained events, oldest first.
    fn in_order(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.head..]);
        out.extend_from_slice(&self.slots[..self.head]);
        out
    }
}

/// The flight recorder. A process has one, created by [`init`]; every
/// trace handle feeds it while it is armed.
pub struct FlightRecorder {
    id: u64,
    capacity: usize,
    armed: AtomicBool,
    epoch: Instant,
    /// The rings of the threads that have recorded, held weakly: a ring
    /// whose thread has exited is gone, and its entry is pruned whenever a
    /// ring is registered or the rings are read.
    rings: Mutex<Vec<Weak<ThreadRing>>>,
    dump_dir: Mutex<Option<PathBuf>>,
    dumps_written: AtomicU64,
    dumps_suppressed: AtomicU64,
}

impl FlightRecorder {
    /// A recorder with `capacity` event slots per thread, initially
    /// disarmed.
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            id: NEXT_RECORDER_ID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity.max(2),
            armed: AtomicBool::new(false),
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            dump_dir: Mutex::new(None),
            dumps_written: AtomicU64::new(0),
            dumps_suppressed: AtomicU64::new(0),
        }
    }

    /// Arm or disarm recording. Disarmed, trace handles skip the recorder
    /// entirely (E27 measures exactly this off/on difference).
    pub fn set_armed(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Set (or clear) the dump directory, overriding `LCDB_OBS_DIR`.
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        *lock(&self.dump_dir) = dir;
    }

    /// Dumps written so far by this recorder.
    pub(crate) fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }

    /// Dump requests suppressed by the `MAX_DUMPS` cap.
    #[cfg(test)]
    pub(crate) fn dumps_suppressed(&self) -> u64 {
        self.dumps_suppressed.load(Ordering::Relaxed)
    }

    /// This thread's ring, creating and registering it on first use.
    fn ring(&self) -> Arc<ThreadRing> {
        THREAD_RINGS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, ring)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(ring);
            }
            let ring = Arc::new(ThreadRing {
                thread: thread_id(),
                buf: Mutex::new(RingBuf {
                    slots: Vec::with_capacity(self.capacity),
                    head: 0,
                    dropped: 0,
                }),
                spans: Histogram::default(),
            });
            let mut rings = lock(&self.rings);
            rings.retain(|r| r.strong_count() > 0);
            rings.push(Arc::downgrade(&ring));
            cache.push((self.id, Arc::clone(&ring)));
            ring
        })
    }

    /// The rings of the threads still alive, in thread-id order.
    fn live_rings(&self) -> Vec<Arc<ThreadRing>> {
        let mut rings = lock(&self.rings);
        rings.retain(|r| r.strong_count() > 0);
        let mut live: Vec<Arc<ThreadRing>> = rings.iter().filter_map(Weak::upgrade).collect();
        live.sort_by_key(|r| r.thread);
        live
    }

    /// Append `event` to the calling thread's ring, re-stamped against the
    /// recorder's epoch, and dump if it is a trigger mark. Recording
    /// nothing while disarmed.
    pub(crate) fn record(&self, event: &Event) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let ring = self.ring();
        let mut ev = event.clone();
        // Re-stamp against this recorder's epoch: the monotone per-thread
        // clock every dump relies on, regardless of which handle (and
        // which epoch) emitted the event.
        ev.t_us = self.epoch.elapsed().as_micros() as u64;
        if ev.kind == EventKind::Exit {
            ring.spans.observe(ev.value);
        }
        lock(&ring.buf).push(ev, self.capacity);
        // Writing a dump records no event, so a dump cannot re-trigger
        // itself, and trigger marks on two threads write two dumps.
        if event.kind == EventKind::Mark && TRIGGERS.contains(&event.name.as_str()) {
            let reason = if event.detail.is_empty() {
                format!("mark:{}", event.name)
            } else {
                format!("mark:{} {}", event.name, event.detail)
            };
            let _ = self.dump_now(&reason);
        }
    }

    /// Render the current rings as a dump: the `recorder.dump` header
    /// mark, then each live thread's retained events (oldest first,
    /// threads in id order) with orphan exits dropped and dangling enters
    /// closed by synthesized exits, then footer marks carrying the merged
    /// span histogram ([`Histogram::merge`] over the per-thread
    /// histograms) and the total overwritten-event count.
    pub(crate) fn render_dump(&self, reason: &str) -> String {
        let now_us = self.epoch.elapsed().as_micros() as u64;
        let dump_thread = thread_id();
        let mark = |name: &str, detail: &str, value: u64, t_us: u64| Event {
            kind: EventKind::Mark,
            span: 0,
            parent: 0,
            name: name.to_string(),
            detail: detail.to_string(),
            value,
            thread: dump_thread,
            t_us,
        };
        let mut out = mark(DUMP_MARK, reason, self.dumps_written(), 0).to_jsonl();
        out.push('\n');

        let merged = Histogram::default();
        let mut total_dropped = 0u64;
        for ring in self.live_rings() {
            merged.merge(&ring.spans);
            let (events, dropped) = {
                let buf = lock(&ring.buf);
                (buf.in_order(), buf.dropped)
            };
            total_dropped += dropped;
            for ev in sanitize_thread(ring.thread, events, now_us) {
                out.push_str(&ev.to_jsonl());
                out.push('\n');
            }
        }

        // Footer marks ride the dumping thread at `now_us`, which is ≥
        // every re-stamped event of that thread, so its timeline stays
        // monotone.
        for (name, value) in [
            ("recorder.spans.count", merged.count()),
            ("recorder.spans.p50_us", merged.quantile_upper_bound(50)),
            ("recorder.spans.p99_us", merged.quantile_upper_bound(99)),
            ("recorder.dropped", total_dropped),
        ] {
            out.push_str(&mark(name, "", value, now_us).to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Write a dump named `flight-<pid>-<seq>.jsonl` into the dump
    /// directory (the programmatic one, else `LCDB_OBS_DIR`; created if
    /// missing), and return its path. Returns `None` when no directory is
    /// configured, the `MAX_DUMPS` cap is reached, or the write fails —
    /// dumping is diagnostics and must never take down the process it is
    /// diagnosing.
    pub(crate) fn dump_now(&self, reason: &str) -> Option<PathBuf> {
        let dir = lock(&self.dump_dir)
            .clone()
            .or_else(|| std::env::var_os(DUMP_DIR_ENV).map(PathBuf::from))?;
        let seq = self.dumps_written.fetch_add(1, Ordering::Relaxed);
        if seq >= MAX_DUMPS {
            self.dumps_written.store(MAX_DUMPS, Ordering::Relaxed);
            self.dumps_suppressed.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("flight-{}-{:04}.jsonl", std::process::id(), seq));
        std::fs::write(&path, self.render_dump(reason)).ok()?;
        Some(path)
    }
}

/// Drop orphan exits and close dangling enters so one thread's retained
/// window has balanced spans; timestamps are already monotone because the
/// ring was appended in re-stamped order.
fn sanitize_thread(thread: u64, events: Vec<Event>, now_us: u64) -> Vec<Event> {
    let mut open: Vec<(u64, String, u64)> = Vec::new();
    let mut out = Vec::with_capacity(events.len());
    let mut last_t = 0u64;
    for ev in events {
        last_t = last_t.max(ev.t_us);
        match ev.kind {
            EventKind::Enter => {
                open.push((ev.span, ev.name.clone(), ev.parent));
                out.push(ev);
            }
            EventKind::Exit => {
                if let Some(at) = open.iter().rposition(|(id, _, _)| *id == ev.span) {
                    open.remove(at);
                    out.push(ev);
                }
                // else: the enter was overwritten in the ring — drop the
                // orphan exit rather than fail the balance check.
            }
            _ => out.push(ev),
        }
    }
    // Close still-open spans innermost-first, at a timestamp ≥ everything
    // retained for this thread.
    let t_us = last_t.max(now_us);
    for (span, name, parent) in open.into_iter().rev() {
        out.push(Event {
            kind: EventKind::Exit,
            span,
            parent,
            name,
            detail: "truncated-by-dump".to_string(),
            value: 0,
            thread,
            t_us,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// The process-global recorder
// ---------------------------------------------------------------------------

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// Create the process-global recorder (1 024 events per thread), arm it,
/// and chain a panic hook that dumps with reason `panic` before the
/// previous hook runs. Idempotent: later calls return the same recorder.
pub fn init() -> &'static FlightRecorder {
    GLOBAL.get_or_init(|| {
        let recorder = FlightRecorder::new(DEFAULT_CAPACITY);
        recorder.set_armed(true);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump_now("panic");
            previous(info);
        }));
        recorder
    })
}

/// The global recorder, only when [`init`] has run *and* it is armed. One
/// `OnceLock` read and one relaxed load, so trace handles stay
/// near-zero-cost without a recorder.
#[inline]
pub(crate) fn armed() -> Option<&'static FlightRecorder> {
    GLOBAL.get().filter(|r| r.armed.load(Ordering::Relaxed))
}

/// Dump the global recorder now (reason-tagged); `None` when [`init`] has
/// not run, no dump directory is configured, or the cap is reached.
pub fn dump_now(reason: &str) -> Option<PathBuf> {
    GLOBAL.get().and_then(|r| r.dump_now(reason))
}

// ---------------------------------------------------------------------------
// Trace and dump validation
// ---------------------------------------------------------------------------

/// Read a JSONL trace: every non-blank line must parse as a schema-v1 event
/// with a nonzero thread id. Returns the events and their [`aggregate`];
/// callers require `unbalanced == 0` (a plain trace and a dump word the
/// failure differently). `trace_check` and [`validate_dump`] both start
/// here.
pub fn read_trace(text: &str) -> Result<(Vec<Event>, TraceSummary), String> {
    let mut events: Vec<Event> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_jsonl(line)
            .ok_or_else(|| format!("line {}: unparseable event: {}", i + 1, line))?;
        if ev.thread == 0 {
            return Err(format!("line {}: missing thread id", i + 1));
        }
        events.push(ev);
    }
    let summary = aggregate(&events);
    Ok((events, summary))
}

/// What [`validate_dump`] learned about a well-formed dump.
#[derive(Clone, Debug)]
pub struct DumpReport {
    /// Total events in the dump (header and footer marks included).
    pub events: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// The dump reason from the `recorder.dump` header mark.
    pub reason: String,
}

/// Validate the flight-recorder dump schema: a trace [`read_trace`]
/// accepts whose first event is the `recorder.dump` header mark, with
/// timestamps monotone per thread and balanced spans (no enter without
/// exit, no exit without enter).
pub fn validate_dump(text: &str) -> Result<DumpReport, String> {
    let (events, summary) = read_trace(text)?;
    let Some(first) = events.first() else {
        return Err("empty dump".into());
    };
    if first.kind != EventKind::Mark || first.name != DUMP_MARK {
        return Err(format!(
            "dump does not start with the {DUMP_MARK} header mark"
        ));
    }
    let mut last_seen: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let last = last_seen.entry(ev.thread).or_insert(0);
        if ev.t_us < *last {
            return Err(format!(
                "event {}: thread {} timestamp {} goes backwards (last {})",
                i + 1,
                ev.thread,
                ev.t_us,
                last
            ));
        }
        *last = ev.t_us;
    }
    if summary.unbalanced != 0 {
        return Err(format!(
            "{} unbalanced span(s) — dumps must synthesize exits",
            summary.unbalanced
        ));
    }
    Ok(DumpReport {
        events: events.len(),
        threads: last_seen.len(),
        reason: first.detail.clone(),
    })
}
