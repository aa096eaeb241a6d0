//! One run of one workload: set up, measure for the given time, restart,
//! check, and report. The same driver serves all five workloads; what
//! differs is behind the [`Workload`] trait.

use crate::calib;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{fastest_per_item, mean, median, percentile, quartiles, sorted, spread};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the timed sections of a run measured. Every operation is counted
/// in `attempted`; one that errs, times out, is shed for good or answers
/// wrongly is also counted in `failed` — never skipped.
#[derive(Default)]
pub struct Outcome {
    pub wall_s: f64,
    pub batches_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub update_visible_ms: Vec<f64>,
    /// Cold workloads: the wall time of each item of a batch, from the end
    /// of the item before it, so that the items of a batch add up to it.
    pub items_ms: Vec<f64>,
    /// Calibration slices timed beside the work: one after every cold item,
    /// served visit or served cycle (see `calib`).
    pub cal_ms: Vec<f64>,
    /// `VmHWM` at a fixed amount of work, where memory grows with the work
    /// done and a time-bound run would otherwise report its own speed.
    pub rss_mark_mib: Option<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct operations inside the timed wall (the throughput numerator).
    pub timed_ok: u64,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Close an item of a batch: everything since `since` was its time.
    pub fn lap(&mut self, since: &mut Instant) {
        let now = Instant::now();
        self.items_ms.push((now - *since).as_secs_f64() * 1e3);
        self.cal_ms.push(calib::slice());
        *since = Instant::now();
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.batches_s.extend(other.batches_s);
        self.items_ms.extend(other.items_ms);
        self.cal_ms.extend(other.cal_ms);
        self.rss_mark_mib = self.rss_mark_mib.or(other.rss_mark_mib);
        self.latencies_ms.extend(other.latencies_ms);
        self.update_visible_ms.extend(other.update_visible_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.timed_ok += other.timed_ok;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

/// A workload: how to set it up, run it for a while, bring it back after a
/// restart, and measure its layers.
pub trait Workload: Sized {
    /// Does every batch hold the same items in the same order (the cold
    /// workloads), or does a round's content move along a schedule (the
    /// served ones)? It decides what the metrics are taken from (see
    /// [`Timed`]).
    const SAME_ITEMS: bool;

    /// Everything before the timed section: generate the inputs from the
    /// seed, start what has to run, warm it up. `scratch` is a directory
    /// inside the benchmark's own tree for anything that needs files.
    fn setup(seed: u64, scratch: &Path) -> Result<Self, String>;

    /// Run whole batches until `seconds` have passed (and at least
    /// `min_batches`), recording into `out`; spans go to `tr` when it is on.
    /// What `layers` needs from a section is kept only when `tr` is on.
    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome);

    /// Discard the engine state built so far and bring the workload back to
    /// its first answers; returns the seconds that took.
    fn restart(&mut self, out: &mut Outcome) -> f64;

    /// The per-layer metrics: probes of the layers this workload feeds, on
    /// its own inputs, and what the traced section `tr` observed. May add
    /// replay spans to `tr`.
    fn layers(&mut self, tr: &mut Tracer, traced: &Outcome, out: &mut Outcome, m: &mut Metrics);

    /// Shares of the traced time by layer, for the report.
    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)>;

    fn teardown(self);
}

/// Timed sections run at least this many batches, however slow the box.
pub const MIN_BATCHES: usize = 3;

/// How many times the set-up and the restart are repeated: the set-up for
/// its median, the restart for its fastest.
const SETUPS: usize = 3;
const RESTARTS: usize = 5;

/// A traced run alternates this many untraced and traced sections.
const TRACED_SECTIONS: usize = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The result of one run, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub samples: Vec<(&'static str, f64)>,
    pub failures: Vec<String>,
}

impl Report {
    /// The one-line JSON object the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, unit, value)| {
                            (
                                name.to_string(),
                                Json::obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::str(unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The benchmark's own directory (it reads and writes nowhere else).
pub fn home() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A memory field of `/proc/self/status` (`VmHWM:`, `VmRSS:`) in MiB.
pub fn rss_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let scratch = home()
        .join("tmp")
        .join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let report = if args.trace {
        run_traced::<W>(args, &scratch)
    } else {
        run_untraced::<W>(args, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    report
}

/// What the timed section of a run comes to.
///
/// The host this runs on slows its guests, in bursts and for minutes on end,
/// and never speeds one up. A cold workload repeats one batch of items, so
/// an item's time is the fastest of its repetitions, the batch is the sum of
/// its items at that time, throughput is the batch's correct answers over
/// that sum, and the latency percentiles are taken over the items. A round
/// of a served workload is as slow as its share of expensive requests, so
/// choosing rounds would choose content: every round counts, the batch time
/// is the median round and the percentiles are taken over every request.
/// (The README has the spreads each rule was chosen by.)
struct Timed {
    batch_s: f64,
    throughput_rps: f64,
    /// Ascending.
    lat_ms: Vec<f64>,
    /// Ascending.
    visible_ms: Vec<f64>,
    /// To the nominal box (see `calib`).
    scale: f64,
}

impl Timed {
    fn of(out: &Outcome, same_items: bool) -> Timed {
        if same_items {
            Timed::of_items(out)
        } else {
            Timed::of_rounds(out)
        }
    }

    fn of_items(out: &Outcome) -> Timed {
        let batches = out.batches_s.len();
        let per_item = |series: &[f64]| fastest_per_item(series, batches);
        let scale = calib::scale_of_fastest(&out.cal_ms);
        match (
            per_item(&out.items_ms),
            per_item(&out.latencies_ms),
            per_item(&out.update_visible_ms),
        ) {
            (Some(items), Some(lat), Some(visible)) => {
                let batch_s = items.iter().sum::<f64>() / 1e3;
                Timed {
                    batch_s,
                    throughput_rps: out.timed_ok as f64 / batches as f64 / batch_s,
                    lat_ms: sorted(lat),
                    visible_ms: sorted(visible),
                    scale,
                }
            }
            // A failure cut a batch short: the run is lost, report medians.
            _ => Timed {
                scale,
                ..Timed::of_rounds(out)
            },
        }
    }

    fn of_rounds(out: &Outcome) -> Timed {
        let walls = sorted(out.batches_s.clone());
        Timed {
            batch_s: if walls.is_empty() {
                0.0
            } else {
                median(&walls)
            },
            throughput_rps: out.timed_ok as f64 / out.wall_s,
            lat_ms: sorted(out.latencies_ms.clone()),
            visible_ms: sorted(out.update_visible_ms.clone()),
            scale: calib::scale_of_population(&out.cal_ms),
        }
    }
}

fn run_untraced<W: Workload>(args: &Args, scratch: &Path) -> Result<Report, String> {
    // Set up several times and report the median; the last one is used.
    let mut setups = Vec::new();
    let mut workload = None;
    for i in 0..SETUPS {
        if let Some(w) = workload.take() {
            W::teardown(w);
        }
        let t = Instant::now();
        workload = Some(W::setup(args.seed, &scratch.join(format!("setup{i}")))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    let mut out = Outcome::default();
    w.timed(args.seconds, MIN_BATCHES, &mut Tracer::off(), &mut out);
    let restarts: Vec<f64> = (0..RESTARTS).map(|_| w.restart(&mut out)).collect();
    w.teardown();

    let batches = sorted(out.batches_s.clone());
    let timed = Timed::of(&out, W::SAME_ITEMS);
    if timed.lat_ms.is_empty() || batches.is_empty() || timed.visible_ms.is_empty() {
        return Err(format!(
            "nothing measured ({} failures; first: {:?})",
            out.failed,
            out.failures.first()
        ));
    }
    // Every time is scaled to the nominal box by the slices of the timed
    // section; the set-ups before it and the restarts after it are too short
    // to hold enough slices of their own, and a slow spell lasts minutes.
    let scale = timed.scale;
    let value = |name: &str| match name {
        "setup_s" => median(&sorted(setups.clone())) * scale,
        "batch_s" => timed.batch_s * scale,
        "throughput_rps" => timed.throughput_rps / scale,
        "lat_p50_ms" => percentile(&timed.lat_ms, 50.0) * scale,
        "lat_p95_ms" => percentile(&timed.lat_ms, 95.0) * scale,
        "update_visible_p50_ms" => percentile(&timed.visible_ms, 50.0) * scale,
        "warm_restart_s" => sorted(restarts.clone())[0] * scale,
        "peak_rss_mb" => out.rss_mark_mib.unwrap_or_else(|| rss_mib("VmHWM:")),
        other => unreachable!("no rule for end-to-end metric {other}"),
    };
    let lat = sorted(out.latencies_ms.clone());
    Ok(Report {
        correct: out.failed == 0,
        attempted: out.attempted,
        failed: out.failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
        // As measured, before scaling.
        samples: vec![
            ("scale", scale),
            ("slices", out.cal_ms.len() as f64),
            ("batches", batches.len() as f64),
            ("batch_min_s", batches[0]),
            ("batch_median_s", median(&batches)),
            ("batch_q1_s", quartiles(&batches).0),
            ("batch_q3_s", quartiles(&batches).1),
            ("batch_spread", spread(&batches)),
            ("latency_samples", lat.len() as f64),
            ("lat_p99_ms", percentile(&lat, 99.0)),
            ("update_visible_samples", out.update_visible_ms.len() as f64),
            ("timed_wall_s", out.wall_s),
            ("timed_ok", out.timed_ok as f64),
            (
                "fail_ratio",
                out.failed as f64 / out.attempted.max(1) as f64,
            ),
        ],
        failures: out.failures,
    })
}

fn run_traced<W: Workload>(args: &Args, scratch: &Path) -> Result<Report, String> {
    let mut w = W::setup(args.seed, &scratch.join("setup"))?;
    // End-to-end numbers are always taken with tracing off; here untraced
    // sections only give the reference the traced ones are compared with.
    // The two alternate, so a drift of the box falls on both alike, and the
    // probes take the rest of the time.
    let section = args.seconds / (3.0 * TRACED_SECTIONS as f64);
    let mut reference = Outcome::default();
    let mut tr = Tracer::on(Instant::now());
    let mut traced = Outcome::default();
    for _ in 0..TRACED_SECTIONS {
        w.timed(section, 1, &mut Tracer::off(), &mut reference);
        w.timed(section, 1, &mut tr, &mut traced);
    }

    let mut out = Outcome::default();
    let mut m = Metrics::new();
    w.layers(&mut tr, &traced, &mut out, &mut m);
    w.teardown();

    let (plain, spanned) = (
        sorted(reference.batches_s.clone()),
        sorted(traced.batches_s.clone()),
    );
    if !plain.is_empty() && !spanned.is_empty() {
        m.insert(
            "trace.overhead_ratio",
            fastest(&traced, W::SAME_ITEMS) / fastest(&reference, W::SAME_ITEMS) - 1.0,
        );
    }
    let trees = tr.check_telescoping();
    let trace_path = home().join("results").join(format!(
        "trace-{}-{}-{}.jsonl",
        args.workload,
        crate::report::commit(),
        args.seed
    ));
    std::fs::create_dir_all(home().join("results")).map_err(|e| e.to_string())?;
    std::fs::write(&trace_path, tr.to_jsonl())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut samples: Vec<(&'static str, f64)> = vec![
        ("trace_trees", trees as f64),
        ("trace_spans", tr.spans().len() as f64),
        ("traced_batches", spanned.len() as f64),
        ("reference_batches", plain.len() as f64),
        ("traced_lat_mean_ms", mean(&traced.latencies_ms)),
    ];
    samples.extend(W::shares(&tr));
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for o in [reference, traced, out] {
        attempted += o.attempted;
        failed += o.failed;
        failures.extend(o.failures);
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|l| (l.name, l.unit, m.get(l.name).copied().unwrap_or(0.0)))
            .collect(),
        samples,
        failures,
    })
}

/// The time of a section's fastest batch. With a handful of batches a side,
/// the minimum is the estimate a busy box disturbs least; where every batch
/// repeats the same items, the fastest batch is put together item by item
/// (the sum over items of each item's fastest time), so that a burst on the
/// box has to hit the same item in every batch to show.
fn fastest(o: &Outcome, same_items: bool) -> f64 {
    same_items
        .then(|| fastest_per_item(&o.items_ms, o.batches_s.len()))
        .flatten()
        .map_or_else(
            || o.batches_s.iter().copied().fold(f64::INFINITY, f64::min),
            |items| items.iter().sum::<f64>() / 1e3,
        )
}

/// Run batches until the time is up. Returns the wall time.
pub fn batches_until(
    seconds: f64,
    min_batches: usize,
    mut batch: impl FnMut() -> f64,
) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_batches || start.elapsed().as_secs_f64() < seconds {
        times.push(batch());
    }
    (start.elapsed().as_secs_f64(), times)
}
