//! The two served workloads. Both are closed loops: two client threads in
//! this process, each sending its next request only after the previous
//! reply, against an in-process server on a loopback port with two dispatch
//! workers. (The bundled client never pipelines, so callers that wait for a
//! reply are the real traffic.) There are never more than two runnable
//! generator threads.

use crate::calib;
use crate::engine::{self, Conn, Counts, Db, Replayer, ServerHandle};
use crate::gen::{self, BaseMap, DbSpec, Op, Visit, SLOTS};
use crate::layers;
use crate::run::{ms, rss_mib, Metrics, Outcome, Workload};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CLIENTS: usize = 2;

/// The `Status` counters and the `server.latency_us` histogram totals.
#[derive(Clone, Default)]
struct ServerCounters {
    status: BTreeMap<String, f64>,
    exec_sum_us: f64,
    exec_count: f64,
}

impl ServerCounters {
    fn read(addr: &str) -> Result<ServerCounters, String> {
        let mut conn = Conn::connect(addr, 99)?;
        let status = conn.status()?;
        // The histogram exists once the first evaluation has completed.
        let (exec_sum_us, exec_count) = conn
            .histogram_sum_count("server.latency_us")
            .unwrap_or((0.0, 0.0));
        Ok(ServerCounters {
            status,
            exec_sum_us,
            exec_count,
        })
    }

    /// Growth of a counter since `earlier`.
    fn since(&self, earlier: &ServerCounters, name: &str) -> f64 {
        self.status.get(name).copied().unwrap_or(0.0)
            - earlier.status.get(name).copied().unwrap_or(0.0)
    }
}

/// What a client thread brings back from a timed section.
struct ClientRun<L> {
    out: Outcome,
    tr: Tracer,
    log: Vec<L>,
    connect_us: Vec<f64>,
    sheds: u64,
    elapsed_s: f64,
    next: u64,
}

impl<L> ClientRun<L> {
    /// A client's empty record, starting at `next`; it traces from `epoch`
    /// when given one.
    fn new(epoch: Option<Instant>, next: u64) -> Self {
        ClientRun {
            out: Outcome::default(),
            tr: epoch.map_or_else(Tracer::off, Tracer::on),
            log: Vec::new(),
            connect_us: Vec::new(),
            sheds: 0,
            elapsed_s: 0.0,
            next,
        }
    }
}

/// Run `client(c)` on `CLIENTS` threads and collect what they bring back.
fn on_clients<L: Send>(client: impl Fn(usize) -> ClientRun<L> + Sync) -> Vec<ClientRun<L>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn({
                    let client = &client;
                    move || client(c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Fold the clients' results into the run's outcome and tracer.
fn merge<L>(
    runs: Vec<ClientRun<L>>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<L>, Vec<f64>, u64, Vec<u64>) {
    let before = (out.attempted, out.failed);
    let mut log = Vec::new();
    let mut connect_us = Vec::new();
    let mut sheds = 0;
    let mut next = Vec::new();
    let mut wall: f64 = 0.0;
    for r in runs {
        wall = wall.max(r.elapsed_s);
        out.absorb(r.out);
        if tr.is_on() {
            tr.absorb(r.tr);
        }
        log.extend(r.log);
        connect_us.extend(r.connect_us);
        sheds += r.sheds;
        next.push(r.next);
    }
    out.wall_s += wall;
    out.timed_ok += (out.attempted - before.0) - (out.failed - before.1);
    (log, connect_us, sheds, next)
}

/// What the traced sections left behind for the layer metrics: growth of
/// the server's counters over them, and what the clients saw.
#[derive(Default)]
struct Observed {
    grown: BTreeMap<String, f64>,
    connect_us: Vec<f64>,
    sheds: u64,
}

impl Observed {
    fn add(
        &mut self,
        before: &ServerCounters,
        after: &ServerCounters,
        connect_us: Vec<f64>,
        sheds: u64,
    ) {
        for name in after.status.keys() {
            *self.grown.entry(name.clone()).or_insert(0.0) += after.since(before, name);
        }
        *self.grown.entry("exec_sum_us".into()).or_insert(0.0) +=
            after.exec_sum_us - before.exec_sum_us;
        *self.grown.entry("exec_count".into()).or_insert(0.0) +=
            after.exec_count - before.exec_count;
        self.connect_us.extend(connect_us);
        self.sheds += sheds;
    }
}

/// Server-side ratios and means every served workload reports the same way.
fn server_layers(m: &mut Metrics, out: &mut Outcome, addr: &str, obs: &Observed, traced: &Outcome) {
    let d = |name: &str| obs.grown.get(name).copied().unwrap_or(0.0);
    let lookups = d("cache_hits") + d("cache_misses");
    m.insert("server.cache_hit_ratio", d("cache_hits") / lookups.max(1.0));
    m.insert(
        "server.store_hit_ratio",
        d("store_hits") / d("cache_misses").max(1.0),
    );
    m.insert(
        "server.ext_incremental_ratio",
        d("ext_incremental") / (d("ext_incremental") + d("ext_rebuilds")).max(1.0),
    );
    m.insert(
        "server.shed_ratio",
        (d("shed") + obs.sheds as f64) / d("requests").max(1.0),
    );
    let exec_mean_us = d("exec_sum_us") / d("exec_count").max(1.0);
    m.insert("server.exec_mean_us", exec_mean_us);
    m.insert(
        "server.overhead_mean_us",
        mean(&traced.latencies_ms) * 1e3 - exec_mean_us,
    );
    if !traced.latencies_ms.is_empty() {
        m.insert(
            "server.lat_p99_ms",
            percentile(&sorted(traced.latencies_ms.clone()), 99.0),
        );
    }
    if !obs.connect_us.is_empty() {
        m.insert("server.connect_us", median(&sorted(obs.connect_us.clone())));
    }
    // Inline Status round trips: wire, framing and the session thread, with
    // no queue and no evaluation.
    let rtt = (|| -> Result<f64, String> {
        let mut conn = Conn::connect(addr, 98)?;
        let mut times = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            conn.status()?;
            times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&sorted(times)))
    })();
    if out.check(rtt.is_ok(), || format!("status round trips: {rtt:?}")) {
        m.insert("server.wire_rtt_us", rtt.unwrap_or(0.0));
    }
}

/// Mean per-request time the in-process replay accounts for, and with it
/// the share of the served latency the outside view cannot explain (queue
/// wait, socket, thread hand-off).
fn unattributed(m: &mut Metrics, tr: &Tracer, traced: &Outcome) {
    let replayed = tr.durations_us("replay.request");
    if replayed.is_empty() || traced.latencies_ms.is_empty() {
        return;
    }
    let served_us = mean(&traced.latencies_ms) * 1e3;
    m.insert(
        "server.unattributed_ratio",
        (served_us - mean(&replayed)) / served_us,
    );
}

fn scratch_dir(scratch: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = scratch.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

const DATABASES: usize = 48;
const CYCLE: usize = 240;
/// Visits of one client in one round (the served workloads' batch).
const ROUND: usize = 12;
/// Warm-up: a tenth of a cycle's visits — one to each of the most popular
/// databases, so its cost does not depend on where the seed starts the
/// schedule.
const WARMUP_VISITS: usize = CYCLE / 10;
/// Visits replayed after a restart: one to every database.
const REPLAYED_VISITS: usize = DATABASES;
/// Keys checked against the library after an untraced section.
const LIBRARY_CHECKS: usize = 48;
/// The allocator's high-water mark creeps up with every visit served, so
/// the peak at the end of a time-bound run says how fast the run was.
/// `peak_rss_mb` is read when the first client has finished this many timed
/// rounds (a little over one pass of the visit cycle, about a third of a quiet
/// run); a run that never gets there reports the peak at its end.
const MIX_RSS_MARK_ROUNDS: usize = 24;

/// One evaluation request as sent, with what came back.
#[derive(Clone)]
struct Sent {
    db: usize,
    slot: usize,
    body: String,
}

pub struct ServeMix {
    dbs: Vec<DbSpec>,
    cycle: Vec<Visit>,
    server: Option<ServerHandle>,
    /// Where each client is in the cycle.
    next: Vec<u64>,
    /// The evaluation requests of the last untraced section.
    log: Vec<Sent>,
    /// Those of every traced section, for the replay.
    traced_log: Vec<Sent>,
    observed: Observed,
}

fn eval_span(slot: &str) -> &'static str {
    match slot {
        "conn" | "two_components" => "eval.conn",
        "river_literal" | "river_ordered" => "eval.gis",
        _ => "eval.other",
    }
}

impl ServeMix {
    fn addr(&self) -> &str {
        &self.server.as_ref().expect("server is running").addr
    }

    /// One visit: connect, define the database, send its requests, leave.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &self,
        v: &Visit,
        id: u32,
        seed: u64,
        tr: &mut Tracer,
        out: &mut Outcome,
        log: &mut Vec<Sent>,
        connect_us: &mut Vec<f64>,
    ) -> u64 {
        let db = &self.dbs[v.db];
        tr.span("visit", id, |tr| {
            let t_connect = Instant::now();
            let mut conn = match Conn::connect(self.addr(), seed) {
                Ok(c) => c,
                Err(e) => {
                    // Every request of the visit is lost with the connection.
                    for _ in 0..db.defines.len() + v.slots.len() {
                        out.check(false, || format!("connect: {e}"));
                    }
                    return 0;
                }
            };
            let t_define = Instant::now();
            for (i, line) in db.defines.iter().enumerate() {
                let reply = tr.span("request.define", id, |_| conn.define(line));
                if i == 0 {
                    connect_us.push(t_connect.elapsed().as_secs_f64() * 1e6);
                }
                out.check(matches!(&reply, Ok(r) if r.ok), || {
                    format!("define on {}: {reply:?}", db.name)
                });
            }
            let mut visible = false;
            for &s in &v.slots {
                let slot = &SLOTS[s];
                let t = Instant::now();
                let reply = tr.span("request.eval", id, |_| {
                    conn.request(slot.op, slot.text(db.dim))
                });
                out.latencies_ms.push(ms(t));
                let correct = match &reply {
                    Ok(r) if r.ok => match slot.expected(db.dim, &db.facts) {
                        Some(expect) => r.body == expect.to_string(),
                        None => true,
                    },
                    _ => false,
                };
                out.check(correct, || {
                    format!("{} on {}: {reply:?}", slot.name, db.name)
                });
                if correct && !visible {
                    out.update_visible_ms.push(ms(t_define));
                    visible = true;
                }
                if let Ok(r) = reply {
                    log.push(Sent {
                        db: v.db,
                        slot: s,
                        body: r.body,
                    });
                }
            }
            conn.sheds()
        })
    }

    /// Both clients run rounds of visits until `stop` says so.
    fn drive(
        &mut self,
        tr: &mut Tracer,
        out: &mut Outcome,
        stop: impl Fn(usize, f64) -> bool + Sync,
    ) -> (Vec<f64>, u64) {
        let epoch = Instant::now();
        let traced = tr.is_on();
        let this = &*self;
        let runs = on_clients(|c| {
            let mut run = ClientRun::new(traced.then_some(epoch), this.next[c]);
            let start = Instant::now();
            let mut rounds = 0;
            while !stop(rounds, start.elapsed().as_secs_f64()) {
                let t = Instant::now();
                for _ in 0..ROUND {
                    let v = &this.cycle[(run.next % this.cycle.len() as u64) as usize];
                    let id = (run.next * CLIENTS as u64 + c as u64) as u32;
                    run.sheds += this.visit(
                        v,
                        id,
                        run.next,
                        &mut run.tr,
                        &mut run.out,
                        &mut run.log,
                        &mut run.connect_us,
                    );
                    run.out.cal_ms.push(calib::slice());
                    run.next += 1;
                }
                run.out.batches_s.push(t.elapsed().as_secs_f64());
                rounds += 1;
                if c == 0 && rounds == MIX_RSS_MARK_ROUNDS {
                    run.out.rss_mark_mib = Some(rss_mib("VmHWM:"));
                }
            }
            run.elapsed_s = start.elapsed().as_secs_f64();
            run
        });
        let (log, connect_us, sheds, next) = merge(runs, tr, out);
        self.next = next;
        if traced {
            self.traced_log.extend(log.iter().cloned());
        }
        self.log = log;
        (connect_us, sheds)
    }

    /// Visit databases `0, 1, …` (wrapping) once each, on one connection
    /// after the other, with eight consecutive query slots starting at the
    /// visit number: the same work for every seed. Used for the warm-up and
    /// for the replay after a restart.
    fn fixed_visits(&self, count: usize, out: &mut Outcome) -> Vec<Sent> {
        let mut log = Vec::new();
        for i in 0..count {
            let v = Visit {
                db: i % self.dbs.len(),
                slots: (0..gen::REQUESTS_PER_VISIT)
                    .map(|k| (i + k) % SLOTS.len())
                    .collect(),
            };
            self.visit(
                &v,
                i as u32,
                i as u64,
                &mut Tracer::off(),
                out,
                &mut log,
                &mut Vec::new(),
            );
        }
        log
    }

    /// Every reply to the same (database, query) must be the same text,
    /// whether it was computed, cached or replayed.
    fn check_consistent(&self, out: &mut Outcome) -> HashMap<(usize, usize), &str> {
        let mut first: HashMap<(usize, usize), &str> = HashMap::new();
        let mut differing = 0;
        for s in &self.log {
            let seen = first.entry((s.db, s.slot)).or_insert(&s.body);
            if *seen != s.body {
                differing += 1;
            }
        }
        out.check(differing == 0, || {
            format!("{differing} replies differ from an earlier reply to the same request")
        });
        first
    }

    /// Served answer = library answer: replay requests in-process along the
    /// public calls the server makes and compare the bodies. With the
    /// tracer on this also records where a request's time goes.
    fn replay(&self, tr: &mut Tracer, out: &mut Outcome, requests: &[Sent]) -> Counts {
        let mut replayer = Replayer::new();
        let mut dbs: HashMap<usize, (Db, u64)> = HashMap::new();
        for (i, s) in requests.iter().enumerate() {
            let spec = &self.dbs[s.db];
            let slot = &SLOTS[s.slot];
            if let std::collections::hash_map::Entry::Vacant(slot) = dbs.entry(s.db) {
                match engine::define_db(&spec.defines) {
                    Ok(db) => {
                        let fp = db.fingerprint();
                        slot.insert((db, fp));
                    }
                    Err(e) => {
                        out.check(false, || format!("library database {}: {e}", spec.name));
                    }
                }
            }
            let Some((db, fp)) = dbs.get(&s.db) else {
                continue;
            };
            let r = replayer.replay(
                tr,
                i as u32,
                db,
                *fp,
                slot.op,
                slot.text(spec.dim),
                eval_span(slot.name),
            );
            out.check(matches!(&r, Ok((body, _)) if *body == s.body), || {
                format!(
                    "{} on {}: served '{}', library {:?}",
                    slot.name,
                    spec.name,
                    s.body,
                    r.as_ref().map(|x| &x.0)
                )
            });
        }
        replayer.counts
    }
}

impl Workload for ServeMix {
    const SAME_ITEMS: bool = false;

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let dbs = gen::served_databases(seed, DATABASES);
        let cycle = gen::visit_cycle(seed, DATABASES, CYCLE);
        let half = cycle.len() as u64 / 2;
        let w = ServeMix {
            dbs,
            cycle,
            server: Some(engine::start_server(&[], None)?),
            // The second client starts half a cycle away from the first.
            next: vec![0, half],
            log: Vec::new(),
            traced_log: Vec::new(),
            observed: Observed::default(),
        };
        let mut out = Outcome::default();
        w.fixed_visits(WARMUP_VISITS, &mut out);
        if out.failed > 0 {
            return Err(format!(
                "serve_mix: warm-up had {} failures: {:?}",
                out.failed, out.failures
            ));
        }
        Ok(w)
    }

    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome) {
        let before = ServerCounters::read(self.addr());
        let (connect_us, sheds) = self.drive(tr, out, |rounds, elapsed| {
            rounds >= min_batches && elapsed >= seconds
        });
        let after = ServerCounters::read(self.addr());
        out.check(before.is_ok() && after.is_ok(), || {
            "server status unavailable".into()
        });
        if tr.is_on() {
            self.observed.add(
                &before.unwrap_or_default(),
                &after.unwrap_or_default(),
                connect_us,
                sheds,
            );
        }
        let first = self.check_consistent(out);
        if !tr.is_on() {
            // Open queries and plans have no verdict known by construction:
            // they go to the library first, then a spread of the rest.
            let mut keys: Vec<(usize, usize)> = first.keys().copied().collect();
            keys.sort_by_key(|&(db, slot)| {
                (
                    SLOTS[slot]
                        .expected(self.dbs[db].dim, &self.dbs[db].facts)
                        .is_some(),
                    db * 7 % 48,
                    slot,
                )
            });
            let sample: Vec<Sent> = keys
                .into_iter()
                .take(LIBRARY_CHECKS)
                .map(|(db, slot)| Sent {
                    db,
                    slot,
                    body: first[&(db, slot)].to_string(),
                })
                .collect();
            self.replay(&mut Tracer::off(), out, &sample);
        }
    }

    fn restart(&mut self, out: &mut Outcome) -> f64 {
        // Store off: nothing survives, so this is what a restart costs
        // without the catalog: a visit to every database, one connection
        // after the other.
        let expected = self
            .check_consistent(&mut Outcome::default())
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .collect::<HashMap<_, _>>();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let t = Instant::now();
        match engine::start_server(&[], None) {
            Ok(server) => self.server = Some(server),
            Err(e) => {
                out.check(false, || format!("restart: {e}"));
                return t.elapsed().as_secs_f64();
            }
        }
        let log = self.fixed_visits(REPLAYED_VISITS, out);
        let secs = t.elapsed().as_secs_f64();
        let changed = log
            .iter()
            .filter(|s| expected.get(&(s.db, s.slot)).is_some_and(|b| *b != s.body))
            .count();
        out.check(changed == 0, || {
            format!("{changed} answers changed across the restart")
        });
        secs
    }

    fn layers(&mut self, tr: &mut Tracer, traced: &Outcome, out: &mut Outcome, m: &mut Metrics) {
        server_layers(m, out, self.addr(), &self.observed, traced);
        let log = std::mem::take(&mut self.traced_log);
        let counts = self.replay(tr, out, &log);
        unattributed(m, tr, traced);
        layers::evaluator(m, tr, counts, 1);

        // The codec at the mix's median request, the cache on its key stream.
        let mut by_len: Vec<&Sent> = log.iter().collect();
        by_len.sort_by_key(|s| s.body.len() + SLOTS[s.slot].text(self.dbs[s.db].dim).len());
        let requests: Vec<(Op, String, String)> = by_len
            .iter()
            .map(|s| {
                (
                    SLOTS[s.slot].op,
                    SLOTS[s.slot].text(self.dbs[s.db].dim).to_string(),
                    s.body.clone(),
                )
            })
            .collect();
        let keys: Vec<(u64, u64)> = log.iter().map(|s| (s.slot as u64, s.db as u64)).collect();
        layers::server_micro(m, out, &requests, &keys);

        // The layers below the server, on the most popular databases.
        let dbs: Vec<Db> = self
            .dbs
            .iter()
            .take(8)
            .filter_map(|d| engine::define_db(&d.defines).ok())
            .collect();
        let db_refs: Vec<&Db> = dbs.iter().collect();
        if let (Some(d1), Some(d2)) = (
            self.dbs.iter().position(|d| d.dim == 1),
            self.dbs.iter().position(|d| d.dim == 2),
        ) {
            let texts: Vec<&str> = SLOTS
                .iter()
                .map(|s| s.text(1))
                .chain(SLOTS.iter().map(|s| s.text(2)))
                .collect();
            if let (Ok(db1), Ok(db2)) = (
                engine::define_db(&self.dbs[d1].defines),
                engine::define_db(&self.dbs[d2].defines),
            ) {
                layers::frontend(m, out, &texts, &db1);
                let formulas: Vec<engine::Fo> = ["exists_above", "forall_below", "chem1_in_s"]
                    .iter()
                    .filter_map(|name| SLOTS.iter().find(|s| s.name == *name))
                    .flat_map(|s| {
                        [
                            engine::expand(&db1, s.text(1)),
                            engine::expand(&db2, s.text(2)),
                        ]
                    })
                    .filter_map(Result::ok)
                    .collect();
                let defines: Vec<&str> = self
                    .dbs
                    .iter()
                    .take(8)
                    .flat_map(|d| d.defines.iter().map(String::as_str))
                    .collect();
                layers::logic(m, out, &formulas, &defines);
            }
        }
        layers::region(m, out, &db_refs);
        let exts: Vec<engine::Ext> = dbs
            .iter()
            .filter_map(|db| engine::extension(&mut Tracer::off(), 0, db, 1).ok())
            .collect();
        let arrs: Vec<engine::Arr> = exts.iter().filter_map(engine::Ext::arrangement).collect();
        let arr_refs: Vec<&engine::Arr> = arrs.iter().collect();
        layers::geom_probes(m, out, &arr_refs);
        let build_us: f64 = tr.durations_us("geom.build").iter().sum();
        let built = tr.durations_us("geom.build").len().max(1) as f64;
        m.insert(
            "geom.build_us_per_face",
            build_us
                / built
                / (arrs.iter().map(|a| a.faces() as f64).sum::<f64>() / arrs.len().max(1) as f64)
                    .max(1.0),
        );
        layers::lp_arith(m, out, &arr_refs, &[]);
    }

    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
        replay_shares(tr)
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Shares of the replayed request time by layer.
fn replay_shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
    let by = tr.self_by_name();
    let replay_total: f64 = tr.durations_us("replay.request").iter().sum::<f64>() * 1e3;
    let of = |prefixes: &[&str]| {
        by.iter()
            .filter(|(n, _)| prefixes.iter().any(|p| n.starts_with(p)))
            .map(|(_, ns)| *ns as f64)
            .sum::<f64>()
            / replay_total.max(1.0)
    };
    vec![
        ("share.replay.eval", of(&["eval."])),
        ("share.replay.geom", of(&["geom.", "region."])),
        ("share.replay.front", of(&["core.", "plan."])),
        ("share.replay.server", of(&["server.", "replay."])),
    ]
}

// ---------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------

/// Cycles of one client in one round.
const CHURN_ROUND: usize = 16;
const CHURN_WARMUP_ROUNDS: usize = 1;
const REPLAYED_CYCLES: u64 = 64;
/// Every `Define` adds to the store and to what the server holds of it in
/// memory (about 27 KiB a cycle), so the peak at the end of a time-bound run
/// says how fast the run was. `peak_rss_mb` is read when the first client
/// has finished this many timed rounds, which the slowest run seen on this
/// box passed before half its time; a run that never gets there reports the
/// peak at its end.
const CHURN_RSS_MARK_ROUNDS: usize = 12;

/// One churn cycle as served: the replies to its reads and to the base
/// reads beside them, in order.
#[derive(Clone)]
struct Cycled {
    index: u64,
    reads: Vec<String>,
    base_reads: Vec<String>,
}

pub struct ServeChurn {
    base: BaseMap,
    store_dir: PathBuf,
    probe_dir: PathBuf,
    server: Option<ServerHandle>,
    /// Cycle counter per client; client `c` runs cycles `2k + c`.
    next: Vec<u64>,
    /// The cycles of the last section, and of every traced section.
    log: Vec<Cycled>,
    traced_log: Vec<Cycled>,
    observed: Observed,
    /// Bytes of Define text and result bodies the server was handed.
    user_bytes: u64,
}

impl ServeChurn {
    fn addr(&self) -> &str {
        &self.server.as_ref().expect("server is running").addr
    }

    /// Does the reply to read `i` of a cycle agree with the plant?
    fn read_correct(cycle: &gen::ChurnCycle, i: usize, body: &str) -> bool {
        match i {
            0 | 1 => body == cycle.meets_s.to_string(),
            2 => {
                // The projection holds at the planted x, or nowhere.
                let r = if cycle.meets_s {
                    engine::answer_holds(body, &[("x", (cycle.planted.0, 2))])
                } else {
                    engine::answer_satisfiable(body).map(|sat| !sat)
                };
                r == Ok(true)
            }
            _ => body == "true",
        }
    }

    /// One cycle: define a new `P` on the churn connection, read it four
    /// times, and read every sentence about the unchanging base map on the
    /// other connection. Two thirds of a cycle's reads are therefore answers
    /// the churn must leave in the cache, the median read is one of them,
    /// and the one read in twelve that pays for the new arrangement holds
    /// the 95th percentile in its middle.
    #[allow(clippy::too_many_arguments)]
    fn cycle(
        &self,
        index: u64,
        churn: &mut Conn,
        reader: &mut Conn,
        tr: &mut Tracer,
        out: &mut Outcome,
        log: &mut Vec<Cycled>,
    ) -> u64 {
        let cycle = gen::churn_cycle(&self.base, index);
        let id = index as u32;
        tr.span("cycle", id, |tr| {
            let t_define = Instant::now();
            let reply = tr.span("request.define", id, |_| churn.define(&cycle.define));
            out.check(matches!(&reply, Ok(r) if r.ok), || {
                format!("define cycle {index}: {reply:?}")
            });
            let mut bytes = cycle.define.len() as u64;
            let mut reads = Vec::new();
            for (i, (text, op)) in gen::CHURN_READS.iter().enumerate() {
                let t = Instant::now();
                let reply = tr.span("request.eval", id, |_| churn.request(*op, text));
                out.latencies_ms.push(ms(t));
                let correct =
                    matches!(&reply, Ok(r) if r.ok && Self::read_correct(&cycle, i, &r.body));
                out.check(correct, || format!("cycle {index} read {i}: {reply:?}"));
                if i == 0 && correct {
                    out.update_visible_ms.push(ms(t_define));
                }
                let body = reply.map(|r| r.body).unwrap_or_default();
                bytes += body.len() as u64;
                reads.push(body);
            }
            let mut base_reads = Vec::new();
            for (i, text) in gen::BASE_READS.iter().enumerate() {
                let t = Instant::now();
                let reply = tr.span("request.eval", id, |_| reader.request(Op::Sentence, text));
                out.latencies_ms.push(ms(t));
                let expect = gen::base_read_expected(i, &self.base.facts).to_string();
                out.check(matches!(&reply, Ok(r) if r.ok && r.body == expect), || {
                    format!("base read {i}: {reply:?}, expected {expect}")
                });
                base_reads.push(reply.map(|r| r.body).unwrap_or_default());
            }
            log.push(Cycled {
                index,
                reads,
                base_reads,
            });
            bytes
        })
    }

    fn drive(
        &mut self,
        tr: &mut Tracer,
        out: &mut Outcome,
        stop: impl Fn(usize, f64) -> bool + Sync,
    ) -> (Vec<f64>, u64) {
        let epoch = Instant::now();
        let traced = tr.is_on();
        let this = &*self;
        let bytes = std::sync::atomic::AtomicU64::new(0);
        let runs = on_clients(|c| {
            let mut run = ClientRun::new(traced.then_some(epoch), this.next[c]);
            let t_connect = Instant::now();
            let (mut churn, mut reader) = match (
                Conn::connect(this.addr(), c as u64),
                Conn::connect(this.addr(), 50 + c as u64),
            ) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    run.out
                        .check(false, || format!("connect: {:?} {:?}", a.err(), b.err()));
                    return run;
                }
            };
            let start = Instant::now();
            let mut rounds = 0;
            while !stop(rounds, start.elapsed().as_secs_f64()) {
                let t = Instant::now();
                for _ in 0..CHURN_ROUND {
                    let index = run.next * CLIENTS as u64 + c as u64;
                    let b = this.cycle(
                        index,
                        &mut churn,
                        &mut reader,
                        &mut run.tr,
                        &mut run.out,
                        &mut run.log,
                    );
                    bytes.fetch_add(b, std::sync::atomic::Ordering::Relaxed);
                    if run.connect_us.is_empty() {
                        run.connect_us.push(t_connect.elapsed().as_secs_f64() * 1e6);
                    }
                    run.out.cal_ms.push(calib::slice());
                    run.next += 1;
                }
                run.out.batches_s.push(t.elapsed().as_secs_f64());
                rounds += 1;
                if c == 0 && rounds == CHURN_RSS_MARK_ROUNDS {
                    run.out.rss_mark_mib = Some(rss_mib("VmHWM:"));
                }
            }
            run.elapsed_s = start.elapsed().as_secs_f64();
            run.sheds = churn.sheds() + reader.sheds();
            run
        });
        let (mut log, connect_us, sheds, next) = merge(runs, tr, out);
        log.sort_by_key(|c| c.index);
        self.next = next;
        if traced {
            self.traced_log.extend(log.iter().cloned());
        }
        self.log = log;
        self.user_bytes += bytes.into_inner();
        (connect_us, sheds)
    }

    fn start(&self) -> Result<ServerHandle, String> {
        engine::start_server(&self.base.defines, Some(&self.store_dir))
    }
}

impl Workload for ServeChurn {
    const SAME_ITEMS: bool = false;

    fn setup(seed: u64, scratch: &Path) -> Result<Self, String> {
        let mut w = ServeChurn {
            base: gen::churn_base(seed),
            store_dir: scratch_dir(scratch, "store")?,
            probe_dir: scratch_dir(scratch, "probe")?,
            server: None,
            next: vec![0; CLIENTS],
            log: Vec::new(),
            traced_log: Vec::new(),
            observed: Observed::default(),
            user_bytes: 0,
        };
        w.server = Some(w.start()?);
        let mut out = Outcome::default();
        w.drive(&mut Tracer::off(), &mut out, |done, _| {
            done >= CHURN_WARMUP_ROUNDS
        });
        if out.failed > 0 {
            return Err(format!(
                "serve_churn: warm-up had {} failures: {:?}",
                out.failed, out.failures
            ));
        }
        Ok(w)
    }

    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome) {
        let before = ServerCounters::read(self.addr());
        let (connect_us, sheds) = self.drive(tr, out, |rounds, elapsed| {
            rounds >= min_batches && elapsed >= seconds
        });
        let after = ServerCounters::read(self.addr());
        out.check(before.is_ok() && after.is_ok(), || {
            "server status unavailable".into()
        });
        if tr.is_on() {
            self.observed.add(
                &before.unwrap_or_default(),
                &after.unwrap_or_default(),
                connect_us,
                sheds,
            );
        }
    }

    fn restart(&mut self, out: &mut Outcome) -> f64 {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let t = Instant::now();
        match self.start() {
            Ok(server) => self.server = Some(server),
            Err(e) => {
                out.check(false, || {
                    format!("restart on {}: {e}", self.store_dir.display())
                });
                return t.elapsed().as_secs_f64();
            }
        }
        // Re-issue the reads of the last cycles. Redefining `P` invalidates
        // what the catalog held for it, so those are computed again and must
        // come out the same; the base-map reads were never invalidated and
        // must come from the catalog (aux 2) or, after that, the cache.
        let tail: Vec<Cycled> = self
            .log
            .iter()
            .rev()
            .take(REPLAYED_CYCLES as usize)
            .rev()
            .cloned()
            .collect();
        let result = (|| -> Result<(usize, usize), String> {
            let mut churn = Conn::connect(self.addr(), 7)?;
            let mut reader = Conn::connect(self.addr(), 8)?;
            let (mut changed, mut recomputed_base) = (0, 0);
            for c in &tail {
                let cycle = gen::churn_cycle(&self.base, c.index);
                let reply = churn.define(&cycle.define)?;
                out.check(reply.ok, || format!("replayed define: {reply:?}"));
                for ((text, op), before) in gen::CHURN_READS.iter().zip(&c.reads) {
                    let reply = churn.request(*op, text)?;
                    out.check(reply.ok, || format!("replayed read: {reply:?}"));
                    changed += usize::from(reply.body != *before);
                }
                for (text, before) in gen::BASE_READS.iter().zip(&c.base_reads) {
                    let reply = reader.request(Op::Sentence, text)?;
                    out.check(reply.ok, || format!("replayed base read: {reply:?}"));
                    changed += usize::from(reply.body != *before);
                    recomputed_base += usize::from(reply.aux == 0);
                }
            }
            Ok((changed, recomputed_base))
        })();
        let secs = t.elapsed().as_secs_f64();
        out.check(matches!(result, Ok((0, _))), || {
            format!("answers after the restart differ from before: {result:?}")
        });
        out.check(matches!(result, Ok((_, 0))), || {
            format!("base-map reads were recomputed after a warm restart: {result:?}")
        });
        secs
    }

    fn layers(&mut self, tr: &mut Tracer, traced: &Outcome, out: &mut Outcome, m: &mut Metrics) {
        server_layers(m, out, self.addr(), &self.observed, traced);

        // Replay the traced cycles in-process: the same derive-or-rebuild,
        // evaluation and cache calls, with spans.
        let mut replayer = Replayer::new();
        let mut results = Vec::new();
        let base_db = engine::define_db(&self.base.defines);
        if let Ok(base_db) = &base_db {
            let mut item = 0u32;
            for c in &self.traced_log {
                let cycle = gen::churn_cycle(&self.base, c.index);
                let Ok(db) = base_db.with_define(&cycle.define) else {
                    continue;
                };
                let fp = db.fingerprint();
                for ((text, op), served) in gen::CHURN_READS.iter().zip(&c.reads) {
                    let r = replayer.replay(tr, item, &db, fp, *op, text, "eval.other");
                    out.check(matches!(&r, Ok((body, _)) if body == served), || {
                        format!(
                            "cycle {}: served '{served}', library {:?}",
                            c.index,
                            r.as_ref().map(|x| &x.0)
                        )
                    });
                    if let Ok(q) = engine::parse(text) {
                        results.push((q.fingerprint(), fp, served.clone()));
                    }
                    item += 1;
                }
                for (i, (text, served)) in gen::BASE_READS.iter().zip(&c.base_reads).enumerate() {
                    let r = replayer.replay(
                        tr,
                        item,
                        base_db,
                        base_db.fingerprint(),
                        Op::Sentence,
                        text,
                        "eval.conn",
                    );
                    out.check(matches!(&r, Ok((body, _)) if body == served), || {
                        format!("base read {i}: library {:?}", r.as_ref().map(|x| &x.0))
                    });
                    item += 1;
                }
            }
            m.insert("core.derive_us", mean(&tr.durations_us("region.derive")));
        }
        unattributed(m, tr, traced);
        layers::evaluator(m, tr, replayer.counts, 1);

        let requests: Vec<(Op, String, String)> = self
            .traced_log
            .iter()
            .take(64)
            .flat_map(|c| {
                gen::CHURN_READS
                    .iter()
                    .zip(&c.reads)
                    .map(|((text, op), body)| (*op, text.to_string(), body.clone()))
            })
            .collect();
        let keys: Vec<(u64, u64)> = self
            .traced_log
            .iter()
            .flat_map(|c| (0..4).map(|r| (r, c.index)))
            .collect();
        layers::server_micro(m, out, &requests, &keys);

        // What the server's own store holds, per byte it was handed.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        match engine::Catalog::open(&self.store_dir) {
            Ok(cat) => {
                let c = cat.counts();
                m.insert(
                    "store.bytes_per_user_byte",
                    (c.wal_bytes + c.pages_bytes) as f64 / self.user_bytes.max(1) as f64,
                );
            }
            Err(e) => {
                out.check(false, || format!("opening the served store: {e}"));
            }
        }

        if let Ok(base_db) = &base_db {
            let texts: Vec<&str> = gen::CHURN_READS
                .iter()
                .map(|r| r.0)
                .chain(gen::BASE_READS)
                .collect();
            layers::frontend(m, out, &texts, base_db);
            let changed: Vec<Db> = (0..4)
                .filter_map(|i| {
                    base_db
                        .with_define(&gen::churn_cycle(&self.base, i).define)
                        .ok()
                })
                .collect();
            layers::region(m, out, &changed.iter().collect::<Vec<_>>());
            let exts: Vec<engine::Ext> = changed
                .iter()
                .filter_map(|db| engine::extension(&mut Tracer::off(), 0, db, 1).ok())
                .collect();
            let arrs: Vec<engine::Arr> = exts.iter().filter_map(engine::Ext::arrangement).collect();
            let arr_refs: Vec<&engine::Arr> = arrs.iter().collect();
            layers::geom_probes(m, out, &arr_refs);
            let build: Vec<f64> = tr.durations_us("geom.build");
            if !build.is_empty() && !arrs.is_empty() {
                m.insert(
                    "geom.build_us_per_face",
                    mean(&build) / arrs[0].faces().max(1) as f64,
                );
            }
            layers::lp_arith(m, out, &arr_refs, &[]);
            let formulas: Vec<engine::Fo> = changed
                .iter()
                .flat_map(|db| {
                    [
                        engine::expand(db, gen::CHURN_READS[1].0),
                        engine::expand(db, gen::CHURN_READS[2].0),
                    ]
                })
                .filter_map(Result::ok)
                .collect();
            let defines: Vec<String> = (0..8)
                .map(|i| gen::churn_cycle(&self.base, i).define)
                .collect();
            layers::logic(
                m,
                out,
                &formulas,
                &defines.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            let snap = exts.first().and_then(|ext| {
                engine::parse(gen::BASE_READS[0])
                    .ok()
                    .and_then(|q| engine::snapshot(ext, &q).ok())
            });
            let pairs: Vec<(&Db, &engine::Ext)> = changed.iter().zip(&exts).collect();
            results.truncate(256);
            layers::store(m, out, &self.probe_dir, &results, &pairs, snap.as_ref());
        }
    }

    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
        replay_shares(tr)
    }

    fn teardown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.store_dir);
        let _ = std::fs::remove_dir_all(&self.probe_dir);
    }
}
