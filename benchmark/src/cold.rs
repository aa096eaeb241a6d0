//! The three cold workloads: library calls on one thread, no server and no
//! result cache. Each batch does the same generated work again from
//! scratch, so a batch is the unit that repeats.

use crate::engine::{self, Arr, Counts, Db, Ext};
use crate::gen::{self, AlibiPair, Edit, FixItem, FixKind, GeomBatch};
use crate::layers;
use crate::oracle::zaslavsky_census;
use crate::run::{batches_until, ms, Metrics, Outcome, Workload};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Time from a fresh process starting until it has answered one batch: the
/// cold workloads' restart. The child runs this program's set-up (generate,
/// one batch, check) and exits 0 only if every answer was correct.
fn restart_in_fresh_process(workload: &str, seed: u64, out: &mut Outcome) -> f64 {
    let t = Instant::now();
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["--setup-only", workload, "--seed", &seed.to_string()])
            .stdout(std::process::Stdio::null())
            .status()
    });
    let secs = t.elapsed().as_secs_f64();
    out.check(matches!(&status, Ok(s) if s.success()), || {
        format!("fresh-process batch of {workload}: {status:?}")
    });
    secs
}

/// Run the set-up's first batch; a wrong answer there is an error.
fn first_batch(name: &str, batch: impl FnOnce(&mut Tracer, &mut Outcome)) -> Result<(), String> {
    let mut out = Outcome::default();
    batch(&mut Tracer::off(), &mut out);
    if out.failed > 0 {
        return Err(format!(
            "{name}: first batch had {} failures: {:?}",
            out.failed, out.failures
        ));
    }
    Ok(())
}

fn timed_batches(
    seconds: f64,
    min_batches: usize,
    out: &mut Outcome,
    mut batch: impl FnMut(&mut Outcome),
) {
    let before = (out.attempted, out.failed);
    let (wall, times) = batches_until(seconds, min_batches, || {
        let t = Instant::now();
        batch(out);
        t.elapsed().as_secs_f64()
    });
    out.wall_s += wall;
    out.batches_s.extend(times);
    out.timed_ok += (out.attempted - before.0) - (out.failed - before.1);
}

// ---------------------------------------------------------------------
// geom_build
// ---------------------------------------------------------------------

pub struct GeomBuild {
    seed: u64,
    batch: GeomBatch,
}

/// The fan census of a convex `k`-gon under the Appendix-A decomposition:
/// `k` vertices; `k` edges plus the `k-3` fan diagonals; `k-2` triangles.
fn polygon_census(k: u64) -> Vec<u64> {
    vec![k, 2 * k - 3, k - 2]
}

impl GeomBuild {
    /// One batch; returns the arrangements it built (for the probes).
    fn batch(&self, tr: &mut Tracer, out: &mut Outcome) -> Vec<Arr> {
        let mut item = 0u32;
        let mut built = Vec::new();
        let mut since = Instant::now();
        for f in &self.batch.families {
            let t = Instant::now();
            let arr = tr.span("item.build", item, |tr| {
                engine::build_arrangement(tr, item, f)
            });
            out.latencies_ms.push(ms(t));
            let expect = zaslavsky_census(f.planes.len() as u64, f.d as u64);
            match arr {
                Ok(arr) => {
                    let census = arr.census();
                    out.check(census == expect, || {
                        format!(
                            "d={} n={}: census {census:?}, Zaslavsky {expect:?}",
                            f.d,
                            f.planes.len()
                        )
                    });
                    built.push(arr);
                }
                Err(e) => {
                    out.check(false, || {
                        format!("build d={} n={}: {e}", f.d, f.planes.len())
                    });
                }
            }
            out.lap(&mut since);
            item += 1;
        }
        for p in &self.batch.polygons {
            let t = Instant::now();
            let outside = (p.centre2.0 + 4000, p.centre2.1);
            let r = tr.span("item.nc1", item, |tr| {
                engine::nc1_decompose(tr, item, &p.define(), p.centre2, outside)
            });
            out.latencies_ms.push(ms(t));
            let expect = (polygon_census(p.k as u64), true, false);
            out.check(r.as_ref() == Ok(&expect), || {
                format!("nc1 of the {}-gon: {r:?}, expected {expect:?}", p.k)
            });
            out.lap(&mut since);
            item += 1;
        }
        // An edit is this workload's update: the time from handing the
        // engine a changed hyperplane set to having the arrangement back.
        if let Some(base) = built.get(self.batch.edit_base) {
            let family = &self.batch.families[self.batch.edit_base];
            let (d, n) = (family.d as u64, family.planes.len() as u64);
            for e in &self.batch.edits {
                let t = Instant::now();
                let (edited, expect) = tr.span("item.edit", item, |tr| match e {
                    Edit::Insert(row) => (base.insert(tr, item, row), zaslavsky_census(n + 1, d)),
                    Edit::Remove(i) => (base.remove(tr, item, *i), zaslavsky_census(n - 1, d)),
                });
                let took = ms(t);
                out.latencies_ms.push(took);
                out.update_visible_ms.push(took);
                let census = edited.map(|a| a.census());
                out.check(census.as_ref() == Ok(&expect), || {
                    format!("{e:?}: census {census:?}, Zaslavsky {expect:?}")
                });
                out.lap(&mut since);
                item += 1;
            }
        }
        built
    }
}

impl Workload for GeomBuild {
    const SAME_ITEMS: bool = true;

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let w = GeomBuild {
            seed,
            batch: gen::geom_batch(seed),
        };
        first_batch("geom_build", |tr, out| {
            w.batch(tr, out);
        })?;
        Ok(w)
    }

    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome) {
        timed_batches(seconds, min_batches, out, |out| {
            self.batch(tr, out);
        });
    }

    fn restart(&mut self, out: &mut Outcome) -> f64 {
        restart_in_fresh_process("geom_build", self.seed, out)
    }

    fn layers(&mut self, tr: &mut Tracer, _traced: &Outcome, out: &mut Outcome, m: &mut Metrics) {
        let built = self.batch(&mut Tracer::off(), out);
        let arrs: Vec<&Arr> = built.iter().collect();
        let families: Vec<&gen::Family> = self.batch.families.iter().collect();
        layers::geom_probes(m, out, &arrs);
        // Build, edit and NC¹ times come from the traced batches themselves.
        let faces: f64 = arrs.iter().map(|a| a.faces() as f64).sum();
        let per_batch = |name: &str| {
            let all = tr.durations_us(name);
            (all.iter().sum::<f64>(), all.len())
        };
        let batches = (tr.durations_us("geom.build").len() / families.len().max(1)).max(1) as f64;
        m.insert(
            "geom.build_us_per_face",
            per_batch("geom.build").0 / batches / faces.max(1.0),
        );
        for (metric, span) in [
            ("geom.insert_us", "geom.insert"),
            ("geom.remove_us", "geom.remove"),
            ("geom.nc1_us", "geom.nc1"),
        ] {
            let (sum, n) = per_batch(span);
            m.insert(metric, sum / n.max(1) as f64);
        }
        layers::lp_arith(m, out, &arrs, &families);
        // The arrangement blob codec on this workload's own 2-D families.
        let dbs: Vec<Db> = self
            .batch
            .polygons
            .iter()
            .take(1)
            .filter_map(|p| engine::define_db(&[p.define()]).ok())
            .collect();
        layers::region(m, out, &dbs.iter().collect::<Vec<_>>());
    }

    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("share.geom", tr.share(&["geom."])),
            ("share.eval", tr.share(&["eval."])),
            ("share.item", tr.share(&["item."])),
        ]
    }

    fn teardown(self) {}
}

// ---------------------------------------------------------------------
// fixpoint_batch
// ---------------------------------------------------------------------

pub struct FixpointBatch {
    seed: u64,
    items: Vec<FixItem>,
    /// Evaluator counters of the traced batches.
    counts: Counts,
}

impl FixpointBatch {
    fn batch(&mut self, tr: &mut Tracer, out: &mut Outcome, threads: usize) {
        let traced = tr.is_on();
        let mut since = Instant::now();
        for (i, it) in self.items.iter().enumerate() {
            let item = i as u32;
            let t = Instant::now();
            let mut eval_ms = 0.0;
            let verdict: Result<(bool, Option<bool>, Counts), String> =
                tr.span("item", item, |tr| {
                    let db = engine::define_db(&it.db.defines)?;
                    let ext = match it.kind {
                        FixKind::TcConn => engine::extension_nc1(tr, item, &db)?,
                        _ => engine::extension(tr, item, &db, threads)?,
                    };
                    let t_eval = Instant::now();
                    let r = match &it.kind {
                        FixKind::Capture(machine) => {
                            engine::capture(tr, item, &ext, *machine, threads)
                                .map(|(direct, logical, c)| (logical, Some(direct), c))
                        }
                        kind => {
                            let (span, query) = match kind {
                                FixKind::Conn => ("eval.conn", engine::parse(gen::CONN)?),
                                FixKind::TwoComponents => {
                                    ("eval.conn", engine::parse(gen::TWO_COMPONENTS)?)
                                }
                                FixKind::RiverLiteral => {
                                    ("eval.gis", engine::parse(gen::RIVER_LITERAL)?)
                                }
                                FixKind::RiverOrdered => {
                                    ("eval.gis", engine::parse(gen::RIVER_ORDERED)?)
                                }
                                _ => ("eval.tc", engine::tc_connectivity()),
                            };
                            engine::eval_sentence(tr, span, item, &ext, &query, threads)
                                .map(|(v, c)| (v, None, c))
                        }
                    };
                    eval_ms = ms(t_eval);
                    r
                });
            out.latencies_ms.push(eval_ms);
            out.update_visible_ms.push(ms(t));
            match verdict {
                Ok((got, direct, counts)) => {
                    if traced {
                        self.counts.add(counts);
                    }
                    // Capture items are checked against the direct machine
                    // run, everything else against the construction.
                    let expect = direct.or(it.expected());
                    out.check(Some(got) == expect, || {
                        format!(
                            "{:?} on {}: got {got}, expected {expect:?}",
                            it.kind, it.db.name
                        )
                    });
                }
                Err(e) => {
                    out.check(false, || format!("{:?} on {}: {e}", it.kind, it.db.name));
                }
            }
            out.lap(&mut since);
        }
    }
}

impl Workload for FixpointBatch {
    const SAME_ITEMS: bool = true;

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let mut w = FixpointBatch {
            seed,
            items: gen::fixpoint_items(seed),
            counts: Counts::default(),
        };
        first_batch("fixpoint_batch", |tr, out| w.batch(tr, out, 1))?;
        Ok(w)
    }

    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome) {
        timed_batches(seconds, min_batches, out, |out| self.batch(tr, out, 1));
    }

    fn restart(&mut self, out: &mut Outcome) -> f64 {
        restart_in_fresh_process("fixpoint_batch", self.seed, out)
    }

    fn layers(&mut self, tr: &mut Tracer, traced: &Outcome, out: &mut Outcome, m: &mut Metrics) {
        layers::evaluator(m, tr, self.counts, traced.batches_s.len());

        let dbs: Vec<Db> = self
            .items
            .iter()
            .filter_map(|it| engine::define_db(&it.db.defines).ok())
            .collect();
        let db_refs: Vec<&Db> = dbs.iter().collect();
        layers::frontend(
            m,
            out,
            &[
                gen::CONN,
                gen::TWO_COMPONENTS,
                gen::RIVER_LITERAL,
                gen::RIVER_ORDERED,
            ],
            &dbs[0],
        );
        layers::region(m, out, &db_refs[3..7]);
        let captures: Vec<(Ext, gen::Machine)> = self
            .items
            .iter()
            .zip(&dbs)
            .filter_map(|(it, db)| match it.kind {
                FixKind::Capture(machine) => engine::extension(&mut Tracer::off(), 0, db, 1)
                    .ok()
                    .map(|e| (e, machine)),
                _ => None,
            })
            .collect();
        layers::machines(
            m,
            out,
            &captures
                .iter()
                .map(|(e, mach)| (e, *mach))
                .collect::<Vec<_>>(),
        );
        // One batch on a two-thread pool against one on a single thread.
        let mut time_batch = |threads: usize, out: &mut Outcome| {
            let t = Instant::now();
            self.batch(&mut Tracer::off(), out, threads);
            t.elapsed().as_secs_f64()
        };
        let serial = time_batch(1, out);
        let parallel = time_batch(2, out);
        m.insert("exec.par2_speedup", serial / parallel);
    }

    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
        vec![
            ("share.eval", tr.share(&["eval."])),
            ("share.geom", tr.share(&["geom.", "region."])),
            ("share.item", tr.share(&["item"])),
        ]
    }

    fn teardown(self) {}
}

// ---------------------------------------------------------------------
// qe_alibi
// ---------------------------------------------------------------------

pub struct QeAlibi {
    seed: u64,
    pairs: Vec<AlibiPair>,
    counts: Counts,
}

impl QeAlibi {
    fn batch(&mut self, tr: &mut Tracer, out: &mut Outcome) {
        let mut item = 0u32;
        // Counters are kept for the traced batches only.
        let mut counted = Counts::default();
        let mut since = Instant::now();
        for pair in &self.pairs {
            // The plant is only worth something if it really lies in both
            // objects: substitute it, in integers, before asking the engine.
            let planted_ok = pair.planted.is_none_or(|p| {
                gen::in_prisms(&pair.prisms_a, p) && gen::in_prisms(&pair.prisms_b, p)
            });
            out.check(planted_ok, || "planted point is not in both objects".into());
            let t = Instant::now();
            let built = tr.span("item.database", item, |tr| {
                let db = engine::define_db(&pair.defines)?;
                engine::extension(tr, item, &db, 1)
            });
            let ext = match built {
                Ok(ext) => ext,
                Err(e) => {
                    out.check(false, || format!("alibi database: {e}"));
                    continue;
                }
            };
            let mut first_answer = true;
            let mut record = |out: &mut Outcome, t_eval: Instant| {
                out.latencies_ms.push(ms(t_eval));
                if first_answer {
                    out.update_visible_ms.push(ms(t));
                    first_answer = false;
                }
            };

            let t_eval = Instant::now();
            let met = engine::parse(gen::ALIBI_SENTENCE)
                .and_then(|q| engine::eval_sentence(tr, "eval.alibi", item, &ext, &q, 1));
            record(out, t_eval);
            let expect = pair.planted.is_some();
            match met {
                Ok((got, c)) => {
                    counted.add(c);
                    out.check(got == expect, || {
                        format!("alibi n={}: could meet = {got}, planted = {expect}", pair.n)
                    });
                }
                Err(e) => {
                    out.check(false, || format!("alibi sentence: {e}"));
                }
            }
            out.lap(&mut since);
            item += 1;

            let t_eval = Instant::now();
            let when = engine::parse(gen::ALIBI_WHEN)
                .and_then(|q| engine::eval_query(tr, "eval.alibi_when", item, &ext, &q));
            record(out, t_eval);
            let ok = when.and_then(|(answer, c)| {
                counted.add(c);
                match pair.planted {
                    Some((t, _, _)) => engine::answer_holds(&answer, &[("t", (t, 1))]),
                    None => engine::answer_satisfiable(&answer).map(|sat| !sat),
                }
            });
            out.check(ok == Ok(true), || {
                format!("alibi n={} when-query: {ok:?}", pair.n)
            });
            out.lap(&mut since);
            item += 1;

            let t_eval = Instant::now();
            let fits = engine::parse(&pair.box_sentence)
                .and_then(|q| engine::eval_sentence(tr, "eval.alibi_box", item, &ext, &q, 1));
            record(out, t_eval);
            match fits {
                Ok((got, c)) => {
                    counted.add(c);
                    out.check(got == pair.box_holds, || {
                        format!(
                            "alibi n={} box: got {got}, expected {}",
                            pair.n, pair.box_holds
                        )
                    });
                }
                Err(e) => {
                    out.check(false, || format!("alibi box sentence: {e}"));
                }
            }
            out.lap(&mut since);
            item += 1;
        }
        if tr.is_on() {
            self.counts.add(counted);
        }
    }
}

impl Workload for QeAlibi {
    const SAME_ITEMS: bool = true;

    fn setup(seed: u64, _scratch: &Path) -> Result<Self, String> {
        let mut w = QeAlibi {
            seed,
            pairs: gen::alibi_batch(seed),
            counts: Counts::default(),
        };
        first_batch("qe_alibi", |tr, out| w.batch(tr, out))?;
        Ok(w)
    }

    fn timed(&mut self, seconds: f64, min_batches: usize, tr: &mut Tracer, out: &mut Outcome) {
        timed_batches(seconds, min_batches, out, |out| self.batch(tr, out));
    }

    fn restart(&mut self, out: &mut Outcome) -> f64 {
        restart_in_fresh_process("qe_alibi", self.seed, out)
    }

    fn layers(&mut self, tr: &mut Tracer, traced: &Outcome, out: &mut Outcome, m: &mut Metrics) {
        layers::evaluator(m, tr, self.counts, traced.batches_s.len());
        // Replay one batch's eliminations along the public logic calls the
        // evaluator makes, under spans of their own: the share of a batch
        // that is quantifier elimination, seen from outside.
        let mut formulas = Vec::new();
        let mut item = 10_000u32;
        for pair in &self.pairs {
            let Ok(db) = engine::define_db(&pair.defines) else {
                continue;
            };
            for (text, expect) in [
                (gen::ALIBI_SENTENCE, Some(pair.planted.is_some())),
                (gen::ALIBI_WHEN, None),
                (pair.box_sentence.as_str(), Some(pair.box_holds)),
            ] {
                let Ok(fo) = engine::expand(&db, text) else {
                    continue;
                };
                let qe = tr.span("replay.qe", item, |tr| fo.eliminate(tr, item));
                match expect {
                    Some(expect) => {
                        let got = qe.answer.decide();
                        out.check(got == expect, || {
                            format!("direct elimination of '{text}': {got}, expected {expect}")
                        });
                    }
                    None => {
                        let sat = qe.answer.satisfiable();
                        out.check(sat == pair.planted.is_some(), || {
                            format!("direct when-answer satisfiable = {sat}")
                        });
                    }
                }
                formulas.push(fo);
                item += 1;
            }
        }
        let defines: Vec<&str> = self
            .pairs
            .iter()
            .flat_map(|p| p.defines.iter().map(String::as_str))
            .collect();
        layers::logic(m, out, &formulas, &defines);
        let first = engine::define_db(&self.pairs[0].defines);
        if let Ok(db) = &first {
            let boxes: Vec<&str> = self.pairs.iter().map(|p| p.box_sentence.as_str()).collect();
            let mut texts = vec![gen::ALIBI_SENTENCE, gen::ALIBI_WHEN];
            texts.extend(boxes.iter().take(2));
            layers::frontend(m, out, &texts, db);
        }
    }

    fn shares(tr: &Tracer) -> Vec<(&'static str, f64)> {
        // The replayed eliminations of one batch against the evaluator's
        // time for one batch.
        let batches = tr
            .spans()
            .iter()
            .filter(|s| s.name == "eval.alibi" && s.item == 0)
            .count()
            .max(1) as f64;
        let eval_ns: f64 = tr
            .self_by_name()
            .iter()
            .filter(|(n, _)| n.starts_with("eval."))
            .map(|(_, ns)| *ns as f64)
            .sum();
        let qe_ns = tr.self_by_name().get("qe.eliminate").copied().unwrap_or(0) as f64;
        let traced_ns: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none() && !s.name.starts_with("replay."))
            .map(|s| s.dur_ns() as f64)
            .sum();
        vec![
            ("share.eval", eval_ns / traced_ns.max(1.0)),
            ("share.qe_of_eval", qe_ns / (eval_ns / batches).max(1.0)),
            ("share.qe", qe_ns / (traced_ns / batches).max(1.0)),
            ("share.geom", tr.share(&["geom.", "region."])),
        ]
    }

    fn teardown(self) {}
}
