//! Probes of single layers: each times public functions of one layer on
//! inputs taken from the workload that is running, from outside the engine.
//! A workload calls the groups whose layers it feeds; every other layer
//! metric reads 0 on that workload, which is itself a statement ("this
//! workload gives that layer nothing to do").

use crate::engine::{self, Arr, CacheProbe, Catalog, Counts, Db, Ext, Fo, Numbers};
use crate::gen::{Family, Machine, Op};
use crate::run::{Metrics, Outcome};
use crate::stats::{mean, median, sorted};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

/// Median time of one call, in microseconds, over `reps` calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&sorted(times))
}

/// Mean time per operation in nanoseconds: `pass` does one pass and returns
/// how many operations it did; the median pass is reported.
fn ns_per_op(passes: usize, mut pass: impl FnMut() -> usize) -> f64 {
    let per_op: Vec<f64> = (0..passes)
        .filter_map(|_| {
            let t = Instant::now();
            let ops = pass();
            (ops > 0).then(|| t.elapsed().as_secs_f64() * 1e9 / ops as f64)
        })
        .collect();
    if per_op.is_empty() {
        0.0
    } else {
        median(&sorted(per_op))
    }
}

fn mean_us_of(tr: &Tracer, names: &[&str]) -> f64 {
    let all: Vec<f64> = names.iter().flat_map(|n| tr.durations_us(n)).collect();
    mean(&all)
}

/// server: the wire codec and the result cache, driven directly with the
/// requests and the key stream the workload sent.
pub fn server_micro(
    m: &mut Metrics,
    out: &mut Outcome,
    requests: &[(Op, String, String)],
    keys: &[(u64, u64)],
) {
    if let Some((op, text, body)) = requests.get(requests.len() / 2) {
        let mut ok = true;
        let us = median_us(2001, || {
            ok &= engine::proto_roundtrip(*op, text, body).is_ok()
        });
        out.check(ok, || "proto round trip failed".into());
        m.insert("server.proto_roundtrip_ns", us * 1e3);
    }
    if !keys.is_empty() {
        // Replay the key stream against a cache of the server's capacity.
        let cache = CacheProbe::new(256);
        let (mut gets, mut puts) = (Vec::new(), Vec::new());
        for &key in keys {
            let t = Instant::now();
            let hit = cache.get(key);
            gets.push(t.elapsed().as_secs_f64() * 1e9);
            if !hit {
                let t = Instant::now();
                cache.put(key, "true");
                puts.push(t.elapsed().as_secs_f64() * 1e9);
            }
        }
        m.insert("server.cache_get_ns", median(&sorted(gets)));
        if !puts.is_empty() {
            m.insert("server.cache_put_ns", median(&sorted(puts)));
        }
    }
}

/// core.parser / plan / lower: the front half of every request.
pub fn frontend(m: &mut Metrics, out: &mut Outcome, queries: &[&str], db: &Db) {
    let (mut parse, mut compile, mut nodes, mut fingerprint, mut explain) =
        (vec![], vec![], vec![], vec![], vec![]);
    for text in queries {
        let mut parsed = None;
        parse.push(median_us(21, || parsed = engine::parse(text).ok()));
        let Some(q) = parsed else {
            out.check(false, || format!("probe query does not parse: {text}"));
            continue;
        };
        out.check(true, String::new);
        compile.push(median_us(21, || nodes.push(q.plan_nodes() as f64)));
        fingerprint.push(median_us(21, || {
            std::hint::black_box((q.fingerprint(), db.fingerprint()));
        }));
        explain.push(median_us(21, || {
            std::hint::black_box(q.explain().len());
        }));
    }
    m.insert("core.parse_us", mean(&parse));
    m.insert("plan.compile_us", mean(&compile));
    m.insert("plan.nodes", mean(&nodes));
    m.insert("core.fingerprint_us", mean(&fingerprint));
    m.insert("plan.explain_us", mean(&explain));
}

/// core.region: build an extension and run its arrangement through the
/// catalog codec.
pub fn region(m: &mut Metrics, out: &mut Outcome, dbs: &[&Db]) {
    let mut tr = Tracer::off();
    let (mut build, mut codec, mut bytes) = (vec![], vec![], vec![]);
    for db in dbs {
        let mut ext = None;
        build.push(median_us(5, || {
            ext = engine::extension(&mut tr, 0, db, 1).ok()
        }));
        let Some(ext) = ext else {
            out.check(false, || "probe extension failed".into());
            continue;
        };
        let mut len = Ok(0);
        codec.push(median_us(5, || len = ext.arrangement_codec()));
        if out.check(len.is_ok(), || format!("arrangement codec: {len:?}")) {
            bytes.push(len.unwrap_or(0) as f64);
        }
    }
    m.insert("core.extension_us", mean(&build));
    m.insert("core.arr_codec_us", mean(&codec));
    m.insert("core.arr_blob_bytes", mean(&bytes));
}

/// geom, from the arrangements a workload built: point location and size.
pub fn geom_probes(m: &mut Metrics, out: &mut Outcome, arrs: &[&Arr]) {
    let mut locate = Vec::new();
    for arr in arrs {
        let mut found = 0;
        let t = Instant::now();
        found += arr.locate_witnesses();
        locate.push(t.elapsed().as_secs_f64() * 1e6 / arr.faces().max(1) as f64);
        out.check(found == arr.faces(), || {
            format!(
                "locate returned {found} of {} witnesses to their face",
                arr.faces()
            )
        });
    }
    m.insert("geom.locate_us", mean(&locate));
    m.insert("geom.faces", arrs.iter().map(|a| a.faces() as f64).sum());
}

/// lp and arith/linalg, on the face systems and witness coordinates of the
/// arrangements the workload built.
pub fn lp_arith(m: &mut Metrics, out: &mut Outcome, arrs: &[&Arr], families: &[&Family]) {
    let (mut cold, mut warm, mut maxi) = (vec![], vec![], vec![]);
    let mut numbers = Numbers::from_ints(&[]);
    for arr in arrs {
        let systems = arr.face_systems();
        numbers.extend(arr.witness_coordinates());
        // A spread of faces, not all of them: LP cost per face is what is
        // measured, and a large arrangement has hundreds.
        let step = (systems.len() / 24).max(1);
        for i in (0..systems.len()).step_by(step) {
            let mut feasible = false;
            cold.push(median_us(3, || feasible = systems.feasible(i)));
            out.check(feasible, || format!("face system {i} reported infeasible"));
            const PROBES: usize = 8;
            let t = Instant::now();
            let hits = systems.probe_warm(i, PROBES);
            warm.push(t.elapsed().as_secs_f64() * 1e6 / PROBES as f64);
            out.check(hits == PROBES, || {
                format!("warm probe of face system {i}: {hits} of {PROBES} feasible")
            });
            maxi.push(median_us(3, || {
                std::hint::black_box(systems.maximize_x0(i));
            }));
        }
    }
    if !cold.is_empty() {
        m.insert("lp.feasible_us", mean(&cold));
        m.insert("lp.probe_us", mean(&warm));
        m.insert("lp.warm_speedup", mean(&cold) / mean(&warm));
        m.insert("lp.maximize_us", mean(&maxi));
    }
    // Word-sized operands: the workload's own coefficients, or, where it
    // has no hyperplane families, an integer ramp of the same magnitude.
    let mut coefficients: Vec<i64> = families
        .iter()
        .flat_map(|f| f.planes.iter().flatten().copied())
        .collect();
    if coefficients.is_empty() && numbers.len() >= 3 {
        coefficients = (1..=256).map(|i| (i * 37) % 61 - 30).collect();
    }
    let small = Numbers::from_ints(&coefficients);
    if small.len() >= 3 {
        m.insert(
            "arith.small_op_ns",
            ns_per_op(31, || small.mul_add_pass().0),
        );
        let big = small.big();
        m.insert("arith.big_op_ns", ns_per_op(31, || big.mul_add_pass().0));
        m.insert("arith.gcd_ns", ns_per_op(31, || big.gcd_pass()));
    }
    if numbers.len() >= 3 {
        let (ops, wide) = numbers.mul_add_pass();
        m.insert("arith.promote_ratio", wide as f64 / (ops / 3).max(1) as f64);
    }
    let mut solves = Vec::new();
    for f in families.iter().filter(|f| f.d == 3) {
        let n = f.planes.len();
        for i in 0..n.saturating_sub(2) {
            let mut solved = false;
            solves.push(median_us(5, || {
                solved = engine::solve3(f, [i, i + 1, i + 2])
            }));
            out.check(solved, || {
                "three planes in general position have a common point".into()
            });
        }
    }
    if !solves.is_empty() {
        m.insert("linalg.solve_us", mean(&solves));
    }
}

/// logic: eliminate the quantifiers of the given formulas directly, and
/// convert and simplify their matrices.
pub fn logic(m: &mut Metrics, out: &mut Outcome, formulas: &[Fo], defines: &[&str]) {
    let mut tr = Tracer::off();
    let (mut per_var, mut conjuncts, mut bits, mut dnf, mut simplify) =
        (vec![], vec![], vec![], vec![], vec![]);
    for fo in formulas {
        let vars = fo.quantifiers().max(1) as f64;
        let t = Instant::now();
        let qe = fo.eliminate(&mut tr, 0);
        per_var.push(t.elapsed().as_secs_f64() * 1e6 / vars);
        conjuncts.push(qe.conjuncts as f64);
        bits.push(qe.max_coeff_bits as f64);
        let mut matrix = None;
        let us = median_us(3, || matrix = fo.matrix_dnf());
        if let Some(matrix) = matrix {
            dnf.push(us);
            simplify.push(median_us(3, || {
                std::hint::black_box(matrix.simplify());
            }));
            std::hint::black_box(matrix.disjuncts());
        }
    }
    if !per_var.is_empty() {
        m.insert("logic.qe_us_per_var", mean(&per_var));
        m.insert("logic.qe_conjuncts_out", mean(&conjuncts));
        m.insert(
            "logic.qe_max_coeff_bits",
            bits.iter().copied().fold(0.0, f64::max),
        );
        m.insert("logic.to_dnf_us", mean(&dnf));
        m.insert("logic.simplify_us", mean(&simplify));
    }
    let mut parse = Vec::new();
    for d in defines {
        let mut atoms = Ok(0);
        parse.push(median_us(11, || atoms = engine::parse_define_body(d)));
        out.check(atoms.is_ok(), || {
            format!("define body does not parse: {atoms:?}")
        });
    }
    if !parse.is_empty() {
        m.insert("logic.parse_us", mean(&parse));
    }
}

/// store / recover: a catalog of its own in `dir`, fed the results and
/// extensions the workload produced.
pub fn store(
    m: &mut Metrics,
    out: &mut Outcome,
    dir: &Path,
    results: &[(u64, u64, String)],
    exts: &[(&Db, &Ext)],
    snap: Option<&engine::Snap>,
) {
    let deps = vec!["S".to_string(), "P".to_string()];
    let result = (|| -> Result<(), String> {
        let cat = Catalog::open(dir)?;
        let (mut put, mut get) = (vec![], vec![]);
        for (plan_fp, db_fp, body) in results {
            let t = Instant::now();
            cat.save_result(*plan_fp, *db_fp, &deps, body)?;
            put.push(t.elapsed().as_secs_f64() * 1e6);
        }
        // Every result once (cold pages), then the first quarter again
        // (pages now in the buffer pool), as re-read base-map results are.
        for (plan_fp, db_fp, body) in results.iter().chain(&results[..results.len() / 4]) {
            let t = Instant::now();
            let back = cat.load_result(*plan_fp, *db_fp)?;
            get.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(back.as_deref() == Some(body.as_str()), || {
                "catalog returned a different result body".into()
            });
        }
        let (mut save, mut load) = (vec![], vec![]);
        for (db, ext) in exts {
            let t = Instant::now();
            cat.save_extension(ext)?;
            save.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let regions = cat.load_extension(db)?;
            load.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(regions == Some(ext.regions()), || {
                format!(
                    "catalog extension has {regions:?} regions, built one {}",
                    ext.regions()
                )
            });
        }
        let counts = cat.counts();
        m.insert("store.put_us", median(&sorted(put)));
        m.insert("store.get_us", median(&sorted(get)));
        m.insert("store.save_extension_us", mean(&save));
        m.insert("store.load_extension_us", mean(&load));
        m.insert(
            "store.pool_hit_ratio",
            counts.pool_hits as f64 / (counts.pool_hits + counts.pool_misses).max(1) as f64,
        );
        // Reopen on the un-checkpointed WAL (replay), then checkpoint.
        drop(cat);
        let t = Instant::now();
        let cat = Catalog::open(dir)?;
        m.insert("store.open_replay_us", t.elapsed().as_secs_f64() * 1e6);
        out.check(cat.counts().replayed > 0, || {
            "reopening the catalog replayed no WAL record".into()
        });
        let t = Instant::now();
        cat.checkpoint()?;
        m.insert("store.checkpoint_us", t.elapsed().as_secs_f64() * 1e6);
        Ok(())
    })();
    out.check(result.is_ok(), || format!("store probe: {result:?}"));
    if let Some(snap) = snap {
        let mut len = Ok(0);
        let us = median_us(21, || len = snap.codec());
        out.check(len.is_ok(), || format!("snapshot codec: {len:?}"));
        m.insert("recover.snapshot_codec_us", us);
    }
}

/// tm / datalog: compile and run the machines directly, and one semi-naive
/// datalog evaluation of the shape the reproduction harness uses.
pub fn machines(m: &mut Metrics, out: &mut Outcome, captures: &[(&Ext, Machine)]) {
    let (mut compile, mut direct) = (vec![], vec![]);
    for &(ext, machine) in captures {
        compile.push(median_us(5, || {
            std::hint::black_box(engine::tm_compile(machine));
        }));
        direct.push(median_us(21, || {
            std::hint::black_box(engine::tm_direct_run(ext, machine));
        }));
    }
    if !compile.is_empty() {
        m.insert("tm.compile_us", mean(&compile));
        m.insert("tm.direct_run_us", mean(&direct));
    }
    let mut rounds = Ok(0);
    let us = median_us(3, || rounds = engine::datalog_seminaive(12));
    out.check(rounds.is_ok(), || format!("datalog probe: {rounds:?}"));
    m.insert("datalog.seminaive_us", us);
}

/// core.evaluator: what the traced sections' evaluation spans and the
/// evaluator's own counters say. `counts` are totals over `batches`
/// identical batches; the counters are reported per batch.
pub fn evaluator(m: &mut Metrics, tr: &Tracer, counts: Counts, batches: usize) {
    let per_batch = |total: u64| total as f64 / batches.max(1) as f64;
    m.insert("eval.conn_us", mean_us_of(tr, &["eval.conn"]));
    m.insert("eval.gis_us", mean_us_of(tr, &["eval.gis"]));
    m.insert("eval.capture_us", mean_us_of(tr, &["eval.capture"]));
    m.insert("eval.tc_us", mean_us_of(tr, &["eval.tc"]));
    m.insert(
        "eval.plan_cache_lookups",
        per_batch(counts.plan_cache_lookups),
    );
    m.insert(
        "eval.plan_cache_hit_ratio",
        counts.plan_cache_hits as f64 / counts.plan_cache_lookups.max(1) as f64,
    );
    m.insert(
        "eval.region_expansions",
        per_batch(counts.region_expansions),
    );
    m.insert("eval.fix_iterations", per_batch(counts.fix_iterations));
    m.insert("eval.fix_tuple_tests", per_batch(counts.fix_tuple_tests));
    m.insert("eval.qe_calls", per_batch(counts.qe_calls));
    let eval_ns: u64 = tr
        .self_by_name()
        .iter()
        .filter(|(name, _)| name.starts_with("eval."))
        .map(|(_, ns)| ns)
        .sum();
    m.insert(
        "eval.ns_per_lookup",
        eval_ns as f64 / counts.plan_cache_lookups.max(1) as f64,
    );
}
