//! The one table of workloads and metrics. `--list`, `BENCHMARK.json`, the
//! result files and the final JSON line are all generated from it, so they
//! cannot drift apart (a unit test compares the committed `BENCHMARK.json`
//! with what this table writes).

use crate::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (at most 200 characters).
    pub why: &'static str,
    /// Is the workload in `BENCHMARK.json`, where every run of it must
    /// repeat within the bounds? `serve_churn` is not: what it measures is
    /// mostly the `fsync` of the box it runs on (see the README). The full
    /// run, the result files and `--compare` cover all five.
    pub gated: bool,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve_mix",
        why: "read-mostly served mix over 48 databases x 16 queries, store off: the number a client sees; every layer takes part and hit, miss and eviction paths all carry weight",
        gated: true,
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "write-beside-read with the store on: each cycle defines a new half-plane pair beside reads of an unchanged map, so derive, invalidate, WAL and restart do the work and harder caching shows its cost",
        gated: false,
    },
    WorkloadSpec {
        name: "fixpoint_batch",
        why: "cold library path dominated by the evaluator, plan and memo (capture machines, Conn, GIS river, RegTC): set-at-a-time evaluation must show here, wire and cache changes must not",
        gated: true,
    },
    WorkloadSpec {
        name: "geom_build",
        why: "cold arrangement builds, NC1 decompositions and hyperplane edits on general-position families: arith, lp and geom do the work and the evaluator is idle",
        gated: true,
    },
    WorkloadSpec {
        name: "qe_alibi",
        why: "alibi queries over space-time prisms on a trivial 1-D arrangement: quantifier elimination and DNF (with their LP checks) dominate; the QE-attribution workload",
        gated: true,
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

/// Every workload reports every end-to-end metric; the README says what
/// each one means on each workload. Every time among them (and the time
/// under `throughput_rps`) is scaled by the calibration slices taken beside
/// it to the nominal box of `calib`.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "everything before the timed section (input generation, server start, base defines, warm-up visits or first batch); median of three set-ups",
    },
    EndToEnd {
        name: "batch_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "served: median wall time of one round of visits/cycles of one client; cold: one batch with every item at the fastest of its repetitions",
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "served: correct replies (defines included) per second of timed wall; cold: the correct answers of one batch over batch_s",
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "served: median client-observed send-to-reply time of evaluation requests; cold: the median item's evaluation time, each item at the fastest of its repetitions",
    },
    EndToEnd {
        name: "lat_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "95th percentile (nearest rank) of the same population as lat_p50_ms",
    },
    EndToEnd {
        name: "update_visible_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "median time from a new or changed database being handed over (served: first Define sent; cold: build started, each item at its fastest) to the first correct answer on it",
    },
    EndToEnd {
        name: "warm_restart_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "served: Server::start on the used store directory until the last replayed read is answered; cold: a fresh process until it has answered one batch; fastest of five",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        definition: "VmHWM of the workload's process: served, when the first client has finished a fixed number of timed rounds; cold, at exit",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The crate(s) the metric belongs to.
    pub layer: &'static str,
    /// The end-to-end metric and workload this layer metric is predicted
    /// to move; every other pairing is predicted not to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

use Better::{Higher, Lower};

const SERVER_MOVES: &str = "lat_p50_ms, throughput_rps on serve_mix";
const FRONT_MOVES: &str = "lat_p50_ms on serve_mix";
const EVAL_MOVES: &str = "batch_s on fixpoint_batch; lat_p95_ms, throughput_rps on serve_mix";
const REGION_MOVES: &str = "update_visible_p50_ms on serve_churn";
const GEOM_MOVES: &str = "batch_s on geom_build; update_visible_p50_ms on serve_churn";
const LP_MOVES: &str = "batch_s on geom_build (and qe_alibi)";
const ARITH_MOVES: &str = "batch_s on geom_build";
const LOGIC_MOVES: &str = "batch_s on qe_alibi; a little of lat_p50_ms on serve_mix";
const STORE_MOVES: &str = "update_visible_p50_ms, warm_restart_s on serve_churn";
const MACHINE_MOVES: &str = "batch_s on fixpoint_batch";

pub const PER_LAYER: [Layer; 68] = [
    layer("server.wire_rtt_us", "us", Lower, "server", SERVER_MOVES),
    layer("server.exec_mean_us", "us", Lower, "server", SERVER_MOVES),
    layer(
        "server.overhead_mean_us",
        "us",
        Lower,
        "server",
        SERVER_MOVES,
    ),
    layer("server.lat_p99_ms", "ms", Lower, "server", SERVER_MOVES),
    layer(
        "server.cache_hit_ratio",
        "ratio",
        Higher,
        "server",
        SERVER_MOVES,
    ),
    layer(
        "server.store_hit_ratio",
        "ratio",
        Higher,
        "server",
        "warm_restart_s on serve_churn",
    ),
    layer(
        "server.ext_incremental_ratio",
        "ratio",
        Higher,
        "server",
        REGION_MOVES,
    ),
    layer("server.shed_ratio", "ratio", Lower, "server", SERVER_MOVES),
    layer("server.connect_us", "us", Lower, "server", SERVER_MOVES),
    layer(
        "server.proto_roundtrip_ns",
        "ns",
        Lower,
        "server",
        SERVER_MOVES,
    ),
    layer("server.cache_get_ns", "ns", Lower, "server", SERVER_MOVES),
    layer("server.cache_put_ns", "ns", Lower, "server", SERVER_MOVES),
    layer(
        "server.unattributed_ratio",
        "ratio",
        Lower,
        "server",
        SERVER_MOVES,
    ),
    layer("core.parse_us", "us", Lower, "core.parser", FRONT_MOVES),
    layer("plan.compile_us", "us", Lower, "plan/lower", FRONT_MOVES),
    layer("plan.nodes", "count", Lower, "plan/lower", FRONT_MOVES),
    layer(
        "core.fingerprint_us",
        "us",
        Lower,
        "plan/lower",
        FRONT_MOVES,
    ),
    layer("plan.explain_us", "us", Lower, "plan/lower", FRONT_MOVES),
    layer("eval.conn_us", "us", Lower, "core.evaluator", EVAL_MOVES),
    layer("eval.gis_us", "us", Lower, "core.evaluator", EVAL_MOVES),
    layer("eval.capture_us", "us", Lower, "core.evaluator", EVAL_MOVES),
    layer("eval.tc_us", "us", Lower, "core.evaluator", EVAL_MOVES),
    layer(
        "eval.plan_cache_lookups",
        "count",
        Lower,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "eval.plan_cache_hit_ratio",
        "ratio",
        Higher,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "eval.region_expansions",
        "count",
        Lower,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "eval.fix_iterations",
        "count",
        Lower,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "eval.fix_tuple_tests",
        "count",
        Lower,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "eval.qe_calls",
        "count",
        Lower,
        "core.evaluator",
        "batch_s on qe_alibi",
    ),
    layer(
        "eval.ns_per_lookup",
        "ns",
        Lower,
        "core.evaluator",
        EVAL_MOVES,
    ),
    layer(
        "core.extension_us",
        "us",
        Lower,
        "core.region",
        REGION_MOVES,
    ),
    layer("core.derive_us", "us", Lower, "core.region", REGION_MOVES),
    layer(
        "core.arr_codec_us",
        "us",
        Lower,
        "core.region",
        "warm_restart_s on serve_churn",
    ),
    layer(
        "core.arr_blob_bytes",
        "bytes",
        Lower,
        "core.region",
        "warm_restart_s on serve_churn",
    ),
    layer("geom.build_us_per_face", "us", Lower, "geom", GEOM_MOVES),
    layer("geom.faces", "count", Lower, "geom", GEOM_MOVES),
    layer("geom.insert_us", "us", Lower, "geom", GEOM_MOVES),
    layer("geom.remove_us", "us", Lower, "geom", GEOM_MOVES),
    layer("geom.nc1_us", "us", Lower, "geom", "batch_s on geom_build"),
    layer(
        "geom.locate_us",
        "us",
        Lower,
        "geom",
        "batch_s on geom_build",
    ),
    layer("lp.feasible_us", "us", Lower, "lp", LP_MOVES),
    layer("lp.probe_us", "us", Lower, "lp", LP_MOVES),
    layer("lp.warm_speedup", "ratio", Higher, "lp", LP_MOVES),
    layer("lp.maximize_us", "us", Lower, "lp", LP_MOVES),
    layer("arith.small_op_ns", "ns", Lower, "arith", ARITH_MOVES),
    layer("arith.big_op_ns", "ns", Lower, "arith", ARITH_MOVES),
    layer("arith.gcd_ns", "ns", Lower, "arith", ARITH_MOVES),
    layer("arith.promote_ratio", "ratio", Lower, "arith", ARITH_MOVES),
    layer("linalg.solve_us", "us", Lower, "linalg", ARITH_MOVES),
    layer("logic.qe_us_per_var", "us", Lower, "logic", LOGIC_MOVES),
    layer(
        "logic.qe_conjuncts_out",
        "count",
        Lower,
        "logic",
        LOGIC_MOVES,
    ),
    layer(
        "logic.qe_max_coeff_bits",
        "bits",
        Lower,
        "logic",
        LOGIC_MOVES,
    ),
    layer("logic.to_dnf_us", "us", Lower, "logic", LOGIC_MOVES),
    layer("logic.simplify_us", "us", Lower, "logic", LOGIC_MOVES),
    layer("logic.parse_us", "us", Lower, "logic", LOGIC_MOVES),
    layer("store.put_us", "us", Lower, "store", STORE_MOVES),
    layer("store.get_us", "us", Lower, "store", STORE_MOVES),
    layer("store.save_extension_us", "us", Lower, "store", STORE_MOVES),
    layer("store.load_extension_us", "us", Lower, "store", STORE_MOVES),
    layer("store.checkpoint_us", "us", Lower, "store", STORE_MOVES),
    layer(
        "store.open_replay_us",
        "us",
        Lower,
        "store",
        "warm_restart_s on serve_churn",
    ),
    layer(
        "store.bytes_per_user_byte",
        "ratio",
        Lower,
        "store",
        STORE_MOVES,
    ),
    layer(
        "store.pool_hit_ratio",
        "ratio",
        Higher,
        "store",
        STORE_MOVES,
    ),
    layer(
        "recover.snapshot_codec_us",
        "us",
        Lower,
        "recover",
        STORE_MOVES,
    ),
    layer("tm.compile_us", "us", Lower, "tm", MACHINE_MOVES),
    layer("tm.direct_run_us", "us", Lower, "tm", MACHINE_MOVES),
    layer(
        "datalog.seminaive_us",
        "us",
        Lower,
        "datalog",
        MACHINE_MOVES,
    ),
    layer("exec.par2_speedup", "ratio", Higher, "exec", MACHINE_MOVES),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "benchmark",
        "nothing: the cost of the benchmark's own spans",
    ),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload W --seed N --seconds S --trace T`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// `BENCHMARK.json`, in the builder-contract schema.
pub fn manifest() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        ("command", strs(&COMMAND)),
        ("paths", strs(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|w| w.gated)
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `--list`: every workload with its reason, every metric with unit,
/// direction and bound, and for layer metrics the prediction.
pub fn list() -> String {
    let mut out = String::from("workloads (* = in BENCHMARK.json; the full run covers all)\n");
    for w in &WORKLOADS {
        let mark = if w.gated { '*' } else { ' ' };
        out.push_str(&format!("{mark} {:<16} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (every workload reports every one)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<24} {:<6} {:<6} bound {:>4.0} %  {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.definition
        ));
    }
    out.push_str("  fail_ratio               ratio  lower  bound    0     failed / attempted, reported as the `failed` and `attempted` counts of every run\n");
    out.push_str("\nper-layer metrics (no bound; 0 on a workload that gives the layer no input)\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<30} {:<6} {:<6} [{}] moves {}\n",
            m.name,
            m.unit,
            m.better.word(),
            m.layer,
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().pretty().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(committed, manifest().pretty(), "run with --write-manifest");
    }

    #[test]
    fn list_names_everything() {
        let text = list();
        for n in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(text.contains(n), "{n} missing from --list");
        }
    }
}
