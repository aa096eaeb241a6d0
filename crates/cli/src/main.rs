//! `lcdb` — an interactive shell for linear constraint databases.
//!
//! ```text
//! $ cargo run -p lcdb-cli --bin lcdb
//! lcdb> rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)
//! lcdb> regions
//! lcdb> sentence forall Rx. forall Ry. (Rx subset S and Ry subset S) -> ...
//! lcdb> query exists x. S(x) and y = x + 1
//! lcdb> quit
//! ```
//!
//! Also runs scripts: `lcdb script.lcdb` executes each line of the file, and
//! `lcdb -e "<command>"` runs a single command. See `help` for the command
//! list.
//!
//! Resource governance: `--timeout SECS`, `--max-iterations N` and
//! `--max-faces N` bound every command. A tripped limit reports the partial
//! evaluation statistics and, in `-e`/script mode, exits with a distinct
//! code (2 deadline, 3 iteration limit, 4 face limit, 5 cancelled, 6 tuple
//! tests, 7 memory; 1 for other errors).
//!
//! Crash safety: with `--store DIR`, a run killed by a budget leaves its
//! completed fixpoint stages in the plan catalog, and running the same
//! command again with the same `--store DIR` (and a fresh, larger budget)
//! continues from them — it says `resumed from store`. `--allow-partial`
//! quarantines localized faults instead of aborting: the verdict is still
//! produced, marked partial, and the process exits with code 8 (an
//! unquarantined injected fault exits with 9).
//!
//! Plan inspection: the `explain REGFORMULA` command — or the `--explain`
//! flag, which turns `sentence`/`query`/`connected` into explain-only
//! commands — prints a `explain: nodes=… depth=…` header followed
//! by the optimized plan DAG with per-node canonical hashes and
//! deterministic cost annotations, without evaluating anything.
//!
//! Observability: `--trace FILE` writes a JSONL structured trace (spans,
//! counters, quarantine marks) of every command; `--profile` prints a
//! per-plan-node self-time table after each evaluation, whose `#id` rows
//! match `--explain`'s labels; `--metrics` dumps the counter/histogram
//! registry (including quarantine counts) after each evaluation.
//!
//! Serving: `lcdb serve [SCRIPT] --addr HOST:PORT …` runs the long-lived
//! concurrent query server from `lcdb-server` (see `lcdb serve --help`);
//! `SCRIPT`'s `rel`/`spatial` lines become the base database every session
//! starts from. Drive it with the bundled `lcdb-load` generator.

use lcdb_core::{
    database_fingerprint, explain_query, parse_regformula, queries, ArrangementRegions,
    Decomposition, DecompositionKind, EvalBudget, EvalError, EvalStats, Evaluator,
    JsonlTracer, ProfEntry, Quarantine, RegFormula, RegionExtension, Resumable, TraceHandle,
};
use lcdb_logic::Database;
use lcdb_plan::PlanId;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Budget knobs taken from the command line; applied afresh to every
/// command so the deadline clock restarts per command, not per session.
#[derive(Clone, Default)]
struct Limits {
    timeout: Option<Duration>,
    max_iterations: Option<u64>,
    max_faces: Option<usize>,
    /// Quarantine localized faults instead of aborting (exit code 8).
    allow_partial: bool,
    /// Print the optimized plan for each evaluation command instead of
    /// evaluating it (`--explain`).
    explain: bool,
    /// Write a JSONL structured trace of every command to this file
    /// (`--trace FILE`).
    trace: Option<PathBuf>,
    /// Print a per-plan-node self-time table after each evaluation command
    /// (`--profile`).
    profile: bool,
    /// Print the metrics-registry dump after each evaluation command
    /// (`--metrics`).
    metrics: bool,
    /// Root of the persistent plan catalog (`--store DIR`): completed
    /// arrangements are looked up there before being rebuilt and saved
    /// there after construction, and an evaluation killed by a budget
    /// leaves its fixpoint stages there for the next run to resume. Also
    /// the default directory for the `store` subcommand and `serve`.
    store_dir: Option<PathBuf>,
}

impl Limits {
    fn budget(&self) -> EvalBudget {
        let mut b = EvalBudget::unlimited();
        if let Some(t) = self.timeout {
            b = b.with_timeout(t);
        }
        if let Some(n) = self.max_iterations {
            b = b.with_max_fix_iterations(n);
        }
        if let Some(n) = self.max_faces {
            b = b.with_max_faces(n);
        }
        b
    }
}

/// A failed shell command: either a usage-level problem or a typed
/// evaluation error (which may carry partial statistics).
enum CmdError {
    Usage(String),
    Io(std::io::Error),
    Eval(EvalError),
}

impl From<EvalError> for CmdError {
    fn from(e: EvalError) -> Self {
        CmdError::Eval(e)
    }
}

impl From<std::io::Error> for CmdError {
    fn from(e: std::io::Error) -> Self {
        CmdError::Io(e)
    }
}

impl CmdError {
    /// Process exit code for `-e`/script mode.
    fn exit_code(&self) -> i32 {
        match self {
            CmdError::Usage(_) | CmdError::Io(_) => 1,
            CmdError::Eval(e) => match e {
                EvalError::DeadlineExceeded { .. } => 2,
                EvalError::IterationLimit { .. } => 3,
                EvalError::FaceLimit { .. } => 4,
                EvalError::Cancelled { .. } => 5,
                EvalError::TupleTestLimit { .. } => 6,
                EvalError::MemoryLimit { .. } => 7,
                EvalError::InjectedFault { .. } => 9,
                EvalError::InvalidQuery { .. } | EvalError::Internal { .. } => 1,
            },
        }
    }

    /// Write the full error chain, plus partial statistics for budget
    /// exhaustion, to `out`.
    fn report(&self, out: &mut dyn Write) -> std::io::Result<()> {
        match self {
            CmdError::Usage(msg) => writeln!(out, "error: {}", msg),
            CmdError::Io(e) => writeln!(out, "error: {}", e),
            CmdError::Eval(e) => {
                writeln!(out, "error: {}", e)?;
                let mut source = std::error::Error::source(e);
                while let Some(s) = source {
                    writeln!(out, "  caused by: {}", s)?;
                    source = s.source();
                }
                if e.is_budget_exhaustion() {
                    write_stats(out, "partial stats", &e.stats())?;
                }
                Ok(())
            }
        }
    }
}

fn write_stats(out: &mut dyn Write, label: &str, st: &EvalStats) -> std::io::Result<()> {
    writeln!(
        out,
        "{}: regions={} lfp-stages={} tuple-tests={} qe-calls={} region-expansions={} tc-edge-tests={} quarantined={}",
        label,
        st.regions,
        st.fix_iterations,
        st.fix_tuple_tests + st.tc_edge_tests,
        st.qe_calls,
        st.region_expansions,
        st.tc_edge_tests,
        st.quarantined,
    )
}

/// Report a degraded verdict: say what was quarantined and mark the command
/// with the dedicated partial-success exit code 8.
fn write_partial(sh: &mut Shell, out: &mut dyn Write, q: &Quarantine) -> std::io::Result<()> {
    if q.is_empty() {
        return Ok(());
    }
    let sites: Vec<&str> = q.sites.iter().map(String::as_str).collect();
    writeln!(
        out,
        "partial result: quarantined {} unit(s) ({} table operation(s), {} region(s), {} disjunct(s)); faults: {}",
        q.units(),
        q.tables,
        q.regions.len(),
        q.disjuncts,
        sites.join(", "),
    )?;
    sh.exit_code = 8;
    Ok(())
}

/// Print the `--profile` table: one row per visited plan node, ranked by
/// self time. The `#id` labels match `--explain` output for the same query
/// (plan lowering is deterministic), and the self-time column sums to the
/// root node's total time — child time is attributed to the child.
fn write_profile(
    out: &mut dyn Write,
    f: &RegFormula,
    prof: &[(PlanId, ProfEntry)],
) -> std::io::Result<()> {
    if prof.is_empty() {
        return writeln!(out, "profile: no plan nodes visited");
    }
    let (plan, root) = lcdb_core::compile(f);
    let total_ns = prof
        .iter()
        .find(|(id, _)| *id == root)
        .map(|(_, e)| e.total_ns)
        .unwrap_or(0);
    let self_sum_ns: u64 = prof.iter().map(|(_, e)| e.self_ns).sum();
    writeln!(
        out,
        "profile: nodes={} eval-total={}us self-sum={}us",
        prof.len(),
        total_ns / 1_000,
        self_sum_ns / 1_000,
    )?;
    writeln!(
        out,
        "  {:>5}  {:>8}  {:>9}  {:>9}  {:>9}  {:>6}  node",
        "id", "visits", "memo-hit", "self-us", "total-us", "self%"
    )?;
    let mut rows: Vec<(PlanId, ProfEntry)> = prof.to_vec();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
    for (id, e) in rows {
        writeln!(
            out,
            "  #{:<4}  {:>8}  {:>9}  {:>9}  {:>9}  {:>5.1}%  {}",
            id,
            e.visits,
            e.memo_hits,
            e.self_ns / 1_000,
            e.total_ns / 1_000,
            100.0 * e.self_ns as f64 / total_ns.max(1) as f64,
            lcdb_plan::explain::label(&plan, id),
        )?;
    }
    Ok(())
}

struct Shell {
    db: Database,
    spatial: Option<String>,
    decomposition: DecompositionKind,
    limits: Limits,
    /// Cached extension; rebuilt when the database or settings change.
    ext: Option<RegionExtension>,
    /// Exit code of the most recent failed command (0 when all succeeded).
    exit_code: i32,
    /// Tracing/metrics handle shared by every command: a JSONL sink when
    /// `--trace FILE` was given, otherwise disabled (the metrics registry
    /// stays live either way, for `--metrics`).
    trace: TraceHandle,
    /// Persistent plan catalog (`--store DIR`): arrangement extensions are
    /// warm-loaded from here before being rebuilt and persisted after a
    /// fresh build, keyed by the hyperplanes they were built over; an aborted
    /// evaluation's fixpoint stages wait here for the next run. Store
    /// failures degrade to recomputation — they never fail a command.
    catalog: Option<lcdb_core::PlanCatalog>,
}

impl Shell {
    fn with_limits(limits: Limits) -> Self {
        let trace = match &limits.trace {
            Some(path) => match JsonlTracer::create(path) {
                Ok(t) => TraceHandle::new(Arc::new(t)),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open trace file '{}': {} (tracing disabled)",
                        path.display(),
                        e
                    );
                    TraceHandle::disabled()
                }
            },
            None => TraceHandle::disabled(),
        };
        let catalog = limits.store_dir.as_ref().and_then(|dir| {
            match lcdb_core::PlanCatalog::open(dir) {
                Ok(cat) => Some(cat),
                Err(e) => {
                    eprintln!(
                        "warning: cannot open store '{}': {} (persistence disabled)",
                        dir.display(),
                        e
                    );
                    None
                }
            }
        });
        Shell {
            db: Database::new(),
            spatial: None,
            decomposition: DecompositionKind::Arrangement,
            limits,
            ext: None,
            exit_code: 0,
            trace,
            catalog,
        }
    }

    fn extension(&mut self, budget: &EvalBudget) -> Result<&RegionExtension, CmdError> {
        if self.ext.is_none() {
            let spatial = self.spatial.clone().ok_or_else(|| {
                CmdError::Usage(
                    "no relation defined yet; use `rel NAME(vars) := formula`".to_string(),
                )
            })?;
            let ext = match self.decomposition {
                DecompositionKind::Arrangement => {
                    let mut built = false;
                    let mut build = || {
                        built = true;
                        ArrangementRegions::try_new(
                            self.db.clone(),
                            &spatial,
                            budget,
                            &self.trace,
                        )
                    };
                    // Warm path: a previous process persisted an arrangement
                    // over the same spatial hyperplanes — the catalog hands
                    // it back instead of re-running the construction.
                    let regions = match &self.catalog {
                        Some(cat) => {
                            let (regions, mut warnings) =
                                cat.extension_or_build(&self.db, &spatial, build)?;
                            if built {
                                // This process exits without an orderly
                                // shutdown: checkpoint the index now, so
                                // the next one opens without a replay.
                                if let Err(e) = cat.checkpoint() {
                                    warnings.push(format!("store checkpoint failed: {e}"));
                                }
                            }
                            for w in warnings {
                                eprintln!("warning: {w}");
                            }
                            regions
                        }
                        None => build()?,
                    };
                    RegionExtension::from(regions)
                }
                kind @ DecompositionKind::Nc1 => {
                    RegionExtension::try_new(self.db.clone(), &spatial, kind, budget)?
                }
            };
            self.ext = Some(ext);
        }
        self.ext
            .as_ref()
            .ok_or_else(|| CmdError::Usage("extension cache invariant broken".to_string()))
    }

    /// Shared crash-safe evaluation path for `sentence`, `query` and
    /// `connected`: quarantines localized faults under `--allow-partial`
    /// and, with `--store`, continues from the fixpoint stages an earlier
    /// killed run left in the catalog and leaves its own there on a
    /// recoverable abort.
    #[allow(clippy::type_complexity)]
    fn eval_recoverable<T>(
        &mut self,
        out: &mut dyn Write,
        f: &RegFormula,
        run: impl FnOnce(&Evaluator) -> Result<T, EvalError>,
    ) -> Result<(T, Quarantine, EvalStats, Vec<(PlanId, ProfEntry)>), CmdError> {
        let budget = self.limits.budget();
        // An abort while the decomposition is built is still an evaluation
        // abort, and the catalog records it like one.
        let built = match self.extension(&budget) {
            Ok(_) => Ok(()),
            Err(CmdError::Eval(e)) => Err(e),
            Err(other) => return Err(other),
        };
        let ev = built.map(|()| {
            let ext = self.ext.as_ref().expect("extension() caches what it returns");
            let mut ev = Evaluator::with_budget(ext, budget).with_trace(self.trace.clone());
            if self.limits.profile {
                ev = ev.with_profiling();
            }
            if self.limits.allow_partial {
                ev = ev.tolerate_faults();
            }
            ev
        });
        let run =
            |ev: &Evaluator| run(ev).map(|v| (v, ev.quarantine(), ev.stats(), ev.plan_profile()));
        let Some(cat) = &self.catalog else {
            return Ok(ev.and_then(|ev| run(&ev))?);
        };
        let db_fp = database_fingerprint(&self.db, self.spatial.as_deref());
        let Resumable {
            result,
            resumed,
            warnings,
        } = cat.eval_resumable(f, db_fp, self.decomposition, ev, run);
        for w in warnings {
            eprintln!("warning: {w}");
        }
        if resumed {
            writeln!(out, "resumed from store")?;
        }
        Ok(result?)
    }

    /// Post-evaluation observability reporting shared by the evaluation
    /// commands: the `--profile` self-time table and the `--metrics`
    /// registry dump (quarantine counters included).
    fn write_observability(
        &self,
        out: &mut dyn Write,
        f: &RegFormula,
        prof: &[(PlanId, ProfEntry)],
    ) -> std::io::Result<()> {
        if self.limits.profile {
            write_profile(out, f, prof)?;
        }
        if self.limits.metrics {
            writeln!(out, "metrics:")?;
            for line in self.trace.metrics().render().lines() {
                writeln!(out, "  {}", line)?;
            }
        }
        Ok(())
    }

    /// The `explain` output: a header with the plan's reachable node count
    /// and maximum depth, followed by the rendered plan.
    fn write_explain(&self, out: &mut dyn Write, f: &RegFormula) -> std::io::Result<()> {
        let (plan, root) = lcdb_core::compile(f);
        let reachable = plan
            .reference_counts(root)
            .iter()
            .filter(|&&c| c > 0)
            .count();
        writeln!(
            out,
            "explain: nodes={} depth={}",
            reachable,
            lcdb_plan::explain::depth(&plan, root),
        )?;
        write!(out, "{}", explain_query(f))
    }

    /// Run one fallible command body, reporting errors and recording the
    /// exit code; the shell itself keeps going (errors are never fatal to
    /// the REPL).
    fn run_command(
        &mut self,
        out: &mut dyn Write,
        body: impl FnOnce(&mut Self, &mut dyn Write) -> Result<(), CmdError>,
    ) -> std::io::Result<()> {
        match body(self, out) {
            Ok(()) => Ok(()),
            Err(e) => {
                // A budget abort is one of the flight recorder's kill
                // sites: dump the recent trace ring next to the error so
                // the abort can be diagnosed after the fact.
                if let CmdError::Eval(ee) = &e {
                    if ee.is_budget_exhaustion() {
                        let _ = lcdb_trace::recorder::dump_now(&format!("budget:{}", ee));
                    }
                }
                self.exit_code = e.exit_code();
                e.report(out)
            }
        }
    }

    /// Execute one command line; returns false to quit.
    fn execute(&mut self, line: &str, out: &mut dyn Write) -> std::io::Result<bool> {
        let line = line.trim().trim_end_matches(';').trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(true);
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "quit" | "exit" => return Ok(false),
            "help" => {
                writeln!(out, "commands:")?;
                writeln!(out, "  rel NAME(v1, v2, …) := FORMULA   define a relation (FO+LIN, quantifier-free)")?;
                writeln!(out, "  spatial NAME                     choose the designated spatial relation S")?;
                writeln!(out, "  decomposition arrangement|nc1    choose the region decomposition")?;
                writeln!(out, "  regions                          list the regions of B^Reg")?;
                writeln!(out, "  sentence REGFORMULA              evaluate a boolean region-logic sentence")?;
                writeln!(out, "  query REGFORMULA                 evaluate an open query to a QF formula")?;
                writeln!(out, "  connected                        run the §5 connectivity query")?;
                writeln!(out, "  explain REGFORMULA               print the optimized plan with cost annotations")?;
                writeln!(out, "  encode                           print the β(B) tape encoding")?;
                writeln!(out, "  contains NAME p1 p2 …            membership test for a point")?;
                writeln!(out, "  quit                             leave")?;
                writeln!(out, "flags (at startup):")?;
                writeln!(out, "  --timeout SECS --max-iterations N --max-faces N")?;
                writeln!(out, "  --allow-partial        quarantine localized faults (exit code 8)")?;
                writeln!(out, "  --explain              print plans instead of evaluating sentence/query/connected")?;
                writeln!(out, "  --trace FILE           write a JSONL structured trace of every command")?;
                writeln!(out, "  --profile              print a per-plan-node self-time table after evaluations")?;
                writeln!(out, "  --metrics              print the metrics-registry dump after evaluations")?;
                writeln!(out, "  --store DIR            persist arrangements across runs, and resume a run a budget")?;
                writeln!(out, "                         killed from its stored stages (see `lcdb store --help`)")?;
            }
            "rel" | "spatial" => {
                let line = format!("{} {}", cmd, rest);
                match lcdb_server::apply_define(&mut self.db, &mut self.spatial, &line) {
                    Ok(msg) => {
                        self.ext = None;
                        writeln!(out, "{}", msg)?;
                    }
                    Err(e) => {
                        self.exit_code = 1;
                        writeln!(out, "error: {}", e)?;
                    }
                }
            }
            "decomposition" => {
                match rest {
                    "arrangement" => self.decomposition = DecompositionKind::Arrangement,
                    "nc1" => self.decomposition = DecompositionKind::Nc1,
                    other => {
                        self.exit_code = 1;
                        writeln!(out, "error: unknown decomposition '{}'", other)?;
                        return Ok(true);
                    }
                }
                self.ext = None;
                writeln!(out, "decomposition set to {}", rest)?;
            }
            "regions" => self.run_command(out, |sh, out| {
                let budget = sh.limits.budget();
                let ext = sh.extension(&budget)?;
                writeln!(out, "{} regions:", ext.num_regions())?;
                for id in ext.region_ids() {
                    let r = ext.region(id);
                    let w: Vec<String> = r.witness.iter().map(|c| c.to_string()).collect();
                    writeln!(
                        out,
                        "  #{:<3} dim={} bounded={:<5} witness=({})  in-S={}",
                        id,
                        r.dim,
                        r.bounded,
                        w.join(", "),
                        ext.subset_of(id, ext.spatial_relation()),
                    )?;
                }
                Ok(())
            })?,
            "explain" => match parse_regformula(rest) {
                Ok(f) => self.write_explain(out, &f)?,
                Err(e) => {
                    self.exit_code = 1;
                    writeln!(out, "parse error: {}", e)?;
                }
            },
            "sentence" => match parse_regformula(rest) {
                Ok(f) if self.limits.explain => self.write_explain(out, &f)?,
                Ok(f) => self.run_command(out, |sh, out| {
                    let (verdict, q, st, prof) =
                        sh.eval_recoverable(out, &f, |ev| ev.try_eval_sentence(&f))?;
                    writeln!(
                        out,
                        "{}   (lfp stages: {}, qe calls: {})",
                        verdict, st.fix_iterations, st.qe_calls
                    )?;
                    write_partial(sh, out, &q)?;
                    write_stats(out, "stats", &st)?;
                    sh.write_observability(out, &f, &prof)?;
                    Ok(())
                })?,
                Err(e) => {
                    self.exit_code = 1;
                    writeln!(out, "parse error: {}", e)?;
                }
            },
            "query" => match parse_regformula(rest) {
                Ok(f) if self.limits.explain => self.write_explain(out, &f)?,
                Ok(f) => self.run_command(out, |sh, out| {
                    let (answer, q, _, prof) =
                        sh.eval_recoverable(out, &f, |ev| ev.try_eval_query(&f))?;
                    writeln!(out, "{}", answer)?;
                    write_partial(sh, out, &q)?;
                    sh.write_observability(out, &f, &prof)?;
                    Ok(())
                })?,
                Err(e) => {
                    self.exit_code = 1;
                    writeln!(out, "parse error: {}", e)?;
                }
            },
            "connected" if self.limits.explain => {
                self.write_explain(out, &queries::connectivity())?;
            }
            "connected" => self.run_command(out, |sh, out| {
                let f = queries::connectivity();
                let (verdict, q, _, prof) =
                    sh.eval_recoverable(out, &f, |ev| ev.try_eval_sentence(&f))?;
                writeln!(out, "{}", verdict)?;
                write_partial(sh, out, &q)?;
                sh.write_observability(out, &f, &prof)?;
                Ok(())
            })?,
            "encode" => self.run_command(out, |sh, out| {
                let budget = sh.limits.budget();
                let ext = sh.extension(&budget)?;
                writeln!(out, "{}", lcdb_tm::encode::encode(ext))?;
                Ok(())
            })?,
            "contains" => {
                let mut parts = rest.split_whitespace();
                let Some(name) = parts.next() else {
                    writeln!(out, "usage: contains NAME p1 p2 …")?;
                    return Ok(true);
                };
                let Some(rel) = self.db.relation(name) else {
                    self.exit_code = 1;
                    writeln!(out, "error: unknown relation '{}'", name)?;
                    return Ok(true);
                };
                let mut point = Vec::new();
                for p in parts {
                    match p.parse() {
                        Ok(v) => point.push(v),
                        Err(e) => {
                            self.exit_code = 1;
                            writeln!(out, "error: bad coordinate '{}': {}", p, e)?;
                            return Ok(true);
                        }
                    }
                }
                if point.len() != rel.arity() {
                    self.exit_code = 1;
                    writeln!(
                        out,
                        "error: {} has arity {}, got {} coordinates",
                        name,
                        rel.arity(),
                        point.len()
                    )?;
                } else {
                    writeln!(out, "{}", rel.contains(&point))?;
                }
            }
            other => {
                self.exit_code = 1;
                writeln!(out, "error: unknown command '{}' (try `help`)", other)?;
            }
        }
        Ok(true)
    }
}

/// Pull `--timeout SECS`, `--max-iterations N`, `--max-faces N` (also the
/// `--flag=value` forms) out of `args`, returning the limits and the
/// remaining arguments.
fn parse_limit_flags(args: &[String]) -> Result<(Limits, Vec<String>), String> {
    let mut limits = Limits::default();
    let mut rest = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{} needs a value", flag))
        };
        match flag {
            "--timeout" => {
                let v = value(&mut it)?;
                let secs: f64 = v
                    .parse()
                    .map_err(|e| format!("bad --timeout '{}': {}", v, e))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(format!("bad --timeout '{}': must be >= 0", v));
                }
                limits.timeout = Some(Duration::from_secs_f64(secs));
            }
            "--max-iterations" => {
                let v = value(&mut it)?;
                limits.max_iterations = Some(
                    v.parse()
                        .map_err(|e| format!("bad --max-iterations '{}': {}", v, e))?,
                );
            }
            "--max-faces" => {
                let v = value(&mut it)?;
                limits.max_faces = Some(
                    v.parse()
                        .map_err(|e| format!("bad --max-faces '{}': {}", v, e))?,
                );
            }
            "--allow-partial" => {
                limits.allow_partial = true;
            }
            "--explain" => {
                limits.explain = true;
            }
            "--trace" => {
                limits.trace = Some(PathBuf::from(value(&mut it)?));
            }
            "--profile" => {
                limits.profile = true;
            }
            "--metrics" => {
                limits.metrics = true;
            }
            "--store" => {
                limits.store_dir = Some(PathBuf::from(value(&mut it)?));
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((limits, rest))
}

const STORE_USAGE: &str = "\
usage: lcdb store <init|stat|verify|compact> [DIR]

Maintains the plan catalog, a checksummed record log, used by `--store
DIR` (shell) and `lcdb serve --store DIR`. DIR falls back to the shared
`--store` flag when omitted.

  init      create an empty store (error if one already exists)
  stat      print entry, segment, index-checkpoint and replay statistics
  verify    checksum the record of every entry; exit 1 on damage
  compact   seal the active segment and copy the live records of every
            segment holding a dead one forward, deleting it";

/// Why `lcdb store` stopped: a command line it cannot read, answered with
/// the usage text (alone when the message is empty, as for `--help`), or a
/// store operation that failed.
enum StoreError {
    Usage(String),
    Failed(String),
}

impl From<String> for StoreError {
    fn from(message: String) -> Self {
        StoreError::Failed(message)
    }
}

/// `lcdb store <action> [DIR]`: offline maintenance of a plan catalog.
fn run_store(limits: &Limits, args: &[String]) -> Result<(), StoreError> {
    use lcdb_store::Store;
    let mut it = args.iter();
    let action = match it.next().map(String::as_str) {
        None | Some("--help") | Some("-h") => return Err(StoreError::Usage(String::new())),
        Some(a @ ("init" | "stat" | "verify" | "compact")) => a,
        Some(other) => return Err(StoreError::Usage(format!("unknown store action '{}'", other))),
    };
    let dir = it.next().map(PathBuf::from).or_else(|| limits.store_dir.clone()).ok_or_else(|| {
        StoreError::Usage("store needs a directory (positional DIR or --store DIR)".to_string())
    })?;
    if let Some(extra) = it.next() {
        return Err(StoreError::Usage(format!("unexpected argument '{}'", extra)));
    }
    let open = |dir: &std::path::Path| -> Result<Store, String> {
        if !Store::exists(dir) {
            return Err(format!(
                "no store at {} (run `lcdb store init {}`)",
                dir.display(),
                dir.display()
            ));
        }
        Store::open(dir).map_err(|e| e.to_string())
    };
    match action {
        "init" => {
            if Store::exists(&dir) {
                return Err(format!("store already exists at {}", dir.display()).into());
            }
            Store::init(&dir).map_err(|e| e.to_string())?;
            println!("initialized empty store at {}", dir.display());
        }
        "stat" => {
            let store = open(&dir)?;
            let st = store.stat();
            println!("store {}", dir.display());
            println!("  entries     {}", st.entries);
            println!(
                "  log         {} segment(s), {} bytes ({} live blob bytes)",
                st.segments,
                st.pages_bytes + st.wal_bytes,
                st.live_bytes
            );
            println!(
                "  index       covers {} bytes, {} bytes behind it",
                st.pages_bytes, st.wal_bytes
            );
            let torn = st
                .torn_at
                .map(|(seg, at)| format!(", torn tail truncated at segment {seg} byte {at}"))
                .unwrap_or_default();
            println!("  replay      {} record(s) on open{}", st.replayed, torn);
        }
        "verify" => {
            let store = open(&dir)?;
            let rep = store.verify().map_err(|e| e.to_string())?;
            println!(
                "verified {} entr(ies) over {} segment(s)",
                rep.entries, rep.segments
            );
            for (key, err) in &rep.bad_entries {
                println!("  bad entry {}: {}", key, err);
            }
            if !rep.ok {
                return Err(format!(
                    "verification failed: {} bad entr(ies)",
                    rep.bad_entries.len()
                )
                .into());
            }
            println!("ok");
        }
        _ => {
            let mut store = open(&dir)?;
            let (before, after) = store.compact().map_err(|e| e.to_string())?;
            println!("compacted {} -> {} log bytes", before, after);
        }
    }
    Ok(())
}

const STATS_USAGE: &str = "\
usage: lcdb stats <top|latency> [args] [DIR]

Derived views over the telemetry segment of a plan catalog: `lcdb serve
--store DIR` appends one `req` row per request. DIR falls back to the
shared `--store` flag when omitted.

  top [N]              top N plans by total self-time across all `req`
                       rows, with request counts and cache-hit rates
                       [default N: 10]
  latency              per-batch p50/p90/max request latency — one row
                       per server run, oldest first";

/// `lcdb stats <action> [args] [DIR]`: derived views over the telemetry
/// rows persisted in a plan catalog's stats segment. Returns `Err("")` to
/// request the usage text without an error banner.
fn run_stats(limits: &Limits, args: &[String]) -> Result<(), String> {
    use lcdb_store::{json_u64_field, read_stats, read_stats_batched, Store};
    let mut it = args.iter();
    let action = match it.next().map(String::as_str) {
        None | Some("--help") | Some("-h") => return Err(String::new()),
        Some(a @ ("top" | "latency")) => a,
        Some(other) => return Err(format!("unknown stats action '{}'", other)),
    };
    let mut count: Option<usize> = None;
    let mut dir_arg: Option<PathBuf> = None;
    for d in it {
        if action == "top" && count.is_none() && d.chars().all(|c| c.is_ascii_digit()) {
            count = Some(d.parse().map_err(|e| format!("bad count '{}': {}", d, e))?);
        } else if dir_arg.is_none() {
            dir_arg = Some(PathBuf::from(d));
        } else {
            return Err(format!("unexpected argument '{}'", d));
        }
    }
    let dir = dir_arg
        .or_else(|| limits.store_dir.clone())
        .ok_or_else(|| "stats needs a directory (positional DIR or --store DIR)".to_string())?;
    if !Store::exists(&dir) {
        return Err(format!(
            "no store at {} (run `lcdb store init {}`)",
            dir.display(),
            dir.display()
        ));
    }
    let mut store = Store::open(&dir).map_err(|e| e.to_string())?;
    if action == "top" {
        let rows = read_stats(&mut store, "req").map_err(|e| e.to_string())?;
        // plan_fp -> (requests, total self-time, tier>=1 hits)
        let mut by_plan: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
        let mut parsed = 0u64;
        for row in &rows {
            let Some(fp) = json_u64_field(row, "plan_fp") else { continue };
            parsed += 1;
            if fp == 0 {
                continue; // sheds, cancellations, non-eval opcodes
            }
            let e = by_plan.entry(fp).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += json_u64_field(row, "self_us").unwrap_or(0);
            if json_u64_field(row, "tier").unwrap_or(0) >= 1 {
                e.2 += 1;
            }
        }
        let mut ranked: Vec<(u64, (u64, u64, u64))> = by_plan.into_iter().collect();
        ranked.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(&b.0)));
        ranked.truncate(count.unwrap_or(10));
        println!(
            "top {} plan(s) by self-time over {} request row(s):",
            ranked.len(),
            parsed
        );
        println!(
            "  {:<16}  {:>6}  {:>10}  {:>8}  {:>6}",
            "plan_fp", "reqs", "self_us", "mean_us", "cached"
        );
        for (fp, (reqs, self_us, hits)) in &ranked {
            println!(
                "  {:016x}  {:>6}  {:>10}  {:>8}  {:>5}%",
                fp,
                reqs,
                self_us,
                self_us / reqs.max(&1),
                100 * hits / reqs.max(&1),
            );
        }
    } else {
        let batches = read_stats_batched(&mut store, "req").map_err(|e| e.to_string())?;
        println!("request latency per batch (oldest first):");
        println!(
            "  {:<14}  {:>6}  {:>8}  {:>8}  {:>8}",
            "batch", "rows", "p50_us", "p90_us", "max_us"
        );
        for (name, rows) in &batches {
            let mut walls: Vec<u64> = rows
                .iter()
                .filter_map(|r| json_u64_field(r, "wall_us"))
                .collect();
            if walls.is_empty() {
                continue;
            }
            walls.sort_unstable();
            let q = |p: usize| walls[(walls.len() - 1) * p / 100];
            println!(
                "  {:<14}  {:>6}  {:>8}  {:>8}  {:>8}",
                name,
                walls.len(),
                q(50),
                q(90),
                walls[walls.len() - 1],
            );
        }
    }
    Ok(())
}

const SERVE_USAGE: &str = "\
usage: lcdb serve [SCRIPT] [options]

Runs the concurrent query server until a client sends Shutdown (or the
process is killed). SCRIPT's `rel`/`spatial` lines preload the base
database every session starts from.

serve options:
  --addr HOST:PORT      bind address (port 0 = OS-assigned) [default: 127.0.0.1:7171]
  --max-sessions N      live-session cap; excess connections are shed [default: 64]
  --queue-cap N         global admission-queue bound        [default: 128]
  --client-queue N      per-client queued-request bound     [default: 16]
  --workers N           dispatch worker threads             [default: 2]
  --cache N             result-cache entries (0 disables)   [default: 256]
  --idle-secs N         drop idle connections after N s     [default: 30]
  --store DIR           persistent plan catalog: warm-start results and
                        arrangements across restarts        [default: off]

shared flags (parsed before the subcommand):
  --timeout SECS        default per-request deadline        [default: 10]
  --trace FILE          JSONL trace of every request";

/// Parse serve-specific flags into a [`lcdb_server::ServerConfig`]. The
/// shared `Limits` flags (`--timeout`, `--trace`) were already
/// stripped by `parse_limit_flags`; whatever positional argument remains is
/// a script whose lines seed the base database.
fn parse_serve_flags(
    limits: &Limits,
    args: &[String],
) -> Result<lcdb_server::ServerConfig, String> {
    let mut cfg = lcdb_server::ServerConfig {
        addr: "127.0.0.1:7171".into(),
        ..lcdb_server::ServerConfig::default()
    };
    if let Some(t) = limits.timeout {
        cfg.default_timeout = t;
    }
    cfg.store_dir = limits.store_dir.clone();
    let mut script: Option<String> = None;
    let mut it = args.iter();
    let need = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{} needs a value", flag))
    };
    let parse =
        |v: String, flag: &str| v.parse().map_err(|_| format!("bad {} value '{}'", flag, v));
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = need(&mut it, "--addr")?,
            "--max-sessions" => {
                cfg.max_sessions = parse(need(&mut it, "--max-sessions")?, "--max-sessions")?
            }
            "--queue-cap" => {
                cfg.queue_capacity = parse(need(&mut it, "--queue-cap")?, "--queue-cap")?
            }
            "--client-queue" => {
                cfg.per_client_queue = parse(need(&mut it, "--client-queue")?, "--client-queue")?
            }
            "--workers" => cfg.workers = parse(need(&mut it, "--workers")?, "--workers")?,
            "--cache" => cfg.cache_capacity = parse(need(&mut it, "--cache")?, "--cache")?,
            "--idle-secs" => {
                let v = need(&mut it, "--idle-secs")?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| format!("bad --idle-secs value '{}'", v))?;
                cfg.idle_timeout = Duration::from_secs(secs);
            }
            "--store" => cfg.store_dir = Some(PathBuf::from(need(&mut it, "--store")?)),
            "--help" | "-h" => return Err(String::new()),
            other if !other.starts_with('-') && script.is_none() => {
                script = Some(other.to_string())
            }
            other => return Err(format!("unknown serve flag '{}'", other)),
        }
    }
    if let Some(path) = script {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {}", path, e))?;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            cfg.base_db.push(line.to_string());
        }
    }
    // Validate the preamble up front: a bad base database should be a
    // startup error, not a surprise inside every session.
    {
        let mut db = Database::new();
        let mut spatial = None;
        for line in &cfg.base_db {
            lcdb_server::apply_define(&mut db, &mut spatial, line)
                .map_err(|e| format!("base database line '{}': {}", line, e))?;
        }
    }
    Ok(cfg)
}

/// `lcdb serve`: run the query server in the foreground until a protocol
/// Shutdown arrives. Prints the bound address first (flushed) so wrappers
/// can discover an OS-assigned port.
fn run_serve(limits: &Limits, args: &[String]) -> Result<(), String> {
    let cfg = parse_serve_flags(limits, args)?;
    let trace = match &limits.trace {
        Some(path) => match JsonlTracer::create(path) {
            Ok(t) => TraceHandle::new(Arc::new(t)),
            Err(e) => {
                eprintln!(
                    "warning: cannot open trace file '{}': {} (tracing disabled)",
                    path.display(),
                    e
                );
                TraceHandle::disabled()
            }
        },
        None => TraceHandle::disabled(),
    };
    let server = lcdb_server::Server::start(cfg, trace).map_err(|e| format!("bind: {}", e))?;
    println!("listening on {}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    server.wait();
    Ok(())
}

fn main() -> std::process::ExitCode {
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let (limits, args) = match parse_limit_flags(&raw_args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {}", e);
            return std::process::ExitCode::from(1);
        }
    };
    // Fault-injection builds arm a plan from LCDB_FAULT_SITE for the whole
    // process, so integration tests can provoke exit codes 8 and 9.
    #[cfg(feature = "faults")]
    let _fault_guard = lcdb_budget::faults::FaultPlan::from_env().map(|p| p.arm());

    // The always-on flight recorder: recent trace events ring-buffered per
    // thread, dumped on panic, quarantine, injected faults and budget
    // aborts (set LCDB_OBS_DIR to receive the dumps).
    lcdb_trace::recorder::init();

    if args.first().map(String::as_str) == Some("store") {
        return match run_store(&limits, &args[1..]) {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(StoreError::Usage(msg)) if msg.is_empty() => {
                println!("{}", STORE_USAGE);
                std::process::ExitCode::SUCCESS
            }
            Err(StoreError::Usage(msg)) => {
                eprintln!("error: {}\n{}", msg, STORE_USAGE);
                std::process::ExitCode::from(1)
            }
            Err(StoreError::Failed(msg)) => {
                eprintln!("error: {}", msg);
                std::process::ExitCode::from(1)
            }
        };
    }

    if args.first().map(String::as_str) == Some("stats") {
        return match run_stats(&limits, &args[1..]) {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(msg) if msg.is_empty() => {
                println!("{}", STATS_USAGE);
                std::process::ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {}\n{}", msg, STATS_USAGE);
                std::process::ExitCode::from(1)
            }
        };
    }

    if args.first().map(String::as_str) == Some("serve") {
        return match run_serve(&limits, &args[1..]) {
            Ok(()) => std::process::ExitCode::SUCCESS,
            Err(msg) if msg.is_empty() => {
                println!("{}", SERVE_USAGE);
                std::process::ExitCode::SUCCESS
            }
            Err(msg) => {
                eprintln!("error: {}\n{}", msg, SERVE_USAGE);
                std::process::ExitCode::from(1)
            }
        };
    }

    let mut shell = Shell::with_limits(limits);
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    let run = |shell: &mut Shell, out: &mut dyn Write| -> std::io::Result<()> {
        // One-shot mode: -e "cmd" (repeatable).
        if args.first().map(String::as_str) == Some("-e") {
            for cmd in args[1..].iter() {
                if !shell.execute(cmd, out)? {
                    break;
                }
            }
            return Ok(());
        }

        // Script mode: each non-empty line of each file is a command.
        if !args.is_empty() {
            for path in &args {
                let text = std::fs::read_to_string(path)?;
                for line in text.lines() {
                    if !shell.execute(line, out)? {
                        return Ok(());
                    }
                }
            }
            return Ok(());
        }

        // Interactive REPL.
        writeln!(out, "lcdb — linear constraint databases with region logics")?;
        writeln!(out, "type `help` for commands, `quit` to leave")?;
        let stdin = std::io::stdin();
        loop {
            write!(out, "lcdb> ")?;
            out.flush()?;
            let mut line = String::new();
            if stdin.lock().read_line(&mut line)? == 0 {
                break;
            }
            if !shell.execute(&line, out)? {
                break;
            }
        }
        // Interactive sessions report errors inline rather than via the
        // exit status.
        shell.exit_code = 0;
        Ok(())
    };

    let result = run(&mut shell, &mut out);
    shell.trace.flush();
    match result {
        Ok(()) => std::process::ExitCode::from(shell.exit_code.clamp(0, 255) as u8),
        Err(e) => {
            eprintln!("error: {}", e);
            std::process::ExitCode::from(1)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn run(cmds: &[&str]) -> String {
        run_shell(Limits::default(), cmds).0
    }

    fn run_shell(limits: Limits, cmds: &[&str]) -> (String, i32) {
        let mut shell = Shell::with_limits(limits);
        let mut out = Vec::new();
        for c in cmds {
            let cont = shell.execute(c, &mut out).unwrap();
            if !cont {
                break;
            }
        }
        (String::from_utf8(out).unwrap(), shell.exit_code)
    }

    #[test]
    fn define_and_query() {
        let out = run(&[
            "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)",
            "connected",
            "contains S 1/2",
            "contains S 3/2",
        ]);
        assert!(out.contains("defined S"));
        assert!(out.contains("false"), "{}", out);
        assert!(out.contains("true"), "{}", out);
    }

    #[test]
    fn sentence_and_query_commands() {
        let out = run(&[
            "rel S(x) := 0 < x and x < 2",
            "sentence exists R. R subset S",
            "query exists x. S(x) and y = x + 1",
        ]);
        assert!(out.contains("true"), "{}", out);
        assert!(out.contains("y"), "query output mentions y: {}", out);
    }

    #[test]
    fn regions_listing() {
        let out = run(&["rel S(x) := 0 < x and x < 1", "regions"]);
        assert!(out.contains("5 regions"), "{}", out);
        assert!(out.contains("in-S=true"), "{}", out);
    }

    #[test]
    fn decomposition_switch() {
        let out = run(&[
            "rel S(x) := 0 <= x and x <= 1",
            "decomposition nc1",
            "regions",
        ]);
        assert!(out.contains("3 regions"), "{}", out);
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let out = run(&[
            "sentence true",
            "rel S := junk",
            "rel S(x) := 0 < x",
            "spatial T",
            "decomposition weird",
            "contains S 1 2",
            "nonsense",
        ]);
        assert!(out.contains("no relation defined yet"));
        assert!(out.contains("error"));
        assert!(out.contains("unknown command"));
        assert!(out.contains("arity"));
    }

    #[test]
    fn encode_command() {
        let out = run(&["rel S(x) := 0 < x and x < 2", "encode"]);
        assert!(out.contains('@'), "{}", out);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let out = run(&["# a comment", "", "   "]);
        assert!(out.is_empty());
    }

    #[test]
    fn rel_parse_failures() {
        for bad in [
            "S(x) : = foo",
            "(x) := x < 1",
            "S() := x < 1",
            "S(x) := x <",
            "S(x) := y < 1",
            "S(x) := exists y. y < x",
            "S(x) := T(x)",
        ] {
            let (out, code) = run_shell(Limits::default(), &[&format!("rel {bad}")]);
            assert_eq!(code, 1, "{bad}: {out}");
            assert!(out.starts_with("error: "), "{bad}: {out}");
        }
        let out = run(&["rel S(x, y) := x < y", "contains S 0 1", "contains S 1 0"]);
        assert_eq!(out, "defined S\ntrue\nfalse\n");
    }

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--timeout", "2.5", "--max-iterations=7", "-e", "help"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (limits, rest) = parse_limit_flags(&args).unwrap();
        assert_eq!(limits.timeout, Some(Duration::from_millis(2500)));
        assert_eq!(limits.max_iterations, Some(7));
        assert_eq!(limits.max_faces, None);
        assert_eq!(rest, vec!["-e".to_string(), "help".to_string()]);
        assert!(parse_limit_flags(&["--timeout".to_string()]).is_err());
        assert!(parse_limit_flags(&["--max-faces=lots".to_string()]).is_err());
    }

    #[test]
    fn new_flag_parsing() {
        let args: Vec<String> = ["--store=cat", "--trace", "t.jsonl", "--allow-partial"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (limits, rest) = parse_limit_flags(&args).unwrap();
        assert_eq!(limits.store_dir, Some(PathBuf::from("cat")));
        assert_eq!(limits.trace, Some(PathBuf::from("t.jsonl")));
        assert!(limits.allow_partial);
        assert!(rest.is_empty());
        assert!(parse_limit_flags(&["--store".to_string()]).is_err());
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_flag_parsing() {
        // Defaults: well-known port, shared limits mapped through.
        let limits = Limits {
            timeout: Some(Duration::from_secs(2)),
            ..Limits::default()
        };
        let cfg = parse_serve_flags(&limits, &[]).unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:7171");
        assert_eq!(cfg.default_timeout, Duration::from_secs(2));

        let cfg = parse_serve_flags(
            &Limits::default(),
            &strs(&[
                "--addr",
                "127.0.0.1:0",
                "--max-sessions",
                "5",
                "--queue-cap",
                "9",
                "--client-queue",
                "2",
                "--workers",
                "4",
                "--cache",
                "0",
                "--idle-secs",
                "7",
            ]),
        )
        .unwrap();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.max_sessions, 5);
        assert_eq!(cfg.queue_capacity, 9);
        assert_eq!(cfg.per_client_queue, 2);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.cache_capacity, 0);
        assert_eq!(cfg.idle_timeout, Duration::from_secs(7));

        // --help is the empty-message sentinel; junk flags are errors.
        assert_eq!(
            parse_serve_flags(&Limits::default(), &strs(&["--help"])),
            Err(String::new())
        );
        assert!(parse_serve_flags(&Limits::default(), &strs(&["--bogus"])).is_err());
        assert!(parse_serve_flags(&Limits::default(), &strs(&["--addr"])).is_err());
    }

    #[test]
    fn serve_script_seeds_and_validates_base_db() {
        let dir = std::env::temp_dir().join(format!("lcdb-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let good = dir.join("good.lcdb");
        std::fs::write(&good, "# preamble\n\nrel S(x) := 0 < x and x < 1\nspatial S\n").unwrap();
        let cfg =
            parse_serve_flags(&Limits::default(), &strs(&[good.to_str().unwrap()])).unwrap();
        assert_eq!(
            cfg.base_db,
            vec!["rel S(x) := 0 < x and x < 1".to_string(), "spatial S".to_string()]
        );

        // A bad base database is a startup error, not a per-session one.
        let bad = dir.join("bad.lcdb");
        std::fs::write(&bad, "rel S(x) := not a formula\n").unwrap();
        let err =
            parse_serve_flags(&Limits::default(), &strs(&[bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("base database line"), "{}", err);

        let err = parse_serve_flags(&Limits::default(), &strs(&["/no/such/script.lcdb"]))
            .unwrap_err();
        assert!(err.contains("reading"), "{}", err);
        std::fs::remove_dir_all(&dir).ok();
    }

    const GAPPED: &str = "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)";

    #[test]
    fn explain_command_and_flag() {
        // The command needs no relation: plans are pure syntax.
        let out = run(&["explain exists R. R subset S"]);
        assert!(out.contains("plan"), "{}", out);
        assert!(out.contains("cost="), "{}", out);
        assert!(out.contains("subset"), "{}", out);
        // The flag turns evaluation commands into explain-only ones; no
        // extension is built, so no `rel` is needed and no stats appear.
        let (out, code) = run_shell(
            Limits {
                explain: true,
                ..Limits::default()
            },
            &["sentence exists R. R subset S", "connected", "query exists x. x in S"],
        );
        assert_eq!(code, 0, "{}", out);
        assert!(out.contains("cost="), "{}", out);
        assert!(!out.contains("stats:"), "{}", out);
        // Flag parsing.
        let (limits, rest) = parse_limit_flags(&["--explain".to_string()]).unwrap();
        assert!(limits.explain);
        assert!(rest.is_empty());
        // Parse errors still report.
        let (out, code) = run_shell(Limits::default(), &["explain ((("]);
        assert!(out.contains("parse error"), "{}", out);
        assert_eq!(code, 1);
    }

    #[test]
    fn explain_header_reports_nodes_and_depth() {
        let (out, code) = run_shell(
            Limits {
                explain: true,
                ..Limits::default()
            },
            &["sentence exists R. R subset S"],
        );
        assert_eq!(code, 0, "{}", out);
        let header = out.lines().next().unwrap_or("");
        assert!(header.starts_with("explain: nodes="), "{}", out);
        assert!(header.contains("depth="), "{}", out);
        // The explain *command* prints the same header.
        let out = run(&["explain exists R. R subset S"]);
        assert!(out.starts_with("explain: nodes="), "{}", out);
    }

    #[test]
    fn profile_flag_prints_self_time_table() {
        let (out, code) = run_shell(
            Limits {
                profile: true,
                ..Limits::default()
            },
            &[GAPPED, "connected"],
        );
        assert_eq!(code, 0, "{}", out);
        assert!(out.contains("profile: nodes="), "{}", out);
        assert!(out.contains("eval-total="), "{}", out);
        assert!(out.contains("self-sum="), "{}", out);
        // Rows use the same #id labels as explain output.
        assert!(out.lines().any(|l| l.trim_start().starts_with('#')), "{}", out);
    }

    #[test]
    fn metrics_flag_dumps_registry() {
        let (out, code) = run_shell(
            Limits {
                metrics: true,
                ..Limits::default()
            },
            &[GAPPED, "connected"],
        );
        assert_eq!(code, 0, "{}", out);
        assert!(out.contains("metrics:"), "{}", out);
        assert!(out.contains("stats.fix_iterations"), "{}", out);
    }

    #[test]
    fn trace_flag_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("lcdb-cli-trace-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (out, code) = run_shell(
            Limits {
                trace: Some(path.clone()),
                ..Limits::default()
            },
            &[GAPPED, "connected"],
        );
        assert_eq!(code, 0, "{}", out);
        drop(out);
        // The in-process shell is dropped by run_shell, flushing the sink.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty(), "trace file is empty");
        let events: Vec<lcdb_core::TraceEvent> = text
            .lines()
            .map(|l| {
                lcdb_core::TraceEvent::parse_jsonl(l)
                    .unwrap_or_else(|| panic!("unparseable trace line '{}'", l))
            })
            .collect();
        let summary = lcdb_core::trace_aggregate(&events);
        assert_eq!(summary.unbalanced, 0, "unbalanced spans in trace");
        assert!(events.iter().all(|e| e.thread > 0), "thread ids present");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_then_resume_completes() {
        let dir = std::env::temp_dir().join(format!("lcdb-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let with_store = |max_iterations| Limits {
            max_iterations,
            store_dir: Some(dir.clone()),
            ..Limits::default()
        };
        // Kill the connectivity LFP mid-flight: its stages go to the store.
        let (out, code) = run_shell(with_store(Some(1)), &[GAPPED, "connected"]);
        assert_eq!(code, 3, "{}", out);
        assert!(!out.contains("resumed from"), "{}", out);
        // The stages belong to `connected`: a different query over the same
        // database neither sees them nor disturbs them.
        let (out3, code3) = run_shell(
            with_store(None),
            &[GAPPED, "sentence exists R. R subset S"],
        );
        assert_eq!(code3, 0, "{}", out3);
        assert!(!out3.contains("resumed from"), "{}", out3);
        // The same command under a fresh budget: same verdict as an
        // uninterrupted run, and the stages are consumed by the success.
        for resumed in [true, false] {
            let (out2, code2) = run_shell(with_store(None), &[GAPPED, "connected"]);
            assert_eq!(code2, 0, "{}", out2);
            assert_eq!(out2.contains("resumed from store"), resumed, "{}", out2);
            assert!(out2.contains("false"), "{}", out2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn iteration_limit_reports_partial_stats_and_exit_code() {
        let (out, code) = run_shell(
            Limits {
                max_iterations: Some(1),
                ..Limits::default()
            },
            &[
                "rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)",
                "connected",
            ],
        );
        assert!(out.contains("iteration limit"), "{}", out);
        assert!(out.contains("partial stats"), "{}", out);
        assert_eq!(code, 3, "{}", out);
    }

    #[test]
    fn face_limit_aborts_extension_build() {
        let (out, code) = run_shell(
            Limits {
                max_faces: Some(2),
                ..Limits::default()
            },
            &["rel S(x) := (0 < x and x < 1) or (2 < x and x < 3)", "regions"],
        );
        assert!(out.contains("face limit"), "{}", out);
        assert_eq!(code, 4, "{}", out);
    }

    #[test]
    fn zero_timeout_exceeds_deadline() {
        let (out, code) = run_shell(
            Limits {
                timeout: Some(Duration::from_secs(0)),
                ..Limits::default()
            },
            &["rel S(x) := 0 < x and x < 1", "connected"],
        );
        assert!(out.contains("deadline"), "{}", out);
        assert_eq!(code, 2, "{}", out);
    }

    #[test]
    fn success_resets_nothing_and_stats_printed() {
        let (out, code) = run_shell(
            Limits::default(),
            &["rel S(x) := 0 < x and x < 1", "sentence exists R. R subset S"],
        );
        assert!(out.contains("stats: regions="), "{}", out);
        assert_eq!(code, 0, "{}", out);
    }
}
