//! Observability integration tests: the JSONL/in-memory trace streams must
//! *reconcile exactly* with the [`EvalStats`] counters the evaluator
//! returns, the per-plan-node profile must telescope (self times sum to the
//! root's total), and quarantined units must be visible in both the metrics
//! registry and the event stream.

#![allow(clippy::unwrap_used)]

use lcdb_core::work::{self, Work};
use lcdb_core::{
    parse_regformula, queries, ArrangementRegions, Decomposition, DecompositionKind, EvalBudget,
    EvalStats, Evaluator, RegFormula, RegionExtension,
};
use lcdb_logic::{parse_formula, Database, Relation};
use lcdb_trace::{aggregate, Event, EventKind, JsonlTracer, MemoryTracer, TraceHandle};
use proptest::prelude::*;
use std::sync::Arc;

fn relation(src: &str, vars: &[&str]) -> Relation {
    Relation::new(
        vars.iter().map(|v| v.to_string()).collect(),
        parse_formula(src).unwrap(),
    )
}

/// Two intervals with a gap: the connectivity fixpoint needs several stages.
fn gapped_ext() -> RegionExtension {
    RegionExtension::arrangement(relation(
        "(0 < x and x < 1) or (2 < x and x < 3)",
        &["x"],
    ))
}

/// The GIS river database of Fig. 6: a river stretch with a spring and two
/// chemical spills.
fn river_ext() -> RegionExtension {
    let mut db = Database::new();
    db.insert("S", relation("0 <= x and x <= 10", &["x"]));
    db.insert("river", relation("0 <= x and x <= 10", &["x"]));
    db.insert("spring", relation("x = 0", &["x"]));
    db.insert("chem1", relation("1 < x and x < 2", &["x"]));
    db.insert("chem2", relation("4 < x and x < 5", &["x"]));
    RegionExtension::try_new(db, "S", DecompositionKind::Arrangement, &EvalBudget::unlimited())
        .unwrap()
}

/// Evaluate `f` with an in-memory sink attached and return the recorded
/// events together with the evaluator's final stats.
fn traced_eval(ext: &RegionExtension, f: &RegFormula) -> (Vec<Event>, EvalStats) {
    let mem = Arc::new(MemoryTracer::new());
    let trace = TraceHandle::new(mem.clone());
    let ev = Evaluator::with_budget(ext, lcdb_core::EvalBudget::unlimited()).with_trace(trace);
    assert!(ev.try_eval_sentence(f).is_ok());
    (mem.events(), ev.stats())
}

/// Satellite: a JSONL trace replayed through the aggregator reproduces the
/// same iteration/tuple/region counts the evaluator returned as stats.
fn assert_trace_matches_stats(events: &[Event], st: &EvalStats) {
    let sum = aggregate(events);
    assert_eq!(sum.counter("stats.fix_iterations"), st.fix_iterations as u64);
    assert_eq!(sum.counter("stats.fix_tuple_tests"), st.fix_tuple_tests as u64);
    assert_eq!(sum.counter("stats.qe_calls"), st.qe_calls as u64);
    assert_eq!(
        sum.counter("stats.region_expansions"),
        st.region_expansions as u64
    );
    assert_eq!(sum.counter("stats.tc_edge_tests"), st.tc_edge_tests as u64);
    assert_eq!(sum.counter("stats.regions"), st.regions as u64);
    assert_eq!(
        sum.counter("stats.plan_cache_lookups"),
        st.plan_cache_lookups as u64
    );
    assert_eq!(
        sum.counter("stats.plan_cache_hits"),
        st.plan_cache_hits as u64
    );
    assert_eq!(sum.unbalanced, 0, "every span enter has a matching exit");
}

#[test]
fn trace_reconciles_with_stats_on_connectivity() {
    let ext = gapped_ext();
    let (events, st) = traced_eval(&ext, &queries::connectivity());
    assert!(st.fix_iterations > 0, "connectivity iterates");
    assert_trace_matches_stats(&events, &st);
    // The span hierarchy mentions the fixpoint stages and the entry span.
    assert!(events.iter().any(|e| e.name == "eval.sentence"));
    assert!(events.iter().any(|e| e.name == "fix.run"));
    assert!(events.iter().any(|e| e.name == "fix.stage"));
}

#[test]
fn trace_reconciles_with_stats_on_gis_river() {
    let ext = river_ext();
    let (events, st) = traced_eval(&ext, &queries::river_pollution());
    assert!(st.fix_iterations > 0, "the river LFP iterates");
    assert_trace_matches_stats(&events, &st);
}

/// With tracing on, an entry's LP work lands in the registry beside the
/// elimination histogram, and equals the solver's own count in the ledger.
#[test]
fn lp_counters_reach_the_registry() {
    let ext = RegionExtension::arrangement(relation("0 <= x and x <= 4", &["x"]));
    let query = parse_regformula(
        "exists x. exists y. S(x) and ((y < x and 1 < y) or (y > x + 2 and y < 5)) and y + x <= 6",
    )
    .unwrap();
    let trace = TraceHandle::new(Arc::new(MemoryTracer::new()));
    let ev = Evaluator::new(&ext).with_trace(trace.clone());
    let before = work::snapshot();
    assert!(ev.eval_sentence(&query));
    let cold = before.since();
    // Its matrix is distributed undecided, and once `y` is projected away
    // the rows are in `x` alone, whose box is exact: a point of the box
    // decides every disjunct, and no LP runs.
    assert_eq!(cold[Work::LpSolves], 0, "the elimination ran an LP");
    // Too many clauses to distribute blindly (2⁶ paths), so the conversion
    // prunes as it goes, and alternatives of one atom each share a solved
    // prefix: the warm path.
    let siblings = parse_regformula(
        "exists x. exists y. S(x) and (y < x or y > x + 1) and (y < x + 2 or y > x + 3) \
         and (y + x < 1 or y + x > 2) and (y + x < 3 or y + x > 4) \
         and (y - 2*x < 0 or y - 2*x > 1) and (y + 2*x < 5 or y + 2*x > 6)",
    )
    .unwrap();
    assert!(ev.eval_sentence(&siblings));
    let spent = before.since();
    assert!(spent[Work::LpWarmProbes] > cold[Work::LpWarmProbes], "no sibling was probed warm");
    let counters = trace.metrics().counter_snapshot();
    assert_eq!(counters["lp.solves"], spent[Work::LpSolves]);
    assert_eq!(counters["lp.warm_probes"], spent[Work::LpWarmProbes]);
    assert_eq!(counters["lp.pivots"], spent[Work::LpPivots]);
    // So does the layer above the solver: every feasibility decision of the
    // two conversions is a witness hit, a box refutation, a point hit or an
    // LP (no run of these sentences is constant-false), and an LP is a solve
    // or a probe.
    let delta = |w: Work| {
        assert_eq!(counters[w.name()], spent[w], "{}", w.name());
        spent[w]
    };
    let decisions = delta(Work::DnfDecisions);
    let hits = delta(Work::DnfWitnessHits);
    let refuted = delta(Work::DnfBoxRefuted);
    let points = delta(Work::DnfPointHits);
    let lps = delta(Work::DnfLpDecided);
    assert_eq!(decisions, hits + refuted + points + lps);
    assert!(hits > 0 && refuted > 0 && lps > 0, "{hits} hits, {refuted} refuted, {lps} LPs");
    // (A solve is also how a warm batch comes to be: no equality here.)
    assert!(lps <= counters["lp.solves"] + counters["lp.warm_probes"]);
    assert_eq!(trace.metrics().histogram("qe.eliminate_us").count(), 2);
    assert_eq!(ev.stats().qe_calls, 4, "two blocks of two variables");
}

/// An open query's closing conversion to DNF (at least one decision per
/// disjunct of the answer) is part of the entry's work: every registry
/// counter the evaluator feeds equals the ledger over the whole call.
#[test]
fn an_open_query_counts_its_closing_conversion() {
    let ext = RegionExtension::arrangement(relation("0 <= x and x <= 4", &["x"]));
    let query = parse_regformula("exists y. S(y) and y < x and x < y + 1").unwrap();
    let trace = TraceHandle::new(Arc::new(MemoryTracer::new()));
    let ev = Evaluator::new(&ext).with_trace(trace.clone());
    let before = work::snapshot();
    let answer = ev.eval_query(&query);
    let spent = before.since();
    assert!(answer != lcdb_logic::Formula::False, "{answer}");
    assert!(spent[Work::DnfDecisions] > 0);
    let counters = trace.metrics().counter_snapshot();
    for w in Work::ALL.into_iter().filter(|w| ["lp.", "logic."].iter().any(|l| w.name().starts_with(l))) {
        assert_eq!(counters[w.name()], spent[w], "{}", w.name());
    }
}

/// A build reports its face count and the cells its levels crossed. Three
/// lines in general position, by hand: the first crosses the plane (1), the
/// second crosses all three cells of the first (3), the third passes through
/// three open cells and two rays (5) — 9 splits, each adding two faces to
/// the initial one: 19.
#[test]
fn arrangement_build_counts_faces_and_split_cells() {
    let trace = TraceHandle::new(Arc::new(MemoryTracer::new()));
    let triangle = relation("x >= 0 and y >= 0 and x + y <= 1", &["x", "y"]);
    let mut db = lcdb_logic::Database::new();
    db.insert("S", triangle);
    let budget = lcdb_core::EvalBudget::unlimited();
    let regions = ArrangementRegions::try_new(db, "S", &budget, &trace).unwrap();
    assert_eq!(regions.num_regions(), 19);
    let counters = trace.metrics().counter_snapshot();
    assert_eq!(counters["geom.faces_built"], 19);
    assert_eq!(counters["geom.cells_split"], 9);
}

#[test]
fn jsonl_roundtrip_preserves_the_event_stream() {
    let path = std::env::temp_dir().join(format!("lcdb-trace-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ext = gapped_ext();
    let st;
    {
        let trace = TraceHandle::new(Arc::new(JsonlTracer::create(&path).unwrap()));
        let ev = Evaluator::with_budget(&ext, lcdb_core::EvalBudget::unlimited())
            .with_trace(trace.clone());
        assert!(ev.try_eval_sentence(&queries::connectivity()).is_ok());
        st = ev.stats();
        trace.flush();
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|l| Event::parse_jsonl(l).unwrap_or_else(|| panic!("bad line: {l}")))
        .collect();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.thread >= 1), "thread ids present");
    // Round-tripping through the wire format loses nothing the aggregator
    // needs: the parsed stream reconciles with stats just like a live one.
    assert_trace_matches_stats(&events, &st);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn profile_self_times_sum_to_root_total() {
    for (ext, f) in [
        (gapped_ext(), queries::connectivity()),
        (river_ext(), queries::river_pollution()),
    ] {
        let ev = Evaluator::new(&ext).with_profiling();
        ev.eval_sentence(&f);
        let prof = ev.plan_profile();
        assert!(!prof.is_empty());
        let (plan, root) = lcdb_core::compile(&f);
        let root_total = prof
            .iter()
            .find(|(id, _)| *id == root)
            .map(|(_, e)| e.total_ns)
            .expect("root node profiled");
        let self_sum: u64 = prof.iter().map(|(_, e)| e.self_ns).sum();
        // Telescoping: every child's total is subtracted from exactly one
        // parent's self time, so the sum collapses to the root's total.
        // Allow ~1µs per node of clock-read rounding.
        let slack = prof.len() as u64 * 1_000;
        assert!(
            self_sum <= root_total + slack && root_total <= self_sum + slack,
            "self-sum {self_sum} vs root total {root_total} (slack {slack})"
        );
        // Every profiled node is a reachable plan node — the ids line up
        // with what `explain` prints for the same query.
        let refs = plan.reference_counts(root);
        for (id, e) in &prof {
            assert!(refs[*id as usize] > 0, "unreachable node {id} profiled");
            assert!(e.visits >= e.memo_hits, "memo hits bounded by visits");
        }
    }
}

#[test]
fn quarantine_is_visible_in_metrics_and_marks() {
    // One disjunct references an unknown relation: a localized query defect
    // that `tolerate_faults` quarantines instead of aborting on.
    // The defective disjunct goes first: `or` short-circuits on true.
    let f = parse_regformula(
        "(exists R. R subset BOGUS) or (exists R. R subset S)",
    )
    .unwrap();
    let ext = gapped_ext();
    let mem = Arc::new(MemoryTracer::new());
    let trace = TraceHandle::new(mem.clone());
    let ev = Evaluator::with_budget(&ext, lcdb_core::EvalBudget::unlimited())
        .with_trace(trace.clone())
        .tolerate_faults();
    assert!(ev.try_eval_sentence(&f).unwrap(), "the healthy disjunct still answers");
    assert!(ev.quarantine().units() > 0, "expected a partial outcome");
    // Registry: quarantine counters survive even without an event sink.
    // (The defect here is absorbed per-region, inside the quantifier.)
    let quarantine_total: u64 = trace
        .metrics()
        .counter_snapshot()
        .iter()
        .filter(|(name, _)| name.starts_with("quarantine."))
        .map(|(_, v)| *v)
        .sum();
    assert!(quarantine_total >= 1, "quarantine counters in the registry");
    // Event stream: one mark per absorbed unit, naming the fault site.
    let marks: Vec<Event> = mem
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Mark && e.name == "quarantine")
        .collect();
    assert!(!marks.is_empty(), "quarantine marks emitted");
    assert!(
        marks.iter().all(|m| m.detail.contains("site=")),
        "marks carry the fault site: {marks:?}"
    );
    assert!(
        marks.iter().any(|m| m.detail.contains("BOGUS")),
        "the site names the defect: {marks:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The plan-cache counters stay coherent (`lookups >= hits`).
    #[test]
    fn plan_cache_counters_coherent(gap in 1i64..4) {
        let src = format!("(0 < x and x < 1) or ({gap} < x and x < {})", gap + 1);
        let ext = RegionExtension::arrangement(relation(&src, &["x"]));
        let ev = Evaluator::with_budget(&ext, lcdb_core::EvalBudget::unlimited());
        prop_assert!(ev.try_eval_sentence(&queries::connectivity()).is_ok());
        let st = ev.stats();
        prop_assert!(
            st.plan_cache_lookups >= st.plan_cache_hits,
            "lookups {} < hits {}",
            st.plan_cache_lookups, st.plan_cache_hits,
        );
        // Conn's body is rebuilt at every stage, but its stage-invariant
        // operands (the `⊆ S` leaves, adjacency) are tables built once and
        // asked for again; and a lookup is a request for a whole table —
        // at most plan nodes × stages of them, never one per binding.
        prop_assert!(st.plan_cache_hits > 0, "no table of Conn's body was reused");
        prop_assert!(
            st.plan_cache_lookups <= st.plan_nodes * (st.fix_iterations + 1),
            "{} lookups for {} nodes x {} stages",
            st.plan_cache_lookups, st.plan_nodes, st.fix_iterations,
        );
    }
}
