//! Shared workload generators for the experiment harness and the root tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lcdb_arith::{int, Rational};
use lcdb_geom::Hyperplane;
use lcdb_logic::{parse_formula, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `k` disjoint open unit intervals on the line: `(0,1) ∪ (2,3) ∪ …`.
pub fn intervals(k: usize) -> Relation {
    let parts: Vec<String> = (0..k)
        .map(|i| format!("({} < x and x < {})", 2 * i, 2 * i + 1))
        .collect();
    Relation::new(vec!["x".into()], parse_formula(&parts.join(" or ")).unwrap())
}

/// `k` *touching* closed unit intervals: `[0,1] ∪ [1,2] ∪ …` (connected).
pub fn chained_intervals(k: usize) -> Relation {
    let parts: Vec<String> = (0..k)
        .map(|i| format!("({} <= x and x <= {})", i, i + 1))
        .collect();
    Relation::new(vec!["x".into()], parse_formula(&parts.join(" or ")).unwrap())
}

/// The running-example relation of Fig. 1: any relation whose induced
/// hyperplane set is three lines in general position reproduces the census
/// of Fig. 3 (three 0-faces, nine 1-faces, seven 2-faces).
pub fn figure1_relation() -> Relation {
    Relation::new(
        vec!["x".into(), "y".into()],
        parse_formula("x >= 0 and y >= 0 and x + y <= 1").unwrap(),
    )
}

/// The Fig. 7 pentagon (vertices (0,0), (3,-1), (5,1), (4,4), (1,3)).
pub fn figure7_pentagon() -> Relation {
    Relation::new(
        vec!["x".into(), "y".into()],
        parse_formula(
            "x + 3*y >= 0 and x - y <= 4 and 3*x + y <= 16 and 3*y - x <= 8 and y <= 3*x",
        )
        .unwrap(),
    )
}

/// The Fig. 10 unbounded polyhedron `y ≤ x ∧ y ≥ -x ∧ x ≥ 1`.
pub fn figure10_unbounded() -> Relation {
    Relation::new(
        vec!["x".into(), "y".into()],
        parse_formula("y <= x and y >= -x and x >= 1").unwrap(),
    )
}

/// `n` random hyperplanes in `ℝ^d` with small integer coefficients.
pub fn random_hyperplanes(d: usize, n: usize, seed: u64) -> Vec<Hyperplane> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Hyperplane> = Vec::with_capacity(n);
    // The offset range must grow with n or there are fewer distinct
    // canonical hyperplanes than requested and the loop cannot finish.
    let span = 2 * n as i64 + 5;
    while out.len() < n {
        let coeffs: Vec<Rational> = (0..d).map(|_| int(rng.gen_range(-3..=3i64))).collect();
        if coeffs.iter().all(|c| c.is_zero()) {
            continue;
        }
        let rhs = int(rng.gen_range(-span..=span));
        let h = Hyperplane::new(coeffs, rhs);
        if !out.contains(&h) {
            out.push(h);
        }
    }
    out
}

/// The convex `k`-gon with vertices `(i, i²)`, `i < k`, as a conjunctive
/// relation: above the `k − 1` chords between neighbours on the parabola,
/// below the chord that closes it.
pub fn convex_polygon(k: usize) -> Relation {
    assert!(k >= 3);
    let mut sides: Vec<String> = (0..k - 1)
        .map(|i| format!("y >= {}*x - {}", 2 * i + 1, i * (i + 1)))
        .collect();
    sides.push(format!("y <= {}*x", k - 1));
    Relation::new(
        vec!["x".into(), "y".into()],
        parse_formula(&sides.join(" and ")).unwrap(),
    )
}

/// Two moving objects in the plane as the databases of the alibi query
/// (Othman–Kuijpers–Grimson): `A(t, x, y)` and `B(t, x, y)`, each the union
/// of `n` space-time beads along a seeded piecewise-linear trajectory — the
/// object passes one sample every 4 time units at speed at most 1 per axis,
/// and a bead is the ten-atom light-cone intersection between two samples.
/// With `meet` both trajectories pass through one common sample; otherwise
/// `B` is moved clear of `A` in `x`.
pub fn alibi_pair(n: usize, seed: u64, meet: bool) -> (Relation, Relation) {
    const DT: i64 = 4;
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let walk = |rng: &mut StdRng| {
        let mut pts = vec![(0i64, 0i64, 0i64)];
        for i in 1..=n as i64 {
            let (_, x, y) = pts[pts.len() - 1];
            pts.push((
                DT * i,
                x + rng.gen_range(-2..=2i64),
                y + rng.gen_range(-2..=2i64),
            ));
        }
        pts
    };
    let (a, mut b) = (walk(&mut rng), walk(&mut rng));
    let (dx, dy) = if meet {
        let k = n / 2;
        (a[k].1 - b[k].1, a[k].2 - b[k].2)
    } else {
        // A bead reaches at most DT beyond its samples on either axis.
        let a_max = a.iter().map(|p| p.1).max().unwrap_or(0) + DT;
        let b_min = b.iter().map(|p| p.1).min().unwrap_or(0) - DT;
        (a_max - b_min + 1, 0)
    };
    for p in &mut b {
        (p.1, p.2) = (p.1 + dx, p.2 + dy);
    }
    let relation = |pts: &[(i64, i64, i64)]| {
        let beads: Vec<String> = pts
            .windows(2)
            .map(|w| {
                let ((t0, x0, y0), (t1, x1, y1)) = (w[0], w[1]);
                format!(
                    "({t0} <= t and t <= {t1} \
                     and {} <= t + x and t + x <= {} and t - x <= {} and {} <= t - x \
                     and {} <= t + y and t + y <= {} and t - y <= {} and {} <= t - y)",
                    x0 + t0,
                    x1 + t1,
                    t1 - x1,
                    t0 - x0,
                    y0 + t0,
                    y1 + t1,
                    t1 - y1,
                    t0 - y0,
                )
            })
            .collect();
        Relation::new(
            vec!["t".into(), "x".into(), "y".into()],
            parse_formula(&beads.join(" or ")).expect("generated formula"),
        )
    };
    (relation(&a), relation(&b))
}

/// The database of [`alibi_pair`] over the time line `T(t) := 0 ≤ t ≤ 4n`
/// (the spatial relation: its arrangement has five regions, so evaluation
/// time is quantifier elimination).
pub fn alibi_extension(n: usize, seed: u64, meet: bool) -> lcdb_core::RegionExtension {
    let (a, b) = alibi_pair(n, seed, meet);
    let mut db = lcdb_logic::Database::new();
    let line = format!("0 <= t and t <= {}", 4 * n);
    db.insert(
        "T",
        Relation::new(
            vec!["t".into()],
            parse_formula(&line).expect("fixed formula"),
        ),
    );
    db.insert("A", a);
    db.insert("B", b);
    let budget = lcdb_core::EvalBudget::unlimited();
    lcdb_core::RegionExtension::try_new(db, "T", lcdb_core::DecompositionKind::Arrangement, &budget)
        .expect("an unlimited build succeeds")
}

/// The alibi sentence: could the two objects have met?
pub const ALIBI_SENTENCE: &str = "exists t. exists x. exists y. A(t, x, y) and B(t, x, y)";

/// Log-log slope between two measurements — the empirical polynomial degree.
pub fn fitted_exponent(n1: usize, y1: f64, n2: usize, y2: f64) -> f64 {
    if y1 <= 0.0 || y2 <= 0.0 {
        return f64::NAN;
    }
    (y2 / y1).ln() / ((n2 as f64) / (n1 as f64)).ln()
}

/// The hyperplane families of experiment E3: per dimension `d`, the counts
/// `n` of seeded random hyperplanes (seed `7 + d`) an arrangement is built
/// over.
pub const E3_FAMILIES: [(usize, &[usize]); 3] =
    [(1, &[4, 8, 16, 32]), (2, &[4, 6, 8, 10]), (3, &[3, 4, 5, 6])];

/// Replay the timed core of experiment E3 — arrangement construction over
/// [`E3_FAMILIES`] — and return the total wall clock in microseconds. One
/// of the workloads E27 prices the flight recorder on.
pub fn replay_e3() -> u128 {
    use lcdb_geom::Arrangement;
    let t = std::time::Instant::now();
    for (d, ns) in E3_FAMILIES {
        for &n in ns {
            let hs = random_hyperplanes(d, n, 7 + d as u64);
            let arr = Arrangement::build(d, hs);
            std::hint::black_box(arr.num_faces());
        }
    }
    t.elapsed().as_micros()
}

/// Replay the timed core of experiment E10 — the Theorem 6.4 capture runs
/// (direct TM execution vs the compiled RegIFP sentence) over the same
/// three machines and three databases — and return the total wall clock in
/// microseconds. The evaluator-heavy workload of E27.
pub fn replay_e10() -> u128 {
    use lcdb_core::{Evaluator, RegionExtension};
    use lcdb_tm::capture::{capture_agreement, input_word};
    use lcdb_tm::Tm;
    let machines = [Tm::any_one(), Tm::all_ones(), Tm::parity()];
    let dbs = [
        "(0 <= x and x < 1) or x = 3 or (5 < x and x < 6) or x = 8 or x = 10",
        "(0 <= x and x <= 1) or x = 2 or (4 < x and x < 6) or x = 7 or x = 9",
        "(0 < x and x < 1) or (2 < x and x < 3) or (4 < x and x < 5) or x = 7",
    ];
    let t = std::time::Instant::now();
    for src in dbs {
        let rel = Relation::new(vec!["x".into()], parse_formula(src).expect("fixed formula"));
        let ext = RegionExtension::arrangement(rel);
        let ev = Evaluator::new(&ext);
        std::hint::black_box(input_word(&ev));
        for tm in &machines {
            let (direct, logical) = capture_agreement(tm, &ev);
            assert_eq!(direct, logical, "capture disagreement in replay");
        }
    }
    t.elapsed().as_micros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcdb_arith::rat;

    #[test]
    fn interval_generators() {
        let r = intervals(3);
        assert!(r.contains(&[rat(1, 2)]));
        assert!(!r.contains(&[rat(3, 2)]));
        let c = chained_intervals(3);
        assert!(c.contains(&[int(1)]));
        assert!(c.contains(&[int(3)]));
        assert!(!c.contains(&[int(4)]));
    }

    #[test]
    fn polygon_generator_is_convex_and_nonempty() {
        for k in 3..8i64 {
            let r = convex_polygon(k as usize);
            // Every vertex, every midpoint of two vertices, nothing below
            // the parabola.
            for i in 0..k {
                for j in 0..k {
                    assert!(r.contains(&[rat(i + j, 2), rat(i * i + j * j, 2)]), "k={k} ({i}, {j})");
                }
                assert!(!r.contains(&[rat(2 * i + 1, 2), rat(2 * i * i + 2 * i, 2)]), "k={k} below {i}");
            }
        }
    }

    #[test]
    fn random_hyperplane_count() {
        let hs = random_hyperplanes(2, 10, 42);
        assert_eq!(hs.len(), 10);
    }

    /// LP solves are deterministic: the work ledger pins them.
    #[test]
    fn block_elimination_is_lp_frugal() {
        use lcdb_core::work::{self, Work};
        use lcdb_logic::{qe, Formula, LinExpr};
        // What the parent commit (3691859: one `eliminate_one_cells` per
        // variable, one LP per atom of every candidate disjunct) solved on
        // this pair.
        const SOLVES_PER_ATOM_ROUTE: u64 = 693;
        let (a, b) = alibi_pair(16, 11, true);
        let args: Vec<LinExpr> = ["t", "x", "y"].into_iter().map(LinExpr::var).collect();
        let matrix = Formula::and(vec![a.apply(&args), b.apply(&args)]);
        let before = work::snapshot();
        let met = qe::eliminate_block(&matrix, &["y", "x", "t"], true);
        let spent = before.since();
        assert_eq!(met, Formula::True);
        let solves = spent[Work::LpSolves] + spent[Work::LpWarmProbes];
        assert!(
            5 * solves <= SOLVES_PER_ATOM_ROUTE,
            "{solves} solves, the per-atom route took {SOLVES_PER_ATOM_ROUTE}"
        );
        // Bound propagation in front of the LP: the commit before it
        // (e8970a9, box of the single-variable atoms only) ran 77 solves and
        // probes here, most of them on pairs of beads whose `x ± t` rows rule
        // each other out inside the common time interval.
        assert!(spent[Work::DnfBoxRefuted] > 0);
        // A point of the propagated box in front of the LP: the commit
        // before it (0c172ba) decided the 272 decisions as 2 witness hits,
        // 251 box refutations and 19 LPs (4 solves, 19 probes, 75 pivots);
        // now the 19 are 1 witness hit and 18 point hits, and no LP runs.
        assert_eq!(solves, 0, "{solves} solves and probes");
        assert_eq!(spent[Work::LpPivots], 0);
        assert!(spent[Work::DnfPointHits] > 0);
        assert_eq!(spent[Work::DnfLpDecided], 0);
    }

    #[test]
    fn replayed_alibi_queries_have_the_planted_answers() {
        use lcdb_core::{parse_regformula, Evaluator};
        for (meet, n) in [(true, 4), (false, 4), (true, 16)] {
            let ext = alibi_extension(n, 11, meet);
            let ev = Evaluator::new(&ext);
            let sentence = parse_regformula(ALIBI_SENTENCE).unwrap();
            assert_eq!(ev.eval_sentence(&sentence), meet, "n = {n}");
        }
    }

    /// The alibi sentence and "when" query apply `A` and `B` to distinct
    /// variables, so elimination reads both from their stored rows and
    /// expands neither through `apply` (`lcdb-logic`'s proptest
    /// `a_relation_lowers_from_rows_as_its_application` holds the two
    /// lowerings equal).
    #[test]
    fn alibi_relations_lower_from_rows() {
        use lcdb_core::work::{self, Work};
        use lcdb_core::{parse_regformula, Evaluator};
        let ext = alibi_extension(8, 11, true);
        let ev = Evaluator::new(&ext);
        let before = work::snapshot();
        assert!(ev.eval_sentence(&parse_regformula(ALIBI_SENTENCE).unwrap()));
        let when = parse_regformula("exists x. exists y. A(t, x, y) and B(t, x, y)").unwrap();
        assert_ne!(ev.eval_query(&when), lcdb_logic::Formula::False);
        let spent = before.since();
        assert_eq!(spent[Work::QePredApplied], 0);
        assert_eq!(spent[Work::QePredRows], 4, "two symbols in each of two blocks");
    }

    #[test]
    fn exponent_fit() {
        let e = fitted_exponent(10, 100.0, 20, 400.0);
        assert!((e - 2.0).abs() < 1e-9);
    }
}
