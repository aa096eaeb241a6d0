//! Cross-crate property tests: random formulas and databases, with the
//! paper's invariants as properties.

use lcdb::arith::{int, Rational};
use lcdb::core::{compile, explain_query, Decomposition, FixMode, RegFormula};
use lcdb::geom::Arrangement;
use lcdb::logic::{dnf, qe, Atom, Formula, LinExpr, Rel};
use lcdb::{EvalBudget, Evaluator, RegionExtension, Relation};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Random linear atoms over `x`, `y` with small coefficients.
fn arb_atom() -> impl Strategy<Value = Atom> {
    (
        -3i64..=3,
        -3i64..=3,
        -4i64..=4,
        prop_oneof![
            Just(Rel::Lt),
            Just(Rel::Le),
            Just(Rel::Eq),
            Just(Rel::Ge),
            Just(Rel::Gt)
        ],
    )
        .prop_map(|(a, b, c, rel)| {
            Atom::new(
                LinExpr::var("x")
                    .scale(&int(a))
                    .add(&LinExpr::var("y").scale(&int(b))),
                rel,
                LinExpr::constant(int(c)),
            )
        })
}

/// Random quantifier-free formulas of bounded depth.
fn arb_formula() -> impl Strategy<Value = Formula> {
    let leaf = arb_atom().prop_map(Formula::Atom);
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::and),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Formula::or),
            inner.prop_map(Formula::not),
        ]
    })
}

fn env2(x: i64, y: i64) -> BTreeMap<String, Rational> {
    let mut m = BTreeMap::new();
    m.insert("x".to_string(), int(x));
    m.insert("y".to_string(), int(y));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three DNF strategies define the same set.
    #[test]
    fn dnf_strategies_agree(f in arb_formula(), px in -5i64..=5, py in -5i64..=5) {
        let naive = dnf::to_dnf(&f);
        let pruned = dnf::to_dnf_pruned(&f);
        let cells = dnf::to_dnf_cells(&f);
        let env = env2(px, py);
        let expect = f.eval(&env);
        prop_assert_eq!(naive.eval(&env), expect);
        prop_assert_eq!(pruned.eval(&env), expect);
        prop_assert_eq!(cells.eval(&env), expect);
    }

    /// Quantifier elimination preserves truth at sample points:
    /// (∃y φ)(x) holds iff φ(x, y₀) holds for some sampled y₀ — soundness
    /// direction checked at witnesses, completeness at a y-grid.
    #[test]
    fn qe_exists_sound_and_complete_on_grid(f in arb_formula(), px in -4i64..=4) {
        let eliminated = qe::eliminate_quantifiers(
            &Formula::Exists("y".into(), Box::new(f.clone())),
        );
        prop_assert!(eliminated.is_quantifier_free());
        let mut env = BTreeMap::new();
        env.insert("x".to_string(), int(px));
        let projected = eliminated.eval(&env);
        // Completeness: any grid witness forces projected = true. The grid
        // includes half-integers to catch open intervals.
        let mut any_grid = false;
        for num in -12i64..=12 {
            let mut e = env.clone();
            e.insert("y".to_string(), Rational::from_i64s(num, 2));
            if f.eval(&e) {
                any_grid = true;
                break;
            }
        }
        if any_grid {
            prop_assert!(projected, "grid witness exists but projection is false");
        }
        // Soundness: if the projection holds, an exact witness must exist —
        // check with the LP-backed satisfiability of the conjunction.
        if projected {
            let with_pin = Formula::and(vec![
                f.clone(),
                Formula::Atom(Atom::new(
                    LinExpr::var("x"),
                    Rel::Eq,
                    LinExpr::constant(int(px)),
                )),
            ]);
            prop_assert!(
                dnf::to_dnf_pruned(&with_pin).is_satisfiable(),
                "projection true but no real witness exists"
            );
        }
    }

    /// Arrangement invariants: faces partition the plane; witnesses locate
    /// back to their own face; adjacency is symmetric and irreflexive.
    #[test]
    fn arrangement_invariants(
        atoms in proptest::collection::vec(arb_atom(), 1..5),
        px in -6i64..=6,
        py in -6i64..=6,
    ) {
        let f = Formula::and(atoms.into_iter().map(Formula::Atom).collect());
        let rel = Relation::new(vec!["x".into(), "y".into()], f);
        let arr = Arrangement::from_relation(&rel);
        let p = vec![int(px), int(py)];
        // Partition: exactly one face contains any point.
        let containing: Vec<usize> = arr
            .faces()
            .iter()
            .filter(|face| arr.face_contains(face.id, &p))
            .map(|face| face.id)
            .collect();
        prop_assert_eq!(containing.len(), 1);
        prop_assert_eq!(containing[0], arr.locate(&p));
        // Membership homogeneity: the face's witness and the point agree on S.
        let face = arr.locate(&p);
        prop_assert_eq!(
            rel.contains(&p),
            rel.contains(&arr.face(face).witness),
            "face not homogeneous w.r.t. S"
        );
        // Witness self-location and adjacency properties.
        for f1 in arr.faces() {
            prop_assert_eq!(arr.locate(&f1.witness), f1.id);
            prop_assert!(!arr.adjacent(f1.id, f1.id));
        }
    }

    /// The NC¹ decomposition covers every point of S (the appendix's claim
    /// "every point p ∈ S is contained in at least one region").
    #[test]
    fn nc1_covers_s_points(
        // Random triangle-ish conjuncts: k bounding halfplanes around a box.
        a in 1i64..=3, b in 1i64..=3, c in 2i64..=6,
        px in -8i64..=8, py in -8i64..=8,
    ) {
        let f = Formula::and(vec![
            Formula::Atom(Atom::new(
                LinExpr::var("x").scale(&int(a)).add(&LinExpr::var("y")),
                Rel::Le,
                LinExpr::constant(int(c)),
            )),
            Formula::Atom(Atom::new(LinExpr::var("x"), Rel::Ge, LinExpr::constant(int(-2)))),
            Formula::Atom(Atom::new(
                LinExpr::var("y").scale(&int(b)),
                Rel::Ge,
                LinExpr::var("x").sub(&LinExpr::constant(int(4))),
            )),
        ]);
        let rel = Relation::new(vec!["x".into(), "y".into()], f);
        let dec = lcdb::geom::nc1::decompose_relation(&rel);
        let p = vec![int(px), int(py)];
        if rel.contains(&p) {
            prop_assert!(dec.covers(&p), "S point ({}, {}) not covered", px, py);
        }
    }

    /// Fourier–Motzkin on a conjunct agrees with LP satisfiability.
    #[test]
    fn fm_preserves_satisfiability(
        atoms in proptest::collection::vec(arb_atom(), 1..5),
    ) {
        let conjunct: Vec<Atom> = atoms;
        let before = dnf::conjunct_satisfiable(&conjunct);
        let eliminated = qe::fm_eliminate_conjunct(&conjunct, "y");
        let after = dnf::conjunct_satisfiable(&eliminated);
        // ∃y ⋀φ is satisfiable iff ⋀φ is (projection preserves nonemptiness).
        prop_assert_eq!(before, after);
        // And the result no longer mentions y.
        for atom in &eliminated {
            prop_assert!(!atom.expr.mentions("y"));
        }
    }
}

/// A random 1-D relation: a union of short open intervals.
fn arb_intervals() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((-4i64..=4, 1i64..=3), 1..4).prop_map(|spans| {
        let f = Formula::or(
            spans
                .into_iter()
                .map(|(a, w)| {
                    Formula::and(vec![
                        Formula::Atom(Atom::new(
                            LinExpr::constant(int(a)),
                            Rel::Lt,
                            LinExpr::var("x"),
                        )),
                        Formula::Atom(Atom::new(
                            LinExpr::var("x"),
                            Rel::Lt,
                            LinExpr::constant(int(a + w)),
                        )),
                    ])
                })
                .collect(),
        );
        Relation::new(vec!["x".into()], f)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Semi-naive datalog reaches the same fixpoint as naive, in the same
    /// number of rounds — on random bounded reachability programs (random
    /// step, bound, and seed interval).
    #[test]
    fn semi_naive_matches_naive_on_random_programs(
        step in 1i64..=3,
        bound in 2i64..=7,
        lo in -2i64..=2,
    ) {
        use lcdb::datalog::{EvalOutcome, Literal, Program, Rule, Strategy};
        let constraint = |src: &str| match lcdb::parse_formula(src).expect("atom parses") {
            Formula::Atom(a) => Literal::Constraint(a),
            other => panic!("expected atom, got {other}"),
        };
        let mut edb = lcdb::Database::new();
        edb.insert(
            "S",
            rel1(&format!("{} <= x and x <= {}", lo, lo + 1)),
        );
        let program = Program::new()
            .rule(Rule::new(
                "reach",
                vec!["x".into()],
                vec![Literal::Pred("S".into(), vec!["x".into()])],
            ))
            .rule(Rule::new(
                "reach",
                vec!["x".into()],
                vec![
                    Literal::Pred("reach".into(), vec!["y".into()]),
                    constraint(&format!("x - y = {}", step)),
                    constraint(&format!("x <= {}", bound)),
                ],
            ));
        let budget = EvalBudget::unlimited();
        let mut baseline: Option<(usize, lcdb::Relation)> = None;
        let untraced = lcdb::core::TraceHandle::disabled_ref();
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let outcome = program
                .try_evaluate_traced(&edb, 64, &budget, strategy, untraced)
                .expect("unlimited budget cannot trip");
            let (idb, rounds) = match outcome {
                EvalOutcome::Fixpoint { idb, rounds } => (idb, rounds),
                EvalOutcome::Diverged { rounds, .. } => {
                    panic!("bounded program diverged after {rounds} rounds")
                }
            };
            let reach = idb.get("reach").expect("head predicate present").clone();
            match &baseline {
                None => baseline = Some((rounds, reach)),
                Some((r0, rel0)) => {
                    prop_assert_eq!(rounds, *r0, "round count differs ({:?})", strategy);
                    // Semantic agreement on a half-integer grid that
                    // covers the reachable frontier and beyond.
                    for num in (2 * (lo - 2))..=(2 * (bound + 2)) {
                        let p = vec![Rational::from_i64s(num, 2)];
                        prop_assert_eq!(
                            reach.contains(&p),
                            rel0.contains(&p),
                            "fixpoints disagree at {}/2 ({:?})",
                            num, strategy
                        );
                    }
                }
            }
        }
    }
}

/// Shape of a random region-quantified sentence, before variable binding.
/// Leaf indices are resolved against the enclosing quantifiers' variables
/// (modulo the number in scope), so every generated sentence is closed.
#[derive(Debug, Clone)]
enum RegShape {
    SubsetS(u8),
    Adj(u8, u8),
    RegEq(u8, u8),
    DimEq(u8, u8),
    Bounded(u8),
    Not(Box<RegShape>),
    And(Box<RegShape>, Box<RegShape>),
    Or(Box<RegShape>, Box<RegShape>),
    Exists(Box<RegShape>),
    Forall(Box<RegShape>),
}

fn arb_reg_shape() -> impl Strategy<Value = RegShape> {
    let leaf = prop_oneof![
        any::<u8>().prop_map(RegShape::SubsetS),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| RegShape::Adj(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| RegShape::RegEq(a, b)),
        (any::<u8>(), 0u8..=1).prop_map(|(a, k)| RegShape::DimEq(a, k)),
        any::<u8>().prop_map(RegShape::Bounded),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| RegShape::Not(Box::new(s))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RegShape::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| RegShape::Or(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|s| RegShape::Exists(Box::new(s))),
            inner.prop_map(|s| RegShape::Forall(Box::new(s))),
        ]
    })
}

/// Bind a shape into a closed RegFO sentence. Two outer quantifiers
/// guarantee leaves always have a variable in scope.
fn bind_shape(shape: &RegShape) -> RegFormula {
    fn go(s: &RegShape, bound: &mut Vec<String>) -> RegFormula {
        let var = |i: u8, bound: &[String]| bound[i as usize % bound.len()].clone();
        match s {
            RegShape::SubsetS(a) => RegFormula::SubsetOf(var(*a, bound), "S".into()),
            RegShape::Adj(a, b) => RegFormula::Adj(var(*a, bound), var(*b, bound)),
            RegShape::RegEq(a, b) => RegFormula::RegionEq(var(*a, bound), var(*b, bound)),
            RegShape::DimEq(a, k) => RegFormula::DimEq(var(*a, bound), *k as usize),
            RegShape::Bounded(a) => RegFormula::Bounded(var(*a, bound)),
            RegShape::Not(g) => RegFormula::not(go(g, bound)),
            RegShape::And(a, b) => RegFormula::And(vec![go(a, bound), go(b, bound)]),
            RegShape::Or(a, b) => RegFormula::Or(vec![go(a, bound), go(b, bound)]),
            RegShape::Exists(g) => {
                let v = format!("Q{}", bound.len());
                bound.push(v.clone());
                let body = go(g, bound);
                bound.pop();
                RegFormula::exists_region(v, body)
            }
            RegShape::Forall(g) => {
                let v = format!("Q{}", bound.len());
                bound.push(v.clone());
                let body = go(g, bound);
                bound.pop();
                RegFormula::forall_region(v, body)
            }
        }
    }
    let mut bound = vec!["Q0".to_string(), "Q1".to_string()];
    RegFormula::forall_region("Q0", RegFormula::exists_region("Q1", go(shape, &mut bound)))
}

/// Direct model-theoretic semantics over the region extension: quantifiers
/// range over region ids, atoms consult the decomposition. This is the
/// specification the plan-compiled evaluator must match.
fn reference_eval(
    ext: &RegionExtension,
    f: &RegFormula,
    env: &mut BTreeMap<String, usize>,
) -> bool {
    reference_eval_sets(ext, f, env, &mut BTreeMap::new())
}

/// A set variable's value in the reference: an explicit set of tuples.
type TupleSet = BTreeSet<Vec<usize>>;

/// Every `k`-tuple of region ids, in lexicographic order.
fn all_tuples(n: usize, k: usize) -> Vec<Vec<usize>> {
    (0..k).fold(vec![Vec::new()], |acc, _| {
        acc.iter()
            .flat_map(|t| (0..n).map(move |r| [&t[..], &[r]].concat()))
            .collect()
    })
}

/// Evaluate `body` with `vars` bound to `tuple`, restoring `env` after.
fn reference_at(
    ext: &RegionExtension,
    body: &RegFormula,
    vars: &[String],
    tuple: &[usize],
    env: &mut BTreeMap<String, usize>,
    sets: &mut BTreeMap<String, TupleSet>,
) -> bool {
    let saved: Vec<Option<usize>> = vars
        .iter()
        .zip(tuple)
        .map(|(v, &r)| env.insert(v.clone(), r))
        .collect();
    let out = reference_eval_sets(ext, body, env, sets);
    for (v, old) in vars.iter().zip(saved).rev() {
        match old {
            Some(r) => env.insert(v.clone(), r),
            None => env.remove(v),
        };
    }
    out
}

/// The reference with set variables: fixed points by naive iteration over
/// explicit tuple sets (Definition 5.1, PFP empty on divergence), `TC`/`DTC`
/// by search over the explicit edge relation (Definition 7.2).
fn reference_eval_sets(
    ext: &RegionExtension,
    f: &RegFormula,
    env: &mut BTreeMap<String, usize>,
    sets: &mut BTreeMap<String, TupleSet>,
) -> bool {
    match f {
        RegFormula::SetApp(m, args) => {
            sets[m].contains(&args.iter().map(|a| env[a]).collect::<Vec<_>>())
        }
        RegFormula::Fix {
            mode,
            set_var,
            vars,
            body,
            args,
        } => {
            let tuples = all_tuples(ext.num_regions(), vars.len());
            let shadowed = sets.remove(set_var);
            let mut current = TupleSet::new();
            let mut seen: Vec<TupleSet> = Vec::new();
            let fixpoint = loop {
                seen.push(current.clone());
                sets.insert(set_var.clone(), current.clone());
                let mut next: TupleSet = tuples
                    .iter()
                    .filter(|t| reference_at(ext, body, vars, t, env, sets))
                    .cloned()
                    .collect();
                if *mode == FixMode::Ifp {
                    next.extend(current.iter().cloned());
                }
                if next == current {
                    break current;
                }
                if *mode == FixMode::Pfp && seen.contains(&next) {
                    break TupleSet::new();
                }
                current = next;
            };
            match shadowed {
                Some(old) => sets.insert(set_var.clone(), old),
                None => sets.remove(set_var),
            };
            fixpoint.contains(&args.iter().map(|a| env[a]).collect::<Vec<_>>())
        }
        RegFormula::Tc {
            deterministic,
            left,
            right,
            body,
            arg_left,
            arg_right,
        } => {
            let tuples = all_tuples(ext.num_regions(), left.len());
            let vars = [&left[..], &right[..]].concat();
            let mut succ: Vec<Vec<usize>> = tuples
                .iter()
                .map(|s| {
                    (0..tuples.len())
                        .filter(|&t| {
                            let both = [&s[..], &tuples[t][..]].concat();
                            reference_at(ext, body, &vars, &both, env, sets)
                        })
                        .collect()
                })
                .collect();
            if *deterministic {
                succ.iter_mut().filter(|s| s.len() != 1).for_each(Vec::clear);
            }
            let index = |args: &[String]| {
                let t: Vec<usize> = args.iter().map(|a| env[a]).collect();
                tuples.iter().position(|x| *x == t).expect("tuple of regions")
            };
            let (from, to) = (index(arg_left), index(arg_right));
            let mut reached = vec![false; tuples.len()];
            let mut stack = vec![from];
            reached[from] = true;
            while let Some(s) = stack.pop() {
                for &t in &succ[s] {
                    if !std::mem::replace(&mut reached[t], true) {
                        stack.push(t);
                    }
                }
            }
            reached[to]
        }
        RegFormula::True => true,
        RegFormula::False => false,
        RegFormula::SubsetOf(r, s) => ext.subset_of(env[r], s),
        RegFormula::Adj(a, b) => ext.adjacent(env[a], env[b]),
        RegFormula::RegionEq(a, b) => env[a] == env[b],
        RegFormula::DimEq(r, k) => ext.region(env[r]).dim == *k,
        RegFormula::Bounded(r) => ext.region(env[r]).bounded,
        RegFormula::And(fs) => fs.iter().all(|g| reference_eval_sets(ext, g, env, sets)),
        RegFormula::Or(fs) => fs.iter().any(|g| reference_eval_sets(ext, g, env, sets)),
        RegFormula::Not(g) => !reference_eval_sets(ext, g, env, sets),
        RegFormula::ExistsRegion(v, g) => (0..ext.num_regions()).any(|id| {
            let prev = env.insert(v.clone(), id);
            let r = reference_eval_sets(ext, g, env, sets);
            match prev {
                Some(p) => {
                    env.insert(v.clone(), p);
                }
                None => {
                    env.remove(v);
                }
            }
            r
        }),
        RegFormula::ForallRegion(v, g) => (0..ext.num_regions()).all(|id| {
            let prev = env.insert(v.clone(), id);
            let r = reference_eval_sets(ext, g, env, sets);
            match prev {
                Some(p) => {
                    env.insert(v.clone(), p);
                }
                None => {
                    env.remove(v);
                }
            }
            r
        }),
        RegFormula::ExistsElem(..) | RegFormula::ForallElem(..) => {
            let closed = element_formula(ext, f, env);
            thread_local! {
                static DECIDED: std::cell::RefCell<BTreeMap<String, bool>> = Default::default();
            }
            // The reference asks again at every tuple of every stage.
            DECIDED.with(|memo| {
                *memo
                    .borrow_mut()
                    .entry(closed.to_string())
                    .or_insert_with(|| closed.eval(&BTreeMap::new()))
            })
        }
        other => unreachable!("not generated by arb_reg_shape: {other:?}"),
    }
}

/// An element-closed subformula as an FO+LIN sentence over the formulas of
/// the regions its `∈` atoms name: decided by `Formula::eval`, that is by
/// quantifier elimination, whatever the regions' dimensions.
fn element_formula(ext: &RegionExtension, f: &RegFormula, env: &BTreeMap<String, usize>) -> Formula {
    let each = |fs: &[RegFormula]| fs.iter().map(|g| element_formula(ext, g, env)).collect();
    match f {
        RegFormula::Lin(a) => Formula::Atom(a.clone()),
        RegFormula::In(args, r) => {
            let tmp: Vec<String> = (0..args.len()).map(|i| format!("__ref{i}")).collect();
            tmp.iter()
                .zip(args)
                .fold(ext.region_formula(env[r], &tmp), |g, (t, arg)| g.substitute(t, arg))
        }
        RegFormula::And(fs) => Formula::and(each(fs)),
        RegFormula::Or(fs) => Formula::or(each(fs)),
        RegFormula::Not(g) => Formula::not(element_formula(ext, g, env)),
        RegFormula::ExistsElem(x, g) => {
            Formula::Exists(x.clone(), Box::new(element_formula(ext, g, env)))
        }
        RegFormula::ForallElem(x, g) => {
            Formula::Forall(x.clone(), Box::new(element_formula(ext, g, env)))
        }
        other => unreachable!("not generated under an element quantifier: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plan equivalence: for random RegFO sentences, the plan-compiled
    /// executor agrees with the direct model-theoretic semantics. (Random
    /// *datalog* programs get the same treatment in
    /// `semi_naive_matches_naive_on_random_programs` above — their rule
    /// bodies compile through the same plan IR.)
    #[test]
    fn plan_evaluation_matches_reference_semantics(
        shape in arb_reg_shape(),
        rel in arb_intervals(),
    ) {
        let sentence = bind_shape(&shape);
        let ext = RegionExtension::arrangement(rel);
        let want = reference_eval(&ext, &sentence, &mut BTreeMap::new());
        let got = Evaluator::with_budget(&ext, EvalBudget::unlimited())
            .try_eval_sentence(&sentence)
            .expect("unlimited budget cannot trip");
        prop_assert_eq!(got, want, "plan vs reference: {:?}", sentence);
    }
}

/// `f` rebuilt so that equal subformulas below a negation, a quantifier or
/// an operator are one shared `Arc`.
fn share(f: &RegFormula, pool: &mut HashMap<RegFormula, Arc<RegFormula>>) -> RegFormula {
    fn arc(g: &RegFormula, pool: &mut HashMap<RegFormula, Arc<RegFormula>>) -> Arc<RegFormula> {
        let g = share(g, pool);
        pool.entry(g.clone()).or_insert_with(|| Arc::new(g)).clone()
    }
    match f {
        RegFormula::And(fs) => RegFormula::And(fs.iter().map(|g| share(g, pool)).collect()),
        RegFormula::Or(fs) => RegFormula::Or(fs.iter().map(|g| share(g, pool)).collect()),
        RegFormula::Not(g) => RegFormula::Not(arc(g, pool)),
        RegFormula::ExistsElem(v, g) => RegFormula::ExistsElem(v.clone(), arc(g, pool)),
        RegFormula::ForallElem(v, g) => RegFormula::ForallElem(v.clone(), arc(g, pool)),
        RegFormula::ExistsRegion(v, g) => RegFormula::ExistsRegion(v.clone(), arc(g, pool)),
        RegFormula::ForallRegion(v, g) => RegFormula::ForallRegion(v.clone(), arc(g, pool)),
        RegFormula::Fix { body, .. } | RegFormula::Tc { body, .. } => {
            let mut op = f.clone();
            if let RegFormula::Fix { body: b, .. } | RegFormula::Tc { body: b, .. } = &mut op {
                *b = arc(body, pool);
            }
            op
        }
        leaf => leaf.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lowering visits a shared `Arc` child once, and that is exact: a
    /// sentence whose equal subformulas are one `Arc` compiles to the plan
    /// of the unshared tree, node for node and byte for byte.
    #[test]
    fn shared_subformulas_compile_to_the_unshared_plan(
        reg in arb_reg_shape(),
        fix in arb_fix_shape(),
    ) {
        let bind: [&dyn Fn() -> RegFormula; 2] = [&|| bind_shape(&reg), &|| bind_fix_shape(&fix)];
        for bind in bind {
            // Beside its own negation, all of a sentence is shared at both
            // polarities. (A clone would share already: bind twice.)
            for tree in [bind(), RegFormula::And(vec![bind(), RegFormula::not(bind())])] {
                let dag = share(&tree, &mut HashMap::new());
                let ((plan, root), (shared, shared_root)) = (compile(&tree), compile(&dag));
                prop_assert_eq!(plan.hash(root), shared.hash(shared_root));
                prop_assert_eq!(plan.len(), shared.len());
                prop_assert_eq!(explain_query(&tree), explain_query(&dag));
            }
        }
    }
}

fn rel1(src: &str) -> Relation {
    Relation::new(
        vec!["x".into()],
        lcdb::parse_formula(src).expect("formula parses"),
    )
}

/// Shape of a random sentence of the fixed-point and closure logics, before
/// variable binding. Indices are resolved against what is in scope, so
/// every generated sentence is closed.
#[derive(Debug, Clone)]
enum FixShape {
    /// A region atom: kind, two variable indices.
    Leaf(u8, u8, u8),
    /// `∃x∃y (x ∈ A ∧ y ∈ B ∧ x < y)`, or with the flag its dual
    /// `∀x∀y (x ∉ A ∨ y ∉ B ∨ x < y)`: two variable indices.
    Below(bool, u8, u8),
    /// Application of an enclosing set variable (a region atom when none).
    App(u8, u8, u8),
    Not(Box<FixShape>),
    And(Box<FixShape>, Box<FixShape>),
    Or(Box<FixShape>, Box<FixShape>),
    /// `∃Q (g ∧ φ)`.
    Exists(Guard, Box<FixShape>),
    /// `∀Q (¬g ∨ φ)`.
    Forall(Guard, Box<FixShape>),
    /// A fixed point with body `g(X̄) ∧ φ`: mode, unary or binary, body, two
    /// argument indices.
    Fix(Guard, u8, bool, Box<FixShape>, u8, u8),
    /// `TC` or `DTC` over single regions: body, two argument indices.
    Tc(bool, Box<FixShape>, u8, u8),
}

/// A conjunction of set-free atoms over a bound variable and one variable
/// from outside its binder, each a kind and an index; empty for no guard.
/// Unsatisfiable ones (`dim = 0 ∧ dim = 1`) and ones a single region
/// satisfies (`Q = outer`) occur.
type Guard = Vec<(u8, u8)>;

fn arb_guard() -> impl Strategy<Value = Guard> {
    proptest::collection::vec((any::<u8>(), any::<u8>()), 0..=3)
}

fn arb_fix_shape() -> impl Strategy<Value = FixShape> {
    let leaf = prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(k, a, b)| FixShape::Leaf(k, a, b)),
        (any::<bool>(), any::<u8>(), any::<u8>()).prop_map(|(u, a, b)| FixShape::Below(u, a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(m, a, b)| FixShape::App(m, a, b)),
    ];
    let fix = |inner: BoxedStrategy<FixShape>| {
        (arb_guard(), any::<u8>(), any::<bool>(), inner, any::<u8>(), any::<u8>())
            .prop_map(|(g, m, bin, s, a, b)| FixShape::Fix(g, m, bin, Box::new(s), a, b))
    };
    let tree = leaf.prop_recursive(3, 10, 2, move |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| FixShape::Not(Box::new(s))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FixShape::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FixShape::Or(Box::new(a), Box::new(b))),
            (arb_guard(), inner.clone()).prop_map(|(g, s)| FixShape::Exists(g, Box::new(s))),
            (arb_guard(), inner.clone()).prop_map(|(g, s)| FixShape::Forall(g, Box::new(s))),
            fix(inner.clone()),
            (any::<bool>(), inner, any::<u8>(), any::<u8>())
                .prop_map(|(det, s, a, b)| FixShape::Tc(det, Box::new(s), a, b)),
        ]
    });
    // Every sentence applies at least one operator at the top.
    fix(tree.boxed())
}

/// Is every free occurrence of `m` in `f` under an even number of
/// negations (and none under a closure)? What LFP requires.
fn positive_in(f: &RegFormula, m: &str, polarity: bool) -> bool {
    match f {
        RegFormula::SetApp(n, _) => n != m || polarity,
        RegFormula::Not(g) => positive_in(g, m, !polarity),
        RegFormula::And(fs) | RegFormula::Or(fs) => fs.iter().all(|g| positive_in(g, m, polarity)),
        RegFormula::ExistsRegion(_, g) | RegFormula::ForallRegion(_, g) => {
            positive_in(g, m, polarity)
        }
        RegFormula::Fix { set_var, body, .. } => set_var == m || positive_in(body, m, polarity),
        RegFormula::Tc { body, .. } => !body.free_set_vars().contains(m),
        _ => true,
    }
}

/// Bind a shape into a closed sentence under two outer quantifiers.
/// Operators nest at most twice (the reference iterates naively) and only
/// an outermost fixed point is binary; a body that is not positive makes an
/// LFP an IFP.
fn bind_fix_shape(shape: &FixShape) -> RegFormula {
    struct Scope {
        regions: Vec<String>,
        sets: Vec<(String, usize)>,
        /// Enclosing fixed points and closures.
        depth: usize,
        fresh: usize,
    }
    fn go(s: &FixShape, sc: &mut Scope) -> RegFormula {
        let var = |i: u8, sc: &Scope| sc.regions[i as usize % sc.regions.len()].clone();
        let fresh = |prefix: &str, sc: &mut Scope| {
            sc.fresh += 1;
            format!("{prefix}{}", sc.fresh)
        };
        // The atoms of a guard over `bound` (one variable per atom, in
        // turn), read in the scope outside their binder.
        let guard = |g: &Guard, bound: &[String], sc: &Scope| -> Vec<RegFormula> {
            g.iter()
                .enumerate()
                .map(|(i, &(kind, outer))| {
                    let v = bound[i % bound.len()].clone();
                    match kind % 5 {
                        0 => RegFormula::SubsetOf(v, "S".into()),
                        1 => RegFormula::Adj(v, var(outer, sc)),
                        2 => RegFormula::RegionEq(v, var(outer, sc)),
                        3 => RegFormula::DimEq(v, (outer % 2) as usize),
                        _ => RegFormula::Bounded(v),
                    }
                })
                .collect()
        };
        match s {
            FixShape::Leaf(kind, a, b) => match kind % 5 {
                0 => RegFormula::SubsetOf(var(*a, sc), "S".into()),
                1 => RegFormula::Adj(var(*a, sc), var(*b, sc)),
                2 => RegFormula::RegionEq(var(*a, sc), var(*b, sc)),
                3 => RegFormula::DimEq(var(*a, sc), (*b % 2) as usize),
                _ => RegFormula::Bounded(var(*a, sc)),
            },
            FixShape::Below(universal, a, b) => {
                let inside = |x: &str, r: String| RegFormula::In(vec![LinExpr::var(x)], r);
                let (in_a, in_b) = (inside("x", var(*a, sc)), inside("y", var(*b, sc)));
                let lt = RegFormula::Lin(Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::var("y")));
                if *universal {
                    let body = RegFormula::Or(vec![RegFormula::not(in_a), RegFormula::not(in_b), lt]);
                    RegFormula::forall_elem("x", RegFormula::forall_elem("y", body))
                } else {
                    let body = RegFormula::And(vec![in_a, in_b, lt]);
                    RegFormula::exists_elem("x", RegFormula::exists_elem("y", body))
                }
            }
            FixShape::App(m, a, b) => match sc.sets.get(*m as usize % sc.sets.len().max(1)) {
                None => RegFormula::SubsetOf(var(*a, sc), "S".into()),
                Some((name, arity)) => RegFormula::SetApp(
                    name.clone(),
                    [var(*a, sc), var(*b, sc)][..*arity].to_vec(),
                ),
            },
            FixShape::Not(g) => RegFormula::not(go(g, sc)),
            FixShape::And(a, b) => RegFormula::And(vec![go(a, sc), go(b, sc)]),
            FixShape::Or(a, b) => RegFormula::Or(vec![go(a, sc), go(b, sc)]),
            FixShape::Exists(guards, g) | FixShape::Forall(guards, g) => {
                let v = fresh("Q", sc);
                let mut parts = guard(guards, std::slice::from_ref(&v), sc);
                sc.regions.push(v.clone());
                let body = go(g, sc);
                sc.regions.pop();
                match s {
                    FixShape::Exists(..) => {
                        parts.push(body);
                        RegFormula::exists_region(v, RegFormula::And(parts))
                    }
                    _ => {
                        let unguarded = RegFormula::not(RegFormula::And(parts));
                        RegFormula::forall_region(v, RegFormula::Or(vec![unguarded, body]))
                    }
                }
            }
            FixShape::Fix(_, _, _, g, _, _) | FixShape::Tc(_, g, _, _) if sc.depth >= 2 => {
                go(g, sc)
            }
            FixShape::Fix(guards, mode, binary, g, a, b) => {
                let arity = if *binary && sc.depth == 0 { 2 } else { 1 };
                let args = [var(*a, sc), var(*b, sc)][..arity].to_vec();
                let set_var = fresh("M", sc);
                let vars: Vec<String> = (0..arity).map(|_| fresh("X", sc)).collect();
                let mut parts = guard(guards, &vars, sc);
                sc.regions.extend(vars.iter().cloned());
                sc.sets.push((set_var.clone(), arity));
                sc.depth += 1;
                parts.push(go(g, sc));
                let body = RegFormula::And(parts);
                sc.depth -= 1;
                sc.sets.pop();
                sc.regions.truncate(sc.regions.len() - arity);
                let mode = match mode % 3 {
                    0 if positive_in(&body, &set_var, true) => FixMode::Lfp,
                    0 | 1 => FixMode::Ifp,
                    _ => FixMode::Pfp,
                };
                RegFormula::Fix {
                    mode,
                    set_var,
                    vars,
                    body: body.into(),
                    args,
                }
            }
            FixShape::Tc(deterministic, g, a, b) => {
                let (arg_left, arg_right) = (vec![var(*a, sc)], vec![var(*b, sc)]);
                let (l, r) = (fresh("L", sc), fresh("R", sc));
                sc.regions.extend([l.clone(), r.clone()]);
                sc.depth += 1;
                let body = go(g, sc);
                sc.depth -= 1;
                sc.regions.truncate(sc.regions.len() - 2);
                RegFormula::Tc {
                    deterministic: *deterministic,
                    left: vec![l],
                    right: vec![r],
                    body: body.into(),
                    arg_left,
                    arg_right,
                }
            }
        }
    }
    let mut sc = Scope {
        regions: vec!["Q0".to_string(), "Q1".to_string()],
        sets: Vec::new(),
        depth: 0,
        fresh: 1,
    };
    let body = go(shape, &mut sc);
    RegFormula::forall_region("Q0", RegFormula::exists_region("Q1", body))
}

/// One or two short pieces — intervals with either endpoint open or closed,
/// and isolated points, so 0-dimensional regions belong to `S` sometimes:
/// at most nine regions, so the naive reference stays fast under nested
/// operators.
fn arb_small_intervals() -> impl Strategy<Value = Relation> {
    let piece = (-3i64..=3, 0i64..=2, any::<bool>(), any::<bool>());
    proptest::collection::vec(piece, 1..3).prop_map(|spans| {
        let parts: Vec<String> = spans
            .iter()
            .map(|&(lo, w, lo_closed, hi_closed)| {
                let le = |closed| if closed { "<=" } else { "<" };
                match w {
                    0 => format!("x = {lo}"),
                    _ => format!("({lo} {} x and x {} {})", le(lo_closed), le(hi_closed), lo + w),
                }
            })
            .collect();
        rel1(&parts.join(" or "))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test of the fixed-point and closure logics: on both
    /// decompositions, every route to the verdict — an uninterrupted run,
    /// and abort-at-a-stage-cap then resume from the decoded checkpoint —
    /// agrees with the naive explicit-set semantics.
    #[test]
    fn fixpoint_evaluation_matches_reference_semantics(
        shape in arb_fix_shape(),
        rel in arb_small_intervals(),
    ) {
        let sentence = bind_fix_shape(&shape);
        for (name, ext) in [
            ("arrangement", RegionExtension::arrangement(rel.clone())),
            ("nc1", RegionExtension::nc1(rel.clone())),
        ] {
            let want = reference_eval(&ext, &sentence, &mut BTreeMap::new());
            let ev = Evaluator::with_budget(&ext, EvalBudget::unlimited());
            let got = ev
                .try_eval_sentence(&sentence)
                .expect("unlimited budget cannot trip");
            prop_assert_eq!(got, want, "{}: {:?}", name, sentence);
            let stages = ev.stats().fix_iterations as u64;
            // Every cap for short runs, a spread of caps for long ones.
            let step = (stages / 24).max(1);
            for cap in (1..=stages).step_by(step as usize) {
                let tight = EvalBudget::unlimited().with_max_fix_iterations(cap);
                let ev = Evaluator::with_budget(&ext, tight);
                let verdict = match ev.try_eval_sentence(&sentence) {
                    Ok(v) => v,
                    Err(e) => {
                        prop_assert!(
                            matches!(e, lcdb::EvalError::IterationLimit { .. }),
                            "{} cap {}: {}", name, cap, e
                        );
                        let snap = lcdb::Snapshot::decode(&ev.checkpoint(&sentence).encode())
                            .expect("checkpoint decodes");
                        let ev2 = Evaluator::with_budget(&ext, EvalBudget::unlimited());
                        ev2.resume_from(&sentence, &snap).expect("matching snapshot");
                        ev2.try_eval_sentence(&sentence).expect("resume completes")
                    }
                };
                prop_assert_eq!(verdict, want, "{} resumed from cap {}: {:?}", name, cap, sentence);
            }
        }
    }
}

/// A closed box `[x0, x0 + w] × [y0, y0 + h]` on a coarse grid (a segment
/// or a point when a width is 0), optionally cut by `a·x + b·y ≤ c`.
type BoxSpec = (i64, i64, i64, i64, Option<(i64, i64, i64)>);

fn arb_box() -> impl Strategy<Value = BoxSpec> {
    let cut = prop_oneof![
        Just(None),
        (-2i64..=2, -2i64..=2, -2i64..=6).prop_map(Some),
    ];
    (-3i64..=3, 0i64..=3, -3i64..=3, 0i64..=3, cut)
}

fn box_atoms(&(x0, w, y0, h, cut): &BoxSpec) -> Vec<Atom> {
    let side = |v: &str, rel, c: i64| Atom::new(LinExpr::var(v), rel, LinExpr::constant(int(c)));
    let mut atoms = vec![
        side("x", Rel::Ge, x0),
        side("x", Rel::Le, x0 + w),
        side("y", Rel::Ge, y0),
        side("y", Rel::Le, y0 + h),
    ];
    if let Some((a, b, c)) = cut {
        let lhs = LinExpr::var("x").scale(&int(a)).add(&LinExpr::var("y").scale(&int(b)));
        atoms.push(Atom::new(lhs, Rel::Le, LinExpr::constant(int(c))));
    }
    atoms
}

fn relation2(disjuncts: Vec<Vec<Atom>>) -> Relation {
    Relation::from_dnf(vec!["x".into(), "y".into()], dnf::Dnf { disjuncts })
}

/// An invertible integer affine map `p ↦ M·p + t` of the plane.
type Affine = ([i64; 4], [i64; 2]);

fn arb_affine() -> impl Strategy<Value = Affine> {
    (-2i64..=2, -2i64..=2, -2i64..=2, -2i64..=2, -3i64..=3, -3i64..=3)
        .prop_filter("invertible", |(a, b, c, d, _, _)| a * d - b * c != 0)
        .prop_map(|(a, b, c, d, t, u)| ([a, b, c, d], [t, u]))
}

fn map_point(([a, b, c, d], [t, u]): &Affine, p: &[Rational]) -> Vec<Rational> {
    vec![
        &(&int(*a) * &p[0]) + &(&(&int(*b) * &p[1]) + &int(*t)),
        &(&int(*c) * &p[0]) + &(&(&int(*d) * &p[1]) + &int(*u)),
    ]
}

/// The image of a relation under the map: every atom read at the preimage
/// `M⁻¹(p − t)` of its argument.
fn map_relation(([a, b, c, d], [t, u]): &Affine, rel: &Relation) -> Relation {
    let det = int(a * d - b * c);
    let (dx, dy) = (
        LinExpr::var("x").sub(&LinExpr::constant(int(*t))),
        LinExpr::var("y").sub(&LinExpr::constant(int(*u))),
    );
    let pre_x = dx.scale(&int(*d)).sub(&dy.scale(&int(*b))).scale(&det.recip());
    let pre_y = dy.scale(&int(*a)).sub(&dx.scale(&int(*c))).scale(&det.recip());
    let image = |atom: &Atom| {
        atom.substitute("x", &LinExpr::var("x'"))
            .substitute("y", &pre_y)
            .substitute("x'", &pre_x)
    };
    relation2(
        rel.dnf()
            .disjuncts
            .iter()
            .map(|conj| conj.iter().map(image).collect())
            .collect(),
    )
}

/// Region counts by (dimension, kind) — what is left of a decomposition
/// when the order of its regions is forgotten.
fn nc1_census(rel: &Relation) -> BTreeMap<(usize, String), usize> {
    let mut census = BTreeMap::new();
    for r in &lcdb::geom::nc1::decompose_relation(rel).regions {
        *census.entry((r.dim, format!("{:?}", r.kind))).or_insert(0) += 1;
    }
    census
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Note 7.1, geometric half: the NC¹ regions of a closed relation cover
    /// exactly the relation, and an invertible affine map of the database
    /// moves the cover and the vertex count with it.
    #[test]
    fn nc1_cover_is_affine_invariant(
        boxes in proptest::collection::vec(arb_box(), 1..3),
        map in arb_affine(),
        probes in proptest::collection::vec((-8i64..=12, -8i64..=12), 12),
    ) {
        let rel = relation2(boxes.iter().map(box_atoms).collect());
        let moved = map_relation(&map, &rel);
        let dec = lcdb::geom::nc1::decompose_relation(&rel);
        let dec_moved = lcdb::geom::nc1::decompose_relation(&moved);
        prop_assert_eq!(dec.counts_by_dim()[0], dec_moved.counts_by_dim()[0], "vertex count");
        for (px, py) in probes {
            let p = vec![Rational::from_i64s(px, 2), Rational::from_i64s(py, 2)];
            let q = map_point(&map, &p);
            prop_assert_eq!(dec.covers(&p), rel.contains(&p), "cover at {:?}", p);
            prop_assert_eq!(moved.contains(&q), rel.contains(&p), "image at {:?}", q);
            prop_assert_eq!(dec_moved.covers(&q), rel.contains(&p), "moved cover at {:?}", q);
        }
    }

    /// The census by dimension and kind does not depend on the order of the
    /// atoms in a disjunct or of the disjuncts (unbounded ones included: the
    /// boxes lose a side).
    #[test]
    fn nc1_census_is_permutation_invariant(
        boxes in proptest::collection::vec((arb_box(), 0usize..5), 1..4),
        rotate in 0usize..5,
    ) {
        let disjuncts: Vec<Vec<Atom>> = boxes
            .iter()
            .map(|(spec, open_side)| {
                let mut atoms = box_atoms(spec);
                if *open_side < 4 {
                    atoms.remove(*open_side);
                }
                atoms
            })
            .collect();
        let mut permuted: Vec<Vec<Atom>> = disjuncts
            .iter()
            .map(|conj| {
                let mut conj = conj.clone();
                let by = rotate % conj.len();
                conj.rotate_left(by);
                conj.reverse();
                conj
            })
            .collect();
        permuted.rotate_left(rotate % disjuncts.len());
        prop_assert_eq!(nc1_census(&relation2(disjuncts)), nc1_census(&relation2(permuted)));
    }

    /// Note 7.1, logical half: Conn (RegLFP) and its RegTC form are
    /// decomposition-independent, so the NC¹ regions and the arrangement
    /// give one verdict. The NC¹ regions of different disjuncts are glued
    /// only where one lies in the closure of another, so two boxes that
    /// cross without either holding a corner of the other are left out
    /// (the paper's price for the weaker decomposition, §7).
    #[test]
    fn nc1_connectivity_agrees_with_the_arrangement(
        boxes in proptest::collection::vec(arb_box(), 1..3),
        map in arb_affine(),
    ) {
        let boxes: Vec<BoxSpec> = boxes.iter().map(|b| (b.0, b.1, b.2, b.3, None)).collect();
        let corner_inside = |a: &BoxSpec, b: &BoxSpec| {
            [a.0, a.0 + a.1].iter().any(|x| (b.0..=b.0 + b.1).contains(x))
                && [a.2, a.2 + a.3].iter().any(|y| (b.2..=b.2 + b.3).contains(y))
        };
        let meet = |a: &BoxSpec, b: &BoxSpec| {
            a.0 <= b.0 + b.1 && b.0 <= a.0 + a.1 && a.2 <= b.2 + b.3 && b.2 <= a.2 + a.3
        };
        if let [a, b] = &boxes[..] {
            prop_assume!(!meet(a, b) || corner_inside(a, b) || corner_inside(b, a));
        }
        let rel = map_relation(&map, &relation2(boxes.iter().map(box_atoms).collect()));
        let arrangement = RegionExtension::arrangement(rel.clone());
        let nc1 = RegionExtension::nc1(rel);
        for sentence in [lcdb::core::queries::connectivity(), lcdb::core::queries::connectivity_tc(false)] {
            let verdict = |ext: &RegionExtension| {
                Evaluator::with_budget(ext, EvalBudget::unlimited())
                    .try_eval_sentence(&sentence)
                    .expect("unlimited budget cannot trip")
            };
            prop_assert_eq!(verdict(&nc1), verdict(&arrangement), "{:?}", sentence);
        }
    }
}
