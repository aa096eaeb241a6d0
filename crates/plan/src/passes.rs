//! Rewrites on the plan DAG.
//!
//! Region-quantifier hoisting ([`hoist_one`]) is a rewrite applied as each
//! quantifier is built, so lowering never rebuilds the DAG; a rebuild pass
//! applying it to a finished plan is the tests' oracle for that.
//! Stratification ([`stratify`]) reads a finished plan.

use crate::{children, FixMode, Plan, PlanId, PlanNode};
use std::collections::HashMap;

/// Build `∃v body` (`exists`) or `∀v body` over the region variable `v`,
/// hoisting the conjuncts (dually: disjuncts) independent of `v` out of the
/// quantifier's scope:
///
/// * `∃R (φ ∧ ψ(R))  ⇒  φ ∧ ∃R ψ(R)` when `R` is not free in `φ`,
/// * `∀R (φ ∨ ψ(R))  ⇒  φ ∨ ∀R ψ(R)` when `R` is not free in `φ`.
///
/// The transformation fires only when both the independent and the
/// dependent part are non-empty, which keeps it sound even on an empty
/// region domain (the residual quantifier still decides emptiness). Inside
/// fixpoint bodies this exposes stage-invariant subplans that the
/// executor's memo tables then evaluate once instead of once per stage.
///
/// Lowering calls this where it builds each region quantifier: the body is
/// final there, so no second pass over the plan is needed.
pub fn hoist_one(plan: &mut Plan, v: &str, body: PlanId, exists: bool) -> PlanId {
    let quantify = |plan: &mut Plan, body| {
        plan.intern(if exists {
            PlanNode::ExistsRegion(v.to_string(), body)
        } else {
            PlanNode::ForallRegion(v.to_string(), body)
        })
    };
    let (dependent, independent): (Vec<PlanId>, Vec<PlanId>) = match (exists, plan.node(body)) {
        (true, PlanNode::And(parts)) | (false, PlanNode::Or(parts)) => parts
            .iter()
            .partition(|&&p| plan.facts(p).free_regions.iter().any(|r| r == v)),
        _ => return quantify(plan, body),
    };
    if dependent.is_empty() || independent.is_empty() {
        return quantify(plan, body);
    }
    let mut out = independent;
    if exists {
        let inner = plan.and_node(dependent);
        out.push(quantify(plan, inner));
        plan.and_node(out)
    } else {
        let inner = plan.or_node(dependent);
        out.push(quantify(plan, inner));
        plan.or_node(out)
    }
}

/// One fixpoint/closure stage discovered by [`stratify`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stage {
    /// The `Fix` or `Tc` node.
    pub id: PlanId,
    /// 1-based nesting depth: innermost operators have depth 1.
    pub depth: usize,
    /// Operator kind: `lfp`, `ifp`, `pfp`, `tc`, or `dtc`.
    pub kind: &'static str,
}

/// Dependency stratification: every `Fix`/`Tc` node reachable from `root`,
/// ordered by nesting depth (innermost first, ties broken by interning
/// order). A stage-wise executor must saturate each stage before any stage
/// that nests it can run — this is the evaluation order of the stages.
pub fn stratify(plan: &Plan, root: PlanId) -> Vec<Stage> {
    let mut depth_memo: HashMap<PlanId, usize> = HashMap::new();
    let mut stages: Vec<Stage> = Vec::new();
    collect(plan, root, &mut depth_memo, &mut stages);
    stages.sort_by_key(|s| (s.depth, s.id));
    stages.dedup();
    stages
}

/// Maximum stage depth within the subtree at `id` (0 = no stages).
fn stage_depth(plan: &Plan, id: PlanId, memo: &mut HashMap<PlanId, usize>) -> usize {
    if let Some(&d) = memo.get(&id) {
        return d;
    }
    let node = plan.node(id);
    let child_max = children(node)
        .into_iter()
        .map(|c| stage_depth(plan, c, memo))
        .max()
        .unwrap_or(0);
    let d = match node {
        PlanNode::Fix { .. } | PlanNode::Tc { .. } => child_max + 1,
        _ => child_max,
    };
    memo.insert(id, d);
    d
}

fn collect(
    plan: &Plan,
    id: PlanId,
    depth_memo: &mut HashMap<PlanId, usize>,
    stages: &mut Vec<Stage>,
) {
    let node = plan.node(id).clone();
    match &node {
        PlanNode::Fix { mode, .. } => {
            let kind = match mode {
                FixMode::Lfp => "lfp",
                FixMode::Ifp => "ifp",
                FixMode::Pfp => "pfp",
            };
            stages.push(Stage {
                id,
                depth: stage_depth(plan, id, depth_memo),
                kind,
            });
        }
        PlanNode::Tc { deterministic, .. } => {
            stages.push(Stage {
                id,
                depth: stage_depth(plan, id, depth_memo),
                kind: if *deterministic { "dtc" } else { "tc" },
            });
        }
        _ => {}
    }
    for c in children(&node) {
        collect(plan, c, depth_memo, stages);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::explain;
    use lcdb_arith::int;
    use lcdb_logic::{Atom, LinExpr, Rel};
    use proptest::prelude::*;

    fn atom(c: i64) -> Atom {
        Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(c)))
    }

    /// The two-pass oracle: rebuild a finished plan bottom-up through the
    /// smart constructors, applying [`hoist_one`] at every region
    /// quantifier. Lowering hoists as it builds instead; the proptest below
    /// holds the two to the same plan.
    fn hoist_region_quantifiers(plan: &mut Plan, root: PlanId) -> PlanId {
        let mut memo: HashMap<PlanId, PlanId> = HashMap::new();
        rebuild(plan, root, &mut memo)
    }

    fn rebuild(plan: &mut Plan, id: PlanId, memo: &mut HashMap<PlanId, PlanId>) -> PlanId {
        if let Some(&out) = memo.get(&id) {
            return out;
        }
        let node = plan.node(id).clone();
        let out = match node {
            PlanNode::And(parts) => {
                let parts = parts.iter().map(|&p| rebuild(plan, p, memo)).collect();
                plan.and_node(parts)
            }
            PlanNode::Or(parts) => {
                let parts = parts.iter().map(|&p| rebuild(plan, p, memo)).collect();
                plan.or_node(parts)
            }
            PlanNode::Not(p) => {
                let p = rebuild(plan, p, memo);
                plan.not_node(p)
            }
            PlanNode::ExistsElem(v, p) => {
                let p = rebuild(plan, p, memo);
                plan.intern(PlanNode::ExistsElem(v, p))
            }
            PlanNode::ForallElem(v, p) => {
                let p = rebuild(plan, p, memo);
                plan.intern(PlanNode::ForallElem(v, p))
            }
            PlanNode::ExistsRegion(v, p) => {
                let p = rebuild(plan, p, memo);
                hoist_one(plan, &v, p, true)
            }
            PlanNode::ForallRegion(v, p) => {
                let p = rebuild(plan, p, memo);
                hoist_one(plan, &v, p, false)
            }
            PlanNode::Fix {
                mode,
                set_var,
                vars,
                body,
                args,
            } => {
                let body = rebuild(plan, body, memo);
                plan.intern(PlanNode::Fix {
                    mode,
                    set_var,
                    vars,
                    body,
                    args,
                })
            }
            PlanNode::Rbit { var, body, rn, rd } => {
                let body = rebuild(plan, body, memo);
                plan.intern(PlanNode::Rbit { var, body, rn, rd })
            }
            PlanNode::Tc {
                deterministic,
                left,
                right,
                body,
                arg_left,
                arg_right,
            } => {
                let body = rebuild(plan, body, memo);
                plan.intern(PlanNode::Tc {
                    deterministic,
                    left,
                    right,
                    body,
                    arg_left,
                    arg_right,
                })
            }
            leaf => plan.intern(leaf),
        };
        memo.insert(id, out);
        out
    }

    /// A plan shape over a small alphabet, so equal subplans recur and the
    /// arena shares them.
    #[derive(Clone, Debug)]
    enum Shape {
        Leaf(u8),
        And(Vec<Shape>),
        Or(Vec<Shape>),
        Not(Box<Shape>),
        /// `∃` (true) or `∀` over region variable `R`, `S` or `T`.
        Region(bool, u8, Box<Shape>),
        /// `∃x` (true) or `∀x`.
        Elem(bool, Box<Shape>),
    }

    /// A rooted plan: a shape, optionally glued to one fixpoint (negated or
    /// not) whose body is a shape of its own. One fixpoint, so the stage
    /// listing has no tie for the id order to break.
    #[derive(Clone, Debug)]
    struct Rooted {
        rest: Shape,
        fix: Option<(Shape, bool)>,
        glue: u8,
    }

    const REGIONS: [&str; 3] = ["R", "S", "T"];

    fn arb_shape() -> impl Strategy<Value = Shape> {
        (0u8..14).prop_map(Shape::Leaf).prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::And),
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Or),
                inner.clone().prop_map(|s| Shape::Not(Box::new(s))),
                (any::<bool>(), 0u8..3, inner.clone())
                    .prop_map(|(e, v, s)| Shape::Region(e, v, Box::new(s))),
                (any::<bool>(), inner.clone()).prop_map(|(e, s)| Shape::Elem(e, Box::new(s))),
                // A region quantifier straight over a mixed connective.
                (any::<bool>(), 0u8..3, proptest::collection::vec(inner, 2..4)).prop_map(
                    |(e, v, parts)| {
                        let body = if e { Shape::And(parts) } else { Shape::Or(parts) };
                        Shape::Region(e, v, Box::new(body))
                    }
                ),
            ]
        })
    }

    fn arb_rooted() -> impl Strategy<Value = Rooted> {
        // Glue 4: no fixpoint.
        (arb_shape(), arb_shape(), any::<bool>(), 0u8..5).prop_map(|(rest, body, negated, glue)| {
            Rooted {
                rest,
                fix: (glue < 4).then_some((body, negated)),
                glue,
            }
        })
    }

    fn leaf(plan: &mut Plan, i: u8) -> PlanId {
        let r = |v: &str| v.to_string();
        plan.intern(match i {
            0 => PlanNode::Adj(r("R"), r("S")),
            1 => PlanNode::Adj(r("S"), r("T")),
            2 => PlanNode::Bounded(r("R")),
            3 => PlanNode::Bounded(r("T")),
            4 => PlanNode::DimEq(r("S"), 0),
            5 => PlanNode::RegionEq(r("R"), r("T")),
            6 => PlanNode::SetApp(r("M"), vec![r("R")]),
            7 => PlanNode::SetApp(r("M"), vec![r("S")]),
            8 => PlanNode::Lin(atom(1)),
            9 => PlanNode::Lin(atom(2)),
            10 => PlanNode::In(vec![LinExpr::var("x")], r("T")),
            11 => PlanNode::SubsetOf(r("R"), r("P")),
            12 => PlanNode::True,
            _ => PlanNode::False,
        })
    }

    /// A region quantifier: hoisted as it is built (`one_pass`), or left in
    /// place for the rebuild pass.
    fn region(plan: &mut Plan, exists: bool, v: &str, body: PlanId, one_pass: bool) -> PlanId {
        match (one_pass, exists) {
            (true, _) => hoist_one(plan, v, body, exists),
            (false, true) => plan.intern(PlanNode::ExistsRegion(v.to_string(), body)),
            (false, false) => plan.intern(PlanNode::ForallRegion(v.to_string(), body)),
        }
    }

    fn build(plan: &mut Plan, s: &Shape, one_pass: bool) -> PlanId {
        match s {
            Shape::Leaf(i) => leaf(plan, *i),
            Shape::And(xs) | Shape::Or(xs) => {
                let parts = xs.iter().map(|x| build(plan, x, one_pass)).collect();
                if matches!(s, Shape::And(_)) {
                    plan.and_node(parts)
                } else {
                    plan.or_node(parts)
                }
            }
            Shape::Not(x) => {
                let x = build(plan, x, one_pass);
                plan.not_node(x)
            }
            Shape::Region(exists, v, x) => {
                let x = build(plan, x, one_pass);
                region(plan, *exists, REGIONS[*v as usize], x, one_pass)
            }
            Shape::Elem(exists, x) => {
                let x = build(plan, x, one_pass);
                plan.intern(if *exists {
                    PlanNode::ExistsElem("x".into(), x)
                } else {
                    PlanNode::ForallElem("x".into(), x)
                })
            }
        }
    }

    fn build_rooted(plan: &mut Plan, t: &Rooted, one_pass: bool) -> PlanId {
        let rest = build(plan, &t.rest, one_pass);
        let Some((body, negated)) = &t.fix else {
            return rest;
        };
        let body = build(plan, body, one_pass);
        let fix = plan.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["R".into()],
            body,
            args: vec!["T".into()],
        });
        let fix = if *negated { plan.not_node(fix) } else { fix };
        match t.glue {
            0 => plan.and_node(vec![rest, fix]),
            1 => plan.or_node(vec![rest, fix]),
            2 => {
                let both = plan.and_node(vec![rest, fix]);
                region(plan, true, "S", both, one_pass)
            }
            _ => {
                let either = plan.or_node(vec![rest, fix]);
                region(plan, false, "R", either, one_pass)
            }
        }
    }

    /// `text` with every node id `#123` replaced by `#N`.
    fn without_ids(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            out.push(c);
            if c == '#' && chars.peek().is_some_and(char::is_ascii_digit) {
                while chars.next_if(char::is_ascii_digit).is_some() {}
                out.push('N');
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hoisting as each quantifier is built gives the plan the rebuild
        /// pass gives: the same root hash, root facts and rendering up to
        /// node ids.
        #[test]
        fn hoisting_at_construction_equals_the_rebuild_pass(t in arb_rooted()) {
            let mut one = Plan::new();
            let r1 = build_rooted(&mut one, &t, true);
            let mut two = Plan::new();
            let built = build_rooted(&mut two, &t, false);
            let r2 = hoist_region_quantifiers(&mut two, built);
            prop_assert_eq!(one.hash(r1), two.hash(r2));
            prop_assert_eq!(one.facts(r1), two.facts(r2));
            prop_assert_eq!(
                without_ids(&explain::render(&one, r1)),
                without_ids(&explain::render(&two, r2))
            );
            // A one-pass plan is a fixed point of the rebuild pass.
            let again = hoist_region_quantifiers(&mut one, r1);
            prop_assert_eq!(again, r1);
        }
    }

    #[test]
    fn hoisting_at_construction_interns_no_intermediate() {
        // ∃R (dim(S)=0 ∧ adj(R, S)): the rebuild pass interns the
        // un-hoisted ∃R first; building it hoisted never does.
        let body = Shape::And(vec![Shape::Leaf(4), Shape::Leaf(0)]);
        let t = Rooted {
            rest: Shape::Region(true, 0, Box::new(body)),
            fix: None,
            glue: 0,
        };
        let mut one = Plan::new();
        let r1 = build_rooted(&mut one, &t, true);
        let mut two = Plan::new();
        let built = build_rooted(&mut two, &t, false);
        let r2 = hoist_region_quantifiers(&mut two, built);
        assert_eq!(one.hash(r1), two.hash(r2));
        assert_eq!((one.len(), two.len()), (5, 6));
        assert_eq!(without_ids("#12 a [see #3] #x #"), "#N a [see #N] #x #");
    }

    #[test]
    fn hoist_splits_independent_conjuncts() {
        let mut p = Plan::new();
        // ∃R ( dim(S)=0 ∧ adj(R, S) )
        let indep = p.intern(PlanNode::DimEq("S".into(), 0));
        let dep = p.intern(PlanNode::Adj("R".into(), "S".into()));
        let body = p.and_node(vec![indep, dep]);
        let q = p.intern(PlanNode::ExistsRegion("R".into(), body));
        let out = hoist_region_quantifiers(&mut p, q);
        match p.node(out) {
            PlanNode::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert_eq!(parts[0], indep);
                match p.node(parts[1]) {
                    PlanNode::ExistsRegion(v, inner) => {
                        assert_eq!(v, "R");
                        assert_eq!(*inner, dep);
                    }
                    other => panic!("expected residual ∃R, got {other:?}"),
                }
            }
            other => panic!("expected hoisted And, got {other:?}"),
        }
    }

    #[test]
    fn hoist_forall_over_or_is_dual() {
        let mut p = Plan::new();
        let indep = p.intern(PlanNode::Bounded("S".into()));
        let dep = p.intern(PlanNode::RegionEq("R".into(), "S".into()));
        let body = p.or_node(vec![indep, dep]);
        let q = p.intern(PlanNode::ForallRegion("R".into(), body));
        let out = hoist_region_quantifiers(&mut p, q);
        match p.node(out) {
            PlanNode::Or(parts) => {
                assert_eq!(parts[0], indep);
                assert!(matches!(p.node(parts[1]), PlanNode::ForallRegion(v, _) if v == "R"));
            }
            other => panic!("expected hoisted Or, got {other:?}"),
        }
    }

    #[test]
    fn hoist_leaves_fully_dependent_scopes_alone() {
        let mut p = Plan::new();
        let dep1 = p.intern(PlanNode::Adj("R".into(), "S".into()));
        let dep2 = p.intern(PlanNode::Bounded("R".into()));
        let body = p.and_node(vec![dep1, dep2]);
        let q = p.intern(PlanNode::ExistsRegion("R".into(), body));
        let out = hoist_region_quantifiers(&mut p, q);
        assert_eq!(out, q);
    }

    #[test]
    fn hoist_does_not_drop_the_quantifier_when_all_independent() {
        // ∃R φ with R not free in φ must stay quantified: on an empty
        // region domain it is false even when φ holds.
        let mut p = Plan::new();
        let indep = p.lin(atom(1));
        let q = p.intern(PlanNode::ExistsRegion("R".into(), indep));
        let out = hoist_region_quantifiers(&mut p, q);
        assert_eq!(out, q);
    }

    #[test]
    fn stratify_orders_innermost_first() {
        let mut p = Plan::new();
        let sa_inner = p.intern(PlanNode::SetApp("N".into(), vec!["X".into()]));
        let inner = p.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "N".into(),
            vars: vec!["X".into()],
            body: sa_inner,
            args: vec!["X".into()],
        });
        let sa_outer = p.intern(PlanNode::SetApp("M".into(), vec!["X".into()]));
        let body = p.or_node(vec![inner, sa_outer]);
        let outer = p.intern(PlanNode::Fix {
            mode: FixMode::Ifp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body,
            args: vec!["A".into()],
        });
        let stages = stratify(&p, outer);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].id, inner);
        assert_eq!(stages[0].depth, 1);
        assert_eq!(stages[0].kind, "lfp");
        assert_eq!(stages[1].id, outer);
        assert_eq!(stages[1].depth, 2);
        assert_eq!(stages[1].kind, "ifp");
    }
}
