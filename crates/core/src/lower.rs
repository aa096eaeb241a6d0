//! Lowering `RegFormula` to the interned plan IR of `lcdb-plan`.
//!
//! Lowering is polarity-carrying: negations are pushed to the leaves (NNF)
//! as the AST is walked, so the resulting plan has `Not` only around
//! non-decomposable leaves (predicates, region tests, set applications,
//! fixpoint/closure operators). Constant folding and common-subplan sharing
//! happen for free in the arena's smart constructors, and each region
//! quantifier is hoisted as it is built, so lowering is one pass. The root's
//! canonical hash is the query fingerprint persisted by `lcdb-recover` —
//! computed from the plan structure, never from a pretty-printed rendering.

use crate::regfo::RegFormula;
use lcdb_plan::hash::FastMap;
use lcdb_plan::{passes, Plan, PlanId, PlanNode};
use std::sync::Arc;

/// One `compile` call's memo of the `Arc` children lowered so far, by
/// address and polarity. Exact: lowering has no environment and interning is
/// deterministic, so it skips only walks whose every intern would hit. The
/// keys are this process's addresses, so the fast hasher qualifies.
type Memo = FastMap<(*const RegFormula, bool), PlanId>;

/// Compile a formula to an optimized plan in one pass: NNF lowering with
/// constant folding, hash-consed sharing and region-quantifier hoisting.
/// Returns the arena and the root id.
pub fn compile(f: &RegFormula) -> (Plan, PlanId) {
    let mut plan = Plan::new();
    let root = lower_pol(&mut plan, &mut Memo::default(), f, true);
    (plan, root)
}

/// The canonical structural fingerprint of a query: the root node's
/// canonical 64-bit hash after compilation. Stable across processes (the
/// hash is FNV-1a over the plan structure) and across semantically-neutral
/// AST differences that lowering normalizes away.
pub fn query_fingerprint(f: &RegFormula) -> u64 {
    let (plan, root) = compile(f);
    plan.hash(root)
}

/// Render the optimized plan for `f` with per-node cost annotations — the
/// CLI's `--explain` output and the golden plan snapshots diffed in CI.
pub fn explain_query(f: &RegFormula) -> String {
    let (plan, root) = compile(f);
    lcdb_plan::explain::render(&plan, root)
}

/// Lower `f` at the given polarity. At negative polarity the connectives
/// and quantifiers dualize and linear atoms negate algebraically; opaque
/// leaves and the fixpoint/closure operators (whose bodies are independent
/// polarity scopes) are lowered positively and wrapped in `Not`.
fn lower_pol(plan: &mut Plan, memo: &mut Memo, f: &RegFormula, positive: bool) -> PlanId {
    // At negative polarity a constant, connective or quantifier lowers to
    // its dual: `f` keeps its own kind iff `matches!(f, …) == positive`.
    match f {
        RegFormula::True | RegFormula::False => {
            if matches!(f, RegFormula::True) == positive {
                plan.truth()
            } else {
                plan.falsity()
            }
        }
        RegFormula::Lin(a) => {
            if positive {
                plan.lin(a.clone())
            } else {
                let parts = a
                    .negate()
                    .into_iter()
                    .map(|na| plan.lin(na))
                    .collect::<Vec<_>>();
                plan.or_node(parts)
            }
        }
        RegFormula::And(fs) | RegFormula::Or(fs) => {
            let parts = fs
                .iter()
                .map(|g| lower_pol(plan, memo, g, positive))
                .collect();
            if matches!(f, RegFormula::And(_)) == positive {
                plan.and_node(parts)
            } else {
                plan.or_node(parts)
            }
        }
        RegFormula::Not(inner) => lower_child(plan, memo, inner, !positive),
        RegFormula::ExistsElem(v, inner) | RegFormula::ForallElem(v, inner) => {
            let body = lower_child(plan, memo, inner, positive);
            let node = if matches!(f, RegFormula::ExistsElem(..)) == positive {
                PlanNode::ExistsElem(v.clone(), body)
            } else {
                PlanNode::ForallElem(v.clone(), body)
            };
            plan.intern(node)
        }
        RegFormula::ExistsRegion(v, inner) | RegFormula::ForallRegion(v, inner) => {
            let body = lower_child(plan, memo, inner, positive);
            let exists = matches!(f, RegFormula::ExistsRegion(..)) == positive;
            passes::hoist_one(plan, v, body, exists)
        }
        // Opaque leaves: lower positively, wrap when the context negates.
        other => {
            let id = lower_leaf(plan, memo, other);
            if positive {
                id
            } else {
                plan.not_node(id)
            }
        }
    }
}

/// Lower an `Arc` child at the given polarity, once per compile call.
fn lower_child(plan: &mut Plan, memo: &mut Memo, f: &Arc<RegFormula>, positive: bool) -> PlanId {
    let key = (Arc::as_ptr(f), positive);
    if let Some(&id) = memo.get(&key) {
        return id;
    }
    let id = lower_pol(plan, memo, f, positive);
    memo.insert(key, id);
    id
}

/// Lower a leaf (or an operator whose body is its own polarity scope) at
/// positive polarity.
fn lower_leaf(plan: &mut Plan, memo: &mut Memo, f: &RegFormula) -> PlanId {
    match f {
        RegFormula::Pred(name, args) => plan.intern(PlanNode::Pred(name.clone(), args.clone())),
        RegFormula::In(args, r) => plan.intern(PlanNode::In(args.clone(), r.clone())),
        RegFormula::Adj(a, b) => plan.intern(PlanNode::Adj(a.clone(), b.clone())),
        RegFormula::RegionEq(a, b) => plan.intern(PlanNode::RegionEq(a.clone(), b.clone())),
        RegFormula::SubsetOf(r, s) => plan.intern(PlanNode::SubsetOf(r.clone(), s.clone())),
        RegFormula::DimEq(r, k) => plan.intern(PlanNode::DimEq(r.clone(), *k)),
        RegFormula::Bounded(r) => plan.intern(PlanNode::Bounded(r.clone())),
        RegFormula::SetApp(m, vars) => plan.intern(PlanNode::SetApp(m.clone(), vars.clone())),
        RegFormula::Fix {
            mode,
            set_var,
            vars,
            body,
            args,
        } => {
            let body = lower_child(plan, memo, body, true);
            plan.intern(PlanNode::Fix {
                mode: *mode,
                set_var: set_var.clone(),
                vars: vars.clone(),
                body,
                args: args.clone(),
            })
        }
        RegFormula::Rbit { var, body, rn, rd } => {
            let body = lower_child(plan, memo, body, true);
            plan.intern(PlanNode::Rbit {
                var: var.clone(),
                body,
                rn: rn.clone(),
                rd: rd.clone(),
            })
        }
        RegFormula::Tc {
            deterministic,
            left,
            right,
            body,
            arg_left,
            arg_right,
        } => {
            let body = lower_child(plan, memo, body, true);
            plan.intern(PlanNode::Tc {
                deterministic: *deterministic,
                left: left.clone(),
                right: right.clone(),
                body,
                arg_left: arg_left.clone(),
                arg_right: arg_right.clone(),
            })
        }
        // The decomposable cases are handled by `lower_pol`.
        _ => unreachable!("lower_leaf called on a decomposable node"),
    }
}

// The FO+LIN fragment lowering lives in `lcdb-plan` (it is shared with the
// datalog engine, which does not depend on this crate); re-exported here so
// region-logic callers find the whole lowering surface in one module.
pub use lcdb_plan::exec::lower_fo;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::int;
    use lcdb_logic::{Atom, LinExpr, Rel};

    fn lt(c: i64) -> RegFormula {
        RegFormula::Lin(Atom::new(
            LinExpr::var("x"),
            Rel::Lt,
            LinExpr::constant(int(c)),
        ))
    }

    #[test]
    fn negation_pushes_to_nnf() {
        // ¬(a ∧ ∃R adj(R, S)) lowers to ¬a ∨ ∀R ¬adj(R, S).
        let f = RegFormula::not(RegFormula::and(vec![
            lt(1),
            RegFormula::exists_region("R", RegFormula::Adj("R".into(), "S".into())),
        ]));
        let (plan, root) = compile(&f);
        match plan.node(root) {
            PlanNode::Or(parts) => {
                assert_eq!(parts.len(), 2);
                // x < 1 negates algebraically to x >= 1 (a Lin leaf, no Not).
                assert!(matches!(plan.node(parts[0]), PlanNode::Lin(_)));
                match plan.node(parts[1]) {
                    PlanNode::ForallRegion(v, inner) => {
                        assert_eq!(v, "R");
                        assert!(matches!(plan.node(*inner), PlanNode::Not(_)));
                    }
                    other => panic!("expected dualized ∀R, got {other:?}"),
                }
            }
            other => panic!("expected NNF Or, got {other:?}"),
        }
    }

    #[test]
    fn double_negation_vanishes() {
        let f = RegFormula::not(RegFormula::not(lt(1)));
        let (plan, root) = compile(&f);
        assert!(matches!(plan.node(root), PlanNode::Lin(_)));
    }

    #[test]
    fn fingerprint_is_stable_under_lowering_normalizations() {
        // ¬¬φ and φ share a fingerprint; distinct queries do not.
        let f = lt(1);
        let g = RegFormula::not(RegFormula::not(lt(1)));
        assert_eq!(query_fingerprint(&f), query_fingerprint(&g));
        assert_ne!(query_fingerprint(&f), query_fingerprint(&lt(2)));
    }

    #[test]
    fn shared_subformulas_intern_once() {
        let shared = RegFormula::exists_region("R", RegFormula::SubsetOf("R".into(), "S".into()));
        let f = RegFormula::and(vec![
            RegFormula::or(vec![shared.clone(), lt(1)]),
            RegFormula::or(vec![shared, lt(2)]),
        ]);
        let (plan, root) = compile(&f);
        let counts = plan.reference_counts(root);
        let shared_nodes = counts.iter().filter(|&&c| c > 1).count();
        assert!(shared_nodes >= 1, "the ∃R subplan must be shared");
    }

    #[test]
    fn a_shared_dag_lowers_in_time_linear_in_its_size() {
        // f_{i+1} = ∃X_i f_i ∨ ∀X_i f_i with f_i one shared Arc: 3·40 + 1
        // formula nodes whose tree unfolds to 2⁴⁰ leaves.
        let mut f = Arc::new(RegFormula::Bounded("X0".into()));
        for i in 0..40 {
            let v = format!("X{i}");
            f = Arc::new(RegFormula::or(vec![
                RegFormula::ExistsRegion(v.clone(), f.clone()),
                RegFormula::ForallRegion(v, f),
            ]));
        }
        let start = std::time::Instant::now();
        let (plan, root) = compile(&RegFormula::not((*f).clone()));
        assert!(start.elapsed().as_secs_f64() < 0.5, "{:?}", start.elapsed());
        assert!(plan.len() < 400, "{} nodes", plan.len());
        assert!(matches!(plan.node(root), PlanNode::And(_)));
    }

    #[test]
    fn fix_bodies_are_their_own_polarity_scope() {
        // ¬[LFP ...](R): the Fix node is wrapped, its body is untouched.
        let fix = RegFormula::Fix {
            mode: lcdb_plan::FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: Arc::new(RegFormula::SetApp("M".into(), vec!["X".into()])),
            args: vec!["R".into()],
        };
        let f = RegFormula::not(fix);
        let (plan, root) = compile(&f);
        match plan.node(root) {
            PlanNode::Not(inner) => {
                let PlanNode::Fix { body, .. } = plan.node(*inner) else {
                    panic!("expected Fix under Not");
                };
                assert!(matches!(plan.node(*body), PlanNode::SetApp(..)));
                assert!(plan.positive_in(*body, "M"));
            }
            other => panic!("expected Not(Fix), got {other:?}"),
        }
    }

    #[test]
    fn explain_renders_paper_queries() {
        let conn = crate::queries::connectivity();
        let text = explain_query(&conn);
        assert!(text.contains("lfp"), "{text}");
        assert!(text.contains("stages:"), "{text}");
        assert!(text.contains("plan: nodes="), "{text}");
        // Deterministic across calls (golden-file precondition).
        assert_eq!(text, explain_query(&conn));
    }
}
