//! First-order executor over the plan IR.
//!
//! This is the symbolic (formula-producing) half of the execution story: it
//! evaluates the region-free, set-free fragment of the IR to a
//! quantifier-free [`Formula`], resolving `Pred` leaves through a
//! caller-supplied resolver. `lcdb-datalog` compiles rule bodies to this
//! fragment and runs them here — one shared plan per program, one memo per
//! job — instead of maintaining its own substitution/eval path. The
//! region-sort constructs are executed numerically by `lcdb-core`'s
//! plan-driven [`Evaluator`](https://docs.rs/lcdb-core), not here.

use crate::{Plan, PlanId, PlanNode};
use lcdb_logic::{qe, Formula, LinExpr};
use std::collections::HashMap;

/// Lower a first-order [`Formula`] (the FO+LIN fragment shared with the
/// datalog engine) into the plan, carrying polarity so the result is in
/// negation normal form. `Pred` applications map to plan `Pred` leaves via
/// `rename` — datalog uses it to tag each literal occurrence so
/// hash-consing cannot collapse two occurrences of the same predicate that
/// must bind different relations (e.g. the semi-naive delta).
pub fn lower_fo(
    plan: &mut Plan,
    f: &Formula,
    positive: bool,
    rename: &mut dyn FnMut(&str, &[LinExpr]) -> String,
) -> PlanId {
    match f {
        Formula::True => {
            if positive {
                plan.truth()
            } else {
                plan.falsity()
            }
        }
        Formula::False => {
            if positive {
                plan.falsity()
            } else {
                plan.truth()
            }
        }
        Formula::Atom(a) => {
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
        Formula::Pred(name, args) => {
            let tagged = rename(name, args);
            let id = plan.intern(PlanNode::Pred(tagged, args.clone()));
            if positive {
                id
            } else {
                plan.not_node(id)
            }
        }
        Formula::And(fs) => {
            let parts: Vec<PlanId> = fs
                .iter()
                .map(|g| lower_fo(plan, g, positive, rename))
                .collect();
            if positive {
                plan.and_node(parts)
            } else {
                plan.or_node(parts)
            }
        }
        Formula::Or(fs) => {
            let parts: Vec<PlanId> = fs
                .iter()
                .map(|g| lower_fo(plan, g, positive, rename))
                .collect();
            if positive {
                plan.or_node(parts)
            } else {
                plan.and_node(parts)
            }
        }
        Formula::Not(inner) => lower_fo(plan, inner, !positive, rename),
        Formula::Exists(v, inner) => {
            let body = lower_fo(plan, inner, positive, rename);
            let node = if positive {
                PlanNode::ExistsElem(v.clone(), body)
            } else {
                PlanNode::ForallElem(v.clone(), body)
            };
            plan.intern(node)
        }
        Formula::Forall(v, inner) => {
            let body = lower_fo(plan, inner, positive, rename);
            let node = if positive {
                PlanNode::ForallElem(v.clone(), body)
            } else {
                PlanNode::ExistsElem(v.clone(), body)
            };
            plan.intern(node)
        }
    }
}

/// Why first-order execution stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// A `Pred` leaf the resolver could not supply.
    UnknownPredicate(String),
    /// The subplan used a construct outside the first-order fragment
    /// (region quantifiers, fixpoints, `rBIT`, …).
    Unsupported(&'static str),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::UnknownPredicate(name) => write!(f, "unknown predicate '{name}'"),
            ExecError::Unsupported(what) => {
                write!(f, "construct outside the first-order fragment: {what}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Statistics from one [`eval_fo`] run (accumulated across calls sharing a
/// memo): how often the per-`PlanId` memo table answered instead of a fresh
/// evaluation, and how many quantifier eliminations ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoStats {
    /// Memo lookups that found an entry.
    pub memo_hits: usize,
    /// Total memo lookups.
    pub memo_lookups: usize,
    /// Quantifier-elimination calls performed.
    pub qe_calls: usize,
}

/// The block of like element quantifiers that starts at `id` — the unit
/// [`qe::eliminate_block`] eliminates over one list of cells: its
/// variables innermost first, whether it is existential, and the node below
/// it. Empty when `id` is not an element quantifier.
pub fn quantifier_block(plan: &Plan, id: PlanId) -> (Vec<&str>, bool, PlanId) {
    let exists = matches!(plan.node(id), PlanNode::ExistsElem(..));
    let (mut vars, mut body) = (Vec::new(), id);
    while let PlanNode::ExistsElem(v, inner) | PlanNode::ForallElem(v, inner) = plan.node(body) {
        if matches!(plan.node(body), PlanNode::ExistsElem(..)) != exists {
            break;
        }
        vars.push(v.as_str());
        body = *inner;
    }
    vars.reverse();
    (vars, exists, body)
}

/// Evaluate the first-order subplan at `id` to a quantifier-free formula.
///
/// `resolve` supplies the formula for each `Pred(name, args)` leaf — the
/// datalog engine uses it to splice in EDB relations, current IDB
/// approximations, or semi-naive deltas. `memo` caches results per
/// `PlanId`; reuse one memo across calls exactly as long as the resolver is
/// stable over those calls (e.g. within one semi-naive job).
pub fn eval_fo(
    plan: &Plan,
    id: PlanId,
    resolve: &mut dyn FnMut(&str, &[lcdb_logic::LinExpr]) -> Option<Formula>,
    memo: &mut HashMap<PlanId, Formula>,
    stats: &mut FoStats,
) -> Result<Formula, ExecError> {
    stats.memo_lookups += 1;
    if let Some(f) = memo.get(&id) {
        stats.memo_hits += 1;
        return Ok(f.clone());
    }
    let out = match plan.node(id).clone() {
        PlanNode::True => Formula::True,
        PlanNode::False => Formula::False,
        PlanNode::Lin(a) => Formula::Atom(a),
        PlanNode::Pred(name, args) => {
            resolve(&name, &args).ok_or(ExecError::UnknownPredicate(name))?
        }
        PlanNode::And(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                out.push(eval_fo(plan, p, resolve, memo, stats)?);
            }
            Formula::and(out)
        }
        PlanNode::Or(parts) => {
            let mut out = Vec::with_capacity(parts.len());
            for p in parts {
                out.push(eval_fo(plan, p, resolve, memo, stats)?);
            }
            Formula::or(out)
        }
        PlanNode::Not(p) => {
            let f = eval_fo(plan, p, resolve, memo, stats)?;
            Formula::not(f)
        }
        PlanNode::ExistsElem(..) | PlanNode::ForallElem(..) => {
            let (vars, exists, body) = quantifier_block(plan, id);
            let f = eval_fo(plan, body, resolve, memo, stats)?;
            stats.qe_calls += vars.len();
            qe::eliminate_block(&f, &vars, exists)
        }
        PlanNode::In(..) => return Err(ExecError::Unsupported("∈")),
        PlanNode::Adj(..) => return Err(ExecError::Unsupported("adj")),
        PlanNode::RegionEq(..) => return Err(ExecError::Unsupported("region equality")),
        PlanNode::SubsetOf(..) => return Err(ExecError::Unsupported("subset")),
        PlanNode::DimEq(..) => return Err(ExecError::Unsupported("dim")),
        PlanNode::Bounded(..) => return Err(ExecError::Unsupported("bounded")),
        PlanNode::ExistsRegion(..) | PlanNode::ForallRegion(..) => {
            return Err(ExecError::Unsupported("region quantifier"))
        }
        PlanNode::SetApp(..) => return Err(ExecError::Unsupported("set application")),
        PlanNode::Fix { .. } => return Err(ExecError::Unsupported("fixpoint")),
        PlanNode::Rbit { .. } => return Err(ExecError::Unsupported("rbit")),
        PlanNode::Tc { .. } => return Err(ExecError::Unsupported("transitive closure")),
    };
    memo.insert(id, out.clone());
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::int;
    use lcdb_logic::{Atom, LinExpr, Rel};

    fn lt(v: &str, c: i64) -> Atom {
        Atom::new(LinExpr::var(v), Rel::Lt, LinExpr::constant(int(c)))
    }

    #[test]
    fn evaluates_fo_fragment_with_memoized_sharing() {
        let mut p = Plan::new();
        let a = p.lin(lt("x", 1));
        let e = p.intern(PlanNode::ExistsElem("x".into(), a));
        let n = p.not_node(a);
        let root = p.and_node(vec![e, n]);
        let mut memo = HashMap::new();
        let mut stats = FoStats::default();
        let out = eval_fo(&p, root, &mut |_, _| None, &mut memo, &mut stats).unwrap();
        // ∃x (x < 1) is true; conjunction reduces to ¬(x < 1).
        assert!(out.free_vars().contains("x"));
        assert_eq!(stats.qe_calls, 1);
        assert!(stats.memo_hits >= 1, "shared leaf `a` answered from memo");
    }

    #[test]
    fn resolver_supplies_predicates() {
        let mut p = Plan::new();
        let args = vec![LinExpr::var("y")];
        let pred = p.intern(PlanNode::Pred("edge".into(), args));
        let mut memo = HashMap::new();
        let mut stats = FoStats::default();
        let out = eval_fo(
            &p,
            pred,
            &mut |name, args| {
                assert_eq!(name, "edge");
                assert_eq!(args.len(), 1);
                Some(Formula::Atom(lt("y", 7)))
            },
            &mut memo,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out, Formula::Atom(lt("y", 7)));

        let missing = p.intern(PlanNode::Pred("gone".into(), vec![]));
        let err = eval_fo(&p, missing, &mut |_, _| None, &mut memo, &mut stats).unwrap_err();
        assert_eq!(err, ExecError::UnknownPredicate("gone".into()));
    }

    #[test]
    fn region_constructs_are_rejected() {
        let mut p = Plan::new();
        let adj = p.intern(PlanNode::Adj("R".into(), "S".into()));
        let mut memo = HashMap::new();
        let mut stats = FoStats::default();
        let err = eval_fo(&p, adj, &mut |_, _| None, &mut memo, &mut stats).unwrap_err();
        assert!(matches!(err, ExecError::Unsupported(_)));
    }
}
