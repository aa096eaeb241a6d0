//! The set-at-a-time half of the executor: every element-free plan node is
//! evaluated once into a dense [`Table`] over the quantifier domains of its
//! free region variables, instead of once per binding.
//!
//! * Leaves read vectors the decomposition precomputed (membership,
//!   dimension, boundedness) or the adjacency matrix.
//! * `And`/`Or`/`Not` and the region quantifiers are the word-wise kernels
//!   of [`lcdb_plan::table`]; a quantifier over a conjunction is one fused
//!   join-project.
//! * A bound variable ranges over what the stage-invariant guards of its
//!   binder allow ([`Evaluator::narrow`]), decided before the join is built.
//! * A fixed point is a loop of stage tables, one saturation per binding of
//!   the variables its body takes from outside; `TC`/`DTC` is the closure of
//!   one bit matrix per body.
//! * Element-closed leaves (an element quantifier, `rBIT`, a ground `∈` or
//!   predicate) need the formula interpreter and quantifier elimination.
//!   They are filled cell by cell, only where the cheaper conjuncts leave a
//!   row undecided, and shared between nodes that differ only in the names
//!   of their free region variables.
//!
//! A table is keyed by its plan node and the domains of the node's free
//! variables, so hash-consed subplans are shared exactly as far as they mean
//! the same set. Tables of nodes that read set variables carry the epochs of
//! those variables and are rebuilt when a stage rebinds one.

use super::{Evaluator, FixLive, QuarantineUnit, Stop};
use crate::regfo::FixMode;
use lcdb_budget::work::{self as ledger, Work};
use lcdb_budget::BudgetError;
use lcdb_plan::hash::FastMap;
use lcdb_plan::table::{zip, Layout, Pick, Reduce, Table, Var};
use lcdb_plan::{Plan, PlanId, PlanNode};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Bytes of a child table above which its parent is evaluated one value of
/// its outermost variable at a time.
pub(super) const SLICE_BYTES: usize = 16 << 20;

/// What a region variable ranges over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(super) enum Dom {
    /// Every region.
    All,
    /// The regions the guards of the variable's binder leave (an id into
    /// [`Subsets`]): a dimension class under a `dim(v) = k` guard.
    Sub(u32),
    /// One region: a binding handed in from outside, a dependency of a
    /// fixed point being saturated, a slice, or all a binder's guards allow.
    One(u32),
}

/// Interned sets of regions, each ascending: the narrowed binder domains.
/// A domain is a key of every table built under it, so equal sets must be
/// one id.
#[derive(Default)]
pub(super) struct Subsets {
    sets: Vec<Arc<[u32]>>,
    ids: FastMap<Arc<[u32]>, u32>,
}

/// The region variables in scope, by slot: their domains (for tables) and,
/// on the formula path, their current values.
#[derive(Clone, Debug)]
pub(super) struct Env {
    pub dom: Vec<Dom>,
    pub val: Vec<u32>,
}

impl Env {
    pub fn new(info: &PlanInfo) -> Self {
        Env {
            dom: vec![Dom::All; info.slots.len()],
            val: vec![0; info.slots.len()],
        }
    }
}

/// Region variables resolved to slots, once per entry. Slots follow name
/// order, so a node's free variables (sorted by name in its facts) are
/// ascending slots — the one variable order every table shares.
pub(super) struct PlanInfo {
    pub slots: HashMap<String, Var>,
    nodes: Vec<NodeInfo>,
}

/// Is an element-free node of this kind computed through the formula
/// interpreter?
fn element_closed(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::ExistsElem(..)
            | PlanNode::ForallElem(..)
            | PlanNode::Rbit { .. }
            | PlanNode::In(..)
            | PlanNode::Pred(..)
    )
}

/// The slots a node mentions.
struct NodeInfo {
    /// Free region variables, ascending.
    free: Box<[Var]>,
    /// The region variables the node itself names, in the order of its
    /// fields (`Fix`: tuple variables then arguments; `Tc`: left, right,
    /// source, target).
    args: Box<[Var]>,
    /// A connective or region quantifier that is rebuilt at every stage
    /// (it reads a set variable) and reaches an element-closed leaf through
    /// nodes of the same kind: worth building only where its parent cares.
    /// Stage-invariant nodes are built whole, once, and kept.
    maskable: bool,
}

impl PlanInfo {
    pub fn new(plan: &Plan) -> Self {
        fn named(node: &PlanNode) -> Vec<&String> {
            match node {
                PlanNode::In(_, r)
                | PlanNode::SubsetOf(r, _)
                | PlanNode::DimEq(r, _)
                | PlanNode::Bounded(r)
                | PlanNode::ExistsRegion(r, _)
                | PlanNode::ForallRegion(r, _) => vec![r],
                PlanNode::Adj(a, b) | PlanNode::RegionEq(a, b) => vec![a, b],
                PlanNode::SetApp(_, vs) => vs.iter().collect(),
                PlanNode::Fix { vars, args, .. } => vars.iter().chain(args).collect(),
                PlanNode::Rbit { rn, rd, .. } => vec![rn, rd],
                PlanNode::Tc {
                    left,
                    right,
                    arg_left,
                    arg_right,
                    ..
                } => left
                    .iter()
                    .chain(right)
                    .chain(arg_left)
                    .chain(arg_right)
                    .collect(),
                _ => Vec::new(),
            }
        }
        let ids = 0..plan.len() as PlanId;
        let mut names: Vec<&String> = ids.clone().flat_map(|id| named(plan.node(id))).collect();
        names.sort();
        names.dedup();
        let slots: HashMap<String, Var> = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as Var))
            .collect();
        let mut nodes: Vec<NodeInfo> = Vec::with_capacity(plan.len());
        // Children are interned before their parents, so one ascending pass
        // sees every operand's flag.
        for id in ids {
            let (node, facts) = (plan.node(id), plan.facts(id));
            let leaf = |c: &PlanId| plan.facts(*c).elem_free() && element_closed(plan.node(*c));
            let maskable = facts.elem_free()
                && !facts.set_free()
                && matches!(
                    node,
                    PlanNode::And(_)
                        | PlanNode::Or(_)
                        | PlanNode::ExistsRegion(..)
                        | PlanNode::ForallRegion(..)
                )
                && lcdb_plan::children(node)
                    .iter()
                    .any(|c| leaf(c) || nodes[*c as usize].maskable);
            nodes.push(NodeInfo {
                free: facts.free_regions.iter().map(|v| slots[v]).collect(),
                args: named(node).into_iter().map(|v| slots[v]).collect(),
                maskable,
            });
        }
        PlanInfo { slots, nodes }
    }
}

/// The plan under execution and its resolved variables.
#[derive(Clone, Copy)]
pub(super) struct Cx<'p> {
    pub plan: &'p Plan,
    pub info: &'p PlanInfo,
}

impl Cx<'_> {
    pub fn free(&self, id: PlanId) -> &[Var] {
        &self.info.nodes[id as usize].free
    }

    pub fn args(&self, id: PlanId) -> &[Var] {
        &self.info.nodes[id as usize].args
    }

    fn maskable(&self, id: PlanId) -> bool {
        self.info.nodes[id as usize].maskable
    }
}

/// One cached table of a node.
#[derive(Clone)]
struct Slot {
    /// Domains of the node's free variables.
    doms: Box<[Dom]>,
    /// Epochs of the node's free set variables when it was built.
    epochs: Box<[u64]>,
    table: Arc<Table>,
}

/// The current stage of a fixed point, as the body reads it.
#[derive(Clone)]
pub(super) struct SetBinding {
    name: String,
    /// Domains of the tuple variables, in declaration order.
    doms: Vec<Dom>,
    /// Index into the stage table's variables, per declared component.
    order: Vec<usize>,
    table: Arc<Table>,
    epoch: u64,
}

/// A lazily filled element-closed leaf, over every region per variable:
/// which cells are known, and their values.
#[derive(Clone)]
struct LazySlot {
    epochs: Box<[u64]>,
    known: Table,
    value: Table,
}

/// How a node reads its lazy leaf: the leaf's id (shared between nodes
/// equal up to the names of their free region variables) and the node's
/// free variables in the leaf's order.
struct LazyRef {
    leaf: usize,
    order: Box<[Var]>,
}

/// Everything the table executor remembers within one entry call.
#[derive(Default)]
pub(super) struct TableState {
    tables: Vec<Vec<Slot>>,
    /// Fixed-point operators and closures, by operator fingerprint and the
    /// domains of their dependencies.
    ops: FastMap<OpKey, Slot>,
    lazy: Vec<Option<LazySlot>>,
    leaf_ids: HashMap<String, usize>,
    node_leaf: Vec<Option<Arc<LazyRef>>>,
    /// Cells of element-closed leaves computed so far, and whether the
    /// stage being built is built under masks: it is while the stage before
    /// it still had to compute one.
    leaf_cells: u64,
    masking: bool,
    pub sets: Vec<SetBinding>,
    epoch: u64,
    adjacency: Option<Arc<Table>>,
    /// Tables and operators keyed by a one-region domain, in insertion
    /// order: dropped when the binding or slice that needed them is done —
    /// not before, so what a stage builds under a pinned variable serves
    /// every later stage of the same saturation.
    scratch: Vec<Scratch>,
}

/// An operator's fingerprint and the domains of its dependencies.
type OpKey = (u64, Box<[Dom]>);

enum Scratch {
    /// A node's table under these domains of its free variables.
    Table(PlanId, Box<[Dom]>),
    Op(OpKey),
}

impl TableState {
    pub fn for_plan(plan: &Plan) -> Self {
        TableState {
            tables: vec![Vec::new(); plan.len()],
            node_leaf: vec![None; plan.len()],
            ..TableState::default()
        }
    }
}

impl<'a> Evaluator<'a> {
    // -----------------------------------------------------------------
    // Domains
    // -----------------------------------------------------------------

    fn dom_size(&self, d: Dom) -> usize {
        match d {
            Dom::All => self.ext.num_regions(),
            Dom::Sub(s) => self.subsets.borrow().sets[s as usize].len(),
            Dom::One(_) => 1,
        }
    }

    fn dom_region(&self, d: Dom, pos: usize) -> u32 {
        match d {
            Dom::All => pos as u32,
            Dom::Sub(s) => self.subsets.borrow().sets[s as usize][pos],
            Dom::One(r) => r,
        }
    }

    fn dom_pos(&self, d: Dom, region: u32) -> Option<usize> {
        match d {
            Dom::All => Some(region as usize),
            Dom::Sub(s) => self.subsets.borrow().sets[s as usize]
                .binary_search(&region)
                .ok(),
            Dom::One(r) => (r == region).then_some(0),
        }
    }

    /// The regions of a domain, in position order.
    pub(super) fn dom_regions(&self, d: Dom) -> Vec<u32> {
        match d {
            Dom::All => (0..self.ext.num_regions() as u32).collect(),
            Dom::Sub(s) => self.subsets.borrow().sets[s as usize].to_vec(),
            Dom::One(r) => vec![r],
        }
    }

    /// For each position of `from`, the position of the same region in `to`.
    fn conversion(&self, from: Dom, to: Dom) -> Vec<Option<usize>> {
        self.dom_regions(from)
            .into_iter()
            .map(|r| self.dom_pos(to, r))
            .collect()
    }

    /// The domain of exactly `regions` (ascending).
    fn subset(&self, regions: Vec<u32>) -> Dom {
        if let [r] = regions[..] {
            return Dom::One(r);
        }
        let mut subsets = self.subsets.borrow_mut();
        if let Some(&s) = subsets.ids.get(&regions[..]) {
            return Dom::Sub(s);
        }
        let (s, set) = (subsets.sets.len() as u32, Arc::<[u32]>::from(regions));
        subsets.sets.push(Arc::clone(&set));
        subsets.ids.insert(set, s);
        Dom::Sub(s)
    }

    /// `dom` without the regions `holds` rejects (it is given each region
    /// with its position in `dom`).
    fn restrict(&self, dom: Dom, mut holds: impl FnMut(usize, u32) -> bool) -> Dom {
        let all = self.dom_regions(dom);
        let left: Vec<u32> = (0..all.len())
            .filter(|&at| holds(at, all[at]))
            .map(|at| all[at])
            .collect();
        if left.len() == all.len() {
            dom
        } else {
            self.subset(left)
        }
    }

    /// What the variable `slot` of a binder over `body` ranges over — an
    /// `∃` or a fixed-point tuple variable when `existential`, else a `∀`.
    ///
    /// A *guard* is a top-level conjunct of the body (under `∀`, the
    /// negation of a top-level disjunct) that reads no element and no set
    /// variable and whose region variables are `slot` and variables `env`
    /// pins to one region. A binding that violates a guard makes the body
    /// the binder's absorbing element — false under `∃`, true under `∀`,
    /// and for a tuple variable false at every stage of LFP, IFP and PFP,
    /// because a guard reads no stage — so the variable may range over the
    /// regions that satisfy every guard without changing the value, only
    /// the work. A dimension guard is read off `dim_of`; the others are
    /// ordinary cached tables over the candidates the guards before them
    /// left, smallest subplan first, and are built only when some operand
    /// that is no guard mentions the variable — without one the join *is*
    /// the guards. One candidate left pins the variable, which makes guards
    /// for the binders below it: `first(K1)`, then `succ(K1, K2)`.
    pub(super) fn narrow(
        &self,
        cx: Cx,
        body: PlanId,
        slot: Var,
        existential: bool,
        env: &mut Env,
    ) -> Result<Dom, Stop> {
        let parts = match (cx.plan.node(body), existential) {
            (PlanNode::And(parts), true) | (PlanNode::Or(parts), false) => &parts[..],
            _ => std::slice::from_ref(&body),
        };
        let dimension = |p: PlanId| match (cx.plan.node(p), existential) {
            (PlanNode::DimEq(_, k), true) => Some(*k),
            (PlanNode::Not(inner), false) => match cx.plan.node(*inner) {
                PlanNode::DimEq(_, k) => Some(*k),
                _ => None,
            },
            _ => None,
        };
        let mut dom = Dom::All;
        let mut guards: Vec<PlanId> = Vec::new();
        let mut joined = false;
        for &p in parts.iter().filter(|&&p| cx.free(p).contains(&slot)) {
            let facts = cx.plan.facts(p);
            let pinned = |&u: &Var| u == slot || matches!(env.dom[u as usize], Dom::One(_));
            if !(facts.elem_free() && facts.set_free() && cx.free(p).iter().all(pinned)) {
                joined = true;
            } else if let Some(k) = dimension(p) {
                dom = self.restrict(dom, |_, r| self.dim_of[r as usize] as usize == k);
            } else {
                guards.push(p);
            }
        }
        if !joined {
            return Ok(dom);
        }
        guards.sort_by_key(|&p| cx.plan.facts(p).size);
        for p in guards {
            let saved = std::mem::replace(&mut env.dom[slot as usize], dom);
            let table = self.table(cx, p, env);
            env.dom[slot as usize] = saved;
            let table = table?;
            // Every other variable of a guard is pinned: position 0.
            let mut pos = vec![0usize; cx.free(p).len()];
            let lane = cx.free(p).iter().position(|&u| u == slot).unwrap_or(0);
            dom = self.restrict(dom, |at, _| {
                pos[lane] = at;
                table.get(&pos) == existential
            });
        }
        Ok(dom)
    }

    fn layout(&self, vars: &[Var], env: &Env) -> Layout {
        Layout::new(
            vars.to_vec(),
            vars.iter()
                .map(|&v| self.dom_size(env.dom[v as usize]))
                .collect(),
        )
    }

    /// The memory gate in front of every table allocation.
    fn check_alloc(&self, layout: &Layout) -> Result<(), Stop> {
        let bytes = layout.bytes();
        self.budget.check_memory_estimate(bytes)?;
        match bytes {
            Some(_) => Ok(()),
            None => Err(Stop::Budget(BudgetError::MemoryLimit {
                limit_bytes: usize::MAX,
                estimated_bytes: usize::MAX,
            })),
        }
    }

    fn empty(&self, layout: Layout) -> Result<Table, Stop> {
        self.check_alloc(&layout)?;
        Ok(Table::empty(layout))
    }

    fn zip(
        &self,
        out: Layout,
        reduce: Option<Reduce>,
        children: &[&Table],
        conj: bool,
    ) -> Result<Table, Stop> {
        self.check_alloc(&out)?;
        Ok(zip(out, reduce, children, conj)?)
    }

    // -----------------------------------------------------------------
    // The table store
    // -----------------------------------------------------------------

    /// Epochs of the set variables a node reads, innermost binding first.
    fn epochs(&self, sets: &[String]) -> Result<Box<[u64]>, Stop> {
        let st = self.tabs.borrow();
        sets.iter()
            .map(|m| {
                st.sets
                    .iter()
                    .rev()
                    .find(|b| &b.name == m)
                    .map(|b| b.epoch)
                    .ok_or_else(|| Stop::Query(format!("unbound set variable '{}'", m)))
            })
            .collect()
    }

    fn doms_of(vars: &[Var], env: &Env) -> Box<[Dom]> {
        vars.iter().map(|&v| env.dom[v as usize]).collect()
    }

    fn note_lookup(&self, id: PlanId, hit: bool) {
        let mut st = self.stats.borrow_mut();
        st.plan_cache_lookups += 1;
        if hit {
            st.plan_cache_hits += 1;
            drop(st);
            self.note_memo_hit(id);
        }
    }

    fn cached(&self, cx: Cx, id: PlanId, env: &Env) -> Result<Option<Arc<Table>>, Stop> {
        let epochs = self.epochs(&cx.plan.facts(id).free_sets)?;
        let st = self.tabs.borrow();
        Ok(st.tables[id as usize]
            .iter()
            .find(|s| {
                s.epochs == epochs
                    && s.doms
                        .iter()
                        .zip(cx.free(id))
                        .all(|(d, &v)| *d == env.dom[v as usize])
            })
            .map(|s| Arc::clone(&s.table)))
    }

    fn store(&self, cx: Cx, id: PlanId, env: &Env, table: Arc<Table>) -> Result<(), Stop> {
        let slot = Slot {
            doms: Self::doms_of(cx.free(id), env),
            epochs: self.epochs(&cx.plan.facts(id).free_sets)?,
            table,
        };
        let mut st = self.tabs.borrow_mut();
        let slots = &mut st.tables[id as usize];
        match slots.iter_mut().find(|s| s.doms == slot.doms) {
            // Same domains, older stage: the stage's table is replaced.
            Some(old) => *old = slot,
            None => {
                let pinned = slot.doms.iter().any(|d| matches!(d, Dom::One(_)));
                let key = pinned.then(|| Scratch::Table(id, slot.doms.clone()));
                slots.push(slot);
                st.scratch.extend(key);
            }
        }
        Ok(())
    }

    /// Forget the one-region tables stored since `mark`.
    fn drop_scratch(&self, mark: usize) {
        let mut st = self.tabs.borrow_mut();
        while st.scratch.len() > mark {
            match st.scratch.pop() {
                Some(Scratch::Table(id, doms)) => {
                    st.tables[id as usize].retain(|s| s.doms != doms)
                }
                Some(Scratch::Op(key)) => drop(st.ops.remove(&key)),
                None => {}
            }
        }
    }

    fn scratch_mark(&self) -> usize {
        self.tabs.borrow().scratch.len()
    }

    /// The table of an element-free node under the domains of `env`.
    pub(super) fn table(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Arc<Table>, Stop> {
        self.profiled(id, || self.table_memo(cx, id, env, true))
    }

    fn table_memo(
        &self,
        cx: Cx,
        id: PlanId,
        env: &mut Env,
        absorb: bool,
    ) -> Result<Arc<Table>, Stop> {
        ledger::charge(Work::NodeVisits, 1)?;
        let hit = self.cached(cx, id, env)?;
        self.note_lookup(id, hit.is_some());
        if let Some(t) = hit {
            return Ok(t);
        }
        let table = match self.build(cx, id, env) {
            Ok(t) => t,
            // Degraded mode: the operation that faulted contributes the
            // empty set. Every operator but `Not` is monotone, and `Not`
            // asks for its operand unabsorbed, so the partial answer stays
            // below the exact one.
            Err(stop) if absorb => {
                self.absorb(stop, QuarantineUnit::Table)?;
                self.empty(self.layout(cx.free(id), env))?
            }
            Err(stop) => return Err(stop),
        };
        let table = Arc::new(table);
        self.store(cx, id, env, Arc::clone(&table))?;
        Ok(table)
    }

    /// The value of an element-free node at the binding in `env.val`.
    pub(super) fn probe(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<bool, Stop> {
        if element_closed(cx.plan.node(id)) {
            return self.lazy_probe(cx, id, env);
        }
        let t = self.table(cx, id, env)?;
        let pos: Option<Vec<usize>> = cx
            .free(id)
            .iter()
            .map(|&v| self.dom_pos(env.dom[v as usize], env.val[v as usize]))
            .collect();
        Ok(pos.is_some_and(|p| t.get(&p)))
    }

    // -----------------------------------------------------------------
    // Building one table
    // -----------------------------------------------------------------

    fn build(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Table, Stop> {
        if let Some(v) = self.slice_var(cx, id, env) {
            return self.build_sliced(cx, id, v, env);
        }
        let args = cx.args(id);
        let ext = self.ext;
        match cx.plan.node(id) {
            PlanNode::True => Ok(Table::full(Layout::default())),
            PlanNode::False => Ok(Table::empty(Layout::default())),
            PlanNode::DimEq(_, k) => self.leaf(&args[..1], env, |r| {
                self.dim_of[r[0] as usize] as usize == *k
            }),
            PlanNode::Bounded(_) => {
                self.leaf(&args[..1], env, |r| ext.region(r[0] as usize).bounded)
            }
            PlanNode::SubsetOf(_, name) => {
                let members = ext.members(name).ok_or_else(|| {
                    Stop::Query(match ext.database().relation(name) {
                        None => format!("unknown relation '{}'", name),
                        Some(rel) => format!(
                            "relation '{}' has arity {}, regions live in dimension {}",
                            name,
                            rel.arity(),
                            ext.ambient_dim()
                        ),
                    })
                })?;
                self.leaf(&args[..1], env, |r| {
                    members[r[0] as usize / 64] >> (r[0] % 64) & 1 == 1
                })
            }
            PlanNode::RegionEq(..) if args[0] == args[1] => {
                Ok(Table::full(self.layout(&args[..1], env)))
            }
            PlanNode::RegionEq(..) => self.leaf(cx.free(id), env, |r| r[0] == r[1]),
            PlanNode::Adj(..) if args[0] == args[1] => self.empty(self.layout(&args[..1], env)),
            PlanNode::Adj(..) => {
                let adj = self.adjacency()?;
                self.leaf(cx.free(id), env, |r| {
                    adj.get(&[r[0] as usize, r[1] as usize])
                })
            }
            PlanNode::SetApp(m, _) => self.set_application(cx, id, m, env),
            PlanNode::Not(inner) => {
                let mut t =
                    (*self.profiled(*inner, || self.table_memo(cx, *inner, env, false))?).clone();
                t.complement();
                Ok(t)
            }
            PlanNode::And(parts) => self.connective(cx, cx.free(id), parts, true, None, env, None),
            PlanNode::Or(parts) => self.connective(cx, cx.free(id), parts, false, None, env, None),
            PlanNode::ExistsRegion(_, inner) => self.quantifier(cx, id, *inner, false, env, None),
            PlanNode::ForallRegion(_, inner) => self.quantifier(cx, id, *inner, true, env, None),
            PlanNode::Fix { .. } => self.fix_application(cx, id, env),
            PlanNode::Tc { .. } => self.tc_application(cx, id, env),
            _ => self.lazy_force(cx, id, env),
        }
    }

    /// A leaf over `vars` (ascending, distinct) from a predicate on regions.
    fn leaf(&self, vars: &[Var], env: &Env, holds: impl Fn(&[u32]) -> bool) -> Result<Table, Stop> {
        let layout = self.layout(vars, env);
        self.check_alloc(&layout)?;
        let doms = Self::doms_of(vars, env);
        let mut t = Table::empty(layout.clone());
        let mut regions = vec![0u32; vars.len()];
        Table::full(layout).for_each(|pos| {
            for ((r, &d), &p) in regions.iter_mut().zip(doms.iter()).zip(pos) {
                *r = self.dom_region(d, p);
            }
            if holds(&regions) {
                t.set(pos, true);
            }
        });
        Ok(t)
    }

    /// The adjacency relation over all pairs of regions, built on first use.
    fn adjacency(&self) -> Result<Arc<Table>, Stop> {
        if let Some(adj) = &self.tabs.borrow().adjacency {
            return Ok(Arc::clone(adj));
        }
        let n = self.ext.num_regions();
        let mut t = self.empty(Layout::new(vec![0, 1], vec![n, n]))?;
        for a in 0..n {
            ledger::charge(Work::TableSteps, 1)?;
            for b in 0..a {
                if self.ext.adjacent(a, b) {
                    t.set(&[a, b], true);
                    t.set(&[b, a], true);
                }
            }
        }
        let t = Arc::new(t);
        self.tabs.borrow_mut().adjacency = Some(Arc::clone(&t));
        Ok(t)
    }

    /// Should this node be built one value of a variable at a time? Yes
    /// when an operand would be wider than [`SLICE_BYTES`]; the variable is
    /// the node's outermost one that still has a choice.
    fn slice_var(&self, cx: Cx, id: PlanId, env: &mut Env) -> Option<Var> {
        let free = cx.free(id);
        // The lane is never sliced: a one-variable table is narrow.
        let v = *free[..free.len().saturating_sub(1)]
            .iter()
            .find(|&&v| self.dom_size(env.dom[v as usize]) > 1)?;
        let wide = |vars: &[Var], env: &Env| {
            self.layout(vars, env)
                .bytes()
                .is_none_or(|b| b > self.slice_bytes.get())
        };
        let over = match cx.plan.node(id) {
            PlanNode::And(parts) | PlanNode::Or(parts) => {
                parts.iter().any(|&p| wide(cx.free(p), env))
            }
            PlanNode::ExistsRegion(_, inner) | PlanNode::ForallRegion(_, inner) => {
                // An estimate: the bound variable counts for every region,
                // whatever its guards will leave.
                let slot = cx.args(id)[0] as usize;
                let saved = std::mem::replace(&mut env.dom[slot], Dom::All);
                let over = match cx.plan.node(*inner) {
                    PlanNode::And(parts) | PlanNode::Or(parts) => {
                        parts.iter().any(|&p| wide(cx.free(p), env))
                    }
                    _ => wide(cx.free(*inner), env),
                };
                env.dom[slot] = saved;
                over
            }
            _ => false,
        };
        over.then_some(v)
    }

    fn build_sliced(&self, cx: Cx, id: PlanId, v: Var, env: &mut Env) -> Result<Table, Stop> {
        let mut out = self.empty(self.layout(cx.free(id), env))?;
        // `v` is the first variable with more than one value, so the
        // variables before it contribute one row block each.
        let saved = env.dom[v as usize];
        let mark = self.scratch_mark();
        let built = self
            .dom_regions(saved)
            .into_iter()
            .enumerate()
            .try_for_each(|(at, r)| {
                env.dom[v as usize] = Dom::One(r);
                let part = self.build(cx, id, env);
                self.drop_scratch(mark);
                out.write_slab(at, &part?);
                Ok(())
            });
        env.dom[v as usize] = saved;
        built.map(|()| out)
    }

    /// `And`/`Or` over `parts`, optionally fused with the reduction of a
    /// quantified variable. Only the rows of `care` (a table over
    /// `out_vars`) have to come out right.
    ///
    /// The cheap operands are combined first. An element-closed leaf that
    /// is not yet fully known then joins cell by cell, asked only about the
    /// cells the cheap operands left undecided; a [`NodeInfo::maskable`]
    /// operand is built only on the rows they left undecided.
    #[allow(clippy::too_many_arguments)]
    fn connective(
        &self,
        cx: Cx,
        out_vars: &[Var],
        parts: &[PlanId],
        conj: bool,
        reduce: Option<Reduce>,
        env: &mut Env,
        care: Option<&Table>,
    ) -> Result<Table, Stop> {
        let mut tables: Vec<Arc<Table>> = Vec::with_capacity(parts.len());
        let mut leaves: Vec<PlanId> = Vec::new();
        let mut deep: Vec<PlanId> = Vec::new();
        for &p in parts {
            if self.lazy_pending(cx, p, env)? {
                leaves.push(p);
            } else if cx.maskable(p) && self.tabs.borrow().masking {
                deep.push(p);
            } else {
                tables.push(self.table(cx, p, env)?);
            }
        }
        let mut refs: Vec<&Table> = tables.iter().map(|t| &**t).collect();
        let out = self.layout(out_vars, env);
        if leaves.is_empty() && deep.is_empty() {
            return self.zip(out, reduce, &refs, conj);
        }
        // Rows nobody cares about count as decided: false under a
        // conjunction, true under a disjunction.
        let dont_care = care.filter(|_| !conj).map(|c| {
            let mut c = c.clone();
            c.complement();
            c
        });
        refs.extend(if conj { care } else { dont_care.as_ref() });
        let mut all = out_vars.to_vec();
        if let Some(r) = reduce {
            all.push(r.var);
            all.sort_unstable();
        }
        let wide = self.layout(&all, env);
        let mut acc = self.zip(wide.clone(), None, &refs, conj)?;
        let doms = Self::doms_of(&all, env);
        for leaf in leaves {
            ledger::charge(Work::TableSteps, 1)?;
            acc.refine(conj, |pos| {
                for ((&v, &d), &p) in all.iter().zip(doms.iter()).zip(pos) {
                    env.val[v as usize] = self.dom_region(d, p);
                }
                self.lazy_probe(cx, leaf, env)
            })?;
        }
        for p in deep {
            let mut undecided = acc.clone();
            if !conj {
                undecided.complement();
            }
            let need = self.project(undecided, cx.free(p), false, env)?;
            if need.is_empty() {
                continue;
            }
            let t = self.masked(cx, p, env, &need)?;
            acc = self.zip(wide.clone(), None, &[&acc, &t], conj)?;
        }
        match reduce {
            Some(_) => self.zip(out, reduce, &[&acc], conj),
            None => Ok(acc),
        }
    }

    /// Reduce away every variable of `t` that is not in `keep`: `∃`, or `∀`
    /// when `universal`.
    fn project(
        &self,
        mut t: Table,
        keep: &[Var],
        universal: bool,
        env: &Env,
    ) -> Result<Table, Stop> {
        while let Some(&v) = t.layout().vars().iter().rev().find(|v| !keep.contains(v)) {
            let rest: Vec<Var> = t
                .layout()
                .vars()
                .iter()
                .copied()
                .filter(|&x| x != v)
                .collect();
            let reduce = Reduce {
                var: v,
                size: self.dom_size(env.dom[v as usize]),
                universal,
                last: rest.last().is_none_or(|&last| last < v),
            };
            t = self.zip(self.layout(&rest, env), Some(reduce), &[&t], !universal)?;
        }
        Ok(t)
    }

    /// The table of a [`NodeInfo::maskable`] node, right on the rows of
    /// `care` and arbitrary elsewhere. Not kept: the node is rebuilt at the
    /// next stage anyway, and what is expensive in it — the cells of its
    /// element-closed leaves — is kept by the leaves.
    fn masked(&self, cx: Cx, id: PlanId, env: &mut Env, care: &Table) -> Result<Table, Stop> {
        self.profiled(id, || {
            ledger::charge(Work::NodeVisits, 1)?;
            self.note_lookup(id, false);
            match cx.plan.node(id) {
                PlanNode::And(parts) => {
                    self.connective(cx, cx.free(id), parts, true, None, env, Some(care))
                }
                PlanNode::Or(parts) => {
                    self.connective(cx, cx.free(id), parts, false, None, env, Some(care))
                }
                PlanNode::ExistsRegion(_, inner) => {
                    self.quantifier(cx, id, *inner, false, env, Some(care))
                }
                PlanNode::ForallRegion(_, inner) => {
                    self.quantifier(cx, id, *inner, true, env, Some(care))
                }
                _ => unreachable!("only connectives and region quantifiers are maskable"),
            }
        })
    }

    fn quantifier(
        &self,
        cx: Cx,
        id: PlanId,
        inner: PlanId,
        universal: bool,
        env: &mut Env,
        care: Option<&Table>,
    ) -> Result<Table, Stop> {
        let slot = cx.args(id)[0];
        let dom = self.narrow(cx, inner, slot, !universal, env)?;
        let size = self.dom_size(dom);
        self.note_region_expansions(size)?;
        let out_vars = cx.free(id);
        if size == 0 {
            // ∃ over nothing is false, ∀ over nothing is true.
            let layout = self.layout(out_vars, env);
            self.check_alloc(&layout)?;
            return Ok(if universal {
                Table::full(layout)
            } else {
                Table::empty(layout)
            });
        }
        let reduce = Some(Reduce {
            var: slot,
            size,
            universal,
            last: out_vars.last().is_none_or(|&last| last < slot),
        });
        let saved = std::mem::replace(&mut env.dom[slot as usize], dom);
        let built = match cx.plan.node(inner) {
            // The fused forms: ∃v ⋀ and ∀v ⋁.
            PlanNode::And(parts) if !universal => {
                self.connective(cx, out_vars, parts, true, reduce, env, care)
            }
            PlanNode::Or(parts) if universal => {
                self.connective(cx, out_vars, parts, false, reduce, env, care)
            }
            // ∃v ⋁ and ∀v ⋀ distribute over the operands.
            PlanNode::And(parts) | PlanNode::Or(parts) => parts
                .iter()
                .map(|&p| {
                    if cx.free(p).contains(&slot) {
                        let vars: Vec<Var> =
                            cx.free(p).iter().copied().filter(|&x| x != slot).collect();
                        let part_reduce = reduce.map(|r| Reduce {
                            last: vars.last().is_none_or(|&last| last < slot),
                            ..r
                        });
                        self.connective(cx, &vars, &[p], !universal, part_reduce, env, None)
                            .map(Arc::new)
                    } else {
                        self.table(cx, p, env)
                    }
                })
                .collect::<Result<Vec<_>, _>>()
                .and_then(|tables| {
                    let refs: Vec<&Table> = tables.iter().map(|t| &**t).collect();
                    self.zip(self.layout(out_vars, env), None, &refs, universal)
                }),
            _ => self.connective(cx, out_vars, &[inner], !universal, reduce, env, care),
        };
        env.dom[slot as usize] = saved;
        built
    }

    // -----------------------------------------------------------------
    // Set variables, fixed points, closures
    // -----------------------------------------------------------------

    /// `M(args)`: the current stage read through the argument variables.
    fn set_application(&self, cx: Cx, id: PlanId, m: &str, env: &Env) -> Result<Table, Stop> {
        let binding = self
            .tabs
            .borrow()
            .sets
            .iter()
            .rev()
            .find(|b| b.name == m)
            .cloned()
            .ok_or_else(|| Stop::Query(format!("unbound set variable '{}'", m)))?;
        let args = cx.args(id);
        if args.len() != binding.doms.len() {
            return Err(Stop::Query(format!(
                "set variable '{}' holds {}-tuples but is applied to {} regions",
                m,
                binding.doms.len(),
                args.len()
            )));
        }
        self.apply(
            &binding.table,
            &binding.order,
            &binding.doms,
            args,
            &[],
            cx.free(id),
            env,
        )
    }

    /// Read `source` — whose variable `order[i]` is component `i`, ranging
    /// over `doms[i]` — at the argument variables `args`, after `pinned`
    /// leading variables that keep their own slots.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &self,
        source: &Table,
        order: &[usize],
        doms: &[Dom],
        args: &[Var],
        pinned: &[Var],
        out_vars: &[Var],
        env: &Env,
    ) -> Result<Table, Stop> {
        let out = self.layout(out_vars, env);
        self.check_alloc(&out)?;
        let at = |v: Var| {
            out_vars
                .iter()
                .position(|&x| x == v)
                .expect("application arguments are free variables of the node")
        };
        let pinned_conv: Vec<Vec<Option<usize>>> = pinned
            .iter()
            .map(|&v| (0..self.dom_size(env.dom[v as usize])).map(Some).collect())
            .collect();
        let arg_conv: Vec<Vec<Option<usize>>> = args
            .iter()
            .zip(doms)
            .map(|(&a, &d)| self.conversion(env.dom[a as usize], d))
            .collect();
        let mut picks: Vec<Pick> = pinned
            .iter()
            .zip(&pinned_conv)
            .map(|(&v, c)| Pick::Var(at(v), c))
            .collect();
        picks.resize(pinned.len() + args.len(), Pick::At(0));
        for (i, (&a, c)) in args.iter().zip(&arg_conv).enumerate() {
            picks[pinned.len() + order[i]] = Pick::Var(at(a), c);
        }
        Ok(source.gather(out, &picks))
    }

    /// The variables a fixed-point or closure body takes from outside.
    fn dependencies(cx: Cx, body: PlanId, bound: &[Var]) -> Vec<Var> {
        cx.free(body)
            .iter()
            .copied()
            .filter(|v| !bound.contains(v))
            .collect()
    }

    fn distinct(vars: &[Var]) -> bool {
        vars.iter().enumerate().all(|(i, v)| !vars[..i].contains(v))
    }

    /// Run `one` once per binding of `deps` (each pinned to one region in
    /// `env`), and stack the results as one table over `deps` followed by
    /// `inner`'s variables. Cached per operator and dependency domains.
    fn per_binding(
        &self,
        key: u64,
        sets: &[String],
        deps: &[Var],
        inner: &Layout,
        env: &mut Env,
        mut one: impl FnMut(&[u64], &mut Env) -> Result<Arc<Table>, Stop>,
    ) -> Result<Arc<Table>, Stop> {
        let key = (key, Self::doms_of(deps, env));
        let epochs = self.epochs(sets)?;
        if let Some(slot) = self.tabs.borrow().ops.get(&key) {
            if slot.epochs == epochs {
                return Ok(Arc::clone(&slot.table));
            }
        }
        let outer = self.layout(deps, env);
        let saved: Vec<Dom> = deps.iter().map(|&v| env.dom[v as usize]).collect();
        let mut parts = Vec::new();
        let mut bindings: Vec<Vec<usize>> = Vec::new();
        Table::full(outer.clone()).for_each(|pos| bindings.push(pos.to_vec()));
        let run: Result<(), Stop> = bindings.iter().try_for_each(|pos| {
            let mut regions = Vec::with_capacity(deps.len());
            for ((&v, &d), &p) in deps.iter().zip(&saved).zip(pos) {
                let r = self.dom_region(d, p);
                env.dom[v as usize] = Dom::One(r);
                regions.push(u64::from(r));
            }
            let mark = self.scratch_mark();
            let part = one(&regions, env);
            self.drop_scratch(mark);
            parts.push(part?);
            Ok(())
        });
        for (&v, &d) in deps.iter().zip(&saved) {
            env.dom[v as usize] = d;
        }
        run?;
        let table = if deps.is_empty() {
            Arc::clone(&parts[0])
        } else {
            let mut vars = outer.vars().to_vec();
            vars.extend(inner.vars());
            let mut sizes = outer.sizes().to_vec();
            sizes.extend(inner.sizes());
            self.check_alloc(&Layout::new(vars, sizes))?;
            Arc::new(Table::stack(&outer, inner, &parts))
        };
        let slot = Slot {
            doms: key.1.clone(),
            epochs,
            table: Arc::clone(&table),
        };
        // An operator under a pinned dependency belongs to one binding or
        // slice of an enclosing table.
        let pinned = key.1.iter().any(|d| matches!(d, Dom::One(_)));
        let mut st = self.tabs.borrow_mut();
        if st.ops.insert(key.clone(), slot).is_none() && pinned {
            st.scratch.push(Scratch::Op(key));
        }
        Ok(table)
    }

    fn fix_application(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Table, Stop> {
        let PlanNode::Fix {
            mode,
            set_var,
            vars,
            body,
            ..
        } = cx.plan.node(id)
        else {
            unreachable!("fix_application on a non-Fix node")
        };
        let (mode, body) = (*mode, *body);
        let k = vars.len();
        let (var_slots, arg_slots) = cx.args(id).split_at(k);
        if arg_slots.len() != k {
            return Err(Stop::Query(format!(
                "fixed point over {}-tuples applied to {} regions",
                k,
                arg_slots.len()
            )));
        }
        if self.positivity_checked.borrow_mut().insert(body) {
            if !cx.plan.facts(body).elem_free() {
                return Err(Stop::Query(
                    "fixed-point bodies must not have free element variables (Definition 5.1)"
                        .into(),
                ));
            }
            if !Self::distinct(var_slots) {
                return Err(Stop::Query(
                    "fixed-point tuple variables must be distinct".into(),
                ));
            }
            if mode == FixMode::Lfp && !cx.plan.positive_in(body, set_var) {
                return Err(Stop::Query(format!(
                    "LFP requires the body to be positive in '{}'",
                    set_var
                )));
            }
        }
        // The fixed point depends on the body's free variables other than
        // the tuple variables — not on the applied arguments, so one
        // operator table serves every application site. Definition 5.1
        // sweeps every tuple, but one that violates a guard of the body is
        // false at every stage: the tuple space is the product of the
        // narrowed domains, each narrowed under the ones before it.
        let deps = Self::dependencies(cx, body, var_slots);
        let saved: Vec<Dom> = var_slots
            .iter()
            .map(|&v| std::mem::replace(&mut env.dom[v as usize], Dom::All))
            .collect();
        let narrowed: Result<Vec<Dom>, Stop> = var_slots
            .iter()
            .map(|&v| {
                let dom = self.narrow(cx, body, v, true, env)?;
                env.dom[v as usize] = dom;
                Ok(dom)
            })
            .collect();
        for (&v, &d) in var_slots.iter().zip(&saved).rev() {
            env.dom[v as usize] = d;
        }
        let doms = narrowed?;
        let mut sorted: Vec<usize> = (0..k).collect();
        sorted.sort_by_key(|&i| var_slots[i]);
        let mut order = vec![0usize; k];
        for (at, &i) in sorted.iter().enumerate() {
            order[i] = at;
        }
        let space = Layout::new(
            sorted.iter().map(|&i| var_slots[i]).collect(),
            sorted.iter().map(|&i| self.dom_size(doms[i])).collect(),
        );
        let outer_sets: Vec<String> = cx
            .plan
            .facts(body)
            .free_sets
            .iter()
            .filter(|m| *m != set_var)
            .cloned()
            .collect();
        let fingerprint = cx.plan.fix_fingerprint(id);
        // Checkpointable progress is keyed by the operator's fingerprint
        // and the dependency regions. Only bodies free of *outer* set
        // variables are recorded: the key cannot tell outer stages apart.
        let recorded = outer_sets.is_empty();
        let operator = self.per_binding(
            fingerprint,
            &outer_sets,
            &deps,
            &space,
            env,
            |regions, env| {
                let key = recorded.then(|| (fingerprint, regions.to_vec()));
                let saved: Vec<Dom> = var_slots.iter().map(|&v| env.dom[v as usize]).collect();
                for (&v, &d) in var_slots.iter().zip(&doms) {
                    env.dom[v as usize] = d;
                }
                let (depth, masking) = {
                    let st = self.tabs.borrow();
                    (st.sets.len(), st.masking)
                };
                let run = self.saturate(cx, mode, set_var, body, &space, &doms, &order, key, env);
                {
                    let mut st = self.tabs.borrow_mut();
                    st.sets.truncate(depth);
                    st.masking = masking;
                }
                for (&v, &d) in var_slots.iter().zip(&saved) {
                    env.dom[v as usize] = d;
                }
                run
            },
        )?;
        self.apply(&operator, &order, &doms, arg_slots, &deps, cx.free(id), env)
    }

    /// The stage loop of one fixed point under one binding of its
    /// dependencies (Definition 5.1 / Theorem 6.1).
    #[allow(clippy::too_many_arguments)]
    fn saturate(
        &self,
        cx: Cx,
        mode: FixMode,
        set_var: &str,
        body: PlanId,
        space: &Layout,
        doms: &[Dom],
        order: &[usize],
        progress_key: Option<super::ProgressKey>,
        env: &mut Env,
    ) -> Result<Arc<Table>, Stop> {
        let k = doms.len();
        let _fix_span = self.trace_on.then(|| {
            self.trace
                .span_with("fix.run", &format!("mode={} arity={k}", mode.name()))
        });
        let mut current = Arc::new(self.empty(space.clone())?);
        let mut stage: u64 = 0;
        // Resume: seed the chain from the snapshot's last completed stage.
        // Sound for LFP/IFP (the chain is inflationary from any sound stage)
        // and for PFP (the stage sequence is deterministic, so continuing
        // from stage n replays the same orbit; a divergence cycle is
        // re-detected at most one period later with the same empty verdict).
        if let Some(saved) = progress_key
            .as_ref()
            .and_then(|pk| self.resume.borrow().get(pk).cloned())
        {
            if saved.mode == mode && saved.arity == k {
                let mut seeded = Table::empty(space.clone());
                let mut pos = vec![0usize; k];
                for t in &saved.tuples {
                    let inside = (0..k).all(|i| match self.dom_pos(doms[i], t[i] as u32) {
                        Some(p) => {
                            pos[order[i]] = p;
                            true
                        }
                        None => false,
                    });
                    if inside {
                        seeded.set(&pos, true);
                    }
                }
                current = Arc::new(seeded);
                stage = saved.stage;
            }
        }
        let cells = space.cells();
        let regions = Arc::new(
            doms.iter()
                .map(|&d| self.dom_regions(d))
                .collect::<Vec<_>>(),
        );
        let binding = |table: &Arc<Table>, epoch: u64| SetBinding {
            name: set_var.to_string(),
            doms: doms.to_vec(),
            order: order.to_vec(),
            table: Arc::clone(table),
            epoch,
        };
        let depth = self.tabs.borrow().sets.len();
        // An outermost loop (no enclosing fixed point has a stage bound)
        // accounts for the work its completed stages cost.
        let before = (depth == 0).then(|| self.counts());
        // The orbit so far, for PFP's divergence check.
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        // Leaf cells computed before the previous stage began.
        let mut asked: Option<u64> = None;
        loop {
            let _stage_span = self
                .trace_on
                .then(|| self.trace.span_with("fix.stage", &format!("stage={stage}")));
            // Budget gate per stage: a divergence-prone PFP burns stages
            // first, so this is where an iteration cap interrupts it.
            self.note_fix_stage()?;
            if mode == FixMode::Pfp {
                seen.insert(current.words().to_vec());
            }
            // LFP and IFP stages only grow, so tuples already in need no
            // test; IFP has always been charged that way, LFP and PFP for
            // the whole space.
            let known = if mode == FixMode::Ifp {
                current.count()
            } else {
                0
            };
            self.note_fix_tuple_tests(cells - known)?;
            let masking = {
                let mut st = self.tabs.borrow_mut();
                st.epoch += 1;
                let b = binding(&current, st.epoch);
                st.sets.truncate(depth);
                st.sets.push(b);
                // Masks pay while leaves are still being filled: the first
                // stage, and any stage after one that computed a cell.
                st.masking = asked.is_none_or(|before| st.leaf_cells > before);
                asked = Some(st.leaf_cells);
                st.masking
            };
            // LFP and IFP carry `next ⊇ current`: the body is only needed
            // on the tuples not yet in.
            let carried = masking && mode != FixMode::Pfp && cx.maskable(body);
            let value = if carried {
                // A tuple of the body's variables is in when every
                // completion to a full tuple is; pinned dependencies come
                // back with the broadcast.
                let vars = cx.free(body);
                let within = self.project((*current).clone(), vars, true, env)?;
                let mut fresh = self.zip(self.layout(vars, env), None, &[&within], true)?;
                fresh.complement();
                Arc::new(self.masked(cx, body, env, &fresh)?)
            } else {
                self.table(cx, body, env)?
            };
            let mut next = if value.layout() == space {
                Arc::unwrap_or_clone(value)
            } else {
                self.spread(cx, body, &value, space)?
            };
            if mode != FixMode::Pfp {
                next.union_with(&current);
            }
            // The stage completed: record it so an abort in a *later* stage
            // (or a later fixpoint) can resume from here.
            stage += 1;
            if self.trace_on {
                let delta = next
                    .words()
                    .iter()
                    .zip(current.words())
                    .map(|(a, b)| u64::from((a ^ b).count_ones()))
                    .sum();
                self.trace.count("fix.delta_tuples", delta);
                self.flush_trace_counters();
            }
            let next = Arc::new(next);
            if let Some(pk) = &progress_key {
                let spent = before.map_or(super::Counts::default(), |before| {
                    let now = self.counts();
                    std::array::from_fn(|i| now[i] - before[i])
                });
                self.progress.borrow_mut().insert(
                    pk.clone(),
                    FixLive {
                        mode,
                        stage,
                        order: order.to_vec(),
                        regions: Arc::clone(&regions),
                        table: Arc::clone(&next),
                        spent,
                    },
                );
            }
            if next == current {
                return Ok(current);
            }
            if mode == FixMode::Pfp && seen.contains(next.words()) {
                // Divergence: the PFP is empty by definition.
                return Ok(Arc::new(Table::empty(space.clone())));
            }
            current = next;
        }
    }

    /// A body's table over the tuple variables `target`: pinned
    /// dependencies (one-region variables outside `target`) are dropped,
    /// tuple variables the body does not mention are unconstrained, and
    /// the variables take `target`'s order.
    fn spread(&self, cx: Cx, body: PlanId, value: &Table, target: &Layout) -> Result<Table, Stop> {
        self.check_alloc(target)?;
        let ident: Vec<Vec<Option<usize>>> = target
            .sizes()
            .iter()
            .map(|&n| (0..n).map(Some).collect())
            .collect();
        let picks: Vec<Pick> = cx
            .free(body)
            .iter()
            .map(|&v| match target.index_of(v) {
                Some(i) => Pick::Var(i, &ident[i]),
                None => Pick::At(0),
            })
            .collect();
        Ok(value.gather(target.clone(), &picks))
    }

    fn tc_application(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Table, Stop> {
        let PlanNode::Tc {
            deterministic,
            left,
            body,
            ..
        } = cx.plan.node(id)
        else {
            unreachable!("tc_application on a non-Tc node")
        };
        let (deterministic, body) = (*deterministic, *body);
        let m = left.len();
        let args = cx.args(id);
        if args.len() != 4 * m {
            return Err(Stop::Query("TC tuple arity mismatch".into()));
        }
        let (bound, applied) = args.split_at(2 * m);
        if !cx.plan.facts(body).elem_free() {
            return Err(Stop::Query(
                "TC bodies must not have free element variables".into(),
            ));
        }
        if !Self::distinct(bound) {
            return Err(Stop::Query("TC tuple variables must be distinct".into()));
        }
        let deps = Self::dependencies(cx, body, bound);
        let n = self.ext.num_regions();
        // The edge relation as a bit matrix: source tuple, then target.
        let matrix = Layout::new(bound.to_vec(), vec![n; 2 * m]);
        let doms = vec![Dom::All; 2 * m];
        let order: Vec<usize> = (0..2 * m).collect();
        let sets = cx.plan.facts(body).free_sets.clone();
        let closure =
            self.per_binding(cx.plan.hash(id), &sets, &deps, &matrix, env, |_, env| {
                let _span = self.trace_on.then(|| {
                    self.trace.span_with(
                        "tc.edges",
                        &format!("tuples={}", n.saturating_pow(m as u32)),
                    )
                });
                let saved: Vec<Dom> = bound.iter().map(|&v| env.dom[v as usize]).collect();
                for &v in bound {
                    env.dom[v as usize] = Dom::All;
                }
                let run = (|| {
                    let tuples = n.checked_pow(m as u32).unwrap_or(usize::MAX);
                    self.note_tc_edge_tests(tuples.saturating_mul(tuples))?;
                    let edges = self.table(cx, body, env)?;
                    let mut closed = self.spread(cx, body, &edges, &matrix)?;
                    closed.close(deterministic)?;
                    Ok(Arc::new(closed))
                })();
                for (&v, &d) in bound.iter().zip(&saved) {
                    env.dom[v as usize] = d;
                }
                run
            })?;
        self.apply(&closure, &order, &doms, applied, &deps, cx.free(id), env)
    }

    // -----------------------------------------------------------------
    // Element-closed leaves
    // -----------------------------------------------------------------

    /// The shared leaf behind an element-closed node.
    fn lazy_ref(&self, cx: Cx, id: PlanId) -> Arc<LazyRef> {
        if let Some(r) = &self.tabs.borrow().node_leaf[id as usize] {
            return Arc::clone(r);
        }
        // Nodes built from the same formula with other region variables
        // (`lex_less(T0, T)`, `lex_less(P0, P)`) print alike once the free
        // variables are numbered by first occurrence: one leaf serves them.
        let mut text = String::new();
        let mut order: Vec<Var> = Vec::new();
        // A closed node has no variables to rename: nothing to share.
        if cx.free(id).is_empty() || !canonical(cx, id, &mut order, &mut text) {
            text = format!("#{id}");
            order = cx.free(id).to_vec();
        }
        let mut st = self.tabs.borrow_mut();
        let next = st.leaf_ids.len();
        let leaf = *st.leaf_ids.entry(text).or_insert(next);
        if st.lazy.len() <= leaf {
            st.lazy.resize(leaf + 1, None);
        }
        let r = Arc::new(LazyRef {
            leaf,
            order: order.into(),
        });
        st.node_leaf[id as usize] = Some(Arc::clone(&r));
        r
    }

    /// The value of an element-closed node at the binding in `env.val`:
    /// from its leaf when the cell is known, else through the formula
    /// interpreter (and remembered).
    fn lazy_probe(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<bool, Stop> {
        self.profiled(id, || self.lazy_cell(cx, id, env))
    }

    fn lazy_cell(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<bool, Stop> {
        let r = self.lazy_ref(cx, id);
        let pos: Vec<usize> = r
            .order
            .iter()
            .map(|&v| env.val[v as usize] as usize)
            .collect();
        let epochs = self.epochs(&cx.plan.facts(id).free_sets)?;
        let known = {
            let st = self.tabs.borrow();
            st.lazy[r.leaf]
                .as_ref()
                .filter(|slot| slot.epochs == epochs && slot.known.get(&pos))
                .map(|slot| slot.value.get(&pos))
        };
        self.note_lookup(id, known.is_some());
        if let Some(b) = known {
            return Ok(b);
        }
        let b = super::truth(&self.eval_node_uncached(cx, id, env, false)?);
        let n = self.ext.num_regions();
        let layout = Layout::new((0..pos.len() as Var).collect(), vec![n; pos.len()]);
        let fresh = self.tabs.borrow().lazy[r.leaf]
            .as_ref()
            .is_none_or(|slot| slot.epochs != epochs);
        if fresh {
            let slot = LazySlot {
                epochs,
                known: self.empty(layout.clone())?,
                value: self.empty(layout)?,
            };
            self.tabs.borrow_mut().lazy[r.leaf] = Some(slot);
        }
        let mut st = self.tabs.borrow_mut();
        st.leaf_cells += 1;
        let slot = st.lazy[r.leaf]
            .as_mut()
            .expect("leaf slot was just ensured");
        slot.known.set(&pos, true);
        slot.value.set(&pos, b);
        Ok(b)
    }

    /// Does this operand have to join cell by cell? True for an
    /// element-closed node until every cell of the current domains is
    /// known — from then on it is a table like any other.
    fn lazy_pending(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<bool, Stop> {
        if !element_closed(cx.plan.node(id)) || self.cached(cx, id, env)?.is_some() {
            return Ok(false);
        }
        let r = self.lazy_ref(cx, id);
        let epochs = self.epochs(&cx.plan.facts(id).free_sets)?;
        let layout = self.layout(cx.free(id), env);
        let doms = Self::doms_of(cx.free(id), env);
        let at: Vec<usize> = r
            .order
            .iter()
            .map(|v| {
                cx.free(id)
                    .iter()
                    .position(|x| x == v)
                    .expect("free variable")
            })
            .collect();
        let complete = {
            let st = self.tabs.borrow();
            let Some(slot) = st.lazy[r.leaf].as_ref().filter(|s| s.epochs == epochs) else {
                return Ok(true);
            };
            if layout.bytes().is_none() {
                return Ok(true);
            }
            let mut t = Table::empty(layout.clone());
            let mut all_known = true;
            Table::full(layout).for_each(|pos| {
                let cell: Vec<usize> = at
                    .iter()
                    .map(|&i| self.dom_region(doms[i], pos[i]) as usize)
                    .collect();
                all_known &= slot.known.get(&cell);
                if slot.value.get(&cell) {
                    t.set(pos, true);
                }
            });
            all_known.then_some(t)
        };
        match complete {
            Some(t) => {
                self.check_alloc(t.layout())?;
                self.store(cx, id, env, Arc::new(t))?;
                Ok(false)
            }
            None => Ok(true),
        }
    }

    /// The whole table of an element-closed node: every cell is asked for.
    fn lazy_force(&self, cx: Cx, id: PlanId, env: &mut Env) -> Result<Table, Stop> {
        let vars = cx.free(id);
        let layout = self.layout(vars, env);
        self.check_alloc(&layout)?;
        let mut t = Table::full(layout);
        let doms = Self::doms_of(vars, env);
        t.refine(true, |pos| {
            for ((&v, &d), &p) in vars.iter().zip(doms.iter()).zip(pos) {
                env.val[v as usize] = self.dom_region(d, p);
            }
            self.lazy_probe(cx, id, env)
        })?;
        Ok(t)
    }

    /// The fixed-point stages recorded so far, in the snapshot's terms:
    /// tuples of region ids in declaration order, sorted.
    pub(super) fn stage_tuples(live: &FixLive) -> Vec<Vec<u64>> {
        let mut out = Vec::with_capacity(live.table.count());
        live.table.for_each(|pos| {
            out.push(
                live.order
                    .iter()
                    .zip(live.regions.iter())
                    .map(|(&at, regions)| u64::from(regions[pos[at]]))
                    .collect(),
            );
        });
        out.sort();
        out
    }
}

/// Print the subplan at `id` with its free region variables numbered by
/// first occurrence (collected into `order`). False when the subplan holds
/// a construct whose sharing is not worth deciding here — region
/// quantifiers, set variables, fixed points, closures, `rBIT`.
fn canonical(cx: Cx, id: PlanId, order: &mut Vec<Var>, out: &mut String) -> bool {
    let node = cx.plan.node(id);
    // The node's kind and whatever it says besides region variables and
    // operands; its region variables follow, numbered.
    let head = match node {
        PlanNode::True => write!(out, "true("),
        PlanNode::False => write!(out, "false("),
        PlanNode::Lin(a) => write!(out, "lin({a:?}"),
        PlanNode::Pred(name, args) => write!(out, "pred({name:?},{args:?}"),
        PlanNode::In(args, _) => write!(out, "in({args:?}"),
        PlanNode::Adj(..) => write!(out, "adj("),
        PlanNode::RegionEq(..) => write!(out, "eq("),
        PlanNode::SubsetOf(_, name) => write!(out, "sub({name:?}"),
        PlanNode::DimEq(_, k) => write!(out, "dim({k}"),
        PlanNode::Bounded(_) => write!(out, "bounded("),
        PlanNode::And(_) => write!(out, "and("),
        PlanNode::Or(_) => write!(out, "or("),
        PlanNode::Not(_) => write!(out, "not("),
        PlanNode::ExistsElem(x, _) => write!(out, "ex({x:?}"),
        PlanNode::ForallElem(x, _) => write!(out, "all({x:?}"),
        _ => return false,
    };
    debug_assert!(head.is_ok(), "writing to a String cannot fail");
    for &slot in cx.args(id) {
        let at = order.iter().position(|&v| v == slot).unwrap_or_else(|| {
            order.push(slot);
            order.len() - 1
        });
        let _ = write!(out, ",#{at}");
    }
    let ok = lcdb_plan::children(node).into_iter().all(|c| {
        out.push(';');
        canonical(cx, c, order, out)
    });
    out.push(')');
    ok
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::region::{Decomposition, RegionExtension};
    use crate::{queries, EvalError, RegFormula};
    use lcdb_budget::{CancelToken, EvalBudget};
    use lcdb_logic::{parse_formula, Relation};
    use lcdb_recover::Snapshot;
    use std::time::Duration;

    fn ext(src: &str, vars: &[&str]) -> RegionExtension {
        RegionExtension::arrangement(Relation::new(
            vars.iter().map(|v| v.to_string()).collect(),
            parse_formula(src).unwrap(),
        ))
    }

    fn gapped() -> RegionExtension {
        ext("(0 < x and x < 1) or (2 < x and x < 3)", &["x"])
    }

    /// `[lfp M, X. X = from ∨ ∃Z (M(Z) ∧ adj(Z, X) ∧ X ⊆ S)](to)`: the body
    /// takes `from` from outside the operator.
    fn reach(from: &str, to: &str) -> RegFormula {
        RegFormula::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: Arc::new(RegFormula::or(vec![
                RegFormula::RegionEq("X".into(), from.into()),
                RegFormula::exists_region(
                    "Z",
                    RegFormula::and(vec![
                        RegFormula::SetApp("M".into(), vec!["Z".into()]),
                        RegFormula::Adj("Z".into(), "X".into()),
                        RegFormula::SubsetOf("X".into(), "S".into()),
                    ]),
                ),
            ])),
            args: vec![to.into()],
        }
    }

    /// The same reachability by search over the decomposition.
    fn reach_by_search(e: &RegionExtension, from: usize) -> Vec<bool> {
        let mut seen = vec![false; e.num_regions()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(z) = stack.pop() {
            for x in e.region_ids() {
                if !seen[x] && e.adjacent(z, x) && e.subset_of(x, "S") {
                    seen[x] = true;
                    stack.push(x);
                }
            }
        }
        seen
    }

    #[test]
    fn fixed_point_is_saturated_once_per_dependency_binding() {
        let e = gapped();
        let n = e.num_regions();
        // ∀A ∃B: B reached from A and B ≠ A — false for regions out of S.
        let f = RegFormula::forall_region(
            "A",
            RegFormula::exists_region(
                "B",
                RegFormula::and(vec![
                    reach("A", "B"),
                    RegFormula::not(RegFormula::RegionEq("A".into(), "B".into())),
                ]),
            ),
        );
        let want = (0..n).all(|a| {
            let seen = reach_by_search(&e, a);
            (0..n).any(|b| b != a && seen[b])
        });
        let ev = Evaluator::new(&e);
        assert_eq!(ev.eval_sentence(&f), want);
        // One chain of stages per region bound to A, each checkpointable
        // under its own key.
        let snap = ev.checkpoint(&f);
        let Snapshot::Fixpoint(snap) = snap else {
            panic!("fixpoint snapshot")
        };
        let mut bound: Vec<u64> = snap.entries.iter().map(|e| e.bindings[0]).collect();
        bound.sort_unstable();
        assert_eq!(bound, (0..n as u64).collect::<Vec<_>>());
        for entry in &snap.entries {
            let seen = reach_by_search(&e, entry.bindings[0] as usize);
            let tuples: Vec<u64> = entry.tuples.iter().map(|t| t[0]).collect();
            let want: Vec<u64> = (0..n as u64).filter(|&x| seen[x as usize]).collect();
            assert_eq!(tuples, want, "stage set for A = {}", entry.bindings[0]);
        }
        // With the binding given from outside, one chain.
        for (a, b) in [(0, 0), (1, 3), (3, 1), (1, 2)] {
            let ev = Evaluator::new(&e);
            let got = ev.try_eval_with_regions(&reach("A", "B"), &[("A", a), ("B", b)]).unwrap();
            assert_eq!(got == lcdb_logic::Formula::True, reach_by_search(&e, a)[b]);
        }
    }

    #[test]
    fn nested_fixed_point_depends_on_the_outer_tuple_variable() {
        // Outer stage N(Y) grows by one S-region per stage along reach(Y, ·):
        // [ifp N, Y. first-in-S(Y) ∨ ∃W (N(W) ∧ reach(W, Y))](T), for all T ⊆ S
        // — true exactly when S is connected.
        let nested = |t: &str| RegFormula::Fix {
            mode: FixMode::Ifp,
            set_var: "N".into(),
            vars: vec!["Y".into()],
            body: Arc::new(RegFormula::and(vec![
                RegFormula::SubsetOf("Y".into(), "S".into()),
                RegFormula::or(vec![
                    RegFormula::not(RegFormula::exists_region(
                        "V",
                        RegFormula::SetApp("N".into(), vec!["V".into()]),
                    )),
                    RegFormula::exists_region(
                        "W",
                        RegFormula::and(vec![
                            RegFormula::SetApp("N".into(), vec!["W".into()]),
                            reach("W", "Y"),
                        ]),
                    ),
                ]),
            ])),
            args: vec![t.into()],
        };
        let all_in = RegFormula::forall_region(
            "T",
            RegFormula::SubsetOf("T".into(), "S".into()).implies(nested("T")),
        );
        // Stage 1 puts every S-region in (N is empty), so the sentence holds
        // on any database; the inner operator must still be saturated for
        // every W, at every outer stage, without leaking between stages.
        for e in [gapped(), ext("0 < x and x < 2", &["x"])] {
            let ev = Evaluator::new(&e);
            assert!(ev.eval_sentence(&all_in));
        }
    }

    #[test]
    fn guards_narrow_a_binder_and_a_pinned_binder_guards_the_next() {
        // Regions of the line: (-∞,0) {0} (0,1) {1} (1,3) {3} (3,∞).
        let e = ext("(0 < x and x < 1) or x = 3", &["x"]);
        assert_eq!(e.num_regions(), 7);
        let run = |body: &str| {
            let f = crate::parse_regformula(&format!("exists R. [ifp $M, X. {body}](R)"));
            let ev = Evaluator::new(&e);
            let verdict = ev.eval_sentence(&f.unwrap());
            // The outer `∃R` ranges over every region, once.
            (verdict, ev.stats().fix_iterations, ev.stats().region_expansions - 7)
        };
        // The guards `A ⊆ S` and `dim(A) = 0` leave {3}, which pins A and
        // makes `adj(A, B)` a guard of B: (1,3) and (3,∞). The stage is
        // joined over 1 + 2 regions, not 7 + 7 (3 + 7 by dimension alone).
        let joined = "(X = B or $M(X))";
        let chain = format!(
            "exists A. (A subset S and dim(A) = 0 and \
             exists B. (adj(A, B) and not (B subset S) and {joined}))"
        );
        assert_eq!(run(&chain), (true, 2, 2 * (1 + 2)));
        // Under `∀` a violated guard makes the body true.
        let dual = format!(
            "forall A. (not (A subset S) or not (dim(A) = 0) or \
             exists B. (adj(A, B) and {joined}))"
        );
        assert_eq!(run(&dual), (true, 2, 2 * (1 + 2)));
        // Guards nothing satisfies: the absorbing constant, nothing ranged over.
        let none = format!("exists A. (dim(A) = 0 and dim(A) = 1 and {})", joined.replace('B', "A"));
        assert_eq!(run(&none), (false, 1, 0));
        // Without an operand to join, the guards are the join: only the
        // dimension class, which costs nothing, is taken.
        let ev = Evaluator::new(&e);
        let all_guards = crate::parse_regformula("exists A. (A subset S and dim(A) = 0)");
        assert!(ev.eval_sentence(&all_guards.unwrap()));
        assert_eq!(ev.stats().region_expansions, 3, "{:?}", ev.stats());
        // A tuple variable: the guards leave (0,1), and Definition 5.1's
        // sweep is charged for that one tuple per stage.
        let fix = crate::parse_regformula(
            "exists R. [lfp $M, X. (X subset S and dim(X) = 1 and bounded(X) and \
             (adj(X, X) or $M(X)))](R)",
        );
        let ev = Evaluator::new(&e);
        assert!(!ev.eval_sentence(&fix.unwrap()));
        let s = ev.stats();
        assert_eq!((s.fix_iterations, s.fix_tuple_tests), (1, 1), "{s:?}");
    }

    #[test]
    fn sliced_tables_equal_whole_tables() {
        let e = ext(
            "(0 < x and x < 1 and 0 < y and y < 1) or (1 < x and x < 2 and 1 < y and y < 2)",
            &["x", "y"],
        );
        let three = RegFormula::exists_region(
            "A",
            RegFormula::forall_region(
                "B",
                RegFormula::exists_region(
                    "C",
                    RegFormula::or(vec![
                        RegFormula::and(vec![
                            RegFormula::Adj("A".into(), "C".into()),
                            RegFormula::Adj("C".into(), "B".into()),
                        ]),
                        RegFormula::not(RegFormula::SubsetOf("B".into(), "S".into())),
                        RegFormula::RegionEq("A".into(), "B".into()),
                    ]),
                ),
            ),
        );
        for f in [
            queries::connectivity(),
            queries::at_least_k_components(2),
            three,
        ] {
            let whole = Evaluator::new(&e);
            let want = whole.eval_sentence(&f);
            let sliced = Evaluator::new(&e);
            sliced.slice_bytes.set(64);
            assert_eq!(sliced.eval_sentence(&f), want);
            // Slices ask for their operands once per value of the sliced
            // variable: the path ran.
            assert!(
                sliced.stats().plan_cache_lookups > whole.stats().plan_cache_lookups,
                "{:?} vs {:?}",
                sliced.stats(),
                whole.stats()
            );
            assert_eq!(sliced.stats().fix_iterations, whole.stats().fix_iterations);
            assert!(
                sliced.tabs.borrow().scratch.is_empty(),
                "slices were dropped"
            );
        }
    }

    #[test]
    fn every_budget_abort_is_typed_and_carries_partial_stats() {
        let e = gapped();
        let conn = queries::connectivity();
        let pairs = e.num_regions() * e.num_regions();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let budgets = [
            EvalBudget::unlimited().with_max_tuple_tests(pairs as u64 + 1),
            EvalBudget::unlimited().with_max_fix_iterations(1),
            EvalBudget::unlimited().with_timeout(Duration::ZERO),
            EvalBudget::unlimited().with_max_memory_bytes(16),
            EvalBudget::unlimited().with_cancel_token(cancelled),
        ];
        for (i, budget) in budgets.into_iter().enumerate() {
            let ev = Evaluator::with_budget(&e, budget);
            let err = match ev.try_eval_sentence(&conn) {
                Err(err) => err,
                Ok(v) => panic!("budget {i} let the verdict {v} through: {:?}", ev.stats()),
            };
            let ok = match (i, &err) {
                // A stage is charged whole: the second one crosses the cap.
                (0, EvalError::TupleTestLimit { stats, .. }) => {
                    stats.fix_iterations == 2 && stats.fix_tuple_tests == 2 * pairs
                }
                (1, EvalError::IterationLimit { stats, .. }) => stats.fix_iterations == 2,
                (2, EvalError::DeadlineExceeded { .. }) => true,
                // One-variable leaves fit in 16 bytes; the pair tables do not.
                (3, EvalError::MemoryLimit { stats, .. }) => stats.plan_cache_lookups > 0,
                (4, EvalError::Cancelled { .. }) => true,
                _ => false,
            };
            assert!(ok, "budget {i}: {err}");
            assert!(err.is_budget_exhaustion());
            assert_eq!(err.stats().regions, e.num_regions());
            assert!(err.stats().plan_nodes > 0, "{:?}", err.stats());
        }
    }

    #[test]
    fn leaves_equal_up_to_variable_names_share_their_cells() {
        // first(P) ∧ first(Q) style: the same element-closed formula over
        // two variable names is eliminated once per pair of regions.
        let e = ext("(0 < x and x < 1) or x = 3", &["x"]);
        let below = |p: &str, q: &str| {
            crate::parse_regformula(&format!(
                "exists a. exists b. (a in {p} and b in {q} and a < b)"
            ))
            .unwrap()
        };
        let once = RegFormula::exists_region("P", RegFormula::exists_region("Q", below("P", "Q")));
        let twice = RegFormula::and(vec![
            once.clone(),
            RegFormula::exists_region("T", RegFormula::exists_region("U", below("T", "U"))),
        ]);
        let (a, b) = (Evaluator::new(&e), Evaluator::new(&e));
        assert!(a.eval_sentence(&once) && b.eval_sentence(&twice));
        assert_eq!(a.stats().qe_calls, b.stats().qe_calls);
        assert!(a.stats().qe_calls > 0);
    }
}
