//! Interned plan IR for the region logic family.
//!
//! The paper's evaluation argument (Theorem 6.1) is a compilation story: a
//! Reg-formula is normalized once and then evaluated by iterating stages over
//! a fixed region decomposition. This crate is that normalization target — a
//! hash-consed DAG of [`PlanNode`]s in an arena ([`Plan`]), where structural
//! sharing is free (equal subformulas intern to one [`PlanId`]) and every
//! node carries a *canonical*, process-stable 64-bit hash computed from its
//! structure, never from a pretty-printed rendering and never with `std`'s
//! randomized hashers. That hash is the fingerprint contract with
//! `lcdb-recover`: snapshots key fixpoint progress by it, so a resuming
//! process recomputes the identical value by re-lowering the same query.
//!
//! Lowering from the surface AST lives in `lcdb-core` (which owns
//! `RegFormula`); rewrite passes that are expressible on the IR itself live
//! here:
//!
//! * constant and guard folding — the smart constructors [`Plan::and_node`],
//!   [`Plan::or_node`], [`Plan::not_node`], [`Plan::lin`] flatten, fold
//!   constants and drop duplicate children (hash-consing makes duplicate
//!   detection O(1));
//! * common-subplan sharing — interning itself: one SipHash lookup per
//!   node, each node stored once, and free-variable sets shared with a
//!   child whose set they equal;
//! * region-quantifier hoisting ([`passes::hoist_one`]), applied as each
//!   quantifier is built — conjuncts independent of a region quantifier
//!   move out of its scope, so fixpoint bodies expose stage-invariant
//!   subplans, whose tables the executor builds once;
//! * dependency stratification ([`passes::stratify`]) — orders the
//!   `lfp`/`ifp`/`pfp`/`tc` operators by nesting depth, innermost first: the
//!   order in which a stage-wise executor must saturate them.
//!
//! [`explain`] renders the optimized plan with per-node cost annotations,
//! [`exec`] provides a first-order executor over the IR used by the
//! datalog engine, and [`table`] is the dense-bitset kernel `lcdb-core`
//! evaluates the element-free part of a plan with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod explain;
pub mod hash;
pub mod memo;
pub mod passes;
pub mod table;

use lcdb_exec::hash::Fnv;
use lcdb_logic::{Atom, LinExpr};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a node in a [`Plan`] arena. Equal ids imply structurally equal
/// subplans (hash-consing), so `PlanId` equality is subplan equality.
pub type PlanId = u32;

/// Which fixed-point operator a [`PlanNode::Fix`] node uses. This is the
/// canonical definition; `lcdb-core` re-exports it as part of `RegFormula`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FixMode {
    /// Least fixed point (requires positivity in the set variable).
    Lfp,
    /// Inflationary fixed point.
    Ifp,
    /// Partial fixed point (empty result if the iteration does not converge).
    Pfp,
}

impl FixMode {
    /// Stable one-byte encoding used by the canonical hash.
    pub fn tag(self) -> u8 {
        match self {
            FixMode::Lfp => 0,
            FixMode::Ifp => 1,
            FixMode::Pfp => 2,
        }
    }

    /// Lowercase operator name (`lfp`/`ifp`/`pfp`).
    pub fn name(self) -> &'static str {
        match self {
            FixMode::Lfp => "lfp",
            FixMode::Ifp => "ifp",
            FixMode::Pfp => "pfp",
        }
    }
}

/// One node of the plan DAG. Children are [`PlanId`]s into the same arena;
/// variable sorts follow the surface language (element variables range over
/// ℝ, region and set variables over the finite region sort).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlanNode {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// A linear constraint over element variables.
    Lin(Atom),
    /// Database relation applied to element terms.
    Pred(String, Vec<LinExpr>),
    /// Containment `t̄ ∈ R` between a point and a region.
    In(Vec<LinExpr>, String),
    /// Region adjacency `adj(R, R')`.
    Adj(String, String),
    /// Region equality `R = R'`.
    RegionEq(String, String),
    /// `R ⊆ T` for a database relation `T`.
    SubsetOf(String, String),
    /// `dim(R) = k`.
    DimEq(String, usize),
    /// Is the region bounded.
    Bounded(String),
    /// Conjunction.
    And(Vec<PlanId>),
    /// Disjunction.
    Or(Vec<PlanId>),
    /// Negation. After NNF lowering this only wraps non-decomposable leaves.
    Not(PlanId),
    /// `∃x` over the reals.
    ExistsElem(String, PlanId),
    /// `∀x` over the reals.
    ForallElem(String, PlanId),
    /// `∃R` over the regions.
    ExistsRegion(String, PlanId),
    /// `∀R` over the regions.
    ForallRegion(String, PlanId),
    /// Set-variable application `M R₁ … R_k`.
    SetApp(String, Vec<String>),
    /// Fixed-point operator `[FP_{M, X̄} φ](R̄)`.
    Fix {
        /// LFP, IFP, or PFP semantics.
        mode: FixMode,
        /// The set variable bound by the operator.
        set_var: String,
        /// The tuple variables bound in the body.
        vars: Vec<String>,
        /// The body plan.
        body: PlanId,
        /// The argument regions tested against the fixed point.
        args: Vec<String>,
    },
    /// The `rBIT` operator.
    Rbit {
        /// The free element variable of the body.
        var: String,
        /// The body plan.
        body: PlanId,
        /// Region tested against the numerator bits.
        rn: String,
        /// Region tested against the denominator bits.
        rd: String,
    },
    /// Transitive closure `[TC_{R̄,R̄'} φ](X̄, Ȳ)`.
    Tc {
        /// DTC if true, TC otherwise.
        deterministic: bool,
        /// Bound left tuple.
        left: Vec<String>,
        /// Bound right tuple.
        right: Vec<String>,
        /// The step plan.
        body: PlanId,
        /// Source tuple.
        arg_left: Vec<String>,
        /// Target tuple.
        arg_right: Vec<String>,
    },
}

/// A sorted, duplicate-free set of variable names. A node whose set equals
/// one of its children's shares that child's allocation.
pub type VarSet = Arc<[String]>;

/// Static facts about a node, computed once at interning time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeFacts {
    /// Free element variables, sorted.
    pub free_elems: VarSet,
    /// Free region variables, sorted.
    pub free_regions: VarSet,
    /// Free set variables, sorted.
    pub free_sets: VarSet,
    /// Tree size of the subplan (shared nodes counted per occurrence,
    /// saturating) — the denominator of the sharing ratio.
    pub size: u64,
}

impl NodeFacts {
    /// No free element variables.
    pub fn elem_free(&self) -> bool {
        self.free_elems.is_empty()
    }

    /// No free set variables.
    pub fn set_free(&self) -> bool {
        self.free_sets.is_empty()
    }
}

/// A hash-consed plan arena. Append-only: interning an already-present node
/// returns its existing id, so `PlanId` equality is structural equality.
/// Each node is stored once, shared by `nodes` and the interner.
#[derive(Clone, Debug)]
pub struct Plan {
    nodes: Vec<Arc<PlanNode>>,
    hashes: Vec<u64>,
    facts: Vec<NodeFacts>,
    interner: HashMap<Arc<PlanNode>, PlanId>,
    /// `marks[id] == epoch` iff the running `and_node`/`or_node` call kept
    /// `id` already: duplicate detection without a set per call.
    marks: Vec<u32>,
    epoch: u32,
    /// The one empty [`VarSet`], shared by every node without free variables.
    empty: VarSet,
}

impl Default for Plan {
    fn default() -> Self {
        Plan {
            nodes: Vec::new(),
            hashes: Vec::new(),
            facts: Vec::new(),
            interner: HashMap::new(),
            marks: Vec::new(),
            epoch: 0,
            empty: Arc::from(Vec::new()),
        }
    }
}

impl Plan {
    /// An empty arena.
    pub fn new() -> Self {
        Plan::default()
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node stored under `id`.
    pub fn node(&self, id: PlanId) -> &PlanNode {
        &self.nodes[id as usize]
    }

    /// The canonical, process-stable 64-bit hash of the subplan rooted at
    /// `id`. Computed structurally (tags, payloads, child hashes); used as
    /// the query/fixpoint fingerprint persisted by `lcdb-recover`.
    pub fn hash(&self, id: PlanId) -> u64 {
        self.hashes[id as usize]
    }

    /// Static facts (free variables per sort, subtree size) of `id`.
    pub fn facts(&self, id: PlanId) -> &NodeFacts {
        &self.facts[id as usize]
    }

    /// Intern a node, returning the id of the unique structurally equal
    /// instance. Child ids must already belong to this arena. One lookup
    /// (SipHash, once) decides; a new node is stored once, not cloned.
    pub fn intern(&mut self, node: PlanNode) -> PlanId {
        let id = self.nodes.len() as PlanId;
        let node = match self.interner.entry(Arc::new(node)) {
            Entry::Occupied(e) => return *e.get(),
            Entry::Vacant(e) => {
                let node = Arc::clone(e.key());
                e.insert(id);
                node
            }
        };
        self.hashes.push(self.canonical_hash(&node));
        self.facts.push(self.node_facts(&node));
        self.nodes.push(node);
        self.marks.push(0);
        id
    }

    /// `true` leaf.
    pub fn truth(&mut self) -> PlanId {
        self.intern(PlanNode::True)
    }

    /// `false` leaf.
    pub fn falsity(&mut self) -> PlanId {
        self.intern(PlanNode::False)
    }

    /// Linear-constraint leaf with constant folding: atoms whose truth does
    /// not depend on any variable collapse to `true`/`false`.
    pub fn lin(&mut self, atom: Atom) -> PlanId {
        match atom.constant_truth() {
            Some(true) => self.truth(),
            Some(false) => self.falsity(),
            None => self.intern(PlanNode::Lin(atom)),
        }
    }

    /// Smart conjunction: flattens nested `And`s, folds constants
    /// (`true` disappears, `false` short-circuits), and drops duplicate
    /// children (sound for conjunction; duplicates are exact by interning).
    pub fn and_node(&mut self, parts: Vec<PlanId>) -> PlanId {
        self.connective(parts, true)
    }

    /// Smart disjunction, dual to [`Plan::and_node`].
    pub fn or_node(&mut self, parts: Vec<PlanId>) -> PlanId {
        self.connective(parts, false)
    }

    /// [`Plan::and_node`] (`conj`) or [`Plan::or_node`]: children in
    /// first-occurrence order, in time linear in their number.
    fn connective(&mut self, mut stack: Vec<PlanId>, conj: bool) -> PlanId {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        let mut out: Vec<PlanId> = Vec::with_capacity(stack.len());
        stack.reverse();
        while let Some(p) = stack.pop() {
            match (self.node(p), conj) {
                (PlanNode::True, true) | (PlanNode::False, false) => {}
                (PlanNode::True, false) => return self.truth(),
                (PlanNode::False, true) => return self.falsity(),
                (PlanNode::And(inner), true) | (PlanNode::Or(inner), false) => {
                    stack.extend(inner.iter().rev());
                }
                _ => {
                    if self.marks[p as usize] != self.epoch {
                        self.marks[p as usize] = self.epoch;
                        out.push(p);
                    }
                }
            }
        }
        match (out.len(), conj) {
            (0, true) => self.truth(),
            (0, false) => self.falsity(),
            (1, _) => out[0],
            (_, true) => self.intern(PlanNode::And(out)),
            (_, false) => self.intern(PlanNode::Or(out)),
        }
    }

    /// Smart negation: folds constants and collapses double negation.
    pub fn not_node(&mut self, id: PlanId) -> PlanId {
        match self.node(id) {
            PlanNode::True => self.falsity(),
            PlanNode::False => self.truth(),
            PlanNode::Not(inner) => *inner,
            _ => self.intern(PlanNode::Not(id)),
        }
    }

    /// The canonical hash of a node about to be interned (children already
    /// interned, so their hashes are available).
    fn canonical_hash(&self, node: &PlanNode) -> u64 {
        let mut h = Fnv::new();
        let expr = |h: &mut Fnv, e: &LinExpr| {
            let terms: Vec<_> = e.terms().collect();
            h.u64(terms.len() as u64);
            for (v, c) in terms {
                h.str(v);
                h.str(&c.to_string());
            }
            h.str(&e.constant_term().to_string());
        };
        match node {
            PlanNode::True => h.u8(0),
            PlanNode::False => h.u8(1),
            PlanNode::Lin(a) => {
                h.u8(2);
                expr(&mut h, &a.expr);
                h.u8(rel_tag(a.rel));
            }
            PlanNode::Pred(name, args) => {
                h.u8(3);
                h.str(name);
                h.u64(args.len() as u64);
                for a in args {
                    expr(&mut h, a);
                }
            }
            PlanNode::In(args, r) => {
                h.u8(4);
                h.u64(args.len() as u64);
                for a in args {
                    expr(&mut h, a);
                }
                h.str(r);
            }
            PlanNode::Adj(a, b) => {
                h.u8(5);
                h.str(a);
                h.str(b);
            }
            PlanNode::RegionEq(a, b) => {
                h.u8(6);
                h.str(a);
                h.str(b);
            }
            PlanNode::SubsetOf(r, s) => {
                h.u8(7);
                h.str(r);
                h.str(s);
            }
            PlanNode::DimEq(r, k) => {
                h.u8(8);
                h.str(r);
                h.u64(*k as u64);
            }
            PlanNode::Bounded(r) => {
                h.u8(9);
                h.str(r);
            }
            PlanNode::And(parts) => {
                h.u8(10);
                h.u64(parts.len() as u64);
                for &p in parts {
                    h.u64(self.hash(p));
                }
            }
            PlanNode::Or(parts) => {
                h.u8(11);
                h.u64(parts.len() as u64);
                for &p in parts {
                    h.u64(self.hash(p));
                }
            }
            PlanNode::Not(p) => {
                h.u8(12);
                h.u64(self.hash(*p));
            }
            PlanNode::ExistsElem(v, p) => {
                h.u8(13);
                h.str(v);
                h.u64(self.hash(*p));
            }
            PlanNode::ForallElem(v, p) => {
                h.u8(14);
                h.str(v);
                h.u64(self.hash(*p));
            }
            PlanNode::ExistsRegion(v, p) => {
                h.u8(15);
                h.str(v);
                h.u64(self.hash(*p));
            }
            PlanNode::ForallRegion(v, p) => {
                h.u8(16);
                h.str(v);
                h.u64(self.hash(*p));
            }
            PlanNode::SetApp(m, vars) => {
                h.u8(17);
                h.str(m);
                h.u64(vars.len() as u64);
                for v in vars {
                    h.str(v);
                }
            }
            PlanNode::Fix {
                mode,
                set_var,
                vars,
                body,
                args,
            } => {
                h.u8(18);
                h.u8(mode.tag());
                h.str(set_var);
                h.u64(vars.len() as u64);
                for v in vars {
                    h.str(v);
                }
                h.u64(self.hash(*body));
                h.u64(args.len() as u64);
                for a in args {
                    h.str(a);
                }
            }
            PlanNode::Rbit { var, body, rn, rd } => {
                h.u8(19);
                h.str(var);
                h.u64(self.hash(*body));
                h.str(rn);
                h.str(rd);
            }
            PlanNode::Tc {
                deterministic,
                left,
                right,
                body,
                arg_left,
                arg_right,
            } => {
                h.u8(20);
                h.u8(u8::from(*deterministic));
                h.u64(left.len() as u64);
                for v in left {
                    h.str(v);
                }
                h.u64(right.len() as u64);
                for v in right {
                    h.str(v);
                }
                h.u64(self.hash(*body));
                h.u64(arg_left.len() as u64);
                for v in arg_left {
                    h.str(v);
                }
                h.u64(arg_right.len() as u64);
                for v in arg_right {
                    h.str(v);
                }
            }
        }
        h.finish()
    }

    /// The fingerprint of a fixpoint operator identity — `(mode, set
    /// variable, tuple variables, body)`, deliberately *excluding* the
    /// application arguments so every application site of the same operator
    /// shares one checkpoint entry. Panics if `id` is not a `Fix` node.
    pub fn fix_fingerprint(&self, id: PlanId) -> u64 {
        let PlanNode::Fix {
            mode,
            set_var,
            vars,
            body,
            ..
        } = self.node(id)
        else {
            panic!("fix_fingerprint on a non-Fix node");
        };
        let mut h = Fnv::new();
        h.u8(0xf1);
        h.u8(mode.tag());
        h.str(set_var);
        h.u64(vars.len() as u64);
        for v in vars {
            h.str(v);
        }
        h.u64(self.hash(*body));
        h.finish()
    }

    fn node_facts(&self, node: &PlanNode) -> NodeFacts {
        let none = || Arc::clone(&self.empty);
        let names = |vs: &[&String]| set_of(vs.iter().map(|&v| v.clone()));
        let exprs = |args: &[LinExpr]| set_of(args.iter().flat_map(LinExpr::vars));
        let leaf = |free_elems, free_regions, free_sets| NodeFacts {
            free_elems,
            free_regions,
            free_sets,
            size: 1,
        };
        // A node over one child: the child's facts, one node larger.
        let over = |p: PlanId| {
            let f = self.facts(p);
            NodeFacts {
                size: f.size.saturating_add(1),
                ..f.clone()
            }
        };
        match node {
            PlanNode::True | PlanNode::False => leaf(none(), none(), none()),
            PlanNode::Lin(a) => leaf(set_of(a.expr.vars()), none(), none()),
            PlanNode::Pred(_, args) => leaf(exprs(args), none(), none()),
            PlanNode::In(args, r) => leaf(exprs(args), names(&[r]), none()),
            PlanNode::Adj(a, b) | PlanNode::RegionEq(a, b) => leaf(none(), names(&[a, b]), none()),
            PlanNode::SubsetOf(r, _) | PlanNode::DimEq(r, _) | PlanNode::Bounded(r) => {
                leaf(none(), names(&[r]), none())
            }
            PlanNode::SetApp(m, vars) => leaf(none(), set_of(vars.iter().cloned()), names(&[m])),
            PlanNode::And(parts) | PlanNode::Or(parts) => NodeFacts {
                free_elems: self.union(parts, |f| &f.free_elems),
                free_regions: self.union(parts, |f| &f.free_regions),
                free_sets: self.union(parts, |f| &f.free_sets),
                size: parts
                    .iter()
                    .fold(1, |s: u64, &p| s.saturating_add(self.facts(p).size)),
            },
            PlanNode::Not(p) => over(*p),
            PlanNode::ExistsElem(v, p) | PlanNode::ForallElem(v, p) => {
                let mut f = over(*p);
                f.free_elems = rebind(&f.free_elems, [v], []);
                f
            }
            PlanNode::ExistsRegion(v, p) | PlanNode::ForallRegion(v, p) => {
                let mut f = over(*p);
                f.free_regions = rebind(&f.free_regions, [v], []);
                f
            }
            PlanNode::Fix {
                set_var,
                vars,
                body,
                args,
                ..
            } => {
                let mut f = over(*body);
                f.free_regions = rebind(&f.free_regions, vars, args);
                f.free_sets = rebind(&f.free_sets, [set_var], []);
                f
            }
            PlanNode::Rbit { var, body, rn, rd } => {
                let mut f = over(*body);
                f.free_elems = rebind(&f.free_elems, [var], []);
                f.free_regions = rebind(&f.free_regions, [], [rn, rd]);
                f
            }
            PlanNode::Tc {
                left,
                right,
                body,
                arg_left,
                arg_right,
                ..
            } => {
                let mut f = over(*body);
                let (bound, args) = (left.iter().chain(right), arg_left.iter().chain(arg_right));
                f.free_regions = rebind(&f.free_regions, bound, args);
                f
            }
        }
    }

    /// The union of one free-variable set over `parts`: the largest of them
    /// when it holds all the others, else a new sorted set.
    fn union(&self, parts: &[PlanId], set: impl Fn(&NodeFacts) -> &VarSet) -> VarSet {
        let sets = || parts.iter().map(|&p| set(self.facts(p)));
        let Some(big) = sets().max_by_key(|s| s.len()) else {
            return Arc::clone(&self.empty);
        };
        if sets().all(|s| s.iter().all(|v| big.binary_search(v).is_ok())) {
            return Arc::clone(big);
        }
        set_of(sets().flat_map(|s| s.iter().cloned()))
    }

    /// Syntactic positivity of a set variable in the subplan at `id`: every
    /// free occurrence sits under an even number of negations. Required for
    /// LFP (Definition 5.1). Memoized per `(node, polarity)` so shared
    /// subplans are checked once.
    pub fn positive_in(&self, id: PlanId, m: &str) -> bool {
        let mut memo: HashMap<(PlanId, bool), bool> = HashMap::new();
        self.polarity_check(id, m, true, &mut memo)
    }

    fn polarity_check(
        &self,
        id: PlanId,
        m: &str,
        positive: bool,
        memo: &mut HashMap<(PlanId, bool), bool>,
    ) -> bool {
        if let Some(&v) = memo.get(&(id, positive)) {
            return v;
        }
        let out = match self.node(id) {
            PlanNode::SetApp(name, _) if name == m => positive,
            PlanNode::And(parts) | PlanNode::Or(parts) => parts
                .clone()
                .iter()
                .all(|&p| self.polarity_check(p, m, positive, memo)),
            PlanNode::Not(p) => self.polarity_check(*p, m, !positive, memo),
            PlanNode::ExistsElem(_, p)
            | PlanNode::ForallElem(_, p)
            | PlanNode::ExistsRegion(_, p)
            | PlanNode::ForallRegion(_, p) => self.polarity_check(*p, m, positive, memo),
            PlanNode::Fix { set_var, body, .. } => {
                set_var == m || self.polarity_check(*body, m, positive, memo)
            }
            PlanNode::Rbit { body, .. } | PlanNode::Tc { body, .. } => {
                // Conservative: occurrences under these operators must not
                // depend on polarity (require absence).
                !self.facts(*body).free_sets.iter().any(|s| s == m)
            }
            _ => true,
        };
        memo.insert((id, positive), out);
        out
    }

    /// Number of references to each node from within the DAG reachable from
    /// `root` (the root itself counts one). A node with more than one
    /// reference is a shared subplan — the executor evaluates it once per
    /// choice of quantifier domains.
    pub fn reference_counts(&self, root: PlanId) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            counts[id as usize] = counts[id as usize].saturating_add(1);
            if counts[id as usize] > 1 {
                continue; // children already queued on first visit
            }
            for c in children(self.node(id)) {
                stack.push(c);
            }
        }
        counts
    }
}

/// Stable one-byte encoding of a comparison relation for hashing.
fn rel_tag(rel: lcdb_logic::Rel) -> u8 {
    use lcdb_logic::Rel;
    match rel {
        Rel::Lt => 0,
        Rel::Le => 1,
        Rel::Eq => 2,
        Rel::Ge => 3,
        Rel::Gt => 4,
    }
}

/// The sorted, duplicate-free set of `vars`.
fn set_of(vars: impl IntoIterator<Item = String>) -> VarSet {
    let mut vars: Vec<String> = vars.into_iter().collect();
    vars.sort_unstable();
    vars.dedup();
    vars.into()
}

/// `base` without `remove`, then with `add`: `base` itself when that
/// changes nothing.
fn rebind<'a>(
    base: &VarSet,
    remove: impl IntoIterator<Item = &'a String> + Clone,
    add: impl IntoIterator<Item = &'a String> + Clone,
) -> VarSet {
    let has = |v: &String| base.binary_search(v).is_ok();
    if !remove.clone().into_iter().any(has) && add.clone().into_iter().all(has) {
        return Arc::clone(base);
    }
    let kept = base.iter().filter(|&v| !remove.clone().into_iter().any(|r| r == v));
    set_of(kept.cloned().chain(add.into_iter().cloned()))
}

/// The direct children of a node, in deterministic order.
pub fn children(node: &PlanNode) -> Vec<PlanId> {
    match node {
        PlanNode::And(parts) | PlanNode::Or(parts) => parts.clone(),
        PlanNode::Not(p)
        | PlanNode::ExistsElem(_, p)
        | PlanNode::ForallElem(_, p)
        | PlanNode::ExistsRegion(_, p)
        | PlanNode::ForallRegion(_, p) => vec![*p],
        PlanNode::Fix { body, .. }
        | PlanNode::Rbit { body, .. }
        | PlanNode::Tc { body, .. } => vec![*body],
        _ => Vec::new(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use lcdb_arith::int;
    use lcdb_logic::Rel;

    fn atom(c: i64) -> Atom {
        Atom::new(LinExpr::var("x"), Rel::Lt, LinExpr::constant(int(c)))
    }

    #[test]
    fn interning_shares_structure() {
        let mut p = Plan::new();
        let a = p.lin(atom(1));
        let b = p.lin(atom(1));
        assert_eq!(a, b);
        let c = p.lin(atom(2));
        assert_ne!(a, c);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn constant_folding_in_smart_constructors() {
        let mut p = Plan::new();
        let t = p.truth();
        let f = p.falsity();
        let a = p.lin(atom(1));
        assert_eq!(p.and_node(vec![t, a]), a);
        assert_eq!(p.and_node(vec![f, a]), f);
        assert_eq!(p.or_node(vec![f, a]), a);
        assert_eq!(p.or_node(vec![t, a]), t);
        assert_eq!(p.and_node(vec![]), t);
        assert_eq!(p.or_node(vec![]), f);
        // Duplicates are dropped.
        assert_eq!(p.and_node(vec![a, a]), a);
        // Double negation collapses.
        let n = p.not_node(a);
        assert_eq!(p.not_node(n), a);
        // Constant atoms fold at the leaf.
        let always = Atom::new(LinExpr::zero(), Rel::Le, LinExpr::constant(int(1)));
        assert_eq!(p.lin(always), t);
    }

    #[test]
    fn nested_and_flattens() {
        let mut p = Plan::new();
        let a = p.lin(atom(1));
        let b = p.lin(atom(2));
        let ab = p.and_node(vec![a, b]);
        let c = p.lin(atom(3));
        let abc = p.and_node(vec![ab, c]);
        match p.node(abc) {
            PlanNode::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn canonical_hash_is_structural_and_stable() {
        // Two independently built arenas assign the same canonical hash to
        // the same structure, regardless of interning order.
        let mut p1 = Plan::new();
        let a1 = p1.lin(atom(1));
        let b1 = p1.lin(atom(2));
        let r1 = p1.and_node(vec![a1, b1]);

        let mut p2 = Plan::new();
        let x = p2.lin(atom(7)); // extra node shifts ids
        let _ = x;
        let a2 = p2.lin(atom(1));
        let b2 = p2.lin(atom(2));
        let r2 = p2.and_node(vec![a2, b2]);

        assert_eq!(p1.hash(r1), p2.hash(r2));
        assert_ne!(p1.hash(a1), p1.hash(b1));
        assert_ne!(p1.hash(r1), p1.hash(a1));
    }

    #[test]
    fn wide_connectives_dedup_in_first_occurrence_order() {
        let mut p = Plan::new();
        let atoms: Vec<PlanId> = (0..20_000).map(|c| p.lin(atom(c))).collect();
        let twice: Vec<PlanId> = atoms.iter().flat_map(|&a| [a, a]).collect();
        let and = p.and_node(twice.clone());
        assert!(matches!(p.node(and), PlanNode::And(parts) if *parts == atoms));
        let mut reversed = twice;
        reversed.reverse();
        let or = p.or_node(reversed);
        assert!(matches!(p.node(or), PlanNode::Or(parts) if parts.iter().rev().eq(&atoms)));
        // The connective's `{x}` is one of its atoms' sets, not a copy.
        let elems = &p.facts(and).free_elems;
        assert!(atoms.iter().any(|&a| Arc::ptr_eq(elems, &p.facts(a).free_elems)));
        assert_eq!(p.facts(or).size, 20_001);
    }

    #[test]
    fn facts_share_a_child_set() {
        let mut p = Plan::new();
        let adj = p.intern(PlanNode::Adj("R".into(), "S".into()));
        let bounded = p.intern(PlanNode::Bounded("S".into()));
        let both = p.and_node(vec![bounded, adj]);
        assert!(Arc::ptr_eq(&p.facts(both).free_regions, &p.facts(adj).free_regions));
        // Binding a variable that is not free changes nothing.
        let q = p.intern(PlanNode::ExistsRegion("T".into(), both));
        assert!(Arc::ptr_eq(&p.facts(q).free_regions, &p.facts(adj).free_regions));
        let q = p.intern(PlanNode::ExistsRegion("R".into(), both));
        assert_eq!(*p.facts(q).free_regions, ["S".to_string()]);
        // A union neither side holds is a merge.
        let other = p.intern(PlanNode::Adj("T".into(), "U".into()));
        let all = p.or_node(vec![adj, other]);
        assert_eq!(p.facts(all).free_regions.join(","), "R,S,T,U");
        assert!(Arc::ptr_eq(&p.facts(all).free_sets, &p.facts(adj).free_elems));
    }

    #[test]
    fn facts_track_free_variables() {
        let mut p = Plan::new();
        let sa = p.intern(PlanNode::SetApp("M".into(), vec!["X".into()]));
        let adj = p.intern(PlanNode::Adj("X".into(), "Y".into()));
        let body = p.or_node(vec![sa, adj]);
        let fix = p.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body,
            args: vec!["A".into()],
        });
        let f = p.facts(fix);
        assert!(f.set_free());
        assert_eq!(*f.free_regions, ["A".to_string(), "Y".to_string()]);
    }

    #[test]
    fn positivity_on_the_dag() {
        let mut p = Plan::new();
        let sa = p.intern(PlanNode::SetApp("M".into(), vec!["X".into()]));
        assert!(p.positive_in(sa, "M"));
        let n = p.not_node(sa);
        assert!(!p.positive_in(n, "M"));
        let nn = p.intern(PlanNode::Not(n));
        assert!(p.positive_in(nn, "M"));
        // Shadowing: an inner Fix rebinding M is positive in M.
        let shadow = p.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: n,
            args: vec!["A".into()],
        });
        assert!(p.positive_in(shadow, "M"));
    }

    #[test]
    fn fix_fingerprint_ignores_args() {
        let mut p = Plan::new();
        let sa = p.intern(PlanNode::SetApp("M".into(), vec!["X".into()]));
        let f1 = p.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: sa,
            args: vec!["A".into()],
        });
        let f2 = p.intern(PlanNode::Fix {
            mode: FixMode::Lfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: sa,
            args: vec!["B".into()],
        });
        assert_ne!(p.hash(f1), p.hash(f2));
        assert_eq!(p.fix_fingerprint(f1), p.fix_fingerprint(f2));
        let f3 = p.intern(PlanNode::Fix {
            mode: FixMode::Pfp,
            set_var: "M".into(),
            vars: vec!["X".into()],
            body: sa,
            args: vec!["A".into()],
        });
        assert_ne!(p.fix_fingerprint(f1), p.fix_fingerprint(f3));
    }

    #[test]
    fn reference_counts_detect_sharing() {
        let mut p = Plan::new();
        let a = p.lin(atom(1));
        let b = p.lin(atom(2));
        let left = p.and_node(vec![a, b]);
        let right = p.intern(PlanNode::ExistsElem("x".into(), a));
        let root = p.or_node(vec![left, right]);
        let counts = p.reference_counts(root);
        assert_eq!(counts[a as usize], 2, "a is shared");
        assert_eq!(counts[b as usize], 1);
    }
}
