//! The work ledger: one thread-local count per kind of work the layers do,
//! and the clock of the budget that governs them. Counts only grow, on the
//! thread that did the work, and an evaluation runs on the thread that
//! calls it: a [`snapshot`] before a call and [`Tally::since`] after it are
//! that call's work in every layer at once.
//!
//! A budgeted entry [`arm`]s its thread's ledger with an [`EvalBudget`];
//! then every [`charge`] is the budget's check: the cancel token on every
//! call, the iteration and tuple-test caps on their slots, and the clock
//! (with any pending injected fault) every [`PERIOD`] charged units and on
//! every capped charge, a whole stage's worth of work. [`add`] only counts,
//! for layers that cannot fail (arithmetic, the simplex). A tripped budget
//! stays tripped until its arming drops (an injected fault, which degraded
//! evaluation may absorb, is returned once). Code that cannot return a
//! charge's error runs under [`deferred`], and the verdict waits for the
//! next charge outside it.

use crate::{BudgetError, CancelToken, EvalBudget};
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ops::Index;
use std::time::Instant;

/// The slot list, written once: the enum, [`Work::ALL`] in declaration
/// order and [`Work::name`].
macro_rules! slots {
    ($($(#[doc = $doc:literal])* $slot:ident => $name:literal,)*) => {
        /// One kind of counted work; [`Work::name`] is its trace name.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Work {
            $($(#[doc = $doc])* $slot,)*
        }

        const COUNT: usize = [$(Work::$slot),*].len();

        impl Work {
            /// Every slot, in ledger order.
            pub const ALL: [Work; COUNT] = [$(Work::$slot),*];

            /// The trace name, prefixed by the layer that does the work:
            /// `arith.`, `lp.`, `logic.`, `geom.` or `eval.`.
            pub fn name(self) -> &'static str {
                match self {
                    $(Work::$slot => $name,)*
                }
            }
        }
    };
}

slots! {
    /// Rational results that did not fit `i64` words and were stored `Big`:
    /// operator results and inner products' final sums, not the partial
    /// sums an inner product keeps unnormalized.
    ArithPromotions => "arith.promotions",
    /// Gcds with an operand wider than a `u64`, which took `u128` steps: in
    /// operators and in an inner product's one final normalization.
    ArithWideGcds => "arith.wide_gcds",
    /// Simplex tableaux built and solved from scratch.
    LpSolves => "lp.solves",
    /// Probes answered from a feasibility batch's solved prefix.
    LpWarmProbes => "lp.warm_probes",
    /// Simplex pivots, over every solve and probe.
    LpPivots => "lp.pivots",
    /// DNF feasibility decisions: the constant-false runs (counted nowhere
    /// else) plus the four below.
    DnfDecisions => "logic.dnf_decisions",
    /// Decided by the partial's own witness satisfying the run.
    DnfWitnessHits => "logic.dnf_witness_hits",
    /// Refuted by the interval box, or by bound propagation through it.
    DnfBoxRefuted => "logic.dnf_box_refuted",
    /// Decided by a point of the propagated box satisfying every row.
    DnfPointHits => "logic.dnf_point_hits",
    /// Handed to the exact LP.
    DnfLpDecided => "logic.dnf_lp_decided",
    /// NC¹ V→H conversions: emitted regions, dependent fan tuples, rays.
    Nc1Hulls => "geom.nc1_hulls",
    /// NC¹ fan tuples decided on their hull (directions dependent).
    Nc1HullDecided => "geom.nc1_hull_decided",
    /// Arrangement cells crossed by their build level's hyperplane.
    CellsSplit => "geom.cells_split",
    /// Section arrangements built, at every depth of the recursion.
    SectionsBuilt => "geom.sections_built",
    /// Relation symbols a quantifier elimination read as stored rows.
    QePredRows => "logic.qe_pred_rows",
    /// Relation symbols a quantifier elimination expanded through
    /// `Relation::apply` (arguments not distinct variables, or a constant
    /// relation).
    QePredApplied => "logic.qe_pred_applied",
    /// Stored rows a quantifier elimination lowered from relation symbols,
    /// charged one disjunct at a time.
    RowsLowered => "logic.rows_lowered",
    /// Fourier–Motzkin passes over a block's cells, one per variable it
    /// eliminates.
    QeProjections => "logic.qe_projections",
    /// Fixed-point stages and datalog rounds; capped by the iteration limit.
    FixIterations => "eval.fix_iterations",
    /// Tuples tested across all fixed-point stages; capped, with the TC
    /// edge tests, by the tuple-test limit.
    FixTupleTests => "eval.fix_tuple_tests",
    /// Element variables eliminated by quantifier elimination.
    QeCalls => "eval.qe_calls",
    /// Regions the region quantifiers ranged over.
    RegionExpansions => "eval.region_expansions",
    /// Transitive-closure edge evaluations.
    TcEdgeTests => "eval.tc_edge_tests",
    /// Units fault-tolerant evaluation quarantined.
    Quarantined => "eval.quarantined",
    /// Plan nodes the executor asked for: a table, or a formula at one
    /// region binding.
    NodeVisits => "eval.node_visits",
    /// Steps of the table kernels: blocks of rows combined, closure
    /// rounds, adjacency rows, lazily filled leaves joined in.
    TableSteps => "eval.table_steps",
    /// Arrangement cells stepped: parents refined at every depth of the
    /// recursion, faces finalized, faces merged by a removal.
    CellSteps => "geom.cell_steps",
    /// NC¹ candidates examined: vertex subsets, outer and fan tuples, ray
    /// pairs and ray subsets.
    Nc1Candidates => "geom.nc1_candidates",
}

/// Charged units between two readings of the clock. A unit costs at least
/// a plan-node visit, a feasibility decision or a cell step, so a trip
/// through `Instant::now()` every 256 of them is noise, while the reaction
/// time to a deadline stays well under a millisecond of work.
pub const PERIOD: u64 = 256;

impl Work {
    /// Which of the budget's two work caps the slot counts against.
    fn cap(self) -> Option<usize> {
        match self {
            Work::FixIterations => Some(0),
            Work::FixTupleTests | Work::TcEdgeTests => Some(1),
            _ => None,
        }
    }
}

/// A budget armed on one thread, and what it has seen of the thread's work.
struct Arming {
    budget: EvalBudget,
    /// Fixed-point stages and tuple tests charged against the caps.
    used: [u64; 2],
    /// Charged units left until the clock is read again.
    until_check: u64,
    /// The verdict of a tripped budget, or an injected fault not yet
    /// returned.
    tripped: Option<BudgetError>,
    /// Open [`deferred`] scopes.
    deferred: u32,
}

impl Arming {
    fn trip(&mut self, verdict: BudgetError) {
        self.tripped.get_or_insert(verdict);
    }

    /// The verdict a fallible charge returns: a budget's for good, a fault
    /// once.
    fn verdict(&mut self) -> Option<BudgetError> {
        match &self.tripped {
            Some(BudgetError::InjectedFault { .. }) => self.tripped.take(),
            tripped => tripped.clone(),
        }
    }

    /// [`charge`] against this arming.
    fn charge(&mut self, work: Work, n: u64) -> Result<(), BudgetError> {
        let deferring = self.deferred > 0;
        if self.budget.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            self.trip(BudgetError::Cancelled);
        }
        if !deferring {
            if let Some(verdict) = self.verdict() {
                return Err(verdict);
            }
        }
        add(work, n);
        self.meter(work, n);
        match deferring {
            true => Ok(()),
            false => self.verdict().map_or(Ok(()), Err),
        }
    }

    /// Hold `n` charged units of `work` against the caps and the clock.
    fn meter(&mut self, work: Work, n: u64) {
        let mut check = n >= self.until_check;
        self.until_check = if check { PERIOD } else { self.until_check - n };
        if let Some(k) = work.cap() {
            self.used[k] = self.used[k].saturating_add(n);
            let limits = [self.budget.max_fix_iterations, self.budget.max_tuple_tests];
            match limits[k].filter(|&limit| self.used[k] > limit) {
                Some(limit) if k == 0 => self.trip(BudgetError::IterationLimit { limit }),
                Some(limit) => self.trip(BudgetError::TupleTestLimit { limit }),
                None => {}
            }
            check = true;
        }
        if !check {
            return;
        }
        // Deferred faults from layers that cannot fail (arith, lp) surface
        // here, like a cancellation would.
        #[cfg(feature = "faults")]
        if let Some(fault) = crate::faults::take_pending() {
            self.trip(fault);
        }
        if let Some((deadline, limit)) = self.budget.deadline {
            if Instant::now() > deadline {
                self.trip(BudgetError::DeadlineExceeded { limit });
            }
        }
    }
}

thread_local! {
    // Apart from the arming, the counts need no destructor, so counting
    // costs no check of the thread-local's state.
    static COUNTS: [Cell<u64>; COUNT] = const { [const { Cell::new(0) }; COUNT] };
    static ARMED: RefCell<Option<Arming>> = const { RefCell::new(None) };
}

/// Count `n` units of `work` on the calling thread, outside any budget.
#[inline]
pub fn add(work: Work, n: u64) {
    COUNTS.with(|counts| counts[work as usize].set(counts[work as usize].get() + n));
}

/// Count `n` units of `work` on the calling thread against its armed
/// budget, if any: `Err` with the budget's verdict once it is tripped.
/// A cancelled or already tripped budget refuses the work, which is not
/// counted; work that reaches a limit or the deadline is. Under
/// [`deferred`] every charge counts and returns `Ok`.
pub fn charge(work: Work, n: u64) -> Result<(), BudgetError> {
    ARMED.with(|armed| match armed.borrow_mut().as_mut() {
        Some(arming) => arming.charge(work, n),
        None => {
            add(work, n);
            Ok(())
        }
    })
}

/// Run `run`, whose only errors are its charges', with the verdict of every
/// charge left for the next charge outside: for callers that cannot return
/// a budget error. The answer is the full one.
pub fn deferred<T>(run: impl FnOnce() -> Result<T, BudgetError>) -> T {
    struct Scope(bool);
    impl Drop for Scope {
        fn drop(&mut self) {
            if self.0 {
                with_arming(|arming| arming.deferred -= 1);
            }
        }
    }
    let _scope = Scope(with_arming(|arming| arming.deferred += 1));
    run().unwrap_or_else(|e| unreachable!("a deferred charge returned {e}"))
}

/// Apply `f` to the calling thread's arming; `false` when it has none.
fn with_arming(f: impl FnOnce(&mut Arming)) -> bool {
    ARMED.with(|armed| armed.borrow_mut().as_mut().map(f).is_some())
}

/// Read the clock and take pending faults at the next charge: an injected
/// fault was just recorded.
#[cfg(feature = "faults")]
pub(crate) fn check_soon() {
    with_arming(|arming| arming.until_check = 0);
}

/// Arm the calling thread's ledger with `budget` until the guard drops,
/// which restores the arming it replaced exactly. `spent` is the work
/// already charged against the budget's caps — fixed-point stages, tuple
/// tests — by a run this one resumes.
pub fn arm(budget: &EvalBudget, spent: [u64; 2]) -> Armed {
    let budget = budget.clone();
    let arming = Arming { budget, used: spent, until_check: PERIOD, tripped: None, deferred: 0 };
    let outer = ARMED.with(|armed| armed.replace(Some(arming)));
    Armed { outer, _thread: PhantomData }
}

/// The guard of an [`arm`]ing; it belongs to the armed thread.
#[must_use = "the ledger is disarmed when the guard drops"]
pub struct Armed {
    outer: Option<Arming>,
    _thread: PhantomData<*const ()>,
}

impl Drop for Armed {
    fn drop(&mut self) {
        let outer = self.outer.take();
        ARMED.with(|armed| *armed.borrow_mut() = outer);
    }
}

/// The calling thread's counts so far.
pub fn snapshot() -> Tally {
    Tally(COUNTS.with(|counts| std::array::from_fn(|i| counts[i].get())))
}

/// One count per [`Work`] slot: a [`snapshot`], or the difference of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally([u64; COUNT]);

impl Default for Tally {
    fn default() -> Tally {
        Tally([0; COUNT])
    }
}

impl Tally {
    /// The work the calling thread has done since this snapshot of it.
    pub fn since(&self) -> Tally {
        let now = snapshot();
        Tally(std::array::from_fn(|i| now.0[i] - self.0[i]))
    }

    /// The total of the slots whose names start with `prefix` (`"lp."`);
    /// `""` totals every slot.
    pub fn sum(&self, prefix: &str) -> u64 {
        Work::ALL.iter().filter(|w| w.name().starts_with(prefix)).map(|&w| self[w]).sum()
    }
}

impl Index<Work> for Tally {
    type Output = u64;

    fn index(&self, work: Work) -> &u64 {
        &self.0[work as usize]
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::time::Duration;

    #[test]
    fn work_slots_are_listed_in_order() {
        for (i, w) in Work::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i, "{w:?}");
        }
    }

    #[test]
    fn work_names_are_unique_and_prefixed_by_their_layer() {
        let names: HashSet<_> = Work::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), COUNT);
        let layers = ["arith.", "lp.", "logic.", "geom.", "eval."];
        for name in names {
            assert_eq!(layers.iter().filter(|l| name.starts_with(*l)).count(), 1, "{name}");
        }
    }

    #[test]
    fn work_since_a_snapshot_is_the_difference() {
        let before = snapshot();
        add(Work::LpPivots, 3);
        add(Work::DnfDecisions, 1);
        add(Work::LpPivots, 2);
        let spent = before.since();
        let moved: Vec<_> = Work::ALL.into_iter().filter(|&w| spent[w] > 0).collect();
        assert_eq!(moved, [Work::LpPivots, Work::DnfDecisions]);
        assert_eq!((spent[Work::LpPivots], spent[Work::DnfDecisions]), (5, 1));
        assert_eq!((spent.sum("lp."), spent.sum("logic."), spent.sum("geom.")), (5, 1, 0));
    }

    #[test]
    fn work_charged_unarmed_only_counts() {
        let before = snapshot();
        for _ in 0..10 * PERIOD {
            charge(Work::NodeVisits, 1).unwrap();
        }
        assert_eq!(before.since()[Work::NodeVisits], 10 * PERIOD);
    }

    #[test]
    fn work_tuple_tests_and_closure_edges_share_one_cap() {
        let budget = EvalBudget::unlimited().with_max_tuple_tests(10);
        let _armed = arm(&budget, [0, 4]);
        let before = snapshot();
        charge(Work::FixTupleTests, 3).unwrap();
        charge(Work::TcEdgeTests, 3).unwrap();
        assert_eq!(charge(Work::TcEdgeTests, 1), Err(BudgetError::TupleTestLimit { limit: 10 }));
        assert_eq!(before.since()[Work::TcEdgeTests], 4, "the test over the cap counts");
    }

    /// Test A: an infallible caller under a cancelled budget finishes, and
    /// the verdict waits for the next charge.
    #[test]
    fn work_a_deferred_verdict_is_returned_by_the_next_charge() {
        let token = CancelToken::new();
        token.cancel();
        let _armed = arm(&EvalBudget::unlimited().with_cancel_token(token), [0, 0]);
        let before = snapshot();
        let done = deferred(|| {
            for _ in 0..3 {
                charge(Work::DnfDecisions, 1)?;
            }
            Ok("full answer")
        });
        assert_eq!(done, "full answer");
        assert_eq!(before.since()[Work::DnfDecisions], 3, "deferred work counts");
        assert_eq!(charge(Work::NodeVisits, 1), Err(BudgetError::Cancelled));
    }

    /// A tripped budget is sticky: a deadline found inside a deferred scope
    /// is every later charge's verdict.
    #[test]
    fn work_tripped_budgets_are_sticky() {
        let budget = EvalBudget::unlimited().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let _armed = arm(&budget, [0, 0]);
        deferred(|| charge(Work::FixIterations, 1));
        for _ in 0..3 {
            assert!(matches!(charge(Work::NodeVisits, 1), Err(BudgetError::DeadlineExceeded { .. })));
        }
    }

    /// Test B: an inner arming replaces the outer one and gives it back,
    /// deadline and token, when it drops.
    #[test]
    fn work_an_inner_arming_restores_the_outer_one() {
        let token = CancelToken::new();
        let outer = EvalBudget::unlimited()
            .with_timeout(Duration::ZERO)
            .with_cancel_token(token.clone());
        std::thread::sleep(Duration::from_millis(2));
        let _outer = arm(&outer, [0, 0]);
        {
            let _inner = arm(&EvalBudget::unlimited(), [0, 0]);
            token.cancel();
            charge(Work::FixIterations, 1).expect("the inner budget has neither");
        }
        assert_eq!(charge(Work::NodeVisits, 1), Err(BudgetError::Cancelled));
        let token = CancelToken::new();
        let _outer = arm(&outer.clone().with_cancel_token(token), [0, 0]);
        drop(arm(&EvalBudget::unlimited(), [0, 0]));
        assert!(matches!(charge(Work::FixIterations, 1), Err(BudgetError::DeadlineExceeded { .. })));
    }
}
