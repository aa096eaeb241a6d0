//! The work ledger: one thread-local count per kind of work the layers do.
//! Counts only grow, on the thread that did the work, and an evaluation
//! runs on the thread that calls it: a [`snapshot`] before a call and
//! [`Tally::since`] after it are that call's work in every layer at once.
//! The slot list is one enum below every counting crate, so no crate hands
//! out indices and one match holds the trace names.

use std::cell::Cell;
use std::ops::Index;

/// One kind of counted work; [`Work::name`] is its trace name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Work {
    /// Rational results that did not fit `i64` words and were stored `Big`.
    ArithPromotions,
    /// Gcds with an operand wider than a `u64`, which took `u128` steps.
    ArithWideGcds,
    /// Simplex tableaux built and solved from scratch.
    LpSolves,
    /// Probes answered from a feasibility batch's solved prefix.
    LpWarmProbes,
    /// Simplex pivots, over every solve and probe.
    LpPivots,
    /// DNF feasibility decisions: the constant-false runs (counted nowhere
    /// else) plus the four below.
    DnfDecisions,
    /// Decided by the partial's own witness satisfying the run.
    DnfWitnessHits,
    /// Refuted by the interval box, or by bound propagation through it.
    DnfBoxRefuted,
    /// Decided by a point of the propagated box satisfying every row.
    DnfPointHits,
    /// Handed to the exact LP.
    DnfLpDecided,
    /// NC¹ V→H conversions: emitted regions, dependent fan tuples, rays.
    Nc1Hulls,
    /// NC¹ fan tuples decided on their hull (directions dependent).
    Nc1HullDecided,
    /// Arrangement cells crossed by their build level's hyperplane.
    CellsSplit,
    /// Section arrangements built, at every depth of the recursion.
    SectionsBuilt,
    /// Relation symbols a quantifier elimination read as stored rows.
    QePredRows,
    /// Relation symbols a quantifier elimination expanded through
    /// `Relation::apply` (arguments not distinct variables, or a constant
    /// relation).
    QePredApplied,
}

const COUNT: usize = 16;

impl Work {
    /// Every slot, in ledger order.
    pub const ALL: [Work; COUNT] = [
        Work::ArithPromotions,
        Work::ArithWideGcds,
        Work::LpSolves,
        Work::LpWarmProbes,
        Work::LpPivots,
        Work::DnfDecisions,
        Work::DnfWitnessHits,
        Work::DnfBoxRefuted,
        Work::DnfPointHits,
        Work::DnfLpDecided,
        Work::Nc1Hulls,
        Work::Nc1HullDecided,
        Work::CellsSplit,
        Work::SectionsBuilt,
        Work::QePredRows,
        Work::QePredApplied,
    ];

    /// The trace name, prefixed by the layer that does the work: `arith.`,
    /// `lp.`, `logic.` or `geom.`.
    pub fn name(self) -> &'static str {
        match self {
            Work::ArithPromotions => "arith.promotions",
            Work::ArithWideGcds => "arith.wide_gcds",
            Work::LpSolves => "lp.solves",
            Work::LpWarmProbes => "lp.warm_probes",
            Work::LpPivots => "lp.pivots",
            Work::DnfDecisions => "logic.dnf_decisions",
            Work::DnfWitnessHits => "logic.dnf_witness_hits",
            Work::DnfBoxRefuted => "logic.dnf_box_refuted",
            Work::DnfPointHits => "logic.dnf_point_hits",
            Work::DnfLpDecided => "logic.dnf_lp_decided",
            Work::QePredRows => "logic.qe_pred_rows",
            Work::QePredApplied => "logic.qe_pred_applied",
            Work::Nc1Hulls => "geom.nc1_hulls",
            Work::Nc1HullDecided => "geom.nc1_hull_decided",
            Work::CellsSplit => "geom.cells_split",
            Work::SectionsBuilt => "geom.sections_built",
        }
    }
}

thread_local! {
    static LEDGER: [Cell<u64>; COUNT] = const { [const { Cell::new(0) }; COUNT] };
}

/// Count `n` units of `work` on the calling thread.
#[inline]
pub fn add(work: Work, n: u64) {
    LEDGER.with(|slots| slots[work as usize].set(slots[work as usize].get() + n));
}

/// The calling thread's counts so far.
pub fn snapshot() -> Tally {
    Tally(LEDGER.with(|slots| std::array::from_fn(|i| slots[i].get())))
}

/// One count per [`Work`] slot: a [`snapshot`], or the difference of two.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally([u64; COUNT]);

impl Tally {
    /// The work the calling thread has done since this snapshot of it.
    pub fn since(&self) -> Tally {
        let now = snapshot();
        Tally(std::array::from_fn(|i| now.0[i] - self.0[i]))
    }

    /// The total of the slots whose names start with `prefix` (`"lp."`).
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
mod tests {
    use super::*;
    use std::collections::HashSet;

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
        let layers = ["arith.", "lp.", "logic.", "geom."];
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
}
