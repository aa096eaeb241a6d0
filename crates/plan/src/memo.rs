//! Concurrent formula memo shared by every worker of a parallel fan-out.
//!
//! The formula interpreter memoizes the residual formula of a plan node in a
//! per-evaluator table keyed by [`MemoKey`] — the hash-consed [`PlanId`]
//! plus the bindings of the node's free region variables in name order. A
//! region quantifier with free element variables fans its regions out over
//! per-worker child evaluators; a [`PlanMemo`] is the concurrent second
//! level behind their private tables: workers consult it before
//! recomputing and publish what they compute, so each memoizable formula is
//! evaluated roughly once per fan-out instead of once per worker.
//!
//! ## Determinism
//!
//! Every value stored here is a pure function of its key given the frozen
//! evaluation inputs (plan, decomposition, tables). The table is a
//! [`OnceMap`]: the first worker to reach a cold key claims it and computes
//! while later arrivals block until the value is published. Purity means
//! the winner's value is indistinguishable from what any waiter would have
//! computed, so results stay identical at any thread count; a failing
//! winner releases its claim and a waiter retries (failing the same way if
//! the cause is a global budget). Claiming cannot deadlock: key
//! dependencies follow the plan's terminating recursion, so the wait-for
//! relation is acyclic.

use crate::PlanId;
use lcdb_exec::OnceMap;
use lcdb_logic::Formula;

/// Memo key: plan node id plus the bindings of its free region variables
/// (in name order). Only set-variable-free nodes are memoized this way —
/// set contents change between fixed-point stages, so they never key a
/// shared entry.
pub type MemoKey = (PlanId, Bindings);

/// Region bindings of a memo key in name order, stored inline when there
/// are at most four — keys are built on *every* memoized plan-node visit,
/// and almost every node binds only a handful of region variables, so the
/// inline form keeps the hot path allocation-free. Representation is
/// invisible to `Eq`/`Hash`: both compare the logical slice.
#[derive(Clone, Debug)]
pub enum Bindings {
    /// At most four bindings, in place; the `u8` is the live length.
    Inline(u8, [usize; 4]),
    /// Five or more bindings.
    Heap(Vec<usize>),
}

impl Bindings {
    /// The bindings as a slice, whatever the representation.
    pub fn as_slice(&self) -> &[usize] {
        match self {
            Bindings::Inline(len, vals) => &vals[..usize::from(*len)],
            Bindings::Heap(v) => v,
        }
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bindings {}

impl std::hash::Hash for Bindings {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<usize> for Bindings {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        let mut len = 0u8;
        let mut vals = [0usize; 4];
        for v in it.by_ref() {
            if usize::from(len) < vals.len() {
                vals[usize::from(len)] = v;
                len += 1;
            } else {
                let mut heap = vals.to_vec();
                heap.push(v);
                heap.extend(it);
                return Bindings::Heap(heap);
            }
        }
        Bindings::Inline(len, vals)
    }
}

/// The shared formula memo of one evaluation entry, mirroring the
/// evaluator's private one. Element-free nodes are not here: they are
/// evaluated into dense tables (`crate::table`) before a fan-out starts.
///
/// Cleared by replacement: an entry call that reuses an evaluator installs
/// a fresh `PlanMemo`, so results never leak between queries (plan ids are
/// only stable within one plan).
#[derive(Default)]
pub struct PlanMemo {
    /// Residual formulas of set-free composite nodes with free element
    /// variables.
    pub formulas: OnceMap<MemoKey, Formula>,
}

impl PlanMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries published so far (observability only).
    pub fn len(&self) -> usize {
        self.formulas.len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.formulas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish<K: Eq + std::hash::Hash + Clone, V: Clone>(
        m: &OnceMap<K, V>,
        key: K,
        value: V,
    ) -> V {
        m.get_or_try_compute::<(), _>(&key, || Ok(value))
            .expect("infallible compute")
    }

    #[test]
    fn starts_empty_and_counts_entries() {
        let m = PlanMemo::new();
        assert!(m.is_empty());
        publish(&m.formulas, (1, [].into_iter().collect()), Formula::True);
        publish(&m.formulas, (1, [2].into_iter().collect()), Formula::False);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn each_key_computed_once_across_threads() {
        let m = PlanMemo::new();
        let computed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for id in 0..100u32 {
                        let key = (id, [id as usize].into_iter().collect());
                        // Pure function of the key: the winner is
                        // indistinguishable from any waiter.
                        let value = if id % 2 == 0 { Formula::True } else { Formula::False };
                        let v = m
                            .formulas
                            .get_or_try_compute::<(), _>(&key, || {
                                computed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                Ok(value.clone())
                            })
                            .expect("infallible compute");
                        assert_eq!(v, value);
                    }
                });
            }
        });
        assert_eq!(m.formulas.len(), 100);
        assert_eq!(
            computed.load(std::sync::atomic::Ordering::Relaxed),
            100,
            "claiming must deduplicate the computes"
        );
    }
}
