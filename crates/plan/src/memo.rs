//! Keys of the formula interpreter's memo.
//!
//! The interpreter memoizes the residual formula of a plan node in a
//! per-evaluator table keyed by [`MemoKey`] — the hash-consed [`PlanId`]
//! plus the bindings of the node's free region variables in name order.

use crate::PlanId;

/// Memo key: plan node id plus the bindings of its free region variables
/// (in name order). Only set-variable-free nodes are memoized this way —
/// set contents change between fixed-point stages, so they never key an
/// entry.
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
