//! Shared query-result cache keyed by `(plan hash, database fingerprint)`.
//!
//! The plan hash is the canonical, process-stable query fingerprint from
//! `lcdb-plan` (the same hash the checkpoint format validates on resume),
//! so two syntactically different spellings of one query — `¬¬φ` vs `φ`,
//! duplicated conjuncts — share a cache entry. The database fingerprint
//! covers every relation's name, variables and defining formula plus the
//! designated spatial relation, so sessions that defined identical
//! databases share entries while a session that redefines a relation never
//! sees a stale result.
//!
//! Eviction is FIFO over insertion order: the workloads this serves are
//! dominated by verbatim-repeated queries (dashboards, polling monitors),
//! where *any* bounded policy captures most of the win and FIFO's
//! single-deque bookkeeping keeps the critical section tiny. Capacity 0
//! disables the cache entirely (every lookup misses).
//!
//! **Segmentation.** A server cache may designate one *protected* database
//! fingerprint — the base database every session starts from. Entries for
//! the protected fingerprint live in their own FIFO segment with a reserved
//! share of the capacity, so a session churning through `Define`d private
//! databases (each insert carrying a fresh fingerprint) can never evict the
//! results other sessions computed against the base database. Without a
//! protected fingerprint the cache is one FIFO, as before.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Cache key: (salted plan hash, database fingerprint).
pub type CacheKey = (u64, u64);

/// A bounded, thread-safe map from [`CacheKey`] to a response body.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    /// Database fingerprint whose entries are segregated from churn.
    protected: Option<u64>,
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<CacheKey, String>,
    /// Insertion order of unprotected entries.
    order: VecDeque<CacheKey>,
    /// Insertion order of entries whose db fingerprint is protected.
    order_protected: VecDeque<CacheKey>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            protected: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Reserve a segment of the capacity for entries computed against the
    /// database with fingerprint `db_fp` (the server's base database). Each
    /// segment gets half the capacity, at least one entry.
    pub fn protecting(mut self, db_fp: u64) -> Self {
        self.protected = Some(db_fp);
        self
    }

    /// Capacity of the segment the key belongs to.
    fn segment_capacity(&self, protected: bool) -> usize {
        match self.protected {
            None => self.capacity,
            Some(_) => {
                if protected {
                    (self.capacity / 2).max(1)
                } else {
                    (self.capacity - self.capacity / 2).max(1)
                }
            }
        }
    }

    /// Look up a cached response body.
    pub fn get(&self, key: CacheKey) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.map.get(&key).cloned()
    }

    /// Insert a response body, evicting the oldest entry *of the same
    /// segment* at that segment's capacity — churn on throwaway database
    /// fingerprints only ever displaces other churn.
    pub fn put(&self, key: CacheKey, body: String) {
        if self.capacity == 0 {
            return;
        }
        let is_protected = self.protected == Some(key.1);
        let cap = self.segment_capacity(is_protected);
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match inner.map.entry(key) {
            Entry::Occupied(mut e) => {
                // Refresh the body (a re-evaluation after a miss elsewhere);
                // insertion order is unchanged.
                e.insert(body);
                return;
            }
            Entry::Vacant(e) => {
                e.insert(body);
            }
        }
        let order = if is_protected {
            &mut inner.order_protected
        } else {
            &mut inner.order
        };
        order.push_back(key);
        let mut evict = Vec::new();
        while order.len() > cap {
            if let Some(old) = order.pop_front() {
                evict.push(old);
            }
        }
        for old in evict {
            inner.map.remove(&old);
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_put_miss_before() {
        let c = ResultCache::new(4);
        assert_eq!(c.get((1, 2)), None);
        c.put((1, 2), "true".into());
        assert_eq!(c.get((1, 2)), Some("true".into()));
        assert_eq!(c.get((1, 3)), None, "different database fingerprint");
        assert_eq!(c.get((2, 2)), None, "different plan hash");
    }

    #[test]
    fn capacity_zero_disables() {
        let c = ResultCache::new(0);
        c.put((1, 1), "x".into());
        assert_eq!(c.get((1, 1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((2, 0), "b".into());
        c.put((3, 0), "c".into());
        assert_eq!(c.len(), 2);
        assert_eq!(c.get((1, 0)), None, "oldest evicted");
        assert_eq!(c.get((2, 0)), Some("b".into()));
        assert_eq!(c.get((3, 0)), Some("c".into()));
    }

    #[test]
    fn churn_cannot_evict_protected_entries() {
        const BASE: u64 = 0xba5e_0000;
        let c = ResultCache::new(8).protecting(BASE);
        c.put((1, BASE), "base-answer".into());
        // A Define-heavy session cycles through hundreds of throwaway
        // database fingerprints; none of those inserts may displace the
        // base-database entry.
        for i in 0..200u64 {
            c.put((i, 1000 + i), format!("churn-{i}"));
        }
        assert_eq!(c.get((1, BASE)), Some("base-answer".into()));
        // The unprotected segment stayed bounded.
        assert!(c.len() <= 8);
    }

    #[test]
    fn protected_segment_is_bounded_too() {
        const BASE: u64 = 7;
        let c = ResultCache::new(4).protecting(BASE);
        for i in 0..10u64 {
            c.put((i, BASE), format!("b{i}"));
        }
        // Half of capacity 4 → 2 protected entries, FIFO within the segment.
        assert_eq!(c.get((8, BASE)), Some("b8".into()));
        assert_eq!(c.get((9, BASE)), Some("b9".into()));
        assert_eq!(c.get((0, BASE)), None);
        assert!(c.len() <= 4);
    }

    #[test]
    fn reinsert_refreshes_body_without_duplicating() {
        let c = ResultCache::new(2);
        c.put((1, 0), "a".into());
        c.put((1, 0), "a2".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get((1, 0)), Some("a2".into()));
    }
}
