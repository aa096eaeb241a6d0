//! Shared-state primitives for cross-request reuse: a sharded-lock
//! concurrent map with first-writer-wins semantics and a hash-consing
//! interner.
//!
//! Both exist for one pattern: several server requests, each on its own
//! dispatch worker, computing the same pure function of the same key over a
//! decomposition they share. A [`ShardedMap`] lets them publish computed
//! entries and consult the shared table before recomputing.
//!
//! ## Determinism contract
//!
//! [`ShardedMap::insert_if_absent`] keeps the *first* value stored for a
//! key and returns the winner. This is deterministic-by-value, not by
//! schedule: callers must only store values that are pure functions of the
//! key. Two threads racing on a key then compute *equal* values, so
//! whichever insert wins, every observer reads the same bits. Nothing in
//! this module enforces purity.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of independently locked shards. A small power of two: enough to
/// keep eight threads from serializing on one mutex, small enough that
/// iterating shards (len, clear) stays cheap.
const SHARDS: usize = 16;

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned shard only means some thread panicked mid-insert; the map
    // holds complete entries only (no partial state), so recover.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A concurrent hash map sharded over independently locked segments.
///
/// Lookups and inserts lock only the shard owning the key's hash, so
/// threads touching distinct keys proceed without contention. Values are
/// returned by clone — callers store cheaply clonable values (`Arc`s,
/// small copies).
pub struct ShardedMap<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
    hasher: RandomState,
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let h = self.hasher.hash_one(key) as usize;
        &self.shards[h % SHARDS]
    }

    /// The value stored for `key`, if any (cloned out of the shard).
    pub fn get(&self, key: &K) -> Option<V> {
        lock_or_recover(self.shard(key)).get(key).cloned()
    }

    /// Store `value` for `key` unless an entry already exists; return the
    /// winning (first-stored) value. See the module docs for the
    /// determinism contract this implies.
    pub fn insert_if_absent(&self, key: K, value: V) -> V {
        let mut shard = lock_or_recover(self.shard(&key));
        shard.entry(key).or_insert(value).clone()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_or_recover(s).len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock_or_recover(s).is_empty())
    }
}

/// A hash-consing interner: equal values share one canonical `Arc`.
///
/// `intern` either returns the canonical `Arc` for an equal value already
/// seen or stores the given value as the new canonical representative.
/// Shared across threads, this deduplicates allocation-heavy values
/// (hyperplane payloads) that each caller would otherwise rebuild.
pub struct Interner<T> {
    shards: Vec<Mutex<HashSet<Arc<T>>>>,
    hasher: RandomState,
}

impl<T: Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq + Hash> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner {
            shards: (0..SHARDS).map(|_| Mutex::new(HashSet::new())).collect(),
            hasher: RandomState::new(),
        }
    }

    /// The canonical `Arc` for `value`, storing it if novel.
    pub fn intern(&self, value: T) -> Arc<T> {
        let h = self.hasher.hash_one(&value) as usize;
        let mut shard = lock_or_recover(&self.shards[h % SHARDS]);
        if let Some(existing) = shard.get(&value) {
            return Arc::clone(existing);
        }
        let canonical = Arc::new(value);
        shard.insert(Arc::clone(&canonical));
        canonical
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_or_recover(s).len()).sum()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock_or_recover(s).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_writer_wins_and_get_sees_it() {
        let m: ShardedMap<u32, String> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert_if_absent(7, "a".into()), "a");
        assert_eq!(m.insert_if_absent(7, "b".into()), "a");
        assert_eq!(m.get(&7), Some("a".into()));
        assert_eq!(m.get(&8), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_inserts_agree_on_one_winner() {
        let m: ShardedMap<u32, usize> = ShardedMap::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..8 {
                let m = &m;
                let computed = &computed;
                scope.spawn(move || {
                    for k in 0..200u32 {
                        if m.get(&k).is_none() {
                            computed.fetch_add(1, Ordering::Relaxed);
                        }
                        // Value is a pure function of the key; the stored
                        // winner must equal it no matter which worker won.
                        let v = m.insert_if_absent(k, (k as usize) * 3);
                        assert_eq!(v, (k as usize) * 3, "worker {w} saw a torn value");
                    }
                });
            }
        });
        assert_eq!(m.len(), 200);
        // At least one worker computed each key; races may duplicate work
        // but never lose it.
        assert!(computed.load(Ordering::Relaxed) >= 200);
    }

    #[test]
    fn interner_returns_shared_arcs() {
        let i: Interner<Vec<u8>> = Interner::new();
        let a = i.intern(vec![1, 2, 3]);
        let b = i.intern(vec![1, 2, 3]);
        assert!(Arc::ptr_eq(&a, &b));
        let c = i.intern(vec![4]);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interner_is_shared_across_threads() {
        let i: Interner<u64> = Interner::new();
        let arcs: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| i.intern(42)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interner thread"))
                .collect()
        });
        for pair in arcs.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(i.len(), 1);
    }
}
