//! A small buffer pool over the paged file, with least-recently-used
//! replacement.
//!
//! The pool is a read cache: pages are verified (checksum, identity) before
//! insertion, and every write path invalidates the affected frames, so a
//! cached frame is always a verified copy of the durable page.

use std::collections::HashMap;

/// A bounded cache of verified page images, evicting the least recently
/// used page (by a logical access clock) when full.
pub struct BufferPool {
    capacity: usize,
    /// Each resident page's image and the clock tick of its last use.
    frames: HashMap<u32, (Vec<u8>, u64)>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages. Capacity 0 disables caching
    /// entirely.
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool {
            capacity,
            frames: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Fetch a cached page image, recording the access.
    pub fn get(&mut self, page: u32) -> Option<&Vec<u8>> {
        match self.frames.get_mut(&page) {
            Some((image, last)) => {
                self.hits += 1;
                self.tick += 1;
                *last = self.tick;
                Some(image)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a verified page image, evicting the least recently used page
    /// when full.
    pub fn insert(&mut self, page: u32, image: Vec<u8>) {
        if self.capacity == 0 {
            return;
        }
        if !self.frames.contains_key(&page) && self.frames.len() >= self.capacity {
            let victim = self.frames.iter().min_by_key(|(_, (_, t))| *t).map(|(&p, _)| p);
            if let Some(victim) = victim {
                self.frames.remove(&victim);
            }
        }
        self.tick += 1;
        self.frames.insert(page, (image, self.tick));
    }

    /// Drop a page (its durable image changed or failed verification).
    pub fn invalidate(&mut self, page: u32) {
        self.frames.remove(&page);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.frames.clear();
    }

    /// Resident page count.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }

    /// (hits, misses) since creation.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn lru_keeps_recently_used() {
        let mut pool = BufferPool::new(2);
        pool.insert(1, vec![1]);
        pool.insert(2, vec![2]);
        assert!(pool.get(1).is_some()); // page 1 is now most recent
        pool.insert(3, vec![3]);
        assert!(pool.get(2).is_none());
        assert!(pool.get(1).is_some());
        assert!(pool.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut pool = BufferPool::new(0);
        pool.insert(1, vec![1]);
        assert!(pool.get(1).is_none());
    }
}
