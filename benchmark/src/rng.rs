//! The benchmark's own PRNG (splitmix64). Owning it means a later change to
//! `vendor/rand` or `crates/bench` cannot change the generated inputs.

/// A splitmix64 generator: tiny state, full 64-bit period, and the same
/// stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// generator never shifts the inputs of another.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "empty range");
        lo + self.below((hi - lo) as u64 + 1) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_stream() {
        // First outputs of splitmix64 seeded with 0 (Vigna's reference).
        let mut r = Rng::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn forks_differ_and_repeat() {
        let a: Vec<u64> = (0..4).map(|_| Rng::fork(1, "a").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::fork(1, "a").next_u64(), Rng::fork(1, "b").next_u64());
        assert_ne!(Rng::fork(1, "a").next_u64(), Rng::fork(2, "a").next_u64());
    }

    #[test]
    fn range_is_inclusive_and_shuffle_permutes() {
        let mut r = Rng::new(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[(r.range(-2, 2) + 2) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
