//! Process-stable hashes: checksums, fingerprints, seeded mixing.
//!
//! Unlike `std`'s `RandomState` these give the same value in every process,
//! which payload checksums, catalog keys, canonical plan hashes and seeded
//! fault plans all require.

/// Incremental FNV-1a 64-bit accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The accumulator at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix in raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix in one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    /// Mix in a little-endian u64.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Mix in a length-prefixed string, so `("ab","c")` and `("a","bc")`
    /// differ.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The hash of everything mixed in so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64-bit hash of `bytes`: the payload checksum of every durable
/// format and the hash behind [`fingerprint_str`].
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

/// Fingerprint a string (its UTF-8 bytes, no length prefix) with
/// [`fnv1a64`].
pub fn fingerprint_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

/// SplitMix64 step: derives well-mixed values from sequential or sparse
/// seeds. The fault-injection harness turns `(seed, site)` into a
/// deterministic trigger count with it; the load client jitters retries.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Known FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fingerprint_str("x"), fingerprint_str("y"));
    }

    #[test]
    fn accumulator_is_incremental_and_length_prefixes_strings() {
        let mut h = Fnv::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        let pair = |a: &str, b: &str| {
            let mut h = Fnv::new();
            h.str(a);
            h.str(b);
            h.finish()
        };
        assert_ne!(pair("ab", "c"), pair("a", "bc"));
    }

    #[test]
    fn splitmix_reference_values() {
        // First two outputs of the reference generator seeded with 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(
            splitmix64(0x9e37_79b9_7f4a_7c15),
            0x6e78_9e6a_a1b9_65f4
        );
    }
}
