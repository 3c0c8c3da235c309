//! A fast, deterministic, non-cryptographic hasher for hot lookup tables.
//!
//! The standard library's default `RandomState` (SipHash-1-3) is designed
//! to resist hash-flooding from untrusted input; the simulator's per-hop
//! tables (address → device, link endpoints → link id)
//! are keyed by trusted, internally generated values, so they can use a
//! multiply-rotate hash that is several times cheaper per lookup. The
//! algorithm is the classic "Fx" hash used by the Rust compiler's interner:
//! fold each input word into the state with `(state rotl 5) ^ word`, then
//! multiply by a large odd constant.
//!
//! Determinism note: unlike `RandomState`, this hasher has no per-process
//! seed, so *iteration order* of an `FxHashMap` is stable for a fixed key
//! set across runs. Code that iterates a map and feeds the order into
//! results should still sort (or use `BTreeMap`) — stable iteration order
//! is an implementation detail, not a contract.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx hash state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// `HashMap` keyed with [`FxHasher`].
#[allow(
    clippy::disallowed_types,
    reason = "the one sanctioned std hash map: a fixed hasher, no per-process seed"
)]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Golden-ratio multiplier (2^64 / φ), the same constant rustc uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fold 8 bytes at a time; the tail is zero-padded. Length is mixed
        // in so that prefixes hash differently from padded whole words.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add_to_hash(u64::from_le_bytes(w));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(w));
        }
        self.add_to_hash(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basics() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.get(&1), Some(&"a"));
        assert_eq!(m.get(&3), None);
    }

    #[test]
    fn deterministic_across_instances() {
        fn h(x: u64) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        }
        assert_eq!(h(123), h(123));
        assert_ne!(h(123), h(124));
    }

    #[test]
    fn byte_slices_distinguish_prefixes() {
        fn h(b: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(b);
            hasher.finish()
        }
        assert_ne!(h(b"abc"), h(b"abc\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
        assert_eq!(h(b"abcdefgh"), h(b"abcdefgh"));
    }

    #[test]
    fn spreads_sequential_keys() {
        // 10k sequential u32 keys into 64 buckets: no bucket should be
        // grossly overloaded (a degenerate hash would collapse them).
        let mut bins = [0u32; 64];
        for i in 0..10_000u32 {
            let mut hasher = FxHasher::default();
            hasher.write_u32(i);
            bins[(hasher.finish() % 64) as usize] += 1;
        }
        for (i, &b) in bins.iter().enumerate() {
            assert!((40..320).contains(&b), "bin {i} has {b}");
        }
    }
}
