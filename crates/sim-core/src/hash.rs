//! A fast, deterministic hasher for the simulator's small integer keys.
//!
//! `std`'s default hasher is SipHash behind a per-process random seed:
//! robust against adversarial keys, but an order of magnitude slower than
//! needed for `(rank, rank, tag)` message keys, and randomly seeded — an
//! unnecessary source of run-to-run variation in a simulator that promises
//! bit-identical replays. This is the multiply-rotate scheme used by the
//! Firefox and rustc codebases (commonly known as FxHash): not
//! collision-resistant, entirely sufficient for trusted small keys, and
//! the same in every process.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words. Deterministic: no random
/// state, so identical keys hash identically in every run and process.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const ROTATE: u32 = 5;
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // simlint: allow(panic-path): chunks_exact(8) guarantees 8-byte slices
            self.add(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; stateless, so map construction is free.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
// simlint: allow(nondet-collections): this IS the sanctioned deterministic alias the rule points everyone at
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
// simlint: allow(nondet-collections): this IS the sanctioned deterministic alias the rule points everyone at
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hasher_instances() {
        let hash = |v: u64| {
            let mut h = FxHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let hash = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"hello world"), hash(b"hello world"));
        assert_ne!(hash(b"hello world"), hash(b"hello worle"));
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(usize, usize, u32), u64> = FxHashMap::default();
        m.insert((1, 2, 3), 99);
        assert_eq!(m.get(&(1, 2, 3)), Some(&99));
        let mut s: FxHashSet<usize> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
