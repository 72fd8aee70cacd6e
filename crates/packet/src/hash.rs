//! The seeded word hash behind every table a packet touches.
//!
//! Linux's BPF hash maps hash a key a word at a time under a per-map
//! random seed (`htab->hashrnd`) drawn when the map is created. The
//! per-packet tables here do the same. [`WordHasher`] folds each integer
//! a key writes into its state with one 64×64→128-bit multiply (the
//! high half XORed onto the low half), and [`SeededState`] gives every
//! table its own seed, drawn once from std's `RandomState`. A key that
//! writes five `u64`s costs five multiplies.
//!
//! The seed keeps a sender who cannot observe a table from precomputing
//! keys that collide in it — the stance BPF takes. The hash is **not** a
//! PRF: a sender who can time lookups against a live table may still
//! learn about its seed. Control-plane tables keyed by strings keep
//! std's SipHash `RandomState`.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` hashed by [`WordHasher`] under a per-table seed.
pub type WordMap<K, V> = HashMap<K, V, SeededState>;

/// A `HashSet` hashed by [`WordHasher`] under a per-table seed.
pub type WordSet<K> = HashSet<K, SeededState>;

/// An odd constant with well-spread bits (the PCG multiplier).
const MULTIPLE: u64 = 0x5851_f42d_4c95_7f2d;

#[inline(always)]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Folds one word per `write_*` call into a 64-bit state.
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    state: u64,
}

impl WordHasher {
    #[inline(always)]
    fn fold(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLE);
    }
}

impl Hasher for WordHasher {
    /// Byte strings fold eight bytes at a time; a short tail is padded
    /// and tagged with its length in the top byte.
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.fold(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            word[7] = tail.len() as u8;
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Builds [`WordHasher`]s from one table's seed.
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// A fresh random seed, drawn from std's `RandomState` (whose keys
    /// differ on every call), like `hashrnd` at map creation.
    pub fn new() -> Self {
        SeededState::with_seed(RandomState::new().build_hasher().finish())
    }

    /// A fixed seed, for reproducible hashes.
    pub const fn with_seed(seed: u64) -> Self {
        SeededState { seed }
    }
}

impl Default for SeededState {
    fn default() -> Self {
        SeededState::new()
    }
}

impl BuildHasher for SeededState {
    type Hasher = WordHasher;

    #[inline]
    fn build_hasher(&self) -> WordHasher {
        WordHasher { state: self.seed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tables_draw_different_seeds() {
        let (a, b) = (SeededState::new(), SeededState::new());
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.hash_one(7u64), b.hash_one(7u64));
        let (x, y): (WordMap<u32, u32>, WordMap<u32, u32>) = Default::default();
        assert_ne!(x.hasher().seed, y.hasher().seed);
    }

    #[test]
    fn a_fixed_seed_is_reproducible_and_seeds_matter() {
        let s = SeededState::with_seed(42);
        assert_eq!(s.hash_one((1u32, 2u16)), s.hash_one((1u32, 2u16)));
        assert_ne!(s.hash_one((1u32, 2u16)), s.hash_one((2u32, 1u16)));
        assert_ne!(s.hash_one(9u64), SeededState::with_seed(43).hash_one(9u64));
    }

    #[test]
    fn byte_tails_are_length_tagged() {
        let s = SeededState::with_seed(1);
        let hash = |bytes: &[u8]| {
            let mut h = s.build_hasher();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(&[1]), hash(&[1, 0]));
        assert_ne!(hash(&[0; 8]), hash(&[0; 9]));
        assert_ne!(hash(b"abcdefgh"), hash(b"abcdefgi"));
    }
}
