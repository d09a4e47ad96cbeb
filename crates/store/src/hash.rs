//! A fast, non-cryptographic hasher for the store's equality indexes.
//!
//! Every index insert and probe hashes one cell value (an EPC, a
//! timestamp, a reader name). In place of SipHash this uses the
//! add-multiply word hash of the Rust compiler's own tables: one multiply
//! per 8 bytes, then a fold-multiply-fold finish that carries every input
//! bit into the low bits a hash table indexes by.
//!
//! The trade-off: unlike SipHash, it does not resist keys crafted to
//! collide. Index keys come from tags and readers, so a deployment whose
//! tags an attacker can program with chosen EPCs could slow lookups on the
//! colliding keys to a scan of them; results stay correct.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// Word-at-a-time multiply-rotate hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
        // Length last, so "a" and "a\0" differ.
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A product's bit k depends only on the input's bits 0..=k; fold
        // the high half down, multiply, and fold again so every input bit reaches
        // the low bits too.
        let h = self.hash;
        let h = (h ^ (h >> 33)).wrapping_mul(SEED);
        h ^ (h >> 33)
    }
}

/// `HashMap` keyed through [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hashes: std::collections::HashSet<u64> =
            (0u128..10_000).map(|i| hash_of(&(i << 38))).collect();
        assert_eq!(hashes.len(), 10_000);
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn low_bits_vary_for_high_bit_keys() {
        // Keys that differ only in high bits must still spread over the
        // low bits a table masks its bucket index from.
        let buckets: std::collections::HashSet<u64> =
            (0u64..256).map(|i| hash_of(&(i << 56)) & 0xff).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }
}
