//! A fast, non-cryptographic hasher for the storage and executor hot
//! paths (the multiply-rotate hash rustc itself uses for its interning
//! tables).
//!
//! The std `HashMap` default (SipHash) is keyed and DoS-resistant but
//! processes long keys slowly; dictionary interning hashes every
//! arriving string (hundreds of bytes each on trace workloads) and hash
//! joins hash millions of one-word keys, and neither table is exposed
//! to adversarial key choice — the keys come from the state the caller
//! already controls. Swapping the hasher is purely an optimization:
//! iteration order of the affected maps is never observable (the
//! dictionary is id-addressed, join outputs are re-sorted).

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` alias using [`FxHasher`].
pub type FxMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// An [`FxMap`] with preallocated capacity.
pub fn map_with_capacity<K, V>(capacity: usize) -> FxMap<K, V> {
    FxMap::with_capacity_and_hasher(capacity, Default::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox/rustc "Fx" hash: one rotate + xor + multiply per word.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
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
    fn equal_keys_hash_equal_and_tails_are_length_tagged() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"abcdefgh-run"), hash(b"abcdefgh-run"));
        // A shorter key padded with zeros must not collide with the
        // padding bytes spelled out (the tail mixes in its length).
        assert_ne!(hash(b"ab"), hash(b"ab\0\0\0\0\0\0"));
        assert_ne!(hash(b""), hash(b"\0"));
    }

    #[test]
    fn fxmap_behaves_like_a_map() {
        let mut m: FxMap<String, u32> = FxMap::default();
        for i in 0..1000u32 {
            m.insert(format!("trace#{i}#11&"), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get("trace#617#11&"), Some(&617));
    }
}
