//! Hash maps keyed on simulator ids.
//!
//! Flow tables sit on the per-packet path: a host finds the sending flow
//! for every data packet, a sink the receiving one. std's default SipHash
//! resists hash flooding, which ids the simulator assigns itself never
//! need; [`IdMap`] swaps it for one multiply-and-rotate per word (the
//! Fx hash of the Firefox and rustc codebases).
//!
//! Iteration order differs from std's, which is randomised per process
//! anyway, so nothing that depends on a simulation's results may read it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A [`HashMap`] with the [`IdHasher`]. Build one with
/// `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style hasher: `h = (h.rotl(5) ^ word) * K` per input word.
#[derive(Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn consecutive_ids_hash_apart() {
        let hashes: std::collections::HashSet<u64> = (0..10_000u64).map(hash).collect();
        assert_eq!(hashes.len(), 10_000);
        // hashbrown picks the bucket from the low bits and the control
        // byte from the top seven: both must vary across sequential ids.
        let low: std::collections::HashSet<u64> = (0..1024u64).map(|i| hash(i) & 1023).collect();
        assert!(low.len() > 600, "{} distinct low-bit patterns", low.len());
        let top: std::collections::HashSet<u64> = (0..1024u64).map(|i| hash(i) >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        assert_ne!(hash([1u8; 9]), hash([1u8; 8]));
        assert_ne!(hash("flow-a"), hash("flow-b"));
    }

    #[test]
    fn map_round_trip() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..1000 {
            m.insert(i << 20, i);
        }
        assert!((0..1000).all(|i| m.remove(&(i << 20)) == Some(i)));
        assert!(m.is_empty());
    }
}
