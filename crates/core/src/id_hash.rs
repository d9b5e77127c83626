//! An unkeyed hasher for the ids a controller shard allocates itself.
//!
//! Op and sub-op ids (`first + k·stride`), per-op put sequence numbers
//! (`0, 1, 2, …`) and middlebox handles (registration order) are chosen
//! by the shard, never by a peer, so the tables keyed by them need no
//! keyed SipHash against collision flooding: one widening multiply is
//! enough. Keys a middlebox supplies — `HeaderFieldList`, `FlowKey`,
//! content hashes — keep `RandomState`; CI keeps them out of
//! [`IdMap`]/[`IdSet`] (DESIGN §9, "Controller tables hash ids, not
//! bytes").

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// ⌊2⁶⁴/φ⌋, made odd: a multiplier whose product spreads every input
/// bit over the high half.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiplies by `K` into a `u128` and XOR-folds the two halves.
///
/// A plain `x * K` is not enough. hashbrown picks the bucket from the
/// hash's low bits and the tag from its top 7, and the low bits of
/// `x * K` are those of `x` times an odd number: a two-shard controller
/// hands out only odd ids, so every hash would be odd and half the
/// buckets would never be used. The fold brings the product's high
/// half, which depends on every bit of `x`, down into the low bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * u128::from(K);
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }
}

/// A `HashMap` keyed by shard-allocated ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of shard-allocated ids.
pub(crate) type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    /// The ids a two-shard controller's second shard hands out (all
    /// even) and its first (all odd) must both reach every low-bit
    /// residue and every tag, or a table of them uses a fraction of
    /// its buckets.
    #[test]
    fn strided_ids_fill_every_bucket_residue_and_tag() {
        for first in [1u64, 2] {
            let ids = (0..4096u64).map(|k| first + 2 * k);
            let mut low = [0u32; 16];
            let mut tags = [false; 128];
            for h in ids.map(hash) {
                low[(h & 15) as usize] += 1;
                tags[(h >> 57) as usize] = true;
            }
            assert!(low.iter().all(|&n| (128..=384).contains(&n)), "low nibbles {low:?}");
            assert!(tags.iter().all(|&t| t), "first {first}: some tag never occurs");
        }
    }

    #[test]
    fn distinct_ids_hash_apart() {
        let hashes: HashSet<u64> = (0..1 << 16).map(hash).collect();
        assert_eq!(hashes.len(), 1 << 16, "the fold of an odd multiply collided");
    }
}
