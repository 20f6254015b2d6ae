//! A deterministic insert-only set for `u64` keys: candidate enumeration's
//! duplicate-subtree cut (`std::collections::HashSet`'s seeded hasher is
//! banned from result-affecting code by `mbr-lint` D1).

/// A deterministic open-addressing set for `u64` keys.
///
/// Fixed multiplicative hashing (no `RandomState`), linear probing,
/// power-of-two capacity grown at 7/8 load. Insertion-order independence
/// is *not* promised — only that the same program run inserts the same
/// keys in the same order and therefore probes identically, which is what
/// the determinism contract needs (and what `std::collections::HashSet`'s
/// seeded hasher cannot give).
#[derive(Clone, Debug, Default)]
pub(crate) struct U64Set {
    /// Slot keys; meaningful only where the occupancy bit is set.
    keys: Vec<u64>,
    /// One bit per slot.
    occupied: Vec<u64>,
    len: usize,
}

impl U64Set {
    /// An empty set.
    pub(crate) fn new() -> Self {
        U64Set::default()
    }

    fn slot_occupied(&self, slot: usize) -> bool {
        self.occupied[slot / 64] >> (slot % 64) & 1 == 1
    }

    fn set_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    fn hash(key: u64) -> u64 {
        // splitmix64 finalizer: deterministic, well-mixed, dependency-free.
        let mut h = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    fn grow_to(&mut self, new_cap: usize) {
        debug_assert!(new_cap.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_occ = std::mem::replace(&mut self.occupied, vec![0; new_cap.div_ceil(64)]);
        self.len = 0;
        for (slot, &key) in old_keys.iter().enumerate() {
            if old_occ[slot / 64] >> (slot % 64) & 1 == 1 {
                self.insert(key);
            }
        }
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub(crate) fn insert(&mut self, key: u64) -> bool {
        if self.keys.is_empty() || self.len * 8 >= self.keys.len() * 7 {
            let cap = (self.keys.len() * 2).max(16);
            self.grow_to(cap);
        }
        let mask = self.keys.len() - 1;
        let mut slot = (Self::hash(key) as usize) & mask;
        while self.slot_occupied(slot) {
            if self.keys[slot] == key {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.keys[slot] = key;
        self.set_occupied(slot);
        self.len += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64set_inserts_and_grows() {
        let mut set = U64Set::new();
        assert!(set.insert(0));
        assert!(!set.insert(0));
        assert!(set.insert(u64::MAX));
        let fresh = (0..1_000u64)
            .filter(|i| set.insert(i.wrapping_mul(0x1234_5678_9ABC_DEF1)))
            .count();
        assert_eq!(fresh, 999); // 0 collides with i=0's product
        assert!(!set.insert(u64::MAX));
    }

    #[test]
    fn u64set_matches_a_reference_set() {
        use std::collections::BTreeSet;
        let mut ours = U64Set::new();
        let mut reference = BTreeSet::new();
        let mut x = 7u64;
        for _ in 0..5_000 {
            // xorshift keys, with duplicates forced via a small modulus.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 2_048;
            assert_eq!(ours.insert(key), reference.insert(key));
        }
        for key in 0..2_048 {
            assert_eq!(ours.insert(key), reference.insert(key), "{key}");
        }
    }
}
