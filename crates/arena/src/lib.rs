//! Flat, deterministic storage for the hot path (DESIGN.md §14).
//!
//! The composition flow's hottest data — the timing graph, the pairs the
//! compatibility builder has checked and the subsets candidate enumeration
//! has visited — is indexed by small dense integer ids, so the natural
//! layout is flat storage rather than pointer- or map-based structures.
//! This crate provides the two shapes the flow uses:
//!
//! * [`CsrBuilder`] / [`Csr`] — compressed-sparse-row adjacency built in
//!   the classic count → prefix-sum → fill order (the STA arc arrays), and
//! * [`U64Set`] — a deterministic open-addressing set for `u64` keys
//!   (replaces `std::collections::HashSet` in result-affecting code,
//!   where `RandomState` iteration order is banned by `mbr-lint` D1).
//!
//! Everything here is deterministic by construction: no random hash
//! state, no address-dependent ordering, no interior mutability.

/// Compressed-sparse-row adjacency: `offsets[n]..offsets[n + 1]` indexes
/// the flat edge arrays of node `n`. Built by [`CsrBuilder`]; edge payload
/// lives in parallel `Vec`s owned by the caller, addressed by the slot
/// indices the fill phase hands out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
}

impl Csr {
    /// The half-open slot range of node `n`'s edges.
    pub fn range(&self, n: usize) -> std::ops::Range<usize> {
        self.offsets[n] as usize..self.offsets[n + 1] as usize
    }
}

/// Two-phase CSR construction: [`CsrBuilder::count`] every edge once,
/// then [`CsrBuilder::finish_counts`], then [`CsrBuilder::fill`] every
/// edge again **in the same order per source node** — fill hands out the
/// node's slots in call order, so a deterministic edge enumeration yields
/// a deterministic layout.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    offsets: Vec<u32>,
    cursor: Vec<u32>,
    counted: bool,
}

impl CsrBuilder {
    /// A builder for `nodes` nodes, in the counting phase.
    pub fn new(nodes: usize) -> Self {
        CsrBuilder {
            offsets: vec![0; nodes + 1],
            cursor: Vec::new(),
            counted: false,
        }
    }

    /// Phase 1: registers one edge leaving `src`.
    pub fn count(&mut self, src: usize) {
        debug_assert!(!self.counted, "count after finish_counts");
        self.offsets[src + 1] += 1;
    }

    /// Ends the counting phase: prefix-sums the counts into offsets and
    /// returns the total edge count (the length the payload `Vec`s need).
    pub fn finish_counts(&mut self) -> usize {
        debug_assert!(!self.counted, "finish_counts twice");
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursor = self.offsets[..self.offsets.len() - 1].to_vec();
        self.counted = true;
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// Phase 2: claims the next slot of `src`, returning its flat index.
    pub fn fill(&mut self, src: usize) -> usize {
        debug_assert!(self.counted, "fill before finish_counts");
        let slot = self.cursor[src];
        self.cursor[src] += 1;
        debug_assert!(slot < self.offsets[src + 1], "more fills than counts");
        slot as usize
    }

    /// Finalizes into the immutable [`Csr`].
    pub fn build(self) -> Csr {
        debug_assert!(self.counted, "build before finish_counts");
        debug_assert!(
            self.cursor
                .iter()
                .zip(&self.offsets[1..])
                .all(|(c, o)| c == o),
            "fewer fills than counts"
        );
        Csr {
            offsets: self.offsets,
        }
    }
}

/// A deterministic open-addressing set for `u64` keys.
///
/// Fixed multiplicative hashing (no `RandomState`), linear probing,
/// power-of-two capacity grown at 7/8 load. Insertion-order independence
/// is *not* promised — only that the same program run inserts the same
/// keys in the same order and therefore probes identically, which is what
/// the determinism contract needs (and what `std::collections::HashSet`'s
/// seeded hasher cannot give).
#[derive(Clone, Debug, Default)]
pub struct U64Set {
    /// Slot keys; meaningful only where the occupancy bit is set.
    keys: Vec<u64>,
    /// One bit per slot.
    occupied: Vec<u64>,
    len: usize,
}

impl U64Set {
    /// An empty set.
    pub fn new() -> Self {
        U64Set::default()
    }

    /// Removes every key, keeping the allocation.
    pub fn clear(&mut self) {
        self.occupied.fill(0);
        self.len = 0;
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
    pub fn insert(&mut self, key: u64) -> bool {
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

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        let mask = self.keys.len() - 1;
        let mut slot = (Self::hash(key) as usize) & mask;
        while self.slot_occupied(slot) {
            if self.keys[slot] == key {
                return true;
            }
            slot = (slot + 1) & mask;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_builds_in_count_fill_order() {
        // Edges: 0->{10,11}, 2->{12}; node 1 has none.
        let mut b = CsrBuilder::new(3);
        b.count(0);
        b.count(2);
        b.count(0);
        let total = b.finish_counts();
        assert_eq!(total, 3);
        let mut to = vec![0u32; total];
        let s = b.fill(0);
        to[s] = 10;
        let s = b.fill(0);
        to[s] = 11;
        let s = b.fill(2);
        to[s] = 12;
        let csr = b.build();
        assert_eq!(csr.range(0), 0..2);
        assert_eq!(csr.range(1), 2..2);
        assert_eq!(csr.range(2), 2..3);
        assert_eq!(to, vec![10, 11, 12]);
    }

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
        assert!(set.contains(u64::MAX));
        assert!(!set.contains(42));
        set.clear();
        assert!(!set.contains(0));
        assert!(!set.contains(u64::MAX));
        assert!(set.insert(u64::MAX));
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
            assert_eq!(ours.contains(key), reference.contains(&key), "{key}");
        }
    }
}
