//! Open-addressed state → slot index shared by the count engines.
//!
//! [`CountConfiguration`](crate::count_sim::CountConfiguration) and
//! [`BatchedCountSim`](crate::batch::BatchedCountSim) both need a
//! state → slot lookup on their hot paths (one to four probes per
//! interaction). A `BTreeMap` pays a pointer chase plus an `Ord` comparison
//! per tree level; this module replaces it with a flat open-addressed table:
//! FNV-1a seeded, power-of-two capacity, linear probing, and tombstone-free
//! — deletions repair the probe invariant by backward shifting, and growth
//! rebuilds the whole table (entries are 4-byte slot ids, so a rebuild is a
//! cache-friendly sweep).
//!
//! The index stores **only slot ids**. The caller owns the slot-indexed
//! state array and supplies equality/rehash closures over it, so the states
//! live exactly once (a struct-of-arrays layout: probing touches the dense
//! bucket array first and the caller's state array only on hash hits).
//! Crucially the index is *derivable* state — a pure function of the
//! caller's `(states, free)` arrays — so snapshots never serialize it and
//! GC renames rebuild it in rank order without touching slot assignment.
//!
//! # Observability
//!
//! Each index keeps three plain counters — lookups, total probe steps, and
//! growth/rebuild sweeps ([`SlotIndex::stats`]) — that the owning engine
//! flushes into a [`pp_telemetry::Metrics`] registry at its adaptive
//! checkpoints. They are `Cell`s bumped on paths the index already walks
//! — a lookup tallies its probes locally and adds them once on return —
//! so counting costs two adds per lookup and observes nothing the
//! trajectory depends on.

use std::cell::Cell;
use std::hash::{Hash, Hasher};

/// The count engines' hasher: slot lookups run a few times per interaction
/// on record states with many integer fields, where SipHash's per-write
/// overhead dominates the whole lookup. FNV-seeded and deterministic across
/// processes, which is also a feature — seeded trajectories must not vary
/// with a process-random hash key (nothing may depend on iteration order
/// anyway; state-ordered views sort explicitly).
///
/// Integer writes — the entirety of a derived `Hash` over a record of
/// scalar fields — fold **one word at a time** (rotate, xor, multiply; the
/// Fx/rustc-hash recipe), so hashing an 80-byte record costs ~10 serial
/// multiplies instead of the 80 a byte-at-a-time loop would. Raw byte
/// slices still stream through classic FNV-1a a byte at a time.
pub struct FnvHasher(u64);

/// Multiplier for the word-at-a-time fold (the rustc-hash constant: odd,
/// high entropy, empirically strong under a ≤½-load linear-probe table).
const WORD_PRIME: u64 = 0x517c_c1b7_2722_0a95;

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl FnvHasher {
    /// Folds one 64-bit word into the state: rotate (so field order
    /// matters beyond xor cancellation), xor, multiply.
    #[inline]
    fn mix_word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(WORD_PRIME);
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix_word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix_word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix_word(i as u64);
        self.mix_word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix_word(i as u64);
    }
}

/// FNV-1a hash of any `Hash` value, finished through a Fibonacci multiply so
/// the low bits (the ones a power-of-two mask keeps) mix the whole word.
#[inline]
pub fn fnv_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FnvHasher::default();
    value.hash(&mut h);
    // FNV's low bits are weak for short keys; fold the high bits down.
    h.finish().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const EMPTY: u32 = u32::MAX;

/// Open-addressed hash index mapping caller-hashed keys to `u32` slot ids.
///
/// The caller supplies the hash at insert/lookup time and an equality
/// closure resolving a candidate slot id against its own state storage, so
/// the index itself is generic over nothing and stores 4 bytes per bucket.
///
/// Invariants: capacity is a power of two, load factor ≤ 1/2 (rebuild on
/// growth), probing is linear, and [`SlotIndex::remove`] backward-shifts so
/// no tombstones exist — every lookup terminates at the first `EMPTY`
/// bucket.
#[derive(Clone, Debug)]
pub struct SlotIndex {
    buckets: Vec<u32>,
    mask: usize,
    len: usize,
    /// Telemetry: [`SlotIndex::get`] calls since construction.
    lookups: Cell<u64>,
    /// Telemetry: total buckets inspected by those lookups (≥ `lookups`;
    /// the ratio is the mean probe length).
    probes: Cell<u64>,
    /// Telemetry: growth doublings plus wholesale [`SlotIndex::rebuild`]s.
    rebuilds: Cell<u64>,
}

/// A point-in-time copy of one index's telemetry counters (see
/// [`SlotIndex::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotIndexStats {
    /// [`SlotIndex::get`] calls.
    pub lookups: u64,
    /// Total buckets inspected across those calls.
    pub probes: u64,
    /// Growth + rebuild sweeps.
    pub rebuilds: u64,
}

impl Default for SlotIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Bucket count that holds `n` entries at load ≤ 1/2 without growth.
    fn capacity_for(n: usize) -> usize {
        (n.max(4) * 2).next_power_of_two()
    }

    /// Creates an index sized for `n` entries without rebuilds.
    pub fn with_capacity(n: usize) -> Self {
        let cap = Self::capacity_for(n);
        Self {
            buckets: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
            lookups: Cell::new(0),
            probes: Cell::new(0),
            rebuilds: Cell::new(0),
        }
    }

    /// Telemetry counters accumulated since construction.
    pub fn stats(&self) -> SlotIndexStats {
        SlotIndexStats {
            lookups: self.lookups.get(),
            probes: self.probes.get(),
            rebuilds: self.rebuilds.get(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the slot whose key hashes to `hash` and satisfies `eq`.
    /// `eq(slot)` must compare the probe key against the caller's state for
    /// `slot`.
    #[inline]
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut i = (hash as usize) & self.mask;
        let mut probes = 1;
        let found = loop {
            let slot = self.buckets[i];
            if slot == EMPTY {
                break None;
            }
            if eq(slot) {
                break Some(slot);
            }
            i = (i + 1) & self.mask;
            probes += 1;
        };
        self.lookups.set(self.lookups.get() + 1);
        self.probes.set(self.probes.get() + probes);
        found
    }

    /// Inserts `slot` under `hash`. The caller must have checked the key is
    /// absent ([`SlotIndex::get`]); duplicate keys would shadow each other.
    /// `rehash(slot)` recomputes the hash of an existing slot's key — needed
    /// only when the insert triggers a growth rebuild.
    pub fn insert(&mut self, hash: u64, slot: u32, rehash: impl FnMut(u32) -> u64) {
        debug_assert_ne!(slot, EMPTY, "slot id {slot} is the empty sentinel");
        if (self.len + 1) * 2 > self.buckets.len() {
            self.grow(rehash);
        }
        let mut i = (hash as usize) & self.mask;
        while self.buckets[i] != EMPTY {
            i = (i + 1) & self.mask;
        }
        self.buckets[i] = slot;
        self.len += 1;
    }

    /// Removes the entry for `slot` stored under `hash`, repairing the probe
    /// chain by backward shifting (no tombstones). Returns whether the entry
    /// was present. `rehash(slot)` recomputes the hash of an existing slot's
    /// key, used to decide which entries may shift back.
    pub fn remove(&mut self, hash: u64, slot: u32, mut rehash: impl FnMut(u32) -> u64) -> bool {
        let mut i = (hash as usize) & self.mask;
        loop {
            let cur = self.buckets[i];
            if cur == EMPTY {
                return false;
            }
            if cur == slot {
                break;
            }
            i = (i + 1) & self.mask;
        }
        // Backward-shift deletion: walk the cluster after `i`; any entry
        // whose home bucket lies outside the cyclic gap (hole, current] can
        // fill the hole without breaking its own probe chain.
        let mut hole = i;
        let mut j = (i + 1) & self.mask;
        loop {
            let cur = self.buckets[j];
            if cur == EMPTY {
                break;
            }
            let home = (rehash(cur) as usize) & self.mask;
            // `home` must not sit in the cyclic range (hole, j] for the move
            // to preserve reachability of `cur` from `home`.
            let dist_home = j.wrapping_sub(home) & self.mask;
            let dist_hole = j.wrapping_sub(hole) & self.mask;
            if dist_home >= dist_hole {
                self.buckets[hole] = cur;
                hole = j;
            }
            j = (j + 1) & self.mask;
        }
        self.buckets[hole] = EMPTY;
        self.len -= 1;
        true
    }

    /// Discards all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.len = 0;
    }

    /// Discards all entries and sizes the index for `n` entries without
    /// growth. The allocation is kept unless it is too small or more than
    /// 4× larger than needed, so an index refilled with a similar number
    /// of entries each time allocates nothing. Telemetry is untouched.
    pub(crate) fn reset(&mut self, n: usize) {
        let cap = Self::capacity_for(n);
        if self.buckets.len() < cap || self.buckets.len() > 4 * cap {
            self.buckets = vec![EMPTY; cap];
            self.mask = cap - 1;
            self.len = 0;
        } else {
            self.clear();
        }
    }

    /// Exchanges entries and bucket storage with `other`. Each index keeps
    /// its own telemetry counters, so an index built on the side can be
    /// installed without its tallies (or the installed one's) jumping.
    pub(crate) fn swap_entries(&mut self, other: &mut SlotIndex) {
        std::mem::swap(&mut self.buckets, &mut other.buckets);
        std::mem::swap(&mut self.mask, &mut other.mask);
        std::mem::swap(&mut self.len, &mut other.len);
    }

    /// Rebuilds the index from scratch over `slots`, hashing each through
    /// `rehash` — the GC-rename / snapshot-restore path, where slot contents
    /// changed wholesale and incremental repair would be slower than a
    /// sweep.
    pub fn rebuild(
        &mut self,
        slots: impl Iterator<Item = u32>,
        mut rehash: impl FnMut(u32) -> u64,
    ) {
        self.rebuilds.set(self.rebuilds.get() + 1);
        self.clear();
        for slot in slots {
            debug_assert_ne!(slot, EMPTY, "slot id {slot} is the empty sentinel");
            if (self.len + 1) * 2 > self.buckets.len() {
                self.grow(&mut rehash);
            }
            let mut i = (rehash(slot) as usize) & self.mask;
            while self.buckets[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.buckets[i] = slot;
            self.len += 1;
        }
    }

    /// Doubles capacity and reinserts every entry (tombstone-free growth).
    fn grow(&mut self, mut rehash: impl FnMut(u32) -> u64) {
        self.rebuilds.set(self.rebuilds.get() + 1);
        let cap = (self.buckets.len() * 2).max(8);
        let old = std::mem::replace(&mut self.buckets, vec![EMPTY; cap]);
        self.mask = cap - 1;
        for slot in old {
            if slot == EMPTY {
                continue;
            }
            let mut i = (rehash(slot) as usize) & self.mask;
            while self.buckets[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.buckets[i] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference harness: a `Vec<u64>` of keys indexed by slot id, with the
    /// index probed through `fnv_hash` like the engines do.
    struct Harness {
        keys: Vec<u64>,
        index: SlotIndex,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                keys: Vec::new(),
                index: SlotIndex::new(),
            }
        }

        fn get(&self, key: u64) -> Option<u32> {
            self.index
                .get(fnv_hash(&key), |slot| self.keys[slot as usize] == key)
        }

        fn insert(&mut self, key: u64) -> u32 {
            assert!(self.get(key).is_none());
            let slot = u32::try_from(self.keys.len()).unwrap();
            self.keys.push(key);
            let keys = &self.keys;
            self.index
                .insert(fnv_hash(&key), slot, |s| fnv_hash(&keys[s as usize]));
            slot
        }

        fn remove(&mut self, key: u64) -> bool {
            match self.get(key) {
                Some(slot) => {
                    let keys = &self.keys;
                    self.index
                        .remove(fnv_hash(&key), slot, |s| fnv_hash(&keys[s as usize]))
                }
                None => false,
            }
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut h = Harness::new();
        for k in 0..100u64 {
            h.insert(k * 977);
        }
        for k in 0..100u64 {
            assert_eq!(h.get(k * 977), Some(k as u32));
        }
        assert_eq!(h.get(13), None);
        for k in (0..100u64).step_by(2) {
            assert!(h.remove(k * 977));
        }
        for k in 0..100u64 {
            let want = (k % 2 == 1).then_some(k as u32);
            assert_eq!(h.get(k * 977), want, "key {k} after removals");
        }
        assert_eq!(h.index.len(), 50);
    }

    #[test]
    fn backward_shift_preserves_colliding_chains() {
        // Force a tiny table so linear-probe clusters actually form, then
        // delete from the middle of clusters and verify every survivor is
        // still reachable.
        let mut h = Harness::new();
        for k in 0..32u64 {
            h.insert(k);
        }
        for k in [3u64, 17, 4, 30, 0, 11] {
            assert!(h.remove(k));
            assert!(!h.remove(k), "double remove of {k} reported success");
        }
        for k in 0..32u64 {
            let gone = [3u64, 17, 4, 30, 0, 11].contains(&k);
            assert_eq!(h.get(k).is_none(), gone, "key {k}");
        }
    }

    #[test]
    fn stats_count_lookups_probes_and_rebuilds() {
        let mut h = Harness::new();
        for k in 0..100u64 {
            h.insert(k * 977); // each insert runs one assert-absent get
        }
        let s = h.index.stats();
        assert_eq!(s.lookups, 100);
        assert!(s.probes >= s.lookups, "every lookup probes at least once");
        assert!(
            s.rebuilds >= 1,
            "100 inserts must outgrow the initial 8 buckets"
        );
        let before = h.index.stats();
        assert_eq!(h.get(977), Some(1));
        let after = h.index.stats();
        assert_eq!(after.lookups, before.lookups + 1);
        assert!(after.probes > before.probes);
    }

    #[test]
    fn reset_reuses_a_fitting_allocation() {
        let mut h = Harness::new();
        for k in 0..100u64 {
            h.insert(k);
        }
        let (ptr, cap) = (h.index.buckets.as_ptr(), h.index.buckets.len());
        let stats = h.index.stats();
        h.index.reset(100);
        assert_eq!(
            (h.index.buckets.as_ptr(), h.index.buckets.len()),
            (ptr, cap)
        );
        assert!(h.index.is_empty());
        assert_eq!(h.index.stats(), stats, "reset touched telemetry");
        h.keys.clear();
        assert_eq!(h.insert(7), 0, "a reset index refills from scratch");
        assert_eq!(h.get(7), Some(0));
        h.index.reset(10 * cap);
        assert!(h.index.buckets.len() >= 20 * cap, "reset did not grow");
        h.index.reset(1);
        assert_eq!(h.index.buckets.len(), 8, "reset kept a 4x-oversized table");
    }

    #[test]
    fn swap_entries_moves_entries_but_not_counters() {
        let mut a = Harness::new();
        let mut b = Harness::new();
        for k in 0..50u64 {
            a.insert(k);
        }
        b.insert(1_000);
        let (stats_a, stats_b) = (a.index.stats(), b.index.stats());
        a.index.swap_entries(&mut b.index);
        std::mem::swap(&mut a.keys, &mut b.keys);
        assert_eq!((a.index.stats(), b.index.stats()), (stats_a, stats_b));
        assert_eq!((a.index.len(), b.index.len()), (1, 50));
        assert_eq!(a.get(1_000), Some(0));
        assert_eq!(b.get(49), Some(49));
    }

    #[test]
    fn rebuild_matches_incremental() {
        let mut h = Harness::new();
        for k in 0..200u64 {
            h.insert(k.wrapping_mul(0x2545_F491_4F6C_DD1D));
        }
        let keys = h.keys.clone();
        let mut rebuilt = SlotIndex::new();
        rebuilt.rebuild(0..keys.len() as u32, |s| fnv_hash(&keys[s as usize]));
        for (slot, key) in keys.iter().enumerate() {
            assert_eq!(
                rebuilt.get(fnv_hash(key), |s| keys[s as usize] == *key),
                Some(slot as u32)
            );
        }
        assert_eq!(rebuilt.len(), h.index.len());
    }
}
