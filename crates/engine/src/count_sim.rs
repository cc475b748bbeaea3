//! [`CountSim`]: the configuration-vector simulator.
//!
//! For protocols whose reachable state space is small (epidemics, the slow
//! exact backup counter of §3.3, the abstract protocols of the Theorem 4.1
//! experiments), storing a count per state instead of a state per agent makes
//! each interaction O(#states) instead of O(1)-with-huge-constants, and more
//! importantly lets the density experiments scale to millions of agents with
//! O(#states) memory.
//!
//! The simulator maintains the exact same stochastic process as
//! [`crate::sim::AgentSim`]: an ordered pair of distinct agents is drawn
//! uniformly; since agents in the same state are interchangeable, drawing a
//! pair of *states* weighted by counts (without replacement) is an identical
//! distribution.
//!
//! ## Hot-path layout
//!
//! [`CountConfiguration`] stores counts in flat slot-indexed arrays (state
//! table, count vector, and a Fenwick tree mirroring the counts) with an
//! open-addressed [`SlotIndex`] — FNV-seeded,
//! power-of-two capacity, linear probing — for state→slot lookup. One
//! interaction costs a single RNG draw mapped to an ordered agent pair plus
//! two `O(log k)` Fenwick descents, and a mutation costs `O(log k)` point
//! updates plus `O(1)` expected index probes — so even protocols whose
//! every interaction changes both agents (the interned paper protocols,
//! whose states carry interaction counters) pay `O(log k)` per interaction
//! rather than the `O(k)` a rebuilt prefix-sum array would. Slot
//! *assignment* is first-seen order with free-list recycling, and the index
//! is derivable from the slot tables, so snapshots and GC renames rebuild
//! it rather than serialize it. State-ordered views
//! ([`CountConfiguration::iter`]) sort the occupied slots on demand — a
//! checkpoint-level cost, off the per-interaction path. For asymptotically
//! faster simulation at large `n`, see [`crate::batch`].

use std::collections::BTreeMap;
use std::hash::Hash;

use rand::Rng;

use crate::rng::{rng_from_seed, SimRng};
use crate::scheduler::parallel_time;
use crate::slot_index::{fnv_hash, SlotIndex};

/// The outcome law of one interaction for a fixed ordered pair of input
/// states, as exposed to the batched simulator.
///
/// A protocol that can describe `transition(rec, sen, ·)` as an explicit
/// finite distribution lets [`crate::batch::BatchedCountSim`] apply a whole
/// batch of identical input pairs with a single multinomial split over the
/// outcomes (the ppsim treatment of randomized transitions) instead of one
/// RNG round-trip per interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcomes<S> {
    /// The transition always produces `(rec', sen')`.
    Deterministic(S, S),
    /// Finite support: `(rec', sen', probability)` triples. Probabilities
    /// must be non-negative and sum to 1 (within floating-point tolerance);
    /// the batched engine validates and renormalizes.
    Random(Vec<(S, S, f64)>),
}

/// A protocol over a small copyable state type, expressed as a transition
/// function on (receiver, sender) state values.
pub trait CountProtocol {
    /// Agent state; must be orderable so configurations have a canonical
    /// form, and hashable so the engines' open-addressed slot indices can
    /// probe it.
    type State: Copy + Ord + Hash + std::fmt::Debug;

    /// Computes the post-interaction states `(rec', sen')`.
    fn transition(
        &self,
        rec: Self::State,
        sen: Self::State,
        rng: &mut SimRng,
    ) -> (Self::State, Self::State);

    /// The exact outcome distribution of `transition(rec, sen, ·)`, when it
    /// is finite and the protocol can enumerate it.
    ///
    /// Returning `Some` lets [`crate::batch::BatchedCountSim`] bulk-apply
    /// this pair (deterministically or via a multinomial split). Returning
    /// `None` — the default — marks the pair's outcome support as unbounded
    /// or unknown; the batched engine then falls back to sampling each such
    /// interaction individually through [`CountProtocol::transition`], which
    /// is still exact, just not amortized.
    fn outcomes(&self, rec: Self::State, sen: Self::State) -> Option<Outcomes<Self::State>> {
        let _ = (rec, sen);
        None
    }

    /// Whether [`CountProtocol::transition`] is a pure function of the two
    /// states (never reads the RNG). The
    /// [`crate::batch::DeterministicCountProtocol`] blanket impl reports
    /// `true` automatically.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// Whether [`crate::ConfigSim`]'s Auto mode should pick the batched
    /// engine at large populations. Batching pays off when the *occupied*
    /// state count stays far below `√n` (per-batch work grows with the
    /// square of the occupied support); protocols with large or unbounded
    /// reachable state spaces should stay sequential even when their
    /// outcomes are enumerable. Defaults to [`Self::is_deterministic`].
    fn prefers_batching(&self) -> bool {
        self.is_deterministic()
    }

    /// Number of slots allocated in the protocol's backing state table,
    /// when its `State` values are handles into one (the
    /// [`crate::interned::Interned`] adapter). `None` — the default —
    /// marks self-contained state types, which never need garbage
    /// collection.
    ///
    /// [`crate::ConfigSim`] polls this at its adaptive checkpoints:
    /// once the table holds several times more slots than the live support
    /// it triggers [`CountProtocol::collect_table`], keeping
    /// counter-churning protocols (whose dead interned states would
    /// otherwise accumulate without bound) at live-support size.
    fn table_len(&self) -> Option<usize> {
        None
    }

    /// Interner garbage collection: evicts every backing-table entry not
    /// in `live` and compacts the survivors into a dense prefix,
    /// returning the old → new renaming of the live states (relative
    /// order preserved, so id-ordered iteration sees the same state
    /// sequence before and after). The caller — an engine — applies the
    /// renaming to its configuration in the same pass. `None` (the
    /// default) means the protocol is not table-backed.
    fn collect_table(&self, live: &[Self::State]) -> Option<Vec<(Self::State, Self::State)>> {
        let _ = live;
        None
    }

    /// Bulk per-agent execution: run up to `budget` interactions directly
    /// against `config` and the engine RNG, returning the number executed,
    /// or `None` to decline (the default, and always correct).
    ///
    /// This is the **dense lane** hook for table-backed protocols whose
    /// occupied support approaches `n` (the paper's counter-churning record
    /// states): when nearly every agent holds a unique state, the
    /// configuration-vector machinery — weighted pair draws, state
    /// hash-interning, count bookkeeping — degenerates into pure overhead
    /// over the agent simulator it was supposed to beat. An implementation
    /// may expand the configuration into a per-agent array, execute
    /// interactions at agent granularity (mutating sole-owner backing
    /// records in place, with no hashing at all), and collapse back into a
    /// canonical configuration before returning.
    ///
    /// Contract: the decoded `(state, count)` multiset after the call must
    /// be exactly what per-agent execution of that many interactions
    /// produces; `config` must be left canonical (no duplicate states);
    /// all randomness must come from `rng`; and the executed count must be
    /// in `1..=budget` whenever `Some` is returned. Like the engines
    /// themselves, the lane realizes the uniform ordered-pair process —
    /// only the per-interaction constant may differ.
    fn advance_dense(
        &self,
        config: &mut CountConfiguration<Self::State>,
        rng: &mut SimRng,
        budget: u64,
    ) -> Option<u64> {
        let _ = (config, rng, budget);
        None
    }

    /// Observability: cumulative counters from the protocol's own machinery
    /// (the [`crate::interned::Interned`] adapter's pair cache and interner
    /// index). `None` — the default — for self-contained protocols.
    ///
    /// [`crate::ConfigSim`] polls this at its adaptive checkpoints
    /// and flushes the *deltas* into the attached
    /// [`pp_telemetry::Metrics`] registry, so reading it must be cheap and
    /// must observe nothing the trajectory depends on.
    fn telemetry_stats(&self) -> Option<AdapterStats> {
        None
    }
}

/// Cumulative adapter-level telemetry counters (see
/// [`CountProtocol::telemetry_stats`]). All fields are monotone totals
/// since adapter construction; consumers diff successive reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdapterStats {
    /// Pair-outcome cache probes that replayed a memoized outcome.
    pub cache_hits: u64,
    /// Pair-outcome cache probes that fell through to the full path.
    pub cache_misses: u64,
    /// Whole-cache drops on interner generation bumps.
    pub cache_gen_drops: u64,
    /// Interner state → id index lookups.
    pub index_lookups: u64,
    /// Total probe steps those lookups walked.
    pub index_probes: u64,
    /// Interner index growth/rebuild sweeps.
    pub index_rebuilds: u64,
}

/// A count-space protocol whose initial configuration is input-dependent —
/// the [`crate::protocol::SeededInit`] analogue for the configuration-vector
/// engines.
///
/// `SeededInit` says "the i-th agent of n starts in state f(i)"; since the
/// interaction process depends on the initial states only through their
/// multiset (agents are exchangeable), the count-space counterpart is simply
/// the multiset itself. Majority input splits, planted-leader starts
/// (Theorem 3.13), and seeded-value populations all express their inputs
/// here and run on [`crate::ConfigSim`] instead of being forced onto
/// the agent simulator. This is harness-level initialization (choosing the
/// protocol's *input*), not part of the transition algorithm, so it does not
/// violate uniformity.
pub trait CountSeededInit: CountProtocol {
    /// The initial configuration for a population of `n` agents.
    fn initial_config(&self, n: u64) -> CountConfiguration<Self::State>;
}

/// A configuration: a multiset of states with total count `n`.
///
/// ```
/// use pp_engine::count_sim::CountConfiguration;
///
/// let c = CountConfiguration::from_pairs([(0u8, 60), (1u8, 40)]);
/// assert_eq!(c.population_size(), 100);
/// assert_eq!(c.count(&0), 60);
/// assert!(c.is_dense(0.4));   // every present state holds ≥ 40% of agents
/// assert!(!c.is_dense(0.5));
/// ```
#[derive(Clone)]
pub struct CountConfiguration<S: Copy + Ord + Hash> {
    /// Slot-indexed state table (slots whose count returns to zero are
    /// recycled through `free`, so the table stays at peak-support size
    /// even for protocols whose states churn — e.g. interned record states
    /// carrying interaction counters).
    states: Vec<S>,
    /// Slot-indexed counts.
    counts: Vec<u64>,
    /// Open-addressed state → slot lookup (live states only; probes
    /// against `states`, stores nothing but slot ids).
    index: SlotIndex,
    /// Total number of agents.
    total: u64,
    /// Number of slots with positive count (the support size).
    occupied: usize,
    /// Fenwick (binary indexed) tree over `counts`, 1-indexed with
    /// `tree[0]` unused: node `i` holds the sum of counts over slots
    /// `(i - lowbit(i))..i`. Kept in sync incrementally on every mutation,
    /// so weighted draws and point updates are both `O(log k)`.
    tree: Vec<u64>,
    /// Zero-count slots evicted from `index`, ready for reuse (their
    /// Fenwick weight is already zero, so reuse costs nothing).
    free: Vec<usize>,
}

impl<S: Copy + Ord + Hash + std::fmt::Debug> CountConfiguration<S> {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self {
            states: Vec::new(),
            counts: Vec::new(),
            index: SlotIndex::new(),
            total: 0,
            occupied: 0,
            tree: vec![0],
            free: Vec::new(),
        }
    }

    /// Looks `state` up in the open-addressed index (`None` if not live).
    #[inline]
    fn slot_lookup(&self, state: &S) -> Option<usize> {
        self.index
            .get(fnv_hash(state), |slot| self.states[slot as usize] == *state)
            .map(|slot| slot as usize)
    }

    /// Observability: cumulative lookup/probe/rebuild tallies from the
    /// configuration's own state → slot index (distinct from the interner's
    /// index; this one tracks the engine-side slot table).
    pub(crate) fn index_stats(&self) -> crate::slot_index::SlotIndexStats {
        self.index.stats()
    }

    /// Inserts `slot` (holding `self.states[slot]`) into the index.
    #[inline]
    fn index_insert(&mut self, slot: usize) {
        let Self { index, states, .. } = self;
        index.insert(fnv_hash(&states[slot]), u32::try_from(slot).unwrap(), |s| {
            fnv_hash(&states[s as usize])
        });
    }

    /// Creates a configuration from `(state, count)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if a state appears twice.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (S, u64)>) -> Self {
        let mut c = Self::new();
        c.assign_pairs(pairs);
        c
    }

    /// Rebuilds the configuration in place from `(state, count)` pairs,
    /// reusing its allocations: pair `i` lands in slot `i` (the layout
    /// [`Self::from_pairs`] produces), the free list empties, and the
    /// Fenwick tree is rebuilt bottom-up in one linear pass. The index
    /// keeps its telemetry counters, so engine-side slot tallies stay
    /// monotone across the rebuild.
    ///
    /// # Panics
    ///
    /// Panics if a state appears twice.
    pub(crate) fn assign_pairs(&mut self, pairs: impl IntoIterator<Item = (S, u64)>) {
        let pairs = pairs.into_iter();
        self.states.clear();
        self.counts.clear();
        self.free.clear();
        self.index.reset(pairs.size_hint().0);
        self.total = 0;
        self.occupied = 0;
        for (s, k) in pairs {
            assert!(
                self.slot_lookup(&s).is_none(),
                "duplicate state {s:?} in configuration"
            );
            self.states.push(s);
            self.counts.push(k);
            self.index_insert(self.states.len() - 1);
            if k > 0 {
                self.occupied += 1;
                self.total += k;
            }
        }
        build_tree(&self.counts, &mut self.tree);
    }

    /// All `n` agents in a single state.
    pub fn uniform(state: S, n: u64) -> Self {
        Self::from_pairs([(state, n)])
    }

    /// Returns the slot for `state`, creating (or recycling) one if needed.
    fn register(&mut self, state: S) -> usize {
        if let Some(slot) = self.slot_lookup(&state) {
            return slot;
        }
        if let Some(slot) = self.free.pop() {
            debug_assert_eq!(self.counts[slot], 0);
            self.states[slot] = state;
            self.index_insert(slot);
            return slot;
        }
        let slot = self.states.len();
        self.states.push(state);
        self.counts.push(0);
        self.index_insert(slot);
        self.tree_append();
        slot
    }

    /// Evicts a slot whose count just returned to zero, making it available
    /// for reuse. Slots that held a zero count from construction stay
    /// indexed (so `from_pairs` can report duplicates), which is harmless:
    /// they are invisible to iteration and re-addable through the index.
    fn release_if_empty(&mut self, slot: usize) {
        if self.counts[slot] == 0 {
            let Self { index, states, .. } = self;
            index.remove(fnv_hash(&states[slot]), u32::try_from(slot).unwrap(), |s| {
                fnv_hash(&states[s as usize])
            });
            self.free.push(slot);
        }
    }

    /// Appends the Fenwick node for a freshly pushed (zero-count) slot.
    ///
    /// The new node `i` covers slots `(i - lowbit(i))..i`; its value is
    /// computable from the existing tree as a difference of prefix sums, so
    /// appends are `O(log k)` instead of a full rebuild.
    fn tree_append(&mut self) {
        let i = self.tree.len();
        let low = i & (i - 1); // i - lowbit(i)
        let val = self.tree_prefix(i - 1) - self.tree_prefix(low);
        self.tree.push(val);
    }

    /// Sum of counts over slots `0..slots` (Fenwick prefix query).
    #[inline]
    fn tree_prefix(&self, slots: usize) -> u64 {
        let mut i = slots;
        let mut acc = 0;
        while i > 0 {
            acc += self.tree[i];
            i &= i - 1;
        }
        acc
    }

    /// Adds `k` to slot `slot` in the Fenwick tree.
    #[inline]
    fn tree_add(&mut self, slot: usize, k: u64) {
        let mut i = slot + 1;
        while i < self.tree.len() {
            self.tree[i] += k;
            i += i & i.wrapping_neg();
        }
    }

    /// Subtracts `k` from slot `slot` in the Fenwick tree.
    #[inline]
    fn tree_sub(&mut self, slot: usize, k: u64) {
        let mut i = slot + 1;
        while i < self.tree.len() {
            self.tree[i] -= k;
            i += i & i.wrapping_neg();
        }
    }

    /// Checkpoint accessor: the raw slot tables `(states, counts, free)`.
    /// Everything else — index, totals, Fenwick tree — is a pure function
    /// of these three (see [`Self::from_snapshot_parts`]).
    pub(crate) fn snapshot_parts(&self) -> (&[S], &[u64], &[usize]) {
        (&self.states, &self.counts, &self.free)
    }

    /// Rebuilds a configuration from checkpoint parts, reconstructing the
    /// derived fields deterministically: the index holds every slot not on
    /// the free list, and the Fenwick tree is rebuilt bottom-up. The
    /// incremental maintenance (`tree_add`/`tree_sub`/`tree_append`) keeps
    /// every node at the exact sum of its slot range, so the rebuilt tree
    /// is bit-identical to the one the snapshotted instance carried — a
    /// restored configuration draws the same pairs from the same RNG
    /// stream.
    pub(crate) fn from_snapshot_parts(states: Vec<S>, counts: Vec<u64>, free: Vec<usize>) -> Self {
        assert_eq!(states.len(), counts.len(), "snapshot slot tables disagree");
        let freed: std::collections::BTreeSet<usize> = free.iter().copied().collect();
        let mut index = SlotIndex::with_capacity(states.len());
        for (slot, s) in states.iter().enumerate() {
            if !freed.contains(&slot) {
                let hash = fnv_hash(s);
                assert!(
                    index.get(hash, |c| states[c as usize] == *s).is_none(),
                    "snapshot has duplicate live state {s:?}"
                );
                index.insert(hash, u32::try_from(slot).unwrap(), |c| {
                    fnv_hash(&states[c as usize])
                });
            }
        }
        let total = counts.iter().sum();
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        let mut tree = Vec::new();
        build_tree(&counts, &mut tree);
        Self {
            states,
            counts,
            index,
            total,
            occupied,
            tree,
            free,
        }
    }

    /// Total number of agents.
    pub fn population_size(&self) -> u64 {
        self.total
    }

    /// Count of a particular state (0 if absent).
    pub fn count(&self, state: &S) -> u64 {
        self.slot_lookup(state).map_or(0, |slot| self.counts[slot])
    }

    /// Number of distinct states present.
    pub fn support_size(&self) -> usize {
        self.occupied
    }

    /// Iterates over `(state, count)` pairs with positive count, in state
    /// order.
    ///
    /// The open-addressed index has no intrinsic order, so this sorts the
    /// occupied slots by state on each call — `O(k log k)`, a
    /// checkpoint-level cost (predicates, snapshots, equality), never on
    /// the per-interaction path.
    pub fn iter(&self) -> impl Iterator<Item = (&S, &u64)> {
        let mut slots = Vec::new();
        self.sort_occupied(&mut slots);
        slots
            .into_iter()
            .map(move |slot| (&self.states[slot], &self.counts[slot]))
    }

    /// [`Self::iter`] over a caller-kept slot buffer, for callers that walk
    /// the configuration once per episode and must not allocate.
    pub(crate) fn iter_with<'a>(
        &'a self,
        slots: &'a mut Vec<usize>,
    ) -> impl Iterator<Item = (&'a S, &'a u64)> + 'a {
        self.sort_occupied(slots);
        slots
            .iter()
            .map(move |&slot| (&self.states[slot], &self.counts[slot]))
    }

    /// Writes the occupied `(state, count)` pairs into `out` in state
    /// order: the pairs [`Self::iter`] yields, in one pass over the slot
    /// tables, without a slot buffer.
    pub(crate) fn view_into(&self, out: &mut Vec<(S, u64)>) {
        occupied_in_state_order(&self.states, &self.counts, out);
    }

    /// Fills `slots` with the occupied slots in state order.
    fn sort_occupied(&self, slots: &mut Vec<usize>) {
        slots.clear();
        slots.extend((0..self.counts.len()).filter(|&slot| self.counts[slot] > 0));
        slots.sort_unstable_by(|&a, &b| self.states[a].cmp(&self.states[b]));
    }

    /// Iterates over every *registered* state — occupied states plus any
    /// zero-count states still holding a slot (possible only for states
    /// given count 0 at construction) — in state order. These are the GC
    /// roots: a registered state's id must survive collection even at
    /// count 0, or a recycled id could collide with its slot.
    pub(crate) fn registered(&self) -> impl Iterator<Item = &S> {
        let freed: std::collections::BTreeSet<usize> = self.free.iter().copied().collect();
        let mut slots: Vec<usize> = (0..self.states.len())
            .filter(|slot| !freed.contains(slot))
            .collect();
        slots.sort_unstable_by(|&a, &b| self.states[a].cmp(&self.states[b]));
        slots.into_iter().map(move |slot| &self.states[slot])
    }

    /// Number of registered states (see [`Self::registered`]).
    pub(crate) fn registered_len(&self) -> usize {
        self.index.len()
    }

    /// Renames every registered state in place through `map`, preserving
    /// the slot layout exactly: slot order, counts, the Fenwick tree, and
    /// the free list are untouched, so the agent-index → slot mapping —
    /// and with it the whole seeded trajectory — is identical before and
    /// after. This is the configuration half of an interner GC pass; `map`
    /// must cover every registered state injectively.
    ///
    /// # Panics
    ///
    /// Panics if a registered state has no entry in `map`.
    pub(crate) fn rename_states(&mut self, map: &BTreeMap<S, S>) {
        let freed: std::collections::BTreeSet<usize> = self.free.iter().copied().collect();
        for slot in 0..self.states.len() {
            if freed.contains(&slot) {
                continue;
            }
            let old = self.states[slot];
            let new = *map
                .get(&old)
                .unwrap_or_else(|| panic!("GC renaming is missing registered state {old:?}"));
            self.states[slot] = new;
        }
        // Slot contents changed wholesale; rebuild the index in slot order
        // (assignment untouched, so the trajectory is too).
        let Self {
            index,
            states,
            free,
            ..
        } = self;
        let freed: std::collections::BTreeSet<usize> = free.iter().copied().collect();
        index.rebuild(
            (0..states.len())
                .filter(|slot| !freed.contains(slot))
                .map(|slot| u32::try_from(slot).unwrap()),
            |s| fnv_hash(&states[s as usize]),
        );
    }

    /// Adds `k` agents in `state`.
    pub fn add(&mut self, state: S, k: u64) {
        if k == 0 {
            return;
        }
        let slot = self.register(state);
        if self.counts[slot] == 0 {
            self.occupied += 1;
        }
        self.counts[slot] += k;
        self.tree_add(slot, k);
        self.total += k;
    }

    /// Removes `k` agents in `state`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k` agents are in `state`.
    pub fn remove(&mut self, state: S, k: u64) {
        if k == 0 {
            return;
        }
        let slot = match self.slot_lookup(&state) {
            Some(slot) if self.counts[slot] > 0 => slot,
            _ => panic!("removing {k} of absent state {state:?}"),
        };
        let c = self.counts[slot];
        assert!(c >= k, "removing {k} of state {state:?} with count {c}");
        self.counts[slot] = c - k;
        self.tree_sub(slot, k);
        if c == k {
            self.occupied -= 1;
            self.release_if_empty(slot);
        }
        self.total -= k;
    }

    /// True if every present state has count at least `alpha * n`.
    ///
    /// This is the paper's α-density: a configuration is α-dense when each
    /// state present occupies at least an α fraction of the population.
    pub fn is_dense(&self, alpha: f64) -> bool {
        let threshold = alpha * self.total as f64;
        self.counts.iter().all(|&k| k == 0 || k as f64 >= threshold)
    }

    /// Maps a uniform agent index in `0..total` to its slot via a Fenwick
    /// descent (`O(log k)`).
    #[inline]
    fn slot_of_agent(&self, agent: u64) -> usize {
        debug_assert!(agent < self.total);
        let len = self.tree.len() - 1;
        let mut step = len.next_power_of_two();
        if step > len {
            step >>= 1;
        }
        let mut pos = 0usize;
        let mut rem = agent;
        while step > 0 {
            let next = pos + step;
            if next <= len && self.tree[next] <= rem {
                rem -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        // `pos` slots are fully to the left of `agent`, so the agent sits in
        // slot `pos` (its count is positive by construction).
        pos
    }

    /// Draws a uniform ordered pair of distinct agents and returns their
    /// slots `(receiver, sender)` with one RNG draw and two Fenwick descents.
    ///
    /// Interpreting `z ∈ [0, n(n-1))` as `(receiver_index, sender_offset)`
    /// gives every ordered pair of distinct agent indices probability
    /// exactly `1/(n(n-1))` — the same distribution [`crate::sim::AgentSim`]
    /// realizes with explicit agents.
    fn draw_pair_slots(&mut self, rng: &mut SimRng) -> (usize, usize) {
        let n = self.total;
        debug_assert!(n >= 2);
        debug_assert!(
            n <= u32::MAX as u64,
            "pair-index arithmetic requires n(n-1) to fit in u64"
        );
        let z = rng.gen_range(0..n * (n - 1));
        let receiver = z / (n - 1);
        let mut sender = z % (n - 1);
        if sender >= receiver {
            sender += 1;
        }
        (self.slot_of_agent(receiver), self.slot_of_agent(sender))
    }

    /// Applies one interaction's state change at the slot level, skipping
    /// all bookkeeping when the transition was a no-op.
    fn apply_transition(&mut self, rec_slot: usize, sen_slot: usize, rec2: S, sen2: S) {
        if self.states[rec_slot] == rec2 && self.states[sen_slot] == sen2 {
            return;
        }
        self.counts[rec_slot] -= 1;
        self.tree_sub(rec_slot, 1);
        if self.counts[rec_slot] == 0 {
            self.occupied -= 1;
        }
        self.counts[sen_slot] -= 1;
        self.tree_sub(sen_slot, 1);
        if self.counts[sen_slot] == 0 {
            self.occupied -= 1;
        }
        // Release only after both decrements: the two agents may share a
        // slot, and a slot must not be recycled while a decrement on it is
        // still pending.
        self.release_if_empty(rec_slot);
        if sen_slot != rec_slot {
            self.release_if_empty(sen_slot);
        }
        self.total -= 2;
        self.add(rec2, 1);
        self.add(sen2, 1);
    }
}

/// Replaces `out` with the slot tables' occupied `(state, count)` pairs,
/// sorted by state: the checkpoint view of both count engines. States are
/// unique per table, so the unstable sort is deterministic.
pub(crate) fn occupied_in_state_order<S: Copy + Ord>(
    states: &[S],
    counts: &[u64],
    out: &mut Vec<(S, u64)>,
) {
    out.clear();
    out.extend(
        states
            .iter()
            .zip(counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&s, &c)| (s, c)),
    );
    out.sort_unstable_by_key(|&(s, _)| s);
}

/// Rebuilds `tree` as the 1-indexed Fenwick tree over `counts`, bottom-up
/// in one pass. Every node is the exact sum of its slot range, so the
/// result is bit-identical to a tree maintained incrementally through
/// `tree_append` / `tree_add` / `tree_sub`.
fn build_tree(counts: &[u64], tree: &mut Vec<u64>) {
    let k = counts.len();
    tree.clear();
    tree.resize(k + 1, 0);
    for i in 1..=k {
        tree[i] += counts[i - 1];
        let j = i + (i & i.wrapping_neg());
        if j <= k {
            let node = tree[i];
            tree[j] += node;
        }
    }
}

impl<S: Copy + Ord + Hash + std::fmt::Debug> Default for CountConfiguration<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Copy + Ord + Hash + std::fmt::Debug> std::fmt::Debug for CountConfiguration<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<S: Copy + Ord + Hash + std::fmt::Debug> PartialEq for CountConfiguration<S> {
    /// Configurations are equal when they contain the same multiset of
    /// states, regardless of internal slot order or zero-count slots.
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total && self.occupied == other.occupied && self.iter().eq(other.iter())
    }
}

impl<S: Copy + Ord + Hash + std::fmt::Debug> Eq for CountConfiguration<S> {}

impl<S: Copy + Ord + Hash + std::fmt::Debug> FromIterator<(S, u64)> for CountConfiguration<S> {
    fn from_iter<I: IntoIterator<Item = (S, u64)>>(iter: I) -> Self {
        Self::from_pairs(iter)
    }
}

/// Simulator over a [`CountConfiguration`].
pub struct CountSim<P: CountProtocol> {
    protocol: P,
    config: CountConfiguration<P::State>,
    rng: SimRng,
    interactions: u64,
    n: u64,
}

impl<P: CountProtocol> CountSim<P> {
    /// Creates a simulator from an initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than 2 or more than
    /// `u32::MAX` agents (the single-draw ordered-pair sampling needs
    /// `n(n-1)` to fit in a `u64`).
    pub fn new(protocol: P, config: CountConfiguration<P::State>, seed: u64) -> Self {
        Self::from_parts(protocol, config, rng_from_seed(seed), 0)
    }

    /// Rebuilds a simulator mid-run from its constituent parts, carrying the
    /// RNG stream and interaction clock across an engine switch (see
    /// [`crate::ConfigSim`]'s adaptive re-selection) or a snapshot restore.
    /// Panics like [`CountSim::new`].
    pub(crate) fn from_parts(
        protocol: P,
        config: CountConfiguration<P::State>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        let n = config.population_size();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        assert!(
            n <= u32::MAX as u64,
            "pair-index arithmetic requires n(n-1) to fit in u64, got n = {n}"
        );
        Self {
            protocol,
            config,
            rng,
            interactions,
            n,
        }
    }

    /// Decomposes the simulator into `(protocol, configuration, rng,
    /// interactions)` so an engine switch can hand the run to
    /// [`crate::batch::BatchedCountSim`] without losing state.
    pub(crate) fn into_parts(self) -> (P, CountConfiguration<P::State>, SimRng, u64) {
        (self.protocol, self.config, self.rng, self.interactions)
    }

    /// The protocol being simulated.
    pub(crate) fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Checkpoint accessor: the RNG stream.
    pub(crate) fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Runs one interner-GC pass ([`CountProtocol::collect_table`]) rooted
    /// at the configuration's registered states, renaming the
    /// configuration in place (slot layout untouched — see
    /// [`CountConfiguration::rename_states`] for why the trajectory is
    /// unaffected). Returns whether the protocol performed a collection.
    /// Consumes no randomness.
    pub(crate) fn collect_table(&mut self) -> bool {
        let roots: Vec<P::State> = self.config.registered().copied().collect();
        match self.protocol.collect_table(&roots) {
            Some(renames) => {
                self.config.rename_states(&renames.into_iter().collect());
                true
            }
            None => false,
        }
    }

    /// Offers the protocol's dense per-agent lane
    /// ([`CountProtocol::advance_dense`]) up to `budget` interactions,
    /// crediting whatever it executes to the interaction clock. `None`
    /// when the protocol declines (not table-backed, support too
    /// concentrated, budget too small for the `O(n)` expand/collapse to
    /// amortize).
    pub(crate) fn advance_dense(&mut self, budget: u64) -> Option<u64> {
        let Self {
            protocol,
            config,
            rng,
            interactions,
            ..
        } = self;
        let executed = protocol.advance_dense(config, rng, budget)?;
        debug_assert!(executed >= 1 && executed <= budget);
        *interactions += executed;
        Some(executed)
    }

    /// Current configuration.
    pub fn config(&self) -> &CountConfiguration<P::State> {
        &self.config
    }

    /// Population size.
    pub fn population_size(&self) -> u64 {
        self.n
    }

    /// Parallel time elapsed.
    pub fn time(&self) -> f64 {
        parallel_time(self.interactions, self.n as usize)
    }

    /// Total interactions executed.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Executes one interaction.
    pub fn step(&mut self) {
        self.step_observed();
    }

    /// Executes one interaction and reports it as
    /// `(rec, sen, rec', sen')` — used by the Theorem 4.1 witness
    /// extraction, which needs the actual transitions of an execution.
    pub fn step_observed(&mut self) -> (P::State, P::State, P::State, P::State) {
        let (rec_slot, sen_slot) = self.config.draw_pair_slots(&mut self.rng);
        let rec = self.config.states[rec_slot];
        let sen = self.config.states[sen_slot];
        let (rec2, sen2) = self.protocol.transition(rec, sen, &mut self.rng);
        self.config.apply_transition(rec_slot, sen_slot, rec2, sen2);
        self.interactions += 1;
        (rec, sen, rec2, sen2)
    }

    /// Executes `k` interactions.
    pub fn steps(&mut self, k: u64) {
        for _ in 0..k {
            self.step();
        }
    }

    /// Runs for `t` units of parallel time.
    pub fn run_for_time(&mut self, t: f64) {
        let target = (t * self.n as f64).ceil() as u64;
        self.steps(target);
    }
}

impl<P: CountProtocol> std::fmt::Debug for CountSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountSim")
            .field("n", &self.n)
            .field("support", &self.config.support_size())
            .field("interactions", &self.interactions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{count_of, Simulation};
    use crate::EngineMode;

    /// One-way epidemic over {0 = susceptible, 1 = infected}.
    struct Epidemic;

    impl CountProtocol for Epidemic {
        type State = u8;

        fn transition(&self, rec: u8, sen: u8, _rng: &mut SimRng) -> (u8, u8) {
            (rec.max(sen & 1), sen)
        }
    }

    #[test]
    fn configuration_bookkeeping() {
        let mut c = CountConfiguration::from_pairs([(0u8, 5), (1u8, 3)]);
        assert_eq!(c.population_size(), 8);
        assert_eq!(c.count(&0), 5);
        assert_eq!(c.count(&2), 0);
        c.add(2, 4);
        c.remove(0, 5);
        assert_eq!(c.population_size(), 7);
        assert_eq!(c.count(&0), 0);
        assert_eq!(c.support_size(), 2);
    }

    #[test]
    fn zeroed_slots_behave_like_absent_states() {
        let mut c = CountConfiguration::from_pairs([(0u8, 5), (1u8, 3)]);
        c.remove(0, 5);
        // The zeroed slot is invisible to iteration, equality, and density.
        assert_eq!(c.iter().count(), 1);
        assert_eq!(c, CountConfiguration::from_pairs([(1u8, 3)]));
        assert!(c.is_dense(1.0));
        // Re-adding reuses the slot and restores visibility.
        c.add(0, 2);
        assert_eq!(c.count(&0), 2);
        assert_eq!(c.support_size(), 2);
    }

    #[test]
    #[should_panic(expected = "removing")]
    fn remove_too_many_panics() {
        let mut c = CountConfiguration::from_pairs([(0u8, 2)]);
        c.remove(0, 3);
    }

    #[test]
    #[should_panic(expected = "removing")]
    fn remove_from_zeroed_slot_panics() {
        let mut c = CountConfiguration::from_pairs([(0u8, 2), (1u8, 1)]);
        c.remove(0, 2);
        c.remove(0, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate state")]
    fn duplicate_states_rejected() {
        CountConfiguration::from_pairs([(0u8, 2), (0u8, 3)]);
    }

    #[test]
    fn assign_pairs_rebuilds_in_place_like_from_pairs() {
        let pairs = [(4u8, 3), (1, 0), (9, 5), (2, 1)];
        let fresh = CountConfiguration::from_pairs(pairs);
        let mut c = CountConfiguration::from_pairs([(0u8, 7), (5, 2)]);
        c.add(6, 1);
        c.remove(0, 7); // leaves a slot on the free list
        c.assign_pairs(pairs);
        assert_eq!(c.snapshot_parts(), fresh.snapshot_parts());
        assert_eq!(c.tree, fresh.tree);
        assert_eq!(
            (c.total, c.occupied, c.registered_len()),
            (fresh.total, fresh.occupied, fresh.registered_len())
        );
        for s in 0..10u8 {
            assert_eq!(c.count(&s), fresh.count(&s), "state {s}");
        }
    }

    #[test]
    fn linear_tree_build_matches_incremental_maintenance() {
        // `from_pairs` builds the Fenwick tree in one pass; `add` grows it
        // node by node. Same slot layout, so the trees must be identical.
        let pairs: Vec<(u16, u64)> = (0..37u16).map(|s| (s * 3, u64::from(s % 5))).collect();
        let mut incremental = CountConfiguration::new();
        for &(s, k) in &pairs {
            incremental.register(s);
            incremental.add(s, k);
        }
        let built = CountConfiguration::from_pairs(pairs);
        assert_eq!(built.tree, incremental.tree);
    }

    #[test]
    #[should_panic(expected = "duplicate state")]
    fn assign_pairs_rejects_duplicates() {
        let mut c = CountConfiguration::from_pairs([(0u8, 2)]);
        c.assign_pairs([(1u8, 2), (1u8, 3)]);
    }

    #[test]
    fn density_check() {
        let c = CountConfiguration::from_pairs([(0u8, 50), (1u8, 50)]);
        assert!(c.is_dense(0.5));
        assert!(c.is_dense(0.3));
        let d = CountConfiguration::from_pairs([(0u8, 99), (1u8, 1)]);
        assert!(!d.is_dense(0.1));
        assert!(d.is_dense(0.01));
    }

    #[test]
    fn fenwick_tree_tracks_counts_through_mutations() {
        // Exercise add/remove/register interleavings and check every prefix
        // sum against the naive recomputation.
        let mut c = CountConfiguration::from_pairs([(0u8, 3), (1u8, 7), (2u8, 1)]);
        c.add(5, 4);
        c.remove(1, 7);
        c.add(1, 2);
        c.add(9, 1);
        c.remove(0, 1);
        let naive: Vec<u64> = c
            .counts
            .iter()
            .scan(0u64, |acc, &k| {
                *acc += k;
                Some(*acc)
            })
            .collect();
        for (j, &want) in naive.iter().enumerate() {
            assert_eq!(c.tree_prefix(j + 1), want, "prefix over {} slots", j + 1);
        }
        // Every agent index maps to a slot whose cumulative range covers it.
        for agent in 0..c.population_size() {
            let slot = c.slot_of_agent(agent);
            let before = c.tree_prefix(slot);
            assert!(
                before <= agent && agent < before + c.counts[slot],
                "agent {agent} mapped to slot {slot}"
            );
        }
    }

    #[test]
    fn pair_draws_are_uniform_over_ordered_state_pairs() {
        // 3 states with counts 2/3/5: the ordered state-pair distribution
        // must match P[(a, b)] = c_a (c_b - [a = b]) / (n (n - 1)).
        let mut config = CountConfiguration::from_pairs([(0u8, 2), (1u8, 3), (2u8, 5)]);
        let mut rng = rng_from_seed(42);
        let n = 10f64;
        let trials = 300_000;
        let mut counts = [[0u64; 3]; 3];
        for _ in 0..trials {
            let (r, s) = config.draw_pair_slots(&mut rng);
            counts[r][s] += 1;
        }
        let c = [2f64, 3.0, 5.0];
        for a in 0..3 {
            for b in 0..3 {
                let same = if a == b { 1.0 } else { 0.0 };
                let p = c[a] * (c[b] - same) / (n * (n - 1.0));
                let observed = counts[a][b] as f64 / trials as f64;
                assert!(
                    (observed - p).abs() < 0.01,
                    "pair ({a},{b}): observed {observed}, expected {p}"
                );
            }
        }
    }

    #[test]
    fn epidemic_infects_all() {
        let (out, sim) = Simulation::count_builder(Epidemic)
            .config([(0u8, 999), (1u8, 1)])
            .seed(5)
            .mode(EngineMode::Sequential)
            .check_every(100)
            .max_time(100.0)
            .until(|view| count_of(view, &1) == 1000)
            .run();
        assert!(out.converged);
        assert_eq!(sim.population_size(), 1000);
    }

    #[test]
    fn population_size_is_conserved() {
        let config = CountConfiguration::from_pairs([(0u8, 500), (1u8, 500)]);
        let mut sim = CountSim::new(Epidemic, config, 6);
        for _ in 0..10 {
            sim.steps(100);
            assert_eq!(sim.config().population_size(), 1000);
        }
    }

    #[test]
    fn count_and_agent_sims_agree_statistically() {
        // Epidemic completion time distribution should match between the two
        // simulators (they realize the same process). Compare means loosely.
        let n = 500u64;
        let trials = 12;
        let mut count_mean = 0.0;
        for t in 0..trials {
            let (out, _) = Simulation::count_builder(Epidemic)
                .config([(0u8, n - 1), (1u8, 1)])
                .seed(1000 + t)
                .mode(EngineMode::Sequential)
                .check_every(50)
                .max_time(200.0)
                .until(move |view| count_of(view, &1) == n)
                .run();
            assert!(out.converged);
            count_mean += out.time;
        }
        count_mean /= trials as f64;
        let ln_n = (n as f64).ln();
        // E[T] ≈ 2 H_{n-1} ≈ 2 ln n for the one-way epidemic.
        assert!(
            count_mean > ln_n && count_mean < 4.0 * ln_n,
            "mean {count_mean}, ln n {ln_n}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (out, _) = Simulation::count_builder(Epidemic)
                .config([(0u8, 99), (1u8, 1)])
                .seed(seed)
                .mode(EngineMode::Sequential)
                .check_every(10)
                .max_time(100.0)
                .until(|view| count_of(view, &1) == 100)
                .run();
            out.interactions
        };
        assert_eq!(run(42), run(42));
    }

    /// Randomized protocol: receiver flips to sender's state with prob 1/2.
    struct LazyCopy;

    impl CountProtocol for LazyCopy {
        type State = u8;

        fn transition(&self, rec: u8, sen: u8, rng: &mut SimRng) -> (u8, u8) {
            if rng.gen::<bool>() {
                (sen, sen)
            } else {
                (rec, sen)
            }
        }
    }

    #[test]
    fn randomized_count_protocol_runs() {
        // Lazy copying is a consensus process; eventually one opinion wins.
        let (out, _) = Simulation::count_builder(LazyCopy)
            .config([(0u8, 50), (1u8, 50)])
            .seed(9)
            .mode(EngineMode::Sequential)
            .check_every(100)
            .max_time(10_000.0)
            .until(|view| count_of(view, &0) == 100 || count_of(view, &1) == 100)
            .run();
        assert!(out.converged);
    }
}
