//! State interning: run any agent-level [`Protocol`] on the
//! configuration-vector engines.
//!
//! The count engines ([`CountSim`](crate::count_sim::CountSim),
//! [`crate::batch::BatchedCountSim`], and the
//! [`ConfigSim`](crate::batch::ConfigSim) facade) require a `Copy + Ord`
//! state type because they index configurations by state value. The paper's
//! protocols instead use rich record states (`MainState` and friends) behind
//! the agent-level [`Protocol`] trait. [`Interned`] closes the gap without
//! touching either side: it lazily discovers the *occupied* state space at
//! run time, assigns each distinct state a dense `u32` slot, and exposes the
//! wrapped protocol as a [`CountProtocol`] over those slots. Any existing
//! `Protocol` implementation therefore runs on `CountSim`/`ConfigSim`
//! unchanged — the engine choice becomes an implementation detail instead of
//! a per-protocol decision.
//!
//! Why this is often a big win: a population of `n = 10⁶` agents running
//! `Log-Size-Estimation` occupies far fewer than `n` distinct states
//! (Lemma 3.9 bounds the reachable space by `O(log⁴ n)`), so the
//! configuration vector is tiny compared to the per-agent state array, and
//! convergence predicates cost `O(k)` instead of `O(n)` per check.
//!
//! ## Decoding
//!
//! The id ↔ state mapping lives behind an [`InternerHandle`] (shared `Rc`),
//! so a caller can keep a handle while the simulator owns the protocol and
//! translate ids back into protocol states. The
//! [`Simulation::builder`](crate::Simulation::builder) count modes do
//! exactly that, so their views, predicates and observers see protocol
//! states:
//!
//! ```
//! use pp_engine::interned::Interned;
//! use pp_engine::protocol::Protocol;
//! use pp_engine::rng::SimRng;
//! use pp_engine::simulation::{count_of, Simulation};
//! use pp_engine::EngineMode;
//!
//! struct Epidemic;
//! impl Protocol for Epidemic {
//!     type State = bool;
//!     fn initial_state(&self) -> bool {
//!         false
//!     }
//!     fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
//!         *rec |= *sen;
//!     }
//! }
//!
//! let interned = Interned::new(Epidemic);
//! let handle = interned.handle();
//! let config = interned.config_from_pairs([(false, 999), (true, 1)]);
//! // Look states up through the handle per query — raw ids are
//! // invalidated whenever a GC pass compacts the table (see below).
//! assert_eq!(handle.count_of(&config, &true), 1);
//!
//! let (out, _) = Simulation::builder(Epidemic)
//!     .size(1000)
//!     .seed(7)
//!     .mode(EngineMode::Auto)
//!     .init_planted([(true, 1)])
//!     .check_every(100)
//!     .until(|view| count_of(view, &true) == 1000)
//!     .run();
//! assert!(out.converged);
//! ```
//!
//! ## Non-uniform starts
//!
//! [`Interned`] implements [`CountSeededInit`] whenever the wrapped protocol
//! implements [`SeededInit`], by collapsing the per-index assignment into
//! its multiset (agents are exchangeable, so the interaction process depends
//! on initial states only through their counts). Majority input splits and
//! planted-leader starts thus no longer force the agent simulator.
//!
//! ## Randomness and batching
//!
//! The wrapped `interact` receives the simulation RNG, so randomized
//! protocols are simulated faithfully. Because an arbitrary `interact`
//! cannot enumerate its outcome distribution, `Interned` reports
//! [`CountProtocol::outcomes`] `None`, so Auto mode keeps it on the
//! sequential engine; a run pinned to the batched engine samples every
//! pair per interaction, which is exact but not amortized. Whether a pair
//! read any random bits is checked pair by pair: only outcomes that left
//! the RNG untouched enter the pair cache.
//!
//! ## Garbage collection
//!
//! Protocols whose states embed per-interaction counters (the paper's
//! `Log-Size-Estimation` and `Leader-Terminating` record states) mint a
//! fresh state on nearly every interaction, so the table accumulates
//! *dead* entries — states no agent holds any more — without bound on
//! long runs. `Interned` therefore implements the engine GC hooks
//! ([`CountProtocol::table_len`] / [`CountProtocol::collect_table`]):
//! when [`crate::batch::ConfigSim`] observes the table holding several
//! times more slots than the live support at one of its adaptive
//! checkpoints, it asks the adapter to evict every state absent from the
//! configuration and compact the survivors into a dense id prefix,
//! renaming the configuration (and, on the batched engine, resetting the
//! law table) in the same pass. The table is thereby bounded by a small
//! multiple of the *live* support instead of the number of states ever
//! reached — which is what lets the count engines serve counter-churning
//! protocols by default.
//!
//! Collection is invisible to the simulation: eviction preserves the
//! decoded `(state, count)` multiset, renaming preserves the engine's
//! slot layout and relative id order, and no randomness is consumed, so a
//! run with GC is **trajectory-identical** to the same seed without it.
//! The one observable consequence: raw ids obtained from
//! [`InternerHandle::id_of`] are invalidated by a pass (detectable via
//! [`InternerHandle::generation`]). Hold *states* across checkpoints and
//! look ids up per query ([`InternerHandle::count_of`] does exactly
//! that); don't cache raw ids.
//!
//! ## The hot path: slot index, pair cache, dense lane
//!
//! Three layers keep the adapter off the engines' critical path:
//!
//! * The reverse state → id map is an open-addressed
//!   [`SlotIndex`] probing FNV-hashed
//!   slots directly into the id-ordered state array — one flat
//!   power-of-two table instead of the `BTreeMap`'s pointer-chasing
//!   node walk, rebuilt wholesale on compaction.
//! * Zero-randomness transitions are memoized per *id pair* in a small
//!   direct-mapped cache stamped with the table generation: the settled
//!   bulk of a converged run replays `(rec, sen) → out` without
//!   cloning, hashing, or re-running `interact`. Entries are admitted
//!   only when the RNG stream is untouched by the probe, so replay
//!   never desynchronizes seeded runs; a generation bump (GC or lane
//!   collapse) lazily drops the whole cache.
//! * Counter-churning record protocols — support in the hundreds, a
//!   fresh record minted on nearly every interaction — skip the
//!   per-interaction interning economy altogether: once the occupied
//!   support crosses the dense-lane floor, the adapter expands the
//!   configuration into one record per agent, runs the agent
//!   simulator's exact interaction loop in place, and re-interns the
//!   survivors once at the end (see `advance_dense`). The lane keeps
//!   its buffers between episodes, so a warm episode allocates nothing.
//!   The count engine thereby matches the agent simulator's throughput
//!   on exactly the workloads that used to be ~7× slower, while every
//!   quiet phase stays on the cached configuration path.
//!
//! ## Observability
//!
//! The adapter maintains cumulative tallies at its own decision points and
//! exposes them through [`CountProtocol::telemetry_stats`]; the
//! [`ConfigSim`](crate::batch::ConfigSim) facade flushes deltas into any
//! attached [`pp_telemetry::Metrics`] registry. Counters and the decision
//! points they observe:
//!
//! * `pair_cache_hits` / `pair_cache_misses` — the cache probe at the top
//!   of every `transition` call (hit replays a memoized outcome, miss runs
//!   the full decode/interact path).
//! * `pair_cache_gen_drops` — the generation check in the same probe:
//!   a mismatch (GC pass or dense-lane collapse renumbered the ids) drops
//!   the whole cache before the probe proceeds.
//! * `slot_lookups` / `slot_probes` — every interner reverse lookup
//!   (`id_of` / `intern`) and the open-addressed buckets it walked.
//! * `slot_rebuilds` — index growth doublings plus the wholesale rebuilds
//!   a GC compaction performs. A lane collapse does not rebuild: the
//!   table adopts the collapse's dedupe index, whose ids are already the
//!   new ranks, and keeps its own counters.
//!
//! All of these are observation-only: reading or bumping them consumes no
//! randomness and influences no branch, so telemetry-on and telemetry-off
//! runs stay byte-identical (`tests/telemetry_neutrality.rs`).

use std::cell::RefCell;
use std::fmt::Debug;
use std::hash::Hash;
use std::rc::Rc;

use rand::Rng;

use crate::count_sim::{AdapterStats, CountConfiguration, CountProtocol, CountSeededInit};
use crate::protocol::{Protocol, SeededInit};
use crate::rng::SimRng;
use crate::slot_index::{fnv_hash, SlotIndex};

pub use crate::slot_index::FnvHasher;

/// Dense id ↔ state table, grown lazily as states are discovered and
/// compacted (dead entries evicted, survivors renumbered) when the engine
/// triggers a GC pass.
///
/// Struct-of-arrays layout: every record state is stored exactly once, in
/// the id-ordered `states` vec, and the reverse lookup is an open-addressed
/// [`SlotIndex`] probing that vec — no duplicate map keys, so interning
/// touches one dense bucket array plus (on hash hits) the state it is
/// checking against.
#[derive(Debug)]
pub struct StateTable<S> {
    states: Vec<S>,
    ids: SlotIndex,
    /// Bumped by every [`StateTable::compact`]: ids are only meaningful
    /// within one generation.
    generation: u64,
    /// Total states ever assigned an id, across compactions — the
    /// table-growth telemetry the GC tests assert against.
    total_interned: u64,
}

impl<S: Clone + Eq + Hash> StateTable<S> {
    fn new() -> Self {
        Self {
            states: Vec::new(),
            ids: SlotIndex::new(),
            generation: 0,
            total_interned: 0,
        }
    }

    /// The id currently assigned to `state`, if any.
    fn id_of(&self, state: &S) -> Option<u32> {
        self.ids
            .get(fnv_hash(state), |id| self.states[id as usize] == *state)
    }

    /// Returns the id for `state`, assigning the next dense slot if unseen.
    fn intern(&mut self, state: S) -> u32 {
        let hash = fnv_hash(&state);
        if let Some(id) = self.ids.get(hash, |id| self.states[id as usize] == state) {
            return id;
        }
        let id = u32::try_from(self.states.len()).expect("more than u32::MAX distinct states");
        self.states.push(state);
        let Self { ids, states, .. } = self;
        ids.insert(hash, id, |i| fnv_hash(&states[i as usize]));
        self.total_interned += 1;
        id
    }

    fn get(&self, id: u32) -> &S {
        &self.states[id as usize]
    }

    /// Evicts every id not in `live` and compacts the survivors into the
    /// dense prefix `0..live.len()`, preserving their relative order (the
    /// new id is the old id's rank among the live ids). Returns the
    /// old → new renaming and bumps the generation.
    fn compact(&mut self, live: &[u32]) -> Vec<(u32, u32)> {
        let mut ordered: Vec<u32> = live.to_vec();
        ordered.sort_unstable();
        ordered.dedup();
        let mut states = Vec::with_capacity(ordered.len());
        let mut renames = Vec::with_capacity(ordered.len());
        for (rank, &old) in ordered.iter().enumerate() {
            let new = u32::try_from(rank).expect("live support fits the old table");
            states.push(self.states[old as usize].clone());
            renames.push((old, new));
        }
        self.states = states;
        let Self { ids, states, .. } = self;
        ids.rebuild(
            0..u32::try_from(states.len()).expect("live support fits u32"),
            |i| fnv_hash(&states[i as usize]),
        );
        self.generation += 1;
        renames
    }

    /// Replaces the table wholesale with one built on the side: `states`
    /// become ids `0..k` in slice order, and `index` must already map
    /// each record's [`fnv_hash`] to its position. The dense lane's
    /// episode-ending collapse: unlike [`StateTable::compact`] the order
    /// is the *caller's*, not ascending-old-id — the lane needs an
    /// ordering that is a function of the record-level trajectory alone
    /// (first occurrence in its per-agent scan), because numeric ids
    /// drift between GC-on/GC-off and original/restored runs of the same
    /// trajectory. The caller must pass value-distinct records.
    ///
    /// Both are swapped in, not copied: the caller gets the previous
    /// states and buckets back as scratch for its next build, and the
    /// index is adopted without a rebuild. The table's index keeps its own
    /// telemetry counters (see [`SlotIndex::swap_entries`]), so its
    /// tallies stay monotone. Bumps the generation; the new ids count
    /// toward `total_interned`.
    fn adopt(&mut self, states: &mut Vec<S>, index: &mut SlotIndex) {
        debug_assert_eq!(states.len(), index.len());
        self.total_interned += states.len() as u64;
        std::mem::swap(&mut self.states, states);
        self.ids.swap_entries(index);
        self.generation += 1;
    }

    /// Rebuilds a table from checkpoint parts: the id-ordered state list
    /// plus the generation and telemetry counters. The reverse index is
    /// derived, so the restored table interns and decodes exactly like the
    /// snapshotted one.
    fn from_snapshot_parts(states: Vec<S>, generation: u64, total_interned: u64) -> Self {
        let mut ids = SlotIndex::with_capacity(states.len());
        for (i, s) in states.iter().enumerate() {
            let hash = fnv_hash(s);
            assert!(
                ids.get(hash, |c| states[c as usize] == *s).is_none(),
                "snapshot has a duplicate interned state"
            );
            ids.insert(
                hash,
                u32::try_from(i).expect("more than u32::MAX distinct states"),
                |c| fnv_hash(&states[c as usize]),
            );
        }
        Self {
            states,
            ids,
            generation,
            total_interned,
        }
    }
}

/// log2 of the pair-cache entry count: 8192 entries × 16 bytes = 128 KiB,
/// small enough to stay cache-resident next to the configuration tables.
const PAIR_CACHE_BITS: u32 = 13;

/// The unoccupied pair-cache key. Only the pair `(u32::MAX, u32::MAX)`
/// collides with it, and ids that large cannot occur (the table refuses to
/// assign more than `u32::MAX` ids), so no real pair is confused for empty.
const PAIR_EMPTY: u64 = u64::MAX;

/// Direct-mapped memo of *deterministic* pair outcomes: key
/// `(receiver_id, sender_id)`, value the output id pair.
///
/// An entry is written only after one full [`Protocol::interact`] on that
/// pair was observed to consume **zero** random bits (the RNG state is
/// compared before and after — xoshiro256++ advances a bijective state on
/// every draw, so state equality proves nothing was read). Such a
/// transition's control flow is a pure function of the two input states,
/// so replaying its memoized output ids is *exactly* trajectory-neutral:
/// the full path would produce the same ids (both outputs were interned
/// when the entry was written; ids are never removed within a generation)
/// and consume no randomness. Randomized *pairs* — those that do read the
/// RNG — are never cached; randomized *protocols* thus bypass the cache on
/// exactly the pairs where it would be wrong and still hit on their
/// deterministic bulk (e.g. the clock-tick interactions of
/// `Log-Size-Estimation`). A GC pass renumbers ids, so the whole cache is
/// dropped on a generation bump.
#[derive(Debug)]
struct PairCache {
    keys: Vec<u64>,
    outs: Vec<(u32, u32)>,
    /// Table generation the cached ids belong to.
    generation: u64,
    /// Telemetry: probes that returned a memoized outcome.
    hits: u64,
    /// Telemetry: probes that fell through to the full transition path.
    misses: u64,
    /// Telemetry: whole-cache drops on generation bumps (GC passes and
    /// dense-lane collapses both renumber ids and land here lazily).
    gen_drops: u64,
}

impl PairCache {
    fn new() -> Self {
        Self {
            keys: vec![PAIR_EMPTY; 1 << PAIR_CACHE_BITS],
            outs: vec![(0, 0); 1 << PAIR_CACHE_BITS],
            generation: 0,
            hits: 0,
            misses: 0,
            gen_drops: 0,
        }
    }

    #[inline]
    fn slot(key: u64) -> usize {
        // Fibonacci hashing: the top bits of the multiply mix both ids.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - PAIR_CACHE_BITS)) as usize
    }

    #[inline]
    fn get(&self, key: u64) -> Option<(u32, u32)> {
        let slot = Self::slot(key);
        (self.keys[slot] == key).then(|| self.outs[slot])
    }

    #[inline]
    fn put(&mut self, key: u64, out: (u32, u32)) {
        let slot = Self::slot(key);
        self.keys[slot] = key;
        self.outs[slot] = out;
    }

    /// Drops every entry and re-stamps the cache for `generation`.
    fn reset(&mut self, generation: u64) {
        self.keys.fill(PAIR_EMPTY);
        self.generation = generation;
        self.gen_drops += 1;
    }
}

#[inline]
fn pair_key(rec: u32, sen: u32) -> u64 {
    (u64::from(rec) << 32) | u64::from(sen)
}

/// Dense-lane eligibility floor on the occupied support. Below it the
/// configuration machinery is already near-optimal — few states, high
/// counts, pair-cache hits on the settled bulk — and the `O(n)`
/// expand/collapse would be pure overhead. Above it the support is the
/// signature of a churning record protocol (the paper's
/// `Log-Size-Estimation` runs at polylog support, ~10²–10³ distinct
/// records), where per-interaction Fenwick/intern work dwarfs the
/// per-agent execution the lane substitutes.
const LANE_MIN_SUPPORT: usize = 64;

/// Dense-lane population ceiling. The lane materializes one record per
/// agent for the episode, trading the count engine's `O(support)` memory
/// for the agent simulator's `O(n)` — the right trade for a churning
/// record protocol (where the table grows with the step count anyway),
/// but one a count-engine caller at huge `n` did not sign up for. Above
/// this the lane declines and the configuration path keeps its memory
/// contract.
const LANE_MAX_AGENTS: u64 = 1 << 22;

/// The dense lane's working storage, kept between episodes so a warm
/// episode allocates nothing. Like the pair cache it is derivable scratch:
/// snapshots skip it, and the lane drops it when it declines on support,
/// so a count-path phase never keeps an `n`-sized buffer alive.
#[derive(Debug)]
struct LaneBuffers<S> {
    /// One record per agent while an episode runs.
    agents: Vec<S>,
    /// The configuration's occupied slots in state order (the expansion
    /// order).
    slots: Vec<usize>,
    /// The collapse's distinct records in first-occurrence order; the
    /// previous table's states after the collapse hands these over.
    states: Vec<S>,
    /// Agents per record in `states`.
    counts: Vec<u64>,
    /// Record → rank dedupe index over `states`, adopted by the table at
    /// collapse in exchange for the table's previous buckets.
    index: SlotIndex,
}

impl<S> Default for LaneBuffers<S> {
    fn default() -> Self {
        Self {
            agents: Vec::new(),
            slots: Vec::new(),
            states: Vec::new(),
            counts: Vec::new(),
            index: SlotIndex::new(),
        }
    }
}

/// A cloneable handle onto an [`Interned`] adapter's id ↔ state table.
///
/// Lets a caller decode slot ids at observation points while the simulator
/// owns the protocol (both share the table through an `Rc`); the
/// [`Simulation::builder`](crate::Simulation::builder) count modes decode
/// every view through one.
#[derive(Debug)]
pub struct InternerHandle<S> {
    table: Rc<RefCell<StateTable<S>>>,
}

impl<S> Clone for InternerHandle<S> {
    fn clone(&self) -> Self {
        Self {
            table: Rc::clone(&self.table),
        }
    }
}

impl<S: Clone + Eq + Hash> InternerHandle<S> {
    /// The id *currently* assigned to `state`, if it is in the table.
    /// Ids are only stable within one [`InternerHandle::generation`]: a GC
    /// pass renumbers the survivors, so look ids up per query instead of
    /// caching them across run checkpoints.
    pub fn id_of(&self, state: &S) -> Option<u32> {
        self.table.borrow().id_of(state)
    }

    /// Number of distinct states currently in the table (live slots after
    /// the last GC pass, plus everything discovered since).
    pub fn discovered(&self) -> usize {
        self.table.borrow().states.len()
    }

    /// Total states ever assigned an id, across GC passes. The gap to
    /// [`InternerHandle::discovered`] is how much dead weight collection
    /// has reclaimed.
    pub fn total_interned(&self) -> u64 {
        self.table.borrow().total_interned
    }

    /// The table's GC generation: bumped by every collection pass, so
    /// harness code holding raw ids can detect that they went stale.
    pub fn generation(&self) -> u64 {
        self.table.borrow().generation
    }

    /// Decodes a slot-id configuration into `(state, count)` pairs.
    pub fn decode(&self, config: &CountConfiguration<u32>) -> Vec<(S, u64)> {
        let table = self.table.borrow();
        config
            .iter()
            .map(|(&id, &count)| (table.get(id).clone(), count))
            .collect()
    }

    /// The count of agents in `state` within a slot-id configuration
    /// (0 if the state was never discovered).
    pub fn count_of(&self, config: &CountConfiguration<u32>, state: &S) -> u64 {
        self.id_of(state).map_or(0, |id| config.count(&id))
    }
}

/// Adapter exposing an agent-level [`Protocol`] as a [`CountProtocol`] over
/// dense `u32` state ids. See the [module docs](self) for the full story.
#[derive(Debug)]
pub struct Interned<P: Protocol>
where
    P::State: Eq + Hash,
{
    protocol: P,
    table: Rc<RefCell<StateTable<P::State>>>,
    /// Pair-outcome memo (see [`PairCache`]); derivable state, so snapshots
    /// skip it and restores start cold.
    cache: RefCell<PairCache>,
    /// Dense-lane scratch (see [`LaneBuffers`]); snapshots skip it too.
    lane: RefCell<LaneBuffers<P::State>>,
}

impl<P: Protocol> Interned<P>
where
    P::State: Eq + Hash,
{
    /// Wraps `protocol` for the count engines. The adapter assumes the
    /// transition may read the RNG, which is always correct.
    pub fn new(protocol: P) -> Self {
        Self {
            protocol,
            table: Rc::new(RefCell::new(StateTable::new())),
            cache: RefCell::new(PairCache::new()),
            lane: RefCell::default(),
        }
    }

    /// The dense lane's agent buffer as `(address, capacity)`, for tests
    /// of the lane's reuse and memory contracts.
    #[cfg(test)]
    fn lane_agents_buffer(&self) -> (usize, usize) {
        let lane = self.lane.borrow();
        (lane.agents.as_ptr() as usize, lane.agents.capacity())
    }

    /// A handle for decoding slot ids back into protocol states.
    pub fn handle(&self) -> InternerHandle<P::State> {
        InternerHandle {
            table: Rc::clone(&self.table),
        }
    }

    /// The wrapped protocol.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Interns `state` (idempotent) and returns its id.
    pub fn intern_state(&self, state: P::State) -> u32 {
        self.table.borrow_mut().intern(state)
    }

    /// The all-agents-identical initial configuration of `n` agents in
    /// [`Protocol::initial_state`].
    pub fn uniform_config(&self, n: u64) -> CountConfiguration<u32> {
        CountConfiguration::uniform(self.intern_state(self.protocol.initial_state()), n)
    }

    /// Checkpoint accessor: `(id-ordered states, generation,
    /// total_interned)` — everything a snapshot needs to rebuild the
    /// adapter exactly.
    pub(crate) fn snapshot_parts(&self) -> (Vec<P::State>, u64, u64) {
        let table = self.table.borrow();
        (table.states.clone(), table.generation, table.total_interned)
    }

    /// Rebuilds an adapter from checkpoint parts (see
    /// [`Interned::snapshot_parts`]). The state list keeps its exact
    /// id-order layout, so a slot-id configuration captured alongside it
    /// decodes — and interns new states — unchanged.
    pub(crate) fn from_snapshot_parts(
        protocol: P,
        states: Vec<P::State>,
        generation: u64,
        total_interned: u64,
    ) -> Self {
        let mut cache = PairCache::new();
        cache.generation = generation;
        Self {
            protocol,
            table: Rc::new(RefCell::new(StateTable::from_snapshot_parts(
                states,
                generation,
                total_interned,
            ))),
            cache: RefCell::new(cache),
            lane: RefCell::default(),
        }
    }

    /// Builds a slot-id configuration from protocol-state `(state, count)`
    /// pairs — arbitrary non-uniform starts (planted leaders, input splits).
    pub fn config_from_pairs(
        &self,
        pairs: impl IntoIterator<Item = (P::State, u64)>,
    ) -> CountConfiguration<u32> {
        CountConfiguration::from_pairs(
            pairs
                .into_iter()
                .map(|(state, count)| (self.intern_state(state), count)),
        )
    }
}

impl<P: Protocol> CountProtocol for Interned<P>
where
    P::State: Eq + Hash,
{
    type State = u32;

    fn transition(&self, rec: u32, sen: u32, rng: &mut SimRng) -> (u32, u32) {
        // Pair-cache probe: a hit replays a memoized deterministic outcome
        // — no decode, no `interact`, no hashing, no RNG — which is exactly
        // what the full path below would do for that pair (see [`PairCache`]
        // for why this is trajectory-neutral).
        let key = pair_key(rec, sen);
        let generation = {
            let mut cache = self.cache.borrow_mut();
            let generation = self.table.borrow().generation;
            if cache.generation == generation {
                if let Some(out) = cache.get(key) {
                    cache.hits += 1;
                    return out;
                }
                cache.misses += 1;
            } else {
                // A GC pass renumbered the ids; every entry is stale.
                cache.reset(generation);
            }
            generation
        };
        let (mut r, mut s) = {
            let table = self.table.borrow();
            (table.get(rec).clone(), table.get(sen).clone())
        };
        // Capture the RNG state: if `interact` leaves it untouched it
        // consumed zero random bits (xoshiro256++ advances on every draw),
        // so this pair's transition is a pure function of the inputs and
        // its outcome is cacheable.
        let rng_before = rng.state();
        self.protocol.interact(&mut r, &mut s, rng);
        let read_rng = rng.state() != rng_before;
        let out = {
            // Null fast path: an interaction that changed neither state
            // (settled epidemics, frozen terminated pairs) keeps its input
            // ids — no hashing, no table writes.
            let table = self.table.borrow();
            if *table.get(rec) == r && *table.get(sen) == s {
                Some((rec, sen))
            } else {
                None
            }
        };
        let out = out.unwrap_or_else(|| {
            let mut table = self.table.borrow_mut();
            (table.intern(r), table.intern(s))
        });
        if !read_rng && key != PAIR_EMPTY {
            let mut cache = self.cache.borrow_mut();
            debug_assert_eq!(cache.generation, generation);
            cache.put(key, out);
        }
        out
    }

    fn table_len(&self) -> Option<usize> {
        Some(self.table.borrow().states.len())
    }

    fn collect_table(&self, live: &[u32]) -> Option<Vec<(u32, u32)>> {
        Some(self.table.borrow_mut().compact(live))
    }

    /// Observability: the adapter's cumulative pair-cache and interner
    /// slot-index counters (see the module docs' Observability section).
    /// Pure reads of already-maintained tallies — no trajectory effect.
    fn telemetry_stats(&self) -> Option<AdapterStats> {
        let cache = self.cache.borrow();
        let index = self.table.borrow().ids.stats();
        Some(AdapterStats {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_gen_drops: cache.gen_drops,
            index_lookups: index.lookups,
            index_probes: index.probes,
            index_rebuilds: index.rebuilds,
        })
    }

    /// The dense per-agent lane. A churning record protocol — the paper's
    /// `Log-Size-Estimation` and `Leader-Terminating`, whose receiver
    /// mints a fresh record on nearly every interaction — pays the full
    /// configuration-vector toll per interaction: two Fenwick descents,
    /// two record clones, two intern hashes, and four Fenwick updates
    /// with slot register/release churn. The agent simulator pays two RNG
    /// draws and one in-place transition. This lane gives the count
    /// engine the agent simulator's cost model — *exactly* its cost
    /// model — for those phases:
    ///
    /// * **Expand**: materialize one record per agent by cloning each
    ///   configuration entry's state `count` times, in ascending id order
    ///   (GC compaction and snapshot restore both preserve relative id
    ///   order, so this is invariant across their id drift).
    /// * **Run**: execute the whole budget as the agent simulator would —
    ///   draw a uniform ordered pair of distinct agent indices (two RNG
    ///   words, the same draw law as
    ///   [`PairScheduler::next_pair`](crate::scheduler::PairScheduler::next_pair)),
    ///   split
    ///   the slice, and run [`Protocol::interact`] *in place*. No clones,
    ///   no equality probes, no interning — the interaction loop is
    ///   byte-for-byte the agent simulator's.
    /// * **Collapse**: scan the agent array once; each *record value*
    ///   gets the next rank at its first occurrence (a [`SlotIndex`]
    ///   dedupes). The ranks are the new ids `0..k`, so
    ///   `StateTable::adopt` installs the ranked records and the dedupe
    ///   index as the table without a rebuild, bumping the generation
    ///   (which lazily drops the now-stale pair cache), and the
    ///   configuration is rebuilt in place as `(rank, count)`. At rest the
    ///   adapter is indistinguishable from one that never ran the lane —
    ///   same invariants a GC pass restores — so snapshots, engine
    ///   switches, and observers see a canonical table.
    ///
    /// The expand/collapse bracket is `O(n)` once per episode, and it
    /// allocates nothing once warm: the agent array, the dedupe buffers,
    /// and the table's previous storage are kept in `LaneBuffers` and
    /// reused. Measured with `Log-Size-Estimation` records at `n = 2000`
    /// on a shared 2-vCPU x86-64 VM, it costs 13–18 ns per agent (3–4 to
    /// expand, 9–14 to dedupe, under 1 to install), next to 30–35 ns per
    /// interaction for the loop itself. Under `Simulation::run`'s default
    /// cadence of one checkpoint every `n` interactions — one episode
    /// each — the bracket is therefore about a third of the lane's time;
    /// longer budgets amortize it further.
    ///
    /// Determinism across engine histories: table ids don't even exist
    /// during an episode — the trajectory is computed on records, as the
    /// agent simulator computes it. Expansion order (configuration slot
    /// order), the draw stream (independent of table state), and the
    /// collapse order (first occurrence of a record value in the agent
    /// scan) are all functions of the record-level trajectory alone — so
    /// the byte-equivalence suites stay byte-identical whether or not,
    /// and wherever, episodes start and end.
    fn advance_dense(
        &self,
        config: &mut CountConfiguration<u32>,
        rng: &mut SimRng,
        budget: u64,
    ) -> Option<u64> {
        let n = config.population_size();
        if budget < n || !(2..=LANE_MAX_AGENTS).contains(&n) {
            return None;
        }
        if config.support_size() < LANE_MIN_SUPPORT {
            // A count-path phase: release the n-sized buffers.
            self.lane.take();
            return None;
        }
        let mut table = self.table.borrow_mut();
        let mut lane = self.lane.borrow_mut();
        let LaneBuffers {
            agents,
            slots,
            states,
            counts,
            index,
        } = &mut *lane;
        // Expand: one record per agent, in ascending id order — the same
        // agent → record assignment whatever the engine history.
        agents.clear();
        for (&id, &k) in config.iter_with(slots) {
            let k = usize::try_from(k).expect("lane population fits usize");
            agents.resize(agents.len() + k, table.states[id as usize].clone());
        }
        for _ in 0..budget {
            // The agent simulator's draw: a uniform ordered pair of
            // distinct agent indices from two RNG words.
            let a = rng.gen_range(0..n) as usize;
            let mut b = rng.gen_range(0..n - 1) as usize;
            if b >= a {
                b += 1;
            }
            let (lo, hi) = (a.min(b), a.max(b));
            let (left, right) = agents.split_at_mut(hi);
            let (first, second) = (&mut left[lo], &mut right[0]);
            if a < b {
                self.protocol.interact(first, second, rng);
            } else {
                self.protocol.interact(second, first, rng);
            }
        }
        // Collapse: rank record values by first occurrence in the agent
        // scan; the index dedupes value-equal records onto one rank, and
        // since ranks are the new ids the table adopts it as is. Sized at
        // twice the support, so the adopted index also takes the count
        // path's next few hundred interned states without growing.
        index.reset(2 * config.support_size());
        states.clear();
        counts.clear();
        for state in agents.iter() {
            let hash = fnv_hash(state);
            let rank = match index.get(hash, |r| states[r as usize] == *state) {
                Some(r) => r,
                None => {
                    let r = u32::try_from(states.len()).expect("support fits u32");
                    index.insert(hash, r, |r2| fnv_hash(&states[r2 as usize]));
                    states.push(state.clone());
                    counts.push(0);
                    r
                }
            };
            counts[rank as usize] += 1;
        }
        table.adopt(states, index);
        config.assign_pairs(
            counts
                .iter()
                .enumerate()
                .map(|(rank, &k)| (u32::try_from(rank).expect("support fits u32"), k)),
        );
        Some(budget)
    }
}

impl<P: Protocol + SeededInit> CountSeededInit for Interned<P>
where
    P::State: Eq + Hash,
{
    /// Collapses the per-index [`SeededInit`] assignment into its multiset:
    /// agents are exchangeable, so the interaction process depends on the
    /// initial states only through their counts. Slots are registered in
    /// id (= first-seen) order, so the configuration layout — and with it
    /// the whole seeded trajectory — is deterministic across processes
    /// (a `HashMap` iteration here would randomize slot order per run).
    fn initial_config(&self, n: u64) -> CountConfiguration<u32> {
        let n_usize = usize::try_from(n).expect("population exceeds usize");
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for i in 0..n_usize {
            let id = self.intern_state(self.protocol.init_state(i, n_usize));
            *counts.entry(id).or_insert(0) += 1;
        }
        CountConfiguration::from_pairs(counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::ConfigSim;
    use crate::count_sim::CountSim;
    use crate::rng::derive_seed;
    use crate::sim::AgentSim;
    use crate::simulation::Simulation;
    use crate::EngineMode;
    use rand::Rng;

    /// Max-propagation epidemic with a record state (not `Copy`).
    struct MaxRecord;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    struct Record {
        value: u64,
        touched: bool,
    }

    impl Protocol for MaxRecord {
        type State = Record;

        fn initial_state(&self) -> Record {
            Record {
                value: 0,
                touched: false,
            }
        }

        fn interact(&self, rec: &mut Record, sen: &mut Record, _rng: &mut SimRng) {
            let m = rec.value.max(sen.value);
            rec.value = m;
            sen.value = m;
            rec.touched = true;
            sen.touched = true;
        }
    }

    #[test]
    fn interned_protocol_runs_on_count_sim() {
        let (out, sim) = Simulation::builder(MaxRecord)
            .size(500)
            .seed(3)
            .mode(EngineMode::Sequential)
            .init_planted([(
                Record {
                    value: 9,
                    touched: false,
                },
                1,
            )])
            .check_every(100)
            .max_time(10_000.0)
            .until(|view| view.iter().all(|(s, _)| s.value == 9 && s.touched))
            .run();
        assert!(out.converged, "max never propagated");
        assert_eq!(sim.population_size(), 500);
    }

    #[test]
    fn batched_interned_run_matches_sequential_statistically() {
        // Completion-time means of the interned max epidemic must agree
        // between engines within sampling error; the batched engine runs it
        // on sampled per-interaction laws.
        let n = 20_000u64;
        let trials = 30;
        let mean = |mode: EngineMode, stream: u64| -> f64 {
            (0..trials)
                .map(|t| {
                    let (out, _) = Simulation::builder(MaxRecord)
                        .size(n)
                        .seed(derive_seed(stream, t))
                        .mode(mode)
                        .init_planted([(
                            Record {
                                value: 1,
                                touched: false,
                            },
                            1,
                        )])
                        .check_every(n / 20)
                        .until(|view| view.iter().all(|(s, _)| s.value == 1))
                        .run();
                    assert!(out.converged);
                    out.time
                })
                .sum::<f64>()
                / trials as f64
        };
        let m_seq = mean(EngineMode::Sequential, 0x51);
        let m_bat = mean(EngineMode::Batched, 0x52);
        assert!(
            (m_seq - m_bat).abs() < 0.25 * m_seq,
            "interned engines diverge: sequential {m_seq} vs batched {m_bat}"
        );
    }

    /// Randomized protocol through the interning layer.
    struct CoinFlip;

    impl Protocol for CoinFlip {
        type State = Record;

        fn initial_state(&self) -> Record {
            Record {
                value: 0,
                touched: false,
            }
        }

        fn interact(&self, rec: &mut Record, _sen: &mut Record, rng: &mut SimRng) {
            rec.value = rng.gen_range(0..2);
            rec.touched = true;
        }
    }

    #[test]
    fn randomized_interned_protocol_stays_sequential_and_runs() {
        let interned = Interned::new(CoinFlip);
        let handle = interned.handle();
        let config = interned.uniform_config(10_000);
        let mut sim = ConfigSim::new(interned, config, 11);
        assert!(!sim.is_batched());
        sim.steps(40_000);
        let decoded = handle.decode(&sim.config_view());
        let ones: u64 = decoded
            .iter()
            .filter(|(s, _)| s.value == 1)
            .map(|(_, c)| c)
            .sum();
        assert!(
            (3_000..7_000).contains(&ones),
            "coin flips badly skewed: {ones}"
        );
    }

    /// Counter churner: every interaction mints the receiver a fresh
    /// record state, so dead table entries accumulate without bound — the
    /// interner GC's target workload. Live support stays at the Poisson
    /// spread of the per-agent counts while the table would otherwise grow
    /// linearly with time.
    struct Churner;

    impl Protocol for Churner {
        type State = Record;

        fn initial_state(&self) -> Record {
            Record {
                value: 0,
                touched: false,
            }
        }

        fn interact(&self, rec: &mut Record, _sen: &mut Record, _rng: &mut SimRng) {
            rec.value += 1;
        }
    }

    impl SeededInit for Churner {
        /// Eight agents per initial value, monotone in the agent index —
        /// so the interned expansion order (configuration slot order)
        /// reproduces the agent simulator's per-index assignment and the
        /// initial support (`n/8`) clears the dense-lane floor at once.
        fn init_state(&self, index: usize, _n: usize) -> Record {
            Record {
                value: (index as u64) / 8,
                touched: false,
            }
        }
    }

    fn sorted_decode(
        handle: &InternerHandle<Record>,
        config: &CountConfiguration<u32>,
    ) -> Vec<(Record, u64)> {
        let mut view = handle.decode(config);
        view.sort_by_key(|(s, _)| (s.value, s.touched));
        view
    }

    #[test]
    fn collection_preserves_decoded_multiset_and_compacts_the_table() {
        let interned = Interned::new(Churner);
        let handle = interned.handle();
        let config = interned.uniform_config(2_000);
        let mut sim = CountSim::new(interned, config, 9);
        sim.steps(400_000); // per-agent counts ≈ Poisson(200): heavy churn
        let before = sorted_decode(&handle, sim.config());
        let table_before = handle.discovered();
        assert!(sim.collect_table(), "interned adapter must collect");
        assert_eq!(handle.generation(), 1);
        assert_eq!(
            sorted_decode(&handle, sim.config()),
            before,
            "collection changed the decoded multiset"
        );
        assert!(
            handle.discovered() < table_before / 2,
            "table {} of {table_before} slots survived a full collection",
            handle.discovered()
        );
        assert_eq!(handle.total_interned(), table_before as u64);
        // The run continues seamlessly on the compacted ids.
        sim.steps(50_000);
        assert_eq!(sim.config().population_size(), 2_000);
    }

    #[test]
    fn gc_is_trajectory_neutral_byte_for_byte() {
        // The full claim behind GC-on-by-default: eviction + compaction
        // preserves the slot layout and consumes no randomness, so the
        // trajectory — not just the law — is identical with and without
        // collection, checkpoint by checkpoint. Stepping in sub-`n`
        // chunks keeps the dense lane disengaged (it needs a budget of at
        // least `n`), pinning this run to the configuration-vector path
        // whose GC machinery the test is about; the lane-active
        // counterpart is `dense_lane_is_trajectory_neutral_under_gc`.
        let run = |gc: bool| {
            let interned = Interned::new(Churner);
            let handle = interned.handle();
            let config = interned.uniform_config(1_000);
            let mut sim = ConfigSim::new(interned, config, 77);
            sim.set_gc(gc);
            let mut log = Vec::new();
            for _ in 0..40 {
                for _ in 0..100 {
                    sim.steps(500);
                }
                log.push((
                    sim.interactions(),
                    sorted_decode(&handle, &sim.config_view()),
                ));
            }
            (
                log,
                sim.gc_collections(),
                handle.discovered(),
                handle.total_interned(),
            )
        };
        let (log_off, collections_off, table_off, total_off) = run(false);
        let (log_on, collections_on, table_on, total_on) = run(true);
        assert_eq!(log_off, log_on, "GC perturbed the trajectory");
        assert_eq!(collections_off, 0);
        assert!(collections_on >= 1, "churner run never triggered GC");
        assert_eq!(total_off, table_off as u64, "no GC → nothing evicted");
        // The GC run re-interns any state revived after its eviction, so
        // its total is at least the GC-off run's.
        assert!(total_on >= total_off);
        assert!(
            table_on < table_off / 2,
            "GC left {table_on} of {table_off} slots"
        );
    }

    #[test]
    fn pair_cache_entries_do_not_survive_a_generation_bump() {
        // A compaction renumbers ids, so a memoized `(rec, sen) → out`
        // pair from the old generation must never replay: here the ids
        // `(0, 1)` mean different records before and after the GC pass,
        // with different correct outcomes.
        let interned = Interned::new(MaxRecord);
        // Already-touched records: a max-merge of two of them lands on an
        // existing record instead of minting, so the pair is memoizable.
        let rec = |value| Record {
            value,
            touched: true,
        };
        let a = interned.intern_state(rec(10));
        let b = interned.intern_state(rec(2));
        let c = interned.intern_state(rec(3));
        assert_eq!((a, b, c), (0, 1, 2));
        let mut rng = crate::rng::rng_from_seed(1);
        // Max-merge of (10, 2): both end at 10 = id 0. The pair reads no
        // randomness, so it is memoized.
        assert_eq!(interned.transition(0, 1, &mut rng), (0, 0));
        let hits_before = interned.cache.borrow().hits;
        assert_eq!(interned.transition(0, 1, &mut rng), (0, 0));
        assert_eq!(interned.cache.borrow().hits, hits_before + 1);

        // Evict record 10: survivors renumber to 2 → id 0, 3 → id 1.
        interned.table.borrow_mut().compact(&[b, c]);
        // The same numeric pair now means (2, 3): max-merge ends at 3 =
        // new id 1 on both sides. A stale replay would answer (0, 0).
        assert_eq!(interned.transition(0, 1, &mut rng), (1, 1));
        assert_eq!(
            interned.cache.borrow().generation,
            interned.table.borrow().generation,
            "cache was not re-stamped for the new generation"
        );
    }

    #[test]
    fn dense_lane_is_trajectory_neutral_under_gc() {
        // Big budgets put the churner on the dense lane (support settles
        // around the Poisson spread of the per-agent counts, well over
        // the lane floor). Numeric ids drift between the GC-on and
        // GC-off runs, but the lane's expansion order, draw stream, and
        // first-occurrence collapse order are record-level invariants —
        // so the decoded checkpoints must stay byte-identical.
        let run = |gc: bool| {
            let interned = Interned::new(Churner);
            let handle = interned.handle();
            let config = interned.uniform_config(1_000);
            let mut sim = ConfigSim::new(interned, config, 77);
            sim.set_gc(gc);
            let mut log = Vec::new();
            for _ in 0..40 {
                sim.steps(50_000);
                log.push((
                    sim.interactions(),
                    sorted_decode(&handle, &sim.config_view()),
                ));
            }
            (log, handle.discovered(), handle.total_interned())
        };
        let (log_off, table_off, total_off) = run(false);
        let (log_on, table_on, total_on) = run(true);
        assert_eq!(log_off, log_on, "GC flag perturbed a lane trajectory");
        // The lane collapses the table to the live support after every
        // episode, in both runs — without it, the GC-off table would hold
        // one entry per interaction (~2M here).
        assert!(table_off < 1_024, "lane never compacted: {table_off} slots");
        assert_eq!(table_off, table_on);
        // Interning telemetry proves the lane actually ran: each of the
        // 40 episode-ending collapses re-interns the live support (~125
        // records), where a pure count-path run of a churner this size
        // would have interned ~one record per interaction (~2M) instead.
        assert!(
            total_off > 1_000 && total_off < 100_000,
            "interning telemetry off the lane profile: {total_off}"
        );
        assert_eq!(total_off, total_on);
    }

    #[test]
    fn adapter_telemetry_is_monotone_across_lane_episodes_and_gc() {
        // `ConfigSim::flush_telemetry` subtracts successive
        // `telemetry_stats()` reads with plain `-`, so every field must
        // stay monotone: across lane collapses (the table adopts the
        // dedupe index but keeps its own counters), count-path interning,
        // and GC passes. Metrics are attached so the subtraction itself
        // runs under the test profile's overflow checks.
        let interned = Interned::new(Churner);
        let handle = interned.handle();
        let config = interned.uniform_config(1_000);
        let mut sim = ConfigSim::new(interned, config, 31);
        sim.set_metrics(pp_telemetry::Metrics::new());
        let stats = |sim: &ConfigSim<Interned<Churner>>| {
            let s = sim.protocol().telemetry_stats().expect("adapter reports");
            [
                s.cache_hits,
                s.cache_misses,
                s.cache_gen_drops,
                s.index_lookups,
                s.index_probes,
                s.index_rebuilds,
            ]
        };
        let mut last = stats(&sim);
        let mut check = |sim: &ConfigSim<Interned<Churner>>, what: &str| {
            let now = stats(sim);
            for (field, (&a, &b)) in now.iter().zip(&last).enumerate() {
                assert!(
                    a >= b,
                    "adapter counter {field} fell from {b} to {a} ({what})"
                );
            }
            last = now;
            now
        };
        // Count path first (support 1 < the lane floor), then the lane
        // once the per-agent counts have spread past the floor.
        sim.steps(400_000);
        check(&sim, "warm-up");
        assert!(sim.config_view().support_size() >= LANE_MIN_SUPPORT);
        let generation = handle.generation();
        let before = check(&sim, "lane");
        for _ in 0..5 {
            sim.steps(1_000);
        }
        let after = check(&sim, "lane episodes");
        assert!(handle.generation() >= generation + 5, "the lane never ran");
        assert_eq!(
            after[5], before[5],
            "a lane collapse rebuilt the table index"
        );
        // Sub-`n` budgets keep the lane off: count-path interning.
        for _ in 0..20 {
            sim.steps(500);
        }
        check(&sim, "count path");
        assert!(sim.collect_now(), "the adapter must collect");
        check(&sim, "GC pass");
        sim.steps(5_000);
        check(&sim, "lane after GC");
    }

    #[test]
    fn lane_reuses_its_buffers_and_drops_them_on_support_decline() {
        // Max-merge from 100 distinct values: the lane engages at once,
        // then the maximum spreads and the support falls under the floor.
        let interned = Interned::new(MaxRecord);
        let n = 1_000u64;
        let config = interned.config_from_pairs((0..100).map(|v| {
            (
                Record {
                    value: v,
                    touched: false,
                },
                n / 100,
            )
        }));
        let mut sim = ConfigSim::new(interned, config, 5);
        sim.steps(n);
        let (address, capacity) = sim.protocol().lane_agents_buffer();
        assert!(capacity >= n as usize, "the lane never expanded");
        assert!(sim.config_view().support_size() >= LANE_MIN_SUPPORT);
        sim.steps(n);
        assert_eq!(
            sim.protocol().lane_agents_buffer(),
            (address, capacity),
            "a warm lane episode reallocated its agent buffer"
        );
        sim.steps(20 * n);
        assert!(sim.config_view().support_size() < LANE_MIN_SUPPORT);
        assert_eq!(
            sim.protocol().lane_agents_buffer().1,
            0,
            "a count-path phase kept the lane's n-sized buffer"
        );
    }

    #[test]
    fn dense_lane_matches_the_agent_simulator_exactly() {
        // The lane draws pairs exactly like `PairScheduler::next_pair`,
        // and `Churner::interact` reads no randomness — so with a
        // monotone seeded init (expansion order = agent index order) a
        // single lane episode must reproduce the agent simulator's state
        // multiset *exactly*: same seed, same RNG stream, same per-index
        // assignment. One episode only: the collapse regroups agents by
        // record value, after which the two simulators agree in law but
        // not per index.
        let n = 1_000u64;
        let steps = 3_000u64; // one `ConfigSim::steps` call: one episode spans it
        let mut agent = AgentSim::with_inputs(Churner, n as usize, 4242);
        agent.steps(steps);
        let mut expect: Vec<(Record, u64)> = Vec::new();
        let mut flat = agent.states().to_vec();
        flat.sort_by_key(|s| (s.value, s.touched));
        for s in flat {
            match expect.last_mut() {
                Some((prev, c)) if *prev == s => *c += 1,
                _ => expect.push((s, 1)),
            }
        }

        let interned = Interned::new(Churner);
        let handle = interned.handle();
        let config = interned.initial_config(n);
        let mut sim = ConfigSim::new(interned, config, 4242);
        sim.steps(steps);
        assert_eq!(
            sorted_decode(&handle, &sim.config_view()),
            expect,
            "dense lane diverged from the agent simulator"
        );
    }

    /// Epoch counter with a *bounded* live support: equal-valued pairs
    /// advance the receiver by one, unequal pairs max-merge, so the
    /// population tracks the maximum closely (live support stays a handful
    /// of values) while the table accrues one dead entry per epoch. Pinned
    /// to the batched engine, it exercises the law-table reset half of
    /// collection.
    struct EpochMax;

    impl Protocol for EpochMax {
        type State = Record;

        fn initial_state(&self) -> Record {
            Record {
                value: 0,
                touched: false,
            }
        }

        fn interact(&self, rec: &mut Record, sen: &mut Record, _rng: &mut SimRng) {
            if rec.value == sen.value {
                rec.value += 1;
            } else {
                let m = rec.value.max(sen.value);
                rec.value = m;
                sen.value = m;
            }
        }
    }

    #[test]
    fn batched_engine_collects_and_resets_its_law_table() {
        let interned = Interned::new(EpochMax);
        let handle = interned.handle();
        let config = interned.uniform_config(4_096);
        let mut sim = ConfigSim::batched(interned, config, 5);
        sim.steps(6_000_000);
        assert!(sim.is_batched(), "pinned engine must not switch");
        assert!(
            sim.gc_collections() >= 1,
            "epoch churn never triggered a batched collection (table {}, total {})",
            handle.discovered(),
            handle.total_interned()
        );
        let view = sim.config_view();
        assert_eq!(view.population_size(), 4_096);
        assert!(
            handle.total_interned() > 1_024,
            "workload too small to exercise GC"
        );
        assert!(
            handle.discovered() < handle.total_interned() as usize / 2,
            "batched GC reclaimed too little: {} of {}",
            handle.discovered(),
            handle.total_interned()
        );
        // The compacted run keeps simulating correctly.
        sim.steps(100_000);
        assert_eq!(sim.config_view().population_size(), 4_096);
    }

    #[test]
    fn seeded_init_collapses_to_multiset() {
        struct Split;
        impl Protocol for Split {
            type State = Record;
            fn initial_state(&self) -> Record {
                Record {
                    value: 0,
                    touched: false,
                }
            }
            fn interact(&self, _r: &mut Record, _s: &mut Record, _rng: &mut SimRng) {}
        }
        impl SeededInit for Split {
            fn init_state(&self, index: usize, n: usize) -> Record {
                Record {
                    value: u64::from(index < n / 4),
                    touched: false,
                }
            }
        }
        let interned = Interned::new(Split);
        let handle = interned.handle();
        let config = interned.initial_config(1000);
        assert_eq!(config.population_size(), 1000);
        assert_eq!(
            handle.count_of(
                &config,
                &Record {
                    value: 1,
                    touched: false
                }
            ),
            250
        );
    }
}
