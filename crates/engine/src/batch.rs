//! Batched configuration-vector simulation: `o(1)` amortized work per
//! interaction for deterministic protocols on large populations.
//!
//! This is the batching algorithm of Berenbrink, Hammer, Kaaser, Meyer,
//! Penschuck & Tran (ESA 2020) — the engine inside Doty & Severson's `ppsim`
//! tool — specialized to this crate's ordered receiver/sender scheduler.
//! The key observation: as long as the uniformly drawn interaction pairs
//! involve only agents not yet touched in the current batch, the interactions
//! are exchangeable, so their *aggregate effect* can be sampled directly in
//! terms of state counts without materializing individual pairs:
//!
//! 1. **Collision length.** The number `T` of consecutive interactions whose
//!    agents are all distinct follows the birthday-collision distribution
//!    `P(T ≥ t) = n! / ((n-2t)!·nᵗ·(n-1)ᵗ)`. `T` depends only on `n`, so its
//!    survival function is precomputed once and inverted with a binary
//!    search per batch. `E[T] = Θ(√n)`.
//! 2. **Batch fill.** The `2T` distinct agents form a uniform
//!    without-replacement draw from the population. Receiver states, sender
//!    states, and the receiver↔sender pairing contingency table are realized
//!    as iterated conditional hypergeometric draws
//!    ([`crate::rng::hypergeometric`]), exactly — never approximately, so
//!    counts can never go negative or oversample a state. Most fill draws
//!    are tiny (a receiver row's handful of partners), and a draw whose
//!    smallest side is at most 16 is realized item by item with integer
//!    draws; only larger ones invert the pmf from its mode.
//! 3. **Bulk application.** Transitions are applied as count deltas through
//!    a lazily built dense `k×k` table of per-pair *outcome laws* over the
//!    discovered state space, independent of `T`. Beside the table, each
//!    state owns two bit rows over the state ids: bit `b` of its *analyzed*
//!    row is set once the pair `(a, b)` has been analyzed, and bit `b` of
//!    its *live* row if that pair is not certainly null. The per-batch pair
//!    scans (productive weight, null-skip pick, reactive rows and columns)
//!    AND these rows with a mask of the occupied states, so they cost
//!    `O(k·⌈k/64⌉)` word operations plus one count load per selected pair
//!    instead of one table probe per pair, and never decode a law. A
//!    pair's law is one of three kinds (see `PairLaw`):
//!    * **deterministic** — the classic case: one count delta per pair;
//!    * **random with finite support** — the protocol enumerated the
//!      outcome distribution via [`CountProtocol::outcomes`]; the pair's
//!      whole batch count is split over the outcomes with one exact
//!      multinomial draw ([`crate::rng::multinomial_conditional`]) — the
//!      ppsim treatment of randomized transitions;
//!    * **sampled** — unbounded or unenumerated support; only these pairs
//!      fall back to one [`CountProtocol::transition`] call per
//!      interaction, still exact and still cheaper than sequential
//!      simulation (no pair draw, no per-interaction bookkeeping).
//! 4. **Collision interaction.** The first colliding interaction is
//!    simulated individually: conditioned on colliding at position `T+1`,
//!    the repeated agent is uniform over the batch's touched (already
//!    updated) agents and its partner uniform over the appropriate
//!    complement. The batch then merges and the process restarts — valid
//!    because the underlying interaction sequence is memoryless.
//!
//! Per batch the simulator does `O(k·⌈k/64⌉ + √n·σ⁻¹)`-ish work for
//! `Θ(√n)` interactions, so amortized per-interaction cost *decreases* with
//! population size — the `table_epidemic` sweep at `n = 10⁷` runs hundreds
//! of times faster than the sequential [`CountSim`](crate::CountSim).
//!
//! 5. **Null-interaction skipping.** When the probability `p` that a uniform
//!    ordered pair is *productive* (its transition changes a state) is so
//!    small that a whole batch would contain fewer than a handful of
//!    productive interactions, batching stops paying. The simulator then
//!    switches to a Gillespie-style mode: the distance to the next
//!    productive interaction is geometric with parameter `p`, so it samples
//!    that run length in O(1), advances the interaction clock past the
//!    skipped null interactions (which by definition do not change the
//!    configuration), and applies the single productive interaction drawn
//!    from the productive-pair distribution. Both phases of an epidemic tail
//!    (`p = Θ(1/n)`) cost O(1) per *infection* instead of O(√n) per batch of
//!    mostly-null interactions. The mode choice is re-evaluated before every
//!    batch from the current configuration, so runs glide between modes as
//!    density evolves.
//!
//! The engine is exact for *every* [`CountProtocol`], randomized or not.
//! Whether it is the *fast* choice depends on the occupied state count `k`
//! (per-batch work grows with `k²`): protocols signal their preference via
//! [`CountProtocol::prefers_batching`], which the
//! [`ConfigSim`](crate::ConfigSim) facade consults together with the
//! population size. Small populations, where batches are short and
//! constants dominate, fall back to the sequential simulator.
//!
//! ## Observability
//!
//! Attach a [`pp_telemetry::Metrics`] registry
//! ([`BatchedCountSim::set_metrics`] /
//! [`ConfigSim::set_metrics`](crate::ConfigSim::set_metrics), or let the
//! `Simulation` builders thread one through) and the engines record at
//! their existing decision points — never creating new ones:
//!
//! * `batches` + the `batch_len` histogram — every completed batch in
//!   [`BatchedCountSim::run_batch`], with its executed length (truncation
//!   and the collision interaction included).
//! * `null_skip_runs` / `null_skipped` + the `null_skip_len` histogram —
//!   every Gillespie null-skip step (and the silent-configuration fast
//!   path), with the span of certainly-null interactions it skipped.
//! * `mode_switches` / `switches_to_batched` / `switches_to_sequential`,
//!   plus `adapt_support` / `adapt_mean_batch` histograms — the Auto-mode
//!   re-selection checkpoint: each decision logs the occupied support and
//!   the `E[T]` it was weighed against; each actual switch bumps the
//!   direction counter and emits a `mode_switch` trace event.
//! * `gc_passes` / `gc_evicted` + `gc_table_len` / `gc_live` histograms —
//!   each interner-GC pass, with the pre-pass table size and the live
//!   survivor count (`gc_pass` trace event).
//! * `dense_lane_episodes` / `dense_lane_interactions` + the
//!   `dense_lane_n` histogram — each per-agent lane episode taken by a
//!   sequential advance (`dense_lane` trace event).
//! * `pair_cache_*` / `slot_*` — the wrapped adapter's cumulative
//!   tallies, flushed as deltas at the same checkpoints.
//!
//! Every hook is observation-only: no counter is read back into a branch
//! and no hook touches the RNG, so a run with telemetry attached is
//! byte-for-byte identical to the same run without it
//! (`tests/telemetry_neutrality.rs` enforces this across all engines).

use std::collections::BTreeMap;

use pp_telemetry::{Counter, Hist, Metrics};
use rand::Rng;

use crate::count_sim::{occupied_in_state_order, CountConfiguration, CountProtocol, Outcomes};
use crate::rng::{geometric, hypergeometric, multinomial_conditional, rng_from_seed, SimRng};
use crate::scheduler::parallel_time;
use crate::slot_index::{fnv_hash, SlotIndex, SlotIndexStats};

/// A [`CountProtocol`] whose transition function is a pure function of the
/// two input states. Implementing this trait (instead of `CountProtocol`
/// directly) is the opt-in for batched simulation: a blanket impl provides
/// `CountProtocol` with [`CountProtocol::is_deterministic`] returning
/// `true`, which lets [`ConfigSim`](crate::ConfigSim)'s Auto mode select
/// [`BatchedCountSim`] at large population sizes.
pub trait DeterministicCountProtocol {
    /// Agent state; must be orderable so configurations have a canonical form.
    type State: Copy + Ord + std::hash::Hash + std::fmt::Debug;

    /// Computes the post-interaction states `(rec', sen')` deterministically.
    fn transition_det(&self, rec: Self::State, sen: Self::State) -> (Self::State, Self::State);

    /// See [`CountProtocol::prefers_batching`]. Deterministic protocols
    /// default to batching; ones whose *occupied* state space grows large
    /// (per-batch work is `O(k²)`) should override to `false` and stay on
    /// the sequential count engine.
    fn prefers_batching(&self) -> bool {
        true
    }
}

impl<P: DeterministicCountProtocol> CountProtocol for P {
    type State = P::State;

    fn transition(
        &self,
        rec: Self::State,
        sen: Self::State,
        _rng: &mut SimRng,
    ) -> (Self::State, Self::State) {
        self.transition_det(rec, sen)
    }

    fn outcomes(&self, rec: Self::State, sen: Self::State) -> Option<Outcomes<Self::State>> {
        let (c, d) = self.transition_det(rec, sen);
        Some(Outcomes::Deterministic(c, d))
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn prefers_batching(&self) -> bool {
        DeterministicCountProtocol::prefers_batching(self)
    }
}

/// Truncate the precomputed collision-survival table once `P(T ≥ t)` drops
/// below this; deeper tail values are extended on the fly (practically
/// never: one draw in ~10¹⁸).
const SURVIVAL_CUTOFF: f64 = 1e-18;

/// Sentinel marking a law-table entry not yet computed.
const UNCOMPUTED: u32 = u32::MAX;

/// Index of the shared [`PairLaw::Sampled`] law (always `laws[0]`).
const LAW_SAMPLED: u32 = 0;

/// The analyzed outcome law of one ordered state-id pair, as the batched
/// engine applies it.
#[derive(Debug, Clone)]
enum PairLaw {
    /// The transition always produces these output ids: a whole batch count
    /// is applied as one delta.
    Det(u32, u32),
    /// Finite outcome support ([`Outcomes::Random`]): a batch count is split
    /// over the outcomes with one exact multinomial draw.
    Random {
        /// Output id pairs with positive probability.
        outs: Vec<(u32, u32)>,
        /// Renormalized outcome probabilities (same order as `outs`).
        probs: Vec<f64>,
    },
    /// Unbounded or unenumerated outcome support: each interaction of this
    /// pair samples [`CountProtocol::transition`] individually.
    Sampled,
}

/// Switch to the null-skipping (Gillespie) mode when the expected number of
/// productive interactions per batch drops below this. It stands for the
/// cost ratio between one batch and one skip step (a geometric draw plus a
/// weighted pair pick), so that at the crossover both modes spend the same
/// wall time per productive interaction. A batch is not "a few" draws:
/// for `WeakEstimator` at `n = 10⁷` (trial seed `derive_seed(11, 0)`,
/// 56,008 batches, 2-core x86-64 host) it averages ~169 hypergeometric
/// fill draws (~54 by chop-down at ~60 ns each, the rest item by item at
/// ~20–25 ns), ~42 population draws (~34 by chop-down at ~100 ns each,
/// two thirds of that the mode pmf's logarithms and `exp`). A seed-7
/// trial counted ~131 sampled per-interaction transitions per batch, and
/// ~0.3 µs for its two pair scans over the ~23 occupied states. The
/// factor decides which draws happen, so it is a trajectory input, not a
/// tuning knob: changing it changes every batched run.
const NULL_SKIP_FACTOR: f64 = 6.0;

/// Batched simulator over a configuration vector.
///
/// Realizes exactly the same stochastic process as
/// [`CountSim`](crate::CountSim) (uniform ordered pairs of distinct agents)
/// for *any* protocol — deterministic transitions and finite outcome
/// distributions are bulk-applied; pairs with unbounded outcome support
/// are sampled per interaction inside the batch. Construct directly, or
/// let [`ConfigSim`](crate::ConfigSim)'s Auto mode choose.
pub struct BatchedCountSim<P: CountProtocol> {
    protocol: P,
    rng: SimRng,
    n: u64,
    interactions: u64,
    /// Discovered states, id-indexed.
    states: Vec<P::State>,
    /// Open-addressed state → id lookup (probes against `states`).
    index: SlotIndex,
    /// Current configuration counts, id-indexed.
    counts: Vec<u64>,
    /// Row stride (capacity) of `table`; grown geometrically so state
    /// discovery costs `O(cap)` amortized per new state, not `O(cap²)`.
    cap: usize,
    /// Dense law-index table: entry `[a·cap + b]` points into `laws`, or is
    /// [`UNCOMPUTED`].
    table: Vec<u32>,
    /// Which pairs of `table` are analyzed and which are not certainly
    /// null, as bit rows with `cap` rows.
    bits: PairBits,
    /// Analyzed pair laws; `laws[0]` is the shared [`PairLaw::Sampled`].
    laws: Vec<PairLaw>,
    /// `survival[t] = P(T ≥ t)`: precomputed birthday-collision survival.
    survival: Vec<f64>,
    /// Whether `survival` ends because batches cannot exceed `⌊n/2⌋`
    /// interactions (vs. the probability cutoff).
    boundary_reached: bool,
    /// `E[T]` (mean collision-free batch length), precomputed from
    /// `survival`; drives the batch-vs-null-skip mode decision.
    expected_batch_len: f64,
    // Scratch buffers reused across batches (taken/restored to appease the
    // borrow checker without per-batch allocation).
    recv: Vec<u64>,
    send: Vec<u64>,
    touched: Vec<u64>,
    /// Observability: attached counter registry, if any. Recording is
    /// observation-only — no branch reads a counter back and no hook
    /// touches the RNG — so attached and detached runs are byte-identical.
    metrics: Option<Metrics>,
}

impl<P: CountProtocol> BatchedCountSim<P> {
    /// Creates a batched simulator from an initial configuration.
    ///
    /// Accepts any protocol: randomized transitions are bulk-applied when
    /// the protocol enumerates their outcome distributions
    /// ([`CountProtocol::outcomes`]) and sampled per interaction otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than 2 agents.
    pub fn new(protocol: P, config: CountConfiguration<P::State>, seed: u64) -> Self {
        Self::from_parts(protocol, config, rng_from_seed(seed), 0)
    }

    /// Rebuilds a batched simulator mid-run from its constituent parts,
    /// carrying the RNG stream and interaction clock across an engine switch
    /// (see [`ConfigSim`](crate::ConfigSim)'s adaptive re-selection). The
    /// slots take the configuration's state order.
    pub(crate) fn from_parts(
        protocol: P,
        config: CountConfiguration<P::State>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        let (states, counts) = config.iter().map(|(&s, &c)| (s, c)).unzip();
        Self::from_snapshot_parts(protocol, states, counts, rng, interactions)
    }

    /// Builds a batched simulator on the slot tables `states` /
    /// `counts` (value-distinct states, slot for slot): the one constructor
    /// [`BatchedCountSim::new`] and engine switches also go through. A
    /// snapshot restore passes the internal discovery-order layout and the
    /// RNG stream verbatim, so a restored simulator continues byte-for-byte
    /// identically to the snapshotted one. The law table is rebuilt
    /// lazily, which is trajectory-neutral because law analysis never
    /// reads the RNG.
    ///
    /// # Panics
    ///
    /// Panics if the tables differ in length or hold fewer than 2 or more
    /// than `u32::MAX` agents.
    pub(crate) fn from_snapshot_parts(
        protocol: P,
        states: Vec<P::State>,
        counts: Vec<u64>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        assert_eq!(states.len(), counts.len(), "slot tables disagree");
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        assert!(
            n <= u32::MAX as u64,
            "pair-weight arithmetic requires n² to fit in u64"
        );
        let (survival, boundary_reached) = collision_survival(n);
        let expected_batch_len = survival.iter().skip(1).sum();
        let mut sim = Self {
            protocol,
            rng,
            n,
            interactions,
            states: Vec::new(),
            index: SlotIndex::new(),
            counts: Vec::new(),
            cap: 0,
            table: Vec::new(),
            bits: PairBits::new(0),
            laws: Vec::new(),
            survival,
            boundary_reached,
            expected_batch_len,
            recv: Vec::new(),
            send: Vec::new(),
            touched: Vec::new(),
            metrics: None,
        };
        sim.set_slots(states, counts);
        sim
    }

    /// The slot-table builder behind every constructor and GC pass:
    /// installs the value-distinct `states` as ids `0..k` holding `counts`,
    /// indexes them, resets the law table and its bit rows to lazy
    /// analysis at capacity `max(k, 4)`, and sizes the scratch buffers for
    /// `k` states.
    fn set_slots(&mut self, states: Vec<P::State>, counts: Vec<u64>) {
        let mut index = SlotIndex::with_capacity(states.len());
        for (id, s) in states.iter().enumerate() {
            let id = u32::try_from(id).expect("more than u32::MAX states");
            index.insert(fnv_hash(s), id, |i| fnv_hash(&states[i as usize]));
        }
        let k = states.len();
        self.states = states;
        self.counts = counts;
        self.index = index;
        self.cap = k.max(4);
        self.table = vec![UNCOMPUTED; self.cap * self.cap];
        self.bits = PairBits::new(self.cap);
        self.laws = vec![PairLaw::Sampled];
        self.recv = vec![0; k];
        self.send = vec![0; k];
        self.touched = vec![0; k];
    }

    /// Decomposes the simulator into `(protocol, configuration, rng,
    /// interactions)` so an engine switch can hand the run to
    /// [`CountSim`](crate::CountSim) without losing state.
    pub(crate) fn into_parts(self) -> (P, CountConfiguration<P::State>, SimRng, u64) {
        let config = self
            .states
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&s, &c)| (s, c))
            .collect();
        (self.protocol, config, self.rng, self.interactions)
    }

    /// Checkpoint accessor: the internal discovery-order slot tables plus
    /// the RNG stream. The returned counts are padded to the state-table
    /// length (they can transiently lag it by construction), so the two
    /// vectors always pair up slot for slot.
    pub(crate) fn snapshot_parts(&self) -> (&[P::State], Vec<u64>, &SimRng) {
        let mut counts = self.counts.clone();
        counts.resize(self.states.len(), 0);
        (&self.states, counts, &self.rng)
    }

    /// Number of *occupied* states (non-zero counts) — the `k` that drives
    /// the `O(k²)` per-batch law-table work.
    pub(crate) fn occupied_support(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The protocol being simulated.
    pub(crate) fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Runs one interner-GC pass ([`CountProtocol::collect_table`]) rooted
    /// at the occupied states, dropping the dead discovered states from
    /// the engine's own tables in the same pass: the state list and counts
    /// are compacted to the occupied support (relative order preserved, so
    /// the nonzero-slot sequence every fill loop walks is unchanged), and
    /// the dense law table — whose entries point at evicted ids — is reset
    /// to lazy re-analysis at live-support capacity. Returns whether the
    /// protocol performed a collection. Consumes no randomness.
    pub(crate) fn collect_table(&mut self) -> bool {
        let roots: Vec<P::State> = self
            .states
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c > 0)
            .map(|(&s, _)| s)
            .collect();
        let Some(renames) = self.protocol.collect_table(&roots) else {
            return false;
        };
        let map: BTreeMap<P::State, P::State> = renames.into_iter().collect();
        let states = roots
            .iter()
            .map(|old| {
                *map.get(old)
                    .unwrap_or_else(|| panic!("GC renaming is missing occupied state {old:?}"))
            })
            .collect();
        let counts = self.counts.iter().copied().filter(|&c| c > 0).collect();
        self.set_slots(states, counts);
        true
    }

    /// Mean collision-free batch length `E[T] = Θ(√n)`.
    pub(crate) fn mean_batch_len(&self) -> f64 {
        self.expected_batch_len
    }

    /// Attaches a telemetry registry: every batch records its executed
    /// length (`batches` / `batch_len`) and every null-skip run its skipped
    /// span (`null_skip_runs` / `null_skipped` / `null_skip_len`).
    /// Recording never reads the RNG or influences a branch, so attached
    /// and detached runs stay byte-identical.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.metrics = Some(metrics);
    }

    /// Observability: cumulative stats from the engine's own state → id
    /// index (reset when a GC pass or engine switch rebuilds the tables).
    pub(crate) fn index_stats(&self) -> SlotIndexStats {
        self.index.stats()
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

    /// Looks `state` up in the open-addressed index (`None` if undiscovered).
    #[inline]
    fn slot_lookup(&self, state: &P::State) -> Option<usize> {
        self.index
            .get(fnv_hash(state), |id| self.states[id as usize] == *state)
            .map(|id| id as usize)
    }

    /// Count of agents currently in `state`.
    pub fn count(&self, state: &P::State) -> u64 {
        self.slot_lookup(state).map_or(0, |id| self.counts[id])
    }

    /// Writes the occupied `(state, count)` pairs into `out` in state
    /// order (see [`ConfigSim::view_into`](crate::ConfigSim::view_into)).
    pub(crate) fn view_into(&self, out: &mut Vec<(P::State, u64)>) {
        occupied_in_state_order(&self.states, &self.counts, out);
    }

    /// Executes at least one and at most `budget` interactions, choosing
    /// between one collision-length batch and one null-skip (Gillespie)
    /// step based on the current productive-pair density. Returns the
    /// number executed.
    pub fn advance(&mut self, budget: u64) -> u64 {
        debug_assert!(budget >= 1);
        let w_prod = self.productive_weight();
        if w_prod == 0 {
            // Silent configuration: every future interaction is a no-op.
            self.interactions += budget;
            if let Some(m) = &self.metrics {
                m.incr(Counter::NullSkipRuns);
                m.add(Counter::NullSkipped, budget);
                m.record(Hist::NullSkipLen, budget);
            }
            return budget;
        }
        let p = w_prod as f64 / (self.n * (self.n - 1)) as f64;
        if p * self.expected_batch_len < NULL_SKIP_FACTOR {
            self.null_skip_step(budget, w_prod, p)
        } else {
            self.run_batch(budget)
        }
    }

    /// Total weight `Σ c_a·(c_b - [a = b])` over *possibly-productive*
    /// ordered state pairs — `n(n-1)` times the probability that the next
    /// interaction lands on a pair whose law could change the configuration
    /// (random laws with any non-identity outcome, and all sampled laws,
    /// count as productive). Analyzes the occupied pairs not yet analyzed.
    fn productive_weight(&mut self) -> u64 {
        if self.counts.len() <= 64 {
            self.productive_weight_in::<[u64; 1]>()
        } else {
            self.productive_weight_in::<Vec<u64>>()
        }
    }

    /// [`BatchedCountSim::productive_weight`] over `M` masks.
    fn productive_weight_in<M: Mask>(&mut self) -> u64 {
        let present = M::of(&self.counts);
        let present = present.as_ref();
        let mut w = 0;
        for a in ones(present) {
            self.analyze_row(a, present);
            w += self.bits.row_weight(a, present, &self.counts, self.n);
        }
        w
    }

    /// The possibly-productive pair `(a, b)` at offset `z` below the
    /// productive weight, in ascending `(a, b)` order, each pair weighing
    /// `c_a·(c_b − [a = b])`. Every occupied pair must be analyzed, as
    /// [`BatchedCountSim::productive_weight`] leaves them.
    fn pick_productive(&self, z: u64) -> (usize, usize) {
        if self.counts.len() <= 64 {
            self.bits
                .pick(&<[u64; 1]>::of(&self.counts), &self.counts, self.n, z)
        } else {
            self.bits
                .pick(&Vec::of(&self.counts), &self.counts, self.n, z)
        }
    }

    /// Gillespie-style step: samples the geometric run of certainly-null
    /// interactions before the next possibly-productive one, skips it in
    /// O(1), and simulates that single interaction (pair drawn ∝ its
    /// weight, outcome sampled from its law — which may itself turn out to
    /// be a no-op for random laws with identity outcomes; that is still
    /// exact). If the run exceeds `budget`, exactly `budget` null
    /// interactions elapse instead — valid because certainly-null
    /// interactions cannot change the configuration and the underlying pair
    /// sequence is i.i.d.
    fn null_skip_step(&mut self, budget: u64, w_prod: u64, p: f64) -> u64 {
        let g = geometric(p, &mut self.rng);
        if g > budget {
            self.interactions += budget;
            if let Some(m) = &self.metrics {
                m.incr(Counter::NullSkipRuns);
                m.add(Counter::NullSkipped, budget);
                m.record(Hist::NullSkipLen, budget);
            }
            return budget;
        }
        let z = self.rng.gen_range(0..w_prod);
        let (a, b) = self.pick_productive(z);
        let (c, d) = self.apply_one(a, b);
        self.counts[a] -= 1;
        self.counts[b] -= 1;
        grow_to(&mut self.counts, self.states.len());
        self.counts[c] += 1;
        self.counts[d] += 1;
        self.interactions += g;
        if let Some(m) = &self.metrics {
            m.incr(Counter::NullSkipRuns);
            // `g - 1` of the run were skipped nulls; the last interaction
            // was simulated individually above.
            m.add(Counter::NullSkipped, g.saturating_sub(1));
            m.record(Hist::NullSkipLen, g);
        }
        g
    }

    /// Executes at least one and at most `budget` interactions (one batch,
    /// possibly truncated to the budget). Returns the number executed.
    // Kept out of line: inlined, the batch body is copied into every
    // caller of `advance`, which only grows the binary.
    #[inline(never)]
    pub fn run_batch(&mut self, budget: u64) -> u64 {
        debug_assert!(budget >= 1);
        let n = self.n;
        let t_collision = self.sample_batch_len();
        // Truncating a batch at a deterministic budget is exact: the
        // collision-free prefix of a longer batch has the same law as a
        // batch of the prefix length (without-replacement exchangeability).
        let (t, with_collision) = if t_collision >= budget {
            (budget, false)
        } else {
            (t_collision, true)
        };
        let k0 = self.states.len();
        let mut recv = std::mem::take(&mut self.recv);
        let mut send = std::mem::take(&mut self.send);
        let mut touched = std::mem::take(&mut self.touched);
        recv.clear();
        recv.resize(k0, 0);
        send.clear();
        send.resize(k0, 0);
        touched.clear();
        touched.resize(k0, 0);

        // Batch fill: receiver multiset, then sender multiset, drawn without
        // replacement from the configuration (counts become the untouched
        // pool U as draws are subtracted).
        draw_without_replacement(&mut self.counts, n, t, &mut recv, &mut self.rng);
        draw_without_replacement(&mut self.counts, n - t, t, &mut send, &mut self.rng);

        let (one_word, wide);
        let (rows, cols): (&[u64], &[u64]) = if k0 <= 64 {
            one_word = self.classify::<[u64; 1]>(&recv, &send);
            (&one_word.0, &one_word.1)
        } else {
            wide = self.classify::<Vec<u64>>(&recv, &send);
            (&wide.0, &wide.1)
        };
        self.fill_serial(&recv, &mut send, t, &mut touched, rows, cols);

        let mut executed = t;
        if with_collision {
            self.collision_interaction(t, &mut touched, &mut send);
            executed += 1;
        }

        // Merge the touched (updated) agents and the undisturbed senders
        // back into the configuration.
        grow_to(&mut self.counts, self.states.len());
        for (c, &d) in self.counts.iter_mut().zip(&touched) {
            *c += d;
        }
        for (c, &s) in self.counts.iter_mut().zip(&send) {
            *c += s;
        }
        self.interactions += executed;
        if let Some(m) = &self.metrics {
            m.incr(Counter::Batches);
            m.record(Hist::BatchLen, executed);
        }

        self.recv = recv;
        self.send = send;
        self.touched = touched;
        executed
    }

    /// Classifies a batch's rows and columns: returns the masks of the
    /// reactive receiver rows and reactive sender columns among the
    /// receiver states `recv` and sender states `send`, analyzing their
    /// pairs not yet analyzed (see [`PairBits::reactive`]).
    fn classify<M: Mask>(&mut self, recv: &[u64], send: &[u64]) -> (M, M) {
        let (recv, send) = (M::of(recv), M::of(send));
        for a in ones(recv.as_ref()) {
            self.analyze_row(a, send.as_ref());
        }
        self.bits.reactive(&recv, &send)
    }

    /// Analyzes every not yet analyzed pair `(a, b)` with `b` in `cols`, in
    /// ascending `b` order. Analysis interns the pairs' output states, so
    /// the scans visit rows in ascending order and call this before
    /// reading a row: the `(a, b)` order fixes the state ids, and with them
    /// the trajectory.
    #[inline]
    fn analyze_row(&mut self, a: usize, cols: &[u64]) {
        for (i, &col) in cols.iter().enumerate() {
            // Rows are relaid when `cap` grows mid-pass, so each word is
            // read afresh.
            let todo = col & !self.bits.analyzed_word(a, i);
            if todo != 0 {
                self.analyze_word(a, i, todo);
            }
        }
    }

    /// The cold half of [`BatchedCountSim::analyze_row`]: analyzes the
    /// pairs `(a, 64·i + b)` for the set bits `b` of `todo`, ascending.
    #[cold]
    #[inline(never)]
    fn analyze_word(&mut self, a: usize, i: usize, todo: u64) {
        for b in bits(todo) {
            self.analyze_entry(a, i * 64 + b);
        }
    }

    /// The classic serial pairing contingency of a batch of `t`
    /// interactions with receiver states `recv` and sender states `send`:
    /// the reactive receiver `rows` ([`BatchedCountSim::classify`]) draw
    /// their partner splits over the reactive sender `cols` — an iterated
    /// conditional hypergeometric realization of the uniform bipartite
    /// matching. Whatever a row still needs after the reactive columns
    /// comes from the pooled non-reactive columns: those pairings are
    /// identity, so only the pool's total (tracked via `send_total`)
    /// matters, never which non-reactive state each partner held.
    /// Non-reactive rows draw nothing (the matching is exchangeable):
    /// their receivers keep their states, added to `touched` up front, and
    /// their partners — all of `send`'s leftovers — keep theirs, merged
    /// back wholesale by [`BatchedCountSim::run_batch`].
    fn fill_serial(
        &mut self,
        recv: &[u64],
        send: &mut [u64],
        t: u64,
        touched: &mut Vec<u64>,
        rows: &[u64],
        cols: &[u64],
    ) {
        let mut send_total = t;
        for (a, &ra) in recv.iter().enumerate() {
            if rows[a / 64] >> (a % 64) & 1 == 0 {
                touched[a] += ra;
            }
        }
        for a in ones(rows) {
            let mut need = recv[a];
            let mut pool = send_total;
            for b in ones(cols) {
                if need == 0 {
                    break;
                }
                let sb = send[b];
                if sb == 0 {
                    continue;
                }
                let m = if pool == sb {
                    need
                } else {
                    hypergeometric(pool, sb, need, &mut self.rng)
                };
                pool -= sb;
                if m == 0 {
                    continue;
                }
                let li = self.law_index(a, b);
                self.apply_bulk(li, a, b, m, touched);
                send[b] -= m;
                send_total -= m;
                need -= m;
            }
            if need > 0 {
                // Partners from the non-reactive pool: receiver unchanged,
                // senders stay in `send` (their states are unchanged too).
                touched[a] += need;
                send_total -= need;
            }
        }
    }

    /// Simulates the first colliding interaction exactly.
    ///
    /// Conditioned on the first repeated agent pick happening at interaction
    /// `t+1` with `2t` agents touched, the repeat is at the receiver
    /// position with probability `(n-1)/(2n-2t-1)`; the repeated agent is
    /// uniform over the batch's `2t` agents — the `touched` multiset plus
    /// the senders still sitting (state-unchanged) in `send` — and its
    /// partner uniform over the appropriate complement.
    fn collision_interaction(&mut self, t: u64, touched: &mut Vec<u64>, send: &mut [u64]) {
        let n = self.n;
        let untouched_total = n - 2 * t;
        // P(collision at receiver | collision at interaction t+1).
        let p_rec = (n - 1) as f64 / (2 * n - 2 * t - 1) as f64;
        let u: f64 = self.rng.gen();
        let (rec_id, sen_id) = if u < p_rec {
            // Receiver is a batch agent; sender is uniform over the other
            // n-1 agents (untouched or batch).
            let rec = take_from_batch(touched, send, self.rng.gen_range(0..2 * t));
            let z = self.rng.gen_range(0..n - 1);
            let sen = if z < untouched_total {
                let s = draw_one(&self.counts, z);
                self.counts[s] -= 1;
                s
            } else {
                take_from_batch(touched, send, z - untouched_total)
            };
            (rec, sen)
        } else {
            // Receiver is a fresh untouched agent; the colliding sender is a
            // batch agent (distinct from the receiver automatically).
            let rec = draw_one(&self.counts, self.rng.gen_range(0..untouched_total));
            self.counts[rec] -= 1;
            let sen = take_from_batch(touched, send, self.rng.gen_range(0..2 * t));
            (rec, sen)
        };
        let (c, d) = self.apply_one(rec_id, sen_id);
        grow_to(touched, self.states.len());
        touched[c] += 1;
        touched[d] += 1;
    }

    /// Samples the number of collision-free interactions before the next
    /// repeated agent pick (capped at `⌊n/2⌋` where a repeat is certain).
    fn sample_batch_len(&mut self) -> u64 {
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        // survival is decreasing with survival[0] = 1; T = max{t : P(T≥t) ≥ u}.
        let idx = self.survival.partition_point(|&f| f >= u);
        if idx < self.survival.len() || self.boundary_reached {
            return (idx - 1) as u64;
        }
        // Tail beyond the precomputed cutoff (probability < SURVIVAL_CUTOFF):
        // extend the recurrence on the fly.
        let n = self.n;
        let denom = (n as f64) * ((n - 1) as f64);
        let mut t = (self.survival.len() - 1) as u64;
        let mut f = *self.survival.last().expect("survival table is non-empty");
        loop {
            let remaining = n - 2 * t;
            if remaining < 2 {
                return t;
            }
            f *= (remaining as f64) * ((remaining - 1) as f64) / denom;
            if f < u {
                return t;
            }
            t += 1;
        }
    }

    /// The outcome law of the ordered state-id pair `(a, b)` as an index
    /// into `laws` (analyzed on first use).
    #[inline]
    fn law_index(&mut self, a: usize, b: usize) -> u32 {
        let entry = self.table[a * self.cap + b];
        if entry != UNCOMPUTED {
            return entry;
        }
        self.analyze_entry(a, b)
    }

    /// The cold half of [`BatchedCountSim::law_index`]: analyzes the pair,
    /// interning any newly discovered output states, stores its entry and
    /// sets its bits.
    #[cold]
    #[inline(never)]
    fn analyze_entry(&mut self, a: usize, b: usize) -> u32 {
        let idx = self.analyze_pair(a, b);
        assert!(idx != UNCOMPUTED, "law table overflow: {idx} laws");
        let live = !self.law_is_null(idx, a, b);
        // `analyze_pair` may have interned states and grown `cap`, so the
        // offsets must be recomputed after it returns.
        self.table[a * self.cap + b] = idx;
        self.bits.set(a, b, live);
        idx
    }

    /// Builds the [`PairLaw`] for `(a, b)` from the protocol's outcome
    /// enumeration (or the shared sampled law).
    fn analyze_pair(&mut self, a: usize, b: usize) -> u32 {
        let (sa, sb) = (self.states[a], self.states[b]);
        let law = match self.protocol.outcomes(sa, sb) {
            Some(Outcomes::Deterministic(c, d)) => {
                let ci = self.intern(c) as u32;
                let di = self.intern(d) as u32;
                PairLaw::Det(ci, di)
            }
            Some(Outcomes::Random(support)) => self.analyze_random(support),
            None => return LAW_SAMPLED,
        };
        self.laws.push(law);
        (self.laws.len() - 1) as u32
    }

    /// Validates, renormalizes, and interns a finite outcome distribution.
    fn analyze_random(&mut self, support: Vec<(P::State, P::State, f64)>) -> PairLaw {
        assert!(
            !support.is_empty(),
            "Outcomes::Random must have at least one outcome"
        );
        let total: f64 = support.iter().map(|&(_, _, p)| p).sum();
        assert!(
            support.iter().all(|&(_, _, p)| p >= 0.0) && (total - 1.0).abs() < 1e-6,
            "outcome probabilities must be non-negative and sum to 1, got sum {total}"
        );
        let mut outs: Vec<(u32, u32)> = Vec::with_capacity(support.len());
        let mut probs: Vec<f64> = Vec::with_capacity(support.len());
        for (c, d, p) in support {
            let ci = self.intern(c) as u32;
            let di = self.intern(d) as u32;
            // Merge duplicate outcome pairs so the multinomial split stays
            // minimal.
            if let Some(j) = outs.iter().position(|&o| o == (ci, di)) {
                probs[j] += p / total;
            } else {
                outs.push((ci, di));
                probs.push(p / total);
            }
        }
        if outs.len() == 1 {
            return PairLaw::Det(outs[0].0, outs[0].1);
        }
        PairLaw::Random { outs, probs }
    }

    /// Whether every outcome of the pair's law maps `(a, b)` to itself —
    /// i.e. the pair is certainly null and eligible for skipping. Sampled
    /// pairs are conservatively treated as productive. Evaluated once per
    /// pair, at analysis; the scans read the pair's live bit.
    fn law_is_null(&self, idx: u32, a: usize, b: usize) -> bool {
        let ab = (a as u32, b as u32);
        match &self.laws[idx as usize] {
            PairLaw::Det(c, d) => (*c, *d) == ab,
            PairLaw::Random { outs, .. } => outs.iter().all(|&o| o == ab),
            PairLaw::Sampled => false,
        }
    }

    /// Applies `m` interactions of the input pair `(a, b)` in bulk, adding
    /// the output states to `touched`. Deterministic laws apply one delta;
    /// random laws split `m` over the outcomes with one exact multinomial
    /// draw; sampled laws fall back to one `transition` call per
    /// interaction (still exact — just not amortized).
    fn apply_bulk(&mut self, idx: u32, a: usize, b: usize, m: u64, touched: &mut Vec<u64>) {
        // Law analysis may have discovered states after `touched` was sized.
        grow_to(touched, self.states.len());
        match &self.laws[idx as usize] {
            PairLaw::Det(c, d) => {
                touched[*c as usize] += m;
                touched[*d as usize] += m;
            }
            PairLaw::Random { outs, probs, .. } => {
                let split = multinomial_conditional(m, probs, &mut self.rng);
                for (&(c, d), x) in outs.iter().zip(split) {
                    touched[c as usize] += x;
                    touched[d as usize] += x;
                }
            }
            PairLaw::Sampled => {
                let (sa, sb) = (self.states[a], self.states[b]);
                for _ in 0..m {
                    let (sc, sd) = self.protocol.transition(sa, sb, &mut self.rng);
                    let ci = self.sampled_output_id(sc, (sa, a), (sb, b));
                    let di = self.sampled_output_id(sd, (sa, a), (sb, b));
                    grow_to(touched, self.states.len());
                    touched[ci] += 1;
                    touched[di] += 1;
                }
            }
        }
    }

    /// The id of a sampled transition's output `state`, given the pair's
    /// input states with their ids. Sampled outputs often repeat an input
    /// state, whose id is already known, so only a different state pays
    /// for a hash lookup in [`BatchedCountSim::intern`].
    #[inline]
    fn sampled_output_id(
        &mut self,
        state: P::State,
        (sa, a): (P::State, usize),
        (sb, b): (P::State, usize),
    ) -> usize {
        let id = if state == sa {
            a
        } else if state == sb {
            b
        } else {
            return self.intern(state);
        };
        debug_assert_eq!(self.slot_lookup(&state), Some(id));
        id
    }

    /// Simulates a single interaction of the input pair `(a, b)`: one
    /// sampled outcome of its law. Used for the collision interaction and
    /// the null-skip mode's productive interaction.
    fn apply_one(&mut self, a: usize, b: usize) -> (usize, usize) {
        let idx = self.law_index(a, b);
        match &self.laws[idx as usize] {
            PairLaw::Det(c, d) => (*c as usize, *d as usize),
            PairLaw::Random { outs, probs, .. } => {
                let u: f64 = self.rng.gen();
                let mut acc = 0.0;
                for (&(c, d), &p) in outs.iter().zip(probs) {
                    acc += p;
                    if u < acc {
                        return (c as usize, d as usize);
                    }
                }
                // Floating-point leakage (acc ≈ 1 - 1e-16): last outcome.
                let &(c, d) = outs.last().expect("random law has outcomes");
                (c as usize, d as usize)
            }
            PairLaw::Sampled => {
                let (sc, sd) =
                    self.protocol
                        .transition(self.states[a], self.states[b], &mut self.rng);
                (self.intern(sc), self.intern(sd))
            }
        }
    }

    /// Returns the id for `state`, discovering it (and growing the law
    /// table's stride geometrically) if unseen.
    fn intern(&mut self, state: P::State) -> usize {
        if let Some(id) = self.slot_lookup(&state) {
            return id;
        }
        let id = self.states.len();
        self.states.push(state);
        {
            let Self { index, states, .. } = self;
            index.insert(
                fnv_hash(&state),
                u32::try_from(id).expect("more than u32::MAX states"),
                |i| fnv_hash(&states[i as usize]),
            );
        }
        self.counts.push(0);
        if self.states.len() > self.cap {
            let new_cap = (self.cap * 2).max(self.states.len());
            let mut table = vec![UNCOMPUTED; new_cap * new_cap];
            for a in 0..id {
                for b in 0..id {
                    table[a * new_cap + b] = self.table[a * self.cap + b];
                }
            }
            self.table = table;
            self.cap = new_cap;
            self.bits.grow(new_cap);
        }
        id
    }

    /// Executes at least `k` interactions (to the nearest batch truncation,
    /// which lands exactly on `k`).
    pub fn steps(&mut self, k: u64) {
        let target = self.interactions + k;
        while self.interactions < target {
            self.advance(target - self.interactions);
        }
    }

    /// Runs for `t` units of parallel time.
    pub fn run_for_time(&mut self, t: f64) {
        self.steps((t * self.n as f64).ceil() as u64);
    }
}

impl<P: CountProtocol> std::fmt::Debug for BatchedCountSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedCountSim")
            .field("n", &self.n)
            .field("states", &self.states.len())
            .field("interactions", &self.interactions)
            .finish()
    }
}

/// Precomputes the birthday-collision survival function
/// `survival[t] = P(T ≥ t) = ∏_{i<t} (n-2i)(n-2i-1) / (n(n-1))`,
/// truncated at [`SURVIVAL_CUTOFF`] or at the `⌊n/2⌋` boundary. Returns the
/// table and whether the boundary was reached.
fn collision_survival(n: u64) -> (Vec<f64>, bool) {
    let denom = (n as f64) * ((n - 1) as f64);
    let mut table = vec![1.0f64];
    let mut f = 1.0f64;
    let mut t = 0u64;
    loop {
        let remaining = n - 2 * t;
        if remaining < 2 {
            return (table, true);
        }
        f *= (remaining as f64) * ((remaining - 1) as f64) / denom;
        if f <= 0.0 {
            return (table, true);
        }
        table.push(f);
        t += 1;
        if f < SURVIVAL_CUTOFF {
            return (table, false);
        }
    }
}

/// Draws `draws` items without replacement from the slot-count pool `src`
/// (total mass `src_total`), adding the drawn counts to `dst` and removing
/// them from `src`. Iterated conditional hypergeometric — exact.
fn draw_without_replacement(
    src: &mut [u64],
    src_total: u64,
    draws: u64,
    dst: &mut [u64],
    rng: &mut SimRng,
) {
    debug_assert!(draws <= src_total);
    debug_assert_eq!(src.iter().sum::<u64>(), src_total);
    let mut remaining_total = src_total;
    let mut remaining_draws = draws;
    for i in 0..src.len() {
        if remaining_draws == 0 {
            break;
        }
        let c = src[i];
        if c == 0 {
            continue;
        }
        let x = if remaining_total == c {
            remaining_draws
        } else {
            hypergeometric(remaining_total, c, remaining_draws, rng)
        };
        dst[i] += x;
        src[i] -= x;
        remaining_total -= c;
        remaining_draws -= x;
    }
    debug_assert_eq!(remaining_draws, 0);
}

/// Maps a uniform index below a slot-count pool's total to its slot.
#[inline]
fn draw_one(pool: &[u64], mut index: u64) -> usize {
    for (i, &c) in pool.iter().enumerate() {
        if index < c {
            return i;
        }
        index -= c;
    }
    unreachable!("draw index exceeded pool total");
}

/// Draws (and removes) one agent from the batch's combined multiset: the
/// `touched` slots first, then the state-unchanged senders left in `send`.
#[inline]
fn take_from_batch(touched: &mut [u64], send: &mut [u64], mut index: u64) -> usize {
    for (i, c) in touched.iter_mut().enumerate() {
        if index < *c {
            *c -= 1;
            return i;
        }
        index -= *c;
    }
    for (i, c) in send.iter_mut().enumerate() {
        if index < *c {
            *c -= 1;
            return i;
        }
        index -= *c;
    }
    unreachable!("batch draw index exceeded touched + send total");
}

/// The batched engine's record of which state-id pairs are analyzed and
/// which are *live* (not certainly null): two bit rows per state, over the
/// state ids. Bit `b` of row `a`'s analyzed row is set once `(a, b)` has
/// been analyzed, and bit `b` of its live row if that pair is not
/// certainly null. The only record of nullness: the pair scans read these
/// rows against masks of occupied states, never a law.
struct PairBits {
    /// `u64` words per row: `⌈cap / 64⌉`.
    words: usize,
    /// Analyzed rows; row `a` is words `a·words..(a+1)·words`.
    analyzed: Vec<u64>,
    /// Live rows, laid out like `analyzed`.
    live: Vec<u64>,
}

impl PairBits {
    /// Empty rows (no pair analyzed) for `cap` states.
    fn new(cap: usize) -> Self {
        let words = cap.div_ceil(64);
        Self {
            words,
            analyzed: vec![0; cap * words],
            live: vec![0; cap * words],
        }
    }

    /// Lays the rows out again for `cap` states, keeping every bit.
    fn grow(&mut self, cap: usize) {
        let words = cap.div_ceil(64);
        for rows in [&mut self.analyzed, &mut self.live] {
            let mut grown = vec![0; cap * words];
            for (new, old) in grown.chunks_mut(words).zip(rows.chunks(self.words)) {
                new[..self.words].copy_from_slice(old);
            }
            *rows = grown;
        }
        self.words = words;
    }

    /// Marks `(a, b)` analyzed, and live if `live`.
    fn set(&mut self, a: usize, b: usize, live: bool) {
        let (word, bit) = (a * self.words + b / 64, 1 << (b % 64));
        self.analyzed[word] |= bit;
        self.live[word] |= u64::from(live) * bit;
    }

    /// Word `i` of row `a`'s analyzed row.
    #[inline]
    fn analyzed_word(&self, a: usize, i: usize) -> u64 {
        self.analyzed[a * self.words + i]
    }

    /// The first `len` words of row `a`'s live row.
    #[inline]
    fn live_row(&self, a: usize, len: usize) -> &[u64] {
        &self.live[a * self.words..][..len]
    }

    /// The productive weight of row `a` over the occupied states
    /// `present`, whose pairs must all be analyzed: `c_a·(n − Σ c_b −
    /// [(a, a) live])`, summed over the occupied null partners `b`.
    #[inline(always)]
    fn row_weight(&self, a: usize, present: &[u64], counts: &[u64], n: u64) -> u64 {
        let row = self.live_row(a, present.len());
        let mut null_mass = 0;
        for (i, (&p, &l)) in present.iter().zip(row).enumerate() {
            for b in bits(p & !l) {
                null_mass += counts[i * 64 + b];
            }
        }
        let self_live = row[a / 64] >> (a % 64) & 1;
        counts[a] * (n - null_mass - self_live)
    }

    /// See [`BatchedCountSim::pick_productive`].
    fn pick<M: Mask>(&self, present: &M, counts: &[u64], n: u64, mut z: u64) -> (usize, usize) {
        let present = present.as_ref();
        for a in ones(present) {
            let wa = self.row_weight(a, present, counts, n);
            if z >= wa {
                z -= wa;
                continue;
            }
            let row = self.live_row(a, present.len());
            for (i, (&p, &l)) in present.iter().zip(row).enumerate() {
                for b in bits(p & l) {
                    let b = i * 64 + b;
                    let w = counts[a] * (counts[b] - u64::from(a == b));
                    if z < w {
                        return (a, b);
                    }
                    z -= w;
                }
            }
        }
        unreachable!("pick offset exceeded the productive weight");
    }

    /// The reactive receiver rows and sender columns of a batch whose
    /// receiver and sender states are `recv` and `send`, with every pair
    /// analyzed. A receiver row `a` is *reactive* if some present sender
    /// state reacts with it; a sender column `b` is reactive if some
    /// present receiver row reacts with it. A pair "reacts" unless its law
    /// is certainly null (identity deterministic outputs, or a random law
    /// whose every outcome is the identity). Pairings involving a
    /// non-reactive side are identity for every counterpart in this batch,
    /// so their contingency entries never need to be drawn individually —
    /// the states are unchanged no matter how the matching falls. Each
    /// receiver row costs one AND of its live row with `send` per word.
    fn reactive<M: Mask>(&self, recv: &M, send: &M) -> (M, M) {
        let send = send.as_ref();
        let mut rows = M::zeroed(send.len());
        let mut cols = M::zeroed(send.len());
        for a in ones(recv.as_ref()) {
            let mut hit = 0;
            let row = self.live_row(a, send.len());
            for ((col, &l), &s) in cols.as_mut().iter_mut().zip(row).zip(send) {
                *col |= l & s;
                hit |= l & s;
            }
            rows.as_mut()[a / 64] |= u64::from(hit != 0) << (a % 64);
        }
        (rows, cols)
    }
}

/// A bit mask over state ids, id `i` at bit `i % 64` of word `i / 64`.
/// The scans take it as a type parameter: one inline word while every id
/// fits (`k ≤ 64`, the common case, where the scans compile to scalar
/// code), a heap word vector beyond.
trait Mask: AsRef<[u64]> + AsMut<[u64]> + Sized {
    /// An empty mask of `words` words.
    fn zeroed(words: usize) -> Self;

    /// The mask of the nonzero slots of `counts`.
    #[inline(always)]
    fn of(counts: &[u64]) -> Self {
        let mut mask = Self::zeroed(counts.len().div_ceil(64));
        for (word, chunk) in mask.as_mut().iter_mut().zip(counts.chunks(64)) {
            for (i, &c) in chunk.iter().enumerate() {
                *word |= u64::from(c > 0) << i;
            }
        }
        mask
    }
}

impl Mask for [u64; 1] {
    #[inline(always)]
    fn zeroed(words: usize) -> Self {
        debug_assert!(words <= 1);
        [0]
    }
}

impl Mask for Vec<u64> {
    fn zeroed(words: usize) -> Self {
        vec![0; words]
    }
}

/// The set bits of a word-slice bit mask, in ascending order.
struct Ones<'a> {
    /// The words not yet reached.
    rest: &'a [u64],
    /// Bit index of the current word's bit 0.
    base: usize,
    /// The current word's bits not yet yielded.
    word: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            self.rest = rest;
            self.base += 64;
            self.word = word;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

/// The set bits of `mask`, in ascending order.
#[inline]
fn ones(mask: &[u64]) -> Ones<'_> {
    match mask.split_first() {
        Some((&word, rest)) => Ones {
            rest,
            base: 0,
            word,
        },
        None => bits(0),
    }
}

/// The set bit positions of one mask word, in ascending order.
#[inline]
fn bits(word: u64) -> Ones<'static> {
    Ones {
        rest: &[],
        base: 0,
        word,
    }
}

#[inline]
fn grow_to(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config_sim::EngineMode;
    use crate::simulation::{count_of, Simulation};

    /// One-way infection epidemic (deterministic).
    #[derive(Clone, Copy)]
    pub(crate) struct Infection;

    impl DeterministicCountProtocol for Infection {
        type State = u8;

        fn transition_det(&self, rec: u8, sen: u8) -> (u8, u8) {
            (rec.max(sen), sen)
        }
    }

    /// Pairwise annihilation: 1 + 2 -> 0 + 0 (checks transitions that shrink
    /// the support and discover a state absent from the initial config).
    #[derive(Clone, Copy)]
    struct Annihilate;

    impl DeterministicCountProtocol for Annihilate {
        type State = u8;

        fn transition_det(&self, rec: u8, sen: u8) -> (u8, u8) {
            if (rec == 1 && sen == 2) || (rec == 2 && sen == 1) {
                (0, 0)
            } else {
                (rec, sen)
            }
        }
    }

    #[test]
    fn survival_table_is_decreasing_from_one() {
        let (table, boundary) = collision_survival(10_000);
        assert_eq!(table[0], 1.0);
        assert_eq!(table[1], 1.0); // first interaction can never collide
        for w in table.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert!(!boundary);
        // E[T] ≈ √(πn/8) ≈ 62.7 at n = 10⁴; the table must comfortably
        // cover the bulk of the distribution.
        assert!(table.len() > 300, "table too short: {}", table.len());
    }

    #[test]
    fn survival_table_small_population_hits_boundary() {
        let (table, boundary) = collision_survival(4);
        // t can be 0, 1, or 2 (all 4 agents drawn); beyond that a repeat is
        // certain.
        assert!(boundary);
        assert_eq!(table.len(), 3);
        assert!((table[2] - 2.0 / 12.0).abs() < 1e-12); // 4!/ (4·3)² = 1/6
    }

    #[test]
    fn draw_without_replacement_is_conserving_and_unbiased() {
        let mut rng = rng_from_seed(113);
        let counts = [500u64, 0, 300, 150, 50];
        let total: u64 = counts.iter().sum();
        let draws = 200u64;
        let trials = 20_000;
        let mut sums = [0f64; 5];
        for _ in 0..trials {
            let mut src = counts;
            let mut split = [0u64; 5];
            draw_without_replacement(&mut src, total, draws, &mut split, &mut rng);
            assert_eq!(split.iter().sum::<u64>(), draws);
            for (i, &x) in split.iter().enumerate() {
                assert!(x <= counts[i], "class {i} oversampled: {x}");
                assert_eq!(src[i] + x, counts[i], "class {i} not conserved");
                sums[i] += x as f64;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let mean = sums[i] / trials as f64;
            let p = c as f64 / total as f64;
            let expect = draws as f64 * p;
            let fpc = (total - draws) as f64 / (total - 1) as f64;
            let sigma_mean = (draws as f64 * p * (1.0 - p) * fpc / trials as f64).sqrt();
            assert!(
                (mean - expect).abs() <= 3.0 * sigma_mean,
                "class {i}: mean {mean} vs {expect} ± {sigma_mean}"
            );
        }
    }

    #[test]
    fn batch_lengths_match_birthday_distribution() {
        let n = 10_000u64;
        let config = CountConfiguration::from_pairs([(0u8, n)]);
        let mut sim = BatchedCountSim::new(Infection, config, 11);
        let trials = 20_000;
        let mean: f64 = (0..trials)
            .map(|_| sim.sample_batch_len() as f64)
            .sum::<f64>()
            / trials as f64;
        // E[T] = Σ_{t≥1} P(T ≥ t); compute from the table directly.
        let expect: f64 = sim.survival.iter().skip(1).sum();
        let sd = (expect).sqrt(); // rough scale; T has σ ≈ 0.5 E[T]
        assert!(
            (mean - expect).abs() < 3.0 * sd * (trials as f64).sqrt().recip() * 60.0,
            "mean batch length {mean} vs expected {expect}"
        );
    }

    #[test]
    fn population_is_conserved_across_batches() {
        let config = CountConfiguration::from_pairs([(0u8, 9_000), (1u8, 1_000)]);
        let mut sim = BatchedCountSim::new(Infection, config, 3);
        for _ in 0..50 {
            sim.run_batch(u64::MAX);
            let total: u64 = sim.counts.iter().sum();
            assert_eq!(total, 10_000);
        }
        assert!(sim.interactions() > 0);
    }

    #[test]
    fn batched_epidemic_infects_everyone() {
        let n = 100_000u64;
        let config = CountConfiguration::from_pairs([(0u8, n - 1), (1u8, 1)]);
        let (out, _) = Simulation::count_builder(Infection)
            .initial(config)
            .seed(5)
            .mode(EngineMode::Batched)
            .check_every(n / 10)
            .max_time(200.0)
            .until(move |view| count_of(view, &1) == n)
            .run();
        assert!(out.converged);
        // Epidemic completes in ~2 ln n ≈ 23 parallel time.
        assert!(out.time > 5.0 && out.time < 60.0, "time {}", out.time);
    }

    #[test]
    fn batched_is_deterministic_given_seed() {
        let run = |seed| {
            let (out, _) = Simulation::count_builder(Infection)
                .config([(0u8, 49_999), (1u8, 1)])
                .seed(seed)
                .mode(EngineMode::Batched)
                .check_every(1_000)
                .max_time(100.0)
                .until(|view| count_of(view, &1) == 50_000)
                .run();
            out.interactions
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn steps_lands_exactly_on_target() {
        let config = CountConfiguration::from_pairs([(0u8, 99_999), (1u8, 1)]);
        let mut sim = BatchedCountSim::new(Infection, config, 9);
        sim.steps(12_345);
        assert_eq!(sim.interactions(), 12_345);
        sim.steps(1);
        assert_eq!(sim.interactions(), 12_346);
    }

    #[test]
    fn transitions_discover_new_states() {
        // Start without any state-0 agents; annihilation must discover 0.
        let config = CountConfiguration::from_pairs([(1u8, 5_000), (2u8, 5_000)]);
        let mut sim = BatchedCountSim::new(Annihilate, config, 17);
        sim.steps(200_000);
        let zeros = sim.count(&0);
        assert!(zeros > 0, "annihilation never fired");
        assert_eq!(zeros + sim.count(&1) + sim.count(&2), 10_000);
        // Difference |#1 - #2| is invariant (they annihilate in pairs).
        assert_eq!(sim.count(&1), sim.count(&2));
    }

    #[test]
    fn tiny_population_batches_correctly() {
        // n = 2: every batch is one bulk interaction plus a collision.
        let config = CountConfiguration::from_pairs([(0u8, 1), (1u8, 1)]);
        let mut sim = BatchedCountSim::new(Infection, config, 23);
        sim.steps(100);
        assert_eq!(sim.interactions(), 100);
        assert_eq!(sim.count(&1), 2, "max-epidemic must spread to both agents");
    }

    /// Lazy copying: the receiver adopts the sender's opinion with
    /// probability 1/2 — a randomized protocol with an enumerable outcome
    /// law that opts in to batching.
    #[derive(Clone, Copy)]
    pub(crate) struct LazyCopy;

    impl CountProtocol for LazyCopy {
        type State = u8;

        fn transition(&self, rec: u8, sen: u8, rng: &mut SimRng) -> (u8, u8) {
            if rng.gen::<bool>() {
                (sen, sen)
            } else {
                (rec, sen)
            }
        }

        fn outcomes(&self, rec: u8, sen: u8) -> Option<Outcomes<u8>> {
            Some(Outcomes::Random(vec![(sen, sen, 0.5), (rec, sen, 0.5)]))
        }

        fn prefers_batching(&self) -> bool {
            true
        }
    }

    /// Randomized protocol with no outcome enumeration: every pair uses the
    /// shared sampled law.
    #[derive(Clone, Copy)]
    pub(crate) struct LazyUnenumerated;

    impl CountProtocol for LazyUnenumerated {
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
    fn batched_randomized_protocol_reaches_consensus() {
        // Lazy copying is a consensus process; the batched engine must
        // drive it to an absorbing state through the multinomial path.
        let n = 20_000u64;
        let (out, sim) = Simulation::count_builder(LazyCopy)
            .config([(0u8, n / 2), (1u8, n / 2)])
            .seed(99)
            .mode(EngineMode::Batched)
            .check_every(n / 10)
            .max_time(100_000.0)
            .until(move |view| count_of(view, &0) == n || count_of(view, &1) == n)
            .run();
        assert!(out.converged, "lazy copying never reached consensus");
        assert_eq!(sim.count(&0) + sim.count(&1), n);
    }

    #[test]
    fn sampled_fallback_randomized_protocol_is_exact_on_counts() {
        // Without outcome enumeration every pair takes the per-interaction
        // sampled path; population conservation and exact step landing must
        // still hold.
        let n = 6_000u64;
        let config = CountConfiguration::from_pairs([(0u8, n / 2), (1u8, n / 2)]);
        let mut sim = BatchedCountSim::new(LazyUnenumerated, config, 7);
        sim.steps(50_000);
        assert_eq!(sim.interactions(), 50_000);
        assert_eq!(sim.count(&0) + sim.count(&1), n);
    }

    #[test]
    fn random_law_probabilities_are_validated() {
        struct BadLaw;
        impl CountProtocol for BadLaw {
            type State = u8;
            fn transition(&self, rec: u8, sen: u8, _rng: &mut SimRng) -> (u8, u8) {
                (rec, sen)
            }
            fn outcomes(&self, rec: u8, sen: u8) -> Option<Outcomes<u8>> {
                Some(Outcomes::Random(vec![(rec, sen, 0.4), (sen, sen, 0.4)]))
            }
        }
        let config = CountConfiguration::from_pairs([(0u8, 50), (1u8, 50)]);
        let mut sim = BatchedCountSim::new(BadLaw, config, 1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.steps(1_000);
        }));
        assert!(panic.is_err(), "probabilities summing to 0.8 must panic");
    }

    /// Epoch counter with null and productive pairs on and off the
    /// diagonal: a receiver meeting its own value advances if the value is
    /// even and ignores it if odd; a smaller receiver jumps past the
    /// sender, a larger one ignores it. Values only grow, so the run keeps
    /// interning states: the law table outgrows its initial stride and GC
    /// has dead states to evict.
    struct EpochJump;

    impl crate::protocol::Protocol for EpochJump {
        type State = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn interact(&self, rec: &mut u64, sen: &mut u64, _rng: &mut SimRng) {
            if rec < sen {
                *rec = *sen + 1;
            } else if rec == sen && rec.is_multiple_of(2) {
                *rec += 1;
            }
        }
    }

    /// Asserts that every pair's analyzed bit says whether its law-table
    /// entry is computed, that its live bit equals the negated
    /// [`BatchedCountSim::law_is_null`] of the law the entry indexes, and
    /// that no bit is set past `cap`; returns the `[null diagonal, null
    /// off-diagonal, live]` entry counts.
    fn assert_flags_match_laws<P: CountProtocol>(sim: &BatchedCountSim<P>) -> [usize; 3] {
        let bits = &sim.bits;
        let bit =
            |rows: &[u64], a: usize, b: usize| rows[a * bits.words + b / 64] >> (b % 64) & 1 == 1;
        let mut tally = [0; 3];
        for a in 0..sim.cap {
            for b in 0..bits.words * 64 {
                let (analyzed, live) = (bit(&bits.analyzed, a, b), bit(&bits.live, a, b));
                let entry = if b < sim.cap {
                    sim.table[a * sim.cap + b]
                } else {
                    UNCOMPUTED
                };
                assert_eq!(analyzed, entry != UNCOMPUTED, "analyzed bit of ({a}, {b})");
                if entry == UNCOMPUTED {
                    assert!(!live, "live bit of unanalyzed pair ({a}, {b})");
                    continue;
                }
                assert_eq!(
                    live,
                    !sim.law_is_null(entry, a, b),
                    "live bit of pair ({a}, {b}) disagrees with its law"
                );
                let slot = match (live, a == b) {
                    (false, true) => 0,
                    (false, false) => 1,
                    (true, _) => 2,
                };
                tally[slot] += 1;
            }
        }
        tally
    }

    /// Declares each pair of the interned [`EpochJump`] as
    /// [`Outcomes::Deterministic`] through one transition probe, so the
    /// batched engine bulk-applies certified laws. Sound only because
    /// `EpochJump` never reads its RNG.
    struct CertifiedEpochJump(crate::interned::Interned<EpochJump>);

    impl CountProtocol for CertifiedEpochJump {
        type State = u32;

        fn transition(&self, rec: u32, sen: u32, rng: &mut SimRng) -> (u32, u32) {
            self.0.transition(rec, sen, rng)
        }

        fn outcomes(&self, rec: u32, sen: u32) -> Option<Outcomes<u32>> {
            let (c, d) = self.0.transition(rec, sen, &mut rng_from_seed(0));
            Some(Outcomes::Deterministic(c, d))
        }

        fn table_len(&self) -> Option<usize> {
            self.0.table_len()
        }

        fn collect_table(&self, live: &[u32]) -> Option<Vec<(u32, u32)>> {
            self.0.collect_table(live)
        }
    }

    #[test]
    fn null_flags_match_laws_across_growth_and_collection() {
        let interned = crate::interned::Interned::new(EpochJump);
        let config = interned.uniform_config(4_096);
        let mut sim = BatchedCountSim::new(CertifiedEpochJump(interned), config, 5);
        assert_eq!(sim.cap, 4);
        sim.steps(200_000);
        assert!(sim.cap > 4, "the run never grew the law table");
        let tally = assert_flags_match_laws(&sim);
        assert!(tally.iter().all(|&t| t > 0), "entry tally {tally:?}");

        let discovered = sim.states.len();
        assert!(sim.collect_table(), "the interned adapter must collect");
        assert!(sim.states.len() < discovered, "GC evicted nothing");
        assert!(sim.table.iter().all(|&e| e == UNCOMPUTED));
        assert!(sim
            .bits
            .analyzed
            .iter()
            .chain(&sim.bits.live)
            .all(|&w| w == 0));
        sim.steps(200_000);
        let tally = assert_flags_match_laws(&sim);
        assert!(tally.iter().all(|&t| t > 0), "entry tally {tally:?}");
        assert_eq!(sim.counts.iter().sum::<u64>(), 4_096);
    }

    /// The `O(k²)` pair scans the bit rows replaced, kept as references:
    /// one law-table probe per pair, with nullness decoded from the law.
    impl<P: CountProtocol> BatchedCountSim<P> {
        fn is_null_reference(&mut self, a: usize, b: usize) -> bool {
            let idx = self.law_index(a, b);
            self.law_is_null(idx, a, b)
        }

        fn productive_weight_reference(&mut self) -> u64 {
            let k = self.states.len();
            let mut w = 0u64;
            for a in 0..k {
                let ca = self.counts[a];
                if ca == 0 {
                    continue;
                }
                for b in 0..k {
                    let cb = self.counts[b];
                    if cb != 0 && !self.is_null_reference(a, b) {
                        w += ca * (cb - u64::from(a == b));
                    }
                }
            }
            w
        }

        fn pick_reference(&mut self, mut z: u64) -> (usize, usize) {
            let k = self.states.len();
            for a in 0..k {
                let ca = self.counts[a];
                if ca == 0 {
                    continue;
                }
                for b in 0..k {
                    let cb = self.counts[b];
                    if cb == 0 || self.is_null_reference(a, b) {
                        continue;
                    }
                    let w = ca * (cb - u64::from(a == b));
                    if z < w {
                        return (a, b);
                    }
                    z -= w;
                }
            }
            unreachable!("pick offset exceeded the productive weight");
        }

        fn classify_reference(&mut self, recv: &[u64], send: &[u64]) -> (Vec<bool>, Vec<bool>) {
            let k0 = recv.len();
            let (mut rows, mut cols) = (vec![false; k0], vec![false; k0]);
            for a in 0..k0 {
                if recv[a] == 0 {
                    continue;
                }
                for b in 0..k0 {
                    if send[b] != 0 && !self.is_null_reference(a, b) {
                        rows[a] = true;
                        cols[b] = true;
                    }
                }
            }
            (rows, cols)
        }
    }

    fn unpack(mask: &[u64], len: usize) -> Vec<bool> {
        (0..len)
            .map(|i| mask[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Runs the bit-row scans on `fast` and the reference scans on `slow`,
    /// two simulators in the same state: first the reactive classification
    /// of a receiver/sender split of the occupied states (which analyzes
    /// some pairs), then the productive weight (which analyzes the rest)
    /// and a few weighted picks. Asserts equal results and the same state
    /// id order after each, and bit rows that match the laws.
    fn assert_scans_match_references<P: CountProtocol>(
        fast: &mut BatchedCountSim<P>,
        slow: &mut BatchedCountSim<P>,
    ) {
        assert_eq!(fast.states, slow.states);
        assert_eq!(fast.counts, slow.counts);
        let k = fast.counts.len();
        let recv: Vec<u64> = (0..k)
            .map(|i| if i % 3 == 1 { 0 } else { fast.counts[i] })
            .collect();
        let send: Vec<u64> = (0..k)
            .map(|i| if i % 3 == 0 { 0 } else { fast.counts[i] })
            .collect();
        let reference = slow.classify_reference(&recv, &send);
        // The one-word instantiation runs first when it applies, so it is
        // the one that analyzes; the vector one must agree either way.
        if k <= 64 {
            assert_eq!(classify_as::<[u64; 1], P>(fast, &recv, &send), reference);
        }
        assert_eq!(classify_as::<Vec<u64>, P>(fast, &recv, &send), reference);
        assert_eq!(
            fast.states, slow.states,
            "classification interned out of order"
        );

        let w = fast.productive_weight();
        assert_eq!(w, slow.productive_weight_reference(), "productive weight");
        assert_eq!(w, fast.productive_weight_in::<Vec<u64>>());
        assert_eq!(fast.states, slow.states, "weighing interned out of order");
        if w > 0 {
            for z in [0, w / 3, w / 2, w - 1] {
                let pick = slow.pick_reference(z);
                assert_eq!(fast.pick_productive(z), pick, "pick {z} of {w}");
                assert_eq!(
                    fast.bits
                        .pick(&Vec::of(&fast.counts), &fast.counts, fast.n, z),
                    pick
                );
            }
        }
        assert_flags_match_laws(fast);
    }

    /// The reactive rows and columns [`BatchedCountSim::classify`] finds
    /// over `M` masks, unpacked to one flag per state.
    fn classify_as<M: Mask, P: CountProtocol>(
        sim: &mut BatchedCountSim<P>,
        recv: &[u64],
        send: &[u64],
    ) -> (Vec<bool>, Vec<bool>) {
        let (rows, cols) = sim.classify::<M>(recv, send);
        (
            unpack(rows.as_ref(), recv.len()),
            unpack(cols.as_ref(), recv.len()),
        )
    }

    /// A receiver below its sender leaps to `sender + 128`; a receiver
    /// meeting its own even value steps up by one; every other pair is
    /// null. From 100 occupied values (two-word rows), analysis interns
    /// 99 new states and grows `cap` mid-scan.
    #[derive(Clone, Copy)]
    struct Leapfrog;

    impl DeterministicCountProtocol for Leapfrog {
        type State = u16;

        fn transition_det(&self, rec: u16, sen: u16) -> (u16, u16) {
            if rec < sen {
                (sen + 128, sen)
            } else if rec == sen && rec % 2 == 0 {
                (rec + 1, sen)
            } else {
                (rec, sen)
            }
        }
    }

    fn leapfrog_sim(seed: u64) -> BatchedCountSim<Leapfrog> {
        let config =
            CountConfiguration::from_pairs((0..100u16).map(|s| (s, 50 * (1 + u64::from(s % 5)))));
        BatchedCountSim::new(Leapfrog, config, seed)
    }

    #[test]
    fn bit_row_scans_match_references_across_words_and_growth() {
        let (mut fast, mut slow) = (leapfrog_sim(3), leapfrog_sim(3));
        assert_eq!((fast.cap, fast.bits.words), (100, 2));
        assert_scans_match_references(&mut fast, &mut slow);
        assert_eq!(fast.states.len(), 199, "every leap target interned");
        assert_eq!((fast.cap, fast.bits.words), (200, 4), "cap grew mid-scan");
        // Warm tables: the same scans again after some batches.
        for sim in [&mut fast, &mut slow] {
            sim.steps(2_000);
        }
        assert_scans_match_references(&mut fast, &mut slow);
    }

    #[test]
    fn bit_row_scans_match_references_after_collection() {
        let collected = || {
            let interned = crate::interned::Interned::new(EpochJump);
            let config = interned.uniform_config(4_096);
            let mut sim = BatchedCountSim::new(CertifiedEpochJump(interned), config, 5);
            sim.steps(200_000);
            assert!(sim.collect_table(), "the interned adapter must collect");
            sim
        };
        let (mut fast, mut slow) = (collected(), collected());
        assert!(fast.states.len() <= 64, "one-word masks apply");
        assert_scans_match_references(&mut fast, &mut slow);
        for sim in [&mut fast, &mut slow] {
            sim.steps(50_000);
        }
        assert_scans_match_references(&mut fast, &mut slow);
    }

    #[test]
    fn bit_row_scans_match_references_after_restore() {
        let restored = || {
            let mut sim = leapfrog_sim(7);
            sim.steps(3_000);
            let (states, counts, rng) = sim.snapshot_parts();
            BatchedCountSim::from_snapshot_parts(
                Leapfrog,
                states.to_vec(),
                counts,
                rng.clone(),
                sim.interactions(),
            )
        };
        let (mut fast, mut slow) = (restored(), restored());
        assert!(fast.occupied_support() > 64, "rows must span words");
        assert_scans_match_references(&mut fast, &mut slow);
    }
}
