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
//!    discovered state space — `O(k²)` per batch, independent of `T`. Each
//!    table entry also carries a "certainly null" flag bit, set once when
//!    the pair is first analyzed, so the per-batch pair scans (productive
//!    weight, reactive rows and columns) read one `u32` per pair and never
//!    decode a law. A pair's law is one of three kinds (see `PairLaw`):
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
//! Per batch the simulator does `O(k² + √n·σ⁻¹)`-ish sampling work for
//! `Θ(√n)` interactions, so amortized per-interaction cost *decreases* with
//! population size — the `table_epidemic` sweep at `n = 10⁷` runs hundreds
//! of times faster than the sequential [`CountSim`].
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
//! [`CountProtocol::prefers_batching`], which the [`ConfigSim`] facade
//! consults together with the population size. Small populations, where
//! batches are short and constants dominate, fall back to the sequential
//! simulator.
//!
//! ## Observability
//!
//! Attach a [`pp_telemetry::Metrics`] registry
//! ([`BatchedCountSim::set_metrics`] / [`ConfigSim::set_metrics`], or let
//! the `Simulation` builders thread one through) and the engines record at
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

use pp_telemetry::{Counter, Hist, Metrics, TraceValue};
use rand::Rng;

use crate::count_sim::{AdapterStats, CountConfiguration, CountProtocol, CountSim, Outcomes};
use crate::rng::{geometric, hypergeometric, multinomial_conditional, rng_from_seed, SimRng};
use crate::scheduler::parallel_time;
use crate::slot_index::{fnv_hash, SlotIndex, SlotIndexStats};

/// A [`CountProtocol`] whose transition function is a pure function of the
/// two input states. Implementing this trait (instead of `CountProtocol`
/// directly) is the opt-in for batched simulation: a blanket impl provides
/// `CountProtocol` with [`CountProtocol::is_deterministic`] returning
/// `true`, which lets [`ConfigSim::new`] select [`BatchedCountSim`] at large
/// population sizes.
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

/// Law-table entry bit marking a certainly-null pair; the low bits are the
/// index into `laws`. Set once, when the pair is analyzed, so the per-batch
/// pair scans test nullness without loading the law.
const NULL_FLAG: u32 = 1 << 31;

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
/// wall time per productive interaction. A batch is not "a few" draws: for
/// `WeakEstimator` at `n = 10⁷` it averages ~160 hypergeometric fill draws
/// (two thirds drawn item by item at a few ns each, the rest by chop-down
/// at ~60–100 ns), ~40 population draws (mostly chop-down, ~150 ns) and
/// ~130 sampled per-interaction transitions. The factor decides which
/// draws happen, so it is a trajectory input, not a tuning knob: changing
/// it changes every batched run.
const NULL_SKIP_FACTOR: f64 = 6.0;

/// Batched simulator over a configuration vector.
///
/// Realizes exactly the same stochastic process as [`CountSim`] (uniform
/// ordered pairs of distinct agents) for *any* protocol — deterministic
/// transitions and finite outcome distributions are bulk-applied; pairs
/// with unbounded outcome support are sampled per interaction inside the
/// batch. Construct directly, or let [`ConfigSim::new`] choose.
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
    /// Dense law-index table: entry `[a·cap + b]` points into `laws`, with
    /// [`NULL_FLAG`] set if the pair is certainly null, or is
    /// [`UNCOMPUTED`].
    table: Vec<u32>,
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
    row_reactive: Vec<bool>,
    col_reactive: Vec<bool>,
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
        let n = config.population_size();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        assert!(
            n <= u32::MAX as u64,
            "pair-weight arithmetic requires n² to fit in u64"
        );
        let mut states = Vec::new();
        let mut index = SlotIndex::with_capacity(config.support_size());
        let mut counts = Vec::new();
        for (&s, &c) in config.iter() {
            let id = u32::try_from(states.len()).expect("more than u32::MAX states");
            states.push(s);
            counts.push(c);
            index.insert(fnv_hash(&s), id, |i| fnv_hash(&states[i as usize]));
        }
        let k = states.len();
        let cap = k.max(4);
        let (survival, boundary_reached) = collision_survival(n);
        let expected_batch_len = survival.iter().skip(1).sum();
        Self {
            protocol,
            rng: rng_from_seed(seed),
            n,
            interactions: 0,
            states,
            index,
            counts,
            cap,
            table: vec![UNCOMPUTED; cap * cap],
            laws: vec![PairLaw::Sampled],
            survival,
            boundary_reached,
            expected_batch_len,
            recv: vec![0; k],
            send: vec![0; k],
            touched: vec![0; k],
            row_reactive: Vec::new(),
            col_reactive: Vec::new(),
            metrics: None,
        }
    }

    /// Rebuilds a batched simulator mid-run from its constituent parts,
    /// carrying the RNG stream and interaction clock across an engine switch
    /// (see [`ConfigSim`]'s adaptive re-selection). The law table is rebuilt
    /// lazily from the protocol, exactly as in [`BatchedCountSim::new`].
    pub(crate) fn from_parts(
        protocol: P,
        config: CountConfiguration<P::State>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        let mut sim = Self::new(protocol, config, 0);
        sim.rng = rng;
        sim.interactions = interactions;
        sim
    }

    /// Decomposes the simulator into `(protocol, configuration, rng,
    /// interactions)` so an engine switch can hand the run to [`CountSim`]
    /// without losing state.
    pub(crate) fn into_parts(self) -> (P, CountConfiguration<P::State>, SimRng, u64) {
        let config = self.config_view();
        (self.protocol, config, self.rng, self.interactions)
    }

    /// Rebuilds a batched simulator from checkpoint parts. Unlike
    /// [`BatchedCountSim::from_parts`] — which re-canonicalizes the slot
    /// order — this restores the *internal* discovery-order slot layout and
    /// the RNG stream verbatim: a restored simulator continues
    /// byte-for-byte identically to the snapshotted one. The law table is
    /// rebuilt lazily, which is trajectory-neutral because law analysis
    /// never reads the RNG.
    pub(crate) fn from_snapshot_parts(
        protocol: P,
        states: Vec<P::State>,
        counts: Vec<u64>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        assert_eq!(states.len(), counts.len(), "snapshot slot tables disagree");
        let n: u64 = counts.iter().sum();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        let mut index = SlotIndex::with_capacity(states.len());
        for (i, s) in states.iter().enumerate() {
            let hash = fnv_hash(s);
            assert!(
                index.get(hash, |c| states[c as usize] == *s).is_none(),
                "snapshot has duplicate discovered state {s:?}"
            );
            index.insert(
                hash,
                u32::try_from(i).expect("more than u32::MAX states"),
                |c| fnv_hash(&states[c as usize]),
            );
        }
        let k = states.len();
        let cap = k.max(4);
        let (survival, boundary_reached) = collision_survival(n);
        let expected_batch_len = survival.iter().skip(1).sum();
        Self {
            protocol,
            rng,
            n,
            interactions,
            states,
            index,
            counts,
            cap,
            table: vec![UNCOMPUTED; cap * cap],
            laws: vec![PairLaw::Sampled],
            survival,
            boundary_reached,
            expected_batch_len,
            recv: vec![0; k],
            send: vec![0; k],
            touched: vec![0; k],
            row_reactive: Vec::new(),
            col_reactive: Vec::new(),
            metrics: None,
        }
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
        let mut states = Vec::with_capacity(roots.len());
        let mut counts = Vec::with_capacity(roots.len());
        let mut index = SlotIndex::with_capacity(roots.len());
        for (&old, &c) in self.states.iter().zip(&self.counts) {
            if c == 0 {
                continue;
            }
            let new = *map
                .get(&old)
                .unwrap_or_else(|| panic!("GC renaming is missing occupied state {old:?}"));
            let id = u32::try_from(states.len()).expect("more than u32::MAX states");
            states.push(new);
            counts.push(c);
            index.insert(fnv_hash(&new), id, |i| fnv_hash(&states[i as usize]));
        }
        let k = states.len();
        self.states = states;
        self.counts = counts;
        self.index = index;
        self.cap = k.max(4);
        self.table = vec![UNCOMPUTED; self.cap * self.cap];
        self.laws = vec![PairLaw::Sampled];
        self.recv = vec![0; k];
        self.send = vec![0; k];
        self.touched = vec![0; k];
        self.row_reactive.clear();
        self.col_reactive.clear();
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

    /// Materializes the current configuration (O(k log k)).
    pub fn config_view(&self) -> CountConfiguration<P::State> {
        CountConfiguration::from_pairs(
            self.states
                .iter()
                .zip(&self.counts)
                .filter(|(_, &c)| c > 0)
                .map(|(&s, &c)| (s, c)),
        )
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
    /// count as productive).
    fn productive_weight(&mut self) -> u64 {
        let k = self.states.len();
        let mut w = 0u64;
        for a in 0..k {
            let ca = self.counts[a];
            if ca == 0 {
                continue;
            }
            for b in 0..k {
                let cb = self.counts[b];
                if cb == 0 {
                    continue;
                }
                if !self.is_null_pair(a, b) {
                    w += ca * (cb - u64::from(a == b));
                }
            }
        }
        w
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
        let mut z = self.rng.gen_range(0..w_prod);
        let k = self.states.len();
        'outer: for a in 0..k {
            let ca = self.counts[a];
            if ca == 0 {
                continue;
            }
            for b in 0..k {
                let cb = self.counts[b];
                if cb == 0 {
                    continue;
                }
                if self.is_null_pair(a, b) {
                    continue;
                }
                let w = ca * (cb - u64::from(a == b));
                if z < w {
                    let (c, d) = self.apply_one(a, b);
                    self.counts[a] -= 1;
                    self.counts[b] -= 1;
                    grow_to(&mut self.counts, self.states.len());
                    self.counts[c] += 1;
                    self.counts[d] += 1;
                    break 'outer;
                }
                z -= w;
            }
        }
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

        // Classify the batch's rows and columns. A receiver row `a` is
        // *reactive* if some present sender state reacts with it; a sender
        // column `b` is reactive if some present receiver row reacts with
        // it. A pair "reacts" unless its law is certainly null (identity
        // deterministic outputs, or a random law whose every outcome is the
        // identity). Pairings involving a non-reactive side are identity
        // for every counterpart in this batch, so their contingency entries
        // never need to be drawn individually — the states are unchanged no
        // matter how the matching falls.
        let mut row_reactive = std::mem::take(&mut self.row_reactive);
        let mut col_reactive = std::mem::take(&mut self.col_reactive);
        row_reactive.clear();
        row_reactive.resize(k0, false);
        col_reactive.clear();
        col_reactive.resize(k0, false);
        for a in 0..k0 {
            if recv[a] == 0 {
                continue;
            }
            for b in 0..k0 {
                if send[b] == 0 {
                    continue;
                }
                if !self.is_null_pair(a, b) {
                    row_reactive[a] = true;
                    col_reactive[b] = true;
                }
            }
        }

        let mut send_total = t;
        self.fill_serial(
            &recv,
            &mut send,
            &mut send_total,
            &mut touched,
            &row_reactive,
            &col_reactive,
        );

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
        self.row_reactive = row_reactive;
        self.col_reactive = col_reactive;
        executed
    }

    /// The classic serial pairing contingency: reactive receiver rows draw
    /// their partner splits over the reactive sender columns — an iterated
    /// conditional hypergeometric realization of the uniform bipartite
    /// matching. Whatever a row still needs after the reactive columns
    /// comes from the pooled non-reactive columns: those pairings are
    /// identity, so only the pool's total (tracked via `send_total`)
    /// matters, never which non-reactive state each partner held.
    /// Non-reactive rows are processed implicitly last (the matching is
    /// exchangeable): their receivers keep their states and their
    /// partners — all of `send`'s leftovers — keep theirs, merged back
    /// wholesale by [`BatchedCountSim::run_batch`].
    #[allow(clippy::too_many_arguments)]
    fn fill_serial(
        &mut self,
        recv: &[u64],
        send: &mut [u64],
        send_total: &mut u64,
        touched: &mut Vec<u64>,
        row_reactive: &[bool],
        col_reactive: &[bool],
    ) {
        let k0 = recv.len();
        for a in 0..k0 {
            let ra = recv[a];
            if ra == 0 {
                continue;
            }
            if !row_reactive[a] {
                touched[a] += ra;
                continue;
            }
            let mut need = ra;
            let mut pool = *send_total;
            for b in 0..k0 {
                if need == 0 {
                    break;
                }
                let sb = send[b];
                if sb == 0 || !col_reactive[b] {
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
                *send_total -= m;
                need -= m;
            }
            if need > 0 {
                // Partners from the non-reactive pool: receiver unchanged,
                // senders stay in `send` (their states are unchanged too).
                touched[a] += need;
                *send_total -= need;
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

    /// Looks up (analyzing on first use) the law-table entry of the ordered
    /// state-id pair `(a, b)`: its index into `laws`, with [`NULL_FLAG`]
    /// set if the pair is certainly null.
    #[inline]
    fn law_entry(&mut self, a: usize, b: usize) -> u32 {
        let entry = self.table[a * self.cap + b];
        if entry != UNCOMPUTED {
            return entry;
        }
        self.analyze_entry(a, b)
    }

    /// The cold half of [`BatchedCountSim::law_entry`]: analyzes the pair,
    /// interning any newly discovered output states, and stores its entry.
    #[cold]
    #[inline(never)]
    fn analyze_entry(&mut self, a: usize, b: usize) -> u32 {
        let idx = self.analyze_pair(a, b);
        assert!(idx < NULL_FLAG - 1, "law table overflow: {idx} laws");
        let entry = if self.law_is_null(idx, a, b) {
            idx | NULL_FLAG
        } else {
            idx
        };
        // `analyze_pair` may have interned states and grown `cap`, so the
        // table offset must be recomputed after it returns.
        self.table[a * self.cap + b] = entry;
        entry
    }

    /// The outcome law of `(a, b)` as an index into `laws` (analyzed on
    /// first use).
    fn law_index(&mut self, a: usize, b: usize) -> u32 {
        self.law_entry(a, b) & !NULL_FLAG
    }

    /// Whether `(a, b)` is certainly null (analyzed on first use); reads
    /// only the table entry's flag, never the law.
    #[inline]
    fn is_null_pair(&mut self, a: usize, b: usize) -> bool {
        self.law_entry(a, b) & NULL_FLAG != 0
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
    /// pair, at analysis; the scans read the cached [`NULL_FLAG`].
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

#[inline]
fn grow_to(v: &mut Vec<u64>, len: usize) {
    if v.len() < len {
        v.resize(len, 0);
    }
}

/// How [`ConfigSim`] selects — and, mid-run, re-selects — its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Heuristic choice at construction plus adaptive re-selection: each
    /// batch (or each `~√n` sequential chunk) the occupied support `k` is
    /// compared against the mean batch length `E[T] = Θ(√n)`, and the run
    /// switches batched↔sequential when the other engine wins. Exact either
    /// way — only the wall-clock profile changes.
    #[default]
    Auto,
    /// Sequential [`CountSim`], never switched.
    Sequential,
    /// Batched [`BatchedCountSim`], never switched.
    Batched,
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(Self::Auto),
            "sequential" => Ok(Self::Sequential),
            "batched" => Ok(Self::Batched),
            other => Err(format!(
                "unknown engine mode {other:?} (expected auto | sequential | batched)"
            )),
        }
    }
}

/// The engine actually running inside a [`ConfigSim`].
// One instance per simulation, held directly (never in a collection), so
// the size gap between the batched engine (scratch buffers, law table,
// survival table) and the sequential one costs nothing.
#[allow(clippy::large_enum_variant)]
enum Engine<P: CountProtocol> {
    /// Per-interaction simulation ([`CountSim`]).
    Sequential(CountSim<P>),
    /// Batched simulation ([`BatchedCountSim`]).
    Batched(BatchedCountSim<P>),
}

/// In [`EngineMode::Auto`], leave the batched engine when the occupied
/// support satisfies `k² > ADAPT_DOWN·E[T]` — the `O(k²)` per-batch law
/// work then dominates the `Θ(√n)` interactions a batch executes — and
/// (re-)enter it when `k² < ADAPT_UP·E[T]`. The factor-4 gap between the
/// two thresholds is hysteresis against flapping near the crossover.
const ADAPT_DOWN: f64 = 4.0;
/// See [`ADAPT_DOWN`].
const ADAPT_UP: f64 = 1.0;

/// Trigger an interner-GC pass when the backing state table holds more
/// than this many times the live support (the dead/live amplification).
/// Collection costs `O(table)` and at least `(GC_DEAD_FACTOR - 1)·live`
/// fresh states must be interned between passes, so the amortized cost is
/// `O(1)` per newly discovered state.
const GC_DEAD_FACTOR: usize = 4;
/// Never trigger GC below this table size: small tables are free to keep,
/// and the floor keeps trivial protocols from ever paying the check.
const GC_MIN_TABLE: usize = 1024;

/// Whether interner GC is enabled for newly built simulators: on unless
/// the `PP_GC` environment variable says `off`/`0`/`false` (the kill
/// switch the GC-equivalence suite flips to prove collection is
/// trajectory-neutral). Parsed by the shared [`crate::env`] helper.
fn gc_enabled_from_env() -> bool {
    crate::env::flag("PP_GC", true)
}

/// Message for the engine-slot invariant (`None` only transiently inside
/// [`ConfigSim::switch_engine`]).
const ENGINE_PRESENT: &str = "ConfigSim engine slot is always occupied";

/// Facade choosing — and in [`EngineMode::Auto`], *re*-choosing mid-run —
/// between [`CountSim`] and [`BatchedCountSim`].
///
/// [`ConfigSim::new`] starts on the batched engine when the protocol asks
/// for it ([`CountProtocol::prefers_batching`] — deterministic protocols by
/// default, randomized ones that enumerate their outcome laws by opting
/// in) and the population is large enough for `Θ(√n)` batches to beat
/// per-interaction simulation; everything else starts sequential. The
/// right choice also depends on the *current* occupied support `k`
/// (per-batch work is `O(k²)`), which evolves as states are discovered and
/// die out, so Auto mode re-evaluates `k²` against the mean batch length
/// after every batch (or every `~√n` sequential interactions) and switches
/// engines mid-run, carrying the protocol, configuration, RNG stream, and
/// interaction clock across. Both engines realize exactly the same
/// stochastic process, so switching never changes semantics. Call sites
/// hold a single type either way.
///
/// The same checkpoints drive **interner garbage collection** for
/// table-backed protocols ([`CountProtocol::table_len`], i.e. the
/// [`crate::interned::Interned`] adapter): once the backing state table
/// holds more than a few times the live support, the dead entries are
/// evicted and the survivors compacted,
/// bounding memory by the live support instead of the states ever
/// reached. Collection is trajectory-neutral — same multiset, same slot
/// layout, no randomness — so it is on by default (`PP_GC=off` or
/// [`ConfigSim::set_gc`] disable it, chiefly for the equivalence suite
/// that proves the neutrality).
///
/// Sequential advances additionally offer table-backed protocols the
/// **dense per-agent lane** (`advance_dense` on the `Interned` adapter):
/// a counter-churning record protocol — occupied support past the lane
/// floor — takes the whole remaining budget as one per-agent episode at
/// the agent simulator's cost model, collapsing back to a canonical
/// configuration at the end. Like GC and engine switching, the lane is
/// trajectory-neutral, so when it engages (and on which engine history)
/// is unobservable in the decoded run.
///
/// Runs go through [`crate::Simulation::count_builder`], which builds a
/// `ConfigSim` under the chosen [`EngineMode`]:
///
/// ```
/// use pp_engine::epidemic::InfectionEpidemic;
/// use pp_engine::simulation::{count_of, EngineKind, Simulation};
///
/// let n = 100_000;
/// let mut sim = Simulation::count_builder(InfectionEpidemic)
///     .config([(false, n - 1), (true, 1)])
///     .seed(7)
///     .check_every(10_000)
///     .until(move |view| count_of(view, &true) == n)
///     .build();
/// assert_eq!(sim.engine_kind(), EngineKind::Batched);
/// assert!(sim.run().converged);
/// ```
pub struct ConfigSim<P: CountProtocol> {
    /// `None` only transiently while [`ConfigSim::switch_engine`] rebuilds.
    engine: Option<Engine<P>>,
    /// Whether mid-run re-selection is active ([`EngineMode::Auto`]).
    adaptive: bool,
    /// Number of mid-run engine switches performed so far.
    switches: u32,
    /// Whether interner GC is active: the protocol is table-backed
    /// ([`CountProtocol::table_len`]) and GC was not disabled (the
    /// `PP_GC=off` environment knob or [`ConfigSim::set_gc`]).
    gc: bool,
    /// Number of interner-GC passes performed so far.
    collections: u32,
    /// Observability: attached counter registry, if any (see
    /// [`ConfigSim::set_metrics`]).
    metrics: Option<Metrics>,
    /// Adapter counters already flushed into `metrics` (the adapter's
    /// tallies are cumulative; only the deltas are added, so one registry
    /// can serve several simulators without double counting).
    flushed_adapter: AdapterStats,
    /// Engine-side slot-index counters already flushed (the engine's index
    /// is rebuilt — and its tallies reset — on switches and GC passes;
    /// [`ConfigSim::flush_telemetry`] runs right before both).
    flushed_index: SlotIndexStats,
}

impl<P: CountProtocol> ConfigSim<P> {
    /// Populations at least this large start on the batched engine (when
    /// the protocol prefers it), and only from this size may Auto mode
    /// adapt up to it mid-run. Below it, batches of `Θ(√n)` interactions
    /// are too short to amortize their `O(k²)` sampling overhead.
    ///
    /// The value is the measured crossover (2-core box). Pinned
    /// `Batched` against pinned `Sequential`, per interaction (median of 5
    /// alternating passes of ≥ 0.3 s each), batched wins by:
    ///
    /// | n    | epidemic | sub3   | partition | halving | counter |
    /// |------|----------|--------|-----------|---------|---------|
    /// | 128  | 0.86×    | 1.05×  | 1.95×     | 0.62×   | 0.47×   |
    /// | 256  | 1.26×    | 1.74×  | 2.87×     | 0.88×   | 0.42×   |
    /// | 512  | 1.99×    | 2.70×  | 3.76×     | 1.64×   | 0.57×   |
    /// | 1000 | 2.48×    | 4.23×  | 5.02×     | 2.96×   | 0.59×   |
    /// | 2048 | 3.66×    | 7.14×  | 6.77×     | 5.63×   | 0.77×   |
    /// | 4095 | 4.84×    | 12.65× | 6.42×     | 9.82×   | 1.12×   |
    ///
    /// 512 is the smallest power of two where every `k ≤ 3` protocol
    /// (the Lemma A.1 and Corollary 3.4 epidemics, the Lemma 3.2
    /// partition, the §1 halving) wins. The Section 4 counter relation
    /// (`k = 11`, checked every `n/100` interactions, which cuts batches
    /// short) wins only from ~4096.
    ///
    /// Auto mode per registry trial (`run_sweep`, one worker, same
    /// seeds), this threshold against the former 4096, speedup in median
    /// ms per trial over 5 alternating passes (`nonuniform_majority`: one
    /// pass of 2 trials; at 10⁴ it costs ~50 s per trial, and both
    /// thresholds start it on the same engine):
    ///
    /// | experiment          | 256   | 512   | 1000  | 2048  | 4095   | 10⁴   |
    /// |---------------------|-------|-------|-------|-------|--------|-------|
    /// | epidemic_full       | 0.98× | 1.23× | 1.46× | 1.96× | 3.00×  | 1.01× |
    /// | epidemic_sub3       | 0.99× | 1.85× | 3.09× | 4.46× | 7.52×  | 1.01× |
    /// | partition           | 0.93× | 1.87× | 2.44× | 3.78× | 4.85×  | 0.98× |
    /// | intro_functions     | 0.75× | 1.17× | 1.80× | 6.09× | 11.59× | 0.99× |
    /// | counter_signal      | 1.01× | 0.60× | 0.63× | 0.69× | 1.01×  | 1.50× |
    /// | fixed_signal        | 0.98× | 0.92× | 0.94× | 0.96× | 0.92×  | 1.07× |
    /// | geometric_signal    | 0.94× | 1.02× | 1.01× | 1.01× | 0.99×  | 0.98× |
    /// | exact_backup        | 1.00× | 1.15× | 0.83× | 0.96× | 0.92×  | 0.91× |
    /// | nonuniform_majority | 1.24× | 0.94× | 0.96× | 0.91× | 1.03×  | —     |
    ///
    /// Cells where both thresholds pick the same engine (n = 256, n = 10⁴
    /// except the counter, which now batches through its declared law, and
    /// `geometric_signal`, which never batches) show the timing noise:
    /// ±10% on most rows, 0.75–1.24× on the few-millisecond
    /// `intro_functions` and two-trial `nonuniform_majority` cells. The
    /// signal experiments check every `n/100` interactions, which cuts
    /// batches short: the counter loses ~35% per trial from 512 to 2048 and
    /// `fixed_signal` ~6%.
    pub const BATCH_THRESHOLD: u64 = 512;

    /// Chooses the fastest correct engine for this protocol and population,
    /// with adaptive mid-run re-selection ([`EngineMode::Auto`]).
    pub fn new(protocol: P, config: CountConfiguration<P::State>, seed: u64) -> Self {
        Self::with_mode(protocol, config, seed, EngineMode::Auto)
    }

    /// Builds a simulator with an explicit engine policy — the selection
    /// hook used by the sweep orchestration layer (`pp-sweep`) to pin an
    /// engine per experiment grid.
    pub fn with_mode(
        protocol: P,
        config: CountConfiguration<P::State>,
        seed: u64,
        mode: EngineMode,
    ) -> Self {
        let (engine, adaptive) = match mode {
            EngineMode::Auto => {
                let batched = protocol.prefers_batching()
                    && config.population_size() >= Self::BATCH_THRESHOLD;
                let engine = if batched {
                    Engine::Batched(BatchedCountSim::new(protocol, config, seed))
                } else {
                    Engine::Sequential(CountSim::new(protocol, config, seed))
                };
                (engine, true)
            }
            EngineMode::Sequential => (
                Engine::Sequential(CountSim::new(protocol, config, seed)),
                false,
            ),
            EngineMode::Batched => (
                Engine::Batched(BatchedCountSim::new(protocol, config, seed)),
                false,
            ),
        };
        let table_backed = match &engine {
            Engine::Sequential(s) => s.protocol().table_len().is_some(),
            Engine::Batched(b) => b.protocol().table_len().is_some(),
        };
        Self {
            engine: Some(engine),
            adaptive,
            switches: 0,
            gc: table_backed && gc_enabled_from_env(),
            collections: 0,
            metrics: None,
            flushed_adapter: AdapterStats::default(),
            flushed_index: SlotIndexStats::default(),
        }
    }

    /// Forces the sequential engine ([`EngineMode::Sequential`]).
    pub fn sequential(protocol: P, config: CountConfiguration<P::State>, seed: u64) -> Self {
        Self::with_mode(protocol, config, seed, EngineMode::Sequential)
    }

    /// Forces the batched engine ([`EngineMode::Batched`]; exact for
    /// randomized protocols too; fast only when the occupied state count
    /// stays small).
    pub fn batched(protocol: P, config: CountConfiguration<P::State>, seed: u64) -> Self {
        Self::with_mode(protocol, config, seed, EngineMode::Batched)
    }

    fn eng(&self) -> &Engine<P> {
        self.engine.as_ref().expect(ENGINE_PRESENT)
    }

    fn eng_mut(&mut self) -> &mut Engine<P> {
        self.engine.as_mut().expect(ENGINE_PRESENT)
    }

    /// Whether the batched engine is active.
    pub fn is_batched(&self) -> bool {
        matches!(self.eng(), Engine::Batched(_))
    }

    /// Checkpoint accessor: `(adaptive, gc, switches, collections)` — the
    /// facade's own state beside the inner engine.
    pub(crate) fn snapshot_flags(&self) -> (bool, bool, u32, u32) {
        (self.adaptive, self.gc, self.switches, self.collections)
    }

    /// Checkpoint accessor: the inner sequential engine, if active.
    pub(crate) fn inner_sequential(&self) -> Option<&CountSim<P>> {
        match self.eng() {
            Engine::Sequential(s) => Some(s),
            Engine::Batched(_) => None,
        }
    }

    /// Checkpoint accessor: the inner batched engine, if active.
    pub(crate) fn inner_batched(&self) -> Option<&BatchedCountSim<P>> {
        match self.eng() {
            Engine::Sequential(_) => None,
            Engine::Batched(b) => Some(b),
        }
    }

    /// Checkpoint accessor: the protocol, whichever engine holds it.
    pub(crate) fn protocol(&self) -> &P {
        match self.eng() {
            Engine::Sequential(s) => s.protocol(),
            Engine::Batched(b) => b.protocol(),
        }
    }

    /// Rebuilds a facade around a restored sequential engine, setting the
    /// facade counters directly (never consulting the environment — a
    /// restored run must match the snapshotted one even if `PP_GC`
    /// changed in between).
    pub(crate) fn from_restored_sequential(
        sim: CountSim<P>,
        adaptive: bool,
        gc: bool,
        switches: u32,
        collections: u32,
    ) -> Self {
        Self {
            engine: Some(Engine::Sequential(sim)),
            adaptive,
            switches,
            gc,
            collections,
            metrics: None,
            flushed_adapter: AdapterStats::default(),
            flushed_index: SlotIndexStats::default(),
        }
    }

    /// Rebuilds a facade around a restored batched engine (see
    /// [`ConfigSim::from_restored_sequential`]).
    pub(crate) fn from_restored_batched(
        sim: BatchedCountSim<P>,
        adaptive: bool,
        gc: bool,
        switches: u32,
        collections: u32,
    ) -> Self {
        Self {
            engine: Some(Engine::Batched(sim)),
            adaptive,
            switches,
            gc,
            collections,
            metrics: None,
            flushed_adapter: AdapterStats::default(),
            flushed_index: SlotIndexStats::default(),
        }
    }

    /// Number of mid-run engine switches performed so far (always 0 outside
    /// [`EngineMode::Auto`]).
    pub fn engine_switches(&self) -> u32 {
        self.switches
    }

    /// Attaches a telemetry registry: the facade records mode switches,
    /// adaptive support-vs-`E[T]` readings, GC passes, and dense-lane
    /// episodes, flushes the wrapped adapter's pair-cache / interner-index
    /// deltas, and forwards the registry to the inner batched engine for
    /// its batch / null-skip tallies (re-attached across engine switches).
    /// Recording never consumes randomness and influences no decision, so
    /// attached and detached runs are byte-identical
    /// (`tests/telemetry_neutrality.rs`).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        if let Engine::Batched(b) = self.eng_mut() {
            b.set_metrics(metrics.clone());
        }
        self.metrics = Some(metrics);
    }

    /// Flushes the cumulative adapter (pair cache + interner index) and
    /// engine slot-index tallies into the attached registry as deltas
    /// since the last flush. Called at every advance checkpoint and right
    /// before the operations that rebuild — and thereby reset — the
    /// engine-side index (engine switches, GC passes).
    fn flush_telemetry(&mut self) {
        let Some(m) = &self.metrics else {
            return;
        };
        // Runs once per advance, so it skips the atomic adds of zero
        // deltas (the common case outside the interned adapter).
        let add = |c: Counter, delta: u64| {
            if delta > 0 {
                m.add(c, delta);
            }
        };
        if let Some(stats) = self.protocol().telemetry_stats() {
            let last = self.flushed_adapter;
            add(Counter::PairCacheHits, stats.cache_hits - last.cache_hits);
            add(
                Counter::PairCacheMisses,
                stats.cache_misses - last.cache_misses,
            );
            add(
                Counter::PairCacheGenDrops,
                stats.cache_gen_drops - last.cache_gen_drops,
            );
            add(
                Counter::SlotLookups,
                stats.index_lookups - last.index_lookups,
            );
            add(Counter::SlotProbes, stats.index_probes - last.index_probes);
            add(
                Counter::SlotRebuilds,
                stats.index_rebuilds - last.index_rebuilds,
            );
            self.flushed_adapter = stats;
        }
        let index = match self.eng() {
            Engine::Sequential(s) => s.config().index_stats(),
            Engine::Batched(b) => b.index_stats(),
        };
        // The engine index is rebuilt from scratch on switches and GC
        // passes; a current tally below the flushed baseline means a reset
        // happened since (the pre-reset tail was flushed just before it).
        let last = self.flushed_index;
        add(
            Counter::SlotLookups,
            index.lookups.saturating_sub(last.lookups),
        );
        add(
            Counter::SlotProbes,
            index.probes.saturating_sub(last.probes),
        );
        add(
            Counter::SlotRebuilds,
            index.rebuilds.saturating_sub(last.rebuilds),
        );
        self.flushed_index = index;
    }

    /// Enables or disables interner GC for this simulator (on by default
    /// for table-backed protocols; `PP_GC=off` in the environment disables
    /// it globally). A no-op for protocols without a backing table.
    pub fn set_gc(&mut self, enabled: bool) {
        let table_backed = match self.eng() {
            Engine::Sequential(s) => s.protocol().table_len().is_some(),
            Engine::Batched(b) => b.protocol().table_len().is_some(),
        };
        self.gc = enabled && table_backed;
    }

    /// Number of interner-GC passes performed so far (always 0 for
    /// protocols without a backing state table).
    pub fn gc_collections(&self) -> u32 {
        self.collections
    }

    /// Forces one interner-GC pass immediately, regardless of the
    /// dead/live trigger — the testing/tooling hook behind the
    /// eviction-invariance property suite. Returns whether the protocol
    /// performed a collection (`false` for protocols without a backing
    /// table). Like triggered collection, this never changes the
    /// trajectory.
    pub fn collect_now(&mut self) -> bool {
        let table = match self.eng() {
            Engine::Sequential(s) => s.protocol().table_len().unwrap_or(0),
            Engine::Batched(b) => b.protocol().table_len().unwrap_or(0),
        };
        self.flush_telemetry();
        let collected = match self.eng_mut() {
            Engine::Sequential(s) => s.collect_table(),
            Engine::Batched(b) => b.collect_table(),
        };
        if collected {
            self.collections += 1;
            self.record_gc_pass(table);
        }
        collected
    }

    /// Population size.
    pub fn population_size(&self) -> u64 {
        match self.eng() {
            Engine::Sequential(s) => s.population_size(),
            Engine::Batched(b) => b.population_size(),
        }
    }

    /// Parallel time elapsed.
    pub fn time(&self) -> f64 {
        match self.eng() {
            Engine::Sequential(s) => s.time(),
            Engine::Batched(b) => b.time(),
        }
    }

    /// Total interactions executed.
    pub fn interactions(&self) -> u64 {
        match self.eng() {
            Engine::Sequential(s) => s.interactions(),
            Engine::Batched(b) => b.interactions(),
        }
    }

    /// Count of agents currently in `state`.
    pub fn count(&self, state: &P::State) -> u64 {
        match self.eng() {
            Engine::Sequential(s) => s.config().count(state),
            Engine::Batched(b) => b.count(state),
        }
    }

    /// Materializes the current configuration.
    pub fn config_view(&self) -> CountConfiguration<P::State> {
        match self.eng() {
            Engine::Sequential(s) => s.config().clone(),
            Engine::Batched(b) => b.config_view(),
        }
    }

    /// Re-evaluates the engine choice from the measured occupied support
    /// `k` (Auto mode only) and switches mid-run when the other engine
    /// wins. Leaving the batched engine needs only `k² > ADAPT_DOWN·E[T]`;
    /// (re-)entering it additionally requires the population to clear
    /// [`Self::BATCH_THRESHOLD`] and the protocol's laws to be bulk-applicable
    /// ([`CountProtocol::prefers_batching`] or a deterministic transition) —
    /// otherwise every pair falls into the sampled per-interaction path and
    /// batching buys nothing.
    fn maybe_adapt(&mut self) {
        if !self.adaptive {
            return;
        }
        let (support, mean_batch, switch) = match self.eng() {
            Engine::Batched(b) => {
                let k = b.occupied_support() as f64;
                let mean_batch = b.mean_batch_len();
                (k, mean_batch, k * k > ADAPT_DOWN * mean_batch)
            }
            Engine::Sequential(s) => {
                let n = s.population_size();
                if n < Self::BATCH_THRESHOLD {
                    return;
                }
                let p = s.protocol();
                if !(p.prefers_batching() || p.is_deterministic()) {
                    return;
                }
                let k = s.config().support_size() as f64;
                // E[T] ≈ √(πn/8): the √n-asymptotics of the exact survival
                // table the batched engine would precompute.
                let mean_batch = (std::f64::consts::PI * n as f64 / 8.0).sqrt();
                (k, mean_batch, k * k < ADAPT_UP * mean_batch)
            }
        };
        if let Some(m) = &self.metrics {
            // The support-vs-E[T] reading behind every Auto-mode decision,
            // switch or not — the histograms show where a run sat relative
            // to the crossover.
            m.record(Hist::AdaptSupport, support as u64);
            m.record(Hist::AdaptMeanBatch, mean_batch as u64);
        }
        if !switch {
            return;
        }
        self.switch_engine();
        if let Some(m) = &self.metrics {
            m.trace_event(
                "mode_switch",
                &[
                    (
                        "to",
                        TraceValue::Str(if self.is_batched() {
                            "batched"
                        } else {
                            "sequential"
                        }),
                    ),
                    ("support", TraceValue::U64(support as u64)),
                    ("mean_batch", TraceValue::F64(mean_batch)),
                    ("interactions", TraceValue::U64(self.interactions())),
                ],
            );
        }
    }

    /// Re-checks the interner dead/live ratio (at the same adaptive
    /// checkpoints as [`ConfigSim::maybe_adapt`]) and runs one GC pass —
    /// evict dead table entries, compact, rename the configuration, reset
    /// the batched law table — once the backing table exceeds
    /// [`GC_DEAD_FACTOR`] times the live support. Collection preserves the
    /// decoded multiset, the engine's slot layout, and the relative id
    /// order, and consumes no randomness, so the trajectory is identical
    /// with GC on and off (`tests/gc_equivalence.rs` holds it to that,
    /// byte for byte).
    fn maybe_collect(&mut self) {
        if !self.gc {
            return;
        }
        let table = match self.eng() {
            Engine::Sequential(s) => {
                let table = s.protocol().table_len().unwrap_or(0);
                if table < GC_MIN_TABLE || table <= GC_DEAD_FACTOR * s.config().registered_len() {
                    return;
                }
                table
            }
            Engine::Batched(b) => {
                let table = b.protocol().table_len().unwrap_or(0);
                if table < GC_MIN_TABLE || table <= GC_DEAD_FACTOR * b.occupied_support() {
                    return;
                }
                table
            }
        };
        // A GC pass rebuilds the batched engine's slot index (resetting its
        // tallies); flush the pre-pass tail first.
        self.flush_telemetry();
        let collected = match self.eng_mut() {
            Engine::Sequential(s) => s.collect_table(),
            Engine::Batched(b) => b.collect_table(),
        };
        if collected {
            self.collections += 1;
            self.record_gc_pass(table);
        }
    }

    /// Records one completed GC pass into the attached registry: pass
    /// count, evicted-entry count (pre-pass table minus survivors), the
    /// pre/post table sizes, and — when a tracer is attached — a
    /// `gc_pass` trace event.
    fn record_gc_pass(&self, table_before: usize) {
        let Some(m) = &self.metrics else {
            return;
        };
        let live = self.protocol().table_len().unwrap_or(0);
        m.incr(Counter::GcPasses);
        m.add(Counter::GcEvicted, table_before.saturating_sub(live) as u64);
        m.record(Hist::GcTableLen, table_before as u64);
        m.record(Hist::GcLive, live as u64);
        m.trace_event(
            "gc_pass",
            &[
                ("table", TraceValue::U64(table_before as u64)),
                ("live", TraceValue::U64(live as u64)),
                (
                    "evicted",
                    TraceValue::U64(table_before.saturating_sub(live) as u64),
                ),
                ("interactions", TraceValue::U64(self.interactions())),
            ],
        );
    }

    /// Moves the run to the other engine, carrying the protocol,
    /// configuration, RNG stream, and interaction clock across. Exact:
    /// both engines realize the same stochastic process, so switching at an
    /// interaction boundary changes wall-clock cost only.
    fn switch_engine(&mut self) {
        // The new engine re-canonicalizes its slot tables (resetting the
        // index tallies); flush the outgoing engine's tail first.
        self.flush_telemetry();
        let engine = self.engine.take().expect(ENGINE_PRESENT);
        self.engine = Some(match engine {
            Engine::Batched(b) => {
                let (protocol, config, rng, interactions) = b.into_parts();
                Engine::Sequential(CountSim::from_parts(protocol, config, rng, interactions))
            }
            Engine::Sequential(s) => {
                let (protocol, config, rng, interactions) = s.into_parts();
                let mut b = BatchedCountSim::from_parts(protocol, config, rng, interactions);
                if let Some(m) = &self.metrics {
                    b.set_metrics(m.clone());
                }
                Engine::Batched(b)
            }
        });
        self.switches += 1;
        self.flushed_index = SlotIndexStats::default();
        if let Some(m) = &self.metrics {
            m.incr(Counter::ModeSwitches);
            m.incr(if self.is_batched() {
                Counter::SwitchesToBatched
            } else {
                Counter::SwitchesToSequential
            });
        }
    }

    /// Executes at least one and at most `budget` interactions on the
    /// current engine (the granularity [`crate::Simulation`]'s run driver
    /// advances by): one batch or null-skip step when batched, a `~√n`
    /// chunk when sequential under [`EngineMode::Auto`] or with interner
    /// GC active (both re-check state at chunk boundaries), the full
    /// budget when pinned sequential without GC. Each call ends with the
    /// adaptive engine re-selection and the interner dead/live re-check
    /// (the interner GC re-check) where applicable. Returns the number
    /// executed; never overshoots, so run drivers land checkpoints
    /// exactly.
    pub fn advance(&mut self, budget: u64) -> u64 {
        debug_assert!(budget >= 1);
        let chunked = self.adaptive || self.gc;
        let mut lane = None;
        let executed = match self.eng_mut() {
            Engine::Batched(b) => b.advance(budget),
            Engine::Sequential(s) => {
                // Offer the protocol's dense per-agent lane first
                // ([`CountProtocol::advance_dense`]): table-backed
                // protocols running at churn-scale support execute the
                // budget at agent granularity — the counter-churn regime
                // where the per-interaction configuration machinery
                // costs more than it saves. The lane collapses to a
                // canonical configuration before returning, so the
                // adaptive / GC re-checks below see an ordinary
                // sequential engine.
                if let Some(done) = s.advance_dense(budget) {
                    lane = Some((s.population_size(), done, s.interactions()));
                    done
                } else {
                    let chunk = if chunked {
                        budget.min(((s.population_size() as f64).sqrt() as u64).max(64))
                    } else {
                        budget
                    };
                    s.steps(chunk);
                    chunk
                }
            }
        };
        if let (Some((n, done, interactions)), Some(m)) = (lane, &self.metrics) {
            m.incr(Counter::DenseLaneEpisodes);
            m.add(Counter::DenseLaneInteractions, done);
            m.record(Hist::DenseLaneN, n);
            m.trace_event(
                "dense_lane",
                &[
                    ("n", TraceValue::U64(n)),
                    ("episode_interactions", TraceValue::U64(done)),
                    ("interactions", TraceValue::U64(interactions)),
                ],
            );
        }
        if self.adaptive {
            self.maybe_adapt();
        }
        self.maybe_collect();
        if self.metrics.is_some() {
            self.flush_telemetry();
        }
        executed
    }

    /// Executes (at least) `k` interactions; the batched engine lands
    /// exactly on `k` via batch truncation.
    pub fn steps(&mut self, k: u64) {
        if !self.adaptive && !self.gc {
            match self.eng_mut() {
                Engine::Sequential(s) => s.steps(k),
                Engine::Batched(b) => b.steps(k),
            }
            if self.metrics.is_some() {
                self.flush_telemetry();
            }
            return;
        }
        let target = self.interactions() + k;
        while self.interactions() < target {
            self.advance(target - self.interactions());
        }
    }

    /// Runs for `t` units of parallel time.
    pub fn run_for_time(&mut self, t: f64) {
        self.steps((t * self.population_size() as f64).ceil() as u64);
    }
}

impl<P: CountProtocol> std::fmt::Debug for ConfigSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.eng() {
            Engine::Sequential(s) => f.debug_tuple("ConfigSim::Sequential").field(s).finish(),
            Engine::Batched(b) => f.debug_tuple("ConfigSim::Batched").field(b).finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{count_of, EngineKind, Simulation};

    /// One-way infection epidemic (deterministic).
    #[derive(Clone, Copy)]
    struct Infection;

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
    struct LazyUnenumerated;

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
    fn facade_dispatches_on_size_and_batching_preference() {
        let threshold = ConfigSim::<Infection>::BATCH_THRESHOLD;
        let big = CountConfiguration::from_pairs([(0u8, threshold)]);
        assert!(ConfigSim::new(Infection, big, 1).is_batched());
        let below = CountConfiguration::from_pairs([(0u8, threshold - 1)]);
        assert!(!ConfigSim::new(Infection, below, 1).is_batched());
        let small = CountConfiguration::from_pairs([(0u8, 100)]);
        assert!(!ConfigSim::new(Infection, small, 1).is_batched());

        // A randomized protocol that enumerates its outcomes and opts in
        // batches at scale; one that does not stays sequential.
        let big = CountConfiguration::from_pairs([(0u8, 500_000), (1u8, 500_000)]);
        assert!(ConfigSim::new(LazyCopy, big.clone(), 1).is_batched());
        assert!(!ConfigSim::new(LazyUnenumerated, big, 1).is_batched());
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

    /// Counter protocol whose occupied support grows without bound (every
    /// receiver increments): batching is the wrong engine once `k² ≫ √n`,
    /// even though the protocol is deterministic and so asks for it.
    #[derive(Clone, Copy)]
    struct ChurningCounter;

    impl DeterministicCountProtocol for ChurningCounter {
        type State = u32;

        fn transition_det(&self, rec: u32, sen: u32) -> (u32, u32) {
            (rec + 1, sen)
        }
    }

    #[test]
    fn adaptive_abandons_batching_when_support_explodes() {
        let n = 20_000u64;
        let config = CountConfiguration::uniform(0u32, n);
        let mut sim = ConfigSim::new(ChurningCounter, config, 5);
        assert!(sim.is_batched(), "deterministic protocol starts batched");
        // After 12n interactions the counters are ~Poisson(12): they occupy
        // ~25 consecutive values, so k² ≈ 600 far exceeds
        // 4·E[T] ≈ 4·√(πn/8) ≈ 354 and Auto must bail out.
        sim.steps(12 * n);
        assert!(
            !sim.is_batched(),
            "support of {} states should have forced a downswitch",
            sim.config_view().support_size()
        );
        assert!(sim.engine_switches() >= 1);
        assert_eq!(sim.config_view().population_size(), n);
    }

    /// Deterministic epidemic that *declines* batching: Auto starts it
    /// sequential, measures the 2-state support, and upswitches.
    #[derive(Clone, Copy)]
    struct ShyInfection;

    impl DeterministicCountProtocol for ShyInfection {
        type State = u8;

        fn transition_det(&self, rec: u8, sen: u8) -> (u8, u8) {
            (rec.max(sen), sen)
        }

        fn prefers_batching(&self) -> bool {
            false
        }
    }

    #[test]
    fn adaptive_adopts_batching_when_support_is_tiny() {
        let n = 100_000u64;
        let metrics = Metrics::new();
        let mut sim = Simulation::count_builder(ShyInfection)
            .config([(0u8, n - 1), (1u8, 1)])
            .seed(9)
            .check_every(n / 10)
            .metrics(&metrics)
            .until(move |view| count_of(view, &1) == n)
            .build();
        assert_eq!(
            sim.engine_kind(),
            EngineKind::Sequential,
            "prefers_batching = false starts sequential"
        );
        assert!(sim.run().converged);
        assert!(
            metrics.counter(Counter::ModeSwitches) >= 1,
            "2-state support at n = 10⁵ should have upswitched"
        );
        assert_eq!(sim.count(&1), n);
    }

    #[test]
    fn forced_engines_never_switch() {
        let n = 20_000u64;
        let mut seq =
            ConfigSim::sequential(ChurningCounter, CountConfiguration::uniform(0u32, n), 5);
        seq.steps(5_000);
        assert!(!seq.is_batched());
        assert_eq!(seq.engine_switches(), 0);
        let mut bat = ConfigSim::batched(ChurningCounter, CountConfiguration::uniform(0u32, n), 5);
        bat.steps(5_000);
        assert!(bat.is_batched());
        assert_eq!(bat.engine_switches(), 0);
    }

    #[test]
    fn engine_mode_parses_from_str() {
        assert_eq!("auto".parse::<EngineMode>().unwrap(), EngineMode::Auto);
        assert_eq!(
            "sequential".parse::<EngineMode>().unwrap(),
            EngineMode::Sequential
        );
        assert_eq!(
            "batched".parse::<EngineMode>().unwrap(),
            EngineMode::Batched
        );
        assert!("fast".parse::<EngineMode>().is_err());
    }

    #[test]
    fn switching_preserves_population_and_clock() {
        let n = 50_000u64;
        let config = CountConfiguration::uniform(0u32, n);
        let mut sim = ConfigSim::new(ChurningCounter, config, 11);
        sim.steps(3 * n);
        assert_eq!(sim.interactions(), 3 * n);
        assert_eq!(sim.config_view().population_size(), n);
        // Total increments equal interactions: each interaction bumps
        // exactly one receiver by one, across any engine switches.
        let total: u64 = sim.config_view().iter().map(|(&s, &c)| s as u64 * c).sum();
        assert_eq!(total, 3 * n);
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

    /// Asserts that every computed law-table entry's [`NULL_FLAG`] equals
    /// [`BatchedCountSim::law_is_null`] of the law it indexes; returns the
    /// `[null diagonal, null off-diagonal, productive]` entry counts.
    fn assert_flags_match_laws<P: CountProtocol>(sim: &BatchedCountSim<P>) -> [usize; 3] {
        let mut tally = [0; 3];
        for a in 0..sim.states.len() {
            for b in 0..sim.states.len() {
                let entry = sim.table[a * sim.cap + b];
                if entry == UNCOMPUTED {
                    continue;
                }
                let flagged = entry & NULL_FLAG != 0;
                assert_eq!(
                    flagged,
                    sim.law_is_null(entry & !NULL_FLAG, a, b),
                    "flag of pair ({a}, {b}) disagrees with its law"
                );
                let slot = match (flagged, a == b) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, _) => 2,
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
        sim.steps(200_000);
        let tally = assert_flags_match_laws(&sim);
        assert!(tally.iter().all(|&t| t > 0), "entry tally {tally:?}");
        assert_eq!(sim.config_view().population_size(), 4_096);
    }
}
