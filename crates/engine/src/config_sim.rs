//! The count-engine facade: [`ConfigSim`] runs a [`CountProtocol`] on
//! [`CountSim`] or [`BatchedCountSim`], picks between them by
//! [`EngineMode`], and in Auto mode re-picks mid-run. The same
//! checkpoints drive interner garbage collection and offer table-backed
//! protocols the dense per-agent lane.

use pp_telemetry::{Counter, Hist, Metrics, TraceValue};

use crate::batch::BatchedCountSim;
use crate::count_sim::{AdapterStats, CountConfiguration, CountProtocol, CountSim};
use crate::slot_index::SlotIndexStats;

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
pub(crate) enum Engine<P: CountProtocol> {
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
/// [`EngineMode::Auto`] starts on the batched engine when the protocol asks
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
    /// | counter_signal      | 1.01× | 0.81× | 0.80× | 0.83× | 1.01×  | 1.50× |
    /// | fixed_signal        | 0.98× | 0.95× | 0.96× | 1.05× | 0.92×  | 1.07× |
    /// | geometric_signal    | 0.94× | 1.02× | 1.01× | 1.01× | 0.99×  | 0.98× |
    /// | exact_backup        | 1.00× | 1.15× | 0.83× | 0.96× | 0.92×  | 0.91× |
    /// | nonuniform_majority | 1.24× | 0.94× | 0.96× | 0.91× | 1.03×  | —     |
    ///
    /// Cells where both thresholds pick the same engine (n = 256, n = 10⁴
    /// except the counter, which now batches through its declared law, and
    /// `geometric_signal`, which never batches) show the timing noise:
    /// ±10% on most rows, 0.75–1.24× on the few-millisecond
    /// `intro_functions` and two-trial `nonuniform_majority` cells.
    ///
    /// The signal experiments check every `n/100` interactions, which cuts
    /// batches short. Their cells from 512 to 2048 were re-measured once
    /// checkpoint views stopped copying the configuration: Auto against
    /// pinned `Sequential` (what the former threshold ran there), median
    /// of 5 alternating passes of ~0.1–0.4 s each. That took the counter
    /// from 0.60–0.69× to 0.80–0.83× (0.25 against 0.20 ms per trial at
    /// 512, 0.65 against 0.54 ms at 2048), and `fixed_signal` is now level
    /// within noise. The counter's remaining loss is the cut batches, not
    /// the views.
    pub const BATCH_THRESHOLD: u64 = 512;

    /// Builds a simulator under an engine policy: [`EngineMode::Auto`]
    /// picks the fastest correct engine for this protocol and population
    /// and re-selects it mid-run; the other modes pin one engine. The sweep
    /// layer (`pp-sweep`) pins engines per experiment grid through the
    /// same argument.
    pub fn with_mode(
        protocol: P,
        config: CountConfiguration<P::State>,
        seed: u64,
        mode: EngineMode,
    ) -> Self {
        let batched = match mode {
            EngineMode::Auto => {
                protocol.prefers_batching() && config.population_size() >= Self::BATCH_THRESHOLD
            }
            EngineMode::Sequential => false,
            EngineMode::Batched => true,
        };
        let gc = protocol.table_len().is_some() && gc_enabled_from_env();
        let engine = if batched {
            Engine::Batched(BatchedCountSim::new(protocol, config, seed))
        } else {
            Engine::Sequential(CountSim::new(protocol, config, seed))
        };
        Self::from_engine(engine, mode == EngineMode::Auto, gc, 0, 0)
    }

    /// Wraps `engine` in the facade with its flags and counters set
    /// directly: the one path behind [`ConfigSim::with_mode`] and snapshot
    /// restore. A restore passes the snapshotted values and never consults
    /// the environment, so a restored run matches the snapshotted one even
    /// if `PP_GC` changed in between.
    pub(crate) fn from_engine(
        engine: Engine<P>,
        adaptive: bool,
        gc: bool,
        switches: u32,
        collections: u32,
    ) -> Self {
        Self {
            engine: Some(engine),
            adaptive,
            switches,
            gc,
            collections,
            metrics: None,
            flushed_adapter: AdapterStats::default(),
            flushed_index: SlotIndexStats::default(),
        }
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

    /// The protocol, whichever engine holds it (for an [`Interned`]
    /// adapter: the id ↔ state table that decodes views).
    ///
    /// [`Interned`]: crate::interned::Interned
    pub fn protocol(&self) -> &P {
        match self.eng() {
            Engine::Sequential(s) => s.protocol(),
            Engine::Batched(b) => b.protocol(),
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
        self.gc = enabled && self.protocol().table_len().is_some();
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
        let table = self.protocol().table_len().unwrap_or(0);
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

    /// The checkpoint view: replaces `out` with the occupied `(state,
    /// count)` pairs in state order, read in one pass over the active
    /// engine's slot tables, with no configuration copy or index rebuild.
    pub fn view_into(&self, out: &mut Vec<(P::State, u64)>) {
        match self.eng() {
            Engine::Sequential(s) => s.config().view_into(out),
            Engine::Batched(b) => b.view_into(out),
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
        let table = self.protocol().table_len().unwrap_or(0);
        if table < GC_MIN_TABLE {
            return;
        }
        let live = match self.eng() {
            Engine::Sequential(s) => s.config().registered_len(),
            Engine::Batched(b) => b.occupied_support(),
        };
        if table <= GC_DEAD_FACTOR * live {
            return;
        }
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
    use crate::batch::tests::{Infection, LazyCopy, LazyUnenumerated};
    use crate::batch::DeterministicCountProtocol;
    use crate::simulation::{count_of, view_population, EngineKind, Simulation};

    /// The simulator's current checkpoint view.
    fn view<P: CountProtocol>(sim: &ConfigSim<P>) -> Vec<(P::State, u64)> {
        let mut view = Vec::new();
        sim.view_into(&mut view);
        view
    }

    #[test]
    fn facade_dispatches_on_size_and_batching_preference() {
        let auto = |config| ConfigSim::with_mode(Infection, config, 1, EngineMode::Auto);
        let threshold = ConfigSim::<Infection>::BATCH_THRESHOLD;
        assert!(auto(CountConfiguration::from_pairs([(0u8, threshold)])).is_batched());
        let below = CountConfiguration::from_pairs([(0u8, threshold - 1)]);
        assert!(!auto(below).is_batched());
        assert!(!auto(CountConfiguration::from_pairs([(0u8, 100)])).is_batched());

        // A randomized protocol that enumerates its outcomes and opts in
        // batches at scale; one that does not stays sequential.
        let big = CountConfiguration::from_pairs([(0u8, 500_000), (1u8, 500_000)]);
        assert!(ConfigSim::with_mode(LazyCopy, big.clone(), 1, EngineMode::Auto).is_batched());
        assert!(!ConfigSim::with_mode(LazyUnenumerated, big, 1, EngineMode::Auto).is_batched());
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
        let mut sim = ConfigSim::with_mode(ChurningCounter, config, 5, EngineMode::Auto);
        assert!(sim.is_batched(), "deterministic protocol starts batched");
        // After 12n interactions the counters are ~Poisson(12): they occupy
        // ~25 consecutive values, so k² ≈ 600 far exceeds
        // 4·E[T] ≈ 4·√(πn/8) ≈ 354 and Auto must bail out.
        sim.steps(12 * n);
        assert!(
            !sim.is_batched(),
            "support of {} states should have forced a downswitch",
            view(&sim).len()
        );
        assert!(sim.engine_switches() >= 1);
        assert_eq!(view_population(&view(&sim)), n);
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
        for mode in [EngineMode::Sequential, EngineMode::Batched] {
            let config = CountConfiguration::uniform(0u32, n);
            let mut sim = ConfigSim::with_mode(ChurningCounter, config, 5, mode);
            sim.steps(5_000);
            assert_eq!(sim.is_batched(), mode == EngineMode::Batched);
            assert_eq!(sim.engine_switches(), 0);
        }
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
        let mut sim = ConfigSim::with_mode(ChurningCounter, config, 11, EngineMode::Auto);
        sim.steps(3 * n);
        assert_eq!(sim.interactions(), 3 * n);
        let view = view(&sim);
        assert_eq!(view_population(&view), n);
        // Total increments equal interactions: each interaction bumps
        // exactly one receiver by one, across any engine switches.
        let total: u64 = view.iter().map(|&(s, c)| u64::from(s) * c).sum();
        assert_eq!(total, 3 * n);
    }
}
