//! The unified simulation API: one [`Simulation`] builder, one run
//! driver.
//!
//! Every measurement in the paper reduces to the same sentence: *run
//! protocol `P` on `n` agents from initial configuration `C` under engine
//! `E` until predicate `Q`, observing metrics `M`.* This module makes that
//! sentence the API:
//!
//! * [`Simulation::builder`] (agent-level [`Protocol`]s) and
//!   [`Simulation::count_builder`] ([`CountProtocol`]s) assemble a
//!   simulation declaratively; `.mode(..)` picks the engine
//!   ([`AgentSim`], or the [`ConfigSim`] facade over
//!   [`CountSim`](crate::CountSim) and
//!   [`BatchedCountSim`](crate::BatchedCountSim)).
//! * [`Simulation`] owns the built engine plus the run policy (checkpoint
//!   cadence, time budget, convergence predicate, observers), and
//!   [`Simulation::run`] / [`Simulation::run_until`] share its one
//!   checkpoint loop:
//!
//! ```
//! use pp_engine::epidemic::InfectionEpidemic;
//! use pp_engine::simulation::{count_of, Simulation};
//! use pp_engine::EngineMode;
//!
//! let n = 10_000u64;
//! let mut sim = Simulation::count_builder(InfectionEpidemic)
//!     .config([(false, n - 1), (true, 1)])
//!     .seed(7)
//!     .mode(EngineMode::Auto)
//!     .check_every(n / 10)
//!     .until(move |view| count_of(view, &true) == n)
//!     .build();
//! let out = sim.run();
//! assert!(out.converged);
//! // One-way epidemics complete in ~2 ln n parallel time.
//! assert!(out.time < 40.0);
//! ```
//!
//! ## The observation surface
//!
//! All engines report the population as a **decoded multiset**: a slice of
//! `(state, count)` pairs covering every occupied state. Each engine builds
//! it in one pass, straight into the output:
//!
//! * count engines, sequential and batched, read the occupied
//!   `(state, count)` pairs off their slot tables and sort them by state;
//! * the interned engine does the same over slot ids, so its pairs come in
//!   id (discovery) order, then decodes each id;
//! * the per-agent engine groups equal states in first-seen order (the
//!   pair holding agent 0's state comes first), one hash lookup per agent.
//!
//! A view costs `O(k log k)` for `k` occupied states on the count engines
//! and `O(n)` on the per-agent engine; no engine copies its configuration
//! or rebuilds an index to build one. The run driver's checkpoints reuse
//! one view buffer across a run.
//!
//! Convergence is a property of the occupied support, so every predicate
//! in this repository — "all agents infected", "all outputs agree", "no X
//! left" — is expressible against this view, on any engine.
//!
//! ## Observer contract
//!
//! An [`Observer`] is called once on the initial configuration (time 0,
//! before any interaction) and then at every checkpoint — every
//! `check_every` interactions, plus the final checkpoint at which the run
//! converges or exhausts its budget. At each call it receives the parallel
//! time, the total interaction count (interaction-count telemetry), and
//! the decoded view. Observers fire *before* the convergence predicate is
//! evaluated at the same checkpoint, so a trace recorded by an observer
//! always includes the converged snapshot. Observers see a decoded copy
//! and cannot mutate the simulation; they are never called between
//! checkpoints, so a `check_every` of `k` bounds the observation lag to
//! `k` interactions. Checkpoints never consume engine randomness:
//! attaching observers or predicates cannot perturb a trajectory.
//! Closures attach via `observe_with`; named observers (implementing
//! [`Observer`]) are borrowed mutably via `observe` and can be inspected
//! by the caller after the run.
//!
//! ## Determinism and equivalence
//!
//! A built simulation is a deterministic function of `(protocol, init,
//! seed, mode)`. `tests/builder_equivalence.rs` pins the builder-backed
//! convenience functions to exact outcomes (and the agent-engine ones to
//! hand-driven [`AgentSim`] runs), and
//! `crates/engine/tests/engine_conformance.rs` holds every mode of both
//! builders to the same advance/view/clock contract.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};
use std::path::{Path, PathBuf};

use pp_telemetry::{Counter, Hist, Metrics, TraceValue};

use crate::config_sim::{ConfigSim, EngineMode};
use crate::count_sim::{CountConfiguration, CountProtocol, CountSeededInit};
use crate::interned::Interned;
use crate::protocol::{Protocol, SeededInit};
use crate::sim::{AgentSim, RunOutcome};
use crate::slot_index::FnvHasher;
use crate::snapshot::{self, Snapshot, SnapshotError, SnapshotState};

/// Which concrete simulator a [`Simulation`] is currently running on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-agent state array ([`AgentSim`]).
    Agent,
    /// Sequential configuration vector ([`CountSim`](crate::CountSim)).
    Sequential,
    /// Batched configuration vector
    /// ([`BatchedCountSim`](crate::BatchedCountSim)).
    Batched,
}

/// The object-safe simulator interface a [`Simulation`] drives: one
/// implementation per engine the builders build ([`AgentSim`],
/// [`ConfigSim`], and [`InternedEngine`]), each held in a
/// [`Checkpointed`].
pub(crate) trait Engine<S> {
    /// Population size `n`.
    fn population_size(&self) -> u64;

    /// Total interactions executed so far.
    fn interactions(&self) -> u64;

    /// Parallel time elapsed (interactions / `n`).
    fn time(&self) -> f64;

    /// Executes at least one and at most `budget` interactions (the engine
    /// picks its natural granularity: single steps, one batch, one
    /// null-skip run). Returns the number executed. Engines never
    /// overshoot `budget`, so the driver lands checkpoints exactly.
    fn advance(&mut self, budget: u64) -> u64;

    /// Replaces `out` with the decoded occupied-state multiset:
    /// `(state, count)` pairs with positive counts summing to `n`, built in
    /// one pass. See the [module docs](self) for per-engine ordering.
    fn view_into(&self, out: &mut Vec<(S, u64)>);

    /// The concrete simulator currently executing interactions.
    fn kind(&self) -> EngineKind;

    /// Serializes the engine's full mutable state (see [`crate::snapshot`]
    /// for the format guarantees). Only [`Checkpointed`] with an encoder
    /// supports it.
    fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        Err(SnapshotError::Unsupported)
    }

    /// Attaches a telemetry counter registry (see [`pp_telemetry`]).
    /// Engines record at their existing decision points — batch lengths,
    /// null-skip runs, mode switches, GC passes, dense-lane episodes —
    /// without consuming randomness or influencing any branch, so
    /// attaching a registry never perturbs the trajectory. The default is
    /// a no-op for engines with nothing engine-specific to record.
    fn set_metrics(&mut self, metrics: Metrics) {
        let _ = metrics;
    }
}

/// Count of agents in `state` within a decoded view (0 if absent).
pub fn count_of<S: PartialEq>(view: &[(S, u64)], state: &S) -> u64 {
    view.iter()
        .find_map(|(s, c)| (s == state).then_some(*c))
        .unwrap_or(0)
}

/// Total population of a decoded view.
pub fn view_population<S>(view: &[(S, u64)]) -> u64 {
    view.iter().map(|(_, c)| c).sum()
}

impl<P: Protocol> Engine<P::State> for AgentSim<P>
where
    P::State: Eq + Hash,
{
    fn population_size(&self) -> u64 {
        AgentSim::population_size(self) as u64
    }

    fn interactions(&self) -> u64 {
        AgentSim::interactions(self)
    }

    fn time(&self) -> f64 {
        AgentSim::time(self)
    }

    fn advance(&mut self, budget: u64) -> u64 {
        self.steps(budget);
        budget
    }

    /// Groups equal agent states; pairs appear in first-seen agent-index
    /// order, so the first pair always holds agent 0's state. The map only
    /// indexes `out`, so its hasher cannot change the output.
    fn view_into(&self, out: &mut Vec<(P::State, u64)>) {
        out.clear();
        let mut index: HashMap<&P::State, usize, BuildHasherDefault<FnvHasher>> =
            HashMap::with_capacity_and_hasher(16, BuildHasherDefault::default());
        for s in self.states() {
            let group = *index.entry(s).or_insert_with(|| {
                out.push((s.clone(), 0));
                out.len() - 1
            });
            out[group].1 += 1;
        }
    }

    fn kind(&self) -> EngineKind {
        EngineKind::Agent
    }
}

impl<P: CountProtocol> Engine<P::State> for ConfigSim<P> {
    fn population_size(&self) -> u64 {
        ConfigSim::population_size(self)
    }

    fn interactions(&self) -> u64 {
        ConfigSim::interactions(self)
    }

    fn time(&self) -> f64 {
        ConfigSim::time(self)
    }

    fn advance(&mut self, budget: u64) -> u64 {
        ConfigSim::advance(self, budget)
    }

    fn view_into(&self, out: &mut Vec<(P::State, u64)>) {
        ConfigSim::view_into(self, out);
    }

    fn kind(&self) -> EngineKind {
        if self.is_batched() {
            EngineKind::Batched
        } else {
            EngineKind::Sequential
        }
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        ConfigSim::set_metrics(self, metrics);
    }
}

/// An agent-level protocol running interned on the count engines, decoding
/// slot ids back to protocol states at the observation boundary through
/// the simulator's own adapter. This is what [`SimulationBuilder`] builds
/// for every non-[`SimMode::Agent`] mode.
struct InternedEngine<P: Protocol>
where
    P::State: Eq + Hash,
{
    sim: ConfigSim<Interned<P>>,
    /// The occupied `(id, count)` pairs of the last view, kept so a view
    /// allocates nothing once warm.
    ids: RefCell<Vec<(u32, u64)>>,
}

impl<P: Protocol> InternedEngine<P>
where
    P::State: Eq + Hash,
{
    fn new(sim: ConfigSim<Interned<P>>) -> Self {
        Self {
            sim,
            ids: RefCell::default(),
        }
    }
}

impl<P: Protocol> Engine<P::State> for InternedEngine<P>
where
    P::State: Eq + Hash,
{
    fn population_size(&self) -> u64 {
        self.sim.population_size()
    }

    fn interactions(&self) -> u64 {
        self.sim.interactions()
    }

    fn time(&self) -> f64 {
        self.sim.time()
    }

    fn advance(&mut self, budget: u64) -> u64 {
        self.sim.advance(budget)
    }

    /// The occupied `(id, count)` pairs in id order, then decoded.
    fn view_into(&self, out: &mut Vec<(P::State, u64)>) {
        let mut ids = self.ids.borrow_mut();
        self.sim.view_into(&mut ids);
        self.sim.protocol().decode_into(&ids, out);
    }

    fn kind(&self) -> EngineKind {
        Engine::kind(&self.sim)
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        self.sim.set_metrics(metrics);
    }
}

/// The one engine holder every [`Simulation`] boxes: the built engine
/// plus, when the builder enabled checkpointing (`checkpoint_to` or
/// `resume`), the snapshot encoder for its concrete type. The encoder is
/// captured where the [`SnapshotState`] bound is in scope, so protocols
/// whose states have no codec build and run without one.
struct Checkpointed<E> {
    engine: E,
    encode: Option<fn(&E) -> Snapshot>,
}

impl<S, E: Engine<S>> Engine<S> for Checkpointed<E> {
    fn population_size(&self) -> u64 {
        self.engine.population_size()
    }

    fn interactions(&self) -> u64 {
        self.engine.interactions()
    }

    fn time(&self) -> f64 {
        self.engine.time()
    }

    fn advance(&mut self, budget: u64) -> u64 {
        self.engine.advance(budget)
    }

    fn view_into(&self, out: &mut Vec<(S, u64)>) {
        self.engine.view_into(out);
    }

    fn kind(&self) -> EngineKind {
        self.engine.kind()
    }

    fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        let encode = self.encode.ok_or(SnapshotError::Unsupported)?;
        Ok(encode(&self.engine))
    }

    fn set_metrics(&mut self, metrics: Metrics) {
        self.engine.set_metrics(metrics);
    }
}

/// The snapshot encoders of the two engines an agent-protocol build can
/// pick, captured by [`SimulationBuilder::checkpoint_to`].
struct AgentEncoders<P: Protocol>
where
    P::State: Eq + Hash,
{
    agent: fn(&AgentSim<P>) -> Snapshot,
    interned: fn(&InternedEngine<P>) -> Snapshot,
}

impl<P: Protocol> AgentEncoders<P>
where
    P::State: Eq + Hash + SnapshotState,
{
    fn new() -> Self {
        Self {
            agent: snapshot::encode_agent,
            interned: |e| snapshot::encode_interned(&e.sim),
        }
    }
}

/// Engine selection for [`Simulation::builder`].
///
/// Agent-level protocols can run either on the per-agent array
/// ([`SimMode::Agent`] — the right choice for the paper's counter-churning
/// record states, whose occupied support is `Θ(n)`) or interned onto the
/// configuration-vector engines (`SimMode::Count` wrapping an
/// [`EngineMode`]). `EngineMode` converts into `SimMode` directly, so
/// `.mode(EngineMode::Auto)` and `.mode(ctx.engine)` both read naturally
/// at call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Per-agent state array ([`AgentSim`]).
    Agent,
    /// Interned configuration-vector simulation under the given engine
    /// policy ([`ConfigSim`] over [`Interned`]).
    Count(EngineMode),
}

impl From<EngineMode> for SimMode {
    fn from(mode: EngineMode) -> Self {
        SimMode::Count(mode)
    }
}

/// A checkpoint hook: sampled snapshots, trace recording, convergence
/// telemetry. See the [module docs](self) for the full contract (when
/// observers fire, what they see, and what they must not do).
pub trait Observer<S> {
    /// Called at each checkpoint with the parallel time, total interaction
    /// count, and decoded `(state, count)` view.
    fn observe(&mut self, time: f64, interactions: u64, view: &[(S, u64)]);
}

type BoxedObserver<'a, S> = Box<dyn FnMut(f64, u64, &[(S, u64)]) + 'a>;
type BoxedPredicate<'a, S> = Box<dyn FnMut(&[(S, u64)]) -> bool + 'a>;

/// Run-policy fields shared by both builders.
struct Policy<'a, S> {
    seed: u64,
    check_every: Option<u64>,
    max_time: f64,
    predicate: Option<BoxedPredicate<'a, S>>,
    observers: Vec<BoxedObserver<'a, S>>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    metrics: Option<Metrics>,
    trace_path: Option<PathBuf>,
}

impl<S> Default for Policy<'_, S> {
    fn default() -> Self {
        Self {
            seed: 0,
            check_every: None,
            max_time: f64::INFINITY,
            predicate: None,
            observers: Vec::new(),
            checkpoint_every: None,
            checkpoint_path: None,
            metrics: None,
            trace_path: None,
        }
    }
}

/// Active checkpoint policy inside a built [`Simulation`].
struct CheckpointPlan {
    /// Snapshot destination (written atomically, see
    /// [`Snapshot::write_atomic`]).
    path: PathBuf,
    /// Minimum interactions between snapshot writes.
    every: u64,
    /// Interaction clock at the last write (0 = none yet).
    last: u64,
}

/// The policy surface shared verbatim by [`SimulationBuilder`] and
/// [`CountSimulationBuilder`].
macro_rules! policy_methods {
    ($state:ty) => {
        /// Seed for all simulation randomness (default 0). Two simulations
        /// with identical protocol, init, seed, and mode realize identical
        /// trajectories.
        pub fn seed(mut self, seed: u64) -> Self {
            self.policy.seed = seed;
            self
        }

        /// Checkpoint cadence in interactions (default: `n`, i.e. once per
        /// unit of parallel time — the cadence every experiment in the
        /// paper uses). Observers and the convergence predicate fire at
        /// every checkpoint.
        pub fn check_every(mut self, interactions: u64) -> Self {
            assert!(interactions > 0, "check_every must be positive");
            self.policy.check_every = Some(interactions);
            self
        }

        /// Parallel-time budget for [`Simulation::run`] (default:
        /// unbounded). The run stops unconverged once `ceil(max_time · n)`
        /// interactions have executed.
        pub fn max_time(mut self, t: f64) -> Self {
            self.policy.max_time = t;
            self
        }

        /// Sets the convergence predicate for [`Simulation::run`]: the run
        /// stops (converged) at the first checkpoint whose decoded view
        /// satisfies it. Evaluated once on the initial configuration too,
        /// so an already-converged start reports `time == 0`.
        pub fn until(mut self, predicate: impl FnMut(&[($state, u64)]) -> bool + 'a) -> Self {
            self.policy.predicate = Some(Box::new(predicate));
            self
        }

        /// Attaches a named [`Observer`], borrowed for the simulation's
        /// lifetime so the caller can read what it accumulated after the
        /// run.
        pub fn observe(mut self, observer: &'a mut impl Observer<$state>) -> Self {
            self.policy
                .observers
                .push(Box::new(move |t, i, v: &[($state, u64)]| {
                    observer.observe(t, i, v)
                }));
            self
        }

        /// Attaches a closure observer `(time, interactions, view)`.
        pub fn observe_with(
            mut self,
            observer: impl FnMut(f64, u64, &[($state, u64)]) + 'a,
        ) -> Self {
            self.policy.observers.push(Box::new(observer));
            self
        }

        /// Minimum interactions between crash-recovery snapshots (default:
        /// the `check_every` cadence). Snapshots fire at the existing
        /// observer checkpoints — never between them, never consuming
        /// engine randomness — so this is rounded up to checkpoint
        /// boundaries. Effective only together with `checkpoint_to`.
        pub fn checkpoint_every(mut self, interactions: u64) -> Self {
            assert!(interactions > 0, "checkpoint_every must be positive");
            self.policy.checkpoint_every = Some(interactions);
            self
        }

        /// Attaches a telemetry counter registry
        /// ([`pp_telemetry::Metrics`]): the engines record batch lengths,
        /// null-skip runs, mode switches, GC passes, dense-lane episodes,
        /// cache/index tallies, and snapshot writes into it. Recording is
        /// observation-only — it never consumes randomness or influences a
        /// decision — so the trajectory is byte-identical with and without
        /// a registry. When no explicit registry is given, builds pick up
        /// the ambient per-thread registry
        /// ([`pp_telemetry::Metrics::install_current`]) if one is
        /// installed.
        pub fn metrics(mut self, metrics: &pp_telemetry::Metrics) -> Self {
            self.policy.metrics = Some(metrics.clone());
            self
        }

        /// Writes a structured JSONL event trace (mode switches, GC
        /// passes, dense-lane episodes, checkpoints, final counters) to
        /// `path`, appending if the file exists. Equivalent to setting
        /// `PP_TRACE=path` in the environment for this simulation only.
        /// Implies a metrics registry (one is created if none is
        /// attached).
        ///
        /// # Panics
        ///
        /// The build panics if the trace file cannot be opened — a tracing
        /// run that silently drops its trace is worse than none.
        pub fn trace_to(mut self, path: impl Into<std::path::PathBuf>) -> Self {
            self.policy.trace_path = Some(path.into());
            self
        }
    };
}

/// A configured simulation: the built engine plus the run policy.
///
/// Built by [`Simulation::builder`] / [`Simulation::count_builder`]. Run
/// it to completion with [`Simulation::run`], phase by phase with
/// [`Simulation::run_until`], or drive it manually with
/// [`Simulation::run_for_time`] / [`Simulation::advance`] and inspect
/// [`Simulation::view`] between steps.
pub struct Simulation<'a, S> {
    engine: Box<dyn Engine<S> + 'a>,
    check_every: u64,
    max_time: f64,
    predicate: Option<BoxedPredicate<'a, S>>,
    observers: Vec<BoxedObserver<'a, S>>,
    checkpoint: Option<CheckpointPlan>,
    /// The effective telemetry registry ([`Simulation::assemble`] resolves
    /// the builder's `.metrics()` / the ambient per-thread registry /
    /// `PP_TRACE`). The engine holds a clone; this copy serves the run
    /// driver's snapshot-write instrumentation.
    metrics: Option<Metrics>,
    /// The checkpoint view, rebuilt in place at every checkpoint of
    /// [`Simulation::drive`] so its allocation is reused.
    view: Vec<(S, u64)>,
}

impl<'a, S: Clone> Simulation<'a, S> {
    /// Starts a builder for an agent-level [`Protocol`].
    pub fn builder<P>(protocol: P) -> SimulationBuilder<'a, P>
    where
        P: Protocol<State = S>,
        S: Eq + Hash,
    {
        SimulationBuilder::new(protocol)
    }

    /// Starts a builder for a configuration-vector [`CountProtocol`].
    pub fn count_builder<P>(protocol: P) -> CountSimulationBuilder<'a, P>
    where
        P: CountProtocol<State = S>,
    {
        CountSimulationBuilder::new(protocol)
    }

    /// Assembles a simulation from a restored or freshly built engine plus
    /// the builder policy (the single construction path both builders and
    /// both `resume` surfaces share).
    fn assemble(mut engine: Box<dyn Engine<S> + 'a>, policy: Policy<'a, S>) -> Self {
        let n = engine.population_size().max(1);
        let check_every = policy.check_every.unwrap_or(n);
        // Resolve the effective telemetry registry: an explicit `.metrics()`
        // wins, else the ambient per-thread registry (installed by e.g. the
        // sweep runner around each trial). A trace destination
        // (`.trace_to()` or `PP_TRACE`) implies a registry, creating one if
        // needed.
        let mut metrics = policy.metrics.or_else(Metrics::current);
        if let Some(path) = policy.trace_path.or_else(crate::env::trace_path) {
            let m = metrics.get_or_insert_with(Metrics::new);
            if !m.is_tracing() {
                m.trace_to(&path)
                    .unwrap_or_else(|e| panic!("cannot open trace file {}: {e}", path.display()));
            }
        }
        if let Some(m) = &metrics {
            engine.set_metrics(m.clone());
        }
        Self {
            engine,
            check_every,
            max_time: policy.max_time,
            predicate: policy.predicate,
            observers: policy.observers,
            checkpoint: policy.checkpoint_path.map(|path| CheckpointPlan {
                path,
                every: policy.checkpoint_every.unwrap_or(check_every),
                last: 0,
            }),
            metrics,
            view: Vec::new(),
        }
    }

    /// Resumes an agent-protocol run from a snapshot file under default
    /// policy — shorthand for `Simulation::builder(protocol).resume(path)`;
    /// use the builder form to configure predicates, budgets, observers,
    /// or continued checkpointing on the resumed run.
    pub fn resume<P>(protocol: P, path: impl AsRef<Path>) -> Result<Self, SnapshotError>
    where
        P: Protocol<State = S> + 'a,
        S: Eq + Hash + SnapshotState + 'a,
    {
        SimulationBuilder::new(protocol).resume(path)
    }

    /// Resumes a count-protocol run from a snapshot file under default
    /// policy (see [`Simulation::resume`]).
    pub fn resume_count<P>(protocol: P, path: impl AsRef<Path>) -> Result<Self, SnapshotError>
    where
        P: CountProtocol<State = S> + 'a,
        S: SnapshotState + 'a,
    {
        CountSimulationBuilder::new(protocol).resume(path)
    }

    /// Writes a snapshot of the engine's current state to `path`
    /// immediately (atomically — see [`Snapshot::write_atomic`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] unless the simulation was built with
    /// checkpoint support (`checkpoint_to` or `resume`); I/O errors pass
    /// through.
    pub fn snapshot_to(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        self.engine.snapshot()?.write_atomic(path.as_ref())
    }

    /// Population size `n`.
    pub fn population_size(&self) -> u64 {
        self.engine.population_size()
    }

    /// Parallel time elapsed.
    pub fn time(&self) -> f64 {
        self.engine.time()
    }

    /// Total interactions executed.
    pub fn interactions(&self) -> u64 {
        self.engine.interactions()
    }

    /// The decoded occupied-state multiset (see the [module docs](self)
    /// for its ordering).
    pub fn view(&self) -> Vec<(S, u64)> {
        let mut view = Vec::new();
        self.engine.view_into(&mut view);
        view
    }

    /// Count of agents currently in `state`.
    pub fn count(&self, state: &S) -> u64
    where
        S: PartialEq,
    {
        count_of(&self.view(), state)
    }

    /// The concrete simulator currently executing interactions.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// The effective telemetry registry, if one was attached (explicitly
    /// via the builders' `.metrics()`, ambiently via
    /// [`pp_telemetry::Metrics::install_current`], or implied by a trace
    /// destination). Read counters from it after — or during — the run.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_ref()
    }

    /// Executes at least one and at most `budget` interactions (no
    /// checkpoints fire). Returns the number executed.
    pub fn advance(&mut self, budget: u64) -> u64 {
        self.engine.advance(budget)
    }

    /// Executes exactly `k` further interactions (no checkpoints fire).
    pub fn steps(&mut self, k: u64) {
        let mut done = 0;
        while done < k {
            done += self.engine.advance(k - done);
        }
    }

    /// Runs for `t` further units of parallel time (no checkpoints fire).
    pub fn run_for_time(&mut self, t: f64) {
        self.steps((t * self.engine.population_size() as f64).ceil() as u64);
    }

    /// Runs until the *configured* predicate holds (see the builders'
    /// `until`), checkpointing every `check_every` interactions within the
    /// configured time budget. Without a predicate, runs out the budget.
    ///
    /// # Panics
    ///
    /// Panics if neither a predicate nor a finite `max_time` was
    /// configured — that run could only spin forever.
    pub fn run(&mut self) -> RunOutcome {
        assert!(
            self.predicate.is_some() || self.max_time.is_finite(),
            "Simulation::run needs a stopping condition: configure .until(predicate) \
             and/or a finite .max_time(t)"
        );
        let mut predicate = self.predicate.take();
        let out = self.drive(
            |view| predicate.as_mut().is_some_and(|p| p(view)),
            self.max_time,
        );
        self.predicate = predicate;
        out
    }

    /// Runs until an ad-hoc `predicate` holds — the multi-phase driver
    /// ("until the signal fires, then until everyone froze"). Uses the
    /// configured checkpoint cadence; `max_time` is an **absolute**
    /// parallel-time cap, so consecutive phases share one budget. A
    /// predicate that already holds returns at once, even past the cap.
    /// Observers fire at every checkpoint of every phase.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&[(S, u64)]) -> bool,
        max_time: f64,
    ) -> RunOutcome {
        self.drive(&mut predicate, max_time)
    }

    /// The single run driver: initial checkpoint, then bursts of
    /// `check_every` interactions, each followed by a checkpoint, until
    /// the predicate holds or the absolute interaction budget
    /// `ceil(max_time · n)` is exhausted.
    ///
    /// Crash-recovery snapshots (when configured) are written at these
    /// same checkpoints — after the observers, before the predicate — so
    /// they never consume engine randomness and never observe a state
    /// between checkpoints. The `PP_FAULT=kill@<interaction>` fault plan
    /// (see [`crate::env`]) is honored here too: the process aborts —
    /// modelling a SIGKILL — at the first checkpoint whose interaction
    /// clock has reached the planned point, after writing any due
    /// snapshot.
    ///
    /// # Panics
    ///
    /// Panics if a configured snapshot cannot be produced or written —
    /// a crash-recovery layer that silently drops checkpoints is worse
    /// than none.
    fn drive(
        &mut self,
        mut predicate: impl FnMut(&[(S, u64)]) -> bool,
        max_time: f64,
    ) -> RunOutcome {
        assert!(self.check_every > 0, "check_every must be positive");
        let n = self.engine.population_size();
        let max_interactions = (max_time * n as f64).ceil() as u64;
        let fault = crate::env::fault_plan();
        loop {
            self.engine.view_into(&mut self.view);
            let view = &self.view;
            let (time, interactions) = (self.engine.time(), self.engine.interactions());
            for obs in &mut self.observers {
                obs(time, interactions, view);
            }
            let exhausted = interactions >= max_interactions;
            if let Some(cp) = &mut self.checkpoint {
                // Due every `cp.every` interactions, and at the final
                // budget boundary so an exhausted phase can be resumed
                // from exactly where it stopped.
                let due =
                    interactions > cp.last && (interactions - cp.last >= cp.every || exhausted);
                if due {
                    // Wall-clock timing of the write is observation-only:
                    // it feeds counters, never a decision.
                    let started = std::time::Instant::now();
                    let snap = self
                        .engine
                        .snapshot()
                        .unwrap_or_else(|e| panic!("checkpoint failed: {e}"));
                    snap.write_atomic(&cp.path).unwrap_or_else(|e| {
                        panic!("checkpoint write to {} failed: {e}", cp.path.display())
                    });
                    if let Some(m) = &self.metrics {
                        let bytes = snap.byte_len();
                        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        m.incr(Counter::SnapshotWrites);
                        m.add(Counter::SnapshotBytes, bytes);
                        m.add(Counter::SnapshotNanos, nanos);
                        m.record(Hist::SnapshotWriteBytes, bytes);
                        m.trace_event(
                            "checkpoint",
                            &[
                                ("bytes", TraceValue::U64(bytes)),
                                ("nanos", TraceValue::U64(nanos)),
                                ("interactions", TraceValue::U64(interactions)),
                            ],
                        );
                    }
                    cp.last = interactions;
                }
            }
            if let Some(plan) = fault {
                if interactions >= plan.kill_at {
                    // Deterministic fault injection: die like a SIGKILL
                    // would — no unwinding, no destructors, nonzero exit.
                    eprintln!(
                        "PP_FAULT: aborting at checkpoint {interactions} >= kill@{}",
                        plan.kill_at
                    );
                    std::process::abort();
                }
            }
            if predicate(view) {
                self.trace_final_counters();
                return RunOutcome {
                    converged: true,
                    time,
                    interactions,
                };
            }
            if exhausted {
                self.trace_final_counters();
                return RunOutcome {
                    converged: false,
                    time,
                    interactions,
                };
            }
            self.steps(self.check_every.min(max_interactions - interactions));
        }
    }

    /// Emits the full counter/histogram snapshot as one `counters` trace
    /// event when a tracer is attached — the line `pp-report` renders its
    /// summary tables from. Fired at the end of every driven phase, so
    /// multi-phase runs carry one counters line per phase (each
    /// cumulative; the last one is the run's total).
    fn trace_final_counters(&self) {
        if let Some(m) = &self.metrics {
            if m.is_tracing() {
                m.trace_counters();
            }
        }
    }
}

impl<S> std::fmt::Debug for Simulation<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("n", &self.engine.population_size())
            .field("interactions", &self.engine.interactions())
            .field("kind", &self.engine.kind())
            .field("check_every", &self.check_every)
            .field("max_time", &self.max_time)
            .finish_non_exhaustive()
    }
}

/// Initial-configuration policy for agent-level protocols.
enum InitSpec<'a, S> {
    /// All agents in the protocol's initial state.
    Uniform,
    /// Listed agents first (in order), remainder in the initial state —
    /// planted leaders and other sparse non-uniform starts.
    Planted(Vec<(S, u64)>),
    /// The full multiset, explicitly; counts must sum to `n`.
    Config(Vec<(S, u64)>),
    /// Per-index assignment `f(i, n)` — the [`SeededInit`] shape.
    Assign(Box<dyn Fn(usize, usize) -> S + 'a>),
}

/// Builder for agent-level [`Protocol`] simulations. Construct via
/// [`Simulation::builder`]; see the [module docs](self) for the builder
/// walkthrough.
pub struct SimulationBuilder<'a, P: Protocol>
where
    P::State: Eq + Hash,
{
    protocol: P,
    n: u64,
    mode: SimMode,
    init: InitSpec<'a, P::State>,
    policy: Policy<'a, P::State>,
    encode: Option<AgentEncoders<P>>,
}

impl<'a, P: Protocol> SimulationBuilder<'a, P>
where
    P::State: Eq + Hash,
{
    fn new(protocol: P) -> Self {
        Self {
            protocol,
            n: 0,
            mode: SimMode::Agent,
            init: InitSpec::Uniform,
            policy: Policy::default(),
            encode: None,
        }
    }

    /// Population size `n` (required).
    pub fn size(mut self, n: u64) -> Self {
        self.n = n;
        self
    }

    /// Engine selection (default [`SimMode::Agent`]). Accepts an
    /// [`EngineMode`] directly (`.mode(EngineMode::Auto)`,
    /// `.mode(ctx.engine)`) for the interned count engines.
    pub fn mode(mut self, mode: impl Into<SimMode>) -> Self {
        self.mode = mode.into();
        self
    }

    /// Explicit initial configuration as a `(state, count)` multiset; the
    /// counts must sum to the configured size. On the agent engine the
    /// states are laid out in listed order.
    pub fn init_config(mut self, pairs: impl IntoIterator<Item = (P::State, u64)>) -> Self {
        self.init = InitSpec::Config(pairs.into_iter().collect());
        self
    }

    /// Plants the listed agents (in order, starting at index 0) and leaves
    /// the remainder in [`Protocol::initial_state`] — the planted-leader
    /// initialization of Theorem 3.13.
    pub fn init_planted(mut self, pairs: impl IntoIterator<Item = (P::State, u64)>) -> Self {
        self.init = InitSpec::Planted(pairs.into_iter().collect());
        self
    }

    /// Assigns agent `i`'s initial state as `f(i, n)` — harness-level
    /// input assignment with an ad-hoc closure.
    pub fn init_with(mut self, f: impl Fn(usize, usize) -> P::State + 'a) -> Self {
        self.init = InitSpec::Assign(Box::new(f));
        self
    }

    /// Assigns initial states from the protocol's [`SeededInit`]
    /// implementation.
    pub fn init_seeded(self) -> Self
    where
        P: SeededInit + Clone + 'a,
    {
        let p = self.protocol.clone();
        self.init_with(move |i, n| p.init_state(i, n))
    }

    policy_methods!(P::State);

    /// Enables crash-recovery checkpoints: a versioned, checksummed
    /// snapshot of the full engine state is written atomically to `path`
    /// at the cadence set by
    /// [`checkpoint_every`](SimulationBuilder::checkpoint_every)
    /// (default: the observer cadence). Resume later with
    /// [`SimulationBuilder::resume`]; the resumed run continues
    /// byte-for-byte identically to the uninterrupted one. Requires the
    /// state type to implement [`SnapshotState`].
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self
    where
        P: 'a,
        P::State: SnapshotState + 'a,
    {
        self.policy.checkpoint_path = Some(path.into());
        self.encode = Some(AgentEncoders::new());
        self
    }

    /// Resumes a simulation from a snapshot written by a checkpointing
    /// run of the same protocol. The engine state (population, mode,
    /// RNG stream, interaction clock) comes entirely from the snapshot —
    /// `size`/`mode`/`init` settings on this builder are
    /// ignored — while run policy (predicate, observers, budgets,
    /// checkpoint cadence and destination) is taken from this builder,
    /// so a resumed run can keep checkpointing.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read, fails its checksum, or holds a
    /// snapshot of a count-protocol engine.
    pub fn resume(self, path: impl AsRef<Path>) -> Result<Simulation<'a, P::State>, SnapshotError>
    where
        P: 'a,
        P::State: SnapshotState + 'a,
    {
        let snap = Snapshot::read(path.as_ref())?;
        let encode = AgentEncoders::new();
        let engine: Box<dyn Engine<P::State> + 'a> = match snap.kind {
            snapshot::KIND_AGENT => Box::new(Checkpointed {
                engine: snapshot::decode_agent(self.protocol, &snap.body)?,
                encode: Some(encode.agent),
            }),
            snapshot::KIND_INTERNED => Box::new(Checkpointed {
                engine: InternedEngine::new(snapshot::decode_interned(self.protocol, &snap.body)?),
                encode: Some(encode.interned),
            }),
            k => {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot engine tag {k} cannot resume an agent-protocol simulation"
                )))
            }
        };
        Ok(Simulation::assemble(engine, self.policy))
    }

    /// Builds the configured [`Simulation`].
    ///
    /// # Panics
    ///
    /// Panics if the size was not set (or is below 2), an explicit
    /// configuration does not sum to it, or a planted prefix exceeds it.
    pub fn build(self) -> Simulation<'a, P::State>
    where
        P: 'a,
    {
        let n = self.n;
        assert!(n >= 2, "simulation needs .size(n) with n >= 2");
        let n_usize = usize::try_from(n).expect("population exceeds usize");
        let seed = self.policy.seed;
        let encode = self.encode;
        let engine: Box<dyn Engine<P::State> + 'a> = match self.mode {
            SimMode::Agent => {
                let mut sim = AgentSim::new(self.protocol, n_usize, seed);
                match self.init {
                    InitSpec::Uniform => {}
                    InitSpec::Planted(pairs) => {
                        let mut i = 0usize;
                        for (state, count) in pairs {
                            for _ in 0..count {
                                assert!(i < n_usize, "planted prefix exceeds population size");
                                sim.set_state(i, state.clone());
                                i += 1;
                            }
                        }
                    }
                    InitSpec::Config(pairs) => {
                        let mut i = 0usize;
                        for (state, count) in pairs {
                            for _ in 0..count {
                                assert!(i < n_usize, "init_config counts exceed population size");
                                sim.set_state(i, state.clone());
                                i += 1;
                            }
                        }
                        assert!(
                            i == n_usize,
                            "init_config counts sum to {i}, expected {n_usize}"
                        );
                    }
                    InitSpec::Assign(f) => {
                        for i in 0..n_usize {
                            sim.set_state(i, f(i, n_usize));
                        }
                    }
                }
                Box::new(Checkpointed {
                    engine: sim,
                    encode: encode.map(|e| e.agent),
                })
            }
            SimMode::Count(engine_mode) => {
                let interned = Interned::new(self.protocol);
                let config = match self.init {
                    InitSpec::Uniform => interned.uniform_config(n),
                    InitSpec::Planted(pairs) => {
                        let planted: u64 = pairs.iter().map(|(_, c)| c).sum();
                        assert!(planted <= n, "planted prefix exceeds population size");
                        let rest = n - planted;
                        let initial = interned.protocol().initial_state();
                        // Merge repeats (and a plant equal to the initial
                        // state) into one entry per state, preserving
                        // first-seen order so slot ids — and with them the
                        // seeded trajectory — match the agent layout.
                        let mut merged: Vec<(P::State, u64)> = Vec::new();
                        for (state, count) in pairs
                            .into_iter()
                            .chain((rest > 0).then_some((initial, rest)))
                        {
                            match merged.iter_mut().find(|(s, _)| *s == state) {
                                Some((_, c)) => *c += count,
                                None => merged.push((state, count)),
                            }
                        }
                        interned.config_from_pairs(merged)
                    }
                    InitSpec::Config(pairs) => {
                        let total: u64 = pairs.iter().map(|(_, c)| c).sum();
                        assert!(
                            total == n,
                            "init_config counts sum to {total}, expected {n}"
                        );
                        interned.config_from_pairs(pairs)
                    }
                    InitSpec::Assign(f) => {
                        // Collapse the per-index assignment into its
                        // multiset (agents are exchangeable), interning in
                        // index order so slot ids are deterministic.
                        let mut pairs: Vec<(P::State, u64)> = Vec::new();
                        let mut index: HashMap<P::State, usize> = HashMap::new();
                        for i in 0..n_usize {
                            let s = f(i, n_usize);
                            match index.entry(s) {
                                std::collections::hash_map::Entry::Occupied(e) => {
                                    pairs[*e.get()].1 += 1;
                                }
                                std::collections::hash_map::Entry::Vacant(e) => {
                                    pairs.push((e.key().clone(), 1));
                                    e.insert(pairs.len() - 1);
                                }
                            }
                        }
                        interned.config_from_pairs(pairs)
                    }
                };
                let sim = ConfigSim::with_mode(interned, config, seed, engine_mode);
                Box::new(Checkpointed {
                    engine: InternedEngine::new(sim),
                    encode: encode.map(|e| e.interned),
                })
            }
        };
        Simulation::assemble(engine, self.policy)
    }

    /// Builds and runs to the configured stopping condition, returning the
    /// outcome and the finished simulation for inspection.
    pub fn run(self) -> (RunOutcome, Simulation<'a, P::State>)
    where
        P: 'a,
    {
        let mut sim = self.build();
        let out = sim.run();
        (out, sim)
    }
}

/// Initial-configuration policy for count protocols (which have no
/// distinguished initial state, so a start must be given explicitly).
enum CountInit<S: Copy + Ord + std::hash::Hash> {
    /// Not yet specified.
    Unset,
    /// All agents in one state.
    Uniform(S),
    /// Explicit multiset.
    Config(Vec<(S, u64)>),
    /// Captured eagerly from [`CountSeededInit::initial_config`].
    Ready(CountConfiguration<S>),
}

/// Builder for [`CountProtocol`] simulations. Construct via
/// [`Simulation::count_builder`]; see the [module docs](self) for the
/// builder walkthrough.
pub struct CountSimulationBuilder<'a, P: CountProtocol> {
    protocol: P,
    n: u64,
    mode: EngineMode,
    init: CountInit<P::State>,
    policy: Policy<'a, P::State>,
    encode: Option<fn(&ConfigSim<P>) -> Snapshot>,
}

impl<'a, P: CountProtocol> CountSimulationBuilder<'a, P> {
    fn new(protocol: P) -> Self {
        Self {
            protocol,
            n: 0,
            mode: EngineMode::Auto,
            init: CountInit::Unset,
            policy: Policy::default(),
            encode: None,
        }
    }

    /// Population size `n` (required with [`CountSimulationBuilder::uniform`]
    /// and [`CountSimulationBuilder::init_seeded`]; inferred from
    /// [`CountSimulationBuilder::config`]).
    pub fn size(mut self, n: u64) -> Self {
        self.n = n;
        self
    }

    /// Engine policy (default [`EngineMode::Auto`]; accepts
    /// `.mode(ctx.engine)` from the sweep layer directly).
    pub fn mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// All agents start in `state` (requires a prior
    /// [`CountSimulationBuilder::size`]).
    pub fn uniform(mut self, state: P::State) -> Self {
        self.init = CountInit::Uniform(state);
        self
    }

    /// Explicit initial configuration; the population size is its total.
    pub fn config(mut self, pairs: impl IntoIterator<Item = (P::State, u64)>) -> Self {
        let pairs: Vec<(P::State, u64)> = pairs.into_iter().collect();
        self.n = pairs.iter().map(|(_, c)| c).sum();
        self.init = CountInit::Config(pairs);
        self
    }

    /// Starts from a prebuilt [`CountConfiguration`] (the population size
    /// is its total) — for harnesses that assemble configurations through
    /// their own helpers.
    pub fn initial(mut self, config: CountConfiguration<P::State>) -> Self {
        self.n = config.population_size();
        self.init = CountInit::Ready(config);
        self
    }

    /// Initial configuration from the protocol's [`CountSeededInit`]
    /// implementation at the configured size (call
    /// [`CountSimulationBuilder::size`] first).
    pub fn init_seeded(mut self) -> Self
    where
        P: CountSeededInit,
    {
        assert!(
            self.n >= 2,
            "call .size(n) with n >= 2 before .init_seeded()"
        );
        let config = self.protocol.initial_config(self.n);
        assert_eq!(
            config.population_size(),
            self.n,
            "CountSeededInit::initial_config produced the wrong population size"
        );
        self.init = CountInit::Ready(config);
        self
    }

    policy_methods!(P::State);

    /// Enables crash-recovery checkpoints: a versioned, checksummed
    /// snapshot of the full engine state (including the adaptive mode,
    /// batching tables, and RNG streams) is written atomically to `path`
    /// at the cadence set by
    /// [`checkpoint_every`](CountSimulationBuilder::checkpoint_every)
    /// (default: the observer cadence). Resume later with
    /// [`CountSimulationBuilder::resume`]; the resumed run continues
    /// byte-for-byte identically to the uninterrupted one. Requires the
    /// state type to implement [`SnapshotState`].
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>) -> Self
    where
        P: 'a,
        P::State: SnapshotState + 'a,
    {
        self.policy.checkpoint_path = Some(path.into());
        self.encode = Some(snapshot::encode_config_sim);
        self
    }

    /// Resumes a simulation from a snapshot written by a checkpointing
    /// run of the same protocol. The engine state (population, engine
    /// mode, RNG streams, interaction clock) comes entirely from the
    /// snapshot — `size`/`mode`/init settings on this builder are
    /// ignored — while run policy (predicate, observers, budgets,
    /// checkpoint cadence and destination) is taken from this builder,
    /// so a resumed run can keep checkpointing.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be read, fails its checksum, or holds a
    /// snapshot of an agent-protocol engine.
    pub fn resume(self, path: impl AsRef<Path>) -> Result<Simulation<'a, P::State>, SnapshotError>
    where
        P: 'a,
        P::State: SnapshotState + 'a,
    {
        let snap = Snapshot::read(path.as_ref())?;
        let engine: Box<dyn Engine<P::State> + 'a> = match snap.kind {
            snapshot::KIND_CONFIG => Box::new(Checkpointed {
                engine: snapshot::decode_config_sim(self.protocol, &snap.body)?,
                encode: Some(snapshot::encode_config_sim),
            }),
            k => {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot engine tag {k} cannot resume a count-protocol simulation"
                )))
            }
        };
        Ok(Simulation::assemble(engine, self.policy))
    }

    /// Builds the configured [`Simulation`].
    ///
    /// # Panics
    ///
    /// Panics if no initial configuration was given, or a uniform init has
    /// no size.
    pub fn build(self) -> Simulation<'a, P::State>
    where
        P: 'a,
    {
        let config = match self.init {
            CountInit::Unset => panic!(
                "count simulation needs an initial configuration \
                 (.uniform / .config / .init_seeded)"
            ),
            CountInit::Uniform(state) => {
                assert!(self.n >= 2, "uniform init needs .size(n) with n >= 2");
                CountConfiguration::uniform(state, self.n)
            }
            CountInit::Config(pairs) => CountConfiguration::from_pairs(pairs),
            CountInit::Ready(config) => config,
        };
        let engine = Checkpointed {
            engine: ConfigSim::with_mode(self.protocol, config, self.policy.seed, self.mode),
            encode: self.encode,
        };
        Simulation::assemble(Box::new(engine), self.policy)
    }

    /// Builds and runs to the configured stopping condition, returning the
    /// outcome and the finished simulation for inspection.
    pub fn run(self) -> (RunOutcome, Simulation<'a, P::State>)
    where
        P: 'a,
    {
        let mut sim = self.build();
        let out = sim.run();
        (out, sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epidemic::InfectionEpidemic;
    use crate::rng::SimRng;

    /// Max epidemic over u64 values, agent-level.
    struct MaxRecord;

    impl Protocol for MaxRecord {
        type State = u64;

        fn initial_state(&self) -> u64 {
            0
        }

        fn interact(&self, rec: &mut u64, sen: &mut u64, _rng: &mut SimRng) {
            let m = (*rec).max(*sen);
            *rec = m;
            *sen = m;
        }
    }

    #[test]
    fn agent_builder_matches_direct_agent_sim() {
        let direct = {
            let mut sim = AgentSim::new(MaxRecord, 100, 5);
            sim.set_state(0, 9);
            sim.run_until_converged(|s| s.iter().all(|&v| v == 9), 500.0)
        };
        let (built, _) = Simulation::builder(MaxRecord)
            .size(100)
            .seed(5)
            .init_planted([(9u64, 1)])
            .max_time(500.0)
            .until(|view: &[(u64, u64)]| view.iter().all(|&(s, _)| s == 9))
            .run();
        assert_eq!(direct, built);
    }

    #[test]
    fn count_mode_runs_the_same_protocol_interned() {
        let (out, sim) = Simulation::builder(MaxRecord)
            .size(500)
            .seed(5)
            .mode(EngineMode::Sequential)
            .init_planted([(9u64, 1)])
            .until(|view: &[(u64, u64)]| view.iter().all(|&(s, _)| s == 9))
            .run();
        assert!(out.converged);
        assert_eq!(sim.engine_kind(), EngineKind::Sequential);
        assert_eq!(sim.count(&9), 500);
    }

    #[test]
    fn count_builder_matches_direct_config_sim() {
        // The default mode is Auto and the default cadence is `n`: the run
        // is a directly constructed `ConfigSim` advanced `n` interactions
        // per checkpoint.
        let n = 3_000u64;
        let direct = {
            let config = CountConfiguration::from_pairs([(false, n - 1), (true, 1)]);
            let mut sim = ConfigSim::with_mode(InfectionEpidemic, config, 11, EngineMode::Auto);
            while sim.count(&true) < n {
                sim.steps(n);
            }
            RunOutcome {
                converged: true,
                time: sim.time(),
                interactions: sim.interactions(),
            }
        };
        let (built, _) = Simulation::count_builder(InfectionEpidemic)
            .config([(false, n - 1), (true, 1)])
            .seed(11)
            .until(move |view| count_of(view, &true) == n)
            .run();
        assert_eq!(direct, built);
    }

    #[test]
    fn observers_fire_at_every_checkpoint_without_perturbing_the_run() {
        let n = 1_000u64;
        let run = |with_observer: bool| {
            let mut checkpoints = Vec::new();
            let mut builder = Simulation::count_builder(InfectionEpidemic)
                .config([(false, n - 1), (true, 1)])
                .seed(3)
                .check_every(n / 2)
                .until(move |view| count_of(view, &true) == n);
            if with_observer {
                builder = builder.observe_with(|t, i, view| {
                    checkpoints.push((t, i, count_of(view, &true)));
                });
            }
            let (out, _) = builder.run();
            (out, checkpoints)
        };
        let (plain, empty) = run(false);
        let (observed, checkpoints) = run(true);
        assert_eq!(plain, observed, "observer perturbed the trajectory");
        assert!(empty.is_empty());
        // Initial checkpoint at time 0 plus one per burst, infection counts
        // non-decreasing, final checkpoint converged.
        assert_eq!(checkpoints[0], (0.0, 0, 1));
        assert!(checkpoints.windows(2).all(|w| w[0].2 <= w[1].2));
        assert_eq!(checkpoints.last().unwrap().2, n);
        assert_eq!(
            checkpoints.len() as u64 - 1,
            observed.interactions.div_ceil(n / 2)
        );
    }

    #[test]
    fn named_observer_is_readable_after_the_run() {
        struct PeakSupport(usize);
        impl Observer<bool> for PeakSupport {
            fn observe(&mut self, _t: f64, _i: u64, view: &[(bool, u64)]) {
                self.0 = self.0.max(view.len());
            }
        }
        let mut peak = PeakSupport(0);
        let n = 500u64;
        let (out, _) = Simulation::count_builder(InfectionEpidemic)
            .config([(false, n - 1), (true, 1)])
            .seed(4)
            .observe(&mut peak)
            .until(move |view| count_of(view, &true) == n)
            .run();
        assert!(out.converged);
        assert_eq!(peak.0, 2);
    }

    #[test]
    fn run_until_phases_share_an_absolute_budget() {
        let n = 400u64;
        let mut sim = Simulation::count_builder(InfectionEpidemic)
            .config([(false, n - 1), (true, 1)])
            .seed(9)
            .build();
        let half = sim.run_until(move |view| count_of(view, &true) >= n / 2, 1e6);
        assert!(half.converged);
        let full = sim.run_until(move |view| count_of(view, &true) == n, 1e6);
        assert!(full.converged);
        assert!(full.interactions >= half.interactions);
        assert_eq!(sim.count(&true), n);
        // An already-satisfied predicate returns at the initial checkpoint,
        // even past its budget, without executing an interaction.
        let again = sim.run_until(move |view| count_of(view, &true) == n, 1.0);
        assert!(again.converged);
        assert_eq!(again.interactions, full.interactions);
    }

    /// The `(interactions, sorted view)` a snapshot must reproduce.
    fn fingerprint<S: Clone + Ord>(sim: &Simulation<'_, S>) -> (u64, Vec<(S, u64)>) {
        let mut view = sim.view();
        view.sort();
        (sim.interactions(), view)
    }

    #[test]
    fn snapshots_need_checkpoint_to_and_resume_every_holder_shape() {
        let dir = std::env::temp_dir().join(format!("pp-sim-holder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sim.ppsnap");
        let unsupported =
            |r: Result<(), SnapshotError>| matches!(r, Err(SnapshotError::Unsupported));
        // Agent-protocol builder: the agent engine and the interned count
        // engine.
        for mode in [SimMode::Agent, SimMode::Count(EngineMode::Auto)] {
            let spec = || {
                Simulation::builder(MaxRecord)
                    .size(300)
                    .seed(2)
                    .mode(mode)
                    .init_planted([(9u64, 1)])
            };
            let mut plain = spec().build();
            plain.steps(700);
            assert!(unsupported(plain.snapshot_to(&path)), "{mode:?}");
            let mut held = spec().checkpoint_to(&path).build();
            held.steps(700);
            held.snapshot_to(&path).unwrap();
            let resumed = Simulation::resume(MaxRecord, &path).unwrap();
            assert_eq!(fingerprint(&resumed), fingerprint(&held), "{mode:?}");
            assert_eq!(fingerprint(&plain), fingerprint(&held), "{mode:?}");
        }
        // Count-protocol builder.
        let spec = || {
            Simulation::count_builder(InfectionEpidemic)
                .config([(false, 499), (true, 1)])
                .seed(4)
        };
        let mut plain = spec().build();
        plain.steps(700);
        assert!(unsupported(plain.snapshot_to(&path)));
        let mut held = spec().checkpoint_to(&path).build();
        held.steps(700);
        held.snapshot_to(&path).unwrap();
        let resumed = Simulation::resume_count(InfectionEpidemic, &path).unwrap();
        assert_eq!(fingerprint(&resumed), fingerprint(&held));
        assert_eq!(fingerprint(&plain), fingerprint(&held));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let n = 100u64;
        let (out, sim) = Simulation::count_builder(InfectionEpidemic)
            .config([(false, n)])
            .seed(1)
            .max_time(5.0)
            .until(|view| count_of(view, &true) > 0)
            .run();
        assert!(!out.converged);
        assert!(out.time >= 5.0);
        assert_eq!(sim.count(&false), n);
    }

    #[test]
    fn view_groups_agent_states_with_agent_zero_first() {
        let sim = Simulation::builder(MaxRecord)
            .size(10)
            .init_config([(7u64, 4), (1u64, 6)])
            .build();
        let view = sim.view();
        assert_eq!(view, vec![(7, 4), (1, 6)]);
        assert_eq!(view_population(&view), 10);
        assert_eq!(count_of(&view, &1), 6);
        assert_eq!(count_of(&view, &2), 0);
    }

    /// A count protocol that churns through 16 states, so slots empty,
    /// get freed and get recycled all the time.
    struct Churn;

    impl crate::DeterministicCountProtocol for Churn {
        type State = u8;

        fn transition_det(&self, rec: u8, sen: u8) -> (u8, u8) {
            ((5 * rec + sen + 3) % 16, (rec ^ (sen + 1)) % 16)
        }
    }

    /// The view the count engines built before one-pass views: a full
    /// configuration copy, iterated in state order.
    fn materialised<P: CountProtocol>(sim: &ConfigSim<P>) -> Vec<(P::State, u64)> {
        let config: CountConfiguration<P::State> = match sim.inner_batched() {
            Some(b) => {
                let (states, counts, _) = b.snapshot_parts();
                states
                    .iter()
                    .zip(counts)
                    .filter(|&(_, &c)| c > 0)
                    .map(|(&s, &c)| (s, c))
                    .collect()
            }
            None => sim.inner_sequential().unwrap().config().clone(),
        };
        config.iter().map(|(&s, &c)| (s, c)).collect()
    }

    #[test]
    fn sequential_view_matches_the_materialised_view_across_slot_recycling() {
        let config = CountConfiguration::from_pairs([(0, 30), (7, 10)]);
        let mut sim = ConfigSim::with_mode(Churn, config, 3, EngineMode::Sequential);
        // One buffer for the whole run, as the run driver keeps it; it
        // starts dirty so a stale pair would show.
        let mut view = vec![(99, 1)];
        let (mut freed, mut recycled) = (false, false);
        let mut seen_slots: Vec<u8> = Vec::new();
        for _ in 0..300 {
            sim.view_into(&mut view);
            assert_eq!(view, materialised(&sim));
            let (states, counts, free) = sim.inner_sequential().unwrap().config().snapshot_parts();
            freed |= !free.is_empty();
            for (slot, (&state, &count)) in states.iter().zip(counts).enumerate() {
                if count > 0 {
                    match seen_slots.get(slot) {
                        Some(&old) => recycled |= old != state,
                        None => seen_slots.push(state),
                    }
                    seen_slots[slot] = state;
                }
            }
            sim.steps(7);
        }
        assert!(freed && recycled, "the run must free and recycle slots");
    }

    #[test]
    fn batched_view_matches_the_materialised_view_as_the_table_grows() {
        let config = CountConfiguration::uniform(0, 600);
        let mut sim = ConfigSim::with_mode(Churn, config, 5, EngineMode::Batched);
        let mut view = vec![(99, 1)];
        for _ in 0..200 {
            sim.view_into(&mut view);
            assert_eq!(view, materialised(&sim));
            sim.steps(37);
        }
        let (discovered, _, _) = sim.inner_batched().unwrap().snapshot_parts();
        assert!(
            discovered.len() > 8,
            "the state table must grow past its start"
        );
    }

    #[test]
    fn interned_view_matches_the_decoded_configuration_across_gc() {
        /// Churning record states, so GC has dead ids to drop.
        struct Mix;
        impl Protocol for Mix {
            type State = u64;
            fn initial_state(&self) -> u64 {
                0
            }
            fn interact(&self, rec: &mut u64, sen: &mut u64, _rng: &mut SimRng) {
                let r = *rec;
                *rec = (7 * r + *sen + 1) % 97;
                *sen = (*sen + r + 2) % 97;
            }
        }
        /// The materialised configuration, decoded id by id.
        fn decoded(sim: &ConfigSim<Interned<Mix>>) -> Vec<(u64, u64)> {
            let ids = materialised(sim);
            let mut view = Vec::new();
            sim.protocol().decode_into(&ids, &mut view);
            view
        }
        let interned = Interned::new(Mix);
        let config = interned.uniform_config(80);
        let mut engine = InternedEngine::new(ConfigSim::with_mode(
            interned,
            config,
            9,
            EngineMode::Sequential,
        ));
        let mut view = vec![(99, 1)];
        let mut passes = 0;
        for round in 0..120 {
            engine.view_into(&mut view);
            assert_eq!(view, decoded(&engine.sim));
            if round % 10 == 9 && engine.sim.collect_now() {
                passes += 1;
                engine.view_into(&mut view);
                assert_eq!(view, decoded(&engine.sim));
            }
            engine.sim.steps(40);
        }
        assert!(
            passes > 0 && engine.sim.protocol().generation() > 0,
            "GC must run"
        );
    }

    #[test]
    fn agent_view_groups_runs_and_distinct_states_in_first_seen_order() {
        /// The grouping the per-agent view must reproduce: one linear scan
        /// per record, first-seen order.
        fn first_seen(states: &[u64]) -> Vec<(u64, u64)> {
            let mut groups: Vec<(u64, u64)> = Vec::new();
            for &s in states {
                match groups.iter_mut().find(|(g, _)| *g == s) {
                    Some(group) => group.1 += 1,
                    None => groups.push((s, 1)),
                }
            }
            groups
        }
        let pattern = [5u64, 5, 5, 2, 2, 9, 5, 5, 1, 2, 2, 2, 9, 7, 5];
        let mut sim = AgentSim::new(MaxRecord, pattern.len(), 1);
        for (i, &s) in pattern.iter().enumerate() {
            sim.set_state(i, s);
        }
        let mut view = vec![(99, 1)];
        sim.view_into(&mut view);
        assert_eq!(view, vec![(5, 6), (2, 5), (9, 2), (1, 1), (7, 1)]);
        // A shuffled population mid-run, where runs are short.
        let mut sim = AgentSim::new(MaxRecord, 500, 4);
        for i in 0..500 {
            sim.set_state(i, (i as u64 * 7919) % 13);
        }
        for _ in 0..20 {
            sim.view_into(&mut view);
            assert_eq!(view, first_seen(sim.states()));
            assert_eq!(view[0].0, sim.states()[0]);
            sim.steps(50);
        }
    }

    #[test]
    fn seeded_init_assigns_by_index() {
        #[derive(Clone)]
        struct Split;
        impl Protocol for Split {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn interact(&self, _r: &mut u8, _s: &mut u8, _rng: &mut SimRng) {}
        }
        impl SeededInit for Split {
            fn init_state(&self, index: usize, n: usize) -> u8 {
                u8::from(index < n / 3)
            }
        }
        let sim = Simulation::builder(Split).size(9).init_seeded().build();
        assert_eq!(sim.count(&1), 3);
        // The same init collapses to the same multiset on a count engine.
        let sim = Simulation::builder(Split)
            .size(9)
            .init_seeded()
            .mode(EngineMode::Sequential)
            .build();
        assert_eq!(sim.count(&1), 3);

        /// A record state, interned on the count engines.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Tag {
            value: u64,
            touched: bool,
        }
        #[derive(Clone)]
        struct RecordSplit;
        impl Protocol for RecordSplit {
            type State = Tag;
            fn initial_state(&self) -> Tag {
                Tag {
                    value: 0,
                    touched: false,
                }
            }
            fn interact(&self, _r: &mut Tag, _s: &mut Tag, _rng: &mut SimRng) {}
        }
        impl SeededInit for RecordSplit {
            fn init_state(&self, index: usize, n: usize) -> Tag {
                Tag {
                    value: u64::from(index < n / 4),
                    touched: false,
                }
            }
        }
        let sim = Simulation::builder(RecordSplit)
            .size(1000)
            .init_seeded()
            .mode(EngineMode::Sequential)
            .build();
        let quarter = Tag {
            value: 1,
            touched: false,
        };
        assert_eq!(sim.count(&quarter), 250);
    }

    #[test]
    fn builder_is_deterministic_given_seed() {
        let run = |seed| {
            let (out, _) = Simulation::builder(MaxRecord)
                .size(200)
                .seed(seed)
                .init_planted([(3u64, 1)])
                .until(|view: &[(u64, u64)]| view.iter().all(|&(s, _)| s == 3))
                .run();
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).interactions, run(8).interactions);
    }

    #[test]
    #[should_panic(expected = "initial configuration")]
    fn count_builder_requires_an_init() {
        let _ = Simulation::count_builder(InfectionEpidemic)
            .size(10)
            .build();
    }

    #[test]
    fn planted_state_equal_to_initial_works_on_every_mode() {
        // A plant that coincides with the initial state (or repeats) must
        // merge into the configuration, not trip the duplicate-state
        // assert — the same builder spec has to build under every mode.
        for mode in [SimMode::Agent, SimMode::Count(EngineMode::Sequential)] {
            let sim = Simulation::builder(MaxRecord)
                .size(10)
                .mode(mode)
                .init_planted([(0u64, 2), (9u64, 1), (9u64, 1)])
                .build();
            assert_eq!(sim.count(&0), 8, "{mode:?}");
            assert_eq!(sim.count(&9), 2, "{mode:?}");
        }
    }

    #[test]
    #[should_panic(expected = "stopping condition")]
    fn run_without_predicate_or_budget_is_refused() {
        let mut sim = Simulation::count_builder(InfectionEpidemic)
            .config([(false, 9), (true, 1)])
            .build();
        let _ = sim.run(); // would otherwise spin forever
    }
}
