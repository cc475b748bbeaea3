//! # pp-engine — population protocol simulation engine
//!
//! *Layers 2–4 (interned count semantics, engines, simulation surface) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! This crate is the execution substrate for the reproduction of
//! Doty & Eftekhari, *"Efficient size estimation and impossibility of
//! termination in uniform dense population protocols"* (PODC 2019).
//!
//! A *population protocol* is a network of `n` anonymous agents. Repeatedly, an
//! ordered pair of distinct agents — a **receiver** and a **sender** — is
//! chosen uniformly at random and both agents update their states by a common
//! transition algorithm. *Parallel time* is the number of interactions divided
//! by `n`.
//!
//! ## The API: one builder, one run driver
//!
//! Every measurement in this repository is one sentence: *run protocol `P`
//! on `n` agents from initial configuration `C` under engine `E` until
//! predicate `Q`, observing metrics `M`.* The [`simulation`] module is that
//! sentence as code — start there:
//!
//! ```
//! use pp_engine::{Simulation, SimRng, Protocol};
//!
//! struct Epidemic;
//!
//! impl Protocol for Epidemic {
//!     type State = bool; // infected?
//!
//!     fn initial_state(&self) -> bool {
//!         false
//!     }
//!
//!     fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
//!         *rec |= *sen; // the receiver catches what the sender carries
//!     }
//! }
//!
//! let (out, sim) = Simulation::builder(Epidemic)
//!     .size(100)
//!     .seed(42)
//!     .init_planted([(true, 1)]) // patient zero
//!     .max_time(1_000.0)
//!     .until(|view| view.iter().all(|&(infected, _)| infected))
//!     .run();
//! assert!(out.converged);
//! // An epidemic completes in ~2 ln n parallel time.
//! assert!(out.time < 30.0);
//! assert_eq!(sim.count(&true), 100);
//! ```
//!
//! [`Simulation::builder`] configures the protocol, population size, seed,
//! initial configuration (`init_planted` / `init_config` / `init_seeded` /
//! `init_with`), engine ([`simulation::SimMode`]), checkpoint cadence,
//! time budget, convergence predicate (`until`), and
//! [`simulation::Observer`] hooks (periodic snapshots, trace recording,
//! interaction-count telemetry). [`Simulation::count_builder`] is the same
//! surface for protocols expressed directly over configuration vectors
//! ([`count_sim::CountProtocol`]). Engine selection is a builder argument
//! — `.mode(EngineMode::Auto)` — not a per-call-site decision, and the
//! sweep layer pins engines per experiment grid through the same hook.
//!
//! ## The engines
//!
//! Underneath the builder sit four simulators. The builder picks one per
//! `.mode(..)` and holds it behind a crate-internal trait (advance the
//! interaction clock, decode the occupied-state multiset), so
//! [`Simulation::run`] is the one checkpoint loop for all of them:
//!
//! * [`sim::AgentSim`] — one state struct per agent: the default engine
//!   for the paper's record protocols, whose counters churn on nearly
//!   every interaction, and for trace tooling.
//! * [`count_sim::CountSim`] — a configuration vector (a multiset of
//!   states): `O(log k)` per interaction, `O(k)` memory, for protocols
//!   with small occupied support.
//! * [`batch::BatchedCountSim`] — the batched configuration simulator
//!   (Berenbrink et al., ESA 2020; the engine inside `ppsim`): `Θ(√n)`
//!   interactions per batch via conditional hypergeometric fills and a
//!   dense table of per-pair outcome laws, with a Gillespie-style
//!   null-skip mode for null-dominated phases. `o(1)` amortized work per
//!   interaction; tens to hundreds of times faster than `CountSim` at
//!   `n = 10⁶`–`10⁷` (see `BENCH_batch.json`).
//! * [`config_sim::ConfigSim`] — the adaptive facade: starts on the engine
//!   the protocol prefers, re-evaluates occupied support vs batch length
//!   mid-run ([`config_sim::EngineMode::Auto`]), and switches batched ↔
//!   sequential carrying protocol, configuration, RNG stream, and
//!   interaction clock across.
//!
//! The [`interned::Interned`] adapter runs any agent-level
//! [`protocol::Protocol`] on the count engines by interning record states
//! into dense `u32` slots; the builder applies it automatically for count
//! modes. A generation-based **interner GC** (triggered at [`ConfigSim`]'s
//! adaptive checkpoints) evicts states the configuration no longer holds
//! and compacts the table, so even counter-churning protocols — the
//! paper's `Log-Size-Estimation` and `Leader-Terminating` record states,
//! which mint a fresh state on nearly every interaction — stay at
//! live-support memory on arbitrarily long runs when pinned to a count
//! mode (their helpers default to [`SimMode::Agent`]), and collection is
//! trajectory-neutral (`tests/gc_equivalence.rs` holds sweeps with GC on
//! and off to byte-identical output). Three hot-path layers keep that
//! path cheap: state → id lookups probe an open-addressed
//! [`slot_index::SlotIndex`] instead of a `BTreeMap`; zero-randomness
//! transitions replay from a generation-stamped pair-outcome cache; and
//! when a record protocol churns at scale, the adapter's **dense
//! per-agent lane** runs the budget at the agent simulator's own cost
//! model and re-interns once at the end, closing the count engines' last
//! throughput gap (`bench_batch`'s `logsize_estimation` /
//! `leader_terminating` rows hold the count/agent ratio near 1). All engines realize exactly the
//! same stochastic process — the statistical-equivalence suites
//! (`tests/batched_equivalence.rs`, `tests/unified_equivalence.rs`), the
//! byte-level suites (`tests/builder_equivalence.rs`,
//! `tests/batch_golden.rs`, `tests/lane_golden.rs`,
//! `tests/snapshot_roundtrip.rs`), and the conformance suite over every
//! builder mode (`crates/engine/tests/engine_conformance.rs`) hold them to
//! that.
//!
//! ## Observability
//!
//! The engines are instrumented at their existing decision points — and
//! only there. Attach a [`pp_telemetry::Metrics`] registry (the builders'
//! `.metrics(&m)`, the ambient per-thread registry the sweep runner
//! installs per trial, or just run with `PP_TRACE=run.jsonl` set) and the
//! run records, per counter and decision point:
//!
//! * `batches` / `batch_len` — each completed batch in
//!   [`batch::BatchedCountSim`]'s advance, with its executed length;
//! * `null_skip_runs` / `null_skipped` / `null_skip_len` — each
//!   Gillespie null-skip step and the span it skipped;
//! * `mode_switches` (`switches_to_batched` / `switches_to_sequential`)
//!   plus the `adapt_support` / `adapt_mean_batch` histograms — the
//!   Auto-mode re-selection checkpoint in [`config_sim::ConfigSim`];
//! * `gc_passes` / `gc_evicted` / `gc_table_len` / `gc_live` — each
//!   interner-GC pass at those same checkpoints;
//! * `dense_lane_episodes` / `dense_lane_interactions` / `dense_lane_n`
//!   — each per-agent lane episode ([`interned::Interned`]);
//! * `pair_cache_hits` / `pair_cache_misses` / `pair_cache_gen_drops` —
//!   the adapter's pair-outcome cache probe in every transition;
//! * `slot_lookups` / `slot_probes` / `slot_rebuilds` — every
//!   open-addressed [`slot_index::SlotIndex`] lookup (interner and
//!   engine-side), its probe walk, and each growth/compaction rebuild;
//! * `snapshot_writes` / `snapshot_bytes` / `snapshot_nanos` /
//!   `snapshot_write_bytes` — each crash-recovery checkpoint the run
//!   driver writes.
//!
//! Every hook is observation-only: no counter feeds back into a branch
//! and none touches the RNG, so a run with telemetry on is byte-for-byte
//! identical to the same run with it off —
//! `tests/telemetry_neutrality.rs` holds all four engines to that, GC,
//! dense lane, and snapshot/resume included. `PP_TRACE=path.jsonl`
//! additionally appends a CRC-checked JSONL
//! event trace (mode switches, GC passes, lane episodes, checkpoints, and
//! a final counters line) that `pp-report` renders into a summary table.
//!
//! ## Model fidelity
//!
//! * The ordered receiver/sender pair matches the paper's
//!   `Log-Size-Estimation(rec, sen)` convention; Appendix B's synthetic-coin
//!   protocol relies on the symmetry of the order choice as a fair coin.
//! * Protocols in the paper's main model have access to uniformly random bits
//!   (a randomized transition relation); the engine passes a per-simulation
//!   RNG into every transition. Deterministic protocols simply ignore it.
//! * Uniformity — the requirement that the transition algorithm not depend on
//!   `n` — is enforced structurally: [`protocol::Protocol::interact`] receives
//!   only the two agent states and the RNG, never the population size.
//! * All simulators draw interactions from the same [`scheduler`]
//!   abstraction and are deterministic given a `u64` seed; checkpoints
//!   never consume engine randomness, so observers and predicates cannot
//!   perturb a trajectory. [`rng`] additionally provides the exact bulk
//!   samplers (binomial, hypergeometric, conditional multinomial) the
//!   batched engine is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config_sim;
pub mod count_sim;
pub mod env;
pub mod epidemic;
pub mod interned;
pub mod protocol;
pub mod record;
pub mod rng;
pub mod scheduler;
pub mod sim;
pub mod simulation;
pub mod slot_index;
pub mod snapshot;

pub use batch::{BatchedCountSim, DeterministicCountProtocol};
pub use config_sim::{ConfigSim, EngineMode};
pub use count_sim::{CountConfiguration, CountProtocol, CountSeededInit, CountSim, Outcomes};
pub use interned::Interned;
pub use protocol::{Protocol, SeededInit};
pub use record::{Trace, TracePoint};
pub use rng::{derive_seed, SimRng};
pub use scheduler::{OrderedPair, PairScheduler};
pub use sim::{AgentSim, RunOutcome};
pub use simulation::{count_of, EngineKind, Observer, SimMode, Simulation};
pub use snapshot::{crc32, Snapshot, SnapshotError, SnapshotState};

// Telemetry vocabulary, re-exported so engine users need no direct
// `pp-telemetry` dependency to attach a registry or read counters.
pub use pp_telemetry::{Counter, Hist, Metrics, MetricsSnapshot, TraceValue};
