//! # pp-sweep — parallel experiment-sweep orchestration
//!
//! *Layer 5 (sweep) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! Every result in the paper's evaluation — completion times, estimate
//! errors, termination probabilities — is a *sweep*: run `T` independent
//! trials at each point of a parameter grid (protocol × population size)
//! and aggregate. This crate is the orchestration layer that executes such
//! sweeps, and it is the only trial runner in the workspace: every
//! `table_*` and `fig*` harness binary and the `sweep` CLI run their
//! trials through [`run_sweep`]:
//!
//! * **Declarative grids.** A [`SweepSpec`] names the experiments to run,
//!   the population sizes, the trial count, the engine policy
//!   ([`pp_engine::EngineMode`]), and the master seed — either built
//!   programmatically or parsed from a TOML/JSON spec file
//!   ([`SweepSpec::from_file`]). An experiment is a named closure
//!   ([`SweepExperiment`]) mapping `(n, derived seed, engine)` to a vector
//!   of named metric values.
//!
//! * **Seeded determinism.** Each trial's seed is derived from the master
//!   seed and the trial's *grid coordinates*
//!   (`derive_seed(derive_seed(master, point), trial)`), never from thread
//!   identity or arrival order. A crossbeam worker pool pulls `(point,
//!   trial)` tasks from a shared queue, and the aggregator stores each
//!   result in its trial-indexed slot, so the aggregated output —
//!   summaries, CSV, JSON — is **byte-identical** at 1 thread and at N
//!   threads (`crates/sweep/tests/determinism.rs` holds it to that).
//!
//! * **Streaming aggregation.** Workers push results as they finish;
//!   per-point [`pp_analysis::stats::Running`] accumulators (Welford)
//!   power live progress reporting, while the final tables use the full
//!   deterministically ordered sample for means, medians, quantiles, and
//!   normal-approximation CIs ([`pp_analysis::stats::Summary`]).
//!
//! * **Resumable runs.** With [`SweepSpec::journal`] set, every completed
//!   trial is appended to a JSONL journal keyed by a fingerprint of the
//!   spec. Re-running the same spec skips the journaled trials and
//!   produces exactly the output an uninterrupted run would have — a
//!   `n = 10⁷` sweep killed at 80% restarts at 80%, not at zero. Every
//!   journal line carries a CRC-32 of its content: a torn final line
//!   (crash mid-write) is detected by its failed checksum and dropped
//!   with a warning, while a corrupt line *before* the end — which only
//!   bit rot, not a crash, can produce — is a hard error naming the line
//!   number. A *different* spec behind the same journal path is an
//!   error, not a silent restart.
//!
//! * **Panic isolation and fault injection.** A panicking trial no
//!   longer poisons the sweep: it is caught, retried up to
//!   [`SweepSpec::max_retries`] times with backoff, and — if it keeps
//!   failing — journaled as a failed trial (re-run on the next resume)
//!   while the rest of the grid completes.
//!   [`SweepReport::failed_trials`](agg::SweepReport::failed_trials)
//!   counts the permanent failures. [`SweepSpec::fault`] (`"kill@N"`,
//!   also the `sweep --fault` flag and the engine-level `PP_FAULT`
//!   variable) arms the deterministic fault-injection harness used by CI
//!   to prove that kill + resume reproduces an uninterrupted run byte
//!   for byte.
//!
//! * **Reduced-trials CI knob.** The `PP_SWEEP_TRIALS` environment
//!   variable caps the trial count of any sweep (mirroring the equivalence
//!   suites' `PP_EQ_TRIALS`), so CI smoke-runs the full harness binaries
//!   on every push without paying for publication-quality sample sizes.
//!
//! ## Example
//!
//! ```
//! use pp_sweep::{run_sweep, SweepExperiment, SweepSpec};
//!
//! let mut spec = SweepSpec::new("quickstart", vec![1_000, 2_000], 8);
//! spec.master_seed = 42;
//! spec.threads = 2;
//! let experiments = vec![SweepExperiment::new("epidemic", &["time"], |ctx| {
//!     // The spec's engine policy reaches the trial via `.mode(ctx.engine)`.
//!     use pp_engine::epidemic::InfectionEpidemic;
//!     use pp_engine::simulation::{count_of, Simulation};
//!     let n = ctx.n;
//!     let (out, _) = Simulation::count_builder(InfectionEpidemic)
//!         .config([(false, n - 1), (true, 1)])
//!         .seed(ctx.seed)
//!         .mode(ctx.engine)
//!         .check_every((n / 10).max(1))
//!         .until(move |view| count_of(view, &true) == n)
//!         .run();
//!     vec![out.time]
//! })];
//! let report = run_sweep(&spec, &experiments).unwrap();
//! let point = report.point("epidemic", 1_000);
//! assert_eq!(point.trials.len(), 8);
//! // One-way epidemics complete in ~2 ln n parallel time.
//! assert!(point.summary("time").mean < 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod emit;
pub mod journal;
pub mod json;
pub mod run;
pub mod spec;

pub use agg::{PointResult, SweepReport, TrialRecord};
pub use run::{
    grid_fingerprint, merge_journals, run_sweep, run_sweep_shard, run_sweep_with, RunHooks, Shard,
    SweepError, SweepExperiment, TrialCtx, TrialEvent,
};
pub use spec::SweepSpec;
