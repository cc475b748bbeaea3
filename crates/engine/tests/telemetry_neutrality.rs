//! Telemetry neutrality: the signature invariant of the observability
//! layer. Attaching a [`Metrics`] registry, a JSONL trace, or both must
//! leave every engine's trajectory **byte-for-byte identical** to the
//! uninstrumented run — hooks are observation-only, never consult a
//! counter, and never touch the simulation RNG.
//!
//! The suite drives all four engines through the public builders
//! (`AgentSim` via [`Simulation::builder`]; `CountSim`,
//! `BatchedCountSim`, and the adaptive `ConfigSim` via
//! [`Simulation::count_builder`] under the three [`EngineMode`]s),
//! including the interner-GC and dense-lane paths and a
//! checkpoint/resume cycle, comparing full checkpoint logs — not just
//! final states — between plain, metrics-attached, and traced runs.
//!
//! Instrumentation is configured through the builders only (never via
//! `PP_TRACE`), so the suite is safe under the parallel
//! test runner.

use std::path::{Path, PathBuf};

use pp_engine::config_sim::EngineMode;
use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::simulation::{count_of, Simulation};
use pp_engine::{Counter, Metrics, Protocol, SimRng};

// Above the Auto facade's batching threshold, so EngineMode::Auto starts
// on the batched engine.
const N: u64 = 8_192;

/// Checkpoint log: `(interactions, sorted view)` at every observer
/// firing — a full trajectory signature, not just the final state.
type Log<S> = Vec<(u64, Vec<(S, u64)>)>;

/// Unique scratch path per (test, label); removed by each test on success.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pp_neutrality_{}_{name}.jsonl", std::process::id()))
}

/// What to attach to a run, besides the default (nothing).
enum Attach<'m> {
    Plain,
    Metrics(&'m Metrics),
    Traced(&'m Metrics, &'m Path),
}

/// One-source epidemic on a count engine, run to completion; returns the
/// checkpoint log.
fn epidemic_run(mode: EngineMode, attach: Attach<'_>) -> Log<bool> {
    let mut log = Vec::new();
    {
        let mut builder = Simulation::count_builder(InfectionEpidemic)
            .config([(false, N - 1), (true, 1)])
            .mode(mode)
            .seed(7)
            .until(|view| count_of(view, &true) == N)
            .observe_with(|_, i, view| {
                let mut v = view.to_vec();
                v.sort();
                log.push((i, v));
            });
        match attach {
            Attach::Plain => {}
            Attach::Metrics(m) => builder = builder.metrics(m),
            Attach::Traced(m, path) => builder = builder.metrics(m).trace_to(path),
        }
        let (out, _sim) = builder.run();
        assert!(out.converged, "epidemic never completed under {mode:?}");
    }
    log
}

#[test]
fn count_engines_are_trajectory_neutral_under_metrics_and_trace() {
    for mode in [
        EngineMode::Sequential,
        EngineMode::Batched,
        EngineMode::Auto,
    ] {
        let plain = epidemic_run(mode, Attach::Plain);

        let metrics = Metrics::new();
        let with_metrics = epidemic_run(mode, Attach::Metrics(&metrics));
        assert_eq!(plain, with_metrics, "{mode:?}: metrics perturbed the run");

        let path = temp(&format!("count_{mode:?}"));
        let _ = std::fs::remove_file(&path);
        let traced_metrics = Metrics::new();
        let traced = epidemic_run(mode, Attach::Traced(&traced_metrics, &path));
        assert_eq!(plain, traced, "{mode:?}: tracing perturbed the run");

        // The trace is CRC-clean and carries the final counter snapshot.
        let lines = pp_telemetry::read_trace(&path).expect("trace must verify");
        assert!(
            lines.iter().any(|l| l.contains("\"event\":\"counters\"")),
            "{mode:?}: no counters event in the trace"
        );
        std::fs::remove_file(&path).ok();

        // The instrumented runs actually counted something: the batched
        // engine executes collision batches, and the epidemic's silent
        // tail (almost everyone infected) engages null skipping.
        if mode == EngineMode::Batched {
            assert!(metrics.counter(Counter::Batches) > 0, "no batches counted");
            assert!(
                metrics.counter(Counter::NullSkipRuns) > 0,
                "completion run never null-skipped"
            );
        }
        if mode == EngineMode::Sequential {
            assert!(
                metrics.counter(Counter::SlotLookups) > 0,
                "sequential engine counted no slot lookups"
            );
        }
    }
}

/// Agent-level epidemic (for the `AgentSim` engine).
struct AgentEpidemic;

impl Protocol for AgentEpidemic {
    type State = bool;

    fn initial_state(&self) -> bool {
        false
    }

    fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
        *rec |= *sen;
    }
}

fn agent_run(attach: Attach<'_>) -> Log<bool> {
    let mut log = Vec::new();
    {
        let mut builder = Simulation::builder(AgentEpidemic)
            .size(2_000)
            .init_planted([(true, 1)])
            .seed(11)
            .until(|view| count_of(view, &true) == 2_000)
            .observe_with(|_, i, view| {
                let mut v = view.to_vec();
                v.sort();
                log.push((i, v));
            });
        match attach {
            Attach::Plain => {}
            Attach::Metrics(m) => builder = builder.metrics(m),
            Attach::Traced(m, path) => builder = builder.metrics(m).trace_to(path),
        }
        let (out, _sim) = builder.run();
        assert!(out.converged, "agent epidemic never completed");
    }
    log
}

#[test]
fn agent_engine_is_trajectory_neutral_under_metrics_and_trace() {
    let plain = agent_run(Attach::Plain);
    let metrics = Metrics::new();
    assert_eq!(
        plain,
        agent_run(Attach::Metrics(&metrics)),
        "metrics perturbed the agent engine"
    );
    let path = temp("agent");
    let _ = std::fs::remove_file(&path);
    let traced_metrics = Metrics::new();
    assert_eq!(
        plain,
        agent_run(Attach::Traced(&traced_metrics, &path)),
        "tracing perturbed the agent engine"
    );
    assert!(
        pp_telemetry::read_trace(&path).is_ok_and(|l| !l.is_empty()),
        "agent trace missing or corrupt"
    );
    std::fs::remove_file(&path).ok();
}

/// Unbounded-state churner: every interaction advances the receiver's
/// counter, so the interner's table grows without bound while the live
/// support stays a narrow band — the workload that exercises interner GC
/// (small advance chunks) and the dense per-agent lane (chunks ≥ n).
#[derive(Clone)]
struct Churner;

impl Protocol for Churner {
    type State = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn interact(&self, rec: &mut u64, _sen: &mut u64, _rng: &mut SimRng) {
        *rec += 1;
    }
}

/// Churner run on the interned count path; `check_every` controls
/// whether the dense lane can engage (budget ≥ n) or the run stays on
/// the configuration-vector path whose GC the small-chunk test targets.
fn churner_run(check_every: u64, attach: Attach<'_>) -> Log<u64> {
    let n = 1_000u64;
    let mut log = Vec::new();
    {
        let mut builder = Simulation::builder(Churner)
            .size(n)
            .mode(EngineMode::Auto)
            // Eight agents per initial value: support n/8 = 125 clears
            // the dense-lane floor from the start.
            .init_with(|i, _| (i / 8) as u64)
            .seed(77)
            .check_every(check_every)
            .max_time(2_000.0)
            .observe_with(|_, i, view| {
                let mut v = view.to_vec();
                v.sort();
                log.push((i, v));
            });
        match attach {
            Attach::Plain => {}
            Attach::Metrics(m) => builder = builder.metrics(m),
            Attach::Traced(m, path) => builder = builder.metrics(m).trace_to(path),
        }
        let mut sim = builder.build();
        sim.run();
    }
    log
}

#[test]
fn gc_heavy_run_is_trajectory_neutral() {
    // Sub-n chunks keep the dense lane disengaged, pinning the run to
    // the configuration-vector path where table churn triggers GC.
    let plain = churner_run(500, Attach::Plain);
    let metrics = Metrics::new();
    assert_eq!(
        plain,
        churner_run(500, Attach::Metrics(&metrics)),
        "metrics perturbed the GC path"
    );
    assert!(
        metrics.counter(Counter::GcPasses) > 0,
        "churner run never triggered GC"
    );
    assert!(metrics.counter(Counter::GcEvicted) > 0);
}

#[test]
fn dense_lane_run_is_trajectory_neutral() {
    // Whole-n chunks put the churner on the dense per-agent lane.
    let plain = churner_run(1_000, Attach::Plain);
    let metrics = Metrics::new();
    assert_eq!(
        plain,
        churner_run(1_000, Attach::Metrics(&metrics)),
        "metrics perturbed the dense lane"
    );
    assert!(
        metrics.counter(Counter::DenseLaneEpisodes) > 0,
        "churner run never took the dense lane"
    );

    let path = temp("lane");
    let _ = std::fs::remove_file(&path);
    let traced_metrics = Metrics::new();
    assert_eq!(
        plain,
        churner_run(1_000, Attach::Traced(&traced_metrics, &path)),
        "tracing perturbed the dense lane"
    );
    assert!(pp_telemetry::read_trace(&path).is_ok());
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointed_run_with_metrics_resumes_identically() {
    // Reference: uninstrumented, uninterrupted completion run.
    let (ref_out, ref_sim) = Simulation::count_builder(InfectionEpidemic)
        .config([(false, N - 1), (true, 1)])
        .mode(EngineMode::Auto)
        .seed(7)
        .until(|view| count_of(view, &true) == N)
        .run();
    assert!(ref_out.converged, "reference run never completed");
    let final_interactions = ref_sim.interactions();
    let mut final_view = ref_sim.view();
    final_view.sort();

    // Instrumented, checkpointing run interrupted mid-flight …
    let snap = temp("snap");
    let _ = std::fs::remove_file(&snap);
    let metrics = Metrics::new();
    {
        let mut sim = Simulation::count_builder(InfectionEpidemic)
            .config([(false, N - 1), (true, 1)])
            .mode(EngineMode::Auto)
            .seed(7)
            .metrics(&metrics)
            .checkpoint_to(&snap)
            .checkpoint_every(N)
            .max_time(3.0)
            .build();
        let out = sim.run();
        assert!(!out.converged, "interrupted run must stop on max_time");
    }
    assert!(
        metrics.counter(Counter::SnapshotWrites) > 0,
        "checkpointing run wrote no snapshots"
    );
    assert!(metrics.counter(Counter::SnapshotBytes) > 0);

    // … and resumed from its snapshot, still instrumented: the completed
    // trajectory must land exactly where the uninterrupted plain run did.
    let resume_metrics = Metrics::new();
    let mut resumed = Simulation::count_builder(InfectionEpidemic)
        .until(|view| count_of(view, &true) == N)
        .metrics(&resume_metrics)
        .resume(&snap)
        .expect("snapshot must resume");
    let out = resumed.run();
    assert!(out.converged, "resumed run never completed");
    assert_eq!(
        resumed.interactions(),
        final_interactions,
        "interaction clocks diverged"
    );
    let mut view = resumed.view();
    view.sort();
    assert_eq!(view, final_view, "resumed view diverged from the plain run");
    std::fs::remove_file(&snap).ok();
}
