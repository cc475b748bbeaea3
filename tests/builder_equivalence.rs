//! Builder equivalence: for fixed seeds, the `Simulation` builder
//! reproduces **byte-identical** outcomes to the free functions'
//! pre-builder bodies.
//!
//! The agent-engine tests re-implement a migrated free function the way it
//! was written before the unified API — direct `AgentSim` construction,
//! hand-rolled `run_until_converged` loops — and assert exact equality
//! (`==`, not statistical closeness) against the function's current
//! builder-backed implementation. This pins down the builder's contract:
//! same engine construction order, same RNG stream, same checkpoint
//! cadence, same observation points.
//!
//! The count-engine tests pin each builder-backed function to the exact
//! outcome its legacy `ConfigSim::run_until` body returned. Those values
//! were recorded while both drivers still existed and agreed, so the one
//! run driver left is held to the bytes of the one it replaced.
//!
//! (This file is the sanctioned home for direct engine constructions
//! outside `pp-engine`; everything else goes through the builder.)

use uniform_sizeest::baselines::alistarh::{weak_estimate, WeakEstimator, WeakOutcome, WeakState};
use uniform_sizeest::baselines::exact_backup::{run_backup, BackupOutcome};
use uniform_sizeest::baselines::exact_leader::{
    run_exact_count, CountOutcome, CountState, ExactLeaderCount,
};
use uniform_sizeest::baselines::majority::{run_nonuniform_majority, MajorityOutcome};
use uniform_sizeest::engine::epidemic::epidemic_completion_time;
use uniform_sizeest::engine::{AgentSim, EngineMode, Simulation};
use uniform_sizeest::protocols::leader::{
    run_terminating, terminating_in_mode, LeaderState, LeaderTerminating, TerminatingOutcome,
};
use uniform_sizeest::protocols::log_size::{
    estimate_in_mode, estimate_log_size, is_converged, EstimateOutcome, FieldMaxima,
    LogSizeEstimation,
};
use uniform_sizeest::protocols::partition::{run_partition, PartitionOutcome};

/// The pre-builder body of `estimate_log_size` (agent engine), verbatim;
/// the current `estimate_log_size` is its builder-backed successor.
fn legacy_estimate_log_size(n: usize, seed: u64, budget: f64) -> EstimateOutcome {
    let mut sim = AgentSim::new(LogSizeEstimation::paper(), n, seed);
    let mut maxima = FieldMaxima::default();
    let out = sim.run_until_converged(
        |states| {
            for s in states {
                maxima.absorb(s);
            }
            is_converged(states)
        },
        budget,
    );
    let output = if out.converged {
        sim.states()[0].output
    } else {
        None
    };
    EstimateOutcome {
        output,
        time: out.time,
        converged: out.converged,
        maxima,
    }
}

#[test]
fn estimate_agentwise_matches_legacy_agent_sim_byte_for_byte() {
    for (n, seed) in [(100usize, 7u64), (150, 8), (200, 9)] {
        let budget = 1e7;
        let legacy = legacy_estimate_log_size(n, seed, budget);
        let built = estimate_log_size(n, seed, Some(budget));
        assert!(legacy.converged);
        assert_eq!(legacy, built, "n={n} seed={seed}");
    }
}

#[test]
fn estimate_log_size_counted_matches_legacy_config_sim_byte_for_byte() {
    let pinned = [
        (100usize, 17u64, 8u64, 10807.0, [7u64, 11, 669, 35, 243]),
        (150, 18, 9, 17871.0, [9, 12, 862, 45, 342]),
    ];
    for (n, seed, output, time, [log_size2, gr, max_time, epoch, sum]) in pinned {
        let expect = EstimateOutcome {
            output: Some(output),
            time,
            converged: true,
            maxima: FieldMaxima {
                log_size2,
                gr,
                time: max_time,
                epoch,
                sum,
            },
        };
        let built = estimate_in_mode(
            LogSizeEstimation::paper(),
            n,
            seed,
            Some(1e7),
            EngineMode::Auto.into(),
        );
        assert_eq!(expect, built, "n={n} seed={seed}");
    }
}

fn finish_terminating(
    counts: std::collections::BTreeMap<u64, u64>,
    n: usize,
    termination_time: f64,
    all_frozen_time: f64,
) -> TerminatingOutcome {
    let (output, agreement) = counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(o, c)| (Some(o), c as f64 / n as f64))
        .unwrap_or((None, 0.0));
    TerminatingOutcome {
        termination_time,
        all_frozen_time,
        output,
        agreement,
        terminated: true,
    }
}

/// The pre-builder body of `run_terminating` (agent engine, planted
/// leader via `set_state`), verbatim.
fn legacy_run_terminating(n: usize, seed: u64, max_time: f64) -> TerminatingOutcome {
    let mut sim = AgentSim::new(LeaderTerminating::paper(), n, seed);
    sim.set_state(0, LeaderState::leader());
    let fired = sim.run_until_converged(|s| s.iter().any(|a| a.terminated), max_time);
    assert!(fired.converged, "legacy harness expects termination");
    let termination_time = fired.time;
    let frozen = sim.run_until_converged(|s| s.iter().all(|a| a.terminated), max_time);
    let mut counts = std::collections::BTreeMap::new();
    for s in sim.states() {
        if let Some(o) = s.main.output {
            *counts.entry(o).or_insert(0u64) += 1;
        }
    }
    finish_terminating(counts, n, termination_time, frozen.time)
}

#[test]
fn run_terminating_agentwise_matches_legacy_agent_sim_byte_for_byte() {
    let (n, seed) = (100usize, 31u64);
    let legacy = legacy_run_terminating(n, seed, 5e6);
    let built = run_terminating(n, seed, 5e6);
    assert_eq!(legacy, built);
}

#[test]
fn run_terminating_counted_matches_legacy_config_sim_byte_for_byte() {
    let expect = TerminatingOutcome {
        termination_time: 81068.0,
        all_frozen_time: 81072.0,
        output: Some(8),
        agreement: 1.0,
        terminated: true,
    };
    let built = terminating_in_mode(80, 41, 5e6, EngineMode::Auto.into());
    assert_eq!(expect, built);
}

#[test]
fn run_partition_matches_legacy_config_sim_byte_for_byte() {
    for (n, seed, a_count, time) in [
        (500usize, 3u64, 256, 5.0),
        (5_000, 4, 2492, 11.0),
        (10_000, 5, 4981, 9.0),
    ] {
        let expect = PartitionOutcome {
            a_count,
            s_count: n - a_count,
            time,
        };
        assert_eq!(expect, run_partition(n, seed), "n={n} seed={seed}");
    }
}

#[test]
fn epidemic_completion_time_matches_legacy_config_sim_byte_for_byte() {
    // Spans the sequential (below `ConfigSim::BATCH_THRESHOLD`) and
    // batched regimes.
    for (n, seed, time) in [(400u64, 13u64, 13.9), (1_000, 11, 14.1), (20_000, 12, 20.5)] {
        assert_eq!(time, epidemic_completion_time(n, seed), "n={n} seed={seed}");
    }
}

/// `weak_estimate`'s count-engine body (its path above the per-agent
/// crossover), built directly so the pin holds at any population size.
fn weak_estimate_counted(n: usize, seed: u64) -> WeakOutcome {
    let n = n as u64;
    let (out, sim) = Simulation::count_builder(WeakEstimator)
        .size(n)
        .uniform(WeakState::initial())
        .seed(seed)
        .check_every(n)
        .until(WeakEstimator::agreed_view)
        .run();
    assert!(out.converged);
    WeakOutcome {
        estimate: sim.view().iter().map(|(s, _)| s.value).max().unwrap(),
        time: out.time,
    }
}

#[test]
fn weak_estimate_count_path_matches_legacy_config_sim_byte_for_byte() {
    for (n, seed, estimate, time) in [(500usize, 21u64, 9, 8.0), (6_000, 22, 14, 9.0)] {
        let expect = WeakOutcome { estimate, time };
        assert_eq!(expect, weak_estimate_counted(n, seed), "n={n} seed={seed}");
    }
}

/// Below its crossover `weak_estimate` runs the per-agent engine; these
/// outcomes were recorded when it moved there.
#[test]
fn weak_estimate_agent_path_is_pinned() {
    for (n, seed, estimate, time) in [(500usize, 21u64, 10, 7.0), (6_000, 22, 14, 12.0)] {
        let expect = WeakOutcome { estimate, time };
        assert_eq!(expect, weak_estimate(n, seed), "n={n} seed={seed}");
    }
}

#[test]
fn run_backup_matches_legacy_config_sim_byte_for_byte() {
    // n = 300 runs sequential; n = 1000 starts batched.
    let pinned = [
        (300u64, 5u64, 8, 586.5, vec![2, 3, 5, 8]),
        (1_000, 6, 9, 1627.0, vec![3, 5, 6, 7, 8, 9]),
    ];
    for (n, seed, max_level, silent_time, leader_levels) in pinned {
        let expect = BackupOutcome {
            max_level,
            silent_time,
            leader_levels,
        };
        assert_eq!(expect, run_backup(n, seed), "n={n} seed={seed}");
    }
}

#[test]
fn run_exact_count_matches_legacy_agent_sim_byte_for_byte() {
    let (n, seed) = (60usize, 13u64);
    let legacy: CountOutcome = {
        let mut sim = AgentSim::new(ExactLeaderCount::default(), n, seed);
        sim.set_state(
            0,
            CountState::Leader {
                count: 1,
                run: 0,
                done: false,
            },
        );
        let out = sim.run_until_converged(
            |states| {
                states
                    .iter()
                    .any(|s| matches!(s, CountState::Leader { done: true, .. }))
            },
            1e7,
        );
        let count = sim
            .states()
            .iter()
            .find_map(|s| match s {
                CountState::Leader { count, .. } => Some(*count),
                _ => None,
            })
            .unwrap_or(0);
        CountOutcome {
            count,
            time: out.time,
            terminated: out.converged,
        }
    };
    let built = run_exact_count(n, seed, 1e7);
    assert_eq!(legacy, built);
}

#[test]
fn run_nonuniform_majority_matches_legacy_seeded_config_sim_byte_for_byte() {
    for (n, ones, seed, winner, time) in [
        (300usize, 190usize, 5u64, 1, 10994.0),
        (300, 110, 6, 0, 11040.0),
    ] {
        let expect = MajorityOutcome {
            winner: Some(winner),
            time,
            converged: true,
        };
        let built = run_nonuniform_majority(n, ones, seed, 1e6);
        assert_eq!(expect, built, "n={n} ones={ones} seed={seed}");
    }
}
