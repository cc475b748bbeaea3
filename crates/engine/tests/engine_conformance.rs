//! Engine conformance suite: every engine a builder can build must honor
//! the same contract behind [`Simulation`] —
//!
//! * `view()` is the occupied-state multiset: positive counts summing to
//!   the population size;
//! * `advance(budget)` executes between 1 and `budget` interactions and
//!   never overshoots (the run driver relies on landing checkpoints
//!   exactly);
//! * `time()` is `interactions / n`;
//! * trajectories are a deterministic function of the seed;
//! * the one run driver takes every engine to the same convergence result.
//!
//! The suite runs every mode: the agent-protocol builder under
//! `SimMode::Agent` and interned `SimMode::Count(Sequential | Batched |
//! Auto)`, and the count-protocol builder under all three `EngineMode`s.

use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::simulation::{count_of, view_population, EngineKind, SimMode, Simulation};
use pp_engine::{EngineMode, Protocol, SimRng};

// Above ConfigSim::BATCH_THRESHOLD so the Auto modes start batched.
const N: u64 = 8_192;

/// Agent-level one-way epidemic over `bool`, so every mode shares one
/// state type and one conformance harness.
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

const ENGINE_MODES: [EngineMode; 3] = [
    EngineMode::Sequential,
    EngineMode::Batched,
    EngineMode::Auto,
];

/// Every mode, seeded, from the same single-source epidemic start, with
/// the engine each one must start on.
fn simulations(seed: u64) -> Vec<(String, EngineKind, Simulation<'static, bool>)> {
    let kind = |mode: EngineMode| match mode {
        EngineMode::Sequential => EngineKind::Sequential,
        EngineMode::Batched | EngineMode::Auto => EngineKind::Batched,
    };
    let agent = |mode: SimMode| {
        Simulation::builder(AgentEpidemic)
            .size(N)
            .seed(seed)
            .mode(mode)
            .deterministic()
            .init_planted([(true, 1)])
            .build()
    };
    let mut sims = vec![(
        "agent".to_string(),
        EngineKind::Agent,
        agent(SimMode::Agent),
    )];
    for mode in ENGINE_MODES {
        sims.push((format!("interned_{mode:?}"), kind(mode), agent(mode.into())));
    }
    for mode in ENGINE_MODES {
        let sim = Simulation::count_builder(InfectionEpidemic)
            .config([(false, N - 1), (true, 1)])
            .seed(seed)
            .mode(mode)
            .build();
        sims.push((format!("count_{mode:?}"), kind(mode), sim));
    }
    sims
}

#[test]
fn view_is_the_population_multiset() {
    for (name, _, mut sim) in simulations(1) {
        for _ in 0..5 {
            let view = sim.view();
            assert_eq!(view_population(&view), N, "{name}: view does not sum to n");
            assert!(
                view.iter().all(|&(_, c)| c > 0),
                "{name}: zero-count entry in view"
            );
            assert!(
                count_of(&view, &true) >= 1,
                "{name}: infection lost from view"
            );
            sim.advance(N / 4);
        }
    }
}

#[test]
fn advance_lands_within_budget_and_never_overshoots() {
    for (name, _, mut sim) in simulations(2) {
        assert_eq!(sim.interactions(), 0, "{name}: fresh engine not at 0");
        for budget in [1u64, 7, 64, 1_000] {
            let before = sim.interactions();
            let executed = sim.advance(budget);
            assert!(
                (1..=budget).contains(&executed),
                "{name}: advance({budget}) executed {executed}"
            );
            assert_eq!(
                sim.interactions(),
                before + executed,
                "{name}: interaction clock out of sync with advance()"
            );
        }
    }
}

#[test]
fn time_is_interactions_over_n() {
    for (name, _, mut sim) in simulations(3) {
        assert_eq!(sim.population_size(), N, "{name}");
        for _ in 0..4 {
            sim.advance(777);
            let expect = sim.interactions() as f64 / N as f64;
            assert!(
                (sim.time() - expect).abs() < 1e-12,
                "{name}: time {} vs interactions/n {expect}",
                sim.time()
            );
        }
    }
}

#[test]
fn trajectories_are_deterministic_given_seed() {
    let run = |seed: u64| -> Vec<(u64, Vec<(bool, u64)>)> {
        simulations(seed)
            .into_iter()
            .map(|(_, _, mut sim)| {
                let mut executed = 0;
                while executed < 3 * N {
                    executed += sim.advance(3 * N - executed);
                }
                let mut view = sim.view();
                view.sort();
                (sim.interactions(), view)
            })
            .collect()
    };
    assert_eq!(run(42), run(42), "same seed must reproduce every mode");
    assert_ne!(
        run(42),
        run(43),
        "different seeds should (overwhelmingly) differ"
    );
}

#[test]
fn run_until_drives_every_mode_to_completion() {
    for (name, kind, mut sim) in simulations(4) {
        assert_eq!(sim.engine_kind(), kind, "{name}");
        let out = sim.run_until(|view| count_of(view, &true) == N, 1e6);
        assert!(out.converged, "{name}: epidemic never completed");
        assert_eq!(sim.count(&true), N, "{name}");
        // ~2 ln n parallel time, with a generous band.
        assert!(out.time < 60.0, "{name}: completion took {}", out.time);
    }
}
