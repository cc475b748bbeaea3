//! Interner-GC equivalence: collection must be invisible to every
//! observable of a run.
//!
//! Two layers of checks:
//!
//! 1. **Sweep-output byte identity.** The paper's headline measurements
//!    (`Log-Size-Estimation`, `Leader-Terminating`) run through the sweep
//!    orchestrator twice — once with interner GC forced off (`PP_GC=off`)
//!    and once with it on — and the emitted summary/per-trial CSV bytes
//!    must match exactly. GC preserves the engine's slot layout and
//!    relative id order and consumes no randomness, so the trajectories
//!    (not just the laws) coincide.
//! 2. **Eviction invariance under random configurations.** A property
//!    suite builds arbitrary interned configurations, litters the table
//!    with dead entries, forces a collection, and asserts the decoded
//!    `(state, count)` multiset — and the population — survive
//!    eviction + compaction unchanged.

use std::sync::Mutex;

use proptest::prelude::*;
use uniform_sizeest::engine::batch::ConfigSim;
use uniform_sizeest::engine::interned::Interned;
use uniform_sizeest::engine::rng::SimRng;
use uniform_sizeest::engine::{EngineMode, Protocol, Simulation};
use uniform_sizeest::protocols::leader::{LeaderState, LeaderTerminating};
use uniform_sizeest::protocols::log_size::{estimate_with, LogSizeEstimation};
use uniform_sizeest::sweep::{emit, run_sweep, SweepExperiment, SweepSpec};

/// Reduced-constants variants of the paper protocols: the byte-identity
/// claim is about trajectories, not estimate quality, and the short
/// clocks cut each trial by ~25x.
fn short_logsize() -> LogSizeEstimation {
    LogSizeEstimation::with_constants(20, 3, 2)
}

fn short_leader() -> LeaderTerminating {
    LeaderTerminating {
        fast: short_logsize(),
        termination_multiplier: 200,
    }
}

/// The headline protocols as inline sweep experiments, both on the
/// count-engine default the GC unlocked.
fn experiments() -> Vec<SweepExperiment> {
    vec![
        SweepExperiment::new("logsize", &["time", "interactions", "output"], |ctx| {
            let out = estimate_with(short_logsize(), ctx.n as usize, ctx.seed, None);
            assert!(out.converged);
            vec![
                out.time,
                out.maxima.sum as f64,
                out.output.map(|k| k as f64).unwrap_or(f64::NAN),
            ]
        }),
        SweepExperiment::new("leader", &["term_time", "frozen_time", "output"], |ctx| {
            let mut sim = Simulation::builder(short_leader())
                .size(ctx.n)
                .seed(ctx.seed)
                .mode(EngineMode::Auto)
                .init_planted([(LeaderState::leader(), 1)])
                .build();
            let fired = sim.run_until(|view| view.iter().any(|(s, _)| s.terminated), 1e8);
            assert!(fired.converged, "short leader clock must fire");
            let frozen = sim.run_until(|view| view.iter().all(|(s, _)| s.terminated), 1e8);
            let output = sim
                .view()
                .iter()
                .filter_map(|(s, _)| s.main.output)
                .next()
                .map(|k| k as f64)
                .unwrap_or(f64::NAN);
            vec![fired.time, frozen.time, output]
        }),
    ]
}

/// Serializes the two tests in this binary: the byte-identity test
/// mutates `PP_GC` while every `ConfigSim` construction — including the
/// property test's — reads it, and concurrent `setenv`/`getenv` is
/// undefined behavior on glibc. (Cargo runs test *binaries* sequentially,
/// so cross-binary constructions cannot overlap the mutation.)
static ENV_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn sweep_output_is_byte_identical_with_gc_on_and_off() {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let run = || {
        let mut spec = SweepSpec::new("gc_eq", vec![100, 200], 2);
        spec.master_seed = 0x6C01;
        spec.threads = 1;
        let report = run_sweep(&spec, &experiments()).expect("sweep runs");
        (emit::summary_csv(&report), emit::per_trial_csv(&report))
    };
    // Forced off, then forced on: the `PP_GC` knob is read at simulator
    // construction, so it must be set before each sweep starts.
    std::env::set_var("PP_GC", "off");
    let off = run();
    std::env::set_var("PP_GC", "on");
    let on = run();
    std::env::remove_var("PP_GC");
    assert_eq!(
        off, on,
        "interner GC changed the emitted sweep bytes — collection is not trajectory-neutral"
    );
}

/// Record state with enough structure to exercise hashing and ordering.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Rec {
    value: u64,
    flag: bool,
}

/// Receiver-increments churner over [`Rec`].
#[derive(Clone)]
struct Churn;

impl Protocol for Churn {
    type State = Rec;

    fn initial_state(&self) -> Rec {
        Rec {
            value: 0,
            flag: false,
        }
    }

    fn interact(&self, rec: &mut Rec, sen: &mut Rec, _rng: &mut SimRng) {
        rec.value += 1;
        rec.flag = !sen.flag;
    }
}

fn sorted_view(view: Vec<(Rec, u64)>) -> Vec<(u64, bool, u64)> {
    let mut flat: Vec<(u64, bool, u64)> = view
        .into_iter()
        .map(|(s, c)| (s.value, s.flag, c))
        .collect();
    flat.sort_unstable();
    flat
}

proptest! {
    #[test]
    fn eviction_and_compaction_preserve_the_decoded_multiset(
        counts in proptest::collection::vec((0u64..50, 1u64..40), 2..12),
        dead in proptest::collection::vec(1000u64..2000, 0..30),
        steps in 0u64..3000,
        seed in any::<u64>(),
    ) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let interned = Interned::new(Churn);
        let handle = interned.handle();
        // Random initial configuration (duplicate values collapse).
        let mut pairs: Vec<(Rec, u64)> = Vec::new();
        for &(value, count) in &counts {
            for flag in [false, true] {
                let state = Rec { value, flag };
                match pairs.iter_mut().find(|(s, _)| *s == state) {
                    Some((_, c)) => *c += count,
                    None => pairs.push((state, count)),
                }
            }
        }
        // Litter the table with states no agent holds.
        for &value in &dead {
            interned.intern_state(Rec { value, flag: false });
        }
        let config = interned.config_from_pairs(pairs);
        let population = config.population_size();
        prop_assume!(population >= 2);
        let mut sim = ConfigSim::sequential(interned, config, seed);
        sim.steps(steps); // churn mints more dead entries
        let before = sorted_view(handle.decode(&sim.config_view()));
        let table_before = handle.discovered();
        let generation = handle.generation();

        prop_assert!(sim.collect_now(), "interned adapter must collect");

        prop_assert_eq!(handle.generation(), generation + 1);
        let after = sorted_view(handle.decode(&sim.config_view()));
        prop_assert_eq!(&before, &after, "collection changed the decoded multiset");
        prop_assert_eq!(sim.config_view().population_size(), population);
        prop_assert!(handle.discovered() <= table_before);
        // Every live state must still decode through the handle.
        for &(value, flag, count) in &after {
            let state = Rec { value, flag };
            prop_assert_eq!(handle.count_of(&sim.config_view(), &state), count);
        }
        // The run continues seamlessly on the compacted table.
        sim.steps(200);
        prop_assert_eq!(sim.config_view().population_size(), population);
    }
}
