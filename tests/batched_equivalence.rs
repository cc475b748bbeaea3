//! Statistical-equivalence suite: the batched simulator must realize the
//! same stochastic process as the sequential one.
//!
//! [`BatchedCountSim`] is an *exact* reimplementation of [`CountSim`]'s
//! count process (uniform ordered pairs of distinct agents), so every
//! distribution either engine produces — completion times, outcome
//! frequencies, whole final configurations — must agree up to sampling
//! noise. These tests hold the two engines to that with KS-style bounds on
//! 200 seeded trials at `n = 10⁴` (epidemic completion times, approximate-
//! majority outcomes, the Section 4 counter relation's signal times) plus a
//! total-variation check on the full final-configuration distribution at
//! tiny `n`, where every code path (batch fill, collision interaction, null
//! skipping, state discovery) fires constantly.

use uniform_sizeest::engine::batch::{BatchedCountSim, DeterministicCountProtocol};
use uniform_sizeest::engine::count_sim::{CountConfiguration, CountSim};
use uniform_sizeest::engine::epidemic::InfectionEpidemic;
use uniform_sizeest::engine::rng::derive_seed;
use uniform_sizeest::engine::simulation::{count_of, Simulation};
use uniform_sizeest::engine::EngineMode;
use uniform_sizeest::termination::experiment::{counter_dense_config, counter_protocol, COUNTER_T};

mod common;
use common::{eq_trials, ks_statistic, ks_threshold};

/// Parallel time for a single-source epidemic on `n` agents to infect
/// everyone under `mode`, checked every `n / 50` interactions.
fn epidemic_time(n: u64, mode: EngineMode, seed: u64) -> f64 {
    let (out, _) = Simulation::count_builder(InfectionEpidemic)
        .config([(false, n - 1), (true, 1)])
        .seed(seed)
        .mode(mode)
        .check_every(n / 50)
        .until(move |view| count_of(view, &true) == n)
        .run();
    assert!(out.converged);
    out.time
}

#[test]
fn epidemic_completion_times_agree() {
    let n = 10_000u64;
    let trials = eq_trials(200);
    let mut seq: Vec<f64> = (0..trials)
        .map(|t| epidemic_time(n, EngineMode::Sequential, derive_seed(0xE0, t)))
        .collect();
    let mut bat: Vec<f64> = (0..trials)
        .map(|t| epidemic_time(n, EngineMode::Batched, derive_seed(0xE1, t)))
        .collect();
    let d = ks_statistic(&mut seq, &mut bat);
    let crit = ks_threshold(trials as usize, trials as usize);
    assert!(
        d < crit,
        "completion-time distributions diverge: KS {d:.4} ≥ {crit:.4}"
    );
}

/// Parallel time until the threshold-8 Figure-1 counter, started dense on
/// `n` agents, raises its first termination signal under `mode`, checked
/// every `n / 100` interactions like `signal_time`.
fn counter_signal(n: u64, mode: EngineMode, seed: u64) -> f64 {
    let (out, _) = Simulation::count_builder(counter_protocol(8))
        .initial(counter_dense_config(n))
        .seed(seed)
        .mode(mode)
        .check_every(n / 100)
        .max_time(1e5)
        .until(|view| count_of(view, &COUNTER_T) > 0)
        .run();
    assert!(out.converged);
    out.time
}

#[test]
fn counter_signal_times_agree() {
    // A `TransitionRelation` batches through its declared law; its signal
    // times must match the sequential engine's, which samples the relation
    // one interaction at a time.
    let n = 10_000u64;
    let trials = eq_trials(200);
    let mut seq: Vec<f64> = (0..trials)
        .map(|t| counter_signal(n, EngineMode::Sequential, derive_seed(0xC0, t)))
        .collect();
    let mut bat: Vec<f64> = (0..trials)
        .map(|t| counter_signal(n, EngineMode::Batched, derive_seed(0xC1, t)))
        .collect();
    let d = ks_statistic(&mut seq, &mut bat);
    let crit = ks_threshold(trials as usize, trials as usize);
    assert!(
        d < crit,
        "counter signal-time distributions diverge: KS {d:.4} ≥ {crit:.4}"
    );
}

/// One-way approximate majority over `{A = 0, B = 1, U = 2}`: a receiver
/// holding the opposite opinion of its sender blanks out; a blank receiver
/// adopts the sender's opinion. Deterministic transitions, genuinely random
/// outcome when the initial split is close — ideal for comparing outcome
/// *distributions* between engines.
#[derive(Clone, Copy)]
struct ApproxMajority;

impl DeterministicCountProtocol for ApproxMajority {
    type State = u8;

    fn transition_det(&self, rec: u8, sen: u8) -> (u8, u8) {
        let rec2 = match (rec, sen) {
            (0, 1) | (1, 0) => 2,
            (2, 0) => 0,
            (2, 1) => 1,
            _ => rec,
        };
        (rec2, sen)
    }
}

/// Runs one approximate-majority trial from a 5050/4950 split of
/// `n = 10⁴` agents to consensus; returns `(a_won, consensus_time)`.
fn majority_outcome(mode: EngineMode, seed: u64) -> (bool, f64) {
    let n = 10_000u64;
    let (out, sim) = Simulation::count_builder(ApproxMajority)
        .config([(0u8, 5_050), (1u8, 4_950)])
        .seed(seed)
        .mode(mode)
        .check_every(n / 50)
        .max_time(10_000.0)
        .until(move |view| {
            let count = |s| count_of(view, &s);
            count(0) + count(2) == n || count(1) + count(2) == n
        })
        .run();
    assert!(out.converged, "approximate majority failed to converge");
    let a_won = sim.count(&1) == 0;
    (a_won, out.time)
}

#[test]
fn majority_outcome_distributions_agree() {
    // 51%/49% split: the initial gap (100) is below the √(n ln n) ≈ 300
    // scale where approximate majority becomes near-deterministic, so which
    // opinion wins is genuinely random and both engines must produce the
    // same win probability and the same consensus-time distribution.
    let trials = eq_trials(200);
    let run = |mode: EngineMode, stream: u64| {
        let mut wins = 0u64;
        let mut times = Vec::new();
        for t in 0..trials {
            let (a_won, time) = majority_outcome(mode, derive_seed(stream, t));
            wins += u64::from(a_won);
            times.push(time);
        }
        (wins as f64 / trials as f64, times)
    };
    let (p_seq, mut t_seq) = run(EngineMode::Sequential, 0xA0);
    let (p_bat, mut t_bat) = run(EngineMode::Batched, 0xA1);
    // Win-rate difference: 3σ two-sample binomial bound at the pooled rate.
    let pooled = 0.5 * (p_seq + p_bat);
    let sigma = (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
    assert!(
        (p_seq - p_bat).abs() < 3.0 * sigma.max(0.01),
        "win rates diverge: sequential {p_seq:.3} vs batched {p_bat:.3} (σ {sigma:.3})"
    );
    // Consensus-time distribution: KS bound as for the epidemic.
    let d = ks_statistic(&mut t_seq, &mut t_bat);
    let crit = ks_threshold(trials as usize, trials as usize);
    assert!(
        d < crit,
        "consensus-time distributions diverge: KS {d:.4} ≥ {crit:.4}"
    );
}

/// Pairwise annihilation `1 + 2 → 0 + 0` (receiver side): shrinks support
/// and discovers a state absent from the initial configuration.
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

/// Total-variation comparison of the *entire final configuration*
/// distribution after a fixed number of interactions at tiny `n`. At this
/// scale every batch is boundary-length, collisions fire constantly, and
/// the null-skip mode engages near absorption — a sharp microscope for
/// pair-level law errors that coarse statistics would smear out.
/// How the batched engine advances in the tiny-`n` TV test: through the
/// mode-choosing `advance` (steps), or forced through `run_batch` so the
/// batch fill, lumped pairing, and collision-interaction paths are
/// exercised even where `advance` would prefer the null-skip mode.
#[derive(Clone, Copy)]
enum Engine {
    Sequential,
    Batched,
    ForcedBatch,
}

fn tiny_population_tv(engines: (Engine, Engine)) -> f64 {
    let n_each = 4u64; // population 8: states 1 and 2, four agents each
    let steps = 6u64;
    let trials = 60_000u64;
    let config = || CountConfiguration::from_pairs([(1u8, n_each), (2u8, n_each)]);
    // Final configuration keyed by (count₀, count₁) — count₂ is determined.
    let hist = |engine: Engine, stream: u64| {
        let mut counts = std::collections::BTreeMap::new();
        for t in 0..trials {
            let seed = derive_seed(stream, t);
            let key = match engine {
                Engine::Sequential => {
                    let mut sim = CountSim::new(Annihilate, config(), seed);
                    sim.steps(steps);
                    (sim.config().count(&0), sim.config().count(&1))
                }
                Engine::Batched => {
                    let mut sim = BatchedCountSim::new(Annihilate, config(), seed);
                    sim.steps(steps);
                    assert_eq!(sim.interactions(), steps);
                    (sim.count(&0), sim.count(&1))
                }
                Engine::ForcedBatch => {
                    let mut sim = BatchedCountSim::new(Annihilate, config(), seed);
                    while sim.interactions() < steps {
                        sim.run_batch(steps - sim.interactions());
                    }
                    assert_eq!(sim.interactions(), steps);
                    (sim.count(&0), sim.count(&1))
                }
            };
            *counts.entry(key).or_insert(0u64) += 1;
        }
        counts
    };
    let a = hist(engines.0, 0xC0);
    let b = hist(engines.1, 0xC1);
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    keys.iter()
        .map(|k| {
            let p = *a.get(k).unwrap_or(&0) as f64 / trials as f64;
            let q = *b.get(k).unwrap_or(&0) as f64 / trials as f64;
            (p - q).abs()
        })
        .sum::<f64>()
        / 2.0
}

/// Total-variation bound for the tiny-`n` histograms: sampling noise alone
/// gives TV ≈ √(K/(2π·trials)) ≈ 0.006 for K ≈ 15 support points; 0.02
/// leaves 3× headroom while still catching any real discrepancy (a
/// misweighted pair type shifts TV by Ω(0.05)).
const TV_BOUND: f64 = 0.02;

#[test]
fn tiny_population_configuration_distributions_agree() {
    let tv = tiny_population_tv((Engine::Sequential, Engine::Batched));
    assert!(
        tv < TV_BOUND,
        "final-configuration distributions diverge: TV {tv:.4}"
    );
}

#[test]
fn tiny_population_forced_batch_path_agrees() {
    // `advance` prefers the null-skip mode at this scale, so force the
    // collision-batch machinery (fill, lumped pairing, collision
    // interaction, budget truncation) and hold it to the same law.
    let tv = tiny_population_tv((Engine::Sequential, Engine::ForcedBatch));
    assert!(
        tv < TV_BOUND,
        "forced-batch configuration distributions diverge: TV {tv:.4}"
    );
}

#[test]
fn facade_engines_agree_on_epidemic_mean_time() {
    // Cross-check on fresh streams with moderate trial counts:
    // mean completion times within 4 standard errors.
    let n = 10_000u64;
    let trials = 60u64;
    let mean_time = |mode: EngineMode, stream: u64| -> (f64, f64) {
        let times: Vec<f64> = (0..trials)
            .map(|t| epidemic_time(n, mode, derive_seed(stream, t)))
            .collect();
        let mean = times.iter().sum::<f64>() / trials as f64;
        let var = times.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / (trials - 1) as f64;
        (mean, (var / trials as f64).sqrt())
    };
    let (m_seq, se_seq) = mean_time(EngineMode::Sequential, 0xD0);
    let (m_bat, se_bat) = mean_time(EngineMode::Batched, 0xD1);
    let se = (se_seq * se_seq + se_bat * se_bat).sqrt();
    assert!(
        (m_seq - m_bat).abs() < 4.0 * se,
        "mean completion times diverge: {m_seq:.3} vs {m_bat:.3} (se {se:.3})"
    );
}
