//! Statistical equivalence of the unified protocol layer: interned
//! `ConfigSim` runs must realize the same law as `AgentSim` runs of the
//! same protocol, and the batched engine's randomized paths must match the
//! sequential engine.
//!
//! Three layers of checks:
//!
//! 1. **Paper protocols across representations** — `Log-Size-Estimation`
//!    and cancellation/doubling majority, run both per-agent (`AgentSim`)
//!    and count-based (interned / native `ConfigSim`): output and
//!    convergence-time distributions compared with KS and binomial bounds.
//! 2. **Forced-batch randomized path** — a protocol with genuine finite
//!    outcome laws (`GeometricTimer`'s capped geometric) pushed through
//!    `run_batch` at tiny `n`, where the multinomial split, collision
//!    interaction, and law discovery fire constantly: total-variation
//!    comparison of whole final configurations against the sequential
//!    engine.
//! 3. **Coverage** — every protocol in `crates/core` and
//!    `crates/baselines` constructs and runs on `ConfigSim`.
//!
//! Trial counts honour the `PP_EQ_TRIALS` environment variable so CI can
//! run the suite in a reduced-trials mode on every push (correctness of the
//! bounds does not depend on the trial count — thresholds scale with it).

use uniform_sizeest::baselines::majority::{
    run_nonuniform_majority, run_nonuniform_majority_agentwise,
};
use uniform_sizeest::baselines::naive_terminating::{GeoState, GeometricTimer};
use uniform_sizeest::engine::batch::{BatchedCountSim, ConfigSim};
use uniform_sizeest::engine::count_sim::{CountConfiguration, CountSim};
use uniform_sizeest::engine::interned::Interned;
use uniform_sizeest::engine::rng::derive_seed;
use uniform_sizeest::protocols::log_size::{estimate_agentwise, estimate_with, LogSizeEstimation};

mod common;
use common::{eq_trials, ks_statistic, ks_threshold};

/// Trials per engine for the distribution comparisons. Debug builds (plain
/// `cargo test`) default lower: the KS/binomial thresholds scale with the
/// trial count, so the bounds stay valid.
fn trials() -> u64 {
    eq_trials(if cfg!(debug_assertions) { 20 } else { 60 })
}

#[test]
fn log_size_estimation_agentwise_and_counted_agree() {
    // Reduced clock constants keep each run short without changing the
    // comparison: both representations run the *same* protocol instance,
    // so any divergence is an engine bug, not a protocol property.
    let protocol = LogSizeEstimation::with_constants(20, 3, 2);
    let n = 150;
    let trials = trials();
    let run = |counted: bool, stream: u64| {
        let mut times = Vec::new();
        let mut outputs = Vec::new();
        for t in 0..trials {
            let seed = derive_seed(stream, t);
            let out = if counted {
                estimate_with(protocol, n, seed, None)
            } else {
                estimate_agentwise(protocol, n, seed, None)
            };
            assert!(out.converged, "run failed to converge");
            times.push(out.time);
            outputs.push(out.output.expect("converged run has output") as f64);
        }
        (times, outputs)
    };
    let (mut t_agent, o_agent) = run(false, 0xE10);
    let (mut t_count, o_count) = run(true, 0xE11);

    let d = ks_statistic(&mut t_agent, &mut t_count);
    let crit = ks_threshold(trials as usize, trials as usize);
    assert!(
        d < crit,
        "convergence-time distributions diverge: KS {d:.4} ≥ {crit:.4}"
    );

    // Output distributions: compare means within 3σ of the difference.
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let var =
        |v: &[f64], m: f64| v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (v.len() - 1) as f64;
    let (ma, mc) = (mean(&o_agent), mean(&o_count));
    let se = ((var(&o_agent, ma) + var(&o_count, mc)) / trials as f64).sqrt();
    assert!(
        (ma - mc).abs() < 3.0 * se.max(0.3),
        "output means diverge: agentwise {ma:.2} vs counted {mc:.2} (se {se:.3})"
    );
}

#[test]
fn majority_agentwise_and_counted_agree() {
    // 54%/46% split at n = 300: the gap sits near the √(n ln n) scale, so
    // the winner is genuinely random and both representations must produce
    // the same win probability and convergence-time distribution. The
    // counted run also exercises the non-uniform initial configuration
    // (CountSeededInit input split).
    let n = 300;
    let ones = 162;
    let trials = trials();
    let run = |counted: bool, stream: u64| {
        let mut wins = 0u64;
        let mut times = Vec::new();
        for t in 0..trials {
            let seed = derive_seed(stream, t);
            let out = if counted {
                run_nonuniform_majority(n, ones, seed, 1e7)
            } else {
                run_nonuniform_majority_agentwise(n, ones, seed, 1e7)
            };
            assert!(out.converged, "majority run failed to converge");
            wins += u64::from(out.winner == Some(1));
            times.push(out.time);
        }
        (wins as f64 / trials as f64, times)
    };
    let (p_agent, mut t_agent) = run(false, 0xE20);
    let (p_count, mut t_count) = run(true, 0xE21);

    let pooled = 0.5 * (p_agent + p_count);
    let sigma = (2.0 * pooled * (1.0 - pooled) / trials as f64).sqrt();
    assert!(
        (p_agent - p_count).abs() < 3.0 * sigma.max(0.02),
        "win rates diverge: agentwise {p_agent:.3} vs counted {p_count:.3} (σ {sigma:.3})"
    );
    let d = ks_statistic(&mut t_agent, &mut t_count);
    let crit = ks_threshold(trials as usize, trials as usize);
    assert!(
        d < crit,
        "convergence-time distributions diverge: KS {d:.4} ≥ {crit:.4}"
    );
}

/// Total-variation distance between final-configuration histograms of the
/// geometric-timer protocol at tiny `n`, where every batched code path
/// (fill, multinomial split over the capped-geometric law, collision
/// interaction, budget truncation, state discovery) fires constantly.
fn geometric_timer_tv(force_batch: bool) -> (f64, f64) {
    let n = 6u64;
    let steps = 5u64;
    // Histogram comparisons need far more trials than the KS tests, so the
    // `PP_EQ_TRIALS` knob enters with a ×100 multiplier (CI's 40 → 4,000).
    let trials = 100 * eq_trials(if cfg!(debug_assertions) { 150 } else { 400 });
    // Sampling noise alone gives TV ≈ √(K/(2π·trials)) for K ≈ 15 support
    // points; 2.5× that leaves headroom without masking real bugs (a
    // misweighted law shifts TV by Ω(0.05) at full trials).
    let bound = 2.5 * (15.0 / (2.0 * std::f64::consts::PI * trials as f64)).sqrt();
    let protocol = GeometricTimer { scale: 1 };
    let config = || CountConfiguration::uniform(GeoState::Fresh, n);
    let hist = |batched: bool, stream: u64| {
        let mut counts = std::collections::BTreeMap::new();
        for t in 0..trials {
            let seed = derive_seed(stream, t);
            // Key: (fresh, terminated) counts — a coarse but sensitive
            // projection of the configuration.
            let key = if batched {
                let mut sim = BatchedCountSim::new(protocol, config(), seed);
                if force_batch {
                    while sim.interactions() < steps {
                        sim.run_batch(steps - sim.interactions());
                    }
                } else {
                    sim.steps(steps);
                }
                assert_eq!(sim.interactions(), steps);
                (
                    sim.count(&GeoState::Fresh),
                    sim.count(&GeoState::Terminated),
                )
            } else {
                let mut sim = CountSim::new(protocol, config(), seed);
                sim.steps(steps);
                (
                    sim.config().count(&GeoState::Fresh),
                    sim.config().count(&GeoState::Terminated),
                )
            };
            *counts.entry(key).or_insert(0u64) += 1;
        }
        counts
    };
    let a = hist(false, 0xE30);
    let b = hist(true, 0xE31);
    let keys: std::collections::BTreeSet<_> = a.keys().chain(b.keys()).collect();
    let tv = keys
        .iter()
        .map(|k| {
            let p = *a.get(k).unwrap_or(&0) as f64 / trials as f64;
            let q = *b.get(k).unwrap_or(&0) as f64 / trials as f64;
            (p - q).abs()
        })
        .sum::<f64>()
        / 2.0;
    (tv, bound)
}

#[test]
fn randomized_forced_batch_path_matches_sequential() {
    let (tv, bound) = geometric_timer_tv(true);
    assert!(
        tv < bound,
        "forced-batch randomized configurations diverge: TV {tv:.4} ≥ {bound:.4}"
    );
}

#[test]
fn randomized_mode_chosen_path_matches_sequential() {
    let (tv, bound) = geometric_timer_tv(false);
    assert!(
        tv < bound,
        "mode-chosen randomized configurations diverge: TV {tv:.4} ≥ {bound:.4}"
    );
}

/// Every protocol in `crates/core` and `crates/baselines` runs on
/// `ConfigSim` — natively for count protocols, through the interning
/// adapter for agent-level ones. Steps a short prefix and checks population
/// conservation.
#[test]
fn every_protocol_runs_on_config_sim() {
    use uniform_sizeest::baselines as bl;
    use uniform_sizeest::protocols as core;

    const N: u64 = 600;
    const STEPS: u64 = 3_000;

    fn run_interned<P>(protocol: P)
    where
        P: uniform_sizeest::engine::protocol::Protocol,
        P::State: Eq + std::hash::Hash,
    {
        let interned = Interned::new(protocol);
        let config = interned.uniform_config(N);
        let mut sim = ConfigSim::new(interned, config, 42);
        sim.steps(STEPS);
        assert_eq!(sim.config_view().population_size(), N);
    }

    fn run_native<P>(protocol: P, config: CountConfiguration<P::State>)
    where
        P: uniform_sizeest::engine::count_sim::CountProtocol,
    {
        let mut sim = ConfigSim::new(protocol, config, 42);
        sim.steps(STEPS);
        assert_eq!(sim.config_view().population_size(), N);
    }

    // crates/core: the paper's protocols.
    run_interned(core::log_size::LogSizeEstimation::paper());
    run_interned(core::leader::LeaderTerminating::paper());
    run_interned(core::upper_bound::UpperBoundEstimation::paper());
    run_interned(core::synthetic::SyntheticCoinEstimation::paper());
    run_interned(core::synthetic_alternating::AlternatingCoinEstimation::paper());
    run_interned(core::aae_clock::AaePhaseClock);
    run_interned(core::aae_clock::AaeTerminating::paper());
    run_interned(core::phase_clock::LeaderlessPhaseClock::default());
    run_native(
        core::partition::PartitionOnly,
        CountConfiguration::uniform(core::state::Role::X, N),
    );
    run_interned(core::composition::Uniformize::new(
        bl::majority::MajorityDownstream::default(),
    ));

    // crates/baselines.
    run_native(
        bl::alistarh::WeakEstimator,
        CountConfiguration::uniform(bl::alistarh::WeakState::initial(), N),
    );
    run_native(
        bl::exact_backup::ExactBackup,
        CountConfiguration::uniform(bl::exact_backup::BackupState::Leader(0), N),
    );
    run_native(
        bl::intro_functions::Doubling,
        CountConfiguration::from_pairs([
            (bl::intro_functions::FnState::X, N / 4),
            (bl::intro_functions::FnState::Q, N - N / 4),
        ]),
    );
    run_native(
        bl::intro_functions::Halving,
        CountConfiguration::from_pairs([
            (bl::intro_functions::FnState::X, N / 2),
            (bl::intro_functions::FnState::Q, N - N / 2),
        ]),
    );
    run_native(
        bl::naive_terminating::FixedCounter { threshold: 40 },
        CountConfiguration::uniform(bl::naive_terminating::FixedState::Counting(0), N),
    );
    run_native(
        bl::naive_terminating::GeometricTimer::default(),
        CountConfiguration::uniform(bl::naive_terminating::GeoState::Fresh, N),
    );
    run_native(
        bl::majority::NonuniformMajority::for_population(N as usize),
        CountConfiguration::from_pairs([
            (bl::majority::NonuniformMajority::input_state(1), N / 3),
            (bl::majority::NonuniformMajority::input_state(0), N - N / 3),
        ]),
    );
    run_interned(bl::exact_leader::ExactLeaderCount::default());
    run_interned(core::composition::Uniformize::new(
        bl::leader_election::CoinTournament::default(),
    ));
}
