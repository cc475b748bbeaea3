//! Terminating size estimation with an initial leader (§3.4, Theorem 3.13).
//!
//! Theorem 4.1 forbids high-probability termination for uniform protocols
//! whose initial configurations are dense — but a single initial leader
//! breaks density, and then termination *is* possible. The leader runs the
//! main protocol like everyone else, plus a leader-local clock: it counts
//! its own interactions against a threshold `Θ(logSize2²)`, sized so that
//! the main protocol has converged w.h.p. before the count is reached
//! (the main protocol runs `5·logSize2` epochs of `95·logSize2` interactions
//! each, i.e. the leader witnesses `≈ 475·logSize2²` interactions before
//! convergence — the default multiplier 2000 leaves a > 4× margin). When the
//! clock fires, the leader raises a `terminated` flag that spreads by
//! epidemic and freezes every agent it reaches.
//!
//! The paper drives the leader's clock with the Angluin et al. \[9\] phase
//! clock; we use the leader's own interaction counter, which concentrates by
//! the same Chernoff argument (Lemma 3.6 applied to a single agent — no
//! union bound needed) and keeps the same `O(log² n)` time and `O(log⁴ n)`
//! state bounds. The substitution is recorded in DESIGN.md.
//!
//! The leader resets its clock whenever its `logSize2` is restarted, so the
//! count that ultimately fires is paced by the settled estimate.

use pp_engine::rng::SimRng;
use pp_engine::simulation::SimMode;
use pp_engine::{EngineMode, Protocol, Simulation};

use crate::log_size::LogSizeEstimation;
use crate::phase_clock::LeaderClock;
use crate::state::MainState;

/// Per-agent state of the terminating variant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaderState {
    /// Embedded main-protocol state.
    pub main: MainState,
    /// Whether this agent is the (unique) initial leader.
    pub is_leader: bool,
    /// The leader's interaction clock (unused by non-leaders).
    pub clock: LeaderClock,
    /// The termination flag (spread by epidemic; freezes the agent).
    pub terminated: bool,
}

impl LeaderState {
    /// A non-leader initial state.
    pub fn initial() -> Self {
        Self {
            main: MainState::initial(),
            is_leader: false,
            clock: LeaderClock::new(),
            terminated: false,
        }
    }

    /// The leader's initial state.
    pub fn leader() -> Self {
        Self {
            is_leader: true,
            ..Self::initial()
        }
    }
}

/// The terminating protocol of Theorem 3.13.
#[derive(Debug, Clone, Copy)]
pub struct LeaderTerminating {
    /// The embedded estimator.
    pub fast: LogSizeEstimation,
    /// Termination threshold as a multiple of `logSize2²` (default 2000).
    pub termination_multiplier: u64,
}

impl Default for LeaderTerminating {
    fn default() -> Self {
        Self {
            fast: LogSizeEstimation::paper(),
            termination_multiplier: 2000,
        }
    }
}

impl LeaderTerminating {
    /// The paper's configuration (with our counter-based leader clock).
    pub fn paper() -> Self {
        Self::default()
    }

    fn threshold(&self, s: &MainState) -> u64 {
        self.termination_multiplier * s.log_size2 * s.log_size2
    }
}

impl Protocol for LeaderTerminating {
    type State = LeaderState;

    fn initial_state(&self) -> LeaderState {
        LeaderState::initial()
    }

    fn interact(&self, rec: &mut LeaderState, sen: &mut LeaderState, rng: &mut SimRng) {
        // Termination epidemic: a terminated agent freezes its partner too.
        if rec.terminated || sen.terminated {
            rec.terminated = true;
            sen.terminated = true;
            return;
        }
        let rec_ls_before = rec.main.log_size2;
        let sen_ls_before = sen.main.log_size2;
        self.fast.interact(&mut rec.main, &mut sen.main, rng);
        for (agent, before) in [(&mut *rec, rec_ls_before), (&mut *sen, sen_ls_before)] {
            if agent.is_leader {
                if agent.main.log_size2 != before {
                    // The estimate improved: the previous pacing was wrong.
                    agent.clock.reset();
                }
                agent.clock.tick(self.threshold(&agent.main));
                if agent.clock.fired {
                    agent.terminated = true;
                }
            }
        }
        if rec.terminated || sen.terminated {
            rec.terminated = true;
            sen.terminated = true;
        }
    }
}

/// Outcome of a terminating run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TerminatingOutcome {
    /// Parallel time at which the leader fired the termination signal.
    pub termination_time: f64,
    /// Parallel time by which every agent was frozen.
    pub all_frozen_time: f64,
    /// The estimate held by the most agents at termination (`None` if the
    /// run's main protocol had not produced outputs yet — a failure).
    pub output: Option<u64>,
    /// Fraction of agents whose output was present and equal to `output` at
    /// the freeze.
    pub agreement: f64,
    /// Whether the signal fired within the budget.
    pub terminated: bool,
}

/// Runs the terminating protocol: population of `n` with one planted leader.
///
/// Runs on the unified count engine ([`EngineMode::Auto`]): the planted
/// leader becomes a *non-uniform initial configuration* (one
/// [`LeaderState::leader`] agent among `n - 1` followers), and the
/// interner GC keeps the state table at live-support size even though the
/// per-interaction counters inside the states churn out fresh records
/// constantly — the frozen termination epidemic additionally rides the
/// interner's null fast path. Use [`run_terminating_agentwise`] to pin
/// the per-agent engine for cross-engine validation.
pub fn run_terminating(n: usize, seed: u64, max_time: f64) -> TerminatingOutcome {
    terminating_in_mode(n, seed, max_time, EngineMode::Auto.into())
}

/// [`run_terminating`] pinned to the per-agent engine: one record per
/// agent, no interning. The statistical-equivalence suite holds this and
/// the count-engine default to the same law; protocol-property tests that
/// don't care about engine selection also use it, as the per-agent array
/// is faster at the small populations they run.
pub fn run_terminating_agentwise(n: usize, seed: u64, max_time: f64) -> TerminatingOutcome {
    terminating_in_mode(n, seed, max_time, SimMode::Agent)
}

/// The one builder invocation behind every terminating run: two predicate
/// phases ("the signal fired" → "everyone froze") over one absolute time
/// budget, differing only in engine mode. Public as the registry's
/// engine-selection hook.
pub fn terminating_in_mode(
    n: usize,
    seed: u64,
    max_time: f64,
    mode: SimMode,
) -> TerminatingOutcome {
    let mut sim = Simulation::builder(LeaderTerminating::paper())
        .size(n as u64)
        .seed(seed)
        .mode(mode)
        .init_planted([(LeaderState::leader(), 1)])
        .build();
    let fired = sim.run_until(|view| view.iter().any(|(s, _)| s.terminated), max_time);
    if !fired.converged {
        return TerminatingOutcome {
            termination_time: fired.time,
            all_frozen_time: fired.time,
            output: None,
            agreement: 0.0,
            terminated: false,
        };
    }
    let termination_time = fired.time;
    let frozen = sim.run_until(|view| view.iter().all(|(s, _)| s.terminated), max_time);
    // Majority output among agents (count-weighted).
    let mut counts = std::collections::BTreeMap::new();
    for (s, k) in sim.view() {
        if let Some(o) = s.main.output {
            *counts.entry(o).or_insert(0u64) += k;
        }
    }
    finish_outcome(counts, n, termination_time, frozen.time)
}

fn finish_outcome(
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leader_terminates_after_convergence() {
        // The default engine (count + interner GC) end to end.
        let n = 100;
        let out = run_terminating(n, 31, 5_000_000.0);
        assert!(out.terminated, "leader never fired");
        let k = out.output.expect("outputs should exist at termination");
        let logn = (n as f64).log2();
        assert!(
            (k as f64 - logn).abs() <= 5.7,
            "estimate {k} outside band around {logn}"
        );
        assert!(
            out.agreement > 0.9,
            "only {} of agents agreed at termination",
            out.agreement
        );
        assert!(out.all_frozen_time >= out.termination_time);
    }

    #[test]
    fn termination_time_exceeds_convergence_time() {
        // The whole point: the signal must not fire before the estimate has
        // converged. Compare with the non-terminating protocol's convergence
        // time on the same n.
        // Agent engine: a protocol-property check, and the faster engine
        // at this population size (cross-engine equivalence is covered by
        // `tests/unified_equivalence.rs`).
        let n = 120;
        let conv = crate::log_size::estimate_agentwise(
            crate::log_size::LogSizeEstimation::paper(),
            n,
            77,
            None,
        );
        assert!(conv.converged);
        let term = run_terminating_agentwise(n, 78, 5_000_000.0);
        assert!(term.terminated);
        assert!(
            term.termination_time > conv.time,
            "terminated at {} before typical convergence {}",
            term.termination_time,
            conv.time
        );
    }

    #[test]
    fn no_leader_means_no_termination() {
        // Without the planted leader nobody counts, so the signal never
        // fires — the protocol is exactly the converging one.
        let (out, _) = Simulation::builder(LeaderTerminating::paper())
            .size(100)
            .seed(5)
            .max_time(2_000.0)
            .until(|view: &[(LeaderState, u64)]| view.iter().any(|(a, _)| a.terminated))
            .run();
        assert!(!out.converged);
    }

    #[test]
    fn termination_epidemic_freezes_everyone() {
        // Agent engine (protocol property; see above).
        let out = run_terminating_agentwise(100, 41, 5_000_000.0);
        assert!(out.terminated);
        // Freeze should complete within ~O(log n) time of the signal.
        let spread = out.all_frozen_time - out.termination_time;
        assert!(spread < 100.0, "termination epidemic took {spread}");
    }

    #[test]
    fn frozen_pair_stays_frozen() {
        let p = LeaderTerminating::paper();
        let mut a = LeaderState::initial();
        a.terminated = true;
        a.main.epoch = 3;
        let mut b = LeaderState::initial();
        b.main.epoch = 7;
        let mut rng = pp_engine::rng::rng_from_seed(0);
        p.interact(&mut a, &mut b, &mut rng);
        assert!(b.terminated, "termination must spread");
        assert_eq!(a.main.epoch, 3, "frozen state must not change");
        assert_eq!(b.main.epoch, 7, "frozen state must not change");
    }
}
