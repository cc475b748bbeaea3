//! Cancellation/doubling majority — the representative *nonuniform*
//! downstream protocol.
//!
//! The polylog-time majority protocols the paper cites (\[2, 6, 17, 15, 3\])
//! run `Θ(log n)` synchronized phases and therefore need `⌊log n⌋`
//! pre-loaded into every agent. This module implements the classic
//! cancellation/doubling scheme in two forms:
//!
//! * [`MajorityDownstream`] — as a [`Downstream`] client of the paper's
//!   composition framework: the phase pacing comes from the uniform
//!   leaderless phase clock, so the composed protocol is **uniform**.
//! * [`NonuniformMajority`] — the literature's version with the true
//!   `⌊log n⌋` hardwired, used as the reference the uniformized run must
//!   match.
//!
//! Scheme: agents hold an opinion (0/1) and a strong/weak flag; all start
//! strong. Even stages *cancel* (two strong agents with opposite opinions
//! both go weak — preserving the strong-count difference); odd stages
//! *double* (a strong agent recruits a weak partner to its opinion —
//! roughly doubling both strong counts, hence the difference). After
//! `Θ(log n)` stage pairs the minority's strong agents are extinct w.h.p.
//! and the surviving strong opinion spreads to every agent's display.

use pp_core::composition::Downstream;
use pp_engine::batch::DeterministicCountProtocol;
use pp_engine::count_sim::{CountConfiguration, CountSeededInit};
use pp_engine::rng::SimRng;
use pp_engine::{Protocol, Simulation};

/// Downstream per-agent majority state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MajorityState {
    /// Current opinion (0 or 1).
    pub opinion: u8,
    /// Strong token (participates in cancel/double).
    pub strong: bool,
    /// Displayed output opinion (follows strong agents by epidemic).
    pub display: u8,
}

/// One cancellation/doubling step, shared by both variants. `stage` parity
/// selects the rule; both agents must be in the same stage.
fn majority_step(rec: &mut MajorityState, sen: &mut MajorityState, stage: u64) {
    if stage.is_multiple_of(2) {
        // Cancellation.
        if rec.strong && sen.strong && rec.opinion != sen.opinion {
            rec.strong = false;
            sen.strong = false;
        }
    } else {
        // Doubling.
        if rec.strong && !sen.strong {
            sen.strong = true;
            sen.opinion = rec.opinion;
        } else if sen.strong && !rec.strong {
            rec.strong = true;
            rec.opinion = sen.opinion;
        }
    }
    // Display epidemic: weak agents show the opinion of strong agents.
    if rec.strong {
        rec.display = rec.opinion;
        sen.display = rec.opinion;
    }
    if sen.strong {
        sen.display = sen.opinion;
        rec.display = sen.opinion;
    }
}

/// The uniformizable majority protocol (a [`Downstream`] implementation).
#[derive(Debug, Clone, Copy)]
pub struct MajorityDownstream {
    /// Stages per unit of estimate (stage count = `stage_factor · s`;
    /// default 4: `≈ 2 log n` cancel/double pairs).
    pub stage_factor: u64,
    /// Interactions counted per stage (threshold = `clock_factor · s`;
    /// default 95, as in the main protocol).
    pub clock_factor: u64,
}

impl Default for MajorityDownstream {
    fn default() -> Self {
        Self {
            stage_factor: 4,
            clock_factor: 95,
        }
    }
}

impl Downstream for MajorityDownstream {
    type State = MajorityState;

    fn num_stages(&self, s: u64) -> u64 {
        self.stage_factor * s
    }

    fn stage_threshold(&self, s: u64) -> u64 {
        self.clock_factor * s
    }

    fn fresh(&self, _s: u64, agent_input: u64, _rng: &mut SimRng) -> MajorityState {
        let opinion = (agent_input & 1) as u8;
        MajorityState {
            opinion,
            strong: true,
            display: opinion,
        }
    }

    fn interact(
        &self,
        rec: &mut MajorityState,
        sen: &mut MajorityState,
        rec_stage: u64,
        sen_stage: u64,
        _s: u64,
        _rng: &mut SimRng,
    ) {
        if rec_stage == sen_stage {
            majority_step(rec, sen, rec_stage);
        }
    }

    fn output(&self, state: &MajorityState) -> Option<u64> {
        Some(state.display as u64)
    }
}

/// The nonuniform reference: identical dynamics, but the stage clock uses a
/// hardwired `⌊log n⌋` — the initialization the paper's Figure 1 depicts.
#[derive(Debug, Clone, Copy)]
pub struct NonuniformMajority {
    /// The hardwired `⌊log2 n⌋` (this is what makes it nonuniform).
    pub log_n: u64,
    /// Stage multiplier (same meaning as the uniform variant's).
    pub stage_factor: u64,
    /// Clock multiplier.
    pub clock_factor: u64,
}

impl NonuniformMajority {
    /// The standard configuration for population size `n`.
    pub fn for_population(n: usize) -> Self {
        Self {
            log_n: (n as f64).log2().floor() as u64,
            stage_factor: 4,
            clock_factor: 95,
        }
    }
}

/// Per-agent state of the nonuniform variant: majority state plus its own
/// stage clock fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NonuniformState {
    /// The majority payload.
    pub inner: MajorityState,
    /// Interaction count within the current stage.
    pub count: u64,
    /// Current stage.
    pub stage: u64,
}

impl NonuniformMajority {
    /// The initial state of an agent holding `opinion`.
    pub fn input_state(opinion: u8) -> NonuniformState {
        NonuniformState {
            inner: MajorityState {
                opinion,
                strong: true,
                display: opinion,
            },
            count: 0,
            stage: 0,
        }
    }

    /// One (deterministic) interaction, shared by the agent-level and
    /// count-level representations.
    fn step(&self, rec: &mut NonuniformState, sen: &mut NonuniformState) {
        let k = self.stage_factor * self.log_n;
        let threshold = self.clock_factor * self.log_n.max(1);
        for agent in [&mut *rec, &mut *sen] {
            if agent.stage < k {
                agent.count += 1;
                if agent.count >= threshold {
                    agent.stage += 1;
                    agent.count = 0;
                }
            }
        }
        // Stage epidemic.
        if rec.stage < sen.stage {
            rec.stage = sen.stage;
            rec.count = 0;
        } else if sen.stage < rec.stage {
            sen.stage = rec.stage;
            sen.count = 0;
        }
        if rec.stage == sen.stage {
            majority_step(&mut rec.inner, &mut sen.inner, rec.stage);
        }
    }
}

impl Protocol for NonuniformMajority {
    type State = NonuniformState;

    fn initial_state(&self) -> NonuniformState {
        Self::input_state(0)
    }

    fn interact(&self, rec: &mut NonuniformState, sen: &mut NonuniformState, _rng: &mut SimRng) {
        self.step(rec, sen);
    }
}

impl DeterministicCountProtocol for NonuniformMajority {
    type State = NonuniformState;

    fn transition_det(
        &self,
        mut rec: NonuniformState,
        mut sen: NonuniformState,
    ) -> (NonuniformState, NonuniformState) {
        self.step(&mut rec, &mut sen);
        (rec, sen)
    }

    fn prefers_batching(&self) -> bool {
        // Every interaction advances both agents' per-stage interaction
        // counters, so the occupied state space is Theta(clock threshold)
        // — too wide for O(k^2)-per-batch bulk application to pay off.
        false
    }
}

/// The nonuniform majority together with its input split: `ones` of the `n`
/// agents start with opinion 1. This is the [`CountSeededInit`] analogue of
/// planting inputs agent by agent, so majority splits run on the count
/// engines directly.
#[derive(Debug, Clone, Copy)]
pub struct SeededNonuniformMajority {
    /// The stage-clocked majority dynamics.
    pub protocol: NonuniformMajority,
    /// How many agents start with opinion 1.
    pub ones: u64,
}

impl DeterministicCountProtocol for SeededNonuniformMajority {
    type State = NonuniformState;

    fn transition_det(
        &self,
        rec: NonuniformState,
        sen: NonuniformState,
    ) -> (NonuniformState, NonuniformState) {
        self.protocol.transition_det(rec, sen)
    }

    fn prefers_batching(&self) -> bool {
        DeterministicCountProtocol::prefers_batching(&self.protocol)
    }
}

impl CountSeededInit for SeededNonuniformMajority {
    fn initial_config(&self, n: u64) -> CountConfiguration<NonuniformState> {
        assert!(
            self.ones <= n,
            "cannot seed {} ones into {n} agents",
            self.ones
        );
        CountConfiguration::from_pairs(
            [
                (NonuniformMajority::input_state(1), self.ones),
                (NonuniformMajority::input_state(0), n - self.ones),
            ]
            .into_iter()
            .filter(|&(_, c)| c > 0),
        )
    }
}

/// Result of a majority run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MajorityOutcome {
    /// The common displayed opinion (`None` if agents still disagree).
    pub winner: Option<u8>,
    /// Parallel time at convergence (all stages done, displays agree).
    pub time: f64,
    /// Whether the run converged within the budget.
    pub converged: bool,
}

/// Runs the **uniformized** majority via the paper's composition scheme:
/// `ones` of the `n` agents start with opinion 1.
pub fn run_uniform_majority(n: usize, ones: usize, seed: u64, max_time: f64) -> MajorityOutcome {
    assert!(ones <= n);
    let mut sim =
        pp_core::composition::composed_population(MajorityDownstream::default(), n, seed, |i| {
            u64::from(i < ones)
        });
    let out = sim.run_until(
        |view| {
            let k = |c: &pp_core::composition::ComposedState<MajorityState>| {
                MajorityDownstream::default().num_stages(c.estimate)
            };
            view.iter().all(|(c, _)| c.stage >= k(c))
                && view
                    .windows(2)
                    .all(|w| w[0].0.inner.display == w[1].0.inner.display)
        },
        max_time,
    );
    let winner = if out.converged {
        sim.view().first().map(|(c, _)| c.inner.display)
    } else {
        None
    };
    MajorityOutcome {
        winner,
        time: out.time,
        converged: out.converged,
    }
}

/// Runs the **nonuniform** reference with hardwired `⌊log n⌋` on the
/// unified count representation (the count engines with a seeded input
/// split).
pub fn run_nonuniform_majority(n: usize, ones: usize, seed: u64, max_time: f64) -> MajorityOutcome {
    assert!(ones <= n);
    let protocol = NonuniformMajority::for_population(n);
    let k = protocol.stage_factor * protocol.log_n;
    let seeded = SeededNonuniformMajority {
        protocol,
        ones: ones as u64,
    };
    let (out, sim) = Simulation::count_builder(seeded)
        .size(n as u64)
        .init_seeded()
        .seed(seed)
        .max_time(max_time)
        .until(move |view: &[(NonuniformState, u64)]| {
            let mut display = None;
            view.iter().all(|(s, _)| {
                s.stage >= k && *display.get_or_insert(s.inner.display) == s.inner.display
            })
        })
        .run();
    let winner = if out.converged {
        sim.view().first().map(|(s, _)| s.inner.display)
    } else {
        None
    };
    MajorityOutcome {
        winner,
        time: out.time,
        converged: out.converged,
    }
}

/// Runs the nonuniform reference on the per-agent simulator — retained for
/// the statistical-equivalence suite, which holds the count-based
/// [`run_nonuniform_majority`] to the same distribution.
pub fn run_nonuniform_majority_agentwise(
    n: usize,
    ones: usize,
    seed: u64,
    max_time: f64,
) -> MajorityOutcome {
    assert!(ones <= n);
    let protocol = NonuniformMajority::for_population(n);
    let k = protocol.stage_factor * protocol.log_n;
    let (out, sim) = Simulation::builder(protocol)
        .size(n as u64)
        .seed(seed)
        .init_with(move |i, _| NonuniformMajority::input_state(u8::from(i < ones)))
        .max_time(max_time)
        .until(move |view: &[(NonuniformState, u64)]| {
            view.iter().all(|(c, _)| c.stage >= k)
                && view
                    .windows(2)
                    .all(|w| w[0].0.inner.display == w[1].0.inner.display)
        })
        .run();
    let winner = if out.converged {
        sim.view().first().map(|(c, _)| c.inner.display)
    } else {
        None
    };
    MajorityOutcome {
        winner,
        time: out.time,
        converged: out.converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancellation_preserves_difference() {
        let mut a = MajorityState {
            opinion: 0,
            strong: true,
            display: 0,
        };
        let mut b = MajorityState {
            opinion: 1,
            strong: true,
            display: 1,
        };
        majority_step(&mut a, &mut b, 0);
        assert!(!a.strong && !b.strong, "opposite strong pair cancels");
        let mut c = MajorityState {
            opinion: 1,
            strong: true,
            display: 1,
        };
        let mut d = MajorityState {
            opinion: 1,
            strong: true,
            display: 1,
        };
        majority_step(&mut c, &mut d, 0);
        assert!(c.strong && d.strong, "same-opinion pair survives");
    }

    #[test]
    fn doubling_recruits_weak() {
        let mut strong = MajorityState {
            opinion: 1,
            strong: true,
            display: 1,
        };
        let mut weak = MajorityState {
            opinion: 0,
            strong: false,
            display: 0,
        };
        majority_step(&mut strong, &mut weak, 1);
        assert!(weak.strong);
        assert_eq!(weak.opinion, 1);
    }

    #[test]
    fn nonuniform_majority_correct_with_gap() {
        let n = 300;
        let out = run_nonuniform_majority(n, 190, 5, 1e6);
        assert!(out.converged, "nonuniform run did not converge");
        assert_eq!(out.winner, Some(1), "majority is 1 (190 of 300)");
        let out0 = run_nonuniform_majority(n, 110, 6, 1e6);
        assert!(out0.converged);
        assert_eq!(out0.winner, Some(0), "majority is 0 (110 of 300)");
    }

    #[test]
    fn uniformized_majority_matches_nonuniform() {
        let n = 300;
        let uni = run_uniform_majority(n, 200, 7, 3e6);
        assert!(uni.converged, "uniformized run did not converge");
        assert_eq!(uni.winner, Some(1));
        let uni0 = run_uniform_majority(n, 100, 8, 3e6);
        assert!(uni0.converged);
        assert_eq!(uni0.winner, Some(0));
    }

    #[test]
    fn uniform_variant_never_reads_n() {
        // Structural check: MajorityDownstream's parameters depend only on
        // the estimate s that arrives at run time.
        let d = MajorityDownstream::default();
        assert_eq!(d.num_stages(10), 40);
        assert_eq!(d.stage_threshold(10), 950);
    }
}
