//! The max-geometric weak estimator of Alistarh et al. \[2\].
//!
//! Every agent samples one geometric(1/2) random variable and the population
//! propagates the maximum by epidemic. The settled maximum `k` satisfies
//! `log n − log ln n ≤ k ≤ 2 log n` w.h.p. (Corollary A.2 in the paper's
//! random-bit model; the original \[2\] analysis with synthetic coins gives
//! the weaker `½ log n ≤ k ≤ 9 log n`). Converges in `O(log n)` time.
//!
//! This is the paper's *baseline*: constant multiplicative error versus the
//! main protocol's constant additive error — and also its first stage
//! (`logSize2`).
//!
//! Implemented both as a [`CountProtocol`] over the unified count
//! representation and as a per-agent [`Protocol`] with the same transition.
//! The occupied state space is only `O(log n)` values, so at millions of
//! agents the protocol runs on the count engines. It is *randomized* (the
//! first interaction of each agent draws a geometric), yet still batches:
//! once both participants have sampled, the pair's outcome is the
//! deterministic max-merge, which the batched engine bulk-applies; only the
//! short sampling prefix (unbounded geometric support) falls back to
//! per-interaction sampling. This is the repository's showcase that
//! randomized paper protocols reach batched speed — see `bench_batch`.
//! Below the measured crossover (2¹⁸ agents) [`weak_estimate`] runs the
//! per-agent engine instead, which is faster there: see `AGENT_MAX_N`.

use pp_engine::count_sim::{CountProtocol, Outcomes};
use pp_engine::rng::{geometric_half, SimRng};
use pp_engine::{Protocol, SimMode, Simulation};

/// Per-agent state: the sampled/adopted maximum (0 = not yet sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeakState {
    /// Current estimate: own sample merged with every partner's.
    pub value: u64,
    /// Whether this agent has sampled yet (sampling happens on the agent's
    /// first interaction, keeping the initial state deterministic).
    pub sampled: bool,
}

impl WeakState {
    /// The common initial state: unsampled, value 0.
    pub fn initial() -> Self {
        Self {
            value: 0,
            sampled: false,
        }
    }
}

/// The weak (multiplicative-error) estimator protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeakEstimator;

impl WeakEstimator {
    /// Agreement over a decoded `(state, count)` view (the [`Simulation`]
    /// observation surface): a single occupied state, and it has sampled.
    /// The shared convergence predicate for [`weak_estimate`], the
    /// equivalence tests, and the `bench_batch` completion workload.
    pub fn agreed_view(view: &[(WeakState, u64)]) -> bool {
        view.len() == 1 && view.iter().all(|(s, _)| s.sampled)
    }
}

impl CountProtocol for WeakEstimator {
    type State = WeakState;

    fn transition(
        &self,
        mut rec: WeakState,
        mut sen: WeakState,
        rng: &mut SimRng,
    ) -> (WeakState, WeakState) {
        for agent in [&mut rec, &mut sen] {
            if !agent.sampled {
                agent.sampled = true;
                agent.value = agent.value.max(geometric_half(rng));
            }
        }
        let m = rec.value.max(sen.value);
        rec.value = m;
        sen.value = m;
        (rec, sen)
    }

    fn outcomes(&self, rec: WeakState, sen: WeakState) -> Option<Outcomes<WeakState>> {
        if rec.sampled && sen.sampled {
            // Both sampled: the pair is a deterministic max-merge.
            let merged = WeakState {
                value: rec.value.max(sen.value),
                sampled: true,
            };
            Some(Outcomes::Deterministic(merged, merged))
        } else {
            // Geometric sampling has unbounded support — not enumerable.
            None
        }
    }

    fn prefers_batching(&self) -> bool {
        // Occupied support is O(log n) values; only the sampling prefix is
        // unenumerable, so batching wins at scale.
        true
    }
}

impl Protocol for WeakEstimator {
    type State = WeakState;

    fn initial_state(&self) -> WeakState {
        WeakState::initial()
    }

    fn interact(&self, rec: &mut WeakState, sen: &mut WeakState, rng: &mut SimRng) {
        (*rec, *sen) = self.transition(*rec, *sen, rng);
    }
}

/// Outcome of one weak-estimation run.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WeakOutcome {
    /// The settled maximum `k`.
    pub estimate: u64,
    /// Parallel time until all agents agreed on the final maximum.
    pub time: f64,
}

/// Largest population [`weak_estimate`] runs on the per-agent engine; above
/// it the count engines (batched) take over.
///
/// Set from the measured crossover: median ns per interaction of
/// `weak_estimate`'s run (build, `check_every = n`,
/// [`WeakEstimator::agreed_view`], to agreement), count engines under
/// `EngineMode::Auto` vs `SimMode::Agent`, same seeds, alternating, 3–4 s
/// of trials per cell on a 2-core x86-64 host; each cell is the median
/// over its repeats (two, five at 2¹⁷–2¹⁹). The last size where Agent is
/// at least as fast is 2¹⁸: its five repeats read
/// 24.9/27.7/22.0/17.6/24.9 vs 25.6/23.9/20.9/17.8/17.0, Agent ahead in
/// three; at 2¹⁹, 22.6/21.7/15.0/14.4/14.9 vs 23.7/28.0/20.1/20.3/19.7,
/// count ahead in all five.
///
/// | n | count Auto | Agent |
/// |---|---|---|
/// | 10³ | 58.1 | 14.9 |
/// | 10⁴ | 57.8 | 13.4 |
/// | 2¹⁵ | 39.0 | 15.0 |
/// | 2¹⁶ | 34.4 | 16.1 |
/// | 2¹⁷ | 26.3 | 21.5 |
/// | 2¹⁸ | 24.9 | 20.9 |
/// | 2¹⁹ | 15.0 | 20.3 |
/// | 2²⁰ | 14.9 | 29.8 |
const AGENT_MAX_N: u64 = 1 << 18;

/// Runs the weak estimator to agreement: on the per-agent engine up to
/// `AGENT_MAX_N` (2¹⁸) agents, where its array writes beat the count
/// engines' per-interaction bookkeeping, and on the count engines (batched)
/// above that measured crossover. Both check agreement every `n`
/// interactions and report the largest value in the final view.
///
/// ```
/// use pp_baselines::alistarh::weak_estimate;
///
/// let out = weak_estimate(200, 7);
/// // The settled max of geometrics is a constant-factor estimate of log n.
/// assert!(out.estimate >= 1);
/// assert!((out.estimate as f64) <= 3.0 * 200f64.log2());
/// ```
pub fn weak_estimate(n: usize, seed: u64) -> WeakOutcome {
    let n = n as u64;
    let (out, sim) = if n <= AGENT_MAX_N {
        Simulation::builder(WeakEstimator)
            .mode(SimMode::Agent)
            .size(n)
            .seed(seed)
            .check_every(n.max(2))
            .until(WeakEstimator::agreed_view)
            .run()
    } else {
        Simulation::count_builder(WeakEstimator)
            .size(n)
            .uniform(WeakState::initial())
            .seed(seed)
            .check_every(n.max(2))
            .until(WeakEstimator::agreed_view)
            .run()
    };
    debug_assert!(out.converged);
    let estimate = sim.view().iter().map(|(s, _)| s.value).max().unwrap_or(0);
    WeakOutcome {
        estimate,
        time: out.time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::count_sim::CountConfiguration;
    use pp_engine::rng::derive_seed;
    use pp_engine::{ConfigSim, EngineMode};

    #[test]
    fn estimate_in_multiplicative_band() {
        for n in [100usize, 1000, 5000] {
            let logn = (n as f64).log2();
            let lo = logn - (n as f64).ln().log2() - 1.0;
            let hi = 2.0 * logn + 2.0;
            let mut in_band = 0;
            let trials = 10;
            for seed in 0..trials {
                let out = weak_estimate(n, seed);
                let k = out.estimate as f64;
                if k >= lo && k <= hi {
                    in_band += 1;
                }
            }
            assert!(
                in_band >= trials - 1,
                "n={n}: only {in_band}/{trials} in [{lo:.1}, {hi:.1}]"
            );
        }
    }

    #[test]
    fn converges_in_logarithmic_time() {
        // O(log n) time: ratio of times between n=4000 and n=100 should be
        // about ln(4000)/ln(100) ≈ 1.8, certainly below 4.
        let t100: f64 = (0..8).map(|s| weak_estimate(100, 50 + s).time).sum::<f64>() / 8.0;
        let t4000: f64 = (0..8)
            .map(|s| weak_estimate(4000, 60 + s).time)
            .sum::<f64>()
            / 8.0;
        assert!(t4000 / t100 < 4.0, "t4000 {t4000} vs t100 {t100}");
    }

    #[test]
    fn multiplicative_vs_additive_error_grows() {
        // The point of the paper: the weak estimator's error grows with n
        // (multiplicative), so its |k − log n| deviation at large n is
        // typically larger than the main protocol's constant band. Just
        // check the estimate is an integer ≥ 1 and the protocol is
        // deterministic per seed.
        let a = weak_estimate(500, 9);
        let b = weak_estimate(500, 9);
        assert_eq!(a.estimate, b.estimate);
        assert!(a.estimate >= 1);
    }

    #[test]
    fn batched_and_sequential_estimates_agree_statistically() {
        // The mixed sampled/deterministic law structure must not bias the
        // estimate, and neither may the engine `weak_estimate` picks:
        // compare the sequential, batched and per-agent estimate means.
        let n = 30_000u64;
        let trials = 40;
        let mean = |mode: SimMode, stream: u64| -> f64 {
            (0..trials)
                .map(|t| {
                    let seed = derive_seed(stream, t);
                    let (out, sim) = match mode {
                        SimMode::Agent => Simulation::builder(WeakEstimator)
                            .mode(mode)
                            .size(n)
                            .seed(seed)
                            .until(WeakEstimator::agreed_view)
                            .run(),
                        SimMode::Count(mode) => Simulation::count_builder(WeakEstimator)
                            .size(n)
                            .uniform(WeakState::initial())
                            .seed(seed)
                            .mode(mode)
                            .until(WeakEstimator::agreed_view)
                            .run(),
                    };
                    assert!(out.converged);
                    sim.view().iter().map(|(s, _)| s.value).max().unwrap() as f64
                })
                .sum::<f64>()
                / trials as f64
        };
        let m_seq = mean(EngineMode::Sequential.into(), 0x11);
        let m_bat = mean(EngineMode::Batched.into(), 0x12);
        let m_agent = mean(SimMode::Agent, 0x13);
        // Max-of-geometrics has σ ≈ 1.9; means over 40 trials within ~1.2.
        let means = [
            ("sequential", m_seq),
            ("batched", m_bat),
            ("agent", m_agent),
        ];
        for (i, (a, ma)) in means.iter().enumerate() {
            for (b, mb) in &means[i + 1..] {
                assert!(
                    (ma - mb).abs() < 1.2,
                    "estimate means diverge: {a} {ma} vs {b} {mb}"
                );
            }
        }
    }

    #[test]
    fn facade_batches_at_scale() {
        let config = CountConfiguration::uniform(WeakState::initial(), 100_000);
        let sim = ConfigSim::with_mode(WeakEstimator, config, 1, EngineMode::Auto);
        assert!(sim.is_batched(), "weak estimator should batch at n = 10^5");
    }
}
