//! Naive terminating protocols — the demonstrators Theorem 4.1 dooms.
//!
//! A uniform protocol starting from a dense configuration cannot delay a
//! termination signal beyond `O(1)` time (Theorem 4.1). These protocols try
//! anyway, in the two natural ways, and the termination experiments show
//! their signals fire at essentially the same parallel time for every `n`:
//!
//! * [`FixedCounter`] — each agent counts its own interactions to a fixed
//!   constant `c`; the *first* agent to reach `c` raises the signal. The
//!   minimum of `n` i.i.d. negative-binomial times concentrates at a
//!   constant (≈ `c/2` time with a left tail), so the signal time is `O(1)`
//!   in `n` — before any `ω(1)`-time task could have finished.
//! * [`GeometricTimer`] — each agent samples a geometric target first and
//!   counts to it: uniform (no constant depends on `n`), but the minimum
//!   sampled target is 1 w.h.p., so the signal fires in `O(1)` time too.
//!   This is exactly the failure mode that makes the main protocol
//!   non-terminating: *some* agent's local randomness always looks
//!   converged immediately.
//!
//! Both live on the unified count representation so the experiments scale
//! to `n = 10^6`: [`FixedCounter`] as a [`DeterministicCountProtocol`], and
//! [`GeometricTimer`] as a randomized [`CountProtocol`] whose capped
//! geometric sampling is exposed as an explicit finite outcome law
//! ([`CountProtocol::outcomes`]) — the batched engine splits whole batches
//! of fresh-agent interactions over it with single multinomial draws.

use pp_engine::batch::DeterministicCountProtocol;
use pp_engine::count_sim::{CountProtocol, Outcomes};
use pp_engine::rng::SimRng;
use pp_engine::{count_of, Simulation};

/// State of the fixed-threshold counter: counting or terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FixedState {
    /// Counting interactions (value so far).
    Counting(u32),
    /// Signal raised (spreads by epidemic).
    Terminated,
}

/// The fixed-threshold terminating counter.
#[derive(Debug, Clone, Copy)]
pub struct FixedCounter {
    /// The hardwired count each agent waits for.
    pub threshold: u32,
}

impl DeterministicCountProtocol for FixedCounter {
    type State = FixedState;

    fn transition_det(&self, rec: FixedState, sen: FixedState) -> (FixedState, FixedState) {
        use FixedState::*;
        if rec == Terminated || sen == Terminated {
            return (Terminated, Terminated);
        }
        let bump = |s: FixedState| match s {
            Counting(k) if k + 1 >= self.threshold => Terminated,
            Counting(k) => Counting(k + 1),
            Terminated => Terminated,
        };
        (bump(rec), bump(sen))
    }
}

/// State of the geometric-target timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GeoState {
    /// Not yet sampled a target.
    Fresh,
    /// Counting toward `target` with `count` so far.
    Counting {
        /// Sampled geometric target (capped for a bounded state space).
        target: u16,
        /// Interactions counted so far.
        count: u16,
    },
    /// Signal raised.
    Terminated,
}

/// The geometric-target terminating timer: uniform, still doomed.
#[derive(Debug, Clone, Copy)]
pub struct GeometricTimer {
    /// Multiplier applied to the sampled geometric (larger targets delay
    /// the *typical* agent but not the population minimum).
    pub scale: u16,
}

impl Default for GeometricTimer {
    fn default() -> Self {
        Self { scale: 10 }
    }
}

impl GeometricTimer {
    /// The capped-geometric target distribution an agent samples on its
    /// first interaction: `target = min(G, 32)·scale` with `G ~ geometric(½)`,
    /// so `P(k·scale) = 2^{-k}` for `k < 32` and the cap absorbs the tail.
    fn fresh_outcomes(&self) -> Vec<(GeoState, f64)> {
        (1u32..=32)
            .map(|k| {
                let p = if k < 32 {
                    0.5f64.powi(k as i32)
                } else {
                    0.5f64.powi(31)
                };
                (
                    GeoState::Counting {
                        target: k as u16 * self.scale,
                        count: 1,
                    },
                    p,
                )
            })
            .collect()
    }

    /// The deterministic bump of a non-`Fresh`, non-terminated state.
    fn bump_det(s: GeoState) -> GeoState {
        match s {
            GeoState::Counting { target, count } => {
                if count + 1 >= target {
                    GeoState::Terminated
                } else {
                    GeoState::Counting {
                        target,
                        count: count + 1,
                    }
                }
            }
            other => other,
        }
    }
}

impl CountProtocol for GeometricTimer {
    type State = GeoState;

    fn outcomes(&self, rec: GeoState, sen: GeoState) -> Option<Outcomes<GeoState>> {
        use GeoState::*;
        if rec == Terminated || sen == Terminated {
            return Some(Outcomes::Deterministic(Terminated, Terminated));
        }
        match (rec, sen) {
            // Both sampling at once: a 32×32 product law — leave it to the
            // per-interaction fallback rather than enumerate 1024 outcomes.
            (Fresh, Fresh) => None,
            (Fresh, s) => {
                let bumped = Self::bump_det(s);
                Some(Outcomes::Random(
                    self.fresh_outcomes()
                        .into_iter()
                        .map(|(r, p)| (r, bumped, p))
                        .collect(),
                ))
            }
            (r, Fresh) => {
                let bumped = Self::bump_det(r);
                Some(Outcomes::Random(
                    self.fresh_outcomes()
                        .into_iter()
                        .map(|(s, p)| (bumped, s, p))
                        .collect(),
                ))
            }
            (r, s) => Some(Outcomes::Deterministic(
                Self::bump_det(r),
                Self::bump_det(s),
            )),
        }
    }

    fn transition(&self, rec: GeoState, sen: GeoState, rng: &mut SimRng) -> (GeoState, GeoState) {
        use GeoState::*;
        if rec == Terminated || sen == Terminated {
            return (Terminated, Terminated);
        }
        let mut bump = |s: GeoState| match s {
            Fresh => {
                let g = pp_engine::rng::geometric_half(rng).min(32) as u16;
                Counting {
                    target: g * self.scale,
                    count: 1,
                }
            }
            Counting { target, count } => {
                if count + 1 >= target {
                    Terminated
                } else {
                    Counting {
                        target,
                        count: count + 1,
                    }
                }
            }
            Terminated => Terminated,
        };
        (bump(rec), bump(sen))
    }
}

/// Time at which the first termination signal appears, for the fixed
/// counter, on a population of size `n`.
pub fn fixed_signal_time(n: u64, threshold: u32, seed: u64) -> f64 {
    let (out, _) = Simulation::count_builder(FixedCounter { threshold })
        .size(n)
        .uniform(FixedState::Counting(0))
        .seed(seed)
        .check_every((n / 100).max(1))
        .until(|view| count_of(view, &FixedState::Terminated) > 0)
        .run();
    debug_assert!(out.converged);
    out.time
}

/// Time at which the first termination signal appears, for the geometric
/// timer.
pub fn geometric_signal_time(n: u64, scale: u16, seed: u64) -> f64 {
    let (out, _) = Simulation::count_builder(GeometricTimer { scale })
        .size(n)
        .uniform(GeoState::Fresh)
        .seed(seed)
        .check_every((n / 100).max(1))
        .until(|view| count_of(view, &GeoState::Terminated) > 0)
        .run();
    debug_assert!(out.converged);
    out.time
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::count_sim::CountConfiguration;
    use pp_engine::{ConfigSim, EngineMode};

    use pp_analysis::stats::Summary;

    #[test]
    fn fixed_signal_time_is_constant_in_n() {
        // Theorem 4.1's prediction: same threshold, wildly different n,
        // essentially the same signal time.
        let threshold = 40;
        let times: Vec<f64> = [500u64, 5_000, 50_000]
            .iter()
            .enumerate()
            .map(|(i, &n)| fixed_signal_time(n, threshold, 10 + i as u64))
            .collect();
        let s = Summary::of(&times);
        assert!(
            s.max / s.min < 2.0,
            "signal times {times:?} vary too much with n"
        );
        // And they sit near threshold/2 (each agent gets ~2 interactions per
        // unit time; the *minimum* over agents is below the mean).
        assert!(s.max < threshold as f64, "{times:?}");
    }

    #[test]
    fn geometric_signal_fires_almost_immediately() {
        // Min of n geometric targets is 1·scale w.h.p.: the signal fires
        // within a few multiples of scale/2 time units, independent of n.
        for n in [1_000u64, 100_000] {
            let t = geometric_signal_time(n, 10, n);
            assert!(t < 20.0, "n={n}: signal at {t}, expected O(1)");
        }
    }

    #[test]
    fn termination_spreads_after_signal() {
        let (out, _) = Simulation::count_builder(FixedCounter { threshold: 20 })
            .size(1000)
            .uniform(FixedState::Counting(0))
            .seed(3)
            .check_every(100)
            .until(|view| count_of(view, &FixedState::Terminated) == 1000)
            .run();
        assert!(out.converged);
    }

    #[test]
    fn terminated_pair_is_absorbing() {
        let p = FixedCounter { threshold: 5 };
        let (a, b) = p.transition_det(FixedState::Terminated, FixedState::Counting(0));
        assert_eq!(a, FixedState::Terminated);
        assert_eq!(b, FixedState::Terminated);
    }

    #[test]
    fn geometric_timer_state_space_is_bounded() {
        // Targets cap at 32·scale, so the state space stays small even on
        // long runs (needed for CountSim efficiency).
        let config = CountConfiguration::uniform(GeoState::Fresh, 10_000);
        let mut sim =
            ConfigSim::with_mode(GeometricTimer { scale: 10 }, config, 4, EngineMode::Auto);
        sim.run_for_time(3.0);
        let mut view = Vec::new();
        sim.view_into(&mut view);
        assert!(view.len() < 400, "support {} too large", view.len());
    }
}
