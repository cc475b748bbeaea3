//! Null-skipping accelerated simulation for transition relations.
//!
//! Many protocols spend most of their interactions on *null* pairs — input
//! pairs with no listed transition, which provably change nothing. The
//! plain simulator still burns a step on each; this simulator skips them
//! **exactly**: it computes the probability `p` that a uniformly random
//! ordered pair is *potentially active* (has at least one listed
//! transition), advances the interaction counter by a
//! `Geometric(p)`-distributed skip, and then samples an active pair
//! weighted by its count product. The resulting trajectory has exactly the
//! same distribution as [`pp_engine::count_sim::CountSim`]'s — null steps
//! are i.i.d. padding — while the cost per *state change* drops from
//! `Θ(1/p)` to `O(#listed input pairs)`.
//!
//! The payoff is endgame-dominated dynamics: the §3.3 exact backup's last
//! two same-level leaders take `Θ(n)` parallel time (`Θ(n²)` interactions)
//! to meet; the accelerated simulator jumps straight to the meeting.

use pp_engine::count_sim::CountConfiguration;
use pp_engine::rng::{rng_from_seed, SimRng};
use rand::Rng;

use crate::relation::TransitionRelation;

/// Accelerated simulator over a [`TransitionRelation`].
pub struct AcceleratedSim<S: Copy + Ord + std::hash::Hash> {
    relation: TransitionRelation<S>,
    config: CountConfiguration<S>,
    rng: SimRng,
    interactions: u64,
    n: u64,
}

impl<S: Copy + Ord + std::hash::Hash + std::fmt::Debug> AcceleratedSim<S> {
    /// Creates the simulator.
    pub fn new(relation: TransitionRelation<S>, config: CountConfiguration<S>, seed: u64) -> Self {
        let n = config.population_size();
        assert!(n >= 2);
        Self {
            relation,
            config,
            rng: rng_from_seed(seed),
            interactions: 0,
            n,
        }
    }

    /// Current configuration.
    pub fn config(&self) -> &CountConfiguration<S> {
        &self.config
    }

    /// Parallel time elapsed (including skipped null interactions).
    pub fn time(&self) -> f64 {
        self.interactions as f64 / self.n as f64
    }

    /// Interactions elapsed (including skipped nulls).
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// The number of ordered pairs with a listed transition, given current
    /// counts.
    fn active_pairs(&self) -> u128 {
        let mut total: u128 = 0;
        for (a, b) in self.relation.input_pairs() {
            let ca = self.config.count(&a) as u128;
            if ca == 0 {
                continue;
            }
            let cb = if a == b {
                ca.saturating_sub(1)
            } else {
                self.config.count(&b) as u128
            };
            total += ca * cb;
        }
        total
    }

    /// Advances to (and executes) the next potentially-active interaction.
    /// Returns `false` if no active pair exists (the configuration is
    /// silent) — callers should stop.
    pub fn step_active(&mut self) -> bool {
        let active = self.active_pairs();
        if active == 0 {
            return false;
        }
        let total = self.n as u128 * (self.n as u128 - 1);
        let p = active as f64 / total as f64;
        // Geometric skip: number of draws up to and including the first
        // active one.
        let skip = if p >= 1.0 {
            1
        } else {
            let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
        };
        self.interactions += skip;
        // Choose the active ordered pair, weighted by count products.
        let mut target = (self.rng.gen::<f64>() * active as f64) as u128;
        let mut chosen = None;
        for (a, b) in self.relation.input_pairs() {
            let ca = self.config.count(&a) as u128;
            if ca == 0 {
                continue;
            }
            let cb = if a == b {
                ca.saturating_sub(1)
            } else {
                self.config.count(&b) as u128
            };
            let w = ca * cb;
            if target < w {
                chosen = Some((a, b));
                break;
            }
            target -= w;
        }
        let (a, b) = chosen.expect("weights sum to `active`");
        // Apply one listed outcome (or identity leftover).
        let outs = self.relation.outcomes(a, b).to_vec();
        let mut u: f64 = self.rng.gen();
        let mut result = (a, b);
        for (c, d, rate) in outs {
            if u < rate {
                result = (c, d);
                break;
            }
            u -= rate;
        }
        if result != (a, b) {
            self.config.remove(a, 1);
            self.config.remove(b, 1);
            self.config.add(result.0, 1);
            self.config.add(result.1, 1);
        }
        true
    }

    /// Runs until `predicate` holds or no active pair remains or `max_time`
    /// elapses. Returns whether the predicate held.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&CountConfiguration<S>) -> bool,
        max_time: f64,
    ) -> bool {
        loop {
            if predicate(&self.config) {
                return true;
            }
            if self.time() >= max_time {
                return false;
            }
            if !self.step_active() {
                return false;
            }
        }
    }
}

impl<S: Copy + Ord + std::hash::Hash + std::fmt::Debug> TransitionRelation<S> {
    /// Distinct input pairs with listed transitions (used by the
    /// accelerated simulator's active-pair weighting).
    pub fn input_pairs(&self) -> Vec<(S, S)> {
        let mut pairs: Vec<(S, S)> = self.transitions().iter().map(|t| (t.a, t.b)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Transition;
    use pp_engine::{count_of, EngineMode, Simulation};

    fn epidemic_relation() -> TransitionRelation<u8> {
        // One-way epidemic: susceptible receiver + infected sender.
        TransitionRelation::new([Transition::new(0u8, 1u8, 1u8, 1u8)])
    }

    #[test]
    fn accelerated_epidemic_matches_plain_distribution() {
        // Compare completion-time means between the accelerated and plain
        // simulators — they realize the same process.
        let n = 2_000u64;
        let trials = 15;
        let mean_plain: f64 = (0..trials)
            .map(|s| {
                let (out, _) = Simulation::count_builder(epidemic_relation())
                    .config([(0u8, n - 1), (1u8, 1)])
                    .seed(100 + s)
                    .mode(EngineMode::Sequential)
                    .check_every(100)
                    .until(move |view| count_of(view, &1) == n)
                    .run();
                out.time
            })
            .sum::<f64>()
            / trials as f64;
        let mean_accel: f64 = (0..trials)
            .map(|s| {
                let config = CountConfiguration::from_pairs([(0u8, n - 1), (1u8, 1)]);
                let mut sim = AcceleratedSim::new(epidemic_relation(), config, 200 + s);
                assert!(sim.run_until(|c| c.count(&1) == n, f64::MAX));
                sim.time()
            })
            .sum::<f64>()
            / trials as f64;
        let ratio = mean_accel / mean_plain;
        assert!(
            (0.8..1.25).contains(&ratio),
            "accelerated {mean_accel} vs plain {mean_plain}"
        );
    }

    #[test]
    fn silent_configuration_stops() {
        let config = CountConfiguration::uniform(1u8, 100);
        let mut sim = AcceleratedSim::new(epidemic_relation(), config, 1);
        // All infected: the (0,1) pair has weight 0 → silent.
        assert!(!sim.step_active());
        assert!(!sim.run_until(|c| c.count(&0) > 0, 1e6));
    }

    #[test]
    fn backup_endgame_is_jumped() {
        // The l/f backup's *leader* dynamics at n = 10^6 need Θ(n) parallel
        // time (the last two same-level leaders must meet); the accelerated
        // simulator reaches leader-silence in ≈ n state changes instead of
        // Θ(n²) interactions. Followers are kept inert here — their level
        // epidemic is not what the accelerator demonstrates, and including
        // it would add Θ(n·levels) more active steps.
        use crate::relation::Transition;
        // Encode: leaders = level, followers = 1000 + level (inert).
        let mut ts = Vec::new();
        for i in 0..40u32 {
            ts.push(Transition::new(i, i, i + 1, 1000 + i + 1));
        }
        let rel = TransitionRelation::new(ts);
        let n = 1_000_000u64;
        let config = CountConfiguration::uniform(0u32, n);
        let mut sim = AcceleratedSim::new(rel, config, 7);
        let silent = |c: &CountConfiguration<u32>| c.iter().all(|(&s, &k)| s >= 1000 || k <= 1);
        assert!(sim.run_until(silent, f64::MAX));
        // kex = floor(log2 1e6) = 19.
        let max_level = sim
            .config()
            .iter()
            .map(|(&s, _)| if s >= 1000 { s - 1000 } else { s })
            .max()
            .unwrap();
        assert_eq!(max_level, 19);
        // Θ(n) parallel time elapsed "virtually" — verify the skip engine
        // actually accounted for it.
        assert!(
            sim.time() > 1_000.0,
            "time {} too small for Θ(n)",
            sim.time()
        );
        // Surviving leader levels are exactly the set bits of n = 10^6.
        let total: u64 = sim
            .config()
            .iter()
            .filter(|&(&s, &k)| s < 1000 && k > 0)
            .map(|(&s, &k)| k * (1u64 << s))
            .sum();
        assert_eq!(total, n);
    }

    #[test]
    fn randomized_rates_respected() {
        // 0,0 --0.5--> 1,1: the half-rate shows up as ~2x the meetings.
        let rel = TransitionRelation::new([Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.5)]);
        let n = 10_000u64;
        let config = CountConfiguration::uniform(0u8, n);
        let mut sim = AcceleratedSim::new(rel, config, 3);
        // Run until half converted.
        assert!(sim.run_until(|c| c.count(&1) >= n / 2, f64::MAX));
        assert_eq!(sim.config().population_size(), n);
    }

    #[test]
    fn input_pairs_deduped() {
        let rel = TransitionRelation::new([
            Transition::with_rate(0u8, 1u8, 2u8, 2u8, 0.3),
            Transition::with_rate(0u8, 1u8, 3u8, 3u8, 0.3),
            Transition::new(1u8, 0u8, 0u8, 0u8),
        ]);
        assert_eq!(rel.input_pairs(), vec![(0, 1), (1, 0)]);
    }
}
