//! Abstract randomized transition relations (`a, b --ρ--> c, d`).
//!
//! Section 4 models a protocol as a transition relation `Δ ⊆ Λ⁴` with rate
//! constants: when `a` (receiver) and `b` (sender) interact, outcome
//! `(c, d)` occurs with probability `ρ`. Outcome probabilities for a given
//! input pair must sum to at most 1; leftover mass is the identity (no
//! state change), matching the convention that unlisted pairs are null
//! transitions.
//!
//! A relation declares this law exactly ([`CountProtocol::outcomes`]), so
//! the batched count engine applies a whole batch of one input pair with a
//! single multinomial split, and Auto mode batches relations at scale like
//! any other small-support protocol. [`CountProtocol::transition`] samples
//! the same law one interaction at a time.

use std::collections::BTreeMap;

use pp_engine::count_sim::{CountProtocol, Outcomes};
use pp_engine::rng::SimRng;
use rand::Rng;

/// One randomized transition `a, b --rate--> c, d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition<S> {
    /// Receiver's pre-state.
    pub a: S,
    /// Sender's pre-state.
    pub b: S,
    /// Receiver's post-state.
    pub c: S,
    /// Sender's post-state.
    pub d: S,
    /// Rate constant ρ ∈ (0, 1].
    pub rate: f64,
}

impl<S> Transition<S> {
    /// A deterministic transition (`rate = 1`).
    pub fn new(a: S, b: S, c: S, d: S) -> Self {
        Self {
            a,
            b,
            c,
            d,
            rate: 1.0,
        }
    }

    /// A transition with an explicit rate constant.
    pub fn with_rate(a: S, b: S, c: S, d: S, rate: f64) -> Self {
        assert!(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
        Self { a, b, c, d, rate }
    }
}

/// The outcomes of one input pair: `(receiver', sender', rate)` triples.
type Listed<S> = Vec<(S, S, f64)>;

/// A finite randomized transition relation, executable as a
/// [`CountProtocol`].
#[derive(Debug, Clone)]
pub struct TransitionRelation<S: Copy + Ord + std::hash::Hash> {
    by_input: BTreeMap<(S, S), Listed<S>>,
}

impl<S: Copy + Ord + std::hash::Hash + std::fmt::Debug> TransitionRelation<S> {
    /// Builds a relation from a transition list.
    ///
    /// # Panics
    ///
    /// Panics if the rates of any input pair sum to more than 1 (beyond
    /// floating-point slack).
    pub fn new(transitions: impl IntoIterator<Item = Transition<S>>) -> Self {
        let mut by_input: BTreeMap<(S, S), Listed<S>> = BTreeMap::new();
        for t in transitions {
            by_input
                .entry((t.a, t.b))
                .or_default()
                .push((t.c, t.d, t.rate));
        }
        for ((a, b), outs) in &by_input {
            let total: f64 = outs.iter().map(|&(_, _, r)| r).sum();
            assert!(
                total <= 1.0 + 1e-9,
                "rates for input ({a:?}, {b:?}) sum to {total} > 1"
            );
        }
        Self { by_input }
    }

    /// All transitions, flattened back out.
    pub fn transitions(&self) -> Vec<Transition<S>> {
        self.by_input
            .iter()
            .flat_map(|(&(a, b), outs)| {
                outs.iter()
                    .map(move |&(c, d, rate)| Transition { a, b, c, d, rate })
            })
            .collect()
    }

    /// The outcomes listed for input pair `(a, b)` (receiver, sender),
    /// without the identity's leftover mass.
    pub fn listed(&self, a: S, b: S) -> &[(S, S, f64)] {
        self.by_input
            .get(&(a, b))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The minimum rate constant across all transitions (the ρ of the
    /// Theorem 4.1 proof, extracted from a witnessing execution).
    pub fn min_rate(&self) -> f64 {
        self.by_input
            .values()
            .flat_map(|outs| outs.iter().map(|&(_, _, r)| r))
            .fold(1.0, f64::min)
    }

    /// All states mentioned anywhere in the relation.
    pub fn states(&self) -> Vec<S> {
        let mut set = std::collections::BTreeSet::new();
        for (&(a, b), outs) in &self.by_input {
            set.insert(a);
            set.insert(b);
            for &(c, d, _) in outs {
                set.insert(c);
                set.insert(d);
            }
        }
        set.into_iter().collect()
    }
}

impl<S: Copy + Ord + std::hash::Hash + std::fmt::Debug> CountProtocol for TransitionRelation<S> {
    type State = S;

    fn transition(&self, rec: S, sen: S, rng: &mut SimRng) -> (S, S) {
        let outs = self.listed(rec, sen);
        if outs.is_empty() {
            return (rec, sen);
        }
        let mut u: f64 = rng.gen();
        for &(c, d, rate) in outs {
            if u < rate {
                return (c, d);
            }
            u -= rate;
        }
        (rec, sen) // leftover mass: identity
    }

    /// The law `transition` samples: an unlisted pair is the identity, a
    /// single rate-1 outcome is deterministic, and otherwise the listed
    /// outcomes plus the identity for any leftover mass `1 − Σρ`.
    fn outcomes(&self, rec: S, sen: S) -> Option<Outcomes<S>> {
        let law = match self.listed(rec, sen) {
            [] => Outcomes::Deterministic(rec, sen),
            &[(c, d, 1.0)] => Outcomes::Deterministic(c, d),
            outs => {
                let mut law = outs.to_vec();
                let leftover = 1.0 - outs.iter().map(|&(_, _, r)| r).sum::<f64>();
                if leftover > 0.0 {
                    law.push((rec, sen, leftover));
                }
                Outcomes::Random(law)
            }
        };
        Some(law)
    }

    /// Every pair's law is exact, so batching pays off whenever the
    /// occupied support stays small; Auto mode's support rule leaves the
    /// batched engine for relations whose support grows.
    fn prefers_batching(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{counter_dense_config, counter_protocol};
    use pp_engine::rng::rng_from_seed;
    use pp_engine::{count_of, ConfigSim, EngineKind, EngineMode, Simulation};

    #[test]
    fn deterministic_transition_applies() {
        let rel = TransitionRelation::new([Transition::new(0u8, 1u8, 2u8, 2u8)]);
        let mut rng = rng_from_seed(0);
        assert_eq!(rel.transition(0, 1, &mut rng), (2, 2));
        assert_eq!(rel.transition(1, 0, &mut rng), (1, 0), "unlisted = null");
        // The declared laws match: a rate-1 outcome and the identity.
        assert_eq!(rel.outcomes(0, 1), Some(Outcomes::Deterministic(2, 2)));
        assert_eq!(rel.outcomes(1, 0), Some(Outcomes::Deterministic(1, 0)));
    }

    #[test]
    fn rates_split_outcomes() {
        let rel = TransitionRelation::new([
            Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.25),
            Transition::with_rate(0u8, 0u8, 2u8, 2u8, 0.25),
        ]);
        // The declared law carries the leftover mass as the identity.
        let Some(Outcomes::Random(law)) = rel.outcomes(0, 0) else {
            panic!("a split-rate pair has a random law");
        };
        assert_eq!(law, vec![(1, 1, 0.25), (2, 2, 0.25), (0, 0, 0.5)]);
        assert_eq!(law.iter().map(|&(_, _, p)| p).sum::<f64>(), 1.0);
        // `transition` samples that law: ~10k, ~10k, ~20k of 40k draws.
        let mut rng = rng_from_seed(1);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            let (c, d) = rel.transition(0, 0, &mut rng);
            assert_eq!(c, d);
            counts[c as usize] += 1;
        }
        for (c, _, p) in law {
            let slack = if c == 0 { 1000.0 } else { 700.0 };
            let got = counts[c as usize] as f64;
            assert!((got - 40_000.0 * p).abs() < slack, "{counts:?}");
        }
    }

    #[test]
    fn counter_batches_from_the_threshold_in_auto() {
        let n = ConfigSim::<TransitionRelation<u16>>::BATCH_THRESHOLD;
        let kind = |n: u64| {
            Simulation::count_builder(counter_protocol(8))
                .initial(counter_dense_config(n))
                .seed(3)
                .build()
                .engine_kind()
        };
        assert_eq!(kind(n), EngineKind::Batched);
        assert_eq!(kind(n - 1), EngineKind::Sequential);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn overfull_rates_rejected() {
        TransitionRelation::new([
            Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.7),
            Transition::with_rate(0u8, 0u8, 2u8, 2u8, 0.7),
        ]);
    }

    #[test]
    #[should_panic(expected = "rate must be in (0, 1]")]
    fn zero_rate_rejected() {
        Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.0);
    }

    #[test]
    fn min_rate_and_states() {
        let rel = TransitionRelation::new([
            Transition::with_rate(0u8, 1u8, 2u8, 3u8, 0.5),
            Transition::new(2u8, 2u8, 4u8, 4u8),
        ]);
        assert_eq!(rel.min_rate(), 0.5);
        assert_eq!(rel.states(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rel.transitions().len(), 2);
    }

    #[test]
    fn epidemic_as_relation() {
        // x, y -> y, y epidemic over {0 susceptible, 1 infected}: encode as
        // (0 rec, 1 sen) -> (1, 1).
        let rel = TransitionRelation::new([Transition::new(0u8, 1u8, 1u8, 1u8)]);
        // One-way epidemic where only (rec=0, sen=1) infects: completes in
        // O(log n) time all the same.
        let (out, _) = Simulation::count_builder(rel)
            .config([(0u8, 999), (1u8, 1)])
            .seed(2)
            .mode(EngineMode::Sequential)
            .check_every(100)
            .max_time(1_000.0)
            .until(|view| count_of(view, &1) == 1000)
            .run();
        assert!(out.converged);
    }
}
