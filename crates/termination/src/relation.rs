//! Abstract randomized transition relations (`a, b --ρ--> c, d`).
//!
//! Section 4 models a protocol as a transition relation `Δ ⊆ Λ⁴` with rate
//! constants: when `a` (receiver) and `b` (sender) interact, outcome
//! `(c, d)` occurs with probability `ρ`. Outcome probabilities for a given
//! input pair must sum to at most 1; leftover mass is the identity (no
//! state change), matching the convention that unlisted pairs are null
//! transitions.

use std::collections::BTreeMap;

use pp_engine::count_sim::CountProtocol;
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
type Outcomes<S> = Vec<(S, S, f64)>;

/// A finite randomized transition relation, executable as a
/// [`CountProtocol`].
#[derive(Debug, Clone)]
pub struct TransitionRelation<S: Copy + Ord + std::hash::Hash> {
    by_input: BTreeMap<(S, S), Outcomes<S>>,
}

impl<S: Copy + Ord + std::hash::Hash + std::fmt::Debug> TransitionRelation<S> {
    /// Builds a relation from a transition list.
    ///
    /// # Panics
    ///
    /// Panics if the rates of any input pair sum to more than 1 (beyond
    /// floating-point slack).
    pub fn new(transitions: impl IntoIterator<Item = Transition<S>>) -> Self {
        let mut by_input: BTreeMap<(S, S), Outcomes<S>> = BTreeMap::new();
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

    /// The outcomes listed for input pair `(a, b)` (receiver, sender).
    pub fn outcomes(&self, a: S, b: S) -> &[(S, S, f64)] {
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
        let outs = self.outcomes(rec, sen);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::rng::rng_from_seed;
    use pp_engine::{count_of, EngineMode, Simulation};

    #[test]
    fn deterministic_transition_applies() {
        let rel = TransitionRelation::new([Transition::new(0u8, 1u8, 2u8, 2u8)]);
        let mut rng = rng_from_seed(0);
        assert_eq!(rel.transition(0, 1, &mut rng), (2, 2));
        assert_eq!(rel.transition(1, 0, &mut rng), (1, 0), "unlisted = null");
    }

    #[test]
    fn rates_split_outcomes() {
        let rel = TransitionRelation::new([
            Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.25),
            Transition::with_rate(0u8, 0u8, 2u8, 2u8, 0.25),
        ]);
        let mut rng = rng_from_seed(1);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            let (c, _) = rel.transition(0, 0, &mut rng);
            counts[c as usize] += 1;
        }
        // Expect ~10k, ~10k, ~20k (identity from leftover mass).
        assert!((counts[1] as f64 - 10_000.0).abs() < 700.0, "{counts:?}");
        assert!((counts[2] as f64 - 10_000.0).abs() < 700.0, "{counts:?}");
        assert!((counts[0] as f64 - 20_000.0).abs() < 1000.0, "{counts:?}");
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
