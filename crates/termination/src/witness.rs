//! Witness extraction for the Theorem 4.1 proof.
//!
//! The proof of Theorem 4.1 starts from a single *witnessing execution*: a
//! finite run `E` from a dense configuration `~c₀` that reaches a terminated
//! configuration. Two numbers are read off the witness — its length `m`
//! (the proof takes the total interaction count; the set of *distinct*
//! transition types used is what the closure actually needs) and the
//! minimum rate constant `ρ` of any transition in `E`. The terminated
//! state is then `m`-`ρ`-producible from `~c₀`, and Lemma 4.2 does the
//! rest.
//!
//! This module runs a protocol, records the witnessing execution, and
//! checks the certificate: the producibility closure from `~c₀`'s states
//! with the extracted `(m, ρ)` must contain the terminated state.

use pp_engine::count_sim::{CountConfiguration, CountSim};

use crate::producible::producible_closure;
use crate::relation::TransitionRelation;

/// A recorded witnessing execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness<S> {
    /// Distinct non-null transitions used, in first-use order, as
    /// `(rec, sen, rec', sen')`.
    pub transition_types: Vec<(S, S, S, S)>,
    /// Total interactions executed (the proof's `|E|`).
    pub length: u64,
    /// Parallel time of the terminating interaction.
    pub time: f64,
    /// Minimum rate constant among the used transitions (the proof's ρ).
    pub min_rate: f64,
}

impl<S> Witness<S> {
    /// The closure depth needed: the number of distinct transition types
    /// (each type enters the closure one level after its inputs).
    pub fn closure_depth(&self) -> usize {
        self.transition_types.len()
    }
}

/// Runs `relation` from `config` until `is_terminated` holds for some
/// agent, recording the witness. Returns `None` if the budget ends first.
pub fn extract_witness<S: Copy + Ord + std::hash::Hash + std::fmt::Debug>(
    relation: &TransitionRelation<S>,
    config: CountConfiguration<S>,
    is_terminated: impl Fn(&S) -> bool,
    max_time: f64,
    seed: u64,
) -> Option<Witness<S>> {
    let n = config.population_size();
    let mut sim = CountSim::new(relation.clone(), config, seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut types = Vec::new();
    let max_interactions = (max_time * n as f64) as u64;
    for _ in 0..max_interactions {
        let (a, b, c, d) = sim.step_observed();
        if (a, b) != (c, d) && seen.insert((a, b, c, d)) {
            types.push((a, b, c, d));
        }
        if is_terminated(&c) || is_terminated(&d) {
            // Minimum rate over the used transitions, looked up from the
            // relation (null/no-change steps don't count).
            let min_rate = types
                .iter()
                .map(|&(a, b, c, d)| {
                    relation
                        .listed(a, b)
                        .iter()
                        .find(|&&(oc, od, _)| (oc, od) == (c, d))
                        .map(|&(_, _, r)| r)
                        .unwrap_or(1.0)
                })
                .fold(1.0, f64::min);
            return Some(Witness {
                transition_types: types,
                length: sim.interactions(),
                time: sim.time(),
                min_rate,
            });
        }
    }
    None
}

/// Checks the proof's certificate: with the witness's `(depth, ρ)`, the
/// producibility closure from the initial states contains a terminated
/// state.
pub fn witness_certifies<S: Copy + Ord + std::hash::Hash + std::fmt::Debug>(
    relation: &TransitionRelation<S>,
    initial_states: impl IntoIterator<Item = S>,
    witness: &Witness<S>,
    is_terminated: impl Fn(&S) -> bool,
) -> bool {
    let closure = producible_closure(
        relation,
        initial_states,
        witness.min_rate,
        Some(witness.closure_depth()),
    );
    closure.final_set().iter().any(is_terminated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{counter_dense_config, counter_protocol, COUNTER_T, COUNTER_X};

    #[test]
    fn witness_found_for_counter() {
        let rel = counter_protocol(6);
        let w = extract_witness(
            &rel,
            counter_dense_config(10_000),
            |&s| s == COUNTER_T,
            1e4,
            1,
        )
        .expect("counter terminates");
        // At least the 6 increment types must appear before t does.
        assert!(w.closure_depth() >= 6, "only {} types", w.closure_depth());
        assert_eq!(w.min_rate, 1.0);
        assert!(w.time < 100.0, "witness time {} not O(1)", w.time);
    }

    #[test]
    fn witness_certificate_validates() {
        let rel = counter_protocol(5);
        let w = extract_witness(
            &rel,
            counter_dense_config(5_000),
            |&s| s == COUNTER_T,
            1e4,
            2,
        )
        .unwrap();
        assert!(witness_certifies(&rel, [0u16, COUNTER_X], &w, |&s| s == COUNTER_T));
    }

    #[test]
    fn certificate_fails_with_truncated_depth() {
        let rel = counter_protocol(5);
        let w = Witness {
            transition_types: vec![(0u16, COUNTER_X, 1u16, COUNTER_X)],
            length: 1,
            time: 0.1,
            min_rate: 1.0,
        };
        // Depth 1 cannot reach t (needs 5 increments).
        assert!(!witness_certifies(&rel, [0u16, COUNTER_X], &w, |&s| s == COUNTER_T));
    }

    #[test]
    fn no_witness_without_fuel() {
        let rel = counter_protocol(4);
        let config = CountConfiguration::uniform(0u16, 1_000);
        assert!(extract_witness(&rel, config, |&s| s == COUNTER_T, 20.0, 3).is_none());
    }

    #[test]
    fn witness_respects_randomized_rates() {
        use crate::relation::Transition;
        // 0,0 --0.25--> 1,1 ; 1,1 --1.0--> 2,2 (2 = "terminated").
        let rel = TransitionRelation::new([
            Transition::with_rate(0u8, 0u8, 1u8, 1u8, 0.25),
            Transition::new(1u8, 1u8, 2u8, 2u8),
        ]);
        let config = CountConfiguration::uniform(0u8, 1_000);
        let w = extract_witness(&rel, config, |&s| s == 2, 1e4, 4).expect("terminates");
        assert_eq!(w.min_rate, 0.25);
        assert!(witness_certifies(&rel, [0u8], &w, |&s| s == 2));
    }
}
