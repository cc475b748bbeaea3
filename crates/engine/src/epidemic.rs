//! One-way epidemics: the paper's basic information-spreading primitive.
//!
//! Transitions of the form `i, j -> j, j` for `i <= j` spread the maximum of
//! an initial value assignment to every agent in `Theta(log n)` parallel time
//! (Lemma A.1: `E[T] = (n-1)/n * H_{n-1}`, with tails
//! `Pr[T > a ln n] < 4 n^{-a/4+1}`). The `Log-Size-Estimation` protocol uses
//! one epidemic per epoch to propagate the epoch's maximum geometric random
//! variable, and Corollary 3.4 extends the bound to epidemics running inside
//! a subpopulation (the role-A agents).
//!
//! This module provides the epidemic as a standalone protocol plus direct
//! measurement helpers; the sweep registry's `epidemic_full` and
//! `epidemic_sub3` experiments call the `*_in_mode` forms.

use crate::batch::DeterministicCountProtocol;
use crate::config_sim::EngineMode;
use crate::protocol::Protocol;
use crate::rng::SimRng;
use crate::simulation::{count_of, Simulation};

/// Max-propagation epidemic over `u64` values: both agents adopt the max.
///
/// The symmetric form (`i, j -> max, max`) completes at the same time as the
/// one-way form for the "time until all agents hold the global max" event,
/// and is what `Propagate-Max-G.R.V.` (Subprotocol 5) does.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxEpidemic;

impl Protocol for MaxEpidemic {
    type State = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn interact(&self, rec: &mut u64, sen: &mut u64, _rng: &mut SimRng) {
        let m = (*rec).max(*sen);
        *rec = m;
        *sen = m;
    }
}

/// One-way infection epidemic over `{false, true}`: the receiver is infected
/// if the sender is (the canonical `x, y -> y, y` epidemic specialized to two
/// values).
#[derive(Debug, Clone, Copy, Default)]
pub struct InfectionEpidemic;

impl DeterministicCountProtocol for InfectionEpidemic {
    type State = bool;

    fn transition_det(&self, rec: bool, sen: bool) -> (bool, bool) {
        (rec || sen, sen)
    }
}

/// Measures the parallel time for a one-way epidemic started from a single
/// infected agent to reach all `n` agents.
///
/// Returns the completion time. Lemma A.1 gives
/// `E[T] = (n-1)/n * H_{n-1} ~ ln n`. Runs on the batched engine at large
/// `n` (the protocol is deterministic), so `n = 10⁷` completes in
/// milliseconds.
pub fn epidemic_completion_time(n: u64, seed: u64) -> f64 {
    epidemic_completion_time_in_mode(n, seed, EngineMode::Auto)
}

/// [`epidemic_completion_time`] on the engine `mode` selects.
pub fn epidemic_completion_time_in_mode(n: u64, seed: u64, mode: EngineMode) -> f64 {
    assert!(n >= 2);
    let (out, _) = Simulation::count_builder(InfectionEpidemic)
        .config([(false, n - 1), (true, 1)])
        .seed(seed)
        .mode(mode)
        .check_every((n / 10).max(1))
        .until(move |view| count_of(view, &true) == n)
        .run();
    debug_assert!(out.converged);
    out.time
}

/// State for a subpopulation epidemic: `(in_subpopulation, infected)`.
///
/// Only interactions where *both* agents are in the subpopulation spread the
/// infection, modelling Corollary 3.4's epidemic among the role-A agents
/// while the role-S agents merely consume scheduler picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubState {
    /// Member of the subpopulation running the epidemic.
    pub member: bool,
    /// Carrying the epidemic value.
    pub infected: bool,
}

/// Epidemic restricted to a marked subpopulation (Corollary 3.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubpopulationEpidemic;

impl DeterministicCountProtocol for SubpopulationEpidemic {
    type State = SubState;

    fn transition_det(&self, rec: SubState, sen: SubState) -> (SubState, SubState) {
        if rec.member && sen.member && sen.infected {
            (
                SubState {
                    member: true,
                    infected: true,
                },
                sen,
            )
        } else {
            (rec, sen)
        }
    }
}

/// Measures completion time of an epidemic confined to a subpopulation of
/// size `a` inside a population of size `n` (Corollary 3.4: the slowdown is
/// the factor `n(n-1)/(a(a-1))` in expectation).
pub fn subpopulation_epidemic_time(n: u64, a: u64, seed: u64) -> f64 {
    subpopulation_epidemic_time_in_mode(n, a, seed, EngineMode::Auto)
}

/// [`subpopulation_epidemic_time`] on the engine `mode` selects.
pub fn subpopulation_epidemic_time_in_mode(n: u64, a: u64, seed: u64, mode: EngineMode) -> f64 {
    assert!(a >= 2 && a <= n);
    let member_inf = SubState {
        member: true,
        infected: true,
    };
    let member_sus = SubState {
        member: true,
        infected: false,
    };
    let outsider = SubState {
        member: false,
        infected: false,
    };
    let (out, _) = Simulation::count_builder(SubpopulationEpidemic)
        .config([(member_inf, 1), (member_sus, a - 1), (outsider, n - a)])
        .seed(seed)
        .mode(mode)
        .check_every((n / 10).max(1))
        .until(move |view| count_of(view, &member_inf) == a)
        .run();
    debug_assert!(out.converged);
    out.time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_time_near_expectation() {
        let n = 2000;
        let trials = 20;
        let mean: f64 = (0..trials)
            .map(|t| epidemic_completion_time(n, 42 + t))
            .sum::<f64>()
            / trials as f64;
        // Lemma A.1: E[T] = (n-1)/n · H_{n-1}.
        let harmonic: f64 = (1..n).map(|k| 1.0 / k as f64).sum();
        let expected = (n - 1) as f64 / n as f64 * harmonic;
        // One-way single-source epidemic takes ~2 ln n (ln n to reach half,
        // ln n to cover the tail); Lemma A.1's H_{n-1} form is for its
        // specific two-way variant. Accept a generous band around ln n.
        assert!(
            mean > 0.8 * expected && mean < 4.0 * expected,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn subpopulation_epidemic_slower_than_full() {
        let n = 1200;
        let trials = 8;
        let full: f64 = (0..trials)
            .map(|t| epidemic_completion_time(n, 7 + t))
            .sum::<f64>()
            / trials as f64;
        let third: f64 = (0..trials)
            .map(|t| subpopulation_epidemic_time(n, n / 3, 107 + t))
            .sum::<f64>()
            / trials as f64;
        assert!(
            third > full,
            "subpopulation epidemic ({third}) should be slower than full ({full})"
        );
        // Corollary 3.4: slowdown factor ≈ c² where c = 3 for time-to-next
        // within-subpopulation interaction, but completion is over a smaller
        // population (ln(n/3) < ln n); expect between 2x and 20x.
        assert!(third < 20.0 * full, "third {third} vs full {full}");
    }
}
