//! The main `Log-Size-Estimation` protocol (Protocol 1, Subprotocols 2–9).
//!
//! A uniform leaderless protocol computing `log2 n` within additive error
//! 5.7 w.h.p. (Theorem 3.1). The mechanism, epoch by epoch:
//!
//! 1. **Partition** (Subprotocol 2): agents split into roles A (algorithm)
//!    and S (storage) — approximately `n/2` each (Lemma 3.2).
//! 2. **Clock seed**: each A agent samples `logSize2 = geometric(1/2) + 2`
//!    and the population propagates the maximum by epidemic; whenever an
//!    agent adopts a larger value it **restarts** all downstream computation
//!    (Subprotocols 3–4). By Lemma 3.8 the settled maximum is in
//!    `[log n − log ln n, 2 log n + 1]` w.h.p.
//! 3. **Epochs**: `K = 5·logSize2` epochs, each paced by the leaderless
//!    phase clock — A agents count their own interactions up to
//!    `95·logSize2` (Subprotocol 6). Within an epoch each A agent samples a
//!    fresh geometric `gr` and the A subpopulation propagates the max
//!    (Subprotocol 5).
//! 4. **Delivery**: when an A agent's clock expires it hands its `gr` to the
//!    first same-epoch S agent it meets, which accumulates it into `sum` and
//!    advances (Subprotocol 9). S agents propagate the most-advanced
//!    `(epoch, sum)` pair among themselves (Subprotocol 7).
//! 5. **Output**: after `K` epochs, `output = sum/K + 1` — by
//!    Corollary D.10 the average of `K ≥ 4 log n` maxima of geometrics is
//!    within 4.7 of `log |A| ≈ log n − 1`, giving the 5.7 band of
//!    Lemma 3.11.

use pp_engine::rng::{geometric_half, SimRng};
use pp_engine::{EngineMode, Observer, Protocol, Simulation};

use crate::state::{MainState, Role};

/// The `Log-Size-Estimation` protocol with its tunable constants.
///
/// Defaults are the paper's: clock threshold `95·logSize2`, epoch target
/// `5·logSize2`, `+2` offset on `logSize2` (Lemma 3.8). The constants are
/// exposed so the ablation benches can probe how much slack they carry.
#[derive(Debug, Clone, Copy)]
pub struct LogSizeEstimation {
    /// Phase-clock multiplier (paper: 95).
    pub clock_multiplier: u64,
    /// Epoch-count multiplier (paper: 5).
    pub epoch_multiplier: u64,
    /// Additive offset applied to the sampled `logSize2` (paper: 2).
    pub log_size2_offset: u64,
}

impl Default for LogSizeEstimation {
    fn default() -> Self {
        Self {
            clock_multiplier: 95,
            epoch_multiplier: 5,
            log_size2_offset: 2,
        }
    }
}

impl LogSizeEstimation {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A configuration with custom constants (for ablations).
    pub fn with_constants(clock_multiplier: u64, epoch_multiplier: u64, offset: u64) -> Self {
        assert!(clock_multiplier >= 1 && epoch_multiplier >= 1);
        Self {
            clock_multiplier,
            epoch_multiplier,
            log_size2_offset: offset,
        }
    }

    fn sample_log_size2(&self, rng: &mut SimRng) -> u64 {
        geometric_half(rng) + self.log_size2_offset
    }

    /// Subprotocol 2: `Partition-Into-A/S`.
    fn partition(&self, rec: &mut MainState, sen: &mut MainState, rng: &mut SimRng) {
        match (sen.role, rec.role) {
            (Role::X, Role::X) => {
                sen.role = Role::A;
                sen.log_size2 = sen.log_size2.max(self.sample_log_size2(rng));
                rec.role = Role::S;
            }
            (Role::A, Role::X) => rec.role = Role::S,
            (Role::S, Role::X) => {
                rec.role = Role::A;
                rec.log_size2 = rec.log_size2.max(self.sample_log_size2(rng));
            }
            _ => {}
        }
    }

    /// Subprotocol 6: `Check-if-Timer-Done-and-Increment-Epoch`.
    ///
    /// Uses `>=` rather than the pseudocode's `=` (see crate docs): the
    /// delivery that sets `updated_sum` typically happens after `time`
    /// passes the threshold, so with strict equality the epoch could never
    /// advance.
    fn check_timer(&self, agent: &mut MainState, rng: &mut SimRng) {
        if agent.time >= agent.clock_threshold(self.clock_multiplier)
            && !agent.protocol_done
            && agent.updated_sum
        {
            agent.epoch += 1;
            self.move_to_next_grv(agent, rng);
            if agent.epoch >= agent.epoch_target(self.epoch_multiplier) {
                agent.protocol_done = true;
            }
        }
    }

    /// Subprotocol 8: `Move-to-Next-G.R.V`.
    fn move_to_next_grv(&self, agent: &mut MainState, rng: &mut SimRng) {
        agent.time = 0;
        agent.gr = geometric_half(rng);
        agent.updated_sum = false;
    }

    /// Subprotocol 3: `Propagate-Max-Clock-Value` (with Subprotocol 4's
    /// `Restart` on adoption).
    fn propagate_max_clock(&self, a: &mut MainState, b: &mut MainState, rng: &mut SimRng) {
        if a.log_size2 < b.log_size2 {
            a.log_size2 = b.log_size2;
            a.restart();
            a.gr = geometric_half(rng);
        } else if b.log_size2 < a.log_size2 {
            b.log_size2 = a.log_size2;
            b.restart();
            b.gr = geometric_half(rng);
        }
    }

    /// Subprotocol 7: `Propagate-Incremented-Epoch`.
    fn propagate_epoch(&self, a: &mut MainState, b: &mut MainState, rng: &mut SimRng) {
        if a.role == Role::A && b.role == Role::A {
            if a.epoch < b.epoch {
                a.epoch = b.epoch;
                self.move_to_next_grv(a, rng);
                self.finish_if_target(a);
            } else if b.epoch < a.epoch {
                b.epoch = a.epoch;
                self.move_to_next_grv(b, rng);
                self.finish_if_target(b);
            }
        } else if a.role == Role::S && b.role == Role::S {
            if a.epoch < b.epoch {
                a.epoch = b.epoch;
                a.sum = b.sum;
            } else if b.epoch < a.epoch {
                b.epoch = a.epoch;
                b.sum = a.sum;
            } else if a.sum != b.sum {
                // Tie-break (see crate docs): same epoch, different sums —
                // reconcile deterministically so outputs converge.
                let m = a.sum.max(b.sum);
                a.sum = m;
                b.sum = m;
            }
        }
    }

    fn finish_if_target(&self, agent: &mut MainState) {
        if agent.epoch >= agent.epoch_target(self.epoch_multiplier) {
            agent.protocol_done = true;
        }
    }

    /// Subprotocol 9: `Update-Sum` between one A and one S agent.
    fn update_sum(&self, a: &mut MainState, s: &mut MainState) {
        debug_assert_eq!(a.role, Role::A);
        debug_assert_eq!(s.role, Role::S);
        if a.epoch == s.epoch
            && a.time >= a.clock_threshold(self.clock_multiplier)
            && !a.protocol_done
        {
            s.epoch += 1;
            s.sum += a.gr;
            a.updated_sum = true;
        } else if a.epoch < s.epoch {
            a.updated_sum = true;
        }
    }

    /// Output assignment and propagation.
    ///
    /// An S agent that has received all `K = 5·logSize2` deliveries becomes
    /// done and computes `sum/epoch + 1`; done agents without an output
    /// adopt one from any partner that has it.
    fn settle_output(&self, a: &mut MainState, b: &mut MainState) {
        for agent in [&mut *a, &mut *b] {
            if agent.role == Role::S && agent.epoch >= agent.epoch_target(self.epoch_multiplier) {
                agent.protocol_done = true;
                agent.output = agent.computed_output();
            }
        }
        if a.protocol_done && a.output.is_none() {
            a.output = b.output;
        }
        if b.protocol_done && b.output.is_none() {
            b.output = a.output;
        }
    }
}

impl Protocol for LogSizeEstimation {
    type State = MainState;

    fn initial_state(&self) -> MainState {
        MainState::initial()
    }

    fn interact(&self, rec: &mut MainState, sen: &mut MainState, rng: &mut SimRng) {
        // Protocol 1, in pseudocode order.
        self.partition(rec, sen, rng);
        if rec.role == Role::A {
            rec.time += 1;
            self.check_timer(rec, rng);
        }
        if sen.role == Role::A {
            sen.time += 1;
            self.check_timer(sen, rng);
        }
        self.propagate_max_clock(rec, sen, rng);
        self.propagate_epoch(rec, sen, rng);
        match (rec.role, sen.role) {
            (Role::A, Role::S) => self.update_sum(rec, sen),
            (Role::S, Role::A) => self.update_sum(sen, rec),
            _ => {}
        }
        if rec.role == Role::A && sen.role == Role::A && rec.epoch == sen.epoch {
            // Subprotocol 5: Propagate-Max-G.R.V.
            let m = rec.gr.max(sen.gr);
            rec.gr = m;
            sen.gr = m;
        }
        self.settle_output(rec, sen);
    }
}

/// Maximum values each field reached, sampled at convergence checks —
/// the empirical counterpart of Lemma 3.9's state-complexity table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FieldMaxima {
    /// Max `logSize2` observed.
    pub log_size2: u64,
    /// Max `gr` observed.
    pub gr: u64,
    /// Max `time` observed.
    pub time: u64,
    /// Max `epoch` observed.
    pub epoch: u64,
    /// Max `sum` observed.
    pub sum: u64,
}

impl FieldMaxima {
    /// Folds one observed state into the running maxima.
    pub fn absorb(&mut self, s: &MainState) {
        self.log_size2 = self.log_size2.max(s.log_size2);
        self.gr = self.gr.max(s.gr);
        self.time = self.time.max(s.time);
        self.epoch = self.epoch.max(s.epoch);
        self.sum = self.sum.max(s.sum);
    }

    /// A conservative count of distinct states implied by the observed field
    /// ranges (the product over fields, times roles and flags) — the
    /// quantity Lemma 3.9 bounds by `O(log⁴ n)` *per role* via space
    /// multiplexing: A agents store `(logSize2, gr, time, epoch)`, S agents
    /// `(logSize2, epoch, sum)`.
    pub fn state_count_estimate(&self) -> u128 {
        let a_states = (self.log_size2 as u128 + 1)
            * (self.gr as u128 + 1)
            * (self.time as u128 + 1)
            * (self.epoch as u128 + 1);
        let s_states =
            (self.log_size2 as u128 + 1) * (self.epoch as u128 + 1) * (self.sum as u128 + 1);
        a_states + s_states
    }
}

impl Observer<MainState> for FieldMaxima {
    /// Absorbs every occupied state at each checkpoint (counts are
    /// irrelevant — maxima are a property of the occupied support).
    fn observe(&mut self, _time: f64, _interactions: u64, view: &[(MainState, u64)]) {
        for (s, _) in view {
            self.absorb(s);
        }
    }
}

/// Result of one full run of the size-estimation protocol.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EstimateOutcome {
    /// The common converged output (`None` if the run hit its time budget
    /// before converging).
    pub output: Option<u64>,
    /// Parallel time at convergence (or at budget exhaustion).
    pub time: f64,
    /// Whether the run converged within the budget.
    pub converged: bool,
    /// Observed field maxima (Lemma 3.9 empirics).
    pub maxima: FieldMaxima,
}

impl EstimateOutcome {
    /// Signed additive error `output − log2 n`.
    pub fn error(&self, n: u64) -> Option<f64> {
        self.output.map(|k| k as f64 - (n as f64).log2())
    }
}

/// Checks whether the population has converged: every agent is done, has an
/// output, and all outputs agree.
pub fn is_converged(states: &[MainState]) -> bool {
    let mut common: Option<u64> = None;
    for s in states {
        if !converged_into(s, &mut common) {
            return false;
        }
    }
    true
}

/// Count-level convergence check over a decoded configuration: every
/// *occupied* state is done with the same output (counts are irrelevant —
/// convergence is a property of the occupied support).
pub fn is_converged_counts(states: &[(MainState, u64)]) -> bool {
    let mut common: Option<u64> = None;
    states.iter().all(|(s, _)| converged_into(s, &mut common))
}

fn converged_into(s: &MainState, common: &mut Option<u64>) -> bool {
    if !s.protocol_done {
        return false;
    }
    match (s.output, *common) {
        (None, _) => false,
        (Some(v), None) => {
            *common = Some(v);
            true
        }
        (Some(v), Some(c)) => v == c,
    }
}

/// The default convergence-time budget, from the phase-clock accounting.
///
/// Each of the `5·logSize2` epochs lasts until an agent counts
/// `95·logSize2` interactions ≈ `47.5·logSize2` parallel time, so the run
/// takes ≈ `240·logSize2²` time, with `logSize2 ≤ 2 log n + 3` w.h.p.
/// (Lemma 3.8 plus the +2 offset). The budget below doubles that for
/// restarts and stragglers.
///
/// Note: this is *larger* than the paper's Corollary 3.10 budget
/// `(11 log n + 1)·24 ln n`, whose constant charges each epoch only the
/// `24 ln n` epidemic time and not the full `95·logSize2` clock the
/// protocol actually waits out — the `O(log² n)` shape is right, the
/// constant is optimistic (see EXPERIMENTS.md).
pub fn default_time_budget(n: u64) -> f64 {
    let ls_max = 2.0 * (n as f64).log2() + 3.0;
    500.0 * ls_max * ls_max + 1_000.0
}

/// Runs `Log-Size-Estimation` on `n` agents with the given seed and time
/// budget, returning the converged estimate (Theorem 3.1's `k`).
///
/// Runs on the unified count engine ([`EngineMode::Auto`]): the protocol
/// is interned onto the configuration-vector simulators, which store one
/// count per *occupied* state instead of one record per agent, check
/// convergence in `O(k)` instead of `O(n)`, and garbage-collect the
/// interned table as the per-interaction counters inside the states churn
/// — so memory stays bounded by the live support (`O(log⁴ n)` by
/// Lemma 3.9) on arbitrarily long runs. Use [`estimate_agentwise`] to pin
/// the per-agent engine for cross-engine validation.
///
/// A budget of `None` uses [`default_time_budget`].
///
/// ```
/// use pp_core::log_size::estimate_log_size;
///
/// let out = estimate_log_size(100, 42, None);
/// assert!(out.converged);
/// let k = out.output.unwrap() as f64;
/// // Theorem 3.1: within additive 5.7 of log2(100) ≈ 6.64.
/// assert!((k - 100f64.log2()).abs() <= 5.7);
/// ```
pub fn estimate_log_size(n: usize, seed: u64, max_time: Option<f64>) -> EstimateOutcome {
    estimate_with(LogSizeEstimation::paper(), n, seed, max_time)
}

/// [`estimate_log_size`] with explicit protocol constants (count engine,
/// like every default run).
pub fn estimate_with(
    protocol: LogSizeEstimation,
    n: usize,
    seed: u64,
    max_time: Option<f64>,
) -> EstimateOutcome {
    estimate_in_mode(protocol, n, seed, max_time, EngineMode::Auto.into())
}

/// [`estimate_with`] pinned to the per-agent engine
/// ([`pp_engine::SimMode::Agent`]): one record per agent, no interning.
/// The statistical-equivalence suite (`tests/unified_equivalence.rs`)
/// holds this and the count-engine default to the same output and time
/// distributions; protocol-property tests that don't care about engine
/// selection also use it, as the per-agent array is faster at the small
/// populations they run.
pub fn estimate_agentwise(
    protocol: LogSizeEstimation,
    n: usize,
    seed: u64,
    max_time: Option<f64>,
) -> EstimateOutcome {
    estimate_in_mode(protocol, n, seed, max_time, pp_engine::SimMode::Agent)
}

/// The one builder invocation behind every `Log-Size-Estimation` run:
/// engine choice is the only thing the `estimate_*` conveniences differ
/// in. Public as the registry's engine-selection hook
/// (`.mode(ctx.engine)` shaped).
pub fn estimate_in_mode(
    protocol: LogSizeEstimation,
    n: usize,
    seed: u64,
    max_time: Option<f64>,
    mode: pp_engine::SimMode,
) -> EstimateOutcome {
    let budget = max_time.unwrap_or_else(|| default_time_budget(n as u64));
    let mut maxima = FieldMaxima::default();
    let (out, output) = {
        let (out, sim) = Simulation::builder(protocol)
            .size(n as u64)
            .seed(seed)
            .mode(mode)
            .max_time(budget)
            .observe(&mut maxima)
            .until(|view: &[(MainState, u64)]| is_converged_counts(view))
            .run();
        let output = if out.converged {
            sim.view().first().and_then(|(s, _)| s.output)
        } else {
            None
        };
        (out, output)
    };
    EstimateOutcome {
        output,
        time: out.time,
        converged: out.converged,
        maxima,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::rng::rng_from_seed;

    #[test]
    fn partition_assigns_roles() {
        let p = LogSizeEstimation::paper();
        let mut rng = rng_from_seed(0);
        let mut rec = MainState::initial();
        let mut sen = MainState::initial();
        p.partition(&mut rec, &mut sen, &mut rng);
        assert_eq!(sen.role, Role::A);
        assert_eq!(rec.role, Role::S);
        assert!(sen.log_size2 >= 3, "A agent sampled logSize2 + 2");
    }

    #[test]
    fn partition_balances_via_second_rules() {
        let p = LogSizeEstimation::paper();
        let mut rng = rng_from_seed(1);
        // A meets X: X becomes S.
        let mut rec = MainState::initial();
        let mut sen = MainState::initial();
        sen.role = Role::A;
        p.partition(&mut rec, &mut sen, &mut rng);
        assert_eq!(rec.role, Role::S);
        // S meets X: X becomes A.
        let mut rec = MainState::initial();
        let mut sen = MainState::initial();
        sen.role = Role::S;
        p.partition(&mut rec, &mut sen, &mut rng);
        assert_eq!(rec.role, Role::A);
    }

    #[test]
    fn adopting_larger_logsize2_restarts() {
        let p = LogSizeEstimation::paper();
        let mut rng = rng_from_seed(2);
        let mut a = MainState::initial();
        a.role = Role::A;
        a.log_size2 = 4;
        a.epoch = 3;
        a.sum = 17;
        let mut b = MainState::initial();
        b.role = Role::A;
        b.log_size2 = 9;
        b.epoch = 1;
        p.propagate_max_clock(&mut a, &mut b, &mut rng);
        assert_eq!(a.log_size2, 9);
        assert_eq!(a.epoch, 0, "restart cleared epoch");
        assert_eq!(a.sum, 0, "restart cleared sum");
        assert_eq!(b.epoch, 1, "holder unaffected");
    }

    #[test]
    fn timer_requires_delivery_before_advancing() {
        let p = LogSizeEstimation::paper();
        let mut rng = rng_from_seed(3);
        let mut a = MainState::initial();
        a.role = Role::A;
        a.log_size2 = 3;
        a.time = 95 * 3 + 10;
        a.updated_sum = false;
        p.check_timer(&mut a, &mut rng);
        assert_eq!(a.epoch, 0, "no advance without delivery");
        a.updated_sum = true;
        p.check_timer(&mut a, &mut rng);
        assert_eq!(a.epoch, 1);
        assert_eq!(a.time, 0, "clock reset");
        assert!(!a.updated_sum, "fresh epoch needs a fresh delivery");
    }

    #[test]
    fn update_sum_delivers_once_per_epoch() {
        let p = LogSizeEstimation::paper();
        let mut a = MainState::initial();
        a.role = Role::A;
        a.log_size2 = 3;
        a.gr = 7;
        a.time = 95 * 3;
        let mut s = MainState::initial();
        s.role = Role::S;
        p.update_sum(&mut a, &mut s);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.sum, 7);
        assert!(a.updated_sum);
        // A second same-epoch A agent now sees s.epoch > its epoch and just
        // marks itself delivered without double-counting.
        let mut a2 = MainState::initial();
        a2.role = Role::A;
        a2.log_size2 = 3;
        a2.gr = 100;
        a2.time = 95 * 3;
        p.update_sum(&mut a2, &mut s);
        assert_eq!(s.sum, 7, "no double delivery");
        assert!(a2.updated_sum);
    }

    #[test]
    fn s_agents_reconcile_equal_epoch_sums() {
        let p = LogSizeEstimation::paper();
        let mut rng = rng_from_seed(4);
        let mut s1 = MainState::initial();
        s1.role = Role::S;
        s1.epoch = 3;
        s1.sum = 20;
        let mut s2 = MainState::initial();
        s2.role = Role::S;
        s2.epoch = 3;
        s2.sum = 25;
        p.propagate_epoch(&mut s1, &mut s2, &mut rng);
        assert_eq!(s1.sum, 25);
        assert_eq!(s2.sum, 25);
    }

    #[test]
    fn small_population_converges_with_accurate_output() {
        let n = 200;
        let out = estimate_log_size(n, 42, None);
        assert!(out.converged, "must converge within the budget");
        let k = out.output.expect("converged run has output") as f64;
        let logn = (n as f64).log2();
        assert!(
            (k - logn).abs() <= 5.7,
            "estimate {k} outside Theorem 3.1 band around {logn}"
        );
    }

    #[test]
    fn several_seeds_stay_in_band() {
        // Figure 2's companion claim: "in practice the estimate is always
        // within 2". Use the theorem band as the hard assertion and track
        // the tight band loosely. Pinned to the agent engine — the claim
        // is a protocol property, engine equivalence is covered by
        // `tests/unified_equivalence.rs`, and the per-agent array is the
        // faster engine at this population size.
        let n = 300;
        let mut within_2 = 0;
        let trials = 5;
        for seed in 0..trials {
            let out = estimate_agentwise(LogSizeEstimation::paper(), n, 1000 + seed, None);
            assert!(out.converged);
            let err = out.error(n as u64).unwrap().abs();
            assert!(err <= 5.7, "seed {seed}: error {err} breaks Theorem 3.1");
            if err <= 2.0 {
                within_2 += 1;
            }
        }
        assert!(
            within_2 >= trials - 1,
            "only {within_2}/{trials} within additive error 2"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = estimate_log_size(150, 7, None);
        let b = estimate_log_size(150, 7, None);
        assert_eq!(a.output, b.output);
        assert_eq!(a.time, b.time);
    }

    #[test]
    fn field_maxima_respect_lemma_3_9_ranges() {
        // Agent engine: a protocol-property check (see
        // `several_seeds_stay_in_band` for the pinning rationale).
        let n = 400u64;
        let out = estimate_agentwise(LogSizeEstimation::paper(), n as usize, 11, None);
        assert!(out.converged);
        let logn = (n as f64).log2();
        let m = out.maxima;
        assert!((m.log_size2 as f64) <= 2.0 * logn + 1.0 + 2.0);
        // gr is the max over ~K·|A| ≈ n·log n geometric samples across the
        // whole run, so allow a few units of slack beyond the per-epoch
        // w.h.p. range of Corollary A.2.
        assert!((m.gr as f64) <= 2.0 * logn + 6.0);
        assert!((m.time as f64) <= 191.0 * logn * 1.5);
        assert!((m.epoch as f64) <= 11.0 * logn);
        assert!((m.sum as f64) <= 22.0 * logn * logn);
        assert!(m.state_count_estimate() > 0);
    }

    #[test]
    fn is_converged_detects_disagreement() {
        let mut s1 = MainState::initial();
        s1.protocol_done = true;
        s1.output = Some(5);
        let mut s2 = s1.clone();
        assert!(is_converged(&[s1.clone(), s2.clone()]));
        s2.output = Some(6);
        assert!(!is_converged(&[s1.clone(), s2.clone()]));
        s2.output = None;
        assert!(!is_converged(&[s1.clone(), s2.clone()]));
        s2.output = Some(5);
        s2.protocol_done = false;
        assert!(!is_converged(&[s1, s2]));
    }

    #[test]
    fn gc_bounds_interned_table_to_live_support() {
        // The acceptance check behind running `estimate_log_size` on the
        // count engine by default: the protocol's per-interaction counters
        // mint fresh record states constantly (A agents bump `time` every
        // interaction, even after convergence), so without GC the interned
        // table grows without bound. With GC it must stay within a small
        // multiple of the live support, for as long as the run continues.
        use pp_engine::batch::ConfigSim;
        use pp_engine::Interned;

        let n = 200usize;
        let interned = Interned::new(LogSizeEstimation::paper());
        let handle = interned.handle();
        let config = interned.uniform_config(n as u64);
        let mut sim = ConfigSim::new(interned, config, 42);
        // Sub-`n` advance budgets keep the dense per-agent lane (which
        // compacts the table itself, masking GC) disengaged, so this run
        // exercises the per-interaction interning path the GC serves;
        // the lane-active bound is covered by the `dense_lane_*` tests
        // in pp-engine.
        let out = sim.run_until(
            |c| is_converged_counts(&handle.decode(c)),
            (n / 2) as u64,
            default_time_budget(n as u64),
        );
        assert!(out.converged);
        // Keep churning well past convergence: the table bound must hold
        // in steady state, not just at the convergence checkpoint.
        for _ in 0..out.interactions / (n as u64) {
            sim.steps((n / 2) as u64);
        }
        let live = sim.config_view().support_size();
        let table = handle.discovered();
        assert!(
            sim.gc_collections() >= 1,
            "a full Log-Size-Estimation run must trigger interner GC"
        );
        assert!(
            // The trigger fires past max(1024, 4·live) at a ~√n-chunk
            // checkpoint; 6·live + 1200 dominates that with slack for
            // between-checkpoint growth.
            table <= 6 * live + 1_200,
            "interned table ({table} slots) not bounded by live support ({live})"
        );
        assert!(
            (handle.total_interned() as usize) > 2 * table,
            "workload minted too few dead states ({} total) to prove the bound",
            handle.total_interned()
        );
    }

    #[test]
    fn two_agents_still_make_progress() {
        // Degenerate n = 2: one A, one S. The protocol should still converge
        // (the estimate will be poor, but nothing deadlocks).
        let out = estimate_log_size(2, 5, Some(500_000.0));
        assert!(out.converged, "n=2 deadlocked");
    }
}
