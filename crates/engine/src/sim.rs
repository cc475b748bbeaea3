//! [`AgentSim`]: the per-agent-state simulator.
//!
//! Stores one state struct per agent and applies interactions drawn from the
//! uniform pair scheduler. This is the simulator used for the paper's main
//! protocols, whose states are records of `O(log log n)`-bit counters.
//! Its interaction loop, `run_pairs`, is also the interned count engine's
//! dense lane: one loop runs every per-agent interaction in the crate.

use crate::protocol::{Protocol, SeededInit};
use crate::rng::{rng_from_seed, SimRng};
use crate::scheduler::{parallel_time, PairScheduler};

/// The per-agent interaction loop: runs `budget` interactions on `agents`
/// in place. Shared by [`AgentSim`] and the interned adapter's dense lane,
/// so both execute one trajectory law with one loop.
///
/// Each interaction draws `(rec, sen)` with
/// [`PairScheduler::next_pair`] (two RNG words) and hands the two agents to
/// [`Protocol::interact`] in that order. `get_disjoint_mut` borrows both at
/// once, so no branch on which index is lower; `rng` and `agents` are
/// separate borrows, so the RNG state can stay in registers.
///
/// # Panics
///
/// Panics if `agents` has fewer than 2 agents.
#[inline]
pub(crate) fn run_pairs<P: Protocol>(
    protocol: &P,
    agents: &mut [P::State],
    rng: &mut SimRng,
    budget: u64,
) {
    let scheduler = PairScheduler::new(agents.len());
    for _ in 0..budget {
        let pair = scheduler.next_pair(rng);
        let [rec, sen] = agents
            .get_disjoint_mut([pair.receiver, pair.sender])
            .expect("the scheduler draws two distinct in-range agents");
        protocol.interact(rec, sen, rng);
    }
}

/// Outcome of running a simulation until a predicate holds (or a budget ends).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunOutcome {
    /// Whether the stopping predicate was satisfied within the budget.
    pub converged: bool,
    /// Parallel time (interactions / n) at which the run stopped.
    pub time: f64,
    /// Total interactions executed.
    pub interactions: u64,
}

/// A sequential simulator holding an explicit state per agent.
pub struct AgentSim<P: Protocol> {
    protocol: P,
    states: Vec<P::State>,
    rng: SimRng,
    interactions: u64,
}

impl<P: Protocol> AgentSim<P> {
    /// Creates a population of `n` agents, all in the protocol's initial
    /// state, with all randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`; a single agent can never interact.
    pub fn new(protocol: P, n: usize, seed: u64) -> Self {
        let states = vec![protocol.initial_state(); n];
        Self::from_snapshot_parts(protocol, states, rng_from_seed(seed), 0)
    }

    /// Creates a population whose initial states come from
    /// [`SeededInit::init_state`] (harness-level input assignment).
    pub fn with_inputs(protocol: P, n: usize, seed: u64) -> Self
    where
        P: SeededInit,
    {
        let states = (0..n).map(|i| protocol.init_state(i, n)).collect();
        Self::from_snapshot_parts(protocol, states, rng_from_seed(seed), 0)
    }

    /// Rebuilds a simulator from checkpoint parts. The pair draw is a
    /// function of the population size alone, so `(states, rng,
    /// interactions)` is the simulator's entire mutable state: a restored
    /// run continues byte-for-byte identically to the snapshotted one.
    pub(crate) fn from_snapshot_parts(
        protocol: P,
        states: Vec<P::State>,
        rng: SimRng,
        interactions: u64,
    ) -> Self {
        let n = states.len();
        assert!(n >= 2, "population must have at least 2 agents, got {n}");
        Self {
            protocol,
            states,
            rng,
            interactions,
        }
    }

    /// Checkpoint accessor: the RNG stream.
    pub(crate) fn rng(&self) -> &SimRng {
        &self.rng
    }

    /// Population size.
    pub fn population_size(&self) -> usize {
        self.states.len()
    }

    /// Parallel time elapsed so far.
    pub fn time(&self) -> f64 {
        parallel_time(self.interactions, self.states.len())
    }

    /// Total interactions executed so far.
    pub fn interactions(&self) -> u64 {
        self.interactions
    }

    /// Immutable view of all agent states.
    pub fn states(&self) -> &[P::State] {
        &self.states
    }

    /// The protocol being simulated.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Overwrites the state of agent `index` (used to plant an initial
    /// leader for the Theorem 3.13 variant).
    pub fn set_state(&mut self, index: usize, state: P::State) {
        self.states[index] = state;
    }

    /// Executes a single interaction.
    pub fn step(&mut self) {
        self.steps(1);
    }

    /// Executes `k` interactions.
    pub fn steps(&mut self, k: u64) {
        run_pairs(&self.protocol, &mut self.states, &mut self.rng, k);
        self.interactions += k;
    }

    /// Runs until `k` interactions total have been executed (no-op if already
    /// past `k`).
    pub fn run_until_interactions(&mut self, k: u64) {
        self.steps(k.saturating_sub(self.interactions));
    }

    /// Runs until parallel time `t` has elapsed.
    pub fn run_for_time(&mut self, t: f64) {
        let target = (t * self.states.len() as f64).ceil() as u64;
        self.run_until_interactions(self.interactions + target);
    }

    /// Runs until `predicate` holds over the full state slice, checking every
    /// `check_every` interactions, up to a parallel-time budget `max_time`.
    ///
    /// The predicate is also evaluated once before any interaction, so a
    /// population that starts converged reports `time == 0`.
    pub fn run_until(
        &mut self,
        mut predicate: impl FnMut(&[P::State]) -> bool,
        check_every: u64,
        max_time: f64,
    ) -> RunOutcome {
        assert!(check_every > 0, "check_every must be positive");
        let n = self.states.len();
        let max_interactions = (max_time * n as f64).ceil() as u64;
        if predicate(&self.states) {
            return RunOutcome {
                converged: true,
                time: self.time(),
                interactions: self.interactions,
            };
        }
        while self.interactions < max_interactions {
            let burst = check_every.min(max_interactions - self.interactions);
            self.steps(burst);
            if predicate(&self.states) {
                return RunOutcome {
                    converged: true,
                    time: self.time(),
                    interactions: self.interactions,
                };
            }
        }
        RunOutcome {
            converged: false,
            time: self.time(),
            interactions: self.interactions,
        }
    }

    /// Convenience: runs until convergence checking once per `n` interactions
    /// (once per parallel-time unit), the cadence used by all experiments.
    pub fn run_until_converged(
        &mut self,
        predicate: impl FnMut(&[P::State]) -> bool,
        max_time: f64,
    ) -> RunOutcome {
        let n = self.states.len() as u64;
        self.run_until(predicate, n, max_time)
    }
}

impl<P: Protocol> std::fmt::Debug for AgentSim<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentSim")
            .field("n", &self.states.len())
            .field("interactions", &self.interactions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use rand::Rng;

    /// Epidemic: the receiver becomes infected if the sender is.
    struct Epidemic;

    impl Protocol for Epidemic {
        type State = bool;

        fn initial_state(&self) -> bool {
            false
        }

        fn interact(&self, rec: &mut bool, sen: &mut bool, _rng: &mut SimRng) {
            if *sen {
                *rec = true;
            }
        }
    }

    #[test]
    fn epidemic_reaches_everyone() {
        let mut sim = AgentSim::new(Epidemic, 200, 42);
        sim.set_state(0, true);
        let outcome = sim.run_until_converged(|s| s.iter().all(|&x| x), 200.0);
        assert!(outcome.converged);
        // Epidemic completes in ~2 ln n expected parallel time; 200 is ample.
        assert!(outcome.time < 100.0);
    }

    #[test]
    fn epidemic_time_scales_logarithmically() {
        // E[T] = (n-1)/n * H_{n-1} ≈ ln n. Check the mean over a few trials
        // sits well below, say, 3 ln n and above 0.5 ln n.
        let n = 1000;
        let mut total = 0.0;
        let trials = 10;
        for t in 0..trials {
            let mut sim = AgentSim::new(Epidemic, n, 100 + t);
            sim.set_state(0, true);
            let out = sim.run_until(|s| s.iter().all(|&x| x), 50, 200.0);
            assert!(out.converged);
            total += out.time;
        }
        let mean = total / trials as f64;
        let ln_n = (n as f64).ln();
        assert!(mean > 0.5 * ln_n && mean < 3.0 * ln_n, "mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut sim = AgentSim::new(Epidemic, 50, seed);
            sim.set_state(0, true);
            sim.run_until_converged(|s| s.iter().all(|&x| x), 100.0)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.interactions, b.interactions);
        assert_ne!(run(8).interactions, 0);
    }

    #[test]
    fn converged_start_reports_zero_time() {
        let mut sim = AgentSim::new(Epidemic, 10, 0);
        let out = sim.run_until_converged(|s| s.iter().all(|&x| !x), 1.0);
        assert!(out.converged);
        assert_eq!(out.time, 0.0);
        assert_eq!(out.interactions, 0);
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let mut sim = AgentSim::new(Epidemic, 10, 0);
        // Nobody is infected, so full infection never happens.
        let out = sim.run_until_converged(|s| s.iter().all(|&x| x), 5.0);
        assert!(!out.converged);
        assert!(out.time >= 5.0);
    }

    /// Order-sensitive protocol: receiver records that it received.
    struct OrderSensitive;

    impl Protocol for OrderSensitive {
        type State = (u32, u32); // (times as receiver, times as sender)

        fn initial_state(&self) -> (u32, u32) {
            (0, 0)
        }

        fn interact(&self, rec: &mut (u32, u32), sen: &mut (u32, u32), _rng: &mut SimRng) {
            rec.0 += 1;
            sen.1 += 1;
        }
    }

    #[test]
    fn receiver_sender_roles_are_balanced() {
        // Each agent should be receiver and sender roughly equally often —
        // this is the fair coin the synthetic-coin construction relies on.
        let mut sim = AgentSim::new(OrderSensitive, 20, 9);
        sim.steps(100_000);
        let (total_rec, total_sen) = sim.states().iter().fold((0u64, 0u64), |acc, s| {
            (acc.0 + s.0 as u64, acc.1 + s.1 as u64)
        });
        assert_eq!(total_rec, 100_000);
        assert_eq!(total_sen, 100_000);
        for s in sim.states() {
            let tot = (s.0 + s.1) as f64;
            let frac = s.0 as f64 / tot;
            assert!(
                (0.4..=0.6).contains(&frac),
                "receiver fraction {frac} biased"
            );
        }
    }

    /// A protocol that consumes randomness — used to confirm the RNG is
    /// threaded through and deterministic.
    struct RandomWalk;

    impl Protocol for RandomWalk {
        type State = i64;

        fn initial_state(&self) -> i64 {
            0
        }

        fn interact(&self, rec: &mut i64, _sen: &mut i64, rng: &mut SimRng) {
            *rec += if rng.gen::<bool>() { 1 } else { -1 };
        }
    }

    #[test]
    fn random_protocol_is_reproducible() {
        let run = |seed: u64| {
            let mut sim = AgentSim::new(RandomWalk, 10, seed);
            sim.steps(10_000);
            sim.states().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    /// Asymmetric and randomized: the receiver records its partner and
    /// counts its receptions; the sender sometimes flips a coin bit. Any
    /// swap of the two roles, or any shift of the RNG stream, shows.
    struct RecordPartner;

    #[derive(Clone, Debug, PartialEq)]
    struct Tagged {
        id: usize,
        partner: usize,
        received: u32,
        coin: bool,
    }

    impl Protocol for RecordPartner {
        type State = Tagged;

        fn initial_state(&self) -> Tagged {
            Tagged {
                id: 0,
                partner: usize::MAX,
                received: 0,
                coin: false,
            }
        }

        fn interact(&self, rec: &mut Tagged, sen: &mut Tagged, rng: &mut SimRng) {
            rec.partner = sen.id;
            rec.received += 1;
            if rec.received % 3 == 0 {
                sen.coin ^= rng.gen::<bool>();
            }
        }
    }

    impl SeededInit for RecordPartner {
        fn init_state(&self, index: usize, _n: usize) -> Tagged {
            Tagged {
                id: index,
                ..self.initial_state()
            }
        }
    }

    /// The interaction loop `AgentSim` and the dense lane each ran before
    /// they shared [`run_pairs`]: split the slice at the higher index and
    /// branch on which of the pair is the receiver.
    fn split_and_branch<P: Protocol>(
        protocol: &P,
        agents: &mut [P::State],
        rng: &mut SimRng,
        budget: u64,
    ) {
        let scheduler = PairScheduler::new(agents.len());
        for _ in 0..budget {
            let pair = scheduler.next_pair(rng);
            let (lo, hi) = (
                pair.receiver.min(pair.sender),
                pair.receiver.max(pair.sender),
            );
            let (left, right) = agents.split_at_mut(hi);
            let (first, second) = (&mut left[lo], &mut right[0]);
            if pair.receiver < pair.sender {
                protocol.interact(first, second, rng);
            } else {
                protocol.interact(second, first, rng);
            }
        }
    }

    #[test]
    fn run_pairs_matches_the_split_and_branch_loop() {
        for n in [2usize, 3, 4, 7, 64, 1000] {
            for seed in 0..4u64 {
                let start: Vec<Tagged> = (0..n).map(|i| RecordPartner.init_state(i, n)).collect();
                let budget = 20 * n as u64;
                let (mut kernel, mut reference) = (start.clone(), start);
                let mut kernel_rng = rng_from_seed(seed);
                let mut reference_rng = rng_from_seed(seed);
                run_pairs(&RecordPartner, &mut kernel, &mut kernel_rng, budget);
                split_and_branch(&RecordPartner, &mut reference, &mut reference_rng, budget);
                assert_eq!(kernel, reference, "states differ at n = {n}, seed {seed}");
                assert_eq!(
                    kernel_rng.state(),
                    reference_rng.state(),
                    "RNG position differs at n = {n}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn steps_equal_repeated_single_steps() {
        for (n, seed) in [(2usize, 1u64), (5, 2), (300, 3)] {
            let mut batched = AgentSim::with_inputs(RecordPartner, n, seed);
            let mut single = AgentSim::with_inputs(RecordPartner, n, seed);
            batched.steps(1_234);
            for _ in 0..1_234 {
                single.step();
            }
            assert_eq!(batched.states(), single.states());
            assert_eq!(batched.rng().state(), single.rng().state());
            assert_eq!(batched.interactions(), single.interactions());
        }
    }

    /// Logs every `(rec, sen)` pair it sees; the state is the agent's index.
    struct PairLog(std::cell::RefCell<Vec<(usize, usize)>>);

    impl Protocol for PairLog {
        type State = usize;

        fn initial_state(&self) -> usize {
            0
        }

        fn interact(&self, rec: &mut usize, sen: &mut usize, _rng: &mut SimRng) {
            self.0.borrow_mut().push((*rec, *sen));
        }
    }

    #[test]
    fn run_pairs_draws_the_schedulers_pairs() {
        for n in [2usize, 3, 10, 513] {
            let log = PairLog(std::cell::RefCell::default());
            let mut agents: Vec<usize> = (0..n).collect();
            let mut rng = rng_from_seed(n as u64);
            run_pairs(&log, &mut agents, &mut rng, 5_000);
            let scheduler = PairScheduler::new(n);
            let mut stream = rng_from_seed(n as u64);
            let expected: Vec<(usize, usize)> = (0..5_000)
                .map(|_| {
                    let pair = scheduler.next_pair(&mut stream);
                    (pair.receiver, pair.sender)
                })
                .collect();
            assert_eq!(log.0.into_inner(), expected);
            assert_eq!(rng.state(), stream.state());
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 agents")]
    fn rejects_a_single_agent() {
        AgentSim::new(Epidemic, 1, 0);
    }

    #[test]
    fn with_inputs_assigns_by_index() {
        struct Majority;
        impl Protocol for Majority {
            type State = u8;
            fn initial_state(&self) -> u8 {
                0
            }
            fn interact(&self, _r: &mut u8, _s: &mut u8, _rng: &mut SimRng) {}
        }
        impl SeededInit for Majority {
            fn init_state(&self, index: usize, n: usize) -> u8 {
                u8::from(index < n / 3)
            }
        }
        let sim = AgentSim::with_inputs(Majority, 9, 0);
        let ones = sim.states().iter().filter(|&&s| s == 1).count();
        assert_eq!(ones, 3);
    }
}
