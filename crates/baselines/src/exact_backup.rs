//! The slow exact `l_i / f_i` backup protocol of §3.3, standalone.
//!
//! Transitions (all agents start as `l_0`):
//!
//! ```text
//! l_i, l_i -> l_{i+1}, f_{i+1}
//! f_i, f_j -> f_i, f_i           for j < i
//! ```
//!
//! Level-`i` leaders pair up and carry like a binary counter, so the
//! surviving leaders sit exactly at the set bits of `n`'s binary expansion
//! and the maximum level ever created is `⌊log2 n⌋` — reached with
//! probability 1 in `O(n)` expected time (the last two leaders of a level
//! need `Θ(n)` time to find each other).
//!
//! Implemented as a [`DeterministicCountProtocol`] so the `O(n)`-time
//! experiments run at `n = 10^6` and beyond: the state space is only
//! `O(log n)` values, and the long null-dominated tail (the last two
//! leaders of a level searching for each other) is exactly what the
//! batched engine's Gillespie-style null skipping accelerates.

use pp_engine::batch::DeterministicCountProtocol;
use pp_engine::Simulation;

/// Backup state: leader or follower at a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BackupState {
    /// `l_level`: an unmerged leader of its level.
    Leader(u32),
    /// `f_level`: a follower carrying the level it last heard.
    Follower(u32),
}

impl BackupState {
    /// The subscript (the value the agent reports).
    pub fn level(self) -> u32 {
        match self {
            BackupState::Leader(i) | BackupState::Follower(i) => i,
        }
    }
}

/// The exact backup protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactBackup;

impl DeterministicCountProtocol for ExactBackup {
    type State = BackupState;

    fn transition_det(&self, rec: BackupState, sen: BackupState) -> (BackupState, BackupState) {
        use BackupState::*;
        match (rec, sen) {
            (Leader(i), Leader(j)) if i == j => (Leader(i + 1), Follower(i + 1)),
            (Follower(i), Follower(j)) if i != j => {
                let m = i.max(j);
                (Follower(m), Follower(m))
            }
            other => other,
        }
    }
}

/// Outcome of a backup run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BackupOutcome {
    /// The maximum level reached (must equal `⌊log2 n⌋` at stabilization).
    pub max_level: u32,
    /// Parallel time until the level structure was silent (no two leaders
    /// share a level).
    pub silent_time: f64,
    /// The multiset of surviving leader levels — the set bits of `n`.
    pub leader_levels: Vec<u32>,
}

/// Runs the backup to silence (no same-level leader pair remains) on the
/// count engines — batched with null skipping at large `n`.
pub fn run_backup(n: u64, seed: u64) -> BackupOutcome {
    let (out, sim) = Simulation::count_builder(ExactBackup)
        .size(n)
        .uniform(BackupState::Leader(0))
        .seed(seed)
        .check_every((n / 4).max(1))
        .until(|view| {
            // Silent when every leader level has count ≤ 1.
            view.iter().all(|(s, k)| match s {
                BackupState::Leader(_) => *k <= 1,
                BackupState::Follower(_) => true,
            })
        })
        .run();
    debug_assert!(out.converged);
    let final_view = sim.view();
    let mut leader_levels: Vec<u32> = final_view
        .iter()
        .filter_map(|(s, k)| match s {
            BackupState::Leader(i) if *k > 0 => Some(*i),
            _ => None,
        })
        .collect();
    leader_levels.sort_unstable();
    let max_level = final_view.iter().map(|(s, _)| s.level()).max().unwrap_or(0);
    BackupOutcome {
        max_level,
        silent_time: out.time,
        leader_levels,
    }
}

/// The value the backup computes: `⌊log2 n⌋`.
pub fn expected_kex(n: u64) -> u32 {
    assert!(n >= 1);
    63 - n.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_engine::count_sim::CountConfiguration;
    use pp_engine::simulation::view_population;
    use pp_engine::{ConfigSim, EngineMode};

    #[test]
    fn expected_kex_is_floor_log2() {
        assert_eq!(expected_kex(1), 0);
        assert_eq!(expected_kex(2), 1);
        assert_eq!(expected_kex(3), 1);
        assert_eq!(expected_kex(4), 2);
        assert_eq!(expected_kex(1023), 9);
        assert_eq!(expected_kex(1024), 10);
    }

    #[test]
    fn backup_computes_floor_log2_exactly() {
        for n in [64u64, 100, 255, 256, 1000] {
            let out = run_backup(n, n);
            assert_eq!(
                out.max_level,
                expected_kex(n),
                "n={n}: got {}",
                out.max_level
            );
        }
    }

    #[test]
    fn surviving_leaders_are_binary_expansion() {
        // n = 100 = 0b1100100: surviving leader levels must sum 2^i = 100.
        let out = run_backup(100, 7);
        let total: u64 = out.leader_levels.iter().map(|&i| 1u64 << i).sum();
        assert_eq!(total, 100, "leader levels {:?}", out.leader_levels);
    }

    #[test]
    fn leaders_at_distinct_levels_never_interact() {
        let p = ExactBackup;
        let (a, b) = p.transition_det(BackupState::Leader(2), BackupState::Leader(5));
        assert_eq!(a, BackupState::Leader(2));
        assert_eq!(b, BackupState::Leader(5));
    }

    #[test]
    fn stabilization_time_grows_linearly() {
        // O(n) time: mean silent time at n=2000 should be several times the
        // n=250 one (≈ 8x for linear scaling; accept > 3x to be robust).
        let trials = 6;
        let t_small: f64 = (0..trials)
            .map(|s| run_backup(250, 100 + s).silent_time)
            .sum::<f64>()
            / trials as f64;
        let t_large: f64 = (0..trials)
            .map(|s| run_backup(2000, 200 + s).silent_time)
            .sum::<f64>()
            / trials as f64;
        assert!(
            t_large / t_small > 3.0,
            "expected linear growth, got {t_small} -> {t_large}"
        );
    }

    #[test]
    fn population_is_conserved_through_merges() {
        let config = CountConfiguration::uniform(BackupState::Leader(0), 500);
        let mut sim = ConfigSim::with_mode(ExactBackup, config, 3, EngineMode::Auto);
        sim.steps(10_000);
        let mut view = Vec::new();
        sim.view_into(&mut view);
        assert_eq!(view_population(&view), 500);
    }
}
