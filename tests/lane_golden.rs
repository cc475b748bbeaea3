//! Golden trajectory digest for the dense per-agent lane.
//!
//! `Log-Size-Estimation` at `n = 500` under `EngineMode::Auto`, checked
//! every `n` interactions (the cadence `Simulation::run` uses), spends
//! nearly all of its interactions in the interned adapter's dense lane:
//! one expand → run → collapse episode per checkpoint. Every edit to the
//! lane's bracket (expansion order, collapse ranking, table and
//! configuration rebuilds) must leave the trajectory byte-identical, so
//! this test pins a CRC-32 over each checkpoint's
//! `(interactions, sorted decoded view)` record.
//!
//! The pinned values were recorded before the lane's buffers became
//! reusable; a mismatch means the trajectory itself changed, not just
//! its cost. The running digest is also pinned at every 1000th
//! checkpoint, so a failure names the window where the runs part.

use uniform_sizeest::engine::{crc32, Counter, EngineMode, Metrics, Simulation};
use uniform_sizeest::protocols::log_size::{is_converged_counts, LogSizeEstimation};
use uniform_sizeest::protocols::state::MainState;

const N: u64 = 500;
const SEED: u64 = 0x6c61_6e65;
/// Parallel-time cap: well past convergence at this size.
const MAX_TIME: f64 = 40_000.0;

/// The digest of one run: `(checkpoints, final interactions, converged,
/// running CRC at every 1000th checkpoint, final CRC)`.
type Digest = (u64, u64, bool, Vec<u32>, u32);

/// Runs the pinned trajectory with `metrics` attached (telemetry is
/// trajectory-neutral) and returns its digest.
fn run_digest(metrics: &Metrics) -> Digest {
    let mut running = 0u32;
    let mut checkpoints = 0u64;
    let mut marks = Vec::new();
    let mut record = Vec::new();
    let out = Simulation::builder(LogSizeEstimation::paper())
        .size(N)
        .seed(SEED)
        .mode(EngineMode::Auto)
        .check_every(N)
        .max_time(MAX_TIME)
        .metrics(metrics)
        .observe_with(|_t, interactions, view: &[(MainState, u64)]| {
            let mut sorted = view.to_vec();
            sorted.sort();
            record.clear();
            record.extend_from_slice(&running.to_le_bytes());
            record.extend_from_slice(format!("{interactions}:{sorted:?}").as_bytes());
            running = crc32(&record);
            checkpoints += 1;
            if checkpoints.is_multiple_of(1000) {
                marks.push(running);
            }
        })
        .until(is_converged_counts)
        .run()
        .0;
    (checkpoints, out.interactions, out.converged, marks, running)
}

#[test]
fn dense_lane_trajectory_matches_the_golden_digest() {
    let metrics = Metrics::new();
    let (checkpoints, interactions, converged, marks, digest) = run_digest(&metrics);
    assert!(converged, "the run did not converge within {MAX_TIME}");
    // The digest only guards the lane if the lane carries the run.
    let lane = metrics.counter(Counter::DenseLaneInteractions);
    assert!(
        lane * 5 > interactions * 4,
        "dense lane ran {lane} of {interactions} interactions"
    );
    assert_eq!(
        (checkpoints, interactions),
        (GOLDEN_CHECKPOINTS, GOLDEN_INTERACTIONS),
        "checkpoint count or convergence time moved"
    );
    for (i, (&got, &want)) in marks.iter().zip(GOLDEN_MARKS).enumerate() {
        assert_eq!(
            got,
            want,
            "trajectory diverged between checkpoints {} and {}",
            i * 1000,
            (i + 1) * 1000
        );
    }
    assert_eq!(marks.len(), GOLDEN_MARKS.len());
    assert_eq!(digest, GOLDEN_DIGEST, "final checkpoint digest moved");
}

const GOLDEN_CHECKPOINTS: u64 = 31_748;
const GOLDEN_INTERACTIONS: u64 = 15_873_500;
const GOLDEN_MARKS: &[u32] = &[
    4024891671, 745230889, 160386440, 3787297879, 1069324010, 609281588, 2003148885, 1660984301,
    1711787413, 2169820683, 1151037334, 3668204095, 1302808823, 3123003441, 2685887584, 2495074802,
    2974717123, 3384911886, 1162972000, 4260531190, 4045245542, 4078090967, 1664709263, 3241858093,
    3402636720, 527634866, 3051796101, 3597828235, 943569423, 320147807, 1736923695,
];
const GOLDEN_DIGEST: u32 = 0x6f08_32a5;
