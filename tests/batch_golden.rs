//! Golden trajectory digests for the batched count engine.
//!
//! Three protocols run under `EngineMode::Batched` at `n = 10⁵`, checked
//! every `n` interactions, each exercising a different part of the
//! collision-batching engine:
//!
//! * `WeakEstimator` — per-interaction sampled laws (the geometric
//!   sampling prefix), deterministic max-merge laws, the null-skip tail,
//!   and the collision interaction that closes every full batch;
//! * `GeometricTimer { scale: 8 }` — finite-support random laws
//!   (`Outcomes::Random`) split by exact multinomial draws;
//! * `InfectionEpidemic` — the classic deterministic epidemic, batches
//!   then the null-skipping tail.
//!
//! Every edit to the batch engine's bookkeeping (law table, pair scans,
//! fill) must leave these trajectories byte-identical, so each test pins
//! a CRC-32 chain over every checkpoint's `(interactions, sorted view)`
//! record; only a deliberate change to the samplers the engine draws
//! from re-records them. The running digest is also pinned at every 4th
//! checkpoint, so a failure names the window where the runs part.

use std::fmt::Debug;

use uniform_sizeest::baselines::alistarh::{WeakEstimator, WeakState};
use uniform_sizeest::baselines::naive_terminating::{GeoState, GeometricTimer};
use uniform_sizeest::engine::count_sim::CountProtocol;
use uniform_sizeest::engine::epidemic::InfectionEpidemic;
use uniform_sizeest::engine::{count_of, crc32, Counter, EngineMode, Metrics, Simulation};

const N: u64 = 100_000;
/// Parallel-time cap: well past completion for every protocol here.
const MAX_TIME: f64 = 500.0;
/// Checkpoints between pinned running digests.
const MARK_EVERY: u64 = 4;

/// The digest of one run: `(checkpoints, final interactions, converged,
/// running CRC at every 4th checkpoint, final CRC)`.
type Digest = (u64, u64, bool, Vec<u32>, u32);

/// Runs `protocol` from `config` on the batched engine to `until` (or
/// the time cap) with `metrics` attached (telemetry is
/// trajectory-neutral) and returns its digest.
fn run_digest<P>(
    protocol: P,
    config: Vec<(P::State, u64)>,
    seed: u64,
    until: impl FnMut(&[(P::State, u64)]) -> bool,
    metrics: &Metrics,
) -> Digest
where
    P: CountProtocol,
    P::State: Debug,
{
    let mut running = 0u32;
    let mut checkpoints = 0u64;
    let mut marks = Vec::new();
    let mut record = Vec::new();
    let out = Simulation::count_builder(protocol)
        .config(config)
        .seed(seed)
        .mode(EngineMode::Batched)
        .check_every(N)
        .max_time(MAX_TIME)
        .metrics(metrics)
        .observe_with(|_t, interactions, view: &[(P::State, u64)]| {
            let mut sorted = view.to_vec();
            sorted.sort();
            record.clear();
            record.extend_from_slice(&running.to_le_bytes());
            record.extend_from_slice(format!("{interactions}:{sorted:?}").as_bytes());
            running = crc32(&record);
            checkpoints += 1;
            if checkpoints.is_multiple_of(MARK_EVERY) {
                marks.push(running);
            }
        })
        .until(until)
        .run()
        .0;
    (checkpoints, out.interactions, out.converged, marks, running)
}

/// Asserts `got` equals the pinned digest, naming the first window of
/// [`MARK_EVERY`] checkpoints where the trajectories part.
fn assert_digest(got: Digest, want: (u64, u64, &[u32], u32)) {
    let (checkpoints, interactions, converged, marks, digest) = got;
    assert!(converged, "the run did not converge within {MAX_TIME}");
    for (i, (&g, &w)) in marks.iter().zip(want.2).enumerate() {
        assert_eq!(
            g,
            w,
            "trajectory diverged between checkpoints {} and {}",
            i as u64 * MARK_EVERY,
            (i as u64 + 1) * MARK_EVERY
        );
    }
    assert_eq!(
        (checkpoints, interactions),
        (want.0, want.1),
        "checkpoint count or convergence time moved"
    );
    assert_eq!(marks.len(), want.2.len());
    assert_eq!(digest, want.3, "final checkpoint digest moved");
}

#[test]
fn weak_estimator_batched_trajectory_matches_the_golden_digest() {
    let metrics = Metrics::new();
    let got = run_digest(
        WeakEstimator,
        vec![(WeakState::initial(), N)],
        0x7765_616b,
        WeakEstimator::agreed_view,
        &metrics,
    );
    // The digest only guards the paths it claims to if the run took them.
    assert!(metrics.counter(Counter::Batches) > 0, "no batch ran");
    assert!(
        metrics.counter(Counter::NullSkipRuns) > 0,
        "the null-skip tail never ran"
    );
    assert_digest(
        got,
        (WEAK_CHECKPOINTS, WEAK_INTERACTIONS, WEAK_MARKS, WEAK_DIGEST),
    );
}

#[test]
fn geometric_timer_batched_trajectory_matches_the_golden_digest() {
    let metrics = Metrics::new();
    let got = run_digest(
        GeometricTimer { scale: 8 },
        vec![(GeoState::Fresh, N)],
        0x6765_6f74,
        |view| count_of(view, &GeoState::Terminated) == N,
        &metrics,
    );
    assert!(metrics.counter(Counter::Batches) > 0, "no batch ran");
    assert_digest(
        got,
        (GEO_CHECKPOINTS, GEO_INTERACTIONS, GEO_MARKS, GEO_DIGEST),
    );
}

#[test]
fn infection_epidemic_batched_trajectory_matches_the_golden_digest() {
    let metrics = Metrics::new();
    let got = run_digest(
        InfectionEpidemic,
        vec![(false, N - 1), (true, 1)],
        0x6570_6964,
        |view| count_of(view, &true) == N,
        &metrics,
    );
    assert!(metrics.counter(Counter::Batches) > 0, "no batch ran");
    assert!(
        metrics.counter(Counter::NullSkipRuns) > 0,
        "the null-skip tail never ran"
    );
    assert_digest(
        got,
        (EPI_CHECKPOINTS, EPI_INTERACTIONS, EPI_MARKS, EPI_DIGEST),
    );
}

const WEAK_CHECKPOINTS: u64 = 14;
const WEAK_INTERACTIONS: u64 = 1_300_000;
const WEAK_MARKS: &[u32] = &[3845166947, 2239640195, 1003211984];
const WEAK_DIGEST: u32 = 3714899505;

const GEO_CHECKPOINTS: u64 = 10;
const GEO_INTERACTIONS: u64 = 900_000;
const GEO_MARKS: &[u32] = &[3841968169, 3425607566];
const GEO_DIGEST: u32 = 3965785958;

const EPI_CHECKPOINTS: u64 = 23;
const EPI_INTERACTIONS: u64 = 2_200_000;
const EPI_MARKS: &[u32] = &[573582572, 701015095, 97115303, 1091884927, 2341783492];
const EPI_DIGEST: u32 = 3500808846;
