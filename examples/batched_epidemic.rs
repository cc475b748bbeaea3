//! Batched simulation: a ten-million-agent epidemic in milliseconds.
//!
//! ```sh
//! cargo run --release --example batched_epidemic
//! ```
//!
//! The one-way infection epidemic (`S, I -> I, I` for the receiver) is the
//! paper's basic information-spreading primitive; Lemma A.1 pins its
//! completion at `~ln n` parallel time. A sequential simulator pays for all
//! `Θ(n log n)` interactions one by one — at `n = 10⁷` that is a few
//! hundred million pair draws. The batched engine samples `Θ(√n)`
//! interactions per hypergeometric batch and skips null-dominated phases in
//! O(1) per infection, so the same run takes milliseconds. [`ConfigSim`]
//! picks it automatically for protocols with small, declared outcome laws
//! from its measured crossover `BATCH_THRESHOLD = 512` agents on.

use std::time::Instant;

use uniform_sizeest::engine::epidemic::InfectionEpidemic;
use uniform_sizeest::engine::simulation::{count_of, EngineKind, Simulation};
use uniform_sizeest::engine::ConfigSim;

fn main() {
    let n: u64 = 10_000_000;
    let seed = 42;
    println!("One-way epidemic, n = {n}, single infected source (seed {seed})...");

    let mut sim = Simulation::count_builder(InfectionEpidemic)
        .config([(false, n - 1), (true, 1)])
        .seed(seed)
        .check_every(n / 8)
        .until(move |view| count_of(view, &true) == n)
        .build();
    println!(
        "engine: {:?} (EngineMode::Auto picks batched for small-support protocols at n ≥ {})\n",
        sim.engine_kind(),
        ConfigSim::<InfectionEpidemic>::BATCH_THRESHOLD,
    );
    assert_eq!(sim.engine_kind(), EngineKind::Batched);

    let start = Instant::now();
    let out = sim.run();
    let elapsed = start.elapsed();

    assert!(out.converged);
    println!("all {n} agents infected");
    println!(
        "parallel time:      {:.2}  (one-way epidemic scale ~2 ln n = {:.2})",
        out.time,
        2.0 * (n as f64).ln()
    );
    println!("interactions:       {}", out.interactions);
    println!("wall clock:         {:.1} ms", elapsed.as_secs_f64() * 1e3);
    println!(
        "throughput:         {:.2e} interactions/s",
        out.interactions as f64 / elapsed.as_secs_f64()
    );
    println!(
        "\n(a sequential per-interaction simulator at ~150M interactions/s would need ~{:.0} s)",
        out.interactions as f64 / 150e6
    );
}
