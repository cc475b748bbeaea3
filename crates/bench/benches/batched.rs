//! Criterion benchmark `batched_vs_sequential`: the two configuration-
//! vector engines head to head on identical workloads.
//!
//! The interesting comparisons:
//! * dense-phase throughput (epidemic started at 10% infected, fixed
//!   interaction budget) — pure batch-fill speed vs per-interaction cost;
//! * full completion runs from a single source — includes the null-
//!   dominated tails where the batched engine's skip mode dominates;
//! * the bulk samplers underneath the batch fill.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pp_engine::batch::BatchedCountSim;
use pp_engine::count_sim::{CountConfiguration, CountSim};
use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::rng::{hypergeometric, rng_from_seed};
use pp_engine::{count_of, EngineMode, Simulation};

fn dense_config(n: u64) -> CountConfiguration<bool> {
    CountConfiguration::from_pairs([(false, n - n / 10), (true, n / 10)])
}

fn single_source(n: u64) -> CountConfiguration<bool> {
    CountConfiguration::from_pairs([(false, n - 1), (true, 1)])
}

fn bench_dense_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_vs_sequential/dense_100k_steps");
    let n = 1_000_000u64;
    let steps = 100_000u64;
    group.throughput(Throughput::Elements(steps));
    group.bench_function("sequential", |b| {
        b.iter_batched_ref(
            || CountSim::new(InfectionEpidemic, dense_config(n), 7),
            |sim| sim.steps(steps),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("batched", |b| {
        b.iter_batched_ref(
            || BatchedCountSim::new(InfectionEpidemic, dense_config(n), 7),
            |sim| sim.steps(steps),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_completion(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_vs_sequential/completion_n=1e5");
    let n = 100_000u64;
    group.sample_size(20);
    for (name, mode) in [
        ("sequential", EngineMode::Sequential),
        ("batched", EngineMode::Batched),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched_ref(
                || {
                    Simulation::count_builder(InfectionEpidemic)
                        .initial(single_source(n))
                        .seed(11)
                        .mode(mode)
                        .check_every(n / 8)
                        .until(move |view| count_of(view, &true) == n)
                        .build()
                },
                |sim| sim.run(),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut group = c.benchmark_group("samplers");
    group.throughput(Throughput::Elements(1));
    group.bench_function("hypergeometric_batch_fill", |b| {
        // Parameters of a mid-epidemic batch fill at n = 10⁶.
        let mut rng = rng_from_seed(13);
        b.iter(|| hypergeometric(1_000_000, 500_000, 626, &mut rng));
    });
    group.bench_function("hypergeometric_pairing", |b| {
        let mut rng = rng_from_seed(17);
        b.iter(|| hypergeometric(626, 313, 300, &mut rng));
    });
    group.bench_function("hypergeometric_small_side", |b| {
        // A typical fill draw at n = 10⁷: a receiver row of 3 agents
        // partnered from a ~2000-sender pool; drawn item by item.
        let mut rng = rng_from_seed(19);
        b.iter(|| hypergeometric(2_000, 150, 3, &mut rng));
    });
    group.finish();
}

criterion_group!(benches, bench_dense_phase, bench_completion, bench_samplers);
criterion_main!(benches);
