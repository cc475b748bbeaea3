//! `BENCH_batch.json` emitter: sequential vs batched simulator throughput.
//!
//! Two protocols at `n ∈ {10⁴, 10⁶, 10⁷}`, both engines seeded identically:
//!
//! * **`epidemic`** — the one-way infection epidemic (deterministic, two
//!   states): the batched engine's best case and the historical baseline.
//! * **`weak_estimator`** — the Alistarh et al. max-geometric estimator, a
//!   *randomized* paper protocol: each agent's first interaction draws a
//!   geometric (unbounded support → per-interaction sampling inside the
//!   batch), after which every pair is a deterministic max-merge that the
//!   law table bulk-applies, and the converged tail is skipped by the
//!   null-skip mode. This row is the acceptance check that randomized
//!   protocols now reach batched speed.
//!
//! Two further rows cover the *interned* count engine on the paper's
//! counter-churning record protocols, the path `estimate_in_mode` /
//! `terminating_in_mode` reach when pinned to a count mode (the default
//! runs on the per-agent engine):
//!
//! * **`logsize_estimation`** / **`leader_terminating`** — fixed parallel
//!   time on `Log-Size-Estimation` and the Theorem 3.13 terminating
//!   variant, at `n = 2000` (the paper-scale regime) and `n = 50000`
//!   (the agent state array falls out of L2). For these rows the
//!   "sequential" column is the **per-agent engine** (the machine
//!   normalizer — both engines run in the same process) and the
//!   "batched" column is the interned `ConfigSim` under
//!   `EngineMode::Auto` with GC on. Once the occupied support crosses
//!   the dense-lane floor, the count engine runs these churners through
//!   the per-agent lane: the agent engine's own interaction loop (one
//!   shared function) bracketed by an `O(n)` expand/collapse. The two
//!   columns thus share their interaction loop and differ only in what
//!   surrounds it: the lane's bracket and the count-path phases on one
//!   side, the agent engine's views (where a row builds them) on the
//!   other. The gated ratio sits near 1 instead of the ~0.14 the
//!   pre-lane intern-per-interaction path managed, and a regression in
//!   the lane, the slot index, or the GC'd count path trips the gate.
//! * **`logsize_estimation` / `checkpointed`** — the same fixed parallel
//!   time at `n = 2000`, advanced `n` interactions at a time: the
//!   cadence `Simulation::run` checks at, and so one dense-lane episode
//!   (expand, run, collapse) per `n` interactions. The `fixed_time` rows
//!   run one episode per trial, so only this row lets the gate see the
//!   per-episode bracket. Its agent side never builds a view, so the row
//!   compares the lane against an agent engine that skips the per-`n`
//!   checkpoint cost every real run pays.
//! * **`logsize_estimation` / `converged`** — the paper's estimate at
//!   `n = 2000` run through `estimate_in_mode`, that is `Simulation::run`
//!   with the paper's `FieldMaxima` observer and convergence predicate,
//!   checked every `n` interactions, until the population agrees.
//!   `SimMode::Agent` (what `estimate_log_size` and every registry
//!   experiment run) fills the "sequential" column and Auto the "batched"
//!   one, so both sides pay for their checkpoint views and the ratio is
//!   the one that decides which engine the estimate runs on. The engines
//!   draw different trajectories, so each pair of trials converges after
//!   a different number of interactions; the row times enough pairs that
//!   the spread of their per-pair ratios, printed beside the pooled
//!   ratio, sits well inside the gate's band.
//!
//! Two workloads per protocol:
//!
//! * **`fixed_time`** (primary): simulate exactly `8·ln n` parallel time —
//!   the paper's `Θ(log n)`-time experiment shape (both protocols converge
//!   w.h.p. well within it, so the workload includes the converged tail
//!   that null skipping accelerates). Both engines execute exactly
//!   `⌈8 n ln n⌉` interactions.
//! * **`completion`**: run until the protocol's convergence predicate
//!   holds (every agent infected / all agents agree on the settled max),
//!   checked every `n / 8` interactions. These rows run the way every
//!   experiment does: through `Simulation::count_builder`, with the engine
//!   pinned by `EngineMode::Sequential` / `EngineMode::Batched`.
//!
//! Interactions per second and the batched/sequential speedup are recorded
//! per workload so future changes have a perf trajectory. Results land in
//! `BENCH_batch.json` in the current directory. After the rows, a samplers
//! block prints ns/draw for six fixed-seed `hypergeometric` draws; it is
//! neither gated nor written to the JSON. Each agent-vs-counted row prints
//! the min–max of its per-pair ratios beside its pooled ratio, and in
//! `--gate` mode each gated row prints its per-side single-trial rates
//! (min–max) beside its ratio.
//!
//! Usage: `cargo run --release --bin bench_batch [-- --quick] [--gate BASELINE.json]`
//! (`--quick` drops `n = 10⁷`, whose sequential fixed-time runs take ~10 s
//! each, and runs the `converged` row for fewer trials).
//!
//! `--gate BASELINE.json` turns the run into a **regression gate**: every
//! measured row whose `(protocol, n, workload)` appears in the baseline
//! file must reach at least 70% of the baseline's batched/sequential
//! *speedup*, or the process exits 1 listing the offenders. The speedup is
//! the batched throughput in machine-normalized units — both engines run
//! in the same process, so the ratio cancels raw hardware speed and the
//! gate stays stable on shared CI runners that are faster or slower than
//! the machine that committed the baseline, while still catching any
//! real batched-engine throughput regression beyond 30%. CI runs
//! `bench_batch --quick --gate BENCH_batch.json` on every push, so such a
//! drop fails the job instead of slipping by as an "informational" number.
//! In gate mode the fresh measurements are written to
//! `BENCH_batch.latest.json`, leaving the committed baseline untouched
//! (refresh it by re-running without `--gate`).

use std::fmt::Write as _;
use std::time::Instant;

use pp_baselines::alistarh::{WeakEstimator, WeakState};
use pp_core::leader::{LeaderState, LeaderTerminating};
use pp_core::log_size::{estimate_in_mode, LogSizeEstimation};
use pp_engine::batch::BatchedCountSim;
use pp_engine::count_sim::{CountConfiguration, CountProtocol, CountSim};
use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::rng::{derive_seed, hypergeometric, rng_from_seed};
use pp_engine::{count_of, EngineMode, Metrics, Protocol, SimMode, Simulation};

struct Measurement {
    trials: u64,
    interactions: u64,
    seconds: f64,
    /// Each trial's rate (interactions/s), in trial order.
    trial_rates: Vec<f64>,
}

impl Measurement {
    fn rate(&self) -> f64 {
        self.interactions as f64 / self.seconds
    }

    /// The single-trial rates' min–max, printed beside a gated ratio so a
    /// reader can tell a regression from the row's own noise.
    fn spread(&self) -> String {
        let (lo, hi) = min_max(self.trial_rates.iter().copied());
        format!("{lo:.3e}–{hi:.3e}")
    }
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

/// One benchmarkable protocol: initial configuration plus completion
/// predicate over a decoded view.
trait Workload: CountProtocol + Copy {
    fn config(n: u64) -> CountConfiguration<Self::State>;
    fn complete(view: &[(Self::State, u64)], n: u64) -> bool;
}

impl Workload for InfectionEpidemic {
    fn config(n: u64) -> CountConfiguration<bool> {
        CountConfiguration::from_pairs([(false, n - 1), (true, 1)])
    }

    fn complete(view: &[(bool, u64)], n: u64) -> bool {
        count_of(view, &true) == n
    }
}

impl Workload for WeakEstimator {
    fn config(n: u64) -> CountConfiguration<WeakState> {
        CountConfiguration::uniform(WeakState::initial(), n)
    }

    fn complete(view: &[(WeakState, u64)], _n: u64) -> bool {
        WeakEstimator::agreed_view(view)
    }
}

/// Runs trial `t` of `P` on the chosen engine and returns its interaction
/// count; `fixed_time` selects the `8 ln n`-parallel-time workload,
/// otherwise run-to-completion. The batched engine records into `metrics`
/// (hooks are observation-only, so the gated throughput is measured with
/// telemetry attached — exactly how production runs execute).
fn run_trial<P: Workload + Default>(
    n: u64,
    t: u64,
    batched: bool,
    fixed_time: bool,
    metrics: &Metrics,
) -> u64 {
    let seed = derive_seed(0xB0BA, t);
    if !fixed_time {
        let mut builder = Simulation::count_builder(P::default())
            .initial(P::config(n))
            .seed(seed)
            .check_every((n / 8).max(1))
            .until(move |view| P::complete(view, n));
        builder = if batched {
            builder.mode(EngineMode::Batched).metrics(metrics)
        } else {
            builder.mode(EngineMode::Sequential)
        };
        let (out, _) = builder.run();
        assert!(out.converged);
        out.interactions
    } else if batched {
        let mut sim = BatchedCountSim::new(P::default(), P::config(n), seed);
        sim.set_metrics(metrics.clone());
        sim.run_for_time(8.0 * (n as f64).ln());
        sim.interactions()
    } else {
        let mut sim = CountSim::new(P::default(), P::config(n), seed);
        sim.run_for_time(8.0 * (n as f64).ln());
        sim.interactions()
    }
}

struct Row {
    protocol: &'static str,
    n: u64,
    workload: &'static str,
    seq: Measurement,
    bat: Measurement,
    /// Nonzero telemetry counters accumulated over the batched/counted
    /// engine's trials of this row (the machine-normalizer engine runs
    /// uninstrumented).
    counters: Vec<(&'static str, u64)>,
}

/// One benchmarked size: `n`, then the (sequential, batched) trial counts
/// of its `fixed_time` row and of its `completion` row.
type Size = (u64, (u64, u64), (u64, u64));

fn bench_protocol<P: Workload + Default>(name: &'static str, sizes: &[Size], rows: &mut Vec<Row>) {
    for &(n, fixed, completion) in sizes {
        for (workload, fixed_time, (seq_trials, batch_trials)) in [
            ("fixed_time", true, fixed),
            ("completion", false, completion),
        ] {
            let metrics = Metrics::new();
            let (seq, bat) = interleave(seq_trials, batch_trials, |sequential, t| {
                run_trial::<P>(n, t, !sequential, fixed_time, &metrics)
            });
            eprintln!(
                "{name:>14} n = {:>9} {:>11}: sequential {:>12.0} int/s ({:.3}s) | batched {:>13.0} int/s ({:.3}s) | speedup {:.1}x",
                n,
                workload,
                seq.rate(),
                seq.seconds,
                bat.rate(),
                bat.seconds,
                bat.rate() / seq.rate()
            );
            rows.push(Row {
                protocol: name,
                n,
                workload,
                seq,
                bat,
                counters: metrics.nonzero_counters(),
            });
        }
    }
}

/// Agent-engine vs interned-count-engine throughput for one of the
/// paper's counter-churning record protocols, at a fixed parallel time.
/// The agent engine (what `estimate_log_size` / `run_terminating` run)
/// fills the row's "sequential" slot as the machine normalizer; the
/// interned `ConfigSim` (`EngineMode::Auto`, interner GC on) fills
/// "batched". See the module docs for why the gate watches
/// this ratio. `checkpointed` advances both engines `n` interactions at a
/// time (the `checkpointed` workload) instead of in one call
/// (`fixed_time`).
#[allow(clippy::too_many_arguments)]
fn bench_interned<P: Protocol + Clone>(
    name: &'static str,
    protocol: P,
    planted: Option<P::State>,
    n: u64,
    sim_time: f64,
    trials: u64,
    checkpointed: bool,
    rows: &mut Vec<Row>,
) where
    P::State: Eq + std::hash::Hash + Clone,
{
    let metrics = Metrics::new();
    let (seq, bat) = interleave(trials, trials, |agent, t| {
        let mode = if agent {
            SimMode::Agent
        } else {
            EngineMode::Auto.into()
        };
        let mut builder = Simulation::builder(protocol.clone())
            .size(n)
            .seed(derive_seed(0xB0BB, t))
            .mode(mode);
        if !agent {
            // Only the gated (counted) engine records: the agent engine is
            // the machine normalizer, and the row's counters should
            // describe the engine under test.
            builder = builder.metrics(&metrics);
        }
        if let Some(state) = planted.clone() {
            builder = builder.init_planted([(state, 1)]);
        }
        let mut sim = builder.build();
        if checkpointed {
            let total = (sim_time * n as f64).ceil() as u64;
            while sim.interactions() < total {
                sim.steps(n.min(total - sim.interactions()));
            }
        } else {
            sim.run_for_time(sim_time);
        }
        sim.interactions()
    });
    let workload = if checkpointed {
        "checkpointed"
    } else {
        "fixed_time"
    };
    push_agent_row(name, n, workload, seq, bat, &metrics, rows);
}

/// Agent engine vs Auto on the paper's estimate run to convergence through
/// `estimate_in_mode` (the `converged` workload; see the module docs).
/// Auto records into the row's counters through the ambient registry,
/// since `estimate_in_mode` takes no metrics handle.
fn bench_estimate(n: u64, trials: u64, rows: &mut Vec<Row>) {
    let metrics = Metrics::new();
    let (seq, bat) = interleave(trials, trials, |agent, t| {
        let mode = if agent {
            SimMode::Agent
        } else {
            EngineMode::Auto.into()
        };
        let _ambient = (!agent).then(|| metrics.install_current());
        let seed = derive_seed(0xB0BC, t);
        let out = estimate_in_mode(LogSizeEstimation::paper(), n as usize, seed, None, mode);
        assert!(out.converged, "the paper's estimate must converge");
        (out.time * n as f64).round() as u64
    });
    push_agent_row(
        "logsize_estimation",
        n,
        "converged",
        seq,
        bat,
        &metrics,
        rows,
    );
}

/// Times `first` trials of a row's first engine (sequential or agent) and
/// `second` trials of its second (batched or counted), interleaved in
/// proportional blocks: first-engine trial `i`, then second-engine trials
/// `⌊i·second/first⌋` up to `⌊(i+1)·second/first⌋`. A slow spell on the
/// host thus lands on both columns; with equal counts the engines
/// alternate trial by trial. `trial(is_first, t)` runs trial `t` of that
/// engine and returns its interaction count. Returns the (first, second)
/// measurements.
fn interleave(
    first: u64,
    second: u64,
    mut trial: impl FnMut(bool, u64) -> u64,
) -> (Measurement, Measurement) {
    let zero = |trials| Measurement {
        trials,
        interactions: 0,
        seconds: 0.0,
        trial_rates: Vec::new(),
    };
    let (mut a, mut b) = (zero(first), zero(second));
    let mut timed = |side: &mut Measurement, is_first: bool, t: u64| {
        let start = Instant::now();
        let interactions = trial(is_first, t);
        let seconds = start.elapsed().as_secs_f64();
        side.interactions += interactions;
        side.seconds += seconds;
        side.trial_rates.push(interactions as f64 / seconds);
    };
    for i in 0..first {
        timed(&mut a, true, i);
        for t in i * second / first..(i + 1) * second / first {
            timed(&mut b, false, t);
        }
    }
    (a, b)
}

/// Prints and records one agent-vs-counted row. Its two sides ran the
/// same number of trials, alternating, so trial `t` of each forms a pair;
/// the min–max of the pairs' ratios prints beside the pooled ratio.
fn push_agent_row(
    name: &'static str,
    n: u64,
    workload: &'static str,
    seq: Measurement,
    bat: Measurement,
    metrics: &Metrics,
    rows: &mut Vec<Row>,
) {
    let pairs = seq.trial_rates.iter().zip(&bat.trial_rates);
    let (lo, hi) = min_max(pairs.map(|(agent, counted)| counted / agent));
    eprintln!(
        "{name:>18} n = {n:>9} {workload:>12}: agent {:>12.0} int/s ({:.3}s) | counted {:>13.0} int/s ({:.3}s) | ratio {:.2}x (pairs {lo:.2}–{hi:.2}x)",
        seq.rate(),
        seq.seconds,
        bat.rate(),
        bat.seconds,
        bat.rate() / seq.rate()
    );
    rows.push(Row {
        protocol: name,
        n,
        workload,
        seq,
        bat,
        counters: metrics.nonzero_counters(),
    });
}

/// Draws per `hypergeometric` timing in the samplers block.
const SAMPLER_DRAWS: u32 = 1_000_000;

/// Prints ns/draw for six `hypergeometric` draws the batched engine
/// makes: a mid-epidemic fill at `n = 10⁶`, a pairing split, a small-side
/// row at `n = 10⁷` (3 receivers partnered from a ~2000-sender pool,
/// drawn item by item), a fill row by chop-down (σ ≈ 4.6), and two
/// population draws at `n = 10⁷`, where a ~2000-agent batch side is drawn
/// from the whole population by chop-down: a minority state's (σ ≈ 3)
/// and the majority state's (σ ≈ 22, where the walk dominates). Absolute
/// timings are not machine-normalized, so the gate does not read them and
/// they stay out of the JSON.
fn print_sampler_timings() {
    for (total, successes, draws, seed) in [
        (1_000_000, 500_000, 626, 13),
        (626, 313, 300, 17),
        (2_000, 150, 3, 19),
        (2_000, 90, 1_000, 29),
        (10_000_000, 45_000, 2_000, 23),
        (10_000_000, 5_000_000, 2_000, 31),
    ] {
        let mut rng = rng_from_seed(seed);
        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..SAMPLER_DRAWS {
            sink = sink.wrapping_add(hypergeometric(total, successes, draws, &mut rng));
        }
        std::hint::black_box(sink);
        eprintln!(
            "[samplers] hypergeometric({total}, {successes}, {draws}): {:.1} ns/draw",
            start.elapsed().as_nanos() as f64 / f64::from(SAMPLER_DRAWS)
        );
    }
}

/// Maximum tolerated drop in machine-normalized batched throughput
/// (the batched/sequential speedup) vs the baseline (30%).
const GATE_TOLERANCE: f64 = 0.30;

/// One `(protocol, n, workload)` row of a baseline file: the batched rate
/// (informational) and the batched/sequential speedup (the gated metric).
struct BaselineRow {
    protocol: String,
    n: u64,
    workload: String,
    batched: f64,
    speedup: f64,
}

/// Parses the rows of a previously emitted `BENCH_batch.json`.
fn load_baseline(path: &str) -> Vec<BaselineRow> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let doc = pp_sweep::json::parse(&text)
        .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}"));
    doc.get("results")
        .and_then(pp_sweep::json::Value::as_arr)
        .unwrap_or_else(|| panic!("baseline {path} has no \"results\" array"))
        .iter()
        .map(|row| BaselineRow {
            protocol: row
                .get("protocol")
                .and_then(pp_sweep::json::Value::as_str)
                .expect("baseline row protocol")
                .to_string(),
            n: row
                .get("n")
                .and_then(pp_sweep::json::Value::as_u64)
                .expect("baseline row n"),
            workload: row
                .get("workload")
                .and_then(pp_sweep::json::Value::as_str)
                .expect("baseline row workload")
                .to_string(),
            batched: row
                .get("batched")
                .and_then(pp_sweep::json::Value::as_f64)
                .expect("baseline row batched rate"),
            speedup: row
                .get("speedup")
                .and_then(pp_sweep::json::Value::as_f64)
                .expect("baseline row speedup"),
        })
        .collect()
}

/// Compares measured rows against the baseline; returns the failures.
///
/// The gated metric is the batched/sequential *speedup*: both engines run
/// in the same process on the same machine, so the ratio cancels the raw
/// hardware speed and the gate stays meaningful on shared CI runners whose
/// absolute interactions/s differ from the machine that committed the
/// baseline. Absolute batched rates are printed alongside as context.
fn gate_failures(baseline: &[BaselineRow], rows: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for row in rows {
        let Some(base) = baseline
            .iter()
            .find(|b| b.protocol == row.protocol && b.n == row.n && b.workload == row.workload)
        else {
            continue;
        };
        matched += 1;
        let measured = row.bat.rate() / row.seq.rate();
        let floor = base.speedup * (1.0 - GATE_TOLERANCE);
        if measured < floor {
            failures.push(format!(
                "{} n={} {}: batched speedup {measured:.2}x is below 70% of baseline {:.2}x \
                 (batched {:.3e} int/s, baseline {:.3e}; trials: sequential {}, batched {} int/s)",
                row.protocol,
                row.n,
                row.workload,
                base.speedup,
                row.bat.rate(),
                base.batched,
                row.seq.spread(),
                row.bat.spread()
            ));
        } else {
            eprintln!(
                "[gate] {} n={} {}: speedup {measured:.2}x vs baseline {:.2}x — ok ({:+.0}%; \
                 batched {:.3e} int/s; trials: sequential {}, batched {} int/s)",
                row.protocol,
                row.n,
                row.workload,
                base.speedup,
                (measured / base.speedup - 1.0) * 100.0,
                row.bat.rate(),
                row.seq.spread(),
                row.bat.spread()
            );
        }
    }
    assert!(
        matched > 0,
        "gate matched no baseline rows — wrong baseline file?"
    );
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut quick = false;
    let mut gate: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--gate" => {
                i += 1;
                let value = args.get(i).unwrap_or_else(|| {
                    panic!("--gate needs a baseline path (e.g. --gate BENCH_batch.json)")
                });
                assert!(
                    !value.starts_with("--"),
                    "--gate needs a baseline path, got flag-like {value:?}"
                );
                gate = Some(value.clone());
            }
            other => {
                panic!("unknown argument {other}; supported: --quick --gate BASELINE.json")
            }
        }
        i += 1;
    }
    // The n = 10⁴ fixed-time epidemic runs ~0.6 ms (batched) and ~15 ms
    // (sequential) per trial. At 200 and 20 trials its batched side timed
    // ~0.1 s; these counts time ~2.5 s a side, the same in quick and full
    // mode, so the gated ratio averages over seconds and the same seeds.
    let sizes: &[Size] = if quick {
        &[
            (10_000, (150, 4000), (20, 200)),
            (1_000_000, (2, 100), (2, 100)),
        ]
    } else {
        &[
            (10_000, (150, 4000), (50, 400)),
            (1_000_000, (3, 200), (3, 200)),
            (10_000_000, (1, 40), (1, 40)),
        ]
    };
    let weak_sizes: &[Size] = if quick {
        &[(10_000, (20, 50), (20, 50)), (1_000_000, (2, 10), (2, 10))]
    } else {
        &[
            (10_000, (50, 100), (50, 100)),
            (1_000_000, (3, 20), (3, 20)),
            (10_000_000, (1, 5), (1, 5)),
        ]
    };

    let mut rows = Vec::new();
    bench_protocol::<InfectionEpidemic>("epidemic", sizes, &mut rows);
    bench_protocol::<WeakEstimator>("weak_estimator", weak_sizes, &mut rows);
    // Same sizes in quick and full mode, so the --quick CI gate always
    // covers the interned paths: n = 2000 (the paper-scale regime both
    // record protocols are measured at) and n = 50000 (big enough that
    // the agent engine's state array falls out of L2 — the regime where
    // the dense lane's compact table pays).
    let interned_sizes: &[(u64, u64)] = if quick {
        &[(2_000, 3), (50_000, 2)]
    } else {
        &[(2_000, 5), (50_000, 3)]
    };
    for &(n, trials) in interned_sizes {
        bench_interned(
            "logsize_estimation",
            LogSizeEstimation::paper(),
            None,
            n,
            300.0,
            trials,
            false,
            &mut rows,
        );
        bench_interned(
            "leader_terminating",
            LeaderTerminating::paper(),
            Some(LeaderState::leader()),
            n,
            300.0,
            trials,
            false,
            &mut rows,
        );
    }
    // One lane episode per `n` interactions: the per-episode bracket.
    // Ten trials in both modes, since one trial takes only ~35 ms.
    bench_interned(
        "logsize_estimation",
        LogSizeEstimation::paper(),
        None,
        2_000,
        300.0,
        10,
        true,
        &mut rows,
    );
    // The same protocol and size to convergence, views and observer
    // included: the workload the `checkpointed` row stands in for. One
    // trial runs ~5 s a side; a single pair cannot tell a 15% move from
    // noise, so even `--quick` times four pairs.
    bench_estimate(2_000, if quick { 4 } else { 6 }, &mut rows);

    let mut json = String::from(
        "{\n  \"benchmark\": \"sequential_vs_batched\",\n  \"unit\": \"interactions_per_second\",\n  \
         \"primary_workload\": \"fixed_time\",\n  \"results\": [\n",
    );
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"protocol\": \"{}\", \"n\": {}, \"workload\": \"{}\", \"sequential\": {:.1}, \
             \"batched\": {:.1}, \"speedup\": {:.2}, \"sequential_trials\": {}, \
             \"batched_trials\": {}",
            row.protocol,
            row.n,
            row.workload,
            row.seq.rate(),
            row.bat.rate(),
            row.bat.rate() / row.seq.rate(),
            row.seq.trials,
            row.bat.trials
        );
        // Telemetry snapshot of the engine under test, cumulative over
        // the row's batched trials. The gate's baseline loader matches
        // rows by (protocol, n, workload) and ignores unknown fields, so
        // pre-telemetry baselines stay valid.
        if !row.counters.is_empty() {
            json.push_str(", \"counters\": {");
            for (j, (name, v)) in row.counters.iter().enumerate() {
                if j > 0 {
                    json.push_str(", ");
                }
                let _ = write!(json, "\"{name}\": {v}");
            }
            json.push('}');
        }
        json.push('}');
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    // Gate mode must not clobber the committed baseline it compares against.
    let out_path = if gate.is_some() {
        "BENCH_batch.latest.json"
    } else {
        "BENCH_batch.json"
    };
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("{json}");
    print_sampler_timings();

    if let Some(baseline_path) = gate {
        let failures = gate_failures(&load_baseline(&baseline_path), &rows);
        if failures.is_empty() {
            eprintln!(
                "[gate] all matched rows within {:.0}% of baseline",
                GATE_TOLERANCE * 100.0
            );
        } else {
            eprintln!("[gate] THROUGHPUT REGRESSION ({} rows):", failures.len());
            for failure in &failures {
                eprintln!("[gate]   {failure}");
            }
            std::process::exit(1);
        }
    }
}
