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
//! counter-churning record protocols, the path interner GC unlocked as
//! the default:
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
//!   the per-agent lane — the agent simulator's exact interaction loop
//!   bracketed by an `O(n)` expand/collapse — so the gated ratio sits
//!   near 1 instead of the ~0.14 the pre-lane intern-per-interaction
//!   path managed, and a regression in the lane, the slot index, or the
//!   GC'd count path trips the gate.
//!
//! Two workloads per protocol:
//!
//! * **`fixed_time`** (primary): simulate exactly `8·ln n` parallel time —
//!   the paper's `Θ(log n)`-time experiment shape (both protocols converge
//!   w.h.p. well within it, so the workload includes the converged tail
//!   that null skipping accelerates). Both engines execute exactly
//!   `⌈8 n ln n⌉` interactions.
//! * **`completion`**: run until the protocol's convergence predicate
//!   holds (every agent infected / all agents agree on the settled max).
//!
//! Interactions per second and the batched/sequential speedup are recorded
//! per workload so future PRs have a perf trajectory. Results land in
//! `BENCH_batch.json` in the current directory.
//!
//! Usage: `cargo run --release --bin bench_batch [-- --quick] [--gate BASELINE.json]`
//! (`--quick` drops `n = 10⁷`, whose sequential fixed-time runs take ~10 s
//! each).
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
use pp_core::log_size::LogSizeEstimation;
use pp_engine::batch::BatchedCountSim;
use pp_engine::count_sim::{CountConfiguration, CountProtocol, CountSim};
use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::rng::derive_seed;
use pp_engine::{EngineMode, Metrics, Protocol, SimMode, Simulation};

struct Measurement {
    trials: u64,
    interactions: u64,
    seconds: f64,
}

impl Measurement {
    fn rate(&self) -> f64 {
        self.interactions as f64 / self.seconds
    }
}

/// One benchmarkable protocol: initial configuration plus completion
/// predicate.
trait Workload: CountProtocol + Copy {
    fn config(n: u64) -> CountConfiguration<Self::State>;
    fn complete(c: &CountConfiguration<Self::State>, n: u64) -> bool;
}

impl Workload for InfectionEpidemic {
    fn config(n: u64) -> CountConfiguration<bool> {
        CountConfiguration::from_pairs([(false, n - 1), (true, 1)])
    }

    fn complete(c: &CountConfiguration<bool>, n: u64) -> bool {
        c.count(&true) == n
    }
}

impl Workload for WeakEstimator {
    fn config(n: u64) -> CountConfiguration<WeakState> {
        CountConfiguration::uniform(WeakState::initial(), n)
    }

    fn complete(c: &CountConfiguration<WeakState>, _n: u64) -> bool {
        WeakEstimator::agreed(c)
    }
}

/// Runs `trials` runs of `P` on the chosen engine; `fixed_time` selects the
/// `8 ln n`-parallel-time workload, otherwise run-to-completion. The
/// batched engine records into `metrics` (hooks are observation-only, so
/// the gated throughput is measured with telemetry attached — exactly how
/// production runs execute).
fn run<P: Workload + Default>(
    n: u64,
    trials: u64,
    batched: bool,
    fixed_time: bool,
    base_seed: u64,
    metrics: &Metrics,
) -> Measurement {
    let sim_time = 8.0 * (n as f64).ln();
    let start = Instant::now();
    let mut interactions = 0;
    for t in 0..trials {
        let seed = derive_seed(base_seed, t);
        let done = if batched {
            let mut sim = BatchedCountSim::new(P::default(), P::config(n), seed);
            sim.set_metrics(metrics.clone());
            if fixed_time {
                sim.run_for_time(sim_time);
            } else {
                let out = sim.run_until(|c| P::complete(c, n), (n / 8).max(1), f64::MAX);
                assert!(out.converged);
            }
            sim.interactions()
        } else {
            let mut sim = CountSim::new(P::default(), P::config(n), seed);
            if fixed_time {
                sim.run_for_time(sim_time);
            } else {
                let out = sim.run_until(|c| P::complete(c, n), (n / 8).max(1), f64::MAX);
                assert!(out.converged);
            }
            sim.interactions()
        };
        interactions += done;
    }
    Measurement {
        trials,
        interactions,
        seconds: start.elapsed().as_secs_f64(),
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

fn bench_protocol<P: Workload + Default>(
    name: &'static str,
    sizes: &[(u64, u64, u64)],
    rows: &mut Vec<Row>,
) {
    for &(n, seq_trials, batch_trials) in sizes {
        for (workload, fixed_time) in [("fixed_time", true), ("completion", false)] {
            let metrics = Metrics::new();
            let seq = run::<P>(n, seq_trials, false, fixed_time, 0xB0BA, &metrics);
            let bat = run::<P>(n, batch_trials, true, fixed_time, 0xB0BA, &metrics);
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
/// The agent engine fills the row's "sequential" slot as the machine
/// normalizer; the interned `ConfigSim` (`EngineMode::Auto`, interner GC
/// on — the default every `estimate_log_size` / `run_terminating` call
/// takes) fills "batched". See the module docs for why the gate watches
/// this ratio.
fn bench_interned<P: Protocol + Clone>(
    name: &'static str,
    protocol: P,
    planted: Option<P::State>,
    n: u64,
    sim_time: f64,
    trials: u64,
    rows: &mut Vec<Row>,
) where
    P::State: Eq + std::hash::Hash + Clone,
{
    let metrics = Metrics::new();
    let measure = |agent: bool| -> Measurement {
        let start = Instant::now();
        let mut interactions = 0;
        for t in 0..trials {
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
                // Only the gated (counted) engine records: the agent
                // engine is the machine normalizer, and the row's
                // counters should describe the engine under test.
                builder = builder.metrics(&metrics);
            }
            if let Some(state) = planted.clone() {
                builder = builder.init_planted([(state, 1)]);
            }
            let mut sim = builder.build();
            sim.run_for_time(sim_time);
            interactions += sim.interactions();
        }
        Measurement {
            trials,
            interactions,
            seconds: start.elapsed().as_secs_f64(),
        }
    };
    let seq = measure(true);
    let bat = measure(false);
    eprintln!(
        "{name:>18} n = {n:>9}  fixed_time: agent {:>12.0} int/s ({:.3}s) | counted {:>13.0} int/s ({:.3}s) | ratio {:.2}x",
        seq.rate(),
        seq.seconds,
        bat.rate(),
        bat.seconds,
        bat.rate() / seq.rate()
    );
    rows.push(Row {
        protocol: name,
        n,
        workload: "fixed_time",
        seq,
        bat,
        counters: metrics.nonzero_counters(),
    });
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
                 (batched {:.3e} int/s, baseline {:.3e})",
                row.protocol,
                row.n,
                row.workload,
                base.speedup,
                row.bat.rate(),
                base.batched
            ));
        } else {
            eprintln!(
                "[gate] {} n={} {}: speedup {measured:.2}x vs baseline {:.2}x — ok ({:+.0}%; \
                 batched {:.3e} int/s)",
                row.protocol,
                row.n,
                row.workload,
                base.speedup,
                (measured / base.speedup - 1.0) * 100.0,
                row.bat.rate()
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
    // (n, sequential trials, batched trials)
    let sizes: &[(u64, u64, u64)] = if quick {
        &[(10_000, 20, 200), (1_000_000, 2, 100)]
    } else {
        &[(10_000, 50, 400), (1_000_000, 3, 200), (10_000_000, 1, 40)]
    };
    let weak_sizes: &[(u64, u64, u64)] = if quick {
        &[(10_000, 20, 50), (1_000_000, 2, 10)]
    } else {
        &[(10_000, 50, 100), (1_000_000, 3, 20), (10_000_000, 1, 5)]
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
            &mut rows,
        );
        bench_interned(
            "leader_terminating",
            LeaderTerminating::paper(),
            Some(LeaderState::leader()),
            n,
            300.0,
            trials,
            &mut rows,
        );
    }

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
