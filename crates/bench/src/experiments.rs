//! The experiment registry: every paper measurement as a named
//! [`SweepExperiment`].
//!
//! This is the binding layer between the protocol crates and the sweep
//! orchestrator: every `table_*` and `fig*` binary and the `sweep` CLI
//! resolve experiments here, so a measurement is defined exactly once. A
//! registry experiment maps one [`pp_sweep::TrialCtx`] — grid population size,
//! derived seed, engine policy — to a fixed vector of named metrics
//! (NaN = the trial did not produce that metric).
//!
//! The engine policy reaches only the experiments that expose an
//! engine-selection hook (the two epidemics); the others run on the
//! engine their protocol helper picks (documented per entry below), and a
//! spec that pins `sequential` or `batched` refuses them. The paper's
//! record protocols (`Log-Size-Estimation`, `Leader-Terminating`) run on
//! the per-agent engine.

use pp_analysis::balls_bins::{simulate_balls_bins, simulate_worst_case_consumption};
use pp_analysis::geometric::{logsize2_band, max_geometric_sample};
use pp_analysis::subexp::d10_min_k;
use pp_baselines::alistarh::weak_estimate;
use pp_baselines::exact_backup::run_backup;
use pp_baselines::exact_leader::run_exact_count;
use pp_baselines::intro_functions::{double_time, halve_time};
use pp_baselines::leader_election::run_uniform_election;
use pp_baselines::majority::{run_nonuniform_majority, run_uniform_majority};
use pp_baselines::naive_terminating::{fixed_signal_time, geometric_signal_time};
use pp_core::leader::run_terminating;
use pp_core::log_size::{estimate_log_size, estimate_with, LogSizeEstimation};
use pp_core::partition::run_partition;
use pp_core::synthetic::estimate_log_size_synthetic;
use pp_core::upper_bound::estimate_upper_bound;
use pp_engine::epidemic::{epidemic_completion_time_in_mode, subpopulation_epidemic_time_in_mode};
use pp_engine::rng::rng_from_seed;
use pp_sweep::SweepExperiment;
use pp_termination::experiment::counter_signal_trial;

/// The `Log-Size-Estimation` accuracy band of Theorem 3.1 (`|output −
/// log₂ n| ≤ 5.7` w.h.p.), shared by the estimator and termination
/// experiments.
pub const ACCURACY_BAND: f64 = 5.7;

/// Fixed population for the `ablation` experiment — its grid axis
/// carries the constant pair, not a population size.
pub const ABLATION_N: u64 = 1_000;

/// Encodes a `(clock multiplier, epoch multiplier)` constant pair onto
/// the `ablation` experiment's size axis (`clock·100 + epochs` — epoch
/// multipliers are single-digit-to-tens, so the encoding is unambiguous).
pub fn ablation_code(clock: u64, epochs: u64) -> u64 {
    debug_assert!(epochs < 100, "epoch multiplier overflows the encoding");
    clock * 100 + epochs
}

/// Inverse of [`ablation_code`].
pub fn ablation_decode(code: u64) -> (u64, u64) {
    (code / 100, code % 100)
}

/// Names of every registered experiment, in registry order.
pub fn names() -> &'static [&'static str] {
    &[
        "epidemic_full",
        "epidemic_sub3",
        "logsize_estimate",
        "weak_estimator",
        "exact_backup",
        "prob1_upper",
        "exact_leader_count",
        "leader_termination",
        "counter_signal",
        "fixed_signal",
        "geometric_signal",
        "uniform_majority",
        "nonuniform_majority",
        "uniform_election",
        "logsize2_band",
        "state_bounds",
        "partition",
        "geometric_maxima",
        "intro_functions",
        "ablation",
        "timer_lemma",
        "synthetic_coin",
    ]
}

/// Builds the registry experiment with the given name, or `None` for an
/// unknown name.
pub fn experiment(name: &str) -> Option<SweepExperiment> {
    Some(match name {
        // Full-population one-way epidemic (Lemma A.1): completion time.
        // The spec's engine policy reaches the builder through the
        // helper's `mode` argument.
        "epidemic_full" => SweepExperiment::new("epidemic_full", &["time"], |ctx| {
            vec![epidemic_completion_time_in_mode(
                ctx.n, ctx.seed, ctx.engine,
            )]
        })
        .with_engine_hook(),
        // Epidemic confined to an n/3 subpopulation (Corollary 3.4).
        // Honors the spec's engine policy the same way.
        "epidemic_sub3" => SweepExperiment::new("epidemic_sub3", &["time"], |ctx| {
            vec![subpopulation_epidemic_time_in_mode(
                ctx.n,
                ctx.n / 3,
                ctx.seed,
                ctx.engine,
            )]
        })
        .with_engine_hook(),
        // The paper's Log-Size-Estimation protocol (Theorem 3.1): signed
        // additive error (NaN if the run did not converge to an output)
        // and convergence time. Per-agent engine (`estimate_log_size`).
        "logsize_estimate" => {
            SweepExperiment::new("logsize_estimate", &["err", "time", "converged"], |ctx| {
                let out = estimate_log_size(ctx.n as usize, ctx.seed, None);
                vec![
                    out.error(ctx.n).unwrap_or(f64::NAN),
                    out.time,
                    f64::from(out.converged),
                ]
            })
        }
        // Alistarh et al.'s max-geometric weak estimator: signed error of
        // the settled maximum vs log₂ n, and agreement time. Runs on the
        // per-agent engine up to 2¹⁸ agents and on the batched count
        // engine above (`weak_estimate`'s measured crossover).
        "weak_estimator" => SweepExperiment::new("weak_estimator", &["err", "time"], |ctx| {
            let out = weak_estimate(ctx.n as usize, ctx.seed);
            vec![out.estimate as f64 - (ctx.n as f64).log2(), out.time]
        }),
        // The §3.3 `l_i/f_i` exact backup: time to silence and whether the
        // maximum level hit `⌊log₂ n⌋` exactly. Ω(n) time per trial, so
        // capped at 5 trials per point.
        "exact_backup" => SweepExperiment::new("exact_backup", &["time", "exact"], |ctx| {
            let out = run_backup(ctx.n, ctx.seed);
            let exact = out.max_level as f64 == (ctx.n as f64).log2().floor();
            vec![out.silent_time, f64::from(exact)]
        })
        .with_max_trials(5),
        // The §3.3 probability-1 upper bound: the reported
        // `max(k_fast + 4, kex + 1)` and the backup's exact `kex`. The
        // backup needs Ω(n) extra time after the fast part converges, so
        // capped at 10 trials per point.
        "prob1_upper" => SweepExperiment::new("prob1_upper", &["report", "kex"], |ctx| {
            let out = estimate_upper_bound(ctx.n as usize, ctx.seed, 30.0 * ctx.n as f64);
            vec![out.report as f64, out.kex as f64]
        })
        .with_max_trials(10),
        // Michail-style exact leader count: time and exactness. Ω(n log n)
        // time per trial, so capped at 5 trials per point.
        "exact_leader_count" => {
            SweepExperiment::new("exact_leader_count", &["time", "exact"], |ctx| {
                let out = run_exact_count(ctx.n as usize, ctx.seed, 1e9);
                vec![out.time, f64::from(out.count == ctx.n)]
            })
            .with_max_trials(5)
        }
        // Theorem 3.13 leader-driven terminating estimation: whether the
        // signal fired, when (NaN if never), the majority output (NaN if
        // none), whether it was within the accuracy band, and the
        // agreement fraction at the freeze. Per-agent engine, like
        // `logsize_estimate` (`run_terminating`).
        "leader_termination" => SweepExperiment::new(
            "leader_termination",
            &["terminated", "term_time", "output", "correct", "agreement"],
            |ctx| {
                let out = run_terminating(ctx.n as usize, ctx.seed, 1e8);
                let correct = out
                    .output
                    .map(|k| (k as f64 - (ctx.n as f64).log2()).abs() <= ACCURACY_BAND)
                    .unwrap_or(false);
                vec![
                    f64::from(out.terminated),
                    if out.terminated {
                        out.termination_time
                    } else {
                        f64::NAN
                    },
                    out.output.map(|k| k as f64).unwrap_or(f64::NAN),
                    f64::from(correct),
                    out.agreement,
                ]
            },
        ),
        // Theorem 4.1: signal time of the threshold-8 Figure-1 counter
        // started dense — flat in n for any uniform protocol.
        "counter_signal" => SweepExperiment::new("counter_signal", &["time"], |ctx| {
            vec![counter_signal_trial(ctx.n, 8, ctx.seed)]
        }),
        // Theorem 4.1's other two "terminating" dense protocols: the
        // threshold-40 fixed counter and the ×10 geometric timer. Their
        // signal times are flat in n like the counter's.
        "fixed_signal" => SweepExperiment::new("fixed_signal", &["time"], |ctx| {
            vec![fixed_signal_time(ctx.n, 40, ctx.seed)]
        }),
        "geometric_signal" => SweepExperiment::new("geometric_signal", &["time"], |ctx| {
            vec![geometric_signal_time(ctx.n, 10, ctx.seed)]
        }),
        // §1.1 composition: the uniformized cancellation/doubling majority
        // and its nonuniform reference on a 60/40 split — whether the
        // majority opinion 1 won, and the convergence time.
        "uniform_majority" => {
            SweepExperiment::new("uniform_majority", &["correct", "time"], |ctx| {
                let n = ctx.n as usize;
                let out = run_uniform_majority(n, n * 3 / 5, ctx.seed, 1e8);
                vec![f64::from(out.winner == Some(1)), out.time]
            })
        }
        "nonuniform_majority" => {
            SweepExperiment::new("nonuniform_majority", &["correct", "time"], |ctx| {
                let n = ctx.n as usize;
                let out = run_nonuniform_majority(n, n * 3 / 5, ctx.seed, 1e8);
                vec![f64::from(out.winner == Some(1)), out.time]
            })
        }
        // §1.1 composition: the uniformized coin-tournament leader
        // election — surviving contenders (never 0) and completion time.
        "uniform_election" => {
            SweepExperiment::new("uniform_election", &["contenders", "time"], |ctx| {
                let out = run_uniform_election(ctx.n as usize, ctx.seed, 1e8);
                vec![out.contenders as f64, out.time]
            })
        }
        // Lemma 3.8 logSize2 band, protocol-in-the-loop: the value the
        // full protocol settles on and whether it landed inside
        // `[log n − log ln n, 2 log n + 1]` (the fast Monte-Carlo half of
        // the lemma's table stays in its harness binary — it samples raw
        // geometrics, not a population). Per-agent engine.
        "logsize2_band" => SweepExperiment::new("logsize2_band", &["logsize2", "in_band"], |ctx| {
            let v = estimate_log_size(ctx.n as usize, ctx.seed, None)
                .maxima
                .log_size2 as f64;
            let (lo, hi) = logsize2_band(ctx.n);
            vec![v, f64::from(v >= lo && v <= hi)]
        }),
        // Lemma 3.9 field ranges: the per-trial maxima of every
        // `Log-Size-Estimation` field plus the implied state-count
        // estimate. The harness binary folds the across-trial maxima back
        // into a `FieldMaxima` for the `O(log⁴ n)` table. Per-agent engine.
        "state_bounds" => SweepExperiment::new(
            "state_bounds",
            &["log_size2", "gr", "time", "epoch", "sum", "states"],
            |ctx| {
                let maxima = estimate_log_size(ctx.n as usize, ctx.seed, None).maxima;
                vec![
                    maxima.log_size2 as f64,
                    maxima.gr as f64,
                    maxima.time as f64,
                    maxima.epoch as f64,
                    maxima.sum as f64,
                    maxima.state_count_estimate() as f64,
                ]
            },
        ),
        // Lemma 3.2 / Corollary 3.3 role partition: |A|, its absolute
        // deviation from n/2, and the completion time. Runs on the count
        // engines (batched at scale).
        "partition" => SweepExperiment::new("partition", &["a_count", "abs_dev", "time"], |ctx| {
            let out = run_partition(ctx.n as usize, ctx.seed);
            vec![
                out.a_count as f64,
                (out.a_count as f64 - ctx.n as f64 / 2.0).abs(),
                out.time,
            ]
        }),
        // Appendix D geometric maxima (Lemmas D.4/D.10): one trial = one
        // max of N geometrics plus one Corollary-D.10 average of
        // K = ⌈4 log N⌉ such maxima (`n` plays the role of N — no
        // population is simulated).
        "geometric_maxima" => {
            SweepExperiment::new("geometric_maxima", &["max", "d10_avg"], |ctx| {
                let mut rng = rng_from_seed(ctx.seed);
                let max = max_geometric_sample(ctx.n, &mut rng) as f64;
                let k = d10_min_k(ctx.n);
                let sum: u64 = (0..k).map(|_| max_geometric_sample(ctx.n, &mut rng)).sum();
                vec![max, sum as f64 / k as f64]
            })
        }
        // The §1 intro example: `x, q → y, y` doubling completes in
        // O(log n) time, `x, x → y, q` halving in Θ(n) — one trial runs
        // both at input `x = n/4` (doubling's fuel stays plentiful).
        // Halving is Θ(n²) interactions, so callers keep the size axis
        // modest and the trial cap low.
        "intro_functions" => {
            SweepExperiment::new("intro_functions", &["double_time", "halve_time"], |ctx| {
                let x = ctx.n / 4;
                let (_, double) = double_time(ctx.n, x, ctx.seed);
                let (_, halve) = halve_time(ctx.n, x, ctx.seed ^ 1);
                vec![double, halve]
            })
            .with_max_trials(8)
        }
        // Constant ablation of `Log-Size-Estimation` at a fixed
        // population of [`ABLATION_N`]: the grid axis carries the
        // `(clock multiplier, epoch multiplier)` pair via
        // [`ablation_code`]. Signed error (NaN if the run produced no
        // output), convergence time, and the converged flag. Per-agent
        // engine.
        "ablation" => SweepExperiment::new("ablation", &["err", "time", "converged"], |ctx| {
            let (clock, epochs) = ablation_decode(ctx.n);
            let protocol = LogSizeEstimation::with_constants(clock, epochs, 2);
            let out = estimate_with(protocol, ABLATION_N as usize, ctx.seed, Some(1e7));
            vec![
                out.error(ABLATION_N).unwrap_or(f64::NAN),
                out.time,
                f64::from(out.converged),
            ]
        }),
        // Appendix E timer lemma (E.1 balls-into-bins, E.3 worst-case
        // consumption): one trial throws `m = n/2` balls at `k = n/2`
        // empty bins and reports the bins still empty, then runs the
        // worst-case consumption process on a count-`k` state for one
        // unit of time and reports the surviving count.
        "timer_lemma" => {
            SweepExperiment::new("timer_lemma", &["e1_remaining", "e3_survivors"], |ctx| {
                let k = ctx.n / 2;
                let mut rng = rng_from_seed(ctx.seed);
                let remaining = simulate_balls_bins(ctx.n, k, k, &mut rng) as f64;
                let survivors = simulate_worst_case_consumption(ctx.n, k, 1.0, &mut rng) as f64;
                vec![remaining, survivors]
            })
        }
        // Appendix B synthetic-coin variant (Lemma B.5) vs the randomized
        // main protocol: one trial runs both (disjoint seed streams),
        // reporting the synthetic run's convergence time and per-agent
        // output range beside the main protocol's time. Outputs are
        // per-agent, so `min_output`/`max_output` bound the spread;
        // coin harvesting costs an extra epidemic per geometric, so
        // callers keep the size axis modest. Both halves run on the
        // per-agent engine.
        "synthetic_coin" => SweepExperiment::new(
            "synthetic_coin",
            &["synth_time", "main_time", "min_output", "max_output"],
            |ctx| {
                let synth = estimate_log_size_synthetic(ctx.n as usize, ctx.seed, 1e8);
                let main = estimate_log_size(ctx.n as usize, ctx.seed ^ 1, None);
                vec![
                    synth.time,
                    main.time,
                    synth.min_output as f64,
                    synth.max_output as f64,
                ]
            },
        ),
        _ => return None,
    })
}

/// Resolves a list of registry names, failing with the full catalogue on
/// the first unknown name.
pub fn build(requested: &[impl AsRef<str>]) -> Result<Vec<SweepExperiment>, String> {
    if requested.is_empty() {
        return Err(format!(
            "no experiments requested; available: {}",
            names().join(", ")
        ));
    }
    requested
        .iter()
        .map(|name| {
            let name = name.as_ref();
            experiment(name).ok_or_else(|| {
                format!(
                    "unknown experiment {name:?}; available: {}",
                    names().join(", ")
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_builds() {
        for &name in names() {
            let exp = experiment(name).expect(name);
            assert_eq!(exp.name(), name);
            assert!(!exp.metrics().is_empty());
        }
    }

    #[test]
    fn unknown_names_list_the_catalogue() {
        assert!(experiment("nope").is_none());
        let err = build(&["epidemic_full", "nope"]).unwrap_err();
        assert!(
            err.contains("nope") && err.contains("epidemic_full"),
            "{err}"
        );
        assert!(build(&Vec::<String>::new()).is_err());
    }

    #[test]
    fn signal_and_composition_trials_are_sane() {
        let names = [
            "fixed_signal",
            "geometric_signal",
            "uniform_majority",
            "nonuniform_majority",
            "uniform_election",
        ];
        let mut spec = pp_sweep::SweepSpec::new("t", vec![200], 2);
        spec.master_seed = 7;
        let report = pp_sweep::run_sweep(&spec, &build(&names).unwrap()).unwrap();
        for name in names {
            let point = report.point(name, 200);
            assert_eq!(point.trials.len(), 2, "{name}");
            for time in point.raw_values("time") {
                assert!(time.is_finite() && time > 0.0, "{name} time {time}");
            }
        }
        assert_eq!(report.point("fixed_signal", 200).metrics, ["time"]);
        assert_eq!(report.point("geometric_signal", 200).metrics, ["time"]);
        for name in ["uniform_majority", "nonuniform_majority"] {
            let point = report.point(name, 200);
            assert_eq!(point.metrics, ["correct", "time"]);
            for c in point.raw_values("correct") {
                assert!(c == 0.0 || c == 1.0, "{name} correct {c}");
            }
        }
        let election = report.point("uniform_election", 200);
        assert_eq!(election.metrics, ["contenders", "time"]);
        for c in election.raw_values("contenders") {
            assert!(c >= 1.0, "election left {c} contenders");
        }
    }

    #[test]
    fn epidemic_trial_produces_sane_time() {
        let exp = experiment("epidemic_full").unwrap();
        let report =
            pp_sweep::run_sweep(&pp_sweep::SweepSpec::new("t", vec![1_000], 3), &[exp]).unwrap();
        let mean = report.point("epidemic_full", 1_000).mean("time");
        assert!(mean > 2.0 && mean < 60.0, "epidemic mean time {mean}");
    }
}
