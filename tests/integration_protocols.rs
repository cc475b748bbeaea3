//! Cross-crate integration tests: the full protocol stack end to end.
//!
//! The Log-Size-Estimation runs here use the default per-agent engine:
//! these tests check paper-level protocol properties, which are
//! engine-independent — `tests/unified_equivalence.rs` holds the count
//! engine to the same law.

use uniform_sizeest::analysis;
use uniform_sizeest::baselines::alistarh::weak_estimate;
use uniform_sizeest::protocols::log_size::{estimate_log_size, estimate_with, LogSizeEstimation};
use uniform_sizeest::protocols::synthetic::estimate_log_size_synthetic;
use uniform_sizeest::protocols::upper_bound::estimate_upper_bound;

#[test]
fn theorem_3_1_band_across_sizes() {
    for n in [100u64, 400, 1600] {
        let logn = (n as f64).log2();
        let mut in_band = 0;
        let trials = 5;
        for seed in 0..trials {
            let out = estimate_log_size(n as usize, 9000 + seed, None);
            assert!(out.converged, "n={n} seed={seed} did not converge");
            let k = out.output.unwrap() as f64;
            if (k - logn).abs() <= 5.7 {
                in_band += 1;
            }
        }
        assert_eq!(in_band, trials, "n={n}: {in_band}/{trials} in the 5.7 band");
    }
}

#[test]
fn convergence_time_grows_subpolynomially() {
    // O(log^2 n): a 16x larger population should take well under 4x the
    // time (log^2 ratio for 100 -> 1600 is (10.6/6.6)^2 ≈ 2.6).
    let t_small: f64 = (0..3)
        .map(|s| estimate_log_size(100, 100 + s, None).time)
        .sum::<f64>()
        / 3.0;
    let t_large: f64 = (0..3)
        .map(|s| estimate_log_size(1600, 200 + s, None).time)
        .sum::<f64>()
        / 3.0;
    let ratio = t_large / t_small;
    assert!(ratio < 5.0, "time ratio {ratio} too steep for O(log^2 n)");
    assert!(ratio > 1.0, "larger population should not be faster");
}

#[test]
fn additive_beats_multiplicative_at_scale() {
    // The paper's core comparison: at n = 4096 the weak estimator's error
    // is typically well above the main protocol's.
    let n = 4096usize;
    let logn = (n as f64).log2(); // 12
    let trials = 6;
    let weak_mean_err: f64 = (0..trials)
        .map(|s| (weak_estimate(n, 300 + s).estimate as f64 - logn).abs())
        .sum::<f64>()
        / trials as f64;
    let main_mean_err: f64 = (0..trials)
        .map(|s| {
            estimate_log_size(n, 400 + s, None)
                .error(n as u64)
                .unwrap()
                .abs()
        })
        .sum::<f64>()
        / trials as f64;
    assert!(
        main_mean_err < weak_mean_err + 2.0,
        "main {main_mean_err} vs weak {weak_mean_err}"
    );
    assert!(main_mean_err <= 5.7);
}

#[test]
fn upper_bound_variant_is_safe_and_tight() {
    let n = 200;
    let logn = (n as f64).log2();
    for seed in 0..3 {
        let out = estimate_upper_bound(n, 500 + seed, 3000.0);
        assert!(out.fast_converged);
        assert!(
            out.report as f64 >= logn,
            "seed {seed}: report {} < log n",
            out.report
        );
        assert!(
            out.report as f64 <= logn + 10.0,
            "seed {seed}: report {} too loose",
            out.report
        );
    }
}

#[test]
fn synthetic_variant_matches_randomized_band() {
    let n = 250;
    let logn = (n as f64).log2();
    let out = estimate_log_size_synthetic(n, 600, 1e8);
    assert!(out.converged);
    assert!((out.min_output as f64 - logn).abs() <= 6.7);
    assert!((out.max_output as f64 - logn).abs() <= 6.7);
}

#[test]
fn custom_constants_still_converge() {
    // Double the clock: slower but still correct.
    let protocol = LogSizeEstimation::with_constants(190, 5, 2);
    let out = estimate_with(protocol, 150, 700, Some(1e7));
    assert!(out.converged);
    let err = out.error(150).unwrap().abs();
    assert!(err <= 5.7, "doubled clock broke the band: {err}");
}

#[test]
fn analysis_predictions_match_protocol_scale() {
    // The phase-clock budget must comfortably exceed measured times, and
    // both it and the paper's Corollary 3.10 budget must share the
    // Θ(log² n) shape. (The C3.10 *constant* is optimistic — it charges
    // each epoch only the epidemic time, not the full 95·logSize2 clock —
    // so measured times can exceed it at small n; see EXPERIMENTS.md.)
    for n in [100u64, 1000] {
        let budget = uniform_sizeest::protocols::log_size::default_time_budget(n);
        let t = estimate_log_size(n as usize, 800 ^ n, None).time;
        assert!(
            t < budget,
            "n={n}: measured {t} exceeded the clock budget {budget}"
        );
    }
    let shape = |f: fn(u64) -> f64| f(1_000_000) / f(1_000);
    let ours = shape(uniform_sizeest::protocols::log_size::default_time_budget);
    let papers = shape(analysis::subexp::corollary_3_10_time_budget);
    assert!(
        (ours / papers - 1.0).abs() < 0.5,
        "shapes diverge: {ours} vs {papers}"
    );
}
