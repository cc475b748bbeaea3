//! Integration tests for the Theorem 4.1 side: producibility, density,
//! doomed terminators, and the leader escape hatch.

use uniform_sizeest::baselines::naive_terminating::{fixed_signal_time, geometric_signal_time};
use uniform_sizeest::protocols::leader::run_terminating;
use uniform_sizeest::termination::density::{density, even_dense_config, leader_config};
use uniform_sizeest::termination::experiment::{
    counter_dense_config, counter_protocol, signal_time, verify_density_lemma, COUNTER_T, COUNTER_X,
};
use uniform_sizeest::termination::producible::{producible_closure, termination_is_producible};

#[test]
fn theorem_4_1_flat_signal_times() {
    // All three doomed protocols: 100x population, signal time ~flat.
    let rel = counter_protocol(8);
    let t1 = signal_time(
        &rel,
        counter_dense_config(2_000),
        |&s| s == COUNTER_T,
        1e4,
        1,
    )
    .unwrap();
    let t2 = signal_time(
        &rel,
        counter_dense_config(200_000),
        |&s| s == COUNTER_T,
        1e4,
        2,
    )
    .unwrap();
    assert!(t2 / t1 < 3.0, "counter: {t1} -> {t2}");

    let f1 = fixed_signal_time(2_000, 40, 3);
    let f2 = fixed_signal_time(200_000, 40, 4);
    assert!(f2 / f1 < 2.0, "fixed: {f1} -> {f2}");

    let g1 = geometric_signal_time(2_000, 10, 5);
    let g2 = geometric_signal_time(200_000, 10, 6);
    assert!(g2 < 20.0 && g1 < 20.0, "geometric: {g1}, {g2}");
}

#[test]
fn lemma_4_2_delta_does_not_collapse() {
    let rel = counter_protocol(5);
    let mut fractions = Vec::new();
    for (i, n) in [5_000u64, 50_000, 500_000].into_iter().enumerate() {
        let report = verify_density_lemma(&rel, counter_dense_config(n), 1.0, None, 4.0, i as u64);
        fractions.push(report.min_fraction());
    }
    let min = fractions.iter().cloned().fold(1.0f64, f64::min);
    assert!(min > 1e-3, "delta collapsed: {fractions:?}");
    // Shape: roughly constant across two orders of magnitude.
    assert!(
        fractions[2] > fractions[0] / 5.0,
        "delta shrinking with n: {fractions:?}"
    );
}

#[test]
fn producibility_is_the_right_certificate() {
    // The terminated state is producible from the dense start but NOT from
    // a start missing the fuel state — and the signal-time measurements
    // agree with the certificate.
    let rel = counter_protocol(6);
    assert!(termination_is_producible(&rel, [0u16, COUNTER_X], 1.0, |&s| s == COUNTER_T).is_some());
    assert!(termination_is_producible(&rel, [0u16], 1.0, |&s| s == COUNTER_T).is_none());
    let no_fuel = even_dense_config(&[0u16], 10_000);
    assert_eq!(
        signal_time(&rel, no_fuel, |&s| s == COUNTER_T, 100.0, 7),
        None
    );
}

#[test]
fn closure_levels_are_monotone_in_rho() {
    let rel = counter_protocol(6);
    let loose = producible_closure(&rel, [0u16, COUNTER_X], 0.5, None);
    let tight = producible_closure(&rel, [0u16, COUNTER_X], 1.0, None);
    // Every 1.0-producible state is 0.5-producible.
    for s in tight.final_set() {
        assert!(loose.final_set().contains(s));
    }
}

#[test]
fn leader_configs_are_not_dense_but_dense_configs_are() {
    let dense = counter_dense_config(10_000);
    assert!(density(&dense) >= 0.49);
    let with_leader = leader_config(COUNTER_T, &[0u16, COUNTER_X], 10_000);
    assert!(density(&with_leader) < 0.001);
}

#[test]
fn leader_termination_waits_while_dense_signals_cannot() {
    // The paper's dichotomy: the leader's clock fires at Θ(logSize2²) =
    // Θ(log² n) parallel time — with a deterministic lower bound from the
    // Lemma 3.8 band — while any dense uniform signal fires at O(1).
    // (Raw firing times across two n are NOT comparable trial-to-trial:
    // the threshold is 2000·logSize2² and logSize2 is a random draw whose
    // bands for nearby n overlap.)
    let n = 400u64;
    let out = run_terminating(n as usize, 900, 1e8);
    assert!(out.terminated);
    // Minimum possible threshold: logSize2 ≥ log n − log ln n (+2 offset
    // means ≥ that even without slack); leader needs threshold
    // interactions ≈ threshold/2 parallel time.
    let ls_min = (n as f64).log2() - (n as f64).ln().log2();
    let t_min = 2000.0 * ls_min * ls_min / 2.0;
    assert!(
        out.termination_time >= 0.8 * t_min,
        "leader fired at {} — below the clock's lower bound {t_min}",
        out.termination_time
    );
    // Dense contrast: the doomed counter signals three orders of magnitude
    // earlier at the same n.
    let rel = counter_protocol(8);
    let dense = signal_time(&rel, counter_dense_config(n), |&s| s == COUNTER_T, 1e4, 902).unwrap();
    assert!(
        out.termination_time > 100.0 * dense,
        "leader {} vs dense {dense}",
        out.termination_time
    );
}
