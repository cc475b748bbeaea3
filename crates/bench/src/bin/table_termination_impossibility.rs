//! **T4.1 / L4.2**: the termination impossibility, made visible.
//!
//! Three uniform dense "terminating" protocols — the Figure-1 counter, the
//! fixed-threshold counter, and the geometric timer — all raise their
//! signal at an essentially *constant* parallel time as `n` grows by 1000×.
//! Alongside, Lemma 4.2's density claim: every `m-ρ`-producible state
//! (including the terminated one) occupies a δ-fraction of the population
//! by a constant time, with δ independent of `n`.
//!
//! The signal times run on the sweep registry (`counter_signal`,
//! `fixed_signal` and `geometric_signal` experiments), so `--journal PATH`
//! makes them resumable. The density check is one direct call per `n`.

use pp_bench::{experiments, fmt, print_table, run_sweep_or_exit, write_csv, HarnessArgs};
use pp_termination::experiment::{
    counter_dense_config, counter_protocol, verify_density_lemma, COUNTER_T,
};

fn main() {
    let args = HarnessArgs::parse(&[1000, 10_000, 100_000, 1_000_000], 5);
    let spec = args.sweep_spec("table_termination_impossibility");
    println!(
        "Theorem 4.1: signal times of uniform dense protocols are O(1) in n (trials={})",
        spec.effective_trials()
    );
    let signals = ["counter_signal", "fixed_signal", "geometric_signal"];
    let experiments = experiments::build(&signals).expect("registered");
    let report = run_sweep_or_exit(&spec, &experiments);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &args.sizes {
        let [counter, fixed, geo] = signals.map(|name| report.point(name, n).mean("time"));
        rows.push(vec![n.to_string(), fmt(counter), fmt(fixed), fmt(geo)]);
        csv.push(vec![
            n.to_string(),
            format!("{counter}"),
            format!("{fixed}"),
            format!("{geo}"),
        ]);
    }
    print_table(
        &[
            "n",
            "fig1_counter(8)",
            "fixed_counter(40)",
            "geo_timer(x10)",
        ],
        &rows,
    );
    println!("\n(all three columns must stay flat as n grows 1000x — that is Theorem 4.1)");

    println!(
        "\nLemma 4.2: density of every m-rho-producible state at time 4 (counter(6), alpha=1/2)"
    );
    let rel = counter_protocol(6);
    let mut drows = Vec::new();
    for &n in &args.sizes {
        let report =
            verify_density_lemma(&rel, counter_dense_config(n), 1.0, None, 4.0, args.seed ^ n);
        let min_frac = report.min_fraction();
        let t_frac = report
            .states
            .iter()
            .find(|s| s.state == COUNTER_T)
            .map(|s| s.fraction)
            .unwrap_or(0.0);
        drows.push(vec![
            n.to_string(),
            report.states.len().to_string(),
            fmt(min_frac),
            fmt(t_frac),
        ]);
    }
    print_table(
        &["n", "closure_states", "min_fraction", "t_fraction"],
        &drows,
    );
    println!("\n(min_fraction is Lemma 4.2's delta: it must NOT shrink as n grows)");
    write_csv(
        "table_termination_impossibility",
        &["n", "counter_signal", "fixed_signal", "geo_signal"],
        &csv,
    );
}
