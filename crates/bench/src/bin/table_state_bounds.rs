//! **T3.1-states**: the `O(log⁴ n)` state bound of Lemma 3.9.
//!
//! Claim (w.p. ≥ 1 − O(log n)/n), fields stay in:
//! `logSize2 ≤ 2 log n + 1`, `gr ≤ 2 log n`, `time ≤ 191 log n`,
//! `epoch ≤ 11 log n`, `sum ≤ 22 log² n`; with space multiplexing the
//! number of states is `O(log⁴ n)`. This harness reports the observed
//! maxima and the implied state-count estimate.
//!
//! Runs as a `pp-sweep` grid over the registry's `state_bounds`
//! experiment, so trials fan out over `--threads` workers and `--journal`
//! makes the run resumable. The across-trial field maxima are folded back
//! into a `FieldMaxima` here, so the reported state estimate is computed
//! from the componentwise maxima (an upper bound on any single trial's).

use pp_bench::{experiments, fmt, print_table, run_sweep_or_exit, write_csv, HarnessArgs};
use pp_core::log_size::FieldMaxima;

fn main() {
    let args = HarnessArgs::parse(&[100, 1000, 10_000], 10);
    let spec = args.sweep_spec("table_state_bounds");
    println!(
        "Lemma 3.9 field ranges and O(log^4 n) state bound (trials={})",
        spec.effective_trials()
    );

    let experiments = experiments::build(&["state_bounds"]).expect("registry names");
    let report = run_sweep_or_exit(&spec, &experiments);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &args.sizes {
        let point = report.point("state_bounds", n);
        let field_max = |metric: &str| {
            point
                .values(metric)
                .into_iter()
                .fold(0.0f64, f64::max)
                .round() as u64
        };
        let max = FieldMaxima {
            log_size2: field_max("log_size2"),
            gr: field_max("gr"),
            time: field_max("time"),
            epoch: field_max("epoch"),
            sum: field_max("sum"),
        };
        let logn = (n as f64).log2();
        let states = max.state_count_estimate() as f64;
        let log4 = logn.powi(4);
        rows.push(vec![
            n.to_string(),
            format!("{} (<={})", max.log_size2, fmt(2.0 * logn + 1.0)),
            format!("{} (<={})", max.gr, fmt(2.0 * logn)),
            format!("{} (<={})", max.time, fmt(191.0 * logn)),
            format!("{} (<={})", max.epoch, fmt(11.0 * logn)),
            format!("{} (<={})", max.sum, fmt(22.0 * logn * logn)),
            format!("{:.2e} ({:.1}x log^4)", states, states / log4),
        ]);
        csv.push(vec![
            n.to_string(),
            max.log_size2.to_string(),
            max.gr.to_string(),
            max.time.to_string(),
            max.epoch.to_string(),
            max.sum.to_string(),
            format!("{states}"),
        ]);
    }
    print_table(
        &[
            "n",
            "logSize2",
            "gr",
            "time",
            "epoch",
            "sum",
            "state_estimate",
        ],
        &rows,
    );
    println!("\n(ranges in parentheses are Lemma 3.9's w.h.p. bounds; the state estimate");
    println!(" should grow ~log^4 n, i.e. the trailing multiplier stays roughly flat)");
    write_csv(
        "table_state_bounds",
        &["n", "logSize2", "gr", "time", "epoch", "sum", "states"],
        &csv,
    );
}
