//! **Figure 2**: convergence time of `Log-Size-Estimation` vs population
//! size.
//!
//! The paper plots 10 trials at each `n ∈ {10², 10³, 10⁴, 10⁵}`; convergence
//! is "all agents reach `epoch = 5·logSize2`", and the observed estimate is
//! always within additive error 2 in practice. The x axis is log-scaled, so
//! the `Θ(log² n)` time shows as a gently accelerating curve.
//!
//! Default sizes stop at 10⁴ (a 10⁵ trial simulates ~10¹⁰ interactions);
//! pass `--full` to add 10⁵, or `--sizes`/`--trials` to customize.
//!
//! Runs on the sweep registry (`logsize_estimate` experiment): trials fan
//! out over the seeded worker pool and `--journal PATH` makes runs
//! resumable.

use pp_bench::{
    ascii_scatter_logx, experiments, fmt, print_table, run_sweep_or_exit, write_csv, HarnessArgs,
};

fn main() {
    let mut args = HarnessArgs::parse(&[100, 316, 1000, 3162, 10_000], 10);
    if args.full && !args.sizes.contains(&100_000) {
        args.sizes.push(100_000);
    }
    let spec = args.sweep_spec("fig2_convergence");
    println!(
        "Figure 2: Log-Size-Estimation convergence time (trials={})",
        spec.effective_trials()
    );
    println!("paper: O(log^2 n) time w.p. >= 1 - 1/n^2; estimate within 5.7 of log n (within 2 in practice)\n");
    let experiments = experiments::build(&["logsize_estimate"]).expect("registered");
    let report = run_sweep_or_exit(&spec, &experiments);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut means = Vec::new();
    for point in report.points_for("logsize_estimate") {
        let n = point.n;
        let times = point.values("time");
        let summary = point.summary("time");
        let max_abs_err = point
            .values("err")
            .iter()
            .fold(0.0f64, |a, &e| a.max(e.abs()));
        points.extend(times.iter().map(|&t| (n as f64, t)));
        means.push((n, summary.mean));
        rows.push(vec![
            n.to_string(),
            point.count_true("converged").to_string(),
            fmt(summary.mean),
            fmt(summary.min),
            fmt(summary.max),
            fmt(max_abs_err),
        ]);
    }
    let header = [
        "n",
        "converged",
        "mean_time",
        "min_time",
        "max_time",
        "max_|err|",
    ];
    print_table(&header, &rows);
    println!("\n{}", ascii_scatter_logx(&points, 70, 18));

    // The paper's scaling claim: time ~ log^2 n fits better than ~ log n.
    if means.len() >= 3 {
        let (lin, quad) = pp_analysis::fit::compare_scaling_models(&means);
        println!(
            "scaling fit: time ~ a + b*log n    R^2 = {:.4}",
            lin.r_squared
        );
        println!(
            "scaling fit: time ~ a + b*log^2 n  R^2 = {:.4}  (slope {:.1})",
            quad.r_squared, quad.slope
        );
    }
    let csv_rows: Vec<Vec<String>> = points
        .iter()
        .map(|&(n, t)| vec![format!("{n}"), format!("{t}")])
        .collect();
    write_csv("fig2_convergence", &["n", "parallel_time"], &csv_rows);
}
