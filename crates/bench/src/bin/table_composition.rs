//! **Composition**: uniformized downstream protocols (§1.1).
//!
//! The paper's composition scheme (weak estimate + leaderless phase clock +
//! restart) should make the nonuniform cancellation/doubling majority and
//! the coin-tournament leader election *uniform* at a constant-factor time
//! cost. Measured: correctness of both against the nonuniform reference.
//!
//! Runs on the sweep registry (`uniform_majority`, `nonuniform_majority`
//! and `uniform_election` experiments): trials fan out over the seeded
//! worker pool and `--journal PATH` makes runs resumable.

use pp_bench::{experiments, fmt, print_table, run_sweep_or_exit, write_csv, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[200, 500, 1000], 8);
    let spec = args.sweep_spec("table_composition");
    println!(
        "Composition framework: uniformized majority and leader election (trials={})",
        spec.effective_trials()
    );
    let experiments = experiments::build(&[
        "uniform_majority",
        "nonuniform_majority",
        "uniform_election",
    ])
    .expect("registered");
    let report = run_sweep_or_exit(&spec, &experiments);

    println!("\nMajority with a 60/40 split:");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &args.sizes {
        let uni = report.point("uniform_majority", n);
        let non = report.point("nonuniform_majority", n);
        let (ut, nt) = (uni.mean("time"), non.mean("time"));
        rows.push(vec![
            n.to_string(),
            format!("{}/{}", uni.count_true("correct"), uni.trials.len()),
            format!("{}/{}", non.count_true("correct"), non.trials.len()),
            fmt(ut),
            fmt(nt),
            fmt(ut / nt),
        ]);
        csv.push(vec![
            n.to_string(),
            format!("{}", uni.mean("correct")),
            format!("{ut}"),
            format!("{nt}"),
        ]);
    }
    print_table(
        &[
            "n",
            "uniform_correct",
            "nonuniform_correct",
            "uniform_time",
            "nonuniform_time",
            "overhead",
        ],
        &rows,
    );

    println!("\nLeader election (coin tournament):");
    let mut rows2 = Vec::new();
    for point in report.points_for("uniform_election") {
        let contenders = point.values("contenders");
        let unique = contenders.iter().filter(|&&c| c == 1.0).count();
        let nonzero = contenders.iter().filter(|&&c| c >= 1.0).count();
        rows2.push(vec![
            point.n.to_string(),
            format!("{}/{}", unique, point.trials.len()),
            format!("{}/{}", nonzero, point.trials.len()),
            fmt(point.mean("time")),
        ]);
    }
    print_table(
        &["n", "unique_leader", ">=1 contender", "mean_time"],
        &rows2,
    );
    println!("\n(>=1 contender must be ALL trials — elimination can never kill the last one;");
    println!(" the uniform/nonuniform overhead should be a modest constant)");
    write_csv(
        "table_composition",
        &[
            "n",
            "uniform_majority_correct",
            "uniform_time",
            "nonuniform_time",
        ],
        &csv,
    );
}
