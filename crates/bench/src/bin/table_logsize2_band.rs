//! **L3.8**: the `logSize2` band.
//!
//! Claim: the settled `logSize2` (max of |A| geometric samples, plus 2) is
//! in `[log n − log ln n, 2 log n + 1]` with probability
//! `≥ 1 − 1/n − e^{−n/18}`. Measured two ways: direct Monte-Carlo of the
//! maximum (fast, many trials, stays inline — it samples raw geometrics,
//! not a population) and the value the full protocol actually settles on,
//! which runs as a `pp-sweep` grid over the registry's `logsize2_band`
//! experiment — so trials fan out over `--threads` workers and `--journal`
//! makes the run resumable.

use pp_analysis::geometric::{logsize2_band, max_geometric_sample};
use pp_bench::{experiments, fmt, print_table, run_sweep_or_exit, write_csv, HarnessArgs};
use pp_engine::rng::rng_from_seed;

fn main() {
    let args = HarnessArgs::parse(&[100, 1000, 10_000], 10);
    let spec = args.sweep_spec("table_logsize2_band");
    println!(
        "Lemma 3.8 logSize2 band (protocol trials={}): log n - log ln n <= logSize2 <= 2 log n + 1",
        spec.effective_trials()
    );

    let experiments = experiments::build(&["logsize2_band"]).expect("registry names");
    let report = run_sweep_or_exit(&spec, &experiments);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &n in &args.sizes {
        let (lo, hi) = logsize2_band(n);
        // Monte-Carlo of max over n/2 samples (the A subpopulation), +2.
        let mc_trials = 20_000;
        let mut rng = rng_from_seed(args.seed ^ n);
        let mut mc_within = 0u64;
        let mut mc_sum = 0.0;
        for _ in 0..mc_trials {
            let v = (max_geometric_sample(n / 2, &mut rng) + 2) as f64;
            mc_sum += v;
            if v >= lo && v <= hi {
                mc_within += 1;
            }
        }
        // Protocol-in-the-loop, from the sweep report.
        let point = report.point("logsize2_band", n);
        let proto_vals = point.values("logsize2");
        let proto_within = point.values("in_band").iter().filter(|&&v| v > 0.0).count();
        let s = pp_analysis::stats::Summary::of(&proto_vals);
        rows.push(vec![
            n.to_string(),
            fmt(lo),
            fmt(hi),
            fmt(mc_sum / mc_trials as f64),
            format!("{:.4}", mc_within as f64 / mc_trials as f64),
            fmt(s.mean),
            format!("{}/{}", proto_within, proto_vals.len()),
        ]);
        csv.push(vec![
            n.to_string(),
            format!("{lo}"),
            format!("{hi}"),
            format!("{}", mc_sum / mc_trials as f64),
            format!("{}", s.mean),
        ]);
    }
    print_table(
        &[
            "n",
            "band_lo",
            "band_hi",
            "mc_mean",
            "mc_in_band",
            "proto_mean",
            "proto_in_band",
        ],
        &rows,
    );
    write_csv(
        "table_logsize2_band",
        &["n", "band_lo", "band_hi", "mc_mean", "proto_mean"],
        &csv,
    );
}
