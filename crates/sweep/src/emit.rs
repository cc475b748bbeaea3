//! Deterministic renderers for [`SweepReport`]: summary tables, CSV, and
//! JSON.
//!
//! Everything here is a pure function of the report (which is itself a
//! pure function of spec + master seed), so emitted bytes are identical
//! across thread counts and across resumed vs. uninterrupted runs — the
//! property the determinism suite asserts on these exact strings.

use std::fmt::Write as _;

use crate::agg::SweepReport;
use crate::json;

/// Header of the per-point summary table/CSV.
pub const SUMMARY_HEADER: [&str; 12] = [
    "experiment",
    "n",
    "metric",
    "count",
    "mean",
    "sd",
    "ci95",
    "min",
    "p10",
    "median",
    "p90",
    "max",
];

/// One row per (grid point, metric): count, mean, sd, CI half-width, and
/// the order statistics the paper's tables quote. Cells are compactly
/// formatted for terminal display; `count` is `present/trials`.
pub fn summary_rows(report: &SweepReport) -> Vec<Vec<String>> {
    rows_with(report, compact)
}

/// [`summary_rows`] at full (round-trip) float precision, for the CSV.
pub fn summary_rows_precise(report: &SweepReport) -> Vec<Vec<String>> {
    rows_with(report, |x| format!("{x}"))
}

fn rows_with(report: &SweepReport, fmt: impl Fn(f64) -> String) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for point in &report.points {
        for metric in &point.metrics {
            let values = point.values(metric);
            let mut row = vec![
                point.experiment.clone(),
                point.n.to_string(),
                metric.clone(),
                format!("{}/{}", values.len(), point.trials.len()),
            ];
            if values.is_empty() {
                row.extend(std::iter::repeat_n(
                    "-".to_string(),
                    SUMMARY_HEADER.len() - 4,
                ));
            } else {
                let s = point.summary(metric);
                row.extend([
                    fmt(s.mean),
                    fmt(s.stddev),
                    fmt(s.ci95_half_width()),
                    fmt(s.min),
                    fmt(point.quantile(metric, 0.10)),
                    fmt(s.median),
                    fmt(point.quantile(metric, 0.90)),
                    fmt(s.max),
                ]);
            }
            rows.push(row);
        }
    }
    rows
}

/// The summary as a CSV document (full float precision).
pub fn summary_csv(report: &SweepReport) -> String {
    let mut out = SUMMARY_HEADER.join(",");
    out.push('\n');
    for row in summary_rows_precise(report) {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Every trial as a CSV document: `experiment,n,trial,seed,<metrics…>`.
///
/// The metric columns are the union over experiments (in first-seen
/// order); a metric an experiment does not declare — or a trial did not
/// produce — is an empty cell.
pub fn per_trial_csv(report: &SweepReport) -> String {
    let mut metrics: Vec<&str> = Vec::new();
    for point in &report.points {
        for m in &point.metrics {
            if !metrics.contains(&m.as_str()) {
                metrics.push(m);
            }
        }
    }
    let mut out = String::from("experiment,n,trial,seed");
    for m in &metrics {
        out.push(',');
        out.push_str(m);
    }
    out.push('\n');
    for point in &report.points {
        for trial in &point.trials {
            let _ = write!(
                out,
                "{},{},{},{}",
                point.experiment, point.n, trial.trial, trial.seed
            );
            for m in &metrics {
                out.push(',');
                if let Some(idx) = point.metrics.iter().position(|pm| pm == m) {
                    let v = trial.values[idx];
                    if !v.is_nan() {
                        let _ = write!(out, "{v}");
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

/// The full report as a JSON document (summaries and per-trial values).
pub fn to_json(report: &SweepReport) -> String {
    let mut out = String::from("{\n  \"sweep\": ");
    json::write_str(&mut out, &report.name);
    // `resumed_trials` is deliberately omitted: it is run provenance, and
    // emitted documents must be identical between resumed and
    // uninterrupted runs.
    let _ = write!(
        out,
        ",\n  \"master_seed\": {},\n  \"points\": [\n",
        report.master_seed
    );
    for (i, point) in report.points.iter().enumerate() {
        out.push_str("    {\"experiment\": ");
        json::write_str(&mut out, &point.experiment);
        let _ = write!(out, ", \"n\": {}, \"metrics\": {{", point.n);
        for (j, metric) in point.metrics.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, metric);
            out.push_str(": [");
            for (k, v) in point.raw_values(metric).into_iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                json::write_f64(&mut out, v);
            }
            out.push(']');
        }
        out.push_str("}}");
        out.push_str(if i + 1 < report.points.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Header of the per-point telemetry-counter table/CSV.
pub const COUNTER_HEADER: [&str; 6] = ["experiment", "n", "counter", "trials", "mean", "total"];

/// One row per (grid point, observed counter): how many trials carried a
/// telemetry snapshot, the counter's mean over those trials, and its
/// total. Points whose trials carried no counters (pre-telemetry
/// journals) produce no rows, and a derived
/// `pair_cache_hit_rate` row (hits ÷ probes, total column `-`) is
/// appended wherever the pair-outcome cache was exercised.
pub fn counter_rows(report: &SweepReport) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for point in &report.points {
        let trials = point.instrumented_trials();
        if trials == 0 {
            continue;
        }
        for name in point.counter_names() {
            rows.push(vec![
                point.experiment.clone(),
                point.n.to_string(),
                name.to_string(),
                trials.to_string(),
                format!("{}", point.counter_mean(name)),
                point.counter_total(name).to_string(),
            ]);
        }
        let hits = point.counter_total("pair_cache_hits");
        let misses = point.counter_total("pair_cache_misses");
        if hits + misses > 0 {
            rows.push(vec![
                point.experiment.clone(),
                point.n.to_string(),
                "pair_cache_hit_rate".to_string(),
                trials.to_string(),
                format!("{}", hits as f64 / (hits + misses) as f64),
                "-".to_string(),
            ]);
        }
    }
    rows
}

/// The counter aggregates as a CSV document. Empty (header only) when no
/// trial was instrumented — gate on [`SweepReport::has_counters`] to skip
/// writing the file entirely.
pub fn counters_csv(report: &SweepReport) -> String {
    let mut out = COUNTER_HEADER.join(",");
    out.push('\n');
    for row in counter_rows(report) {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Compact float formatting for terminal tables (mirrors the bench
/// harness's `fmt`).
fn compact(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{PointResult, TrialRecord};

    fn report() -> SweepReport {
        SweepReport {
            name: "s".into(),
            master_seed: 3,
            points: vec![PointResult {
                experiment: "e".into(),
                n: 50,
                metrics: vec!["time".into(), "ok".into()],
                trials: vec![
                    TrialRecord {
                        trial: 0,
                        seed: 11,
                        values: vec![1.5, 1.0],
                        counters: vec![
                            ("gc_passes".into(), 2),
                            ("pair_cache_hits".into(), 3),
                            ("pair_cache_misses".into(), 1),
                        ],
                    },
                    TrialRecord {
                        trial: 1,
                        seed: 12,
                        values: vec![f64::NAN, 0.0],
                        counters: vec![("gc_passes".into(), 4)],
                    },
                ],
            }],
            resumed_trials: 0,
            failed_trials: 0,
        }
    }

    #[test]
    fn summary_counts_present_values() {
        let rows = summary_rows(&report());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][..4], ["e", "50", "time", "1/2"].map(String::from));
        assert_eq!(rows[1][3], "2/2");
    }

    #[test]
    fn per_trial_csv_blanks_missing_values() {
        let csv = per_trial_csv(&report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "experiment,n,trial,seed,time,ok");
        assert_eq!(lines[1], "e,50,0,11,1.5,1");
        assert_eq!(lines[2], "e,50,1,12,,0");
    }

    #[test]
    fn json_is_parseable_and_preserves_nan_as_null() {
        let doc = crate::json::parse(&to_json(&report())).unwrap();
        let points = doc.get("points").unwrap().as_arr().unwrap();
        let times = points[0].get("metrics").unwrap().get("time").unwrap();
        let times = times.as_arr().unwrap();
        assert_eq!(times[0].as_f64(), Some(1.5));
        assert!(times[1].as_f64().unwrap().is_nan());
    }

    #[test]
    fn counter_rows_aggregate_per_point() {
        let csv = counters_csv(&report());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], COUNTER_HEADER.join(","));
        assert_eq!(lines[1], "e,50,gc_passes,2,3,6");
        assert_eq!(lines[2], "e,50,pair_cache_hits,2,1.5,3");
        assert_eq!(lines[3], "e,50,pair_cache_misses,2,0.5,1");
        assert_eq!(lines[4], "e,50,pair_cache_hit_rate,2,0.75,-");
        assert_eq!(lines.len(), 5);
        // Uninstrumented reports produce no rows at all.
        let mut bare = report();
        for t in &mut bare.points[0].trials {
            t.counters.clear();
        }
        assert!(!bare.has_counters());
        assert_eq!(counters_csv(&bare).lines().count(), 1);
    }

    #[test]
    fn empty_metric_renders_dashes() {
        let mut r = report();
        r.points[0].trials[0].values[0] = f64::NAN;
        let rows = summary_rows(&r);
        assert_eq!(rows[0][4], "-");
    }
}
