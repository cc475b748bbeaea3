//! Aggregated sweep results.
//!
//! The runner stores every trial's metric vector in a slot indexed by its
//! grid coordinates, so a [`SweepReport`] is independent of worker
//! scheduling: the same spec and master seed produce the same report — and
//! the same emitted bytes — at any thread count. Missing metric values
//! (e.g. "termination time" of a run that never terminated) are encoded as
//! NaN and excluded from summaries.

use pp_analysis::stats::{quantile, Summary};

/// One completed trial at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Trial index in `0..trials`.
    pub trial: usize,
    /// The derived seed the trial ran with.
    pub seed: u64,
    /// Metric values, in the experiment's metric order (NaN = missing).
    pub values: Vec<f64>,
    /// Nonzero engine telemetry counters observed during the trial
    /// (name → cumulative count), sorted by name. Empty when the trial
    /// predates telemetry or simply touched no instrumented engine
    /// path. Counters are a deterministic function
    /// of the trial's trajectory, so resumed and fresh runs agree.
    pub counters: Vec<(String, u64)>,
}

/// All trials of one experiment at one population size.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Experiment name.
    pub experiment: String,
    /// Population size.
    pub n: u64,
    /// Metric names, fixing the order of [`TrialRecord::values`].
    pub metrics: Vec<String>,
    /// Trial records, ordered by trial index.
    pub trials: Vec<TrialRecord>,
}

impl PointResult {
    /// Index of `metric` in this point's metric list.
    ///
    /// # Panics
    ///
    /// Panics if the experiment has no such metric.
    pub fn metric_index(&self, metric: &str) -> usize {
        self.metrics
            .iter()
            .position(|m| m == metric)
            .unwrap_or_else(|| {
                panic!(
                    "experiment {:?} has no metric {metric:?} (has: {:?})",
                    self.experiment, self.metrics
                )
            })
    }

    /// The metric's present (non-NaN) values, in trial order.
    pub fn values(&self, metric: &str) -> Vec<f64> {
        let idx = self.metric_index(metric);
        self.trials
            .iter()
            .map(|t| t.values[idx])
            .filter(|x| !x.is_nan())
            .collect()
    }

    /// The metric's raw values including NaN placeholders, in trial order.
    pub fn raw_values(&self, metric: &str) -> Vec<f64> {
        let idx = self.metric_index(metric);
        self.trials.iter().map(|t| t.values[idx]).collect()
    }

    /// Summary statistics over the metric's present values.
    ///
    /// # Panics
    ///
    /// Panics if no trial produced the metric (matching
    /// [`Summary::of`] on an empty sample).
    pub fn summary(&self, metric: &str) -> Summary {
        Summary::of(&self.values(metric))
    }

    /// Mean of the metric's present values (shorthand for
    /// `summary(metric).mean`).
    pub fn mean(&self, metric: &str) -> f64 {
        self.summary(metric).mean
    }

    /// Empirical quantile (`q ∈ [0, 1]`) of the metric's present values.
    pub fn quantile(&self, metric: &str, q: f64) -> f64 {
        quantile(&self.values(metric), q)
    }

    /// Number of trials whose value for a 0/1 indicator metric is true
    /// (present and `> 0.5`).
    pub fn count_true(&self, metric: &str) -> usize {
        self.values(metric).iter().filter(|&&x| x > 0.5).count()
    }

    /// Trials that carried a telemetry snapshot (nonzero counters).
    pub fn instrumented_trials(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| !t.counters.is_empty())
            .count()
    }

    /// Every counter name seen at this point, sorted (the union over
    /// instrumented trials).
    pub fn counter_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .trials
            .iter()
            .flat_map(|t| t.counters.iter().map(|(k, _)| k.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Sum of a counter across all instrumented trials (a trial that
    /// carried counters but not this one contributes zero).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.trials
            .iter()
            .flat_map(|t| &t.counters)
            .filter(|(k, _)| k == name)
            .map(|&(_, v)| v)
            .sum()
    }

    /// Mean of a counter over the instrumented trials, or NaN if no trial
    /// was instrumented.
    pub fn counter_mean(&self, name: &str) -> f64 {
        let trials = self.instrumented_trials();
        if trials == 0 {
            return f64::NAN;
        }
        self.counter_total(name) as f64 / trials as f64
    }
}

/// The aggregated outcome of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (from the spec).
    pub name: String,
    /// Master seed the grid was derived from.
    pub master_seed: u64,
    /// Grid points in canonical order (experiment-major, then size).
    pub points: Vec<PointResult>,
    /// How many trials were loaded from the journal instead of executed.
    pub resumed_trials: usize,
    /// How many trials failed permanently (panicked through all retries)
    /// and are therefore absent from their point's records. A sweep with
    /// failures still completes; callers deciding whether to trust the
    /// aggregates should check this.
    pub failed_trials: usize,
}

impl SweepReport {
    /// The grid point for `experiment` at population size `n`.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no such point.
    pub fn point(&self, experiment: &str, n: u64) -> &PointResult {
        self.points
            .iter()
            .find(|p| p.experiment == experiment && p.n == n)
            .unwrap_or_else(|| {
                panic!(
                    "sweep {:?} has no point ({experiment:?}, n = {n})",
                    self.name
                )
            })
    }

    /// All grid points of one experiment, in size order.
    pub fn points_for(&self, experiment: &str) -> Vec<&PointResult> {
        self.points
            .iter()
            .filter(|p| p.experiment == experiment)
            .collect()
    }

    /// Total trials across all points.
    pub fn total_trials(&self) -> usize {
        self.points.iter().map(|p| p.trials.len()).sum()
    }

    /// Whether any trial in the report carried telemetry counters —
    /// callers gate the counter emitters on this so uninstrumented sweeps
    /// produce exactly the bytes they always did.
    pub fn has_counters(&self) -> bool {
        self.points.iter().any(|p| p.instrumented_trials() > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point() -> PointResult {
        PointResult {
            experiment: "e".into(),
            n: 100,
            metrics: vec!["time".into(), "ok".into()],
            trials: vec![
                TrialRecord {
                    trial: 0,
                    seed: 1,
                    values: vec![2.0, 1.0],
                    counters: vec![("batches".into(), 4), ("gc_passes".into(), 1)],
                },
                TrialRecord {
                    trial: 1,
                    seed: 2,
                    values: vec![f64::NAN, 0.0],
                    counters: Vec::new(),
                },
                TrialRecord {
                    trial: 2,
                    seed: 3,
                    values: vec![4.0, 1.0],
                    counters: vec![("batches".into(), 8)],
                },
            ],
        }
    }

    #[test]
    fn nan_values_are_missing() {
        let p = point();
        assert_eq!(p.values("time"), vec![2.0, 4.0]);
        assert_eq!(p.raw_values("time").len(), 3);
        assert_eq!(p.summary("time").mean, 3.0);
        assert_eq!(p.count_true("ok"), 2);
        assert_eq!(p.quantile("time", 0.5), 3.0);
    }

    #[test]
    #[should_panic(expected = "no metric")]
    fn unknown_metric_panics_with_context() {
        point().values("nope");
    }

    #[test]
    fn counter_aggregation_skips_uninstrumented_trials() {
        let p = point();
        assert_eq!(p.instrumented_trials(), 2);
        assert_eq!(p.counter_names(), vec!["batches", "gc_passes"]);
        assert_eq!(p.counter_total("batches"), 12);
        assert_eq!(p.counter_mean("batches"), 6.0);
        // A counter only some instrumented trials saw averages over all
        // instrumented trials (absent = 0 for that trial).
        assert_eq!(p.counter_mean("gc_passes"), 0.5);
        assert_eq!(p.counter_total("nope"), 0);
        let empty = PointResult {
            trials: Vec::new(),
            ..point()
        };
        assert!(empty.counter_mean("batches").is_nan());
    }

    #[test]
    fn report_lookup() {
        let report = SweepReport {
            name: "s".into(),
            master_seed: 1,
            points: vec![point()],
            resumed_trials: 0,
            failed_trials: 0,
        };
        assert_eq!(report.point("e", 100).n, 100);
        assert_eq!(report.points_for("e").len(), 1);
        assert_eq!(report.total_trials(), 3);
    }
}
