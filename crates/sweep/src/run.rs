//! The sweep runner: a crossbeam worker pool over a seeded trial grid.
//!
//! Trials are the unit of work. The grid is flattened into `(point,
//! trial)` tasks that workers pull from a shared counter; each trial's
//! seed is derived from the master seed and the trial's grid coordinates
//! (never from thread identity or arrival order), and each result lands in
//! a trial-indexed slot. Aggregated output is therefore **bit-identical**
//! across thread counts and scheduling orders, and a journaled trial can
//! be loaded instead of re-run without anyone downstream noticing.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use pp_analysis::stats::Running;
use pp_engine::env::FaultPlan;
use pp_engine::rng::derive_seed;
use pp_engine::EngineMode;

use crate::agg::{PointResult, SweepReport, TrialRecord};
use crate::journal::{fingerprint, Journal, JournalEntry};
use crate::spec::SweepSpec;

/// Everything a trial closure needs: its grid coordinates, derived seed,
/// and the sweep's engine policy.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Population size of this grid point.
    pub n: u64,
    /// Trial index in `0..trials`.
    pub trial: usize,
    /// Seed derived from `(master_seed, point, trial)`.
    pub seed: u64,
    /// Engine policy from the spec ([`SweepSpec::engine`]).
    pub engine: EngineMode,
}

/// One trial landing in its result slot — freshly executed by a worker or
/// replayed from the journal. Borrowed views into the runner's state; copy
/// out what you need.
#[derive(Debug, Clone, Copy)]
pub struct TrialEvent<'a> {
    /// Grid-point index (canonical experiment-major order).
    pub point: usize,
    /// Experiment name of the point.
    pub experiment: &'a str,
    /// Population size of the point.
    pub n: u64,
    /// Trial index in `0..trials`.
    pub trial: usize,
    /// The trial's derived seed.
    pub seed: u64,
    /// Metric values, in the experiment's declared order.
    pub values: &'a [f64],
    /// Nonzero telemetry counters the trial recorded.
    pub counters: &'a [(String, u64)],
    /// Whether the trial was replayed from the journal instead of run.
    pub resumed: bool,
    /// Trials landed so far (including this one).
    pub completed: usize,
    /// Total trials in the grid.
    pub total: usize,
}

/// Observation and control hooks for [`run_sweep_with`].
///
/// `on_trial` fires under the runner's lock for every trial that lands —
/// journal replays included (`resumed = true`) — so implementations must
/// be cheap and non-blocking (push to a channel, bump an accumulator).
/// `cancel`, once set, stops workers from picking up new trials; trials
/// already in flight finish and are journaled, so the journal remains a
/// valid resume point — the run then returns a "cancelled" error.
#[derive(Default, Clone, Copy)]
pub struct RunHooks<'a> {
    /// Called for every trial that lands in its slot.
    pub on_trial: Option<&'a (dyn Fn(&TrialEvent<'_>) + Sync)>,
    /// Checked at every trial boundary; `true` drains the worker pool.
    pub cancel: Option<&'a AtomicBool>,
}

impl std::fmt::Debug for RunHooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHooks")
            .field("on_trial", &self.on_trial.map(|_| ".."))
            .field("cancel", &self.cancel)
            .finish()
    }
}

/// A named experiment: a closure mapping a [`TrialCtx`] to one value per
/// declared metric.
///
/// Return NaN for a metric a trial did not produce (e.g. the termination
/// time of a run that never terminated); summaries skip missing values.
pub struct SweepExperiment {
    name: String,
    metrics: Vec<String>,
    max_trials: Option<usize>,
    engine_aware: bool,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(&TrialCtx) -> Vec<f64> + Send + Sync>,
}

impl SweepExperiment {
    /// Defines an experiment producing the given metrics (in order).
    pub fn new(
        name: impl Into<String>,
        metrics: &[&str],
        run: impl Fn(&TrialCtx) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        let metrics: Vec<String> = metrics.iter().map(|&m| m.into()).collect();
        assert!(
            !metrics.is_empty(),
            "an experiment needs at least one metric"
        );
        Self {
            name: name.into(),
            metrics,
            max_trials: None,
            engine_aware: false,
            run: Box::new(run),
        }
    }

    /// Caps this experiment's trials below the spec's count — for
    /// experiments whose single trial is orders of magnitude more
    /// expensive than the rest of the grid (e.g. the `Ω(n)`-time exact
    /// baselines riding along in an `O(log² n)` sweep).
    pub fn with_max_trials(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "max_trials must be at least 1");
        self.max_trials = Some(cap);
        self
    }

    /// Declares that the closure honors [`TrialCtx::engine`]. Sweeps whose
    /// spec pins a non-Auto engine refuse experiments without this marker
    /// — otherwise an `engine = "sequential"` vs `engine = "batched"`
    /// comparison would silently produce identical numbers for experiments
    /// that ignore the policy.
    pub fn with_engine_hook(mut self) -> Self {
        self.engine_aware = true;
        self
    }

    /// Whether the experiment declared that it honors the engine policy.
    pub fn is_engine_aware(&self) -> bool {
        self.engine_aware
    }

    /// Experiment name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared metric names.
    pub fn metrics(&self) -> &[String] {
        &self.metrics
    }
}

impl std::fmt::Debug for SweepExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepExperiment")
            .field("name", &self.name)
            .field("metrics", &self.metrics)
            .field("max_trials", &self.max_trials)
            .finish_non_exhaustive()
    }
}

/// A sweep failure: spec/journal mismatches, journal IO, or an experiment
/// returning the wrong number of metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError(pub String);

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep failed: {}", self.0)
    }
}

impl std::error::Error for SweepError {}

impl From<String> for SweepError {
    fn from(msg: String) -> Self {
        Self(msg)
    }
}

/// A `k/N` shard assignment for distributed sweep production: the shard
/// runs only the trials with `trial % N == k`, journaling them for a
/// later `merge_journals` on the full spec. Shards of one spec partition
/// the grid exactly (every trial is covered by exactly one shard), and
/// each trial's seed is a pure function of its grid coordinates, so the
/// merged report is byte-identical to a single-machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, in `0..count`.
    pub index: usize,
    /// Total number of shards the grid is split across.
    pub count: usize,
}

impl Shard {
    /// A validated shard assignment (`index < count`, `count ≥ 1`).
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (expected 0..{count})"
            ));
        }
        Ok(Self { index, count })
    }

    /// Whether this shard is responsible for `trial`.
    fn covers(&self, trial: usize) -> bool {
        trial % self.count == self.index
    }
}

impl std::str::FromStr for Shard {
    type Err = String;

    /// Parses the CLI form `k/N` (e.g. `0/2`, `1/2`).
    fn from_str(s: &str) -> Result<Self, String> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard {s:?} (expected k/N, e.g. 0/2)"))?;
        let parse = |part: &str| {
            part.trim()
                .parse::<usize>()
                .map_err(|_| format!("invalid shard {s:?} (expected k/N with unsigned integers)"))
        };
        Shard::new(parse(index)?, parse(count)?)
    }
}

/// One grid point: an experiment at a population size.
struct GridPoint {
    exp: usize,
    n: u64,
    trials: usize,
}

/// Flattens the grid (experiments × sizes, trial counts capped per
/// experiment) in the canonical point order shared by the runner, the
/// journal, and `--merge`.
fn build_points(spec: &SweepSpec, experiments: &[SweepExperiment]) -> Vec<GridPoint> {
    let trials = spec.effective_trials();
    let mut points = Vec::new();
    for (exp_idx, exp) in experiments.iter().enumerate() {
        for &n in &spec.sizes {
            points.push(GridPoint {
                exp: exp_idx,
                n,
                trials: exp.max_trials.map_or(trials, |cap| trials.min(cap)),
            });
        }
    }
    points
}

/// Fingerprint of the full grid — spec fields plus the experiment names,
/// metric lists, and trial caps. Journals carry it in their header: any
/// change to the grid makes old journals unresumable (refused, not
/// silently mixed in), and `sweep --merge` refuses shards whose
/// fingerprint differs.
pub fn grid_fingerprint(spec: &SweepSpec, experiments: &[SweepExperiment]) -> u64 {
    fingerprint(
        [
            spec.name.clone(),
            spec.master_seed.to_string(),
            format!("{:?}", spec.engine),
            format!("{:?}", spec.sizes),
            spec.effective_trials().to_string(),
        ]
        .into_iter()
        .chain(experiments.iter().flat_map(|e| {
            [
                e.name.clone(),
                e.metrics.join(","),
                format!("{:?}", e.max_trials),
            ]
        })),
    )
}

/// Validates one journaled trial against the current grid: known point,
/// in-range trial index, re-derivable seed, declared metric count
/// (skipped for failed-trial records, which carry no values).
fn validate_entry(
    spec: &SweepSpec,
    points: &[GridPoint],
    experiments: &[SweepExperiment],
    entry: &JournalEntry,
) -> Result<(), SweepError> {
    let gp = points
        .get(entry.point)
        .ok_or_else(|| SweepError(format!("journal entry for unknown point {}", entry.point)))?;
    if entry.trial >= gp.trials {
        return Err(SweepError(format!(
            "journal entry for trial {} of point {}, which has only {} trials",
            entry.trial, entry.point, gp.trials
        )));
    }
    let expected_seed = trial_seed(spec.master_seed, entry.point, entry.trial);
    if entry.seed != expected_seed {
        return Err(SweepError(format!(
            "journal seed {:#x} does not match the derived seed {expected_seed:#x} \
             for point {} trial {}",
            entry.seed, entry.point, entry.trial
        )));
    }
    if entry.failed.is_none() && entry.values.len() != experiments[gp.exp].metrics.len() {
        return Err(SweepError(format!(
            "journal entry for point {} has {} metric values, experiment {:?} declares {}",
            entry.point,
            entry.values.len(),
            experiments[gp.exp].name,
            experiments[gp.exp].metrics.len()
        )));
    }
    Ok(())
}

/// Merges the trial journals at `sources` — shards of one grid produced on
/// different machines — into the spec's own journal, so the next
/// [`run_sweep`] resumes from their union and produces a single report.
///
/// Every shard must carry the spec's exact grid fingerprint (name, master
/// seed, engine, sizes, trials, experiment definitions); a mismatched
/// shard is refused before anything is written, as is any entry that
/// fails seed re-derivation. Duplicate `(point, trial)` entries collapse
/// to the first occurrence (shards of a deterministic grid agree anyway).
/// Returns the number of distinct trials available after the merge.
pub fn merge_journals(
    spec: &SweepSpec,
    experiments: &[SweepExperiment],
    sources: &[std::path::PathBuf],
) -> Result<usize, SweepError> {
    let target = spec.journal.as_ref().ok_or_else(|| {
        SweepError(
            "--merge needs a journal path: set `journal = ...` in the spec so the merged \
             trials have somewhere to live"
                .into(),
        )
    })?;
    if sources.is_empty() {
        return Err(SweepError("--merge needs at least one journal file".into()));
    }
    let points = build_points(spec, experiments);
    let fp = grid_fingerprint(spec, experiments);
    // Validate every shard fully before touching the target journal.
    let mut shard_entries = Vec::new();
    for path in sources {
        let entries = crate::journal::read_entries(path, fp).map_err(SweepError)?;
        for entry in &entries {
            validate_entry(spec, &points, experiments, entry)
                .map_err(|e| SweepError(format!("{}: {}", path.display(), e.0)))?;
        }
        shard_entries.push(entries);
    }
    let (mut journal, existing) =
        Journal::open(target, &spec.name, spec.master_seed, fp).map_err(SweepError)?;
    let mut seen: std::collections::BTreeSet<(usize, usize)> = existing
        .iter()
        .filter(|entry| entry.failed.is_none())
        .map(|entry| (entry.point, entry.trial))
        .collect();
    for entries in shard_entries {
        for entry in entries {
            // Failed-trial records are not results; merging them would
            // only shadow a successful re-run from another shard.
            if entry.failed.is_some() {
                continue;
            }
            if seen.insert((entry.point, entry.trial)) {
                let gp = &points[entry.point];
                journal
                    .record(&experiments[gp.exp].name, gp.n, &entry)
                    .map_err(SweepError)?;
            }
        }
    }
    Ok(seen.len())
}

/// Shared worker state, guarded by one mutex (trials are orders of
/// magnitude more expensive than the bookkeeping inside the lock).
struct RunState {
    /// Per point, per trial: the completed record.
    slots: Vec<Vec<Option<TrialRecord>>>,
    /// Per point, per metric: streaming stats for progress reporting.
    progress: Vec<Vec<Running>>,
    /// Per point: trials still outstanding.
    remaining: Vec<usize>,
    journal: Option<Journal>,
    /// First failure; workers drain without starting new trials once set.
    error: Option<String>,
    /// Trials that panicked through all retries: one description each.
    /// These do not stop the sweep — the report carries the count.
    failures: Vec<String>,
    /// Trials completed by THIS run (not resumed from the journal) — the
    /// spec-level fault plan counts these.
    fresh: usize,
    /// Spec-level fault plan: abort the process (as a SIGKILL would)
    /// after `kill_at` freshly completed trials.
    fault: Option<FaultPlan>,
    completed: usize,
    total: usize,
}

impl RunState {
    /// Records one finished trial (from a worker or the journal).
    #[allow(clippy::too_many_arguments)] // internal plumbing, one call site per source
    fn record(
        &mut self,
        points: &[GridPoint],
        experiments: &[SweepExperiment],
        hooks: &RunHooks<'_>,
        point: usize,
        record: TrialRecord,
        journal_it: bool,
        quiet: bool,
    ) {
        let gp = &points[point];
        let exp = &experiments[gp.exp];
        if self.slots[point][record.trial].is_some() {
            return; // duplicate journal line: first one wins
        }
        for (metric_idx, &v) in record.values.iter().enumerate() {
            if !v.is_nan() {
                self.progress[point][metric_idx].push(v);
            }
        }
        if journal_it {
            if let Some(journal) = &mut self.journal {
                if let Err(e) = journal.record(
                    &exp.name,
                    gp.n,
                    &JournalEntry {
                        point,
                        trial: record.trial,
                        seed: record.seed,
                        values: record.values.clone(),
                        failed: None,
                        counters: record.counters.clone(),
                    },
                ) {
                    self.error.get_or_insert(e);
                }
            }
            self.fresh += 1;
            if let Some(plan) = self.fault {
                if self.fresh as u64 >= plan.kill_at {
                    // Deterministic fault injection: die like a SIGKILL
                    // would — no unwinding, no destructors, nonzero exit.
                    // The trial just recorded is already flushed to the
                    // journal, so a resume picks up exactly after it.
                    eprintln!(
                        "[sweep] fault plan: aborting after {} completed trials (kill@{})",
                        self.fresh, plan.kill_at
                    );
                    std::process::abort();
                }
            }
        }
        let trial = record.trial;
        self.remaining[point] -= 1;
        self.completed += 1;
        if let Some(on_trial) = hooks.on_trial {
            on_trial(&TrialEvent {
                point,
                experiment: &exp.name,
                n: gp.n,
                trial,
                seed: record.seed,
                values: &record.values,
                counters: &record.counters,
                resumed: !journal_it,
                completed: self.completed,
                total: self.total,
            });
        }
        self.slots[point][trial] = Some(record);
        if self.remaining[point] == 0 && !quiet {
            let stats: Vec<String> = exp
                .metrics
                .iter()
                .zip(&self.progress[point])
                .map(|(m, r)| format!("{m} {:.4} ±{:.4}", r.mean(), r.ci95_half_width()))
                .collect();
            eprintln!(
                "[sweep] {} n={}: {} trials done ({}) [{}/{} total]",
                exp.name,
                gp.n,
                gp.trials,
                stats.join(", "),
                self.completed,
                self.total,
            );
        }
    }

    /// Records a trial that panicked through all retries: a failed-trial
    /// line in the journal (re-run on resume, never replayed as a result)
    /// and a description for the end-of-sweep summary. The sweep itself
    /// continues.
    fn record_failure(
        &mut self,
        points: &[GridPoint],
        experiments: &[SweepExperiment],
        point: usize,
        trial: usize,
        seed: u64,
        message: String,
    ) {
        let gp = &points[point];
        let exp = &experiments[gp.exp];
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.record(
                &exp.name,
                gp.n,
                &JournalEntry {
                    point,
                    trial,
                    seed,
                    values: Vec::new(),
                    failed: Some(message.clone()),
                    counters: Vec::new(),
                },
            ) {
                self.error.get_or_insert(e);
            }
        }
        eprintln!(
            "[sweep] {} n={} trial {trial} FAILED permanently: {message}",
            exp.name, gp.n
        );
        self.failures
            .push(format!("{} n={} trial {trial}: {message}", exp.name, gp.n));
        self.remaining[point] -= 1;
    }
}

/// Executes `spec` over `experiments` and returns the aggregated report.
///
/// The grid is experiments × [`SweepSpec::sizes`]; each point runs
/// [`SweepSpec::effective_trials`] trials (further capped per experiment
/// by [`SweepExperiment::with_max_trials`]) on
/// [`SweepSpec::worker_threads`] workers. With a journal configured,
/// already-recorded trials are loaded instead of re-run.
///
/// A trial that panics is retried up to [`SweepSpec::max_retries`] times
/// (with exponential backoff) and then recorded as failed — it does not
/// abort the sweep. Failed trials are absent from their point's records,
/// and the report carries their count in
/// [`SweepReport::failed_trials`].
pub fn run_sweep(
    spec: &SweepSpec,
    experiments: &[SweepExperiment],
) -> Result<SweepReport, SweepError> {
    run_sweep_with(spec, experiments, &RunHooks::default())
}

/// [`run_sweep`] with observation/control hooks: a per-trial progress
/// callback and a cooperative cancellation flag (see [`RunHooks`]).
/// `run_sweep` is this with default (inert) hooks — the two produce
/// byte-identical reports.
pub fn run_sweep_with(
    spec: &SweepSpec,
    experiments: &[SweepExperiment],
    hooks: &RunHooks<'_>,
) -> Result<SweepReport, SweepError> {
    let (points, slots, resumed, failed) = execute(spec, experiments, None, hooks)?;
    let results = points
        .iter()
        .zip(slots)
        .map(|(gp, slots)| PointResult {
            experiment: experiments[gp.exp].name.clone(),
            n: gp.n,
            metrics: experiments[gp.exp].metrics.clone(),
            trials: slots.into_iter().flatten().collect(),
        })
        .collect();
    Ok(SweepReport {
        name: spec.name.clone(),
        master_seed: spec.master_seed,
        points: results,
        resumed_trials: resumed,
        failed_trials: failed,
    })
}

/// Executes only this shard's slice of the grid (`trial % N == k`),
/// journaling every completed trial — the producer half of a distributed
/// sweep, paired with [`merge_journals`] on the collecting machine. The
/// spec **must** carry a journal path (a shard's results live nowhere
/// else). Returns the number of this shard's trials recorded in the
/// journal after the run (including ones resumed from it).
pub fn run_sweep_shard(
    spec: &SweepSpec,
    experiments: &[SweepExperiment],
    shard: Shard,
) -> Result<usize, SweepError> {
    if spec.journal.is_none() {
        return Err(SweepError(
            "a shard run needs a journal path (set `journal = ...` in the spec or let the CLI \
             derive one): its trials have nowhere else to live"
                .into(),
        ));
    }
    let (points, slots, _, _) = execute(spec, experiments, Some(shard), &RunHooks::default())?;
    Ok(points
        .iter()
        .enumerate()
        .map(|(p, gp)| {
            (0..gp.trials)
                .filter(|&t| shard.covers(t) && slots[p][t].is_some())
                .count()
        })
        .sum())
}

/// The shared grid executor: validation, journal resume, and the worker
/// pool, over all tasks (`shard` = `None`) or one shard's slice. Returns
/// the grid, the per-point trial slots (fully populated only for the
/// covered tasks), the number of trials resumed from the journal, and
/// the number of trials that failed permanently.
#[allow(clippy::type_complexity)]
fn execute(
    spec: &SweepSpec,
    experiments: &[SweepExperiment],
    shard: Option<Shard>,
    hooks: &RunHooks<'_>,
) -> Result<(Vec<GridPoint>, Vec<Vec<Option<TrialRecord>>>, usize, usize), SweepError> {
    if experiments.is_empty() {
        return Err(SweepError("a sweep needs at least one experiment".into()));
    }
    if spec.sizes.is_empty() {
        return Err(SweepError(
            "a sweep needs at least one population size".into(),
        ));
    }
    if spec.engine != EngineMode::Auto {
        let deaf: Vec<&str> = experiments
            .iter()
            .filter(|e| !e.engine_aware)
            .map(|e| e.name.as_str())
            .collect();
        if !deaf.is_empty() {
            return Err(SweepError(format!(
                "the spec pins engine = {:?}, but these experiments do not honor the engine \
                 policy (no engine-selection hook): {}; drop the engine setting or restrict the \
                 sweep to engine-aware experiments",
                spec.engine,
                deaf.join(", ")
            )));
        }
    }
    let trials = spec.effective_trials();
    let points = build_points(spec, experiments);

    // Fingerprint the full grid: any change to it makes old journals
    // unresumable (refused, not silently mixed in).
    let fp = grid_fingerprint(spec, experiments);

    let (journal, journaled) = match &spec.journal {
        Some(path) => {
            let (journal, entries) = Journal::open(path, &spec.name, spec.master_seed, fp)?;
            (Some(journal), entries)
        }
        None => (None, Vec::new()),
    };

    let fault = match &spec.fault {
        Some(f) => Some(pp_engine::env::parse_fault(f).map_err(SweepError)?),
        None => None,
    };

    let total: usize = points.iter().map(|p| p.trials).sum();
    let mut state = RunState {
        slots: points.iter().map(|p| vec![None; p.trials]).collect(),
        progress: points
            .iter()
            .map(|p| vec![Running::new(); experiments[p.exp].metrics.len()])
            .collect(),
        remaining: points.iter().map(|p| p.trials).collect(),
        journal,
        error: None,
        failures: Vec::new(),
        fresh: 0,
        fault,
        completed: 0,
        total,
    };

    // Replay the journal into the slots, validating every entry against
    // the current grid. Failed-trial records are validated but not
    // replayed — their trials run again.
    let mut resumed = 0usize;
    for entry in journaled {
        validate_entry(spec, &points, experiments, &entry)?;
        if entry.failed.is_some() {
            continue;
        }
        if state.slots[entry.point][entry.trial].is_none() {
            resumed += 1;
        }
        state.record(
            &points,
            experiments,
            hooks,
            entry.point,
            TrialRecord {
                trial: entry.trial,
                seed: entry.seed,
                values: entry.values,
                counters: entry.counters,
            },
            false,
            true,
        );
    }

    let tasks: Vec<(usize, usize)> = points
        .iter()
        .enumerate()
        .flat_map(|(p, gp)| (0..gp.trials).map(move |t| (p, t)))
        .filter(|&(p, t)| state.slots[p][t].is_none() && shard.is_none_or(|s| s.covers(t)))
        .collect();
    let threads = spec.worker_threads().min(tasks.len()).max(1);
    eprintln!(
        "[sweep] {:?}: {} points × up to {} trials = {} tasks on {} threads{}{}",
        spec.name,
        points.len(),
        trials,
        tasks.len(),
        threads,
        match shard {
            Some(s) => format!(" (shard {}/{})", s.index, s.count),
            None => String::new(),
        },
        if resumed > 0 {
            format!(" ({resumed} resumed from journal)")
        } else {
            String::new()
        }
    );

    let state = Mutex::new(state);
    let next = AtomicUsize::new(0);
    let worker = |_: ()| loop {
        // Cooperative cancellation, checked at trial boundaries only:
        // the trial in flight finishes and is journaled first.
        if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            return;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= tasks.len() {
            return;
        }
        let (point, trial) = tasks[i];
        let gp = &points[point];
        let exp = &experiments[gp.exp];
        let ctx = TrialCtx {
            n: gp.n,
            trial,
            seed: trial_seed(spec.master_seed, point, trial),
            engine: spec.engine,
        };
        // Panic isolation: one panicking trial must not poison the
        // sweep. Retry with exponential backoff up to the spec's cap,
        // then record the failure and move on.
        let attempts = spec.max_retries + 1;
        let mut outcome: Result<(Vec<f64>, Vec<(String, u64)>), String> = Err(String::new());
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(10u64 << (attempt - 1).min(6)));
            }
            // A fresh per-trial registry, installed as the ambient one so
            // any engine the closure builds records into it without the
            // experiment signature knowing about telemetry. Fresh per
            // attempt: a panicked attempt's counters must not leak into
            // its retry. Hooks are observation-only, so the trajectory —
            // and therefore `values` — is byte-identical either way.
            let metrics = pp_telemetry::Metrics::new();
            match catch_unwind(AssertUnwindSafe(|| {
                let _ambient = metrics.install_current();
                (exp.run)(&ctx)
            })) {
                Ok(values) => {
                    let counters = metrics
                        .nonzero_counters()
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), v))
                        .collect();
                    outcome = Ok((values, counters));
                    break;
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    eprintln!(
                        "[sweep] {} n={} trial {trial} panicked (attempt {}/{attempts}): {msg}",
                        exp.name,
                        gp.n,
                        attempt + 1,
                    );
                    outcome = Err(msg);
                }
            }
        }
        let mut guard = state.lock();
        if guard.error.is_some() {
            return; // drain: stop picking up work after a failure
        }
        match outcome {
            Ok((values, counters)) => {
                if values.len() != exp.metrics.len() {
                    guard.error.get_or_insert(format!(
                        "experiment {:?} returned {} values for {} declared metrics",
                        exp.name,
                        values.len(),
                        exp.metrics.len()
                    ));
                    return;
                }
                guard.record(
                    &points,
                    experiments,
                    hooks,
                    point,
                    TrialRecord {
                        trial,
                        seed: ctx.seed,
                        values,
                        counters,
                    },
                    true,
                    false,
                );
            }
            Err(msg) => {
                guard.record_failure(&points, experiments, point, trial, ctx.seed, msg);
            }
        }
    };
    if threads == 1 || tasks.len() <= 1 {
        worker(());
    } else {
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        })
        .expect("sweep worker pool failed");
    }

    let state = state.into_inner();
    if let Some(error) = state.error {
        return Err(SweepError(error));
    }
    if hooks.cancel.is_some_and(|c| c.load(Ordering::Relaxed))
        && state.remaining.iter().any(|&r| r > 0)
    {
        return Err(SweepError(
            "cancelled at a trial boundary; completed trials are journaled, so the journal \
             is a valid resume point"
                .into(),
        ));
    }
    if !state.failures.is_empty() {
        eprintln!(
            "[sweep] {} trial(s) FAILED permanently:",
            state.failures.len()
        );
        for failure in &state.failures {
            eprintln!("[sweep]   {failure}");
        }
    }
    Ok((points, state.slots, resumed, state.failures.len()))
}

/// Best-effort human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The canonical per-trial seed: a pure function of the master seed and
/// the trial's grid coordinates.
fn trial_seed(master_seed: u64, point: usize, trial: usize) -> u64 {
    derive_seed(derive_seed(master_seed, point as u64), trial as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_experiment() -> SweepExperiment {
        // A deterministic function of (n, seed): distinguishable per trial.
        SweepExperiment::new("toy", &["value", "seed_lo"], |ctx| {
            vec![
                ctx.n as f64 + ctx.trial as f64 / 100.0,
                (ctx.seed % 1000) as f64,
            ]
        })
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let mut spec = SweepSpec::new("t", vec![100, 200], 9);
        spec.master_seed = 5;
        spec.threads = 1;
        let a = run_sweep(&spec, &[toy_experiment()]).unwrap();
        spec.threads = 7;
        let b = run_sweep(&spec, &[toy_experiment()]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.point("toy", 100).trials.len(), 9);
    }

    #[test]
    fn seeds_are_grid_derived_and_distinct() {
        let spec = SweepSpec::new("t", vec![100, 200], 5);
        let report = run_sweep(&spec, &[toy_experiment()]).unwrap();
        let mut seeds: Vec<u64> = report
            .points
            .iter()
            .flat_map(|p| p.trials.iter().map(|t| t.seed))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10, "all 2×5 trial seeds are distinct");
    }

    #[test]
    fn max_trials_caps_one_experiment_only() {
        let spec = SweepSpec::new("t", vec![100], 8);
        let experiments = vec![
            toy_experiment(),
            SweepExperiment::new("slow", &["x"], |ctx| vec![ctx.seed as f64]).with_max_trials(3),
        ];
        let report = run_sweep(&spec, &experiments).unwrap();
        assert_eq!(report.point("toy", 100).trials.len(), 8);
        assert_eq!(report.point("slow", 100).trials.len(), 3);
    }

    #[test]
    fn panicking_trial_does_not_poison_the_sweep() {
        let mut spec = SweepSpec::new("t", vec![100], 5);
        spec.threads = 2;
        let exploding = SweepExperiment::new("exploding", &["x"], |ctx| {
            if ctx.trial == 2 {
                panic!("injected trial panic");
            }
            vec![ctx.n as f64]
        });
        let report = run_sweep(&spec, &[exploding]).unwrap();
        assert_eq!(report.failed_trials, 1);
        let point = report.point("exploding", 100);
        assert_eq!(point.trials.len(), 4);
        assert!(point.trials.iter().all(|t| t.trial != 2));
    }

    #[test]
    fn retries_recover_flaky_trials() {
        use std::sync::atomic::AtomicUsize;
        let mut spec = SweepSpec::new("t", vec![100], 4);
        spec.threads = 1;
        spec.max_retries = 2;
        let attempts = AtomicUsize::new(0);
        let flaky = SweepExperiment::new("flaky", &["x"], move |ctx| {
            // Trial 1 panics on its first attempt only.
            if ctx.trial == 1 && attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            vec![ctx.trial as f64]
        });
        let report = run_sweep(&spec, &[flaky]).unwrap();
        assert_eq!(report.failed_trials, 0);
        assert_eq!(report.point("flaky", 100).trials.len(), 4);
    }

    #[test]
    fn failed_trials_are_rerun_on_resume() {
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join("pp-sweep-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(format!("rerun-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let mut spec = SweepSpec::new("t", vec![100], 3);
        spec.threads = 1;
        spec.journal = Some(journal.clone());
        let healed = std::sync::Arc::new(AtomicBool::new(false));
        let experiment = || {
            let healed = healed.clone();
            SweepExperiment::new("sometimes", &["x"], move |ctx| {
                if ctx.trial == 1 && !healed.load(Ordering::Relaxed) {
                    panic!("fails until healed");
                }
                vec![ctx.trial as f64]
            })
        };
        let first = run_sweep(&spec, &[experiment()]).unwrap();
        assert_eq!(first.failed_trials, 1);
        assert_eq!(first.point("sometimes", 100).trials.len(), 2);
        // The failure is journaled but must be re-run, not replayed.
        healed.store(true, Ordering::Relaxed);
        let second = run_sweep(&spec, &[experiment()]).unwrap();
        assert_eq!(second.failed_trials, 0);
        assert_eq!(second.resumed_trials, 2);
        assert_eq!(second.point("sometimes", 100).trials.len(), 3);
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn trial_counters_flow_into_report_and_journal() {
        use pp_telemetry::{Counter, Metrics};
        let dir = std::env::temp_dir().join("pp-sweep-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(format!("counters-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let mut spec = SweepSpec::new("t", vec![100], 3);
        spec.threads = 2;
        spec.journal = Some(journal.clone());
        let experiment = || {
            SweepExperiment::new("counting", &["x"], |ctx| {
                // Engines pick up the runner's ambient per-trial registry
                // automatically; recording into it directly exercises the
                // same plumbing without spinning one up.
                let m = Metrics::current().expect("runner installs an ambient registry");
                m.add(Counter::Batches, ctx.trial as u64 + 1);
                vec![ctx.trial as f64]
            })
        };
        let fresh = run_sweep(&spec, &[experiment()]).unwrap();
        let point = fresh.point("counting", 100);
        assert_eq!(point.instrumented_trials(), 3);
        assert_eq!(point.counter_total("batches"), 1 + 2 + 3);
        // A resumed run replays the journaled counters, not fresh ones:
        // the aggregated points must come out identical.
        let resumed = run_sweep(&spec, &[experiment()]).unwrap();
        assert_eq!(resumed.resumed_trials, 3);
        assert_eq!(fresh.points, resumed.points);
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn hooks_fire_for_fresh_and_resumed_trials() {
        let dir = std::env::temp_dir().join("pp-sweep-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(format!("hooks-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let mut spec = SweepSpec::new("t", vec![100, 200], 3);
        spec.threads = 2;
        spec.journal = Some(journal.clone());
        let events = Mutex::new(Vec::new());
        let on_trial = |ev: &TrialEvent<'_>| {
            events
                .lock()
                .push((ev.point, ev.trial, ev.resumed, ev.completed, ev.total));
        };
        let hooks = RunHooks {
            on_trial: Some(&on_trial),
            cancel: None,
        };
        let fresh = run_sweep_with(&spec, &[toy_experiment()], &hooks).unwrap();
        {
            let mut seen = events.lock();
            assert_eq!(seen.len(), 6);
            assert!(seen.iter().all(|&(.., resumed, _, _)| !resumed));
            assert!(seen.iter().all(|&(.., total)| total == 6));
            let completed: Vec<usize> = seen.iter().map(|&(.., c, _)| c).collect();
            assert_eq!(completed.iter().max(), Some(&6));
            seen.clear();
        }
        // A resumed run replays every trial through the same hook.
        let resumed = run_sweep_with(&spec, &[toy_experiment()], &hooks).unwrap();
        assert_eq!(fresh.points, resumed.points);
        assert_eq!(resumed.resumed_trials, 6);
        let seen = events.lock();
        assert_eq!(seen.len(), 6);
        assert!(seen.iter().all(|&(.., resumed, _, _)| resumed));
        drop(seen);
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn cancellation_leaves_a_resumable_journal() {
        let dir = std::env::temp_dir().join("pp-sweep-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join(format!("cancel-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let mut spec = SweepSpec::new("t", vec![100], 6);
        spec.threads = 1;
        spec.journal = Some(journal.clone());
        let cancel = AtomicBool::new(false);
        // Cancel from inside the progress hook after the second trial: the
        // flag is only honored at trial boundaries, so trials 0 and 1 land
        // in the journal and the rest never start.
        let on_trial = |ev: &TrialEvent<'_>| {
            if ev.completed == 2 {
                cancel.store(true, Ordering::Relaxed);
            }
        };
        let hooks = RunHooks {
            on_trial: Some(&on_trial),
            cancel: Some(&cancel),
        };
        let err = run_sweep_with(&spec, &[toy_experiment()], &hooks).unwrap_err();
        assert!(err.0.contains("cancelled"), "{err}");
        // The journal is a valid resume point: a plain re-run replays the
        // journaled trials and finishes the grid.
        let report = run_sweep(&spec, &[toy_experiment()]).unwrap();
        assert_eq!(report.resumed_trials, 2);
        assert_eq!(report.point("toy", 100).trials.len(), 6);
        std::fs::remove_file(&journal).unwrap();
    }

    #[test]
    fn wrong_metric_count_is_an_error() {
        let spec = SweepSpec::new("t", vec![100], 3);
        let bad = SweepExperiment::new("bad", &["a", "b"], |_| vec![1.0]);
        let err = run_sweep(&spec, &[bad]).unwrap_err();
        assert!(err.0.contains("declared metrics"), "{err}");
    }

    #[test]
    fn empty_grid_is_an_error() {
        let spec = SweepSpec::new("t", vec![100], 3);
        assert!(run_sweep(&spec, &[]).is_err());
        let empty = SweepSpec::new("t", vec![], 3);
        assert!(run_sweep(&empty, &[toy_experiment()]).is_err());
    }
}
