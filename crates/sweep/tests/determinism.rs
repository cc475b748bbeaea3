//! Sweep determinism and resume guarantees.
//!
//! * The same spec + master seed produces **byte-identical** aggregated
//!   output (summary CSV, per-trial CSV, JSON) at 1 thread and at N
//!   threads.
//! * A sweep interrupted mid-run and resumed from its journal produces
//!   exactly the output of an uninterrupted run.
//! * A journal written by a different grid is refused.

use std::path::PathBuf;

use pp_engine::epidemic::InfectionEpidemic;
use pp_engine::simulation::{count_of, Simulation};
use pp_sweep::{emit, run_sweep, SweepExperiment, SweepSpec};

fn epidemic_experiment() -> SweepExperiment {
    SweepExperiment::new("epidemic", &["time"], |ctx| {
        let n = ctx.n;
        let (out, _) = Simulation::count_builder(InfectionEpidemic)
            .config([(false, n - 1), (true, 1)])
            .seed(ctx.seed)
            .mode(ctx.engine)
            .check_every((n / 10).max(1))
            .until(move |view| count_of(view, &true) == n)
            .run();
        vec![out.time]
    })
    .with_engine_hook()
}

fn epidemic_experiments() -> Vec<SweepExperiment> {
    vec![
        epidemic_experiment(),
        // Exercises the NaN-as-missing path: odd trials omit the metric.
        SweepExperiment::new("flaky", &["maybe"], |ctx| {
            vec![if ctx.trial % 2 == 0 {
                ctx.seed as f64
            } else {
                f64::NAN
            }]
        }),
    ]
}

fn emitted(report: &pp_sweep::SweepReport) -> (String, String, String) {
    (
        emit::summary_csv(report),
        emit::per_trial_csv(report),
        emit::to_json(report),
    )
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pp-sweep-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn one_thread_and_many_threads_emit_identical_bytes() {
    let mut spec = SweepSpec::new("det", vec![500, 2_000], 10);
    spec.master_seed = 0xDECADE;
    spec.threads = 1;
    let single = run_sweep(&spec, &epidemic_experiments()).unwrap();
    spec.threads = 8;
    let parallel = run_sweep(&spec, &epidemic_experiments()).unwrap();
    // NaN placeholders make Vec<f64> equality useless (NaN ≠ NaN), so the
    // contract is asserted on the emitted bytes, where NaN renders
    // deterministically.
    assert_eq!(
        emitted(&single),
        emitted(&parallel),
        "emitted bytes must be identical across thread counts"
    );
}

#[test]
fn sharded_production_plus_merge_matches_single_machine_run() {
    use pp_sweep::{merge_journals, run_sweep_shard, Shard};

    // Reference: one machine runs the whole grid.
    let mut spec = SweepSpec::new("shards", vec![500, 2_000], 9);
    spec.master_seed = 0x5AAD;
    spec.threads = 2;
    let reference = run_sweep(&spec, &epidemic_experiments()).unwrap();

    // Producers: three shard runs, each journaling its `trial % 3` slice.
    let mut shard_paths = Vec::new();
    for index in 0..3 {
        let shard = Shard::new(index, 3).unwrap();
        let mut shard_spec = spec.clone();
        let path = temp_journal(&format!("shard{index}"));
        shard_spec.journal = Some(path.clone());
        let recorded = run_sweep_shard(&shard_spec, &epidemic_experiments(), shard).unwrap();
        assert!(recorded > 0, "shard {index} ran nothing");
        shard_paths.push(path);
    }

    // Collector: merge the shard journals into a fresh target and run the
    // spec — every trial must replay from the merge, none re-execute, and
    // the emitted bytes must match the single-machine reference exactly.
    let mut collect_spec = spec.clone();
    collect_spec.journal = Some(temp_journal("shard-merge-target"));
    let available = merge_journals(&collect_spec, &epidemic_experiments(), &shard_paths).unwrap();
    assert_eq!(
        available,
        reference.total_trials(),
        "shards must cover the grid"
    );
    let merged = run_sweep(&collect_spec, &epidemic_experiments()).unwrap();
    assert_eq!(merged.resumed_trials, reference.total_trials());
    assert_eq!(
        emitted(&reference),
        emitted(&merged),
        "merged shards must reproduce the single-machine bytes"
    );

    // A shard run without a journal has nowhere to put its trials.
    let err =
        run_sweep_shard(&spec, &epidemic_experiments(), Shard::new(0, 2).unwrap()).unwrap_err();
    assert!(err.0.contains("journal"), "{err}");

    for path in shard_paths {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(collect_spec.journal.unwrap());
}

#[test]
fn shard_parsing_validates() {
    use pp_sweep::Shard;

    assert_eq!(
        "0/2".parse::<Shard>().unwrap(),
        Shard { index: 0, count: 2 }
    );
    assert_eq!(
        "1/2".parse::<Shard>().unwrap(),
        Shard { index: 1, count: 2 }
    );
    assert!("2/2".parse::<Shard>().is_err(), "index must be below count");
    assert!("1".parse::<Shard>().is_err());
    assert!("a/b".parse::<Shard>().is_err());
    assert!("1/0".parse::<Shard>().is_err());
}

#[test]
fn resumed_run_matches_uninterrupted_run() {
    let mut spec = SweepSpec::new("resume", vec![400, 900], 8);
    spec.master_seed = 99;
    spec.threads = 3;

    // Ground truth: an uninterrupted, journal-free run.
    let uninterrupted = run_sweep(&spec, &epidemic_experiments()).unwrap();

    // A journaled run of the same grid...
    let journal = temp_journal("resume");
    spec.journal = Some(journal.clone());
    let full = run_sweep(&spec, &epidemic_experiments()).unwrap();
    assert_eq!(full.resumed_trials, 0);
    assert_eq!(emitted(&full), emitted(&uninterrupted));

    // ...then "interrupted": keep the header and roughly half the trial
    // lines, as if the process died mid-sweep.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let keep = 1 + (lines.len() - 1) / 2;
    let truncated: String = lines[..keep].iter().flat_map(|l| [*l, "\n"]).collect();
    std::fs::write(&journal, truncated).unwrap();

    let resumed = run_sweep(&spec, &epidemic_experiments()).unwrap();
    assert_eq!(resumed.resumed_trials, keep - 1);
    assert_eq!(
        emitted(&resumed),
        emitted(&uninterrupted),
        "resume-from-journal must reproduce the uninterrupted output"
    );

    // A fully journaled grid resumes with zero work left.
    let replayed = run_sweep(&spec, &epidemic_experiments()).unwrap();
    assert_eq!(replayed.resumed_trials, replayed.total_trials());
    assert_eq!(emitted(&replayed), emitted(&uninterrupted));
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_of_a_different_grid_is_refused() {
    let journal = temp_journal("refuse");
    let mut spec = SweepSpec::new("refuse", vec![300], 4);
    spec.journal = Some(journal.clone());
    run_sweep(&spec, &epidemic_experiments()).unwrap();

    // Same path, different trial count: must refuse, not silently mix.
    spec.trials = 6;
    let err = run_sweep(&spec, &epidemic_experiments()).unwrap_err();
    assert!(err.0.contains("fingerprint mismatch"), "{err}");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn forced_engine_modes_agree_on_small_grids() {
    // Not a distribution test (the equivalence suites own that) — just
    // that the engine hook plumbs through and both engines complete.
    for engine in ["sequential", "batched"] {
        let mut spec = SweepSpec::new("engine", vec![5_000], 6);
        spec.engine = engine.parse().unwrap();
        spec.threads = 2;
        let report = run_sweep(&spec, &[epidemic_experiment()]).unwrap();
        let mean = report.point("epidemic", 5_000).mean("time");
        // One-way epidemic completes in ~2 ln n ≈ 17 parallel time.
        assert!(mean > 5.0 && mean < 60.0, "{engine}: mean {mean}");
    }
}

#[test]
fn merged_shard_journals_reproduce_the_single_machine_run() {
    use pp_sweep::merge_journals;

    let mut spec = SweepSpec::new("merge", vec![400, 900], 6);
    spec.master_seed = 0x5AAD;
    spec.threads = 2;

    // Ground truth: one uninterrupted single-machine run.
    let uninterrupted = run_sweep(&spec, &epidemic_experiments()).unwrap();

    // Simulate two machines: run the full grid journaled once, then split
    // the journal's trial lines into two shard files (each with the
    // header), as if each machine had completed half the grid.
    let journal = temp_journal("merge-full");
    spec.journal = Some(journal.clone());
    run_sweep(&spec, &epidemic_experiments()).unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let (header, trials) = lines.split_first().unwrap();
    let shard_a = temp_journal("merge-shard-a");
    let shard_b = temp_journal("merge-shard-b");
    let mid = trials.len() / 2;
    // Overlap one line across the shards: duplicates must collapse.
    let write_shard = |path: &PathBuf, body: &[&str]| {
        let mut text = format!("{header}\n");
        for line in body {
            text.push_str(line);
            text.push('\n');
        }
        std::fs::write(path, text).unwrap();
    };
    write_shard(&shard_a, &trials[..=mid]);
    write_shard(&shard_b, &trials[mid..]);
    std::fs::remove_file(&journal).unwrap();

    // Merge the shards into a fresh target journal and re-run: every
    // trial must come from the journals, and the emitted bytes must match
    // the single-machine run exactly.
    let target = temp_journal("merge-target");
    spec.journal = Some(target.clone());
    let available = merge_journals(
        &spec,
        &epidemic_experiments(),
        &[shard_a.clone(), shard_b.clone()],
    )
    .unwrap();
    assert_eq!(available, trials.len(), "all distinct trials merged");
    let merged = run_sweep(&spec, &epidemic_experiments()).unwrap();
    assert_eq!(merged.resumed_trials, merged.total_trials());
    assert_eq!(
        emitted(&merged),
        emitted(&uninterrupted),
        "merged shards must reproduce the single-machine output"
    );

    // A shard from a different grid is refused before anything is written.
    let mut foreign_spec = SweepSpec::new("merge", vec![400, 900], 7); // trials differ
    foreign_spec.master_seed = 0x5AAD;
    foreign_spec.journal = Some(temp_journal("merge-foreign-target"));
    let err = merge_journals(
        &foreign_spec,
        &epidemic_experiments(),
        std::slice::from_ref(&shard_a),
    )
    .unwrap_err();
    assert!(err.0.contains("fingerprint mismatch"), "{err}");

    for path in [shard_a, shard_b, target] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn pinned_engine_refuses_engine_deaf_experiments() {
    // The "flaky" experiment ignores ctx.engine, so pinning an engine
    // over it must fail loudly instead of silently emitting identical
    // numbers for both settings.
    let mut spec = SweepSpec::new("deaf", vec![500], 2);
    spec.engine = "sequential".parse().unwrap();
    let err = run_sweep(&spec, &epidemic_experiments()).unwrap_err();
    assert!(err.0.contains("flaky") && err.0.contains("engine"), "{err}");
    spec.engine = "auto".parse().unwrap();
    assert!(run_sweep(&spec, &epidemic_experiments()).is_ok());
}

/// A stand-in for the `crates/bench` registry entry `name`, carrying
/// exactly the inputs the grid fingerprint reads from it: the name, the
/// metric list, and the trial cap. The closure never runs.
fn fingerprint_stand_in(name: &str) -> SweepExperiment {
    let (metrics, cap): (&[&str], Option<usize>) = match name {
        "epidemic_full" | "epidemic_sub3" => (&["time"], None),
        "logsize_estimate" => (&["err", "time", "converged"], None),
        "weak_estimator" => (&["err", "time"], None),
        "exact_backup" | "exact_leader_count" => (&["time", "exact"], Some(5)),
        other => panic!("no fingerprint stand-in for {other:?}"),
    };
    let exp = SweepExperiment::new(name, metrics, |_| unreachable!("never run"));
    match cap {
        Some(cap) => exp.with_max_trials(cap),
        None => exp,
    }
}

#[test]
fn committed_spec_fingerprints_are_stable() {
    // Journal headers and pp-server job ids carry the grid fingerprint, so
    // any drift here strands every recorded default-spec run.
    if std::env::var_os("PP_SWEEP_TRIALS").is_some() {
        return; // the trial cap is part of the fingerprint
    }
    let specs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    for (file, expected) in [
        ("estimators.toml", 0x4249_ec2b_f636_f096_u64),
        ("table_epidemic.toml", 0x9e76_c7f7_e660_ba6a),
    ] {
        let spec = SweepSpec::from_file(format!("{specs}/{file}")).unwrap();
        let experiments: Vec<SweepExperiment> = spec
            .experiments
            .iter()
            .map(|name| fingerprint_stand_in(name))
            .collect();
        assert_eq!(
            pp_sweep::grid_fingerprint(&spec, &experiments),
            expected,
            "{file}: grid fingerprint changed"
        );
    }
}
