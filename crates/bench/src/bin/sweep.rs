//! Generic sweep runner: executes a TOML/JSON sweep spec over the
//! experiment registry.
//!
//! ```text
//! sweep <spec.toml|spec.json> [--threads N] [--trials T] [--seed S]
//!                             [--fault kill@N]
//!                             [--shard k/N] [--merge a.jsonl b.jsonl ...]
//! sweep --list
//! ```
//!
//! A panicking trial is recorded as failed; a sweep with failed trials
//! still completes, reports the failure count, and re-runs them on the
//! next resume. `--fault kill@N` arms
//! the deterministic fault-injection harness: the process aborts (like a
//! SIGKILL) after `N` trials complete — re-running the same spec then
//! resumes from the journal, and the final outputs are byte-identical to
//! an uninterrupted run (CI asserts this on every push).
//!
//! The spec names its experiments (see `sweep --list` for the catalogue),
//! sizes, trials, engine policy, master seed, and optionally a journal
//! path — with a journal, an interrupted sweep resumes instead of
//! restarting, and re-running a completed spec just replays it. Output:
//! the aggregated summary as an aligned table on stdout plus three files
//! under `results/`: `<name>_summary.csv` (per-point statistics at full
//! precision), `<name>_trials.csv` (every trial), and `<name>_sweep.json`.
//! All three are byte-identical for a fixed spec and master seed,
//! regardless of thread count or interruptions.
//!
//! `--shard k/N` turns the run into the *producer* half of a distributed
//! sweep: only the trials with `trial % N == k` execute, journaled to a
//! per-shard file (`<journal stem>_shard{k}of{N}.jsonl`, derived from the
//! spec's journal or the spec name) and no report is emitted. Shards of
//! one spec partition the grid exactly, and every trial seed is a pure
//! function of its grid coordinates, so merging all N shard journals
//! reproduces the single-machine report byte for byte (CI asserts this on
//! every push).
//!
//! `--merge` is the *collector* half: it combines journals produced on
//! different machines (`--shard` runs, disjoint `--trials` prefixes, or
//! split journal files) into one report. Each listed journal must carry
//! the spec's exact grid fingerprint (mismatches are refused before
//! anything is written), their trials are folded into the spec's journal,
//! and the sweep then runs whatever is still missing and emits the
//! combined report.
//!
//! Example spec: see `specs/table_epidemic.toml`.

use std::path::PathBuf;

use pp_bench::{anchor_journal, experiments, print_table, results_dir, run_sweep_or_exit};
use pp_sweep::{emit, merge_journals, run_sweep_shard, Shard, SweepSpec};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--list") {
        println!("available experiments:");
        for name in experiments::names() {
            let exp = experiments::experiment(name).expect("registered");
            println!("  {name}  (metrics: {})", exp.metrics().join(", "));
        }
        return;
    }
    let mut spec_path = None;
    let mut threads = None;
    let mut trials = None;
    let mut seed = None;
    let mut fault = None;
    let mut shard: Option<Shard> = None;
    let mut merge: Option<Vec<PathBuf>> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                threads = Some(parse_num(&args, i, "--threads"));
            }
            "--trials" => {
                i += 1;
                trials = Some(parse_num(&args, i, "--trials"));
            }
            "--seed" => {
                i += 1;
                seed = Some(parse_num(&args, i, "--seed"));
            }
            "--fault" => {
                i += 1;
                let value = args
                    .get(i)
                    .unwrap_or_else(|| die("--fault needs a value (kill@N)"));
                pp_engine::env::parse_fault(value).unwrap_or_else(|e| die(&e));
                fault = Some(value.clone());
            }
            "--shard" => {
                i += 1;
                let value = args
                    .get(i)
                    .unwrap_or_else(|| die("--shard needs a value (k/N, e.g. 0/2)"));
                shard = Some(value.parse().unwrap_or_else(|e: String| die(&e)));
            }
            "--merge" => {
                let sources = merge.get_or_insert_with(Vec::new);
                // Consume shard paths, but never swallow the spec file: a
                // .toml/.json argument while the spec is still missing is
                // the spec, not a shard.
                while args.get(i + 1).is_some_and(|a| {
                    !a.starts_with("--")
                        && !(spec_path.is_none() && (a.ends_with(".toml") || a.ends_with(".json")))
                }) {
                    i += 1;
                    sources.push(PathBuf::from(&args[i]));
                }
                if sources.is_empty() {
                    die("--merge needs at least one journal file");
                }
            }
            other if spec_path.is_none() && !other.starts_with("--") => {
                spec_path = Some(other.to_string());
            }
            other => die(&format!(
                "unknown argument {other}; usage: sweep <spec.toml|spec.json> \
                 [--threads N] [--trials T] [--seed S] [--fault kill@N] \
                 [--shard k/N] [--merge a.jsonl b.jsonl ...] | sweep --list"
            )),
        }
        i += 1;
    }
    let Some(spec_path) = spec_path else {
        die(
            "missing spec file; usage: sweep <spec.toml|spec.json> [--threads N] [--trials T] \
             [--seed S] [--shard k/N] [--merge a.jsonl b.jsonl ...]",
        );
    };

    let mut spec = SweepSpec::from_file(&spec_path).unwrap_or_else(|e| die(&e));
    if let Some(threads) = threads {
        spec.threads = threads as usize;
    }
    if let Some(trials) = trials {
        spec.trials = trials as usize;
    }
    if let Some(seed) = seed {
        spec.master_seed = seed;
    }
    if let Some(fault) = fault {
        spec.fault = Some(fault);
    }
    // Relative journal paths anchor at the workspace root (like the
    // results/ outputs), so resume finds the journal regardless of the
    // directory the CLI was invoked from.
    anchor_journal(&mut spec);
    let experiments = experiments::build(&spec.experiments).unwrap_or_else(|e| die(&e));
    if let Some(shard) = shard {
        if merge.is_some() {
            die("--shard produces a journal and --merge consumes them; run them separately");
        }
        // The shard journal is a sibling of the spec's journal (or lands
        // under results/), suffixed so N shards on one filesystem never
        // collide — and so the collector knows what to list in --merge.
        spec.journal = Some(shard_journal_path(&spec, shard));
        let recorded =
            run_sweep_shard(&spec, &experiments, shard).unwrap_or_else(|e| die(&e.to_string()));
        // Run diagnostics go to stderr: stdout is reserved for report
        // content so `sweep ... > out.txt` captures exactly the tables.
        eprintln!(
            "[sweep] shard {}/{} of sweep {:?}: {recorded} trial(s) journaled at {}",
            shard.index,
            shard.count,
            spec.name,
            spec.journal.as_ref().expect("set above").display()
        );
        eprintln!("[sweep] merge the shards with: sweep {spec_path} --merge <shard journals ...>",);
        return;
    }
    if let Some(sources) = merge {
        // Shard journals without a journal-less spec have nowhere to land.
        if spec.journal.is_none() {
            spec.journal = Some(results_dir().join(format!("{}_merged.jsonl", spec.name)));
        }
        let available =
            merge_journals(&spec, &experiments, &sources).unwrap_or_else(|e| die(&e.to_string()));
        eprintln!(
            "[sweep] merged {} journal(s) into {} ({available} trials available)",
            sources.len(),
            spec.journal.as_ref().expect("set above").display()
        );
    }
    let report = run_sweep_or_exit(&spec, &experiments);

    println!(
        "sweep {:?}: {} points, {} trials (master seed {})",
        report.name,
        report.points.len(),
        report.total_trials(),
        report.master_seed
    );
    if report.failed_trials > 0 {
        // Warnings go to stderr so stdout stays machine-parseable.
        eprintln!(
            "[sweep] WARNING: {} trial(s) failed permanently and are missing from the aggregates",
            report.failed_trials
        );
    }
    let rows = emit::summary_rows(&report);
    print_table(&emit::SUMMARY_HEADER, &rows);

    let dir = results_dir();
    let mut outputs = vec![
        ("summary.csv", emit::summary_csv(&report)),
        ("trials.csv", emit::per_trial_csv(&report)),
        ("sweep.json", emit::to_json(&report)),
    ];
    // Per-point telemetry aggregates ride along whenever trials carried
    // counters (PP_METRICS=off or replaying a pre-telemetry journal
    // leaves the file list exactly as it always was).
    if report.has_counters() {
        outputs.push(("counters.csv", emit::counters_csv(&report)));
    }
    for (suffix, content) in outputs {
        let path = dir.join(format!("{}_{suffix}", report.name));
        std::fs::write(&path, content)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
        eprintln!("[out] {}", path.display());
    }
}

/// The journal a `--shard k/N` run writes: the spec's journal path (or
/// `results/<name>.jsonl` when the spec has none) with `_shard{k}of{N}`
/// appended to the file stem.
fn shard_journal_path(spec: &SweepSpec, shard: Shard) -> PathBuf {
    let base = spec
        .journal
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("{}.jsonl", spec.name)));
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    base.with_file_name(format!(
        "{stem}_shard{}of{}.jsonl",
        shard.index, shard.count
    ))
}

fn parse_num(args: &[String], i: usize, flag: &str) -> u64 {
    args.get(i)
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} must be an unsigned integer")))
}

fn die(msg: &str) -> ! {
    eprintln!("sweep: {msg}");
    std::process::exit(1);
}
