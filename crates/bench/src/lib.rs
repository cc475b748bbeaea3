//! # pp-bench — experiment harness utilities
//!
//! *Layer 5 (sweep) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! Shared plumbing for the harness binaries in `src/bin/`, each of which
//! regenerates one figure or table of the paper's evaluation (see
//! `DESIGN.md` §3 for the experiment index). Every binary:
//!
//! 1. prints the rows it generates to stdout (aligned table),
//! 2. writes the same rows to `results/<name>.csv`,
//! 3. accepts `--sizes n1,n2,...`, `--trials T`, `--seed S`, `--threads W`,
//!    `--journal PATH`, and `--full` where meaningful.
//!
//! Every `table_*` and `fig*` binary, and the generic `sweep` CLI, runs
//! on the `pp-sweep` orchestration layer: experiments come from the
//! [`experiments`] registry, trials fan out over a seeded worker pool
//! (output independent of thread count), `--journal` makes runs
//! resumable — carrying each trial's engine telemetry counters (rendered
//! by the `pp-report` binary) — and the `PP_SWEEP_TRIALS` environment
//! variable caps trial counts so CI can smoke-run every table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use pp_sweep::SweepSpec;

pub mod experiments;

/// The workspace root (compile-time anchor: two levels above this
/// crate's manifest).
pub fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

/// Returns (and creates) the `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Rebases a relative journal path onto the workspace root, so journals
/// land (and are found again on resume) next to the `results/` outputs no
/// matter which directory the binary was invoked from. Absolute paths are
/// left alone.
pub fn anchor_journal(spec: &mut SweepSpec) {
    if let Some(path) = &spec.journal {
        if path.is_relative() {
            spec.journal = Some(workspace_root().join(path));
        }
    }
}

/// Writes rows as CSV under `results/`.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let mut f = fs::File::create(&path).expect("create csv");
    writeln!(f, "{}", header.join(",")).expect("write header");
    for row in rows {
        writeln!(f, "{}", row.join(",")).expect("write row");
    }
    println!("\n[csv] {}", path.display());
}

/// Prints an aligned text table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut push_row = |cells: &[String]| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect();
        out.push_str(&format!("  {}\n", line.join("  ")));
    };
    push_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    push_row(&rule);
    for row in rows {
        push_row(row);
    }
    print!("{out}");
}

/// Renders a scatter of `(x, y)` points as ASCII art with a log-scaled x
/// axis — the shape of the paper's Figure 2.
pub fn ascii_scatter_logx(points: &[(f64, f64)], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 5);
    if points.is_empty() {
        return String::from("(no points)\n");
    }
    let lx: Vec<f64> = points.iter().map(|p| p.0.log10()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.1).collect();
    let (x_min, x_max) = bounds(&lx);
    let (y_min, y_max) = bounds(&ys);
    let x_span = (x_max - x_min).max(1e-9);
    let y_span = (y_max - y_min).max(1e-9);
    let mut grid = vec![vec![b' '; width]; height];
    for (&x, &y) in lx.iter().zip(&ys) {
        let col = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
        let row = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = b'o';
    }
    let mut out = String::new();
    out.push_str(&format!("  y: {y_min:.1} .. {y_max:.1} (parallel time)\n"));
    for row in grid {
        out.push_str("  |");
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str("  +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "   x: 10^{x_min:.1} .. 10^{x_max:.1} (population size, log scale)\n"
    ));
    out
}

fn bounds(v: &[f64]) -> (f64, f64) {
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for &x in v {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    (lo, hi)
}

/// Minimal CLI parsing shared by the harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Population sizes to sweep.
    pub sizes: Vec<u64>,
    /// Trials per size.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Whether the expensive extension (`--full`) was requested.
    pub full: bool,
    /// Worker threads (defaults to available parallelism, capped at 24).
    pub threads: usize,
    /// Journal path for resumable sweeps (`--journal PATH`).
    pub journal: Option<String>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, with defaults supplied by the binary.
    pub fn parse(default_sizes: &[u64], default_trials: usize) -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut sizes: Vec<u64> = default_sizes.to_vec();
        let mut trials = default_trials;
        let mut seed = 1u64;
        let mut full = false;
        let mut threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .min(24);
        let mut journal = None;
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--sizes" => {
                    i += 1;
                    sizes = args
                        .get(i)
                        .expect("--sizes needs a value")
                        .split(',')
                        .map(|s| s.parse().expect("size must be an integer"))
                        .collect();
                }
                "--trials" => {
                    i += 1;
                    trials = args
                        .get(i)
                        .expect("--trials needs a value")
                        .parse()
                        .expect("trials must be an integer");
                }
                "--seed" => {
                    i += 1;
                    seed = args
                        .get(i)
                        .expect("--seed needs a value")
                        .parse()
                        .expect("seed must be an integer");
                }
                "--threads" => {
                    i += 1;
                    threads = args
                        .get(i)
                        .expect("--threads needs a value")
                        .parse()
                        .expect("threads must be an integer");
                }
                "--journal" => {
                    i += 1;
                    journal = Some(args.get(i).expect("--journal needs a path").clone());
                }
                "--full" => full = true,
                other => panic!(
                    "unknown argument {other}; supported: --sizes --trials --seed --threads \
                     --journal --full"
                ),
            }
            i += 1;
        }
        Self {
            sizes,
            trials,
            seed,
            full,
            threads,
            journal,
        }
    }

    /// Builds a [`SweepSpec`] named `name` from these arguments: the
    /// harness grid, master seed, thread count, and journal path carry
    /// over (relative journal paths are anchored at the workspace root,
    /// like every other results file), and `PP_SWEEP_TRIALS` caps the
    /// trial count via [`SweepSpec::effective_trials`].
    pub fn sweep_spec(&self, name: &str) -> SweepSpec {
        let mut spec = SweepSpec::new(name, self.sizes.clone(), self.trials);
        spec.master_seed = self.seed;
        spec.threads = self.threads;
        spec.journal = self.journal.clone().map(PathBuf::from);
        anchor_journal(&mut spec);
        spec
    }
}

/// Runs a sweep and exits with a readable error on failure — the shared
/// entry point of the `table_*` and `fig*` binaries.
pub fn run_sweep_or_exit(
    spec: &SweepSpec,
    experiments: &[pp_sweep::SweepExperiment],
) -> pp_sweep::SweepReport {
    pp_sweep::run_sweep(spec, experiments).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

/// Formats a float compactly for tables.
pub fn fmt(x: f64) -> String {
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

    #[test]
    fn table_alignment_does_not_panic() {
        print_table(
            &["n", "time"],
            &[
                vec!["100".into(), "12.5".into()],
                vec!["100000".into(), "3.25".into()],
            ],
        );
    }

    #[test]
    fn scatter_renders_all_points() {
        let pts = vec![(100.0, 10.0), (1000.0, 20.0), (10000.0, 40.0)];
        let art = ascii_scatter_logx(&pts, 40, 10);
        // Count markers only on grid lines (axis labels contain 'o' too).
        let markers: usize = art
            .lines()
            .filter(|l| l.starts_with("  |"))
            .map(|l| l.matches('o').count())
            .sum();
        assert_eq!(markers, 3);
        assert!(art.contains("log scale"));
    }

    #[test]
    fn scatter_handles_single_point() {
        let art = ascii_scatter_logx(&[(100.0, 5.0)], 20, 5);
        let markers: usize = art
            .lines()
            .filter(|l| l.starts_with("  |"))
            .map(|l| l.matches('o').count())
            .sum();
        assert!(markers >= 1);
    }

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(4.6512), "4.651");
        assert_eq!(fmt(12.34), "12.3");
        assert_eq!(fmt(123456.7), "123457");
    }

    #[test]
    fn results_dir_exists() {
        assert!(results_dir().is_dir());
    }
}
