//! `pp-report` over the journal of a count-path sweep: the interned
//! engine's counters must reach the journal and render, hit rate included.

use pp_core::log_size::{estimate_in_mode, LogSizeEstimation};
use pp_engine::EngineMode;
use pp_sweep::{run_sweep, SweepExperiment, SweepSpec};

#[test]
fn journaled_interned_counters_render_with_the_hit_rate() {
    let journal = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pp_report.jsonl");
    let _ = std::fs::remove_file(&journal);
    // The short-clock estimate runs in the dense lane at n = 200.
    let mut spec = SweepSpec::new("pp_report", vec![200], 1);
    spec.journal = Some(journal.clone());
    let logsize = SweepExperiment::new("logsize", &["time"], |ctx| {
        let protocol = LogSizeEstimation::with_constants(20, 3, 2);
        let mode = EngineMode::Auto.into();
        vec![estimate_in_mode(protocol, ctx.n as usize, ctx.seed, None, mode).time]
    });
    run_sweep(&spec, &[logsize]).expect("sweep runs");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pp-report"))
        .arg(&journal)
        .output()
        .expect("pp-report starts");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "pp-report failed:\n{text}");
    for needle in ["dense_lane_episodes", "pair_cache_hit_rate"] {
        assert!(text.contains(needle), "no {needle} in the report:\n{text}");
    }
}
