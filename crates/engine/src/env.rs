//! Shared parsing for the workspace's `PP_*` environment knobs.
//!
//! Four knobs used to be parsed by four hand-rolled readers with subtly
//! different semantics. They all go through here now, with one rule set:
//!
//! * **Flags** ([`flag`]): unset means the caller's default; the literal
//!   values `off`, `0`, and `false` disable; any other value enables.
//!   (`PP_GC`.)
//! * **Unsigned overrides** ([`unsigned`]): unset or unparsable means
//!   "no override". (`PP_EQ_TRIALS`, `PP_SWEEP_TRIALS`.)
//! * **Fault plans** ([`fault_plan`], [`parse_fault`]): `PP_FAULT=kill@N`
//!   arms the deterministic fault-injection harness. A set-but-invalid
//!   value is a hard error — a fault harness that silently disarms is
//!   worse than none.
//! * **Telemetry** ([`metrics_enabled`], [`trace_path`]): `PP_METRICS=off`
//!   is the kill switch for counter collection (on by default — counters
//!   are near-free and trajectory-neutral); `PP_TRACE=path.jsonl` attaches
//!   a structured event trace to every simulation built while it is set.

/// Reads a boolean knob: unset ⇒ `default`; `off`/`0`/`false` ⇒ `false`;
/// any other value ⇒ `true`.
pub fn flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => !matches!(v.as_str(), "off" | "0" | "false"),
    }
}

/// Reads an unsigned override knob: `Some(value)` if the variable is set
/// and parses as a `u64`, else `None`.
pub fn unsigned(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.parse().ok())
}

/// A deterministic fault plan: die at a planned point.
///
/// The same `kill@N` syntax is interpreted at two layers, documented where
/// each consumes it:
///
/// * the **engine** run driver aborts the process at the first checkpoint
///   with at least `kill_at` interactions (after writing any due
///   snapshot), modelling a SIGKILL mid-run;
/// * the **sweep** layer (spec-level `fault` field) aborts after `kill_at`
///   trials have been journaled, modelling a SIGKILL mid-sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The planned kill point (interactions or journaled trials).
    pub kill_at: u64,
}

/// Parses a fault-plan spec of the form `kill@N`.
pub fn parse_fault(spec: &str) -> Result<FaultPlan, String> {
    let point = spec
        .strip_prefix("kill@")
        .ok_or_else(|| format!("invalid fault plan {spec:?}: expected kill@<point>"))?;
    let kill_at = point
        .parse()
        .map_err(|_| format!("invalid fault plan {spec:?}: {point:?} is not a u64"))?;
    Ok(FaultPlan { kill_at })
}

/// Whether telemetry counters may be attached to newly built simulations:
/// on unless `PP_METRICS` says `off`/`0`/`false`. Counters never perturb
/// the trajectory either way (`tests/telemetry_neutrality.rs`); the knob
/// exists so the byte-identity suites can compare both settings and so a
/// paranoid production run can shed even the relaxed-atomic cost.
pub fn metrics_enabled() -> bool {
    flag("PP_METRICS", true)
}

/// Reads the `PP_TRACE` trace-destination knob: `Some(path)` when set to a
/// non-empty value, with the standard `off`/`0`/`false` literals (and the
/// empty string) meaning disabled. Honored by `Simulation` builders at
/// build time; ignored entirely under `PP_METRICS=off`.
pub fn trace_path() -> Option<std::path::PathBuf> {
    pp_telemetry::trace_path_from_env()
}

/// Reads the `PP_JOBS_DIR` job-store-root knob: `Some(path)` when set to
/// a non-empty value, with the standard `off`/`0`/`false` literals (and
/// the empty string) meaning "use the caller's default". The sweep
/// service (`pp-server`) anchors its directory-per-job store here; its
/// `--jobs-dir` flag outranks the variable.
pub fn jobs_dir() -> Option<std::path::PathBuf> {
    match std::env::var("PP_JOBS_DIR") {
        Err(_) => None,
        Ok(v) => match v.as_str() {
            "" | "off" | "0" | "false" => None,
            path => Some(std::path::PathBuf::from(path)),
        },
    }
}

/// Reads the `PP_FAULT` environment knob.
///
/// # Panics
///
/// Panics if `PP_FAULT` is set to something [`parse_fault`] rejects.
pub fn fault_plan() -> Option<FaultPlan> {
    let spec = std::env::var("PP_FAULT").ok()?;
    match parse_fault(&spec) {
        Ok(plan) => Some(plan),
        Err(e) => panic!("PP_FAULT: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse() {
        assert_eq!(parse_fault("kill@123"), Ok(FaultPlan { kill_at: 123 }));
        assert!(parse_fault("kill@").is_err());
        assert!(parse_fault("kill@x").is_err());
        assert!(parse_fault("stop@5").is_err());
        assert!(parse_fault("").is_err());
    }

    #[test]
    fn flag_semantics() {
        // Env-var reads are process-global; exercise only the unset path
        // here (set paths are covered via parse in integration use).
        assert!(flag("PP_TEST_SURELY_UNSET_FLAG", true));
        assert!(!flag("PP_TEST_SURELY_UNSET_FLAG", false));
        assert_eq!(unsigned("PP_TEST_SURELY_UNSET_FLAG"), None);
    }

    #[test]
    fn telemetry_knobs_default_on_and_unset() {
        // `cargo test` runs without PP_METRICS / PP_TRACE set; the set
        // paths share [`flag`]'s parse (covered above) and
        // `pp_telemetry::trace_path_from_env`'s own suite.
        assert!(metrics_enabled());
        assert!(trace_path().is_none());
        assert!(jobs_dir().is_none());
    }
}
