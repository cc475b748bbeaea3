//! JSONL trial journal: checkpointing and resume.
//!
//! With [`crate::SweepSpec::journal`] set, the runner appends one JSON
//! line per completed trial, flushed immediately so a killed sweep loses
//! at most the trial being written. On the next run with the same spec,
//! the journaled trials are loaded instead of re-executed; because trial
//! seeds are a pure function of the grid coordinates, the resumed sweep's
//! aggregated output is identical to an uninterrupted run's.
//!
//! The first line is a header carrying a fingerprint of the spec and the
//! experiment definitions. A journal whose fingerprint does not match the
//! current spec is refused — silently mixing trials of two different
//! grids would corrupt both.
//!
//! ## Durability
//!
//! Every line (header included) carries a trailing CRC-32 of the line as
//! it was originally composed, so corruption anywhere in the file —
//! bit-flips, truncation, a torn write — is *detected*, not just
//! mis-parsed. A final line that fails its check is treated as a torn
//! write from a crash: it is dropped with a warning naming the line
//! number. A failed check (or unparsable line) anywhere **before** the
//! end is real corruption and a hard error, again with the line number.
//! The header is additionally fsync'd when first written, so a resumable
//! journal's identity survives a crash immediately after creation.
//! Only the current version is read: a version-1 journal (written before
//! the checksum scheme) is refused with an "unsupported journal version"
//! error naming the file.
//!
//! Failed trials (a panicking experiment that exhausted its retries) are
//! journaled too, with a `failed` message instead of `values`; on resume
//! they are re-run rather than replayed.
//!
//! Format (one JSON document per line):
//!
//! ```text
//! {"sweep":"epidemic","version":2,"master_seed":1,"fingerprint":"9c0f…","crc":"5ab0c77d"}
//! {"point":0,"exp":"epidemic_full","n":1000,"trial":0,"seed":17606558817767979835,"values":[13.294],"crc":"8e12f3a4"}
//! {"point":0,"exp":"epidemic_full","n":1000,"trial":1,"seed":4086511333960186760,"values":[13.551],"counters":{"batches":96,"null_skip_runs":3},"crc":"1d40b2c6"}
//! ```
//!
//! The optional `counters` object (added with the telemetry layer)
//! carries the trial's nonzero engine counters; entries without it —
//! every pre-telemetry journal — parse exactly as before.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::Path;

use pp_engine::snapshot::crc32;

use crate::json;

/// Journal format version (bumped on incompatible line-format changes).
/// Version 2 added the per-line CRC-32; no other version is readable.
const VERSION: u64 = 2;

/// Length of the fixed-width `,"crc":"xxxxxxxx"}` line suffix.
const CRC_SUFFIX_LEN: usize = 18;

/// One journaled trial.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Grid-point index (experiment-major, then size).
    pub point: usize,
    /// Trial index within the point.
    pub trial: usize,
    /// The seed the trial ran with (validated against re-derivation on
    /// load).
    pub seed: u64,
    /// Metric values in the experiment's metric order (NaN = missing;
    /// empty for failed trials).
    pub values: Vec<f64>,
    /// `Some(message)` if the trial failed permanently (panicked through
    /// all retries) instead of producing values. Failed entries are
    /// re-run on resume, not replayed.
    pub failed: Option<String>,
    /// Nonzero telemetry counters observed during the trial, sorted by
    /// name. Serialized as an optional `"counters"` object; an entry
    /// without one (any pre-telemetry journal) parses as empty, so the
    /// field is fully version-2-compatible in both directions.
    pub counters: Vec<(String, u64)>,
}

/// Append handle to an open journal.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
}

impl Journal {
    /// Opens (or creates) the journal at `path` and returns the entries
    /// already recorded for this spec fingerprint.
    ///
    /// A fresh journal gets a header line; an existing one must carry a
    /// matching fingerprint or an error is returned. A final line that
    /// fails to parse is treated as a torn write and dropped; malformed
    /// lines elsewhere are errors.
    pub fn open(
        path: &Path,
        sweep_name: &str,
        master_seed: u64,
        fingerprint: u64,
    ) -> Result<(Self, Vec<JournalEntry>), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create journal dir {}: {e}", parent.display()))?;
            }
        }
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("cannot read journal {}: {e}", path.display())),
        };
        let mut entries = Vec::new();
        let mut need_header = true;
        if let Some(text) = &existing {
            if !text.trim().is_empty() {
                entries = parse_journal(text, path, fingerprint)?;
                need_header = false;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        let mut journal = Self {
            writer: BufWriter::new(file),
        };
        if need_header {
            let mut line = String::from("{\"sweep\":");
            json::write_str(&mut line, sweep_name);
            line.push_str(&format!(
                ",\"version\":{VERSION},\"master_seed\":{master_seed},\"fingerprint\":\"{fingerprint:016x}\"}}"
            ));
            journal.write_checked(line)?;
            // The header is the journal's identity; make sure it survives
            // a crash right after creation.
            journal
                .writer
                .get_ref()
                .sync_all()
                .map_err(|e| format!("journal fsync failed: {e}"))?;
        }
        Ok((journal, entries))
    }

    /// Appends one completed (or permanently failed) trial, flushing so
    /// at most the in-flight trial is lost on a crash.
    pub fn record(&mut self, exp: &str, n: u64, entry: &JournalEntry) -> Result<(), String> {
        let mut line = format!("{{\"point\":{},\"exp\":", entry.point);
        json::write_str(&mut line, exp);
        line.push_str(&format!(
            ",\"n\":{n},\"trial\":{},\"seed\":{}",
            entry.trial, entry.seed
        ));
        match &entry.failed {
            Some(msg) => {
                line.push_str(",\"failed\":");
                json::write_str(&mut line, msg);
                line.push('}');
            }
            None => {
                line.push_str(",\"values\":[");
                for (i, &v) in entry.values.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    json::write_f64(&mut line, v);
                }
                line.push(']');
                if !entry.counters.is_empty() {
                    line.push_str(",\"counters\":{");
                    for (i, (name, v)) in entry.counters.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        json::write_str(&mut line, name);
                        line.push_str(&format!(":{v}"));
                    }
                    line.push('}');
                }
                line.push('}');
            }
        }
        self.write_checked(line)
    }

    /// Appends the line with its CRC-32 suffix spliced in before the
    /// closing brace. The checksum covers the line as composed (with its
    /// plain `}`), so readers reconstruct and verify exactly that.
    fn write_checked(&mut self, mut line: String) -> Result<(), String> {
        debug_assert!(line.ends_with('}'));
        let crc = crc32(line.as_bytes());
        line.pop();
        line.push_str(&format!(",\"crc\":\"{crc:08x}\"}}"));
        self.write_line(&line)
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("journal write failed: {e}"))
    }
}

/// Whether the line ends in the fixed-width `,"crc":"xxxxxxxx"}` suffix.
fn has_crc_suffix(line: &str) -> bool {
    line.len() >= CRC_SUFFIX_LEN
        && line.is_char_boundary(line.len() - CRC_SUFFIX_LEN)
        && line[line.len() - CRC_SUFFIX_LEN..].starts_with(",\"crc\":\"")
        && line.ends_with("\"}")
}

/// Strips and verifies the CRC suffix, returning the line as originally
/// composed (closing `}` restored).
fn strip_crc(line: &str) -> Result<String, String> {
    if !has_crc_suffix(line) {
        return Err("missing line checksum".into());
    }
    let split = line.len() - CRC_SUFFIX_LEN;
    let hex = &line[split + 8..line.len() - 2];
    let stored =
        u32::from_str_radix(hex, 16).map_err(|_| format!("malformed line checksum {hex:?}"))?;
    let original = format!("{}}}", &line[..split]);
    let computed = crc32(original.as_bytes());
    if computed != stored {
        return Err(format!(
            "line checksum mismatch (stored {stored:08x}, computed {computed:08x})"
        ));
    }
    Ok(original)
}

/// Reads the entries of an existing journal **without** opening it for
/// append — the loader behind `sweep --merge`. Validates the header
/// fingerprint exactly like [`Journal::open`]; unlike `open`, a missing
/// file is an error (merging an absent shard is a caller mistake, not a
/// fresh journal).
pub fn read_entries(path: &Path, fingerprint: u64) -> Result<Vec<JournalEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
    if text.trim().is_empty() {
        return Err(format!("journal {} is empty (no header)", path.display()));
    }
    parse_journal(&text, path, fingerprint)
}

/// Parses a non-empty journal: header line (version- and
/// fingerprint-checked), then entry lines, each checksum-verified. A
/// final line that fails is a torn write — dropped with a warning naming
/// the line number; a failure anywhere earlier is corruption and an
/// error, also naming the line number.
fn parse_journal(text: &str, path: &Path, fingerprint: u64) -> Result<Vec<JournalEntry>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let (first, rest) = lines.split_first().expect("caller checked non-empty");
    check_header(first, fingerprint).map_err(|e| format!("journal {}: {e}", path.display()))?;
    let mut entries = Vec::new();
    for (i, line) in rest.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match strip_crc(line).and_then(|original| parse_entry(&original)) {
            Ok(entry) => entries.push(entry),
            // A torn final line is an interrupted write; any earlier
            // failure is real corruption.
            Err(e) if i + 1 == rest.len() => {
                eprintln!(
                    "[journal] {}: dropping torn final line {}: {e}",
                    path.display(),
                    i + 2
                );
                break;
            }
            Err(e) => {
                return Err(format!(
                    "journal {}: corrupt line {}: {e}",
                    path.display(),
                    i + 2
                ))
            }
        }
    }
    Ok(entries)
}

/// Validates the header line: current [`VERSION`], checksum present and
/// intact, fingerprint matching.
fn check_header(line: &str, fingerprint: u64) -> Result<(), String> {
    let checked = has_crc_suffix(line);
    // The checksum (when present) is verified before anything else, so a
    // corrupted-but-still-valid-JSON header cannot slip through. A header
    // without one is parsed only to name its version in the error.
    let original = if checked {
        strip_crc(line).map_err(|e| format!("corrupt header: {e}"))?
    } else {
        line.to_string()
    };
    let doc = json::parse(&original).map_err(|e| format!("corrupt header: {e}"))?;
    match doc.get("version").and_then(json::Value::as_u64) {
        Some(VERSION) if checked => {}
        Some(VERSION) => return Err(format!("version {VERSION} header is missing its checksum")),
        other => return Err(format!("unsupported journal version {other:?}")),
    }
    let found = doc
        .get("fingerprint")
        .and_then(json::Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("header is missing the spec fingerprint")?;
    if found != fingerprint {
        return Err(format!(
            "spec fingerprint mismatch (journal {found:016x}, current spec {fingerprint:016x}); \
             the journal belongs to a different grid — delete it or point the spec elsewhere"
        ));
    }
    Ok(())
}

fn parse_entry(line: &str) -> Result<JournalEntry, String> {
    let doc = json::parse(line)?;
    let field_u64 = |key: &str| {
        doc.get(key)
            .and_then(json::Value::as_u64)
            .ok_or(format!("missing field {key:?}"))
    };
    let failed = doc
        .get("failed")
        .map(|v| {
            v.as_str()
                .map(String::from)
                .ok_or("non-string failure message".to_string())
        })
        .transpose()?;
    let values = if failed.is_some() {
        Vec::new()
    } else {
        doc.get("values")
            .and_then(json::Value::as_arr)
            .ok_or("missing field \"values\"")?
            .iter()
            .map(|v| v.as_f64().ok_or("non-numeric metric value".to_string()))
            .collect::<Result<Vec<f64>, _>>()?
    };
    // Optional: entries written before telemetry landed simply lack it.
    let counters = match doc.get("counters") {
        None => Vec::new(),
        Some(json::Value::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|v| (k.clone(), v))
                    .ok_or(format!("non-integer counter {k:?}"))
            })
            .collect::<Result<Vec<(String, u64)>, _>>()?,
        Some(_) => return Err("non-object \"counters\" field".into()),
    };
    Ok(JournalEntry {
        point: field_u64("point")? as usize,
        trial: field_u64("trial")? as usize,
        seed: field_u64("seed")?,
        values,
        failed,
        counters,
    })
}

/// FNV-1a over a canonical description of the grid: spec fields plus the
/// experiment names, metric lists, and trial caps. Two specs with the same
/// fingerprint journal compatibly.
pub fn fingerprint(parts: impl IntoIterator<Item = String>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for byte in part.as_bytes().iter().chain(&[0x1f]) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pp-sweep-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trips_entries() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let entry = JournalEntry {
            point: 3,
            trial: 7,
            seed: u64::MAX - 5,
            values: vec![1.5, f64::NAN, f64::INFINITY, -0.25],
            failed: None,
            counters: vec![("batches".into(), 31), ("null_skip_runs".into(), 2)],
        };
        {
            let (mut journal, existing) = Journal::open(&path, "t", 9, 0xABCD).unwrap();
            assert!(existing.is_empty());
            journal.record("exp", 100, &entry).unwrap();
        }
        let (_journal, loaded) = Journal::open(&path, "t", 9, 0xABCD).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].point, entry.point);
        assert_eq!(loaded[0].trial, entry.trial);
        assert_eq!(loaded[0].seed, entry.seed);
        assert_eq!(loaded[0].values[0], 1.5);
        assert!(loaded[0].values[1].is_nan());
        assert_eq!(loaded[0].values[2], f64::INFINITY);
        assert_eq!(loaded[0].values[3], -0.25);
        assert_eq!(loaded[0].counters, entry.counters);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = temp_path("mismatch");
        let _ = std::fs::remove_file(&path);
        drop(Journal::open(&path, "t", 9, 1).unwrap());
        let err = Journal::open(&path, "t", 9, 2).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path, "t", 9, 7).unwrap();
            journal
                .record(
                    "exp",
                    10,
                    &JournalEntry {
                        point: 0,
                        trial: 0,
                        seed: 1,
                        values: vec![1.0],
                        failed: None,
                        counters: Vec::new(),
                    },
                )
                .unwrap();
        }
        // Simulate a crash mid-write of the second entry.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"point\":0,\"exp\":\"exp\",\"n\":10,\"trial\":1,\"se");
        std::fs::write(&path, &text).unwrap();
        let (_journal, loaded) = Journal::open(&path, "t", 9, 7).unwrap();
        assert_eq!(loaded.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_before_the_end_is_an_error() {
        let path = temp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path, "t", 9, 7).unwrap();
            journal
                .record(
                    "exp",
                    10,
                    &JournalEntry {
                        point: 0,
                        trial: 0,
                        seed: 1,
                        values: vec![1.0],
                        failed: None,
                        counters: Vec::new(),
                    },
                )
                .unwrap();
        }
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.insert_str(text.find('\n').unwrap() + 1, "garbage line\n");
        std::fs::write(&path, &text).unwrap();
        let err = Journal::open(&path, "t", 9, 7).unwrap_err();
        assert!(err.contains("corrupt line"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_in_the_middle_is_detected() {
        let path = temp_path("bitflip");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path, "t", 9, 7).unwrap();
            for trial in 0..2 {
                journal
                    .record(
                        "exp",
                        10,
                        &JournalEntry {
                            point: 0,
                            trial,
                            seed: 1,
                            values: vec![1.0],
                            failed: None,
                            counters: Vec::new(),
                        },
                    )
                    .unwrap();
            }
        }
        // Corrupt entry line 2 (not the final line) while keeping it
        // valid JSON — only the checksum can catch this.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[1] = lines[1].replacen("\"n\":10", "\"n\":11", 1);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let err = Journal::open(&path, "t", 9, 7).unwrap_err();
        assert!(err.contains("corrupt line 2"), "{err}");
        assert!(err.contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn final_line_missing_checksum_is_dropped_as_torn() {
        let path = temp_path("torn-nocrc");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path, "t", 9, 7).unwrap();
            journal
                .record(
                    "exp",
                    10,
                    &JournalEntry {
                        point: 0,
                        trial: 0,
                        seed: 1,
                        values: vec![1.0],
                        failed: None,
                        counters: Vec::new(),
                    },
                )
                .unwrap();
        }
        // A syntactically complete JSON line whose checksum never made
        // it to disk is still a torn write when it is the final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(
            "{\"point\":0,\"exp\":\"exp\",\"n\":10,\"trial\":1,\"seed\":2,\"values\":[2.0]}\n",
        );
        std::fs::write(&path, &text).unwrap();
        let (_journal, loaded) = Journal::open(&path, "t", 9, 7).unwrap();
        assert_eq!(loaded.len(), 1);
        assert!(loaded[0].counters.is_empty(), "absent field parses empty");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_journals_are_refused() {
        let path = temp_path("legacy-v1");
        let _ = std::fs::remove_file(&path);
        let v1 = "{\"sweep\":\"t\",\"version\":1,\"master_seed\":9,\"fingerprint\":\"0000000000000007\"}\n\
                  {\"point\":0,\"exp\":\"e\",\"n\":10,\"trial\":0,\"seed\":1,\"values\":[1.5]}\n";
        std::fs::write(&path, v1).unwrap();
        for err in [
            read_entries(&path, 7).unwrap_err(),
            Journal::open(&path, "t", 9, 7).unwrap_err(),
        ] {
            assert!(err.contains("unsupported journal version"), "{err}");
            assert!(err.contains(&path.display().to_string()), "{err}");
        }
        // Refusal leaves the file as it was: nothing is appended to it.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), v1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_trials_round_trip() {
        let path = temp_path("failed");
        let _ = std::fs::remove_file(&path);
        {
            let (mut journal, _) = Journal::open(&path, "t", 9, 7).unwrap();
            journal
                .record(
                    "exp",
                    10,
                    &JournalEntry {
                        point: 0,
                        trial: 3,
                        seed: 1,
                        values: Vec::new(),
                        failed: Some("worker panicked: \"boom\"".into()),
                        counters: Vec::new(),
                    },
                )
                .unwrap();
        }
        let (_journal, loaded) = Journal::open(&path, "t", 9, 7).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].trial, 3);
        assert_eq!(
            loaded[0].failed.as_deref(),
            Some("worker panicked: \"boom\"")
        );
        assert!(loaded[0].values.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprints_separate_distinct_grids() {
        let a = fingerprint(["x".to_string(), "y".to_string()]);
        let b = fingerprint(["xy".to_string()]);
        let c = fingerprint(["x".to_string(), "z".to_string()]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, fingerprint(["x".to_string(), "y".to_string()]));
    }
}
