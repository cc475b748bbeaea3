//! `pp-report`: renders telemetry artifacts into human-readable tables.
//!
//! ```text
//! pp-report <file.jsonl> [...]
//! ```
//!
//! Accepts, in any mix:
//!
//! * **event traces** written via `PP_TRACE=path.jsonl` (or the builders'
//!   `.trace_to(path)`) — rendered as an event census, the final
//!   cumulative counter snapshot, and histogram summaries;
//! * **sweep trial journals** (version 2, the CRC-checked format) —
//!   rendered as a per-point trial census plus per-point counter
//!   aggregates from the optional `counters` field the runner records.
//!
//! Both file formats share the same line discipline (one JSON document
//! per line, fixed-width CRC-32 suffix), so one verifying reader serves
//! them both; a file's kind is detected from its first line. Section
//! headers start with `== ` so CI can grep for expected sections.

use std::collections::BTreeMap;

use pp_bench::print_table;
use pp_sweep::json::{self, Value};
use pp_sweep::{emit, PointResult, SweepReport, TrialRecord};

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() || files.iter().any(|f| f == "--help" || f == "-h") {
        die("usage: pp-report <file.jsonl> [...]\nrenders PP_TRACE event traces and sweep trial journals as summary tables");
    }
    for (i, path) in files.iter().enumerate() {
        if i > 0 {
            println!();
        }
        report_file(path);
    }
}

fn report_file(path: &str) {
    // Traces and v2 journals share the CRC'd-JSONL discipline, so the
    // trace reader verifies both (torn final lines dropped, earlier
    // corruption fatal).
    let lines = pp_telemetry::read_trace(path).unwrap_or_else(|e| die(&e));
    let docs: Vec<Value> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| {
            json::parse(line).unwrap_or_else(|e| die(&format!("{path}: line {}: {e}", i + 1)))
        })
        .collect();
    if docs.is_empty() {
        die(&format!("{path}: empty file"));
    }
    if docs[0].get("sweep").is_some() {
        render_journal(path, &docs);
    } else if docs[0].get("ts_us").is_some() {
        render_trace(path, &docs);
    } else {
        die(&format!(
            "{path}: neither a trace (no \"ts_us\") nor a v2 sweep journal (no \"sweep\" header)"
        ));
    }
}

/// Renders a `PP_TRACE` event trace: event census, final counters, final
/// histogram summaries.
fn render_trace(path: &str, docs: &[Value]) {
    println!("== trace {path} ({} events)", docs.len());

    let mut census: BTreeMap<&str, u64> = BTreeMap::new();
    for doc in docs {
        let event = doc.get("event").and_then(Value::as_str).unwrap_or("?");
        *census.entry(event).or_default() += 1;
    }
    println!("== events");
    let rows: Vec<Vec<String>> = census
        .iter()
        .map(|(event, count)| vec![(*event).to_string(), count.to_string()])
        .collect();
    print_table(&["event", "count"], &rows);

    // The last `counters` line is the run's cumulative snapshot (the
    // driver emits one per driven phase; later lines subsume earlier
    // ones for the same registry).
    let Some(last) = docs
        .iter()
        .rev()
        .find(|d| d.get("event").and_then(Value::as_str) == Some("counters"))
    else {
        println!("(no counters event — was the run driven to completion?)");
        return;
    };
    println!("== counters (final)");
    let rows = obj_fields(last.get("counters"))
        .iter()
        .filter_map(|(name, v)| Some(vec![name.clone(), v.as_u64()?.to_string()]))
        .collect::<Vec<_>>();
    print_table(&["counter", "value"], &rows);

    let hists = obj_fields(last.get("hists"));
    if !hists.is_empty() {
        println!("== histograms (final)");
        let rows: Vec<Vec<String>> = hists
            .iter()
            .filter_map(|(name, h)| {
                let count = h.get("count")?.as_u64()?;
                let sum = h.get("sum")?.as_u64()?;
                let max = h.get("max")?.as_u64()?;
                let mean = if count > 0 {
                    format!("{:.1}", sum as f64 / count as f64)
                } else {
                    "-".into()
                };
                Some(vec![
                    name.clone(),
                    count.to_string(),
                    sum.to_string(),
                    mean,
                    max.to_string(),
                ])
            })
            .collect();
        print_table(&["histogram", "count", "sum", "mean", "max"], &rows);
    }
}

/// Renders a sweep journal: the trial census per grid point, then the
/// per-point aggregates of the optional per-trial counter snapshots.
fn render_journal(path: &str, docs: &[Value]) {
    let header = &docs[0];
    let sweep = header.get("sweep").and_then(Value::as_str).unwrap_or("?");
    println!(
        "== journal {path} (sweep {sweep:?}, {} entries)",
        docs.len() - 1
    );

    // Per (exp, n): the failed-trial count and the completed trials as
    // the sweep's own point records, so the counter table is the one a
    // sweep report carries (`emit::counter_rows`, hit rate included).
    let mut points: BTreeMap<(String, u64), (u64, PointResult)> = BTreeMap::new();
    for doc in &docs[1..] {
        let exp = doc.get("exp").and_then(Value::as_str).unwrap_or("?");
        let n = doc.get("n").and_then(Value::as_u64).unwrap_or(0);
        let (failed, point) = points.entry((exp.to_string(), n)).or_insert_with(|| {
            let point = PointResult {
                experiment: exp.to_string(),
                n,
                metrics: Vec::new(),
                trials: Vec::new(),
            };
            (0, point)
        });
        if doc.get("failed").is_some() {
            *failed += 1;
            continue;
        }
        let counters = obj_fields(doc.get("counters"))
            .into_iter()
            .filter_map(|(name, v)| Some((name, v.as_u64()?)))
            .collect();
        let trial = point.trials.len();
        point.trials.push(TrialRecord {
            trial,
            seed: 0,
            values: Vec::new(),
            counters,
        });
    }

    println!("== trials");
    let rows: Vec<Vec<String>> = points
        .values()
        .map(|(failed, point)| {
            vec![
                point.experiment.clone(),
                point.n.to_string(),
                (failed + point.trials.len() as u64).to_string(),
                failed.to_string(),
                point.instrumented_trials().to_string(),
            ]
        })
        .collect();
    print_table(
        &["experiment", "n", "trials", "failed", "with_counters"],
        &rows,
    );

    let report = SweepReport {
        name: sweep.to_string(),
        master_seed: 0,
        points: points.into_values().map(|(_, point)| point).collect(),
        resumed_trials: 0,
        failed_trials: 0,
    };
    let rows = emit::counter_rows(&report);
    if rows.is_empty() {
        println!("(no per-trial counters — pre-telemetry journal)");
        return;
    }
    println!("== counters");
    print_table(&emit::COUNTER_HEADER, &rows);
}

/// The fields of a JSON object value (empty for anything else).
fn obj_fields(value: Option<&Value>) -> Vec<(String, Value)> {
    match value {
        Some(Value::Obj(fields)) => fields.clone(),
        _ => Vec::new(),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("pp-report: {msg}");
    std::process::exit(1);
}
