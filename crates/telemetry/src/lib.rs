//! Trajectory-neutral observability primitives for the simulation stack.
//!
//! *Part of layer 4 (the simulation surface) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! The engines' adaptive machinery — batched↔sequential mode switching,
//! interner GC, the dense per-agent lane, the pair-outcome cache, null-skip
//! runs, snapshot checkpoints — is deliberately unobservable in the decoded
//! trajectory. This crate makes it observable *out of band*: a [`Metrics`]
//! handle holds plain atomic counters and log₂-bucket histograms that
//! instrumented code bumps at its existing decision points, plus an optional
//! structured event trace written as CRC-32-checksummed JSONL (the sweep
//! journal's line discipline).
//!
//! The contract every hook in the workspace honors: **telemetry consumes no
//! randomness and fires only at decision points the engine already visits**,
//! so a run with a `Metrics` handle attached is byte-for-byte identical to
//! the same run without one (`tests/telemetry_neutrality.rs` holds all four
//! engines to that).
//!
//! Everything here is `std`-only: counters are `AtomicU64` (relaxed — they
//! are statistics, not synchronization), histograms are 65 fixed log₂
//! buckets, and the trace serializer is the same hand-rolled JSON the
//! journal uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — the one checksum shared by engine snapshots,
/// the sweep journal's JSONL lines, and this crate's event traces
/// (re-exported as `pp_engine::crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Monotone event counters, one per engine decision point. See each
/// variant for the exact site that bumps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the name() strings below are the documentation of record
pub enum Counter {
    /// Collision batches executed (`BatchedCountSim::run_batch`).
    Batches,
    /// Null-skip (Gillespie) steps taken, including the silent-configuration
    /// fast path (`BatchedCountSim::advance`).
    NullSkipRuns,
    /// Interactions skipped as certainly-null inside those steps.
    NullSkipped,
    /// Mid-run engine switches (`ConfigSim::switch_engine`, Auto mode).
    ModeSwitches,
    /// Switches that landed on the batched engine.
    SwitchesToBatched,
    /// Switches that landed on the sequential engine.
    SwitchesToSequential,
    /// Interner-GC passes (`ConfigSim::maybe_collect` / `collect_now`).
    GcPasses,
    /// Dead table entries evicted across all GC passes.
    GcEvicted,
    /// Dense per-agent lane episodes (`ConfigSim::advance`, sequential arm).
    DenseLaneEpisodes,
    /// Batches filled in parallel. No engine records it any more (the
    /// batched engine has one serial fill); it stays because `perfbench`
    /// reads `parallel_fills` and checks that it is 0.
    ParallelFills,
    /// Interactions executed inside dense-lane episodes.
    DenseLaneInteractions,
    /// Pair-outcome cache probes that replayed a memoized outcome.
    PairCacheHits,
    /// Pair-outcome cache probes that fell through to the full path.
    PairCacheMisses,
    /// Whole-cache drops on interner generation bumps (GC / dense lane).
    PairCacheGenDrops,
    /// Slot-index lookups (`SlotIndex::get` calls) across engine indices.
    SlotLookups,
    /// Total linear-probe steps those lookups walked.
    SlotProbes,
    /// Slot-index growth/rebuild sweeps.
    SlotRebuilds,
    /// Crash-recovery snapshots written (`Simulation` checkpoints).
    SnapshotWrites,
    /// Bytes serialized across those snapshot writes.
    SnapshotBytes,
    /// Wall-clock nanoseconds spent serializing + writing snapshots.
    SnapshotNanos,
}

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; 20] = [
        Counter::Batches,
        Counter::NullSkipRuns,
        Counter::NullSkipped,
        Counter::ModeSwitches,
        Counter::SwitchesToBatched,
        Counter::SwitchesToSequential,
        Counter::GcPasses,
        Counter::GcEvicted,
        Counter::DenseLaneEpisodes,
        Counter::DenseLaneInteractions,
        Counter::ParallelFills,
        Counter::PairCacheHits,
        Counter::PairCacheMisses,
        Counter::PairCacheGenDrops,
        Counter::SlotLookups,
        Counter::SlotProbes,
        Counter::SlotRebuilds,
        Counter::SnapshotWrites,
        Counter::SnapshotBytes,
        Counter::SnapshotNanos,
    ];

    /// Stable snake_case name (journal/trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Batches => "batches",
            Counter::NullSkipRuns => "null_skip_runs",
            Counter::NullSkipped => "null_skipped",
            Counter::ModeSwitches => "mode_switches",
            Counter::SwitchesToBatched => "switches_to_batched",
            Counter::SwitchesToSequential => "switches_to_sequential",
            Counter::GcPasses => "gc_passes",
            Counter::GcEvicted => "gc_evicted",
            Counter::DenseLaneEpisodes => "dense_lane_episodes",
            Counter::DenseLaneInteractions => "dense_lane_interactions",
            Counter::ParallelFills => "parallel_fills",
            Counter::PairCacheHits => "pair_cache_hits",
            Counter::PairCacheMisses => "pair_cache_misses",
            Counter::PairCacheGenDrops => "pair_cache_gen_drops",
            Counter::SlotLookups => "slot_lookups",
            Counter::SlotProbes => "slot_probes",
            Counter::SlotRebuilds => "slot_rebuilds",
            Counter::SnapshotWrites => "snapshot_writes",
            Counter::SnapshotBytes => "snapshot_bytes",
            Counter::SnapshotNanos => "snapshot_nanos",
        }
    }
}

/// Log₂-bucket histograms, one per sampled quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hist {
    /// Executed collision-batch lengths.
    BatchLen,
    /// Executed null-skip run lengths.
    NullSkipLen,
    /// Occupied support `k` read at each Auto switch decision.
    AdaptSupport,
    /// Mean batch length `E[T]` read at each Auto switch decision
    /// (rounded down to an integer for bucketing).
    AdaptMeanBatch,
    /// Backing-table size at the start of each GC pass.
    GcTableLen,
    /// Live support remaining after each GC pass.
    GcLive,
    /// Population expanded per dense-lane episode.
    DenseLaneN,
    /// Bytes per snapshot write.
    SnapshotWriteBytes,
}

impl Hist {
    /// Every histogram, in display order.
    pub const ALL: [Hist; 8] = [
        Hist::BatchLen,
        Hist::NullSkipLen,
        Hist::AdaptSupport,
        Hist::AdaptMeanBatch,
        Hist::GcTableLen,
        Hist::GcLive,
        Hist::DenseLaneN,
        Hist::SnapshotWriteBytes,
    ];

    /// Stable snake_case name (trace/report key).
    pub fn name(self) -> &'static str {
        match self {
            Hist::BatchLen => "batch_len",
            Hist::NullSkipLen => "null_skip_len",
            Hist::AdaptSupport => "adapt_support",
            Hist::AdaptMeanBatch => "adapt_mean_batch",
            Hist::GcTableLen => "gc_table_len",
            Hist::GcLive => "gc_live",
            Hist::DenseLaneN => "dense_lane_n",
            Hist::SnapshotWriteBytes => "snapshot_write_bytes",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds value 0, bucket `b ≥ 1` holds
/// `2^(b-1) ..= 2^b - 1`, so bucket 64 holds the top half of the `u64`
/// range.
pub const HIST_BUCKETS: usize = 65;

/// The log₂ bucket a value lands in (0 → 0, v → `64 - v.leading_zeros()`).
pub fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// One histogram's storage: count/sum/max plus the bucket array.
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A structured trace event field value.
#[derive(Clone, Copy, Debug)]
pub enum TraceValue<'a> {
    /// Unsigned integer.
    U64(u64),
    /// Float (written with Rust's shortest round-trip formatting).
    F64(f64),
    /// String (JSON-escaped).
    Str(&'a str),
}

/// Appends a JSON string literal (with escaping) to `out`.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The open trace stream behind [`Metrics::trace_to`].
struct Tracer {
    file: std::fs::File,
    /// Timestamp origin: `ts_us` in every event is microseconds since the
    /// tracer was attached.
    start: Instant,
}

/// Shared metrics registry + optional event trace.
///
/// Cheap to clone (an `Arc`); every clone observes and feeds the same
/// counters. Engines hold an `Option<Metrics>` and bump it at their
/// existing decision points; harnesses read it after (or during) the run.
/// Thread-safe throughout — a sweep can hand one handle to a trial running
/// nested simulations, or distinct handles to concurrent trials.
pub struct Metrics {
    inner: Arc<Inner>,
}

struct Inner {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [HistCell; Hist::ALL.len()],
    tracer: Mutex<Option<Tracer>>,
}

impl Clone for Metrics {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("counters", &self.nonzero_counters())
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// The ambient per-thread handle behind [`Metrics::install_current`].
    static CURRENT: RefCell<Vec<Metrics>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls the ambient handle when dropped (see
/// [`Metrics::install_current`]).
#[must_use = "dropping the guard immediately uninstalls the handle"]
pub struct CurrentGuard {
    _private: (),
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

impl Metrics {
    /// A fresh registry with every counter and histogram at zero.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: std::array::from_fn(|_| HistCell::new()),
                tracer: Mutex::new(None),
            }),
        }
    }

    /// Installs this handle as the calling thread's ambient metrics sink
    /// until the returned guard drops. Builders
    /// (`Simulation::builder(...).build()`) pick the ambient handle up
    /// when none was passed explicitly — this is how the sweep runner
    /// gives every trial a per-trial registry without threading a handle
    /// through every experiment closure. Installs nest (LIFO).
    pub fn install_current(&self) -> CurrentGuard {
        CURRENT.with(|c| c.borrow_mut().push(self.clone()));
        CurrentGuard { _private: () }
    }

    /// The calling thread's innermost ambient handle, if one is installed.
    pub fn current() -> Option<Metrics> {
        CURRENT.with(|c| c.borrow().last().cloned())
    }

    /// Adds `v` to a counter (relaxed; statistics, not synchronization).
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.inner.counters[c as usize].fetch_add(v, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Records one observation into a histogram (bucket + count/sum/max).
    pub fn record(&self, h: Hist, v: u64) {
        let cell = &self.inner.hists[h as usize];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(v, Ordering::Relaxed);
        cell.max.fetch_max(v, Ordering::Relaxed);
        cell.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Every counter with a non-zero value, in [`Counter::ALL`] order.
    pub fn nonzero_counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .filter_map(|&c| {
                let v = self.counter(c);
                (v > 0).then(|| (c.name(), v))
            })
            .collect()
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: Counter::ALL.iter().map(|&c| self.counter(c)).collect(),
            hists: Hist::ALL
                .iter()
                .map(|&h| {
                    let cell = &self.inner.hists[h as usize];
                    HistSnapshot {
                        name: h.name(),
                        count: cell.count.load(Ordering::Relaxed),
                        sum: cell.sum.load(Ordering::Relaxed),
                        max: cell.max.load(Ordering::Relaxed),
                        buckets: cell
                            .buckets
                            .iter()
                            .enumerate()
                            .filter_map(|(i, b)| {
                                let v = b.load(Ordering::Relaxed);
                                (v > 0).then_some((i, v))
                            })
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    /// Attaches a JSONL event trace to this handle, **appending** to
    /// `path` (append, not truncate, so a process building several
    /// simulations against one `PP_TRACE` target keeps every span; the
    /// reader tolerates a torn final line from a crash). Subsequent
    /// [`Metrics::trace_event`] calls write one CRC'd line each.
    ///
    /// # Errors
    ///
    /// Propagates the file-open failure.
    pub fn trace_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        *self.inner.tracer.lock().expect("tracer lock poisoned") = Some(Tracer {
            file,
            start: Instant::now(),
        });
        Ok(())
    }

    /// Whether a trace stream is attached.
    pub fn is_tracing(&self) -> bool {
        self.inner
            .tracer
            .lock()
            .expect("tracer lock poisoned")
            .is_some()
    }

    /// Emits one structured trace event (no-op without an attached trace).
    /// The line is `{"ts_us":…,"event":…,<fields…>,"crc":"xxxxxxxx"}` —
    /// the journal's checksum discipline, one `write` call per line.
    pub fn trace_event(&self, event: &str, fields: &[(&str, TraceValue<'_>)]) {
        let mut guard = self.inner.tracer.lock().expect("tracer lock poisoned");
        let Some(tracer) = guard.as_mut() else {
            return;
        };
        let ts_us = tracer.start.elapsed().as_micros() as u64;
        let mut line = format!("{{\"ts_us\":{ts_us},\"event\":");
        write_json_str(&mut line, event);
        for (key, value) in fields {
            line.push(',');
            write_json_str(&mut line, key);
            line.push(':');
            match value {
                TraceValue::U64(v) => line.push_str(&v.to_string()),
                TraceValue::F64(v) if v.is_finite() => line.push_str(&v.to_string()),
                TraceValue::F64(_) => line.push_str("null"),
                TraceValue::Str(s) => write_json_str(&mut line, s),
            }
        }
        line.push('}');
        let crc = crc32(line.as_bytes());
        line.pop();
        line.push_str(&format!(",\"crc\":\"{crc:08x}\"}}\n"));
        // One write per line; failures are reported once, not per event.
        if let Err(e) = tracer.file.write_all(line.as_bytes()) {
            eprintln!("[pp-telemetry] trace write failed, disabling trace: {e}");
            *guard = None;
        }
    }

    /// Emits a `counters` trace event carrying every non-zero counter and
    /// every non-empty histogram's count/sum/max — the summary line
    /// `pp-report` renders. No-op without an attached trace.
    pub fn trace_counters(&self) {
        if !self.is_tracing() {
            return;
        }
        let snap = self.snapshot();
        let mut guard = self.inner.tracer.lock().expect("tracer lock poisoned");
        let Some(tracer) = guard.as_mut() else {
            return;
        };
        let ts_us = tracer.start.elapsed().as_micros() as u64;
        let mut line = format!("{{\"ts_us\":{ts_us},\"event\":\"counters\",\"counters\":{{");
        let mut first = true;
        for (name, value) in snap.nonzero_counters() {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!("\"{name}\":{value}"));
        }
        line.push_str("},\"hists\":{");
        let mut first = true;
        for hist in snap.hists.iter().filter(|h| h.count > 0) {
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{}}}",
                hist.name, hist.count, hist.sum, hist.max
            ));
        }
        line.push_str("}}");
        let crc = crc32(line.as_bytes());
        line.pop();
        line.push_str(&format!(",\"crc\":\"{crc:08x}\"}}\n"));
        if let Err(e) = tracer.file.write_all(line.as_bytes()) {
            eprintln!("[pp-telemetry] trace write failed, disabling trace: {e}");
            *guard = None;
        }
    }
}

/// A point-in-time copy of a [`Metrics`] registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values in [`Counter::ALL`] order.
    pub counters: Vec<u64>,
    /// Histogram summaries in [`Hist::ALL`] order.
    pub hists: Vec<HistSnapshot>,
}

/// One histogram's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Stable name ([`Hist::name`]).
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-zero `(bucket_index, count)` pairs (see [`log2_bucket`]).
    pub buckets: Vec<(usize, u64)>,
}

impl MetricsSnapshot {
    /// Every counter with a non-zero value, in [`Counter::ALL`] order.
    pub fn nonzero_counters(&self) -> Vec<(&'static str, u64)> {
        Counter::ALL
            .iter()
            .zip(&self.counters)
            .filter(|(_, &v)| v > 0)
            .map(|(&c, &v)| (c.name(), v))
            .collect()
    }
}

/// One verified line of a JSONL trace file, CRC stripped and the closing
/// brace restored — ready for a JSON parser.
pub type TraceLine = String;

/// Reads a JSONL trace written by [`Metrics::trace_event`], verifying
/// every line's CRC. A torn **final** line (an interrupted write) is
/// dropped with a note on stderr; a bad checksum anywhere earlier is a
/// hard error naming the line. Returns the verified lines with their CRC
/// suffixes stripped.
///
/// # Errors
///
/// I/O failures and non-final corrupt lines.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<TraceLine>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    read_trace_str(&text, &path.display().to_string())
}

/// [`read_trace`] over in-memory text (the testable core).
pub fn read_trace_str(text: &str, origin: &str) -> Result<Vec<TraceLine>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match strip_trace_crc(line) {
            Ok(original) => out.push(original),
            Err(e) if i + 1 == lines.len() => {
                eprintln!(
                    "[pp-telemetry] {origin}: dropping torn final line {}: {e}",
                    i + 1
                );
                break;
            }
            Err(e) => return Err(format!("trace {origin}: corrupt line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// Length of the fixed-width `,"crc":"xxxxxxxx"}` line suffix.
const CRC_SUFFIX_LEN: usize = 18;

/// Strips and verifies the CRC suffix, returning the line as originally
/// composed (closing `}` restored). Same discipline as the sweep journal.
fn strip_trace_crc(line: &str) -> Result<String, String> {
    let has_suffix = line.len() >= CRC_SUFFIX_LEN
        && line.is_char_boundary(line.len() - CRC_SUFFIX_LEN)
        && line[line.len() - CRC_SUFFIX_LEN..].starts_with(",\"crc\":\"")
        && line.ends_with("\"}");
    if !has_suffix {
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

/// Resolves a trace destination the way the builders do: explicit path if
/// given, else the `PP_TRACE` environment variable (empty or
/// `off`/`0`/`false` mean disabled).
pub fn trace_path_from_env() -> Option<PathBuf> {
    let v = std::env::var("PP_TRACE").ok()?;
    let t = v.trim();
    if t.is_empty() || matches!(t.to_ascii_lowercase().as_str(), "off" | "0" | "false") {
        return None;
    }
    Some(PathBuf::from(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn log2_buckets_partition_the_range() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(7), 3);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(u64::MAX), 64);
        // Bucket b >= 1 holds exactly 2^(b-1) ..= 2^b - 1.
        for b in 1..=20usize {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            assert_eq!(log2_bucket(lo), b, "low edge of bucket {b}");
            assert_eq!(log2_bucket(hi), b, "high edge of bucket {b}");
        }
    }

    #[test]
    fn histogram_records_count_sum_max_and_buckets() {
        let m = Metrics::new();
        for v in [0u64, 1, 5, 5, 300] {
            m.record(Hist::BatchLen, v);
        }
        let snap = m.snapshot();
        let h = &snap.hists[Hist::BatchLen as usize];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 311);
        assert_eq!(h.max, 300);
        let buckets: std::collections::BTreeMap<usize, u64> = h.buckets.iter().copied().collect();
        assert_eq!(buckets.get(&0), Some(&1)); // 0
        assert_eq!(buckets.get(&1), Some(&1)); // 1
        assert_eq!(buckets.get(&3), Some(&2)); // 5, 5
        assert_eq!(buckets.get(&9), Some(&1)); // 300 ∈ 256..511
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let m = Metrics::new();
        let m2 = m.clone();
        m.incr(Counter::GcPasses);
        m2.add(Counter::GcPasses, 2);
        assert_eq!(m.counter(Counter::GcPasses), 3);
        assert_eq!(
            m.nonzero_counters(),
            vec![("gc_passes", 3)],
            "only non-zero counters are listed"
        );
    }

    #[test]
    fn ambient_install_nests_and_uninstalls() {
        assert!(Metrics::current().is_none());
        let a = Metrics::new();
        let b = Metrics::new();
        {
            let _ga = a.install_current();
            Metrics::current().unwrap().incr(Counter::Batches);
            {
                let _gb = b.install_current();
                Metrics::current().unwrap().incr(Counter::Batches);
            }
            Metrics::current().unwrap().incr(Counter::Batches);
        }
        assert!(Metrics::current().is_none());
        assert_eq!(a.counter(Counter::Batches), 2);
        assert_eq!(b.counter(Counter::Batches), 1);
    }

    #[test]
    fn trace_lines_round_trip_through_the_crc_reader() {
        let dir = std::env::temp_dir().join(format!("pp_telemetry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.trace.jsonl");
        let _ = std::fs::remove_file(&path);
        let m = Metrics::new();
        m.trace_to(&path).unwrap();
        m.trace_event(
            "mode_switch",
            &[
                ("to", TraceValue::Str("sequential")),
                ("support", TraceValue::U64(130)),
                ("mean_batch", TraceValue::F64(626.6)),
            ],
        );
        m.incr(Counter::GcPasses);
        m.record(Hist::GcLive, 42);
        m.trace_counters();
        let lines = read_trace(&path).unwrap();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\":\"mode_switch\""));
        assert!(lines[0].contains("\"support\":130"));
        assert!(lines[1].contains("\"gc_passes\":1"));
        assert!(lines[1].contains("\"gc_live\":{\"count\":1,\"sum\":42,\"max\":42}"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_but_earlier_corruption_is_fatal() {
        let m = Metrics::new();
        let dir = std::env::temp_dir().join(format!("pp_telemetry_torn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.trace.jsonl");
        let _ = std::fs::remove_file(&path);
        m.trace_to(&path).unwrap();
        m.trace_event("gc_pass", &[("evicted", TraceValue::U64(7))]);
        m.trace_event("gc_pass", &[("evicted", TraceValue::U64(9))]);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        // Torn final line: verified prefix survives.
        let torn = &full[..full.len() - 10];
        let lines = read_trace_str(torn, "torn").unwrap();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"evicted\":7"));

        // Same damage mid-file: hard error naming the line.
        let mut corrupted: Vec<&str> = full.lines().collect();
        let damaged = corrupted[0].replace("\"evicted\":7", "\"evicted\":8");
        corrupted[0] = &damaged;
        let joined = corrupted.join("\n");
        let err = read_trace_str(&joined, "corrupt").unwrap_err();
        assert!(err.contains("corrupt line 1"), "got: {err}");
    }

    #[test]
    fn trace_values_escape_and_format() {
        let mut s = String::new();
        write_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn env_trace_path_honors_off_semantics() {
        // Uses the documented parse rules without touching the (process
        // global) environment: PP_TRACE is unset under `cargo test`.
        assert!(trace_path_from_env().is_none());
    }

    #[test]
    fn counter_names_are_distinct() {
        // Journals and traces key counters by name.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
