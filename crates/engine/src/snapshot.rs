//! Versioned, checksummed engine snapshots — the crash-recovery substrate.
//!
//! A **snapshot** is the full mutable state of one simulator, serialized
//! so a later process can resume the run *byte-for-byte identically* to an
//! uninterrupted one (the same trajectory-neutrality bar the interner GC
//! meets): same RNG stream position, same interaction clock, same internal
//! slot layout — the restored engine draws the same random pairs and
//! realizes the same trajectory as if the process had never died.
//!
//! ## Format guarantees
//!
//! * **Versioning.** Every file starts with the magic `PPSNAP1\0` and a
//!   little-endian `u32` format version (currently 2). Unknown magic or
//!   version is a structured [`SnapshotError`], never a misparse.
//!   Version 2 dropped two fields of version 1's bodies: the interned
//!   engine's determinism flag and the batched engine's second RNG stream.
//! * **Checksum.** The header carries a CRC-32 (IEEE) over the engine tag,
//!   the body length, and the body bytes. A flipped bit anywhere in the
//!   payload is detected at [`Snapshot::read`] time and reported as
//!   [`SnapshotError::Corrupt`], not silently decoded.
//! * **Atomicity.** [`Snapshot::write_atomic`] writes to a sibling
//!   temporary file, `fsync`s it, and atomically renames it over the
//!   destination. A crash mid-write leaves either the previous complete
//!   snapshot or the new complete snapshot — never a torn file.
//!
//! All multi-byte integers are little-endian. The body layout is private
//! to the engine crate (it mirrors each simulator's internal slot order,
//! which is exactly what byte-identical resumption requires); state types
//! participate through the public [`SnapshotState`] codec trait, which
//! this module implements for the primitive and tuple states the
//! repository's protocols use.
//!
//! Snapshots are produced at the `Simulation` run driver's observer
//! checkpoints (see [`crate::simulation`]) — checkpointing never consumes
//! engine randomness — and consumed by the builders' `resume` methods.

use std::io::Write;
use std::path::Path;

use crate::batch::BatchedCountSim;
use crate::config_sim::{ConfigSim, Engine};
use crate::count_sim::{CountConfiguration, CountProtocol, CountSim};
use crate::interned::Interned;
use crate::protocol::Protocol;
use crate::rng::SimRng;
use crate::sim::AgentSim;

/// File magic: "PPSNAP1\0".
const MAGIC: [u8; 8] = *b"PPSNAP1\0";

/// Current snapshot format version.
const VERSION: u32 = 2;

/// Engine tag: [`AgentSim`].
pub(crate) const KIND_AGENT: u8 = 1;
/// Engine tag: [`CountSim`] (inside a [`ConfigSim`] body).
pub(crate) const KIND_SEQ: u8 = 2;
/// Engine tag: [`BatchedCountSim`] (inside a [`ConfigSim`] body).
pub(crate) const KIND_BATCHED: u8 = 3;
/// Engine tag: [`ConfigSim`] over a native count protocol.
pub(crate) const KIND_CONFIG: u8 = 4;
/// Engine tag: [`ConfigSim`] over an [`Interned`] agent-level protocol.
pub(crate) const KIND_INTERNED: u8 = 5;

/// CRC-32 (IEEE) of `bytes` — the checksum guarding snapshot bodies, the
/// sweep journal's JSONL lines, and telemetry event traces. One
/// implementation for the whole workspace, owned by `pp-telemetry`.
pub use pp_telemetry::crc32;

/// Why a snapshot could not be produced, written, read, or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The bytes are not a valid snapshot: bad magic, unknown version,
    /// checksum mismatch, truncation, or an engine/protocol mismatch on
    /// restore. The message says which, precisely.
    Corrupt(String),
    /// The engine was built without checkpoint support (see the
    /// `Simulation` builders' `checkpoint_to`).
    Unsupported,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
            Self::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            Self::Unsupported => write!(
                f,
                "this engine was built without checkpoint support \
                 (configure .checkpoint_to(path) on the builder)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

/// A serialized engine state: the engine tag plus the opaque body bytes.
///
/// Produced by simulations built with checkpointing enabled (the
/// builders' `checkpoint_to` / `resume`), at due checkpoints or on
/// [`crate::Simulation::snapshot_to`]; persisted with
/// [`Snapshot::write_atomic`]; loaded with [`Snapshot::read`]; turned back
/// into a live engine by the `Simulation` builders' `resume` methods.
pub struct Snapshot {
    pub(crate) kind: u8,
    pub(crate) body: Vec<u8>,
}

impl Snapshot {
    /// Serializes to the on-disk layout:
    /// `magic | version | kind | body_len | crc32(kind‖body_len‖body) | body`.
    fn to_bytes(&self) -> Vec<u8> {
        let mut checked = Vec::with_capacity(9 + self.body.len());
        checked.push(self.kind);
        checked.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        checked.extend_from_slice(&self.body);
        let crc = crc32(&checked);
        let mut out = Vec::with_capacity(16 + checked.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&checked);
        out
    }

    /// Serialized size in bytes (the [`Snapshot::to_bytes`] layout:
    /// 16-byte header + kind + body length + body) — the number telemetry
    /// reports per checkpoint write without serializing twice.
    pub(crate) fn byte_len(&self) -> u64 {
        (16 + 9 + self.body.len()) as u64
    }

    /// Parses and validates the on-disk layout (magic, version,
    /// length, checksum).
    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < 16 + 9 {
            return Err(corrupt(format!(
                "file is {} bytes, shorter than the fixed header",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(corrupt("bad magic (not a PPSNAP1 snapshot file)"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(format!(
                "unknown snapshot version {version} (this build reads version {VERSION})"
            )));
        }
        let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let checked = &bytes[16..];
        let actual = crc32(checked);
        if actual != crc {
            return Err(corrupt(format!(
                "checksum mismatch (header says {crc:08x}, body hashes to {actual:08x})"
            )));
        }
        let kind = checked[0];
        let body_len = u64::from_le_bytes(checked[1..9].try_into().expect("8 bytes"));
        let body = &checked[9..];
        if body.len() as u64 != body_len {
            return Err(corrupt(format!(
                "length mismatch (header says {body_len} body bytes, file holds {})",
                body.len()
            )));
        }
        Ok(Self {
            kind,
            body: body.to_vec(),
        })
    }

    /// Writes the snapshot to `path` atomically: the bytes go to a sibling
    /// `.tmp` file which is flushed, `fsync`ed, and renamed over `path`.
    /// Concurrent readers (and crashes at any instant) observe either the
    /// previous complete snapshot or this one, never a torn file.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        let file_name = path
            .file_name()
            .ok_or_else(|| corrupt(format!("snapshot path {path:?} has no file name")))?;
        let mut tmp_name = file_name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable where directories can be synced
        // (POSIX); best-effort elsewhere.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Reads and validates a snapshot file (magic, version, checksum).
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("kind", &self.kind)
            .field("body_len", &self.body.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// The state codec.

/// Byte codec for protocol state types, enabling engine checkpoints.
///
/// Implemented here for the primitive and tuple states this repository's
/// protocols use; implement it for your own state type to make simulations
/// over it checkpointable (encode and decode must round-trip exactly —
/// the decoded state must compare equal and hash identically).
pub trait SnapshotState: Sized {
    /// Appends this state's byte encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one state from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError>;
}

fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], SnapshotError> {
    if buf.len() < len {
        return Err(corrupt(format!(
            "truncated body: wanted {len} more bytes, {} left",
            buf.len()
        )));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

macro_rules! int_snapshot_state {
    ($($t:ty),*) => {$(
        impl SnapshotState for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
                let bytes = take(buf, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

int_snapshot_state!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl SnapshotState for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        match take(buf, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }
}

impl SnapshotState for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        let v = u64::decode(buf)?;
        usize::try_from(v).map_err(|_| corrupt(format!("usize value {v} overflows this platform")))
    }
}

impl SnapshotState for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok(f64::from_bits(u64::decode(buf)?))
    }
}

impl<A: SnapshotState, B: SnapshotState> SnapshotState for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: SnapshotState, B: SnapshotState, C: SnapshotState> SnapshotState for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<T: SnapshotState> SnapshotState for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, SnapshotError> {
        match take(buf, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            b => Err(corrupt(format!("invalid Option tag {b:#04x}"))),
        }
    }
}

fn encode_seq<S: SnapshotState>(items: &[S], out: &mut Vec<u8>) {
    (items.len() as u64).encode(out);
    for item in items {
        item.encode(out);
    }
}

fn decode_seq<S: SnapshotState>(buf: &mut &[u8]) -> Result<Vec<S>, SnapshotError> {
    let len = u64::decode(buf)?;
    let len = usize::try_from(len).map_err(|_| corrupt(format!("sequence length {len}")))?;
    // Bound preallocation by what the buffer could possibly hold (each
    // item is at least one byte), so a corrupt length can't OOM us.
    let mut items = Vec::with_capacity(len.min(buf.len()));
    for _ in 0..len {
        items.push(S::decode(buf)?);
    }
    Ok(items)
}

fn encode_rng(rng: &SimRng, out: &mut Vec<u8>) {
    for word in rng.state() {
        word.encode(out);
    }
}

fn decode_rng(buf: &mut &[u8]) -> Result<SimRng, SnapshotError> {
    let s = [
        u64::decode(buf)?,
        u64::decode(buf)?,
        u64::decode(buf)?,
        u64::decode(buf)?,
    ];
    if s.iter().all(|&w| w == 0) {
        return Err(corrupt("all-zero RNG state"));
    }
    Ok(SimRng::from_state(s))
}

fn expect_empty(buf: &[u8]) -> Result<(), SnapshotError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(corrupt(format!("{} trailing bytes after body", buf.len())))
    }
}

// ---------------------------------------------------------------------------
// Engine bodies. Each simulator's body captures its *internal* slot
// layout, not the canonical decoded view: byte-identical resumption
// requires the restored engine to walk its tables in exactly the order
// the snapshotted one would have.

/// [`CountConfiguration`] body: slot-ordered `(state, count)` pairs plus
/// the free list (its LIFO order matters — slot recycling pops it).
fn encode_count_config<S: SnapshotState + Copy + Ord + std::hash::Hash + std::fmt::Debug>(
    config: &CountConfiguration<S>,
    out: &mut Vec<u8>,
) {
    let (states, counts, free) = config.snapshot_parts();
    encode_seq(states, out);
    encode_seq(counts, out);
    encode_seq(free, out);
}

fn decode_count_config<S: SnapshotState + Copy + Ord + std::hash::Hash + std::fmt::Debug>(
    buf: &mut &[u8],
) -> Result<CountConfiguration<S>, SnapshotError> {
    let states: Vec<S> = decode_seq(buf)?;
    let counts: Vec<u64> = decode_seq(buf)?;
    let free: Vec<usize> = decode_seq(buf)?;
    if states.len() != counts.len() {
        return Err(corrupt(format!(
            "slot tables disagree: {} states, {} counts",
            states.len(),
            counts.len()
        )));
    }
    if let Some(&slot) = free.iter().find(|&&s| s >= states.len()) {
        return Err(corrupt(format!(
            "free-list slot {slot} out of range for {} slots",
            states.len()
        )));
    }
    let freed: std::collections::BTreeSet<usize> = free.iter().copied().collect();
    let live = (0..states.len()).filter(|slot| !freed.contains(slot));
    check_distinct(live.map(|slot| states[slot]).collect())?;
    population(&counts)?;
    Ok(CountConfiguration::from_snapshot_parts(
        states, counts, free,
    ))
}

/// [`AgentSim`] body: interaction clock, RNG stream, per-agent states.
pub(crate) fn encode_agent<P: Protocol>(sim: &AgentSim<P>) -> Snapshot
where
    P::State: SnapshotState,
{
    let mut body = Vec::new();
    sim.interactions().encode(&mut body);
    encode_rng(sim.rng(), &mut body);
    encode_seq(sim.states(), &mut body);
    Snapshot {
        kind: KIND_AGENT,
        body,
    }
}

pub(crate) fn decode_agent<P: Protocol>(
    protocol: P,
    mut body: &[u8],
) -> Result<AgentSim<P>, SnapshotError>
where
    P::State: SnapshotState,
{
    let buf = &mut body;
    let interactions = u64::decode(buf)?;
    let rng = decode_rng(buf)?;
    let states: Vec<P::State> = decode_seq(buf)?;
    expect_empty(buf)?;
    if states.len() < 2 {
        return Err(corrupt(format!("population of {} agents", states.len())));
    }
    Ok(AgentSim::from_snapshot_parts(
        protocol,
        states,
        rng,
        interactions,
    ))
}

/// [`ConfigSim`] body: facade flags and counters, then the active inner
/// engine's body ([`KIND_SEQ`] or [`KIND_BATCHED`]).
pub(crate) fn encode_config_sim<P: CountProtocol>(sim: &ConfigSim<P>) -> Snapshot
where
    P::State: SnapshotState,
{
    let mut body = Vec::new();
    encode_config_sim_body(sim, &mut body);
    Snapshot {
        kind: KIND_CONFIG,
        body,
    }
}

fn encode_config_sim_body<P: CountProtocol>(sim: &ConfigSim<P>, out: &mut Vec<u8>)
where
    P::State: SnapshotState,
{
    let (adaptive, gc, switches, collections) = sim.snapshot_flags();
    let batched = sim.is_batched();
    let flags = u8::from(batched) | (u8::from(adaptive) << 1) | (u8::from(gc) << 2);
    flags.encode(out);
    switches.encode(out);
    collections.encode(out);
    if let Some(b) = sim.inner_batched() {
        KIND_BATCHED.encode(out);
        b.interactions().encode(out);
        let (states, counts, rng) = b.snapshot_parts();
        encode_rng(rng, out);
        encode_seq(states, out);
        encode_seq(counts, out);
    } else {
        let s = sim.inner_sequential().expect("engine is sequential");
        KIND_SEQ.encode(out);
        s.interactions().encode(out);
        encode_rng(s.rng(), out);
        encode_count_config(s.config(), out);
    }
}

pub(crate) fn decode_config_sim<P: CountProtocol>(
    protocol: P,
    mut body: &[u8],
) -> Result<ConfigSim<P>, SnapshotError>
where
    P::State: SnapshotState,
{
    let buf = &mut body;
    let sim = decode_config_sim_body(protocol, buf)?;
    expect_empty(buf)?;
    Ok(sim)
}

fn decode_config_sim_body<P: CountProtocol>(
    protocol: P,
    buf: &mut &[u8],
) -> Result<ConfigSim<P>, SnapshotError>
where
    P::State: SnapshotState,
{
    let flags = u8::decode(buf)?;
    let batched = flags & 1 != 0;
    let adaptive = flags & 2 != 0;
    let gc = flags & 4 != 0;
    let switches = u32::decode(buf)?;
    let collections = u32::decode(buf)?;
    let inner_kind = u8::decode(buf)?;
    let engine = match (batched, inner_kind) {
        (true, KIND_BATCHED) => {
            let interactions = u64::decode(buf)?;
            let rng = decode_rng(buf)?;
            let states: Vec<P::State> = decode_seq(buf)?;
            let counts: Vec<u64> = decode_seq(buf)?;
            if states.len() != counts.len() {
                return Err(corrupt(format!(
                    "slot tables disagree: {} states, {} counts",
                    states.len(),
                    counts.len()
                )));
            }
            check_distinct(states.clone())?;
            let n = population(&counts)?;
            check_population(n)?;
            if n > u64::from(u32::MAX) {
                return Err(corrupt(format!(
                    "batched population of {n} agents exceeds u32::MAX"
                )));
            }
            Engine::Batched(BatchedCountSim::from_snapshot_parts(
                protocol,
                states,
                counts,
                rng,
                interactions,
            ))
        }
        (false, KIND_SEQ) => {
            let interactions = u64::decode(buf)?;
            let rng = decode_rng(buf)?;
            let config = decode_count_config(buf)?;
            check_population(config.population_size())?;
            Engine::Sequential(CountSim::from_parts(protocol, config, rng, interactions))
        }
        (_, k) => {
            return Err(corrupt(format!(
                "inner engine tag {k} contradicts facade flags ({})",
                if batched { "batched" } else { "sequential" }
            )))
        }
    };
    Ok(ConfigSim::from_engine(
        engine,
        adaptive,
        gc,
        switches,
        collections,
    ))
}

/// Refuses a slot table that lists one state twice.
fn check_distinct<S: Ord + std::fmt::Debug>(mut states: Vec<S>) -> Result<(), SnapshotError> {
    states.sort_unstable();
    match states.windows(2).find(|pair| pair[0] == pair[1]) {
        Some(pair) => Err(corrupt(format!("duplicate live state {:?}", pair[0]))),
        None => Ok(()),
    }
}

/// The population a slot table's counts add up to, refusing a sum past
/// `u64::MAX`.
fn population(counts: &[u64]) -> Result<u64, SnapshotError> {
    counts
        .iter()
        .try_fold(0u64, |n, &c| n.checked_add(c))
        .ok_or_else(|| corrupt("count sum overflows u64"))
}

/// Refuses a restored count engine of fewer than 2 agents.
fn check_population(n: u64) -> Result<(), SnapshotError> {
    if n < 2 {
        return Err(corrupt(format!("population of {n} agents")));
    }
    Ok(())
}

/// Interned-engine body: the interner's counters and table (id order),
/// then the slot-id [`ConfigSim`] body.
pub(crate) fn encode_interned<P: Protocol>(sim: &ConfigSim<Interned<P>>) -> Snapshot
where
    P::State: Eq + std::hash::Hash + Clone + SnapshotState,
{
    let mut body = Vec::new();
    let (states, generation, total_interned) = sim.protocol().snapshot_parts();
    generation.encode(&mut body);
    total_interned.encode(&mut body);
    encode_seq(&states, &mut body);
    encode_config_sim_body(sim, &mut body);
    Snapshot {
        kind: KIND_INTERNED,
        body,
    }
}

pub(crate) fn decode_interned<P: Protocol>(
    protocol: P,
    mut body: &[u8],
) -> Result<ConfigSim<Interned<P>>, SnapshotError>
where
    P::State: Eq + std::hash::Hash + Clone + SnapshotState,
{
    let buf = &mut body;
    let generation = u64::decode(buf)?;
    let total_interned = u64::decode(buf)?;
    let states: Vec<P::State> = decode_seq(buf)?;
    let interned = Interned::from_snapshot_parts(protocol, states, generation, total_interned);
    let sim = decode_config_sim_body(interned, buf)?;
    expect_empty(buf)?;
    Ok(sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let snap = Snapshot {
            kind: KIND_AGENT,
            body: vec![1, 2, 3, 4, 5],
        };
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.kind, KIND_AGENT);
        assert_eq!(back.body, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn version_one_snapshot_is_refused() {
        let snap = Snapshot {
            kind: KIND_INTERNED,
            body: vec![0; 40],
        };
        let mut bytes = snap.to_bytes();
        // The CRC covers the tag and body, not the header, so this file
        // passes every check but the version.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert!(msg.contains("version 1"), "{msg}");
                assert!(msg.contains(&format!("version {VERSION}")), "{msg}");
            }
            Err(e) => panic!("wrong error for a version-1 file: {e}"),
            Ok(_) => panic!("a version-1 file was accepted"),
        }
    }

    /// A checksum-valid pinned [`ConfigSim`] body over `bool` states with
    /// the given slot tables: batched, or sequential with the free list
    /// `free`.
    fn count_body(batched: bool, states: &[bool], counts: &[u64], free: &[usize]) -> Vec<u8> {
        let mut body = Vec::new();
        u8::from(batched).encode(&mut body); // pinned, no GC
        0u32.encode(&mut body);
        0u32.encode(&mut body);
        (if batched { KIND_BATCHED } else { KIND_SEQ }).encode(&mut body);
        0u64.encode(&mut body);
        encode_rng(&crate::rng::rng_from_seed(1), &mut body);
        encode_seq(states, &mut body);
        encode_seq(counts, &mut body);
        if !batched {
            encode_seq(free, &mut body);
        }
        body
    }

    /// Asserts that decoding `body` is refused as corrupt with a message
    /// containing `needle`, not accepted and not a panic.
    fn assert_refused(body: &[u8], needle: &str) {
        match decode_config_sim(crate::epidemic::InfectionEpidemic, body) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(e) => panic!("wrong error, expected {needle:?}: {e}"),
            Ok(_) => panic!("a body with {needle:?} was accepted"),
        }
    }

    #[test]
    fn duplicate_batched_slots_are_refused() {
        // A batched slot table that lists one state twice: the decoder
        // must refuse it, not build an engine on it.
        assert_refused(&count_body(true, &[true, true], &[5, 5], &[]), "duplicate");
    }

    #[test]
    fn duplicate_sequential_live_slots_are_refused() {
        let body = count_body(false, &[true, true], &[5, 5], &[]);
        assert_refused(&body, "duplicate");
        // A freed slot may repeat a live state: it is not indexed.
        let freed = count_body(false, &[true, true], &[5, 0], &[1]);
        assert!(decode_config_sim(crate::epidemic::InfectionEpidemic, &freed).is_ok());
    }

    #[test]
    fn overflowing_count_sums_are_refused() {
        let huge = [u64::MAX, 5];
        assert_refused(&count_body(true, &[false, true], &huge, &[]), "overflow");
        assert_refused(&count_body(false, &[false, true], &huge, &[]), "overflow");
    }

    #[test]
    fn batched_populations_past_u32_are_refused() {
        let counts = [3_000_000_000, 3_000_000_000];
        assert_refused(&count_body(true, &[false, true], &counts, &[]), "u32::MAX");
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let snap = Snapshot {
            kind: KIND_CONFIG,
            body: (0..32).collect(),
        };
        let bytes = snap.to_bytes();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    Snapshot::from_bytes(&corrupted).is_err(),
                    "flipping byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let snap = Snapshot {
            kind: KIND_CONFIG,
            body: vec![9; 64],
        };
        let bytes = snap.to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Snapshot::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn state_codec_round_trips() {
        fn rt<S: SnapshotState + PartialEq + std::fmt::Debug>(v: S) {
            let mut out = Vec::new();
            v.encode(&mut out);
            let mut buf = out.as_slice();
            assert_eq!(S::decode(&mut buf).expect("decode"), v);
            assert!(buf.is_empty());
        }
        rt(0xdead_beefu32);
        rt(u64::MAX);
        rt(-7i64);
        rt(true);
        rt(3.25f64);
        rt((1u32, 2u32));
        rt((1u8, 2u64, false));
        rt(Some(42u64));
        rt(None::<u64>);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("pp_snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("engine.snap");
        let snap = Snapshot {
            kind: KIND_INTERNED,
            body: vec![7; 100],
        };
        snap.write_atomic(&path).expect("write");
        let back = Snapshot::read(&path).expect("read");
        assert_eq!(back.kind, KIND_INTERNED);
        assert_eq!(back.body, snap.body);
        std::fs::remove_dir_all(&dir).ok();
    }
}
