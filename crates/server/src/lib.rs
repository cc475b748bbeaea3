//! `pp-server`: a durable sweep job service over the `pp-sweep` runner.
//!
//! *Layer 5 (sweep & service) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! Submit a sweep spec once, watch it stream trial-by-trial progress,
//! fetch byte-identical reports later — and lose nothing to a crash. The
//! whole crate is hand-rolled on `std` (TCP, threads, condvars); there is
//! no async runtime and no new external dependency, in keeping with the
//! workspace's vendored-shim policy.
//!
//! # Architecture
//!
//! Three layers, one per module:
//!
//! * [`store`] — the directory-per-job store. A job is a directory under
//!   the jobs root holding the verbatim submitted spec, the sweep's trial
//!   journal, and a `meta.jsonl` lifecycle journal. All append-only files
//!   use the workspace journal line discipline (one JSON object per line,
//!   CRC-32 suffix, fsync per append).
//! * [`service`] — the queue, worker pool, and in-memory job index.
//!   Workers drive `pp_sweep::run_sweep_with` with hooks that stream
//!   per-trial events and honor cancellation at trial boundaries.
//! * [`http`] — a hand-rolled HTTP/1.1 + server-sent-events front end on
//!   `std::net::TcpListener` and a small thread pool.
//!
//! # Wire format
//!
//! Specs are submitted as the body of `POST /jobs`, in either of the two
//! formats the `sweep` CLI accepts (TOML, or JSON when the body starts
//! with `{`). Responses are JSON built with `pp_sweep::json` (no serde).
//! The SSE stream at `GET /jobs/:id/events` emits:
//!
//! * `event: progress` — one catch-up frame on connect, carrying the full
//!   status document (state, per-metric Welford progress, counters);
//! * `event: trial` — one frame per landed trial (fresh *and* replayed),
//!   with experiment, size, trial index, seed, metric values, and a
//!   `resumed` flag;
//! * `event: done` — the terminal frame (state `done`, `failed`, or
//!   `cancelled`), after which the stream closes;
//! * `: hb` comment heartbeats roughly every second while idle.
//!
//! # Durability guarantees
//!
//! * **Submission is durable before it is acknowledged**: `POST /jobs`
//!   returns only after the spec file and the job's `meta.jsonl` header
//!   line are on disk (fsync'd).
//! * **Progress is durable per trial**: workers run sweeps with a journal
//!   in the job directory; every completed trial is an fsync'd,
//!   CRC-framed journal line before it is reported anywhere.
//! * **Crashes lose at most the in-flight trials**: on restart the
//!   service re-queues every non-terminal job; the sweep runner's journal
//!   resume replays landed trials instead of re-executing them. A torn
//!   final line (in `journal.jsonl` or `meta.jsonl`) is detected by CRC
//!   and dropped; corruption earlier in a journal is a hard error.
//! * **Cancellation preserves resumability**: the cancel flag is honored
//!   only at trial boundaries, so a cancelled job's journal is always a
//!   valid resume point — resubmitting the identical spec re-queues the
//!   job and it picks up where it stopped.
//! * **Determinism end to end**: report artifacts are the same pure
//!   functions of the aggregated report the `sweep` CLI writes, so a
//!   fetched `summary.csv`/`trials.csv` is byte-identical to a local run
//!   of the same spec (asserted in CI).
//!
//! Job identity is the grid fingerprint: resubmitting a byte-different
//! spec with the same effective grid resolves to the same job
//! (idempotent submits), while any change to the grid — sizes, trials,
//! seeds, engine, or experiments — makes a new job.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod service;
pub mod store;

pub use service::{CancelOutcome, JobHandle, Resolver, Service, ServiceConfig};
pub use store::{JobState, JobStore, StoredJob};
