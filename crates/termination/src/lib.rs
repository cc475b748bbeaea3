//! # pp-termination — the machinery of the impossibility theorem
//!
//! *Layer 1 (protocols) of the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! Theorem 4.1 of Doty & Eftekhari (PODC 2019): a uniform population
//! protocol whose valid initial configurations include infinitely many
//! *α-dense* ones (every state present occupies ≥ αn agents) cannot delay a
//! termination signal beyond `O(1)` parallel time, with any probability
//! bounded above 0 — no matter how much memory it uses.
//!
//! The proof is constructive enough to execute, and this crate does so:
//!
//! * [`relation`] — the abstract randomized transition relation
//!   `a, b --ρ--> c, d` of §4, executable as a
//!   [`pp_engine::count_sim::CountProtocol`].
//! * [`producible`] — the `Λ^m_ρ` producibility closure: the states
//!   reachable via `m` transition types, each with rate constant ≥ ρ. The
//!   proof's key object: any finite terminating execution from `~c_0`
//!   witnesses that a **terminated state** lies in some `Λ^m_ρ`.
//! * [`density`] — α-dense configuration builders and checks.
//! * [`experiment`] — the empirical side: Lemma 4.2 says that from a large
//!   enough α-dense configuration, *every* state in `Λ^m_ρ` reaches count
//!   ≥ δn within parallel time 1 w.h.p. The experiment runs exactly that
//!   and also measures the first-signal time of "terminating" protocols as
//!   `n` grows — flat curves are the theorem made visible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod density;
pub mod experiment;
pub mod producible;
pub mod relation;
pub mod witness;

pub use producible::{producible_closure, ClosureResult};
pub use relation::{Transition, TransitionRelation};
