//! # pp-analysis — probability and statistics toolkit
//!
//! *A supporting toolkit beside the five-layer workspace — see `ARCHITECTURE.md` at the
//! repository root for the layer map and the three determinism
//! invariants every layer is held to.*
//!
//! The quantitative backbone of the reproduction of Doty & Eftekhari
//! (PODC 2019). The paper's protocol analysis rests on a chain of
//! probability lemmas; this crate implements each of them as executable
//! code so the experiment harnesses can compare *measured* behaviour against
//! the *claimed* bounds:
//!
//! * [`harmonic`] — harmonic numbers, the Euler–Mascheroni constant, and the
//!   epidemic expectation `E[T] = (n-1)/n * H_{n-1}` (Lemma A.1).
//! * [`geometric`] — geometric random variables and their maxima: Eisenberg's
//!   expectation formula (Lemma D.4), the tail bounds of Lemma D.5 /
//!   Corollary D.6 / Lemma D.7, and Monte-Carlo samplers.
//! * [`subexp`] — sub-exponential random variables (Definition D.1), the
//!   moment-generating-function bound (Lemma D.2), the Chernoff bound for
//!   sums (Lemma D.3, Lemma D.8) and the additive-error corollaries
//!   (Corollary D.9 / D.10) that justify the protocol's `±4.7` averaging
//!   error.
//! * [`balls_bins`] — the timer lemma of Appendix E: analytic bounds E.1/E.2
//!   and Corollary E.3, plus the balls-into-bins simulator that validates
//!   them.
//! * [`stats`] — descriptive statistics for trial aggregation.
//! * [`fit`] — least-squares fits used to check the `O(log^2 n)` time scaling
//!   of Figure 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls_bins;
pub mod fit;
pub mod geometric;
pub mod harmonic;
pub mod stats;
pub mod subexp;

pub use geometric::{expected_max_geometric, max_geometric_sample, GeometricMaxBounds};
pub use stats::Summary;
