//! # bct-sched
//!
//! The SPAA'15 paper's algorithms:
//!
//! * [`cost`] — the §3.4/§3.5 cost terms `F(j,v)` and `F'(j,v)` computed
//!   from live simulator state (shared by the assignment rule and the
//!   dual-fitting verifier in `bct-lp`).
//! * [`greedy`] — the paper's leaf-assignment policies for identical and
//!   unrelated endpoints: dispatch to the leaf minimizing the Lemma-4
//!   waiting-time upper bound.
//! * [`bounds`] — executable versions of the paper's structural bounds:
//!   Lemma 2 (available higher-priority volume), Lemma 3 (the potential
//!   `Φ_j`), Lemma 1 (interior waiting), Lemma 4 (per-segment waits).
//! * [`general`] — the §3.7 general-tree algorithm: simulate the greedy
//!   algorithm on the broomstick `T'` and mirror its leaf assignments
//!   back onto `T`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod cost;
pub mod general;
pub mod greedy;

pub use general::{run_general, GeneralRun};
pub use greedy::{GreedyIdentical, GreedyUnrelated};
