//! # bct-sim
//!
//! Discrete-event simulator for the bandwidth-constrained tree network
//! model of Im & Moseley (SPAA 2015).
//!
//! Semantics implemented exactly as §2 of the paper:
//!
//! * A job arrives at the root at `r_j` and is **immediately dispatched**
//!   to a leaf by an [`policy::AssignmentPolicy`].
//! * The job must then be processed, **store-and-forward**, on every
//!   node of the path from the root-adjacent node `R(v)` down to its
//!   leaf `v`: a node processes at most one job at a time, a job is
//!   processed by at most one node at a time, and it becomes available
//!   at a node only when fully finished at the parent. The root itself
//!   performs no processing.
//! * Each node runs preemptively under a [`policy::NodePolicy`]
//!   (priority order; the paper's choice is SJF with ties by age).
//! * Nodes run at per-node speeds from a [`bct_core::SpeedProfile`]
//!   (resource augmentation).
//!
//! The engine is event-driven with lazily materialized progress: a
//! node's in-flight job is only touched when that node's state changes,
//! so a run costs `O(E log m)` for `E` events rather than `O(E·m)`.
//! Both the paper's objective (total flow time) and its fractional
//! variant (leaf-remaining fraction integrated over time, §2) are
//! accounted exactly — the fractional integral is piecewise quadratic
//! and integrated in closed form between events.
//!
//! A deliberately naive [`reference`] simulator recomputes everything at
//! every event; property tests in `bct-policies` and the workspace
//! integration suite cross-check the two engines event for event.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agg;
pub mod engine;
pub mod evq;
pub mod gantt;
pub mod invariants;
pub mod outcome;
pub mod packet;
pub mod policy;
pub mod reference;
pub mod scratch;
pub mod session;
pub mod state;
pub mod trace;

pub use engine::{SimConfig, Simulation, TopoMutation};
pub use evq::EventQueue;
pub use outcome::{HopFinishes, SimOutcome};
pub use scratch::SimScratch;
pub use session::{SessionError, SimSession};
pub use policy::{AssignmentPolicy, KeyCtx, NodePolicy, PolicyKey, Probe};
pub use state::SimView;
pub use trace::{Trace, TraceEvent, TraceKind};
