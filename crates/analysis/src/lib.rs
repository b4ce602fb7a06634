//! # bct-analysis
//!
//! Measurement and experiment layer of the reproduction:
//!
//! * [`metrics`] — per-run flow-time statistics and the per-layer
//!   waiting-time decomposition.
//! * [`stats`] — small numeric helpers (mean/std/percentiles).
//! * [`table`] — markdown table rendering for experiment output.
//! * [`runner`] — a policy registry: run any (node policy × assignment
//!   policy) combination on an instance by name.
//! * [`experiments`] — the E1–E18 experiments of `DESIGN.md` /
//!   `EXPERIMENTS.md`, each returning a rendered table. Each experiment
//!   runs its seeds sequentially; `examples/run_experiments.rs` runs
//!   the experiments themselves in parallel on the harness worker pool.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod table;

pub use metrics::FlowStats;
pub use runner::{AssignKind, NodePolicyKind, PolicyCombo};
pub use table::Table;
