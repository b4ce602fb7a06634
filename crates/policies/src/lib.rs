//! # bct-policies
//!
//! Concrete scheduling policies for the tree-network simulator:
//!
//! * [`node`] — per-node preemptive priority rules: the paper's SJF
//!   (optionally with `(1+ε)^k` class rounding), plus FIFO, SRPT and LJF
//!   baselines/ablations.
//! * [`assign`] — leaf-assignment baselines: fixed, closest-leaf,
//!   random, round-robin, least-volume and min-η. The paper's greedy
//!   bound-minimizing assignment lives in `bct-sched` (it *is* the
//!   contribution). `random` and `round-robin` carry a stream position
//!   or a cursor across decisions and digest it for the serve layer's
//!   epoch hash.
//! * [`prio`] — helpers for the paper's priority sets `S_{v,j}(t)`.
//! * [`stateful`] — capacity-aware stateful dispatchers (best-fit,
//!   min-active, random-feasible) built on `AssignmentPolicy`'s
//!   completion and drain hooks, for dynamic-topology runs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assign;
pub mod node;
pub mod prio;
pub mod stateful;

pub use assign::{ClosestLeaf, FixedAssignment, LeastVolume, MinEta, RandomLeaf, RoundRobin};
pub use node::{Fifo, Hdf, Ljf, Sjf, Srpt};
pub use stateful::{BestFit, CapacityTracker, MinActive, RandomFeasible};
