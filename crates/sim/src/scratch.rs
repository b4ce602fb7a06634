//! Reusable buffer pool for repeated simulation runs.
//!
//! A [`SimScratch`] owns every heap-backed structure a run needs — node
//! states, queue memberships, the per-node queue aggregates, the SoA job
//! table, the materialized speed table, the event queue, and a pool of
//! outcome buffers. [`crate::Simulation::run_with_scratch`] takes the
//! buffers out, `clear()`s them in place (capacity retained), runs, and
//! hands them back, so the second run over the same topology shape
//! allocates nothing. [`SimScratch::recycle`] additionally returns a
//! consumed [`SimOutcome`]'s vectors to the pool, closing the loop for
//! sweep workers that discard outcomes after aggregating them.

use crate::agg::FlatAggregates;
use crate::evq::EventQueue;
use crate::outcome::SimOutcome;
use crate::state::{JobTable, NodeState};
use bct_core::{JobId, NodeId, Time, Tree};

/// Reusable buffers for [`crate::Simulation::run_with_scratch`].
///
/// Plain `Default`-constructible; a fresh scratch behaves exactly like
/// no scratch at all (the first run sizes everything). Dropping it
/// between runs is always safe — the scratch only carries capacity, not
/// results. On an error return the buffers are still handed back, so a
/// scratch can be reused after a failed run.
#[derive(Debug, Default)]
pub struct SimScratch {
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) q_members: Vec<Vec<(JobId, u32)>>,
    pub(crate) aggs: FlatAggregates,
    pub(crate) jobs: JobTable,
    pub(crate) speeds: Vec<f64>,
    pub(crate) evq: EventQueue,
    /// Pooled owned topology for dynamic runs: `clone_from` reuses its
    /// buffers, so a warm dynamic rerun clones without allocating.
    pub(crate) topo: Option<Tree>,
    /// Mutation-event work lists (jobs drained by a mutation, nodes
    /// freed by draining, nodes doomed by a subtree failure).
    pub(crate) drained: Vec<(JobId, NodeId)>,
    pub(crate) freed: Vec<NodeId>,
    pub(crate) doomed: Vec<NodeId>,
    // Outcome pool: vectors the next outcome is assembled into.
    pub(crate) completions: Vec<Option<Time>>,
    pub(crate) assignments: Vec<Option<NodeId>>,
    pub(crate) hop_offsets: Vec<u32>,
    pub(crate) hop_times: Vec<Time>,
    pub(crate) node_busy: Vec<Time>,
}

impl SimScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> SimScratch {
        SimScratch::default()
    }

    /// Take a finished outcome's buffers back into the pool so the next
    /// run's [`SimOutcome`] is assembled without allocating. Call this
    /// once the outcome has been fully consumed (aggregated, serialized,
    /// …) — the data itself is discarded.
    pub fn recycle(&mut self, outcome: SimOutcome) {
        self.completions = outcome.completions;
        self.assignments = outcome.assignments;
        let (offsets, times) = outcome.hop_finishes.into_parts();
        self.hop_offsets = offsets;
        self.hop_times = times;
        self.node_busy = outcome.node_busy;
    }
}
