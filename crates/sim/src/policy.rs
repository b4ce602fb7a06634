//! The engine's plug-in roles, one trait each: how nodes pick jobs
//! ([`NodePolicy`]), how arrivals pick leaves ([`AssignmentPolicy`]),
//! and how a run is observed ([`Probe`]).

use crate::state::SimView;
use crate::trace::TraceKind;
use bct_core::{Instance, JobId, NodeId, Time};
use std::cmp::Ordering;

/// A lexicographic priority key; **smaller keys run first**.
///
/// Keys must stay constant while a job *waits* in a node's queue; they
/// are recomputed whenever the job is (re-)enqueued — on arrival at the
/// node and on preemption — which is exactly what dynamic policies like
/// SRPT need (a waiting job's remaining time never changes).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyKey {
    /// Primary criterion (e.g. size class, remaining time, arrival).
    pub primary: f64,
    /// Secondary criterion (e.g. release time for age tie-breaks).
    pub secondary: f64,
    /// Final deterministic tie-break; conventionally the job id.
    pub tiebreak: u32,
}

impl PolicyKey {
    /// Build a key from the three components.
    pub fn new(primary: f64, secondary: f64, tiebreak: u32) -> PolicyKey {
        debug_assert!(!primary.is_nan() && !secondary.is_nan(), "NaN policy key");
        PolicyKey {
            primary,
            secondary,
            tiebreak,
        }
    }
}

impl Eq for PolicyKey {}

impl PartialOrd for PolicyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PolicyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.primary
            .partial_cmp(&other.primary)
            // bct-lint: allow(p1) -- a NaN key is a policy bug and must fail loudly, not sort arbitrarily
            .expect("NaN policy key")
            .then_with(|| {
                self.secondary
                    .partial_cmp(&other.secondary)
                    // bct-lint: allow(p1) -- a NaN key is a policy bug and must fail loudly, not sort arbitrarily
                    .expect("NaN policy key")
            })
            .then_with(|| self.tiebreak.cmp(&other.tiebreak))
    }
}

/// Everything a [`NodePolicy`] may consult when ranking a job at a node.
#[derive(Clone, Copy, Debug)]
pub struct KeyCtx<'a> {
    /// The full instance (sizes, release times, tree).
    pub instance: &'a Instance,
    /// The node doing the ranking.
    pub node: NodeId,
    /// The job being ranked.
    pub job: JobId,
    /// Current simulation time.
    pub now: Time,
    /// Remaining processing of `job` **at this node**.
    pub remaining: Time,
    /// When `job` became available at this node.
    pub arrived_at_node: Time,
}

/// A per-node preemptive priority policy.
///
/// The engine keeps, per node, a priority queue ordered by
/// [`NodePolicy::key`]; an arriving job preempts the running one iff its
/// key is strictly smaller.
pub trait NodePolicy {
    /// Priority key of `job` at `ctx.node`; smaller runs first.
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey;
}

/// Chooses the leaf for each arriving job (immediate dispatch), and may
/// carry mutable state across decisions.
///
/// The view exposes the live queues `Q_v(t)` and remaining volumes
/// `p^A_{i,v}(t)` — everything the paper's greedy rule (§3.4) needs.
/// Only [`AssignmentPolicy::assign`] is required; the hooks default to
/// no-ops, and only policies that track residual capacity or other
/// per-decision state override them.
///
/// Hook timing in a dynamic run:
///
/// * [`AssignmentPolicy::on_complete`] — a job just finished its leaf
///   hop (state already reflects the completion).
/// * [`AssignmentPolicy::on_drain`] — `job` was pulled out of the
///   system because a topology mutation removed or disconnected its
///   assigned leaf; once the mutation is applied it is re-offered via
///   [`AssignmentPolicy::assign`] in the same event, against the new
///   epoch's tree.
#[allow(unused_variables)]
pub trait AssignmentPolicy {
    /// Pick the leaf that `job` (released exactly now) is dispatched to.
    /// Must return a leaf of `view.tree()`.
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId;

    /// Whether this policy uses the view's sub-linear aggregate queries
    /// (`volume_before`, `count_larger`, `frac_volume_larger`). The
    /// engine maintains the per-node queue aggregates only when the
    /// assignment policy or the probe asks for them — they never affect
    /// the schedule itself, only query answers. Override to `false` for
    /// policies that don't query; querying anyway then panics.
    fn needs_aggregates(&self) -> bool {
        true
    }

    /// `job` completed at its assigned `leaf`.
    fn on_complete(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {}

    /// `job` lost `old_leaf` to a topology mutation and awaits
    /// re-assignment.
    fn on_drain(&mut self, view: &SimView<'_>, job: JobId, old_leaf: NodeId) {}

    /// Deterministic digest of any mutable state the policy carries
    /// across decisions (capacity ledgers, round-robin cursors, RNG
    /// positions). The serve layer folds this into its per-epoch state
    /// hash so replica desync *inside the policy* is caught the same
    /// way engine desync is. Policies without such state keep the
    /// default `0`.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// Optional observer invoked by the engine at semantically meaningful
/// points; used by the Lemma-bound calculators and the dual-fitting
/// verifier to sample live state, and by [`crate::Trace`] to record a
/// run.
#[allow(unused_variables)]
pub trait Probe {
    /// A job was released and assigned (state already reflects both).
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {}

    /// `job` finished its processing at `node` (state already updated;
    /// if `node` was the leaf the job is now complete).
    fn on_hop_complete(&mut self, view: &SimView<'_>, job: JobId, node: NodeId) {}

    /// Called after every processed event, with the post-event state.
    fn on_event(&mut self, view: &SimView<'_>) {}

    /// One engine action at time `t`, in the engine's processing order:
    /// the stream a [`crate::Trace`] records (see [`TraceKind`] for what
    /// `node` means per kind).
    fn on_trace(&mut self, t: Time, node: NodeId, job: JobId, kind: TraceKind) {}

    /// Whether this probe uses the view's aggregate queries; see
    /// [`AssignmentPolicy::needs_aggregates`].
    fn needs_aggregates(&self) -> bool {
        true
    }
}

/// A no-op probe for runs that don't need observation.
pub struct NoProbe;

impl Probe for NoProbe {
    fn needs_aggregates(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_orders_lexicographically() {
        let a = PolicyKey::new(1.0, 5.0, 9);
        let b = PolicyKey::new(2.0, 0.0, 0);
        assert!(a < b);
        let c = PolicyKey::new(1.0, 4.0, 9);
        assert!(c < a);
        let d = PolicyKey::new(1.0, 5.0, 8);
        assert!(d < a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn key_comparison_rejects_nan() {
        let a = PolicyKey {
            primary: f64::NAN,
            secondary: 0.0,
            tiebreak: 0,
        };
        let _ = a.cmp(&PolicyKey::new(0.0, 0.0, 0));
    }

    #[test]
    fn key_sorting_is_total() {
        let mut keys = [PolicyKey::new(2.0, 0.0, 0),
            PolicyKey::new(1.0, 1.0, 1),
            PolicyKey::new(1.0, 1.0, 0),
            PolicyKey::new(1.0, 0.0, 5)];
        keys.sort();
        assert_eq!(keys[0], PolicyKey::new(1.0, 0.0, 5));
        assert_eq!(keys[3], PolicyKey::new(2.0, 0.0, 0));
    }
}
