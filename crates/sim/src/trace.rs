//! Execution traces: a flat, serializable record of everything the
//! engine did, consumed by the invariant checker and by debugging
//! output.
//!
//! A [`Trace`] is a [`Probe`]: a run is traced by passing a
//! `&mut Trace` as its probe, which records every
//! [`Probe::on_trace`] event in order.

use crate::policy::Probe;
use bct_core::{JobId, NodeId, Time};
use serde::{Deserialize, Serialize};

/// What happened in a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceKind {
    /// Job released at the root and dispatched to the given leaf
    /// (stored in `node`).
    Arrive,
    /// Node began (or resumed) processing the job.
    Start,
    /// Node stopped processing the job before finishing it.
    Preempt,
    /// Job finished its processing requirement at the node and moved to
    /// the next hop (or completed, if the node was its leaf).
    FinishHop,
    /// Job completed entirely (its leaf hop finished). Emitted in
    /// addition to `FinishHop`.
    Complete,
    /// A topology mutation removed the job's assigned leaf; the job was
    /// drained and re-dispatched from the root to the given leaf
    /// (stored in `node`), restarting from its first hop.
    Redispatch,
}

/// One timestamped engine action.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub t: Time,
    /// The acting node (for `Arrive`: the assigned leaf).
    pub node: NodeId,
    /// The job involved.
    pub job: JobId,
    /// What happened.
    pub kind: TraceKind,
}

/// A complete run trace, in chronological order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// All events, sorted by time (ties in engine processing order).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Record an event. Debug-asserts chronological order.
    pub fn push(&mut self, t: Time, node: NodeId, job: JobId, kind: TraceKind) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.t <= t + 1e-9),
            "trace must be chronological"
        );
        self.events.push(TraceEvent { t, node, job, kind });
    }

    /// Events concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.job == job)
    }

    /// Events at one node, in order.
    pub fn at_node(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.node == node)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Probe for Trace {
    fn on_trace(&mut self, t: Time, node: NodeId, job: JobId, kind: TraceKind) {
        self.push(t, node, job, kind);
    }

    fn needs_aggregates(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_filter() {
        let mut tr = Trace::default();
        tr.push(0.0, NodeId(3), JobId(0), TraceKind::Arrive);
        tr.push(0.0, NodeId(1), JobId(0), TraceKind::Start);
        tr.push(2.0, NodeId(1), JobId(0), TraceKind::FinishHop);
        tr.push(2.0, NodeId(2), JobId(1), TraceKind::Start);
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.for_job(JobId(0)).count(), 3);
        assert_eq!(tr.at_node(NodeId(1)).count(), 2);
        assert!(!tr.is_empty());
    }

    #[test]
    #[should_panic(expected = "chronological")]
    #[cfg(debug_assertions)]
    fn rejects_time_travel() {
        let mut tr = Trace::default();
        tr.push(5.0, NodeId(1), JobId(0), TraceKind::Start);
        tr.push(1.0, NodeId(1), JobId(0), TraceKind::Preempt);
    }

    #[test]
    fn serde_roundtrip() {
        let mut tr = Trace::default();
        tr.push(1.5, NodeId(2), JobId(7), TraceKind::Complete);
        let s = serde_json::to_string(&tr).unwrap();
        let back: Trace = serde_json::from_str(&s).unwrap();
        assert_eq!(back.events, tr.events);
    }
}
