//! The engine's pending-event queue: `std`'s binary heap of hop-finish
//! events, earliest `(t, seq)` first.
//!
//! Arrivals never enter the queue: instances validate release-sorted
//! jobs, so the engine walks them with a cursor and merges the two
//! streams at pop time. The queue holds at most one live finish per
//! busy node plus the stale finishes of rescheduled nodes, a few dozen
//! events on the measured workloads (DESIGN §12), where a pop is a
//! handful of sift steps.

use bct_core::time::OrderedTime;
use bct_core::{NodeId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A scheduled hop-finish event, as [`EventQueue::pop`] returns it.
/// Only the `(t, seq)` pair participates in the queue order — earlier
/// time first, then FIFO by push sequence for determinism;
/// `node`/`version` ride along as payload. (The sequence is `u64`, not
/// `u32`: `max_events` defaults to `2^34`, so a 32-bit counter could
/// wrap within one run.)
#[derive(Clone, Copy, Debug)]
pub struct FinishEv {
    /// Scheduled finish time.
    pub t: OrderedTime,
    /// Push sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// The node whose current job finishes.
    pub node: NodeId,
    /// The node's scheduling version at push time; a mismatch at pop
    /// time marks the event stale.
    pub version: u64,
}

/// The pending-event queue handed to the engine, plus the push
/// sequence counter. Pooled in [`crate::SimScratch`]; a `Default`
/// queue allocates nothing, so the engine can `mem::take` it out of the
/// scratch. Entries are `(t, seq, node, version)` tuples: `seq` is
/// unique, so the payload behind it never decides a comparison.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(OrderedTime, u64, NodeId, u64)>>,
    /// Sequence number of the next push.
    seq: u64,
}

impl EventQueue {
    /// Empty the queue and restart the sequence counter, keeping the
    /// capacity.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Pre-reserve room for `pending` events, so a warm steady state
    /// that keeps at most `pending` events in flight never grows the
    /// heap mid-push. Bounded by the count of *concurrently pending*
    /// events (≈ busy nodes), not total pushes.
    pub fn reserve(&mut self, pending: usize) {
        self.heap.reserve(pending);
    }

    /// Push a finish event at time `t` for `node` at scheduling
    /// `version`. `t + 0.0` stores a `-0.0` (a topology mutation may be
    /// scheduled there) as `+0.0`, the identity on every other time.
    // bct-lint: no_alloc
    pub fn push(&mut self, t: Time, node: NodeId, version: u64) {
        self.heap.push(Reverse((OrderedTime(t + 0.0), self.seq, node, version)));
        self.seq += 1;
    }

    /// Time of the earliest pending event.
    // bct-lint: no_alloc
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((t, ..))| t.0)
    }

    /// Pop the earliest pending event, `(t, seq)`-lexicographic.
    // bct-lint: no_alloc
    pub fn pop(&mut self) -> Option<FinishEv> {
        let Reverse((t, seq, node, version)) = self.heap.pop()?;
        Some(FinishEv { t, seq, node, version })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push((ev.t.0, ev.seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        for (i, t) in [3.0, 1.0, 2.0, 1.0, 0.0].iter().enumerate() {
            q.push(*t, NodeId(i as u32), 0);
        }
        let order = drain(&mut q);
        assert_eq!(
            order,
            vec![(0.0, 4), (1.0, 1), (1.0, 3), (2.0, 2), (3.0, 0)]
        );
    }

    #[test]
    fn equal_time_pushes_after_pop_stay_fifo() {
        let mut q = EventQueue::default();
        q.push(5.0, NodeId(0), 0);
        q.push(5.0, NodeId(1), 0);
        let first = q.pop().unwrap();
        assert_eq!(first.node, NodeId(0));
        // Push *at the popped time* — the engine does this whenever a
        // finish triggers an immediate zero-work reschedule.
        q.push(5.0, NodeId(2), 0);
        assert_eq!(q.pop().unwrap().node, NodeId(1));
        assert_eq!(q.pop().unwrap().node, NodeId(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn negative_zero_is_stored_as_zero_in_fifo_order() {
        let mut q = EventQueue::default();
        q.push(0.0, NodeId(0), 0);
        q.push(-0.0, NodeId(1), 0);
        assert_eq!(q.peek_time().map(f64::to_bits), Some(0.0f64.to_bits()));
        assert_eq!(q.pop().unwrap().node, NodeId(0));
        let ev = q.pop().unwrap();
        assert_eq!((ev.t.0.to_bits(), ev.node), (0.0f64.to_bits(), NodeId(1)));
    }

    #[test]
    fn reset_reuses_capacity_and_restarts_seq() {
        let mut q = EventQueue::default();
        for i in 0..100 {
            q.push(i as f64 * 0.25, NodeId(i), 0);
        }
        while q.pop().is_some() {}
        let cap = q.heap.capacity();
        q.reset();
        assert_eq!(q.heap.capacity(), cap);
        q.push(1.0, NodeId(7), 3);
        let ev = q.pop().unwrap();
        assert_eq!((ev.seq, ev.node, ev.version), (0, NodeId(7), 3));
    }
}
