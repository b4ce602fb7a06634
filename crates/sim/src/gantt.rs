//! Plain-text schedule rendering from an execution [`Trace`] — one
//! line per node, one column per time bucket, showing which job each
//! node was processing. A debugging aid for eyeballing preemption and
//! store-and-forward behavior on small instances.

use crate::trace::{Trace, TraceKind};
use bct_core::{Instance, JobId, NodeId, Time};
use std::fmt::Write as _;

/// Per-node busy intervals extracted from a trace:
/// `(start, end, job)` triples in chronological order.
pub fn busy_intervals(trace: &Trace) -> Vec<(NodeId, Time, Time, JobId)> {
    let mut open: std::collections::BTreeMap<u32, (Time, JobId)> = Default::default();
    let mut out = Vec::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::Start => {
                open.insert(e.node.0, (e.t, e.job));
            }
            TraceKind::Preempt | TraceKind::FinishHop => {
                if let Some((t0, j)) = open.remove(&e.node.0) {
                    debug_assert_eq!(j, e.job);
                    out.push((e.node, t0, e.t, j));
                }
            }
            _ => {}
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    out
}

/// Render the schedule as an ASCII timeline with `cols` buckets.
///
/// Each bucket shows the job id (modulo 10, as a single digit) that
/// occupied the node for the majority of the bucket, `.` for idle.
/// Only non-root nodes appear.
pub fn render(inst: &Instance, trace: &Trace, cols: usize) -> String {
    assert!(cols > 0);
    let horizon = trace
        .events
        .iter()
        .map(|e| e.t)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let dt = horizon / cols as f64;
    let intervals = busy_intervals(trace);
    let mut out = String::new();
    let _ = writeln!(out, "time 0 .. {horizon:.2} ({cols} buckets of {dt:.3})");
    for v in inst.tree().non_root_nodes() {
        let mut row = vec!['.'; cols];
        for &(node, t0, t1, j) in &intervals {
            if node != v {
                continue;
            }
            // Mark buckets whose majority overlaps [t0, t1).
            let first = (t0 / dt).floor() as usize;
            let last = ((t1 / dt).ceil() as usize).min(cols);
            for (k, slot) in row.iter_mut().enumerate().take(last).skip(first) {
                let b0 = k as f64 * dt;
                let b1 = b0 + dt;
                let overlap = (t1.min(b1) - t0.max(b0)).max(0.0);
                if overlap >= 0.5 * dt || (overlap > 0.0 && t1 - t0 < dt) {
                    *slot = char::from_digit(j.0 % 10, 10).unwrap_or('?');
                }
            }
        }
        let kind = if inst.tree().is_leaf(v) { "M" } else { "R" };
        let _ = writeln!(out, "{v:>5} [{kind}] {}", row.iter().collect::<String>());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::Job;

    fn traced_run() -> (Instance, Trace) {
        use crate::policy::{AssignmentPolicy, KeyCtx, NodePolicy, PolicyKey};
        use crate::{SimConfig, SimView, Simulation};
        struct Sjf;
        impl NodePolicy for Sjf {
            fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
                PolicyKey::new(ctx.instance.p(ctx.job, ctx.node), 0.0, ctx.job.0)
            }
        }
        struct To(NodeId);
        impl AssignmentPolicy for To {
            fn assign(&mut self, _: &SimView<'_>, _: JobId) -> NodeId {
                self.0
            }
        }
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let leaf = b.add_child(r);
        let inst = Instance::new(
            b.build().unwrap(),
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 1.0, 1.0),
            ],
        )
        .unwrap();
        let mut trace = Trace::default();
        Simulation::run(&inst, &Sjf, &mut To(leaf), &mut trace, &SimConfig::unit()).unwrap();
        (inst, trace)
    }

    #[test]
    fn busy_intervals_cover_all_work() {
        let (inst, trace) = traced_run();
        let intervals = busy_intervals(&trace);
        // Total busy time = total work at unit speed: 2·(4+1) = 10.
        let total: f64 = intervals.iter().map(|&(_, t0, t1, _)| t1 - t0).sum();
        assert!((total - 10.0).abs() < 1e-9, "{intervals:?}");
        // No interval is degenerate or reversed.
        for &(_, t0, t1, _) in &intervals {
            assert!(t1 >= t0);
        }
        let _ = inst;
    }

    #[test]
    fn render_shows_both_jobs_and_idle() {
        let (inst, trace) = traced_run();
        let s = render(&inst, &trace, 40);
        assert!(s.contains("[R]") && s.contains("[M]"));
        assert!(s.contains('0'), "big job visible:\n{s}");
        assert!(s.contains('1'), "small job visible:\n{s}");
        assert!(s.contains('.'), "idle time visible:\n{s}");
        // Two node rows plus the header.
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn render_handles_single_bucket() {
        let (inst, trace) = traced_run();
        let s = render(&inst, &trace, 1);
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn two_runs_render_identically() {
        // Regression for the D1 fix: interval extraction used a
        // default-hasher HashMap; gantt output must be byte-identical
        // across runs (and across processes — the hasher seed differed
        // per process, this test at least pins the in-process pair).
        let (inst_a, trace_a) = traced_run();
        let (inst_b, trace_b) = traced_run();
        assert_eq!(busy_intervals(&trace_a), busy_intervals(&trace_b));
        assert_eq!(render(&inst_a, &trace_a, 40), render(&inst_b, &trace_b, 40));
    }
}
