//! The paper's priority sets and queue volumes.
//!
//! For SJF on node `v`, `S_{v,j}(t)` is the set of jobs in `Q_v(t)` with
//! priority at least `J_j`'s — smaller processing time on `v`, or equal
//! processing time and earlier release — including `J_j` itself (§2).
//! The §3.4 assignment rule and the §3.5/3.6 dual fitting are built from
//! sums over these sets; this module provides them as view queries.
//! The engine keys its per-node queue aggregates by this same raw-size
//! order, so each query is `O(log |Q_v|)`; [`naive`] keeps the scans.

use bct_core::{Instance, JobId, NodeId, Time};
use bct_sim::SimView;

/// Does `i` have SJF priority over (or equal to) `j` on `v`?
/// True when `i`'s size `p_{i,v}` is smaller, or equal with earlier
/// release (ties broken by id for determinism).
pub fn sjf_precedes_or_eq(inst: &Instance, v: NodeId, i: JobId, j: JobId) -> bool {
    if i == j {
        return true;
    }
    let (si, sj) = (inst.p(i, v), inst.p(j, v));
    if si != sj {
        return si < sj;
    }
    let (ri, rj) = (inst.job(i).release, inst.job(j).release);
    if ri != rj {
        return ri < rj;
    }
    i < j
}

/// `Σ_{J_i ∈ S_{v,j}(t) \ {j}} p^A_{i,v}(t)`: remaining volume of
/// strictly-preceding jobs queued through `v`. (`J_j`'s own term is
/// added by callers when the paper's formula includes it — at dispatch
/// time `J_j` is not yet in any queue.) `O(log |Q_v|)` via the engine's
/// per-node aggregates.
pub fn s_volume_excl(view: &SimView<'_>, v: NodeId, j: JobId) -> Time {
    let inst = view.instance();
    view.volume_before(v, inst.p(j, v), inst.job(j).release, j.0)
}

/// `|{J_i ∈ Q_v(t) : p_{i,v} > p_{j,v}}|`: how many queued jobs are
/// strictly larger than `j` on `v` — the jobs `j` will delay by jumping
/// ahead of them. `O(log |Q_v|)`.
pub fn count_larger(view: &SimView<'_>, v: NodeId, j: JobId) -> usize {
    view.count_larger(v, view.instance().p(j, v))
}

/// `Σ_{J_i ∈ Q_v(t), p_{i,v} > p_{j,v}} p^A_{i,v}(t)/p_{i,v}`: the
/// *fractional count* of strictly larger jobs at `v` — the unrelated
/// assignment rule's delay-to-others term at the leaf (§3.4).
/// `O(log |Q_v|)`.
pub fn frac_count_larger(view: &SimView<'_>, v: NodeId, j: JobId) -> f64 {
    view.frac_volume_larger(v, view.instance().p(j, v))
}

/// Scan-based reference implementations of the queue-volume queries.
///
/// These walk `Q_v(t)` job by job, straight from the paper's set
/// definitions — `O(|Q_v|)` per call, nothing incremental to be wrong.
/// They are the oracle the differential tests compare the aggregate
/// queries against, and the baseline of the dispatch-scoring benchmark;
/// no production path calls them.
pub mod naive {
    use super::*;

    /// Scan-based [`super::s_volume_excl`].
    pub fn s_volume_excl(view: &SimView<'_>, v: NodeId, j: JobId) -> Time {
        let inst = view.instance();
        view.q(v)
            .filter(|&i| i != j && sjf_precedes_or_eq(inst, v, i, j))
            .map(|i| view.remaining_at(i, v))
            .sum()
    }

    /// Scan-based [`super::count_larger`].
    pub fn count_larger(view: &SimView<'_>, v: NodeId, j: JobId) -> usize {
        let inst = view.instance();
        let sj = inst.p(j, v);
        view.q(v).filter(|&i| i != j && inst.p(i, v) > sj).count()
    }

    /// Scan-based [`super::frac_count_larger`].
    pub fn frac_count_larger(view: &SimView<'_>, v: NodeId, j: JobId) -> f64 {
        let inst = view.instance();
        let sj = inst.p(j, v);
        view.q(v)
            .filter(|&i| i != j && inst.p(i, v) > sj)
            .map(|i| view.remaining_at(i, v) / inst.p(i, v))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job};

    fn inst() -> Instance {
        let mut b = TreeBuilder::new();
        let r = b.add_child(bct_core::NodeId::ROOT);
        b.add_child(r);
        let t = b.build().unwrap();
        Instance::new(
            t,
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 1.0, 2.0),
                Job::identical(2u32, 2.0, 4.0),
                Job::identical(3u32, 3.0, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn precedence_by_size_then_age() {
        let inst = inst();
        let v = NodeId(1);
        // smaller size precedes
        assert!(sjf_precedes_or_eq(&inst, v, JobId(1), JobId(0)));
        assert!(!sjf_precedes_or_eq(&inst, v, JobId(0), JobId(1)));
        // equal size: earlier release precedes
        assert!(sjf_precedes_or_eq(&inst, v, JobId(0), JobId(2)));
        assert!(!sjf_precedes_or_eq(&inst, v, JobId(3), JobId(2)));
        // reflexive
        assert!(sjf_precedes_or_eq(&inst, v, JobId(2), JobId(2)));
    }
}

#[cfg(test)]
mod live_tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, SpeedProfile};
    use bct_sim::policy::Probe;
    use bct_sim::{SimConfig, SimView, Simulation};

    /// Capture the helpers' values at a target job's arrival.
    struct Capture {
        target: JobId,
        s_vol: Option<f64>,
        larger: Option<usize>,
        frac_larger: Option<f64>,
    }

    impl Probe for Capture {
        fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
            if job == self.target {
                let v = NodeId(1);
                self.s_vol = Some(s_volume_excl(view, v, job));
                self.larger = Some(count_larger(view, v, job));
                self.frac_larger = Some(frac_count_larger(view, v, job));
                // The aggregate queries and the scan oracle must agree.
                assert_eq!(self.s_vol, Some(naive::s_volume_excl(view, v, job)));
                assert_eq!(self.larger, Some(naive::count_larger(view, v, job)));
                assert_eq!(
                    self.frac_larger,
                    Some(naive::frac_count_larger(view, v, job))
                );
            }
        }
    }

    #[test]
    fn live_queue_volumes_match_hand_computation() {
        // root -> r(1) -> leaf(2). J0 size 6 at t=0; J1 size 1 at t=2;
        // J2 size 4 at t=3 (the probed job).
        // At t=3 on r: J0 has been preempted by J1 during [2,3], so J0
        // has 6-2=4 remaining; J1 finished r at t=3 (gone from Q_r).
        // For J2 (size 4): S excludes J0 (same size 4 remaining but
        // priority is by ORIGINAL size: p_0=6 > 4 -> J0 is larger).
        //   s_volume_excl = 0, count_larger = 1, frac_larger = 4/6.
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let leaf = b.add_child(r);
        let inst = Instance::new(
            b.build().unwrap(),
            vec![
                Job::identical(0u32, 0.0, 6.0),
                Job::identical(1u32, 2.0, 1.0),
                Job::identical(2u32, 3.0, 4.0),
            ],
        )
        .unwrap();
        let mut probe = Capture {
            target: JobId(2),
            s_vol: None,
            larger: None,
            frac_larger: None,
        };
        let mut asg = bct_policies_fixed(leaf, 3);
        Simulation::run(
            &inst,
            &crate::node::Sjf::new(),
            &mut asg,
            &mut probe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap();
        assert_eq!(probe.s_vol, Some(0.0));
        assert_eq!(probe.larger, Some(1));
        assert!((probe.frac_larger.unwrap() - 4.0 / 6.0).abs() < 1e-9);
    }

    fn bct_policies_fixed(leaf: NodeId, n: usize) -> crate::assign::FixedAssignment {
        crate::assign::FixedAssignment(vec![leaf; n])
    }
}
