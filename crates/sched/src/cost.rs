//! The assignment cost terms `F(j,v)` and `F'(j,v)` of §3.4–3.6.
//!
//! For a job `J_j` dispatched at `t = r_j` and a candidate leaf `v`:
//!
//! * `F(j,v) = Σ_{J_i ∈ S_{R(v),j}(t)} p^A_{i,R(v)}(t)
//!            + p_j·|{J_i ∈ Q_{R(v)}(t) : p_i > p_j}|`
//!   — the higher-priority volume `J_j` must wait behind at the entry
//!   node, plus the delay `J_j` inflicts on each larger queued job by
//!   jumping ahead of it. `S` includes `J_j` itself (its own `p_j`).
//!
//! * `F'(j,v) = Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)
//!             + p_{j,v}·Σ_{J_i ∈ Q_v(t), p_{i,v} > p_{j,v}} p^A_{i,v}(t)/p_{i,v}`
//!   — the same two quantities at the *leaf*, with the inflicted delay
//!   weighted fractionally (unrelated endpoints only).
//!
//! Both the greedy assignment rule and the dual variables (`β_j`,
//! `γ_{v,j,∞}`) are built from these exact expressions, so they live in
//! one place.
//!
//! Each term costs two [`bct_policies::prio`] queue queries, each
//! `O(log |Q_v|)` against the engine's per-node queue aggregates. `F`
//! depends on the leaf only through its entry node, so a caller scoring
//! every leaf evaluates it once per entry node with [`f_term_at`]: `|R|`
//! evaluations per decision, not `|L|`.

use bct_core::{JobId, NodeId, Time};
use bct_policies::prio;
use bct_sim::SimView;

/// `F(j,v)` — the entry-node (root-adjacent) cost term. `v` is the
/// candidate leaf; the term is evaluated at `R(v)`.
pub fn f_term(view: &SimView<'_>, j: JobId, leaf: NodeId) -> Time {
    f_term_at(view, j, view.entry_node(j, leaf))
}

/// `F(j,v)` for every leaf `v` with entry node `R(v) = r` — the same
/// value [`f_term`] returns for each of them, computed once.
pub fn f_term_at(view: &SimView<'_>, j: JobId, r: NodeId) -> Time {
    let p_j = view.instance().p(j, r);
    let s_vol = prio::s_volume_excl(view, r, j) + p_j; // S includes J_j
    let larger = prio::count_larger(view, r, j) as f64;
    s_vol + p_j * larger
}

/// `F'(j,v)` — the leaf cost term of the unrelated rule.
pub fn f_prime_term(view: &SimView<'_>, j: JobId, leaf: NodeId) -> Time {
    let inst = view.instance();
    let p_jv = inst.p(j, leaf);
    let s_vol = prio::s_volume_excl(view, leaf, j) + p_jv; // S includes J_j
    let frac_larger = prio::frac_count_larger(view, leaf, j);
    s_vol + p_jv * frac_larger
}

/// The interior-wait term `(6/ε²)·d_v·p_j` added to both rules
/// (Lemma 1's bound on the time spent below the entry node).
pub fn distance_term(epsilon: f64, p_j: Time, d_v: u32) -> Time {
    6.0 / (epsilon * epsilon) * d_v as f64 * p_j
}

/// `F(j,v)` evaluated from **post-assignment** queue membership: the
/// self-term is `p^A_{j,R(v)}(t)` — the job's own remaining at the entry
/// node *if it is actually routed through it*, else 0. This is the form
/// the dual variables `γ_{v,j,∞}` take in §3.5: `S_{v,j} ⊆ Q_v`, so a
/// job contributes to `F(j,v)` only on the branch it was dispatched to.
/// (The greedy *decision* uses [`f_term`], which hypothetically assigns
/// the job to every candidate.)
pub fn f_term_post(view: &SimView<'_>, j: JobId, leaf: NodeId) -> Time {
    let inst = view.instance();
    let r = view.entry_node(j, leaf);
    let p_j = inst.p(j, r);
    let s_vol = prio::s_volume_excl(view, r, j) + view.remaining_at(j, r);
    let larger = prio::count_larger(view, r, j) as f64;
    s_vol + p_j * larger
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, SpeedProfile};
    use bct_policies::{FixedAssignment, Sjf};
    use bct_sim::policy::Probe;
    use bct_sim::{SimConfig, Simulation};

    /// Capture F/F' for a target job at each leaf, at that job's arrival.
    struct CaptureF {
        target: JobId,
        f: Vec<Time>,
        f_prime: Vec<Time>,
    }

    impl Probe for CaptureF {
        fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
            if job == self.target {
                for &leaf in view.instance().tree().leaves() {
                    self.f.push(f_term(view, job, leaf));
                    self.f_prime.push(f_prime_term(view, job, leaf));
                }
            }
        }
    }

    /// root -> r1 -> leafA, root -> r2 -> leafB (two disjoint branches).
    fn two_branch() -> bct_core::Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    #[test]
    fn f_term_counts_entry_queue_and_self() {
        // J0 (size 4) at t=0 to leafA; J1 (size 2) arrives t=1.
        // At J1's arrival, R(leafA)=r1 has J0 with 3 remaining; J0 is
        // larger than J1 so it is NOT in S_{r1,J1}; it IS in the
        // "larger" count. F(J1, leafA) = p_1 (self) + p_1·1 = 4.
        // F(J1, leafB) = p_1 (self) = 2.
        let t = two_branch();
        let inst = Instance::new(
            t,
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 1.0, 2.0),
            ],
        )
        .unwrap();
        let mut probe = CaptureF {
            target: JobId(1),
            f: vec![],
            f_prime: vec![],
        };
        let mut asg = FixedAssignment(vec![NodeId(3), NodeId(4)]);
        Simulation::run(
            &inst,
            &Sjf::new(),
            &mut asg,
            &mut probe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap();
        assert_eq!(probe.f, vec![4.0, 2.0]);
    }

    #[test]
    fn f_term_includes_higher_priority_volume() {
        // J0 (size 1) at t=0 to leafA; J1 (size 4) arrives t=0.5.
        // J0 has 0.5 remaining at r1 and precedes J1:
        // F(J1, leafA) = 0.5 + 4 (self) = 4.5; F(J1, leafB) = 4.
        let t = two_branch();
        let inst = Instance::new(
            t,
            vec![
                Job::identical(0u32, 0.0, 1.0),
                Job::identical(1u32, 0.5, 4.0),
            ],
        )
        .unwrap();
        let mut probe = CaptureF {
            target: JobId(1),
            f: vec![],
            f_prime: vec![],
        };
        let mut asg = FixedAssignment(vec![NodeId(3), NodeId(4)]);
        Simulation::run(
            &inst,
            &Sjf::new(),
            &mut asg,
            &mut probe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap();
        assert_eq!(probe.f, vec![4.5, 4.0]);
    }

    #[test]
    fn f_prime_uses_leaf_sizes() {
        // Unrelated: J0 size 2 everywhere except leafB where it is 10.
        // J1 arrives at t=1 with leaf sizes (1, 1).
        // At t=1, J0 (assigned leafA) is on r1 with 1 remaining.
        // F'(J1, leafA): queue at leafA holds J0 (not yet arrived there,
        // remaining = its full leafA size 2), J0's leaf size 2 > 1 so J0
        // is larger: S excludes it; frac term = 2/2 = 1.
        // F'(J1, leafA) = 1 (self) + 1·1 = 2.
        // F'(J1, leafB): queue empty -> just self = 1.
        let t = two_branch();
        let inst = Instance::new(
            t,
            vec![
                Job::unrelated(0u32, 0.0, 2.0, vec![2.0, 10.0]),
                Job::unrelated(1u32, 1.0, 1.0, vec![1.0, 1.0]),
            ],
        )
        .unwrap();
        let mut probe = CaptureF {
            target: JobId(1),
            f: vec![],
            f_prime: vec![],
        };
        let mut asg = FixedAssignment(vec![NodeId(3), NodeId(4)]);
        Simulation::run(
            &inst,
            &Sjf::new(),
            &mut asg,
            &mut probe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap();
        assert_eq!(probe.f_prime, vec![2.0, 1.0]);
    }

    #[test]
    fn distance_term_formula() {
        assert!((distance_term(0.5, 2.0, 3) - 6.0 / 0.25 * 6.0).abs() < 1e-12);
        assert!((distance_term(1.0, 1.0, 1) - 6.0).abs() < 1e-12);
    }
}
