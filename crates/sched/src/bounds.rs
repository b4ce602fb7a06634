//! Executable forms of the paper's structural bounds (Lemmas 1–4).
//!
//! Each bound comes in two flavors: the *proved* right-hand side (a
//! closed-form function of `ε`, sizes and distances) and the *live*
//! left-hand side measured from simulator state. The E3–E5 experiments
//! sweep workloads and report measured/bound ratios, which the theory
//! says must stay ≤ 1 once no further jobs arrive (Lemma 3) or always
//! (Lemmas 1–2, under the stated augmentation).

use bct_core::{Instance, JobId, NodeId, Setting, Time};
use bct_policies::prio;
use bct_sim::{HopFinishes, SimView};

/// Lemma 2, measured side: the remaining volume of higher-priority jobs
/// **currently available to schedule** on `v` (excluding jobs still held
/// upstream), i.e. `Σ_{J_i ∈ S_{v,j}(t) \ Q_{ρ(v)}(t)} p^A_{i,v}(t)`.
pub fn lemma2_available_volume(view: &SimView<'_>, v: NodeId, j: JobId) -> Time {
    let inst = view.instance();
    view.q(v)
        .filter(|&i| view.current_node_of(i) == Some(v) && prio::sjf_precedes_or_eq(inst, v, i, j))
        .map(|i| view.remaining_at(i, v))
        .sum()
}

/// Lemma 2, proved side: `(2/ε)·p_j`.
pub fn lemma2_bound(epsilon: f64, p_j: Time) -> Time {
    2.0 / epsilon * p_j
}

/// Lemma 1, proved side: `(6/ε²)·d_v·p_j` — the interior waiting bound
/// for a job assigned to leaf `v` after it leaves `R(v)`.
pub fn lemma1_bound(epsilon: f64, p_j: Time, d_v: u32) -> Time {
    6.0 / (epsilon * epsilon) * d_v as f64 * p_j
}

/// Lemma 1, measured side: the time between a job finishing at its
/// root-adjacent entry node and finishing at the last *identical* node
/// of its path (the leaf in the identical setting, the last router in
/// the unrelated setting). `hop_finishes` is the per-hop finish vector
/// from the outcome; returns `None` if the path has a single node (no
/// interior stretch).
pub fn lemma1_measured(
    setting: Setting,
    hop_finishes: &[Time],
) -> Option<Time> {
    let last_ident = match setting {
        Setting::Identical => hop_finishes.len().checked_sub(1)?,
        Setting::Unrelated => hop_finishes.len().checked_sub(2)?,
    };
    if last_ident == 0 {
        return None;
    }
    Some(hop_finishes[last_ident] - hop_finishes[0])
}

/// The remaining *identical* nodes of `j`'s path at the current moment
/// (excluding the unrelated leaf, if any), with their path indices.
fn remaining_identical_nodes<'v>(
    view: &SimView<'v>,
    j: JobId,
) -> impl Iterator<Item = (usize, NodeId)> + 'v {
    let inst = view.instance();
    let path = view.path(j);
    let hop = view.hop(j);
    let end = match inst.setting() {
        Setting::Identical => path.len(),
        Setting::Unrelated => path.len().saturating_sub(1),
    };
    let path = &path[..end];
    path.iter()
        .copied()
        .enumerate()
        .skip(hop)
        .filter(move |&(k, _)| k >= hop)
}

/// Lemma 3: the potential `Φ_j(t)` — an upper bound on the remaining
/// time until `j` finishes its last identical node, assuming no further
/// arrivals:
///
/// `Φ_j(t) = (1/s)·max_{v ∈ P_j(t)} [ Σ_{J_i ∈ S_{v,j}(t)} p^A_{i,v}(t)
///            + (2/ε)·(d_j(t) − d_{v,j}(t))·p_j ]`
///
/// `s` is taken as the minimum speed over the remaining identical nodes
/// (the lemma's uniform `s` generalized conservatively). Returns `None`
/// if the job is complete or past its identical nodes.
pub fn phi(view: &SimView<'_>, epsilon: f64, j: JobId) -> Option<Time> {
    if !view.released(j) || view.completion(j).is_some() {
        return None;
    }
    let inst = view.instance();
    let p_j = inst.job(j).size;
    let nodes: Vec<(usize, NodeId)> = remaining_identical_nodes(view, j).collect();
    if nodes.is_empty() {
        return None;
    }
    let d_j = nodes.len() as f64; // remaining identical nodes
    let hop = view.hop(j);
    let mut s_min = f64::INFINITY;
    let mut best = f64::NEG_INFINITY;
    for &(k, v) in &nodes {
        s_min = s_min.min(view.speed(v));
        let d_vj = (k - hop + 1) as f64;
        let s_vol: Time = view
            .q(v)
            .filter(|&i| prio::sjf_precedes_or_eq(inst, v, i, j))
            .map(|i| view.remaining_at(i, v))
            .sum();
        let term = s_vol + 2.0 / epsilon * (d_j - d_vj) * p_j;
        best = best.max(term);
    }
    Some(best / s_min)
}

/// Lemma 4: the three waiting-time segments for job `j` assigned to
/// leaf `v`, measured from state at time `t` under "no more arrivals":
/// (entry-node wait, interior bound, leaf wait).
pub fn lemma4_segments(
    view: &SimView<'_>,
    epsilon: f64,
    j: JobId,
    leaf: NodeId,
) -> (Time, Time, Time) {
    let inst = view.instance();
    let r = inst.tree().r_node(leaf);
    let s_r = view.speed(r);
    let s_leaf = view.speed(leaf);
    let entry: Time = view
        .q(r)
        .filter(|&i| prio::sjf_precedes_or_eq(inst, r, i, j))
        .map(|i| view.remaining_at(i, r))
        .sum::<Time>()
        / s_r;
    let interior = lemma1_bound(epsilon, inst.job(j).size, inst.tree().d_v(leaf));
    let leaf_wait: Time = view
        .q(leaf)
        .filter(|&i| prio::sjf_precedes_or_eq(inst, leaf, i, j))
        .map(|i| view.remaining_at(i, leaf))
        .sum::<Time>()
        / s_leaf;
    (entry, interior, leaf_wait)
}

/// Convenience: the measured interior wait of every completed job in an
/// outcome, paired with its Lemma-1 bound. Returns `(measured, bound)`
/// pairs for jobs whose path has an interior stretch.
pub fn lemma1_pairs(
    inst: &Instance,
    epsilon: f64,
    assignments: &[Option<NodeId>],
    hop_finishes: &HopFinishes,
) -> Vec<(Time, Time)> {
    let mut out = Vec::new();
    for j in 0..inst.n() {
        let Some(leaf) = assignments[j] else { continue };
        let Some(measured) = lemma1_measured(inst.setting(), &hop_finishes[j]) else {
            continue;
        };
        let bound = lemma1_bound(epsilon, inst.job(JobId(j as u32)).size, inst.tree().d_v(leaf));
        out.push((measured, bound));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, SpeedProfile};
    use bct_policies::{FixedAssignment, Sjf};
    use bct_sim::policy::Probe;
    use bct_sim::{SimConfig, Simulation};

    fn chain_instance(routers: usize, jobs: Vec<Job>) -> (Instance, NodeId) {
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let chain = b.add_chain(r, routers.saturating_sub(1));
        let last = chain.last().copied().unwrap_or(r);
        let leaf = b.add_child(last);
        (Instance::new(b.build().unwrap(), jobs).unwrap(), leaf)
    }

    #[test]
    fn lemma1_bound_formula() {
        assert!((lemma1_bound(1.0, 2.0, 3) - 36.0).abs() < 1e-12);
        assert!((lemma2_bound(0.5, 3.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn lemma1_measured_identical_vs_unrelated() {
        let hops = [3.0, 6.0, 10.0];
        assert_eq!(lemma1_measured(Setting::Identical, &hops), Some(7.0));
        assert_eq!(lemma1_measured(Setting::Unrelated, &hops), Some(3.0));
        assert_eq!(lemma1_measured(Setting::Identical, &[1.0]), None);
        assert_eq!(lemma1_measured(Setting::Unrelated, &[1.0, 2.0]), None);
    }

    /// Probe capturing Φ at a fixed job's arrival and that job's actual
    /// later finish at its last identical node.
    struct PhiCheck {
        target: JobId,
        epsilon: f64,
        phi_at_arrival: Option<f64>,
        arrival_time: Option<f64>,
    }

    impl Probe for PhiCheck {
        fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
            if job == self.target {
                self.phi_at_arrival = phi(view, self.epsilon, job);
                self.arrival_time = Some(view.now());
            }
        }
    }

    #[test]
    fn phi_upper_bounds_remaining_time_when_last_arrival() {
        // Several jobs, target is the LAST arrival (so "no more jobs
        // arrive" holds) — Φ at its arrival must upper-bound the time
        // until it clears its last identical node.
        let eps = 1.0;
        let (inst, leaf) = chain_instance(
            2,
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 0.5, 2.0),
                Job::identical(2u32, 1.0, 1.0),
            ],
        );
        let speeds = SpeedProfile::Uniform(1.0 + eps);
        let mut probe = PhiCheck {
            target: JobId(2),
            epsilon: eps,
            phi_at_arrival: None,
            arrival_time: None,
        };
        let out = Simulation::run(
            &inst,
            &Sjf::new(),
            &mut FixedAssignment(vec![leaf; 3]),
            &mut probe,
            &SimConfig::with_speeds(speeds),
        )
        .unwrap();
        let phi0 = probe.phi_at_arrival.expect("target released");
        let t0 = probe.arrival_time.unwrap();
        let finish_last_ident = *out.hop_finishes[2].last().unwrap();
        assert!(
            finish_last_ident - t0 <= phi0 + 1e-6,
            "Φ={phi0} but remaining time was {}",
            finish_last_ident - t0
        );
    }

    #[test]
    fn lemma2_volume_counts_only_available_higher_priority() {
        // J0 big (at router 1 first), J1 small behind it. At J1's
        // arrival, node v2 (downstream) has nothing available yet.
        struct Cap {
            vol_v2: Option<f64>,
        }
        impl Probe for Cap {
            fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
                if job == JobId(1) {
                    self.vol_v2 = Some(lemma2_available_volume(view, NodeId(2), job));
                }
            }
        }
        let (inst, leaf) = chain_instance(
            2,
            vec![
                Job::identical(0u32, 0.0, 4.0),
                Job::identical(1u32, 1.0, 8.0),
            ],
        );
        let mut probe = Cap { vol_v2: None };
        Simulation::run(
            &inst,
            &Sjf::new(),
            &mut FixedAssignment(vec![leaf; 2]),
            &mut probe,
            &SimConfig::with_speeds(SpeedProfile::Uniform(2.0)),
        )
        .unwrap();
        // At t=1, J0 is still on node 1 (4 units at speed 2 finishes at
        // t=2), so nothing is *available* at v2.
        assert_eq!(probe.vol_v2, Some(0.0));
    }

    #[test]
    fn lemma4_segments_on_idle_network_reduce_to_self() {
        struct Cap {
            segs: Option<(f64, f64, f64)>,
        }
        impl Probe for Cap {
            fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
                if job == JobId(0) {
                    self.segs = Some(lemma4_segments(view, 1.0, job, leaf));
                }
            }
        }
        let (inst, leaf) = chain_instance(1, vec![Job::identical(0u32, 0.0, 3.0)]);
        let mut probe = Cap { segs: None };
        Simulation::run(
            &inst,
            &Sjf::new(),
            &mut FixedAssignment(vec![leaf]),
            &mut probe,
            &SimConfig::unit(),
        )
        .unwrap();
        let (entry, interior, leaf_wait) = probe.segs.unwrap();
        // Only the job itself queues: entry = p_j/s = 3, leaf = 3 (its
        // own full leaf size, not yet started), interior = 6/1·d·p.
        assert!((entry - 3.0).abs() < 1e-9);
        assert!((leaf_wait - 3.0).abs() < 1e-9);
        assert!((interior - 6.0 * 2.0 * 3.0).abs() < 1e-9);
    }
}
