//! The paper's greedy leaf-assignment rules (§3.4).
//!
//! On a job's arrival, dispatch it to the leaf minimizing the Lemma-4
//! upper bound on the increase in the objective:
//!
//! * identical endpoints: `argmin_v F(j,v) + (6/ε²)·d_v·p_j`
//! * unrelated endpoints: `argmin_v F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j`
//!
//! The rule is designed for broomsticks (where the dual fitting of
//! §§3.5–3.6 analyzes it) but is well defined — and is run as an
//! empirical heuristic — on arbitrary trees.
//!
//! `F(j,v)` depends on `v` only through its entry node `R(v)`, so one
//! decision evaluates it once per entry node (once per run of leaves
//! sharing one, in id order) and adds the per-leaf terms inside the
//! leaf loop: the `O(1)` distance term, plus `F'` (two `O(log |Q_v|)`
//! leaf queries) for unrelated endpoints. Every queue query is answered
//! from the engine's per-node aggregates, keyed by the same raw-size SJF
//! order the rules compare, so an identical-endpoint decision on a tree
//! whose entry nodes own contiguous leaf ranges costs
//! `O(|R|·log max|Q| + |L|)`.

use crate::cost::{distance_term, f_prime_term, f_term, f_term_at};
use bct_core::{JobId, NodeId, Time};
use bct_sim::{AssignmentPolicy, SimView};

/// The first leaf, in id order, that strictly minimizes
/// `score(F(j,R(v)), v)`. `F` is recomputed only when a leaf's entry
/// node differs from the previous leaf's; where the leaves of one entry
/// node are not contiguous (leaves added by mutation, random trees) it
/// is recomputed more often, never reused for the wrong node.
// bct-lint: no_alloc
fn argmin_leaf(
    view: &SimView<'_>,
    j: JobId,
    mut score: impl FnMut(Time, NodeId) -> Time,
) -> NodeId {
    let leaves = view.tree().leaves();
    let mut best = leaves[0];
    let mut best_score = f64::INFINITY;
    let mut memo: Option<(NodeId, Time)> = None;
    for &v in leaves {
        let r = view.entry_node(j, v);
        let f = match memo {
            Some((memo_r, f)) if memo_r == r => f,
            _ => {
                let f = f_term_at(view, j, r);
                memo = Some((r, f));
                f
            }
        };
        let s = score(f, v);
        debug_assert!(s.is_finite(), "non-finite assignment score");
        if s < best_score {
            best_score = s;
            best = v;
        }
    }
    best
}

/// Greedy rule for **identical endpoints** (Theorem 5's algorithm).
#[derive(Clone, Copy, Debug)]
pub struct GreedyIdentical {
    epsilon: f64,
    distance_weight: f64,
}

impl GreedyIdentical {
    /// Rule with parameter `ε` (controls the distance term weight).
    pub fn new(epsilon: f64) -> GreedyIdentical {
        assert!(epsilon > 0.0, "epsilon must be positive");
        GreedyIdentical {
            epsilon,
            distance_weight: 1.0,
        }
    }

    /// Scale the `(6/ε²)·d_v·p_j` term by `w` — `w = 0` removes it
    /// entirely (the E13 ablation: queue-only assignment that ignores
    /// path length).
    pub fn with_distance_weight(mut self, w: f64) -> GreedyIdentical {
        assert!(w >= 0.0);
        self.distance_weight = w;
        self
    }

    /// The score minimized over leaves: `F(j,v) + w·(6/ε²)·d_v·p_j`
    /// (`d_v` generalizes to the job's actual path length for non-root
    /// origins).
    pub fn score(&self, view: &SimView<'_>, j: JobId, leaf: NodeId) -> Time {
        self.score_given_f(view, j, leaf, f_term(view, j, leaf))
    }

    /// [`Self::score`] with `F(j,v)` already evaluated.
    fn score_given_f(&self, view: &SimView<'_>, j: JobId, leaf: NodeId, f: Time) -> Time {
        let inst = view.instance();
        f + self.distance_weight
            * distance_term(
                self.epsilon,
                inst.job(j).size,
                view.path_for(j, leaf).len() as u32,
            )
    }
}

impl AssignmentPolicy for GreedyIdentical {
    // bct-lint: no_alloc
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let me = *self;
        argmin_leaf(view, job, |f, v| {
            GreedyIdentical::score_given_f(&me, view, job, v, f)
        })
    }
}

/// Greedy rule for **unrelated endpoints** (Theorem 6's algorithm).
#[derive(Clone, Copy, Debug)]
pub struct GreedyUnrelated {
    epsilon: f64,
}

impl GreedyUnrelated {
    /// Rule with parameter `ε`.
    pub fn new(epsilon: f64) -> GreedyUnrelated {
        assert!(epsilon > 0.0, "epsilon must be positive");
        GreedyUnrelated { epsilon }
    }

    /// The score minimized over leaves:
    /// `F(j,v) + F'(j,v) + (6/ε²)·d_v·p_j`.
    pub fn score(&self, view: &SimView<'_>, j: JobId, leaf: NodeId) -> Time {
        self.score_given_f(view, j, leaf, f_term(view, j, leaf))
    }

    /// [`Self::score`] with `F(j,v)` already evaluated; the sum stays
    /// `(F + F') + distance`, as reassociating it changes low bits.
    fn score_given_f(&self, view: &SimView<'_>, j: JobId, leaf: NodeId, f: Time) -> Time {
        let inst = view.instance();
        f + f_prime_term(view, j, leaf)
            + distance_term(
                self.epsilon,
                inst.job(j).size,
                view.path_for(j, leaf).len() as u32,
            )
    }
}

impl AssignmentPolicy for GreedyUnrelated {
    // bct-lint: no_alloc
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let me = *self;
        argmin_leaf(view, job, |f, v| {
            GreedyUnrelated::score_given_f(&me, view, job, v, f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Instance, Job, SpeedProfile};
    use bct_policies::Sjf;
    use bct_sim::policy::NoProbe;
    use bct_sim::{SimConfig, Simulation};

    fn run_greedy(
        inst: &Instance,
        mut asg: impl AssignmentPolicy,
    ) -> (Vec<Option<NodeId>>, Vec<Option<f64>>) {
        let out = Simulation::run(
            inst,
            &Sjf::new(),
            &mut asg,
            &mut NoProbe,
            &SimConfig::with_speeds(SpeedProfile::unit()),
        )
        .unwrap();
        (out.assignments, out.completions)
    }

    /// Two parallel branches, equal depth.
    fn two_branch() -> bct_core::Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    #[test]
    fn greedy_spreads_load_across_branches() {
        // Four simultaneous-ish equal jobs on two equal branches:
        // greedy must alternate, not pile onto one branch.
        let inst = Instance::new(
            two_branch(),
            (0..4)
                .map(|i| Job::identical(i as u32, i as f64 * 0.01, 4.0))
                .collect(),
        )
        .unwrap();
        let (asg, _) = run_greedy(&inst, GreedyIdentical::new(0.5));
        let a_count = asg.iter().filter(|&&v| v == Some(NodeId(3))).count();
        assert_eq!(a_count, 2, "two jobs per branch: {asg:?}");
    }

    #[test]
    fn distance_term_penalizes_deep_leaves_when_idle() {
        // One branch has a depth-2 leaf, the other depth-4; with an idle
        // network the greedy must take the shallow leaf.
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1); // leaf depth 2
        let chain = b.add_chain(r2, 2);
        b.add_child(chain[1]); // leaf depth 4
        let t = b.build().unwrap();
        let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
        let (asg, _) = run_greedy(&inst, GreedyIdentical::new(0.5));
        assert_eq!(asg[0], Some(NodeId(3)));
    }

    #[test]
    fn congestion_overrides_distance_when_queue_is_long() {
        // Shallow branch is heavily queued; a small job should flee to
        // the deeper, empty branch once waiting there is cheaper.
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1); // shallow leaf v3, depth 2
        let c = b.add_child(r2);
        b.add_child(c); // deeper leaf v5, depth 3
        let t = b.build().unwrap();
        // Ten big jobs pile onto the shallow branch first (they prefer
        // it), then a small job arrives.
        let mut jobs: Vec<Job> = (0..10)
            .map(|i| Job::identical(i as u32, 0.01 * i as f64, 100.0))
            .collect();
        jobs.push(Job::identical(10u32, 0.2, 1.0));
        let inst = Instance::new(t, jobs).unwrap();
        // Large ε so the distance term (6/ε²·d·p) stays small vs queues.
        let (asg, _) = run_greedy(&inst, GreedyIdentical::new(2.0));
        // The big jobs split across branches; the key check: the small
        // job goes wherever the queue volume it would wait behind is
        // smallest — which cannot be the branch with more accumulated
        // large-job volume at its entry node.
        let small = asg[10].unwrap();
        let big_on_small_branch = asg[..10]
            .iter()
            .filter(|&&v| v.map(|l| inst.tree().r_node(l)) == Some(inst.tree().r_node(small)))
            .count();
        assert!(
            big_on_small_branch <= 5,
            "small job should pick the less loaded branch: {asg:?}"
        );
    }

    #[test]
    fn unrelated_rule_avoids_slow_machines() {
        // leaf A processes J0 in 1 unit, leaf B in 100: greedy-unrelated
        // must pick A despite equal congestion.
        let inst = Instance::new(
            two_branch(),
            vec![Job::unrelated(0u32, 0.0, 1.0, vec![1.0, 100.0])],
        )
        .unwrap();
        let (asg, _) = run_greedy(&inst, GreedyUnrelated::new(0.5));
        assert_eq!(asg[0], Some(NodeId(3)));
    }

    #[test]
    fn unrelated_rule_trades_speed_against_queue() {
        // Leaf A is fast (1) but will be behind a huge queued job; leaf
        // B is slower (2) but idle. With the queue big enough, B wins.
        let inst = Instance::new(
            two_branch(),
            vec![
                Job::unrelated(0u32, 0.0, 1.0, vec![50.0, 50.0]), // hog, goes to A (tie)
                Job::unrelated(1u32, 0.5, 1.0, vec![1.0, 2.0]),
            ],
        )
        .unwrap();
        let (asg, _) = run_greedy(&inst, GreedyUnrelated::new(2.0));
        let hog = asg[0].unwrap();
        let small = asg[1].unwrap();
        assert_ne!(hog, small, "small job avoids the hogged machine: {asg:?}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_epsilon() {
        GreedyIdentical::new(0.0);
    }
}
