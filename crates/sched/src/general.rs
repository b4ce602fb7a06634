//! The §3.7 algorithm for general trees.
//!
//! Given an arbitrary tree `T`, build its broomstick `T'` (§3.3), run
//! the greedy algorithm on `T'`, and mirror every leaf assignment back
//! through the leaf correspondence onto `T`, scheduling with SJF there.
//!
//! The paper describes this as an *online co-simulation*; because the
//! broomstick simulation never consults the real tree's state, running
//! `T'` to completion first and then replaying the recorded assignments
//! on `T` is step-for-step identical to the online coupling — each
//! job's `T`-assignment is a deterministic function of the arrival
//! prefix, exactly as in the paper.
//!
//! Lemma 8 guarantees the mirrored schedule on `T` is *pointwise no
//! worse*: every job finishes each of its hops in `T` no later than the
//! corresponding hop in `T'`. [`GeneralRun::lemma8_violations`] checks
//! this per job, per hop.

use bct_core::{Broomstick, Instance, NodeId, Setting, SpeedProfile, Time};
use bct_policies::{FixedAssignment, Sjf};
use bct_sim::engine::SimError;
use bct_sim::policy::NoProbe;
use bct_sim::{SimConfig, SimOutcome, Simulation};

use crate::greedy::{GreedyIdentical, GreedyUnrelated};

/// Outcome of the general-tree algorithm: both coupled runs.
#[derive(Clone, Debug)]
pub struct GeneralRun {
    /// The broomstick and its leaf correspondence.
    pub broomstick: Broomstick,
    /// The instance as mapped onto `T'`.
    pub prime_instance: Instance,
    /// The greedy run on `T'`.
    pub prime_outcome: SimOutcome,
    /// The mirrored run on `T`.
    pub tree_outcome: SimOutcome,
    /// Leaf assignments on `T` (mirrored from `T'`).
    pub assignments: Vec<NodeId>,
}

impl GeneralRun {
    /// Total flow time of the mirrored schedule on `T`.
    pub fn total_flow(&self, inst: &Instance) -> Time {
        let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        self.tree_outcome.total_flow(&releases)
    }

    /// Lemma 8 check: per job, per identical hop, the `T` finish time
    /// must not exceed the `T'` finish time of the corresponding hop
    /// (the `T'` path has two extra handle hops which we align from the
    /// top: hop 0 ↔ hop 0, and the `T` leaf ↔ the `T'` leaf). Returns
    /// descriptions of violations (empty = lemma holds).
    pub fn lemma8_violations(&self, inst: &Instance) -> Vec<String> {
        let mut out = Vec::new();
        for j in 0..inst.n() {
            let t_hops = &self.tree_outcome.hop_finishes[j];
            let p_hops = &self.prime_outcome.hop_finishes[j];
            if t_hops.is_empty() || p_hops.is_empty() {
                continue;
            }
            // Entry node is shared structure: same position 0.
            if t_hops[0] > p_hops[0] + 1e-6 {
                out.push(format!(
                    "job {j}: entry hop finishes at {} in T but {} in T'",
                    t_hops[0], p_hops[0]
                ));
            }
            // Completion: last vs last.
            let (ct, cp) = (*t_hops.last().unwrap(), *p_hops.last().unwrap());
            if ct > cp + 1e-6 {
                out.push(format!(
                    "job {j}: completes at {ct} in T but {cp} in T'"
                ));
            }
        }
        out
    }
}

/// Run the §3.7 general-tree algorithm on `inst`: the greedy rule
/// with parameter `epsilon` (ε) on `T'`, SJF on every node, and both
/// trees at the paper's speed profile for ε and the instance's setting.
///
/// ```
/// use bct_core::tree::TreeBuilder;
/// use bct_core::{Instance, Job, NodeId};
/// use bct_sched::run_general;
///
/// let mut b = TreeBuilder::new();
/// let r = b.add_child(NodeId::ROOT);
/// let a = b.add_child(r);
/// b.add_child(a);
/// b.add_child(a);
/// let inst = Instance::new(
///     b.build()?,
///     vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.5, 1.0)],
/// )?;
///
/// let run = run_general(&inst, 0.5)?;
/// assert!(run.tree_outcome.all_finished());
/// assert!(run.lemma8_violations(&inst).is_empty()); // T dominates T'
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_general(inst: &Instance, epsilon: f64) -> Result<GeneralRun, SimError> {
    assert!(
        !inst.has_origins(),
        "the §3.7 algorithm is defined for root-origin jobs (the paper \
         leaves arbitrary origins open; run the greedy directly instead)"
    );
    let tree = inst.tree();
    let bs = Broomstick::reduce(tree);
    let prime_instance = bs
        .map_instance(inst)
        .expect("broomstick mapping of a valid instance is valid");

    // The paper profile for the instance's setting ((1+ε)/(1+ε)²,
    // doubled if unrelated), on T' and on T alike: the layered profile
    // transfers, as corresponding nodes keep their layer.
    let speeds = match inst.setting() {
        Setting::Identical => SpeedProfile::paper_identical(epsilon),
        Setting::Unrelated => SpeedProfile::paper_unrelated(epsilon),
    };
    let sjf = Sjf::new();

    // Phase 1: greedy on the broomstick.
    let prime_cfg = SimConfig::with_speeds(speeds.clone());
    let prime_outcome = match inst.setting() {
        Setting::Identical => {
            let mut g = GreedyIdentical::new(epsilon);
            Simulation::run(&prime_instance, &sjf, &mut g, &mut NoProbe, &prime_cfg)?
        }
        Setting::Unrelated => {
            let mut g = GreedyUnrelated::new(epsilon);
            Simulation::run(&prime_instance, &sjf, &mut g, &mut NoProbe, &prime_cfg)?
        }
    };

    // Phase 2: mirror assignments back onto T and replay with SJF.
    let assignments: Vec<NodeId> = prime_outcome
        .assignments
        .iter()
        .map(|a| bs.orig_leaf_of(a.expect("all jobs dispatched")))
        .collect();
    let tree_outcome = Simulation::run(
        inst,
        &sjf,
        &mut FixedAssignment(assignments.clone()),
        &mut NoProbe,
        &SimConfig::with_speeds(speeds),
    )?;

    Ok(GeneralRun {
        broomstick: bs,
        prime_instance,
        prime_outcome,
        tree_outcome,
        assignments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::tree::TreeBuilder;
    use bct_core::{Job, JobId};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn figure_tree() -> bct_core::Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        let a = b.add_child(r1);
        let bb = b.add_child(r1);
        let c = b.add_child(r2);
        b.add_child(a);
        b.add_child(a);
        b.add_child(bb);
        b.add_child(c);
        b.build().unwrap()
    }

    fn random_jobs(seed: u64, n: usize) -> Vec<Job> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut release = 0.0;
        (0..n)
            .map(|i| {
                release += rng.gen_range(0.0..3.0);
                Job::identical(i as u32, release, [1.0, 2.0, 4.0, 8.0][rng.gen_range(0..4)])
            })
            .collect()
    }

    #[test]
    fn general_run_completes_all_jobs() {
        let inst = Instance::new(figure_tree(), random_jobs(1, 20)).unwrap();
        let run = run_general(&inst, 0.5).unwrap();
        assert_eq!(run.tree_outcome.unfinished, 0);
        assert_eq!(run.prime_outcome.unfinished, 0);
        assert_eq!(run.assignments.len(), 20);
        for &a in &run.assignments {
            assert!(inst.tree().is_leaf(a));
        }
    }

    #[test]
    fn mirrored_assignments_stay_in_the_same_branch() {
        let inst = Instance::new(figure_tree(), random_jobs(2, 30)).unwrap();
        let run = run_general(&inst, 0.5).unwrap();
        // The correspondence preserves the root-adjacent subtree: the
        // T' handle index matches the T branch.
        for j in 0..30 {
            let prime_leaf = run.prime_outcome.assignments[j].unwrap();
            let t_leaf = run.assignments[j];
            assert_eq!(run.broomstick.orig_leaf_of(prime_leaf), t_leaf);
        }
    }

    #[test]
    fn lemma8_holds_on_random_instances() {
        for seed in 0..10 {
            let inst = Instance::new(figure_tree(), random_jobs(seed, 25)).unwrap();
            let run = run_general(&inst, 0.5).unwrap();
            let viol = run.lemma8_violations(&inst);
            assert!(viol.is_empty(), "seed {seed}: {viol:?}");
        }
    }

    #[test]
    fn lemma8_holds_in_the_unrelated_setting() {
        let t = figure_tree();
        let n_leaves = t.num_leaves();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut release = 0.0;
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                release += rng.gen_range(0.0..2.0);
                let sizes = (0..n_leaves)
                    .map(|_| [1.0, 2.0, 8.0][rng.gen_range(0..3)])
                    .collect();
                Job::unrelated(i as u32, release, [1.0, 2.0, 4.0][rng.gen_range(0..3)], sizes)
            })
            .collect();
        let inst = Instance::new(t, jobs).unwrap();
        let run = run_general(&inst, 0.5).unwrap();
        let viol = run.lemma8_violations(&inst);
        assert!(viol.is_empty(), "{viol:?}");
        assert_eq!(run.tree_outcome.unfinished, 0);
    }

    #[test]
    fn flow_on_t_is_at_most_flow_on_t_prime() {
        // The aggregate corollary of Lemma 8.
        for seed in 20..28 {
            let inst = Instance::new(figure_tree(), random_jobs(seed, 30)).unwrap();
            let run = run_general(&inst, 0.5).unwrap();
            let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
            let ft = run.tree_outcome.total_flow(&releases);
            let fp = run.prime_outcome.total_flow(&releases);
            assert!(
                ft <= fp + 1e-6,
                "seed {seed}: T flow {ft} > T' flow {fp}"
            );
        }
    }

    #[test]
    fn per_job_flow_dominance() {
        // Strong per-job form: each job completes in T no later than T'.
        let inst = Instance::new(figure_tree(), random_jobs(4, 40)).unwrap();
        let run = run_general(&inst, 1.0).unwrap();
        for j in 0..inst.n() {
            let ct = run.tree_outcome.completions[j].unwrap();
            let cp = run.prime_outcome.completions[j].unwrap();
            assert!(
                ct <= cp + 1e-6,
                "{}: C_T = {ct} > C_T' = {cp}",
                JobId(j as u32)
            );
        }
    }
}
