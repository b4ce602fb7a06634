//! A by-name policy registry, so experiments can sweep policy
//! combinations declaratively.
//!
//! Lived in `bct-analysis::runner` until the sweep engine arrived; it
//! moved here so both the analysis crate and the harness can expand
//! policy names into runnable combos without a dependency cycle.
//! `bct_analysis::runner` re-exports everything for old call sites.

use bct_core::{ClassRounding, Instance, SpeedProfile, Time};
use bct_policies::{
    BestFit, ClosestLeaf, Fifo, Hdf, LeastVolume, Ljf, MinActive, MinEta, RandomFeasible,
    RandomLeaf, RoundRobin, Sjf, Srpt,
};
use bct_sched::{GreedyIdentical, GreedyUnrelated};
use bct_sim::engine::SimError;
use bct_sim::policy::NoProbe;
use bct_sim::{
    AssignmentPolicy, NodePolicy, Probe, SimConfig, SimOutcome, SimScratch, SimView, Simulation,
};
use bct_core::{JobId, NodeId};

/// Per-node scheduling policy selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodePolicyKind {
    /// SJF on raw sizes (the paper's rule).
    Sjf,
    /// SJF on `(1+ε)^k` classes.
    SjfClasses(f64),
    /// FIFO per node.
    Fifo,
    /// Shortest remaining processing time.
    Srpt,
    /// Longest job first (adversarial ablation).
    Ljf,
    /// Highest density first (`p/w`) — the weighted SJF analogue.
    Hdf,
}

impl NodePolicyKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            NodePolicyKind::Sjf => "sjf",
            NodePolicyKind::SjfClasses(_) => "sjf-classes",
            NodePolicyKind::Fifo => "fifo",
            NodePolicyKind::Srpt => "srpt",
            NodePolicyKind::Ljf => "ljf",
            NodePolicyKind::Hdf => "hdf",
        }
    }

    /// Instantiate the node policy. Public so long-lived consumers
    /// (the serve layer's online sessions) can hold the boxed policy
    /// across commands instead of re-running a whole combo per call.
    pub fn build(&self) -> Box<dyn NodePolicy> {
        match *self {
            NodePolicyKind::Sjf => Box::new(Sjf::new()),
            NodePolicyKind::SjfClasses(eps) => Box::new(Sjf::with_classes(ClassRounding::new(eps))),
            NodePolicyKind::Fifo => Box::new(Fifo),
            NodePolicyKind::Srpt => Box::new(Srpt),
            NodePolicyKind::Ljf => Box::new(Ljf),
            NodePolicyKind::Hdf => Box::new(Hdf),
        }
    }
}

/// Leaf-assignment policy selector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AssignKind {
    /// The paper's greedy rule, identical endpoints, parameter ε.
    GreedyIdentical(f64),
    /// Ablation: the greedy rule with the `(6/ε²)·d_v·p_j` distance
    /// term removed (queue terms only).
    GreedyNoDistance(f64),
    /// The paper's greedy rule, unrelated endpoints, parameter ε.
    GreedyUnrelated(f64),
    /// Shallowest leaf, always.
    Closest,
    /// Uniform random leaf with the given seed.
    Random(u64),
    /// Cycle through the leaves.
    RoundRobin,
    /// Locally load-aware greedy baseline.
    LeastVolume,
    /// Cheapest total path work.
    MinEta,
    /// Capacity-aware best-fit: tightest residual endpoint capacity
    /// (the workload's `capacity` knob; unrestricted when unset).
    BestFit,
    /// Capacity-aware min-active: fewest in-flight jobs per endpoint.
    MinActive,
    /// Capacity-aware random over the feasible leaves, with seed.
    RandomFeasible(u64),
    /// Fault-injection probe: panics on its first assignment. Exists so
    /// sweeps can exercise the harness's failure isolation end to end
    /// (a cell running `chaos` is recorded as `Failed`, never aborts
    /// the process).
    Chaos,
}

impl AssignKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            AssignKind::GreedyIdentical(_) => "greedy",
            AssignKind::GreedyNoDistance(_) => "greedy-no-dist",
            AssignKind::GreedyUnrelated(_) => "greedy-unrel",
            AssignKind::Closest => "closest",
            AssignKind::Random(_) => "random",
            AssignKind::RoundRobin => "round-robin",
            AssignKind::LeastVolume => "least-volume",
            AssignKind::MinEta => "min-eta",
            AssignKind::BestFit => "best-fit",
            AssignKind::MinActive => "min-active",
            AssignKind::RandomFeasible(_) => "random-feasible",
            AssignKind::Chaos => "chaos",
        }
    }

    /// Instantiate the assignment policy. `capacity` feeds the stateful
    /// kinds' per-endpoint ledger; the stateless kinds ignore it.
    /// Public so long-lived consumers (the serve layer's online
    /// sessions) can keep the boxed policy's state across commands.
    pub fn build(&self, capacity: Option<f64>) -> Box<dyn AssignmentPolicy> {
        match *self {
            AssignKind::GreedyIdentical(eps) => Box::new(GreedyIdentical::new(eps)),
            AssignKind::GreedyNoDistance(eps) => {
                Box::new(GreedyIdentical::new(eps).with_distance_weight(0.0))
            }
            AssignKind::GreedyUnrelated(eps) => Box::new(GreedyUnrelated::new(eps)),
            AssignKind::Closest => Box::new(ClosestLeaf),
            AssignKind::Random(seed) => Box::new(RandomLeaf::new(seed)),
            AssignKind::RoundRobin => Box::new(RoundRobin::default()),
            AssignKind::LeastVolume => Box::new(LeastVolume),
            AssignKind::MinEta => Box::new(MinEta),
            AssignKind::BestFit => Box::new(BestFit::new(capacity)),
            AssignKind::MinActive => Box::new(MinActive::new(capacity)),
            AssignKind::RandomFeasible(seed) => Box::new(RandomFeasible::new(capacity, seed)),
            AssignKind::Chaos => Box::new(ChaosPolicy),
        }
    }
}

/// The deliberately-panicking assignment policy behind
/// [`AssignKind::Chaos`].
pub struct ChaosPolicy;

impl AssignmentPolicy for ChaosPolicy {
    fn assign(&mut self, _view: &SimView<'_>, job: JobId) -> NodeId {
        // bct-lint: allow(p1) -- the chaos policy exists to inject faults; the pool's catch_unwind is the system under test
        panic!("chaos policy: deliberate fault at job {}", job.as_usize());
    }
}

/// A (node policy, assignment policy) pair.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolicyCombo {
    /// Per-node rule.
    pub node: NodePolicyKind,
    /// Dispatch rule.
    pub assign: AssignKind,
}

impl PolicyCombo {
    /// `"sjf+greedy"`-style label.
    pub fn label(&self) -> String {
        format!("{}+{}", self.node.name(), self.assign.name())
    }

    /// Run the combo on an instance.
    pub fn run(&self, inst: &Instance, speeds: &SpeedProfile) -> Result<SimOutcome, SimError> {
        self.run_probed(inst, speeds, &mut NoProbe)
    }

    /// Run with an observer probe (a [`bct_sim::Trace`] records the
    /// run's events).
    pub fn run_probed<P: Probe + ?Sized>(
        &self,
        inst: &Instance,
        speeds: &SpeedProfile,
        probe: &mut P,
    ) -> Result<SimOutcome, SimError> {
        let cfg = SimConfig::with_speeds(speeds.clone());
        self.run_configured(&mut SimScratch::new(), inst, &cfg, None, probe)
    }

    /// The fully general entry point: an arbitrary [`SimConfig`] (e.g.
    /// carrying a churn schedule) plus the per-endpoint `capacity` fed
    /// to the capacity-aware assignment kinds, on `scratch`'s buffers.
    /// This is what every sweep cell calls, each worker thread with one
    /// long-lived scratch.
    pub fn run_configured<P: Probe + ?Sized>(
        &self,
        scratch: &mut SimScratch,
        inst: &Instance,
        cfg: &SimConfig,
        capacity: Option<f64>,
        probe: &mut P,
    ) -> Result<SimOutcome, SimError> {
        let node = self.node.build();
        let mut assign = self.assign.build(capacity);
        Simulation::run_with_scratch(scratch, inst, node.as_ref(), assign.as_mut(), probe, cfg)
    }

    /// Total flow time of a run (panics on unfinished jobs).
    pub fn total_flow(&self, inst: &Instance, speeds: &SpeedProfile) -> Time {
        // bct-lint: allow(p1) -- documented panic: experiment convenience wrapper, not on the sweep path
        let out = self.run(inst, speeds).expect("run failed");
        let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        out.total_flow(&releases)
    }
}

/// The paper's algorithm for an instance's setting.
pub fn paper_combo(inst: &Instance, epsilon: f64) -> PolicyCombo {
    PolicyCombo {
        node: NodePolicyKind::Sjf,
        assign: match inst.setting() {
            bct_core::Setting::Identical => AssignKind::GreedyIdentical(epsilon),
            bct_core::Setting::Unrelated => AssignKind::GreedyUnrelated(epsilon),
        },
    }
}

/// A diverse policy basket; the minimum total flow over it is a usable
/// upper estimate of OPT on instances too large for the LP.
pub fn baseline_basket(inst: &Instance, epsilon: f64) -> Vec<PolicyCombo> {
    let greedy = paper_combo(inst, epsilon).assign;
    let mut v = vec![
        PolicyCombo { node: NodePolicyKind::Sjf, assign: greedy },
        PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::LeastVolume },
        PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::RoundRobin },
        PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::Random(12345) },
        PolicyCombo { node: NodePolicyKind::Srpt, assign: AssignKind::LeastVolume },
    ];
    if inst.setting() == bct_core::Setting::Unrelated {
        v.push(PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::MinEta });
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bct_workloads::jobs::{ArrivalProcess, SizeDist, WorkloadSpec};
    use bct_workloads::topo;

    fn instance() -> Instance {
        let t = topo::fat_tree(2, 2, 2);
        WorkloadSpec {
            n: 25,
            arrivals: ArrivalProcess::Poisson { rate: 1.0 },
            sizes: SizeDist::Uniform { lo: 1.0, hi: 4.0 },
            unrelated: None,
        }
        .instance(&t, 1)
        .unwrap()
    }

    #[test]
    fn all_combos_run_to_completion() {
        let inst = instance();
        let speeds = SpeedProfile::Uniform(1.5);
        for node in [
            NodePolicyKind::Sjf,
            NodePolicyKind::SjfClasses(0.5),
            NodePolicyKind::Fifo,
            NodePolicyKind::Srpt,
            NodePolicyKind::Ljf,
        ] {
            for assign in [
                AssignKind::GreedyIdentical(0.5),
                AssignKind::Closest,
                AssignKind::Random(1),
                AssignKind::RoundRobin,
                AssignKind::LeastVolume,
                AssignKind::MinEta,
                AssignKind::BestFit,
                AssignKind::MinActive,
                AssignKind::RandomFeasible(7),
            ] {
                let combo = PolicyCombo { node, assign };
                let out = combo.run(&inst, &speeds).unwrap();
                assert_eq!(out.unfinished, 0, "{}", combo.label());
            }
        }
    }

    #[test]
    fn capacity_reaches_the_stateful_kinds() {
        // A tiny per-endpoint capacity must visibly change best-fit's
        // assignments versus the unrestricted run on the same instance.
        let inst = instance();
        let speeds = SpeedProfile::Uniform(1.5);
        let combo =
            PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::BestFit };
        let cfg = SimConfig::with_speeds(speeds.clone());
        let run = |capacity: Option<f64>| {
            let mut scratch = SimScratch::new();
            combo
                .run_configured(&mut scratch, &inst, &cfg, capacity, &mut NoProbe)
                .unwrap()
                .assignments
        };
        let unrestricted = run(None);
        let tight = run(Some(4.0));
        assert_eq!(unrestricted.len(), tight.len());
        assert_ne!(unrestricted, tight, "capacity must steer assignments");
    }

    #[test]
    fn labels_are_stable() {
        let c = PolicyCombo {
            node: NodePolicyKind::Sjf,
            assign: AssignKind::GreedyIdentical(0.5),
        };
        assert_eq!(c.label(), "sjf+greedy");
    }

    #[test]
    fn paper_combo_matches_setting() {
        let inst = instance();
        assert_eq!(paper_combo(&inst, 0.5).assign, AssignKind::GreedyIdentical(0.5));
    }

    #[test]
    fn chaos_policy_panics_on_dispatch() {
        let inst = instance();
        let combo = PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::Chaos };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            combo.run(&inst, &SpeedProfile::Uniform(1.5))
        }));
        assert!(r.is_err(), "chaos must panic");
    }
}
