//! Engine semantics under topology mutations: drain-and-redispatch,
//! node additions, speed changes, subtree failures, schedule
//! validation, and warm-scratch determinism for dynamic runs.

use bct_core::tree::TreeBuilder;
use bct_core::{Instance, Job, JobId, NodeId, SpeedProfile, Tree, TreeMutation};
use bct_sim::engine::SimError;
use bct_sim::policy::NoProbe;
use bct_sim::{
    invariants, AssignmentPolicy, KeyCtx, NodePolicy, PolicyKey, SimConfig, SimScratch, SimView,
    Simulation, TopoMutation, Trace, TraceKind,
};

/// SJF on original size, ties by release then id.
struct Sjf;

impl NodePolicy for Sjf {
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        let p = ctx.instance.p(ctx.job, ctx.node);
        let r = ctx.instance.job(ctx.job).release;
        PolicyKey::new(p, r, ctx.job.0)
    }
}

/// Prefer a fixed leaf, but fall back to the first live leaf when the
/// preferred one is gone — the minimal mutation-aware dispatcher.
struct Prefer(NodeId);

impl AssignmentPolicy for Prefer {
    fn assign(&mut self, view: &SimView<'_>, _job: JobId) -> NodeId {
        if view.tree().is_leaf(self.0) {
            self.0
        } else {
            view.tree().leaves()[0]
        }
    }
}

/// Always the highest-id live leaf — lands on mutation-added machines.
struct PickLast;

impl AssignmentPolicy for PickLast {
    fn assign(&mut self, view: &SimView<'_>, _job: JobId) -> NodeId {
        *view.tree().leaves().iter().max().unwrap()
    }
}

/// root -> r(1) -> leaf(2).
fn chain() -> Tree {
    let mut b = TreeBuilder::new();
    let r = b.add_child(NodeId::ROOT);
    b.add_child(r);
    b.build().unwrap()
}

/// root with two subtrees: r1(1) -> a(3) -> {4, 5}; r2(2) -> c(6) -> 7.
fn branching() -> Tree {
    let mut b = TreeBuilder::new();
    let r1 = b.add_child(NodeId::ROOT);
    let r2 = b.add_child(NodeId::ROOT);
    let a = b.add_child(r1);
    b.add_child(a); // leaf 4
    b.add_child(a); // leaf 5
    let c = b.add_child(r2);
    b.add_child(c); // leaf 7
    b.build().unwrap()
}

fn at(t: f64, change: TreeMutation) -> TopoMutation {
    TopoMutation { at: t, change }
}

#[test]
fn removing_an_idle_leaf_changes_nothing() {
    let t = branching();
    let jobs = vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 1.0, 2.0)];
    let inst = Instance::new(t, jobs).unwrap();
    let mut static_cfg = SimConfig::unit();
    let static_out = Simulation::run(
        &inst,
        &Sjf,
        &mut Prefer(NodeId(7)),
        &mut Trace::default(),
        &static_cfg,
    )
    .unwrap();
    static_cfg.mutations = vec![at(1.5, TreeMutation::RemoveLeaf { leaf: NodeId(4) })];
    let dyn_out = Simulation::run(
        &inst,
        &Sjf,
        &mut Prefer(NodeId(7)),
        &mut Trace::default(),
        &static_cfg,
    )
    .unwrap();
    // Nothing ever ran in r1's subtree, so completions are untouched.
    assert_eq!(dyn_out.completions, static_out.completions);
    assert_eq!(dyn_out.unfinished, 0);
}

#[test]
fn removing_a_busy_leaf_drains_and_redispatches() {
    let t = branching();
    // Both jobs head for leaf 4; at t = 1.0 that leaf dies mid-flight.
    let jobs = vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.0, 2.0)];
    let inst = Instance::new(t, jobs).unwrap();
    let cfg = SimConfig::unit()
        .with_mutations(vec![at(1.0, TreeMutation::RemoveLeaf { leaf: NodeId(4) })]);
    let mut trace = Trace::default();
    let out = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(4)), &mut trace, &cfg).unwrap();
    assert_eq!(out.unfinished, 0, "drained jobs must still complete");
    let redispatches: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Redispatch)
        .collect();
    assert_eq!(redispatches.len(), 2, "both in-flight jobs redispatch");
    for e in &redispatches {
        assert_eq!(e.t, 1.0);
        assert_eq!(e.node, NodeId(5), "first surviving leaf after 4 died");
    }
    // Redispatch restarts the job: every completion is later than the
    // static (uninterrupted) run's would have been.
    for c in out.completions.iter() {
        assert!(c.unwrap() > 4.0);
    }
    // The trace stays feasible under the static-scope invariant checker
    // (dynamic jobs keep mutual-exclusion coverage).
    let v = invariants::check(&inst, &SpeedProfile::unit(), &trace);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn added_leaf_receives_later_jobs() {
    let t = branching();
    let before = t.len();
    // Job 0 arrives before the mutation, job 1 after.
    let jobs = vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 3.0, 2.0)];
    let inst = Instance::new(t, jobs).unwrap();
    let cfg = SimConfig::unit()
        .with_mutations(vec![at(1.0, TreeMutation::AddLeaf { parent: NodeId(6) })]);
    let out = Simulation::run(&inst, &Sjf, &mut PickLast, &mut Trace::default(), &cfg).unwrap();
    assert_eq!(out.unfinished, 0);
    assert_eq!(out.assignments[0], Some(NodeId(7)), "pre-mutation max leaf");
    assert_eq!(
        out.assignments[1],
        Some(NodeId(before as u32)),
        "post-mutation job lands on the added machine"
    );
}

#[test]
fn set_speed_reprices_the_inflight_job() {
    // Chain root -> r -> leaf, p = 4: router hop 0..4, leaf hop 4..8.
    // Doubling the leaf's speed at t = 6 leaves 2 units at rate 2.
    let t = chain();
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 4.0)]).unwrap();
    let cfg = SimConfig::unit().with_mutations(vec![at(
        6.0,
        TreeMutation::SetSpeed { node: NodeId(2), factor: 2.0 },
    )]);
    let out = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(2)), &mut NoProbe, &cfg).unwrap();
    assert_eq!(out.completions[0], Some(7.0));
    assert_eq!(out.unfinished, 0);
}

#[test]
fn failing_a_subtree_redispatches_to_survivors() {
    let t = branching();
    let jobs: Vec<Job> =
        (0..4u32).map(|i| Job::identical(i, f64::from(i) * 0.25, 2.0)).collect();
    let inst = Instance::new(t, jobs).unwrap();
    // Node 1 takes its whole subtree (a=3, leaves 4 and 5) down at 1.5.
    let cfg =
        SimConfig::unit().with_mutations(vec![at(1.5, TreeMutation::FailNode { node: NodeId(1) })]);
    let mut trace = Trace::default();
    let out = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(4)), &mut trace, &cfg).unwrap();
    assert_eq!(out.unfinished, 0);
    // Every job finished on the surviving branch's leaf.
    for e in trace.events.iter().filter(|e| e.kind == TraceKind::Complete) {
        assert_eq!(e.node, NodeId(7));
    }
    let v = invariants::check(&inst, &SpeedProfile::unit(), &trace);
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn post_completion_mutations_leave_the_outcome_byte_identical() {
    let t = branching();
    let jobs = vec![Job::identical(0u32, 0.0, 2.0), Job::identical(1u32, 0.5, 1.0)];
    let inst = Instance::new(t, jobs).unwrap();
    let cfg = SimConfig::unit();
    let mut a_trace = Trace::default();
    let a = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(7)), &mut a_trace, &cfg).unwrap();
    // Same schedule plus a mutation long after the last completion.
    let cfg =
        cfg.with_mutations(vec![at(1e6, TreeMutation::RemoveLeaf { leaf: NodeId(4) })]);
    let mut b_trace = Trace::default();
    let b = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(7)), &mut b_trace, &cfg).unwrap();
    // The mutation itself counts as one processed event; everything the
    // schedule produced must match exactly.
    assert_eq!(b.events, a.events + 1);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.fractional_flow.to_bits(), b.fractional_flow.to_bits());
    assert_eq!(a.count_integral.to_bits(), b.count_integral.to_bits());
    assert_eq!(a.node_busy, b.node_busy);
    // (makespan is the clock at the last processed event, so the late
    // mutation legitimately moves it; everything job-visible matches.)
    assert_eq!(a_trace.events, b_trace.events);
}

#[test]
fn dynamic_runs_are_deterministic_on_a_warm_scratch() {
    let t = branching();
    let jobs: Vec<Job> =
        (0..6u32).map(|i| Job::identical(i, f64::from(i) * 0.4, 1.5)).collect();
    let inst = Instance::new(t, jobs).unwrap();
    let cfg = SimConfig::unit().with_mutations(vec![
        at(1.0, TreeMutation::AddLeaf { parent: NodeId(6) }),
        at(2.0, TreeMutation::RemoveLeaf { leaf: NodeId(4) }),
        at(2.0, TreeMutation::SetSpeed { node: NodeId(7), factor: 1.5 }),
    ]);
    let mut scratch = SimScratch::new();
    let run = |scratch: &mut SimScratch| {
        let mut trace = Trace::default();
        let out = Simulation::run_with_scratch(
            scratch,
            &inst,
            &Sjf,
            &mut Prefer(NodeId(4)),
            &mut trace,
            &cfg,
        )
        .unwrap();
        (serde_json::to_string(&out).unwrap(), serde_json::to_string(&trace).unwrap())
    };
    let first = run(&mut scratch);
    let second = run(&mut scratch);
    let fresh = run(&mut SimScratch::new());
    assert_eq!(first, second, "warm scratch must not change dynamic outputs");
    assert_eq!(first, fresh, "scratch reuse must match fresh buffers");
}

#[test]
fn unsorted_schedules_are_rejected() {
    let t = chain();
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
    let cfg = SimConfig::unit().with_mutations(vec![
        at(2.0, TreeMutation::SetSpeed { node: NodeId(2), factor: 2.0 }),
        at(1.0, TreeMutation::SetSpeed { node: NodeId(2), factor: 0.5 }),
    ]);
    let err = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(2)), &mut NoProbe, &cfg)
        .unwrap_err();
    assert!(matches!(err, SimError::DynamicUnsupported(_)), "{err}");
}

#[test]
fn explicit_speeds_with_add_leaf_are_rejected() {
    let t = chain();
    let n = t.len();
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
    let cfg = SimConfig::with_speeds(SpeedProfile::Explicit(vec![1.0; n]))
        .with_mutations(vec![at(1.0, TreeMutation::AddLeaf { parent: NodeId(1) })]);
    let err = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(2)), &mut NoProbe, &cfg)
        .unwrap_err();
    assert!(matches!(err, SimError::DynamicUnsupported(_)), "{err}");
}

#[test]
fn invalid_mutations_surface_as_typed_errors() {
    let t = chain();
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 4.0)]).unwrap();
    // Removing the only machine leaves the tree without leaves.
    let cfg = SimConfig::unit()
        .with_mutations(vec![at(1.0, TreeMutation::RemoveLeaf { leaf: NodeId(2) })]);
    let err = Simulation::run(&inst, &Sjf, &mut Prefer(NodeId(2)), &mut NoProbe, &cfg)
        .unwrap_err();
    assert!(matches!(err, SimError::BadMutation(_)), "{err}");
}
