//! End-to-end pipeline tests through the facade crate: generate →
//! schedule → verify → analyze, across settings and policies.

use bandwidth_tree_scheduling::analysis::metrics::{FlowStats, LayerBreakdown};
use bandwidth_tree_scheduling::analysis::runner::{
    baseline_basket, paper_combo, AssignKind, NodePolicyKind, PolicyCombo,
};
use bandwidth_tree_scheduling::core::{Setting, SpeedProfile};
use bandwidth_tree_scheduling::sched::run_general;
use bandwidth_tree_scheduling::sim::invariants;
use bandwidth_tree_scheduling::workloads::jobs::{
    ArrivalProcess, SizeDist, UnrelatedModel, WorkloadSpec,
};
use bandwidth_tree_scheduling::workloads::{topo, trace_io};

#[test]
fn identical_pipeline_end_to_end() {
    let tree = topo::fat_tree(3, 2, 2);
    let spec = WorkloadSpec::poisson_identical(
        150,
        0.8,
        SizeDist::PowerOfBase { base: 2.0, max_k: 4 },
        &tree,
    );
    let inst = spec.instance(&tree, 7).unwrap();
    assert_eq!(inst.setting(), Setting::Identical);

    let combo = paper_combo(&inst, 0.5);
    let mut probe = bandwidth_tree_scheduling::sim::policy::NoProbe;
    let node = NodePolicyKind::Sjf;
    assert_eq!(combo.node, node);
    let out = combo
        .run_probed(&inst, &SpeedProfile::Uniform(1.5), &mut probe)
        .unwrap();
    assert_eq!(out.unfinished, 0);

    let stats = FlowStats::from_outcome(&inst, &out);
    assert!(stats.total_flow > 0.0);
    assert!(stats.mean_flow <= stats.max_flow);
    assert!(stats.fractional_flow <= stats.total_flow + 1e-6);
    let layers = LayerBreakdown::from_outcome(&inst, &out);
    assert!(
        (layers.entry + layers.interior + layers.leaf - stats.mean_flow).abs() < 1e-6
    );
}

#[test]
fn unrelated_pipeline_with_trace_checking() {
    let tree = topo::star(3, 3);
    let spec = WorkloadSpec {
        n: 60,
        arrivals: ArrivalProcess::Poisson { rate: 0.8 },
        sizes: SizeDist::Uniform { lo: 1.0, hi: 6.0 },
        unrelated: Some(UnrelatedModel::RelatedSpeeds { lo: 1.0, hi: 4.0 }),
    };
    let inst = spec.instance(&tree, 11).unwrap();
    assert_eq!(inst.setting(), Setting::Unrelated);

    // Run with a trace and feed it to the independent checker.
    let combo = PolicyCombo {
        node: NodePolicyKind::Sjf,
        assign: AssignKind::GreedyUnrelated(0.5),
    };
    let node_policy = bandwidth_tree_scheduling::policies::Sjf::new();
    let mut assign = bandwidth_tree_scheduling::sched::GreedyUnrelated::new(0.5);
    let speeds = SpeedProfile::Uniform(2.0);
    let cfg = bandwidth_tree_scheduling::sim::SimConfig::with_speeds(speeds.clone());
    let mut trace = bandwidth_tree_scheduling::sim::Trace::default();
    bandwidth_tree_scheduling::sim::Simulation::run(
        &inst,
        &node_policy,
        &mut assign,
        &mut trace,
        &cfg,
    )
    .unwrap();
    let _ = combo; // combo used above for documentation symmetry
    let violations = invariants::check(&inst, &speeds, &trace);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn general_algorithm_beats_or_matches_its_broomstick_everywhere() {
    for seed in 0..5 {
        let tree = topo::fat_tree(2, 2, 2);
        let inst = WorkloadSpec::poisson_identical(
            80,
            0.7,
            SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
            &tree,
        )
        .instance(&tree, seed)
        .unwrap();
        let run = run_general(&inst, 0.5).unwrap();
        assert!(run.lemma8_violations(&inst).is_empty());
    }
}

#[test]
fn serialization_roundtrip_preserves_simulation_results() {
    let tree = topo::star(2, 2);
    let inst = WorkloadSpec {
        n: 30,
        arrivals: ArrivalProcess::Bursty { burst: 5, rate: 0.2 },
        sizes: SizeDist::Pareto { alpha: 2.0, min: 1.0 },
        unrelated: None,
    }
    .instance(&tree, 3)
    .unwrap();
    let json = trace_io::to_json(&inst);
    let back = trace_io::from_json(&json).unwrap();
    let combo = paper_combo(&inst, 0.5);
    let f1 = combo.total_flow(&inst, &SpeedProfile::Uniform(1.5));
    let f2 = combo.total_flow(&back, &SpeedProfile::Uniform(1.5));
    assert_eq!(f1, f2, "same instance must schedule identically");
}

#[test]
fn every_basket_policy_completes_heavy_load() {
    let tree = topo::fat_tree(2, 2, 2);
    let inst = WorkloadSpec::poisson_identical(
        200,
        0.95,
        SizeDist::Bimodal { small: 1.0, large: 16.0, p_large: 0.15 },
        &tree,
    )
    .instance(&tree, 5)
    .unwrap();
    for combo in baseline_basket(&inst, 0.5) {
        let out = combo.run(&inst, &SpeedProfile::Uniform(1.0)).unwrap();
        assert_eq!(out.unfinished, 0, "{} stalled", combo.label());
    }
}
