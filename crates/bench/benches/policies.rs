//! Per-policy end-to-end run-time benchmarks: what each node policy and
//! assignment rule costs on the same workload.

use bct_analysis::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use bct_bench::standard_instance;
use bct_core::SpeedProfile;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_node_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policies/node");
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(5));
    let inst = standard_instance(1500, 9);
    for (label, node) in [
        ("sjf", NodePolicyKind::Sjf),
        ("sjf-classes", NodePolicyKind::SjfClasses(0.5)),
        ("fifo", NodePolicyKind::Fifo),
        ("srpt", NodePolicyKind::Srpt),
        ("ljf", NodePolicyKind::Ljf),
    ] {
        let combo = PolicyCombo {
            node,
            assign: AssignKind::RoundRobin,
        };
        g.bench_function(label, |b| {
            b.iter(|| {
                black_box(
                    combo
                        .run(black_box(&inst), &SpeedProfile::Uniform(1.5))
                        .unwrap()
                        .makespan,
                )
            })
        });
    }
    g.finish();
}

fn bench_general_tree_algorithm(c: &mut Criterion) {
    // The full §3.7 pipeline: broomstick reduction + greedy run on T' +
    // mirrored replay on T.
    let mut g = c.benchmark_group("policies/general-tree");
    g.sample_size(20);
    let inst = standard_instance(500, 11);
    g.bench_function("run_general(eps=0.5)", |b| {
        b.iter(|| {
            let run =
                bct_sched::run_general(black_box(&inst), 0.5)
                    .unwrap();
            black_box(run.tree_outcome.makespan)
        })
    });
    g.finish();
}

fn bench_dual_fitting(c: &mut Criterion) {
    let mut g = c.benchmark_group("policies/dual-fitting");
    g.sample_size(10);
    let tree = bct_workloads::topo::broomstick(2, 3, 1);
    let inst = bct_workloads::jobs::WorkloadSpec {
        n: 40,
        arrivals: bct_workloads::jobs::ArrivalProcess::Poisson { rate: 0.8 },
        sizes: bct_workloads::jobs::SizeDist::PowerOfBase { base: 2.0, max_k: 2 },
        unrelated: None,
    }
    .instance(&tree, 13)
    .unwrap();
    g.bench_function("verify(identical, eps=0.25)", |b| {
        b.iter(|| black_box(bct_lp::dualfit::verify(black_box(&inst), 0.25).unwrap().samples))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_node_policies,
    bench_general_tree_algorithm,
    bench_dual_fitting
);
criterion_main!(benches);
