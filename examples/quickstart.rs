//! Quickstart — the paper's Figure 1 scenario, end to end.
//!
//! Builds the three-layer tree network of Figure 1 (root distribution
//! center, two router subtrees, four leaf machines), submits an online
//! job sequence, runs the paper's algorithm (SJF on every node + greedy
//! broomstick assignment mirrored onto the tree, §3.7), and prints the
//! topology, the per-job schedule, and summary statistics.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bandwidth_tree_scheduling::analysis::metrics::{FlowStats, LayerBreakdown};
use bandwidth_tree_scheduling::core::render;
use bandwidth_tree_scheduling::core::tree::TreeBuilder;
use bandwidth_tree_scheduling::core::{Instance, Job, NodeId};
use bandwidth_tree_scheduling::sched::run_general;

fn main() {
    // --- Figure 1: the tree network ---------------------------------
    let mut b = TreeBuilder::new();
    let r1 = b.add_child(NodeId::ROOT);
    let r2 = b.add_child(NodeId::ROOT);
    let a = b.add_child(r1);
    let bb = b.add_child(r1);
    let c = b.add_child(r2);
    b.add_child(a); // machine v6
    b.add_child(a); // machine v7
    b.add_child(bb); // machine v8
    b.add_child(c); // machine v9
    let tree = b.build().expect("valid tree");

    println!("== Figure 1: the tree network ==\n");
    println!("{}", render::ascii(&tree));
    println!("Graphviz:\n{}", render::dot(&tree, "figure1"));

    // --- An online job sequence -------------------------------------
    // Sizes are powers of two (the paper's (1+ε)^k classes with ε = 1).
    let jobs = vec![
        Job::identical(0u32, 0.0, 4.0),
        Job::identical(1u32, 0.5, 1.0),
        Job::identical(2u32, 1.0, 2.0),
        Job::identical(3u32, 1.5, 8.0),
        Job::identical(4u32, 2.0, 1.0),
        Job::identical(5u32, 6.0, 2.0),
    ];
    let inst = Instance::new(tree, jobs).expect("valid instance");

    // --- Run the paper's general-tree algorithm ---------------------
    let eps = 0.5;
    let run = run_general(&inst, eps).expect("simulation runs");

    println!("== Schedule (ε = {eps}, paper speed profile) ==\n");
    println!("{:>4} {:>8} {:>6} {:>10} {:>10} {:>8}", "job", "release", "size", "leaf", "C_j", "flow");
    for j in 0..inst.n() {
        let job = &inst.jobs()[j];
        let leaf = run.assignments[j];
        let c_j = run.tree_outcome.completions[j].expect("finished");
        println!(
            "{:>4} {:>8.1} {:>6.1} {:>10} {:>10.2} {:>8.2}",
            format!("J{j}"),
            job.release,
            job.size,
            leaf.to_string(),
            c_j,
            c_j - job.release
        );
    }

    let stats = FlowStats::from_outcome(&inst, &run.tree_outcome);
    let layers = LayerBreakdown::from_outcome(&inst, &run.tree_outcome);
    println!("\n== Summary ==");
    println!("total flow time      : {:.2}", stats.total_flow);
    println!("mean flow time       : {:.2}", stats.mean_flow);
    println!("max flow time        : {:.2}", stats.max_flow);
    println!("fractional flow time : {:.2}", stats.fractional_flow);
    println!("mean stretch         : {:.2}", stats.mean_stretch);
    println!(
        "mean time per layer  : entry {:.2} | interior {:.2} | leaf {:.2}",
        layers.entry, layers.interior, layers.leaf
    );

    // Lemma 8 sanity: the mirrored schedule never loses to the broomstick.
    let violations = run.lemma8_violations(&inst);
    assert!(violations.is_empty(), "Lemma 8 violated: {violations:?}");
    println!("\nLemma 8 check: mirrored schedule dominates its broomstick ✓");

    // A traced re-run of the same schedule, rendered as an ASCII timeline.
    use bandwidth_tree_scheduling::policies::{FixedAssignment, Sjf};
    use bandwidth_tree_scheduling::sim::{gantt, SimConfig, Simulation, Trace};
    let mut trace = Trace::default();
    Simulation::run(
        &inst,
        &Sjf::new(),
        &mut FixedAssignment(run.assignments.clone()),
        &mut trace,
        &SimConfig::with_speeds(bandwidth_tree_scheduling::core::SpeedProfile::paper_identical(eps)),
    )
    .expect("replay runs");
    println!("\n== Schedule timeline (digit = job id, '.' = idle) ==\n");
    print!("{}", gantt::render(&inst, &trace, 64));
}
