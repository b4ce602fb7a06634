//! Figure 2 — the tree → broomstick reduction (§3.3), executed.
//!
//! Takes an arbitrary tree, builds its broomstick `T'`, renders both
//! side by side, and demonstrates the two halves of the paper's
//! argument on a concrete workload:
//!
//! * the structural facts (handles, the +2 depth shift, the leaf
//!   correspondence);
//! * Lemma 8: replaying `T'`-assignments on `T` finishes every job no
//!   later.
//!
//! ```sh
//! cargo run --example broomstick_reduction
//! ```

use bandwidth_tree_scheduling::core::render;
use bandwidth_tree_scheduling::core::{Broomstick, Instance};
use bandwidth_tree_scheduling::sched::run_general;
use bandwidth_tree_scheduling::workloads::jobs::{ArrivalProcess, SizeDist, WorkloadSpec};
use bandwidth_tree_scheduling::workloads::topo;
use rand::SeedableRng;

fn main() {
    // An irregular tree: random routers and machines.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2015);
    let tree = topo::random_tree(&mut rng, 7, 6);

    println!("== T: the original tree ==\n");
    println!("{}", render::ascii(&tree));

    let bs = Broomstick::reduce(&tree);
    println!("== T': its broomstick (Figure 2 reduction) ==\n");
    println!("{}", render::ascii(bs.tree()));

    println!("== Leaf correspondence ==\n");
    for &leaf in tree.leaves() {
        let prime = bs.prime_leaf_of(&tree, leaf);
        println!(
            "  {leaf} (depth {}) -> {prime} (depth {})   [+2 as proved]",
            tree.depth(leaf),
            bs.tree().depth(prime)
        );
        assert_eq!(bs.tree().depth(prime), tree.depth(leaf) + 2);
    }
    println!(
        "\nhandles per root-adjacent subtree: {:?}",
        bs.handles().iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert!(bs.tree().is_broomstick());

    // --- Lemma 8 on a workload ---------------------------------------
    let spec = WorkloadSpec {
        n: 40,
        arrivals: ArrivalProcess::Poisson { rate: 1.5 },
        sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
        unrelated: None,
    };
    let inst = Instance::new(tree.clone(), spec.generate(&tree, 7)).unwrap();
    let run = run_general(&inst, 0.5).unwrap();

    println!("\n== Lemma 8: completion times, T vs T' ==\n");
    println!("{:>5} {:>12} {:>12} {:>9}", "job", "C_j on T", "C_j on T'", "T wins?");
    let mut improvements = Vec::new();
    for j in 0..inst.n().min(12) {
        let ct = run.tree_outcome.completions[j].unwrap();
        let cp = run.prime_outcome.completions[j].unwrap();
        improvements.push(cp - ct);
        println!("{:>5} {ct:>12.2} {cp:>12.2} {:>9}", format!("J{j}"), if ct <= cp + 1e-9 { "yes" } else { "NO" });
    }
    let violations = run.lemma8_violations(&inst);
    assert!(violations.is_empty(), "Lemma 8 violated: {violations:?}");
    let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
    println!(
        "\ntotal flow: T = {:.1}, T' = {:.1}  (Lemma 8: T ≤ T') ✓",
        run.tree_outcome.total_flow(&releases),
        run.prime_outcome.total_flow(&releases),
    );

    // Also emit DOT for both, for the visually inclined.
    println!("\n{}", render::dot(&tree, "T"));
    println!("{}", render::dot(bs.tree(), "T_prime"));
}
