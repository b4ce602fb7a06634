//! Competitive-ratio experiments: E1 (Theorem 1), E2 (Theorem 2),
//! E6 (Theorem 4), E10 (the headline policy sweep).

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::{Broomstick, Instance, SpeedProfile};
use bct_lp::bounds::combined_bound;
use bct_lp::model::{lp_lower_bound, LpGrid};
use bct_sched::run_general;
use bct_workloads::jobs::{ArrivalProcess, SizeDist, UnrelatedModel, WorkloadSpec};
use bct_workloads::topo;

fn total_flow(inst: &Instance, out: &bct_sim::SimOutcome) -> f64 {
    let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
    out.total_flow(&releases)
}

/// **E1 — Theorem 1.** Identical endpoints: the general-tree algorithm
/// at `(1+ε)`-style speeds versus certified lower bounds on OPT.
///
/// Small instances are measured against the paper's own LP (exact
/// certificate); larger ones against the combinatorial bounds. Reported
/// ratios are *upper bounds* on the true competitive ratio. Expected
/// shape: small constants, decreasing in ε, nowhere near the
/// pessimistic `O(1/ε⁷)`.
pub fn e1_identical_competitive(scale: Scale) -> Table {
    let mut table = Table::new(
        "E1 — Theorem 1: identical endpoints, ALG vs OPT lower bounds",
        &["ε", "instance", "bound", "mean ratio", "max ratio"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        // --- Small: LP-certified ---
        let ratios: Vec<f64> = (0..scale.seeds)
            .map(|seed| {
                let tree = topo::star(2, 2);
                let spec = WorkloadSpec {
                    n: scale.n_jobs_lp,
                    arrivals: ArrivalProcess::Poisson { rate: 1.0 },
                    sizes: SizeDist::Uniform { lo: 1.0, hi: 3.0 },
                    unrelated: None,
                };
                let inst = spec.instance(&tree, seed).unwrap();
                let run = run_general(&inst, eps).unwrap();
                let alg = total_flow(&inst, &run.tree_outcome);
                let lb = lp_lower_bound(
                    &inst,
                    &SpeedProfile::unit(),
                    LpGrid::auto(&inst, scale.lp_steps),
                )
                .expect("feasible grid");
                alg / lb
            })
            .collect();
        table.push_row(vec![
            num(eps),
            "star(2,2), tiny".into(),
            "LP*/2".into(),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
        ]);

        // --- Large: combinatorial bound ---
        let ratios: Vec<f64> = (0..scale.seeds)
            .map(|seed| {
                let tree = topo::fat_tree(3, 2, 2);
                let spec = WorkloadSpec::poisson_identical(
                    scale.n_jobs,
                    0.7,
                    SizeDist::PowerOfBase { base: 2.0, max_k: 4 },
                    &tree,
                );
                let inst = spec.instance(&tree, 100 + seed).unwrap();
                let run = run_general(&inst, eps).unwrap();
                let alg = total_flow(&inst, &run.tree_outcome);
                alg / combined_bound(&inst, 1.0)
            })
            .collect();
        table.push_row(vec![
            num(eps),
            "fat-tree(3,2,2)".into(),
            "max(η, pooled-SRPT)".into(),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
        ]);
    }
    table.with_note(
        "Ratios are ALG/(OPT lower bound), so they over-state the true competitive \
         ratio. Theorem 1 permits O(1/ε⁷); measured constants should be far smaller \
         and shrink as ε grows.",
    )
}

/// **E2 — Theorem 2.** Unrelated endpoints: greedy-unrelated under a
/// uniform speed sweep crossing the theorem's `2+ε` threshold.
pub fn e2_unrelated_speed_sweep(scale: Scale) -> Table {
    let mut table = Table::new(
        "E2 — Theorem 2: unrelated endpoints, speed sweep across 2+ε",
        &["speed s", "mean flow (greedy)", "ratio vs bound", "max ratio"],
    );
    let cells: Vec<(f64, Vec<(f64, f64)>)> = [1.0f64, 1.5, 2.0, 2.5, 3.0]
        .into_iter()
        .map(|s| {
            let per_seed: Vec<(f64, f64)> = (0..scale.seeds)
                .map(|seed| {
                    let tree = topo::fat_tree(2, 2, 2);
                    let spec = WorkloadSpec {
                        n: scale.n_jobs / 2,
                        arrivals: ArrivalProcess::Poisson { rate: 1.2 },
                        sizes: SizeDist::Uniform { lo: 1.0, hi: 4.0 },
                        unrelated: Some(UnrelatedModel::Affinity {
                            p_fast: 0.4,
                            slow_factor: 6.0,
                        }),
                    };
                    let inst = spec.instance(&tree, 200 + seed).unwrap();
                    let combo = PolicyCombo {
                        node: NodePolicyKind::Sjf,
                        assign: AssignKind::GreedyUnrelated(0.5),
                    };
                    let flow = combo.total_flow(&inst, &SpeedProfile::Uniform(s));
                    let lb = combined_bound(&inst, 1.0);
                    (flow / inst.n() as f64, flow / lb)
                })
                .collect();
            (s, per_seed)
        })
        .collect();
    for (s, per_seed) in cells {
        let flows: Vec<f64> = per_seed.iter().map(|x| x.0).collect();
        let ratios: Vec<f64> = per_seed.iter().map(|x| x.1).collect();
        table.push_row(vec![
            num(s),
            num(stats::mean(&flows)),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
        ]);
    }
    table.with_note(
        "Theorem 2 guarantees competitiveness at speed 2+ε. The ratio column should \
         drop steeply up to s≈2 and flatten beyond — the theorem's crossover.",
    )
}

/// **E6 — Theorem 4.** The broomstick reduction's optimum gap:
/// an upper estimate of `OPT_{T'}` (best of a policy basket, at the
/// theorem's augmented speeds) against a lower bound on `OPT_T`
/// (LP-certified on small instances).
pub fn e6_broomstick_opt_gap(scale: Scale) -> Table {
    let mut table = Table::new(
        "E6 — Theorem 4: OPT on the broomstick vs OPT on the tree",
        &["ε", "tree", "mean OPT_T'/OPT_T (≤)", "max"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        let ratios: Vec<f64> = (0..scale.seeds)
            .map(|seed| {
                let mut rng = {
                    use rand::SeedableRng;
                    rand_chacha::ChaCha8Rng::seed_from_u64(300 + seed)
                };
                let tree = topo::random_tree(&mut rng, 4, 3);
                let spec = WorkloadSpec {
                    n: scale.n_jobs_lp,
                    arrivals: ArrivalProcess::Poisson { rate: 1.0 },
                    sizes: SizeDist::Uniform { lo: 1.0, hi: 3.0 },
                    unrelated: None,
                };
                let inst = spec.instance(&tree, 300 + seed).unwrap();
                let bs = Broomstick::reduce(&tree);
                let prime = bs.map_instance(&inst).unwrap();
                // Upper estimate of OPT_{T'} at the theorem's speeds.
                let upper = crate::runner::best_of_basket(
                    &prime,
                    &SpeedProfile::paper_identical(eps),
                    eps,
                );
                // Lower bound on OPT_T at unit speeds.
                let lower = lp_lower_bound(
                    &inst,
                    &SpeedProfile::unit(),
                    LpGrid::auto(&inst, scale.lp_steps),
                )
                .expect("feasible grid");
                upper / lower
            })
            .collect();
        table.push_row(vec![
            num(eps),
            "random(4,3)".into(),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
        ]);
    }
    table.with_note(
        "Theorem 4: OPT_{T'} ≤ O(1/ε³)·OPT_T under the layered augmentation. The \
         column is an upper estimate of that ratio (best-policy upper / LP lower); \
         it must stay bounded and shrink as ε grows.",
    )
}

/// **E10 — the headline sweep.** Mean flow time of the paper's
/// algorithm against congestion-blind and load-only baselines, across
/// a uniform speed sweep — the "who wins, where is the crossover"
/// picture a systems evaluation would lead with.
pub fn e10_policy_sweep(scale: Scale) -> Table {
    let combos: Vec<(String, PolicyCombo)> = vec![
        (
            "sjf+greedy (paper)".into(),
            PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::GreedyIdentical(0.5) },
        ),
        (
            "sjf+closest".into(),
            PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::Closest },
        ),
        (
            "sjf+random".into(),
            PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::Random(7) },
        ),
        (
            "sjf+least-volume".into(),
            PolicyCombo { node: NodePolicyKind::Sjf, assign: AssignKind::LeastVolume },
        ),
        (
            "fifo+greedy".into(),
            PolicyCombo { node: NodePolicyKind::Fifo, assign: AssignKind::GreedyIdentical(0.5) },
        ),
        (
            "ljf+least-volume".into(),
            PolicyCombo { node: NodePolicyKind::Ljf, assign: AssignKind::LeastVolume },
        ),
    ];
    let speeds = [1.0f64, 1.25, 1.5, 2.0, 3.0];
    let mut headers: Vec<&str> = vec!["policy"];
    let speed_labels: Vec<String> = speeds.iter().map(|s| format!("s={s}")).collect();
    headers.extend(speed_labels.iter().map(String::as_str));
    let mut table = Table::new(
        "E10 — mean flow time by policy and uniform speed (fat-tree, Poisson ρ≈0.85, Pareto-ish sizes)",
        &headers,
    );
    let rows: Vec<Vec<String>> = combos
        .iter()
        .map(|(label, combo)| {
            let mut row = vec![label.clone()];
            for &s in &speeds {
                let flows: Vec<f64> = (0..scale.seeds)
                    .map(|seed| {
                        let tree = topo::fat_tree(3, 2, 2);
                        let spec = WorkloadSpec::poisson_identical(
                            scale.n_jobs,
                            0.85,
                            SizeDist::Bimodal { small: 1.0, large: 16.0, p_large: 0.12 },
                            &tree,
                        );
                        let inst = spec.instance(&tree, 400 + seed).unwrap();
                        combo.total_flow(&inst, &SpeedProfile::Uniform(s)) / inst.n() as f64
                    })
                    .collect();
                row.push(num(stats::mean(&flows)));
            }
            row
        })
        .collect();
    for row in rows {
        table.push_row(row);
    }
    table.with_note(
        "Expected shape: the paper's sjf+greedy dominates at every speed; closest \
         (congestion-blind) and ljf (anti-SJF) degrade sharply at s=1 and recover \
         only with large augmentation.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_runs_and_ratios_are_sane() {
        let t = e1_identical_competitive(Scale::quick());
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            // ALG runs with the paper's speed augmentation while the
            // bound is against a unit-speed adversary, so ratios below 1
            // are legitimate — but collapse or blow-up is a bug.
            let mean: f64 = row[3].parse().unwrap();
            assert!(mean > 0.05, "ratio collapsed: {row:?}");
            assert!(mean < 60.0, "ratio blew up: {row:?}");
        }
    }

    #[test]
    fn e2_ratio_improves_with_speed() {
        let t = e2_unrelated_speed_sweep(Scale::quick());
        let first: f64 = t.rows.first().unwrap()[2].parse().unwrap();
        let last: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(last <= first, "more speed must not hurt: {first} -> {last}");
    }

    #[test]
    fn e10_paper_policy_wins_at_unit_speed() {
        let t = e10_policy_sweep(Scale::quick());
        let get = |name: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[0].starts_with(name))
                .unwrap()[1]
                .parse()
                .unwrap()
        };
        let greedy = get("sjf+greedy");
        let ljf = get("ljf");
        assert!(
            greedy <= ljf * 1.05,
            "paper policy should beat LJF at s=1: {greedy} vs {ljf}"
        );
    }
}
