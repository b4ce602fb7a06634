//! E18 — weighted flow time (the objective of the paper's
//! machine-scheduling lineage, refs \[3,13\]).
//!
//! The paper's results are unweighted; its references prove weighted
//! guarantees on machines without networks. This experiment measures
//! how far plain SJF (weight-blind) falls behind HDF (`p/w` priority,
//! the weighted SJF analogue) on the *networked* model, as weight skew
//! grows — the empirical baseline for extending the paper's analysis
//! to weights.

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::SpeedProfile;
use bct_workloads::jobs::{with_random_weights, SizeDist, WorkloadSpec};
use bct_workloads::topo;

/// **E18 — weighted flow.** `Σ w_j F_j` under SJF vs HDF routing+leaf
/// scheduling as the weight range widens.
pub fn e18_weighted_flow(scale: Scale) -> Table {
    let mut table = Table::new(
        "E18 — weighted flow time: SJF (weight-blind) vs HDF (p/w priority)",
        &["weight range", "wflow sjf", "wflow hdf", "sjf/hdf"],
    );
    for &(lo, hi) in &[(1.0f64, 1.0f64), (1.0, 4.0), (1.0, 16.0)] {
        let pairs: Vec<(f64, f64)> = (0..scale.seeds)
            .map(|seed| {
                let tree = topo::fat_tree(2, 2, 2);
                let base = WorkloadSpec::poisson_identical(
                    scale.n_jobs,
                    0.85,
                    SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                    &tree,
                )
                .instance(&tree, 1900 + seed)
                .unwrap();
                let inst = with_random_weights(&base, lo, hi, 2000 + seed);
                let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
                let weights: Vec<f64> = inst.jobs().iter().map(|j| j.weight).collect();
                let speeds = SpeedProfile::Uniform(1.25);
                let run = |node| {
                    PolicyCombo { node, assign: AssignKind::GreedyIdentical(0.5) }
                        .run(&inst, &speeds)
                        .unwrap()
                        .weighted_total_flow(&releases, &weights)
                        / inst.n() as f64
                };
                (run(NodePolicyKind::Sjf), run(NodePolicyKind::Hdf))
            })
            .collect();
        let sjf: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let hdf: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        table.push_row(vec![
            format!("[{lo}, {hi}]"),
            num(stats::mean(&sjf)),
            num(stats::mean(&hdf)),
            num(stats::mean(&sjf) / stats::mean(&hdf)),
        ]);
    }
    table.with_note(
        "At unit weights HDF ≡ SJF (ratio 1). Under skew the two trade within a \
         few percent — and SJF often *wins*: on the networked model a heavy job \
         promoted by HDF occupies whole routers and convoys everyone behind it, \
         unlike on a single machine where HDF's local exchange argument applies. \
         Evidence that weighted flow on trees needs genuinely new ideas, not \
         just the single-machine priority rule.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_unit_weights_tie_and_skew_favors_hdf() {
        let t = e18_weighted_flow(Scale::quick());
        let unit_ratio: f64 = t.rows[0][3].parse().unwrap();
        assert!((unit_ratio - 1.0).abs() < 1e-6, "HDF == SJF at w=1: {unit_ratio}");
        // Under skew the two rules trade within a modest band — neither
        // collapses (the interesting, honest finding is that HDF does
        // NOT automatically win on the networked model).
        for row in &t.rows[1..] {
            let ratio: f64 = row[3].parse().unwrap();
            assert!(
                (0.7..1.4).contains(&ratio),
                "SJF/HDF should stay comparable: {row:?}"
            );
        }
    }
}
