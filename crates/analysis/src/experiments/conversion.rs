//! Objective-conversion and engine experiments: E9 (Theorem 3),
//! E11 (engine scaling), E12 (the packetized extension).

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::SpeedProfile;
use bct_sim::packet::run_packetized;
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use std::time::Instant;

/// **E9 — Theorem 3.** Integral vs fractional flow time of the same
/// SJF runs across load: the conversion factor the theorem bounds by
/// `O(1/ε)` at `(1+ε)` extra speed.
pub fn e9_fractional_vs_integral(scale: Scale) -> Table {
    let mut table = Table::new(
        "E9 — Theorem 3: integral / fractional flow time across load",
        &["load ρ", "speed", "mean integral/fractional"],
    );
    for &rho in &[0.5f64, 0.7, 0.9] {
        for &s in &[1.0f64, 1.25, 1.5] {
            let ratios: Vec<f64> = (0..scale.seeds)
                .map(|seed| {
                    let tree = topo::fat_tree(2, 2, 2);
                    let inst = WorkloadSpec::poisson_identical(
                        scale.n_jobs,
                        rho,
                        SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                        &tree,
                    )
                    .instance(&tree, 1000 + seed)
                    .unwrap();
                    let combo = PolicyCombo {
                        node: NodePolicyKind::Sjf,
                        assign: AssignKind::GreedyIdentical(0.5),
                    };
                    let out = combo.run(&inst, &SpeedProfile::Uniform(s)).unwrap();
                    let releases: Vec<f64> =
                        inst.jobs().iter().map(|j| j.release).collect();
                    out.total_flow(&releases) / out.fractional_flow
                })
                .collect();
            table.push_row(vec![num(rho), num(s), num(stats::mean(&ratios))]);
        }
    }
    table.with_note(
        "Fractional flow lower-bounds integral flow (ratio ≥ 1). Theorem 3 says \
         SJF converts fractional guarantees to integral ones at an O(1/ε) factor \
         with (1+ε) extra speed — the ratio should stay a small constant and \
         shrink with speed.",
    )
}

/// **E11 — engine scaling.** Events processed and wall-clock throughput
/// of the event engine across instance sizes.
pub fn e11_engine_scaling(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11 — event-engine scaling (sjf+greedy, fat-trees)",
        &["nodes", "jobs", "events", "wall ms", "events/sec"],
    );
    for &(pods, jobs_mult) in &[(2usize, 1usize), (4, 2), (6, 4)] {
        let tree = topo::fat_tree(pods, 2, 2);
        let n_jobs = scale.n_jobs * jobs_mult;
        let inst = WorkloadSpec::poisson_identical(
            n_jobs,
            0.8,
            SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
            &tree,
        )
        .instance(&tree, 1100)
        .unwrap();
        let combo = PolicyCombo {
            node: NodePolicyKind::Sjf,
            assign: AssignKind::GreedyIdentical(0.5),
        };
        // bct-lint: allow(d2) -- E11 reports wall-clock throughput in a display table; no simulated output depends on it
        let t0 = Instant::now();
        let out = combo.run(&inst, &SpeedProfile::Uniform(1.5)).unwrap();
        let wall = t0.elapsed().as_secs_f64();
        table.push_row(vec![
            tree.len().to_string(),
            n_jobs.to_string(),
            out.events.to_string(),
            num(wall * 1000.0),
            num(out.events as f64 / wall),
        ]);
    }
    table.with_note("Wall-clock numbers are indicative; criterion benches give rigorous ones.")
}

/// **E12 — the packetized extension.** Store-and-forward whole-job
/// routing vs unit-packet pipelining, holding the leaf assignments
/// fixed (the §2 claim: packetization removes interior congestion).
pub fn e12_packetized(scale: Scale) -> Table {
    let mut table = Table::new(
        "E12 — packetized routing vs store-and-forward (same assignments)",
        &["depth", "packet size", "mean flow ratio (packet/saf)", "max"],
    );
    for &depth in &[2usize, 4, 6] {
        for &ps in &[1.0f64, 0.25] {
            let ratios: Vec<f64> = (0..scale.seeds)
                .map(|seed| {
                    // All leaves at router-depth `depth` — every path has
                    // `depth − 1` interior hops to pipeline across.
                    let tree = topo::star(4, depth);
                    let inst = WorkloadSpec::poisson_identical(
                        scale.n_jobs / 2,
                        0.7,
                        SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                        &tree,
                    )
                    .instance(&tree, 1200 + seed)
                    .unwrap();
                    let combo = PolicyCombo {
                        node: NodePolicyKind::Sjf,
                        assign: AssignKind::GreedyIdentical(0.5),
                    };
                    let speeds = SpeedProfile::Uniform(1.5);
                    let out = combo.run(&inst, &speeds).unwrap();
                    let releases: Vec<f64> =
                        inst.jobs().iter().map(|j| j.release).collect();
                    let saf = out.total_flow(&releases);
                    let assignments: Vec<_> =
                        out.assignments.iter().map(|a| a.unwrap()).collect();
                    let pkt = run_packetized(&inst, &assignments, &speeds, ps);
                    pkt.total_flow / saf
                })
                .collect();
            table.push_row(vec![
                depth.to_string(),
                num(ps),
                num(stats::mean(&ratios)),
                num(stats::max(&ratios)),
            ]);
        }
    }
    table.with_note(
        "Ratios < 1 mean pipelining helps; the gain should grow with tree depth \
         (store-and-forward pays the full path delay per hop) and shrink with \
         packet size — the paper's \"effectively negated\" interior congestion.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_ratios_at_least_one() {
        let t = e9_fractional_vs_integral(Scale::quick());
        for row in &t.rows {
            let r: f64 = row[2].parse().unwrap();
            assert!(r >= 1.0 - 1e-9, "integral ≥ fractional: {row:?}");
            assert!(r < 50.0, "conversion factor should be modest: {row:?}");
        }
    }

    #[test]
    fn e11_reports_throughput() {
        let t = e11_engine_scaling(Scale::quick());
        assert_eq!(t.rows.len(), 3);
        for row in &t.rows {
            let eps: f64 = row[4].parse().unwrap();
            assert!(eps > 1000.0, "engine should exceed 1k events/sec: {row:?}");
        }
    }

    #[test]
    fn e12_packetization_helps_deep_trees() {
        let t = e12_packetized(Scale::quick());
        for row in &t.rows {
            let r: f64 = row[2].parse().unwrap();
            assert!(r <= 1.05, "packetization should not hurt much: {row:?}");
        }
        // Deepest tree, smallest packets: a clear win.
        let deep_small: f64 = t.rows.last().unwrap()[2].parse().unwrap();
        assert!(deep_small < 1.0, "expected a pipelining win: {deep_small}");
    }
}
