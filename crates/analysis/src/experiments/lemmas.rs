//! Structural-lemma experiments: E3 (Lemma 1), E4 (Lemma 2),
//! E5 (Lemma 3), E7 (Lemma 8), E8 (Lemmas 5–7, dual fitting).

use super::Scale;
use crate::stats;
use crate::table::{num, Table};
use bct_core::{Instance, JobId, NodeId, SpeedProfile};
use bct_sched::bounds::{lemma1_pairs, lemma2_available_volume, lemma2_bound, phi};
use bct_sched::{run_general, GreedyIdentical};
use bct_sim::policy::Probe;
use bct_sim::{SimConfig, SimView, Simulation};
use bct_workloads::jobs::{ArrivalProcess, SizeDist, UnrelatedModel, WorkloadSpec};
use bct_workloads::topo;

/// The Lemma-1/2/3 speed setting: unit speed at the root-adjacent
/// layer, `1+ε` below it.
fn lemma_speeds(eps: f64) -> SpeedProfile {
    SpeedProfile::Layered {
        root_adjacent: 1.0,
        deeper: 1.0 + eps,
    }
}

fn heavy_instance(scale: Scale, seed: u64) -> Instance {
    let tree = topo::broomstick(2, 4, 2);
    WorkloadSpec::poisson_identical(
        scale.n_jobs,
        0.9,
        SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
        &tree,
    )
    .instance(&tree, seed)
    .unwrap()
}

/// **E3 — Lemma 1.** Measured interior waiting time (after leaving the
/// entry node, until the last identical node) against the proved
/// `(6/ε²)·d_v·p_j`, under the lemma's speed setting.
pub fn e3_lemma1_interior_wait(scale: Scale) -> Table {
    let mut table = Table::new(
        "E3 — Lemma 1: interior wait / (6/ε²·d_v·p_j), must stay ≤ 1",
        &["ε", "jobs", "mean ratio", "p99 ratio", "max ratio"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        let ratios: Vec<f64> = (0..scale.seeds)
            .flat_map(|seed| {
                let inst = heavy_instance(scale, 500 + seed);
                let mut g = GreedyIdentical::new(eps);
                let out = Simulation::run(
                    &inst,
                    &bct_policies::Sjf::new(),
                    &mut g,
                    &mut bct_sim::policy::NoProbe,
                    &SimConfig::with_speeds(lemma_speeds(eps)),
                )
                .unwrap();
                lemma1_pairs(&inst, eps, &out.assignments, &out.hop_finishes)
                    .into_iter()
                    .map(|(m, b)| m / b)
                    .collect::<Vec<_>>()
            })
            .collect();
        table.push_row(vec![
            num(eps),
            ratios.len().to_string(),
            num(stats::mean(&ratios)),
            num(stats::percentile(&ratios, 99.0)),
            num(stats::max(&ratios)),
        ]);
    }
    table.with_note(
        "Lemma 1 proves the ratio ≤ 1 whenever non-entry nodes run at ≥ 1+ε. \
         Small means show how loose the 6/ε² constant is in practice.",
    )
}

struct Lemma2Probe {
    eps: f64,
    ratios: Vec<f64>,
}

impl Lemma2Probe {
    fn sample(&mut self, view: &SimView<'_>, j: JobId) {
        let inst = view.instance();
        let tree = inst.tree();
        let path = view.path(j);
        let p_j = inst.job(j).size;
        let bound = lemma2_bound(self.eps, p_j);
        for (k, &v) in path.iter().enumerate() {
            // Lemma 2 covers identical nodes not adjacent to the root
            // that the job still needs.
            if k < view.hop(j) || tree.depth(v) <= 1 || tree.is_leaf(v) {
                continue;
            }
            let vol = lemma2_available_volume(view, v, j);
            self.ratios.push(vol / bound);
        }
    }
}

impl Probe for Lemma2Probe {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        self.sample(view, job);
    }
    fn on_hop_complete(&mut self, view: &SimView<'_>, job: JobId, _node: NodeId) {
        if view.completion(job).is_none() {
            self.sample(view, job);
        }
    }
}

/// **E4 — Lemma 2.** The available higher-priority volume at interior
/// nodes, sampled at every arrival and hop move, against `(2/ε)·p_j`.
pub fn e4_lemma2_available_volume(scale: Scale) -> Table {
    let mut table = Table::new(
        "E4 — Lemma 2: available higher-priority volume / (2/ε·p_j), must stay ≤ 1",
        &["ε", "samples", "mean ratio", "max ratio"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        let ratios: Vec<f64> = (0..scale.seeds)
            .flat_map(|seed| {
                let inst = heavy_instance(scale, 600 + seed);
                let mut probe = Lemma2Probe { eps, ratios: Vec::new() };
                let mut g = GreedyIdentical::new(eps);
                Simulation::run(
                    &inst,
                    &bct_policies::Sjf::new(),
                    &mut g,
                    &mut probe,
                    &SimConfig::with_speeds(lemma_speeds(eps)),
                )
                .unwrap();
                probe.ratios
            })
            .collect();
        table.push_row(vec![
            num(eps),
            ratios.len().to_string(),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
        ]);
    }
    table.with_note("Lemma 2's invariant, sampled live at every dispatch and hop move.")
}

struct PhiProbe {
    last_job: JobId,
    eps: f64,
    /// (job, t₀, Φ_j(t₀)) captured at the final arrival.
    snapshots: Vec<(JobId, f64, f64)>,
}

impl Probe for PhiProbe {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        if job != self.last_job {
            return;
        }
        let n = view.instance().n() as u32;
        for j in (0..n).map(JobId) {
            // Lemma 3 applies to jobs available on a non-root-adjacent
            // identical node.
            if !view.released(j) || view.completion(j).is_some() || view.hop(j) == 0 {
                continue;
            }
            if let Some(p) = phi(view, self.eps, j) {
                self.snapshots.push((j, view.now(), p));
            }
        }
    }
}

/// **E5 — Lemma 3.** The potential `Φ_j` evaluated at the final
/// arrival (after which "no more jobs arrive" holds) versus each job's
/// realized remaining time to clear its identical nodes.
pub fn e5_lemma3_potential(scale: Scale) -> Table {
    let mut table = Table::new(
        "E5 — Lemma 3: realized remaining interior time / Φ_j, must stay ≤ 1",
        &["ε", "jobs checked", "mean ratio", "max ratio", "violations"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        let ratios: Vec<f64> = (0..scale.seeds)
            .flat_map(|seed| {
                let inst = heavy_instance(scale, 700 + seed);
                let last_job = JobId(inst.n() as u32 - 1);
                let mut probe = PhiProbe { last_job, eps, snapshots: Vec::new() };
                let mut g = GreedyIdentical::new(eps);
                let out = Simulation::run(
                    &inst,
                    &bct_policies::Sjf::new(),
                    &mut g,
                    &mut probe,
                    &SimConfig::with_speeds(lemma_speeds(eps)),
                )
                .unwrap();
                probe
                    .snapshots
                    .into_iter()
                    .map(|(j, t0, phi_val)| {
                        // Last identical node = the leaf (identical setting).
                        let finish = *out.hop_finishes[j.as_usize()].last().unwrap();
                        (finish - t0) / phi_val
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let violations = ratios.iter().filter(|&&r| r > 1.0 + 1e-6).count();
        table.push_row(vec![
            num(eps),
            ratios.len().to_string(),
            num(stats::mean(&ratios)),
            num(stats::max(&ratios)),
            violations.to_string(),
        ]);
    }
    table.with_note(
        "Φ_j is computed from live state at the last arrival; afterwards no job \
         arrives, so Lemma 3 says the realized remaining time never exceeds Φ_j.",
    )
}

/// A named, seedable topology family.
type TreeFamily = (&'static str, fn(u64) -> bct_core::Tree);

/// **E7 — Lemma 8.** Mirroring the broomstick schedule back to the
/// tree: per-job completion dominance and the aggregate improvement.
pub fn e7_lemma8_mirroring(scale: Scale) -> Table {
    let mut table = Table::new(
        "E7 — Lemma 8: flow on T vs flow on T' (mirrored schedule)",
        &["tree", "seeds", "violations", "mean flow(T)/flow(T')"],
    );
    let families: [TreeFamily; 3] = [
        ("fat-tree(2,2,2)", |_| topo::fat_tree(2, 2, 2)),
        ("random(6,6)", |seed| {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            topo::random_tree(&mut rng, 6, 6)
        }),
        ("caterpillar(4,2)", |_| topo::caterpillar(4, 2)),
    ];
    for (label, mk) in families {
        let results: Vec<(usize, f64)> = (0..scale.seeds)
            .map(|seed| {
                let tree = mk(seed);
                let inst = WorkloadSpec {
                    n: scale.n_jobs / 2,
                    arrivals: ArrivalProcess::Poisson { rate: 1.0 },
                    sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                    unrelated: None,
                }
                .instance(&tree, 800 + seed)
                .unwrap();
                let run = run_general(&inst, 0.5).unwrap();
                let viol = run.lemma8_violations(&inst).len();
                let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
                let ft = run.tree_outcome.total_flow(&releases);
                let fp = run.prime_outcome.total_flow(&releases);
                (viol, ft / fp)
            })
            .collect();
        let total_viol: usize = results.iter().map(|r| r.0).sum();
        let ratios: Vec<f64> = results.iter().map(|r| r.1).collect();
        table.push_row(vec![
            label.into(),
            scale.seeds.to_string(),
            total_viol.to_string(),
            num(stats::mean(&ratios)),
        ]);
    }
    table.with_note(
        "Lemma 8: every job finishes in T no later than in T', so violations must \
         be 0 and the flow ratio ≤ 1 (how much the real tree beats its broomstick).",
    )
}

/// **E8 — Lemmas 5–7.** The dual-fitting verifier: constraint checks
/// over every (job, node, event-time) sample plus the objective-side
/// identities.
pub fn e8_dual_fitting(scale: Scale) -> Table {
    let mut table = Table::new(
        "E8 — Lemmas 5-7: dual feasibility and objective on broomsticks",
        &["setting", "ε", "runs", "samples", "violations", "mean dual/ALG"],
    );
    // Identical (§3.5).
    let reports: Vec<_> = (0..scale.seeds)
        .map(|seed| {
            let tree = topo::broomstick(2, 3, 1);
            let inst = WorkloadSpec {
                n: scale.n_jobs / 4,
                arrivals: ArrivalProcess::Poisson { rate: 0.8 },
                sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 2 },
                unrelated: None,
            }
            .instance(&tree, 900 + seed)
            .unwrap();
            bct_lp::dualfit::verify(&inst, 0.25).unwrap()
        })
        .collect();
    push_dualfit_rows(&mut table, "identical", 0.25, &reports);

    // Unrelated (§3.6).
    let reports: Vec<_> = (0..scale.seeds)
        .map(|seed| {
            let tree = topo::broomstick(2, 3, 1);
            let inst = WorkloadSpec {
                n: scale.n_jobs / 4,
                arrivals: ArrivalProcess::Poisson { rate: 0.8 },
                sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 2 },
                unrelated: Some(UnrelatedModel::UniformFactor { lo: 0.5, hi: 2.0 }),
            }
            .instance(&tree, 950 + seed)
            .unwrap();
            bct_lp::dualfit::verify(&inst, 0.125).unwrap()
        })
        .collect();
    push_dualfit_rows(&mut table, "unrelated", 0.125, &reports);

    table.with_note(
        "Replays the paper's explicit dual construction on real runs. Zero \
         violations = Lemmas 5-7 hold on these workloads; dual/ALG is the \
         certified fraction of the algorithm's cost recovered by the dual.",
    )
}

fn push_dualfit_rows(
    table: &mut Table,
    setting: &str,
    eps: f64,
    reports: &[bct_lp::dualfit::DualFitReport],
) {
    let samples: usize = reports.iter().map(|r| r.samples).sum();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    let ratios: Vec<f64> = reports.iter().map(|r| r.ratio).collect();
    table.push_row(vec![
        setting.into(),
        num(eps),
        reports.len().to_string(),
        samples.to_string(),
        violations.to_string(),
        num(stats::mean(&ratios)),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_ratios_le(table: &Table, col: usize, limit: f64) {
        for row in &table.rows {
            let v: f64 = row[col].parse().unwrap();
            assert!(v <= limit, "row {row:?} exceeds {limit}");
        }
    }

    #[test]
    fn e3_lemma1_holds() {
        let t = e3_lemma1_interior_wait(Scale::quick());
        all_ratios_le(&t, 4, 1.0 + 1e-6); // max ratio column
    }

    #[test]
    fn e4_lemma2_holds() {
        let t = e4_lemma2_available_volume(Scale::quick());
        all_ratios_le(&t, 3, 1.0 + 1e-6);
    }

    #[test]
    fn e5_lemma3_holds() {
        let t = e5_lemma3_potential(Scale::quick());
        for row in &t.rows {
            assert_eq!(row[4], "0", "Φ violations: {row:?}");
        }
    }

    #[test]
    fn e7_lemma8_holds() {
        let t = e7_lemma8_mirroring(Scale::quick());
        for row in &t.rows {
            assert_eq!(row[2], "0", "Lemma 8 violations: {row:?}");
            let ratio: f64 = row[3].parse().unwrap();
            assert!(ratio <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn e8_dual_fitting_feasible() {
        let t = e8_dual_fitting(Scale::quick());
        for row in &t.rows {
            assert_eq!(row[4], "0", "dual violations: {row:?}");
        }
    }
}
