//! Differential tests: the aggregate-backed `O(log)` dispatch scoring
//! — the one path production dispatch takes — must agree with the scan
//! oracle (`bct_policies::prio::naive`), and each production leaf
//! decision — which scores an entry node once for all the leaves below
//! it — must pick the leaf a per-leaf oracle picks.
//!
//! The exact-equality suites draw every quantity from dyadic rationals
//! — power-of-two sizes, quarter-integer releases, unit speeds — so all
//! float sums are exact in any association order and the two paths must
//! match *bit for bit*, including the greedy `argmin` leaf choice. A
//! separate tolerance suite uses arbitrary sizes, where the two
//! summation orders may differ in the last bits.

use bct_core::tree::TreeBuilder;
use bct_core::{Instance, Job, JobId, NodeId, SpeedProfile, Tree, TreeMutation};
use bct_policies::prio::{self, naive};
use bct_policies::{LeastVolume, MinEta, Sjf};
use bct_sched::cost::{f_prime_term, f_term};
use bct_sched::{GreedyIdentical, GreedyUnrelated};
use bct_sim::policy::{NoProbe, Probe};
use bct_sim::{AssignmentPolicy, SimConfig, SimView, Simulation, TopoMutation};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random tree: 2–3 root children, random interior growth, a machine
/// under every interior node.
fn random_tree(rng: &mut ChaCha8Rng) -> Tree {
    let mut b = TreeBuilder::new();
    let mut interior = Vec::new();
    for _ in 0..rng.gen_range(2..=3) {
        let r = b.add_child(NodeId::ROOT);
        interior.push(r);
        for _ in 0..rng.gen_range(1..=4) {
            let parent = interior[rng.gen_range(0..interior.len())];
            interior.push(b.add_child(parent));
        }
    }
    let snapshot = interior.clone();
    for v in snapshot {
        b.add_child(v);
    }
    b.build().unwrap()
}

/// Random instance with dyadic data when `dyadic` is set (exact float
/// sums), arbitrary sizes otherwise.
fn random_instance(seed: u64, unrelated: bool, dyadic: bool) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = random_tree(&mut rng);
    let n_leaves = t.num_leaves();
    let n = rng.gen_range(8..=30);
    let mut release = 0.0;
    let size = |rng: &mut ChaCha8Rng| -> f64 {
        if dyadic {
            [0.5, 1.0, 2.0, 4.0, 8.0][rng.gen_range(0..5)]
        } else {
            rng.gen_range(0.1..10.0)
        }
    };
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            release += if dyadic {
                0.25 * rng.gen_range(0..8) as f64
            } else {
                rng.gen_range(0.0..2.0)
            };
            let s = size(&mut rng);
            if unrelated {
                let sizes: Vec<f64> = (0..n_leaves).map(|_| size(&mut rng)).collect();
                Job::unrelated(i as u32, release, s, sizes)
            } else {
                Job::identical(i as u32, release, s)
            }
        })
        .collect();
    Instance::new(t, jobs).unwrap()
}

/// First-strict-minimum argmin over the leaves — the greedy rules'
/// tie-breaking.
fn argmin_leaf(leaves: &[NodeId], mut score: impl FnMut(NodeId) -> f64) -> NodeId {
    let mut best = leaves[0];
    let mut best_score = f64::INFINITY;
    for &v in leaves {
        let s = score(v);
        if s < best_score {
            best_score = s;
            best = v;
        }
    }
    best
}

/// `F(j,v)` at entry node `r`, assembled purely from scan-oracle
/// queries with `cost.rs`'s formula and float operations.
fn naive_f(view: &SimView<'_>, j: JobId, r: NodeId) -> f64 {
    let p_r = view.instance().p(j, r);
    naive::s_volume_excl(view, r, j) + p_r + p_r * naive::count_larger(view, r, j) as f64
}

/// `F'(j,v)` at leaf `v`, from scan-oracle queries.
fn naive_f_prime(view: &SimView<'_>, j: JobId, v: NodeId) -> f64 {
    let p_v = view.instance().p(j, v);
    naive::s_volume_excl(view, v, j) + p_v + p_v * naive::frac_count_larger(view, v, j)
}

/// At every arrival and hop completion, compare the aggregate-backed
/// queries against the scan oracle for the triggering job at every
/// leaf.
struct DiffProbe {
    exact: bool,
    checks: usize,
}

impl DiffProbe {
    fn close(&self, a: f64, b: f64) -> bool {
        if self.exact {
            a == b
        } else {
            (a - b).abs() <= 1e-9 * (1.0 + b.abs())
        }
    }

    fn check(&mut self, view: &SimView<'_>, j: JobId) {
        let inst = view.instance();
        for &leaf in inst.tree().leaves() {
            let entry = inst.entry_node(j, leaf);
            for v in [entry, leaf] {
                let (fv, nv) = (
                    prio::s_volume_excl(view, v, j),
                    naive::s_volume_excl(view, v, j),
                );
                assert!(self.close(fv, nv), "s_volume at {v}: {fv} vs {nv}");
                assert_eq!(
                    prio::count_larger(view, v, j),
                    naive::count_larger(view, v, j),
                    "count_larger at {v}"
                );
                let (ff, nf) = (
                    prio::frac_count_larger(view, v, j),
                    naive::frac_count_larger(view, v, j),
                );
                assert!(self.close(ff, nf), "frac_larger at {v}: {ff} vs {nf}");
            }
            // The composed cost terms, against oracles assembled purely
            // from naive queries.
            let (fast_f, naive_f) = (f_term(view, j, leaf), naive_f(view, j, entry));
            assert!(self.close(fast_f, naive_f), "F: {fast_f} vs {naive_f}");
            let (fast_fp, naive_fp) = (f_prime_term(view, j, leaf), naive_f_prime(view, j, leaf));
            assert!(self.close(fast_fp, naive_fp), "F': {fast_fp} vs {naive_fp}");
            self.checks += 1;
        }
        // In the exact regime the argmin choices must coincide too.
        if self.exact {
            let leaves = inst.tree().leaves();
            let fast_best = argmin_leaf(leaves, |v| f_term(view, j, v));
            let naive_best = argmin_leaf(leaves, |v| naive_f(view, j, inst.entry_node(j, v)));
            assert_eq!(fast_best, naive_best, "best leaf diverged for {j}");
        }
    }
}

impl Probe for DiffProbe {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        self.check(view, job);
    }
    fn on_hop_complete(&mut self, view: &SimView<'_>, job: JobId, _node: NodeId) {
        self.check(view, job);
    }
}

/// Greedy assignment that re-queries through the aggregate-backed cost
/// terms — drives the run into the states both paths score.
struct GreedyByF;

impl AssignmentPolicy for GreedyByF {
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        argmin_leaf(view.tree().leaves(), |v| {
            f_term(view, job, v) + f_prime_term(view, job, v)
        })
    }
}

/// [`GreedyByF`] scored through the scan oracle alone, on a run that
/// maintains no aggregates.
struct GreedyByNaive;

impl AssignmentPolicy for GreedyByNaive {
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        argmin_leaf(view.tree().leaves(), |v| {
            naive_f(view, job, view.entry_node(job, v)) + naive_f_prime(view, job, v)
        })
    }
    fn needs_aggregates(&self) -> bool {
        false
    }
}

/// A production leaf-assignment rule, paired with a per-leaf oracle
/// that scores every leaf from scratch.
#[derive(Clone, Copy, Debug)]
enum Rule {
    Identical(GreedyIdentical),
    Unrelated(GreedyUnrelated),
    LeastVolume,
    MinEta,
}

impl Rule {
    /// Every production rule the sweeps and `bct serve` can dispatch
    /// with. Distance weight 0 makes every leaf under one entry node
    /// tie, so the first-strict-minimum rule decides.
    fn all() -> [Rule; 5] {
        [
            Rule::Identical(GreedyIdentical::new(1.0)),
            Rule::Identical(GreedyIdentical::new(1.0).with_distance_weight(0.0)),
            Rule::Unrelated(GreedyUnrelated::new(2.0)),
            Rule::LeastVolume,
            Rule::MinEta,
        ]
    }

    /// The production decision.
    fn decide(&self, view: &SimView<'_>, job: JobId) -> NodeId {
        match *self {
            Rule::Identical(mut g) => g.assign(view, job),
            Rule::Unrelated(mut g) => g.assign(view, job),
            Rule::LeastVolume => LeastVolume.assign(view, job),
            Rule::MinEta => MinEta.assign(view, job),
        }
    }

    /// The per-leaf oracle: the argmin of the public `score` for the
    /// greedy rules; for the baselines, their former `min_by` bodies,
    /// which rescore both sides of every comparison.
    fn oracle(&self, view: &SimView<'_>, job: JobId) -> NodeId {
        let leaves = view.tree().leaves();
        match self {
            Rule::Identical(g) => argmin_leaf(leaves, |v| g.score(view, job, v)),
            Rule::Unrelated(g) => argmin_leaf(leaves, |v| g.score(view, job, v)),
            Rule::LeastVolume => *view
                .tree()
                .leaves()
                .iter()
                .min_by(|&&a, &&b| {
                    let score = |v: NodeId| {
                        let entry = view.entry_node(job, v);
                        let vol_entry: f64 =
                            view.q(entry).map(|i| view.remaining_at(i, entry)).sum();
                        let vol_leaf: f64 = view.q(v).map(|i| view.remaining_at(i, v)).sum();
                        vol_entry + vol_leaf + view.eta_via(job, v)
                    };
                    score(a).partial_cmp(&score(b)).unwrap().then(a.cmp(&b))
                })
                .expect("tree has leaves"),
            Rule::MinEta => *view
                .tree()
                .leaves()
                .iter()
                .min_by(|&&a, &&b| {
                    view.eta_via(job, a)
                        .partial_cmp(&view.eta_via(job, b))
                        .unwrap()
                        .then(a.cmp(&b))
                })
                .expect("tree has leaves"),
        }
    }
}

/// Dispatches like `inner`, but first asks every production rule for
/// its decision on the same pre-dispatch state and asserts it equals
/// the rule's per-leaf oracle. Both sides perform the same float
/// operations on the same values, so they must agree on any data.
struct CheckDecisions {
    inner: GreedyByF,
    decisions: usize,
}

impl AssignmentPolicy for CheckDecisions {
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        for rule in Rule::all() {
            assert_eq!(
                rule.decide(view, job),
                rule.oracle(view, job),
                "{rule:?} diverged from its oracle for {job} at t={}",
                view.now()
            );
            self.decisions += 1;
        }
        self.inner.assign(view, job)
    }
}

/// Dispatches with a rule's per-leaf oracle — the reference a whole
/// run under the production rule is compared against.
struct OracleDispatch(Rule);

impl AssignmentPolicy for OracleDispatch {
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        self.0.oracle(view, job)
    }
}

/// Run `inst` under greedy dispatch, checking every query against the
/// scan oracle and every production decision against its per-leaf
/// oracle. Returns the number of per-leaf check sites and of checked
/// decisions.
fn run_diff(inst: &Instance, exact: bool) -> (usize, usize) {
    let cfg = SimConfig::with_speeds(SpeedProfile::unit());
    let mut probe = DiffProbe { exact, checks: 0 };
    let mut asg = CheckDecisions {
        inner: GreedyByF,
        decisions: 0,
    };
    Simulation::run(inst, &Sjf::new(), &mut asg, &mut probe, &cfg).unwrap();
    (probe.checks, asg.decisions)
}

/// Does some entry node own a non-contiguous run of `t`'s leaves (in
/// id order)? Then a decision refills its entry-node memo more than
/// `|R|` times.
fn entry_runs_interleave(t: &Tree) -> bool {
    let changes = t
        .leaves()
        .windows(2)
        .filter(|w| t.r_node(w[0]) != t.r_node(w[1]))
        .count();
    changes + 1 > t.root_adjacent().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dyadic data: the aggregate queries must agree with the scan
    /// oracle bit for bit.
    #[test]
    fn exact_agreement_on_dyadic_instances(seed in 0u64..5000, unrelated in any::<bool>()) {
        let inst = random_instance(seed, unrelated, true);
        let (checks, decisions) = run_diff(&inst, true);
        prop_assert!(checks > 0, "probe never fired");
        prop_assert_eq!(decisions, Rule::all().len() * inst.n());
    }

    /// Arbitrary floats: agreement within summation-order tolerance.
    #[test]
    fn tolerant_agreement_on_arbitrary_instances(seed in 0u64..5000, unrelated in any::<bool>()) {
        let inst = random_instance(seed, unrelated, false);
        let (checks, _) = run_diff(&inst, false);
        prop_assert!(checks > 0);
    }
}

/// A whole run dispatched through the aggregate queries must equal one
/// dispatched through the scan oracle on a run that maintains no
/// aggregates at all: the aggregates change query costs, never the
/// schedule.
#[test]
fn aggregates_never_change_the_schedule() {
    for seed in 0..20u64 {
        let inst = random_instance(seed, seed % 2 == 0, false);
        let cfg = SimConfig::with_speeds(SpeedProfile::unit());
        let run = |asg: &mut dyn AssignmentPolicy| {
            let out = Simulation::run(&inst, &Sjf::new(), asg, &mut NoProbe, &cfg).unwrap();
            (out.assignments, out.completions)
        };
        assert_eq!(run(&mut GreedyByF), run(&mut GreedyByNaive), "seed {seed}");
    }
}

/// The random trees above must exercise the entry-node memo's refill
/// path: most of them interleave the leaves of different entry nodes.
#[test]
fn random_trees_interleave_entry_nodes() {
    let seeds = 48u64;
    let interleaved = (0..seeds)
        .filter(|&seed| entry_runs_interleave(random_instance(seed, false, true).tree()))
        .count() as u64;
    assert!(
        2 * interleaved > seeds,
        "{interleaved}/{seeds} random trees interleave"
    );
}

/// Whole runs with leaves appended by `AddLeaf` mid-run — new ids land
/// at the end of the leaf list, out of entry-node order — must produce
/// the same assignments and completions under each production rule as
/// under its per-leaf oracle.
#[test]
fn production_rules_match_oracles_under_add_leaf() {
    let mut on_appended = 0;
    for seed in 0..12u64 {
        let inst = random_instance(seed, false, true);
        let entries = inst.tree().root_adjacent().to_vec();
        // Alternate the receiving entry nodes so the appended leaves
        // interleave with each other as well as with the static ones.
        let mutations: Vec<TopoMutation> = [1.0, 2.5, 4.0, 5.5]
            .iter()
            .zip(entries.iter().cycle())
            .map(|(&at, &parent)| TopoMutation {
                at,
                change: TreeMutation::AddLeaf { parent },
            })
            .collect();
        for rule in Rule::all() {
            let cfg =
                SimConfig::with_speeds(SpeedProfile::unit()).with_mutations(mutations.clone());
            let run = |asg: &mut dyn AssignmentPolicy| {
                let out = Simulation::run(&inst, &Sjf::new(), asg, &mut NoProbe, &cfg).unwrap();
                assert_eq!(out.unfinished, 0, "seed {seed} {rule:?}");
                (out.assignments, out.completions)
            };
            let production = match rule {
                Rule::Identical(mut g) => run(&mut g),
                Rule::Unrelated(mut g) => run(&mut g),
                Rule::LeastVolume => run(&mut LeastVolume),
                Rule::MinEta => run(&mut MinEta),
            };
            let oracle = run(&mut OracleDispatch(rule));
            assert_eq!(production, oracle, "seed {seed} {rule:?}");
            let n_static = inst.tree().len() as u32;
            on_appended += production
                .0
                .iter()
                .flatten()
                .filter(|v| v.0 >= n_static)
                .count();
        }
    }
    assert!(on_appended > 0, "no job ever landed on an appended leaf");
}
