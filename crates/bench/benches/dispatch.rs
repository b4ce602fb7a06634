//! Greedy dispatch benchmark: aggregate-backed `O(log |Q|)` queue
//! queries vs the naive `O(|Q|)` scan oracle, and the production
//! decision vs a per-leaf score loop.
//!
//! One driving simulation (round-robin assignment, SJF nodes, 50k jobs
//! on a 1024-leaf fat tree) provides live queue states. At sampled
//! arrivals a probe times, on the same state, three ways of making one
//! greedy decision:
//!
//! * the **naive score loop** — score every leaf with
//!   `GreedyIdentical::score`'s formula over `prio::naive`'s scans,
//!   take the argmin;
//! * the **score loop** — score every leaf through
//!   `GreedyIdentical::score`, whose queries the engine's queue
//!   aggregates answer, take the argmin: `F` is evaluated once per leaf;
//! * **`assign`** — `AssignmentPolicy::assign`, the decision `bct serve`
//!   and the sweeps run: `F` is evaluated once per entry node (16 here).
//!
//! `assign` must pick the score loop's leaf, and the two score loops'
//! checksums must agree up to summation order. Only the time inside
//! the timed calls is measured. The bench asserts the score loop is
//! >=5x faster than the naive one, and `assign` >=4x faster than the
//! score loop.

use bct_core::{Instance, JobId, NodeId, SpeedProfile};
use bct_policies::prio::naive;
use bct_policies::Sjf;
use bct_sched::cost::distance_term;
use bct_sched::GreedyIdentical;
use bct_sim::policy::Probe;
use bct_sim::{AssignmentPolicy, SimConfig, SimView, Simulation};
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The greedy rule's `ε`.
const EPS: f64 = 0.5;

/// Cheap deterministic driving assignment: cycle over the leaves.
struct RoundRobin {
    leaves: Vec<NodeId>,
    next: usize,
}

impl AssignmentPolicy for RoundRobin {
    fn assign(&mut self, _view: &SimView<'_>, _job: JobId) -> NodeId {
        let v = self.leaves[self.next];
        self.next = (self.next + 1) % self.leaves.len();
        v
    }
}

/// `GreedyIdentical::score` of `leaf`, with `F` assembled from the scan
/// oracle's queries.
fn naive_score(view: &SimView<'_>, job: JobId, leaf: NodeId) -> f64 {
    let r = view.entry_node(job, leaf);
    let p = view.instance().p(job, r);
    let f = naive::s_volume_excl(view, r, job) + p + p * naive::count_larger(view, r, job) as f64;
    let d = view.path_for(job, leaf).len() as u32;
    f + distance_term(EPS, view.instance().job(job).size, d)
}

/// The argmin leaf of `score` over `leaves` and its score.
fn best_leaf(leaves: &[NodeId], score: impl Fn(NodeId) -> f64) -> (NodeId, f64) {
    let mut best = (leaves[0], f64::INFINITY);
    for &v in leaves {
        let s = score(v);
        if s < best.1 {
            best = (v, s);
        }
    }
    best
}

/// Time spent in each way of deciding, over `decisions` decisions each,
/// and the summed best scores of the two score loops.
struct Timings {
    naive_loop: Duration,
    score_loop: Duration,
    assign: Duration,
    decisions: u64,
    naive_sink: f64,
    sink: f64,
}

/// Times `reps` decisions of each kind at every `sample_every`-th
/// arrival (skipping the cold start), accumulating only the time inside
/// them.
struct DecisionTimer {
    policy: GreedyIdentical,
    sample_every: usize,
    reps: u64,
    t: Timings,
}

impl Probe for DecisionTimer {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        let id = job.as_usize();
        if id == 0 || id % self.sample_every != 0 {
            return;
        }
        let leaves = view.tree().leaves();
        let start = Instant::now();
        for _ in 0..self.reps {
            self.t.naive_sink += best_leaf(leaves, |v| naive_score(view, job, v)).1;
        }
        self.t.naive_loop += start.elapsed();

        let mut loop_leaf = leaves[0];
        let start = Instant::now();
        for _ in 0..self.reps {
            let (v, s) = best_leaf(leaves, |v| self.policy.score(view, job, v));
            loop_leaf = v;
            self.t.sink += s;
        }
        self.t.score_loop += start.elapsed();

        let mut policy = self.policy;
        let mut picked = leaves[0];
        let start = Instant::now();
        for _ in 0..self.reps {
            picked = black_box(policy.assign(black_box(view), job));
        }
        self.t.assign += start.elapsed();
        assert_eq!(
            picked, loop_leaf,
            "assign and the score loop disagree for {job}"
        );
        self.t.decisions += self.reps;
    }
}

/// Run the driving simulation and time the sampled decisions.
fn measure(inst: &Instance, reps: u64) -> Timings {
    let mut probe = DecisionTimer {
        policy: GreedyIdentical::new(EPS),
        sample_every: inst.n() / 10,
        reps,
        t: Timings {
            naive_loop: Duration::ZERO,
            score_loop: Duration::ZERO,
            assign: Duration::ZERO,
            decisions: 0,
            naive_sink: 0.0,
            sink: 0.0,
        },
    };
    let mut asg = RoundRobin {
        leaves: inst.tree().leaves().to_vec(),
        next: 0,
    };
    let cfg = SimConfig::with_speeds(SpeedProfile::unit());
    Simulation::run(inst, &Sjf::new(), &mut asg, &mut probe, &cfg).unwrap();
    assert!(probe.t.decisions > 0, "probe never sampled an arrival");
    probe.t
}

/// Decisions per second over `d`.
fn rate(n: u64, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64()
}

fn dispatch_scoring(c: &mut Criterion) {
    let tree = topo::fat_tree(16, 8, 8);
    assert!(tree.num_leaves() >= 1000, "bench needs a wide tree");
    // Overdriven load (ρ = 2 at the root-adjacent layer): the entry
    // queues build into the hundreds over the run, which is the regime
    // the per-node aggregates exist for. At ρ < 1 queues stay O(1) and
    // a scan is nearly free.
    let inst = WorkloadSpec::poisson_identical(
        50_000,
        2.0,
        SizeDist::PowerOfBase { base: 2.0, max_k: 4 },
        &tree,
    )
    .instance(&tree, 17)
    .expect("valid instance");

    let t = measure(&inst, 5);
    // Same scores up to summation order; a checksum divergence means the
    // two score loops scored different queues.
    assert!(
        (t.sink - t.naive_sink).abs() <= 1e-6 * (1.0 + t.naive_sink.abs()),
        "checksum diverged: {} vs {}",
        t.sink,
        t.naive_sink
    );

    let mut g = c.benchmark_group("dispatch_scoring");
    g.sample_size(t.decisions as usize);
    let series = [
        ("aggregate", t.score_loop),
        ("naive", t.naive_loop),
        ("assign", t.assign),
    ];
    for (variant, d) in series {
        let id = BenchmarkId::new(format!("greedy-assign/{variant}"), "1024-leaves-50k-jobs");
        g.bench_function(id, |b| b.iter_custom(|_| d));
    }
    g.finish();

    let n = t.decisions;
    println!(
        "dispatch_scoring/rates (decisions/s): score loop {:.0} aggregate / {:.0} naive; \
         assign {:.0}",
        rate(n, t.score_loop),
        rate(n, t.naive_loop),
        rate(n, t.assign)
    );
    let speedup = t.naive_loop.as_secs_f64() / t.score_loop.as_secs_f64();
    println!("dispatch_scoring/speedup(naive/aggregate): {speedup:.1}x");
    let assign_speedup = t.score_loop.as_secs_f64() / t.assign.as_secs_f64();
    println!("dispatch_scoring/speedup(score loop/assign): {assign_speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "aggregate scoring must be >=5x faster than the scan oracle, got {speedup:.1}x"
    );
    assert!(
        assign_speedup >= 4.0,
        "assign must be >=4x faster than the per-leaf score loop, got {assign_speedup:.1}x"
    );
}

criterion_group!(benches, dispatch_scoring);
criterion_main!(benches);
