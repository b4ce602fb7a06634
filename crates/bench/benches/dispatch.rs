//! Greedy dispatch benchmark: aggregate-backed `O(log |Q|)` queue
//! queries vs the naive `O(|Q|)` scan oracle, and the production
//! decision vs a per-leaf score loop.
//!
//! One driving simulation per variant (round-robin assignment, SJF
//! nodes, 50k jobs on a 1024-leaf fat tree) provides live queue states.
//! At sampled arrivals a probe times, on the same state, two ways of
//! making one greedy decision:
//!
//! * the **score loop** — score every leaf through
//!   `GreedyIdentical::score`, take the argmin: `F` is evaluated once
//!   per leaf;
//! * **`assign`** — `AssignmentPolicy::assign`, the decision `bct serve`
//!   and the sweeps run: `F` is evaluated once per entry node (16 here).
//!
//! Both must pick the same leaf. Both variants run the same code: the
//! "aggregate" run keys the engine's queue aggregates like the policy
//! (fast path taken), the "naive" run mis-keys them (class-rounded
//! engine vs raw-size policy), so every query falls back to the scan
//! oracle. Only the time inside the timed calls is measured. The bench
//! asserts the aggregate score loop is >=5x faster than the naive one,
//! and that on the aggregate run `assign` is >=4x faster than the score
//! loop.

use bct_core::{ClassRounding, Instance, JobId, NodeId, SpeedProfile};
use bct_policies::Sjf;
use bct_sched::GreedyIdentical;
use bct_sim::policy::Probe;
use bct_sim::{AssignmentPolicy, SimConfig, SimView, Simulation};
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cheap deterministic driving assignment: cycle over the leaves.
struct RoundRobin {
    leaves: Vec<NodeId>,
    next: usize,
}

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn assign(&mut self, _view: &SimView<'_>, _job: JobId) -> NodeId {
        let v = self.leaves[self.next];
        self.next = (self.next + 1) % self.leaves.len();
        v
    }
}

/// Time spent in each way of deciding, over `decisions` decisions each.
struct Timings {
    score_loop: Duration,
    assign: Duration,
    decisions: u64,
    sink: f64,
}

/// Times `reps` score-loop decisions and `reps` `assign` calls at every
/// `sample_every`-th arrival (skipping the cold start), accumulating
/// only the time inside them.
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
        let mut loop_leaf = leaves[0];
        let start = Instant::now();
        for _ in 0..self.reps {
            let mut best = f64::INFINITY;
            for &v in leaves {
                let s = self.policy.score(view, job, v);
                if s < best {
                    best = s;
                    loop_leaf = v;
                }
            }
            self.t.sink += best;
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

/// Run the driving simulation and time the sampled decisions. `fast`
/// keys the engine aggregates to match the scoring policy; otherwise
/// they are deliberately mis-keyed so every query takes the scan
/// fallback.
fn measure(inst: &Instance, reps: u64, fast: bool) -> Timings {
    let mut cfg = SimConfig::with_speeds(SpeedProfile::unit());
    if !fast {
        cfg.dispatch_rounding = Some(ClassRounding::new(0.5));
    }
    let mut probe = DecisionTimer {
        policy: GreedyIdentical::new(0.5),
        sample_every: inst.n() / 10,
        reps,
        t: Timings {
            score_loop: Duration::ZERO,
            assign: Duration::ZERO,
            decisions: 0,
            sink: 0.0,
        },
    };
    let mut asg = RoundRobin {
        leaves: inst.tree().leaves().to_vec(),
        next: 0,
    };
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

    let reps = 5;
    let fast = measure(&inst, reps, true);
    let slow = measure(&inst, reps, false);
    assert_eq!(fast.decisions, slow.decisions);
    // Same scores up to summation order; a checksum divergence means the
    // two paths scored different queues.
    assert!(
        (fast.sink - slow.sink).abs() <= 1e-6 * (1.0 + slow.sink.abs()),
        "checksum diverged: {} vs {}",
        fast.sink,
        slow.sink
    );

    let mut g = c.benchmark_group("dispatch_scoring");
    g.sample_size(fast.decisions as usize);
    let series = [
        ("aggregate", fast.score_loop),
        ("naive", slow.score_loop),
        ("assign-aggregate", fast.assign),
        ("assign-naive", slow.assign),
    ];
    for (variant, d) in series {
        let id = BenchmarkId::new(format!("greedy-assign/{variant}"), "1024-leaves-50k-jobs");
        g.bench_function(id, |b| b.iter_custom(|_| d));
    }
    g.finish();

    let n = fast.decisions;
    println!(
        "dispatch_scoring/rates (decisions/s): score loop {:.0} aggregate / {:.0} naive; \
         assign {:.0} aggregate / {:.0} naive",
        rate(n, fast.score_loop),
        rate(n, slow.score_loop),
        rate(n, fast.assign),
        rate(n, slow.assign)
    );
    let speedup = slow.score_loop.as_secs_f64() / fast.score_loop.as_secs_f64();
    println!("dispatch_scoring/speedup(naive/aggregate): {speedup:.1}x");
    let assign_speedup = fast.score_loop.as_secs_f64() / fast.assign.as_secs_f64();
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
