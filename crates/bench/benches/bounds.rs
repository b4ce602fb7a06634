//! OPT lower-bound benchmark: the near-linear bounds against the scans
//! they replaced, on an acceptance-shaped instance (1024-leaf fat tree,
//! Poisson ρ = 0.95, power-of-two sizes) cut to 5,000 jobs so the
//! `O(n²)` SRPT scan stays in the tens of milliseconds.
//!
//! * pooled SRPT: `bounds::srpt_single_machine` vs
//!   `bounds::naive::srpt_single_machine`, on the instance's releases
//!   and sizes at the pooled speed `|R|`, as `pooled_srpt_bound` runs it;
//! * η path work: `Instance::trivial_flow_lower_bound` vs
//!   `Instance::trivial_flow_lower_bound_naive`.
//!
//! Every call's result is asserted bit-identical to its oracle. Each
//! variant's time is the best of seven alternating calls, and the bench
//! asserts each fast bound is at least 10x faster than its scan — a
//! ratio, so it holds on slow and fast hosts alike. Writes
//! `target/BENCH_bounds.json`.

use bct_lp::bounds::{self, naive};
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

const JOBS: usize = 5_000;
const ROUNDS: usize = 7;
const MIN_SPEEDUP: f64 = 10.0;

/// Best-of-`ROUNDS` times of `fast` and `oracle`, called alternately;
/// every result must carry the oracle's bits.
fn race(fast: impl Fn() -> f64, oracle: impl Fn() -> f64) -> (Duration, Duration) {
    let mut best = [Duration::MAX; 2];
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let want = black_box(oracle());
        best[1] = best[1].min(start.elapsed());
        let start = Instant::now();
        let got = black_box(fast());
        best[0] = best[0].min(start.elapsed());
        assert_eq!(got.to_bits(), want.to_bits(), "{got} vs oracle {want}");
    }
    (best[0], best[1])
}

fn opt_bounds(c: &mut Criterion) {
    let tree = topo::fat_tree(16, 8, 8);
    let inst = WorkloadSpec::poisson_identical(
        JOBS,
        0.95,
        SizeDist::PowerOfBase {
            base: 2.0,
            max_k: 4,
        },
        &tree,
    )
    .instance(&tree, 1)
    .expect("valid instance");

    let mut g = c.benchmark_group("opt_bounds");
    g.sample_size(ROUNDS);
    let mut report = format!(
        "{{\"bench\": \"bounds\", \"topology\": \"fat-tree:16,8,8\", \"jobs\": {JOBS}, \
         \"rounds\": {ROUNDS}, \"min_speedup\": {MIN_SPEEDUP:.1}"
    );
    let mut failures = Vec::new();
    let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
    let sizes: Vec<f64> = inst.jobs().iter().map(|j| j.size).collect();
    let speed = inst.tree().root_adjacent().len() as f64;
    assert_eq!(
        bounds::pooled_srpt_bound(&inst, 1.0).to_bits(),
        naive::srpt_single_machine(&releases, &sizes, speed).to_bits()
    );
    let (r, p, i) = (&releases, &sizes, &inst);
    let timings = [
        (
            "pooled_srpt",
            race(
                || bounds::srpt_single_machine(black_box(r), black_box(p), speed),
                || naive::srpt_single_machine(black_box(r), black_box(p), speed),
            ),
        ),
        (
            "eta",
            race(
                || black_box(i).trivial_flow_lower_bound(),
                || black_box(i).trivial_flow_lower_bound_naive(),
            ),
        ),
    ];
    for (name, (t_fast, t_naive)) in timings {
        // `iter_custom` reports total / iters: hand it the best call.
        g.bench_function(BenchmarkId::new(name, "fast"), |b| {
            b.iter_custom(|iters| t_fast * iters as u32)
        });
        g.bench_function(BenchmarkId::new(name, "naive"), |b| {
            b.iter_custom(|iters| t_naive * iters as u32)
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let speedup = t_naive.as_secs_f64() / t_fast.as_secs_f64();
        println!(
            "opt_bounds/{name}: {:.3} ms fast, {:.3} ms naive ({speedup:.1}x)",
            ms(t_fast),
            ms(t_naive)
        );
        report.push_str(&format!(
            ", \"{name}\": {{\"fast_ms\": {:.4}, \"naive_ms\": {:.4}, \"speedup\": {speedup:.2}}}",
            ms(t_fast),
            ms(t_naive)
        ));
        if speedup < MIN_SPEEDUP {
            failures.push(format!("{name} {speedup:.1}x"));
        }
    }
    report.push_str(", \"identical_bits\": true}\n");
    g.finish();
    let out = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/BENCH_bounds.json"
    );
    std::fs::write(out, &report).expect("write BENCH_bounds.json");
    assert!(
        failures.is_empty(),
        "each bound must be >={MIN_SPEEDUP}x faster than its scan: {}",
        failures.join(", ")
    );
}

criterion_group!(benches, opt_bounds);
criterion_main!(benches);
