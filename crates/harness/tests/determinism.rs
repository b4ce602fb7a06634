//! The harness's headline guarantee: the sorted JSONL produced by a
//! sweep is byte-identical at any worker count, because every cell's
//! seed derives from the root seed and the cell's stable grid index —
//! never from worker identity or scheduling order.

use bct_harness::spec;
use bct_harness::sweep::{cell_seed, expand, CellMetrics, ProgressMode, RowOutcome, SweepOptions};
use bct_harness::{run_sweep, JsonlSink, NullSink, SweepSpec};
use bct_workloads::jobs::WorkloadSpec;

fn grid_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "determinism-grid",
            "root_seed": 42,
            "replications": 2,
            "topologies": ["star:3,2", "fat-tree:2,2,2"],
            "workloads": [{"jobs": 20}, {"jobs": 12, "load": 0.6, "sizes": "uniform:1,4"}],
            "policies": ["sjf+greedy:0.5", "fifo+closest"],
            "speeds": ["uniform:1.5"]
        }"#,
    )
    .unwrap()
}

/// Replication-heavy grid: eight replications of every grid point,
/// including the seeded `random:6,4` topology, whose tree differs
/// from cell to cell within one grid point.
fn replicated_spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "name": "replicated-grid",
            "root_seed": 77,
            "replications": 8,
            "topologies": ["star:3,2", "random:6,4"],
            "workloads": [{"jobs": 14}],
            "policies": ["sjf+greedy:0.5", "srpt+least-volume"],
            "speeds": ["uniform:1.5"]
        }"#,
    )
    .unwrap()
}

#[test]
fn sorted_jsonl_is_byte_identical_across_worker_counts() {
    for (spec, cells) in [(grid_spec(), 16), (replicated_spec(), 32)] {
        assert_eq!(spec.num_cells(), cells);
        let run = |workers: usize| {
            let opts =
                SweepOptions { workers, progress: ProgressMode::Silent, ..Default::default() };
            run_sweep(&spec, &opts, &mut NullSink).unwrap().sorted_jsonl()
        };
        let serial = run(1);
        assert_eq!(serial.lines().count(), cells);
        for workers in [4, 8] {
            assert_eq!(
                run(workers),
                serial,
                "{}: worker count {workers} changed the output",
                spec.name
            );
        }
    }
}

#[test]
fn streamed_rows_equal_sorted_rows_up_to_order() {
    // The live sink sees the same 16 rows the report does, just in
    // completion order; sorting the streamed lines recovers the
    // canonical serialization exactly.
    let spec = grid_spec();
    let opts = SweepOptions { workers: 4, progress: ProgressMode::Silent, ..Default::default() };
    let mut sink = JsonlSink::new(Vec::new());
    let report = run_sweep(&spec, &opts, &mut sink).unwrap();
    let streamed = String::from_utf8(sink.into_inner().unwrap()).unwrap();
    let mut streamed_lines: Vec<&str> = streamed.lines().collect();
    let mut sorted_lines: Vec<&str> = Vec::new();
    let canonical = report.sorted_jsonl();
    sorted_lines.extend(canonical.lines());
    streamed_lines.sort_unstable();
    sorted_lines.sort_unstable();
    assert_eq!(streamed_lines, sorted_lines);
}

#[test]
fn warm_scratch_rows_match_fresh_buffer_runs() {
    // Sweep workers keep one long-lived SimScratch across every cell
    // they run. Rebuild each cell here with brand-new buffers and check
    // that the sweep's rows — at 1, 4, and 8 workers, i.e. any scratch
    // warm-up history — serialize to the same bytes.
    let sweep_spec = grid_spec();
    let tasks = expand(&sweep_spec);
    let fresh: Vec<String> = tasks
        .iter()
        .map(|task| {
            let tree = spec::parse_topology(&task.topo, task.seed).unwrap();
            let sizes = spec::parse_sizes(&task.workload.sizes).unwrap();
            let combo = spec::parse_policy(&task.policy).unwrap();
            let speeds = spec::parse_speeds(&task.speeds).unwrap();
            let w = WorkloadSpec::poisson_identical(
                task.workload.jobs,
                task.workload.load,
                sizes,
                &tree,
            );
            let inst = w.instance(&tree, task.seed).unwrap();
            let out = combo.run(&inst, &speeds).unwrap();
            let mut total_flow = 0.0f64;
            let mut max_flow = 0.0f64;
            for (c, j) in out.completions.iter().zip(inst.jobs()) {
                let f = c.expect("finished") - j.release;
                total_flow += f;
                max_flow = max_flow.max(f);
            }
            let lower_bound = bct_lp::bounds::combined_bound(&inst, 1.0);
            let metrics = CellMetrics {
                jobs: inst.n(),
                total_flow,
                mean_flow: total_flow / inst.n().max(1) as f64,
                max_flow,
                makespan: out.makespan,
                events: out.events,
                lower_bound,
                ratio: if lower_bound > 0.0 { total_flow / lower_bound } else { 0.0 },
            };
            serde_json::to_string(&metrics).unwrap()
        })
        .collect();

    for workers in [1, 4, 8] {
        let opts = SweepOptions { workers, progress: ProgressMode::Silent, ..Default::default() };
        let report = run_sweep(&sweep_spec, &opts, &mut NullSink).unwrap();
        for (task, row) in tasks.iter().zip(&report.rows) {
            let RowOutcome::Ok(m) = &row.outcome else {
                panic!("cell {} failed", row.cell)
            };
            assert_eq!(
                serde_json::to_string(m).unwrap(),
                fresh[task.cell],
                "workers={workers} cell={} diverged from its fresh-buffer run",
                task.cell
            );
        }
    }
}

#[test]
fn seeds_depend_only_on_grid_position() {
    let spec = grid_spec();
    let tasks = expand(&spec);
    for (i, t) in tasks.iter().enumerate() {
        assert_eq!(t.cell, i);
        assert_eq!(t.seed, cell_seed(42, i));
    }
    // A different root seed shifts every cell.
    assert!(tasks.iter().enumerate().all(|(i, t)| t.seed != cell_seed(43, i)));
}
