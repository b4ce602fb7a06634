//! The two sweep workloads: `sweep-acceptance` (the one-shot `bct
//! sweep --spec` path on the ROADMAP acceptance cell) and `sweep-grid`
//! (`bct sweep --spec --run-dir` on a 768-cell grid).
//!
//! A measured pass calls exactly what the CLI calls. A traced pass
//! composes every cell from the public calls of each layer instead, with
//! a span around each call, and must produce the same row bytes.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bct_harness::claim::ClaimOutcome;
use bct_harness::rundir::encode_row_line;
use bct_harness::sweep::{
    churn_schedule, expand, sorted_jsonl, CellMetrics, CellTask, ChurnCfg, ProgressMode,
    RowOutcome, SweepRow, WorkloadCfg,
};
use bct_harness::{spec, JsonlSink, RowSink, RunDir, RunDirOptions, SweepOptions, SweepSpec};
use bct_lp::bounds::{eta_bound, pooled_srpt_bound};
use bct_sim::policy::NoProbe;
use bct_sim::{SimConfig, SimOutcome, SimScratch};
use bct_workloads::jobs::WorkloadSpec;

use crate::trace::{self, Span, NO_ID};

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    /// One-shot `bct sweep --spec`.
    Acceptance,
    /// `bct sweep --spec --run-dir <fresh dir>`.
    Grid,
}

/// The workload's spec for `seed`; the seed becomes the spec's
/// `root_seed`, from which every cell seed derives.
pub fn make_spec(kind: Kind, seed: u64) -> SweepSpec {
    let w = |jobs, load, sizes: &str, capacity, churn| WorkloadCfg {
        jobs,
        load,
        sizes: sizes.into(),
        capacity,
        churn,
    };
    let strings = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    match kind {
        Kind::Acceptance => SweepSpec {
            name: "acceptance".into(),
            root_seed: seed,
            replications: 1,
            max_retries: 0,
            topologies: strings(&["fat-tree:16,8,8"]),
            workloads: vec![w(50_000, 0.95, "pow:2,4", None, None)],
            policies: strings(&["sjf+round-robin"]),
            speeds: strings(&["uniform:1"]),
        },
        Kind::Grid => SweepSpec {
            name: "grid".into(),
            root_seed: seed,
            replications: 8,
            max_retries: 0,
            topologies: strings(&["star:4,2", "fat-tree:2,2,2", "random:6,4", "fat-tree:4,4,4"]),
            workloads: vec![
                w(24, 0.8, "pow:2,4", None, None),
                w(200, 0.9, "pareto:2.2,1", None, None),
                w(
                    200,
                    0.7,
                    "pow:2,3",
                    Some(8.0),
                    Some(ChurnCfg { events: 10 }),
                ),
            ],
            policies: strings(&[
                "sjf+greedy:0.5",
                "sjf+round-robin",
                "srpt+least-volume",
                "sjf+best-fit",
            ]),
            speeds: strings(&["uniform:1", "uniform:1.5"]),
        },
    }
}

/// One sweep worker thread: each workload runs in one process, and the
/// host has two cores.
fn sweep_options() -> SweepOptions {
    SweepOptions {
        workers: 1,
        progress: ProgressMode::Silent,
        shard: None,
        batch: true,
    }
}

/// Set-up: read, validate and expand the spec (no file-system writes).
pub fn setup(spec_path: &Path) -> Result<(SweepSpec, Vec<CellTask>), String> {
    let spec = SweepSpec::load(spec_path)?;
    let tasks = expand(&spec);
    Ok((spec, tasks))
}

/// What one pass produced.
pub struct Pass {
    /// Wall time from the spec in memory to sorted rows on disk.
    pub wall: Duration,
    pub bytes: Vec<u8>,
    pub cells: usize,
    pub failed: usize,
    pub attempts: u64,
}

/// One measured pass, exactly as `bct sweep` runs it: spec in memory →
/// sorted rows on disk (run dir merged, for the grid).
pub fn measured_pass(
    kind: Kind,
    spec: &SweepSpec,
    out: &Path,
    run_dir: &Path,
) -> Result<Pass, String> {
    let _ = fs::remove_dir_all(run_dir);
    let started = Instant::now();
    let report = match kind {
        Kind::Acceptance => {
            let file =
                fs::File::create(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            let report = bct_harness::run_sweep(spec, &sweep_options(), &mut sink)?;
            sink.into_inner()
                .map_err(|e| format!("flushing {}: {e}", out.display()))?;
            fs::write(out, report.sorted_jsonl())
                .map_err(|e| format!("writing {}: {e}", out.display()))?;
            report
        }
        Kind::Grid => {
            let (report, jsonl) = bct_harness::run_sweep_dir(
                spec,
                &sweep_options(),
                &RunDirOptions::default(),
                run_dir,
            )?;
            fs::write(out, jsonl).map_err(|e| format!("writing {}: {e}", out.display()))?;
            report
        }
    };
    let wall = started.elapsed();
    let bytes = fs::read(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    Ok(Pass {
        wall,
        bytes,
        cells: report.rows.len(),
        failed: report.failed,
        attempts: report.rows.iter().map(|r| u64::from(r.attempts)).sum(),
    })
}

/// Per-layer totals of one traced pass.
#[derive(Default, Clone)]
pub struct Layers {
    pub wall_ns: u64,
    pub cell_ns: u64,
    pub srpt_ns: u64,
    pub eta_ns: u64,
    pub engine_ns: u64,
    pub jobs_ns: u64,
    pub spec_ns: u64,
    pub churn_ns: u64,
    pub rows_ns: u64,
    pub rundir_ns: u64,
    /// Self time outside every layer span (the benchmark's own glue).
    pub glue_ns: u64,
    pub events: u64,
    pub jobs: u64,
    pub mutations: u64,
    pub row_bytes: u64,
    pub rundir_files: u64,
    /// Cells whose row records a failure.
    pub failed: usize,
}

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
struct Counts {
    events: u64,
    jobs: u64,
    mutations: u64,
    failed: usize,
}

/// One traced pass: the same sweep, composed cell by cell from the
/// layers' public calls. Returns the rows file bytes, the layer totals
/// and the spans.
pub fn traced_pass(
    kind: Kind,
    spec: &SweepSpec,
    tasks: &[CellTask],
    out: &Path,
    run_dir: &Path,
    epoch: Instant,
) -> Result<(Vec<u8>, Layers, Vec<Span>), String> {
    let _ = fs::remove_dir_all(run_dir);
    let mut scratch = SimScratch::new();
    let mut counts = Counts::default();
    trace::start(epoch);
    let res = trace::span("sweep.pass", NO_ID, || match kind {
        Kind::Acceptance => traced_one_shot(tasks, out, &mut scratch, &mut counts),
        Kind::Grid => traced_run_dir(spec, tasks, out, run_dir, &mut scratch, &mut counts),
    });
    let spans = trace::finish();
    let row_bytes = res?;
    let bytes = fs::read(out).map_err(|e| format!("reading {}: {e}", out.display()))?;
    let mut layers = Layers {
        events: counts.events,
        jobs: counts.jobs,
        mutations: counts.mutations,
        failed: counts.failed,
        row_bytes,
        ..Layers::default()
    };
    if kind == Kind::Grid {
        layers.rundir_files = count_files(run_dir);
    }
    for (s, t) in spans.iter().zip(trace::self_times(&spans)) {
        let slot = match s.name {
            "sweep.pass" => {
                layers.wall_ns = s.dur();
                &mut layers.glue_ns
            }
            "cell" => {
                layers.cell_ns += s.dur();
                &mut layers.glue_ns
            }
            "lp.bounds.srpt" => &mut layers.srpt_ns,
            "lp.bounds.eta" => &mut layers.eta_ns,
            "sim.engine" => &mut layers.engine_ns,
            "workloads.jobs" => &mut layers.jobs_ns,
            "harness.spec" => &mut layers.spec_ns,
            "harness.churn" => &mut layers.churn_ns,
            "harness.rows" => &mut layers.rows_ns,
            "harness.rundir" => &mut layers.rundir_ns,
            other => return Err(format!("unexpected span '{other}'")),
        };
        *slot += t;
    }
    Ok((bytes, layers, spans))
}

fn traced_one_shot(
    tasks: &[CellTask],
    out: &Path,
    scratch: &mut SimScratch,
    counts: &mut Counts,
) -> Result<u64, String> {
    let mut sink = trace::span("harness.rows", NO_ID, || {
        fs::File::create(out).map(|f| JsonlSink::new(BufWriter::new(f)))
    })
    .map_err(|e| format!("creating {}: {e}", out.display()))?;
    let mut rows = Vec::with_capacity(tasks.len());
    for task in tasks {
        let row = traced_cell(task, scratch, counts);
        trace::span("harness.rows", task.cell as u64, || sink.write_row(&row))
            .map_err(|e| format!("sink: {e}"))?;
        rows.push(row);
    }
    trace::span("harness.rows", NO_ID, || -> Result<u64, String> {
        sink.into_inner()
            .map_err(|e| format!("flushing {}: {e}", out.display()))?;
        let jsonl = sorted_jsonl(&rows);
        fs::write(out, &jsonl).map_err(|e| format!("writing {}: {e}", out.display()))?;
        Ok(jsonl.len() as u64)
    })
}

fn traced_run_dir(
    spec: &SweepSpec,
    tasks: &[CellTask],
    out: &Path,
    root: &Path,
    scratch: &mut SimScratch,
    counts: &mut Counts,
) -> Result<u64, String> {
    let timeout = RunDirOptions::default().claim_timeout;
    let dir = trace::span("harness.rundir", NO_ID, || {
        RunDir::open_or_create(root, spec, None)
    })?;
    for chunk in 0..dir.manifest().chunks {
        let range = dir.chunk_range(chunk);
        let id = range.start as u64;
        let (mut claim, mut file) = trace::span("harness.rundir", id, || -> Result<_, String> {
            let rec = dir.recover_chunk(chunk)?;
            let claim = match dir.claims().try_claim(chunk, rec.max_gen + 1, timeout)? {
                ClaimOutcome::Claimed(c) => c,
                _ => {
                    return Err(format!(
                        "chunk {chunk} of a fresh run dir could not be claimed"
                    ))
                }
            };
            let path = dir.rows_path(chunk, claim.gen().max(rec.max_gen + 1));
            let file = fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            Ok((claim, file))
        })?;
        for task in tasks.get(range.clone()).unwrap_or_default() {
            let row = traced_cell(task, scratch, counts);
            let id = task.cell as u64;
            let json = trace::span("harness.rows", id, || serde_json::to_string(&row))
                .map_err(|e| format!("row encode: {e}"))?;
            trace::span("harness.rundir", id, || -> std::io::Result<()> {
                file.write_all(encode_row_line(row.cell, &json).as_bytes())?;
                file.flush()?;
                claim.heartbeat();
                Ok(())
            })
            .map_err(|e| format!("appending row: {e}"))?;
        }
        trace::span("harness.rundir", id, || {
            dir.claims().mark_done(chunk, range.len())
        })?;
    }
    let merged = trace::span("harness.rundir", NO_ID, || dir.merge())?;
    trace::span("harness.rows", NO_ID, || -> Result<u64, String> {
        let mut jsonl = String::new();
        for json in &merged {
            jsonl.push_str(json);
            jsonl.push('\n');
        }
        fs::write(out, &jsonl).map_err(|e| format!("writing {}: {e}", out.display()))?;
        Ok(jsonl.len() as u64)
    })
}

/// One cell composed from the layers' public calls, as
/// `bct_harness::sweep::run_cell` composes it.
fn traced_cell(task: &CellTask, scratch: &mut SimScratch, counts: &mut Counts) -> SweepRow {
    let id = task.cell as u64;
    let outcome = trace::span("cell", id, || -> Result<CellMetrics, String> {
        let (tree, sizes, combo, speeds) =
            trace::span("harness.spec", id, || -> Result<_, String> {
                Ok((
                    spec::parse_topology(&task.topo, task.seed)?,
                    spec::parse_sizes(&task.workload.sizes)?,
                    spec::parse_policy(&task.policy)?,
                    spec::parse_speeds(&task.speeds)?,
                ))
            })?;
        let inst = trace::span("workloads.jobs", id, || {
            WorkloadSpec::poisson_identical(task.workload.jobs, task.workload.load, sizes, &tree)
                .instance(&tree, task.seed)
        })
        .map_err(|e| format!("instance generation: {e}"))?;
        counts.jobs += inst.n() as u64;
        let mutations = match &task.workload.churn {
            Some(ch) => trace::span("harness.churn", id, || {
                let span = inst.jobs().iter().fold(0.0f64, |a, j| a.max(j.release));
                churn_schedule(&tree, ch, task.seed, span)
            }),
            None => Vec::new(),
        };
        counts.mutations += mutations.len() as u64;
        let cfg = SimConfig::with_speeds(speeds).with_mutations(mutations);
        let out = trace::span("sim.engine", id, || {
            combo.run_configured(scratch, &inst, &cfg, task.workload.capacity, &mut NoProbe)
        })
        .map_err(|e| format!("simulation: {e}"))?;
        counts.events += out.events;
        let metrics = cell_metrics(&inst, &out, id);
        scratch.recycle(out);
        metrics
    });
    SweepRow {
        cell: task.cell,
        topo: task.topo.clone(),
        workload: task.workload.label(),
        policy: task.policy.clone(),
        speeds: task.speeds.clone(),
        replication: task.replication,
        seed: task.seed,
        attempts: 1,
        outcome: match outcome {
            Ok(m) => RowOutcome::Ok(m),
            Err(e) => {
                counts.failed += 1;
                RowOutcome::Failed { panic_msg: e }
            }
        },
    }
}

/// Row metrics of one finished simulation, computed as the harness
/// computes them (the OPT lower bound is `max(η, pooled SRPT)`).
fn cell_metrics(
    inst: &bct_core::Instance,
    out: &SimOutcome,
    id: u64,
) -> Result<CellMetrics, String> {
    if out.unfinished > 0 {
        return Err(format!("{} jobs unfinished at horizon", out.unfinished));
    }
    let mut total_flow = 0.0f64;
    let mut max_flow = 0.0f64;
    for (c, j) in out.completions.iter().zip(inst.jobs()) {
        let f = c.ok_or("finished run with an open completion")? - j.release;
        total_flow += f;
        max_flow = max_flow.max(f);
    }
    let eta = trace::span("lp.bounds.eta", id, || eta_bound(inst, 1.0));
    let srpt = trace::span("lp.bounds.srpt", id, || pooled_srpt_bound(inst, 1.0));
    let lower_bound = eta.max(srpt);
    Ok(CellMetrics {
        jobs: inst.n(),
        total_flow,
        mean_flow: total_flow / inst.n().max(1) as f64,
        max_flow,
        makespan: out.makespan,
        events: out.events,
        lower_bound,
        ratio: if lower_bound > 0.0 {
            total_flow / lower_bound
        } else {
            0.0
        },
    })
}

fn count_files(dir: &Path) -> u64 {
    let mut n = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            match e.file_type() {
                Ok(t) if t.is_dir() => stack.push(e.path()),
                Ok(_) => n += 1,
                Err(_) => {}
            }
        }
    }
    n
}

/// Jobs in the spec (the numerator of `jobs_per_s`).
pub fn spec_jobs(spec: &SweepSpec) -> u64 {
    let per_point =
        (spec.topologies.len() * spec.policies.len() * spec.speeds.len() * spec.replications)
            as u64;
    spec.workloads
        .iter()
        .map(|w| w.jobs as u64 * per_point)
        .sum()
}
