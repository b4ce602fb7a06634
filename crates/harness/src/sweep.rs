//! Declarative sweep specs and the engine that runs them.
//!
//! A [`SweepSpec`] names a grid — topologies × workloads × policies ×
//! speed profiles × replications — as plain strings in the crate's spec
//! grammar (see [`crate::spec`]). [`expand`] turns it into a flat,
//! stably-indexed task list; [`run_sweep`] executes the tasks on the
//! worker pool, streams every finished cell to a [`RowSink`], folds the
//! rows into a [`StreamingAgg`] in cell order, and returns an
//! index-sorted [`SweepReport`].
//!
//! **Seeding.** Each cell's RNG seed is `splitmix64` of the spec's
//! `root_seed` and the cell's grid index — never of worker identity —
//! so results are bit-identical at any worker count, and a single
//! failing cell can be replayed from its row's `seed` alone.

use crate::agg::StreamingAgg;
use crate::exec::{self, ExecOptions, TaskResult, TaskStatus};
use crate::sink::RowSink;
use crate::spec;
use bct_core::{Instance, NodeId, Tree, TreeMutation};
use bct_lp::bounds::combined_bound;
use bct_sim::policy::NoProbe;
use bct_sim::{SimConfig, SimOutcome, SimScratch, TopoMutation};
use bct_workloads::jobs::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::{Duration, Instant};

fn default_load() -> f64 {
    0.8
}

fn default_sizes() -> String {
    "pow:2,4".to_string()
}

fn default_replications() -> usize {
    1
}

fn default_root_seed() -> u64 {
    1
}

/// Topology-churn knob of a workload: how many tree mutations to
/// schedule per cell. The concrete schedule is derived deterministically
/// from the cell seed — event times are uniform over the arrival span,
/// and each event cycles through add-leaf / remove-leaf / set-speed,
/// pre-validated against a staging copy of the cell's tree so every
/// emitted mutation is applicable when the engine reaches it.
/// (`FailNode` is deliberately excluded from generated churn: whole
/// subtrees vanishing is a fault-injection scenario, not background
/// churn; schedule it explicitly via the sim API instead.)
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChurnCfg {
    /// Mutation events to schedule across the cell's arrival span.
    pub events: usize,
}

/// One workload generator configuration (Poisson arrivals at a target
/// load over a size distribution, as everywhere else in the repo),
/// plus the dynamic-topology axes: per-endpoint capacity and churn.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCfg {
    /// Jobs per generated instance.
    pub jobs: usize,
    /// Offered load ρ (fraction of the bottleneck bandwidth).
    #[serde(default = "default_load")]
    pub load: f64,
    /// Size-distribution spec, e.g. `"pow:2,4"`.
    #[serde(default = "default_sizes")]
    pub sizes: String,
    /// Per-endpoint capacity for the capacity-aware assignment kinds
    /// (`best-fit` / `min-active` / `random-feasible`); `null` (the
    /// default) leaves them unrestricted and is ignored by every other
    /// policy.
    #[serde(default)]
    pub capacity: Option<f64>,
    /// Topology churn; `null` (the default) keeps the cell fully
    /// static — the pre-dynamic code path, byte-identical rows
    /// included.
    #[serde(default)]
    pub churn: Option<ChurnCfg>,
}

impl WorkloadCfg {
    /// Stable display label used in rows. Static workloads keep the
    /// historical `n{jobs}-load{load}-{sizes}` form (golden sweeps
    /// depend on those bytes); the dynamic axes append suffixes only
    /// when set.
    pub fn label(&self) -> String {
        let mut s = format!("n{}-load{}-{}", self.jobs, self.load, self.sizes);
        if let Some(c) = self.capacity {
            s.push_str(&format!("-cap{c}"));
        }
        if let Some(ch) = &self.churn {
            s.push_str(&format!("-churn{}", ch.events));
        }
        s
    }
}

/// A declarative sweep: the full grid plus execution knobs.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// Sweep name (reports, default output file names).
    pub name: String,
    /// Root of the per-cell seed derivation.
    #[serde(default = "default_root_seed")]
    pub root_seed: u64,
    /// Replications per grid point (distinct derived seeds).
    #[serde(default = "default_replications")]
    pub replications: usize,
    /// Extra attempts for failed cells (same seed; catches transient
    /// faults, deterministic panics still fail).
    #[serde(default)]
    pub max_retries: u32,
    /// Topology specs (`crate::spec::parse_topology` grammar).
    pub topologies: Vec<String>,
    /// Workload generator configurations.
    pub workloads: Vec<WorkloadCfg>,
    /// Policy specs (`NODE+ASSIGN` grammar).
    pub policies: Vec<String>,
    /// Speed-profile specs.
    pub speeds: Vec<String>,
}

impl SweepSpec {
    /// Parse a spec from JSON text.
    pub fn from_json(s: &str) -> Result<SweepSpec, String> {
        let spec: SweepSpec =
            serde_json::from_str(s).map_err(|e| format!("sweep spec: {e}"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Read and parse a spec file.
    pub fn load(path: &std::path::Path) -> Result<SweepSpec, String> {
        let s = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Self::from_json(&s)
    }

    /// Check every axis is non-empty and every spec string parses, so a
    /// sweep fails before the pool spins up rather than cell by cell.
    pub fn validate(&self) -> Result<(), String> {
        if self.topologies.is_empty()
            || self.workloads.is_empty()
            || self.policies.is_empty()
            || self.speeds.is_empty()
            || self.replications == 0
        {
            return Err("sweep spec: every grid axis must be non-empty".into());
        }
        for t in &self.topologies {
            spec::parse_topology(t, 0).map_err(|e| format!("topology '{t}': {e}"))?;
        }
        for w in &self.workloads {
            if w.jobs == 0 {
                return Err(format!("workload '{}': jobs must be ≥ 1", w.label()));
            }
            spec::parse_sizes(&w.sizes).map_err(|e| format!("workload '{}': {e}", w.label()))?;
            if let Some(c) = w.capacity {
                if !(c > 0.0 && c.is_finite()) {
                    return Err(format!(
                        "workload '{}': capacity must be positive and finite",
                        w.label()
                    ));
                }
            }
            if let Some(ch) = &w.churn {
                if ch.events == 0 {
                    return Err(format!(
                        "workload '{}': churn.events must be ≥ 1 (omit churn for static runs)",
                        w.label()
                    ));
                }
            }
        }
        for p in &self.policies {
            spec::parse_policy(p).map_err(|e| format!("policy '{p}': {e}"))?;
        }
        for s in &self.speeds {
            spec::parse_speeds(s).map_err(|e| format!("speeds '{s}': {e}"))?;
        }
        Ok(())
    }

    /// Total grid size.
    pub fn num_cells(&self) -> usize {
        self.topologies.len()
            * self.workloads.len()
            * self.policies.len()
            * self.speeds.len()
            * self.replications
    }
}

/// `splitmix64` — the standard 64-bit mixer; bijective, so distinct
/// cell indices can never collide onto one seed.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of cell `index` under `root_seed` — a pure function of the
/// grid position, independent of workers, retries, and wall clock.
pub fn cell_seed(root_seed: u64, index: usize) -> u64 {
    splitmix64(root_seed ^ splitmix64(index as u64))
}

/// One expanded grid cell, self-contained and replayable.
#[derive(Clone, Debug, PartialEq)]
pub struct CellTask {
    /// Stable grid index (row order of the sorted JSONL).
    pub cell: usize,
    /// Topology spec string.
    pub topo: String,
    /// Workload configuration.
    pub workload: WorkloadCfg,
    /// Policy spec string.
    pub policy: String,
    /// Speed-profile spec string.
    pub speeds: String,
    /// Replication number within the grid point.
    pub replication: usize,
    /// Derived RNG seed (drives topology randomness and job generation).
    pub seed: u64,
}

/// Expand a spec into its stably-indexed task list (topology-major,
/// replication-minor nesting; the order is part of the format).
pub fn expand(spec: &SweepSpec) -> Vec<CellTask> {
    let mut tasks = Vec::with_capacity(spec.num_cells());
    for topo in &spec.topologies {
        for workload in &spec.workloads {
            for policy in &spec.policies {
                for speeds in &spec.speeds {
                    for replication in 0..spec.replications {
                        let cell = tasks.len();
                        tasks.push(CellTask {
                            cell,
                            topo: topo.clone(),
                            workload: workload.clone(),
                            policy: policy.clone(),
                            speeds: speeds.clone(),
                            replication,
                            seed: cell_seed(spec.root_seed, cell),
                        });
                    }
                }
            }
        }
    }
    tasks
}

/// Metrics of one completed cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellMetrics {
    /// Jobs simulated.
    pub jobs: usize,
    /// Total flow time `Σ (C_j − r_j)`.
    pub total_flow: f64,
    /// Mean flow time.
    pub mean_flow: f64,
    /// Max flow time.
    pub max_flow: f64,
    /// Final simulation time.
    pub makespan: f64,
    /// Engine events processed.
    pub events: u64,
    /// Combinatorial OPT lower bound (`max(η, pooled-SRPT)` at unit
    /// adversary speed; the exact LP is only tractable for ≤ 8 jobs).
    pub lower_bound: f64,
    /// `total_flow / lower_bound` — an upper estimate of the
    /// competitive ratio (`0` when the bound degenerates to `0`).
    pub ratio: f64,
}

/// Terminal state of a cell, as serialized into JSONL.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RowOutcome {
    /// Completed with metrics.
    Ok(CellMetrics),
    /// Every attempt panicked or errored.
    Failed {
        /// The panic message / error of the last attempt. Together with
        /// the row's `seed` this is a complete reproducer.
        panic_msg: String,
    },
}

/// One JSONL row: the cell coordinates, its reproducer seed, and the
/// outcome.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Stable grid index.
    pub cell: usize,
    /// Topology spec.
    pub topo: String,
    /// Workload label (`WorkloadCfg::label`).
    pub workload: String,
    /// Policy spec.
    pub policy: String,
    /// Speed-profile spec.
    pub speeds: String,
    /// Replication number.
    pub replication: usize,
    /// The cell's derived seed (replay: same spec strings + this seed).
    pub seed: u64,
    /// Attempts consumed (> 1 ⇒ retries happened).
    pub attempts: u32,
    /// Result.
    pub outcome: RowOutcome,
}

thread_local! {
    /// One long-lived simulation arena per worker thread: every cell a
    /// worker runs reuses the same buffers, so a sweep's steady state
    /// allocates per instance, not per simulation. Safe across cells of
    /// any shape — the scratch resizes itself — and sound across panics:
    /// a poisoned cell's buffers are simply dropped with the thread's
    /// `RefCell` contents intact (scratch state never carries results).
    static SCRATCH: RefCell<SimScratch> = RefCell::new(SimScratch::new());
}

/// Salt folded into the cell seed for churn-schedule derivation, so the
/// schedule RNG and the workload RNG never share a stream.
const CHURN_SALT: u64 = 0xC4A1_7B2E_0D5F_93A7;

/// Speed factors generated churn cycles through (all well away from
/// 1.0, so `SetSpeed` events visibly reprice in-flight work).
const CHURN_FACTORS: [f64; 4] = [0.5, 0.75, 1.5, 2.0];

/// Derive a cell's churn schedule: `churn.events` mutations at sorted
/// uniform times over `[0, span]`, cycling add-leaf → remove-leaf →
/// set-speed. Each candidate mutation is validated against a staging
/// copy of the tree (evolved mutation by mutation, exactly as the
/// engine will evolve its own copy), and invalid picks — e.g. a removal
/// that would promote a root-adjacent router — are skipped rather than
/// emitted, so the engine never sees an inapplicable mutation. Pure in
/// `(tree, churn, seed, span)`.
pub fn churn_schedule(tree: &Tree, churn: &ChurnCfg, seed: u64, span: f64) -> Vec<TopoMutation> {
    let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(seed ^ CHURN_SALT));
    let span = if span.is_finite() && span > 0.0 { span } else { 1.0 };
    let mut times: Vec<f64> = (0..churn.events).map(|_| rng.gen_range(0.0..span)).collect();
    // bct-lint: allow(p1) -- gen_range over a finite span cannot yield NaN
    times.sort_by(|a, b| a.partial_cmp(b).expect("uniform times are finite"));
    let mut stage = tree.clone();
    let mut out = Vec::with_capacity(times.len());
    // Scratch candidate pool, reused across events.
    let mut pool: Vec<NodeId> = Vec::new();
    for (i, &at) in times.iter().enumerate() {
        pool.clear();
        let change = match i % 3 {
            0 => {
                pool.extend(stage.nodes().filter(|&v| stage.is_router(v)));
                // Live routers always exist (machines are never
                // root-adjacent), but guard anyway.
                if pool.is_empty() {
                    continue;
                }
                TreeMutation::AddLeaf { parent: pool[rng.gen_range(0..pool.len())] }
            }
            1 => {
                pool.extend_from_slice(stage.leaves());
                TreeMutation::RemoveLeaf { leaf: pool[rng.gen_range(0..pool.len())] }
            }
            _ => {
                pool.extend(stage.nodes().filter(|&v| v != NodeId::ROOT && stage.is_alive(v)));
                TreeMutation::SetSpeed {
                    node: pool[rng.gen_range(0..pool.len())],
                    factor: CHURN_FACTORS[rng.gen_range(0..CHURN_FACTORS.len())],
                }
            }
        };
        stage.queue_mutation(change);
        // Singleton batches: a rejected mutation leaves the staging
        // tree untouched, and the pick is simply dropped.
        if stage.apply_mutations().is_ok() {
            out.push(TopoMutation { at, change });
        }
    }
    out
}

/// Run one cell: parse its specs, generate the instance from the cell
/// seed, derive the churn schedule (if any), simulate, and measure.
/// Pure in `(task)` — this is the determinism anchor. Buffer reuse does
/// not weaken it: scratch-backed runs are bit-identical to fresh ones
/// (the engine's reset contract, asserted end to end by the
/// golden-sweep CI diff).
pub fn run_cell(task: &CellTask) -> Result<CellMetrics, String> {
    let tree = spec::parse_topology(&task.topo, task.seed)?;
    let sizes = spec::parse_sizes(&task.workload.sizes)?;
    let combo = spec::parse_policy(&task.policy)?;
    let speeds = spec::parse_speeds(&task.speeds)?;
    let w = WorkloadSpec::poisson_identical(task.workload.jobs, task.workload.load, sizes, &tree);
    let inst = w
        .instance(&tree, task.seed)
        .map_err(|e| format!("instance generation: {e}"))?;
    let mutations = match &task.workload.churn {
        Some(ch) => {
            let span = inst.jobs().iter().fold(0.0f64, |a, j| a.max(j.release));
            churn_schedule(&tree, ch, task.seed, span)
        }
        None => Vec::new(),
    };
    let cfg = SimConfig::with_speeds(speeds.clone()).with_mutations(mutations);
    let out = SCRATCH
        .with(|s| {
            combo.run_configured(
                &mut s.borrow_mut(),
                &inst,
                &cfg,
                task.workload.capacity,
                &mut NoProbe,
            )
        })
        .map_err(|e| format!("simulation: {e}"))?;
    let metrics = metrics_from(&inst, &out)?;
    SCRATCH.with(|s| s.borrow_mut().recycle(out));
    Ok(metrics)
}

/// Measure one finished simulation into row metrics.
fn metrics_from(inst: &Instance, out: &SimOutcome) -> Result<CellMetrics, String> {
    if out.unfinished > 0 {
        return Err(format!("{} jobs unfinished at horizon", out.unfinished));
    }
    let mut total_flow = 0.0f64;
    let mut max_flow = 0.0f64;
    for (c, j) in out.completions.iter().zip(inst.jobs()) {
        // bct-lint: allow(p1) -- guarded by the `out.unfinished > 0` early return just above
        let f = c.expect("checked finished") - j.release;
        total_flow += f;
        max_flow = max_flow.max(f);
    }
    let lower_bound = combined_bound(inst, 1.0);
    Ok(CellMetrics {
        jobs: inst.n(),
        total_flow,
        mean_flow: total_flow / inst.n().max(1) as f64,
        max_flow,
        makespan: out.makespan,
        events: out.events,
        lower_bound,
        ratio: if lower_bound > 0.0 { total_flow / lower_bound } else { 0.0 },
    })
}

/// One task's row, assembled from its coordinates and the pool's
/// result for it.
fn make_row(task: &CellTask, result: &TaskResult<CellMetrics>) -> SweepRow {
    SweepRow {
        cell: task.cell,
        topo: task.topo.clone(),
        workload: task.workload.label(),
        policy: task.policy.clone(),
        speeds: task.speeds.clone(),
        replication: task.replication,
        seed: task.seed,
        attempts: result.attempts,
        outcome: match &result.status {
            TaskStatus::Done(m) => RowOutcome::Ok(m.clone()),
            TaskStatus::Failed { error } => RowOutcome::Failed { panic_msg: error.clone() },
        },
    }
}

/// Where progress lines go.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum ProgressMode {
    /// No progress output (tests, benches).
    #[default]
    Silent,
    /// Periodic `cells done/total, rate, ETA` lines on stderr.
    Stderr,
}

/// Execution knobs for [`run_sweep`].
#[derive(Clone, Copy, Debug)]
pub struct SweepOptions {
    /// Worker threads.
    pub workers: usize,
    /// Progress reporting.
    pub progress: ProgressMode,
    /// Run only shard `i` of `n`: the cells with `cell % n == i`.
    /// Because every cell's seed is a pure function of its global grid
    /// index, any partition of the grid reproduces exactly the rows the
    /// unsharded sweep would have produced for those cells — shard
    /// outputs from separate processes concatenate and sort into the
    /// byte-identical full JSONL.
    pub shard: Option<(usize, usize)>,
    /// Ignored: every cell runs as its own pool task. Kept only so
    /// existing struct literals that set it still compile; it will be
    /// removed.
    pub batch: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: exec::available_workers(),
            progress: ProgressMode::Silent,
            shard: None,
            batch: false,
        }
    }
}

/// Everything a finished sweep produced.
#[derive(Debug)]
pub struct SweepReport {
    /// Sweep name (from the spec).
    pub name: String,
    /// All rows, sorted by cell index (deterministic at any worker
    /// count).
    pub rows: Vec<SweepRow>,
    /// The aggregate of `rows`, folded in cell order.
    pub agg: StreamingAgg,
    /// Completed cells.
    pub ok: usize,
    /// Failed cells.
    pub failed: usize,
    /// Wall-clock duration of the pool phase.
    pub elapsed: Duration,
}

impl SweepReport {
    /// `true` iff every cell completed.
    pub fn all_ok(&self) -> bool {
        self.failed == 0
    }

    /// The canonical byte-deterministic serialization: one JSON object
    /// per line, sorted by cell index.
    pub fn sorted_jsonl(&self) -> String {
        sorted_jsonl(&self.rows)
    }
}

/// Serialize rows as sorted JSONL (rows are cloned into index order;
/// the input need not be sorted).
pub fn sorted_jsonl(rows: &[SweepRow]) -> String {
    let mut sorted: Vec<&SweepRow> = rows.iter().collect();
    sorted.sort_by_key(|r| r.cell);
    let mut out = String::new();
    for row in sorted {
        // bct-lint: allow(p1) -- SweepRow serialization is infallible (no maps, no non-string keys)
        out.push_str(&serde_json::to_string(row).expect("rows always serialize"));
        out.push('\n');
    }
    out
}

/// Emit a progress line to stderr.
fn progress_line(name: &str, done: usize, total: usize, failed: usize, started: Instant) {
    let secs = started.elapsed().as_secs_f64();
    let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
    let eta = if rate > 0.0 { (total - done) as f64 / rate } else { f64::INFINITY };
    eprintln!(
        "[sweep {name}] {done}/{total} cells ({:.0}%), {rate:.1} cells/s, ETA {:.1}s{}",
        100.0 * done as f64 / total.max(1) as f64,
        eta,
        if failed > 0 { format!(", {failed} FAILED") } else { String::new() },
    );
}

/// Execute an already-expanded task list on the pool, one task per
/// cell: stream every finished row to `on_row` (in racy completion
/// order) and return the rows in task order. The pool's bounded retry
/// fills each row's `attempts`. The shared execution core of
/// [`run_sweep`] and [`crate::rundir::run_sweep_dir`] — both paths
/// produce rows through exactly this function, which is what makes
/// their outputs byte-interchangeable.
pub(crate) fn execute_tasks(
    tasks: &[CellTask],
    max_retries: u32,
    workers: usize,
    mut on_row: impl FnMut(&SweepRow),
) -> Vec<SweepRow> {
    let exec_opts = ExecOptions { workers, max_retries };
    let results = exec::execute(
        tasks,
        &exec_opts,
        |_, task| run_cell(task),
        |result| on_row(&make_row(&tasks[result.index], result)),
    );
    results.iter().map(|result| make_row(&tasks[result.index], result)).collect()
}

/// Execute a sweep: expand, run on the pool, stream rows to `sink` and
/// the aggregator, return the sorted report.
///
/// Failures never abort the sweep — a panicking cell becomes a
/// [`RowOutcome::Failed`] row carrying its panic message and reproducer
/// seed, and the remaining cells keep running.
pub fn run_sweep(
    spec: &SweepSpec,
    opts: &SweepOptions,
    sink: &mut dyn RowSink,
) -> Result<SweepReport, String> {
    spec.validate()?;
    let mut tasks = expand(spec);
    if let Some((i, n)) = opts.shard {
        if n == 0 || i >= n {
            return Err(format!("invalid shard {i}/{n}: need 0 <= i < n"));
        }
        // Filter *after* expansion so each retained task keeps its
        // global cell index and index-derived seed.
        tasks.retain(|t| t.cell % n == i);
    }
    let total = tasks.len();
    // Progress cadence: ~20 updates per sweep, at least every 64 cells.
    let every = (total / 20).clamp(1, 64);
    // bct-lint: allow(d2) -- progress/ETA display only; never feeds a row or an aggregate
    let started = Instant::now();
    let mut sink_error: Option<String> = None;
    let mut done = 0usize;
    let mut failed = 0usize;
    let rows = execute_tasks(&tasks, spec.max_retries, opts.workers, |row| {
        if matches!(row.outcome, RowOutcome::Failed { .. }) {
            failed += 1;
        }
        if let Err(e) = sink.write_row(row) {
            sink_error.get_or_insert_with(|| format!("sink: {e}"));
        }
        done += 1;
        if opts.progress == ProgressMode::Stderr && (done.is_multiple_of(every) || done == total) {
            progress_line(&spec.name, done, total, failed, started);
        }
    });
    if let Some(e) = sink_error {
        return Err(e);
    }
    // Fold in cell order, not in the workers' completion order: float
    // sums depend on their order, and the summary must not depend on
    // thread timing.
    let mut agg = StreamingAgg::default();
    for row in &rows {
        agg.observe(row);
    }
    let ok = rows.iter().filter(|r| matches!(r.outcome, RowOutcome::Ok(_))).count();
    let failed = rows.len() - ok;
    Ok(SweepReport {
        name: spec.name.clone(),
        rows,
        agg,
        ok,
        failed,
        elapsed: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;

    pub(crate) fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            root_seed: 7,
            replications: 2,
            max_retries: 0,
            topologies: vec!["star:3,2".into(), "fat-tree:2,2,2".into()],
            workloads: vec![WorkloadCfg {
                jobs: 12,
                load: 0.7,
                sizes: "pow:2,3".into(),
                capacity: None,
                churn: None,
            }],
            policies: vec!["sjf+greedy:0.5".into(), "sjf+closest".into()],
            speeds: vec!["uniform:1.5".into()],
        }
    }

    #[test]
    fn expansion_is_stable_and_seeded_by_index() {
        let spec = tiny_spec();
        let tasks = expand(&spec);
        assert_eq!(tasks.len(), spec.num_cells());
        assert_eq!(tasks.len(), 8);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.cell, i);
            assert_eq!(t.seed, cell_seed(7, i));
        }
        // Seeds are all distinct (splitmix64 is a bijection).
        let mut seeds: Vec<u64> = tasks.iter().map(|t| t.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), tasks.len());
    }

    #[test]
    fn spec_json_roundtrip_and_defaults() {
        let spec = tiny_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // Minimal spec exercises the serde defaults.
        let minimal = r#"{
            "name": "m",
            "topologies": ["star:2,2"],
            "workloads": [{"jobs": 5}],
            "policies": ["sjf+closest"],
            "speeds": ["uniform:2"]
        }"#;
        let m = SweepSpec::from_json(minimal).unwrap();
        assert_eq!(m.root_seed, 1);
        assert_eq!(m.replications, 1);
        assert_eq!(m.max_retries, 0);
        assert_eq!(m.workloads[0].load, 0.8);
        assert_eq!(m.workloads[0].sizes, "pow:2,4");
        assert_eq!(m.workloads[0].capacity, None, "static by default");
        assert_eq!(m.workloads[0].churn, None, "static by default");
    }

    #[test]
    fn invalid_specs_fail_before_running() {
        let mut spec = tiny_spec();
        spec.policies = vec!["sjf+warp".into()];
        let err = run_sweep(&spec, &SweepOptions::default(), &mut NullSink).unwrap_err();
        assert!(err.contains("sjf+warp"), "{err}");
        let mut spec = tiny_spec();
        spec.speeds.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn sweep_runs_and_reports() {
        let spec = tiny_spec();
        let report =
            run_sweep(&spec, &SweepOptions { workers: 2, ..Default::default() }, &mut NullSink)
                .unwrap();
        assert_eq!(report.rows.len(), 8);
        assert!(report.all_ok());
        assert_eq!(report.ok, 8);
        assert_eq!(report.agg.overall.cells, 8);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.cell, i);
            match &row.outcome {
                RowOutcome::Ok(m) => {
                    assert!(m.total_flow > 0.0 && m.ratio > 0.0, "cell {i}: {m:?}");
                }
                RowOutcome::Failed { panic_msg } => panic!("cell {i} failed: {panic_msg}"),
            }
        }
    }

    fn dynamic_spec() -> SweepSpec {
        SweepSpec {
            name: "dynamic".into(),
            root_seed: 11,
            replications: 2,
            max_retries: 0,
            topologies: vec!["fat-tree:2,2,2".into()],
            workloads: vec![WorkloadCfg {
                jobs: 16,
                load: 0.7,
                sizes: "pow:2,3".into(),
                capacity: Some(8.0),
                churn: Some(ChurnCfg { events: 6 }),
            }],
            policies: vec![
                "sjf+best-fit".into(),
                "sjf+min-active".into(),
                "sjf+greedy:0.5".into(),
            ],
            speeds: vec!["uniform:1.5".into()],
        }
    }

    #[test]
    fn churn_schedules_are_deterministic_and_applicable() {
        let tree = spec::parse_topology("fat-tree:2,2,2", 3).unwrap();
        let ch = ChurnCfg { events: 12 };
        let a = churn_schedule(&tree, &ch, 99, 40.0);
        assert_eq!(a, churn_schedule(&tree, &ch, 99, 40.0), "pure in its inputs");
        assert!(!a.is_empty(), "a 12-event request on a healthy tree must emit something");
        for w in a.windows(2) {
            assert!(w[0].at <= w[1].at, "times must come out sorted");
        }
        for m in &a {
            assert!(m.at >= 0.0 && m.at <= 40.0);
        }
        // Replaying the schedule mutation-by-mutation must succeed: the
        // generator pre-validated each one on the same evolving shape.
        let mut t = tree.clone();
        for m in &a {
            t.queue_mutation(m.change);
            t.apply_mutations().unwrap_or_else(|e| panic!("replay of {:?}: {e}", m.change));
        }
        assert_ne!(a, churn_schedule(&tree, &ch, 100, 40.0), "seed must matter");
    }

    #[test]
    fn dynamic_cells_run_and_label_their_axes() {
        let spec = dynamic_spec();
        let report = run_sweep(&spec, &SweepOptions::default(), &mut NullSink).unwrap();
        assert!(report.all_ok(), "{:?}", report.rows);
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert_eq!(row.workload, "n16-load0.7-pow:2,3-cap8-churn6");
        }
    }

    #[test]
    fn dynamic_rows_are_worker_count_invariant() {
        let spec = dynamic_spec();
        let run = |workers| {
            run_sweep(&spec, &SweepOptions { workers, progress: ProgressMode::Silent, ..Default::default() }, &mut NullSink)
                .unwrap()
                .sorted_jsonl()
        };
        let solo = run(1);
        assert_eq!(solo, run(4), "1 vs 4 workers");
        assert_eq!(solo, run(8), "1 vs 8 workers");
    }

    #[test]
    fn dynamic_spec_json_roundtrips() {
        let spec = dynamic_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back = SweepSpec::from_json(&json).unwrap();
        assert_eq!(back, spec);
        // The dynamic knobs validate.
        let mut bad = dynamic_spec();
        bad.workloads[0].capacity = Some(0.0);
        assert!(bad.validate().is_err(), "zero capacity must be rejected");
        let mut bad = dynamic_spec();
        bad.workloads[0].churn = Some(ChurnCfg { events: 0 });
        assert!(bad.validate().is_err(), "zero churn events must be rejected");
    }

    #[test]
    fn sharded_sweeps_merge_into_the_unsharded_golden() {
        let spec = tiny_spec();
        let full = run_sweep(&spec, &SweepOptions::default(), &mut NullSink).unwrap();
        let mut merged: Vec<SweepRow> = Vec::new();
        for i in 0..2 {
            let opts = SweepOptions {
                shard: Some((i, 2)),
                progress: ProgressMode::Silent,
                ..Default::default()
            };
            let part = run_sweep(&spec, &opts, &mut NullSink).unwrap();
            assert_eq!(part.rows.len(), 4, "shard {i}/2 of 8 cells");
            for row in &part.rows {
                assert_eq!(row.cell % 2, i, "shard {i}/2 kept a foreign cell");
            }
            merged.extend(part.rows.iter().cloned());
        }
        // Concatenate + sort by cell index reproduces the one-shot
        // sweep byte for byte: cell seeds are index-derived, so a
        // shard runs exactly the rows the full sweep would have.
        merged.sort_by_key(|r| r.cell);
        assert_eq!(sorted_jsonl(&merged), full.sorted_jsonl());
    }

    #[test]
    fn shard_bounds_are_validated() {
        let spec = tiny_spec();
        for bad in [(0, 0), (2, 2), (5, 3)] {
            let opts = SweepOptions { shard: Some(bad), ..Default::default() };
            let err = run_sweep(&spec, &opts, &mut NullSink).unwrap_err();
            assert!(err.contains("invalid shard"), "{err}");
        }
    }

    #[test]
    fn ratio_is_consistent_with_its_parts() {
        // Ratios compare ALG at the cell's (possibly augmented) speed
        // to the unit-speed lower bound, matching experiment E1; they
        // can dip below 1 under augmentation but must stay positive
        // and equal total_flow / lower_bound.
        let spec = tiny_spec();
        let report = run_sweep(&spec, &SweepOptions::default(), &mut NullSink).unwrap();
        for row in &report.rows {
            if let RowOutcome::Ok(m) = &row.outcome {
                assert!(m.lower_bound > 0.0);
                assert!((m.ratio - m.total_flow / m.lower_bound).abs() < 1e-12);
            }
        }
    }
}
