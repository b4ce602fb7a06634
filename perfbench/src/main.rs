//! Layered benchmark of `bct sweep` and `bct serve`.
//!
//! ```text
//! bct-perfbench --workload sweep-acceptance|sweep-grid|serve-socket
//!               [--seed 1] [--seconds 10] [--trace 0|1] [--rustc TEXT]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it alternates measured and traced passes and prints the per-layer
//! metrics. Either way it checks every output, prints a record line
//! (host, toolchain, the host's steal share, per-metric quartiles over
//! the run's samples, raw pass times) and, as the last line, the result
//! object. Exit code 1 means a correctness check failed; 2 means the run
//! could not be carried out.
//!
//! Run from the repository root: scratch files go under `.bench_work/`,
//! span dumps under `.bench_results/`, and pinned outputs are read from
//! `perfbench/expected/`.

mod report;
mod serve;
mod sweeps;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use report::{median, quantile, Metrics, Outcome};
use sweeps::Kind;

/// The seed whose outputs are pinned under `perfbench/expected/`.
const DEFAULT_SEED: u64 = 1;
/// Spec set-ups before each sweep pass; `setup_s` is the median of all.
const SETUPS_PER_PASS: usize = 20;
/// Fewest passes or sessions a run measures, however long they take.
const MIN_REPEATS: usize = 3;
/// Consecutive submits whose round trips make one latency sample (its
/// p50 and p90): short enough to fall wholly inside a fast or a slow
/// stretch of the host, with 25 round trips beyond its p90.
const LATENCY_BLOCK: usize = 250;
/// Most of a traced sweep pass the benchmark's own glue between layer
/// calls may take; beyond it the named layers no longer account for the
/// pass.
const MAX_GLUE_SHARE: f64 = 0.05;

/// Whether a run that started at `started` and has made `done` passes or
/// sessions starts another: until it has `MIN_REPEATS`, and then while
/// at least half of one more, taken to last as long as `last`, fits in
/// the budget. A run so ends within about half a pass of its budget.
fn another(started: Instant, budget: Duration, last: Duration, done: usize) -> bool {
    done < MIN_REPEATS || started.elapsed() + last / 2 < budget
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        rustc: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed '{val}'"))?,
            "--seconds" => a.seconds = val.parse().map_err(|_| format!("bad --seconds '{val}'"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{val}'")),
                }
            }
            "--rustc" => a.rustc = val,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&work);
    let steal_before = report::steal_ticks();
    let ran = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|()| match args.workload.as_str() {
            "sweep-acceptance" => run_sweep(Kind::Acceptance, &args, &work),
            "sweep-grid" => run_sweep(Kind::Grid, &args, &work),
            "serve-socket" => run_serve(&args, &work),
            other => Err(format!("unknown workload '{other}'")),
        });
    let _ = std::fs::remove_dir_all(&work);
    let (metrics, outcome, extra) = match ran {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let head = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"rustc\":\"{}\",\"steal_pct\":{}",
        report::esc(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::esc(&args.rustc),
        report::steal_pct(steal_before, report::steal_ticks())
    );
    report::print(&head, &metrics, &outcome, &extra);
    if !outcome.correct {
        std::process::exit(1);
    }
}

type Run = Result<(Metrics, Outcome, String), String>;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Pinned bytes for the default seed; other seeds are checked only by
/// the invariants that need none.
fn pinned(name: &str, seed: u64) -> Result<Option<Vec<u8>>, String> {
    if seed != DEFAULT_SEED {
        return Ok(None);
    }
    let path = Path::new("perfbench/expected").join(name);
    std::fs::read(&path)
        .map(Some)
        .map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Failure bookkeeping shared by the workloads.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    fn outcome(self) -> Outcome {
        Outcome {
            correct: self.failed == 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            notes: self.notes,
        }
    }
}

fn run_sweep(kind: Kind, args: &Args, work: &Path) -> Run {
    let spec = sweeps::make_spec(kind, args.seed);
    let spec_path = work.join("spec.json");
    let json = serde_json::to_string(&spec).map_err(|e| format!("spec: {e}"))?;
    std::fs::write(&spec_path, json).map_err(|e| format!("writing spec: {e}"))?;
    let expected = pinned(
        &format!("{}.seed{DEFAULT_SEED}.jsonl", args.workload),
        args.seed,
    )?;

    // Set-ups are spread over the run (a few before every pass) so
    // their median does not hinge on one moment of host load.
    let mut setups = Vec::new();
    let mut set_up = || -> Result<(bct_harness::SweepSpec, Vec<bct_harness::CellTask>), String> {
        let mut loaded = None;
        for _ in 0..SETUPS_PER_PASS {
            let t = Instant::now();
            loaded = Some(sweeps::setup(&spec_path)?);
            setups.push(secs(t.elapsed()));
        }
        loaded.ok_or_else(|| "no set-up ran".to_string())
    };
    let (spec, tasks) = set_up()?;
    let jobs = sweeps::spec_jobs(&spec) as f64;
    let out = work.join("rows.jsonl");
    let run_dir = work.join("run");

    let mut ck = Checks::default();
    let mut reference: Option<Vec<u8>> = None;
    let mut check_pass =
        |ck: &mut Checks, what: &str, cells: usize, failed: usize, bytes: &[u8]| {
            ck.attempted += cells as u64;
            if failed > 0 {
                ck.fail(format!("{what}: {failed} of {cells} cells failed"));
            }
            if cells != tasks.len() {
                ck.fail(format!("{what}: {cells} rows for {} cells", tasks.len()));
            }
            if let Some(exp) = &expected {
                if bytes != exp.as_slice() {
                    ck.fail(format!(
                        "{what}: rows differ from the pinned seed-{DEFAULT_SEED} rows"
                    ));
                }
            }
            match &reference {
                None => reference = Some(bytes.to_vec()),
                Some(r) if r.as_slice() != bytes => {
                    ck.fail(format!("{what}: rows differ from the first pass"))
                }
                Some(_) => {}
            }
        };

    // Warm-up: a grid pass is a third of a second, so one untimed (but
    // checked) pass first keeps first-touch costs out of the figures. An
    // acceptance pass is several seconds and allocates afresh, so it
    // needs none.
    if kind == Kind::Grid {
        let p = sweeps::measured_pass(kind, &spec, &out, &run_dir)?;
        check_pass(&mut ck, "warm-up pass", p.cells, p.failed, &p.bytes);
    }
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    let extra;
    if !args.trace {
        let mut pass_s = Vec::new();
        loop {
            if !pass_s.is_empty() {
                set_up()?;
            }
            let p = sweeps::measured_pass(kind, &spec, &out, &run_dir)?;
            check_pass(&mut ck, "pass", p.cells, p.failed, &p.bytes);
            pass_s.push(secs(p.wall));
            if !another(started, budget, p.wall, pass_s.len()) {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&run_dir);
        // Each figure is the median over the run's passes or set-ups:
        // pass times form one broad mode, which the median reads best (see
        // the README).
        let rates: Vec<f64> = pass_s.iter().map(|t| jobs / t).collect();
        let per_job_us: Vec<f64> = pass_s.iter().map(|t| t * 1e6 / jobs).collect();
        m.median("jobs_per_s", "1/s", &rates);
        // The serve-side metrics have nothing to time on a sweep, but the
        // result line carries every metric, and a metric that reads 0 or
        // the same on every run is refused. They restate the pass rate
        // (or its time per job), so their verdict is `jobs_per_s`'s.
        m.median("decisions_per_s", "1/s", &rates);
        m.median("decision_p50_us", "us", &per_job_us);
        m.median("decision_p90_us", "us", &per_job_us);
        m.median("replay_per_s", "1/s", &rates);
        m.median("setup_s", "s", &setups);
        m.one("peak_rss_mb", "MiB", report::peak_rss_mb());
        extra = format!(
            "\"passes\":{},\"jobs_per_pass\":{jobs},\"pass_s\":{:?},",
            pass_s.len(),
            pass_s
        );
    } else {
        let epoch = Instant::now();
        let (mut plain, mut traced): (Vec<f64>, Vec<sweeps::Layers>) = (Vec::new(), Vec::new());
        let mut last_counts: (u64, u64);
        let mut first_spans = Vec::new();
        loop {
            let p = sweeps::measured_pass(kind, &spec, &out, &run_dir)?;
            check_pass(&mut ck, "untraced pass", p.cells, p.failed, &p.bytes);
            plain.push(secs(p.wall));
            last_counts = (p.attempts, p.failed as u64);
            let (bytes, layers, spans) =
                sweeps::traced_pass(kind, &spec, &tasks, &out, &run_dir, epoch)?;
            check_pass(&mut ck, "traced pass", tasks.len(), layers.failed, &bytes);
            let glue = layers.glue_ns as f64 / layers.wall_ns.max(1) as f64;
            if glue > MAX_GLUE_SHARE {
                ck.fail(format!(
                    "the layers account for only {:.1}% of the traced pass",
                    100.0 * (1.0 - glue)
                ));
            }
            if traced.is_empty() {
                first_spans = spans;
            }
            let last = p.wall + Duration::from_nanos(layers.wall_ns);
            traced.push(layers);
            if !another(started, budget, last, traced.len()) {
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&run_dir);
        write_spans(args, &first_spans)?;
        let ms = |f: fn(&sweeps::Layers) -> u64| -> Vec<f64> {
            traced.iter().map(|l| f(l) as f64 / 1e6).collect()
        };
        let put_ms = |m: &mut Metrics, name, f: fn(&sweeps::Layers) -> u64| {
            m.median(name, "ms", &ms(f));
        };
        let srpt = ms(|l| l.srpt_ns);
        let eta = ms(|l| l.eta_ns);
        let share: Vec<f64> = traced
            .iter()
            .map(|l| 100.0 * (l.srpt_ns + l.eta_ns) as f64 / l.cell_ns.max(1) as f64)
            .collect();
        m.median("lp.bounds.srpt_self_ms", "ms", &srpt);
        m.median("lp.bounds.eta_self_ms", "ms", &eta);
        m.median("lp.bounds.share_pct", "%", &share);
        put_ms(&mut m, "sim.engine.self_ms", |l| l.engine_ns);
        let last = traced.last().cloned().unwrap_or_default();
        m.one("sim.engine.events", "count", last.events as f64);
        let ev_rate: Vec<f64> = traced
            .iter()
            .map(|l| l.events as f64 / (l.engine_ns.max(1) as f64 / 1e9))
            .collect();
        let job_rate: Vec<f64> = traced
            .iter()
            .map(|l| l.jobs as f64 / (l.engine_ns.max(1) as f64 / 1e9))
            .collect();
        m.median("sim.engine.events_per_s", "1/s", &ev_rate);
        m.median("sim.engine.jobs_per_s", "1/s", &job_rate);
        put_ms(&mut m, "workloads.jobs.self_ms", |l| l.jobs_ns);
        m.one("workloads.jobs.jobs", "count", last.jobs as f64);
        put_ms(&mut m, "harness.spec.self_ms", |l| l.spec_ns);
        put_ms(&mut m, "harness.churn.self_ms", |l| l.churn_ns);
        m.one("harness.churn.mutations", "count", last.mutations as f64);
        put_ms(&mut m, "harness.rows.self_ms", |l| l.rows_ns);
        m.one("harness.rows.bytes", "bytes", last.row_bytes as f64);
        put_ms(&mut m, "harness.rundir.self_ms", |l| l.rundir_ns);
        m.one("harness.rundir.files", "count", last.rundir_files as f64);
        // Untraced wall minus the attributed layer self times: what the
        // real path's pool, batching and aggregation cost beyond the
        // layers themselves (plus the noise between the two passes).
        let attributed: Vec<f64> = traced.iter().map(|l| layer_sum(l) as f64 / 1e6).collect();
        let other = median(&plain) * 1e3 - median(&attributed);
        m.one("harness.other_ms", "ms", other);
        m.one("harness.cells", "count", tasks.len() as f64);
        m.one("harness.cells_failed", "count", last_counts.1 as f64);
        m.one("harness.attempts", "count", last_counts.0 as f64);
        put_serve_zeros(&mut m);
        let traced_wall: Vec<f64> = traced.iter().map(|l| l.wall_ns as f64 / 1e9).collect();
        let overhead = 100.0 * (median(&traced_wall) - median(&plain)) / median(&plain);
        m.one("trace.overhead_pct", "%", overhead);
        extra = format!(
            "\"untraced_pass_s\":{:?},\"traced_pass_s\":{:?},\"glue_ms\":{},",
            plain,
            traced_wall,
            median(&ms(|l| l.glue_ns))
        );
    }
    Ok((m, ck.outcome(), extra))
}

/// Write the spans of the run's first traced pass or session.
fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = PathBuf::from(".bench_results")
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
    trace::write_out(&path, spans).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Self time inside the named layers (everything but glue).
fn layer_sum(l: &sweeps::Layers) -> u64 {
    l.srpt_ns
        + l.eta_ns
        + l.engine_ns
        + l.jobs_ns
        + l.spec_ns
        + l.churn_ns
        + l.rows_ns
        + l.rundir_ns
}

const SWEEP_LAYER_METRICS: [(&str, &str); 20] = [
    ("lp.bounds.srpt_self_ms", "ms"),
    ("lp.bounds.eta_self_ms", "ms"),
    ("lp.bounds.share_pct", "%"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.events", "count"),
    ("sim.engine.events_per_s", "1/s"),
    ("sim.engine.jobs_per_s", "1/s"),
    ("workloads.jobs.self_ms", "ms"),
    ("workloads.jobs.jobs", "count"),
    ("harness.spec.self_ms", "ms"),
    ("harness.churn.self_ms", "ms"),
    ("harness.churn.mutations", "count"),
    ("harness.rows.self_ms", "ms"),
    ("harness.rows.bytes", "bytes"),
    ("harness.rundir.self_ms", "ms"),
    ("harness.rundir.files", "count"),
    ("harness.other_ms", "ms"),
    ("harness.cells", "count"),
    ("harness.cells_failed", "count"),
    ("harness.attempts", "count"),
];

const SERVE_LAYER_METRICS: [(&str, &str); 17] = [
    ("serve.net.read_wait_p50_us", "us"),
    ("serve.net.write_p50_us", "us"),
    ("serve.busy_p50_us", "us"),
    ("serve.busy_p90_us", "us"),
    ("serve.protocol.codec_ns", "ns"),
    ("serve.apply_p50_us", "us"),
    ("serve.log.append_p50_us", "us"),
    ("serve.log.bytes", "bytes"),
    ("serve.log.records", "count"),
    ("serve.hash_us", "us"),
    ("serve.snapshot_us", "us"),
    ("serve.mutate_us", "us"),
    ("serve.mutations", "count"),
    ("serve.replay.read_ms", "ms"),
    ("serve.replay.apply_ms", "ms"),
    ("serve.commands", "count"),
    ("serve.rejected", "count"),
];

/// A workload reports every per-layer metric; a layer it never calls
/// reads 0.
fn put_serve_zeros(m: &mut Metrics) {
    for (name, unit) in SERVE_LAYER_METRICS {
        m.one(name, unit, 0.0);
    }
}

fn put_sweep_zeros(m: &mut Metrics) {
    for (name, unit) in SWEEP_LAYER_METRICS {
        m.one(name, unit, 0.0);
    }
}

fn run_serve(args: &Args, work: &Path) -> Run {
    let cfg = serve::config(args.seed);
    let cmds = serve::command_stream(&cfg, args.seed)?;
    let expected = pinned(&format!("serve-socket.seed{DEFAULT_SEED}.hash"), args.seed)?
        .map(|b| String::from_utf8_lossy(&b).trim().to_string());
    let log = work.join("journal.log");
    let mut ck = Checks::default();
    let mut live: Option<u64> = None;
    let mut check_session = |ck: &mut Checks, what: &str, s: &serve::Session| {
        ck.attempted += s.attempted;
        ck.failed += s.failed;
        for e in s.errors.iter().take(5) {
            ck.notes.push(format!("FAILED: {what}: {e}"));
        }
        if s.submits != serve::JOBS as u64 {
            ck.fail(format!(
                "{what}: {} of {} submits assigned",
                s.submits,
                serve::JOBS
            ));
        }
        let hex = format!("{:#018x}", s.live_hash);
        if let Some(exp) = &expected {
            if hex != *exp {
                ck.fail(format!("{what}: final state hash {hex}, pinned {exp}"));
            }
        }
        match live {
            None => live = Some(s.live_hash),
            Some(h) if h != s.live_hash => ck.fail(format!(
                "{what}: final state hash {hex} differs from the first session"
            )),
            Some(_) => {}
        }
    };

    let epoch = Instant::now();
    let mut k = 0usize;
    // Warm-up: one untimed (but checked) session keeps first-touch costs
    // out of the figures.
    let s = serve::session(
        &cfg,
        &cmds,
        &serve::socket_path(work, k),
        &log,
        false,
        epoch,
    )?;
    k += 1;
    check_session(&mut ck, "warm-up session", &s);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut m = Metrics::default();
    let mut plain: Vec<serve::Session> = Vec::new();
    let mut traced: Vec<serve::Session> = Vec::new();
    let mut round = Instant::now();
    loop {
        let s = serve::session(
            &cfg,
            &cmds,
            &serve::socket_path(work, k),
            &log,
            false,
            epoch,
        )?;
        k += 1;
        check_session(&mut ck, "session", &s);
        plain.push(s);
        if args.trace {
            let s = serve::session(&cfg, &cmds, &serve::socket_path(work, k), &log, true, epoch)?;
            k += 1;
            check_session(&mut ck, "traced session", &s);
            traced.push(s);
        }
        if !another(started, budget, round.elapsed(), plain.len()) {
            break;
        }
        round = Instant::now();
    }
    let per = |v: &[serve::Session], f: fn(&serve::Session) -> f64| -> Vec<f64> {
        v.iter().map(f).collect()
    };
    let replays: Vec<f64> = plain
        .iter()
        .flat_map(|s| s.replays_s.iter().copied())
        .collect();
    let extra = format!(
        "\"sessions\":{},\"commands_per_session\":{},\"submit_s\":{:?},\"replay_s\":{:?},",
        plain.len() + traced.len(),
        cmds.len(),
        per(&plain, |s| secs(s.submit)),
        replays
    );
    if !args.trace {
        // Each figure is read from the run's fastest samples (see
        // `report::FAST_QUANTILE`): windows of the submit phase, blocks
        // of round trips, replays, set-ups. These samples split between
        // the host's two speed levels, where a median would jump between
        // them from run to run.
        let rates: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.windows.iter())
            .map(|w| w.submits as f64 / secs(w.wall))
            .collect();
        let block_us = |q: f64| -> Vec<f64> {
            plain
                .iter()
                .flat_map(|s| s.latency_ns.chunks_exact(LATENCY_BLOCK))
                .map(|b| latency_quantile_us(b, q))
                .collect()
        };
        // `jobs_per_s` is the sweeps' metric; every submit is one job, so
        // here it restates the decision rate.
        m.fastest_rate("jobs_per_s", "1/s", &rates);
        m.fastest_rate("decisions_per_s", "1/s", &rates);
        m.fastest_time("decision_p50_us", "us", &block_us(0.5));
        m.fastest_time("decision_p90_us", "us", &block_us(0.9));
        let records = per(&plain, |s| {
            s.replay_records as f64 / s.replays_s.len().max(1) as f64
        });
        let replay_rates: Vec<f64> = plain
            .iter()
            .zip(&records)
            .flat_map(|(s, r)| s.replays_s.iter().map(move |t| r / t))
            .collect();
        m.fastest_rate("replay_per_s", "1/s", &replay_rates);
        m.fastest_time("setup_s", "s", &per(&plain, |s| secs(s.setup)));
        m.one("peak_rss_mb", "MiB", report::peak_rss_mb());
        return Ok((m, ck.outcome(), extra));
    }

    // Server-side split, pooled over the traced sessions.
    let (mut read_wait, mut write, mut busy, mut append) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut records = 0;
    for (i, s) in traced.iter().enumerate() {
        let split = serve::server_split(&s.spans, &cmds);
        read_wait.extend(split.read_wait_us);
        write.extend(split.write_us);
        busy.extend(split.busy_us);
        append.extend(split.append_us);
        records = split.records;
        if i == 0 {
            write_spans(args, &s.spans)?;
        }
    }
    let inproc = serve::in_process(&cfg, &cmds, &work.join("inproc.log"))?;
    ck.attempted += cmds.len() as u64;
    if inproc.final_hash != live {
        ck.fail("in-process apply of the same stream ended on another state hash".into());
    }
    let mut codec = Vec::new();
    for _ in 0..3 {
        match serve::codec_ns(&cmds, &inproc.replies) {
            Ok(ns) => codec.push(ns),
            Err(e) => ck.fail(e),
        }
    }
    let all: Vec<&serve::Session> = plain.iter().chain(&traced).collect();
    let per_replay = |x: f64| x * 1e3 / serve::REPLAYS_PER_SESSION as f64;
    let read_ms: Vec<f64> = all.iter().map(|s| per_replay(s.replay_read_s)).collect();
    let apply_ms: Vec<f64> = all.iter().map(|s| per_replay(s.replay_apply_s)).collect();
    let last = traced.last().ok_or("no traced session ran")?;
    put_sweep_zeros(&mut m);
    m.median("serve.net.read_wait_p50_us", "us", &read_wait);
    m.median("serve.net.write_p50_us", "us", &write);
    m.put("serve.busy_p50_us", "us", quantile(&busy, 0.5), &busy);
    m.put("serve.busy_p90_us", "us", quantile(&busy, 0.9), &busy);
    m.median("serve.protocol.codec_ns", "ns", &codec);
    m.median("serve.apply_p50_us", "us", &inproc.submit_us);
    m.median("serve.log.append_p50_us", "us", &append);
    m.one("serve.log.bytes", "bytes", last.log_bytes as f64);
    m.one("serve.log.records", "count", records as f64);
    m.median("serve.hash_us", "us", &inproc.hash_us);
    m.median("serve.snapshot_us", "us", &inproc.snapshot_us);
    m.median("serve.mutate_us", "us", &inproc.mutate_us);
    m.one("serve.mutations", "count", last.mutations as f64);
    m.median("serve.replay.read_ms", "ms", &read_ms);
    m.median("serve.replay.apply_ms", "ms", &apply_ms);
    m.one("serve.commands", "count", last.commands as f64);
    m.one("serve.rejected", "count", last.failed as f64);
    let plain_submit = per(&plain, |s| secs(s.submit));
    let traced_submit = per(&traced, |s| secs(s.submit));
    let overhead = 100.0 * (median(&traced_submit) - median(&plain_submit)) / median(&plain_submit);
    m.one("trace.overhead_pct", "%", overhead);
    Ok((m, ck.outcome(), extra))
}

fn latency_quantile_us(ns: &[u32], q: f64) -> f64 {
    let us: Vec<f64> = ns.iter().map(|&ns| f64::from(ns) / 1e3).collect();
    quantile(&us, q)
}
