//! `bct` — the bandwidth-constrained tree scheduling command line.
//!
//! ```text
//! bct render      --topo fat-tree:4,2,3 [--dot]
//! bct reduce      --topo random:6,6 [--seed 1]
//! bct run         --topo star:3,3 --jobs 200 --load 0.8 [--sizes pow:2,4]
//!                 [--policy sjf+greedy:0.5] [--speeds uniform:1.5] [--seed 1]
//!                 [--unrelated uniform-factor:0.5,2]
//! bct sweep       --spec specs/golden_sweep.json [--workers 4]
//!                 [--out rows.jsonl] [--summary-out summary.json] [--quiet]
//! bct sweep       --topo fat-tree:3,2,2 --speeds-list 1,1.5,2
//!                 [--policies sjf+greedy:0.5,sjf+closest,fifo+greedy:0.5]
//! bct bound       --topo star:2,2 --jobs 4 [--lp-steps 24]
//! bct verify-dual --eps 0.25 [--jobs 40] [--unrelated] [--seed 1]
//! bct experiments [--full] [--write PATH]
//! ```

mod opts;

use bct_analysis::experiments::{run_all, Scale};
use bct_analysis::metrics::{FlowStats, LayerBreakdown};
use bct_analysis::table::{num, Table};
use bct_core::{render, Instance, SpeedProfile};
use bct_harness::spec;
use bct_lp::bounds::bound_report;
use bct_lp::model::{lp_lower_bound, LpGrid};
use bct_workloads::jobs::{SizeDist, UnrelatedModel, WorkloadSpec};
use opts::Opts;

/// Exit code for a `sweep --spec` run in which some cells failed.
const EXIT_PARTIAL_FAILURE: i32 = 3;

fn main() {
    // `lint` has its own flag grammar (--machine/--baseline/--graph), so it
    // bypasses Opts and runs the exact same driver as the standalone binary.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("lint") {
        std::process::exit(i32::from(bct_lint::run_cli(&argv[1..])));
    }
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let result = match opts.command.as_str() {
        "" => {
            eprintln!("{}", usage());
            std::process::exit(2);
        }
        "render" => cmd_render(&opts),
        "reduce" => cmd_reduce(&opts),
        "run" => cmd_run(&opts),
        "sweep" => cmd_sweep(&opts),
        "bound" => cmd_bound(&opts),
        "verify-dual" => cmd_verify_dual(&opts),
        "experiments" => cmd_experiments(&opts),
        "lemmas" => cmd_lemmas(&opts),
        "packetize" => cmd_packetize(&opts),
        "gen" => cmd_gen(&opts),
        "serve" => cmd_serve(&opts),
        "replay" => cmd_replay(&opts),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => {
            eprintln!("error: unknown command '{other}'\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn usage() -> String {
    "bct — scheduling in bandwidth-constrained tree networks (Im & Moseley, SPAA'15)\n\n\
     commands:\n  \
     render       print a topology (ASCII, or DOT with --dot)\n  \
     reduce       apply the §3.3 broomstick reduction and show the mapping\n  \
     run          simulate one policy on one workload; print flow statistics\n  \
     sweep        with --spec FILE: parallel sweep over a declarative grid\n               \
     (topologies × workloads × policies × speeds × replications) with\n               \
     [--workers N] [--out rows.jsonl] [--summary-out FILE] [--quiet]\n               \
     [--shard i/N]; exits 3 if cells failed.\n               \
     [--run-dir DIR]: durable resumable run — checksummed rows land in\n               \
     DIR as they finish; re-invoking the same spec resumes (skips\n               \
     checksum-valid cells, hard error on spec mismatch), and N\n               \
     concurrent invocations cooperate via atomic chunk claims\n               \
     [--chunk-size N] [--claim-timeout-ms MS]. [--procs N] forks N\n               \
     such workers against --run-dir and merges their output.\n               \
     without --spec: inline policies × speeds table on one workload\n  \
     bound        OPT lower bounds (LP-certified + combinatorial)\n  \
     verify-dual  replay the §3.5/3.6 dual fitting and check Lemmas 5-7\n  \
     gen          generate an instance file (bct run --instance FILE replays it)\n  \
     lemmas       check Lemmas 1-2 live on a chosen workload\n  \
     packetize    store-and-forward vs packetized routing (§2 extension)\n  \
     experiments  regenerate the E1-E18 tables (EXPERIMENTS.md)\n  \
     serve        online dispatch service on a live session, journaling accepted\n               \
     commands to --log; --listen ADDR / --unix PATH for a socket\n               \
     server, or --bench [--jobs N] [--load R] [--out FILE] for the\n               \
     open-loop Poisson latency bench (writes target/BENCH_serve.json)\n  \
     replay       re-execute a --log journal on a fresh replica and verify\n               \
     every embedded state hash bit for bit (exit 1 on divergence);\n               \
     --policy SPEC re-runs the stream under a candidate policy\n               \
     instead (differential mode: hashes reported, not enforced)\n  \
     lint         run the workspace contract linter (same driver as the\n               \
     standalone bct-lint binary): local rules plus call-graph\n               \
     reachability; [--root DIR] [--machine FILE] [--baseline FILE]\n               \
     [--graph FILE]; exit 0 clean / 1 findings / 2 usage or IO error\n\n\
     run `bct <command>` with no flags to see its defaults in action; see the\n\
     crate docs for the full spec grammar (topologies, sizes, speeds, policies)."
        .to_string()
}

fn build_instance(opts: &Opts) -> Result<Instance, String> {
    // A saved instance file takes precedence over generator flags.
    match opts.get("instance", "").as_str() {
        "" => {}
        path => {
            return bct_workloads::trace_io::load(std::path::Path::new(path))
                .map_err(|e| format!("loading {path}: {e}"));
        }
    }
    let seed = opts.get_usize("seed", 1)? as u64;
    let tree = spec::parse_topology(&opts.get("topo", "fat-tree:2,2,2"), seed)?;
    let n = opts.get_usize("jobs", 100)?;
    let sizes = spec::parse_sizes(&opts.get("sizes", "pow:2,4"))?;
    let load = opts.get_f64("load", 0.8)?;
    let unrelated = match opts.get("unrelated", "").as_str() {
        "" => None,
        s => Some(parse_unrelated(s)?),
    };
    let mut w = WorkloadSpec::poisson_identical(n, load, sizes, &tree);
    w.unrelated = unrelated;
    let inst = w.instance(&tree, seed).map_err(|e| e.to_string())?;
    // The §4 future-work extension: a fraction of jobs originates at
    // random leaves instead of the root.
    let origins = opts.get_f64("origins", 0.0)?;
    if origins > 0.0 {
        Ok(bct_workloads::jobs::with_random_leaf_origins(
            &inst, origins, seed,
        ))
    } else {
        Ok(inst)
    }
}

fn parse_unrelated(s: &str) -> Result<UnrelatedModel, String> {
    let (name, rest) = s.split_once(':').unwrap_or((s, ""));
    let nums: Vec<f64> = rest
        .split(',')
        .filter(|x| !x.is_empty())
        .map(|x| x.parse().unwrap_or(f64::NAN))
        .collect();
    let g = |i: usize| -> Result<f64, String> {
        nums.get(i)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("missing argument {i} for --unrelated {name}"))
    };
    match name {
        "uniform-factor" => Ok(UnrelatedModel::UniformFactor { lo: g(0)?, hi: g(1)? }),
        "related" => Ok(UnrelatedModel::RelatedSpeeds { lo: g(0)?, hi: g(1)? }),
        "affinity" => Ok(UnrelatedModel::Affinity {
            p_fast: g(0)?,
            slow_factor: g(1)?,
        }),
        other => Err(format!("unknown unrelated model '{other}'")),
    }
}

fn cmd_render(opts: &Opts) -> Result<(), String> {
    let seed = opts.get_usize("seed", 1)? as u64;
    let tree = spec::parse_topology(&opts.get("topo", "fat-tree:2,2,2"), seed)?;
    if opts.get_bool("dot") {
        print!("{}", render::dot(&tree, "tree"));
    } else {
        print!("{}", render::ascii(&tree));
        println!(
            "\n{} nodes, {} routers, {} machines, max depth {}",
            tree.len(),
            tree.len() - 1 - tree.num_leaves(),
            tree.num_leaves(),
            tree.max_leaf_depth()
        );
    }
    Ok(())
}

fn cmd_reduce(opts: &Opts) -> Result<(), String> {
    let seed = opts.get_usize("seed", 1)? as u64;
    let tree = spec::parse_topology(&opts.get("topo", "random:6,6"), seed)?;
    let bs = bct_core::Broomstick::reduce(&tree);
    println!("== T ==\n{}", render::ascii(&tree));
    println!("== T' (broomstick) ==\n{}", render::ascii(bs.tree()));
    println!("leaf correspondence (T -> T', depth -> depth):");
    for &leaf in tree.leaves() {
        let p = bs.prime_leaf_of(&tree, leaf);
        println!(
            "  {leaf} -> {p}   ({} -> {})",
            tree.depth(leaf),
            bs.tree().depth(p)
        );
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let inst = build_instance(opts)?;
    let combo = spec::parse_policy(&opts.get("policy", "sjf+greedy:0.5"))?;
    let speeds = spec::parse_speeds(&opts.get("speeds", "uniform:1.5"))?;
    let out = combo.run(&inst, &speeds).map_err(|e| e.to_string())?;
    if out.unfinished > 0 {
        return Err(format!("{} jobs unfinished", out.unfinished));
    }
    let stats = FlowStats::from_outcome(&inst, &out);
    let layers = LayerBreakdown::from_outcome(&inst, &out);
    println!("policy          : {}", combo.label());
    println!("jobs            : {}", stats.n);
    println!("events          : {}", out.events);
    println!("total flow      : {:.2}", stats.total_flow);
    println!("mean flow       : {:.3}", stats.mean_flow);
    println!("max flow        : {:.3}", stats.max_flow);
    println!("l2 flow         : {:.3}", stats.l2_flow);
    println!("fractional flow : {:.2}", stats.fractional_flow);
    println!("mean stretch    : {:.3}", stats.mean_stretch);
    println!("makespan        : {:.2}", stats.makespan);
    println!(
        "layers (mean)   : entry {:.3} | interior {:.3} | leaf {:.3}",
        layers.entry, layers.interior, layers.leaf
    );
    let util = bct_analysis::metrics::Utilization::from_outcome(&inst, &out);
    println!(
        "utilization     : entry {:.1}% | interior {:.1}% | leaf {:.1}%",
        100.0 * util.entry_layer,
        100.0 * util.interior_layer,
        100.0 * util.leaf_layer
    );
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    match opts.get("spec", "").as_str() {
        "" => {}
        path => return cmd_sweep_spec(opts, path),
    }
    let inst = build_instance(opts)?;
    let speeds: Vec<f64> = opts
        .get_list("speeds-list", "1,1.25,1.5,2")
        .iter()
        .map(|s| s.parse().map_err(|_| format!("bad speed '{s}'")))
        .collect::<Result<_, _>>()?;
    let policies = opts.get_list(
        "policies",
        "sjf+greedy:0.5,sjf+closest,sjf+least-volume,fifo+greedy:0.5",
    );
    let mut headers = vec!["policy".to_string()];
    headers.extend(speeds.iter().map(|s| format!("s={s}")));
    let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("mean flow time", &hrefs);
    for pspec in &policies {
        let combo = spec::parse_policy(pspec)?;
        let mut row = vec![combo.label()];
        for &s in &speeds {
            let flow = combo.total_flow(&inst, &SpeedProfile::Uniform(s));
            row.push(num(flow / inst.n() as f64));
        }
        table.push_row(row);
    }
    println!("{table}");
    Ok(())
}

/// The harness-backed sweep: declarative spec in, JSONL + summary out.
///
/// Rows stream to `--out` in completion order while workers race; once
/// the sweep finishes the file is rewritten in canonical sorted form,
/// which is byte-identical at any `--workers` count. Failed cells never
/// abort the sweep — they become `Failed` rows with reproducer seeds,
/// and the process exits with code 3.
/// Parse `--shard i/N` (e.g. `0/4`): run only cells with `cell % N == i`.
fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let err = || format!("--shard expects i/N with 0 <= i < N, got '{s}'");
    let (i, n) = s.split_once('/').ok_or_else(err)?;
    let i: usize = i.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(err());
    }
    Ok((i, n))
}

fn cmd_sweep_spec(opts: &Opts, path: &str) -> Result<(), String> {
    let sweep_spec = bct_harness::SweepSpec::load(std::path::Path::new(path))?;
    let shard = match opts.try_get("shard") {
        None => None,
        Some(s) => Some(parse_shard(&s)?),
    };
    let procs = opts.get_usize("procs", 0)?;
    if procs > 0 || opts.try_get("run-dir").is_some() {
        let Some(dir) = opts.try_get("run-dir") else {
            return Err(
                "--procs needs --run-dir DIR (the shared directory workers cooperate on)"
                    .into(),
            );
        };
        if shard.is_some() {
            return Err(
                "--shard cannot be combined with --run-dir: the claim protocol already \
                 partitions cells dynamically"
                    .into(),
            );
        }
        if procs > 0 {
            return cmd_sweep_procs(opts, path, &sweep_spec, &dir, procs);
        }
        let workers = opts.get_usize("workers", bct_harness::exec::available_workers())?;
        return cmd_sweep_rundir(opts, &sweep_spec, &dir, workers);
    }
    let workers = opts.get_usize("workers", bct_harness::exec::available_workers())?;
    let run_opts = bct_harness::SweepOptions {
        workers,
        progress: if opts.get_bool("quiet") {
            bct_harness::sweep::ProgressMode::Silent
        } else {
            bct_harness::sweep::ProgressMode::Stderr
        },
        shard,
        ..Default::default()
    };
    let out_path = opts.get("out", "sweep.jsonl");
    let file = std::fs::File::create(&out_path)
        .map_err(|e| format!("creating {out_path}: {e}"))?;
    let mut sink = bct_harness::JsonlSink::new(std::io::BufWriter::new(file));
    // Cell panics are caught and become Failed rows; silence the
    // default panic hook for the sweep so each one doesn't also dump a
    // backtrace over the progress stream.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = bct_harness::run_sweep(&sweep_spec, &run_opts, &mut sink);
    std::panic::set_hook(prev_hook);
    let report = result?;
    sink.into_inner().map_err(|e| format!("flushing {out_path}: {e}"))?;
    // Replace the completion-ordered stream with the canonical sorted
    // serialization (the determinism contract of the harness).
    std::fs::write(&out_path, report.sorted_jsonl())
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    finish_sweep(opts, &report, &out_path, &format!("{workers} workers"))
}

/// The run-dir tunables shared by the resumable and multi-process
/// sweep modes.
fn rundir_options(opts: &Opts) -> Result<bct_harness::RunDirOptions, String> {
    let chunk_size = match opts.try_get("chunk-size") {
        None => None,
        Some(v) => {
            let c: usize =
                v.parse().map_err(|_| format!("bad --chunk-size '{v}': need an integer ≥ 1"))?;
            Some(c)
        }
    };
    Ok(bct_harness::RunDirOptions {
        chunk_size,
        claim_timeout: std::time::Duration::from_millis(
            opts.get_usize("claim-timeout-ms", 30_000)? as u64,
        ),
        poll: std::time::Duration::from_millis(opts.get_usize("claim-poll-ms", 50)?.max(1) as u64),
    })
}

/// `bct sweep --spec S --run-dir DIR`: the durable, resumable path.
/// Rows land in the run dir as checksummed per-chunk files the moment
/// they finish; a re-invocation (same spec, any process, any number of
/// them concurrently) claims unfinished chunks, recovers checksum-valid
/// rows instead of recomputing them, and the merged `--out` is
/// byte-identical to a fresh one-shot run.
fn cmd_sweep_rundir(
    opts: &Opts,
    spec: &bct_harness::SweepSpec,
    dir: &str,
    workers: usize,
) -> Result<(), String> {
    let run_opts = bct_harness::SweepOptions {
        workers,
        progress: if opts.get_bool("quiet") {
            bct_harness::sweep::ProgressMode::Silent
        } else {
            bct_harness::sweep::ProgressMode::Stderr
        },
        ..Default::default()
    };
    let rd_opts = rundir_options(opts)?;
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result =
        bct_harness::run_sweep_dir(spec, &run_opts, &rd_opts, std::path::Path::new(dir));
    std::panic::set_hook(prev_hook);
    let (report, jsonl) = result?;
    let out_path = opts.get("out", "sweep.jsonl");
    std::fs::write(&out_path, jsonl).map_err(|e| format!("writing {out_path}: {e}"))?;
    finish_sweep(opts, &report, &out_path, &format!("{workers} workers, run dir {dir}"))
}

/// `bct sweep --spec S --run-dir DIR --procs N`: fork N child `bct
/// sweep` workers against the shared run dir, wait, and merge. Each
/// child is a full claim-protocol worker, so a killed child's chunks
/// are taken over by its siblings (after the heartbeat timeout) or by
/// the next invocation.
fn cmd_sweep_procs(
    opts: &Opts,
    spec_path: &str,
    spec: &bct_harness::SweepSpec,
    dir: &str,
    procs: usize,
) -> Result<(), String> {
    let rd_opts = rundir_options(opts)?;
    // Create and validate the manifest up front: a spec mismatch or
    // layout conflict fails before any fork, and children can never
    // race differing layouts into existence.
    bct_harness::RunDir::open_or_create(std::path::Path::new(dir), spec, rd_opts.chunk_size)?;
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    // Per-child worker threads: default 1 — process-level parallelism
    // is the point of --procs.
    let workers = opts.get_usize("workers", 1)?;
    let timeout_ms = opts.get_usize("claim-timeout-ms", 30_000)?;
    let mut children = Vec::with_capacity(procs);
    for i in 0..procs {
        let child_out = std::path::Path::new(dir).join(format!("worker-{i}.merged.jsonl"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("sweep")
            .arg("--spec")
            .arg(spec_path)
            .arg("--run-dir")
            .arg(dir)
            .arg("--workers")
            .arg(workers.to_string())
            .arg("--claim-timeout-ms")
            .arg(timeout_ms.to_string())
            .arg("--out")
            .arg(&child_out)
            .arg("--quiet")
            .stdout(std::process::Stdio::null());
        let child = cmd.spawn().map_err(|e| format!("spawning worker {i}: {e}"))?;
        children.push((i, child));
    }
    let mut died = 0usize;
    for (i, mut child) in children {
        let status = child.wait().map_err(|e| format!("waiting for worker {i}: {e}"))?;
        match status.code() {
            // 3 = cells failed deterministically; the rows exist, the
            // parent's merged report carries the Failed rows and the
            // parent exits 3 itself.
            Some(0) | Some(EXIT_PARTIAL_FAILURE) => {}
            _ => {
                eprintln!("sweep worker {i} died: {status}");
                died += 1;
            }
        }
    }
    if died > 0 {
        return Err(format!(
            "{died} of {procs} sweep workers died; the run dir keeps every finished \
             row — re-invoke with the same --run-dir to resume"
        ));
    }
    // Every chunk carries a done marker now; this pass recomputes
    // nothing and merges.
    cmd_sweep_rundir(opts, spec, dir, workers)
}

/// Shared tail of every spec-driven sweep mode: summary line, optional
/// summary JSON, aggregate table, and the failed-cell exit protocol.
fn finish_sweep(
    opts: &Opts,
    report: &bct_harness::SweepReport,
    out_path: &str,
    detail: &str,
) -> Result<(), String> {
    println!(
        "sweep '{}': {} cells ({} ok, {} failed) in {:.2}s, {detail}",
        report.name,
        report.rows.len(),
        report.ok,
        report.failed,
        report.elapsed.as_secs_f64(),
    );
    println!("rows written to {out_path}");
    if let Some(summary_path) = opts.try_get("summary-out") {
        std::fs::write(&summary_path, report.agg.summary_json())
            .map_err(|e| format!("writing {summary_path}: {e}"))?;
        println!("summary written to {summary_path}");
    }
    println!("\n{}", report.agg.render());
    if !report.all_ok() {
        for row in &report.rows {
            if let bct_harness::sweep::RowOutcome::Failed { panic_msg } = &row.outcome {
                eprintln!(
                    "FAILED cell {}: topo={} workload={} policy={} speeds={} seed={} — {}",
                    row.cell, row.topo, row.workload, row.policy, row.speeds, row.seed,
                    panic_msg,
                );
            }
        }
        std::process::exit(EXIT_PARTIAL_FAILURE);
    }
    Ok(())
}

fn cmd_bound(opts: &Opts) -> Result<(), String> {
    let inst = build_instance(opts)?;
    let (eta, pooled, best) = bound_report(&inst, 1.0);
    println!("jobs                  : {}", inst.n());
    println!("η path-work bound     : {eta:.3}");
    println!("pooled-SRPT bound     : {pooled:.3}");
    println!("combined bound        : {best:.3}");
    if inst.n() <= 8 {
        let steps = opts.get_usize("lp-steps", 24)?;
        match lp_lower_bound(&inst, &SpeedProfile::unit(), LpGrid::auto(&inst, steps)) {
            Some(lp) => println!("LP-certified bound    : {lp:.3}  ({steps} steps)"),
            None => println!("LP-certified bound    : infeasible grid (raise --lp-steps)"),
        }
    } else {
        println!("LP-certified bound    : skipped (needs --jobs ≤ 8; simplex is dense)");
    }
    println!(
        "any schedule's total flow is ≥ the combined bound; e.g. greedy at s=1: {:.3}",
        spec::parse_policy("sjf+greedy:0.5")?.total_flow(&inst, &SpeedProfile::unit())
    );
    Ok(())
}

fn cmd_verify_dual(opts: &Opts) -> Result<(), String> {
    let eps = opts.get_f64("eps", 0.25)?;
    let seed = opts.get_usize("seed", 1)? as u64;
    let n = opts.get_usize("jobs", 40)?;
    let tree = spec::parse_topology(&opts.get("topo", "broomstick:2,3,1"), seed)?;
    if !tree.is_broomstick() {
        return Err("dual fitting needs a broomstick topology".into());
    }
    let unrelated = opts.get_bool("unrelated");
    let mut w = WorkloadSpec {
        n,
        arrivals: bct_workloads::jobs::ArrivalProcess::Poisson { rate: 0.8 },
        sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 2 },
        unrelated: None,
    };
    if unrelated {
        w.unrelated = Some(UnrelatedModel::UniformFactor { lo: 0.5, hi: 2.0 });
    }
    let inst = w.instance(&tree, seed).map_err(|e| e.to_string())?;
    let rep = bct_lp::dualfit::verify(&inst, eps).map_err(|e| e.to_string())?;
    println!("setting          : {:?}", rep.setting);
    println!("constraint checks: {}", rep.samples);
    println!("violations       : {}", rep.violations.len());
    for v in rep.violations.iter().take(10) {
        println!("  {v}");
    }
    println!("ALG fractional   : {:.3}", rep.alg_fractional_cost);
    println!("Σβ               : {:.3}", rep.beta_sum);
    println!("∫Σα              : {:.3}", rep.alpha_integral);
    println!("dual objective   : {:.4}", rep.dual_objective);
    println!("dual / ALG       : {:.4}", rep.ratio);
    if rep.feasible() {
        println!("Lemmas 5-7 hold on this run ✓");
        Ok(())
    } else {
        Err("dual constraints violated".into())
    }
}

/// Generate an instance and write it to a JSON file, for exactly
/// reproducible runs across machines (`bct run --instance FILE`).
fn cmd_gen(opts: &Opts) -> Result<(), String> {
    let inst = build_instance(opts)?;
    let path = opts.get("out", "instance.json");
    bct_workloads::trace_io::save(&inst, std::path::Path::new(&path))
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {path}: {} jobs on {} nodes ({:?} endpoints{})",
        inst.n(),
        inst.tree().len(),
        inst.setting(),
        if inst.has_origins() { ", with origins" } else { "" }
    );
    Ok(())
}

/// Assemble a [`bct_serve::ServeConfig`] from the shared spec flags.
fn serve_config(opts: &Opts) -> Result<bct_serve::ServeConfig, String> {
    Ok(bct_serve::ServeConfig {
        topo: opts.get("topo", "fat-tree:2,2,2"),
        topo_seed: opts.get_usize("seed", 1)? as u64,
        policy: opts.get("policy", "sjf+greedy:0.5"),
        speeds: opts.get("speeds", "uniform:1"),
        capacity: match opts.try_get("capacity") {
            None => None,
            Some(c) => Some(c.parse().map_err(|_| format!("bad capacity '{c}'"))?),
        },
    })
}

/// Run the online dispatch service: either the built-in open-loop
/// Poisson bench (`--bench`) or a socket server (`--listen` / `--unix`)
/// journaling every accepted command to `--log`.
fn cmd_serve(opts: &Opts) -> Result<(), String> {
    let cfg = serve_config(opts)?;
    if opts.get_bool("bench") {
        let bench = bct_serve::BenchConfig {
            serve: cfg,
            jobs: opts.get_usize("jobs", 10_000)?,
            load: opts.get_f64("load", 0.7)?,
            sizes: opts.get("sizes", "pow:2,4"),
            seed: opts.get_usize("seed", 1)? as u64,
        };
        let log = opts.get("log", "target/serve_bench.log");
        std::fs::create_dir_all(std::path::Path::new(&log).parent().unwrap_or(std::path::Path::new(".")))
            .map_err(|e| format!("creating log dir: {e}"))?;
        let report = bct_serve::run_bench(&bench, std::path::Path::new(&log))?;
        let out = opts.get("out", "target/BENCH_serve.json");
        std::fs::write(&out, bct_serve::bench::report_json(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "bench: {} jobs on {} under {} (ρ = {})",
            report.jobs, report.topo, report.policy, report.load
        );
        println!(
            "decision latency: p50 {:.1} µs, p99 {:.1} µs, p999 {:.1} µs, mean {:.1} µs, max {:.1} µs",
            report.p50_us, report.p99_us, report.p999_us, report.mean_us, report.max_us
        );
        println!(
            "throughput: {:.0} decisions/s; journal: {} records at {log}",
            report.throughput_per_s, report.log_records
        );
        println!(
            "replay: live {:#018x} vs replica {:#018x} — {}",
            report.live_hash,
            report.replay_hash,
            if report.replay_verified { "verified ✓" } else { "MISMATCH" }
        );
        println!("report written to {out}");
        if !report.replay_verified {
            return Err("replay hash mismatch".into());
        }
        return Ok(());
    }

    let log = opts.get("log", "target/serve.log");
    std::fs::create_dir_all(std::path::Path::new(&log).parent().unwrap_or(std::path::Path::new(".")))
        .map_err(|e| format!("creating log dir: {e}"))?;
    let file = std::fs::File::create(&log).map_err(|e| format!("creating {log}: {e}"))?;
    let mut svc = bct_serve::Service::with_log(cfg, std::io::BufWriter::new(file))?;
    svc.reserve(opts.get_usize("jobs", 100_000)?);
    if let Some(path) = opts.try_get("unix") {
        #[cfg(unix)]
        {
            println!("serving on unix socket {path}, journaling to {log}");
            bct_serve::net::serve_unix(&mut svc, std::path::Path::new(&path))?;
        }
        #[cfg(not(unix))]
        return Err(format!("unix sockets unsupported on this platform ({path})"));
    } else {
        let addr = opts.get("listen", "127.0.0.1:4733");
        bct_serve::serve_tcp(&mut svc, addr.as_str(), |bound| {
            println!("serving on {bound}, journaling to {log}");
        })?;
    }
    svc.into_log().transpose()?;
    println!("shutdown: journal sealed at {log}");
    Ok(())
}

/// Re-execute a command log against a fresh replica and verify every
/// embedded state hash bit for bit.
fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let log = opts
        .try_get("log")
        .ok_or("replay needs --log PATH (a journal written by bct serve)")?;
    let mut parsed = bct_serve::read_log(std::path::Path::new(&log))?;
    // Differential mode: re-run the recorded arrival stream under a
    // *candidate* policy. Embedded hashes describe the recorded
    // policy's execution, so they are reported but not enforced —
    // the point is comparing the final snapshots across policies.
    let candidate = opts.try_get("policy");
    if let Some(p) = &candidate {
        parsed.config.policy.clone_from(p);
    }
    let outcome = bct_serve::replay_parsed(&parsed)?;
    println!(
        "replayed {} commands against {} / {} ({} epoch{}), clock {:.3}",
        outcome.commands,
        outcome.config.topo,
        outcome.config.policy,
        outcome.snapshot.epoch,
        if outcome.snapshot.epoch == 1 { "" } else { "s" },
        outcome.snapshot.now,
    );
    println!(
        "jobs: {} accepted, {} completed, {} in flight; clean shutdown: {}",
        outcome.snapshot.jobs,
        outcome.snapshot.completed,
        outcome.snapshot.unfinished,
        if outcome.clean_shutdown { "yes" } else { "no (torn or live log)" },
    );
    println!("final state hash: {:#018x}", outcome.final_hash);
    if let Some(p) = &candidate {
        println!(
            "candidate policy '{p}': {} of {} recorded probes matched (divergence expected \
             unless the policies are equivalent on this stream)",
            outcome.probes - outcome.mismatches.len(),
            outcome.probes
        );
        return Ok(());
    }
    if outcome.verified() {
        println!("{} of {} hash probes verified ✓", outcome.probes, outcome.probes);
        Ok(())
    } else {
        for m in &outcome.mismatches {
            eprintln!(
                "probe {} (record {}): recorded {:#018x}, replayed {:#018x}",
                m.probe, m.record, m.recorded, m.replayed
            );
        }
        Err(format!(
            "{} of {} hash probes diverged — the log does not describe this binary's \
             execution (different build, corrupted log, or nondeterminism)",
            outcome.mismatches.len(),
            outcome.probes
        ))
    }
}

/// Check Lemmas 1 and 2 live on a user-specified workload.
fn cmd_lemmas(opts: &Opts) -> Result<(), String> {
    let eps = opts.get_f64("eps", 0.5)?;
    let inst = build_instance(opts)?;
    if inst.has_origins() {
        return Err("lemma checks assume root-origin jobs".into());
    }
    let speeds = SpeedProfile::Layered {
        root_adjacent: 1.0,
        deeper: 1.0 + eps,
    };
    let combo = spec::parse_policy(&opts.get("policy", &format!("sjf+greedy:{eps}")))?;
    let out = combo.run(&inst, &speeds).map_err(|e| e.to_string())?;
    let pairs = bct_sched::bounds::lemma1_pairs(&inst, eps, &out.assignments, &out.hop_finishes);
    let (mut worst, mut sum) = (0.0f64, 0.0f64);
    for &(m, b) in &pairs {
        worst = worst.max(m / b);
        sum += m / b;
    }
    println!("Lemma 1 (interior wait ≤ 6/ε²·d_v·p_j) at ε = {eps}:");
    println!("  jobs with interior stretch : {}", pairs.len());
    println!("  mean measured/bound        : {:.4}", sum / pairs.len().max(1) as f64);
    println!("  max measured/bound         : {worst:.4}");
    if worst <= 1.0 + 1e-6 {
        println!("  bound holds on every job ✓");
        Ok(())
    } else {
        Err("Lemma 1 bound exceeded — this should be impossible".into())
    }
}

/// Compare store-and-forward vs packetized routing on one workload.
fn cmd_packetize(opts: &Opts) -> Result<(), String> {
    let inst = build_instance(opts)?;
    let speeds = spec::parse_speeds(&opts.get("speeds", "uniform:1.5"))?;
    let combo = spec::parse_policy(&opts.get("policy", "sjf+greedy:0.5"))?;
    let out = combo.run(&inst, &speeds).map_err(|e| e.to_string())?;
    let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
    let saf = out.total_flow(&releases);
    let assignments: Vec<_> = out.assignments.iter().map(|a| a.unwrap()).collect();
    println!("store-and-forward total flow: {saf:.2}");
    for ps_str in opts.get_list("packet-sizes", "4,1,0.25") {
        let ps: f64 = ps_str.parse().map_err(|_| format!("bad packet size '{ps_str}'"))?;
        let pkt =
            bct_sim::packet::run_packetized(&inst, &assignments, &speeds, ps);
        println!(
            "packet size {ps:>7}: total flow {:>10.2}  (ratio {:.3})",
            pkt.total_flow,
            pkt.total_flow / saf
        );
    }
    Ok(())
}

fn cmd_experiments(opts: &Opts) -> Result<(), String> {
    let scale = if opts.get_bool("full") {
        Scale::full()
    } else {
        Scale::quick()
    };
    let tables = run_all(scale);
    let json = opts.get_bool("json");
    let mut out = String::new();
    if json {
        out.push('[');
        for (i, t) in tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]\n");
    } else {
        for t in &tables {
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    match opts.get("write", "").as_str() {
        "" => println!("{out}"),
        path => {
            std::fs::write(path, &out).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}
