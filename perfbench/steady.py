#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report each
metric's median, quartiles, and spread.

    python3 perfbench/steady.py [--workload W ...] [--seeds 10] [--trace 0|1]
        [--out FILE] [--compare FILE]

Runs seeds 1..N for BENCHMARK.json's `run_seconds` each. The spread is
(Q3 - Q1) / median over the runs, with the quartiles of Python's
`statistics.quantiles(values, n=4)`. For end-to-end metrics it is
compared with the metric's bound in BENCHMARK.json (the target is a
third of the bound). `--compare` takes the `--out` file of an earlier
set of runs and checks that every median moved, either way, by no more
than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    seconds = bench["run_seconds"]
    summary = {}
    ok = True
    for w in workloads:
        per_metric = {}
        for seed in range(1, args.seeds + 1):
            result = run_once(w, seed, seconds, args.trace)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed} done", file=sys.stderr, flush=True)
        summary[w] = {name: summarize(v) for name, v in per_metric.items()}
        print(f"\n{w} ({args.seeds} seeds, {seconds} s, trace {args.trace})")
        print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, s in summary[w].items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] <= bound / 3 else ("within" if s["spread"] <= bound else "TOO WIDE")
                ok &= s["spread"] <= bound
            print(f"  {name:<30} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.3f} {bound if bound is not None else '':>6} {flag}")
    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        print("\nmedian drift against", args.compare)
        for w, metrics in summary.items():
            for name, s in metrics.items():
                old = before.get(w, {}).get(name)
                bound = bounds.get(name)
                if old is None or bound is None or not old["median"]:
                    continue
                drift = (s["median"] - old["median"]) / old["median"]
                verdict = "ok" if abs(drift) <= bound else "MOVED MORE THAN BOUND"
                ok &= abs(drift) <= bound
                print(f"  {w:<18} {name:<24} {drift:+.3f} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
