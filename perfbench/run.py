#!/usr/bin/env python3
"""Build and run the layered benchmark for one workload.

    python3 perfbench/run.py --workload sweep-acceptance|sweep-grid|serve-socket \
        --seed N --seconds S --trace 0|1

Run it from the repository root (or anywhere: it changes into the root
itself). It builds the `bct-perfbench` package from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it, and passes its
standard output through; the last line is the result object. The run's
full record (host, toolchain, per-metric quartiles) is also kept under
`.bench_results/`. The exit code is the benchmark's: 0 when every output
checked out, 1 on a correctness failure or a failed build.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark itself must finish within 180 s; stop it just before.
RUN_TIMEOUT_S = 175


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-vV"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    head = out.splitlines()[0] if out else "rustc"
    return f"{head}; commit {fields.get('commit-hash', 'unknown')}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "bct-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--rustc", rustc_version()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    for line in lines:
        if line.startswith('{"record":'):
            os.makedirs(".bench_results", exist_ok=True)
            name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
            try:
                record = json.loads(line)["record"]
            except ValueError as e:
                print(f"perfbench: unreadable record line: {e}", file=sys.stderr)
                continue
            with open(os.path.join(".bench_results", name), "w") as f:
                json.dump(record, f, indent=1)
    if run.returncode not in (0, 1) or not lines or not lines[-1].startswith('{"correct":'):
        print(f"perfbench: {args.workload} failed (exit {run.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
