#!/usr/bin/env bash
# Local CI gate: build, test, lint, golden sweep, scaling bench.
# Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --workspace

# Differential event-queue/aggregate suite, run explicitly (it is part
# of the workspace suite above, but this PR-5 contract — calendar queue
# and flat aggregates bit-identical to the heap/treap oracle — must
# fail loudly on its own line).
cargo test -q --release -p bct-sim --test differential_queue
cargo test -q --release -p bct-sim --test scratch_alloc

# Session oracles, run explicitly: offline runs and serve sessions
# share one event loop (`RunLane`), so a break in it must fail here by
# name. First the session unit tests, then the session-vs-offline-run
# property on random trees, sizes, loads and mutation schedules, then
# the serve-side replay and zero-allocation contracts.
cargo test -q --release -p bct-sim --lib session::tests -- \
    --skip session_matches_offline_run_on_random_inputs
cargo test -q --release -p bct-sim --lib session::tests::session_matches_offline_run_on_random_inputs
cargo test -q --release -p bct-serve --test replay_determinism
cargo test -q --release -p bct-serve --test serve_alloc

# OPT lower-bound differential suite, run explicitly: the heap-driven
# pooled SRPT and the shallowest-leaf η must return the bits of the
# O(n²) / path-walk scans they replaced (`bounds::naive`,
# `Instance::*_naive`), ties, leaf churn and origin jobs included.
cargo test -q --release -p bct-lp --test bounds_differential

# Dynamic-topology differential suite (PR-6 contract): random mutation
# walks must keep the incrementally maintained path tables bit-equal
# to a from-scratch rebuild, and the warm scratch path must stay off
# the allocator between mutations (asserted inside scratch_alloc
# above). The property test lives with the core tree algebra.
cargo test -q --release -p bct-core --test properties mutation_walks_match_from_scratch_rebuild

# Determinism/zero-alloc contract lint, local rules plus the
# call-graph reachability pass (a2/p2/d4) and the stale-allow audit
# (l2) — see DESIGN.md §11 and §16. No baseline: every finding is a
# hard failure. Runs before clippy so contract breaks surface with
# bct-lint's spans and call chains, not clippy's generic diagnostics.
# The full pass (parse + graph + reachability over the workspace) must
# stay interactive-fast; gate at 5s so a complexity regression in the
# analyzer itself fails CI rather than slowly rotting the dev loop.
lint_start=$(date +%s%N)
cargo run -q --release -p bct-lint -- \
    --machine target/LINT.json --graph target/LINT_GRAPH.json
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "bct-lint full pass: ${lint_ms}ms (budget 5000ms)"
if [ "$lint_ms" -ge 5000 ]; then
    echo "bct-lint exceeded its 5s budget" >&2
    exit 1
fi

# float_cmp and unwrap_used stay advisory under -D warnings (force-warn
# outranks the blanket deny): each production site is already audited
# with a justification by bct-lint's d3/p1 rules, which are the
# enforced gate above.
cargo clippy --all-targets -- -D warnings \
    --force-warn clippy::float-cmp --force-warn clippy::unwrap-used

# Golden sweeps: 2-worker runs must reproduce the checked-in JSONL byte
# for byte (the harness's determinism contract, end to end through the
# CLI). The heavy-tail grid exercises the aggregate fast path (greedy
# dispatch with raw sizes) under Pareto sizes at rho up to 2.
golden_out=$(mktemp)
run_dir=$(mktemp -d)
trap 'rm -f "$golden_out"; rm -rf "$run_dir"' EXIT
cargo run -q --release -p bct-cli -- sweep \
    --spec specs/golden_sweep.json --workers 2 --out "$golden_out" --quiet >/dev/null
diff specs/golden_sweep.expected.jsonl "$golden_out"
cargo run -q --release -p bct-cli -- sweep \
    --spec specs/golden_sweep_heavytail.json --workers 2 --out "$golden_out" --quiet >/dev/null
diff specs/golden_sweep_heavytail.expected.jsonl "$golden_out"

# Dynamic golden sweep: leaf churn plus the capacity-aware stateful
# policies, byte-identical at every worker count (the drain/redispatch
# path and the per-cell churn schedules must not leak any ordering
# nondeterminism into the rows).
for w in 1 4 8; do
    cargo run -q --release -p bct-cli -- sweep \
        --spec specs/golden_sweep_dynamic.json --workers "$w" --out "$golden_out" --quiet >/dev/null
    diff specs/golden_sweep_dynamic.expected.jsonl "$golden_out"
done

# Replication-heavy golden sweep: eight replications per grid point,
# seeded random topologies included, must reproduce the checked-in
# JSONL byte for byte at every worker count.
for w in 1 4 8; do
    cargo run -q --release -p bct-cli -- sweep \
        --spec specs/golden_sweep_batch.json --workers "$w" --out "$golden_out" --quiet >/dev/null
    diff specs/golden_sweep_batch.expected.jsonl "$golden_out"
done

# Sharded sweep merge: the same golden grid split 0/2 + 1/2 by cell
# index, concatenated and re-sorted by cell, must be byte-identical to
# the one-shot expected file — the partition-anywhere contract the
# distributed runner builds on.
shard_a=$(mktemp) && shard_b=$(mktemp)
cargo run -q --release -p bct-cli -- sweep \
    --spec specs/golden_sweep.json --workers 2 --shard 0/2 --out "$shard_a" --quiet >/dev/null
cargo run -q --release -p bct-cli -- sweep \
    --spec specs/golden_sweep.json --workers 2 --shard 1/2 --out "$shard_b" --quiet >/dev/null
cat "$shard_a" "$shard_b" | sort -t: -k2 -n > "$golden_out"
diff specs/golden_sweep.expected.jsonl "$golden_out"
rm -f "$shard_a" "$shard_b"

# Kill/resume differential gate: arm the crash hook so the worker
# aborts after k completed cells — leaving a torn partial record at the
# tail of a row file — then resume on the same run dir. The merged
# output must be byte-identical to the golden at every kill point. The
# armed runs MUST die, hence the `if` wrapping under `set -e`.
for k in 3 7 19; do
    rm -rf "$run_dir"
    if BCT_SWEEP_CRASH_AFTER_CELLS=$k BCT_SWEEP_CRASH_TORN=1 \
        cargo run -q --release -p bct-cli -- sweep \
        --spec specs/golden_sweep.json --run-dir "$run_dir" \
        --out "$golden_out" --quiet >/dev/null 2>&1; then
        echo "kill/resume gate: worker armed with crash at k=$k did not die" >&2
        exit 1
    fi
    cargo run -q --release -p bct-cli -- sweep \
        --spec specs/golden_sweep.json --run-dir "$run_dir" \
        --out "$golden_out" --quiet >/dev/null
    diff specs/golden_sweep.expected.jsonl "$golden_out"
    echo "kill/resume gate: killed at k=$k, resumed byte-identical"
done

# Multi-process shared run dir: --procs 2 forks two coordinator-less
# workers racing the claim protocol on one run dir; the parent merge
# and both per-child merges must all equal the golden bytes.
rm -rf "$run_dir"
cargo run -q --release -p bct-cli -- sweep \
    --spec specs/golden_sweep.json --run-dir "$run_dir" --procs 2 \
    --out "$golden_out" --quiet >/dev/null
diff specs/golden_sweep.expected.jsonl "$golden_out"
diff specs/golden_sweep.expected.jsonl "$run_dir/worker-0.merged.jsonl"
diff specs/golden_sweep.expected.jsonl "$run_dir/worker-1.merged.jsonl"
rm -rf "$run_dir"
echo "multi-process gate: --procs 2 merged byte-identical (parent + both children)"

# Serve smoke: the online dispatch service under 10k open-loop Poisson
# arrivals; the journal it writes must replay bit-for-bit (every
# embedded state hash checked), and the bench report must parse with
# sane tail-latency fields.
cargo run -q --release -p bct-cli -- serve --bench \
    --topo star:8,8 --policy sjf+greedy:0.5 --jobs 10000 --load 0.7 \
    --log target/serve_bench.log --out target/BENCH_serve.json
cargo run -q --release -p bct-cli -- replay --log target/serve_bench.log

# Serve journal golden: `cargo test` (golden_serve.rs) regenerates this
# journal byte for byte; the CLI must also verify every hash probe in
# it.
cargo run -q --release -p bct-cli -- replay --log specs/golden_serve.log
python3 - <<'EOF'
import json
d = json.load(open("target/BENCH_serve.json"))
assert d["replay_verified"], "serve journal replay diverged"
assert d["completed"] == d["jobs"] == 10000, (d["completed"], d["jobs"])
assert 0 < d["p50_us"] <= d["p99_us"] <= d["p999_us"], (d["p50_us"], d["p99_us"], d["p999_us"])
print(f"serve bench: p50 {d['p50_us']:.1f}us p99 {d['p99_us']:.1f}us p999 {d['p999_us']:.1f}us "
      f"({d['throughput_per_s']:.0f} decisions/s, {d['log_records']} journal records)")
EOF

# OPT lower bounds on an acceptance-shaped instance (1024-leaf fat
# tree, 5k jobs): the bench asserts each near-linear bound returns its
# scan's bits and is >=10x faster than it (a ratio, so host speed does
# not matter), and writes target/BENCH_bounds.json.
cargo bench -q -p bct-bench --bench bounds

# Sweep-engine scaling: emits target/BENCH_sweep.json with a 4-thread
# AND a 4-process (shared run dir, claim protocol) series; the bench
# itself asserts the multi-process merge is byte-identical to the
# in-process sweep, and that assertion runs on ANY core count — this
# gate always verifies the distributed path, never skips outright. The
# speedup ratio takes the better of the two series and is only
# enforced on machines with >=4 cores; on smaller boxes the measured
# numbers are reported and the ratio alone is waived (4 lanes on 1
# core can at best tie).
cargo bench -q -p bct-bench --bench sweep_throughput
python3 - <<'EOF'
import json
d = json.load(open("target/BENCH_sweep.json"))
assert d["multiproc_merge_identical"], "multi-process merge diverged from the in-process sweep"
best = max(d["speedup_4_over_1"], d["speedup_4_procs_over_1"])
line = (f"{d['speedup_4_over_1']:.2f}x threads / "
        f"{d['speedup_4_procs_over_1']:.2f}x procs, {d['cores']} cores")
if d["cores"] >= 4:
    if best < 1.8:
        raise SystemExit(f"sweep scaling gate: FAILED ({line})")
    print(f"sweep scaling gate: PASSED ({line})")
else:
    print(f"sweep scaling gate: merge verified; ratio waived on a {d['cores']}-core host ({line})")
EOF

# Event-queue microbenchmark: calendar/radix queue vs the binary-heap
# oracle on the hold model; asserts identical pop order while timing
# and emits target/BENCH_event_queue.json.
cargo bench -q -p bct-bench --bench event_queue

# Greedy dispatch on the 1024-leaf fat tree at sampled live states: the
# bench asserts the aggregate-backed score loop is >=5x faster than the
# scan oracle, and that the production `assign` (F once per entry node)
# picks the score loop's leaf and is >=4x faster than it.
cargo bench -q -p bct-bench --bench dispatch

# Last on purpose: this is an absolute jobs/s floor, which a slow or
# throttled host fails whatever the change, so every ratio and
# byte-identity gate above runs before it.
# Simulator-core throughput: emits target/BENCH_sim.json (jobs/s fresh
# vs. scratch-reuse) and asserts the zero-allocation steady state
# inside the bench itself. Fail loudly here if the JSON is missing or
# malformed so downstream tooling can rely on it.
cargo bench -q -p bct-bench --bench sim_throughput
python3 - <<'EOF'
import json
d = json.load(open("target/BENCH_sim.json"))
base = json.load(open("specs/BENCH_sim_baseline.json"))
rate, floor = d["jobs_per_s_scratch"], 0.9 * base["jobs_per_s_scratch"]
print(f"sim bench: {rate} jobs/s with scratch (floor {floor:.0f}, PR-{base['recorded_pr']} baseline {base['jobs_per_s_scratch']})")
if rate < floor:
    raise SystemExit(f"sim throughput regressed >10% vs the recorded PR-{base['recorded_pr']} baseline: {rate} < {floor:.0f}")
EOF
