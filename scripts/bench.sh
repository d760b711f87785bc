#!/usr/bin/env bash
# Reproducible benchmark gate: builds the release profile and runs the
# fixed perfbench matrix (DES steady-state events/sec, fig2+fig6 and
# full-suite regeneration sequential vs parallel, sift-stage vision
# kernels) over fixed seeds, writing BENCH_2.json at the repo root.
#
# Usage:
#   scripts/bench.sh                # write BENCH_2/BENCH_7/BENCH_9.json
#   scripts/bench.sh out.json       # write the perf matrix elsewhere
#
# The scale stage (BENCH_7.json) measures the sited client
# ladder from DESIGN.md §14 — events/sec and peak RSS at 1k/10k/100k
# clients; add `--full` by hand for the 1M point.
#
# The matrix is single-machine wall-clock: compare BENCH_*.json files
# from the *same* host only. See README "Performance".
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_2.json}"

echo "==> cargo build --release -p experiments"
cargo build --release -p experiments

echo "==> perfbench -> ${OUT}"
# Benchmarks ignore ambient tuning knobs so recorded numbers are
# comparable run to run.
env -u SCATTER_EXP_SECS -u SCATTER_JOBS -u SCATTER_RUN_CACHE \
    ./target/release/perfbench "${OUT}"

echo "==> perfbench --scale -> BENCH_7.json"
env -u SCATTER_EXP_SECS -u SCATTER_JOBS -u SCATTER_RUN_CACHE \
    ./target/release/perfbench --scale BENCH_7.json

echo "==> udpbench -> BENCH_9.json"
# Loopback data-plane pps (single / sharded / batched) plus a fresh
# scale ladder so the cross-PR diff keeps a shared name set.
env -u SCATTER_EXP_SECS -u SCATTER_JOBS -u SCATTER_RUN_CACHE \
    ./target/release/udpbench BENCH_9.json > /dev/null
