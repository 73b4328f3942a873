#!/usr/bin/env bash
# Bench regression gate: re-runs every bench of the sigmo_bench::gate
# table (BENCH_pipeline, BENCH_serve, BENCH_adaptive, BENCH_shard and
# BENCH_index) with each bench's own invariant asserts, and compares each
# field with the committed BENCH_*.json: exact fields (virtual-clock
# values, counters, totals, modeled seconds) must match as text, walls
# must stay within committed × 1.25 + 10 ms, and a key missing on either
# side fails. Fresh renderings land in target/bench_diff/.
#
# Environment:
#   SIGMO_BENCH_SCALE          quick (default) | paper; must match the
#                              committed files' scale (the bin checks)
#
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -q -p sigmo-bench --bin bench_diff
