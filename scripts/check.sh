#!/usr/bin/env bash
# Repo-wide gate, in dependency order:
#
#   1. cargo fmt --check          formatting
#   2. cargo clippy               warnings are errors, all targets
#   3. cargo test -q              the full test suite (tier-1)
#   3b. cargo doc                 rustdoc with warnings as errors over the
#                                 workspace (catches broken intra-doc
#                                 links when items move between crates)
#   4. sigmo-lint                 workspace determinism audit (call-graph
#                                 reachability from kernel launches and
#                                 result reports: per-bit probes, atomic
#                                 orderings, uncharged traffic, kernel
#                                 allocs, nondeterministic iteration,
#                                 float accumulation, wall clock in
#                                 results, unordered parallel collection)
#   5. perfbench-build            release build of the end-to-end
#                                 benchmark (perfbench/, its own package)
#                                 into target/perfbench with --locked, so
#                                 a public-API change the benchmark uses
#                                 fails the quick gate too
#   6. cargo bench --no-run       compile check of every bench target
#   7. ablate_filter_convergence  filter-mode ablation; asserts the
#                                 incremental refine path stays ≥2× faster
#                                 than exhaustive with identical totals
#   8. ext_serve_soak             serving soak: no-cache/cold/warm configs
#                                 must agree bit for bit and the warm cache
#                                 must be ≥2× the ablation (output diverted
#                                 to target/ so the committed BENCH_serve
#                                 baseline is untouched)
#   9. ext_adaptive               adaptive-join ablation: no fixed
#                                 (variant, order) combo may win every
#                                 scenario, adaptive must beat the worst
#                                 fixed combo ≥1.3× and stay ≤1.05× the
#                                 per-scenario oracle (output diverted to
#                                 target/ like the serve soak)
#  10. ext_shard_soak             sharded fault soak: static/stealing/
#                                 light-fault/heavy-fault configurations
#                                 must match the unsharded oracle bit for
#                                 bit with zero degraded slices, and
#                                 stealing must cut the hot shard's peak
#                                 backlog (output diverted to target/)
#  11. ext_index                  corpus-screening bench: tiered corpora
#                                 with planted rare-pattern carriers; the
#                                 indexed path must match the index-off
#                                 engine's totals exactly, beat it ≥5× at
#                                 the largest corpus, and keep the screen
#                                 wall sublinear (output diverted to
#                                 target/)
#  12. scripts/bench_diff.sh      per-phase wall-time regression gate vs
#                                 the committed BENCH_pipeline.json,
#                                 BENCH_serve.json, BENCH_adaptive.json,
#                                 BENCH_shard.json, and BENCH_index.json
#  13. fuzz-smoke                 deep fuzz sweep at 10 000 cases per
#                                 property, in release: the
#                                 tests/parser_fuzz.rs battery (raw bytes,
#                                 grammar token soup, and round-trip
#                                 layers for both the SMILES and SMARTS
#                                 parsers), the filter kernels'
#                                 branch-free SWAR domination test against
#                                 the per-group reference on random
#                                 signature layouts, and the class-aware
#                                 row walk against the per-bit retain_row
#                                 (both tests/properties.rs)
#  14. canon-oracle               release-mode canonical-labeling sweep
#                                 (tests/canonical_oracle.rs with its
#                                 #[ignore]d tests): the pruned search's
#                                 codes equal the unpruned oracle's on the
#                                 serve benchmark's whole molecule stream,
#                                 random relabelings keep the codes of its
#                                 most symmetric molecules, and
#                                 C.C.C.C.C.C.C.C and five dot-joined C1CC1
#                                 (hydrogens explicit) each canonicalize in
#                                 under 10 ms
#  15. perfbench-screen           traced end-to-end benchmark smoke runs
#  16. perfbench-serve-cold       (--trace 1) of the screen and serve-cold
#                                 workloads at the shortest --seconds that
#                                 still yields the 1000 operations the
#                                 harness requires (screen 4, serve-cold
#                                 3); each fails unless the run reports
#                                 "correct": true. Built into
#                                 target/perfbench with --locked, report
#                                 written to target/, so nothing under
#                                 perfbench/ changes
#
# `--fast` skips the bench, fuzz, canon-oracle and perfbench run stages
# (6-16) for quick
# pre-push runs. The lint and perfbench-build stages are NOT skipped: the
# determinism audit is cheap (sub-second scan, <5 s budget enforced in
# its own tests) and is exactly the check that must not be skippable in a
# hurry, and the benchmark build is the only stage that notices a
# public-API break the benchmark would hit.
# `--lint-only` runs just the sigmo-lint stage — the inner loop while
# triaging findings or writing pragma justifications.
# `--pathological` adds a governor smoke stage: the ext_pathological
# binary must terminate the wildcard-clique workload under its 2 s
# deadline with a Truncated(Deadline) partial result (it asserts this
# itself and exits nonzero otherwise).
# Each stage reports its wall time; the summary line at the end gives the
# total. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
LINT_ONLY=0
PATHOLOGICAL=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        --lint-only) LINT_ONLY=1 ;;
        --pathological) PATHOLOGICAL=1 ;;
        *) echo "usage: $0 [--fast] [--lint-only] [--pathological]" >&2; exit 2 ;;
    esac
done

TOTAL_START=$SECONDS
# Runs one named stage, timing it: stage <name> <command...>
stage() {
    local name=$1
    shift
    local start=$SECONDS
    echo "==> $name"
    "$@"
    echo "==> $name ok ($((SECONDS - start))s)"
}

# The deep fuzz sweep, in release: the parser fuzz battery and the SWAR
# domination property at 10 000 cases each.
fuzz_smoke() {
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test parser_fuzz
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties swar_domination
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties class_walk
}

# Runs one perfbench workload traced; fails unless it reports correct.
# perfbench_smoke <workload> <seconds>
perfbench_smoke() {
    local out="target/perfbench-$1.out"
    CARGO_TARGET_DIR=target/perfbench cargo run -q --release --offline --locked \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$1" --seed 7 --seconds "$2" --trace 1 >"$out" 2>"target/perfbench-$1.err"
    if ! tail -n 1 "$out" | grep -q '"correct": true'; then
        echo "perfbench $1 did not report correct: see $out" >&2
        return 1
    fi
}

if [ "$LINT_ONLY" -eq 0 ]; then
    stage fmt cargo fmt --check
    stage clippy cargo clippy -q --all-targets -- -D warnings
    stage test cargo test -q
    stage doc env RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace
fi
stage lint cargo run -q --release -p sigmo-lint -- --root .
if [ "$LINT_ONLY" -eq 0 ]; then
    stage perfbench-build env CARGO_TARGET_DIR=target/perfbench \
        cargo build -q --release --offline --locked --manifest-path perfbench/Cargo.toml
fi
if [ "$LINT_ONLY" -eq 0 ] && [ "$FAST" -eq 0 ]; then
    stage bench-build cargo bench --no-run
    stage ablate-filter cargo bench -p sigmo-bench --bench ablate_filter_convergence
    stage serve-soak env SIGMO_BENCH_SERVE_OUT=target/BENCH_serve.fresh.json \
        cargo run -q --release -p sigmo-bench --bin ext_serve_soak
    stage adaptive env SIGMO_BENCH_ADAPTIVE_OUT=target/BENCH_adaptive.fresh.json \
        cargo run -q --release -p sigmo-bench --bin ext_adaptive
    stage shard-soak env SIGMO_BENCH_SHARD_OUT=target/BENCH_shard.fresh.json \
        cargo run -q --release -p sigmo-bench --bin ext_shard_soak
    stage index-screen env SIGMO_BENCH_INDEX_OUT=target/BENCH_index.fresh.json \
        cargo run -q --release -p sigmo-bench --bin ext_index
    stage bench-diff scripts/bench_diff.sh
    stage fuzz-smoke fuzz_smoke
    stage canon-oracle cargo test -q --release --test canonical_oracle -- --include-ignored
    stage perfbench-screen perfbench_smoke screen 4
    stage perfbench-serve-cold perfbench_smoke serve-cold 3
fi
if [ "$LINT_ONLY" -eq 0 ] && [ "$PATHOLOGICAL" -eq 1 ]; then
    stage pathological cargo run -q --release -p sigmo-bench --bin ext_pathological
fi
echo "==> all stages passed ($((SECONDS - TOTAL_START))s total)"
