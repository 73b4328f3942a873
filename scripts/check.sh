#!/usr/bin/env bash
# Repo-wide gate, in dependency order:
#
#   1. cargo fmt --check          formatting
#   2. cargo clippy               warnings are errors, every workspace
#                                 crate, all targets
#   3. cargo test -q              the full test suite (tier-1): the root
#                                 `Cargo.toml`'s default-members are every
#                                 workspace crate, so the crates' own unit,
#                                 integration and doc tests run too
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
#   7. scripts/bench_diff.sh      the one bench gate: re-runs every bench
#                                 of the sigmo_bench::gate table (pipeline,
#                                 serve soak, adaptive ablation, shard
#                                 soak, corpus screen) with each bench's
#                                 own invariant asserts — the serve warm
#                                 cache ≥2× the ablation, adaptive ≥1.3×
#                                 the worst fixed combo and ≤1.05× the
#                                 oracle, sharded runs bit-identical to
#                                 the oracle with stealing cutting the hot
#                                 backlog, the index exact and ≥5× at the
#                                 largest corpus — and compares every
#                                 field with the committed BENCH_*.json:
#                                 exact fields as text, walls within
#                                 ×1.25 + 10 ms
#   7b. ext-outlier               the Figure 5 outlier analysis
#                                 (ext_outlier_analysis): the rank
#                                 correlation between query frequency and
#                                 the candidates the engine's filter
#                                 leaves must exceed 0.4
#   8. fuzz-smoke                 deep fuzz sweep in release: at 10 000
#                                 cases per property the
#                                 tests/parser_fuzz.rs battery (raw bytes,
#                                 grammar token soup, round-trip layers
#                                 for both the SMILES and SMARTS parsers,
#                                 errors_name_text_in_the_input: every
#                                 error's offset, char and symbol come
#                                 from the input, ring perception against
#                                 the hash-set cycle-basis reference, and
#                                 the parser_outputs_are_pinned digest of
#                                 both parsers' full results), the
#                                 LabeledGraph neighbour lists against a
#                                 plain Vec<Vec<_>> model, the filter kernels'
#                                 branch-free SWAR domination test against
#                                 the per-group reference on random
#                                 signature layouts, the fused filter
#                                 pass's class-major walk against the
#                                 per-bit retain_row, row by row, the
#                                 engine's whole filter phase (delta
#                                 refinement, fixpoint stop) against the
#                                 per-bit naive::reference_filter on
#                                 random graphs, schemas and wildcard
#                                 queries, its per-iteration statistics
#                                 against that oracle radius by radius,
#                                 and predicates compiled to packed
#                                 attribute words against
#                                 NodePredicate::matches (all
#                                 tests/properties.rs); at
#                                 2 000 cases the join's symmetry breaking
#                                 (tests/symmetry_breaking.rs: Find All
#                                 counts and records equal brute force,
#                                 each a multiple of |Aut(q)|, in every
#                                 matching order, DFS and BFS, induced
#                                 and wildcard queries included)
#   9. canon-oracle               release-mode canonical-labeling sweep
#                                 (tests/canonical_oracle.rs with its
#                                 #[ignore]d tests): the pruned search's
#                                 codes equal the unpruned oracle's on the
#                                 serve benchmark's whole molecule stream,
#                                 random relabelings keep the codes of its
#                                 most symmetric molecules, and
#                                 C.C.C.C.C.C.C.C and five dot-joined C1CC1
#                                 (hydrogens explicit) each canonicalize in
#                                 under 10 ms
#  10. perfbench-screen           traced end-to-end benchmark smoke runs
#  11. perfbench-serve-cold       (--trace 1) of the screen and serve-cold
#                                 workloads at the shortest --seconds that
#                                 still yields the 1000 operations the
#                                 harness requires (screen 4, serve-cold
#                                 3); each fails unless the run reports
#                                 "correct": true. Built into
#                                 target/perfbench with --locked, report
#                                 written to target/, so nothing under
#                                 perfbench/ changes
#
# `--fast` skips the bench, outlier, fuzz, canon-oracle and perfbench run
# stages (6-11) for quick
# pre-push runs. The lint and perfbench-build stages are NOT skipped: the
# determinism audit is cheap (sub-second scan, <5 s budget enforced in
# its own tests) and is exactly the check that must not be skippable in a
# hurry, and the benchmark build is the only stage that notices a
# public-API break the benchmark would hit.
# `--lint-only` runs just the sigmo-lint stage — the inner loop while
# triaging findings or writing pragma justifications.
# `--pathological` adds a governor smoke stage: the ext_pathological
# binary must terminate the asymmetric wildcard workload under its 2 s
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

# The deep fuzz sweep, in release: the parser fuzz battery, the
# neighbour-list model, SWAR domination, class-walk and filter-oracle
# properties at 10 000 cases each, and the symmetry-breaking properties at
# 2 000 (each case runs the join once per matching order; the stage stays
# under a minute).
fuzz_smoke() {
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test parser_fuzz
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties \
        neighbor_lists_match_the_vec_model
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties swar_domination
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties class_walk
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties \
        incremental_filter_is_bit_identical_to_reference
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties \
        packed_predicates_equal_matches
    SIGMO_FUZZ_CASES=10000 cargo test -q --release --test properties \
        iteration_stats_equal_the_reference_radius_by_radius
    SIGMO_FUZZ_CASES=2000 cargo test -q --release --test symmetry_breaking
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
    stage clippy cargo clippy -q --workspace --all-targets -- -D warnings
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
    stage bench-diff scripts/bench_diff.sh
    stage ext-outlier cargo run -q --release -p sigmo-bench --bin ext_outlier_analysis
    stage fuzz-smoke fuzz_smoke
    stage canon-oracle cargo test -q --release --test canonical_oracle -- --include-ignored
    stage perfbench-screen perfbench_smoke screen 4
    stage perfbench-serve-cold perfbench_smoke serve-cold 3
fi
if [ "$LINT_ONLY" -eq 0 ] && [ "$PATHOLOGICAL" -eq 1 ]; then
    stage pathological cargo run -q --release -p sigmo-bench --bin ext_pathological
fi
echo "==> all stages passed ($((SECONDS - TOTAL_START))s total)"
