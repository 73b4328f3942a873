//! Adaptive-join ablation (extension): runs three scenarios where
//! different fixed (variant, order) combinations win and writes
//! `BENCH_adaptive.json`. The run asserts that all five configurations
//! agree bit for bit on results, that no fixed combination wins
//! everywhere, and that the adaptive engine beats the worst fixed
//! combination ≥1.3× while staying within 1.05× of the per-scenario
//! oracle, all on the deterministic modeled join walls (see
//! [`sigmo_bench::adaptive_bench::run`]).

fn main() {
    sigmo_bench::gate::record(&sigmo_bench::gate::ADAPTIVE);
}
