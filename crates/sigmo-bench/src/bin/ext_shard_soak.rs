//! Sharded-serving soak benchmark (extension): serves the seeded,
//! popularity-skewed trace unsharded (the oracle) and through four
//! sharded configurations — static partitioning, work-stealing, and two
//! fault plans — and writes `BENCH_shard.json`. The run asserts that every
//! configuration agrees with the oracle bit for bit with zero degraded
//! slices and that work-stealing cuts the hot shard's peak backlog (see
//! [`sigmo_bench::shard_bench::run`]).

fn main() {
    sigmo_bench::gate::record(&sigmo_bench::gate::SHARD);
}
