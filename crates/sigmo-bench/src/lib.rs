//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§5) on the synthetic ZINC-like dataset.
//!
//! Each `figures::figNN_*` / `figures::tableN_*` function computes the
//! series the corresponding figure plots and returns it as plain data; the
//! binaries in `src/bin/` print them. Absolute numbers differ from the
//! paper (the substrate is a CPU executor + analytical device model, the
//! dataset is synthetic); the *shapes* — who wins, where the optima sit,
//! how scaling behaves — are the reproduction targets recorded in
//! EXPERIMENTS.md.
//!
//! The five committed `BENCH_*.json` files are one table, [`gate`]: each
//! bench's runner declares every field once, tagged exact or wall, and
//! both the recording binaries and the `bench_diff` gate read it.
//!
//! All experiments share [`BenchScale`], controlled by the
//! `SIGMO_BENCH_SCALE` environment variable:
//! `quick` (default; seconds), `paper` (minutes; closest to the paper's
//! dataset proportions). Any other value is an error.

pub mod adaptive_bench;
pub mod figures;
pub mod gate;
pub mod index_bench;
pub mod pipeline_bench;
pub mod scale;
pub mod serve_bench;
pub mod shard_bench;

pub use scale::BenchScale;
