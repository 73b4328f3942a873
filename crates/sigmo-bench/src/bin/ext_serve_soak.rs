//! Serving-layer soak benchmark (extension): runs the seeded soak trace
//! through the no-cache ablation, a cold-cache server, and a warm-cache
//! server and writes `BENCH_serve.json`. The run asserts that all three
//! agree bit for bit on per-request results and that the warm cache is at
//! least 2× faster than the ablation (see
//! [`sigmo_bench::serve_bench::run`]).

fn main() {
    sigmo_bench::gate::record(&sigmo_bench::gate::SERVE);
}
