//! Pipeline benchmark with a machine-readable report: runs the full
//! engine on the default synthetic workload (best of three runs) and
//! writes `BENCH_pipeline.json` — per-phase and per-kernel walls, modeled
//! `sim_s`, charged counters (including the word-granular bitmap read
//! counter), memory footprints and match totals. The fields are declared
//! in [`sigmo_bench::pipeline_bench`].

fn main() {
    sigmo_bench::gate::record(&sigmo_bench::gate::PIPELINE);
}
