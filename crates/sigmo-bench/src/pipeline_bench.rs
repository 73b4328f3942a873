//! The end-to-end pipeline profile behind `BENCH_pipeline.json`: the
//! default engine over the seeded synthetic dataset, summarized with the
//! V100S model. `bench_pipeline` records it, `bench_diff` gates it and
//! `profile_pipeline` prints one run's kernel table.
//!
//! Per-phase and per-kernel walls are [`Kind::Wall`](crate::gate::Kind);
//! everything else — kernel calls, modeled `sim_s`, charged counters,
//! occupancy, memory footprints and match totals — is deterministic and
//! gated exactly.

use crate::gate::{self, Field};
use crate::BenchScale;
use sigmo_core::{Engine, EngineConfig, RunReport};
use sigmo_device::{summarize, CostModel, DeviceProfile, KernelSummary, Queue};

/// Fresh runs per recording; walls take the minimum.
pub const REPS: usize = 3;

/// Dataset seed.
const SEED: u64 = 0x5167;

/// One engine run and its per-kernel summary.
pub struct PipelineRun {
    /// Query graphs in the dataset.
    pub queries: usize,
    /// Data graphs in the dataset.
    pub data_graphs: usize,
    /// The engine's report.
    pub report: RunReport,
    /// Per-kernel aggregates under the V100S model, in launch order.
    pub kernels: Vec<KernelSummary>,
}

/// Runs the default engine once on the scale's dataset.
pub fn run_once(scale: BenchScale) -> PipelineRun {
    let d = scale.dataset(SEED);
    let queue = Queue::new(DeviceProfile::nvidia_v100s());
    let report = Engine::new(EngineConfig::default()).run(d.queries(), d.data_graphs(), &queue);
    let model = CostModel::new(DeviceProfile::nvidia_v100s());
    PipelineRun {
        queries: d.queries().len(),
        data_graphs: d.data_graphs().len(),
        report,
        kernels: summarize(&queue.records(), &model),
    }
}

/// Declares one run's fields.
pub fn fields(scale: BenchScale, r: &PipelineRun) -> Vec<Field> {
    let t = &r.report.timings;
    let mut f = vec![
        Field::scale(scale),
        Field::count("queries", r.queries as u64),
        Field::count("data_graphs", r.data_graphs as u64),
    ];
    for (phase, d) in [
        ("setup", t.setup),
        ("setup_csr", t.data.csr_build),
        ("setup_signatures", t.data.signatures),
        ("setup_pairs", t.data.pairs),
        ("setup_attrs", t.data.attrs),
        ("filter", t.filter),
        ("mapping", t.mapping),
        ("join", t.join),
        ("total", t.total()),
    ] {
        f.push(Field::wall(
            format!("phase_{phase}_wall_s"),
            d.as_secs_f64(),
        ));
    }
    for k in &r.kernels {
        let key = |field: &str| format!("kernel_{}_{field}", k.name);
        f.extend([
            Field::text(key("phase"), &k.phase),
            Field::count(key("calls"), k.calls as u64),
            Field::wall(key("wall_s"), k.wall_s),
            Field::exact(key("sim_s"), k.sim_s, 6),
            Field::count(key("instructions"), k.instructions),
            Field::count(key("bytes"), k.bytes),
            Field::count(key("atomics"), k.atomics),
            Field::count(key("word_reads"), k.word_reads),
            Field::exact(key("mean_occupancy"), k.mean_occupancy, 4),
        ]);
    }
    let total = |c: fn(&KernelSummary) -> u64| r.kernels.iter().map(c).sum();
    let m = &r.report;
    f.extend([
        Field::count("counters_total_instructions", total(|k| k.instructions)),
        Field::count("counters_total_bytes", total(|k| k.bytes)),
        Field::count("counters_total_atomics", total(|k| k.atomics)),
        Field::count("counters_total_word_reads", total(|k| k.word_reads)),
        Field::count("memory_bitmap_packed_bytes", m.bitmap_bytes as u64),
        Field::count("memory_bitmap_padded_bytes", m.bitmap_padded_bytes as u64),
        Field::count("memory_graphs_bytes", m.graph_bytes as u64),
        Field::count("memory_signatures_bytes", m.signature_bytes as u64),
        Field::count("total_matches", m.total_matches),
        Field::count("matched_pairs", m.matched_pairs),
        Field::count("gmcr_pairs", m.gmcr_pairs as u64),
    ]);
    f
}

/// The table's runner: best of [`REPS`] runs, every exact field equal
/// across them.
pub fn run(scale: BenchScale) -> Vec<Field> {
    gate::best_of((0..REPS).map(|_| fields(scale, &run_once(scale))).collect())
}
