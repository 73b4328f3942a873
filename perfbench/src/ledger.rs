//! The per-layer ledger: direct, timed calls into each layer's public
//! functions on a workload's own inputs. Used only by traced runs and the
//! determinism self-test, never while end-to-end metrics are measured.

use crate::util::{default_workers, median, ratio, with_workers, Metric};
use crate::Outcome;
use sigmo_core::{Engine, EngineConfig, MatchMode, QueryPlan};
use sigmo_device::{summarize, CostModel, DeviceProfile, KernelSummary, Queue};
use sigmo_graph::{CsrGo, LabeledGraph};
use std::time::Instant;

/// The filter, mapping and join kernels, in pipeline order.
pub const KERNELS: &[&str] = &[
    "initialize_candidates",
    "label_pair_filter",
    "node_predicate_filter",
    "refine_candidates",
    "gmcr_size",
    "gmcr_populate",
    "join",
];

/// Engine-layer totals over a sequence of batches.
#[derive(Default)]
pub struct EngineLedger {
    pub molecules: usize,
    pub runs: usize,
    pub csrgo_s: f64,
    pub filter_s: f64,
    pub mapping_s: f64,
    pub join_s: f64,
    pub initial_candidates: u64,
    pub final_candidates: u64,
    pub gmcr_pairs: u64,
    pub matched_pairs: u64,
    pub total_matches: u64,
    pub launches: usize,
    pub kernels: Vec<KernelSummary>,
}

/// Runs each `(plan, mode, molecules)` batch through
/// [`Engine::run_planned`] on a fresh queue, timing the CSR-GO build of
/// the data side separately, and folds the run reports and kernel
/// records together.
pub fn engine_ledger<'a>(
    batches: impl IntoIterator<Item = (&'a QueryPlan, MatchMode, Vec<LabeledGraph>)>,
) -> EngineLedger {
    let queue = Queue::new(DeviceProfile::host());
    let mut l = EngineLedger::default();
    for (plan, mode, mols) in batches {
        let engine = Engine::new(EngineConfig {
            mode,
            ..EngineConfig::default()
        });
        let t = Instant::now();
        let data = CsrGo::from_graphs(&mols);
        l.csrgo_s += t.elapsed().as_secs_f64();
        let run = engine.run_planned(plan, &data, &queue);
        l.molecules += mols.len();
        l.runs += 1;
        l.filter_s += run.timings.filter.as_secs_f64();
        l.mapping_s += run.timings.mapping.as_secs_f64();
        l.join_s += run.timings.join.as_secs_f64();
        if let (Some(first), Some(last)) = (run.iterations.first(), run.iterations.last()) {
            l.initial_candidates += first.candidates.total as u64 + first.cleared_bits;
            l.final_candidates += last.candidates.total as u64;
        }
        l.gmcr_pairs += run.gmcr_pairs as u64;
        l.matched_pairs += run.matched_pairs;
        l.total_matches += run.total_matches;
    }
    let records = queue.records();
    l.launches = records.len();
    l.kernels = summarize(&records, &CostModel::new(DeviceProfile::host()));
    l
}

impl EngineLedger {
    /// Per-kernel instruction counts, the determinism fingerprint.
    pub fn instruction_fingerprint(&self) -> String {
        self.kernels
            .iter()
            .map(|k| format!("{}:{}x{}", k.name, k.calls, k.instructions))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The graph, core and kernel metrics. A ledger over no batches (a
    /// workload that runs no engine work) reports zeros.
    pub fn metrics(&self, plan_build_ms: f64, stream_chunks: f64, rounds: f64) -> Vec<Metric> {
        let per_round = |x: f64| ratio(x, rounds);
        let mut m = vec![
            Metric::new(
                "graph.csrgo_build_us",
                ratio(self.csrgo_s * 1e6, self.molecules as f64),
                "us",
            ),
            Metric::new("core.plan_build_ms", plan_build_ms, "ms"),
            Metric::new("core.phase.filter_ms", per_round(self.filter_s * 1e3), "ms"),
            Metric::new(
                "core.phase.mapping_ms",
                per_round(self.mapping_s * 1e3),
                "ms",
            ),
            Metric::new("core.phase.join_ms", per_round(self.join_s * 1e3), "ms"),
            Metric::new(
                "core.candidate_survival",
                ratio(self.final_candidates as f64, self.initial_candidates as f64),
                "frac",
            ),
            Metric::new(
                "core.gmcr_pairs",
                per_round(self.gmcr_pairs as f64),
                "count",
            ),
            Metric::new(
                "core.join_yield",
                ratio(self.matched_pairs as f64, self.gmcr_pairs as f64),
                "frac",
            ),
            Metric::new("core.stream_chunks", stream_chunks, "count"),
        ];
        for name in KERNELS {
            let k = self.kernels.iter().find(|k| k.name == *name);
            let get = |f: fn(&KernelSummary) -> f64| k.map(f).unwrap_or(0.0);
            m.push(Metric::new(
                format!("kernel.{name}.calls"),
                per_round(get(|k| k.calls as f64)),
                "count",
            ));
            m.push(Metric::new(
                format!("kernel.{name}.wall_ms"),
                per_round(get(|k| k.wall_s * 1e3)),
                "ms",
            ));
            m.push(Metric::new(
                format!("kernel.{name}.sim_ms"),
                per_round(get(|k| k.sim_s * 1e3)),
                "ms",
            ));
            m.push(Metric::new(
                format!("kernel.{name}.instructions"),
                per_round(get(|k| k.instructions as f64)),
                "count",
            ));
        }
        m.push(Metric::new(
            "device.launches_per_mol",
            ratio(self.launches as f64, self.molecules as f64),
            "count",
        ));
        m
    }

    /// The reconciliation table: each kernel's measured wall time beside
    /// its modeled device time, flagging gaps above 2x.
    pub fn reconciliation_table(&self) -> String {
        let mut out = String::from(
            "kernel reconciliation (measured host wall vs modeled sim_s)\n  kernel                   calls    wall_ms     sim_ms   wall/sim\n",
        );
        for k in &self.kernels {
            let r = ratio(k.wall_s, k.sim_s);
            let flag = if r > 2.0 || (r > 0.0 && r < 0.5) {
                "  GAP >2x"
            } else {
                ""
            };
            out.push_str(&format!(
                "  {:<24}{:>6}{:>11.3}{:>11.3}{:>11.2}{flag}\n",
                k.name,
                k.calls,
                k.wall_s * 1e3,
                k.sim_s * 1e3,
                r
            ));
        }
        out
    }
}

/// Median wall time of a trivial `Queue::parallel_for` with one work
/// group per worker, in microseconds: the executor's fixed cost per
/// kernel launch at `workers` workers, including the worker threads it
/// starts (a one-group launch runs inline and would hide them).
fn empty_launch_us(workers: usize) -> f64 {
    let queue = Queue::new(DeviceProfile::host());
    with_workers(workers, || {
        let times: Vec<f64> = (0..400)
            .map(|_| {
                let t = Instant::now();
                queue.parallel_for("empty", "probe", workers * 64, 64, |i, _| {
                    std::hint::black_box(i);
                });
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&times)
    })
}

/// The executor's cost as seen from a whole run:
/// - `device.empty_launch_us`, the fixed cost of one launch at the
///   program's default worker count, which is what a user of the library
///   pays (the timed loops run at the benchmark's own worker count);
/// - the share of process CPU time spent in the kernel during the timed
///   loop;
/// - `device.launch_share`, the share of the wall time per answered
///   molecule that fixed launch costs account for at the run's worker
///   count (`launches_per_answered_mol` launches at that count's
///   empty-launch cost, at the run's median rate).
pub fn device_metrics(
    out: &Outcome,
    launches_per_answered_mol: f64,
    workers: usize,
) -> Vec<Metric> {
    let run_us = empty_launch_us(workers);
    vec![
        Metric::new(
            "device.empty_launch_us",
            empty_launch_us(default_workers()),
            "us",
        ),
        Metric::new("device.sys_cpu_frac", out.sys_cpu_frac(), "frac"),
        Metric::new(
            "device.launch_share",
            launches_per_answered_mol * run_us * 1e-6 * median(&out.round_rates),
            "frac",
        ),
    ]
}

/// Median build time of `QueryPlan::build` over `sets`, in ms per set.
pub fn plan_build_ms(sets: &[Vec<LabeledGraph>]) -> f64 {
    let cfg = EngineConfig::default();
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for s in sets {
                std::hint::black_box(QueryPlan::build(s, &cfg));
            }
            t.elapsed().as_secs_f64() * 1e3 / sets.len().max(1) as f64
        })
        .collect();
    median(&times)
}
