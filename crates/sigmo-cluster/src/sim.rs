//! The cluster simulator: virtual ranks running the SIGMo pipeline.

use crate::partition::static_block_partition;
use rayon::prelude::*;
use sigmo_core::{Engine, EngineConfig, MatchMode, QueryPlan};
use sigmo_device::{CostModel, DeviceProfile, Queue};
use sigmo_graph::{CsrGo, LabeledGraph};
use std::time::Duration;

/// Configuration of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of virtual ranks (one per simulated GPU).
    pub num_ranks: usize,
    /// Device profile each rank runs on (the paper's cluster uses A100s).
    pub device: DeviceProfile,
    /// Engine configuration shared by every rank.
    pub engine: EngineConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            num_ranks: 16,
            device: DeviceProfile::nvidia_a100(),
            engine: EngineConfig::default(),
        }
    }
}

/// Per-rank outcome.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// Rank id (maps to "GPU ID" in Figure 14).
    pub rank: usize,
    /// Molecules assigned to this rank.
    pub molecules: usize,
    /// Embeddings (or matched pairs in Find First) found by this rank.
    pub matches: u64,
    /// Simulated device time for this rank's pipeline.
    pub sim_time_s: f64,
    /// Real host wall-clock spent executing the rank (diagnostic only).
    pub wall_time: Duration,
}

/// Aggregate outcome of a cluster run.
#[derive(Debug)]
pub struct ClusterReport {
    /// Per-rank results, rank order.
    pub ranks: Vec<RankResult>,
    /// Total matches across ranks.
    pub total_matches: u64,
    /// Makespan: the slowest rank's simulated time (all ranks start
    /// together under static partitioning; a final barrier ends the run).
    pub makespan_s: f64,
    /// Mean of per-rank simulated times.
    pub mean_rank_time_s: f64,
    /// Coefficient of variation of per-rank simulated times — the paper
    /// reports 4% (Find First) and 8% (Find All) at 256 GPUs.
    pub coefficient_of_variation: f64,
}

impl ClusterReport {
    /// Aggregate throughput in matches per second over the makespan
    /// (Figure 13b).
    pub fn throughput(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.total_matches as f64 / self.makespan_s
        }
    }
}

/// The cluster simulator.
pub struct ClusterSim {
    config: ClusterConfig,
}

impl ClusterSim {
    /// Creates a simulator.
    pub fn new(config: ClusterConfig) -> Self {
        Self { config }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Runs the workload: `data` is statically partitioned across ranks,
    /// every rank matches the full `queries` set against its partition
    /// under one shared query plan.
    // sigmo-lint: allow(wall-clock-in-result) — per-rank wall_time is
    // display-only, excluded from determinism keys; the load-balance
    // metrics below key on the modeled sim_time_s instead.
    pub fn run(&self, queries: &[LabeledGraph], data: &[LabeledGraph]) -> ClusterReport {
        let parts = static_block_partition(data, self.config.num_ranks);
        let costing = PartitionCosting::new(queries, &self.config.engine, &self.config.device);
        let ranks: Vec<RankResult> = parts
            .into_par_iter()
            .enumerate()
            .map(|(rank, part)| {
                let t0 = std::time::Instant::now();
                let (matches, sim_time_s) = costing.run(&part);
                RankResult {
                    rank,
                    molecules: part.len(),
                    matches,
                    sim_time_s,
                    wall_time: t0.elapsed(),
                }
            })
            .collect();
        let total_matches = ranks.iter().map(|r| r.matches).sum();
        let times: Vec<f64> = ranks.iter().map(|r| r.sim_time_s).collect();
        let makespan_s = times.iter().cloned().fold(0.0, f64::max);
        let (mean, cov) = mean_and_cov(&times);
        ClusterReport {
            ranks,
            total_matches,
            makespan_s,
            mean_rank_time_s: mean,
            coefficient_of_variation: cov,
        }
    }
}

/// Runs one query plan over data partitions and models each run's device
/// time — the costing both the static and the dynamic scheduler use, so
/// the two are comparable on makespan and CoV.
///
/// The query-side [`QueryPlan`] is built once and shared (borrowed) by
/// every partition: the real cluster broadcasts the plan alongside the
/// query batch instead of rebuilding it per GPU. Building a plan launches
/// nothing, so a partition's modeled time equals a one-shot
/// [`Engine::run`]'s.
pub(crate) struct PartitionCosting<'a> {
    plan: QueryPlan,
    engine: &'a EngineConfig,
    device: &'a DeviceProfile,
    model: CostModel,
}

impl<'a> PartitionCosting<'a> {
    pub(crate) fn new(
        queries: &[LabeledGraph],
        engine: &'a EngineConfig,
        device: &'a DeviceProfile,
    ) -> Self {
        Self {
            plan: QueryPlan::build(queries, engine),
            engine,
            device,
            model: CostModel::new(device.clone()),
        }
    }

    /// `part`'s matches (embeddings in Find All, matched pairs in Find
    /// First) and modeled device seconds, on a fresh queue. An empty
    /// partition launches nothing and costs nothing.
    pub(crate) fn run(&self, part: &[LabeledGraph]) -> (u64, f64) {
        if part.is_empty() {
            return (0, 0.0);
        }
        let queue = Queue::new(self.device.clone());
        let report = Engine::new(self.engine.clone()).run_planned(
            &self.plan,
            &CsrGo::from_graphs(part),
            &queue,
        );
        let matches = match self.engine.mode {
            MatchMode::FindAll => report.total_matches,
            MatchMode::FindFirst => report.matched_pairs,
        };
        (matches, self.model.total_time_s(&queue.records()))
    }
}

/// Mean and coefficient of variation of per-rank times (CoV 0 when the
/// mean is 0).
pub(crate) fn mean_and_cov(times: &[f64]) -> (f64, f64) {
    // sigmo-lint: allow(float-accumulation) — sequential fold over a
    // rank-indexed times vector, so summation order is fixed.
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    if mean <= f64::EPSILON {
        return (mean, 0.0);
    }
    // sigmo-lint: allow(float-accumulation) — same fixed rank order.
    let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
    (mean, var.sqrt() / mean)
}

/// Modeled seconds as integer nanoseconds — the tick both the dynamic
/// scheduler and the fault router run on.
pub(crate) fn seconds_to_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_mol::Dataset;

    fn small_world() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
        let d = Dataset::small(7);
        (d.queries()[..6].to_vec(), d.data_graphs().to_vec())
    }

    fn config(ranks: usize) -> ClusterConfig {
        ClusterConfig {
            num_ranks: ranks,
            engine: EngineConfig {
                refinement_iterations: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn cluster_total_equals_single_rank_total() {
        let (queries, data) = small_world();
        let single = ClusterSim::new(config(1)).run(&queries, &data);
        let multi = ClusterSim::new(config(4)).run(&queries, &data);
        assert_eq!(single.total_matches, multi.total_matches);
        assert!(multi.total_matches > 0, "workload must produce matches");
    }

    #[test]
    fn ranks_cover_all_molecules() {
        let (queries, data) = small_world();
        let report = ClusterSim::new(config(8)).run(&queries, &data);
        let covered: usize = report.ranks.iter().map(|r| r.molecules).sum();
        assert_eq!(covered, data.len());
        assert_eq!(report.ranks.len(), 8);
    }

    #[test]
    fn weak_scaling_raises_throughput() {
        // Weak scaling: double the data with double the ranks; throughput
        // should grow (makespan stays roughly flat, matches double).
        let (queries, data) = small_world();
        let mut doubled = data.clone();
        doubled.extend(data.iter().cloned());
        let r1 = ClusterSim::new(config(2)).run(&queries, &data);
        let r2 = ClusterSim::new(config(4)).run(&queries, &doubled);
        assert_eq!(r2.total_matches, 2 * r1.total_matches);
        assert!(r2.throughput() > r1.throughput());
    }

    #[test]
    fn cov_is_small_but_nonzero_for_static_partitioning() {
        let (queries, data) = small_world();
        let report = ClusterSim::new(config(8)).run(&queries, &data);
        assert!(report.coefficient_of_variation >= 0.0);
        assert!(
            report.coefficient_of_variation < 0.5,
            "CoV {} should stay moderate for balanced partitions",
            report.coefficient_of_variation
        );
        assert!(report.makespan_s >= report.mean_rank_time_s);
    }

    #[test]
    fn find_first_counts_pairs() {
        let (queries, data) = small_world();
        let mut cfg = config(4);
        cfg.engine.mode = MatchMode::FindFirst;
        let first = ClusterSim::new(cfg).run(&queries, &data);
        let all = ClusterSim::new(config(4)).run(&queries, &data);
        assert!(first.total_matches <= all.total_matches);
        assert!(first.total_matches > 0);
    }
}
