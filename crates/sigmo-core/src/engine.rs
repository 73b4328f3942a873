//! The SIGMo engine: pipeline orchestration (Figure 2).
//!
//! ```text
//! input graphs ─▶ ❶ CSR-GO conversion ─▶ ❷ candidate allocation
//!   ─▶ [ ❸ signature generation ─▶ ❹ refine ] × refinement iterations
//!   ─▶ ❺ GMCR mapping ─▶ ❻ stack-based DFS join ─▶ matches
//! ```
//!
//! Step ❸ reads data signatures from [`BatchFacts`], built before the run
//! (or stored per molecule by the caller), never inside it.

use crate::candidates::{CandidateBitmap, WordWidth};
use crate::facts::{BatchFacts, DataTimings};
use crate::filter::{filter_pass, initialize_candidates_bucketed, Stage};
use crate::governor::{Completion, Governor};
use crate::join::cost::{JoinVariant, OrderChoice};
use crate::join::{
    join_with_policy, JoinMode, JoinParams, JoinPolicy, MatchRecord, PolicyMode,
    QueryPlan as JoinPlan,
};
use crate::mapping::Gmcr;
use crate::plan::QueryPlan;
use crate::schema::LabelSchema;
use crate::stats::{CandidateStats, IterationStats, StrategyCounts};
use sigmo_device::Queue;
use sigmo_graph::{CsrGo, LabeledGraph};
use std::time::{Duration, Instant};

/// Find All vs Find First (paper §1: node-to-node vs graph-to-graph).
pub type MatchMode = JoinMode;

/// Which query node starts the join's BFS matching order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinOrder {
    /// Start at the max-degree query node (the paper's structural
    /// heuristic; default).
    #[default]
    MaxDegree,
    /// Start at the query node with the fewest surviving candidates after
    /// filtering (extension: data-aware ordering, as used by VF3/RI-style
    /// engines).
    MinCandidates,
}

/// How the join picks its variant and matching order per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Explicit-stack DFS for every pair, in the configured
    /// [`EngineConfig::join_order`] (the historical default).
    #[default]
    Dfs,
    /// Frontier-materializing BFS for every pair, in the configured
    /// [`EngineConfig::join_order`].
    Bfs,
    /// Per-pair cost-model selection of both variant and order from the
    /// surviving candidate counts (`join::cost`); ignores `join_order`.
    Adaptive,
    /// Adaptive with every cost-model decision flipped — the ablation
    /// control proving the model beats its own anti-model, and the stream
    /// runner's strategy-retry lever.
    AdaptiveInverted,
}

impl JoinStrategy {
    /// The opposing strategy, used by the stream runner to retry a
    /// quarantine-bound molecule before giving up on it: fixed variants
    /// swap, adaptive runs flip their decisions.
    pub fn flipped(self) -> Self {
        match self {
            JoinStrategy::Dfs => JoinStrategy::Bfs,
            JoinStrategy::Bfs => JoinStrategy::Dfs,
            JoinStrategy::Adaptive => JoinStrategy::AdaptiveInverted,
            JoinStrategy::AdaptiveInverted => JoinStrategy::Adaptive,
        }
    }
}

/// Engine configuration. Defaults follow the paper's V100S tuning
/// (Table 1) and its observed optimum of six refinement iterations.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of refinement iterations (≥ 1). Iteration 1 is label-only
    /// initialization; iteration `i` extends each node's view to radius
    /// `i − 1` (§5.1).
    pub refinement_iterations: usize,
    /// Filter kernel work-group size (Table 1: 1024 on V100S).
    pub filter_work_group_size: usize,
    /// Join kernel work-group size (Table 1: 128 on V100S).
    pub join_work_group_size: usize,
    /// Candidate bitmap word width (Table 1: 32-bit on V100S).
    pub bitmap_word: WordWidth,
    /// Find All or Find First.
    pub mode: MatchMode,
    /// Strict induced matching (extension; default off = substructure
    /// semantics per Definition 2.1).
    pub induced: bool,
    /// Collect at most this many embeddings in the report.
    pub collect_limit: Option<usize>,
    /// Signature schema; defaults to the frequency-skewed organic layout.
    pub schema: LabelSchema,
    /// Join matching-order heuristic (used by the fixed strategies; the
    /// adaptive strategies pick per pair).
    pub join_order: JoinOrder,
    /// Join variant selection: fixed DFS/BFS or per-pair adaptive.
    pub join_strategy: JoinStrategy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            refinement_iterations: 6,
            filter_work_group_size: 1024,
            join_work_group_size: 128,
            bitmap_word: WordWidth::U32,
            mode: JoinMode::FindAll,
            induced: false,
            collect_limit: None,
            schema: LabelSchema::organic(),
            join_order: JoinOrder::default(),
            join_strategy: JoinStrategy::default(),
        }
    }
}

impl EngineConfig {
    /// Config in Find First mode.
    pub fn find_first() -> Self {
        Self {
            mode: JoinMode::FindFirst,
            ..Default::default()
        }
    }

    /// Config with a given number of refinement iterations.
    pub fn with_iterations(iterations: usize) -> Self {
        Self {
            refinement_iterations: iterations,
            ..Default::default()
        }
    }
}

/// Real wall-clock time per pipeline phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// CSR-GO conversion + bitmap allocation (❶–❷; excluded from the
    /// paper's timings, reported separately here).
    pub setup: Duration,
    /// The data side of setup by part, when the run built the facts (and
    /// its CSR-GO build, when it batched the data graphs itself).
    pub data: DataTimings,
    /// Filter phase (❸–❹): signature generation + candidate refinement.
    pub filter: Duration,
    /// Mapping phase (❺).
    pub mapping: Duration,
    /// Join phase (❻).
    pub join: Duration,
}

impl PhaseTimings {
    /// Filter + mapping + join, matching the paper's reported totals
    /// (which exclude allocation/initialization, §5.2).
    pub fn total(&self) -> Duration {
        self.filter + self.mapping + self.join
    }
}

/// Full result of one engine run.
#[derive(Debug)]
pub struct RunReport {
    /// Total embeddings (Find All) or matched pairs (Find First).
    pub total_matches: u64,
    /// Number of (data graph, query graph) pairs with ≥ 1 match.
    pub matched_pairs: u64,
    /// Matched (data graph, query graph) pairs from the GMCR booleans.
    pub matched_pair_list: Vec<(usize, usize)>,
    /// Per-pair attribution: `(data graph, query graph, matches)` for
    /// every pair with ≥ 1 match; counts sum to `total_matches`. The
    /// serving layer scatters these back to the requests that contributed
    /// each data graph.
    pub pair_counts: Vec<(usize, usize, u64)>,
    /// Data graphs whose join work-group exhausted its local step budget
    /// (deterministic per graph; see [`crate::governor`] module docs).
    pub truncated_graphs: Vec<usize>,
    /// Collected embeddings (when a collect limit was configured).
    pub records: Vec<MatchRecord>,
    /// Per-refinement-iteration candidate statistics (Figure 5).
    pub iterations: Vec<IterationStats>,
    /// Real wall-clock phase timings (Figure 6).
    pub timings: PhaseTimings,
    /// GMCR pair count after mapping.
    pub gmcr_pairs: usize,
    /// Candidate bitmap footprint in bytes per the §5.1.3 packed-bit
    /// formula `⌈|V_Q| × |V_D| / 8⌉`.
    pub bitmap_bytes: usize,
    /// Bitmap bytes actually allocated, with each row padded to whole
    /// 64-bit words (≥ `bitmap_bytes`).
    pub bitmap_padded_bytes: usize,
    /// CSR-GO footprint in bytes (queries + data).
    pub graph_bytes: usize,
    /// Signature storage in bytes (query + data signature arrays).
    pub signature_bytes: usize,
    /// Whether the run explored the full search space (`Complete`) or was
    /// stopped by the governor (`Truncated`). Truncated totals are sound
    /// lower bounds; see DESIGN.md §8 for the degradation contract.
    pub completion: Completion,
    /// Per-pair join variant/order decision tallies (fixed strategies
    /// count too: every joined pair lands in one variant + one order
    /// bucket).
    pub strategy: StrategyCounts,
}

impl RunReport {
    /// Distinct matched node sets per the NLSM problem definition (§2.2):
    /// the output `X = {X ⊆ V_D | G_D[X] isomorphic to G_Q}` collects node
    /// *sets*, so automorphic embeddings (e.g. the 12 self-mappings of a
    /// benzene ring) collapse to one element. Requires the run to have
    /// collected records (`collect_limit`); returns per-(data graph, query
    /// graph) sorted node sets, deduplicated.
    pub fn distinct_match_sets(&self) -> Vec<(usize, usize, Vec<sigmo_graph::NodeId>)> {
        let mut sets: Vec<(usize, usize, Vec<sigmo_graph::NodeId>)> = self
            .records
            .iter()
            .map(|r| {
                let mut nodes = r.mapping.clone();
                nodes.sort_unstable();
                (r.data_graph, r.query_graph, nodes)
            })
            .collect();
        sets.sort();
        sets.dedup();
        sets
    }

    /// Throughput in matches per second over the paper-comparable total
    /// time (filter + mapping + join).
    pub fn throughput(&self) -> f64 {
        let t = self.timings.total().as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.total_matches as f64 / t
        }
    }
}

/// The batched subgraph-isomorphism engine.
///
/// ```
/// use sigmo_core::{Engine, EngineConfig};
/// use sigmo_device::{DeviceProfile, Queue};
/// use sigmo_graph::LabeledGraph;
///
/// // Query: C-O (labels 1, 3). Data: a C-C-O chain.
/// let query = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
/// let data = LabeledGraph::from_edges(&[1, 1, 3], &[(0, 1), (1, 2)]).unwrap();
///
/// let queue = Queue::new(DeviceProfile::host());
/// let report = Engine::new(EngineConfig::default()).run(&[query], &[data], &queue);
/// assert_eq!(report.total_matches, 1);
/// ```
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    /// Creates an engine with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the full pipeline on pre-batched inputs with no budgets: the
    /// governor is unlimited, so behavior is identical to the pre-governor
    /// engine and the report always comes back `Complete`.
    pub fn run_batched(&self, queries: &CsrGo, data: &CsrGo, queue: &Queue) -> RunReport {
        self.run_batched_with_governor(queries, data, queue, &Governor::unlimited())
    }

    /// Runs the full pipeline under a [`Governor`]. The governor's
    /// heartbeat is consulted at every phase boundary, inside the filter
    /// kernels once per data node, and inside the join once per DFS step;
    /// a tripped governor yields a well-formed report whose `completion`
    /// records the truncation reason and whose totals are sound partial
    /// results.
    // sigmo-lint: allow(wall-clock-in-result) — phase wall timings are
    // display-only, excluded from determinism keys (the suites compare
    // counters and match totals, never `timings`).
    pub fn run_batched_with_governor(
        &self,
        queries: &CsrGo,
        data: &CsrGo,
        queue: &Queue,
        governor: &Governor,
    ) -> RunReport {
        // One-shot runs build their plan inline; the plan construction is
        // query-side-only precomputation, so it counts as setup time.
        let t0 = Instant::now();
        let plan = QueryPlan::from_batch(queries.clone(), &self.config);
        let plan_build = t0.elapsed();
        let mut report = self.run_planned_with_governor(&plan, data, queue, governor);
        report.timings.setup += plan_build;
        report
    }

    /// Runs the pipeline against a prebuilt [`QueryPlan`] with no budgets.
    /// This is the reuse entry point: `sigmo-cluster` shares one plan
    /// across all ranks ([`crate::StreamRunner`] shares one per stream and
    /// runs each chunk through [`Engine::run_with_facts`]).
    pub fn run_planned(&self, plan: &QueryPlan, data: &CsrGo, queue: &Queue) -> RunReport {
        self.run_planned_with_governor(plan, data, queue, &Governor::unlimited())
    }

    /// [`Engine::run_planned`] under a [`Governor`]: builds the batch's
    /// facts (counted as setup time) and runs on them.
    // sigmo-lint: allow(wall-clock-in-result) — phase wall timings are
    // display-only, excluded from determinism keys (see
    // `run_batched_with_governor`).
    pub fn run_planned_with_governor(
        &self,
        plan: &QueryPlan,
        data: &CsrGo,
        queue: &Queue,
        governor: &Governor,
    ) -> RunReport {
        let (facts, parts) = BatchFacts::for_run_timed(&self.config, plan, data, &[]);
        let mut report = self.run_with_facts(plan, data, &facts, queue, governor);
        report.timings.setup += parts.total();
        report.timings.data = parts;
        report
    }

    /// [`Engine::run_planned_with_governor`] on prebuilt data facts. They
    /// must use the configured schema, cover every data node, hold
    /// [`BatchFacts::run_depth`] radii and carry attributes when the plan
    /// has predicate rows; the run asserts this and never rebuilds them.
    // sigmo-lint: allow(wall-clock-in-result) — phase wall timings are
    // display-only, excluded from determinism keys (see
    // `run_batched_with_governor`).
    pub fn run_with_facts(
        &self,
        plan: &QueryPlan,
        data: &CsrGo,
        facts: &BatchFacts,
        queue: &Queue,
        governor: &Governor,
    ) -> RunReport {
        let cfg = &self.config;
        plan.assert_fits(cfg);
        facts.assert_serves(cfg, plan, data);
        let queries = plan.batch();

        // ❷ allocate candidates (query-side state comes precomputed from
        // the plan, data-side state from the facts).
        let t0 = Instant::now();
        let bitmap = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), cfg.bitmap_word);
        // Figure 2's input arrows: queries + molecules move host → device.
        queue.record_transfer(
            "h2d_graphs",
            (queries.memory_bytes() + data.memory_bytes()) as u64,
            0,
        );
        let setup = t0.elapsed();

        // ❸–❹ filter.
        let t1 = Instant::now();
        let iterations = self.filter_with_facts(plan, data, facts, &bitmap, queue, governor);
        let filter = t1.elapsed();

        // ❺ mapping.
        let t2 = Instant::now();
        let gmcr = Gmcr::build(queue, queries, data, &bitmap, cfg.filter_work_group_size);
        let mapping = t2.elapsed();

        // ❻ join. The max-degree plans are data-independent and come from
        // the reusable query plan; the min-candidates ordering depends on
        // the surviving candidate counts, so its plans are built per run —
        // and only when something can actually use them.
        let t3 = Instant::now();
        let adaptive = matches!(
            cfg.join_strategy,
            JoinStrategy::Adaptive | JoinStrategy::AdaptiveInverted
        );
        let min_cand_plans: Vec<JoinPlan>;
        let min_cand_slice: &[JoinPlan] = if adaptive || cfg.join_order == JoinOrder::MinCandidates
        {
            min_cand_plans = plan.min_candidates_plans(&bitmap);
            &min_cand_plans
        } else {
            plan.join_plans()
        };
        let fixed_order = match cfg.join_order {
            JoinOrder::MaxDegree => OrderChoice::MaxDegree,
            JoinOrder::MinCandidates => OrderChoice::MinCandidates,
        };
        let policy = JoinPolicy {
            max_degree: plan.join_plans(),
            min_candidates: min_cand_slice,
            mode: match cfg.join_strategy {
                JoinStrategy::Dfs => PolicyMode::Fixed(JoinVariant::Dfs, fixed_order),
                JoinStrategy::Bfs => PolicyMode::Fixed(JoinVariant::Bfs, fixed_order),
                JoinStrategy::Adaptive => PolicyMode::Adaptive { inverted: false },
                JoinStrategy::AdaptiveInverted => PolicyMode::Adaptive { inverted: true },
            },
        };
        let params = JoinParams {
            mode: cfg.mode,
            work_group_size: cfg.join_work_group_size,
            induced: cfg.induced,
            collect_limit: cfg.collect_limit,
            governor: governor.clone(),
        };
        let outcome = join_with_policy(queue, queries, data, &bitmap, &gmcr, &policy, &params);
        // Figure 2's output arrow: matched-pair flags (and any collected
        // embeddings) move device → host.
        queue.record_transfer(
            "d2h_matches",
            0,
            gmcr.num_pairs() as u64
                + outcome
                    .records
                    .iter()
                    .map(|r| r.mapping.len() as u64 * 4)
                    .sum::<u64>(),
        );
        let join_t = t3.elapsed();

        RunReport {
            total_matches: outcome.total_matches,
            matched_pairs: outcome.matched_pairs,
            matched_pair_list: gmcr.matched_pairs(),
            pair_counts: outcome.pair_counts,
            truncated_graphs: outcome.truncated_graphs,
            records: outcome.records,
            iterations,
            timings: PhaseTimings {
                setup,
                data: DataTimings::default(),
                filter,
                mapping,
                join: join_t,
            },
            gmcr_pairs: gmcr.num_pairs(),
            bitmap_bytes: bitmap.memory_bytes(),
            bitmap_padded_bytes: bitmap.padded_memory_bytes(),
            graph_bytes: queries.memory_bytes() + data.memory_bytes(),
            signature_bytes: (queries.num_nodes() + data.num_nodes()) * 8,
            completion: outcome.completion,
            strategy: outcome.strategy,
        }
    }

    /// The filter phase alone (steps ❸–❹): initializes the all-zero
    /// `bitmap` (`plan`'s query rows × `data`'s nodes) and refines it as
    /// [`Engine::run_with_facts`] does, returning the per-iteration trace.
    /// Each iteration's [`crate::CandidateStats`] summarizes the per-row
    /// counts the filter pass reports; the bitmap is never popcounted
    /// again.
    ///
    /// After init, one fused launch ([`filter_pass`]) runs the label-pair
    /// pre-check, the predicate filter (both folded into iteration 1's
    /// stats: they run at radius 0) and refinement, which re-tests at
    /// each radius only the query rows whose signature moved
    /// ([`crate::DeltaClasses`]) and stops once the query side converges:
    /// bit-identical to re-testing every row for exactly
    /// `refinement_iterations − 1` radii, by the monotonicity argument in
    /// DESIGN.md §4b. `naive::reference_filter` is the oracle.
    pub fn filter_with_facts(
        &self,
        plan: &QueryPlan,
        data: &CsrGo,
        facts: &BatchFacts,
        bitmap: &CandidateBitmap,
        queue: &Queue,
        governor: &Governor,
    ) -> Vec<IterationStats> {
        let cfg = &self.config;
        plan.assert_fits(cfg);
        facts.assert_serves(cfg, plan, data);
        let wg = cfg.filter_work_group_size;
        initialize_candidates_bucketed(queue, plan.buckets(), data, bitmap, wg, governor);
        // Refinement runs to the configured radii or the query-side
        // fixpoint, whichever comes first: past `last_dirty_radius` no
        // query signature moves again, so no stage could clear a bit.
        let radii = (cfg.refinement_iterations - 1).min(plan.last_dirty_radius());
        let (all_tops, pair_tops) = (
            cfg.schema.top_bits(u64::MAX),
            plan.pair_schema().top_bits(u64::MAX),
        );
        let mut stages = vec![
            Stage::Pairs {
                rows: plan.pair_rows(),
                data: facts.pairs(),
                all_tops: pair_tops,
            },
            Stage::Preds {
                rows: if facts.attrs().is_some() {
                    plan.pred_rows()
                } else {
                    &[]
                },
                packed: facts.attrs().map_or(&[], |a| &a.packed),
            },
        ];
        stages.extend((1..=radii).map(|r| Stage::Refine {
            delta: plan.delta_at(r),
            data: facts.signatures_at(r),
            all_tops,
        }));
        let pass = filter_pass(queue, &stages, bitmap, governor);
        // The trace: iteration 1 after the label-pair and predicate stages,
        // iteration `r + 1` after radius `r`, each summarizing the rows'
        // counts kept stage by stage, up to the first stage some
        // work-group did not complete (iteration 1 is always reported).
        let mut counts: Vec<usize> = pass.initial.iter().map(|&c| c as usize).collect();
        let mut trace: Vec<IterationStats> = Vec::with_capacity(stages.len());
        let (mut cleared, mut dirty) = (0, 0);
        for (s, rows) in pass.cleared.iter().enumerate() {
            if s >= pass.completed && s > 1 {
                break;
            }
            if s < pass.completed {
                for &(row, gone) in rows {
                    counts[row] -= gone as usize;
                    cleared += gone;
                }
                dirty += rows.len() as u64;
            }
            if s >= 1 {
                trace.push(IterationStats {
                    iteration: s,
                    candidates: CandidateStats::from_counts(&counts),
                    cleared_bits: std::mem::take(&mut cleared),
                    dirty_nodes: std::mem::take(&mut dirty),
                });
            }
        }
        trace
    }

    /// Convenience: batches the graph lists and runs.
    pub fn run(
        &self,
        query_graphs: &[LabeledGraph],
        data_graphs: &[LabeledGraph],
        queue: &Queue,
    ) -> RunReport {
        self.run_with_governor(query_graphs, data_graphs, queue, &Governor::unlimited())
    }

    /// Convenience: batches the graph lists and runs under a [`Governor`],
    /// timing the data side's CSR-GO build as a part of setup.
    // sigmo-lint: allow(wall-clock-in-result) — phase wall timings are
    // display-only (see `run_batched_with_governor`).
    pub fn run_with_governor(
        &self,
        query_graphs: &[LabeledGraph],
        data_graphs: &[LabeledGraph],
        queue: &Queue,
        governor: &Governor,
    ) -> RunReport {
        let queries = CsrGo::from_graphs(query_graphs);
        let t = Instant::now();
        let data = CsrGo::from_graphs(data_graphs);
        let csr_build = t.elapsed();
        let mut report = self.run_batched_with_governor(&queries, &data, queue, governor);
        report.timings.data.csr_build = csr_build;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    fn labeled(labels: &[u8], edges: &[(u32, u32, u8)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for &l in labels {
            g.add_node(l);
        }
        for &(a, b, l) in edges {
            g.add_edge(a, b, l).unwrap();
        }
        g
    }

    #[test]
    fn end_to_end_tiny() {
        // Query C-O; data: ethanol-ish heavy skeleton C-C-O and methane C.
        let q = labeled(&[1, 3], &[(0, 1, 1)]);
        let d0 = labeled(&[1, 1, 3], &[(0, 1, 1), (1, 2, 1)]);
        let d1 = labeled(&[1], &[]);
        let engine = Engine::with_defaults();
        let report = engine.run(
            std::slice::from_ref(&q),
            &[d0.clone(), d1.clone()],
            &queue(),
        );
        assert_eq!(report.total_matches, 1);
        assert_eq!(report.matched_pair_list, vec![(0, 0)]);
        // The diameter-1 query converges after radius 1: the filter stops
        // after iteration 2 instead of running the configured 6, with the
        // results of a 1-iteration run.
        assert_eq!(report.iterations.len(), 2);
        let shallow = Engine::new(EngineConfig::with_iterations(1)).run(&[q], &[d0, d1], &queue());
        assert_eq!(shallow.total_matches, report.total_matches);
        assert_eq!(shallow.matched_pair_list, report.matched_pair_list);
    }

    #[test]
    fn filter_stops_early_and_matches_the_reference() {
        let q = labeled(&[1, 3], &[(0, 1, 1)]);
        let d: Vec<LabeledGraph> = vec![
            labeled(&[1, 1, 3], &[(0, 1, 1), (1, 2, 1)]),
            labeled(&[1, 3, 2], &[(0, 1, 1), (0, 2, 1)]),
            labeled(&[1, 1], &[(0, 1, 1)]),
        ];
        let cfg = EngineConfig::with_iterations(8);
        let plan = QueryPlan::build(std::slice::from_ref(&q), &cfg);
        let data = CsrGo::from_graphs(&d);
        let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
        let bitmap =
            CandidateBitmap::new(plan.batch().num_nodes(), data.num_nodes(), cfg.bitmap_word);
        let trace = Engine::new(cfg.clone()).filter_with_facts(
            &plan,
            &data,
            &facts,
            &bitmap,
            &queue(),
            &Governor::unlimited(),
        );
        assert!(trace.len() < 8, "the filter must stop at the fixpoint");
        // The per-bit oracle runs all 8 iterations, every row, no skipping.
        let reference = CandidateBitmap::new(bitmap.rows(), bitmap.cols(), cfg.bitmap_word);
        crate::naive::reference_filter(plan.batch(), &data, &cfg.schema, 8, &reference);
        for r in 0..bitmap.rows() {
            for c in 0..bitmap.cols() {
                assert_eq!(bitmap.get(r, c), reference.get(r, c), "bit ({r}, {c})");
            }
        }
        let last = trace.last().unwrap();
        assert_eq!(last.candidates.total, reference.total_count());
        // Each refinement iteration re-tests only the rows that moved.
        for it in &trace[1..] {
            assert!(it.dirty_nodes <= plan.batch().num_nodes() as u64);
        }
    }

    #[test]
    fn planned_run_matches_inline_run() {
        let q = labeled(&[1, 3, 0], &[(0, 1, 1), (0, 2, 1)]);
        let d = labeled(
            &[1, 3, 0, 0, 1],
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        );
        let engine = Engine::with_defaults();
        let inline = engine.run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue());
        let plan = crate::plan::QueryPlan::build(std::slice::from_ref(&q), engine.config());
        let data = CsrGo::from_graphs(std::slice::from_ref(&d));
        let planned = engine.run_planned(&plan, &data, &queue());
        assert_eq!(planned.total_matches, inline.total_matches);
        assert_eq!(planned.matched_pair_list, inline.matched_pair_list);
        assert_eq!(planned.iterations.len(), inline.iterations.len());
    }

    #[test]
    fn candidate_totals_shrink_monotonically() {
        let q = labeled(&[1, 3], &[(0, 1, 1)]);
        let d: Vec<LabeledGraph> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    labeled(&[1, 1, 3], &[(0, 1, 1), (1, 2, 1)])
                } else {
                    labeled(&[1, 1], &[(0, 1, 1)])
                }
            })
            .collect();
        let report = Engine::new(EngineConfig::with_iterations(5)).run(&[q], &d, &queue());
        for w in report.iterations.windows(2) {
            assert!(
                w[1].candidates.total <= w[0].candidates.total,
                "iteration {} grew candidates",
                w[1].iteration
            );
        }
    }

    #[test]
    fn more_iterations_never_change_match_count() {
        let q = labeled(&[1, 3, 0], &[(0, 1, 1), (0, 2, 1)]);
        let d = labeled(
            &[1, 3, 0, 0, 1],
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        );
        let base = Engine::new(EngineConfig::with_iterations(1))
            .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue())
            .total_matches;
        for iters in 2..=6 {
            let m = Engine::new(EngineConfig::with_iterations(iters))
                .run(std::slice::from_ref(&q), std::slice::from_ref(&d), &queue())
                .total_matches;
            assert_eq!(m, base, "filter changed results at {iters} iterations");
        }
    }

    #[test]
    fn find_first_pairs_match_find_all_pairs() {
        let q0 = labeled(&[1, 3], &[(0, 1, 1)]);
        let q1 = labeled(&[1, 2], &[(0, 1, 1)]);
        let data: Vec<LabeledGraph> = vec![
            labeled(&[1, 3, 2], &[(0, 1, 1), (0, 2, 1)]),
            labeled(&[1, 3], &[(0, 1, 1)]),
            labeled(&[1, 0], &[(0, 1, 1)]),
        ];
        let qs = [q0, q1];
        let all = Engine::new(EngineConfig::default()).run(&qs, &data, &queue());
        let first = Engine::new(EngineConfig::find_first()).run(&qs, &data, &queue());
        assert_eq!(all.matched_pair_list, first.matched_pair_list);
        assert!(first.total_matches <= all.total_matches);
    }

    #[test]
    fn report_memory_accounting_nonzero() {
        let q = labeled(&[1, 3], &[(0, 1, 1)]);
        let d = labeled(&[1, 3], &[(0, 1, 1)]);
        let report = Engine::with_defaults().run(&[q], &[d], &queue());
        assert!(report.bitmap_bytes > 0);
        assert!(report.bitmap_padded_bytes >= report.bitmap_bytes);
        assert!(report.graph_bytes > 0);
        assert!(report.signature_bytes > 0);
    }

    #[test]
    fn throughput_is_finite_and_consistent() {
        let q = labeled(&[1, 1], &[(0, 1, 1)]);
        let d = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]);
        let report = Engine::with_defaults().run(&[q], &[d], &queue());
        assert!(report.throughput().is_finite());
        assert_eq!(report.total_matches, 4);
    }

    #[test]
    #[should_panic(expected = "≥ 1 iteration")]
    fn zero_iterations_rejected() {
        let q = labeled(&[1], &[]);
        let graphs = std::slice::from_ref(&q);
        Engine::new(EngineConfig::with_iterations(0)).run(graphs, graphs, &queue());
    }

    #[test]
    fn all_join_strategies_agree_on_results() {
        // Mixed batch: a star query (wide candidate rows → BFS territory)
        // and a rare-label path (selective → min-candidates territory).
        let star = labeled(&[1, 0, 0, 0], &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let path = labeled(&[1, 3, 2], &[(0, 1, 1), (1, 2, 1)]);
        let data: Vec<LabeledGraph> = vec![
            labeled(
                &[1, 0, 0, 0, 0, 0],
                &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1), (0, 5, 1)],
            ),
            labeled(&[1, 3, 2, 0], &[(0, 1, 1), (1, 2, 1), (0, 3, 1)]),
            labeled(&[1, 3], &[(0, 1, 1)]),
        ];
        let qs = [star, path];
        let run = |strategy| {
            Engine::new(EngineConfig {
                join_strategy: strategy,
                ..Default::default()
            })
            .run(&qs, &data, &queue())
        };
        let base = run(JoinStrategy::Dfs);
        assert!(base.total_matches > 0);
        assert_eq!(base.strategy.total_pairs(), base.strategy.dfs_pairs);
        for strategy in [
            JoinStrategy::Bfs,
            JoinStrategy::Adaptive,
            JoinStrategy::AdaptiveInverted,
        ] {
            let r = run(strategy);
            assert_eq!(r.total_matches, base.total_matches, "{strategy:?}");
            assert_eq!(r.matched_pair_list, base.matched_pair_list, "{strategy:?}");
            assert_eq!(r.pair_counts, base.pair_counts, "{strategy:?}");
            assert_eq!(
                r.strategy.total_pairs(),
                base.strategy.total_pairs(),
                "{strategy:?}"
            );
        }
        let bfs = run(JoinStrategy::Bfs);
        assert_eq!(bfs.strategy.dfs_pairs, 0);
        assert_eq!(bfs.strategy.total_pairs(), bfs.strategy.bfs_pairs);
    }

    #[test]
    fn label_pair_precheck_prunes_bond_mismatch_at_init() {
        // Query C=O (double bond); data C-O (single). Node labels agree, so
        // only the pair pre-check can prune before the join.
        let q = labeled(&[1, 3], &[(0, 1, 2)]);
        let d = labeled(&[1, 3], &[(0, 1, 1)]);
        let report = Engine::with_defaults().run(&[q], &[d], &queue());
        assert_eq!(report.total_matches, 0);
        assert_eq!(
            report.iterations[0].cleared_bits, 2,
            "both rows' only candidate dies in the pre-check"
        );
        assert_eq!(report.iterations[0].dirty_nodes, 2, "both rows constrained");
        assert_eq!(report.gmcr_pairs, 0, "the pair never reaches the join");
    }
}

#[cfg(test)]
mod nlsm_tests {
    use super::*;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    #[test]
    fn node_sets_collapse_automorphic_embeddings() {
        // C6 ring query in a C6 ring data graph: 12 embeddings, 1 node set.
        let ring: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let mut q = LabeledGraph::with_uniform_labels(6, 1);
        for &(a, b) in &ring {
            q.add_edge(a, b, 1).unwrap();
        }
        let d = q.clone();
        let engine = Engine::new(EngineConfig {
            collect_limit: Some(1000),
            ..Default::default()
        });
        let report = engine.run(&[q], &[d], &Queue::new(DeviceProfile::host()));
        assert_eq!(report.total_matches, 12);
        let sets = report.distinct_match_sets();
        assert_eq!(sets.len(), 1, "NLSM output is one node set");
        assert_eq!(sets[0].2, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn node_sets_distinguish_distinct_sites() {
        // CH2 pattern C(-H)(-H): in CH4 the 4 hydrogens give C(4,2)=6
        // two-H subsets × 2 orderings = 12 embeddings, 6 node sets.
        let mut q = LabeledGraph::new();
        let c = q.add_node(1);
        let h1 = q.add_node(0);
        let h2 = q.add_node(0);
        q.add_edge(c, h1, 1).unwrap();
        q.add_edge(c, h2, 1).unwrap();
        let mut d = LabeledGraph::new();
        let dc = d.add_node(1);
        for _ in 0..4 {
            let h = d.add_node(0);
            d.add_edge(dc, h, 1).unwrap();
        }
        let engine = Engine::new(EngineConfig {
            collect_limit: Some(1000),
            ..Default::default()
        });
        let report = engine.run(&[q], &[d], &Queue::new(DeviceProfile::host()));
        assert_eq!(report.total_matches, 12);
        assert_eq!(report.distinct_match_sets().len(), 6);
    }

    #[test]
    fn transfer_records_appear_in_queue_log() {
        let q = LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap();
        let queue = Queue::new(DeviceProfile::host());
        Engine::with_defaults().run(std::slice::from_ref(&q), std::slice::from_ref(&q), &queue);
        let recs = queue.records();
        let transfers: Vec<_> = recs.iter().filter(|r| r.phase == "transfer").collect();
        assert_eq!(transfers.len(), 2, "h2d at setup, d2h at the end");
        assert!(transfers[0].counters.bytes_read > 0, "inputs move h2d");
    }
}
