//! Streaming execution: constant-memory matching over unbounded molecule
//! streams.
//!
//! The paper motivates SIGMo with virtual-screening campaigns producing
//! *trillions* of compounds (§2) — far beyond any device's memory. The
//! batch engine needs `|V_Q| × |V_D| / 8` bitmap bytes, so data must be
//! consumed in device-sized chunks. [`StreamRunner`] does exactly that:
//! it sizes chunks from the [`crate::memory`] model and a byte budget,
//! runs the full pipeline per chunk, and folds the reports into one
//! aggregate with globally consistent data-graph indices.

use crate::engine::{Engine, EngineConfig};
use crate::facts::{BatchFacts, MolFacts};
use crate::governor::{CancelToken, Completion, Governor, RunBudget, TruncationReason};
use crate::memory::{estimate_counts, MemoryEstimate};
use crate::plan::QueryPlan;
use crate::stats::StrategyCounts;
use sigmo_device::Queue;
use sigmo_graph::{CsrGo, LabeledGraph};
use std::borrow::Borrow;
use std::time::Duration;

/// One molecule isolated by the poisoned-chunk protocol: it tripped the
/// per-chunk budget even when run alone, so its (sound, partial) results
/// were folded in and the molecule flagged instead of sinking the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// Global stream index of the molecule.
    pub index: usize,
    /// Why its solo run was truncated.
    pub reason: TruncationReason,
    /// Matches found before truncation (already included in the stream
    /// totals — this records how much of the molecule was explored).
    pub partial_matches: u64,
}

/// Aggregate result of a streamed run.
#[derive(Debug, Default)]
pub struct StreamReport {
    /// Total embeddings (Find All) or matched pairs (Find First).
    pub total_matches: u64,
    /// Matched `(global data index, query index)` pairs.
    pub matched_pair_list: Vec<(usize, usize)>,
    /// Per-pair attribution with *global* data indices:
    /// `(global data index, query index, matches)`; counts sum to
    /// `total_matches`.
    pub pair_counts: Vec<(usize, usize, u64)>,
    /// Global indices of molecules whose join work-group exhausted its
    /// local step budget (a superset of `quarantined` molecule indices
    /// when the step budget is the truncating axis).
    pub truncated_graphs: Vec<usize>,
    /// Number of chunks processed.
    pub chunks: usize,
    /// Molecules processed.
    pub molecules: usize,
    /// Peak per-chunk memory estimate (bytes) — must stay under budget.
    pub peak_chunk_bytes: u64,
    /// Summed pipeline time across chunks (filter + mapping + join),
    /// including time spent on discarded truncated attempts.
    pub total_time: Duration,
    /// `Complete` when every molecule was fully explored; `Truncated`
    /// when anything was quarantined or the stream was cancelled.
    pub completion: Completion,
    /// Molecules whose solo runs still tripped the budget (their partial
    /// results are in the totals).
    pub quarantined: Vec<Quarantined>,
    /// Chunks whose results were discarded and re-run as two halves by
    /// the bisection protocol.
    pub retried_chunks: usize,
    /// Per-pair join variant/order decision tallies, folded across every
    /// chunk whose results entered the totals.
    pub strategy: StrategyCounts,
    /// Single molecules that tripped their budget and were re-run with
    /// the flipped join strategy before quarantine was considered
    /// ([`StreamRunner::with_strategy_retry`]).
    pub strategy_retries: usize,
}

impl StreamReport {
    /// Matches per second over the summed pipeline time.
    pub fn throughput(&self) -> f64 {
        let t = self.total_time.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            self.total_matches as f64 / t
        }
    }

    /// Folds a shard-partial report into `self`, remapping the partial's
    /// local data indices through `index_map` (`index_map[local]` is the
    /// merged global index). Counts, work counters, and pipeline time are
    /// summed; peak memory is the max; the completion verdict folds via
    /// [`Completion::merge_symmetric`]. Absorbing a set of partials with
    /// disjoint index maps in *any* order, followed by
    /// [`StreamReport::normalize`], yields an identical merged report —
    /// the invariant the sharded serving tier's scatter/gather relies on
    /// (pinned by a proptest in `tests/properties.rs`).
    pub fn absorb_partial(&mut self, part: &StreamReport, index_map: &[usize]) {
        self.total_matches += part.total_matches;
        self.matched_pair_list.extend(
            part.matched_pair_list
                .iter()
                .map(|&(d, q)| (index_map[d], q)),
        );
        self.pair_counts.extend(
            part.pair_counts
                .iter()
                .map(|&(d, q, n)| (index_map[d], q, n)),
        );
        self.truncated_graphs
            .extend(part.truncated_graphs.iter().map(|&d| index_map[d]));
        self.chunks += part.chunks;
        self.molecules += part.molecules;
        self.peak_chunk_bytes = self.peak_chunk_bytes.max(part.peak_chunk_bytes);
        self.total_time += part.total_time;
        self.completion = self.completion.merge_symmetric(part.completion);
        self.quarantined
            .extend(part.quarantined.iter().map(|q| Quarantined {
                index: index_map[q.index],
                reason: q.reason,
                partial_matches: q.partial_matches,
            }));
        self.retried_chunks += part.retried_chunks;
        self.strategy.add(&part.strategy);
        self.strategy_retries += part.strategy_retries;
    }

    /// Sorts every index-carrying list into the canonical order a
    /// sequential single-stream run produces — pair lists by
    /// `(data index, query index)`, truncated indices ascending and
    /// deduplicated, quarantine records by index — so a report assembled
    /// from shard partials compares bit-for-bit against the unsharded
    /// oracle.
    pub fn normalize(&mut self) {
        self.matched_pair_list.sort_unstable();
        self.pair_counts.sort_unstable();
        self.truncated_graphs.sort_unstable();
        self.truncated_graphs.dedup();
        self.quarantined.sort_by_key(|q| q.index);
    }
}

/// Running node / edge / graph totals of a pending chunk, so the budget
/// check after every molecule is O(1) closed-form arithmetic
/// ([`estimate_counts`]) instead of a CSR-GO build of the whole chunk.
#[derive(Debug, Default, Clone, Copy)]
struct ChunkSize {
    nodes: u64,
    edges: u64,
    graphs: u64,
}

impl ChunkSize {
    fn add(&mut self, mol: &LabeledGraph) {
        self.nodes += mol.num_nodes() as u64;
        self.edges += mol.num_edges() as u64;
        self.graphs += 1;
    }

    fn remove(&mut self, mol: &LabeledGraph) {
        self.nodes -= mol.num_nodes() as u64;
        self.edges -= mol.num_edges() as u64;
        self.graphs -= 1;
    }

    /// The memory estimate of running `plan` over the chunk — equal to
    /// `estimate_batched` on the chunk's CSR-GO.
    fn estimate(&self, plan: &QueryPlan) -> MemoryEstimate {
        estimate_counts(plan.batch(), self.nodes, self.edges, self.graphs)
    }
}

/// Streaming wrapper around [`Engine`].
///
/// With a [`RunBudget`] set, every chunk runs under its own governor
/// (fresh deadline / step budget per attempt). A chunk that comes back
/// `Truncated` is *poisoned*: its partial results are discarded and the
/// chunk is re-run as two halves, recursively, down to a single molecule
/// — which, if it still trips alone, is quarantined with its partial
/// results folded in. One pathological molecule therefore costs
/// `O(log chunk)` retries instead of sinking the whole stream.
/// Cancellation is different: the shared [`CancelToken`] means the caller
/// wants out, so the in-flight chunk's partials are kept and the stream
/// stops without bisection.
pub struct StreamRunner {
    engine: Engine,
    /// Device-memory budget per chunk in bytes.
    memory_budget: u64,
    /// Upper bound on molecules per chunk regardless of memory (keeps
    /// per-chunk latency bounded).
    max_chunk_molecules: usize,
    /// Per-chunk resource budget (each attempt gets a fresh governor).
    budget: RunBudget,
    /// Cancel token observed by every chunk's governor.
    cancel: CancelToken,
    /// Retry a budget-tripping single molecule with the flipped join
    /// strategy before quarantining it.
    strategy_retry: bool,
}

impl StreamRunner {
    /// Creates a runner with a per-chunk memory budget.
    pub fn new(config: EngineConfig, memory_budget: u64) -> Self {
        Self {
            engine: Engine::new(config),
            memory_budget,
            max_chunk_molecules: 100_000,
            budget: RunBudget::none(),
            cancel: CancelToken::new(),
            strategy_retry: false,
        }
    }

    /// Overrides the molecule cap per chunk.
    pub fn with_max_chunk(mut self, molecules: usize) -> Self {
        self.max_chunk_molecules = molecules.max(1);
        self
    }

    /// Sets the per-chunk resource budget (deadline / step budget /
    /// embedding cap), enabling the bisection-and-quarantine protocol.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the cancel token every chunk's governor observes. Cancelling
    /// it stops the stream at the next heartbeat, keeping partial results.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The cancel token this runner observes.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Enables the strategy-retry quarantine path: a molecule that trips
    /// its budget *alone* is re-run once with the flipped join strategy
    /// ([`crate::JoinStrategy::flipped`]) under a fresh governor. A search
    /// space pathological for one exploration order is often tame for the
    /// other (a DFS stuck in a deep combinatorial pocket may be a few
    /// shallow BFS frontiers), so this salvages complete results the
    /// bisection protocol would have quarantined as partial. Off by
    /// default: the retry burns up to one extra budget per pathological
    /// molecule.
    pub fn with_strategy_retry(mut self, enabled: bool) -> Self {
        self.strategy_retry = enabled;
        self
    }

    /// Consumes a molecule stream, matching every item against `queries`.
    ///
    /// Chunks grow greedily until the memory model says the next molecule
    /// would exceed the budget (or the molecule cap is hit), then the
    /// pipeline runs and the chunk is dropped. A single molecule that
    /// exceeds the budget on its own is processed alone (the engine still
    /// works; the budget is advisory for such outliers).
    ///
    /// The query-side [`QueryPlan`] (signatures at every radius, label
    /// buckets, signature classes, join plans) is built exactly once here
    /// and shared by every chunk — the stream only re-does data-side work.
    pub fn run<I>(&self, queries: &[LabeledGraph], stream: I, queue: &Queue) -> StreamReport
    where
        I: IntoIterator<Item = LabeledGraph>,
    {
        let plan = QueryPlan::build(queries, self.engine.config());
        self.run_with_plan(&plan, stream, queue)
    }

    /// [`StreamRunner::run`] against a caller-supplied [`QueryPlan`] — the
    /// serving layer's entry point, where one plan is cached across many
    /// requests and streams. The plan must have been built from a
    /// configuration compatible with this runner's (same iteration count,
    /// schema, and induced flag); `Engine::run_with_facts` asserts
    /// this per chunk.
    pub fn run_with_plan<I>(&self, plan: &QueryPlan, stream: I, queue: &Queue) -> StreamReport
    where
        I: IntoIterator<Item = LabeledGraph>,
    {
        self.run_items(
            plan,
            stream.into_iter().map(|mol| (mol, None::<&MolFacts>)),
            queue,
        )
    }

    /// [`StreamRunner::run_with_plan`] over borrowed molecules, each with
    /// its stored [`MolFacts`] when the caller keeps them: a chunk copies
    /// stored facts instead of rebuilding them, and builds the rest. The
    /// serving layer's entry point. Stored facts must be built under the
    /// runner's schema with at least [`BatchFacts::run_depth`] radii.
    pub fn run_with_facts<'a, I>(&self, plan: &QueryPlan, stream: I, queue: &Queue) -> StreamReport
    where
        I: IntoIterator<Item = (&'a LabeledGraph, Option<&'a MolFacts>)>,
    {
        self.run_items(plan, stream, queue)
    }

    fn run_items<G, F, I>(&self, plan: &QueryPlan, stream: I, queue: &Queue) -> StreamReport
    where
        G: Borrow<LabeledGraph>,
        F: Borrow<MolFacts>,
        I: IntoIterator<Item = (G, Option<F>)>,
    {
        let mut report = StreamReport::default();
        let mut chunk: Vec<(G, Option<F>)> = Vec::new();
        let mut size = ChunkSize::default();
        let mut base_index = 0usize;
        for item in stream {
            if self.cancel.is_cancelled() {
                report.completion = report
                    .completion
                    .merge(Completion::Truncated(TruncationReason::Cancelled));
                return report;
            }
            size.add(item.0.borrow());
            chunk.push(item);
            let over_budget = chunk.len() >= self.max_chunk_molecules
                || (size.estimate(plan).total() > self.memory_budget && chunk.len() > 1);
            if over_budget {
                // The last molecule tipped the budget: hold it for the next
                // chunk unless the cap (not memory) triggered.
                let spill = if chunk.len() >= self.max_chunk_molecules {
                    None
                } else {
                    chunk.pop()
                };
                if let Some((m, _)) = &spill {
                    size.remove(m.borrow());
                }
                self.flush(
                    plan,
                    &mut chunk,
                    &mut size,
                    &mut base_index,
                    queue,
                    &mut report,
                );
                if let Some(item) = spill {
                    size.add(item.0.borrow());
                    chunk.push(item);
                }
            }
        }
        if !chunk.is_empty() && !self.cancel.is_cancelled() {
            self.flush(
                plan,
                &mut chunk,
                &mut size,
                &mut base_index,
                queue,
                &mut report,
            );
        }
        if self.cancel.is_cancelled() {
            report.completion = report
                .completion
                .merge(Completion::Truncated(TruncationReason::Cancelled));
        }
        report
    }

    fn flush<G: Borrow<LabeledGraph>, F: Borrow<MolFacts>>(
        &self,
        plan: &QueryPlan,
        chunk: &mut Vec<(G, Option<F>)>,
        size: &mut ChunkSize,
        base_index: &mut usize,
        queue: &Queue,
        report: &mut StreamReport,
    ) {
        report.peak_chunk_bytes = report.peak_chunk_bytes.max(size.estimate(plan).total());
        self.run_span(plan, chunk, *base_index, queue, report);
        report.molecules += chunk.len();
        *base_index += chunk.len();
        chunk.clear();
        *size = ChunkSize::default();
    }

    /// Runs one span of molecules under a fresh per-attempt governor,
    /// bisecting on truncation. Folds only trusted results into `report`:
    /// complete runs, quarantined single-molecule partials, and — on
    /// cancellation — the in-flight partials (the caller asked to stop;
    /// nothing will be retried).
    fn run_span<G: Borrow<LabeledGraph>, F: Borrow<MolFacts>>(
        &self,
        plan: &QueryPlan,
        span: &[(G, Option<F>)],
        base_index: usize,
        queue: &Queue,
        report: &mut StreamReport,
    ) {
        let governor = Governor::with_cancel(&self.budget, self.cancel.clone());
        let graphs: Vec<&LabeledGraph> = span.iter().map(|(g, _)| g.borrow()).collect();
        let data = CsrGo::from_graph_refs(&graphs);
        let stored: Vec<Option<&MolFacts>> = span
            .iter()
            .map(|(_, f)| f.as_ref().map(Borrow::borrow))
            .collect();
        let facts = BatchFacts::for_run(self.engine.config(), plan, &data, &stored);
        let run = self
            .engine
            .run_with_facts(plan, &data, &facts, queue, &governor);
        report.total_time += run.timings.total();
        match run.completion {
            Completion::Complete => {
                Self::fold(report, &run, base_index);
                report.chunks += 1;
            }
            Completion::Truncated(TruncationReason::Cancelled) => {
                // The caller asked to stop: keep the sound partials, no
                // retry. The outer loop sees the token and ends the stream.
                Self::fold(report, &run, base_index);
                report.chunks += 1;
                report.completion = report.completion.merge(run.completion);
            }
            Completion::Truncated(reason) if span.len() == 1 => {
                // Already a single molecule. Before quarantining, optionally
                // retry with the flipped join strategy: the other
                // exploration order may finish inside the same budget.
                if self.strategy_retry && !self.cancel.is_cancelled() {
                    report.strategy_retries += 1;
                    let mut cfg = self.engine.config().clone();
                    cfg.join_strategy = cfg.join_strategy.flipped();
                    let retry_gov = Governor::with_cancel(&self.budget, self.cancel.clone());
                    let retry =
                        Engine::new(cfg).run_with_facts(plan, &data, &facts, queue, &retry_gov);
                    report.total_time += retry.timings.total();
                    if retry.completion.is_complete() {
                        // The flipped strategy finished: its results are
                        // exact, the original partials are discarded.
                        Self::fold(report, &retry, base_index);
                        report.chunks += 1;
                        return;
                    }
                    // Both strategies tripped: quarantine with the
                    // original attempt's (deterministic) partials.
                }
                Self::fold(report, &run, base_index);
                report.chunks += 1;
                report.completion = report.completion.merge(run.completion);
                report.quarantined.push(Quarantined {
                    index: base_index,
                    reason,
                    partial_matches: run.total_matches,
                });
            }
            Completion::Truncated(_) => {
                // Poisoned chunk: discard the partial results (folding them
                // AND re-running the halves would double-count), bisect.
                report.retried_chunks += 1;
                let mid = span.len() / 2;
                self.run_span(plan, &span[..mid], base_index, queue, report);
                if !self.cancel.is_cancelled() {
                    self.run_span(plan, &span[mid..], base_index + mid, queue, report);
                }
            }
        }
    }

    fn fold(report: &mut StreamReport, run: &crate::engine::RunReport, base_index: usize) {
        report.total_matches += run.total_matches;
        report.matched_pair_list.extend(
            run.matched_pair_list
                .iter()
                .map(|&(d, q)| (base_index + d, q)),
        );
        report.pair_counts.extend(
            run.pair_counts
                .iter()
                .map(|&(d, q, n)| (base_index + d, q, n)),
        );
        report
            .truncated_graphs
            .extend(run.truncated_graphs.iter().map(|&d| base_index + d));
        report.strategy.add(&run.strategy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchMode;
    use crate::memory::{estimate, estimate_batched};
    use sigmo_device::DeviceProfile;
    use sigmo_mol::{functional_groups, MoleculeGenerator};

    fn world() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
        let queries: Vec<LabeledGraph> = functional_groups()
            .into_iter()
            .take(10)
            .map(|q| q.graph)
            .collect();
        let data: Vec<LabeledGraph> = MoleculeGenerator::with_seed(301)
            .generate_batch(60)
            .iter()
            .map(|m| m.to_labeled_graph())
            .collect();
        (queries, data)
    }

    #[test]
    fn streamed_totals_equal_batch_totals() {
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let batch = Engine::new(EngineConfig::default()).run(&queries, &data, &queue);
        // A budget well under the whole batch forces many chunks.
        let budget = estimate(&queries, &data).total() / 4;
        let runner = StreamRunner::new(EngineConfig::default(), budget);
        let streamed = runner.run(&queries, data.iter().cloned(), &queue);
        assert!(streamed.chunks > 1, "budget must split the stream");
        assert_eq!(streamed.total_matches, batch.total_matches);
        assert_eq!(streamed.molecules, data.len());
        let mut a = streamed.matched_pair_list.clone();
        a.sort_unstable();
        let mut b = batch.matched_pair_list.clone();
        b.sort_unstable();
        assert_eq!(a, b, "global indices must survive chunking");
    }

    #[test]
    fn peak_chunk_respects_budget() {
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let budget = 300_000u64;
        let runner = StreamRunner::new(EngineConfig::default(), budget);
        let streamed = runner.run(&queries, data.into_iter(), &queue);
        assert!(
            streamed.peak_chunk_bytes <= budget,
            "peak {} exceeded budget {}",
            streamed.peak_chunk_bytes,
            budget
        );
    }

    #[test]
    fn molecule_cap_bounds_chunks() {
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let runner = StreamRunner::new(EngineConfig::default(), u64::MAX).with_max_chunk(7);
        let streamed = runner.run(&queries, data.iter().cloned(), &queue);
        assert_eq!(streamed.chunks, data.len().div_ceil(7));
    }

    #[test]
    fn find_first_mode_streams_pairs() {
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let batch = Engine::new(EngineConfig::find_first()).run(&queries, &data, &queue);
        let runner = StreamRunner::new(
            EngineConfig {
                mode: MatchMode::FindFirst,
                ..Default::default()
            },
            150_000,
        );
        let streamed = runner.run(&queries, data.into_iter(), &queue);
        assert_eq!(streamed.total_matches, batch.matched_pairs);
    }

    #[test]
    fn strategy_retry_salvages_a_dfs_pathological_molecule() {
        use sigmo_graph::LabeledGraph;
        // Query: C with 3 H leaves. Data: C with 8 H leaves → 8·7·6 = 336
        // embeddings. The DFS ticks once per stack step (~800 for this
        // pair); the BFS ticks once per frontier row (1 + 8 + 56 = 65). A
        // step budget between the two makes DFS trip where BFS completes.
        let mut q = LabeledGraph::new();
        let qc = q.add_node(1);
        for _ in 0..3 {
            let h = q.add_node(0);
            q.add_edge(qc, h, 1).unwrap();
        }
        let mut d = LabeledGraph::new();
        let dc = d.add_node(1);
        for _ in 0..8 {
            let h = d.add_node(0);
            d.add_edge(dc, h, 1).unwrap();
        }
        let queries = [q];
        let budget = crate::governor::RunBudget::none().with_step_budget(200);
        let base = StreamRunner::new(EngineConfig::default(), u64::MAX)
            .with_max_chunk(1)
            .with_budget(budget.clone());
        let queue = Queue::new(DeviceProfile::host());
        let without = base.run(&queries, std::iter::once(d.clone()), &queue);
        assert_eq!(without.quarantined.len(), 1, "DFS alone must trip");
        assert_eq!(without.strategy_retries, 0);
        assert!(without.total_matches < 336, "partial results only");

        let with_retry = StreamRunner::new(EngineConfig::default(), u64::MAX)
            .with_max_chunk(1)
            .with_budget(budget)
            .with_strategy_retry(true);
        let report = with_retry.run(&queries, std::iter::once(d), &queue);
        assert_eq!(report.strategy_retries, 1);
        assert!(
            report.quarantined.is_empty(),
            "the flipped strategy saves it"
        );
        assert_eq!(report.total_matches, 336);
        assert!(report.completion.is_complete());
        assert_eq!(report.strategy.bfs_pairs, 1, "retry ran the BFS variant");
    }

    #[test]
    fn absorbed_partials_reconstruct_the_single_stream_report() {
        // Split the stream into even- and odd-indexed halves, run each
        // alone, and merge the partials through disjoint index maps — in
        // both orders. Both merges must equal the single-stream run on
        // the result surface after normalization.
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let runner = StreamRunner::new(EngineConfig::default(), 300_000);
        let mut full = runner.run(&queries, data.iter().cloned(), &queue);
        full.normalize();

        let evens: Vec<LabeledGraph> = data.iter().step_by(2).cloned().collect();
        let odds: Vec<LabeledGraph> = data.iter().skip(1).step_by(2).cloned().collect();
        let map_e: Vec<usize> = (0..data.len()).step_by(2).collect();
        let map_o: Vec<usize> = (1..data.len()).step_by(2).collect();
        let part_e = runner.run(&queries, evens, &queue);
        let part_o = runner.run(&queries, odds, &queue);

        let merge = |first: (&StreamReport, &[usize]), second: (&StreamReport, &[usize])| {
            let mut m = StreamReport::default();
            m.absorb_partial(first.0, first.1);
            m.absorb_partial(second.0, second.1);
            m.normalize();
            m
        };
        let eo = merge((&part_e, &map_e), (&part_o, &map_o));
        let oe = merge((&part_o, &map_o), (&part_e, &map_e));
        for m in [&eo, &oe] {
            assert_eq!(m.total_matches, full.total_matches);
            assert_eq!(m.matched_pair_list, full.matched_pair_list);
            assert_eq!(m.pair_counts, full.pair_counts);
            assert_eq!(m.truncated_graphs, full.truncated_graphs);
            assert_eq!(m.molecules, full.molecules);
            assert_eq!(m.completion, full.completion);
            assert_eq!(m.quarantined, full.quarantined);
        }
    }

    #[test]
    fn running_totals_estimate_equals_batched_on_every_prefix() {
        let (queries, data) = world();
        let plan = QueryPlan::build(&queries, &EngineConfig::default());
        let mut size = ChunkSize::default();
        for k in 1..=data.len() {
            size.add(&data[k - 1]);
            let batched = estimate_batched(plan.batch(), &CsrGo::from_graphs(&data[..k]));
            assert_eq!(size.estimate(&plan), batched, "prefix of {k}");
        }
        for k in (0..data.len()).rev() {
            size.remove(&data[k]);
            let batched = estimate_batched(plan.batch(), &CsrGo::from_graphs(&data[..k]));
            assert_eq!(size.estimate(&plan), batched, "prefix of {k} after removal");
        }
    }

    /// The chunking rule with a CSR-GO built per added molecule — the
    /// reference the running totals must reproduce. Returns the chunk
    /// sizes and the peak per-chunk estimate.
    fn reference_chunking(
        plan: &QueryPlan,
        data: &[LabeledGraph],
        budget: u64,
    ) -> (Vec<usize>, u64) {
        let est =
            |c: &[LabeledGraph]| estimate_batched(plan.batch(), &CsrGo::from_graphs(c)).total();
        let (mut sizes, mut peak, mut start) = (Vec::new(), 0u64, 0usize);
        for end in 1..=data.len() {
            if end - start > 1 && est(&data[start..end]) > budget {
                peak = peak.max(est(&data[start..end - 1]));
                sizes.push(end - 1 - start);
                start = end - 1;
            }
        }
        if start < data.len() {
            peak = peak.max(est(&data[start..]));
            sizes.push(data.len() - start);
        }
        (sizes, peak)
    }

    #[test]
    fn tight_budget_chunking_equals_per_molecule_csr_reference() {
        let (queries, data) = world();
        let queue = Queue::new(DeviceProfile::host());
        let plan = QueryPlan::build(&queries, &EngineConfig::default());
        let whole = estimate(&queries, &data).total();
        for budget in [whole / 9, whole / 4, 150_000, 0] {
            let (sizes, peak) = reference_chunking(&plan, &data, budget);
            let report = StreamRunner::new(EngineConfig::default(), budget).run_with_plan(
                &plan,
                data.iter().cloned(),
                &queue,
            );
            assert!(sizes.len() > 1, "budget {budget} must spill");
            assert_eq!(report.chunks, sizes.len(), "budget {budget}");
            assert_eq!(report.peak_chunk_bytes, peak, "budget {budget}");
            assert_eq!(report.molecules, data.len());
        }
    }

    #[test]
    fn empty_stream_is_empty_report() {
        let (queries, _) = world();
        let queue = Queue::new(DeviceProfile::host());
        let runner = StreamRunner::new(EngineConfig::default(), 1 << 20);
        let report = runner.run(&queries, std::iter::empty(), &queue);
        assert_eq!(report.chunks, 0);
        assert_eq!(report.total_matches, 0);
    }
}
