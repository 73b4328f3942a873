//! The batched request server: admission control, micro-batching, and
//! per-request result scatter.
//!
//! A [`Server`] accepts [`MatchRequest`]s (a query set, a molecule set,
//! and a [`MatchMode`]) into a bounded pending queue. Each [`Server::step`]
//! drains one micro-batch window, groups compatible requests (same plan,
//! same mode), executes each group's *unique, uncached* molecules in one
//! [`StreamRunner`] pass over the shared [`sigmo_core::QueryPlan`], and
//! scatters the per-pair attribution back into per-request reports.
//!
//! Batching and caching are result-invisible: a molecule's outcome is a
//! pure function of (plan, molecule, mode, step budget), because chunk
//! truncation is bisected down to solo runs and step budgets are local to
//! each molecule's work-group (DESIGN.md §9). The soak tests assert this
//! against an unbatched oracle replay, bit for bit.

use crate::cache::{MolId, MolOutcome, MolStore, PlanCache, PlanId, ResultCache};
use sigmo_cluster::{ShardConfig, ShardRouter, ShardStats};
use sigmo_core::engine::EngineConfig;
use sigmo_core::{
    Completion, MatchMode, MolFacts, RunBudget, StreamReport, StreamRunner, TruncationReason,
};
use sigmo_device::Queue;
use sigmo_graph::LabeledGraph;
use sigmo_index::{FrozenIndex, IndexConfig, ScreenQuery};
use std::collections::HashMap;
use std::sync::Arc;

/// One (query set, molecule set, mode) matching request.
#[derive(Debug, Clone)]
pub struct MatchRequest {
    /// Query graphs; per-request results attribute matches to these by
    /// index, so order is significant.
    pub queries: Vec<LabeledGraph>,
    /// Molecules to match against; results are per request-local index.
    pub molecules: Vec<LabeledGraph>,
    /// Find All (count embeddings) or Find First (matched pairs).
    pub mode: MatchMode,
}

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The pending queue is at capacity — back off and retry.
    QueueFull,
    /// Empty query or molecule set.
    Malformed,
    /// Molecule count above [`ServeConfig::max_request_molecules`], or a
    /// molecule too large to canonicalize.
    Oversized,
}

/// Per-request outcome returned by [`Server::step`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestReport {
    /// The id [`Server::submit`] returned.
    pub request_id: u64,
    /// Total embeddings (Find All) or matched pairs (Find First).
    pub total_matches: u64,
    /// `(request-local molecule index, query index, matches)` for every
    /// pair with ≥ 1 match; counts sum to `total_matches`.
    pub pair_counts: Vec<(usize, usize, u64)>,
    /// Request-local indices of molecules whose counts are step-budget
    /// truncated lower bounds.
    pub truncated_molecules: Vec<usize>,
    /// `Complete`, or `Truncated(StepBudget)` when any molecule was.
    pub completion: Completion,
    /// Molecules answered from the result cache.
    pub cached_molecules: usize,
    /// Molecules this request contributed to the executed batch.
    pub executed_molecules: usize,
}

/// Result of a `.smi` corpus preload ([`Server::preload_corpus`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusLoad {
    /// Valid molecules loaded (pre-dedup occurrences).
    pub loaded: usize,
    /// Distinct isomorphism classes those molecules interned to.
    pub classes: usize,
    /// Malformed lines, in file order.
    pub quarantined: Vec<sigmo_mol::QuarantinedLine>,
}

/// Aggregate cache/queue counters, exposed by [`Server::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Canonical-molecule store hits (an already-interned class).
    pub mol_hits: u64,
    /// Canonical-molecule store misses (a new class stored).
    pub mol_misses: u64,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (a plan was built).
    pub plan_misses: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Molecules executed through the engine (post-dedup occurrences).
    pub executed_molecules: u64,
    /// Micro-batch groups executed.
    pub batches: u64,
    /// Molecules consulted against the screening index (the exec-stage
    /// occurrences of [`ServeStats::executed_molecules`] while an index
    /// is enabled).
    pub index_screened: u64,
    /// Molecules the index proved matchless — answered with a
    /// synthesized empty outcome instead of an engine run.
    pub index_pruned: u64,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base engine configuration; `mode` is overridden per request.
    pub engine: EngineConfig,
    /// Per-chunk device-memory budget handed to the [`StreamRunner`].
    pub memory_budget: u64,
    /// Per-chunk governor budget. Only `max_join_steps` yields cacheable
    /// truncation; deadline / embedding-cap truncations are never cached.
    pub budget: RunBudget,
    /// Pending-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Requests drained per [`Server::step`] (the micro-batch window).
    pub max_batch_requests: usize,
    /// Admission cap on molecules per request.
    pub max_request_molecules: usize,
    /// Result-cache capacity in outcomes.
    pub result_cache_capacity: usize,
    /// Master switch for deduplication: `false` disables the result cache
    /// and plan reuse (the no-cache ablation) while keeping batching.
    pub caching: bool,
    /// Sharded serving tier: `Some` partitions the corpus across
    /// simulated ranks and dispatches every slice through a
    /// [`ShardRouter`] (replica retry, work-stealing, graceful
    /// degradation); `None` keeps the single-node path bit-for-bit
    /// unchanged.
    pub sharding: Option<ShardConfig>,
    /// Standing-corpus screening index: `Some` digests every interned
    /// molecule once at ingest and consults the index per plan-group,
    /// so provably matchless molecules skip the engine entirely. Sound
    /// screening keeps every outcome — truncation flags and virtual-
    /// clock accounting included — bit-identical to `None` (the
    /// index-off oracle); only wall-clock work shrinks.
    pub index: Option<IndexConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            engine: EngineConfig::default(),
            memory_budget: 64 << 20,
            budget: RunBudget::none(),
            queue_capacity: 64,
            max_batch_requests: 16,
            max_request_molecules: 4096,
            result_cache_capacity: 1 << 16,
            caching: true,
            sharding: None,
            index: Some(IndexConfig::default()),
        }
    }
}

/// An admitted request, canonicalized at the door.
struct Pending {
    id: u64,
    mode: MatchMode,
    plan: PlanId,
    mols: Vec<MolId>,
}

/// Outcome of one [`Server::step`]: the drained window's reports plus the
/// deterministic work accounting the simulator charges time for.
#[derive(Debug, Default)]
pub struct StepOutcome {
    /// One report per drained request, in admission order.
    pub reports: Vec<RequestReport>,
    /// Per-request completion offsets in virtual ticks from the step's
    /// start, parallel to `reports`. Unsharded, every request completes
    /// when the whole step does (`offset == service_ticks`); sharded,
    /// each request finishes when its last shard-slice does, so requests
    /// untouched by a fault keep their clean latency.
    pub offsets: Vec<u64>,
    /// Molecules actually executed this step (after dedup).
    pub executed_molecules: usize,
    /// Micro-batch groups executed this step.
    pub batches: usize,
    /// Deterministic virtual-clock cost of the whole step. Unsharded:
    /// one tick per micro-batch group plus one per executed molecule
    /// (the PR 5 accounting, unchanged bit for bit). Sharded: the
    /// step's makespan across rank clocks — dispatches, backoff waits,
    /// straggler-stretched service, and degraded give-ups included.
    pub service_ticks: u64,
}

/// The batched request server. Single-threaded by design: determinism
/// comes from the sequential admission/step loop, parallelism from the
/// rayon-backed engine inside each batch.
pub struct Server {
    config: ServeConfig,
    queue: Queue,
    mols: MolStore,
    plans: PlanCache,
    results: ResultCache,
    /// Per-plan screening shadows, built lazily on first group run.
    screens: HashMap<PlanId, Arc<ScreenQuery>>,
    router: Option<ShardRouter>,
    /// Corpus partition version: part of every result-cache key, bumped
    /// by [`Server::repartition`] so stale merged results never serve.
    epoch: u64,
    pending: Vec<Pending>,
    next_id: u64,
    admitted: u64,
    rejected: u64,
    executed: u64,
    batches: u64,
    screened: u64,
    pruned: u64,
}

impl Server {
    /// Creates a server executing on `queue`.
    pub fn new(config: ServeConfig, queue: Queue) -> Self {
        let results = ResultCache::new(if config.caching {
            config.result_cache_capacity
        } else {
            0
        });
        let router = config.sharding.clone().map(ShardRouter::new);
        let mols = match &config.index {
            Some(ix) => MolStore::with_screen_index(*ix, &config.engine.schema),
            None => MolStore::new(),
        };
        Self {
            config,
            queue,
            mols,
            plans: PlanCache::new(),
            results,
            screens: HashMap::new(),
            router,
            epoch: 0,
            pending: Vec::new(),
            next_id: 0,
            admitted: 0,
            rejected: 0,
            executed: 0,
            batches: 0,
            screened: 0,
            pruned: 0,
        }
    }

    /// Bulk-loads a standing corpus from a frozen index file into this
    /// (empty) server: stored graphs are re-interned, and — when
    /// screening is enabled — the file's digests are adopted verbatim,
    /// skipping the per-molecule signature recompute. The corpus change
    /// is versioned forward via [`Server::repartition`]. Returns the
    /// number of live molecules loaded.
    pub fn preload_index(&mut self, frozen: &FrozenIndex) -> Result<usize, String> {
        let keep_screen = self.config.index.is_some();
        let live = self
            .mols
            .adopt_frozen(frozen, keep_screen, &self.config.engine.schema)?;
        self.repartition();
        Ok(live)
    }

    /// Bulk-loads a standing corpus from `.smi` text (one `SMILES [name]`
    /// record per line): every line parses in parallel, valid molecules
    /// are interned (canonical-deduplicated, digested when screening is
    /// on), and malformed lines are quarantined — reported back, never
    /// fatal. The corpus change is versioned forward via
    /// [`Server::repartition`].
    pub fn preload_corpus(&mut self, smi_text: &str) -> CorpusLoad {
        let ingest = sigmo_mol::ingest_smi(smi_text, false);
        let mut classes = std::collections::HashSet::new();
        for (_, mol) in &ingest.molecules {
            classes.insert(self.mols.intern(&mol.to_labeled_graph()));
        }
        self.repartition();
        CorpusLoad {
            loaded: ingest.molecules.len(),
            classes: classes.len(),
            quarantined: ingest.quarantined,
        }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Requests admitted but not yet stepped.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The current shard epoch (corpus partition version).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-shard dispatch/latency records, when sharded.
    pub fn shard_stats(&self) -> Option<&[ShardStats]> {
        self.router.as_ref().map(|r| r.stats())
    }

    /// Bumps the shard epoch: molecule→shard ownership is re-drawn from
    /// the new epoch's hash and every previously cached merged result —
    /// keyed to the old epoch — becomes unreachable. Call after any
    /// corpus change that moves molecules between shards.
    pub fn repartition(&mut self) {
        self.epoch += 1;
    }

    /// Removes a molecule from the corpus: its interning entries are
    /// retired (later submissions mint a fresh id) and the partition is
    /// versioned forward via [`Server::repartition`], so no cached result
    /// computed against the old corpus can be served. Returns whether the
    /// molecule was known.
    pub fn remove_molecule(&mut self, molecule: &LabeledGraph) -> bool {
        match self.mols.lookup(molecule) {
            Some(id) => {
                self.mols.retire(id);
                self.repartition();
                true
            }
            None => false,
        }
    }

    /// Admission control: canonicalizes and enqueues the request, or
    /// rejects it. Rejection is the backpressure signal — the queue bound
    /// keeps per-step latency within the governor budget's reach.
    pub fn submit(&mut self, request: &MatchRequest) -> Result<u64, RejectReason> {
        if self.pending.len() >= self.config.queue_capacity {
            self.rejected += 1;
            return Err(RejectReason::QueueFull);
        }
        if request.queries.is_empty() || request.molecules.is_empty() {
            self.rejected += 1;
            return Err(RejectReason::Malformed);
        }
        if request.molecules.len() > self.config.max_request_molecules
            || request.molecules.iter().any(|m| m.num_nodes() > 255)
            || request.queries.iter().any(|q| q.num_nodes() > 255)
        {
            self.rejected += 1;
            return Err(RejectReason::Oversized);
        }
        let plan = self.plans.intern(&request.queries, &self.config.engine);
        let mols = request
            .molecules
            .iter()
            .map(|m| self.mols.intern(m))
            .collect();
        let id = self.next_id;
        self.next_id += 1;
        self.admitted += 1;
        self.pending.push(Pending {
            id,
            mode: request.mode,
            plan,
            mols,
        });
        Ok(id)
    }

    /// Drains one micro-batch window and executes it: groups the drained
    /// requests by `(plan, mode)`, runs each group's unique uncached
    /// molecules in one streamed pass, caches the sound outcomes, and
    /// scatters per-request reports.
    pub fn step(&mut self) -> StepOutcome {
        let window = self.config.max_batch_requests.min(self.pending.len());
        let drained: Vec<Pending> = self.pending.drain(..window).collect();
        if drained.is_empty() {
            return StepOutcome::default();
        }
        // Group by (plan, mode), preserving first-seen order for
        // determinism (never iterate a HashMap).
        let mut group_index: HashMap<(PlanId, MatchMode), usize> = HashMap::new();
        let mut groups: Vec<((PlanId, MatchMode), Vec<&Pending>)> = Vec::new();
        for p in &drained {
            let key = (p.plan, p.mode);
            match group_index.get(&key) {
                Some(&g) => groups[g].1.push(p),
                None => {
                    group_index.insert(key, groups.len());
                    groups.push((key, vec![p]));
                }
            }
        }
        if let Some(router) = &mut self.router {
            router.begin_step();
        }
        let mut outcome = StepOutcome::default();
        let mut tagged: Vec<(RequestReport, u64)> = Vec::with_capacity(drained.len());
        for ((plan_id, mode), members) in &groups {
            let (executed, group_reports) = self.run_group(*plan_id, *mode, members);
            outcome.executed_molecules += executed;
            outcome.batches += 1;
            tagged.extend(group_reports);
        }
        tagged.sort_by_key(|(r, _)| r.request_id);
        self.executed += outcome.executed_molecules as u64;
        self.batches += outcome.batches as u64;
        outcome.service_ticks = match &self.router {
            Some(router) => router.step_makespan(),
            // PR 5 accounting, bit for bit: one tick per group, one per
            // executed molecule.
            None => (outcome.batches + outcome.executed_molecules) as u64,
        };
        if self.router.is_none() {
            // Unsharded the step is one indivisible batch: every request
            // completes when the step does.
            for t in &mut tagged {
                t.1 = outcome.service_ticks;
            }
        }
        for (report, offset) in tagged {
            outcome.reports.push(report);
            outcome.offsets.push(offset);
        }
        // Nothing reads the kernel log of a serving queue; left alone it
        // would grow by every launch of every step.
        self.queue.clear_records();
        outcome
    }

    /// Executes one `(plan, mode)` group and scatters its reports, each
    /// tagged with its completion offset in virtual ticks from the step's
    /// start (the max finish tick over the request's executed molecules;
    /// 0 for fully cached requests and every unsharded request — the
    /// caller overwrites the latter with the step's service ticks).
    fn run_group(
        &mut self,
        plan_id: PlanId,
        mode: MatchMode,
        members: &[&Pending],
    ) -> (usize, Vec<(RequestReport, u64)>) {
        // Gather the molecules to execute: with caching, each uncached
        // class once; without, every occurrence (the ablation re-derives
        // everything, including repeats inside one window).
        let mut exec: Vec<MolId> = Vec::new();
        let mut cached: HashMap<MolId, Arc<MolOutcome>> = HashMap::new();
        if self.config.caching {
            let mut seen: HashMap<MolId, ()> = HashMap::new();
            for p in members {
                for &m in &p.mols {
                    if seen.contains_key(&m) {
                        continue;
                    }
                    seen.insert(m, ());
                    match self.results.get(plan_id, m, mode, self.epoch) {
                        Some(out) => {
                            cached.insert(m, out);
                        }
                        None => exec.push(m),
                    }
                }
            }
        } else {
            for p in members {
                exec.extend(p.mols.iter().copied());
            }
        }

        // Consult the standing-corpus index per plan-group: a pruned
        // molecule is one the index *proves* the exact filter would
        // reject outright (no GMCR pair, zero matches, zero join steps),
        // so its outcome is synthesized instead of executed. Grouping,
        // slicing, scheduling, and tick accounting all still see the
        // full exec list — only engine work disappears — which keeps
        // every run bit-identical to the index-off oracle.
        let pruned = self.screen_exec(plan_id, &exec);
        let (fresh, cacheable, finishes) = if self.router.is_some() {
            self.execute_sharded(plan_id, mode, &exec, pruned.as_deref())
        } else {
            let (fresh, cacheable) = self.execute(plan_id, mode, &exec, pruned.as_deref());
            let finishes = vec![0u64; exec.len()];
            (fresh, cacheable, finishes)
        };
        if self.config.caching {
            // Complete outcomes are exact; step-budget partials are a
            // deterministic property of the molecule's own work-group.
            // Deadline / embedding-cap / cancellation truncations are
            // wall-clock- or batch-dependent and never reach the cache.
            for ((&m, out), &ok) in exec.iter().zip(&fresh).zip(&cacheable) {
                if ok {
                    self.results
                        .insert(plan_id, m, mode, self.epoch, Arc::clone(out));
                }
            }
        }

        // Scatter: walk each request's molecules in order, pulling from
        // the cache map or the freshly executed outcomes.
        let fresh_pos: HashMap<MolId, usize> = if self.config.caching {
            exec.iter()
                .copied()
                .enumerate()
                .map(|(i, m)| (m, i))
                .collect()
        } else {
            HashMap::new()
        };
        let mut reports = Vec::with_capacity(members.len());
        let mut occurrence = 0usize;
        for p in members {
            let mut report = RequestReport {
                request_id: p.id,
                total_matches: 0,
                pair_counts: Vec::new(),
                truncated_molecules: Vec::new(),
                completion: Completion::Complete,
                cached_molecules: 0,
                executed_molecules: 0,
            };
            let mut offset = 0u64;
            for (local, &m) in p.mols.iter().enumerate() {
                let out: &MolOutcome = if self.config.caching {
                    match cached.get(&m) {
                        Some(out) => {
                            report.cached_molecules += 1;
                            out
                        }
                        None => {
                            report.executed_molecules += 1;
                            let pos = fresh_pos[&m];
                            offset = offset.max(finishes[pos]);
                            &fresh[pos]
                        }
                    }
                } else {
                    report.executed_molecules += 1;
                    let out = &fresh[occurrence];
                    offset = offset.max(finishes[occurrence]);
                    occurrence += 1;
                    out
                };
                for &(q, n) in &out.pairs {
                    report.pair_counts.push((local, q, n));
                    report.total_matches += n;
                }
                if out.unavailable {
                    // Shard gave up after exhausting every replica: the
                    // zero counts are a sound lower bound, flagged with
                    // the dedicated reason so callers can re-submit.
                    report.truncated_molecules.push(local);
                    report.completion = report
                        .completion
                        .merge(Completion::Truncated(TruncationReason::ShardUnavailable));
                } else if out.truncated {
                    report.truncated_molecules.push(local);
                    report.completion = report
                        .completion
                        .merge(Completion::Truncated(TruncationReason::StepBudget));
                }
            }
            reports.push((report, offset));
        }
        (exec.len(), reports)
    }

    /// Screens `exec` against the standing-corpus index (when enabled):
    /// returns the parallel pruned mask — `true` marks a molecule whose
    /// rejection is proven, so it need not run. The plan's screening
    /// shadow is extracted once and cached by [`PlanId`].
    fn screen_exec(&mut self, plan_id: PlanId, exec: &[MolId]) -> Option<Vec<bool>> {
        let index = self.mols.screen_index()?;
        let radius = index.config().radius;
        let query = match self.screens.get(&plan_id) {
            Some(q) => Arc::clone(q),
            None => {
                let plan = self.plans.plan(plan_id);
                let q = Arc::new(ScreenQuery::from_plan(&plan, radius));
                self.screens.insert(plan_id, Arc::clone(&q));
                q
            }
        };
        let index = self.mols.screen_index().expect("screen index checked");
        let mask: Vec<bool> = exec.iter().map(|&m| !index.screen(&query, m)).collect();
        self.screened += exec.len() as u64;
        self.pruned += mask.iter().filter(|&&p| p).count() as u64;
        Some(mask)
    }

    /// Runs `exec` through the streamed engine under the shared plan,
    /// returning one outcome per executed molecule (in `exec` order) plus
    /// a parallel cacheability mask. Molecules marked in `pruned` skip
    /// the engine and keep their synthesized empty outcome — exactly the
    /// value the engine would have produced (screening's soundness
    /// contract), so the cacheability default (`true`) is also exact.
    fn execute(
        &mut self,
        plan_id: PlanId,
        mode: MatchMode,
        exec: &[MolId],
        pruned: Option<&[bool]>,
    ) -> (Vec<Arc<MolOutcome>>, Vec<bool>) {
        if exec.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let survivors: Vec<usize> = match pruned {
            Some(mask) => (0..exec.len()).filter(|&i| !mask[i]).collect(),
            None => (0..exec.len()).collect(),
        };
        let mut outcomes: Vec<MolOutcome> = exec
            .iter()
            .map(|_| MolOutcome {
                pairs: Vec::new(),
                truncated: false,
                unavailable: false,
            })
            .collect();
        let mut cacheable = vec![true; exec.len()];
        if !survivors.is_empty() {
            let mols: Vec<MolId> = survivors.iter().map(|&pos| exec[pos]).collect();
            let report = self.run_mols(plan_id, mode, &mols);
            for &(d, q, n) in &report.pair_counts {
                outcomes[survivors[d]].pairs.push((q, n));
            }
            for &d in &report.truncated_graphs {
                outcomes[survivors[d]].truncated = true;
            }
            // Quarantined molecules whose reason is not a local step trip
            // (deadline / embedding cap) are also truncated, and their
            // partials are wall-clock- or batch-dependent: report them but
            // never cache them. With the serving default (step budgets
            // only), this set is empty.
            for quarantined in &report.quarantined {
                if quarantined.reason != TruncationReason::StepBudget {
                    outcomes[survivors[quarantined.index]].truncated = true;
                    cacheable[survivors[quarantined.index]] = false;
                }
            }
        }
        (outcomes.into_iter().map(Arc::new).collect(), cacheable)
    }

    /// Sharded variant of [`Server::execute`]: splits `exec` into
    /// per-shard slices by epoch-hashed ownership, schedules each slice
    /// through the [`ShardRouter`] (replica retry, work-stealing, seeded
    /// faults on the virtual clock, one tick per molecule), runs the
    /// surviving slices through the unchanged streamed engine, and folds
    /// the partial reports back into `exec` order with
    /// [`StreamReport::absorb_partial`] / [`StreamReport::normalize`] —
    /// bit-identical to the unsharded path. A slice the router degrades
    /// reports zero matches with `Truncated(ShardUnavailable)`, a sound
    /// lower bound, instead of failing the batch. Returns outcomes, the
    /// cacheability mask, and each molecule's finish tick (its slice's
    /// completion, relative to the step start).
    ///
    /// Index screening composes per slice: pruned molecules stay in
    /// their slice for scheduling (ticks, replica wear, and degraded
    /// bookkeeping are identical to the index-off run) but are dropped
    /// from the engine batch — the synthesized empty outcome is exact.
    fn execute_sharded(
        &mut self,
        plan_id: PlanId,
        mode: MatchMode,
        exec: &[MolId],
        pruned: Option<&[bool]>,
    ) -> (Vec<Arc<MolOutcome>>, Vec<bool>, Vec<u64>) {
        if exec.is_empty() {
            return (Vec::new(), Vec::new(), Vec::new());
        }
        let num_shards = self.router.as_ref().expect("sharded path").num_shards();
        // Partition the exec *positions* by owning shard; iterating the
        // Vec in shard order keeps the dispatch trace deterministic.
        let mut slices: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (pos, &m) in exec.iter().enumerate() {
            let shard = self
                .router
                .as_ref()
                .expect("sharded path")
                .owner(m, self.epoch);
            slices[shard].push(pos);
        }
        let mut merged = StreamReport::default();
        let mut finishes = vec![0u64; exec.len()];
        let mut degraded: Vec<usize> = Vec::new();
        for (shard, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let dispatch = self
                .router
                .as_mut()
                .expect("sharded path")
                .schedule_slice(shard, slice.len() as u64);
            for &pos in slice {
                finishes[pos] = dispatch.finish;
            }
            if dispatch.rank.is_none() {
                // Every replica exhausted: the slice degrades to zero
                // counts instead of failing the batch — pruned positions
                // included, exactly as in the index-off run.
                degraded.extend(slice.iter().copied());
                continue;
            }
            let kept: Vec<usize> = match pruned {
                Some(mask) => slice.iter().copied().filter(|&pos| !mask[pos]).collect(),
                None => slice.clone(),
            };
            if kept.is_empty() {
                continue;
            }
            let mols: Vec<MolId> = kept.iter().map(|&pos| exec[pos]).collect();
            let part = self.run_mols(plan_id, mode, &mols);
            merged.absorb_partial(&part, &kept);
        }
        merged.normalize();
        let mut outcomes: Vec<MolOutcome> = exec
            .iter()
            .map(|_| MolOutcome {
                pairs: Vec::new(),
                truncated: false,
                unavailable: false,
            })
            .collect();
        for &(d, q, n) in &merged.pair_counts {
            outcomes[d].pairs.push((q, n));
        }
        for &d in &merged.truncated_graphs {
            outcomes[d].truncated = true;
        }
        let mut cacheable = vec![true; exec.len()];
        for quarantined in &merged.quarantined {
            if quarantined.reason != TruncationReason::StepBudget {
                outcomes[quarantined.index].truncated = true;
                cacheable[quarantined.index] = false;
            }
        }
        for pos in degraded {
            outcomes[pos].truncated = true;
            outcomes[pos].unavailable = true;
            cacheable[pos] = false;
        }
        (
            outcomes.into_iter().map(Arc::new).collect(),
            cacheable,
            finishes,
        )
    }

    /// Runs `mols` through one streamed engine pass under the shared plan,
    /// on the molecules' kept facts where the store has them. With caching
    /// off (the ablation) the plan and every molecule's facts are rebuilt
    /// for each execution.
    fn run_mols(&mut self, plan_id: PlanId, mode: MatchMode, mols: &[MolId]) -> StreamReport {
        let mut cfg = self.config.engine.clone();
        cfg.mode = mode;
        let runner = StreamRunner::new(cfg, self.config.memory_budget)
            .with_budget(self.config.budget.clone());
        if !self.config.caching {
            let graphs: Vec<LabeledGraph> =
                mols.iter().map(|&m| self.mols.graph(m).clone()).collect();
            return runner.run(self.plans.queries(plan_id), graphs, &self.queue);
        }
        // Kept facts hold every radius the engine refines to and the index
        // digests at, so they can serve any reader of a molecule's facts.
        let engine = &self.config.engine;
        let depth = self
            .config
            .index
            .map_or(0, |ix| ix.radius)
            .max(engine.refinement_iterations.saturating_sub(1));
        let kept: Vec<Option<Arc<MolFacts>>> = mols
            .iter()
            .map(|&m| self.mols.exec_facts(m, &engine.schema, depth))
            .collect();
        let plan = self.plans.plan(plan_id);
        let items = mols
            .iter()
            .zip(&kept)
            .map(|(&m, f)| (self.mols.graph(m), f.as_deref()));
        runner.run_with_facts(&plan, items, &self.queue)
    }

    /// How many times facts were built for the store's molecules (see
    /// [`MolStore::facts_builds`]).
    pub fn facts_builds(&self) -> u64 {
        self.mols.facts_builds()
    }

    /// Aggregate cache and admission counters.
    pub fn stats(&self) -> ServeStats {
        let (mol_hits, mol_misses) = self.mols.counters();
        let (plan_hits, plan_misses) = self.plans.counters();
        let (result_hits, result_misses) = self.results.counters();
        ServeStats {
            mol_hits,
            mol_misses,
            plan_hits,
            plan_misses,
            result_hits,
            result_misses,
            admitted: self.admitted,
            rejected: self.rejected,
            executed_molecules: self.executed,
            batches: self.batches,
            index_screened: self.screened,
            index_pruned: self.pruned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_device::DeviceProfile;

    #[test]
    fn step_leaves_the_kernel_log_empty() {
        let mut server = Server::new(ServeConfig::default(), Queue::new(DeviceProfile::host()));
        let co = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let cco = LabeledGraph::from_edges(&[1, 1, 3], &[(0, 1), (1, 2)]).unwrap();
        for _ in 0..3 {
            server
                .submit(&MatchRequest {
                    queries: vec![co.clone()],
                    molecules: vec![cco.clone(), co.clone()],
                    mode: MatchMode::FindAll,
                })
                .unwrap();
            let out = server.step();
            assert_eq!(out.reports[0].total_matches, 2);
            assert!(
                server.queue.records().is_empty(),
                "the step left kernel records"
            );
            server.repartition();
        }
        assert!(
            server.stats().executed_molecules > 0,
            "the engine must have run"
        );
    }

    /// Removing a graph too large to canonicalize used to panic inside
    /// the store's lookup; nothing that size is ever interned, so it is
    /// simply unknown.
    #[test]
    fn removing_an_oversized_molecule_is_a_no_op() {
        let mut server = Server::new(ServeConfig::default(), Queue::new(DeviceProfile::host()));
        let mut big = LabeledGraph::with_uniform_labels(300, 1);
        for v in 1..300 {
            big.add_edge(v - 1, v, 1).unwrap();
        }
        let epoch = server.epoch();
        assert!(!server.remove_molecule(&big));
        assert_eq!(server.epoch(), epoch, "an unknown molecule changes nothing");
        let request = MatchRequest {
            queries: vec![LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap()],
            molecules: vec![big],
            mode: MatchMode::FindAll,
        };
        assert_eq!(server.submit(&request), Err(RejectReason::Oversized));
    }
}
