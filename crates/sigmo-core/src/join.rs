//! The join phase: stack-based DFS backtracking (§4.6).
//!
//! Each data graph is assigned to a work-group; its work-items iterate over
//! the query graphs the GMCR mapped to it. GPU hardware has no recursion,
//! so the DFS runs on an explicit per-work-item stack whose depth is
//! bounded by the query size (≤ 30 nodes). Candidates are confined to the
//! data graph's node range via the CSR-GO graph offsets; edge labels (bond
//! orders) are checked during expansion, and wildcard bonds match anything.

pub mod cost;
pub mod symmetry;

use crate::candidates::CandidateBitmap;
use crate::governor::{Completion, Governor, GovernorTicker};
use crate::join_bfs::{bfs_pair, BfsScratch};
use crate::mapping::Gmcr;
use crate::stats::StrategyCounts;
use cost::{Decision, JoinVariant, OrderChoice, PairStats};
use parking_lot::Mutex;
use sigmo_device::Queue;
use sigmo_graph::{CsrGo, EdgeLabel, NodeId, WILDCARD_EDGE};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use symmetry::{SearchBuffers, Symmetry};

const INVALID: NodeId = NodeId::MAX;

/// How the matcher treats each (query graph, data graph) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinMode {
    /// Enumerate every embedding (node-to-node matches).
    FindAll,
    /// Stop at the first embedding per pair (graph-to-graph matches).
    FindFirst,
}

/// One enumerated embedding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchRecord {
    /// Index of the data graph.
    pub data_graph: usize,
    /// Index of the query graph.
    pub query_graph: usize,
    /// For each query-local node, the *global* data node it maps to.
    pub mapping: Vec<NodeId>,
}

/// Result of the join phase.
#[derive(Debug)]
pub struct JoinOutcome {
    /// Total embeddings found (Find All) or pairs matched (Find First).
    pub total_matches: u64,
    /// Number of (data graph, query graph) pairs with ≥ 1 match.
    pub matched_pairs: u64,
    /// Per-pair attribution: `(data graph, query graph, matches)` for
    /// every pair with at least one match, sorted by data graph then GMCR
    /// pair order. Summing the counts reproduces `total_matches`; the
    /// serving layer scatters these back to individual requests.
    pub pair_counts: Vec<(usize, usize, u64)>,
    /// Collected embeddings, if a collection limit was set. Enumeration is
    /// not truncated by the limit — only collection is.
    pub records: Vec<MatchRecord>,
    /// Whether the join explored the full search space or was stopped by
    /// the governor. Truncated totals are sound lower bounds.
    pub completion: Completion,
    /// Data graphs whose work-group exhausted its *local* step budget
    /// (sorted). Because step budgets are ticker-local, membership here is
    /// a deterministic property of each graph's own workload — global
    /// trips (deadline / cancel / embedding cap) are not attributed.
    pub truncated_graphs: Vec<usize>,
    /// Per-pair variant/order decision tallies (adaptive and fixed runs
    /// both count), gathered host-side in deterministic pair order.
    pub strategy: StrategyCounts,
}

/// Host-precomputed matching order for one query graph.
///
/// The order is a BFS from the highest-degree query node, so every node
/// after the first has at least one earlier neighbor (the *anchor*): its
/// candidates are enumerated from the anchor image's adjacency list rather
/// than the whole data graph.
///
/// The plan also carries the query's [`Symmetry`] and its conditions per
/// position (DESIGN.md §20): in Find All the join enumerates one
/// representative per embedding class and counts it as the order of the
/// broken group.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Query-local node ids in matching order.
    order: Vec<u32>,
    /// For position `k > 0`: the order-position of the anchor parent.
    anchor: Vec<u32>,
    /// For position `k`: earlier order-positions adjacent in the query,
    /// with the required edge label.
    checks: Vec<Vec<(u32, EdgeLabel)>>,
    /// For position `k`: earlier order-positions NOT adjacent in the query
    /// (only populated when induced matching is requested).
    non_edges: Vec<Vec<u32>>,
    /// For position `k`: earlier order-positions whose images must be
    /// smaller than position `k`'s image (symmetry breaking).
    above: Vec<Vec<u32>>,
    /// For position `k`: earlier order-positions whose images must be
    /// larger than position `k`'s image (symmetry breaking).
    below: Vec<Vec<u32>>,
    /// The broken automorphism group, shared by every order of the query.
    symmetry: Arc<Symmetry>,
    /// The earlier query of the batch whose slice equals this one's, if
    /// any: its pairs copy that query's results in Find All.
    twin_of: Option<u32>,
    /// Whether a later query of the batch is a twin of this one.
    has_twins: bool,
}

impl QueryPlan {
    /// Builds the plan for query graph `qg` of `queries`, starting the BFS
    /// order at the max-degree node (most structurally constrained first —
    /// the default heuristic).
    pub fn build(queries: &CsrGo, qg: usize, induced: bool) -> Self {
        Self::build_in(queries, qg, induced, &mut SearchBuffers::default())
    }

    /// [`QueryPlan::build`] with the symmetry search working in `bufs`.
    fn build_in(queries: &CsrGo, qg: usize, induced: bool, bufs: &mut SearchBuffers) -> Self {
        match max_degree_start(queries, qg) {
            Some(start) => Self::build_from_in(queries, qg, induced, start, bufs),
            None => Self::empty(),
        }
    }

    /// The max-degree plans of every query graph of a batch, with twins
    /// marked: a query whose slice (labels, edges, bond labels, charges
    /// and predicates) equals an earlier query's shares that query's
    /// symmetry and, in Find All, its join results.
    pub fn build_batch(queries: &CsrGo, induced: bool) -> Vec<Self> {
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut plans: Vec<Self> = Vec::with_capacity(queries.num_graphs());
        let mut bufs = SearchBuffers::default();
        for qg in 0..queries.num_graphs() {
            let alike = seen.entry(slice_hash(queries, qg)).or_default();
            let twin = alike.iter().copied().find(|&r| same_slice(queries, r, qg));
            let plan = match twin {
                None => {
                    alike.push(qg);
                    Self::build_in(queries, qg, induced, &mut bufs)
                }
                Some(twin) => {
                    plans[twin].has_twins = true;
                    let mut plan = plans[twin].clone();
                    plan.twin_of = Some(twin as u32);
                    plan.has_twins = false;
                    plan
                }
            };
            plans.push(plan);
        }
        plans
    }

    /// The plan of a zero-node query: matches nothing, skipped by the join.
    pub fn empty() -> Self {
        Self {
            order: Vec::new(),
            anchor: Vec::new(),
            checks: Vec::new(),
            non_edges: Vec::new(),
            above: Vec::new(),
            below: Vec::new(),
            symmetry: Arc::new(Symmetry::trivial()),
            twin_of: None,
            has_twins: false,
        }
    }

    /// Builds the plan starting the BFS order at an explicit query node —
    /// used by the min-candidates ordering extension, where the engine
    /// starts at the node with the fewest surviving candidates. The
    /// query's automorphisms are searched along this order.
    pub fn build_from(queries: &CsrGo, qg: usize, induced: bool, start: NodeId) -> Self {
        Self::build_from_in(queries, qg, induced, start, &mut SearchBuffers::default())
    }

    fn build_from_in(
        queries: &CsrGo,
        qg: usize,
        induced: bool,
        start: NodeId,
        bufs: &mut SearchBuffers,
    ) -> Self {
        let mut plan = Self::layout(queries, qg, induced, start);
        let symmetry = Symmetry::chain_in(
            queries,
            qg,
            &plan.order,
            symmetry::SEARCH_BUDGET,
            symmetry::MAX_ORDER,
            bufs,
        );
        plan.set_symmetry(Arc::new(symmetry));
        plan
    }

    /// This query's plan in the BFS order from `start`, with the same
    /// symmetry and twin marks: the per-run orders derive their
    /// conditions from the group found at plan build, without searching
    /// again.
    pub fn reordered(&self, queries: &CsrGo, qg: usize, induced: bool, start: NodeId) -> Self {
        let mut plan = Self::layout(queries, qg, induced, start);
        plan.set_symmetry(Arc::clone(&self.symmetry));
        plan.twin_of = self.twin_of;
        plan.has_twins = self.has_twins;
        plan
    }

    /// The order, anchors and checks of the BFS order from `start`, with
    /// the trivial group.
    fn layout(queries: &CsrGo, qg: usize, induced: bool, start: NodeId) -> Self {
        let range = queries.node_range(qg);
        let base = range.start;
        let n = (range.end - range.start) as usize;
        if n == 0 {
            return Self::empty();
        }
        assert!(range.contains(&start), "start node outside query graph");
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut pos_of: Vec<u32> = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        pos_of[(start - base) as usize] = 0;
        while let Some(v) = queue.pop_front() {
            let pos = order.len() as u32;
            pos_of[(v - base) as usize] = pos;
            order.push(v - base);
            for &u in queries.neighbors(v) {
                let lu = (u - base) as usize;
                if pos_of[lu] == u32::MAX {
                    pos_of[lu] = u32::MAX - 1; // enqueued sentinel
                    queue.push_back(u);
                }
            }
        }
        assert_eq!(
            order.len(),
            n,
            "query graph {qg} must be connected (the paper excludes disconnected patterns)"
        );
        let mut anchor = vec![0u32; n];
        let mut checks: Vec<Vec<(u32, EdgeLabel)>> = vec![Vec::new(); n];
        let mut non_edges: Vec<Vec<u32>> = vec![Vec::new(); n];
        for k in 1..n {
            let v = base + order[k];
            let mut first = u32::MAX;
            for (i, &u) in queries.neighbors(v).iter().enumerate() {
                let p = pos_of[(u - base) as usize];
                if p < k as u32 {
                    if p < first {
                        first = p;
                    }
                    checks[k].push((p, queries.neighbor_edge_labels(v)[i]));
                }
            }
            debug_assert_ne!(first, u32::MAX, "BFS order guarantees an earlier neighbor");
            anchor[k] = first;
            if induced {
                let adjacent: Vec<u32> = checks[k].iter().map(|&(p, _)| p).collect();
                for p in 0..k as u32 {
                    if !adjacent.contains(&p) {
                        non_edges[k].push(p);
                    }
                }
            }
        }
        Self {
            order,
            anchor,
            checks,
            non_edges,
            above: vec![Vec::new(); n],
            below: vec![Vec::new(); n],
            symmetry: Arc::new(Symmetry::trivial()),
            twin_of: None,
            has_twins: false,
        }
    }

    /// Installs `symmetry` and files each of its conditions at the later
    /// of its two positions, where the join checks it.
    fn set_symmetry(&mut self, symmetry: Arc<Symmetry>) {
        let mut pos_of = vec![0u32; self.order.len()];
        for (k, &x) in self.order.iter().enumerate() {
            pos_of[x as usize] = k as u32;
        }
        for (a, b) in symmetry.conditions() {
            let (pa, pb) = (pos_of[a as usize], pos_of[b as usize]);
            if pa < pb {
                self.above[pb as usize].push(pa);
            } else {
                self.below[pa as usize].push(pb);
            }
        }
        self.symmetry = symmetry;
    }

    /// Number of query nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Query-local node id at order position `k`.
    pub fn order_slot(&self, k: usize) -> u32 {
        self.order[k]
    }

    /// Anchor order-position for position `k > 0`.
    pub fn anchor_slot(&self, k: usize) -> u32 {
        self.anchor[k]
    }

    /// Edge checks (earlier order-position, required edge label) at
    /// position `k`.
    pub fn checks_at(&self, k: usize) -> &[(u32, EdgeLabel)] {
        &self.checks[k]
    }

    /// Earlier order-positions NOT adjacent in the query at position `k`
    /// (empty unless the plan was built for induced matching).
    pub fn non_edges_at(&self, k: usize) -> &[u32] {
        &self.non_edges[k]
    }

    /// The broken automorphism group.
    pub fn symmetry(&self) -> &Symmetry {
        &self.symmetry
    }

    /// The earlier query whose results this one copies in Find All.
    pub fn twin_of(&self) -> Option<u32> {
        self.twin_of
    }

    /// True when the plan covers no nodes (a zero-node query).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The window `[start, end)` of `nbrs` (a sorted adjacency list) that
    /// can hold position `k`'s image once `mapping` holds the images of
    /// positions `..k`: above every image the bounds put below it, and
    /// below every image they put above it.
    #[inline]
    pub(crate) fn window(&self, k: usize, mapping: &[NodeId], nbrs: &[NodeId]) -> (usize, usize) {
        let start = match self.above[k].iter().map(|&p| mapping[p as usize]).max() {
            Some(lo) => nbrs.partition_point(|&d| d <= lo),
            None => 0,
        };
        let end = match self.below[k].iter().map(|&p| mapping[p as usize]).min() {
            Some(hi) => nbrs.partition_point(|&d| d < hi),
            None => nbrs.len(),
        };
        (start, end.max(start))
    }
}

/// The max-degree node of query graph `qg`, ties toward the smallest id,
/// or `None` for a zero-node query.
fn max_degree_start(queries: &CsrGo, qg: usize) -> Option<NodeId> {
    // A zero-node query has no max-degree node and no plan: it matches
    // nothing and the join skips it (degradation contract, DESIGN.md §8).
    // Degree ties break toward the smallest node id so the order is a
    // pure function of the graph (not of `max_by_key`'s last-wins scan
    // direction or any future parallel reduction).
    queries
        .node_range(qg)
        .max_by_key(|&v| (queries.degree(v), std::cmp::Reverse(v)))
}

/// Feeds everything the join reads of query graph `qg` — labels,
/// adjacency with bond labels, charges and predicates, in local ids —
/// into one hash.
fn slice_hash(queries: &CsrGo, qg: usize) -> u64 {
    let range = queries.node_range(qg);
    let base = range.start;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for v in range {
        (queries.label(v), queries.charge(v), queries.predicate(v)).hash(&mut h);
        for (&u, &l) in queries
            .neighbors(v)
            .iter()
            .zip(queries.neighbor_edge_labels(v))
        {
            (u - base, l).hash(&mut h);
        }
    }
    h.finish()
}

/// Whether query graphs `a` and `b` have equal slices: the same labels,
/// adjacency with bond labels, charges and predicates, node by node.
fn same_slice(queries: &CsrGo, a: usize, b: usize) -> bool {
    let (ra, rb) = (queries.node_range(a), queries.node_range(b));
    let (base_a, base_b) = (ra.start, rb.start);
    let local = |v: NodeId, base: NodeId| queries.neighbors(v).iter().map(move |&u| u - base);
    ra.len() == rb.len()
        && ra.zip(rb).all(|(x, y)| {
            queries.label(x) == queries.label(y)
                && queries.charge(x) == queries.charge(y)
                && queries.predicate(x) == queries.predicate(y)
                && queries.neighbor_edge_labels(x) == queries.neighbor_edge_labels(y)
                && local(x, base_a).eq(local(y, base_b))
        })
}

/// Configuration of one join launch.
#[derive(Debug, Clone)]
pub struct JoinParams {
    /// Find All or Find First.
    pub mode: JoinMode,
    /// Work-group size (Table 1's join tunable; affects modeled cost only).
    pub work_group_size: usize,
    /// Strict induced matching (extension; the paper and default use
    /// substructure/monomorphism semantics).
    pub induced: bool,
    /// Collect at most this many embeddings (None = count only).
    pub collect_limit: Option<usize>,
    /// Run governor consulted once per DFS step (word granularity — each
    /// step already touches whole bitmap words / adjacency runs). The
    /// default unlimited governor never stops and adds one relaxed load
    /// per step.
    pub governor: Governor,
}

impl Default for JoinParams {
    fn default() -> Self {
        Self {
            mode: JoinMode::FindAll,
            work_group_size: 128,
            induced: false,
            collect_limit: None,
            governor: Governor::unlimited(),
        }
    }
}

/// How `join_with_policy` picks the variant and order for each pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMode {
    /// One variant and one matching order for every pair.
    Fixed(JoinVariant, OrderChoice),
    /// Per-pair decision from the [`cost`] model over the pair's surviving
    /// candidate counts. `inverted` flips every decision — the ablation
    /// control and the stream runner's strategy-retry lever.
    Adaptive {
        /// Flip each cost-model decision to its opposite.
        inverted: bool,
    },
}

/// Plans plus the decision mode for one join launch. Both plan slices are
/// indexed by query graph; fixed single-order runs may pass the same slice
/// twice.
pub struct JoinPolicy<'a> {
    /// Plans rooted at the max-degree query node.
    pub max_degree: &'a [QueryPlan],
    /// Plans rooted at the fewest-surviving-candidates query node.
    pub min_candidates: &'a [QueryPlan],
    /// Fixed or adaptive per-pair selection.
    pub mode: PolicyMode,
}

/// Runs the join over all GMCR pairs. `plans[qg]` must hold the plan of
/// query graph `qg` built with the same `induced` flag. Fixed DFS in the
/// order the plans encode — the historical default; adaptive runs go
/// through [`join_with_policy`].
pub fn join(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    gmcr: &Gmcr,
    plans: &[QueryPlan],
    params: &JoinParams,
) -> JoinOutcome {
    let policy = JoinPolicy {
        max_degree: plans,
        min_candidates: plans,
        mode: PolicyMode::Fixed(JoinVariant::Dfs, OrderChoice::MaxDegree),
    };
    join_with_policy(queue, queries, data, bitmap, gmcr, &policy, params)
}

/// Runs the join over all GMCR pairs with per-pair variant/order selection.
///
/// Kernel naming follows the variant so the summary table attributes the
/// work honestly: `"join"` for fixed DFS (bit-identical counters to the
/// pre-adaptive engine), `"join_bfs"` for fixed BFS, `"join_adaptive"`
/// when the cost model decides per pair.
pub fn join_with_policy(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    gmcr: &Gmcr,
    policy: &JoinPolicy<'_>,
    params: &JoinParams,
) -> JoinOutcome {
    let kernel = match policy.mode {
        PolicyMode::Fixed(JoinVariant::Dfs, _) => "join",
        PolicyMode::Fixed(JoinVariant::Bfs, _) => "join_bfs",
        PolicyMode::Adaptive { .. } => "join_adaptive",
    };
    let total = AtomicU64::new(0);
    let pairs_matched = AtomicU64::new(0);
    let collected: Mutex<Vec<MatchRecord>> = Mutex::new(Vec::new());
    let limit = params.collect_limit.unwrap_or(0);
    let gov = &params.governor;
    let find_all = params.mode == JoinMode::FindAll;
    let word_bytes = bitmap.word_width().bytes();
    // Pre-allocated attribution buffers (device discipline: no allocation
    // inside the kernel closure). Each GMCR pair is written by exactly one
    // work-group; each trip flag by its own group.
    let pair_matches: Vec<AtomicU64> = (0..gmcr.num_pairs()).map(|_| AtomicU64::new(0)).collect();
    let pair_decisions: Vec<AtomicU64> = (0..gmcr.num_pairs()).map(|_| AtomicU64::new(0)).collect();
    let group_tripped: Vec<AtomicU64> = (0..data.num_graphs()).map(|_| AtomicU64::new(0)).collect();

    queue.parallel_for_work_group_until(
        kernel,
        "join",
        data.num_graphs(),
        params.work_group_size,
        0,
        || gov.stopped(),
        |ctx| {
            let dg = ctx.group_id;
            let drange = data.node_range(dg);
            // One ticker per work-group: the step budget is per data graph,
            // so budget truncation is deterministic across thread counts
            // (work-groups are independent).
            let mut ticker = gov.ticker();
            // Frontier buffers for BFS pairs and the mapping/cursor stacks
            // of DFS pairs, reused across the group's pairs so the per-pair
            // steady state is allocation-free.
            let mut scratch = BfsScratch::default();
            let mut dfs_scratch = DfsScratch::default();
            // The current pair's records, and those of every pair whose
            // query has twins (the twins' pairs copy them). Both stay
            // empty unless a collect limit is set.
            // sigmo-lint: allow(alloc-in-kernel) — empty until a record is
            // collected; bounded by the collect limit.
            let mut pair_records: Vec<MatchRecord> = Vec::new();
            // sigmo-lint: allow(alloc-in-kernel) — as `pair_records`.
            let mut held: Vec<MatchRecord> = Vec::new();
            let here = gmcr.queries_for(dg);
            for (k, &qg) in here.iter().enumerate() {
                if gov.stopped() {
                    break;
                }
                let base_plan = &policy.max_degree[qg as usize];
                if base_plan.is_empty() {
                    continue; // zero-node query: matches nothing
                }
                let decision = match policy.mode {
                    PolicyMode::Fixed(variant, order) => Decision { variant, order },
                    PolicyMode::Adaptive { inverted } => {
                        let stats = PairStats::gather(
                            bitmap,
                            queries.node_range(qg as usize).start,
                            base_plan,
                            &policy.min_candidates[qg as usize],
                            drange.start,
                            drange.end,
                        );
                        // The gather scans each candidate row of the pair
                        // twice (once per order) at word granularity.
                        ctx.counters.add_word_reads(stats.words_scanned, word_bytes);
                        let base = cost::decide(&stats, params.mode);
                        if inverted {
                            base.inverted()
                        } else {
                            base
                        }
                    }
                };
                let plan = match decision.order {
                    OrderChoice::MaxDegree => base_plan,
                    OrderChoice::MinCandidates => &policy.min_candidates[qg as usize],
                };
                let pair = gmcr.pair_index(dg, k);
                pair_decisions[pair].store(decision.code(), Ordering::Relaxed);
                // Records this pair may still add to the shared collection.
                let room = if limit == 0 {
                    0
                } else {
                    limit.saturating_sub(collected.lock().len())
                };
                // In Find All, a twin's pair copies its representative's
                // pair, which this group ran earlier (GMCR lists queries in
                // ascending order).
                let twin = base_plan
                    .twin_of
                    .filter(|_| find_all)
                    .and_then(|r| Some((r, here[..k].binary_search(&r).ok()?)));
                let n_matches = match twin {
                    Some((r, kr)) => {
                        // sigmo-lint: allow(relaxed-read-in-report) — own write
                        // this work-group stored that pair's count itself,
                        // earlier in its own program order; no other writer.
                        let n = pair_matches[gmcr.pair_index(dg, kr)].load(Ordering::Relaxed);
                        // sigmo-lint: allow(alloc-in-kernel) — copies of
                        // collected records, bounded by the collect limit.
                        pair_records.extend(
                            held.iter()
                                .filter(|rec| rec.query_graph == r as usize)
                                .take(room)
                                .map(|rec| MatchRecord {
                                    query_graph: qg as usize,
                                    ..rec.clone()
                                }),
                        );
                        ticker.note_embeddings(gov, n);
                        ctx.counters.record_trips(1);
                        n
                    }
                    None => {
                        let reps = match decision.variant {
                            JoinVariant::Dfs => dfs_pair(
                                data,
                                bitmap,
                                queries.node_range(qg as usize).start,
                                plan,
                                drange.start,
                                drange.end,
                                params,
                                dg,
                                qg as usize,
                                (&mut pair_records, room),
                                gov,
                                &mut ticker,
                                &mut dfs_scratch,
                            ),
                            JoinVariant::Bfs => bfs_pair(
                                data,
                                bitmap,
                                queries.node_range(qg as usize).start,
                                plan,
                                drange.start,
                                drange.end,
                                params,
                                dg,
                                qg as usize,
                                (&mut pair_records, room),
                                gov,
                                &mut ticker,
                                &mut scratch,
                            ),
                        };
                        ctx.counters.record_trips(reps + 1);
                        reps * class_size(plan, params.mode)
                    }
                };
                if n_matches > 0 {
                    gmcr.mark_matched(pair);
                    pairs_matched.fetch_add(1, Ordering::Relaxed);
                }
                pair_matches[pair].store(n_matches, Ordering::Relaxed);
                total.fetch_add(n_matches, Ordering::Relaxed);
                if !pair_records.is_empty() {
                    if base_plan.has_twins {
                        // sigmo-lint: allow(alloc-in-kernel) — bounded by
                        // the collect limit per pair.
                        held.extend(pair_records.iter().cloned());
                    }
                    let mut guard = collected.lock();
                    let take = limit.saturating_sub(guard.len()).min(pair_records.len());
                    // sigmo-lint: allow(alloc-in-kernel) — bounded by `limit`
                    guard.extend(pair_records.drain(..take));
                    pair_records.clear();
                }
            }
            if ticker.tripped() {
                group_tripped[dg].store(1, Ordering::Relaxed);
            }
            // A DFS step on a GPU is expensive: an uncoalesced candidate
            // fetch, a bitmap probe, an injectivity scan over the mapped
            // prefix, and binary-searched edge-label checks — each touching
            // scattered cache lines (the paper's join is memory-bottlenecked
            // by "irregular access patterns required to read the query and
            // data graphs", §5.1.3). BFS steps expand whole frontier rows;
            // their extra traffic is the materialized rows, charged as
            // bytes written.
            let steps = ticker.steps();
            ctx.counters.add_instructions(steps * 100);
            ctx.counters.add_bytes_read(steps * 200);
            if scratch.bytes_materialized > 0 {
                ctx.counters.add_bytes_written(scratch.bytes_materialized);
            }
            gov.flush_ticker(&mut ticker);
        },
    );

    // Host-side gather of the attribution buffers, in deterministic
    // (data graph, GMCR pair order) order.
    let mut pair_counts = Vec::new();
    let mut truncated_graphs = Vec::new();
    let mut strategy = StrategyCounts::default();
    // sigmo-lint: allow(relaxed-read-in-report) — host-side gather: the
    // join launch above has returned, so every attribution word is
    // quiescent when read here.
    for dg in 0..data.num_graphs() {
        for (k, &qg) in gmcr.queries_for(dg).iter().enumerate() {
            let n = pair_matches[gmcr.pair_index(dg, k)].load(Ordering::Relaxed);
            if n > 0 {
                pair_counts.push((dg, qg as usize, n));
            }
            if let Some(d) =
                Decision::from_code(pair_decisions[gmcr.pair_index(dg, k)].load(Ordering::Relaxed))
            {
                match d.variant {
                    JoinVariant::Dfs => strategy.dfs_pairs += 1,
                    JoinVariant::Bfs => strategy.bfs_pairs += 1,
                }
                match d.order {
                    OrderChoice::MaxDegree => strategy.max_degree_pairs += 1,
                    OrderChoice::MinCandidates => strategy.min_candidates_pairs += 1,
                }
            }
        }
        if group_tripped[dg].load(Ordering::Relaxed) != 0 {
            truncated_graphs.push(dg);
        }
    }

    // sigmo-lint: allow(relaxed-read-in-report) — totals read after the
    // parallel section joined; the atomics have no remaining writers.
    JoinOutcome {
        total_matches: total.load(Ordering::Relaxed),
        matched_pairs: pairs_matched.load(Ordering::Relaxed),
        pair_counts,
        records: collected.into_inner(),
        completion: gov.completion(),
        truncated_graphs,
        strategy,
    }
}

/// How many embeddings one found embedding stands for: the order of the
/// broken group in Find All, 1 in Find First (which breaks nothing).
#[inline]
pub(crate) fn class_size(plan: &QueryPlan, mode: JoinMode) -> u64 {
    match mode {
        JoinMode::FindAll => plan.symmetry.order(),
        JoinMode::FindFirst => 1,
    }
}

/// Appends the records of one found embedding while `records` holds
/// fewer than `room`: in Find All its whole class, one record per
/// element of the broken group (identity first); in Find First the
/// embedding alone. `image(k)` is the data node of order position `k`.
// sigmo-lint: allow(alloc-in-kernel) — one row per collected match,
// bounded by the collect limit (match materialization is host-side
// output).
pub(crate) fn collect_embedding(
    (records, room): (&mut Vec<MatchRecord>, usize),
    plan: &QueryPlan,
    mode: JoinMode,
    dg: usize,
    qg: usize,
    image: impl Fn(usize) -> NodeId,
) {
    if records.len() >= room {
        return;
    }
    // Reorder from matching order to query-local node order.
    let mut rep = vec![INVALID; plan.len()];
    for k in 0..plan.len() {
        rep[plan.order[k] as usize] = image(k);
    }
    let as_record = |mapping| MatchRecord {
        data_graph: dg,
        query_graph: qg,
        mapping,
    };
    match mode {
        JoinMode::FindFirst => records.push(as_record(rep)),
        JoinMode::FindAll => plan.symmetry.expand_class(&rep, |mapping| {
            records.push(as_record(mapping));
            records.len() < room
        }),
    }
}

/// The DFS stacks of [`dfs_pair`], reused across a work-group's pairs:
/// `mapping[k]` is the global data node for the query node at order
/// position `k`, and `cursors[k]` the next candidate index to try at depth
/// `k` (depth 0 scans the data graph's node range, depth > 0 the anchor
/// image's adjacency up to `ends[k]`, `u32::MAX` for all of it). Capacity
/// is retained, so
/// steady-state pairs do not touch the allocator.
#[derive(Debug, Default)]
struct DfsScratch {
    mapping: Vec<NodeId>,
    cursors: Vec<u32>,
    ends: Vec<u32>,
}

/// Explicit-stack DFS for one (query graph, data graph) pair. Returns the
/// number of embeddings found (1 max in FindFirst mode) — in Find All one
/// per class of the broken group, each satisfying the plan's
/// symmetry-breaking bounds; on a governor trip the count found so far is
/// returned (a sound partial result).
#[allow(clippy::too_many_arguments)]
fn dfs_pair(
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    q_base: NodeId,
    plan: &QueryPlan,
    d_lo: NodeId,
    d_hi: NodeId,
    params: &JoinParams,
    dg: usize,
    qg: usize,
    (records, room): (&mut Vec<MatchRecord>, usize),
    gov: &Governor,
    ticker: &mut GovernorTicker,
    scratch: &mut DfsScratch,
) -> u64 {
    let qlen = plan.len();
    if qlen as u32 > d_hi - d_lo {
        return 0; // query larger than the data graph
    }
    let find_all = params.mode == JoinMode::FindAll;
    let class = class_size(plan, params.mode);
    // Only Find All over a non-trivial group has bounds to apply.
    let breaking = find_all && !plan.symmetry.is_trivial();
    let DfsScratch {
        mapping,
        cursors,
        ends,
    } = scratch;
    mapping.clear();
    mapping.resize(qlen, INVALID);
    cursors.clear();
    cursors.resize(qlen, 0);
    ends.clear();
    ends.resize(qlen, 0);
    let mut matches = 0u64;
    let mut depth = 0usize;
    loop {
        if ticker.tick(gov) {
            return matches; // budget tripped: partial count is still sound
        }
        let cand = next_candidate(
            data, bitmap, q_base, plan, d_lo, d_hi, mapping, cursors, ends, depth, params,
        );
        match cand {
            Some(d) => {
                mapping[depth] = d;
                if depth + 1 == qlen {
                    matches += 1;
                    if room > 0 {
                        collect_embedding((records, room), plan, params.mode, dg, qg, |k| {
                            mapping[k]
                        });
                    }
                    mapping[depth] = INVALID;
                    if ticker.note_embeddings(gov, class) || !find_all {
                        return matches; // embedding cap reached, or Find First
                    }
                    // stay at this depth, keep scanning candidates
                } else if !breaking {
                    depth += 1;
                    cursors[depth] = 0;
                    ends[depth] = u32::MAX; // the whole adjacency list
                } else {
                    // Scan only the adjacency window the symmetry-breaking
                    // bounds leave open (the lists are sorted). An empty
                    // window rejects `d` here, without a step.
                    let next = depth + 1;
                    let nbrs = data.neighbors(mapping[plan.anchor[next] as usize]);
                    let (start, end) = plan.window(next, mapping, nbrs);
                    if start < end {
                        depth = next;
                        cursors[depth] = start as u32;
                        ends[depth] = end as u32;
                    } else {
                        mapping[depth] = INVALID;
                    }
                }
            }
            None => {
                mapping[depth] = INVALID;
                if depth == 0 {
                    return matches;
                }
                depth -= 1;
                mapping[depth] = INVALID;
            }
        }
    }
}

/// Finds the next valid candidate at `depth`, advancing the cursor.
// sigmo-lint: allow(uncharged-access) — per-step traffic is charged in
// aggregate by join(): it prices bitmap words and adjacency bytes per
// recorded step (steps × per-step cost model), so charging again here
// would double-count.
#[allow(clippy::too_many_arguments)]
#[inline]
fn next_candidate(
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    q_base: NodeId,
    plan: &QueryPlan,
    d_lo: NodeId,
    d_hi: NodeId,
    mapping: &[NodeId],
    cursors: &mut [u32],
    ends: &[u32],
    depth: usize,
    params: &JoinParams,
) -> Option<NodeId> {
    let q_node = (q_base + plan.order[depth]) as usize;
    if depth == 0 {
        // Scan the data graph's node range word-parallel: jump straight
        // to the next set bit of the root row instead of probing every
        // column between the cursor and it.
        let d = bitmap.next_set_in_range(q_node, (d_lo + cursors[0]) as usize, d_hi as usize)?
            as NodeId;
        cursors[0] = d - d_lo + 1;
        return Some(d);
    }
    let anchor_img = mapping[plan.anchor[depth] as usize];
    let nbrs = data.neighbors(anchor_img);
    let end = nbrs.len().min(ends[depth] as usize);
    // sigmo-lint: allow(unbounded-kernel-loop) — bounded by one adjacency
    // list (the cursor strictly advances toward `end` ≤ nbrs.len()); each
    // call is one DFS step already ticked by dfs_pair's governed loop.
    'next: loop {
        let i = cursors[depth] as usize;
        if i >= end {
            return None;
        }
        cursors[depth] += 1;
        let d = nbrs[i];
        if !bitmap.get(q_node, d as usize) {
            continue;
        }
        // Injectivity.
        if mapping[..depth].contains(&d) {
            continue;
        }
        // All earlier query neighbors must have a compatible data edge. The
        // anchor's is the edge just walked, whose label sits beside it in
        // the adjacency; the others are looked up.
        let anchor = plan.anchor[depth];
        for &(p, ql) in &plan.checks[depth] {
            let edge = if p == anchor {
                Some(data.neighbor_edge_labels(anchor_img)[i])
            } else {
                data.edge_label(mapping[p as usize], d)
            };
            match edge {
                Some(dl) => {
                    if ql != WILDCARD_EDGE && ql != dl {
                        continue 'next;
                    }
                }
                None => continue 'next,
            }
        }
        // Induced mode: earlier non-neighbors must have NO data edge.
        if params.induced {
            for &p in &plan.non_edges[depth] {
                if data.has_edge(mapping[p as usize], d) {
                    continue 'next;
                }
            }
        }
        return Some(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
    use crate::filter::initialize_candidates;
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    /// Runs the full init→map→join pipeline with no refinement.
    fn run(
        query_graphs: &[LabeledGraph],
        data_graphs: &[LabeledGraph],
        params: JoinParams,
    ) -> (JoinOutcome, Vec<(usize, usize)>) {
        let queries = CsrGo::from_graphs(query_graphs);
        let data = CsrGo::from_graphs(data_graphs);
        let q = queue();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let gmcr = Gmcr::build(&q, &queries, &data, &bm, 64);
        let plans: Vec<QueryPlan> = (0..queries.num_graphs())
            .map(|qg| QueryPlan::build(&queries, qg, params.induced))
            .collect();
        let out = join(&q, &queries, &data, &bm, &gmcr, &plans, &params);
        let matched = gmcr.matched_pairs();
        (out, matched)
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
    fn single_edge_query_counts_both_orientations() {
        // Query C-C in data C-C: two embeddings (the automorphism).
        let q = labeled(&[1, 1], &[(0, 1, 1)]);
        let d = labeled(&[1, 1], &[(0, 1, 1)]);
        let (out, matched) = run(&[q], &[d], JoinParams::default());
        assert_eq!(out.total_matches, 2);
        assert_eq!(matched, vec![(0, 0)]);
    }

    #[test]
    fn label_mismatch_yields_nothing() {
        let q = labeled(&[1, 2], &[(0, 1, 1)]); // C-N
        let d = labeled(&[1, 3], &[(0, 1, 1)]); // C-O
        let (out, matched) = run(&[q], &[d], JoinParams::default());
        assert_eq!(out.total_matches, 0);
        assert!(matched.is_empty());
    }

    #[test]
    fn path_in_triangle_monomorphism_count() {
        // Query: path C-C-C; data: triangle C3. Monomorphism embeddings:
        // 3 choices of middle × 2 orientations = 6.
        let q = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]);
        let d = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let (out, _) = run(&[q], &[d], JoinParams::default());
        assert_eq!(out.total_matches, 6);
    }

    #[test]
    fn induced_mode_rejects_path_in_triangle() {
        // Induced semantics forbids the extra data edge between the path's
        // endpoints.
        let q = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]);
        let d = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]);
        let params = JoinParams {
            induced: true,
            ..Default::default()
        };
        let (out, _) = run(&[q], &[d], params);
        assert_eq!(out.total_matches, 0);
    }

    #[test]
    fn edge_labels_constrain_matches() {
        // Query C=O (double bond). Data has C=O and C-O.
        let q = labeled(&[1, 3], &[(0, 1, 2)]);
        let d_double = labeled(&[1, 3], &[(0, 1, 2)]);
        let d_single = labeled(&[1, 3], &[(0, 1, 1)]);
        let (out, matched) = run(&[q], &[d_double.clone(), d_single], JoinParams::default());
        assert_eq!(out.total_matches, 1);
        assert_eq!(matched, vec![(0, 0)]);
    }

    #[test]
    fn wildcard_edge_matches_any_bond_order() {
        let q = labeled(&[1, 3], &[(0, 1, WILDCARD_EDGE)]);
        let d_double = labeled(&[1, 3], &[(0, 1, 2)]);
        let d_single = labeled(&[1, 3], &[(0, 1, 1)]);
        let (out, matched) = run(&[q], &[d_double, d_single], JoinParams::default());
        assert_eq!(out.total_matches, 2);
        assert_eq!(matched.len(), 2);
    }

    #[test]
    fn find_first_reports_pairs_not_embeddings() {
        // Benzene-like C6 ring query in a C6 ring data graph has 12
        // automorphic embeddings; FindFirst reports exactly 1.
        let ring = |n: usize| {
            let labels = vec![1u8; n];
            let edges: Vec<(u32, u32, u8)> = (0..n)
                .map(|i| (i as u32, ((i + 1) % n) as u32, 1))
                .collect();
            labeled(&labels, &edges)
        };
        let q = ring(6);
        let d = ring(6);
        let all = run(
            std::slice::from_ref(&q),
            std::slice::from_ref(&d),
            JoinParams::default(),
        )
        .0;
        assert_eq!(all.total_matches, 12);
        let first = run(
            &[q],
            &[d],
            JoinParams {
                mode: JoinMode::FindFirst,
                ..Default::default()
            },
        )
        .0;
        assert_eq!(first.total_matches, 1);
        assert_eq!(first.matched_pairs, 1);
    }

    #[test]
    fn collected_records_are_valid_embeddings() {
        let q = labeled(&[1, 3, 0], &[(0, 1, 1), (0, 2, 1)]);
        let d = labeled(&[1, 3, 0, 0], &[(0, 1, 1), (0, 2, 1), (0, 3, 1)]);
        let params = JoinParams {
            collect_limit: Some(100),
            ..Default::default()
        };
        let query_graphs = [q.clone()];
        let data_graphs = [d.clone()];
        let (out, _) = run(&query_graphs, &data_graphs, params);
        assert_eq!(out.total_matches, 2); // two H choices
        assert_eq!(out.records.len(), 2);
        for rec in &out.records {
            assert!(
                d.is_valid_embedding(&q, &rec.mapping),
                "invalid embedding {rec:?}"
            );
        }
    }

    #[test]
    fn collect_limit_truncates_collection_not_count() {
        let q = labeled(&[1, 0], &[(0, 1, 1)]);
        // CH4-like star: 4 embeddings.
        let d = labeled(
            &[1, 0, 0, 0, 0],
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        );
        let params = JoinParams {
            collect_limit: Some(2),
            ..Default::default()
        };
        let (out, _) = run(&[q], &[d], params);
        assert_eq!(out.total_matches, 4);
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn query_larger_than_data_graph_is_skipped() {
        let q = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]);
        let d = labeled(&[1, 1], &[(0, 1, 1)]);
        let (out, _) = run(&[q], &[d], JoinParams::default());
        assert_eq!(out.total_matches, 0);
    }

    #[test]
    fn multiple_data_graphs_are_independent() {
        let q = labeled(&[1, 3], &[(0, 1, 1)]);
        let d0 = labeled(&[1, 3], &[(0, 1, 1)]);
        let d1 = labeled(&[1, 3], &[(0, 1, 1)]);
        let d2 = labeled(&[1, 2], &[(0, 1, 1)]);
        let (out, matched) = run(&[q], &[d0, d1, d2], JoinParams::default());
        assert_eq!(out.total_matches, 2);
        assert_eq!(matched, vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn a_partial_chain_still_counts_and_collects_each_embedding_once() {
        // The C6 ring's group has order 12; break only its first level
        // (order 6). Each class then keeps 2 representatives, each
        // counting 6, and each expands to 6 records: 12 embeddings per
        // ring either way, every record distinct.
        let ring = |n: u32| {
            let labels = vec![1u8; n as usize];
            let edges: Vec<(u32, u32, u8)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
            labeled(&labels, &edges)
        };
        let queries = CsrGo::from_graphs(&[ring(6)]);
        let data = CsrGo::from_graphs(&[ring(6), ring(6)]);
        let q = queue();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let gmcr = Gmcr::build(&q, &queries, &data, &bm, 64);
        let mut plan = QueryPlan::layout(&queries, 0, false, 0);
        let prefix = Symmetry::chain(&queries, 0, &plan.order, symmetry::SEARCH_BUDGET, 6);
        assert_eq!(prefix.order(), 6);
        plan.set_symmetry(Arc::new(prefix));
        for variant in [JoinVariant::Dfs, JoinVariant::Bfs] {
            let plans = [plan.clone()];
            let policy = JoinPolicy {
                max_degree: &plans,
                min_candidates: &plans,
                mode: PolicyMode::Fixed(variant, OrderChoice::MaxDegree),
            };
            let params = JoinParams {
                collect_limit: Some(100),
                ..Default::default()
            };
            let out = join_with_policy(&q, &queries, &data, &bm, &gmcr, &policy, &params);
            assert_eq!(out.total_matches, 24, "{variant:?}");
            let mut maps: Vec<_> = out.records.iter().map(|r| r.mapping.clone()).collect();
            maps.sort();
            maps.dedup();
            assert_eq!(maps.len(), 24, "{variant:?}");
        }
    }

    #[test]
    fn plan_order_starts_at_max_degree_and_stays_connected() {
        // Star with center node 2.
        let g = labeled(&[0, 0, 1, 0], &[(2, 0, 1), (2, 1, 1), (2, 3, 1)]);
        let queries = CsrGo::from_graphs(&[g]);
        let plan = QueryPlan::build(&queries, 0, false);
        assert_eq!(plan.order[0], 2, "max-degree node first");
        assert_eq!(plan.len(), 4);
        // Every later node's anchor precedes it.
        for k in 1..plan.len() {
            assert!((plan.anchor[k] as usize) < k);
            assert!(!plan.checks[k].is_empty());
        }
    }
}
