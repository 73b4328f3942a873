//! BFS-expansion join: the alternative traversal strategy the paper
//! evaluated and rejected (§4.6).
//!
//! "While BFS generates multiple partial matches at each level — leading
//! to an exponential increase in memory usage — DFS constructs only a
//! single partial match per step, enabling more efficient memory usage."
//!
//! This implementation materializes the full partial-match frontier per
//! level so the memory blow-up is measurable: [`BfsJoinOutcome`] reports
//! the peak number of partial matches held at once, which the DFS join
//! bounds at *one* per work-item. The ablation bench and tests compare the
//! two directly.

use crate::candidates::CandidateBitmap;
use crate::governor::{Completion, Governor, GovernorTicker};
use crate::join::{class_size, collect_embedding, JoinMode, JoinParams, MatchRecord, QueryPlan};
use crate::mapping::Gmcr;
use sigmo_device::Queue;
use sigmo_graph::{CsrGo, NodeId, WILDCARD_EDGE};
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of a BFS-expansion join.
#[derive(Debug)]
pub struct BfsJoinOutcome {
    /// Total embeddings found (must equal the DFS join's count).
    pub total_matches: u64,
    /// Peak partial matches materialized simultaneously across all pairs —
    /// the memory cost DFS avoids.
    pub peak_partial_matches: u64,
    /// Total partial-match rows ever materialized.
    pub total_partial_matches: u64,
    /// Governor verdict. A truncated BFS join abandons the pair whose
    /// frontier it was expanding (partial frontiers are not embeddings),
    /// so the total stays sound: only fully-expanded pairs are counted.
    pub completion: Completion,
}

/// Runs the BFS-expansion join over the GMCR pairs. Semantically identical
/// to [`crate::join::join`] in Find All monomorphism mode; exists to
/// quantify §4.6's memory argument.
pub fn join_bfs(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    gmcr: &Gmcr,
    plans: &[QueryPlan],
    work_group_size: usize,
) -> BfsJoinOutcome {
    join_bfs_governed(
        queue,
        queries,
        data,
        bitmap,
        gmcr,
        plans,
        work_group_size,
        &Governor::unlimited(),
    )
}

/// [`join_bfs`] under a [`Governor`]: one ticker per work-group, ticked
/// once per frontier *row* expanded (each row expansion walks a whole
/// adjacency run — word granularity, never per bit). A tripped governor
/// abandons the current pair's frontier and skips remaining pairs.
// sigmo-lint: allow(uncharged-access) — all frontier traffic is charged in
// aggregate by the local `charge` helper (counters.add_* per recorded row),
// called on both the completed-pair and the budget-tripped path.
#[allow(clippy::too_many_arguments)]
pub fn join_bfs_governed(
    queue: &Queue,
    queries: &CsrGo,
    data: &CsrGo,
    bitmap: &CandidateBitmap,
    gmcr: &Gmcr,
    plans: &[QueryPlan],
    work_group_size: usize,
    governor: &Governor,
) -> BfsJoinOutcome {
    let total = AtomicU64::new(0);
    let peak = AtomicU64::new(0);
    let rows_ever = AtomicU64::new(0);
    let gov = governor;

    queue.parallel_for_work_group_until(
        "join_bfs",
        "join",
        data.num_graphs(),
        work_group_size,
        0,
        || gov.stopped(),
        // sigmo-lint: allow(alloc-in-kernel) — the BFS frontier
        // materialization below is the memory blow-up §4.6 measures in
        // order to *reject* the BFS strategy; allocating per row is the
        // point of the experiment, and peak/rows_ever quantify it.
        |ctx| {
            let dg = ctx.group_id;
            let drange = data.node_range(dg);
            let mut ticker = gov.ticker();
            'pairs: for &qg in gmcr.queries_for(dg) {
                if gov.stopped() {
                    break;
                }
                let plan = &plans[qg as usize];
                let qlen = plan.len();
                if qlen == 0 || qlen as u32 > drange.end - drange.start {
                    continue; // zero-node query, or query larger than data
                }
                let q_base = queries.node_range(qg as usize).start;
                // Level 0: candidates of the first ordered query node.
                let q0 = (q_base + plan.order_slot(0)) as usize;
                let mut frontier: Vec<Vec<NodeId>> = bitmap
                    .iter_set_in_range(q0, drange.start as usize, drange.end as usize)
                    .map(|d| vec![d as NodeId])
                    .collect();
                let mut local_peak = frontier.len() as u64;
                let mut local_rows = frontier.len() as u64;
                for depth in 1..qlen {
                    let q_node = (q_base + plan.order_slot(depth)) as usize;
                    let mut next: Vec<Vec<NodeId>> = Vec::new();
                    for row in &frontier {
                        if ticker.tick(gov) {
                            // Truncated mid-pair: the half-expanded
                            // frontier holds no complete embeddings —
                            // abandon it uncounted.
                            charge(ctx.counters, local_rows, qlen);
                            rows_ever.fetch_add(local_rows, Ordering::Relaxed);
                            peak.fetch_max(local_peak, Ordering::Relaxed);
                            break 'pairs;
                        }
                        let anchor = row[plan.anchor_slot(depth) as usize];
                        for &d in data.neighbors(anchor) {
                            if !bitmap.get(q_node, d as usize) || row.contains(&d) {
                                continue;
                            }
                            let ok = plan.checks_at(depth).iter().all(|&(p, ql)| {
                                data.edge_label(row[p as usize], d)
                                    .is_some_and(|dl| ql == WILDCARD_EDGE || ql == dl)
                            });
                            if ok {
                                let mut r = row.clone();
                                r.push(d);
                                next.push(r);
                            }
                        }
                    }
                    local_rows += next.len() as u64;
                    local_peak = local_peak.max((frontier.len() + next.len()) as u64);
                    frontier = next;
                    if frontier.is_empty() {
                        break;
                    }
                }
                total.fetch_add(frontier.len() as u64, Ordering::Relaxed);
                rows_ever.fetch_add(local_rows, Ordering::Relaxed);
                peak.fetch_max(local_peak, Ordering::Relaxed);
                charge(ctx.counters, local_rows, qlen);
            }
            gov.flush_ticker(&mut ticker);
        },
    );

    BfsJoinOutcome {
        total_matches: total.load(Ordering::Relaxed),
        peak_partial_matches: peak.load(Ordering::Relaxed),
        total_partial_matches: rows_ever.load(Ordering::Relaxed),
        completion: gov.completion(),
    }
}

/// Charges one pair's modeled BFS traffic: reads per materialized row,
/// plus the write-back of every row — the cost DFS's private stacks avoid.
fn charge(counters: &sigmo_device::KernelCounters, local_rows: u64, qlen: usize) {
    counters.add_instructions(local_rows * 100);
    counters.add_bytes_read(local_rows * (qlen as u64 * 4 + 200));
    counters.add_bytes_written(local_rows * qlen as u64 * 4);
    counters.record_trips(local_rows + 1);
}

/// Reusable per-work-group BFS buffers: flat row-major double-buffered
/// frontiers (all rows at one level have the same length, so a level is
/// one `Vec` with a stride) plus a one-entry candidate memo keyed on the
/// current anchor image. Reused across a work-group's pairs, so the
/// steady state allocates nothing.
#[derive(Debug, Default)]
pub struct BfsScratch {
    /// The current level's rows, `stride` nodes each.
    cur: Vec<NodeId>,
    /// The next level's rows, `stride + 1` nodes each.
    next: Vec<NodeId>,
    /// Filtered candidates of the last anchor image seen at this level —
    /// consecutive rows sharing an anchor skip the bitmap and edge-label
    /// probes entirely (the amortization DFS cannot do).
    cache: Vec<NodeId>,
    /// Frontier bytes materialized since construction; the join kernel
    /// drains this into `bytes_written` once per work-group.
    pub bytes_materialized: u64,
}

/// Level-synchronous BFS for one (query graph, data graph) pair, the
/// per-pair twin of `join::dfs_pair`: same mode/limit/induced semantics,
/// the same symmetry-breaking bounds in Find All, same return contract
/// (embeddings found, one per class of the broken group in Find All; on
/// a governor trip the count so far — rows only count once fully
/// extended, so partials are sound).
/// Ticked once per frontier row expanded (word granularity: a row
/// expansion walks a whole adjacency run).
// sigmo-lint: allow(uncharged-access) — per-row traffic is charged in
// aggregate by join_with_policy(): steps × per-step cost at the end of
// each work-group, plus the scratch's materialized bytes; charging here
// would double-count.
// sigmo-lint: allow(alloc-in-kernel) — frontier pushes go to the reusable
// BfsScratch buffers: capacity is retained across pairs, so steady-state
// expansion does not touch the allocator.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bfs_pair(
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
    scratch: &mut BfsScratch,
) -> u64 {
    const INVALID: NodeId = NodeId::MAX;
    let qlen = plan.len();
    if qlen as u32 > d_hi - d_lo {
        return 0; // query larger than the data graph
    }
    let find_all = params.mode == JoinMode::FindAll;
    let class = class_size(plan, params.mode);
    let breaking = find_all && !plan.symmetry().is_trivial();
    scratch.cur.clear();
    let q0 = (q_base + plan.order_slot(0)) as usize;
    for d in bitmap.iter_set_in_range(q0, d_lo as usize, d_hi as usize) {
        scratch.cur.push(d as NodeId);
    }
    scratch.bytes_materialized += scratch.cur.len() as u64 * 4;
    let mut matches = 0u64;
    if qlen == 1 {
        for i in 0..scratch.cur.len() {
            let d = scratch.cur[i];
            matches += 1;
            collect_embedding((&mut *records, room), plan, params.mode, dg, qg, |_| d);
            if ticker.note_embeddings(gov, class) || !find_all {
                return matches;
            }
        }
        return matches;
    }
    let mut stride = 1usize;
    for depth in 1..qlen {
        let q_node = (q_base + plan.order_slot(depth)) as usize;
        let anchor_pos = plan.anchor_slot(depth) as usize;
        // Required edge label toward the anchor (the anchor is an earlier
        // adjacent neighbor, so the check list always holds it).
        let anchor_ql = plan
            .checks_at(depth)
            .iter()
            .find(|&&(p, _)| p as usize == anchor_pos)
            .map(|&(_, ql)| ql)
            .unwrap_or(WILDCARD_EDGE);
        let last_level = depth + 1 == qlen;
        scratch.next.clear();
        let mut cached_anchor = INVALID;
        let rows = scratch.cur.len() / stride;
        for r in 0..rows {
            if ticker.tick(gov) {
                return matches; // trip: completed embeddings stay counted
            }
            let row_start = r * stride;
            let anchor_img = scratch.cur[row_start + anchor_pos];
            if anchor_img != cached_anchor {
                cached_anchor = anchor_img;
                scratch.cache.clear();
                let nbrs = data.neighbors(anchor_img);
                let labels = data.neighbor_edge_labels(anchor_img);
                for (i, &d) in nbrs.iter().enumerate() {
                    if (anchor_ql == WILDCARD_EDGE || anchor_ql == labels[i])
                        && bitmap.get(q_node, d as usize)
                    {
                        scratch.cache.push(d);
                    }
                }
            }
            // The symmetry-breaking bounds leave a window of the memo
            // (sorted like the adjacency it filters) open in Find All.
            let (lo, hi) = if breaking {
                plan.window(
                    depth,
                    &scratch.cur[row_start..row_start + stride],
                    &scratch.cache,
                )
            } else {
                (0, scratch.cache.len())
            };
            'cand: for ci in lo..hi {
                let d = scratch.cache[ci];
                let row = &scratch.cur[row_start..row_start + stride];
                if row.contains(&d) {
                    continue; // injectivity
                }
                for &(p, ql) in plan.checks_at(depth) {
                    if p as usize == anchor_pos {
                        continue; // validated when the memo was filled
                    }
                    match data.edge_label(row[p as usize], d) {
                        Some(dl) => {
                            if ql != WILDCARD_EDGE && ql != dl {
                                continue 'cand;
                            }
                        }
                        None => continue 'cand,
                    }
                }
                if params.induced {
                    for &p in plan.non_edges_at(depth) {
                        if data.has_edge(row[p as usize], d) {
                            continue 'cand;
                        }
                    }
                }
                if last_level {
                    matches += 1;
                    collect_embedding((&mut *records, room), plan, params.mode, dg, qg, |k| {
                        if k < stride {
                            row[k]
                        } else {
                            d
                        }
                    });
                    if ticker.note_embeddings(gov, class) || !find_all {
                        return matches;
                    }
                } else {
                    scratch.next.extend_from_slice(row);
                    scratch.next.push(d);
                    scratch.bytes_materialized += (stride as u64 + 1) * 4;
                }
            }
        }
        if !last_level {
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            stride += 1;
            if scratch.cur.is_empty() {
                return matches;
            }
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::WordWidth;
    use crate::filter::initialize_candidates;
    use crate::join::{join, JoinParams};
    use sigmo_device::DeviceProfile;
    use sigmo_graph::LabeledGraph;

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    fn setup(
        query_graphs: &[LabeledGraph],
        data_graphs: &[LabeledGraph],
    ) -> (CsrGo, CsrGo, CandidateBitmap, Gmcr, Vec<QueryPlan>) {
        let queries = CsrGo::from_graphs(query_graphs);
        let data = CsrGo::from_graphs(data_graphs);
        let q = queue();
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&q, &queries, &data, &bm, 64);
        let gmcr = Gmcr::build(&q, &queries, &data, &bm, 64);
        let plans = (0..queries.num_graphs())
            .map(|qg| QueryPlan::build(&queries, qg, false))
            .collect();
        (queries, data, bm, gmcr, plans)
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
    fn bfs_join_count_equals_dfs_join() {
        let qs = [
            labeled(&[1, 3], &[(0, 1, 1)]),
            labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]),
        ];
        let ds = [
            labeled(&[1, 3, 1], &[(0, 1, 1), (0, 2, 1)]),
            labeled(&[1; 4], &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]),
        ];
        let (queries, data, bm, gmcr, plans) = setup(&qs, &ds);
        let dfs = join(
            &queue(),
            &queries,
            &data,
            &bm,
            &gmcr,
            &plans,
            &JoinParams::default(),
        );
        let gmcr2 = Gmcr::build(&queue(), &queries, &data, &bm, 64);
        let bfs = join_bfs(&queue(), &queries, &data, &bm, &gmcr2, &plans, 64);
        assert_eq!(bfs.total_matches, dfs.total_matches);
        assert!(bfs.total_matches > 0);
    }

    #[test]
    fn bfs_memory_grows_with_automorphisms() {
        // A uniform ring has many partial matches per level; BFS must
        // materialize them all at once while DFS never holds more than one.
        let ring: Vec<(u32, u32, u8)> = (0..8).map(|i| (i, (i + 1) % 8, 1)).collect();
        let q = labeled(&[1; 8], &ring);
        let d = labeled(&[1; 8], &ring);
        let (queries, data, bm, gmcr, plans) = setup(&[q], &[d]);
        let bfs = join_bfs(&queue(), &queries, &data, &bm, &gmcr, &plans, 64);
        assert_eq!(bfs.total_matches, 16, "8 rotations × 2 directions");
        assert!(
            bfs.peak_partial_matches > bfs.total_matches,
            "peak {} must exceed the final match count",
            bfs.peak_partial_matches
        );
    }

    #[test]
    fn bfs_join_empty_when_no_candidates() {
        let q = labeled(&[2, 2], &[(0, 1, 1)]);
        let d = labeled(&[1, 1], &[(0, 1, 1)]);
        let (queries, data, bm, gmcr, plans) = setup(&[q], &[d]);
        let bfs = join_bfs(&queue(), &queries, &data, &bm, &gmcr, &plans, 64);
        assert_eq!(bfs.total_matches, 0);
        assert_eq!(bfs.total_partial_matches, 0);
    }
}
