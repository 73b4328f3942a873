//! Per-node query predicates and the data-node attributes they test.
//!
//! SMARTS-style queries constrain more than the element label: atom lists
//! `[C,N]`, negations `[!C]`, degree `D<n>`, ring membership `R` / `r<n>`,
//! total-hydrogen `H<n>`, and formal-charge tests. A [`NodePredicate`]
//! records the conjunction of such constraints for one query node; the
//! query compiler (`sigmo-mol`'s SMARTS front-end) attaches them to
//! [`crate::LabeledGraph`] nodes, and `sigmo-core` evaluates them during
//! candidate-bitmap initialization via a dedicated filter pass.
//!
//! Evaluation is centralized in [`NodePredicate::matches`] against a
//! [`NodeAttrs`] table so that the word-parallel kernel, the per-bit naive
//! oracle, and the reference validity predicate
//! ([`crate::LabeledGraph::is_valid_embedding`]) all agree bit for bit —
//! the differential tests depend on there being exactly one definition.

use crate::graph::{Label, NodeId};
use serde::{Deserialize, Serialize};

/// The node label that counts as "hydrogen" for total-H predicates. The
/// molecular front-end assigns element codes with hydrogen first; data
/// graphs carry explicit hydrogens, so `H<n>` is a neighbor-label count.
pub const H_LABEL: Label = 0;

/// A conjunction of per-node constraints beyond the plain label match.
/// Every field is optional; [`NodePredicate::is_trivial`] predicates with
/// no set field are dropped at attach time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodePredicate {
    /// Allowed-label bitmask (bit `l` set ⇒ label `l` allowed), for atom
    /// lists and negations. Labels ≥ 64 never match a mask. `None` means
    /// the plain node label (possibly wildcard) already decides.
    pub label_any: Option<u64>,
    /// Exact degree (explicit-hydrogen neighbors included).
    pub degree: Option<u8>,
    /// Ring membership: `Some(true)` requires the node to lie on a cycle,
    /// `Some(false)` forbids it.
    pub ring: Option<bool>,
    /// Smallest ring through the node must have exactly this size.
    pub ring_size: Option<u8>,
    /// Exact count of neighbors labeled [`H_LABEL`].
    pub h_count: Option<u8>,
    /// Exact formal charge.
    pub charge: Option<i8>,
}

impl NodePredicate {
    /// True when no constraint is set — such predicates are never stored.
    pub fn is_trivial(&self) -> bool {
        self.label_any.is_none()
            && self.degree.is_none()
            && self.ring.is_none()
            && self.ring_size.is_none()
            && self.h_count.is_none()
            && self.charge.is_none()
    }

    /// Evaluates the conjunction against data node `v`'s attributes. This
    /// is the single definition every evaluation path shares.
    #[inline]
    pub fn matches(&self, attrs: &NodeAttrs, v: NodeId) -> bool {
        let i = v as usize;
        if let Some(mask) = self.label_any {
            let l = attrs.labels[i];
            if (l as usize) >= 64 || mask & (1u64 << l) == 0 {
                return false;
            }
        }
        if let Some(d) = self.degree {
            if attrs.degree[i] != d as u32 {
                return false;
            }
        }
        if let Some(h) = self.h_count {
            if attrs.h_count[i] != h as u32 {
                return false;
            }
        }
        if let Some(c) = self.charge {
            if attrs.charge[i] != c {
                return false;
            }
        }
        if let Some(in_ring) = self.ring {
            if (attrs.min_ring[i] > 0) != in_ring {
                return false;
            }
        }
        if let Some(size) = self.ring_size {
            if attrs.min_ring[i] != size as u32 {
                return false;
            }
        }
        true
    }
}

/// Per-node attributes of a data graph (or batch), precomputed once per
/// graph so predicate evaluation is a table lookup. `min_ring[v]` is the
/// length of the shortest cycle through `v` (0 when `v` is acyclic),
/// computed exactly: the smallest cycle through `v` closes one of its
/// incident edges, and for that edge it is the edge plus the shortest
/// alternative path between its endpoints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeAttrs {
    /// Node labels, id order.
    pub labels: Vec<Label>,
    /// Degrees.
    pub degree: Vec<u32>,
    /// Neighbors labeled [`H_LABEL`].
    pub h_count: Vec<u32>,
    /// Formal charges (0 unless the graph carries one).
    pub charge: Vec<i8>,
    /// Smallest ring through each node; 0 = not on any cycle.
    pub min_ring: Vec<u32>,
}

impl NodeAttrs {
    /// Builds the table from label/charge slices and a CSR adjacency: the
    /// neighbors of `v` are `targets[offsets[v]..offsets[v + 1]]`. The
    /// adjacency must be symmetric and simple (no self-loops, no repeated
    /// neighbor).
    pub fn build(labels: &[Label], charges: &[i8], offsets: &[u32], targets: &[NodeId]) -> Self {
        let adj = Adjacency { offsets, targets };
        let n = labels.len();
        debug_assert_eq!(charges.len(), n);
        debug_assert_eq!(adj.len(), n);
        let degree: Vec<u32> = (0..n).map(|v| adj.nbrs(v).len() as u32).collect();
        let h_count: Vec<u32> = (0..n)
            .map(|v| {
                adj.nbrs(v)
                    .iter()
                    .filter(|&&u| labels[u as usize] == H_LABEL)
                    .count() as u32
            })
            .collect();
        let min_ring = min_ring_sizes(&adj);
        Self {
            labels: labels.to_vec(),
            degree,
            h_count,
            charge: charges.to_vec(),
            min_ring,
        }
    }
}

/// A borrowed CSR adjacency (see [`NodeAttrs::build`]).
struct Adjacency<'a> {
    offsets: &'a [u32],
    targets: &'a [NodeId],
}

impl Adjacency<'_> {
    fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    #[inline]
    fn nbrs(&self, v: usize) -> &[NodeId] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// The bridges of a graph, from one iterative low-link DFS. Edge
/// `(x, y)` is a bridge iff it is a DFS tree edge whose child side has no
/// back edge reaching above it. A bridge lies on no cycle.
struct Bridges {
    /// DFS parent of each node (`NodeId::MAX` for roots).
    parent: Vec<NodeId>,
    /// `true` when the tree edge from `v` up to `parent[v]` is a bridge.
    bridge_up: Vec<bool>,
}

impl Bridges {
    fn of(adj: &Adjacency) -> Self {
        let n = adj.len();
        let mut disc = vec![0u32; n]; // 0 = unvisited; times start at 1
        let mut low = vec![0u32; n];
        let mut parent = vec![NodeId::MAX; n];
        let mut bridge_up = vec![false; n];
        // Frames of (node, index of its next neighbor to scan).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut time = 0u32;
        for root in 0..n {
            if disc[root] != 0 {
                continue;
            }
            time += 1;
            disc[root] = time;
            low[root] = time;
            stack.push((root, 0));
            while let Some(frame) = stack.last_mut() {
                let (v, next) = *frame;
                if let Some(&w) = adj.nbrs(v).get(next) {
                    frame.1 += 1;
                    let w = w as usize;
                    if disc[w] == 0 {
                        time += 1;
                        disc[w] = time;
                        low[w] = time;
                        parent[w] = v as NodeId;
                        stack.push((w, 0));
                    } else if w as NodeId != parent[v] {
                        // Simple graph: the one edge back to the parent
                        // is the tree edge itself, not a back edge.
                        low[v] = low[v].min(disc[w]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        low[p] = low[p].min(low[v]);
                        bridge_up[v] = low[v] > disc[p];
                    }
                }
            }
        }
        Self { parent, bridge_up }
    }

    #[inline]
    fn is_bridge(&self, x: usize, y: usize) -> bool {
        (self.parent[y] == x as NodeId && self.bridge_up[y])
            || (self.parent[x] == y as NodeId && self.bridge_up[x])
    }
}

/// Shortest cycle through each node: min over incident edges `(v, u)` of
/// `1 +` the shortest `v → u` path avoiding that edge (BFS) — the
/// definition [`reference_min_ring_sizes`] evaluates literally, made
/// linear in practice by three exact prunings:
///
/// * a bridge lies on no cycle, so BFS starts only across non-bridge
///   edges (a node with none is on no ring) and never walks a bridge —
///   the path closing a cycle uses no bridge either;
/// * a BFS stops once its frontier can no longer close a ring shorter
///   than the best one already found through `v`;
/// * each BFS resets only the nodes it touched, so its cost is the
///   size of the local ball it explored, not of the whole batch.
fn min_ring_sizes(adj: &Adjacency) -> Vec<u32> {
    let n = adj.len();
    let bridges = Bridges::of(adj);
    let mut out = vec![0u32; n];
    let mut dist = vec![u32::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for v in 0..n {
        let mut best = u32::MAX;
        for &u in adj.nbrs(v) {
            let u = u as usize;
            if bridges.is_bridge(v, u) {
                continue;
            }
            dist[v] = 0;
            touched.push(v);
            queue.push_back(v);
            'bfs: while let Some(x) = queue.pop_front() {
                // Every ring closed from here has length ≥ dist[x] + 2.
                if dist[x].saturating_add(2) >= best {
                    break;
                }
                for &y in adj.nbrs(x) {
                    let y = y as usize;
                    if (x == v && y == u) || bridges.is_bridge(x, y) {
                        continue; // the removed edge, or no cycle there
                    }
                    if dist[y] == u32::MAX {
                        dist[y] = dist[x] + 1;
                        touched.push(y);
                        if y == u {
                            best = dist[y] + 1;
                            break 'bfs;
                        }
                        queue.push_back(y);
                    }
                }
            }
            queue.clear();
            for t in touched.drain(..) {
                dist[t] = u32::MAX;
            }
        }
        if best != u32::MAX {
            out[v] = best;
        }
    }
    out
}

/// The per-edge-BFS definition of [`NodeAttrs::min_ring`], evaluated
/// literally: for every node and every incident edge, a full BFS over the
/// whole graph with that edge removed. Quadratic in the graph size; kept
/// as the reference the pruned production routine is tested against.
/// Takes the same CSR adjacency as [`NodeAttrs::build`].
pub fn reference_min_ring_sizes(offsets: &[u32], targets: &[NodeId]) -> Vec<u32> {
    let adj = Adjacency { offsets, targets };
    let n = adj.len();
    let mut out = vec![0u32; n];
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for v in 0..n {
        let mut best = u32::MAX;
        for &u in adj.nbrs(v) {
            let u = u as usize;
            // BFS v → u without the direct edge.
            dist.fill(u32::MAX);
            dist[v] = 0;
            queue.clear();
            queue.push_back(v);
            'bfs: while let Some(x) = queue.pop_front() {
                for &y in adj.nbrs(x) {
                    let y = y as usize;
                    if x == v && y == u {
                        continue; // the removed edge
                    }
                    if dist[y] == u32::MAX {
                        dist[y] = dist[x] + 1;
                        if y == u {
                            break 'bfs;
                        }
                        queue.push_back(y);
                    }
                }
            }
            if dist[u] != u32::MAX {
                best = best.min(dist[u] + 1);
            }
        }
        if best != u32::MAX {
            out[v] = best;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LabeledGraph;

    fn attrs_of(g: &LabeledGraph) -> NodeAttrs {
        g.node_attrs()
    }

    #[test]
    fn trivial_predicate_matches_everything() {
        let g = LabeledGraph::from_edges(&[1, 0, 1], &[(0, 1), (1, 2)]).unwrap();
        let attrs = attrs_of(&g);
        let p = NodePredicate::default();
        assert!(p.is_trivial());
        for v in 0..3 {
            assert!(p.matches(&attrs, v));
        }
    }

    #[test]
    fn label_mask_selects_listed_labels() {
        let g = LabeledGraph::from_edges(&[1, 2, 3], &[(0, 1), (1, 2)]).unwrap();
        let attrs = attrs_of(&g);
        let p = NodePredicate {
            label_any: Some((1 << 1) | (1 << 3)),
            ..Default::default()
        };
        assert!(p.matches(&attrs, 0));
        assert!(!p.matches(&attrs, 1));
        assert!(p.matches(&attrs, 2));
    }

    #[test]
    fn degree_and_h_count() {
        // H-C-H chain: carbon has degree 2 and two hydrogens.
        let g = LabeledGraph::from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]).unwrap();
        let attrs = attrs_of(&g);
        let deg2 = NodePredicate {
            degree: Some(2),
            ..Default::default()
        };
        assert!(!deg2.matches(&attrs, 0));
        assert!(deg2.matches(&attrs, 1));
        let h2 = NodePredicate {
            h_count: Some(2),
            ..Default::default()
        };
        assert!(h2.matches(&attrs, 1));
        assert!(!h2.matches(&attrs, 0));
    }

    #[test]
    fn ring_membership_and_smallest_ring() {
        // Triangle 0-1-2 with a pendant node 3 on node 2.
        let g = LabeledGraph::from_edges(&[1, 1, 1, 1], &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let attrs = attrs_of(&g);
        assert_eq!(attrs.min_ring, vec![3, 3, 3, 0]);
        let in_ring = NodePredicate {
            ring: Some(true),
            ..Default::default()
        };
        assert!(in_ring.matches(&attrs, 0));
        assert!(!in_ring.matches(&attrs, 3));
        let r3 = NodePredicate {
            ring_size: Some(3),
            ..Default::default()
        };
        assert!(r3.matches(&attrs, 1));
        assert!(!r3.matches(&attrs, 3));
    }

    #[test]
    fn fused_rings_report_smallest() {
        // A 4-cycle sharing the edge (0, 1) with a triangle: nodes 0 and 1
        // lie on both, their smallest ring is the triangle.
        let mut g = LabeledGraph::with_uniform_labels(5, 1);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 1)] {
            g.add_edge(a, b, 0).unwrap();
        }
        let attrs = attrs_of(&g);
        assert_eq!(attrs.min_ring[0], 3);
        assert_eq!(attrs.min_ring[1], 3);
        assert_eq!(attrs.min_ring[2], 4);
        assert_eq!(attrs.min_ring[4], 3);
    }

    /// Pruned ring sizes vs the literal per-edge BFS, on a batch.
    fn assert_rings_match_reference(graphs: &[LabeledGraph], what: &str) {
        let batch = crate::CsrGo::from_graphs(graphs);
        let csr = batch.csr();
        assert_eq!(
            batch.node_attrs().min_ring,
            reference_min_ring_sizes(csr.row_offsets(), csr.column_indices()),
            "{what}"
        );
        for g in graphs {
            let (offsets, targets) = flat_adjacency(g);
            assert_eq!(
                g.node_attrs().min_ring,
                reference_min_ring_sizes(&offsets, &targets),
                "{what} (unbatched)"
            );
        }
    }

    fn flat_adjacency(g: &LabeledGraph) -> (Vec<u32>, Vec<NodeId>) {
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for v in 0..g.num_nodes() as NodeId {
            targets.extend(g.neighbors(v).iter().map(|&(u, _)| u));
            offsets.push(targets.len() as u32);
        }
        (offsets, targets)
    }

    /// A cycle of `len` nodes on `g`, starting at a fresh node; returns
    /// its first node.
    fn add_cycle(g: &mut LabeledGraph, len: usize) -> NodeId {
        let first = g.num_nodes() as NodeId;
        for _ in 0..len {
            g.add_node(1);
        }
        for i in 0..len as NodeId {
            g.add_edge(first + i, first + (i + 1) % len as NodeId, 0)
                .unwrap();
        }
        first
    }

    #[test]
    fn rings_joined_by_bridges_match_reference() {
        // Rings of 3..=8 in a chain, consecutive rings joined by a bridge
        // path of 1..=3 edges, plus pendant leaves (explicit hydrogens).
        let mut rng = crate::XorShift::new(11);
        let mut g = LabeledGraph::new();
        let mut prev: Option<NodeId> = None;
        for len in 3..=8usize {
            let first = add_cycle(&mut g, len);
            if let Some(p) = prev {
                let mut at = p;
                for _ in 0..rng.below(3) {
                    let mid = g.add_node(2);
                    g.add_edge(at, mid, 0).unwrap();
                    at = mid;
                }
                g.add_edge(at, first, 0).unwrap();
            }
            let leaf = g.add_node(H_LABEL);
            g.add_edge(first + 1, leaf, 0).unwrap();
            prev = Some(first + (len as NodeId) / 2);
        }
        let attrs = g.node_attrs();
        assert!(attrs.min_ring.iter().any(|&r| r == 8));
        assert!(attrs.min_ring.iter().any(|&r| r == 0));
        assert_rings_match_reference(&[g], "bridged ring chain");
    }

    #[test]
    fn fused_and_spiro_rings_match_reference() {
        // Naphthalene-like fused 6+6, a 5-ring fused onto it, and a spiro
        // 4-ring sharing one atom; then a cage (cube) whose every ring is 4.
        let mut g = LabeledGraph::new();
        let a = add_cycle(&mut g, 6);
        let b = add_cycle(&mut g, 4);
        // Fuse: a second 6-ring over the edge (a, a+1).
        let mut at = a;
        for _ in 0..4 {
            let x = g.add_node(1);
            g.add_edge(at, x, 0).unwrap();
            at = x;
        }
        g.add_edge(at, a + 1, 0).unwrap();
        // 5-ring fused over (a+3, a+4).
        let x = g.add_node(1);
        let y = g.add_node(1);
        let z = g.add_node(1);
        for (p, q) in [(a + 3, x), (x, y), (y, z), (z, a + 4)] {
            g.add_edge(p, q, 0).unwrap();
        }
        // Spiro: the 4-ring shares its first atom with the 5-ring.
        g.add_edge(b, y, 0).unwrap();
        g.add_edge(b + 1, y, 0).unwrap();
        let mut cube = LabeledGraph::with_uniform_labels(8, 1);
        for (p, q) in [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 4),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
        ] {
            cube.add_edge(p, q, 0).unwrap();
        }
        assert_eq!(cube.node_attrs().min_ring, vec![4; 8]);
        assert_rings_match_reference(&[g, cube], "fused / spiro / cage");
    }

    #[test]
    fn random_graph_batches_match_reference() {
        // Sparse random graphs (trees plus a few chords: fused rings,
        // long cycles, bridges and single-node graphs), batched several at a
        // time so ring perception must stay inside each graph.
        let mut rng = crate::XorShift::new(2024);
        for round in 0..300u64 {
            let graphs: Vec<LabeledGraph> = (0..1 + rng.below(4))
                .map(|i| {
                    let n = 1 + rng.below(30);
                    let extra = rng.below(n / 2 + 2);
                    crate::random_sparse_graph(n, extra, 3, round * 8 + i as u64)
                })
                .collect();
            assert_rings_match_reference(&graphs, &format!("round {round}"));
        }
    }

    #[test]
    fn charge_predicate_reads_graph_charges() {
        let mut g = LabeledGraph::from_edges(&[2, 1], &[(0, 1)]).unwrap();
        g.set_charge(0, 1);
        let attrs = attrs_of(&g);
        let plus = NodePredicate {
            charge: Some(1),
            ..Default::default()
        };
        assert!(plus.matches(&attrs, 0));
        assert!(!plus.matches(&attrs, 1));
        let neutral = NodePredicate {
            charge: Some(0),
            ..Default::default()
        };
        assert!(neutral.matches(&attrs, 1));
    }

    #[test]
    fn labels_at_or_above_64_never_match_a_mask() {
        let g = LabeledGraph::from_edges(&[200, 1], &[(0, 1)]).unwrap();
        let attrs = attrs_of(&g);
        let p = NodePredicate {
            label_any: Some(u64::MAX),
            ..Default::default()
        };
        assert!(!p.matches(&attrs, 0));
        assert!(p.matches(&attrs, 1));
    }
}
