//! CSR-GO: CSR extended with a *graph offsets* layer (paper §4.1, Figure 3).
//!
//! A batch of disconnected graphs (all queries, or all data molecules) is
//! stored as one CSR over the union graph, plus a `graph_offsets` vector of
//! length `num_graphs + 1` mapping each graph to its contiguous node-id
//! range. Node ids are global within the batch; `graph_of` recovers the
//! owning graph via binary search, exactly as described in the paper.

use crate::csr::Csr;
use crate::graph::{EdgeLabel, Label, LabeledGraph, NodeId};
use crate::predicate::{Adjacency, NodeAttrs, NodePredicate, RingScratch};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Batched CSR with graph offsets.
///
/// ```
/// use sigmo_graph::{CsrGo, LabeledGraph};
/// let a = LabeledGraph::from_edges(&[0, 1], &[(0, 1)]).unwrap();
/// let b = LabeledGraph::from_edges(&[2, 2, 2], &[(0, 1), (1, 2)]).unwrap();
/// let batch = CsrGo::from_graphs(&[a, b]);
/// assert_eq!(batch.num_graphs(), 2);
/// assert_eq!(batch.graph_offsets(), &[0, 2, 5]);
/// assert_eq!(batch.graph_of(3), 1); // global node 3 lives in graph 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrGo {
    csr: Csr,
    graph_offsets: Vec<u32>,
    /// Nonzero formal charges across the batch, sparse and sorted by
    /// global node id (offsets applied). Empty for uncharged batches.
    #[serde(default)]
    charges: Vec<(NodeId, i8)>,
    /// Per-node query predicates across the batch, sparse and sorted by
    /// global node id. Only query batches compiled from SMARTS carry
    /// these.
    #[serde(default)]
    preds: Vec<(NodeId, NodePredicate)>,
}

impl CsrGo {
    /// Builds the batched representation by concatenating `graphs`,
    /// offsetting node ids so each graph occupies a contiguous id range.
    pub fn from_graphs(graphs: &[LabeledGraph]) -> Self {
        let refs: Vec<&LabeledGraph> = graphs.iter().collect();
        Self::from_graph_refs(&refs)
    }

    /// [`CsrGo::from_graphs`] over borrowed graphs, so callers that keep
    /// their molecules elsewhere batch them without cloning.
    pub fn from_graph_refs(graphs: &[&LabeledGraph]) -> Self {
        let mut graph_offsets = Vec::with_capacity(graphs.len() + 1);
        let mut charges = Vec::new();
        let mut preds = Vec::new();
        graph_offsets.push(0u32);
        let mut base: u32 = 0;
        for g in graphs {
            for &(v, c) in g.charges() {
                charges.push((base + v, c));
            }
            for (v, p) in g.predicates() {
                preds.push((base + v, p.clone()));
            }
            base += g.num_nodes() as u32;
            graph_offsets.push(base);
        }
        Self {
            csr: Csr::from_disjoint(graphs),
            graph_offsets,
            charges,
            preds,
        }
    }

    /// Number of graphs in the batch.
    pub fn num_graphs(&self) -> usize {
        self.graph_offsets.len() - 1
    }

    /// Total nodes across the batch.
    pub fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    /// Total undirected edges across the batch.
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// Global node-id range of graph `g`.
    #[inline]
    pub fn node_range(&self, g: usize) -> Range<NodeId> {
        self.graph_offsets[g]..self.graph_offsets[g + 1]
    }

    /// Number of nodes in graph `g`.
    #[inline]
    pub fn graph_len(&self, g: usize) -> usize {
        (self.graph_offsets[g + 1] - self.graph_offsets[g]) as usize
    }

    /// Recovers the graph owning global node `v` by binary search over the
    /// graph-offsets array (paper §4.1).
    #[inline]
    pub fn graph_of(&self, v: NodeId) -> usize {
        // partition_point returns the count of offsets <= v, so subtracting
        // one lands on the owning graph.
        self.graph_offsets.partition_point(|&off| off <= v) - 1
    }

    /// Label of global node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.csr.label(v)
    }

    /// All labels in global node order.
    pub fn labels(&self) -> &[Label] {
        self.csr.labels()
    }

    /// Neighbors of global node `v` (all within the same graph by
    /// construction).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.csr.neighbors(v)
    }

    /// Edge labels parallel to [`CsrGo::neighbors`].
    #[inline]
    pub fn neighbor_edge_labels(&self, v: NodeId) -> &[EdgeLabel] {
        self.csr.neighbor_edge_labels(v)
    }

    /// Degree of global node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.csr.degree(v)
    }

    /// Edge lookup between two global node ids.
    #[inline]
    pub fn edge_label(&self, a: NodeId, b: NodeId) -> Option<EdgeLabel> {
        self.csr.edge_label(a, b)
    }

    /// Edge existence between two global node ids.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.csr.has_edge(a, b)
    }

    /// Formal charge of global node `v` (0 unless the source graph set
    /// one).
    pub fn charge(&self, v: NodeId) -> i8 {
        self.charges
            .binary_search_by_key(&v, |&(n, _)| n)
            .map(|i| self.charges[i].1)
            .unwrap_or(0)
    }

    /// The sparse nonzero-charge table, sorted by global node id.
    pub fn charges(&self) -> &[(NodeId, i8)] {
        &self.charges
    }

    /// The predicate attached to global node `v`, if any.
    pub fn predicate(&self, v: NodeId) -> Option<&NodePredicate> {
        self.preds
            .binary_search_by_key(&v, |(n, _)| *n)
            .ok()
            .map(|i| &self.preds[i].1)
    }

    /// The sparse predicate table, sorted by global node id.
    pub fn predicates(&self) -> &[(NodeId, NodePredicate)] {
        &self.preds
    }

    /// True when any node in the batch carries a predicate.
    pub fn has_predicates(&self) -> bool {
        !self.preds.is_empty()
    }

    /// Per-node attributes over the whole batch, ring sizes included
    /// (graphs are disconnected, so the result equals the concatenation
    /// of each graph's own table). The engine reads these from
    /// `sigmo_core::BatchFacts`, which fills them graph by graph with
    /// [`CsrGo::fill_node_attrs`].
    pub fn node_attrs(&self) -> NodeAttrs {
        let mut out = NodeAttrs::zeroed(self.num_nodes());
        let mut rings = RingScratch::default();
        for g in 0..self.num_graphs() {
            self.fill_node_attrs(g, &mut out, Some(&mut rings));
        }
        out
    }

    /// Writes graph `g`'s rows of a batch-sized [`NodeAttrs`] in place,
    /// from the batch's own adjacency (no edge crosses a graph boundary,
    /// so rings, degrees and H-counts are the graph's own). Ring sizes
    /// are computed only when `rings` holds scratch (see
    /// [`NodeAttrs::write_rows`]).
    pub fn fill_node_attrs(&self, g: usize, out: &mut NodeAttrs, rings: Option<&mut RingScratch>) {
        let range = self.node_range(g);
        let adj = Adjacency {
            offsets: self.csr.row_offsets(),
            targets: self.csr.column_indices(),
        };
        out.write_rows(
            &adj,
            self.labels(),
            &self.charges,
            range.start as usize..range.end as usize,
            rings,
        );
    }

    /// The graph-offsets array (length `num_graphs + 1`).
    pub fn graph_offsets(&self) -> &[u32] {
        &self.graph_offsets
    }

    /// Underlying CSR over the union graph.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Extracts graph `g` back out as a standalone [`LabeledGraph`] with
    /// local node ids (round-trip support, used by tests and baselines).
    pub fn extract_graph(&self, g: usize) -> LabeledGraph {
        let range = self.node_range(g);
        let base = range.start;
        let mut out = LabeledGraph::new();
        for v in range.clone() {
            out.add_node(self.label(v));
        }
        for v in range {
            let labels = self.neighbor_edge_labels(v);
            for (i, &u) in self.neighbors(v).iter().enumerate() {
                if v < u {
                    out.add_edge(v - base, u - base, labels[i])
                        .expect("extracted edge valid");
                }
            }
        }
        for &(v, c) in &self.charges {
            if v >= base && v < self.graph_offsets[g + 1] {
                out.set_charge(v - base, c);
            }
        }
        for (v, p) in &self.preds {
            if *v >= base && *v < self.graph_offsets[g + 1] {
                out.set_predicate(v - base, p.clone());
            }
        }
        out
    }

    /// Heap bytes consumed (CSR arrays + graph offsets), for §5.1.3-style
    /// memory accounting.
    pub fn memory_bytes(&self) -> usize {
        self.csr.memory_bytes() + self.graph_offsets.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure3_batch() -> Vec<LabeledGraph> {
        // Figure 3: G0 = 5 nodes (edges as in csr.rs test), G1 = 4 nodes
        // 5-6, 6-7, 6-8 (locally 0-1, 1-2, 1-3).
        let g0 =
            LabeledGraph::from_edges(&[0; 5], &[(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
                .unwrap();
        let g1 = LabeledGraph::from_edges(&[1; 4], &[(0, 1), (1, 2), (1, 3)]).unwrap();
        vec![g0, g1]
    }

    #[test]
    fn graph_offsets_match_figure3() {
        let b = CsrGo::from_graphs(&figure3_batch());
        assert_eq!(b.graph_offsets(), &[0, 5, 9]);
        assert_eq!(b.num_graphs(), 2);
        assert_eq!(b.num_nodes(), 9);
    }

    #[test]
    fn graph_of_binary_search_agrees_with_linear_scan() {
        let b = CsrGo::from_graphs(&figure3_batch());
        for v in 0..b.num_nodes() as NodeId {
            let linear = (0..b.num_graphs())
                .find(|&g| b.node_range(g).contains(&v))
                .unwrap();
            assert_eq!(b.graph_of(v), linear, "node {v}");
        }
    }

    #[test]
    fn neighbors_stay_within_owning_graph() {
        let b = CsrGo::from_graphs(&figure3_batch());
        for v in 0..b.num_nodes() as NodeId {
            let g = b.graph_of(v);
            for &u in b.neighbors(v) {
                assert_eq!(b.graph_of(u), g);
            }
        }
    }

    #[test]
    fn extract_graph_round_trips() {
        let graphs = figure3_batch();
        let b = CsrGo::from_graphs(&graphs);
        for (i, g) in graphs.iter().enumerate() {
            let back = b.extract_graph(i);
            assert_eq!(back.num_nodes(), g.num_nodes());
            assert_eq!(back.num_edges(), g.num_edges());
            assert_eq!(back.labels(), g.labels());
            for (a, bb, l) in g.edges() {
                assert_eq!(back.edge_label(a, bb), Some(l));
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_graphs() {
        let b = CsrGo::from_graphs(&[]);
        assert_eq!(b.num_graphs(), 0);
        assert_eq!(b.num_nodes(), 0);

        let b = CsrGo::from_graphs(&[LabeledGraph::new(), LabeledGraph::with_uniform_labels(2, 3)]);
        assert_eq!(b.num_graphs(), 2);
        assert_eq!(b.graph_len(0), 0);
        assert_eq!(b.graph_len(1), 2);
        assert_eq!(b.graph_of(0), 1);
    }

    #[test]
    fn charges_and_predicates_round_trip_through_batch() {
        let mut g0 = LabeledGraph::from_edges(&[1, 2], &[(0, 1)]).unwrap();
        g0.set_charge(1, -1);
        let mut g1 = LabeledGraph::from_edges(&[3, 1, 1], &[(0, 1), (1, 2)]).unwrap();
        g1.set_charge(0, 2);
        g1.set_predicate(
            2,
            NodePredicate {
                degree: Some(1),
                ..Default::default()
            },
        );
        let b = CsrGo::from_graphs(&[g0.clone(), g1.clone()]);
        // Global views: offsets applied.
        assert_eq!(b.charge(1), -1);
        assert_eq!(b.charge(2), 2);
        assert_eq!(b.charge(0), 0);
        assert!(b.has_predicates());
        assert_eq!(b.predicate(4).unwrap().degree, Some(1));
        assert!(b.predicate(3).is_none());
        // Round trip back to standalone graphs.
        assert_eq!(b.extract_graph(0).charges(), g0.charges());
        assert_eq!(b.extract_graph(1).charges(), g1.charges());
        assert_eq!(b.extract_graph(1).predicates(), g1.predicates());
    }

    #[test]
    fn batch_node_attrs_compose_per_graph() {
        // g0 = triangle, g1 = path; ring perception must not leak across
        // the graph boundary.
        let g0 = LabeledGraph::from_edges(&[1, 1, 1], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let mut g1 = LabeledGraph::from_edges(&[0, 1], &[(0, 1)]).unwrap();
        g1.set_charge(1, -1);
        let b = CsrGo::from_graphs(&[g0, g1]);
        let attrs = b.node_attrs();
        assert_eq!(attrs.min_ring, vec![3, 3, 3, 0, 0]);
        assert_eq!(attrs.h_count[4], 1);
        assert_eq!(attrs.degree, vec![2, 2, 2, 1, 1]);
        assert_eq!(attrs.charge, vec![0, 0, 0, 0, -1]);
        // Each graph's own table is its slice of the batch table.
        for (g, lo, hi) in [(0, 0, 3), (1, 3, 5)] {
            let own = b.extract_graph(g).node_attrs();
            assert_eq!(own.labels, attrs.labels[lo..hi]);
            assert_eq!(own.degree, attrs.degree[lo..hi]);
            assert_eq!(own.h_count, attrs.h_count[lo..hi]);
            assert_eq!(own.charge, attrs.charge[lo..hi]);
            assert_eq!(own.min_ring, attrs.min_ring[lo..hi]);
            assert_eq!(own.packed, attrs.packed[lo..hi]);
        }
    }

    #[test]
    fn labels_concatenate_in_graph_order() {
        let g0 = LabeledGraph::with_uniform_labels(2, 7);
        let g1 = LabeledGraph::with_uniform_labels(3, 9);
        let b = CsrGo::from_graphs(&[g0, g1]);
        assert_eq!(b.labels(), &[7, 7, 9, 9, 9]);
    }
}
