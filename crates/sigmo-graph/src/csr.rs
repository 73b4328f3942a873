//! Compressed Sparse Row encoding of a single labeled graph.

use crate::graph::{EdgeLabel, Label, LabeledGraph, NodeId};
use serde::{Deserialize, Serialize};

/// CSR representation of one [`LabeledGraph`].
///
/// `row_offsets` has `n + 1` entries; the neighbors of node `v` live in
/// `column_indices[row_offsets[v] .. row_offsets[v + 1]]` with their edge
/// labels in the parallel `edge_labels` array. Neighbor lists are sorted by
/// node id, which makes `has_edge` a binary search and gives deterministic
/// traversal orders in the kernels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Csr {
    row_offsets: Vec<u32>,
    column_indices: Vec<NodeId>,
    edge_labels: Vec<EdgeLabel>,
    labels: Vec<Label>,
}

impl Csr {
    /// Freezes a [`LabeledGraph`] into CSR form.
    pub fn from_graph(g: &LabeledGraph) -> Self {
        Self::from_disjoint(&[g])
    }

    /// Freezes the disjoint union of `graphs` into one CSR, graph `i`'s
    /// node ids shifted by the node count of the graphs before it. Equal
    /// to [`Csr::from_graph`] on the union graph, without building it.
    pub fn from_disjoint(graphs: &[&LabeledGraph]) -> Self {
        let n: usize = graphs.iter().map(|g| g.num_nodes()).sum();
        let arcs: usize = graphs.iter().map(|g| 2 * g.num_edges()).sum();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut column_indices = Vec::with_capacity(arcs);
        let mut edge_labels = Vec::with_capacity(arcs);
        let mut labels = Vec::with_capacity(n);
        let mut nbrs: Vec<(NodeId, EdgeLabel)> = Vec::new();
        row_offsets.push(0);
        let mut base: NodeId = 0;
        for g in graphs {
            labels.extend_from_slice(g.labels());
            for v in 0..g.num_nodes() as NodeId {
                nbrs.clear();
                nbrs.extend_from_slice(g.neighbors(v));
                nbrs.sort_unstable_by_key(|&(u, _)| u);
                for &(u, l) in &nbrs {
                    column_indices.push(base + u);
                    edge_labels.push(l);
                }
                row_offsets.push(column_indices.len() as u32);
            }
            base += g.num_nodes() as NodeId;
        }
        Self {
            row_offsets,
            column_indices,
            edge_labels,
            labels,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.column_indices.len() / 2
    }

    /// Label of node `v`.
    #[inline]
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// All labels in node order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Neighbor ids of `v` (sorted).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.row_offsets[v as usize] as usize;
        let hi = self.row_offsets[v as usize + 1] as usize;
        &self.column_indices[lo..hi]
    }

    /// Edge labels parallel to [`Csr::neighbors`].
    #[inline]
    pub fn neighbor_edge_labels(&self, v: NodeId) -> &[EdgeLabel] {
        let lo = self.row_offsets[v as usize] as usize;
        let hi = self.row_offsets[v as usize + 1] as usize;
        &self.edge_labels[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.row_offsets[v as usize + 1] - self.row_offsets[v as usize]) as usize
    }

    /// Binary-search edge lookup; returns the edge label when present.
    #[inline]
    pub fn edge_label(&self, a: NodeId, b: NodeId) -> Option<EdgeLabel> {
        let nbrs = self.neighbors(a);
        nbrs.binary_search(&b)
            .ok()
            .map(|i| self.neighbor_edge_labels(a)[i])
    }

    /// Tests edge existence.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Raw row-offsets array (length `n + 1`).
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// Raw column-indices array (length `2m`).
    pub fn column_indices(&self) -> &[NodeId] {
        &self.column_indices
    }

    /// Heap bytes consumed by the representation (used for the memory
    /// accounting in §5.1.3).
    pub fn memory_bytes(&self) -> usize {
        self.row_offsets.len() * 4
            + self.column_indices.len() * 4
            + self.edge_labels.len()
            + self.labels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledGraph {
        // 0-1, 1-2, 2-0 triangle with pendant 3 on node 2.
        let mut g = LabeledGraph::from_edges(&[5, 6, 7, 8], &[(1, 0), (1, 2), (2, 0)]).unwrap();
        g.add_edge(2, 3, 4).unwrap();
        g
    }

    #[test]
    fn csr_round_trips_structure() {
        let g = sample();
        let c = Csr::from_graph(&g);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_edges(), 4);
        for v in 0..4u32 {
            assert_eq!(c.degree(v), g.degree(v));
            assert_eq!(c.label(v), g.label(v));
            let mut expect: Vec<u32> = g.neighbors(v).iter().map(|&(u, _)| u).collect();
            expect.sort_unstable();
            assert_eq!(c.neighbors(v), expect.as_slice());
        }
    }

    #[test]
    fn csr_neighbors_are_sorted() {
        let c = Csr::from_graph(&sample());
        for v in 0..4u32 {
            let nbrs = c.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn csr_edge_lookup_and_labels() {
        let c = Csr::from_graph(&sample());
        assert_eq!(c.edge_label(2, 3), Some(4));
        assert_eq!(c.edge_label(3, 2), Some(4));
        assert_eq!(c.edge_label(0, 3), None);
        assert!(c.has_edge(0, 1));
        assert!(!c.has_edge(1, 3));
    }

    #[test]
    fn disjoint_union_equals_csr_of_the_union_graph() {
        let a = sample();
        let b = LabeledGraph::from_edges(&[1, 2, 3], &[(2, 0), (0, 1)]).unwrap();
        let mut union = LabeledGraph::new();
        for g in [&a, &LabeledGraph::new(), &b] {
            let base = union.num_nodes() as NodeId;
            for &l in g.labels() {
                union.add_node(l);
            }
            for (x, y, l) in g.edges() {
                union.add_edge(base + x, base + y, l).unwrap();
            }
        }
        let empty = LabeledGraph::new();
        assert_eq!(
            Csr::from_disjoint(&[&a, &empty, &b]),
            Csr::from_graph(&union)
        );
    }

    #[test]
    fn csr_empty_graph() {
        let c = Csr::from_graph(&LabeledGraph::new());
        assert_eq!(c.num_nodes(), 0);
        assert_eq!(c.num_edges(), 0);
        assert_eq!(c.row_offsets(), &[0]);
    }

    #[test]
    fn csr_row_offsets_match_figure3_shape() {
        // Figure 3's G0: nodes 0..5 with edges per its column indices.
        let g =
            LabeledGraph::from_edges(&[0; 5], &[(0, 1), (0, 4), (1, 2), (1, 3), (2, 3), (3, 4)])
                .unwrap();
        let c = Csr::from_graph(&g);
        assert_eq!(c.row_offsets(), &[0, 2, 5, 7, 10, 12]);
        assert_eq!(c.neighbors(1), &[0, 2, 3]);
    }

    #[test]
    fn memory_bytes_counts_all_arrays() {
        let c = Csr::from_graph(&sample());
        // 5 row offsets * 4 + 8 cols * 4 + 8 edge labels + 4 node labels.
        assert_eq!(c.memory_bytes(), 5 * 4 + 8 * 4 + 8 + 4);
    }
}
