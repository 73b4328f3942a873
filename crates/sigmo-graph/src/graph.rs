//! Simple, undirected, labeled graphs with an adjacency-list builder API.

use crate::predicate::{NodeAttrs, NodePredicate};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Node identifier, local to a single [`LabeledGraph`] (or global within a
/// [`crate::CsrGo`] batch).
pub type NodeId = u32;

/// Node label. In the molecular domain this is an element code produced by
/// the `sigmo-mol` crate; the filter only requires labels to be small dense
/// integers so signature bit groups can be assigned per label.
pub type Label = u8;

/// Edge label (bond kind in the molecular domain).
pub type EdgeLabel = u8;

/// Wildcard node label: matches any data-node label. Used to implement the
/// paper's future-work extension (wildcard atoms) — see `sigmo-core`.
pub const WILDCARD_LABEL: Label = u8::MAX;

/// Wildcard edge label: matches any data-edge label (wildcard bonds).
pub const WILDCARD_EDGE: EdgeLabel = u8::MAX;

/// Errors produced when constructing or validating graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge endpoint referenced a node that does not exist.
    NodeOutOfRange { node: NodeId, len: usize },
    /// A self-loop was inserted; molecular graphs are simple.
    SelfLoop { node: NodeId },
    /// The same undirected edge was inserted twice.
    DuplicateEdge { a: NodeId, b: NodeId },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, len } => {
                write!(f, "node {node} out of range (graph has {len} nodes)")
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop on node {node}"),
            GraphError::DuplicateEdge { a, b } => write!(f, "duplicate edge ({a}, {b})"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Neighbour entries a node holds inline before its list spills to the
/// heap. Molecular graphs sit almost entirely at or under it: hydrogens,
/// halogens and carbons have degree ≤ 4, and only hypervalent S and P go
/// above.
const INLINE_NEIGHBORS: usize = 4;

/// One node's neighbour list, in insertion order: up to
/// [`INLINE_NEIGHBORS`] entries inside the node's slot, spilled to a heap
/// vector (keeping the order) from the next one on. Which form a list is
/// in follows from its length alone, and equality compares the entries,
/// never the form.
#[derive(Clone, Serialize, Deserialize)]
enum NeighborList {
    Inline {
        len: u8,
        slots: [(NodeId, EdgeLabel); INLINE_NEIGHBORS],
    },
    Spilled(Vec<(NodeId, EdgeLabel)>),
}

impl NeighborList {
    const EMPTY: Self = NeighborList::Inline {
        len: 0,
        slots: [(0, 0); INLINE_NEIGHBORS],
    };

    #[inline]
    fn as_slice(&self) -> &[(NodeId, EdgeLabel)] {
        match self {
            NeighborList::Inline { len, slots } => &slots[..*len as usize],
            NeighborList::Spilled(v) => v,
        }
    }

    fn push_entry(&mut self, entry: (NodeId, EdgeLabel)) {
        match self {
            NeighborList::Inline { len, slots } if (*len as usize) < INLINE_NEIGHBORS => {
                slots[*len as usize] = entry;
                *len += 1;
            }
            NeighborList::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_NEIGHBORS);
                spilled.extend_from_slice(slots);
                spilled.push(entry);
                *self = NeighborList::Spilled(spilled);
            }
            NeighborList::Spilled(v) => v.push(entry),
        }
    }
}

impl PartialEq for NeighborList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for NeighborList {}

impl fmt::Debug for NeighborList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// A simple, finite, undirected, node- and edge-labeled graph.
///
/// The representation is one neighbour list per node, each entry a
/// neighbour with its edge label; it is the mutable "builder" form that
/// gets frozen into [`crate::Csr`] or batched into [`crate::CsrGo`] for the
/// GPU-style kernels. A node's first four entries live inline in its slot,
/// so building, cloning and dropping a molecular graph costs a handful of
/// allocations rather than one per atom.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabeledGraph {
    labels: Vec<Label>,
    adj: Vec<NeighborList>,
    num_edges: usize,
    /// Nonzero formal charges, sparse and sorted by node id. Uncharged
    /// graphs carry an empty vector, so equality and hashing of graphs
    /// built before charges existed are unchanged.
    #[serde(default)]
    charges: Vec<(NodeId, i8)>,
    /// Per-node query predicates, sparse and sorted by node id. Only query
    /// graphs compiled from SMARTS carry these; data graphs never do.
    #[serde(default)]
    preds: Vec<(NodeId, NodePredicate)>,
}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes all carrying the same label and no
    /// edges.
    pub fn with_uniform_labels(n: usize, label: Label) -> Self {
        Self {
            labels: vec![label; n],
            adj: vec![NeighborList::EMPTY; n],
            num_edges: 0,
            charges: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Creates a graph from a label slice and an edge list (unlabeled edges
    /// get edge label 0). Convenience for tests and examples.
    pub fn from_edges(labels: &[Label], edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut g = Self::new();
        for &l in labels {
            g.add_node(l);
        }
        for &(a, b) in edges {
            g.add_edge(a, b, 0)?;
        }
        Ok(g)
    }

    /// Reserves room for `additional` more nodes.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.labels.reserve(additional);
        self.adj.reserve(additional);
    }

    /// Adds a node with the given label, returning its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = self.labels.len() as NodeId;
        self.labels.push(label);
        self.adj.push(NeighborList::EMPTY);
        id
    }

    /// Sets node `v`'s formal charge. Zero (the default) removes the
    /// entry, so an explicitly neutralized graph equals a never-charged
    /// one.
    pub fn set_charge(&mut self, v: NodeId, charge: i8) {
        debug_assert!((v as usize) < self.labels.len());
        match self.charges.binary_search_by_key(&v, |&(n, _)| n) {
            Ok(i) if charge == 0 => {
                self.charges.remove(i);
            }
            Ok(i) => self.charges[i].1 = charge,
            Err(_) if charge == 0 => {}
            Err(i) => self.charges.insert(i, (v, charge)),
        }
    }

    /// Node `v`'s formal charge (0 unless set).
    pub fn charge(&self, v: NodeId) -> i8 {
        self.charges
            .binary_search_by_key(&v, |&(n, _)| n)
            .map(|i| self.charges[i].1)
            .unwrap_or(0)
    }

    /// The sparse nonzero-charge table, sorted by node id.
    pub fn charges(&self) -> &[(NodeId, i8)] {
        &self.charges
    }

    /// True when any node carries a nonzero formal charge.
    pub fn has_charges(&self) -> bool {
        !self.charges.is_empty()
    }

    /// Attaches a query predicate to node `v` (replacing any existing
    /// one). Trivial predicates remove the entry instead of storing an
    /// always-true constraint.
    pub fn set_predicate(&mut self, v: NodeId, pred: NodePredicate) {
        debug_assert!((v as usize) < self.labels.len());
        match self.preds.binary_search_by_key(&v, |(n, _)| *n) {
            Ok(i) if pred.is_trivial() => {
                self.preds.remove(i);
            }
            Ok(i) => self.preds[i].1 = pred,
            Err(_) if pred.is_trivial() => {}
            Err(i) => self.preds.insert(i, (v, pred)),
        }
    }

    /// The predicate attached to node `v`, if any.
    pub fn predicate(&self, v: NodeId) -> Option<&NodePredicate> {
        self.preds
            .binary_search_by_key(&v, |(n, _)| *n)
            .ok()
            .map(|i| &self.preds[i].1)
    }

    /// The sparse predicate table, sorted by node id.
    pub fn predicates(&self) -> &[(NodeId, NodePredicate)] {
        &self.preds
    }

    /// True when any node carries a predicate.
    pub fn has_predicates(&self) -> bool {
        !self.preds.is_empty()
    }

    /// Per-node attributes (degree, H-neighbor count, charge, smallest
    /// ring) for predicate evaluation — see [`NodeAttrs`].
    pub fn node_attrs(&self) -> NodeAttrs {
        let charges: Vec<i8> = (0..self.labels.len() as NodeId)
            .map(|v| self.charge(v))
            .collect();
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut targets = Vec::with_capacity(2 * self.num_edges);
        offsets.push(0u32);
        for nbrs in &self.adj {
            targets.extend(nbrs.as_slice().iter().map(|&(u, _)| u));
            offsets.push(targets.len() as u32);
        }
        NodeAttrs::build(&self.labels, &charges, &offsets, &targets)
    }

    /// Adds an undirected labeled edge. Fails on self-loops, duplicate
    /// edges, and out-of-range endpoints (the graph stays simple).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, label: EdgeLabel) -> Result<(), GraphError> {
        let n = self.labels.len();
        if (a as usize) >= n {
            return Err(GraphError::NodeOutOfRange { node: a, len: n });
        }
        if (b as usize) >= n {
            return Err(GraphError::NodeOutOfRange { node: b, len: n });
        }
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        if self.neighbors(a).iter().any(|&(v, _)| v == b) {
            return Err(GraphError::DuplicateEdge { a, b });
        }
        self.adj[a as usize].push_entry((b, label));
        self.adj[b as usize].push_entry((a, label));
        self.num_edges += 1;
        Ok(())
    }

    /// Adds a node with label `label` joined to `parent` by an edge
    /// labeled `edge`, returning the new node's id: [`Self::add_node`]
    /// then [`Self::add_edge`], without the duplicate-edge scan a fresh
    /// node cannot need. Fails, adding nothing, when `parent` is out of
    /// range.
    pub fn add_leaf(
        &mut self,
        parent: NodeId,
        label: Label,
        edge: EdgeLabel,
    ) -> Result<NodeId, GraphError> {
        let n = self.labels.len();
        if (parent as usize) >= n {
            return Err(GraphError::NodeOutOfRange {
                node: parent,
                len: n,
            });
        }
        let id = self.add_node(label);
        self.adj[parent as usize].push_entry((id, edge));
        self.adj[id as usize].push_entry((parent, edge));
        self.num_edges += 1;
        Ok(id)
    }

    /// Number of nodes (`n` in the paper's notation).
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges (`m`).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Returns true when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of node `v`.
    pub fn label(&self, v: NodeId) -> Label {
        self.labels[v as usize]
    }

    /// All node labels in node-id order.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj
            .iter()
            .map(|nbrs| nbrs.as_slice().len())
            .max()
            .unwrap_or(0)
    }

    /// Neighbors of `v` with edge labels.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeLabel)] {
        self.adj[v as usize].as_slice()
    }

    /// Returns the label of edge `(a, b)` if present.
    pub fn edge_label(&self, a: NodeId, b: NodeId) -> Option<EdgeLabel> {
        self.neighbors(a)
            .iter()
            .find(|&&(v, _)| v == b)
            .map(|&(_, l)| l)
    }

    /// Tests whether the undirected edge `(a, b)` exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.edge_label(a, b).is_some()
    }

    /// Iterator over all undirected edges as `(a, b, label)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, EdgeLabel)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, nbrs)| {
            let a = a as NodeId;
            nbrs.as_slice()
                .iter()
                .filter(move |&&(b, _)| a < b)
                .map(move |&(b, l)| (a, b, l))
        })
    }

    /// Sparsity of the graph: `1 - m / (n(n-1)/2)`. Molecular graphs are
    /// ≥ 95% sparse (paper §3).
    pub fn sparsity(&self) -> f64 {
        let n = self.num_nodes() as f64;
        if n < 2.0 {
            return 1.0;
        }
        1.0 - (self.num_edges as f64) / (n * (n - 1.0) / 2.0)
    }

    /// The subgraph induced by `nodes`, relabeling nodes to `0..nodes.len()`
    /// in the order given. Duplicate entries in `nodes` are not allowed.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> LabeledGraph {
        let mut map = vec![u32::MAX; self.num_nodes()];
        let mut g = LabeledGraph::new();
        for (i, &v) in nodes.iter().enumerate() {
            debug_assert_eq!(map[v as usize], u32::MAX, "duplicate node in induced set");
            map[v as usize] = i as u32;
            let nv = g.add_node(self.label(v));
            g.set_charge(nv, self.charge(v));
            if let Some(p) = self.predicate(v) {
                g.set_predicate(nv, p.clone());
            }
        }
        for &v in nodes {
            let nv = map[v as usize];
            for &(u, l) in self.neighbors(v) {
                let nu = map[u as usize];
                if nu != u32::MAX && nv < nu {
                    g.add_edge(nv, nu, l).expect("induced edge must be valid");
                }
            }
        }
        g
    }

    /// Checks that a candidate mapping `f: query node -> data node` (this
    /// graph is the data graph) is a valid embedding of `query`:
    /// label-preserving, injective, edge-preserving with matching edge
    /// labels, and satisfying every query-node [`NodePredicate`]. Wildcard
    /// labels on the query side match anything. Raw formal charges are
    /// *not* a matching constraint — only an explicit charge predicate is.
    ///
    /// This is the reference validity predicate used by tests and property
    /// checks; engines must only ever report mappings for which this holds.
    pub fn is_valid_embedding(&self, query: &LabeledGraph, f: &[NodeId]) -> bool {
        if f.len() != query.num_nodes() {
            return false;
        }
        // Injectivity + label preservation.
        let mut seen = vec![false; self.num_nodes()];
        for (q, &d) in f.iter().enumerate() {
            if (d as usize) >= self.num_nodes() || seen[d as usize] {
                return false;
            }
            seen[d as usize] = true;
            let ql = query.label(q as NodeId);
            if ql != WILDCARD_LABEL && ql != self.label(d) {
                return false;
            }
        }
        // Node predicates, evaluated against this graph's attribute table.
        if query.has_predicates() {
            let attrs = self.node_attrs();
            for (q, pred) in query.predicates() {
                if !pred.matches(&attrs, f[*q as usize]) {
                    return false;
                }
            }
        }
        // Edge preservation with edge labels.
        for (a, b, l) in query.edges() {
            match self.edge_label(f[a as usize], f[b as usize]) {
                Some(dl) => {
                    if l != WILDCARD_EDGE && l != dl {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> LabeledGraph {
        LabeledGraph::from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn build_and_query_basic() {
        let g = path3();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.label(1), 1);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn rejects_self_loop() {
        let mut g = LabeledGraph::with_uniform_labels(2, 0);
        assert_eq!(g.add_edge(0, 0, 0), Err(GraphError::SelfLoop { node: 0 }));
    }

    #[test]
    fn rejects_duplicate_edge_both_orientations() {
        let mut g = LabeledGraph::with_uniform_labels(2, 0);
        g.add_edge(0, 1, 0).unwrap();
        assert_eq!(
            g.add_edge(0, 1, 0),
            Err(GraphError::DuplicateEdge { a: 0, b: 1 })
        );
        assert_eq!(
            g.add_edge(1, 0, 1),
            Err(GraphError::DuplicateEdge { a: 1, b: 0 })
        );
    }

    #[test]
    fn rejects_out_of_range_endpoint() {
        let mut g = LabeledGraph::with_uniform_labels(2, 0);
        assert_eq!(
            g.add_edge(0, 5, 0),
            Err(GraphError::NodeOutOfRange { node: 5, len: 2 })
        );
    }

    #[test]
    fn edge_labels_are_preserved_symmetrically() {
        let mut g = LabeledGraph::with_uniform_labels(3, 0);
        g.add_edge(0, 1, 2).unwrap();
        g.add_edge(1, 2, 1).unwrap();
        assert_eq!(g.edge_label(0, 1), Some(2));
        assert_eq!(g.edge_label(1, 0), Some(2));
        assert_eq!(g.edge_label(2, 1), Some(1));
        assert_eq!(g.edge_label(0, 2), None);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let g = path3();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 0), (1, 2, 0)]);
    }

    #[test]
    fn sparsity_of_small_graphs() {
        let g = path3();
        // 2 edges out of 3 possible.
        assert!((g.sparsity() - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
        let empty = LabeledGraph::new();
        assert_eq!(empty.sparsity(), 1.0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Triangle 0-1-2 plus pendant 3.
        let mut g = LabeledGraph::from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (0, 2)]).unwrap();
        g.add_edge(2, 3, 0).unwrap();
        let sub = g.induced_subgraph(&[0, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2); // (0,2) and (2,3)
        assert_eq!(sub.labels(), &[0, 2, 3]);
        assert!(sub.has_edge(0, 1)); // old (0,2)
        assert!(sub.has_edge(1, 2)); // old (2,3)
        assert!(!sub.has_edge(0, 2));
    }

    #[test]
    fn valid_embedding_accepts_identity() {
        let g = path3();
        assert!(g.is_valid_embedding(&g, &[0, 1, 2]));
    }

    #[test]
    fn valid_embedding_rejects_label_mismatch() {
        let g = path3();
        let q = LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap();
        assert!(!g.is_valid_embedding(&q, &[0, 1]));
    }

    #[test]
    fn valid_embedding_rejects_non_injective() {
        let g = path3();
        let q = LabeledGraph::from_edges(&[0, 0], &[]).unwrap();
        assert!(!g.is_valid_embedding(&q, &[0, 0]));
    }

    #[test]
    fn valid_embedding_rejects_missing_edge() {
        let g = path3();
        let q = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]).unwrap();
        assert!(!g.is_valid_embedding(&q, &[0, 2]));
    }

    #[test]
    fn wildcard_label_matches_any_node() {
        let g = path3();
        let q = LabeledGraph::from_edges(&[WILDCARD_LABEL, WILDCARD_LABEL], &[(0, 1)]).unwrap();
        assert!(g.is_valid_embedding(&q, &[0, 1]));
        assert!(g.is_valid_embedding(&q, &[2, 1]));
    }

    #[test]
    fn wildcard_edge_matches_any_bond() {
        let mut g = LabeledGraph::with_uniform_labels(2, 0);
        g.add_edge(0, 1, 3).unwrap();
        let mut q = LabeledGraph::with_uniform_labels(2, 0);
        q.add_edge(0, 1, WILDCARD_EDGE).unwrap();
        assert!(g.is_valid_embedding(&q, &[0, 1]));
        let mut q2 = LabeledGraph::with_uniform_labels(2, 0);
        q2.add_edge(0, 1, 1).unwrap();
        assert!(!g.is_valid_embedding(&q2, &[0, 1]));
    }
}
