//! Labeled-graph substrate for batched subgraph isomorphism.
//!
//! This crate provides the graph data structures the SIGMo pipeline is built
//! on:
//!
//! * [`LabeledGraph`] — a simple, undirected, node- and edge-labeled graph
//!   with an adjacency-list builder API;
//! * [`Csr`] — the classic Compressed Sparse Row encoding of a single graph;
//! * [`CsrGo`] — CSR extended with a *graph offsets* layer so that many
//!   disconnected graphs (a whole molecule batch) live in one contiguous
//!   structure without losing per-graph boundaries (paper §4.1, Figure 3);
//! * BFS utilities with reusable frontiers and ring-at-distance-`k`
//!   iteration, which back the incremental signature refinement of the
//!   filter phase (paper §4.4).
//!
//! Node labels are small integers (`Label`); in the molecular domain they
//! identify chemical elements. Edge labels (`EdgeLabel`) encode bond kinds.

pub mod bfs;
pub mod csr;
pub mod csrgo;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod predicate;

pub use bfs::{Bfs, RingIter};
pub use csr::Csr;
pub use csrgo::CsrGo;
pub use generators::{
    random_callgraph, random_connected_subgraph, random_sparse_graph, random_tree, XorShift,
};
pub use graph::{
    EdgeLabel, GraphError, Label, LabeledGraph, NodeId, WILDCARD_EDGE, WILDCARD_LABEL,
};
pub use metrics::{connected_components, diameter, eccentricity, is_connected};
pub use predicate::{
    reference_min_ring_sizes, Adjacency, NodeAttrs, NodePredicate, PackedPredicate, RingScratch,
    H_LABEL,
};
