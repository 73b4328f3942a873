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
use std::ops::Range;

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

    /// Whether the predicate tests ring membership or ring size — the
    /// only fields that need ring perception on the data side.
    pub fn reads_rings(&self) -> bool {
        self.ring.is_some() || self.ring_size.is_some()
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
    /// Every field above packed into one word per node
    /// ([`PackedPredicate`] reads it): label, degree, H count, charge, min
    /// ring and a ring-membership bit.
    pub packed: Vec<u64>,
}

impl NodeAttrs {
    /// Builds the table from label/charge slices and a CSR adjacency: the
    /// neighbors of `v` are `targets[offsets[v]..offsets[v + 1]]`. The
    /// adjacency must be symmetric and simple (no self-loops, no repeated
    /// neighbor).
    pub fn build(labels: &[Label], charges: &[i8], offsets: &[u32], targets: &[NodeId]) -> Self {
        let n = labels.len();
        debug_assert_eq!(charges.len(), n);
        let sparse: Vec<(NodeId, i8)> = (0..n as NodeId)
            .zip(charges)
            .filter(|&(_, &c)| c != 0)
            .map(|(v, &c)| (v, c))
            .collect();
        let mut out = Self::zeroed(n);
        let adj = Adjacency { offsets, targets };
        out.write_rows(
            &adj,
            labels,
            &sparse,
            0..n,
            Some(&mut RingScratch::default()),
        );
        out
    }

    /// An all-zero table for `n` nodes, for [`NodeAttrs::write_rows`] to write
    /// in place.
    pub fn zeroed(n: usize) -> Self {
        Self {
            labels: vec![0; n],
            degree: vec![0; n],
            h_count: vec![0; n],
            charge: vec![0; n],
            min_ring: vec![0; n],
            packed: vec![0; n],
        }
    }

    /// Writes the attributes of the nodes in `range` in place. `range`
    /// must be closed under adjacency (whole graphs of a batch: no edge
    /// leaves it); `labels` and `charges` (sparse, sorted by node) are the
    /// batch's. Ring sizes are computed when `rings` holds scratch and
    /// left 0 otherwise — for runs no predicate of which reads a ring.
    pub fn write_rows(
        &mut self,
        adj: &Adjacency,
        labels: &[Label],
        charges: &[(NodeId, i8)],
        range: Range<usize>,
        rings: Option<&mut RingScratch>,
    ) {
        for v in range.clone() {
            let nbrs = adj.nbrs(v);
            self.labels[v] = labels[v];
            self.degree[v] = nbrs.len() as u32;
            self.h_count[v] = nbrs
                .iter()
                .filter(|&&u| labels[u as usize] == H_LABEL)
                .count() as u32;
            self.charge[v] = 0;
            self.min_ring[v] = 0;
        }
        let first = charges.partition_point(|&(v, _)| (v as usize) < range.start);
        for &(v, c) in charges[first..]
            .iter()
            .take_while(|&&(v, _)| (v as usize) < range.end)
        {
            self.charge[v as usize] = c;
        }
        if let Some(scratch) = rings {
            scratch.min_ring_sizes(adj, range.clone(), &mut self.min_ring);
        }
        for v in range {
            self.packed[v] = pack(
                self.labels[v],
                self.degree[v],
                self.h_count[v],
                self.charge[v],
                self.min_ring[v],
            );
        }
    }
}

/// Width of the packed degree, H-count and min-ring fields. A count that
/// does not fit saturates to the field's all-ones value, which no `u8`
/// predicate bound equals, so saturation never changes a verdict.
const FIELD_BITS: u32 = 12;
const FIELD_MAX: u32 = (1 << FIELD_BITS) - 1;
const DEGREE_SHIFT: u32 = 8;
const H_SHIFT: u32 = DEGREE_SHIFT + FIELD_BITS;
const CHARGE_SHIFT: u32 = H_SHIFT + FIELD_BITS;
const RING_SHIFT: u32 = CHARGE_SHIFT + 8;
const IN_RING_BIT: u64 = 1 << (RING_SHIFT + FIELD_BITS);

/// One node's [`NodeAttrs::packed`] word.
fn pack(label: Label, degree: u32, h_count: u32, charge: i8, min_ring: u32) -> u64 {
    let field = |x: u32| u64::from(x.min(FIELD_MAX));
    u64::from(label)
        | field(degree) << DEGREE_SHIFT
        | field(h_count) << H_SHIFT
        | u64::from(charge as u8) << CHARGE_SHIFT
        | field(min_ring) << RING_SHIFT
        | if min_ring > 0 { IN_RING_BIT } else { 0 }
}

/// A [`NodePredicate`] compiled against [`NodeAttrs::packed`]: the label
/// list as a bit set, every other field as one mask-and-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedPredicate {
    /// Allowed labels (bit `l` = label `l`); `None` allows every label.
    labels: Option<u64>,
    /// The packed fields the predicate constrains.
    mask: u64,
    /// Their required values.
    want: u64,
}

impl PackedPredicate {
    /// Compiles `pred`.
    pub fn compile(pred: &NodePredicate) -> Self {
        let mut mask = 0u64;
        let mut want = 0u64;
        let mut field = |shift: u32, width: u32, value: u64| {
            let m = ((1u64 << width) - 1) << shift;
            mask |= m;
            want |= (value << shift) & m;
        };
        if let Some(d) = pred.degree {
            field(DEGREE_SHIFT, FIELD_BITS, u64::from(d));
        }
        if let Some(h) = pred.h_count {
            field(H_SHIFT, FIELD_BITS, u64::from(h));
        }
        if let Some(c) = pred.charge {
            field(CHARGE_SHIFT, 8, u64::from(c as u8));
        }
        if let Some(size) = pred.ring_size {
            field(RING_SHIFT, FIELD_BITS, u64::from(size));
        }
        if let Some(in_ring) = pred.ring {
            mask |= IN_RING_BIT;
            want |= if in_ring { IN_RING_BIT } else { 0 };
        }
        Self {
            labels: pred.label_any,
            mask,
            want,
        }
    }

    /// [`NodePredicate::matches`] on a node's packed word.
    #[inline]
    pub fn matches(&self, packed: u64) -> bool {
        let label = packed & 0xff;
        let label_ok = self
            .labels
            .is_none_or(|m| label < 64 && m >> label & 1 == 1);
        label_ok && packed & self.mask == self.want
    }
}

/// A borrowed CSR adjacency: the neighbors of `v` are
/// `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, Copy)]
pub struct Adjacency<'a> {
    /// Row offsets, one per node plus one.
    pub offsets: &'a [u32],
    /// Neighbor ids.
    pub targets: &'a [NodeId],
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

/// Ring-size scratch, reused across the graphs of a batch (every buffer
/// is indexed by node id and reset only where a graph touched it).
#[derive(Debug, Default)]
pub struct RingScratch {
    /// Remaining degree while pendant trees are peeled.
    deg: Vec<u32>,
    /// `core[v]`: `v` survived the peel (lies in the graph's 2-core).
    core: Vec<bool>,
    /// `seen[v]`: `v`'s 2-edge-connected component was collected, into
    /// `members`.
    seen: Vec<bool>,
    members: Vec<usize>,
    /// Nodes waiting to be peeled, then the DFS frames of (node, index of
    /// its next neighbor to scan).
    stack: Vec<(usize, usize)>,
    /// DFS discovery time (0 = unvisited), low-link and parent.
    disc: Vec<u32>,
    low: Vec<u32>,
    parent: Vec<NodeId>,
    /// `true` when the tree edge from `v` up to `parent[v]` is a bridge.
    bridge_up: Vec<bool>,
    /// BFS distances (`u32::MAX` = unreached), the neighbour of the BFS
    /// root each reached node hangs from, the nodes a BFS reached, and
    /// its queue.
    dist: Vec<u32>,
    branch: Vec<usize>,
    touched: Vec<usize>,
    queue: std::collections::VecDeque<usize>,
}

impl RingScratch {
    /// Smallest cycle through each node of `range` (closed under
    /// adjacency) into `out[v]`, on the 2-core only:
    ///
    /// * pendant trees are peeled first (nodes of degree ≤ 1, repeatedly):
    ///   no cycle passes through a peeled node, and in molecules every
    ///   hydrogen goes here;
    /// * a bridge of the core lies on no cycle, so the BFS never walks one;
    /// * a 2-edge-connected component (the core without its bridges) with
    ///   as many edges as nodes is one simple cycle, the smallest ring of
    ///   each of its nodes — no BFS;
    /// * in any other component one BFS per node finds its smallest cycle,
    ///   stopping once its
    ///   frontier can no longer close a shorter one, and resets only the
    ///   nodes it touched.
    ///
    /// Exactly [`reference_min_ring_sizes`], the per-edge-BFS definition.
    fn min_ring_sizes(&mut self, adj: &Adjacency, range: Range<usize>, out: &mut [u32]) {
        let n = adj.len();
        if self.core.len() < n {
            self.deg.resize(n, 0);
            self.core.resize(n, false);
            self.seen.resize(n, false);
            self.disc.resize(n, 0);
            self.low.resize(n, 0);
            self.parent.resize(n, NodeId::MAX);
            self.bridge_up.resize(n, false);
            self.dist.resize(n, u32::MAX);
            self.branch.resize(n, 0);
        }
        self.stack.clear();
        for v in range.clone() {
            self.deg[v] = adj.nbrs(v).len() as u32;
            self.core[v] = true;
            if self.deg[v] <= 1 {
                self.stack.push((v, 0));
            }
        }
        while let Some((v, _)) = self.stack.pop() {
            if !self.core[v] {
                continue;
            }
            self.core[v] = false;
            for &u in adj.nbrs(v) {
                let u = u as usize;
                if self.core[u] {
                    self.deg[u] -= 1;
                    if self.deg[u] == 1 {
                        self.stack.push((u, 0));
                    }
                }
            }
        }
        self.bridges(adj, range.clone());
        for v in range.clone() {
            if !self.core[v] || self.seen[v] {
                continue;
            }
            // The 2-edge-connected component of `v`: a simple cycle when
            // it has as many edges as nodes, every node's smallest ring
            // then being the cycle itself.
            self.members.clear();
            self.members.push(v);
            self.seen[v] = true;
            let mut ends = 0usize;
            let mut i = 0;
            while let Some(&x) = self.members.get(i) {
                i += 1;
                for &y in adj.nbrs(x) {
                    let y = y as usize;
                    if !self.core[y] || self.is_bridge(x, y) {
                        continue;
                    }
                    ends += 1;
                    if !self.seen[y] {
                        self.seen[y] = true;
                        self.members.push(y);
                    }
                }
            }
            let members = std::mem::take(&mut self.members);
            if ends / 2 == members.len() {
                for &x in &members {
                    out[x] = members.len() as u32;
                }
            } else {
                for &x in &members {
                    out[x] = self.ring_through(adj, x);
                }
            }
            self.members = members;
        }
        for v in range {
            self.core[v] = false;
            self.seen[v] = false;
            self.disc[v] = 0;
        }
    }

    /// Marks the bridges of the core of `range` (`parent`, `bridge_up`),
    /// from one iterative low-link DFS: edge `(x, y)` is a bridge iff it
    /// is a DFS tree edge whose child side has no back edge reaching above
    /// it.
    fn bridges(&mut self, adj: &Adjacency, range: Range<usize>) {
        let mut time = 0u32;
        for root in range {
            if !self.core[root] || self.disc[root] != 0 {
                continue;
            }
            time += 1;
            self.disc[root] = time;
            self.low[root] = time;
            self.parent[root] = NodeId::MAX;
            self.bridge_up[root] = false;
            self.stack.push((root, 0));
            while let Some(frame) = self.stack.last_mut() {
                let (v, next) = *frame;
                if let Some(&w) = adj.nbrs(v).get(next) {
                    frame.1 += 1;
                    let w = w as usize;
                    if !self.core[w] {
                        continue;
                    }
                    if self.disc[w] == 0 {
                        time += 1;
                        self.disc[w] = time;
                        self.low[w] = time;
                        self.parent[w] = v as NodeId;
                        self.bridge_up[w] = false;
                        self.stack.push((w, 0));
                    } else if w as NodeId != self.parent[v] {
                        // Simple graph: the one edge back to the parent
                        // is the tree edge itself, not a back edge.
                        self.low[v] = self.low[v].min(self.disc[w]);
                    }
                } else {
                    self.stack.pop();
                    if let Some(&(p, _)) = self.stack.last() {
                        self.low[p] = self.low[p].min(self.low[v]);
                        self.bridge_up[v] = self.low[v] > self.disc[p];
                    }
                }
            }
        }
    }

    /// Whether core edge `(x, y)` is a bridge.
    #[inline]
    fn is_bridge(&self, x: usize, y: usize) -> bool {
        (self.parent[y] == x as NodeId && self.bridge_up[y])
            || (self.parent[x] == y as NodeId && self.bridge_up[x])
    }

    /// Smallest cycle through core node `v`, 0 when none, from one BFS
    /// of the core from `v` that never walks a bridge. Each node reached
    /// carries the branch it hangs from (the neighbour of `v` it was
    /// reached through). A non-tree edge `(x, y)` between two branches
    /// closes the simple cycle `v → x, y → v` of length
    /// `dist[x] + dist[y] + 1`, and the smallest cycle through `v` is the
    /// shortest such edge: along that cycle the branch changes at some
    /// edge, whose two ends are no further from `v` than the cycle walks.
    /// Edges from level `d` close cycles of at least `2d + 1` (every edge
    /// down to level `d − 1` was seen from there), so the BFS stops there.
    fn ring_through(&mut self, adj: &Adjacency, v: usize) -> u32 {
        let mut best = u32::MAX;
        self.dist[v] = 0;
        self.touched.push(v);
        self.queue.push_back(v);
        while let Some(x) = self.queue.pop_front() {
            let d = self.dist[x];
            if (2 * d).saturating_add(1) >= best {
                break;
            }
            for &y in adj.nbrs(x) {
                let y = y as usize;
                if !self.core[y] || self.is_bridge(x, y) {
                    continue; // off the core, or on no cycle
                }
                if self.dist[y] == u32::MAX {
                    self.dist[y] = d + 1;
                    self.branch[y] = if x == v { y } else { self.branch[x] };
                    self.touched.push(y);
                    self.queue.push_back(y);
                } else if x != v && y != v && self.branch[x] != self.branch[y] {
                    best = best.min(d + self.dist[y] + 1);
                }
            }
        }
        self.queue.clear();
        for t in self.touched.drain(..) {
            self.dist[t] = u32::MAX;
        }
        if best == u32::MAX {
            0
        } else {
            best
        }
    }
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
        assert!(attrs.min_ring.contains(&8));
        assert!(attrs.min_ring.contains(&0));
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
    fn core_peeled_rings_match_reference_with_pendants_and_small_parts() {
        // A 5-ring with a pendant chain of four and a branching tree on
        // it; a 2-node component; isolated nodes; a triangle whose pendant
        // chain ends in another triangle (the chain between them is core,
        // and bridged); and a single-edge graph.
        let mut g = LabeledGraph::new();
        let a = add_cycle(&mut g, 5);
        let mut at = a;
        for _ in 0..4 {
            let x = g.add_node(2);
            g.add_edge(at, x, 0).unwrap();
            at = x;
        }
        for _ in 0..3 {
            let h = g.add_node(H_LABEL);
            g.add_edge(at, h, 0).unwrap();
        }
        let (p, q) = (g.add_node(1), g.add_node(1));
        g.add_edge(p, q, 0).unwrap();
        g.add_node(1);
        g.add_node(H_LABEL);
        let t1 = add_cycle(&mut g, 3);
        let mid = g.add_node(2);
        g.add_edge(t1, mid, 0).unwrap();
        let t2 = add_cycle(&mut g, 3);
        g.add_edge(mid, t2, 0).unwrap();
        let attrs = g.node_attrs();
        assert_eq!(
            attrs.min_ring[mid as usize], 0,
            "a bridge path lies on no ring"
        );
        assert_eq!(attrs.min_ring[a as usize], 5);
        let edge = LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap();
        assert_rings_match_reference(&[g, edge, LabeledGraph::new()], "pendants and small parts");
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
