//! Masked-bitset vertex signatures and their iterative refinement.
//!
//! A signature encodes, per label, how many nodes carry that label within
//! radius `r` of the owner (excluding the owner itself). The filter's
//! domination test (`query ⊑ data`, per-group `≤`) is the necessary
//! condition of Definition 2.1 lifted to neighborhoods.
//!
//! [`SignatureSet`] maintains signatures for every node of a batch and
//! refines them incrementally: the BFS frontier of every node is cached
//! between iterations (paper §4.4), so iteration `k` only visits the ring
//! `N^k \ N^{k-1}` and adds exactly those labels. The engine, the plans
//! and the index read signatures from [`crate::BatchFacts`] instead;
//! `SignatureSet` is the per-batch oracle the tests hold them to.

use crate::schema::LabelSchema;
use rayon::prelude::*;
use sigmo_graph::{CsrGo, Label, NodeId, WILDCARD_LABEL};

/// A 64-bit masked-bitset signature (paper §4.2).
///
/// ```
/// use sigmo_core::{LabelSchema, Signature};
/// let schema = LabelSchema::organic();
/// let mut query = Signature::EMPTY;
/// query.add(&schema, 1, 2); // needs two carbon neighbors
/// let mut data = Signature::EMPTY;
/// data.add(&schema, 1, 3); // has three
/// data.add(&schema, 0, 1); // plus a hydrogen
/// assert!(data.dominates(&schema, &query));
/// assert!(!query.dominates(&schema, &data));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Signature(pub u64);

impl Signature {
    /// The all-zero signature.
    pub const EMPTY: Signature = Signature(0);

    /// Adds `count` occurrences of `label`, saturating the label's bit
    /// group ("the group remains unchanged" on overflow, §4.2 — we saturate
    /// to the maximum, which preserves filter soundness the same way).
    #[inline]
    pub fn add(&mut self, schema: &LabelSchema, label: Label, count: u64) {
        let g = schema.group(label);
        let cur = (self.0 >> g.shift) & g.max_count();
        let new = (cur + count).min(g.max_count());
        self.0 = (self.0 & !g.mask()) | (new << g.shift);
    }

    /// The stored (possibly saturated) count for `label`.
    #[inline]
    pub fn count(&self, schema: &LabelSchema, label: Label) -> u64 {
        let g = schema.group(label);
        (self.0 >> g.shift) & g.max_count()
    }

    /// Domination test: `self` (data signature) dominates `query` iff for
    /// every label the stored query count is ≤ the stored data count.
    ///
    /// Saturation keeps this sound: both sides are clamped by the same
    /// per-group maximum, and `min(·, cap)` is monotone.
    #[inline]
    pub fn dominates(&self, schema: &LabelSchema, query: &Signature) -> bool {
        // Per-group compare. A SWAR trick (borrow-free subtraction) would
        // work for uniform groups; variable widths make the loop clearer
        // and the group count is small (|L| ≤ 12).
        for g in schema.groups() {
            if (query.0 & g.mask()) > (self.0 & g.mask()) {
                return false;
            }
        }
        true
    }

    /// Field-restricted domination: compares only the schema groups whose
    /// index bit is set in `group_mask`. NOT equivalent to [`dominates`]
    /// in general — it is exact only when the caller can prove the skipped
    /// fields already dominate. Two callers can: the delta refine kernel's
    /// monotonicity invariant (a bit that survived the previous radius
    /// keeps dominating every field whose query count did not move; see
    /// `DeltaClasses`), and the label-pair pre-check, which skips exactly
    /// the groups where the query count is zero (see `filter::PairRow`).
    /// Cost is ~2 instructions per set bit instead of one compare per
    /// schema group.
    ///
    /// [`dominates`]: Signature::dominates
    #[inline]
    pub fn dominates_groups(
        &self,
        schema: &LabelSchema,
        query: &Signature,
        mut group_mask: u64,
    ) -> bool {
        let groups = schema.groups();
        // sigmo-lint: allow(unbounded-kernel-loop) — clears one bit of
        // `group_mask` per pass: at most 64 iterations, no consult needed.
        while group_mask != 0 {
            let m = groups[group_mask.trailing_zeros() as usize].mask();
            if (query.0 & m) > (self.0 & m) {
                return false;
            }
            group_mask &= group_mask - 1;
        }
        true
    }

    /// Per-group maximum of two signatures: for every schema group the
    /// result stores `max(self, other)`. This is the join of the
    /// per-group domination order, so the result dominates a query
    /// signature whenever *either* input does — the accumulation rule
    /// behind `sigmo-index` molecule digests (a digest is the per-group
    /// max over a molecule's node signatures, and "digest fails to
    /// dominate" then proves *no* node dominates in some group).
    #[inline]
    pub fn max_groups(&self, schema: &LabelSchema, other: &Signature) -> Signature {
        let mut out = 0u64;
        for g in schema.groups() {
            out |= (self.0 & g.mask()).max(other.0 & g.mask());
        }
        Signature(out)
    }

    /// Bitmask (bit `i` = schema group `i`) of the groups whose stored
    /// count differs between `self` and `other` — the "fields that moved"
    /// input to [`Signature::dominates_groups`].
    pub fn diff_groups(&self, schema: &LabelSchema, other: &Signature) -> u64 {
        let x = self.0 ^ other.0;
        if x == 0 {
            return 0;
        }
        let mut mask = 0u64;
        for (i, g) in schema.groups().iter().enumerate() {
            if x & g.mask() != 0 {
                mask |= 1 << i;
            }
        }
        mask
    }
}

/// Per-node cached BFS state for incremental refinement.
#[derive(Debug, Clone)]
struct NodeFrontier {
    /// Nodes at distance exactly `radius` (global ids).
    ring: Vec<NodeId>,
    /// Visited bitset over the owning graph's *local* node ids.
    visited: Vec<u64>,
}

/// Signatures for every node of a batch, refined one radius step at a time
/// — the test oracle for [`crate::BatchFacts`].
pub struct SignatureSet {
    schema: LabelSchema,
    sigs: Vec<Signature>,
    frontiers: Vec<NodeFrontier>,
    radius: u32,
}

impl SignatureSet {
    /// Creates radius-0 signatures (all empty: a node sees nothing yet, not
    /// even itself — candidate initialization handles the own-label check).
    pub fn new(batch: &CsrGo, schema: LabelSchema) -> Self {
        let n = batch.num_nodes();
        let frontiers = (0..n as NodeId)
            .map(|v| {
                let g = batch.graph_of(v);
                let g_len = batch.graph_len(g);
                let base = batch.node_range(g).start;
                let mut visited = vec![0u64; g_len.div_ceil(64)];
                let local = (v - base) as usize;
                visited[local / 64] |= 1 << (local % 64);
                NodeFrontier {
                    ring: vec![v],
                    visited,
                }
            })
            .collect();
        Self {
            schema,
            sigs: vec![Signature::EMPTY; n],
            frontiers,
            radius: 0,
        }
    }

    /// Current radius (how far each node can "see").
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The signature of global node `v`.
    #[inline]
    pub fn signature(&self, v: NodeId) -> Signature {
        self.sigs[v as usize]
    }

    /// All signatures in node order.
    pub fn signatures(&self) -> &[Signature] {
        &self.sigs
    }

    /// The schema in use.
    pub fn schema(&self) -> &LabelSchema {
        &self.schema
    }

    /// Advances every node's signature by one radius step — the
    /// GenerateSignatures kernel of Algorithm 1. Returns the number of
    /// nodes whose ring was non-empty (converged nodes cost nothing, as the
    /// paper observes).
    ///
    /// `count_labels` decides whether a neighbor's label is accumulated:
    /// wildcard-labeled nodes (query-side extension) are skipped because
    /// they constrain nothing.
    pub fn advance(&mut self, batch: &CsrGo) -> usize {
        let schema = self.schema.clone();
        let next_radius = self.radius + 1;
        let active: usize = self
            .sigs
            .par_iter_mut()
            .zip(self.frontiers.par_iter_mut())
            .enumerate()
            .map(|(v, (sig, fr))| {
                if fr.ring.is_empty() {
                    return 0usize;
                }
                let v = v as NodeId;
                let g = batch.graph_of(v);
                let base = batch.node_range(g).start;
                let mut next_ring: Vec<NodeId> = Vec::new();
                for &u in &fr.ring {
                    for &w in batch.neighbors(u) {
                        let local = (w - base) as usize;
                        let word = local / 64;
                        let bit = 1u64 << (local % 64);
                        if fr.visited[word] & bit == 0 {
                            fr.visited[word] |= bit;
                            next_ring.push(w);
                            let l = batch.label(w);
                            if l != WILDCARD_LABEL {
                                sig.add(&schema, l, 1);
                            }
                        }
                    }
                }
                fr.ring = next_ring;
                1
            })
            .sum();
        self.radius = next_radius;
        active
    }

    /// Reference (non-incremental) signature computation used by tests:
    /// full BFS to `radius` from `v`, counting labels of all nodes at
    /// distance 1..=radius.
    pub fn reference_signature(
        batch: &CsrGo,
        schema: &LabelSchema,
        v: NodeId,
        radius: u32,
    ) -> Signature {
        let mut sig = Signature::EMPTY;
        let mut dist = vec![u32::MAX; batch.num_nodes()];
        let mut queue = std::collections::VecDeque::new();
        dist[v as usize] = 0;
        queue.push_back(v);
        while let Some(u) = queue.pop_front() {
            if dist[u as usize] >= radius {
                continue;
            }
            for &w in batch.neighbors(u) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[u as usize] + 1;
                    let l = batch.label(w);
                    if l != WILDCARD_LABEL {
                        sig.add(schema, l, 1);
                    }
                    queue.push_back(w);
                }
            }
        }
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_graph::LabeledGraph;

    fn schema() -> LabelSchema {
        LabelSchema::organic()
    }

    #[test]
    fn add_and_count_round_trip() {
        let s = schema();
        let mut sig = Signature::EMPTY;
        sig.add(&s, 0, 3);
        sig.add(&s, 1, 2);
        sig.add(&s, 11, 1);
        assert_eq!(sig.count(&s, 0), 3);
        assert_eq!(sig.count(&s, 1), 2);
        assert_eq!(sig.count(&s, 11), 1);
        assert_eq!(sig.count(&s, 5), 0);
    }

    #[test]
    fn saturation_clamps_at_group_max() {
        let s = schema();
        let cap = s.group(11).max_count();
        let mut sig = Signature::EMPTY;
        sig.add(&s, 11, cap + 10);
        assert_eq!(sig.count(&s, 11), cap);
        // Neighboring groups untouched.
        assert_eq!(sig.count(&s, 10), 0);
        sig.add(&s, 11, 1);
        assert_eq!(sig.count(&s, 11), cap, "stays saturated");
    }

    #[test]
    fn domination_basics() {
        let s = schema();
        let mut q = Signature::EMPTY;
        q.add(&s, 1, 2);
        let mut d = Signature::EMPTY;
        d.add(&s, 1, 3);
        d.add(&s, 0, 1);
        assert!(d.dominates(&s, &q));
        assert!(!q.dominates(&s, &d));
        assert!(d.dominates(&s, &Signature::EMPTY));
    }

    #[test]
    fn domination_is_per_label_not_total() {
        let s = schema();
        let mut q = Signature::EMPTY;
        q.add(&s, 2, 1); // one N
        let mut d = Signature::EMPTY;
        d.add(&s, 0, 10); // many H, zero N
        assert!(!d.dominates(&s, &q));
    }

    #[test]
    fn max_groups_is_the_domination_join() {
        let s = schema();
        let mut a = Signature::EMPTY;
        a.add(&s, 1, 3);
        a.add(&s, 2, 1);
        let mut b = Signature::EMPTY;
        b.add(&s, 1, 1);
        b.add(&s, 3, 2);
        let m = a.max_groups(&s, &b);
        assert_eq!(m.count(&s, 1), 3);
        assert_eq!(m.count(&s, 2), 1);
        assert_eq!(m.count(&s, 3), 2);
        // The join dominates whatever either input dominates.
        assert!(m.dominates(&s, &a));
        assert!(m.dominates(&s, &b));
        assert_eq!(
            Signature::EMPTY.max_groups(&s, &a),
            a,
            "EMPTY is the identity"
        );
    }

    #[test]
    fn saturation_preserves_soundness() {
        let s = schema();
        let cap = s.group(11).max_count();
        // True counts: query 100 ≤ data 200, both above cap.
        let mut q = Signature::EMPTY;
        q.add(&s, 11, 100);
        let mut d = Signature::EMPTY;
        d.add(&s, 11, 200);
        assert!(d.dominates(&s, &q), "saturated counts must still dominate");
        assert_eq!(q.count(&s, 11), cap);
    }

    fn star_batch() -> CsrGo {
        // Center C (label 1) with 3 H (0) and 1 O (3).
        let g =
            LabeledGraph::from_edges(&[1, 0, 0, 0, 3], &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
        CsrGo::from_graphs(&[g])
    }

    #[test]
    fn radius1_signature_counts_direct_neighbors() {
        let b = star_batch();
        let mut set = SignatureSet::new(&b, schema());
        assert_eq!(set.radius(), 0);
        assert_eq!(set.signature(0), Signature::EMPTY);
        set.advance(&b);
        assert_eq!(set.radius(), 1);
        let s = schema();
        let sig = set.signature(0);
        assert_eq!(sig.count(&s, 0), 3); // three H
        assert_eq!(sig.count(&s, 3), 1); // one O
        assert_eq!(sig.count(&s, 1), 0); // own label not counted
                                         // Leaves see only the center.
        assert_eq!(set.signature(1).count(&s, 1), 1);
    }

    #[test]
    fn radius2_signature_sees_siblings() {
        let b = star_batch();
        let mut set = SignatureSet::new(&b, schema());
        set.advance(&b);
        set.advance(&b);
        let s = schema();
        // An H leaf now sees the center C plus 2 H + 1 O siblings.
        let sig = set.signature(1);
        assert_eq!(sig.count(&s, 1), 1);
        assert_eq!(sig.count(&s, 0), 2);
        assert_eq!(sig.count(&s, 3), 1);
    }

    #[test]
    fn incremental_matches_reference_at_every_radius() {
        // A less regular molecule-ish graph.
        let g = LabeledGraph::from_edges(
            &[1, 1, 2, 3, 0, 0, 4],
            &[(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (2, 6), (3, 0)],
        )
        .unwrap();
        let b = CsrGo::from_graphs(&[g]);
        let s = schema();
        let mut set = SignatureSet::new(&b, s.clone());
        for r in 1..=4u32 {
            set.advance(&b);
            for v in 0..b.num_nodes() as NodeId {
                let reference = SignatureSet::reference_signature(&b, &s, v, r);
                assert_eq!(
                    set.signature(v),
                    reference,
                    "node {v} at radius {r}: incremental != reference"
                );
            }
        }
    }

    #[test]
    fn advance_reports_convergence() {
        let b = star_batch(); // leaf eccentricity 2
        let mut set = SignatureSet::new(&b, schema());
        assert_eq!(set.advance(&b), 5, "all nodes active at radius 1");
        // Radius 2: every node still holds a non-empty radius-1 ring at
        // entry; the leaves discover their siblings, the center drains.
        assert_eq!(set.advance(&b), 5);
        // Radius 3: the leaves' radius-2 rings are drained in this call.
        assert_eq!(set.advance(&b), 4);
        // After that every ring is empty.
        assert_eq!(set.advance(&b), 0);
    }

    #[test]
    fn signatures_confined_to_own_graph() {
        let g0 = LabeledGraph::from_edges(&[1, 0], &[(0, 1)]).unwrap();
        let g1 = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let b = CsrGo::from_graphs(&[g0, g1]);
        let mut set = SignatureSet::new(&b, schema());
        set.advance(&b);
        set.advance(&b);
        let s = schema();
        // Node 0 (graph 0) must never count graph 1's O.
        assert_eq!(set.signature(0).count(&s, 3), 0);
        assert_eq!(set.signature(2).count(&s, 3), 1);
    }

    #[test]
    fn wildcard_nodes_are_not_counted() {
        let g = LabeledGraph::from_edges(&[1, WILDCARD_LABEL, 0], &[(0, 1), (0, 2)]).unwrap();
        let b = CsrGo::from_graphs(&[g]);
        let mut set = SignatureSet::new(&b, schema());
        set.advance(&b);
        let s = schema();
        let sig = set.signature(0);
        assert_eq!(sig.count(&s, 0), 1, "only the concrete H neighbor counts");
        // Wildcard contributes to no group at all.
        let total: u64 = (0..12).map(|l| sig.count(&s, l)).sum();
        assert_eq!(total, 1);
    }
}
