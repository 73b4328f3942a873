//! The query side of screening: per-query-node requirements extracted
//! from a built [`QueryPlan`].
//!
//! A [`ScreenQuery`] is the plan's screening shadow — for every query
//! node, the three facts a molecule digest can be tested against:
//!
//! * its concrete label (if not a wildcard),
//! * its label-pair signature (the init-time pre-check input, taken
//!   verbatim from [`QueryPlan::pair_rows`]),
//! * its refined neighborhood signature at the *screen radius*
//!   `min(index radius, plan.last_dirty_radius())` — query signatures
//!   converge past `last_dirty_radius`, and data signatures only grow
//!   with radius, so a radius-`k` digest failing to dominate the
//!   radius-`r` query signature (`r ≤ k`) proves the exact filter wipes
//!   the node's candidate row by radius `r`.
//!
//! Nodes with no usable requirement (wildcard label, empty pair and
//! neighborhood signatures) are dropped: they can never reject. A query
//! graph with no requirements left accepts every molecule, which keeps
//! screening trivially sound for degenerate queries.

use sigmo_core::{LabelSchema, QueryPlan, Signature};
use sigmo_graph::{Label, WILDCARD_LABEL};

/// One query node's screening requirements. `None` label = wildcard
/// (tested against the molecule-wide digests instead of a per-label
/// entry, because its candidate row spans every data node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeReq {
    /// Concrete label, or `None` for a wildcard query node.
    pub label: Option<Label>,
    /// Label-pair signature (possibly `EMPTY`).
    pub pair: Signature,
    /// Neighborhood signature at the screen radius (possibly `EMPTY`).
    pub sig: Signature,
    /// Conservative weakening of a SMARTS atom-list / negation predicate:
    /// the node can only map to a data node whose label bit is set here,
    /// so the molecule must *contain* at least one such label
    /// (presence-any digest check). The predicate's other fields (degree,
    /// ring, H-count, charge) are per-node facts a molecule-level digest
    /// cannot soundly test, so they are dropped — screening stays a pure
    /// over-approximation of the exact filter.
    pub any_labels: Option<u64>,
}

/// One query graph's requirements plus its posting-list needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphReq {
    /// Requirements that can reject (see module docs).
    pub nodes: Vec<NodeReq>,
    /// Sorted distinct concrete labels across `nodes` — each is a
    /// label-posting requirement for corpus screening.
    pub labels: Vec<Label>,
    /// Bitmask over the 16 pair buckets: bucket `b` set ⟺ some node
    /// requires ≥ 1 pair in bucket `b` — each set bit is a pair-posting
    /// requirement for corpus screening.
    pub buckets: u16,
}

/// A plan's screening shadow. Built once per plan (the serving layer
/// caches it next to the plan) and consulted per molecule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenQuery {
    /// Node-label schema (must equal the index's — asserted on screen).
    pub schema: LabelSchema,
    /// Label-pair bucket schema.
    pub pair_schema: LabelSchema,
    /// The clamped signature radius actually screened at; 0 disables
    /// the neighborhood-signature check (label and pair checks remain).
    pub sig_radius: usize,
    /// One entry per query graph, in plan order.
    pub graphs: Vec<GraphReq>,
}

impl ScreenQuery {
    /// Extracts the screening shadow of `plan`. `index_radius` is the
    /// digest radius of the index this query will screen against; the
    /// signature check self-clamps to `min(index_radius,
    /// plan.last_dirty_radius(), plan.max_radius())`.
    pub fn from_plan(plan: &QueryPlan, index_radius: usize) -> ScreenQuery {
        let batch = plan.batch();
        let sig_radius = index_radius
            .min(plan.last_dirty_radius())
            .min(plan.max_radius());
        let sigs = (sig_radius >= 1).then(|| plan.signatures_at(sig_radius));
        // pair_rows and pred_rows list their rows class by class: index
        // them by flat node id.
        let mut pairs = vec![(Signature::EMPTY, 0); batch.num_nodes()];
        for r in plan.pair_rows() {
            pairs[r.row as usize] = (r.sig, r.live);
        }
        let mut label_any = vec![None; batch.num_nodes()];
        for r in plan.pred_rows() {
            label_any[r.row as usize] = r.pred.label_any;
        }
        let mut graphs = Vec::with_capacity(batch.num_graphs());
        for g in 0..batch.num_graphs() {
            let mut req = GraphReq::default();
            for v in batch.node_range(g) {
                let label = batch.label(v);
                let (pair, live) = pairs[v as usize];
                let any_labels = label_any[v as usize];
                let sig = sigs.map_or(Signature::EMPTY, |s| s[v as usize]);
                let label = (label != WILDCARD_LABEL).then_some(label);
                if label.is_none()
                    && pair == Signature::EMPTY
                    && sig == Signature::EMPTY
                    && any_labels.is_none()
                {
                    continue; // can never reject
                }
                req.nodes.push(NodeReq {
                    label,
                    pair,
                    sig,
                    any_labels,
                });
                if let Some(l) = label {
                    if let Err(i) = req.labels.binary_search(&l) {
                        req.labels.insert(i, l);
                    }
                }
                req.buckets |= u16::try_from(live).expect("the pair schema has 16 buckets");
            }
            graphs.push(req);
        }
        ScreenQuery {
            schema: plan.schema().clone(),
            pair_schema: plan.pair_schema().clone(),
            sig_radius,
            graphs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_core::engine::EngineConfig;
    use sigmo_graph::LabeledGraph;

    fn chain(labels: &[u8]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (1..labels.len() as u32).map(|i| (i - 1, i)).collect();
        LabeledGraph::from_edges(labels, &edges).unwrap()
    }

    #[test]
    fn from_plan_extracts_labels_and_clamps_radius() {
        let cfg = EngineConfig::default();
        let plan = QueryPlan::build(&[chain(&[1, 2, 1]), chain(&[3, 3])], &cfg);
        let q = ScreenQuery::from_plan(&plan, 64);
        assert_eq!(q.graphs.len(), 2);
        assert_eq!(q.graphs[0].labels, vec![1, 2]);
        assert_eq!(q.graphs[1].labels, vec![3]);
        assert!(
            q.sig_radius <= plan.last_dirty_radius(),
            "radius clamps to the plan's convergence point"
        );
        assert!(q.graphs[0].nodes.iter().all(|n| n.label.is_some()));
        // Every node of a concrete chain has a non-empty pair signature,
        // so each graph needs at least one pair bucket.
        assert_ne!(q.graphs[0].buckets, 0);
    }

    #[test]
    fn wildcard_only_nodes_are_dropped() {
        let cfg = EngineConfig::default();
        // A single wildcard node with no edges has no usable requirement.
        let lone = LabeledGraph::from_edges(&[sigmo_graph::WILDCARD_LABEL], &[]).unwrap();
        let plan = QueryPlan::build(&[lone], &cfg);
        let q = ScreenQuery::from_plan(&plan, 4);
        assert!(
            q.graphs[0].nodes.is_empty(),
            "nothing to reject with — the graph accepts every molecule"
        );
    }
}
