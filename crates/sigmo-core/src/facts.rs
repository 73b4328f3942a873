//! Per-molecule facts: everything the filter reads about a data node that
//! does not depend on the query.
//!
//! A data node's neighborhood signatures (paper §4.2–4.4), its label-pair
//! signature and its [`NodeAttrs`] are pure functions of the node's own
//! graph. [`MolFacts`] holds them for one molecule, so a server that meets
//! the same molecule again reuses them instead of re-running the BFS, the
//! pair pass and ring perception on every engine run — the GSI-style
//! "signature table built once, before any query" (PAPERS.md).
//! [`BatchFacts`] holds them for a batch in the layout the filter kernels
//! read: node signatures radius-major in one flat buffer, so the slice at
//! radius `r` is indexed by global node id.
//!
//! Exactness: signatures never leave their own graph (no edge crosses a
//! batch's graph boundary; `signatures_confined_to_own_graph` pins it), so
//! a batch's facts are the concatenation of its molecules' facts, whatever
//! the batch. [`BatchFacts::assemble`] relies on this to splice stored
//! [`MolFacts`] next to freshly built ones.
//!
//! One routine builds every data-side signature: a BFS per node, bounded
//! by the deepest radius needed, over a stamp array and a frontier queue
//! reused across nodes and graphs (no per-node allocation). The
//! per-batch [`crate::SignatureSet`] stays as the test oracle.

use crate::engine::{EngineConfig, FilterMode};
use crate::filter::{pair_schema, pair_signature};
use crate::plan::QueryPlan;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_graph::{CsrGo, LabeledGraph, NodeAttrs, NodeId, WILDCARD_LABEL};

/// Facts of a batch of graphs, indexed by global node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFacts {
    schema: LabelSchema,
    num_nodes: usize,
    /// Node signatures at radii `1..=depth`, radius-major: radius `r`
    /// occupies `sigs[(r − 1) · num_nodes ..][..num_nodes]`.
    sigs: Vec<Signature>,
    /// `active[r − 1]`: nodes whose BFS ring at distance `r − 1` is
    /// non-empty — what [`crate::SignatureSet::advance`] returns when it
    /// advances to radius `r`.
    active: Vec<usize>,
    /// Label-pair signatures under [`pair_schema`].
    pairs: Vec<Signature>,
    /// Predicate attributes, present when the facts were built with them.
    attrs: Option<NodeAttrs>,
}

/// One molecule's facts: a single-graph [`BatchFacts`] that always carries
/// its [`NodeAttrs`], so it can serve any plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MolFacts(BatchFacts);

impl MolFacts {
    /// Builds `graph`'s facts: node signatures at radii `1..=depth` under
    /// `schema`, label-pair signatures and predicate attributes.
    pub fn build(graph: &LabeledGraph, schema: &LabelSchema, depth: usize) -> Self {
        MolFacts(BatchFacts::of_graph(graph, schema, depth, true))
    }

    /// The facts in batch form (one graph, local node ids).
    pub fn facts(&self) -> &BatchFacts {
        &self.0
    }
}

impl BatchFacts {
    /// Builds the facts of every graph in `data` from scratch.
    pub fn compute(data: &CsrGo, schema: &LabelSchema, depth: usize, with_attrs: bool) -> Self {
        Self::assemble(data, &[], schema, depth, with_attrs)
    }

    /// The deepest data radius a run of `plan` under `config` can read:
    /// every configured radius for the fixed schedules, and no further
    /// than the query side's last moving radius for the incremental one.
    pub fn run_depth(config: &EngineConfig, plan: &QueryPlan) -> usize {
        let radii = config.refinement_iterations.saturating_sub(1);
        match config.filter_mode {
            FilterMode::Incremental => radii.min(plan.last_dirty_radius()),
            FilterMode::Exhaustive | FilterMode::EarlyExit => radii,
        }
    }

    /// The facts a run of `plan` under `config` reads over `data`:
    /// [`BatchFacts::run_depth`] radii, plus predicate attributes when the
    /// plan has predicate rows, copied from `stored` where it has them
    /// (see [`BatchFacts::assemble`]).
    pub fn for_run(
        config: &EngineConfig,
        plan: &QueryPlan,
        data: &CsrGo,
        stored: &[Option<&MolFacts>],
    ) -> Self {
        let with_attrs = !plan.pred_rows().is_empty();
        let depth = Self::run_depth(config, plan);
        Self::assemble(data, stored, &config.schema, depth, with_attrs)
    }

    /// Panics unless these facts can serve a run of `plan` under `config`
    /// over `data`: same schema and node count, at least
    /// [`BatchFacts::run_depth`] radii, and attributes if the plan has
    /// predicate rows.
    pub(crate) fn assert_serves(&self, config: &EngineConfig, plan: &QueryPlan, data: &CsrGo) {
        assert_eq!(
            self.schema, config.schema,
            "facts built under another schema"
        );
        assert_eq!(self.num_nodes, data.num_nodes(), "facts of another batch");
        let depth = Self::run_depth(config, plan);
        assert!(
            self.depth() >= depth,
            "facts hold {} radii, the run reads {depth}",
            self.depth()
        );
        assert!(
            self.attrs.is_some() || plan.pred_rows().is_empty(),
            "the plan has predicate rows but the facts carry no attributes"
        );
    }

    /// Builds one graph's facts (local node ids).
    pub fn of_graph(
        graph: &LabeledGraph,
        schema: &LabelSchema,
        depth: usize,
        with_attrs: bool,
    ) -> Self {
        let csr = CsrGo::from_graph_refs(&[graph]);
        Self::compute(&csr, schema, depth, with_attrs)
    }

    /// The facts of `data`, copying graph `g`'s from `stored[g]` when it is
    /// `Some` and building the rest. `stored` is parallel to the graphs of
    /// `data`, or empty when nothing is stored. Stored facts must match
    /// `schema`, hold at least `depth` radii and describe a graph of the
    /// same size; their extra radii are not copied.
    pub fn assemble(
        data: &CsrGo,
        stored: &[Option<&MolFacts>],
        schema: &LabelSchema,
        depth: usize,
        with_attrs: bool,
    ) -> Self {
        assert!(
            stored.is_empty() || stored.len() == data.num_graphs(),
            "stored facts must be parallel to the batch's graphs"
        );
        let n = data.num_nodes();
        let pair_schema = pair_schema();
        let mut sigs = vec![Signature::EMPTY; depth * n];
        let mut active = vec![0usize; depth];
        let mut pairs = Vec::with_capacity(n);
        let mut bfs = Bfs::default();
        let mut all_stored = true;
        for g in 0..data.num_graphs() {
            let range = data.node_range(g);
            let base = range.start as usize;
            match stored.get(g).copied().flatten() {
                Some(mol) => {
                    let f = &mol.0;
                    assert_eq!(&f.schema, schema, "stored facts use another schema");
                    assert!(
                        f.depth() >= depth,
                        "stored facts hold {} radii, the run reads {depth}",
                        f.depth()
                    );
                    assert_eq!(f.num_nodes, range.len(), "stored facts of another graph");
                    for r in 1..=depth {
                        sigs[(r - 1) * n + base..][..f.num_nodes]
                            .copy_from_slice(f.signatures_at(r));
                        active[r - 1] += f.active_at(r);
                    }
                    pairs.extend_from_slice(&f.pairs);
                }
                None => {
                    all_stored = false;
                    bfs.signatures(data, g, schema, &mut sigs, &mut active);
                    pairs.extend(range.map(|v| pair_signature(data, &pair_schema, v)));
                }
            }
        }
        let attrs = with_attrs.then(|| {
            if all_stored && !stored.is_empty() {
                concat_attrs(stored.iter().map(|m| {
                    let f = &m.expect("every graph stored").0;
                    f.attrs.as_ref().expect("molecule facts carry attributes")
                }))
            } else {
                data.node_attrs()
            }
        });
        BatchFacts {
            schema: schema.clone(),
            num_nodes: n,
            sigs,
            active,
            pairs,
            attrs,
        }
    }

    /// The schema the node signatures were built under.
    pub fn schema(&self) -> &LabelSchema {
        &self.schema
    }

    /// Deepest radius held.
    pub fn depth(&self) -> usize {
        self.active.len()
    }

    /// Nodes covered.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Every node's signature at `radius` (`1..=depth`).
    pub fn signatures_at(&self, radius: usize) -> &[Signature] {
        self.check_radius(radius);
        &self.sigs[(radius - 1) * self.num_nodes..][..self.num_nodes]
    }

    /// Nodes whose BFS frontier was still non-empty when advancing to
    /// `radius` (`1..=depth`).
    pub fn active_at(&self, radius: usize) -> usize {
        self.check_radius(radius);
        self.active[radius - 1]
    }

    fn check_radius(&self, radius: usize) {
        assert!(
            (1..=self.depth()).contains(&radius),
            "facts hold radii 1..={}, asked for {radius}",
            self.depth()
        );
    }

    /// Every node's label-pair signature.
    pub fn pairs(&self) -> &[Signature] {
        &self.pairs
    }

    /// Predicate attributes, when built with them.
    pub fn attrs(&self) -> Option<&NodeAttrs> {
        self.attrs.as_ref()
    }
}

fn concat_attrs<'a>(parts: impl Iterator<Item = &'a NodeAttrs>) -> NodeAttrs {
    let mut out = NodeAttrs {
        labels: Vec::new(),
        degree: Vec::new(),
        h_count: Vec::new(),
        charge: Vec::new(),
        min_ring: Vec::new(),
    };
    for a in parts {
        out.labels.extend_from_slice(&a.labels);
        out.degree.extend_from_slice(&a.degree);
        out.h_count.extend_from_slice(&a.h_count);
        out.charge.extend_from_slice(&a.charge);
        out.min_ring.extend_from_slice(&a.min_ring);
    }
    out
}

/// BFS scratch reused across nodes and graphs: `stamp[local] == epoch`
/// marks a node visited by the current source, and the frontier queue
/// holds the BFS levels back to back.
#[derive(Default)]
struct Bfs {
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl Bfs {
    /// Writes the signatures of graph `g`'s nodes into the radius-major
    /// buffer `sigs` (row length `data.num_nodes()`, one row per radius)
    /// and adds each radius' active count into `active`. A node's
    /// signature at radius `r` counts the concrete labels at distance
    /// `1..=r`; wildcard-labeled nodes are walked but never counted.
    fn signatures(
        &mut self,
        data: &CsrGo,
        g: usize,
        schema: &LabelSchema,
        sigs: &mut [Signature],
        active: &mut [usize],
    ) {
        let stride = data.num_nodes();
        let range = data.node_range(g);
        let base = range.start;
        if self.stamp.len() < range.len() {
            self.stamp.resize(range.len(), 0);
        }
        for v in range {
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                self.stamp.fill(0);
                self.epoch = 1;
            }
            let epoch = self.epoch;
            self.stamp[(v - base) as usize] = epoch;
            self.queue.clear();
            self.queue.push(v);
            // The ring at the current distance is `queue[lo..hi]`.
            let (mut lo, mut hi) = (0usize, 1usize);
            let mut sig = Signature::EMPTY;
            for (r, count) in active.iter_mut().enumerate() {
                if lo < hi {
                    *count += 1;
                    for i in lo..hi {
                        for &w in data.neighbors(self.queue[i]) {
                            let local = (w - base) as usize;
                            if self.stamp[local] != epoch {
                                self.stamp[local] = epoch;
                                self.queue.push(w);
                                let l = data.label(w);
                                if l != WILDCARD_LABEL {
                                    sig.add(schema, l, 1);
                                }
                            }
                        }
                    }
                    (lo, hi) = (hi, self.queue.len());
                }
                sigs[r * stride + v as usize] = sig;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureSet;

    fn graphs() -> Vec<LabeledGraph> {
        vec![
            LabeledGraph::from_edges(&[1, 0, 0, 0, 3], &[(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap(),
            LabeledGraph::new(),
            LabeledGraph::from_edges(&[1], &[]).unwrap(),
            LabeledGraph::from_edges(
                &[1, 1, 2, WILDCARD_LABEL, 0, 0, 4],
                &[(0, 1), (1, 2), (2, 3), (1, 4), (0, 5), (2, 6), (3, 0)],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn batch_facts_equal_the_signature_set_oracle() {
        let schema = LabelSchema::organic();
        let batch = CsrGo::from_graphs(&graphs());
        let facts = BatchFacts::compute(&batch, &schema, 5, false);
        let mut set = SignatureSet::new(&batch, schema.clone());
        for r in 1..=5 {
            let active = set.advance(&batch);
            assert_eq!(facts.signatures_at(r), set.signatures(), "radius {r}");
            assert_eq!(facts.active_at(r), active, "radius {r}");
        }
        let pairs: Vec<Signature> = (0..batch.num_nodes() as NodeId)
            .map(|v| pair_signature(&batch, &pair_schema(), v))
            .collect();
        assert_eq!(facts.pairs(), pairs.as_slice());
        assert!(facts.attrs().is_none());
    }

    #[test]
    fn stored_molecule_facts_splice_into_the_batch() {
        let schema = LabelSchema::organic();
        let gs = graphs();
        let batch = CsrGo::from_graphs(&gs);
        let mols: Vec<MolFacts> = gs.iter().map(|g| MolFacts::build(g, &schema, 6)).collect();
        let fresh = BatchFacts::compute(&batch, &schema, 4, true);
        let all: Vec<Option<&MolFacts>> = mols.iter().map(Some).collect();
        assert_eq!(BatchFacts::assemble(&batch, &all, &schema, 4, true), fresh);
        let some: Vec<Option<&MolFacts>> = mols
            .iter()
            .enumerate()
            .map(|(i, m)| (i % 2 == 0).then_some(m))
            .collect();
        assert_eq!(BatchFacts::assemble(&batch, &some, &schema, 4, true), fresh);
    }

    #[test]
    #[should_panic(expected = "the run reads 6")]
    fn shallow_stored_facts_are_refused() {
        let schema = LabelSchema::organic();
        let g = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let mol = MolFacts::build(&g, &schema, 2);
        let batch = CsrGo::from_graphs(std::slice::from_ref(&g));
        BatchFacts::assemble(&batch, &[Some(&mol)], &schema, 6, false);
    }
}
