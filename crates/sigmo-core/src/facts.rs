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
//! One routine builds every data-side signature: radius-`r` balls as
//! bitsets, a node's ball at `r` being its ball at `r − 1` OR-ed with its
//! neighbours' balls at `r − 1`, one 64-node column block of the graph at
//! a time, in scratch reused across blocks and graphs (no per-node
//! allocation). The per-batch [`crate::SignatureSet`] stays as the test
//! oracle.

use crate::engine::{EngineConfig, FilterMode};
use crate::filter::{pair_schema, pair_signature};
use crate::plan::QueryPlan;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_graph::{CsrGo, Label, LabeledGraph, NodeAttrs, NodeId, WILDCARD_LABEL};

/// Facts of a batch of graphs, indexed by global node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFacts {
    schema: LabelSchema,
    num_nodes: usize,
    /// Deepest radius held.
    depth: usize,
    /// Node signatures at radii `1..=depth`, radius-major: radius `r`
    /// occupies `sigs[(r − 1) · num_nodes ..][..num_nodes]`.
    sigs: Vec<Signature>,
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
    /// every configured radius for the fixed schedule, and no further
    /// than the query side's last moving radius for the incremental one.
    pub fn run_depth(config: &EngineConfig, plan: &QueryPlan) -> usize {
        let radii = config.refinement_iterations.saturating_sub(1);
        match config.filter_mode {
            FilterMode::Incremental => radii.min(plan.last_dirty_radius()),
            FilterMode::Exhaustive => radii,
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
        let mut pairs = Vec::with_capacity(n);
        let mut bfs = Bfs::default();
        let mut attrs = with_attrs.then(NodeAttrs::default);
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
                    }
                    pairs.extend_from_slice(&f.pairs);
                    if let Some(out) = attrs.as_mut() {
                        let own = f.attrs.as_ref().expect("molecule facts carry attributes");
                        append_attrs(out, own);
                    }
                }
                None => {
                    bfs.signatures(data, g, schema, depth, &mut sigs);
                    pairs.extend(range.map(|v| pair_signature(data, &pair_schema, v)));
                    if let Some(out) = attrs.as_mut() {
                        append_attrs(out, &data.graph_node_attrs(g));
                    }
                }
            }
        }
        BatchFacts {
            schema: schema.clone(),
            num_nodes: n,
            depth,
            sigs,
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
        self.depth
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

/// Appends one graph's attributes to a batch table (rings never cross
/// graphs, so a batch table is its graphs' tables end to end).
fn append_attrs(out: &mut NodeAttrs, part: &NodeAttrs) {
    out.labels.extend_from_slice(&part.labels);
    out.degree.extend_from_slice(&part.degree);
    out.h_count.extend_from_slice(&part.h_count);
    out.charge.extend_from_slice(&part.charge);
    out.min_ring.extend_from_slice(&part.min_ring);
}

/// Ball-bitset scratch reused across blocks and graphs. A graph's
/// columns are taken one 64-node block `B` at a time: `ball[v]` holds
/// `ball_r(v) ∩ B` as one word, so the scratch is O(graph nodes) words
/// whatever the graph's size, and a block only touches the nodes within
/// reach of it (`touched`, grown by one ring per radius).
#[derive(Default)]
struct Bfs {
    /// `ball_r(v) ∩ B`, local node id.
    ball: Vec<u64>,
    /// `ball_{r+1}(v) ∩ B` while radius `r + 1` is built.
    next: Vec<u64>,
    /// Nodes with a non-empty ball in this block, in discovery order.
    touched: Vec<usize>,
    /// `in_touched[v]`: `v` is in `touched`.
    in_touched: Vec<bool>,
    /// The block's concrete labels with their column masks.
    labels: Vec<(Label, u64)>,
}

impl Bfs {
    /// Writes the signatures of graph `g`'s nodes at radii `1..=depth`
    /// into the radius-major buffer `sigs` (row length
    /// `data.num_nodes()`, one row per radius; the graph's slots must be
    /// empty on entry). A node's signature at radius `r` counts
    /// the concrete labels of its ball at `r` minus itself — the labels
    /// at distance `1..=r`; wildcard-labeled nodes are walked but never
    /// counted. Saturating per-label adds sum to the same stored count
    /// in any order, so each block adds its share of the ball directly.
    fn signatures(
        &mut self,
        data: &CsrGo,
        g: usize,
        schema: &LabelSchema,
        depth: usize,
        sigs: &mut [Signature],
    ) {
        let stride = data.num_nodes();
        let range = data.node_range(g);
        let base = range.start as usize;
        let n = range.len();
        if depth == 0 || n == 0 {
            return;
        }
        for buf in [&mut self.ball, &mut self.next] {
            buf.clear();
            buf.resize(n, 0);
        }
        self.in_touched.clear();
        self.in_touched.resize(n, false);
        for lo in (0..n).step_by(64) {
            let hi = n.min(lo + 64);
            self.labels.clear();
            self.touched.clear();
            for v in lo..hi {
                let bit = 1u64 << (v - lo);
                let l = data.label((base + v) as NodeId);
                if l != WILDCARD_LABEL {
                    match self.labels.iter_mut().find(|(x, _)| *x == l) {
                        Some((_, mask)) => *mask |= bit,
                        None => self.labels.push((l, bit)),
                    }
                }
                self.ball[v] = bit;
                self.in_touched[v] = true;
                self.touched.push(v);
            }
            for r in 0..depth {
                let reached = self.touched.len();
                for &v in &self.touched {
                    self.next[v] = self.ball[v];
                }
                for i in 0..reached {
                    let v = self.touched[i];
                    let b = self.ball[v];
                    for &w in data.neighbors((base + v) as NodeId) {
                        let u = w as usize - base;
                        self.next[u] |= b;
                        if !self.in_touched[u] {
                            self.in_touched[u] = true;
                            self.touched.push(u);
                        }
                    }
                }
                for &v in &self.touched {
                    let ball = self.next[v];
                    self.ball[v] = ball;
                    let own = if (lo..hi).contains(&v) {
                        1u64 << (v - lo)
                    } else {
                        0
                    };
                    let sig = &mut sigs[r * stride + base + v];
                    for &(l, mask) in &self.labels {
                        let count = (ball & mask & !own).count_ones();
                        if count != 0 {
                            sig.add(schema, l, u64::from(count));
                        }
                    }
                }
            }
            for &v in &self.touched {
                self.ball[v] = 0;
                self.next[v] = 0;
                self.in_touched[v] = false;
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

    /// `g` with every `k`-th node's label replaced by the wildcard.
    fn with_wildcards(g: &LabeledGraph, k: usize) -> LabeledGraph {
        let mut out = LabeledGraph::new();
        for v in 0..g.num_nodes() {
            let l = g.label(v as NodeId);
            out.add_node(if v % k == 0 { WILDCARD_LABEL } else { l });
        }
        for (a, b, l) in g.edges() {
            out.add_edge(a, b, l).unwrap();
        }
        out
    }

    /// The oracle's shapes beyond molecules: more than 64 and more than
    /// 128 nodes (balls span several words), one graph in three
    /// components plus isolated nodes, wildcard-labeled nodes, and a hub
    /// whose 90 same-label neighbours overflow its schema group.
    fn oracle_graphs() -> Vec<LabeledGraph> {
        let mut gs = graphs();
        gs.push(sigmo_graph::random_sparse_graph(100, 25, 12, 3));
        gs.push(sigmo_graph::random_sparse_graph(150, 40, 12, 4));
        let mut split = LabeledGraph::new();
        for part in [
            sigmo_graph::random_sparse_graph(40, 8, 12, 5),
            sigmo_graph::random_sparse_graph(30, 5, 12, 6),
            LabeledGraph::from_edges(&[2], &[]).unwrap(),
            sigmo_graph::random_sparse_graph(12, 2, 12, 7),
        ] {
            let base = split.num_nodes() as NodeId;
            for v in 0..part.num_nodes() {
                split.add_node(part.label(v as NodeId));
            }
            for (a, b, l) in part.edges() {
                split.add_edge(base + a, base + b, l).unwrap();
            }
        }
        gs.push(split);
        gs.push(with_wildcards(
            &sigmo_graph::random_sparse_graph(90, 20, 12, 8),
            4,
        ));
        let mut hub = LabeledGraph::new();
        hub.add_node(1);
        for i in 1..=90u32 {
            hub.add_node(11);
            hub.add_edge(0, i, 1).unwrap();
            if i > 1 && i % 3 == 0 {
                hub.add_node(if i % 2 == 0 { 11 } else { WILDCARD_LABEL });
                let tail = hub.num_nodes() as NodeId - 1;
                hub.add_edge(i, tail, 1).unwrap();
            }
        }
        gs.push(hub);
        gs
    }

    #[test]
    fn batch_facts_equal_the_signature_set_oracle() {
        let batch = CsrGo::from_graphs(&oracle_graphs());
        for schema in [
            LabelSchema::organic(),
            LabelSchema::uniform(12),
            LabelSchema::uniform(16),
        ] {
            for depth in 1..=6 {
                let facts = BatchFacts::compute(&batch, &schema, depth, false);
                let mut set = SignatureSet::new(&batch, schema.clone());
                for r in 1..=depth {
                    set.advance(&batch);
                    assert_eq!(
                        facts.signatures_at(r),
                        set.signatures(),
                        "depth {depth}, radius {r}, {schema:?}"
                    );
                }
            }
        }
        let facts = BatchFacts::compute(&batch, &LabelSchema::organic(), 1, false);
        let pairs: Vec<Signature> = (0..batch.num_nodes() as NodeId)
            .map(|v| pair_signature(&batch, &pair_schema(), v))
            .collect();
        assert_eq!(facts.pairs(), pairs.as_slice());
        assert!(facts.attrs().is_none());
    }

    #[test]
    fn the_hub_saturates_its_group() {
        let schema = LabelSchema::organic();
        let hub = oracle_graphs().pop().unwrap();
        let facts = BatchFacts::of_graph(&hub, &schema, 1, false);
        let g = schema.group(11);
        assert!(g.max_count() < 90, "the hub must overflow label 11's group");
        assert_eq!(facts.signatures_at(1)[0].count(&schema, 11), g.max_count());
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

        // Under a predicate-bearing plan the run reads attributes, copied
        // per stored molecule and computed per missing one; the data holds
        // rings and a charge, so a misplaced graph's attributes would show.
        let mut q = LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap();
        q.set_predicate(
            0,
            sigmo_graph::NodePredicate {
                ring: Some(true),
                ..Default::default()
            },
        );
        let cfg = EngineConfig::default();
        let plan = QueryPlan::build(&[q], &cfg);
        assert_eq!(plan.pred_rows().len(), 1);
        let mut gs = gs;
        let mut ring =
            LabeledGraph::from_edges(&[1, 1, 1, 1, 3], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
                .unwrap();
        ring.set_charge(4, -1);
        gs.insert(1, ring);
        let batch = CsrGo::from_graphs(&gs);
        let mols: Vec<MolFacts> = gs
            .iter()
            .map(|g| MolFacts::build(g, &cfg.schema, 6))
            .collect();
        let fresh = BatchFacts::for_run(&cfg, &plan, &batch, &[]);
        assert_eq!(fresh.attrs(), Some(&batch.node_attrs()));
        for mask in 0..1u32 << gs.len() {
            let stored: Vec<Option<&MolFacts>> = mols
                .iter()
                .enumerate()
                .map(|(i, m)| (mask >> i & 1 == 1).then_some(m))
                .collect();
            assert_eq!(
                BatchFacts::for_run(&cfg, &plan, &batch, &stored),
                fresh,
                "stored mask {mask:#b}"
            );
        }
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
