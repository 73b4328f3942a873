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
//! [`MolFacts`] next to freshly built ones; every part is written in place
//! into the batch arrays, graph by graph (DESIGN.md §23).
//!
//! One routine builds every data-side signature: radius-`r` balls as
//! bitsets, a node's ball at `r` being its ball at `r − 1` OR-ed with its
//! neighbours' balls at `r − 1`, one column block of the graph at a time
//! (64 columns for graphs of up to 64 nodes, 128 above), in scratch reused
//! across blocks and graphs (no per-node allocation). The per-batch
//! [`crate::SignatureSet`] stays as the test oracle.

use crate::candidates::{with_popcnt, CountsBits};
use crate::engine::EngineConfig;
use crate::filter::{pair_schema, pair_signature};
use crate::plan::QueryPlan;
use crate::schema::LabelSchema;
use crate::signature::Signature;
use sigmo_graph::{CsrGo, Label, LabeledGraph, NodeAttrs, NodeId, RingScratch, WILDCARD_LABEL};
use std::ops::{BitAnd, BitOr, BitOrAssign, Not};
use std::time::{Duration, Instant};

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
    /// Whether `attrs` hold ring sizes (they may be skipped when no
    /// predicate of the run reads a ring).
    rings: bool,
}

/// Which predicate attributes a facts build computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttrNeed {
    /// None: the run has no predicate rows.
    Skip,
    /// Everything but ring sizes: no predicate row reads a ring.
    NoRings,
    /// Everything.
    Full,
}

/// Wall time of a batch's data side before the filter, by part. The
/// stream runner sums it over chunks; it is not part of any phase of
/// [`crate::PhaseTimings::total`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataTimings {
    /// CSR-GO build of the batch.
    pub csr_build: Duration,
    /// Node signatures at every radius the run reads.
    pub signatures: Duration,
    /// Label-pair signatures.
    pub pairs: Duration,
    /// Predicate attributes (ring sizes included).
    pub attrs: Duration,
}

impl DataTimings {
    /// Sum of the parts.
    pub fn total(&self) -> Duration {
        self.csr_build + self.signatures + self.pairs + self.attrs
    }

    /// Adds `other`'s parts to these.
    pub fn add(&mut self, other: &DataTimings) {
        self.csr_build += other.csr_build;
        self.signatures += other.signatures;
        self.pairs += other.pairs;
        self.attrs += other.attrs;
    }
}

/// One molecule's facts: a single-graph [`BatchFacts`] that always carries
/// its [`NodeAttrs`], ring sizes included, so it can serve any plan.
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
    /// no further than the configured radii, nor than the query side's
    /// last moving radius, where refinement stops.
    pub fn run_depth(config: &EngineConfig, plan: &QueryPlan) -> usize {
        let radii = config.refinement_iterations.saturating_sub(1);
        radii.min(plan.last_dirty_radius())
    }

    /// The facts a run of `plan` under `config` reads over `data`:
    /// [`BatchFacts::run_depth`] radii, plus predicate attributes when the
    /// plan has predicate rows (ring sizes only when one of them reads a
    /// ring), copied from `stored` where it has them (see
    /// [`BatchFacts::assemble`]).
    pub fn for_run(
        config: &EngineConfig,
        plan: &QueryPlan,
        data: &CsrGo,
        stored: &[Option<&MolFacts>],
    ) -> Self {
        Self::for_run_timed(config, plan, data, stored).0
    }

    /// [`BatchFacts::for_run`] with the wall time of each part (the
    /// returned `csr_build` is zero: the caller built `data`).
    pub fn for_run_timed(
        config: &EngineConfig,
        plan: &QueryPlan,
        data: &CsrGo,
        stored: &[Option<&MolFacts>],
    ) -> (Self, DataTimings) {
        let need = if plan.pred_rows().is_empty() {
            AttrNeed::Skip
        } else if plan.pred_rows().iter().any(|r| r.pred.reads_rings()) {
            AttrNeed::Full
        } else {
            AttrNeed::NoRings
        };
        let depth = Self::run_depth(config, plan);
        Self::build(data, stored, &config.schema, depth, need)
    }

    /// Panics unless these facts can serve a run of `plan` under `config`
    /// over `data`: same schema and node count, at least
    /// [`BatchFacts::run_depth`] radii, and attributes (with ring sizes)
    /// if the plan's predicate rows read them.
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
        assert!(
            self.rings || !plan.pred_rows().iter().any(|r| r.pred.reads_rings()),
            "the plan reads ring sizes but the facts skipped them"
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
        let need = if with_attrs {
            AttrNeed::Full
        } else {
            AttrNeed::Skip
        };
        Self::build(data, stored, schema, depth, need).0
    }

    /// [`BatchFacts::assemble`] with the attributes `need` asks for, timed
    /// by part. Each part is written in place into the batch arrays, one
    /// graph at a time, from the stored facts or from scratch.
    // sigmo-lint: allow(wall-clock-in-result) — the part timings are
    // display-only, excluded from determinism keys (see
    // `Engine::run_batched_with_governor`).
    fn build(
        data: &CsrGo,
        stored: &[Option<&MolFacts>],
        schema: &LabelSchema,
        depth: usize,
        need: AttrNeed,
    ) -> (Self, DataTimings) {
        assert!(
            stored.is_empty() || stored.len() == data.num_graphs(),
            "stored facts must be parallel to the batch's graphs"
        );
        let n = data.num_nodes();
        let stored_at = |g: usize| {
            let mol = stored.get(g).copied().flatten()?;
            let f = &mol.0;
            assert_eq!(&f.schema, schema, "stored facts use another schema");
            assert!(
                f.depth() >= depth,
                "stored facts hold {} radii, the run reads {depth}",
                f.depth()
            );
            assert_eq!(
                f.num_nodes,
                data.graph_len(g),
                "stored facts of another graph"
            );
            Some(f)
        };
        let mut timings = DataTimings::default();

        let t = Instant::now();
        let mut sigs = vec![Signature::EMPTY; depth * n];
        let mut balls = Balls::default();
        for g in 0..data.num_graphs() {
            let base = data.node_range(g).start as usize;
            match stored_at(g) {
                Some(f) => {
                    for r in 1..=depth {
                        sigs[(r - 1) * n + base..][..f.num_nodes]
                            .copy_from_slice(f.signatures_at(r));
                    }
                }
                None => with_popcnt(GraphSignatures {
                    balls: &mut balls,
                    data,
                    g,
                    schema,
                    depth,
                    sigs: &mut sigs,
                }),
            }
        }
        timings.signatures = t.elapsed();

        let t = Instant::now();
        let pair_schema = pair_schema();
        let mut pairs = vec![Signature::EMPTY; n];
        for g in 0..data.num_graphs() {
            let range = data.node_range(g);
            let out = &mut pairs[range.start as usize..range.end as usize];
            match stored_at(g) {
                Some(f) => out.copy_from_slice(&f.pairs),
                None => {
                    for (slot, v) in out.iter_mut().zip(range) {
                        *slot = pair_signature(data, &pair_schema, v);
                    }
                }
            }
        }
        timings.pairs = t.elapsed();

        let t = Instant::now();
        let attrs = (need != AttrNeed::Skip).then(|| {
            let mut out = NodeAttrs::zeroed(n);
            let mut rings = RingScratch::default();
            for g in 0..data.num_graphs() {
                match stored_at(g) {
                    Some(f) => {
                        let own = f.attrs.as_ref().expect("molecule facts carry attributes");
                        copy_attrs(&mut out, data.node_range(g).start as usize, own);
                    }
                    None => data.fill_node_attrs(
                        g,
                        &mut out,
                        (need == AttrNeed::Full).then_some(&mut rings),
                    ),
                }
            }
            out
        });
        timings.attrs = t.elapsed();

        let facts = BatchFacts {
            schema: schema.clone(),
            num_nodes: n,
            depth,
            sigs,
            pairs,
            attrs,
            rings: need == AttrNeed::Full,
        };
        (facts, timings)
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

/// Copies one graph's attributes into a batch table at `base` (rings
/// never cross graphs, so a batch table is its graphs' tables end to end).
fn copy_attrs(out: &mut NodeAttrs, base: usize, part: &NodeAttrs) {
    let n = part.labels.len();
    out.labels[base..base + n].copy_from_slice(&part.labels);
    out.degree[base..base + n].copy_from_slice(&part.degree);
    out.h_count[base..base + n].copy_from_slice(&part.h_count);
    out.charge[base..base + n].copy_from_slice(&part.charge);
    out.min_ring[base..base + n].copy_from_slice(&part.min_ring);
    out.packed[base..base + n].copy_from_slice(&part.packed);
}

/// A ball bitset over one column block: `u64` for graphs of up to 64
/// nodes, `u128` above, so a graph of up to 128 nodes is one block.
trait Block:
    Copy + Eq + BitOr<Output = Self> + BitOrAssign + BitAnd<Output = Self> + Not<Output = Self>
{
    const WIDTH: usize;
    const ZERO: Self;
    fn bit(i: usize) -> Self;
    fn ones(self) -> u32;
}

impl Block for u64 {
    const WIDTH: usize = 64;
    const ZERO: Self = 0;
    #[inline]
    fn bit(i: usize) -> Self {
        1 << i
    }
    #[inline]
    fn ones(self) -> u32 {
        self.count_ones()
    }
}

impl Block for u128 {
    const WIDTH: usize = 128;
    const ZERO: Self = 0;
    #[inline]
    fn bit(i: usize) -> Self {
        1 << i
    }
    #[inline]
    fn ones(self) -> u32 {
        self.count_ones()
    }
}

/// One graph's signatures ([`Balls::signatures`]) as [`CountsBits`] work.
struct GraphSignatures<'a> {
    balls: &'a mut Balls,
    data: &'a CsrGo,
    g: usize,
    schema: &'a LabelSchema,
    depth: usize,
    sigs: &'a mut [Signature],
}

impl CountsBits for GraphSignatures<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        let (data, schema) = (self.data, self.schema);
        self.balls
            .signatures(data, self.g, schema, self.depth, self.sigs);
    }
}

/// Ball-bitset scratch of both block widths, reused across graphs.
#[derive(Default)]
struct Balls {
    narrow: Bfs<u64>,
    wide: Bfs<u128>,
}

impl Balls {
    /// Writes graph `g`'s signatures with the narrowest block that holds
    /// the graph in one ([`Bfs::whole`]), or in 128-node blocks above 128
    /// nodes ([`Bfs::signatures`]). Inlined, with everything it calls,
    /// into its [`with_popcnt`] context.
    #[inline(always)]
    fn signatures(
        &mut self,
        data: &CsrGo,
        g: usize,
        schema: &LabelSchema,
        depth: usize,
        sigs: &mut [Signature],
    ) {
        let n = data.graph_len(g);
        if n <= u64::WIDTH {
            self.narrow.whole(data, g, schema, depth, sigs);
        } else if n <= u128::WIDTH {
            self.wide.whole(data, g, schema, depth, sigs);
        } else {
            self.wide.signatures(data, g, schema, depth, sigs);
        }
    }
}

/// Ball-bitset scratch reused across blocks and graphs. A graph's
/// columns are taken one block `B` of `B::WIDTH` nodes at a time:
/// `ball[v]` holds `ball_r(v) ∩ B` as one block, so the scratch is
/// O(graph nodes) blocks whatever the graph's size, and a block only
/// touches the nodes within reach of it (`touched`, grown by one ring per
/// radius).
struct Bfs<B> {
    /// `ball_r(v) ∩ B`, local node id.
    ball: Vec<B>,
    /// `ball_{r+1}(v) ∩ B` while radius `r + 1` is built.
    next: Vec<B>,
    /// Nodes with a non-empty ball in this block, in discovery order.
    touched: Vec<usize>,
    /// `in_touched[v]`: `v` is in `touched`.
    in_touched: Vec<bool>,
    /// The block's concrete labels with their column masks.
    labels: Vec<(Label, B)>,
    /// The same masks with their schema groups' shifts and saturation
    /// counts.
    groups: Vec<(B, u32, u64)>,
    /// For [`Bfs::whole`]: the inner (non-leaf) nodes, each inner node's
    /// inner neighbours (CSR, `inner_at[i]..inner_at[i + 1]`), its leaf
    /// neighbours (`leaves_at`), and the column mask of those leaves.
    inner: Vec<usize>,
    inner_at: Vec<usize>,
    inner_nbrs: Vec<usize>,
    leaves_at: Vec<usize>,
    leaf_nbrs: Vec<usize>,
    leaf_mask: Vec<B>,
}

impl<B> Default for Bfs<B> {
    fn default() -> Self {
        Self {
            ball: Vec::new(),
            next: Vec::new(),
            touched: Vec::new(),
            in_touched: Vec::new(),
            labels: Vec::new(),
            groups: Vec::new(),
            inner: Vec::new(),
            inner_at: Vec::new(),
            inner_nbrs: Vec::new(),
            leaves_at: Vec::new(),
            leaf_nbrs: Vec::new(),
            leaf_mask: Vec::new(),
        }
    }
}

impl<B: Block> Bfs<B> {
    /// [`Bfs::signatures`] for a graph of at most `B::WIDTH` nodes, one
    /// block, with its pendant leaves read off their parents. A leaf `u`
    /// (degree 1, its neighbour `p` of degree > 1) has
    /// `ball_r(u) = {u} ∪ ball_{r−1}(p)`, so its signature at `r` counts
    /// `ball_{r−1}(p)` minus `u`, and it adds nothing to `p`'s ball past
    /// radius 1, where it adds its own column. Only inner nodes are walked,
    /// and same-label leaves of one parent share their signatures (each is
    /// in `p`'s ball from radius 1 on, and in none at radius 0). Each
    /// signature is written whole, saturated, without a branch.
    #[inline(always)]
    fn whole(
        &mut self,
        data: &CsrGo,
        g: usize,
        schema: &LabelSchema,
        depth: usize,
        sigs: &mut [Signature],
    ) {
        let stride = data.num_nodes();
        let base = data.node_range(g).start as usize;
        let n = data.graph_len(g);
        if depth == 0 || n == 0 {
            return;
        }
        let nbrs = |v: usize| data.neighbors((base + v) as NodeId);
        let is_leaf = |v: usize| {
            let own = nbrs(v);
            own.len() == 1 && data.degree(own[0]) > 1
        };
        self.labels.clear();
        self.inner.clear();
        self.inner_at.clear();
        self.inner_nbrs.clear();
        self.leaves_at.clear();
        self.leaf_nbrs.clear();
        self.leaf_mask.clear();
        self.ball.clear();
        self.ball.resize(n, B::ZERO);
        self.next.clear();
        self.next.resize(n, B::ZERO);
        self.inner_at.push(0);
        self.leaves_at.push(0);
        for v in 0..n {
            let bit = B::bit(v);
            let l = data.label((base + v) as NodeId);
            if l != WILDCARD_LABEL {
                match self.labels.iter_mut().find(|(x, _)| *x == l) {
                    Some((_, mask)) => *mask |= bit,
                    None => self.labels.push((l, bit)),
                }
            }
            self.ball[v] = bit;
            if is_leaf(v) {
                continue;
            }
            let mut leaves = B::ZERO;
            for &w in nbrs(v) {
                let u = w as usize - base;
                if is_leaf(u) {
                    leaves |= B::bit(u);
                    self.leaf_nbrs.push(u);
                } else {
                    self.inner_nbrs.push(u);
                }
            }
            self.inner.push(v);
            self.inner_at.push(self.inner_nbrs.len());
            self.leaves_at.push(self.leaf_nbrs.len());
            self.leaf_mask.push(leaves);
        }
        self.groups.clear();
        self.groups.extend(self.labels.iter().map(|&(l, mask)| {
            let g = schema.group(l);
            (mask, u32::from(g.shift), g.max_count())
        }));
        let groups = &self.groups;
        let pack = |ball: B| {
            let mut packed = 0u64;
            for &(mask, shift, max) in groups {
                packed |= u64::from((ball & mask).ones()).min(max) << shift;
            }
            Signature(packed)
        };
        for r in 0..depth {
            let row = &mut sigs[r * stride + base..][..n];
            // Leaves at radius r + 1, from their parents' balls at r.
            for (i, &p) in self.inner.iter().enumerate() {
                let mut last: Option<(Label, Signature)> = None;
                for &u in &self.leaf_nbrs[self.leaves_at[i]..self.leaves_at[i + 1]] {
                    let l = data.label((base + u) as NodeId);
                    let sig = match last {
                        Some((x, sig)) if x == l => sig,
                        _ => pack(self.ball[p] & !B::bit(u)),
                    };
                    row[u] = sig;
                    last = Some((l, sig));
                }
            }
            // Inner nodes at radius r + 1.
            for (i, &v) in self.inner.iter().enumerate() {
                let mut next = self.ball[v];
                if r == 0 {
                    next |= self.leaf_mask[i];
                }
                for &u in &self.inner_nbrs[self.inner_at[i]..self.inner_at[i + 1]] {
                    next |= self.ball[u];
                }
                self.next[v] = next;
            }
            for &v in &self.inner {
                let ball = self.next[v];
                self.ball[v] = ball;
                row[v] = pack(ball & !B::bit(v));
            }
        }
    }

    /// Writes the signatures of graph `g`'s nodes at radii `1..=depth`
    /// into the radius-major buffer `sigs` (row length
    /// `data.num_nodes()`, one row per radius; the graph's slots must be
    /// empty on entry). A node's signature at radius `r` counts
    /// the concrete labels of its ball at `r` minus itself — the labels
    /// at distance `1..=r`; wildcard-labeled nodes are walked but never
    /// counted. Saturating per-label adds sum to the same stored count in
    /// any order, so each block adds its share of the ball directly.
    #[inline(always)]
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
            buf.resize(n, B::ZERO);
        }
        self.in_touched.clear();
        self.in_touched.resize(n, false);
        for lo in (0..n).step_by(B::WIDTH) {
            let hi = n.min(lo + B::WIDTH);
            self.labels.clear();
            self.touched.clear();
            for v in lo..hi {
                let bit = B::bit(v - lo);
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
                let row = &mut sigs[r * stride + base..][..n];
                for &v in &self.touched {
                    let ball = self.next[v];
                    self.ball[v] = ball;
                    let own = if (lo..hi).contains(&v) {
                        B::bit(v - lo)
                    } else {
                        B::ZERO
                    };
                    for &(l, mask) in &self.labels {
                        let count = (ball & mask & !own).ones();
                        if count != 0 {
                            row[v].add(schema, l, u64::from(count));
                        }
                    }
                }
            }
            for &v in &self.touched {
                self.ball[v] = B::ZERO;
                self.next[v] = B::ZERO;
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
    fn signatures_around_the_block_widths_equal_the_oracle() {
        // One graph of each size around the 64- and 128-node block widths,
        // with hydrogen leaves (label 0) read off their parents, and a
        // batch of all of them so the graphs sit at unaligned offsets.
        let sized = |n: usize, seed: u64| {
            let mut g = sigmo_graph::random_sparse_graph(n / 2, n / 8, 6, seed);
            while g.num_nodes() < n {
                let parent = (g.num_nodes() * 7 % (n / 2)) as NodeId;
                let leaf = g.add_node(0);
                g.add_edge(parent, leaf, 1).unwrap();
            }
            g
        };
        let graphs: Vec<LabeledGraph> = [64, 127, 128, 129, 200]
            .iter()
            .map(|&n| sized(n, n as u64))
            .collect();
        let schema = LabelSchema::organic();
        for batch in graphs.iter().map(std::slice::from_ref).chain([&graphs[..]]) {
            let batch = CsrGo::from_graphs(batch);
            let facts = BatchFacts::compute(&batch, &schema, 5, false);
            let mut set = SignatureSet::new(&batch, schema.clone());
            for r in 1..=5 {
                set.advance(&batch);
                assert_eq!(
                    facts.signatures_at(r),
                    set.signatures(),
                    "{} nodes, r={r}",
                    batch.num_nodes()
                );
            }
        }
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
