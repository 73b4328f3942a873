//! Per-molecule signature digests.
//!
//! A [`MolDigest`] compresses one molecule into the fixed-size facts the
//! screen needs: which raw labels it contains, and — per contained label
//! plus once over all nodes — the per-group **maximum** of its node
//! signatures at the index radius and of its label-pair signatures. The
//! maxima are taken with [`Signature::max_groups`], the join of the
//! domination order, so "the digest fails to dominate a query
//! signature" proves that *no individual node* dominates it: some
//! schema group's query count exceeds the max over every node.
//!
//! Digests fold [`BatchFacts`] — the facts the engine's filter reads,
//! built by the one routine that builds every data-side signature (which
//! skips wildcard-labeled neighbors, exactly as the refinement kernel's
//! inputs do) — so digest semantics can never drift from engine
//! semantics. [`reference_digest`] folds the per-batch
//! [`sigmo_core::SignatureSet`] oracle instead; tests pin the two equal.

use sigmo_core::filter::pair_signature;
use sigmo_core::{BatchFacts, LabelSchema, Signature, SignatureSet};
use sigmo_graph::{CsrGo, Label, LabeledGraph, NodeId};

/// One present raw label's summary: the per-group max, over the
/// molecule's nodes carrying exactly that label, of the radius-`k`
/// signature and the label-pair signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelEntry {
    /// The raw node label (element id, or the wildcard byte).
    pub label: Label,
    /// Per-group max of radius-`k` node signatures under this label.
    pub sig: Signature,
    /// Per-group max of label-pair signatures under this label.
    pub pair: Signature,
}

/// A molecule's screen summary. See the module docs for the max-join
/// semantics that make "digest fails to dominate ⟹ every node fails to
/// dominate" hold per schema group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MolDigest {
    /// Bit `l` set ⟺ the molecule has ≥ 1 node with raw label `l`.
    pub presence: [u64; 4],
    /// Node count (diagnostics only; never used to reject).
    pub node_count: u32,
    /// One entry per present label, sorted by label.
    pub labels: Vec<LabelEntry>,
    /// Per-group max of radius-`k` signatures over *all* nodes — the
    /// digest consulted for wildcard-labeled query nodes, whose
    /// candidate rows span every data node.
    pub all_sig: Signature,
    /// Per-group max of label-pair signatures over all nodes.
    pub all_pair: Signature,
}

impl MolDigest {
    /// Summarizes one molecule at the given digest radius. `schema` must
    /// be the same label schema the serving plans are built with — the
    /// screen compares digests and query signatures group-for-group.
    pub fn compute(
        graph: &LabeledGraph,
        schema: &LabelSchema,
        pair_schema: &LabelSchema,
        radius: usize,
    ) -> MolDigest {
        let facts = BatchFacts::of_graph(graph, schema, radius, false);
        Self::from_facts(graph.labels(), &facts, pair_schema, radius)
    }

    /// Folds a molecule's facts (built with at least `radius` radii) into
    /// its digest; `labels` are the molecule's node labels.
    pub fn from_facts(
        labels: &[Label],
        facts: &BatchFacts,
        pair_schema: &LabelSchema,
        radius: usize,
    ) -> MolDigest {
        let sigs = (radius > 0).then(|| facts.signatures_at(radius));
        fold(labels, sigs, facts.pairs(), facts.schema(), pair_schema)
    }

    /// Whether the molecule contains ≥ 1 node with raw label `label`.
    #[inline]
    pub fn has_label(&self, label: Label) -> bool {
        self.presence[(label >> 6) as usize] & (1u64 << (label & 63)) != 0
    }

    /// The summary entry for `label`, when present.
    #[inline]
    pub fn entry(&self, label: Label) -> Option<&LabelEntry> {
        self.labels
            .binary_search_by_key(&label, |e| e.label)
            .ok()
            .map(|i| &self.labels[i])
    }
}

/// The digest folded from the per-batch [`SignatureSet`] oracle and
/// [`pair_signature`] over a one-molecule batch — the pre-[`BatchFacts`]
/// definition, kept for the oracle tests.
pub fn reference_digest(
    graph: &LabeledGraph,
    schema: &LabelSchema,
    pair_schema: &LabelSchema,
    radius: usize,
) -> MolDigest {
    let csr = CsrGo::from_graphs(std::slice::from_ref(graph));
    let mut sigs = SignatureSet::new(&csr, schema.clone());
    for _ in 0..radius {
        sigs.advance(&csr);
    }
    let pairs: Vec<Signature> = (0..csr.num_nodes() as NodeId)
        .map(|v| pair_signature(&csr, pair_schema, v))
        .collect();
    fold(
        csr.labels(),
        Some(sigs.signatures()),
        &pairs,
        schema,
        pair_schema,
    )
}

/// The per-group max-join of node signatures (`None`: radius 0, all
/// empty) and pair signatures, overall and per raw label.
fn fold(
    labels: &[Label],
    sigs: Option<&[Signature]>,
    pairs: &[Signature],
    schema: &LabelSchema,
    pair_schema: &LabelSchema,
) -> MolDigest {
    let mut digest = MolDigest {
        presence: [0u64; 4],
        node_count: labels.len() as u32,
        labels: Vec::new(),
        all_sig: Signature::EMPTY,
        all_pair: Signature::EMPTY,
    };
    for (v, (&label, &pair)) in labels.iter().zip(pairs).enumerate() {
        let sig = sigs.map_or(Signature::EMPTY, |s| s[v]);
        digest.presence[(label >> 6) as usize] |= 1u64 << (label & 63);
        digest.all_sig = digest.all_sig.max_groups(schema, &sig);
        digest.all_pair = digest.all_pair.max_groups(pair_schema, &pair);
        match digest.labels.binary_search_by_key(&label, |e| e.label) {
            Ok(i) => {
                let e = &mut digest.labels[i];
                e.sig = e.sig.max_groups(schema, &sig);
                e.pair = e.pair.max_groups(pair_schema, &pair);
            }
            Err(i) => digest.labels.insert(i, LabelEntry { label, sig, pair }),
        }
    }
    digest
}
