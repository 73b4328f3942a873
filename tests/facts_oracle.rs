//! Oracle pins for per-molecule facts (DESIGN.md §16).
//!
//! The engine, the query plans and the index digests all read node
//! signatures, label-pair signatures and predicate attributes built by one
//! routine (`sigmo_core::facts`). These tests hold that routine to the
//! per-batch oracles it replaced:
//!
//! * concatenated [`MolFacts`] equal the per-batch [`SignatureSet`] at
//!   every radius (signatures and active counts), [`pair_signature`], the
//!   batch's [`NodeAttrs`] and the per-edge-BFS ring sizes;
//! * digests folded from facts equal [`reference_digest`];
//! * `SIGMOIDX` bytes equal the bytes the SignatureSet-based digests
//!   produced (pinned hashes);
//! * query plans keep their classes, deltas, active counts, last dirty
//!   radius and pair rows.

use sigmo::core::filter::{pair_rows, pair_schema, pair_signature};
use sigmo::core::{
    BatchFacts, DeltaClasses, EngineConfig, LabelSchema, MolFacts, QueryPlan, Signature,
    SignatureClasses, SignatureSet,
};
use sigmo::graph::{reference_min_ring_sizes, CsrGo, LabeledGraph, NodeId, WILDCARD_LABEL};
use sigmo::index::digest::reference_digest;
use sigmo::index::{serialize, IndexConfig, MolDigest, MoleculeIndex};
use sigmo::mol::{
    functional_groups, parse_smarts, parse_smiles, MoleculeGenerator, QueryExtractor,
};

/// The eight ring-system SMILES of `tests/properties.rs`: fused, bridged,
/// spiro, cage, macrocycle and bridge-joined rings.
const RING_SYSTEMS: [&str; 8] = [
    "c1ccc2ccccc2c1",
    "C1CC2CCC1C2",
    "C1CCC2(CC1)CCCC2",
    "C12C3C4C1C5C2C3C45",
    "C1CC2CC3CC1CC(C2)C3",
    "C1CCCCCCCCCCC1",
    "CC(C)c1ccc(cc1)C1CCC(CC1)c1ccncc1",
    "C1CCC2C(C1)CCC1C2CCC2CCCC12",
];

/// The SMARTS predicate panel of `tests/smarts_differential.rs`.
const SMARTS_PANEL: [&str; 13] = [
    "[C,N]",
    "[!C]",
    "[CD4]",
    "[CR]",
    "[R0]",
    "[CH3]",
    "[O-]",
    "[N+]",
    "[C;R]",
    "[cr6]",
    "C[!C]",
    "[C,O]=O",
    "[CR]1[CR][CR]1",
];

fn generated(seed: u64, count: usize) -> Vec<LabeledGraph> {
    MoleculeGenerator::with_seed(seed)
        .generate_batch(count)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect()
}

/// Random graphs with every third node wildcard-labeled.
fn wildcard_graphs() -> Vec<LabeledGraph> {
    (0..12u64)
        .map(|i| {
            let g = sigmo::graph::random_sparse_graph(9, 4, 12, 900 + i);
            let mut w = LabeledGraph::new();
            for v in 0..g.num_nodes() as NodeId {
                w.add_node(if v % 3 == 0 {
                    WILDCARD_LABEL
                } else {
                    g.label(v)
                });
            }
            for (a, b, l) in g.edges() {
                w.add_edge(a, b, l).unwrap();
            }
            w
        })
        .collect()
}

/// Isolated atoms and empty graphs, interleaved with small molecules.
fn degenerate_graphs() -> Vec<LabeledGraph> {
    vec![
        LabeledGraph::new(),
        LabeledGraph::with_uniform_labels(3, 1),
        LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap(),
        LabeledGraph::new(),
        LabeledGraph::with_uniform_labels(1, WILDCARD_LABEL),
        LabeledGraph::new(),
    ]
}

fn ring_systems() -> Vec<LabeledGraph> {
    RING_SYSTEMS
        .iter()
        .map(|s| parse_smiles(s).unwrap().to_labeled_graph())
        .collect()
}

fn batches() -> Vec<(String, Vec<LabeledGraph>)> {
    let mut out: Vec<(String, Vec<LabeledGraph>)> = [3u64, 17, 91]
        .iter()
        .map(|&seed| (format!("generator seed {seed}"), generated(seed, 30)))
        .collect();
    out.push(("wildcard".into(), wildcard_graphs()));
    out.push(("degenerate".into(), degenerate_graphs()));
    out.push(("ring systems".into(), ring_systems()));
    out
}

/// Facts at this depth cover every radius the default engine and index
/// read, plus one.
const DEPTH: usize = 6;

#[test]
fn concatenated_mol_facts_equal_the_per_batch_oracles() {
    let schema = LabelSchema::organic();
    for (name, graphs) in batches() {
        let batch = CsrGo::from_graphs(&graphs);
        let mols: Vec<MolFacts> = graphs
            .iter()
            .map(|g| MolFacts::build(g, &schema, DEPTH))
            .collect();
        let stored: Vec<Option<&MolFacts>> = mols.iter().map(Some).collect();
        let facts = BatchFacts::assemble(&batch, &stored, &schema, DEPTH, true);
        assert_eq!(
            facts,
            BatchFacts::compute(&batch, &schema, DEPTH, true),
            "{name}: concatenated and per-batch facts differ"
        );

        let mut oracle = SignatureSet::new(&batch, schema.clone());
        for r in 1..=DEPTH {
            oracle.advance(&batch);
            assert_eq!(facts.signatures_at(r), oracle.signatures(), "{name} r={r}");
        }
        let pairs: Vec<Signature> = (0..batch.num_nodes() as NodeId)
            .map(|v| pair_signature(&batch, &pair_schema(), v))
            .collect();
        assert_eq!(facts.pairs(), pairs.as_slice(), "{name}: pair signatures");
        let attrs = facts.attrs().expect("built with attributes");
        assert_eq!(attrs, &batch.node_attrs(), "{name}: node attributes");
        let csr = batch.csr();
        assert_eq!(
            attrs.min_ring,
            reference_min_ring_sizes(csr.row_offsets(), csr.column_indices()),
            "{name}: ring sizes"
        );
    }
}

#[test]
fn digests_folded_from_facts_equal_the_reference_digest() {
    let schema = LabelSchema::organic();
    let pairs = pair_schema();
    for (name, graphs) in batches() {
        for (i, g) in graphs.iter().enumerate() {
            for radius in 0..=5 {
                let digest = MolDigest::compute(g, &schema, &pairs, radius);
                assert_eq!(
                    digest,
                    reference_digest(g, &schema, &pairs, radius),
                    "{name} molecule {i} radius {radius}"
                );
            }
            // Presence, node count and sorted entries follow the labels;
            // the max-join dominates every node's own signatures.
            let digest = MolDigest::compute(g, &schema, &pairs, 3);
            assert_eq!(digest.node_count as usize, g.num_nodes());
            let mut present: Vec<u8> = g.labels().to_vec();
            present.sort_unstable();
            present.dedup();
            let listed: Vec<u8> = digest.labels.iter().map(|e| e.label).collect();
            assert_eq!(listed, present, "{name} molecule {i}");
            assert!((0..=255u8).all(|l| digest.has_label(l) == present.contains(&l)));
            let facts = MolFacts::build(g, &schema, 3);
            for v in 0..g.num_nodes() {
                let sig = facts.facts().signatures_at(3)[v];
                let pair = facts.facts().pairs()[v];
                let entry = digest.entry(g.label(v as NodeId)).expect("present label");
                assert!(entry.sig.dominates(&schema, &sig));
                assert!(digest.all_sig.dominates(&schema, &sig));
                assert!(entry.pair.dominates(&pairs, &pair));
                assert!(digest.all_pair.dominates(&pairs, &pair));
            }
        }
    }
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn index_bytes(graphs: &[LabeledGraph], radius: usize) -> Vec<u8> {
    let schema = EngineConfig::default().schema;
    let mut index = MoleculeIndex::new(IndexConfig { radius }, &schema);
    for (id, g) in graphs.iter().enumerate() {
        index.add(id as u32, g);
    }
    // Tombstone a few so the compaction path is covered too.
    for id in (0..graphs.len() as u32).step_by(97) {
        index.remove(id);
    }
    let refs: Vec<Option<&LabeledGraph>> = graphs.iter().map(Some).collect();
    serialize(&index, &refs)
}

/// `SIGMOIDX` files are byte-identical to those the SignatureSet-based
/// digests wrote: the hashes were recorded from that build on the same
/// corpora (the `ext_index` corpus at its smallest tier, a generator
/// batch, the wildcard and ring-system graphs).
#[test]
fn sigmoidx_bytes_match_the_signature_set_build() {
    let ext_index = sigmo_bench::index_bench::build_corpus(1000);
    let mut mixed = generated(7, 200);
    mixed.extend(wildcard_graphs());
    mixed.extend(ring_systems());
    let cases: [(&str, &[LabeledGraph], usize, u64); 3] = [
        ("ext_index corpus", &ext_index, 4, 0x729d_c741_55fa_b8fe),
        ("mixed corpus r4", &mixed, 4, 0x785e_2f84_c04a_2e01),
        ("mixed corpus r2", &mixed, 2, 0x9764_adbe_d3a0_3977),
    ];
    for (name, graphs, radius, pinned) in cases {
        assert_eq!(fnv1a(&index_bytes(graphs, radius)), pinned, "{name}");
    }
}

/// The pre-facts plan build: a SignatureSet advanced radius by radius.
fn assert_plan_unchanged(name: &str, queries: &[LabeledGraph], cfg: &EngineConfig) {
    let plan = QueryPlan::build(queries, cfg);
    let csr = CsrGo::from_graphs(queries);
    let mut set = SignatureSet::new(&csr, cfg.schema.clone());
    let mut prev = set.signatures().to_vec();
    let mut last_dirty = 0;
    for r in 1..cfg.refinement_iterations {
        set.advance(&csr);
        let cur = set.signatures();
        let delta = DeltaClasses::build(&cfg.schema, &prev, cur);
        if !delta.is_empty() {
            last_dirty = r;
        }
        assert_eq!(plan.signatures_at(r), cur, "{name} r={r}");
        assert_eq!(plan.delta_at(r), &delta, "{name} r={r}");
        assert_eq!(
            plan.classes_at(r),
            &SignatureClasses::build(cur),
            "{name} r={r}"
        );
        prev = cur.to_vec();
    }
    assert_eq!(plan.last_dirty_radius(), last_dirty, "{name}");
    let pairs: Vec<Signature> = (0..csr.num_nodes() as NodeId)
        .map(|v| pair_signature(&csr, &pair_schema(), v))
        .collect();
    assert_eq!(
        plan.pair_rows(),
        pair_rows(&pairs, &pair_schema()),
        "{name}"
    );
}

#[test]
fn query_plans_are_unchanged_on_the_query_libraries() {
    let groups: Vec<LabeledGraph> = functional_groups().into_iter().map(|q| q.graph).collect();
    let panel: Vec<LabeledGraph> = SMARTS_PANEL
        .iter()
        .map(|s| parse_smarts(s).unwrap())
        .collect();
    let mut extractor = QueryExtractor::new(5);
    let extracted: Vec<LabeledGraph> = MoleculeGenerator::with_seed(29)
        .generate_batch(40)
        .iter()
        .enumerate()
        .filter_map(|(i, m)| extractor.extract(m, 3 + i % 6))
        .collect();
    assert!(extracted.len() > 20, "the extractor must yield queries");
    let libraries = [
        ("functional groups", groups),
        ("SMARTS panel", panel),
        ("generator queries", extracted),
    ];
    for iterations in [1, 3, 6, 9] {
        let cfg = EngineConfig::with_iterations(iterations);
        for (name, queries) in &libraries {
            assert_plan_unchanged(&format!("{name} at {iterations}"), queries, &cfg);
        }
    }
}
