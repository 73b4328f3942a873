//! Seeded inputs. Everything here runs before any timing starts, and the
//! program under test receives only what these functions return.
//!
//! Only what a run samples varies with `--seed`: the `screen` corpus and
//! the serve traffic. The query library, the serve query pool and the
//! serve molecules come from [`FIXED_SEED`]. A seeded library gives each
//! run different extracted queries, whose matching costs differ widely,
//! and seeded serve molecules meet the heavy-tailed cost of
//! `canonical_code` differently in every run; both showed as run-to-run
//! spread that more rounds do not remove.

use crate::util::Rng;
use sigmo_graph::LabeledGraph;
use sigmo_mol::{
    functional_groups, ingest_smi, parse_smarts, write_smiles, MoleculeGenerator, QueryExtractor,
};
use sigmo_serve::{PlanCache, WorkloadConfig};

/// The seed of every input that does not vary between runs.
pub const FIXED_SEED: u64 = 0;

/// SMARTS predicate queries. The first six are ring / non-ring pairs that
/// differ only in a node predicate, which the plan-cache key ignores.
pub const SMARTS_PANEL: &[&str] = &[
    "[C;R]N",
    "[C;R0]N",
    "[C;R]O",
    "[C;R0]O",
    "[N;R]C",
    "[N;R0]C",
    "[C,N]=O",
    "[!C]C",
    "[CD4]C",
    "[CH3]C",
    "[O-]C",
    "[cr6]c",
    "[CR]1[CR][CR]1",
    "[C,O]=O",
];

/// Lines that must be quarantined by `.smi` ingest, one per fifty lines.
const MALFORMED: &[&str] = &["C1CC", "C(C", "C=", "[Xx]C", "CC)"];

/// A molecule corpus as `.smi` text plus the graphs its valid lines
/// lower to, in file order.
pub struct Corpus {
    pub smi: String,
    pub graphs: Vec<LabeledGraph>,
    pub lines: usize,
    pub quarantined: usize,
}

/// `n` generated molecules written as `.smi`, with a fixed share of
/// malformed lines mixed in.
pub fn corpus(seed: u64, salt: u64, n: usize) -> Corpus {
    let mols = MoleculeGenerator::with_seed(seed ^ salt).generate_batch(n);
    let mut smi = String::new();
    let mut bad = 0usize;
    for (i, m) in mols.iter().enumerate() {
        if i % 50 == 49 {
            smi.push_str(MALFORMED[bad % MALFORMED.len()]);
            smi.push_str(" malformed\n");
            bad += 1;
        }
        smi.push_str(&write_smiles(m));
        smi.push_str(&format!(" mol{i}\n"));
    }
    let ingest = ingest_smi(&smi, false);
    Corpus {
        graphs: ingest
            .molecules
            .iter()
            .map(|(_, m)| m.to_labeled_graph())
            .collect(),
        lines: n + bad,
        quarantined: ingest.quarantined.len(),
        smi,
    }
}

/// Molecules generated from their own stream and kept only when a cheap
/// isomorphism invariant (node count, edge count, label multiset) differs
/// from every corpus molecule's, so none can intern to a corpus class.
pub fn never_seen(seed: u64, n: usize, corpus: &[LabeledGraph]) -> Vec<LabeledGraph> {
    let known: std::collections::HashSet<_> = corpus.iter().map(invariant).collect();
    let mut gen = MoleculeGenerator::with_seed(seed ^ 0x00ff_5eed);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let g = gen.generate().to_labeled_graph();
        if !known.contains(&invariant(&g)) {
            out.push(g);
        }
    }
    out
}

fn invariant(g: &LabeledGraph) -> (usize, usize, Vec<u8>) {
    let mut labels = g.labels().to_vec();
    labels.sort_unstable();
    (g.num_nodes(), g.num_edges(), labels)
}

/// A named query.
#[derive(Clone)]
pub struct Query {
    pub name: String,
    pub graph: LabeledGraph,
}

/// The screening library: the functional groups, queries extracted from
/// generated molecules, and the SMARTS panel (about 70 in all).
pub fn query_library() -> Vec<Query> {
    let mut out: Vec<Query> = functional_groups()
        .into_iter()
        .map(|q| Query {
            name: q.name.to_string(),
            graph: q.graph,
        })
        .collect();
    let sources = MoleculeGenerator::with_seed(FIXED_SEED ^ 0x11b).generate_batch(300);
    let extracted = QueryExtractor::new(FIXED_SEED ^ 0xe7).extract_batch(&sources, 26, 3, 10);
    for (i, g) in extracted.into_iter().enumerate() {
        out.push(Query {
            name: format!("extracted-{i}"),
            graph: g,
        });
    }
    for s in SMARTS_PANEL {
        out.push(Query {
            name: (*s).to_string(),
            graph: parse_smarts(s).expect("panel SMARTS is valid"),
        });
    }
    out
}

/// The serving query pool: ten seeded sets of library queries, each
/// ending in one SMARTS query, and one ring / non-ring twin pair whose
/// sets differ only in node predicates. Every set holds the
/// `queries_per_set` of the server's own simulator workload
/// (`sim::WorkloadConfig`, 6).
pub fn query_pool(library: &[Query]) -> Vec<Vec<Query>> {
    let per_set = WorkloadConfig::default().queries_per_set;
    let mut rng = Rng::new(FIXED_SEED, 0x9001);
    let plain: Vec<&Query> = library
        .iter()
        .filter(|q| !q.graph.has_predicates())
        .collect();
    let smarts = |s: &str| Query {
        name: s.to_string(),
        graph: parse_smarts(s).expect("panel SMARTS is valid"),
    };
    let mut sets: Vec<Vec<Query>> = (0..10)
        .map(|_| {
            let mut set: Vec<Query> = (0..per_set - 1)
                .map(|_| plain[rng.below(plain.len())].clone())
                .collect();
            set.push(smarts(SMARTS_PANEL[6 + rng.below(SMARTS_PANEL.len() - 6)]));
            set
        })
        .collect();
    let shared: Vec<Query> = (0..per_set - 2)
        .map(|_| plain[rng.below(plain.len())].clone())
        .collect();
    for ring in [["[C;R]N", "[N;R]C"], ["[C;R0]N", "[N;R0]C"]] {
        let mut set = shared.clone();
        set.extend(ring.iter().map(|s| smarts(s)));
        sets.push(set);
    }
    sets
}

/// For each pool set, the sets sharing its plan-cache key (itself
/// included), in pool order.
pub fn key_groups(pool: &[Vec<Query>]) -> Vec<Vec<usize>> {
    let keys: Vec<Vec<u8>> = pool.iter().map(|s| PlanCache::key(&graphs(s))).collect();
    keys.iter()
        .map(|k| (0..pool.len()).filter(|&j| &keys[j] == k).collect())
        .collect()
}

pub fn graphs(set: &[Query]) -> Vec<LabeledGraph> {
    set.iter().map(|q| q.graph.clone()).collect()
}
