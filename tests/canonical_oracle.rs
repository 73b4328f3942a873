//! Byte-identity of the automorphism-pruned canonical search against the
//! unpruned oracle ([`reference_canonical_code`]), plus metamorphic
//! relabeling checks.
//!
//! Pruning skips only subtrees whose leaf codes equal codes already seen,
//! so every code must match the oracle's byte for byte. Which branches are
//! explored depends on node ids, so an unsound prune would also show as a
//! code that changes when the atoms are renumbered.
//!
//! The tier-1 tests cover generator batches, the query libraries, ring
//! systems, the parser-fuzz round-trip corpora and small symmetric inputs.
//! The `#[ignore]`d tests are the release-mode sweep that
//! `scripts/check.sh` runs in its `canon-oracle` stage: the serve
//! benchmark's whole molecule stream against the oracle, relabelings of
//! its most symmetric molecules, and a time bound on symmetric inputs.

use proptest::prelude::*;
use sigmo::graph::LabeledGraph;
use sigmo::mol::{
    canonical_code, functional_groups, ingest_smi, parse_smarts, parse_smiles,
    reference_canonical_code, reference_canonical_search, write_smiles, MoleculeGenerator,
    QueryExtractor,
};

fn assert_matches_oracle(g: &LabeledGraph, what: &str) {
    assert_eq!(
        canonical_code(g),
        reference_canonical_code(g),
        "pruned code differs from the oracle on {what}"
    );
}

fn smiles_graph(s: &str) -> LabeledGraph {
    parse_smiles(s)
        .unwrap_or_else(|e| panic!("SMILES {s:?}: {e}"))
        .to_labeled_graph()
}

/// `copies` copies of `smiles`, dot-joined (hydrogens explicit).
fn joined(smiles: &str, copies: usize) -> LabeledGraph {
    smiles_graph(&vec![smiles; copies].join("."))
}

/// Seeded SplitMix64 stream for the relabeling permutations.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `g` with node `v` renamed `perm[v]`: labels, edges and charges follow.
fn relabel(g: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    let mut out = LabeledGraph::new();
    for &old in &inv {
        out.add_node(g.label(old));
    }
    for (a, b, l) in g.edges() {
        out.add_edge(perm[a as usize], perm[b as usize], l).unwrap();
    }
    for &(v, c) in g.charges() {
        out.set_charge(perm[v as usize], c);
    }
    out
}

/// Asserts that `rounds` seeded random relabelings of `g` keep its code.
fn assert_relabelings_keep_the_code(g: &LabeledGraph, seed: u64, rounds: usize, what: &str) {
    let code = canonical_code(g);
    let mut rng = Rng(seed);
    for round in 0..rounds {
        let mut perm: Vec<u32> = (0..g.num_nodes() as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        assert_eq!(
            canonical_code(&relabel(g, &perm)),
            code,
            "relabeling {round} of {what} changed its code"
        );
    }
}

#[test]
fn generator_batches_match_the_oracle() {
    for seed in [1u64, 2, 3, 5, 8] {
        let batch = MoleculeGenerator::with_seed(seed).generate_batch(24);
        for (i, m) in batch.iter().enumerate() {
            assert_matches_oracle(&m.to_labeled_graph(), &format!("seed {seed} molecule {i}"));
        }
    }
}

/// Every SMARTS pattern the benchmark's library and the SMARTS
/// differential test use.
const SMARTS: &[&str] = &[
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
];

#[test]
fn query_libraries_match_the_oracle() {
    for q in functional_groups() {
        assert_matches_oracle(&q.graph, q.name);
    }
    let sources = MoleculeGenerator::with_seed(0x11b).generate_batch(300);
    let extracted = QueryExtractor::new(0xe7).extract_batch(&sources, 26, 3, 10);
    assert!(!extracted.is_empty());
    for (i, q) in extracted.iter().enumerate() {
        assert_matches_oracle(q, &format!("extracted query {i}"));
    }
    for s in SMARTS {
        assert_matches_oracle(&parse_smarts(s).unwrap(), s);
    }
}

/// The real-grammar ring systems of `tests/properties.rs`.
const RING_SYSTEMS: &[&str] = &[
    "c1ccc2ccccc2c1",
    "C1CC2CCC1C2",
    "C1CCC2(CC1)CCCC2",
    "C12C3C4C1C5C2C3C45",
    "C1CC2CC3CC1CC(C2)C3",
    "C1CCCCCCCCCCC1",
    "CC(C)c1ccc(cc1)C1CCC(CC1)c1ccncc1",
    "C1CCC2C(C1)CCC1C2CCC2CCCC12",
];

#[test]
fn ring_systems_and_symmetric_inputs_match_the_oracle() {
    for s in RING_SYSTEMS {
        assert_matches_oracle(&smiles_graph(s), s);
    }
    assert_matches_oracle(&joined("C", 4), "C.C.C.C");
    assert_matches_oracle(&joined("C1CC1", 3), "C1CC1.C1CC1.C1CC1");
}

/// Symmetric stress inputs: isolated methanes, dot-joined cyclopropanes
/// and cages, all with explicit hydrogens.
fn stress_inputs() -> Vec<(String, LabeledGraph)> {
    let mut out: Vec<(String, LabeledGraph)> = Vec::new();
    for k in [4, 6, 8] {
        out.push((format!("{k} dot-joined C"), joined("C", k)));
    }
    for k in [3, 5] {
        out.push((format!("{k} dot-joined C1CC1"), joined("C1CC1", k)));
    }
    for s in [
        "C12C3C4C1C5C2C3C45",
        "C1CC2CC3CC1CC(C2)C3",
        "c1ccccc1.c1ccccc1",
    ] {
        out.push((s.to_string(), smiles_graph(s)));
    }
    out
}

#[test]
fn relabeled_stress_inputs_keep_their_codes() {
    for (i, (name, g)) in stress_inputs().iter().enumerate() {
        assert_relabelings_keep_the_code(g, 0x5eed + i as u64, 4, name);
    }
}

/// The round-trip corpora of `tests/parser_fuzz.rs`. The property names
/// and strategies are the same, so the vendored proptest draws the same
/// cases (its seed is a function of the property name), and
/// `SIGMO_FUZZ_CASES` scales them the same way.
mod parser_fuzz_corpora {
    use super::*;

    fn fuzz_cases() -> u32 {
        std::env::var("SIGMO_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    fn token_soup(alphabet: &[&str], picks: &[u8]) -> String {
        let mut s = String::new();
        for &p in picks {
            s.push_str(alphabet[p as usize % alphabet.len()]);
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

        #[test]
        fn generated_smiles_round_trip(seed in any::<u64>()) {
            let mut gen = MoleculeGenerator::with_seed(seed);
            for mol in gen.generate_batch(2) {
                let text = write_smiles(&mol);
                assert_matches_oracle(&mol.to_labeled_graph(), &text);
                assert_matches_oracle(&smiles_graph(&text), &text);
            }
        }

        #[test]
        fn bracket_smiles_round_trip(picks in prop::collection::vec(any::<u8>(), 1..12)) {
            const FRAGMENTS: &[&str] = &[
                "C", "[NH4+]", "[O-]", "[13C]", "[CH3]", "[N+]", "[C@H]", "[C@@H2]", "O", "N",
                "(C)", "(=O)", ".", "[S-2]", "[n+]",
            ];
            let s = token_soup(FRAGMENTS, &picks);
            if let Ok(mol) = parse_smiles(&s) {
                let text = write_smiles(&mol);
                assert_matches_oracle(&mol.to_labeled_graph(), &s);
                assert_matches_oracle(&smiles_graph(&text), &text);
            }
        }
    }
}

/// The serve-cold benchmark's molecules at its 30-s run length: the
/// 240-molecule corpus (generator seed `0x5e`, through `.smi` ingest) and
/// the 2,720 never-seen molecules (generator seed `0x00ff_5eed`, keeping
/// those whose node count, edge count and label multiset differ from
/// every corpus molecule's), as `perfbench/src/inputs.rs` builds them.
fn serve_stream() -> Vec<LabeledGraph> {
    fn invariant(g: &LabeledGraph) -> (usize, usize, Vec<u8>) {
        let mut labels = g.labels().to_vec();
        labels.sort_unstable();
        (g.num_nodes(), g.num_edges(), labels)
    }
    let mut smi = String::new();
    for (i, m) in MoleculeGenerator::with_seed(0x5e)
        .generate_batch(240)
        .iter()
        .enumerate()
    {
        smi.push_str(&format!("{} mol{i}\n", write_smiles(m)));
    }
    let mut out: Vec<LabeledGraph> = ingest_smi(&smi, false)
        .molecules
        .iter()
        .map(|(_, m)| m.to_labeled_graph())
        .collect();
    let known: std::collections::HashSet<_> = out.iter().map(invariant).collect();
    let mut gen = MoleculeGenerator::with_seed(0x00ff_5eed);
    let mut fresh = 0;
    while fresh < 2720 {
        let g = gen.generate().to_labeled_graph();
        if !known.contains(&invariant(&g)) {
            out.push(g);
            fresh += 1;
        }
    }
    out
}

/// Release-mode sweep: every serve-stream molecule matches the oracle,
/// and the 20 with the largest unpruned trees keep their codes under
/// seeded relabelings.
#[test]
#[ignore = "release-mode sweep; run by scripts/check.sh (canon-oracle)"]
fn serve_stream_matches_the_oracle_and_survives_relabeling() {
    let stream = serve_stream();
    assert_eq!(stream.len(), 240 + 2720);
    let mut leaves: Vec<(u64, usize)> = Vec::with_capacity(stream.len());
    for (i, g) in stream.iter().enumerate() {
        let (code, n) = reference_canonical_search(g);
        assert_eq!(canonical_code(g), code, "stream molecule {i}");
        leaves.push((n, i));
    }
    leaves.sort_unstable_by(|a, b| b.cmp(a));
    assert!(leaves[0].0 > 1000, "the sweep must include a large tree");
    for &(n, i) in &leaves[..20] {
        assert_relabelings_keep_the_code(
            &stream[i],
            i as u64,
            8,
            &format!("stream molecule {i} ({n} unpruned leaves)"),
        );
    }
}

/// Release-mode bound: symmetric inputs whose unpruned trees are
/// astronomically large canonicalize in well under 10 ms each.
#[test]
#[ignore = "release-mode timing; run by scripts/check.sh (canon-oracle)"]
fn symmetric_inputs_canonicalize_within_ten_ms() {
    for (name, g) in [
        ("C.C.C.C.C.C.C.C", joined("C", 8)),
        ("5 dot-joined C1CC1", joined("C1CC1", 5)),
    ] {
        // One untimed call first, so the process's first-touch costs are
        // not charged to the search.
        canonical_code(&g);
        let start = std::time::Instant::now();
        std::hint::black_box(canonical_code(std::hint::black_box(&g)));
        let took = start.elapsed();
        assert!(
            took < std::time::Duration::from_millis(10),
            "{name} took {took:?}"
        );
    }
}
