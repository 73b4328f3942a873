//! Bulk `.smi` ingest under fire: a large mixed-validity corpus must
//! ingest deterministically — same molecules, same quarantine lines, same
//! errors — under every rayon thread count, and an index built from the
//! ingested corpus must serialize → thaw → serialize byte-identically.
//!
//! Kept alone in this file: the determinism test mutates
//! `RAYON_NUM_THREADS`, and each integration-test file runs as its own
//! process, so the env var cannot race another test file.

use std::sync::Mutex;

use sigmo::core::EngineConfig;
use sigmo::graph::LabeledGraph;
use sigmo::index::{serialize, FrozenIndex, IndexConfig, MoleculeIndex};
use sigmo::mol::{
    canonical_code, cycle_basis, ingest_smi, write_smiles, MoleculeGenerator, SmiIngest,
};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Definitely-malformed SMILES records: unbalanced branches, unclosed
/// rings, unknown elements, unterminated brackets, dangling bonds, bare
/// ring digits, and short `%` closures.
const BAD_RECORDS: &[&str] = &[
    "C(", "(C", "C1CC", "[Xx]", "[C", "C=", "C)", "1CC", "C%1", "C#", "[13", "N((", "CC]",
];

/// Valid hand-written records exercising the bracket grammar (charges,
/// isotopes, aromatics) beyond what the generator emits.
const CHARGED_RECORDS: &[&str] = &[
    "CC(=O)[O-] acetate",
    "[NH4+] ammonium",
    "c1ccccc1O phenol",
    "[O-]S(=O)(=O)[O-] sulfate",
    "[13CH4] heavy-methane",
];

/// Builds a ≥5000-line corpus deterministically: generated molecules with
/// names, charged literals, blank lines, comments, and malformed records
/// at known positions. Returns the text, the expected 1-based quarantine
/// line numbers, and the expected number of ingested molecules.
fn build_corpus(lines: usize) -> (String, Vec<usize>, usize) {
    let mut gen = MoleculeGenerator::with_seed(7);
    let pool: Vec<String> = gen.generate_batch(64).iter().map(write_smiles).collect();

    let mut text = String::new();
    let mut bad_lines = Vec::new();
    let mut valid = 0usize;
    for i in 0..lines {
        let lineno = i + 1;
        match i % 10 {
            3 => {
                text.push_str(BAD_RECORDS[i / 10 % BAD_RECORDS.len()]);
                text.push_str(" junk-name\n");
                bad_lines.push(lineno);
            }
            7 => {
                // Skipped, never quarantined: blank or comment.
                if i % 20 == 7 {
                    text.push('\n');
                } else {
                    text.push_str("# comment line\n");
                }
            }
            5 => {
                text.push_str(CHARGED_RECORDS[i / 10 % CHARGED_RECORDS.len()]);
                text.push('\n');
                valid += 1;
            }
            _ => {
                text.push_str(&pool[(i / 3) % pool.len()]);
                text.push_str(&format!(" mol{lineno}\n"));
                valid += 1;
            }
        }
    }
    (text, bad_lines, valid)
}

/// Named writer output in order, plus the full quarantine records.
type IngestFingerprint = (Vec<(String, String)>, Vec<(usize, String, String)>);

/// Collapses an ingest result to a comparable fingerprint: named writer
/// output in order (cheap, and injective enough — a divergent parse would
/// write differently), plus the full quarantine records.
fn fingerprint(ingest: &SmiIngest) -> IngestFingerprint {
    (
        ingest
            .molecules
            .iter()
            .map(|(name, mol)| (name.clone(), write_smiles(mol)))
            .collect(),
        ingest
            .quarantined
            .iter()
            .map(|q| (q.line, q.text.clone(), q.error.clone()))
            .collect(),
    )
}

/// A 6000-line mixed corpus ingests identically — molecule for molecule,
/// quarantine line for quarantine line — under thread counts 1, 4 and 8,
/// and the quarantine hits exactly the malformed positions.
#[test]
fn large_mixed_corpus_ingests_deterministically() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (text, expected_bad, expected_valid) = build_corpus(6000);
    assert!(
        expected_bad.len() >= 500,
        "corpus must stress the quarantine"
    );

    let mut runs = Vec::new();
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let ingest = ingest_smi(&text, false);
        assert_eq!(
            ingest.molecules.len(),
            expected_valid,
            "valid-line count diverged at {threads} threads"
        );
        let got_bad: Vec<usize> = ingest.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(
            got_bad, expected_bad,
            "quarantine line numbers diverged at {threads} threads"
        );
        for q in &ingest.quarantined {
            assert!(
                !q.error.is_empty(),
                "line {} quarantined without a reason",
                q.line
            );
        }
        runs.push(fingerprint(&ingest));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(runs[0], runs[1], "threads 1 vs 4 diverged");
    assert_eq!(runs[0], runs[2], "threads 1 vs 8 diverged");

    // Named lines keep their names; unnamed lines get the line default.
    let (codes, _) = &runs[0];
    assert!(codes.iter().any(|(n, _)| n == "acetate"));
    assert!(codes.iter().any(|(n, _)| n.starts_with("mol")));
}

/// An index built from an ingested corpus is a byte-level serialization
/// fixpoint through freeze → open → thaw → freeze.
#[test]
fn ingested_corpus_index_round_trips_byte_identically() {
    let (text, _, _) = build_corpus(5000);
    let ingest = ingest_smi(&text, false);
    assert!(ingest.molecules.len() > 3000);

    // A representative slice keeps the digest build cheap; it still spans
    // every corpus stripe (generated, charged, aromatic).
    let graphs: Vec<LabeledGraph> = ingest
        .molecules
        .iter()
        .step_by(4)
        .map(|(_, mol)| mol.to_labeled_graph())
        .collect();
    assert!(graphs.len() > 800);
    let config = EngineConfig::default();
    let mut index = MoleculeIndex::new(IndexConfig { radius: 2 }, &config.schema);
    for (id, g) in graphs.iter().enumerate() {
        index.add(id as u32, g);
    }
    let refs: Vec<Option<&LabeledGraph>> = graphs.iter().map(Some).collect();
    let bytes = serialize(&index, &refs);

    let frozen = FrozenIndex::open(bytes.clone()).expect("fresh bytes must open");
    let (thawed, thawed_graphs) = frozen.thaw().expect("fresh bytes must thaw");
    let thawed_refs: Vec<Option<&LabeledGraph>> =
        thawed_graphs.iter().map(Option::as_ref).collect();
    let again = serialize(&thawed, &thawed_refs);
    assert_eq!(bytes, again, "second serialization diverged");

    // The thawed graphs carry the charges through the v2 blob format:
    // the ingested corpus includes charged molecules, and charge is part
    // of the canonical code, so a dropped charge section would show here.
    for (id, g) in graphs.iter().enumerate() {
        let back = thawed_graphs[id].as_ref().expect("graph blob present");
        assert_eq!(
            canonical_code(g),
            canonical_code(back),
            "molecule {id} changed through the disk round trip"
        );
    }
}

/// FNV-1a over a byte stream: the ingest pin's digest.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Folds everything ingest produces into `h`: each molecule's name, node
/// labels, ordered neighbour lists with bond labels, bond records,
/// charges, isotopes, aromatic flags and cycle basis (rings in order,
/// members in order), then every quarantined line with its error text.
fn digest_ingest(h: &mut Fnv1a, ingest: &SmiIngest) {
    h.u32(ingest.considered as u32);
    h.u32(ingest.molecules.len() as u32);
    for (name, mol) in &ingest.molecules {
        h.bytes(name.as_bytes());
        let g = mol.graph();
        h.u32(g.num_nodes() as u32);
        h.bytes(g.labels());
        for v in 0..g.num_nodes() as u32 {
            let nbrs = g.neighbors(v);
            h.u32(nbrs.len() as u32);
            for &(u, l) in nbrs {
                h.u32(u);
                h.bytes(&[l]);
            }
            h.bytes(&[
                g.charge(v) as u8,
                mol.charge(v) as u8,
                mol.is_aromatic(v) as u8,
            ]);
            h.u32(mol.isotope(v) as u32);
        }
        for b in mol.bonds() {
            h.u32(b.a);
            h.u32(b.b);
            h.bytes(&[b.order as u8]);
        }
        let rings = cycle_basis(mol);
        h.u32(rings.len() as u32);
        for ring in &rings {
            h.u32(ring.len() as u32);
            for &v in ring {
                h.u32(v);
            }
        }
    }
    for q in &ingest.quarantined {
        h.u32(q.line as u32);
        h.bytes(q.text.as_bytes());
        h.bytes(q.error.as_bytes());
    }
}

/// The pinned ingest corpora: a 2000-line stretch of the mixed corpus
/// above, and four generator streams written out as `.smi` with malformed
/// records every 23rd line and the ring-system literals appended.
fn pinned_corpora() -> Vec<String> {
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
    let mut corpora = vec![build_corpus(2000).0];
    for seed in [1u64, 7, 0x5c ^ 7, 2026] {
        let mut text = String::new();
        let mols = MoleculeGenerator::with_seed(seed).generate_batch(150);
        for (i, m) in mols.iter().enumerate() {
            if i % 23 == 22 {
                text.push_str(BAD_RECORDS[i % BAD_RECORDS.len()]);
                text.push_str(" malformed\n");
            }
            text.push_str(&write_smiles(m));
            text.push_str(&format!(" s{seed}m{i}\n"));
        }
        for (i, s) in RING_SYSTEMS.iter().enumerate() {
            text.push_str(&format!("{s} ring{i}\n"));
        }
        corpora.push(text);
    }
    corpora
}

/// Ingest output is pinned bit for bit: one FNV-1a digest over every
/// molecule's labels, ordered neighbour lists, bond labels, charges,
/// aromatic flags and cycle basis, and every quarantine record, for the
/// pinned corpora with and without hydrogens. The corpora come from the
/// seeded generator, so the pin also holds its stream fixed; a change to
/// the parser, hydrogen materialization, ring perception or the graph's
/// neighbour order shows here even when the graphs stay isomorphic.
#[test]
fn ingest_output_is_pinned() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut h = Fnv1a::new();
    for text in pinned_corpora() {
        for heavy_only in [false, true] {
            digest_ingest(&mut h, &ingest_smi(&text, heavy_only));
        }
    }
    assert_eq!(
        h.0, 0x9c31_9142_c2e4_998f,
        "ingest digest moved: {:#018x}",
        h.0
    );
}
