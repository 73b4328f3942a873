//! Structured fuzz battery for the SMILES and SMARTS parsers.
//!
//! Three layers, all seeded and deterministic:
//!
//! 1. **Raw bytes never panic** — arbitrary byte soup through both
//!    parsers; every outcome must be `Ok` or a typed error.
//! 2. **Grammar-shaped garbage never panics** — token streams drawn from
//!    each parser's own alphabet (brackets, ring digits, predicates,
//!    charges …), which reach far deeper than uniform bytes.
//! 3. **Valid inputs round-trip** — generated molecules (including
//!    charged bracket-atom variants) survive `parse → write → parse` with
//!    an identical canonical code.
//! 4. **Ring perception equals its reference** — `cycle_basis` on every
//!    molecule the token soups, the generator and the ring-system SMILES
//!    yield returns the rings of the hash-set reference below, in order.
//! 5. **Errors name text that is in the input** — every error offset lies
//!    on a char boundary inside the input, an unexpected character is the
//!    one at that offset, and an unknown element symbol is spelled there.
//! 6. **Outputs are pinned** — one FNV-1a digest over both parsers'
//!    complete results on a fixed seeded corpus (`parser_outputs_are_pinned`).
//!
//! The case count defaults low so tier-1 stays fast; `scripts/check.sh`
//! reruns this file with `SIGMO_FUZZ_CASES=10000` for the deep sweep.

use proptest::prelude::*;
use sigmo::graph::LabeledGraph;
use sigmo::graph::NodeId;
use sigmo::mol::{
    canonical_code, cycle_basis, parse_smarts, parse_smiles, parse_smiles_heavy, write_smiles,
    Molecule, MoleculeGenerator, SmartsError, SmilesError,
};
use std::collections::{HashSet, VecDeque};

/// Per-test case count: `SIGMO_FUZZ_CASES` when set, else a tier-1-fast
/// default.
fn fuzz_cases() -> u32 {
    std::env::var("SIGMO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Builds a token-soup string from the given alphabet. Grammar-shaped
/// garbage: individually valid tokens in arbitrary order, which exercises
/// bracket bodies, ring bookkeeping, and branch stacks far more than
/// uniform bytes can.
fn token_soup(alphabet: &[&str], picks: &[u8]) -> String {
    let mut s = String::new();
    for &p in picks {
        s.push_str(alphabet[p as usize % alphabet.len()]);
    }
    s
}

const SMILES_TOKENS: &[&str] = &[
    "C", "c", "N", "n", "O", "o", "S", "s", "P", "F", "Cl", "Br", "Si", "H", "B", "(", ")", "=",
    "#", "-", ".", "1", "2", "3", "%", "[", "]", "@", "@@", "+", "-", "+2", "H4", ":", "0", "13",
    "Xx",
];

/// The bracket-heavy fragment vocabulary of the round-trip layer.
const FRAGMENTS: &[&str] = &[
    "C", "[NH4+]", "[O-]", "[13C]", "[CH3]", "[N+]", "[C@H]", "[C@@H2]", "O", "N", "(C)", "(=O)",
    ".", "[S-2]", "[n+]",
];

/// Fused, bridged, spiro, cage, macrocycle and bridge-joined rings.
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

/// The cycle basis as first written, kept as the reference: a BFS forest
/// with its tree edges in a hash set and a fresh queue per root, then for
/// each non-tree edge `(a, b)` in edge order the ring `a → … → lca → … → b`.
fn reference_cycle_basis(mol: &Molecule) -> Vec<Vec<NodeId>> {
    let g = mol.graph();
    let n = mol.num_atoms();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut depth: Vec<u32> = vec![0; n];
    let mut visited = vec![false; n];
    let mut tree_edge = HashSet::new();
    let mut rings = Vec::new();
    for root in 0..n as NodeId {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        let mut queue = VecDeque::new();
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            for &(u, _) in g.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    parent[u as usize] = Some(v);
                    depth[u as usize] = depth[v as usize] + 1;
                    tree_edge.insert((v.min(u), v.max(u)));
                    queue.push_back(u);
                }
            }
        }
    }
    for (a, b, _) in g.edges() {
        if tree_edge.contains(&(a.min(b), a.max(b))) {
            continue;
        }
        let (mut x, mut y) = (a, b);
        let mut path_x = vec![x];
        let mut path_y = vec![y];
        while depth[x as usize] > depth[y as usize] {
            x = parent[x as usize].unwrap();
            path_x.push(x);
        }
        while depth[y as usize] > depth[x as usize] {
            y = parent[y as usize].unwrap();
            path_y.push(y);
        }
        while x != y {
            x = parent[x as usize].unwrap();
            y = parent[y as usize].unwrap();
            path_x.push(x);
            path_y.push(y);
        }
        path_y.pop();
        path_y.reverse();
        path_x.extend(path_y);
        rings.push(path_x);
    }
    rings
}

/// Fails unless `cycle_basis` equals the reference on `mol`, ring for
/// ring and member for member.
fn check_cycle_basis(mol: &Molecule, source: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        cycle_basis(mol),
        reference_cycle_basis(mol),
        "cycle basis of {:?}",
        source
    );
    Ok(())
}

const SMARTS_TOKENS: &[&str] = &[
    "C", "c", "N", "O", "*", "~", "=", "#", "-", "(", ")", "1", "2", "[", "]", "!", ",", ";", "&",
    "D", "D2", "H", "H2", "R", "R0", "r", "r5", "r12", "+", "-", "+2", "$", "$(C)", "Xy",
];

/// Tokens whose errors are easy to misreport: non-ASCII characters,
/// lowercase letters that are no aromatic element, two-letter symbols
/// outside an organic subset, and characters neither dialect reads.
const HOSTILE_TOKENS: &[&str] = &[
    "é", "中", "Ã", "\u{0}", "x", "h", "i", "Si", "Sc", "[x]", "[h]", "[é]", "[C中]", "%", "%1",
    "~", ":", "0", "*", "?", " ",
];

/// An error's offset, unexpected char and element symbol, where it has them.
type ErrorText<'a> = (Option<usize>, Option<char>, Option<&'a str>);

fn smiles_error_text(e: &SmilesError) -> ErrorText<'_> {
    match e {
        SmilesError::Unexpected { at, found } => (Some(*at), Some(*found), None),
        SmilesError::UnknownElement { at, symbol } => (Some(*at), None, Some(symbol)),
        SmilesError::Parenthesis { at } | SmilesError::DanglingBond { at } => {
            (Some(*at), None, None)
        }
        _ => (None, None, None),
    }
}

fn smarts_error_text(e: &SmartsError) -> ErrorText<'_> {
    match e {
        SmartsError::Unexpected { at, found } => (Some(*at), Some(*found), None),
        SmartsError::UnknownElement { at, symbol } => (Some(*at), None, Some(symbol)),
        SmartsError::Unsupported { at, .. }
        | SmartsError::Parenthesis { at }
        | SmartsError::DanglingBond { at } => (Some(*at), None, None),
        _ => (None, None, None),
    }
}

/// Fails unless an error's offset and text come from `s`: `at` is at most
/// the input length and on a char boundary, `found` is the char that
/// starts at `at`, and `symbol` is spelled at `at`.
fn check_error_text(s: &str, (at, found, symbol): ErrorText) -> Result<(), TestCaseError> {
    let Some(at) = at else { return Ok(()) };
    prop_assert!(
        at <= s.len() && s.is_char_boundary(at),
        "offset {} in {:?}",
        at,
        s
    );
    if let Some(found) = found {
        prop_assert_eq!(s[at..].chars().next(), Some(found), "found char in {:?}", s);
    }
    if let Some(symbol) = symbol {
        prop_assert!(
            s[at..].starts_with(symbol),
            "symbol {:?} in {:?}",
            symbol,
            s
        );
    }
    Ok(())
}

/// Checks both parsers' errors on `s` with [`check_error_text`].
fn check_errors_name_input_text(s: &str) -> Result<(), TestCaseError> {
    if let Err(e) = parse_smiles(s) {
        check_error_text(s, smiles_error_text(&e))?;
    }
    if let Err(e) = parse_smarts(s) {
        check_error_text(s, smarts_error_text(&e))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// Arbitrary bytes: both parsers must return, never panic.
    #[test]
    fn raw_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..80)) {
        let s = String::from_utf8_lossy(&bytes);
        let _ = parse_smiles(&s);
        let _ = parse_smarts(&s);
    }

    /// SMILES-alphabet token soup: every outcome is Ok or a typed error,
    /// and an Ok parse yields a structurally sane molecule.
    #[test]
    fn smiles_token_soup_never_panics(picks in prop::collection::vec(any::<u8>(), 0..40)) {
        let s = token_soup(SMILES_TOKENS, &picks);
        if let Ok(mol) = parse_smiles(&s) {
            let g = mol.to_labeled_graph();
            prop_assert_eq!(g.num_nodes(), mol.num_atoms());
        }
    }

    /// SMARTS-alphabet token soup (predicates, lists, negation, recursive
    /// rejects): never panics, and an Ok parse yields a non-empty graph.
    #[test]
    fn smarts_token_soup_never_panics(picks in prop::collection::vec(any::<u8>(), 0..40)) {
        let s = token_soup(SMARTS_TOKENS, &picks);
        if let Ok(g) = parse_smarts(&s) {
            prop_assert!(g.num_nodes() > 0);
        }
    }

    /// Every error names text that is in the input, over raw bytes
    /// (non-ASCII included) and over the three token alphabets.
    #[test]
    fn errors_name_text_in_the_input(
        bytes in prop::collection::vec(any::<u8>(), 0..80),
        picks in prop::collection::vec(any::<u8>(), 0..40),
    ) {
        check_errors_name_input_text(&String::from_utf8_lossy(&bytes))?;
        for alphabet in [SMILES_TOKENS, SMARTS_TOKENS, HOSTILE_TOKENS] {
            check_errors_name_input_text(&token_soup(alphabet, &picks))?;
        }
    }

    /// Generated-valid molecules round-trip: parse(write(m)) is
    /// canonically identical to m.
    #[test]
    fn generated_smiles_round_trip(seed in any::<u64>()) {
        let mut gen = MoleculeGenerator::with_seed(seed);
        for mol in gen.generate_batch(2) {
            let text = write_smiles(&mol);
            let back = parse_smiles(&text)
                .unwrap_or_else(|e| panic!("own output {text:?} failed to parse: {e}"));
            prop_assert_eq!(
                canonical_code(&mol.to_labeled_graph()),
                canonical_code(&back.to_labeled_graph()),
                "round trip through {:?} changed the molecule", text
            );
        }
    }

    /// Charged/isotopic bracket SMILES round-trip whenever they parse:
    /// compose fragments over a bracket-heavy vocabulary, and for every
    /// valid input pin write → parse canonical identity.
    #[test]
    fn bracket_smiles_round_trip(picks in prop::collection::vec(any::<u8>(), 1..12)) {
        let s = token_soup(FRAGMENTS, &picks);
        if let Ok(mol) = parse_smiles(&s) {
            let text = write_smiles(&mol);
            let back = parse_smiles(&text)
                .unwrap_or_else(|e| panic!("own output {text:?} failed to parse: {e}"));
            prop_assert_eq!(
                canonical_code(&mol.to_labeled_graph()),
                canonical_code(&back.to_labeled_graph()),
                "round trip through {:?} changed the molecule", text
            );
        }
    }

    /// Ring perception equals the reference on every molecule the two
    /// token-soup corpora parse to (ring digits, branches, dots and
    /// bracket atoms in arbitrary order) and on generated molecules, with
    /// and without their hydrogens.
    #[test]
    fn cycle_basis_equals_the_reference(
        picks in prop::collection::vec(any::<u8>(), 0..40),
        seed in any::<u64>(),
    ) {
        for alphabet in [SMILES_TOKENS, FRAGMENTS] {
            let s = token_soup(alphabet, &picks);
            if let Ok(mol) = parse_smiles(&s) {
                check_cycle_basis(&mol, &s)?;
            }
        }
        for mol in MoleculeGenerator::with_seed(seed).generate_batch(2) {
            let text = write_smiles(&mol);
            check_cycle_basis(&mol, &text)?;
            let heavy = sigmo::mol::parse_smiles_heavy(&text).unwrap();
            check_cycle_basis(&heavy, &text)?;
        }
    }
}

/// Ring perception equals the reference on the fused, bridged, spiro,
/// cage and macrocyclic ring systems, which hold every ring shape the
/// generator rarely reaches.
#[test]
fn cycle_basis_equals_the_reference_on_ring_systems() {
    for s in RING_SYSTEMS {
        let mol = parse_smiles(s).unwrap();
        assert!(!cycle_basis(&mol).is_empty(), "{s} has rings");
        check_cycle_basis(&mol, s).unwrap();
    }
}

/// The SMARTS patterns the test suite parses: the predicate panels, the
/// parser's unit tests and the CLI's query-file test.
const SUITE_SMARTS: &[&str] = &[
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
    "[F,Cl,Br]",
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
    "CN",
    "N[C;R]",
    "[C;R][O,N;D2]",
    "C(=O)O",
    "C=*",
    "[*]C",
    "C~O",
    "c1ccccc1",
    "C(=O)~*",
    "[C,N]O",
    "[!C!H]",
    "[C]",
    "[C,C]",
    "[CD3]",
    "[CR0]",
    "[Cr6]",
    "[CH2]",
    "[N+2]",
    "[C,N;R]",
    "[C&D2]",
    "[H]",
    "[CH]",
    "[!C][H]",
    "[$(CC)]",
    "[R,D2]",
    "[!R]",
    "C[N?]",
    "[C;Xy]",
    "~C",
    "C(C",
    "C1CC",
    "Xy",
    "C~",
    "C(=)C",
    "*(*)(*)(*)(*)*",
    "C.N",
    "*~*",
    "C=O",
    "CO",
    "CC(=O)O",
];

/// Inputs at the readers' edges: ring bonds with symbols at one, both or
/// conflicting ends, non-ASCII text, lowercase letters that are no
/// aromatic element, and the duplicate ring edge that SMARTS reports
/// before the unclosed branch.
const EDGE_CASES: &[&str] = &[
    "C=1CC-1",
    "C-1CC=1",
    "C=1CC=1",
    "C=1CC1",
    "C1CC=1",
    "C~1CC-1",
    "C~1CC~1",
    "c:1cccc-1",
    "C=%10CC-%10",
    "Cé",
    "[Cé]",
    "[中]",
    "[x]",
    "x",
    "Cx",
    "Si",
    "[Si]",
    "C1C1(",
    "C1C1",
    "C%1",
];

/// SplitMix64, the pinned corpus's own generator: the corpus does not
/// move with the property-test stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Between `lo` and `hi - 1` picks.
    fn picks(&mut self, lo: u64, hi: u64) -> Vec<u8> {
        let len = lo + self.next() % (hi - lo);
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// The pinned parser corpus: seeded soups over the SMILES, SMARTS,
/// fragment and hostile alphabets, raw byte strings, generated molecules
/// written as SMILES, the ring systems and the suite's SMARTS patterns.
fn pinned_corpus() -> Vec<String> {
    let mut rng = SplitMix(0x5167_6d6f);
    let mut corpus = Vec::new();
    for (alphabet, cases, lo, hi) in [
        (SMILES_TOKENS, 4000, 0, 40),
        (SMARTS_TOKENS, 4000, 0, 40),
        (FRAGMENTS, 2000, 1, 12),
        (HOSTILE_TOKENS, 1000, 0, 12),
    ] {
        for _ in 0..cases {
            corpus.push(token_soup(alphabet, &rng.picks(lo, hi)));
        }
    }
    for _ in 0..1000 {
        corpus.push(String::from_utf8_lossy(&rng.picks(0, 24)).into_owned());
    }
    for seed in 0..100 {
        let mols = MoleculeGenerator::with_seed(seed).generate_batch(2);
        corpus.extend(mols.iter().map(write_smiles));
    }
    corpus.extend(RING_SYSTEMS.iter().map(|s| s.to_string()));
    corpus.extend(SUITE_SMARTS.iter().map(|s| s.to_string()));
    corpus.extend(EDGE_CASES.iter().map(|s| s.to_string()));
    corpus
}

/// A SMILES result in full: the error's `Debug` form, or every atom's
/// element, charge, isotope, chirality and aromatic flag, then the bonds
/// in order.
fn describe_smiles(result: Result<Molecule, SmilesError>) -> String {
    let mol = match result {
        Ok(mol) => mol,
        Err(e) => return format!("{e:?}"),
    };
    let mut out = String::new();
    for (v, e) in mol.atoms().iter().enumerate() {
        let v = v as NodeId;
        out += &format!(
            "{e}{},{},{:?},{};",
            mol.charge(v),
            mol.isotope(v),
            mol.chirality(v),
            mol.is_aromatic(v)
        );
    }
    for b in mol.bonds() {
        out += &format!("{}-{}:{:?};", b.a, b.b, b.order);
    }
    out
}

/// A SMARTS result in full: the error's `Debug` form, or every node's
/// label and predicate, then each node's neighbours with their edge
/// labels in order.
fn describe_smarts(result: Result<LabeledGraph, SmartsError>) -> String {
    let g = match result {
        Ok(g) => g,
        Err(e) => return format!("{e:?}"),
    };
    let mut out = String::new();
    for v in 0..g.num_nodes() as NodeId {
        out += &format!("{}{:?}{:?};", g.label(v), g.predicate(v), g.neighbors(v));
    }
    out
}

/// Every corpus entry's results under `parse_smiles`,
/// `parse_smiles_heavy` and `parse_smarts`, one line per entry.
fn pinned_results() -> Vec<String> {
    pinned_corpus()
        .iter()
        .map(|s| {
            format!(
                "{s:?}\t{}\t{}\t{}\n",
                describe_smiles(parse_smiles(s)),
                describe_smiles(parse_smiles_heavy(s)),
                describe_smarts(parse_smarts(s))
            )
        })
        .collect()
}

/// Both parsers' outputs are pinned: one FNV-1a digest over the complete
/// result, structure or error, of every input in the pinned corpus. A
/// change to either reader moves it, an accepted input's structure and
/// an error's detail alike.
#[test]
fn parser_outputs_are_pinned() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in pinned_results() {
        for b in line.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(h, 0xc723_cdbf_1f54_1c89, "parser digest moved: {h:#018x}");
}
