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
//!
//! The case count defaults low so tier-1 stays fast; `scripts/check.sh`
//! reruns this file with `SIGMO_FUZZ_CASES=10000` for the deep sweep.

use proptest::prelude::*;
use sigmo::graph::NodeId;
use sigmo::mol::{
    canonical_code, cycle_basis, parse_smarts, parse_smiles, write_smiles, Molecule,
    MoleculeGenerator,
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
