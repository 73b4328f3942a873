//! Molecular descriptors and ring perception.
//!
//! Used to characterize generated datasets (drug-likeness of the synthetic
//! ZINC stand-in) and to analyze Figure 5's persistent outliers (frequent
//! substructures resist pruning; frequency correlates with descriptors
//! like ring membership and heteroatom content).

use crate::elements::Element;
use crate::molecule::{BondOrder, Molecule};
use sigmo_graph::NodeId;

/// Standard atomic masses (g/mol) for the supported elements.
fn atomic_mass(e: Element) -> f64 {
    match e {
        Element::H => 1.008,
        Element::C => 12.011,
        Element::N => 14.007,
        Element::O => 15.999,
        Element::S => 32.06,
        Element::F => 18.998,
        Element::Cl => 35.45,
        Element::Br => 79.904,
        Element::P => 30.974,
        Element::I => 126.904,
        Element::B => 10.81,
        Element::Si => 28.085,
    }
}

/// Summary descriptors of one molecule.
#[derive(Debug, Clone, PartialEq)]
pub struct Descriptors {
    /// Molecular weight in g/mol.
    pub molecular_weight: f64,
    /// Non-hydrogen atom count.
    pub heavy_atoms: usize,
    /// Number of independent cycles (`m − n + 1` for a connected graph).
    pub ring_count: usize,
    /// Atoms that belong to at least one ring.
    pub ring_atoms: usize,
    /// Rotatable bonds: non-ring single bonds between heavy atoms of
    /// heavy-degree ≥ 2 (the standard definition, terminal bonds excluded).
    pub rotatable_bonds: usize,
    /// Hydrogen-bond donors: N or O carrying at least one hydrogen.
    pub hbond_donors: usize,
    /// Hydrogen-bond acceptors: any N or O.
    pub hbond_acceptors: usize,
}

impl Descriptors {
    /// Rough Lipinski rule-of-five check (MW ≤ 500, donors ≤ 5,
    /// acceptors ≤ 10) — drug-like generated molecules should mostly pass.
    pub fn lipinski_ok(&self) -> bool {
        self.molecular_weight <= 500.0 && self.hbond_donors <= 5 && self.hbond_acceptors <= 10
    }
}

/// Computes all descriptors for a molecule.
pub fn descriptors(mol: &Molecule) -> Descriptors {
    let g = mol.graph();
    let n = mol.num_atoms();
    let molecular_weight = mol.atoms().iter().map(|&e| atomic_mass(e)).sum();
    let heavy_atoms = mol.atoms().iter().filter(|&&e| e != Element::H).count();

    let in_ring = ring_membership(mol);
    let ring_atoms = in_ring.iter().filter(|&&b| b).count();
    // Connected molecules: cycle rank = m − n + 1 (0 for trees).
    let ring_count = (mol.num_bonds() + 1).saturating_sub(n);

    let heavy_degree = |v: NodeId| {
        g.neighbors(v)
            .iter()
            .filter(|&&(u, _)| mol.element(u) != Element::H)
            .count()
    };
    let rotatable_bonds = mol
        .bonds()
        .iter()
        .filter(|b| {
            b.order == BondOrder::Single
                && mol.element(b.a) != Element::H
                && mol.element(b.b) != Element::H
                && !(in_ring[b.a as usize] && in_ring[b.b as usize] && bond_in_ring(mol, b.a, b.b))
                && heavy_degree(b.a) >= 2
                && heavy_degree(b.b) >= 2
        })
        .count();

    let mut hbond_donors = 0;
    let mut hbond_acceptors = 0;
    for v in 0..n as NodeId {
        if matches!(mol.element(v), Element::N | Element::O) {
            hbond_acceptors += 1;
            if g.neighbors(v)
                .iter()
                .any(|&(u, _)| mol.element(u) == Element::H)
            {
                hbond_donors += 1;
            }
        }
    }

    Descriptors {
        molecular_weight,
        heavy_atoms,
        ring_count,
        ring_atoms,
        rotatable_bonds,
        hbond_donors,
        hbond_acceptors,
    }
}

/// Per-atom ring membership: an atom is in a ring iff it lies on some
/// cycle, i.e. iff it survives iterative removal of degree-≤1 vertices.
pub fn ring_membership(mol: &Molecule) -> Vec<bool> {
    let g = mol.graph();
    let n = mol.num_atoms();
    let mut degree: Vec<usize> = (0..n as NodeId).map(|v| g.degree(v)).collect();
    let mut removed = vec![false; n];
    let mut stack: Vec<NodeId> = (0..n as NodeId)
        .filter(|&v| degree[v as usize] <= 1)
        .collect();
    while let Some(v) = stack.pop() {
        if removed[v as usize] {
            continue;
        }
        removed[v as usize] = true;
        for &(u, _) in g.neighbors(v) {
            if !removed[u as usize] {
                degree[u as usize] -= 1;
                if degree[u as usize] <= 1 {
                    stack.push(u);
                }
            }
        }
    }
    removed.iter().map(|&r| !r).collect()
}

/// Whether the bond `(a, b)` itself lies on a cycle: removing it must keep
/// `a` and `b` connected.
pub fn bond_in_ring(mol: &Molecule, a: NodeId, b: NodeId) -> bool {
    let g = mol.graph();
    // BFS from a to b avoiding the direct edge.
    let mut seen = vec![false; mol.num_atoms()];
    let mut queue = std::collections::VecDeque::new();
    seen[a as usize] = true;
    queue.push_back(a);
    while let Some(v) = queue.pop_front() {
        for &(u, _) in g.neighbors(v) {
            if v == a && u == b {
                continue; // skip the direct edge
            }
            if u == b {
                return true;
            }
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    false
}

/// Enumerates a cycle basis: one shortest cycle through each non-tree edge
/// of a BFS spanning forest. Returns rings as node-id lists. The size of
/// the result equals the cycle rank.
///
/// The forest grows from each unvisited node in id order, scanning
/// neighbours in adjacency order. Each non-tree edge `(a, b)` with `a < b`,
/// in [`LabeledGraph::edges`](sigmo_graph::LabeledGraph::edges) order,
/// gives the ring `a → … → lca → … → b` along the tree paths. An edge is a
/// tree edge exactly when one endpoint is the other's BFS parent (the
/// graph is simple), so no edge set is kept. Hydrogens are leaves and lie
/// on no ring, so the rings of a molecule are the same before and after
/// its hydrogens are added.
pub fn cycle_basis(mol: &Molecule) -> Vec<Vec<NodeId>> {
    let g = mol.graph();
    let n = mol.num_atoms();
    const NONE: NodeId = NodeId::MAX;
    let mut parent: Vec<NodeId> = vec![NONE; n];
    let mut depth: Vec<u32> = vec![0; n];
    let mut visited = vec![false; n];
    // Every node enters the BFS queue exactly once, so one buffer of `n`
    // slots holds all the forest's queues back to back.
    let mut queue: Vec<NodeId> = Vec::with_capacity(n);
    for root in 0..n as NodeId {
        if visited[root as usize] {
            continue;
        }
        visited[root as usize] = true;
        let mut head = queue.len();
        queue.push(root);
        while head < queue.len() {
            let v = queue[head];
            head += 1;
            for &(u, _) in g.neighbors(v) {
                if !visited[u as usize] {
                    visited[u as usize] = true;
                    parent[u as usize] = v;
                    depth[u as usize] = depth[v as usize] + 1;
                    queue.push(u);
                }
            }
        }
    }
    let mut rings = Vec::new();
    // The `b` side of the ring, walked upwards, reused across rings.
    let mut up_b: Vec<NodeId> = Vec::new();
    for (a, b, _) in g.edges() {
        if parent[a as usize] == b || parent[b as usize] == a {
            continue;
        }
        // Walk both endpoints up to their lowest common ancestor.
        let (mut x, mut y) = (a, b);
        let mut ring = vec![x];
        up_b.clear();
        up_b.push(y);
        while depth[x as usize] > depth[y as usize] {
            x = parent[x as usize];
            ring.push(x);
        }
        while depth[y as usize] > depth[x as usize] {
            y = parent[y as usize];
            up_b.push(y);
        }
        while x != y {
            x = parent[x as usize];
            y = parent[y as usize];
            ring.push(x);
            up_b.push(y);
        }
        up_b.pop(); // the LCA is already on `ring`
        ring.extend(up_b.iter().rev());
        rings.push(ring);
    }
    rings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::n_acetylpyrrole;
    use crate::smiles::parse_smiles;

    #[test]
    fn water_descriptors() {
        let m = parse_smiles("O").unwrap();
        let d = descriptors(&m);
        assert!((d.molecular_weight - 18.015).abs() < 0.01);
        assert_eq!(d.heavy_atoms, 1);
        assert_eq!(d.ring_count, 0);
        assert_eq!(d.hbond_donors, 1);
        assert_eq!(d.hbond_acceptors, 1);
        assert_eq!(d.rotatable_bonds, 0);
    }

    #[test]
    fn benzene_ring_perception() {
        let m = parse_smiles("c1ccccc1").unwrap();
        let d = descriptors(&m);
        assert_eq!(d.ring_count, 1);
        assert_eq!(d.ring_atoms, 6, "all carbons in the ring, hydrogens out");
        assert_eq!(d.rotatable_bonds, 0);
        let rings = cycle_basis(&m);
        assert_eq!(rings.len(), 1);
        assert_eq!(rings[0].len(), 6);
    }

    #[test]
    fn butane_rotatable_bond() {
        // CCCC: one rotatable bond (C2-C3); C1-C2 and C3-C4 are terminal.
        let m = parse_smiles("CCCC").unwrap();
        let d = descriptors(&m);
        assert_eq!(d.rotatable_bonds, 1);
        assert_eq!(d.ring_count, 0);
    }

    #[test]
    fn n_acetylpyrrole_descriptors() {
        let m = n_acetylpyrrole();
        let d = descriptors(&m);
        assert_eq!(d.ring_count, 1);
        assert_eq!(d.ring_atoms, 5);
        assert_eq!(d.heavy_atoms, 8);
        // N-C(acetyl) bond rotates; C-CH3 is terminal-ish (methyl heavy
        // degree 1) so only one rotatable bond.
        assert_eq!(d.rotatable_bonds, 1);
        assert!(d.lipinski_ok());
    }

    #[test]
    fn naphthalene_like_two_rings() {
        // Two fused 6-rings (decalin skeleton, saturated for valence ease).
        let m = parse_smiles("C1CCC2CCCCC2C1").unwrap();
        let d = descriptors(&m);
        assert_eq!(d.ring_count, 2);
        assert_eq!(d.ring_atoms, 10);
        let basis = cycle_basis(&m);
        assert_eq!(basis.len(), 2);
    }

    #[test]
    fn bond_in_ring_distinguishes_ring_and_linker() {
        // Methylcyclohexane: ring bonds in ring, methyl bond not.
        let m = parse_smiles("CC1CCCCC1").unwrap();
        // Atom 0 = methyl C, atom 1 = ring C bonded to it.
        assert!(!bond_in_ring(&m, 0, 1));
        assert!(bond_in_ring(&m, 1, 2));
    }

    #[test]
    fn generated_molecules_are_mostly_drug_like() {
        let mut gen = crate::generator::MoleculeGenerator::with_seed(500);
        let batch = gen.generate_batch(100);
        let ok = batch
            .iter()
            .filter(|m| descriptors(m).lipinski_ok())
            .count();
        // "Mostly": a clear majority. The exact fraction depends on the
        // RNG stream, so leave headroom rather than pin one stream's luck.
        assert!(ok >= 55, "only {ok}/100 pass Lipinski");
        // Ring statistics in a plausible range for drug-like compounds.
        let rings: usize = batch.iter().map(|m| descriptors(m).ring_count).sum();
        assert!(rings > 0, "generator must produce rings");
    }

    #[test]
    fn cycle_basis_size_equals_cycle_rank() {
        let mut gen = crate::generator::MoleculeGenerator::with_seed(501);
        for m in gen.generate_batch(20) {
            let rank = (m.num_bonds() + 1).saturating_sub(m.num_atoms());
            assert_eq!(cycle_basis(&m).len(), rank);
        }
    }
}
