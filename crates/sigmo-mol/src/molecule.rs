//! Chemically validated molecular graphs.

use crate::elements::Element;
use serde::{Deserialize, Serialize};
use sigmo_graph::{EdgeLabel, GraphError, LabeledGraph, NodeId};
use std::fmt;

/// Bond order between two atoms. The numeric value is the edge label used
/// in graph form and the valence contribution of the bond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum BondOrder {
    /// Single bond (also used for aromatic bonds after kekulization in the
    /// SMILES subset; see `smiles`).
    Single = 1,
    /// Double bond.
    Double = 2,
    /// Triple bond.
    Triple = 3,
}

impl BondOrder {
    /// The graph edge label for this bond order.
    #[inline]
    pub fn edge_label(self) -> EdgeLabel {
        self as EdgeLabel
    }

    /// Inverse of [`BondOrder::edge_label`].
    pub fn from_edge_label(l: EdgeLabel) -> Option<BondOrder> {
        match l {
            1 => Some(BondOrder::Single),
            2 => Some(BondOrder::Double),
            3 => Some(BondOrder::Triple),
            _ => None,
        }
    }

    /// Valence units consumed at each endpoint.
    #[inline]
    pub fn valence(self) -> u8 {
        self as u8
    }
}

/// Tetrahedral chirality marker parsed from SMILES. Recorded for
/// round-tripping and provenance; matching ignores it (the engine works on
/// constitution, not configuration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Chirality {
    /// No stereo descriptor.
    #[default]
    None,
    /// `@` — anticlockwise.
    Anticlockwise,
    /// `@@` — clockwise.
    Clockwise,
}

/// A bond record: endpoints plus order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bond {
    /// First atom index.
    pub a: NodeId,
    /// Second atom index.
    pub b: NodeId,
    /// Bond order.
    pub order: BondOrder,
}

/// Errors from molecule construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MoleculeError {
    /// Underlying graph error (self-loop, duplicate bond, bad index).
    Graph(GraphError),
    /// Adding the bond would exceed an atom's maximum valence.
    ValenceExceeded {
        /// Offending atom index.
        atom: NodeId,
        /// The atom's element.
        element: Element,
        /// Valence in use after the attempted addition.
        used: u8,
    },
}

impl fmt::Display for MoleculeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MoleculeError::Graph(e) => write!(f, "graph error: {e}"),
            MoleculeError::ValenceExceeded {
                atom,
                element,
                used,
            } => write!(
                f,
                "valence exceeded on atom {atom} ({element}): {used} > {}",
                element.max_valence()
            ),
        }
    }
}

impl std::error::Error for MoleculeError {}

impl From<GraphError> for MoleculeError {
    fn from(e: GraphError) -> Self {
        MoleculeError::Graph(e)
    }
}

/// A molecule: atoms with elements, bonds with orders, valence-checked.
///
/// Data graphs in the paper are molecules with explicit hydrogens (compare
/// Figure 1's N-Acetylpyrrole rendering); query graphs are functional
/// groups. Both lower to labeled graphs through
/// [`Molecule::to_labeled_graph`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Molecule {
    atoms: Vec<Element>,
    bonds: Vec<Bond>,
    /// Valence units in use per atom.
    used_valence: Vec<u8>,
    graph: LabeledGraph,
    /// Formal charges per atom (0 = neutral). Charges shift the valence
    /// budget (`[NH4+]` is tetravalent) and flow into the graph form so
    /// canonicalization and charge predicates can see them.
    #[serde(default)]
    charges: Vec<i8>,
    /// Isotope mass numbers per atom (0 = natural abundance). Recorded
    /// only; isotopes do not change the element label.
    #[serde(default)]
    isotopes: Vec<u16>,
    /// Chirality markers per atom. Recorded only.
    #[serde(default)]
    chirality: Vec<Chirality>,
    /// Aromaticity flags per atom, from lowercase SMILES input or Hückel
    /// perception after parsing. Recorded only; bonds stay kekulized.
    #[serde(default)]
    aromatic: Vec<bool>,
}

impl Molecule {
    /// Creates an empty molecule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty molecule with room for `atoms` atoms and `bonds`
    /// bonds.
    pub fn with_capacity(atoms: usize, bonds: usize) -> Self {
        let mut m = Self::default();
        m.reserve(atoms, bonds);
        m
    }

    /// Reserves room for `atoms` more atoms and `bonds` more bonds.
    pub fn reserve(&mut self, atoms: usize, bonds: usize) {
        self.atoms.reserve(atoms);
        self.bonds.reserve(bonds);
        self.used_valence.reserve(atoms);
        self.charges.reserve(atoms);
        self.isotopes.reserve(atoms);
        self.chirality.reserve(atoms);
        self.aromatic.reserve(atoms);
        self.graph.reserve_nodes(atoms);
    }

    /// Adds an atom, returning its index.
    pub fn add_atom(&mut self, element: Element) -> NodeId {
        self.atoms.push(element);
        self.used_valence.push(0);
        self.charges.push(0);
        self.isotopes.push(0);
        self.chirality.push(Chirality::None);
        self.aromatic.push(false);
        self.graph.add_node(element.label())
    }

    /// Sets atom `i`'s formal charge. Call before bonding the atom: the
    /// charge shifts the valence budget (`N+` is tetravalent, `O-`
    /// monovalent) and bonds already placed are not re-validated.
    pub fn set_charge(&mut self, i: NodeId, charge: i8) {
        self.charges[i as usize] = charge;
        self.graph.set_charge(i, charge);
    }

    /// Formal charge of atom `i`.
    pub fn charge(&self, i: NodeId) -> i8 {
        self.charges[i as usize]
    }

    /// True when any atom carries a nonzero formal charge.
    pub fn has_charges(&self) -> bool {
        self.charges.iter().any(|&c| c != 0)
    }

    /// Sets atom `i`'s isotope mass number (0 = natural).
    pub fn set_isotope(&mut self, i: NodeId, mass: u16) {
        self.isotopes[i as usize] = mass;
    }

    /// Isotope mass number of atom `i` (0 = unspecified).
    pub fn isotope(&self, i: NodeId) -> u16 {
        self.isotopes[i as usize]
    }

    /// Sets atom `i`'s chirality marker.
    pub fn set_chirality(&mut self, i: NodeId, c: Chirality) {
        self.chirality[i as usize] = c;
    }

    /// Chirality marker of atom `i`.
    pub fn chirality(&self, i: NodeId) -> Chirality {
        self.chirality[i as usize]
    }

    /// Marks atom `i` as aromatic (perceived or declared).
    pub fn set_aromatic(&mut self, i: NodeId, aromatic: bool) {
        self.aromatic[i as usize] = aromatic;
    }

    /// Whether atom `i` was declared or perceived aromatic.
    pub fn is_aromatic(&self, i: NodeId) -> bool {
        self.aromatic[i as usize]
    }

    /// Maximum valence of atom `i` after its formal charge shifts the
    /// budget: cations gain a bonding slot per positive charge, anions
    /// lose one (clamped at zero). This simple shift covers the common
    /// organic ions (`[NH4+]`, `[O-]`, `[NH3+]`…).
    pub fn effective_max_valence(&self, i: NodeId) -> u8 {
        let base = self.atoms[i as usize].max_valence() as i16;
        (base + self.charges[i as usize] as i16).clamp(0, 8) as u8
    }

    /// Adds a bond, enforcing simple-graph and valence constraints.
    pub fn add_bond(
        &mut self,
        a: NodeId,
        b: NodeId,
        order: BondOrder,
    ) -> Result<(), MoleculeError> {
        // Validate valence *before* mutating the graph.
        for &atom in &[a, b] {
            if let Some(&elem) = self.atoms.get(atom as usize) {
                let used = self.used_valence[atom as usize] + order.valence();
                if used > self.effective_max_valence(atom) {
                    return Err(MoleculeError::ValenceExceeded {
                        atom,
                        element: elem,
                        used,
                    });
                }
            }
            // Out-of-range falls through to the graph error below for a
            // single error path.
        }
        self.graph.add_edge(a, b, order.edge_label())?;
        self.used_valence[a as usize] += order.valence();
        self.used_valence[b as usize] += order.valence();
        self.bonds.push(Bond { a, b, order });
        Ok(())
    }

    /// Bonds `count` new hydrogens to atom `atom`, each a fresh atom
    /// appended after the existing ones with a single bond. Fails, adding
    /// nothing, when the hydrogens do not fit the atom's free valence (the
    /// error is the one the first hydrogen past it would raise through
    /// [`Molecule::add_bond`]). A fresh hydrogen has no edge yet, so its
    /// bond skips the duplicate-edge scan.
    pub fn add_hydrogens(&mut self, atom: NodeId, count: u8) -> Result<(), MoleculeError> {
        let Some(&element) = self.atoms.get(atom as usize) else {
            return Err(GraphError::NodeOutOfRange {
                node: atom,
                len: self.atoms.len(),
            }
            .into());
        };
        let fits = self.free_valence(atom);
        if count > fits {
            return Err(MoleculeError::ValenceExceeded {
                atom,
                element,
                used: self.used_valence[atom as usize] + fits + 1,
            });
        }
        let single = BondOrder::Single;
        for _ in 0..count {
            let h = self
                .graph
                .add_leaf(atom, Element::H.label(), single.edge_label())?;
            self.atoms.push(Element::H);
            self.used_valence.push(single.valence());
            self.charges.push(0);
            self.isotopes.push(0);
            self.chirality.push(Chirality::None);
            self.aromatic.push(false);
            self.bonds.push(Bond {
                a: atom,
                b: h,
                order: single,
            });
        }
        self.used_valence[atom as usize] += count * single.valence();
        Ok(())
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Number of bonds.
    pub fn num_bonds(&self) -> usize {
        self.bonds.len()
    }

    /// Element of atom `i`.
    pub fn element(&self, i: NodeId) -> Element {
        self.atoms[i as usize]
    }

    /// All atoms in index order.
    pub fn atoms(&self) -> &[Element] {
        &self.atoms
    }

    /// All bonds in insertion order.
    pub fn bonds(&self) -> &[Bond] {
        &self.bonds
    }

    /// Remaining valence capacity of atom `i` (charge-adjusted).
    pub fn free_valence(&self, i: NodeId) -> u8 {
        self.effective_max_valence(i)
            .saturating_sub(self.used_valence[i as usize])
    }

    /// Borrows the molecule as a labeled graph (element labels, bond-order
    /// edge labels). This is the form every matcher consumes.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// Clones the molecule out as a standalone labeled graph.
    pub fn to_labeled_graph(&self) -> LabeledGraph {
        self.graph.clone()
    }

    /// Molecular formula in Hill order (C, H, then alphabetical), e.g.
    /// `C6H9NO` for N-Acetylpyrrole.
    pub fn formula(&self) -> String {
        let mut counts = [0usize; crate::elements::NUM_ELEMENT_LABELS];
        for &a in &self.atoms {
            counts[a.label() as usize] += 1;
        }
        let mut out = String::new();
        let mut push = |sym: &str, n: usize| {
            if n == 1 {
                out.push_str(sym);
            } else if n > 1 {
                out.push_str(sym);
                out.push_str(&n.to_string());
            }
        };
        push("C", counts[Element::C.label() as usize]);
        push("H", counts[Element::H.label() as usize]);
        let mut rest: Vec<Element> = Element::ALL
            .iter()
            .copied()
            .filter(|e| !matches!(e, Element::C | Element::H))
            .collect();
        rest.sort_by_key(|e| e.symbol());
        for e in rest {
            push(e.symbol(), counts[e.label() as usize]);
        }
        out
    }
}

/// Builds Figure 1's N-Acetylpyrrole (C6H9NO... with explicit hydrogens)
/// as a ready-made example molecule.
pub fn n_acetylpyrrole() -> Molecule {
    let mut m = Molecule::new();
    // Pyrrole ring: N(0), C(1..4); kekulized double bonds C1=C2, C3=C4.
    let n = m.add_atom(Element::N);
    let c1 = m.add_atom(Element::C);
    let c2 = m.add_atom(Element::C);
    let c3 = m.add_atom(Element::C);
    let c4 = m.add_atom(Element::C);
    m.add_bond(n, c1, BondOrder::Single).unwrap();
    m.add_bond(c1, c2, BondOrder::Double).unwrap();
    m.add_bond(c2, c3, BondOrder::Single).unwrap();
    m.add_bond(c3, c4, BondOrder::Double).unwrap();
    m.add_bond(c4, n, BondOrder::Single).unwrap();
    // Acetyl group: N-C(=O)-CH3.
    let cc = m.add_atom(Element::C);
    let o = m.add_atom(Element::O);
    let cme = m.add_atom(Element::C);
    m.add_bond(n, cc, BondOrder::Single).unwrap();
    m.add_bond(cc, o, BondOrder::Double).unwrap();
    m.add_bond(cc, cme, BondOrder::Single).unwrap();
    // Explicit hydrogens: 4 on the ring carbons, 3 on the methyl.
    for ring_c in [c1, c2, c3, c4] {
        let h = m.add_atom(Element::H);
        m.add_bond(ring_c, h, BondOrder::Single).unwrap();
    }
    for _ in 0..3 {
        let h = m.add_atom(Element::H);
        m.add_bond(cme, h, BondOrder::Single).unwrap();
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethane_builds() {
        let mut m = Molecule::new();
        let c1 = m.add_atom(Element::C);
        let c2 = m.add_atom(Element::C);
        m.add_bond(c1, c2, BondOrder::Single).unwrap();
        for c in [c1, c2] {
            for _ in 0..3 {
                let h = m.add_atom(Element::H);
                m.add_bond(c, h, BondOrder::Single).unwrap();
            }
        }
        assert_eq!(m.num_atoms(), 8);
        assert_eq!(m.num_bonds(), 7);
        assert_eq!(m.formula(), "C2H6");
        assert_eq!(m.free_valence(c1), 0);
    }

    #[test]
    fn valence_is_enforced() {
        let mut m = Molecule::new();
        let h1 = m.add_atom(Element::H);
        let h2 = m.add_atom(Element::H);
        let h3 = m.add_atom(Element::H);
        m.add_bond(h1, h2, BondOrder::Single).unwrap();
        let err = m.add_bond(h1, h3, BondOrder::Single).unwrap_err();
        assert!(matches!(
            err,
            MoleculeError::ValenceExceeded {
                element: Element::H,
                ..
            }
        ));
        // Failed bond must not corrupt state.
        assert_eq!(m.num_bonds(), 1);
        assert_eq!(m.free_valence(h3), 1);
    }

    #[test]
    fn double_bond_consumes_two_valence_units() {
        let mut m = Molecule::new();
        let o = m.add_atom(Element::O);
        let c = m.add_atom(Element::C);
        m.add_bond(c, o, BondOrder::Double).unwrap();
        assert_eq!(m.free_valence(o), 0);
        assert_eq!(m.free_valence(c), 2);
    }

    #[test]
    fn nitrogen_triple_bond() {
        // HCN: H-C#N.
        let mut m = Molecule::new();
        let h = m.add_atom(Element::H);
        let c = m.add_atom(Element::C);
        let n = m.add_atom(Element::N);
        m.add_bond(h, c, BondOrder::Single).unwrap();
        m.add_bond(c, n, BondOrder::Triple).unwrap();
        assert_eq!(m.free_valence(c), 0);
        assert_eq!(m.free_valence(n), 0);
        assert_eq!(m.formula(), "CHN");
    }

    #[test]
    fn graph_form_carries_labels() {
        let m = n_acetylpyrrole();
        let g = m.graph();
        assert_eq!(g.num_nodes(), m.num_atoms());
        assert_eq!(g.num_edges(), m.num_bonds());
        assert_eq!(g.label(0), Element::N.label());
        // Carbonyl C=O edge label is the double-bond order.
        assert_eq!(g.edge_label(5, 6), Some(BondOrder::Double.edge_label()));
    }

    #[test]
    fn n_acetylpyrrole_matches_figure1() {
        let m = n_acetylpyrrole();
        // C6 H7 N O in our explicit-H rendering (4 ring H + 3 methyl H).
        assert_eq!(m.formula(), "C6H7NO");
        assert!(sigmo_graph::is_connected(m.graph()));
        // Degrees bounded by valence, average around paper's claim.
        assert!(m.graph().max_degree() <= 4);
    }

    #[test]
    fn add_hydrogens_equals_bonding_each_hydrogen() {
        let mut by_bond = Molecule::new();
        let mut by_leaf = Molecule::new();
        for m in [&mut by_bond, &mut by_leaf] {
            let c = m.add_atom(Element::C);
            let o = m.add_atom(Element::O);
            m.add_bond(c, o, BondOrder::Single).unwrap();
        }
        for (atom, count) in [(0, 3), (1, 1)] {
            for _ in 0..count {
                let h = by_bond.add_atom(Element::H);
                by_bond.add_bond(atom, h, BondOrder::Single).unwrap();
            }
            by_leaf.add_hydrogens(atom, count).unwrap();
        }
        assert_eq!(by_leaf, by_bond);
        assert_eq!(by_leaf.formula(), "CH4O");
    }

    #[test]
    fn add_hydrogens_past_free_valence_fails_like_add_bond() {
        let mut m = Molecule::new();
        let c = m.add_atom(Element::C);
        let mut reference = m.clone();
        let err = (0..5)
            .map(|_| {
                let h = reference.add_atom(Element::H);
                reference.add_bond(c, h, BondOrder::Single)
            })
            .find_map(Result::err)
            .unwrap();
        assert_eq!(m.add_hydrogens(c, 5), Err(err));
        assert_eq!(m.num_atoms(), 1, "a failed call adds nothing");
        assert_eq!(
            m.add_hydrogens(7, 1),
            Err(MoleculeError::Graph(GraphError::NodeOutOfRange {
                node: 7,
                len: 1
            }))
        );
    }

    #[test]
    fn bond_order_round_trip() {
        for o in [BondOrder::Single, BondOrder::Double, BondOrder::Triple] {
            assert_eq!(BondOrder::from_edge_label(o.edge_label()), Some(o));
        }
        assert_eq!(BondOrder::from_edge_label(0), None);
        assert_eq!(BondOrder::from_edge_label(9), None);
    }
}
