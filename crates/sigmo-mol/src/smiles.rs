//! A SMILES parser and writer.
//!
//! Supported syntax: organic-subset atoms (`B C N O P S F Cl Br I`,
//! and also unbracketed `H` and `Si`), bracket atoms in full `[isotope?
//! symbol chirality? Hcount? charge? map?]` form (`[13CH4]`, `[NH4+]`,
//! `[O-]`, `[C@@H]`, `[CH3:1]`), bond symbols (`-`, `=`, `#`, `:`),
//! branches (`(...)`), ring-bond closures (digits `1`–`9` and `%nn`; a
//! symbol at both ends must agree), dot-separated multi-fragment inputs
//! (`[Na+].[Cl-]`), and aromatic lowercase atoms (`c n o s`), which are
//! kekulized into alternating single/double bonds via backtracking.
//!
//! Formal charges shift the valence budget (`[NH4+]` is tetravalent) and
//! are stored on the molecule and its graph form. Isotopes and chirality
//! are accepted and recorded but do not affect matching. After parsing,
//! aromaticity is *perceived* (a Hückel-style 4n+2 pass over the ring
//! basis) and recorded as per-atom flags, so Kekulé-written benzene gets
//! the same flags as lowercase input; bonds stay kekulized either way.
//!
//! Still rejected: wildcards (`*` is a query construct — see `smarts`).
//! Errors carry the byte offset of the offending character, including
//! inside bracket atoms. The skeleton walk and the atom-token scanner are
//! shared with SMARTS (the crate's `reader` module); this module supplies
//! the bond symbols, the bracket grammar and kekulization.
//!
//! Parsed molecules get explicit hydrogens appended (the paper's data
//! graphs carry explicit hydrogens — see Figure 1), unless
//! [`parse_smiles_heavy`] is used.

use crate::elements::Element;
use crate::molecule::{BondOrder, Chirality, Molecule, MoleculeError};
use crate::reader::{self, Cursor, Dialect, SyntaxError, TWO_LETTER};
use sigmo_graph::NodeId;
use std::fmt;

/// SMILES parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmilesError {
    /// Unexpected character at byte offset.
    Unexpected { at: usize, found: char },
    /// Unknown element symbol.
    UnknownElement { at: usize, symbol: String },
    /// Ring-bond number closed without being opened, or left dangling.
    RingBond { number: u16, reason: &'static str },
    /// Branch parenthesis mismatch.
    Parenthesis { at: usize },
    /// A bond symbol with no preceding atom.
    DanglingBond { at: usize },
    /// Aromatic subgraph admits no kekulization.
    Kekulization,
    /// Valence violated while building the molecule.
    Molecule(String),
    /// Empty input.
    Empty,
}

impl fmt::Display for SmilesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmilesError::Unexpected { at, found } => {
                write!(f, "unexpected character {found:?} at offset {at}")
            }
            SmilesError::UnknownElement { at, symbol } => {
                write!(f, "unknown element {symbol:?} at offset {at}")
            }
            SmilesError::RingBond { number, reason } => {
                write!(f, "ring bond {number}: {reason}")
            }
            SmilesError::Parenthesis { at } => write!(f, "unbalanced parenthesis at {at}"),
            SmilesError::DanglingBond { at } => write!(f, "bond with no atom at {at}"),
            SmilesError::Kekulization => write!(f, "aromatic system cannot be kekulized"),
            SmilesError::Molecule(m) => write!(f, "molecule error: {m}"),
            SmilesError::Empty => write!(f, "empty SMILES"),
        }
    }
}

impl std::error::Error for SmilesError {}

impl From<MoleculeError> for SmilesError {
    fn from(e: MoleculeError) -> Self {
        SmilesError::Molecule(e.to_string())
    }
}

impl From<SyntaxError> for SmilesError {
    fn from(e: SyntaxError) -> Self {
        match e {
            SyntaxError::Unexpected { at, found } => SmilesError::Unexpected { at, found },
            SyntaxError::UnknownElement { at, symbol } => {
                SmilesError::UnknownElement { at, symbol }
            }
            SyntaxError::RingBond { number, reason } => SmilesError::RingBond { number, reason },
            SyntaxError::Parenthesis { at } => SmilesError::Parenthesis { at },
            SyntaxError::DanglingBond { at } => SmilesError::DanglingBond { at },
            SyntaxError::Empty => SmilesError::Empty,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RawBond {
    Single,
    Double,
    Triple,
    Aromatic,
}

#[derive(Debug)]
struct RawAtom {
    element: Element,
    aromatic: bool,
    /// Explicit H count from a bracket atom, if any.
    bracket_h: Option<u8>,
    /// Formal charge from a bracket atom (0 outside brackets).
    charge: i8,
    /// Isotope mass number (0 = unspecified).
    isotope: u16,
    /// Stereo descriptor, recorded only.
    chirality: Chirality,
}

/// The SMILES side of the reader: raw atoms and bonds, kekulized once the
/// skeleton is read.
#[derive(Default)]
struct Smiles {
    atoms: Vec<RawAtom>,
    edges: Vec<(u32, u32, RawBond)>,
}

impl Dialect for Smiles {
    type Atom = RawAtom;
    type Bond = RawBond;
    type Error = SmilesError;
    const PERCENT_RINGS: bool = true;

    fn bond(symbol: u8) -> Option<RawBond> {
        Some(match symbol {
            b'-' => RawBond::Single,
            b'=' => RawBond::Double,
            b'#' => RawBond::Triple,
            b':' => RawBond::Aromatic,
            _ => return None,
        })
    }

    fn organic(cur: &mut Cursor) -> Result<RawAtom, SmilesError> {
        let (element, aromatic) = cur.element(TWO_LETTER)?;
        Ok(RawAtom {
            element,
            aromatic,
            bracket_h: None,
            charge: 0,
            isotope: 0,
            chirality: Chirality::None,
        })
    }

    /// Grammar: `ISOTOPE? SYMBOL CHIRAL? ('H' COUNT?)? CHARGE? (':' MAP)?`
    /// where ISOTOPE is 1–3 digits, CHIRAL is `@` or `@@`, CHARGE is
    /// `+`/`-` optionally followed by a digit or repeated (`++`), and MAP
    /// (an atom class) is accepted and discarded.
    fn bracket(cur: &mut Cursor) -> Result<RawAtom, SmilesError> {
        let isotope = cur.digits(3).unwrap_or(0) as u16;
        if cur.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(cur.unexpected().into());
        }
        let (element, aromatic) = cur.element(TWO_LETTER)?;
        // Chirality: @ or @@ (recorded, not matched).
        let chirality = match (cur.eat(b'@'), cur.eat(b'@')) {
            (false, _) => Chirality::None,
            (true, false) => Chirality::Anticlockwise,
            (true, true) => Chirality::Clockwise,
        };
        // Hydrogen count (default 0 for bracket atoms, per the SMILES spec).
        let bracket_h = if cur.eat(b'H') {
            cur.digits(1).unwrap_or(1) as u8
        } else {
            0
        };
        let charge = cur.formal_charge().unwrap_or(0);
        if cur.eat(b':') && cur.digits(usize::MAX).is_none() {
            return Err(cur.unexpected().into());
        }
        Ok(RawAtom {
            element,
            aromatic,
            bracket_h: Some(bracket_h),
            charge,
            isotope,
            chirality,
        })
    }

    fn add_atom(&mut self, atom: RawAtom) {
        self.atoms.push(atom);
    }

    fn add_edge(&mut self, a: u32, b: u32, bond: Option<RawBond>) -> Result<(), SmilesError> {
        let bond = bond.unwrap_or(
            if self.atoms[a as usize].aromatic && self.atoms[b as usize].aromatic {
                RawBond::Aromatic
            } else {
                RawBond::Single
            },
        );
        self.edges.push((a, b, bond));
        Ok(())
    }
}

/// Parses SMILES and appends explicit hydrogens saturating every atom's
/// free valence (bracket atoms use their stated H count instead).
///
/// ```
/// let ethanol = sigmo_mol::parse_smiles("CCO").unwrap();
/// assert_eq!(ethanol.formula(), "C2H6O");
/// let benzene = sigmo_mol::parse_smiles("c1ccccc1").unwrap();
/// assert_eq!(benzene.formula(), "C6H6");
/// ```
pub fn parse_smiles(s: &str) -> Result<Molecule, SmilesError> {
    parse_inner(s, true)
}

/// Parses SMILES without adding implicit hydrogens (heavy-atom skeleton
/// only; bracket H counts are still honored).
pub fn parse_smiles_heavy(s: &str) -> Result<Molecule, SmilesError> {
    parse_inner(s, false)
}

fn parse_inner(s: &str, implicit_h: bool) -> Result<Molecule, SmilesError> {
    let mut raw = Smiles::default();
    reader::read(s, &mut raw)?;
    let Smiles { atoms, edges } = raw;
    let orders = kekulize(&atoms, &edges)?;

    let mut mol = Molecule::with_capacity(atoms.len(), edges.len());
    for a in &atoms {
        let id = mol.add_atom(a.element);
        // Charge before bonding: it shifts the valence budget.
        if a.charge != 0 {
            mol.set_charge(id, a.charge);
        }
        if a.isotope != 0 {
            mol.set_isotope(id, a.isotope);
        }
        mol.set_chirality(id, a.chirality);
        mol.set_aromatic(id, a.aromatic);
    }
    for (k, &(a, b, _)) in edges.iter().enumerate() {
        mol.add_bond(a as NodeId, b as NodeId, orders[k])?;
    }
    // Hydrogens are leaves and lie on no ring, so perceiving before they
    // are added finds the same rings over a smaller graph.
    perceive_aromaticity(&mut mol);
    // Hydrogens: bracket counts are explicit; otherwise saturate free
    // valence when requested. Aromatic atoms have one valence unit absorbed
    // by the ring π system beyond the kekulized orders only for N/O/S with
    // no double bond — the kekulization already accounts for this because
    // orders sum correctly, so plain free-valence saturation is right.
    let h_count = |idx: usize, mol: &Molecule| match atoms[idx].bracket_h {
        Some(h) => h,
        None if implicit_h => mol.free_valence(idx as NodeId),
        None => 0,
    };
    let total_h: usize = (0..atoms.len())
        .map(|idx| h_count(idx, &mol) as usize)
        .sum();
    mol.reserve(total_h, total_h);
    for idx in 0..atoms.len() {
        mol.add_hydrogens(idx as NodeId, h_count(idx, &mol))?;
    }
    Ok(mol)
}

/// Hückel-style aromaticity perception over the ring basis: a ring is
/// flagged aromatic when every member is C/N/O/S, every member is either
/// π-bonded within the molecule (carries a double bond) or a heteroatom
/// donating a lone pair, and the π-electron count is 4n+2 (each
/// double-bonded member contributes 1 electron, each lone-pair heteroatom
/// 2). Flags are additive with the parser's lowercase declarations, so
/// `C1=CC=CC=C1` and `c1ccccc1` perceive identically; bonds are left in
/// their kekulized form.
fn perceive_aromaticity(mol: &mut Molecule) {
    let rings = crate::descriptors::cycle_basis(mol);
    let g = mol.graph();
    let mut flagged: Vec<NodeId> = Vec::new();
    for ring in &rings {
        let mut pi = 0usize;
        let mut ok = true;
        for &v in ring {
            if !mol.element(v).can_be_aromatic() {
                ok = false;
                break;
            }
            let has_double = g.neighbors(v).iter().any(|&(_, l)| l == 2);
            if has_double {
                pi += 1;
            } else if mol.element(v) != Element::C {
                pi += 2; // lone-pair donor (pyrrole N, furan O…)
            } else {
                ok = false; // sp3 carbon breaks conjugation
                break;
            }
        }
        if ok && pi >= 2 && (pi - 2).is_multiple_of(4) {
            flagged.extend_from_slice(ring);
        }
    }
    for v in flagged {
        mol.set_aromatic(v, true);
    }
}

/// Resolves aromatic bonds to alternating single/double via backtracking.
///
/// Every aromatic *carbon* must receive exactly one double bond among its
/// aromatic bonds; aromatic N/O/S may contribute a lone pair instead and
/// receive zero. Non-aromatic bonds keep their stated order.
fn kekulize(
    atoms: &[RawAtom],
    edges: &[(u32, u32, RawBond)],
) -> Result<Vec<BondOrder>, SmilesError> {
    let mut orders: Vec<BondOrder> = Vec::with_capacity(edges.len());
    let mut aromatic_edges: Vec<usize> = Vec::new();
    for (k, &(_, _, b)) in edges.iter().enumerate() {
        orders.push(match b {
            RawBond::Single => BondOrder::Single,
            RawBond::Double => BondOrder::Double,
            RawBond::Triple => BondOrder::Triple,
            RawBond::Aromatic => {
                aromatic_edges.push(k);
                BondOrder::Single // may be upgraded below
            }
        });
    }
    if aromatic_edges.is_empty() {
        return Ok(orders);
    }
    // needs[a]: Some(true) = must get exactly one double bond (aromatic C),
    // Some(false) = may get at most one (aromatic N/O/S), None = not aromatic.
    let needs: Vec<Option<bool>> = atoms
        .iter()
        .map(|a| {
            if a.aromatic {
                // A bracket aromatic N with explicit H ([nH]) is pyrrole-like:
                // lone pair in the ring, no double bond.
                // Aromatic carbons must take exactly one ring double bond;
                // aromatic heteroatoms (incl. pyrrole-type [nH]) may donate
                // a lone pair instead and take none. Charged aromatic atoms
                // ([n+], tropylium [c+]…) are relaxed the same way.
                Some(a.element == Element::C && a.charge == 0)
            } else {
                None
            }
        })
        .collect();
    let mut matched = vec![false; atoms.len()];
    // Pre-existing double bonds on aromatic atoms (exocyclic C=O etc.) count.
    for (k, &(a, b, _)) in edges.iter().enumerate() {
        if orders[k] == BondOrder::Double {
            matched[a as usize] = true;
            matched[b as usize] = true;
        }
    }
    if backtrack_kekulize(&aromatic_edges, edges, &needs, &mut matched, &mut orders, 0) {
        Ok(orders)
    } else {
        Err(SmilesError::Kekulization)
    }
}

fn backtrack_kekulize(
    aromatic: &[usize],
    edges: &[(u32, u32, RawBond)],
    needs: &[Option<bool>],
    matched: &mut [bool],
    orders: &mut [BondOrder],
    pos: usize,
) -> bool {
    if pos == aromatic.len() {
        // All aromatic carbons must be matched.
        return needs
            .iter()
            .enumerate()
            .all(|(i, n)| *n != Some(true) || matched[i]);
    }
    let k = aromatic[pos];
    let (a, b, _) = edges[k];
    let (a, b) = (a as usize, b as usize);
    // Option 1: make this bond double if both endpoints are unmatched.
    if !matched[a] && !matched[b] {
        matched[a] = true;
        matched[b] = true;
        orders[k] = BondOrder::Double;
        if backtrack_kekulize(aromatic, edges, needs, matched, orders, pos + 1) {
            return true;
        }
        orders[k] = BondOrder::Single;
        matched[a] = false;
        matched[b] = false;
    }
    // Option 2: leave it single.
    backtrack_kekulize(aromatic, edges, needs, matched, orders, pos + 1)
}

/// Writes a molecule back to SMILES (kekulized form, explicit hydrogens on
/// heavy atoms are folded into implicit counts; free-standing H₂ and lone
/// hydrogens are written as `[H]`).
pub fn write_smiles(mol: &Molecule) -> String {
    let g = mol.graph();
    let n = mol.num_atoms();
    let mut out = String::new();
    let mut visited = vec![false; n];
    // Fold hydrogens bonded to heavy atoms.
    let is_folded_h = |v: NodeId| -> bool {
        mol.element(v) == Element::H
            && g.neighbors(v)
                .iter()
                .any(|&(u, _)| mol.element(u) != Element::H)
    };
    // Assign ring-closure digits: edges not on the DFS tree.
    let mut ring_digit: Vec<Vec<(NodeId, u16)>> = vec![Vec::new(); n];
    let mut next_digit = 1u16;

    for start in 0..n as NodeId {
        if visited[start as usize] || is_folded_h(start) {
            continue;
        }
        if !out.is_empty() {
            out.push('.');
        }
        // Iterative DFS writing atoms; stack holds (node, parent, bond order
        // from parent, branch depth marker handled via explicit frames).
        write_component(
            mol,
            start,
            &mut visited,
            &mut out,
            &mut ring_digit,
            &mut next_digit,
            &is_folded_h,
        );
    }
    out
}

fn bond_symbol(order: BondOrder) -> &'static str {
    match order {
        BondOrder::Single => "",
        BondOrder::Double => "=",
        BondOrder::Triple => "#",
    }
}

fn atom_token(mol: &Molecule, v: NodeId, h_count: usize) -> String {
    let e = mol.element(v);
    let charge = mol.charge(v);
    let isotope = mol.isotope(v);
    let organic = matches!(
        e,
        Element::B
            | Element::C
            | Element::N
            | Element::O
            | Element::P
            | Element::S
            | Element::F
            | Element::Cl
            | Element::Br
            | Element::I
    );
    // Organic-subset atoms rely on implicit-H inference at read time; that
    // round-trips when either the atom is fully saturated (the reader will
    // re-add the same hydrogens) or it carries none to restore. Charged or
    // isotopic atoms always need brackets.
    if organic && charge == 0 && isotope == 0 && (mol.free_valence(v) == 0 || h_count == 0) {
        return e.symbol().to_string();
    }
    let mut t = String::from("[");
    if isotope != 0 {
        t.push_str(&isotope.to_string());
    }
    t.push_str(e.symbol());
    match h_count {
        0 => {}
        1 => t.push('H'),
        k => t.push_str(&format!("H{k}")),
    }
    match charge {
        0 => {}
        1 => t.push('+'),
        -1 => t.push('-'),
        c if c > 0 => t.push_str(&format!("+{c}")),
        c => t.push_str(&format!("-{}", -c)),
    }
    t.push(']');
    t
}

#[allow(clippy::too_many_arguments)]
fn write_component(
    mol: &Molecule,
    start: NodeId,
    visited: &mut [bool],
    out: &mut String,
    ring_digit: &mut [Vec<(NodeId, u16)>],
    next_digit: &mut u16,
    is_folded_h: &dyn Fn(NodeId) -> bool,
) {
    let g = mol.graph();
    // First pass: find ring (back) edges with a DFS so digits can be
    // emitted at both endpoints.
    let mut parent: Vec<Option<NodeId>> = vec![None; mol.num_atoms()];
    let mut order: Vec<NodeId> = Vec::new();
    let mut seen = vec![false; mol.num_atoms()];
    let mut stack = vec![start];
    seen[start as usize] = true;
    while let Some(v) = stack.pop() {
        order.push(v);
        for &(u, _) in g.neighbors(v) {
            if is_folded_h(u) {
                continue;
            }
            if !seen[u as usize] {
                seen[u as usize] = true;
                parent[u as usize] = Some(v);
                stack.push(u);
            } else if parent[v as usize] != Some(u)
                && !ring_digit[v as usize].iter().any(|&(w, _)| w == u)
                && !ring_digit[u as usize].iter().any(|&(w, _)| w == v)
            {
                let d = *next_digit;
                *next_digit += 1;
                ring_digit[v as usize].push((u, d));
                ring_digit[u as usize].push((v, d));
            }
        }
    }

    // Second pass: recursive write along the DFS tree.
    fn rec(
        mol: &Molecule,
        v: NodeId,
        from: Option<NodeId>,
        visited: &mut [bool],
        out: &mut String,
        ring_digit: &[Vec<(NodeId, u16)>],
        parent: &[Option<NodeId>],
        is_folded_h: &dyn Fn(NodeId) -> bool,
    ) {
        visited[v as usize] = true;
        let g = mol.graph();
        if let Some(p) = from {
            out.push_str(bond_symbol(
                crate::molecule::BondOrder::from_edge_label(g.edge_label(p, v).unwrap()).unwrap(),
            ));
        }
        let h_count = g
            .neighbors(v)
            .iter()
            .filter(|&&(u, _)| is_folded_h(u))
            .count();
        out.push_str(&atom_token(mol, v, h_count));
        for &(u, d) in &ring_digit[v as usize] {
            // Emit bond order on the closing side only (when the partner is
            // already visited).
            if visited[u as usize] {
                out.push_str(bond_symbol(
                    crate::molecule::BondOrder::from_edge_label(g.edge_label(u, v).unwrap())
                        .unwrap(),
                ));
            }
            if d < 10 {
                out.push_str(&d.to_string());
            } else {
                out.push('%');
                out.push_str(&format!("{d:02}"));
            }
        }
        for &(u, _) in g.neighbors(v) {
            if is_folded_h(u) {
                continue;
            }
            // Mark folded hydrogens as visited so outer loop skips them.
            if parent[u as usize] == Some(v) && !visited[u as usize] {
                let children_after: Vec<NodeId> = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&(w, _)| {
                        !is_folded_h(w) && parent[w as usize] == Some(v) && !visited[w as usize]
                    })
                    .map(|&(w, _)| w)
                    .collect();
                let is_last = children_after.len() == 1;
                if !is_last {
                    out.push('(');
                }
                rec(
                    mol,
                    u,
                    Some(v),
                    visited,
                    out,
                    ring_digit,
                    parent,
                    is_folded_h,
                );
                if !is_last {
                    out.push(')');
                }
            }
        }
    }
    rec(
        mol,
        start,
        None,
        visited,
        out,
        ring_digit,
        &parent,
        is_folded_h,
    );
    // Mark folded hydrogens visited.
    for v in 0..mol.num_atoms() as NodeId {
        if visited[v as usize] {
            for &(u, _) in g.neighbors(v) {
                if is_folded_h(u) {
                    visited[u as usize] = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heavy_atoms(m: &Molecule) -> usize {
        m.atoms().iter().filter(|&&e| e != Element::H).count()
    }

    #[test]
    fn methane() {
        let m = parse_smiles("C").unwrap();
        assert_eq!(m.formula(), "CH4");
    }

    #[test]
    fn ethanol() {
        let m = parse_smiles("CCO").unwrap();
        assert_eq!(m.formula(), "C2H6O");
        assert_eq!(heavy_atoms(&m), 3);
    }

    #[test]
    fn acetic_acid_with_branch_and_double_bond() {
        let m = parse_smiles("CC(=O)O").unwrap();
        assert_eq!(m.formula(), "C2H4O2");
    }

    #[test]
    fn acetonitrile_triple_bond() {
        let m = parse_smiles("CC#N").unwrap();
        assert_eq!(m.formula(), "C2H3N");
    }

    #[test]
    fn cyclohexane_ring_closure() {
        let m = parse_smiles("C1CCCCC1").unwrap();
        assert_eq!(m.formula(), "C6H12");
        assert_eq!(m.graph().max_degree(), 4);
    }

    #[test]
    fn benzene_kekulizes() {
        let m = parse_smiles("c1ccccc1").unwrap();
        assert_eq!(m.formula(), "C6H6");
        // Alternating bonds: exactly 3 doubles among ring bonds.
        let doubles = m
            .bonds()
            .iter()
            .filter(|b| b.order == BondOrder::Double)
            .count();
        assert_eq!(doubles, 3);
    }

    #[test]
    fn pyrrole_with_bracket_nh() {
        let m = parse_smiles("c1cc[nH]c1").unwrap();
        assert_eq!(m.formula(), "C4H5N");
        let doubles = m
            .bonds()
            .iter()
            .filter(|b| b.order == BondOrder::Double)
            .count();
        assert_eq!(doubles, 2, "pyrrole has two ring double bonds");
    }

    #[test]
    fn pyridine_aromatic_nitrogen() {
        let m = parse_smiles("c1ccncc1").unwrap();
        assert_eq!(m.formula(), "C5H5N");
    }

    #[test]
    fn n_acetylpyrrole_from_smiles_matches_builder() {
        let m = parse_smiles("CC(=O)n1cccc1").unwrap();
        let built = crate::molecule::n_acetylpyrrole();
        assert_eq!(m.formula(), built.formula());
        assert_eq!(m.num_atoms(), built.num_atoms());
        assert_eq!(m.num_bonds(), built.num_bonds());
    }

    #[test]
    fn two_letter_halogens() {
        let m = parse_smiles("ClCBr").unwrap();
        assert_eq!(m.formula(), "CH2BrCl");
    }

    #[test]
    fn percent_ring_closure() {
        let a = parse_smiles("C%12CCCCC%12").unwrap();
        let b = parse_smiles("C1CCCCC1").unwrap();
        assert_eq!(a.formula(), b.formula());
        assert_eq!(a.num_bonds(), b.num_bonds());
    }

    #[test]
    fn heavy_parse_skips_hydrogens() {
        let m = parse_smiles_heavy("CCO").unwrap();
        assert_eq!(m.num_atoms(), 3);
        assert_eq!(m.formula(), "C2O");
    }

    #[test]
    fn error_on_unknown_element() {
        assert!(matches!(
            parse_smiles("CXy"),
            Err(SmilesError::UnknownElement { .. })
        ));
    }

    #[test]
    fn error_on_unbalanced_parens() {
        assert!(matches!(
            parse_smiles("C(C"),
            Err(SmilesError::Parenthesis { .. })
        ));
        assert!(matches!(
            parse_smiles("C)C"),
            Err(SmilesError::Parenthesis { .. })
        ));
    }

    #[test]
    fn error_on_dangling_ring() {
        assert!(matches!(
            parse_smiles("C1CC"),
            Err(SmilesError::RingBond { .. })
        ));
    }

    #[test]
    fn error_on_leading_bond() {
        assert!(matches!(
            parse_smiles("=CC"),
            Err(SmilesError::DanglingBond { .. })
        ));
    }

    #[test]
    fn error_on_trailing_bond() {
        assert!(matches!(
            parse_smiles("C="),
            Err(SmilesError::DanglingBond { at: 1 })
        ));
        assert!(matches!(
            parse_smiles("CC#"),
            Err(SmilesError::DanglingBond { at: 2 })
        ));
    }

    #[test]
    fn error_on_bond_before_branch_close() {
        assert!(matches!(
            parse_smiles("C(=)C"),
            Err(SmilesError::DanglingBond { at: 2 })
        ));
    }

    #[test]
    fn error_on_empty() {
        assert_eq!(parse_smiles(""), Err(SmilesError::Empty));
    }

    #[test]
    fn write_then_parse_preserves_formula_simple() {
        for s in ["C", "CCO", "CC(=O)O", "C1CCCCC1", "CC#N", "c1ccccc1"] {
            let m = parse_smiles(s).unwrap();
            let written = write_smiles(&m);
            let back = parse_smiles(&written)
                .unwrap_or_else(|e| panic!("re-parse of {written:?} (from {s:?}) failed: {e}"));
            assert_eq!(
                back.formula(),
                m.formula(),
                "round-trip of {s} via {written}"
            );
            assert_eq!(
                back.num_bonds(),
                m.num_bonds(),
                "round-trip of {s} via {written}"
            );
        }
    }

    #[test]
    fn valence_violation_is_reported() {
        // Pentavalent carbon: C with five explicit neighbors.
        assert!(matches!(
            parse_smiles("C(C)(C)(C)(C)C"),
            Err(SmilesError::Molecule(_))
        ));
    }

    #[test]
    fn bracket_charges_parse_and_shift_valence() {
        // Ammonium: N+ is tetravalent.
        let m = parse_smiles("[NH4+]").unwrap();
        assert_eq!(m.formula(), "H4N");
        assert_eq!(m.charge(0), 1);
        assert_eq!(m.num_bonds(), 4);
        // Alkoxide: O- is monovalent.
        let m = parse_smiles("C[O-]").unwrap();
        assert_eq!(m.charge(1), -1);
        assert_eq!(m.free_valence(1), 0);
        // Doubly charged forms, both spellings.
        assert_eq!(parse_smiles("[O-2]").unwrap().charge(0), -2);
        assert_eq!(parse_smiles("[O--]").unwrap().charge(0), -2);
    }

    #[test]
    fn charge_flows_into_graph_form() {
        let m = parse_smiles("C[O-]").unwrap();
        let g = m.to_labeled_graph();
        assert_eq!(g.charge(1), -1);
        assert!(g.has_charges());
    }

    #[test]
    fn dot_separates_components() {
        let m = parse_smiles("C.C").unwrap();
        assert_eq!(m.formula(), "C2H8");
        assert!(!sigmo_graph::is_connected(m.graph()));
        // Salt-like pair with charges: raw atoms come first (N = 0,
        // Cl = 1), hydrogens are appended afterwards.
        let salt = parse_smiles("[NH4+].[Cl-]").unwrap();
        assert_eq!(salt.charge(0), 1);
        assert_eq!(salt.charge(1), -1);
    }

    #[test]
    fn dot_with_pending_bond_is_an_error() {
        assert!(matches!(
            parse_smiles("C=.C"),
            Err(SmilesError::DanglingBond { at: 2 })
        ));
    }

    #[test]
    fn isotopes_and_chirality_are_recorded() {
        let m = parse_smiles("[13CH4]").unwrap();
        assert_eq!(m.isotope(0), 13);
        assert_eq!(m.formula(), "CH4");
        let m = parse_smiles("[C@@H](F)(Cl)Br").unwrap();
        assert_eq!(m.chirality(0), crate::molecule::Chirality::Clockwise);
        let m = parse_smiles("[C@H](F)(Cl)Br").unwrap();
        assert_eq!(m.chirality(0), crate::molecule::Chirality::Anticlockwise);
    }

    #[test]
    fn atom_maps_are_accepted_and_discarded() {
        let m = parse_smiles("[CH3:1][CH3:2]").unwrap();
        assert_eq!(m.formula(), "C2H6");
    }

    #[test]
    fn charged_round_trip_preserves_charges() {
        for s in ["[NH4+]", "C[O-]", "[NH4+].[Cl-]", "CC(=O)[O-]"] {
            let m = parse_smiles(s).unwrap();
            let written = write_smiles(&m);
            let back = parse_smiles(&written)
                .unwrap_or_else(|e| panic!("re-parse of {written:?} (from {s:?}) failed: {e}"));
            assert_eq!(back.formula(), m.formula(), "round-trip of {s}");
            let total_in: i32 = (0..m.num_atoms())
                .map(|v| m.charge(v as NodeId) as i32)
                .sum();
            let total_out: i32 = (0..back.num_atoms())
                .map(|v| back.charge(v as NodeId) as i32)
                .sum();
            assert_eq!(total_in, total_out, "net charge of {s} via {written}");
        }
    }

    #[test]
    fn aromaticity_is_perceived_on_kekule_input() {
        // Same flags whether benzene is written lowercase or Kekulé.
        let lower = parse_smiles("c1ccccc1").unwrap();
        let kekule = parse_smiles("C1=CC=CC=C1").unwrap();
        for v in 0..6 {
            assert!(lower.is_aromatic(v), "lowercase atom {v}");
            assert!(kekule.is_aromatic(v), "kekulé atom {v}");
        }
        // Cyclohexane is not aromatic; the sp3 carbons break conjugation.
        let hexane = parse_smiles("C1CCCCC1").unwrap();
        assert!((0..6).all(|v| !hexane.is_aromatic(v)));
        // Pyrrole: lone-pair N plus two double bonds = 6 π electrons.
        let pyrrole = parse_smiles("C1=CC=CN1").unwrap();
        assert!((0..5).all(|v| pyrrole.is_aromatic(v)), "pyrrole ring");
        // Cyclobutadiene (4 π) must NOT be flagged.
        let cbd = parse_smiles("C1=CC=C1").unwrap();
        assert!((0..4).all(|v| !cbd.is_aromatic(v)), "antiaromatic ring");
    }

    #[test]
    fn ring_bond_symbols_at_either_end_must_agree() {
        // Only conflicting symbols are rejected; one symbol at either end,
        // or the same at both, sets the ring bond (the third bond here).
        assert_eq!(
            parse_smiles("C=1CC-1"),
            Err(SmilesError::RingBond {
                number: 1,
                reason: "ring bond symbols conflict"
            })
        );
        for s in ["C=1CC=1", "C=1CC1", "C1CC=1"] {
            let m = parse_smiles_heavy(s).unwrap();
            assert_eq!(m.bonds()[2].order, BondOrder::Double, "{s}");
        }
    }

    #[test]
    fn errors_name_the_text_as_written() {
        assert_eq!(
            parse_smiles("[Cé]"),
            Err(SmilesError::Unexpected { at: 2, found: 'é' })
        );
        assert_eq!(
            parse_smiles("[x]"),
            Err(SmilesError::UnknownElement {
                at: 1,
                symbol: "x".into()
            })
        );
    }

    #[test]
    fn bracket_error_spans_point_at_the_offending_character() {
        // "C[C&H]": the '&' is at byte offset 3.
        assert_eq!(
            parse_smiles("C[C&H]"),
            Err(SmilesError::Unexpected { at: 3, found: '&' })
        );
        // "C[Xy]": unknown element symbol starts at offset 2.
        assert!(matches!(
            parse_smiles("C[Xy]"),
            Err(SmilesError::UnknownElement { at: 2, .. })
        ));
        // "[CH4+?]": the '?' after the charge is at offset 5.
        assert_eq!(
            parse_smiles("[CH4+?]"),
            Err(SmilesError::Unexpected { at: 5, found: '?' })
        );
        // "[1234C]": the 4th isotope digit at offset 4 overflows the field.
        assert_eq!(
            parse_smiles("[1234C]"),
            Err(SmilesError::Unexpected { at: 4, found: '4' })
        );
        // "[13]": isotope with no symbol — error at the ']' position.
        assert_eq!(
            parse_smiles("[13]"),
            Err(SmilesError::Unexpected { at: 3, found: ']' })
        );
        // "[CH3:]": atom map with no digits — error at offset 5.
        assert_eq!(
            parse_smiles("[CH3:]"),
            Err(SmilesError::Unexpected { at: 5, found: ']' })
        );
    }
}
