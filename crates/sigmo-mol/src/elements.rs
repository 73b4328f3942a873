//! Chemical elements relevant to drug-like organic molecules.
//!
//! The paper bounds the label set by "the set of elements in the periodic
//! table, with a focus on those commonly found in organic molecules" (§4.2)
//! and exploits the heavily skewed element frequencies of organic compounds
//! (H, C ≫ N, O ≫ everything else) to allocate signature bits per label.
//! This module is the single source of truth for that label universe.

use serde::{Deserialize, Serialize};
use sigmo_graph::Label;
use std::fmt;

/// Number of distinct element labels (`|L|` in the paper's notation).
pub const NUM_ELEMENT_LABELS: usize = 12;

/// Elements supported by the molecular substrate, ordered by decreasing
/// empirical frequency in drug-like compounds so `Element as u8` doubles as
/// the node [`Label`] and frequency rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(u8)]
pub enum Element {
    /// Hydrogen — the most common atom in organic molecules.
    H = 0,
    /// Carbon — the backbone of organic chemistry.
    C = 1,
    /// Nitrogen.
    N = 2,
    /// Oxygen.
    O = 3,
    /// Sulfur.
    S = 4,
    /// Fluorine.
    F = 5,
    /// Chlorine.
    Cl = 6,
    /// Bromine.
    Br = 7,
    /// Phosphorus.
    P = 8,
    /// Iodine.
    I = 9,
    /// Boron (rare in drug space).
    B = 10,
    /// Silicon (rare; the paper's example of a label deserving few bits).
    Si = 11,
}

impl Element {
    /// All supported elements in label order.
    pub const ALL: [Element; NUM_ELEMENT_LABELS] = [
        Element::H,
        Element::C,
        Element::N,
        Element::O,
        Element::S,
        Element::F,
        Element::Cl,
        Element::Br,
        Element::P,
        Element::I,
        Element::B,
        Element::Si,
    ];

    /// The node label used in graph form.
    #[inline]
    pub fn label(self) -> Label {
        self as Label
    }

    /// Inverse of [`Element::label`].
    pub fn from_label(l: Label) -> Option<Element> {
        Element::ALL.get(l as usize).copied()
    }

    /// Chemical symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Element::H => "H",
            Element::C => "C",
            Element::N => "N",
            Element::O => "O",
            Element::S => "S",
            Element::F => "F",
            Element::Cl => "Cl",
            Element::Br => "Br",
            Element::P => "P",
            Element::I => "I",
            Element::B => "B",
            Element::Si => "Si",
        }
    }

    /// Parses a chemical symbol (case-sensitive, as in SMILES).
    pub fn from_symbol(s: &str) -> Option<Element> {
        Element::from_symbol_bytes(s.as_bytes())
    }

    /// [`Element::from_symbol`] over the symbol's bytes, so a tokenizer
    /// can look an element up from its input without building a string.
    pub fn from_symbol_bytes(s: &[u8]) -> Option<Element> {
        Some(match s {
            b"H" => Element::H,
            b"C" => Element::C,
            b"N" => Element::N,
            b"O" => Element::O,
            b"S" => Element::S,
            b"F" => Element::F,
            b"Cl" => Element::Cl,
            b"Br" => Element::Br,
            b"P" => Element::P,
            b"I" => Element::I,
            b"B" => Element::B,
            b"Si" => Element::Si,
            _ => return None,
        })
    }

    /// Maximum number of bonds (sum of bond orders) the element forms in
    /// neutral organic molecules. Degree is bounded by this, giving the
    /// paper's "degree ≤ 6, average ≈ 4" regime.
    pub fn max_valence(self) -> u8 {
        match self {
            Element::H | Element::F | Element::Cl | Element::Br | Element::I => 1,
            Element::O => 2,
            Element::N | Element::B => 3,
            Element::C | Element::Si => 4,
            Element::P => 5,
            Element::S => 6,
        }
    }

    /// Empirical relative occurrence weight in drug-like molecules
    /// (dimensionless; larger = more common). The skew mirrors the
    /// distribution the paper cites from Pauling: H and C dominate, N/O are
    /// common, halogens occasional, Si/B vanishingly rare.
    pub fn frequency_weight(self) -> f64 {
        match self {
            Element::H => 0.46,
            Element::C => 0.36,
            Element::N => 0.07,
            Element::O => 0.08,
            Element::S => 0.012,
            Element::F => 0.008,
            Element::Cl => 0.006,
            Element::Br => 0.002,
            Element::P => 0.001,
            Element::I => 0.0006,
            Element::B => 0.0002,
            Element::Si => 0.0002,
        }
    }

    /// Whether the element commonly participates in aromatic rings.
    pub fn can_be_aromatic(self) -> bool {
        matches!(self, Element::C | Element::N | Element::O | Element::S)
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Per-label frequency weights in label order, used by `sigmo-core` to
/// allocate signature bit groups.
pub fn label_frequency_weights() -> [f64; NUM_ELEMENT_LABELS] {
    let mut w = [0.0; NUM_ELEMENT_LABELS];
    for e in Element::ALL {
        w[e.label() as usize] = e.frequency_weight();
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_dense_and_round_trip() {
        for (i, e) in Element::ALL.iter().enumerate() {
            assert_eq!(e.label() as usize, i);
            assert_eq!(Element::from_label(i as Label), Some(*e));
        }
        assert_eq!(Element::from_label(NUM_ELEMENT_LABELS as Label), None);
    }

    #[test]
    fn symbols_round_trip() {
        for e in Element::ALL {
            assert_eq!(Element::from_symbol(e.symbol()), Some(e));
        }
        for e in Element::ALL {
            assert_eq!(Element::from_symbol_bytes(e.symbol().as_bytes()), Some(e));
        }
        assert_eq!(Element::from_symbol("Xx"), None);
        assert_eq!(Element::from_symbol(""), None);
        assert_eq!(Element::from_symbol("Cll"), None);
        assert_eq!(
            Element::from_symbol("c"),
            None,
            "symbols are case-sensitive"
        );
    }

    #[test]
    fn valences_match_chemistry() {
        assert_eq!(Element::H.max_valence(), 1);
        assert_eq!(Element::C.max_valence(), 4);
        assert_eq!(Element::N.max_valence(), 3);
        assert_eq!(Element::O.max_valence(), 2);
        assert_eq!(Element::S.max_valence(), 6);
    }

    #[test]
    fn frequency_ordering_is_monotone_for_top_elements() {
        // H > C > O > N > everything else.
        let w = label_frequency_weights();
        assert!(w[Element::H.label() as usize] > w[Element::C.label() as usize]);
        assert!(w[Element::C.label() as usize] > w[Element::O.label() as usize]);
        assert!(w[Element::O.label() as usize] > w[Element::N.label() as usize]);
        for e in [Element::S, Element::F, Element::Cl, Element::Si] {
            assert!(w[Element::N.label() as usize] > w[e.label() as usize]);
        }
    }

    #[test]
    fn weights_roughly_normalize() {
        let total: f64 = label_frequency_weights().iter().sum();
        assert!((total - 1.0).abs() < 0.01, "weights sum to {total}");
    }

    #[test]
    fn aromatic_capability() {
        assert!(Element::C.can_be_aromatic());
        assert!(Element::N.can_be_aromatic());
        assert!(!Element::H.can_be_aromatic());
        assert!(!Element::Cl.can_be_aromatic());
    }
}
