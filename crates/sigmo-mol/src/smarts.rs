//! A SMARTS parser for query patterns.
//!
//! SMARTS is the de-facto query language for substructure search (the
//! paper's §6 cites SMARTS evaluation as the rule-based alternative, and
//! its conclusion announces wildcard atoms/bonds as future work). This
//! subset maps onto the engine's wildcard machinery plus the per-node
//! [`NodePredicate`] table evaluated during candidate-bitmap init:
//!
//! * `*` — wildcard atom (`WILDCARD_LABEL`): any element;
//! * `~` — wildcard bond (`WILDCARD_EDGE`): any bond order;
//! * element atoms, branches, ring closures, and `-`/`=`/`#` bonds as in
//!   SMILES; aromatic lowercase atoms are accepted (implicit bonds between
//!   two aromatic atoms compile to wildcard edges so patterns match
//!   kekulized data);
//! * bracket predicates: atom lists `[C,N]`, negation `[!C]`, degree
//!   `D<n>`, ring membership `R` / `R0`, smallest-ring size `r<n>`,
//!   total-hydrogen `H<n>`, and formal charge `+` / `-` / `+n` / `-n`,
//!   combined with `;` / `&` (AND, `;` binding loosest) — compiled into a
//!   [`NodePredicate`] attached to the query node.
//!
//! OR (`,`) is supported between plain element symbols only (atom lists);
//! recursive SMARTS (`$(...)`) stays rejected with an error so the caller
//! knows the pattern was not silently weakened. Errors carry the byte
//! offset of the offending character, including inside brackets. The
//! skeleton walk and the atom-token scanner are shared with SMILES (the
//! crate's `reader` module); this module supplies the bond symbols, the
//! organic subset (`Cl` and `Br` are its two-letter symbols), the bracket
//! grammar and the graph the pattern becomes.
//!
//! SMARTS patterns describe *constraints*, not molecules: the result is a
//! [`LabeledGraph`] query (hydrogens never added, valence not enforced —
//! `*(*)(*)(*)(*)*` is a legal pattern even though no atom has valence 5).

use crate::elements::{Element, NUM_ELEMENT_LABELS};
use crate::reader::{self, Cursor, Dialect, SyntaxError, TWO_LETTER};
use sigmo_graph::{GraphError, LabeledGraph, NodePredicate, WILDCARD_EDGE, WILDCARD_LABEL};
use std::fmt;

/// SMARTS parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmartsError {
    /// Unexpected character.
    Unexpected { at: usize, found: char },
    /// A construct outside the supported subset.
    Unsupported { at: usize, what: &'static str },
    /// Unknown element symbol.
    UnknownElement { at: usize, symbol: String },
    /// Ring-closure bookkeeping failure.
    RingBond { number: u16, reason: &'static str },
    /// Parenthesis mismatch.
    Parenthesis { at: usize },
    /// Bond with no preceding atom.
    DanglingBond { at: usize },
    /// Structural error (duplicate edge etc.).
    Graph(String),
    /// Empty pattern.
    Empty,
}

impl fmt::Display for SmartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartsError::Unexpected { at, found } => {
                write!(f, "unexpected character {found:?} at offset {at}")
            }
            SmartsError::Unsupported { at, what } => {
                write!(f, "unsupported SMARTS construct at offset {at}: {what}")
            }
            SmartsError::UnknownElement { at, symbol } => {
                write!(f, "unknown element {symbol:?} at offset {at}")
            }
            SmartsError::RingBond { number, reason } => {
                write!(f, "ring bond {number}: {reason}")
            }
            SmartsError::Parenthesis { at } => write!(f, "unbalanced parenthesis at {at}"),
            SmartsError::DanglingBond { at } => write!(f, "bond with no atom at {at}"),
            SmartsError::Graph(e) => write!(f, "pattern structure error: {e}"),
            SmartsError::Empty => write!(f, "empty SMARTS"),
        }
    }
}

impl std::error::Error for SmartsError {}

impl From<GraphError> for SmartsError {
    fn from(e: GraphError) -> Self {
        SmartsError::Graph(e.to_string())
    }
}

impl From<SyntaxError> for SmartsError {
    fn from(e: SyntaxError) -> Self {
        match e {
            SyntaxError::Unexpected { at, found } => SmartsError::Unexpected { at, found },
            SyntaxError::UnknownElement { at, symbol } => {
                SmartsError::UnknownElement { at, symbol }
            }
            SyntaxError::RingBond { number, reason } => SmartsError::RingBond { number, reason },
            SyntaxError::Parenthesis { at } => SmartsError::Parenthesis { at },
            SyntaxError::DanglingBond { at } => SmartsError::DanglingBond { at },
            SyntaxError::Empty => SmartsError::Empty,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bond {
    Single,
    Double,
    Triple,
    Any,
}

/// The edge label of a bond; no written symbol means single, or "any"
/// between two aromatic atoms (aromatic ring bonds alternate; a pattern
/// author writing `cc` means "aromatically bonded", which kekulized data
/// encodes as 1 or 2).
fn edge_label(bond: Option<Bond>, aromatic_pair: bool) -> u8 {
    match bond {
        Some(Bond::Single) => 1,
        Some(Bond::Double) => 2,
        Some(Bond::Triple) => 3,
        Some(Bond::Any) => WILDCARD_EDGE,
        None if aromatic_pair => WILDCARD_EDGE,
        None => 1,
    }
}

/// A compiled atom: the node label plus any predicate constraints.
struct AtomSpec {
    label: u8,
    aromatic: bool,
    pred: NodePredicate,
}

/// All element labels allowed.
const FULL_MASK: u64 = (1u64 << NUM_ELEMENT_LABELS) - 1;

/// One primitive constraint inside a bracket atom.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Primitive {
    /// A positive element mention; `aromatic` records lowercase input.
    Elem { label: u8, aromatic: bool },
    /// `*` — any element.
    AnyElem,
    /// `!X` — element exclusion.
    NotElem { label: u8 },
    /// `D<n>`.
    Degree(u8),
    /// `H<n>`.
    HCount(u8),
    /// `R` / `R<n≥1>` (in ring) or `R0` (acyclic).
    RingMem(bool),
    /// `r<n>` — smallest ring through the atom has size `n`.
    RingSize(u8),
    /// `+n` / `-n`.
    Charge(i8),
}

/// The SMARTS side of the reader: the pattern graph, plus each node's
/// aromatic flag for the bonds written without a symbol.
#[derive(Default)]
struct Smarts {
    g: LabeledGraph,
    aromatic: Vec<bool>,
}

impl Dialect for Smarts {
    type Atom = AtomSpec;
    type Bond = Bond;
    type Error = SmartsError;
    const PERCENT_RINGS: bool = false;

    fn bond(symbol: u8) -> Option<Bond> {
        Some(match symbol {
            b'-' => Bond::Single,
            b'=' => Bond::Double,
            b'#' => Bond::Triple,
            b'~' => Bond::Any,
            _ => return None,
        })
    }

    fn organic(cur: &mut Cursor) -> Result<AtomSpec, SmartsError> {
        let (label, aromatic) = if cur.eat(b'*') {
            (WILDCARD_LABEL, false)
        } else {
            let (e, aromatic) = cur.element(&[Element::Cl, Element::Br])?;
            (e.label(), aromatic)
        };
        Ok(AtomSpec {
            label,
            aromatic,
            pred: NodePredicate::default(),
        })
    }

    /// Parses the inside of a bracket atom into the compiled spec.
    ///
    /// Precedence (high to low): `!`, `&`/juxtaposition, `,`, `;`. OR is only
    /// supported between plain element symbols, so the compilation below
    /// treats each `;`-term as either an element alternation or a conjunction
    /// of primitives and ANDs the terms together.
    fn bracket(cur: &mut Cursor) -> Result<AtomSpec, SmartsError> {
        if let Some(p) = cur.rest().find('$') {
            return Err(SmartsError::Unsupported {
                at: cur.pos + p,
                what: "recursive SMARTS ($(...))",
            });
        }
        if cur.peek().is_none() {
            return Err(cur.unexpected().into());
        }

        // `;`-terms, each a list of `,`-alternatives, each a list of
        // primitives with their offsets.
        let mut terms: Vec<Vec<Vec<(Primitive, usize)>>> = vec![vec![Vec::new()]];
        const OPEN: &str = "a term and an alternative are always open";
        let mut expect_element = true; // start of an alternative: H = element
        while let Some(c) = cur.peek() {
            let at = cur.pos;
            if matches!(c, b',' | b';' | b'&') {
                cur.pos += 1;
                match c {
                    b',' => terms.last_mut().expect(OPEN).push(Vec::new()),
                    b';' => terms.push(vec![Vec::new()]),
                    _ => {} // explicit AND: same as juxtaposition
                }
                expect_element = c != b'&';
                continue;
            }
            let prim = match c {
                b'!' => {
                    // After '!' only an element symbol is allowed ('H' here is
                    // element hydrogen, not an H-count primitive).
                    cur.pos += 1;
                    if !cur.peek().is_some_and(|n| {
                        n.is_ascii_alphabetic() && !matches!(n, b'D' | b'R' | b'r')
                    }) {
                        return Err(SmartsError::Unsupported {
                            at,
                            what: "negation of non-element primitives",
                        });
                    }
                    let (e, _aromatic) = cur.element(TWO_LETTER)?;
                    Primitive::NotElem { label: e.label() }
                }
                b'*' => {
                    cur.pos += 1;
                    Primitive::AnyElem
                }
                b'D' => {
                    cur.pos += 1;
                    Primitive::Degree(cur.digits(1).unwrap_or(1) as u8)
                }
                b'H' if !expect_element => {
                    cur.pos += 1;
                    Primitive::HCount(cur.digits(1).unwrap_or(1) as u8)
                }
                b'R' => {
                    cur.pos += 1;
                    Primitive::RingMem(cur.digits(1).is_none_or(|n| n != 0))
                }
                b'r' => {
                    cur.pos += 1;
                    cur.digits(2)
                        .map_or(Primitive::RingMem(true), |n| Primitive::RingSize(n as u8))
                }
                b'+' | b'-' => Primitive::Charge(cur.formal_charge().expect("a sign is next")),
                _ => {
                    let (e, aromatic) = cur.element(TWO_LETTER)?;
                    Primitive::Elem {
                        label: e.label(),
                        aromatic,
                    }
                }
            };
            let alternative = terms.last_mut().and_then(|t| t.last_mut());
            alternative.expect(OPEN).push((prim, at));
            expect_element = false;
        }

        // Compile: intersect an allowed-element mask across terms, gather
        // predicate fields.
        let mut allowed = FULL_MASK;
        let mut pred = NodePredicate::default();
        for alternatives in &terms {
            if let [conjunction] = alternatives.as_slice() {
                for &(p, _) in conjunction {
                    match p {
                        Primitive::Elem { label, .. } => allowed &= 1u64 << label,
                        Primitive::AnyElem => {}
                        Primitive::NotElem { label } => allowed &= !(1u64 << label),
                        Primitive::Degree(n) => pred.degree = Some(n),
                        Primitive::HCount(n) => pred.h_count = Some(n),
                        Primitive::RingMem(m) => pred.ring = Some(m),
                        Primitive::RingSize(n) => pred.ring_size = Some(n),
                        Primitive::Charge(c) => pred.charge = Some(c),
                    }
                }
                continue;
            }
            // Atom list: every alternative must be one plain element.
            let mut union = 0u64;
            for alt in alternatives {
                match alt.as_slice() {
                    [(Primitive::Elem { label, .. }, _)] => union |= 1u64 << label,
                    [(Primitive::AnyElem, _)] => union = FULL_MASK,
                    [] => return Err(cur.unexpected().into()),
                    [(_, at), ..] => {
                        return Err(SmartsError::Unsupported {
                            at: *at,
                            what: "OR between non-element primitives",
                        });
                    }
                }
            }
            allowed &= union;
        }

        // The label and label_any mask: a singleton set compiles to a concrete
        // label (fast path — label buckets prune for free); the full set is a
        // plain wildcard; anything else is a wildcard plus a mask predicate.
        // The atom is aromatic when every element it names is lowercase.
        let mut mentions = terms
            .iter()
            .flatten()
            .flatten()
            .filter_map(|(p, _)| match p {
                Primitive::Elem { aromatic, .. } => Some(*aromatic),
                _ => None,
            });
        let aromatic =
            allowed != FULL_MASK && mentions.next().is_some_and(|a| a && mentions.all(|a| a));
        let label = if allowed.count_ones() == 1 {
            allowed.trailing_zeros() as u8
        } else {
            if allowed != FULL_MASK {
                pred.label_any = Some(allowed);
            }
            WILDCARD_LABEL
        };
        Ok(AtomSpec {
            label,
            aromatic,
            pred,
        })
    }

    fn add_atom(&mut self, atom: AtomSpec) {
        let id = self.g.add_node(atom.label);
        self.aromatic.push(atom.aromatic);
        if !atom.pred.is_trivial() {
            self.g.set_predicate(id, atom.pred);
        }
    }

    fn add_edge(&mut self, a: u32, b: u32, bond: Option<Bond>) -> Result<(), SmartsError> {
        let pair = self.aromatic[a as usize] && self.aromatic[b as usize];
        self.g.add_edge(a, b, edge_label(bond, pair))?;
        Ok(())
    }
}

/// Parses a SMARTS-subset pattern into a query graph. Bracket predicates
/// compile into [`NodePredicate`]s attached to the graph's nodes.
pub fn parse_smarts(s: &str) -> Result<LabeledGraph, SmartsError> {
    let mut pattern = Smarts::default();
    reader::read(s, &mut pattern)?;
    Ok(pattern.g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_graph::is_connected;

    #[test]
    fn plain_elements_parse_like_smiles_heavy() {
        let g = parse_smarts("C(=O)O").unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.edge_label(0, 1), Some(2));
        assert_eq!(g.edge_label(0, 2), Some(1));
    }

    #[test]
    fn star_is_wildcard_atom() {
        let g = parse_smarts("C=*").unwrap();
        assert_eq!(g.label(1), WILDCARD_LABEL);
        assert_eq!(g.edge_label(0, 1), Some(2));
        let g2 = parse_smarts("[*]C").unwrap();
        assert_eq!(g2.label(0), WILDCARD_LABEL);
        assert!(!g2.has_predicates());
    }

    #[test]
    fn tilde_is_wildcard_bond() {
        let g = parse_smarts("C~O").unwrap();
        assert_eq!(g.edge_label(0, 1), Some(WILDCARD_EDGE));
    }

    #[test]
    fn aromatic_ring_uses_wildcard_bonds() {
        // c1ccccc1 as a *pattern* must match kekulized data rings whose
        // bonds alternate 1/2 — so implicit aromatic bonds become ~.
        let g = parse_smarts("c1ccccc1").unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 6);
        for (a, b, l) in g.edges() {
            assert_eq!(l, WILDCARD_EDGE, "aromatic bond {a}-{b}");
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn smarts_pattern_matches_kekulized_benzene() {
        use crate::smiles::parse_smiles;
        let pattern = parse_smarts("c1ccccc1").unwrap();
        let benzene = parse_smiles("c1ccccc1").unwrap().to_labeled_graph();
        // Every rotation/reflection: 12 embeddings.
        let count = sigmo_baselines_shim::count(&pattern, &benzene);
        assert_eq!(count, 12);
    }

    /// Minimal local matcher so this crate avoids a dev-dependency cycle.
    /// Predicate-aware: mirrors `LabeledGraph::is_valid_embedding`.
    mod sigmo_baselines_shim {
        use sigmo_graph::{LabeledGraph, NodeId, WILDCARD_EDGE, WILDCARD_LABEL};

        pub fn count(q: &LabeledGraph, d: &LabeledGraph) -> u64 {
            let attrs = d.node_attrs();
            fn rec(
                q: &LabeledGraph,
                d: &LabeledGraph,
                attrs: &sigmo_graph::NodeAttrs,
                map: &mut Vec<NodeId>,
                used: &mut Vec<bool>,
                n: &mut u64,
            ) {
                let depth = map.len();
                if depth == q.num_nodes() {
                    *n += 1;
                    return;
                }
                for c in 0..d.num_nodes() as NodeId {
                    if used[c as usize] {
                        continue;
                    }
                    let ql = q.label(depth as NodeId);
                    if ql != WILDCARD_LABEL && ql != d.label(c) {
                        continue;
                    }
                    if let Some(pred) = q.predicate(depth as NodeId) {
                        if !pred.matches(attrs, c) {
                            continue;
                        }
                    }
                    let ok = q.neighbors(depth as NodeId).iter().all(|&(u, l)| {
                        if u >= depth as NodeId {
                            return true;
                        }
                        match d.edge_label(map[u as usize], c) {
                            Some(dl) => l == WILDCARD_EDGE || l == dl,
                            None => false,
                        }
                    });
                    if !ok {
                        continue;
                    }
                    map.push(c);
                    used[c as usize] = true;
                    rec(q, d, attrs, map, used, n);
                    used[c as usize] = false;
                    map.pop();
                }
            }
            let mut n = 0;
            rec(
                q,
                d,
                &attrs,
                &mut Vec::new(),
                &mut vec![false; d.num_nodes()],
                &mut n,
            );
            n
        }
    }

    #[test]
    fn wildcard_acyl_pattern() {
        use crate::smiles::parse_smiles;
        // C(=O)~*: carbonyl carbon bonded (any bond) to anything else.
        let pattern = parse_smarts("C(=O)~*").unwrap();
        let amide = parse_smiles("CC(=O)N").unwrap().to_labeled_graph();
        let ethanol = parse_smiles("CCO").unwrap().to_labeled_graph();
        assert!(sigmo_baselines_shim::count(&pattern, &amide) > 0);
        assert_eq!(sigmo_baselines_shim::count(&pattern, &ethanol), 0);
    }

    #[test]
    fn atom_lists_compile_to_label_masks() {
        let g = parse_smarts("[C,N]O").unwrap();
        assert_eq!(g.label(0), WILDCARD_LABEL);
        let pred = g.predicate(0).expect("atom list needs a predicate");
        let mask = pred.label_any.unwrap();
        assert_eq!(mask, (1 << Element::C.label()) | (1 << Element::N.label()));
    }

    #[test]
    fn negation_compiles_to_complement_mask() {
        let g = parse_smarts("[!C]").unwrap();
        assert_eq!(g.label(0), WILDCARD_LABEL);
        let mask = g.predicate(0).unwrap().label_any.unwrap();
        assert_eq!(mask & (1 << Element::C.label()), 0);
        assert_ne!(mask & (1 << Element::O.label()), 0);
        // Double negation narrows further.
        let g = parse_smarts("[!C!H]").unwrap();
        let mask = g.predicate(0).unwrap().label_any.unwrap();
        assert_eq!(mask & (1 << Element::C.label()), 0);
        assert_eq!(mask & (1 << Element::H.label()), 0);
        assert_ne!(mask & (1 << Element::N.label()), 0);
    }

    #[test]
    fn singleton_lists_collapse_to_concrete_labels() {
        // A one-element "list" needs no mask at all.
        let g = parse_smarts("[C]").unwrap();
        assert_eq!(g.label(0), Element::C.label());
        assert!(!g.has_predicates());
        // Negating everything but one element also collapses.
        let g2 = parse_smarts("[C,C]").unwrap();
        assert_eq!(g2.label(0), Element::C.label());
        assert!(!g2.has_predicates());
    }

    #[test]
    fn degree_ring_hcount_charge_predicates() {
        let g = parse_smarts("[CD3]").unwrap();
        assert_eq!(g.label(0), Element::C.label());
        assert_eq!(g.predicate(0).unwrap().degree, Some(3));

        let g = parse_smarts("[CR]").unwrap();
        assert_eq!(g.predicate(0).unwrap().ring, Some(true));
        let g = parse_smarts("[CR0]").unwrap();
        assert_eq!(g.predicate(0).unwrap().ring, Some(false));
        let g = parse_smarts("[Cr6]").unwrap();
        assert_eq!(g.predicate(0).unwrap().ring_size, Some(6));

        let g = parse_smarts("[CH2]").unwrap();
        assert_eq!(g.predicate(0).unwrap().h_count, Some(2));

        let g = parse_smarts("[N+]").unwrap();
        assert_eq!(g.label(0), Element::N.label());
        assert_eq!(g.predicate(0).unwrap().charge, Some(1));
        let g = parse_smarts("[O-]").unwrap();
        assert_eq!(g.predicate(0).unwrap().charge, Some(-1));
        let g = parse_smarts("[N+2]").unwrap();
        assert_eq!(g.predicate(0).unwrap().charge, Some(2));
    }

    #[test]
    fn semicolon_and_ampersand_are_conjunction() {
        let g = parse_smarts("[C,N;R]").unwrap();
        let pred = g.predicate(0).unwrap();
        assert!(pred.label_any.is_some());
        assert_eq!(pred.ring, Some(true));
        let g = parse_smarts("[C&D2]").unwrap();
        assert_eq!(g.label(0), Element::C.label());
        assert_eq!(g.predicate(0).unwrap().degree, Some(2));
    }

    #[test]
    fn bracket_h_is_element_at_alternative_start() {
        // [H] is a hydrogen atom; [CH] is carbon with one hydrogen.
        let g = parse_smarts("[H]").unwrap();
        assert_eq!(g.label(0), Element::H.label());
        assert!(!g.has_predicates());
        let g = parse_smarts("[CH]").unwrap();
        assert_eq!(g.label(0), Element::C.label());
        assert_eq!(g.predicate(0).unwrap().h_count, Some(1));
    }

    #[test]
    fn predicate_patterns_match_via_shim() {
        use crate::smiles::parse_smiles;
        // [CD4] — quaternary-environment carbon (counting hydrogens).
        let pattern = parse_smarts("[CD4]").unwrap();
        let methane = parse_smiles("C").unwrap().to_labeled_graph();
        assert_eq!(sigmo_baselines_shim::count(&pattern, &methane), 1);

        // [CR]: ring carbon — cyclohexane yes, hexane no.
        let ring = parse_smarts("[CR]").unwrap();
        let cyclo = parse_smiles("C1CCCCC1").unwrap().to_labeled_graph();
        let chain = parse_smiles("CCCCCC").unwrap().to_labeled_graph();
        assert_eq!(sigmo_baselines_shim::count(&ring, &cyclo), 6);
        assert_eq!(sigmo_baselines_shim::count(&ring, &chain), 0);

        // [C,N] matches both carbons and nitrogens.
        let list = parse_smarts("[C,N]").unwrap();
        let mea = parse_smiles("CN").unwrap().to_labeled_graph();
        assert_eq!(sigmo_baselines_shim::count(&list, &mea), 2);

        // Charge predicate distinguishes the carboxylate oxygen.
        let anion = parse_smarts("[O-]").unwrap();
        let acetate = parse_smiles("CC(=O)[O-]").unwrap().to_labeled_graph();
        let acid = parse_smiles("CC(=O)O").unwrap().to_labeled_graph();
        assert_eq!(sigmo_baselines_shim::count(&anion, &acetate), 1);
        assert_eq!(sigmo_baselines_shim::count(&anion, &acid), 0);

        // [!C] with a neighbor: hetero-neighbor of a carbonyl carbon.
        let hetero = parse_smarts("[!C][H]").unwrap();
        let water_ish = parse_smiles("O").unwrap().to_labeled_graph();
        assert!(sigmo_baselines_shim::count(&hetero, &water_ish) > 0);
    }

    #[test]
    fn unsupported_constructs_are_rejected_loudly() {
        // Recursive SMARTS stays out of scope, with an exact offset.
        assert!(matches!(
            parse_smarts("[$(CC)]"),
            Err(SmartsError::Unsupported { at: 1, .. })
        ));
        // OR between non-element primitives.
        assert!(matches!(
            parse_smarts("[R,D2]"),
            Err(SmartsError::Unsupported { .. })
        ));
        // Negating a predicate primitive.
        assert!(matches!(
            parse_smarts("[!R]"),
            Err(SmartsError::Unsupported { .. })
        ));
    }

    #[test]
    fn bracket_error_spans_are_exact() {
        // "C[N?]": '?' is at byte offset 3.
        assert_eq!(
            parse_smarts("C[N?]"),
            Err(SmartsError::Unexpected { at: 3, found: '?' })
        );
        // "[C;Xy]": unknown element at offset 3.
        assert!(matches!(
            parse_smarts("[C;Xy]"),
            Err(SmartsError::UnknownElement { at: 3, .. })
        ));
    }

    #[test]
    fn structural_errors() {
        assert!(matches!(parse_smarts(""), Err(SmartsError::Empty)));
        assert!(matches!(
            parse_smarts("~C"),
            Err(SmartsError::DanglingBond { .. })
        ));
        assert!(matches!(
            parse_smarts("C(C"),
            Err(SmartsError::Parenthesis { .. })
        ));
        assert!(matches!(
            parse_smarts("C1CC"),
            Err(SmartsError::RingBond { .. })
        ));
        assert!(matches!(
            parse_smarts("Xy"),
            Err(SmartsError::UnknownElement { .. })
        ));
        assert!(matches!(
            parse_smarts("C~"),
            Err(SmartsError::DanglingBond { at: 1 })
        ));
        assert!(matches!(
            parse_smarts("C(=)C"),
            Err(SmartsError::DanglingBond { at: 2 })
        ));
    }

    #[test]
    fn ring_bond_symbols_at_either_end_must_agree() {
        // Only conflicting symbols are rejected; one symbol at either end,
        // or the same at both, labels the ring edge.
        for s in ["C=1CC-1", "C~1CC-1"] {
            assert_eq!(
                parse_smarts(s),
                Err(SmartsError::RingBond {
                    number: 1,
                    reason: "ring bond symbols conflict"
                }),
                "{s}"
            );
        }
        for s in ["C=1CC=1", "C=1CC1", "C1CC=1"] {
            assert_eq!(parse_smarts(s).unwrap().edge_label(0, 2), Some(2), "{s}");
        }
    }

    #[test]
    fn errors_name_the_text_as_written() {
        assert_eq!(
            parse_smarts("Cé"),
            Err(SmartsError::Unexpected { at: 1, found: 'é' })
        );
        assert_eq!(
            parse_smarts("[Cé]"),
            Err(SmartsError::Unexpected { at: 2, found: 'é' })
        );
        // `Si` is no organic SMARTS atom: `S`, then an unknown `i`.
        for (s, at, symbol) in [("x", 0, "x"), ("Cx", 1, "x"), ("Si", 1, "i")] {
            assert_eq!(
                parse_smarts(s),
                Err(SmartsError::UnknownElement {
                    at,
                    symbol: symbol.into()
                }),
                "{s}"
            );
        }
    }

    #[test]
    fn no_hydrogens_no_valence_enforcement() {
        // Five neighbors around one carbon: illegal chemistry, legal pattern.
        let g = parse_smarts("*(*)(*)(*)(*)*").unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.degree(0), 5);
    }

    #[test]
    fn dot_separates_pattern_fragments() {
        let g = parse_smarts("C.N").unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 0);
    }
}
