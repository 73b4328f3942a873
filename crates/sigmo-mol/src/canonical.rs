//! Canonical graph codes via Morgan-style refinement with
//! individualization (the classic canonical-labeling scheme used by
//! cheminformatics toolkits for duplicate detection), with nauty/Traces
//! style automorphism pruning (McKay & Piperno, "Practical Graph
//! Isomorphism, II", 2014).
//!
//! [`canonical_code`] maps a labeled graph to a byte string such that two
//! graphs get the same code **iff** they are isomorphic (same node labels,
//! same edge labels, same structure). Used to deduplicate generated
//! libraries and extracted query patterns, and as an independent oracle in
//! tests (isomorphic inputs must produce identical engine results).
//!
//! The code is the minimum, over the leaves of an
//! individualization-refinement tree, of the adjacency code each leaf's
//! discrete partition emits. A symmetric graph's tree repeats itself: two
//! leaves with equal codes differ by a graph automorphism, and so do the
//! subtrees below children that one automorphism maps onto each other. The
//! search records each such automorphism as a generator and skips
//! - every child in the same orbit as an already explored sibling, under
//!   the stored generators that stabilize the node's partition (orbit
//!   pruning), and
//! - the rest of a subtree once a generator maps it onto an explored
//!   sibling's (backjumping).
//!
//! A skipped subtree's leaf codes all equal codes already seen, so the
//! minimum — the code — is exactly the one the unpruned search
//! ([`reference_canonical_code`], kept as the test oracle) returns.

use sigmo_graph::{LabeledGraph, NodeId};
use std::collections::BTreeMap;

/// Reusable buffers for [`refine`].
#[derive(Default)]
struct Scratch {
    /// The nodes grouped by class, in class order (node order within a
    /// class): class `c` occupies `order[start[c]..start[c + 1]]`.
    order: Vec<u32>,
    start: Vec<u32>,
    cursor: Vec<u32>,
    /// Sorted `(neighbor class, edge label)` lists of the nodes in
    /// non-singleton classes, back to back; node `v`'s list starts at
    /// `at[v]` and has `degree(v)` entries.
    nbrs: Vec<(u32, u8)>,
    at: Vec<u32>,
    next: Vec<u32>,
}

/// Equitable refinement: split classes until stable. `classes[v]` is a
/// class id; nodes are equivalent while they share (own class, multiset
/// of (neighbor class, edge label)). Each pass numbers the distinct keys
/// densely in sorted order, so the class order only ever refines. Own
/// class leads the key, so a pass sorts within each class and never
/// compares the keys of a singleton.
fn refine(g: &LabeledGraph, classes: &mut Vec<u32>, s: &mut Scratch) {
    let n = g.num_nodes();
    let Scratch {
        order,
        start,
        cursor,
        nbrs,
        at,
        next,
    } = s;
    at.resize(n, 0);
    loop {
        let k = classes.iter().copied().max().map_or(0, |m| m as usize + 1);
        start.clear();
        start.resize(k + 1, 0);
        for &c in classes.iter() {
            start[c as usize + 1] += 1;
        }
        for c in 0..k {
            start[c + 1] += start[c];
        }
        cursor.clear();
        cursor.extend_from_slice(&start[..k]);
        order.resize(n, 0);
        for (v, &c) in classes.iter().enumerate() {
            order[cursor[c as usize] as usize] = v as u32;
            cursor[c as usize] += 1;
        }
        nbrs.clear();
        for c in 0..k {
            let members = &order[start[c] as usize..start[c + 1] as usize];
            if members.len() < 2 {
                continue;
            }
            for &v in members {
                let from = nbrs.len();
                at[v as usize] = from as u32;
                nbrs.extend(
                    g.neighbors(v)
                        .iter()
                        .map(|&(u, l)| (classes[u as usize], l)),
                );
                nbrs[from..].sort_unstable();
            }
        }
        let key = |v: u32| {
            let from = at[v as usize] as usize;
            &nbrs[from..from + g.degree(v)]
        };
        next.clear();
        next.resize(n, 0);
        let mut id = 0u32;
        for c in 0..k {
            let members = &mut order[start[c] as usize..start[c + 1] as usize];
            if members.is_empty() {
                continue;
            }
            if members.len() > 1 {
                members.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
            }
            for w in 0..members.len() {
                if w > 0 && key(members[w]) != key(members[w - 1]) {
                    id += 1;
                }
                next[members[w] as usize] = id;
            }
            id += 1;
        }
        if *next == *classes {
            return;
        }
        std::mem::swap(classes, next);
    }
}

/// [`refine`] as first written, one allocated key per node per pass: the
/// oracle's refinement, so the reference search shares no refinement code
/// with the pruned one.
fn reference_refine(g: &LabeledGraph, classes: &mut Vec<u32>) {
    type RefineKey = (u32, Vec<(u32, u8)>);
    loop {
        let key_of: Vec<RefineKey> = (0..g.num_nodes())
            .map(|v| {
                let mut nbrs: Vec<(u32, u8)> = g
                    .neighbors(v as NodeId)
                    .iter()
                    .map(|&(u, l)| (classes[u as usize], l))
                    .collect();
                nbrs.sort_unstable();
                (classes[v], nbrs)
            })
            .collect();
        let mut sorted: Vec<(usize, &RefineKey)> = key_of.iter().enumerate().collect();
        sorted.sort_by(|a, b| a.1.cmp(b.1));
        let mut next = vec![0u32; g.num_nodes()];
        let mut id = 0u32;
        for w in 0..sorted.len() {
            if w > 0 && sorted[w].1 != sorted[w - 1].1 {
                id += 1;
            }
            next[sorted[w].0] = id;
        }
        if next == *classes {
            return;
        }
        *classes = next;
    }
}

/// The labeling a discrete partition induces: `node_at[c]` is the node
/// with class `c`.
fn labeling(classes: &[u32]) -> Vec<NodeId> {
    let mut node_at = vec![0 as NodeId; classes.len()];
    for (v, &c) in classes.iter().enumerate() {
        node_at[c as usize] = v as NodeId;
    }
    node_at
}

/// Emits the adjacency code of `g` under the total order given by
/// `classes` (which must be discrete: one node per class), whose
/// [`labeling`] is `node_at`.
fn emit_code(g: &LabeledGraph, classes: &[u32], node_at: &[NodeId]) -> Vec<u8> {
    let n = g.num_nodes();
    let mut code = Vec::with_capacity(n + 3 * g.num_edges() + 1);
    code.push(n as u8);
    for &v in node_at {
        code.push(g.label(v));
    }
    let mut edges: Vec<(u32, u32, u8)> = g
        .edges()
        .map(|(a, b, l)| {
            let (ca, cb) = (classes[a as usize], classes[b as usize]);
            (ca.min(cb), ca.max(cb), l)
        })
        .collect();
    edges.sort_unstable();
    for (a, b, l) in edges {
        code.push(a as u8);
        code.push(b as u8);
        code.push(l);
    }
    // Charge section, only for charged graphs so uncharged codes are
    // byte-identical to the pre-charge format. The 0xFF separator cannot
    // collide with an edge triple's first byte (a class id < n ≤ 255).
    if g.has_charges() {
        code.push(0xFF);
        for &v in node_at {
            code.push(g.charge(v) as u8);
        }
    }
    code
}

/// The search's target cell: the members, in node-id order, of the
/// non-singleton class with the lowest id, with that id. `None` when the
/// partition is discrete.
fn target_cell(classes: &[u32]) -> Option<(u32, Vec<NodeId>)> {
    let mut size = vec![0u32; classes.len()];
    for &c in classes {
        size[c as usize] += 1;
    }
    let c = size.iter().position(|&s| s > 1)? as u32;
    let cell = (0..classes.len() as NodeId)
        .filter(|&v| classes[v as usize] == c)
        .collect();
    Some((c, cell))
}

/// Individualizes `v`, a member of class `c`: it keeps class `c` and every
/// class `≥ c` (its former peers included) moves up by one. The result
/// still needs refining.
fn individualize(classes: &[u32], c: u32, v: NodeId) -> Vec<u32> {
    let mut next: Vec<u32> = classes
        .iter()
        .map(|&x| if x >= c { x + 1 } else { x })
        .collect();
    next[v as usize] = c;
    next
}

/// Fixes the relative order of interchangeable sibling leaves without
/// branching: leaves (degree 1) hanging off the same parent with the same
/// node and edge label are automorphic images of one another (swapping two
/// of them is a graph automorphism), so assigning them consecutive
/// distinct classes in node-id order cannot change the minimal code. This
/// collapses the factorial blow-up that explicit hydrogens (CH₃, CH₂…)
/// would otherwise cause in the individualization search.
/// Soundness condition: the shortcut applies only to groups whose parent
/// forms a *singleton* class. Then the group's leaf class is unique to
/// that parent (the parent's class appears in the leaves' refinement key),
/// so permuting the group's members is a genuine automorphism and any
/// fixed order yields the same minimal code. Leaves of non-singleton
/// parents are left to the branching search — fixing their order could
/// leak arbitrary node ids into the code.
///
/// The shortcut is the one step of a tree node's refinement that reads
/// node ids, so the tree is equivariant only up to these leaf swaps: for
/// an automorphism γ, the child of `π^γ` at `v^γ` is the child of `π` at
/// `v` mapped by γ composed with a permutation of such sibling leaves,
/// itself an automorphism. Subtrees related that way still emit the same
/// set of codes (by induction from the leaves, whose codes an automorphism
/// never changes), which is all the pruning in [`Search`] relies on; it
/// checks that each generator stabilizes a node's partition outright
/// instead of inferring it from the path.
///
/// Returns whether any class was split; the caller then re-refines.
fn split_sibling_leaves(g: &LabeledGraph, classes: &mut [u32]) -> bool {
    let n = g.num_nodes();
    let mut class_size = vec![0u32; n + 1];
    for &c in classes.iter() {
        class_size[c as usize] += 1;
    }
    // (leaf class) -> leaves; the class already encodes parent identity
    // when the parent class is singleton.
    let mut groups: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
    for v in 0..n as NodeId {
        if g.degree(v) == 1 {
            let (parent, _) = g.neighbors(v)[0];
            if class_size[classes[parent as usize] as usize] == 1 {
                groups.entry(classes[v as usize]).or_default().push(v);
            }
        }
    }
    let mut next_free = classes.iter().copied().max().unwrap_or(0) + 1;
    let mut changed = false;
    for (_, leaves) in groups {
        if leaves.len() < 2 {
            continue;
        }
        for &v in &leaves[1..] {
            classes[v as usize] = next_free;
            next_free += 1;
            changed = true;
        }
    }
    changed
}

/// The root partition before refinement: classes by (node label, formal
/// charge). Charges must split classes up front: the sibling-leaf
/// shortcut treats same-class leaves as interchangeable, which only holds
/// when class membership already reflects every invariant the emitted
/// code depends on.
fn initial_classes(g: &LabeledGraph) -> Vec<u32> {
    let mut keys: Vec<(u8, i8)> = (0..g.num_nodes() as NodeId)
        .map(|v| (g.label(v), g.charge(v)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    (0..g.num_nodes() as NodeId)
        .map(|v| keys.binary_search(&(g.label(v), g.charge(v))).unwrap() as u32)
        .collect()
}

/// Upper bound on stored automorphism generators. A generator found past
/// it still prunes every node on the current path but is not kept for
/// nodes opened later.
const MAX_GENERATORS: usize = 64;

/// One tree node on the current search path.
struct Level {
    /// The node's partition.
    classes: Vec<u32>,
    /// Its target cell's class id and members, which are its children.
    c: u32,
    cell: Vec<NodeId>,
    /// Union-find over the children's orbits (indexed by node id) under
    /// the generators folded in so far.
    parent: Vec<u32>,
    /// Per orbit root: whether some child in the orbit is accounted for —
    /// explored, or skipped as the image of an explored one.
    done: Vec<bool>,
    /// The child being explored.
    current: NodeId,
}

impl Level {
    fn new(classes: Vec<u32>, c: u32, cell: Vec<NodeId>) -> Self {
        let n = classes.len();
        Self {
            classes,
            c,
            cell,
            parent: (0..n as u32).collect(),
            done: vec![false; n],
            current: 0,
        }
    }

    fn find(&mut self, mut v: u32) -> u32 {
        // sigmo-lint: allow(unbounded-kernel-loop) — a union-find walk,
        // bounded by the orbit forest's depth (< n); canonical labeling
        // runs at admission on the host, and the name-based call graph
        // links this `find` to kernels' `Iterator::find` calls.
        while self.parent[v as usize] != v {
            let up = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = up;
            v = up;
        }
        v
    }

    /// Joins the orbits `gen` links, if `gen` maps every class of this
    /// node's partition onto itself. Such a generator maps the child at
    /// `v` to the child at `gen(v)` up to sibling-leaf swaps (see
    /// [`split_sibling_leaves`]), so the two children's subtrees emit the
    /// same codes.
    fn fold(&mut self, gen: &Generator) {
        let image = |x: u32| gen.perm[x as usize] as usize;
        if gen
            .moved
            .iter()
            .any(|&x| self.classes[image(x)] != self.classes[x as usize])
        {
            return;
        }
        for &x in &gen.moved {
            if self.classes[x as usize] != self.c {
                continue;
            }
            let (a, b) = (self.find(x), self.find(image(x) as u32));
            if a != b {
                self.parent[a as usize] = b;
                self.done[b as usize] |= self.done[a as usize];
            }
        }
    }

    /// Whether `v`'s orbit holds an accounted-for child.
    fn accounted(&mut self, v: NodeId) -> bool {
        let r = self.find(v);
        self.done[r as usize]
    }

    fn mark_done(&mut self, v: NodeId) {
        let r = self.find(v);
        self.done[r as usize] = true;
    }
}

/// A stored automorphism: the permutation and the points it moves.
struct Generator {
    perm: Vec<u32>,
    moved: Vec<u32>,
}

/// A leaf kept for automorphism detection: its code and labeling.
struct Leaf {
    code: Vec<u8>,
    node_at: Vec<NodeId>,
}

/// The pruned individualization-refinement search.
struct Search<'g> {
    g: &'g LabeledGraph,
    scratch: Scratch,
    path: Vec<Level>,
    generators: Vec<Generator>,
    first: Option<Leaf>,
    best: Option<Leaf>,
    /// Tree nodes visited, leaves included.
    nodes: u64,
}

impl Search<'_> {
    /// Refines `classes` as every tree node does: equitable refinement,
    /// then the sibling-leaf split.
    fn refine(&mut self, classes: &mut Vec<u32>) {
        refine(self.g, classes, &mut self.scratch);
        if split_sibling_leaves(self.g, classes) {
            refine(self.g, classes, &mut self.scratch);
        }
    }

    /// Searches the subtree at partition `classes`. Returns the depth to
    /// backjump to when a generator found below shows that the child
    /// explored at that depth is an image of an accounted-for sibling.
    fn descend(&mut self, classes: Vec<u32>) -> Option<usize> {
        self.nodes += 1;
        let Some((c, cell)) = target_cell(&classes) else {
            return self.leaf(&classes);
        };
        let depth = self.path.len();
        let mut level = Level::new(classes, c, cell);
        for gen in &self.generators {
            level.fold(gen);
        }
        self.path.push(level);
        for i in 0..self.path[depth].cell.len() {
            let level = &mut self.path[depth];
            let v = level.cell[i];
            if level.accounted(v) {
                continue;
            }
            level.current = v;
            let mut next = individualize(&level.classes, level.c, v);
            self.refine(&mut next);
            if let Some(to) = self.descend(next) {
                if to < depth {
                    self.path.pop();
                    return Some(to);
                }
            }
            self.path[depth].mark_done(v);
        }
        self.path.pop();
        None
    }

    /// Scores a leaf. A code equal to the first or best leaf's yields the
    /// automorphism between the two labelings, which is folded into every
    /// node on the path; the search backjumps to the shallowest node whose
    /// current child it maps into an accounted-for orbit.
    fn leaf(&mut self, classes: &[u32]) -> Option<usize> {
        let node_at = labeling(classes);
        let code = emit_code(self.g, classes, &node_at);
        let (Some(first), Some(best)) = (&self.first, &self.best) else {
            self.first = Some(Leaf {
                code: code.clone(),
                node_at: node_at.clone(),
            });
            self.best = Some(Leaf { code, node_at });
            return None;
        };
        let twin = if code == first.code {
            first
        } else if code == best.code {
            best
        } else {
            if code < best.code {
                self.best = Some(Leaf { code, node_at });
            }
            return None;
        };
        // The automorphism maps the twin's node at each position to this
        // leaf's.
        let mut perm = vec![0u32; node_at.len()];
        for (&from, &to) in twin.node_at.iter().zip(&node_at) {
            perm[from as usize] = to;
        }
        let moved: Vec<u32> = (0..perm.len() as u32)
            .filter(|&x| perm[x as usize] != x)
            .collect();
        let gen = Generator { perm, moved };
        let mut jump = None;
        for (d, level) in self.path.iter_mut().enumerate() {
            level.fold(&gen);
            if level.accounted(level.current) {
                jump = Some(d);
                break;
            }
        }
        if self.generators.len() < MAX_GENERATORS {
            self.generators.push(gen);
        }
        jump
    }
}

/// Runs the pruned search: the canonical code and the number of tree
/// nodes visited.
fn search(g: &LabeledGraph) -> (Vec<u8>, u64) {
    let mut s = Search {
        g,
        scratch: Scratch::default(),
        path: Vec::new(),
        generators: Vec::new(),
        first: None,
        best: None,
        nodes: 0,
    };
    let mut classes = initial_classes(g);
    s.refine(&mut classes);
    s.descend(classes);
    let best = s.best.expect("search emits at least one code");
    (best.code, s.nodes)
}

/// Canonical byte code of a labeled graph: identical for isomorphic
/// graphs, distinct otherwise. Graphs must have ≤ 255 nodes (molecular
/// scale); larger inputs panic.
pub fn canonical_code(g: &LabeledGraph) -> Vec<u8> {
    assert!(
        g.num_nodes() <= 255,
        "canonical_code is for molecular-scale graphs"
    );
    if g.num_nodes() == 0 {
        return vec![0];
    }
    search(g).0
}

/// The unpruned search: visits every child of every tree node.
fn reference_search(
    g: &LabeledGraph,
    classes: Vec<u32>,
    best: &mut Option<Vec<u8>>,
    leaves: &mut u64,
) {
    match target_cell(&classes) {
        None => {
            *leaves += 1;
            let code = emit_code(g, &classes, &labeling(&classes));
            if best.as_ref().is_none_or(|b| code < *b) {
                *best = Some(code);
            }
        }
        Some((c, cell)) => {
            for v in cell {
                let mut next = individualize(&classes, c, v);
                reference_refine(g, &mut next);
                if split_sibling_leaves(g, &mut next) {
                    reference_refine(g, &mut next);
                }
                reference_search(g, next, best, leaves);
            }
        }
    }
}

/// The oracle [`canonical_code`] is checked against: the same tree
/// searched without automorphism pruning, with the original refinement.
/// Returns the code and the number of leaves the tree has. Exponential in
/// the size of the automorphism group; for tests only.
pub fn reference_canonical_search(g: &LabeledGraph) -> (Vec<u8>, u64) {
    assert!(
        g.num_nodes() <= 255,
        "canonical_code is for molecular-scale graphs"
    );
    if g.num_nodes() == 0 {
        return (vec![0], 1);
    }
    let mut classes = initial_classes(g);
    reference_refine(g, &mut classes);
    if split_sibling_leaves(g, &mut classes) {
        reference_refine(g, &mut classes);
    }
    let (mut best, mut leaves) = (None, 0);
    reference_search(g, classes, &mut best, &mut leaves);
    (best.expect("search emits at least one code"), leaves)
}

/// [`reference_canonical_search`]'s code: the unpruned oracle for
/// [`canonical_code`].
pub fn reference_canonical_code(g: &LabeledGraph) -> Vec<u8> {
    reference_canonical_search(g).0
}

/// Isomorphism test via canonical codes.
pub fn are_isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    a.num_nodes() == b.num_nodes()
        && a.num_edges() == b.num_edges()
        && canonical_code(a) == canonical_code(b)
}

/// Deduplicates graphs up to isomorphism, keeping first occurrences.
pub fn dedup_isomorphic(graphs: Vec<LabeledGraph>) -> Vec<LabeledGraph> {
    let mut seen = std::collections::HashSet::new();
    graphs
        .into_iter()
        .filter(|g| seen.insert(canonical_code(g)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::MoleculeGenerator;
    use crate::smiles::parse_smiles;

    /// Applies a node permutation to a graph.
    fn permute(g: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
        let mut out = LabeledGraph::new();
        // inverse: position i holds old node inv[i].
        let mut inv = vec![0u32; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        for &old in &inv {
            out.add_node(g.label(old));
        }
        for (a, b, l) in g.edges() {
            out.add_edge(perm[a as usize], perm[b as usize], l).unwrap();
        }
        out
    }

    #[test]
    fn permutation_invariance_on_molecules() {
        let mut gen = MoleculeGenerator::with_seed(71);
        for (i, m) in gen.generate_batch(10).iter().enumerate() {
            let g = m.to_labeled_graph();
            let n = g.num_nodes() as u32;
            // A deterministic "rotation + swap" permutation.
            let perm: Vec<u32> = (0..n).map(|v| (v * 7 + i as u32) % n).collect();
            // Only valid if perm is a bijection: 7 coprime to n or fallback.
            let mut check: Vec<u32> = perm.clone();
            check.sort_unstable();
            if check != (0..n).collect::<Vec<_>>() {
                continue;
            }
            let h = permute(&g, &perm);
            assert_eq!(canonical_code(&g), canonical_code(&h), "molecule {i}");
        }
    }

    #[test]
    fn distinguishes_constitutional_isomers() {
        // Butane vs isobutane: same formula, different skeleton.
        let butane = parse_smiles("CCCC").unwrap().to_labeled_graph();
        let isobutane = parse_smiles("CC(C)C").unwrap().to_labeled_graph();
        assert!(!are_isomorphic(&butane, &isobutane));
        // Ethanol vs dimethyl ether.
        let ethanol = parse_smiles("CCO").unwrap().to_labeled_graph();
        let dme = parse_smiles("COC").unwrap().to_labeled_graph();
        assert!(!are_isomorphic(&ethanol, &dme));
    }

    #[test]
    fn distinguishes_bond_orders() {
        let single = parse_smiles("CC").unwrap().to_labeled_graph();
        let double = parse_smiles("C=C").unwrap().to_labeled_graph();
        assert!(!are_isomorphic(&single, &double));
    }

    #[test]
    fn benzene_ring_is_canonical_under_rotation() {
        let a = parse_smiles("c1ccccc1").unwrap().to_labeled_graph();
        let n = a.num_nodes() as u32;
        // Rotate the ring atoms (first 6) among themselves and permute
        // hydrogens correspondingly via a full rotation of all 12 nodes in
        // two blocks.
        let perm: Vec<u32> = (0..n)
            .map(|v| {
                if v < 6 {
                    (v + 2) % 6
                } else {
                    6 + ((v - 6) + 2) % 6
                }
            })
            .collect();
        let b = permute(&a, &perm);
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn smiles_round_trip_is_isomorphic() {
        let mut gen = MoleculeGenerator::with_seed(72);
        for m in gen.generate_batch(8) {
            let g = m.to_labeled_graph();
            let smiles = crate::smiles::write_smiles(&m);
            let back = parse_smiles(&smiles).unwrap().to_labeled_graph();
            assert!(
                are_isomorphic(&g, &back),
                "round trip of {smiles} broke isomorphism"
            );
        }
    }

    #[test]
    fn dedup_collapses_isomorphic_copies() {
        let a = parse_smiles("CCO").unwrap().to_labeled_graph();
        let b = parse_smiles("OCC").unwrap().to_labeled_graph();
        let c = parse_smiles("CCC").unwrap().to_labeled_graph();
        let out = dedup_isomorphic(vec![a.clone(), b, c.clone()]);
        assert_eq!(out.len(), 2);
        assert!(are_isomorphic(&out[0], &a));
        assert!(are_isomorphic(&out[1], &c));
    }

    #[test]
    fn charges_distinguish_otherwise_identical_graphs() {
        // Methoxide vs methanol skeleton: same atoms/bonds, one charged O.
        let neutral = parse_smiles("C[OH]").unwrap().to_labeled_graph();
        let anion = parse_smiles("C[O-]").unwrap().to_labeled_graph();
        // The anion has one fewer H, so compare heavy skeletons directly.
        let mut a = LabeledGraph::from_edges(&[1, 3], &[(0, 1)]).unwrap();
        let b = a.clone();
        a.set_charge(1, -1);
        assert_ne!(canonical_code(&a), canonical_code(&b));
        assert!(!are_isomorphic(&neutral, &anion));
    }

    #[test]
    fn charged_codes_are_permutation_invariant() {
        // Carboxylate: two oxygens distinguishable only by charge.
        let g = parse_smiles("CC(=O)[O-]").unwrap().to_labeled_graph();
        let n = g.num_nodes() as u32;
        let perm: Vec<u32> = (0..n).map(|v| (n - 1) - v).collect();
        let h = permute_with_charges(&g, &perm);
        assert_eq!(canonical_code(&g), canonical_code(&h));
    }

    fn permute_with_charges(g: &LabeledGraph, perm: &[u32]) -> LabeledGraph {
        let mut out = permute(g, perm);
        for &(v, c) in g.charges() {
            out.set_charge(perm[v as usize], c);
        }
        out
    }

    #[test]
    fn uncharged_codes_keep_the_legacy_format() {
        // No 0xFF charge section for uncharged graphs — persisted index
        // keys must stay stable.
        let g = parse_smiles("CCO").unwrap().to_labeled_graph();
        let code = canonical_code(&g);
        assert_eq!(
            code.len(),
            1 + g.num_nodes() + 3 * g.num_edges(),
            "unexpected trailing section in uncharged code"
        );
    }

    /// The scratch-buffer refinement returns the same class vector as the
    /// one-key-per-node oracle, at the root and after individualizing
    /// each member of the root's target cell.
    #[test]
    fn refine_matches_the_reference_refinement() {
        let mut graphs: Vec<LabeledGraph> = MoleculeGenerator::with_seed(73)
            .generate_batch(12)
            .iter()
            .map(|m| m.to_labeled_graph())
            .collect();
        for s in ["C.C.C.C", "C1CC1.C1CC1", "CC(=O)[O-]", "C12C3C4C1C5C2C3C45"] {
            graphs.push(parse_smiles(s).unwrap().to_labeled_graph());
        }
        let mut scratch = Scratch::default();
        for g in &graphs {
            let mut root = initial_classes(g);
            let mut want = root.clone();
            refine(g, &mut root, &mut scratch);
            reference_refine(g, &mut want);
            assert_eq!(root, want);
            let Some((c, cell)) = target_cell(&root) else {
                continue;
            };
            for v in cell {
                let mut got = individualize(&root, c, v);
                let mut want = got.clone();
                refine(g, &mut got, &mut scratch);
                reference_refine(g, &mut want);
                assert_eq!(got, want);
            }
        }
    }

    /// Pruned search-tree sizes (nodes visited, leaves included) of
    /// symmetric inputs with explicit hydrogens. Unpruned, six isolated
    /// methanes alone give a tree of 737,280 leaves.
    #[test]
    fn pruned_search_tree_sizes_are_pinned() {
        let nodes = |s: &str| search(&parse_smiles(s).unwrap().to_labeled_graph()).1;
        assert_eq!(nodes(&["C"; 6].join(".")), 66);
        assert_eq!(nodes(&["C"; 8].join(".")), 120);
        assert_eq!(nodes(&["C1CC1"; 5].join(".")), 149);
    }

    #[test]
    fn empty_and_single_node() {
        assert_eq!(canonical_code(&LabeledGraph::new()), vec![0]);
        let one = LabeledGraph::with_uniform_labels(1, 5);
        assert_eq!(canonical_code(&one), vec![1, 5]);
    }
}
