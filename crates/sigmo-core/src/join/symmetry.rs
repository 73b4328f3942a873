//! Query automorphisms and the join's symmetry-breaking conditions
//! (DESIGN.md §20).
//!
//! When a query q has a non-trivial automorphism group Aut(q), every
//! embedding f of q comes with f∘σ for each σ ∈ Aut(q), and an unbroken
//! join finds every embedding class |Aut(q)| times. [`Symmetry`] holds a
//! prefix of a stabilizer chain of Aut(q) along a base order b₁, b₂, …
//! (the plan's matching order). Level i is the orbit Oᵢ of bᵢ under Gᵢ,
//! the automorphisms that fix b₁…bᵢ₋₁ pointwise. It contributes one
//! condition per other orbit member u: f(bᵢ) < f(u). Every class of
//! embeddings under G₁ holds exactly |G_{m+1}| embeddings that satisfy
//! the conditions of levels 1…m (Grochow & Kellis, RECOMB 2007). So a
//! representative stands for `order() = |O₁|·…·|O_m|` embeddings. It
//! expands back into them by the elements
//! τ = (t₁·…·t_m)⁻¹, where tᵢ ranges over a transversal of Oᵢ.
//!
//! Colours are what the join's matching looks at: node label (the
//! wildcard is its own colour), formal charge, compiled [`NodePredicate`]
//! and bond label (the wildcard bond is its own value). Only automorphisms
//! that keep all of them keep f∘σ an embedding whenever f is one.
//!
//! The search is small and budgeted. Colour refinement with the fixed
//! base points individualized bounds each orbit to one colour cell. A
//! backtracking search then decides each cell member, and the
//! automorphisms it finds close the orbit. A refinement that leaves only
//! singleton cells ends the chain: the stabilizer is trivial. Past
//! [`SEARCH_BUDGET`] tries, or past [`MAX_ORDER`], only the levels
//! finished so far are broken.

use sigmo_graph::{CsrGo, NodeId, NodePredicate};

/// Queries with more nodes than this keep the trivial group.
pub const MAX_NODES: usize = 30;

/// Node assignments the automorphism search may try per query.
pub const SEARCH_BUDGET: u64 = 1 << 14;

/// Largest broken-group order. A level that would push the order past it
/// ends the chain, so counts stay far from `u64` overflow.
pub const MAX_ORDER: u64 = 1 << 32;

/// One level of the stabilizer chain.
#[derive(Debug, Clone)]
struct Level {
    /// The base point (query-local node id).
    base: u32,
    /// Orbit of `base` under the stabilizer of the earlier base points,
    /// ascending; holds `base` itself.
    orbit: Vec<u32>,
    /// `inverses[j]` is the inverse of an automorphism of that stabilizer
    /// mapping `base` to `orbit[j]` (the identity for `base`).
    inverses: Vec<Vec<u32>>,
}

/// The broken part of one query's automorphism group: the non-trivial
/// levels of a stabilizer-chain prefix. The trivial group has no levels,
/// no conditions and order 1.
#[derive(Debug, Clone)]
pub struct Symmetry {
    levels: Vec<Level>,
    order: u64,
}

impl Symmetry {
    /// The trivial group.
    pub fn trivial() -> Self {
        Self {
            levels: Vec::new(),
            order: 1,
        }
    }

    /// Searches the automorphisms of query graph `qg` and walks their
    /// stabilizer chain along `base` (query-local ids, every node once).
    pub fn of_query(queries: &CsrGo, qg: usize, base: &[u32]) -> Self {
        Self::chain_in(
            queries,
            qg,
            base,
            SEARCH_BUDGET,
            MAX_ORDER,
            &mut SearchBuffers::default(),
        )
    }

    /// [`Symmetry::chain_in`] with fresh buffers.
    #[cfg(test)]
    pub(crate) fn chain(
        queries: &CsrGo,
        qg: usize,
        base: &[u32],
        budget: u64,
        max_order: u64,
    ) -> Self {
        Self::chain_in(
            queries,
            qg,
            base,
            budget,
            max_order,
            &mut SearchBuffers::default(),
        )
    }

    /// [`Symmetry::of_query`] with an explicit search budget and order
    /// limit: the chain ends at the first level that spends the budget
    /// or would push the order past `max_order`. The search works in
    /// `bufs`, which a plan build reuses across its queries.
    pub(crate) fn chain_in(
        queries: &CsrGo,
        qg: usize,
        base: &[u32],
        mut budget: u64,
        max_order: u64,
        bufs: &mut SearchBuffers,
    ) -> Self {
        let n = base.len();
        if !(2..=MAX_NODES).contains(&n) {
            return Self::trivial();
        }
        let SearchBuffers {
            colours,
            adj,
            fixed,
            rivals,
            cells,
            from,
            to,
            scratch,
        } = bufs;
        let search = Search::new(queries, qg, std::mem::take(colours), std::mem::take(adj));
        fixed.clear();
        let mut levels = Vec::new();
        let mut order = 1u64;
        search.refined(&[], None, cells, scratch);
        for &b in base {
            if scratch.distinct(cells) == n {
                break; // the stabilizer of `fixed` is trivial
            }
            rivals.clear();
            rivals.extend(
                (0..n as u32).filter(|&u| u != b && cells[u as usize] == cells[b as usize]),
            );
            // The colouring with `b` individualized too: the next level's
            // cells, and the source side of this level's searches.
            search.refined(fixed, Some(b), from, scratch);
            if !rivals.is_empty() {
                match search.orbit_of(fixed, b, from, rivals, to, scratch, &mut budget) {
                    Some(level) if level.orbit.len() > 1 => {
                        match order.checked_mul(level.orbit.len() as u64) {
                            Some(o) if o <= max_order => order = o,
                            _ => break,
                        }
                        levels.push(level);
                    }
                    Some(_) => {}
                    None => break, // budget spent: keep the finished prefix
                }
            }
            fixed.push(b);
            std::mem::swap(cells, from);
        }
        (*colours, *adj) = (search.colours, search.adj);
        Self { levels, order }
    }

    /// Order of the broken group: how many embeddings one representative
    /// stands for.
    pub fn order(&self) -> u64 {
        self.order
    }

    /// True for the trivial group (no conditions).
    pub fn is_trivial(&self) -> bool {
        self.levels.is_empty()
    }

    /// Every condition `(a, b)`: the image of query-local node `a` must be
    /// smaller than the image of `b`.
    pub fn conditions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.levels.iter().flat_map(|l| {
            l.orbit
                .iter()
                .filter(move |&&u| u != l.base)
                .map(move |&u| (l.base, u))
        })
    }

    /// Calls `push` with `rep ∘ τ` for each element τ of the broken group,
    /// identity first, in a fixed mixed-radix order over the levels'
    /// orbits; stops early when `push` returns false. `rep` maps each
    /// query-local node to its data node.
    // sigmo-lint: allow(alloc-in-kernel, unbounded-kernel-loop) — one row
    // per collected record: the loop ends after `order()` elements or when
    // `push` reports the run's collect limit reached.
    pub fn expand_class(&self, rep: &[NodeId], mut push: impl FnMut(Vec<NodeId>) -> bool) {
        let mut digits = [0usize; MAX_NODES];
        let digits = &mut digits[..self.levels.len()];
        loop {
            let mapping: Vec<NodeId> = (0..rep.len() as u32)
                .map(|x| {
                    let mut y = x;
                    for (l, &d) in self.levels.iter().zip(digits.iter()) {
                        y = l.inverses[d][y as usize];
                    }
                    rep[y as usize]
                })
                .collect();
            if !push(mapping) {
                return;
            }
            // Advance the mixed-radix counter, last level fastest.
            let mut i = digits.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                digits[i] += 1;
                if digits[i] < self.levels[i].orbit.len() {
                    break;
                }
                digits[i] = 0;
            }
        }
    }
}

/// The automorphism search's working memory, reused across the queries of
/// one plan build ([`super::QueryPlan::build_batch`]): each query's search
/// then allocates only what its [`Symmetry`] keeps.
#[derive(Debug, Default)]
pub(crate) struct SearchBuffers {
    /// [`Search::colours`] and [`Search::adj`], lent to each search.
    colours: Vec<u64>,
    adj: Vec<u16>,
    /// The base points fixed so far.
    fixed: Vec<u32>,
    /// The other members of the current base point's cell.
    rivals: Vec<u32>,
    /// The colouring with `fixed` individualized.
    cells: Vec<u64>,
    /// The colouring with `fixed` and the base point individualized.
    from: Vec<u64>,
    /// The colouring with `fixed` and a rival individualized.
    to: Vec<u64>,
    scratch: Scratch,
}

/// Buffers the refinement and the automorphism test overwrite on every
/// call.
#[derive(Debug, Default)]
struct Scratch {
    /// The refinement's next round.
    next: Vec<u64>,
    /// Sorted copies of the two colourings being compared.
    sorted: Vec<u64>,
    sorted_to: Vec<u64>,
    /// Nodes keyed by (cell size, id), in search order.
    keyed: Vec<(usize, u32)>,
    xs: Vec<u32>,
    sigma: Vec<u32>,
    used: Vec<bool>,
}

impl Scratch {
    /// Number of distinct values of `c`.
    fn distinct(&mut self, c: &[u64]) -> usize {
        self.sorted.clear();
        self.sorted.extend_from_slice(c);
        self.sorted.sort_unstable();
        self.sorted.dedup();
        self.sorted.len()
    }
}

/// The automorphism search over one query graph's local ids.
struct Search<'a> {
    queries: &'a CsrGo,
    /// Global id of local node 0.
    base: NodeId,
    n: usize,
    /// Initial colours from (label, charge, predicate).
    colours: Vec<u64>,
    /// `adj[x * n + y]`: 0 for no edge, else the bond label + 1.
    adj: Vec<u16>,
}

impl<'a> Search<'a> {
    /// The search over query graph `qg`, filling the `colours` and `adj`
    /// buffers (whatever they held before).
    fn new(queries: &'a CsrGo, qg: usize, mut colours: Vec<u64>, mut adj: Vec<u16>) -> Self {
        let range = queries.node_range(qg);
        let base = range.start;
        let n = (range.end - range.start) as usize;
        // Predicates have no order; number the distinct keys by first
        // appearance instead, which is still a function of the key.
        let mut keys: Vec<(u8, i8, Option<&NodePredicate>)> = Vec::with_capacity(n);
        colours.clear();
        colours.extend(range.clone().map(|v| {
            let key = (queries.label(v), queries.charge(v), queries.predicate(v));
            match keys.iter().position(|k| *k == key) {
                Some(c) => c as u64,
                None => {
                    keys.push(key);
                    keys.len() as u64 - 1
                }
            }
        }));
        adj.clear();
        adj.resize(n * n, 0);
        for v in range {
            let x = (v - base) as usize;
            for (&u, &l) in queries
                .neighbors(v)
                .iter()
                .zip(queries.neighbor_edge_labels(v))
            {
                adj[x * n + (u - base) as usize] = l as u16 + 1;
            }
        }
        Self {
            queries,
            base,
            n,
            colours,
            adj,
        }
    }

    /// The refinement of the initial colours with `fixed` (then `extra`,
    /// if any) individualized in that order, run until the cell count
    /// stops growing. Each round hashes a node's colour with the
    /// multiset of (bond label, neighbour colour) around it — an
    /// order-free sum — so the result is invariant: an automorphism fixing
    /// `fixed` pointwise and mapping one `extra` onto the other maps the
    /// first colouring onto the second. (A hash collision only coarsens
    /// the cells, which the exact search below tolerates.) The colouring
    /// is written to `c`.
    fn refined(&self, fixed: &[u32], extra: Option<u32>, c: &mut Vec<u64>, s: &mut Scratch) {
        c.clear();
        c.extend_from_slice(&self.colours);
        for (j, &f) in fixed.iter().chain(extra.iter()).enumerate() {
            c[f as usize] = (1 << 32) + j as u64;
        }
        let mut cells = s.distinct(c);
        s.next.clear();
        s.next.resize(self.n, 0);
        loop {
            for (x, out) in s.next.iter_mut().enumerate() {
                let v = self.base + x as NodeId;
                let around = self
                    .queries
                    .neighbors(v)
                    .iter()
                    .zip(self.queries.neighbor_edge_labels(v))
                    .fold(0u64, |acc, (&u, &l)| {
                        acc.wrapping_add(mix(c[(u - self.base) as usize] ^ (l as u64) << 56))
                    });
                *out = mix(c[x].wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ around);
            }
            std::mem::swap(c, &mut s.next);
            let now = s.distinct(c);
            if now <= cells {
                return;
            }
            cells = now;
        }
    }

    /// The orbit of `b` under the stabilizer of `fixed`, searching each
    /// of `rivals` (the other members of `b`'s colour cell) not already
    /// reached by the automorphisms found so far. `from` is the colouring
    /// with `fixed` and `b` individualized; each rival's colouring is
    /// refined into `to`. `None` when the budget runs out.
    #[allow(clippy::too_many_arguments)]
    fn orbit_of(
        &self,
        fixed: &[u32],
        b: u32,
        from: &[u64],
        rivals: &[u32],
        to: &mut Vec<u64>,
        s: &mut Scratch,
        budget: &mut u64,
    ) -> Option<Level> {
        let identity: Vec<u32> = (0..self.n as u32).collect();
        let mut orbit = vec![b];
        let mut transversal = vec![identity];
        let mut gens: Vec<Vec<u32>> = Vec::new();
        for &u in rivals {
            if orbit.contains(&u) {
                continue;
            }
            self.refined(fixed, Some(u), to, s);
            if let Some(sigma) = self.automorphism(from, to, s, budget)? {
                gens.push(sigma);
                // Close the orbit under every generator found so far.
                let mut i = 0;
                while i < orbit.len() {
                    for g in &gens {
                        let w = g[orbit[i] as usize];
                        if !orbit.contains(&w) {
                            let t: Vec<u32> =
                                transversal[i].iter().map(|&y| g[y as usize]).collect();
                            orbit.push(w);
                            transversal.push(t);
                        }
                    }
                    i += 1;
                }
            }
        }
        let mut members: Vec<(u32, Vec<u32>)> = orbit.into_iter().zip(transversal).collect();
        members.sort_unstable_by_key(|(w, _)| *w);
        let inverses = members
            .iter()
            .map(|(_, t)| {
                let mut inv = vec![0u32; self.n];
                for (x, &y) in t.iter().enumerate() {
                    inv[y as usize] = x as u32;
                }
                inv
            })
            .collect();
        Some(Level {
            base: b,
            orbit: members.into_iter().map(|(w, _)| w).collect(),
            inverses,
        })
    }

    /// An automorphism taking colouring `from` onto colouring `to`:
    /// `Some(Some(σ))` found, `Some(None)` none exists, `None` budget
    /// spent.
    fn automorphism(
        &self,
        from: &[u64],
        to: &[u64],
        s: &mut Scratch,
        budget: &mut u64,
    ) -> Option<Option<Vec<u32>>> {
        s.sorted.clear();
        s.sorted.extend_from_slice(from);
        s.sorted.sort_unstable();
        s.sorted_to.clear();
        s.sorted_to.extend_from_slice(to);
        s.sorted_to.sort_unstable();
        if s.sorted != s.sorted_to {
            return Some(None); // the refinements already disagree
        }
        // Smallest cells first: singletons are forced, and every later
        // choice is checked against them.
        let cell_size = |x: u32| from.iter().filter(|&&c| c == from[x as usize]).count();
        s.keyed.clear();
        s.keyed
            .extend((0..self.n as u32).map(|x| (cell_size(x), x)));
        s.keyed.sort_unstable();
        s.xs.clear();
        s.xs.extend(s.keyed.iter().map(|&(_, x)| x));
        s.sigma.clear();
        s.sigma.resize(self.n, u32::MAX);
        s.used.clear();
        s.used.resize(self.n, false);
        let found = self.assign_rest(0, &s.xs, from, to, &mut s.sigma, &mut s.used, budget)?;
        Some(found.then(|| s.sigma.clone()))
    }

    /// Assigns `xs[i..]` consistently with the assignments of `xs[..i]`.
    #[allow(clippy::too_many_arguments)]
    fn assign_rest(
        &self,
        i: usize,
        xs: &[u32],
        from: &[u64],
        to: &[u64],
        sigma: &mut [u32],
        used: &mut [bool],
        budget: &mut u64,
    ) -> Option<bool> {
        let Some(&x) = xs.get(i) else {
            return Some(true);
        };
        let x = x as usize;
        let n = self.n;
        // Try x itself first: most nodes of a found automorphism stay put.
        let candidates = std::iter::once(x).chain((0..n).filter(|&y| y != x));
        for y in candidates {
            if used[y] || to[y] != from[x] {
                continue;
            }
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let consistent = xs[..i].iter().all(|&z| {
                let z = z as usize;
                self.adj[x * n + z] == self.adj[y * n + sigma[z] as usize]
            });
            if !consistent {
                continue;
            }
            sigma[x] = y as u32;
            used[y] = true;
            if self.assign_rest(i + 1, xs, from, to, sigma, used, budget)? {
                return Some(true);
            }
            used[y] = false;
        }
        sigma[x] = u32::MAX;
        Some(false)
    }
}

/// A 64-bit finalizer (splitmix64's): spreads every input bit.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_graph::{LabeledGraph, WILDCARD_EDGE, WILDCARD_LABEL};

    fn labeled(labels: &[u8], edges: &[(u32, u32, u8)]) -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for &l in labels {
            g.add_node(l);
        }
        for &(a, b, l) in edges {
            g.add_edge(a, b, l).unwrap();
        }
        g
    }

    fn of(g: &LabeledGraph) -> Symmetry {
        let q = CsrGo::from_graphs(std::slice::from_ref(g));
        let base: Vec<u32> = (0..g.num_nodes() as u32).collect();
        Symmetry::of_query(&q, 0, &base)
    }

    fn ring(n: u32, label: u8) -> LabeledGraph {
        let labels = vec![label; n as usize];
        let edges: Vec<(u32, u32, u8)> = (0..n).map(|i| (i, (i + 1) % n, 1)).collect();
        labeled(&labels, &edges)
    }

    #[test]
    fn group_orders_of_small_shapes() {
        assert_eq!(of(&ring(6, 1)).order(), 12);
        assert_eq!(of(&ring(5, 1)).order(), 10);
        // Star C(H)(H)(H)H: the four hydrogens permute freely.
        let star = labeled(
            &[1, 0, 0, 0, 0],
            &[(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        );
        assert_eq!(of(&star).order(), 24);
        // Path C-C-O: no symmetry.
        let path = labeled(&[1, 1, 3], &[(0, 1, 1), (1, 2, 1)]);
        assert!(of(&path).is_trivial());
        assert_eq!(of(&path).order(), 1);
    }

    #[test]
    fn colours_split_the_group() {
        // Bond labels: C=C-C has no symmetry, C-C-C has the flip.
        let mixed = labeled(&[1, 1, 1], &[(0, 1, 2), (1, 2, 1)]);
        assert_eq!(of(&mixed).order(), 1);
        let plain = labeled(&[1, 1, 1], &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(of(&plain).order(), 2);
        // A wildcard bond is its own value, not "any value".
        let wild = labeled(&[1, 1, 1], &[(0, 1, WILDCARD_EDGE), (1, 2, 1)]);
        assert_eq!(of(&wild).order(), 1);
        // A wildcard label is its own colour.
        let star = labeled(&[1, 0, WILDCARD_LABEL], &[(0, 1, 1), (0, 2, 1)]);
        assert_eq!(of(&star).order(), 1);
        // Charge and predicates split colours too.
        let mut charged = plain.clone();
        charged.set_charge(0, -1);
        assert_eq!(of(&charged).order(), 1);
        let mut pred = plain.clone();
        pred.set_predicate(
            2,
            NodePredicate {
                degree: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(of(&pred).order(), 1);
    }

    #[test]
    fn expansion_lists_every_element_once_identity_first() {
        let g = ring(6, 1);
        let sym = of(&g);
        let rep: Vec<NodeId> = (100..106).collect();
        let mut seen = Vec::new();
        sym.expand_class(&rep, |m| {
            seen.push(m);
            true
        });
        assert_eq!(seen.len(), 12);
        assert_eq!(seen[0], rep, "identity first");
        let mut dedup = seen.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
        for m in &seen {
            let local: Vec<u32> = m.iter().map(|&d| d - 100).collect();
            assert!(g.is_valid_embedding(&g, &local), "{m:?} is no automorphism");
        }
    }

    #[test]
    fn a_spent_budget_or_order_limit_keeps_the_finished_prefix() {
        let g = ring(6, 1);
        let q = CsrGo::from_graphs(std::slice::from_ref(&g));
        let base: Vec<u32> = (0..6).collect();
        // The ring's chain has levels of 6 and 2: a limit of 6 keeps the
        // first, a budget of 0 keeps none.
        let prefix = Symmetry::chain(&q, 0, &base, SEARCH_BUDGET, 6);
        assert_eq!(prefix.order(), 6);
        assert_eq!(prefix.conditions().count(), 5);
        assert!(Symmetry::chain(&q, 0, &base, 0, MAX_ORDER).is_trivial());
        // The prefix still expands to `order()` distinct relabelings.
        let rep: Vec<NodeId> = (0..6).collect();
        let mut seen = Vec::new();
        prefix.expand_class(&rep, |m| {
            seen.push(m);
            true
        });
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn wildcard_clique_breaks_fully_and_asymmetric_graphs_do_not() {
        let mut k = LabeledGraph::new();
        for _ in 0..8 {
            k.add_node(WILDCARD_LABEL);
        }
        for a in 0..8 {
            for b in (a + 1)..8 {
                k.add_edge(a, b, WILDCARD_EDGE).unwrap();
            }
        }
        assert_eq!(of(&k).order(), 40_320);
        // A spider with legs 1, 2 and 4 has no automorphism.
        let spider = labeled(
            &[1; 8],
            &[
                (0, 1, 1),
                (0, 2, 1),
                (2, 3, 1),
                (0, 4, 1),
                (4, 5, 1),
                (5, 6, 1),
                (6, 7, 1),
            ],
        );
        assert!(of(&spider).is_trivial());
    }
}
