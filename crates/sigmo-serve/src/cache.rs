//! The serving layer's three deduplication stores.
//!
//! * [`MolStore`] — canonical-molecule interning: every submitted molecule
//!   is keyed by [`sigmo_mol::canonical_code`], so isomorphic duplicates
//!   across requests collapse onto one stored representative (the
//!   first-seen variant) and one [`MolId`]. From a molecule's second
//!   execution on, the store also keeps its [`MolFacts`], so repeat
//!   executions skip the data-side signature, pair and ring work.
//! * [`PlanCache`] — [`QueryPlan`] interning keyed by the *ordered*
//!   sequence of query canonical codes. Order matters: per-request results
//!   attribute matches to query indices, so `[A, B]` and `[B, A]` are
//!   different plans even though they are the same set.
//! * [`ResultCache`] — per-molecule outcomes keyed by
//!   `(plan, molecule, mode, shard epoch)`. Sound because a molecule's
//!   results are batch-composition independent (DESIGN.md §9): complete
//!   outcomes are exact, and step-budget partials are a deterministic
//!   property of the molecule's own work-group. The shard epoch is the
//!   corpus partition version: a repartition (molecule added/removed,
//!   shard count changed) bumps it, so results merged under the old
//!   partition can never be served against the new one (DESIGN.md §12).

use sigmo_core::engine::EngineConfig;
use sigmo_core::{LabelSchema, MatchMode, MolFacts, QueryPlan};
use sigmo_graph::LabeledGraph;
use sigmo_index::{FrozenIndex, IndexConfig, MoleculeIndex};
use sigmo_mol::canonical_code;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Dense id of an interned molecule in a [`MolStore`].
pub type MolId = u32;

/// Dense id of an interned query plan in a [`PlanCache`].
pub type PlanId = usize;

/// The exact (labeling-sensitive) byte form of a graph: node labels then
/// the edge list as stored. Two graphs with equal exact keys are equal as
/// labeled adjacency structures, hence trivially isomorphic — so the
/// exact map is a sound fast path in front of the canonical one.
fn exact_key(graph: &LabeledGraph) -> Vec<u8> {
    // Formal charges distinguish otherwise-identical graphs (e.g. acetate
    // vs acetic acid's heavy skeleton). The two counts up front fix every
    // section's length, keeping the key injective.
    let charges = graph.charges();
    let mut key =
        Vec::with_capacity(12 + graph.num_nodes() + 9 * graph.num_edges() + 5 * charges.len());
    key.extend_from_slice(&(graph.num_nodes() as u32).to_le_bytes());
    key.extend_from_slice(&(charges.len() as u32).to_le_bytes());
    key.extend_from_slice(graph.labels());
    for &(v, c) in charges {
        key.extend_from_slice(&v.to_le_bytes());
        key.push(c as u8);
    }
    for (a, b, l) in graph.edges() {
        key.extend_from_slice(&a.to_le_bytes());
        key.extend_from_slice(&b.to_le_bytes());
        key.push(l);
    }
    key
}

/// Canonical-molecule store: interns molecules by canonical code, with an
/// exact-bytes map in front so repeat submissions of the same variant
/// (the common case in serving traffic) skip Morgan canonicalization —
/// which otherwise dominates a warm server's submit path.
#[derive(Default)]
pub struct MolStore {
    exact: HashMap<Vec<u8>, MolId>,
    index: HashMap<Vec<u8>, MolId>,
    graphs: Vec<LabeledGraph>,
    /// The standing-corpus screening index, maintained inline: interning
    /// a new class digests it, retiring a class tombstones it. `None`
    /// when screening is disabled.
    screen: Option<MoleculeIndex>,
    /// Per-id execution count and kept facts (indexed by [`MolId`], grown
    /// on demand).
    facts: Vec<FactsSlot>,
    facts_builds: u64,
    hits: u64,
    misses: u64,
}

/// One molecule's execution count and, from its second execution on, its
/// kept facts.
#[derive(Default)]
struct FactsSlot {
    runs: u32,
    kept: Option<Arc<MolFacts>>,
}

impl MolStore {
    /// Creates an empty store with screening disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that maintains a [`MoleculeIndex`] over
    /// the corpus: every interned class is digested once at ingest
    /// under `schema` (which must be the engine's signature schema).
    pub fn with_screen_index(config: IndexConfig, schema: &LabelSchema) -> Self {
        Self {
            screen: Some(MoleculeIndex::new(config, schema)),
            ..Self::default()
        }
    }

    /// The screening index, when one is maintained.
    pub fn screen_index(&self) -> Option<&MoleculeIndex> {
        self.screen.as_ref()
    }

    /// Bulk-loads a frozen index file into an **empty** store: stored
    /// graphs become the corpus (absent slots — compacted tombstones —
    /// keep their ids retired), interning entries are rebuilt, and with
    /// `keep_screen` the file's digests are adopted verbatim (no
    /// signature recompute). Returns the number of live molecules.
    pub fn adopt_frozen(
        &mut self,
        frozen: &FrozenIndex,
        keep_screen: bool,
        schema: &LabelSchema,
    ) -> Result<usize, String> {
        if !self.is_empty() || self.screen.as_ref().is_some_and(|s| !s.is_empty()) {
            return Err("index preload requires an empty molecule store".into());
        }
        let (index, graphs) = frozen.thaw().map_err(|e| e.to_string())?;
        if keep_screen && index.schema() != schema {
            return Err("index label schema does not match the engine schema".into());
        }
        let mut live = 0usize;
        for (id, graph) in graphs.into_iter().enumerate() {
            match graph {
                Some(graph) => {
                    self.exact.insert(exact_key(&graph), id as MolId);
                    self.index.insert(canonical_code(&graph), id as MolId);
                    self.graphs.push(graph);
                    live += 1;
                }
                // A compacted tombstone: the slot keeps its id (so fresh
                // interns mint above it) but is not resolvable.
                None => self.graphs.push(LabeledGraph::new()),
            }
        }
        if keep_screen {
            self.screen = Some(index);
        }
        Ok(live)
    }

    /// Serializes the maintained screening index (with the stored
    /// representatives) to the persistent `SIGMOIDX` byte layout.
    /// Errors when the store maintains no index.
    pub fn freeze_index(&self) -> Result<Vec<u8>, String> {
        let screen = self
            .screen
            .as_ref()
            .ok_or_else(|| "this store maintains no screening index".to_string())?;
        let graphs: Vec<Option<&LabeledGraph>> = self.graphs.iter().map(Some).collect();
        Ok(sigmo_index::serialize(screen, &graphs))
    }

    /// Interns a molecule, returning the id of its isomorphism class.
    /// The first-seen variant becomes the stored representative that all
    /// later lookups (and executions) use.
    pub fn intern(&mut self, graph: &LabeledGraph) -> MolId {
        let exact = exact_key(graph);
        if let Some(&id) = self.exact.get(&exact) {
            self.hits += 1;
            return id;
        }
        let key = canonical_code(graph);
        let id = match self.index.get(&key) {
            Some(&id) => {
                self.hits += 1;
                id
            }
            None => {
                self.misses += 1;
                let id = self.graphs.len() as MolId;
                if let Some(screen) = &mut self.screen {
                    // Digests fold facts built for this call only.
                    screen.add(id, graph);
                    self.facts_builds += 1;
                }
                self.graphs.push(graph.clone());
                self.index.insert(key, id);
                id
            }
        };
        self.exact.insert(exact, id);
        id
    }

    /// The stored representative for `id`.
    pub fn graph(&self, id: MolId) -> &LabeledGraph {
        &self.graphs[id as usize]
    }

    /// Registers one engine execution of `id` and returns the facts it
    /// should run on: `None` on the molecule's first execution (the engine
    /// builds that run's facts itself), and from the second on the facts
    /// the store keeps — built under `schema` with `depth` radii on the
    /// first call that needs them. Keeping from the second execution on
    /// holds no memory for molecules that are executed once.
    pub fn exec_facts(
        &mut self,
        id: MolId,
        schema: &LabelSchema,
        depth: usize,
    ) -> Option<Arc<MolFacts>> {
        let i = id as usize;
        if self.facts.len() <= i {
            self.facts.resize_with(i + 1, FactsSlot::default);
        }
        let slot = &mut self.facts[i];
        slot.runs = slot.runs.saturating_add(1);
        if slot.runs < 2 {
            self.facts_builds += 1;
            return None;
        }
        if slot.kept.is_none() {
            self.facts_builds += 1;
            slot.kept = Some(Arc::new(MolFacts::build(&self.graphs[i], schema, depth)));
        }
        slot.kept.clone()
    }

    /// How many times facts were built for this store's molecules: one
    /// per digest at intern (when screening), one per execution that runs
    /// without kept facts, and one per kept build.
    pub fn facts_builds(&self) -> u64 {
        self.facts_builds
    }

    /// Looks up a molecule's id without interning it and without touching
    /// the hit/miss counters (an administrative probe, not traffic).
    pub fn lookup(&self, graph: &LabeledGraph) -> Option<MolId> {
        if let Some(&id) = self.exact.get(&exact_key(graph)) {
            return Some(id);
        }
        self.index.get(&canonical_code(graph)).copied()
    }

    /// Forgets the interning entries for `id`: later submissions of the
    /// molecule (or any isomorphic variant) intern a *fresh* id. The
    /// stored representative stays resolvable through [`MolStore::graph`]
    /// so ids held by in-flight requests remain valid. Returns whether
    /// the id had any live index entry. Callers that retire molecules
    /// must bump the shard epoch (see `Server::remove_molecule`) so stale
    /// cached results keyed to the old corpus become unreachable.
    pub fn retire(&mut self, id: MolId) -> bool {
        // Tombstone first: a retired molecule must stop appearing in any
        // corpus-level screen immediately (the per-molecule screen keeps
        // letting the id survive, so in-flight holders still execute
        // exactly as with the index off).
        if let Some(screen) = &mut self.screen {
            screen.remove(id);
        }
        if let Some(slot) = self.facts.get_mut(id as usize) {
            *slot = FactsSlot::default();
        }
        let before = self.exact.len() + self.index.len();
        // sigmo-lint: allow(nondet-collection-iter) — set-membership
        // retain; the surviving map is the same whatever order entries
        // are visited in, and nothing here feeds a report.
        self.exact.retain(|_, v| *v != id);
        // sigmo-lint: allow(nondet-collection-iter) — same order-free
        // retain over the canonical index.
        self.index.retain(|_, v| *v != id);
        before != self.exact.len() + self.index.len()
    }

    /// Number of distinct isomorphism classes stored.
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// `(hits, misses)` across all interns.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Length-prefix bit marking a [`PlanCache::key`] predicate block.
const PREDICATE_BLOCK: u64 = 1 << 63;

/// A predicated query's plan-key block: the predicate count, each
/// `(node, predicate)` in input order at a fixed width, then the query's
/// [`exact_key`] (which runs to the end of the length-prefixed block).
fn predicate_block(q: &LabeledGraph) -> Vec<u8> {
    fn opt(out: &mut Vec<u8>, v: Option<u8>) {
        out.extend_from_slice(&[u8::from(v.is_some()), v.unwrap_or(0)]);
    }
    let preds = q.predicates();
    let mut block = Vec::new();
    block.extend_from_slice(&(preds.len() as u32).to_le_bytes());
    for (v, p) in preds {
        block.extend_from_slice(&v.to_le_bytes());
        block.push(u8::from(p.label_any.is_some()));
        block.extend_from_slice(&p.label_any.unwrap_or(0).to_le_bytes());
        opt(&mut block, p.degree);
        opt(&mut block, p.ring.map(u8::from));
        opt(&mut block, p.ring_size);
        opt(&mut block, p.h_count);
        opt(&mut block, p.charge.map(|c| c as u8));
    }
    block.extend_from_slice(&exact_key(q));
    block
}

struct PlanEntry {
    queries: Vec<LabeledGraph>,
    plan: Arc<QueryPlan>,
}

/// Query-plan cache keyed by the ordered query canonical codes.
#[derive(Default)]
pub struct PlanCache {
    index: HashMap<Vec<u8>, PlanId>,
    entries: Vec<PlanEntry>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order-sensitive cache key for a query batch: each query's
    /// canonical code, length-prefixed so adjacent codes cannot alias.
    ///
    /// Canonical codes ignore [`NodePredicate`](sigmo_graph::NodePredicate)s,
    /// so `[C;R]N` and `[C;R0]N` share a code. A query carrying predicates
    /// therefore appends a second block, marked by the top bit of its
    /// length prefix (a code's length never has it): its `(node,
    /// predicate)` list and its exact input bytes, both in input order.
    /// The exact bytes tie each predicate to its place in the graph, so
    /// two keys are equal only for identical predicated queries — the
    /// same query with atoms listed in another order misses the cache,
    /// but never aliases. Keys of predicate-free batches are unchanged.
    pub fn key(queries: &[LabeledGraph]) -> Vec<u8> {
        let mut key = Vec::new();
        for q in queries {
            let code = canonical_code(q);
            key.extend_from_slice(&(code.len() as u64).to_le_bytes());
            key.extend_from_slice(&code);
            if q.has_predicates() {
                let block = predicate_block(q);
                key.extend_from_slice(&(block.len() as u64 | PREDICATE_BLOCK).to_le_bytes());
                key.extend_from_slice(&block);
            }
        }
        key
    }

    /// Interns a query batch, building its [`QueryPlan`] on first sight.
    pub fn intern(&mut self, queries: &[LabeledGraph], config: &EngineConfig) -> PlanId {
        let key = Self::key(queries);
        if let Some(&id) = self.index.get(&key) {
            self.hits += 1;
            return id;
        }
        self.misses += 1;
        let id = self.entries.len();
        self.entries.push(PlanEntry {
            queries: queries.to_vec(),
            plan: Arc::new(QueryPlan::build(queries, config)),
        });
        self.index.insert(key, id);
        id
    }

    /// The cached plan for `id`.
    pub fn plan(&self, id: PlanId) -> Arc<QueryPlan> {
        Arc::clone(&self.entries[id].plan)
    }

    /// The query batch `id` was interned with (the no-cache ablation
    /// rebuilds plans from these).
    pub fn queries(&self, id: PlanId) -> &[LabeledGraph] {
        &self.entries[id].queries
    }

    /// Number of distinct plans interned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plan has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` across all interns.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// One molecule's outcome against one plan in one mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MolOutcome {
    /// `(query index, matches)` for every query with ≥ 1 match, in plan
    /// query order.
    pub pairs: Vec<(usize, u64)>,
    /// True when the molecule's counts are a sound lower bound rather
    /// than a total (its work-group tripped a budget, or its shard was
    /// unavailable).
    pub truncated: bool,
    /// True when the molecule's owning shard exhausted every replica
    /// (sharded serving's degraded path): `pairs` is empty, the zero
    /// counts are a sound lower bound, and the outcome is never cached.
    pub unavailable: bool,
}

impl MolOutcome {
    /// Sum of the per-query counts.
    pub fn total(&self) -> u64 {
        self.pairs.iter().map(|&(_, n)| n).sum()
    }
}

/// FIFO-evicting cache of per-molecule outcomes keyed by
/// `(plan, molecule, mode, shard epoch)`. The epoch — the corpus
/// partition version — is part of the key so a repartition invalidates
/// every older entry wholesale: lookups under the new epoch miss, and the
/// stale entries age out through normal FIFO eviction.
pub struct ResultCache {
    map: HashMap<(PlanId, MolId, MatchMode, u64), Arc<MolOutcome>>,
    order: VecDeque<(PlanId, MolId, MatchMode, u64)>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` outcomes (0 disables
    /// insertion entirely).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up an outcome under the given shard epoch, counting the hit
    /// or miss.
    pub fn get(
        &mut self,
        plan: PlanId,
        mol: MolId,
        mode: MatchMode,
        epoch: u64,
    ) -> Option<Arc<MolOutcome>> {
        match self.map.get(&(plan, mol, mode, epoch)) {
            Some(outcome) => {
                self.hits += 1;
                Some(Arc::clone(outcome))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts an outcome under the given shard epoch, evicting the
    /// oldest entry when full.
    pub fn insert(
        &mut self,
        plan: PlanId,
        mol: MolId,
        mode: MatchMode,
        epoch: u64,
        outcome: Arc<MolOutcome>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = (plan, mol, mode, epoch);
        if self.map.insert(key, outcome).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses)` across all lookups.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmo_core::engine::EngineConfig;

    fn chain(labels: &[u8]) -> LabeledGraph {
        let edges: Vec<(u32, u32)> = (1..labels.len() as u32).map(|i| (i - 1, i)).collect();
        LabeledGraph::from_edges(labels, &edges).unwrap()
    }

    #[test]
    fn mol_store_collapses_isomorphic_variants() {
        let mut store = MolStore::new();
        let a = chain(&[1, 3, 1]);
        // Same chain, nodes listed in reverse.
        let b = LabeledGraph::from_edges(&[1, 3, 1], &[(2, 1), (1, 0)]).unwrap();
        let c = chain(&[1, 3, 3]);
        let ia = store.intern(&a);
        let ib = store.intern(&b);
        let ic = store.intern(&c);
        assert_eq!(ia, ib, "isomorphic variants share an id");
        assert_ne!(ia, ic);
        assert_eq!(store.len(), 2);
        assert_eq!(store.counters(), (1, 2));
        // The representative is the first-seen variant.
        assert_eq!(store.graph(ia), &a);
    }

    #[test]
    fn plan_cache_is_order_sensitive() {
        let cfg = EngineConfig::default();
        let q1 = chain(&[1, 3]);
        let q2 = chain(&[1, 2]);
        let mut cache = PlanCache::new();
        let ab = cache.intern(&[q1.clone(), q2.clone()], &cfg);
        let ba = cache.intern(&[q2.clone(), q1.clone()], &cfg);
        let ab2 = cache.intern(&[q1, q2], &cfg);
        assert_ne!(ab, ba, "query order is part of the key");
        assert_eq!(ab, ab2);
        assert_eq!(cache.counters(), (1, 2));
    }

    #[test]
    fn predicate_free_keys_are_the_length_prefixed_codes() {
        let qs = [chain(&[1, 3]), chain(&[1, 2, 2])];
        let mut expected = Vec::new();
        for q in &qs {
            let code = canonical_code(q);
            expected.extend_from_slice(&(code.len() as u64).to_le_bytes());
            expected.extend_from_slice(&code);
        }
        assert_eq!(PlanCache::key(&qs), expected);
    }

    #[test]
    fn predicated_twins_get_distinct_plans() {
        use sigmo_mol::parse_smarts;
        let cfg = EngineConfig::default();
        let ring = [parse_smarts("[C;R]N").unwrap()];
        let chain_only = [parse_smarts("[C;R0]N").unwrap()];
        let bare = [parse_smarts("CN").unwrap()];
        let mut cache = PlanCache::new();
        let a = cache.intern(&ring, &cfg);
        let b = cache.intern(&chain_only, &cfg);
        let c = cache.intern(&bare, &cfg);
        assert_ne!(a, b, "predicates are part of the key");
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(cache.intern(&ring, &cfg), a);
        assert_eq!(cache.counters(), (1, 3));
        // The same query with its atoms listed in the other order misses
        // the cache (conservative) rather than risk an alias.
        let moved = [parse_smarts("N[C;R]").unwrap()];
        assert_ne!(PlanCache::key(&moved), PlanCache::key(&ring));
    }

    #[test]
    fn result_cache_evicts_fifo() {
        let mut cache = ResultCache::new(2);
        let out = Arc::new(MolOutcome {
            pairs: vec![(0, 1)],
            truncated: false,
            unavailable: false,
        });
        cache.insert(0, 0, MatchMode::FindAll, 0, Arc::clone(&out));
        cache.insert(0, 1, MatchMode::FindAll, 0, Arc::clone(&out));
        cache.insert(0, 2, MatchMode::FindAll, 0, Arc::clone(&out));
        assert_eq!(cache.len(), 2);
        assert!(
            cache.get(0, 0, MatchMode::FindAll, 0).is_none(),
            "oldest evicted"
        );
        assert!(cache.get(0, 2, MatchMode::FindAll, 0).is_some());
        // Same molecule, different mode is a distinct key.
        assert!(cache.get(0, 2, MatchMode::FindFirst, 0).is_none());
    }

    #[test]
    fn result_cache_epoch_partitions_the_key_space() {
        let mut cache = ResultCache::new(8);
        let out = Arc::new(MolOutcome {
            pairs: vec![(1, 7)],
            truncated: false,
            unavailable: false,
        });
        cache.insert(0, 0, MatchMode::FindAll, 0, Arc::clone(&out));
        // A repartition bumps the epoch: the old entry must not serve.
        assert!(cache.get(0, 0, MatchMode::FindAll, 1).is_none());
        assert!(cache.get(0, 0, MatchMode::FindAll, 0).is_some());
        cache.insert(0, 0, MatchMode::FindAll, 1, Arc::clone(&out));
        assert_eq!(cache.len(), 2, "epochs are distinct keys");
    }

    #[test]
    fn mol_store_retire_forgets_interning_but_keeps_the_graph() {
        let mut store = MolStore::new();
        let a = chain(&[1, 3, 1]);
        let b = LabeledGraph::from_edges(&[1, 3, 1], &[(2, 1), (1, 0)]).unwrap();
        let ia = store.intern(&a);
        assert_eq!(store.lookup(&a), Some(ia));
        assert_eq!(store.lookup(&b), Some(ia), "canonical lookup");
        assert!(store.retire(ia));
        assert!(!store.retire(ia), "second retire is a no-op");
        assert_eq!(store.lookup(&a), None, "retired entries are forgotten");
        assert_eq!(store.graph(ia), &a, "the representative stays valid");
        // Re-interning after retirement mints a fresh id.
        let ia2 = store.intern(&a);
        assert_ne!(ia, ia2);
    }
}
