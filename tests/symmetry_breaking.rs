//! The join finds each embedding class once (DESIGN.md §20).
//!
//! A query with automorphisms has each of its embeddings reachable from
//! |Aut(q)| relabelings. The join keeps one representative per class
//! (the symmetry-breaking conditions) and counts it as the order of the
//! broken group, and a query that repeats an earlier query of its batch
//! copies that query's pairs. None of it may change an answer:
//!
//! * Find All counts equal brute force, pair by pair, and each is a
//!   multiple of |Aut(q)|, which an independent count of colour-keeping
//!   permutations confirms on queries of 8 nodes or fewer;
//! * collected records, when the limit covers every embedding, are the
//!   unbroken set; Find First pairs are the Find All pairs;
//! * DFS, BFS, both orders and the adaptive strategies (the stream's
//!   flipped retry included) agree;
//! * a library holding duplicates reports, for every copy, the pair
//!   counts of the library without them.
//!
//! The random-graph property honours `SIGMO_FUZZ_CASES`
//! (`scripts/check.sh` runs it in release).

use proptest::prelude::*;
use sigmo::baselines::{BruteForceMatcher, Matcher};
use sigmo::core::filter::initialize_candidates;
use sigmo::core::join::{
    join_with_policy, JoinMode, JoinParams, JoinPolicy, PolicyMode, QueryPlan as JoinPlan,
};
use sigmo::core::{
    CandidateBitmap, Engine, EngineConfig, Gmcr, JoinOrder, JoinStrategy, JoinVariant, MatchMode,
    OrderChoice, QueryPlan, RunBudget, RunReport, StreamRunner, WordWidth,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{CsrGo, LabeledGraph, NodeId, NodePredicate, WILDCARD_EDGE, WILDCARD_LABEL};
use sigmo::mol::{functional_groups, parse_smarts, MoleculeGenerator, QueryExtractor};
use std::collections::BTreeSet;

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// Case count of the random-graph property: `SIGMO_FUZZ_CASES` when set,
/// else a tier-1-fast default.
fn cases() -> u32 {
    std::env::var("SIGMO_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

/// SMARTS predicate queries, the symmetric `[CR]1[CR][CR]1` among them.
const SMARTS_PANEL: &[&str] = &[
    "[C;R]N",
    "[C;R0]N",
    "[C,N]=O",
    "[!C]C",
    "[CD4]C",
    "[CH3]C",
    "[O-]C",
    "[cr6]c",
    "[CR]1[CR][CR]1",
    "[C,O]=O",
];

/// Counts the permutations of `q`'s nodes that keep every node's label,
/// charge and predicate and every bond label (absent bonds included):
/// plain backtracking over all n! assignments, pruned only by those
/// checks. Independent of the engine's refinement-based search.
fn count_automorphisms(q: &LabeledGraph) -> u64 {
    fn rec(q: &LabeledGraph, perm: &mut Vec<NodeId>, used: &mut [bool]) -> u64 {
        let x = perm.len() as NodeId;
        if x as usize == q.num_nodes() {
            return 1;
        }
        let mut count = 0;
        for y in 0..q.num_nodes() as NodeId {
            let keeps = !used[y as usize]
                && q.label(x) == q.label(y)
                && q.charge(x) == q.charge(y)
                && q.predicate(x) == q.predicate(y)
                && (0..x).all(|e| q.edge_label(e, x) == q.edge_label(perm[e as usize], y));
            if keeps {
                used[y as usize] = true;
                perm.push(y);
                count += rec(q, perm, used);
                perm.pop();
                used[y as usize] = false;
            }
        }
        count
    }
    assert!(q.num_nodes() <= 8, "the independent count is n!");
    rec(q, &mut Vec::new(), &mut vec![false; q.num_nodes()])
}

/// Induced-subgraph embeddings by exhaustive search: every earlier
/// query pair must agree with its data pair on edge presence.
fn brute_force_induced(q: &LabeledGraph, d: &LabeledGraph) -> Vec<Vec<NodeId>> {
    fn rec(
        q: &LabeledGraph,
        d: &LabeledGraph,
        mapping: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        let x = mapping.len() as NodeId;
        if x as usize == q.num_nodes() {
            out.push(mapping.clone());
            return;
        }
        'cand: for v in 0..d.num_nodes() as NodeId {
            if mapping.contains(&v) {
                continue;
            }
            let ql = q.label(x);
            if ql != WILDCARD_LABEL && ql != d.label(v) {
                continue;
            }
            for e in 0..x {
                match (q.edge_label(e, x), d.edge_label(mapping[e as usize], v)) {
                    (Some(l), Some(m)) if l == WILDCARD_EDGE || l == m => {}
                    (None, None) => {}
                    _ => continue 'cand,
                }
            }
            mapping.push(v);
            rec(q, d, mapping, out);
            mapping.pop();
        }
    }
    let mut out = Vec::new();
    if q.num_nodes() <= d.num_nodes() {
        rec(q, d, &mut Vec::new(), &mut out);
    }
    out
}

/// Embeddings as (data graph, query graph, data-graph-local mapping).
type EmbeddingSet = BTreeSet<(usize, usize, Vec<NodeId>)>;

/// Every embedding per (data graph, query graph), as data-graph-local
/// mappings, from the engine's collected records.
fn record_sets(report: &RunReport, data: &[LabeledGraph]) -> EmbeddingSet {
    let offsets: Vec<NodeId> = data
        .iter()
        .scan(0, |acc, g| {
            let base = *acc;
            *acc += g.num_nodes() as NodeId;
            Some(base)
        })
        .collect();
    report
        .records
        .iter()
        .map(|r| {
            let local = r
                .mapping
                .iter()
                .map(|&v| v - offsets[r.data_graph])
                .collect();
            (r.data_graph, r.query_graph, local)
        })
        .collect()
}

/// The pair counts brute force reports, in the engine's order.
fn brute_pairs(
    queries: &[LabeledGraph],
    data: &[LabeledGraph],
    embeddings: impl Fn(&LabeledGraph, &LabeledGraph) -> Vec<Vec<NodeId>>,
) -> (Vec<(usize, usize, u64)>, EmbeddingSet) {
    let mut pairs = Vec::new();
    let mut all = BTreeSet::new();
    for (dg, d) in data.iter().enumerate() {
        for (qg, q) in queries.iter().enumerate() {
            let found = embeddings(q, d);
            if !found.is_empty() {
                pairs.push((dg, qg, found.len() as u64));
            }
            all.extend(found.into_iter().map(|m| (dg, qg, m)));
        }
    }
    (pairs, all)
}

/// The class size of every query: the order of its broken group.
fn class_sizes(queries: &[LabeledGraph], config: &EngineConfig) -> Vec<u64> {
    QueryPlan::build(queries, config)
        .join_plans()
        .iter()
        .map(|p| p.symmetry().order())
        .collect()
}

/// Runs `queries` × `data` and checks the symmetry contract against
/// `embeddings` (the exhaustive reference for the run's semantics).
fn check_against_reference(
    queries: &[LabeledGraph],
    data: &[LabeledGraph],
    induced: bool,
    embeddings: impl Fn(&LabeledGraph, &LabeledGraph) -> Vec<Vec<NodeId>>,
) -> Result<(), TestCaseError> {
    let (expected, all) = brute_pairs(queries, data, embeddings);
    let total: u64 = expected.iter().map(|p| p.2).sum();
    let config = EngineConfig {
        induced,
        collect_limit: Some(all.len().max(1)),
        ..Default::default()
    };
    let report = Engine::new(config.clone()).run(queries, data, &queue());
    prop_assert_eq!(&report.pair_counts, &expected);
    prop_assert_eq!(report.total_matches, total);
    prop_assert_eq!(record_sets(&report, data), all);
    let sizes = class_sizes(queries, &config);
    for (qg, q) in queries.iter().enumerate() {
        if q.num_nodes() <= 8 {
            prop_assert_eq!(sizes[qg], count_automorphisms(q), "query {}", qg);
        }
    }
    for &(_, qg, n) in &report.pair_counts {
        prop_assert_eq!(n % sizes[qg], 0, "query {} count {}", qg, n);
    }
    // Find First breaks nothing and finds the same pairs.
    let first = Engine::new(EngineConfig {
        mode: MatchMode::FindFirst,
        ..config
    })
    .run(queries, data, &queue());
    prop_assert_eq!(first.matched_pair_list, report.matched_pair_list);
    Ok(())
}

/// Random graphs biased toward symmetry: stars, rings, cliques and paths
/// of few colours, plus random extra edges, with wildcard labels and
/// bonds mixed in.
fn arb_query() -> impl Strategy<Value = LabeledGraph> {
    (0..5u8, 2..=6usize, any::<u64>()).prop_map(|(shape, n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let label = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..8u8) {
            0 => WILDCARD_LABEL,
            1..=5 => 1,
            _ => 0,
        };
        let bond = |rng: &mut rand::rngs::StdRng| match rng.gen_range(0..6u8) {
            0 => WILDCARD_EDGE,
            1 => 2,
            _ => 1,
        };
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node(label(&mut rng));
        }
        let n = n as u32;
        // A uniform bond per shape keeps most of its symmetry.
        let b = bond(&mut rng);
        match shape {
            0 => (1..n).for_each(|v| g.add_edge(0, v, b).unwrap()),
            1 => (0..n).for_each(|v| {
                let _ = g.add_edge(v, (v + 1) % n, b);
            }),
            2 => {
                for a in 0..n {
                    for c in a + 1..n {
                        g.add_edge(a, c, b).unwrap();
                    }
                }
            }
            3 => (1..n).for_each(|v| g.add_edge(v - 1, v, b).unwrap()),
            _ => {
                for v in 1..n {
                    let u = rng.gen_range(0..v);
                    g.add_edge(u, v, bond(&mut rng)).unwrap();
                }
                for _ in 0..n / 2 {
                    let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != c {
                        let _ = g.add_edge(a, c, bond(&mut rng));
                    }
                }
            }
        }
        g
    })
}

/// Small dense data graphs over the same colours.
fn arb_data() -> impl Strategy<Value = LabeledGraph> {
    (3..=8usize, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut g = LabeledGraph::new();
        for _ in 0..n {
            g.add_node(if rng.gen_range(0..4u8) == 0 { 0 } else { 1 });
        }
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_range(0..3u8) > 0 {
                    g.add_edge(a, b, if rng.gen_range(0..5u8) == 0 { 2 } else { 1 })
                        .unwrap();
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Find All counts, records and Find First pairs equal brute force on
    /// symmetric random queries, in substructure and induced semantics;
    /// every pair count is a multiple of |Aut(q)|.
    #[test]
    fn counts_equal_brute_force_and_divide_by_the_group(
        q in arb_query(),
        d in prop::collection::vec(arb_data(), 1..3),
        induced in any::<bool>(),
    ) {
        let queries = [q];
        if induced {
            check_against_reference(&queries, &d, true, brute_force_induced)?;
        } else {
            check_against_reference(&queries, &d, false, |q, d| {
                BruteForceMatcher.enumerate(q, d, usize::MAX)
            })?;
        }
    }
}

/// Runs the join of `q` against `d` with the group found along the
/// max-degree order, but in the BFS order from every node of `q` in turn:
/// the conditions then put upper as well as lower bounds on the scans.
fn counts_in_every_order(
    q: &LabeledGraph,
    d: &[LabeledGraph],
    variant: JoinVariant,
    mode: JoinMode,
) -> Vec<u64> {
    let queries = CsrGo::from_graphs(std::slice::from_ref(q));
    let data = CsrGo::from_graphs(d);
    let queue = queue();
    let bitmap = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    initialize_candidates(&queue, &queries, &data, &bitmap, 64);
    let base = JoinPlan::build(&queries, 0, false);
    (0..q.num_nodes() as NodeId)
        .map(|start| {
            let plans = [base.reordered(&queries, 0, false, start)];
            let gmcr = Gmcr::build(&queue, &queries, &data, &bitmap, 64);
            let policy = JoinPolicy {
                max_degree: &plans,
                min_candidates: &plans,
                mode: PolicyMode::Fixed(variant, OrderChoice::MaxDegree),
            };
            let params = JoinParams {
                mode,
                ..Default::default()
            };
            join_with_policy(&queue, &queries, &data, &bitmap, &gmcr, &policy, &params)
                .total_matches
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Whatever node the matching order starts at, DFS and BFS count each
    /// class once: the bounds filed at the later of each condition's two
    /// positions are lower or upper bounds, and both are exact.
    #[test]
    fn every_matching_order_counts_each_class_once(
        q in arb_query(),
        d in prop::collection::vec(arb_data(), 1..3),
    ) {
        let expected: u64 = d.iter().map(|g| BruteForceMatcher.count_embeddings(&q, g)).sum();
        let pairs = d
            .iter()
            .filter(|g| BruteForceMatcher.count_embeddings(&q, g) > 0)
            .count() as u64;
        for variant in [JoinVariant::Dfs, JoinVariant::Bfs] {
            for n in counts_in_every_order(&q, &d, variant, JoinMode::FindAll) {
                prop_assert_eq!(n, expected, "{:?}", variant);
            }
        }
        for n in counts_in_every_order(&q, &d, JoinVariant::Dfs, JoinMode::FindFirst) {
            prop_assert_eq!(n, pairs);
        }
    }
}

/// Generated molecules of `seed` (hydrogens explicit).
fn molecules(seed: u64, n: usize) -> Vec<LabeledGraph> {
    MoleculeGenerator::with_seed(seed)
        .generate_batch(n)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect()
}

/// The functional groups, queries extracted from `seed`'s molecules and
/// the SMARTS panel.
fn library(seed: u64) -> Vec<LabeledGraph> {
    let sources = MoleculeGenerator::with_seed(seed ^ 0x11b).generate_batch(40);
    functional_groups()
        .into_iter()
        .map(|q| q.graph)
        .chain(QueryExtractor::new(seed ^ 0xe7).extract_batch(&sources, 8, 3, 8))
        .chain(SMARTS_PANEL.iter().map(|s| parse_smarts(s).unwrap()))
        .collect()
}

#[test]
fn molecular_libraries_match_brute_force_at_every_seed() {
    for seed in [3u64, 11, 29] {
        let queries = library(seed);
        let data = molecules(seed, 4);
        check_against_reference(&queries, &data, false, |q, d| {
            BruteForceMatcher.enumerate(q, d, usize::MAX)
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn induced_molecular_queries_match_brute_force() {
    let sources = MoleculeGenerator::with_seed(61).generate_batch(6);
    let data: Vec<LabeledGraph> = sources.iter().map(|m| m.to_labeled_graph()).collect();
    let mut queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .filter(|q| q.graph.num_nodes() <= 6)
        .map(|q| q.graph)
        .collect();
    queries.extend(QueryExtractor::new(3).extract_batch(&sources, 4, 3, 5));
    check_against_reference(&queries, &data[..3], true, brute_force_induced).unwrap();
}

#[test]
fn wildcard_and_predicate_colours_split_the_group() {
    // C(H)(H)(H)H with one hydrogen a wildcard: only the other three
    // permute. With a degree predicate on one carbon of C-C: no symmetry.
    let mut star = LabeledGraph::new();
    let c = star.add_node(1);
    for label in [0, 0, 0, WILDCARD_LABEL] {
        let h = star.add_node(label);
        star.add_edge(c, h, 1).unwrap();
    }
    let mut pred = LabeledGraph::from_edges(&[1, 1], &[(0, 1)]).unwrap();
    pred.set_predicate(
        0,
        NodePredicate {
            degree: Some(4),
            ..Default::default()
        },
    );
    let queries = [star.clone(), pred.clone()];
    let sizes = class_sizes(&queries, &EngineConfig::default());
    assert_eq!(sizes, vec![6, 1]);
    assert_eq!(count_automorphisms(&star), 6);
    assert_eq!(count_automorphisms(&pred), 1);
    let data = molecules(5, 4);
    check_against_reference(&queries, &data, false, |q, d| {
        BruteForceMatcher.enumerate(q, d, usize::MAX)
    })
    .unwrap();
}

/// Every join strategy and order, the adaptive ones and their flips.
fn strategies() -> Vec<(JoinStrategy, JoinOrder)> {
    let mut out = Vec::new();
    for s in [JoinStrategy::Dfs, JoinStrategy::Bfs] {
        for o in [JoinOrder::MaxDegree, JoinOrder::MinCandidates] {
            out.push((s, o));
        }
    }
    out.push((JoinStrategy::Adaptive, JoinOrder::MaxDegree));
    out.push((JoinStrategy::AdaptiveInverted, JoinOrder::MaxDegree));
    out
}

#[test]
fn every_strategy_and_order_reports_the_same_pairs_and_records() {
    let queries = library(7);
    let data = molecules(7, 6);
    let reference = Engine::new(EngineConfig {
        collect_limit: Some(usize::MAX),
        ..Default::default()
    })
    .run(&queries, &data, &queue());
    assert!(reference.total_matches > 0);
    let records = record_sets(&reference, &data);
    assert_eq!(records.len() as u64, reference.total_matches);
    for (join_strategy, join_order) in strategies() {
        for mode in [MatchMode::FindAll, MatchMode::FindFirst] {
            let report = Engine::new(EngineConfig {
                join_strategy,
                join_order,
                mode,
                collect_limit: Some(usize::MAX),
                ..Default::default()
            })
            .run(&queries, &data, &queue());
            let what = format!("{join_strategy:?}/{join_order:?}/{mode:?}");
            assert_eq!(
                report.matched_pair_list, reference.matched_pair_list,
                "{what}"
            );
            if mode == MatchMode::FindAll {
                assert_eq!(report.pair_counts, reference.pair_counts, "{what}");
                assert_eq!(record_sets(&report, &data), records, "{what}");
            }
        }
    }
}

#[test]
fn the_flipped_retry_recovers_a_symmetric_molecule_exactly() {
    // A carbon with twelve hydrogens against C(H)(H)(H)H: 11,880
    // embeddings in 495 classes. Under a budget the DFS trips on and
    // the BFS does not, the retry's count is the unbudgeted count.
    let mut q = LabeledGraph::new();
    let qc = q.add_node(1);
    for _ in 0..4 {
        let h = q.add_node(0);
        q.add_edge(qc, h, 1).unwrap();
    }
    let mut d = LabeledGraph::new();
    let dc = d.add_node(1);
    for _ in 0..12 {
        let h = d.add_node(0);
        d.add_edge(dc, h, 1).unwrap();
    }
    let queries = [q];
    let full =
        Engine::new(EngineConfig::default()).run(&queries, std::slice::from_ref(&d), &queue());
    assert_eq!(full.total_matches, 12 * 11 * 10 * 9);
    let budget = RunBudget::none().with_step_budget(800);
    let runner = |retry| {
        StreamRunner::new(EngineConfig::default(), u64::MAX)
            .with_max_chunk(1)
            .with_budget(budget.clone())
            .with_strategy_retry(retry)
            .run(&queries, std::iter::once(d.clone()), &queue())
    };
    let without = runner(false);
    assert_eq!(without.quarantined.len(), 1, "DFS alone must trip");
    let with = runner(true);
    assert_eq!(with.strategy_retries, 1);
    assert!(with.quarantined.is_empty());
    assert_eq!(with.total_matches, full.total_matches);
}

#[test]
fn duplicated_queries_report_the_counts_of_their_originals() {
    let originals = library(13);
    let data = molecules(13, 6);
    // Each original twice, the copies interleaved with other queries, and
    // one original three times.
    let mut copies: Vec<usize> = (0..originals.len()).collect();
    copies.extend((0..originals.len()).rev());
    copies.push(0);
    let doubled: Vec<LabeledGraph> = copies.iter().map(|&i| originals[i].clone()).collect();
    let config = EngineConfig {
        collect_limit: Some(usize::MAX),
        ..Default::default()
    };
    let plan = QueryPlan::build(&doubled, &config);
    for (qg, &i) in copies.iter().enumerate() {
        let first = copies.iter().position(|&j| j == i).unwrap();
        let twin = plan.join_plans()[qg].twin_of().map(|t| t as usize);
        let want = (first < qg).then_some(first);
        // Two library entries may themselves be equal: then the twin is
        // the first copy of that equal entry.
        if twin != want {
            let t = twin.expect("a copy is always somebody's twin");
            assert!(t < qg && doubled[t] == doubled[qg], "query {qg}");
        }
    }
    let base = Engine::new(config.clone()).run(&originals, &data, &queue());
    let base_records = record_sets(&base, &data);
    for mode in [MatchMode::FindAll, MatchMode::FindFirst] {
        let cfg = EngineConfig {
            mode,
            ..config.clone()
        };
        let base = Engine::new(cfg.clone()).run(&originals, &data, &queue());
        let dup = Engine::new(cfg).run(&doubled, &data, &queue());
        let mut want: Vec<(usize, usize, u64)> = Vec::new();
        for dg in 0..data.len() {
            for (qg, &i) in copies.iter().enumerate() {
                if let Some(&(_, _, n)) = base.pair_counts.iter().find(|p| p.0 == dg && p.1 == i) {
                    want.push((dg, qg, n));
                }
            }
        }
        assert_eq!(dup.pair_counts, want, "{mode:?}");
        if mode == MatchMode::FindAll {
            let got: EmbeddingSet = record_sets(&dup, &data)
                .into_iter()
                .map(|(dg, qg, m)| (dg, copies[qg], m))
                .collect();
            assert_eq!(got, base_records);
            assert_eq!(dup.records.len() as u64, dup.total_matches);
        }
    }
}

#[test]
fn the_collect_limit_counts_expanded_records() {
    // Benzene-in-benzene: 12 embeddings, all in one class of the ring's
    // 12 symmetries — one representative expands to every record.
    let ring = |n: u32| {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        LabeledGraph::from_edges(&vec![1; n as usize], &edges).unwrap()
    };
    let queries = [ring(6)];
    let data = [ring(6), ring(6)];
    assert_eq!(class_sizes(&queries, &EngineConfig::default()), vec![12]);
    for limit in [1usize, 5, 12, 13, 24, 100] {
        let report = Engine::new(EngineConfig {
            collect_limit: Some(limit),
            ..Default::default()
        })
        .run(&queries, &data, &queue());
        assert_eq!(report.total_matches, 24);
        assert_eq!(report.records.len(), limit.min(24), "limit {limit}");
        let distinct: BTreeSet<_> = report.records.iter().map(|r| &r.mapping).collect();
        assert_eq!(distinct.len(), report.records.len(), "no record twice");
        for r in &report.records {
            let base = r.data_graph as NodeId * 6;
            let local: Vec<NodeId> = r.mapping.iter().map(|&v| v - base).collect();
            assert!(data[r.data_graph].is_valid_embedding(&queries[0], &local));
        }
    }
}
