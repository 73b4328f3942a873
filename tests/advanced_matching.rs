//! Integration tests for the matching extensions: induced semantics,
//! wildcard atoms/bonds, and the BFS-join alternative.

use sigmo::core::{
    filter::initialize_candidates, join::QueryPlan, join_bfs, BatchFacts, CandidateBitmap, Engine,
    EngineConfig, Gmcr, Governor, WordWidth,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{CsrGo, LabeledGraph, WILDCARD_EDGE, WILDCARD_LABEL};
use sigmo::mol::{functional_groups, MoleculeGenerator, QueryExtractor};

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// Brute-force induced-isomorphism counter (reference for induced mode).
fn brute_force_induced(query: &LabeledGraph, data: &LabeledGraph) -> u64 {
    fn rec(
        query: &LabeledGraph,
        data: &LabeledGraph,
        mapping: &mut Vec<u32>,
        used: &mut Vec<bool>,
        count: &mut u64,
    ) {
        let depth = mapping.len();
        if depth == query.num_nodes() {
            *count += 1;
            return;
        }
        let q = depth as u32;
        'cand: for d in 0..data.num_nodes() as u32 {
            if used[d as usize] {
                continue;
            }
            let ql = query.label(q);
            if ql != WILDCARD_LABEL && ql != data.label(d) {
                continue;
            }
            for earlier in 0..depth as u32 {
                let qe = query.edge_label(earlier, q);
                let de = data.edge_label(mapping[earlier as usize], d);
                match (qe, de) {
                    (Some(l), Some(m)) => {
                        if l != WILDCARD_EDGE && l != m {
                            continue 'cand;
                        }
                    }
                    (None, None) => {}
                    _ => continue 'cand, // edge presence must agree (induced)
                }
            }
            mapping.push(d);
            used[d as usize] = true;
            rec(query, data, mapping, used, count);
            used[d as usize] = false;
            mapping.pop();
        }
    }
    if query.num_nodes() > data.num_nodes() {
        return 0;
    }
    let mut count = 0;
    rec(
        query,
        data,
        &mut Vec::new(),
        &mut vec![false; data.num_nodes()],
        &mut count,
    );
    count
}

#[test]
fn induced_mode_matches_brute_force() {
    let mut gen = MoleculeGenerator::with_seed(61);
    let mols = gen.generate_batch(6);
    let data: Vec<LabeledGraph> = mols.iter().map(|m| m.to_labeled_graph()).collect();
    let mut ex = QueryExtractor::new(3);
    let queries: Vec<LabeledGraph> = (0..4).filter_map(|_| ex.extract(&mols[0], 5)).collect();
    let expected: u64 = queries
        .iter()
        .flat_map(|q| data.iter().map(move |d| brute_force_induced(q, d)))
        .sum();
    let engine = Engine::new(EngineConfig {
        induced: true,
        ..Default::default()
    });
    let got = engine.run(&queries, &data, &queue()).total_matches;
    assert_eq!(got, expected);
    assert!(expected > 0, "extracted induced queries must match sources");
}

#[test]
fn wildcard_label_engine_matches_reference() {
    // Pattern: any atom double-bonded to O (generalized carbonyl).
    let mut q = LabeledGraph::new();
    let x = q.add_node(WILDCARD_LABEL);
    let o = q.add_node(3); // O
    q.add_edge(x, o, 2).unwrap();

    let mut gen = MoleculeGenerator::with_seed(88);
    let data: Vec<LabeledGraph> = gen
        .generate_batch(20)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();

    // Reference: count (u, v) data pairs with edge label 2 and label(v)=O.
    let mut expected = 0u64;
    for d in &data {
        for (a, b, l) in d.edges() {
            if l == 2 {
                if d.label(b) == 3 {
                    expected += 1;
                }
                if d.label(a) == 3 {
                    expected += 1;
                }
            }
        }
    }
    let got = Engine::with_defaults()
        .run(std::slice::from_ref(&q), &data, &queue())
        .total_matches;
    assert_eq!(got, expected);
}

#[test]
fn wildcard_edge_generalizes_concrete_bond_queries() {
    let mut gen = MoleculeGenerator::with_seed(99);
    let data: Vec<LabeledGraph> = gen
        .generate_batch(25)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    // C~O with wildcard bond ≥ sum over concrete bond orders.
    let make_query = |edge: u8| {
        let mut q = LabeledGraph::new();
        let c = q.add_node(1);
        let o = q.add_node(3);
        q.add_edge(c, o, edge).unwrap();
        q
    };
    let count = |q: &LabeledGraph| {
        Engine::with_defaults()
            .run(std::slice::from_ref(q), &data, &queue())
            .total_matches
    };
    let wild = count(&make_query(WILDCARD_EDGE));
    let concrete_sum: u64 = (1..=3u8).map(|o| count(&make_query(o))).sum();
    assert_eq!(wild, concrete_sum);
    assert!(wild > 0);
}

#[test]
fn bfs_join_equals_dfs_join_on_molecular_batch() {
    let mut gen = MoleculeGenerator::with_seed(17);
    let data_graphs: Vec<LabeledGraph> = gen
        .generate_batch(30)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let query_graphs: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(10)
        .map(|q| q.graph)
        .collect();

    let dfs_total = Engine::with_defaults()
        .run(&query_graphs, &data_graphs, &queue())
        .total_matches;

    let queries = CsrGo::from_graphs(&query_graphs);
    let data = CsrGo::from_graphs(&data_graphs);
    let q = queue();
    let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    initialize_candidates(&q, &queries, &data, &bm, 1024);
    let gmcr = Gmcr::build(&q, &queries, &data, &bm, 1024);
    let plans: Vec<QueryPlan> = (0..queries.num_graphs())
        .map(|qg| QueryPlan::build(&queries, qg, false))
        .collect();
    let bfs = join_bfs(&q, &queries, &data, &bm, &gmcr, &plans, 128);
    assert_eq!(bfs.total_matches, dfs_total);
    assert!(
        bfs.peak_partial_matches >= 1,
        "BFS must have materialized partial matches"
    );
}

#[test]
fn deeper_filter_reduces_bfs_join_memory() {
    // §4.6's memory argument interacts with the filter: pruning candidates
    // shrinks the BFS frontier. Verify more refinement ⇒ no more peak
    // partial matches.
    let mut gen = MoleculeGenerator::with_seed(23);
    let data_graphs: Vec<LabeledGraph> = gen
        .generate_batch(20)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let query_graphs: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(8)
        .map(|q| q.graph)
        .collect();
    let queries = CsrGo::from_graphs(&query_graphs);
    let data = CsrGo::from_graphs(&data_graphs);
    let plans: Vec<QueryPlan> = (0..queries.num_graphs())
        .map(|qg| QueryPlan::build(&queries, qg, false))
        .collect();

    let peak_at = |iterations: usize| {
        let q = queue();
        let cfg = EngineConfig::with_iterations(iterations);
        let plan = sigmo::core::QueryPlan::from_batch(queries.clone(), &cfg);
        let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
        let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let governor = Governor::unlimited();
        Engine::new(cfg).filter_with_facts(&plan, &data, &facts, &bm, &q, &governor);
        let gmcr = Gmcr::build(&q, &queries, &data, &bm, 1024);
        join_bfs(&q, &queries, &data, &bm, &gmcr, &plans, 128)
    };
    let shallow = peak_at(1);
    let deep = peak_at(5);
    assert_eq!(shallow.total_matches, deep.total_matches);
    assert!(
        deep.total_partial_matches <= shallow.total_partial_matches,
        "deep filter {} rows vs shallow {} rows",
        deep.total_partial_matches,
        shallow.total_partial_matches
    );
}
