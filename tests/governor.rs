//! End-to-end tests for the run governor: budgets, cancellation, and the
//! stream runner's bisection-and-quarantine protocol.
//!
//! The degradation contract under test (DESIGN.md §8): a truncated run is
//! *sound but incomplete* — every reported embedding is a real embedding,
//! and a budget-free governor is bit-identical to no governor at all.

use sigmo::core::{
    CancelToken, Completion, Engine, EngineConfig, Governor, RunBudget, StreamRunner,
    TruncationReason,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{LabeledGraph, WILDCARD_EDGE, WILDCARD_LABEL};
use sigmo::mol::{functional_groups, MoleculeGenerator};
use std::time::{Duration, Instant};

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// A complete graph on `n` nodes, every node labelled `label`, every edge
/// labelled `edge`. A wildcard clique against a uniform data clique has
/// O(N!) embeddings in classes of n! (its symmetries): the join lists one
/// per class, which an embedding cap still stops, but fast enough that a
/// deadline test needs an asymmetric query.
fn clique(n: u32, label: u8, edge: u8) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node(label);
    }
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b, edge).unwrap();
        }
    }
    g
}

/// The 8-node wildcard query of the deadline tests: the complete graph
/// minus a spider with legs of 1, 2 and 4 edges. Its complement has no
/// automorphism, so neither has it, and the join cannot break any
/// symmetry: against a uniform 16-clique, which holds every edge, it
/// still has 16·15·…·9 ≈ 5.2e8 embeddings to enumerate one by one.
fn asymmetric_wildcard_octet() -> LabeledGraph {
    let spider = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7)];
    let mut g = LabeledGraph::new();
    for _ in 0..8 {
        g.add_node(WILDCARD_LABEL);
    }
    for a in 0..8u32 {
        for b in (a + 1)..8 {
            if !spider.contains(&(a, b)) {
                g.add_edge(a, b, WILDCARD_EDGE).unwrap();
            }
        }
    }
    g
}

/// A path on `n` nodes: labels `label`, edges `edge`.
fn path(n: u32, label: u8, edge: u8) -> LabeledGraph {
    let mut g = LabeledGraph::new();
    for _ in 0..n {
        g.add_node(label);
    }
    for a in 0..n.saturating_sub(1) {
        g.add_edge(a, a + 1, edge).unwrap();
    }
    g
}

/// A modest realistic workload for equivalence checks.
fn workload() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let mut gen = MoleculeGenerator::with_seed(41);
    let data: Vec<LabeledGraph> = gen
        .generate_batch(20)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(8)
        .map(|q| q.graph)
        .collect();
    (queries, data)
}

#[test]
fn zero_node_query_in_batch_is_harmless() {
    // Regression: a zero-node query used to panic in plan construction.
    // It must instead contribute zero matches and leave the run Complete.
    let (mut queries, data) = workload();
    let baseline = Engine::new(EngineConfig::default()).run(&queries, &data, &queue());
    queries.insert(0, LabeledGraph::new());
    let report = Engine::new(EngineConfig::default()).run(&queries, &data, &queue());
    assert_eq!(report.completion, Completion::Complete);
    assert_eq!(report.total_matches, baseline.total_matches);
    assert!(
        report.matched_pair_list.iter().all(|&(_, q)| q != 0),
        "the empty query must never match"
    );
}

#[test]
fn all_queries_empty_is_harmless() {
    let (_, data) = workload();
    let queries = vec![LabeledGraph::new(), LabeledGraph::new()];
    let report = Engine::new(EngineConfig::default()).run(&queries, &data, &queue());
    assert_eq!(report.completion, Completion::Complete);
    assert_eq!(report.total_matches, 0);
}

#[test]
fn unlimited_governor_is_bit_identical_to_plain_run() {
    let (queries, data) = workload();
    let plain = Engine::new(EngineConfig::default()).run(&queries, &data, &queue());
    let governed = Engine::new(EngineConfig::default()).run_with_governor(
        &queries,
        &data,
        &queue(),
        &Governor::unlimited(),
    );
    assert_eq!(governed.completion, Completion::Complete);
    assert_eq!(governed.total_matches, plain.total_matches);
    assert_eq!(governed.matched_pairs, plain.matched_pairs);
    assert_eq!(governed.matched_pair_list, plain.matched_pair_list);
    assert!(plain.total_matches > 0, "workload is vacuous");
}

#[test]
fn wildcard_clique_under_deadline_truncates_with_partials() {
    // An asymmetric 8-node wildcard query against a uniform K16: 16·15·…·9
    // ≈ 5.2e8 embeddings. (A wildcard K8 would not do: its 8! symmetries
    // leave the join only the 12,870 increasing 8-subsets to find.)
    // Unbudgeted this runs for ages; the deadline must end it promptly
    // with a nonzero sound partial count.
    let queries = [asymmetric_wildcard_octet()];
    let data = [clique(16, 1, 1)];
    let budget = RunBudget::none().with_deadline(Duration::from_millis(150));
    let started = Instant::now();
    let report = Engine::new(EngineConfig::default()).run_with_governor(
        &queries,
        &data,
        &queue(),
        &Governor::new(&budget),
    );
    let elapsed = started.elapsed();
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::Deadline)
    );
    assert!(
        report.total_matches > 0,
        "deadline fired before any embedding was found"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "truncation was not prompt: {elapsed:?}"
    );
}

#[test]
fn embedding_cap_truncates_the_clique() {
    let queries = [clique(6, WILDCARD_LABEL, WILDCARD_EDGE)];
    let data = [clique(14, 1, 1)];
    let budget = RunBudget::none().with_embedding_cap(1_000);
    let report = Engine::new(EngineConfig::default()).run_with_governor(
        &queries,
        &data,
        &queue(),
        &Governor::new(&budget),
    );
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::EmbeddingCap)
    );
    assert!(
        report.total_matches >= 1_000,
        "cap fired before reaching it"
    );
    // 14·13·12·11·10·9 ≈ 2.2e6 total — the cap must have stopped well short.
    assert!(report.total_matches < 2_000_000);
}

#[test]
fn pre_cancelled_token_stops_the_run_immediately() {
    let queries = [clique(8, WILDCARD_LABEL, WILDCARD_EDGE)];
    let data = [clique(16, 1, 1)];
    let token = CancelToken::new();
    token.cancel();
    let started = Instant::now();
    let report = Engine::new(EngineConfig::default()).run_with_governor(
        &queries,
        &data,
        &queue(),
        &Governor::with_cancel(&RunBudget::none(), token),
    );
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::Cancelled)
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancellation was not prompt"
    );
}

#[test]
fn stream_bisection_quarantines_the_poisoned_molecule() {
    // Six cheap path molecules and one uniform K12 clique. Under a join
    // step budget the clique's chunk truncates; bisection must isolate it,
    // quarantine it with its partial count, and keep every healthy
    // molecule's complete results.
    let queries = [path(3, WILDCARD_LABEL, WILDCARD_EDGE)];
    let poison_index = 3usize;
    let mut stream: Vec<LabeledGraph> = (0..7).map(|_| path(4, 1, 1)).collect();
    stream[poison_index] = clique(12, 1, 1);

    let runner = StreamRunner::new(EngineConfig::default(), u64::MAX)
        .with_max_chunk(4)
        .with_budget(RunBudget::none().with_step_budget(400));
    let report = runner.run(&queries, stream, &queue());

    assert_eq!(report.molecules, 7);
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::StepBudget)
    );
    assert_eq!(report.quarantined.len(), 1, "exactly one molecule is toxic");
    assert_eq!(report.quarantined[0].index, poison_index);
    assert_eq!(report.quarantined[0].reason, TruncationReason::StepBudget);
    assert!(
        report.retried_chunks > 0,
        "isolating the molecule requires at least one bisection retry"
    );
    // Every healthy molecule matched the 3-path query completely: a 4-path
    // holds two 3-subpaths, each matched in both directions.
    for i in (0..7).filter(|&i| i != poison_index) {
        assert!(
            report.matched_pair_list.contains(&(i, 0)),
            "healthy molecule {i} lost its matches to the poisoned chunk"
        );
    }
    assert!(
        report.quarantined[0].partial_matches > 0,
        "the clique finds embeddings long before a 400-step budget trips"
    );
}

#[test]
fn mid_stream_cancellation_keeps_partials_and_stops() {
    // Cancel before the stream starts: no chunk may run to completion
    // afterwards, and the report must say Cancelled rather than panic or
    // silently drop the truncation.
    let queries = [path(3, WILDCARD_LABEL, WILDCARD_EDGE)];
    let stream: Vec<LabeledGraph> = (0..8).map(|_| path(4, 1, 1)).collect();
    let runner = StreamRunner::new(EngineConfig::default(), u64::MAX).with_max_chunk(2);
    runner.cancel_token().cancel();
    let report = runner.run(&queries, stream, &queue());
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::Cancelled)
    );
    assert_eq!(report.molecules, 0);
}
