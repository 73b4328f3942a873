//! Pins the query-plan reuse contract: a streamed run builds its
//! [`sigmo::core::QueryPlan`] exactly once, no matter how many chunks the
//! memory budget splits the stream into.
//!
//! Kept alone in this file: `plan_build_count()` is a process-global
//! counter, and the default test harness runs the tests of one file in one
//! process — any engine run elsewhere in the same process would skew the
//! deltas. Within the file, each test measures a delta around its own
//! calls, so test-order interleaving is still safe.

use sigmo::core::plan::plan_build_count;
use sigmo::core::{Engine, EngineConfig, QueryPlan, StreamRunner};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::LabeledGraph;
use sigmo::mol::{functional_groups, MoleculeGenerator};
use std::sync::Mutex;

/// Serializes the tests of this file around the process-global counter.
static COUNT_LOCK: Mutex<()> = Mutex::new(());

fn world() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(8)
        .map(|q| q.graph)
        .collect();
    let data: Vec<LabeledGraph> = MoleculeGenerator::with_seed(404)
        .generate_batch(48)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    (queries, data)
}

#[test]
fn stream_builds_exactly_one_plan_across_many_chunks() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    let queue = Queue::new(DeviceProfile::host());
    // A tight molecule cap forces many chunks.
    let runner = StreamRunner::new(EngineConfig::default(), u64::MAX).with_max_chunk(5);
    let before = plan_build_count();
    let report = runner.run(&queries, data.iter().cloned(), &queue);
    let after = plan_build_count();
    assert!(report.chunks >= 8, "cap must split the stream into chunks");
    assert_eq!(
        after - before,
        1,
        "a streamed run must build its query plan exactly once, not per chunk"
    );
    assert!(report.total_matches > 0, "workload must produce matches");
}

#[test]
fn planned_runs_share_one_plan_where_inline_runs_rebuild() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, data) = world();
    let queue = Queue::new(DeviceProfile::host());
    let engine = Engine::new(EngineConfig::default());

    // Inline runs build one plan each...
    let before = plan_build_count();
    let a = engine.run(&queries, &data[..24], &queue);
    let b = engine.run(&queries, &data[24..], &queue);
    assert_eq!(plan_build_count() - before, 2);

    // ...explicitly planned runs share one.
    let before = plan_build_count();
    let plan = QueryPlan::build(&queries, engine.config());
    let qa = Queue::new(DeviceProfile::host());
    let pa = engine.run_planned(&plan, &sigmo::graph::CsrGo::from_graphs(&data[..24]), &qa);
    let pb = engine.run_planned(&plan, &sigmo::graph::CsrGo::from_graphs(&data[24..]), &qa);
    assert_eq!(plan_build_count() - before, 1);

    // Same results either way.
    assert_eq!(pa.total_matches, a.total_matches);
    assert_eq!(pb.total_matches, b.total_matches);
}

#[test]
fn plan_memoizes_classes_once_queries_converge() {
    let _guard = COUNT_LOCK.lock().unwrap();
    let (queries, _) = world();
    // Functional groups are tiny: at 8 iterations the query signatures
    // converge well before radius 7, so every later radius is clean.
    let before = plan_build_count();
    let plan = QueryPlan::build(&queries, &EngineConfig::with_iterations(8));
    assert_eq!(plan_build_count() - before, 1);
    assert_eq!(plan.max_radius(), 7);
    let last = plan.last_dirty_radius();
    assert!(
        last >= 1 && last < plan.max_radius(),
        "query signatures never converged: last dirty radius {last} of {}",
        plan.max_radius()
    );
    assert!(!plan.delta_at(last).is_empty());
    // Converged radii carry no dirty rows and the exact same signatures.
    for r in last + 1..=plan.max_radius() {
        assert!(plan.delta_at(r).is_empty(), "radius {r} is clean");
        assert_eq!(plan.signatures_at(r), plan.signatures_at(last));
    }
}
