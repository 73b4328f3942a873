//! Determinism smoke test for the device queue's two dispatch paths.
//!
//! The counter model is only trustworthy if it is a pure function of the
//! workload: `parallel_for` and `parallel_for_work_group` fan work-groups
//! out over threads, and every charge is a wrapping add into the worker's
//! own counters, which the queue sums at the end of the launch — an
//! associative, commutative accumulation whose totals must not depend on
//! how the scheduler interleaves groups. These tests run the full
//! pipeline under rayon thread counts 1, 2, 3, 4 and 8 (odd counts split
//! work-group ranges at boundaries the power-of-two runs never see) and
//! require bit-identical kernel records (names, launch geometry, counter
//! totals, divergence — wall clock excluded).
//!
//! Kept alone in this file: it mutates `RAYON_NUM_THREADS`, and each
//! integration-test file runs as its own process, so the env var cannot
//! race another test.

use sigmo::cluster::FaultPlan;
use sigmo::core::filter::initialize_candidates;
use sigmo::core::{
    naive, BatchFacts, CandidateBitmap, Completion, Engine, EngineConfig, Governor, JoinStrategy,
    QueryPlan, RunBudget, RunReport, StrategyCounts, TruncationReason, WordWidth,
};
use sigmo::device::{DeviceProfile, KernelRecord, Queue};
use sigmo::graph::{CsrGo, LabeledGraph, WILDCARD_LABEL};
use sigmo::mol::{functional_groups, parse_smarts, MoleculeGenerator};
use sigmo::serve::{
    generate_workload, run_soak, served_outcome, IndexConfig, OracleOutcome, RejectReason,
    ServeConfig, Server, ShardConfig, TimedRequest, WorkloadConfig,
};
use std::sync::Mutex;

/// Serializes the tests of this file: both mutate `RAYON_NUM_THREADS`,
/// and the default test harness runs them on separate threads.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Everything a kernel record claims, minus wall-clock time. Divergence is
/// compared by bit pattern: it derives from integer trip sums, so even the
/// float must agree exactly.
type RecordKey = (String, String, usize, usize, u64, u64, u64, u64, u64, u64);

fn record_keys(records: &[KernelRecord]) -> Vec<RecordKey> {
    records
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.phase.clone(),
                r.global_size,
                r.work_group_size,
                r.counters.instructions,
                r.counters.bytes_read,
                r.counters.bytes_written,
                r.counters.atomic_ops,
                r.counters.word_reads,
                r.counters.divergence.to_bits(),
            )
        })
        .collect()
}

fn workload() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let mut gen = MoleculeGenerator::with_seed(97);
    let data: Vec<LabeledGraph> = gen
        .generate_batch(30)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(10)
        .map(|q| q.graph)
        .collect();
    (queries, data)
}

fn run_pipeline(threads: &str) -> (u64, Vec<RecordKey>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let (queries, data) = workload();
    let queue = Queue::new(DeviceProfile::host());
    let report = Engine::new(EngineConfig::with_iterations(4)).run(&queries, &data, &queue);
    (report.total_matches, record_keys(&queue.records()))
}

fn run_pipeline_adaptive(threads: &str) -> (u64, StrategyCounts, Vec<RecordKey>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let (queries, data) = workload();
    let queue = Queue::new(DeviceProfile::host());
    let report = Engine::new(EngineConfig {
        refinement_iterations: 4,
        join_strategy: JoinStrategy::Adaptive,
        ..Default::default()
    })
    .run(&queries, &data, &queue);
    (
        report.total_matches,
        report.strategy,
        record_keys(&queue.records()),
    )
}

fn run_pipeline_budgeted(threads: &str, steps: u64) -> (u64, Completion, Vec<RecordKey>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let (queries, data) = workload();
    let queue = Queue::new(DeviceProfile::host());
    let gov = Governor::new(&RunBudget::none().with_step_budget(steps));
    let report = Engine::new(EngineConfig::with_iterations(4))
        .run_with_governor(&queries, &data, &queue, &gov);
    (
        report.total_matches,
        report.completion,
        record_keys(&queue.records()),
    )
}

/// Thread counts the cheap tests sweep. 2 and 3 matter beyond the
/// power-of-two pool sizes: an odd, non-power-of-two worker count splits
/// the work-group range at different boundaries and steals in different
/// patterns, so order bugs that 1/4/8 happen to mask surface here.
const THREADS: [&str; 5] = ["1", "2", "3", "4", "8"];

/// The word-wide init kernel, whose work-groups share boundary words at
/// sizes that are not multiples of 64, sets exactly the naive kernel's
/// bits at every worker count and work-group size, wildcard rows included.
#[test]
fn word_wide_init_is_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (mut queries, data) = workload();
    queries.push(LabeledGraph::from_edges(&[WILDCARD_LABEL, 1], &[(0, 1)]).unwrap());
    let (queries, data) = (CsrGo::from_graphs(&queries), CsrGo::from_graphs(&data));
    let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    naive::initialize_candidates(&queries, &data, &slow);
    for threads in ["1", "2", "4"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for wg in [1usize, 37, 64, 100, 1024] {
            let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            initialize_candidates(
                &Queue::new(DeviceProfile::host()),
                &queries,
                &data,
                &fast,
                wg,
            );
            for r in 0..fast.rows() {
                for c in 0..fast.cols() {
                    assert_eq!(
                        fast.get(r, c),
                        slow.get(r, c),
                        "bit ({r}, {c}) at {threads} threads, wg {wg}"
                    );
                }
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Rows of one verdict class share one verdict slot per launch, which the
/// work-item of the class's first row fills and uses to clear every row of
/// the class, including rows that fall in other work-groups. On a batch
/// where every query appears three times, so most label-pair, predicate
/// and dirty refine rows share a class with rows in other work-groups,
/// every thread count must give the same bits, the same per-iteration
/// trace and the same records — every counter, the launch geometry and
/// the cancellation fields — run after run.
#[test]
fn shared_class_verdicts_are_identical_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (library, data) = workload();
    let mut queries = Vec::new();
    for _ in 0..3 {
        queries.extend(library.iter().cloned());
        queries.push(parse_smarts("[C;R][O,N;D2]").unwrap());
    }
    let data = CsrGo::from_graphs(&data);
    let cfg = EngineConfig::default();
    let plan = QueryPlan::build(&queries, &cfg);
    // Rows whose class spans more than one work-group of the launch's
    // four rows: rows another group's work-item clears.
    let spanning = |classes: &[u32]| {
        (0..classes.len())
            .filter(|&i| {
                let c = classes[i];
                classes
                    .iter()
                    .enumerate()
                    .any(|(j, &d)| d == c && j / 4 != i / 4)
            })
            .count()
    };
    let pair: Vec<u32> = plan.pair_rows().iter().map(|r| r.class).collect();
    assert!(
        spanning(&pair) * 2 >= pair.len(),
        "most label-pair rows must share a class across work-groups ({} of {})",
        spanning(&pair),
        pair.len()
    );
    let pred: Vec<u32> = plan.pred_rows().iter().map(|r| r.class).collect();
    assert!(pred
        .iter()
        .all(|c| pred.iter().filter(|&d| d == c).count() == 3));
    assert!(spanning(&pred) > 0);
    assert!((1..=plan.max_radius()).any(|r| {
        let dirty: Vec<u32> = plan.delta_at(r).rows().iter().map(|d| d.class).collect();
        spanning(&dirty) > 0
    }));
    let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
    let run = |threads: &str| {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let queue = Queue::new(DeviceProfile::host());
        let bitmap =
            CandidateBitmap::new(plan.batch().num_nodes(), data.num_nodes(), cfg.bitmap_word);
        let trace = Engine::new(cfg.clone()).filter_with_facts(
            &plan,
            &data,
            &facts,
            &bitmap,
            &queue,
            &Governor::unlimited(),
        );
        let bits: Vec<Vec<usize>> = (0..bitmap.rows())
            .map(|r| bitmap.iter_set_in_range(r, 0, bitmap.cols()).collect())
            .collect();
        let trace: Vec<String> = trace.iter().map(|it| format!("{it:?}")).collect();
        let records = queue.records();
        let dispatch: Vec<(bool, usize)> = records
            .iter()
            .map(|r| (r.cancelled, r.skipped_groups))
            .collect();
        (bits, trace, record_keys(&records), dispatch)
    };
    let one = run("1");
    assert!(one.1.len() > 1, "refinement must run");
    for threads in ["2", "4", "8", "2", "4", "8"] {
        let n = run(threads);
        assert_eq!(one.0, n.0, "bits diverged between 1 and {threads} threads");
        assert_eq!(one.1, n.1, "trace diverged between 1 and {threads} threads");
        assert_eq!(
            one.2, n.2,
            "records diverged between 1 and {threads} threads"
        );
        assert_eq!(
            one.3, n.3,
            "dispatch diverged between 1 and {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn counter_totals_are_identical_across_thread_counts() {
    // The delta-driven filter is the risky part: per-graph alive snapshots
    // and dirty-row scheduling must not let the thread interleaving leak
    // into which work is skipped.
    let _guard = ENV_LOCK.lock().unwrap();
    let (matches_1, records_1) = run_pipeline(THREADS[0]);
    assert!(
        matches_1 > 0,
        "workload produced no matches — test is vacuous"
    );
    assert!(!records_1.is_empty(), "no kernel records collected");
    for threads in &THREADS[1..] {
        let (matches_n, records_n) = run_pipeline(threads);
        assert_eq!(
            matches_1, matches_n,
            "totals diverged between 1 and {threads} threads"
        );
        assert_eq!(records_1.len(), records_n.len());
        for (i, (a, b)) in records_1.iter().zip(&records_n).enumerate() {
            assert_eq!(a, b, "record {i} diverged between 1 and {threads} threads");
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn adaptive_strategy_is_identical_across_thread_counts() {
    // The adaptive join reads per-pair bitmap statistics and picks a
    // variant and order per pair — all integer arithmetic over counts that
    // are themselves thread-count-independent, so the decisions, the
    // per-pair tallies, and every kernel counter (including the
    // `join_adaptive` kernel's gather charges) must be bit-identical
    // whether work-groups run serially or eight-wide. Totals must also
    // agree with the fixed default: strategy changes exploration order,
    // never the answer.
    let _guard = ENV_LOCK.lock().unwrap();
    let (fixed, _) = run_pipeline("1");
    let (m1, s1, r1) = run_pipeline_adaptive(THREADS[0]);
    assert_eq!(m1, fixed, "adaptive changed the match total");
    assert!(s1.total_pairs() > 0, "no pairs reached the join — vacuous");
    assert!(
        r1.iter().any(|k| k.0 == "join_adaptive"),
        "adaptive run must launch the join_adaptive kernel"
    );
    for threads in &THREADS[1..] {
        let (mn, sn, rn) = run_pipeline_adaptive(threads);
        assert_eq!(m1, mn, "totals diverged between 1 and {threads} threads");
        assert_eq!(
            s1, sn,
            "decision tallies diverged between 1 and {threads} threads"
        );
        assert_eq!(
            r1, rn,
            "kernel records diverged between 1 and {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn step_budget_truncation_is_identical_across_thread_counts() {
    // The join-step budget is enforced on ticker-local counters and never
    // latches the global stop flag, so a truncated run's partial totals —
    // and the per-kernel counter records — must be bit-identical whether
    // work-groups run serially or eight-wide. A budget small enough to
    // truncate (but nonzero) exercises the trip path in many groups.
    let _guard = ENV_LOCK.lock().unwrap();
    let (full, _) = run_pipeline("1");
    let (m1, c1, r1) = run_pipeline_budgeted(THREADS[0], 40);
    assert_eq!(c1, Completion::Truncated(TruncationReason::StepBudget));
    assert!(
        m1 < full,
        "a 40-step budget must truncate this workload (got {m1} of {full})"
    );
    for threads in &THREADS[1..] {
        let (mn, cn, rn) = run_pipeline_budgeted(threads, 40);
        assert_eq!(c1, cn);
        assert_eq!(
            m1, mn,
            "partial totals diverged between 1 and {threads} threads"
        );
        assert_eq!(
            r1, rn,
            "kernel records diverged between 1 and {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Symmetric queries (a ring, a hydrogen star, tert-butyl, a wildcard
/// triangle) and a twin of one of them, over hydrogen-rich molecules.
fn symmetric_workload() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let mut gen = MoleculeGenerator::with_seed(41);
    let data: Vec<LabeledGraph> = gen
        .generate_batch(24)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let mut star = LabeledGraph::new();
    let c = star.add_node(1);
    for _ in 0..3 {
        let h = star.add_node(0);
        star.add_edge(c, h, 1).unwrap();
    }
    let mut queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .filter(|q| ["benzene", "tert-butyl", "isopropyl"].contains(&q.name))
        .map(|q| q.graph)
        .collect();
    queries.push(star.clone());
    queries.push(parse_smarts("[CR]1[CR][CR]1").unwrap());
    queries.push(star);
    (queries, data)
}

fn run_symmetric_budgeted(threads: &str, steps: Option<u64>) -> (RunReport, Vec<RecordKey>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let (queries, data) = symmetric_workload();
    let queue = Queue::new(DeviceProfile::host());
    let budget = match steps {
        Some(s) => RunBudget::none().with_step_budget(s),
        None => RunBudget::none(),
    };
    let report = Engine::new(EngineConfig::with_iterations(4)).run_with_governor(
        &queries,
        &data,
        &queue,
        &Governor::new(&budget),
    );
    (report, record_keys(&queue.records()))
}

#[test]
fn symmetric_step_budget_truncation_is_identical_across_thread_counts() {
    // Representatives count as their whole class, and a twin copies its
    // original's pair: a truncated run's partial totals, per-pair counts
    // and kernel records must still be a pure function of each group's
    // own workload, and every pair count a multiple of its class size.
    let _guard = ENV_LOCK.lock().unwrap();
    let (full, _) = run_symmetric_budgeted("1", None);
    let (queries, _) = symmetric_workload();
    let sizes: Vec<u64> = QueryPlan::build(&queries, &EngineConfig::with_iterations(4))
        .join_plans()
        .iter()
        .map(|p| p.symmetry().order())
        .collect();
    assert!(
        sizes.iter().all(|&s| s > 1),
        "every query is symmetric: {sizes:?}"
    );
    let (r1, k1) = run_symmetric_budgeted(THREADS[0], Some(30));
    assert_eq!(
        r1.completion,
        Completion::Truncated(TruncationReason::StepBudget)
    );
    assert!(
        r1.total_matches < full.total_matches && r1.total_matches > 0,
        "a 30-step budget must truncate this workload (got {} of {})",
        r1.total_matches,
        full.total_matches
    );
    for &(_, qg, n) in &r1.pair_counts {
        assert_eq!(
            n % sizes[qg],
            0,
            "query {qg}: {n} is no whole number of classes"
        );
    }
    for threads in ["4", "8"] {
        let (rn, kn) = run_symmetric_budgeted(threads, Some(30));
        assert_eq!(r1.completion, rn.completion);
        assert_eq!(r1.total_matches, rn.total_matches, "{threads} threads");
        assert_eq!(r1.pair_counts, rn.pair_counts, "{threads} threads");
        assert_eq!(
            r1.truncated_graphs, rn.truncated_graphs,
            "{threads} threads"
        );
        assert_eq!(k1, kn, "kernel records diverged at {threads} threads");
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

fn run_pipeline_depth(threads: &str, iterations: usize) -> (u64, Vec<RecordKey>) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let (queries, data) = workload();
    let queue = Queue::new(DeviceProfile::host());
    let report =
        Engine::new(EngineConfig::with_iterations(iterations)).run(&queries, &data, &queue);
    (report.total_matches, record_keys(&queue.records()))
}

#[test]
fn every_filter_mode_is_deterministic_across_thread_counts() {
    // The filter's one remaining knob is its refinement depth. At every
    // depth — no refinement, a mid depth, and one past the query side's
    // convergence where the delta schedule stops early — the kernel
    // records (launch geometry + counter totals) must be a pure function
    // of the workload, and depth must never change the match total.
    let _guard = ENV_LOCK.lock().unwrap();
    let mut totals = Vec::new();
    for iterations in [1, 4, 8] {
        let (m1, r1) = run_pipeline_depth("1", iterations);
        let (m4, r4) = run_pipeline_depth("4", iterations);
        let (m8, r8) = run_pipeline_depth("8", iterations);
        assert_eq!(
            m1, m4,
            "depth {iterations}: totals diverged between 1 and 4 threads"
        );
        assert_eq!(
            m1, m8,
            "depth {iterations}: totals diverged between 1 and 8 threads"
        );
        assert_eq!(
            r1, r4,
            "depth {iterations}: records diverged between 1 and 4 threads"
        );
        assert_eq!(
            r1, r8,
            "depth {iterations}: records diverged between 1 and 8 threads"
        );
        totals.push(m1);
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    assert!(
        totals[0] > 0,
        "workload produced no matches — test is vacuous"
    );
    assert!(
        totals.iter().all(|&t| t == totals[0]),
        "refinement depth changed the match total: {totals:?}"
    );
}

/// One serve-soak run's full observable surface: per-request outcomes
/// with completion ticks and statuses, the rejected set, and the final
/// virtual-clock tick.
type SoakTrace = (
    Vec<(usize, u64, Completion, OracleOutcome)>,
    Vec<(usize, RejectReason)>,
    u64,
);

fn run_serve_soak(threads: &str) -> SoakTrace {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let trace = generate_workload(&WorkloadConfig {
        requests: 60,
        seed: 0xbead,
        mol_pool: 24,
        query_sets: 3,
        queries_per_set: 6,
        max_request_molecules: 6,
        mean_interarrival: 1, // enough pressure to exercise backpressure
        find_first_pct: 25,
        pool_skew: 0,
    });
    let config = ServeConfig {
        queue_capacity: 16,
        max_batch_requests: 8,
        // Tight enough to truncate: governor-truncated requests must be
        // as thread-count-independent as complete ones. (The label-pair
        // pre-check shrinks join workloads, so this sits below the old 60.)
        budget: RunBudget::none().with_step_budget(25),
        ..ServeConfig::default()
    };
    let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
    let soak = run_soak(&mut server, &trace);
    (
        soak.entries
            .iter()
            .map(|e| {
                (
                    e.trace_index,
                    e.completed,
                    e.report.completion,
                    served_outcome(&e.report),
                )
            })
            .collect(),
        soak.rejected,
        soak.final_tick,
    )
}

#[test]
fn serve_soak_is_identical_across_thread_counts() {
    // The serving layer sits on top of the whole pipeline — plan reuse,
    // micro-batching, result caching, stream bisection — and none of it
    // may leak the rayon thread count into per-request results, completion
    // ticks, statuses, or the admission decisions themselves.
    let _guard = ENV_LOCK.lock().unwrap();
    let a = run_serve_soak("1");
    let b = run_serve_soak("4");
    let c = run_serve_soak("8");
    std::env::remove_var("RAYON_NUM_THREADS");

    assert_eq!(a.1, b.1, "rejections diverged between 1 and 4 threads");
    assert_eq!(a.1, c.1, "rejections diverged between 1 and 8 threads");
    assert_eq!(a.2, b.2, "final tick diverged between 1 and 4 threads");
    assert_eq!(a.2, c.2, "final tick diverged between 1 and 8 threads");
    assert_eq!(a.0.len(), b.0.len());
    for (i, (ea, eb)) in a.0.iter().zip(&b.0).enumerate() {
        assert_eq!(ea, eb, "entry {i} diverged between 1 and 4 threads");
    }
    assert_eq!(a.0, c.0, "entries diverged between 1 and 8 threads");

    let truncated =
        a.0.iter()
            .filter(|(_, _, completion, _)| {
                *completion == Completion::Truncated(TruncationReason::StepBudget)
            })
            .count();
    assert!(
        truncated > 0,
        "the step budget must truncate some requests, or the truncated \
         path is untested across thread counts"
    );
    let matched: u64 = a.0.iter().map(|(_, _, _, o)| o.total_matches).sum();
    assert!(matched > 0, "soak produced no matches — test is vacuous");
}

/// A sharded soak under seeded faults and skewed popularity, admitting
/// the whole trace so sharded and unsharded runs serve identical request
/// sets. Returns the same full observable surface as [`run_serve_soak`].
fn run_sharded_soak(threads: &str, sharding: Option<ShardConfig>) -> SoakTrace {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let trace = generate_workload(&WorkloadConfig {
        requests: 48,
        seed: 0xbead,
        mol_pool: 24,
        query_sets: 3,
        queries_per_set: 6,
        max_request_molecules: 6,
        mean_interarrival: 1,
        find_first_pct: 25,
        pool_skew: 2, // hot molecules → hot shards → stealing exercised
    });
    let config = ServeConfig {
        queue_capacity: 4096, // admit everything: entry sets must match
        max_batch_requests: 8,
        budget: RunBudget::none().with_step_budget(25),
        sharding,
        ..ServeConfig::default()
    };
    let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
    let soak = run_soak(&mut server, &trace);
    (
        soak.entries
            .iter()
            .map(|e| {
                (
                    e.trace_index,
                    e.completed,
                    e.report.completion,
                    served_outcome(&e.report),
                )
            })
            .collect(),
        soak.rejected,
        soak.final_tick,
    )
}

/// One crashed rank, one straggler, a 25% transient rate — replicas
/// absorb all of it for any shard count ≥ 2.
fn faulty_sharding(shards: usize) -> ShardConfig {
    let mut fault = FaultPlan::none(shards).with_transient_pct(25);
    fault.crashed.insert(0);
    fault.stragglers.insert(shards - 1, 3.0);
    ShardConfig::new(shards, 2).with_fault(fault)
}

#[test]
fn sharded_soak_is_identical_across_thread_counts_and_shard_counts() {
    // The sharded tier adds routing, replica failover, seeded transient
    // draws, backoff arithmetic, and work-stealing on top of the serving
    // stack — and none of it may leak the rayon thread count into the
    // trace surface (results, completion ticks, final tick). 3 and 5
    // shards exercise different placements, ownership draws, and steal
    // opportunities.
    let _guard = ENV_LOCK.lock().unwrap();
    let mut baseline: Option<SoakTrace> = None;
    for shards in [3usize, 5] {
        let a = run_sharded_soak("1", Some(faulty_sharding(shards)));
        for threads in ["2", "4", "8"] {
            let b = run_sharded_soak(threads, Some(faulty_sharding(shards)));
            assert_eq!(
                a, b,
                "sharded trace diverged between 1 and {threads} threads at {shards} shards"
            );
        }
        // Shard-count-independent *results*: per-request outcomes and
        // statuses must match the unsharded serve of the same trace
        // (clock ticks legitimately differ — routing costs time).
        let unsharded = baseline.get_or_insert_with(|| run_sharded_soak("1", None));
        assert_eq!(a.1, unsharded.1, "rejections must match (both empty)");
        assert_eq!(a.0.len(), unsharded.0.len());
        for ((si, _, sc, so), (ui, _, uc, uo)) in a.0.iter().zip(&unsharded.0) {
            assert_eq!(si, ui);
            assert_eq!(sc, uc, "request {si} status diverged under sharding");
            assert_eq!(so, uo, "request {si} outcome diverged under sharding");
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// The indexed soak surface: the full [`SoakTrace`] plus the screening
/// counters `(screened, pruned)` — counters included so the *screening
/// decisions themselves* must be thread-count-independent.
fn run_indexed_soak(
    threads: &str,
    index: Option<IndexConfig>,
    sharding: Option<ShardConfig>,
) -> (SoakTrace, (u64, u64)) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let trace = generate_workload(&WorkloadConfig {
        requests: 48,
        seed: 0xbead,
        mol_pool: 24,
        query_sets: 3,
        queries_per_set: 6,
        max_request_molecules: 6,
        mean_interarrival: 1,
        find_first_pct: 25,
        pool_skew: 2,
    });
    let config = ServeConfig {
        queue_capacity: 4096,
        max_batch_requests: 8,
        budget: RunBudget::none().with_step_budget(25),
        sharding,
        index,
        ..ServeConfig::default()
    };
    let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
    let soak = run_soak(&mut server, &trace);
    let stats = server.stats();
    (
        (
            soak.entries
                .iter()
                .map(|e| {
                    (
                        e.trace_index,
                        e.completed,
                        e.report.completion,
                        served_outcome(&e.report),
                    )
                })
                .collect(),
            soak.rejected,
            soak.final_tick,
        ),
        (stats.index_screened, stats.index_pruned),
    )
}

#[test]
fn index_screening_is_deterministic_and_invisible_to_soak_transcripts() {
    // Tentpole invariant, pinned from the outside: corpus screening must
    // (a) make bit-identical prune decisions whatever the rayon thread
    // count, and (b) leave the full transcript — per-request outcomes,
    // statuses, completion ticks, rejections, final tick — bit-identical
    // to the index-off run, unsharded and sharded alike. Pruned
    // molecules still occupy their slice positions, so even the virtual
    // clock may not move.
    let _guard = ENV_LOCK.lock().unwrap();
    let on = Some(IndexConfig::default());
    let (trace_1, counters_1) = run_indexed_soak("1", on, None);
    assert!(counters_1.0 > 0, "no molecules screened — test is vacuous");
    for threads in ["2", "4", "8"] {
        let (trace_n, counters_n) = run_indexed_soak(threads, on, None);
        assert_eq!(
            trace_1, trace_n,
            "indexed trace diverged between 1 and {threads} threads"
        );
        assert_eq!(
            counters_1, counters_n,
            "screening counters diverged between 1 and {threads} threads"
        );
    }
    let (trace_off, counters_off) = run_indexed_soak("1", None, None);
    assert_eq!(counters_off, (0, 0), "index-off run must not screen");
    assert_eq!(
        trace_1, trace_off,
        "index-on and index-off transcripts diverged"
    );
    let (sharded_on, _) = run_indexed_soak("1", on, Some(faulty_sharding(3)));
    let (sharded_off, _) = run_indexed_soak("1", None, Some(faulty_sharding(3)));
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(
        sharded_on, sharded_off,
        "index-on and index-off sharded transcripts diverged"
    );
}

/// The generated workload with SMARTS predicate query sets spliced into
/// every other request, so screening sees predicate plans (and their
/// conservatively weakened `ScreenQuery`s) mixed with plain ones.
fn predicate_trace() -> Vec<TimedRequest> {
    let mut trace = generate_workload(&WorkloadConfig {
        requests: 36,
        seed: 0xfeed,
        mol_pool: 24,
        query_sets: 3,
        queries_per_set: 4,
        max_request_molecules: 6,
        mean_interarrival: 1,
        find_first_pct: 25,
        pool_skew: 1,
    });
    let panels: Vec<Vec<LabeledGraph>> = [
        &["[C,N]", "[CR]"][..],
        &["[!C]", "[CD4]"][..],
        &["[F,Cl,Br]"][..],
        &["[O-]", "[CH3]", "[R0]"][..],
    ]
    .iter()
    .map(|set| {
        set.iter()
            .map(|s| parse_smarts(s).expect("panel SMARTS"))
            .collect()
    })
    .collect();
    for (i, t) in trace.iter_mut().enumerate() {
        if i % 2 == 0 {
            t.request.queries = panels[(i / 2) % panels.len()].clone();
        }
    }
    trace
}

fn run_predicate_indexed_soak(
    threads: &str,
    index: Option<IndexConfig>,
) -> (SoakTrace, (u64, u64)) {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    let trace = predicate_trace();
    let config = ServeConfig {
        queue_capacity: 4096,
        max_batch_requests: 8,
        budget: RunBudget::none().with_step_budget(25),
        index,
        ..ServeConfig::default()
    };
    let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
    let soak = run_soak(&mut server, &trace);
    let stats = server.stats();
    (
        (
            soak.entries
                .iter()
                .map(|e| {
                    (
                        e.trace_index,
                        e.completed,
                        e.report.completion,
                        served_outcome(&e.report),
                    )
                })
                .collect(),
            soak.rejected,
            soak.final_tick,
        ),
        (stats.index_screened, stats.index_pruned),
    )
}

#[test]
fn index_screening_stays_invisible_with_predicate_queries() {
    // Acceptance pin for predicate queries in the serving mix: screening
    // may only act on the weakened predicate form, so index-on and
    // index-off transcripts must stay bit-identical, the prune decisions
    // thread-count-independent, and the halogen atom-list set must give
    // the screen something it can actually prune on.
    let _guard = ENV_LOCK.lock().unwrap();
    let on = Some(IndexConfig::default());
    let (trace_1, counters_1) = run_predicate_indexed_soak("1", on);
    assert!(counters_1.0 > 0, "no molecules screened — test is vacuous");
    assert!(
        counters_1.1 > 0,
        "predicate workload never pruned — weakening untested"
    );
    for threads in ["4", "8"] {
        let (trace_n, counters_n) = run_predicate_indexed_soak(threads, on);
        assert_eq!(
            trace_1, trace_n,
            "predicate indexed trace diverged between 1 and {threads} threads"
        );
        assert_eq!(
            counters_1, counters_n,
            "predicate screening counters diverged between 1 and {threads} threads"
        );
    }
    let (trace_off, counters_off) = run_predicate_indexed_soak("1", None);
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(counters_off, (0, 0), "index-off run must not screen");
    assert_eq!(
        trace_1, trace_off,
        "index-on and index-off predicate transcripts diverged"
    );
}

#[test]
fn repeated_runs_at_same_thread_count_agree() {
    let _guard = ENV_LOCK.lock().unwrap();
    let first = run_pipeline("4");
    let second = run_pipeline("4");
    std::env::remove_var("RAYON_NUM_THREADS");
    assert_eq!(first, second);
}
