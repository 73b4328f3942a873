//! Differential regression for the word-parallel filter/join hot paths.
//!
//! The optimized kernels — label-bucketed init, the fused pass's
//! class-major delta refinement, word-level candidate enumeration — must be *bit-identical*
//! to the per-bit reference implementations in `sigmo::core::naive` at
//! every pipeline stage, and must produce identical match sets through
//! the join, on seeded random batches.

use rand::{Rng, SeedableRng};
use sigmo::core::filter::{
    filter_pass, initialize_candidates, initialize_candidates_bucketed, Stage,
};
use sigmo::core::join::{join, JoinParams, QueryPlan};
use sigmo::core::{
    naive, BatchFacts, CancelToken, CandidateBitmap, EngineConfig, Gmcr, Governor, LabelBuckets,
    LabelSchema, MatchMode, RunBudget, SignatureSet, TruncationReason, WordWidth,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{random_sparse_graph, CsrGo, LabeledGraph, WILDCARD_LABEL};

fn world(seed: u64) -> (CsrGo, CsrGo) {
    let queries: Vec<LabeledGraph> = (0..8)
        .map(|i| random_sparse_graph(4 + (i % 3) as usize, 2, 5, seed * 100 + i))
        .collect();
    let data: Vec<LabeledGraph> = (0..20)
        .map(|i| random_sparse_graph(25 + (i % 7) as usize, 8, 5, seed * 1000 + 50 + i))
        .collect();
    (CsrGo::from_graphs(&queries), CsrGo::from_graphs(&data))
}

fn assert_bitmaps_identical(fast: &CandidateBitmap, slow: &CandidateBitmap, stage: &str) {
    assert_eq!(fast.rows(), slow.rows());
    assert_eq!(fast.cols(), slow.cols());
    for r in 0..fast.rows() {
        for c in 0..fast.cols() {
            assert_eq!(
                fast.get(r, c),
                slow.get(r, c),
                "bit ({r}, {c}) diverged at stage {stage}"
            );
        }
    }
}

/// The engine's refinement steps for `queries` × `data` up to `radii`:
/// the plan's dirty rows and the data signatures at each radius.
struct Refiner {
    cfg: EngineConfig,
    plan: sigmo::core::QueryPlan,
    facts: BatchFacts,
}

impl Refiner {
    fn new(queries: &CsrGo, data: &CsrGo, radii: usize) -> Self {
        let cfg = EngineConfig::with_iterations(radii + 1);
        let plan = sigmo::core::QueryPlan::from_batch(queries.clone(), &cfg);
        let facts = BatchFacts::compute(data, &cfg.schema, radii, false);
        Refiner { cfg, plan, facts }
    }

    /// Refines `bitmap` at `radius` with the filter pass's refine stage,
    /// as the engine does; returns the bits cleared.
    fn refine(&self, queue: &Queue, bitmap: &CandidateBitmap, radius: usize) -> u64 {
        let stage = Stage::Refine {
            delta: self.plan.delta_at(radius),
            data: self.facts.signatures_at(radius),
            all_tops: self.cfg.schema.top_bits(u64::MAX),
        };
        filter_pass(queue, &[stage], bitmap, &Governor::unlimited()).cleared(0)
    }
}

/// Runs the optimized kernels and the naive reference side by side and
/// checks the bitmaps stay bit-identical through init and every
/// refinement iteration.
#[test]
fn filter_pipeline_is_bit_identical_to_naive() {
    for seed in [3u64, 17, 99] {
        let (queries, data) = world(seed);
        let queue = Queue::new(DeviceProfile::host());
        let schema = LabelSchema::organic();

        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);

        initialize_candidates(&queue, &queries, &data, &fast, 64);
        naive::initialize_candidates(&queries, &data, &slow);
        assert_bitmaps_identical(&fast, &slow, &format!("init (seed {seed})"));

        let refiner = Refiner::new(&queries, &data, 4);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        let mut prev_total = fast.total_count();
        for iter in 0..4 {
            qs.advance(&queries);
            ds.advance(&data);
            let fast_cleared = refiner.refine(&queue, &fast, iter + 1);
            let slow_cleared =
                naive::refine_candidates(&queries, &qs, &ds, &slow, data.num_nodes());
            assert_eq!(
                fast_cleared, slow_cleared,
                "cleared-bit count diverged at iteration {iter} (seed {seed})"
            );
            assert_bitmaps_identical(
                &fast,
                &slow,
                &format!("refine iteration {iter} (seed {seed})"),
            );
            // Monotone shrinkage must survive the optimization.
            let total = fast.total_count();
            assert!(total <= prev_total, "candidates grew at iteration {iter}");
            prev_total = total;
        }
    }
}

/// Word-level enumeration agrees with the per-bit scan on every row of a
/// refined bitmap, over full rows, per-graph node ranges, and awkward
/// unaligned sub-ranges.
#[test]
fn enumeration_is_identical_to_naive() {
    let (queries, data) = world(7);
    let queue = Queue::new(DeviceProfile::host());
    let bm = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    initialize_candidates(&queue, &queries, &data, &bm, 64);
    Refiner::new(&queries, &data, 1).refine(&queue, &bm, 1);

    let nd = data.num_nodes();
    for r in 0..bm.rows() {
        let fast: Vec<usize> = bm.iter_set_in_range(r, 0, nd).collect();
        assert_eq!(fast, naive::enumerate_row(&bm, r, 0, nd), "row {r} full");
        for dg in 0..data.num_graphs() {
            let range = data.node_range(dg);
            let (lo, hi) = (range.start as usize, range.end as usize);
            let fast: Vec<usize> = bm.iter_set_in_range(r, lo, hi).collect();
            assert_eq!(
                fast,
                naive::enumerate_row(&bm, r, lo, hi),
                "row {r} graph {dg}"
            );
            assert_eq!(
                bm.next_set_in_range(r, lo, hi),
                naive::next_set_in_range(&bm, r, lo, hi),
                "row {r} graph {dg} first-set"
            );
        }
        // Unaligned sub-ranges straddling word boundaries.
        for (lo, hi) in [(1usize, 63usize), (63, 65), (60, nd.min(130)), (nd / 2, nd)] {
            if lo >= hi || hi > nd {
                continue;
            }
            let fast: Vec<usize> = bm.iter_set_in_range(r, lo, hi).collect();
            assert_eq!(
                fast,
                naive::enumerate_row(&bm, r, lo, hi),
                "row {r} [{lo},{hi})"
            );
        }
    }
}

/// End to end: the join over a word-parallel-filtered bitmap finds
/// exactly the same matches as over the naive-filtered bitmap.
#[test]
fn match_sets_are_identical_to_naive() {
    for seed in [5u64, 42] {
        // Small low-label-diversity queries so the random data actually
        // contains embeddings; the point here is match-set equality.
        let query_graphs: Vec<LabeledGraph> = (0..6)
            .map(|i| random_sparse_graph(2 + (i % 2) as usize, 0, 3, seed * 100 + i))
            .collect();
        let data_graphs: Vec<LabeledGraph> = (0..20)
            .map(|i| random_sparse_graph(25 + (i % 7) as usize, 8, 3, seed * 1000 + 50 + i))
            .collect();
        let queries = CsrGo::from_graphs(&query_graphs);
        let data = CsrGo::from_graphs(&data_graphs);
        let queue = Queue::new(DeviceProfile::host());
        let schema = LabelSchema::organic();

        let run = |bitmap: &CandidateBitmap| {
            let gmcr = Gmcr::build(&queue, &queries, &data, bitmap, 64);
            let plans: Vec<QueryPlan> = (0..queries.num_graphs())
                .map(|qg| QueryPlan::build(&queries, qg, false))
                .collect();
            let params = JoinParams {
                mode: MatchMode::FindAll,
                work_group_size: 64,
                induced: false,
                collect_limit: Some(100_000),
                ..Default::default()
            };
            let outcome = join(&queue, &queries, &data, bitmap, &gmcr, &plans, &params);
            let mut recs: Vec<(usize, usize, Vec<u32>)> = outcome
                .records
                .iter()
                .map(|r| (r.data_graph, r.query_graph, r.mapping.clone()))
                .collect();
            recs.sort();
            (outcome.total_matches, outcome.matched_pairs, recs)
        };

        let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        initialize_candidates(&queue, &queries, &data, &fast, 64);
        naive::initialize_candidates(&queries, &data, &slow);
        let refiner = Refiner::new(&queries, &data, 3);
        let mut qs = SignatureSet::new(&queries, schema.clone());
        let mut ds = SignatureSet::new(&data, schema.clone());
        for radius in 1..=3 {
            qs.advance(&queries);
            ds.advance(&data);
            refiner.refine(&queue, &fast, radius);
            naive::refine_candidates(&queries, &qs, &ds, &slow, data.num_nodes());
        }

        let (fast_total, fast_pairs, fast_recs) = run(&fast);
        let (slow_total, slow_pairs, slow_recs) = run(&slow);
        assert_eq!(
            fast_total, slow_total,
            "total matches diverged (seed {seed})"
        );
        assert_eq!(
            fast_pairs, slow_pairs,
            "matched pairs diverged (seed {seed})"
        );
        assert_eq!(fast_recs, slow_recs, "embeddings diverged (seed {seed})");
        assert!(fast_total > 0, "workload must actually produce matches");
    }
}

/// A labels-only world for the init kernel (init reads no edges): six
/// labels plus wildcard atoms on both sides, so wildcard query rows and
/// wildcard-labeled data nodes both occur. Data graphs of 5–40 nodes put
/// graph seams anywhere inside the bitmap words.
fn label_world(seed: u64, data_graphs: usize) -> (CsrGo, CsrGo) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut graph = |n: usize| {
        let labels: Vec<u8> = (0..n)
            .map(|_| match rng.gen_range(0..12u32) {
                0 => WILDCARD_LABEL,
                _ => rng.gen_range(0..6u8),
            })
            .collect();
        LabeledGraph::from_edges(&labels, &[]).unwrap()
    };
    let queries: Vec<LabeledGraph> = (0..8).map(|i| graph(3 + i % 5)).collect();
    let data: Vec<LabeledGraph> = (0..data_graphs).map(|i| graph(5 + (i * 7) % 36)).collect();
    (CsrGo::from_graphs(&queries), CsrGo::from_graphs(&data))
}

/// The word-wide init kernel sets exactly the naive kernel's bits at
/// every work-group size — including sizes whose groups share their
/// boundary words — and charges one set per bit, as the per-bit form
/// did: `atomics` = set bits, `instructions` = 4 × sets + 2 × nodes.
#[test]
fn word_wide_init_is_bit_identical_to_naive_at_every_group_size() {
    for seed in [1u64, 2, 3] {
        let (queries, data) = label_world(seed, 40);
        let has_wildcard =
            |g: &CsrGo| (0..g.num_nodes()).any(|v| g.label(v as u32) == WILDCARD_LABEL);
        assert!(has_wildcard(&queries) && has_wildcard(&data), "seed {seed}");
        let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        naive::initialize_candidates(&queries, &data, &slow);
        let bits = slow.total_count() as u64;
        for wg in [1usize, 37, 64, 100, 1024] {
            let queue = Queue::new(DeviceProfile::host());
            let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            initialize_candidates(&queue, &queries, &data, &fast, wg);
            assert_bitmaps_identical(&fast, &slow, &format!("init (seed {seed}, wg {wg})"));
            let charged = queue.records()[0].counters;
            assert_eq!(charged.atomic_ops, bits, "seed {seed}, wg {wg}");
            assert_eq!(
                charged.instructions,
                4 * bits + 2 * data.num_nodes() as u64,
                "seed {seed}, wg {wg}"
            );
        }
    }
}

/// A stopped governor only removes init work: whether it was stopped
/// before the launch or trips while the launch runs, every bit set is
/// also set by the full init.
#[test]
fn stopped_init_sets_a_subset_of_the_full_init() {
    let (queries, data) = label_world(11, 400);
    let queue = Queue::new(DeviceProfile::host());
    let full = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    initialize_candidates(&queue, &queries, &data, &full, 64);
    let assert_subset = |part: &CandidateBitmap, what: &str| {
        for r in 0..part.rows() {
            for c in part.iter_set_in_range(r, 0, part.cols()) {
                assert!(
                    full.get(r, c),
                    "{what}: bit ({r}, {c}) is not in the full init"
                );
            }
        }
    };

    let token = CancelToken::new();
    token.cancel();
    let stopped = Governor::with_cancel(&RunBudget::none(), token);
    let part = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
    let buckets = LabelBuckets::build(&queries);
    initialize_candidates_bucketed(&queue, &buckets, &data, &part, 64, &stopped);
    assert_subset(&part, "pre-stopped");
    assert_eq!(part.total_count(), 0, "a pre-stopped init sets nothing");

    for wg in [1usize, 37, 64] {
        let gov = Governor::new(&RunBudget::none());
        let part = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                gov.trip(TruncationReason::Cancelled);
            });
            start.wait();
            initialize_candidates_bucketed(&queue, &buckets, &data, &part, wg, &gov);
        });
        assert!(gov.stopped());
        assert_subset(&part, &format!("tripped mid-run (wg {wg})"));
    }
}
