//! Differential pin for SMARTS predicate queries: the word-parallel
//! engine path must be *bit-identical* to the per-bit naive oracle at the
//! predicate-filter stage, and the full engine must agree exactly with the
//! predicate-aware brute-force matcher on match totals — under rayon
//! thread counts 1, 4 and 8.
//!
//! Kept alone in this file: it mutates `RAYON_NUM_THREADS`, and each
//! integration-test file runs as its own process, so the env var cannot
//! race another test. The two tests share [`ENV_LOCK`] because the default
//! harness runs them on separate threads.

use std::sync::Mutex;

use sigmo::baselines::{BruteForceMatcher, Matcher};
use sigmo::core::{
    filter, naive, BatchFacts, CandidateBitmap, Engine, EngineConfig, Governor, LabelSchema,
    WordWidth,
};
use sigmo::device::{DeviceProfile, KernelRecord, Queue};
use sigmo::graph::{CsrGo, LabeledGraph, NodePredicate};
use sigmo::mol::{parse_smarts, parse_smiles, MoleculeGenerator};

static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Seeded generated molecules plus hand-picked charged/aromatic SMILES so
/// every predicate field (label set, degree, H count, ring, charge) has
/// both satisfying and violating data nodes.
fn corpus(seed: u64) -> Vec<LabeledGraph> {
    let mut gen = MoleculeGenerator::with_seed(seed);
    let mut mols: Vec<LabeledGraph> = gen
        .generate_batch(18)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    for smi in [
        "CC(=O)[O-]",        // acetate: charged O next to uncharged O
        "[NH4+]",            // ammonium: charge + 4 H neighbors
        "c1ccccc1O",         // phenol: aromatic ring + exocyclic O
        "C1CCCCC1N",         // cyclohexylamine: saturated ring + exocyclic N
        "CC(C)(C)O",         // tert-butanol: a D4 carbon
        "[O-]S(=O)(=O)[O-]", // sulfate dianion
    ] {
        mols.push(
            parse_smiles(smi)
                .unwrap_or_else(|e| panic!("corpus SMILES {smi:?}: {e}"))
                .to_labeled_graph(),
        );
    }
    mols
}

/// The SMARTS predicate panel: every supported primitive class appears at
/// least once, including multi-atom patterns whose predicates must
/// compose with the join.
const SMARTS_PANEL: &[&str] = &[
    "[C,N]",          // atom list
    "[!C]",           // negated element
    "[CD4]",          // explicit degree
    "[CR]",           // ring membership
    "[R0]",           // acyclic wildcard
    "[CH3]",          // H-neighbor count
    "[O-]",           // negative charge
    "[N+]",           // positive charge
    "[C;R]",          // high-precedence AND
    "[cr6]",          // aromatic carbon in a 6-ring
    "C[!C]",          // predicate composed with a plain neighbor
    "[C,O]=O",        // atom list with a double bond
    "[CR]1[CR][CR]1", // all-predicate ring pattern
];

fn panel() -> Vec<LabeledGraph> {
    SMARTS_PANEL
        .iter()
        .map(|s| parse_smarts(s).unwrap_or_else(|e| panic!("panel SMARTS {s:?}: {e}")))
        .collect()
}

/// Everything a kernel record claims, minus wall-clock time.
type RecordKey = (String, String, usize, usize, u64, u64, u64, u64, u64);

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
            )
        })
        .collect()
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

/// Word-parallel init → label-pair pre-check → predicate filter, against
/// the per-bit naive forms of all three stages, under each thread count.
#[test]
fn predicate_filter_stage_is_bit_identical_to_naive() {
    let _guard = ENV_LOCK.lock().unwrap();
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        for seed in [11u64, 47] {
            let queries = CsrGo::from_graphs(&panel());
            let data = CsrGo::from_graphs(&corpus(seed));
            let queue = Queue::new(DeviceProfile::host());
            let schema = filter::pair_schema();
            let governor = Governor::unlimited();

            let fast = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);
            let slow = CandidateBitmap::new(queries.num_nodes(), data.num_nodes(), WordWidth::U64);

            filter::initialize_candidates(&queue, &queries, &data, &fast, 64);
            naive::initialize_candidates(&queries, &data, &slow);
            assert_bitmaps_identical(&fast, &slow, &format!("init (seed {seed})"));

            // The kernels read the production facts; the naive forms
            // recompute everything per bit.
            let organic = LabelSchema::organic();
            let query_facts = BatchFacts::compute(&queries, &organic, 0, false);
            let data_facts = BatchFacts::compute(&data, &organic, 0, true);
            let pair_rows = filter::pair_rows(query_facts.pairs(), &schema);
            let fast_pair = filter::label_pair_filter(
                &queue,
                data_facts.pairs(),
                &schema,
                &pair_rows,
                &fast,
                &governor,
            );
            let slow_pair = naive::label_pair_filter(&queries, &data, &schema, &slow);
            assert_eq!(fast_pair, slow_pair, "pair-filter cleared (seed {seed})");
            assert_bitmaps_identical(&fast, &slow, &format!("pair filter (seed {seed})"));

            let pred_rows: Vec<(u32, NodePredicate)> = queries
                .predicates()
                .iter()
                .filter(|(_, p)| !p.is_trivial())
                .map(|(v, p)| (*v, p.clone()))
                .collect();
            assert!(
                !pred_rows.is_empty(),
                "the SMARTS panel must compile to real predicate rows"
            );
            let attrs = data_facts.attrs().expect("built with attributes");
            let fast_pred =
                filter::node_predicate_filter(&queue, attrs, &pred_rows, &fast, &governor);
            let slow_pred = naive::node_predicate_filter(&queries, &data, &slow);
            assert_eq!(fast_pred, slow_pred, "predicate cleared (seed {seed})");
            assert!(
                fast_pred > 0,
                "predicate filter must actually clear bits (seed {seed})"
            );
            assert_bitmaps_identical(&fast, &slow, &format!("predicate filter (seed {seed})"));
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

/// Full engine over the SMARTS panel against the predicate-aware
/// brute-force oracle: totals must agree exactly, and the engine's kernel
/// records (launch geometry, counter totals) must be bit-identical across
/// thread counts.
#[test]
fn engine_matches_predicate_oracle_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let queries = panel();
    let data = corpus(23);
    let expected: u64 = queries
        .iter()
        .map(|q| {
            data.iter()
                .map(|d| BruteForceMatcher.count_embeddings(q, d))
                .sum::<u64>()
        })
        .sum();
    assert!(expected > 0, "panel must produce matches on the corpus");

    let mut runs: Vec<(u64, Vec<RecordKey>)> = Vec::new();
    for threads in ["1", "4", "8"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let queue = Queue::new(DeviceProfile::host());
        let report = Engine::new(EngineConfig::with_iterations(3)).run(&queries, &data, &queue);
        assert_eq!(
            report.total_matches, expected,
            "engine diverged from the predicate oracle at {threads} threads"
        );
        runs.push((report.total_matches, record_keys(&queue.records())));
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    let (first, rest) = runs.split_first().unwrap();
    for (i, run) in rest.iter().enumerate() {
        assert_eq!(
            first,
            run,
            "kernel records diverged between thread counts 1 and {}",
            ["4", "8"][i]
        );
    }
}
