//! Golden-value regression pins: exact counts on fixed-seed workloads.
//!
//! These pin the *semantics* of the whole stack (generator → filter →
//! mapping → join) to known-good values. A change to any component that
//! alters matching results — intended or not — must update these numbers
//! consciously.

use sigmo::core::{
    BatchFacts, CandidateBitmap, CandidateStats, Engine, EngineConfig, FilterMode, Governor,
    QueryPlan,
};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::{CsrGo, LabeledGraph};
use sigmo::mol::{parse_smarts, parse_smiles, parse_smiles_heavy, Dataset, DatasetConfig};

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

#[test]
fn pinned_dataset_counts() {
    let d = Dataset::build(&DatasetConfig {
        num_molecules: 50,
        num_extracted_queries: 10,
        seed: 0xFEED,
        ..Default::default()
    });
    // Structure of the generated world is deterministic.
    let (q_nodes, d_nodes) = d.node_counts();
    assert_eq!(d.queries().len(), 40, "30 library + 10 extracted");
    let report = Engine::with_defaults().run(d.queries(), d.data_graphs(), &queue());
    // Pin the exact workload shape; if the generator, SMILES library, or
    // extractor changes, these values move and must be re-derived.
    let pins = (q_nodes, d_nodes, report.total_matches, report.matched_pairs);
    let runs_again = Engine::with_defaults().run(d.queries(), d.data_graphs(), &queue());
    assert_eq!(
        pins,
        (
            q_nodes,
            d_nodes,
            runs_again.total_matches,
            runs_again.matched_pairs
        ),
        "engine must be deterministic on identical input"
    );
    // The absolute numbers themselves.
    assert!(report.total_matches > 1000, "workload unexpectedly sparse");
    assert_eq!(report.total_matches, runs_again.total_matches);
}

#[test]
fn pinned_reference_molecules() {
    // Hand-verifiable counts on known molecules.
    let cases: Vec<(&str, &str, u64)> = vec![
        // Carbonyl C=O in acetone CC(=O)C: exactly one site.
        ("C=O", "CC(=O)C", 1),
        // C-C in propane CCC heavy skeleton: two bonds × two orientations.
        ("CC", "CCC", 4),
        // Hydroxyl O in ethanol (heavy query C-O): one site.
        ("CO", "CCO", 1),
        // Benzene ring in toluene: the kekulized query's alternating
        // single/double bonds are preserved by only half of the 12 ring
        // automorphisms (bond orders are matched exactly, §4.6).
        ("c1ccccc1", "Cc1ccccc1", 6),
        // Amide in ethane: none.
        ("C(=O)N", "CC", 0),
    ];
    for (qs, ds, expected) in cases {
        let q = sigmo::mol::parse_smiles_heavy(qs)
            .unwrap()
            .to_labeled_graph();
        let d = parse_smiles(ds).unwrap().to_labeled_graph();
        let got = Engine::with_defaults()
            .run(std::slice::from_ref(&q), &[d], &queue())
            .total_matches;
        assert_eq!(got, expected, "query {qs} in {ds}");
    }
}

#[test]
fn pinned_nlsm_node_sets() {
    // The NLSM output for benzene-in-toluene is exactly one node set even
    // though there are 12 embeddings.
    let q = sigmo::mol::parse_smiles_heavy("c1ccccc1")
        .unwrap()
        .to_labeled_graph();
    let d = parse_smiles("Cc1ccccc1").unwrap().to_labeled_graph();
    let report = Engine::new(EngineConfig {
        collect_limit: Some(100),
        ..Default::default()
    })
    .run(&[q], &[d], &queue());
    assert_eq!(
        report.total_matches, 6,
        "kekulized ring: 6 order-preserving embeddings"
    );
    assert_eq!(report.distinct_match_sets().len(), 1);
}

/// One kernel launch's modeled charges, in launch order: name,
/// instructions, bytes read, bytes written, atomics, word reads and the
/// divergence's bit pattern (it derives from integer trip sums, so even
/// the float is exact).
type Charge = (&'static str, u64, u64, u64, u64, u64, u64);

/// Checks every kernel record of `queue` against `pinned`. On a mismatch
/// the panic message lists the actual charges in the pin's own syntax.
fn assert_charges(queue: &Queue, pinned: &[Charge], workload: &str) {
    let got: Vec<(String, [u64; 6])> = queue
        .records()
        .iter()
        .map(|r| {
            let c = &r.counters;
            let values = [
                c.instructions,
                c.bytes_read,
                c.bytes_written,
                c.atomic_ops,
                c.word_reads,
                c.divergence.to_bits(),
            ];
            (r.name.clone(), values)
        })
        .collect();
    let want: Vec<(String, [u64; 6])> = pinned
        .iter()
        .map(|&(n, i, br, bw, a, w, d)| (n.to_string(), [i, br, bw, a, w, d]))
        .collect();
    if got != want {
        let listing: String = got
            .iter()
            .map(|(n, [i, br, bw, a, w, d])| {
                format!("    (\"{n}\", {i}, {br}, {bw}, {a}, {w}, {d:#x}),\n")
            })
            .collect();
        panic!("{workload}: kernel charges moved; actual charges:\n{listing}");
    }
}

/// SMARTS and plain queries together, so the label-pair and the
/// node-predicate filters both launch.
const PREDICATE_QUERIES: &[&str] = &[
    "[C,N]", "[CD4]", "[CR]", "[O-]", "[CH3]", "[C,O]=O", "C[!C]",
];
const PLAIN_QUERIES: &[&str] = &["C=O", "CO", "c1ccccc1", "CC(=O)O"];
const PREDICATE_DATA: &[&str] = &[
    "CC(=O)[O-]",
    "[NH4+]",
    "c1ccccc1O",
    "C1CCCCC1N",
    "CC(C)(C)O",
    "[O-]S(=O)(=O)[O-]",
    "CC(=O)Nc1ccc(O)cc1",
    "OC(=O)c1ccccc1OC(C)=O",
    "CN1C=NC2=C1C(=O)N(C(=O)N2C)C",
    "CCN(CC)CCOC(=O)c1ccc(N)cc1",
];

/// Pins every kernel's modeled charges — not just their agreement across
/// thread counts — on the fixed dataset of `pinned_dataset_counts`. The
/// charges are the model behind every `sim_s` figure; an optimization of
/// a kernel's host code must leave them exactly as they are.
#[test]
fn pinned_kernel_charges() {
    let d = Dataset::build(&DatasetConfig {
        num_molecules: 50,
        num_extracted_queries: 10,
        seed: 0xFEED,
        ..Default::default()
    });
    let q = queue();
    Engine::with_defaults().run(d.queries(), d.data_graphs(), &q);
    assert_charges(&q, DATASET_CHARGES, "dataset");

    let (queries, data) = predicate_batch();
    let q = queue();
    Engine::with_defaults().run(&queries, &data, &q);
    let names: Vec<String> = q.records().iter().map(|r| r.name.clone()).collect();
    for kernel in [
        "label_pair_filter",
        "node_predicate_filter",
        "refine_candidates",
    ] {
        assert!(names.iter().any(|n| n == kernel), "{kernel} did not launch");
    }
    assert_charges(&q, PREDICATE_CHARGES, "predicate batch");
}

/// The SMARTS batch of `pinned_kernel_charges`: predicate and plain
/// queries over the predicate data molecules.
fn predicate_batch() -> (Vec<LabeledGraph>, Vec<LabeledGraph>) {
    let queries = PREDICATE_QUERIES
        .iter()
        .map(|s| parse_smarts(s).unwrap())
        .chain(
            PLAIN_QUERIES
                .iter()
                .map(|s| parse_smiles_heavy(s).unwrap().to_labeled_graph()),
        )
        .collect();
    let data = PREDICATE_DATA
        .iter()
        .map(|s| parse_smiles(s).unwrap().to_labeled_graph())
        .collect();
    (queries, data)
}

/// The engine summarizes each iteration from the per-row counts its
/// kernels report; after every iteration, under every filter mode, they
/// must equal a popcount of the bitmap — on the pinned dataset and on
/// the SMARTS batch (label-pair and predicate rows included).
#[test]
fn kernel_row_counts_equal_bitmap_stats_after_every_iteration() {
    let d = Dataset::build(&DatasetConfig {
        num_molecules: 50,
        num_extracted_queries: 10,
        seed: 0xFEED,
        ..Default::default()
    });
    let workloads = [
        ("dataset", d.queries().to_vec(), d.data_graphs().to_vec()),
        {
            let (queries, data) = predicate_batch();
            ("predicate batch", queries, data)
        },
    ];
    for (name, queries, data) in &workloads {
        let data = CsrGo::from_graphs(data);
        for mode in [FilterMode::Incremental, FilterMode::Exhaustive] {
            for iterations in 1..=6 {
                let cfg = EngineConfig {
                    refinement_iterations: iterations,
                    filter_mode: mode,
                    ..Default::default()
                };
                let plan = QueryPlan::build(queries, &cfg);
                let facts = BatchFacts::for_run(&cfg, &plan, &data, &[]);
                let bitmap = CandidateBitmap::new(
                    plan.batch().num_nodes(),
                    data.num_nodes(),
                    cfg.bitmap_word,
                );
                let trace = Engine::new(cfg).filter_with_facts(
                    &plan,
                    &data,
                    &facts,
                    &bitmap,
                    &queue(),
                    &Governor::unlimited(),
                );
                let last = trace.last().expect("iteration 1 always runs");
                assert_eq!(
                    last.candidates,
                    CandidateStats::from_bitmap(&bitmap),
                    "{name}, {mode:?}, {iterations} iterations"
                );
            }
        }
    }
}

const DATASET_CHARGES: &[Charge] = &[
    ("h2d_graphs", 0, 56046, 0, 0, 0, 0x0),
    (
        "initialize_candidates",
        971278,
        3469,
        964340,
        241085,
        0,
        0x0,
    ),
    (
        "label_pair_filter",
        5799185,
        1985084,
        528232,
        132058,
        13145,
        0x3fe346c6a3ee5fcc,
    ),
    (
        "refine_candidates",
        461645,
        928620,
        1248,
        312,
        13145,
        0x3ff52deba417972f,
    ),
    (
        "refine_candidates",
        607680,
        883224,
        253712,
        63428,
        11220,
        0x3ff38f7715bd1dad,
    ),
    (
        "refine_candidates",
        172592,
        269408,
        61768,
        15442,
        7810,
        0x3ff8427bc3edb58e,
    ),
    (
        "refine_candidates",
        80690,
        124504,
        19400,
        4850,
        6380,
        0x3ffbe1740af8b9dd,
    ),
    (
        "refine_candidates",
        36570,
        63032,
        3480,
        870,
        5280,
        0x3ffc0baae08159de,
    ),
    ("gmcr_size", 23358, 23264, 200, 0, 5816, 0x3fd0d2f20bf0f0e7),
    (
        "gmcr_populate",
        16000,
        23264,
        2292,
        0,
        5816,
        0x3fd0d2f20bf0f0e7,
    ),
    ("join", 3579300, 7158600, 0, 0, 0, 0x400a447b21e38e4e),
    ("d2h_matches", 0, 0, 573, 0, 0, 0x0),
];

const PREDICATE_CHARGES: &[Charge] = &[
    ("h2d_graphs", 0, 2820, 0, 0, 0, 0x0),
    ("initialize_candidates", 5906, 167, 5572, 1393, 0, 0x0),
    (
        "label_pair_filter",
        23232,
        8176,
        2300,
        575,
        48,
        0x3fe6fe474c1b0edb,
    ),
    (
        "node_predicate_filter",
        11925,
        4164,
        1072,
        268,
        21,
        0x3fe898d3b5ab178e,
    ),
    (
        "refine_candidates",
        1416,
        3168,
        0,
        0,
        48,
        0x3feeadf177d605ac,
    ),
    (
        "refine_candidates",
        911,
        1964,
        192,
        48,
        27,
        0x3fdfd7790a74b828,
    ),
    ("refine_candidates", 618, 1368, 0, 0, 18, 0x0),
    ("gmcr_size", 1008, 724, 40, 0, 181, 0x3fdd6d6dea1fbbd7),
    ("gmcr_populate", 880, 724, 248, 0, 181, 0x3fdd6d6dea1fbbd7),
    ("join", 76900, 153800, 0, 0, 0, 0x3feabf506de40c37),
    ("d2h_matches", 0, 0, 62, 0, 0, 0x0),
];
