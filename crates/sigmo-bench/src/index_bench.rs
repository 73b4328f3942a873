//! Corpus-scale screening benchmark shared by `ext_index` (which emits
//! `BENCH_index.json`) and `bench_diff` (which gates regressions against
//! the committed copy).
//!
//! The scenario is the standing-corpus workload the persistent index
//! exists for: a large molecule corpus digested once, then a rare-pattern
//! query screened against it. Each corpus tier plants [`PLANTED`]
//! molecules carrying an I–I–I chain — a motif the drug-like generator
//! cannot produce (iodine is monovalent, so no generated molecule has an
//! I–I bond) — and queries for exactly that chain. The surviving set is
//! therefore fixed at the planted molecules while the corpus grows, which
//! is the regime where screening pays: the indexed path (posting-list
//! candidates → digest check → engine on survivors) is compared against
//! the index-off oracle (engine over the whole corpus).
//!
//! In-run asserts:
//!
//! * soundness/exactness — the indexed path's match total equals the
//!   index-off total at every tier, and every planted molecule survives;
//! * payoff — at the largest tier the indexed path is ≥ 5× faster than
//!   the index-off engine run;
//! * sublinearity — screening wall grows far slower than the corpus: the
//!   largest tier (16× the molecules) may cost at most 8× the smallest
//!   tier's screen, plus timer slack.
//!
//! Wall times are the minimum over [`REPS`] fresh runs; counts and match
//! totals are deterministic and gated exactly by `bench_diff`.

use crate::BenchScale;
use sigmo_core::{Engine, EngineConfig, QueryPlan};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use sigmo_index::{IndexConfig, MoleculeIndex, ScreenQuery};
use sigmo_mol::MoleculeGenerator;
use std::time::Instant;

/// Fresh runs per tier; wall times take the minimum.
pub const REPS: usize = 3;

/// Planted pattern carriers per tier — the fixed surviving-set size.
pub const PLANTED: usize = 40;

/// Digest radius the index is built at.
pub const RADIUS: usize = 4;

/// Corpus sizes per scale. The largest Quick tier is 16× the smallest so
/// the sublinearity assert has headroom to mean something.
pub fn tiers(scale: BenchScale) -> Vec<usize> {
    match scale {
        BenchScale::Quick => vec![1000, 4000, 16000],
        // The paper's corpus is 114,901 molecules (§5.1); the largest
        // Paper tier reproduces it exactly.
        BenchScale::Paper => vec![8000, 32000, 114_901],
    }
}

/// The edge label planted chains and the query use (single bond).
const SINGLE_BOND: u8 = 1;

/// Iodine's node label.
const IODINE: u8 = 9;

/// The planted motif and the query: a 3-node I–I–I chain.
fn iodine_chain() -> LabeledGraph {
    let mut g = LabeledGraph::new();
    let a = g.add_node(IODINE);
    let b = g.add_node(IODINE);
    let c = g.add_node(IODINE);
    g.add_edge(a, b, SINGLE_BOND).expect("chain edge");
    g.add_edge(b, c, SINGLE_BOND).expect("chain edge");
    g
}

/// Appends an I–I–I chain to `g`, hung off node 0 so the molecule stays
/// connected.
fn plant_chain(g: &mut LabeledGraph) {
    let a = g.add_node(IODINE);
    let b = g.add_node(IODINE);
    let c = g.add_node(IODINE);
    g.add_edge(0, a, SINGLE_BOND).expect("planted edge");
    g.add_edge(a, b, SINGLE_BOND).expect("planted edge");
    g.add_edge(b, c, SINGLE_BOND).expect("planted edge");
}

/// Builds one corpus tier: `size` generated molecules, [`PLANTED`] of
/// them (evenly spread) carrying the chain.
pub fn build_corpus(size: usize) -> Vec<LabeledGraph> {
    let mut gen = MoleculeGenerator::with_seed(0x51d7);
    let mut mols: Vec<LabeledGraph> = gen
        .generate_batch(size)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let stride = size / PLANTED;
    for k in 0..PLANTED {
        plant_chain(&mut mols[k * stride]);
    }
    mols
}

/// One corpus tier's measurement.
#[derive(Debug, Clone, Copy)]
pub struct IndexTierResult {
    /// Corpus size (molecules).
    pub corpus: usize,
    /// Molecules surviving the corpus screen.
    pub survivors: usize,
    /// Match total — identical between the indexed and index-off paths.
    pub total_matches: u64,
    /// Best-of-[`REPS`] wall seconds to digest the whole corpus.
    pub build_wall_s: f64,
    /// Best-of wall seconds for the corpus screen alone.
    pub screen_wall_s: f64,
    /// Best-of wall seconds for the full indexed path (screen + engine
    /// on the survivors).
    pub indexed_wall_s: f64,
    /// Best-of wall seconds for the index-off engine over the corpus.
    pub off_wall_s: f64,
}

/// Aggregate screening-bench result.
#[derive(Debug)]
pub struct IndexBenchResult {
    /// The scale the tiers were built at.
    pub scale: BenchScale,
    /// Planted carriers per tier.
    pub planted: usize,
    /// Per-tier measurements, smallest corpus first.
    pub tiers: Vec<IndexTierResult>,
    /// `off_wall / indexed_wall` at the largest tier.
    pub speedup_largest: f64,
}

fn engine_matches(query: &LabeledGraph, mols: &[LabeledGraph], queue: &Queue) -> u64 {
    Engine::new(EngineConfig::default())
        .run(std::slice::from_ref(query), mols, queue)
        .total_matches
}

/// Runs the full tiered screening bench.
pub fn run_index_bench(scale: BenchScale) -> IndexBenchResult {
    let query = iodine_chain();
    let config = EngineConfig::default();
    let plan = QueryPlan::build(std::slice::from_ref(&query), &config);
    let screen_query = ScreenQuery::from_plan(&plan, RADIUS);
    let queue = Queue::new(DeviceProfile::host());
    let mut results: Vec<IndexTierResult> = Vec::new();

    for size in tiers(scale) {
        let mols = build_corpus(size);

        // Ingest: digest the whole corpus once per rep.
        let mut build_wall = f64::INFINITY;
        let mut index = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let mut ix = MoleculeIndex::new(IndexConfig { radius: RADIUS }, &config.schema);
            for (id, mol) in mols.iter().enumerate() {
                ix.add(id as u32, mol);
            }
            build_wall = build_wall.min(start.elapsed().as_secs_f64());
            index = Some(ix);
        }
        let index = index.expect("at least one rep");

        // Indexed path: corpus screen, then the engine on survivors.
        let mut screen_wall = f64::INFINITY;
        let mut indexed_wall = f64::INFINITY;
        let mut survivors: Option<Vec<u32>> = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let surviving = index.screen_corpus(&screen_query);
            screen_wall = screen_wall.min(start.elapsed().as_secs_f64());
            let surviving_mols: Vec<LabeledGraph> = surviving
                .iter()
                .map(|&id| mols[id as usize].clone())
                .collect();
            let on_matches = engine_matches(&query, &surviving_mols, &queue);
            indexed_wall = indexed_wall.min(start.elapsed().as_secs_f64());
            if let Some(prev) = &survivors {
                assert_eq!(prev, &surviving, "nondeterministic screen");
            }
            let stride = size / PLANTED;
            for k in 0..PLANTED {
                assert!(
                    surviving.contains(&((k * stride) as u32)),
                    "planted molecule {k} was falsely rejected at corpus {size}"
                );
            }
            survivors = Some(surviving);
            // Stash the indexed-path total on the tier via the off-path
            // comparison below (totals must agree rep to rep too).
            assert!(on_matches > 0, "planted pattern found no matches");
        }
        let survivors = survivors.expect("at least one rep");
        let surviving_mols: Vec<LabeledGraph> = survivors
            .iter()
            .map(|&id| mols[id as usize].clone())
            .collect();
        let on_matches = engine_matches(&query, &surviving_mols, &queue);

        // Index-off oracle: the engine over the whole corpus.
        let mut off_wall = f64::INFINITY;
        let mut off_matches = 0u64;
        for _ in 0..REPS {
            let start = Instant::now();
            off_matches = engine_matches(&query, &mols, &queue);
            off_wall = off_wall.min(start.elapsed().as_secs_f64());
        }
        assert_eq!(
            on_matches, off_matches,
            "indexed and index-off totals diverged at corpus {size} — screening is unsound"
        );

        results.push(IndexTierResult {
            corpus: size,
            survivors: survivors.len(),
            total_matches: off_matches,
            build_wall_s: build_wall,
            screen_wall_s: screen_wall,
            indexed_wall_s: indexed_wall,
            off_wall_s: off_wall,
        });
    }

    let smallest = results.first().expect("at least one tier");
    let largest = results.last().expect("at least one tier");
    let speedup = largest.off_wall_s / largest.indexed_wall_s.max(1e-9);
    assert!(
        speedup >= 5.0,
        "indexed path must be ≥5× the index-off engine at the largest corpus \
         (got {speedup:.1}× — off {:.4}s vs indexed {:.4}s)",
        largest.off_wall_s,
        largest.indexed_wall_s
    );
    assert!(
        largest.screen_wall_s <= smallest.screen_wall_s * 8.0 + 0.005,
        "screening wall must grow sublinearly with the corpus \
         ({:.6}s at {} molecules vs {:.6}s at {})",
        largest.screen_wall_s,
        largest.corpus,
        smallest.screen_wall_s,
        smallest.corpus
    );

    IndexBenchResult {
        scale,
        planted: PLANTED,
        tiers: results,
        speedup_largest: speedup,
    }
}

/// Renders the flat JSON `BENCH_index.json` holds. Keys are unique at the
/// top level so `bench_diff`'s scanning parser can read them back.
pub fn render_json(r: &IndexBenchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", r.scale));
    out.push_str(&format!("  \"planted\": {},\n", r.planted));
    out.push_str(&format!("  \"radius\": {RADIUS},\n"));
    for t in &r.tiers {
        let n = t.corpus;
        out.push_str(&format!("  \"survivors_{n}\": {},\n", t.survivors));
        out.push_str(&format!("  \"total_matches_{n}\": {},\n", t.total_matches));
        out.push_str(&format!("  \"wall_build_{n}_s\": {:.6},\n", t.build_wall_s));
        out.push_str(&format!(
            "  \"wall_screen_{n}_s\": {:.6},\n",
            t.screen_wall_s
        ));
        out.push_str(&format!(
            "  \"wall_indexed_{n}_s\": {:.6},\n",
            t.indexed_wall_s
        ));
        out.push_str(&format!("  \"wall_off_{n}_s\": {:.6},\n", t.off_wall_s));
    }
    out.push_str(&format!(
        "  \"speedup_largest\": {:.3}\n",
        r.speedup_largest
    ));
    out.push_str("}\n");
    out
}
