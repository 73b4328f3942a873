//! Extension analysis: Figure 5's persistent outliers.
//!
//! The paper attributes the candidate-count outliers that survive deep
//! refinement to "query patterns that correspond to frequent molecular
//! substructures". This binary tests that claim directly: it correlates
//! each query node's post-refinement candidate count with the measured
//! frequency of its query pattern in the corpus (matched molecules /
//! corpus size).
//!
//! The candidates are the ones the engine's own filter leaves after 8
//! refinement iterations — label init, the label-pair pre-check, node
//! predicates and signature refinement to convergence — since those are
//! the candidates the join has to search, and so the outliers that cost
//! time. Signature refinement alone, without the label-pair and
//! predicate stages, reads ρ = 0.387 on the quick dataset (EXPERIMENTS.md,
//! "outlier provenance").

use sigmo_bench::BenchScale;
use sigmo_core::{
    BatchFacts, CandidateBitmap, Engine, EngineConfig, Governor, MatchMode, QueryPlan, WordWidth,
};
use sigmo_device::{DeviceProfile, Queue};

fn main() {
    let scale = BenchScale::from_env();
    let d = scale.dataset(0x5167);
    let queue = Queue::new(DeviceProfile::host());

    // Pattern frequency: fraction of molecules each query matches.
    let freq_report = Engine::new(EngineConfig {
        mode: MatchMode::FindFirst,
        ..Default::default()
    })
    .run(d.queries(), d.data_graphs(), &queue);
    let mut hit_count = vec![0usize; d.queries().len()];
    for &(_, qg) in &freq_report.matched_pair_list {
        hit_count[qg] += 1;
    }

    // Candidate counts after the engine's whole filter at 8 refinement
    // iterations, per query graph (mean row count over the graph's nodes).
    let cfg = EngineConfig::with_iterations(8);
    let plan = QueryPlan::build(d.queries(), &cfg);
    let qb = plan.batch();
    let db = d.data_batch();
    let facts = BatchFacts::for_run(&cfg, &plan, &db, &[]);
    let bitmap = CandidateBitmap::new(qb.num_nodes(), db.num_nodes(), WordWidth::U64);
    Engine::new(cfg).filter_with_facts(&plan, &db, &facts, &bitmap, &queue, &Governor::unlimited());
    let mut rows: Vec<(usize, f64, f64)> = (0..qb.num_graphs())
        .map(|qg| {
            let range = qb.node_range(qg);
            let mean_cands = range
                .clone()
                .map(|v| bitmap.row_count(v as usize))
                .sum::<usize>() as f64
                / qb.graph_len(qg) as f64;
            let freq = hit_count[qg] as f64 / d.data_graphs().len() as f64;
            (qg, freq, mean_cands)
        })
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));

    println!("# Extension — Figure 5 outlier analysis ({scale:?} scale, 8 refinement iterations)");
    println!(
        "{:<22} {:>12} {:>20}",
        "query", "frequency %", "mean candidates/node"
    );
    for &(qg, freq, cands) in rows.iter().take(8) {
        println!(
            "{:<22} {:>12.1} {:>20.1}",
            d.query_names()[qg],
            freq * 100.0,
            cands
        );
    }
    println!("...");
    let tail: Vec<(usize, f64, f64)> = rows.iter().rev().take(3).rev().copied().collect();
    for (qg, freq, cands) in tail {
        println!(
            "{:<22} {:>12.1} {:>20.1}",
            d.query_names()[qg],
            freq * 100.0,
            cands
        );
    }

    // Spearman-style check: rank correlation between frequency and
    // surviving candidates must be strongly positive (the paper's claim).
    let n = rows.len() as f64;
    let mut by_freq: Vec<usize> = (0..rows.len()).collect();
    by_freq.sort_by(|&a, &b| rows[a].1.total_cmp(&rows[b].1));
    let mut freq_rank = vec![0.0; rows.len()];
    for (r, &i) in by_freq.iter().enumerate() {
        freq_rank[i] = r as f64;
    }
    // rows already sorted by candidates desc -> candidate rank = position.
    let cand_rank: Vec<f64> = (0..rows.len())
        .map(|r| (rows.len() - 1 - r) as f64)
        .collect();
    let d2: f64 = freq_rank
        .iter()
        .zip(&cand_rank)
        .map(|(a, b)| (a - b).powi(2))
        .sum();
    let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    println!("\nSpearman rank correlation (pattern frequency vs surviving candidates): {rho:.3}");
    assert!(
        rho > 0.4,
        "the paper's outlier explanation requires a positive correlation, got {rho}"
    );
    println!("=> outliers are frequent substructures, as §5.1.1 claims");
}
