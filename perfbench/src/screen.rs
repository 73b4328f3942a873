//! `screen`: batch library screening. One `QueryPlan` over the whole
//! query library; the corpus streams through `StreamRunner::run_with_plan`
//! in Find All mode as a sequence of fixed-size screening jobs.

use crate::inputs::{self, Corpus, Query};
use crate::ledger::{self, EngineLedger};
use crate::util::{ratio, Metric};
use crate::{Outcome, Sizes, Tracer};
use sigmo_baselines::{BruteForceMatcher, Matcher, Vf3Matcher};
use sigmo_core::{EngineConfig, MatchMode, QueryPlan, StreamRunner};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::LabeledGraph;
use sigmo_mol::ingest_smi;
use std::time::Instant;

/// Expected `(job-local molecule, query, count)` triples of each job,
/// from the baseline matchers: VF3 for plain queries, the predicate-aware
/// brute force for SMARTS queries.
fn reference(
    graphs: &[LabeledGraph],
    library: &[Query],
    job: usize,
) -> Vec<Vec<(usize, usize, u64)>> {
    graphs
        .chunks(job)
        .map(|slice| {
            let mut pairs = Vec::new();
            for (d, g) in slice.iter().enumerate() {
                for (q, query) in library.iter().enumerate() {
                    let n = if query.graph.has_predicates() {
                        BruteForceMatcher.count_embeddings(&query.graph, g)
                    } else {
                        Vf3Matcher.count_embeddings(&query.graph, g)
                    };
                    if n > 0 {
                        pairs.push((d, q, n));
                    }
                }
            }
            pairs
        })
        .collect()
}

/// The standing state: the corpus lowered from `.smi` and the plan.
fn set_up(corpus: &Corpus, library: &[LabeledGraph]) -> (Vec<LabeledGraph>, QueryPlan) {
    let graphs = ingest_smi(&corpus.smi, false)
        .molecules
        .iter()
        .map(|(_, m)| m.to_labeled_graph())
        .collect();
    (graphs, QueryPlan::build(library, &EngineConfig::default()))
}

pub fn run(seed: u64, sizes: &Sizes, tracer: &mut Option<Tracer>) -> Outcome {
    let corpus = inputs::corpus(seed, 0x5c, sizes.corpus);
    let library = inputs::query_library();
    let library_graphs: Vec<LabeledGraph> = library.iter().map(|q| q.graph.clone()).collect();
    crate::util::log("inputs generated");
    let expected = reference(&corpus.graphs, &library, sizes.job);
    crate::util::log("reference computed");
    let mut out = Outcome::default();

    // Each round screens the standing state built by the last of the
    // `sizes.setups` set-ups just before it, so the set-up samples span
    // the run as the round rates do.
    let set_up_timed = |out: &mut Outcome| {
        let mut standing = None;
        for _ in 0..sizes.setups {
            let t = Instant::now();
            let state = set_up(&corpus, &library_graphs);
            out.setup_s.push(t.elapsed().as_secs_f64());
            standing = Some(state);
        }
        let (graphs, plan) = standing.expect("at least one set-up");
        if graphs != corpus.graphs {
            out.broken("ingested corpus differs from the generated corpus".into());
        }
        (graphs, plan)
    };
    let (mut graphs, mut plan) = set_up_timed(&mut out);
    crate::util::log("set-ups done");
    let runner = StreamRunner::new(EngineConfig::default(), u64::MAX).with_max_chunk(sizes.chunk);
    let queue = Queue::new(DeviceProfile::host());
    let mut chunks = 0usize;
    let cpu0 = crate::util::cpu_ticks();
    for round in 0..sizes.rounds {
        if round > 0 {
            (graphs, plan) = set_up_timed(&mut out);
        }
        let mut busy = 0.0;
        for (j, slice) in graphs.chunks(sizes.job).enumerate() {
            let t = Instant::now();
            let report = runner.run_with_plan(&plan, slice.iter().cloned(), &queue);
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            out.latencies_ms.push(dt * 1e3);
            chunks += report.chunks;
            out.matches += report.total_matches;
            let mut got = report.pair_counts.clone();
            got.sort_unstable();
            out.attempted += 1;
            if got != expected[j] || !report.truncated_graphs.is_empty() {
                out.fail(
                    &format!("round {round} job {j}"),
                    "pair counts differ from the baseline matchers".into(),
                    true,
                );
            }
        }
        out.round_rates.push(graphs.len() as f64 / busy);
        out.molecules += graphs.len();
        queue.clear_records();
    }
    out.cpu = (cpu0, crate::util::cpu_ticks());
    crate::util::log("timed loop done");

    if let Some(tr) = tracer {
        let batches = graphs
            .chunks(sizes.job)
            .flat_map(|s| s.chunks(sizes.chunk))
            .map(|c| (&plan, MatchMode::FindAll, c.to_vec()));
        let ledger: EngineLedger = ledger::engine_ledger(batches);
        out.fingerprint.push_str(&format!(
            "engine={} matches={};",
            ledger.instruction_fingerprint(),
            ledger.total_matches
        ));
        tr.table = ledger.reconciliation_table();
        let t = Instant::now();
        let ingest = ingest_smi(&corpus.smi, false);
        tr.metrics.push(Metric::new(
            "mol.smiles_parse_us",
            t.elapsed().as_secs_f64() * 1e6 / corpus.lines as f64,
            "us",
        ));
        tr.metrics.push(Metric::new(
            "mol.quarantined",
            ingest.quarantined.len() as f64,
            "count",
        ));
        tr.metrics.extend(ledger.metrics(
            ledger::plan_build_ms(&[library_graphs]),
            chunks as f64 / sizes.rounds as f64,
            1.0,
        ));
        tr.metrics.extend(ledger::device_metrics(
            &out,
            ratio(ledger.launches as f64, graphs.len() as f64),
            sizes.workers,
        ));
        // The timed loop runs the same code traced and untraced: every
        // layer call of the ledger happens after it.
        tr.metrics
            .push(Metric::new("harness.trace_overhead_frac", 0.0, "frac"));
    }
    out.fingerprint.push_str(&format!(
        "jobs={} failed={} chunks={chunks} quarantined={} matches={}",
        out.attempted, out.failed, corpus.quarantined, out.matches
    ));
    out
}
