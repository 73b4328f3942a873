//! Extension analysis: governor behaviour on pathological workloads.
//!
//! Three records back DESIGN.md §8 and the robustness claims:
//!
//! 1. **Deadline stress** — an 8-node wildcard query with no
//!    automorphism (the 8-clique minus a spider with legs of 1, 2 and 4
//!    edges) against a uniform 16-clique has ≈ 5.2e8 embeddings, each its
//!    own class; unbudgeted it runs for hours. (A wildcard 8-clique would
//!    not do: the join breaks its 8! symmetries and lists 12,870
//!    classes in milliseconds.) A 2 s deadline must end it with
//!    `Truncated(Deadline)` and a nonzero sound partial count, promptly.
//! 2. **Ticker overhead ablation** — a realistic workload under the
//!    unlimited governor (`Engine::run`'s own path: ticks are two integer
//!    compares against `u64::MAX`) versus a fully *armed* governor whose
//!    generous budgets never trip (real step budget, a wall-clock
//!    heartbeat every 256 steps, an embedding cap charged per match).
//!    Totals must be identical and the armed overhead under 2 %.
//! 3. **Fault-injection record** — a 16-rank cluster sim with 3 seeded
//!    rank crashes and 2 stragglers; retries must reconcile the total
//!    exactly to the clean run's.

use sigmo_bench::BenchScale;
use sigmo_cluster::{ClusterConfig, ClusterSim, FaultPlan, RetryPolicy};
use sigmo_core::{Completion, Engine, EngineConfig, Governor, RunBudget, TruncationReason};
use sigmo_device::{DeviceProfile, Queue};
use sigmo_graph::{LabeledGraph, WILDCARD_EDGE, WILDCARD_LABEL};
use std::time::{Duration, Instant};

/// Complete graph on `n` nodes with uniform node/edge labels.
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

/// The deadline stress query: the wildcard 8-clique minus a spider with
/// legs of 1, 2 and 4 edges. The spider has no automorphism, so neither
/// has its complement.
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

fn main() {
    let scale = BenchScale::from_env();
    println!("# Extension — pathological workloads under the run governor ({scale:?} scale)");

    // ---- 1. Asymmetric wildcard octet under a 2 s deadline ----------------
    let queries = [asymmetric_wildcard_octet()];
    let data = [clique(16, 1, 1)];
    let queue = Queue::new(DeviceProfile::host());
    let budget = RunBudget::none().with_deadline(Duration::from_secs(2));
    let started = Instant::now();
    let report = Engine::new(EngineConfig::default()).run_with_governor(
        &queries,
        &data,
        &queue,
        &Governor::new(&budget),
    );
    let elapsed = started.elapsed();
    println!("\n## Asymmetric wildcard 8-node query vs uniform 16-clique, 2 s deadline");
    println!("completion:       {}", report.completion);
    println!("partial matches:  {}", report.total_matches);
    println!("wall clock:       {elapsed:.2?}");
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::Deadline),
        "the octet must not finish inside 2 s"
    );
    assert!(
        report.total_matches > 0,
        "no sound partials before deadline"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "deadline was not honoured promptly: {elapsed:.2?}"
    );
    println!("=> terminated with sound partial results (DESIGN.md §8)");

    // ---- 2. Ticker overhead ablation --------------------------------------
    let d = scale.dataset(0x600D);
    let engine = Engine::new(EngineConfig::default());
    // Generous enough that nothing ever trips, but every check is armed:
    // finite step budget, wall-clock heartbeat, cap charge per embedding.
    let armed = RunBudget::none()
        .with_deadline(Duration::from_secs(3600))
        .with_step_budget(u64::MAX / 2)
        .with_embedding_cap(u64::MAX / 2);
    let reps = 11usize;
    let mut ratios: Vec<f64> = Vec::with_capacity(reps);
    let mut unlimited_best = Duration::MAX;
    let mut armed_best = Duration::MAX;
    let mut unlimited_total = 0u64;
    let mut armed_total = 0u64;
    let time_arm = |budget: Option<&RunBudget>| {
        let q = Queue::new(DeviceProfile::host());
        let gov = match budget {
            Some(b) => Governor::new(b),
            None => Governor::unlimited(),
        };
        let t0 = Instant::now();
        let r = engine.run_with_governor(d.queries(), d.data_graphs(), &q, &gov);
        let t = t0.elapsed();
        assert_eq!(r.completion, Completion::Complete);
        (r.total_matches, t)
    };
    // Paired reps with alternating arm order, scored by the per-rep
    // armed/unlimited ratio; the *median* ratio cancels both slow drift
    // (machine load moves both arms of a pair) and outlier reps.
    for rep in 0..=reps {
        let first_armed = rep % 2 == 0;
        let (m1, t1) = time_arm(first_armed.then_some(&armed));
        let (m2, t2) = time_arm((!first_armed).then_some(&armed));
        assert_eq!(m1, m2, "an armed-but-untripped governor changed the result");
        let ((mu, tu), (ma, ta)) = if first_armed {
            ((m2, t2), (m1, t1))
        } else {
            ((m1, t1), (m2, t2))
        };
        if rep == 0 {
            continue; // warm-up
        }
        ratios.push(ta.as_secs_f64() / tu.as_secs_f64());
        unlimited_best = unlimited_best.min(tu);
        armed_best = armed_best.min(ta);
        unlimited_total = mu;
        armed_total = ma;
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let overhead_pct = (median_ratio - 1.0) * 100.0;
    println!("\n## Ticker overhead ablation ({reps} paired reps, alternating order, median ratio)");
    println!("matches:          {unlimited_total} (unlimited) == {armed_total} (armed budgets)");
    println!("unlimited best:   {unlimited_best:.2?}");
    println!("armed best:       {armed_best:.2?}");
    println!("ticker overhead:  {overhead_pct:+.2}% (median of per-rep ratios)");
    assert!(
        overhead_pct < 2.0,
        "armed-governor overhead {overhead_pct:.2}% exceeds the 2% budget"
    );
    println!("=> word-granularity ticking is within the 2% budget");

    // ---- 3. Cluster fault injection ----------------------------------------
    let sim = ClusterSim::new(ClusterConfig::default());
    let clean = sim.run(d.queries(), d.data_graphs());
    let plan = FaultPlan::seeded(0x516_0301, 16, 3, 2, 4.0);
    let policy = RetryPolicy::default();
    let faulted = sim.run_with_faults(d.queries(), d.data_graphs(), &plan, &policy);
    println!("\n## Cluster fault injection (16 ranks, 3 crashes, 2 stragglers ×4.0)");
    println!("crashed ranks:    {:?}", faulted.injected_crashes);
    println!("straggler ranks:  {:?}", faulted.injected_stragglers);
    println!("retries:          {}", faulted.total_retries);
    println!("failed shards:    {:?}", faulted.failed_shards);
    println!(
        "matches:          {} (faulted) vs {} (clean)",
        faulted.total_matches, clean.total_matches
    );
    println!("sim makespan:     {:.4} s", faulted.makespan_s);
    println!("sim throughput:   {:.0} matches/s", faulted.throughput());
    assert!(
        faulted.reconciled(),
        "retries failed to recover every shard"
    );
    assert_eq!(
        faulted.total_matches, clean.total_matches,
        "fault recovery lost or double-counted matches"
    );
    println!("=> every crashed shard re-dispatched; totals reconcile exactly");
}
