//! Sharded-serving soak tests (DESIGN.md §12): faults, retries, and
//! work-stealing must be invisible to results.
//!
//! The sharded tier partitions each micro-batch's executed molecules
//! across simulated ranks with replica retry under seeded crashes,
//! stragglers, and transient dispatch failures. Everything here is pinned
//! against the same oracle the unsharded soak uses: a fresh, unbatched,
//! uncached replay of each request. Faults may move work between ranks
//! and stretch the virtual clock — they may never change a count.

use sigmo::cluster::FaultPlan;
use sigmo::core::{Completion, MatchMode, TruncationReason};
use sigmo::device::{DeviceProfile, Queue};
use sigmo::graph::LabeledGraph;
use sigmo::mol::functional_groups;
use sigmo::mol::MoleculeGenerator;
use sigmo::serve::{
    generate_workload, oracle_replay, run_soak, served_outcome, MatchRequest, ServeConfig, Server,
    ShardConfig, ShardRouter, WorkloadConfig,
};

fn queue() -> Queue {
    Queue::new(DeviceProfile::host())
}

/// A skewed, bursty workload that concentrates traffic on a few hot
/// molecules (and so a few hot shards).
fn skewed_workload(requests: usize) -> Vec<sigmo::serve::TimedRequest> {
    generate_workload(&WorkloadConfig {
        requests,
        seed: 0x5a4d,
        mol_pool: 48,
        query_sets: 4,
        queries_per_set: 6,
        max_request_molecules: 8,
        mean_interarrival: 1,
        find_first_pct: 25,
        pool_skew: 3,
    })
}

/// The acceptance-scale fault soak: one crashed rank, one straggler, a
/// 20% transient-failure rate — and every request still bit-identical to
/// the unsharded fault-free oracle, with zero degraded slices because the
/// replicas absorb every fault.
#[test]
fn sharded_fault_soak_is_bit_identical_to_unsharded_oracle() {
    let trace = skewed_workload(160);
    let mut fault = FaultPlan::none(4).with_transient_pct(20);
    fault.crashed.insert(0);
    fault.stragglers.insert(2, 4.0);
    let sharded_cfg = ServeConfig {
        queue_capacity: 4096,
        sharding: Some(ShardConfig::new(4, 2).with_fault(fault)),
        ..ServeConfig::default()
    };
    let unsharded_cfg = ServeConfig {
        queue_capacity: 4096,
        ..ServeConfig::default()
    };

    let mut sharded = Server::new(sharded_cfg.clone(), queue());
    let soak = run_soak(&mut sharded, &trace);
    assert!(soak.rejected.is_empty(), "the sized queue must admit all");
    assert_eq!(soak.entries.len(), trace.len());

    // Every served request equals its unbatched, unsharded, fault-free
    // oracle replay — bit for bit.
    let oracle_queue = queue();
    for entry in &soak.entries {
        let oracle = oracle_replay(
            &sharded_cfg,
            &trace[entry.trace_index].request,
            &oracle_queue,
        );
        assert_eq!(
            served_outcome(&entry.report),
            oracle,
            "request {} diverged from the oracle under faults",
            entry.trace_index
        );
    }
    let total: u64 = soak.entries.iter().map(|e| e.report.total_matches).sum();
    assert!(total > 0, "trace produced no matches — test is vacuous");

    // And equals a full unsharded serve of the same trace, request for
    // request (caching interplay included).
    let mut unsharded = Server::new(unsharded_cfg, queue());
    let base = run_soak(&mut unsharded, &trace);
    assert_eq!(base.entries.len(), soak.entries.len());
    for (s, u) in soak.entries.iter().zip(&base.entries) {
        assert_eq!(s.trace_index, u.trace_index);
        assert_eq!(served_outcome(&s.report), served_outcome(&u.report));
    }

    // The faults must have actually bitten: crashes/transients retried,
    // the replicas absorbed everything (no degradation), and the seeded
    // fault plan stretched the clock past the clean run's.
    let stats = sharded.shard_stats().expect("sharded server has stats");
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    let degraded: u64 = stats.iter().map(|s| s.degraded_slices).sum();
    assert!(retries > 0, "crashes + 20% transients must force retries");
    assert_eq!(degraded, 0, "2-way replication must absorb these faults");
    assert!(
        soak.final_tick > base.final_tick,
        "faulted serving must cost ticks over the clean unsharded run \
         ({} vs {})",
        soak.final_tick,
        base.final_tick
    );

    // Determinism: the same seeded soak replays tick for tick.
    let mut again = Server::new(sharded_cfg, queue());
    let rerun = run_soak(&mut again, &trace);
    assert_eq!(rerun.final_tick, soak.final_tick);
    for (a, b) in soak.entries.iter().zip(&rerun.entries) {
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.report, b.report);
    }
    assert_eq!(sharded.shard_stats(), again.shard_stats());
}

/// A fault plan's transient rate reaches the serving router: with no
/// crashed rank and no straggler, transients alone force retries, and the
/// served results still equal the unsharded run's.
#[test]
fn fault_plan_transients_force_serving_retries() {
    let trace = skewed_workload(40);
    let mut shard_cfg =
        ShardConfig::new(3, 2).with_fault(FaultPlan::none(3).with_transient_pct(30));
    // Eight attempts at 30% lose a slice with probability 0.3^8.
    shard_cfg.retry.max_attempts = 8;
    let config = ServeConfig {
        queue_capacity: 4096,
        sharding: Some(shard_cfg),
        ..ServeConfig::default()
    };
    let mut sharded = Server::new(config, queue());
    let soak = run_soak(&mut sharded, &trace);
    let stats = sharded.shard_stats().expect("sharded server has stats");
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    assert!(retries > 0, "the plan's 30% transients must force retries");
    assert_eq!(stats.iter().map(|s| s.degraded_slices).sum::<u64>(), 0);

    let mut unsharded = Server::new(
        ServeConfig {
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
        queue(),
    );
    let base = run_soak(&mut unsharded, &trace);
    assert_eq!(base.entries.len(), soak.entries.len());
    for (s, u) in soak.entries.iter().zip(&base.entries) {
        assert_eq!(served_outcome(&s.report), served_outcome(&u.report));
    }
}

/// With single replicas and a crashed rank, the dead shard's molecules
/// degrade: zero counts under `Truncated(ShardUnavailable)` — a sound
/// lower bound — instead of failing the request, and degraded outcomes
/// never enter the result cache.
#[test]
fn exhausted_replicas_degrade_to_sound_lower_bounds() {
    let mut fault = FaultPlan::none(2);
    fault.crashed.insert(0);
    let shard_cfg = ShardConfig::new(2, 1).with_fault(fault);
    let config = ServeConfig {
        sharding: Some(shard_cfg.clone()),
        ..ServeConfig::default()
    };

    // Distinct molecules intern to ids 0..n in submission order, so a
    // router clone predicts exactly which degrade (owner == crashed 0).
    let mols: Vec<LabeledGraph> = MoleculeGenerator::with_seed(0xdead)
        .generate_batch(12)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(4)
        .map(|q| q.graph)
        .collect();
    let request = MatchRequest {
        queries,
        molecules: mols.clone(),
        mode: MatchMode::FindAll,
    };
    let router = ShardRouter::new(shard_cfg);
    let expect_degraded: Vec<usize> = (0..mols.len())
        .filter(|&i| router.owner(i as u32, 0) == 0)
        .collect();
    assert!(
        !expect_degraded.is_empty() && expect_degraded.len() < mols.len(),
        "seed must split molecules across both shards"
    );

    let mut server = Server::new(config.clone(), queue());
    server.submit(&request).unwrap();
    let first = server.step();
    let report = &first.reports[0];
    assert_eq!(
        report.completion,
        Completion::Truncated(TruncationReason::ShardUnavailable)
    );
    assert_eq!(report.truncated_molecules, expect_degraded);
    for &local in &expect_degraded {
        assert!(
            report.pair_counts.iter().all(|&(m, _, _)| m != local),
            "degraded molecule {local} must report zero counts"
        );
    }
    // The live shard's molecules still match the fault-free oracle's
    // counts for those molecules.
    let oracle = oracle_replay(&config, &request, &queue());
    let live_pairs: Vec<_> = oracle
        .pair_counts
        .iter()
        .filter(|&&(m, _, _)| !expect_degraded.contains(&m))
        .copied()
        .collect();
    assert_eq!(report.pair_counts, live_pairs);

    // Degraded outcomes are never cached: a repeat request answers the
    // live molecules from the cache and re-attempts (re-degrades) the
    // dead shard's, bit-identically.
    server.submit(&request).unwrap();
    let second = server.step();
    let repeat = &second.reports[0];
    assert_eq!(repeat.cached_molecules, mols.len() - expect_degraded.len());
    assert_eq!(repeat.executed_molecules, expect_degraded.len());
    assert_eq!(repeat.pair_counts, report.pair_counts);
    assert_eq!(repeat.truncated_molecules, report.truncated_molecules);
    assert_eq!(repeat.completion, report.completion);
    let stats = server.shard_stats().unwrap();
    assert!(stats[0].degraded_slices >= 2, "both steps must degrade");
}

/// Work-stealing must measurably cut the hot shard's queue depth on a
/// skewed workload — with results identical to static routing.
#[test]
fn work_stealing_cuts_hot_shard_depth_with_identical_results() {
    let trace = skewed_workload(120);
    // Caching off maximizes repeat executions of the hot molecules, so
    // the popularity skew shows up as dispatch pressure every step.
    let base = ServeConfig {
        queue_capacity: 4096,
        caching: false,
        ..ServeConfig::default()
    };
    let mut steal_cfg = ShardConfig::new(4, 2);
    steal_cfg.work_stealing = true;
    let mut static_cfg = steal_cfg.clone();
    static_cfg.work_stealing = false;

    let mut stealing = Server::new(
        ServeConfig {
            sharding: Some(steal_cfg),
            ..base.clone()
        },
        queue(),
    );
    let mut fixed = Server::new(
        ServeConfig {
            sharding: Some(static_cfg),
            ..base
        },
        queue(),
    );
    let a = run_soak(&mut stealing, &trace);
    let b = run_soak(&mut fixed, &trace);

    assert_eq!(a.entries.len(), b.entries.len());
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(served_outcome(&ea.report), served_outcome(&eb.report));
    }

    let steal_stats = stealing.shard_stats().unwrap();
    let fixed_stats = fixed.shard_stats().unwrap();
    let steals: u64 = steal_stats.iter().map(|s| s.steals).sum();
    assert!(steals > 0, "the skewed trace must trigger stealing");
    assert_eq!(
        fixed_stats.iter().map(|s| s.steals).sum::<u64>(),
        0,
        "static routing must never steal"
    );
    let hot_steal = steal_stats.iter().map(|s| s.max_queue_depth).max().unwrap();
    let hot_fixed = fixed_stats.iter().map(|s| s.max_queue_depth).max().unwrap();
    assert!(
        hot_steal < hot_fixed,
        "stealing must cut the hot shard's deepest backlog ({hot_steal} vs {hot_fixed})"
    );
    assert!(
        a.final_tick <= b.final_tick,
        "stealing must not lengthen the virtual clock ({} vs {})",
        a.final_tick,
        b.final_tick
    );
}

/// Removing a molecule bumps the shard epoch, which keys the result
/// cache: cached outcomes from the old corpus become unreachable, and the
/// re-executed results are identical.
#[test]
fn repartition_invalidates_the_result_cache() {
    let config = ServeConfig {
        sharding: Some(ShardConfig::new(3, 2)),
        ..ServeConfig::default()
    };
    let mols: Vec<LabeledGraph> = MoleculeGenerator::with_seed(0xcafe)
        .generate_batch(6)
        .iter()
        .map(|m| m.to_labeled_graph())
        .collect();
    let queries: Vec<LabeledGraph> = functional_groups()
        .into_iter()
        .take(3)
        .map(|q| q.graph)
        .collect();
    let request = MatchRequest {
        queries,
        molecules: mols.clone(),
        mode: MatchMode::FindAll,
    };

    let mut server = Server::new(config, queue());
    server.submit(&request).unwrap();
    let first = server.step();
    assert_eq!(server.stats().result_hits, 0);

    // Warm repeat: answered entirely from the cache.
    server.submit(&request).unwrap();
    let warm = server.step();
    assert_eq!(warm.reports[0].cached_molecules, mols.len());
    assert_eq!(server.stats().result_hits, mols.len() as u64);

    // Remove one molecule: the epoch bumps and every old cache entry is
    // unreachable — the next pass re-executes everything, identically.
    assert_eq!(server.epoch(), 0);
    assert!(server.remove_molecule(&mols[0]));
    assert_eq!(server.epoch(), 1);
    assert!(
        !server.remove_molecule(&mols[0]),
        "a retired molecule is no longer known"
    );
    server.submit(&request).unwrap();
    let after = server.step();
    assert_eq!(
        after.reports[0].cached_molecules, 0,
        "epoch-keyed cache must miss wholesale after a repartition"
    );
    assert_eq!(after.reports[0].executed_molecules, mols.len());
    assert_eq!(
        server.stats().result_hits,
        mols.len() as u64,
        "no new hits after the epoch bump"
    );
    assert_eq!(
        served_outcome(&after.reports[0]),
        served_outcome(&first.reports[0]),
        "re-executed results must be identical"
    );

    // Warm again at the new epoch: the re-cached outcomes serve.
    server.submit(&request).unwrap();
    let rewarm = server.step();
    assert_eq!(rewarm.reports[0].cached_molecules, mols.len());
}
