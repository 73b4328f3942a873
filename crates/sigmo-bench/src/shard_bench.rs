//! The sharded-serving soak benchmark behind `BENCH_shard.json`: one
//! [`gate`](crate::gate) table entry, recorded by `ext_shard_soak` and
//! gated by `bench_diff`.
//!
//! One seeded, popularity-skewed trace is served five ways:
//!
//! * `oracle` — the unsharded single-node server (the bit-identity
//!   reference; its accounting is byte-identical to `BENCH_serve.json`'s
//!   configurations);
//! * `static_clean` — 6 shards × 2 replicas, fault-free, work-stealing
//!   off (the static-partitioning strawman);
//! * `steal_clean` — the same partition with work-stealing on;
//! * `steal_light` — 1 crashed rank, 1 straggler ×4, 10 % transient
//!   dispatch failures;
//! * `steal_heavy` — 2 crashed ranks, 2 stragglers ×8, 25 % transients.
//!
//! Every sharded configuration must serve results bit-identical to the
//! oracle, request for request, with zero degraded slices — faults and
//! stealing are allowed to move ticks, never results. The bench also
//! asserts the stealing machinery earns its keep: `steal_clean` must
//! actually steal, the static run must not, and stealing must shrink the
//! hot shard's peak backlog. Wall times are the minimum over [`REPS`]
//! fresh runs; everything on the virtual clock (final ticks, latency
//! percentiles, retry/steal/backlog counters) is deterministic and gated
//! exactly.

use crate::gate::Field;
use crate::BenchScale;
use sigmo_cluster::FaultPlan;
use sigmo_device::{DeviceProfile, Queue};
use sigmo_serve::{
    generate_workload, run_soak, served_outcome, ServeConfig, Server, ShardConfig, ShardStats,
    SoakReport, TimedRequest, WorkloadConfig,
};
use std::time::Instant;

/// Fresh runs per configuration; wall times take the minimum.
pub const REPS: usize = 3;

/// Shards in every sharded configuration.
pub const SHARDS: usize = 6;

/// Replicas per shard.
pub const REPLICAS: usize = 2;

/// The soak workload for a bench scale: FindAll-only like the serve
/// bench, but with a skewed molecule pool (`pool_skew`) so a few hot
/// molecules concentrate on their owning shards and work-stealing has a
/// backlog to shed.
pub fn workload(scale: BenchScale) -> WorkloadConfig {
    let (requests, mol_pool) = match scale {
        BenchScale::Quick => (240, 48),
        BenchScale::Paper => (1000, 160),
    };
    WorkloadConfig {
        requests,
        seed: 0x5a4d,
        mol_pool,
        query_sets: 4,
        queries_per_set: 10,
        max_request_molecules: 16,
        mean_interarrival: 2,
        find_first_pct: 0,
        pool_skew: 3,
    }
}

/// The server configuration under test. Caching is off so every molecule
/// occurrence is executed — repeat executions of the hot molecules are
/// exactly the dispatch pressure the stealing comparison needs — and the
/// queue admits the whole trace so every configuration serves the same
/// request set.
pub fn serve_config(sharding: Option<ShardConfig>) -> ServeConfig {
    ServeConfig {
        caching: false,
        queue_capacity: 4096,
        sharding,
        ..ServeConfig::default()
    }
}

/// The fault-free sharded configuration, stealing on or off.
fn clean(stealing: bool) -> ShardConfig {
    let mut cfg = ShardConfig::new(SHARDS, REPLICAS);
    cfg.work_stealing = stealing;
    cfg
}

/// A faulted configuration: `crashes` ranks dead from the first dispatch
/// (claiming low rank ids), `stragglers` slow ranks (claiming high ids)
/// at `slowdown`×, and `transient_pct`% of dispatches failing
/// transiently. Crashes and stragglers are placed like the CLI places
/// them, so no shard loses both replicas: with 6 shards × 4 GPUs per
/// node, replica pairs straddle nodes.
fn faulted(crashes: usize, stragglers: usize, slowdown: f64, transient_pct: u64) -> ShardConfig {
    let mut fault = FaultPlan::none(SHARDS).with_transient_pct(transient_pct);
    for rank in 0..crashes {
        fault.crashed.insert(rank);
    }
    for k in 0..stragglers {
        fault.stragglers.insert(SHARDS - 1 - k, slowdown);
    }
    let mut cfg = ShardConfig::new(SHARDS, REPLICAS).with_fault(fault);
    // The attempt budget must keep P(exhaustion) ≈ 0 over the whole
    // trace: at 25 % transients a 4-attempt budget loses ~0.25³ of the
    // slices whose first attempt hits a corpse. Scale attempts with the
    // transient rate so the heavy plan degrades nothing (asserted below)
    // and the degradation path stays exercised by tests/shard_soak.rs,
    // where replicas — not attempts — run out.
    cfg.retry.max_attempts = 4 + (transient_pct / 10) as usize * 2;
    cfg
}

fn soak_wall(server: &mut Server, trace: &[TimedRequest]) -> (SoakReport, f64) {
    let start = Instant::now();
    let report = run_soak(server, trace);
    (report, start.elapsed().as_secs_f64())
}

fn assert_same_results(a: &SoakReport, b: &SoakReport, what: &str) {
    assert_eq!(a.entries.len(), b.entries.len(), "{what}: entry counts");
    for (ea, eb) in a.entries.iter().zip(&b.entries) {
        assert_eq!(
            served_outcome(&ea.report),
            served_outcome(&eb.report),
            "{what}: request {} diverged",
            ea.trace_index
        );
    }
}

/// Sums the observability counters a sharded run leaves behind.
fn fold_stats(stats: &[ShardStats]) -> (u64, u64, u64, u64) {
    let retries = stats.iter().map(|s| s.retries).sum();
    let steals = stats.iter().map(|s| s.steals).sum();
    let degraded = stats.iter().map(|s| s.degraded_slices).sum();
    let hot_depth = stats.iter().map(|s| s.max_queue_depth).max().unwrap_or(0);
    (retries, steals, degraded, hot_depth)
}

/// Runs the full five-configuration sharded soak bench (the table's
/// runner).
pub fn run(scale: BenchScale) -> Vec<Field> {
    let trace = generate_workload(&workload(scale));
    let sharded: [(&str, Option<ShardConfig>); 4] = [
        ("static_clean", Some(clean(false))),
        ("steal_clean", Some(clean(true))),
        ("steal_light", Some(faulted(1, 1, 4.0, 10))),
        ("steal_heavy", Some(faulted(2, 2, 8.0, 25))),
    ];
    let mut oracle_wall = f64::INFINITY;
    let mut oracle_report: Option<SoakReport> = None;
    let mut walls = [f64::INFINITY; 4];
    let mut reports: Vec<Option<SoakReport>> = (0..4).map(|_| None).collect();
    let mut counters = [(0u64, 0u64, 0u64, 0u64); 4];
    for _ in 0..REPS {
        let mut base = Server::new(serve_config(None), Queue::new(DeviceProfile::host()));
        let (report, w) = soak_wall(&mut base, &trace);
        oracle_wall = oracle_wall.min(w);
        assert!(report.rejected.is_empty(), "oracle queue must admit all");
        if let Some(prev) = &oracle_report {
            // Same virtual clock, same trace: rep must reproduce rep.
            assert_same_results(prev, &report, "oracle rep vs rep");
        } else {
            oracle_report = Some(report);
        }
        let oracle = oracle_report.as_ref().expect("just set");

        for (i, (name, sharding)) in sharded.iter().enumerate() {
            let config = serve_config(sharding.clone());
            let mut server = Server::new(config, Queue::new(DeviceProfile::host()));
            let (report, w) = soak_wall(&mut server, &trace);
            walls[i] = walls[i].min(w);
            assert!(report.rejected.is_empty(), "{name}: queue must admit all");
            // Faults, retries, and stealing move ticks, never results.
            assert_same_results(oracle, &report, name);
            let stats = server.shard_stats().expect("sharded server has stats");
            counters[i] = fold_stats(stats);
            if let Some(prev) = &reports[i] {
                assert_eq!(
                    prev.final_tick, report.final_tick,
                    "{name}: nondeterministic clock"
                );
            } else {
                reports[i] = Some(report);
            }
        }
    }
    let oracle_report = oracle_report.expect("at least one rep");
    let steal_clean_report = reports[1].as_ref().expect("at least one rep");

    let (_, static_steals, _, static_hot) = counters[0];
    let (_, clean_steals, _, steal_hot) = counters[1];
    let (light_retries, ..) = counters[2];
    let (heavy_retries, ..) = counters[3];
    for (i, (name, _)) in sharded.iter().enumerate() {
        let (_, _, degraded, _) = counters[i];
        assert_eq!(
            degraded, 0,
            "{name}: replicas must absorb every fault in this plan"
        );
    }
    assert_eq!(static_steals, 0, "stealing off must not steal");
    assert!(clean_steals > 0, "the skewed pool must trigger stealing");
    assert!(
        steal_hot < static_hot,
        "stealing must cut the hot shard's peak backlog \
         ({steal_hot} vs {static_hot} ticks)"
    );
    assert!(light_retries > 0, "faults must force retries (light)");
    assert!(
        heavy_retries > light_retries,
        "heavier faults, more retries"
    );

    let mut lat = steal_clean_report.latencies();
    lat.sort_unstable();
    let total_matches = oracle_report
        .entries
        .iter()
        .map(|e| e.report.total_matches)
        .sum();
    let mut fields = vec![
        Field::scale(scale),
        Field::count("requests", trace.len() as u64),
        Field::count("shards", SHARDS as u64),
        Field::count("replicas", REPLICAS as u64),
        Field::count("total_matches", total_matches),
        Field::count("latency_p50_ticks", lat[lat.len() / 2]),
        Field::count(
            "latency_p99_ticks",
            lat[((lat.len() * 99) / 100).min(lat.len() - 1)],
        ),
        Field::count("final_tick_oracle", oracle_report.final_tick),
    ];
    for (i, (name, _)) in sharded.iter().enumerate() {
        let (retries, steals, _, hot_depth) = counters[i];
        let final_tick = reports[i].as_ref().expect("at least one rep").final_tick;
        fields.extend([
            Field::count(format!("final_tick_{name}"), final_tick),
            Field::count(format!("retries_{name}"), retries),
            Field::count(format!("steals_{name}"), steals),
            Field::count(format!("hot_depth_{name}"), hot_depth),
        ]);
    }
    fields.push(Field::wall("wall_oracle_s", oracle_wall));
    for (i, (name, _)) in sharded.iter().enumerate() {
        fields.push(Field::wall(format!("wall_{name}_s"), walls[i]));
    }
    fields
}
