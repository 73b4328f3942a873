//! The sharded-serving soak benchmark shared by `ext_shard_soak` (which
//! emits `BENCH_shard.json`) and `bench_diff` (which gates regressions
//! against the committed copy).
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
//! exactly by `bench_diff`.

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

/// One sharded configuration's measurement. Everything except `wall_s`
/// is on the virtual clock and deterministic.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfigResult {
    /// Best-of-[`REPS`] wall seconds for the soak.
    pub wall_s: f64,
    /// Final virtual-clock tick.
    pub final_tick: u64,
    /// Failed dispatch attempts summed over shards.
    pub retries: u64,
    /// Stolen dispatches summed over shards.
    pub steals: u64,
    /// Degraded slices summed over shards (asserted zero).
    pub degraded: u64,
    /// Peak primary backlog in ticks, max over shards.
    pub hot_depth: u64,
}

/// Aggregate sharded-soak result.
#[derive(Debug)]
pub struct ShardBenchResult {
    /// The scale the workload was built at.
    pub scale: BenchScale,
    /// Requests in the trace.
    pub requests: usize,
    /// Sum of per-request matches (identical across configurations).
    pub total_matches: u64,
    /// `steal_clean` latency percentiles in ticks (deterministic).
    pub latency_p50: u64,
    /// 99th percentile.
    pub latency_p99: u64,
    /// Unsharded oracle: final tick and best-of wall.
    pub oracle_final_tick: u64,
    /// Best-of-[`REPS`] oracle wall seconds.
    pub oracle_wall_s: f64,
    /// Sharded, fault-free, stealing off.
    pub static_clean: ShardConfigResult,
    /// Sharded, fault-free, stealing on.
    pub steal_clean: ShardConfigResult,
    /// 1 crash, 1 straggler ×4, 10 % transients.
    pub steal_light: ShardConfigResult,
    /// 2 crashes, 2 stragglers ×8, 25 % transients.
    pub steal_heavy: ShardConfigResult,
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

/// Runs the full five-configuration sharded soak bench.
pub fn run_shard_bench(scale: BenchScale) -> ShardBenchResult {
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
    let per = |i: usize| {
        let (retries, steals, degraded, hot_depth) = counters[i];
        ShardConfigResult {
            wall_s: walls[i],
            final_tick: reports[i].as_ref().expect("at least one rep").final_tick,
            retries,
            steals,
            degraded,
            hot_depth,
        }
    };
    ShardBenchResult {
        scale,
        requests: trace.len(),
        total_matches,
        latency_p50: lat[lat.len() / 2],
        latency_p99: lat[((lat.len() * 99) / 100).min(lat.len() - 1)],
        oracle_final_tick: oracle_report.final_tick,
        oracle_wall_s: oracle_wall,
        static_clean: per(0),
        steal_clean: per(1),
        steal_light: per(2),
        steal_heavy: per(3),
    }
}

/// Renders the flat JSON `BENCH_shard.json` holds. Keys are unique at the
/// top level so `bench_diff`'s scanning parser can read them back.
pub fn render_json(r: &ShardBenchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", r.scale));
    out.push_str(&format!("  \"requests\": {},\n", r.requests));
    out.push_str(&format!("  \"shards\": {SHARDS},\n"));
    out.push_str(&format!("  \"replicas\": {REPLICAS},\n"));
    out.push_str(&format!("  \"total_matches\": {},\n", r.total_matches));
    out.push_str(&format!("  \"latency_p50_ticks\": {},\n", r.latency_p50));
    out.push_str(&format!("  \"latency_p99_ticks\": {},\n", r.latency_p99));
    out.push_str(&format!(
        "  \"final_tick_oracle\": {},\n",
        r.oracle_final_tick
    ));
    for (name, c) in [
        ("static_clean", &r.static_clean),
        ("steal_clean", &r.steal_clean),
        ("steal_light", &r.steal_light),
        ("steal_heavy", &r.steal_heavy),
    ] {
        out.push_str(&format!("  \"final_tick_{name}\": {},\n", c.final_tick));
        out.push_str(&format!("  \"retries_{name}\": {},\n", c.retries));
        out.push_str(&format!("  \"steals_{name}\": {},\n", c.steals));
        out.push_str(&format!("  \"hot_depth_{name}\": {},\n", c.hot_depth));
    }
    out.push_str(&format!("  \"wall_oracle_s\": {:.6},\n", r.oracle_wall_s));
    out.push_str(&format!(
        "  \"wall_static_clean_s\": {:.6},\n",
        r.static_clean.wall_s
    ));
    out.push_str(&format!(
        "  \"wall_steal_clean_s\": {:.6},\n",
        r.steal_clean.wall_s
    ));
    out.push_str(&format!(
        "  \"wall_steal_light_s\": {:.6},\n",
        r.steal_light.wall_s
    ));
    out.push_str(&format!(
        "  \"wall_steal_heavy_s\": {:.6}\n",
        r.steal_heavy.wall_s
    ));
    out.push_str("}\n");
    out
}
