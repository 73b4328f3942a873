//! The serving-layer soak benchmark behind `BENCH_serve.json`: one
//! [`gate`](crate::gate) table entry, recorded by `ext_serve_soak` and
//! gated by `bench_diff`.
//!
//! Three measured configurations over one seeded trace:
//!
//! * `no_cache` — caching disabled: every molecule occurrence is executed
//!   and every plan rebuilt (the ablation baseline);
//! * `cold` — caches enabled, starting empty (intra-trace reuse only);
//! * `warm` — the same server runs the trace a second time, so the plan
//!   and result caches already hold the whole working set.
//!
//! Wall times are the minimum over [`REPS`] fresh runs, the gate's
//! best-of-N convention. Everything except wall time — per-request
//! reports, total matches, virtual-clock ticks, latency percentiles,
//! cache hit counts — is deterministic and gated exactly; the three
//! configurations must agree on per-request results bit for bit, and the
//! warm cache must be at least [`MIN_WARM_SPEEDUP`]× the ablation
//! (asserted here on every run).

use crate::gate::Field;
use crate::BenchScale;
use sigmo_device::{DeviceProfile, Queue};
use sigmo_serve::{
    generate_workload, run_soak, served_outcome, ServeConfig, ServeStats, Server, SoakReport,
    TimedRequest, WorkloadConfig,
};
use std::time::Instant;

/// Fresh runs per configuration; wall times take the minimum.
pub const REPS: usize = 3;

/// The soak workload for a bench scale. FindAll-only and query-heavy so
/// engine work (not canonicalization) dominates each request.
pub fn workload(scale: BenchScale) -> WorkloadConfig {
    let (requests, mol_pool) = match scale {
        BenchScale::Quick => (240, 48),
        BenchScale::Paper => (1000, 160),
    };
    WorkloadConfig {
        requests,
        seed: 0x5e7e,
        mol_pool,
        query_sets: 4,
        queries_per_set: 10,
        max_request_molecules: 16,
        mean_interarrival: 2,
        find_first_pct: 0,
        pool_skew: 0,
    }
}

/// The server configuration under test. The queue is sized to admit the
/// whole trace: the slower ablation would otherwise shed more load than
/// the cached runs (more service ticks per step → more arrivals land on a
/// full queue), and the three configurations must serve identical request
/// sets to be comparable.
pub fn serve_config(caching: bool) -> ServeConfig {
    ServeConfig {
        caching,
        queue_capacity: 4096,
        ..ServeConfig::default()
    }
}

/// Required warm-over-ablation wall ratio: deduplication has to pay for
/// itself.
pub const MIN_WARM_SPEEDUP: f64 = 2.0;

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

/// Runs the full three-configuration soak bench (the table's runner).
pub fn run(scale: BenchScale) -> Vec<Field> {
    let trace = generate_workload(&workload(scale));
    let mut no_cache_wall = f64::INFINITY;
    let mut cold_wall = f64::INFINITY;
    let mut warm_wall = f64::INFINITY;
    let mut reference: Option<SoakReport> = None;
    let mut stats = ServeStats::default();
    for _ in 0..REPS {
        let mut ablated = Server::new(serve_config(false), Queue::new(DeviceProfile::host()));
        let (no_cache_report, w) = soak_wall(&mut ablated, &trace);
        no_cache_wall = no_cache_wall.min(w);

        let mut cached = Server::new(serve_config(true), Queue::new(DeviceProfile::host()));
        let (cold_report, w) = soak_wall(&mut cached, &trace);
        cold_wall = cold_wall.min(w);
        let (warm_report, w) = soak_wall(&mut cached, &trace);
        warm_wall = warm_wall.min(w);

        // Caching and batching must be invisible to results, cold or warm.
        assert_same_results(&cold_report, &no_cache_report, "cold vs no-cache");
        assert_same_results(&cold_report, &warm_report, "cold vs warm");
        if let Some(prev) = &reference {
            assert_same_results(prev, &cold_report, "rep vs rep");
        } else {
            reference = Some(cold_report);
        }
        stats = cached.stats();
    }
    let warm_speedup = no_cache_wall / warm_wall.max(1e-9);
    assert!(
        warm_speedup >= MIN_WARM_SPEEDUP,
        "warm-cache throughput must be ≥{MIN_WARM_SPEEDUP}x the no-cache ablation, \
         got {warm_speedup:.2}x"
    );

    let cold_report = reference.expect("at least one rep");
    let mut lat = cold_report.latencies();
    lat.sort_unstable();
    let total_matches = cold_report
        .entries
        .iter()
        .map(|e| e.report.total_matches)
        .sum();
    let rps = |wall_s: f64| cold_report.entries.len() as f64 / wall_s.max(1e-9);
    vec![
        Field::scale(scale),
        Field::count("requests", trace.len() as u64),
        Field::count("total_matches", total_matches),
        Field::count("final_tick", cold_report.final_tick),
        Field::count("latency_p50_ticks", lat[lat.len() / 2]),
        Field::count(
            "latency_p95_ticks",
            lat[((lat.len() * 95) / 100).min(lat.len() - 1)],
        ),
        Field::count("latency_max_ticks", *lat.last().unwrap()),
        Field::wall("wall_no_cache_s", no_cache_wall),
        Field::wall("wall_cold_s", cold_wall),
        Field::wall("wall_warm_s", warm_wall),
        Field::recorded("throughput_no_cache_rps", rps(no_cache_wall), 3),
        Field::recorded("throughput_cold_rps", rps(cold_wall), 3),
        Field::recorded("throughput_warm_rps", rps(warm_wall), 3),
        Field::recorded("warm_speedup", warm_speedup, 3),
        Field::count("plan_hits", stats.plan_hits),
        Field::count("plan_misses", stats.plan_misses),
        Field::count("mol_hits", stats.mol_hits),
        Field::count("mol_misses", stats.mol_misses),
        Field::count("result_hits", stats.result_hits),
        Field::count("result_misses", stats.result_misses),
        Field::count("executed_molecules", stats.executed_molecules),
    ]
}
