//! Batch fault runs through the dispatch router (DESIGN.md §8): a
//! fault-injected cluster run recovers the clean run's totals whenever the
//! retry budget covers the crashes, and never counts a lost shard.

use sigmo::cluster::{
    splitmix64, ClusterConfig, ClusterReport, ClusterSim, FaultPlan, RetryPolicy,
};
use sigmo::core::EngineConfig;
use sigmo::mol::Dataset;

fn clean_run(ranks: usize) -> ClusterReport {
    let d = Dataset::small(7);
    ClusterSim::new(ClusterConfig {
        num_ranks: ranks,
        engine: EngineConfig {
            refinement_iterations: 3,
            ..Default::default()
        },
        ..Default::default()
    })
    .run(&d.queries()[..6], d.data_graphs())
}

fn ns(s: f64) -> u64 {
    (s * 1e9).round() as u64
}

/// Over seeded random plans: with fewer crashed ranks than attempts and no
/// transients, every shard completes on a live rank and the totals equal
/// the clean run's; each crash is discovered at most once, and recovery
/// never shortens the makespan. With transients, the total is exactly the
/// clean matches of the shards that completed.
#[test]
fn fault_runs_reconcile_to_the_clean_run() {
    let cleans: Vec<ClusterReport> = [2, 4, 8, 16].into_iter().map(clean_run).collect();
    assert!(cleans[0].total_matches > 0, "workload must produce matches");
    let mut state = 0xfa_u64;
    let (mut recovered, mut lost) = (0, 0);
    for case in 0..64 {
        let clean = &cleans[(splitmix64(&mut state) % cleans.len() as u64) as usize];
        let ranks = clean.ranks.len();
        let policy = RetryPolicy {
            max_attempts: 1 + (splitmix64(&mut state) % 6) as usize,
            backoff_base_ticks: splitmix64(&mut state) % 1_000_000,
        };
        let crashes = (splitmix64(&mut state) as usize) % policy.max_attempts.min(ranks);
        let stragglers = (splitmix64(&mut state) as usize) % (ranks - crashes + 1);
        let slowdown = 1.0 + (splitmix64(&mut state) % 8) as f64;
        let plan = FaultPlan::seeded(splitmix64(&mut state), ranks, crashes, stragglers, slowdown);

        let report = clean.with_faults(&plan, &policy);
        let ctx = format!("case {case}: {ranks} ranks, {plan:?}, {policy:?}");
        assert!(
            report.reconciled(),
            "{ctx}: lost {:?}",
            report.failed_shards
        );
        assert_eq!(report.total_matches, clean.total_matches, "{ctx}");
        assert!(report.total_retries <= crashes as u64, "{ctx}");
        assert!(
            ns(report.makespan_s) >= ns(clean.makespan_s).saturating_sub(1),
            "{ctx}"
        );
        for d in &report.dispatches {
            let rank = d.rank.expect("reconciled");
            assert!(!plan.crashed.contains(&rank), "{ctx}: ran on dead {rank}");
        }

        let blips = plan.with_transient_pct(splitmix64(&mut state) % 60);
        let lossy = clean.with_faults(&blips, &policy);
        let completed: u64 = clean
            .ranks
            .iter()
            .filter(|r| !lossy.failed_shards.contains(&r.rank))
            .map(|r| r.matches)
            .sum();
        assert_eq!(lossy.total_matches, completed, "{ctx}, {blips:?}");
        recovered += usize::from(report.total_retries > 0);
        lost += usize::from(!lossy.reconciled());
    }
    assert!(
        recovered > 0 && lost > 0,
        "vacuous sweep: {recovered} recovered, {lost} lost"
    );
}

/// A plan where every dispatch fails transiently loses every shard: all of
/// them are reported failed and none of their matches count.
#[test]
fn all_transient_plan_fails_every_shard_and_counts_nothing() {
    let clean = clean_run(4);
    let policy = RetryPolicy::default();
    let report = clean.with_faults(&FaultPlan::none(4).with_transient_pct(100), &policy);
    assert!(!report.reconciled());
    assert_eq!(report.failed_shards, vec![0, 1, 2, 3]);
    assert_eq!(report.total_matches, 0);
    assert_eq!(report.total_retries, 4 * policy.max_attempts as u64);
}
