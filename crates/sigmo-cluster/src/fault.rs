//! Deterministic fault injection for the cluster simulator, and the batch
//! client of the [`ShardRouter`].
//!
//! The paper's 256-GPU MPI deployment (§6, Fig. 14) uses static
//! partitioning with no recovery story: a crashed rank loses its shard and
//! a straggler stretches the barrier for everyone. A [`FaultPlan`] injects
//! those faults *deterministically* (seeded, so every run of a test sees
//! the same faults), and the [`ShardRouter`] plays out the recovery
//! protocol on its integer-tick clock: failed dispatches are retried on
//! replica ranks with bounded attempts and exponential backoff
//! ([`RetryPolicy`]). [`FaultClusterReport::reconciled`] then certifies
//! the invariant that matters: an injected-fault run recovers the *exact*
//! clean-run totals.
//!
//! Fault model (shared with the sharded server, the router's other
//! client):
//!
//! * **Rank crash** — the rank is dead from the start; a dispatch to it
//!   fails, the router latches it dead and never targets it again.
//! * **Straggler** — the rank completes its work, slowed by a constant
//!   factor (the paper's CoV tail, exaggerated).
//! * **Transient dispatch failure** — a seeded percentage of dispatches
//!   fail regardless of rank (network blips), exercising multi-round
//!   backoff.

use crate::router::{ShardConfig, ShardRouter, SliceDispatch};
use crate::sim::{seconds_to_ns, ClusterReport, ClusterSim};
use sigmo_graph::LabeledGraph;
use std::collections::{BTreeMap, BTreeSet};

/// Which faults a run will experience. Built deterministically from a
/// seed so fault runs are reproducible.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Total ranks the plan was drawn for (must match the router's).
    pub num_ranks: usize,
    /// Ranks that crash at dispatch and stay dead for the whole run.
    pub crashed: BTreeSet<usize>,
    /// Straggler ranks and their slowdown factor (> 1.0).
    pub stragglers: BTreeMap<usize, f64>,
    /// Percentage (0–100) of dispatches that fail transiently, drawn
    /// from a splitmix64 stream seeded by [`ShardConfig::fault_seed`].
    pub transient_pct: u64,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none(num_ranks: usize) -> Self {
        Self {
            num_ranks,
            crashed: BTreeSet::new(),
            stragglers: BTreeMap::new(),
            transient_pct: 0,
        }
    }

    /// Draws `crashes` crashed ranks and `stragglers` straggler ranks
    /// (disjoint sets) from a seeded shuffle of the rank ids. The same
    /// seed always selects the same ranks.
    pub fn seeded(
        seed: u64,
        num_ranks: usize,
        crashes: usize,
        stragglers: usize,
        slowdown: f64,
    ) -> Self {
        assert!(
            crashes + stragglers <= num_ranks,
            "cannot fault {} of {num_ranks} ranks",
            crashes + stragglers
        );
        assert!(slowdown >= 1.0, "a straggler is slower, not faster");
        let mut ids: Vec<usize> = (0..num_ranks).collect();
        let mut state = seed;
        // Seeded Fisher–Yates over rank ids (splitmix64 — no external RNG).
        for i in (1..ids.len()).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        let crashed: BTreeSet<usize> = ids[..crashes].iter().copied().collect();
        let straggler_map: BTreeMap<usize, f64> = ids[crashes..crashes + stragglers]
            .iter()
            .map(|&r| (r, slowdown))
            .collect();
        Self {
            num_ranks,
            crashed,
            stragglers: straggler_map,
            transient_pct: 0,
        }
    }

    /// Sets the transient dispatch-failure percentage (clamped to 100).
    pub fn with_transient_pct(mut self, pct: u64) -> Self {
        self.transient_pct = pct.min(100);
        self
    }

    /// The slowdown factor of `rank` (1.0 when not a straggler).
    pub fn slowdown(&self, rank: usize) -> f64 {
        self.stragglers.get(&rank).copied().unwrap_or(1.0)
    }
}

/// splitmix64: tiny, deterministic, dependency-free PRNG step — the only
/// randomness source of fault plans, the router, and the serving
/// workload generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded-retry policy with exponential backoff on the router's clock.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum dispatch attempts per slice (including the first).
    pub max_attempts: usize,
    /// Backoff in ticks before the first retry; doubles every further
    /// retry.
    pub backoff_base_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_ticks: 4,
        }
    }
}

impl RetryPolicy {
    /// Ticks waited before retry number `retry` (1-based: the first retry
    /// waits the base, the second twice that, ...), saturating at
    /// `u64::MAX`. Integer ticks keep every schedule bit-deterministic —
    /// no float accumulation ever reaches the clock.
    ///
    /// Contract: `retry >= 1` — there is no backoff before the *first*
    /// attempt, so retry number 0 is a caller bug. It is flagged with a
    /// `debug_assert!` and clamped to 1 rather than panicking a release
    /// serving process mid-request.
    pub fn backoff_ticks(&self, retry: usize) -> u64 {
        debug_assert!(retry >= 1, "retry numbers are 1-based");
        if self.backoff_base_ticks == 0 {
            return 0;
        }
        let exp = retry.max(1) - 1;
        if exp >= 64 {
            return u64::MAX;
        }
        self.backoff_base_ticks.saturating_mul(1u64 << exp)
    }
}

/// Aggregate result of a fault-injected cluster run.
#[derive(Debug)]
pub struct FaultClusterReport {
    /// Where each shard's slice ran (or that it degraded), shard order.
    pub dispatches: Vec<SliceDispatch>,
    /// Total matches across completed shards.
    pub total_matches: u64,
    /// Simulated makespan including retries and backoff waits.
    pub makespan_s: f64,
    /// Ranks the plan crashed.
    pub injected_crashes: Vec<usize>,
    /// Ranks the plan slowed down.
    pub injected_stragglers: Vec<usize>,
    /// Shards that exhausted their attempts without completing.
    pub failed_shards: Vec<usize>,
    /// Failed dispatch attempts across all shards.
    pub total_retries: u64,
}

impl FaultClusterReport {
    /// True when every shard completed — the run's totals then equal a
    /// clean (fault-free) run's totals exactly.
    pub fn reconciled(&self) -> bool {
        self.failed_shards.is_empty()
    }

    /// Matches per simulated second over the makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.total_matches as f64 / self.makespan_s
        }
    }
}

impl ClusterReport {
    /// Replays this clean run's shards through a [`ShardRouter`] under
    /// `plan` and `policy`: one slice per shard, in shard order, in one
    /// step over the static partition. A shard's cost is its rank's
    /// modeled time in nanoseconds, and every rank replicates every shard,
    /// so a failed shard may be retried on any surviving rank. The engine
    /// is deterministic, so a retried shard finds the matches the clean
    /// run found; only the schedule and the lost shards change.
    pub fn with_faults(&self, plan: &FaultPlan, policy: &RetryPolicy) -> FaultClusterReport {
        let ranks = self.ranks.len();
        let mut router = ShardRouter::new(ShardConfig {
            fault: plan.clone(),
            retry: policy.clone(),
            // The modeled time already covers each launch's overhead.
            dispatch_ticks: 0,
            ..ShardConfig::new(ranks, ranks)
        });
        router.begin_step();
        let dispatches: Vec<SliceDispatch> = self
            .ranks
            .iter()
            .map(|r| router.schedule_slice(r.rank, seconds_to_ns(r.sim_time_s)))
            .collect();
        let total_matches = self
            .ranks
            .iter()
            .zip(&dispatches)
            .filter(|(_, d)| d.rank.is_some())
            .map(|(r, _)| r.matches)
            .sum();
        FaultClusterReport {
            failed_shards: dispatches
                .iter()
                .filter(|d| d.rank.is_none())
                .map(|d| d.shard)
                .collect(),
            dispatches,
            total_matches,
            makespan_s: router.step_makespan() as f64 / 1e9,
            injected_crashes: plan.crashed.iter().copied().collect(),
            injected_stragglers: plan.stragglers.keys().copied().collect(),
            total_retries: router.stats().iter().map(|s| s.retries).sum(),
        }
    }
}

impl ClusterSim {
    /// Runs the workload under a [`FaultPlan`] and [`RetryPolicy`]: the
    /// clean [`ClusterSim::run`], then [`ClusterReport::with_faults`].
    pub fn run_with_faults(
        &self,
        queries: &[LabeledGraph],
        data: &[LabeledGraph],
        plan: &FaultPlan,
        policy: &RetryPolicy,
    ) -> FaultClusterReport {
        self.run(queries, data).with_faults(plan, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::ClusterConfig;
    use sigmo_core::EngineConfig;
    use sigmo_mol::Dataset;

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

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = |base| RetryPolicy {
            max_attempts: 4,
            backoff_base_ticks: base,
        };
        assert_eq!(policy(4).backoff_ticks(1), 4);
        assert_eq!(policy(4).backoff_ticks(3), 16);
        assert_eq!(policy(1).backoff_ticks(64), 1u64 << 63, "2^63 fits");
        assert_eq!(policy(1).backoff_ticks(65), u64::MAX);
        assert_eq!(policy(3).backoff_ticks(63), 3u64 << 62);
        assert_eq!(policy(u64::MAX).backoff_ticks(2), u64::MAX);
        assert_eq!(policy(0).backoff_ticks(usize::MAX), 0, "zero base is free");
        // Monotone non-decreasing across the saturation boundary.
        let mut last = 0;
        for retry in 1..200 {
            let b = policy(3).backoff_ticks(retry);
            assert!(b >= last, "backoff must never shrink (retry {retry})");
            last = b;
        }
    }

    #[test]
    fn seeded_plan_is_deterministic_and_disjoint() {
        let a = FaultPlan::seeded(42, 16, 3, 2, 4.0);
        let b = FaultPlan::seeded(42, 16, 3, 2, 4.0);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(
            a.stragglers.keys().collect::<Vec<_>>(),
            b.stragglers.keys().collect::<Vec<_>>()
        );
        assert_eq!(a.crashed.len(), 3);
        assert_eq!(a.stragglers.len(), 2);
        for r in a.stragglers.keys() {
            assert!(!a.crashed.contains(r), "crash/straggler sets overlap");
        }
        // A different seed draws a different crash set (16 choose 3 makes
        // a collision on this fixed pair essentially a broken shuffle).
        let c = FaultPlan::seeded(43, 16, 3, 2, 4.0);
        assert_ne!(a.crashed, c.crashed);
    }

    #[test]
    fn no_faults_matches_clean_run() {
        let clean = clean_run(4);
        let faulted = clean.with_faults(&FaultPlan::none(4), &RetryPolicy::default());
        assert!(faulted.reconciled());
        assert_eq!(faulted.total_matches, clean.total_matches);
        assert_eq!(faulted.total_retries, 0);
        for (d, r) in faulted.dispatches.iter().zip(&clean.ranks) {
            assert_eq!(d.rank, Some(r.rank), "every shard stays on its own rank");
        }
        let makespan_ns = seconds_to_ns(clean.makespan_s);
        assert_eq!((faulted.makespan_s * 1e9).round() as u64, makespan_ns);
    }

    #[test]
    fn three_of_sixteen_crashes_reconcile_exactly() {
        let clean = clean_run(16);
        let plan = FaultPlan::seeded(0x516_0301, 16, 3, 0, 1.0);
        let report = clean.with_faults(&plan, &RetryPolicy::default());
        assert!(
            report.reconciled(),
            "failed shards: {:?}",
            report.failed_shards
        );
        assert_eq!(report.total_matches, clean.total_matches);
        assert_eq!(report.injected_crashes.len(), 3);
        assert_eq!(report.total_retries, 3, "one failed dispatch per crash");
        for d in &report.dispatches {
            let rank = d.rank.expect("every shard completed");
            assert!(!plan.crashed.contains(&rank), "shard ran on a dead rank");
        }
    }

    #[test]
    fn stragglers_stretch_the_makespan() {
        let clean = clean_run(4);
        let policy = RetryPolicy::default();
        let base = clean.with_faults(&FaultPlan::none(4), &policy);
        let mut slowed = FaultPlan::none(4);
        slowed.stragglers.insert(0, 10.0);
        let report = clean.with_faults(&slowed, &policy);
        assert!(report.reconciled());
        assert_eq!(report.total_matches, clean.total_matches);
        assert!(
            report.makespan_s > base.makespan_s,
            "10x slowdown must stretch the makespan ({} vs {})",
            report.makespan_s,
            base.makespan_s
        );
    }

    #[test]
    fn all_ranks_crashed_fails_every_shard() {
        let clean = clean_run(2);
        let plan = FaultPlan::seeded(7, 2, 2, 0, 1.0);
        let report = clean.with_faults(&plan, &RetryPolicy::default());
        assert!(!report.reconciled());
        assert_eq!(report.failed_shards, vec![0, 1]);
        assert_eq!(report.total_matches, 0);
    }
}
