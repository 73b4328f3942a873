//! The dispatch state machine: replica-aware routing of work slices over
//! simulated ranks under seeded faults, with bounded retry and
//! work-stealing, on an integer-tick virtual clock.
//!
//! The paper's 256-GPU deployment statically partitions the corpus with
//! no recovery story (§5.4.2, a stated limitation). [`ShardRouter`] is the
//! one place that recovery lives. Each shard has `R` replica ranks
//! (placement from [`replica_placement`], one replica per node while
//! nodes last), and every slice of a shard's work is dispatched on the
//! virtual clock:
//!
//! * a slice whose target rank is **crashed** ([`FaultPlan::crashed`])
//!   fails at dispatch; the rank is remembered as dead and the slice is
//!   re-dispatched to a replica under [`RetryPolicy`] backoff
//!   ([`RetryPolicy::backoff_ticks`] — integer, saturating);
//! * a seeded **transient failure** ([`FaultPlan::transient_pct`] of
//!   dispatches, drawn from a [`splitmix64`] stream) costs a dispatch and
//!   a backoff, then retries;
//! * a **straggler** rank ([`FaultPlan::stragglers`]) serves the slice
//!   slowed by its factor;
//! * a slice that exhausts `max_attempts` (or whose every replica is
//!   known dead) is **degraded**: the router reports it unplaced and the
//!   caller decides what a lost slice means.
//!
//! With [`ShardConfig::work_stealing`] on, a dispatch whose primary's
//! backlog exceeds the least-loaded live replica's by more than
//! [`ShardConfig::steal_margin`] ticks is diverted there. The decision
//! reads only the router's own per-rank busy ticks, so the schedule is
//! bit-deterministic: same config, same slices, same schedule.
//!
//! The router has two clients, and each picks what a tick is worth:
//!
//! * `sigmo-serve`'s sharded server charges one tick per molecule of a
//!   slice, several slices per server step;
//! * [`crate::ClusterSim::run_with_faults`] charges each shard's modeled
//!   device time in nanoseconds, one slice per shard in one step over the
//!   static partition, with every rank a replica of every shard.
//!
//! Neither client's results depend on the schedule: the router only
//! moves slices between ranks and ticks on the clock.

use crate::fault::{splitmix64, FaultPlan, RetryPolicy};
use crate::topology::replica_placement;

/// Configuration of a [`ShardRouter`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards == number of simulated ranks (shard `s`'s primary
    /// replica is rank `s`).
    pub shards: usize,
    /// Replicas per shard (1 = no redundancy; a crash then degrades).
    pub replicas: usize,
    /// Ranks per simulated node — the replica-placement failure-domain
    /// stride (the paper's machines hold 4 GPUs each).
    pub gpus_per_node: usize,
    /// Crashed ranks, stragglers and the transient-failure rate.
    /// `num_ranks` must equal `shards`.
    pub fault: FaultPlan,
    /// Seed for ownership hashing ([`ShardRouter::owner`]) and the
    /// transient-failure draw.
    pub fault_seed: u64,
    /// Attempt bound and backoff for failed dispatches.
    pub retry: RetryPolicy,
    /// Virtual ticks charged per dispatch attempt (the work-queue
    /// round-trip a real deployment pays per slice).
    pub dispatch_ticks: u64,
    /// Divert dispatches from backlogged primaries to their least-loaded
    /// live replica.
    pub work_stealing: bool,
    /// Minimum backlog advantage (ticks) before a dispatch is stolen.
    pub steal_margin: u64,
}

impl ShardConfig {
    /// A fault-free sharded configuration with work-stealing on.
    pub fn new(shards: usize, replicas: usize) -> Self {
        Self {
            shards,
            replicas,
            gpus_per_node: 4,
            fault: FaultPlan::none(shards),
            fault_seed: 0x0051_6d08,
            retry: RetryPolicy::default(),
            dispatch_ticks: 1,
            work_stealing: true,
            steal_margin: 2,
        }
    }

    /// Replaces the fault plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Per-shard dispatch/latency records — the work-stealing signal and the
/// soak benches' observability surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Successful slice executions.
    pub dispatches: u64,
    /// Failed dispatch attempts (crashed target or transient failure).
    pub retries: u64,
    /// Dispatches diverted off the primary by work-stealing.
    pub steals: u64,
    /// Slices that exhausted every replica and degraded.
    pub degraded_slices: u64,
    /// Service cost executed for this shard, in the client's cost units
    /// (before straggler slowdown).
    pub executed_cost: u64,
    /// Service ticks charged to this shard's executions.
    pub busy_ticks: u64,
    /// Deepest primary backlog (ticks) observed at a dispatch.
    pub max_queue_depth: u64,
}

/// Outcome of scheduling one shard-slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceDispatch {
    /// The shard the slice belongs to.
    pub shard: usize,
    /// Rank that executed it, or `None` when the slice degraded.
    pub rank: Option<usize>,
    /// Tick (relative to the step start) at which the slice finished —
    /// for a degraded slice, the tick its last attempt gave up.
    pub finish: u64,
    /// Whether work-stealing diverted it off the primary.
    pub stolen: bool,
}

/// The shard router: owns replica placement, per-rank virtual clocks, the
/// seeded fault machinery, and the per-shard records.
pub struct ShardRouter {
    config: ShardConfig,
    /// `placement[s]` = replica ranks of shard `s`, primary first.
    placement: Vec<Vec<usize>>,
    /// Ranks observed crashed at some dispatch (the router only learns of
    /// a crash by trying; once seen, the rank is never targeted again).
    known_dead: Vec<bool>,
    /// Per-rank busy-until tick, relative to the current step's start.
    rank_busy: Vec<u64>,
    /// Longest finish/give-up tick seen this step (the step makespan).
    span: u64,
    /// State of the transient-failure draw stream.
    transient_state: u64,
    stats: Vec<ShardStats>,
}

impl ShardRouter {
    /// Builds a router, validating the configuration.
    pub fn new(config: ShardConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(
            (1..=config.shards).contains(&config.replicas),
            "need 1..={} replicas, got {}",
            config.shards,
            config.replicas
        );
        assert_eq!(
            config.fault.num_ranks, config.shards,
            "fault plan drawn for a different rank count"
        );
        assert!(config.retry.max_attempts >= 1);
        assert!(config.gpus_per_node >= 1);
        let placement = (0..config.shards)
            .map(|s| replica_placement(config.shards, config.gpus_per_node, s, config.replicas))
            .collect();
        let transient_state = config.fault_seed ^ 0x7a61_5ebf_0d15_9a7c;
        Self {
            known_dead: vec![false; config.shards],
            rank_busy: vec![0; config.shards],
            span: 0,
            transient_state,
            stats: vec![ShardStats::default(); config.shards],
            placement,
            config,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.config.shards
    }

    /// The router's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.config
    }

    /// The replica ranks of `shard`, primary first.
    pub fn placement(&self, shard: usize) -> &[usize] {
        &self.placement[shard]
    }

    /// Per-shard dispatch/latency records.
    pub fn stats(&self) -> &[ShardStats] {
        &self.stats
    }

    /// The shard owning item `id` under partition version `epoch`.
    /// A pure seeded hash: deterministic, uniform across shards, and
    /// re-drawn wholesale when the epoch bumps (a repartition).
    pub fn owner(&self, id: u32, epoch: u64) -> usize {
        let mut state = self
            .config
            .fault_seed
            .wrapping_add(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ (u64::from(id) + 1);
        (splitmix64(&mut state) % self.config.shards as u64) as usize
    }

    /// Resets the per-rank clocks for a new server step. Rank backlogs do
    /// not persist across steps because the sequential step loop charges
    /// the whole step's makespan to the global clock before the next step
    /// begins — every rank has drained by then. Queueing shows up
    /// *within* a step, across the window's slices.
    pub fn begin_step(&mut self) {
        self.rank_busy.iter_mut().for_each(|b| *b = 0);
        self.span = 0;
    }

    /// Makespan of the current step so far: the latest finish or give-up
    /// tick across every slice scheduled since [`ShardRouter::begin_step`].
    pub fn step_makespan(&self) -> u64 {
        self.span
    }

    /// Schedules one slice of `shard`'s work whose service costs `cost`
    /// ticks on a healthy rank, playing out crashes, transient failures,
    /// backoff, stragglers, and work-stealing on the virtual clock.
    /// Returns where (and whether) the slice ran; the *caller* executes
    /// it — the router never touches results.
    pub fn schedule_slice(&mut self, shard: usize, cost: u64) -> SliceDispatch {
        let mut ready = 0u64;
        for attempt in 1..=self.config.retry.max_attempts {
            // Replicas not yet observed dead, placement order.
            let live: Vec<usize> = self.placement[shard]
                .iter()
                .copied()
                .filter(|&r| !self.known_dead[r])
                .collect();
            let Some(&first_live) = live.first() else {
                break; // every replica known dead
            };
            // Record the primary backlog this slice sees — the queue-depth
            // signal work-stealing acts on.
            let depth = self.rank_busy[first_live].saturating_sub(ready);
            if depth > self.stats[shard].max_queue_depth {
                self.stats[shard].max_queue_depth = depth;
            }
            let (target, diverted) = if self.config.work_stealing {
                let best = live
                    .iter()
                    .copied()
                    .min_by_key(|&r| (self.rank_busy[r], r))
                    .expect("live is nonempty");
                let advantage = self.rank_busy[first_live].saturating_sub(self.rank_busy[best]);
                if best != first_live && advantage > self.config.steal_margin {
                    (best, true)
                } else {
                    (first_live, false)
                }
            } else {
                // Static routing: primary first, then rotate replicas on
                // retries.
                (live[(attempt - 1) % live.len()], false)
            };
            let start = ready.max(self.rank_busy[target]);
            let crashed = self.config.fault.crashed.contains(&target);
            if crashed || self.transient_fails() {
                if crashed {
                    // Discovered at dispatch: remember the corpse.
                    self.known_dead[target] = true;
                } else {
                    // A transient blip briefly busies the live target.
                    self.rank_busy[target] = start + self.config.dispatch_ticks;
                }
                // Either way the slice backs off and retries.
                self.stats[shard].retries += 1;
                ready =
                    start + self.config.dispatch_ticks + self.config.retry.backoff_ticks(attempt);
                self.span = self.span.max(ready);
                continue;
            }
            // Success: the slice occupies the target for a dispatch plus
            // its cost, stretched by the straggler factor.
            let slowdown = self.config.fault.slowdown(target);
            let service = self.config.dispatch_ticks + ((cost as f64) * slowdown).ceil() as u64;
            let finish = start + service;
            self.rank_busy[target] = finish;
            self.span = self.span.max(finish);
            self.stats[shard].dispatches += 1;
            self.stats[shard].executed_cost += cost;
            self.stats[shard].busy_ticks += service;
            if diverted {
                self.stats[shard].steals += 1;
            }
            return SliceDispatch {
                shard,
                rank: Some(target),
                finish,
                stolen: diverted,
            };
        }
        // Attempts exhausted (or no replica left): degrade.
        self.stats[shard].degraded_slices += 1;
        self.span = self.span.max(ready);
        SliceDispatch {
            shard,
            rank: None,
            finish: ready,
            stolen: false,
        }
    }

    /// One seeded draw from the transient-failure stream.
    fn transient_fails(&mut self) -> bool {
        let pct = self.config.fault.transient_pct;
        pct != 0 && splitmix64(&mut self.transient_state) % 100 < pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ownership_is_deterministic_and_covers_all_shards() {
        let router = ShardRouter::new(ShardConfig::new(8, 2));
        let mut seen = BTreeSet::new();
        for id in 0..512u32 {
            let s = router.owner(id, 0);
            assert!(s < 8);
            assert_eq!(s, router.owner(id, 0), "ownership must be stable");
            seen.insert(s);
        }
        assert_eq!(seen.len(), 8, "512 ids must touch every shard");
        // A repartition (epoch bump) re-draws ownership: some molecule
        // must move (all 512 staying put would be a broken hash).
        let moved = (0..512u32).any(|id| router.owner(id, 0) != router.owner(id, 1));
        assert!(moved, "epoch bump must reshuffle ownership");
    }

    #[test]
    fn placement_is_primary_first_and_distinct() {
        let router = ShardRouter::new(ShardConfig::new(8, 3));
        for s in 0..8 {
            let p = router.placement(s);
            assert_eq!(p.len(), 3);
            assert_eq!(p[0], s, "shard's primary is its own rank");
            let set: BTreeSet<usize> = p.iter().copied().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn clean_dispatch_serializes_on_the_primary() {
        let mut router = ShardRouter::new(ShardConfig {
            work_stealing: false,
            ..ShardConfig::new(4, 2)
        });
        router.begin_step();
        let a = router.schedule_slice(1, 10);
        let b = router.schedule_slice(1, 5);
        assert_eq!(a.rank, Some(1));
        assert_eq!(b.rank, Some(1));
        assert_eq!(a.finish, 11, "dispatch tick + 10 molecules");
        assert_eq!(b.finish, 17, "queued behind the first slice");
        assert_eq!(router.step_makespan(), 17);
        assert_eq!(router.stats()[1].max_queue_depth, 11);
        // A new step starts from idle ranks.
        router.begin_step();
        assert_eq!(router.step_makespan(), 0);
        let c = router.schedule_slice(1, 1);
        assert_eq!(c.finish, 2);
    }

    #[test]
    fn crashed_primary_fails_over_to_its_replica() {
        let mut fault = FaultPlan::none(4);
        fault.crashed.insert(2);
        let mut router = ShardRouter::new(ShardConfig {
            work_stealing: false,
            ..ShardConfig::new(4, 2).with_fault(fault)
        });
        router.begin_step();
        let d = router.schedule_slice(2, 3);
        let replica = router.placement(2)[1];
        assert_eq!(d.rank, Some(replica), "failover to the replica");
        // Failed dispatch (1 tick) + backoff (4) + dispatch (1) + 3 mols.
        assert_eq!(d.finish, 9);
        assert_eq!(router.stats()[2].retries, 1);
        assert_eq!(router.stats()[2].dispatches, 1);
        // The corpse is remembered: the next slice skips straight to the
        // replica with no failed attempt.
        let d2 = router.schedule_slice(2, 3);
        assert_eq!(d2.rank, Some(replica));
        assert_eq!(router.stats()[2].retries, 1, "no second discovery");
    }

    #[test]
    fn exhausted_replicas_degrade_instead_of_panicking() {
        let mut fault = FaultPlan::none(2);
        fault.crashed.insert(0);
        fault.crashed.insert(1);
        let mut router = ShardRouter::new(ShardConfig {
            work_stealing: false,
            ..ShardConfig::new(2, 2).with_fault(fault)
        });
        router.begin_step();
        let d = router.schedule_slice(0, 5);
        assert_eq!(d.rank, None, "every replica dead: degraded");
        assert_eq!(router.stats()[0].degraded_slices, 1);
        assert!(d.finish > 0, "the attempts cost time before giving up");
        // Transient storms degrade too once attempts run out.
        let mut stormy = ShardRouter::new(ShardConfig {
            work_stealing: false,
            ..ShardConfig::new(2, 1).with_fault(FaultPlan::none(2).with_transient_pct(100))
        });
        stormy.begin_step();
        let d = stormy.schedule_slice(0, 5);
        assert_eq!(d.rank, None);
        assert_eq!(
            stormy.stats()[0].retries,
            stormy.config().retry.max_attempts as u64,
            "every attempt failed transiently"
        );
    }

    #[test]
    fn work_stealing_diverts_past_the_margin() {
        let cfg = ShardConfig {
            steal_margin: 2,
            ..ShardConfig::new(4, 2)
        };
        let mut router = ShardRouter::new(cfg);
        router.begin_step();
        // Load shard 1's primary past the margin, then dispatch again:
        // the second slice must be stolen by the (idle) replica.
        let first = router.schedule_slice(1, 10);
        assert!(!first.stolen, "idle ranks: no steal");
        let second = router.schedule_slice(1, 10);
        assert!(second.stolen, "backlogged primary: steal");
        assert_eq!(second.rank, Some(router.placement(1)[1]));
        assert_eq!(router.stats()[1].steals, 1);
        // Stolen work runs in parallel with the primary's backlog.
        assert_eq!(second.finish, 11);
        let third = router.schedule_slice(1, 10);
        // Same trace without stealing serializes on the primary.
        let mut fixed = ShardRouter::new(ShardConfig {
            work_stealing: false,
            steal_margin: 2,
            ..ShardConfig::new(4, 2)
        });
        fixed.begin_step();
        fixed.schedule_slice(1, 10);
        let queued = fixed.schedule_slice(1, 10);
        let tail = fixed.schedule_slice(1, 10);
        assert!(queued.finish > second.finish);
        assert!(tail.finish > third.finish);
        assert!(
            fixed.stats()[1].max_queue_depth > router.stats()[1].max_queue_depth,
            "stealing must cut the hot primary's deepest backlog ({} vs {})",
            fixed.stats()[1].max_queue_depth,
            router.stats()[1].max_queue_depth
        );
    }

    #[test]
    fn straggler_stretches_service_deterministically() {
        let mut fault = FaultPlan::none(4);
        fault.stragglers.insert(3, 4.0);
        let mut router = ShardRouter::new(ShardConfig {
            work_stealing: false,
            ..ShardConfig::new(4, 1).with_fault(fault)
        });
        router.begin_step();
        let d = router.schedule_slice(3, 5);
        assert_eq!(d.rank, Some(3));
        assert_eq!(d.finish, 21, "1 dispatch + ceil(5 × 4.0) service");
    }

    #[test]
    fn transient_stream_is_seeded_and_reproducible() {
        let run = |seed: u64| {
            let mut router = ShardRouter::new(ShardConfig {
                fault_seed: seed,
                work_stealing: false,
                ..ShardConfig::new(4, 2).with_fault(FaultPlan::none(4).with_transient_pct(40))
            });
            router.begin_step();
            (0..32)
                .map(|i| router.schedule_slice(i % 4, 2).finish)
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), run(8), "different seed, different blips");
    }
}
