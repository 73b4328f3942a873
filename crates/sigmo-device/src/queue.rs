//! The execution queue: ND-range and work-group kernel dispatch.
//!
//! Mirrors the subset of the SYCL queue API SIGMo's kernels need. Kernels
//! are plain closures; the queue schedules them over rayon, measures real
//! wall-clock time, and (together with [`crate::KernelCounters`]) feeds the
//! analytical cost model.

use crate::counters::{CounterSnapshot, KernelCounters};
use crate::profile::DeviceProfile;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Work-group local memory: a scratch buffer shared by the work-items of
/// one group, mirroring SYCL local accessors. The filter kernel prefetches
/// candidate-bitmap words into local memory before filtering (§4.4).
#[derive(Debug)]
pub struct LocalMem {
    words: Vec<u64>,
}

impl LocalMem {
    /// Allocates `len` words of local memory, zeroed.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len],
        }
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Clears to zero, keeping capacity.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Resizes (zero-filling new words).
    pub fn resize(&mut self, len: usize) {
        self.words.resize(len, 0);
        // Old contents are stale between launches: callers clear explicitly.
    }
}

/// Context handed to a work-group kernel body.
pub struct WorkGroupCtx<'a> {
    /// Linear group id.
    pub group_id: usize,
    /// Work-group size (number of work-items in the group).
    pub group_size: usize,
    /// The group's local memory.
    pub local: &'a mut LocalMem,
    /// Per-kernel counters for operation accounting.
    pub counters: &'a KernelCounters,
}

/// One worker thread's counters for a launch, summed into the launch's
/// total when the worker's share of the groups is done (on drop): the
/// kernels charge plain per-worker cells, and the launch pays one lock
/// per worker instead of atomic RMWs per work-group.
struct WorkerCounters<'a> {
    own: KernelCounters,
    total: &'a Mutex<KernelCounters>,
}

impl<'a> WorkerCounters<'a> {
    fn new(total: &'a Mutex<KernelCounters>) -> Self {
        Self {
            own: KernelCounters::new(),
            total,
        }
    }
}

impl Drop for WorkerCounters<'_> {
    fn drop(&mut self) {
        self.total.lock().absorb(&self.own);
    }
}

/// Runs `global_size` work-items in groups of `wg` over the rayon pool:
/// each worker makes its group body once with `worker()` and runs its
/// groups through it, and a tripped `stop` probe skips every group not
/// yet started. Returns the launch's wall time and the skipped groups.
// sigmo-lint: allow(wall-clock-in-result) — wall_time is display-only,
// excluded from determinism keys; the cost model prices counters.
// sigmo-lint: allow(relaxed-read-in-report) — `skipped` is read after
// the parallel bridge joined; no writer remains.
fn dispatch<S, W, G>(global_size: usize, wg: usize, stop: &S, worker: W) -> (Duration, usize)
where
    S: Fn() -> bool + Sync,
    W: Fn() -> G + Sync,
    G: Fn(std::ops::Range<usize>),
{
    let skipped = AtomicUsize::new(0);
    let start = Instant::now();
    (0..global_size.div_ceil(wg))
        .into_par_iter()
        .for_each_init(&worker, |group, g| {
            if stop() {
                skipped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            group(g * wg..((g + 1) * wg).min(global_size));
        });
    (start.elapsed(), skipped.load(Ordering::Relaxed))
}

/// One worker's stage clock in a fused launch
/// ([`Queue::parallel_for_fused`]): [`StageClock::enter`] charges the
/// time since the last call to the stage held until now. Summed into the
/// launch's per-stage totals when the worker is done (on drop).
pub struct StageClock<'a> {
    since: Cell<Option<Instant>>,
    held: Cell<usize>,
    own: Vec<Cell<u64>>,
    total: &'a Mutex<Vec<u64>>,
}

impl<'a> StageClock<'a> {
    fn new(stages: usize, total: &'a Mutex<Vec<u64>>) -> Self {
        Self {
            since: Cell::new(None),
            held: Cell::new(0),
            own: (0..stages).map(|_| Cell::new(0)).collect(),
            total,
        }
    }

    /// From now on the worker's time goes to `stage`.
    // sigmo-lint: allow(wall-clock-in-result) — stage walls are
    // display-only, excluded from determinism keys.
    #[inline]
    pub fn enter(&self, stage: usize) {
        let now = Instant::now();
        if let Some(t) = self.since.get() {
            let spent = &self.own[self.held.get()];
            spent.set(spent.get() + (now - t).as_nanos() as u64);
        }
        self.since.set(Some(now));
        self.held.set(stage);
    }

    /// Charges the time since the last [`StageClock::enter`] and holds
    /// no stage until the next.
    fn stop(&self) {
        if self.since.get().is_some() {
            self.enter(self.held.get());
            self.since.set(None);
        }
    }
}

impl Drop for StageClock<'_> {
    fn drop(&mut self) {
        let mut total = self.total.lock();
        for (t, own) in total.iter_mut().zip(&self.own) {
            *t += own.get();
        }
    }
}

/// A finished fused launch ([`Queue::parallel_for_fused`]), waiting for
/// its stages to be recorded.
#[derive(Debug, Clone)]
pub struct FusedLaunch {
    phase: String,
    stage_walls: Vec<Duration>,
    cancelled: bool,
    skipped_groups: usize,
}

/// Record of one executed kernel.
#[derive(Debug, Clone)]
pub struct KernelRecord {
    /// Kernel name (for the occupancy timeline / roofline legend).
    pub name: String,
    /// Phase tag ("filter" / "mapping" / "join" / other).
    pub phase: String,
    /// ND-range size (total work-items launched).
    pub global_size: usize,
    /// Work-group size used.
    pub work_group_size: usize,
    /// Real wall-clock execution time on the host executor.
    pub wall_time: Duration,
    /// Operation counters accumulated by the kernel body.
    pub counters: CounterSnapshot,
    /// True when a stop probe was tripped during this launch: the kernel
    /// ran under a governor and was cut short cooperatively.
    pub cancelled: bool,
    /// Work-groups the dispatcher skipped entirely because the stop probe
    /// was already tripped when they would have started. Groups already
    /// running when the probe trips still finish (cooperative, not
    /// preemptive — the kernel body itself consults the governor).
    pub skipped_groups: usize,
}

/// An in-order execution queue bound to a device profile.
///
/// Unlike a real SYCL queue, execution is synchronous (`parallel_for`
/// returns when the kernel completes); SIGMo's pipeline is a sequence of
/// host-synchronized kernels anyway (§4.4), so nothing is lost.
pub struct Queue {
    profile: DeviceProfile,
    records: Mutex<Vec<KernelRecord>>,
}

impl Queue {
    /// Creates a queue on the given device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            records: Mutex::new(Vec::new()),
        }
    }

    /// The device profile this queue executes on.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Launches an ND-range kernel of `global_size` independent work-items.
    ///
    /// `body(item_id, &counters)` is invoked once per work-item, scheduled
    /// over the host cores in chunks of `work_group_size` (preserving the
    /// spatial-locality benefits the paper gets from coalescing: adjacent
    /// work-items run adjacently).
    pub fn parallel_for<F>(
        &self,
        name: &str,
        phase: &str,
        global_size: usize,
        work_group_size: usize,
        body: F,
    ) -> CounterSnapshot
    where
        F: Fn(usize, &KernelCounters) + Sync,
    {
        self.parallel_for_until(name, phase, global_size, work_group_size, || false, body)
    }

    /// [`Queue::parallel_for`] with a cooperative stop probe: before each
    /// work-group starts, `stop()` is consulted, and a tripped probe skips
    /// every not-yet-started group (groups already running finish on their
    /// own — the body is expected to consult the same governor). The
    /// kernel record notes `cancelled` and the skipped-group count.
    pub fn parallel_for_until<S, F>(
        &self,
        name: &str,
        phase: &str,
        global_size: usize,
        work_group_size: usize,
        stop: S,
        body: F,
    ) -> CounterSnapshot
    where
        S: Fn() -> bool + Sync,
        F: Fn(usize, &KernelCounters) + Sync,
    {
        self.parallel_for_chunks_until(
            name,
            phase,
            global_size,
            work_group_size,
            stop,
            |items, counters| {
                for i in items {
                    body(i, counters);
                }
            },
        )
    }

    /// [`Queue::parallel_for_until`] dispatched at work-group charge
    /// granularity: the body receives each group's contiguous work-item
    /// range (and its worker's counters) exactly once, so a kernel can
    /// accumulate its modeled charges in group-locals and flush them with
    /// a handful of counter adds per *group* instead of several per
    /// work-item. Dispatch order, stop-probe semantics, and the kernel
    /// record are identical to [`Queue::parallel_for_until`].
    // sigmo-lint: allow(wall-clock-in-result) — wall_time is display-only,
    // excluded from determinism keys; the cost model prices counters.
    // sigmo-lint: allow(relaxed-read-in-report) — `skipped` is read after
    // the parallel bridge joined; no writer remains.
    pub fn parallel_for_chunks_until<S, F>(
        &self,
        name: &str,
        phase: &str,
        global_size: usize,
        work_group_size: usize,
        stop: S,
        body: F,
    ) -> CounterSnapshot
    where
        S: Fn() -> bool + Sync,
        F: Fn(std::ops::Range<usize>, &KernelCounters) + Sync,
    {
        let wg = work_group_size.max(1);
        let counters = Mutex::new(KernelCounters::new());
        let body = &body;
        let (wall, skipped) = dispatch(global_size, wg, &stop, || {
            let worker = WorkerCounters::new(&counters);
            move |items: std::ops::Range<usize>| body(items, &worker.own)
        });
        let snap = counters.lock().snapshot();
        self.records.lock().push(KernelRecord {
            name: name.to_string(),
            phase: phase.to_string(),
            global_size,
            work_group_size: wg,
            wall_time: wall,
            counters: snap,
            cancelled: skipped > 0 || stop(),
            skipped_groups: skipped,
        });
        snap
    }

    /// Launches a work-group kernel: `num_groups` groups, each with its own
    /// [`LocalMem`] of `local_words` words. The body receives a
    /// [`WorkGroupCtx`] and is responsible for iterating its work-items
    /// (the paper's join kernel iterates mapped query graphs this way).
    pub fn parallel_for_work_group<F>(
        &self,
        name: &str,
        phase: &str,
        num_groups: usize,
        work_group_size: usize,
        local_words: usize,
        body: F,
    ) -> CounterSnapshot
    where
        F: Fn(&mut WorkGroupCtx<'_>) + Sync,
    {
        self.parallel_for_work_group_until(
            name,
            phase,
            num_groups,
            work_group_size,
            local_words,
            || false,
            body,
        )
    }

    /// [`Queue::parallel_for_work_group`] with a cooperative stop probe —
    /// same contract as [`Queue::parallel_for_until`].
    // sigmo-lint: allow(wall-clock-in-result) — wall_time is display-only,
    // excluded from determinism keys (see `parallel_for_chunks_until`).
    // sigmo-lint: allow(relaxed-read-in-report) — `skipped` is read after
    // the parallel bridge joined; no writer remains.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_for_work_group_until<S, F>(
        &self,
        name: &str,
        phase: &str,
        num_groups: usize,
        work_group_size: usize,
        local_words: usize,
        stop: S,
        body: F,
    ) -> CounterSnapshot
    where
        S: Fn() -> bool + Sync,
        F: Fn(&mut WorkGroupCtx<'_>) + Sync,
    {
        let counters = Mutex::new(KernelCounters::new());
        let skipped = AtomicUsize::new(0);
        let start = Instant::now();
        (0..num_groups).into_par_iter().for_each_init(
            || (LocalMem::new(local_words), WorkerCounters::new(&counters)),
            |(local, worker), g| {
                if stop() {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                local.clear();
                let mut ctx = WorkGroupCtx {
                    group_id: g,
                    group_size: work_group_size,
                    local,
                    counters: &worker.own,
                };
                body(&mut ctx);
            },
        );
        let wall = start.elapsed();
        let snap = counters.lock().snapshot();
        let skipped = skipped.load(Ordering::Relaxed);
        self.records.lock().push(KernelRecord {
            name: name.to_string(),
            phase: phase.to_string(),
            global_size: num_groups * work_group_size,
            work_group_size,
            wall_time: wall,
            counters: snap,
            cancelled: skipped > 0 || stop(),
            skipped_groups: skipped,
        });
        snap
    }

    /// A fused launch in `phase`: one dispatch of `global_size` work-items in groups
    /// of `work_group_size`, whose work the caller charges afterwards to
    /// `stages` separate kernel records ([`Queue::record_stage`]) — one
    /// per stage of work the body interleaves. The body moves its
    /// worker's [`StageClock`] from stage to stage, and the launch's wall
    /// time is split over the stages in proportion to the time each held
    /// the clock. The stop probe works as in [`Queue::parallel_for_until`].
    /// Records nothing by itself.
    // sigmo-lint: allow(wall-clock-in-result) — stage walls are
    // display-only, excluded from determinism keys (see
    // `parallel_for_chunks_until`).
    pub fn parallel_for_fused<S, F>(
        &self,
        phase: &str,
        stages: usize,
        global_size: usize,
        work_group_size: usize,
        stop: S,
        body: F,
    ) -> FusedLaunch
    where
        S: Fn() -> bool + Sync,
        F: Fn(std::ops::Range<usize>, &StageClock) + Sync,
    {
        let spent = Mutex::new(vec![0u64; stages]);
        let body = &body;
        let (wall, skipped) = dispatch(global_size, work_group_size.max(1), &stop, || {
            let clock = StageClock::new(stages, &spent);
            move |items: std::ops::Range<usize>| {
                body(items, &clock);
                clock.stop();
            }
        });
        let spent = spent.into_inner();
        let held: u64 = spent.iter().sum();
        let stage_walls = spent
            .iter()
            .map(|&ns| {
                if held == 0 {
                    Duration::ZERO
                } else {
                    wall.mul_f64(ns as f64 / held as f64)
                }
            })
            .collect();
        FusedLaunch {
            phase: phase.to_string(),
            stage_walls,
            cancelled: skipped > 0 || stop(),
            skipped_groups: skipped,
        }
    }

    /// Records stage `stage` of a [`FusedLaunch`] as one kernel of the
    /// launch's phase: its name and modeled ND-range, the charges the
    /// caller tallied for it, and its share of the launch's wall time.
    pub fn record_stage(
        &self,
        launch: &FusedLaunch,
        stage: usize,
        name: &str,
        global_size: usize,
        work_group_size: usize,
        counters: &KernelCounters,
    ) {
        self.records.lock().push(KernelRecord {
            name: name.to_string(),
            phase: launch.phase.clone(),
            global_size,
            work_group_size,
            wall_time: launch.stage_walls[stage],
            counters: counters.snapshot(),
            cancelled: launch.cancelled,
            skipped_groups: launch.skipped_groups,
        });
    }

    /// Records a host↔device transfer (Figure 2's data-movement arrows):
    /// a pseudo-kernel in phase `"transfer"` whose byte counters the cost
    /// model prices against the PCIe bandwidth instead of HBM.
    pub fn record_transfer(&self, name: &str, bytes_to_device: u64, bytes_to_host: u64) {
        let counters = KernelCounters::new();
        counters.add_bytes_read(bytes_to_device);
        counters.add_bytes_written(bytes_to_host);
        self.records.lock().push(KernelRecord {
            name: name.to_string(),
            phase: "transfer".to_string(),
            global_size: 0,
            work_group_size: 1,
            wall_time: Duration::ZERO,
            counters: counters.snapshot(),
            cancelled: false,
            skipped_groups: 0,
        });
    }

    /// All kernel records in launch order.
    pub fn records(&self) -> Vec<KernelRecord> {
        self.records.lock().clone()
    }

    /// Clears the kernel record log.
    pub fn clear_records(&self) {
        self.records.lock().clear();
    }

    /// Total real wall-clock time across recorded kernels, per phase tag.
    pub fn phase_wall_time(&self, phase: &str) -> Duration {
        self.records
            .lock()
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.wall_time)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn queue() -> Queue {
        Queue::new(DeviceProfile::host())
    }

    #[test]
    fn parallel_for_visits_every_item_once() {
        let q = queue();
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        q.parallel_for("k", "test", n, 128, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_handles_non_divisible_sizes() {
        let q = queue();
        let n = 1001;
        let count = AtomicU64::new(0);
        q.parallel_for("k", "test", n, 128, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n as u64);
    }

    #[test]
    fn parallel_for_zero_items_is_fine() {
        let q = queue();
        q.parallel_for("k", "test", 0, 64, |_, _| panic!("no items expected"));
        assert_eq!(q.records()[0].global_size, 0);
    }

    #[test]
    fn chunk_dispatch_partitions_the_range_exactly() {
        let q = queue();
        let n = 1001;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let groups = AtomicU64::new(0);
        q.parallel_for_chunks_until(
            "k",
            "test",
            n,
            128,
            || false,
            |items, c| {
                groups.fetch_add(1, Ordering::Relaxed);
                assert!(items.len() <= 128 && !items.is_empty());
                c.add_instructions(1); // once per *group*, not per item
                for i in items {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let recs = q.records();
        assert_eq!(recs[0].global_size, n, "records the exact ND-range size");
        assert_eq!(
            recs[0].counters.instructions,
            groups.load(Ordering::Relaxed)
        );
        assert_eq!(groups.load(Ordering::Relaxed), 8); // ceil(1001 / 128)
    }

    #[test]
    fn work_group_kernel_gets_private_local_memory() {
        let q = queue();
        let n_groups = 64;
        q.parallel_for_work_group("k", "test", n_groups, 4, 8, |ctx| {
            // Local memory starts zeroed for every group.
            assert!(ctx.local.words().iter().all(|&w| w == 0));
            ctx.local.words_mut()[0] = ctx.group_id as u64 + 1;
            assert_eq!(ctx.local.words()[0], ctx.group_id as u64 + 1);
        });
    }

    #[test]
    fn counters_flow_into_records() {
        let q = queue();
        q.parallel_for("counted", "filter", 100, 32, |_, c| {
            c.add_instructions(10);
            c.add_bytes_read(4);
        });
        let recs = q.records();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].counters.instructions, 1000);
        assert_eq!(recs[0].counters.bytes_read, 400);
        assert_eq!(recs[0].name, "counted");
        assert_eq!(recs[0].phase, "filter");
    }

    #[test]
    fn phase_wall_time_sums_matching_records() {
        let q = queue();
        q.parallel_for("a", "filter", 10, 4, |_, _| {});
        q.parallel_for("b", "join", 10, 4, |_, _| {});
        q.parallel_for("c", "filter", 10, 4, |_, _| {});
        assert_eq!(q.records().len(), 3);
        assert!(q.phase_wall_time("filter") >= q.records()[0].wall_time);
    }

    #[test]
    fn clear_records_empties_log() {
        let q = queue();
        q.parallel_for("a", "x", 1, 1, |_, _| {});
        q.clear_records();
        assert!(q.records().is_empty());
    }

    #[test]
    fn untripped_stop_probe_changes_nothing() {
        let q = queue();
        let n = 1000;
        let count = AtomicU64::new(0);
        q.parallel_for_until(
            "k",
            "test",
            n,
            64,
            || false,
            |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(count.load(Ordering::Relaxed), n as u64);
        let rec = &q.records()[0];
        assert!(!rec.cancelled);
        assert_eq!(rec.skipped_groups, 0);
    }

    #[test]
    fn tripped_stop_probe_skips_every_group_and_marks_record() {
        let q = queue();
        q.parallel_for_until(
            "k",
            "test",
            1000,
            64,
            || true,
            |_, _| panic!("no work-item should run under a tripped probe"),
        );
        let rec = &q.records()[0];
        assert!(rec.cancelled);
        assert_eq!(rec.skipped_groups, 1000usize.div_ceil(64));
    }

    #[test]
    fn work_group_stop_probe_skips_groups_once_tripped() {
        let q = queue();
        let ran = AtomicU64::new(0);
        // Trip after the first few groups have been observed: every group
        // that starts increments `ran`; the probe trips once ran >= 4.
        q.parallel_for_work_group_until(
            "k",
            "test",
            256,
            4,
            0,
            || ran.load(Ordering::Relaxed) >= 4,
            |_ctx| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
        );
        let rec = &q.records()[0];
        assert!(rec.cancelled);
        assert!(rec.skipped_groups > 0, "some groups must be skipped");
        assert_eq!(
            rec.skipped_groups as u64 + ran.load(Ordering::Relaxed),
            256,
            "every group either ran or was skipped"
        );
    }

    #[test]
    fn transfer_records_are_never_cancelled() {
        let q = queue();
        q.record_transfer("h2d", 128, 0);
        let rec = &q.records()[0];
        assert!(!rec.cancelled);
        assert_eq!(rec.skipped_groups, 0);
    }
}
