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
        let skipped = AtomicUsize::new(0);
        let start = Instant::now();
        let num_groups = global_size.div_ceil(wg);
        (0..num_groups).into_par_iter().for_each_init(
            || WorkerCounters::new(&counters),
            |worker, g| {
                if stop() {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                let lo = g * wg;
                let hi = ((g + 1) * wg).min(global_size);
                body(lo..hi, &worker.own);
            },
        );
        let wall = start.elapsed();
        let snap = counters.lock().snapshot();
        let skipped = skipped.load(Ordering::Relaxed);
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
