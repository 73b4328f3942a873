//! Kernel operation counters.
//!
//! Kernels running on the executor account their own work — executed
//! instructions, global-memory traffic, atomic operations — into a
//! [`KernelCounters`] instance. The counters are what the analytical
//! [`crate::CostModel`] consumes to produce simulated kernel times,
//! occupancy, and instruction-roofline coordinates, standing in for the
//! hardware profilers (DCGM, Nsight Compute, VTune, Rocprof) used in §5.
//!
//! Accounting convention: kernels call the `add_*` methods with *aggregate*
//! counts per work-item (or per work-group) rather than per machine
//! instruction. Each worker thread of a launch charges its own counters
//! with plain adds, and the queue sums the workers' counters when the
//! launch ends ([`KernelCounters::absorb`]). Every count is a wrapping
//! sum, so the totals do not depend on how the work-groups were spread
//! over threads.

use std::cell::Cell;

/// Operation counters of one kernel launch, or of one worker thread's
/// share of it (not `Sync`: a worker charges its own).
#[derive(Debug, Default)]
pub struct KernelCounters {
    instructions: Cell<u64>,
    bytes_read: Cell<u64>,
    bytes_written: Cell<u64>,
    atomic_ops: Cell<u64>,
    /// Bitmap words actually loaded (word-granular traffic, Figures 8/9).
    word_reads: Cell<u64>,
    /// Sum of per-work-item trip counts, for divergence estimation.
    trip_sum: Cell<u64>,
    /// Sum of squared trip counts.
    trip_sq_sum: Cell<u64>,
    /// Number of work-items that reported a trip count.
    trip_n: Cell<u64>,
}

/// Adds `n` to a counter, wrapping like an atomic `fetch_add`.
#[inline]
fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get().wrapping_add(n));
}

/// An immutable snapshot of [`KernelCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CounterSnapshot {
    /// Executed (modeled) instructions.
    pub instructions: u64,
    /// Bytes read from global memory.
    pub bytes_read: u64,
    /// Bytes written to global memory.
    pub bytes_written: u64,
    /// Atomic read-modify-write operations.
    pub atomic_ops: u64,
    /// Bitmap words loaded from global memory. Word-granular reads are
    /// *also* included in `bytes_read` (at the modeled word width); this
    /// field keeps the word count itself visible so traffic per word
    /// width can be compared across configurations.
    pub word_reads: u64,
    /// Coefficient of variation of per-work-item trip counts; proxies
    /// control-flow divergence (0 = perfectly uniform).
    pub divergence: f64,
}

impl CounterSnapshot {
    /// Total global-memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Instruction intensity in instructions per byte — the x-axis of the
    /// instruction roofline (Figure 9).
    pub fn instruction_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            f64::INFINITY
        } else {
            self.instructions as f64 / b as f64
        }
    }

    /// Merges another snapshot into this one: counts add saturating (a
    /// pathological run must clamp, not wrap, so the roofline stays
    /// monotone). `divergence` takes the max of the two inputs — the
    /// per-item trip moments are gone at snapshot granularity, so the
    /// exact pooled CV is unrecoverable; max is the conservative proxy
    /// (merging cannot make a divergent phase look uniform).
    pub fn merge(&mut self, other: &CounterSnapshot) {
        self.instructions = self.instructions.saturating_add(other.instructions);
        self.bytes_read = self.bytes_read.saturating_add(other.bytes_read);
        self.bytes_written = self.bytes_written.saturating_add(other.bytes_written);
        self.atomic_ops = self.atomic_ops.saturating_add(other.atomic_ops);
        self.word_reads = self.word_reads.saturating_add(other.word_reads);
        self.divergence = self.divergence.max(other.divergence);
    }
}

impl KernelCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds executed instructions.
    #[inline]
    pub fn add_instructions(&self, n: u64) {
        bump(&self.instructions, n);
    }

    /// Adds bytes read from global memory.
    #[inline]
    pub fn add_bytes_read(&self, n: u64) {
        bump(&self.bytes_read, n);
    }

    /// Adds bytes written to global memory.
    #[inline]
    pub fn add_bytes_written(&self, n: u64) {
        bump(&self.bytes_written, n);
    }

    /// Adds atomic read-modify-write operations (each also counts as one
    /// instruction and 2× word traffic is the caller's choice).
    #[inline]
    pub fn add_atomics(&self, n: u64) {
        bump(&self.atomic_ops, n);
    }

    /// Adds `words` word-granular bitmap loads of `word_bytes` each: the
    /// word count lands in `word_reads` and the byte volume in
    /// `bytes_read`. Kernels that scan the candidate bitmap charge each
    /// distinct word they actually touch through this method instead of
    /// estimating traffic from row lengths — the honest accounting the
    /// word-parallel scans make possible.
    #[inline]
    pub fn add_word_reads(&self, words: u64, word_bytes: u64) {
        bump(&self.word_reads, words);
        bump(&self.bytes_read, words.saturating_mul(word_bytes));
    }

    /// Records one work-item's trip count (loop iterations / visited
    /// candidates); used to estimate sub-group divergence, the effect the
    /// paper observes in the join phase (§5.1.3: "warp-level divergence:
    /// different threads process query graphs of varying size").
    #[inline]
    pub fn record_trips(&self, trips: u64) {
        bump(&self.trip_sum, trips);
        bump(&self.trip_sq_sum, trips.saturating_mul(trips));
        bump(&self.trip_n, 1);
    }

    /// Records pre-aggregated trip moments — the `sum` of trips and
    /// `sq_sum` of squared trips over `n` work-items — in one charge.
    /// Work-group kernels accumulate per-item trips locally and flush
    /// once per group; the pooled divergence estimate is exactly what `n`
    /// individual [`Self::record_trips`] calls would have produced.
    #[inline]
    pub fn record_trip_moments(&self, sum: u64, sq_sum: u64, n: u64) {
        bump(&self.trip_sum, sum);
        bump(&self.trip_sq_sum, sq_sum);
        bump(&self.trip_n, n);
    }

    /// Adds every count of `other` — one worker's share of a launch —
    /// into these counters.
    pub fn absorb(&self, other: &KernelCounters) {
        for (into, from) in self.cells().into_iter().zip(other.cells()) {
            bump(into, from.get());
        }
    }

    /// Takes a snapshot of the current totals.
    pub fn snapshot(&self) -> CounterSnapshot {
        let n = self.trip_n.get();
        let divergence = if n == 0 {
            0.0
        } else {
            let sum = self.trip_sum.get() as f64;
            let sq = self.trip_sq_sum.get() as f64;
            let mean = sum / n as f64;
            if mean <= f64::EPSILON {
                0.0
            } else {
                let var = (sq / n as f64 - mean * mean).max(0.0);
                var.sqrt() / mean
            }
        };
        CounterSnapshot {
            instructions: self.instructions.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            atomic_ops: self.atomic_ops.get(),
            word_reads: self.word_reads.get(),
            divergence,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        for c in self.cells() {
            c.set(0);
        }
    }

    fn cells(&self) -> [&Cell<u64>; 8] {
        [
            &self.instructions,
            &self.bytes_read,
            &self.bytes_written,
            &self.atomic_ops,
            &self.word_reads,
            &self.trip_sum,
            &self.trip_sq_sum,
            &self.trip_n,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_snapshot() {
        let c = KernelCounters::new();
        c.add_instructions(100);
        c.add_bytes_read(40);
        c.add_bytes_written(10);
        c.add_atomics(3);
        let s = c.snapshot();
        assert_eq!(s.instructions, 100);
        assert_eq!(s.total_bytes(), 50);
        assert_eq!(s.atomic_ops, 3);
        assert!((s.instruction_intensity() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn word_reads_count_words_and_bytes() {
        let c = KernelCounters::new();
        c.add_bytes_read(5);
        c.add_word_reads(3, 8);
        let s = c.snapshot();
        assert_eq!(s.word_reads, 3);
        assert_eq!(s.bytes_read, 5 + 24);
        c.reset();
        assert_eq!(c.snapshot().word_reads, 0);
    }

    #[test]
    fn intensity_with_zero_bytes_is_infinite() {
        let c = KernelCounters::new();
        c.add_instructions(5);
        assert!(c.snapshot().instruction_intensity().is_infinite());
    }

    #[test]
    fn divergence_zero_for_uniform_trips() {
        let c = KernelCounters::new();
        for _ in 0..32 {
            c.record_trips(10);
        }
        assert!(c.snapshot().divergence.abs() < 1e-12);
    }

    #[test]
    fn divergence_positive_for_skewed_trips() {
        let c = KernelCounters::new();
        for i in 0..32u64 {
            c.record_trips(if i == 0 { 1000 } else { 1 });
        }
        assert!(c.snapshot().divergence > 1.0);
    }

    #[test]
    fn trip_moments_match_per_item_recording() {
        let per_item = KernelCounters::new();
        let pooled = KernelCounters::new();
        let trips = [0u64, 3, 3, 17, 1];
        for &t in &trips {
            per_item.record_trips(t);
        }
        let sum: u64 = trips.iter().sum();
        let sq: u64 = trips.iter().map(|t| t * t).sum();
        pooled.record_trip_moments(sum, sq, trips.len() as u64);
        assert_eq!(per_item.snapshot(), pooled.snapshot());
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = KernelCounters::new();
        c.add_instructions(7);
        c.record_trips(3);
        c.reset();
        let s = c.snapshot();
        assert_eq!(s.instructions, 0);
        assert_eq!(s.divergence, 0.0);
    }

    #[test]
    fn merge_sums_counts_and_takes_max_divergence() {
        let a = KernelCounters::new();
        a.add_instructions(10);
        a.add_word_reads(2, 8);
        a.record_trips(5);
        a.record_trips(5);
        let b = KernelCounters::new();
        b.add_instructions(30);
        b.add_bytes_written(7);
        b.record_trips(1);
        b.record_trips(99);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut m = sa;
        m.merge(&sb);
        assert_eq!(m.instructions, 40);
        assert_eq!(m.word_reads, 2);
        assert_eq!(m.bytes_read, 16);
        assert_eq!(m.bytes_written, 7);
        assert_eq!(m.divergence, sa.divergence.max(sb.divergence));
        assert!(m.divergence > 0.9); // b's skew survives the merge
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = CounterSnapshot {
            instructions: u64::MAX - 1,
            bytes_read: u64::MAX,
            ..Default::default()
        };
        let b = CounterSnapshot {
            instructions: 1000,
            bytes_read: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, u64::MAX);
        assert_eq!(a.bytes_read, u64::MAX);
    }

    #[test]
    fn merge_with_empty_snapshot_is_identity() {
        let c = KernelCounters::new();
        c.add_instructions(5);
        c.record_trips(1);
        c.record_trips(3);
        let s = c.snapshot();
        let mut m = s;
        m.merge(&CounterSnapshot::default());
        assert_eq!(m, s);
    }

    #[test]
    fn divergence_is_zero_when_no_trips_recorded() {
        let c = KernelCounters::new();
        c.add_instructions(10);
        let s = c.snapshot();
        assert_eq!(s.divergence, 0.0);
        assert!(s.divergence.is_finite());
    }

    #[test]
    fn divergence_is_zero_for_a_single_trip_sample() {
        let c = KernelCounters::new();
        c.record_trips(1234);
        let s = c.snapshot();
        // One sample: variance is exactly zero, CV must not go NaN.
        assert!(s.divergence.abs() < 1e-9, "{}", s.divergence);
        assert!(s.divergence.is_finite());
    }

    #[test]
    fn divergence_handles_all_zero_trips() {
        let c = KernelCounters::new();
        c.record_trips(0);
        c.record_trips(0);
        // Mean is zero: CV is defined as 0 rather than 0/0.
        assert_eq!(c.snapshot().divergence, 0.0);
    }

    #[test]
    fn divergence_stays_finite_on_huge_trip_counts() {
        // The squared-trip accumulator saturates per item; the result may
        // lose precision at this scale but must never go NaN/inf.
        let c = KernelCounters::new();
        c.record_trips(u64::MAX);
        c.record_trips(u64::MAX);
        assert!(c.snapshot().divergence.is_finite());
    }

    #[test]
    fn concurrent_accumulation_is_lossless() {
        // Eight workers charge their own counters and absorb them into one
        // total, as a launch's workers do: the total equals one counter
        // that saw every charge, whatever the split.
        let total = std::sync::Mutex::new(KernelCounters::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let total = &total;
                scope.spawn(move || {
                    let own = KernelCounters::new();
                    for i in 0..1000 {
                        own.add_instructions(1);
                        own.add_word_reads(t, 8);
                        own.record_trips(i % 7 + t);
                    }
                    total.lock().unwrap().absorb(&own);
                });
            }
        });
        let one = KernelCounters::new();
        for t in 0..8u64 {
            for i in 0..1000 {
                one.add_instructions(1);
                one.add_word_reads(t, 8);
                one.record_trips(i % 7 + t);
            }
        }
        let total = total.into_inner().unwrap().snapshot();
        assert_eq!(total.instructions, 8000);
        assert_eq!(total, one.snapshot());
    }
}
