//! The run governor: resource budgets, cooperative cancellation, and
//! honest partial-result verdicts.
//!
//! SIGMo's join phase is worst-case exponential. The paper copes by
//! bounding query size (≤ 30 nodes) and leaning on the filter, but a
//! production screening service must survive the pathological tail:
//! wildcard-heavy patterns over near-clique molecules can make a single
//! (query, data) pair run essentially forever. The [`Governor`] gives
//! every execution path a way to stop *cooperatively* — at word
//! granularity, never per bit, so the hot-path discipline of the
//! word-parallel kernels holds — and every report an honest
//! [`Completion`] verdict instead of a silent hang or a silently wrong
//! total.
//!
//! ## Budget semantics
//!
//! * **Wall-clock deadline** — global; checked by each work-group's
//!   [`GovernorTicker`] once per heartbeat stride (one `Instant::now()`
//!   per [`HEARTBEAT_STRIDE`] join steps), so the latency to notice an
//!   expired deadline is bounded by one stride of DFS steps per
//!   work-item.
//! * **Join-step budget** — *per data-graph work-group*, enforced on a
//!   ticker-local counter, and deliberately **not** latched into the
//!   global stop flag: a group that exhausts its allowance stops itself
//!   and records the verdict, while every other group still runs to its
//!   own allowance. Work-groups are independent, so a step-budget
//!   truncation is bit-deterministic across scheduler interleavings and
//!   thread counts (see `tests/determinism_queue.rs`); a global latch
//!   would make the surviving subset depend on which group tripped first.
//! * **Embedding cap** — global across the run. Each ticker gathers the
//!   embeddings its group finds (a join representative brings its whole
//!   class) and adds them to the shared count once per heartbeat, at
//!   group end, or at once when it alone holds the cap: one shared
//!   atomic per embedding bounced its cache line between cores. The run
//!   trips once the shared count reaches the cap.
//! * **Cancellation** — an external [`CancelToken`] flipped by another
//!   thread (a request handler, a stream supervisor); folded into the
//!   latch at each heartbeat.
//!
//! Once a *global* budget trips (deadline, cap, cancellation), the
//! governor *latches*: [`Governor::stopped`] is a single relaxed load
//! that every kernel loop consults. The first reason recorded — local or
//! global — wins and is what [`Governor::completion`] reports.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Join steps between heartbeats (deadline + cancellation checks). One
/// `Instant::now()` per stride keeps the ticker overhead well under 2% of
/// the modeled ~100 instructions per DFS step.
pub const HEARTBEAT_STRIDE: u32 = 256;

/// Why a run was truncated.
///
/// The `Ord` derive follows declaration order (which matches the wire
/// codes): [`Completion::merge_symmetric`] relies on it to pick an
/// order-invariant winner when folding partial shard reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TruncationReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// A work-group exhausted its join-step budget.
    StepBudget,
    /// The global embedding cap was reached.
    EmbeddingCap,
    /// The [`CancelToken`] was cancelled externally.
    Cancelled,
    /// The serving shard owning the molecule exhausted every replica
    /// (sharded serving's degraded path): zero counts are reported as a
    /// sound lower bound instead of failing the request.
    ShardUnavailable,
}

impl TruncationReason {
    fn code(self) -> u8 {
        match self {
            TruncationReason::Deadline => 1,
            TruncationReason::StepBudget => 2,
            TruncationReason::EmbeddingCap => 3,
            TruncationReason::Cancelled => 4,
            TruncationReason::ShardUnavailable => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(TruncationReason::Deadline),
            2 => Some(TruncationReason::StepBudget),
            3 => Some(TruncationReason::EmbeddingCap),
            4 => Some(TruncationReason::Cancelled),
            5 => Some(TruncationReason::ShardUnavailable),
            _ => None,
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TruncationReason::Deadline => "deadline",
            TruncationReason::StepBudget => "step-budget",
            TruncationReason::EmbeddingCap => "embedding-cap",
            TruncationReason::Cancelled => "cancelled",
            TruncationReason::ShardUnavailable => "shard-unavailable",
        };
        f.write_str(s)
    }
}

/// The verdict attached to every report: did the run see the whole search
/// space, or was it cut short?
///
/// `Truncated` results are *sound but incomplete*: every reported
/// embedding is a real embedding and every reported matched pair really
/// matches, but absent matches prove nothing. See DESIGN.md §8 for the
/// full degradation contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// The full search space was explored; totals are exact.
    #[default]
    Complete,
    /// The run stopped early for the given reason; totals are a lower
    /// bound.
    Truncated(TruncationReason),
}

impl Completion {
    /// True when the run explored everything.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Folds two verdicts: the first truncation wins.
    pub fn merge(self, other: Completion) -> Completion {
        match self {
            Completion::Complete => other,
            truncated => truncated,
        }
    }

    /// Folds two verdicts symmetrically: when both are truncated, the
    /// reason with the smaller wire code wins regardless of argument
    /// order. The shard scatter/gather path merges partial reports and
    /// must produce the same verdict whatever order the shards land in
    /// (unlike [`Completion::merge`], whose first-truncation-wins rule is
    /// deliberately order-sensitive for sequential streams).
    pub fn merge_symmetric(self, other: Completion) -> Completion {
        match (self, other) {
            (Completion::Complete, c) | (c, Completion::Complete) => c,
            (Completion::Truncated(a), Completion::Truncated(b)) => Completion::Truncated(a.min(b)),
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Complete => f.write_str("complete"),
            Completion::Truncated(r) => write!(f, "truncated ({r})"),
        }
    }
}

/// Resource limits for one run. All limits default to `None` (unlimited);
/// an all-`None` budget makes the governor a no-op whose only cost is one
/// relaxed load per consulted step.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock limit for the whole run.
    pub deadline: Option<Duration>,
    /// Join-step limit *per data-graph work-group* (deterministic across
    /// thread counts; see the module docs).
    pub max_join_steps: Option<u64>,
    /// Global cap on embeddings found across the run.
    pub max_embeddings: Option<u64>,
}

impl RunBudget {
    /// No limits.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when every limit is `None`.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_join_steps.is_none() && self.max_embeddings.is_none()
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets the per-work-group join-step budget.
    pub fn with_step_budget(mut self, steps: u64) -> Self {
        self.max_join_steps = Some(steps);
        self
    }

    /// Sets the global embedding cap.
    pub fn with_embedding_cap(mut self, cap: u64) -> Self {
        self.max_embeddings = Some(cap);
        self
    }
}

/// A cheap shared cancellation flag. Clone it into a request handler or
/// supervisor thread and call [`cancel`](CancelToken::cancel); every
/// governor built over the token notices at its next heartbeat.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    // sigmo-lint: allow(relaxed-read-in-report) — cooperative cancel
    // probe: any observed interleaving is a valid cancellation outcome,
    // and the verdict itself latches once (see `record_reason`).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

struct GovernorInner {
    deadline: Option<Instant>,
    step_budget: Option<u64>,
    embedding_cap: Option<u64>,
    cancel: CancelToken,
    embeddings: AtomicU64,
    steps: AtomicU64,
    stop: AtomicBool,
    reason: AtomicU8,
}

/// Shared run-governor handle. Cloning is cheap (one `Arc`); every clone
/// observes the same latch, so a tripped global budget stops the whole
/// run cooperatively (step budgets stay work-group-local by design).
#[derive(Clone)]
pub struct Governor {
    inner: Arc<GovernorInner>,
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("deadline", &self.inner.deadline)
            .field("step_budget", &self.inner.step_budget)
            .field("embedding_cap", &self.inner.embedding_cap)
            .field("stopped", &self.stopped())
            .field("completion", &self.completion())
            .finish()
    }
}

impl Default for Governor {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl Governor {
    /// A governor with no limits and no external cancel: `stopped()` is
    /// always false, every consult is one relaxed load, and runs behave
    /// bit-identically to the pre-governor engine.
    pub fn unlimited() -> Self {
        Self::new(&RunBudget::none())
    }

    /// A governor enforcing `budget`, with a private cancel token. The
    /// deadline clock starts now.
    pub fn new(budget: &RunBudget) -> Self {
        Self::with_cancel(budget, CancelToken::new())
    }

    /// A governor enforcing `budget` and observing an external cancel
    /// token. The deadline clock starts now.
    // sigmo-lint: allow(wall-clock-in-result) — deadline budgeting is
    // wall-clock by definition; the determinism suites run unbudgeted
    // governors, where this branch never executes.
    pub fn with_cancel(budget: &RunBudget, cancel: CancelToken) -> Self {
        let gov = Self {
            inner: Arc::new(GovernorInner {
                deadline: budget.deadline.map(|d| Instant::now() + d),
                step_budget: budget.max_join_steps,
                embedding_cap: budget.max_embeddings,
                cancel,
                embeddings: AtomicU64::new(0),
                steps: AtomicU64::new(0),
                stop: AtomicBool::new(false),
                reason: AtomicU8::new(0),
            }),
        };
        // Catch a pre-cancelled token or an already-expired deadline
        // before any kernel launches.
        gov.heartbeat();
        gov
    }

    /// The cancel token this governor observes.
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Whether the run has been stopped. One relaxed load — this is the
    /// consult every kernel loop performs.
    // sigmo-lint: allow(relaxed-read-in-report) — monotonic stop latch:
    // a late observation only lets a group finish work it would have
    // done anyway; reported totals never subtract.
    #[inline]
    pub fn stopped(&self) -> bool {
        self.inner.stop.load(Ordering::Relaxed)
    }

    /// Latches the global stop flag with `reason`. The first recorded
    /// reason wins the verdict; the stop flag latches regardless, so a
    /// deadline expiring after a local step-budget verdict still stops
    /// the run.
    pub fn trip(&self, reason: TruncationReason) {
        self.record_reason(reason);
        self.inner.stop.store(true, Ordering::Relaxed);
    }

    /// Records the truncation verdict *without* touching the global stop
    /// flag — the step-budget path, where stopping other work-groups
    /// would make truncated totals interleaving-dependent.
    fn record_reason(&self, reason: TruncationReason) {
        let _ = self.inner.reason.compare_exchange(
            0,
            reason.code(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Checks the wall clock and the cancel token, latching on expiry.
    /// Returns the latched state. Called once per [`HEARTBEAT_STRIDE`]
    /// steps by tickers, and at phase boundaries by the engine.
    // sigmo-lint: allow(wall-clock-in-result) — the deadline probe is
    // wall-clock by definition (see `with_cancel`); unbudgeted governors
    // skip it entirely.
    pub fn heartbeat(&self) -> bool {
        if self.inner.cancel.is_cancelled() {
            self.trip(TruncationReason::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                self.trip(TruncationReason::Deadline);
            }
        }
        self.stopped()
    }

    /// A fresh ticker for one work-group. Performs an immediate heartbeat
    /// so an expired deadline or a cancelled token stops the group before
    /// its first step.
    pub fn ticker(&self) -> GovernorTicker {
        self.heartbeat();
        GovernorTicker {
            steps: 0,
            budget: self.inner.step_budget.unwrap_or(u64::MAX),
            countdown: HEARTBEAT_STRIDE,
            embeddings: 0,
            cap: self.inner.embedding_cap.unwrap_or(u64::MAX),
        }
    }

    /// Adds a ticker's gathered embeddings to the shared count, tripping
    /// the cap once the count reaches it. Returns true when it tripped.
    // sigmo-lint: allow(uncharged-access) — governor budget bookkeeping,
    // not modeled device traffic; the cost model prices bitmap and CSR
    // words, not control-plane atomics.
    fn flush_embeddings(&self, ticker: &mut GovernorTicker) -> bool {
        let n = std::mem::take(&mut ticker.embeddings);
        let seen = self.inner.embeddings.fetch_add(n, Ordering::Relaxed) + n;
        let tripped = seen >= ticker.cap;
        if tripped {
            self.trip(TruncationReason::EmbeddingCap);
        }
        tripped
    }

    /// Flushes a ticker into the shared totals: its steps (diagnostics
    /// only — enforcement is ticker-local) and its gathered embeddings
    /// (which may trip the cap). Call when a work-group finishes or trips.
    // sigmo-lint: allow(uncharged-access) — governor bookkeeping, not
    // modeled device traffic (see `flush_embeddings`).
    pub fn flush_ticker(&self, ticker: &mut GovernorTicker) {
        self.inner.steps.fetch_add(ticker.steps, Ordering::Relaxed);
        if ticker.embeddings > 0 {
            self.flush_embeddings(ticker);
        }
    }

    /// Total join steps flushed by finished work-groups.
    pub fn steps_charged(&self) -> u64 {
        self.inner.steps.load(Ordering::Relaxed)
    }

    /// Total embeddings charged against the cap.
    pub fn embeddings_charged(&self) -> u64 {
        self.inner.embeddings.load(Ordering::Relaxed)
    }

    /// The run's verdict so far.
    // sigmo-lint: allow(relaxed-read-in-report) — the reason latches
    // exactly once via CAS and reports read it after kernels quiesce.
    pub fn completion(&self) -> Completion {
        match TruncationReason::from_code(self.inner.reason.load(Ordering::Relaxed)) {
            Some(reason) => Completion::Truncated(reason),
            None => Completion::Complete,
        }
    }
}

/// Per-work-group step ticker. Kernel loops call
/// [`GovernorTicker::tick`] once per join step (each step touches whole
/// bitmap words / adjacency runs — word granularity, never per bit);
/// the common path is two integer compares, a decrement and one relaxed
/// load.
#[derive(Debug)]
pub struct GovernorTicker {
    steps: u64,
    budget: u64,
    countdown: u32,
    /// Embeddings found since the last flush (only counted under a cap).
    embeddings: u64,
    /// The embedding cap, `u64::MAX` when there is none.
    cap: u64,
}

impl GovernorTicker {
    /// Charges one step; returns true when the group must stop (its step
    /// budget is exhausted, the deadline expired, the token was
    /// cancelled, or a global budget already tripped the governor).
    #[inline]
    pub fn tick(&mut self, gov: &Governor) -> bool {
        self.steps += 1;
        if self.steps >= self.budget {
            // Local stop only: the verdict is recorded, but other groups
            // keep running to their own allowances (determinism).
            gov.record_reason(TruncationReason::StepBudget);
            return true;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = HEARTBEAT_STRIDE;
            if self.embeddings > 0 {
                gov.flush_embeddings(self);
            }
            return gov.heartbeat();
        }
        gov.stopped()
    }

    /// Charges `n` found embeddings against the run's embedding cap. They
    /// gather here and reach the shared count at the next heartbeat, at
    /// [`Governor::flush_ticker`], or at once when this ticker alone
    /// holds the cap. Returns true when that flush tripped the cap. With
    /// no cap this is one compare.
    #[inline]
    pub fn note_embeddings(&mut self, gov: &Governor, n: u64) -> bool {
        if self.cap == u64::MAX {
            return false;
        }
        self.embeddings += n;
        self.embeddings >= self.cap && gov.flush_embeddings(self)
    }

    /// Steps charged by this ticker so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether this ticker exhausted its *local* step budget. Unlike the
    /// global latch, a local trip is a deterministic property of the
    /// work-group's own workload — the serving layer uses it to attribute
    /// truncation to individual data graphs (DESIGN.md §9).
    pub fn tripped(&self) -> bool {
        self.steps >= self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_merge_is_order_invariant() {
        let reasons = [
            TruncationReason::Deadline,
            TruncationReason::StepBudget,
            TruncationReason::EmbeddingCap,
            TruncationReason::Cancelled,
            TruncationReason::ShardUnavailable,
        ];
        for &a in &reasons {
            for &b in &reasons {
                let ab = Completion::Truncated(a).merge_symmetric(Completion::Truncated(b));
                let ba = Completion::Truncated(b).merge_symmetric(Completion::Truncated(a));
                assert_eq!(ab, ba, "symmetric merge must not depend on order");
            }
            assert_eq!(
                Completion::Complete.merge_symmetric(Completion::Truncated(a)),
                Completion::Truncated(a)
            );
            assert_eq!(
                Completion::Truncated(a).merge_symmetric(Completion::Complete),
                Completion::Truncated(a)
            );
        }
        assert_eq!(
            Completion::Complete.merge_symmetric(Completion::Complete),
            Completion::Complete
        );
    }

    #[test]
    fn shard_unavailable_round_trips_through_codes() {
        let r = TruncationReason::ShardUnavailable;
        assert_eq!(TruncationReason::from_code(r.code()), Some(r));
        assert_eq!(r.to_string(), "shard-unavailable");
    }

    #[test]
    fn unlimited_governor_never_stops() {
        let gov = Governor::unlimited();
        let mut t = gov.ticker();
        for _ in 0..10 * HEARTBEAT_STRIDE as u64 {
            assert!(!t.tick(&gov));
        }
        assert_eq!(gov.completion(), Completion::Complete);
        assert!(!gov.stopped());
    }

    #[test]
    fn step_budget_trips_exactly_at_the_budget() {
        let gov = Governor::new(&RunBudget::none().with_step_budget(100));
        let mut t = gov.ticker();
        for i in 1..100 {
            assert!(!t.tick(&gov), "tripped early at step {i}");
        }
        assert!(t.tick(&gov), "must trip at step 100");
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::StepBudget)
        );
    }

    #[test]
    fn step_budget_is_per_ticker_and_does_not_stop_other_groups() {
        // Each work-group gets its own allowance. Group a exhausting its
        // budget records the verdict but must NOT latch the global stop —
        // group b still runs its full allowance, which is what makes
        // step-budget truncation deterministic across thread counts.
        let gov = Governor::new(&RunBudget::none().with_step_budget(10));
        let mut a = gov.ticker();
        for _ in 0..9 {
            assert!(!a.tick(&gov));
        }
        assert!(a.tick(&gov));
        assert!(!gov.stopped(), "a local trip must not stop the run");
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::StepBudget)
        );
        let mut b = gov.ticker();
        for i in 1..10 {
            assert!(!b.tick(&gov), "b stopped early at its step {i}");
        }
        assert!(b.tick(&gov), "b trips at its own 10th step");
    }

    #[test]
    fn global_trip_after_local_verdict_still_stops_the_run() {
        // A deadline expiring after a step-budget verdict must still
        // latch the stop flag, even though the reason slot is taken.
        let gov = Governor::new(&RunBudget::none().with_step_budget(1));
        let mut t = gov.ticker();
        assert!(t.tick(&gov));
        assert!(!gov.stopped());
        gov.trip(TruncationReason::Deadline);
        assert!(gov.stopped(), "global trip must latch");
        // First recorded reason still wins the verdict.
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::StepBudget)
        );
    }

    #[test]
    fn expired_deadline_trips_at_heartbeat() {
        let gov = Governor::new(&RunBudget::none().with_deadline(Duration::ZERO));
        // The constructor's heartbeat already latched.
        assert!(gov.stopped());
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::Deadline)
        );
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let gov = Governor::new(&RunBudget::none().with_deadline(Duration::from_secs(3600)));
        let mut t = gov.ticker();
        for _ in 0..2 * HEARTBEAT_STRIDE as u64 {
            assert!(!t.tick(&gov));
        }
        assert_eq!(gov.completion(), Completion::Complete);
    }

    #[test]
    fn cancel_token_stops_at_next_heartbeat() {
        let token = CancelToken::new();
        let gov = Governor::with_cancel(&RunBudget::none(), token.clone());
        let mut t = gov.ticker();
        assert!(!t.tick(&gov));
        token.cancel();
        // Within one stride the heartbeat notices.
        let mut tripped = false;
        for _ in 0..HEARTBEAT_STRIDE as u64 + 1 {
            if t.tick(&gov) {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::Cancelled)
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_step() {
        let token = CancelToken::new();
        token.cancel();
        let gov = Governor::with_cancel(&RunBudget::none(), token);
        assert!(gov.stopped());
        let mut t = gov.ticker();
        assert!(t.tick(&gov));
    }

    #[test]
    fn embedding_cap_trips_globally() {
        let gov = Governor::new(&RunBudget::none().with_embedding_cap(3));
        let mut t = gov.ticker();
        assert!(!t.note_embeddings(&gov, 1));
        assert!(!t.note_embeddings(&gov, 1));
        assert!(
            t.note_embeddings(&gov, 1),
            "third embedding reaches the cap"
        );
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::EmbeddingCap)
        );
        assert_eq!(gov.embeddings_charged(), 3);
    }

    #[test]
    fn embeddings_of_many_tickers_trip_at_a_flush() {
        // Neither ticker holds the cap alone; their sum does. The shared
        // count learns of it at the flushes, and the run trips there.
        let gov = Governor::new(&RunBudget::none().with_embedding_cap(10));
        let mut a = gov.ticker();
        let mut b = gov.ticker();
        assert!(!a.note_embeddings(&gov, 6));
        assert!(!b.note_embeddings(&gov, 6));
        assert_eq!(gov.embeddings_charged(), 0, "nothing flushed yet");
        gov.flush_ticker(&mut a);
        assert!(!gov.stopped());
        gov.flush_ticker(&mut b);
        assert!(gov.stopped());
        assert_eq!(gov.embeddings_charged(), 12);
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::EmbeddingCap)
        );
        // A heartbeat flushes too.
        let gov = Governor::new(&RunBudget::none().with_embedding_cap(10));
        let mut t = gov.ticker();
        assert!(!t.note_embeddings(&gov, 4));
        for _ in 0..HEARTBEAT_STRIDE {
            t.tick(&gov);
        }
        assert_eq!(gov.embeddings_charged(), 4);
    }

    #[test]
    fn uncapped_tickers_count_nothing() {
        let gov = Governor::unlimited();
        let mut t = gov.ticker();
        assert!(!t.note_embeddings(&gov, u64::MAX / 2));
        gov.flush_ticker(&mut t);
        assert_eq!(gov.embeddings_charged(), 0);
    }

    #[test]
    fn first_trip_reason_wins() {
        let gov = Governor::unlimited();
        gov.trip(TruncationReason::StepBudget);
        gov.trip(TruncationReason::Deadline);
        assert_eq!(
            gov.completion(),
            Completion::Truncated(TruncationReason::StepBudget)
        );
    }

    #[test]
    fn completion_merge_prefers_truncation() {
        let c = Completion::Complete;
        let t = Completion::Truncated(TruncationReason::Deadline);
        assert_eq!(c.merge(t), t);
        assert_eq!(t.merge(c), t);
        assert_eq!(c.merge(c), c);
        let t2 = Completion::Truncated(TruncationReason::Cancelled);
        assert_eq!(t.merge(t2), t);
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Completion::Complete.to_string(), "complete");
        assert_eq!(
            Completion::Truncated(TruncationReason::Deadline).to_string(),
            "truncated (deadline)"
        );
        assert_eq!(
            Completion::Truncated(TruncationReason::StepBudget).to_string(),
            "truncated (step-budget)"
        );
    }

    #[test]
    fn flushed_steps_accumulate() {
        let gov = Governor::unlimited();
        let mut a = gov.ticker();
        let mut b = gov.ticker();
        for _ in 0..5 {
            a.tick(&gov);
        }
        for _ in 0..7 {
            b.tick(&gov);
        }
        gov.flush_ticker(&mut a);
        gov.flush_ticker(&mut b);
        assert_eq!(gov.steps_charged(), 12);
        assert_eq!(a.steps(), 5);
    }

    #[test]
    fn budget_builder_and_unlimited_flag() {
        assert!(RunBudget::none().is_unlimited());
        let b = RunBudget::none()
            .with_deadline(Duration::from_secs(2))
            .with_step_budget(1000)
            .with_embedding_cap(10);
        assert!(!b.is_unlimited());
        assert_eq!(b.max_join_steps, Some(1000));
        assert_eq!(b.max_embeddings, Some(10));
        assert_eq!(b.deadline, Some(Duration::from_secs(2)));
    }
}
