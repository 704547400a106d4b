//! Request coalescing: a micro-batching queue in front of the snapshot
//! read path.
//!
//! Every concurrent caller that scores pairs one at a time pays the full
//! per-pair extraction cost; the batch path
//! ([`ScoringSnapshot::score_batch`]) shares one borrowed extraction
//! cache and the snapshot's score memo across the batch, which pays
//! where pairs repeat or share endpoints. The [`Coalescer`] routes live
//! traffic into that path: requests from any number of submitter threads
//! queue in FIFO order, and a worker closes them into `score_batch`
//! calls. Three policies close a batch:
//!
//! * **`max_batch`** — the queue holds a full batch.
//! * **`max_delay`** — the oldest queued request has waited long enough
//!   (latency bound; a lone request never waits forever).
//! * **Epoch change** — a new snapshot was staged with
//!   [`Coalescer::set_snapshot`]; pending requests flush against the
//!   epoch they were admitted under before the swap takes effect.
//!
//! Admission is controlled, never blocking and never panicking: a full
//! queue returns [`Rejection::Overloaded`] immediately, and a request
//! whose deadline budget is already spent returns
//! [`Rejection::DeadlineExceeded`]. Requests that expire *while queued*
//! are rejected at batch-close time, strictly before any extraction work
//! is spent on them. Every rejected request increments exactly one of
//! `ssf.serve.rejected` (overload) or `ssf.serve.deadline_miss`
//! (deadline, at admission or in queue).
//!
//! Coalescing reorders *work*, never *values*: a batch is scored with
//! [`BatchScorer::score_batch_threads`], which is bit-identical to
//! scoring each pair alone (caches memoize values the pipeline would
//! recompute identically — the PR 2/4 contract). `tests/serving_slo.rs`
//! pins this with an interleaving proptest.
//!
//! Time is injected through [`Clock`], so every close policy is testable
//! with a [`MockClock`] and zero wall-clock sleeps; production uses
//! [`SystemClock`] and [`Coalescer::run_worker`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use dyngraph::NodeId;
use obs::ObsHandle;

use crate::error::{ConfigError, SsfError};
use crate::serve::ScoringSnapshot;

/// A monotonic nanosecond clock the coalescer schedules against.
///
/// Production uses [`SystemClock`]; deterministic tests inject a
/// [`MockClock`] and advance it explicitly, so `max_delay` and deadline
/// behaviour is exact rather than sleep-and-hope.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary fixed origin. Must never decrease.
    fn now_ns(&self) -> u64;
}

/// The production [`Clock`]: monotonic time from [`Instant`].
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        SystemClock {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now_ns(&self) -> u64 {
        // Saturate far beyond any realistic process lifetime.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A manually-advanced [`Clock`] for deterministic tests: time moves
/// only when [`MockClock::advance`] (or [`MockClock::set`]) is called.
#[derive(Debug, Default)]
pub struct MockClock {
    now: AtomicU64,
}

impl MockClock {
    /// A clock frozen at t = 0 ns.
    pub fn new() -> Self {
        MockClock::default()
    }

    /// Moves time forward by `ns` nanoseconds.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }

    /// Jumps to an absolute instant; saturates monotonically (the clock
    /// never goes backwards, matching the [`Clock`] contract).
    pub fn set(&self, ns: u64) {
        self.now.fetch_max(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

/// Anything the coalescer can drain a batch into.
///
/// Implemented by [`ScoringSnapshot`]; tests wrap it to count exactly
/// which pairs reach extraction. The contract inherited from the serve
/// layer: `score_batch_threads` must be bit-identical to scoring each
/// pair alone, at every thread count and batch split.
pub trait BatchScorer: Send + Sync {
    /// A value that changes whenever the scorer's answers could change
    /// (the snapshot epoch). [`Coalescer::set_snapshot`] flushes pending
    /// requests before installing a scorer with a different key.
    fn epoch_key(&self) -> u64;

    /// Scores `pairs` in order, fanned over up to `threads` workers.
    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>>;
}

impl BatchScorer for ScoringSnapshot {
    /// The publish epoch, mixed with the sliding window in force (if
    /// any): epoch-staged batching must also never mix two snapshots
    /// that happen to share a revision but disagree on the window, so
    /// the window bits fold into the key with one FNV-style multiply.
    /// Unbounded snapshots keep the bare epoch.
    fn epoch_key(&self) -> u64 {
        match self.window() {
            None => self.epoch(),
            Some(w) => {
                let wbits = (u64::from(w.width) << 32) | u64::from(w.horizon);
                (self.epoch() ^ wbits).wrapping_mul(0x0000_0100_0000_01b3)
            }
        }
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        self.score_batch_parallel(pairs, threads)
    }
}

/// Why a request was rejected instead of scored.
///
/// Rejections are values, not panics: the serving loop stays up under
/// overload and expired budgets, and callers can distinguish "shed this
/// request" ([`Rejection::Overloaded`] — retry against another replica)
/// from "too late to be useful" ([`Rejection::DeadlineExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejection {
    /// The bounded queue was full at admission. Carries the observed
    /// depth and the configured capacity.
    Overloaded {
        /// Queue depth at the rejected admission.
        depth: usize,
        /// Configured [`CoalesceConfig::queue_capacity`].
        capacity: usize,
    },
    /// The request's deadline passed — at admission, or while it sat in
    /// the queue (always before any extraction work was spent on it).
    DeadlineExceeded,
    /// The coalescer was shut down before the request could be scored.
    ShutDown,
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Overloaded { depth, capacity } => write!(
                f,
                "overloaded: queue depth {depth} at capacity {capacity}"
            ),
            Rejection::DeadlineExceeded => {
                write!(f, "deadline exceeded before scoring")
            }
            Rejection::ShutDown => write!(f, "coalescer shut down"),
        }
    }
}

impl std::error::Error for Rejection {}

/// Micro-batching queue configuration. Construct through
/// [`CoalesceConfig::builder`]; the struct is `#[non_exhaustive]` and
/// the builder validates every degenerate value as a typed
/// [`ConfigError`] instead of silently coercing it at use sites.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct CoalesceConfig {
    /// Requests per batch at which the batch closes immediately.
    pub max_batch: usize,
    /// Oldest-request age (ns) at which a partial batch closes.
    pub max_delay_ns: u64,
    /// Bound on queued requests; admissions beyond it are
    /// [`Rejection::Overloaded`].
    pub queue_capacity: usize,
    /// Threads each batch fans out over
    /// (via [`BatchScorer::score_batch_threads`]).
    pub worker_threads: usize,
    /// Deadline budget (ns from admission) applied to [`Coalescer::
    /// submit`]; `None` means requests without an explicit budget never
    /// expire.
    pub default_deadline_ns: Option<u64>,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            max_batch: 64,
            max_delay_ns: 200_000, // 200 µs
            queue_capacity: 1024,
            worker_threads: 1,
            default_deadline_ns: None,
        }
    }
}

impl CoalesceConfig {
    /// A validating builder starting from [`Default::default`].
    pub fn builder() -> CoalesceConfigBuilder {
        CoalesceConfigBuilder {
            config: CoalesceConfig::default(),
        }
    }
}

/// Builder for [`CoalesceConfig`];
/// [`build`](CoalesceConfigBuilder::build) rejects degenerate values.
#[derive(Debug, Clone)]
pub struct CoalesceConfigBuilder {
    config: CoalesceConfig,
}

impl CoalesceConfigBuilder {
    /// Sets [`CoalesceConfig::max_batch`].
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// Sets [`CoalesceConfig::max_delay_ns`] (0 closes every batch at
    /// the first worker pass — valid, just batchless under low load).
    pub fn max_delay_ns(mut self, ns: u64) -> Self {
        self.config.max_delay_ns = ns;
        self
    }

    /// Sets [`CoalesceConfig::queue_capacity`].
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// Sets [`CoalesceConfig::worker_threads`].
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.config.worker_threads = n;
        self
    }

    /// Sets [`CoalesceConfig::default_deadline_ns`].
    pub fn default_deadline_ns(mut self, ns: Option<u64>) -> Self {
        self.config.default_deadline_ns = ns;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroBatch`] for `max_batch == 0`,
    /// [`ConfigError::ZeroQueueCapacity`] for `queue_capacity == 0`,
    /// [`ConfigError::ZeroWorkerThreads`] for `worker_threads == 0`
    /// (the serve layer's `score_batch_parallel` historically coerced 0
    /// to 1 silently; the front-end makes it a typed rejection), and
    /// [`ConfigError::ZeroDeadline`] for a zero-nanosecond default
    /// budget (every request would be born expired).
    pub fn build(self) -> Result<CoalesceConfig, SsfError> {
        let c = &self.config;
        if c.max_batch == 0 {
            return Err(ConfigError::ZeroBatch.into());
        }
        if c.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity.into());
        }
        if c.worker_threads == 0 {
            return Err(ConfigError::ZeroWorkerThreads.into());
        }
        if c.default_deadline_ns == Some(0) {
            return Err(ConfigError::ZeroDeadline.into());
        }
        Ok(self.config)
    }
}

/// Point-in-time counters of one [`Coalescer`].
///
/// The reconciliation invariants (pinned by `tests/serving_slo.rs`
/// under multi-threaded stress):
///
/// * `accepted + rejected() == submitted` — every submission is
///   accounted exactly once at admission.
/// * after a drain, `completed + expired == accepted` — every admitted
///   request is either scored or expired, never lost.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct CoalesceStats {
    /// Submission attempts, accepted or not.
    pub submitted: u64,
    /// Requests admitted into the queue.
    pub accepted: u64,
    /// Requests rejected at admission because the queue was full.
    pub rejected_overload: u64,
    /// Requests rejected at admission with an already-spent deadline.
    pub rejected_deadline: u64,
    /// Admitted requests whose deadline passed while queued (rejected at
    /// batch close, before extraction).
    pub expired: u64,
    /// Requests scored and delivered.
    pub completed: u64,
    /// Batches dispatched (empty batches are never dispatched).
    pub batches: u64,
    /// Requests pending in the queue right now.
    pub queue_depth: usize,
}

impl CoalesceStats {
    /// Requests rejected at admission, either reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_overload + self.rejected_deadline
    }

    /// Requests whose deadline budget was missed (admission + in-queue).
    pub fn deadline_misses(&self) -> u64 {
        self.rejected_deadline + self.expired
    }

    /// Mean scored-batch size; 0 when no batch was dispatched.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

/// What one [`Coalescer::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct StepReport {
    /// Requests scored in the dispatched batch (0 = no batch closed).
    pub scored: usize,
    /// Requests expired out of the queue before scoring.
    pub expired: usize,
    /// Requests still queued after the step.
    pub remaining: usize,
    /// Whether a staged snapshot was installed.
    pub snapshot_installed: bool,
}

/// Outcome slot a submitter waits on.
#[derive(Debug)]
struct TicketInner {
    slot: Mutex<Option<Result<Option<f64>, Rejection>>>,
    ready: Condvar,
}

/// A handle to one in-flight request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

impl Ticket {
    fn new() -> (Ticket, Arc<TicketInner>) {
        let inner = Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                inner: Arc::clone(&inner),
            },
            inner,
        )
    }

    /// Blocks until the request is scored or rejected.
    pub fn wait(self) -> Result<Option<f64>, Rejection> {
        let mut slot = lock(&self.inner.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: `Some` once the outcome landed.
    pub fn try_take(&self) -> Option<Result<Option<f64>, Rejection>> {
        lock(&self.inner.slot).take()
    }
}

fn fulfill(ticket: &TicketInner, outcome: Result<Option<f64>, Rejection>) {
    *lock(&ticket.slot) = Some(outcome);
    ticket.ready.notify_all();
}

/// Poison-tolerant lock: the coalescer never panics while holding a
/// lock (scoring runs outside them and catches pair panics), so a
/// poisoned mutex still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug)]
struct Pending {
    u: NodeId,
    v: NodeId,
    enqueued_ns: u64,
    deadline_ns: Option<u64>,
    ticket: Arc<TicketInner>,
}

struct State<S> {
    queue: VecDeque<Pending>,
    /// A lower bound on the queued deadlines: never later than the
    /// earliest live one, possibly earlier (a dispatch that takes the
    /// earliest request leaves it stale), `u64::MAX` when no queued
    /// request carries a deadline. Expiry scans the queue only once
    /// this bound is due, and then makes it exact again.
    earliest_deadline: u64,
    scorer: Arc<S>,
    /// Snapshot staged by [`Coalescer::set_snapshot`]; installed once
    /// the pre-swap queue has flushed.
    staged: Option<Arc<S>>,
    shutdown: bool,
}

struct Shared<S> {
    config: CoalesceConfig,
    clock: Arc<dyn Clock>,
    obs: ObsHandle,
    state: Mutex<State<S>>,
    /// Wakes the worker on submissions, snapshot swaps and shutdown.
    work: Condvar,
    /// Serializes dispatches so batches retire in FIFO order; submitters
    /// never touch it.
    step: Mutex<()>,
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected_overload: AtomicU64,
    rejected_deadline: AtomicU64,
    expired: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
}

/// The micro-batching request queue. Cheap to clone (all clones share
/// one queue); submitters call [`Coalescer::submit`] from any thread
/// while one worker drives [`Coalescer::run_worker`] — or a test drives
/// [`Coalescer::step`] directly under a [`MockClock`].
pub struct Coalescer<S> {
    shared: Arc<Shared<S>>,
}

impl<S> Clone for Coalescer<S> {
    fn clone(&self) -> Self {
        Coalescer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S: BatchScorer> fmt::Debug for Coalescer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Coalescer")
            .field("config", &self.shared.config)
            .field("stats", &stats)
            .finish()
    }
}

impl<S: BatchScorer> Coalescer<S> {
    /// A coalescer over `scorer` driven by the system clock.
    pub fn new(scorer: S, config: CoalesceConfig) -> Self {
        Self::with_clock(scorer, config, Arc::new(SystemClock::new()))
    }

    /// [`Self::new`] with an injected [`Clock`] (tests pass a
    /// [`MockClock`] and drive [`Self::step`] deterministically).
    pub fn with_clock(
        scorer: S,
        config: CoalesceConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self::with_clock_and_recorder(scorer, config, clock, ObsHandle::noop())
    }

    /// Full constructor: injected clock plus telemetry. Emits
    /// `ssf.serve.queue_depth` (gauge), `ssf.serve.batch_size` and
    /// `ssf.serve.queue_wait` (histograms; the wait runs from admission
    /// to batch close), `ssf.serve.deadline_miss`, `ssf.serve.rejected` and
    /// `ssf.serve.coalesced` (counters), and an
    /// `ssf.serve.coalesce_batch` span per dispatched batch.
    pub fn with_clock_and_recorder(
        scorer: S,
        config: CoalesceConfig,
        clock: Arc<dyn Clock>,
        obs: ObsHandle,
    ) -> Self {
        Coalescer {
            shared: Arc::new(Shared {
                config,
                clock,
                obs,
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    earliest_deadline: u64::MAX,
                    scorer: Arc::new(scorer),
                    staged: None,
                    shutdown: false,
                }),
                work: Condvar::new(),
                step: Mutex::new(()),
                submitted: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
                rejected_overload: AtomicU64::new(0),
                rejected_deadline: AtomicU64::new(0),
                expired: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                batches: AtomicU64::new(0),
            }),
        }
    }

    /// The validated configuration this coalescer runs.
    pub fn config(&self) -> &CoalesceConfig {
        &self.shared.config
    }

    /// The injected clock's current reading, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    /// Submits one pair under the configured default deadline budget.
    ///
    /// Never blocks and never panics.
    ///
    /// # Errors
    ///
    /// [`Rejection::Overloaded`] when the queue is at capacity,
    /// [`Rejection::ShutDown`] after [`Self::shutdown`]. (The default
    /// budget can never be spent at admission — it is validated > 0 —
    /// so `submit` itself never returns `DeadlineExceeded`.)
    pub fn submit(&self, u: NodeId, v: NodeId) -> Result<Ticket, Rejection> {
        let now = self.shared.clock.now_ns();
        let deadline = self
            .shared
            .config
            .default_deadline_ns
            .map(|budget| now.saturating_add(budget));
        self.admit(u, v, now, deadline)
    }

    /// Submits with an explicit budget: the request expires `budget_ns`
    /// after admission (overriding the default).
    ///
    /// # Errors
    ///
    /// [`Rejection::DeadlineExceeded`] for a zero budget (spent on
    /// arrival), plus every [`Self::submit`] rejection.
    pub fn submit_with_budget(
        &self,
        u: NodeId,
        v: NodeId,
        budget_ns: u64,
    ) -> Result<Ticket, Rejection> {
        let now = self.shared.clock.now_ns();
        self.admit(u, v, now, Some(now.saturating_add(budget_ns)))
    }

    /// Submits with an absolute deadline on the coalescer's clock
    /// ([`Self::now_ns`]); a deadline at or before "now" is rejected at
    /// admission, before the request ever occupies a queue slot.
    ///
    /// # Errors
    ///
    /// [`Rejection::DeadlineExceeded`] for a spent deadline, plus every
    /// [`Self::submit`] rejection.
    pub fn submit_with_deadline(
        &self,
        u: NodeId,
        v: NodeId,
        deadline_ns: u64,
    ) -> Result<Ticket, Rejection> {
        self.admit(u, v, self.shared.clock.now_ns(), Some(deadline_ns))
    }

    fn admit(
        &self,
        u: NodeId,
        v: NodeId,
        now: u64,
        deadline_ns: Option<u64>,
    ) -> Result<Ticket, Rejection> {
        let shared = &*self.shared;
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        // A spent budget is rejected before the queue is even consulted:
        // a dead request must not take a slot from a live one.
        if deadline_ns.is_some_and(|d| d <= now) {
            shared.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            shared.obs.counter("ssf.serve.deadline_miss", 1);
            return Err(Rejection::DeadlineExceeded);
        }
        let mut state = lock(&shared.state);
        if state.shutdown {
            drop(state);
            shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
            shared.obs.counter("ssf.serve.rejected", 1);
            return Err(Rejection::ShutDown);
        }
        let depth = state.queue.len();
        if depth >= shared.config.queue_capacity {
            drop(state);
            shared.rejected_overload.fetch_add(1, Ordering::Relaxed);
            shared.obs.counter("ssf.serve.rejected", 1);
            return Err(Rejection::Overloaded {
                depth,
                capacity: shared.config.queue_capacity,
            });
        }
        let (ticket, inner) = Ticket::new();
        if let Some(d) = deadline_ns {
            state.earliest_deadline = state.earliest_deadline.min(d);
        }
        state.queue.push_back(Pending {
            u,
            v,
            enqueued_ns: now,
            deadline_ns,
            ticket: inner,
        });
        let depth = state.queue.len();
        drop(state);
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        if shared.obs.enabled() {
            shared.obs.gauge("ssf.serve.queue_depth", depth as f64);
        }
        shared.work.notify_one();
        Ok(ticket)
    }

    /// Stages a new snapshot. Requests already queued flush against the
    /// snapshot they were admitted under — the staged one is installed
    /// by the worker only once that queue has drained, so no batch ever
    /// mixes epochs. When the queue is empty the swap is immediate.
    pub fn set_snapshot(&self, scorer: S) {
        let mut state = lock(&self.shared.state);
        if state.queue.is_empty() {
            state.scorer = Arc::new(scorer);
            state.staged = None;
        } else {
            state.staged = Some(Arc::new(scorer));
        }
        drop(state);
        self.shared.work.notify_one();
    }

    /// The epoch key currently being scored against (staged snapshots
    /// don't count until installed).
    pub fn current_epoch_key(&self) -> u64 {
        lock(&self.shared.state).scorer.epoch_key()
    }

    /// Runs one scheduling pass at the clock's current instant:
    /// expires dead requests, closes at most one batch if any close
    /// policy fires, and installs a staged snapshot once the queue
    /// drains. This is the deterministic core the worker loop — and the
    /// mock-clock tests — drive.
    pub fn step(&self) -> StepReport {
        self.step_at(self.shared.clock.now_ns(), false)
    }

    /// [`Self::step`], but closes any non-empty batch immediately,
    /// ignoring `max_batch`/`max_delay`. Used at shutdown and by tests.
    pub fn flush(&self) -> StepReport {
        self.step_at(self.shared.clock.now_ns(), true)
    }

    fn step_at(&self, now: u64, force: bool) -> StepReport {
        let shared = &*self.shared;
        // One dispatch at a time: batches retire in FIFO order and the
        // staged-snapshot install can't race another dispatch.
        let _dispatch = lock(&shared.step);
        let mut report = StepReport::default();
        let mut state = lock(&shared.state);

        // 1. Expire dead requests first — before any extraction work.
        // In place, in FIFO order, and only when some deadline is due:
        // the queue can be thousands deep and submitters wait on this
        // lock.
        let mut expired: Vec<Arc<TicketInner>> = Vec::new();
        if state.earliest_deadline <= now {
            let mut earliest = u64::MAX;
            state.queue.retain(|p| match p.deadline_ns {
                Some(d) if d <= now => {
                    expired.push(Arc::clone(&p.ticket));
                    false
                }
                d => {
                    earliest = earliest.min(d.unwrap_or(u64::MAX));
                    true
                }
            });
            state.earliest_deadline = earliest;
        }

        // 2. Decide whether a batch closes.
        let depth = state.queue.len();
        let oldest_age = state
            .queue
            .front()
            .map(|p| now.saturating_sub(p.enqueued_ns));
        let close = depth > 0
            && (force
                || depth >= shared.config.max_batch
                || oldest_age >= Some(shared.config.max_delay_ns)
                || state.staged.is_some()
                || state.shutdown);

        // 3. Take the batch (FIFO) and the scorer it was admitted under.
        let batch: Vec<Pending> = if close {
            let n = depth.min(shared.config.max_batch);
            state.queue.drain(..n).collect()
        } else {
            Vec::new()
        };
        let scorer = Arc::clone(&state.scorer);

        // 4. Install a staged snapshot once the pre-swap queue drained.
        if state.queue.is_empty() {
            state.earliest_deadline = u64::MAX;
            if let Some(next) = state.staged.take() {
                state.scorer = next;
                report.snapshot_installed = true;
            }
        }
        report.remaining = state.queue.len();
        drop(state);

        // 5. Reject the expired (no scoring was spent on them).
        report.expired = expired.len();
        if !expired.is_empty() {
            shared
                .expired
                .fetch_add(expired.len() as u64, Ordering::Relaxed);
            shared
                .obs
                .counter("ssf.serve.deadline_miss", expired.len() as u64);
            for ticket in &expired {
                fulfill(ticket, Err(Rejection::DeadlineExceeded));
            }
        }

        // 6. Score the batch outside every lock, then deliver in order.
        if !batch.is_empty() {
            let span = shared.obs.span("ssf.serve.coalesce_batch");
            let pairs: Vec<(NodeId, NodeId)> =
                batch.iter().map(|p| (p.u, p.v)).collect();
            let scores = scorer
                .score_batch_threads(&pairs, shared.config.worker_threads);
            span.finish();
            report.scored = batch.len();
            shared.batches.fetch_add(1, Ordering::Relaxed);
            shared
                .completed
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if shared.obs.enabled() {
                shared
                    .obs
                    .counter("ssf.serve.coalesced", batch.len() as u64);
                shared
                    .obs
                    .observe_ns("ssf.serve.batch_size", batch.len() as u64);
                for p in &batch {
                    shared.obs.observe_ns(
                        "ssf.serve.queue_wait",
                        now.saturating_sub(p.enqueued_ns),
                    );
                }
                shared
                    .obs
                    .gauge("ssf.serve.queue_depth", report.remaining as f64);
            }
            for (p, score) in batch.iter().zip(scores) {
                fulfill(&p.ticket, Ok(score));
            }
        }
        report
    }

    /// The production worker loop: sleeps until a close policy can
    /// fire (full batch, `max_delay` on the oldest request, a request
    /// deadline, a staged snapshot, shutdown), then steps. Returns once
    /// [`Self::shutdown`] was called and the queue has drained.
    ///
    /// On Linux the calling thread runs at the minimum timer slack
    /// (1 ns) while this loop runs, so a timed park ends when
    /// `max_delay` says rather than up to the default 50 µs later; the
    /// thread's previous slack is restored on return. Other platforms
    /// keep their default timer behaviour.
    ///
    /// Meant for a dedicated thread; spawn it on a clone:
    /// `std::thread::spawn(move || worker.run_worker())`.
    pub fn run_worker(&self) {
        // Re-check period: bounds the race between reading the clock
        // and parking, so a concurrent clock advance is never missed
        // for long.
        const MAX_PARK: Duration = Duration::from_millis(5);
        let _slack = timer_slack::MinSlack::engage();
        loop {
            let mut state = lock(&self.shared.state);
            loop {
                let now = self.shared.clock.now_ns();
                if state.shutdown && state.queue.is_empty() {
                    return;
                }
                if self.due_locked(&state, now) {
                    break;
                }
                let park =
                    self.next_due_ns(&state, now).map_or(MAX_PARK, |ns| {
                        Duration::from_nanos(ns).min(MAX_PARK)
                    });
                state = self
                    .shared
                    .work
                    .wait_timeout(state, park)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            drop(state);
            self.step();
        }
    }

    /// Whether any close/expiry/install policy fires at `now`.
    fn due_locked(&self, state: &State<S>, now: u64) -> bool {
        if state.shutdown && !state.queue.is_empty() {
            return true;
        }
        if state.staged.is_some() {
            return true;
        }
        let Some(front) = state.queue.front() else {
            return false;
        };
        state.queue.len() >= self.shared.config.max_batch
            || now.saturating_sub(front.enqueued_ns)
                >= self.shared.config.max_delay_ns
            || state.earliest_deadline <= now
    }

    /// Nanoseconds until the earliest scheduled event (`max_delay` on
    /// the oldest request, or the deadline bound); `None` when idle.
    fn next_due_ns(&self, state: &State<S>, now: u64) -> Option<u64> {
        let front = state.queue.front()?;
        let delay = front
            .enqueued_ns
            .saturating_add(self.shared.config.max_delay_ns);
        Some(delay.min(state.earliest_deadline).saturating_sub(now))
    }

    /// Initiates shutdown: future submissions are rejected with
    /// [`Rejection::ShutDown`], already-queued requests are flushed
    /// (scored) by the worker — or by direct [`Self::flush`] calls —
    /// and [`Self::run_worker`] returns once the queue drains.
    pub fn shutdown(&self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
    }

    /// Point-in-time counters; see [`CoalesceStats`] for the
    /// reconciliation invariants.
    pub fn stats(&self) -> CoalesceStats {
        let shared = &*self.shared;
        let queue_depth = lock(&shared.state).queue.len();
        CoalesceStats {
            submitted: shared.submitted.load(Ordering::Relaxed),
            accepted: shared.accepted.load(Ordering::Relaxed),
            rejected_overload: shared.rejected_overload.load(Ordering::Relaxed),
            rejected_deadline: shared.rejected_deadline.load(Ordering::Relaxed),
            expired: shared.expired.load(Ordering::Relaxed),
            completed: shared.completed.load(Ordering::Relaxed),
            batches: shared.batches.load(Ordering::Relaxed),
            queue_depth,
        }
    }
}

/// The worker thread's timer slack: how late the kernel may end a timed
/// wait so it can coalesce wakeups. Linux adds a 50 µs default to every
/// `Condvar::wait_timeout`, half of a 100 µs `max_delay`.
#[cfg(target_os = "linux")]
mod timer_slack {
    use std::ffi::{c_int, c_ulong};

    const PR_SET_TIMERSLACK: c_int = 29;
    const PR_GET_TIMERSLACK: c_int = 30;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// `prctl(PR_SET_TIMERSLACK, ns)` for `Some(ns)`, otherwise
    /// `prctl(PR_GET_TIMERSLACK)`; no other option can be passed.
    fn timerslack_prctl(set: Option<c_ulong>) -> c_int {
        let (option, arg) = match set {
            Some(ns) => (PR_SET_TIMERSLACK, ns),
            None => (PR_GET_TIMERSLACK, 0),
        };
        // SAFETY: prctl(2) is a system call wrapper in the C library.
        // With PR_GET_TIMERSLACK or PR_SET_TIMERSLACK, the only options
        // this function passes, it dereferences no argument and only
        // reads or writes the calling thread's timer slack. Every
        // variadic argument is an unsigned long, the type prctl(2) reads
        // them as, and the unused ones are zero.
        unsafe { prctl(option, arg, 0 as c_ulong, 0 as c_ulong, 0 as c_ulong) }
    }

    /// The calling thread's current timer slack in nanoseconds.
    pub(super) fn current_ns() -> Option<u64> {
        u64::try_from(timerslack_prctl(None)).ok()
    }

    /// Lowers the calling thread's timer slack to its 1 ns minimum
    /// until dropped, then restores the value it replaced.
    pub(super) struct MinSlack {
        previous: Option<c_ulong>,
    }

    impl MinSlack {
        pub(super) fn engage() -> Self {
            let previous = current_ns()
                .and_then(|ns| c_ulong::try_from(ns).ok())
                .filter(|&ns| ns > 1)
                .filter(|_| timerslack_prctl(Some(1)) == 0);
            MinSlack { previous }
        }
    }

    impl Drop for MinSlack {
        fn drop(&mut self) {
            if let Some(ns) = self.previous {
                let _ = timerslack_prctl(Some(ns));
            }
        }
    }
}

/// Other platforms keep their default timer behaviour.
#[cfg(not(target_os = "linux"))]
mod timer_slack {
    pub(super) struct MinSlack;

    impl MinSlack {
        pub(super) fn engage() -> Self {
            MinSlack
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scorer with a fixed epoch that returns `Some(u + v)` — enough
    /// to check routing without a fitted model.
    struct FakeScorer {
        epoch: u64,
    }

    impl BatchScorer for FakeScorer {
        fn epoch_key(&self) -> u64 {
            self.epoch
        }

        fn score_batch_threads(
            &self,
            pairs: &[(NodeId, NodeId)],
            _threads: usize,
        ) -> Vec<Option<f64>> {
            pairs.iter().map(|&(u, v)| Some(f64::from(u + v))).collect()
        }
    }

    fn coalescer(
        config: CoalesceConfig,
    ) -> (Coalescer<FakeScorer>, Arc<MockClock>) {
        let clock = Arc::new(MockClock::new());
        let c = Coalescer::with_clock(
            FakeScorer { epoch: 1 },
            config,
            Arc::<MockClock>::clone(&clock) as Arc<dyn Clock>,
        );
        (c, clock)
    }

    #[test]
    fn builder_rejects_degenerate_values() {
        for (builder, expect) in [
            (
                CoalesceConfig::builder().max_batch(0),
                ConfigError::ZeroBatch,
            ),
            (
                CoalesceConfig::builder().queue_capacity(0),
                ConfigError::ZeroQueueCapacity,
            ),
            (
                CoalesceConfig::builder().worker_threads(0),
                ConfigError::ZeroWorkerThreads,
            ),
            (
                CoalesceConfig::builder().default_deadline_ns(Some(0)),
                ConfigError::ZeroDeadline,
            ),
        ] {
            match builder.build() {
                Err(SsfError::Config(e)) => assert_eq!(e, expect),
                other => panic!("expected {expect:?}, got {other:?}"),
            }
        }
        assert!(CoalesceConfig::builder().build().is_ok());
    }

    #[test]
    fn submit_then_full_batch_dispatches_in_fifo_order() {
        let config = CoalesceConfig::builder()
            .max_batch(2)
            .max_delay_ns(u64::MAX >> 1)
            .build()
            .expect("valid");
        let (c, _clock) = coalescer(config);
        let t1 = c.submit(1, 2).expect("admitted");
        assert_eq!(c.step().scored, 0, "half a batch must wait");
        let t2 = c.submit(3, 4).expect("admitted");
        let report = c.step();
        assert_eq!(report.scored, 2);
        assert_eq!(t1.wait(), Ok(Some(3.0)));
        assert_eq!(t2.wait(), Ok(Some(7.0)));
    }

    #[test]
    fn shutdown_rejects_new_and_flushes_old() {
        let (c, _clock) = coalescer(CoalesceConfig::default());
        let t = c.submit(1, 1).expect("admitted");
        c.shutdown();
        match c.submit(2, 2) {
            Err(Rejection::ShutDown) => {}
            other => panic!("expected ShutDown, got {other:?}"),
        }
        let report = c.step();
        assert_eq!(report.scored, 1);
        assert_eq!(t.wait(), Ok(Some(2.0)));
    }

    #[test]
    fn rejection_messages_render() {
        assert!(Rejection::Overloaded {
            depth: 8,
            capacity: 8
        }
        .to_string()
        .contains("capacity 8"));
        assert!(Rejection::DeadlineExceeded.to_string().contains("deadline"));
        assert!(Rejection::ShutDown.to_string().contains("shut down"));
    }

    /// Records the scoring thread's timer slack at every batch.
    #[cfg(target_os = "linux")]
    struct SlackProbe {
        seen: Mutex<Vec<Option<u64>>>,
    }

    #[cfg(target_os = "linux")]
    impl BatchScorer for SlackProbe {
        fn epoch_key(&self) -> u64 {
            0
        }

        fn score_batch_threads(
            &self,
            pairs: &[(NodeId, NodeId)],
            _threads: usize,
        ) -> Vec<Option<f64>> {
            lock(&self.seen).push(timer_slack::current_ns());
            vec![Some(0.0); pairs.len()]
        }
    }

    /// `run_worker` runs at the minimum timer slack and hands the
    /// thread back with the slack it found.
    #[cfg(target_os = "linux")]
    #[test]
    fn run_worker_restores_the_thread_timer_slack() {
        let before = timer_slack::current_ns();
        assert!(before.is_some(), "PR_GET_TIMERSLACK must succeed");
        let c = Coalescer::new(
            SlackProbe {
                seen: Mutex::new(Vec::new()),
            },
            CoalesceConfig::builder()
                .max_delay_ns(0)
                .build()
                .expect("valid"),
        );
        let submitter = {
            let c = c.clone();
            std::thread::spawn(move || {
                let t = c.submit(1, 2).expect("admitted");
                let outcome = t.wait();
                c.shutdown();
                outcome
            })
        };
        c.run_worker(); // on this thread
        assert_eq!(submitter.join().expect("submitter"), Ok(Some(0.0)));
        let scorer = Arc::clone(&lock(&c.shared.state).scorer);
        let seen = lock(&scorer.seen).clone();
        assert_eq!(seen, vec![before.map(|ns| ns.min(1))], "minimum inside");
        assert_eq!(timer_slack::current_ns(), before, "slack restored");
    }

    #[test]
    fn mock_clock_is_monotonic() {
        let clock = MockClock::new();
        clock.advance(10);
        clock.set(5); // must not go backwards
        assert_eq!(clock.now_ns(), 10);
        clock.set(25);
        assert_eq!(clock.now_ns(), 25);
    }
}
