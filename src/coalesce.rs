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
//! calls.
//!
//! One rule closes a batch, and it is work-conserving: whenever a step
//! finds the queue non-empty, it takes up to `max_batch` of the oldest
//! requests at once. A lone request never waits for company. Batches
//! form from what queued while the previous batch was being scored,
//! which is exactly when there is load to share. A snapshot staged with
//! [`Coalescer::set_snapshot`] is installed on the step that takes the
//! last request queued before it, and until then steps take only those:
//! pending requests score against the epoch they were admitted under,
//! no batch mixes two, and sustained arrivals cannot hold the install
//! off.
//!
//! Admission is controlled, never blocking and never panicking: a full
//! queue returns [`Rejection::Overloaded`] immediately, and a request
//! whose deadline budget is already spent returns
//! [`Rejection::DeadlineExceeded`]. Requests that expire *while queued*
//! are rejected at batch-close time, strictly before any extraction work
//! is spent on them. That needs no timer: a request sits in the queue
//! only while the worker is busy, and the worker's next step expires it.
//! Every rejected request increments exactly one of
//! `ssf.serve.rejected` (overload) or `ssf.serve.deadline_miss`
//! (deadline, at admission or in queue).
//!
//! Coalescing reorders *work*, never *values*: a batch is scored with
//! [`BatchScorer::score_batch_threads`], which is bit-identical to
//! scoring each pair alone (caches memoize values the pipeline would
//! recompute identically — the PR 2/4 contract). `tests/serving_slo.rs`
//! pins this with an interleaving proptest.
//!
//! Time is injected through [`Clock`], so deadline expiry and queue-wait
//! ages are testable with a [`MockClock`] and zero wall-clock sleeps;
//! production uses [`SystemClock`] and [`Coalescer::run_worker`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dyngraph::NodeId;
use obs::ObsHandle;

use crate::error::{ConfigError, SsfError};
use crate::serve::ScoringSnapshot;

/// A monotonic nanosecond clock the coalescer schedules against.
///
/// Production uses [`SystemClock`]; deterministic tests inject a
/// [`MockClock`] and advance it explicitly, so deadline behaviour and
/// queue-wait ages are exact rather than sleep-and-hope.
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
    /// (the snapshot epoch), reported by [`Coalescer::current_epoch_key`].
    /// The coalescer compares no keys: [`Coalescer::set_snapshot`] stages
    /// any scorer it is given.
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
    /// The coalescer was shut down before admission, or its last handle
    /// was dropped while the request was still queued.
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
    /// Most requests one batch takes from the queue.
    pub max_batch: usize,
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

    /// Ignores `_ns`: a batch closes as soon as a step finds a request
    /// queued, so there is no delay window to set. Kept only so the
    /// `ssfbench` harness still builds; it goes with the next change to
    /// that harness.
    #[deprecated(
        note = "ignored: a batch closes as soon as a request is queued"
    )]
    pub fn max_delay_ns(self, _ns: u64) -> Self {
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
    /// Requests rejected at admission because the queue was full or the
    /// coalescer was shut down.
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
    /// Snapshot staged by [`Coalescer::set_snapshot`]; installed by the
    /// step that takes the last of the `owed` requests.
    staged: Option<Arc<S>>,
    /// While a snapshot is staged: how many requests at the head of the
    /// queue were admitted before it and still score on `scorer`.
    owed: usize,
    shutdown: bool,
}

impl<S> State<S> {
    /// Installs the staged snapshot if no request admitted before it is
    /// left to score on the current one; `true` if it did.
    fn install_when_owed_nothing(&mut self) -> bool {
        if self.owed > 0 {
            return false;
        }
        let Some(next) = self.staged.take() else {
            return false;
        };
        self.scorer = next;
        true
    }
}

struct Shared<S> {
    config: CoalesceConfig,
    clock: Arc<dyn Clock>,
    obs: ObsHandle,
    state: Mutex<State<S>>,
    /// Wakes the worker on submissions and shutdown.
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

impl<S> Drop for Shared<S> {
    /// The last handle is gone, so no step will ever score what is still
    /// queued: reject it rather than leave its tickets waiting forever.
    fn drop(&mut self) {
        let state =
            self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for p in state.queue.drain(..) {
            fulfill(&p.ticket, Err(Rejection::ShutDown));
        }
    }
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
                    owed: 0,
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

    /// Stages a new snapshot. Requests already queued score against the
    /// snapshot they were admitted under: until they have all been taken
    /// (or expired), steps take no request admitted after the stage, and
    /// the step that takes the last of them installs the staged one. So
    /// no batch ever mixes epochs, and the install waits for at most the
    /// requests queued at the stage, however fast new ones arrive. When
    /// the queue is empty the swap is immediate. Staging again before
    /// the install replaces the staged snapshot and keeps the count.
    pub fn set_snapshot(&self, scorer: S) {
        let mut state = lock(&self.shared.state);
        if state.queue.is_empty() {
            state.scorer = Arc::new(scorer);
            state.staged = None;
        } else {
            if state.staged.is_none() {
                state.owed = state.queue.len();
            }
            state.staged = Some(Arc::new(scorer));
        }
    }

    /// The epoch key currently being scored against (staged snapshots
    /// don't count until installed).
    pub fn current_epoch_key(&self) -> u64 {
        lock(&self.shared.state).scorer.epoch_key()
    }

    /// Runs one scheduling pass at the clock's current instant: expires
    /// dead requests, closes one batch of up to `max_batch` of the oldest
    /// queued requests if any remain — only ones admitted before a
    /// staged snapshot, while one is staged — and installs the staged
    /// snapshot once the last of those is taken. This is the
    /// deterministic core the worker loop — and the mock-clock tests —
    /// drive.
    pub fn step(&self) -> StepReport {
        let shared = &*self.shared;
        // One dispatch at a time: batches retire in FIFO order and the
        // staged-snapshot install can't race another dispatch.
        let _dispatch = lock(&shared.step);
        let now = shared.clock.now_ns();
        let mut report = StepReport::default();
        let mut state = lock(&shared.state);

        // 1. Expire dead requests first — before any extraction work.
        // In place, in FIFO order, and only when some deadline is due:
        // the queue can be thousands deep and submitters wait on this
        // lock.
        let mut expired: Vec<Arc<TicketInner>> = Vec::new();
        if state.earliest_deadline <= now {
            let mut earliest = u64::MAX;
            let (owed, mut index, mut owed_expired) = (state.owed, 0, 0);
            state.queue.retain(|p| {
                index += 1;
                match p.deadline_ns {
                    Some(d) if d <= now => {
                        expired.push(Arc::clone(&p.ticket));
                        owed_expired += usize::from(index <= owed);
                        false
                    }
                    d => {
                        earliest = earliest.min(d.unwrap_or(u64::MAX));
                        true
                    }
                }
            });
            state.earliest_deadline = earliest;
            state.owed -= owed_expired;
        }

        // 2. Take the batch (FIFO) and the scorer it was admitted under:
        // while a snapshot is staged, only requests admitted before it.
        // A staged snapshot installs once none of those is left — here
        // if they all expired, or after the batch that takes the last.
        report.snapshot_installed |= state.install_when_owed_nothing();
        let mut n = state.queue.len().min(shared.config.max_batch);
        if state.staged.is_some() {
            n = n.min(state.owed);
            state.owed -= n;
        }
        let batch: Vec<Pending> = state.queue.drain(..n).collect();
        let scorer = Arc::clone(&state.scorer);
        report.snapshot_installed |= state.install_when_owed_nothing();
        if state.queue.is_empty() {
            state.earliest_deadline = u64::MAX;
        }
        report.remaining = state.queue.len();
        drop(state);

        // 4. Reject the expired (no scoring was spent on them).
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

        // 5. Score the batch outside every lock, then deliver in order.
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

    /// The production worker loop: sleeps until a request is queued or
    /// [`Self::shutdown`] is called, then steps. Returns once shutdown
    /// was called and the queue has drained.
    ///
    /// The wait has no timeout. Every close, expiry and snapshot install
    /// happens in a step, and a step follows as soon as the queue is
    /// non-empty; while the worker is scoring, arrivals queue up and
    /// form the next batch.
    ///
    /// Meant for a dedicated thread; spawn it on a clone:
    /// `std::thread::spawn(move || worker.run_worker())`.
    pub fn run_worker(&self) {
        loop {
            let state = self
                .shared
                .work
                .wait_while(lock(&self.shared.state), |s| {
                    s.queue.is_empty() && !s.shutdown
                })
                .unwrap_or_else(PoisonError::into_inner);
            if state.queue.is_empty() {
                return; // shut down and drained
            }
            drop(state);
            self.step();
        }
    }

    /// Initiates shutdown: future submissions are rejected with
    /// [`Rejection::ShutDown`], already-queued requests are still scored
    /// by the worker — or by direct [`Self::step`] calls — and
    /// [`Self::run_worker`] returns once the queue drains.
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
            .build()
            .expect("valid");
        let (c, _clock) = coalescer(config);
        let tickets: Vec<_> = [(1, 2), (3, 4), (5, 6)]
            .into_iter()
            .map(|(u, v)| c.submit(u, v).expect("admitted"))
            .collect();
        let first = c.step();
        assert_eq!((first.scored, first.remaining), (2, 1), "max_batch caps");
        let second = c.step();
        assert_eq!((second.scored, second.remaining), (1, 0));
        let got: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
        assert_eq!(got, [Ok(Some(3.0)), Ok(Some(7.0)), Ok(Some(11.0))]);
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

    /// Dropping the last handle rejects what is still queued instead of
    /// leaving its tickets to wait forever.
    #[test]
    fn dropping_the_coalescer_rejects_queued_tickets() {
        let (c, _clock) = coalescer(CoalesceConfig::default());
        let t = c.submit(1, 2).expect("admitted");
        drop(c);
        assert_eq!(t.try_take(), Some(Err(Rejection::ShutDown)));
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
