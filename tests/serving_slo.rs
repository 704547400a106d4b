//! Serving-SLO suite: the request-coalescing front-end under a mock
//! clock.
//!
//! Coalescing reorders *work* — requests queue, and each step closes a
//! batch of up to `max_batch` of them — so the headline obligation is
//! that it never reorders *values*: every score delivered through the
//! [`Coalescer`] must be bit-identical to [`ScoringSnapshot::score_batch`]
//! on the same pairs, at every batch boundary and worker-thread count.
//! The close rule itself (a step takes up to `max_batch` queued
//! requests in FIFO order, and a staged snapshot lands on the step that
//! drains the queue) is pinned with an injected [`MockClock`]: no
//! wall-clock sleeps, every close decision is exact.
//!
//! The admission contract rides along: a full queue rejects with
//! [`Rejection::Overloaded`] without blocking the submitter, a spent
//! deadline rejects *before* any extraction work, and the counters
//! reconcile exactly (`accepted + rejected == submitted`) under
//! multi-threaded stress — mirroring the `tests/observability.rs`
//! invariant style.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

use proptest::prelude::*;
use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::{GraphView, NodeId};
use ssf_repro::methods::MethodOptions;
use ssf_repro::obs::{ObsHandle, Registry};
use ssf_repro::{
    BatchScorer, CoalesceConfig, Coalescer, MockClock, OnlineLinkPredictor,
    OnlinePredictorConfig, Rejection, ScoringSnapshot, SsfError,
};

#[allow(clippy::expect_used)] // test helper
fn quick_config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid quick configuration")
}

fn fitted_predictor() -> OnlineLinkPredictor {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    let mut p = OnlineLinkPredictor::new(quick_config());
    for l in links {
        p.observe(l.u, l.v, l.t);
    }
    assert!(p.is_fitted(), "stream must support a fit");
    p
}

/// One fitted predictor shared by the whole suite (fitting is the
/// expensive part). Tests only publish from it, never mutate it.
fn shared_predictor() -> &'static OnlineLinkPredictor {
    static PREDICTOR: OnceLock<OnlineLinkPredictor> = OnceLock::new();
    PREDICTOR.get_or_init(fitted_predictor)
}

/// One fitted snapshot shared by the whole suite (snapshots are
/// immutable values, so sharing cannot couple tests).
fn shared_snapshot() -> &'static ScoringSnapshot {
    static SNAP: OnceLock<ScoringSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| shared_predictor().snapshot())
}

fn bits(scores: &[Option<f64>]) -> Vec<Option<u64>> {
    scores.iter().map(|s| s.map(f64::to_bits)).collect()
}

/// A coalescer over the shared snapshot with an injected mock clock.
fn mock_coalescer(
    config: CoalesceConfig,
) -> (Coalescer<ScoringSnapshot>, Arc<MockClock>) {
    let clock = Arc::new(MockClock::new());
    let c = Coalescer::with_clock(
        shared_snapshot().clone(),
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
    );
    (c, clock)
}

// ---------------------------------------------------------------------
// Batch-close policies under the mock clock
// ---------------------------------------------------------------------

#[test]
fn batch_closes_on_max_batch() {
    let config = CoalesceConfig::builder()
        .max_batch(3)
        .build()
        .expect("valid");
    let batches = Batches::default();
    let scorer = RecordingScorer {
        inner: shared_snapshot().clone(),
        batches: Arc::clone(&batches),
    };
    let c = Coalescer::with_clock(
        scorer,
        config,
        Arc::new(MockClock::new()) as Arc<dyn ssf_repro::Clock>,
    );
    let pairs = [(0u32, 1u32), (2, 5), (1, 4), (3, 7)];
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("admitted"))
        .collect();
    let report = c.step();
    assert_eq!(report.scored, 3, "one step takes at most max_batch");
    assert_eq!(report.remaining, 1);
    let report = c.step();
    assert_eq!((report.scored, report.remaining), (1, 0));
    assert_eq!(
        *batches.lock().expect("batches"),
        vec![pairs[..3].to_vec(), pairs[3..].to_vec()],
        "batches take the oldest requests first"
    );
    let direct = shared_snapshot().score_batch(&pairs);
    let got: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect();
    assert_eq!(bits(&got), bits(&direct));
}

#[test]
fn lone_request_closes_at_the_next_step() {
    let config = CoalesceConfig::builder()
        .max_batch(100)
        .build()
        .expect("valid");
    let (c, _clock) = mock_coalescer(config);
    let t = c.submit(0, 1).expect("admitted");
    // The mock clock never advances: the request closes with age 0.
    let report = c.step();
    assert_eq!(report.scored, 1, "a lone request closes at once");
    assert_eq!(report.remaining, 0);
    assert_eq!(
        bits(&[t.wait().expect("scored")]),
        bits(&shared_snapshot().score_batch(&[(0, 1)]))
    );
}

#[test]
fn batch_closes_on_snapshot_epoch_change() {
    let mut p = fitted_predictor();
    let snap1 = p.snapshot();
    let t = p.network().max_timestamp().unwrap_or(0) + 1;
    assert!(p.observe(0, 7, t).is_accepted());
    assert!(p.observe(3, 11, t + 1).is_accepted());
    let snap2 = p.snapshot();
    assert_ne!(snap1.epoch_key(), snap2.epoch_key());

    let config = CoalesceConfig::builder()
        .max_batch(1)
        .build()
        .expect("valid");
    let clock = Arc::new(MockClock::new());
    let c = Coalescer::with_clock(
        snap1.clone(),
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
    );
    let pairs = [(0u32, 5u32), (2, 9)];
    let t0 = c.submit(pairs[0].0, pairs[0].1).expect("admitted");
    let t1 = c.submit(pairs[1].0, pairs[1].1).expect("admitted");

    c.set_snapshot(snap2.clone());
    assert_eq!(c.current_epoch_key(), snap1.epoch_key(), "staged only");
    let report = c.step();
    assert_eq!((report.scored, report.remaining), (1, 1));
    assert!(!report.snapshot_installed, "the queue has not drained");
    assert_eq!(c.current_epoch_key(), snap1.epoch_key());
    let report = c.step();
    assert_eq!((report.scored, report.remaining), (1, 0));
    assert!(
        report.snapshot_installed,
        "the swap lands on the step that drains the queue"
    );
    // Both queued requests scored against the epoch they were admitted
    // under.
    let old = [t0, t1].map(|t| t.wait().expect("scored"));
    assert_eq!(bits(&old), bits(&snap1.score_batch(&pairs)));
    assert_eq!(c.current_epoch_key(), snap2.epoch_key());

    // Requests after the swap score against the new epoch.
    let t2 = c.submit(0, 7).expect("admitted");
    assert_eq!(c.step().scored, 1);
    assert_eq!(
        bits(&[t2.wait().expect("scored")]),
        bits(&snap2.score_batch(&[(0, 7)]))
    );
}

#[test]
fn step_on_empty_queue_is_a_noop() {
    let (c, _clock) = mock_coalescer(CoalesceConfig::default());
    let report = c.step();
    assert_eq!(report.scored, 0);
    assert_eq!(report.expired, 0);
    assert_eq!(report.remaining, 0);
    let stats = c.stats();
    assert_eq!(stats.batches, 0, "empty batches are never dispatched");
    assert_eq!(stats.submitted, 0);
}

#[test]
fn duplicate_pairs_in_one_batch_score_identically() {
    let config = CoalesceConfig::builder()
        .max_batch(4)
        .build()
        .expect("valid");
    let (c, _clock) = mock_coalescer(config);
    let pairs = [(2u32, 5u32), (2, 5), (5, 2), (2, 5)];
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("admitted"))
        .collect();
    assert_eq!(c.step().scored, 4);
    let got: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect();
    let direct = shared_snapshot().score_batch(&pairs);
    assert_eq!(bits(&got), bits(&direct));
    assert_eq!(
        got[0].map(f64::to_bits),
        got[1].map(f64::to_bits),
        "the same pair in one batch must score once and agree"
    );
}

// ---------------------------------------------------------------------
// Backpressure and deadlines
// ---------------------------------------------------------------------

#[test]
fn full_queue_rejects_overloaded_with_depth_and_capacity() {
    let config = CoalesceConfig::builder()
        .queue_capacity(2)
        .max_batch(100)
        .build()
        .expect("valid");
    let (c, _clock) = mock_coalescer(config);
    let _t0 = c.submit(0, 1).expect("admitted");
    let _t1 = c.submit(1, 2).expect("admitted");
    match c.submit(2, 3) {
        Err(Rejection::Overloaded { depth, capacity }) => {
            assert_eq!(depth, 2);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    let stats = c.stats();
    assert_eq!(stats.rejected_overload, 1);
    assert_eq!(stats.accepted + stats.rejected(), stats.submitted);
}

/// A [`BatchScorer`] that blocks inside scoring until released, and
/// counts every pair that reaches it — the probe for both "admission
/// never blocks behind a dispatch" and "expired requests never reach
/// extraction".
struct GatedScorer {
    inner: ScoringSnapshot,
    pairs_scored: Arc<AtomicU64>,
    entered: std::sync::Mutex<mpsc::Sender<()>>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl BatchScorer for GatedScorer {
    fn epoch_key(&self) -> u64 {
        self.inner.epoch_key()
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        use std::sync::PoisonError;
        self.pairs_scored
            .fetch_add(pairs.len() as u64, Ordering::SeqCst);
        let _ = self
            .entered
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .send(());
        let _ = self
            .release
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        self.inner.score_batch_threads(pairs, threads)
    }
}

#[test]
fn admission_does_not_block_behind_an_in_flight_dispatch() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let scorer = GatedScorer {
        inner: shared_snapshot().clone(),
        pairs_scored: Arc::new(AtomicU64::new(0)),
        entered: std::sync::Mutex::new(entered_tx),
        release: std::sync::Mutex::new(release_rx),
    };
    let config = CoalesceConfig::builder()
        .queue_capacity(1)
        .max_batch(1)
        .build()
        .expect("valid");
    let c = Coalescer::new(scorer, config);
    let t0 = c.submit(0, 1).expect("admitted");
    let stepper = {
        let c = c.clone();
        std::thread::spawn(move || c.step())
    };
    // The dispatch is now parked inside scoring, holding the step lock.
    entered_rx.recv().expect("dispatch entered the scorer");
    // Admission still runs: one slot free (the batch left the queue)...
    let t1 = c.submit(1, 2).expect("admission must not block");
    // ...and the slot after it sheds with Overloaded, immediately.
    match c.submit(2, 3) {
        Err(Rejection::Overloaded { .. }) => {}
        other => panic!("expected Overloaded, got {other:?}"),
    }
    release_tx.send(()).expect("release dispatch");
    let report = stepper.join().expect("stepper thread");
    assert_eq!(report.scored, 1);
    assert!(t0.wait().is_ok());
    // Drain the second request (its dispatch parks too).
    let drainer = {
        let c = c.clone();
        std::thread::spawn(move || c.step())
    };
    entered_rx.recv().expect("second dispatch");
    release_tx.send(()).expect("release second dispatch");
    drainer.join().expect("drainer thread");
    assert!(t1.wait().is_ok());
}

/// Batches still form under load: what queues while a batch is being
/// scored closes at the next steps, `max_batch` at a time, oldest first.
#[test]
fn requests_queued_behind_a_dispatch_form_the_next_batches() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let pairs_scored = Arc::new(AtomicU64::new(0));
    let scorer = GatedScorer {
        inner: shared_snapshot().clone(),
        pairs_scored: Arc::clone(&pairs_scored),
        entered: std::sync::Mutex::new(entered_tx),
        release: std::sync::Mutex::new(release_rx),
    };
    let config = CoalesceConfig::builder()
        .max_batch(4)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock(
        scorer,
        config,
        Arc::new(MockClock::new()) as Arc<dyn ssf_repro::Clock>,
    );
    let first = c.submit(0, 1).expect("admitted");
    let stepper = {
        let c = c.clone();
        std::thread::spawn(move || c.step())
    };
    // The first dispatch is parked inside scoring; five more arrive.
    entered_rx.recv().expect("dispatch entered the scorer");
    let pairs = [(2u32, 5u32), (1, 4), (3, 7), (5, 2), (0, 3)];
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("admitted"))
        .collect();
    for _ in 0..3 {
        release_tx.send(()).expect("release a dispatch");
    }
    assert_eq!(stepper.join().expect("stepper thread").scored, 1);
    assert!(first.wait().is_ok());

    let report = c.step();
    assert_eq!((report.scored, report.remaining), (4, 1));
    assert_eq!(pairs_scored.load(Ordering::SeqCst), 5);
    assert_eq!(tickets[4].try_take(), None, "the newest request waits");
    let report = c.step();
    assert_eq!((report.scored, report.remaining), (1, 0));
    assert_eq!(pairs_scored.load(Ordering::SeqCst), 6);

    let direct = shared_snapshot().score_batch(&pairs);
    let got: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect();
    assert_eq!(bits(&got), bits(&direct));
}

#[test]
fn expired_deadline_is_rejected_before_extraction() {
    let registry = Arc::new(Registry::new());
    let (_entered_tx, entered_rx) = mpsc::channel::<()>();
    drop(entered_rx); // unused gate: sends/recvs become no-ops
    let (release_tx, release_rx) = mpsc::channel();
    release_tx.send(()).expect("pre-release"); // never park
    let pairs_scored = Arc::new(AtomicU64::new(0));
    let scorer = GatedScorer {
        inner: shared_snapshot().clone(),
        pairs_scored: Arc::clone(&pairs_scored),
        entered: std::sync::Mutex::new(_entered_tx),
        release: std::sync::Mutex::new(release_rx),
    };
    let clock = Arc::new(MockClock::new());
    let config = CoalesceConfig::builder()
        .max_batch(100)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock_and_recorder(
        scorer,
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    let doomed = c.submit_with_budget(0, 1, 100).expect("admitted live");
    clock.advance(200);
    let report = c.step();
    assert_eq!(report.expired, 1);
    assert_eq!(report.scored, 0);
    assert_eq!(doomed.wait(), Err(Rejection::DeadlineExceeded));
    assert_eq!(
        pairs_scored.load(Ordering::SeqCst),
        0,
        "an expired request must be rejected before extraction starts"
    );

    let stats = c.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.deadline_misses(), 1);
    assert_eq!(
        registry.snapshot().counter("ssf.serve.deadline_miss"),
        1,
        "in-queue expiry must increment ssf.serve.deadline_miss"
    );

    // The batch that eventually dispatches carries only live requests;
    // the expired pair never reached the scorer.
    let live = c.submit(2, 5).expect("admitted");
    release_tx.send(()).expect("pre-release second dispatch");
    assert_eq!(c.step().scored, 1);
    assert!(live.wait().is_ok());
    let c_stats = c.stats();
    assert_eq!(c_stats.completed, 1);
    assert_eq!(
        pairs_scored.load(Ordering::SeqCst),
        1,
        "only the live pair may reach the scorer"
    );
}

/// Every batch a [`RecordingScorer`] was handed, in order.
type Batches = Arc<std::sync::Mutex<Vec<Vec<(NodeId, NodeId)>>>>;

/// A [`BatchScorer`] that records every batch it is handed, in order.
struct RecordingScorer {
    inner: ScoringSnapshot,
    batches: Batches,
}

impl BatchScorer for RecordingScorer {
    fn epoch_key(&self) -> u64 {
        self.inner.epoch_key()
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        self.batches
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(pairs.to_vec());
        self.inner.score_batch_threads(pairs, threads)
    }
}

/// Deadlines out of queue order: expiry removes exactly the due
/// requests wherever they sit, survivors keep FIFO order, a request
/// admitted later with an earlier deadline still expires on time, and
/// a batch that takes the earliest-deadline request does not make a
/// later one expire early. One request per batch keeps requests queued
/// across steps.
#[test]
fn mixed_budgets_expire_in_place_and_keep_fifo_order() {
    let registry = Arc::new(Registry::new());
    let batches = Batches::default();
    let scorer = RecordingScorer {
        inner: shared_snapshot().clone(),
        batches: Arc::clone(&batches),
    };
    let clock = Arc::new(MockClock::new());
    let config = CoalesceConfig::builder()
        .max_batch(1)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock_and_recorder(
        scorer,
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    let pairs: [(u32, u32); 8] = [
        (0, 1),
        (2, 5),
        (1, 4),
        (3, 7),
        (5, 2),
        (0, 3),
        (4, 6),
        (2, 9),
    ];
    let submit = |i: usize, budget: Option<u64>| {
        let (u, v) = pairs[i];
        match budget {
            Some(ns) => c.submit_with_budget(u, v, ns),
            None => c.submit(u, v),
        }
        .expect("admitted")
    };

    // t = 0: deadlines -, 500, 100, -, 100.
    let mut tickets: Vec<_> = [None, Some(500), Some(100), None, Some(100)]
        .into_iter()
        .enumerate()
        .map(|(i, b)| submit(i, b))
        .collect();
    clock.set(150);
    let report = c.step();
    assert_eq!(
        (report.expired, report.scored, report.remaining),
        (2, 1, 2),
        "requests 2 and 4 expire, request 0 closes"
    );

    // t = 150: deadlines 250 (earlier than request 1's), -, 900.
    tickets.push(submit(5, Some(100)));
    tickets.push(submit(6, None));
    tickets.push(submit(7, Some(750)));
    clock.set(300);
    let report = c.step();
    assert_eq!(
        (report.expired, report.scored, report.remaining),
        (1, 1, 3),
        "request 5 expires, then request 1 closes"
    );

    // That batch took request 1 (deadline 500); request 7 (900) must
    // survive steps past 500 and expire only at 900.
    clock.set(600);
    let report = c.step();
    assert_eq!((report.expired, report.scored, report.remaining), (0, 1, 2));
    let report = c.step();
    assert_eq!((report.expired, report.scored, report.remaining), (0, 1, 1));
    clock.set(900);
    let report = c.step();
    assert_eq!((report.expired, report.scored, report.remaining), (1, 0, 0));

    let survivors = [0usize, 1, 3, 6];
    let expired = [2usize, 4, 5, 7];
    let want_pairs: Vec<_> = survivors.iter().map(|&i| pairs[i]).collect();
    assert_eq!(
        *batches.lock().expect("batches"),
        want_pairs.iter().map(|&p| vec![p]).collect::<Vec<_>>(),
        "survivors close in FIFO order"
    );
    let direct = shared_snapshot().score_batch(&want_pairs);
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    for (&i, want) in survivors.iter().zip(&direct) {
        assert_eq!(
            outcomes[i].map(|s| s.map(f64::to_bits)),
            Ok(want.map(f64::to_bits))
        );
    }
    for &i in &expired {
        assert_eq!(
            outcomes[i],
            Err(Rejection::DeadlineExceeded),
            "request {i}"
        );
    }

    let stats = c.stats();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.expired, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.completed + stats.expired, stats.accepted);
    assert_eq!(stats.accepted + stats.rejected(), stats.submitted);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ssf.serve.deadline_miss"), 4);
    assert_eq!(snap.counter("ssf.serve.coalesced"), 4);
}

#[test]
fn spent_deadline_is_rejected_at_admission() {
    let registry = Arc::new(Registry::new());
    let clock = Arc::new(MockClock::new());
    let c = Coalescer::with_clock_and_recorder(
        shared_snapshot().clone(),
        CoalesceConfig::default(),
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    // A zero budget is spent on arrival by definition, at any instant,
    // and never takes a queue slot.
    for (u, v) in [(0, 1), (2, 5)] {
        match c.submit_with_budget(u, v, 0) {
            Err(Rejection::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        clock.advance(1_000);
    }
    let stats = c.stats();
    assert_eq!(stats.rejected_deadline, 2);
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.accepted + stats.rejected(), stats.submitted);
    assert_eq!(registry.snapshot().counter("ssf.serve.deadline_miss"), 2);
}

#[test]
fn counters_reconcile_under_multithreaded_stress() {
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 120;
    let registry = Arc::new(Registry::new());
    let config = CoalesceConfig::builder()
        .queue_capacity(8) // small: forces Overloaded under the burst
        .max_batch(4)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock_and_recorder(
        shared_snapshot().clone(),
        config,
        Arc::new(ssf_repro::SystemClock::new()),
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    let worker = {
        let c = c.clone();
        std::thread::spawn(move || c.run_worker())
    };
    let n = shared_snapshot().graph().node_count() as u32;
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|who| {
            let c = c.clone();
            std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..PER_THREAD {
                    let u = (who as u32 * 31 + i as u32 * 7) % n;
                    let v = (i as u32 * 13 + 1) % n;
                    // Every 5th request carries a 1µs budget that may
                    // expire in queue; the rest never expire.
                    let r = if i % 5 == 0 {
                        c.submit_with_budget(u, v, 1_000)
                    } else {
                        c.submit(u, v)
                    };
                    if let Ok(t) = r {
                        tickets.push(t);
                    }
                }
                tickets
            })
        })
        .collect();
    let mut tickets = Vec::new();
    for h in handles {
        tickets.extend(h.join().expect("submitter panicked"));
    }
    c.shutdown();
    worker.join().expect("worker panicked");

    let stats = c.stats();
    assert_eq!(
        stats.submitted,
        (SUBMITTERS * PER_THREAD) as u64,
        "every submission attempt is counted"
    );
    assert_eq!(
        stats.accepted + stats.rejected(),
        stats.submitted,
        "admission accounts every request exactly once"
    );
    assert_eq!(stats.queue_depth, 0, "worker drains before exiting");
    assert_eq!(
        stats.completed + stats.expired,
        stats.accepted,
        "every admitted request is scored or expired, never lost"
    );
    assert_eq!(stats.accepted as usize, tickets.len());

    // Every ticket resolved, and the outcome split matches the stats.
    let (mut ok, mut missed) = (0u64, 0u64);
    for t in tickets {
        match t.wait() {
            Ok(_) => ok += 1,
            Err(Rejection::DeadlineExceeded) => missed += 1,
            Err(other) => panic!("queued request rejected with {other:?}"),
        }
    }
    assert_eq!(ok, stats.completed);
    assert_eq!(missed, stats.expired);

    // The obs counters agree with the ground-truth stats.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ssf.serve.rejected"), stats.rejected_overload);
    assert_eq!(
        snap.counter("ssf.serve.deadline_miss"),
        stats.deadline_misses()
    );
    assert_eq!(snap.counter("ssf.serve.coalesced"), stats.completed);
    let batch_sizes = snap
        .histogram("ssf.serve.batch_size")
        .expect("batch sizes recorded");
    assert_eq!(batch_sizes.count(), stats.batches);
    assert_eq!(batch_sizes.sum(), stats.completed);
}

// ---------------------------------------------------------------------
// Direct-vs-coalesced parity and serve-layer degenerate inputs
// ---------------------------------------------------------------------

#[test]
fn coalesced_scoring_matches_direct_including_reversed_and_self_pairs() {
    let snap = shared_snapshot().clone();
    // A reversed pair (1, 0), a self-pair (4, 4) and a repeated (0, 1)
    // in one two-worker batch must score exactly like the direct path.
    let pairs = [(0u32, 1u32), (1, 0), (2, 3), (4, 4), (1, 7), (0, 1), (5, 2)];
    let direct = snap.score_batch(&pairs);

    let config = CoalesceConfig::builder()
        .max_batch(pairs.len())
        .worker_threads(2)
        .build()
        .expect("valid");
    let clock = Arc::new(MockClock::new());
    let c = Coalescer::with_clock(
        snap,
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
    );
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("admitted"))
        .collect();
    assert_eq!(c.step().scored, pairs.len());
    let got: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect();
    assert_eq!(bits(&got), bits(&direct));
}

#[test]
fn parallel_batch_paths_handle_degenerate_inputs_uniformly() {
    let snap = shared_snapshot();
    assert!(snap.score_batch_parallel(&[], 0).is_empty());
    assert!(snap.score_batch_parallel(&[], 8).is_empty());
    let pairs = [(0u32, 1u32), (3, 3), (2, 5)];
    // threads == 0 is clamped to 1, bit-identical to the serial path.
    assert_eq!(
        bits(&snap.score_batch_parallel(&pairs, 0)),
        bits(&snap.score_batch(&pairs))
    );
}

#[test]
fn coalesce_config_rejects_zero_worker_threads_as_config_error() {
    let err = CoalesceConfig::builder().worker_threads(0).build();
    match err {
        Err(SsfError::Config(e)) => {
            assert!(e.to_string().contains("worker_threads"), "{e}");
        }
        other => panic!("expected ConfigError, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Bit-identity under arbitrary interleavings (the tentpole contract)
// ---------------------------------------------------------------------

proptest! {
    // Each case replays one interleaving at three worker-thread counts
    // against a shared fitted snapshot.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of submissions, clock advances and worker steps
    /// produces scores byte-equal to `score_batch` on the same pairs in
    /// submission order — at 1, 2 and 8 dispatch threads, across every
    /// batch boundary the interleaving induces.
    #[test]
    fn coalesced_scores_are_bit_identical_to_score_batch(
        ops in prop::collection::vec(
            (0..6u8, 0..40u32, 0..40u32, 1..2_000u64),
            1..40,
        ),
        max_batch in 1..6usize,
    ) {
        let snap = shared_snapshot().clone();
        let n = snap.graph().node_count() as u32;
        for worker_threads in [1usize, 2, 8] {
            let config = CoalesceConfig::builder()
                .max_batch(max_batch)
                .worker_threads(worker_threads)
                .queue_capacity(4096)
                .build()
                .expect("valid");
            let clock = Arc::new(MockClock::new());
            let c = Coalescer::with_clock(
                snap.clone(),
                config,
                Arc::<MockClock>::clone(&clock) as Arc<dyn ssf_repro::Clock>,
            );
            let mut submitted: Vec<(u32, u32)> = Vec::new();
            let mut tickets = Vec::new();
            for &(op, a, b, ns) in &ops {
                match op {
                    // Submissions dominate the op mix; out-of-range and
                    // degenerate pairs ride along deliberately.
                    0..=2 => {
                        let (u, v) = (a % (n + 3), b % (n + 3));
                        let t = c.submit(u, v).expect("queue is unbounded");
                        submitted.push((u, v));
                        tickets.push(t);
                    }
                    3 => clock.advance(ns * 1_000),
                    _ => {
                        let _ = c.step();
                    }
                }
            }
            // Drain whatever the interleaving left queued.
            while c.step().remaining > 0 {}
            let direct = snap.score_batch(&submitted);
            for (i, (t, want)) in
                tickets.into_iter().zip(&direct).enumerate()
            {
                let got = t.wait();
                prop_assert_eq!(
                    got.map(|s| s.map(f64::to_bits)),
                    Ok(want.map(f64::to_bits)),
                    "pair {} {:?} diverged at {} threads",
                    i,
                    submitted[i],
                    worker_threads
                );
            }
            let stats = c.stats();
            prop_assert_eq!(stats.completed, submitted.len() as u64);
            prop_assert_eq!(stats.accepted + stats.rejected(),
                stats.submitted);
        }
    }
}

// ---------------------------------------------------------------------
// The per-snapshot score memo
// ---------------------------------------------------------------------

/// Every pair of `pairs` scored alone, each on its own freshly
/// published twin of the shared snapshot: every lookup misses a cold
/// memo and really runs extraction.
fn cold_twin_scores(pairs: &[(u32, u32)]) -> Vec<Option<u64>> {
    pairs
        .iter()
        .map(|&(u, v)| {
            let twin = shared_predictor().snapshot();
            assert_eq!(twin.memo_entries(), 0, "a new publish starts cold");
            twin.score(u, v).map(f64::to_bits)
        })
        .collect()
}

/// Every pair through a mock-clock coalescer over `snap`, in order.
#[allow(clippy::expect_used)] // test helper
fn coalesced(
    snap: &ScoringSnapshot,
    pairs: &[(u32, u32)],
    max_batch: usize,
    threads: usize,
) -> Vec<Option<f64>> {
    let config = CoalesceConfig::builder()
        .max_batch(max_batch)
        .worker_threads(threads)
        .queue_capacity(pairs.len().max(1))
        .build()
        .expect("valid");
    let c = Coalescer::with_clock(
        snap.clone(),
        config,
        Arc::new(MockClock::new()) as Arc<dyn ssf_repro::Clock>,
    );
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("queue holds every pair"))
        .collect();
    while c.step().remaining > 0 {}
    tickets
        .into_iter()
        .map(|t| t.wait().expect("scored"))
        .collect()
}

/// One way of scoring a pair sequence through a snapshot.
type ScorePath<'a> = dyn Fn(&ScoringSnapshot) -> Vec<Option<f64>> + 'a;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pair sequences full of repeats, reversed pairs, self pairs and
    /// out-of-range ids score bit-identically on every snapshot path —
    /// on a cold snapshot and on one whose memo earlier paths warmed —
    /// to each pair scored alone on a cold twin.
    #[test]
    fn memoised_scores_match_a_cold_twin_on_every_path(
        picks in prop::collection::vec((0..14u32, 0..14u32), 1..40),
        threads in 1..5usize,
        max_batch in 1..6usize,
    ) {
        let n = shared_snapshot().graph().node_count() as u32;
        // Ids 12 and 13 fall outside the graph.
        let id = |x: u32| match x {
            12 => n,
            13 => u32::MAX,
            x => x,
        };
        let pairs: Vec<(u32, u32)> =
            picks.iter().map(|&(a, b)| (id(a), id(b))).collect();
        let want = cold_twin_scores(&pairs);
        let warm = shared_predictor().snapshot();
        let paths: [(&str, &ScorePath); 4] = [
            ("score", &|s| pairs.iter().map(|&(u, v)| s.score(u, v)).collect()),
            ("score_batch", &|s| s.score_batch(&pairs)),
            ("score_batch_parallel", &|s| s.score_batch_parallel(&pairs, threads)),
            ("coalescer", &|s| coalesced(s, &pairs, max_batch, threads)),
        ];
        for (name, path) in paths {
            let cold = shared_predictor().snapshot();
            prop_assert_eq!(&bits(&path(&cold)), &want, "{} on a cold memo", name);
            prop_assert_eq!(&bits(&path(&warm)), &want, "{} on a warm memo", name);
        }
    }
}

#[test]
fn memo_stays_bounded_and_exact_past_capacity() {
    const CAPACITY: usize = 8192;
    let snap = shared_predictor().snapshot();
    let n = snap.graph().node_count() as u32;
    let pairs: Vec<(u32, u32)> = (0..n)
        .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
        .take(CAPACITY + 1024)
        .collect();
    assert_eq!(pairs.len(), CAPACITY + 1024, "the graph has enough pairs");
    let first = snap.score_batch_parallel(&pairs, 2);
    let held = snap.memo_entries();
    assert!(
        (1..=CAPACITY).contains(&held),
        "memo holds {held} entries, capacity {CAPACITY}"
    );
    // The oldest pairs were evicted and recompute; the newest still hit.
    let probe: Vec<(u32, u32)> = pairs[..256]
        .iter()
        .chain(&pairs[pairs.len() - 256..])
        .copied()
        .collect();
    let want = cold_twin_scores(&probe);
    let again = snap.score_batch(&probe);
    assert_eq!(bits(&again), want);
    let first_probe: Vec<_> = first[..256]
        .iter()
        .chain(&first[first.len() - 256..])
        .copied()
        .collect();
    assert_eq!(bits(&first_probe), want);
    assert!(snap.memo_entries() <= CAPACITY);
}

/// `ssf serve-loop` with open-loop arrivals stamps each completion when
/// it lands, not after the arrival window: at a sustainable rate the
/// reported median sits far below the run's duration. Waiting on every
/// ticket only once the window closes reads about duration / 2.
#[test]
#[allow(clippy::expect_used)]
fn cli_open_loop_p50_is_far_below_the_duration() {
    let dir = std::env::temp_dir()
        .join(format!("ssf-serve-loop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let net = dir.join("net.txt");
    let ssf = env!("CARGO_BIN_EXE_ssf");
    let generated = std::process::Command::new(ssf)
        .args(["generate", "coauthor", "--scale", "0.15", "--out"])
        .arg(&net)
        .output()
        .expect("run ssf generate");
    assert!(generated.status.success(), "{generated:?}");
    let duration_ms = 600u64;
    for arrivals in ["fixed", "poisson"] {
        let out = std::process::Command::new(ssf)
            .arg("serve-loop")
            .arg(&net)
            .args(["--arrivals", arrivals, "--qps", "100", "--clients", "1"])
            .args(["--duration-ms", &duration_ms.to_string()])
            .args(["--epochs", "5"])
            .output()
            .expect("run ssf serve-loop");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{arrivals}: {out:?}");
        let p50_us: f64 = stdout
            .split_once(" p50 ")
            .and_then(|(_, rest)| rest.split_once("us"))
            .and_then(|(v, _)| v.parse().ok())
            .unwrap_or_else(|| panic!("no p50 in output: {stdout}"));
        let limit_us = duration_ms as f64 * 1000.0 / 10.0;
        assert!(
            p50_us < limit_us,
            "{arrivals}: p50 {p50_us}us >= duration/10 ({limit_us}us)\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
