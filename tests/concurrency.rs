//! Concurrency suite: the snapshot read path under a live writer.
//!
//! Two contracts:
//!
//! 1. *Liveness*: a writer thread interleaving `observe` + `snapshot`
//!    with reader threads running `score_batch_parallel` completes —
//!    the read path takes no locks, so the scope ending at all is the
//!    no-deadlock assertion — and every published epoch is internally
//!    consistent (`epoch == network.revision()`, `model_epoch ≤ epoch`,
//!    `fitted ⇔ model_epoch.is_some()`).
//! 2. *Determinism*: `score_batch_parallel` is bit-identical to the
//!    serial path at every thread count, and a scoring thread's one
//!    reused extraction cache is bit-identical to a fresh one per batch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread;

use proptest::prelude::*;
use ssf_repro::datasets::DatasetSpec;
use ssf_repro::prelude::*;

#[allow(clippy::expect_used)] // test helper
fn quick_config(seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            seed,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid concurrency configuration")
}

/// A fit-capable synthetic stream in timestamp order.
fn stream_events() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    events
}

fn bits(scores: &[Option<f64>]) -> Vec<Option<u64>> {
    scores.iter().map(|s| s.map(f64::to_bits)).collect()
}

/// Every snapshot a reader can observe must be internally consistent,
/// and its parallel batch must bit-match its own serial batch.
#[allow(clippy::unwrap_used)] // test assertions
fn check_snapshot(snap: &ScoringSnapshot, pairs: &[(NodeId, NodeId)]) {
    assert_eq!(
        snap.epoch(),
        snap.graph().revision(),
        "published epoch must equal the frozen graph's revision"
    );
    assert_eq!(
        snap.is_fitted(),
        snap.model_epoch().is_some(),
        "fitted flag and model epoch must agree atomically"
    );
    if let Some(me) = snap.model_epoch() {
        assert!(me <= snap.epoch(), "model from the future: {me}");
    }
    let serial = snap.score_batch(pairs);
    let parallel = snap.score_batch_parallel(pairs, 2);
    assert_eq!(bits(&serial), bits(&parallel), "reader batch diverged");
}

/// One writer keeps observing and publishing; three readers hammer the
/// latest snapshot with parallel batches the whole time. The scope
/// ending is the no-deadlock assertion.
#[test]
#[allow(clippy::unwrap_used)] // mutex in a test; poisoning is a failure
fn concurrent_publish_and_score_never_deadlocks() {
    let events = stream_events();
    let pairs: Vec<(NodeId, NodeId)> =
        vec![(0, 1), (2, 7), (3, 3), (5, 900), (1, 4), (0, 1), (6, 2)];
    let latest: Mutex<Option<ScoringSnapshot>> = Mutex::new(None);
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        s.spawn(|| {
            let mut p = OnlineLinkPredictor::new(quick_config(7));
            for (i, &(u, v, t)) in events.iter().enumerate() {
                p.observe(u, v, t);
                if i % 5 == 0 {
                    *latest.lock().unwrap() = Some(p.snapshot());
                }
            }
            *latest.lock().unwrap() = Some(p.snapshot());
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            s.spawn(|| {
                let mut seen = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = latest.lock().unwrap().clone();
                    if let Some(snap) = snap {
                        check_snapshot(&snap, &pairs);
                        seen += 1;
                    }
                    if finished {
                        break;
                    }
                }
                assert!(seen > 0, "reader never saw a snapshot");
            });
        }
    });
}

/// The parallel ladder: every thread count returns the serial bits.
#[test]
fn score_batch_parallel_is_bit_identical_at_every_thread_count() {
    let mut p = OnlineLinkPredictor::new(quick_config(3));
    for &(u, v, t) in &stream_events() {
        p.observe(u, v, t);
    }
    assert!(p.is_fitted(), "stream must support a fit");
    let n = p.network().node_count() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..96u32)
        .map(|i| ((i * 7) % n, (i * 11 + 1) % n))
        .collect();
    let snap = p.snapshot();
    let serial = snap.score_batch(&pairs);
    assert!(
        serial.iter().any(Option::is_some),
        "the ladder must score real values"
    );
    // The snapshot must also bit-match the live predictor at publish.
    let live: Vec<Option<f64>> =
        pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
    assert_eq!(bits(&serial), bits(&live), "snapshot diverged from live");
    for threads in [1, 2, 4, 8] {
        let parallel = snap.score_batch_parallel(&pairs, threads);
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "diverged at {threads} threads"
        );
    }
}

/// Fitted writer states over two graphs of different sizes, unbounded
/// and windowed, each captured halfway through its stream and at its
/// end, each after one writer `score_batch`.
fn reuse_states() -> &'static [OnlineLinkPredictor] {
    static STATES: OnceLock<Vec<OnlineLinkPredictor>> = OnceLock::new();
    STATES.get_or_init(|| {
        let mut states = Vec::new();
        for (scale, seed, window) in
            [(0.15, 9, None), (0.3, 4, None), (0.15, 9, Some(8))]
        {
            let g = DatasetSpec::coauthor().scaled(scale).generate(seed);
            let mut events: Vec<_> = g.links().collect();
            events.sort_by_key(|l| l.t);
            let config = OnlinePredictorConfig::builder()
                .method(MethodOptions {
                    nm_epochs: 15,
                    seed,
                    ..MethodOptions::default()
                })
                .refit_every(u32::MAX)
                .min_positives(10)
                .history_folds(1)
                .window(window)
                .build()
                .unwrap_or_else(|e| panic!("valid configuration: {e}"));
            let mut p = OnlineLinkPredictor::new(config);
            let half = events.len() / 2;
            for part in [&events[..half], &events[half..]] {
                for l in part {
                    p.observe(l.u, l.v, l.t);
                }
                p.try_refit()
                    .unwrap_or_else(|e| panic!("the stream fits: {e}"));
                let _ = p.score_batch(&[(0, 1), (2, 5), (3, 8)]);
                states.push(p.clone());
            }
        }
        states
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batches from snapshots of different graphs, sizes and windows,
    /// interleaved on one thread (one spare cache, borrowed per batch),
    /// score bit-identically to the same batch on a fresh twin snapshot
    /// scored on a new thread (a fresh cache).
    #[test]
    fn reused_thread_cache_matches_a_fresh_cache_per_batch(
        batches in prop::collection::vec(
            (0..6usize, prop::collection::vec((0..2_000u32, 0..2_000u32), 1..8)),
            1..10,
        ),
    ) {
        let states = reuse_states();
        for (which, picks) in &batches {
            let p = &states[which % states.len()];
            // Ids up to n + 1: out-of-range and self pairs ride along.
            let n = p.network().node_count() as u32;
            let pairs: Vec<(NodeId, NodeId)> = picks
                .iter()
                .map(|&(a, b)| (a % (n + 2), b % (n + 2)))
                .collect();
            let reused = if pairs.len() == 1 {
                vec![p.snapshot().score(pairs[0].0, pairs[0].1)]
            } else {
                p.snapshot().score_batch(&pairs)
            };
            let fresh = thread::scope(|s| {
                s.spawn(|| p.snapshot().score_batch(&pairs)).join()
            })
            .unwrap_or_else(|_| panic!("fresh scorer panicked"));
            prop_assert_eq!(bits(&reused), bits(&fresh));
        }
    }
}
