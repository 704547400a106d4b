//! Metrics-invariant suite: end-to-end checks that the observability
//! layer measures the pipeline without ever steering it.
//!
//! The contract under test has two halves. *Accuracy*: every counter,
//! gauge and span histogram the serving path emits must agree with the
//! ground truth the predictor already tracks ([`StreamStats`],
//! [`CacheStats`], span guards balancing). *Neutrality*: running the
//! identical workload with the no-op recorder must produce bit-identical
//! scores and feature rows — recording is observation, never influence.
//!
//! The golden test at the bottom pins the `ssf.metrics.v1` JSON export
//! byte-for-byte against `tests/fixtures/metrics_snapshot.json`
//! (regenerate deliberately with `UPDATE_METRICS_GOLDEN=1`).

use std::sync::Arc;

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::{GraphView, NodeId};
use ssf_repro::methods::{Method, MethodOptions};
use ssf_repro::obs::{
    labeled, ObsHandle, Registry, SPANS_ENTERED, SPANS_EXITED,
};
use ssf_repro::ssf_eval::{LinkSample, Split, SplitConfig};
use ssf_repro::{
    BatchScorer, Clock, CoalesceConfig, Coalescer, MockClock,
    OnlineLinkPredictor, OnlinePredictorConfig, OnlinePredictorConfigBuilder,
};

/// The shared builder the suite's configs start from; individual tests
/// chain further setters before `build()`.
fn quick_builder() -> OnlinePredictorConfigBuilder {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
}

#[allow(clippy::expect_used)] // test helper
fn quick_config() -> OnlinePredictorConfig {
    quick_builder().build().expect("valid quick configuration")
}

/// Feeds a fit-capable stream into `p` (same generator the stream tests
/// use) and returns the candidate pairs every test scores.
fn feed_stream(p: &mut OnlineLinkPredictor) -> Vec<(NodeId, NodeId)> {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    for l in links {
        p.observe(l.u, l.v, l.t);
    }
    assert!(p.is_fitted(), "stream must support a fit");
    let n = p.network().node_count() as NodeId;
    vec![(0, 1), (2, 5), (1, 4), (3, 3), (0, n + 7), (0, 1), (5, 2)]
}

/// A recording predictor after a full observe → refit → score →
/// score_batch workload, with its registry.
fn recorded_run() -> (OnlineLinkPredictor, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    let mut p = OnlineLinkPredictor::with_recorder(quick_config(), obs);
    let pairs = feed_stream(&mut p);
    for &(u, v) in &pairs {
        let _ = p.score(u, v);
    }
    let _ = p.score_batch(&pairs);
    let _ = p.score_batch(&pairs); // a second borrow of the thread cache
    (p, registry)
}

/// Every span guard the workload opened has dropped by the time we
/// snapshot, so enters and exits must balance exactly.
#[test]
fn span_enters_and_exits_balance() {
    let (_p, registry) = recorded_run();
    let snap = registry.snapshot();
    let entered = snap.counter(SPANS_ENTERED);
    let exited = snap.counter(SPANS_EXITED);
    assert!(entered > 0, "workload must open spans");
    assert_eq!(entered, exited, "unbalanced spans: a guard leaked");
}

/// Every stage the workload crosses shows up as a span histogram, and
/// each histogram satisfies count == Σ bucket counts with ordered,
/// range-bracketed quantiles.
#[test]
fn stage_histograms_are_present_and_internally_consistent() {
    let (_p, registry) = recorded_run();
    let snap = registry.snapshot();
    for stage in [
        "ssf.stream.ingest",
        "ssf.stream.refit",
        "ssf.stream.score",
        "ssf.stream.score_batch",
        "ssf.model.fit",
        "ssf.model.extract",
        "ssf.ml.fit",
        "ssf.core.pair",
        "ssf.core.ball",
        "ssf.core.wl",
        "ssf.core.hop",
        "ssf.core.structure",
        "ssf.core.select",
        "ssf.core.encode",
    ] {
        let h = snap
            .histogram(stage)
            .unwrap_or_else(|| panic!("stage {stage} never recorded"));
        assert!(h.count() > 0, "{stage} is empty");
    }
    for (name, h) in &snap.histograms {
        assert_eq!(
            h.bucket_counts().iter().sum::<u64>(),
            h.count(),
            "{name}: bucket counts disagree with count"
        );
        let (p50, p95, p99) =
            (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{name}: quantiles out of order");
        assert!(
            h.min() <= p50 && p99 <= h.max(),
            "{name}: quantiles escape [min, max]"
        );
    }
}

/// The snapshot's score memo counts one hit or one miss per
/// model-scored lookup (self pairs and out-of-range ids never reach
/// it), and a second pass over the same batch is all hits.
#[test]
fn snapshot_memo_counters_cover_every_model_scored_lookup() {
    let (p, registry) = recorded_run();
    let n = p.network().node_count() as NodeId;
    let pairs = [(0, 1), (2, 5), (1, 0), (3, 3), (0, n + 7), (0, 1), (5, 2)];
    let valid = pairs
        .iter()
        .filter(|&&(u, v)| u != v && u < n && v < n)
        .count() as u64;
    let memo = || {
        let snap = registry.snapshot();
        (
            snap.counter("ssf.serve.memo.hits"),
            snap.counter("ssf.serve.memo.misses"),
        )
    };
    assert_eq!(memo(), (0, 0), "writer paths never touch the memo");
    let snap = p.snapshot();
    let _ = snap.score_batch(&pairs);
    let (hits, misses) = memo();
    assert_eq!(hits + misses, valid);
    assert_eq!(misses, snap.memo_entries() as u64, "one miss per pair");
    assert_eq!(hits, 1, "the repeated (0, 1) hits within the pass");
    let _ = snap.score_batch(&pairs);
    assert_eq!(memo(), (hits + valid, misses), "second pass is all hits");
}

/// Refit counters mirror [`StreamStats`] on both the success path and
/// the backoff/failure path.
#[test]
fn refit_counters_match_stream_stats() {
    // Success-heavy run.
    let (p, registry) = recorded_run();
    let snap = registry.snapshot();
    assert!(p.stats().successful_refits > 0);
    assert_eq!(
        snap.counter("ssf.stream.refit.success"),
        p.stats().successful_refits
    );
    assert_eq!(
        snap.counter("ssf.stream.refit.failed"),
        p.stats().failed_refits
    );

    // Failure-only run: one repeated pair never yields fresh positives,
    // so every refit attempt fails and backoff widens.
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    #[allow(clippy::expect_used)] // test setup
    let config = quick_builder()
        .refit_every(1)
        .max_backoff(8)
        .build()
        .expect("valid failure-only configuration");
    let mut p = OnlineLinkPredictor::with_recorder(config, obs);
    for t in 1..=20u32 {
        p.observe(0, 1, t);
    }
    let snap = registry.snapshot();
    assert!(p.stats().failed_refits > 0);
    assert_eq!(
        snap.counter("ssf.stream.refit.failed"),
        p.stats().failed_refits
    );
    assert_eq!(snap.counter("ssf.stream.refit.success"), 0);
    assert_eq!(
        snap.gauge("ssf.stream.backoff") as u32,
        p.health().current_backoff
    );
}

/// Quarantine counters — the total and every labeled reason — mirror
/// the per-reason tallies in [`StreamStats`].
#[test]
fn quarantine_counters_match_stream_stats_by_reason() {
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    #[allow(clippy::expect_used)] // test setup
    let config = quick_builder()
        .quarantine_duplicates(true)
        .max_lag(Some(2))
        .build()
        .expect("valid quarantine configuration");
    let mut p = OnlineLinkPredictor::with_recorder(config, obs);
    p.observe(0, 1, 1);
    p.observe(0, 1, 1); // duplicate
    p.observe(7, 7, 2); // self-loop
    p.observe(1, 2, 10);
    p.observe(2, 3, 1); // stale (lag 9 > 2)
    let snap = registry.snapshot();
    let stats = p.stats();
    let reason = |r: &str| {
        snap.counter(&labeled("ssf.stream.quarantined", &[("reason", r)]))
    };
    assert_eq!(reason("self_loop"), stats.self_loops);
    assert_eq!(reason("duplicate"), stats.duplicates);
    assert_eq!(reason("stale"), stats.stale);
    assert_eq!(snap.counter("ssf.stream.quarantined"), stats.quarantined());
    assert_eq!(snap.counter("ssf.stream.accepted"), stats.accepted);
}

/// `health()` carries the recorder's snapshot — and stays empty (not
/// stale, not partial) on the no-op handle.
#[test]
fn health_carries_metrics_snapshot() {
    let (p, registry) = recorded_run();
    assert_eq!(p.health().metrics, registry.snapshot());

    let mut unobserved = OnlineLinkPredictor::new(quick_config());
    unobserved.observe(0, 1, 1);
    assert!(unobserved.health().metrics.is_empty());
}

/// The neutrality half of the contract: an identical workload through
/// the no-op recorder and through a live registry recorder produces
/// bit-identical scores, per-pair and batched.
#[test]
fn noop_and_recording_paths_are_bit_identical() {
    let mut plain = OnlineLinkPredictor::new(quick_config());
    let registry = Arc::new(Registry::new());
    let mut recorded = OnlineLinkPredictor::with_recorder(
        quick_config(),
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    let pairs = feed_stream(&mut plain);
    let pairs_r = feed_stream(&mut recorded);
    assert_eq!(pairs, pairs_r);

    let bits = |s: Option<f64>| s.map(f64::to_bits);
    for &(u, v) in &pairs {
        assert_eq!(
            bits(plain.score(u, v)),
            bits(recorded.score(u, v)),
            "score({u}, {v}) diverged under recording"
        );
    }
    let batch_plain: Vec<_> =
        plain.score_batch(&pairs).into_iter().map(bits).collect();
    let batch_recorded: Vec<_> =
        recorded.score_batch(&pairs).into_iter().map(bits).collect();
    assert_eq!(batch_plain, batch_recorded, "batch diverged");
    assert!(
        !registry.snapshot().is_empty(),
        "the recording side must actually have recorded"
    );
}

/// A split the extraction tests share, built the way the pipeline tests
/// build theirs.
#[allow(clippy::expect_used)] // test helper
fn eval_split() -> Split {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    Split::with_min_positives(
        &g,
        &SplitConfig {
            max_positives: Some(60),
            ..SplitConfig::default()
        },
        30,
    )
    .expect("generated dataset must split")
}

/// Batch extraction is equally neutral: the observed entry point returns
/// the same rows, bit for bit, as the no-op one.
#[test]
fn observed_extraction_rows_are_bit_identical() {
    let split = eval_split();
    let opts = MethodOptions::default();
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    for threads in [1, 4] {
        let (plain, _) = Method::Ssfnm.extract_batch_stats(
            &split,
            &opts,
            &split.train,
            threads,
        );
        let (observed, _) = Method::Ssfnm.extract_batch_observed(
            &split,
            &opts,
            &split.train,
            threads,
            &obs,
        );
        let to_bits = |rows: &[Vec<f64>]| -> Vec<Vec<u64>> {
            rows.iter()
                .map(|r| r.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            to_bits(&plain),
            to_bits(&observed),
            "threads={threads}: recording changed extraction output"
        );
    }
    let snap = registry.snapshot();
    assert!(snap.histogram("ssf.core.pair").is_some());
    assert!(snap.histogram("ssf.methods.extract").is_some());
    assert!(snap.counter("ssf.methods.samples") > 0);
}

/// Regression test for the per-chunk cache-stats bug: the parallel batch
/// path used to return only the *last* worker chunk's [`CacheStats`],
/// under-counting on any multi-threaded batch. Every valid sample looks
/// up both endpoint balls once at `h = 1` and once more per K-growth
/// round, so across all chunks `ball_hits + ball_misses` must equal
/// 2 × (samples + `ssf.core.kgrowth_rounds`).
#[test]
fn extract_batch_stats_cover_all_chunks() {
    let split = eval_split();
    // K = 30 makes some samples grow past h = 1, so the K-growth term
    // of the invariant is exercised too.
    let opts = MethodOptions {
        k: 30,
        ..MethodOptions::default()
    };
    // ≥ 64 samples forces the threaded path; 4 threads → 4 worker chunks,
    // each with its own cache. One thread counts in one cache.
    let samples: Vec<LinkSample> =
        split.train.iter().cycle().take(80).copied().collect();
    for threads in [4, 1] {
        let registry = Arc::new(Registry::new());
        let obs = ObsHandle::of_registry(Arc::clone(&registry));
        let (rows, stats) = Method::Ssflr
            .extract_batch_observed(&split, &opts, &samples, threads, &obs);
        assert_eq!(rows.len(), samples.len());
        let rounds = registry.snapshot().counter("ssf.core.kgrowth_rounds");
        assert!(rounds > 0, "threads={threads}: no sample grew");
        assert_eq!(
            stats.ball_hits + stats.ball_misses,
            2 * (samples.len() as u64 + rounds),
            "threads={threads}: stats must aggregate every worker chunk, \
             not just the last: {stats:?}"
        );
    }
}

/// Scores every pair 0.5; enough to drive the coalescer's bookkeeping.
struct ConstScorer;

impl BatchScorer for ConstScorer {
    fn epoch_key(&self) -> u64 {
        0
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        _threads: usize,
    ) -> Vec<Option<f64>> {
        vec![Some(0.5); pairs.len()]
    }
}

/// `ssf.serve.queue_wait` holds one sample per dispatched request, and
/// each sample is that request's age at batch close on the mock clock.
#[test]
fn queue_wait_histogram_records_each_dispatched_age() {
    let registry = Arc::new(Registry::new());
    let clock = Arc::new(MockClock::new());
    let config = CoalesceConfig::builder()
        .max_batch(2)
        .build()
        .expect("valid");
    let c = Coalescer::with_clock_and_recorder(
        ConstScorer,
        config,
        Arc::<MockClock>::clone(&clock) as Arc<dyn Clock>,
        ObsHandle::of_registry(Arc::clone(&registry)),
    );
    let mut tickets = Vec::new();
    let mut want_sum = 0u64;
    // Requests at t = 0, 400, 700 close at 700 over two steps of at
    // most two; one at 950 closes alone at 1 950, where an expired
    // request queued behind it is never dispatched and never sampled.
    for at in [0u64, 400, 700] {
        clock.set(at);
        tickets.push(c.submit(1, 2).expect("admitted"));
        want_sum += 700 - at;
    }
    let first = c.step();
    assert_eq!((first.scored, first.remaining), (2, 1));
    assert_eq!(c.step().scored, 1);
    clock.set(950);
    tickets.push(c.submit(3, 4).expect("admitted"));
    let doomed = c.submit_with_budget(5, 6, 10).expect("admitted");
    clock.set(1_950);
    let last = c.step();
    assert_eq!((last.scored, last.expired), (1, 1));
    want_sum += 1_000;
    assert!(doomed.wait().is_err());
    assert!(tickets.into_iter().all(|t| t.wait().is_ok()));

    let snap = registry.snapshot();
    let waits = snap
        .histogram("ssf.serve.queue_wait")
        .expect("queue waits recorded");
    assert_eq!(waits.count(), snap.counter("ssf.serve.coalesced"));
    assert_eq!(waits.count(), 4);
    assert_eq!(waits.sum(), want_sum);
}

const GOLDEN: &str = include_str!("fixtures/metrics_snapshot.json");

/// Builds the deterministic snapshot the golden fixture freezes: fixed
/// counter/gauge values and explicit histogram samples — no clocks, no
/// randomness, so the JSON is byte-stable across machines.
fn golden_registry() -> Registry {
    let reg = Registry::new();
    reg.counter(SPANS_ENTERED).add(3);
    reg.counter(SPANS_EXITED).add(3);
    reg.counter("ssf.stream.accepted").add(42);
    reg.counter(&labeled(
        "ssf.stream.quarantined",
        &[("reason", "self_loop")],
    ))
    .add(1);
    reg.gauge("ssf.ml.val_loss").set(0.125);
    reg.gauge("ssf.stream.backoff").set(1.0);
    reg.gauge("ssf.stream.cache.hit_rate").set(0.75);
    for ns in [800, 3_000, 250_000, 9_000_000_000] {
        reg.histogram("ssf.core.ball").record(ns);
    }
    reg.histogram("ssf.stream.score").record(2_000_000);
    reg
}

/// The `ssf.metrics.v1` JSON export, byte-for-byte. A failure here means
/// the schema moved: bump the schema version and the consumers, don't
/// just regenerate. (`UPDATE_METRICS_GOLDEN=1 cargo test` rewrites the
/// fixture when a change *is* intentional.)
#[test]
fn metrics_snapshot_json_matches_golden() {
    let json = golden_registry().snapshot().to_json();
    if std::env::var_os("UPDATE_METRICS_GOLDEN").is_some() {
        std::fs::write("tests/fixtures/metrics_snapshot.json", &json)
            .expect("rewrite golden fixture");
        return;
    }
    assert!(json.contains("\"schema\": \"ssf.metrics.v1\""));
    assert_eq!(
        json, GOLDEN,
        "ssf.metrics.v1 JSON drifted from the golden fixture"
    );
}
