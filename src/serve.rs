//! Concurrent serving: immutable scoring snapshots.
//!
//! The paper's serving story (§V) interleaves two workloads: timestamped
//! links *stream in* while candidate-pair *queries* arrive. The online
//! predictor is `&mut self` end-to-end — correct, but a single writer
//! monopolizes it, so score throughput is capped at one core and every
//! `observe` stalls all scoring. This module splits the two roles: one
//! writer ingests and refits, and readers score a [`ScoringSnapshot`] —
//! an immutable, `Arc`-published *epoch* of the predictor (graph + fitted
//! model).
//!
//! Snapshots are `Send + Sync` and cheap to clone, so any number of reader
//! threads score concurrently — [`ScoringSnapshot::score_batch_parallel`]
//! fans one batch out across scoped threads — while the writer keeps
//! ingesting and refitting, then publishes the next epoch. Scores are
//! **bit-identical** to the serial predictor paths: every route goes
//! through the same extraction pipeline, and caches never change values
//! (`tests/concurrency.rs` proves it under live interleavings).
//!
//! Because a snapshot is immutable, a pair's score through it never
//! changes: each snapshot memoises the model score of every directed
//! pair it served (bounded at 8192 pairs, dropped with the snapshot), so
//! a repeated query skips extraction entirely. `None` results and
//! common-neighbor fallbacks are never memoised.
//!
//! This module is also the home of the serving-surface types ([`Health`],
//! [`StreamStats`], [`Observed`], [`QuarantineReason`]). Import them from
//! [`crate::prelude`] or the crate root.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dyngraph::{DeltaGraph, GraphView, NodeId, OverlayView, Timestamp, Window};
use obs::{ObsHandle, Snapshot};
use ssf_core::{ExtractionCache, LruCache, ThreadCache};
use ssf_persist::SnapshotReader;

use crate::durability::{self, PersistedState};
use crate::error::SsfError;
use crate::model::SsfnmModel;
use crate::stream::{FittedModel, OnlineLinkPredictor};

/// Why an event was quarantined instead of entering the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// Both endpoints are the same node.
    SelfLoop,
    /// An identical `(u, v, t)` event was already recorded (only with
    /// [`quarantine_duplicates`](crate::OnlinePredictorConfig::quarantine_duplicates)).
    Duplicate,
    /// The timestamp trails the newest observed one by more than
    /// [`max_lag`](crate::OnlinePredictorConfig::max_lag) ticks.
    Stale {
        /// How many ticks behind the stream head the event arrived.
        lag: u32,
    },
    /// The timestamp precedes the sliding window's cutoff — the link
    /// expired before it arrived (only with
    /// [`window`](crate::OnlinePredictorConfig::window)). Endpoints remain
    /// known.
    OutOfWindow {
        /// The inclusive lower bound the timestamp fell short of.
        cutoff: u32,
    },
}

/// Outcome of feeding one event to [`OnlineLinkPredictor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The event entered the network.
    Accepted,
    /// The event was counted and dropped; its endpoints remain known.
    Quarantined(QuarantineReason),
}

impl Observed {
    /// `true` when the event entered the network.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Observed::Accepted)
    }
}

/// Running tallies of stream hygiene and degradation.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Events that entered the network.
    pub accepted: u64,
    /// Quarantined self-loop events.
    pub self_loops: u64,
    /// Quarantined duplicate events.
    pub duplicates: u64,
    /// Quarantined stale events.
    pub stale: u64,
    /// Quarantined events whose timestamp predated the window cutoff.
    pub out_of_window: u64,
    /// Refit attempts that produced a model.
    pub successful_refits: u64,
    /// Refit attempts that failed (model unchanged).
    pub failed_refits: u64,
    /// Scores served by the common-neighbor fallback instead of the
    /// model. Atomic because scoring takes `&self`.
    pub(crate) degraded_scores: AtomicU64,
}

impl StreamStats {
    /// Total quarantined events, all reasons.
    pub fn quarantined(&self) -> u64 {
        self.self_loops + self.duplicates + self.stale + self.out_of_window
    }

    /// Scores served by the degraded fallback path.
    pub fn degraded_scores(&self) -> u64 {
        self.degraded_scores.load(Ordering::Relaxed)
    }
}

impl Clone for StreamStats {
    fn clone(&self) -> Self {
        StreamStats {
            accepted: self.accepted,
            self_loops: self.self_loops,
            duplicates: self.duplicates,
            stale: self.stale,
            out_of_window: self.out_of_window,
            successful_refits: self.successful_refits,
            failed_refits: self.failed_refits,
            degraded_scores: AtomicU64::new(self.degraded_scores()),
        }
    }
}

/// Point-in-time health snapshot of an [`OnlineLinkPredictor`].
///
/// `fitted` and `model_epoch` are read from one atomically-replaced
/// model slot, so they can never disagree: `fitted` is `true` exactly
/// when `model_epoch` is `Some` (regression-tested — a snapshot taken
/// mid-refit used to be able to pair the new flag with the old model).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Health {
    /// Whether a model is currently serving.
    pub fitted: bool,
    /// Graph revision the serving model was fitted at; `None` before the
    /// first successful refit. Always consistent with `fitted`.
    pub model_epoch: Option<u64>,
    /// Current graph revision (total accepted mutations).
    pub graph_revision: u64,
    /// Events accepted into the network.
    pub accepted: u64,
    /// Events quarantined, all reasons combined.
    pub quarantined: u64,
    /// Scores served by the degraded fallback path.
    pub degraded_scores: u64,
    /// Refit attempts that produced a model.
    pub successful_refits: u64,
    /// Refit attempts that failed.
    pub failed_refits: u64,
    /// Current backoff multiplier on the refit interval (1 = healthy).
    pub current_backoff: u32,
    /// Rendered error of the most recent failed refit, cleared on success.
    pub last_refit_error: Option<String>,
    /// Metrics snapshot from the predictor's recorder. Empty when the
    /// predictor runs with the no-op handle (see
    /// [`OnlineLinkPredictor::with_recorder`]).
    pub metrics: Snapshot,
}

/// Degraded scorer: `cn / (cn + 1)` over distinct common neighbors —
/// monotone in CN and bounded in `[0, 1)` like a probability.
pub(crate) fn common_neighbor_fallback<G: GraphView + ?Sized>(
    g: &G,
    u: NodeId,
    v: NodeId,
) -> f64 {
    let a = g.neighbors(u);
    let b = g.neighbors(v);
    let (mut i, mut j, mut cn) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                cn += 1;
                i += 1;
                j += 1;
            }
        }
    }
    cn as f64 / (cn as f64 + 1.0)
}

/// One immutable epoch of a predictor: graph and fitted model, published
/// together.
///
/// Created by [`OnlineLinkPredictor::snapshot`]. The snapshot is a value:
/// later `observe`/`try_refit` calls on the predictor never change it, and
/// cloning shares one `Arc` allocation. All scoring paths return exactly
/// what the predictor's own [`score`]/[`score_batch`] returned at publish
/// time, bit for bit — including the `None` cases and the common-neighbor
/// degradation.
///
/// A pair the snapshot already scored through the model is answered
/// from a per-snapshot memo of at most 8192 directed pairs (see
/// [`ScoringSnapshot::memo_entries`]); the memo lives and dies with the
/// snapshot, so a later publish always starts cold.
///
/// # Example
///
/// ```rust
/// use std::thread;
///
/// use ssf_repro::prelude::*;
///
/// let mut p = OnlineLinkPredictor::new(OnlinePredictorConfig::default());
/// p.observe(0, 1, 1);
/// p.observe(1, 2, 2);
/// let snap = p.snapshot();
/// thread::scope(|s| {
///     for _ in 0..4 {
///         let snap = snap.clone();
///         s.spawn(move || snap.score_batch(&[(0, 2), (1, 2)]));
///     }
/// });
/// // The writer kept going the whole time:
/// p.observe(0, 2, 3);
/// assert_eq!(snap.epoch() + 1, p.network().revision());
/// ```
///
/// [`score`]: OnlineLinkPredictor::score
/// [`score_batch`]: OnlineLinkPredictor::score_batch
#[derive(Debug, Clone)]
pub struct ScoringSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    /// Copy-on-write view of the predictor's graph at publish: a shared
    /// frozen CSR base plus the delta rows, captured with `Arc` clones.
    graph: OverlayView,
    model: Option<Arc<FittedModel>>,
    /// Graph revision at publish; always equals `graph.revision()`.
    epoch: u64,
    /// `max_timestamp + 1` at publish — the fixed prediction time.
    present: Option<Timestamp>,
    /// The sliding window at publish; `None` for an unbounded
    /// predictor. Epoch-staged batchers fold it into their batch key
    /// so one batch never mixes windows.
    window: Option<Window>,
    degraded_scores: AtomicU64,
    /// Model scores this snapshot has already served, by directed pair.
    /// Holds only model outputs: never `None` and never a fallback.
    memo: Memo,
    obs: ObsHandle,
}

/// Directed pairs one snapshot's score memo holds, about 0.3 MB per full
/// memo. This is the one per-pair memo of the scoring path.
const MEMO_CAPACITY: usize = 8192;

/// A snapshot's score memo: model scores by directed pair.
type Memo = Mutex<LruCache<(NodeId, NodeId), f64>>;

fn empty_memo() -> Memo {
    Mutex::new(LruCache::new(MEMO_CAPACITY))
}

fn lock(memo: &Memo) -> MutexGuard<'_, LruCache<(NodeId, NodeId), f64>> {
    // The memo only holds finished scores, so a panic elsewhere can
    // never leave it half-written.
    memo.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the one pair-scoring loop reads: the graph and serving model of
/// the writer or of a snapshot, with the caller's memo, degraded tally
/// and recorder.
pub(crate) struct Scorer<'a, G: ?Sized> {
    pub(crate) graph: &'a G,
    /// The serving model and the prediction time; `None` when either is
    /// missing, and then every pair scores `None`.
    pub(crate) model: Option<(&'a SsfnmModel, Timestamp)>,
    /// A snapshot's score memo; the writer scores without one.
    pub(crate) memo: Option<&'a Memo>,
    /// The caller's tally of common-neighbor fallbacks, and the counter
    /// it reports them under.
    pub(crate) degraded: (&'a AtomicU64, &'static str),
    pub(crate) obs: &'a ObsHandle,
}

impl<G: GraphView + ?Sized> Scorer<'_, G> {
    /// The one pair-scoring loop, behind the writer's
    /// [`score`](OnlineLinkPredictor::score) and
    /// [`score_batch`](OnlineLinkPredictor::score_batch) and every
    /// snapshot path: validate, read the memo (when there is one),
    /// extract and score the misses against this thread's borrowed cache
    /// (taken on the first miss), degrade to the common-neighbor
    /// fallback on error or panic. The cache goes back to the thread
    /// cleared, unless a pair panicked in it. Memo hits and misses are
    /// counted under `ssf.serve.memo.*`, so a memo-less caller never
    /// touches those counters.
    pub(crate) fn score(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        let n = self.graph.node_count() as NodeId;
        let mut cache: Option<ThreadCache> = None;
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut out = Vec::with_capacity(pairs.len());
        for &(u, v) in pairs {
            if u == v || u >= n || v >= n {
                out.push(None);
                continue;
            }
            let Some((model, present)) = self.model else {
                out.push(None);
                continue;
            };
            if let Some(memo) = self.memo {
                let memoised = lock(memo).get(&(u, v)).copied();
                if let Some(p) = memoised {
                    hits += 1;
                    out.push(Some(p));
                    continue;
                }
                misses += 1;
            }
            let cache = cache.get_or_insert_with(|| {
                ExtractionCache::borrow(self.obs.clone())
            });
            let attempt = cache.catch(|cache| {
                model.try_score_cached(self.graph, u, v, present, cache)
            });
            out.push(match attempt {
                Ok(Ok(p)) => {
                    if let Some(memo) = self.memo {
                        lock(memo).insert((u, v), p);
                    }
                    Some(p)
                }
                Ok(Err(_)) | Err(_) => {
                    let (tally, counter) = self.degraded;
                    tally.fetch_add(1, Ordering::Relaxed);
                    self.obs.counter(counter, 1);
                    Some(common_neighbor_fallback(self.graph, u, v))
                }
            });
        }
        if hits > 0 {
            self.obs.counter("ssf.serve.memo.hits", hits);
        }
        if misses > 0 {
            self.obs.counter("ssf.serve.memo.misses", misses);
        }
        out
    }
}

impl ScoringSnapshot {
    /// Publishes the predictor's current epoch as an immutable snapshot.
    /// The graph is captured as a copy-on-write [`OverlayView`] — `Arc`
    /// clones of the frozen base plus the delta rows, O(delta) rather
    /// than a graph-sized copy. The view preserves the revision counter.
    pub(crate) fn publish(p: &OnlineLinkPredictor) -> Self {
        let graph = p.network().publish();
        let epoch = graph.revision();
        let present = graph.max_timestamp().map(|t| t.saturating_add(1));
        ScoringSnapshot {
            inner: Arc::new(SnapshotInner {
                model: p.fitted.clone(),
                epoch,
                present,
                window: p.window(),
                graph,
                degraded_scores: AtomicU64::new(0),
                memo: empty_memo(),
                obs: p.recorder().clone(),
            }),
        }
    }

    /// Loads a checkpoint written by
    /// [`OnlineLinkPredictor::checkpoint`] (or the CLI `save` command)
    /// directly into a servable snapshot — no predictor, no WAL replay,
    /// no rebuild. This is the read-only fast path for replicas that
    /// serve a point-in-time state: the file's graph revision becomes
    /// the snapshot epoch and its persisted model (if any) serves
    /// scores exactly as it did on the writer.
    ///
    /// The score memo starts cold and telemetry is detached; both only
    /// affect speed, never scores.
    ///
    /// # Errors
    ///
    /// [`SsfError::Io`] when the file cannot be read,
    /// [`SsfError::Corrupt`] when any section fails its checksum or
    /// the decoded state violates its invariants.
    pub fn load(path: &Path) -> Result<Self, SsfError> {
        let reader = SnapshotReader::open(path)?;
        let PersistedState {
            graph, model, meta, ..
        } = durability::decode_state(&reader)?;
        let graph = DeltaGraph::new(Arc::new(graph)).publish();
        let epoch = graph.revision();
        // Saturate: the graph comes off disk, and a max timestamp of
        // u32::MAX must not wrap the serving horizon back to 0.
        let present = graph.max_timestamp().map(|t| t.saturating_add(1));
        let model = match (model, meta.model_epoch) {
            (Some(model), Some(epoch)) => {
                Some(Arc::new(FittedModel { model, epoch }))
            }
            _ => None,
        };
        Ok(ScoringSnapshot {
            inner: Arc::new(SnapshotInner {
                graph,
                model,
                epoch,
                present,
                window: meta.window,
                degraded_scores: AtomicU64::new(0),
                memo: empty_memo(),
                obs: ObsHandle::noop(),
            }),
        })
    }

    /// The graph revision this snapshot was published at. Equals
    /// [`Self::graph`]`.revision()` — every epoch is internally
    /// consistent by construction.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Graph revision the serving model was fitted at; `None` when no
    /// model had been fitted by publish time. Never exceeds
    /// [`Self::epoch`].
    pub fn model_epoch(&self) -> Option<u64> {
        self.inner.model.as_ref().map(|m| m.epoch)
    }

    /// Whether a fitted model is serving (equivalent to
    /// `model_epoch().is_some()`).
    pub fn is_fitted(&self) -> bool {
        self.inner.model.is_some()
    }

    /// The frozen graph view this snapshot scores against.
    pub fn graph(&self) -> &OverlayView {
        &self.inner.graph
    }

    /// Links the publishing predictor had accumulated on top of its
    /// shared frozen base — the delta the publish cost was proportional
    /// to (0 right after a compaction or for an untouched graph).
    pub fn delta_links(&self) -> usize {
        self.inner.graph.delta_link_count()
    }

    /// The fixed prediction timestamp (`max_timestamp + 1` at publish),
    /// `None` for an empty network.
    pub fn present(&self) -> Option<Timestamp> {
        self.inner.present
    }

    /// The sliding window this snapshot was published under, `None`
    /// for an unbounded predictor. Checkpoints round-trip it, so a
    /// replica loaded with [`Self::load`] reports the writer's window.
    pub fn window(&self) -> Option<Window> {
        self.inner.window
    }

    /// Scores served by the common-neighbor fallback *through this
    /// snapshot* (per-snapshot tally; the predictor's own
    /// [`StreamStats::degraded_scores`] is not retro-incremented).
    pub fn degraded_scores(&self) -> u64 {
        self.inner.degraded_scores.load(Ordering::Relaxed)
    }

    /// Directed pairs whose model score this snapshot has memoised
    /// (at most 8192; the memo is dropped with the snapshot).
    pub fn memo_entries(&self) -> usize {
        lock(&self.inner.memo).len()
    }

    /// Scores one candidate pair — same contract and same bits as
    /// [`OnlineLinkPredictor::score`] at publish time, but through
    /// `&self`, from any thread. The one-pair case of the batch loop:
    /// a pair this snapshot already scored is served from its memo.
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let _span = self.inner.obs.span("ssf.serve.score");
        self.scorer().score(&[(u, v)]).pop().flatten()
    }

    /// Scores a batch serially: each pair is read from the snapshot's
    /// memo or, on a miss, extracted against one borrow of the thread's
    /// extraction cache — bit-identical to calling [`Self::score`] per
    /// pair.
    pub fn score_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        let _span = self.inner.obs.span("ssf.serve.score_batch");
        self.inner
            .obs
            .counter("ssf.serve.scored", pairs.len() as u64);
        self.scorer().score(pairs)
    }

    /// Fans a batch out over `threads` threads — the caller plus
    /// `threads - 1` scoped workers, each with its own thread's cache —
    /// and reassembles results in input order. Bit-identical to
    /// [`Self::score_batch`] for every slot: caches only memoize values
    /// the pipeline would recompute identically, so the chunking never
    /// shows in the output.
    ///
    /// Degenerate inputs are handled uniformly across every batch path
    /// (snapshot, coalesced): `threads == 0` is clamped to 1
    /// and an empty batch returns an empty vector without spawning
    /// threads or opening spans. Callers that want `threads == 0`
    /// rejected as a typed error should validate through
    /// [`CoalesceConfig::builder`](crate::coalesce::CoalesceConfig::builder).
    pub fn score_batch_parallel(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let threads = threads.max(1).min(pairs.len());
        if threads == 1 {
            return self.score_batch(pairs);
        }
        let _span = self.inner.obs.span("ssf.serve.score_batch_parallel");
        self.inner
            .obs
            .counter("ssf.serve.scored", pairs.len() as u64);
        let chunk = pairs.len().div_ceil(threads);
        let (first, rest) = pairs.split_at(chunk);
        let mut out: Vec<Option<f64>> = Vec::with_capacity(pairs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = rest
                .chunks(chunk)
                .map(|c| (c.len(), s.spawn(move || self.scorer().score(c))))
                .collect();
            // The calling thread scores the first chunk itself, with its
            // own reused cache, while the spawned threads run the rest.
            out.extend(self.scorer().score(first));
            for (len, h) in handles {
                match h.join() {
                    Ok(scores) => out.extend(scores),
                    // Unreachable (workers catch per-pair panics), but a
                    // dying worker must not shift later chunks.
                    Err(_) => out.extend(std::iter::repeat_n(None, len)),
                }
            }
        });
        out
    }

    /// The scoring loop over this snapshot's graph, model and memo.
    fn scorer(&self) -> Scorer<'_, OverlayView> {
        let inner = &*self.inner;
        Scorer {
            graph: &inner.graph,
            model: inner
                .model
                .as_deref()
                .map(|fitted| &fitted.model)
                .zip(inner.present),
            memo: Some(&inner.memo),
            degraded: (&inner.degraded_scores, "ssf.serve.degraded_scores"),
            obs: &inner.obs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodOptions;
    use crate::stream::OnlinePredictorConfig;
    use datasets::DatasetSpec;

    fn quick_config() -> OnlinePredictorConfig {
        OnlinePredictorConfig {
            method: MethodOptions {
                nm_epochs: 15,
                ..MethodOptions::default()
            },
            refit_every: 5,
            min_positives: 10,
            history_folds: 1,
            ..OnlinePredictorConfig::default()
        }
    }

    fn fitted_predictor() -> OnlineLinkPredictor {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted());
        p
    }

    #[test]
    fn snapshot_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScoringSnapshot>();
    }

    #[test]
    fn snapshot_matches_predictor_bit_for_bit() {
        let p = fitted_predictor();
        let n = p.network().node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            vec![(0, 1), (2, 5), (3, 3), (0, n + 4), (1, 0), (0, 1)];
        let snap = p.snapshot();
        assert_eq!(snap.epoch(), p.network().revision());
        assert_eq!(snap.model_epoch().is_some(), snap.is_fitted());
        let serial: Vec<_> =
            pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
        let via_score: Vec<_> =
            pairs.iter().map(|&(u, v)| snap.score(u, v)).collect();
        let via_batch = snap.score_batch(&pairs);
        let via_parallel = snap.score_batch_parallel(&pairs, 3);
        let via_predictor_batch = p.score_batch(&pairs);
        for (name, got) in [
            ("score", &via_score),
            ("score_batch", &via_batch),
            ("score_batch_parallel", &via_parallel),
            ("predictor score_batch", &via_predictor_batch),
        ] {
            for (i, (a, b)) in serial.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{name}: pair {:?} diverged",
                    pairs[i]
                );
            }
        }
    }

    #[test]
    fn republish_without_observes_reuses_the_frozen_base() {
        let mut p = fitted_predictor();
        let s1 = p.snapshot();
        let s2 = p.snapshot();
        assert_eq!(s1.epoch(), s2.epoch());
        assert_eq!(s1.delta_links(), s2.delta_links());
        assert!(
            Arc::ptr_eq(s1.graph().base(), s2.graph().base()),
            "publish without new observes must not rebuild the CSR base"
        );
        // k accepted links below the compaction threshold: the next
        // publish carries exactly those k more delta links on the same
        // frozen base.
        let k = 3;
        let t = p.network().max_timestamp().unwrap_or(0);
        for i in 0..k as NodeId {
            assert!(p.observe(i, i + 7, t).is_accepted());
        }
        let s3 = p.snapshot();
        assert!(
            Arc::ptr_eq(s1.graph().base(), s3.graph().base()),
            "publish after a small delta must not rebuild the CSR base"
        );
        assert_eq!(s3.delta_links(), p.delta_link_count());
        assert_eq!(s3.delta_links(), s1.delta_links() + k);
    }

    #[test]
    fn snapshot_is_immutable_under_later_observes() {
        let mut p = fitted_predictor();
        let snap = p.snapshot();
        let before = snap.score(0, 1);
        let epoch = snap.epoch();
        let t = p.network().max_timestamp().unwrap_or(0) + 1;
        assert!(p.observe(0, 1, t).is_accepted());
        assert!(p.observe(2, 9, t + 1).is_accepted());
        assert_eq!(snap.epoch(), epoch, "published epoch is frozen");
        assert_eq!(
            snap.score(0, 1).map(f64::to_bits),
            before.map(f64::to_bits),
            "snapshot scores must not move with the live graph"
        );
        assert!(p.network().revision() > epoch);
    }

    #[test]
    fn memo_fills_per_snapshot_and_a_new_publish_starts_cold() {
        let p = fitted_predictor();
        let snap = p.snapshot();
        // (3, 3) is a self pair and (0, 1) repeats: three directed pairs.
        let _ = snap.score_batch(&[(0, 1), (1, 0), (2, 5), (3, 3), (0, 1)]);
        assert_eq!(snap.memo_entries(), 3);
        assert_eq!(snap.clone().memo_entries(), 3, "clones share the memo");
        assert_eq!(p.snapshot().memo_entries(), 0);
    }

    /// A model whose feature width disagrees with its extractor panics
    /// inside scoring, so every valid pair degrades to the fallback.
    fn degrading_predictor() -> OnlineLinkPredictor {
        let mut p = fitted_predictor();
        let fitted = p.fitted.clone().unwrap_or_else(|| panic!("fitted"));
        let narrow = ssf_core::SsfConfig {
            k: 3,
            ..*fitted.model.config()
        };
        p.fitted = Some(Arc::new(FittedModel {
            model: fitted.model.clone().with_config(narrow),
            epoch: fitted.epoch,
        }));
        p
    }

    #[test]
    fn degraded_pairs_are_never_memoised() {
        let snap = degrading_predictor().snapshot();
        let fallback = common_neighbor_fallback(snap.graph(), 0, 1);
        for round in 1..=3u64 {
            assert_eq!(snap.score(0, 1), Some(fallback));
            assert_eq!(
                snap.score_batch(&[(0, 1), (0, 1)]),
                vec![Some(fallback); 2]
            );
            assert_eq!(
                snap.score_batch_parallel(&[(0, 1), (0, 1)], 2).len(),
                2
            );
            assert_eq!(snap.degraded_scores(), 5 * round);
        }
        assert_eq!(snap.memo_entries(), 0);
    }

    /// Whether the calling thread holds a spare extraction cache; the
    /// borrow that checks hands it straight back.
    fn holds_spare() -> bool {
        ExtractionCache::borrow(ObsHandle::noop()).reused()
    }

    /// After a healthy chunk the thread keeps its cache (the borrow API's
    /// own test checks it comes back cleared: no balls, no recorder);
    /// after a chunk in which a pair panicked it keeps none. Scores
    /// before and after match a fresh cache (a new thread) bit for bit.
    #[test]
    fn spare_cache_is_returned_cleared_and_dropped_after_a_panic() {
        let mut p = OnlineLinkPredictor::with_recorder(
            quick_config(),
            ObsHandle::of_registry(Default::default()),
        );
        let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        let pairs = [(0, 1), (2, 5), (1, 4), (3, 8)];
        let bits = |s: Vec<Option<f64>>| -> Vec<Option<u64>> {
            s.into_iter().map(|x| x.map(f64::to_bits)).collect()
        };
        let fresh = std::thread::scope(|s| {
            s.spawn(|| p.snapshot().score_batch(&pairs)).join()
        })
        .unwrap_or_else(|_| panic!("fresh scorer panicked"));

        assert_eq!(bits(p.snapshot().score_batch(&pairs)), bits(fresh.clone()));
        assert!(holds_spare(), "a healthy chunk returns its cache");

        let bad = degrading_predictor().snapshot();
        let _ = bad.score_batch(&pairs);
        assert!(bad.degraded_scores() > 0, "the pairs panicked");
        assert!(!holds_spare(), "a panicked chunk drops its cache");

        assert_eq!(bits(p.snapshot().score_batch(&pairs)), bits(fresh));
        assert!(holds_spare());
    }

    #[test]
    fn unfitted_snapshot_scores_none_consistently() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        p.observe(1, 2, 2);
        let snap = p.snapshot();
        assert!(!snap.is_fitted());
        assert_eq!(snap.model_epoch(), None);
        assert_eq!(snap.score(0, 2), None);
        assert_eq!(snap.score_batch(&[(0, 2)]), vec![None]);
        assert_eq!(snap.score_batch_parallel(&[(0, 2), (1, 0)], 2).len(), 2);
    }
}
