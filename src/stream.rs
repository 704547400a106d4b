//! Online link prediction over a live link stream.
//!
//! The paper models dynamic networks as a stream of timestamped links
//! (§III): "the links with timestamps emerge as a stream. We create the
//! dynamic network from a blank graph and keep adding links". This module
//! provides the matching runtime: feed links as they arrive, and the
//! predictor periodically refits an [`SsfnmModel`] on the accumulated
//! history so candidate pairs can be scored at any moment.
//!
//! Real streams are hostile: they replay events, carry self-loops and
//! deliver hours-late timestamps. The predictor therefore never panics on
//! an event. Malformed events are *quarantined* — counted in
//! [`StreamStats`](crate::serve::StreamStats), their endpoints registered
//! so the ids stay scoreable — and the healthy remainder drives the
//! model. Failed refits back off exponentially (a stream too sparse to
//! fit at tick `t` is rarely fit at `t + 1`), and a scoring failure on
//! one pair degrades to a common-neighbor fallback for that pair only.
//! [`OnlineLinkPredictor::health`] reports the whole picture.
//!
//! For concurrent serving — many reader threads scoring while this
//! single writer ingests — publish immutable epochs with
//! [`OnlineLinkPredictor::snapshot`] and see [`crate::serve`].

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use dyngraph::{
    AdvanceReport, GraphError, GraphView, NodeId, Timestamp, Window,
    WindowedView,
};
use obs::{labeled, ObsHandle};
use ssf_eval::{backtest_splits, BacktestConfig, Split, SplitConfig};
use ssf_persist::{
    replay, PersistError, ReplayStep, SnapshotReader, SnapshotWriter, WalOp,
    WalOptions, WalWriter,
};

use crate::durability::{
    self, Durability, DurabilityPolicy, PersistedState, PredictorMeta,
    RecoveryReport,
};
use crate::error::{ConfigError, SsfError};
use crate::methods::MethodOptions;
use crate::model::SsfnmModel;
use crate::serve;

/// Configuration of the online predictor.
///
/// Construct through [`OnlinePredictorConfig::builder`] (or start from
/// [`Default::default`]): the struct is `#[non_exhaustive]`, so
/// struct-literal construction outside this crate no longer compiles, and
/// the builder's [`build`](OnlinePredictorConfigBuilder::build) validates
/// the hyperparameters the pipeline cannot recover from at runtime.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct OnlinePredictorConfig {
    /// Hyperparameters shared with the offline experiments.
    pub method: MethodOptions,
    /// Refit whenever the stream has advanced this many ticks since the
    /// last (attempted) fit. After a failed fit the effective interval
    /// doubles per failure, up to `refit_every × max_backoff`.
    pub refit_every: u32,
    /// Cap on the exponential refit backoff multiplier (≥ 1).
    pub max_backoff: u32,
    /// Quarantine events older than `max_lag` ticks behind the newest
    /// observed timestamp (`None` accepts arbitrary reordering).
    pub max_lag: Option<u32>,
    /// Quarantine exact `(u, v, t)` replays. Off by default: the network
    /// is a multigraph and repeated same-tick interactions can be real.
    pub quarantine_duplicates: bool,
    /// Split settings used to carve training sets out of the history.
    pub split: SplitConfig,
    /// Minimum positives a training split must contain.
    pub min_positives: usize,
    /// Earlier-window folds used to augment training (0 = none).
    pub history_folds: u32,
    /// Sliding-window width: keep only links stamped within
    /// `horizon − window ..= horizon`, where the horizon follows the
    /// newest accepted timestamp and can be pushed explicitly with
    /// [`OnlineLinkPredictor::advance`]. Events behind the cutoff are
    /// quarantined as
    /// [`OutOfWindow`](serve::QuarantineReason::OutOfWindow). `None`
    /// (the default) keeps the full history.
    pub window: Option<Timestamp>,
}

impl Default for OnlinePredictorConfig {
    fn default() -> Self {
        OnlinePredictorConfig {
            method: MethodOptions::default(),
            refit_every: 5,
            max_backoff: 8,
            max_lag: None,
            quarantine_duplicates: false,
            split: SplitConfig::default(),
            min_positives: 30,
            history_folds: 2,
            window: None,
        }
    }
}

impl OnlinePredictorConfig {
    /// Starts a builder preloaded with the paper defaults.
    pub fn builder() -> OnlinePredictorConfigBuilder {
        OnlinePredictorConfigBuilder {
            config: OnlinePredictorConfig::default(),
        }
    }
}

/// Validating builder for [`OnlinePredictorConfig`] — the supported way
/// to construct a non-default configuration.
///
/// # Example
///
/// ```rust
/// use ssf_repro::prelude::*;
///
/// let config = OnlinePredictorConfig::builder()
///     .refit_every(10)
///     .quarantine_duplicates(true)
///     .max_lag(Some(50))
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.refit_every, 10);
///
/// // Invalid hyperparameters are rejected with a typed error:
/// let err = OnlinePredictorConfig::builder()
///     .refit_every(0)
///     .build();
/// assert!(matches!(err, Err(SsfError::Config(_))));
/// ```
#[derive(Debug, Clone)]
pub struct OnlinePredictorConfigBuilder {
    config: OnlinePredictorConfig,
}

impl OnlinePredictorConfigBuilder {
    /// Hyperparameters shared with the offline experiments.
    pub fn method(mut self, method: MethodOptions) -> Self {
        self.config.method = method;
        self
    }

    /// Refit cadence in stream ticks (must be ≥ 1).
    pub fn refit_every(mut self, ticks: u32) -> Self {
        self.config.refit_every = ticks;
        self
    }

    /// Cap on the exponential refit backoff multiplier (must be ≥ 1).
    pub fn max_backoff(mut self, cap: u32) -> Self {
        self.config.max_backoff = cap;
        self
    }

    /// Staleness cutoff in ticks behind the stream head (`None` accepts
    /// arbitrary reordering).
    pub fn max_lag(mut self, lag: Option<u32>) -> Self {
        self.config.max_lag = lag;
        self
    }

    /// Whether exact `(u, v, t)` replays are quarantined.
    pub fn quarantine_duplicates(mut self, on: bool) -> Self {
        self.config.quarantine_duplicates = on;
        self
    }

    /// Split settings used to carve training sets out of the history.
    pub fn split(mut self, split: SplitConfig) -> Self {
        self.config.split = split;
        self
    }

    /// Minimum positives a training split must contain.
    pub fn min_positives(mut self, n: usize) -> Self {
        self.config.min_positives = n;
        self
    }

    /// Earlier-window folds used to augment training (0 = none).
    pub fn history_folds(mut self, folds: u32) -> Self {
        self.config.history_folds = folds;
        self
    }

    /// Sliding-window width in ticks (`None`, the default, keeps the
    /// full history). A width of 0 keeps only links stamped exactly at
    /// the horizon.
    pub fn window(mut self, width: Option<Timestamp>) -> Self {
        self.config.window = width;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`SsfError::Config`] when `K < 3`, θ is negative or non-finite
    /// (via [`MethodOptions::validate`]), `refit_every == 0` or
    /// `max_backoff == 0`.
    pub fn build(self) -> Result<OnlinePredictorConfig, SsfError> {
        self.config.method.validate()?;
        if self.config.refit_every == 0 {
            return Err(ConfigError::ZeroRefitInterval.into());
        }
        if self.config.max_backoff == 0 {
            return Err(ConfigError::ZeroBackoff.into());
        }
        Ok(self.config)
    }
}

/// A fitted model bound to the graph revision its training history was
/// read at.
///
/// The predictor stores this behind one `Arc` option and replaces it in a
/// single assignment, so the "is fitted" flag, the serving weights and
/// the model epoch flip together — a health or scoring snapshot can never
/// pair the new flag with a half-replaced model (the bug this type
/// fixed).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FittedModel {
    /// The serving model.
    pub(crate) model: SsfnmModel,
    /// Graph revision of the history the fit consumed.
    pub(crate) epoch: u64,
}

/// An online link predictor over a growing dynamic network.
///
/// # Example
///
/// ```rust
/// use ssf_repro::prelude::*;
///
/// let mut p = OnlineLinkPredictor::new(OnlinePredictorConfig::default());
/// p.observe(0, 1, 1);
/// p.observe(1, 2, 2);
/// assert!(!p.observe(2, 2, 3).is_accepted()); // self-loop quarantined
/// assert!(p.score(0, 2).is_none()); // not enough history to fit yet
/// assert_eq!(p.health().quarantined, 1);
/// ```
#[derive(Debug)]
pub struct OnlineLinkPredictor {
    config: OnlinePredictorConfig,
    /// The one graph: a windowed view (unbounded unless
    /// [`OnlinePredictorConfig::window`] is set) whose expiry and
    /// horizon moves bump the same revision counter as inserts. It is
    /// copy-on-write — a shared frozen CSR base plus the mutations since
    /// the last compaction — so snapshots publish it with `Arc` clones,
    /// never a graph-sized copy.
    network: WindowedView,
    /// The serving model and its epoch, replaced atomically as one unit.
    pub(crate) fitted: Option<Arc<FittedModel>>,
    last_fit_attempt: Option<Timestamp>,
    backoff: u32,
    last_refit_error: Option<String>,
    stats: serve::StreamStats,
    /// Telemetry sink; the no-op handle by default.
    obs: ObsHandle,
    /// Durable-state attachment (WAL writer + directory); `None` for
    /// the default in-memory predictor. See
    /// [`with_durability`](OnlineLinkPredictor::with_durability).
    durability: Option<Durability>,
}

/// Clones share everything except durability: a WAL has exactly one
/// writer, so the clone detaches from the directory and continues as a
/// purely in-memory predictor (its scores are unaffected).
impl Clone for OnlineLinkPredictor {
    fn clone(&self) -> Self {
        OnlineLinkPredictor {
            config: self.config.clone(),
            network: self.network.clone(),
            fitted: self.fitted.clone(),
            last_fit_attempt: self.last_fit_attempt,
            backoff: self.backoff,
            last_refit_error: self.last_refit_error.clone(),
            stats: self.stats.clone(),
            obs: self.obs.clone(),
            durability: None,
        }
    }
}

impl OnlineLinkPredictor {
    /// Creates an empty predictor.
    pub fn new(config: OnlinePredictorConfig) -> Self {
        Self::with_recorder(config, ObsHandle::noop())
    }

    /// Creates an empty predictor emitting telemetry into `obs`: span
    /// timings under `ssf.stream.*`, quarantine/refit/degradation
    /// counters and the refit-backoff gauge. The recorder also flows into
    /// the extraction cache every `score`/`score_batch` call borrows, so
    /// `ssf.core.*` stage timings appear alongside. Scores are
    /// bit-identical to the unobserved predictor.
    pub fn with_recorder(
        config: OnlinePredictorConfig,
        obs: ObsHandle,
    ) -> Self {
        let network = match config.window {
            Some(width) => WindowedView::with_width(width),
            None => WindowedView::unbounded(),
        };
        OnlineLinkPredictor {
            config,
            network,
            fitted: None,
            last_fit_attempt: None,
            backoff: 1,
            last_refit_error: None,
            stats: serve::StreamStats::default(),
            obs,
            durability: None,
        }
    }

    /// The predictor's telemetry handle.
    pub fn recorder(&self) -> &ObsHandle {
        &self.obs
    }

    /// Feeds one stream event; never panics.
    ///
    /// Healthy events enter the network; self-loops, configured
    /// duplicates and too-stale timestamps are quarantined — counted in
    /// [`serve::StreamStats`] with their endpoints registered as
    /// (possibly isolated) nodes, so ids seen only in quarantined events
    /// remain valid scoring targets. Refitting triggers automatically
    /// every `refit_every` ticks, stretched by the current backoff after
    /// failures; a durable predictor logs each model it installs right
    /// after the event.
    pub fn observe(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
    ) -> serve::Observed {
        let _span = self.obs.span("ssf.stream.ingest");
        let observed = self.ingest(u, v, t);
        if observed.is_accepted() && self.claim_refit() {
            let _ = self.refit(false);
        }
        observed
    }

    /// The one ingest path, shared by [`observe`] and recovery: logs the
    /// event, then quarantines it or inserts it. The refit an accepted
    /// event may make due is the caller's ([`claim_refit`]).
    ///
    /// [`observe`]: OnlineLinkPredictor::observe
    /// [`claim_refit`]: OnlineLinkPredictor::claim_refit
    fn ingest(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
    ) -> serve::Observed {
        // Log-before-mutate: the WAL sees every event — including ones
        // about to be quarantined, whose node registration still bumps
        // the revision — so replay reproduces the exact state machine.
        self.log_record(|wal| wal.append(u, v, t));
        if let (Some(max_lag), Some(head)) =
            (self.config.max_lag, self.network.max_timestamp())
        {
            if t.saturating_add(max_lag) < head {
                self.network.ensure_node(u);
                self.network.ensure_node(v);
                self.stats.stale += 1;
                self.note_quarantine("stale");
                return serve::Observed::Quarantined(
                    serve::QuarantineReason::Stale { lag: head - t },
                );
            }
        }
        if u == v {
            self.network.ensure_node(u);
            self.stats.self_loops += 1;
            self.note_quarantine("self_loop");
            return serve::Observed::Quarantined(
                serve::QuarantineReason::SelfLoop,
            );
        }
        if self.config.quarantine_duplicates && self.already_recorded(u, v, t) {
            self.network.ensure_node(u);
            self.network.ensure_node(v);
            self.stats.duplicates += 1;
            self.note_quarantine("duplicate");
            return serve::Observed::Quarantined(
                serve::QuarantineReason::Duplicate,
            );
        }
        let advance = match self.network.try_add_link(u, v, t) {
            Ok(advance) => advance,
            Err(GraphError::OutOfWindow { cutoff, .. }) => {
                // Behind the sliding window's trailing edge. Register
                // the endpoints like every other quarantine so the ids
                // stay scoreable (as isolated-by-expiry nodes).
                self.network.ensure_node(u);
                self.network.ensure_node(v);
                self.stats.out_of_window += 1;
                self.note_quarantine("out_of_window");
                return serve::Observed::Quarantined(
                    serve::QuarantineReason::OutOfWindow { cutoff },
                );
            }
            Err(_) => {
                // try_add_link otherwise only rejects self-loops, handled
                // above; treat a future rejection reason as quarantine
                // rather than panic.
                self.stats.self_loops += 1;
                self.note_quarantine("self_loop");
                return serve::Observed::Quarantined(
                    serve::QuarantineReason::SelfLoop,
                );
            }
        };
        if let Some(report) = advance {
            self.obs.counter(
                "ssf.stream.expired_links",
                report.expired_links as u64,
            );
        }
        if self.network.delta_link_count()
            >= compaction_threshold(self.network.link_count())
        {
            // Amortized O(delta): folding the log into a fresh CSR base
            // costs O(V + E) but only after the delta has grown to a
            // fixed fraction of the graph.
            let span = self.obs.span("ssf.stream.compact");
            self.network.rebase();
            span.finish();
            self.obs.counter("ssf.stream.compactions", 1);
        }
        self.stats.accepted += 1;
        self.obs.counter("ssf.stream.accepted", 1);
        serve::Observed::Accepted
    }

    /// Whether the refit clock makes a fit due after an accepted event:
    /// `refit_every` ticks since the last attempt, stretched by the
    /// backoff. A due fit is stamped as attempted here, whatever its
    /// outcome.
    fn claim_refit(&mut self) -> bool {
        let Some(now) = self.network.max_timestamp() else {
            return false;
        };
        let interval = self.config.refit_every.saturating_mul(self.backoff);
        let due = match self.last_fit_attempt {
            None => true,
            Some(last) => now.saturating_sub(last) >= interval,
        };
        if due {
            self.last_fit_attempt = Some(now);
        }
        due
    }

    /// Pushes the sliding window's horizon forward to `to` without
    /// ingesting a link, expiring every link that falls behind the new
    /// cutoff. Like [`observe`](OnlineLinkPredictor::observe) the move
    /// is logged to the WAL before mutating memory, so replay
    /// reproduces the same expiry sequence bit for bit. On an
    /// unbounded predictor this still bumps the revision (snapshots
    /// and caches see the horizon move) but never expires anything.
    ///
    /// Returns `Ok(None)` when `to` equals the current horizon, and
    /// the [`AdvanceReport`] otherwise.
    ///
    /// # Errors
    ///
    /// [`SsfError::Graph`] with [`GraphError::HorizonRegressed`] when
    /// `to` is behind the current horizon; the predictor is unchanged.
    pub fn advance(
        &mut self,
        to: Timestamp,
    ) -> Result<Option<AdvanceReport>, SsfError> {
        let _span = self.obs.span("ssf.stream.advance");
        self.log_record(|wal| wal.append_advance(to));
        let Some(report) = self.network.advance(to)? else {
            return Ok(None);
        };
        self.obs.counter("ssf.stream.advances", 1);
        self.obs
            .counter("ssf.stream.expired_links", report.expired_links as u64);
        Ok(Some(report))
    }

    /// Forces a refit on the current history.
    ///
    /// On success the serving model and its epoch (the graph revision the
    /// training history was read at) are replaced in a single atomic slot
    /// assignment, and a durable predictor logs the model to its WAL so
    /// recovery installs it again.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SsfError`] when the accumulated stream
    /// cannot produce a usable training split or the fit itself fails;
    /// the previous model, if any, stays active and the automatic refit
    /// backoff widens.
    pub fn try_refit(&mut self) -> Result<(), SsfError> {
        self.refit(true)
    }

    /// Fits on the current history and installs the model, logging it
    /// when durable; `explicit` tells recovery whether [`try_refit`] or
    /// a due refit inside [`observe`] installed it. An explicit refit
    /// that fails is logged too, so recovery attempts it again.
    ///
    /// [`try_refit`]: OnlineLinkPredictor::try_refit
    /// [`observe`]: OnlineLinkPredictor::observe
    fn refit(&mut self, explicit: bool) -> Result<(), SsfError> {
        let span = self.obs.span("ssf.stream.refit");
        let epoch = self.network.revision();
        let outcome = self.fit_current();
        span.finish();
        match outcome {
            Ok(model) => {
                self.install(model, epoch);
                self.log_refit(explicit, true);
                Ok(())
            }
            Err(e) => {
                self.stats.failed_refits += 1;
                self.backoff = self
                    .backoff
                    .saturating_mul(2)
                    .min(self.config.max_backoff.max(1));
                self.last_refit_error = Some(e.to_string());
                self.obs.counter("ssf.stream.refit.failed", 1);
                self.obs
                    .gauge("ssf.stream.backoff", f64::from(self.backoff));
                if explicit {
                    self.log_refit(explicit, false);
                }
                Err(e)
            }
        }
    }

    /// Makes `model`, fitted at graph revision `epoch`, the serving
    /// model — a fresh fit, or one replayed from the WAL — and resets
    /// the refit backoff.
    fn install(&mut self, model: SsfnmModel, epoch: u64) {
        // One assignment flips flag, weights and epoch together.
        self.fitted = Some(Arc::new(FittedModel { model, epoch }));
        self.stats.successful_refits += 1;
        self.backoff = 1;
        self.last_refit_error = None;
        self.obs.counter("ssf.stream.refit.success", 1);
        self.obs
            .gauge("ssf.stream.backoff", f64::from(self.backoff));
    }

    fn fit_current(&self) -> Result<SsfnmModel, SsfError> {
        let split = Split::with_min_positives(
            &self.network,
            &self.config.split,
            self.config.min_positives,
        )?;
        let extra = if self.config.history_folds > 0 {
            backtest_splits(
                &split.history,
                &BacktestConfig {
                    split: self.config.split,
                    folds: self.config.history_folds,
                    stride: 1,
                    min_positives: self.config.min_positives / 2,
                },
            )
            .unwrap_or_default()
        } else {
            Vec::new()
        };
        SsfnmModel::try_fit_observed(
            &split,
            &extra,
            &self.config.method,
            &self.obs,
        )
    }

    /// Per-reason quarantine counters (plus the all-reasons total) under
    /// the labeled family `ssf.stream.quarantined{reason=…}`. The label
    /// rendering allocates, so the whole emit is gated on an enabled
    /// recorder.
    fn note_quarantine(&self, reason: &'static str) {
        if self.obs.enabled() {
            self.obs.counter("ssf.stream.quarantined", 1);
            self.obs.counter(
                &labeled("ssf.stream.quarantined", &[("reason", reason)]),
                1,
            );
        }
    }

    /// Scores a candidate pair with the latest fitted model, or `None` if
    /// no model could be fitted yet, `u == v`, or an endpoint lies outside
    /// the network's id space. The id space covers every node ever seen —
    /// including endpoints of quarantined events, which score as isolated
    /// nodes rather than being rejected.
    ///
    /// If the model fails on this one pair (a panic in extraction on a
    /// pathological subgraph), the score degrades to a common-neighbor
    /// fallback for this pair only and
    /// [`serve::StreamStats::degraded_scores`] is incremented. The
    /// one-pair case of [`score_batch`](OnlineLinkPredictor::score_batch).
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let _span = self.obs.span("ssf.stream.score");
        self.scorer().score(&[(u, v)]).pop().flatten()
    }

    /// Scores many candidate pairs at once. Each slot carries the same
    /// value [`score`] would return for that pair — bit-identical,
    /// including the `None` cases and the common-neighbor degradation —
    /// but the batch extracts against one borrow of the thread's
    /// extraction cache, so pairs that share an endpoint reuse its
    /// memoized h-hop frontiers instead of recomputing them. Nothing
    /// memoized outlives the call.
    ///
    /// [`score`]: OnlineLinkPredictor::score
    pub fn score_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        let _span = self.obs.span("ssf.stream.score_batch");
        self.obs.counter("ssf.stream.scored", pairs.len() as u64);
        self.scorer().score(pairs)
    }

    /// The scoring loop over the writer's graph and model, without a
    /// memo.
    fn scorer(&self) -> serve::Scorer<'_, WindowedView> {
        let present = self.network.max_timestamp().map(|t| t.saturating_add(1));
        serve::Scorer {
            graph: &self.network,
            model: self
                .fitted
                .as_deref()
                .map(|fitted| &fitted.model)
                .zip(present),
            memo: None,
            degraded: (
                &self.stats.degraded_scores,
                "ssf.stream.degraded_scores",
            ),
            obs: &self.obs,
        }
    }

    /// Publishes the current epoch as an immutable, `Arc`-shared
    /// [`serve::ScoringSnapshot`]: the network and the serving model,
    /// captured together. The
    /// snapshot scores from any thread through `&self` while this writer
    /// keeps ingesting; its results are bit-identical to this predictor's
    /// serial paths at publish time.
    ///
    /// Publish cost is a handful of `Arc` clones over the copy-on-write
    /// writer graph — O(1) in graph size, never a graph-sized copy —
    /// recorded under the `ssf.serve.snapshot_publish`
    /// span, with the `ssf.serve.epoch_lag` gauge tracking how many graph
    /// revisions the serving model trails behind the published epoch.
    /// Publishing twice with no intervening compaction reuses the same
    /// frozen base `Arc` (pointer-equal across snapshots).
    pub fn snapshot(&self) -> serve::ScoringSnapshot {
        let span = self.obs.span("ssf.serve.snapshot_publish");
        let snap = serve::ScoringSnapshot::publish(self);
        span.finish();
        self.obs.counter("ssf.serve.snapshots", 1);
        let lag = match snap.model_epoch() {
            Some(epoch) => snap.epoch().saturating_sub(epoch),
            None => snap.epoch(),
        };
        self.obs.gauge("ssf.serve.epoch_lag", lag as f64);
        snap
    }

    /// `true` once a model has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.fitted.is_some()
    }

    /// Graph revision the serving model was fitted at; `None` before the
    /// first successful refit. Read from the same atomic slot as
    /// [`is_fitted`](OnlineLinkPredictor::is_fitted), so the two never
    /// disagree.
    pub fn model_epoch(&self) -> Option<u64> {
        self.fitted.as_ref().map(|m| m.epoch)
    }

    /// The writer's graph: the accumulated network (its in-window
    /// portion, when a sliding window is configured), read through
    /// [`GraphView`]. It is the graph [`snapshot`] publishes.
    ///
    /// [`snapshot`]: OnlineLinkPredictor::snapshot
    pub fn network(&self) -> &WindowedView {
        &self.network
    }

    /// The sliding window currently in force, `None` when the
    /// predictor keeps the full history.
    pub fn window(&self) -> Option<Window> {
        self.network.window()
    }

    /// The stream horizon: the newest timestamp the window has been
    /// advanced (or grown by accepted links) to. Tracks the maximum
    /// accepted timestamp on unbounded predictors too.
    pub fn horizon(&self) -> Timestamp {
        self.network.horizon()
    }

    /// Links inserted or expired since the writer graph's last
    /// compaction: the delta a snapshot shares on top of its frozen
    /// base.
    pub fn delta_link_count(&self) -> usize {
        self.network.delta_link_count()
    }

    /// The running stream-hygiene tallies.
    pub fn stats(&self) -> &serve::StreamStats {
        &self.stats
    }

    /// A point-in-time health snapshot.
    pub fn health(&self) -> serve::Health {
        let fitted = self.fitted.as_ref();
        serve::Health {
            fitted: fitted.is_some(),
            model_epoch: fitted.map(|m| m.epoch),
            graph_revision: self.network.revision(),
            accepted: self.stats.accepted,
            quarantined: self.stats.quarantined(),
            degraded_scores: self.stats.degraded_scores(),
            successful_refits: self.stats.successful_refits,
            failed_refits: self.stats.failed_refits,
            current_backoff: self.backoff,
            last_refit_error: self.last_refit_error.clone(),
            metrics: self.obs.snapshot(),
        }
    }

    /// Appends one event or window-advance record to the WAL through
    /// `append` when durable. An append failure must not drop the record
    /// or panic the ingest path: the change still enters memory, the
    /// degradation is recorded in
    /// [`last_wal_error`](OnlineLinkPredictor::last_wal_error) and the
    /// `ssf.persist.wal_append_failed` counter. The error is sticky — a
    /// later successful append does not clear it, because the failed
    /// record is still absent from the durable history; only a
    /// successful [`checkpoint`](OnlineLinkPredictor::checkpoint) (which
    /// persists the full in-memory state, failed appends included)
    /// resets it.
    fn log_record(
        &mut self,
        append: impl FnOnce(&mut WalWriter) -> Result<u64, PersistError>,
    ) {
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        match append(&mut d.wal) {
            Ok(_) => {
                self.obs.counter("ssf.persist.wal_appends", 1);
            }
            Err(e) => {
                d.last_wal_error = Some(e.to_string());
                self.obs.counter("ssf.persist.wal_append_failed", 1);
            }
        }
    }

    /// Refits attempted so far, successful or not; a logged refit's
    /// ordinal counts them, itself included.
    fn refit_attempts(&self) -> u64 {
        self.stats.successful_refits + self.stats.failed_refits
    }

    /// Logs the refit just attempted to the WAL when durable, with its
    /// ordinal among the attempts: the installed model, or no model
    /// bytes when it failed. A failed append is counted under
    /// `ssf.persist.wal_append_failed`; it sets the sticky
    /// [`last_wal_error`] only for an explicit refit. A due refit's
    /// record is a memo — recovery fits the model again where it is
    /// missing — but recovery attempts an explicit refit only where its
    /// record says so, so without it the recovered predictor would
    /// differ from this one.
    ///
    /// [`last_wal_error`]: OnlineLinkPredictor::last_wal_error
    fn log_refit(&mut self, explicit: bool, installed: bool) {
        let ordinal = self.refit_attempts();
        let Some(d) = self.durability.as_mut() else {
            return;
        };
        let mut bytes = Vec::new();
        let (epoch, saved) = match self.fitted.as_deref() {
            Some(fitted) if installed => (
                fitted.epoch,
                fitted.model.save(&mut bytes).map_err(PersistError::from),
            ),
            _ => (self.network.revision(), Ok(())),
        };
        let logged = saved.and_then(|()| {
            d.wal.append_model(epoch, ordinal, explicit, &bytes)
        });
        match logged {
            Ok(_) => {
                self.obs.counter("ssf.persist.wal_models", 1);
            }
            Err(e) => {
                if explicit {
                    d.last_wal_error = Some(e.to_string());
                }
                self.obs.counter("ssf.persist.wal_append_failed", 1);
            }
        }
    }

    /// The model a WAL record logged as refit attempt `ordinal` at
    /// `epoch`, if it may be installed now: it must be the next attempt,
    /// its epoch the replayed graph's revision, and its bytes must load.
    fn logged_model(
        &self,
        ordinal: u64,
        epoch: u64,
        bytes: &[u8],
    ) -> Option<SsfnmModel> {
        if ordinal != self.refit_attempts() + 1
            || epoch != self.network.revision()
        {
            return None;
        }
        SsfnmModel::load(bytes).ok()
    }

    /// Whether the exact `(u, v, t)` event is already in the network.
    fn already_recorded(&self, u: NodeId, v: NodeId, t: Timestamp) -> bool {
        let g = &self.network;
        (u as usize) < g.node_count()
            && g.incident_links(u).any(|l| l == (v, t))
    }
}

/// Durability: write-ahead logging, checkpoints and crash recovery.
///
/// A durable predictor logs every [`observe`] call to a write-ahead
/// log *before* mutating memory, and every model it installs right
/// after the call or [`try_refit`] that installed it; [`checkpoint`]
/// persists the full state (graph CSR, serving model, refit clock,
/// stream statistics) as one atomic `SSF1` snapshot, after which the
/// covered WAL prefix is reclaimed. [`open`] restores the newest valid
/// snapshot and replays the WAL tail through the normal ingest path,
/// installing each logged model where the live predictor installed it
/// instead of fitting it again — the recovered predictor's scores are
/// bit-identical to an uninterrupted run over the same logged events.
///
/// [`try_refit`]: OnlineLinkPredictor::try_refit
///
/// [`observe`]: OnlineLinkPredictor::observe
/// [`checkpoint`]: OnlineLinkPredictor::checkpoint
/// [`open`]: OnlineLinkPredictor::open
impl OnlineLinkPredictor {
    /// Opens (or creates) a durable predictor in `dir` with the default
    /// [`DurabilityPolicy`] and no telemetry, discarding the recovery
    /// report. Use [`open`](OnlineLinkPredictor::open) to inspect what
    /// recovery found.
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](OnlineLinkPredictor::open).
    pub fn with_durability(
        config: OnlinePredictorConfig,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> Result<Self, SsfError> {
        Ok(Self::open_with(config, dir, policy, ObsHandle::noop())?.0)
    }

    /// Recovers (or cold-starts) a durable predictor from `dir` with
    /// the default policy and no telemetry.
    ///
    /// On an empty directory this is a fresh durable predictor. On a
    /// directory with prior state it loads the newest valid snapshot,
    /// replays the WAL tail through the normal ingest path (repairing
    /// torn tails in place), and resumes logging at the recovered
    /// sequence. Recovery is lossy-by-default: corruption truncates to
    /// the last valid prefix and the [`RecoveryReport`] says exactly
    /// what was dropped — callers needing all-or-nothing semantics
    /// check [`RecoveryReport::is_lossy`].
    ///
    /// # Errors
    ///
    /// [`SsfError::Io`] on filesystem failure, [`SsfError::Corrupt`]
    /// when the newest readable snapshot was written under a different
    /// configuration (restoring it would silently change refit cadence
    /// and hyperparameters mid-history).
    pub fn open(
        config: OnlinePredictorConfig,
        dir: &Path,
    ) -> Result<(Self, RecoveryReport), SsfError> {
        Self::open_with(config, dir, DurabilityPolicy::default(), {
            ObsHandle::noop()
        })
    }

    /// [`open`](OnlineLinkPredictor::open) with an explicit policy and
    /// telemetry: recovery runs under an `ssf.persist.open` span, with
    /// each snapshot it tries read (file and checksums) under
    /// `ssf.persist.snapshot.read` and decoded (CSR validation
    /// included) under `ssf.persist.snapshot.decode` inside it, and
    /// reports `ssf.persist.recovered_records`,
    /// `ssf.persist.dropped_bytes` and
    /// `ssf.persist.corrupt_snapshots` counters; the recovered
    /// predictor then logs `ssf.persist.wal_appends` per event.
    ///
    /// # Errors
    ///
    /// Same conditions as [`open`](OnlineLinkPredictor::open).
    pub fn open_with(
        config: OnlinePredictorConfig,
        dir: &Path,
        policy: DurabilityPolicy,
        obs: ObsHandle,
    ) -> Result<(Self, RecoveryReport), SsfError> {
        std::fs::create_dir_all(dir)?;
        let span = obs.span("ssf.persist.open");
        let mut predictor = Self::with_recorder(config, obs);
        let (mut report, from_seq) = predictor.recover(dir, None, true)?;
        // Models take no sequence number: the ones on disk carry at most
        // this one, and a segment starting here that holds only models
        // is kept by the writer.
        let next_seq = from_seq + report.records_replayed;
        let mut wal = WalWriter::create(dir, next_seq, wal_options(policy))?;
        // A lossy recovery can leave the repaired WAL prefix ending
        // below the snapshot's coverage (`from_seq`) — e.g. a crash
        // between the checkpoint rename and its WAL truncation under a
        // lazy fsync policy. The fresh segment at `next_seq` would then
        // look like a sequence gap to the *next* open, whose repair
        // would delete it along with every record appended after this
        // recovery. Those stale segments are fully covered by the
        // snapshot, so reclaim them now; continuity then starts at the
        // snapshot's coverage point.
        report.segments_removed += wal.truncate_below(from_seq)?;
        predictor.durability = Some(Durability {
            dir: dir.to_path_buf(),
            policy,
            wal,
            last_wal_error: None,
        });
        span.finish();
        predictor
            .obs
            .counter("ssf.persist.recovered_records", report.records_replayed);
        predictor
            .obs
            .counter("ssf.persist.models_installed", report.models_installed);
        if report.tail_truncated {
            predictor
                .obs
                .counter("ssf.persist.dropped_bytes", report.bytes_dropped);
        }
        Ok((predictor, report))
    }

    /// Reconstructs the predictor as it first stood at (or immediately
    /// past) graph revision `revision`: loads the newest snapshot not
    /// beyond the target and replays WAL records until the revision
    /// counter reaches it. One `observe` can advance the revision by
    /// more than one (node growth plus the link), so the recovered
    /// state is the first logged state with `revision() >= revision`.
    ///
    /// The returned predictor is **not durable**: appending new events
    /// after rewinding history would fork the log, so time-travel
    /// reads are in-memory only. The on-disk state is not modified
    /// (no torn-tail repair either).
    ///
    /// # Errors
    ///
    /// Everything [`open`](OnlineLinkPredictor::open) can return, plus
    /// [`SsfError::Corrupt`] when `revision` lies beyond the durable
    /// history (more WAL would be needed than survives on disk).
    pub fn open_to_revision(
        config: OnlinePredictorConfig,
        dir: &Path,
        revision: u64,
    ) -> Result<(Self, RecoveryReport), SsfError> {
        let mut predictor = Self::with_recorder(config, ObsHandle::noop());
        let (report, _) = predictor.recover(dir, Some(revision), false)?;
        if predictor.network.revision() < revision {
            return Err(SsfError::Corrupt {
                section: "recovery".to_string(),
                detail: format!(
                    "revision {revision} is beyond the durable history \
                     (replay reached revision {})",
                    predictor.network.revision()
                ),
            });
        }
        Ok((predictor, report))
    }

    /// Persists the complete current state as one atomic snapshot file
    /// and reclaims the WAL prefix it covers, returning the snapshot
    /// path. After a checkpoint, recovery is load-and-replay-nothing
    /// until the next observe. Old checkpoints beyond
    /// [`DurabilityPolicy::keep_snapshots`] are pruned.
    ///
    /// # Errors
    ///
    /// [`SsfError::Io`] if the predictor has no durability attachment
    /// or a filesystem step fails. A failed checkpoint never corrupts
    /// the previous one — the snapshot lands under a temp name and is
    /// renamed only once fully synced.
    pub fn checkpoint(&mut self) -> Result<PathBuf, SsfError> {
        if self.durability.is_none() {
            return Err(SsfError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "checkpoint requires a durable predictor (open or \
                 with_durability)",
            )));
        }
        let span = self.obs.span("ssf.persist.checkpoint");
        // Fold the copy-on-write delta so the shared frozen base *is*
        // the full graph (skipped when already clean).
        let base = if self.network.is_clean() {
            Arc::clone(self.network.base())
        } else {
            self.network.rebase()
        };
        let Some(d) = self.durability.as_mut() else {
            // Checked above; durability is never detached in between.
            return Err(SsfError::Io(std::io::Error::other(
                "durability detached mid-checkpoint",
            )));
        };
        let seq = d.wal.next_seq();
        let revision = base.revision();
        let meta = PredictorMeta {
            fingerprint: durability::config_fingerprint(&self.config),
            next_seq: seq,
            model_epoch: self.fitted.as_ref().map(|m| m.epoch),
            last_fit_attempt: self.last_fit_attempt,
            backoff: self.backoff,
            accepted: self.stats.accepted,
            self_loops: self.stats.self_loops,
            duplicates: self.stats.duplicates,
            stale: self.stats.stale,
            successful_refits: self.stats.successful_refits,
            failed_refits: self.stats.failed_refits,
            degraded_scores: self.stats.degraded_scores(),
            window: self.network.window(),
            out_of_window: self.stats.out_of_window,
        };
        let mut w = SnapshotWriter::new();
        durability::encode_state(
            &mut w,
            &base,
            self.fitted.as_deref().map(|f| &f.model),
            &meta,
            self.last_refit_error.as_deref(),
        )?;
        let path = durability::snapshot_path(&d.dir, revision, seq);
        w.write_atomic(&path)?;
        d.wal.truncate_below(seq)?;
        // The snapshot covers the complete in-memory state, including
        // any events a failed append kept out of the WAL — durability
        // is whole again, so the sticky degradation marker can reset.
        d.last_wal_error = None;
        durability::prune_snapshots(&d.dir, d.policy.keep_snapshots)?;
        span.finish();
        self.obs.counter("ssf.persist.checkpoints", 1);
        Ok(path)
    }

    /// `true` when every observe is written ahead to a WAL.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durability directory, when attached.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Rendered error of the most recent failed WAL append. Sticky: a
    /// later successful append does *not* clear it — the failed event
    /// is still missing from the durable history, so replay would not
    /// reproduce the in-memory state. Only a successful
    /// [`checkpoint`](OnlineLinkPredictor::checkpoint), which persists
    /// the full in-memory state, resets it. A pending error means some
    /// events are in memory but not on disk.
    pub fn last_wal_error(&self) -> Option<&str> {
        self.durability
            .as_ref()
            .and_then(|d| d.last_wal_error.as_deref())
    }

    /// Forces all logged events to stable storage regardless of the
    /// [`FsyncPolicy`](ssf_persist::FsyncPolicy); a no-op when not
    /// durable.
    ///
    /// # Errors
    ///
    /// [`SsfError::Io`] if the fsync fails.
    pub fn sync_wal(&mut self) -> Result<(), SsfError> {
        if let Some(d) = self.durability.as_mut() {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Loads `dir`'s newest valid snapshot (none beyond `target` when
    /// set) into this fresh predictor and replays the WAL tail through
    /// the normal ingest path, stopping once the revision reaches
    /// `target`; `repair` truncates a torn tail in place. Returns the
    /// report and the sequence number the snapshot covers up to.
    ///
    /// Where a replayed event makes a refit due, the model record
    /// logged right after that event is installed instead of fitting;
    /// an explicit refit's record is installed where it was logged. A
    /// record whose ordinal the restored refit count or an earlier
    /// record already covers (logged before the snapshot, or a
    /// duplicate) is skipped. Any other record is usable only if it is
    /// the next refit attempt, its epoch is the replayed graph's
    /// revision and its bytes load.
    /// A refit without a usable record — a log written before models
    /// were logged, a torn tail, a fit that failed live — runs as a
    /// fit, which is deterministic and so gives the same bits. A
    /// record is a memo, never the end of the log: an unusable one, or
    /// a due refit's record where replay has none due, is counted in
    /// [`RecoveryReport::models_rejected`] and the events after it
    /// replay as usual.
    fn recover(
        &mut self,
        dir: &Path,
        target: Option<u64>,
        repair: bool,
    ) -> Result<(RecoveryReport, u64), SsfError> {
        let fingerprint = durability::config_fingerprint(&self.config);
        let mut report = RecoveryReport::default();
        let mut from_seq = 0u64;
        if let Some(state) = load_newest_snapshot(
            dir,
            fingerprint,
            target,
            &mut report,
            self.obs.clone(),
        )? {
            report.snapshot_revision = Some(state.graph.revision());
            from_seq = state.meta.next_seq;
            self.restore_state(state)?;
        }
        // A refit the last replayed event made due, until the record
        // after it installs the model or something else shows there is
        // none.
        let mut due = false;
        let (mut installed, mut rejected) = (0u64, 0u64);
        // The ordinal of the last record replay used: records up to it
        // are in the replayed state already.
        let mut last_ordinal = self.refit_attempts();
        let wal_report = replay(dir, from_seq, repair, |rec| {
            if let WalOp::Model {
                epoch,
                ordinal,
                explicit,
                bytes,
            } = &rec.op
            {
                if *ordinal <= last_ordinal {
                    return Ok(ReplayStep::Continue);
                }
                if !explicit {
                    // The due refit's record belongs to its event:
                    // consumed with it, before the stop check. Where
                    // replay has no refit due, the live run's state
                    // differed from this one's; its record is skipped.
                    let model = std::mem::take(&mut due)
                        .then(|| self.logged_model(*ordinal, *epoch, bytes));
                    match model {
                        Some(Some(model)) => {
                            self.install(model, *epoch);
                            installed += 1;
                            last_ordinal = *ordinal;
                        }
                        Some(None) => {
                            rejected += 1;
                            let _ = self.refit(false);
                        }
                        None => rejected += 1,
                    }
                    return Ok(ReplayStep::Continue);
                }
            }
            if std::mem::take(&mut due) {
                let _ = self.refit(false);
            }
            if target.is_some_and(|r| self.network.revision() >= r) {
                return Ok(ReplayStep::Stop);
            }
            match rec.op {
                WalOp::Event { u, v, t } => {
                    let _span = self.obs.span("ssf.stream.ingest");
                    due = self.ingest(u, v, t).is_accepted()
                        && self.claim_refit();
                }
                // Replays the logged horizon move; a regression that was
                // rejected (but still logged ahead of the mutation) at
                // ingest time is rejected again here, reproducing the
                // same state either way.
                WalOp::Advance { horizon } => {
                    let _ = self.advance(horizon);
                }
                // An explicit refit: installed from its record, or
                // attempted again where the record holds no model (the
                // fit failed live) or an unusable one.
                WalOp::Model {
                    epoch,
                    ordinal,
                    bytes,
                    ..
                } => {
                    let next = ordinal == self.refit_attempts() + 1;
                    if next {
                        last_ordinal = ordinal;
                    }
                    match self.logged_model(ordinal, epoch, &bytes) {
                        Some(model) => {
                            self.install(model, epoch);
                            installed += 1;
                        }
                        None => {
                            rejected += u64::from(!next || !bytes.is_empty());
                            let _ = self.refit(true);
                        }
                    }
                }
            }
            Ok(ReplayStep::Continue)
        })?;
        if due {
            let _ = self.refit(false);
        }
        report.records_replayed = wal_report.records_replayed;
        report.models_installed = installed;
        report.models_rejected = rejected;
        report.bytes_dropped = wal_report.bytes_dropped;
        report.tail_truncated = wal_report.tail_truncated;
        report.segments_removed = wal_report.segments_removed;
        Ok((report, from_seq))
    }

    /// Installs a decoded snapshot: graph (as the frozen base of the
    /// writer graph, revision preserved), model slot, window horizon,
    /// refit clock and stream statistics.
    ///
    /// # Errors
    ///
    /// [`SsfError::Graph`] when the snapshot's graph does not fit the
    /// configured window (a link behind the persisted horizon's cutoff,
    /// or a row out of time order) — only reachable through on-disk
    /// corruption that the configuration fingerprint cannot catch.
    fn restore_state(&mut self, state: PersistedState) -> Result<(), SsfError> {
        let PersistedState {
            graph,
            model,
            meta,
            last_refit_error,
        } = state;
        let horizon = meta.window.map_or(0, |w| w.horizon);
        self.network = WindowedView::from_frozen(
            Arc::new(graph),
            self.config.window,
            horizon,
        )?;
        self.fitted = match (model, meta.model_epoch) {
            (Some(model), Some(epoch)) => {
                Some(Arc::new(FittedModel { model, epoch }))
            }
            _ => None,
        };
        self.last_fit_attempt = meta.last_fit_attempt;
        self.backoff = meta.backoff;
        self.last_refit_error = last_refit_error;
        self.stats = serve::StreamStats {
            accepted: meta.accepted,
            self_loops: meta.self_loops,
            duplicates: meta.duplicates,
            stale: meta.stale,
            out_of_window: meta.out_of_window,
            successful_refits: meta.successful_refits,
            failed_refits: meta.failed_refits,
            degraded_scores: AtomicU64::new(meta.degraded_scores),
        };
        Ok(())
    }
}

/// Picks the newest usable snapshot in `dir`: readable, internally
/// consistent, named truthfully, and (when `max_revision` is set) not
/// past the rewind target. Unusable snapshots are recorded in the
/// report and skipped — except a configuration-fingerprint mismatch,
/// which is a hard error rather than something to silently fall
/// through.
fn load_newest_snapshot(
    dir: &Path,
    fingerprint: u64,
    max_revision: Option<u64>,
    report: &mut RecoveryReport,
    obs: ObsHandle,
) -> Result<Option<PersistedState>, SsfError> {
    let mut snapshots = durability::list_snapshots(dir)?;
    snapshots.reverse(); // newest first
    for entry in snapshots {
        if max_revision.is_some_and(|max| entry.revision > max) {
            continue;
        }
        let read = obs.span("ssf.persist.snapshot.read");
        let reader = SnapshotReader::open(&entry.path);
        read.finish();
        let decoded = reader.and_then(|r| {
            let _decode = obs.span("ssf.persist.snapshot.decode");
            durability::decode_state(&r)
        });
        let state = match decoded {
            Ok(state) if state.meta.next_seq == entry.seq => state,
            Ok(_) | Err(_) => {
                obs.counter("ssf.persist.corrupt_snapshots", 1);
                report.corrupt_snapshots.push(entry.path);
                continue;
            }
        };
        if state.meta.fingerprint != fingerprint {
            return Err(SsfError::Corrupt {
                section: "pmeta".to_string(),
                detail: format!(
                    "snapshot {} was written under a different \
                     configuration (fingerprint {:016x}, this \
                     configuration is {:016x})",
                    entry.path.display(),
                    state.meta.fingerprint,
                    fingerprint
                ),
            });
        }
        return Ok(Some(state));
    }
    Ok(None)
}

/// The WAL writer options a [`DurabilityPolicy`] translates to.
fn wal_options(policy: DurabilityPolicy) -> WalOptions {
    WalOptions {
        fsync: policy.fsync,
        segment_bytes: policy.segment_bytes,
    }
}

/// Delta size that triggers folding the copy-on-write log into a fresh
/// frozen base: an eighth of the graph, floored at 64 links so tiny
/// graphs don't compact on every observe.
fn compaction_threshold(link_count: usize) -> usize {
    (link_count / 8).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{Observed, QuarantineReason};
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

    #[test]
    fn builder_round_trips_every_field() {
        let split = SplitConfig::default();
        let built = OnlinePredictorConfig::builder()
            .method(MethodOptions {
                nm_epochs: 15,
                ..MethodOptions::default()
            })
            .refit_every(5)
            .max_backoff(8)
            .max_lag(Some(7))
            .quarantine_duplicates(true)
            .split(split)
            .min_positives(10)
            .history_folds(1)
            .window(Some(9))
            .build()
            .expect("valid configuration");
        let literal = OnlinePredictorConfig {
            max_lag: Some(7),
            quarantine_duplicates: true,
            window: Some(9),
            ..quick_config()
        };
        assert_eq!(built, literal);
    }

    #[test]
    fn builder_rejects_invalid_hyperparameters() {
        let err = OnlinePredictorConfig::builder()
            .method(MethodOptions {
                k: 0,
                ..MethodOptions::default()
            })
            .build();
        assert!(matches!(
            err,
            Err(SsfError::Config(ConfigError::KTooSmall { k: 0 }))
        ));
        let err = OnlinePredictorConfig::builder()
            .method(MethodOptions {
                theta: -0.25,
                ..MethodOptions::default()
            })
            .build();
        assert!(matches!(
            err,
            Err(SsfError::Config(ConfigError::InvalidTheta { .. }))
        ));
        let err = OnlinePredictorConfig::builder().refit_every(0).build();
        assert!(matches!(
            err,
            Err(SsfError::Config(ConfigError::ZeroRefitInterval))
        ));
        let err = OnlinePredictorConfig::builder().max_backoff(0).build();
        assert!(matches!(
            err,
            Err(SsfError::Config(ConfigError::ZeroBackoff))
        ));
    }

    #[test]
    fn no_model_until_enough_history() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        p.observe(1, 2, 1);
        assert!(!p.is_fitted());
        assert!(p.score(0, 2).is_none());
    }

    #[test]
    fn fits_once_stream_is_rich_enough() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted(), "stream should eventually support a fit");
        let s = p.score(0, 1);
        assert!(s.is_some());
        assert!((0.0..=1.0).contains(&s.unwrap()));
        let h = p.health();
        assert!(h.fitted);
        assert!(h.successful_refits >= 1);
        assert_eq!(h.quarantined, 0);
        assert_eq!(h.current_backoff, 1, "success resets the backoff");
    }

    #[test]
    fn unknown_nodes_score_none() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in g.links() {
            p.observe(l.u, l.v, l.t);
        }
        let n = p.network().node_count() as NodeId;
        assert!(p.score(n + 5, 0).is_none());
        assert!(p.score(2, 2).is_none());
    }

    #[test]
    fn refit_error_keeps_previous_model() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        assert!(p.try_refit().is_err());
        assert!(!p.is_fitted());
        let h = p.health();
        assert!(h.failed_refits >= 1);
        assert!(h.last_refit_error.is_some());
    }

    /// Regression test for the mid-refit health bug: `fitted` and
    /// `model_epoch` are read from one atomically-replaced slot, so a
    /// health snapshot can never report a fitted predictor without the
    /// matching model epoch — and the epoch always names the revision the
    /// serving model's history was read at, even across failed refits.
    #[test]
    fn health_fitted_flag_and_model_epoch_stay_consistent() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
            let h = p.health();
            assert_eq!(
                h.fitted,
                h.model_epoch.is_some(),
                "fitted and model_epoch must flip together"
            );
            if let Some(epoch) = h.model_epoch {
                assert!(epoch <= h.graph_revision);
            }
        }
        assert!(p.is_fitted());
        let epoch_before = p.model_epoch().expect("fitted");
        assert!(p.try_refit().is_ok());
        let epoch_after = p.model_epoch().expect("still fitted");
        assert_eq!(
            epoch_after,
            p.network().revision(),
            "successful refit stamps the current revision"
        );
        assert!(epoch_after >= epoch_before);
        // A failed refit must leave the served epoch untouched.
        let lonely = p.network().node_count() as NodeId + 1;
        p.observe(lonely, lonely, 1); // quarantined: revision unchanged
        let h = p.health();
        assert!(h.fitted);
        assert_eq!(h.model_epoch, Some(epoch_after));
    }

    #[test]
    fn self_loops_are_quarantined_not_fatal() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        let r = p.observe(7, 7, 2);
        assert_eq!(r, Observed::Quarantined(QuarantineReason::SelfLoop));
        assert_eq!(p.stats().self_loops, 1);
        assert_eq!(p.stats().accepted, 1);
        // The quarantined endpoint is registered as an isolated node.
        assert!(p.network().node_count() > 7);
        assert!(!p.network().has_link(7, 7));
    }

    /// Regression test for the score bound check: ids that only ever
    /// appeared in quarantined events are part of the network's id space
    /// after lossy ingestion and must be scoreable (as isolated nodes),
    /// not rejected as unknown.
    #[test]
    fn quarantined_endpoints_remain_scoreable() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted());
        let lonely = p.network().node_count() as NodeId + 3;
        p.observe(lonely, lonely, 100);
        assert_eq!(p.stats().self_loops, 1);
        // `lonely` now bounds the id space; the boundary id is valid.
        let s = p.score(lonely, 0);
        assert!(s.is_some(), "known-but-isolated ids must score");
        assert!((0.0..=1.0).contains(&s.unwrap()));
        assert!(p.score(lonely + 1, 0).is_none(), "beyond the id space");
    }

    #[test]
    fn duplicates_and_stale_events_quarantined_when_configured() {
        let mut p = OnlineLinkPredictor::new(OnlinePredictorConfig {
            quarantine_duplicates: true,
            max_lag: Some(2),
            ..quick_config()
        });
        assert!(p.observe(0, 1, 1).is_accepted());
        assert_eq!(
            p.observe(0, 1, 1),
            Observed::Quarantined(QuarantineReason::Duplicate)
        );
        // Same pair at a new tick is a legitimate multigraph link.
        assert!(p.observe(0, 1, 2).is_accepted());
        assert!(p.observe(1, 2, 10).is_accepted());
        assert_eq!(
            p.observe(2, 3, 1),
            Observed::Quarantined(QuarantineReason::Stale { lag: 9 })
        );
        assert_eq!(p.stats().duplicates, 1);
        assert_eq!(p.stats().stale, 1);
        assert_eq!(p.stats().accepted, 3);
        assert_eq!(p.stats().quarantined(), 2);
        // Stale endpoints still become known nodes.
        assert!(p.network().node_count() >= 4);
    }

    #[test]
    fn failed_refits_back_off_exponentially() {
        let mut p = OnlineLinkPredictor::new(OnlinePredictorConfig {
            refit_every: 1,
            max_backoff: 8,
            ..quick_config()
        });
        // A stream that only ever repeats one pair produces no fresh
        // (positive) links in any prediction window, so every refit fails
        // while the clock still advances.
        for t in 1..=20u32 {
            p.observe(0, 1, t);
        }
        // Attempts land at t = 1, 3, 7, 15 (intervals 2, 4, 8, 8-capped),
        // not at all 20 ticks.
        assert_eq!(p.stats().failed_refits, 4);
        assert_eq!(p.health().current_backoff, 8);
        assert!(p.health().last_refit_error.is_some());
    }

    /// The tentpole contract: for every pair kind — valid, degenerate,
    /// out-of-range — `score_batch` returns exactly what the per-pair
    /// `score` path returns, to the bit.
    #[test]
    fn score_batch_matches_per_pair_score_bitwise() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted());
        let n = p.network().node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> = vec![
            (0, 1),
            (2, 5),
            (3, 3),     // degenerate: self pair
            (0, n + 4), // degenerate: beyond the id space
            (1, 0),     // direction matters to the extractor, not validity
            (0, 1),     // repeat: reuses both endpoint balls, same bits
        ];
        let individual: Vec<_> =
            pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
        let batch = p.score_batch(&pairs);
        assert_eq!(batch.len(), pairs.len());
        for (i, (b, s)) in batch.iter().zip(&individual).enumerate() {
            match (b, s) {
                (Some(b), Some(s)) => assert_eq!(
                    b.to_bits(),
                    s.to_bits(),
                    "pair {:?} diverged",
                    pairs[i]
                ),
                (None, None) => {}
                other => panic!("pair {:?}: {other:?}", pairs[i]),
            }
        }
    }

    /// A cold batch whose pairs share an endpoint reuses their balls
    /// inside the batch — fewer `ssf.core.ball` computations than two per
    /// pair — and neither that reuse nor a graph move between batches
    /// changes a bit: each batch matches the per-pair scores.
    #[test]
    fn repeated_batches_hit_the_cache_until_the_graph_moves() {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let registry = Arc::new(obs::Registry::new());
        let mut p = OnlineLinkPredictor::with_recorder(
            quick_config(),
            ObsHandle::of_registry(Arc::clone(&registry)),
        );
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted());
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (1, 2), (2, 5)];
        let balls = || {
            registry
                .snapshot()
                .histogram("ssf.core.ball")
                .map_or(0, |h| h.count())
        };
        let before = balls();
        let first = p.score_batch(&pairs);
        let computed = balls() - before;
        assert!(
            computed < 2 * pairs.len() as u64,
            "a cold batch must reuse shared endpoint balls, \
             computed {computed} for {} pairs",
            pairs.len()
        );
        let bits = |s: &[Option<f64>]| -> Vec<Option<u64>> {
            s.iter().map(|s| s.map(f64::to_bits)).collect()
        };
        let per_pair: Vec<_> =
            pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
        assert_eq!(bits(&first), bits(&per_pair));
        let again = p.score_batch(&pairs);
        assert_eq!(bits(&first), bits(&again), "a batch repeats bit for bit");
        // An accepted observation moves the graph; the next batch scores
        // the new graph, exactly as the per-pair path does.
        let t = p.network().max_timestamp().unwrap_or(0) + 1;
        assert!(p.observe(0, 2, t).is_accepted());
        let moved = p.score_batch(&pairs);
        let per_pair: Vec<_> =
            pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
        assert_eq!(bits(&moved), bits(&per_pair));
    }

    #[test]
    fn fallback_score_is_monotone_in_common_neighbors() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        p.observe(1, 2, 1);
        p.observe(0, 3, 1);
        p.observe(3, 2, 1);
        // 0 and 2 share {1, 3}; 0 and 1 share nothing.
        let cn = |u, v| serve::common_neighbor_fallback(p.network(), u, v);
        assert!((cn(0, 2) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cn(0, 1), 0.0);
        assert_eq!(p.stats().degraded_scores(), 0);
    }

    fn durable_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ssf-stream-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Page-cache-only fsync keeps unit tests fast; the records still
    /// reach the file, just without waiting on the disk.
    fn fast_policy() -> DurabilityPolicy {
        DurabilityPolicy {
            fsync: ssf_persist::FsyncPolicy::Never,
            ..DurabilityPolicy::default()
        }
    }

    fn clean_events() -> Vec<(NodeId, NodeId, Timestamp)> {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        links.iter().map(|l| (l.u, l.v, l.t)).collect()
    }

    fn assert_scores_match(
        a: &mut OnlineLinkPredictor,
        b: &mut OnlineLinkPredictor,
    ) {
        let n = (a.network().node_count() as NodeId).min(24);
        for u in 0..n {
            for v in (u + 1)..n {
                let (sa, sb) = (a.score(u, v), b.score(u, v));
                assert_eq!(sa, sb, "scores diverge at pair ({u}, {v})");
            }
        }
    }

    /// The only live segment in `dir`.
    fn only_segment(dir: &Path) -> PathBuf {
        let segments = ssf_persist::list_segments(dir).expect("list WAL");
        assert_eq!(segments.len(), 1, "one segment");
        segments[0].1.clone()
    }

    /// Everything recovery must reproduce about the refit state.
    fn assert_same_refit_state(
        r: &OnlineLinkPredictor,
        live: &OnlineLinkPredictor,
    ) {
        // Compared as saved: a loaded model keeps no optimizer state.
        let saved = |p: &OnlineLinkPredictor| {
            p.fitted.as_ref().map(|f| {
                let mut bytes = Vec::new();
                f.model.save(&mut bytes).expect("save to memory");
                (f.epoch, bytes)
            })
        };
        assert!(saved(r) == saved(live), "model or epoch differs");
        assert_eq!(r.stats.successful_refits, live.stats.successful_refits);
        assert_eq!(r.stats.failed_refits, live.stats.failed_refits);
        assert_eq!(r.backoff, live.backoff, "backoff");
        assert_eq!(r.last_fit_attempt, live.last_fit_attempt);
        assert_eq!(r.last_refit_error, live.last_refit_error);
    }

    /// A due refit that fails, then an explicit install at the same
    /// epoch (a deterministic fit cannot succeed there, so the model is
    /// one fitted elsewhere): replay must fit the due refit again — and
    /// fail — and install only the explicit model, leaving the refit
    /// tallies, backoff and clock exactly as live.
    #[test]
    fn failed_due_refit_then_explicit_install_replays_both() {
        let dir = durable_dir("due-then-explicit");
        let events = clean_events();
        let mut donor = OnlineLinkPredictor::new(quick_config());
        for &(u, v, t) in &events {
            donor.observe(u, v, t);
        }
        let model = donor.fitted.as_ref().expect("donor fits").model.clone();
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let (u, v, t) = events[0];
        p.observe(u, v, t);
        assert_eq!(p.stats.failed_refits, 1, "one link is too few");
        let epoch = p.network.revision();
        p.install(model, epoch);
        p.log_refit(true, true);
        for &(u, v, t) in &events[1..40] {
            p.observe(u, v, t);
        }
        assert!(p.last_wal_error().is_none());
        let live = p.clone();
        drop(p);

        let (mut r, report) =
            OnlineLinkPredictor::open(quick_config(), &dir).expect("reopen");
        assert!(!report.is_lossy(), "{report:?}");
        assert_eq!(report.records_replayed, 40);
        assert_eq!(report.models_installed, live.stats.successful_refits);
        assert_same_refit_state(&r, &live);
        let mut live = live;
        assert_scores_match(&mut r, &mut live);
    }

    /// Byte ranges `(start, end)` of the model records (kind 3) in a
    /// WAL segment, read straight off the record framing.
    fn model_records(segment: &[u8]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut pos = 16;
        while pos + 8 <= segment.len() {
            let len = u32::from_le_bytes(
                segment[pos..pos + 4].try_into().expect("4 bytes"),
            ) as usize;
            if segment[pos + 16] == 3 {
                out.push((pos, pos + 8 + len));
            }
            pos += 8 + len;
        }
        out
    }

    /// Rewrites the payload of the model record at `start` in the
    /// segment at `path` with `mutate`, keeping its checksum valid.
    fn mutate_model_record(
        path: &Path,
        start: usize,
        mutate: fn(&mut Vec<u8>),
    ) {
        let mut bytes = std::fs::read(path).expect("read segment");
        let len = u32::from_le_bytes(
            bytes[start..start + 4].try_into().expect("4 bytes"),
        ) as usize;
        let mut payload = bytes[start + 8..start + 8 + len].to_vec();
        mutate(&mut payload);
        assert_eq!(payload.len(), len, "mutations keep the length");
        let crc = ssf_persist::crc32(&payload);
        bytes[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        bytes[start + 8..start + 8 + len].copy_from_slice(&payload);
        std::fs::write(path, &bytes).expect("write segment");
    }

    /// A model record replay may not install — its epoch is not the
    /// replayed revision, its ordinal skips an attempt, or its bytes do
    /// not load — is a memo replay cannot use, not the end of the log:
    /// the due refit runs as a fit, the record is counted as rejected
    /// (a lossy report), and every event after it still replays, onto
    /// the live run's exact state.
    #[test]
    fn unusable_model_record_is_fitted_again_and_the_log_kept() {
        let events = clean_events();
        for (tag, mutate) in [
            ("epoch", (|p: &mut Vec<u8>| p[9] ^= 1) as fn(&mut Vec<u8>)),
            ("ordinal", |p: &mut Vec<u8>| p[24] ^= 1),
            ("bytes", |p: &mut Vec<u8>| p[26..40].fill(b'#')),
        ] {
            let dir = durable_dir(&format!("unusable-{tag}"));
            let mut p = OnlineLinkPredictor::with_durability(
                quick_config(),
                &dir,
                fast_policy(),
            )
            .expect("fresh durable predictor");
            for &(u, v, t) in &events {
                p.observe(u, v, t);
            }
            let mut live = p.clone();
            drop(p);
            let path = only_segment(&dir);
            let segment = std::fs::read(&path).expect("read segment");
            let models = model_records(&segment);
            mutate_model_record(&path, models[0].0, mutate);

            let (mut r, report) =
                OnlineLinkPredictor::open(quick_config(), &dir).expect("open");
            assert!(!report.tail_truncated, "{tag}: {report:?}");
            assert_eq!(report.models_rejected, 1, "{tag}");
            assert!(report.is_lossy(), "{tag}");
            assert_eq!(report.records_replayed, events.len() as u64, "{tag}");
            assert_eq!(
                report.models_installed,
                models.len() as u64 - 1,
                "{tag}"
            );
            assert_eq!(
                std::fs::metadata(&path).expect("segment").len(),
                segment.len() as u64,
                "{tag}: the log is kept whole"
            );
            assert_same_refit_state(&r, &live);
            assert_scores_match(&mut r, &mut live);
        }
    }

    /// A failed explicit refit is logged, so replay attempts it too and
    /// its backoff matches the live run's. Where its record is missing
    /// — an append that failed — replay's refit clock runs ahead of the
    /// live one, and a later due refit's record arrives where replay has
    /// none due: that record is rejected, but no event is lost.
    #[test]
    fn lost_failure_record_rejects_a_model_but_keeps_every_event() {
        let dir = durable_dir("lost-failure");
        let events = clean_events();
        // Every tick, so refits fall due again after the failures.
        let config = OnlinePredictorConfig {
            refit_every: 1,
            ..quick_config()
        };
        let mut p = OnlineLinkPredictor::with_durability(
            config.clone(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let mut explicit_failed = false;
        for &(u, v, t) in &events {
            p.observe(u, v, t);
            // One explicit refit while the history is still too short.
            if !explicit_failed && p.stats.successful_refits == 0 {
                explicit_failed = p.try_refit().is_err();
            }
        }
        assert!(explicit_failed, "an early explicit refit must fail");
        assert!(p.last_wal_error().is_none());
        let live = p.clone();
        drop(p);
        let path = only_segment(&dir);
        let segment = std::fs::read(&path).expect("read segment");
        let models = model_records(&segment);
        // The failure record holds no model bytes.
        let (start, end) = models[0];
        assert_eq!(end - start, 8 + 26, "a failure record first");

        let (mut r, report) =
            OnlineLinkPredictor::open(config.clone(), &dir).expect("reopen");
        assert!(!report.is_lossy(), "{report:?}");
        assert_eq!(report.models_installed, live.stats.successful_refits);
        assert_same_refit_state(&r, &live);
        let mut twin = live.clone();
        assert_scores_match(&mut r, &mut twin);
        drop(r);

        // Without the failure record, the log still replays whole.
        let mut lost = segment[..start].to_vec();
        lost.extend_from_slice(&segment[end..]);
        std::fs::write(&path, &lost).expect("write segment");
        let (r, report) =
            OnlineLinkPredictor::open(config, &dir).expect("reopen");
        assert!(!report.tail_truncated, "{report:?}");
        assert_eq!(report.records_replayed, events.len() as u64);
        assert!(report.models_rejected > 0, "{report:?}");
        assert!(report.is_lossy());
        assert_eq!(r.stats.accepted, live.stats.accepted);
        assert_eq!(
            std::fs::metadata(&path).expect("segment").len(),
            lost.len() as u64,
            "nothing was cut"
        );
    }

    #[test]
    fn reopen_replays_the_wal_bit_identically() {
        let dir = durable_dir("reopen");
        let events = clean_events();
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let mut twin = OnlineLinkPredictor::new(quick_config());
        for &(u, v, t) in &events {
            p.observe(u, v, t);
            twin.observe(u, v, t);
        }
        assert!(p.is_durable());
        assert_eq!(p.durability_dir(), Some(dir.as_path()));
        assert!(p.last_wal_error().is_none());
        drop(p);

        let (mut r, report) = OnlineLinkPredictor::open(quick_config(), &dir)
            .expect("recovery from a clean shutdown");
        assert_eq!(report.records_replayed, events.len() as u64);
        assert_eq!(report.snapshot_revision, None, "never checkpointed");
        assert!(!report.is_lossy());
        assert_eq!(r.network().revision(), twin.network().revision());
        assert_eq!(r.is_fitted(), twin.is_fitted());
        assert_scores_match(&mut r, &mut twin);
    }

    #[test]
    fn checkpoint_then_reopen_replays_only_the_tail() {
        let dir = durable_dir("checkpoint");
        let events = clean_events();
        let mid = events.len() / 2;
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let mut twin = OnlineLinkPredictor::new(quick_config());
        for &(u, v, t) in &events[..mid] {
            p.observe(u, v, t);
            twin.observe(u, v, t);
        }
        let snapshot = p.checkpoint().expect("checkpoint");
        assert!(snapshot.exists());
        for &(u, v, t) in &events[mid..] {
            p.observe(u, v, t);
            twin.observe(u, v, t);
        }
        drop(p);

        let (mut r, report) = OnlineLinkPredictor::open(quick_config(), &dir)
            .expect("recovery from snapshot + WAL tail");
        assert!(report.snapshot_revision.is_some());
        assert_eq!(report.records_replayed, (events.len() - mid) as u64);
        assert!(!report.is_lossy());
        assert_eq!(r.network().revision(), twin.network().revision());
        assert_eq!(r.is_fitted(), twin.is_fitted());
        assert_scores_match(&mut r, &mut twin);
    }

    #[test]
    fn stale_wal_prefix_below_snapshot_survives_reopen() {
        let dir = durable_dir("stale-prefix");
        let events = clean_events();
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        for &(u, v, t) in &events[..12] {
            p.observe(u, v, t);
        }
        let segments = ssf_persist::list_segments(&dir).expect("list");
        assert_eq!(segments.len(), 1, "one live segment before checkpoint");
        let seg_path = segments[0].1.clone();
        let pre = std::fs::read(&seg_path).expect("pre-checkpoint bytes");
        p.checkpoint().expect("checkpoint at sequence 12");
        drop(p);

        // Crash simulation: neither the checkpoint's segment deletion
        // nor its rotation became durable — the pre-checkpoint segment
        // reappears with a torn tail (so its repaired prefix ends
        // *below* the snapshot's coverage) and the rotated segment is
        // gone.
        for (_, path) in ssf_persist::list_segments(&dir).expect("list") {
            std::fs::remove_file(path).expect("drop post-checkpoint wal");
        }
        const HEADER: usize = 16;
        const RECORD: usize = 29;
        let records = (pre.len() - HEADER) / RECORD;
        assert!(records >= 2, "need a multi-record segment");
        std::fs::write(&seg_path, &pre[..HEADER + (records - 1) * RECORD])
            .expect("write stale prefix");

        // Recovery has nothing to replay — the stale prefix is fully
        // covered by the snapshot — and must reclaim it so it cannot
        // masquerade as the head of the log on the *next* open.
        let (mut p, report) = OnlineLinkPredictor::open(quick_config(), &dir)
            .expect("recovery over a stale prefix");
        assert_eq!(report.records_replayed, 0);
        assert!(report.segments_removed >= 1, "stale prefix reclaimed");
        for &(u, v, t) in &events[12..18] {
            p.observe(u, v, t);
        }
        let revision = p.network().revision();
        drop(p);

        // The records appended after that recovery must not be taken
        // for a sequence gap and repaired away.
        let (r, report) = OnlineLinkPredictor::open(quick_config(), &dir)
            .expect("reopen after post-recovery appends");
        assert!(!report.is_lossy(), "fake gap detected: {report:?}");
        assert_eq!(report.records_replayed, 6);
        assert_eq!(r.network().revision(), revision);
    }

    #[test]
    fn wal_error_is_sticky_until_checkpoint() {
        let dir = durable_dir("sticky");
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        p.observe(0, 1, 1);
        // Simulate an earlier append failure: that event is in memory
        // but missing from the durable history.
        p.durability.as_mut().unwrap().last_wal_error =
            Some("disk on fire".to_string());
        p.observe(1, 2, 2);
        assert_eq!(
            p.last_wal_error(),
            Some("disk on fire"),
            "a successful append must not hide the degradation"
        );
        p.checkpoint().expect("checkpoint");
        assert!(
            p.last_wal_error().is_none(),
            "a checkpoint persists the full state and resets the marker"
        );
    }

    #[test]
    fn checkpoint_requires_durability() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        let err = p.checkpoint().expect_err("no durability attached");
        assert!(matches!(err, SsfError::Io(_)), "{err}");
    }

    #[test]
    fn clones_detach_the_wal() {
        let dir = durable_dir("clone");
        let p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let c = p.clone();
        assert!(p.is_durable());
        assert!(!c.is_durable(), "a WAL has exactly one writer");
        assert_eq!(c.durability_dir(), None);
    }

    #[test]
    fn open_rejects_a_snapshot_from_another_configuration() {
        let dir = durable_dir("fingerprint");
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        for &(u, v, t) in &clean_events()[..40] {
            p.observe(u, v, t);
        }
        p.checkpoint().expect("checkpoint");
        drop(p);

        let other = OnlinePredictorConfig {
            refit_every: 7,
            ..quick_config()
        };
        let err = OnlineLinkPredictor::open(other, &dir)
            .expect_err("hyperparameters changed under the state");
        assert!(matches!(err, SsfError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn open_to_revision_rewinds_to_a_past_state() {
        let dir = durable_dir("rewind");
        let events = clean_events();
        let mid = events.len() / 2;
        let mut p = OnlineLinkPredictor::with_durability(
            quick_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let mut twin = OnlineLinkPredictor::new(quick_config());
        let mut target = 0;
        for (i, &(u, v, t)) in events.iter().enumerate() {
            p.observe(u, v, t);
            if i < mid {
                twin.observe(u, v, t);
            }
            if i + 1 == mid {
                target = p.network().revision();
            }
        }
        p.sync_wal().expect("sync");
        drop(p);

        let (mut r, report) =
            OnlineLinkPredictor::open_to_revision(quick_config(), &dir, target)
                .expect("rewind within durable history");
        assert!(!r.is_durable(), "time travel must not fork the log");
        assert_eq!(report.records_replayed, mid as u64);
        assert_eq!(r.network().revision(), target);
        assert_eq!(r.network().revision(), twin.network().revision());
        assert_scores_match(&mut r, &mut twin);

        let err = OnlineLinkPredictor::open_to_revision(
            quick_config(),
            &dir,
            u64::MAX,
        )
        .expect_err("target beyond the durable history");
        assert!(matches!(err, SsfError::Corrupt { .. }), "{err}");
    }

    fn windowed_config(width: Timestamp) -> OnlinePredictorConfig {
        OnlinePredictorConfig {
            window: Some(width),
            ..quick_config()
        }
    }

    #[test]
    fn windowed_ingest_expires_behind_the_cutoff_and_quarantines_stragglers() {
        let mut p = OnlineLinkPredictor::new(windowed_config(10));
        assert!(p.observe(0, 1, 0).is_accepted());
        assert!(p.observe(1, 2, 5).is_accepted());
        assert_eq!(
            p.window(),
            Some(Window {
                width: 10,
                horizon: 5
            })
        );
        // Jumping the horizon to 12 implicitly expires t < 2.
        assert!(p.observe(2, 3, 12).is_accepted());
        assert_eq!(p.horizon(), 12);
        assert!(!p.network().has_link(0, 1), "t = 0 fell behind the cutoff");
        assert!(p.network().has_link(1, 2), "t = 5 is still in the window");
        // A link exactly at the cutoff is kept (inclusive boundary)...
        assert!(p.observe(4, 5, 2).is_accepted());
        // ...one tick behind it is quarantined, endpoints registered.
        assert_eq!(
            p.observe(6, 7, 1),
            Observed::Quarantined(QuarantineReason::OutOfWindow { cutoff: 2 })
        );
        assert_eq!(p.stats().out_of_window, 1);
        assert_eq!(p.stats().quarantined(), 1);
        assert!(p.network().node_count() >= 8);
        // An explicit advance expires the cutoff-hugging link and says so.
        let report = p.advance(13).expect("monotone").expect("horizon moved");
        assert_eq!(report.cutoff, 3);
        assert_eq!(report.expired_links, 1);
        assert!(report.affected.contains(&4) && report.affected.contains(&5));
        // Horizon regressions are typed errors, not silent no-ops.
        assert!(p.advance(5).is_err());
        // The published snapshot is the writer graph after expiry, and
        // carries the window for its batch key.
        let snap = p.snapshot();
        assert_eq!(snap.window(), p.window());
        assert_eq!(snap.epoch(), p.network().revision());
    }

    /// A window wide enough that nothing ever expires must be invisible:
    /// scores agree to the bit with the unbounded predictor, across the
    /// per-pair path and the cached batch path.
    #[test]
    fn windowed_scores_match_unbounded_when_nothing_expires() {
        let events = clean_events();
        let max_t = events.iter().map(|&(_, _, t)| t).max().unwrap_or(0);
        let mut w = OnlineLinkPredictor::new(windowed_config(max_t));
        let mut u = OnlineLinkPredictor::new(quick_config());
        for &(a, b, t) in &events {
            w.observe(a, b, t);
            u.observe(a, b, t);
        }
        assert!(w.is_fitted() && u.is_fitted());
        assert_eq!(w.network().link_count(), u.network().link_count());
        assert_scores_match(&mut w, &mut u);
        // Cached batch scoring equals the uncached per-pair path bitwise
        // on the windowed predictor too.
        let pairs: Vec<(NodeId, NodeId)> =
            vec![(0, 1), (2, 5), (3, 3), (1, 4), (0, 1)];
        let individual: Vec<_> =
            pairs.iter().map(|&(a, b)| w.score(a, b)).collect();
        assert_eq!(w.score_batch(&pairs), individual);
    }

    /// An advance that expires links leaves scoring consistent: after
    /// the expiry, batch scores match the per-pair path and a brand-new
    /// thread's cache bit for bit.
    #[test]
    fn windowed_advance_invalidates_the_cache_proportionally() {
        let events = clean_events();
        let max_t = events.iter().map(|&(_, _, t)| t).max().unwrap_or(0);
        let mut ticks: Vec<Timestamp> =
            events.iter().map(|&(_, _, t)| t).collect();
        ticks.sort_unstable();
        ticks.dedup();
        assert!(ticks.len() >= 2, "need at least two distinct ticks");
        let mut p = OnlineLinkPredictor::new(windowed_config(max_t));
        for &(a, b, t) in &events {
            p.observe(a, b, t);
        }
        assert!(p.is_fitted());
        let pairs: Vec<(NodeId, NodeId)> = vec![(0, 1), (0, 2), (1, 2), (2, 5)];
        let _ = p.score_batch(&pairs);
        // Advance so the cutoff lands exactly on the second distinct
        // tick: precisely the first tick's links expire.
        let report = p
            .advance(ticks[1].saturating_add(max_t))
            .expect("monotone")
            .expect("horizon moved");
        assert!(report.expired_links >= 1, "first tick must expire");
        // Post-expiry, batch, per-pair and fresh-thread scoring agree
        // bitwise.
        let bits = |s: &[Option<f64>]| -> Vec<Option<u64>> {
            s.iter().map(|s| s.map(f64::to_bits)).collect()
        };
        let individual: Vec<_> =
            pairs.iter().map(|&(a, b)| p.score(a, b)).collect();
        let batch = p.score_batch(&pairs);
        assert_eq!(bits(&batch), bits(&individual));
        let fresh =
            std::thread::scope(|s| s.spawn(|| p.score_batch(&pairs)).join())
                .unwrap_or_else(|_| panic!("fresh scorer panicked"));
        assert_eq!(bits(&batch), bits(&fresh));
    }

    /// Kill-and-replay for windowed predictors: WAL-logged advances and
    /// out-of-window quarantines replay to the same window, stats and
    /// bit-identical scores; the checkpoint carries the window so the
    /// tail replays against the right cutoff.
    #[test]
    fn windowed_durable_reopen_replays_advances_bit_identically() {
        let dir = durable_dir("windowed");
        let events = clean_events();
        let max_t = events.iter().map(|&(_, _, t)| t).max().unwrap_or(0);
        let width = max_t / 2;
        let mid = events.len() / 2;
        let config = windowed_config(width);
        let mut p = OnlineLinkPredictor::with_durability(
            config.clone(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        let mut twin = OnlineLinkPredictor::new(config.clone());
        for &(a, b, t) in &events[..mid] {
            p.observe(a, b, t);
            twin.observe(a, b, t);
        }
        // Checkpoint between two advances: one lands in the snapshot's
        // window metadata, the other must replay from the WAL.
        let first = p.horizon().saturating_add(1);
        assert_eq!(
            p.advance(first).expect("monotone"),
            twin.advance(first).expect("monotone")
        );
        p.checkpoint().expect("checkpoint");
        for &(a, b, t) in &events[mid..] {
            p.observe(a, b, t);
            twin.observe(a, b, t);
        }
        let second = p.horizon().saturating_add(width / 2);
        assert_eq!(
            p.advance(second).expect("monotone"),
            twin.advance(second).expect("monotone")
        );
        // A straggler behind the cutoff exercises the out-of-window
        // tally through the WAL and the snapshot.
        p.observe(0, 1, 0);
        twin.observe(0, 1, 0);
        assert_eq!(p.stats().out_of_window, twin.stats().out_of_window);
        drop(p);

        let (mut r, report) = OnlineLinkPredictor::open(config, &dir)
            .expect("recovery of a windowed predictor");
        assert!(!report.is_lossy());
        assert_eq!(r.window(), twin.window());
        assert_eq!(r.horizon(), twin.horizon());
        assert_eq!(r.network().revision(), twin.network().revision());
        assert_eq!(r.stats().out_of_window, twin.stats().out_of_window);
        assert_eq!(r.is_fitted(), twin.is_fitted());
        assert_scores_match(&mut r, &mut twin);
    }

    /// Boundary sweep: zero-width windows and horizons at `u32::MAX`
    /// must neither panic nor overflow anywhere in the ingest/score
    /// paths.
    #[test]
    fn zero_width_and_saturating_horizons_are_regression_safe() {
        let mut p = OnlineLinkPredictor::new(windowed_config(0));
        assert!(p.observe(0, 1, 3).is_accepted());
        assert!(p.observe(1, 2, 3).is_accepted());
        assert_eq!(p.network().link_count(), 2);
        assert!(p.observe(2, 3, 4).is_accepted());
        assert_eq!(
            p.network().link_count(),
            1,
            "zero width keeps only the horizon tick"
        );
        assert_eq!(
            p.observe(3, 4, 3),
            Observed::Quarantined(QuarantineReason::OutOfWindow { cutoff: 4 })
        );
        // The saturating horizon: `present = max_timestamp + 1` must
        // saturate, not overflow, in both scoring paths.
        assert!(p.observe(4, 5, u32::MAX).is_accepted());
        assert_eq!(p.horizon(), u32::MAX);
        assert!(p.score(0, 1).is_none(), "unfitted, but must not panic");
        let _ = p.score_batch(&[(4, 5), (0, 1)]);
        // Advancing to the current horizon is a no-op, not an error.
        assert!(matches!(p.advance(u32::MAX), Ok(None)));
        // A `u32::MAX` width saturates the cutoff at 0: nothing expires.
        let mut q = OnlineLinkPredictor::new(windowed_config(u32::MAX));
        assert!(q.observe(0, 1, 0).is_accepted());
        let report = q
            .advance(u32::MAX)
            .expect("monotone")
            .expect("horizon moved");
        assert_eq!(report.expired_links, 0);
        assert_eq!(q.network().link_count(), 1, "cutoff saturates at 0");
    }
}
