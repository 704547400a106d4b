//! The 15 link-prediction methods of the paper's Table III, behind one
//! uniform interface.
//!
//! Unsupervised ranking baselines (CN … NMF) score pairs directly on the
//! static view of the history network; supervised methods (WLLR, WLNM,
//! SSFLR-W, SSFNM-W, SSFLR, SSFNM) extract a link feature per sample,
//! take `ln_1p` and standardize, train their model on the training
//! samples and score the test samples. The deployable
//! [`crate::model::SsfnmModel`] runs the same training set, extraction
//! and input transform as SSFNM here. [`Method::evaluate`] runs any of them on a prepared
//! [`Split`] and returns the Table III cell (AUC, F1).

use std::borrow::Cow;

use baselines::{
    local, KatzIndex, LocalPathIndex, LocalRandomWalk, Nmf, NmfConfig,
    TemporalNmf, WlfConfig, WlfExtractor,
};
use dyngraph::{StaticGraph, Timestamp};
use linalg::Matrix;
use obs::ObsHandle;
use ssf_core::{
    CacheStats, EntryEncoding, ExtractionCache, SsfConfig, SsfExtractor,
    ThreadCache,
};
use ssf_eval::{
    evaluate_ranking, evaluate_supervised_scores, LinkSample, MethodResult,
    Split,
};
use ssf_ml::{LinearRegression, MlpConfig, NeuralMachine, StandardScaler};

use crate::error::ConfigError;

/// One of the paper's Table III methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Method {
    /// Common Neighbors (unsupervised).
    Cn,
    /// Jaccard index (unsupervised).
    Jaccard,
    /// Preferential Attachment (unsupervised).
    Pa,
    /// Adamic–Adar (unsupervised).
    Aa,
    /// Resource Allocation (unsupervised).
    Ra,
    /// Reliable weighted Resource Allocation (unsupervised, weighted).
    Rwra,
    /// Truncated Katz index (unsupervised).
    Katz,
    /// Superposed local random walk (unsupervised).
    Rw,
    /// Non-negative matrix factorization (unsupervised reconstruction).
    Nmf,
    /// WLF + linear regression (Zhang & Chen's feature).
    Wllr,
    /// WLF + neural machine.
    Wlnm,
    /// SSF-W (timestamp-blind SSF) + linear regression.
    SsflrW,
    /// SSF-W + neural machine.
    SsfnmW,
    /// SSF + linear regression — the paper's first proposed method.
    Ssflr,
    /// SSF + neural machine — the paper's second proposed method.
    Ssfnm,
    /// Local Path index `A² + εA³` (related-work extension, paper ref \[8\]).
    Lp,
    /// Temporal matrix factorization over the decay-weighted adjacency
    /// (related-work extension, after paper ref \[28\]).
    Tmf,
}

impl Method {
    /// All 15 methods in Table III row order.
    pub fn all() -> [Method; 15] {
        use Method::*;
        [
            Cn, Jaccard, Pa, Aa, Ra, Rwra, Katz, Rw, Nmf, Wllr, SsflrW, Wlnm,
            SsfnmW, Ssflr, Ssfnm,
        ]
    }

    /// Table III's 15 methods plus the related-work extensions (LP, TMF).
    pub fn extended() -> Vec<Method> {
        let mut v = Self::all().to_vec();
        v.push(Method::Lp);
        v.push(Method::Tmf);
        v
    }

    /// The method name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Method::Cn => "CN",
            Method::Jaccard => "Jac.",
            Method::Pa => "PA",
            Method::Aa => "AA",
            Method::Ra => "RA",
            Method::Rwra => "rWRA",
            Method::Katz => "Katz",
            Method::Rw => "RW",
            Method::Nmf => "NMF",
            Method::Wllr => "WLLR",
            Method::Wlnm => "WLNM",
            Method::SsflrW => "SSFLR-W",
            Method::SsfnmW => "SSFNM-W",
            Method::Ssflr => "SSFLR",
            Method::Ssfnm => "SSFNM",
            Method::Lp => "LP",
            Method::Tmf => "TMF",
        }
    }

    /// Parses a method name (case-insensitive), including the extensions.
    pub fn parse(name: &str) -> Option<Method> {
        Method::extended()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
    }

    /// `true` for the supervised, feature-based methods.
    pub fn is_supervised(&self) -> bool {
        matches!(
            self,
            Method::Wllr
                | Method::Wlnm
                | Method::SsflrW
                | Method::SsfnmW
                | Method::Ssflr
                | Method::Ssfnm
        )
    }

    /// Runs the method on a prepared split.
    pub fn evaluate(
        &self,
        split: &Split,
        opts: &MethodOptions,
    ) -> MethodResult {
        self.evaluate_augmented(split, &[], opts)
    }

    /// Runs the method on a prepared split, augmenting the supervised
    /// training set with labeled samples from earlier prediction windows
    /// (`extra_train`, e.g. from [`ssf_eval::backtest_splits`]).
    ///
    /// The training set is the split's train samples, then every extra
    /// fold's train and test samples, each featurized against *that
    /// fold's own history*, so no future information reaches the model;
    /// the folds predate the evaluation window by construction.
    /// [`crate::model::SsfnmModel::try_fit`] trains on the same set
    /// through the same extraction and input transform, so its scores
    /// over `split.test` equal SSFNM's `test_scores` bit for bit.
    /// Ranking methods have nothing to train and ignore the extra folds.
    pub fn evaluate_augmented(
        &self,
        split: &Split,
        extra_train: &[Split],
        opts: &MethodOptions,
    ) -> MethodResult {
        if self.is_supervised() {
            return self.supervised(split, extra_train, opts);
        }
        let stat = split.history.to_static();
        match self {
            Method::Cn => evaluate_ranking(self.name(), split, |u, v| {
                local::common_neighbors(&stat, u, v)
            }),
            Method::Jaccard => evaluate_ranking(self.name(), split, |u, v| {
                local::jaccard(&stat, u, v)
            }),
            Method::Pa => evaluate_ranking(self.name(), split, |u, v| {
                local::preferential_attachment(&stat, u, v)
            }),
            Method::Aa => evaluate_ranking(self.name(), split, |u, v| {
                local::adamic_adar(&stat, u, v)
            }),
            Method::Ra => evaluate_ranking(self.name(), split, |u, v| {
                local::resource_allocation(&stat, u, v)
            }),
            Method::Rwra => evaluate_ranking(self.name(), split, |u, v| {
                local::rwra(&stat, u, v)
            }),
            Method::Katz => {
                let mut katz =
                    KatzIndex::new(&stat, opts.katz_beta, opts.katz_max_len);
                evaluate_ranking(self.name(), split, |u, v| katz.score(u, v))
            }
            Method::Rw => {
                let mut rw = LocalRandomWalk::new(&stat, opts.rw_steps);
                evaluate_ranking(self.name(), split, |u, v| rw.score(u, v))
            }
            Method::Nmf => {
                let nmf = Nmf::factorize(&stat, opts.nmf);
                evaluate_ranking(self.name(), split, |u, v| nmf.score(u, v))
            }
            Method::Lp => {
                let mut lp = LocalPathIndex::new(&stat, opts.lp_epsilon);
                evaluate_ranking(self.name(), split, |u, v| lp.score(u, v))
            }
            Method::Tmf => {
                let present =
                    split.history.max_timestamp().map_or(split.l_t, |t| t + 1);
                let tmf = TemporalNmf::factorize(
                    &split.history,
                    present,
                    opts.theta,
                    opts.nmf,
                );
                evaluate_ranking(self.name(), split, |u, v| tmf.score(u, v))
            }
            supervised => unreachable!("{supervised:?} returned above"),
        }
    }

    /// LR vs NM for the supervised methods.
    ///
    /// # Panics
    ///
    /// Panics for unsupervised methods.
    fn model_kind(&self) -> ModelKind {
        match self {
            Method::Wllr | Method::SsflrW | Method::Ssflr => ModelKind::Lr,
            Method::Wlnm | Method::SsfnmW | Method::Ssfnm => ModelKind::Nm,
            other => unreachable!("{other:?} has no trained model"),
        }
    }

    /// This method's feature extractor for one fold's batch, built once
    /// per batch instead of once per sample; `None` for unsupervised
    /// methods. Only WLF reads the fold's static view, so only WLF pays
    /// for building it.
    fn feature_extractor(
        &self,
        opts: &MethodOptions,
        fold: &Split,
    ) -> Option<FeatureKind> {
        match self {
            Method::Wllr | Method::Wlnm => Some(FeatureKind::Wlf(
                WlfExtractor::new(WlfConfig::new(opts.k)),
                fold.history.to_static(),
            )),
            Method::SsflrW | Method::SsfnmW => {
                let cfg = SsfConfig::new(opts.k)
                    .with_encoding(EntryEncoding::LinkCount);
                Some(FeatureKind::Ssf(SsfExtractor::new(cfg)))
            }
            Method::Ssflr | Method::Ssfnm => {
                Some(FeatureKind::Ssf(SsfExtractor::new(opts.ssf_config())))
            }
            _ => None,
        }
    }

    /// The feature-row width this method produces under `opts`; `None` for
    /// unsupervised methods.
    ///
    /// Computed from the configuration alone (`K(K−1)/2 − 1`, doubled for
    /// the concatenated SSF encoding) so a batch whose every sample
    /// degrades still yields full-width zero rows instead of collapsing
    /// the design matrix to width 0.
    pub fn feature_dim(&self, opts: &MethodOptions) -> Option<usize> {
        let base = (opts.k * opts.k.saturating_sub(1) / 2).saturating_sub(1);
        match self {
            Method::Wllr | Method::Wlnm | Method::SsflrW | Method::SsfnmW => {
                Some(base)
            }
            Method::Ssflr | Method::Ssfnm => {
                if opts.ssf_encoding == EntryEncoding::InfluenceAndStructure {
                    Some(2 * base)
                } else {
                    Some(base)
                }
            }
            _ => None,
        }
    }

    /// [`Method::extract_batch_observed`] with the no-op recorder, rows
    /// only.
    pub fn extract_batch(
        &self,
        fold: &Split,
        opts: &MethodOptions,
        samples: &[LinkSample],
        threads: usize,
    ) -> Vec<Vec<f64>> {
        self.extract_batch_observed(
            fold,
            opts,
            samples,
            threads,
            &ObsHandle::noop(),
        )
        .0
    }

    /// Extracts the features of a batch of samples against `fold`'s
    /// history: the one batch-extraction body behind every supervised
    /// method and the SSFNM fit. Returns the rows in input order plus
    /// the [`CacheStats`] merged across every worker chunk.
    ///
    /// With `threads > 1` and at least 64 samples the batch fans out
    /// over scoped threads, one borrow of each worker thread's
    /// [`ExtractionCache`] per chunk; otherwise it runs on the caller
    /// against one borrow. The rows are identical for every `threads`
    /// value: chunking only changes which worker computes a row, and a
    /// borrowed cache is bit-identical to no cache at all.
    ///
    /// Robustness: each sample extracts behind the cache's panic guard,
    /// so a degenerate pair (equal or out-of-range endpoints) or a
    /// panicking extraction yields an all-zero row (width from
    /// [`Method::feature_dim`], even when *every* sample degrades)
    /// instead of poisoning the batch, and a worker thread that dies
    /// anyway has its chunk recomputed on the caller. Unsupervised
    /// methods have no feature and yield empty rows.
    ///
    /// Temporal decay is measured from the first tick after the history
    /// ends, not from the (possibly later) prediction time: when the
    /// evaluation window spans several ticks, measuring from `l_t` would
    /// insert a dead gap that exponentially suppresses *all* history.
    ///
    /// Telemetry: the batch runs under an `ssf.methods.extract` span,
    /// sample and degraded-row counts land in `ssf.methods.samples` /
    /// `ssf.methods.degraded_rows`, and every chunk's cache carries
    /// `obs`, so `ssf.core.*` stage timings flow from inside extraction.
    pub fn extract_batch_observed(
        &self,
        fold: &Split,
        opts: &MethodOptions,
        samples: &[LinkSample],
        threads: usize,
        obs: &ObsHandle,
    ) -> (Vec<Vec<f64>>, CacheStats) {
        let _span = obs.span("ssf.methods.extract");
        obs.counter("ssf.methods.samples", samples.len() as u64);
        let Some(ex) = self.feature_extractor(opts, fold) else {
            let empty = samples.iter().map(|_| Vec::new()).collect();
            return (empty, CacheStats::default());
        };
        let dim = self.feature_dim(opts).unwrap_or(0);
        let present = fold.history.max_timestamp().map_or(fold.l_t, |t| t + 1);
        let run_chunk =
            |part: &[LinkSample]| -> (Vec<Option<Vec<f64>>>, CacheStats) {
                let mut cache = ExtractionCache::borrow(obs.clone());
                let rows = part
                    .iter()
                    .map(|s| ex.extract_caught(&mut cache, fold, s, present))
                    .collect();
                (rows, cache.stats())
            };
        let (rows, stats) = if threads <= 1 || samples.len() < 64 {
            run_chunk(samples)
        } else {
            let chunk = samples.len().div_ceil(threads);
            let run_chunk = &run_chunk;
            std::thread::scope(|scope| {
                let handles: Vec<_> = samples
                    .chunks(chunk)
                    .map(|part| (part, scope.spawn(move || run_chunk(part))))
                    .collect();
                let mut rows = Vec::with_capacity(samples.len());
                let mut stats = CacheStats::default();
                for (part, h) in handles {
                    let (chunk_rows, chunk_stats) =
                        h.join().unwrap_or_else(|_| run_chunk(part));
                    rows.extend(chunk_rows);
                    stats.merge(&chunk_stats);
                }
                (rows, stats)
            })
        };
        let mut degraded = 0u64;
        let rows = rows
            .into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    degraded += 1;
                    vec![0.0; dim]
                })
            })
            .collect();
        if degraded > 0 {
            obs.counter("ssf.methods.degraded_rows", degraded);
        }
        (rows, stats)
    }

    /// Trains this supervised method on [`training_folds`] and scores the
    /// split's test samples. Extraction fans out over the available
    /// cores.
    fn supervised(
        &self,
        split: &Split,
        extra_train: &[Split],
        opts: &MethodOptions,
    ) -> MethodResult {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let extract = |fold: &Split, samples: &[LinkSample]| {
            self.extract_batch(fold, opts, samples, threads)
        };
        let (mut train_rows, mut train_labels) = (Vec::new(), Vec::new());
        for (fold, samples) in training_folds(split, extra_train) {
            train_rows.extend(extract(fold, &samples));
            train_labels.extend(samples.iter().map(|s| s.label));
        }
        // Degrade to ranking the test pairs by common neighbors rather
        // than refusing to serve.
        let cn_fallback = || {
            let stat = split.history.to_static();
            let scores: Vec<f64> = split
                .test
                .iter()
                .map(|s| local::common_neighbors(&stat, s.u, s.v))
                .collect();
            evaluate_supervised_scores(self.name(), split, &scores)
        };
        let dim = train_rows.first().map_or(0, Vec::len);
        if dim == 0 {
            // No usable training features: an empty train set, or a `K`
            // too small for any feature entry.
            return cn_fallback();
        }
        let mut x_train =
            Matrix::from_fn(train_rows.len(), dim, |i, j| train_rows[i][j]);
        let scaler = model_input(&mut x_train, None).into_owned();
        let test_rows = extract(split, &split.test);
        let mut x_test =
            Matrix::from_fn(test_rows.len(), dim, |i, j| test_rows[i][j]);
        model_input(&mut x_test, Some(&scaler));

        let scores: Vec<f64> = match self.model_kind() {
            ModelKind::Lr => {
                let y: Vec<f64> = train_labels
                    .iter()
                    .map(|&l| if l { 1.0 } else { 0.0 })
                    .collect();
                match LinearRegression::fit(&x_train, &y, opts.ridge_lambda) {
                    Ok(lr) => (0..x_test.rows())
                        .map(|i| lr.predict(x_test.row(i)))
                        .collect(),
                    // Degenerate design (e.g. λ = 0 on collinear features).
                    Err(_) => return cn_fallback(),
                }
            }
            ModelKind::Nm => {
                let y: Vec<usize> =
                    train_labels.iter().map(|&l| usize::from(l)).collect();
                let nm = NeuralMachine::train(&x_train, &y, opts.mlp_config());
                (0..x_test.rows())
                    .map(|i| nm.score(x_test.row(i)))
                    .collect()
            }
        };
        evaluate_supervised_scores(self.name(), split, &scores)
    }
}

/// The supervised training set, fold by fold: the split's own train
/// samples, then every extra fold's train and test samples. Each batch
/// is featurized against the history of the fold it comes with, so no
/// future information reaches the model.
pub(crate) fn training_folds<'a>(
    split: &'a Split,
    extra_train: &'a [Split],
) -> impl Iterator<Item = (&'a Split, Vec<LinkSample>)> {
    std::iter::once((split, split.train.clone())).chain(
        extra_train
            .iter()
            .map(|fold| (fold, [fold.train.as_slice(), &fold.test].concat())),
    )
}

/// The supervised models' input transform, in place on a matrix of raw
/// feature rows: `ln_1p` on every entry, then standardization by
/// `scaler` — or, for a training set (`None`), by a scaler first fitted
/// to these `ln_1p` rows, which is returned. `ln_1p` compresses the
/// heavy-tailed multi-link counts of SSF-W / normalized-influence
/// entries; without it the count variance swamps the presence/absence
/// signal. All entries are non-negative; bounded encodings pass
/// monotonically.
///
/// # Panics
///
/// When fitting on a matrix without rows, or when `x`'s width differs
/// from `scaler`'s.
pub(crate) fn model_input<'s>(
    x: &mut Matrix,
    scaler: Option<&'s StandardScaler>,
) -> Cow<'s, StandardScaler> {
    for v in x.as_mut_slice() {
        *v = v.ln_1p();
    }
    let scaler = scaler
        .map_or_else(|| Cow::Owned(StandardScaler::fit(x)), Cow::Borrowed);
    for i in 0..x.rows() {
        scaler.transform_row(x.row_mut(i));
    }
    scaler
}

/// LR vs NM model choice for the supervised methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    Lr,
    Nm,
}

/// A prepared per-batch feature extractor, hoisted out of the
/// per-sample loop: WLF with the fold's static view it reads, SSF over
/// the timestamped history.
#[derive(Debug, Clone)]
enum FeatureKind {
    Wlf(WlfExtractor, StaticGraph),
    Ssf(SsfExtractor),
}

impl FeatureKind {
    /// Extracts one sample's feature behind the borrowed cache's panic
    /// guard: a degenerate pair (typed error) or a panicking extraction
    /// (pathological subgraph) yields `None` instead of tearing the run
    /// down, and a panic retires the chunk's cache.
    ///
    /// The SSF arm runs the [`dyngraph::GraphView`]-generic extraction
    /// pipeline against the fold's mutable history network; the serving
    /// layer drives the same code over frozen CSR views, and the outputs
    /// are bit-identical by the view contract.
    fn extract_caught(
        &self,
        cache: &mut ThreadCache,
        fold: &Split,
        sample: &LinkSample,
        present: Timestamp,
    ) -> Option<Vec<f64>> {
        cache
            .catch(|cache| match self {
                FeatureKind::Wlf(w, stat) => {
                    Some(w.extract(stat, sample.u, sample.v))
                }
                FeatureKind::Ssf(s) => s
                    .try_extract_cached(
                        &fold.history,
                        sample.u,
                        sample.v,
                        present,
                        cache,
                    )
                    .ok()
                    .map(ssf_core::SsfFeature::into_values),
            })
            .ok()
            .flatten()
    }
}

/// Shared hyperparameters (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodOptions {
    /// `K` for WLF / SSF features (paper: 10).
    pub k: usize,
    /// Influence decay θ (paper: 0.5).
    pub theta: f64,
    /// Entry encoding for the full SSF methods. Default: the combined
    /// log-influence + structure encoding (see
    /// [`EntryEncoding::InfluenceAndStructure`]); Definition 8's raw
    /// normalized influence and the §V-B reciprocal distance are available
    /// for ablation.
    pub ssf_encoding: EntryEncoding,
    /// Neural machine epochs (paper: 2000 with plain SGD; our Adam default
    /// saturates far earlier — see EXPERIMENTS.md).
    pub nm_epochs: u32,
    /// Ridge strength for the linear regressions.
    pub ridge_lambda: f64,
    /// Katz damping β (paper: 0.001).
    pub katz_beta: f64,
    /// Katz series cutoff.
    pub katz_max_len: u32,
    /// Random-walk steps.
    pub rw_steps: u32,
    /// NMF configuration (shared by NMF and TMF).
    pub nmf: NmfConfig,
    /// Local Path ε.
    pub lp_epsilon: f64,
    /// Seed for model training.
    pub seed: u64,
}

impl MethodOptions {
    /// The extractor configuration of the full SSF methods (SSFLR,
    /// SSFNM and [`crate::model::SsfnmModel`]): `K`, the influence decay
    /// θ and the entry encoding.
    pub(crate) fn ssf_config(&self) -> SsfConfig {
        SsfConfig::new(self.k)
            .with_theta(self.theta)
            .with_encoding(self.ssf_encoding)
    }

    /// The neural machine's training configuration: the epochs and seed
    /// here, every other setting at its default.
    pub(crate) fn mlp_config(&self) -> MlpConfig {
        MlpConfig {
            epochs: self.nm_epochs,
            seed: self.seed,
            ..MlpConfig::default()
        }
    }

    /// Checks the hyperparameters a predictor cannot recover from at
    /// runtime: `K` below the K-structure minimum of 3 and a negative or
    /// non-finite influence decay θ. Called by
    /// [`crate::stream::OnlinePredictorConfigBuilder::build`], so invalid
    /// values surface as a typed [`ConfigError`] at construction instead
    /// of an assert deep inside the first extraction.
    ///
    /// # Errors
    ///
    /// [`ConfigError::KTooSmall`] or [`ConfigError::InvalidTheta`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.k < 3 {
            return Err(ConfigError::KTooSmall { k: self.k });
        }
        if !self.theta.is_finite() || self.theta < 0.0 {
            return Err(ConfigError::InvalidTheta { theta: self.theta });
        }
        Ok(())
    }
}

impl Default for MethodOptions {
    fn default() -> Self {
        MethodOptions {
            k: 10,
            theta: 0.5,
            ssf_encoding: EntryEncoding::InfluenceAndStructure,
            nm_epochs: 200,
            ridge_lambda: 1e-3,
            katz_beta: 0.001,
            katz_max_len: 5,
            rw_steps: 3,
            nmf: NmfConfig::default(),
            lp_epsilon: 0.01,
            seed: 13,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::DynamicNetwork;
    use ssf_eval::SplitConfig;

    #[test]
    fn method_options_validate_rejects_bad_hyperparameters() {
        assert!(MethodOptions::default().validate().is_ok());
        let opts = MethodOptions {
            k: 2,
            ..MethodOptions::default()
        };
        assert_eq!(opts.validate(), Err(ConfigError::KTooSmall { k: 2 }));
        let opts = MethodOptions {
            theta: -1.0,
            ..MethodOptions::default()
        };
        assert!(matches!(
            opts.validate(),
            Err(ConfigError::InvalidTheta { .. })
        ));
        let opts = MethodOptions {
            theta: f64::NAN,
            ..MethodOptions::default()
        };
        assert!(opts.validate().is_err());
    }

    /// A network where new links close triangles: common-neighbor signal.
    fn triadic_network() -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        // Hubs 0..5 each with a fan; fans of the same hub link up late.
        let mut next = 6u32;
        let mut fans = Vec::new();
        for hub in 0..6u32 {
            for _ in 0..6 {
                g.add_link(hub, next, 1 + (next % 7));
                fans.push((hub, next));
                next += 1;
            }
        }
        // Late triangle closures between fans of the same hub.
        let mut t = 8;
        for w in fans.windows(2) {
            if w[0].0 == w[1].0 && (w[0].1 + w[1].1) % 3 == 0 {
                g.add_link(w[0].1, w[1].1, t.min(9));
                t += 1;
            }
        }
        // Fresh closures at the last tick.
        for w in fans.chunks(6) {
            g.add_link(w[0].1, w[2].1, 10);
            g.add_link(w[1].1, w[3].1, 10);
        }
        g
    }

    fn split() -> Split {
        Split::new(&triadic_network(), &SplitConfig::default()).unwrap()
    }

    #[test]
    fn all_methods_run_and_produce_finite_metrics() {
        let split = split();
        let opts = MethodOptions {
            nm_epochs: 10,
            nmf: NmfConfig {
                iterations: 20,
                ..NmfConfig::default()
            },
            ..MethodOptions::default()
        };
        for m in Method::all() {
            let r = m.evaluate(&split, &opts);
            assert!(r.auc.is_finite() && (0.0..=1.0).contains(&r.auc), "{m:?}");
            assert!(r.f1.is_finite() && (0.0..=1.0).contains(&r.f1), "{m:?}");
            assert_eq!(r.name, m.name());
        }
    }

    #[test]
    fn cn_beats_chance_on_triadic_closure() {
        let r = Method::Cn.evaluate(&split(), &MethodOptions::default());
        assert!(r.auc > 0.6, "CN should exploit common neighbors: {}", r.auc);
    }

    #[test]
    fn ssfnm_beats_chance_on_triadic_closure() {
        let opts = MethodOptions {
            nm_epochs: 60,
            ..MethodOptions::default()
        };
        let r = Method::Ssfnm.evaluate(&split(), &opts);
        assert!(
            r.auc > 0.6,
            "SSFNM should learn the closure rule: {}",
            r.auc
        );
    }

    #[test]
    fn augmentation_adds_training_data_without_changing_ranking_methods() {
        let eval_split = split();
        // A second, earlier fold carved out of the history.
        let Ok(earlier) = Split::new(
            &eval_split.history,
            &SplitConfig {
                window: 2,
                ..SplitConfig::default()
            },
        ) else {
            return; // toy history too thin — nothing to augment with
        };
        let opts = MethodOptions {
            nm_epochs: 10,
            ..MethodOptions::default()
        };
        // Ranking methods ignore the extra folds entirely.
        let plain = Method::Cn.evaluate(&eval_split, &opts);
        let aug = Method::Cn.evaluate_augmented(
            &eval_split,
            std::slice::from_ref(&earlier),
            &opts,
        );
        assert_eq!(plain, aug);
        // Supervised methods stay valid with more data.
        let r =
            Method::Ssflr.evaluate_augmented(&eval_split, &[earlier], &opts);
        assert!((0.0..=1.0).contains(&r.auc));
    }

    #[test]
    fn degenerate_samples_degrade_to_zero_rows() {
        let eval_split = split();
        let good = eval_split.train[0];
        let bad = LinkSample {
            u: 3,
            v: 3, // self-pair: extraction would panic
            label: false,
        };
        let rows = Method::Ssflr.extract_batch(
            &eval_split,
            &MethodOptions::default(),
            &[good, bad, good],
            1,
        );
        assert_eq!(rows.len(), 3);
        let dim = rows[0].len();
        assert!(dim > 0);
        assert_eq!(rows[1].len(), dim, "degraded row keeps the batch shape");
        assert!(rows[1].iter().all(|&x| x == 0.0));
        assert_eq!(rows[0], rows[2]);
    }

    /// Regression test: a batch where *every* sample degrades used to
    /// infer the row width from the (nonexistent) first surviving row and
    /// collapse to 0-width rows; the width now comes from the options.
    #[test]
    fn all_degenerate_batch_keeps_feature_width() {
        let eval_split = split();
        let bad = LinkSample {
            u: 3,
            v: 3,
            label: false,
        };
        let opts = MethodOptions::default();
        for m in [Method::Ssfnm, Method::Wlnm, Method::SsflrW] {
            let rows = m.extract_batch(&eval_split, &opts, &[bad, bad], 1);
            let dim = m.feature_dim(&opts).unwrap();
            assert!(dim > 0, "{m:?}");
            assert_eq!(rows.len(), 2);
            for r in &rows {
                assert_eq!(r.len(), dim, "{m:?} degraded row keeps width");
                assert!(r.iter().all(|&x| x == 0.0));
            }
        }
    }

    /// `feature_dim` must agree with what extraction actually produces.
    #[test]
    fn feature_dim_matches_extracted_rows() {
        let eval_split = split();
        let opts = MethodOptions::default();
        let good = eval_split.train[0];
        for m in Method::all() {
            let Some(dim) = m.feature_dim(&opts) else {
                assert!(!m.is_supervised(), "{m:?}");
                continue;
            };
            let rows = m.extract_batch(&eval_split, &opts, &[good], 1);
            assert_eq!(rows[0].len(), dim, "{m:?}");
        }
    }

    #[test]
    fn names_parse_round_trip() {
        for m in Method::all() {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("ssfnm"), Some(Method::Ssfnm));
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn supervised_flag_matches_table() {
        assert!(!Method::Cn.is_supervised());
        assert!(!Method::Nmf.is_supervised());
        assert!(Method::Wllr.is_supervised());
        assert!(Method::Ssfnm.is_supervised());
    }
}
