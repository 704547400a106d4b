//! A trained, reusable SSFNM model — the deployment-shaped API.
//!
//! [`crate::methods::Method::evaluate`] trains and throws the model away
//! (all the paper's experiments need is the metrics). Applications want to
//! keep the fitted model and score arbitrary candidate pairs later;
//! [`SsfnmModel`] packages the extractor configuration, the fitted feature
//! scaler and the neural machine together. Both run one pipeline — the
//! same training set, batch extraction and `ln_1p`/scaler input
//! transform — so a fitted model reproduces the offline SSFNM scores bit
//! for bit.

use std::io::{self, BufRead, Write};

use dyngraph::{GraphView, NodeId, Timestamp};
use linalg::Matrix;
use obs::ObsHandle;
use ssf_core::{
    EntryEncoding, ExtractError, ExtractionCache, HopSubgraph, SsfConfig,
    SsfExtractor,
};
use ssf_eval::Split;
use ssf_ml::{persist, FitError, NeuralMachine, StandardScaler};

use crate::error::SsfError;
use crate::methods::{model_input, training_folds, Method, MethodOptions};

/// A fitted SSF + neural-machine link predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct SsfnmModel {
    extractor: SsfExtractor,
    scaler: StandardScaler,
    model: NeuralMachine,
}

impl SsfnmModel {
    /// Trains on a split plus optional earlier-window folds: the training
    /// set, extraction and input transform of
    /// [`crate::methods::Method::evaluate_augmented`], so the fitted
    /// model scores `split.test` exactly as SSFNM's `test_scores` do.
    ///
    /// # Errors
    ///
    /// [`SsfError::Fit`] when the combined folds hold no training samples,
    /// [`SsfError::Extract`] when a sample pair is degenerate (equal or
    /// out-of-range endpoints — possible after lossy ingestion).
    pub fn try_fit(
        split: &Split,
        extra_train: &[Split],
        opts: &MethodOptions,
    ) -> Result<Self, SsfError> {
        Self::try_fit_observed(split, extra_train, opts, &ObsHandle::noop())
    }

    /// [`SsfnmModel::try_fit`] with telemetry: the whole fit runs under an
    /// `ssf.model.fit` span, the feature-extraction prefix under
    /// `ssf.model.extract`, training rows land in the
    /// `ssf.model.train_rows` counter, and the neural machine trains via
    /// [`NeuralMachine::train_observed`]. The fitted model is identical to
    /// the unobserved path.
    ///
    /// Extraction is serial, on one borrow of the thread's extraction
    /// cache per fold, with the no-op recorder: a refit inside the
    /// online predictor records no `ssf.core.*` stage timings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsfnmModel::try_fit`].
    pub fn try_fit_observed(
        split: &Split,
        extra_train: &[Split],
        opts: &MethodOptions,
        obs: &ObsHandle,
    ) -> Result<Self, SsfError> {
        let _fit_span = obs.span("ssf.model.fit");
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let extract_span = obs.span("ssf.model.extract");
        for (fold, samples) in training_folds(split, extra_train) {
            // The batch body degrades a degenerate sample to a zero row;
            // a fit refuses it instead.
            for s in &samples {
                HopSubgraph::validate(&fold.history, s.u, s.v)?;
            }
            let (fold_rows, _) = Method::Ssfnm.extract_batch_observed(
                fold,
                opts,
                &samples,
                1,
                &ObsHandle::noop(),
            );
            rows.extend(fold_rows);
            labels.extend(samples.iter().map(|s| usize::from(s.label)));
        }
        extract_span.finish();
        obs.counter("ssf.model.train_rows", rows.len() as u64);
        if rows.is_empty() {
            return Err(SsfError::Fit(FitError::EmptyDesign));
        }
        let mut x =
            Matrix::from_fn(rows.len(), rows[0].len(), |i, j| rows[i][j]);
        let scaler = model_input(&mut x, None).into_owned();
        let model =
            NeuralMachine::train_observed(&x, &labels, opts.mlp_config(), obs);
        Ok(SsfnmModel {
            extractor: SsfExtractor::new(opts.ssf_config()),
            scaler,
            model,
        })
    }

    /// Scores a candidate pair against a history network, with `present`
    /// the timestamp prediction is made at (usually `max_timestamp + 1`).
    /// Returns the probability that the link emerges.
    ///
    /// # Errors
    ///
    /// [`ExtractError`] when the pair is degenerate (equal endpoints or an
    /// endpoint outside `g`'s id space).
    pub fn try_score<G: GraphView + ?Sized>(
        &self,
        g: &G,
        u: NodeId,
        v: NodeId,
        present: Timestamp,
    ) -> Result<f64, ExtractError> {
        let mut cache = ExtractionCache::borrow(ObsHandle::noop());
        self.try_score_cached(g, u, v, present, &mut cache)
    }

    /// [`SsfnmModel::try_score`] against an [`ExtractionCache`]:
    /// bit-identical scores, with the endpoint balls amortized across the
    /// pairs the cache has seen at `g`'s revision.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsfnmModel::try_score`].
    pub fn try_score_cached<G: GraphView + ?Sized>(
        &self,
        g: &G,
        u: NodeId,
        v: NodeId,
        present: Timestamp,
        cache: &mut ExtractionCache,
    ) -> Result<f64, ExtractError> {
        let f = self
            .extractor
            .try_extract_cached(g, u, v, present, cache)?
            .into_values();
        let mut x = Matrix::from_vec(1, f.len(), f);
        model_input(&mut x, Some(&self.scaler));
        Ok(self.model.score(x.row(0)))
    }

    /// The extractor configuration the model was trained with.
    pub fn config(&self) -> &SsfConfig {
        self.extractor.config()
    }

    /// The same scaler and network behind another extractor
    /// configuration. [`SsfnmModel::load`] refuses a model whose feature
    /// widths disagree; tests build one to drive the scoring fallback.
    #[cfg(test)]
    pub(crate) fn with_config(mut self, cfg: SsfConfig) -> Self {
        self.extractor = SsfExtractor::new(cfg);
        self
    }

    /// Persists the complete predictor — extractor configuration, feature
    /// scaler and network — to one plain-text stream (see
    /// [`ssf_ml::persist`] for the format guarantees).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        let cfg = self.extractor.config();
        writeln!(w, "ssf-model v1")?;
        writeln!(
            w,
            "ssf-config k={} encoding={} max_h={}",
            cfg.k,
            cfg.encoding.as_str(),
            cfg.max_h
        )?;
        persist::write_floats(&mut w, "theta", [cfg.decay.theta()])?;
        self.scaler.write_to(&mut w)?;
        self.model.write_to(&mut w)
    }

    /// Loads a predictor written by [`SsfnmModel::save`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on version/format mismatches, on an extractor
    /// configuration [`SsfConfig`] would refuse, and when the scaler or
    /// the network's first layer is not [`SsfConfig::feature_dim`] wide,
    /// plus reader errors.
    pub fn load<R: BufRead>(mut r: R) -> io::Result<Self> {
        let invalid =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        persist::expect_line(&mut r, "ssf-model v1")?;
        let line = persist::read_line(&mut r)?;
        let mut k: Option<usize> = None;
        let mut encoding = None;
        let mut max_h: Option<u32> = None;
        for field in line.split_whitespace().skip(1) {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| invalid("bad config field"))?;
            match key {
                "k" => k = value.parse().ok(),
                "encoding" => encoding = EntryEncoding::parse(value),
                "max_h" => max_h = value.parse().ok(),
                _ => {}
            }
        }
        let (Some(k), Some(encoding), Some(max_h)) = (k, encoding, max_h)
        else {
            return Err(invalid("incomplete ssf-config line"));
        };
        let theta = persist::read_floats(&mut r, "theta")?;
        let theta = *theta.first().ok_or_else(|| invalid("missing theta"))?;
        // The bounds `SsfConfig` asserts, checked instead of panicking.
        if k < 3 || k.checked_mul(k - 1).is_none() || max_h < 1 {
            return Err(invalid("ssf-config k or max_h out of range"));
        }
        if !(theta > 0.0 && theta.is_finite()) {
            return Err(invalid("theta must be positive and finite"));
        }
        let scaler = StandardScaler::read_from(&mut r)?;
        let model = NeuralMachine::read_from(&mut r)?;
        let cfg = SsfConfig::new(k)
            .with_theta(theta)
            .with_encoding(encoding)
            .with_max_h(max_h);
        let dim = cfg.feature_dim();
        if scaler.dim() != dim || model.input_dim() != dim {
            return Err(invalid("model width disagrees with the feature size"));
        }
        Ok(SsfnmModel {
            extractor: SsfExtractor::new(cfg),
            scaler,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::DynamicNetwork;
    use ssf_eval::SplitConfig;

    fn triadic_network() -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        let mut next = 6u32;
        let mut fans = Vec::new();
        for hub in 0..6u32 {
            for _ in 0..6 {
                g.add_link(hub, next, 1 + (next % 7));
                fans.push((hub, next));
                next += 1;
            }
        }
        for w in fans.chunks(6) {
            g.add_link(w[0].1, w[2].1, 10);
            g.add_link(w[1].1, w[3].1, 10);
        }
        g
    }

    #[test]
    fn fit_and_score_round_trip() {
        let g = triadic_network();
        let split = Split::new(&g, &SplitConfig::default()).unwrap();
        let opts = MethodOptions {
            nm_epochs: 40,
            ..MethodOptions::default()
        };
        let model = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let present = split.history.max_timestamp().unwrap() + 1;
        // Scores are probabilities.
        for s in &split.test {
            let p = model.try_score(&split.history, s.u, s.v, present).unwrap();
            assert!((0.0..=1.0).contains(&p));
        }
        assert_eq!(model.config().k, opts.k);
    }

    #[test]
    fn save_load_round_trips_scores() {
        let g = triadic_network();
        let split = Split::new(&g, &SplitConfig::default()).unwrap();
        let opts = MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        };
        let model = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let loaded = SsfnmModel::load(buf.as_slice()).unwrap();
        let present = split.history.max_timestamp().unwrap() + 1;
        for s in split.test.iter().take(5) {
            assert_eq!(
                model.try_score(&split.history, s.u, s.v, present).ok(),
                loaded.try_score(&split.history, s.u, s.v, present).ok(),
            );
        }
        assert_eq!(loaded.config().k, opts.k);
        // Corruption is rejected, not mis-loaded.
        assert!(SsfnmModel::load(&b"garbage\n"[..]).is_err());
    }

    #[test]
    fn load_refuses_configs_and_widths_that_disagree() {
        let g = triadic_network();
        let split = Split::new(&g, &SplitConfig::default()).unwrap();
        let opts = MethodOptions {
            nm_epochs: 2,
            ..MethodOptions::default()
        };
        let model = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Layout: magic, ssf-config, theta, scaler magic, mean, std, network.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("ssf-config k=10 "), "{}", lines[1]);
        let k9 = lines[1].replace("k=10", "k=9");
        let k2 = lines[1].replace("k=10", "k=2");
        let h0 = lines[1].replace("max_h=10", "max_h=0");
        assert_ne!(h0, lines[1]);
        let truncate = |line: &str| {
            // K = 9 features are 35 wide, K = 10 ones 44.
            line.split(' ').take(1 + 35).collect::<Vec<_>>().join(" ")
        };
        let (mean35, std35) = (truncate(lines[4]), truncate(lines[5]));
        let cases: [&[(usize, &str)]; 5] = [
            // Scaler and network both 44 wide for a 35-wide feature.
            &[(1, &k9)],
            // Scaler fixed up; the network's first layer still 44 wide.
            &[(1, &k9), (4, &mean35), (5, &std35)],
            // Configs `SsfConfig` would refuse with a panic.
            &[(1, &k2)],
            &[(1, &h0)],
            &[(2, "theta 0000000000000000")],
        ];
        for edits in cases {
            let mut edited = lines.clone();
            for &(line, with) in edits {
                edited[line] = with;
            }
            let bytes = edited.join("\n") + "\n";
            let err = SsfnmModel::load(bytes.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{edits:?}");
        }
    }

    #[test]
    fn try_score_reports_degenerate_pairs() {
        let g = triadic_network();
        let split = Split::new(&g, &SplitConfig::default()).unwrap();
        let opts = MethodOptions {
            nm_epochs: 10,
            ..MethodOptions::default()
        };
        let model = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let present = split.history.max_timestamp().unwrap() + 1;
        assert!(model.try_score(&split.history, 2, 2, present).is_err());
        let far = split.history.node_count() as u32 + 10;
        assert!(model.try_score(&split.history, 0, far, present).is_err());
        let s = &split.test[0];
        let p = model.try_score(&split.history, s.u, s.v, present).unwrap();
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn deterministic_fit() {
        let g = triadic_network();
        let split = Split::new(&g, &SplitConfig::default()).unwrap();
        let opts = MethodOptions {
            nm_epochs: 10,
            ..MethodOptions::default()
        };
        let a = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let b = SsfnmModel::try_fit(&split, &[], &opts).unwrap();
        let present = split.history.max_timestamp().unwrap() + 1;
        let s = &split.test[0];
        assert_eq!(
            a.try_score(&split.history, s.u, s.v, present).ok(),
            b.try_score(&split.history, s.u, s.v, present).ok()
        );
    }
}
