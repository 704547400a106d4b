//! The "neural machine": a fully-connected classification network
//! implemented from scratch (§VI-C2 of the paper).
//!
//! Architecture: `input → 32 → 32 → 16 → softmax(2)`, ReLU activations,
//! cross-entropy loss, minibatch training (batch size 10, learning rate
//! 0.001 in the paper). [`Optimizer::Adam`] is the default — plain SGD at
//! lr 0.001 needs the paper's 2000 epochs to converge, Adam reaches the
//! same plateau in a fraction; both are available.

use std::io::{self, BufRead, Write};

use linalg::{vector, Matrix};
use obs::ObsHandle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::persist;

/// Gradient-descent flavor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain minibatch stochastic gradient descent.
    Sgd,
    /// Adam with the customary defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e−8).
    Adam,
}

/// Hyperparameters of the neural machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths; the paper uses `[32, 32, 16]`.
    pub hidden: Vec<usize>,
    /// Number of output classes (softmax width); 2 for link prediction.
    pub classes: usize,
    /// Learning rate (paper: 0.001).
    pub learning_rate: f64,
    /// Training epochs (paper: 2000; Adam typically saturates much
    /// earlier).
    pub epochs: u32,
    /// Minibatch size (paper: 10).
    pub batch_size: usize,
    /// Optimizer flavor.
    pub optimizer: Optimizer,
    /// Decoupled L2 weight decay (AdamW-style; also applied under SGD).
    /// The link-prediction training sets are small (a few hundred samples
    /// against ~44 features), so some regularization is load-bearing.
    pub weight_decay: f64,
    /// Early stopping: hold out this fraction of the training rows as a
    /// validation set and stop when its cross-entropy has not improved
    /// for [`MlpConfig::patience`] epochs, restoring the best weights.
    /// 0.0 disables early stopping (the paper trains a fixed epoch count).
    pub validation_fraction: f64,
    /// Early-stopping patience in epochs (only with a validation split).
    pub patience: u32,
    /// RNG seed for weight init and batch shuffling.
    pub seed: u64,
}

impl Default for MlpConfig {
    /// The paper's architecture with Adam and a practical epoch budget.
    fn default() -> Self {
        MlpConfig {
            hidden: vec![32, 32, 16],
            classes: 2,
            learning_rate: 0.001,
            epochs: 200,
            batch_size: 10,
            optimizer: Optimizer::Adam,
            weight_decay: 1e-3,
            validation_fraction: 0.0,
            patience: 20,
            seed: 17,
        }
    }
}

/// One dense layer plus its Adam moment buffers.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    w: Matrix, // in × out
    b: Vec<f64>,
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU layers.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = Matrix::from_fn(inputs, outputs, |_, _| {
            rng.gen_range(-1.0..1.0) * scale
        });
        Dense {
            mw: Matrix::zeros(inputs, outputs),
            vw: Matrix::zeros(inputs, outputs),
            mb: vec![0.0; outputs],
            vb: vec![0.0; outputs],
            b: vec![0.0; outputs],
            w,
        }
    }

    /// `x (B×in) → x·W + b (B×out)`.
    fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        for i in 0..z.rows() {
            vector::axpy(1.0, &self.b, z.row_mut(i));
        }
        z
    }
}

/// A trained neural machine.
///
/// # Example
///
/// ```rust
/// use linalg::Matrix;
/// use ssf_ml::{MlpConfig, NeuralMachine};
///
/// // XOR-ish toy data.
/// let x = Matrix::from_rows(&[
///     &[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0],
/// ]);
/// let y = [0, 1, 1, 0];
/// let cfg = MlpConfig { hidden: vec![8, 8], epochs: 800, ..MlpConfig::default() };
/// let nm = NeuralMachine::train(&x, &y, cfg);
/// assert!(nm.score(&[0.0, 1.0]) > 0.5);
/// assert!(nm.score(&[1.0, 1.0]) < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NeuralMachine {
    layers: Vec<Dense>,
    config: MlpConfig,
}

impl NeuralMachine {
    /// Trains on feature rows `x` with class labels `y` (`y[i] <
    /// config.classes`).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, lengths mismatch, a label is out of range,
    /// or `config` has a zero batch size / learning rate.
    pub fn train(x: &Matrix, y: &[usize], config: MlpConfig) -> Self {
        Self::train_observed(x, y, config, &ObsHandle::noop())
    }

    /// [`NeuralMachine::train`] with telemetry: wraps the run in an
    /// `ssf.ml.fit` span, times each epoch into `ssf.ml.fit_epoch`, counts
    /// `ssf.ml.epochs`, and publishes the latest validation loss as the
    /// `ssf.ml.val_loss` gauge. Training math is identical — the recorder
    /// only watches.
    ///
    /// # Panics
    ///
    /// Same conditions as [`NeuralMachine::train`].
    pub fn train_observed(
        x: &Matrix,
        y: &[usize],
        config: MlpConfig,
        obs: &ObsHandle,
    ) -> Self {
        let _fit_span = obs.span("ssf.ml.fit");
        assert!(
            x.rows() > 0 && x.cols() > 0,
            "training set must be non-empty"
        );
        assert_eq!(y.len(), x.rows(), "label length must match sample count");
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(config.learning_rate > 0.0, "learning rate must be positive");
        assert!(config.classes >= 2, "need at least two classes");
        assert!(
            y.iter().all(|&c| c < config.classes),
            "labels must be < classes"
        );

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dims = vec![x.cols()];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.classes);
        let layers = dims
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], &mut rng))
            .collect();
        let mut nm = NeuralMachine { layers, config };

        let n = x.rows();
        let mut index: Vec<usize> = (0..n).collect();
        index.shuffle(&mut rng);
        // Optional validation holdout for early stopping.
        let vf = nm.config.validation_fraction;
        assert!(
            (0.0..0.9).contains(&vf),
            "validation_fraction must be in [0, 0.9)"
        );
        let val_len = if vf > 0.0 {
            ((n as f64 * vf) as usize).clamp(1, n.saturating_sub(2))
        } else {
            0
        };
        let (val_idx, train_idx) = index.split_at(val_len);
        let val_idx = val_idx.to_vec();
        let mut index: Vec<usize> = train_idx.to_vec();

        let mut step = 0u64;
        let mut best: Option<(f64, Vec<Dense>)> = None;
        let mut since_best = 0u32;
        for _ in 0..nm.config.epochs {
            let epoch_span = obs.span("ssf.ml.fit_epoch");
            obs.counter("ssf.ml.epochs", 1);
            index.shuffle(&mut rng);
            for batch in index.chunks(nm.config.batch_size) {
                step += 1;
                nm.train_batch(x, y, batch, step);
            }
            if val_len > 0 {
                let loss = nm.subset_cross_entropy(x, y, &val_idx);
                obs.gauge("ssf.ml.val_loss", loss);
                if best.as_ref().is_none_or(|(b, _)| loss < *b) {
                    best = Some((loss, nm.layers.clone()));
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= nm.config.patience {
                        epoch_span.finish();
                        break;
                    }
                }
            }
            epoch_span.finish();
        }
        if let Some((_, layers)) = best {
            nm.layers = layers;
        }
        nm
    }

    /// Persists the trained network (architecture + weights) to a plain
    /// text stream. Training hyperparameters and optimizer state are not
    /// persisted — a loaded model is for inference.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "ssf-nm v1")?;
        persist::write_usizes(
            &mut w,
            "hidden",
            self.config.hidden.iter().copied(),
        )?;
        persist::write_usizes(&mut w, "classes", [self.config.classes])?;
        persist::write_usizes(&mut w, "layers", [self.layers.len()])?;
        for layer in &self.layers {
            persist::write_usizes(
                &mut w,
                "dims",
                [layer.w.rows(), layer.w.cols()],
            )?;
            persist::write_floats(
                &mut w,
                "w",
                layer.w.as_slice().iter().copied(),
            )?;
            persist::write_floats(&mut w, "b", layer.b.iter().copied())?;
        }
        Ok(())
    }

    /// Loads a network written by [`NeuralMachine::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on version/shape mismatches, plus reader I/O errors.
    pub fn read_from<R: BufRead>(mut r: R) -> io::Result<Self> {
        persist::expect_line(&mut r, "ssf-nm v1")?;
        let hidden = persist::read_usizes(&mut r, "hidden")?;
        let classes = persist::read_usizes(&mut r, "classes")?;
        let nlayers = persist::read_usizes(&mut r, "layers")?;
        let (Some(&classes), Some(&nlayers)) =
            (classes.first(), nlayers.first())
        else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "missing classes/layers counts",
            ));
        };
        let mut layers = Vec::with_capacity(nlayers);
        for _ in 0..nlayers {
            let dims = persist::read_usizes(&mut r, "dims")?;
            let (Some(&rows), Some(&cols)) = (dims.first(), dims.get(1)) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad layer dims",
                ));
            };
            let w = persist::read_floats(&mut r, "w")?;
            let b = persist::read_floats(&mut r, "b")?;
            if w.len() != rows * cols || b.len() != cols {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "layer shape mismatch",
                ));
            }
            layers.push(Dense {
                mw: Matrix::zeros(rows, cols),
                vw: Matrix::zeros(rows, cols),
                mb: vec![0.0; cols],
                vb: vec![0.0; cols],
                w: Matrix::from_vec(rows, cols, w),
                b,
            });
        }
        Ok(NeuralMachine {
            layers,
            config: MlpConfig {
                hidden,
                classes,
                ..MlpConfig::default()
            },
        })
    }

    /// Mean cross-entropy over an index subset (validation loss).
    fn subset_cross_entropy(
        &self,
        x: &Matrix,
        y: &[usize],
        idx: &[usize],
    ) -> f64 {
        let mut loss = 0.0;
        for &i in idx {
            let p = self.predict_proba(x.row(i));
            loss -= p[y[i]].max(1e-15).ln();
        }
        loss / idx.len() as f64
    }

    /// Class-probability vector for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let xm = Matrix::from_vec(1, x.len(), x.to_vec());
        let (activations, _) = self.forward(&xm);
        #[allow(clippy::expect_used)] // structural invariant: ≥1 layer
        let logits = activations.last().expect("network has layers");
        vector::softmax(logits.row(0))
    }

    /// Probability of class 1 — the link score.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn score(&self, x: &[f64]) -> f64 {
        self.predict_proba(x)[1]
    }

    /// Predicted class (argmax of the probabilities).
    pub fn classify(&self, x: &[f64]) -> usize {
        #[allow(clippy::expect_used)] // classes ≥ 2, so never empty
        vector::argmax(&self.predict_proba(x)).expect("non-empty probabilities")
    }

    /// Mean cross-entropy on a labeled set (diagnostic).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn cross_entropy(&self, x: &Matrix, y: &[usize]) -> f64 {
        assert_eq!(y.len(), x.rows(), "label length must match sample count");
        let mut loss = 0.0;
        for i in 0..x.rows() {
            let p = self.predict_proba(x.row(i));
            loss -= (p[y[i]].max(1e-15)).ln();
        }
        loss / x.rows() as f64
    }

    /// Forward pass over a batch; returns per-layer pre-softmax activations
    /// `[A1 … AL]` (post-ReLU for hidden layers, raw logits for the last)
    /// and the pre-activation values `[Z1 … ZL]`.
    fn forward(&self, x: &Matrix) -> (Vec<Matrix>, Vec<Matrix>) {
        let mut activations = Vec::with_capacity(self.layers.len());
        let mut zs = Vec::with_capacity(self.layers.len());
        let mut a = x.clone();
        for (li, layer) in self.layers.iter().enumerate() {
            let z = layer.forward(&a);
            let is_last = li + 1 == self.layers.len();
            a = if is_last {
                z.clone()
            } else {
                z.map(|v| v.max(0.0))
            };
            zs.push(z);
            activations.push(a.clone());
        }
        (activations, zs)
    }

    fn train_batch(
        &mut self,
        x: &Matrix,
        y: &[usize],
        batch: &[usize],
        step: u64,
    ) {
        let bsz = batch.len();
        let xb = Matrix::from_fn(bsz, x.cols(), |i, j| x[(batch[i], j)]);
        let (activations, zs) = self.forward(&xb);

        // Softmax + cross-entropy gradient at the logits: (P − Y)/B.
        #[allow(clippy::expect_used)] // structural invariant: ≥1 layer
        let logits = activations.last().expect("network has layers");
        let mut delta = Matrix::zeros(bsz, self.config.classes);
        for i in 0..bsz {
            let p = vector::softmax(logits.row(i));
            for c in 0..self.config.classes {
                let t = if y[batch[i]] == c { 1.0 } else { 0.0 };
                delta[(i, c)] = (p[c] - t) / bsz as f64;
            }
        }

        // Backward through the layers.
        for li in (0..self.layers.len()).rev() {
            let a_prev = if li == 0 { &xb } else { &activations[li - 1] };
            let grad_w = a_prev.t_matmul(&delta);
            let grad_b: Vec<f64> = (0..delta.cols())
                .map(|c| (0..delta.rows()).map(|r| delta[(r, c)]).sum())
                .collect();
            if li > 0 {
                // δ_{l-1} = (δ_l · W_lᵀ) ∘ ReLU'(Z_{l-1})
                let mut prev = delta.matmul_t(&self.layers[li].w);
                let z_prev = &zs[li - 1];
                for i in 0..prev.rows() {
                    for j in 0..prev.cols() {
                        if z_prev[(i, j)] <= 0.0 {
                            prev[(i, j)] = 0.0;
                        }
                    }
                }
                self.apply_update(li, &grad_w, &grad_b, step);
                delta = prev;
            } else {
                self.apply_update(li, &grad_w, &grad_b, step);
            }
        }
    }

    fn apply_update(
        &mut self,
        li: usize,
        grad_w: &Matrix,
        grad_b: &[f64],
        step: u64,
    ) {
        let lr = self.config.learning_rate;
        let layer = &mut self.layers[li];
        // Decoupled weight decay on the weights (never the biases), fused
        // into the update loop: each weight is shrunk, then stepped, in
        // the same per-element order as two separate passes. A shrink of
        // exactly 1.0 (no decay) is an identity multiply.
        let shrink = if self.config.weight_decay > 0.0 {
            1.0 - lr * self.config.weight_decay
        } else {
            1.0
        };
        match self.config.optimizer {
            Optimizer::Sgd => {
                for (w, g) in
                    layer.w.as_mut_slice().iter_mut().zip(grad_w.as_slice())
                {
                    *w = *w * shrink - lr * g;
                }
                for (b, g) in layer.b.iter_mut().zip(grad_b) {
                    *b -= lr * g;
                }
            }
            Optimizer::Adam => {
                const B1: f64 = 0.9;
                const B2: f64 = 0.999;
                const EPS: f64 = 1e-8;
                let t = step as f64;
                let corr1 = 1.0 - B1.powf(t);
                let corr2 = 1.0 - B2.powf(t);
                // Plain slices re-sliced to one length, so the bounds
                // checks hoist out of the loop.
                let adam = |p: &mut [f64],
                            m: &mut [f64],
                            v: &mut [f64],
                            g: &[f64],
                            shrink: f64| {
                    let n = p.len();
                    let (m, v, g) = (&mut m[..n], &mut v[..n], &g[..n]);
                    for i in 0..n {
                        m[i] = B1 * m[i] + (1.0 - B1) * g[i];
                        v[i] = B2 * v[i] + (1.0 - B2) * g[i] * g[i];
                        let mhat = m[i] / corr1;
                        let vhat = v[i] / corr2;
                        p[i] = p[i] * shrink - lr * mhat / (vhat.sqrt() + EPS);
                    }
                };
                adam(
                    layer.w.as_mut_slice(),
                    layer.mw.as_mut_slice(),
                    layer.vw.as_mut_slice(),
                    grad_w.as_slice(),
                    shrink,
                );
                adam(&mut layer.b, &mut layer.mb, &mut layer.vb, grad_b, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize) -> (Matrix, Vec<usize>) {
        // Two well-separated Gaussian-ish blobs on a deterministic lattice.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let jitter = (i % 7) as f64 * 0.05;
            rows.push(vec![1.0 + jitter, 1.0 - jitter]);
            y.push(1usize);
            rows.push(vec![-1.0 - jitter, -1.0 + jitter]);
            y.push(0usize);
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        (Matrix::from_rows(&refs), y)
    }

    fn quick_cfg() -> MlpConfig {
        MlpConfig {
            hidden: vec![8, 8],
            epochs: 60,
            learning_rate: 0.01,
            ..MlpConfig::default()
        }
    }

    #[test]
    fn learns_linearly_separable_blobs() {
        let (x, y) = blobs(30);
        let nm = NeuralMachine::train(&x, &y, quick_cfg());
        assert_eq!(nm.classify(&[1.2, 0.9]), 1);
        assert_eq!(nm.classify(&[-1.1, -0.8]), 0);
        assert!(nm.score(&[1.2, 0.9]) > 0.9);
    }

    #[test]
    fn probabilities_normalized() {
        let (x, y) = blobs(10);
        let nm = NeuralMachine::train(&x, &y, quick_cfg());
        let p = nm.predict_proba(&[0.3, -0.2]);
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_reduces_cross_entropy() {
        let (x, y) = blobs(20);
        let short = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                epochs: 1,
                ..quick_cfg()
            },
        );
        let long = NeuralMachine::train(&x, &y, quick_cfg());
        assert!(long.cross_entropy(&x, &y) < short.cross_entropy(&x, &y));
    }

    #[test]
    fn sgd_also_learns() {
        let (x, y) = blobs(30);
        let nm = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                optimizer: Optimizer::Sgd,
                epochs: 300,
                learning_rate: 0.05,
                ..quick_cfg()
            },
        );
        assert_eq!(nm.classify(&[1.0, 1.0]), 1);
        assert_eq!(nm.classify(&[-1.0, -1.0]), 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, y) = blobs(10);
        let a = NeuralMachine::train(&x, &y, quick_cfg());
        let b = NeuralMachine::train(&x, &y, quick_cfg());
        assert_eq!(a.score(&[0.5, 0.5]), b.score(&[0.5, 0.5]));
    }

    #[test]
    fn learns_xor_nonlinearity() {
        let x = Matrix::from_rows(&[
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[1.0, 1.0],
        ]);
        let y = [0, 1, 1, 0];
        let nm = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                hidden: vec![8, 8],
                epochs: 1500,
                learning_rate: 0.01,
                batch_size: 4,
                ..MlpConfig::default()
            },
        );
        assert_eq!(nm.classify(&[0.0, 0.0]), 0);
        assert_eq!(nm.classify(&[0.0, 1.0]), 1);
        assert_eq!(nm.classify(&[1.0, 0.0]), 1);
        assert_eq!(nm.classify(&[1.0, 1.0]), 0);
    }

    #[test]
    fn early_stopping_halts_and_keeps_best_weights() {
        let (x, y) = blobs(40);
        let es = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                epochs: 500,
                validation_fraction: 0.2,
                patience: 5,
                ..quick_cfg()
            },
        );
        // Still a working classifier…
        assert_eq!(es.classify(&[1.1, 0.9]), 1);
        assert_eq!(es.classify(&[-1.0, -1.1]), 0);
        // …and deterministic like everything else.
        let es2 = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                epochs: 500,
                validation_fraction: 0.2,
                patience: 5,
                ..quick_cfg()
            },
        );
        assert_eq!(es.score(&[0.3, 0.3]), es2.score(&[0.3, 0.3]));
    }

    #[test]
    fn persistence_round_trips_predictions() {
        let (x, y) = blobs(20);
        let nm = NeuralMachine::train(&x, &y, quick_cfg());
        let mut buf = Vec::new();
        nm.write_to(&mut buf).unwrap();
        let loaded = NeuralMachine::read_from(buf.as_slice()).unwrap();
        for probe in [[0.5, -0.3], [1.2, 0.9], [-1.0, -0.8]] {
            assert_eq!(nm.predict_proba(&probe), loaded.predict_proba(&probe));
        }
    }

    #[test]
    fn corrupted_model_rejected() {
        let (x, y) = blobs(5);
        let nm = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                epochs: 1,
                ..quick_cfg()
            },
        );
        let mut buf = Vec::new();
        nm.write_to(&mut buf).unwrap();
        // Truncate mid-file.
        buf.truncate(buf.len() / 2);
        assert!(NeuralMachine::read_from(buf.as_slice()).is_err());
        assert!(NeuralMachine::read_from(&b"not a model\n"[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "validation_fraction")]
    fn validation_fraction_validated() {
        let (x, y) = blobs(5);
        let _ = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                validation_fraction: 0.95,
                ..quick_cfg()
            },
        );
    }

    #[test]
    #[should_panic(expected = "labels must be")]
    fn label_range_checked() {
        let x = Matrix::from_rows(&[&[1.0]]);
        let _ = NeuralMachine::train(&x, &[5], MlpConfig::default());
    }
}
