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

/// One dense layer: all a served model keeps of it. Optimizer state lives
/// in the training [`Workspace`] and is dropped with it.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    w: Matrix, // in × out
    b: Vec<f64>,
}

impl Dense {
    fn new(inputs: usize, outputs: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU layers.
        let scale = (2.0 / inputs as f64).sqrt();
        let w = Matrix::from_fn(inputs, outputs, |_, _| {
            rng.gen_range(-1.0..1.0) * scale
        });
        Dense {
            b: vec![0.0; outputs],
            w,
        }
    }

    fn width(&self) -> usize {
        self.b.len()
    }

    /// `z = x·W + b` for one row, in `Matrix::matmul`'s order: `z` starts
    /// at +0.0, zero inputs are skipped, rows of `W` are accumulated in
    /// input order, and the bias is added after the sum. With `relu`,
    /// the bias pass also writes `max(z, 0)` there.
    fn affine(&self, x: &[f64], z: &mut [f64], relu: Option<&mut [f64]>) {
        z.fill(0.0);
        for (&a, wrow) in x.iter().zip(self.w.as_slice().chunks_exact(z.len()))
        {
            if a == 0.0 {
                continue;
            }
            for (o, &r) in z.iter_mut().zip(wrow) {
                *o += a * r;
            }
        }
        match relu {
            Some(act) => {
                for ((o, a), &b) in z.iter_mut().zip(act).zip(&self.b) {
                    *o += b;
                    *a = o.max(0.0);
                }
            }
            None => {
                for (o, &b) in z.iter_mut().zip(&self.b) {
                    *o += b;
                }
            }
        }
    }
}

/// Length of one [`forward_row`] buffer: a `Z` and an `A` block per hidden
/// layer, then the logits.
fn row_len(layers: &[Dense]) -> usize {
    layers.iter().map(|l| 2 * l.width()).sum::<usize>()
        - layers.last().map_or(0, Dense::width)
}

/// Runs one input row through every layer into `row`, laid out as
/// `[Z₁ A₁ Z₂ A₂ … Z_L]`: each hidden layer's pre-activation and its ReLU,
/// then the raw logits last. Each layer reads the block just before its
/// own.
fn forward_row(layers: &[Dense], x: &[f64], row: &mut [f64]) {
    let mut start = 0; // where this layer's Z block begins
    let mut input_at = None; // where the previous A block begins
    for (li, layer) in layers.iter().enumerate() {
        let (done, rest) = row.split_at_mut(start);
        let input = input_at.map_or(x, |at| &done[at..]);
        let width = layer.width();
        let (z, rest) = rest.split_at_mut(width);
        if li + 1 == layers.len() {
            layer.affine(input, z, None);
        } else {
            layer.affine(input, z, Some(&mut rest[..width]));
            input_at = Some(start + width);
            start += 2 * width;
        }
    }
}

/// Adam's first and second moments for one layer.
struct Moments {
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

/// Every buffer one `train` call needs, allocated once up front: a
/// [`forward_row`] row per batch slot, the δ rows of the current and
/// previous layer, one layer's gradients, and the optimizer moments.
struct Workspace {
    rows: Vec<f64>,
    stride: usize,
    /// Start of each layer's `Z` block within a row (`A` follows it).
    z_at: Vec<usize>,
    delta: Vec<f64>,
    prev: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
    moments: Vec<Moments>,
}

impl Workspace {
    fn new(layers: &[Dense], batch: usize) -> Self {
        let stride = row_len(layers);
        let z_at = layers
            .iter()
            .scan(0, |at, l| {
                let here = *at;
                *at += 2 * l.width();
                Some(here)
            })
            .collect();
        // δ rows span one layer's outputs; the previous layer's δ spans
        // its inputs, which are the outputs of the layer before.
        let width = layers.iter().map(Dense::width).max().unwrap_or(0);
        let weights = layers.iter().map(|l| l.w.as_slice().len()).max();
        let moments = layers
            .iter()
            .map(|l| Moments {
                mw: vec![0.0; l.w.as_slice().len()],
                vw: vec![0.0; l.w.as_slice().len()],
                mb: vec![0.0; l.width()],
                vb: vec![0.0; l.width()],
            })
            .collect();
        Workspace {
            rows: vec![0.0; batch * stride],
            stride,
            z_at,
            delta: vec![0.0; batch * width],
            prev: vec![0.0; batch * width],
            grad_w: vec![0.0; weights.unwrap_or(0)],
            grad_b: vec![0.0; width],
            moments,
        }
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
    /// or `config` has a zero batch size / learning rate / hidden width.
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
            config.hidden.iter().all(|&h| h > 0),
            "hidden widths must be positive"
        );
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
        // Fewer than three rows cannot spare a holdout and still train:
        // such sets train on every row, as with no early stopping.
        let val_len = if vf > 0.0 && n >= 3 {
            ((n as f64 * vf) as usize).clamp(1, n - 2)
        } else {
            0
        };
        let (val_idx, train_idx) = index.split_at(val_len);
        let val_idx = val_idx.to_vec();
        let mut index: Vec<usize> = train_idx.to_vec();

        let mut ws = Workspace::new(&nm.layers, nm.config.batch_size.min(n));
        let mut step = 0u64;
        let mut best: Option<(f64, Vec<Dense>)> = None;
        let mut since_best = 0u32;
        for _ in 0..nm.config.epochs {
            let epoch_span = obs.span("ssf.ml.fit_epoch");
            obs.counter("ssf.ml.epochs", 1);
            index.shuffle(&mut rng);
            for batch in index.chunks(nm.config.batch_size) {
                step += 1;
                nm.train_batch(&mut ws, x, y, batch, step);
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
    /// The shapes must describe a network that can run: at least two
    /// classes, one layer per `hidden` width plus the output layer, each
    /// layer's input width equal to the previous layer's output width,
    /// and the output width equal to `classes`.
    pub fn read_from<R: BufRead>(mut r: R) -> io::Result<Self> {
        let invalid =
            |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        persist::expect_line(&mut r, "ssf-nm v1")?;
        let hidden = persist::read_usizes(&mut r, "hidden")?;
        let classes = persist::read_usizes(&mut r, "classes")?;
        let nlayers = persist::read_usizes(&mut r, "layers")?;
        let (Some(&classes), Some(&nlayers)) =
            (classes.first(), nlayers.first())
        else {
            return Err(invalid("missing classes/layers counts"));
        };
        if classes < 2 {
            return Err(invalid("need at least two classes"));
        }
        if nlayers != hidden.len() + 1 {
            return Err(invalid("layer count disagrees with hidden widths"));
        }
        let mut layers: Vec<Dense> = Vec::with_capacity(nlayers);
        for li in 0..nlayers {
            let dims = persist::read_usizes(&mut r, "dims")?;
            let (Some(&rows), Some(&cols)) = (dims.first(), dims.get(1)) else {
                return Err(invalid("bad layer dims"));
            };
            let want_cols = hidden.get(li).copied().unwrap_or(classes);
            let chained = layers.last().is_none_or(|p| p.width() == rows);
            if rows == 0 || cols != want_cols || !chained {
                return Err(invalid("layer dims do not chain"));
            }
            let w = persist::read_floats(&mut r, "w")?;
            let b = persist::read_floats(&mut r, "b")?;
            if Some(w.len()) != rows.checked_mul(cols) || b.len() != cols {
                return Err(invalid("layer shape mismatch"));
            }
            layers.push(Dense {
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
        assert_eq!(x.len(), self.input_dim(), "feature dimension mismatch");
        let mut row = vec![0.0; row_len(&self.layers)];
        forward_row(&self.layers, x, &mut row);
        vector::softmax(&row[row.len() - self.config.classes..])
    }

    /// Width of the feature rows the network takes.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
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

    /// One minibatch step: the forward rows of `batch`, the softmax +
    /// cross-entropy gradient `(P − Y)/B` at the logits, then backward
    /// through the layers, updating each after its δ has been passed on.
    /// Every sum runs in the order of the `Matrix` product it stands for
    /// (`matmul`, `t_matmul`, `matmul_t`), so the weights match that
    /// formulation bit for bit (`tests/golden.rs`).
    fn train_batch(
        &mut self,
        ws: &mut Workspace,
        x: &Matrix,
        y: &[usize],
        batch: &[usize],
        step: u64,
    ) {
        let bsz = batch.len();
        let stride = ws.stride;
        let classes = self.config.classes;
        for (row, &r) in ws.rows.chunks_exact_mut(stride).zip(batch) {
            forward_row(&self.layers, x.row(r), row);
        }

        // `vector::softmax`'s arithmetic, written straight into δ.
        for ((d, row), &r) in ws
            .delta
            .chunks_exact_mut(classes)
            .zip(ws.rows.chunks_exact(stride))
            .zip(batch)
        {
            let logits = &row[stride - classes..];
            let max = logits.iter().copied().reduce(f64::max).unwrap_or(0.0);
            for (e, &v) in d.iter_mut().zip(logits) {
                *e = (v - max).exp();
            }
            let sum: f64 = d.iter().sum();
            for (c, e) in d.iter_mut().enumerate() {
                let t = if y[r] == c { 1.0 } else { 0.0 };
                *e = (*e / sum - t) / bsz as f64;
            }
        }

        for li in (0..self.layers.len()).rev() {
            let (inputs, width) =
                (self.layers[li].w.rows(), self.layers[li].width());
            let delta = &ws.delta[..bsz * width];
            // grad_W = A_{l-1}ᵀ · δ
            let grad_w = &mut ws.grad_w[..inputs * width];
            grad_w.fill(0.0);
            for (slot, d) in delta.chunks_exact(width).enumerate() {
                let a_prev = if li == 0 {
                    x.row(batch[slot])
                } else {
                    let at = slot * stride + ws.z_at[li - 1] + inputs;
                    &ws.rows[at..at + inputs]
                };
                for (&l, grow) in
                    a_prev.iter().zip(grad_w.chunks_exact_mut(width))
                {
                    if l == 0.0 {
                        continue;
                    }
                    for (g, &dv) in grow.iter_mut().zip(d) {
                        *g += l * dv;
                    }
                }
            }
            let grad_b = &mut ws.grad_b[..width];
            for (c, g) in grad_b.iter_mut().enumerate() {
                *g = (0..bsz).map(|r| delta[r * width + c]).sum();
            }
            if li > 0 {
                // δ_{l-1} = (δ_l · W_lᵀ) ∘ ReLU'(Z_{l-1})
                let w = self.layers[li].w.as_slice();
                for (slot, (p, d)) in ws
                    .prev
                    .chunks_exact_mut(inputs)
                    .zip(delta.chunks_exact(width))
                    .enumerate()
                {
                    let at = slot * stride + ws.z_at[li - 1];
                    let z_prev = &ws.rows[at..at + inputs];
                    for ((p, &z), wrow) in
                        p.iter_mut().zip(z_prev).zip(w.chunks_exact(width))
                    {
                        *p = if z <= 0.0 { 0.0 } else { vector::dot(d, wrow) };
                    }
                }
            }
            self.apply_update(
                li,
                &mut ws.moments[li],
                &ws.grad_w[..inputs * width],
                &ws.grad_b[..width],
                step,
            );
            std::mem::swap(&mut ws.delta, &mut ws.prev);
        }
    }

    fn apply_update(
        &mut self,
        li: usize,
        moments: &mut Moments,
        grad_w: &[f64],
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
                for (w, g) in layer.w.as_mut_slice().iter_mut().zip(grad_w) {
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
                    &mut moments.mw,
                    &mut moments.vw,
                    grad_w,
                    shrink,
                );
                adam(
                    &mut layer.b,
                    &mut moments.mb,
                    &mut moments.vb,
                    grad_b,
                    1.0,
                );
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

    fn serialized(nm: &NeuralMachine) -> String {
        let mut buf = Vec::new();
        nm.write_to(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn tiny_sets_train_without_a_holdout() {
        for n in 1..=2 {
            let x = Matrix::from_fn(n, 2, |i, j| (i + j) as f64 - 0.5);
            let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
            let plain = NeuralMachine::train(&x, &y, quick_cfg());
            let es = NeuralMachine::train(
                &x,
                &y,
                MlpConfig {
                    validation_fraction: 0.5,
                    patience: 1,
                    ..quick_cfg()
                },
            );
            assert_eq!(serialized(&es), serialized(&plain), "{n} rows");
        }
    }

    /// Rewrites lines of a serialized model.
    fn edited(nm: &NeuralMachine, edits: &[(usize, &str)]) -> Vec<u8> {
        let text = serialized(nm);
        let mut lines: Vec<&str> = text.lines().collect();
        for &(line, with) in edits {
            lines[line] = with;
        }
        (lines.join("\n") + "\n").into_bytes()
    }

    #[test]
    fn shape_inconsistent_models_rejected() {
        let (x, y) = blobs(5);
        let nm = NeuralMachine::train(
            &x,
            &y,
            MlpConfig {
                epochs: 1,
                ..quick_cfg()
            },
        );
        // Layout: magic, hidden, classes, layers, then dims/w/b per layer.
        let text = serialized(&nm);
        assert_eq!(text.lines().nth(1), Some("hidden 8 8"));
        let out = 4 + 3 * 2;
        let zeros = |n: usize| {
            std::iter::once("w")
                .chain(std::iter::repeat_n("0000000000000000", n))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let (w8, w56) = (zeros(8), zeros(56));
        let cases: [&[(usize, &str)]; 6] = [
            // A self-consistent output layer one class wide.
            &[
                (out, "dims 8 1"),
                (out + 1, &w8),
                (out + 2, "b 0000000000000000"),
            ],
            // Second layer's inputs disagree with the first's outputs.
            &[(4 + 3, "dims 7 8"), (4 + 4, &w56)],
            // `hidden` disagrees with the layers.
            &[(1, "hidden 8 9")],
            &[(1, "hidden 8")],
            &[(2, "classes 1")],
            &[(3, "layers 2")],
        ];
        for edits in cases {
            let bytes = edited(&nm, edits);
            let err = NeuralMachine::read_from(bytes.as_slice())
                .expect_err(edits[0].1);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{edits:?}");
        }
        // The untouched file still loads.
        assert!(NeuralMachine::read_from(text.as_bytes()).is_ok());
    }

    #[test]
    fn loaded_model_has_no_optimizer_state() {
        let (x, y) = blobs(5);
        let nm = NeuralMachine::train(&x, &y, quick_cfg());
        let loaded =
            NeuralMachine::read_from(serialized(&nm).as_bytes()).unwrap();
        assert_eq!(loaded.layers, nm.layers);
        assert_eq!(loaded.input_dim(), 2);
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
