//! Golden fixtures for the neural machine: the serialized weights of a
//! fixed training run, byte for byte.
//!
//! Training is deterministic (seeded init and shuffling, a fixed
//! per-element update order), so any change to the optimizer that
//! reorders floating-point operations shows up here as a changed
//! weight. The fixtures in `tests/fixtures/` were written by the
//! implementation that predates the fused Adam + weight-decay update;
//! the fused loop must reproduce them exactly.

use linalg::Matrix;
use ssf_ml::{MlpConfig, NeuralMachine, Optimizer};

/// A deterministic, not-linearly-separable design: 96 rows of 7
/// features, labelled by the sign of a fixed nonlinear score.
fn data() -> (Matrix, Vec<usize>) {
    let (rows, cols) = (96, 7);
    let x = Matrix::from_fn(rows, cols, |i, j| {
        let (i, j) = (i as f64, j as f64);
        (0.37 * i + 1.3 * j).sin() * (1.0 + 0.1 * j) + 0.05 * (i * j).cos()
    });
    let y = (0..rows)
        .map(|i| {
            let r = x.row(i);
            usize::from(r[0] * r[1] - 0.5 * r[2] + r[3].abs() - 0.4 > 0.0)
        })
        .collect();
    (x, y)
}

fn trained(config: MlpConfig) -> String {
    let (x, y) = data();
    let nm = NeuralMachine::train(&x, &y, config);
    let mut out = Vec::new();
    nm.write_to(&mut out)
        .unwrap_or_else(|e| panic!("write_to: {e}"));
    String::from_utf8(out).unwrap_or_else(|e| panic!("utf-8: {e}"))
}

fn base() -> MlpConfig {
    MlpConfig {
        hidden: vec![12, 6],
        epochs: 40,
        batch_size: 10,
        seed: 23,
        ..MlpConfig::default()
    }
}

fn assert_golden(got: &str, want: &str, name: &str) {
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".to_string(), |i| format!("line {i}"));
        panic!("{name}: serialized weights diverge from the fixture at {line}");
    }
}

#[test]
fn adam_with_weight_decay_matches_fixture() {
    assert_golden(
        &trained(base()),
        include_str!("fixtures/nm_adam_decay.txt"),
        "adam + decay",
    );
}

#[test]
fn adam_without_weight_decay_matches_fixture() {
    let config = MlpConfig {
        weight_decay: 0.0,
        ..base()
    };
    assert_golden(
        &trained(config),
        include_str!("fixtures/nm_adam.txt"),
        "adam",
    );
}

#[test]
fn sgd_with_weight_decay_matches_fixture() {
    let config = MlpConfig {
        optimizer: Optimizer::Sgd,
        learning_rate: 0.05,
        ..base()
    };
    assert_golden(
        &trained(config),
        include_str!("fixtures/nm_sgd_decay.txt"),
        "sgd + decay",
    );
}

#[test]
fn early_stopping_run_matches_fixture() {
    let config = MlpConfig {
        validation_fraction: 0.25,
        patience: 3,
        epochs: 60,
        ..base()
    };
    assert_golden(
        &trained(config),
        include_str!("fixtures/nm_adam_early_stop.txt"),
        "adam + early stopping",
    );
}

/// The shape the SSFNM model trains at: 88 features into `[32, 32, 16]`.
/// 103 rows, so the last minibatch of 10 is ragged, and a lattice of
/// exact zeros (plus one all-zero row) so the zero-input skips of the
/// forward and weight-gradient products are exercised.
fn production_data() -> (Matrix, Vec<usize>) {
    let (rows, cols) = (103, 88);
    let x = Matrix::from_fn(rows, cols, |i, j| {
        if i == 41 || (i * 7 + j * 3) % 5 == 0 {
            return 0.0;
        }
        let (i, j) = (i as f64, j as f64);
        (0.11 * i + 0.7 * j).sin() * 1.5 + 0.2 * (0.05 * i * j).cos()
    });
    let y = (0..rows)
        .map(|i| {
            let r = x.row(i);
            let score = r[0] * r[5] - r[17] + 0.5 * r[40].abs() - r[87] * r[3];
            usize::from(score > 0.1)
        })
        .collect();
    (x, y)
}

fn production_model() -> NeuralMachine {
    let (x, y) = production_data();
    NeuralMachine::train(
        &x,
        &y,
        MlpConfig {
            hidden: vec![32, 32, 16],
            epochs: 40,
            seed: 5,
            ..MlpConfig::default()
        },
    )
}

/// Probe rows for the inference fixture: training rows (one of them
/// all-zero), rows with scattered zeros, negative and large inputs.
fn probes() -> Vec<Vec<f64>> {
    let (x, _) = production_data();
    let mut rows: Vec<Vec<f64>> = [0, 41, 57, 102]
        .iter()
        .map(|&i| x.row(i).to_vec())
        .collect();
    rows.push(
        (0..88)
            .map(|j| if j % 4 == 0 { 0.0 } else { 1.0 })
            .collect(),
    );
    rows.push((0..88).map(|j| -0.25 * j as f64 / 88.0).collect());
    rows.push((0..88).map(|j| 40.0 * (j as f64).cos()).collect());
    rows.push((0..88).map(|j| if j == 17 { -3.0 } else { 0.0 }).collect());
    rows
}

#[test]
fn production_shape_matches_fixture() {
    let nm = production_model();
    let mut out = Vec::new();
    nm.write_to(&mut out)
        .unwrap_or_else(|e| panic!("write_to: {e}"));
    let got = String::from_utf8(out).unwrap_or_else(|e| panic!("utf-8: {e}"));
    assert_golden(
        &got,
        include_str!("fixtures/nm_production.txt"),
        "production shape",
    );
}

#[test]
fn production_predict_proba_matches_fixture() {
    let nm = production_model();
    let got: String = probes()
        .iter()
        .map(|row| {
            let p = nm.predict_proba(row);
            let bits: Vec<String> =
                p.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            bits.join(" ") + "\n"
        })
        .collect();
    assert_golden(
        &got,
        include_str!("fixtures/nm_production_proba.txt"),
        "predict_proba",
    );
}

/// One full-batch step starts from zero biases, so the all-zero row 41
/// reaches every hidden unit with `Z` exactly 0.0: the ReLU mask must
/// treat that as inactive (`Z <= 0`), exactly as the fixture's writer did.
#[test]
fn full_batch_exact_zero_activations_match_fixture() {
    let (x, y) = production_data();
    let narrow = Matrix::from_fn(x.rows(), 6, |i, j| x[(i, j)]);
    let nm = NeuralMachine::train(
        &narrow,
        &y,
        MlpConfig {
            hidden: vec![5, 4],
            epochs: 5,
            batch_size: x.rows(),
            seed: 5,
            ..MlpConfig::default()
        },
    );
    let mut out = Vec::new();
    nm.write_to(&mut out)
        .unwrap_or_else(|e| panic!("write_to: {e}"));
    let got = String::from_utf8(out).unwrap_or_else(|e| panic!("utf-8: {e}"));
    assert_golden(
        &got,
        include_str!("fixtures/nm_full_batch_zero_row.txt"),
        "full batch, exact-zero activations",
    );
}
