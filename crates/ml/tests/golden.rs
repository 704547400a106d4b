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
