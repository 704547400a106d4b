//! Feature standardization (zero mean, unit variance per column).

use std::io::{self, BufRead, Write};

use linalg::Matrix;

use crate::persist;

/// A fitted standard scaler.
///
/// Columns with zero variance are passed through centered only, avoiding
/// division by zero (common for SSF features: padded slots are all-zero
/// columns on sparse datasets).
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fits on the rows of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has no rows.
    pub fn fit(x: &Matrix) -> Self {
        assert!(x.rows() > 0, "cannot fit a scaler on zero samples");
        let (n, d) = (x.rows(), x.cols());
        let mut mean = vec![0.0; d];
        for i in 0..n {
            for (m, v) in mean.iter_mut().zip(x.row(i)) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0; d];
        for i in 0..n {
            for j in 0..d {
                let c = x[(i, j)] - mean[j];
                var[j] += c * c;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n as f64).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        StandardScaler { mean, std }
    }

    /// Returns the standardized copy of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted dimension.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.mean.len(), "dimension mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            (x[(i, j)] - self.mean[j]) / self.std[j]
        })
    }

    /// Standardizes a single feature vector in place.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted dimension.
    pub fn transform_row(&self, x: &mut [f64]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        for (v, (m, s)) in x.iter_mut().zip(self.mean.iter().zip(&self.std)) {
            *v = (*v - m) / s;
        }
    }

    /// Convenience: fit on `x` and return the transformed copy plus the
    /// scaler.
    pub fn fit_transform(x: &Matrix) -> (Matrix, Self) {
        let scaler = Self::fit(x);
        let t = scaler.transform(x);
        (t, scaler)
    }

    /// Number of feature columns the scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Persists the fitted statistics (exact bit round-trip).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "ssf-scaler v1")?;
        persist::write_floats(&mut w, "mean", self.mean.iter().copied())?;
        persist::write_floats(&mut w, "std", self.std.iter().copied())
    }

    /// Loads statistics written by [`StandardScaler::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` on version or shape mismatches, plus reader errors.
    pub fn read_from<R: BufRead>(mut r: R) -> io::Result<Self> {
        persist::expect_line(&mut r, "ssf-scaler v1")?;
        let mean = persist::read_floats(&mut r, "mean")?;
        let std = persist::read_floats(&mut r, "std")?;
        if mean.len() != std.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "mean/std length mismatch",
            ));
        }
        Ok(StandardScaler { mean, std })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_columns() {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 30.0]]);
        let (t, _) = StandardScaler::fit_transform(&x);
        for j in 0..2 {
            let col: Vec<f64> = (0..2).map(|i| t[(i, j)]).collect();
            assert!((linalg::vector::mean(&col)).abs() < 1e-12);
            assert!((linalg::vector::std_dev(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_centered_not_scaled() {
        let x = Matrix::from_rows(&[&[5.0], &[5.0], &[5.0]]);
        let (t, _) = StandardScaler::fit_transform(&x);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 8.0], &[5.0, 4.0]]);
        let scaler = StandardScaler::fit(&x);
        let t = scaler.transform(&x);
        let mut row = x.row(1).to_vec();
        scaler.transform_row(&mut row);
        assert_eq!(row.as_slice(), t.row(1));
    }

    #[test]
    fn persistence_round_trips() {
        let x = Matrix::from_rows(&[&[1.0, -2.0], &[3.5, 8.25], &[5.0, 4.0]]);
        let scaler = StandardScaler::fit(&x);
        let mut buf = Vec::new();
        scaler.write_to(&mut buf).unwrap();
        let loaded = StandardScaler::read_from(buf.as_slice()).unwrap();
        assert_eq!(scaler, loaded);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_checked() {
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let scaler = StandardScaler::fit(&x);
        let y = Matrix::from_rows(&[&[1.0]]);
        let _ = scaler.transform(&y);
    }
}
