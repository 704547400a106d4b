//! Dense matrix/vector kernels.
//!
//! A deliberately small, dependency-free linear-algebra layer sized for this
//! reproduction's needs: the non-negative matrix factorization baseline,
//! closed-form ridge regression (normal equations via Cholesky), and the
//! "neural machine" MLP's weights and row kernels.
//!
//! * [`Matrix`] — row-major `f64` matrix with the usual arithmetic, matmul
//!   (plus transposed variants), and elementwise maps.
//! * [`solve`] — Cholesky factorization and SPD linear solves.
//! * [`vector`] — slice helpers: dot products, norms, softmax, argmax.
//!
//! # Example
//!
//! ```rust
//! use linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

#![forbid(unsafe_code)]

mod matrix;
pub mod solve;
pub mod vector;

pub use matrix::Matrix;
