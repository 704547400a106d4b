//! Learning machinery for the SSF link-prediction methods.
//!
//! The paper applies its feature to two models (§VI-C1):
//!
//! * a **linear regression** model (SSFLR / WLLR) — [`LinearRegression`],
//!   closed-form ridge fit via the normal equations;
//! * a **neural machine** (SSFNM / WLNM) — [`NeuralMachine`], a
//!   fully-connected network with three hidden layers (32, 32, 16 neurons,
//!   ReLU) and a softmax output, trained with minibatch gradient descent
//!   (batch 10, learning rate 0.001 in the paper) — implemented from
//!   scratch on [`linalg::Matrix`] because the Rust neural-network
//!   ecosystem is thin (see DESIGN.md).
//!
//! [`StandardScaler`] provides the usual feature standardization.

#![forbid(unsafe_code)]

pub mod error;
pub mod linreg;
pub mod nn;
pub mod persist;
pub mod scaler;

pub use error::FitError;
pub use linreg::LinearRegression;
pub use nn::{MlpConfig, NeuralMachine, Optimizer};
pub use scaler::StandardScaler;
