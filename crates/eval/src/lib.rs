//! Evaluation pipeline reproducing the paper's experimental protocol
//! (§VI-C2).
//!
//! * [`split`] — chooses the prediction time `l_t` (the network's last
//!   timestamp), takes the distinct node pairs linking at `l_t` as
//!   positives, samples an equal number of never-linked pairs as negatives,
//!   and splits both 70/30 into train and test. The *history* network
//!   `G_{[t_min, l_t)}` is what features are extracted from.
//! * [`metrics`] — AUC (rank statistic with tie correction), F1, and
//!   train-set threshold selection for the unsupervised ranking baselines.
//! * [`runner`] — glue that scores a split with a ranking function and
//!   returns a [`MethodResult`]; supervised models are trained by the
//!   caller (see the `ssf-bench` crate) and evaluated through the same
//!   scoring helpers.
//! * [`report`] — aligned text tables in the shape of the paper's
//!   Table III, plus CSV export.

#![forbid(unsafe_code)]

pub mod backtest;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod split;

pub use backtest::{
    aggregate, backtest_splits, BacktestConfig, BacktestResult,
};
pub use metrics::{auc, best_f1_threshold, f1_at};
pub use report::ResultsTable;
pub use runner::{evaluate_ranking, evaluate_supervised_scores, MethodResult};
pub use split::{LinkSample, Split, SplitConfig, SplitError};
