//! # ssf-repro
//!
//! Reproduction of *"A Universal Method Based on Structure Subgraph Feature
//! for Link Prediction over Dynamic Networks"* (Li, Liang, Zhang, Liu, Wu —
//! ICDCS 2019).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`dyngraph`] — timestamped undirected multigraph substrate.
//! * [`linalg`] — dense matrix/vector kernels.
//! * [`ssf_core`] — the paper's contribution: structure subgraphs and the
//!   Structure Subgraph Feature (SSF).
//! * [`baselines`] — the 11 comparison methods (CN … WLNM, NMF).
//! * [`ssf_ml`] — linear regression and the "neural machine" MLP.
//! * [`obs`] — pipeline observability: span timers, counters, latency
//!   histograms and the stable `ssf.metrics.v1` JSON snapshot.
//! * [`datasets`] — synthetic dynamic-network generators matched to the
//!   paper's seven datasets.
//! * [`ssf_eval`] — train/test splitting, AUC/F1, experiment runner.
//! * [`ssf_persist`] — durable-state primitives: the checksummed `SSF1`
//!   snapshot container and the write-ahead log.
//!
//! The serving-path API lives in this crate directly: [`stream`] (the
//! single-writer online predictor), [`serve`] (immutable scoring
//! snapshots), [`coalesce`] (the micro-batching
//! request front-end with deadline budgets and backpressure),
//! [`durability`] (checkpoints, WAL and crash recovery), [`methods`],
//! [`model`] and [`error`]. The everyday names are re-exported at the crate root and
//! bundled in [`prelude`] — downstream code should not import from the
//! internal module paths.
//!
//! ## Quickstart
//!
//! ```rust
//! use ssf_repro::prelude::*;
//!
//! let mut g = DynamicNetwork::new();
//! for (u, v, t) in [(0, 1, 1), (1, 2, 2), (2, 0, 3), (0, 3, 3), (3, 4, 4)] {
//!     g.add_link(u, v, t);
//! }
//! let extractor = SsfExtractor::new(SsfConfig::new(5));
//! let feature = extractor.extract(&g, 1, 4, 5);
//! assert_eq!(feature.values().len(), SsfConfig::new(5).feature_dim());
//! ```
//!
//! ## Serving
//!
//! ```rust
//! use ssf_repro::prelude::*;
//!
//! let config = OnlinePredictorConfig::builder()
//!     .refit_every(10)
//!     .build()
//!     .expect("valid configuration");
//! let mut predictor = OnlineLinkPredictor::new(config);
//! predictor.observe(0, 1, 1);
//! predictor.observe(1, 2, 2);
//!
//! // Publish an immutable epoch; readers score it from any thread while
//! // this writer keeps ingesting.
//! let snapshot = predictor.snapshot();
//! predictor.observe(0, 2, 3);
//! let scores = snapshot.score_batch_parallel(&[(0, 2), (1, 0)], 2);
//! assert_eq!(scores.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod coalesce;
pub mod durability;
pub mod error;
pub mod methods;
pub mod model;
pub mod prelude;
pub mod serve;
pub mod stream;

pub use coalesce::{
    BatchScorer, Clock, CoalesceConfig, CoalesceConfigBuilder, CoalesceStats,
    Coalescer, MockClock, Rejection, StepReport, SystemClock, Ticket,
};
pub use durability::{DurabilityPolicy, RecoveryReport};
pub use error::{ConfigError, SsfError};
pub use methods::{Method, MethodOptions};
pub use model::SsfnmModel;
pub use serve::{
    Health, Observed, QuarantineReason, ScoringSnapshot, StreamStats,
};
pub use ssf_core::CacheStats;
pub use ssf_persist::FsyncPolicy;
pub use stream::{
    OnlineLinkPredictor, OnlinePredictorConfig, OnlinePredictorConfigBuilder,
};

pub use baselines;
pub use datasets;
pub use dyngraph;
pub use linalg;
pub use obs;
pub use ssf_core;
pub use ssf_eval;
pub use ssf_ml;
pub use ssf_persist;
