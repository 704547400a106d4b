//! Pipeline observability for the SSF serving system — hand-rolled, since
//! this workspace vendors everything offline.
//!
//! Three layers:
//!
//! 1. **Primitives** ([`metrics`]) — lock-free [`Counter`]s and [`Gauge`]s,
//!    fixed-bucket latency [`Histogram`]s with p50/p95/p99 summaries and an
//!    associative, commutative `merge`.
//! 2. **Registry** ([`registry`]) — a process-wide store of labeled metric
//!    families with a point-in-time [`Snapshot`] and a stable JSON export
//!    (`ssf.metrics.v1`, golden-tested).
//! 3. **Recording facade** ([`recorder`]) — the [`Recorder`] trait hot code
//!    emits through, the inert [`NoopRecorder`], the registry-backed
//!    [`RegistryRecorder`], and the cheap [`ObsHandle`] threaded through
//!    the extraction, fit and serving layers. Span timers are drop guards:
//!    `let _s = obs.span("ssf.core.ball");`.
//!
//! # Naming convention
//!
//! Metric names follow `ssf.<layer>.<stage>`: `ssf.core.*` for extraction
//! stages, `ssf.ml.*` for model fitting, `ssf.model.*` for the packaged
//! predictor, `ssf.methods.*` for the batch evaluation paths,
//! `ssf.stream.*` for the online predictor and `ssf.cli.*` for command
//! entry points. Label-carrying families render as `family{k=v}` via
//! [`labeled`].
//!
//! # Invariants the test layer locks down
//!
//! * The no-op path is bit-identical to the recording path (recording
//!   never touches data values).
//! * Span enters and exits balance ([`SPANS_ENTERED`] == [`SPANS_EXITED`]
//!   once all guards have dropped).
//! * A histogram's `count` equals the sum of its bucket counts.
//! * Counter snapshots are monotone under concurrent increments.
//!
//! # Example
//!
//! ```rust
//! use std::sync::Arc;
//! use obs::{ObsHandle, Registry};
//!
//! let registry = Arc::new(Registry::new());
//! let obs = ObsHandle::of_registry(Arc::clone(&registry));
//! {
//!     let _span = obs.span("ssf.demo.stage");
//!     obs.counter("ssf.demo.items", 3);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("ssf.demo.items"), 3);
//! assert_eq!(snap.histogram("ssf.demo.stage").map(|h| h.count()), Some(1));
//! assert!(snap.to_json().contains("\"schema\": \"ssf.metrics.v1\""));
//! ```

#![forbid(unsafe_code)]

pub mod metrics;
pub mod recorder;
pub mod registry;

pub use metrics::{
    AtomicHistogram, Counter, Gauge, Histogram, BUCKETS, BUCKET_BOUNDS_NS,
};
pub use recorder::{
    NoopRecorder, ObsHandle, Recorder, RegistryRecorder, SpanGuard,
    SPANS_ENTERED, SPANS_EXITED,
};
pub use registry::{labeled, Registry, Snapshot};
