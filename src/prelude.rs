//! The curated import surface: `use ssf_repro::prelude::*;`.
//!
//! One glob brings in everything a typical application touches — the
//! dynamic network substrate, the SSF extractor, the online predictor
//! with its config builder, the concurrent-serving types
//! ([`ScoringSnapshot`]), the validated dataset
//! specs with their scale tiers ([`DatasetSpec`], [`ScaleTier`]), the
//! error taxonomy and the observability recorder types. Anything not listed here is still
//! reachable through the re-exported workspace crates
//! ([`crate::dyngraph`], [`crate::ssf_core`], …), but downstream code
//! should not need internal module paths for the serving workflow.

pub use datasets::{
    DatasetSpec, DatasetSpecBuilder, PaperDataset, ScaleTier, SpecError,
    Topology,
};
pub use dyngraph::{
    AdvanceReport, DeltaGraph, DynamicNetwork, FrozenGraph, GraphError,
    GraphView, IncidentLinks, Link, NodeId, OverlayView, Timestamp, Window,
    WindowedView,
};
pub use obs::{
    NoopRecorder, ObsHandle, Recorder, Registry, RegistryRecorder, Snapshot,
};
pub use ssf_core::{
    CacheStats, EntryEncoding, ExtractionCache, SsfConfig, SsfExtractor,
    SsfFeature,
};

pub use ssf_persist::FsyncPolicy;

pub use crate::coalesce::{
    BatchScorer, Clock, CoalesceConfig, CoalesceStats, Coalescer, MockClock,
    Rejection, SystemClock, Ticket,
};
pub use crate::durability::{DurabilityPolicy, RecoveryReport};
pub use crate::error::{ConfigError, SsfError};
pub use crate::methods::{Method, MethodOptions};
pub use crate::model::SsfnmModel;
pub use crate::serve::{
    Health, Observed, QuarantineReason, ScoringSnapshot, StreamStats,
};
pub use crate::stream::{
    OnlineLinkPredictor, OnlinePredictorConfig, OnlinePredictorConfigBuilder,
};
