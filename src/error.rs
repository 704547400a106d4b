//! Unified error taxonomy for the serving path.
//!
//! Every fallible layer of the pipeline has its own typed error
//! ([`GraphError`] for ingestion, [`SplitError`] for evaluation splits,
//! [`ExtractError`] for SSF extraction on degenerate subgraphs,
//! [`FitError`] for model fitting). [`SsfError`] wraps them all so that
//! serving-path callers — the CLI, the online predictor, embedding
//! applications — can propagate one error type with `?` instead of
//! panicking or stringifying at every boundary.

use std::fmt;

use ssf_core::ExtractError;
use ssf_eval::SplitError;
use ssf_ml::FitError;

pub use dyngraph::GraphError;

/// An invalid predictor or serving configuration, rejected before any
/// stream event is processed.
///
/// Produced by [`crate::stream::OnlinePredictorConfigBuilder::build`],
/// [`crate::methods::MethodOptions::validate`] and
/// [`crate::coalesce::CoalesceConfigBuilder::build`]: validation moved from
/// scattered `assert!`s at first use to one typed, testable gate at
/// construction time.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `K` below the minimum of 3 the K-structure subgraph requires
    /// (orders 1 and 2 are pinned to the endpoints; at least one free
    /// structure node must remain).
    KTooSmall {
        /// The rejected value.
        k: usize,
    },
    /// The decay parameter θ of the normalized influence must be finite
    /// and non-negative.
    InvalidTheta {
        /// The rejected value.
        theta: f64,
    },
    /// `refit_every` must be at least one tick.
    ZeroRefitInterval,
    /// `max_backoff` must be at least 1 (1 = no backoff growth).
    ZeroBackoff,
    /// A coalescing queue must close batches at ≥ 1 request.
    ZeroBatch,
    /// A coalescing queue must admit at least one request.
    ZeroQueueCapacity,
    /// Batch dispatch needs at least one worker thread. (The serve
    /// layer's `score_batch_parallel` historically coerced `threads ==
    /// 0` to 1 silently; the coalescing front-end rejects it as a typed
    /// configuration error instead.)
    ZeroWorkerThreads,
    /// A zero-nanosecond default deadline budget would reject every
    /// request at admission.
    ZeroDeadline,
    /// A dataset specification failed [`datasets::DatasetSpec::builder`]
    /// validation (too few nodes/links, out-of-range probability, …).
    InvalidDatasetSpec {
        /// The underlying typed reason.
        spec: datasets::SpecError,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::KTooSmall { k } => {
                write!(f, "K must be at least 3, got {k}")
            }
            ConfigError::InvalidTheta { theta } => {
                write!(f, "theta must be finite and >= 0, got {theta}")
            }
            ConfigError::ZeroRefitInterval => {
                write!(f, "refit_every must be at least 1 tick")
            }
            ConfigError::ZeroBackoff => {
                write!(f, "max_backoff must be at least 1")
            }
            ConfigError::ZeroBatch => {
                write!(f, "max_batch must be at least 1 request")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "queue_capacity must be at least 1 request")
            }
            ConfigError::ZeroWorkerThreads => {
                write!(f, "worker_threads must be at least 1")
            }
            ConfigError::ZeroDeadline => {
                write!(
                    f,
                    "default deadline budget must be at least 1 ns \
                     (or None for no deadline)"
                )
            }
            ConfigError::InvalidDatasetSpec { spec } => {
                write!(f, "invalid dataset spec: {spec}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Dataset-spec validation failures enter the taxonomy as configuration
/// errors: a bad spec is rejected before any generation work starts,
/// exactly like a bad predictor config.
impl From<datasets::SpecError> for SsfError {
    fn from(e: datasets::SpecError) -> Self {
        SsfError::Config(ConfigError::InvalidDatasetSpec { spec: e })
    }
}

/// Any error the SSF pipeline can produce, from ingestion to scoring.
///
/// Marked `#[non_exhaustive]`: future layers may add variants without a
/// breaking change, so downstream matches need a catch-all arm.
#[derive(Debug)]
#[non_exhaustive]
pub enum SsfError {
    /// Structural violation while building or slicing a network.
    Graph(GraphError),
    /// The evaluation split could not be constructed.
    Split(SplitError),
    /// SSF extraction failed on a degenerate target pair.
    Extract(ExtractError),
    /// Model fitting failed (shape violation or ill-conditioned system).
    Fit(FitError),
    /// Underlying I/O failure while reading or writing artifacts.
    Io(std::io::Error),
    /// A predictor/serving configuration was rejected at build time.
    Config(ConfigError),
    /// Durable state on disk failed validation — a snapshot or WAL
    /// section with a bad checksum, a malformed record, or decoded
    /// structure that violates its own invariants. Recovery refuses to
    /// serve such state rather than guess at it.
    Corrupt {
        /// Which piece of durable state failed (`"header"`,
        /// `"graph.offsets"`, `"wal"`, `"snapshot"`, …).
        section: String,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for SsfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsfError::Graph(e) => write!(f, "graph error: {e}"),
            SsfError::Split(e) => write!(f, "split error: {e}"),
            SsfError::Extract(e) => write!(f, "extraction error: {e}"),
            SsfError::Fit(e) => write!(f, "fit error: {e}"),
            SsfError::Io(e) => write!(f, "i/o error: {e}"),
            SsfError::Config(e) => write!(f, "config error: {e}"),
            SsfError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
        }
    }
}

impl std::error::Error for SsfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SsfError::Graph(e) => Some(e),
            SsfError::Split(e) => Some(e),
            SsfError::Extract(e) => Some(e),
            SsfError::Fit(e) => Some(e),
            SsfError::Io(e) => Some(e),
            SsfError::Config(e) => Some(e),
            SsfError::Corrupt { .. } => None,
        }
    }
}

impl From<GraphError> for SsfError {
    fn from(e: GraphError) -> Self {
        SsfError::Graph(e)
    }
}

impl From<SplitError> for SsfError {
    fn from(e: SplitError) -> Self {
        SsfError::Split(e)
    }
}

impl From<ExtractError> for SsfError {
    fn from(e: ExtractError) -> Self {
        SsfError::Extract(e)
    }
}

impl From<FitError> for SsfError {
    fn from(e: FitError) -> Self {
        SsfError::Fit(e)
    }
}

impl From<std::io::Error> for SsfError {
    fn from(e: std::io::Error) -> Self {
        SsfError::Io(e)
    }
}

impl From<ConfigError> for SsfError {
    fn from(e: ConfigError) -> Self {
        SsfError::Config(e)
    }
}

/// Durability-layer errors fold into the unified taxonomy: I/O failures
/// join the existing [`SsfError::Io`] arm, corruption keeps its section
/// attribution in [`SsfError::Corrupt`].
impl From<ssf_persist::PersistError> for SsfError {
    fn from(e: ssf_persist::PersistError) -> Self {
        match e {
            ssf_persist::PersistError::Io(io) => SsfError::Io(io),
            ssf_persist::PersistError::Corrupt { section, detail } => {
                SsfError::Corrupt { section, detail }
            }
            other => SsfError::Corrupt {
                section: "persist".to_string(),
                detail: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_layer_and_keeps_detail() {
        let e = SsfError::from(GraphError::SelfLoop { node: 3 });
        let text = e.to_string();
        assert!(text.starts_with("graph error:"), "got {text:?}");
        assert!(text.contains('3'));

        let e = SsfError::from(SplitError::EmptyNetwork);
        assert!(e.to_string().starts_with("split error:"));

        let e = SsfError::from(ExtractError::DegenerateTarget { node: 5 });
        assert!(e.to_string().starts_with("extraction error:"));

        let e = SsfError::from(FitError::EmptyDesign);
        assert!(e.to_string().starts_with("fit error:"));

        let e = SsfError::from(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "gone",
        ));
        assert!(e.to_string().starts_with("i/o error:"));

        let e = SsfError::from(ConfigError::KTooSmall { k: 0 });
        let text = e.to_string();
        assert!(text.starts_with("config error:"), "got {text:?}");
        assert!(text.contains("at least 3"));

        let e = SsfError::Corrupt {
            section: "graph.offsets".to_string(),
            detail: "checksum mismatch".to_string(),
        };
        assert_eq!(e.to_string(), "corrupt graph.offsets: checksum mismatch");
    }

    #[test]
    fn persist_errors_fold_into_the_taxonomy() {
        let e = SsfError::from(ssf_persist::PersistError::Corrupt {
            section: "wal".to_string(),
            detail: "torn tail".to_string(),
        });
        assert!(matches!(e, SsfError::Corrupt { .. }), "{e}");
        assert_eq!(e.to_string(), "corrupt wal: torn tail");
        let e = SsfError::from(ssf_persist::PersistError::Io(
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        ));
        assert!(matches!(e, SsfError::Io(_)), "{e}");
    }

    #[test]
    fn config_error_renders_each_rejection() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (ConfigError::KTooSmall { k: 2 }, "got 2"),
            (ConfigError::InvalidTheta { theta: -0.5 }, "-0.5"),
            (ConfigError::ZeroRefitInterval, "refit_every"),
            (ConfigError::ZeroBackoff, "max_backoff"),
            (ConfigError::ZeroBatch, "max_batch"),
            (ConfigError::ZeroQueueCapacity, "queue_capacity"),
            (ConfigError::ZeroWorkerThreads, "worker_threads"),
            (ConfigError::ZeroDeadline, "deadline budget"),
            (
                ConfigError::InvalidDatasetSpec {
                    spec: datasets::SpecError::ZeroTimeSpan,
                },
                "time span",
            ),
        ];
        for (e, needle) in cases {
            let text = e.to_string();
            assert!(text.contains(needle), "{text:?} missing {needle:?}");
        }
    }

    #[test]
    fn spec_errors_fold_into_config() {
        let e = SsfError::from(datasets::SpecError::TooFewNodes { nodes: 1 });
        assert!(
            matches!(
                e,
                SsfError::Config(ConfigError::InvalidDatasetSpec { .. })
            ),
            "{e}"
        );
        assert!(e.to_string().contains("invalid dataset spec"));
    }

    #[test]
    fn source_chain_exposes_the_wrapped_error() {
        use std::error::Error;
        let e = SsfError::from(GraphError::SelfLoop { node: 1 });
        let src = e.source().expect("wrapped error is the source");
        assert!(src.to_string().contains("self-loop"));
    }
}
