use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// A link's two endpoints are the same node; the paper's networks carry
    /// no self-loops and several algorithms (structure combination,
    /// Palette-WL) assume their absence.
    SelfLoop {
        /// The offending node.
        node: u32,
    },
    /// An edge-list line could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A period slice was requested with `t_p >= t_q`.
    EmptyPeriod {
        /// Inclusive start of the requested period.
        start: u32,
        /// Exclusive end of the requested period.
        end: u32,
    },
    /// Raw CSR arrays handed to [`FrozenGraph::try_from_parts`] are
    /// internally inconsistent (offsets not monotone, ids out of range,
    /// asymmetric rows, …). Deserialized graphs must never reach the
    /// scoring path, so reconstruction validates everything and refuses
    /// rather than serving silently-wrong structure.
    ///
    /// [`FrozenGraph::try_from_parts`]: crate::FrozenGraph::try_from_parts
    InvalidCsr {
        /// Which invariant failed, human-readable.
        detail: String,
    },
    /// A sliding-window horizon was asked to move backwards. Windows
    /// only slide forward — rewinding would resurrect expired links
    /// whose state is gone (see [`WindowedView::advance`]).
    ///
    /// [`WindowedView::advance`]: crate::WindowedView::advance
    HorizonRegressed {
        /// The current horizon.
        from: u32,
        /// The (smaller) horizon that was requested.
        to: u32,
    },
    /// A link's timestamp falls outside the current window
    /// `[cutoff, horizon]` — it expired before it arrived. Callers
    /// decide whether that is a quarantine condition (the streaming
    /// facade) or a hard error.
    OutOfWindow {
        /// The rejected link's timestamp.
        t: u32,
        /// Inclusive lower bound of the window (`horizon - width`,
        /// saturating at zero).
        cutoff: u32,
        /// Inclusive upper bound of the window.
        horizon: u32,
    },
    /// A graph handed to [`WindowedView::from_frozen`] has a row whose
    /// links are not in time order. A windowed graph's rows always are
    /// (expiry drops a row prefix), so such a graph was not written by
    /// one; it is refused rather than re-sorted.
    ///
    /// [`WindowedView::from_frozen`]: crate::WindowedView::from_frozen
    UnsortedWindowRow {
        /// The node whose row is out of time order.
        node: u32,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop { node } => {
                write!(f, "self-loop on node {node} is not allowed")
            }
            GraphError::Parse { line, reason } => {
                write!(f, "parse error on line {line}: {reason}")
            }
            GraphError::EmptyPeriod { start, end } => {
                write!(f, "empty period [{start}, {end})")
            }
            GraphError::InvalidCsr { detail } => {
                write!(f, "invalid CSR graph: {detail}")
            }
            GraphError::HorizonRegressed { from, to } => {
                write!(f, "window horizon cannot regress from {from} to {to}")
            }
            GraphError::OutOfWindow { t, cutoff, horizon } => {
                write!(
                    f,
                    "timestamp {t} is outside the window [{cutoff}, {horizon}]"
                )
            }
            GraphError::UnsortedWindowRow { node } => {
                write!(f, "links of node {node} are not in time order")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_specific() {
        let e = GraphError::SelfLoop { node: 3 };
        assert_eq!(e.to_string(), "self-loop on node 3 is not allowed");
        let e = GraphError::Parse {
            line: 7,
            reason: "expected 3 fields".to_string(),
        };
        assert!(e.to_string().contains("line 7"));
        let e = GraphError::EmptyPeriod { start: 5, end: 5 };
        assert!(e.to_string().contains("[5, 5)"));
        let e = GraphError::InvalidCsr {
            detail: "offsets not monotone".to_string(),
        };
        assert_eq!(e.to_string(), "invalid CSR graph: offsets not monotone");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GraphError>();
    }
}
