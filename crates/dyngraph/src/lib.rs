//! Timestamped undirected multigraph substrate.
//!
//! The paper (Definition 1) models a *dynamic network* as `G = (V, E, L)`
//! where every link `e = (n_i, n_j, l)` carries a timestamp `l` and multiple
//! links are allowed between the same pair of nodes. This crate provides:
//!
//! * [`DynamicNetwork`] — the timestamped multigraph itself, with period
//!   slicing (`G_{[t_p, t_q)}`, Definition 2) and conversion to a
//!   deduplicated [`StaticGraph`] view.
//! * [`StaticGraph`] — a simple undirected graph with multi-edge counts kept
//!   as integer weights, used by the static baseline features (CN, AA, …).
//! * [`GraphView`] — the read-only trait every representation serves, and
//!   the immutable CSR [`FrozenGraph`] / copy-on-write [`DeltaGraph`] +
//!   [`OverlayView`] family built on it for O(delta) snapshot publishing.
//! * [`traversal`] — BFS distance maps and Dijkstra shortest paths, generic
//!   over any [`Adjacency`] source.
//! * [`io`] — KONECT-style `u v t` edge-list parsing and writing.
//! * [`stats`] — the Table II statistics (node count, link count, average
//!   degree, time span).
//!
//! # Example
//!
//! ```rust
//! # fn main() -> Result<(), dyngraph::GraphError> {
//! use dyngraph::DynamicNetwork;
//!
//! let mut g = DynamicNetwork::new();
//! g.add_link(0, 1, 5);
//! g.add_link(0, 1, 7); // multi-link, later timestamp
//! g.add_link(1, 2, 9);
//! assert_eq!(g.link_count(), 3);
//! assert_eq!(g.link_count_between(0, 1), 2);
//! let before_nine = g.period(0, 9)?;
//! assert_eq!(before_nine.link_count(), 2);
//! # Ok(())
//! # }
//! ```

mod error;
mod frozen;
pub mod io;
pub mod metrics;
mod network;
mod static_graph;
pub mod stats;
pub mod traversal;
mod view;
mod window;

pub use error::GraphError;
pub use frozen::{DeltaGraph, FrozenGraph, FrozenGraphParts, OverlayView};
pub use network::{DynamicNetwork, Link};
pub use static_graph::StaticGraph;
pub use traversal::Adjacency;
pub use view::{GraphView, IncidentLinks};
pub use window::{AdvanceReport, Window, WindowedView};

/// Identifier of a node. Nodes are dense integers `0..node_count()`.
pub type NodeId = u32;

/// Integer timestamp of a link (the paper normalizes timestamps to
/// `[1, time_span]` per dataset; any non-negative integer works here).
pub type Timestamp = u32;
