//! Structure Subgraph Feature (SSF) extraction — the core contribution of
//! *"A Universal Method Based on Structure Subgraph Feature for Link
//! Prediction over Dynamic Networks"* (ICDCS 2019).
//!
//! The extraction pipeline (Algorithm 3 of the paper) turns a target link
//! `e_t = (a, b)` of a timestamped multigraph into a fixed-length feature
//! vector:
//!
//! 1. [`hop`] — extract the *h-hop subgraph* around the target link
//!    (Definition 3), growing `h` until enough structure exists.
//! 2. [`structure`] — merge nodes with identical neighbor sets into
//!    *structure nodes* (Definition 4, Algorithm 1), producing the
//!    *h-hop structure subgraph* (Definition 6).
//! 3. [`palette`] — order the structure nodes with the Palette-WL color
//!    refinement (Algorithm 2), pinning the two endpoints to orders 1 and 2.
//! 4. [`kstructure`] — keep the top-`K` structure nodes (Definition 7).
//! 5. [`influence`] — collapse the multi-links between two structure nodes
//!    into a single *normalized influence*
//!    `l̃ = Σ exp(−θ·(l_t − l_k))` (Definition 8).
//! 6. [`feature`] — fill the `K×K` adjacency matrix (Eq. 4, with pluggable
//!    [`EntryEncoding`]s) and unfold its upper triangle, minus the target
//!    entry, into the SSF vector (Definition 10, Eq. 5).
//!
//! [`pattern`] additionally mines the most frequent K-structure-subgraph
//! connection patterns, reproducing the paper's Figure 6.
//!
//! # Example
//!
//! ```rust
//! use dyngraph::DynamicNetwork;
//! use ssf_core::{SsfConfig, SsfExtractor};
//!
//! // A small dynamic network; will node 0 link to node 4 at time 6?
//! let g: DynamicNetwork = [
//!     (0, 1, 1), (1, 2, 2), (2, 0, 3), (0, 3, 4), (3, 4, 5), (2, 4, 5),
//! ]
//! .into_iter()
//! .collect();
//!
//! let extractor = SsfExtractor::new(SsfConfig::new(5));
//! let feature = extractor.extract(&g, 0, 4, 6);
//! assert_eq!(feature.values().len(), SsfConfig::new(5).feature_dim());
//! ```

pub mod cache;
pub mod error;
pub mod feature;
pub mod hop;
pub mod influence;
pub mod kstructure;
pub mod palette;
pub mod pattern;
pub mod reference;
pub mod roles;
pub mod structure;
pub mod viz;

pub use cache::{
    CacheStats, ExtractScratch, ExtractionCache, LruCache, ThreadCache,
};
pub use error::ExtractError;
pub use feature::{
    DijkstraScratch, EntryEncoding, SsfConfig, SsfExtractor, SsfFeature,
};
pub use hop::{HopScratch, HopSubgraph};
pub use influence::{normalized_influence, ExponentialDecay};
pub use kstructure::{KStructureSubgraph, SelectScratch};
pub use pattern::{PatternMiner, PatternSignature};
pub use roles::{NodeRole, RoleAnalysis};
pub use structure::{StructureScratch, StructureSubgraph};
