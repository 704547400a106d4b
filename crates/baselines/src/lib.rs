//! The baseline link-prediction methods the paper compares SSF against
//! (Table I and §VI-C1).
//!
//! * [`local`] — the local similarity indices CN, Jaccard, PA, AA, RA and
//!   the weighted rWRA, as plain scoring functions over a
//!   [`dyngraph::StaticGraph`].
//! * [`katz`] — the truncated Katz index `Σ β^l (A^l)_{xy}` via repeated
//!   sparse mat-vec with per-source caching.
//! * [`rw`] — Liu & Lü's local random walk similarity
//!   `s_xy = q_x π_{xy}(t) + q_y π_{yx}(t)`.
//! * [`wlf`] — Zhang & Chen's Weisfeiler–Lehman link feature (WLNM,
//!   KDD'17): the K-node enclosing subgraph ordered by Palette-WL and
//!   unfolded as a 0/1 adjacency vector. This is the feature behind the
//!   WLLR / WLNM baselines.
//! * [`nmf`] — non-negative matrix factorization of the adjacency matrix
//!   with multiplicative updates (sparse-aware), scoring pairs by the
//!   reconstructed entry.
//!
//! Two additional related-work baselines beyond Table III round out the
//! comparison families:
//!
//! * [`lp`] — the Local Path index `A² + εA³` (the paper's reference \[8\]).
//! * [`tmf`] — temporal matrix factorization over the decay-weighted
//!   adjacency (after the paper's reference \[28\], the source of its
//!   influence-decay function).

#![forbid(unsafe_code)]

pub mod katz;
pub mod local;
pub mod lp;
pub mod nmf;
pub mod rw;
pub mod tmf;
pub mod wlf;

pub use katz::KatzIndex;
pub use lp::LocalPathIndex;
pub use nmf::{Nmf, NmfConfig};
pub use rw::LocalRandomWalk;
pub use tmf::TemporalNmf;
pub use wlf::{WlfConfig, WlfExtractor};
