//! Dynamic-network datasets for the SSF reproduction.
//!
//! The paper evaluates on seven public traces (Table II): Eu-Email,
//! Contact, Facebook, Co-author, Prosper, Slashdot and Digg. This crate
//! substitutes them with *synthetic temporal generators* parameterized to
//! match each trace's Table II statistics (node count, link count, average
//! degree, time span) and qualitative topology class:
//!
//! * [`Topology::RepeatedContact`] — dense repeated-interaction networks
//!   (Eu-Email, Contact): a small population where most events repeat an
//!   already-active pair (Pólya-urn reinforcement), producing the heavy
//!   multi-link distributions of email/proximity traces.
//! * [`Topology::HubDominated`] — celebrity/reply networks (Facebook,
//!   Prosper, Slashdot, Digg): degree-preferential attachment where most
//!   events attach ordinary users to hubs, matching the paper's Figure 6(a)
//!   observation that "users … write posts to the walls of famous people".
//! * [`Topology::Community`] — collaboration networks (Co-author): links
//!   form inside small dense groups with occasional bridges, matching
//!   Figure 6(b)'s dense co-author pattern.
//!
//! The generators are deterministic given a seed. When the real KONECT
//! edge lists are available on disk, [`DatasetSpec::load_or_generate`]
//! transparently prefers them, so the whole experiment harness runs
//! unchanged on the original data.
//!
//! Beyond the paper's scale, [`ScaleTier`] defines a synthetic S/M/L/XL/
//! Huge ladder (10k to 2M nodes) whose specs stream-build through a
//! bounded-memory generator path — see [`generators::STREAM_THRESHOLD`].
//!
//! # Example
//!
//! ```rust
//! use datasets::DatasetSpec;
//!
//! let spec = DatasetSpec::coauthor();
//! let g = spec.generate(42);
//! assert_eq!(g.link_count(), spec.target_links);
//! assert_eq!(g.max_timestamp(), Some(spec.time_span));
//! ```
//!
//! Custom specs go through the validated builder:
//!
//! ```rust
//! use datasets::{DatasetSpec, ScaleTier, Topology};
//!
//! let spec = DatasetSpec::builder("sandbox")
//!     .nodes(200)
//!     .target_links(2_000)
//!     .time_span(90)
//!     .topology(Topology::Community {
//!         communities: 10,
//!         intra: 0.85,
//!         repeat: 0.3,
//!         drift: 0.01,
//!     })
//!     .build()?;
//! assert_eq!(spec.name, "sandbox");
//! let tier = DatasetSpec::tier(ScaleTier::S);
//! assert_eq!(tier.nodes, 10_000);
//! # Ok::<(), datasets::SpecError>(())
//! ```

#![forbid(unsafe_code)]

pub mod generators;
pub mod io;
pub mod spec;

#[allow(deprecated)] // re-exported one release for migration
pub use generators::generate;
pub use spec::{
    DatasetSpec, DatasetSpecBuilder, PaperDataset, ScaleTier, SpecError,
    Topology,
};
