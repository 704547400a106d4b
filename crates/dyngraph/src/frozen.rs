//! Immutable CSR graphs and copy-on-write delta overlays.
//!
//! A [`DynamicNetwork`] is built for ingestion: per-node `Vec` rows that
//! grow in place. Serving wants the opposite trade — an immutable,
//! `Arc`-shared value that any number of reader threads can score
//! against while the single writer keeps mutating its own copy. This
//! module provides that split:
//!
//! * [`FrozenGraph`] — the network frozen into CSR (compressed sparse
//!   row) layout, in one of two physical representations selected by
//!   [`StorageMode`]: the *wide* layout (flat `usize`-offset arrays,
//!   raw `u32` neighbor/timestamp pairs — fastest to decode) or the
//!   *compact* layout (`u32` offsets plus a varint-packed incident
//!   arena behind one `Arc` — roughly 35-45% smaller per link, built
//!   for million-node graphs; see [`crate::compact`]). Both serve the
//!   identical [`GraphView`] surface bit for bit.
//! * [`DeltaGraph`] — the writer-side accumulator: an
//!   `Arc<FrozenGraph>` base plus a small copy-on-write mutation log.
//!   Mutations never touch the shared base; only the rows of nodes the
//!   delta touches are materialized.
//! * [`OverlayView`] — the published, immutable face of a
//!   [`DeltaGraph`]: publishing is a handful of `Arc` clones, O(1) in
//!   graph size, so snapshot cost scales with the delta, not the graph.
//!
//! All three implement [`GraphView`] with [`DynamicNetwork`]-identical
//! orderings, so extraction over any of them is bit-identical
//! (property-tested in `crates/dyngraph/tests/frozen_prop.rs`).

use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

use crate::compact::{CompactData, CompactLimits};
use crate::view::{GraphView, IncidentLinks};
#[cfg(any(test, doc))]
use crate::DynamicNetwork;
use crate::{GraphError, NodeId, Timestamp};

/// Which physical representation a [`FrozenGraph`] uses.
///
/// `Auto` (the default) picks [`StorageMode::Compact`] when the graph
/// is large enough for footprint to matter
/// ([`FrozenGraph::COMPACT_AUTO_MIN_NODES`] nodes or
/// [`FrozenGraph::COMPACT_AUTO_MIN_LINKS`] links) and every count fits
/// the compact layout's `u32` indices; small graphs keep the wide
/// layout, whose raw rows decode faster. The enum is
/// `#[non_exhaustive]`: future layouts (such as an mmap-backed one)
/// may be added without a breaking change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum StorageMode {
    /// Choose per graph: compact when large and it fits, else wide.
    #[default]
    Auto,
    /// Flat `usize` offsets + raw `u32` pairs; fastest decode.
    Wide,
    /// `u32` offsets + varint arena behind one `Arc`; smallest.
    Compact,
}

impl StorageMode {
    /// Stable lower-case name (`"auto"` / `"wide"` / `"compact"`),
    /// used by the CLI `--storage` flag and telemetry.
    pub fn as_str(&self) -> &'static str {
        match self {
            StorageMode::Auto => "auto",
            StorageMode::Wide => "wide",
            StorageMode::Compact => "compact",
        }
    }
}

impl std::fmt::Display for StorageMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for StorageMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(StorageMode::Auto),
            "wide" => Ok(StorageMode::Wide),
            "compact" => Ok(StorageMode::Compact),
            other => Err(format!(
                "unknown storage mode {other:?} (expected auto, wide or \
                 compact)"
            )),
        }
    }
}

/// The wide representation: five flat arrays, `usize` offsets.
#[derive(Debug, Clone, PartialEq)]
struct WideData {
    /// Incident-link row bounds: row `u` is `offsets[u]..offsets[u+1]`.
    offsets: Vec<usize>,
    /// Flat neighbor ids, per-node insertion order.
    neighbors: Vec<NodeId>,
    /// Flat timestamps, parallel to `neighbors`.
    timestamps: Vec<Timestamp>,
    /// Distinct-neighbor row bounds.
    nbr_offsets: Vec<usize>,
    /// Flat distinct neighbors, sorted ascending per node.
    nbr_ids: Vec<NodeId>,
}

impl Default for WideData {
    fn default() -> Self {
        WideData {
            offsets: vec![0],
            neighbors: Vec::new(),
            timestamps: Vec::new(),
            nbr_offsets: vec![0],
            nbr_ids: Vec::new(),
        }
    }
}

#[derive(Debug, Clone)]
enum Repr {
    Wide(WideData),
    Compact(Arc<CompactData>),
}

/// An immutable dynamic network in CSR layout.
///
/// Row `u` of the incident-link CSR spans the per-node slice of the
/// flat arrays, preserving [`DynamicNetwork::incident_links`]'s
/// insertion order; the distinct-neighbor CSR mirrors
/// [`DynamicNetwork::neighbors`]'s sorted rows. Freezing copies the
/// source once (O(V + E)); afterwards the graph is shared by `Arc`
/// cloning and read concurrently without locks.
///
/// Two physical layouts exist behind the same API — see
/// [`StorageMode`]. Equality is *logical*: a wide and a compact graph
/// holding the same links compare equal.
///
/// # Example
///
/// ```rust
/// use dyngraph::{DynamicNetwork, FrozenGraph, GraphView, StorageMode};
///
/// let mut g = DynamicNetwork::new();
/// g.add_link(0, 1, 3);
/// g.add_link(1, 2, 5);
/// let frozen = FrozenGraph::from_view(&g);
/// assert_eq!(frozen.node_count(), 3);
/// assert_eq!(frozen.distinct_neighbors(1), &[0, 2]);
/// assert_eq!(frozen.revision(), g.revision());
/// // Small graph: Auto picked the wide layout.
/// assert_eq!(frozen.storage_mode(), StorageMode::Wide);
/// let compact =
///     FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
/// assert_eq!(compact.storage_mode(), StorageMode::Compact);
/// assert_eq!(compact, frozen); // logical equality across layouts
/// ```
#[derive(Debug, Clone)]
pub struct FrozenGraph {
    repr: Repr,
    num_links: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Revision of the source graph at freeze time.
    revision: u64,
}

impl Default for FrozenGraph {
    fn default() -> Self {
        FrozenGraph {
            repr: Repr::Wide(WideData::default()),
            num_links: 0,
            min_ts: 0,
            max_ts: 0,
            revision: 0,
        }
    }
}

impl PartialEq for FrozenGraph {
    /// Logical equality: same nodes, links, timestamps, orderings,
    /// bounds and revision — regardless of [`StorageMode`].
    fn eq(&self, other: &Self) -> bool {
        if self.num_links != other.num_links
            || self.min_ts != other.min_ts
            || self.max_ts != other.max_ts
            || self.revision != other.revision
            || self.node_count() != other.node_count()
        {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Wide(a), Repr::Wide(b)) => a == b,
            (Repr::Compact(a), Repr::Compact(b)) => a == b,
            _ => (0..self.node_count() as NodeId).all(|u| {
                self.distinct_neighbors(u) == other.distinct_neighbors(u)
                    && self.incident_links(u).eq(other.incident_links(u))
            }),
        }
    }
}

impl FrozenGraph {
    /// `Auto` switches to the compact layout at this many nodes …
    pub const COMPACT_AUTO_MIN_NODES: usize = 1 << 16;
    /// … or this many links, whichever comes first.
    pub const COMPACT_AUTO_MIN_LINKS: usize = 1 << 18;

    /// An empty frozen graph at revision 0 (wide layout).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Freezes any [`GraphView`] with [`StorageMode::Auto`]: compact
    /// when the graph is large and fits, wide otherwise. Preserves node
    /// ids, per-node link insertion order, timestamps and the revision
    /// counter. O(V + E).
    pub fn from_view<G: GraphView + ?Sized>(g: &G) -> Self {
        if g.node_count() >= Self::COMPACT_AUTO_MIN_NODES
            || g.link_count() >= Self::COMPACT_AUTO_MIN_LINKS
        {
            if let Ok(c) = Self::build_compact(g, &CompactLimits::default()) {
                return c;
            }
        }
        Self::build_wide(g)
    }

    /// Freezes any [`GraphView`] with an explicit [`StorageMode`].
    ///
    /// # Errors
    ///
    /// [`StorageMode::Compact`] returns [`GraphError::TooLarge`] when
    /// any count overflows the compact layout's `u32` indices (the
    /// value is reported, never truncated). `Auto` and `Wide` never
    /// fail.
    pub fn from_view_with<G: GraphView + ?Sized>(
        g: &G,
        mode: StorageMode,
    ) -> Result<Self, GraphError> {
        match mode {
            StorageMode::Auto => Ok(Self::from_view(g)),
            StorageMode::Wide => Ok(Self::build_wide(g)),
            StorageMode::Compact => {
                Self::build_compact(g, &CompactLimits::default())
            }
        }
    }

    fn build_wide<G: GraphView + ?Sized>(g: &G) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        nbr_offsets.push(0);
        let total = 2 * g.link_count();
        let mut neighbors = Vec::with_capacity(total);
        let mut timestamps = Vec::with_capacity(total);
        let mut nbr_ids = Vec::new();
        for u in 0..n as NodeId {
            for (v, t) in g.incident_links(u) {
                neighbors.push(v);
                timestamps.push(t);
            }
            offsets.push(neighbors.len());
            nbr_ids.extend_from_slice(g.distinct_neighbors(u));
            nbr_offsets.push(nbr_ids.len());
        }
        FrozenGraph {
            repr: Repr::Wide(WideData {
                offsets,
                neighbors,
                timestamps,
                nbr_offsets,
                nbr_ids,
            }),
            num_links: g.link_count(),
            min_ts: g.min_timestamp().unwrap_or(0),
            max_ts: g.max_timestamp().unwrap_or(0),
            revision: g.revision(),
        }
    }

    pub(crate) fn build_compact<G: GraphView + ?Sized>(
        g: &G,
        limits: &CompactLimits,
    ) -> Result<Self, GraphError> {
        let data = CompactData::build(g, limits)?;
        Ok(FrozenGraph {
            repr: Repr::Compact(Arc::new(data)),
            num_links: g.link_count(),
            min_ts: g.min_timestamp().unwrap_or(0),
            max_ts: g.max_timestamp().unwrap_or(0),
            revision: g.revision(),
        })
    }

    /// The physical representation in effect — [`StorageMode::Wide`] or
    /// [`StorageMode::Compact`], never [`StorageMode::Auto`].
    pub fn storage_mode(&self) -> StorageMode {
        match &self.repr {
            Repr::Wide(_) => StorageMode::Wide,
            Repr::Compact(_) => StorageMode::Compact,
        }
    }

    /// `true` when the graph uses the compact layout.
    pub fn is_compact(&self) -> bool {
        matches!(self.repr, Repr::Compact(_))
    }

    /// Logical heap footprint of the graph arrays in bytes (element
    /// counts times element width, plus the arena length — capacities
    /// and allocator overhead excluded). The honest numerator for the
    /// bench's bytes-per-link accounting.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Wide(w) => {
                let word = std::mem::size_of::<usize>();
                w.offsets.len() * word
                    + w.neighbors.len() * 4
                    + w.timestamps.len() * 4
                    + w.nbr_offsets.len() * word
                    + w.nbr_ids.len() * 4
            }
            Repr::Compact(c) => c.heap_bytes(),
        }
    }

    /// Raw `(min_ts, max_ts)` counters, `(0, 0)` when the graph holds
    /// no links (unlike [`GraphView::min_timestamp`], which hides the
    /// sentinel behind `None`).
    pub fn raw_timestamp_bounds(&self) -> (Timestamp, Timestamp) {
        (self.min_ts, self.max_ts)
    }

    /// Borrows the raw storage arrays for serialization. The variant
    /// mirrors [`Self::storage_mode`]; serialization layers write the
    /// arrays verbatim and reassemble through [`Self::try_from_parts`]
    /// or [`Self::try_from_compact_parts`].
    pub fn raw_storage(&self) -> RawStorage<'_> {
        match &self.repr {
            Repr::Wide(w) => RawStorage::Wide {
                offsets: &w.offsets,
                neighbors: &w.neighbors,
                timestamps: &w.timestamps,
                nbr_offsets: &w.nbr_offsets,
                nbr_ids: &w.nbr_ids,
            },
            Repr::Compact(c) => RawStorage::Compact {
                slot_offsets: &c.slot_offsets,
                byte_offsets: &c.byte_offsets,
                arena: &c.arena,
                nbr_offsets: &c.nbr_offsets,
                nbr_ids: &c.nbr_ids,
            },
        }
    }

    /// Materializes the graph as owned wide CSR arrays (cloning for a
    /// wide graph, decoding for a compact one). The interchange type
    /// for tests and cross-layout tooling.
    pub fn to_parts(&self) -> FrozenGraphParts {
        match &self.repr {
            Repr::Wide(w) => FrozenGraphParts {
                offsets: w.offsets.clone(),
                neighbors: w.neighbors.clone(),
                timestamps: w.timestamps.clone(),
                nbr_offsets: w.nbr_offsets.clone(),
                nbr_ids: w.nbr_ids.clone(),
                num_links: self.num_links,
                min_ts: self.min_ts,
                max_ts: self.max_ts,
                revision: self.revision,
            },
            Repr::Compact(c) => expand_compact(
                c,
                self.num_links,
                self.min_ts,
                self.max_ts,
                self.revision,
            ),
        }
    }

    /// Reassembles a wide frozen graph from raw CSR arrays, validating
    /// every structural invariant first. This is the deserialization
    /// path: the input may come from disk, so nothing is trusted — a
    /// graph that decodes but fails any check below must never be
    /// served.
    ///
    /// Checked invariants:
    /// * both offset arrays start at 0, are monotone, agree on the node
    ///   count and close over their flat arrays;
    /// * `neighbors`/`timestamps` are parallel and hold exactly
    ///   `2 * num_links` entries;
    /// * every id is in range and no row contains its own node;
    /// * each distinct-neighbor row is strictly ascending and equals
    ///   the sorted deduplication of its incident-link row;
    /// * the `(u, v, t)` multiset is symmetric across endpoint rows;
    /// * `min_ts`/`max_ts` match the timestamp array (`(0, 0)` when
    ///   empty).
    ///
    /// O(E log E) for the symmetry check — reconstruction is a startup
    /// cost, so correctness wins over speed here.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the violated
    /// invariant.
    pub fn try_from_parts(parts: FrozenGraphParts) -> Result<Self, GraphError> {
        parts.validate()?;
        let FrozenGraphParts {
            offsets,
            neighbors,
            timestamps,
            nbr_offsets,
            nbr_ids,
            num_links,
            min_ts,
            max_ts,
            revision,
        } = parts;
        Ok(FrozenGraph {
            repr: Repr::Wide(WideData {
                offsets,
                neighbors,
                timestamps,
                nbr_offsets,
                nbr_ids,
            }),
            num_links,
            min_ts,
            max_ts,
            revision,
        })
    }

    /// Reassembles a compact frozen graph from raw arrays, the
    /// compact-codec deserialization path. Validation is two-phase:
    /// the packed arrays are first checked structurally (offsets agree
    /// and close, every varint row decodes exactly, indices and
    /// timestamps in range — see the `compact` module), then
    /// *expanded* and run through the same
    /// semantic validator as [`Self::try_from_parts`], so a compact
    /// file can never smuggle in structure a wide file would be
    /// rejected for. The compact arrays are kept; the expansion is
    /// discarded after validation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] naming the violated
    /// invariant.
    pub fn try_from_compact_parts(
        parts: CompactGraphParts,
    ) -> Result<Self, GraphError> {
        let CompactGraphParts {
            slot_offsets,
            byte_offsets,
            arena,
            nbr_offsets,
            nbr_ids,
            num_links,
            min_ts,
            max_ts,
            revision,
        } = parts;
        let data = CompactData {
            slot_offsets: slot_offsets.into_boxed_slice(),
            byte_offsets: byte_offsets.into_boxed_slice(),
            arena: arena.into_boxed_slice(),
            nbr_offsets: nbr_offsets.into_boxed_slice(),
            nbr_ids: nbr_ids.into_boxed_slice(),
        };
        data.validate_structure(num_links)?;
        expand_compact(&data, num_links, min_ts, max_ts, revision)
            .validate()?;
        Ok(FrozenGraph {
            repr: Repr::Compact(Arc::new(data)),
            num_links,
            min_ts,
            max_ts,
            revision,
        })
    }
}

/// Decodes a compact graph into owned wide arrays.
fn expand_compact(
    c: &CompactData,
    num_links: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    revision: u64,
) -> FrozenGraphParts {
    let n = c.node_count();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut nbr_offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    nbr_offsets.push(0);
    let mut neighbors = Vec::with_capacity(2 * num_links);
    let mut timestamps = Vec::with_capacity(2 * num_links);
    let mut nbr_ids = Vec::new();
    for u in 0..n {
        for (v, t) in c.packed_row(u) {
            neighbors.push(v);
            timestamps.push(t);
        }
        offsets.push(neighbors.len());
        nbr_ids.extend_from_slice(c.distinct_row(u));
        nbr_offsets.push(nbr_ids.len());
    }
    FrozenGraphParts {
        offsets,
        neighbors,
        timestamps,
        nbr_offsets,
        nbr_ids,
        num_links,
        min_ts,
        max_ts,
        revision,
    }
}

/// Borrowed raw storage arrays of a [`FrozenGraph`], matching its
/// [`StorageMode`]. Returned by [`FrozenGraph::raw_storage`] for
/// serialization layers; `#[non_exhaustive]` like [`StorageMode`].
#[derive(Debug)]
#[non_exhaustive]
pub enum RawStorage<'a> {
    /// Wide layout: flat `usize` offsets, raw parallel arrays.
    #[non_exhaustive]
    Wide {
        /// Incident-link row bounds, `node_count + 1` entries.
        offsets: &'a [usize],
        /// Flat neighbor ids, insertion order.
        neighbors: &'a [NodeId],
        /// Flat timestamps, parallel to `neighbors`.
        timestamps: &'a [Timestamp],
        /// Distinct-neighbor row bounds.
        nbr_offsets: &'a [usize],
        /// Flat distinct neighbors, sorted ascending per row.
        nbr_ids: &'a [NodeId],
    },
    /// Compact layout: `u32` offsets + varint arena.
    #[non_exhaustive]
    Compact {
        /// Incident-slot row bounds, `node_count + 1` entries.
        slot_offsets: &'a [u32],
        /// Arena byte bounds per node, `node_count + 1` entries.
        byte_offsets: &'a [u32],
        /// Packed incident slots (varint pairs).
        arena: &'a [u8],
        /// Distinct-neighbor row bounds.
        nbr_offsets: &'a [u32],
        /// Flat distinct neighbors, sorted ascending per row.
        nbr_ids: &'a [NodeId],
    },
}

/// Owned raw CSR arrays of a wide [`FrozenGraph`], the interchange type
/// for serialization layers (see `ssf-persist`). Construct one field by
/// field from decoded bytes and hand it to
/// [`FrozenGraph::try_from_parts`] for validated reassembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrozenGraphParts {
    /// Incident-link row bounds, `node_count + 1` entries.
    pub offsets: Vec<usize>,
    /// Flat neighbor ids, per-node insertion order.
    pub neighbors: Vec<NodeId>,
    /// Flat timestamps, parallel to `neighbors`.
    pub timestamps: Vec<Timestamp>,
    /// Distinct-neighbor row bounds, `node_count + 1` entries.
    pub nbr_offsets: Vec<usize>,
    /// Flat distinct neighbors, sorted ascending per row.
    pub nbr_ids: Vec<NodeId>,
    /// Total link count (each link occupies two CSR slots).
    pub num_links: usize,
    /// Smallest timestamp, 0 when empty.
    pub min_ts: Timestamp,
    /// Largest timestamp, 0 when empty.
    pub max_ts: Timestamp,
    /// Revision of the source graph at freeze time.
    pub revision: u64,
}

/// Owned raw arrays of a compact [`FrozenGraph`], the compact-codec
/// interchange type. Hand to [`FrozenGraph::try_from_compact_parts`]
/// for validated reassembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactGraphParts {
    /// Incident-slot row bounds, `node_count + 1` entries.
    pub slot_offsets: Vec<u32>,
    /// Arena byte bounds per node, `node_count + 1` entries.
    pub byte_offsets: Vec<u32>,
    /// Packed incident slots (varint pairs).
    pub arena: Vec<u8>,
    /// Distinct-neighbor row bounds, `node_count + 1` entries.
    pub nbr_offsets: Vec<u32>,
    /// Flat distinct neighbors, sorted ascending per row.
    pub nbr_ids: Vec<NodeId>,
    /// Total link count (each link occupies two slots).
    pub num_links: usize,
    /// Smallest timestamp, 0 when empty.
    pub min_ts: Timestamp,
    /// Largest timestamp, 0 when empty.
    pub max_ts: Timestamp,
    /// Revision of the source graph at freeze time.
    pub revision: u64,
}

impl FrozenGraphParts {
    fn fail(detail: impl Into<String>) -> GraphError {
        GraphError::InvalidCsr {
            detail: detail.into(),
        }
    }

    /// Checks one offsets array: starts at 0, monotone, closes over a
    /// flat array of `flat_len` entries.
    fn check_offsets(
        name: &str,
        offsets: &[usize],
        flat_len: usize,
    ) -> Result<(), GraphError> {
        if offsets.first() != Some(&0) {
            return Err(Self::fail(format!("{name} must start at 0")));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(Self::fail(format!("{name} not monotone")));
        }
        if offsets.last() != Some(&flat_len) {
            return Err(Self::fail(format!(
                "{name} end {:?} != flat length {flat_len}",
                offsets.last()
            )));
        }
        Ok(())
    }

    pub(crate) fn validate(&self) -> Result<(), GraphError> {
        Self::check_offsets("offsets", &self.offsets, self.neighbors.len())?;
        Self::check_offsets(
            "nbr_offsets",
            &self.nbr_offsets,
            self.nbr_ids.len(),
        )?;
        if self.offsets.len() != self.nbr_offsets.len() {
            return Err(Self::fail(format!(
                "offset arrays disagree on node count: {} vs {}",
                self.offsets.len() - 1,
                self.nbr_offsets.len() - 1
            )));
        }
        let n = self.offsets.len() - 1;
        if self.timestamps.len() != self.neighbors.len() {
            return Err(Self::fail(format!(
                "timestamps length {} != neighbors length {}",
                self.timestamps.len(),
                self.neighbors.len()
            )));
        }
        if self.neighbors.len() != 2 * self.num_links {
            return Err(Self::fail(format!(
                "neighbors length {} != 2 * num_links {}",
                self.neighbors.len(),
                self.num_links
            )));
        }
        // Per-row structure: id range, self-loops, sorted distinct rows
        // and distinct == sorted-dedup(links).
        let mut fwd = Vec::with_capacity(self.num_links);
        let mut bwd = Vec::with_capacity(self.num_links);
        for u in 0..n {
            let row = &self.neighbors[self.offsets[u]..self.offsets[u + 1]];
            let times = &self.timestamps[self.offsets[u]..self.offsets[u + 1]];
            let distinct =
                &self.nbr_ids[self.nbr_offsets[u]..self.nbr_offsets[u + 1]];
            for (&v, &t) in row.iter().zip(times) {
                if v as usize >= n {
                    return Err(Self::fail(format!(
                        "node {u} links to out-of-range id {v}"
                    )));
                }
                if v as usize == u {
                    return Err(Self::fail(format!("self-loop on node {u}")));
                }
                if (u as NodeId) < v {
                    fwd.push((u as NodeId, v, t));
                } else {
                    bwd.push((v, u as NodeId, t));
                }
            }
            if distinct.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Self::fail(format!(
                    "distinct row of node {u} not strictly ascending"
                )));
            }
            let mut derived: Vec<NodeId> = row.to_vec();
            derived.sort_unstable();
            derived.dedup();
            if derived != distinct {
                return Err(Self::fail(format!(
                    "distinct row of node {u} disagrees with its links"
                )));
            }
        }
        // Undirected symmetry: each (u, v, t) must appear in both
        // endpoint rows the same number of times.
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd {
            return Err(Self::fail(
                "link multiset is asymmetric across endpoint rows",
            ));
        }
        // Timestamp bounds match the flat array ((0, 0) sentinel when
        // no links exist, as `from_view` writes).
        if self.num_links == 0 {
            if (self.min_ts, self.max_ts) != (0, 0) {
                return Err(Self::fail(
                    "empty graph must carry (0, 0) timestamp bounds",
                ));
            }
        } else {
            let lo = self.timestamps.iter().min().copied();
            let hi = self.timestamps.iter().max().copied();
            if Some(self.min_ts) != lo || Some(self.max_ts) != hi {
                return Err(Self::fail(format!(
                    "timestamp bounds ({}, {}) disagree with links",
                    self.min_ts, self.max_ts
                )));
            }
        }
        Ok(())
    }
}

impl GraphView for FrozenGraph {
    fn node_count(&self) -> usize {
        match &self.repr {
            Repr::Wide(w) => w.offsets.len() - 1,
            Repr::Compact(c) => c.node_count(),
        }
    }

    fn link_count(&self) -> usize {
        self.num_links
    }

    fn revision(&self) -> u64 {
        self.revision
    }

    fn min_timestamp(&self) -> Option<Timestamp> {
        (self.num_links > 0).then_some(self.min_ts)
    }

    fn max_timestamp(&self) -> Option<Timestamp> {
        (self.num_links > 0).then_some(self.max_ts)
    }

    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        match &self.repr {
            Repr::Wide(w) => &w.nbr_ids[w.nbr_offsets[u]..w.nbr_offsets[u + 1]],
            Repr::Compact(c) => c.distinct_row(u),
        }
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        let u = u as usize;
        match &self.repr {
            Repr::Wide(w) => IncidentLinks::from_split(
                &w.neighbors[w.offsets[u]..w.offsets[u + 1]],
                &w.timestamps[w.offsets[u]..w.offsets[u + 1]],
            ),
            Repr::Compact(c) => IncidentLinks::from_packed(c.packed_row(u)),
        }
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        match &self.repr {
            Repr::Wide(w) => w.offsets[u + 1] - w.offsets[u],
            Repr::Compact(c) => c.slot_count(u),
        }
    }
}

/// The published, immutable face of a [`DeltaGraph`]: a shared
/// [`FrozenGraph`] base plus copy-on-write overlay rows for the nodes
/// the delta touched.
///
/// Publishing one (via [`DeltaGraph::publish`]) and cloning it are both
/// a handful of `Arc` bumps — O(1) in graph size — which is what makes
/// snapshot publishing O(delta): the only per-link work is the
/// copy-on-write performed by the writer when it first touches a node
/// after a publish. Reads are lock-free and [`Send`] + [`Sync`].
#[derive(Debug, Clone)]
pub struct OverlayView {
    base: Arc<FrozenGraph>,
    /// Replacement incident-link rows for touched nodes (base row copy
    /// plus the delta's appends, insertion order preserved).
    links: Arc<HashMap<NodeId, Vec<(NodeId, Timestamp)>>>,
    /// Replacement distinct-neighbor rows, sorted ascending.
    distinct: Arc<HashMap<NodeId, Vec<NodeId>>>,
    node_count: usize,
    num_links: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    revision: u64,
    delta_links: usize,
}

impl OverlayView {
    /// The shared frozen base. Two views publishing from the same
    /// un-rebased [`DeltaGraph`] return pointer-equal `Arc`s — the
    /// structural-sharing contract snapshot tests assert with
    /// [`Arc::ptr_eq`].
    pub fn base(&self) -> &Arc<FrozenGraph> {
        &self.base
    }

    /// Links accumulated on top of the base since the last rebase.
    pub fn delta_link_count(&self) -> usize {
        self.delta_links
    }

    /// `true` when the view is exactly its frozen base (empty delta and
    /// no node growth).
    pub fn is_pristine(&self) -> bool {
        self.delta_links == 0 && self.node_count == self.base.node_count()
    }
}

impl GraphView for OverlayView {
    fn node_count(&self) -> usize {
        self.node_count
    }

    fn link_count(&self) -> usize {
        self.num_links
    }

    fn revision(&self) -> u64 {
        self.revision
    }

    fn min_timestamp(&self) -> Option<Timestamp> {
        (self.num_links > 0).then_some(self.min_ts)
    }

    fn max_timestamp(&self) -> Option<Timestamp> {
        (self.num_links > 0).then_some(self.max_ts)
    }

    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
        if let Some(row) = self.distinct.get(&u) {
            row
        } else if (u as usize) < self.base.node_count() {
            self.base.distinct_neighbors(u)
        } else {
            &[]
        }
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        if let Some(row) = self.links.get(&u) {
            IncidentLinks::from_pairs(row)
        } else if (u as usize) < self.base.node_count() {
            self.base.incident_links(u)
        } else {
            IncidentLinks::from_pairs(&[])
        }
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        if let Some(row) = self.links.get(&u) {
            row.len()
        } else if (u as usize) < self.base.node_count() {
            self.base.multi_degree(u)
        } else {
            0
        }
    }
}

/// Single-writer mutation accumulator over a shared [`FrozenGraph`].
///
/// Mirrors [`DynamicNetwork`]'s mutation semantics exactly — the same
/// self-loop rejection, node growth, sorted distinct-neighbor
/// maintenance and revision arithmetic — but copy-on-write: the shared
/// base is never touched, and only the rows of nodes the delta reaches
/// are materialized (first touch copies that node's base row). The
/// overlay rows live behind `Arc`s, so [`Self::publish`] is O(1); after
/// a publish, the writer's next mutation re-clones only the touched
/// rows (O(delta)), never the base.
///
/// Rebase with [`Self::rebase`] once the delta has grown past taste:
/// the accumulated state folds into a fresh [`FrozenGraph`] (O(V + E),
/// amortized over the delta) and the log restarts empty, preserving the
/// revision counter.
///
/// # Example
///
/// ```rust
/// use std::sync::Arc;
///
/// use dyngraph::{DeltaGraph, FrozenGraph, GraphView};
///
/// let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::empty()));
/// delta.try_add_link(0, 1, 5)?;
/// let published = delta.publish();
/// delta.try_add_link(1, 2, 6)?; // the published view is unaffected
/// assert_eq!(published.link_count(), 1);
/// assert_eq!(delta.link_count(), 2);
/// assert!(Arc::ptr_eq(published.base(), delta.base()));
/// # Ok::<(), dyngraph::GraphError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    view: OverlayView,
}

impl DeltaGraph {
    /// Starts an empty delta over `base`.
    pub fn new(base: Arc<FrozenGraph>) -> Self {
        let view = OverlayView {
            node_count: base.node_count(),
            num_links: base.link_count(),
            min_ts: base.min_timestamp().unwrap_or(0),
            max_ts: base.max_timestamp().unwrap_or(0),
            revision: base.revision(),
            delta_links: 0,
            links: Arc::new(HashMap::new()),
            distinct: Arc::new(HashMap::new()),
            base,
        };
        DeltaGraph { view }
    }

    /// The shared frozen base this delta accumulates on top of.
    pub fn base(&self) -> &Arc<FrozenGraph> {
        &self.view.base
    }

    /// Links accumulated since the base was frozen (or last rebased).
    pub fn delta_link_count(&self) -> usize {
        self.view.delta_links
    }

    /// `true` when no mutation has landed since the last rebase.
    pub fn is_clean(&self) -> bool {
        self.view.is_pristine()
    }

    /// Publishes the current state as an immutable [`OverlayView`] —
    /// `Arc` clones only, O(1) in graph size.
    pub fn publish(&self) -> OverlayView {
        self.view.clone()
    }

    /// Ensures node `id` exists, growing the node set if needed; bumps
    /// the revision once per growth, like
    /// [`DynamicNetwork::ensure_node`].
    pub fn ensure_node(&mut self, id: NodeId) {
        let want = id as usize + 1;
        if self.view.node_count < want {
            self.view.node_count = want;
            self.view.revision += 1;
        }
    }

    /// Adds an undirected link, mirroring
    /// [`DynamicNetwork::try_add_link`] bit for bit: endpoints are
    /// created on demand, multi-links are allowed, and the revision
    /// advances by the same amount as the mutable graph's would.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`.
    pub fn try_add_link(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
    ) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.ensure_node(u.max(v));
        let base = &self.view.base;
        let links = Arc::make_mut(&mut self.view.links);
        for (a, b) in [(u, v), (v, u)] {
            links
                .entry(a)
                .or_insert_with(|| base_links_row(base, a))
                .push((b, t));
        }
        let distinct = Arc::make_mut(&mut self.view.distinct);
        for (a, b) in [(u, v), (v, u)] {
            let row = distinct
                .entry(a)
                .or_insert_with(|| base_distinct_row(base, a));
            if let Err(i) = row.binary_search(&b) {
                row.insert(i, b);
            }
        }
        if self.view.num_links == 0 {
            self.view.min_ts = t;
            self.view.max_ts = t;
        } else {
            self.view.min_ts = self.view.min_ts.min(t);
            self.view.max_ts = self.view.max_ts.max(t);
        }
        self.view.num_links += 1;
        self.view.revision += 1;
        self.view.delta_links += 1;
        Ok(())
    }

    /// Adds an undirected link keeping each endpoint's row sorted by
    /// timestamp (stable: ties append after existing equal-`t` slots),
    /// mirroring the windowed authority's sorted insert bit for bit.
    /// Windowed authorities store rows in time order so expiry is a
    /// prefix drop; a delta shadowing one must insert at the same
    /// position or its iteration order — and everything downstream
    /// that hashes it — diverges. Revision arithmetic is identical to
    /// [`Self::try_add_link`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v`.
    pub fn try_add_link_sorted(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
    ) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.ensure_node(u.max(v));
        let base = &self.view.base;
        let links = Arc::make_mut(&mut self.view.links);
        for (a, b) in [(u, v), (v, u)] {
            let row = links.entry(a).or_insert_with(|| base_links_row(base, a));
            let at = row.partition_point(|&(_, ts)| ts <= t);
            row.insert(at, (b, t));
        }
        let distinct = Arc::make_mut(&mut self.view.distinct);
        for (a, b) in [(u, v), (v, u)] {
            let row = distinct
                .entry(a)
                .or_insert_with(|| base_distinct_row(base, a));
            if let Err(i) = row.binary_search(&b) {
                row.insert(i, b);
            }
        }
        if self.view.num_links == 0 {
            self.view.min_ts = t;
            self.view.max_ts = t;
        } else {
            self.view.min_ts = self.view.min_ts.min(t);
            self.view.max_ts = self.view.max_ts.max(t);
        }
        self.view.num_links += 1;
        self.view.revision += 1;
        self.view.delta_links += 1;
        Ok(())
    }

    /// Mirrors a [`WindowedView`](crate::WindowedView) horizon advance:
    /// removes every link with timestamp `< cutoff` from the rows of
    /// `affected` (copy-on-write — untouched nodes keep serving their
    /// base rows), installs the authority's post-expiry minimum
    /// timestamp, and bumps the revision exactly once, keeping the
    /// delta in lockstep with the windowed graph it shadows.
    ///
    /// `affected` must name *both* endpoints of every expired link
    /// (which [`AdvanceReport::affected`](crate::AdvanceReport) does):
    /// rows are symmetric, so each expired link is seen twice and the
    /// link count drops by half the row removals. Works identically
    /// over wide and compact bases — expiry materializes the filtered
    /// row, after which the base layout is out of the read path for
    /// that node. Returns the number of links removed.
    pub fn expire_links_below(
        &mut self,
        cutoff: Timestamp,
        affected: &[NodeId],
        new_min: Option<Timestamp>,
    ) -> usize {
        let base = &self.view.base;
        let links = Arc::make_mut(&mut self.view.links);
        let distinct = Arc::make_mut(&mut self.view.distinct);
        let mut removed_slots = 0usize;
        for &u in affected {
            let row = links.entry(u).or_insert_with(|| base_links_row(base, u));
            let before = row.len();
            row.retain(|&(_, t)| t >= cutoff);
            if row.len() == before {
                continue;
            }
            removed_slots += before - row.len();
            // Rebuilt wholesale from the filtered row, so the base
            // distinct row never needs copying first.
            let d = distinct.entry(u).or_default();
            d.clear();
            d.extend(row.iter().map(|&(v, _)| v));
            d.sort_unstable();
            d.dedup();
        }
        debug_assert_eq!(removed_slots % 2, 0, "asymmetric expiry rows");
        let removed = removed_slots / 2;
        self.view.num_links -= removed;
        if self.view.num_links == 0 {
            self.view.min_ts = 0;
            self.view.max_ts = 0;
        } else if let Some(m) = new_min {
            self.view.min_ts = m;
        }
        self.view.revision += 1;
        self.view.delta_links += removed;
        removed
    }

    /// Folds base + delta into a fresh CSR [`FrozenGraph`] without
    /// resetting this delta, preserving the base's [`StorageMode`]: a
    /// compact base refreezes compact (falling back to wide if the
    /// grown graph no longer fits), a wide base refreezes with the
    /// `Auto` policy. The frozen copy carries the current revision.
    pub fn freeze(&self) -> FrozenGraph {
        if self.view.base.is_compact() {
            match FrozenGraph::from_view_with(&self.view, StorageMode::Compact)
            {
                Ok(f) => f,
                Err(_) => FrozenGraph::build_wide(&self.view),
            }
        } else {
            FrozenGraph::from_view(&self.view)
        }
    }

    /// [`Self::freeze`] with an explicit [`StorageMode`].
    ///
    /// # Errors
    ///
    /// As [`FrozenGraph::from_view_with`]: only
    /// [`StorageMode::Compact`] can fail, with
    /// [`GraphError::TooLarge`].
    pub fn freeze_with(
        &self,
        mode: StorageMode,
    ) -> Result<FrozenGraph, GraphError> {
        FrozenGraph::from_view_with(&self.view, mode)
    }

    /// Compacts: freezes the accumulated state into a new shared base
    /// and restarts the delta empty on top of it. Returns the new base.
    /// O(V + E) — amortize by rebasing only when
    /// [`Self::delta_link_count`] has grown proportionally. The base's
    /// [`StorageMode`] is preserved (see [`Self::freeze`]).
    pub fn rebase(&mut self) -> Arc<FrozenGraph> {
        let base = Arc::new(self.freeze());
        *self = DeltaGraph::new(Arc::clone(&base));
        base
    }

    /// [`Self::rebase`] with an explicit [`StorageMode`]. On error the
    /// delta is left untouched.
    ///
    /// # Errors
    ///
    /// As [`FrozenGraph::from_view_with`].
    pub fn rebase_with(
        &mut self,
        mode: StorageMode,
    ) -> Result<Arc<FrozenGraph>, GraphError> {
        let base = Arc::new(self.freeze_with(mode)?);
        *self = DeltaGraph::new(Arc::clone(&base));
        Ok(base)
    }
}

impl GraphView for DeltaGraph {
    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    fn link_count(&self) -> usize {
        self.view.link_count()
    }

    fn revision(&self) -> u64 {
        self.view.revision()
    }

    fn min_timestamp(&self) -> Option<Timestamp> {
        self.view.min_timestamp()
    }

    fn max_timestamp(&self) -> Option<Timestamp> {
        self.view.max_timestamp()
    }

    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.view.distinct_neighbors(u)
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        self.view.incident_links(u)
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        self.view.multi_degree(u)
    }
}

/// Copy of node `a`'s incident-link base row (empty for nodes beyond
/// the base).
fn base_links_row(base: &FrozenGraph, a: NodeId) -> Vec<(NodeId, Timestamp)> {
    if (a as usize) < base.node_count() {
        base.incident_links(a).collect()
    } else {
        Vec::new()
    }
}

/// Copy of node `a`'s distinct-neighbor base row.
fn base_distinct_row(base: &FrozenGraph, a: NodeId) -> Vec<NodeId> {
    if (a as usize) < base.node_count() {
        base.distinct_neighbors(a).to_vec()
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        g.add_link(0, 1, 3);
        g.add_link(1, 2, 5);
        g.add_link(0, 1, 4);
        g.add_link(3, 1, 2);
        g
    }

    fn assert_views_agree<G: GraphView>(got: &G, want: &DynamicNetwork) {
        assert_eq!(got.node_count(), want.node_count());
        assert_eq!(got.link_count(), want.link_count());
        assert_eq!(got.revision(), want.revision());
        assert_eq!(got.min_timestamp(), want.min_timestamp());
        assert_eq!(got.max_timestamp(), want.max_timestamp());
        for u in 0..want.node_count() as NodeId {
            assert_eq!(got.distinct_neighbors(u), want.neighbors(u));
            assert_eq!(got.multi_degree(u), want.multi_degree(u));
            let links: Vec<_> = got.incident_links(u).collect();
            assert_eq!(links.as_slice(), want.incident_links(u));
            for w in 0..want.node_count() as NodeId {
                assert_eq!(got.has_link(u, w), want.has_link(u, w));
                assert_eq!(
                    got.links_between(u, w),
                    want.link_count_between(u, w)
                );
                assert_eq!(
                    got.timestamps_between(u, w),
                    want.timestamps_between(u, w)
                );
            }
        }
    }

    #[test]
    fn frozen_graph_matches_source() {
        let g = sample();
        let f = FrozenGraph::from_view(&g);
        assert_views_agree(&f, &g);
    }

    #[test]
    fn compact_graph_matches_source_and_wide() {
        let g = sample();
        let wide = FrozenGraph::from_view_with(&g, StorageMode::Wide).unwrap();
        let compact =
            FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
        assert_eq!(wide.storage_mode(), StorageMode::Wide);
        assert_eq!(compact.storage_mode(), StorageMode::Compact);
        assert!(compact.is_compact());
        assert_views_agree(&compact, &g);
        assert_eq!(compact, wide, "logical equality across layouts");
        assert_eq!(wide, compact);
        assert_eq!(compact.to_parts(), wide.to_parts());
    }

    #[test]
    fn auto_mode_keeps_small_graphs_wide() {
        let f = FrozenGraph::from_view(&sample());
        assert_eq!(f.storage_mode(), StorageMode::Wide);
        let f =
            FrozenGraph::from_view_with(&sample(), StorageMode::Auto).unwrap();
        assert_eq!(f.storage_mode(), StorageMode::Wide);
    }

    #[test]
    fn storage_mode_parses_and_displays() {
        for mode in [StorageMode::Auto, StorageMode::Wide, StorageMode::Compact]
        {
            assert_eq!(mode.as_str().parse::<StorageMode>(), Ok(mode));
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("mmap".parse::<StorageMode>().is_err());
        assert_eq!(StorageMode::default(), StorageMode::Auto);
    }

    #[test]
    fn compact_overflow_is_a_typed_error() {
        let g = sample();
        let err =
            FrozenGraph::build_compact(&g, &CompactLimits { max_index: 2 })
                .unwrap_err();
        match err {
            GraphError::TooLarge { value, limit, .. } => {
                assert_eq!(limit, 2);
                assert!(value > 2, "offending value is reported: {value}");
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn compact_is_smaller_than_wide() {
        let mut g = DynamicNetwork::new();
        // A few hundred links with coarse timestamps, the shape the
        // compact layout targets.
        for i in 0..400u32 {
            let u = i % 97;
            g.add_link(u, (u + 1 + i % 7) % 97, i / 4);
        }
        let wide = FrozenGraph::from_view_with(&g, StorageMode::Wide).unwrap();
        let compact =
            FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
        assert!(
            compact.heap_bytes() < wide.heap_bytes(),
            "compact {} >= wide {}",
            compact.heap_bytes(),
            wide.heap_bytes()
        );
    }

    #[test]
    fn empty_frozen_graph() {
        let f = FrozenGraph::empty();
        assert_eq!(f.node_count(), 0);
        assert_eq!(f.link_count(), 0);
        assert!(f.is_empty());
        assert_eq!(f.min_timestamp(), None);
        assert_eq!(f.max_timestamp(), None);
        assert_eq!(f.revision(), 0);
        assert_eq!(f.storage_mode(), StorageMode::Wide);
    }

    #[test]
    fn delta_graph_tracks_mutable_twin() {
        let g = sample();
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::from_view(&g)));
        let mut twin = g.clone();
        // Revision parity requires identical starting counters.
        assert_eq!(delta.revision(), twin.revision());
        let events = [(0u32, 4u32, 9u32), (4, 5, 1), (2, 0, 7), (0, 1, 8)];
        for &(u, v, t) in &events {
            assert!(delta.try_add_link(u, v, t).is_ok());
            assert!(twin.try_add_link(u, v, t).is_ok());
            assert_views_agree(&delta, &twin);
        }
        assert_eq!(delta.delta_link_count(), events.len());
        // Quarantine-style node growth mirrors too.
        delta.ensure_node(9);
        twin.ensure_node(9);
        assert_views_agree(&delta, &twin);
        // Self-loops are rejected without any state change.
        let r = delta.revision();
        assert!(delta.try_add_link(3, 3, 1).is_err());
        assert_eq!(delta.revision(), r);
    }

    #[test]
    fn sorted_insert_tracks_time_ordered_twin() {
        // A windowed authority keeps rows in time order via
        // insert_link_sorted; the shadowing delta must agree on
        // iteration order, not just multiset content.
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::empty()));
        let mut twin = DynamicNetwork::new();
        let events = [
            (0u32, 1u32, 5u32),
            (0, 1, 2),
            (1, 2, 9),
            (0, 1, 5),
            (0, 2, 0),
        ];
        for &(u, v, t) in &events {
            assert!(delta.try_add_link_sorted(u, v, t).is_ok());
            assert!(twin.insert_link_sorted(u, v, t).is_ok());
            assert_views_agree(&delta, &twin);
        }
        // Rows really are time-sorted.
        let row: Vec<_> = delta.incident_links(0).collect();
        let mut sorted = row.clone();
        sorted.sort_by_key(|&(_, t)| t);
        assert_eq!(row, sorted);
        // Self-loops are rejected without any state change.
        let r = delta.revision();
        assert!(delta.try_add_link_sorted(3, 3, 1).is_err());
        assert_eq!(delta.revision(), r);
    }

    #[test]
    fn delta_graph_over_compact_base() {
        let g = sample();
        let base =
            FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
        let mut delta = DeltaGraph::new(Arc::new(base));
        let mut twin = g.clone();
        for &(u, v, t) in &[(0u32, 4u32, 9u32), (4, 5, 1), (0, 1, 8)] {
            assert!(delta.try_add_link(u, v, t).is_ok());
            assert!(twin.try_add_link(u, v, t).is_ok());
            assert_views_agree(&delta, &twin);
        }
        // Rebase preserves compactness.
        let new_base = delta.rebase();
        assert!(new_base.is_compact());
        assert_views_agree(&*new_base, &twin);
        // Explicit rebase_with can switch layouts.
        assert!(delta.try_add_link(5, 6, 11).is_ok());
        assert!(twin.try_add_link(5, 6, 11).is_ok());
        let wide_base = delta.rebase_with(StorageMode::Wide).unwrap();
        assert!(!wide_base.is_compact());
        assert_views_agree(&*wide_base, &twin);
    }

    #[test]
    fn publish_is_immutable_and_shares_the_base() {
        let g = sample();
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::from_view(&g)));
        assert!(delta.is_clean());
        let clean = delta.publish();
        assert!(clean.is_pristine());
        assert!(Arc::ptr_eq(clean.base(), delta.base()));
        assert!(delta.try_add_link(0, 4, 9).is_ok());
        let dirty = delta.publish();
        assert_eq!(clean.link_count(), g.link_count());
        assert_eq!(dirty.link_count(), g.link_count() + 1);
        assert_eq!(dirty.delta_link_count(), 1);
        assert!(Arc::ptr_eq(clean.base(), dirty.base()));
        // Further writes never reach the published views.
        assert!(delta.try_add_link(0, 5, 10).is_ok());
        assert_eq!(dirty.link_count(), g.link_count() + 1);
    }

    #[test]
    fn rebase_preserves_content_and_revision() {
        let g = sample();
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::from_view(&g)));
        let mut twin = g.clone();
        for &(u, v, t) in &[(0u32, 4u32, 9u32), (4, 5, 1)] {
            assert!(delta.try_add_link(u, v, t).is_ok());
            assert!(twin.try_add_link(u, v, t).is_ok());
        }
        let old_base = Arc::clone(delta.base());
        let new_base = delta.rebase();
        assert!(!Arc::ptr_eq(&old_base, &new_base));
        assert!(delta.is_clean());
        assert_eq!(delta.delta_link_count(), 0);
        assert_views_agree(&delta, &twin);
        assert_views_agree(&*new_base, &twin);
        // And mutation continues seamlessly after the rebase.
        assert!(delta.try_add_link(5, 6, 2).is_ok());
        assert!(twin.try_add_link(5, 6, 2).is_ok());
        assert_views_agree(&delta, &twin);
    }

    #[test]
    fn overlay_answers_beyond_base_node_range() {
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::empty()));
        delta.ensure_node(3);
        assert_eq!(delta.node_count(), 4);
        assert_eq!(delta.distinct_neighbors(2), &[] as &[NodeId]);
        assert_eq!(delta.multi_degree(2), 0);
        assert_eq!(delta.incident_links(2).count(), 0);
        assert!(!delta.has_link(0, 2));
    }

    #[test]
    fn try_from_parts_round_trips() {
        let g = sample();
        let f = FrozenGraph::from_view(&g);
        let rebuilt = FrozenGraph::try_from_parts(f.to_parts()).unwrap();
        assert_eq!(rebuilt, f);
        let empty =
            FrozenGraph::try_from_parts(FrozenGraph::empty().to_parts())
                .unwrap();
        assert_eq!(empty, FrozenGraph::empty());
    }

    /// Raw compact arrays cloned out through `raw_storage`, the way the
    /// serialization layer writes them.
    fn compact_parts_of(f: &FrozenGraph) -> CompactGraphParts {
        let (min_ts, max_ts) = f.raw_timestamp_bounds();
        match f.raw_storage() {
            RawStorage::Compact {
                slot_offsets,
                byte_offsets,
                arena,
                nbr_offsets,
                nbr_ids,
                ..
            } => CompactGraphParts {
                slot_offsets: slot_offsets.to_vec(),
                byte_offsets: byte_offsets.to_vec(),
                arena: arena.to_vec(),
                nbr_offsets: nbr_offsets.to_vec(),
                nbr_ids: nbr_ids.to_vec(),
                num_links: f.link_count(),
                min_ts,
                max_ts,
                revision: f.revision(),
            },
            RawStorage::Wide { .. } => panic!("expected compact storage"),
        }
    }

    #[test]
    fn try_from_compact_parts_round_trips() {
        let g = sample();
        let f = FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
        let rebuilt =
            FrozenGraph::try_from_compact_parts(compact_parts_of(&f)).unwrap();
        assert_eq!(rebuilt, f);
        assert!(rebuilt.is_compact());
        assert_views_agree(&rebuilt, &g);
    }

    #[test]
    fn try_from_compact_parts_rejects_corruption() {
        let g = sample();
        let f = FrozenGraph::from_view_with(&g, StorageMode::Compact).unwrap();
        let good = compact_parts_of(&f);
        assert!(FrozenGraph::try_from_compact_parts(good.clone()).is_ok());
        type Mutation = Box<dyn Fn(&mut CompactGraphParts)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("slot offsets start", Box::new(|p| p.slot_offsets[0] = 1)),
            (
                "byte offsets end",
                Box::new(|p| {
                    let last = p.byte_offsets.len() - 1;
                    p.byte_offsets[last] += 1;
                }),
            ),
            ("arena truncated", Box::new(|p| p.arena[0] |= 0x80)),
            ("local index out of range", Box::new(|p| p.arena[0] = 0x7f)),
            ("distinct unsorted", Box::new(|p| p.nbr_ids.swap(0, 1))),
            ("link count", Box::new(|p| p.num_links += 1)),
            ("timestamp bounds", Box::new(|p| p.max_ts += 7)),
            (
                "node count agreement",
                Box::new(|p| {
                    p.nbr_offsets.pop();
                }),
            ),
        ];
        for (name, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            let got = FrozenGraph::try_from_compact_parts(bad);
            assert!(
                matches!(got, Err(GraphError::InvalidCsr { .. })),
                "mutation {name:?} was accepted: {got:?}"
            );
        }
    }

    #[test]
    fn try_from_parts_rejects_every_broken_invariant() {
        let f = FrozenGraph::from_view(&sample());
        let good = f.to_parts();
        assert!(FrozenGraph::try_from_parts(good.clone()).is_ok());
        type Mutation = Box<dyn Fn(&mut crate::FrozenGraphParts)>;
        let mutations: Vec<(&str, Mutation)> = vec![
            ("offsets start", Box::new(|p| p.offsets[0] = 1)),
            ("offsets monotone", Box::new(|p| p.offsets[2] = 0)),
            (
                "offsets end",
                Box::new(|p| {
                    let last = p.offsets.len() - 1;
                    p.offsets[last] += 1;
                }),
            ),
            (
                "timestamps parallel",
                Box::new(|p| {
                    p.timestamps.pop();
                    let last = p.offsets.len() - 1;
                    p.offsets[last] -= 1;
                }),
            ),
            ("link count", Box::new(|p| p.num_links += 1)),
            ("id range", Box::new(|p| p.neighbors[0] = 99)),
            (
                "self loop",
                Box::new(|p| {
                    // Node 0's first neighbor becomes node 0 itself.
                    p.neighbors[p.offsets[0]] = 0;
                }),
            ),
            (
                "distinct sorted",
                Box::new(|p| {
                    p.nbr_ids.swap(0, 1);
                }),
            ),
            (
                "symmetry",
                Box::new(|p| {
                    // Retarget one directed slot without its mirror.
                    p.neighbors[p.offsets[1]] = 2;
                }),
            ),
            ("timestamp bounds", Box::new(|p| p.max_ts += 7)),
            (
                "node count agreement",
                Box::new(|p| {
                    p.nbr_offsets.pop();
                }),
            ),
        ];
        for (name, mutate) in mutations {
            let mut bad = good.clone();
            mutate(&mut bad);
            let got = FrozenGraph::try_from_parts(bad);
            assert!(
                matches!(got, Err(GraphError::InvalidCsr { .. })),
                "mutation {name:?} was accepted: {got:?}"
            );
        }
    }

    #[test]
    fn try_from_parts_rejects_nonzero_empty_bounds() {
        let mut p = FrozenGraph::empty().to_parts();
        p.min_ts = 3;
        p.max_ts = 3;
        assert!(matches!(
            FrozenGraph::try_from_parts(p),
            Err(GraphError::InvalidCsr { .. })
        ));
    }

    #[test]
    fn frozen_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenGraph>();
        assert_send_sync::<DeltaGraph>();
        assert_send_sync::<OverlayView>();
    }
}
