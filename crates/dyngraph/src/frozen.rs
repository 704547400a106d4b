//! Immutable CSR graphs and copy-on-write delta overlays.
//!
//! A [`DynamicNetwork`] is built for ingestion: per-node `Vec` rows that
//! grow in place. Serving wants the opposite trade — an immutable,
//! `Arc`-shared value that any number of reader threads can score
//! against while the single writer keeps mutating its own copy. This
//! module provides that split:
//!
//! * [`FrozenGraph`] — the network frozen into CSR (compressed sparse
//!   row) layout: flat `usize`-offset arrays over raw `u32`
//!   neighbor/timestamp pairs, so every incident-link row is two slices
//!   read without decoding.
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
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::view::{GraphView, IncidentLinks};
#[cfg(any(test, doc))]
use crate::DynamicNetwork;
use crate::{GraphError, NodeId, Timestamp};

/// An immutable dynamic network in CSR layout.
///
/// Row `u` of the incident-link CSR spans the per-node slice of the
/// flat arrays, preserving [`DynamicNetwork::incident_links`]'s
/// insertion order; the distinct-neighbor CSR mirrors
/// [`DynamicNetwork::neighbors`]'s sorted rows. Freezing copies the
/// source once (O(V + E)); afterwards the graph is shared by `Arc`
/// cloning and read concurrently without locks.
///
/// # Example
///
/// ```rust
/// use dyngraph::{DynamicNetwork, FrozenGraph, GraphView};
///
/// let mut g = DynamicNetwork::new();
/// g.add_link(0, 1, 3);
/// g.add_link(1, 2, 5);
/// let frozen = FrozenGraph::from_view(&g);
/// assert_eq!(frozen.node_count(), 3);
/// assert_eq!(frozen.distinct_neighbors(1), &[0, 2]);
/// assert_eq!(frozen.revision(), g.revision());
/// assert_eq!(FrozenGraph::from_view(&frozen), frozen);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenGraph {
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
    num_links: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Revision of the source graph at freeze time.
    revision: u64,
}

impl Default for FrozenGraph {
    fn default() -> Self {
        FrozenGraph {
            offsets: vec![0],
            neighbors: Vec::new(),
            timestamps: Vec::new(),
            nbr_offsets: vec![0],
            nbr_ids: Vec::new(),
            num_links: 0,
            min_ts: 0,
            max_ts: 0,
            revision: 0,
        }
    }
}

impl FrozenGraph {
    /// An empty frozen graph at revision 0.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Freezes any [`GraphView`]. Preserves node ids, per-node link
    /// insertion order, timestamps and the revision counter. O(V + E).
    pub fn from_view<G: GraphView + ?Sized>(g: &G) -> Self {
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
            g.incident_links(u).for_each(|(v, t)| {
                neighbors.push(v);
                timestamps.push(t);
            });
            offsets.push(neighbors.len());
            nbr_ids.extend_from_slice(g.distinct_neighbors(u));
            nbr_offsets.push(nbr_ids.len());
        }
        FrozenGraph {
            offsets,
            neighbors,
            timestamps,
            nbr_offsets,
            nbr_ids,
            num_links: g.link_count(),
            min_ts: g.min_timestamp().unwrap_or(0),
            max_ts: g.max_timestamp().unwrap_or(0),
            revision: g.revision(),
        }
    }

    /// Logical heap footprint of the graph arrays in bytes (element
    /// counts times element width — capacities and allocator overhead
    /// excluded). The honest numerator for the bench's bytes-per-link
    /// accounting.
    pub fn heap_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        self.offsets.len() * word
            + self.neighbors.len() * 4
            + self.timestamps.len() * 4
            + self.nbr_offsets.len() * word
            + self.nbr_ids.len() * 4
    }

    /// Raw `(min_ts, max_ts)` counters, `(0, 0)` when the graph holds
    /// no links (unlike [`GraphView::min_timestamp`], which hides the
    /// sentinel behind `None`).
    pub fn raw_timestamp_bounds(&self) -> (Timestamp, Timestamp) {
        (self.min_ts, self.max_ts)
    }

    /// Copies the graph out as owned CSR arrays, the interchange type
    /// for tests and tooling.
    pub fn to_parts(&self) -> FrozenGraphParts {
        FrozenGraphParts {
            offsets: self.offsets.clone(),
            neighbors: self.neighbors.clone(),
            timestamps: self.timestamps.clone(),
            nbr_offsets: self.nbr_offsets.clone(),
            nbr_ids: self.nbr_ids.clone(),
            num_links: self.num_links,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
            revision: self.revision,
        }
    }

    /// Reassembles a frozen graph from raw CSR arrays, validating
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
    /// O(V + E) on a graph whose endpoint rows list each link's
    /// timestamps in the same order, as `from_view` writes them: each
    /// row is checked in O(deg) against a position array, and symmetry
    /// compares each distinct link's two timestamp runs once, sorting
    /// them only when they differ as stored.
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
            offsets,
            neighbors,
            timestamps,
            nbr_offsets,
            nbr_ids,
            num_links,
            min_ts,
            max_ts,
            revision,
        })
    }
}

/// Owned raw CSR arrays of a [`FrozenGraph`], the interchange type for
/// serialization layers (see `ssf-persist`). Construct one field by
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

    /// The length checks every row walk relies on: both offset arrays
    /// well formed over their flat arrays and agreeing on the node
    /// count, `timestamps` parallel to `neighbors`, two slots per link.
    /// Returns the node count.
    fn check_shape(&self) -> Result<usize, GraphError> {
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
        if self.timestamps.len() != self.neighbors.len() {
            return Err(Self::fail(format!(
                "timestamps length {} != neighbors length {}",
                self.timestamps.len(),
                self.neighbors.len()
            )));
        }
        if self.num_links.checked_mul(2) != Some(self.neighbors.len()) {
            return Err(Self::fail(format!(
                "neighbors length {} != 2 * num_links {}",
                self.neighbors.len(),
                self.num_links
            )));
        }
        Ok(self.offsets.len() - 1)
    }

    /// Timestamp bounds match `seen`, the `(min, max)` of the flat
    /// array ((0, 0) sentinel when no links exist, as `from_view`
    /// writes).
    fn check_timestamp_bounds(
        &self,
        seen: (Timestamp, Timestamp),
    ) -> Result<(), GraphError> {
        if self.num_links == 0 {
            if (self.min_ts, self.max_ts) != (0, 0) {
                return Err(Self::fail(
                    "empty graph must carry (0, 0) timestamp bounds",
                ));
            }
        } else if (self.min_ts, self.max_ts) != seen {
            return Err(Self::fail(format!(
                "timestamp bounds ({}, {}) disagree with links",
                self.min_ts, self.max_ts
            )));
        }
        Ok(())
    }

    /// Checks every invariant [`FrozenGraph::try_from_parts`] lists, in
    /// the order the reference check does, so both report the same
    /// first violation. O(V + E), with no sort unless a link's two
    /// endpoint rows record its timestamps in different orders.
    ///
    /// The row pass checks each row in O(deg): `pos` records where each
    /// distinct neighbor sits in the row's distinct list, and each
    /// incident slot must land inside that list, first visits counted,
    /// so the row equals the sorted deduplication of its links without
    /// sorting anything. The same positions counting-sort the row's
    /// timestamps into one run per distinct link, slot order kept
    /// within a run, and the pass folds the timestamp bounds.
    ///
    /// Symmetry then compares each distinct link once, from its larger
    /// endpoint `u`: the run of `v < u` in row `u` against the run of
    /// `u` in row `v`. Rows are visited in ascending order, so row `v`'s
    /// entries above `v` are asked for in ascending order, and a cursor
    /// per row that only moves forward finds each one. Two runs hold the
    /// same timestamp multiset iff they are equal once sorted; they are
    /// sorted (in place: each run is compared once) only when they
    /// differ as stored. The slots pointing down must number
    /// `num_links`, half of all slots; a cursor consumes each entry at
    /// most once, and runs of different lengths never compare equal, so
    /// once every compare succeeds no entry pointing up is left over.
    pub(crate) fn validate(&self) -> Result<(), GraphError> {
        let n = self.check_shape()?;
        let (offsets, nbr_offsets) = (&self.offsets, &self.nbr_offsets);
        // Index into `nbr_ids` of each node in the latest distinct row
        // listing it. Rows cover ascending index ranges, so a position
        // inside the current row's range was written by that row.
        let mut pos = vec![usize::MAX; n];
        // `ends[j + 1]` counts entry `j`'s slots, then ends its run in
        // `runs`; the runs tile the slots, so run `j` starts at
        // `ends[j]`.
        let mut ends = vec![0usize; self.nbr_ids.len() + 1];
        let mut runs: Vec<Timestamp> = vec![0; self.timestamps.len()];
        let (mut lo, mut hi) = (Timestamp::MAX, Timestamp::MIN);
        let mut down_slots = 0;
        for u in 0..n {
            let slots = offsets[u]..offsets[u + 1];
            let listed = nbr_offsets[u]..nbr_offsets[u + 1];
            for &v in &self.neighbors[slots.clone()] {
                if v as usize >= n {
                    return Err(Self::fail(format!(
                        "node {u} links to out-of-range id {v}"
                    )));
                }
                if v as usize == u {
                    return Err(Self::fail(format!("self-loop on node {u}")));
                }
                down_slots += usize::from((v as usize) < u);
            }
            let distinct = &self.nbr_ids[listed.clone()];
            if distinct.windows(2).any(|w| w[0] >= w[1]) {
                return Err(Self::fail(format!(
                    "distinct row of node {u} not strictly ascending"
                )));
            }
            let disagree = || {
                Self::fail(format!(
                    "distinct row of node {u} disagrees with its links"
                ))
            };
            for (j, &d) in listed.clone().zip(distinct) {
                *pos.get_mut(d as usize).ok_or_else(disagree)? = j;
            }
            let mut first_visits = 0;
            for &v in &self.neighbors[slots.clone()] {
                let j = pos[v as usize];
                if !listed.contains(&j) {
                    return Err(disagree());
                }
                first_visits += usize::from(ends[j + 1] == 0);
                ends[j + 1] += 1;
            }
            if first_visits != distinct.len() {
                return Err(disagree());
            }
            // Counts become run starts; the scatter moves each one on to
            // its run's end.
            let mut start = slots.start;
            for end in &mut ends[listed.start + 1..=listed.end] {
                start += std::mem::replace(end, start);
            }
            let links = self.neighbors[slots.clone()]
                .iter()
                .zip(&self.timestamps[slots]);
            for (&v, &t) in links {
                let end = &mut ends[pos[v as usize] + 1];
                runs[*end] = t;
                *end += 1;
                lo = lo.min(t);
                hi = hi.max(t);
            }
        }
        // Undirected symmetry: each (u, v, t) must appear in both
        // endpoint rows the same number of times.
        let asymmetric =
            || Self::fail("link multiset is asymmetric across endpoint rows");
        if down_slots != self.num_links {
            return Err(asymmetric());
        }
        // `pos` becomes the cursors: `cursor[v]` is the first entry of
        // row `v` above `v` that no larger endpoint has matched yet.
        let mut cursor = pos;
        for u in 0..n {
            let listed = nbr_offsets[u]..nbr_offsets[u + 1];
            let below = self.nbr_ids[listed.clone()]
                .iter()
                .take_while(|&&v| (v as usize) < u)
                .count();
            cursor[u] = listed.start + below;
            for j in listed.start..cursor[u] {
                let v = self.nbr_ids[j] as usize;
                let k = cursor[v];
                if k == nbr_offsets[v + 1] || self.nbr_ids[k] as usize != u {
                    return Err(asymmetric());
                }
                cursor[v] = k + 1;
                // Row `v`'s runs all lie before row `u`'s.
                let (before, from) = runs.split_at_mut(ends[j]);
                let theirs = &mut before[ends[k]..ends[k + 1]];
                let ours = &mut from[..ends[j + 1] - ends[j]];
                if ours != theirs {
                    ours.sort_unstable();
                    theirs.sort_unstable();
                    if ours != theirs {
                        return Err(asymmetric());
                    }
                }
            }
        }
        self.check_timestamp_bounds((lo, hi))
    }
}

impl GraphView for FrozenGraph {
    fn node_count(&self) -> usize {
        self.offsets.len() - 1
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
        &self.nbr_ids[self.nbr_offsets[u]..self.nbr_offsets[u + 1]]
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        let u = u as usize;
        let row = self.offsets[u]..self.offsets[u + 1];
        IncidentLinks::from_split(
            &self.neighbors[row.clone()],
            &self.timestamps[row],
        )
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
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
    links: Arc<RowMap<Vec<(NodeId, Timestamp)>>>,
    /// Replacement distinct-neighbor rows, sorted ascending.
    distinct: Arc<RowMap<Vec<NodeId>>>,
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

    /// `true` when the view is exactly its frozen base, revision
    /// included. Every mutation bumps the revision — an advance that
    /// expired nothing too — so the revisions agree only before the
    /// first one.
    pub fn is_pristine(&self) -> bool {
        self.revision == self.base.revision()
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
            links: Arc::new(RowMap::default()),
            distinct: Arc::new(RowMap::default()),
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
        self.insert_link(u, v, t, false)
    }

    /// Like [`Self::try_add_link`], but places the link at its
    /// timestamp-sorted position in each endpoint row (stable: ties land
    /// after existing equal-`t` slots) instead of appending. A
    /// [`WindowedView`](crate::WindowedView) keeps its rows in time order
    /// this way, so expiry only ever removes a row prefix; for monotone
    /// streams the sorted position is the end of the row.
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
        self.insert_link(u, v, t, true)
    }

    fn insert_link(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
        time_sorted: bool,
    ) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.ensure_node(u.max(v));
        let base = &self.view.base;
        let links = Arc::make_mut(&mut self.view.links);
        for (a, b) in [(u, v), (v, u)] {
            let row = links.entry(a).or_insert_with(|| base_links_row(base, a));
            let at = if time_sorted {
                row.partition_point(|&(_, ts)| ts <= t)
            } else {
                row.len()
            };
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

    /// One [`WindowedView`](crate::WindowedView) horizon advance:
    /// removes every link with timestamp `< cutoff` from the rows of
    /// `affected` (copy-on-write — untouched nodes keep serving their
    /// base rows), installs `new_min` as the post-expiry minimum
    /// timestamp, and bumps the revision exactly once, even when
    /// nothing expired.
    ///
    /// `affected` must name *both* endpoints of every expired link
    /// (which [`AdvanceReport::affected`](crate::AdvanceReport) does):
    /// rows are symmetric, so each expired link is seen twice and the
    /// link count drops by half the row removals. Expiry materializes
    /// the filtered row, after which the base row is out of the read
    /// path for that node. Returns the number of links removed.
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
    /// resetting this delta. The frozen copy carries the current
    /// revision.
    pub fn freeze(&self) -> FrozenGraph {
        FrozenGraph::from_view(&self.view)
    }

    /// Compacts: freezes the accumulated state into a new shared base
    /// and restarts the delta empty on top of it. Returns the new base.
    /// O(V + E) — amortize by rebasing only when
    /// [`Self::delta_link_count`] has grown proportionally.
    pub fn rebase(&mut self) -> Arc<FrozenGraph> {
        let base = Arc::new(self.freeze());
        *self = DeltaGraph::new(Arc::clone(&base));
        base
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

/// Overlay rows keyed by node id. Every row read on a published
/// overlay probes one of these maps, so they hash with [`NodeIdHasher`]
/// instead of the default SipHash.
type RowMap<V> = HashMap<NodeId, V, BuildHasherDefault<NodeIdHasher>>;

/// A fixed, seedless hasher for node ids: every written word is folded
/// into the state, and [`Hasher::finish`] applies the splitmix64
/// finalizer, so the low bits the table indexes by depend on every id
/// bit. Ids are dense in `0..node_count`, so forcing collisions would
/// need ids spread far beyond the table size, which grows the node count
/// itself; DESIGN.md §10 has the argument.
#[derive(Debug, Clone, Copy, Default)]
struct NodeIdHasher(u64);

impl Hasher for NodeIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 =
            (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
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
        assert_eq!(got.revision(), want.revision());
        assert_views_agree_no_rev(got, want);
    }

    fn assert_views_agree_no_rev<G: GraphView>(got: &G, want: &DynamicNetwork) {
        assert_eq!(got.node_count(), want.node_count());
        assert_eq!(got.link_count(), want.link_count());
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
    fn empty_frozen_graph() {
        let f = FrozenGraph::empty();
        assert_eq!(f.node_count(), 0);
        assert_eq!(f.link_count(), 0);
        assert!(f.is_empty());
        assert_eq!(f.min_timestamp(), None);
        assert_eq!(f.max_timestamp(), None);
        assert_eq!(f.revision(), 0);
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
        // Sorted inserts must agree with a stable time-sorted rebuild on
        // iteration order, not just multiset content. The twin counts
        // the delta's revision: one node-growth bump, then one per link.
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::empty()));
        let events = [
            (0u32, 1u32, 5u32),
            (0, 1, 2),
            (1, 2, 9),
            (0, 1, 5),
            (0, 2, 0),
        ];
        let mut revision = 0u64;
        for i in 0..events.len() {
            let (u, v, t) = events[i];
            let nodes = delta.node_count();
            assert!(delta.try_add_link_sorted(u, v, t).is_ok());
            revision += u64::from(delta.node_count() > nodes) + 1;
            let mut sorted = events[..=i].to_vec();
            sorted.sort_by_key(|&(_, _, t)| t);
            let mut twin = DynamicNetwork::new();
            twin.ensure_node(delta.node_count() as NodeId - 1);
            for (u, v, t) in sorted {
                twin.add_link(u, v, t);
            }
            assert_views_agree_no_rev(&delta, &twin);
            assert_eq!(delta.revision(), revision);
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
        // An expiry that removes nothing is still a mutation: the delta
        // is no longer its base, so a checkpoint must rebase it.
        delta.rebase();
        delta.expire_links_below(0, &[], delta.min_timestamp());
        assert_eq!(delta.delta_link_count(), 0);
        assert!(!delta.is_clean());
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
            (
                "unmatched links pointing up",
                Box::new(|p| {
                    // One-sided slots last in rows 0 and 2 that no larger
                    // endpoint asks for: no symmetry cursor reaches them,
                    // only the count of slots pointing down does.
                    for u in [0, 2] {
                        let len = p.offsets[u + 1] - p.offsets[u];
                        insert_slot(p, u, len, 3, 3);
                        rederive_distinct(p, u);
                    }
                    p.num_links += 1;
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

    /// The direct statement of `validate`'s invariants: a sorted copy
    /// per row and one global sort of every link, O(E log E). The
    /// differential oracle the fast check is tested against.
    fn validate_reference(p: &FrozenGraphParts) -> Result<(), GraphError> {
        let n = p.check_shape()?;
        // Per-row structure: id range, self-loops, sorted distinct rows
        // and distinct == sorted-dedup(links).
        let mut fwd = Vec::with_capacity(p.num_links);
        let mut bwd = Vec::with_capacity(p.num_links);
        for u in 0..n {
            let row = &p.neighbors[p.offsets[u]..p.offsets[u + 1]];
            let times = &p.timestamps[p.offsets[u]..p.offsets[u + 1]];
            let distinct = &p.nbr_ids[p.nbr_offsets[u]..p.nbr_offsets[u + 1]];
            for (&v, &t) in row.iter().zip(times) {
                if v as usize >= n {
                    return Err(FrozenGraphParts::fail(format!(
                        "node {u} links to out-of-range id {v}"
                    )));
                }
                if v as usize == u {
                    return Err(FrozenGraphParts::fail(format!(
                        "self-loop on node {u}"
                    )));
                }
                if (u as NodeId) < v {
                    fwd.push((u as NodeId, v, t));
                } else {
                    bwd.push((v, u as NodeId, t));
                }
            }
            if distinct.windows(2).any(|w| w[0] >= w[1]) {
                return Err(FrozenGraphParts::fail(format!(
                    "distinct row of node {u} not strictly ascending"
                )));
            }
            let mut derived: Vec<NodeId> = row.to_vec();
            derived.sort_unstable();
            derived.dedup();
            if derived != distinct {
                return Err(FrozenGraphParts::fail(format!(
                    "distinct row of node {u} disagrees with its links"
                )));
            }
        }
        // Undirected symmetry: each (u, v, t) must appear in both
        // endpoint rows the same number of times.
        fwd.sort_unstable();
        bwd.sort_unstable();
        if fwd != bwd {
            return Err(FrozenGraphParts::fail(
                "link multiset is asymmetric across endpoint rows",
            ));
        }
        let ts = p.timestamps.iter().copied();
        let seen = (ts.clone().min().unwrap_or(0), ts.max().unwrap_or(0));
        p.check_timestamp_bounds(seen)
    }

    /// Inserts the slot `(v, t)` at position `at` (wrapped into the
    /// row) of row `u`, shifting every later row bound.
    fn insert_slot(
        p: &mut FrozenGraphParts,
        u: usize,
        at: usize,
        v: NodeId,
        t: Timestamp,
    ) {
        let (lo, hi) = (p.offsets[u], p.offsets[u + 1]);
        let at = lo + at % (hi - lo + 1);
        p.neighbors.insert(at, v);
        p.timestamps.insert(at, t);
        for bound in &mut p.offsets[u + 1..] {
            *bound += 1;
        }
    }

    /// Rewrites row `u`'s distinct neighbors as the sorted
    /// deduplication of its links, so only the other invariants can
    /// fail.
    fn rederive_distinct(p: &mut FrozenGraphParts, u: usize) {
        let mut row = p.neighbors[p.offsets[u]..p.offsets[u + 1]].to_vec();
        row.sort_unstable();
        row.dedup();
        let (lo, hi) = (p.nbr_offsets[u], p.nbr_offsets[u + 1]);
        let grown = row.len() as isize - (hi - lo) as isize;
        p.nbr_ids.splice(lo..hi, row);
        for bound in &mut p.nbr_offsets[u + 1..] {
            *bound = bound.checked_add_signed(grown).unwrap();
        }
    }

    /// One single mutation of a valid multigraph's parts: a swapped
    /// neighbor, a changed timestamp, a one-sided link, a duplicated
    /// slot, an out-of-range id, a parallel link's timestamps reordered
    /// in one row, or two neighbors' timestamps exchanged in one row.
    /// `picks` choose the slots, rows and values; `rederive` keeps the
    /// distinct rows consistent with the links so the symmetry check is
    /// the one under test.
    fn mutate(
        p: &mut FrozenGraphParts,
        kind: usize,
        picks: &[usize],
        rederive: bool,
    ) {
        let n = p.offsets.len() - 1;
        let slots = p.neighbors.len();
        let slot = |i: usize| picks[i] % slots.max(1);
        let row_of = |p: &FrozenGraphParts, s: usize| {
            p.offsets.partition_point(|&b| b <= s) - 1
        };
        let mut touched = Vec::new();
        match kind {
            0 if slots > 0 => {
                let (i, j) = (slot(0), slot(1));
                p.neighbors.swap(i, j);
                touched = vec![row_of(p, i), row_of(p, j)];
            }
            1 if slots > 0 => {
                let i = slot(0);
                p.timestamps[i] = (picks[1] % 6) as Timestamp;
            }
            2 if n > 1 => {
                // Two one-sided slots make a whole link's worth: the
                // graph is only valid if they happen to mirror.
                for k in [0, 2] {
                    let u = picks[k] % n;
                    let v = (u + 1 + picks[k + 1] % (n - 1)) % n;
                    let t = (picks[k + 1] % 3) as Timestamp;
                    insert_slot(p, u, picks[k], v as NodeId, t);
                    touched.push(u);
                }
                p.num_links += 1;
            }
            3 if slots > 0 => {
                // Duplicate a slot, and with `picks[2]` odd its mirror:
                // a parallel link with the same timestamp is valid.
                let i = slot(0);
                let u = row_of(p, i);
                let (v, t) = (p.neighbors[i], p.timestamps[i]);
                insert_slot(p, u, picks[1], v, t);
                if picks[2] % 2 == 1 {
                    let v = v as usize;
                    insert_slot(p, v, picks[3], u as NodeId, t);
                    p.num_links += 1;
                }
            }
            4 if slots > 0 => {
                p.neighbors[slot(0)] = (n + picks[1] % 3) as NodeId;
            }
            5 if !p.nbr_ids.is_empty() => {
                let i = picks[0] % p.nbr_ids.len();
                p.nbr_ids[i] = (n + picks[1] % 3) as NodeId;
            }
            6 if slots > 0 => {
                // Rotate the timestamps of one parallel link within one
                // endpoint row only: still valid. Starts at the first
                // slot from `picks[0]` on whose neighbor repeats in its
                // row, so the rotation usually moves something.
                let repeats = |i: usize| {
                    let u = row_of(p, i);
                    let row = &p.neighbors[p.offsets[u]..p.offsets[u + 1]];
                    row.iter().filter(|&&v| v == p.neighbors[i]).count() > 1
                };
                let i = (0..slots)
                    .map(|k| (slot(0) + k) % slots)
                    .find(|&i| repeats(i))
                    .unwrap_or(slot(0));
                let u = row_of(p, i);
                let parallel: Vec<usize> = (p.offsets[u]..p.offsets[u + 1])
                    .filter(|&s| p.neighbors[s] == p.neighbors[i])
                    .collect();
                let mut times: Vec<Timestamp> =
                    parallel.iter().map(|&s| p.timestamps[s]).collect();
                let by = picks[1] % times.len();
                times.rotate_left(by);
                for (&s, t) in parallel.iter().zip(times) {
                    p.timestamps[s] = t;
                }
            }
            7 if slots > 0 => {
                // Exchange the timestamps of two slots with different
                // neighbors in one row: asymmetric unless the two
                // timestamps are equal or the exchange happens to
                // mirror.
                let i = slot(0);
                let u = row_of(p, i);
                let row = p.offsets[u]..p.offsets[u + 1];
                let other = (0..row.len())
                    .map(|k| row.start + (picks[1] + k) % row.len())
                    .find(|&j| p.neighbors[j] != p.neighbors[i]);
                if let Some(j) = other {
                    p.timestamps.swap(i, j);
                }
            }
            _ => {}
        }
        if rederive {
            for u in touched.into_iter().filter(|&u| u < n) {
                let ids_ok = p.neighbors[p.offsets[u]..p.offsets[u + 1]]
                    .iter()
                    .all(|&v| (v as usize) < n);
                if ids_ok {
                    rederive_distinct(p, u);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]
        /// The linear check and the O(E log E) reference agree on
        /// every verdict, detail included, for random multigraphs under
        /// single mutations (`kind` 6 keeps the graph valid, `kind` 8
        /// leaves it as is).
        #[test]
        fn fast_validation_matches_the_reference(
            n in 1usize..10,
            links in proptest::collection::vec(
                (0u32..10, 0u32..10, 0u32..4),
                0..24,
            ),
            kind in 0usize..9,
            picks in proptest::collection::vec(
                proptest::arbitrary::any::<usize>(),
                4,
            ),
            rederive in proptest::arbitrary::any::<bool>(),
        ) {
            let mut g = DynamicNetwork::new();
            g.ensure_node(n as NodeId - 1);
            for (u, v, t) in links {
                let (u, v) = (u % n as NodeId, v % n as NodeId);
                if u != v {
                    g.add_link(u, v, t);
                }
            }
            let mut p = FrozenGraph::from_view(&g).to_parts();
            mutate(&mut p, kind, &picks, rederive);
            let want = validate_reference(&p);
            proptest::prop_assert_eq!(p.validate(), want);
            if kind == 6 || kind == 8 {
                proptest::prop_assert!(want.is_ok());
            }
        }
    }
}
