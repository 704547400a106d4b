//! [`GraphView`]: read-only graph access shared by every representation.
//!
//! Extraction code downstream (ssf-core's hop/structure pipeline) only
//! ever *reads* a graph: distinct neighbors for BFS frontiers, incident
//! links for structure collapsing, the revision counter for cache
//! invalidation. This trait captures exactly that read surface so the
//! pipeline runs unchanged over the mutable [`DynamicNetwork`], the
//! immutable CSR [`FrozenGraph`](crate::FrozenGraph), and the
//! copy-on-write [`OverlayView`](crate::OverlayView) published by a
//! [`DeltaGraph`](crate::DeltaGraph).
//!
//! The contract is bit-identity: every implementation must serve the
//! same per-node orderings as [`DynamicNetwork`] — distinct neighbors
//! sorted ascending, incident links in insertion order — so features
//! extracted through any view reproduce the mutable graph's output
//! exactly (property-tested in `crates/dyngraph/tests/`).

use crate::{DynamicNetwork, GraphError, Link, NodeId, Timestamp};

/// Iterator over the `(neighbor, timestamp)` incidences of one node, in
/// insertion order.
///
/// Unifies the two physical layouts behind [`GraphView::incident_links`]:
/// a slice of pairs ([`DynamicNetwork`]'s adjacency rows and overlay
/// rows) and the split parallel arrays of a CSR
/// [`FrozenGraph`](crate::FrozenGraph).
#[derive(Debug, Clone)]
pub struct IncidentLinks<'a> {
    inner: IncidentLinksInner<'a>,
}

#[derive(Debug, Clone)]
enum IncidentLinksInner<'a> {
    /// A slice of `(neighbor, timestamp)` pairs.
    Pairs(std::slice::Iter<'a, (NodeId, Timestamp)>),
    /// Parallel neighbor/timestamp arrays of equal length.
    Split(
        std::iter::Zip<
            std::slice::Iter<'a, NodeId>,
            std::slice::Iter<'a, Timestamp>,
        >,
    ),
}

impl<'a> IncidentLinks<'a> {
    /// Wraps a slice of `(neighbor, timestamp)` pairs.
    pub fn from_pairs(links: &'a [(NodeId, Timestamp)]) -> Self {
        IncidentLinks {
            inner: IncidentLinksInner::Pairs(links.iter()),
        }
    }

    /// Zips parallel neighbor/timestamp arrays (CSR row slices).
    ///
    /// Both slices must have the same length.
    pub fn from_split(
        neighbors: &'a [NodeId],
        timestamps: &'a [Timestamp],
    ) -> Self {
        debug_assert_eq!(neighbors.len(), timestamps.len());
        IncidentLinks {
            inner: IncidentLinksInner::Split(
                neighbors.iter().zip(timestamps.iter()),
            ),
        }
    }
}

impl Iterator for IncidentLinks<'_> {
    type Item = (NodeId, Timestamp);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            IncidentLinksInner::Pairs(it) => it.next().copied(),
            IncidentLinksInner::Split(it) => it.next().map(|(&v, &t)| (v, t)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            IncidentLinksInner::Pairs(it) => it.size_hint(),
            IncidentLinksInner::Split(it) => it.size_hint(),
        }
    }

    /// Picks the layout once per row, not once per link, for every
    /// consumer that folds (`count`, `sum`, `for_each`, `collect`, …).
    fn fold<B, F>(self, init: B, mut f: F) -> B
    where
        F: FnMut(B, Self::Item) -> B,
    {
        match self.inner {
            IncidentLinksInner::Pairs(it) => it.fold(init, |acc, &l| f(acc, l)),
            IncidentLinksInner::Split(it) => {
                it.fold(init, |acc, (&v, &t)| f(acc, (v, t)))
            }
        }
    }
}

impl ExactSizeIterator for IncidentLinks<'_> {}

/// Read-only view of a timestamped undirected multigraph.
///
/// Implemented by [`DynamicNetwork`], [`FrozenGraph`](crate::FrozenGraph),
/// [`DeltaGraph`](crate::DeltaGraph) and [`OverlayView`](crate::OverlayView).
/// All orderings match [`DynamicNetwork`]: [`Self::distinct_neighbors`]
/// is sorted ascending, [`Self::incident_links`] preserves insertion
/// order. Node ids are dense `0..node_count()`; the per-node accessors
/// may panic (slice-backed views) or answer empty (overlay views) for
/// out-of-range ids, so callers validate ids first.
pub trait GraphView {
    /// Number of nodes (ids are dense `0..node_count()`).
    fn node_count(&self) -> usize;

    /// Total number of timestamped links (multi-links counted
    /// separately).
    fn link_count(&self) -> usize;

    /// The graph-version counter: strictly increases on every accepted
    /// mutation of the underlying graph and never otherwise. Frozen
    /// views report the revision they were frozen at.
    fn revision(&self) -> u64;

    /// Smallest timestamp present, or `None` when there are no links.
    fn min_timestamp(&self) -> Option<Timestamp>;

    /// Largest timestamp present, or `None` when there are no links.
    fn max_timestamp(&self) -> Option<Timestamp>;

    /// Distinct neighbors of `u`, sorted ascending.
    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId];

    /// All `(neighbor, timestamp)` incidences of `u`, one per link, in
    /// insertion order.
    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_>;

    /// Number of incident links of `u` counting multi-links.
    fn multi_degree(&self, u: NodeId) -> usize;

    /// Alias of [`Self::distinct_neighbors`], matching the
    /// [`DynamicNetwork::neighbors`] name.
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.distinct_neighbors(u)
    }

    /// Number of distinct neighbors of `u` (the "static" degree).
    fn degree(&self, u: NodeId) -> usize {
        self.distinct_neighbors(u).len()
    }

    /// `true` if the graph has no links.
    fn is_empty(&self) -> bool {
        self.link_count() == 0
    }

    /// `true` if at least one link connects `u` and `v`.
    fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        let n = self.node_count();
        if (u as usize) >= n || (v as usize) >= n {
            return false;
        }
        // Scan the smaller incidence list.
        let (a, b) = if self.multi_degree(u) <= self.multi_degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.incident_links(a).any(|(w, _)| w == b)
    }

    /// Number of links between `u` and `v` (0 if none).
    fn links_between(&self, u: NodeId, v: NodeId) -> usize {
        let n = self.node_count();
        if (u as usize) >= n || (v as usize) >= n {
            return 0;
        }
        let (a, b) = if self.multi_degree(u) <= self.multi_degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.incident_links(a).filter(|&(w, _)| w == b).count()
    }

    /// Timestamps of every link between `u` and `v`, in insertion order.
    fn timestamps_between(&self, u: NodeId, v: NodeId) -> Vec<Timestamp> {
        if (u as usize) >= self.node_count() {
            return Vec::new();
        }
        self.incident_links(u)
            .filter(|&(w, _)| w == v)
            .map(|(_, t)| t)
            .collect()
    }

    /// Iterates every link once as a [`Link`] with `u <= v`, in
    /// [`DynamicNetwork::links`] order: node by node, each row in its
    /// own order.
    fn links(&self) -> impl Iterator<Item = Link> + '_ {
        (0..self.node_count() as NodeId).flat_map(move |u| {
            self.incident_links(u)
                .filter_map(move |(v, t)| (u <= v).then_some(Link { u, v, t }))
        })
    }

    /// The period `G_{[t_p, t_q)}` (Definition 2) copied out as a
    /// [`DynamicNetwork`], bit-identical to [`DynamicNetwork::period`]
    /// of an equal graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyPeriod`] if `t_p >= t_q`.
    fn period(
        &self,
        t_p: Timestamp,
        t_q: Timestamp,
    ) -> Result<DynamicNetwork, GraphError> {
        DynamicNetwork::period_of(self, t_p, t_q)
    }
}

impl GraphView for DynamicNetwork {
    fn node_count(&self) -> usize {
        DynamicNetwork::node_count(self)
    }

    fn link_count(&self) -> usize {
        DynamicNetwork::link_count(self)
    }

    fn revision(&self) -> u64 {
        DynamicNetwork::revision(self)
    }

    fn min_timestamp(&self) -> Option<Timestamp> {
        DynamicNetwork::min_timestamp(self)
    }

    fn max_timestamp(&self) -> Option<Timestamp> {
        DynamicNetwork::max_timestamp(self)
    }

    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
        DynamicNetwork::neighbors(self, u)
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        IncidentLinks::from_pairs(DynamicNetwork::incident_links(self, u))
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        DynamicNetwork::multi_degree(self, u)
    }

    fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        DynamicNetwork::has_link(self, u, v)
    }

    fn links_between(&self, u: NodeId, v: NodeId) -> usize {
        DynamicNetwork::link_count_between(self, u, v)
    }

    fn timestamps_between(&self, u: NodeId, v: NodeId) -> Vec<Timestamp> {
        DynamicNetwork::timestamps_between(self, u, v)
    }

    fn links(&self) -> impl Iterator<Item = Link> + '_ {
        DynamicNetwork::links(self)
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

    /// The trait impl on `DynamicNetwork` must agree with the inherent
    /// methods it forwards to, including the provided defaults.
    #[test]
    fn dynamic_network_view_matches_inherent() {
        let g = sample();
        let v: &dyn Fn(&DynamicNetwork) = &|g| {
            assert_eq!(GraphView::node_count(g), g.node_count());
            assert_eq!(GraphView::link_count(g), g.link_count());
            assert_eq!(GraphView::revision(g), g.revision());
            assert_eq!(GraphView::min_timestamp(g), g.min_timestamp());
            assert_eq!(GraphView::max_timestamp(g), g.max_timestamp());
            for u in 0..g.node_count() as NodeId {
                assert_eq!(GraphView::distinct_neighbors(g, u), g.neighbors(u));
                assert_eq!(GraphView::neighbors(g, u), g.neighbors(u));
                assert_eq!(GraphView::degree(g, u), g.degree(u));
                assert_eq!(GraphView::multi_degree(g, u), g.multi_degree(u));
                let links: Vec<_> = GraphView::incident_links(g, u).collect();
                assert_eq!(links.as_slice(), g.incident_links(u));
                for w in 0..g.node_count() as NodeId + 2 {
                    assert_eq!(GraphView::has_link(g, u, w), g.has_link(u, w));
                    assert_eq!(
                        GraphView::links_between(g, u, w),
                        g.link_count_between(u, w)
                    );
                    assert_eq!(
                        GraphView::timestamps_between(g, u, w),
                        g.timestamps_between(u, w)
                    );
                }
            }
        };
        v(&g);
        v(&DynamicNetwork::new());
    }

    /// Generic defaults behave like the `DynamicNetwork` originals even
    /// without the overrides (exercised through a thin wrapper that only
    /// supplies the required methods).
    #[test]
    fn provided_defaults_match_overrides() {
        struct Raw<'a>(&'a DynamicNetwork);
        impl GraphView for Raw<'_> {
            fn node_count(&self) -> usize {
                self.0.node_count()
            }
            fn link_count(&self) -> usize {
                self.0.link_count()
            }
            fn revision(&self) -> u64 {
                self.0.revision()
            }
            fn min_timestamp(&self) -> Option<Timestamp> {
                self.0.min_timestamp()
            }
            fn max_timestamp(&self) -> Option<Timestamp> {
                self.0.max_timestamp()
            }
            fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
                self.0.neighbors(u)
            }
            fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
                IncidentLinks::from_pairs(self.0.incident_links(u))
            }
            fn multi_degree(&self, u: NodeId) -> usize {
                self.0.multi_degree(u)
            }
        }
        let g = sample();
        let raw = Raw(&g);
        for u in 0..g.node_count() as NodeId + 2 {
            for w in 0..g.node_count() as NodeId + 2 {
                assert_eq!(raw.has_link(u, w), g.has_link(u, w));
                assert_eq!(raw.links_between(u, w), g.link_count_between(u, w));
                assert_eq!(
                    raw.timestamps_between(u, w),
                    g.timestamps_between(u, w)
                );
            }
        }
        assert!(!raw.is_empty());
        assert!(raw.links().eq(g.links()));
        assert_eq!(raw.period(2, 5), g.period(2, 5));
        assert_eq!(raw.period(5, 5), g.period(5, 5));
    }

    #[test]
    fn incident_links_split_layout_round_trips() {
        let nbrs = [1u32, 2, 1];
        let times = [3u32, 5, 4];
        let got: Vec<_> = IncidentLinks::from_split(&nbrs, &times).collect();
        assert_eq!(got, vec![(1, 3), (2, 5), (1, 4)]);
        let it = IncidentLinks::from_split(&nbrs, &times);
        assert_eq!(it.len(), 3);
    }
}
