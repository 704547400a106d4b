use crate::view::GraphView;
use crate::{GraphError, NodeId, StaticGraph, Timestamp};

/// A single timestamped link `(u, v, t)` of a [`DynamicNetwork`].
///
/// Links are undirected; iteration yields each link once with `u <= v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Emerging time of the link.
    pub t: Timestamp,
}

impl Link {
    /// Creates a link, normalizing endpoint order so that `u <= v`.
    ///
    /// ```rust
    /// let l = dyngraph::Link::new(5, 2, 10);
    /// assert_eq!((l.u, l.v, l.t), (2, 5, 10));
    /// ```
    pub fn new(a: NodeId, b: NodeId, t: Timestamp) -> Self {
        Link {
            u: a.min(b),
            v: a.max(b),
            t,
        }
    }
}

/// A dynamic network: an undirected multigraph whose links carry timestamps
/// (Definition 1 of the paper).
///
/// Nodes are dense `u32` identifiers; adding a link automatically grows the
/// node set to cover both endpoints. Multiple links between the same pair of
/// nodes — including several at the same timestamp — are kept distinct.
///
/// # Example
///
/// ```rust
/// use dyngraph::DynamicNetwork;
///
/// let mut g = DynamicNetwork::new();
/// g.add_link(0, 1, 1);
/// g.add_link(1, 2, 2);
/// g.add_link(1, 2, 2); // duplicate at the same timestamp is allowed
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.link_count(), 3);
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DynamicNetwork {
    /// `adj[u]` holds `(neighbor, timestamp)` for every incident link; each
    /// undirected link appears in both endpoint lists.
    adj: Vec<Vec<(NodeId, Timestamp)>>,
    /// Distinct neighbors per node: sorted, deduplicated, maintained
    /// incrementally on every `add_link`.
    distinct: Vec<Vec<NodeId>>,
    num_links: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Monotone mutation counter: bumped whenever the node set grows or a
    /// link is accepted. Downstream caches key derived results on it (see
    /// `ssf-core`'s extraction cache); any bump invalidates them.
    revision: u64,
}

/// Equality compares graph *content* only; the [`DynamicNetwork::revision`]
/// counter is an implementation detail of cache invalidation and two
/// networks holding the same links are equal regardless of the mutation
/// history that produced them. Only source-of-truth fields participate:
/// `distinct` is derived from `adj` and is skipped.
impl PartialEq for DynamicNetwork {
    fn eq(&self, other: &Self) -> bool {
        self.adj == other.adj
            && self.num_links == other.num_links
            && self.min_ts == other.min_ts
            && self.max_ts == other.max_ts
    }
}

impl DynamicNetwork {
    /// Creates an empty dynamic network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty network with room for `nodes` nodes.
    pub fn with_node_capacity(nodes: usize) -> Self {
        DynamicNetwork {
            adj: Vec::with_capacity(nodes),
            distinct: Vec::with_capacity(nodes),
            ..Self::default()
        }
    }

    /// Number of nodes (dense ids `0..node_count()`).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Total number of timestamped links (multi-links counted separately).
    pub fn link_count(&self) -> usize {
        self.num_links
    }

    /// `true` if the network has no links.
    pub fn is_empty(&self) -> bool {
        self.num_links == 0
    }

    /// Smallest timestamp present, or `None` for an empty network.
    pub fn min_timestamp(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(self.min_ts)
    }

    /// Largest timestamp present, or `None` for an empty network.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        (!self.is_empty()).then_some(self.max_ts)
    }

    /// The graph-version counter: strictly increases on every accepted
    /// mutation (node growth or link insertion) and never otherwise.
    ///
    /// Extraction caches memoize per-pair results keyed on this value; a
    /// stale revision means every cached subgraph may be invalid.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Ensures node `id` exists, growing the node set if needed.
    pub fn ensure_node(&mut self, id: NodeId) {
        let want = id as usize + 1;
        if self.adj.len() < want {
            self.adj.resize_with(want, Vec::new);
            self.distinct.resize_with(want, Vec::new);
            self.revision += 1;
        }
    }

    /// Adds an undirected link between `u` and `v` at timestamp `t`.
    ///
    /// Endpoints are created on demand. Multi-links are allowed.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`; the paper's networks have no self-loops. Use
    /// [`DynamicNetwork::try_add_link`] for a fallible variant.
    #[allow(clippy::expect_used)] // documented panicking wrapper
    pub fn add_link(&mut self, u: NodeId, v: NodeId, t: Timestamp) {
        self.try_add_link(u, v, t)
            .expect("self-loops are not allowed in a DynamicNetwork");
    }

    /// Fallible variant of [`DynamicNetwork::add_link`].
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
        self.adj[u as usize].push((v, t));
        self.adj[v as usize].push((u, t));
        if let Err(i) = self.distinct[u as usize].binary_search(&v) {
            self.distinct[u as usize].insert(i, v);
        }
        if let Err(i) = self.distinct[v as usize].binary_search(&u) {
            self.distinct[v as usize].insert(i, u);
        }
        if self.num_links == 0 {
            self.min_ts = t;
            self.max_ts = t;
        } else {
            self.min_ts = self.min_ts.min(t);
            self.max_ts = self.max_ts.max(t);
        }
        self.num_links += 1;
        self.revision += 1;
        Ok(())
    }

    /// All `(neighbor, timestamp)` incidences of `u`, one per link.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn incident_links(&self, u: NodeId) -> &[(NodeId, Timestamp)] {
        &self.adj[u as usize]
    }

    /// Distinct neighbors of `u`, sorted ascending.
    ///
    /// Maintained incrementally, so this is always `O(1)` to serve.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.distinct[u as usize]
    }

    /// Number of distinct neighbors of `u` (the "static" degree).
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Number of incident links of `u` counting multi-links (the
    /// "multigraph" degree used for Table II's average degree).
    pub fn multi_degree(&self, u: NodeId) -> usize {
        self.adj[u as usize].len()
    }

    /// `true` if at least one link connects `u` and `v`.
    pub fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return false;
        }
        // Scan the smaller incidence list.
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len()
        {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].iter().any(|&(w, _)| w == b)
    }

    /// Number of links between `u` and `v` (0 if none).
    pub fn link_count_between(&self, u: NodeId, v: NodeId) -> usize {
        if (u as usize) >= self.adj.len() || (v as usize) >= self.adj.len() {
            return 0;
        }
        let (a, b) = if self.adj[u as usize].len() <= self.adj[v as usize].len()
        {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize]
            .iter()
            .filter(|&&(w, _)| w == b)
            .count()
    }

    /// Timestamps of every link between `u` and `v`, in insertion order.
    pub fn timestamps_between(&self, u: NodeId, v: NodeId) -> Vec<Timestamp> {
        if (u as usize) >= self.adj.len() {
            return Vec::new();
        }
        self.adj[u as usize]
            .iter()
            .filter(|&&(w, _)| w == v)
            .map(|&(_, t)| t)
            .collect()
    }

    /// Iterates every link once as a [`Link`] with `u <= v`.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            row.iter().filter_map(move |&(v, t)| {
                let u = u as NodeId;
                (u <= v).then_some(Link { u, v, t })
            })
        })
    }

    /// The period `G_{[t_p, t_q)}` (Definition 2): the sub-network containing
    /// exactly the links whose timestamp `l` satisfies `t_p <= l < t_q`.
    ///
    /// The node set is preserved (ids stay stable) even for isolated nodes.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EmptyPeriod`] if `t_p >= t_q`.
    pub fn period(
        &self,
        t_p: Timestamp,
        t_q: Timestamp,
    ) -> Result<DynamicNetwork, GraphError> {
        Self::period_of(self, t_p, t_q)
    }

    /// [`DynamicNetwork::period`] of any [`GraphView`]: links are copied
    /// in [`GraphView::links`] order, so equal views give equal copies.
    pub(crate) fn period_of<G: GraphView + ?Sized>(
        src: &G,
        t_p: Timestamp,
        t_q: Timestamp,
    ) -> Result<DynamicNetwork, GraphError> {
        if t_p >= t_q {
            return Err(GraphError::EmptyPeriod {
                start: t_p,
                end: t_q,
            });
        }
        let n = src.node_count();
        let mut g = DynamicNetwork::with_node_capacity(n);
        if n > 0 {
            g.ensure_node(n as NodeId - 1);
        }
        // Size every row once, so the copy does not regrow them link by
        // link.
        for (u, (copy, distinct)) in
            g.adj.iter_mut().zip(g.distinct.iter_mut()).enumerate()
        {
            let kept = src
                .incident_links(u as NodeId)
                .filter(|&(_, t)| t >= t_p && t < t_q)
                .count();
            copy.reserve_exact(kept);
            distinct.reserve_exact(kept);
        }
        src.links().for_each(|link| {
            if link.t >= t_p && link.t < t_q {
                g.add_link(link.u, link.v, link.t);
            }
        });
        Ok(g)
    }

    /// Collapses the multigraph into a [`StaticGraph`]: one edge per distinct
    /// node pair, with the multi-link count kept as an integer weight.
    pub fn to_static(&self) -> StaticGraph {
        StaticGraph::from_dynamic(self)
    }
}

/// Builds a network from an iterator of `(u, v, t)` triples.
///
/// # Panics
///
/// Panics on self-loops, like [`DynamicNetwork::add_link`].
impl FromIterator<(NodeId, NodeId, Timestamp)> for DynamicNetwork {
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId, Timestamp)>>(
        iter: I,
    ) -> Self {
        let mut g = DynamicNetwork::new();
        for (u, v, t) in iter {
            g.add_link(u, v, t);
        }
        g
    }
}

impl Extend<(NodeId, NodeId, Timestamp)> for DynamicNetwork {
    fn extend<I: IntoIterator<Item = (NodeId, NodeId, Timestamp)>>(
        &mut self,
        iter: I,
    ) {
        for (u, v, t) in iter {
            self.add_link(u, v, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DynamicNetwork {
        [(0, 1, 1), (1, 2, 2), (2, 0, 3)].into_iter().collect()
    }

    #[test]
    fn empty_network() {
        let g = DynamicNetwork::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.link_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.min_timestamp(), None);
        assert_eq!(g.max_timestamp(), None);
    }

    #[test]
    fn add_link_grows_nodes() {
        let mut g = DynamicNetwork::new();
        g.add_link(3, 7, 10);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.link_count(), 1);
        assert!(g.has_link(3, 7));
        assert!(g.has_link(7, 3));
        assert!(!g.has_link(3, 4));
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = DynamicNetwork::new();
        assert_eq!(
            g.try_add_link(2, 2, 1),
            Err(GraphError::SelfLoop { node: 2 })
        );
        assert_eq!(g.link_count(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn add_link_panics_on_self_loop() {
        let mut g = DynamicNetwork::new();
        g.add_link(1, 1, 1);
    }

    #[test]
    fn multi_links_counted() {
        let mut g = DynamicNetwork::new();
        g.add_link(0, 1, 1);
        g.add_link(0, 1, 1);
        g.add_link(0, 1, 5);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.link_count_between(0, 1), 3);
        assert_eq!(g.timestamps_between(0, 1), vec![1, 1, 5]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.multi_degree(0), 3);
    }

    #[test]
    fn neighbors_sorted_dedup() {
        let mut g = DynamicNetwork::new();
        g.add_link(5, 0, 1);
        g.add_link(5, 3, 2);
        g.add_link(5, 0, 3);
        assert_eq!(g.neighbors(5), &[0, 3]);
    }

    #[test]
    fn neighbors_fresh_after_add_link() {
        let mut g = DynamicNetwork::new();
        g.add_link(0, 1, 1);
        assert_eq!(g.neighbors(0), &[1]);
        g.add_link(0, 2, 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn timestamp_range_tracked() {
        let g = triangle();
        assert_eq!(g.min_timestamp(), Some(1));
        assert_eq!(g.max_timestamp(), Some(3));
    }

    #[test]
    fn links_iterated_once_each() {
        let g = triangle();
        let links: Vec<Link> = g.links().collect();
        assert_eq!(links.len(), 3);
        for l in &links {
            assert!(l.u <= l.v);
        }
    }

    #[test]
    fn period_slices_by_timestamp() {
        let g = triangle();
        let p = g.period(1, 3).unwrap();
        assert_eq!(p.link_count(), 2);
        assert_eq!(p.node_count(), g.node_count());
        assert!(p.has_link(0, 1));
        assert!(p.has_link(1, 2));
        assert!(!p.has_link(0, 2));
    }

    #[test]
    fn period_rejects_empty_range() {
        let g = triangle();
        assert!(matches!(
            g.period(3, 3),
            Err(GraphError::EmptyPeriod { .. })
        ));
        assert!(g.period(4, 2).is_err());
    }

    #[test]
    fn link_new_normalizes_order() {
        let l = Link::new(9, 4, 2);
        assert_eq!((l.u, l.v), (4, 9));
    }

    #[test]
    fn extend_rebuilds_caches() {
        let mut g = triangle();
        g.extend([(0, 3, 4)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn revision_bumps_on_every_mutation_only() {
        let mut g = DynamicNetwork::new();
        assert_eq!(g.revision(), 0);
        g.add_link(0, 1, 1); // grows nodes + adds link
        let r1 = g.revision();
        assert!(r1 >= 2);
        g.add_link(0, 1, 2); // existing nodes: link bump only
        assert_eq!(g.revision(), r1 + 1);
        g.ensure_node(0); // already present: no bump
        assert_eq!(g.revision(), r1 + 1);
        g.ensure_node(9); // growth bump
        assert_eq!(g.revision(), r1 + 2);
        let r = g.revision();
        assert!(g.try_add_link(3, 3, 5).is_err()); // rejected: no bump
        assert_eq!(g.revision(), r);
    }

    #[test]
    fn equality_ignores_revision() {
        let a = triangle();
        let mut b = DynamicNetwork::new();
        b.ensure_node(2); // extra mutation shifts the revision
        b.extend([(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
        assert_ne!(a.revision(), b.revision());
        assert_eq!(a, b);
    }

    #[test]
    fn network_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DynamicNetwork>();
    }
}
