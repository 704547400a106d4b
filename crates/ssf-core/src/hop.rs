//! h-hop subgraph extraction (Definition 3 of the paper).
//!
//! The *h-hop subgraph* `G_{h→e_t}` of a target link `e_t = (a, b)` contains
//! every node within hop distance `h` of either endpoint (Eq. 1:
//! `d(n_i, e_t) = min(|P(n_i, n_a)|, |P(n_i, n_b)|)`) together with all
//! timestamped links induced among those nodes.
//!
//! Extraction is topology-first: Algorithm 1's merge, Palette-WL and
//! K-selection read only which nodes are linked, so [`HopSubgraph`] keeps
//! the induced *distinct* links and no timestamps. The timestamps of the
//! few links that survive into the K-structure subgraph are read from the
//! graph at selection time ([`crate::KStructureSubgraph::select`]).
//!
//! The assembly path is branch-light by design: ball merging, local-id
//! lookup and membership tests all run over stamped arrays indexed by
//! global node id (no hashing), and the induced links live in one flat
//! CSR — `crate::reference` keeps the naive `HashMap` formulation this
//! module is differentially tested against (`tests/kernels.rs`).

use dyngraph::{GraphView, NodeId};

use crate::error::ExtractError;

/// Reusable buffers for h-hop extraction: a stamped distance map (so the
/// per-node state never needs clearing between runs), BFS frontiers, and
/// the stamped merge/local-index arrays that replace per-call hash maps.
///
/// One scratch serves any number of sequential extractions; a fresh
/// default-constructed scratch produces bit-identical results to a reused
/// one, so batch paths can thread a single instance through thousands of
/// samples without changing any output.
#[derive(Debug, Clone, Default)]
pub struct HopScratch {
    /// `stamp[n] == epoch` marks `dist[n]` as valid for the current run.
    ///
    /// Stamps are `u32` so the two stamped maps cost 8 bytes per graph
    /// node instead of 16 — at million-node scale the scratch is the
    /// dominant per-thread allocation. Epoch wrap-around is handled by
    /// zeroing the stamp array (once every ~4 billion extractions).
    stamp: Vec<u32>,
    dist: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// `mstamp[n] == mepoch` marks `n` as a member of the current merge;
    /// `mdist[n]` is its joint distance and `mlocal[n]` its local id.
    mstamp: Vec<u32>,
    mdist: Vec<u32>,
    mlocal: Vec<u32>,
    mepoch: u32,
    rest: Vec<(u32, NodeId)>,
    /// `(row, entry)` pairs of the distinct-neighbour CSR being filled.
    edges: Vec<(u32, u32)>,
    cursor: Vec<usize>,
}

impl HopScratch {
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
            self.dist.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            // Wrap: every stale stamp could collide with a future epoch,
            // so clear them all and restart. Results are unchanged — a
            // zeroed map is exactly the fresh-scratch state.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    fn begin_merge(&mut self, nodes: usize) {
        if self.mstamp.len() < nodes {
            self.mstamp.resize(nodes, 0);
            self.mdist.resize(nodes, 0);
            self.mlocal.resize(nodes, 0);
        }
        if self.mepoch == u32::MAX {
            self.mstamp.fill(0);
            self.mepoch = 0;
        }
        self.mepoch += 1;
    }
}

/// Computes the bounded BFS ball of one endpoint: every `(node, distance)`
/// with `distance <= h` from `src`, in breadth-first discovery order
/// (`src` itself first, at distance 0).
///
/// Balls are the unit of reuse of the extraction cache: the h-hop subgraph
/// of a pair is assembled from the two endpoint balls, so pairs sharing an
/// endpoint share its frontier computation.
///
/// Generic over any [`GraphView`]: the mutable `DynamicNetwork`, the CSR
/// `FrozenGraph` and published overlay views all produce bit-identical
/// balls (the view contract fixes the neighbor ordering).
///
/// # Panics
///
/// Panics if `src` is outside `g`.
pub fn ball<G: GraphView + ?Sized>(
    g: &G,
    src: NodeId,
    h: u32,
    scratch: &mut HopScratch,
) -> Vec<(NodeId, u32)> {
    assert!((src as usize) < g.node_count(), "ball source out of range");
    scratch.begin(g.node_count());
    let epoch = scratch.epoch;
    let mut out = Vec::new();
    scratch.stamp[src as usize] = epoch;
    scratch.dist[src as usize] = 0;
    out.push((src, 0));
    scratch.frontier.clear();
    scratch.frontier.push(src);
    grow_layers(g, h, 0, &mut out, scratch);
    out
}

/// Extends a radius-`h_prev` [`ball`] of `src` to radius `h` without
/// re-discovering the inner layers.
///
/// A bounded BFS discovers layers in order, so `ball(src, h_prev)` is a
/// strict prefix of `ball(src, h)`; re-stamping the known layers and
/// resuming from the depth-`h_prev` frontier reproduces the full ball
/// bit for bit (same nodes, same discovery order). `prev` must be the
/// exact output of `ball(g, src, h_prev, …)` at the current graph state.
///
/// # Panics
///
/// Panics if `prev` is empty or not rooted at distance 0.
pub fn ball_extend<G: GraphView + ?Sized>(
    g: &G,
    prev: &[(NodeId, u32)],
    h_prev: u32,
    h: u32,
    scratch: &mut HopScratch,
) -> Vec<(NodeId, u32)> {
    assert!(
        !prev.is_empty() && prev[0].1 == 0,
        "malformed previous ball"
    );
    scratch.begin(g.node_count());
    let epoch = scratch.epoch;
    let mut out = Vec::with_capacity(prev.len());
    scratch.frontier.clear();
    for &(n, d) in prev {
        scratch.stamp[n as usize] = epoch;
        scratch.dist[n as usize] = d;
        out.push((n, d));
        if d == h_prev {
            scratch.frontier.push(n);
        }
    }
    grow_layers(g, h, h_prev, &mut out, scratch);
    out
}

/// BFS layer expansion shared by [`ball`] and [`ball_extend`]: grows
/// `scratch.frontier` (depth `depth`) out to radius `h`, appending
/// discoveries to `out`.
fn grow_layers<G: GraphView + ?Sized>(
    g: &G,
    h: u32,
    mut depth: u32,
    out: &mut Vec<(NodeId, u32)>,
    scratch: &mut HopScratch,
) {
    let epoch = scratch.epoch;
    while !scratch.frontier.is_empty() && depth < h {
        depth += 1;
        scratch.next.clear();
        for i in 0..scratch.frontier.len() {
            let u = scratch.frontier[i];
            for &v in g.distinct_neighbors(u) {
                if scratch.stamp[v as usize] != epoch {
                    scratch.stamp[v as usize] = epoch;
                    scratch.dist[v as usize] = depth;
                    out.push((v, depth));
                    scratch.next.push(v);
                }
            }
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
    }
}

/// The h-hop subgraph of a target link, re-indexed to dense local ids.
///
/// Local id 0 is always endpoint `a`, local id 1 endpoint `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSubgraph {
    /// Global node id of each local node; `global[0] = a`, `global[1] = b`.
    global: Vec<NodeId>,
    /// `dist[i]` = hop distance of local node `i` to the target link (Eq. 1).
    dist: Vec<u32>,
    /// Distinct-neighbor CSR row bounds: row `i` is
    /// `nbr_offsets[i]..nbr_offsets[i + 1]` of `nbr_ids`.
    nbr_offsets: Vec<usize>,
    /// Flat distinct local neighbors, sorted ascending per node. Local
    /// ids are `u32` — a subgraph's node count is bounded by the host
    /// graph's `u32` id space.
    nbr_ids: Vec<u32>,
    /// The hop radius this subgraph was extracted with.
    h: u32,
}

impl HopSubgraph {
    /// Extracts the h-hop subgraph of target link `(a, b)` from `g`.
    ///
    /// Any existing history links between `a` and `b` themselves are
    /// *excluded* from the induced link set: the adjacency entry `A(1,2)` of
    /// the eventual feature matrix is defined to be 0 because the target
    /// link is the unknown being predicted (§V-B).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is outside `g`. Serving paths
    /// that cannot rule those out should use [`HopSubgraph::try_extract`].
    pub fn extract<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
    ) -> Self {
        match Self::try_extract(g, a, b, h) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`HopSubgraph::extract`]: degenerate targets come
    /// back as [`ExtractError`] values instead of panics.
    ///
    /// # Errors
    ///
    /// [`ExtractError::DegenerateTarget`] when `a == b`, and
    /// [`ExtractError::UnknownEndpoint`] when either endpoint is outside
    /// `g`'s id space.
    pub fn try_extract<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
    ) -> Result<Self, ExtractError> {
        Self::validate(g, a, b)?;
        let mut scratch = HopScratch::default();
        let ball_a = ball(g, a, h, &mut scratch);
        let ball_b = ball(g, b, h, &mut scratch);
        Ok(Self::from_balls(g, a, b, h, &ball_a, &ball_b, &mut scratch))
    }

    /// Checks that `(a, b)` is a valid target pair in `g`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HopSubgraph::try_extract`].
    pub fn validate<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
    ) -> Result<(), ExtractError> {
        if a == b {
            return Err(ExtractError::DegenerateTarget { node: a });
        }
        for node in [a, b] {
            if node as usize >= g.node_count() {
                return Err(ExtractError::UnknownEndpoint {
                    node,
                    node_count: g.node_count(),
                });
            }
        }
        Ok(())
    }

    /// Assembles the h-hop subgraph from the two endpoint [`ball`]s.
    ///
    /// The joint distance of Eq. 1 is `min(d_a, d_b)`, which is exactly the
    /// per-node minimum over the two balls, and the h-hop node set is their
    /// union — so cached per-endpoint frontiers compose losslessly. Local
    /// ids are canonical: 0 = `a`, 1 = `b`, then every other node sorted by
    /// `(joint distance, global id)`. The canonical order is independent of
    /// how the balls were produced, so cached and freshly-computed
    /// extractions are bit-identical.
    ///
    /// Endpoints must already be validated (see [`HopSubgraph::validate`])
    /// and each ball must belong to its endpoint at radius `h`.
    pub fn from_balls<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
        ball_a: &[(NodeId, u32)],
        ball_b: &[(NodeId, u32)],
        scratch: &mut HopScratch,
    ) -> Self {
        scratch.begin_merge(g.node_count());
        let epoch = scratch.mepoch;
        // Union of the balls with per-node minimum distance, over stamped
        // arrays: first sight records, later sights only lower the
        // distance. The endpoints are members by construction.
        scratch.rest.clear();
        for &(n, d) in ball_a.iter().chain(ball_b) {
            let i = n as usize;
            if scratch.mstamp[i] != epoch {
                scratch.mstamp[i] = epoch;
                scratch.mdist[i] = d;
                if n != a && n != b {
                    scratch.rest.push((0, n));
                }
            } else if d < scratch.mdist[i] {
                scratch.mdist[i] = d;
            }
        }
        // Canonical local order: endpoints first, rest by (distance, id).
        for entry in scratch.rest.iter_mut() {
            entry.0 = scratch.mdist[entry.1 as usize];
        }
        scratch.rest.sort_unstable();
        let mut global = Vec::with_capacity(scratch.rest.len() + 2);
        let mut dist = Vec::with_capacity(scratch.rest.len() + 2);
        global.push(a);
        dist.push(0);
        global.push(b);
        dist.push(0);
        for &(d, n) in &scratch.rest {
            global.push(n);
            dist.push(d);
        }
        for (i, &n) in global.iter().enumerate() {
            scratch.mlocal[n as usize] = i as u32;
        }
        // Distinct induced links as a CSR, filled in local-id order: node
        // `i` appends itself to the row of each member neighbour `j`, so
        // every row receives its entries ascending and is born sorted —
        // no per-row sort or dedup. Neighbour lists are symmetric, so each
        // row ends up complete. The target pair is the only local pair
        // with `i + j == 1`; its history is excluded.
        let n = global.len();
        let mut nbr_offsets = vec![0usize; n + 1];
        scratch.edges.clear();
        for (i, &u) in global.iter().enumerate() {
            for &v in g.distinct_neighbors(u) {
                if scratch.mstamp[v as usize] == epoch {
                    let j = scratch.mlocal[v as usize];
                    if i as u32 + j != 1 {
                        nbr_offsets[j as usize + 1] += 1;
                        scratch.edges.push((j, i as u32));
                    }
                }
            }
        }
        for i in 0..n {
            nbr_offsets[i + 1] += nbr_offsets[i];
        }
        scratch.cursor.clear();
        scratch.cursor.extend_from_slice(&nbr_offsets[..n]);
        let mut nbr_ids = vec![0u32; scratch.edges.len()];
        for &(j, i) in &scratch.edges {
            nbr_ids[scratch.cursor[j as usize]] = i;
            scratch.cursor[j as usize] += 1;
        }
        HopSubgraph {
            global,
            dist,
            nbr_offsets,
            nbr_ids,
            h,
        }
    }

    /// Number of nodes in the subgraph.
    pub fn node_count(&self) -> usize {
        self.global.len()
    }

    /// Number of distinct induced links (a multi-link counts once, the
    /// target pair's history is excluded).
    pub fn link_count(&self) -> usize {
        self.nbr_ids.len() / 2
    }

    /// The hop radius used for extraction.
    pub fn radius(&self) -> u32 {
        self.h
    }

    /// Global node id of local node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn global_id(&self, i: usize) -> NodeId {
        self.global[i]
    }

    /// Hop distance of local node `i` to the target link.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn distance(&self, i: usize) -> u32 {
        self.dist[i]
    }

    /// Sorted distinct local neighbors of local node `i`, served from the
    /// precomputed local CSR (no per-call allocation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.nbr_ids[self.nbr_offsets[i]..self.nbr_offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;
    use crate::kstructure::testing::{pipeline, slot_of};

    /// A two-triangle "bowtie" with a pendant chain:
    /// 0-1-2-0 (triangle), 2-3, 3-4, plus multi-link 0-1.
    fn sample() -> DynamicNetwork {
        [
            (0, 1, 1),
            (0, 1, 2),
            (1, 2, 3),
            (2, 0, 4),
            (2, 3, 5),
            (3, 4, 6),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn endpoints_are_locals_zero_and_one() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 2, 4, 1);
        assert_eq!(s.global_id(0), 2);
        assert_eq!(s.global_id(1), 4);
        assert_eq!(s.distance(0), 0);
        assert_eq!(s.distance(1), 0);
    }

    #[test]
    fn one_hop_includes_union_of_neighborhoods() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 2, 4, 1);
        // N(2) = {0,1,3}, N(4) = {3} → nodes {2,4,0,1,3}.
        assert_eq!(s.node_count(), 5);
    }

    #[test]
    fn target_history_links_excluded() {
        let g = sample();
        // 0-1 has two history links; extracting for target (0,1) must skip
        // them but keep everything else.
        let s = HopSubgraph::extract(&g, 0, 1, 2);
        for &j in s.neighbors(0) {
            assert_ne!(s.global_id(j as usize), 1);
        }
        // other links of the triangle remain
        assert!(s.link_count() >= 2);
    }

    #[test]
    fn multi_links_preserved() {
        let g = sample();
        // Target (2, 3) at h = 1 holds {2, 3, 0, 1, 4}: five structure
        // nodes, all selected at K = 5. The hop subgraph keeps one distinct
        // 0-1 link; both of its timestamps reach the K-structure subgraph.
        let (hop, s, ks) = pipeline(&g, 2, 3, 1, 5);
        assert_eq!(hop.node_count(), 5);
        let zero = slot_of(&hop, &s, &ks, 0);
        let one = slot_of(&hop, &s, &ks, 1);
        assert_eq!(ks.timestamps_between(zero, one), &[1, 2]);
    }

    #[test]
    fn radius_bounds_distance() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 0, 1, 1);
        for i in 0..s.node_count() {
            assert!(s.distance(i) <= 1);
        }
        // node 4 is at distance 2 from {0,1}: excluded.
        assert!((0..s.node_count()).all(|i| s.global_id(i) != 4));
    }

    #[test]
    fn neighbors_dedup_multi_links() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 0, 1, 1);
        // local 0 = global 0: neighbors are {2} only (1 excluded as target).
        let n = s.neighbors(0);
        assert_eq!(n.len(), 1);
        assert_eq!(s.global_id(n[0] as usize), 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_endpoints_panic() {
        let g = sample();
        let _ = HopSubgraph::extract(&g, 1, 1, 1);
    }

    #[test]
    fn try_extract_reports_degenerate_targets() {
        let g = sample();
        assert_eq!(
            HopSubgraph::try_extract(&g, 1, 1, 1),
            Err(ExtractError::DegenerateTarget { node: 1 })
        );
        assert_eq!(
            HopSubgraph::try_extract(&g, 0, 99, 1),
            Err(ExtractError::UnknownEndpoint {
                node: 99,
                node_count: g.node_count()
            })
        );
        assert!(HopSubgraph::try_extract(&g, 0, 1, 1).is_ok());
    }

    #[test]
    fn disconnected_endpoint_pair_still_works() {
        let mut g = sample();
        g.extend([(7, 8, 1)]);
        let s = HopSubgraph::extract(&g, 0, 8, 1);
        assert_eq!(s.global_id(0), 0);
        assert_eq!(s.global_id(1), 8);
        // Components of both endpoints explored.
        assert!(s.node_count() >= 4);
    }

    #[test]
    fn ball_extend_matches_full_ball() {
        let mut g = sample();
        g.extend([(4, 5, 7), (5, 6, 8)]);
        let mut scratch = HopScratch::default();
        for src in [0u32, 2, 4, 6] {
            let mut prev = ball(&g, src, 1, &mut scratch);
            for h in 2..=4u32 {
                let full = ball(&g, src, h, &mut scratch);
                let ext = ball_extend(&g, &prev, h - 1, h, &mut scratch);
                assert_eq!(full, ext, "src {src} radius {h}");
                prev = ext;
            }
        }
    }

    #[test]
    fn ball_extend_handles_exhausted_component() {
        let g = sample();
        let mut scratch = HopScratch::default();
        let full = ball(&g, 0, 10, &mut scratch);
        let prev = ball(&g, 0, 9, &mut scratch);
        // Radius 9 already exhausts the component: the frontier is empty
        // and extension is a no-op copy.
        let ext = ball_extend(&g, &prev, 9, 10, &mut scratch);
        assert_eq!(full, ext);
    }
}
