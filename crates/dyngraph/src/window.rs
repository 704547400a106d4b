//! Sliding-window temporal views: a graph that forgets.
//!
//! The paper predicts over *dynamic* networks, and its natural serving
//! shape (DyLink2Vec, Sarkar et al.) is a bounded temporal window: only
//! links whose timestamp lies in `[horizon - width, horizon]` — both
//! bounds **inclusive** — participate in extraction. [`WindowedView`]
//! is that graph: a copy-on-write [`DeltaGraph`] that ages links out as
//! the horizon advances, with expiry an ordinary revision-bumping
//! mutation so every downstream cache invalidates through the one
//! contract it already honors. The same graph is the writer's graph and
//! the one it publishes: [`WindowedView::publish`] is O(1) in graph size.
//!
//! # Expiry mechanics
//!
//! Three invariants make expiry amortized O(expired · log E) with no
//! rescan of unaffected nodes:
//!
//! * **Per-node timestamp-sorted rows.** Links are placed at their
//!   time-sorted position (stable — equal timestamps keep arrival
//!   order), so the expired portion of any row is a *prefix*. Monotone
//!   streams (the facade's case) degenerate to plain O(1) appends.
//! * **A global min-heap of live links** keyed by timestamp. An
//!   `advance` pops exactly the expired links — each link is pushed
//!   once and popped once — and the surviving heap top is the new
//!   minimum timestamp for free.
//! * **Expiry only on affected rows.** The popped links name the nodes
//!   that lost something; only those rows are touched, through
//!   [`DeltaGraph::expire_links_below`].
//!
//! # Revision arithmetic
//!
//! An accepted [`WindowedView::advance`] bumps the revision exactly
//! once, like an accepted insert — even when nothing expired (the
//! window itself changed, and snapshots must not mix windows).
//! Advancing to the *current* horizon is a no-op and bumps nothing,
//! mirroring `ensure_node` of an existing node. An insert whose
//! timestamp exceeds the horizon first advances implicitly (one bump)
//! and then inserts (a second bump) — identical to calling
//! [`WindowedView::advance`] followed by the insert. Compacting with
//! [`WindowedView::rebase`] changes neither content nor revision.
//!
//! # Canonical row order
//!
//! A windowed graph's observable row order is *stable time order*, not
//! raw insertion order. This is deliberate: it makes the windowed graph
//! bit-identical to a [`DynamicNetwork`](crate::DynamicNetwork) rebuilt
//! from scratch from the surviving links inserted in
//! `(timestamp, original order)` — the oracle `tests/window_prop.rs`
//! holds it to.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::view::{GraphView, IncidentLinks};
use crate::{
    DeltaGraph, FrozenGraph, GraphError, NodeId, OverlayView, Timestamp,
};

/// An inclusive sliding time window `[cutoff, horizon]` where
/// `cutoff = horizon - width` (saturating at zero).
///
/// A zero-width window is valid and keeps only links stamped exactly at
/// the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Width of the window; the cutoff trails the horizon by this much.
    pub width: Timestamp,
    /// Inclusive upper bound: the newest admissible timestamp.
    pub horizon: Timestamp,
}

impl Window {
    /// Inclusive lower bound `horizon - width`, saturating at zero.
    pub fn cutoff(&self) -> Timestamp {
        self.horizon.saturating_sub(self.width)
    }

    /// Whether `t` lies inside the window (both bounds inclusive).
    pub fn contains(&self, t: Timestamp) -> bool {
        t >= self.cutoff() && t <= self.horizon
    }
}

/// What one accepted horizon advance (explicit or implicit) did.
///
/// The affected-node list is the exact cache-invalidation footprint: a
/// memoized subgraph can only have changed if it contains one of these
/// nodes (removing a link touching no node of a BFS ball cannot alter
/// the ball — every shortest path into it runs through it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvanceReport {
    /// The new horizon.
    pub horizon: Timestamp,
    /// The new inclusive lower bound (`horizon - width`, saturating).
    pub cutoff: Timestamp,
    /// Number of links that aged out.
    pub expired_links: usize,
    /// Every node that lost at least one link, sorted ascending,
    /// deduplicated. Empty when nothing expired.
    pub affected: Vec<NodeId>,
    /// Smallest surviving timestamp after expiry (`None` when the
    /// window emptied).
    pub min_timestamp: Option<Timestamp>,
}

/// A copy-on-write [`DeltaGraph`] behind a sliding time window (see the
/// module docs above for the expiry semantics).
///
/// Implements [`GraphView`] by delegating to the inner graph, which
/// holds exactly the in-window links — so the whole extraction pipeline
/// and `Split`-based refits run on it unchanged. An unbounded view (no
/// width) never expires anything and behaves byte-for-byte like a plain
/// `DynamicNetwork`, including insertion-ordered rows and zero index
/// upkeep.
#[derive(Debug, Clone)]
pub struct WindowedView {
    graph: DeltaGraph,
    /// `None` = unbounded: no expiry, no index, plain appends.
    width: Option<Timestamp>,
    horizon: Timestamp,
    /// One `(t, u, v)` entry per live in-window link (`u < v`);
    /// empty and unmaintained when unbounded.
    heap: BinaryHeap<Reverse<(Timestamp, NodeId, NodeId)>>,
}

impl WindowedView {
    /// An empty view with no window: links never expire.
    pub fn unbounded() -> Self {
        Self::empty(None)
    }

    /// An empty view keeping links in `[horizon - width, horizon]`,
    /// starting at horizon 0.
    pub fn with_width(width: Timestamp) -> Self {
        Self::empty(Some(width))
    }

    fn empty(width: Option<Timestamp>) -> Self {
        WindowedView {
            graph: DeltaGraph::new(Arc::new(FrozenGraph::empty())),
            width,
            horizon: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Wraps a frozen graph without re-filtering it, preserving its
    /// revision — the recovery constructor (a snapshot hands back a
    /// graph that was persisted *from* a windowed view, so every link
    /// is already in-window and every row is in time order). The
    /// expiry index is rebuilt in O(E log E).
    ///
    /// # Errors
    ///
    /// For a windowed view (`width` set):
    /// [`GraphError::OutOfWindow`] if any link falls outside
    /// `[horizon - width, horizon]`, and
    /// [`GraphError::UnsortedWindowRow`] if a row is not in time order.
    /// A corrupted or mismatched snapshot must not silently serve links
    /// the window would have expired, nor rows a windowed writer would
    /// have ordered differently.
    pub fn from_frozen(
        base: Arc<FrozenGraph>,
        width: Option<Timestamp>,
        horizon: Timestamp,
    ) -> Result<Self, GraphError> {
        let Some(width) = width else {
            let horizon = base.max_timestamp().unwrap_or(0).max(horizon);
            return Ok(WindowedView {
                graph: DeltaGraph::new(base),
                width: None,
                horizon,
                heap: BinaryHeap::new(),
            });
        };
        let window = Window { width, horizon };
        let mut heap = BinaryHeap::with_capacity(base.link_count());
        for u in 0..base.node_count() as NodeId {
            let mut last = 0;
            for (v, t) in base.incident_links(u) {
                if !window.contains(t) {
                    return Err(GraphError::OutOfWindow {
                        t,
                        cutoff: window.cutoff(),
                        horizon,
                    });
                }
                if t < last {
                    return Err(GraphError::UnsortedWindowRow { node: u });
                }
                last = t;
                if u < v {
                    heap.push(Reverse((t, u, v)));
                }
            }
        }
        Ok(WindowedView {
            graph: DeltaGraph::new(base),
            width: Some(width),
            horizon,
            heap,
        })
    }

    /// Publishes the current in-window graph as an immutable
    /// [`OverlayView`] — `Arc` clones only, O(1) in graph size.
    pub fn publish(&self) -> OverlayView {
        self.graph.publish()
    }

    /// Folds the accumulated delta into a fresh frozen base (O(V + E))
    /// and returns it. Content, row order and revision are unchanged.
    pub fn rebase(&mut self) -> Arc<FrozenGraph> {
        self.graph.rebase()
    }

    /// The frozen base the delta accumulates on top of.
    pub fn base(&self) -> &Arc<FrozenGraph> {
        self.graph.base()
    }

    /// `true` when no mutation has landed since the last rebase, so
    /// [`Self::base`] is the whole graph.
    pub fn is_clean(&self) -> bool {
        self.graph.is_clean()
    }

    /// Links inserted or expired since the last rebase — what a publish
    /// shares on top of the base.
    pub fn delta_link_count(&self) -> usize {
        self.graph.delta_link_count()
    }

    /// The window width, or `None` when unbounded.
    pub fn width(&self) -> Option<Timestamp> {
        self.width
    }

    /// The current horizon (the newest admissible timestamp). For
    /// unbounded views this tracks the largest timestamp seen.
    pub fn horizon(&self) -> Timestamp {
        self.horizon
    }

    /// The current window, or `None` when unbounded.
    pub fn window(&self) -> Option<Window> {
        self.width.map(|width| Window {
            width,
            horizon: self.horizon,
        })
    }

    /// Inclusive lower bound of the window, or `None` when unbounded.
    pub fn cutoff(&self) -> Option<Timestamp> {
        self.window().map(|w| w.cutoff())
    }

    /// Ensures node `id` exists; bumps the revision once per growth,
    /// exactly like [`DynamicNetwork::ensure_node`](crate::DynamicNetwork::ensure_node).
    pub fn ensure_node(&mut self, id: NodeId) {
        self.graph.ensure_node(id);
    }

    /// Slides the horizon forward to `to`, expiring every link with
    /// timestamp `< to - width` and bumping the revision exactly once —
    /// an accepted advance is a mutation like an insert, *even when
    /// nothing expired* (downstream snapshots key on the window).
    ///
    /// Advancing to the current horizon is a no-op: `Ok(None)`, no
    /// bump. Cost: O(expired · log E) heap pops plus one pass over
    /// each affected row; nodes that lost nothing are never touched.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::HorizonRegressed`] if `to < horizon` —
    /// expired links are gone, so windows only slide forward.
    pub fn advance(
        &mut self,
        to: Timestamp,
    ) -> Result<Option<AdvanceReport>, GraphError> {
        if to < self.horizon {
            return Err(GraphError::HorizonRegressed {
                from: self.horizon,
                to,
            });
        }
        if to == self.horizon {
            return Ok(None);
        }
        self.horizon = to;
        Ok(Some(self.expire_and_bump()))
    }

    /// Adds an undirected link at its time-sorted row position.
    ///
    /// `t > horizon` first advances the horizon implicitly — identical
    /// to [`WindowedView::advance`]`(t)` followed by the insert, two
    /// revision bumps — and reports what that advance expired
    /// (`Ok(Some(report))`). An in-window insert is one bump,
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if `u == v`;
    /// [`GraphError::OutOfWindow`] if `t < horizon - width` (the link
    /// expired before it arrived — nothing is mutated).
    pub fn try_add_link(
        &mut self,
        u: NodeId,
        v: NodeId,
        t: Timestamp,
    ) -> Result<Option<AdvanceReport>, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        let Some(width) = self.width else {
            self.horizon = self.horizon.max(t);
            self.graph.try_add_link(u, v, t)?;
            return Ok(None);
        };
        let cutoff = self.horizon.saturating_sub(width);
        if t < cutoff {
            return Err(GraphError::OutOfWindow {
                t,
                cutoff,
                horizon: self.horizon,
            });
        }
        let report = if t > self.horizon {
            self.horizon = t;
            Some(self.expire_and_bump())
        } else {
            None
        };
        self.graph.try_add_link_sorted(u, v, t)?;
        self.heap.push(Reverse((t, u.min(v), u.max(v))));
        Ok(report)
    }

    /// Pops expired links off the heap, drops them from the affected
    /// rows, and books the whole thing as one revision bump.
    fn expire_and_bump(&mut self) -> AdvanceReport {
        let cutoff = self.width.map_or(0, |w| self.horizon.saturating_sub(w));
        let mut affected: Vec<NodeId> = Vec::new();
        let mut expired = 0usize;
        while let Some(&Reverse((t, u, v))) = self.heap.peek() {
            if t >= cutoff {
                break;
            }
            self.heap.pop();
            expired += 1;
            affected.push(u);
            affected.push(v);
        }
        affected.sort_unstable();
        affected.dedup();
        let min_timestamp = self.heap.peek().map(|&Reverse((t, _, _))| t);
        let removed =
            self.graph
                .expire_links_below(cutoff, &affected, min_timestamp);
        debug_assert_eq!(removed, expired, "heap and rows disagree");
        AdvanceReport {
            horizon: self.horizon,
            cutoff,
            expired_links: expired,
            affected,
            min_timestamp: self.graph.min_timestamp(),
        }
    }
}

impl GraphView for WindowedView {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn link_count(&self) -> usize {
        self.graph.link_count()
    }

    fn revision(&self) -> u64 {
        self.graph.revision()
    }

    fn min_timestamp(&self) -> Option<Timestamp> {
        self.graph.min_timestamp()
    }

    fn max_timestamp(&self) -> Option<Timestamp> {
        self.graph.max_timestamp()
    }

    fn distinct_neighbors(&self, u: NodeId) -> &[NodeId] {
        self.graph.distinct_neighbors(u)
    }

    fn incident_links(&self, u: NodeId) -> IncidentLinks<'_> {
        self.graph.incident_links(u)
    }

    fn multi_degree(&self, u: NodeId) -> usize {
        self.graph.multi_degree(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicNetwork;

    /// Oracle: a fresh network of only the given links, inserted in
    /// `(t, original order)` order over a preserved node set.
    fn rebuild(
        nodes: usize,
        links: &[(NodeId, NodeId, Timestamp)],
    ) -> DynamicNetwork {
        let mut g = DynamicNetwork::new();
        if nodes > 0 {
            g.ensure_node(nodes as NodeId - 1);
        }
        let mut sorted = links.to_vec();
        sorted.sort_by_key(|&(_, _, t)| t);
        for &(u, v, t) in &sorted {
            g.add_link(u, v, t);
        }
        g
    }

    fn assert_content_eq<G: GraphView>(wv: &G, want: &DynamicNetwork) {
        assert_eq!(wv.node_count(), want.node_count());
        assert_eq!(wv.link_count(), want.link_count());
        assert_eq!(wv.min_timestamp(), want.min_timestamp());
        assert_eq!(wv.max_timestamp(), want.max_timestamp());
        for u in 0..want.node_count() as NodeId {
            assert_eq!(wv.distinct_neighbors(u), want.neighbors(u));
            let got: Vec<_> = wv.incident_links(u).collect();
            assert_eq!(got.as_slice(), want.incident_links(u));
        }
    }

    #[test]
    fn unbounded_view_matches_plain_network() {
        let mut wv = WindowedView::unbounded();
        let mut net = DynamicNetwork::new();
        for &(u, v, t) in &[(0, 1, 5), (1, 2, 3), (0, 2, 9), (0, 1, 3)] {
            assert!(wv.try_add_link(u, v, t).unwrap().is_none());
            net.add_link(u, v, t);
        }
        assert_content_eq(&wv, &net);
        assert_eq!(wv.revision(), net.revision());
        assert_eq!(wv.horizon(), 9);
        assert_eq!(wv.window(), None);
        assert_eq!(wv.cutoff(), None);
    }

    #[test]
    fn advance_expires_old_links() {
        let mut wv = WindowedView::with_width(10);
        wv.try_add_link(0, 1, 1).unwrap();
        wv.try_add_link(1, 2, 5).unwrap();
        wv.try_add_link(2, 3, 10).unwrap();
        let report = wv.advance(15).unwrap().unwrap();
        assert_eq!(report.cutoff, 5);
        assert_eq!(report.expired_links, 1);
        assert_eq!(report.affected, vec![0, 1]);
        assert_eq!(report.min_timestamp, Some(5));
        assert_content_eq(&wv, &rebuild(4, &[(1, 2, 5), (2, 3, 10)]));
    }

    #[test]
    fn advance_bumps_revision_even_without_expiry() {
        let mut wv = WindowedView::with_width(100);
        wv.try_add_link(0, 1, 1).unwrap();
        let r = wv.revision();
        let report = wv.advance(50).unwrap().unwrap();
        assert_eq!(report.expired_links, 0);
        assert!(report.affected.is_empty());
        assert_eq!(wv.revision(), r + 1);
        // Re-advancing to the same horizon is a no-op, not a mutation.
        assert_eq!(wv.advance(50).unwrap(), None);
        assert_eq!(wv.revision(), r + 1);
    }

    #[test]
    fn advance_backwards_is_rejected() {
        let mut wv = WindowedView::with_width(10);
        wv.advance(20).unwrap();
        assert_eq!(
            wv.advance(19),
            Err(GraphError::HorizonRegressed { from: 20, to: 19 })
        );
    }

    #[test]
    fn insert_beyond_horizon_advances_implicitly() {
        let mut wv = WindowedView::with_width(4);
        wv.try_add_link(0, 1, 1).unwrap();
        wv.try_add_link(1, 2, 3).unwrap();
        let r = wv.revision();
        // t=9 moves the window to [5, 9]: both old links expire.
        let report = wv.try_add_link(0, 2, 9).unwrap().unwrap();
        assert_eq!(report.expired_links, 2);
        assert_eq!(report.affected, vec![0, 1, 2]);
        assert_eq!(wv.revision(), r + 2); // advance bump + insert bump
        assert_content_eq(&wv, &rebuild(3, &[(0, 2, 9)]));
    }

    #[test]
    fn expired_on_arrival_is_rejected_and_mutates_nothing() {
        let mut wv = WindowedView::with_width(5);
        wv.try_add_link(0, 1, 20).unwrap();
        let r = wv.revision();
        assert_eq!(
            wv.try_add_link(1, 2, 14),
            Err(GraphError::OutOfWindow {
                t: 14,
                cutoff: 15,
                horizon: 20
            })
        );
        assert_eq!(wv.revision(), r);
        assert_eq!(wv.link_count(), 1);
        // Exactly at the cutoff is *in* the window (inclusive bound).
        assert!(wv.try_add_link(1, 2, 15).is_ok());
    }

    #[test]
    fn zero_width_window_keeps_only_the_horizon() {
        let mut wv = WindowedView::with_width(0);
        wv.try_add_link(0, 1, 7).unwrap();
        wv.try_add_link(1, 2, 7).unwrap();
        let report = wv.try_add_link(2, 3, 8).unwrap().unwrap();
        assert_eq!(report.expired_links, 2);
        assert_content_eq(&wv, &rebuild(4, &[(2, 3, 8)]));
        assert_eq!(wv.cutoff(), Some(8));
    }

    #[test]
    fn saturating_cutoff_at_u32_max_horizon() {
        let mut wv = WindowedView::with_width(10);
        wv.try_add_link(0, 1, u32::MAX - 5).unwrap();
        let report = wv.advance(u32::MAX).unwrap().unwrap();
        assert_eq!(report.cutoff, u32::MAX - 10);
        assert_eq!(report.expired_links, 0);
        assert_eq!(wv.link_count(), 1);
        // A width wider than the axis saturates the cutoff to zero.
        let mut wide = WindowedView::with_width(u32::MAX);
        wide.try_add_link(0, 1, 0).unwrap();
        wide.advance(u32::MAX).unwrap();
        assert_eq!(wide.cutoff(), Some(0));
        assert_eq!(wide.link_count(), 1);
    }

    #[test]
    fn window_emptied_resets_bounds() {
        let mut wv = WindowedView::with_width(2);
        wv.try_add_link(0, 1, 1).unwrap();
        wv.try_add_link(1, 2, 2).unwrap();
        let report = wv.advance(100).unwrap().unwrap();
        assert_eq!(report.expired_links, 2);
        assert_eq!(report.min_timestamp, None);
        assert!(wv.is_empty());
        assert_eq!(wv.min_timestamp(), None);
        assert_eq!(wv.max_timestamp(), None);
        assert_content_eq(&wv, &rebuild(3, &[]));
    }

    #[test]
    fn out_of_order_in_window_inserts_stay_time_sorted() {
        let mut wv = WindowedView::with_width(100);
        wv.try_add_link(0, 1, 50).unwrap();
        wv.try_add_link(0, 1, 30).unwrap(); // in-window, older
        wv.try_add_link(0, 1, 50).unwrap(); // equal: arrival order kept
        wv.try_add_link(0, 2, 40).unwrap();
        assert_content_eq(
            &wv,
            &rebuild(3, &[(0, 1, 50), (0, 1, 30), (0, 1, 50), (0, 2, 40)]),
        );
        assert_eq!(wv.timestamps_between(0, 1), vec![30, 50, 50]);
    }

    #[test]
    fn from_frozen_round_trips_revision_and_rejects_out_of_window() {
        let mut wv = WindowedView::with_width(10);
        wv.try_add_link(0, 1, 5).unwrap();
        wv.try_add_link(1, 2, 8).unwrap();
        let revision = wv.revision();
        let frozen = Arc::new(FrozenGraph::from_view(&wv));
        let restored = WindowedView::from_frozen(
            Arc::clone(&frozen),
            Some(10),
            wv.horizon(),
        )
        .unwrap();
        assert_eq!(restored.revision(), revision);
        assert!(restored.is_clean());
        assert_content_eq(&restored, &rebuild(3, &[(0, 1, 5), (1, 2, 8)]));
        // Continue mutating in lockstep after restoration; the restored
        // heap expires what the original's does.
        let mut a = wv;
        let mut b = restored;
        assert_eq!(a.try_add_link(2, 3, 20), b.try_add_link(2, 3, 20));
        assert_eq!(a.try_add_link(0, 3, 16), b.try_add_link(0, 3, 16));
        let want = rebuild(4, &[(2, 3, 20), (0, 3, 16)]);
        assert_content_eq(&a, &want);
        assert_content_eq(&b, &want);
        assert_eq!(a.revision(), b.revision());
        // A horizon that would have expired a stored link is refused.
        assert!(matches!(
            WindowedView::from_frozen(Arc::clone(&frozen), Some(1), 8),
            Err(GraphError::OutOfWindow { .. })
        ));
        // Unbounded: everything is kept and the horizon covers it.
        let all = WindowedView::from_frozen(frozen, None, 0).unwrap();
        assert_eq!(all.horizon(), 8);
        assert_eq!(all.revision(), revision);
    }

    #[test]
    fn from_frozen_refuses_time_unsorted_rows() {
        // Node 0's row holds t = 7 before t = 3: in-window, but no
        // windowed writer orders a row that way.
        let parts = crate::FrozenGraphParts {
            offsets: vec![0, 2, 3, 4],
            neighbors: vec![1, 2, 0, 0],
            timestamps: vec![7, 3, 7, 3],
            nbr_offsets: vec![0, 2, 3, 4],
            nbr_ids: vec![1, 2, 0, 0],
            num_links: 2,
            min_ts: 3,
            max_ts: 7,
            revision: 5,
        };
        let frozen = Arc::new(FrozenGraph::try_from_parts(parts).unwrap());
        assert_eq!(
            WindowedView::from_frozen(Arc::clone(&frozen), Some(10), 7)
                .unwrap_err(),
            GraphError::UnsortedWindowRow { node: 0 }
        );
        // The unbounded view keeps insertion order, so it accepts it.
        assert!(WindowedView::from_frozen(frozen, None, 7).is_ok());
    }

    #[test]
    fn rebase_keeps_content_and_revision() {
        let mut wv = WindowedView::with_width(4);
        wv.try_add_link(0, 1, 1).unwrap();
        wv.try_add_link(1, 2, 3).unwrap();
        let published = wv.publish();
        let revision = wv.revision();
        assert!(!wv.is_clean());
        assert_eq!(wv.delta_link_count(), 2);
        let base = wv.rebase();
        assert!(wv.is_clean());
        assert_eq!(wv.delta_link_count(), 0);
        assert_eq!(wv.revision(), revision);
        assert!(Arc::ptr_eq(&base, wv.base()));
        assert_content_eq(&wv, &rebuild(3, &[(0, 1, 1), (1, 2, 3)]));
        // Expiry still finds the rebased links, and the earlier publish
        // is unaffected by it.
        let report = wv.advance(6).unwrap().unwrap();
        assert_eq!(report.expired_links, 1);
        assert_content_eq(&wv, &rebuild(3, &[(1, 2, 3)]));
        assert_content_eq(&published, &rebuild(3, &[(0, 1, 1), (1, 2, 3)]));
    }

    #[test]
    fn windowed_view_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<WindowedView>();
    }
}
