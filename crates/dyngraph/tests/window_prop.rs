//! Property tests: a `WindowedView` driven through arbitrary
//! mutation/advance/compaction interleavings stays bit-identical to a
//! `DynamicNetwork` rebuilt from scratch out of only the in-window
//! links (inserted in stable time order), and its revision counts
//! exactly one bump per node growth, accepted insert, accepted advance
//! and implicit advance.

use dyngraph::{
    DynamicNetwork, FrozenGraph, GraphError, GraphView, NodeId, Timestamp,
    WindowedView,
};
use proptest::prelude::*;

/// One step of an interleaved mutation/advance schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Feed a timestamped link (self-loops and links behind the cutoff
    /// are rejected without any state change).
    AddLink(NodeId, NodeId, Timestamp),
    /// Grow the node set without adding links.
    EnsureNode(NodeId),
    /// Push the horizon forward, expiring links behind the new cutoff
    /// (regressions are rejected without any state change).
    Advance(Timestamp),
    /// Compact the view's delta into a fresh frozen base, which must
    /// change neither content nor revision.
    Rebase,
}

fn add_link() -> impl Strategy<Value = Op> {
    (0..16u32, 0..16u32, 0..60u32).prop_map(|(u, v, t)| Op::AddLink(u, v, t))
}

fn advance() -> impl Strategy<Value = Op> {
    // Mostly small horizons interleaved with the occasional saturating
    // jump to u32::MAX, which pins the `horizon - width` underflow and
    // saturation boundaries.
    prop_oneof![
        (0..90u32).prop_map(Op::Advance),
        (0..90u32).prop_map(Op::Advance),
        (0..90u32).prop_map(Op::Advance),
        Just(Op::Advance(u32::MAX)),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is uniform; weight mutations by
    // repeating the link-add arm.
    prop_oneof![
        add_link(),
        add_link(),
        add_link(),
        advance(),
        (0..16u32).prop_map(Op::EnsureNode),
        Just(Op::Rebase),
    ]
}

/// Window widths under test: zero-width (only the horizon tick
/// survives), small sliding widths, and the saturating maximum (the
/// cutoff never leaves 0, so nothing ever expires).
fn width() -> impl Strategy<Value = Timestamp> {
    prop_oneof![Just(0u32), 1..40u32, 1..40u32, Just(u32::MAX)]
}

/// Asserts `got` answers every `GraphView` query like `want`, except
/// the revision counter (a from-scratch rebuild counts its own
/// construction mutations, not the history's).
fn assert_views_agree_no_rev<G: GraphView + ?Sized>(
    got: &G,
    want: &DynamicNetwork,
) {
    assert_eq!(got.node_count(), want.node_count());
    assert_eq!(got.link_count(), want.link_count());
    assert_eq!(got.is_empty(), want.is_empty());
    assert_eq!(got.min_timestamp(), want.min_timestamp());
    assert_eq!(got.max_timestamp(), want.max_timestamp());
    let n = want.node_count() as NodeId;
    for u in 0..n {
        assert_eq!(got.distinct_neighbors(u), want.neighbors(u));
        assert_eq!(got.neighbors(u), want.neighbors(u));
        assert_eq!(got.degree(u), want.degree(u));
        assert_eq!(got.multi_degree(u), want.multi_degree(u));
        let links: Vec<_> = got.incident_links(u).collect();
        assert_eq!(links.as_slice(), want.incident_links(u));
        // Pairwise queries, including ids one past the valid range.
        for w in 0..n + 1 {
            assert_eq!(got.has_link(u, w), want.has_link(u, w));
            assert_eq!(got.links_between(u, w), want.link_count_between(u, w));
            assert_eq!(
                got.timestamps_between(u, w),
                want.timestamps_between(u, w)
            );
        }
    }
}

/// Rebuilds the network a `WindowedView` should hold from first
/// principles: only the accepted links still inside the window, fed in
/// stable time order (sorted by timestamp, arrival order breaking
/// ties — the canonical row order expiry preserves).
fn rebuild_in_window(
    accepted: &[(NodeId, NodeId, Timestamp)],
    node_count: usize,
    cutoff: Timestamp,
) -> DynamicNetwork {
    let mut survivors: Vec<_> = accepted
        .iter()
        .copied()
        .filter(|&(_, _, t)| t >= cutoff)
        .collect();
    survivors.sort_by_key(|&(_, _, t)| t);
    let mut net = DynamicNetwork::new();
    if node_count > 0 {
        net.ensure_node(node_count as NodeId - 1);
    }
    for (u, v, t) in survivors {
        assert!(
            net.try_add_link(u, v, t).is_ok(),
            "accepted links are clean"
        );
    }
    net
}

proptest! {
    /// Through arbitrary add/advance/grow/compact interleavings, the
    /// windowed view equals a from-scratch rebuild of its in-window
    /// links, and its revision is the count of the mutations it
    /// accepted.
    #[test]
    fn windowed_view_matches_from_scratch_rebuild(
        width in width(),
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let mut wv = WindowedView::with_width(width);
        let mut accepted: Vec<(NodeId, NodeId, Timestamp)> = Vec::new();
        let mut nodes = 0usize;
        let mut revision = 0u64;
        let mut grow = |id: NodeId, revision: &mut u64| {
            if id as usize >= nodes {
                nodes = id as usize + 1;
                *revision += 1;
            }
        };
        for op in ops {
            match op {
                Op::AddLink(u, v, t) => match wv.try_add_link(u, v, t) {
                    Ok(report) => {
                        // Implicit advance, then node growth, then the
                        // insert.
                        revision += u64::from(report.is_some());
                        grow(u.max(v), &mut revision);
                        revision += 1;
                        accepted.push((u, v, t));
                    }
                    Err(GraphError::OutOfWindow { cutoff, .. }) => {
                        prop_assert!(t < cutoff, "only pre-cutoff links \
                                                  are rejected");
                    }
                    Err(GraphError::SelfLoop { .. }) => {
                        prop_assert_eq!(u, v);
                    }
                    Err(e) => panic!("unexpected rejection: {e}"),
                },
                Op::EnsureNode(id) => {
                    wv.ensure_node(id);
                    grow(id, &mut revision);
                }
                Op::Advance(to) => match wv.advance(to) {
                    Ok(Some(_)) => revision += 1,
                    Ok(None) => {}
                    Err(GraphError::HorizonRegressed { .. }) => {}
                    Err(e) => panic!("unexpected advance failure: {e}"),
                },
                Op::Rebase => {
                    let before = FrozenGraph::from_view(&wv);
                    let base = wv.rebase();
                    prop_assert!(wv.is_clean());
                    prop_assert_eq!(&*base, &before);
                    prop_assert_eq!(FrozenGraph::from_view(&wv), before);
                }
            }
            prop_assert_eq!(wv.revision(), revision);
        }
        // The view holds exactly what a from-scratch build of the
        // surviving links holds — expiry lost nothing else, kept
        // nothing extra, and preserved canonical time order.
        let want = rebuild_in_window(
            &accepted,
            wv.node_count(),
            wv.cutoff().unwrap_or(0),
        );
        prop_assert_eq!(wv.node_count(), nodes);
        assert_views_agree_no_rev(&wv, &want);
        // And the published and frozen views agree with the rebuild.
        assert_views_agree_no_rev(&wv.publish(), &want);
        assert_views_agree_no_rev(&FrozenGraph::from_view(&wv), &want);
    }

    /// An unbounded `WindowedView` is indistinguishable from a plain
    /// `DynamicNetwork` fed the same stream, and `advance` on it only
    /// moves the horizon/revision — never the links.
    #[test]
    fn unbounded_view_is_a_plain_network(
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let mut wv = WindowedView::unbounded();
        let mut twin = DynamicNetwork::new();
        let mut advances = 0u64;
        for op in ops {
            match op {
                Op::AddLink(u, v, t) => {
                    let a = wv.try_add_link(u, v, t);
                    let b = twin.try_add_link(u, v, t);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let Ok(report) = a {
                        prop_assert!(report.is_none(),
                            "unbounded adds never report an advance");
                    }
                }
                Op::EnsureNode(id) => {
                    wv.ensure_node(id);
                    twin.ensure_node(id);
                }
                Op::Advance(to) => {
                    if let Ok(Some(r)) = wv.advance(to) {
                        prop_assert_eq!(r.expired_links, 0);
                        prop_assert!(r.affected.is_empty());
                        advances += 1;
                    }
                }
                Op::Rebase => {
                    let revision = wv.revision();
                    wv.rebase();
                    prop_assert_eq!(wv.revision(), revision);
                }
            }
        }
        prop_assert_eq!(wv.revision(), twin.revision() + advances);
        assert_views_agree_no_rev(&wv, &twin);
    }
}
