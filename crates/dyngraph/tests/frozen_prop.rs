//! Property tests: `FrozenGraph`, `DeltaGraph` and published
//! `OverlayView`s answer every `GraphView` query identically to the
//! `DynamicNetwork` they were built from, across random
//! mutation/freeze/rebase interleavings.

use std::sync::Arc;

use dyngraph::{
    DeltaGraph, DynamicNetwork, FrozenGraph, GraphView, NodeId, Timestamp,
};
use proptest::prelude::*;

/// One step of an interleaved mutation/compaction schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Add a timestamped link (may be a rejected self-loop).
    AddLink(NodeId, NodeId, Timestamp),
    /// Grow the node set without adding links.
    EnsureNode(NodeId),
    /// Compact the delta into a fresh frozen base.
    Rebase,
    /// Publish an overlay view to be checked for immutability later.
    Publish,
}

fn add_link() -> impl Strategy<Value = Op> {
    (0..24u32, 0..24u32, 0..60u32).prop_map(|(u, v, t)| Op::AddLink(u, v, t))
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored `prop_oneof!` is uniform; weight mutations by
    // repeating the link-add arm.
    prop_oneof![
        add_link(),
        add_link(),
        add_link(),
        (0..24u32).prop_map(Op::EnsureNode),
        Just(Op::Rebase),
        Just(Op::Publish),
    ]
}

/// Asserts `got` answers every `GraphView` query like `want` does.
fn assert_views_agree<G: GraphView>(got: &G, want: &DynamicNetwork) {
    assert_eq!(got.node_count(), want.node_count());
    assert_eq!(got.link_count(), want.link_count());
    assert_eq!(got.revision(), want.revision());
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

proptest! {
    /// The delta/frozen family tracks a mutable twin bit for bit through
    /// arbitrary interleavings of mutations, rebases and publishes, and
    /// published overlays stay frozen at their publish-time state.
    #[test]
    fn views_track_dynamic_network(ops in prop::collection::vec(op(), 1..60)) {
        let mut net = DynamicNetwork::new();
        let mut delta = DeltaGraph::new(Arc::new(FrozenGraph::empty()));
        let mut published: Vec<(dyngraph::OverlayView, DynamicNetwork)> =
            Vec::new();
        for op in ops {
            match op {
                Op::AddLink(u, v, t) => {
                    let a = net.try_add_link(u, v, t);
                    let b = delta.try_add_link(u, v, t);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
                Op::EnsureNode(id) => {
                    net.ensure_node(id);
                    delta.ensure_node(id);
                }
                Op::Rebase => {
                    let base = delta.rebase();
                    assert_views_agree(&*base, &net);
                    prop_assert!(delta.is_clean());
                }
                Op::Publish => {
                    published.push((delta.publish(), net.clone()));
                }
            }
        }
        assert_views_agree(&delta, &net);
        assert_views_agree(&FrozenGraph::from_view(&net), &net);
        assert_views_agree(&delta.freeze(), &net);
        for (view, net_then) in &published {
            assert_views_agree(view, net_then);
        }
    }

    /// Freezing a frozen graph is the identity (CSR round-trips).
    #[test]
    fn refreeze_is_identity(
        links in prop::collection::vec(
            (0..20u32, 0..20u32, 0..50u32)
                .prop_filter("no self-loops", |(u, v, _)| u != v),
            1..80,
        )
    ) {
        let net: DynamicNetwork = links.into_iter().collect();
        let once = FrozenGraph::from_view(&net);
        let twice = FrozenGraph::from_view(&once);
        prop_assert_eq!(&once, &twice);
        assert_views_agree(&once, &net);
    }
}
