//! Differential kernel tests: the branch-light optimized extraction
//! kernels (hash-keyed structure merge, hash-free Palette-WL with a
//! bucketed output order, early-exit bounded Dijkstra) against the
//! retained naive
//! [`ssf_core::reference`] pipeline.
//!
//! Every assertion here is *bit* equality on the feature values — the
//! optimized kernels are rewrites of the numeric hot path, so any
//! reordering of float operations, any divergence in tie-breaking, or
//! any cache-reuse leak shows up as a failed `to_bits` comparison.
//! Coverage axes: all six [`EntryEncoding`]s, `K ∈ {3..6}`, uncached vs
//! cached (fresh and warm-reused caches), the multi-threaded
//! `extract_batch` at 1/2/8 workers, and every graph view (mutable,
//! frozen CSR, windowed copy-on-write overlay) — K-selection reads link
//! timestamps from the view itself, so each view must serve them exactly
//! as the balls saw the topology.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ssf_repro::dyngraph::{
    DynamicNetwork, FrozenGraph, GraphView, NodeId, OverlayView, Timestamp,
    WindowedView,
};
use ssf_repro::methods::{Method, MethodOptions};
use ssf_repro::ssf_core::palette::{
    palette_wl, palette_wl_with_scratch, WlScratch,
};
use ssf_repro::ssf_core::{
    reference, EntryEncoding, ExtractionCache, HopSubgraph, KStructureSubgraph,
    SelectScratch, SsfConfig, SsfExtractor, StructureScratch,
    StructureSubgraph,
};
use ssf_repro::ssf_eval::{LinkSample, Split, SplitConfig};

const ENCODINGS: [EntryEncoding; 6] = [
    EntryEncoding::NormalizedInfluence,
    EntryEncoding::LogInfluence,
    EntryEncoding::ReciprocalDistance,
    EntryEncoding::InfluenceAndStructure,
    EntryEncoding::LinkCount,
    EntryEncoding::Binary,
];

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Strategy: a connected-ish random multigraph on up to `n` nodes (same
/// shape as `tests/properties.rs`).
fn network(
    n: NodeId,
    max_links: usize,
) -> impl Strategy<Value = DynamicNetwork> {
    prop::collection::vec(
        (0..n, 0..n, 1..20u32).prop_filter("no self-loops", |(u, v, _)| u != v),
        2..max_links,
    )
    .prop_map(move |links| {
        let mut g = DynamicNetwork::new();
        for i in 0..n - 1 {
            g.add_link(i, i + 1, 1);
        }
        for (u, v, t) in links {
            g.add_link(u, v, t);
        }
        g
    })
}

/// Asserts the optimized uncached and cached paths both reproduce the
/// reference pipeline bit for bit on one target pair.
#[allow(clippy::unwrap_used, clippy::expect_used)] // test helper
fn assert_matches_reference<G: GraphView + ?Sized>(
    g: &G,
    a: NodeId,
    b: NodeId,
    l_t: Timestamp,
    config: &SsfConfig,
    cache: &mut ExtractionCache,
) {
    let expect = reference::try_extract(g, a, b, l_t, config);
    let ex = SsfExtractor::new(*config);
    let uncached = ex.try_extract(g, a, b, l_t);
    let cached = ex.try_extract_cached(g, a, b, l_t, cache);
    match expect {
        Ok((values, h, s_nodes)) => {
            let f = uncached.expect("reference extracted, optimized failed");
            assert_eq!(bits(f.values()), bits(&values), "uncached values");
            assert_eq!(f.radius(), h, "uncached radius");
            assert_eq!(f.structure_node_count(), s_nodes, "uncached nodes");
            let f = cached.expect("reference extracted, cached failed");
            assert_eq!(bits(f.values()), bits(&values), "cached values");
            assert_eq!(f.radius(), h, "cached radius");
            assert_eq!(f.structure_node_count(), s_nodes, "cached nodes");
        }
        Err(e) => {
            assert_eq!(uncached.unwrap_err(), e, "uncached error");
            assert_eq!(cached.unwrap_err(), e, "cached error");
        }
    }
}

/// Deterministic sweep: every encoding × K ∈ {3..6} on a fixed graph that
/// exercises merging fans, a bridge, multi-links and an outlying chain —
/// guaranteed coverage of all 24 combinations regardless of proptest
/// case generation.
#[test]
fn every_encoding_and_k_matches_reference() {
    let g: DynamicNetwork = [
        (0, 2, 1),
        (0, 3, 1),
        (0, 4, 2),
        (1, 5, 2),
        (1, 6, 3),
        (0, 7, 3),
        (1, 7, 4),
        (2, 8, 5),
        (8, 9, 6),
        (9, 10, 7),
        (4, 5, 8),
        (4, 5, 9), // multi-link
    ]
    .into_iter()
    .collect();
    for encoding in ENCODINGS {
        for k in 3..=6usize {
            let config =
                SsfConfig::new(k).with_theta(0.5).with_encoding(encoding);
            let mut cache = ExtractionCache::new();
            for (a, b) in [(0, 1), (2, 5), (9, 0), (10, 3)] {
                assert_matches_reference(&g, a, b, 12, &config, &mut cache);
            }
        }
    }
}

/// The Dijkstra early-exit must not depend on reachability: endpoints in
/// different components, pendant endpoints with empty link sets, and
/// fully padded slots all reduce to the reference answer.
#[test]
fn reciprocal_distance_disconnected_matches_reference() {
    // Two components: {0,2,3,4,8} and {1,5,6,7} — target (0,1) spans them.
    let g: DynamicNetwork = [
        (0, 2, 1),
        (2, 3, 2),
        (3, 4, 3),
        (5, 6, 4),
        (6, 7, 5),
        (1, 5, 6),
        (4, 8, 7),
    ]
    .into_iter()
    .collect();
    let config = SsfConfig::new(4)
        .with_theta(0.5)
        .with_encoding(EntryEncoding::ReciprocalDistance);
    let mut cache = ExtractionCache::new();
    for (a, b) in [(0, 1), (4, 7), (0, 8), (8, 6)] {
        assert_matches_reference(&g, a, b, 9, &config, &mut cache);
    }
}

/// Strategy: a hub-heavy multigraph. Hub 0 carries `fans` ≥ 30 fans,
/// every listed pair repeats 1–5 times at its own timestamps, and fans 1
/// and 2 stay pendants of the hub, so the target `(1, 2)` has only three
/// structure nodes at h = 1 and must grow to h ≥ 2 for any `K ≥ 4`.
fn hub_multigraph() -> impl Strategy<Value = Vec<(NodeId, NodeId, Timestamp)>> {
    let multi = || prop::collection::vec(1..40u32, 1..6);
    (
        30..40u32,
        prop::collection::vec(multi(), 40),
        prop::collection::vec((3..48u32, 3..48u32, multi()), 0..40),
    )
        .prop_map(|(fans, spokes, extra)| {
            let mut events = Vec::new();
            for (f, ts) in (1..=fans).zip(spokes) {
                events.extend(ts.into_iter().map(|t| (0, f, t)));
            }
            for (u, v, ts) in extra {
                if u != v {
                    events.extend(ts.into_iter().map(|t| (u, v, t)));
                }
            }
            events.sort_by_key(|&(_, _, t)| t);
            events
        })
}

/// Replays time-ordered `events` into a windowed writer graph the way
/// the online predictor does — sorted inserts, implicit expiry, one
/// rebase halfway — and returns its published overlay, which then serves
/// base rows, delta rows and expired rows at once, next to the oracle: a
/// from-scratch rebuild of the in-window links in stable time order over
/// the same node set.
#[allow(clippy::unwrap_used)] // test helper
fn windowed_overlay(
    events: &[(NodeId, NodeId, Timestamp)],
    width: Timestamp,
) -> (DynamicNetwork, OverlayView) {
    let mut wv = WindowedView::with_width(width);
    for (i, &(u, v, t)) in events.iter().enumerate() {
        wv.try_add_link(u, v, t).unwrap();
        if i == events.len() / 2 {
            wv.rebase();
        }
    }
    let cutoff = wv.cutoff().unwrap();
    let mut oracle = DynamicNetwork::new();
    oracle.ensure_node(wv.node_count() as NodeId - 1);
    for &(u, v, t) in events.iter().filter(|&&(_, _, t)| t >= cutoff) {
        oracle.add_link(u, v, t);
    }
    (oracle, wv.publish())
}

/// Asserts that Algorithm 1's one-round merge on the h-hop subgraph of
/// `(a, b)` reached the fixpoint — no two non-endpoint structure nodes
/// have equal neighbor rows — and that its members, rows and distances
/// equal the reference's looping merge.
fn assert_twin_free_and_matches_reference(
    g: &DynamicNetwork,
    a: NodeId,
    b: NodeId,
    h: u32,
) -> Result<(), TestCaseError> {
    let s = StructureSubgraph::combine(&HopSubgraph::extract(g, a, b, h));
    let mut rows: Vec<&[usize]> =
        (2..s.node_count()).map(|x| s.neighbors(x)).collect();
    rows.sort_unstable();
    prop_assert!(
        rows.windows(2).all(|w| w[0] != w[1]),
        "twins left after the merge for ({}, {}) at h {}",
        a,
        b,
        h
    );
    prop_assert_eq!(stages(&s), reference::structure(g, a, b, h));
    Ok(())
}

/// Each structure node's members, neighbor row and distance, in
/// structure-node order: the shape of [`reference::structure`].
fn stages(s: &StructureSubgraph) -> Vec<(Vec<usize>, Vec<usize>, u32)> {
    (0..s.node_count())
        .map(|x| {
            (
                s.members(x).to_vec(),
                s.neighbors(x).to_vec(),
                s.distance(x),
            )
        })
        .collect()
}

/// Asserts that the twin merge is independent of its row key: with every
/// row hashing equal, and with rows of equal length hashing equal, the
/// partition, members, rows and distances equal the real hash's and the
/// reference's.
fn assert_collisions_change_nothing(
    g: &DynamicNetwork,
    a: NodeId,
    b: NodeId,
    h: u32,
    scratch: &mut StructureScratch,
) -> Result<(), TestCaseError> {
    let hop = HopSubgraph::extract(g, a, b, h);
    let real = StructureSubgraph::combine(&hop);
    let want = reference::structure(g, a, b, h);
    prop_assert_eq!(&stages(&real), &want);
    let all_collide =
        StructureSubgraph::combine_with_row_key(&hop, scratch, |_| 0);
    prop_assert_eq!(
        &all_collide,
        &real,
        "constant key, ({}, {}) h {}",
        a,
        b,
        h
    );
    let by_length =
        StructureSubgraph::combine_with_row_key(&hop, scratch, |row| {
            row.len() as u64
        });
    prop_assert_eq!(&by_length, &real, "length key, ({}, {}) h {}", a, b, h);
    prop_assert_eq!(stages(&all_collide), want);
    Ok(())
}

/// Asserts that K-selection on `view` gathers the same slot pairs and
/// timestamps as the reference's per-member incident scan, both with a
/// fresh scratch and with the warm `scratch` shared across calls.
fn assert_select_matches_reference<G: GraphView + ?Sized>(
    view: &G,
    a: NodeId,
    b: NodeId,
    h: u32,
    k: usize,
    scratch: &mut SelectScratch,
) -> Result<(), TestCaseError> {
    let hop = HopSubgraph::extract(view, a, b, h);
    let s = StructureSubgraph::combine(&hop);
    let n = s.node_count();
    let adj: Vec<Vec<usize>> =
        (0..n).map(|x| s.neighbors(x).to_vec()).collect();
    let dist: Vec<u32> = (0..n).map(|x| s.distance(x)).collect();
    let tiebreak: Vec<u64> = (0..n).map(|x| s.members(x)[0] as u64).collect();
    let order = palette_wl(&adj, &dist, (0, 1), &tiebreak);
    let ks = KStructureSubgraph::select(view, &hop, &s, &order, k);
    let got: Vec<((usize, usize), Vec<Timestamp>)> = ks
        .links()
        .map(|(m, n)| ((m, n), ks.timestamps_between(m, n).to_vec()))
        .collect();
    prop_assert_eq!(
        &got,
        &reference::select_links(view, &hop, &s, &order, k),
        "target ({}, {}) at h {}",
        a,
        b,
        h
    );
    let warm = KStructureSubgraph::select_with_scratch(
        view, &hop, &s, &order, k, scratch,
    );
    prop_assert_eq!(warm, ks);
    Ok(())
}

/// Strategy: a twin-rich graph with target endpoints 0 and 1, built from
/// - complete bipartite blocks, left side linked to 0 and right side to 1,
///   so each side is one twin class;
/// - twin anchors linked to both endpoints, each carrying the same number
///   of pendant fans (an anchor's fans are twins; anchors are twins only
///   without fans);
/// - endpoint twins, linked to exactly endpoint 0's neighbors, which must
///   merge with each other but never with 0;
/// - a few random links that break some of those twins.
fn twin_rich_network() -> impl Strategy<Value = DynamicNetwork> {
    (
        prop::collection::vec((1..4u32, 1..4u32), 0..3),
        (2..4u32, 0..3u32),
        0..3u32,
        prop::collection::vec((0..40u32, 0..40u32, 1..20u32), 0..4),
    )
        .prop_map(|(blocks, (anchors, fans), endpoint_twins, noise)| {
            let mut links: Vec<(NodeId, NodeId)> = Vec::new();
            let mut next: NodeId = 2;
            for (p, q) in blocks {
                let (left, right) = (next..next + p, next + p..next + p + q);
                next += p + q;
                for l in left.clone() {
                    links.push((0, l));
                    links.extend(right.clone().map(|r| (l, r)));
                }
                links.extend(right.map(|r| (r, 1)));
            }
            for _ in 0..anchors {
                let anchor = next;
                links.push((0, anchor));
                links.push((1, anchor));
                links.extend((1..=fans).map(|f| (anchor, anchor + f)));
                next += 1 + fans;
            }
            let of_a: Vec<NodeId> = links
                .iter()
                .filter_map(|&(u, v)| match (u, v) {
                    (0, w) | (w, 0) if w != 1 => Some(w),
                    _ => None,
                })
                .collect();
            for _ in 0..endpoint_twins {
                links.extend(of_a.iter().map(|&w| (next, w)));
                next += 1;
            }
            let mut g = DynamicNetwork::new();
            for (i, &(u, v)) in links.iter().enumerate() {
                g.add_link(u, v, 1 + i as Timestamp % 7);
            }
            for (u, v, t) in noise {
                let (u, v) = (u % next, v % next);
                if u != v {
                    g.add_link(u, v, t);
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hub-heavy multigraphs through every view: the mutable network, its
    /// frozen CSR, and a windowed writer's published overlay (checked
    /// against a from-scratch rebuild of its in-window links, too). Every
    /// encoding must be bit-identical to the reference on each view.
    #[test]
    fn hub_multigraph_matches_reference_on_every_view(
        events in hub_multigraph(),
        k in 4..8usize,
        extra_targets in prop::collection::vec((0..45u32, 0..45u32), 1..5),
    ) {
        let g: DynamicNetwork = events.iter().copied().collect();
        let frozen = FrozenGraph::from_view(&g);
        let (window, overlay) = windowed_overlay(&events, 12);
        let mut targets = vec![(1u32, 2u32), (0, 1), (2, 0)];
        targets.extend(extra_targets);
        let config = SsfConfig::new(k).with_theta(0.5);
        let grown = reference::try_extract(&g, 1, 2, 41, &config)
            .map_or(0, |(_, h, _)| h);
        prop_assert!(grown >= 2, "target (1, 2) must grow, got h {}", grown);
        for encoding in ENCODINGS {
            let config = config.with_encoding(encoding);
            let ex = SsfExtractor::new(config);
            let mut caches: [ExtractionCache; 4] = Default::default();
            for &(a, b) in &targets {
                let [c0, c1, c2, c3] = &mut caches;
                assert_matches_reference(&g, a, b, 41, &config, c0);
                assert_matches_reference(&frozen, a, b, 41, &config, c1);
                assert_matches_reference(&overlay, a, b, 41, &config, c2);
                assert_matches_reference(&window, a, b, 41, &config, c3);
                let on_overlay = ex.try_extract(&overlay, a, b, 41);
                let on_window = ex.try_extract(&window, a, b, 41);
                prop_assert_eq!(
                    on_overlay.map(|f| bits(f.values())),
                    on_window.map(|f| bits(f.values()))
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random graphs, random encoding/K/target: uncached and cached
    /// optimized extraction are bit-identical to the reference pipeline.
    /// The cache is reused across all targets of a case, so warm ball
    /// reuse, repeated targets and K-growth all run under the comparison.
    #[test]
    fn kernels_match_reference(
        g in network(12, 50),
        enc_idx in 0..ENCODINGS.len(),
        k in 3..7usize,
        targets in prop::collection::vec((0..12u32, 0..12u32), 1..6),
    ) {
        let config = SsfConfig::new(k)
            .with_theta(0.5)
            .with_encoding(ENCODINGS[enc_idx]);
        let mut cache = ExtractionCache::new();
        for (a, b) in targets {
            assert_matches_reference(&g, a, b, 21, &config, &mut cache);
        }
    }

    /// One warm cache serving a *growing* K (3 → 6) on the same graph:
    /// balls are shared across configurations, and every K re-runs the
    /// kernels, never serving a stale smaller-K selection.
    #[test]
    fn cache_survives_k_growth(
        g in network(10, 40),
        enc_idx in 0..ENCODINGS.len(),
    ) {
        let mut cache = ExtractionCache::new();
        for k in 3..=6usize {
            let config = SsfConfig::new(k)
                .with_theta(0.5)
                .with_encoding(ENCODINGS[enc_idx]);
            for (a, b) in [(0u32, 1u32), (2, 7), (0, 1)] {
                assert_matches_reference(&g, a, b, 25, &config, &mut cache);
            }
        }
    }

    /// `extract_batch` rows at 1, 2 and 8 workers all equal the reference
    /// pipeline run sample by sample against the fold history (degraded
    /// rows — degenerate pairs — are all-zero by contract).
    #[test]
    fn extract_batch_matches_reference_at_every_thread_count(
        g in network(14, 70),
        seed in 0..20u64,
        enc_idx in 0..ENCODINGS.len(),
    ) {
        let Ok(split) = Split::new(
            &g,
            &SplitConfig { seed, ..SplitConfig::default() },
        ) else {
            return Ok(()); // tiny/degenerate networks may not split
        };
        let opts = MethodOptions {
            ssf_encoding: ENCODINGS[enc_idx],
            ..MethodOptions::default()
        };
        let config = SsfConfig::new(opts.k)
            .with_theta(opts.theta)
            .with_encoding(opts.ssf_encoding);
        let n = split.history.node_count() as NodeId;
        // ≥ 64 samples so multi-threaded runs actually spawn workers;
        // every 9th sample is degenerate (u == v) to pin zero-row padding.
        let samples: Vec<LinkSample> = (0..72u32)
            .map(|i| LinkSample {
                u: (i * 7 + seed as u32) % n,
                v: if i % 9 == 0 { (i * 7 + seed as u32) % n } else { (i * 11 + 1) % n },
                label: i % 2 == 0,
            })
            .collect();
        let present =
            split.history.max_timestamp().map_or(split.l_t, |t| t + 1);
        let dim = Method::Ssfnm.feature_dim(&opts).unwrap_or(0);
        let expected: Vec<Vec<u64>> = samples
            .iter()
            .map(|s| {
                reference::try_extract(
                    &split.history, s.u, s.v, present, &config,
                )
                .map_or_else(|_| vec![0f64.to_bits(); dim], |(v, _, _)| bits(&v))
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let rows =
                Method::Ssfnm.extract_batch(&split, &opts, &samples, threads);
            prop_assert_eq!(rows.len(), expected.len());
            for (i, (row, want)) in rows.iter().zip(&expected).enumerate() {
                prop_assert_eq!(
                    &bits(row), want,
                    "row {} diverged from reference at {} threads",
                    i, threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Owner-side K-selection gathers exactly the per-member scan's links
    /// and timestamps on hub-heavy multigraphs, through the mutable
    /// network, its frozen CSR, a windowed writer's published overlay and
    /// the from-scratch rebuild of its in-window links.
    #[test]
    fn hub_multigraph_selection_matches_reference_on_every_view(
        events in hub_multigraph(),
        k in 4..8usize,
        extra_targets in prop::collection::vec((0..45u32, 0..45u32), 1..5),
    ) {
        let g: DynamicNetwork = events.iter().copied().collect();
        let frozen = FrozenGraph::from_view(&g);
        let (window, overlay) = windowed_overlay(&events, 12);
        let mut targets = vec![(1u32, 2u32), (0, 1), (2, 0)];
        targets.extend(extra_targets);
        let mut scratch = SelectScratch::default();
        for (a, b) in targets {
            for h in 1..=3 {
                if a != b && (a.max(b) as usize) < g.node_count() {
                    assert_select_matches_reference(&g, a, b, h, k, &mut scratch)?;
                    assert_select_matches_reference(&frozen, a, b, h, k, &mut scratch)?;
                }
                if a != b && (a.max(b) as usize) < overlay.node_count() {
                    assert_select_matches_reference(&overlay, a, b, h, k, &mut scratch)?;
                    assert_select_matches_reference(&window, a, b, h, k, &mut scratch)?;
                }
            }
        }
    }

    /// One merge round leaves no twins on hub-heavy multigraphs, whose
    /// hub fans are one large twin class at every radius.
    #[test]
    fn hub_multigraph_merge_is_twin_free(
        events in hub_multigraph(),
        extra_targets in prop::collection::vec((0..45u32, 0..45u32), 1..5),
    ) {
        let g: DynamicNetwork = events.iter().copied().collect();
        let mut targets = vec![(1u32, 2u32), (0, 1), (2, 0)];
        targets.extend(extra_targets);
        for (a, b) in targets {
            if a == b || a.max(b) as usize >= g.node_count() {
                continue;
            }
            for h in 1..=3 {
                assert_twin_free_and_matches_reference(&g, a, b, h)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One merge round leaves no twins on twin-rich graphs (bipartite
    /// blocks, pendant fans on twin anchors, endpoint twins), and the
    /// whole feature stays bit-identical to the reference.
    #[test]
    fn twin_rich_merge_is_twin_free_and_matches_reference(
        g in twin_rich_network(),
        k in 3..8usize,
        extra_targets in prop::collection::vec((0..30u32, 0..30u32), 0..3),
    ) {
        let mut targets = vec![(0u32, 1u32), (1, 0)];
        targets.extend(extra_targets);
        let config = SsfConfig::new(k).with_theta(0.5);
        let mut cache = ExtractionCache::new();
        for (a, b) in targets {
            if a == b || a.max(b) as usize >= g.node_count() {
                continue;
            }
            for h in 1..=3 {
                assert_twin_free_and_matches_reference(&g, a, b, h)?;
            }
            assert_matches_reference(&g, a, b, 21, &config, &mut cache);
        }
    }
}

/// Strategy: a Palette-WL input rich in automorphic ties. A random
/// template of 1–4 nodes is copied 2–5 times; every copy links to the
/// endpoints the same way and repeats the template's init keys, so the
/// copies converge to equal colors. Tiebreaks take only three values, so
/// the index decides most ties.
fn automorphic_wl_input(
) -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<u32>, Vec<u64>)> {
    const T: usize = 4;
    const COPIES: usize = 5;
    (
        (1..T + 1, 2..COPIES + 1),
        prop::collection::vec((0..T, 0..T), 0..2 * T),
        prop::collection::vec((0..3u8, 1..3u32), T),
        prop::collection::vec(0..3u64, 2 + T * COPIES),
        any::<bool>(),
    )
        .prop_map(|((t, copies), edges, template, tiebreak, link_ab)| {
            let n = 2 + t * copies;
            let mut adj = vec![std::collections::BTreeSet::new(); n];
            let mut link = |u: usize, v: usize| {
                if u != v {
                    adj[u].insert(v);
                    adj[v].insert(u);
                }
            };
            if link_ab {
                link(0, 1);
            }
            let mut init = vec![0u32; n];
            for c in 0..copies {
                let id = |j: usize| 2 + c * t + j;
                for &(u, v) in &edges {
                    link(id(u % t), id(v % t));
                }
                // Attachment 0: none, 1: to a, 2: to a and b.
                for (j, &(how, key)) in template[..t].iter().enumerate() {
                    if how >= 1 {
                        link(0, id(j));
                    }
                    if how == 2 {
                        link(1, id(j));
                    }
                    init[id(j)] = key;
                }
            }
            let adj: Vec<Vec<usize>> = adj
                .into_iter()
                .map(|row| row.into_iter().collect())
                .collect();
            (adj, init, tiebreak[..n].to_vec())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The twin merge never depends on its row hash: on hub-heavy
    /// multigraphs (one large twin class of hub fans) a merge where
    /// every row collides gives the real hash's and the reference's
    /// partition, members, rows and distances.
    #[test]
    fn hub_multigraph_merge_ignores_row_key_collisions(
        events in hub_multigraph(),
        extra_targets in prop::collection::vec((0..45u32, 0..45u32), 1..5),
    ) {
        let g: DynamicNetwork = events.iter().copied().collect();
        let mut targets = vec![(1u32, 2u32), (0, 1), (2, 0)];
        targets.extend(extra_targets);
        let mut scratch = StructureScratch::default();
        for (a, b) in targets {
            if a == b || a.max(b) as usize >= g.node_count() {
                continue;
            }
            for h in 1..=3 {
                assert_collisions_change_nothing(&g, a, b, h, &mut scratch)?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same collision check on twin-rich graphs, whose bipartite
    /// blocks, fans and endpoint twins make many multi-member classes.
    #[test]
    fn twin_rich_merge_ignores_row_key_collisions(
        g in twin_rich_network(),
        extra_targets in prop::collection::vec((0..30u32, 0..30u32), 0..3),
    ) {
        let mut targets = vec![(0u32, 1u32), (1, 0)];
        targets.extend(extra_targets);
        let mut scratch = StructureScratch::default();
        for (a, b) in targets {
            if a == b || a.max(b) as usize >= g.node_count() {
                continue;
            }
            for h in 1..=3 {
                assert_collisions_change_nothing(&g, a, b, h, &mut scratch)?;
            }
        }
    }

    /// Palette-WL's bucketed output order equals the reference's global
    /// sort by `(color, tiebreak, index)` on inputs whose automorphic
    /// copies tie in color and mostly in tiebreak, with a fresh and a
    /// warm scratch.
    #[test]
    fn palette_wl_order_matches_reference_on_automorphic_ties(
        (adj, init, tiebreak) in automorphic_wl_input(),
    ) {
        let want = reference::palette_wl(&adj, &init, (0, 1), &tiebreak);
        prop_assert_eq!(&palette_wl(&adj, &init, (0, 1), &tiebreak), &want);
        let mut scratch = WlScratch::default();
        for _ in 0..2 {
            let warm = palette_wl_with_scratch(
                &adj, &init, (0, 1), &tiebreak, &mut scratch,
            );
            prop_assert_eq!(&warm, &want);
        }
    }
}
