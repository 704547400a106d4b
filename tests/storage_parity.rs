//! Storage-layout parity suite: every graph representation a scoring
//! path can read — the mutable [`DynamicNetwork`], the frozen CSR
//! [`FrozenGraph`], a copy-on-write [`OverlayView`] and a graph decoded
//! from a checkpoint file — must be indistinguishable to scoring: same
//! bits, not just close scores.
//!
//! Coverage axes:
//!
//! * SSF extraction over the network, its CSR freeze and a base + delta
//!   overlay, all six [`EntryEncoding`]s, uncached and cached,
//! * the persist round-trip: checkpoint a predictor whose graph has been
//!   compacted into a frozen base, `ScoringSnapshot::load` the file, and
//!   score — the loaded replica must match the writer bit for bit on the
//!   per-pair, batch and parallel batch paths.

// Test suite: a failed expectation is the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::sync::Arc;

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::{
    DeltaGraph, DynamicNetwork, FrozenGraph, GraphView, NodeId, OverlayView,
};
use ssf_repro::methods::MethodOptions;
use ssf_repro::obs::ObsHandle;
use ssf_repro::ssf_core::{
    EntryEncoding, ExtractError, ExtractionCache, SsfConfig, SsfExtractor,
    SsfFeature,
};
use ssf_repro::{
    DurabilityPolicy, OnlineLinkPredictor, OnlinePredictorConfig,
    ScoringSnapshot,
};

const ENCODINGS: [EntryEncoding; 6] = [
    EntryEncoding::NormalizedInfluence,
    EntryEncoding::LogInfluence,
    EntryEncoding::ReciprocalDistance,
    EntryEncoding::InfluenceAndStructure,
    EntryEncoding::LinkCount,
    EntryEncoding::Binary,
];

/// A fixed link list with merging fans, a bridge, multi-links and an
/// outlying chain (the same shape the kernel suite sweeps). Multi-links
/// with spread timestamps close the list.
const FIXTURE_LINKS: [(NodeId, NodeId, u32); 18] = [
    (0, 2, 1),
    (0, 3, 1),
    (0, 4, 2),
    (1, 5, 2),
    (1, 6, 3),
    (2, 7, 3),
    (3, 7, 4),
    (5, 7, 4),
    (4, 8, 5),
    (6, 8, 5),
    (7, 8, 6),
    (8, 9, 7),
    (9, 10, 8),
    (0, 2, 9),
    (1, 5, 9),
    (7, 8, 10),
    (0, 2, 40),
    (7, 8, 55),
];

fn score_bits(scores: &[Option<f64>]) -> Vec<Option<u64>> {
    scores.iter().map(|s| s.map(f64::to_bits)).collect()
}

/// One extraction outcome reduced to comparable bits: feature values
/// and radius.
type Extracted = Result<(Vec<u64>, u32), ExtractError>;

/// Extraction over `g` on the uncached and the cached path.
fn extract<G: GraphView>(
    ex: &SsfExtractor,
    g: &G,
    (a, b, t): (NodeId, NodeId, u32),
    cache: &mut ExtractionCache,
) -> (Extracted, Extracted) {
    let bits = |f: SsfFeature| {
        (f.values().iter().map(|v| v.to_bits()).collect(), f.radius())
    };
    (
        ex.try_extract(g, a, b, t).map(bits),
        ex.try_extract_cached(g, a, b, t, cache).map(bits),
    )
}

/// Extraction parity: for every encoding, extracting over the mutable
/// network, its CSR freeze, and an overlay (a frozen prefix plus the
/// remaining links as a copy-on-write delta) produces bit-identical
/// features, on both the uncached and the cached path.
#[test]
fn extraction_is_bit_identical_across_layouts_and_encodings() {
    let network: DynamicNetwork = FIXTURE_LINKS.into_iter().collect();
    let frozen = FrozenGraph::from_view(&network);
    let overlay: OverlayView = {
        let (prefix, rest) = FIXTURE_LINKS.split_at(10);
        let base: DynamicNetwork = prefix.iter().copied().collect();
        let mut delta =
            DeltaGraph::new(Arc::new(FrozenGraph::from_view(&base)));
        for &(u, v, t) in rest {
            delta.try_add_link(u, v, t).expect("fixture link is valid");
        }
        delta.publish()
    };
    assert!(overlay.delta_link_count() > 0, "overlay carries a delta");
    let targets = [(0u32, 1u32, 11u32), (2, 5, 11), (9, 0, 11), (4, 6, 11)];
    for encoding in ENCODINGS {
        for k in [3usize, 5] {
            let config = SsfConfig::new(k).with_encoding(encoding);
            let ex = SsfExtractor::new(config);
            let mut caches: [ExtractionCache; 3] = Default::default();
            for &target in &targets {
                let [c_net, c_frozen, c_overlay] = &mut caches;
                let want = extract(&ex, &network, target, c_net);
                assert_eq!(
                    want.0, want.1,
                    "{encoding:?} k={k} {target:?}: cached path diverged"
                );
                assert_eq!(
                    extract(&ex, &frozen, target, c_frozen),
                    want,
                    "{encoding:?} k={k} {target:?}: frozen CSR diverged"
                );
                assert_eq!(
                    extract(&ex, &overlay, target, c_overlay),
                    want,
                    "{encoding:?} k={k} {target:?}: overlay diverged"
                );
            }
        }
    }
}

fn parity_config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid parity configuration")
}

/// Persist round-trip parity: feed a predictor a stream long enough to
/// compact its delta into a frozen base and fit, checkpoint it, load the
/// file into a read-only [`ScoringSnapshot`], and require the loaded
/// replica to score exactly like its writer on every serving path.
#[test]
fn checkpointed_compact_state_scores_bit_identically_after_load() {
    let dir = std::env::temp_dir()
        .join(format!("ssf-storage-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut p = OnlineLinkPredictor::open_with(
            parity_config(),
            &dir,
            DurabilityPolicy::default(),
            ObsHandle::noop(),
        )
        .expect("fresh durability dir")
        .0;
        let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted(), "stream must support a fit");
        assert!(
            p.snapshot().graph().base().link_count() > 0,
            "stream must compact into a frozen base"
        );
        let n = p.network().node_count() as NodeId;
        let mut pairs = Vec::new();
        for u in 0..24 {
            pairs.push((u, (u * 7 + 3) % n));
            pairs.push((u, (u * 13 + 1) % n));
        }
        pairs.push((0, n + 9)); // out of range: both must return None

        let writer = p.snapshot();
        let writer_scores = score_bits(&writer.score_batch(&pairs));
        let path = p.checkpoint().expect("checkpoint succeeds");
        let snap = ScoringSnapshot::load(&path).expect("loadable");
        assert_eq!(snap.epoch(), p.network().revision());
        assert!(
            snap.graph().is_pristine(),
            "loaded graph is one frozen base"
        );
        assert_eq!(snap.graph().base().link_count(), p.network().link_count());

        for &(u, v) in &pairs {
            assert_eq!(
                score_bits(&[snap.score(u, v)]),
                score_bits(&[p.score(u, v)]),
                "pair ({u},{v})"
            );
        }
        assert_eq!(
            score_bits(&snap.score_batch(&pairs)),
            writer_scores,
            "loaded replica's batch path diverged from its writer"
        );
        for threads in [1usize, 8] {
            assert_eq!(
                score_bits(&snap.score_batch_parallel(&pairs, threads)),
                writer_scores,
                "{threads} threads"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
