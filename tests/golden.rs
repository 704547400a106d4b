//! Golden-vector tests: byte-exact SSF features for the paper's worked
//! small network (fixture `tests/fixtures/figure3_k4.txt`) and for the
//! bounded-Dijkstra edge cases — disconnected endpoints, a degenerate
//! single-node ball, max-radius growth (`tests/fixtures/dijkstra_k4.txt`).
//!
//! Every expectation here was derived by hand from Definitions 3–10 —
//! the structure-node merge, the Palette-WL order, the slot-pair
//! timestamps and the final unfolded vectors — so a failure means the
//! pipeline's semantics moved, not that a tolerance was too tight.
//! Comparisons go through `f64::to_bits`: no epsilon anywhere.

use dyngraph::DynamicNetwork;
use ssf_core::{EntryEncoding, SsfConfig, SsfExtractor};

const FIXTURE: &str = include_str!("fixtures/figure3_k4.txt");
const K: usize = 4;
const L_T: u32 = 5;
const THETA: f64 = 0.5;

const DIJKSTRA_FIXTURE: &str = include_str!("fixtures/dijkstra_k4.txt");
const DIJKSTRA_L_T: u32 = 9;

/// Parses a fixture's edge list and expected-vector lines.
fn parse_fixture(text: &str) -> (DynamicNetwork, Vec<(String, Vec<f64>)>) {
    let mut g = DynamicNetwork::new();
    let mut expected = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((name, values)) = line.split_once(':') {
            let v: Vec<f64> = values
                .split_whitespace()
                .map(|x| {
                    x.parse().unwrap_or_else(|_| {
                        panic!("bad fixture vector entry {x:?}")
                    })
                })
                .collect();
            expected.push((name.trim().to_string(), v));
        } else {
            let mut it = line.split_whitespace().map(str::parse::<u32>);
            match (it.next(), it.next(), it.next()) {
                (Some(Ok(u)), Some(Ok(v)), Some(Ok(t))) => {
                    g.add_link(u, v, t);
                }
                _ => panic!("malformed fixture edge line {line:?}"),
            }
        }
    }
    (g, expected)
}

fn load_fixture() -> (DynamicNetwork, Vec<(String, Vec<f64>)>) {
    parse_fixture(FIXTURE)
}

fn extractor(encoding: EntryEncoding) -> SsfExtractor {
    SsfExtractor::new(
        SsfConfig::new(K).with_theta(THETA).with_encoding(encoding),
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Influence of one link of age `dt`, mirroring
/// `ExponentialDecay::influence` exactly.
fn infl(dt: f64) -> f64 {
    (-THETA * dt).exp()
}

/// Log-influence entry, mirroring `EntryEncoding::LogInfluence` exactly.
fn log_infl(raw: f64) -> f64 {
    (1.0 + raw.ln() / 30.0).max(0.0)
}

/// The hand-derived normalized influences per unfold position.
/// Timestamps are stored sorted, and `normalized_influence` folds
/// left-to-right from 0.0 — the sums below replay that exact order.
fn influence_vector() -> Vec<f64> {
    let a02 = 0.0 + infl(2.0); // slot pair (0,2): link 0-7 @ t=3
    let a12 = 0.0 + infl(1.0); // slot pair (1,2): link 1-7 @ t=4
    let a03 = 0.0 + infl(4.0) + infl(4.0) + infl(3.0); // 0-{2,3,4} @ 1,1,2
    vec![a02, a12, a03, 0.0, 0.0]
}

#[test]
fn pipeline_intermediates_match_hand_derivation() {
    let (g, _) = load_fixture();
    let ex = extractor(EntryEncoding::Binary);
    let (ks, h_used, structure_nodes) = ex.k_structure(&g, 0, 1);
    assert_eq!(h_used, 1, "1 hop already yields 5 >= K structure nodes");
    assert_eq!(structure_nodes, 5, "{{0}} {{1}} {{2,3,4}} {{5,6}} {{7}}");
    assert_eq!(ks.occupied_count(), K, "{{5,6}} is order 5 and dropped");
    // Slot-pair timestamps pin both the Palette-WL order and the merge:
    // slot 2 must be {7} (links to both endpoints at t=3, 4) and slot 3
    // must be {2,3,4} (three links to endpoint 0 at t=1, 1, 2).
    assert_eq!(ks.timestamps_between(0, 2), &[3]);
    assert_eq!(ks.timestamps_between(1, 2), &[4]);
    assert_eq!(ks.timestamps_between(0, 3), &[1, 1, 2]);
    assert!(!ks.has_link(1, 3), "{{2,3,4}} never touches endpoint 1");
    assert!(!ks.has_link(2, 3), "7 never links to 2, 3 or 4");
    assert!(!ks.has_link(0, 1), "target history must stay excluded");
}

#[test]
fn exact_encodings_match_fixture_vectors() {
    let (g, expected) = load_fixture();
    assert_eq!(expected.len(), 3, "fixture lists three exact encodings");
    for (name, want) in &expected {
        let enc = EntryEncoding::parse(name).expect("fixture encoding name");
        let f = extractor(enc).extract(&g, 0, 1, L_T);
        assert_eq!(
            bits(f.values()),
            bits(want),
            "{name} diverged from the hand-computed vector"
        );
    }
}

#[test]
fn influence_encodings_match_hand_computation() {
    let (g, _) = load_fixture();
    let raw = influence_vector();
    let f =
        extractor(EntryEncoding::NormalizedInfluence).extract(&g, 0, 1, L_T);
    assert_eq!(bits(f.values()), bits(&raw));

    let logv: Vec<f64> = raw
        .iter()
        .map(|&x| if x > 0.0 { log_infl(x) } else { 0.0 })
        .collect();
    let f = extractor(EntryEncoding::LogInfluence).extract(&g, 0, 1, L_T);
    assert_eq!(bits(f.values()), bits(&logv));

    // The default concatenated encoding is log-influence ++ binary.
    let mut both = logv;
    both.extend([1.0, 1.0, 1.0, 0.0, 0.0]);
    let f =
        extractor(EntryEncoding::InfluenceAndStructure).extract(&g, 0, 1, L_T);
    assert_eq!(bits(f.values()), bits(&both));
    assert_eq!(f.values().len(), 2 * (K * (K - 1) / 2 - 1));
}

/// The Dijkstra fixture's pipeline intermediates: the isolated endpoint
/// keeps a single-node ball at every radius, growth stops the moment
/// `K` structure nodes exist, and the slot links carry the doubled
/// same-timestamp multisets the hand derivation assumes.
#[test]
fn dijkstra_fixture_intermediates_match_hand_derivation() {
    let (g, _) = parse_fixture(DIJKSTRA_FIXTURE);
    let ex = extractor(EntryEncoding::ReciprocalDistance);
    let (ks, h_used, structure_nodes) = ex.k_structure(&g, 0, 1);
    assert_eq!(h_used, 2, "h = 1 yields only 3 structure nodes");
    assert_eq!(structure_nodes, 4, "{{0}} {{1}} {{2,3}} {{4}}");
    assert_eq!(ks.occupied_count(), K);
    assert_eq!(ks.timestamps_between(0, 2), &[9, 9]);
    assert_eq!(ks.timestamps_between(2, 3), &[9, 9]);
    for n in 1..K {
        assert!(!ks.has_link(1, n), "isolated endpoint 1 has no links");
    }
    assert!(!ks.has_link(0, 3), "{{0}} never touches {{4}} directly");
}

/// Byte-exact vectors for the Dijkstra fixture: the unreachable slot-1
/// distances, the exactly-dyadic weights and the 1/1.5 entry all come
/// out bit-identical to the hand derivation, through both the plain and
/// the cached path.
#[test]
fn dijkstra_fixture_matches_hand_vectors() {
    let (g, expected) = parse_fixture(DIJKSTRA_FIXTURE);
    assert_eq!(expected.len(), 4, "fixture lists four exact encodings");
    let mut cache = ssf_core::ExtractionCache::new();
    for (name, want) in &expected {
        let enc = EntryEncoding::parse(name).expect("fixture encoding name");
        let f = extractor(enc).extract(&g, 0, 1, DIJKSTRA_L_T);
        assert_eq!(
            bits(f.values()),
            bits(want),
            "{name} diverged from the hand-computed vector"
        );
        let cached = extractor(enc)
            .try_extract_cached(&g, 0, 1, DIJKSTRA_L_T, &mut cache)
            .expect("valid target");
        assert_eq!(bits(cached.values()), bits(want), "{name} cached");
    }
}

/// The transcendental encodings of the Dijkstra fixture, derived from
/// the exact raw influences (both slot links sum to exactly 2.0).
#[test]
fn dijkstra_fixture_influence_encodings_match() {
    let (g, _) = parse_fixture(DIJKSTRA_FIXTURE);
    let logv: Vec<f64> = [2.0, 0.0, 0.0, 0.0, 2.0]
        .iter()
        .map(|&x| if x > 0.0 { log_infl(x) } else { 0.0 })
        .collect();
    let f =
        extractor(EntryEncoding::LogInfluence).extract(&g, 0, 1, DIJKSTRA_L_T);
    assert_eq!(bits(f.values()), bits(&logv));
    let mut both = logv;
    both.extend([1.0, 0.0, 0.0, 0.0, 1.0]);
    let f = extractor(EntryEncoding::InfluenceAndStructure).extract(
        &g,
        0,
        1,
        DIJKSTRA_L_T,
    );
    assert_eq!(bits(f.values()), bits(&both));
}

/// Max-radius growth: with `K = 10` the chain component can never
/// produce enough structure nodes, so `h` stops exactly at the
/// configured cap and the remaining slots stay zero-padded.
#[test]
fn dijkstra_fixture_max_radius_pair_caps_growth() {
    let (g, _) = parse_fixture(DIJKSTRA_FIXTURE);
    let config = SsfConfig::new(10)
        .with_theta(THETA)
        .with_encoding(EntryEncoding::ReciprocalDistance)
        .with_max_h(2);
    let ex = SsfExtractor::new(config);
    // Target (7, 1): both ends far from the 0-side fan; radius 2 reaches
    // only {7,6,5} ∪ {1} = 4 structure nodes, far short of K = 10.
    let (ks, h_used, structure_nodes) = ex.k_structure(&g, 7, 1);
    assert_eq!(h_used, 2, "growth must stop at max_h");
    assert_eq!(structure_nodes, 4);
    assert_eq!(ks.occupied_count(), 4, "6 of 10 slots stay padded");
    let f = ex.extract(&g, 7, 1, DIJKSTRA_L_T);
    // Chain 7-6-5 with unit influences: slot pairs (0,2)=[9] and
    // (2,3)=[9], weights exactly 1.0, so the entries are 1/(1+0) and
    // 1/(1+1); everything else (44 − 2 entries) is padding.
    let nonzero: Vec<(usize, f64)> = f
        .values()
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, v)| v != 0.0)
        .collect();
    assert_eq!(
        nonzero
            .iter()
            .map(|&(_, v)| v.to_bits())
            .collect::<Vec<_>>(),
        vec![1.0f64.to_bits(), 0.5f64.to_bits()]
    );
}

/// The golden vectors hold under the cache too — same bits through
/// `try_extract_cached`, cold and warm (the warm pass reuses both
/// endpoint balls).
#[test]
fn cached_extraction_reproduces_golden_vectors() {
    let (g, _) = load_fixture();
    let ex = extractor(EntryEncoding::InfluenceAndStructure);
    let plain = ex.extract(&g, 0, 1, L_T);
    let mut cache = ssf_core::ExtractionCache::new();
    for _ in 0..2 {
        let cached = ex
            .try_extract_cached(&g, 0, 1, L_T, &mut cache)
            .expect("valid target");
        assert_eq!(bits(cached.values()), bits(plain.values()));
    }
    assert!(cache.stats().ball_hits >= 2);
}
