//! SSF extraction (Algorithm 3, Definitions 9–10, Eq. 4–5 of the paper).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dyngraph::{GraphView, NodeId, Timestamp};
use obs::ObsHandle;

use crate::cache::ExtractionCache;
use crate::error::ExtractError;
use crate::hop::HopSubgraph;
use crate::influence::{normalized_influence, ExponentialDecay};
use crate::kstructure::KStructureSubgraph;
use crate::palette::palette_wl_csr;
use crate::structure::StructureSubgraph;

/// How an entry `A(m, n)` of the normalized K-structure-subgraph adjacency
/// matrix is encoded when a structure link exists between slots `m` and `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EntryEncoding {
    /// The normalized influence `l̃ = Σ exp(−θ·(l_t − l_k))` itself
    /// (Definition 8 / Eq. 4).
    NormalizedInfluence,
    /// Log-scaled normalized influence `max(0, 1 + ln(l̃)/Λ)` with `Λ = 30`:
    /// a monotone reparameterization of Definition 8 that is *linear in
    /// link age* (a single link of age `Δ` maps to `1 − θΔ/Λ`). The raw
    /// exponential spans hundreds of orders of magnitude, which no
    /// standardization can recondition for a learner; the log form keeps
    /// the same per-entry ranking while staying numerically informative.
    LogInfluence,
    /// The paper's experimental variant (§V-B): `1/(1 + min(d(N_x), d(N_y)))`
    /// where `d` is the shortest-path distance to the target link in the
    /// normalized subgraph with edge lengths `1/l̃`. The paper writes `1/min`
    /// without the `+1`; the endpoints sit at distance 0, so the raw formula
    /// divides by zero on every link incident to them — we add 1 to keep the
    /// encoding total while preserving its monotonicity (see DESIGN.md).
    ReciprocalDistance,
    /// The log-scaled influence unfolding ([`EntryEncoding::LogInfluence`])
    /// concatenated with the plain 0/1 connectivity unfolding (feature
    /// dimension doubles). §V-B invites relaxing the entries "to further
    /// increase the flexibility of SSF"; the influence half carries
    /// recency and multiplicity magnitude while the binary half keeps
    /// links visible after their influence has decayed to ~0, so the
    /// combination is the most *universal* choice and our default
    /// (ablation: `cargo run -p ssf-bench --bin ablation`).
    #[default]
    InfluenceAndStructure,
    /// SSF-W (§VI-C1): the raw multi-link count `k`, timestamps ignored.
    LinkCount,
    /// Plain 0/1 connectivity.
    Binary,
}

impl EntryEncoding {
    /// Stable identifier used in persisted models and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            EntryEncoding::NormalizedInfluence => "influence",
            EntryEncoding::LogInfluence => "log-influence",
            EntryEncoding::ReciprocalDistance => "recip-distance",
            EntryEncoding::InfluenceAndStructure => "influence+structure",
            EntryEncoding::LinkCount => "link-count",
            EntryEncoding::Binary => "binary",
        }
    }

    /// Parses [`EntryEncoding::as_str`] output (case-insensitive).
    pub fn parse(name: &str) -> Option<EntryEncoding> {
        [
            EntryEncoding::NormalizedInfluence,
            EntryEncoding::LogInfluence,
            EntryEncoding::ReciprocalDistance,
            EntryEncoding::InfluenceAndStructure,
            EntryEncoding::LinkCount,
            EntryEncoding::Binary,
        ]
        .into_iter()
        .find(|e| e.as_str().eq_ignore_ascii_case(name))
    }
}

/// Configuration of the SSF extractor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsfConfig {
    /// Number of structure nodes `K` to keep (the paper uses `K = 10`).
    pub k: usize,
    /// Influence decay.
    pub decay: ExponentialDecay,
    /// Adjacency-entry encoding.
    pub encoding: EntryEncoding,
    /// Safety cap on the hop radius growth (Algorithm 3 line 2 grows `h`
    /// until `|V_S| ≥ K`; the cap bounds pathological components).
    pub max_h: u32,
}

impl SsfConfig {
    /// Configuration with `K = k`, the paper's `θ = 0.5` and `h ≤ 10`,
    /// and this reproduction's default entry encoding,
    /// [`EntryEncoding::InfluenceAndStructure`].
    ///
    /// # Panics
    ///
    /// Panics if `k < 3` — smaller `K` yields an empty feature vector.
    pub fn new(k: usize) -> Self {
        assert!(k >= 3, "k must be at least 3 for a non-empty feature");
        SsfConfig {
            k,
            decay: ExponentialDecay::default(),
            encoding: EntryEncoding::default(),
            max_h: 10,
        }
    }

    /// Sets the decay damping factor θ.
    #[must_use]
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.decay = ExponentialDecay::new(theta);
        self
    }

    /// Sets the entry encoding.
    #[must_use]
    pub fn with_encoding(mut self, encoding: EntryEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Sets the hop-radius cap.
    #[must_use]
    pub fn with_max_h(mut self, max_h: u32) -> Self {
        assert!(max_h >= 1, "max_h must be at least 1");
        self.max_h = max_h;
        self
    }

    /// Dimension of the feature vector: `K(K−1)/2 − 1` (Eq. 5, every upper
    /// triangle entry except the target `A(1,2)`), doubled for the
    /// concatenated [`EntryEncoding::InfluenceAndStructure`].
    pub fn feature_dim(&self) -> usize {
        let base = self.k * (self.k - 1) / 2 - 1;
        if self.encoding == EntryEncoding::InfluenceAndStructure {
            2 * base
        } else {
            base
        }
    }
}

/// The Structure Subgraph Feature of one target link (Definition 10).
#[derive(Debug, Clone, PartialEq)]
pub struct SsfFeature {
    values: Vec<f64>,
    k: usize,
    h_used: u32,
    structure_nodes: usize,
}

impl SsfFeature {
    /// The unfolded feature vector, length `K(K−1)/2 − 1`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the feature, returning the raw vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The `K` this feature was extracted with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The hop radius the extraction stopped at.
    pub fn radius(&self) -> u32 {
        self.h_used
    }

    /// `|V_S|` of the final h-hop structure subgraph.
    pub fn structure_node_count(&self) -> usize {
        self.structure_nodes
    }
}

/// Extracts Structure Subgraph Features from a dynamic network
/// (Algorithm 3).
///
/// # Example
///
/// ```rust
/// use dyngraph::DynamicNetwork;
/// use ssf_core::{SsfConfig, SsfExtractor};
///
/// let g: DynamicNetwork =
///     [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)].into_iter().collect();
/// let ex = SsfExtractor::new(SsfConfig::new(4));
/// let f = ex.extract(&g, 0, 2, 5);
/// assert_eq!(f.values().len(), SsfConfig::new(4).feature_dim());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SsfExtractor {
    config: SsfConfig,
}

impl SsfExtractor {
    /// Creates an extractor with the given configuration.
    pub fn new(config: SsfConfig) -> Self {
        SsfExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SsfConfig {
        &self.config
    }

    /// Runs the full pipeline for target link `(a, b)` predicted at time
    /// `l_t` and returns the feature vector.
    ///
    /// `g` must be the *history* network (all links strictly before `l_t`);
    /// the extractor does not filter by timestamp itself so that callers can
    /// reuse one period slice for many target links.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is outside `g`. Serving paths
    /// that cannot rule those out should use
    /// [`SsfExtractor::try_extract`].
    pub fn extract<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
        l_t: Timestamp,
    ) -> SsfFeature {
        match self.try_extract(g, a, b, l_t) {
            Ok(f) => f,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SsfExtractor::extract`]: degenerate targets come
    /// back as [`ExtractError`] values instead of panics.
    ///
    /// # Errors
    ///
    /// [`ExtractError::DegenerateTarget`] when `a == b`, and
    /// [`ExtractError::UnknownEndpoint`] when either endpoint is outside
    /// `g`'s id space.
    pub fn try_extract<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
        l_t: Timestamp,
    ) -> Result<SsfFeature, ExtractError> {
        let mut cache = ExtractionCache::borrow(ObsHandle::noop());
        self.try_extract_cached(g, a, b, l_t, &mut cache)
    }

    /// [`SsfExtractor::try_extract`] against an [`ExtractionCache`]:
    /// bit-identical output, with the h-hop frontiers served from (and
    /// stored into) the cache's ball memo and every stage running in its
    /// scratch buffers.
    ///
    /// The cache is synced to `g`'s revision first, so stale balls can
    /// never leak into a result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsfExtractor::try_extract`].
    pub fn try_extract_cached<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
        l_t: Timestamp,
        cache: &mut ExtractionCache,
    ) -> Result<SsfFeature, ExtractError> {
        let (ks, h_used, structure_nodes) =
            self.try_k_structure_cached(g, a, b, cache)?;
        let obs = cache.recorder().clone();
        Ok(self.feature_from_ks(
            &ks,
            h_used,
            structure_nodes,
            l_t,
            &obs,
            &mut cache.scratch.dijkstra,
        ))
    }

    /// Definitions 9–10 from an already-selected K-structure subgraph: the
    /// cheap, `l_t`-dependent tail every caching layer re-runs per call.
    fn feature_from_ks(
        &self,
        ks: &KStructureSubgraph,
        h_used: u32,
        structure_nodes: usize,
        l_t: Timestamp,
        obs: &ObsHandle,
        dij: &mut DijkstraScratch,
    ) -> SsfFeature {
        let _span = obs.span("ssf.core.encode");
        let k = self.config.k;
        let mut values = Vec::with_capacity(self.config.feature_dim());
        match self.config.encoding {
            EntryEncoding::InfluenceAndStructure => {
                let infl = self.adjacency_matrix(
                    ks,
                    l_t,
                    EntryEncoding::LogInfluence,
                    dij,
                );
                unfold_upper_triangle(&infl, k, &mut values);
                let bin =
                    self.adjacency_matrix(ks, l_t, EntryEncoding::Binary, dij);
                unfold_upper_triangle(&bin, k, &mut values);
            }
            enc => {
                let matrix = self.adjacency_matrix(ks, l_t, enc, dij);
                unfold_upper_triangle(&matrix, k, &mut values);
            }
        }
        SsfFeature {
            values,
            k,
            h_used,
            structure_nodes,
        }
    }

    /// Runs the pipeline up to K-structure-subgraph selection (Algorithm 3
    /// lines 1–8), returning `(subgraph, h_used, |V_S|)`.
    ///
    /// Exposed separately so pattern mining (Figure 6) can reuse it.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is outside `g`.
    pub fn k_structure<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
    ) -> (KStructureSubgraph, u32, usize) {
        match self.try_k_structure(g, a, b) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`SsfExtractor::k_structure`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsfExtractor::try_extract`].
    pub fn try_k_structure<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
    ) -> Result<(KStructureSubgraph, u32, usize), ExtractError> {
        // One code path for cached and uncached extraction: the uncached
        // form simply runs against the thread's borrowed (empty) cache,
        // which is what makes "bit-identical" a structural guarantee
        // instead of a test hope.
        let mut cache = ExtractionCache::borrow(ObsHandle::noop());
        self.try_k_structure_cached(g, a, b, &mut cache)
    }

    /// Cached form of [`SsfExtractor::try_k_structure`]: syncs `cache` to
    /// `g`'s revision, then runs Algorithm 3 lines 1–8 against its ball
    /// memo and scratch buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SsfExtractor::try_extract`].
    pub fn try_k_structure_cached<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
        cache: &mut ExtractionCache,
    ) -> Result<(KStructureSubgraph, u32, usize), ExtractError> {
        HopSubgraph::validate(g, a, b)?;
        cache.sync(g);
        Ok(self.compute_pair(g, a, b, cache))
    }

    /// Algorithm 3 lines 1–8 against `cache`'s ball memo and scratch
    /// buffers. Endpoints must already be validated.
    fn compute_pair<G: GraphView + ?Sized>(
        &self,
        g: &G,
        a: NodeId,
        b: NodeId,
        cache: &mut ExtractionCache,
    ) -> (KStructureSubgraph, u32, usize) {
        let _pair_span = cache.recorder().span("ssf.core.pair");
        let k = self.config.k;
        let mut h = 1;
        let ball_a = cache.ball(g, a, h);
        let ball_b = cache.ball(g, b, h);
        let hop_span = cache.recorder().span("ssf.core.hop");
        let mut hop = HopSubgraph::from_balls(
            g,
            a,
            b,
            h,
            ball_a.as_slice(),
            ball_b.as_slice(),
            &mut cache.scratch.hop,
        );
        hop_span.finish();
        let structure_span = cache.recorder().span("ssf.core.structure");
        let mut s = StructureSubgraph::combine_with_scratch(
            &hop,
            &mut cache.scratch.structure,
        );
        structure_span.finish();
        while s.node_count() < k && h < self.config.max_h {
            h += 1;
            cache.recorder().counter("ssf.core.kgrowth_rounds", 1);
            let ball_a = cache.ball(g, a, h);
            let ball_b = cache.ball(g, b, h);
            let hop_span = cache.recorder().span("ssf.core.hop");
            let grown = HopSubgraph::from_balls(
                g,
                a,
                b,
                h,
                ball_a.as_slice(),
                ball_b.as_slice(),
                &mut cache.scratch.hop,
            );
            hop_span.finish();
            if grown.node_count() == hop.node_count() {
                break; // component exhausted
            }
            hop = grown;
            let structure_span = cache.recorder().span("ssf.core.structure");
            s = StructureSubgraph::combine_with_scratch(
                &hop,
                &mut cache.scratch.structure,
            );
            structure_span.finish();
        }
        // Initial colors: distance to the target link, with structure nodes
        // adjacent to BOTH endpoints preceding the rest of their distance
        // class. The prime-log hash ranks well-connected nodes late within
        // a class, which would push high-degree common neighbors — the very
        // nodes the paper's Figure 1 argument relies on — out of the top-K
        // window on dense graphs; the refined init keeps them selectable
        // (it is also the order the paper's own Figure 4 example shows).
        let dist: Vec<u32> = (0..s.node_count())
            .map(|x| {
                let d = s.distance(x);
                let nb = s.neighbors(x);
                let both = nb.contains(&0) && nb.contains(&1);
                2 * d + u32::from(d >= 1 && !both)
            })
            .collect();
        // Tiebreak for automorphic structure nodes: earliest-ordered member
        // first — canonical local ids sort by (distance, global id), which
        // keeps a slot's meaning stable across target links.
        let tiebreak: Vec<u64> = (0..s.node_count())
            .map(|x| s.members(x)[0] as u64)
            .collect();
        let wl_span = cache.recorder().span("ssf.core.wl");
        // Refinement reads the structure subgraph's adjacency CSR directly —
        // no per-pair `Vec<Vec<usize>>` materialization.
        let order = palette_wl_csr(
            s.node_count(),
            |x| s.neighbors(x),
            &dist,
            (0, 1),
            &tiebreak,
            &mut cache.scratch.wl,
        );
        wl_span.finish();
        let select_span = cache.recorder().span("ssf.core.select");
        let ks = KStructureSubgraph::select_with_scratch(
            g,
            &hop,
            &s,
            &order,
            k,
            &mut cache.scratch.select,
        );
        select_span.finish();
        (ks, h, s.node_count())
    }

    /// Builds the dense `K×K` adjacency matrix `A` (Eq. 4) in row-major
    /// order for one (non-concatenated) [`EntryEncoding`].
    fn adjacency_matrix(
        &self,
        ks: &KStructureSubgraph,
        l_t: Timestamp,
        encoding: EntryEncoding,
        dij: &mut DijkstraScratch,
    ) -> Vec<f64> {
        let k = self.config.k;
        let mut a = vec![0.0; k * k];
        let entry = |m: usize, n: usize| -> f64 {
            let ts = ks.timestamps_between(m, n);
            if ts.is_empty() {
                return 0.0;
            }
            match encoding {
                EntryEncoding::NormalizedInfluence => {
                    normalized_influence(ts, l_t, self.config.decay)
                }
                EntryEncoding::LogInfluence => {
                    const LAMBDA: f64 = 30.0;
                    let raw = normalized_influence(ts, l_t, self.config.decay);
                    if raw > 0.0 {
                        (1.0 + raw.ln() / LAMBDA).max(0.0)
                    } else {
                        0.0
                    }
                }
                EntryEncoding::LinkCount => ts.len() as f64,
                EntryEncoding::Binary => 1.0,
                EntryEncoding::ReciprocalDistance => 0.0, // filled below
                EntryEncoding::InfluenceAndStructure => {
                    unreachable!("concatenated encoding split by caller")
                }
            }
        };
        for (m, n) in ks.links() {
            let v = entry(m, n);
            a[m * k + n] = v;
            a[n * k + m] = v;
        }
        if encoding == EntryEncoding::ReciprocalDistance {
            self.fill_reciprocal_distance(ks, l_t, &mut a, dij);
        }
        // The target entry is always unknown (Eq. 4 note).
        a[1] = 0.0;
        a[k] = 0.0;
        a
    }

    /// §V-B variant: entries are `1/(1 + min(d(N_x), d(N_y)))` with `d` the
    /// Dijkstra distance to either endpoint over edge lengths `1/l̃`.
    ///
    /// Both runs are *bounded*: relaxation stops as soon as every slot
    /// incident to a structure link has settled (only those distances are
    /// read below), and a link-free subgraph skips the traversal entirely.
    /// With non-negative weights and strict `<` relaxation the settled
    /// distances are the minimum over paths of the float path sum — a value
    /// independent of relaxation order — so early exit is bit-identical to
    /// the exhaustive reference run; unreachable slots keep `+∞`, and
    /// `1/(1+∞)` is the same `+0.0` the matrix was initialized with.
    fn fill_reciprocal_distance(
        &self,
        ks: &KStructureSubgraph,
        l_t: Timestamp,
        a: &mut [f64],
        dij: &mut DijkstraScratch,
    ) {
        let k = self.config.k;
        if dij.wadj.len() < k {
            dij.wadj.resize_with(k, Vec::new);
        }
        for row in dij.wadj[..k].iter_mut() {
            row.clear();
        }
        dij.needed.clear();
        dij.needed.resize(k, false);
        let mut needed_count = 0;
        for (m, n) in ks.links() {
            let lt = normalized_influence(
                ks.timestamps_between(m, n),
                l_t,
                self.config.decay,
            );
            if lt > 0.0 {
                let len = 1.0 / lt;
                dij.wadj[m].push((n, len));
                dij.wadj[n].push((m, len));
            }
            for s in [m, n] {
                if !dij.needed[s] {
                    dij.needed[s] = true;
                    needed_count += 1;
                }
            }
        }
        if needed_count == 0 {
            return; // no links: every entry stays 0
        }
        bounded_dijkstra(dij, k, 0, needed_count, DistSlot::A);
        bounded_dijkstra(dij, k, 1, needed_count, DistSlot::B);
        let d = |m: usize| dij.dist_a[m].min(dij.dist_b[m]);
        for (m, n) in ks.links() {
            let v = 1.0 / (1.0 + d(m).min(d(n)));
            a[m * k + n] = v;
            a[n * k + m] = v;
        }
    }
}

/// Which distance array of [`DijkstraScratch`] a run fills.
#[derive(Clone, Copy)]
enum DistSlot {
    A,
    B,
}

/// Reusable buffers for the bounded Dijkstra runs of the
/// [`EntryEncoding::ReciprocalDistance`] encoding: the weighted slot
/// adjacency, both distance arrays and the relaxation heap.
///
/// Like [`crate::HopScratch`], reuse never changes output.
#[derive(Debug, Clone, Default)]
pub struct DijkstraScratch {
    wadj: Vec<Vec<(usize, f64)>>,
    dist_a: Vec<f64>,
    dist_b: Vec<f64>,
    /// Slots whose distance the encoding actually reads (incident to links).
    needed: Vec<bool>,
    settled: Vec<bool>,
    /// Min-heap of `(distance bits, slot)`; for non-negative finite `f64`
    /// the bit order equals the numeric order.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

/// Single-source Dijkstra over `dij.wadj[..k]` from `src`, exiting early
/// once all `needed_count` link-incident slots have settled.
fn bounded_dijkstra(
    dij: &mut DijkstraScratch,
    k: usize,
    src: usize,
    needed_count: usize,
    slot: DistSlot,
) {
    let dist = match slot {
        DistSlot::A => &mut dij.dist_a,
        DistSlot::B => &mut dij.dist_b,
    };
    dist.clear();
    dist.resize(k, f64::INFINITY);
    dij.settled.clear();
    dij.settled.resize(k, false);
    dij.heap.clear();
    dist[src] = 0.0;
    dij.heap.push(Reverse((0.0f64.to_bits(), src)));
    let mut remaining = needed_count;
    while let Some(Reverse((bits, u))) = dij.heap.pop() {
        let du = f64::from_bits(bits);
        if dij.settled[u] || du > dist[u] {
            continue; // stale heap entry
        }
        dij.settled[u] = true;
        if dij.needed[u] {
            remaining -= 1;
            if remaining == 0 {
                break; // every read distance is final
            }
        }
        for &(v, w) in &dij.wadj[u] {
            let nd = du + w;
            if nd < dist[v] {
                dist[v] = nd;
                dij.heap.push(Reverse((nd.to_bits(), v)));
            }
        }
    }
}

/// Eq. 5: appends the upper triangle of the row-major `K×K` matrix by
/// column, skipping the target entry A(1,2) (0-based (0,1)).
fn unfold_upper_triangle(matrix: &[f64], k: usize, out: &mut Vec<f64>) {
    for n in 2..k {
        for m in 0..n {
            out.push(matrix[m * k + n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;

    fn chain_with_fan() -> DynamicNetwork {
        // target (0,1); triangle 0-2-1; chain 1-3-4; pendants 5,6 on 0.
        [
            (0, 2, 8),
            (1, 2, 9),
            (1, 3, 5),
            (3, 4, 6),
            (0, 5, 7),
            (0, 6, 7),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn feature_has_configured_dimension() {
        for k in [3, 5, 10] {
            let cfg = SsfConfig::new(k);
            let f = SsfExtractor::new(cfg).extract(&chain_with_fan(), 0, 1, 10);
            assert_eq!(f.values().len(), cfg.feature_dim());
            // Default (concatenated) encoding doubles the Eq. 5 dimension.
            assert_eq!(f.values().len(), 2 * (k * (k - 1) / 2 - 1));
            let single = cfg.with_encoding(EntryEncoding::Binary);
            let f =
                SsfExtractor::new(single).extract(&chain_with_fan(), 0, 1, 10);
            assert_eq!(f.values().len(), k * (k - 1) / 2 - 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn config_rejects_tiny_k() {
        let _ = SsfConfig::new(2);
    }

    #[test]
    fn radius_grows_until_k_reached() {
        // A long path needs h > 1 to collect enough structure nodes.
        let g: DynamicNetwork = (0..8u32).map(|i| (i, i + 1, 1)).collect();
        let cfg = SsfConfig::new(6);
        let f = SsfExtractor::new(cfg).extract(&g, 3, 4, 2);
        assert!(f.radius() > 1);
        assert!(f.structure_node_count() >= 6);
    }

    #[test]
    fn radius_stops_when_component_exhausted() {
        let g: DynamicNetwork = [(0, 1, 1), (0, 2, 1)].into_iter().collect();
        let cfg = SsfConfig::new(10);
        let f = SsfExtractor::new(cfg).extract(&g, 0, 1, 2);
        assert!(f.structure_node_count() < 10);
        assert_eq!(f.values().len(), cfg.feature_dim());
    }

    #[test]
    fn normalized_influence_encoding_reflects_recency() {
        let recent: DynamicNetwork =
            [(0, 2, 9), (1, 2, 9)].into_iter().collect();
        let old: DynamicNetwork = [(0, 2, 1), (1, 2, 1)].into_iter().collect();
        let cfg =
            SsfConfig::new(3).with_encoding(EntryEncoding::NormalizedInfluence);
        let ex = SsfExtractor::new(cfg);
        let fr = ex.extract(&recent, 0, 1, 10);
        let fo = ex.extract(&old, 0, 1, 10);
        let sum = |f: &SsfFeature| f.values().iter().sum::<f64>();
        assert!(sum(&fr) > sum(&fo));
    }

    #[test]
    fn link_count_encoding_ignores_time() {
        let g: DynamicNetwork =
            [(0, 2, 1), (0, 2, 9), (1, 2, 5)].into_iter().collect();
        let cfg = SsfConfig::new(3).with_encoding(EntryEncoding::LinkCount);
        let f = SsfExtractor::new(cfg).extract(&g, 0, 1, 10);
        // slots: 0={0},1={1},2={2}; unfold = [A(0,2), A(1,2)].
        assert_eq!(f.values(), &[2.0, 1.0]);
    }

    #[test]
    fn binary_encoding_is_zero_one() {
        let g = chain_with_fan();
        let cfg = SsfConfig::new(6).with_encoding(EntryEncoding::Binary);
        let f = SsfExtractor::new(cfg).extract(&g, 0, 1, 10);
        assert!(f.values().iter().all(|&v| v == 0.0 || v == 1.0));
        assert!(f.values().contains(&1.0));
    }

    #[test]
    fn reciprocal_distance_bounded_by_one() {
        let g = chain_with_fan();
        let cfg =
            SsfConfig::new(6).with_encoding(EntryEncoding::ReciprocalDistance);
        let f = SsfExtractor::new(cfg).extract(&g, 0, 1, 10);
        assert!(f.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(f.values().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn try_extract_matches_extract_and_reports_errors() {
        let g = chain_with_fan();
        let ex = SsfExtractor::new(SsfConfig::new(5));
        assert_eq!(
            ex.try_extract(&g, 0, 1, 10).expect("valid target"),
            ex.extract(&g, 0, 1, 10)
        );
        assert_eq!(
            ex.try_extract(&g, 3, 3, 10),
            Err(ExtractError::DegenerateTarget { node: 3 })
        );
        assert_eq!(
            ex.try_extract(&g, 0, 42, 10),
            Err(ExtractError::UnknownEndpoint {
                node: 42,
                node_count: g.node_count()
            })
        );
    }

    #[test]
    fn deterministic_extraction() {
        let g = chain_with_fan();
        let ex = SsfExtractor::new(SsfConfig::new(8));
        assert_eq!(ex.extract(&g, 0, 1, 10), ex.extract(&g, 0, 1, 10));
    }

    #[test]
    fn target_history_does_not_leak() {
        // Identical neighborhoods; one network also has direct 0-1 history.
        let base: DynamicNetwork = [(0, 2, 5), (1, 2, 6)].into_iter().collect();
        let leaky: DynamicNetwork =
            [(0, 2, 5), (1, 2, 6), (0, 1, 7), (0, 1, 8)]
                .into_iter()
                .collect();
        let ex = SsfExtractor::new(SsfConfig::new(3));
        assert_eq!(
            ex.extract(&base, 0, 1, 10).values(),
            ex.extract(&leaky, 0, 1, 10).values()
        );
    }

    #[test]
    fn cached_extraction_is_bit_identical_to_plain() {
        let g = chain_with_fan();
        let ex = SsfExtractor::new(SsfConfig::new(5));
        let mut cache = ExtractionCache::new();
        let plain = ex.extract(&g, 0, 1, 10);
        let cold = ex.try_extract_cached(&g, 0, 1, 10, &mut cache).unwrap();
        let warm = ex.try_extract_cached(&g, 0, 1, 10, &mut cache).unwrap();
        let bits = |f: &SsfFeature| -> Vec<u64> {
            f.values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&cold), bits(&plain));
        assert_eq!(bits(&warm), bits(&plain));
        let warm_hits = cache.stats().ball_hits;
        assert!(warm_hits >= 2, "warm pair reuses both balls");
        // A second pair sharing endpoint 0 reuses its cached ball.
        let _ = ex.try_extract_cached(&g, 0, 3, 10, &mut cache).unwrap();
        assert!(cache.stats().ball_hits > warm_hits, "endpoint balls shared");
    }

    #[test]
    fn cached_extraction_tracks_graph_mutations() {
        let mut g = chain_with_fan();
        let ex = SsfExtractor::new(SsfConfig::new(5));
        let mut cache = ExtractionCache::new();
        let before = ex.try_extract_cached(&g, 0, 1, 10, &mut cache).unwrap();
        g.add_link(2, 3, 9); // new induced link inside the 1-hop subgraph
        let after = ex.try_extract_cached(&g, 0, 1, 10, &mut cache).unwrap();
        assert_eq!(after, ex.extract(&g, 0, 1, 10), "no stale result");
        assert_ne!(before, after, "mutation must be visible");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn extraction_over_frozen_view_is_bit_identical() {
        use dyngraph::{DeltaGraph, FrozenGraph};
        use std::sync::Arc;

        let g = chain_with_fan();
        let frozen = FrozenGraph::from_view(&g);
        let overlay = DeltaGraph::new(Arc::new(frozen.clone())).publish();
        let ex = SsfExtractor::new(SsfConfig::new(5));
        let bits = |f: &SsfFeature| -> Vec<u64> {
            f.values().iter().map(|v| v.to_bits()).collect()
        };
        let want = ex.extract(&g, 0, 1, 10);
        assert_eq!(bits(&ex.extract(&frozen, 0, 1, 10)), bits(&want));
        assert_eq!(bits(&ex.extract(&overlay, 0, 1, 10)), bits(&want));
        let mut cache = ExtractionCache::new();
        let cached = ex
            .try_extract_cached(&frozen, 0, 1, 10, &mut cache)
            .unwrap();
        assert_eq!(bits(&cached), bits(&want));
    }

    #[test]
    fn endpoint_symmetry() {
        // Extracting (a, b) and (b, a) gives the same vector when the two
        // sides are mirror images.
        let g: DynamicNetwork = [(0, 2, 1), (1, 3, 1), (2, 4, 2), (3, 4, 2)]
            .into_iter()
            .collect();
        let ex = SsfExtractor::new(SsfConfig::new(5));
        let ab = ex.extract(&g, 0, 1, 3);
        let ba = ex.extract(&g, 1, 0, 3);
        assert_eq!(ab.values(), ba.values());
    }
}
