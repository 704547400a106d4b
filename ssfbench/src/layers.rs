//! Per-layer measurement from outside the program: ssf-core stages from
//! a replay of the batches the serving path dispatched, the model's
//! forward pass, and the `ssf.*` spans the program already records
//! (read as totals and counts only — their buckets are too coarse for
//! percentiles).

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ssf_repro::dyngraph::{GraphView, NodeId, Timestamp};
use ssf_repro::linalg::Matrix;
use ssf_repro::methods::MethodOptions;
use ssf_repro::obs::{ObsHandle, Registry, Snapshot};
use ssf_repro::ssf_core::{
    CacheStats, ExtractionCache, HopSubgraph, SsfConfig, SsfExtractor,
};
use ssf_repro::ssf_ml::{MlpConfig, NeuralMachine};

use crate::config;
use crate::report::{obj, Json};
use crate::stats::Dist;

/// The extractor a model trained with `method` scores through.
pub fn extractor(method: &MethodOptions) -> SsfExtractor {
    SsfExtractor::new(
        SsfConfig::new(method.k)
            .with_theta(method.theta)
            .with_encoding(method.ssf_encoding),
    )
}

/// Total ns recorded under span `name`.
pub fn span_ns(s: &Snapshot, name: &str) -> u64 {
    s.histogram(name).map_or(0, |h| h.sum())
}

/// ssf-core figures for a set of scored pairs.
#[derive(Debug, Clone)]
pub struct CoreLayer {
    /// Pairs replayed through the cached pipeline.
    pub pairs: usize,
    /// Cache lookups (balls and pairs) during the replay.
    pub lookups: u64,
    /// Share of those lookups served from the cache.
    pub hit_rate: f64,
    /// Per-pair self time of each stage, µs.
    pub ball_us: f64,
    /// Structure merge.
    pub structure_us: f64,
    /// Palette-WL.
    pub wl_us: f64,
    /// Encoding (influence matrix and bounded Dijkstra).
    pub encode_us: f64,
    /// `ssf.core.pair` minus its ball, structure and WL children.
    pub pair_us: f64,
    /// K-growth rounds per pair.
    pub kgrowth_rounds: f64,
    /// Wall time of the replay per pair, µs.
    pub replay_us_per_pair: f64,
    /// Uncached `try_extract` latency over distinct pairs, µs.
    pub extract: Dist,
    /// `HopSubgraph` nodes at the radius extraction reached.
    pub ball_nodes: Dist,
}

/// Accumulates [`CoreLayer`] figures over replayed batches.
pub struct CoreReplay {
    ex: SsfExtractor,
    registry: Arc<Registry>,
    obs: ObsHandle,
    stats: CacheStats,
    pairs: usize,
    replay_ns: u64,
    seen: HashSet<(NodeId, NodeId)>,
    extract_us: Vec<f64>,
    ball_nodes: Vec<f64>,
}

impl CoreReplay {
    /// An empty replay for a model trained with `method`.
    pub fn new(method: &MethodOptions) -> Self {
        let registry = Arc::new(Registry::new());
        CoreReplay {
            ex: extractor(method),
            obs: ObsHandle::of_registry(Arc::clone(&registry)),
            registry,
            stats: CacheStats::default(),
            pairs: 0,
            replay_ns: 0,
            seen: HashSet::new(),
            extract_us: Vec::new(),
            ball_nodes: Vec::new(),
        }
    }

    /// Replays one scored batch through `SsfExtractor::try_extract_cached`
    /// with a fresh recorder-enabled cache, as `score_batch` scores it,
    /// then times uncached `try_extract` on its pairs not seen before.
    /// Stops adding once [`config::REPLAY_PAIRS`] pairs and
    /// [`config::EXTRACT_SAMPLE`] timed extractions are reached.
    ///
    /// # Errors
    ///
    /// When a pair fails to extract.
    pub fn add<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        present: Timestamp,
        batch: &[(NodeId, NodeId)],
    ) -> Result<(), String> {
        if self.pairs < config::REPLAY_PAIRS {
            let start = Instant::now();
            let mut cache = ExtractionCache::with_recorder(self.obs.clone());
            for &(u, v) in batch {
                black_box(
                    self.ex
                        .try_extract_cached(g, u, v, present, &mut cache)
                        .map_err(|e| format!("replay ({u}, {v}): {e}"))?,
                );
            }
            self.replay_ns +=
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.stats.merge(&cache.stats());
            self.pairs += batch.len();
        }
        for &(u, v) in batch {
            if self.extract_us.len() >= config::EXTRACT_SAMPLE {
                break;
            }
            if !self.seen.insert((u, v)) {
                continue;
            }
            let t = Instant::now();
            let f = self
                .ex
                .try_extract(g, u, v, present)
                .map_err(|e| format!("extract ({u}, {v}): {e}"))?;
            self.extract_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let hop = HopSubgraph::try_extract(g, u, v, f.radius())
                .map_err(|e| format!("ball ({u}, {v}): {e}"))?;
            self.ball_nodes.push(hop.node_count() as f64);
        }
        Ok(())
    }

    /// The figures, per replayed pair.
    pub fn finish(&self) -> CoreLayer {
        let s = self.registry.snapshot();
        let n = self.pairs.max(1) as f64;
        let per_pair_us = |ns: u64| ns as f64 / n / 1e3;
        let ball = span_ns(&s, "ssf.core.ball");
        let structure = span_ns(&s, "ssf.core.structure");
        let wl = span_ns(&s, "ssf.core.wl");
        let pair = span_ns(&s, "ssf.core.pair");
        CoreLayer {
            pairs: self.pairs,
            lookups: self.stats.total_lookups(),
            hit_rate: self.stats.hit_rate(),
            ball_us: per_pair_us(ball),
            structure_us: per_pair_us(structure),
            wl_us: per_pair_us(wl),
            encode_us: per_pair_us(span_ns(&s, "ssf.core.encode")),
            pair_us: per_pair_us(pair.saturating_sub(ball + structure + wl)),
            kgrowth_rounds: s.counter("ssf.core.kgrowth_rounds") as f64 / n,
            replay_us_per_pair: per_pair_us(self.replay_ns),
            extract: Dist::of(&self.extract_us, 99.0),
            ball_nodes: Dist::of(&self.ball_nodes, 99.0),
        }
    }
}

impl CoreLayer {
    /// The figures as a detail object.
    pub fn detail(&self) -> Json {
        obj([
            ("pairs_replayed", Json::from(self.pairs)),
            ("cache_lookups", self.lookups.into()),
            ("cache_hit_rate", self.hit_rate.into()),
            ("ball_us", self.ball_us.into()),
            ("structure_us", self.structure_us.into()),
            ("wl_us", self.wl_us.into()),
            ("encode_us", self.encode_us.into()),
            ("pair_self_us", self.pair_us.into()),
            ("kgrowth_rounds", self.kgrowth_rounds.into()),
            ("replay_us_per_pair", self.replay_us_per_pair.into()),
            ("extract_samples", self.extract.n.into()),
            ("extract_p50_us", self.extract.p50.into()),
            ("extract_tail_pct", self.extract.tail_pct.into()),
            ("extract_tail_us", self.extract.tail.into()),
            ("ball_nodes_p50", self.ball_nodes.p50.into()),
            ("ball_nodes_tail", self.ball_nodes.tail.into()),
        ])
    }
}

/// Time of one forward pass of a neural machine shaped like the serving
/// model (the default MLP over the SSF feature width), µs per call.
pub fn forward_us(method: &MethodOptions) -> f64 {
    let dim = extractor(method).config().feature_dim();
    let rows = 64;
    let x = Matrix::from_fn(rows, dim, |i, j| {
        ((i * 31 + j * 17) % 13) as f64 / 13.0
    });
    let y: Vec<usize> = (0..rows).map(|i| i % 2).collect();
    let nm = NeuralMachine::train(
        &x,
        &y,
        MlpConfig {
            epochs: 2,
            ..MlpConfig::default()
        },
    );
    let calls = 20_000;
    let start = Instant::now();
    let mut acc = 0.0;
    for i in 0..calls {
        acc += nm.score(black_box(x.row(i % rows)));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / calls as f64 / 1e3
}
