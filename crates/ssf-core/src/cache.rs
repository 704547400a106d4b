//! Graph-versioned extraction cache: the amortization layer of the batch
//! scoring engine.
//!
//! SSF extraction recomputes h-hop frontiers and full pipeline runs from
//! scratch for every candidate pair, yet pairs scored in one batch share
//! endpoints (so their BFS balls coincide) and pairs re-scored between
//! graph updates share everything. The cache memoizes both levels:
//!
//! * **per-endpoint balls** — `(node, h) →` bounded BFS frontier, the unit
//!   [`HopSubgraph::from_balls`](crate::HopSubgraph::from_balls) composes
//!   pairs from, and
//! * **per-pair K-structure results** — `(a, b) →` the selected
//!   [`KStructureSubgraph`] (everything *upstream* of the prediction time
//!   `l_t`; the cheap `K×K` matrix fill is redone per call so one cached
//!   pair serves any `l_t`).
//!
//! Invalidation is by **graph revision and window**:
//! [`dyngraph::DynamicNetwork`] bumps a monotone counter on every accepted
//! mutation (a sliding-window `advance` included), and
//! [`ExtractionCache::sync`] drops all memoized state whenever the observed
//! revision moves. Entries are therefore keyed `(pair, revision, window)`
//! in effect, without storing either per entry.
//!
//! Writers that know a mutation's *footprint* — the affected nodes from a
//! [`dyngraph::AdvanceReport`] plus any inserted link's endpoints — use
//! [`ExtractionCache::sync_affected`] instead and keep everything else: a
//! memoized BFS ball can only change if the mutation touched one of its
//! members (every shortest path into a ball runs through the ball), and a
//! memoized pair can only change if the mutation touched its recorded
//! dependency set ([`CachedPair::deps`], the merged-ball node set its
//! pipeline examined). Reverse indexes (node → ball keys / pair keys) make
//! that O(entries-containing-an-affected-node), proportional to the damage
//! `d`, never a full flush. The indexes are lazy: the first
//! `sync_affected` builds them from the live entries and every later
//! insert keeps them current, so caches that never see a footprint (a
//! snapshot's per-batch cache, fit-extraction caches, an unbounded
//! writer's cache) never pay for them.
//!
//! Cached and uncached extractions are **bit-identical** by construction:
//! both route through the same canonical-order subgraph assembly and the
//! same refinement code, and reusing scratch buffers or memoized balls
//! never changes any intermediate value (`tests/properties.rs` proves this
//! end to end against live `observe`/`score_batch` interleavings).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use dyngraph::{GraphView, NodeId, Timestamp};
use obs::ObsHandle;

use crate::feature::DijkstraScratch;
use crate::hop::{ball, ball_extend, HopScratch};
use crate::kstructure::{KStructureSubgraph, SelectScratch};
use crate::palette::WlScratch;
use crate::structure::StructureScratch;

/// Reusable buffers for the whole extraction pipeline, threaded through
/// hop extraction, structure combination, Palette-WL refinement,
/// K-selection and the reciprocal-distance encoding.
#[derive(Debug, Clone, Default)]
pub struct ExtractScratch {
    /// BFS + ball-merge buffers.
    pub hop: HopScratch,
    /// Algorithm 1 merge buffers.
    pub structure: StructureScratch,
    /// Palette-WL per-round buffers.
    pub wl: WlScratch,
    /// K-selection buffers (slot and owner maps, timestamp triples).
    pub select: SelectScratch,
    /// Bounded-Dijkstra buffers for the reciprocal-distance encoding.
    pub dijkstra: DijkstraScratch,
}

/// A bounded-size memo with LRU-style segmented eviction.
///
/// Entries are stamped with a monotone tick on insert and on every hit;
/// when the map reaches capacity the oldest half (by stamp) is dropped in
/// one `O(n)` sweep. This trades exact LRU order for zero per-entry list
/// maintenance — eviction affects only performance, never output, because
/// cached and recomputed values are identical.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (stamps restart; capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.tick = 0;
    }

    /// Looks up `key`, refreshing its eviction stamp on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(stamp, v)| {
            *stamp = tick;
            &*v
        })
    }

    /// Iterates over live entries in arbitrary order (stamps stay
    /// untouched — iteration is not a "use" for eviction purposes).
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (_, v))| (k, v))
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Inserts `key → value`, evicting the stalest half first when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let mut stamps: Vec<u64> =
                self.map.values().map(|&(s, _)| s).collect();
            // Keep the newer half: drop stamps up to the lower median,
            // found by selection rather than a full sort.
            let mid = (stamps.len() - 1) / 2;
            let cutoff = *stamps.select_nth_unstable(mid).1;
            self.map.retain(|_, &mut (s, _)| s > cutoff);
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
    }
}

/// The `l_t`-independent prefix of one pair's extraction: Algorithm 3
/// lines 1–8 (hop growth, structure combination, Palette-WL selection).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPair {
    /// The selected K-structure subgraph.
    pub ks: KStructureSubgraph,
    /// The hop radius the adaptive growth stopped at.
    pub h_used: u32,
    /// `|V_S|` of the final structure subgraph.
    pub structure_nodes: usize,
    /// Invalidation footprint: the merged-ball node set the pipeline
    /// examined, in canonical local order (the final hop subgraph's
    /// global ids). A graph mutation leaves this result
    /// bit-identical unless it touches one of these nodes — the basis of
    /// [`ExtractionCache::sync_affected`]'s selective invalidation.
    pub deps: Vec<NodeId>,
}

/// Hit/miss/invalidation counters of an [`ExtractionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-endpoint ball lookups served from the memo.
    pub ball_hits: u64,
    /// Per-endpoint ball lookups that ran a fresh BFS.
    pub ball_misses: u64,
    /// Per-pair lookups served from the memo.
    pub pair_hits: u64,
    /// Per-pair lookups that ran the full pipeline.
    pub pair_misses: u64,
    /// Times the graph revision moved and the memos were dropped.
    pub invalidations: u64,
    /// Times a revision/window move was absorbed selectively (only the
    /// entries touching affected nodes were dropped).
    pub selective_invalidations: u64,
    /// Individual memo entries (balls + pairs) dropped by selective
    /// invalidation — proportional to mutation damage, not cache size.
    pub entries_invalidated: u64,
}

impl CacheStats {
    /// Fraction of all lookups (balls + pairs) served from the memo;
    /// 0.0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ball_hits + self.pair_hits;
        let total = hits + self.ball_misses + self.pair_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total lookups, hits and misses, balls and pairs combined.
    pub fn total_lookups(&self) -> u64 {
        self.ball_hits + self.ball_misses + self.pair_hits + self.pair_misses
    }

    /// Folds another cache's tallies into this one — the aggregation the
    /// batch extraction paths use to combine per-chunk caches into one
    /// hit-rate account.
    pub fn merge(&mut self, other: &CacheStats) {
        self.ball_hits += other.ball_hits;
        self.ball_misses += other.ball_misses;
        self.pair_hits += other.pair_hits;
        self.pair_misses += other.pair_misses;
        self.invalidations += other.invalidations;
        self.selective_invalidations += other.selective_invalidations;
        self.entries_invalidated += other.entries_invalidated;
    }
}

/// An immutable, shareable view of an [`ExtractionCache`]'s memos at one
/// graph revision.
///
/// Produced by [`ExtractionCache::freeze`] and consumed by
/// [`ExtractionCache::with_frozen`]: a fresh mutable cache seeded with a
/// frozen view serves lookups from the view on a local miss, so many
/// reader threads can share one warm memo without locking. The view is
/// `Send + Sync` (all payloads are `Arc`-shared immutable data) and stays
/// valid only for the revision it was frozen at — a seeded cache drops it
/// as soon as [`ExtractionCache::sync`] observes a newer revision.
///
/// Frozen lookups never change extraction output: the view holds the same
/// bit-identical balls and pair results a cold cache would recompute.
#[derive(Debug, Clone)]
pub struct FrozenCacheView {
    revision: u64,
    window: Option<(Timestamp, Timestamp)>,
    config_key: (usize, u32),
    balls: Arc<HashMap<(NodeId, u32), CachedBall>>,
    pairs: Arc<HashMap<(NodeId, NodeId), Arc<CachedPair>>>,
}

impl FrozenCacheView {
    /// The graph revision the view was frozen at.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The sliding window `(width, horizon)` the view was frozen under,
    /// `None` for an unbounded graph. Reuse requires both the revision
    /// *and* the window to match — two graphs must never trade memos
    /// across different windows even if their revisions coincide (e.g.
    /// across recovery lineages).
    pub fn window(&self) -> Option<(Timestamp, Timestamp)> {
        self.window
    }

    /// Frozen entry counts `(balls, pairs)`.
    pub fn len(&self) -> (usize, usize) {
        (self.balls.len(), self.pairs.len())
    }

    /// Whether the view holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty() && self.pairs.is_empty()
    }
}

/// The graph-versioned extraction cache (see the [module docs](self)).
///
/// One cache serves one graph value over time — any [`GraphView`]
/// implementor works, since `sync` tracks the view's revision counter.
/// Pair keys are directional — `(a, b)` and `(b, a)` are distinct targets
/// because the endpoints pin Palette-WL orders 1 and 2 respectively.
/// A memoized per-endpoint h-hop frontier: `(node, min-distance)` pairs
/// in BFS layer order, the source first at distance 0.
pub type CachedBall = Arc<Vec<(NodeId, u32)>>;

/// Default per-memo entry capacity of [`ExtractionCache::new`].
const MEMO_CAPACITY: usize = 8192;

/// Reverse indexes tolerate this many slots before their first
/// stale-entry compaction; afterwards the trigger doubles with the live
/// slot count (amortized O(1) per insert).
const INDEX_REBUILD_FLOOR: usize = 1 << 14;

#[derive(Debug, Clone)]
pub struct ExtractionCache {
    revision: u64,
    /// The sliding window `(width, horizon)` the memos were filled
    /// under; `None` for unbounded graphs (or when unknown, after a
    /// footprint-blind [`ExtractionCache::sync`] drop).
    window: Option<(Timestamp, Timestamp)>,
    /// `(k, max_h)` the pair memo was filled under; balls are
    /// config-independent and survive config changes.
    config_key: (usize, u32),
    balls: LruCache<(NodeId, u32), CachedBall>,
    pairs: LruCache<(NodeId, NodeId), Arc<CachedPair>>,
    /// Whether the reverse indexes are maintained: false until the first
    /// [`ExtractionCache::sync_affected`], which builds them from the
    /// live entries; inserts keep them current from then on.
    indexed: bool,
    /// Reverse index: member node → ball keys whose memo contains it.
    /// May hold stale keys for evicted balls (removal is idempotent);
    /// rebuilt from live entries when it outgrows its trigger.
    ball_index: HashMap<NodeId, Vec<(NodeId, u32)>>,
    /// Reverse index: dependency node → pair keys depending on it.
    pair_index: HashMap<NodeId, Vec<(NodeId, NodeId)>>,
    /// Slots pushed into `ball_index` since its last rebuild, and the
    /// bloat threshold that forces the next rebuild (amortized O(1)).
    ball_index_slots: usize,
    ball_index_trigger: usize,
    pair_index_slots: usize,
    pair_index_trigger: usize,
    /// Read-only fallback consulted on local misses (same revision and
    /// window only; pair lookups additionally require a matching config
    /// key).
    frozen: Option<FrozenCacheView>,
    pub(crate) scratch: ExtractScratch,
    pub(crate) stats: CacheStats,
    pub(crate) obs: ObsHandle,
}

impl Default for ExtractionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ExtractionCache {
    /// Default memo capacities: 8192 balls, 8192 pairs.
    pub fn new() -> Self {
        Self::with_capacity(MEMO_CAPACITY, MEMO_CAPACITY)
    }

    /// Creates a cache with explicit memo capacities.
    pub fn with_capacity(balls: usize, pairs: usize) -> Self {
        ExtractionCache {
            revision: 0,
            window: None,
            config_key: (0, 0),
            balls: LruCache::new(balls),
            pairs: LruCache::new(pairs),
            indexed: false,
            ball_index: HashMap::new(),
            pair_index: HashMap::new(),
            ball_index_slots: 0,
            ball_index_trigger: INDEX_REBUILD_FLOOR,
            pair_index_slots: 0,
            pair_index_trigger: INDEX_REBUILD_FLOOR,
            frozen: None,
            scratch: ExtractScratch::default(),
            stats: CacheStats::default(),
            obs: ObsHandle::noop(),
        }
    }

    /// A default-capacity cache whose extractions emit per-stage spans
    /// (`ssf.core.*`) through `recorder`. The no-op handle makes this
    /// identical to [`ExtractionCache::new`].
    pub fn with_recorder(recorder: ObsHandle) -> Self {
        let mut cache = Self::new();
        cache.obs = recorder;
        cache
    }

    /// Replaces the telemetry recorder (metrics only — never affects
    /// cached values; see the bit-identity tests).
    pub fn set_recorder(&mut self, recorder: ObsHandle) {
        self.obs = recorder;
    }

    /// The telemetry handle extractions running against this cache use.
    pub fn recorder(&self) -> &ObsHandle {
        &self.obs
    }

    /// A default-capacity cache seeded with a frozen read-only view.
    ///
    /// The new cache starts at the view's revision and config, so lookups
    /// against the same (unchanged) graph hit the frozen memos without an
    /// initial invalidation. Once the graph moves past the frozen
    /// revision, `sync` drops the view along with the local memos.
    pub fn with_frozen(view: FrozenCacheView) -> Self {
        let mut cache = Self::new();
        cache.reseed(view);
        cache
    }

    /// Puts this cache into exactly the state
    /// [`ExtractionCache::with_frozen`]`(view)` builds — empty memos and
    /// reverse indexes, default capacities, zeroed stats, the no-op
    /// recorder, `view` as the frozen layer — but keeps the scratch
    /// buffers and the memo maps' allocations.
    ///
    /// This is how a reader thread serves one snapshot after another
    /// from one cache: the graph-sized [`HopScratch`] stamps are written
    /// once per thread, not once per batch. Reuse never changes output
    /// (a reused scratch is bit-identical to a fresh one).
    pub fn reseed(&mut self, view: FrozenCacheView) {
        self.clear();
        self.balls.capacity = MEMO_CAPACITY;
        self.pairs.capacity = MEMO_CAPACITY;
        self.indexed = false;
        self.revision = view.revision;
        self.window = view.window;
        self.config_key = view.config_key;
        self.frozen = Some(view);
        self.stats = CacheStats::default();
        self.obs = ObsHandle::noop();
    }

    /// Captures the current memos as an immutable, `Arc`-shared view.
    ///
    /// Entries from an underlying frozen layer (if any, and still at this
    /// revision) are folded in, overlaid by the live local memos, so
    /// freezing a seeded cache loses no warmth.
    pub fn freeze(&self) -> FrozenCacheView {
        let mut balls: HashMap<(NodeId, u32), CachedBall> = match &self.frozen {
            Some(f)
                if f.revision == self.revision && f.window == self.window =>
            {
                (*f.balls).clone()
            }
            _ => HashMap::new(),
        };
        for (k, v) in self.balls.entries() {
            balls.insert(*k, Arc::clone(v));
        }
        let mut pairs: HashMap<(NodeId, NodeId), Arc<CachedPair>> =
            match &self.frozen {
                Some(f)
                    if f.revision == self.revision
                        && f.window == self.window
                        && f.config_key == self.config_key =>
                {
                    (*f.pairs).clone()
                }
                _ => HashMap::new(),
            };
        for (k, v) in self.pairs.entries() {
            pairs.insert(*k, Arc::clone(v));
        }
        FrozenCacheView {
            revision: self.revision,
            window: self.window,
            config_key: self.config_key,
            balls: Arc::new(balls),
            pairs: Arc::new(pairs),
        }
    }

    /// Counters accumulated since construction (they survive
    /// invalidation — they describe the cache, not the current graph).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entry counts `(balls, pairs)`.
    pub fn len(&self) -> (usize, usize) {
        (self.balls.len(), self.pairs.len())
    }

    /// Whether both memos are empty.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty() && self.pairs.is_empty()
    }

    /// Drops every memoized ball and pair (and any frozen base view),
    /// keeping the stats counters — they describe the cache's lifetime,
    /// not its current contents. The next lookup simply runs cold;
    /// results are unaffected. Used under memory pressure and by
    /// benchmarks that need repeatable cold-path measurements.
    pub fn clear(&mut self) {
        self.balls.clear();
        self.pairs.clear();
        self.clear_ball_index();
        self.clear_pair_index();
        self.frozen = None;
    }

    /// The sliding window the memos were last synced under (see
    /// [`FrozenCacheView::window`]).
    pub fn window(&self) -> Option<(Timestamp, Timestamp)> {
        self.window
    }

    /// Re-keys the cache to `g`'s current revision, dropping every memo
    /// entry if the graph changed since the last sync. The footprint-blind
    /// fallback: a revision move whose affected nodes are unknown could
    /// have touched anything. Writers that know the footprint use
    /// [`ExtractionCache::sync_affected`] and keep the rest.
    pub fn sync<G: GraphView + ?Sized>(&mut self, g: &G) {
        let rev = g.revision();
        if rev != self.revision {
            if !self.is_empty() {
                self.stats.invalidations += 1;
            }
            self.balls.clear();
            self.pairs.clear();
            self.clear_ball_index();
            self.clear_pair_index();
            if self.frozen.as_ref().is_some_and(|f| f.revision != rev) {
                self.frozen = None;
            }
            self.revision = rev;
            self.window = None;
        }
    }

    /// Re-keys the cache to `g`'s revision and `window`, dropping *only*
    /// the memos a mutation with the given footprint could have changed:
    /// balls containing an affected node and pairs whose dependency set
    /// meets one. O(entries naming an affected node) — proportional to
    /// the damage `d`, never a flush of the whole cache.
    ///
    /// `affected` is the union of every mutated link's endpoints since
    /// the last sync: [`dyngraph::AdvanceReport::affected`] for expiries
    /// plus the endpoints of any inserts (node-growth-only mutations
    /// contribute nothing — an isolated new node is in no memoized
    /// subgraph). Soundness: removing or adding links that touch no node
    /// of a BFS ball cannot change the ball (every shortest path into a
    /// ball runs entirely through it), and a pair result is a function
    /// of the balls over its recorded dependency set.
    ///
    /// The frozen fallback layer, if any, is keyed to the old revision
    /// and is dropped; callers holding one are readers that re-seed per
    /// snapshot anyway.
    pub fn sync_affected<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        window: Option<(Timestamp, Timestamp)>,
        affected: &[NodeId],
    ) {
        let rev = g.revision();
        if rev == self.revision && window == self.window {
            return;
        }
        if !self.indexed {
            self.rebuild_ball_index();
            self.rebuild_pair_index();
            self.indexed = true;
        }
        let mut dropped = 0u64;
        for &node in affected {
            if let Some(keys) = self.ball_index.remove(&node) {
                for key in keys {
                    if self.balls.remove(&key).is_some() {
                        dropped += 1;
                    }
                }
            }
            if let Some(keys) = self.pair_index.remove(&node) {
                for key in keys {
                    if self.pairs.remove(&key).is_some() {
                        dropped += 1;
                    }
                }
            }
        }
        // The frozen layer is immutable and keyed to the old revision;
        // it cannot be filtered in place.
        self.frozen = None;
        self.stats.selective_invalidations += 1;
        self.stats.entries_invalidated += dropped;
        self.revision = rev;
        self.window = window;
    }

    /// Drops the pair memo if the extractor configuration it was filled
    /// under differs (balls survive: they depend only on the graph).
    pub(crate) fn sync_config(&mut self, k: usize, max_h: u32) {
        if self.config_key != (k, max_h) {
            self.pairs.clear();
            self.clear_pair_index();
            self.config_key = (k, max_h);
        }
    }

    fn clear_ball_index(&mut self) {
        self.ball_index.clear();
        self.ball_index_slots = 0;
        self.ball_index_trigger = INDEX_REBUILD_FLOOR;
    }

    fn clear_pair_index(&mut self) {
        self.pair_index.clear();
        self.pair_index_slots = 0;
        self.pair_index_trigger = INDEX_REBUILD_FLOOR;
    }

    /// Records `key` in the ball reverse index under every member of
    /// `members`, compacting the index when stale slots (left behind by
    /// LRU eviction) outgrow the rebuild trigger. A no-op until the
    /// indexes exist.
    fn index_ball(&mut self, key: (NodeId, u32), members: &[(NodeId, u32)]) {
        if !self.indexed {
            return;
        }
        for &(node, _) in members {
            self.ball_index.entry(node).or_default().push(key);
        }
        self.ball_index_slots += members.len();
        if self.ball_index_slots > self.ball_index_trigger {
            self.rebuild_ball_index();
        }
    }

    /// Pair-side twin of [`ExtractionCache::index_ball`].
    fn index_pair(&mut self, key: (NodeId, NodeId), deps: &[NodeId]) {
        if !self.indexed {
            return;
        }
        for &node in deps {
            self.pair_index.entry(node).or_default().push(key);
        }
        self.pair_index_slots += deps.len();
        if self.pair_index_slots > self.pair_index_trigger {
            self.rebuild_pair_index();
        }
    }

    /// Rebuilds the ball reverse index from the live ball memo.
    fn rebuild_ball_index(&mut self) {
        let mut index: HashMap<NodeId, Vec<(NodeId, u32)>> = HashMap::new();
        let mut slots = 0usize;
        for (&k, ball) in self.balls.entries() {
            for &(node, _) in ball.iter() {
                index.entry(node).or_default().push(k);
                slots += 1;
            }
        }
        self.ball_index = index;
        self.ball_index_slots = slots;
        self.ball_index_trigger = (2 * slots).max(INDEX_REBUILD_FLOOR);
    }

    /// Rebuilds the pair reverse index from the live pair memo.
    fn rebuild_pair_index(&mut self) {
        let mut index: HashMap<NodeId, Vec<(NodeId, NodeId)>> = HashMap::new();
        let mut slots = 0usize;
        for (&k, pair) in self.pairs.entries() {
            for &node in &pair.deps {
                index.entry(node).or_default().push(k);
                slots += 1;
            }
        }
        self.pair_index = index;
        self.pair_index_slots = slots;
        self.pair_index_trigger = (2 * slots).max(INDEX_REBUILD_FLOOR);
    }

    /// Memoized bounded BFS ball of `src` at radius `h`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside `g` (callers validate endpoints first).
    pub(crate) fn ball<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        src: NodeId,
        h: u32,
    ) -> CachedBall {
        if let Some(b) = self.balls.get(&(src, h)) {
            self.stats.ball_hits += 1;
            return Arc::clone(b);
        }
        if let Some(b) = self
            .frozen
            .as_ref()
            .filter(|f| f.revision == self.revision && f.window == self.window)
            .and_then(|f| f.balls.get(&(src, h)))
        {
            self.stats.ball_hits += 1;
            let b = Arc::clone(b);
            self.balls.insert((src, h), Arc::clone(&b));
            self.index_ball((src, h), &b);
            return b;
        }
        self.stats.ball_misses += 1;
        // K-growth requests radii incrementally; when the radius-(h−1) ball
        // is already memoized, extend it instead of rediscovering the inner
        // layers — bit-identical because BFS layers are strict prefixes.
        let prev: Option<CachedBall> = if h > 1 {
            self.balls.get(&(src, h - 1)).map(Arc::clone).or_else(|| {
                self.frozen
                    .as_ref()
                    .filter(|f| {
                        f.revision == self.revision && f.window == self.window
                    })
                    .and_then(|f| f.balls.get(&(src, h - 1)))
                    .map(Arc::clone)
            })
        } else {
            None
        };
        let span = self.obs.span("ssf.core.ball");
        let b = match prev {
            Some(p) => Arc::new(ball_extend(
                g,
                p.as_slice(),
                h - 1,
                h,
                &mut self.scratch.hop,
            )),
            None => Arc::new(ball(g, src, h, &mut self.scratch.hop)),
        };
        span.finish();
        self.balls.insert((src, h), Arc::clone(&b));
        self.index_ball((src, h), &b);
        b
    }

    /// Memoized pair lookup (no recording of misses: the caller decides
    /// whether a miss leads to a computation).
    pub(crate) fn pair(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Option<Arc<CachedPair>> {
        if let Some(p) = self.pairs.get(&(a, b)) {
            return Some(Arc::clone(p));
        }
        let p = self
            .frozen
            .as_ref()
            .filter(|f| {
                f.revision == self.revision
                    && f.window == self.window
                    && f.config_key == self.config_key
            })
            .and_then(|f| f.pairs.get(&(a, b)))
            .map(Arc::clone)?;
        self.pairs.insert((a, b), Arc::clone(&p));
        self.index_pair((a, b), &p.deps);
        Some(p)
    }

    /// Stores a freshly computed pair result, recording its dependency
    /// set in the reverse index (once it exists) for selective
    /// invalidation.
    pub(crate) fn insert_pair(
        &mut self,
        a: NodeId,
        b: NodeId,
        pair: Arc<CachedPair>,
    ) {
        self.index_pair((a, b), &pair.deps);
        self.pairs.insert((a, b), pair);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dyngraph::DynamicNetwork;
    use proptest::prelude::*;

    use super::*;
    use crate::feature::{SsfConfig, SsfExtractor};

    #[test]
    fn lru_get_and_insert_round_trip() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert!(c.is_empty());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        // Touch 0 and 1 so 2 and 3 are the stale half.
        assert!(c.get(&0).is_some());
        assert!(c.get(&1).is_some());
        c.insert(4, 4);
        assert!(c.len() <= 4);
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!(c.get(&4), Some(&4));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), None);
    }

    #[test]
    fn lru_eviction_keeps_the_sorted_cutoff_survivors() {
        for capacity in [2usize, 5, 8, 33] {
            let mut c: LruCache<u32, u32> = LruCache::new(capacity);
            for i in 0..capacity as u32 {
                c.insert(i, i);
            }
            // Refresh a scattered subset so stamps interleave with keys.
            for i in (0..capacity as u32).filter(|i| i % 3 == 1) {
                assert!(c.get(&i).is_some());
            }
            let mut stamps: Vec<(u64, u32)> =
                c.map.iter().map(|(&k, &(s, _))| (s, k)).collect();
            stamps.sort_unstable();
            let cutoff = stamps[(stamps.len() - 1) / 2].0;
            let mut want: Vec<u32> = stamps
                .iter()
                .filter(|&&(s, _)| s > cutoff)
                .map(|&(_, k)| k)
                .chain([1000])
                .collect();
            want.sort_unstable();
            c.insert(1000, 0);
            let mut got: Vec<u32> = c.map.keys().copied().collect();
            got.sort_unstable();
            assert_eq!(got, want, "capacity {capacity}");
        }
    }

    #[test]
    fn lru_capacity_one_still_works() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn lru_reinsert_replaces_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn sync_invalidates_on_revision_change_only() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let _ = cache.ball(&g, 0, 1);
        assert_eq!(cache.len().0, 1);
        cache.sync(&g); // same revision: memo survives
        assert_eq!(cache.len().0, 1);
        g.add_link(0, 2, 3);
        cache.sync(&g); // revision moved: memo dropped
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn ball_memo_hits_and_misses_are_counted() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let fresh = cache.ball(&g, 1, 2);
        let memo = cache.ball(&g, 1, 2);
        assert_eq!(fresh, memo);
        assert_eq!(cache.stats().ball_misses, 1);
        assert_eq!(cache.stats().ball_hits, 1);
        assert!(cache.stats().hit_rate() > 0.0);
    }

    #[test]
    fn sync_affected_drops_only_touched_balls() {
        // A path 0-1-2-3-4-5: the radius-1 balls of 0 and 5 are disjoint.
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let _ = cache.ball(&g, 0, 1);
        let far = cache.ball(&g, 5, 1);
        assert_eq!(cache.len().0, 2);
        // Mutate near node 0 only: the far ball must survive and hit.
        g.add_link(0, 2, 6);
        cache.sync_affected(&g, None, &[0, 2]);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().selective_invalidations, 1);
        assert_eq!(cache.stats().entries_invalidated, 1);
        assert_eq!(cache.len().0, 1);
        let hits_before = cache.stats().ball_hits;
        let served = cache.ball(&g, 5, 1);
        assert!(Arc::ptr_eq(&far, &served));
        assert_eq!(cache.stats().ball_hits, hits_before + 1);
        // The invalidated ball recomputes fresh (and is correct).
        let fresh = cache.ball(&g, 0, 1);
        assert!(fresh.iter().any(|&(n, _)| n == 2));
    }

    #[test]
    fn sync_affected_drops_pairs_by_dependency_set() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (4, 5, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        cache.sync_config(4, 10);
        let pair = |deps: Vec<NodeId>| {
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps,
            })
        };
        cache.insert_pair(0, 1, pair(vec![0, 1]));
        cache.insert_pair(4, 5, pair(vec![4, 5]));
        g.add_link(1, 2, 3);
        cache.sync_affected(&g, None, &[1, 2]);
        assert!(cache.pair(0, 1).is_none());
        assert!(cache.pair(4, 5).is_some());
        assert_eq!(cache.stats().entries_invalidated, 1);
    }

    #[test]
    fn sync_affected_same_revision_and_window_is_a_noop() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1)]);
        let mut cache = ExtractionCache::new();
        cache.sync_affected(&g, Some((10, 5)), &[0, 1]);
        let _ = cache.ball(&g, 0, 1);
        cache.sync_affected(&g, Some((10, 5)), &[0, 1]);
        assert_eq!(cache.len().0, 1, "no-op sync must not drop entries");
        assert_eq!(cache.window(), Some((10, 5)));
        // A pure window move at the same revision *is* a re-key.
        cache.sync_affected(&g, Some((10, 6)), &[]);
        assert_eq!(cache.window(), Some((10, 6)));
    }

    #[test]
    fn frozen_view_reuse_gated_on_window() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync_affected(&g, Some((100, 2)), &[0, 1, 2]);
        let _ = warm.ball(&g, 1, 2);
        let view = warm.freeze();
        assert_eq!(view.window(), Some((100, 2)));
        let mut seeded = ExtractionCache::with_frozen(view);
        assert_eq!(seeded.window(), Some((100, 2)));
        // Same revision, different window: the frozen memo must not serve.
        seeded.sync_affected(&g, Some((100, 3)), &[]);
        let _ = seeded.ball(&g, 1, 2);
        assert_eq!(seeded.stats().ball_hits, 0);
        assert_eq!(seeded.stats().ball_misses, 1);
    }

    #[test]
    fn frozen_view_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenCacheView>();
    }

    #[test]
    fn frozen_view_serves_ball_hits_without_recompute() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let original = warm.ball(&g, 1, 2);
        let view = warm.freeze();
        assert_eq!(view.revision(), g.revision());
        assert_eq!(view.len().0, 1);

        let mut seeded = ExtractionCache::with_frozen(view);
        seeded.sync(&g); // same revision: frozen layer survives
        let served = seeded.ball(&g, 1, 2);
        assert_eq!(original, served);
        assert!(Arc::ptr_eq(&original, &served));
        assert_eq!(seeded.stats().ball_hits, 1);
        assert_eq!(seeded.stats().ball_misses, 0);
    }

    #[test]
    fn frozen_view_dropped_when_revision_moves() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let _ = warm.ball(&g, 1, 2);
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        g.add_link(0, 2, 3);
        seeded.sync(&g);
        let _ = seeded.ball(&g, 1, 2);
        assert_eq!(seeded.stats().ball_hits, 0);
        assert_eq!(seeded.stats().ball_misses, 1);
    }

    #[test]
    fn frozen_pairs_gated_on_config_key() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        warm.sync_config(4, 10);
        warm.insert_pair(
            0,
            1,
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps: vec![0, 1],
            }),
        );
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        seeded.sync(&g);
        seeded.sync_config(4, 10);
        assert!(seeded.pair(0, 1).is_some());
        seeded.sync_config(5, 10); // config moved: frozen pairs invalid
        assert!(seeded.pair(0, 1).is_none());
    }

    #[test]
    fn freeze_folds_in_underlying_frozen_layer() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let _ = warm.ball(&g, 0, 2);
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        seeded.sync(&g);
        let _ = seeded.ball(&g, 2, 2); // new local entry
        let refrozen = seeded.freeze();
        assert_eq!(refrozen.len().0, 2);
    }

    #[test]
    fn config_change_drops_pairs_but_keeps_balls() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        cache.sync_config(4, 10);
        let _ = cache.ball(&g, 0, 1);
        cache.insert_pair(
            0,
            1,
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps: vec![0, 1],
            }),
        );
        assert_eq!(cache.len(), (1, 1));
        cache.sync_config(5, 10);
        assert_eq!(cache.len(), (1, 0));
    }

    /// Total reverse-index slots, stale ones included.
    fn index_slots(cache: &ExtractionCache) -> usize {
        cache.ball_index.values().map(Vec::len).sum::<usize>()
            + cache.pair_index.values().map(Vec::len).sum::<usize>()
    }

    type Keys = (BTreeSet<(NodeId, u32)>, BTreeSet<(NodeId, NodeId)>);

    /// The live ball and pair keys of `cache`.
    fn live_keys(cache: &ExtractionCache) -> Keys {
        (
            cache.balls.entries().map(|(k, _)| *k).collect(),
            cache.pairs.entries().map(|(k, _)| *k).collect(),
        )
    }

    /// The keys that must survive a mutation touching `affected`: every
    /// ball with no affected member and every pair whose dependency set
    /// holds no affected node.
    fn oracle_survivors(cache: &ExtractionCache, affected: &[NodeId]) -> Keys {
        let hit = |n: &NodeId| affected.contains(n);
        (
            cache
                .balls
                .entries()
                .filter(|(_, b)| !b.iter().any(|(n, _)| hit(n)))
                .map(|(k, _)| *k)
                .collect(),
            cache
                .pairs
                .entries()
                .filter(|(_, p)| !p.deps.iter().any(hit))
                .map(|(k, _)| *k)
                .collect(),
        )
    }

    #[test]
    fn frozen_seeded_cache_keeps_no_reverse_index() {
        let g: DynamicNetwork = (0..12u32)
            .map(|i| (i, (i + 1) % 12, i))
            .chain([(0, 6, 20), (3, 9, 21), (2, 7, 22)])
            .collect();
        let ex = SsfExtractor::new(SsfConfig::new(4));
        let mut warm = ExtractionCache::new();
        for (a, b) in [(0u32, 1u32), (2, 5)] {
            ex.try_k_structure_cached(&g, a, b, &mut warm).unwrap();
        }
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        let pairs: Vec<(NodeId, NodeId)> =
            (0..12u32).map(|a| (a, (a + 5) % 12)).collect();
        for &(a, b) in &pairs {
            ex.try_k_structure_cached(&g, a, b, &mut seeded).unwrap();
        }
        assert_eq!(seeded.len().1, pairs.len(), "every pair memoized");
        assert!(seeded.stats().ball_hits > 0, "frozen layer served balls");
        assert_eq!(index_slots(&seeded), 0, "no reverse-index entries");
        assert!(seeded.ball_index.is_empty() && seeded.pair_index.is_empty());
    }

    /// A used cache — small capacities, built reverse indexes, a live
    /// recorder, a different window — reseeded with a view is
    /// indistinguishable from a cache freshly seeded with that view:
    /// same keys, capacities and counters, and the same lookups give the
    /// same results and the same stats.
    #[test]
    fn reseed_matches_a_fresh_frozen_seed() {
        let g: DynamicNetwork = (0..12u32)
            .map(|i| (i, (i + 1) % 12, i))
            .chain([(0, 6, 20), (3, 9, 21), (2, 7, 22)])
            .collect();
        let ex = SsfExtractor::new(SsfConfig::new(4));
        let mut warm = ExtractionCache::new();
        for (a, b) in [(0u32, 1u32), (2, 5)] {
            ex.try_k_structure_cached(&g, a, b, &mut warm).unwrap();
        }
        let view = warm.freeze();

        let mut used = ExtractionCache::with_capacity(2, 3);
        used.set_recorder(ObsHandle::of_registry(Default::default()));
        for a in 0..12u32 {
            ex.try_k_structure_cached(&g, a, (a + 3) % 12, &mut used)
                .unwrap();
        }
        used.sync_affected(&g, Some((5, 30)), &[0]);
        assert!(used.indexed && used.recorder().enabled());

        used.reseed(view.clone());
        let mut fresh = ExtractionCache::with_frozen(view);
        let state = |c: &ExtractionCache| {
            (
                (c.revision, c.window, c.config_key, c.indexed),
                (c.balls.len(), c.balls.capacity, c.balls.tick),
                (c.pairs.len(), c.pairs.capacity, c.pairs.tick),
                (c.ball_index.len(), c.ball_index_slots, c.ball_index_trigger),
                (c.pair_index.len(), c.pair_index_slots, c.pair_index_trigger),
                c.frozen.as_ref().map(|f| (f.revision, f.len())),
                (c.stats, c.obs.enabled()),
            )
        };
        assert_eq!(state(&used), state(&fresh));
        for (a, b) in [(0u32, 1u32), (4, 9), (2, 5), (4, 9)] {
            let x = ex.try_k_structure_cached(&g, a, b, &mut used).unwrap();
            let y = ex.try_k_structure_cached(&g, a, b, &mut fresh).unwrap();
            assert_eq!(*x, *y);
        }
        assert_eq!(state(&used), state(&fresh));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A cache filled before its first `sync_affected` (indexes built
        /// lazily from the live entries) and again after it (indexes kept
        /// by inserts) drops exactly the entries the oracle names, both
        /// times.
        #[test]
        fn lazy_index_drops_exactly_the_oracle_entries(
            base in prop::collection::vec((0..14u32, 0..14u32, 1..9u32), 4..40),
            first in prop::collection::vec((0..14u32, 0..14u32), 1..8),
            second in prop::collection::vec((0..14u32, 0..14u32), 1..8),
            mutations in prop::collection::vec(
                prop::collection::vec((0..16u32, 0..16u32), 1..4),
                2,
            ),
        ) {
            let mut g: DynamicNetwork = (0..13u32).map(|i| (i, i + 1, 1)).collect();
            for &(u, v, t) in &base {
                if u != v {
                    g.add_link(u, v, t);
                }
            }
            let ex = SsfExtractor::new(SsfConfig::new(4).with_max_h(3));
            let mut cache = ExtractionCache::new();
            for (round, targets) in [first, second].iter().enumerate() {
                for &(a, b) in targets {
                    let _ = ex.try_k_structure_cached(&g, a, b, &mut cache);
                }
                let mut affected = Vec::new();
                for &(u, v) in &mutations[round] {
                    if u != v {
                        g.add_link(u, v, 10 + round as u32);
                        affected.extend([u, v]);
                    }
                }
                if affected.is_empty() {
                    // Node growth only: still a revision move.
                    g.ensure_node(g.node_count() as NodeId);
                }
                let want = oracle_survivors(&cache, &affected);
                cache.sync_affected(&g, None, &affected);
                prop_assert!(cache.indexed);
                prop_assert_eq!(live_keys(&cache), want);
            }
        }
    }
}
