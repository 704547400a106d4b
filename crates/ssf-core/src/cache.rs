//! Extraction cache: the amortization layer of every scoring path.
//!
//! SSF extraction recomputes h-hop frontiers from scratch for every
//! candidate pair, yet pairs scored in one batch share endpoints, so
//! their BFS balls coincide. The cache memoizes those **per-endpoint
//! balls** — `(node, h) →` bounded BFS frontier, the unit
//! [`HopSubgraph::from_balls`](crate::HopSubgraph::from_balls) composes
//! pairs from — and carries the scratch buffers of the whole pipeline.
//! K-growth asks for radius `h` after `h − 1`, and the memo extends the
//! smaller ball instead of rediscovering its layers.
//!
//! Per-pair results are not memoized here: the pairs of one unit of work
//! are almost always distinct, and the one pair memo is the score memo
//! of a `ScoringSnapshot`, which answers repeats before extraction runs.
//!
//! **One owner, one lifetime.** Every library path gets its cache from
//! [`ExtractionCache::borrow`], which lends out the current thread's one
//! spare cache for one unit of work: a single extraction, a scoring
//! batch, a fit fold or an extraction chunk. The memo dies with the
//! borrow; the scratch buffers stay with the thread, so the graph-sized
//! [`HopScratch`] stamps (20 B per node id) are written once per thread,
//! not once per call.
//!
//! A cache the caller keeps itself (the `try_*_cached` entry points take
//! any `&mut ExtractionCache`) is keyed by graph revision only:
//! [`dyngraph::GraphView::revision`] moves on every accepted mutation, and
//! [`ExtractionCache::sync`] drops the memo whenever the observed revision
//! moves, so stale balls never leak into a result. Balls do not depend on
//! the extractor configuration, so one cache serves any `K`.
//!
//! Cached and uncached extractions are **bit-identical** by construction:
//! each uncached entry point is its cached twin run against a freshly
//! borrowed (empty) cache, and reusing scratch buffers or memoized balls
//! never changes any intermediate value (`tests/properties.rs` proves
//! this end to end against live `observe`/`score_batch` interleavings).

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use dyngraph::{GraphView, NodeId};
use obs::ObsHandle;

use crate::feature::DijkstraScratch;
use crate::hop::{ball, ball_extend, HopScratch};
use crate::kstructure::SelectScratch;
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

/// Hit/miss/invalidation counters of an [`ExtractionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-endpoint ball lookups served from the memo.
    pub ball_hits: u64,
    /// Per-endpoint ball lookups that ran a fresh BFS.
    pub ball_misses: u64,
    /// Times the graph revision moved and the ball memo was dropped.
    pub invalidations: u64,
}

impl CacheStats {
    /// Fraction of ball lookups served from the memo; 0.0 when nothing
    /// was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_lookups();
        if total == 0 {
            0.0
        } else {
            self.ball_hits as f64 / total as f64
        }
    }

    /// Total ball lookups, hits and misses.
    pub fn total_lookups(&self) -> u64 {
        self.ball_hits + self.ball_misses
    }

    /// Folds another cache's tallies into this one — the aggregation the
    /// batch extraction paths use to combine per-chunk caches into one
    /// hit-rate account.
    pub fn merge(&mut self, other: &CacheStats) {
        self.ball_hits += other.ball_hits;
        self.ball_misses += other.ball_misses;
        self.invalidations += other.invalidations;
    }
}

/// A memoized per-endpoint h-hop frontier: `(node, min-distance)` pairs
/// in BFS layer order, the source first at distance 0.
pub type CachedBall = Arc<Vec<(NodeId, u32)>>;

/// Entry capacity of an [`ExtractionCache`]'s ball memo.
const MEMO_CAPACITY: usize = 8192;

thread_local! {
    /// The current thread's spare cache between borrows: scratch buffers
    /// sized to the largest graph the thread extracted from, and empty
    /// memo maps that keep their capacity.
    static SPARE: Cell<Option<ExtractionCache>> = const { Cell::new(None) };
}

/// The extraction cache (see the [module docs](self)): a ball memo of at
/// most 8192 entries, the scratch buffers of the whole pipeline, and the
/// recorder its extractions emit `ssf.core.*` spans through.
///
/// Library paths never build one: they borrow the thread's cache with
/// [`ExtractionCache::borrow`] for one pair, batch, fit fold or
/// extraction chunk. A cache built with [`ExtractionCache::new`] and
/// kept by the caller serves one graph value over time — any
/// [`GraphView`] implementor works, since `sync` tracks the view's
/// revision counter.
#[derive(Debug, Clone)]
pub struct ExtractionCache {
    revision: u64,
    balls: LruCache<(NodeId, u32), CachedBall>,
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
    /// An empty cache with the no-op recorder.
    pub fn new() -> Self {
        Self::with_recorder(ObsHandle::noop())
    }

    /// An empty cache whose extractions emit per-stage spans
    /// (`ssf.core.*`) through `recorder`. The no-op handle makes this
    /// identical to [`ExtractionCache::new`].
    pub fn with_recorder(recorder: ObsHandle) -> Self {
        ExtractionCache {
            revision: 0,
            balls: LruCache::new(MEMO_CAPACITY),
            scratch: ExtractScratch::default(),
            stats: CacheStats::default(),
            obs: recorder,
        }
    }

    /// Borrows the current thread's spare cache in exactly the state
    /// [`ExtractionCache::with_recorder`]`(recorder)` builds — empty
    /// memo, zeroed stats, `recorder` — but with the scratch buffers and
    /// memo map allocation of earlier borrows. A thread without a spare
    /// (its first borrow, or one nested inside another) gets a new cache.
    ///
    /// Dropping the [`ThreadCache`] hands the cache back to the thread
    /// cleared and with the no-op recorder, so the spare holds nothing of
    /// the graph it served. A cache a panic went through — caught by
    /// [`ThreadCache::catch`] or unwinding past the borrow — may hold
    /// half-written scratch, so it is dropped instead.
    pub fn borrow(recorder: ObsHandle) -> ThreadCache {
        // The slot only ever holds a cache `Drop` cleared.
        let spare = SPARE.try_with(Cell::take).ok().flatten();
        let reused = spare.is_some();
        let mut cache = spare.unwrap_or_default();
        cache.revision = 0;
        cache.stats = CacheStats::default();
        cache.obs = recorder;
        ThreadCache {
            cache,
            reused,
            poisoned: false,
        }
    }

    /// The telemetry handle extractions running against this cache use.
    pub fn recorder(&self) -> &ObsHandle {
        &self.obs
    }

    /// Counters accumulated since construction or borrow (they survive
    /// invalidation — they describe the cache, not the current graph).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized balls.
    pub fn len(&self) -> usize {
        self.balls.len()
    }

    /// Whether the ball memo is empty.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty()
    }

    /// Drops every memoized ball, keeping the stats counters and the
    /// scratch buffers. The next lookup simply runs cold; results are
    /// unaffected.
    pub fn clear(&mut self) {
        self.balls.clear();
    }

    /// Re-keys the cache to `g`'s current revision, dropping every
    /// memoized ball if the graph changed since the last sync.
    pub fn sync<G: GraphView + ?Sized>(&mut self, g: &G) {
        let rev = g.revision();
        if rev != self.revision {
            if !self.is_empty() {
                self.stats.invalidations += 1;
                self.clear();
            }
            self.revision = rev;
        }
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
        self.stats.ball_misses += 1;
        // K-growth requests radii incrementally; when the radius-(h−1) ball
        // is already memoized, extend it instead of rediscovering the inner
        // layers — bit-identical because BFS layers are strict prefixes.
        let prev: Option<CachedBall> = if h > 1 {
            self.balls.get(&(src, h - 1)).map(Arc::clone)
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
        b
    }
}

/// The current thread's [`ExtractionCache`], lent out by
/// [`ExtractionCache::borrow`]. It dereferences to the cache; dropping it
/// ends the borrow.
#[derive(Debug)]
pub struct ThreadCache {
    cache: ExtractionCache,
    reused: bool,
    poisoned: bool,
}

impl ThreadCache {
    /// Runs `f` against the cache behind a panic guard — the per-pair
    /// isolation of every scoring loop. A caught panic poisons the
    /// borrow: when it ends, the cache is dropped instead of returned.
    ///
    /// # Errors
    ///
    /// The panic payload, when `f` panicked.
    pub fn catch<T>(
        &mut self,
        f: impl FnOnce(&mut ExtractionCache) -> T,
    ) -> thread::Result<T> {
        let cache = &mut self.cache;
        let out = panic::catch_unwind(AssertUnwindSafe(|| f(cache)));
        self.poisoned |= out.is_err();
        out
    }

    /// Whether this borrow reuses an earlier borrow's cache; `false` when
    /// the thread had no spare and a new cache was built.
    pub fn reused(&self) -> bool {
        self.reused
    }
}

impl Deref for ThreadCache {
    type Target = ExtractionCache;

    fn deref(&self) -> &ExtractionCache {
        &self.cache
    }
}

impl DerefMut for ThreadCache {
    fn deref_mut(&mut self) -> &mut ExtractionCache {
        &mut self.cache
    }
}

impl Drop for ThreadCache {
    fn drop(&mut self) {
        if self.poisoned || thread::panicking() {
            return;
        }
        let mut cache = std::mem::take(&mut self.cache);
        cache.clear();
        cache.obs = ObsHandle::noop();
        // `try_with`: during thread teardown the slot may be gone, and
        // the cache simply drops.
        let _ = SPARE.try_with(|spare| spare.set(Some(cache)));
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

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
        assert_eq!(cache.len(), 1);
        cache.sync(&g); // same revision: memo survives
        assert_eq!(cache.len(), 1);
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

    fn ring() -> DynamicNetwork {
        (0..12u32)
            .map(|i| (i, (i + 1) % 12, i))
            .chain([(0, 6, 20), (3, 9, 21), (2, 7, 22)])
            .collect()
    }

    /// The whole observable state of a cache, scratch aside.
    type State = (u64, (usize, usize, u64), (CacheStats, bool));

    fn state(c: &ExtractionCache) -> State {
        (
            c.revision,
            (c.balls.len(), c.balls.capacity, c.balls.tick),
            (c.stats, c.obs.enabled()),
        )
    }

    /// A borrow reuses a used cache — balls memoized, a live recorder,
    /// another graph's revision and another `K` — yet is indistinguishable
    /// from a new cache: same keys, capacities and counters, and the same
    /// lookups give the same results and the same stats.
    #[test]
    fn borrowed_cache_matches_a_new_cache_apart_from_capacity() {
        let g = ring();
        let ex = SsfExtractor::new(SsfConfig::new(4));
        let mut other: DynamicNetwork =
            g.links().map(|l| (l.u, l.v, l.t)).collect();
        other.add_link(1, 5, 30);
        {
            let recorder = ObsHandle::of_registry(Default::default());
            let mut used = ExtractionCache::borrow(recorder);
            assert!(used.recorder().enabled());
            let ex5 = SsfExtractor::new(SsfConfig::new(5));
            for a in 0..12u32 {
                ex5.try_k_structure_cached(&other, a, (a + 3) % 12, &mut used)
                    .unwrap();
            }
            assert!(!used.is_empty() && used.stats().ball_misses > 0);
        }
        let mut used = ExtractionCache::borrow(ObsHandle::noop());
        assert!(used.reused(), "the thread's spare is lent again");
        let mut fresh = ExtractionCache::new();
        assert_eq!(state(&used), state(&fresh));
        for (a, b) in [(0u32, 1u32), (4, 9), (2, 5), (4, 9)] {
            let x = ex.try_k_structure_cached(&g, a, b, &mut used).unwrap();
            let y = ex.try_k_structure_cached(&g, a, b, &mut fresh).unwrap();
            assert_eq!(x, y);
        }
        assert_eq!(state(&used), state(&fresh));
    }

    /// The calling thread's spare as `(entries, recording)`, or `None`
    /// when the thread holds none.
    fn spare_state() -> Option<(usize, bool)> {
        SPARE.with(|slot| {
            let cache = slot.take();
            let state = cache.as_ref().map(|c| (c.len(), c.obs.enabled()));
            slot.set(cache);
            state
        })
    }

    /// A healthy borrow goes back to the thread cleared — no balls, no
    /// recorder; a borrow a panic went through, caught or unwinding, is
    /// dropped; a nested borrow gets a cache of its own. Extractions
    /// before and after match a new cache bit for bit.
    #[test]
    fn thread_cache_is_returned_cleared_and_dropped_after_a_panic() {
        let g = ring();
        let ex = SsfExtractor::new(SsfConfig::new(4));
        let want = ex.try_k_structure(&g, 0, 6).unwrap();
        let extract = |cache: &mut ExtractionCache| {
            ex.try_k_structure_cached(&g, 0, 6, cache).unwrap()
        };
        thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(spare_state(), None, "a new thread has no spare");
                let recorder = ObsHandle::of_registry(Default::default());
                {
                    let mut outer = ExtractionCache::borrow(recorder);
                    assert!(!outer.reused());
                    assert_eq!(extract(&mut outer), want);
                    let inner = ExtractionCache::borrow(ObsHandle::noop());
                    assert!(!inner.reused(), "the slot is empty while lent");
                }
                assert_eq!(spare_state(), Some((0, false)), "cleared");

                let mut caught = ExtractionCache::borrow(ObsHandle::noop());
                assert!(caught.reused());
                assert_eq!(caught.catch(extract).ok(), Some(want.clone()));
                let payload = caught.catch(|c| {
                    let _ = extract(c);
                    panic::resume_unwind(Box::new("pair failed"))
                });
                assert!(payload.is_err());
                drop(caught);
                assert_eq!(spare_state(), None, "a caught panic drops it");

                let mut healthy = ExtractionCache::borrow(ObsHandle::noop());
                assert_eq!(extract(&mut healthy), want);
                drop(healthy);
                assert!(spare_state().is_some());
                let unwound = panic::catch_unwind(|| {
                    let mut cache = ExtractionCache::borrow(ObsHandle::noop());
                    let _ = extract(&mut cache);
                    panic::resume_unwind(Box::new("pair failed"))
                });
                assert!(unwound.is_err());
                assert_eq!(spare_state(), None, "an unwinding panic drops it");

                let mut next = ExtractionCache::borrow(ObsHandle::noop());
                assert!(!next.reused());
                assert_eq!(extract(&mut next), want);
            });
        });
    }
}
