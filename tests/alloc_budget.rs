//! Allocation budget of the extraction paths: per-request cost must
//! follow the ball, not the graph.
//!
//! Every extraction needs `HopScratch` stamp arrays indexed by global
//! node id — 20 bytes per node of the graph. A cache built fresh per
//! request writes them all, so on a graph with millions of node ids one
//! tiny extraction allocated and zeroed tens of megabytes. Every path
//! borrows the thread's one extraction cache instead, so after the first
//! request on a thread, a cold request — on a brand-new snapshot, through
//! the writer, or through uncached extraction — allocates only what its
//! ball needs.
//!
//! The counting allocator tallies the bytes each thread requests, so
//! the harness's own threads never leak into the measurement. This file
//! holds one test on purpose: it owns the binary's global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::{GraphView, NodeId};
use ssf_repro::methods::MethodOptions;
use ssf_repro::ssf_core::{SsfConfig, SsfExtractor};
use ssf_repro::{OnlineLinkPredictor, OnlinePredictorConfig};

/// The system allocator, counting the bytes the current thread requests
/// (fresh allocations and the new size of every reallocation).
struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s
        // contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: Layout,
        new_size: usize,
    ) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes the current thread requests while running `f`.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = REQUESTED.with(Cell::get);
    let out = f();
    (out, REQUESTED.with(Cell::get) - before)
}

const NODE_IDS: NodeId = 2_100_000;
const BUDGET_BYTES: u64 = 256 * 1024;

#[test]
fn cold_snapshot_score_allocates_for_the_ball_not_the_graph() {
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid configuration");
    let mut p = OnlineLinkPredictor::new(config);
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    for l in &links {
        p.observe(l.u, l.v, l.t);
    }
    p.try_refit().expect("the stream supports a fit");

    // A three-node path at the top of a two-million-id range: its
    // pairs' balls hold at most three nodes whatever the radius.
    let t = p.network().max_timestamp().unwrap_or(0) + 1;
    let (a, b, c) = (NODE_IDS - 3, NODE_IDS - 2, NODE_IDS - 1);
    assert!(p.observe(a, b, t).is_accepted());
    assert!(p.observe(b, c, t + 1).is_accepted());
    assert_eq!(p.network().node_count(), NODE_IDS as usize);

    // First request on this thread: the stamps are written here.
    let first = p.snapshot();
    let (warm_up, first_bytes) = requested_by(|| first.score(a, c));
    assert!(warm_up.is_some(), "the fitted model scores the pair");
    assert!(
        first_bytes >= 20 * u64::from(NODE_IDS) / 2,
        "the first request sizes the scratch to the graph \
         ({first_bytes} B)"
    );

    // A brand-new snapshot starts with a cold memo and cold caches.
    let fresh = p.snapshot();
    assert_eq!(fresh.memo_entries(), 0);
    let (score, bytes) = requested_by(|| fresh.score(a, c));
    assert_eq!(
        score.map(f64::to_bits),
        warm_up.map(f64::to_bits),
        "reuse never changes a score"
    );
    assert!(
        bytes < BUDGET_BYTES,
        "a cold score on a fresh snapshot requested {bytes} B \
         (budget {BUDGET_BYTES} B) on a graph of {NODE_IDS} node ids"
    );

    // The writer's own score and an uncached extraction borrow the same
    // thread cache: neither writes graph-sized scratch again.
    let (writer, bytes) = requested_by(|| p.score(a, c));
    assert_eq!(
        writer.map(f64::to_bits),
        warm_up.map(f64::to_bits),
        "the writer scores what its snapshot scores"
    );
    assert!(
        bytes < BUDGET_BYTES,
        "a writer score requested {bytes} B (budget {BUDGET_BYTES} B) \
         on a graph of {NODE_IDS} node ids"
    );
    let ex = SsfExtractor::new(SsfConfig::new(10));
    let (feature, bytes) =
        requested_by(|| ex.try_extract(p.network(), a, c, t + 2));
    assert!(feature.is_ok(), "the pair is valid");
    assert!(
        bytes < BUDGET_BYTES,
        "an uncached extraction requested {bytes} B \
         (budget {BUDGET_BYTES} B) on a graph of {NODE_IDS} node ids"
    );
}
