//! Window-dynamics benchmark: the cost and correctness of sliding-
//! window expiry across the whole stack.
//!
//! Three experiments, one binary (the unified experiment-interface
//! idiom):
//!
//! 1. **Bit-identity** — a [`WindowedView`] maintained incrementally
//!    through interleaved inserts and advances must equal a from-
//!    scratch [`DynamicNetwork`] rebuilt out of only the in-window
//!    links, and a fitted model must score both graphs bit-identically
//!    — across the frozen CSR layout, the cached and uncached
//!    extraction paths, and a kill-and-replay WAL recovery of a durable
//!    windowed predictor. CI gates on the emitted `bit_identical` flag.
//! 2. **Expiry cost vs. window width** — the same stream ingested at a
//!    sweep of widths, reporting how many links aged out and the
//!    amortized cost per expired link (narrow windows expire almost
//!    everything; the unbounded width expires nothing).
//! 3. **Cache hit-rate across advances** — an [`ExtractionCache`] kept
//!    in sync through a run of horizon advances must invalidate
//!    selectively (never a blanket flush) and keep serving hits for the
//!    balls that did not lose a link.
//!
//! Emits machine-readable `BENCH_window.json`.
//!
//! Run: `cargo run -p ssf-bench --release --bin window_dynamics
//!       [--smoke] [--seed <n>] [--out <path>]`

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::fs;
use std::time::Instant;

use datasets::DatasetSpec;
use dyngraph::{
    DynamicNetwork, FrozenGraph, GraphView, NodeId, Timestamp, Window,
    WindowedView,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssf_core::ExtractionCache;
use ssf_eval::{Split, SplitConfig};
use ssf_repro::methods::MethodOptions;
use ssf_repro::model::SsfnmModel;
use ssf_repro::{
    DurabilityPolicy, FsyncPolicy, OnlineLinkPredictor, OnlinePredictorConfig,
};

/// Sorted `(u, v, t)` event stream plus the timeline it spans.
struct Stream {
    events: Vec<(NodeId, NodeId, Timestamp)>,
    nodes: usize,
    max_t: Timestamp,
}

fn stream(smoke: bool, seed: u64) -> Stream {
    let spec = if smoke {
        DatasetSpec::coauthor().scaled(0.15)
    } else {
        DatasetSpec::coauthor().scaled(0.6)
    };
    let g = spec.generate(seed);
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    println!(
        "network: {} nodes, {} links, timestamps 0..={} ({})",
        g.node_count(),
        events.len(),
        g.max_timestamp().unwrap_or(0),
        spec.name
    );
    Stream {
        nodes: g.node_count(),
        max_t: g.max_timestamp().unwrap_or(0),
        events,
    }
}

/// Oracle: a fresh network holding only the in-window links, inserted
/// in stable time order over the preserved node set — the canonical
/// layout a `WindowedView` must converge to after any advance history.
fn rebuild_in_window(s: &Stream, window: Window) -> DynamicNetwork {
    let mut survivors: Vec<_> = s
        .events
        .iter()
        .copied()
        .filter(|&(_, _, t)| window.contains(t))
        .collect();
    survivors.sort_by_key(|&(_, _, t)| t);
    let mut net = DynamicNetwork::new();
    if s.nodes > 0 {
        net.ensure_node(s.nodes as NodeId - 1);
    }
    for (u, v, t) in survivors {
        net.try_add_link(u, v, t).expect("stream events are clean");
    }
    net
}

/// Deterministic candidate pairs over the node space.
fn candidate_pairs(
    rng: &mut StdRng,
    n: usize,
    count: usize,
) -> Vec<(u32, u32)> {
    let n = n as u32;
    (0..count)
        .map(|_| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n);
            if u == v {
                v = (v + 1) % n;
            }
            (u, v)
        })
        .collect()
}

/// Scores `pairs` against `g` with `model`, skipping degenerate pairs.
fn score_all<G: GraphView + ?Sized>(
    model: &SsfnmModel,
    g: &G,
    pairs: &[(u32, u32)],
    present: Timestamp,
) -> Vec<Option<u64>> {
    pairs
        .iter()
        .map(|&(u, v)| model.try_score(g, u, v, present).ok().map(f64::to_bits))
        .collect()
}

/// Experiment 1: incremental windowed maintenance vs. from-scratch
/// rebuild — graph equality and score bit-identity across layouts and
/// extraction paths. Returns `true` only if every comparison held.
fn check_bit_identity(s: &Stream, model: &SsfnmModel, seed: u64) -> bool {
    let width = (s.max_t / 2).max(1);
    let mut wv = WindowedView::with_width(width);
    let mut cache = ExtractionCache::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51de_caff);
    let pairs = candidate_pairs(&mut rng, s.nodes, 64);
    let mut ok = true;
    // Interleave the stream with explicit advances at one-third and
    // two-thirds of the timeline, checking at each advance and at the
    // end — the horizon both jumps (implicit advances on insert) and
    // slides (explicit advances with no insert).
    let checkpoints = [s.max_t / 3, 2 * s.max_t / 3, s.max_t + width];
    let mut fed = 0usize;
    for &to in &checkpoints {
        while fed < s.events.len() && s.events[fed].2 <= to {
            let (u, v, t) = s.events[fed];
            if let Ok(report) = wv.try_add_link(u, v, t) {
                let footprint = report.as_ref().map(|r| r.affected.clone());
                cache.sync_affected(
                    wv.network(),
                    wv.window().map(|w| (w.width, w.horizon)),
                    footprint.as_deref().unwrap_or(&[u, v]),
                );
            }
            fed += 1;
        }
        if let Ok(Some(report)) = wv.advance(to) {
            cache.sync_affected(
                wv.network(),
                wv.window().map(|w| (w.width, w.horizon)),
                &report.affected,
            );
        }
        let window = wv.window().expect("view is windowed");
        let fresh = rebuild_in_window(s, window);
        if wv.network() != &fresh {
            println!("FAIL: graph diverged from rebuild at horizon {to}");
            ok = false;
            continue;
        }
        let present = window.horizon.saturating_add(1);
        let incremental = score_all(model, &wv, &pairs, present);
        let scratch = score_all(model, &fresh, &pairs, present);
        let frozen =
            score_all(model, &FrozenGraph::from_view(&wv), &pairs, present);
        let cached: Vec<Option<u64>> = pairs
            .iter()
            .map(|&(u, v)| {
                model
                    .try_score_cached(&wv, u, v, present, &mut cache)
                    .ok()
                    .map(f64::to_bits)
            })
            .collect();
        for (name, got) in [
            ("from-scratch", &scratch),
            ("frozen", &frozen),
            ("cached", &cached),
        ] {
            if got != &incremental {
                println!("FAIL: {name} scores diverged at horizon {to}");
                ok = false;
            }
        }
    }
    ok
}

/// Experiment 1b: a durable windowed predictor killed after interleaved
/// observes/advances must reopen to bit-identical scores against an
/// in-memory twin fed the same sequence.
fn check_recovery_bit_identity(s: &Stream, seed: u64) -> bool {
    let dir = std::env::temp_dir()
        .join(format!("ssf-window-dynamics-{seed}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let width = (s.max_t / 2).max(1);
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            seed,
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(64)
        .min_positives(10)
        .history_folds(0)
        .window(Some(width))
        .build()
        .expect("valid benchmark configuration");
    let policy = DurabilityPolicy {
        fsync: FsyncPolicy::Never,
        ..DurabilityPolicy::default()
    };
    let mut p =
        OnlineLinkPredictor::with_durability(config.clone(), &dir, policy)
            .expect("fresh durable predictor");
    let mut twin = OnlineLinkPredictor::new(config.clone());
    let mid = s.events.len() / 2;
    for &(u, v, t) in &s.events[..mid] {
        p.observe(u, v, t);
        twin.observe(u, v, t);
    }
    let to = p.horizon().saturating_add(1);
    assert_eq!(
        p.advance(to).expect("monotone"),
        twin.advance(to).expect("monotone")
    );
    p.checkpoint().expect("checkpoint");
    for &(u, v, t) in &s.events[mid..] {
        p.observe(u, v, t);
        twin.observe(u, v, t);
    }
    let to = p.horizon().saturating_add(width / 2 + 1);
    assert_eq!(
        p.advance(to).expect("monotone"),
        twin.advance(to).expect("monotone")
    );
    drop(p); // kill: recovery must replay the WAL tail past the snapshot
    let (r, report) = OnlineLinkPredictor::open(config, &dir)
        .expect("recovery of a windowed predictor");
    let mut ok = !report.is_lossy();
    ok &= r.window() == twin.window();
    ok &= r.network().revision() == twin.network().revision();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_10cc);
    let pairs = candidate_pairs(&mut rng, s.nodes, 64);
    for &(u, v) in &pairs {
        if r.score(u, v).map(f64::to_bits) != twin.score(u, v).map(f64::to_bits)
        {
            println!("FAIL: recovered score diverged on ({u}, {v})");
            ok = false;
        }
    }
    let _ = fs::remove_dir_all(&dir);
    ok
}

struct WidthCost {
    width: Timestamp,
    ingested: usize,
    expired: usize,
    advances: usize,
    advance_ns: u128,
    surviving: usize,
}

/// Experiment 2: ingest the stream at each width, then slide the
/// horizon off the end one width at a time until the window empties.
fn expiry_cost(s: &Stream, widths: &[Timestamp]) -> Vec<WidthCost> {
    widths
        .iter()
        .map(|&width| {
            let mut wv = WindowedView::with_width(width);
            let mut expired = 0usize;
            let mut advances = 0usize;
            let mut advance_ns = 0u128;
            let mut ingested = 0usize;
            for &(u, v, t) in &s.events {
                let t0 = Instant::now();
                match wv.try_add_link(u, v, t) {
                    Ok(report) => {
                        advance_ns += t0.elapsed().as_nanos();
                        ingested += 1;
                        if let Some(r) = report {
                            advances += 1;
                            expired += r.expired_links;
                        }
                    }
                    Err(_) => advance_ns += t0.elapsed().as_nanos(),
                }
            }
            // Slide the window off the end of the timeline.
            let step = width.saturating_add(1).max(1);
            while wv.link_count() > 0 {
                let to = wv.horizon().saturating_add(step);
                let t0 = Instant::now();
                let report = wv.advance(to).expect("monotone");
                advance_ns += t0.elapsed().as_nanos();
                let Some(r) = report else { break };
                advances += 1;
                expired += r.expired_links;
                if to == u32::MAX {
                    break;
                }
            }
            WidthCost {
                width,
                ingested,
                expired,
                advances,
                advance_ns,
                surviving: wv.link_count(),
            }
        })
        .collect()
}

struct AdvancePoint {
    horizon: Timestamp,
    expired: usize,
    entries_invalidated: u64,
    hit_rate: f64,
}

/// Experiment 3: hit-rate across a run of advances. The cache is warmed
/// on the full window, then the horizon slides one tick at a time; each
/// advance invalidates selectively and the next batch re-probes.
fn cache_across_advances(
    s: &Stream,
    model: &SsfnmModel,
    seed: u64,
    ticks: usize,
) -> (Vec<AdvancePoint>, bool) {
    let width = s.max_t; // everything in-window at ingest end
    let mut wv = WindowedView::with_width(width);
    let mut cache = ExtractionCache::new();
    for &(u, v, t) in &s.events {
        wv.try_add_link(u, v, t).expect("stream events are clean");
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xcac4_e000);
    let pairs = candidate_pairs(&mut rng, s.nodes, 128);
    let probe = |wv: &WindowedView, cache: &mut ExtractionCache| {
        let present = wv.horizon().saturating_add(1);
        for &(u, v) in &pairs {
            let _ = model.try_score_cached(wv, u, v, present, cache);
        }
    };
    cache.sync_affected(
        wv.network(),
        wv.window().map(|w| (w.width, w.horizon)),
        &[],
    );
    probe(&wv, &mut cache);
    probe(&wv, &mut cache); // warm: second pass all hits
    let mut points = Vec::new();
    let mut no_blanket_flush = true;
    for _ in 0..ticks {
        let to = wv.horizon().saturating_add(1);
        let Ok(Some(report)) = wv.advance(to) else {
            break;
        };
        let before = cache.stats();
        cache.sync_affected(
            wv.network(),
            wv.window().map(|w| (w.width, w.horizon)),
            &report.affected,
        );
        probe(&wv, &mut cache);
        let after = cache.stats();
        no_blanket_flush &= after.invalidations == before.invalidations;
        let lookups =
            (after.total_lookups() - before.total_lookups()).max(1) as f64;
        let hits = (after.ball_hits + after.pair_hits)
            - (before.ball_hits + before.pair_hits);
        points.push(AdvancePoint {
            horizon: to,
            expired: report.expired_links,
            entries_invalidated: after.entries_invalidated
                - before.entries_invalidated,
            hit_rate: hits as f64 / lookups,
        });
    }
    (points, no_blanket_flush)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_window.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let v = it.next().expect("--seed requires a value");
                seed = v.parse().expect("--seed must be an integer");
            }
            "--out" => {
                out_path = it.next().expect("--out requires a value").clone();
            }
            _ => {}
        }
    }

    let s = stream(smoke, seed);

    // One model fitted on the full history scores every graph variant:
    // bit-identity is a property of the extraction pipeline, not of any
    // particular set of weights.
    let full = rebuild_in_window(
        &s,
        Window {
            width: u32::MAX,
            horizon: s.max_t,
        },
    );
    let split = Split::with_min_positives(
        &full,
        &SplitConfig {
            seed,
            max_positives: Some(300),
            ..SplitConfig::default()
        },
        10,
    )
    .expect("benchmark network must split");
    let opts = MethodOptions {
        seed,
        nm_epochs: if smoke { 15 } else { 40 },
        ..MethodOptions::default()
    };
    let model = SsfnmModel::try_fit(&split, &[], &opts).expect("benchmark fit");

    // --- Correctness first: the bit-identity gate. ---
    let maintained = check_bit_identity(&s, &model, seed);
    println!(
        "bit-identity (incremental vs rebuild, frozen, \
         cached/uncached): {maintained}"
    );
    let recovered = check_recovery_bit_identity(&s, seed);
    println!("bit-identity (kill-and-replay recovery): {recovered}");
    let bit_identical = maintained && recovered;

    // --- Expiry cost vs. window width. ---
    let span = s.max_t.max(1);
    let widths: Vec<Timestamp> = if smoke {
        vec![0, span / 4, span, u32::MAX]
    } else {
        vec![0, 1, span / 8, span / 4, span / 2, span, u32::MAX]
    };
    let costs = expiry_cost(&s, &widths);
    for c in &costs {
        let per_expired = c.advance_ns as f64 / c.expired.max(1) as f64;
        println!(
            "width {:>10}: ingested {} expired {} over {} advances, \
             {:.0} ns/expired link, {} surviving",
            c.width,
            c.ingested,
            c.expired,
            c.advances,
            per_expired,
            c.surviving
        );
    }

    // --- Cache hit-rate across advances. ---
    let ticks = if smoke { 3 } else { 8 };
    let (points, no_blanket_flush) =
        cache_across_advances(&s, &model, seed, ticks);
    for p in &points {
        println!(
            "advance to {:>3}: expired {:>4} links, invalidated {:>4} \
             cache entries, next-batch hit rate {:.3}",
            p.horizon, p.expired, p.entries_invalidated, p.hit_rate
        );
    }
    let mean_hit_rate = if points.is_empty() {
        0.0
    } else {
        points.iter().map(|p| p.hit_rate).sum::<f64>() / points.len() as f64
    };
    println!(
        "cache across {} advances: mean hit rate {mean_hit_rate:.3}, \
         selective only: {no_blanket_flush}",
        points.len()
    );

    let widths_json: Vec<String> = costs
        .iter()
        .map(|c| {
            format!(
                "    {{ \"width\": {}, \"ingested\": {}, \
                 \"expired_links\": {}, \"advances\": {}, \
                 \"advance_ns_total\": {}, \"ns_per_expired\": {:.1}, \
                 \"surviving_links\": {} }}",
                c.width,
                c.ingested,
                c.expired,
                c.advances,
                c.advance_ns,
                c.advance_ns as f64 / c.expired.max(1) as f64,
                c.surviving
            )
        })
        .collect();
    let advances_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{ \"horizon\": {}, \"expired_links\": {}, \
                 \"entries_invalidated\": {}, \"hit_rate\": {:.6} }}",
                p.horizon, p.expired, p.entries_invalidated, p.hit_rate
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"schema\": \"ssf.bench.window_dynamics.v1\",\n  \
         \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"nodes\": {},\n  \"links\": {},\n  \"max_timestamp\": {},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"expiry_cost_by_width\": [\n{}\n  ],\n  \
         \"cache_across_advances\": [\n{}\n  ],\n  \
         \"mean_hit_rate_across_advances\": {mean_hit_rate:.6},\n  \
         \"selective_invalidation_only\": {no_blanket_flush}\n}}\n",
        s.nodes,
        s.events.len(),
        s.max_t,
        widths_json.join(",\n"),
        advances_json.join(",\n"),
    );
    fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
    assert!(bit_identical, "bit-identity gate failed");
}
