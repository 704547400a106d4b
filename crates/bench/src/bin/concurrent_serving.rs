//! Concurrent-serving benchmark: the immutable-snapshot read path vs
//! the serial batch path.
//!
//! Three measurements on a generated HubDominated network:
//!
//! 1. `score_batch_parallel` throughput at 1/2/4/8 reader threads
//!    against the serial `score_batch` baseline, each block on its own
//!    freshly published [`ScoringSnapshot`] of one epoch (a snapshot
//!    memoises the scores it served, so a reused one would time memo
//!    lookups), with bit-identity asserted at every thread count (the
//!    contract, not a tolerance).
//! 2. Snapshot-publish latency (p50/p95 from the
//!    `ssf.serve.snapshot_publish` span histogram) and the epoch-lag
//!    gauge after writes land behind a published model.
//! 3. Delta proportionality: publish latency sampled as the copy-on-write
//!    overlay grows (1/16/64 extra observes), demonstrating the O(delta)
//!    publish contract — latency tracks the overlay, not the graph.
//!
//! Emits machine-readable `BENCH_concurrent_serving.json`. The ≥3×
//! speedup target at 4 threads is *recorded*, not asserted: on a
//! single-core host (`available_parallelism` is in the JSON) parallel
//! throughput is honestly reported below 1×.
//!
//! Run: `cargo run -p ssf-bench --release --bin concurrent_serving
//!       [--smoke] [--seed <n>] [--out <path>]`

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::fs;
use std::sync::Arc;
use std::time::Instant;

use datasets::DatasetSpec;
use dyngraph::NodeId;
use obs::{ObsHandle, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssf_repro::methods::MethodOptions;
use ssf_repro::{OnlineLinkPredictor, OnlinePredictorConfig, ScoringSnapshot};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Snapshot publishes measured for the latency histogram.
const PUBLISHES: usize = 24;

fn config(smoke: bool, seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            seed,
            nm_epochs: if smoke { 15 } else { 40 },
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX) // refits are explicit in this benchmark
        .min_positives(if smoke { 20 } else { 60 })
        .history_folds(0)
        .build()
        .expect("valid benchmark configuration")
}

/// Recommendation-shaped candidate batch: focal nodes × candidates with
/// every 4th pair repeating an earlier one (shared endpoints amortize).
fn candidate_pairs(n: NodeId, smoke: bool, seed: u64) -> Vec<(NodeId, NodeId)> {
    let (focals, cands) = if smoke { (12, 20) } else { (32, 48) };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(focals * cands);
    for _ in 0..focals {
        let u = rng.gen_range(0..n);
        for _ in 0..cands {
            let pair = if pairs.len() % 4 == 3 && !pairs.is_empty() {
                pairs[rng.gen_range(0..pairs.len())]
            } else {
                (u, rng.gen_range(0..n))
            };
            pairs.push(pair);
        }
    }
    pairs
}

fn assert_bit_identical(
    base: &[Option<f64>],
    other: &[Option<f64>],
    what: &str,
) {
    assert_eq!(base.len(), other.len(), "{what}: length diverged");
    for (i, (a, b)) in base.iter().zip(other).enumerate() {
        let same = match (a, b) {
            (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
            (None, None) => true,
            _ => false,
        };
        assert!(same, "{what}: slot {i} diverged: {a:?} vs {b:?}");
    }
}

/// Times one scoring pass; returns (scores, pairs/sec).
fn timed<F: FnOnce() -> Vec<Option<f64>>>(
    pairs: usize,
    f: F,
) -> (Vec<Option<f64>>, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, pairs as f64 / t0.elapsed().as_secs_f64().max(1e-9))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_concurrent_serving.json");
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

    let cores = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get);
    let spec = if smoke {
        DatasetSpec::prosper().scaled(0.2)
    } else {
        DatasetSpec::prosper().scaled(0.8)
    };
    let g = spec.generate(seed);
    println!(
        "network: {} nodes, {} links ({}), {cores} core(s)",
        g.node_count(),
        g.link_count(),
        spec.name
    );

    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);

    // --- Writer: single-core ingest, one fit, repeated publishes. ---
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    let mut p =
        OnlineLinkPredictor::with_recorder(config(smoke, seed), obs.clone());
    // Hold back a tail of events so publishes happen against a moving
    // graph: every post-refit observe widens the epoch lag the gauge
    // reports.
    let held_back = PUBLISHES.min(events.len() / 10);
    let (head, tail) = events.split_at(events.len() - held_back);
    for &(u, v, t) in head {
        p.observe(u, v, t);
    }
    p.try_refit().expect("benchmark network must support a fit");
    let mut snapshot: ScoringSnapshot = p.snapshot();
    // Sum of overlay delta links carried by each publish: the work a
    // publish actually pays for under the O(delta) contract.
    let mut rebase_delta_links: usize = snapshot.delta_links();
    for &(u, v, t) in tail {
        p.observe(u, v, t);
        snapshot = p.snapshot();
        rebase_delta_links += snapshot.delta_links();
    }
    println!(
        "published {} snapshots (epoch {}, model epoch {:?}, \
         {rebase_delta_links} delta links carried)",
        tail.len() + 1,
        snapshot.epoch(),
        snapshot.model_epoch()
    );

    // --- Publish latency + epoch lag from the recorder. ---
    let snap = registry.snapshot();
    let publish = snap
        .histogram("ssf.serve.snapshot_publish")
        .expect("publish span must be recorded");
    let (pub_p50_us, pub_p95_us) = (
        publish.quantile(0.50) as f64 / 1e3,
        publish.quantile(0.95) as f64 / 1e3,
    );
    let epoch_lag = snap.gauge("ssf.serve.epoch_lag");
    println!(
        "snapshot publish: {} publishes, p50 {pub_p50_us:.1}us, \
         p95 {pub_p95_us:.1}us; epoch lag {epoch_lag}",
        publish.count()
    );

    // --- Read path: serial baseline, then the parallel ladder. ---
    // Each timed block scores through a freshly published snapshot of
    // the same epoch: a snapshot memoises the scores it served, so
    // reusing one would time memo lookups instead of extraction. These
    // publishes come after the latency readout above, which therefore
    // covers only the publishes that followed an observe.
    let n = p.network().node_count() as NodeId;
    let pairs = candidate_pairs(n, smoke, seed);
    println!("scoring {} pairs", pairs.len());
    let fresh = p.snapshot();
    let (serial_scores, serial_pps) =
        timed(pairs.len(), || fresh.score_batch(&pairs));
    println!("serial batch: {serial_pps:>9.1} pairs/s");
    let mut parallel: Vec<(usize, f64, f64)> = Vec::new();
    for &t in &THREAD_COUNTS {
        let fresh = p.snapshot();
        let (scores, pps) =
            timed(pairs.len(), || fresh.score_batch_parallel(&pairs, t));
        assert_bit_identical(&serial_scores, &scores, "parallel read path");
        let speedup = pps / serial_pps;
        println!("parallel x{t}: {pps:>8.1} pairs/s ({speedup:.2}x)");
        parallel.push((t, pps, speedup));
    }
    let speedup_at_4 = parallel
        .iter()
        .find(|&&(t, _, _)| t == 4)
        .map_or(0.0, |&(_, _, s)| s);
    // A 4-thread speedup target is meaningless on a host without 4
    // cores: report "unmeasurable" instead of a misleading `false` so
    // dashboards distinguish "too slow" from "could not be measured".
    let target_speedup_met = if cores < 4 {
        "\"unmeasurable\"".to_string()
    } else {
        (speedup_at_4 >= 3.0).to_string()
    };

    // --- Delta proportionality: publish latency vs overlay size. ---
    // Grow the delta in steps and time publishes at each size; under the
    // O(delta) contract latency must track the overlay, not the graph.
    let mut max_t = p.network().max_timestamp().unwrap_or(0);
    let mut drng = StdRng::seed_from_u64(seed ^ 0x51f0_aa11);
    let mut proportionality: Vec<(usize, f64)> = Vec::new();
    for &step in &[1usize, 16, 64] {
        let mut added = 0usize;
        while added < step {
            let u = drng.gen_range(0..n);
            let v = drng.gen_range(0..n);
            if u == v {
                continue;
            }
            max_t += 1;
            if p.observe(u, v, max_t).is_accepted() {
                added += 1;
            }
        }
        let delta_now = p.delta_link_count();
        const REPS: usize = 32;
        let t0 = Instant::now();
        let mut last = p.snapshot();
        for _ in 1..REPS {
            last = p.snapshot();
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        println!(
            "publish at delta {delta_now}: {us:.1}us \
             (epoch {})",
            last.epoch()
        );
        proportionality.push((delta_now, us));
    }

    let parallel_json: Vec<String> = parallel
        .iter()
        .map(|(t, pps, s)| {
            format!(
                "    {{ \"threads\": {t}, \"pairs_per_sec\": {pps:.1}, \
                 \"speedup\": {s:.3} }}"
            )
        })
        .collect();
    let proportionality_json: Vec<String> = proportionality
        .iter()
        .map(|(delta, us)| {
            format!(
                "    {{ \"delta_links\": {delta}, \
                 \"publish_us\": {us:.2} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"spec\": \"{}\",\n  \"smoke\": {smoke},\n  \
         \"seed\": {seed},\n  \"nodes\": {},\n  \"links\": {},\n  \
         \"pairs\": {},\n  \"available_parallelism\": {cores},\n  \
         \"serial_pairs_per_sec\": {serial_pps:.1},\n  \
         \"parallel\": [\n{}\n  ],\n  \
         \"speedup_at_4_threads\": {speedup_at_4:.3},\n  \
         \"target_speedup_met\": {target_speedup_met},\n  \
         \"snapshot_publish\": {{\n    \
         \"count\": {},\n    \"p50_us\": {pub_p50_us:.1},\n    \
         \"p95_us\": {pub_p95_us:.1},\n    \
         \"rebase_delta_links\": {rebase_delta_links}\n  }},\n  \
         \"delta_proportionality\": [\n{}\n  ],\n  \
         \"epoch_lag\": {epoch_lag},\n  \
         \"bit_identical\": true\n}}\n",
        spec.name,
        g.node_count(),
        g.link_count(),
        pairs.len(),
        parallel_json.join(",\n"),
        publish.count(),
        proportionality_json.join(",\n"),
    );
    fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
