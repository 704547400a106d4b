//! Million-scale tier benchmark: generates the [`ScaleTier`] ladder,
//! freezes each tier into the CSR layout, and runs the writer's
//! scoring path end-to-end on every tier.
//!
//! Per tier, the report measures:
//!
//! * streamed generation and ingest time (events/s through `observe`),
//! * freeze time of the tier's graph into a [`FrozenGraph`],
//! * its `heap_bytes()` in total and per link — the footprint a
//!   serving snapshot's frozen base pays,
//! * batch-scoring throughput of `OnlineLinkPredictor::score_batch` on
//!   a fitted predictor, in chunks of 64 pairs. That is the writer path:
//!   it scores the predictor's own copy-on-write graph (frozen base plus
//!   the delta since the last compaction), not a published snapshot,
//!   and nothing memoized outlives a call, so every chunk runs cold,
//! * throughput of the snapshot read path on a fresh snapshot:
//!   `ScoringSnapshot::score` one pair per call, cold (empty score memo)
//!   and warm (a second pass over the same snapshot, so every
//!   model-scored pair is a memo hit), and the same pairs through a
//!   `Coalescer` on another fresh snapshot (batches of up to 32 on one
//!   worker thread). A server pays the cold path on every new request;
//!   every path borrows its thread's extraction cache, so per-call cost
//!   follows the ball, not the tier's node count,
//! * snapshot publish latency (median of several publishes).
//!
//! Emits machine-readable `BENCH_scale.json`. The binary itself asserts
//! the invariants CI gates on: tiers monotone in link count, and writer,
//! cold/warm snapshot and coalesced scores bit-identical.
//!
//! Run: `cargo run -p ssf-bench --release --bin scale
//!       [--smoke] [--seed <n>] [--out <path>]`
//!
//! Full mode runs the S(10k)/M(100k)/L(400k)-node tiers; `--smoke`
//! substitutes a scaled-down M so the whole run fits a CI minute while
//! still crossing the streamed-generation threshold.

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::fs;
use std::thread;
use std::time::Instant;

use datasets::{DatasetSpec, ScaleTier};
use dyngraph::{FrozenGraph, GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssf_eval::SplitConfig;
use ssf_repro::methods::MethodOptions;
use ssf_repro::{
    CoalesceConfig, Coalescer, OnlineLinkPredictor, OnlinePredictorConfig,
};

const CHUNK: usize = 64;

struct TierReport {
    tier: &'static str,
    spec_name: &'static str,
    nodes: usize,
    links: usize,
    gen_secs: f64,
    ingest_secs: f64,
    freeze_secs: f64,
    bytes: usize,
    pairs: usize,
    cold_pps: f64,
    snapshot_pps: f64,
    warm_pps: f64,
    coalesced_pps: f64,
    publish_us: f64,
}

impl TierReport {
    fn bytes_per_link(&self) -> f64 {
        self.bytes as f64 / self.links as f64
    }
}

/// Times one tier end to end: generate → freeze → ingest → fit →
/// score through the writer, a snapshot and a coalescer → publish.
fn run_tier(
    tier: &'static str,
    spec: &DatasetSpec,
    seed: u64,
    n_pairs: usize,
) -> TierReport {
    let t0 = Instant::now();
    let g = spec.generate(seed);
    let gen_secs = t0.elapsed().as_secs_f64();
    println!(
        "[{tier}] generated {} nodes / {} links in {gen_secs:.2}s",
        g.node_count(),
        g.link_count()
    );

    let t0 = Instant::now();
    let frozen = FrozenGraph::from_view(&g);
    let freeze_secs = t0.elapsed().as_secs_f64();
    let bytes = frozen.heap_bytes();
    println!(
        "[{tier}] freeze {freeze_secs:.2}s ({:.1} B/link)",
        bytes as f64 / g.link_count() as f64,
    );
    drop(frozen);

    // End-to-end serving path: ingest the stream, fit once, score.
    // The split caps keep the fit cost bounded so throughput measures
    // extraction + scoring over the tier's graph, not training size.
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            seed,
            nm_epochs: 12,
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX)
        .min_positives(40)
        .history_folds(0)
        .split(SplitConfig {
            seed,
            max_positives: Some(160),
            ..SplitConfig::default()
        })
        .build()
        .expect("valid benchmark configuration");
    let mut p = OnlineLinkPredictor::new(config);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    let t0 = Instant::now();
    for l in &links {
        p.observe(l.u, l.v, l.t);
    }
    let ingest_secs = t0.elapsed().as_secs_f64();
    println!(
        "[{tier}] ingested {} events in {ingest_secs:.2}s ({:.0} events/s)",
        links.len(),
        links.len() as f64 / ingest_secs.max(1e-9),
    );
    p.try_refit().expect("tier stream must support a fit");

    // Recommendation-shaped pairs: each focal node takes 16
    // candidates, and every 4th pair repeats an earlier one.
    let n = p.network().node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(n_pairs);
    let mut focal = rng.gen_range(0..n);
    for i in 0..n_pairs {
        if i % 16 == 0 {
            focal = rng.gen_range(0..n);
        }
        let pair = if i % 4 == 3 && !pairs.is_empty() {
            pairs[rng.gen_range(0..pairs.len())]
        } else {
            (focal, rng.gen_range(0..n))
        };
        pairs.push(pair);
    }

    let t0 = Instant::now();
    let mut cold_scores = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(CHUNK) {
        cold_scores.extend(p.score_batch(chunk));
    }
    let cold_pps = pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    println!(
        "[{tier}] OnlineLinkPredictor::score_batch on {} pairs: \
         {cold_pps:.0} pairs/s",
        pairs.len()
    );

    // The read path: a fresh snapshot (cold memo), scored twice — the
    // second pass is served from the snapshot's score memo.
    let snap = p.snapshot();
    let score_all = || {
        let t0 = Instant::now();
        let scores: Vec<_> =
            pairs.iter().map(|&(u, v)| snap.score(u, v)).collect();
        (
            scores,
            pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9),
        )
    };
    let (snap_scores, snapshot_pps) = score_all();
    assert_eq!(snap_scores, cold_scores, "snapshot changed scores");
    let (warm_scores, warm_pps) = score_all();
    assert_eq!(warm_scores, cold_scores, "the memo changed scores");
    drop(snap);

    let config = CoalesceConfig::builder()
        .max_batch(32)
        .max_delay_ns(100_000)
        .queue_capacity(pairs.len())
        .build()
        .expect("valid coalescer configuration");
    let coalescer = Coalescer::new(p.snapshot(), config);
    let t0 = Instant::now();
    let coalesced_scores: Vec<_> = thread::scope(|s| {
        s.spawn(|| coalescer.run_worker());
        let tickets: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| coalescer.submit(u, v).expect("queue holds all"))
            .collect();
        let scores = tickets
            .into_iter()
            .map(|t| t.wait().expect("scored"))
            .collect();
        coalescer.shutdown();
        scores
    });
    let coalesced_pps =
        pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(coalesced_scores, cold_scores, "coalescer changed scores");
    println!(
        "[{tier}] ScoringSnapshot::score cold {snapshot_pps:.0} pairs/s, \
         warm {warm_pps:.0} pairs/s, coalesced {coalesced_pps:.0} pairs/s"
    );

    // Snapshot publish latency: median of five publishes (O(delta)
    // copy-on-write, so this is the tail a serving replica pays).
    let mut publish_us: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let s = p.snapshot();
            let us = t0.elapsed().as_secs_f64() * 1e6;
            drop(s);
            us
        })
        .collect();
    publish_us.sort_by(f64::total_cmp);
    let publish_us = publish_us[publish_us.len() / 2];
    println!("[{tier}] snapshot publish p50 {publish_us:.1}us");

    TierReport {
        tier,
        spec_name: spec.name,
        nodes: g.node_count(),
        links: g.link_count(),
        gen_secs,
        ingest_secs,
        freeze_secs,
        bytes,
        pairs: pairs.len(),
        cold_pps,
        snapshot_pps,
        warm_pps,
        coalesced_pps,
        publish_us,
    }
}

fn tier_json(r: &TierReport) -> String {
    format!(
        "    {{\n      \"tier\": \"{}\",\n      \"spec\": \"{}\",\n      \
         \"nodes\": {},\n      \"links\": {},\n      \
         \"gen_secs\": {:.3},\n      \"ingest_secs\": {:.3},\n      \
         \"freeze_secs\": {:.3},\n      \
         \"bytes\": {},\n      \"bytes_per_link\": {:.2},\n      \
         \"scoring\": {{\n        \
         \"path\": \"OnlineLinkPredictor::score_batch\",\n        \
         \"pairs\": {},\n        \
         \"cold_pairs_per_sec\": {:.1}\n      }},\n      \
         \"snapshot_scoring\": {{\n        \
         \"path\": \"ScoringSnapshot::score\",\n        \
         \"cold_pairs_per_sec\": {:.1},\n        \
         \"warm_pairs_per_sec\": {:.1},\n        \
         \"coalesced_pairs_per_sec\": {:.1}\n      }},\n      \
         \"snapshot_publish_us\": {:.1}\n    }}",
        r.tier,
        r.spec_name,
        r.nodes,
        r.links,
        r.gen_secs,
        r.ingest_secs,
        r.freeze_secs,
        r.bytes,
        r.bytes_per_link(),
        r.pairs,
        r.cold_pps,
        r.snapshot_pps,
        r.warm_pps,
        r.coalesced_pps,
        r.publish_us,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_scale.json");
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

    // Smoke keeps CI fast but still streams its generation: S sits at
    // 10k nodes = STREAM_THRESHOLD, and the reduced M (70k nodes) is
    // above it.
    let tiers: Vec<(&'static str, DatasetSpec, usize)> = if smoke {
        vec![
            ("S", DatasetSpec::tier(ScaleTier::S), 256),
            ("M-smoke", DatasetSpec::tier(ScaleTier::M).scaled(0.7), 256),
        ]
    } else {
        vec![
            ("S", DatasetSpec::tier(ScaleTier::S), 1024),
            ("M", DatasetSpec::tier(ScaleTier::M), 1024),
            ("L", DatasetSpec::tier(ScaleTier::L), 512),
        ]
    };

    let reports: Vec<TierReport> = tiers
        .iter()
        .map(|(tier, spec, pairs)| run_tier(tier, spec, seed, *pairs))
        .collect();

    for w in reports.windows(2) {
        assert!(
            w[0].links < w[1].links,
            "tiers must be monotone in links: {} !< {}",
            w[0].links,
            w[1].links
        );
    }

    let body: Vec<String> = reports.iter().map(tier_json).collect();
    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"tiers\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
