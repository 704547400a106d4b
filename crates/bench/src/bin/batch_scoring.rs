//! Batch-scoring throughput benchmark: amortized `score_batch` vs the
//! per-pair `score` path, on a ~1k-node generated HubDominated network.
//!
//! The workload is the recommendation shape from the paper's
//! introduction: a set of focal users each scored against many
//! candidates, so batches share endpoints and repeat pairs — exactly
//! what the graph-versioned extraction cache amortizes.
//!
//! Emits machine-readable `BENCH_batch_scoring.json` (pairs/sec for
//! each path, cache hit rate, p50/p99 per-pair latency, and the
//! snapshot-parallel speedup with an honest `"unmeasurable"` verdict
//! when the host has fewer than 4 cores) and asserts that cached and
//! uncached scores are bit-identical.
//!
//! Run: `cargo run -p ssf-bench --release --bin batch_scoring
//!       [--smoke] [--seed <n>] [--out <path>]`

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::fs;
use std::sync::Arc;
use std::time::Instant;

use datasets::DatasetSpec;
use dyngraph::NodeId;
use obs::{ObsHandle, Registry, Snapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssf_repro::methods::MethodOptions;
use ssf_repro::{OnlineLinkPredictor, OnlinePredictorConfig};

/// Per-path timing summary. Latencies are per pair, in microseconds;
/// for the batch paths they are measured over chunks of
/// [`CHUNK`] pairs and divided down.
struct PathTiming {
    pairs_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

const CHUNK: usize = 64;

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(per_pair_us: &mut [f64], total_secs: f64, n: usize) -> PathTiming {
    per_pair_us.sort_by(f64::total_cmp);
    PathTiming {
        pairs_per_sec: n as f64 / total_secs,
        p50_us: percentile(per_pair_us, 0.50),
        p99_us: percentile(per_pair_us, 0.99),
    }
}

/// Times the per-pair `score` path, one call per pair.
fn run_per_pair(
    p: &OnlineLinkPredictor,
    pairs: &[(NodeId, NodeId)],
) -> (Vec<Option<f64>>, PathTiming) {
    let mut lat = Vec::with_capacity(pairs.len());
    let mut out = Vec::with_capacity(pairs.len());
    let start = Instant::now();
    for &(u, v) in pairs {
        let t0 = Instant::now();
        out.push(p.score(u, v));
        lat.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let total = start.elapsed().as_secs_f64();
    (out, summarize(&mut lat, total, pairs.len()))
}

/// Times `score_batch` in chunks of [`CHUNK`] pairs.
fn run_batch(
    p: &mut OnlineLinkPredictor,
    pairs: &[(NodeId, NodeId)],
) -> (Vec<Option<f64>>, PathTiming) {
    let mut lat = Vec::new();
    let mut out = Vec::with_capacity(pairs.len());
    let start = Instant::now();
    for chunk in pairs.chunks(CHUNK) {
        let t0 = Instant::now();
        out.extend(p.score_batch(chunk));
        let us = t0.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64;
        lat.extend(std::iter::repeat_n(us, chunk.len()));
    }
    let total = start.elapsed().as_secs_f64();
    (out, summarize(&mut lat, total, pairs.len()))
}

/// Per-stage timing breakdown from the recorder's span histograms:
/// every `ssf.*` stage with its call count, total time and latency
/// quantiles (the `obs` crate's fixed-bucket estimates).
fn stages_json(snap: &Snapshot) -> String {
    let mut out = String::from("  \"stages\": {");
    let mut first = true;
    for (name, h) in &snap.histograms {
        if !name.starts_with("ssf.") {
            continue;
        }
        out.push_str(if first { "\n" } else { ",\n" });
        first = false;
        out.push_str(&format!(
            "    \"{name}\": {{ \"count\": {}, \"total_ms\": {:.3}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1} }}",
            h.count(),
            h.sum() as f64 / 1e6,
            h.quantile(0.50) as f64 / 1e3,
            h.quantile(0.95) as f64 / 1e3,
            h.quantile(0.99) as f64 / 1e3,
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push('}');
    out
}

fn timing_json(name: &str, t: &PathTiming) -> String {
    format!(
        "  \"{name}\": {{\n    \"pairs_per_sec\": {:.1},\n    \
         \"p50_us\": {:.2},\n    \"p99_us\": {:.2}\n  }}",
        t.pairs_per_sec, t.p50_us, t.p99_us
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_batch_scoring.json");
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

    // Prosper scaled to ~1k nodes (smoke: ~250) — HubDominated topology,
    // so candidate pairs concentrate around hubs and share endpoints.
    let spec = if smoke {
        DatasetSpec::prosper().scaled(0.2)
    } else {
        DatasetSpec::prosper().scaled(0.8)
    };
    let g = spec.generate(seed);
    println!(
        "network: {} nodes, {} links ({})",
        g.node_count(),
        g.link_count(),
        spec.name
    );

    // Ingest the whole stream without intermediate refits, then fit once.
    // The recorder feeds the per-stage breakdown in the JSON output.
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::of_registry(Arc::clone(&registry));
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            seed,
            nm_epochs: if smoke { 15 } else { 40 },
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX)
        .min_positives(if smoke { 20 } else { 60 })
        .history_folds(0)
        .build()
        .expect("valid benchmark configuration");
    let mut p = OnlineLinkPredictor::with_recorder(config, obs);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    for l in links {
        p.observe(l.u, l.v, l.t);
    }
    p.try_refit().expect("benchmark network must support a fit");

    // Recommendation-shaped batch: focal nodes × candidates, shuffled-ish
    // by the RNG, with every 4th pair repeating an earlier one.
    let n = p.network().node_count() as NodeId;
    let (focals, cands) = if smoke { (16, 24) } else { (48, 64) };
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
    println!("scoring {} pairs", pairs.len());

    // One shared vCPU makes single measurements noisy (±2x observed),
    // so each path is measured three times and the run with the median
    // `pairs_per_sec` is reported. The cold path clears the extraction
    // cache before every repetition so each run really starts cold;
    // every repetition must produce identical scores.
    const REPS: usize = 3;
    let median = |mut runs: Vec<(Vec<Option<f64>>, PathTiming)>| {
        runs.sort_by(|a, b| a.1.pairs_per_sec.total_cmp(&b.1.pairs_per_sec));
        for w in runs.windows(2) {
            assert_eq!(w[0].0, w[1].0, "repeated runs changed scores");
        }
        runs.swap_remove(REPS / 2)
    };
    let (base, per_pair) =
        median((0..REPS).map(|_| run_per_pair(&p, &pairs)).collect());
    let (cold_scores, cold) = median(
        (0..REPS)
            .map(|_| {
                p.clear_cache();
                run_batch(&mut p, &pairs)
            })
            .collect(),
    );
    let (warm_scores, warm) =
        median((0..REPS).map(|_| run_batch(&mut p, &pairs)).collect());
    let stats = p.cache_stats();

    // Parallel read path on published snapshots: serial `score_batch`
    // baseline vs `score_batch_parallel` at 4 workers. Each run gets
    // its own fresh snapshot: a snapshot memoises the scores it served,
    // so the second run on a shared one would time memo lookups.
    let cores = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get);
    let snapshot = p.snapshot();
    let t0 = Instant::now();
    let snap_serial = snapshot.score_batch(&pairs);
    let snap_serial_pps =
        pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let snapshot = p.snapshot();
    let t0 = Instant::now();
    let snap_parallel = snapshot.score_batch_parallel(&pairs, 4);
    let snap_parallel_pps =
        pairs.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(snap_serial, snap_parallel, "parallel read path diverged");
    let speedup_parallel = snap_parallel_pps / snap_serial_pps;
    // A 4-thread speedup target is meaningless on a host without 4
    // cores: report "unmeasurable" instead of a misleading `false` so
    // dashboards distinguish "too slow" from "could not be measured".
    let target_speedup_met = if cores < 4 {
        "\"unmeasurable\"".to_string()
    } else {
        (speedup_parallel >= 3.0).to_string()
    };

    // Bit-identity: every batch slot must equal the per-pair path.
    for (i, (b, s)) in cold_scores.iter().zip(&base).enumerate() {
        let same = match (b, s) {
            (Some(b), Some(s)) => b.to_bits() == s.to_bits(),
            (None, None) => true,
            _ => false,
        };
        assert!(same, "pair {:?} diverged: {b:?} vs {s:?}", pairs[i]);
    }
    assert_eq!(cold_scores, warm_scores, "warm batch changed scores");

    let speedup_warm = warm.pairs_per_sec / per_pair.pairs_per_sec;
    let speedup_cold = cold.pairs_per_sec / per_pair.pairs_per_sec;
    println!(
        "per-pair: {:>9.1} pairs/s   (p50 {:.1}us, p99 {:.1}us)",
        per_pair.pairs_per_sec, per_pair.p50_us, per_pair.p99_us
    );
    println!(
        "batch cold: {:>7.1} pairs/s   ({speedup_cold:.2}x)",
        cold.pairs_per_sec
    );
    println!(
        "batch warm: {:>7.1} pairs/s   ({speedup_warm:.2}x)",
        warm.pairs_per_sec
    );
    println!(
        "snapshot parallel x4: {snap_parallel_pps:>7.1} pairs/s \
         ({speedup_parallel:.2}x vs serial snapshot, {cores} core(s), \
         target met: {target_speedup_met})"
    );
    println!(
        "cache: {} ball hits / {} misses, {} pair hits / {} misses \
         (hit rate {:.3})",
        stats.ball_hits,
        stats.ball_misses,
        stats.pair_hits,
        stats.pair_misses,
        stats.hit_rate()
    );

    let snap = registry.snapshot();
    for (name, h) in &snap.histograms {
        if name.starts_with("ssf.") {
            println!(
                "stage {name}: {} calls, {:.1}ms total, p50 {:.1}us",
                h.count(),
                h.sum() as f64 / 1e6,
                h.quantile(0.50) as f64 / 1e3,
            );
        }
    }

    let json = format!(
        "{{\n  \"spec\": \"{}\",\n  \"smoke\": {smoke},\n  \
         \"seed\": {seed},\n  \"nodes\": {},\n  \"links\": {},\n  \
         \"pairs\": {},\n{},\n{},\n{},\n  \
         \"speedup_batch_cold\": {speedup_cold:.3},\n  \
         \"speedup_batch_warm\": {speedup_warm:.3},\n  \
         \"available_parallelism\": {cores},\n  \
         \"snapshot_parallel\": {{\n    \"threads\": 4,\n    \
         \"serial_pairs_per_sec\": {snap_serial_pps:.1},\n    \
         \"parallel_pairs_per_sec\": {snap_parallel_pps:.1},\n    \
         \"speedup\": {speedup_parallel:.3},\n    \
         \"target_speedup_met\": {target_speedup_met}\n  }},\n  \
         \"cache\": {{\n    \
         \"ball_hits\": {},\n    \"ball_misses\": {},\n    \
         \"pair_hits\": {},\n    \"pair_misses\": {},\n    \
         \"invalidations\": {},\n    \"hit_rate\": {:.4}\n  }},\n{},\n  \
         \"bit_identical\": true\n}}\n",
        spec.name,
        g.node_count(),
        g.link_count(),
        pairs.len(),
        timing_json("per_pair", &per_pair),
        timing_json("batch_cold", &cold),
        timing_json("batch_warm", &warm),
        stats.ball_hits,
        stats.ball_misses,
        stats.pair_hits,
        stats.pair_misses,
        stats.invalidations,
        stats.hit_rate(),
        stages_json(&snap),
    );
    fs::write(&out_path, json).expect("write benchmark json");
    println!("wrote {out_path}");
}
