//! Serving-SLO benchmark: closed- and open-loop load generators driving
//! the request-coalescing front-end.
//!
//! One binary, many load configurations (the unified experiment-
//! interface idiom): each point puts a freshly published
//! [`ScoringSnapshot`] of one fitted predictor behind a [`Coalescer`]
//! (fresh, because a snapshot memoises the scores it served), a worker
//! thread drives dispatch, and client threads sweep offered QPS under
//! two arrival models:
//!
//! * **Closed-loop** — each client submits one request, waits for its
//!   ticket, then paces to the point's offered rate. The final sweep
//!   point is unpaced (clients submit as fast as the loop allows),
//!   which is where coalescing shows: queue depth rises, batches fill,
//!   and the warm batch path amortizes extraction across requests.
//! * **Open-loop** — arrivals follow a schedule independent of
//!   completions (fixed-rate or Poisson), the honest overload model: a
//!   slow server cannot slow the arrival process down, so queue growth
//!   turns into deadline misses and admission sheds instead of
//!   politely throttled clients. The open-loop points report exactly
//!   that shed/miss behavior under overload.
//!
//! Per sweep point: achieved QPS, p50/p99 end-to-end latency,
//! deadline-miss rate, mean batch size and overload rejections. Before
//! any load runs, a deterministic pass asserts the coalesced path is
//! bit-identical to direct `score_batch` on the same pairs through a
//! separately published twin snapshot, and the
//! admission counters are checked to reconcile exactly after every
//! point.
//!
//! Emits machine-readable `BENCH_serving_slo.json`. The batching
//! speedup target (coalesced unpaced throughput ≥ the serial per-pair
//! path) is cores-conditioned: on hosts with fewer than 4 cores the
//! client threads, the worker and the scoring all contend for one core,
//! so the target is reported as `"unmeasurable"` rather than a
//! misleading boolean.
//!
//! Run: `cargo run -p ssf-bench --release --bin serving_slo
//!       [--smoke] [--seed <n>] [--out <path>]`

// Bench harness, not the serving data path: a failed expectation
// aborts the run and IS the failure report.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use std::collections::VecDeque;
use std::fs;
use std::time::{Duration, Instant};

use datasets::DatasetSpec;
use dyngraph::{GraphView, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssf_repro::methods::MethodOptions;
use ssf_repro::{
    CoalesceConfig, Coalescer, OnlineLinkPredictor, OnlinePredictorConfig,
    Rejection, ScoringSnapshot, Ticket,
};

/// Deadline budget applied to every load-generator request. Generous on
/// purpose: at trivial load nothing should miss it, so the smoke gate
/// can require a 0.0 miss rate.
const DEADLINE_BUDGET: Duration = Duration::from_millis(250);
/// Longest an open-loop client sleeps between polls of its oldest
/// outstanding ticket: bounds how late a completion is stamped.
const POLL_INTERVAL: Duration = Duration::from_micros(50);

fn config(smoke: bool, seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            seed,
            nm_epochs: if smoke { 15 } else { 40 },
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX) // one deliberate refit after ingest
        .min_positives(if smoke { 20 } else { 60 })
        .history_folds(0)
        .build()
        .expect("valid benchmark configuration")
}

/// A fitted predictor; every measured block publishes its own snapshot
/// from it, because a snapshot memoises the scores it served and a
/// reused one would time memo lookups instead of extraction.
fn fitted_predictor(smoke: bool, seed: u64) -> OnlineLinkPredictor {
    let spec = if smoke {
        DatasetSpec::prosper().scaled(0.2)
    } else {
        DatasetSpec::prosper().scaled(0.5)
    };
    let g = spec.generate(seed);
    println!(
        "network: {} nodes, {} links ({})",
        g.node_count(),
        g.link_count(),
        spec.name
    );
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    let mut p = OnlineLinkPredictor::new(config(smoke, seed));
    for &(u, v, t) in &events {
        p.observe(u, v, t);
    }
    p.try_refit().expect("benchmark network must support a fit");
    p
}

/// The coalescer configuration every sweep point runs.
fn coalesce_config(threads: usize) -> CoalesceConfig {
    CoalesceConfig::builder()
        .max_batch(32)
        .max_delay_ns(100_000) // 100 µs
        .queue_capacity(256)
        .worker_threads(threads)
        .default_deadline_ns(Some(
            u64::try_from(DEADLINE_BUDGET.as_nanos()).unwrap_or(u64::MAX),
        ))
        .build()
        .expect("valid coalescer configuration")
}

/// Deterministic candidate pair for client `who`, request `i`.
fn pair_for(rng: &mut StdRng, n: NodeId) -> (NodeId, NodeId) {
    let u = rng.gen_range(0..n);
    let mut v = rng.gen_range(0..n);
    if u == v {
        v = (v + 1) % n;
    }
    (u, v)
}

/// Pre-load bit-identity check: drive the coalescer deterministically
/// over a fixed pair set and compare with direct `score_batch` on a
/// separately published twin, so neither side reads the other's memo.
fn check_bit_identity(p: &OnlineLinkPredictor, seed: u64) -> bool {
    let snapshot = p.snapshot();
    let n = snapshot.graph().node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_10aa);
    let pairs: Vec<(NodeId, NodeId)> =
        (0..200).map(|_| pair_for(&mut rng, n)).collect();
    let direct = p.snapshot().score_batch(&pairs);
    let c = Coalescer::new(
        snapshot,
        CoalesceConfig::builder()
            .max_batch(7) // deliberately odd: many batch boundaries
            .worker_threads(2)
            .queue_capacity(pairs.len())
            .build()
            .expect("valid"),
    );
    let tickets: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| c.submit(u, v).expect("unbounded for this check"))
        .collect();
    while c.flush().remaining > 0 {}
    tickets.into_iter().zip(&direct).all(|(t, want)| {
        matches!(
            t.try_take(),
            Some(Ok(got)) if got.map(f64::to_bits) == want.map(f64::to_bits)
        )
    })
}

/// How the load generator times its submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arrivals {
    /// Submit, wait for the ticket, pace to the offered rate.
    Closed,
    /// Submit on a fixed-interval schedule regardless of completions.
    OpenFixed,
    /// Submit on a Poisson (exponential inter-arrival) schedule
    /// regardless of completions.
    OpenPoisson,
}

impl Arrivals {
    fn as_str(self) -> &'static str {
        match self {
            Arrivals::Closed => "closed",
            Arrivals::OpenFixed => "open-fixed",
            Arrivals::OpenPoisson => "open-poisson",
        }
    }
}

struct SweepPoint {
    offered_qps: Option<f64>,
    duration: Duration,
    clients: usize,
    arrivals: Arrivals,
}

#[derive(Debug)]
struct SweepResult {
    arrivals: &'static str,
    offered_qps: Option<f64>,
    submitted: u64,
    completed: u64,
    rejected_overload: u64,
    deadline_misses: u64,
    achieved_qps: f64,
    p50_us: f64,
    p99_us: f64,
    mean_batch_size: f64,
    miss_rate: f64,
}

fn print_point(r: &SweepResult) {
    let label = r
        .offered_qps
        .map_or("max".to_string(), |q| format!("{q:.0}"));
    println!(
        "{:>12} offered {label:>5} qps: achieved {:.0} qps, p50 {:.0}us, \
         p99 {:.0}us, mean batch {:.2}, miss rate {:.4}, shed {}",
        r.arrivals,
        r.achieved_qps,
        r.p50_us,
        r.p99_us,
        r.mean_batch_size,
        r.miss_rate,
        r.rejected_overload
    );
}

fn point_json(r: &SweepResult) -> String {
    let offered = r
        .offered_qps
        .map_or("\"max\"".to_string(), |q| format!("{q:.0}"));
    format!(
        "    {{ \"arrivals\": \"{}\", \"offered_qps\": {offered}, \
         \"submitted\": {}, \"completed\": {}, \
         \"rejected_overload\": {}, \"deadline_misses\": {}, \
         \"achieved_qps\": {:.1}, \"p50_us\": {:.1}, \
         \"p99_us\": {:.1}, \"mean_batch_size\": {:.3}, \
         \"deadline_miss_rate\": {:.6} }}",
        r.arrivals,
        r.submitted,
        r.completed,
        r.rejected_overload,
        r.deadline_misses,
        r.achieved_qps,
        r.p50_us,
        r.p99_us,
        r.mean_batch_size,
        r.miss_rate
    )
}

fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e3
}

/// One closed-loop client: submit, wait, pace. The server's speed
/// throttles the client, so overload shows up as reduced throughput.
fn closed_loop_client(
    c: &Coalescer<ScoringSnapshot>,
    point: &SweepPoint,
    interval: Option<Duration>,
    n: NodeId,
    seed: u64,
    who: usize,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xc11e_u64 + who as u64));
    let mut lat: Vec<u64> = Vec::new();
    let start = Instant::now();
    let mut next = start;
    while start.elapsed() < point.duration {
        if let Some(iv) = interval {
            let now = Instant::now();
            if now < next {
                std::thread::sleep(next - now);
            }
            next += iv;
        }
        let (u, v) = pair_for(&mut rng, n);
        let issued = Instant::now();
        match c.submit(u, v) {
            Ok(ticket) => {
                if ticket.wait().is_ok() {
                    lat.push(elapsed_ns(issued));
                }
            }
            Err(Rejection::Overloaded { .. }) => {
                // Shed: closed loop retries next slot.
            }
            Err(_) => {}
        }
    }
    lat
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Stamps every resolved ticket at the front of `pending`, recording
/// the latency of the ones that completed (sheds and expiries do not
/// count). The coalescer retires requests in admission order, so
/// polling only the oldest ticket sees each completion as it lands.
fn take_ready(pending: &mut VecDeque<(Instant, Ticket)>, lat: &mut Vec<u64>) {
    while let Some((issued, ticket)) = pending.front() {
        let Some(outcome) = ticket.try_take() else {
            break;
        };
        if outcome.is_ok() {
            lat.push(elapsed_ns(*issued));
        }
        pending.pop_front();
    }
}

/// One open-loop client: arrivals follow the schedule (fixed interval
/// or exponential inter-arrival times), never the completions, so a
/// backed-up server keeps receiving load — the honest overload model.
/// Between arrivals the client polls its oldest outstanding ticket and
/// stamps each completion when it is first seen; after the arrival
/// window it waits on the rest in order.
fn open_loop_client(
    c: &Coalescer<ScoringSnapshot>,
    point: &SweepPoint,
    interval: Option<Duration>,
    n: NodeId,
    seed: u64,
    who: usize,
) -> Vec<u64> {
    let mean = interval.expect("open-loop arrivals need an offered rate");
    let mut rng = StdRng::seed_from_u64(seed ^ (0x09e4_u64 + who as u64));
    let mut pending: VecDeque<(Instant, Ticket)> = VecDeque::new();
    let mut lat: Vec<u64> = Vec::new();
    let start = Instant::now();
    let mut next = start;
    while start.elapsed() < point.duration {
        loop {
            take_ready(&mut pending, &mut lat);
            let now = Instant::now();
            if now >= next {
                break;
            }
            std::thread::sleep((next - now).min(POLL_INTERVAL));
        }
        next += match point.arrivals {
            Arrivals::OpenPoisson => {
                // Inverse-CDF exponential draw; clamp away from 0 so
                // the schedule always moves forward.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                Duration::from_secs_f64(
                    (-u.ln() * mean.as_secs_f64()).max(1e-9),
                )
            }
            _ => mean,
        };
        let (u, v) = pair_for(&mut rng, n);
        let issued = Instant::now();
        match c.submit(u, v) {
            Ok(ticket) => pending.push_back((issued, ticket)),
            Err(Rejection::Overloaded { .. }) => {
                // Shed at admission: counted by the coalescer stats.
            }
            Err(_) => {}
        }
    }
    for (issued, ticket) in pending {
        if ticket.wait().is_ok() {
            lat.push(elapsed_ns(issued));
        }
    }
    lat
}

fn run_point(
    snapshot: &ScoringSnapshot,
    point: &SweepPoint,
    threads: usize,
    seed: u64,
) -> SweepResult {
    let c = Coalescer::new(snapshot.clone(), coalesce_config(threads));
    let worker = {
        let c = c.clone();
        std::thread::spawn(move || c.run_worker())
    };
    let n = snapshot.graph().node_count() as NodeId;
    let interval = point
        .offered_qps
        .map(|qps| Duration::from_secs_f64(point.clients as f64 / qps));
    assert!(
        interval.is_some() || point.arrivals == Arrivals::Closed,
        "open-loop arrivals need an offered rate"
    );
    let t0 = Instant::now();
    let latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..point.clients)
            .map(|who| {
                let c = c.clone();
                s.spawn(move || match point.arrivals {
                    Arrivals::Closed => {
                        closed_loop_client(&c, point, interval, n, seed, who)
                    }
                    Arrivals::OpenFixed | Arrivals::OpenPoisson => {
                        open_loop_client(&c, point, interval, n, seed, who)
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().expect("client panicked"));
        }
        all
    });
    let elapsed = t0.elapsed().as_secs_f64();
    c.shutdown();
    worker.join().expect("worker panicked");
    let stats = c.stats();
    assert_eq!(
        stats.accepted + stats.rejected(),
        stats.submitted,
        "admission counters must reconcile"
    );
    assert_eq!(
        stats.completed + stats.expired,
        stats.accepted,
        "every admitted request must resolve"
    );
    let mut sorted = latencies;
    sorted.sort_unstable();
    SweepResult {
        arrivals: point.arrivals.as_str(),
        offered_qps: point.offered_qps,
        submitted: stats.submitted,
        completed: stats.completed,
        rejected_overload: stats.rejected_overload,
        deadline_misses: stats.deadline_misses(),
        achieved_qps: stats.completed as f64 / elapsed.max(1e-9),
        p50_us: quantile_us(&sorted, 0.50),
        p99_us: quantile_us(&sorted, 0.99),
        mean_batch_size: stats.mean_batch_size(),
        miss_rate: if stats.submitted == 0 {
            0.0
        } else {
            stats.deadline_misses() as f64 / stats.submitted as f64
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut seed = 7u64;
    let mut out_path = String::from("BENCH_serving_slo.json");
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
    println!("{cores} core(s) available");
    let p = fitted_predictor(smoke, seed);
    let n_pairs_probe = if smoke { 200 } else { 600 };

    // --- Correctness first: coalesced == direct, bit for bit. ---
    let bit_identical = check_bit_identity(&p, seed);
    assert!(bit_identical, "coalesced scores diverged from score_batch");
    println!("bit-identity: coalesced == score_batch on 200 pairs");

    // --- Baselines: serial per-pair and the warm-batch ceiling. ---
    let n = p.network().node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
    let probe: Vec<(NodeId, NodeId)> =
        (0..n_pairs_probe).map(|_| pair_for(&mut rng, n)).collect();
    let snapshot = p.snapshot();
    let t0 = Instant::now();
    for &(u, v) in &probe {
        let _ = snapshot.score(u, v);
    }
    let per_pair_qps =
        probe.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let snapshot = p.snapshot();
    let t0 = Instant::now();
    let _ = snapshot.score_batch(&probe);
    let warm_batch_qps =
        probe.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    println!(
        "baselines: per-pair {per_pair_qps:.0} pairs/s, \
         warm batch {warm_batch_qps:.0} pairs/s"
    );

    // --- The sweep: paced points, then an unpaced saturation point. ---
    let worker_threads = cores.clamp(1, 4);
    let clients = if smoke { 3 } else { 4 };
    let duration = if smoke {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(2)
    };
    let offered: Vec<Option<f64>> = if smoke {
        vec![Some(100.0), None]
    } else {
        vec![Some(200.0), Some(1000.0), Some(5000.0), None]
    };
    let mut sweep: Vec<SweepResult> = Vec::new();
    for offered_qps in offered {
        let point = SweepPoint {
            offered_qps,
            duration,
            clients,
            arrivals: Arrivals::Closed,
        };
        let r = run_point(&p.snapshot(), &point, worker_threads, seed);
        print_point(&r);
        sweep.push(r);
    }

    // --- Open-loop points: fixed-rate and Poisson arrivals at a
    // sustainable rate, then a deliberate overload (an offered rate far
    // above the per-pair ceiling) where sheds and deadline misses are
    // the expected, measured outcome. ---
    let sustainable = (per_pair_qps * 0.5).clamp(50.0, 2000.0);
    let overload = (per_pair_qps * 4.0).max(2000.0);
    let open_points: Vec<(Arrivals, f64)> = if smoke {
        vec![
            (Arrivals::OpenFixed, sustainable),
            (Arrivals::OpenPoisson, overload),
        ]
    } else {
        vec![
            (Arrivals::OpenFixed, sustainable),
            (Arrivals::OpenPoisson, sustainable),
            (Arrivals::OpenFixed, overload),
            (Arrivals::OpenPoisson, overload),
        ]
    };
    let mut open_sweep: Vec<SweepResult> = Vec::new();
    for (arrivals, qps) in open_points {
        let point = SweepPoint {
            offered_qps: Some(qps),
            duration,
            clients,
            arrivals,
        };
        let r = run_point(&p.snapshot(), &point, worker_threads, seed);
        print_point(&r);
        open_sweep.push(r);
    }
    let overload_shed: u64 =
        open_sweep.iter().map(|r| r.rejected_overload).sum();
    let overload_point =
        open_sweep.last().expect("open-loop sweep is non-empty");
    println!(
        "open-loop overload ({} at {:.0} qps offered): shed {} at \
         admission, deadline miss rate {:.4}",
        overload_point.arrivals,
        overload_point.offered_qps.unwrap_or(0.0),
        overload_point.rejected_overload,
        overload_point.miss_rate,
    );

    let sustained_at = |limit_us: f64| {
        sweep
            .iter()
            .filter(|r| r.p99_us < limit_us && r.completed > 0)
            .map(|r| r.achieved_qps)
            .fold(0.0f64, f64::max)
    };
    // The headline SLO plus a relaxed companion: on a starved host the
    // p99 can sit just above 1ms at every point (scheduler jitter, not
    // scoring cost) and the 1ms figure reads 0 — the 5ms figure keeps
    // the checked-in single-core run informative.
    let sustained = sustained_at(1_000.0);
    let sustained_5ms = sustained_at(5_000.0);
    println!(
        "sustained QPS: {sustained:.0} at p99 < 1ms, \
         {sustained_5ms:.0} at p99 < 5ms"
    );
    let trivial_miss_rate = sweep.first().map_or(0.0, |r| r.miss_rate);
    let top = sweep.last().expect("sweep is non-empty");
    // Cores-conditioned batching target: the unpaced coalesced path
    // must at least match the serial per-pair path. Below 4 cores the
    // clients/worker/scorer all contend for the same core and the
    // comparison measures the scheduler, not the coalescer.
    let target_speedup_met = if cores < 4 {
        "\"unmeasurable\"".to_string()
    } else {
        (top.achieved_qps >= per_pair_qps).to_string()
    };
    let batching_gain = top.achieved_qps / per_pair_qps.max(1e-9);
    println!(
        "unpaced coalesced throughput {:.0} qps = {batching_gain:.2}x \
         the per-pair path (target met: {target_speedup_met})",
        top.achieved_qps
    );

    let sweep_json: Vec<String> = sweep.iter().map(point_json).collect();
    let open_json: Vec<String> = open_sweep.iter().map(point_json).collect();
    let json = format!(
        "{{\n  \"schema\": \"ssf.bench.serving_slo.v2\",\n  \
         \"smoke\": {smoke},\n  \"seed\": {seed},\n  \
         \"available_parallelism\": {cores},\n  \
         \"worker_threads\": {worker_threads},\n  \
         \"clients\": {clients},\n  \
         \"deadline_budget_ms\": {},\n  \
         \"phase_duration_ms\": {},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"counters_reconcile\": true,\n  \
         \"per_pair_qps\": {per_pair_qps:.1},\n  \
         \"warm_batch_qps\": {warm_batch_qps:.1},\n  \
         \"sweep\": [\n{}\n  ],\n  \
         \"open_loop\": [\n{}\n  ],\n  \
         \"open_loop_overload_shed\": {overload_shed},\n  \
         \"open_loop_overload_miss_rate\": {:.6},\n  \
         \"sustained_qps_p99_under_1ms\": {sustained:.1},\n  \
         \"sustained_qps_p99_under_5ms\": {sustained_5ms:.1},\n  \
         \"deadline_miss_rate_at_trivial_load\": {trivial_miss_rate:.6},\n  \
         \"batching_gain_vs_per_pair\": {batching_gain:.3},\n  \
         \"target_speedup_met\": {target_speedup_met}\n}}\n",
        DEADLINE_BUDGET.as_millis(),
        duration.as_millis(),
        sweep_json.join(",\n"),
        open_json.join(",\n"),
        overload_point.miss_rate,
    );
    fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
