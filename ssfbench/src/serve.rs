//! `serve_uniform` and `serve_hot`: one fitted snapshot behind a
//! coalescer, driven open-loop at a fixed at-rate and a fixed overload
//! rate.
//!
//! Set-up replays the split's history into a durable predictor, fits it
//! once and publishes the snapshot. The at-rate phase gives the query
//! latency, the overload phase the goodput. At the end the predictor
//! checkpoints and is reopened from disk (`recover_s`); the replica must
//! score bit-identically to the served snapshot.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, PoisonError};
use std::time::Instant;

use ssf_repro::dyngraph::{GraphView, NodeId};
use ssf_repro::obs::{ObsHandle, Registry};
use ssf_repro::{
    BatchScorer, CoalesceStats, Coalescer, OnlineLinkPredictor, ScoringSnapshot,
};

use crate::config;
use crate::layers::{self, span_ns, CoreReplay};
use crate::openloop::{self, BatchLog, Outcome, Sample, Timed};
use crate::pairs::{self, PairGen};
use crate::report::{obj, Json};
use crate::setup::{self, elapsed_ns, IngestLog, Trace, WorkDir};
use crate::stats::{self, Dist};
use crate::{Options, RunResult, Workload};

/// Arrivals start this long after the phase clock, once the coalescer's
/// worker is running.
const START_NS: u64 = 1_000_000;

/// One set-up: generate, split, ingest, fit, publish.
struct Built {
    trace: Trace,
    snap: ScoringSnapshot,
    dir: Option<PathBuf>,
    setup_s: f64,
    ingest: IngestLog,
    ingest_s: f64,
    /// Each ingest chunk of [`config::INGEST_CHUNK`] events, in order.
    ingest_chunk_ns: Vec<u64>,
    /// Every explicit fit; the first is part of set-up.
    fit_s: Vec<f64>,
    publish_us: f64,
}

/// Sets up a predictor and publishes its snapshot, then refits it
/// `fits - 1` more times (outside `setup_s`) for more fit timings.
fn build(
    opts: &Options,
    dirs: &mut WorkDir,
    durable: bool,
    obs: ObsHandle,
    fits: usize,
) -> Result<(Built, OnlineLinkPredictor), String> {
    let start = Instant::now();
    let trace = setup::trace(opts.seed, opts.scale)?;
    let cfg = config::serve_predictor(opts.seed);
    let (mut p, dir) = if durable {
        let dir = dirs.fresh();
        (setup::open_durable(&cfg, &dir, obs)?, Some(dir))
    } else {
        (OnlineLinkPredictor::with_recorder(cfg, obs), None)
    };
    let mut ingest = IngestLog::default();
    let mut ingest_chunk_ns = Vec::new();
    let t = Instant::now();
    for chunk in trace.events.chunks(config::INGEST_CHUNK) {
        let c = Instant::now();
        for &event in chunk {
            ingest.observe(&mut p, event);
        }
        ingest_chunk_ns.push(elapsed_ns(c));
    }
    let ingest_s = t.elapsed().as_secs_f64();
    let mut fit_s = vec![timed_fit(&mut p)?];
    let t = Instant::now();
    let snap = p.snapshot();
    let publish_us = t.elapsed().as_nanos() as f64 / 1e3;
    let setup_s = start.elapsed().as_secs_f64();
    for _ in 1..fits {
        fit_s.push(timed_fit(&mut p)?);
    }
    let built = Built {
        trace,
        snap,
        dir,
        setup_s,
        ingest,
        ingest_s,
        ingest_chunk_ns,
        fit_s,
        publish_us,
    };
    Ok((built, p))
}

/// Seconds one explicit fit takes.
fn timed_fit(p: &mut OnlineLinkPredictor) -> Result<f64, String> {
    let t = Instant::now();
    p.try_refit().map_err(|e| format!("fit: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// One open-loop phase at a fixed rate.
struct Phase {
    name: &'static str,
    rate: f64,
    duration_ns: u64,
    samples: Vec<Sample>,
    stats: CoalesceStats,
    /// Dispatched batches; empty unless the phase was traced.
    batches: Vec<BatchLog>,
}

fn drive<S: BatchScorer>(
    scorer: S,
    t0: Instant,
    due: &[u64],
    pairs: &[(NodeId, NodeId)],
) -> Result<(Vec<Sample>, CoalesceStats), String> {
    let c = Coalescer::new(scorer, config::coalescer());
    let samples = std::thread::scope(|s| {
        let worker = s.spawn(|| c.run_worker());
        let out = openloop::run(&c, t0, due, pairs);
        c.shutdown();
        match worker.join() {
            Ok(()) => out,
            Err(_) => Err("coalescer worker panicked".to_string()),
        }
    })?;
    Ok((samples, c.stats()))
}

fn run_phase(
    snap: &ScoringSnapshot,
    name: &'static str,
    rate: f64,
    seconds: f64,
    gen: &mut PairGen,
    seed: u64,
    traced: bool,
) -> Result<Phase, String> {
    let duration_ns = (seconds * 1e9) as u64;
    let due: Vec<u64> = pairs::poisson_schedule(seed, rate, duration_ns)
        .into_iter()
        .map(|t| t + START_NS)
        .collect();
    let pairs = gen.take(due.len());
    let t0 = Instant::now();
    let (samples, stats, batches) = if traced {
        let (scorer, log) = Timed::new(snap.clone(), t0);
        let (samples, stats) = drive(scorer, t0, &due, &pairs)?;
        let batches = std::mem::take(
            &mut *log.lock().unwrap_or_else(PoisonError::into_inner),
        );
        (samples, stats, batches)
    } else {
        let (samples, stats) = drive(snap.clone(), t0, &due, &pairs)?;
        (samples, stats, Vec::new())
    };
    Ok(Phase {
        name,
        rate,
        duration_ns,
        samples,
        stats,
        batches,
    })
}

impl Phase {
    fn count(&self, f: impl Fn(&Outcome) -> bool) -> u64 {
        self.samples.iter().filter(|s| f(&s.outcome)).count() as u64
    }

    fn succeeded(&self) -> u64 {
        self.count(Outcome::scored)
    }

    fn failed(&self) -> u64 {
        self.samples.len() as u64 - self.succeeded()
    }

    fn latency(&self) -> Dist {
        latency(&self.samples)
    }

    fn lateness(&self) -> Dist {
        let us: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.sent_ns.saturating_sub(s.due_ns) as f64 / 1e3)
            .collect();
        Dist::of(&us, 99.0)
    }

    /// Median latency of each [`config::LATENCY_WINDOW`] consecutive
    /// requests (in send order) that hold a scored one.
    fn latency_windows(&self) -> Vec<f64> {
        self.samples
            .chunks(config::LATENCY_WINDOW)
            .map(|w| latency(w).p50)
            .filter(|p50| !p50.is_nan())
            .collect()
    }

    /// The rate of each whole group of [`config::GOODPUT_GROUP`]
    /// consecutive scores seen within the arrival window: the group's
    /// size over the time since the previous group's last score (the
    /// whole window's rate when no group fits).
    fn goodput_groups(&self) -> Vec<f64> {
        let end = START_NS + self.duration_ns;
        let mut done: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.outcome.scored() && s.done_ns < end)
            .map(|s| s.done_ns)
            .collect();
        done.sort_unstable();
        let rates: Vec<f64> = done
            .chunks_exact(config::GOODPUT_GROUP)
            .scan(START_NS, |prev, group| {
                let last = group[group.len() - 1];
                let ns = last.saturating_sub(*prev).max(1);
                *prev = last;
                Some(group.len() as f64 / (ns as f64 / 1e9))
            })
            .collect();
        if rates.is_empty() {
            vec![self.goodput()]
        } else {
            rates
        }
    }

    /// Scores seen within the arrival window, per second.
    fn goodput(&self) -> f64 {
        let end = START_NS + self.duration_ns;
        let done = self
            .samples
            .iter()
            .filter(|s| s.outcome.scored() && s.done_ns < end)
            .count();
        done as f64 / (self.duration_ns as f64 / 1e9)
    }

    /// `CoalesceStats` against what the generator saw.
    fn reconcile(&self) -> Result<(), String> {
        let s = &self.stats;
        let shed = self.count(|o| *o == Outcome::Shed);
        let expired = self.count(|o| *o == Outcome::Expired);
        let scored = self.count(|o| matches!(o, Outcome::Scored(_)));
        let checks = [
            ("submitted", s.submitted, self.samples.len() as u64),
            (
                "accepted + rejected",
                s.accepted + s.rejected(),
                s.submitted,
            ),
            ("completed + expired", s.completed + s.expired, s.accepted),
            ("rejected_overload", s.rejected_overload, shed),
            ("deadline misses", s.deadline_misses(), expired),
            ("completed", s.completed, scored),
            ("queue_depth", s.queue_depth as u64, 0),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{}: {what} {got} != {want}", self.name));
            }
        }
        if !self.batches.is_empty() {
            let pairs: usize = self.batches.iter().map(|b| b.pairs.len()).sum();
            if self.batches.len() as u64 != s.batches || pairs as u64 != scored
            {
                return Err(format!("{}: traced batches disagree", self.name));
            }
        }
        Ok(())
    }

    fn detail(&self) -> Json {
        let lat = self.latency();
        let late = self.lateness();
        obj([
            ("phase", Json::from(self.name)),
            ("rate_per_s", self.rate.into()),
            ("seconds", (self.duration_ns as f64 / 1e9).into()),
            ("sent", self.samples.len().into()),
            ("succeeded", self.succeeded().into()),
            ("failed", self.failed().into()),
            ("shed", self.count(|o| *o == Outcome::Shed).into()),
            ("expired", self.count(|o| *o == Outcome::Expired).into()),
            (
                "unscored",
                self.count(|o| *o == Outcome::Scored(None)).into(),
            ),
            ("latency_samples", lat.n.into()),
            ("latency_p50_us", lat.p50.into()),
            ("latency_tail_pct", lat.tail_pct.into()),
            ("latency_tail_us", lat.tail.into()),
            ("latency_beyond_tail", lat.tail_beyond.into()),
            ("late_p50_us", late.p50.into()),
            ("late_tail_pct", late.tail_pct.into()),
            ("late_tail_us", late.tail.into()),
            ("goodput_pairs_per_s", self.goodput().into()),
            ("batches", self.stats.batches.into()),
            ("mean_batch_size", self.stats.mean_batch_size().into()),
        ])
    }
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// Latency from scheduled send to completion seen, of scored requests.
fn latency(samples: &[Sample]) -> Dist {
    let us: Vec<f64> = samples
        .iter()
        .filter(|s| s.outcome.scored())
        .map(|s| s.latency_ns() as f64 / 1e3)
        .collect();
    Dist::of(&us, 99.0)
}

/// Checks every scored request against `ScoringSnapshot::score` on the
/// same pair, bit for bit. Repeated pairs must also agree with each
/// other; distinct pairs are verified on two threads, after the load.
fn check_scores(
    snap: &ScoringSnapshot,
    phases: &[&Phase],
) -> Result<(), String> {
    let mut claims: HashMap<(NodeId, NodeId), Option<u64>> = HashMap::new();
    for phase in phases {
        for s in &phase.samples {
            let Outcome::Scored(score) = s.outcome else {
                continue;
            };
            let bits = score.map(f64::to_bits);
            if *claims.entry(s.pair).or_insert(bits) != bits {
                return Err(format!(
                    "{}: {:?} was scored two ways",
                    phase.name, s.pair
                ));
            }
        }
    }
    let claims: Vec<_> = claims.into_iter().collect();
    let chunk = claims.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let verifiers: Vec<_> = claims
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .find(|&&((u, v), bits)| {
                            snap.score(u, v).map(f64::to_bits) != bits
                        })
                        .map(|&(pair, _)| pair)
                })
            })
            .collect();
        for v in verifiers {
            if let Some(pair) = v.join().map_err(|_| "a verifier panicked")? {
                return Err(format!(
                    "coalesced score of {pair:?} differs from score()"
                ));
            }
        }
        Ok(())
    })
}

/// Coalescer figures from a traced at-rate and overload phase.
struct CoalesceLayer {
    queue_wait: Dist,
    unattributed_frac: f64,
    batch_size_mean: f64,
    busy_frac: f64,
    us_per_pair: f64,
    shed_frac: f64,
    expired_frac: f64,
}

impl CoalesceLayer {
    fn measure(at: &Phase, over: &Phase) -> Result<Self, String> {
        let matched = openloop::match_fifo(&at.samples, &at.batches)?;
        let mut wait_us = Vec::new();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, b) in at.samples.iter().zip(&matched) {
            let Some(b) = b else { continue };
            let batch = &at.batches[*b];
            wait_us.push(batch.start_ns.saturating_sub(s.due_ns) as f64 / 1e3);
            total += s.latency_ns();
            covered +=
                batch.end_ns.saturating_sub(s.due_ns).min(s.latency_ns());
        }
        openloop::match_fifo(&over.samples, &over.batches)?;
        let busy: u64 =
            over.batches.iter().map(|b| b.end_ns - b.start_ns).sum();
        let pairs: usize = over.batches.iter().map(|b| b.pairs.len()).sum();
        let span = over
            .batches
            .last()
            .map_or(1, |b| b.end_ns.saturating_sub(START_NS));
        let submitted = over.stats.submitted.max(1) as f64;
        Ok(CoalesceLayer {
            queue_wait: Dist::of(&wait_us, 99.0),
            unattributed_frac: 1.0 - covered as f64 / total.max(1) as f64,
            batch_size_mean: over.stats.mean_batch_size(),
            busy_frac: busy as f64 / span.max(1) as f64,
            us_per_pair: busy as f64 / pairs.max(1) as f64 / 1e3,
            shed_frac: over.stats.rejected_overload as f64 / submitted,
            expired_frac: over.stats.deadline_misses() as f64 / submitted,
        })
    }

    fn detail(&self, late: &Dist) -> Json {
        obj([
            (
                "coalesce.queue_wait_p50_us",
                Json::from(self.queue_wait.p50),
            ),
            ("coalesce.queue_wait_p99_us", self.queue_wait.tail.into()),
            (
                "coalesce.queue_wait_tail_pct",
                self.queue_wait.tail_pct.into(),
            ),
            ("coalesce.queue_wait_samples", self.queue_wait.n.into()),
            ("coalesce.batch_size_mean", self.batch_size_mean.into()),
            ("coalesce.busy_frac", self.busy_frac.into()),
            ("coalesce.shed_frac", self.shed_frac.into()),
            ("coalesce.expired_frac", self.expired_frac.into()),
            ("gen.late_p99_us", late.tail.into()),
            ("gen.late_tail_pct", late.tail_pct.into()),
        ])
    }
}

/// One round: set up, serve at rate, then overload, then checkpoint
/// and reopen the predictor from disk.
struct Round {
    traced: bool,
    setup_s: f64,
    generate_s: f64,
    ingest_events: u64,
    ingest_s: f64,
    ingest_chunk_ns: Vec<u64>,
    fit_s: Vec<f64>,
    publish_us: f64,
    auc: (f64, usize),
    latency: Dist,
    latency_windows: Vec<f64>,
    goodput: f64,
    goodput_groups: Vec<f64>,
    at_sent: u64,
    at_failed: u64,
    phases: Json,
    /// The set-up and both phases, kept for the traced round only.
    kept: Option<(Built, Phase, Phase)>,
    degraded: u64,
    checkpoint_ms: f64,
    recover_s: Vec<f64>,
    replayed_records: u64,
    snapshot_load_ms: f64,
    /// Pairs the bit-identity gates score.
    fixed: Vec<(NodeId, NodeId)>,
}

fn round(
    opts: &Options,
    dirs: &mut WorkDir,
    traced: bool,
    seconds: f64,
    inputs: u64,
    gates: &mut Vec<String>,
) -> Result<Round, String> {
    let (b, mut p) =
        build(opts, dirs, true, ObsHandle::noop(), config::FIT_REPS)?;
    let auc = setup::snapshot_auc(&b.trace.split, &b.snap)?;
    let n = b.snap.graph().node_count() as NodeId;
    let mut gen = match opts.workload {
        Workload::ServeHot => PairGen::zipf(
            inputs ^ 0x9a17,
            pairs::hot_set(n, config::HOT_SET_SIZE, config::HOT_SET_SEED),
            config::ZIPF_S,
        ),
        _ => PairGen::uniform(inputs ^ 0x9a17, n),
    };
    let at = run_phase(
        &b.snap,
        "at_rate",
        config::AT_RATE_PER_S,
        seconds * config::AT_RATE_SHARE,
        &mut gen,
        inputs ^ 0xa7,
        traced,
    )?;
    let over = run_phase(
        &b.snap,
        "overload",
        config::OVERLOAD_PER_S,
        seconds * (1.0 - config::AT_RATE_SHARE),
        &mut gen,
        inputs ^ 0x0f,
        traced,
    )?;
    let degraded = b.snap.degraded_scores();
    for phase in [&at, &over] {
        if let Err(e) = phase.reconcile() {
            gates.push(e);
        }
    }
    if let Err(e) = check_scores(&b.snap, &[&at, &over]) {
        gates.push(e);
    }

    let dir = b.dir.clone().ok_or("the served predictor is not durable")?;
    let t = Instant::now();
    let checkpoint = p.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(p); // the directory's only WAL writer
    let cfg = config::serve_predictor(opts.seed);
    let snap = &b.snap;
    let (replica, report, recover_s) =
        setup::recover(&cfg, &dir, config::RECOVER_REPS)?;
    let mut fixed = PairGen::uniform(opts.seed ^ 0xc0c0, n).take(256);
    fixed.extend(
        setup::scoreable_test(&b.trace.split, snap)
            .0
            .into_iter()
            .take(256),
    );
    if let Err(e) =
        setup::same_scores("recovered", snap, &replica.snapshot(), &fixed)
    {
        gates.push(e);
    }
    drop(replica);
    let t = Instant::now();
    let loaded = ScoringSnapshot::load(&checkpoint)
        .map_err(|e| format!("load {}: {e}", checkpoint.display()))?;
    let snapshot_load_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = setup::same_scores("loaded", snap, &loaded, &fixed) {
        gates.push(e);
    }
    Ok(Round {
        traced,
        setup_s: b.setup_s,
        generate_s: b.trace.generate_s,
        ingest_events: b.trace.events.len() as u64,
        ingest_s: b.ingest_s,
        ingest_chunk_ns: b.ingest_chunk_ns.clone(),
        fit_s: b.fit_s.clone(),
        publish_us: b.publish_us,
        auc,
        latency: at.latency(),
        latency_windows: at.latency_windows(),
        goodput: over.goodput(),
        goodput_groups: over.goodput_groups(),
        at_sent: at.samples.len() as u64,
        at_failed: at.failed(),
        phases: Json::Arr(vec![at.detail(), over.detail()]),
        // Everything else is dropped now, so rounds reuse memory
        // instead of faulting in more.
        kept: traced.then_some((b, at, over)),
        degraded,
        checkpoint_ms,
        recover_s,
        replayed_records: report.records_replayed,
        snapshot_load_ms,
        fixed,
    })
}

/// Runs `serve_uniform` or `serve_hot`: [`config::ROUNDS`] untraced
/// rounds, or in trace mode one untraced and one traced round.
///
/// # Errors
///
/// Set-up, phase or recovery failures.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut dirs = WorkDir::new(opts.workload.name())?;
    let mut gates: Vec<String> = Vec::new();
    let count = if opts.trace { 2 } else { config::ROUNDS };
    let mut rounds = Vec::with_capacity(count);
    for i in 0..count {
        let traced = opts.trace && i == 1;
        // Each untraced round draws its own arrivals and pairs, so no
        // figure hangs on one draw; the traced round repeats the
        // untraced one's inputs.
        let inputs = if opts.trace {
            opts.seed
        } else {
            opts.seed ^ ((i as u64) << 40)
        };
        rounds.push(round(
            opts,
            &mut dirs,
            traced,
            opts.seconds / count as f64,
            inputs,
            &mut gates,
        )?);
    }
    if rounds
        .iter()
        .any(|r| r.auc.0.to_bits() != rounds[0].auc.0.to_bits())
    {
        gates.push("rounds of one seed fitted different models".into());
    }
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let attempted: u64 = untraced.iter().map(|r| r.at_sent).sum();
    let failed: u64 = untraced.iter().map(|r| r.at_failed + r.degraded).sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> Vec<f64> {
        untraced.iter().map(|r| f(r)).collect()
    };
    let mut detail = vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", opts.seed.into()),
        ("config", config::describe(opts.scale)),
        ("history_events", rounds[0].ingest_events.into()),
        ("auc_pairs", rounds[0].auc.1.into()),
        (
            "rounds",
            Json::Arr(rounds.iter().map(Round::detail).collect()),
        ),
    ];

    if !opts.trace {
        let tail = per_round(&|r| r.latency.tail);
        detail.push(("query_p99_us", stats::median(&tail).into()));
    }
    let values: Vec<(&'static str, f64)> = if !opts.trace {
        // Every timing but `setup_s` is the fast end of many short
        // windows pooled over the rounds: on a shared host the noise is
        // one-sided and comes in bursts that can cover most of a round,
        // which moves a median (see README).
        let pooled = |f: &dyn Fn(&Round) -> &[f64]| -> Vec<f64> {
            untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let chunks: Vec<&[u64]> =
            untraced.iter().map(|r| &r.ingest_chunk_ns[..]).collect();
        let ingest_ns: u64 = stats::best_steps(&chunks)?.iter().sum();
        vec![
            ("setup_s", stats::median(&per_round(&|r| r.setup_s))),
            (
                "query_p50_us",
                stats::fast_time(&pooled(&|r| &r.latency_windows)),
            ),
            (
                "goodput_pairs_per_s",
                stats::fast_rate(&pooled(&|r| &r.goodput_groups)),
            ),
            ("auc", rounds[0].auc.0),
            (
                "ingest_events_per_s",
                rounds[0].ingest_events as f64 / (ingest_ns as f64 / 1e9),
            ),
            (
                "refit_p50_ms",
                stats::fast_time(&pooled(&|r| &r.fit_s)) * 1e3,
            ),
            ("recover_s", stats::fast_time(&pooled(&|r| &r.recover_s))),
            ("peak_rss_mb", setup::peak_rss_mb()),
        ]
    } else {
        let (base, traced) = (&rounds[0], &rounds[1]);
        let (b, at, over) = traced
            .kept
            .as_ref()
            .ok_or("the traced round kept nothing")?;
        let coalesce = CoalesceLayer::measure(at, over)?;
        let snap = &b.snap;
        let present = snap.present().ok_or("the snapshot has no present")?;
        let method = config::method(opts.seed);
        let mut replay = CoreReplay::new(&method);
        for batch in &over.batches {
            replay.add(snap.graph(), present, &batch.pairs)?;
        }
        let core = replay.finish();
        // The WAL's share: the same history into an in-memory predictor.
        let (memory, _) =
            build(opts, &mut dirs, false, ObsHandle::noop(), 1)?;
        if let Err(e) =
            setup::same_scores("in-memory", snap, &memory.snap, &traced.fixed)
        {
            gates.push(e);
        }
        // Refit internals: the same set-up with a recorder attached.
        let registry = Arc::new(Registry::new());
        build(
            opts,
            &mut dirs,
            false,
            ObsHandle::of_registry(Arc::clone(&registry)),
            1,
        )?;
        let spans = registry.snapshot();
        let fits = spans
            .histogram("ssf.model.fit")
            .map_or(0, |h| h.count())
            .max(1);
        let per_fit_ms = |ns: u64| ns as f64 / fits as f64 / 1e6;
        let frozen = snap.graph().base();
        detail.push(("coalesce", coalesce.detail(&at.lateness())));
        detail.push(("core", core.detail()));
        vec![
            ("serve.us_per_pair", coalesce.us_per_pair),
            ("serve.publish_us", b.publish_us),
            ("core.cache_hit_rate", core.hit_rate),
            ("core.cache_lookups", core.lookups as f64),
            ("core.ball_us", core.ball_us),
            ("core.structure_us", core.structure_us),
            ("core.wl_us", core.wl_us),
            ("core.encode_us", core.encode_us),
            ("core.pair_us", core.pair_us),
            ("core.kgrowth_rounds", core.kgrowth_rounds),
            ("core.extract_p50_us", core.extract.p50),
            ("core.extract_p99_us", core.extract.tail),
            ("core.ball_nodes_p50", core.ball_nodes.p50),
            ("core.ball_nodes_p99", core.ball_nodes.tail),
            ("ml.forward_us", layers::forward_us(&method)),
            ("ml.train_ms", per_fit_ms(span_ns(&spans, "ssf.ml.fit"))),
            (
                "model.fit_extract_ms",
                per_fit_ms(span_ns(&spans, "ssf.model.extract")),
            ),
            (
                "eval.split_ms",
                per_fit_ms(
                    span_ns(&spans, "ssf.stream.refit")
                        .saturating_sub(span_ns(&spans, "ssf.model.fit")),
                ),
            ),
            (
                "stream.observe_p50_us",
                stats::median(&stats::us(&b.ingest.plain_ns)),
            ),
            (
                "stream.refit_share",
                b.fit_s[0] / (b.ingest_s + b.fit_s[0]),
            ),
            ("stream.compactions", b.ingest.compact_ns.len() as f64),
            (
                "stream.compact_ms_total",
                b.ingest.compact_ns.iter().sum::<u64>() as f64 / 1e6,
            ),
            (
                "stream.expired_links",
                spans.counter("ssf.stream.expired_links") as f64,
            ),
            (
                "dyngraph.frozen_bytes_per_link",
                frozen.heap_bytes() as f64 / frozen.link_count().max(1) as f64,
            ),
            (
                "persist.wal_us_per_event",
                stats::mean(&stats::us(&b.ingest.plain_ns))
                    - stats::mean(&stats::us(&memory.ingest.plain_ns)),
            ),
            ("persist.checkpoint_ms", traced.checkpoint_ms),
            ("persist.replayed_records", traced.replayed_records as f64),
            ("persist.snapshot_load_ms", traced.snapshot_load_ms),
            ("datasets.generate_s", b.trace.generate_s),
            ("unattributed_frac", coalesce.unattributed_frac),
            ("failed_frac", failed as f64 / attempted.max(1) as f64),
            ("trace.overhead_frac", 1.0 - traced.goodput / base.goodput),
        ]
    };
    Ok(RunResult {
        attempted,
        failed,
        values,
        detail: Json::Obj(
            detail
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ),
        gate_failures: gates,
    })
}

impl Round {
    fn ingest_per_s(&self) -> f64 {
        self.ingest_events as f64 / self.ingest_s
    }

    fn detail(&self) -> Json {
        obj([
            ("traced", Json::from(self.traced)),
            ("setup_s", self.setup_s.into()),
            ("generate_s", self.generate_s.into()),
            ("ingest_events_per_s", self.ingest_per_s().into()),
            ("fit_ms", nums(self.fit_s.iter().map(|s| s * 1e3))),
            ("publish_us", self.publish_us.into()),
            ("auc", self.auc.0.into()),
            ("degraded_scores", self.degraded.into()),
            ("checkpoint_ms", self.checkpoint_ms.into()),
            ("recover_s", nums(self.recover_s.iter().copied())),
            ("replayed_records", self.replayed_records.into()),
            ("snapshot_load_ms", self.snapshot_load_ms.into()),
            ("phases", self.phases.clone()),
        ])
    }
}
