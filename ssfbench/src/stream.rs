//! `stream_window`: one thread replays the history in timestamp order,
//! as fast as it can, into a durable windowed predictor that refits
//! inline. After each tick it publishes a snapshot and scores a fixed
//! number of fresh pairs anchored on that tick's endpoints; every
//! [`config::CHECKPOINT_EVERY`] ticks it checkpoints. At the end it
//! drops the predictor and times `OnlineLinkPredictor::open` on the
//! directory. Writes sit beside reads: mutation, expiry, compaction, the
//! WAL, refits and a cold snapshot on every tick.
//!
//! A run replays the trace as many times as `--seconds` allows (each
//! replay in a fresh directory). Every replay of a seed takes the same
//! steps, so a timing figure composes each tick's (or refit's) fastest
//! replay: a slow burst on a shared host has to hit the same step in
//! every replay to move it.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ssf_repro::dyngraph::{GraphView, NodeId, Timestamp};
use ssf_repro::obs::{ObsHandle, Registry};
use ssf_repro::{OnlineLinkPredictor, OnlinePredictorConfig, ScoringSnapshot};

use crate::config;
use crate::layers::{self, span_ns, CoreLayer, CoreReplay};
use crate::pairs::{PairGen, Rng};
use crate::report::{obj, Json};
use crate::setup::{self, elapsed_ns, IngestLog, Trace, WorkDir};
use crate::stats::{self, Dist};
use crate::{Options, RunResult};

/// Index ranges of `events` sharing one timestamp, in order.
fn ticks(events: &[(NodeId, NodeId, Timestamp)]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=events.len() {
        if i == events.len() || events[i].2 != events[start].2 {
            out.push((start, i));
            start = i;
        }
    }
    out
}

/// How one replay ran.
struct Replay {
    durable: bool,
    wall_s: f64,
    ingest: IngestLog,
    publish_ns: Vec<u64>,
    score_ns: u64,
    /// Wall time of each tick (observe, publish, score, checkpoint).
    tick_ns: Vec<u64>,
    /// `score_batch` time of each queried tick.
    score_tick_ns: Vec<u64>,
    /// `snapshot()` plus `score_batch` of each queried tick.
    query_ns: Vec<u64>,
    queried_ticks: u64,
    fresh: u64,
    fresh_failed: u64,
    checkpoint_ns: Vec<u64>,
    /// The newest checkpoint and the snapshot published just before it.
    last_checkpoint: Option<(PathBuf, ScoringSnapshot)>,
    final_snap: ScoringSnapshot,
    recover_s: f64,
    /// Every timed reopen.
    recover_all: Vec<f64>,
    replayed_records: u64,
    core: Option<CoreLayer>,
}

impl Replay {
    fn detail(&self) -> Json {
        obj([
            ("durable", Json::from(self.durable)),
            ("traced", self.core.is_some().into()),
            ("events", self.ingest.events.into()),
            ("wall_s", self.wall_s.into()),
            ("queried_ticks", self.queried_ticks.into()),
            ("sent", self.fresh.into()),
            ("succeeded", (self.fresh - self.fresh_failed).into()),
            ("failed", self.fresh_failed.into()),
            ("refits", self.ingest.refit_ns.len().into()),
            ("failed_refits", self.ingest.failed_refits.into()),
            ("compactions", self.ingest.compact_ns.len().into()),
            ("checkpoints", self.checkpoint_ns.len().into()),
            ("recover_s", self.recover_s.into()),
            ("replayed_records", self.replayed_records.into()),
            ("events_per_s", self.events_per_s().into()),
            ("fresh_per_s", self.fresh_per_s().into()),
            ("query_p50_us", self.query().p50.into()),
            ("query_tail_us", self.query().tail.into()),
            ("refit_p50_ms", self.refit_p50_ms().into()),
        ])
    }

    fn query(&self) -> Dist {
        Dist::of(&stats::us(&self.query_ns), 99.0)
    }

    fn refit_p50_ms(&self) -> f64 {
        stats::median(&stats::us(&self.ingest.refit_ns)) / 1e3
    }

    fn events_per_s(&self) -> f64 {
        self.ingest.events as f64 / self.wall_s
    }

    fn fresh_per_s(&self) -> f64 {
        self.fresh as f64 / (self.score_ns as f64 / 1e9)
    }
}

/// Replays `trace` into `p`; `dir` is `p`'s directory when durable.
#[allow(clippy::too_many_arguments)]
fn replay(
    opts: &Options,
    cfg: &OnlinePredictorConfig,
    trace: &Trace,
    mut p: OnlineLinkPredictor,
    dir: Option<PathBuf>,
    mut core: Option<CoreReplay>,
    fixed: &mut Option<Vec<(NodeId, NodeId)>>,
    gates: &mut Vec<String>,
) -> Result<Replay, String> {
    let mut rng = Rng::new(opts.seed ^ 0xf4e5);
    let mut ingest = IngestLog::default();
    let (mut publish_ns, mut query_ns, mut checkpoint_ns) =
        (vec![], vec![], vec![]);
    let (mut tick_ns, mut score_tick_ns) = (vec![], vec![]);
    let (mut score_ns, mut fresh, mut fresh_failed, mut queried) = (0, 0, 0, 0);
    let mut excluded_ns = 0u64;
    let mut last_checkpoint = None;
    let start = Instant::now();
    for (i, &(lo, hi)) in ticks(&trace.events).iter().enumerate() {
        let tick = Instant::now();
        let mut tick_excluded_ns = 0u64;
        for &event in &trace.events[lo..hi] {
            ingest.observe(&mut p, event);
        }
        let t = Instant::now();
        let snap = p.snapshot();
        let publish = elapsed_ns(t);
        publish_ns.push(publish);
        if snap.is_fitted() {
            let n = snap.graph().node_count() as NodeId;
            let pairs: Vec<(NodeId, NodeId)> = (0..config::FRESH_PER_TICK)
                .map(|_| {
                    let (u, v, _) =
                        trace.events[lo + rng.below((hi - lo) as u32) as usize];
                    let anchor = if rng.below(2) == 0 { u } else { v };
                    loop {
                        let other = rng.below(n);
                        if other != anchor {
                            return (anchor, other);
                        }
                    }
                })
                .collect();
            let degraded = snap.degraded_scores();
            let t = Instant::now();
            let scores = snap.score_batch(&pairs);
            let scored = elapsed_ns(t);
            score_ns += scored;
            score_tick_ns.push(scored);
            query_ns.push(publish + scored);
            queried += 1;
            fresh += pairs.len() as u64;
            fresh_failed += scores.iter().filter(|s| s.is_none()).count()
                as u64
                + (snap.degraded_scores() - degraded);
            if let (Some(core), Some(present)) = (core.as_mut(), snap.present())
            {
                let t = Instant::now();
                core.add(snap.graph(), present, &pairs)?;
                tick_excluded_ns += elapsed_ns(t);
            }
        }
        if dir.is_some() && (i + 1) % config::CHECKPOINT_EVERY == 0 {
            let t = Instant::now();
            let path =
                p.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            checkpoint_ns.push(elapsed_ns(t));
            last_checkpoint = Some((path, snap));
        }
        tick_ns.push(elapsed_ns(tick) - tick_excluded_ns);
        excluded_ns += tick_excluded_ns;
    }
    let wall_s = (elapsed_ns(start) - excluded_ns) as f64 / 1e9;
    let final_snap = p.snapshot();
    drop(p);
    let fixed = fixed.get_or_insert_with(|| {
        let n = final_snap.graph().node_count() as NodeId;
        let mut pairs = PairGen::uniform(opts.seed ^ 0xc0c0, n).take(256);
        pairs.extend(
            setup::scoreable_test(&trace.split, &final_snap)
                .0
                .into_iter()
                .take(256),
        );
        pairs
    });
    let (mut recover_s, mut recover_all, mut replayed_records) =
        (f64::NAN, vec![], 0);
    if let Some(dir) = &dir {
        let (replica, report, times) =
            setup::recover(cfg, dir, config::RECOVER_REPS)?;
        recover_s = stats::median(&times);
        recover_all = times;
        replayed_records = report.records_replayed;
        if let Err(e) = setup::same_scores(
            "recovered",
            &final_snap,
            &replica.snapshot(),
            fixed,
        ) {
            gates.push(e);
        }
    }
    Ok(Replay {
        durable: dir.is_some(),
        wall_s,
        ingest,
        publish_ns,
        score_ns,
        tick_ns,
        score_tick_ns,
        query_ns,
        queried_ticks: queried,
        fresh,
        fresh_failed,
        checkpoint_ns,
        last_checkpoint,
        final_snap,
        recover_s,
        recover_all,
        replayed_records,
        core: core.map(|c| c.finish()),
    })
}

/// Runs `stream_window`.
///
/// # Errors
///
/// Set-up, replay or recovery failures.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut dirs = WorkDir::new(opts.workload.name())?;
    let mut gates: Vec<String> = Vec::new();
    let cfg = config::stream_predictor(opts.seed);
    let method = config::method(opts.seed);

    // Replays, each with its own set-up: generate and split the trace,
    // open the predictor on an empty directory. Trace mode runs three:
    // untraced durable (the overhead baseline), in-memory (the WAL's
    // share) and traced durable.
    let (mut setup_s, mut gen_s) = (vec![], vec![]);
    let mut fixed = None;
    let mut replays: Vec<Replay> = Vec::new();
    let mut registry = None;
    let mut last_trace = None;
    let budget = Instant::now();
    loop {
        let (durable, traced) = if opts.trace {
            match replays.len() {
                0 => (true, false),
                1 => (false, false),
                2 => (true, true),
                _ => break,
            }
        } else {
            if replays.len() >= config::MIN_REPLAYS
                && budget.elapsed().as_secs_f64() >= opts.seconds
            {
                break;
            }
            (true, false)
        };
        let obs = if traced {
            let r = Arc::new(Registry::new());
            registry = Some(Arc::clone(&r));
            ObsHandle::of_registry(r)
        } else {
            ObsHandle::noop()
        };
        let t = Instant::now();
        let trace = setup::trace(opts.seed, opts.scale)?;
        let (p, dir) = if durable {
            let dir = dirs.fresh();
            (setup::open_durable(&cfg, &dir, obs)?, Some(dir))
        } else {
            (OnlineLinkPredictor::with_recorder(cfg.clone(), obs), None)
        };
        if durable && !traced {
            setup_s.push(t.elapsed().as_secs_f64());
        }
        gen_s.push(trace.generate_s);
        let core = traced.then(|| CoreReplay::new(&method));
        replays.push(replay(
            opts, &cfg, &trace, p, dir, core, &mut fixed, &mut gates,
        )?);
        last_trace = Some(trace);
    }
    let trace = last_trace.ok_or("no replay ran")?;

    // Every replay of one seed must end in the same model.
    let (auc, auc_pairs) =
        setup::snapshot_auc(&trace.split, &replays[0].final_snap)?;
    let fixed = fixed.ok_or("no replay ran")?;
    for r in &replays[1..] {
        if let Err(e) = setup::same_scores(
            "replay",
            &replays[0].final_snap,
            &r.final_snap,
            &fixed,
        ) {
            gates.push(e);
        }
    }
    let (mut snapshot_load_ms, mut frozen_bytes_per_link) =
        (f64::NAN, f64::NAN);
    if let Some((path, at_checkpoint)) = &replays[0].last_checkpoint {
        let t = Instant::now();
        let loaded = ScoringSnapshot::load(path)
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        snapshot_load_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) =
            setup::same_scores("loaded", at_checkpoint, &loaded, &fixed)
        {
            gates.push(e);
        }
        let base = loaded.graph().base();
        frozen_bytes_per_link =
            base.heap_bytes() as f64 / base.link_count().max(1) as f64;
    }

    let measured: Vec<&Replay> = replays
        .iter()
        .filter(|r| r.durable && r.core.is_none())
        .collect();
    let attempted: u64 = measured.iter().map(|r| r.fresh).sum();
    let failed: u64 = measured.iter().map(|r| r.fresh_failed).sum();
    let mut detail = vec![
        ("workload", Json::from(opts.workload.name())),
        ("seed", opts.seed.into()),
        ("config", config::describe(opts.scale)),
        ("history_events", trace.events.len().into()),
        ("ticks", ticks(&trace.events).len().into()),
        ("auc_pairs", auc_pairs.into()),
        (
            "replays",
            Json::Arr(replays.iter().map(Replay::detail).collect()),
        ),
    ];
    let values: Vec<(&'static str, f64)> = if !opts.trace {
        let query = Dist::of(
            &measured
                .iter()
                .flat_map(|r| stats::us(&r.query_ns))
                .collect::<Vec<_>>(),
            99.0,
        );
        detail.push((
            "query",
            obj([
                ("samples", Json::from(query.n)),
                ("p50_us", query.p50.into()),
                ("tail_us", query.tail.into()),
                ("tail_pct", query.tail_pct.into()),
                ("beyond_tail", query.tail_beyond.into()),
                (
                    "refits",
                    measured
                        .iter()
                        .map(|r| r.ingest.refit_ns.len())
                        .sum::<usize>()
                        .into(),
                ),
            ]),
        ));
        // Every timing but `setup_s` composes each step's fastest replay
        // (see README: host noise is one-sided and bursty); the p99 in
        // the detail pools every replay's queries for its sample size.
        let best = |f: &dyn Fn(&Replay) -> &[u64]| {
            stats::best_steps(&measured.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let events = measured[0].ingest.events as f64;
        let fresh = measured[0].fresh as f64;
        let recover: Vec<f64> =
            measured.iter().flat_map(|r| r.recover_all.clone()).collect();
        vec![
            ("setup_s", stats::median(&setup_s)),
            (
                "query_p50_us",
                stats::median(&stats::us(&best(&|r| &r.query_ns)?)),
            ),
            (
                "goodput_pairs_per_s",
                fresh / (best(&|r| &r.score_tick_ns)?.iter().sum::<u64>()
                    as f64
                    / 1e9),
            ),
            ("auc", auc),
            (
                "ingest_events_per_s",
                events
                    / (best(&|r| &r.tick_ns)?.iter().sum::<u64>() as f64
                        / 1e9),
            ),
            (
                "refit_p50_ms",
                stats::median(&stats::us(&best(&|r| &r.ingest.refit_ns)?))
                    / 1e3,
            ),
            ("recover_s", stats::fast_time(&recover)),
            ("peak_rss_mb", setup::peak_rss_mb()),
        ]
    } else {
        let (base, memory, traced) = (&replays[0], &replays[1], &replays[2]);
        let core = traced
            .core
            .clone()
            .ok_or("the traced replay has no core figures")?;
        let spans = registry
            .ok_or("the traced replay has no recorder")?
            .snapshot();
        let fits = spans
            .histogram("ssf.model.fit")
            .map_or(0, |h| h.count())
            .max(1);
        let per_fit_ms = |ns: u64| ns as f64 / fits as f64 / 1e6;
        let refit_ns: u64 = base.ingest.refit_ns.iter().sum::<u64>()
            + base.ingest.failed_refit_ns;
        let covered_ns = base.ingest.total_ns()
            + base.publish_ns.iter().sum::<u64>()
            + base.score_ns
            + base.checkpoint_ns.iter().sum::<u64>();
        detail.push(("core", core.detail()));
        vec![
            (
                "serve.us_per_pair",
                traced.score_ns as f64 / traced.fresh.max(1) as f64 / 1e3,
            ),
            (
                "serve.publish_us",
                stats::median(&stats::us(&traced.publish_ns)),
            ),
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
                stats::median(&stats::us(&base.ingest.plain_ns)),
            ),
            ("stream.refit_share", refit_ns as f64 / 1e9 / base.wall_s),
            ("stream.compactions", base.ingest.compact_ns.len() as f64),
            (
                "stream.compact_ms_total",
                base.ingest.compact_ns.iter().sum::<u64>() as f64 / 1e6,
            ),
            (
                "stream.expired_links",
                spans.counter("ssf.stream.expired_links") as f64,
            ),
            ("dyngraph.frozen_bytes_per_link", frozen_bytes_per_link),
            (
                "persist.wal_us_per_event",
                stats::mean(&stats::us(&base.ingest.plain_ns))
                    - stats::mean(&stats::us(&memory.ingest.plain_ns)),
            ),
            (
                "persist.checkpoint_ms",
                stats::median(&stats::us(&base.checkpoint_ns)) / 1e3,
            ),
            ("persist.replayed_records", base.replayed_records as f64),
            ("persist.snapshot_load_ms", snapshot_load_ms),
            ("datasets.generate_s", stats::median(&gen_s)),
            (
                "unattributed_frac",
                1.0 - covered_ns as f64 / 1e9 / base.wall_s,
            ),
            ("failed_frac", failed as f64 / attempted.max(1) as f64),
            (
                "trace.overhead_frac",
                1.0 - traced.events_per_s() / base.events_per_s(),
            ),
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
