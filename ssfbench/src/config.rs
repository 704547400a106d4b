//! Every fixed setting of the benchmark. Nothing here is derived from a
//! measurement taken at run time: the offered rates, the coalescer and
//! predictor settings, the window and the hot set are the same on every
//! host and every commit, so a change in a figure is a change in the
//! code under test. `--seed` varies the split, the model's training
//! seed and every request; the graph itself is fixed.

use std::time::Duration;

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::methods::MethodOptions;
use ssf_repro::ssf_eval::SplitConfig;
use ssf_repro::{
    CoalesceConfig, DurabilityPolicy, FsyncPolicy, OnlinePredictorConfig,
};

use crate::report::{obj, Json};

/// Seed of the generated Facebook trace (the graph is the same on every
/// run; `--seed` drives everything else).
pub const DATASET_SEED: u64 = 2019;
/// Positives the outer split must hold; sizes the AUC test set.
pub const SPLIT_MIN_POSITIVES: usize = 400;
/// Neural-machine epochs per fit.
pub const NM_EPOCHS: u32 = 40;
/// Positives a predictor's own training split must hold.
pub const FIT_MIN_POSITIVES: usize = 60;
/// Serve rounds per untraced run. Each round sets up anew and measures
/// once; a timing figure pools the rounds' short windows and reports
/// their fast end (`setup_s` the median, see README), so a slow burst on
/// a shared host moves windows, not the result.
pub const ROUNDS: usize = 10;
/// Explicit fits per serve round (the first is part of set-up); the
/// run's `refit_p50_ms` is the fast end of all of them.
pub const FIT_REPS: usize = 6;
/// Serve ingest is timed in chunks of this many events; each chunk's
/// fastest round counts.
pub const INGEST_CHUNK: usize = 256;
/// At-rate requests per latency window (in send order); the run's
/// `query_p50_us` is the fast end of the windows' medians.
pub const LATENCY_WINDOW: usize = 256;
/// Overload scores are timed in groups of this many consecutive ones;
/// the run's `goodput_pairs_per_s` is the fast end of the groups' rates.
pub const GOODPUT_GROUP: usize = 1024;

/// At-rate phase: Poisson arrivals per second, about a quarter of the
/// coalesced per-pair capacity measured on a 2-core x86-64 host.
pub const AT_RATE_PER_S: f64 = 3_000.0;
/// Overload phase: several times that capacity.
pub const OVERLOAD_PER_S: f64 = 40_000.0;
/// Share of `--seconds` spent in the at-rate phase; the rest is
/// overload.
pub const AT_RATE_SHARE: f64 = 0.7;
/// Coalescer: requests per batch.
pub const MAX_BATCH: usize = 32;
/// Coalescer: oldest-request age that closes a partial batch.
pub const MAX_DELAY: Duration = Duration::from_micros(100);
/// Coalescer: queue bound. It holds about 1.4 s of at-rate arrivals, so
/// a host stall delays at-rate requests but never sheds them.
pub const QUEUE_CAPACITY: usize = 4096;
/// Coalescer: threads per batch (the coalescer's single worker).
pub const WORKER_THREADS: usize = 1;
/// Coalescer: deadline budget of every request; longer than a full
/// queue takes to drain, so no at-rate request expires either.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// How long a phase may take to drain after its last arrival.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// `serve_hot`: ids in the hot set.
pub const HOT_SET_SIZE: usize = 256;
/// `serve_hot`: seed choosing the hot set (fixed, like the graph).
pub const HOT_SET_SEED: u64 = 0x407;
/// `serve_hot`: Zipf exponent over hot-set ranks.
pub const ZIPF_S: f64 = 1.1;

/// `stream_window`: window width in ticks, a third of the 366-tick span.
pub const WINDOW_TICKS: u32 = 122;
/// `stream_window`: automatic refit cadence in ticks.
pub const REFIT_EVERY: u32 = 10;
/// `stream_window`: fresh pairs scored after each tick.
pub const FRESH_PER_TICK: usize = 16;
/// `stream_window`: replays per untraced run, at least; more while
/// `--seconds` lasts. Each replays the whole trace.
pub const MIN_REPLAYS: usize = 3;
/// `stream_window`: a checkpoint after every this many ticks.
pub const CHECKPOINT_EVERY: usize = 50;
/// WAL flush policy of every durable predictor: no explicit fsync, so
/// disk flush time stays out of the figures.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Times a durable directory is reopened per serve round or stream
/// replay; `recover_s` is the fast end of every reopen of the run.
pub const RECOVER_REPS: usize = 3;

/// Traced run: most dispatched pairs replayed through ssf-core.
pub const REPLAY_PAIRS: usize = 4096;
/// Traced run: distinct pairs timed through uncached `try_extract`.
pub const EXTRACT_SAMPLE: usize = 1024;

/// The Facebook spec (HubDominated, 4 313 nodes, 42 346 links), scaled
/// down only by the benchmark's own tests.
pub fn dataset(scale: f64) -> DatasetSpec {
    if scale >= 1.0 {
        DatasetSpec::facebook()
    } else {
        DatasetSpec::facebook().scaled(scale)
    }
}

/// The outer split that yields the replayed history and the AUC set.
pub fn split_config(seed: u64) -> SplitConfig {
    SplitConfig {
        seed,
        ..SplitConfig::default()
    }
}

/// Model hyperparameters (paper defaults, short training).
pub fn method(seed: u64) -> MethodOptions {
    MethodOptions {
        seed,
        nm_epochs: NM_EPOCHS,
        ..MethodOptions::default()
    }
}

/// The predictor behind `serve_*`: unbounded, fitted once explicitly.
pub fn serve_predictor(seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(method(seed))
        .split(split_config(seed))
        .refit_every(u32::MAX)
        .min_positives(FIT_MIN_POSITIVES)
        .history_folds(0)
        .build()
        .expect("fixed serve predictor settings are valid")
}

/// The predictor behind `stream_window`: windowed, refitting inline.
pub fn stream_predictor(seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(method(seed))
        .split(split_config(seed))
        .refit_every(REFIT_EVERY)
        .window(Some(WINDOW_TICKS))
        .min_positives(FIT_MIN_POSITIVES)
        .history_folds(0)
        .build()
        .expect("fixed stream predictor settings are valid")
}

/// Durability of every durable predictor.
pub fn durability() -> DurabilityPolicy {
    DurabilityPolicy {
        fsync: FSYNC,
        ..DurabilityPolicy::default()
    }
}

/// The coalescer every serve phase runs.
pub fn coalescer() -> CoalesceConfig {
    CoalesceConfig::builder()
        .max_batch(MAX_BATCH)
        .max_delay_ns(nanos(MAX_DELAY))
        .queue_capacity(QUEUE_CAPACITY)
        .worker_threads(WORKER_THREADS)
        .default_deadline_ns(Some(nanos(DEADLINE)))
        .build()
        .expect("fixed coalescer settings are valid")
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The settings above, printed with every run.
pub fn describe(scale: f64) -> Json {
    let spec = dataset(scale);
    obj([
        ("dataset", Json::from(spec.name)),
        ("dataset_nodes", spec.nodes.into()),
        ("dataset_links", spec.target_links.into()),
        ("dataset_seed", DATASET_SEED.into()),
        ("split_min_positives", SPLIT_MIN_POSITIVES.into()),
        ("nm_epochs", u64::from(NM_EPOCHS).into()),
        ("fit_min_positives", FIT_MIN_POSITIVES.into()),
        ("at_rate_per_s", AT_RATE_PER_S.into()),
        ("overload_per_s", OVERLOAD_PER_S.into()),
        ("at_rate_share", AT_RATE_SHARE.into()),
        ("rounds", ROUNDS.into()),
        ("fit_reps", FIT_REPS.into()),
        ("ingest_chunk", INGEST_CHUNK.into()),
        ("latency_window", LATENCY_WINDOW.into()),
        ("goodput_group", GOODPUT_GROUP.into()),
        ("fast_pct", crate::stats::FAST_PCT.into()),
        ("max_batch", MAX_BATCH.into()),
        ("max_delay_us", (MAX_DELAY.as_secs_f64() * 1e6).into()),
        ("queue_capacity", QUEUE_CAPACITY.into()),
        ("worker_threads", WORKER_THREADS.into()),
        ("deadline_ms", (DEADLINE.as_secs_f64() * 1e3).into()),
        ("hot_set_size", HOT_SET_SIZE.into()),
        ("hot_set_seed", HOT_SET_SEED.into()),
        ("zipf_s", ZIPF_S.into()),
        ("window_ticks", u64::from(WINDOW_TICKS).into()),
        ("refit_every", u64::from(REFIT_EVERY).into()),
        ("fresh_per_tick", FRESH_PER_TICK.into()),
        ("min_replays", MIN_REPLAYS.into()),
        ("checkpoint_every_ticks", CHECKPOINT_EVERY.into()),
        ("fsync", Json::from(format!("{FSYNC:?}").as_str())),
        ("recover_reps", RECOVER_REPS.into()),
        ("replay_pairs", REPLAY_PAIRS.into()),
        ("extract_sample", EXTRACT_SAMPLE.into()),
    ])
}
