//! End-to-end benchmark of the online SSF predictor.
//!
//! Three workloads run against the public API of `ssf-repro`:
//!
//! * `serve_uniform` — open-loop coalesced serving of uniformly drawn
//!   pairs: cold ssf-core kernels and the hub-ball tail.
//! * `serve_hot` — the same server, with Zipf-skewed pairs over a fixed
//!   hot set: extraction-cache reuse and batching.
//! * `stream_window` — a single-threaded durable, windowed replay of the
//!   trace with inline refits, per-tick publishes, fresh-pair scoring
//!   and checkpoints, then recovery.
//!
//! Every workload reports every end-to-end metric of [`END_TO_END`]; a
//! traced run (`--trace 1`) reports [`PER_LAYER`] instead and prints the
//! workload-specific layer figures in its detail line. See `README.md`.

pub mod config;
pub mod layers;
pub mod openloop;
pub mod pairs;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod stream;

use report::{metric, Json, Metric};

/// End-to-end metrics, `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("goodput_pairs_per_s", "1/s"),
    ("auc", "ratio"),
    ("ingest_events_per_s", "1/s"),
    ("refit_p50_ms", "ms"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload measures, `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("serve.us_per_pair", "us"),
    ("serve.publish_us", "us"),
    ("core.cache_hit_rate", "ratio"),
    ("core.cache_lookups", "count"),
    ("core.ball_us", "us"),
    ("core.structure_us", "us"),
    ("core.wl_us", "us"),
    ("core.encode_us", "us"),
    ("core.pair_us", "us"),
    ("core.kgrowth_rounds", "count"),
    ("core.extract_p50_us", "us"),
    ("core.extract_p99_us", "us"),
    ("core.ball_nodes_p50", "count"),
    ("core.ball_nodes_p99", "count"),
    ("ml.forward_us", "us"),
    ("ml.train_ms", "ms"),
    ("model.fit_extract_ms", "ms"),
    ("eval.split_ms", "ms"),
    ("stream.observe_p50_us", "us"),
    ("stream.refit_share", "ratio"),
    ("stream.compactions", "count"),
    ("stream.compact_ms_total", "ms"),
    ("stream.expired_links", "count"),
    ("dyngraph.frozen_bytes_per_link", "B"),
    ("persist.wal_us_per_event", "us"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.replayed_records", "count"),
    ("persist.snapshot_load_ms", "ms"),
    ("datasets.generate_s", "s"),
    ("unattributed_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop serving, uniform pairs.
    ServeUniform,
    /// Open-loop serving, Zipf pairs over a hot set.
    ServeHot,
    /// Durable windowed stream replay.
    StreamWindow,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeUniform,
        Workload::ServeHot,
        Workload::StreamWindow,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeUniform => "serve_uniform",
            Workload::ServeHot => "serve_hot",
            Workload::StreamWindow => "stream_window",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the split, the model and every request.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether to report per-layer metrics.
    pub trace: bool,
    /// Dataset scale; 1.0 except in the benchmark's own tests.
    pub scale: f64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations whose failure counts: at-rate requests (serve) or
    /// fresh pairs (stream).
    pub attempted: u64,
    /// Those that were shed, expired, unscored or degraded.
    pub failed: u64,
    /// The figures, by name (end-to-end or per-layer, by mode).
    pub values: Vec<(&'static str, f64)>,
    /// Settings, per-phase counts and workload-specific layer figures.
    pub detail: Json,
    /// Correctness gates that failed.
    pub gate_failures: Vec<String>,
}

impl RunResult {
    /// The metrics the mode must report, in `BENCHMARK.json` order.
    ///
    /// # Errors
    ///
    /// Names a metric the workload did not produce.
    pub fn metrics(&self, trace: bool) -> Result<Vec<Metric>, String> {
        let names: &[(&'static str, &'static str)] =
            if trace { &PER_LAYER } else { &END_TO_END };
        names
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| metric(name, v, unit))
                    .ok_or(format!("workload produced no `{name}`"))
            })
            .collect()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up or I/O failures that stop the workload before it can report.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    match opts.workload {
        Workload::ServeUniform | Workload::ServeHot => serve::run(opts),
        Workload::StreamWindow => stream::run(opts),
    }
}
