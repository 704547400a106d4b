//! What every workload shares: the generated trace, its split, timed
//! ingestion, the durable directory, and the bit-identity checks.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ssf_repro::dyngraph::{GraphView, NodeId, Timestamp};
use ssf_repro::obs::ObsHandle;
use ssf_repro::ssf_eval::{metrics::auc, Split};
use ssf_repro::{
    OnlineLinkPredictor, OnlinePredictorConfig, RecoveryReport,
    ScoringSnapshot, SsfError,
};

use crate::config;

/// The generated network, split into a replayed history and a held-out
/// AUC set.
pub struct Trace {
    /// History links in timestamp order (generation order within a tick).
    pub events: Vec<(NodeId, NodeId, Timestamp)>,
    /// The held-out split the AUC is taken on.
    pub split: Split,
    /// Seconds spent generating the network.
    pub generate_s: f64,
}

/// Generates the fixed Facebook network and splits it with `seed`.
///
/// # Errors
///
/// When the split fails (it never does at the fixed settings).
pub fn trace(seed: u64, scale: f64) -> Result<Trace, String> {
    let t = Instant::now();
    let g = config::dataset(scale).generate(config::DATASET_SEED);
    let generate_s = t.elapsed().as_secs_f64();
    let split = Split::with_min_positives(
        &g,
        &config::split_config(seed),
        config::SPLIT_MIN_POSITIVES,
    )
    .map_err(|e| format!("split: {e}"))?;
    let mut events: Vec<_> =
        split.history.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    Ok(Trace {
        events,
        split,
        generate_s,
    })
}

/// Observe calls of one replay, timed and classified.
#[derive(Debug, Default, Clone)]
pub struct IngestLog {
    /// Events observed.
    pub events: u64,
    /// ns of calls that neither refit nor compacted.
    pub plain_ns: Vec<u64>,
    /// ns of calls that ran a successful refit.
    pub refit_ns: Vec<u64>,
    /// Calls that ran a refit that failed (too little history).
    pub failed_refits: u64,
    /// Their total ns.
    pub failed_refit_ns: u64,
    /// ns of calls that compacted the copy-on-write mirror (a drop in
    /// `delta_link_count`).
    pub compact_ns: Vec<u64>,
}

impl IngestLog {
    /// Feeds one event and files its duration.
    pub fn observe(
        &mut self,
        p: &mut OnlineLinkPredictor,
        (u, v, t): (NodeId, NodeId, Timestamp),
    ) {
        let fits = p.stats().successful_refits;
        let failed = p.stats().failed_refits;
        let delta = p.delta_link_count();
        let start = Instant::now();
        p.observe(u, v, t);
        let ns = elapsed_ns(start);
        self.events += 1;
        if p.stats().successful_refits > fits {
            self.refit_ns.push(ns);
        } else if p.stats().failed_refits > failed {
            self.failed_refits += 1;
            self.failed_refit_ns += ns;
        } else if p.delta_link_count() < delta {
            self.compact_ns.push(ns);
        } else {
            self.plain_ns.push(ns);
        }
    }

    /// Total ns of every call filed.
    pub fn total_ns(&self) -> u64 {
        let filed: u64 = self
            .plain_ns
            .iter()
            .chain(&self.refit_ns)
            .chain(&self.compact_ns)
            .sum();
        filed + self.failed_refit_ns
    }
}

/// Nanoseconds since `start`.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A work directory under the current directory, removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: usize,
}

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(tag: &str) -> Result<Self, String> {
        let root = PathBuf::from(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, empty subdirectory path.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("d{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Removes `.bench_work` only if no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Opens (or creates) a durable predictor at `dir`.
///
/// # Errors
///
/// Filesystem or recovery failures.
pub fn open_durable(
    config: &OnlinePredictorConfig,
    dir: &Path,
    obs: ObsHandle,
) -> Result<OnlineLinkPredictor, String> {
    OnlineLinkPredictor::open_with(
        config.clone(),
        dir,
        config::durability(),
        obs,
    )
    .map(|(p, _)| p)
    .map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Times `OnlineLinkPredictor::open` on `dir` `reps` times; returns the
/// last recovered predictor, its report and every duration in seconds.
///
/// # Errors
///
/// Recovery failures.
pub fn recover(
    config: &OnlinePredictorConfig,
    dir: &Path,
    reps: usize,
) -> Result<(OnlineLinkPredictor, RecoveryReport, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous replica first: one WAL writer per directory.
        drop(last.take());
        let t = Instant::now();
        let opened = OnlineLinkPredictor::open(config.clone(), dir);
        times.push(t.elapsed().as_secs_f64());
        last = Some(opened.map_err(|e: SsfError| format!("recover: {e}"))?);
    }
    let (p, report) = last.ok_or("recover ran no repetition")?;
    Ok((p, report, times))
}

/// Held-out pairs the snapshot can score (both endpoints in its id
/// space), with labels.
pub fn scoreable_test(
    split: &Split,
    snap: &ScoringSnapshot,
) -> (Vec<(NodeId, NodeId)>, Vec<bool>) {
    let n = snap.graph().node_count() as NodeId;
    split
        .test
        .iter()
        .filter(|s| s.u < n && s.v < n)
        .map(|s| ((s.u, s.v), s.label))
        .unzip()
}

/// AUC of `snap` on the scoreable held-out pairs, and how many it used.
///
/// # Errors
///
/// When a scoreable pair gets no score, or one class is missing.
pub fn snapshot_auc(
    split: &Split,
    snap: &ScoringSnapshot,
) -> Result<(f64, usize), String> {
    let (pairs, labels) = scoreable_test(split, snap);
    let scores = snap.score_batch(&pairs);
    let mut scored = Vec::with_capacity(pairs.len());
    for ((s, label), pair) in scores.into_iter().zip(labels).zip(&pairs) {
        scored.push((s.ok_or(format!("no score for {pair:?}"))?, label));
    }
    if !scored.iter().any(|s| s.1) || scored.iter().all(|s| s.1) {
        return Err("the AUC set lacks a class".into());
    }
    Ok((auc(&scored), scored.len()))
}

/// Checks that two snapshots give bit-identical scores on `pairs`.
///
/// # Errors
///
/// Names the first pair that differs.
pub fn same_scores(
    what: &str,
    a: &ScoringSnapshot,
    b: &ScoringSnapshot,
    pairs: &[(NodeId, NodeId)],
) -> Result<(), String> {
    for &(u, v) in pairs {
        let (x, y) = (a.score(u, v), b.score(u, v));
        if x.map(f64::to_bits) != y.map(f64::to_bits) {
            return Err(format!("{what}: ({u}, {v}) scored {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
