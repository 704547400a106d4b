//! Durable predictor state: snapshot codecs, the on-disk directory
//! layout and recovery reporting for
//! [`OnlineLinkPredictor`](crate::stream::OnlineLinkPredictor).
//!
//! A durability directory holds two kinds of files:
//!
//! * `snapshot-<revision>-<seq>.ssf1` — a full checkpoint in the
//!   [`ssf_persist::snapshot`] container: the frozen graph CSR
//!   (`graph.*` sections), the serving model (`model`, absent when
//!   unfitted), and the predictor metadata (`pmeta`) this module
//!   encodes — refit clock, backoff, stream statistics, the WAL
//!   sequence the snapshot covers, and a fingerprint of the
//!   configuration it was written under.
//! * `wal-<seq>.log` — write-ahead log segments of every `observe`
//!   call since the covering snapshot (see [`ssf_persist::wal`]).
//!
//! Recovery (`OnlineLinkPredictor::open`) loads the newest valid
//! snapshot, replays the WAL tail through the normal `observe` path,
//! and reports exactly what it found in a [`RecoveryReport`] — lossy
//! outcomes (a torn WAL tail, a corrupt snapshot that had to be
//! skipped) are recovered from by default but never hidden.

use std::io;
use std::path::{Path, PathBuf};

use dyngraph::{FrozenGraph, Window};
use ssf_persist::codec::{fnv1a64, put_u32, put_u64, Cursor};
use ssf_persist::{
    decode_graph, encode_graph, FsyncPolicy, PersistError, SnapshotReader,
    SnapshotWriter, WalWriter,
};

use crate::model::SsfnmModel;
use crate::stream::OnlinePredictorConfig;

/// Snapshot section holding the predictor metadata.
pub(crate) const SEC_PMETA: &str = "pmeta";
/// Snapshot section holding the serialized serving model (absent when
/// the predictor was unfitted at checkpoint time).
pub(crate) const SEC_MODEL: &str = "model";
/// Snapshot section holding the pending refit error text, if any.
pub(crate) const SEC_REFIT_ERROR: &str = "pmeta.err";
/// Snapshot section holding the sliding-window state (width, horizon,
/// then the out-of-window quarantine tally; absent when the predictor
/// has no window configured). A separate optional section rather than
/// a `pmeta` suffix: `pmeta` decoding rejects trailing bytes, so
/// extending it would break version-2 readers, while an unknown extra
/// section is simply ignored by them.
pub(crate) const SEC_WINDOW: &str = "pmeta.window";

/// How a durable predictor trades write latency for crash safety.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// When WAL appends reach stable storage; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold in bytes. Checkpoints reclaim
    /// whole segments, so smaller segments truncate at finer grain.
    pub segment_bytes: u64,
    /// Checkpoints retained after a new one lands (≥ 1). Older
    /// snapshots are recovery fallbacks if the newest turns out to be
    /// corrupt on a later open.
    pub keep_snapshots: usize,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync: FsyncPolicy::Always,
            segment_bytes: 4 * 1024 * 1024,
            keep_snapshots: 2,
        }
    }
}

/// What recovery found on disk and what it did about it.
///
/// Returned by `OnlineLinkPredictor::open`. A report with
/// [`is_lossy`](RecoveryReport::is_lossy) `false` means the recovered
/// predictor is bit-identical to the pre-crash one at its final logged
/// event; a lossy report names exactly what was dropped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RecoveryReport {
    /// Graph revision of the snapshot recovery started from; `None`
    /// for a cold start (no usable snapshot, full WAL replay).
    pub snapshot_revision: Option<u64>,
    /// WAL events and window advances applied on top of the snapshot.
    pub records_replayed: u64,
    /// Logged models installed during replay instead of fitting them
    /// again. Models take no WAL sequence number of their own, so the
    /// log resumes at the snapshot's sequence plus
    /// [`records_replayed`](RecoveryReport::records_replayed).
    pub models_installed: u64,
    /// Logged models replay could not use: a well-formed record that is
    /// not the next refit attempt, whose epoch is not the replayed
    /// revision or whose bytes do not load (that refit was fitted
    /// again), or a due refit's record where replay had no refit due
    /// (skipped). The events around it still replay; the recovered
    /// refit state may differ from the writer's.
    pub models_rejected: u64,
    /// Bytes discarded as a torn or corrupt WAL tail.
    pub bytes_dropped: u64,
    /// `true` if the WAL had corruption past its valid prefix (the
    /// prefix was recovered; the tail is gone).
    pub tail_truncated: bool,
    /// Snapshot files that failed validation and were skipped in
    /// favor of an older snapshot or a cold start.
    pub corrupt_snapshots: Vec<PathBuf>,
    /// WAL segment files deleted while repairing the log.
    pub segments_removed: u64,
}

impl RecoveryReport {
    /// `true` when any durable state could not be recovered — a torn
    /// WAL tail, a skipped corrupt snapshot or a rejected model record.
    /// `restore --strict` refuses lossy recoveries.
    pub fn is_lossy(&self) -> bool {
        self.tail_truncated
            || !self.corrupt_snapshots.is_empty()
            || self.models_rejected > 0
    }
}

/// The live durability attachment of a predictor: its directory, the
/// policy it was opened with, and the single WAL writer.
#[derive(Debug)]
pub(crate) struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) policy: DurabilityPolicy,
    pub(crate) wal: WalWriter,
    /// Rendered error of the most recent failed WAL append. Sticky
    /// until a successful checkpoint re-establishes full durability —
    /// a later successful append cannot clear it, because the failed
    /// event is still absent from the durable history. A failed append
    /// degrades durability (the event is in memory but not on disk)
    /// without dropping the event.
    pub(crate) last_wal_error: Option<String>,
}

/// Fingerprint of the configuration a snapshot was written under.
///
/// Restoring under a different configuration would silently change
/// refit cadence, quarantine rules and model hyperparameters mid-
/// history; the fingerprint makes the mismatch a hard error instead.
pub(crate) fn config_fingerprint(config: &OnlinePredictorConfig) -> u64 {
    fnv1a64(format!("{config:?}").as_bytes())
}

/// Scalar predictor state persisted alongside the graph and model.
///
/// Everything `observe` consults when deciding whether to refit — plus
/// the stream statistics — so a recovered predictor replays the WAL
/// tail with exactly the decisions the pre-crash predictor made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PredictorMeta {
    pub(crate) fingerprint: u64,
    /// First WAL sequence *not* covered by this snapshot — replay
    /// starts here.
    pub(crate) next_seq: u64,
    pub(crate) model_epoch: Option<u64>,
    pub(crate) last_fit_attempt: Option<u32>,
    pub(crate) backoff: u32,
    pub(crate) accepted: u64,
    pub(crate) self_loops: u64,
    pub(crate) duplicates: u64,
    pub(crate) stale: u64,
    pub(crate) successful_refits: u64,
    pub(crate) failed_refits: u64,
    pub(crate) degraded_scores: u64,
    /// Sliding window at checkpoint time; `None` when the predictor is
    /// unbounded. The width is also pinned by the configuration
    /// fingerprint; carrying it here keeps standalone replicas
    /// ([`ScoringSnapshot::load`](crate::serve::ScoringSnapshot::load),
    /// which never sees the configuration) self-describing.
    pub(crate) window: Option<Window>,
    /// Events quarantined for predating the window cutoff. Lives in the
    /// window section (always zero for unbounded predictors, which
    /// write no such section).
    pub(crate) out_of_window: u64,
}

/// A fully decoded snapshot, ready to install into a predictor.
#[derive(Debug)]
pub(crate) struct PersistedState {
    pub(crate) graph: FrozenGraph,
    pub(crate) model: Option<SsfnmModel>,
    pub(crate) meta: PredictorMeta,
    pub(crate) last_refit_error: Option<String>,
}

/// Encodes the predictor sections (graph + model + metadata) into `w`.
///
/// # Errors
///
/// Propagates the model serializer's `io::Error` (unreachable for the
/// in-memory writer, but typed rather than swallowed).
pub(crate) fn encode_state(
    w: &mut SnapshotWriter,
    graph: &FrozenGraph,
    model: Option<&SsfnmModel>,
    meta: &PredictorMeta,
    last_refit_error: Option<&str>,
) -> io::Result<()> {
    encode_graph(graph, w);
    let mut pm = Vec::with_capacity(8 * 10 + 4 * 4);
    put_u64(&mut pm, meta.fingerprint);
    put_u64(&mut pm, meta.next_seq);
    put_u32(&mut pm, u32::from(meta.model_epoch.is_some()));
    put_u64(&mut pm, meta.model_epoch.unwrap_or(0));
    put_u32(&mut pm, u32::from(meta.last_fit_attempt.is_some()));
    put_u32(&mut pm, meta.last_fit_attempt.unwrap_or(0));
    put_u32(&mut pm, meta.backoff);
    put_u64(&mut pm, meta.accepted);
    put_u64(&mut pm, meta.self_loops);
    put_u64(&mut pm, meta.duplicates);
    put_u64(&mut pm, meta.stale);
    put_u64(&mut pm, meta.successful_refits);
    put_u64(&mut pm, meta.failed_refits);
    put_u64(&mut pm, meta.degraded_scores);
    w.section(SEC_PMETA, pm);
    if let Some(window) = meta.window {
        let mut wh = Vec::with_capacity(16);
        put_u32(&mut wh, window.width);
        put_u32(&mut wh, window.horizon);
        put_u64(&mut wh, meta.out_of_window);
        w.section(SEC_WINDOW, wh);
    }
    if let Some(model) = model {
        let mut buf = Vec::new();
        model.save(&mut buf)?;
        w.section(SEC_MODEL, buf);
    }
    if let Some(err) = last_refit_error {
        w.section(SEC_REFIT_ERROR, err.as_bytes().to_vec());
    }
    Ok(())
}

fn corrupt(section: &str, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt {
        section: section.to_string(),
        detail: detail.into(),
    }
}

/// Reads a `0`/`1` presence flag, rejecting any other value.
fn flag(c: &mut Cursor<'_>) -> Result<bool, PersistError> {
    match c.u32()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(corrupt(SEC_PMETA, format!("flag byte is {other}"))),
    }
}

/// Decodes the predictor sections of a validated snapshot.
///
/// # Errors
///
/// [`PersistError::Corrupt`] when a section is missing, malformed, or
/// the sections disagree with each other (a model without an epoch, an
/// epoch without a model).
pub(crate) fn decode_state(
    r: &SnapshotReader,
) -> Result<PersistedState, PersistError> {
    let graph = decode_graph(r)?;
    let mut c = Cursor::new(SEC_PMETA, r.require(SEC_PMETA)?);
    let fingerprint = c.u64()?;
    let next_seq = c.u64()?;
    let has_epoch = flag(&mut c)?;
    let epoch = c.u64()?;
    let has_lfa = flag(&mut c)?;
    let lfa = c.u32()?;
    let backoff = c.u32()?;
    let (window, out_of_window) = match r.section(SEC_WINDOW) {
        Some(bytes) => {
            let mut wc = Cursor::new(SEC_WINDOW, bytes);
            let width = wc.u32()?;
            let horizon = wc.u32()?;
            let out_of_window = wc.u64()?;
            wc.finish()?;
            (Some(Window { width, horizon }), out_of_window)
        }
        // Version-2 snapshots predate windows: unbounded.
        None => (None, 0),
    };
    let meta = PredictorMeta {
        fingerprint,
        next_seq,
        model_epoch: has_epoch.then_some(epoch),
        last_fit_attempt: has_lfa.then_some(lfa),
        backoff,
        accepted: c.u64()?,
        self_loops: c.u64()?,
        duplicates: c.u64()?,
        stale: c.u64()?,
        successful_refits: c.u64()?,
        failed_refits: c.u64()?,
        degraded_scores: c.u64()?,
        window,
        out_of_window,
    };
    c.finish()?;
    if backoff == 0 {
        return Err(corrupt(SEC_PMETA, "backoff must be at least 1"));
    }
    let model = match r.section(SEC_MODEL) {
        Some(bytes) => Some(
            SsfnmModel::load(bytes)
                .map_err(|e| corrupt(SEC_MODEL, e.to_string()))?,
        ),
        None => None,
    };
    if model.is_some() != meta.model_epoch.is_some() {
        return Err(corrupt(
            SEC_PMETA,
            "model section and model-epoch flag disagree",
        ));
    }
    let last_refit_error = match r.section(SEC_REFIT_ERROR) {
        Some(bytes) => Some(
            String::from_utf8(bytes.to_vec())
                .map_err(|_| corrupt(SEC_REFIT_ERROR, "not valid UTF-8"))?,
        ),
        None => None,
    };
    Ok(PersistedState {
        graph,
        model,
        meta,
        last_refit_error,
    })
}

/// One checkpoint file on disk, parsed from its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotEntry {
    /// First WAL sequence not covered (replay starts here).
    pub(crate) seq: u64,
    /// Graph revision at checkpoint time.
    pub(crate) revision: u64,
    pub(crate) path: PathBuf,
}

/// Path of the checkpoint covering WAL sequences below `seq` at graph
/// `revision`. Zero-padded so lexicographic and numeric order agree.
pub(crate) fn snapshot_path(dir: &Path, revision: u64, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{revision:020}-{seq:020}.ssf1"))
}

/// Lists checkpoint files in `dir`, oldest first (by covered sequence,
/// then revision). Files that merely look similar are ignored.
pub(crate) fn list_snapshots(dir: &Path) -> io::Result<Vec<SnapshotEntry>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("snapshot-")
            .and_then(|s| s.strip_suffix(".ssf1"))
        else {
            continue;
        };
        let Some((rev, seq)) = stem.split_once('-') else {
            continue;
        };
        if let (Ok(revision), Ok(seq)) =
            (rev.parse::<u64>(), seq.parse::<u64>())
        {
            out.push(SnapshotEntry {
                seq,
                revision,
                path,
            });
        }
    }
    out.sort_by_key(|e| (e.seq, e.revision));
    Ok(out)
}

/// Deletes all but the newest `keep` checkpoints, returning how many
/// were removed. `keep == 0` is treated as 1 — the newest checkpoint
/// is never pruned.
pub(crate) fn prune_snapshots(dir: &Path, keep: usize) -> io::Result<u64> {
    let snapshots = list_snapshots(dir)?;
    let keep = keep.max(1);
    let mut removed = 0;
    if snapshots.len() > keep {
        for entry in &snapshots[..snapshots.len() - keep] {
            std::fs::remove_file(&entry.path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ssf-durability-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_meta() -> PredictorMeta {
        PredictorMeta {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            next_seq: 42,
            model_epoch: None,
            last_fit_attempt: Some(17),
            backoff: 2,
            accepted: 40,
            self_loops: 1,
            duplicates: 0,
            stale: 1,
            successful_refits: 3,
            failed_refits: 2,
            degraded_scores: 5,
            window: None,
            out_of_window: 0,
        }
    }

    fn sample_graph() -> FrozenGraph {
        let mut g = dyngraph::DynamicNetwork::new();
        g.add_link(0, 1, 3);
        g.add_link(1, 2, 5);
        g.add_link(0, 3, 4);
        FrozenGraph::from_view(&g)
    }

    #[test]
    fn state_round_trips_without_a_model() {
        let graph = sample_graph();
        let meta = sample_meta();
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &graph, None, &meta, Some("no positives"))
            .unwrap();
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        let state = decode_state(&r).unwrap();
        assert_eq!(state.graph, graph);
        assert_eq!(state.meta, meta);
        assert!(state.model.is_none());
        assert_eq!(state.last_refit_error.as_deref(), Some("no positives"));
    }

    #[test]
    fn window_round_trips_through_its_own_section() {
        let graph = sample_graph();
        let window = Window {
            width: 7,
            horizon: u32::MAX,
        };
        let meta = PredictorMeta {
            window: Some(window),
            out_of_window: 11,
            ..sample_meta()
        };
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &graph, None, &meta, None).unwrap();
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(r.section(SEC_WINDOW).is_some());
        let state = decode_state(&r).unwrap();
        assert_eq!(state.meta.window, Some(window));
        assert_eq!(state.meta.out_of_window, 11);
        // Unbounded predictors write no window section at all, so
        // their snapshots are byte-identical to the pre-window format.
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &graph, None, &sample_meta(), None).unwrap();
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        assert!(r.section(SEC_WINDOW).is_none());
        assert_eq!(decode_state(&r).unwrap().meta.window, None);
    }

    #[test]
    fn model_and_epoch_must_agree() {
        // Epoch flag set but no model section: corrupt, not a guess.
        let graph = sample_graph();
        let meta = PredictorMeta {
            model_epoch: Some(9),
            ..sample_meta()
        };
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &graph, None, &meta, None).unwrap();
        let r = SnapshotReader::from_bytes(&w.to_bytes()).unwrap();
        let err = decode_state(&r).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn pmeta_corruption_is_typed_never_a_panic() {
        let graph = sample_graph();
        let mut w = SnapshotWriter::new();
        encode_state(&mut w, &graph, None, &sample_meta(), None).unwrap();
        let bytes = w.to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            let outcome =
                SnapshotReader::from_bytes(&bad).and_then(|r| decode_state(&r));
            match outcome {
                Err(PersistError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {i}: unexpected {other}"),
                Ok(state) => {
                    assert_eq!(
                        state.meta,
                        sample_meta(),
                        "byte {i} silently altered the metadata"
                    );
                    assert_eq!(state.graph, sample_graph());
                }
            }
        }
    }

    #[test]
    fn snapshot_listing_sorts_and_ignores_strangers() {
        let dir = temp_dir("list");
        for (rev, seq) in [(30u64, 12u64), (10, 4), (20, 8)] {
            fs::write(snapshot_path(&dir, rev, seq), b"x").unwrap();
        }
        fs::write(dir.join("snapshot-junk.ssf1"), b"x").unwrap();
        fs::write(dir.join("wal-00000000000000000000.log"), b"x").unwrap();
        let entries = list_snapshots(&dir).unwrap();
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [4, 8, 12]);
        assert_eq!(entries[2].revision, 30);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pruning_keeps_the_newest_checkpoints() {
        let dir = temp_dir("prune");
        for (rev, seq) in [(10u64, 4u64), (20, 8), (30, 12), (40, 16)] {
            fs::write(snapshot_path(&dir, rev, seq), b"x").unwrap();
        }
        assert_eq!(prune_snapshots(&dir, 2).unwrap(), 2);
        let left = list_snapshots(&dir).unwrap();
        assert_eq!(left.len(), 2);
        assert_eq!(left[0].seq, 12);
        // keep == 0 never deletes the newest snapshot.
        assert_eq!(prune_snapshots(&dir, 0).unwrap(), 1);
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_tracks_the_configuration() {
        let a = OnlinePredictorConfig::default();
        let mut b = OnlinePredictorConfig::default();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        b.refit_every += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }
}
