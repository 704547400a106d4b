//! Durability suite: crash recovery over the snapshot + WAL stack.
//!
//! The contract under test, end to end: a durable predictor killed at
//! *any* byte of its on-disk state either recovers a valid prefix of
//! its own history — bit-identical to an uninterrupted run over that
//! prefix — or fails with a typed [`SsfError::Corrupt`]. It never
//! panics and never serves silently-wrong state.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use ssf_repro::datasets::DatasetSpec;
use ssf_repro::dyngraph::io::{FaultConfig, FaultyReader};
use ssf_repro::prelude::*;
use ssf_repro::ssf_persist::{decode_graph, encode_graph, SnapshotWriter};

/// Refits every 5 ticks so recovery has to reproduce fitted models,
/// not just the graph.
#[allow(clippy::expect_used)] // test helper
fn durable_config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid configuration")
}

/// A config whose refit interval never fires — keeps the proptest
/// iterations cheap while still exercising the persistence machinery.
#[allow(clippy::expect_used)] // test helper
fn graph_only_config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .refit_every(u32::MAX)
        .build()
        .expect("valid configuration")
}

fn fast_policy() -> DurabilityPolicy {
    DurabilityPolicy {
        fsync: FsyncPolicy::Never,
        ..DurabilityPolicy::default()
    }
}

/// Fresh scratch directory (removed first if a previous run left one).
#[allow(clippy::expect_used)] // test helper
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ssf-durability-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[allow(clippy::expect_used)] // test helper
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create copy target");
    for entry in fs::read_dir(src).expect("read source dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name()))
            .expect("copy durable file");
    }
}

fn clean_events() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut links: Vec<_> = g.links().collect();
    links.sort_by_key(|l| l.t);
    links.iter().map(|l| (l.u, l.v, l.t)).collect()
}

/// Newest WAL segment in `dir` (the one a crash would tear).
#[allow(clippy::expect_used)] // test helper
fn live_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read durability dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    segments.sort();
    segments.pop().expect("a live WAL segment exists")
}

/// Every score the recovered predictor serves must be the same bits
/// the uninterrupted twin serves.
fn assert_bit_identical(
    recovered: &mut OnlineLinkPredictor,
    twin: &mut OnlineLinkPredictor,
) {
    assert_eq!(
        recovered.network().revision(),
        twin.network().revision(),
        "revision diverged"
    );
    assert_eq!(
        recovered.network().link_count(),
        twin.network().link_count()
    );
    assert_eq!(recovered.is_fitted(), twin.is_fitted());
    let n = (twin.network().node_count() as NodeId).min(20);
    for u in 0..n {
        for v in (u + 1)..n {
            let (a, b) = (recovered.score(u, v), twin.score(u, v));
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "scores diverged on ({u}, {v}): {a:?} vs {b:?}"
            );
        }
    }
}

/// The headline contract: kill the process at an arbitrary byte of the
/// live WAL segment, reopen, and the recovered predictor is
/// bit-identical to an uninterrupted run over exactly the events that
/// survived on disk. A checkpoint mid-stream must never be lost.
#[test]
#[allow(clippy::expect_used, clippy::unwrap_used)]
fn crash_mid_ingest_recovers_a_bit_identical_prefix() {
    let events = clean_events();
    let master = scratch("crash-master");
    let mid = events.len() / 3;
    let mut p = OnlineLinkPredictor::with_durability(
        durable_config(),
        &master,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    for (i, &(u, v, t)) in events.iter().enumerate() {
        p.observe(u, v, t);
        if i + 1 == mid {
            p.checkpoint().expect("mid-stream checkpoint");
        }
    }
    p.sync_wal().expect("sync");
    drop(p); // the crash: no shutdown checkpoint, WAL tail only

    let live = live_segment(&master);
    let live_len = fs::metadata(&live).expect("segment metadata").len();
    // Cut points sweep the whole file: inside the segment header,
    // mid-record, on a record boundary, and no cut at all.
    for (i, fraction) in [0.0, 0.1, 0.37, 0.62, 0.83, 1.0].iter().enumerate() {
        let case = scratch(&format!("crash-case-{i}"));
        copy_dir(&master, &case);
        let cut = (live_len as f64 * fraction) as u64;
        let seg = live_segment(&case);
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .and_then(|f| f.set_len(cut))
            .expect("truncate the live segment");

        let (mut recovered, report) =
            OnlineLinkPredictor::open(durable_config(), &case)
                .expect("recovery must accept any torn tail");
        let h = recovered.health();
        let survived = (h.accepted + h.quarantined) as usize;
        assert!(survived >= mid, "the checkpointed prefix is never lost");
        assert!(survived <= events.len());
        if cut == live_len {
            assert!(!report.is_lossy(), "nothing was cut: {report:?}");
            assert_eq!(survived, events.len());
        }
        let mut twin = OnlineLinkPredictor::new(durable_config());
        for &(u, v, t) in &events[..survived] {
            twin.observe(u, v, t);
        }
        assert_bit_identical(&mut recovered, &mut twin);
    }
}

/// A checkpoint is servable directly from disk: `ScoringSnapshot::load`
/// answers with the same bits as the predictor that wrote it.
#[test]
#[allow(clippy::expect_used)]
fn loaded_snapshot_serves_the_writers_scores() {
    let events = clean_events();
    let dir = scratch("snapshot-serve");
    let mut p = OnlineLinkPredictor::with_durability(
        durable_config(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    for &(u, v, t) in &events {
        p.observe(u, v, t);
    }
    let path = p.checkpoint().expect("checkpoint");
    assert!(p.is_fitted(), "stream is rich enough to fit");

    let snap = ScoringSnapshot::load(&path).expect("load checkpoint");
    assert_eq!(snap.epoch(), p.network().revision());
    assert!(snap.is_fitted());
    let n = (p.network().node_count() as NodeId).min(20);
    for u in 0..n {
        for v in (u + 1)..n {
            assert_eq!(
                snap.score(u, v).map(f64::to_bits),
                p.score(u, v).map(f64::to_bits),
                "snapshot diverged from writer on ({u}, {v})"
            );
        }
    }
}

/// One flipped byte anywhere in a snapshot file must be caught by a
/// checksum — `ScoringSnapshot::load` fails typed, never panics, and
/// lossy recovery skips the file and reports it.
#[test]
#[allow(clippy::expect_used, clippy::unwrap_used)]
fn corrupt_snapshot_is_detected_never_served() {
    let events = clean_events();
    let dir = scratch("snapshot-corrupt");
    let mut p = OnlineLinkPredictor::with_durability(
        graph_only_config(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    for &(u, v, t) in &events[..200] {
        p.observe(u, v, t);
    }
    let path = p.checkpoint().expect("checkpoint");
    drop(p);
    let clean = fs::read(&path).expect("read snapshot");

    // Stride through the file so the sweep covers the header, every
    // section payload and every checksum without 200k iterations.
    for offset in (0..clean.len()).step_by(131) {
        let mut bytes = clean.clone();
        bytes[offset] ^= 0x20;
        fs::write(&path, &bytes).expect("write corrupted snapshot");
        let err = ScoringSnapshot::load(&path)
            .err()
            .unwrap_or_else(|| panic!("flip at {offset} went undetected"));
        assert!(
            matches!(err, SsfError::Corrupt { .. }),
            "flip at {offset}: expected Corrupt, got {err}"
        );

        let (recovered, report) =
            OnlineLinkPredictor::open(graph_only_config(), &dir)
                .expect("lossy recovery skips the bad snapshot");
        assert_eq!(report.corrupt_snapshots, vec![path.clone()]);
        assert!(report.is_lossy());
        // The WAL was truncated by the checkpoint, so nothing is left
        // to replay — but what is served is a valid (empty) state, not
        // a guess.
        assert_eq!(recovered.network().revision(), 0);
    }
    fs::write(&path, &clean).expect("restore snapshot");
    let (recovered, report) =
        OnlineLinkPredictor::open(graph_only_config(), &dir)
            .expect("clean recovery");
    assert!(!report.is_lossy());
    assert_eq!(recovered.network().link_count(), 200);
}

/// The CLI contract end to end: `save` produces a restorable
/// directory, a flipped byte makes `restore --strict` fail through the
/// `error:` contract (nonzero exit, no panic), and plain `restore`
/// degrades with a `warning:`.
#[test]
#[allow(clippy::expect_used, clippy::unwrap_used)]
fn cli_save_restore_obeys_the_stderr_contract() {
    use std::process::Command;
    let g = DatasetSpec::coauthor().scaled(0.1).generate(7);
    let dir = scratch("cli");
    let edges = dir.join("net.txt");
    let state = dir.join("state");
    let mut buf = Vec::new();
    ssf_repro::dyngraph::io::write_edge_list(&g, &mut buf)
        .expect("write to memory");
    fs::write(&edges, &buf).expect("write edge list");

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_ssf"))
            .args(args)
            .output()
            .expect("run ssf")
    };
    let state_s = state.to_str().expect("utf-8 temp path");
    let edges_s = edges.to_str().expect("utf-8 temp path");

    let save = run(&["save", edges_s, "--dir", state_s, "--fsync", "never"]);
    assert!(
        save.status.success(),
        "save failed: {}",
        String::from_utf8_lossy(&save.stderr)
    );
    let restore = run(&["restore", "--dir", state_s, "--strict"]);
    assert!(
        restore.status.success(),
        "clean strict restore failed: {}",
        String::from_utf8_lossy(&restore.stderr)
    );
    let stdout = String::from_utf8_lossy(&restore.stdout);
    assert!(stdout.contains("restored snapshot"), "{stdout}");

    // One flipped byte in the snapshot.
    let snapshot = fs::read_dir(&state)
        .expect("read state dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "ssf1"))
        .expect("snapshot file exists");
    let mut bytes = fs::read(&snapshot).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&snapshot, &bytes).expect("write corrupted snapshot");

    let strict = run(&["restore", "--dir", state_s, "--strict"]);
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(!strict.status.success(), "strict restore must fail");
    assert!(stderr.contains("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");

    let lossy = run(&["restore", "--dir", state_s]);
    let stderr = String::from_utf8_lossy(&lossy.stderr);
    assert!(
        lossy.status.success(),
        "lossy restore must degrade, not die: {stderr}"
    );
    assert!(stderr.contains("warning: "), "{stderr}");
}

/// The refit bookkeeping the recovered predictor must share with the
/// live one: model epoch, refit tallies, backoff and pending error.
fn assert_same_refits(
    recovered: &OnlineLinkPredictor,
    live: &OnlineLinkPredictor,
) {
    let (r, l) = (recovered.health(), live.health());
    assert_eq!(r.model_epoch, l.model_epoch, "model epoch");
    assert_eq!(
        r.successful_refits, l.successful_refits,
        "successful refits"
    );
    assert_eq!(r.failed_refits, l.failed_refits, "failed refits");
    assert_eq!(r.current_backoff, l.current_backoff, "backoff");
    assert_eq!(r.last_refit_error, l.last_refit_error, "refit error");
}

/// Byte ranges `(start, end)` of the model records (kind 3) in a WAL
/// segment, read straight off the record framing.
fn model_records(segment: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut pos = 16;
    while pos + 8 <= segment.len() {
        let mut len = [0u8; 4];
        len.copy_from_slice(&segment[pos..pos + 4]);
        let end = pos + 8 + u32::from_le_bytes(len) as usize;
        if end > segment.len() {
            break;
        }
        if segment[pos + 16] == 3 {
            out.push((pos, end));
        }
        pos = end;
    }
    out
}

/// The coauthor history `tests/on_disk_format.rs` pins, at scale 0.05.
fn small_history() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.05).generate(11);
    let mut links: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    links.sort_by_key(|&(_, _, t)| t);
    links
}

/// An explicit `try_refit` is logged like an automatic one, so a
/// reopen installs it: with automatic refits off, the live predictor is
/// fitted only by the explicit call, and the recovered one must serve
/// the same model, epoch, scores and refit tallies.
#[test]
#[allow(clippy::expect_used)]
fn explicit_refit_survives_reopen() {
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 5,
            ..MethodOptions::default()
        })
        .refit_every(u32::MAX)
        .min_positives(10)
        .build()
        .expect("valid configuration");
    let dir = scratch("explicit-refit");
    let events = small_history();
    let mut live = OnlineLinkPredictor::with_durability(
        config.clone(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    for &(u, v, t) in &events {
        live.observe(u, v, t);
    }
    assert!(!live.is_fitted(), "automatic refits are off");
    live.try_refit().expect("the whole history fits");
    assert!(live.last_wal_error().is_none());
    let (snap, score) = (live.clone(), live.score(3, 17));
    assert!(score.is_some());
    drop(live);

    let (mut recovered, report) =
        OnlineLinkPredictor::open(config, &dir).expect("reopen");
    assert!(!report.is_lossy(), "{report:?}");
    assert_eq!(report.records_replayed, events.len() as u64);
    assert_eq!(report.models_installed, 1);
    assert_eq!(
        recovered.score(3, 17).map(f64::to_bits),
        score.map(f64::to_bits)
    );
    assert_same_refits(&recovered, &snap);
    let mut twin = snap;
    assert_bit_identical(&mut recovered, &mut twin);
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// A failed explicit `try_refit` is logged too (a model record with no
/// model bytes), so replay attempts it again and fails the same way:
/// the recovered refit tallies and backoff — and so every later due
/// refit — match the live run's, and no logged model is rejected or
/// cut.
#[test]
#[allow(clippy::expect_used)]
fn failed_explicit_refit_replays_with_the_live_backoff() {
    let config = OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            ..MethodOptions::default()
        })
        .refit_every(1)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid configuration");
    let dir = scratch("failed-explicit");
    let events = clean_events();
    let mut live = OnlineLinkPredictor::with_durability(
        config.clone(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    let (u, v, t) = events[0];
    live.observe(u, v, t);
    assert!(live.try_refit().is_err(), "one link is too few");
    for &(u, v, t) in &events[1..] {
        live.observe(u, v, t);
    }
    let h = live.health();
    assert!(h.failed_refits >= 2, "{h:?}");
    assert!(h.successful_refits >= 1, "later due refits succeed: {h:?}");
    assert!(live.last_wal_error().is_none());
    let twin = live.clone();
    drop(live);

    let (mut recovered, report) =
        OnlineLinkPredictor::open(config, &dir).expect("reopen");
    assert!(!report.tail_truncated, "{report:?}");
    assert!(!report.is_lossy(), "{report:?}");
    assert_eq!(report.records_replayed, events.len() as u64);
    assert_eq!(report.models_installed, h.successful_refits);
    assert_same_refits(&recovered, &twin);
    let mut twin = twin;
    assert_bit_identical(&mut recovered, &mut twin);
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// Explicit refits logged around reopens and checkpoints replay exactly
/// once: one right after a reopen lands in a segment that holds only
/// models, which the next reopen keeps; one right before a checkpoint
/// stays on disk but is covered by the snapshot's install count, so
/// replay skips it.
#[test]
#[allow(clippy::expect_used)]
fn explicit_refits_around_reopens_and_checkpoints_replay_once() {
    let dir = scratch("explicit-around");
    let events = clean_events();
    let mid = events.len() / 2;
    let open = || {
        OnlineLinkPredictor::with_durability(
            durable_config(),
            &dir,
            fast_policy(),
        )
        .expect("open")
    };
    let mut p = open();
    for &(u, v, t) in &events[..mid] {
        p.observe(u, v, t);
    }
    p.checkpoint().expect("checkpoint");
    drop(p);
    let mut p = open();
    p.try_refit().expect("refit after a reopen");
    let live = p.clone();
    drop(p);
    // Twice: the first reopen must keep the segment it installed from.
    for _ in 0..2 {
        let (p, report) =
            OnlineLinkPredictor::open(durable_config(), &dir).expect("reopen");
        assert_eq!((report.records_replayed, report.models_installed), (0, 1));
        assert_same_refits(&p, &live);
    }
    let (mut p, _) =
        OnlineLinkPredictor::open(durable_config(), &dir).expect("reopen");
    // A second explicit refit, then a checkpoint with no event between.
    p.try_refit().expect("second refit");
    p.checkpoint().expect("checkpoint after the refit");
    let live = p.clone();
    drop(p);
    for _ in 0..2 {
        let (p, report) =
            OnlineLinkPredictor::open(durable_config(), &dir).expect("reopen");
        assert!(!report.is_lossy(), "{report:?}");
        assert_eq!((report.records_replayed, report.models_installed), (0, 0));
        assert_same_refits(&p, &live);
    }
    // Events after all this still replay onto the same state.
    let mut p = open();
    let mut twin = live;
    for &(u, v, t) in &events[mid..] {
        p.observe(u, v, t);
        twin.observe(u, v, t);
    }
    drop(p);
    let (mut p, report) =
        OnlineLinkPredictor::open(durable_config(), &dir).expect("reopen");
    assert!(!report.is_lossy(), "{report:?}");
    assert_eq!(report.records_replayed, (events.len() - mid) as u64);
    assert_same_refits(&p, &twin);
    assert_bit_identical(&mut p, &mut twin);
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// Recovery installs the logged models instead of fitting: reopening a
/// directory whose WAL tail crossed refits records no `ssf.model.fit`
/// span, installs one model per successful refit in the tail, and
/// serves the live predictor's bits and refit state.
#[test]
#[allow(clippy::expect_used)]
fn reopen_installs_logged_models_without_fitting() {
    use ssf_repro::obs::{ObsHandle, Registry};
    use std::sync::Arc;
    let events = clean_events();
    let dir = scratch("no-fit-reopen");
    let mid = events.len() / 2;
    let mut live = OnlineLinkPredictor::with_durability(
        durable_config(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    let mut refits_at_checkpoint = 0;
    for (i, &(u, v, t)) in events.iter().enumerate() {
        live.observe(u, v, t);
        if i + 1 == mid {
            live.checkpoint().expect("checkpoint");
            refits_at_checkpoint = live.health().successful_refits;
        }
    }
    let tail_refits = live.health().successful_refits - refits_at_checkpoint;
    assert!(tail_refits > 0, "the WAL tail must cross a refit");
    let twin = live.clone();
    drop(live);

    let registry = Arc::new(Registry::new());
    let (mut recovered, report) = OnlineLinkPredictor::open_with(
        durable_config(),
        &dir,
        fast_policy(),
        ObsHandle::of_registry(Arc::clone(&registry)),
    )
    .expect("reopen");
    let snap = registry.snapshot();
    assert!(!report.is_lossy(), "{report:?}");
    assert_eq!(report.models_installed, tail_refits);
    assert_eq!(report.records_replayed, (events.len() - mid) as u64);
    assert_eq!(snap.histogram("ssf.model.fit").map_or(0, |h| h.count()), 0);
    assert_eq!(snap.counter("ssf.persist.models_installed"), tail_refits);
    assert_same_refits(&recovered, &twin);
    let mut twin = twin;
    assert_bit_identical(&mut recovered, &mut twin);

    // The writer resumed past every record on disk: a second reopen
    // replays the same tail and appends nothing.
    drop(recovered);
    let (_, again) =
        OnlineLinkPredictor::open(durable_config(), &dir).expect("reopen");
    assert_eq!(again, report);
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// Rewinding to the revision an event that refit reached consumes that
/// refit's logged model with it: the rewound predictor serves the model
/// an uninterrupted run through that event fitted.
#[test]
#[allow(clippy::expect_used)]
fn open_to_revision_at_a_refitting_event_installs_its_model() {
    let events = clean_events();
    let dir = scratch("rewind-refit");
    let mut live = OnlineLinkPredictor::with_durability(
        durable_config(),
        &dir,
        fast_policy(),
    )
    .expect("fresh durable predictor");
    // (event index, revision after it) of every event whose refit
    // installed a model.
    let mut refitting = Vec::new();
    for (i, &(u, v, t)) in events.iter().enumerate() {
        let before = live.health().successful_refits;
        live.observe(u, v, t);
        if live.health().successful_refits > before {
            refitting.push((i, live.network().revision()));
        }
    }
    drop(live);
    assert!(refitting.len() >= 2, "the stream must refit repeatedly");
    let (i, revision) = refitting[refitting.len() / 2];
    let (mut rewound, report) =
        OnlineLinkPredictor::open_to_revision(durable_config(), &dir, revision)
            .expect("rewind");
    assert_eq!(report.records_replayed, i as u64 + 1);
    assert_eq!(report.models_installed, (refitting.len() / 2 + 1) as u64);
    assert_eq!(rewound.model_epoch(), Some(revision));
    let mut twin = OnlineLinkPredictor::new(durable_config());
    for &(u, v, t) in &events[..=i] {
        twin.observe(u, v, t);
    }
    assert_same_refits(&rewound, &twin);
    assert_bit_identical(&mut rewound, &mut twin);
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Save → load of a random predictor state round-trips every
    /// observable: graph queries through the `GraphView` trait, the
    /// revision counter, and the (possibly absent) model. Shrinking
    /// covers the empty-graph, single-event and unfitted-model edges.
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        events in prop::collection::vec(
            (0..24u32, 0..24u32, 1..40u32)
                .prop_filter("no self-loops", |(u, v, _)| u != v),
            0..120,
        ),
    ) {
        let mut events = events;
        events.sort_by_key(|&(_, _, t)| t);
        let dir = scratch("prop-roundtrip");
        let mut p = OnlineLinkPredictor::with_durability(
            graph_only_config(),
            &dir,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        for &(u, v, t) in &events {
            p.observe(u, v, t);
        }
        p.checkpoint().expect("checkpoint");
        let revision = p.network().revision();
        let links = p.network().link_count();
        drop(p);

        let (recovered, report) =
            OnlineLinkPredictor::open(graph_only_config(), &dir)
                .expect("recovery of a clean checkpoint");
        prop_assert!(!report.is_lossy());
        prop_assert_eq!(report.records_replayed, 0u64);
        prop_assert_eq!(recovered.network().revision(), revision);
        prop_assert_eq!(recovered.network().link_count(), links);
        prop_assert!(!recovered.is_fitted(), "graph-only config never fits");
    }

    /// The raw graph codec round-trips every CSR query of a frozen
    /// random network, including the empty one.
    #[test]
    fn frozen_graph_codec_round_trips_all_queries(
        events in prop::collection::vec(
            (0..16u32, 0..16u32, 1..30u32)
                .prop_filter("no self-loops", |(u, v, _)| u != v),
            0..80,
        ),
    ) {
        let mut events = events;
        events.sort_by_key(|&(_, _, t)| t);
        let mut g = DynamicNetwork::new();
        for &(u, v, t) in &events {
            g.add_link(u, v, t);
        }
        let frozen = FrozenGraph::from_view(&g);
        let mut w = SnapshotWriter::new();
        encode_graph(&frozen, &mut w);
        let bytes = w.to_bytes();
        let r = ssf_repro::ssf_persist::SnapshotReader::from_bytes(&bytes)
            .expect("container round trip");
        let back = decode_graph(&r).expect("graph decode");

        prop_assert_eq!(back.revision(), frozen.revision());
        prop_assert_eq!(back.node_count(), frozen.node_count());
        prop_assert_eq!(back.link_count(), frozen.link_count());
        prop_assert_eq!(back.max_timestamp(), frozen.max_timestamp());
        for u in 0..frozen.node_count() as u32 {
            prop_assert_eq!(back.degree(u), frozen.degree(u));
            prop_assert_eq!(
                back.neighbors(u), frozen.neighbors(u),
                "neighbors diverged at node {}", u
            );
        }
    }

    /// Recovery over arbitrarily mangled WAL bytes — truncated at any
    /// offset, bit-flipped, or with duplicated record bytes — either
    /// recovers a valid prefix or fails with a typed error. It never
    /// panics, and what it recovers is bit-identical to an
    /// uninterrupted run over the surviving prefix.
    #[test]
    fn mangled_wal_recovers_a_prefix_or_fails_typed(
        n_events in 10..200usize,
        mode in 0..3usize,
        fault_seed in 0..u64::MAX,
    ) {
        use std::io::Read as _;
        let events = clean_events();
        let events = &events[..n_events];
        let master = scratch("prop-wal-master");
        let mut p = OnlineLinkPredictor::with_durability(
            graph_only_config(),
            &master,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        for &(u, v, t) in events {
            p.observe(u, v, t);
        }
        p.sync_wal().expect("sync");
        drop(p);

        let seg = live_segment(&master);
        let clean = fs::read(&seg).expect("read segment");
        let mangled = match mode {
            // Torn tail at an arbitrary byte.
            0 => {
                let cut = (fault_seed % (clean.len() as u64 + 1)) as usize;
                clean[..cut].to_vec()
            }
            // Sparse bit flips over the whole file.
            1 => {
                let mut out = Vec::new();
                FaultyReader::new(
                    clean.as_slice(),
                    FaultConfig {
                        bit_flip_rate: 0.002,
                        seed: fault_seed,
                        ..FaultConfig::default()
                    },
                )
                .read_to_end(&mut out)
                .expect("in-memory fault injection");
                out
            }
            // Duplicated record bytes appended at the tail.
            _ => {
                let mut out = clean.clone();
                let tail = clean.len().saturating_sub(29);
                out.extend_from_slice(&clean[tail..]);
                out
            }
        };
        fs::write(&seg, &mangled).expect("write mangled segment");

        match OnlineLinkPredictor::open(graph_only_config(), &master) {
            Ok((recovered, report)) => {
                let h = recovered.health();
                let survived = (h.accepted + h.quarantined) as usize;
                prop_assert!(survived <= events.len());
                prop_assert_eq!(
                    report.records_replayed as usize, survived
                );
                let mut twin =
                    OnlineLinkPredictor::new(graph_only_config());
                for &(u, v, t) in &events[..survived] {
                    twin.observe(u, v, t);
                }
                prop_assert_eq!(
                    recovered.network().revision(),
                    twin.network().revision()
                );
                let n = (twin.network().node_count() as NodeId).min(10);
                for u in 0..n {
                    for v in (u + 1)..n {
                        prop_assert_eq!(
                            recovered.score(u, v).map(f64::to_bits),
                            twin.score(u, v).map(f64::to_bits)
                        );
                    }
                }
            }
            Err(e) => prop_assert!(
                matches!(e, SsfError::Corrupt { .. }),
                "recovery must fail typed, got: {}", e
            ),
        }
    }
}

/// The WAL segment of a refitting durable run over [`clean_events`],
/// built once.
#[allow(clippy::expect_used)] // test helper
fn refitting_segment() -> &'static [u8] {
    static SEGMENT: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    SEGMENT.get_or_init(|| {
        let master = scratch("prop-refit-master");
        let mut p = OnlineLinkPredictor::with_durability(
            durable_config(),
            &master,
            fast_policy(),
        )
        .expect("fresh durable predictor");
        for &(u, v, t) in &clean_events() {
            p.observe(u, v, t);
        }
        drop(p);
        let bytes = fs::read(live_segment(&master)).expect("read segment");
        fs::remove_dir_all(&master).expect("remove scratch dir");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The refitting twin of `mangled_wal_recovers_a_prefix_or_fails_typed`:
    /// one model record of a refitting run's WAL is torn, bit-flipped
    /// or duplicated. Recovery keeps the prefix before a torn or
    /// flipped record (whose refit is fitted again) and skips a
    /// duplicate, or fails typed; what it recovers — scores and refit
    /// state — is bit-identical to an uninterrupted run over the
    /// surviving events.
    #[test]
    fn mangled_model_record_recovers_a_prefix_or_fails_typed(
        mode in 0..3usize,
        fault_seed in 0..u64::MAX,
    ) {
        let clean = refitting_segment();
        let models = model_records(clean);
        prop_assert!(!models.is_empty(), "the history must refit");
        let which = (fault_seed % models.len() as u64) as usize;
        let (start, end) = models[which];
        let mangled = match mode {
            // Torn inside the model record.
            0 => {
                let cut = start + 1 + (fault_seed >> 8) as usize % (end - start - 1);
                clean[..cut].to_vec()
            }
            // One bit flipped in its payload.
            1 => {
                let mut out = clean.to_vec();
                let at = start + 8 + (fault_seed >> 8) as usize % (end - start - 8);
                out[at] ^= 1 << (fault_seed % 8);
                out
            }
            // The whole record duplicated in place.
            _ => {
                let mut out = clean[..end].to_vec();
                out.extend_from_slice(&clean[start..]);
                out
            }
        };
        let dir = scratch("prop-refit-case");
        fs::write(dir.join("wal-00000000000000000000.log"), &mangled)
            .expect("write mangled segment");
        match OnlineLinkPredictor::open(durable_config(), &dir) {
            Ok((mut recovered, report)) => {
                let h = recovered.health();
                let survived = (h.accepted + h.quarantined) as usize;
                prop_assert_eq!(report.records_replayed as usize, survived);
                if mode == 2 {
                    // The copy repeats an installed ordinal: skipped, and
                    // the rest of the log replays.
                    prop_assert!(!report.is_lossy());
                    prop_assert_eq!(survived, clean_events().len());
                    prop_assert_eq!(report.models_installed as usize, models.len());
                } else {
                    prop_assert!(report.is_lossy());
                    prop_assert_eq!(report.models_installed as usize, which);
                }
                let mut twin = OnlineLinkPredictor::new(durable_config());
                for &(u, v, t) in &clean_events()[..survived] {
                    twin.observe(u, v, t);
                }
                assert_same_refits(&recovered, &twin);
                assert_bit_identical(&mut recovered, &mut twin);
            }
            Err(e) => prop_assert!(
                matches!(e, SsfError::Corrupt { .. }),
                "recovery must fail typed, got: {}", e
            ),
        }
        fs::remove_dir_all(&dir).expect("remove scratch dir");
    }
}
