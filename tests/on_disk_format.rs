//! On-disk format pins and hostile snapshot counts.
//!
//! The snapshot and WAL bytes a small fixed history produces are
//! compared byte for byte with checked-in fixtures, so any change to an
//! encoder or to the CRC-32 that stamps every section and record shows
//! up as a diff here. The fixtures were written by the same history and
//! configuration:
//!
//! * `tests/fixtures/format_v3.ssf1` — the checkpoint taken before the
//!   last [`WAL_EVENTS`] events, with a fitted model;
//! * `tests/fixtures/format_v1.wal` — the live WAL segment holding
//!   those last events, logged after that checkpoint;
//! * `tests/fixtures/format_v1_model.wal` — the live segment of the
//!   same history checkpointed [`MODEL_WAL_EVENTS`] events before its
//!   end, a tail that crosses one refit and so holds one model record
//!   (kind 3) between its events.
//!
//! Only a deliberate format change may regenerate them.
//!
//! The second half feeds `graph.meta` counts no section can back into
//! every load path, each file otherwise valid down to its checksums:
//! loading must fail with a typed corruption, never abort.

use std::fs;
use std::path::{Path, PathBuf};

use ssf_repro::datasets::DatasetSpec;
use ssf_repro::prelude::*;
use ssf_repro::ssf_persist::codec::put_u64;
use ssf_repro::ssf_persist::{
    decode_graph, PersistError, SnapshotReader, SnapshotWriter,
};

/// Events after the checkpoint, which only the WAL holds.
const WAL_EVENTS: usize = 40;
/// A longer tail, which crosses the history's last refit.
const MODEL_WAL_EVENTS: usize = 80;

/// Refits every 5 ticks so the checkpoint carries a fitted model.
#[allow(clippy::expect_used)] // test helper
fn config() -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 5,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid configuration")
}

fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        fsync: FsyncPolicy::Never,
        ..DurabilityPolicy::default()
    }
}

fn history() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.05).generate(11);
    let mut links: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    links.sort_by_key(|&(_, _, t)| t);
    links
}

/// Fresh scratch directory (removed first if a previous run left one).
#[allow(clippy::expect_used)] // test helper
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("ssf-format-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Replays [`history`] into a durable predictor at `dir`, checkpoints
/// before its last `tail` events and logs those. Returns the snapshot
/// and the live WAL segment.
#[allow(clippy::expect_used)] // test helper
fn write_history(dir: &Path, tail: usize) -> (PathBuf, PathBuf) {
    let mut p = OnlineLinkPredictor::with_durability(config(), dir, policy())
        .expect("open a fresh durable predictor");
    let events = history();
    let (before, after) = events.split_at(events.len() - tail);
    for &(u, v, t) in before {
        p.observe(u, v, t);
    }
    assert!(p.is_fitted(), "the fixture must carry a fitted model");
    let snapshot = p.checkpoint().expect("checkpoint");
    for &(u, v, t) in after {
        p.observe(u, v, t);
    }
    assert!(p.last_wal_error().is_none());
    drop(p);
    let mut wal: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read durability dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    assert_eq!(wal.len(), 1, "one live segment after the checkpoint");
    (snapshot, wal.remove(0))
}

#[test]
#[allow(clippy::expect_used)]
fn snapshot_and_wal_bytes_match_the_fixtures() {
    let dir = scratch("pin");
    let (snapshot, wal) = write_history(&dir, WAL_EVENTS);
    let snapshot = fs::read(snapshot).expect("read snapshot");
    let wal = fs::read(wal).expect("read WAL segment");
    assert!(
        snapshot == include_bytes!("fixtures/format_v3.ssf1"),
        "snapshot bytes moved ({} bytes written)",
        snapshot.len()
    );
    assert!(
        wal == include_bytes!("fixtures/format_v1.wal"),
        "WAL bytes moved ({} bytes written)",
        wal.len()
    );
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// The model record's framing, payload layout and checksum are pinned
/// too: a tail that crosses a refit logs the installed model right
/// after the event that made it due.
#[test]
#[allow(clippy::expect_used)]
fn wal_with_a_model_record_matches_its_fixture() {
    let dir = scratch("pin-model");
    let (_, wal) = write_history(&dir, MODEL_WAL_EVENTS);
    let wal = fs::read(wal).expect("read WAL segment");
    let events_only = 16 + 29 * MODEL_WAL_EVENTS;
    assert!(wal.len() > events_only, "the tail must hold a model record");
    assert!(
        wal == include_bytes!("fixtures/format_v1_model.wal"),
        "WAL bytes moved ({} bytes written)",
        wal.len()
    );
    // Its last events are the short tail's, record for record.
    let short = include_bytes!("fixtures/format_v1.wal");
    assert!(wal.ends_with(&short[16..]));
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}

/// Rewrites `graph.meta` of the snapshot at `path` to claim `links`
/// links over `nodes` nodes; every section keeps a valid checksum.
#[allow(clippy::expect_used)] // test helper
fn rewrite_counts(path: &Path, links: u64, nodes: u64) {
    let r = SnapshotReader::open(path).expect("open snapshot");
    let mut meta = r.require("graph.meta").expect("graph.meta").to_vec();
    let mut counts = Vec::new();
    put_u64(&mut counts, links);
    put_u64(&mut counts, nodes);
    meta[..16].copy_from_slice(&counts);
    let mut w = SnapshotWriter::new();
    for name in r.section_names() {
        let payload = match name {
            "graph.meta" => meta.clone(),
            _ => r.require(name).expect("section").to_vec(),
        };
        w.section(name, payload);
    }
    w.write_atomic(path).expect("rewrite snapshot");
}

/// Counts no section can back — 2^40 links would ask for 8.8 TB,
/// `i64::MAX` links overflow a `Vec` capacity — are a typed corruption
/// on every load path, never an abort. `open` skips the snapshot as
/// corrupt, like any other that fails to decode, and says so.
#[test]
#[allow(clippy::expect_used)]
fn hostile_graph_counts_are_corrupt_on_every_load_path() {
    let dir = scratch("hostile");
    let (snapshot, _) = write_history(&dir, WAL_EVENTS);
    let original = fs::read(&snapshot).expect("read snapshot");
    let nodes = {
        let r = SnapshotReader::open(&snapshot).expect("open snapshot");
        decode_graph(&r).expect("decode").node_count() as u64
    };
    for (links, nodes) in
        [(1u64 << 40, nodes), (i64::MAX as u64, nodes), (0, u64::MAX)]
    {
        fs::write(&snapshot, &original).expect("restore snapshot");
        rewrite_counts(&snapshot, links, nodes);
        let r = SnapshotReader::open(&snapshot).expect("checksums hold");
        assert!(
            matches!(decode_graph(&r), Err(PersistError::Corrupt { .. })),
            "decode_graph accepted ({links}, {nodes})"
        );
        match ScoringSnapshot::load(&snapshot) {
            Err(SsfError::Corrupt { .. }) => {}
            other => panic!("load ({links}, {nodes}): {:?}", other.err()),
        }
        let (_, report) =
            OnlineLinkPredictor::open(config(), &dir).expect("open recovers");
        assert_eq!(report.corrupt_snapshots, std::slice::from_ref(&snapshot));
        assert!(report.is_lossy());
    }
    fs::remove_dir_all(&dir).expect("remove scratch dir");
}
