//! Segmented write-ahead log for the ingest stream.
//!
//! Every `observe()` call on a durable predictor appends one record
//! *before* the in-memory state mutates; recovery replays the tail on
//! top of the latest snapshot through the exact same code path, which
//! is what makes recovered scores bit-identical. Every model the
//! predictor installs is logged too, right after the operation that
//! installed it, so recovery can install the logged bytes instead of
//! fitting the model again.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! segment file "wal-<start_seq, 20 digits>.log":
//!   magic   "SSFW"              4 bytes
//!   version u32 (currently 1)   4 bytes
//!   start   u64 first sequence  8 bytes
//!   record, repeated:
//!     len  u32 payload length   4 bytes
//!     crc  u32 CRC-32(payload)  4 bytes
//!     payload                   len bytes
//! event payload (kind 1):
//!   seq u64, kind u8 = 1, u u32, v u32, t u32   (21 bytes)
//! advance payload (kind 2):
//!   seq u64, kind u8 = 2, horizon u32           (13 bytes)
//! model payload (kind 3):
//!   seq u64, kind u8 = 3, epoch u64, ordinal u64,
//!   explicit u8 (0 or 1), model bytes           (26 + model bytes)
//! ```
//!
//! Events and advances each take the next sequence number. A model
//! takes none of its own: it carries the number the next event or
//! advance will take, so any number of models may sit between two
//! operations and event numbering is the same with or without them.
//! Its `ordinal` (how many refits the writer's predictor had attempted,
//! this one included) orders models among themselves. An explicit
//! refit that failed is logged as a model record with no model bytes,
//! so replay attempts it too.
//!
//! A model payload is as long as the serialized model (tens of
//! kilobytes); replay bounds every record by the bytes actually left in
//! the segment it has read, never by the length field alone. Readers
//! that predate kind 3 stop at the first model record as at any
//! corrupt record: they keep the prefix before it and report the rest
//! as a dropped tail.
//!
//! Records carry their sequence number explicitly and replay enforces
//! strict `+1` continuity within and across segments, so duplicated or
//! reordered operations are detected exactly like checksum failures:
//! the log has a valid prefix and a rejected tail, never a
//! silently-wrong middle. A duplicated model record still carries a
//! valid sequence number; its repeated ordinal is what tells it from a
//! new install. [`replay`] optionally repairs in place — truncating the torn
//! segment at the first bad byte and deleting unreachable later
//! segments — so the writer can always resume appending cleanly.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::codec::{put_u32, put_u64};
use crate::crc::crc32;
use crate::error::PersistError;

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"SSFW";
/// Current WAL format version.
pub const VERSION: u32 = 1;
/// Segment header size in bytes.
const HEADER_LEN: u64 = 16;
/// Payload kind tag for a link event.
const KIND_EVENT: u8 = 1;
/// Payload kind tag for a window advance.
const KIND_ADVANCE: u8 = 2;
/// Payload kind tag for an installed model.
const KIND_MODEL: u8 = 3;
/// Encoded size of an event payload.
const EVENT_PAYLOAD: usize = 21;
/// Encoded size of an advance payload.
const ADVANCE_PAYLOAD: usize = 13;
/// Encoded size of a model payload before the model bytes.
const MODEL_HEADER: usize = 26;

/// When appended records reach the disk platter.
///
/// The write itself always happens immediately (the OS page cache sees
/// every record, so a process crash loses nothing); the policy only
/// governs `fsync`, i.e. what a *machine* crash can take with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record: zero loss on power failure, slowest.
    #[default]
    Always,
    /// fsync every `n` records: bounded loss window, amortized cost.
    EveryN(u32),
    /// Never fsync explicitly; the OS flushes at its leisure.
    Never,
}

/// Writer-side configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Durability of each append; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one reaches this many
    /// bytes. Checkpoints delete whole segments, so smaller segments
    /// mean finer-grained truncation at the cost of more files.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::default(),
            segment_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One decoded WAL record: an operation with its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Position in the global event sequence, starting at 0.
    pub seq: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// The operation a WAL record carries. Advances share the event
/// sequence space, so strict `+1` continuity covers both kinds and a
/// replayed stream interleaves them exactly as the writer logged them;
/// a model carries the sequence number of the operation after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A link event, as passed to `observe`.
    Event {
        /// First endpoint.
        u: u32,
        /// Second endpoint.
        v: u32,
        /// Event timestamp.
        t: u32,
    },
    /// An explicit sliding-window advance to a new horizon.
    Advance {
        /// The new window horizon.
        horizon: u32,
    },
    /// A model the predictor installed, logged right after the
    /// operation that installed it, or an explicit refit that failed.
    Model {
        /// Graph revision the model was fitted at.
        epoch: u64,
        /// How many refits the predictor had attempted, this one
        /// included.
        ordinal: u64,
        /// `true` for an explicit refit, `false` for the refit an event
        /// made due.
        explicit: bool,
        /// The serialized model; empty for an explicit refit that
        /// failed.
        bytes: Vec<u8>,
    },
}

/// Whether replay should keep consuming records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayStep {
    /// Deliver the next record.
    Continue,
    /// Stop cleanly; remaining valid records stay on disk untouched.
    Stop,
}

/// What a [`replay`] pass found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Events and advances delivered to the callback
    /// (`seq >= from_seq`): the sequence numbers replay consumed. Model
    /// records are delivered too but consume none, so they are not
    /// counted.
    pub records_replayed: u64,
    /// Valid records below `from_seq` (already covered by a snapshot).
    pub records_skipped: u64,
    /// Bytes discarded as a torn or corrupt tail, across all segments.
    pub bytes_dropped: u64,
    /// `true` if any corruption was hit (the tail after it is gone).
    pub tail_truncated: bool,
    /// Segment files visited.
    pub segments_scanned: u64,
    /// Segment files deleted during repair.
    pub segments_removed: u64,
}

/// Lists `wal-*.log` segments in `dir`, sorted by start sequence.
///
/// # Errors
///
/// Returns [`PersistError::Io`] if the directory cannot be read.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
        else {
            continue;
        };
        if let Ok(start) = stem.parse::<u64>() {
            out.push((start, path));
        }
    }
    out.sort();
    Ok(out)
}

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("wal-{start_seq:020}.log"))
}

/// Append-only WAL writer. Single-owner: the durable predictor holds
/// exactly one per directory.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    opts: WalOptions,
    file: File,
    seg_start: u64,
    seg_bytes: u64,
    next_seq: u64,
    unsynced: u32,
    /// Set when a failed append could not be rolled back: the segment
    /// may end in a partial record, so anything written after it would
    /// be unreachable at replay. A poisoned writer refuses all further
    /// appends instead of silently stranding them.
    poisoned: bool,
}

impl WalWriter {
    /// Opens a writer whose next record will carry `next_seq`, starting
    /// a fresh segment there. Called after recovery (which reports the
    /// sequence it replayed up to) or on a brand-new directory with
    /// `next_seq == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure.
    pub fn create(
        dir: &Path,
        next_seq: u64,
        opts: WalOptions,
    ) -> Result<Self, PersistError> {
        fs::create_dir_all(dir)?;
        let (file, seg_bytes) = Self::open_segment(dir, next_seq)?;
        Ok(WalWriter {
            dir: dir.to_path_buf(),
            opts,
            file,
            seg_start: next_seq,
            seg_bytes,
            next_seq,
            unsynced: 0,
            poisoned: false,
        })
    }

    /// Opens the segment starting at `start_seq`, positioned at its
    /// end. A file that already holds exactly that header, optionally
    /// followed by whole model records logged before the first
    /// operation at `start_seq`, is reused as is: an earlier writer that
    /// appended no event left it — as every reopen without new events
    /// does — and its models are part of the log. Anything else there is
    /// truncated and the header written afresh. Truncating a file that
    /// holds data can take tens of milliseconds (measured on ext4),
    /// which the reuse keeps off every reopen.
    fn open_segment(
        dir: &Path,
        start_seq: u64,
    ) -> Result<(File, u64), PersistError> {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        put_u32(&mut header, VERSION);
        put_u64(&mut header, start_seq);
        let path = segment_path(dir, start_seq);
        if let Some(reused) =
            Self::reuse_models_only(&path, &header, start_seq)?
        {
            return Ok(reused);
        }
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(&header)?;
        Ok((file, HEADER_LEN))
    }

    /// `path` opened for appending and its length, if it holds exactly
    /// `header` followed by nothing but whole model records at the
    /// header's start sequence. A file that cannot be opened for
    /// reading and writing is left to the truncating open, which
    /// reports any real error.
    fn reuse_models_only(
        path: &Path,
        header: &[u8],
        start_seq: u64,
    ) -> io::Result<Option<(File, u64)>> {
        let Ok(mut file) = OpenOptions::new().read(true).write(true).open(path)
        else {
            return Ok(None);
        };
        let len = file.metadata()?.len();
        if len < HEADER_LEN {
            return Ok(None);
        }
        let mut found = Vec::new();
        file.read_to_end(&mut found)?;
        if found[..HEADER_LEN as usize] != *header {
            return Ok(None);
        }
        let mut pos = HEADER_LEN as usize;
        while pos < found.len() {
            match decode_record(&found[pos..], start_seq) {
                Some((
                    WalRecord {
                        op: WalOp::Model { .. },
                        ..
                    },
                    used,
                )) => pos += used,
                _ => return Ok(None),
            }
        }
        // The cursor now sits at the end, where the next record goes.
        Ok(Some((file, len)))
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one link event, returning its sequence number. Rotates
    /// to a new segment first if the current one is full, and applies
    /// the fsync policy after the write.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure. The caller
    /// must treat an error as "not logged" and surface the durability
    /// degradation; the in-memory state may still advance. A failed
    /// write rolls the segment back to the last whole record so later
    /// appends stay reachable at replay; if even the rollback fails the
    /// writer is poisoned and every further append errors immediately
    /// (reopening the log repairs the torn segment).
    pub fn append(
        &mut self,
        u: u32,
        v: u32,
        t: u32,
    ) -> Result<u64, PersistError> {
        self.append_record(KIND_EVENT, EVENT_PAYLOAD, |p| {
            put_u32(p, u);
            put_u32(p, v);
            put_u32(p, t);
        })
    }

    /// Appends one window-advance record, returning its sequence
    /// number. Advances share the sequence space with link events, so
    /// replay reproduces the exact interleaving of inserts and expiries.
    ///
    /// # Errors
    ///
    /// Same conditions and rollback behavior as
    /// [`WalWriter::append`].
    pub fn append_advance(
        &mut self,
        horizon: u32,
    ) -> Result<u64, PersistError> {
        self.append_record(KIND_ADVANCE, ADVANCE_PAYLOAD, |p| {
            put_u32(p, horizon);
        })
    }

    /// Appends one installed model — its epoch, its ordinal among the
    /// refit attempts, whether an explicit refit installed it, and its
    /// serialized bytes (none for an explicit refit that failed). The
    /// record carries [`Self::next_seq`], which it
    /// does not consume; that number is returned.
    ///
    /// # Errors
    ///
    /// Same conditions and rollback behavior as
    /// [`WalWriter::append`].
    pub fn append_model(
        &mut self,
        epoch: u64,
        ordinal: u64,
        explicit: bool,
        model: &[u8],
    ) -> Result<u64, PersistError> {
        self.append_record(KIND_MODEL, MODEL_HEADER + model.len(), |p| {
            put_u64(p, epoch);
            put_u64(p, ordinal);
            p.push(u8::from(explicit));
            p.extend_from_slice(model);
        })
    }

    /// Appends one record of `kind` whose payload is `len` bytes: the
    /// sequence number, the kind, then what `body` writes. Every kind
    /// but a model consumes the sequence number.
    fn append_record(
        &mut self,
        kind: u8,
        len: usize,
        body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64, PersistError> {
        if self.poisoned {
            return Err(PersistError::Io(io::Error::other(
                "WAL writer poisoned: an earlier failed append could \
                 not be rolled back; reopen the log to repair it",
            )));
        }
        let Ok(len32) = u32::try_from(len) else {
            return Err(PersistError::Io(io::Error::other(
                "WAL record payload exceeds 4 GiB",
            )));
        };
        // A segment holding only models has no operation to end it
        // after: the next one would start at the same sequence number.
        if self.seg_bytes >= self.opts.segment_bytes
            && self.seg_start < self.next_seq
        {
            self.rotate()?;
        }
        let seq = self.next_seq;
        // Length and checksum go in front once the payload is built in
        // place behind them: one buffer, one write.
        let mut record = Vec::with_capacity(8 + len);
        record.resize(8, 0);
        put_u64(&mut record, seq);
        record.push(kind);
        body(&mut record);
        debug_assert_eq!(record.len(), 8 + len, "payload length");
        let crc = crc32(&record[8..]);
        record[..4].copy_from_slice(&len32.to_le_bytes());
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        if let Err(e) = self.file.write_all(&record) {
            // Part of the record may already be on disk. Left there, it
            // would become a torn *middle* once the next append lands
            // after it — replay truncates at the first bad byte, so
            // every later record would be silently unreachable. Roll
            // back to the last whole record; if that fails too, refuse
            // all further appends rather than strand them.
            if self.restore_tail().is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.seg_bytes += record.len() as u64;
        if kind != KIND_MODEL {
            self.next_seq += 1;
        }
        match self.opts.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Drops any partially written bytes past the last whole record,
    /// restoring the segment length *and* the file cursor to the last
    /// known-good boundary.
    fn restore_tail(&mut self) -> io::Result<()> {
        self.file.set_len(self.seg_bytes)?;
        self.file.seek(SeekFrom::Start(self.seg_bytes))?;
        Ok(())
    }

    /// `true` once a failed append could not be rolled back; the writer
    /// refuses further appends until the log is reopened (which repairs
    /// the torn segment during replay).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Forces all appended records to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if `fsync` fails.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Closes the current segment and starts a fresh one at
    /// [`Self::next_seq`].
    fn rotate(&mut self) -> Result<(), PersistError> {
        self.sync()?;
        let (file, seg_bytes) = Self::open_segment(&self.dir, self.next_seq)?;
        self.file = file;
        self.seg_start = self.next_seq;
        self.seg_bytes = seg_bytes;
        Ok(())
    }

    /// Checkpoint truncation: rotates so the live segment starts at the
    /// current [`Self::next_seq`], then deletes every segment whose
    /// records all fall below `seq` (i.e. are covered by a snapshot).
    /// Returns the number of segments removed.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure.
    pub fn truncate_below(&mut self, seq: u64) -> Result<u64, PersistError> {
        if self.seg_start < self.next_seq {
            self.rotate()?;
        }
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for (i, (start, path)) in segments.iter().enumerate() {
            if *path == segment_path(&self.dir, self.seg_start) {
                continue;
            }
            // A segment is disposable iff a later segment begins at or
            // below `seq` — then every record in it is below `seq`.
            let covered = segments
                .get(i + 1)
                .is_some_and(|&(next_start, _)| next_start <= seq);
            if covered && *start < seq {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Replays the log in `dir`, delivering every record with
/// `seq >= from_seq` to `on_event` in order.
///
/// Validation is strict: segment headers, record lengths, checksums and
/// exact `+1` sequence continuity (within and across segments). The
/// first violation ends the scan — everything before it is the valid
/// prefix, everything after is counted into
/// [`ReplayReport::bytes_dropped`]. With `repair` set, the torn segment
/// is physically truncated at the violation and unreachable later
/// segments are deleted, leaving a log a [`WalWriter`] can extend.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure, or an error
/// propagated from the callback. Corruption is *not* an error here — it
/// is reported, because a valid prefix is still a usable recovery.
pub fn replay<F>(
    dir: &Path,
    from_seq: u64,
    repair: bool,
    mut on_event: F,
) -> Result<ReplayReport, PersistError>
where
    F: FnMut(WalRecord) -> Result<ReplayStep, PersistError>,
{
    let segments = list_segments(dir)?;
    let mut report = ReplayReport::default();
    let mut expected: Option<u64> = None;
    let mut stopped = false;
    // Index of the first segment that is no longer trustworthy, plus
    // the byte offset at which its valid prefix ends.
    let mut cut: Option<(usize, u64)> = None;
    for (i, (start_seq, path)) in segments.iter().enumerate() {
        if stopped {
            break;
        }
        let bytes = fs::read(path)?;
        report.segments_scanned += 1;
        match scan_segment(
            &bytes,
            *start_seq,
            expected,
            from_seq,
            &mut report,
            &mut on_event,
        )? {
            SegmentOutcome::Clean { next_expected } => {
                expected = Some(next_expected);
            }
            SegmentOutcome::Stopped => {
                stopped = true;
            }
            SegmentOutcome::Torn { valid_bytes } => {
                report.tail_truncated = true;
                report.bytes_dropped += bytes.len() as u64 - valid_bytes;
                for (_, later) in &segments[i + 1..] {
                    report.bytes_dropped += fs::metadata(later)?.len();
                }
                cut = Some((i, valid_bytes));
                break;
            }
        }
    }
    if repair {
        if let Some((i, valid_bytes)) = cut {
            let (_, path) = &segments[i];
            if valid_bytes == 0 {
                // Bad header or unreachable sequence range: nothing in
                // the file is usable, so repair removes it outright.
                fs::remove_file(path)?;
                report.segments_removed += 1;
            } else {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(valid_bytes)?;
                f.sync_all()?;
            }
            for (_, later) in &segments[i + 1..] {
                fs::remove_file(later)?;
                report.segments_removed += 1;
            }
        }
    }
    Ok(report)
}

enum SegmentOutcome {
    /// Whole segment consumed; the next segment must start here.
    Clean { next_expected: u64 },
    /// The callback asked to stop; the rest of the log is untouched.
    Stopped,
    /// Corruption at `valid_bytes`; everything after is a torn tail.
    Torn { valid_bytes: u64 },
}

/// Scans one segment, delivering records and classifying the outcome.
fn scan_segment<F>(
    bytes: &[u8],
    start_seq: u64,
    expected: Option<u64>,
    from_seq: u64,
    report: &mut ReplayReport,
    on_event: &mut F,
) -> Result<SegmentOutcome, PersistError>
where
    F: FnMut(WalRecord) -> Result<ReplayStep, PersistError>,
{
    // Header: magic, version, start sequence — and continuity with the
    // previous segment.
    if bytes.len() < HEADER_LEN as usize
        || bytes[..4] != SEGMENT_MAGIC
        || bytes[4..8] != VERSION.to_le_bytes()
        || bytes[8..16] != start_seq.to_le_bytes()
    {
        return Ok(SegmentOutcome::Torn { valid_bytes: 0 });
    }
    if let Some(e) = expected {
        if start_seq != e {
            // Gap or overlap between segments: the tail is unusable.
            return Ok(SegmentOutcome::Torn { valid_bytes: 0 });
        }
    } else if start_seq > from_seq {
        // The log starts after the snapshot ends: records in between
        // are gone, so nothing past this point can be applied.
        return Ok(SegmentOutcome::Torn { valid_bytes: 0 });
    }
    let mut pos = HEADER_LEN as usize;
    let mut next = start_seq;
    while pos < bytes.len() {
        let Some(record) = decode_record(&bytes[pos..], next) else {
            return Ok(SegmentOutcome::Torn {
                valid_bytes: pos as u64,
            });
        };
        let (rec, consumed) = record;
        let is_model = matches!(rec.op, WalOp::Model { .. });
        if rec.seq < from_seq {
            report.records_skipped += 1;
        } else {
            match on_event(rec)? {
                ReplayStep::Continue => {
                    report.records_replayed += u64::from(!is_model);
                }
                ReplayStep::Stop => return Ok(SegmentOutcome::Stopped),
            }
        }
        next += u64::from(!is_model);
        pos += consumed;
    }
    Ok(SegmentOutcome::Clean {
        next_expected: next,
    })
}

/// Decodes the record at the head of `bytes`, requiring sequence
/// `expect_seq`. `None` means the bytes are torn or corrupt. A length
/// field is trusted only as far as `bytes` reaches, so a hostile one
/// (up to `u32::MAX`) is a torn tail, never an allocation.
fn decode_record(bytes: &[u8], expect_seq: u64) -> Option<(WalRecord, usize)> {
    if bytes.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let want_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let len = usize::try_from(len).ok()?;
    let payload = bytes.get(8..)?.get(..len)?;
    if len < 9 || crc32(payload) != want_crc {
        return None;
    }
    let mut seq_bytes = [0u8; 8];
    seq_bytes.copy_from_slice(&payload[..8]);
    let seq = u64::from_le_bytes(seq_bytes);
    if seq != expect_seq {
        return None;
    }
    let word = |i: usize| {
        u32::from_le_bytes([
            payload[9 + 4 * i],
            payload[10 + 4 * i],
            payload[11 + 4 * i],
            payload[12 + 4 * i],
        ])
    };
    let op = match (payload[8], len) {
        (KIND_EVENT, EVENT_PAYLOAD) => WalOp::Event {
            u: word(0),
            v: word(1),
            t: word(2),
        },
        (KIND_ADVANCE, ADVANCE_PAYLOAD) => WalOp::Advance { horizon: word(0) },
        (KIND_MODEL, MODEL_HEADER..) => {
            let long = |at: usize| {
                let mut word = [0u8; 8];
                word.copy_from_slice(&payload[at..at + 8]);
                u64::from_le_bytes(word)
            };
            let explicit = match payload[25] {
                0 => false,
                1 => true,
                _ => return None,
            };
            WalOp::Model {
                epoch: long(9),
                ordinal: long(17),
                explicit,
                bytes: payload[MODEL_HEADER..].to_vec(),
            }
        }
        _ => return None,
    };
    Some((WalRecord { seq, op }, 8 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ssf-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn collect(dir: &Path, from_seq: u64) -> (Vec<WalRecord>, ReplayReport) {
        let mut got = Vec::new();
        let report = replay(dir, from_seq, false, |r| {
            got.push(r);
            Ok(ReplayStep::Continue)
        })
        .unwrap();
        (got, report)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = temp_dir("roundtrip");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        for i in 0..10u32 {
            let seq = w.append(i, i + 1, 100 + i).unwrap();
            assert_eq!(seq, i as u64);
        }
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 10);
        assert_eq!(report.records_replayed, 10);
        assert_eq!(report.records_skipped, 0);
        assert!(!report.tail_truncated);
        for (i, r) in got.iter().enumerate() {
            let i = i as u32;
            assert_eq!(
                *r,
                WalRecord {
                    seq: i as u64,
                    op: WalOp::Event {
                        u: i,
                        v: i + 1,
                        t: 100 + i
                    }
                }
            );
        }
        // Skipping a prefix works too.
        let (tail, report) = collect(&dir, 7);
        assert_eq!(tail.len(), 3);
        assert_eq!(report.records_skipped, 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Reopening a log that gained no records since the last open
    /// finds the header-only segment that open created and keeps it:
    /// still one header-only segment after two reopens, and records
    /// appended afterwards replay exactly.
    #[test]
    fn reopens_reuse_the_header_only_segment() {
        let dir = temp_dir("reopen");
        let opts = WalOptions::default();
        let mut w = WalWriter::create(&dir, 0, opts).unwrap();
        for i in 0..3u32 {
            w.append(i, i + 1, i).unwrap();
        }
        drop(w);
        let live = segment_path(&dir, 3);
        drop(WalWriter::create(&dir, 3, opts).unwrap());
        // Backdate the segment: a reopen that rewrote it would move
        // the modification time, one that reuses it leaves it alone.
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1000);
        File::options()
            .write(true)
            .open(&live)
            .unwrap()
            .set_modified(old)
            .unwrap();
        for _ in 0..2 {
            drop(WalWriter::create(&dir, 3, opts).unwrap());
            let meta = fs::metadata(&live).unwrap();
            assert_eq!(meta.len(), HEADER_LEN);
            assert_eq!(meta.modified().unwrap(), old, "segment rewritten");
        }
        let starts: Vec<u64> =
            list_segments(&dir).unwrap().iter().map(|s| s.0).collect();
        assert_eq!(starts, [0, 3]);
        let mut w = WalWriter::create(&dir, 3, opts).unwrap();
        assert_eq!(w.append(7, 8, 9).unwrap(), 3);
        assert_eq!(w.append_advance(12).unwrap(), 4);
        drop(w);
        let (got, report) = collect(&dir, 0);
        assert!(!report.tail_truncated);
        let want: Vec<WalRecord> = (0..3u32)
            .map(|i| WalRecord {
                seq: i as u64,
                op: WalOp::Event {
                    u: i,
                    v: i + 1,
                    t: i,
                },
            })
            .chain([
                WalRecord {
                    seq: 3,
                    op: WalOp::Event { u: 7, v: 8, t: 9 },
                },
                WalRecord {
                    seq: 4,
                    op: WalOp::Advance { horizon: 12 },
                },
            ])
            .collect();
        assert_eq!(got, want);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Only an exact header is reused: a segment at the same start
    /// with anything else in it — a torn record, a foreign header — is
    /// truncated to a fresh header.
    #[test]
    fn reopen_truncates_a_segment_that_is_not_just_its_header() {
        let dir = temp_dir("reopen-trunc");
        let opts = WalOptions::default();
        drop(WalWriter::create(&dir, 5, opts).unwrap());
        let path = segment_path(&dir, 5);
        let header = fs::read(&path).unwrap();
        let mut torn = header.clone();
        torn.extend_from_slice(&[21, 0, 0]);
        let mut foreign = header.clone();
        foreign[8] ^= 1;
        for bytes in [torn, foreign, Vec::new()] {
            fs::write(&path, &bytes).unwrap();
            let mut w = WalWriter::create(&dir, 5, opts).unwrap();
            assert_eq!(fs::read(&path).unwrap(), header);
            w.append(1, 2, 3).unwrap();
            drop(w);
            let (got, report) = collect(&dir, 5);
            assert!(!report.tail_truncated);
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].seq, 5);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn advances_interleave_with_events_in_sequence_order() {
        let dir = temp_dir("advance");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        assert_eq!(w.append(0, 1, 5).unwrap(), 0);
        assert_eq!(w.append_advance(9).unwrap(), 1);
        assert_eq!(w.append(1, 2, 9).unwrap(), 2);
        assert_eq!(w.append_advance(u32::MAX).unwrap(), 3);
        let (got, report) = collect(&dir, 0);
        assert_eq!(report.records_replayed, 4);
        assert!(!report.tail_truncated);
        assert_eq!(
            got.iter().map(|r| r.op.clone()).collect::<Vec<_>>(),
            vec![
                WalOp::Event { u: 0, v: 1, t: 5 },
                WalOp::Advance { horizon: 9 },
                WalOp::Event { u: 1, v: 2, t: 9 },
                WalOp::Advance { horizon: u32::MAX },
            ]
        );
        assert_eq!(
            got.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_advance_record_ends_the_prefix() {
        let dir = temp_dir("advance-flip");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append(0, 1, 1).unwrap(); // 29 bytes
        w.append_advance(7).unwrap(); // 21 bytes
        w.append(1, 2, 8).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the advance record's horizon field.
        let off = HEADER_LEN as usize + 29 + 8 + 9;
        bytes[off] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 1, "only the record before the flip survives");
        assert!(report.tail_truncated);
        assert_eq!(report.bytes_dropped, 21 + 29);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_records_round_trip_between_events() {
        let dir = temp_dir("model");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::create(&dir, 0, opts).unwrap();
        let model: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        assert_eq!(w.append(0, 1, 5).unwrap(), 0);
        // Models carry the next operation's number and consume none,
        // even across the rotations a 64-byte segment forces.
        assert_eq!(w.append_model(9, 1, false, &model).unwrap(), 1);
        assert_eq!(w.append_model(9, 2, true, &[]).unwrap(), 1);
        assert_eq!(w.append(1, 2, 6).unwrap(), 1);
        assert_eq!(w.next_seq(), 2);
        drop(w);
        let (got, report) = collect(&dir, 0);
        assert!(!report.tail_truncated);
        assert_eq!(report.records_replayed, 2);
        let want = [
            (0, WalOp::Event { u: 0, v: 1, t: 5 }),
            (
                1,
                WalOp::Model {
                    epoch: 9,
                    ordinal: 1,
                    explicit: false,
                    bytes: model,
                },
            ),
            (
                1,
                WalOp::Model {
                    epoch: 9,
                    ordinal: 2,
                    explicit: true,
                    bytes: Vec::new(),
                },
            ),
            (1, WalOp::Event { u: 1, v: 2, t: 6 }),
        ];
        let got: Vec<_> = got.into_iter().map(|r| (r.seq, r.op)).collect();
        assert_eq!(got, want);
        // A replay from 1 skips only the first event.
        let (tail, report) = collect(&dir, 1);
        assert_eq!(tail.len(), 3);
        assert_eq!(report.records_skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Models logged before the first operation of a fresh segment —
    /// an explicit refit right after a reopen — are part of the log: a
    /// second reopen at the same sequence keeps them and appends after
    /// them.
    #[test]
    fn reopen_keeps_a_segment_of_models_only() {
        let dir = temp_dir("models-only");
        let opts = WalOptions::default();
        let mut w = WalWriter::create(&dir, 0, opts).unwrap();
        w.append(0, 1, 5).unwrap();
        drop(w);
        let mut w = WalWriter::create(&dir, 1, opts).unwrap();
        w.append_model(1, 1, true, &[4; 100]).unwrap();
        w.append_model(1, 2, true, &[5; 100]).unwrap();
        drop(w);
        let live = segment_path(&dir, 1);
        let len = fs::metadata(&live).unwrap().len();
        assert_eq!(len, HEADER_LEN + 2 * (8 + 26 + 100));
        let mut w = WalWriter::create(&dir, 1, opts).unwrap();
        assert_eq!(fs::metadata(&live).unwrap().len(), len, "kept");
        assert_eq!(w.append(1, 2, 6).unwrap(), 1);
        drop(w);
        let (got, report) = collect(&dir, 0);
        assert!(!report.tail_truncated);
        let ordinals: Vec<_> = got
            .iter()
            .map(|r| match r.op {
                WalOp::Model { ordinal, .. } => ordinal,
                _ => 0,
            })
            .collect();
        assert_eq!(ordinals, [0, 1, 2, 0]);
        // An event at the segment's start sequence is not a model: such
        // a segment is truncated like any other non-header content.
        let mut w = WalWriter::create(&dir, 1, opts).unwrap();
        assert_eq!(fs::metadata(&live).unwrap().len(), HEADER_LEN);
        w.append(1, 2, 6).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A model record's length field is checked against the bytes left
    /// in the segment: `u32::MAX`, or one byte more than remains, is a
    /// torn tail that keeps the prefix — never an allocation sized by
    /// the field.
    #[test]
    fn oversized_model_length_is_a_torn_tail() {
        let dir = temp_dir("model-len");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append(0, 1, 5).unwrap();
        w.append_model(3, 1, false, &[7; 300]).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let clean = fs::read(&path).unwrap();
        let at = HEADER_LEN as usize + 29;
        let present = (clean.len() - at - 8) as u32;
        for len in [u32::MAX, present + 1, u32::MAX / 2] {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let (got, report) = collect(&dir, 0);
            assert_eq!(got.len(), 1, "the event before the model survives");
            assert!(report.tail_truncated);
            assert_eq!(report.bytes_dropped, (clean.len() - at) as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A model record whose explicit flag is neither 0 nor 1 is corrupt
    /// even with a matching checksum.
    #[test]
    fn model_flag_outside_zero_one_is_rejected() {
        let dir = temp_dir("model-flag");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append_model(3, 1, true, &[1, 2, 3]).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let payload_at = HEADER_LEN as usize + 8;
        bytes[payload_at + 25] = 2;
        let crc = crc32(&bytes[payload_at..]);
        bytes[HEADER_LEN as usize + 4..payload_at]
            .copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let (got, report) = collect(&dir, 0);
        assert!(got.is_empty());
        assert!(report.tail_truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn event_kind_with_advance_length_is_rejected() {
        let dir = temp_dir("kind-mismatch");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append_advance(3).unwrap();
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Rewrite the kind byte to EVENT and fix the checksum: the
        // payload is now self-consistent but 13 bytes is not a valid
        // event length, so decoding must still refuse it.
        let payload_at = HEADER_LEN as usize + 8;
        bytes[payload_at + 8] = KIND_EVENT;
        let crc = crc32(&bytes[payload_at..payload_at + 13]);
        bytes[HEADER_LEN as usize + 4..HEADER_LEN as usize + 8]
            .copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let (got, report) = collect(&dir, 0);
        assert!(got.is_empty());
        assert!(report.tail_truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_replay_stitches_them() {
        let dir = temp_dir("rotate");
        let opts = WalOptions {
            segment_bytes: 64, // a couple of records per segment
            fsync: FsyncPolicy::Never,
        };
        let mut w = WalWriter::create(&dir, 0, opts).unwrap();
        for i in 0..20u32 {
            w.append(i, i + 1, i).unwrap();
        }
        assert!(list_segments(&dir).unwrap().len() > 3);
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 20);
        assert!(!report.tail_truncated);
        assert_eq!(
            report.segments_scanned as usize,
            list_segments(&dir).unwrap().len()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        for i in 0..5u32 {
            w.append(i, i + 1, i).unwrap();
        }
        drop(w);
        // Tear the last record: chop 3 bytes off the segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let mut got = Vec::new();
        let report = replay(&dir, 0, true, |r| {
            got.push(r);
            Ok(ReplayStep::Continue)
        })
        .unwrap();
        assert_eq!(got.len(), 4);
        assert!(report.tail_truncated);
        assert_eq!(report.bytes_dropped, 29 - 3);
        // Repair truncated the file; a second replay is clean.
        let (again, report2) = collect(&dir, 0);
        assert_eq!(again.len(), 4);
        assert!(!report2.tail_truncated);
        // And the writer resumes at the recovered sequence.
        let mut w = WalWriter::create(&dir, 4, WalOptions::default()).unwrap();
        w.append(9, 10, 11).unwrap();
        let (full, _) = collect(&dir, 0);
        assert_eq!(full.len(), 5);
        assert_eq!(
            full[4],
            WalRecord {
                seq: 4,
                op: WalOp::Event { u: 9, v: 10, t: 11 }
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_ends_the_prefix() {
        let dir = temp_dir("flip");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        for i in 0..8u32 {
            w.append(i, i + 1, i).unwrap();
        }
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside record 3's payload.
        let off = HEADER_LEN as usize + 3 * 29 + 12;
        bytes[off] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 3);
        assert!(report.tail_truncated);
        assert_eq!(report.bytes_dropped, 5 * 29);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicated_record_bytes_are_rejected() {
        let dir = temp_dir("dup");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        for i in 0..4u32 {
            w.append(i, i + 1, i).unwrap();
        }
        drop(w);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Duplicate the final record verbatim — checksums pass, but the
        // sequence number repeats.
        let tail = bytes[bytes.len() - 29..].to_vec();
        bytes.extend_from_slice(&tail);
        fs::write(&path, &bytes).unwrap();
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 4, "the valid prefix survives");
        assert!(report.tail_truncated);
        assert_eq!(report.bytes_dropped, 29);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_rolls_back_the_partial_record() {
        let dir = temp_dir("rollback");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append(1, 2, 3).unwrap();
        // Simulate the on-disk aftermath of a write that failed midway:
        // garbage bytes past the last whole record, cursor advanced
        // with them — exactly the state `append` hands to the rollback.
        w.file.write_all(&[0xEE; 11]).unwrap();
        w.restore_tail().unwrap();
        // The next append lands at the record boundary, not after the
        // garbage, so replay sees an unbroken log.
        w.append(4, 5, 6).unwrap();
        drop(w);
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 2);
        assert!(!report.tail_truncated);
        assert_eq!(
            got[1],
            WalRecord {
                seq: 1,
                op: WalOp::Event { u: 4, v: 5, t: 6 }
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unrollbackable_append_poisons_the_writer() {
        let dir = temp_dir("poison");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        w.append(1, 2, 3).unwrap();
        // Swap in a read-only handle: the write fails, and so does the
        // rollback (`set_len` needs write access).
        w.file = File::open(segment_path(&dir, 0)).unwrap();
        assert!(w.append(4, 5, 6).is_err());
        assert!(w.is_poisoned());
        // Poisoned writers fail fast instead of stranding records
        // behind a possibly-torn tail.
        let err = w.append(7, 8, 9).expect_err("poisoned writer");
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert_eq!(w.next_seq(), 1, "failed appends consume no sequence");
        drop(w);
        // The durable prefix is intact; reopening repairs and resumes.
        let (got, report) = collect(&dir, 0);
        assert_eq!(got.len(), 1);
        assert!(!report.tail_truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_below_deletes_covered_segments() {
        let dir = temp_dir("checkpoint");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync: FsyncPolicy::EveryN(4),
        };
        let mut w = WalWriter::create(&dir, 0, opts).unwrap();
        for i in 0..20u32 {
            w.append(i, i + 1, i).unwrap();
        }
        let seq = w.next_seq();
        assert!(list_segments(&dir).unwrap().len() > 3);
        let removed = w.truncate_below(seq).unwrap();
        assert!(removed > 3);
        // Everything below the checkpoint is gone; the live segment
        // starts exactly at the checkpointed sequence.
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, seq);
        // New appends continue the sequence and replay only the tail.
        w.append(77, 78, 79).unwrap();
        let (got, report) = collect(&dir, seq);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, seq);
        assert_eq!(report.records_skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_can_stop_early_without_damage() {
        let dir = temp_dir("stop");
        let mut w = WalWriter::create(&dir, 0, WalOptions::default()).unwrap();
        for i in 0..6u32 {
            w.append(i, i + 1, i).unwrap();
        }
        drop(w);
        let mut seen = 0u64;
        let report = replay(&dir, 0, true, |_| {
            seen += 1;
            Ok(if seen == 3 {
                ReplayStep::Stop
            } else {
                ReplayStep::Continue
            })
        })
        .unwrap();
        assert_eq!(report.records_replayed, 2);
        assert!(!report.tail_truncated);
        assert_eq!(report.segments_removed, 0);
        // Nothing was truncated: a full replay still sees all 6.
        let (got, _) = collect(&dir, 0);
        assert_eq!(got.len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_wal_gap_after_snapshot_is_reported_not_applied() {
        let dir = temp_dir("gap");
        // Log starts at sequence 10, but the caller's snapshot only
        // covers up to 5: the five missing records make the tail
        // unusable.
        let mut w = WalWriter::create(&dir, 10, WalOptions::default()).unwrap();
        w.append(1, 2, 3).unwrap();
        drop(w);
        let (got, report) = collect(&dir, 5);
        assert!(got.is_empty());
        assert!(report.tail_truncated);
        assert!(report.bytes_dropped > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory_replays_nothing() {
        let dir = temp_dir("empty");
        let (got, report) = collect(&dir, 0);
        assert!(got.is_empty());
        assert_eq!(report, ReplayReport::default());
        fs::remove_dir_all(&dir).unwrap();
    }
}
