//! The `SSF1` snapshot container: versioned, sectioned, checksummed.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "SSF1"                          4 bytes
//! version u32 (currently 1)               4 bytes
//! count   u32 section count               4 bytes
//! section, repeated `count` times:
//!   name_len u8, name (ASCII)             1 + name_len bytes
//!   len      u64 payload length           8 bytes
//!   payload                               len bytes
//!   crc      u32 CRC-32 of payload        4 bytes
//! ```
//!
//! Sections are opaque byte strings to the container; the graph and
//! predictor codecs layer meaning on top. Readers validate the magic,
//! the version, every length and every checksum *before* returning, so
//! a successfully opened [`SnapshotReader`] holds only verified bytes.
//! Writers go through [`SnapshotWriter::write_atomic`] — temp file,
//! fsync, rename, directory fsync — so a crash mid-write leaves either
//! the old snapshot or none, never a half-written one.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

use crate::codec::{put_u32, put_u64, Cursor};
use crate::crc::crc32;
use crate::error::{corrupt, PersistError};

/// File magic: the first four bytes of every snapshot.
pub const MAGIC: [u8; 4] = *b"SSF1";
/// Current container format version; version 3 added the optional
/// sliding-window section (`pmeta.window`). The section container
/// itself has never changed, so readers open every version down to
/// [`MIN_VERSION`]. Version 2 also introduced varint-packed
/// `graph.c32.*` graph sections, which are no longer written or read:
/// a file whose graph uses them opens, but its graph is refused as
/// corrupt (see [`crate::graph`]).
pub const VERSION: u32 = 3;
/// Oldest container format version this reader still opens.
pub const MIN_VERSION: u32 = 1;

/// Assembles a snapshot in memory, then persists it atomically.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot with no sections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named section. Names must be unique, non-empty ASCII
    /// of at most 255 bytes; the codecs in this crate all comply, so
    /// violations are programmer errors and panic in debug builds.
    pub fn section(&mut self, name: &str, payload: Vec<u8>) {
        debug_assert!(
            !name.is_empty() && name.len() <= 255 && name.is_ascii(),
            "section name {name:?} violates the container contract"
        );
        debug_assert!(
            self.sections.iter().all(|(n, _)| n != name),
            "duplicate section {name:?}"
        );
        self.sections.push((name.to_string(), payload));
    }

    /// Serializes the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        put_u32(&mut buf, self.sections.len() as u32);
        for (name, payload) in &self.sections {
            buf.push(name.len() as u8);
            buf.extend_from_slice(name.as_bytes());
            put_u64(&mut buf, payload.len() as u64);
            buf.extend_from_slice(payload);
            put_u32(&mut buf, crc32(payload));
        }
        buf
    }

    /// Writes the snapshot to `path` atomically: the bytes land in a
    /// sibling temp file, are fsynced, renamed over `path`, and the
    /// directory entry is fsynced too. Readers therefore observe either
    /// the previous complete snapshot or the new complete snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if any filesystem step fails.
    pub fn write_atomic(&self, path: &Path) -> Result<(), PersistError> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Persist the rename itself; harmless no-op on filesystems
            // that do not support directory fsync.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

/// A fully validated, in-memory snapshot.
#[derive(Debug)]
pub struct SnapshotReader {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotReader {
    /// Reads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] if the file cannot be read;
    /// [`PersistError::Corrupt`] if the magic, version, any length or
    /// any section checksum fails validation.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        Self::from_bytes(&fs::read(path)?)
    }

    /// Validates snapshot bytes already in memory.
    ///
    /// # Errors
    ///
    /// See [`SnapshotReader::open`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut c = Cursor::new("header", bytes);
        let magic = c.u32()?.to_le_bytes();
        if magic != MAGIC {
            return Err(corrupt(
                "header",
                format!("bad magic {magic:02X?}, want {MAGIC:02X?}"),
            ));
        }
        let version = c.u32()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(corrupt(
                "header",
                format!(
                    "unsupported format version {version} (supported: \
                     {MIN_VERSION}..={VERSION})"
                ),
            ));
        }
        let count = c.u32()? as usize;
        let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
        let mut rest = &bytes[12..];
        for i in 0..count {
            let (name, payload, tail) = Self::read_section(rest, i)?;
            if sections.iter().any(|(n, _)| *n == name) {
                return Err(corrupt(
                    "header",
                    format!("duplicate section {name:?}"),
                ));
            }
            sections.push((name, payload));
            rest = tail;
        }
        if !rest.is_empty() {
            return Err(corrupt(
                "header",
                format!("{} trailing bytes after last section", rest.len()),
            ));
        }
        Ok(SnapshotReader { sections })
    }

    /// Decodes one section, returning `(name, payload, rest)`.
    fn read_section(
        bytes: &[u8],
        index: usize,
    ) -> Result<(String, Vec<u8>, &[u8]), PersistError> {
        let section = format!("section[{index}]");
        let fail = |detail: String| corrupt(section.clone(), detail);
        let (&name_len, rest) = bytes
            .split_first()
            .ok_or_else(|| fail("truncated before name".to_string()))?;
        let name_len = name_len as usize;
        if rest.len() < name_len + 8 {
            return Err(fail("truncated name or length".to_string()));
        }
        let name = std::str::from_utf8(&rest[..name_len])
            .map_err(|_| fail("section name is not UTF-8".to_string()))?
            .to_string();
        let rest = &rest[name_len..];
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&rest[..8]);
        let len = usize::try_from(u64::from_le_bytes(len_bytes))
            .map_err(|_| fail("payload length overflows usize".to_string()))?;
        let rest = &rest[8..];
        // `len` comes straight off the disk: the +4 must not wrap on
        // lengths near usize::MAX, or the bounds check below would
        // pass and the slice would panic.
        let total = match len.checked_add(4) {
            Some(total) if rest.len() >= total => total,
            _ => {
                return Err(fail(format!(
                    "payload of {name:?} truncated: want {len} + 4 \
                     bytes, have {}",
                    rest.len()
                )));
            }
        };
        let payload = rest[..len].to_vec();
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&rest[len..total]);
        let want = u32::from_le_bytes(crc_bytes);
        let got = crc32(&payload);
        if got != want {
            return Err(corrupt(
                name,
                format!(
                    "checksum mismatch: stored {want:08X}, \
                         computed {got:08X}"
                ),
            ));
        }
        Ok((name, payload, &rest[total..]))
    }

    /// The payload of section `name`, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
    }

    /// The payload of section `name`, or a typed corruption error.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] if the section is absent.
    pub fn require(&self, name: &str) -> Result<&[u8], PersistError> {
        self.section(name)
            .ok_or_else(|| corrupt(name, "section missing"))
    }

    /// Names of all sections, in file order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.section("alpha", vec![1, 2, 3]);
        w.section("beta", Vec::new());
        w.section("gamma", (0..=255).collect());
        w
    }

    #[test]
    fn round_trips_sections() {
        let bytes = sample().to_bytes();
        let r = SnapshotReader::from_bytes(&bytes).unwrap();
        assert_eq!(r.section("alpha"), Some(&[1u8, 2, 3][..]));
        assert_eq!(r.section("beta"), Some(&[][..]));
        assert_eq!(r.require("gamma").unwrap().len(), 256);
        assert!(r.section("delta").is_none());
        assert!(r.require("delta").is_err());
        let names: Vec<_> = r.section_names().collect();
        assert_eq!(names, ["alpha", "beta", "gamma"]);
    }

    #[test]
    fn every_single_byte_flip_is_caught_or_harmless() {
        // Flipping any one byte must either still decode to the exact
        // same sections (impossible here — every byte is load-bearing)
        // or fail with a typed Corrupt. Never a panic, never silently
        // different content.
        let bytes = sample().to_bytes();
        let original = SnapshotReader::from_bytes(&bytes).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            match SnapshotReader::from_bytes(&bad) {
                Err(PersistError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {i}: unexpected {other}"),
                Ok(r) => {
                    // A flip inside a name byte can only survive if it
                    // produced a different (still checksummed) section
                    // name; content must be unchanged.
                    let a: Vec<_> = original
                        .sections
                        .iter()
                        .map(|(_, p)| p.clone())
                        .collect();
                    let b: Vec<_> =
                        r.sections.iter().map(|(_, p)| p.clone()).collect();
                    assert_eq!(a, b, "byte {i} silently altered payloads");
                }
            }
        }
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            let r = SnapshotReader::from_bytes(&bytes[..keep]);
            assert!(r.is_err(), "prefix of {keep} bytes decoded");
        }
    }

    #[test]
    fn atomic_write_then_open() {
        let dir = std::env::temp_dir()
            .join(format!("ssf-persist-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ssf1");
        sample().write_atomic(&path).unwrap();
        let r = SnapshotReader::open(&path).unwrap();
        assert_eq!(r.section("alpha"), Some(&[1u8, 2, 3][..]));
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_section_length_is_corrupt_not_panic() {
        // A length near u64::MAX must not wrap the `len + 4` bounds
        // check (it used to, slicing out of range in release builds).
        for len in [u64::MAX, u64::MAX - 3, u64::MAX - 4, 1 << 40] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            put_u32(&mut bytes, VERSION);
            put_u32(&mut bytes, 1); // one section
            bytes.push(1);
            bytes.push(b'a');
            put_u64(&mut bytes, len);
            bytes.extend_from_slice(&[0u8; 16]); // far fewer than `len`
            let err = SnapshotReader::from_bytes(&bytes)
                .expect_err("absurd length must not decode");
            assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn reads_every_supported_back_version() {
        // A file stamped with any older supported version must decode
        // exactly like the current one — the container layout never
        // changed, only which sections writers emit.
        for version in MIN_VERSION..VERSION {
            let mut bytes = sample().to_bytes();
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let r = SnapshotReader::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("version {version}: {e}"));
            assert_eq!(r.section("alpha"), Some(&[1u8, 2, 3][..]));
        }
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::from_bytes(&bytes),
            Err(PersistError::Corrupt { .. })
        ));
        let mut bytes = sample().to_bytes();
        bytes[4] = 9; // version 9
        let err = SnapshotReader::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version 9"), "{err}");
    }
}
