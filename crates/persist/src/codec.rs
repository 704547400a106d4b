//! Little-endian byte codec shared by the snapshot and WAL formats.
//!
//! Everything on disk is little-endian and fixed-width; `usize`-typed
//! in-memory values travel as `u64` so snapshots written on one
//! platform load on any other. Decoding never trusts the input:
//! [`Cursor`] carries the section name it is decoding and turns every
//! short read or range violation into a typed
//! [`PersistError::Corrupt`].

use crate::error::{corrupt, PersistError};

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a `u64` (the on-disk width is fixed).
pub fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u64(buf, v as u64);
}

/// FNV-1a 64-bit hash — the config fingerprint stamped into snapshots.
/// Not cryptographic; it only needs to make "restored under a different
/// configuration" overwhelmingly detectable.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A bounds-checked reader over one decoded section.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> Cursor<'a> {
    /// Starts decoding `bytes`, attributing failures to `section`.
    pub fn new(section: &'a str, bytes: &'a [u8]) -> Self {
        Cursor {
            bytes,
            pos: 0,
            section,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(corrupt(
                self.section,
                format!(
                    "truncated: wanted {n} more bytes at offset {}, \
                     have {}",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` and narrows it to `usize`, rejecting values the
    /// host cannot represent.
    pub fn usize(&mut self) -> Result<usize, PersistError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            corrupt(self.section, format!("length {v} overflows usize"))
        })
    }

    /// Consumes `count` fixed-width elements of `width` bytes each as
    /// one slice. The byte length is checked before anything is
    /// allocated, so a hostile count is a typed error, never an
    /// allocation the input cannot back.
    fn take_array(
        &mut self,
        count: usize,
        width: usize,
    ) -> Result<&'a [u8], PersistError> {
        let n = count.checked_mul(width).ok_or_else(|| {
            corrupt(
                self.section,
                format!("{count} elements of {width} bytes overflow usize"),
            )
        })?;
        self.take(n)
    }

    /// Reads `count` little-endian `u64`s as `usize`s.
    pub fn usizes(&mut self, count: usize) -> Result<Vec<usize>, PersistError> {
        let mut array = Cursor::new(self.section, self.take_array(count, 8)?);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(array.usize()?);
        }
        Ok(out)
    }

    /// Reads `count` little-endian `u32`s.
    pub fn u32s(&mut self, count: usize) -> Result<Vec<u32>, PersistError> {
        let bytes = self.take_array(count, 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Asserts the section is fully consumed — trailing garbage in a
    /// checksummed section means the writer and reader disagree on the
    /// format, which is corruption, not slack.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(corrupt(
                self.section,
                format!("{} trailing bytes after decode", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_arrays() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        for v in [0, 7, 42] {
            put_usize(&mut buf, v);
        }
        for v in [1, 2, 3] {
            put_u32(&mut buf, v);
        }
        let mut c = Cursor::new("test", &buf);
        assert_eq!(c.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.usizes(3).unwrap(), vec![0, 7, 42]);
        assert_eq!(c.u32s(3).unwrap(), vec![1, 2, 3]);
        c.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_corruption() {
        let mut c = Cursor::new("meta", &[1, 2, 3]);
        let err = c.u32().unwrap_err();
        let msg = err.to_string();
        assert!(msg.starts_with("corrupt meta:"), "{msg}");
    }

    #[test]
    fn hostile_array_counts_are_typed_corruption() {
        let buf = [0u8; 16];
        for count in [5, 1 << 40, usize::MAX / 4 + 1, usize::MAX] {
            let mut c = Cursor::new("nbrs", &buf);
            let err = c.u32s(count).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
            let mut c = Cursor::new("offs", &buf);
            let err = c.usizes(count).unwrap_err();
            assert!(matches!(err, PersistError::Corrupt { .. }), "{err}");
        }
        // A failed read consumes nothing.
        let mut c = Cursor::new("nbrs", &buf);
        assert!(c.u32s(5).is_err());
        assert_eq!(c.u32s(4).unwrap(), vec![0; 4]);
        c.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 9);
        buf.push(0xFF);
        let mut c = Cursor::new("meta", &buf);
        c.u32().unwrap();
        assert!(c.finish().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(fnv1a64(b"k=10"), fnv1a64(b"k=11"));
        assert_eq!(fnv1a64(b"k=10"), fnv1a64(b"k=10"));
    }
}
