//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Slicing-by-16 over tables built at compile time — no dependency, no
//! runtime initialization. This is the checksum every snapshot section
//! and WAL record carries; the exact parameters match the ubiquitous
//! zlib/PNG CRC so fixtures can be cross-checked with any external
//! tool.
//!
//! `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the
//! CRC contribution of byte `b` followed by `k` zero bytes, so sixteen
//! lookups fold sixteen input bytes at once. After the 16-byte blocks,
//! a remainder of eight bytes or more takes one 8-byte step through
//! `TABLES[0..8]`, and the last 0–7 bytes go through the bytewise
//! loop, so a short record (a 13-byte WAL event: one 8-byte step, five
//! bytewise) never takes more steps than under slicing-by-8.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// One bytewise CRC step.
fn step(state: u32, b: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize]
}

/// The CRC contribution of the eight bytes `c` (with `crc` folded into
/// the first four) followed by `zeros` zero bytes.
#[inline(always)]
fn fold8(crc: u32, c: &[u8], zeros: usize) -> u32 {
    let t = &TABLES[zeros..zeros + 8];
    let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    t[7][(lo & 0xFF) as usize]
        ^ t[6][((lo >> 8) & 0xFF) as usize]
        ^ t[5][((lo >> 16) & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][c[4] as usize]
        ^ t[2][c[5] as usize]
        ^ t[1][c[6] as usize]
        ^ t[0][c[7] as usize]
}

/// Streaming CRC-32 state, for writers that checksum as they go.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: !0 }
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes` through the checksum. Inlined so that [`crc32`]
    /// on a short WAL record makes no second call.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut rest = bytes;
        while let Some((c, r)) = rest.split_first_chunk::<16>() {
            crc = fold8(crc, &c[..8], 8) ^ fold8(0, &c[8..], 0);
            rest = r;
        }
        if let Some((c, r)) = rest.split_first_chunk::<8>() {
            crc = fold8(crc, c, 0);
            rest = r;
        }
        for &b in rest {
            crc = step(crc, b);
        }
        self.state = crc;
    }

    /// The final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The bytewise reference the slicing kernel must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0, |state, &b| step(state, b))
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let data = vec![0xA5u8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #[test]
        fn slicing_matches_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }

        /// Every length that can end in a 16-byte block, an 8-byte
        /// step or a bytewise tail (0..=48), from every start offset
        /// within one 16-byte block of a larger buffer.
        #[test]
        fn every_short_length_and_offset_matches_bytewise_reference(
            data in proptest::collection::vec(any::<u8>(), 64),
        ) {
            for start in 0..16 {
                for len in 0..=48 {
                    let bytes = &data[start..start + len];
                    prop_assert_eq!(
                        crc32(bytes),
                        crc32_bytewise(bytes),
                        "start {} len {}",
                        start,
                        len
                    );
                }
            }
        }

        #[test]
        fn any_update_split_matches_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> =
                cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                c.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(c.finish(), crc32_bytewise(&data));
        }
    }
}
