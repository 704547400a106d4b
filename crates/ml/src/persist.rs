//! Plain-text persistence for trained models.
//!
//! A small, versioned, dependency-free line format ("`ssf-ml v1`") that
//! round-trips every `f64` exactly by writing the IEEE-754 bit pattern in
//! hex. Optimizer moment buffers are not persisted — a loaded model is for
//! inference (and deterministic re-training restarts from scratch anyway).

use std::io::{self, BufRead, Write};

/// Writes a named vector of floats as one line: `name hex hex hex …`,
/// each value's bits as 16 lowercase hex digits (exactly what
/// `format!("{:016x}", v.to_bits())` renders), in a single write.
pub fn write_floats<W: Write>(
    mut w: W,
    name: &str,
    values: impl IntoIterator<Item = f64>,
) -> io::Result<()> {
    let values = values.into_iter();
    let mut line =
        Vec::with_capacity(name.len() + 17 * values.size_hint().0 + 1);
    line.extend_from_slice(name.as_bytes());
    for v in values {
        line.push(b' ');
        line.extend_from_slice(&hex16(v.to_bits()));
    }
    line.push(b'\n');
    w.write_all(&line)
}

/// `bits` as 16 lowercase hex digits, most significant first.
fn hex16(bits: u64) -> [u8; 16] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = [0u8; 16];
    for (i, digit) in out.iter_mut().enumerate() {
        *digit = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
    }
    out
}

/// Parses one float field: exactly the 16 hex digits [`write_floats`]
/// writes (either case), decoded directly.
fn parse_hex(field: &str) -> Option<u64> {
    let digits = field.as_bytes();
    if digits.len() != 16 {
        return None;
    }
    let (mut bits, mut bad) = (0u64, 0u8);
    for &c in digits {
        let nibble = NIBBLE[usize::from(c)];
        bad |= nibble;
        bits = bits << 4 | u64::from(nibble & 0xf);
    }
    (bad & NOT_HEX == 0).then_some(bits)
}

/// Marks a byte that is not a hex digit in [`NIBBLE`].
const NOT_HEX: u8 = 0x80;

/// Each byte's hex value, or [`NOT_HEX`].
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 10 {
        table[b'0' as usize + i] = i as u8;
        i += 1;
    }
    let mut i = 0;
    while i < 6 {
        table[b'a' as usize + i] = 10 + i as u8;
        table[b'A' as usize + i] = 10 + i as u8;
        i += 1;
    }
    table
};

/// Reads a line written by [`write_floats`], checking the leading name.
///
/// # Errors
///
/// `InvalidData` on EOF, name mismatch, or malformed hex.
pub fn read_floats<R: BufRead>(r: &mut R, name: &str) -> io::Result<Vec<f64>> {
    let line = read_line(r)?;
    let mut fields = line.split_whitespace();
    let got = fields.next().unwrap_or("");
    if got != name {
        return Err(invalid(format!("expected {name:?}, found {got:?}")));
    }
    fields
        .map(|hex| {
            parse_hex(hex)
                .map(f64::from_bits)
                .ok_or_else(|| invalid(format!("bad float field {hex:?}")))
        })
        .collect()
}

/// Writes a named list of integers: `name a b c …`.
pub fn write_usizes<W: Write>(
    mut w: W,
    name: &str,
    values: impl IntoIterator<Item = usize>,
) -> io::Result<()> {
    write!(w, "{name}")?;
    for v in values {
        write!(w, " {v}")?;
    }
    writeln!(w)
}

/// Reads a line written by [`write_usizes`].
///
/// # Errors
///
/// `InvalidData` on EOF, name mismatch, or malformed integers.
pub fn read_usizes<R: BufRead>(
    r: &mut R,
    name: &str,
) -> io::Result<Vec<usize>> {
    let line = read_line(r)?;
    let mut fields = line.split_whitespace();
    let got = fields.next().unwrap_or("");
    if got != name {
        return Err(invalid(format!("expected {name:?}, found {got:?}")));
    }
    fields
        .map(|s| s.parse().map_err(|_| invalid(format!("bad integer {s:?}"))))
        .collect()
}

/// Reads one non-empty line.
///
/// # Errors
///
/// `InvalidData` at EOF.
pub fn read_line<R: BufRead>(r: &mut R) -> io::Result<String> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("unexpected end of model file".to_string()));
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            return Ok(trimmed.to_string());
        }
    }
}

/// Checks a literal header/marker line.
///
/// # Errors
///
/// `InvalidData` when the line differs.
pub fn expect_line<R: BufRead>(r: &mut R, expected: &str) -> io::Result<()> {
    let line = read_line(r)?;
    if line == expected {
        Ok(())
    } else {
        Err(invalid(format!("expected {expected:?}, found {line:?}")))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn floats_round_trip_exactly() {
        let values = [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1e300, -3.25e-17];
        let mut buf = Vec::new();
        write_floats(&mut buf, "w", values).unwrap();
        let mut r = buf.as_slice();
        let back = read_floats(&mut r, "w").unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in back.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    proptest! {
        /// Every bit pattern renders exactly as `{:016x}` and reads back
        /// to the same bits; each case also carries the special values
        /// (signed zeros, infinities, NaN payloads, subnormals, all ones).
        #[test]
        fn every_bit_pattern_renders_as_016x_and_round_trips(
            random in prop::collection::vec(any::<u64>(), 0..40),
        ) {
            let specials = [
                0,
                1 << 63,
                f64::INFINITY.to_bits(),
                f64::NEG_INFINITY.to_bits(),
                f64::NAN.to_bits(),
                0x7ff0_0000_0000_0001,
                0xfff8_dead_beef_0001,
                1,
                0x000f_ffff_ffff_ffff,
                u64::MAX,
            ];
            let bits: Vec<u64> = random.into_iter().chain(specials).collect();
            let mut buf = Vec::new();
            write_floats(&mut buf, "w", bits.iter().map(|&b| f64::from_bits(b)))
                .unwrap();
            let mut want = String::from("w");
            for b in &bits {
                want.push_str(&format!(" {b:016x}"));
            }
            want.push('\n');
            prop_assert_eq!(String::from_utf8(buf.clone()).unwrap(), want);
            let back = read_floats(&mut buf.as_slice(), "w").unwrap();
            let back: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(back, bits);
        }

        /// Uppercase and lowercase 16-digit fields parse like
        /// `from_str_radix`.
        #[test]
        fn sixteen_digit_fields_parse_like_from_str_radix(bits in any::<u64>()) {
            for field in [format!("{bits:016X}"), format!("{bits:016x}")] {
                prop_assert_eq!(
                    parse_hex(&field),
                    u64::from_str_radix(&field, 16).ok()
                );
            }
        }
    }

    /// Only the 16 digits the writer emits parse: shorter, longer,
    /// signed and non-hex fields are malformed.
    #[test]
    fn other_fields_are_refused() {
        for field in [
            "0",
            "3ff",
            "+3ff0000000000000",
            "-3ff0000000000000",
            "03ff0000000000000",
            "3ff000000000000g",
            "3ff00000000000 0",
            "3ff00000000000\u{e9}",
            "",
        ] {
            assert_eq!(parse_hex(field), None, "{field:?}");
        }
    }

    #[test]
    fn usizes_round_trip() {
        let mut buf = Vec::new();
        write_usizes(&mut buf, "dims", [44usize, 32, 16, 2]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_usizes(&mut r, "dims").unwrap(), vec![44, 32, 16, 2]);
    }

    #[test]
    fn name_mismatch_rejected() {
        let mut buf = Vec::new();
        write_floats(&mut buf, "w", [1.0]).unwrap();
        let mut r = buf.as_slice();
        assert!(read_floats(&mut r, "b").is_err());
    }

    #[test]
    fn eof_rejected() {
        let mut r: &[u8] = b"";
        assert!(read_line(&mut r).is_err());
    }

    #[test]
    fn expect_line_checks_literal() {
        let mut r: &[u8] = b"header v1\n";
        assert!(expect_line(&mut r, "header v1").is_ok());
        let mut r: &[u8] = b"other\n";
        assert!(expect_line(&mut r, "header v1").is_err());
    }
}
