//! Bounds-checked little-endian primitives the store format is built from.
//!
//! No serde is available offline, so the format is hand-rolled: fixed-width
//! little-endian integers, IEEE-754 bit patterns for floats, and
//! length-prefixed UTF-8 strings. Every read is bounds-checked and returns
//! [`StoreError::Truncated`] instead of panicking, so arbitrary bytes —
//! corrupted or truncated files — can never crash a decoder built on top.

use crate::error::{Result, StoreError};

/// Append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (bit-exact round trip,
    /// including NaN payloads and signed zeros).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice for decoding; every read is bounds-checked.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over the given bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StoreError::Truncated { context });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8> {
        Ok(self.bytes(1, context)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64> {
        let b = self.bytes(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64> {
        Ok(self.u64(context)? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self, context: &'static str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Reads a length-prefixed UTF-8 string. The claimed length is checked
    /// against the remaining bytes *before* allocating, so a corrupted huge
    /// length cannot trigger an out-of-memory abort.
    pub fn string(&mut self, context: &'static str) -> Result<String> {
        let len = self.u32(context)? as usize;
        if len > self.remaining() {
            return Err(StoreError::Truncated { context });
        }
        let bytes = self.bytes(len, context)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt(format!("invalid UTF-8 in {context}")))
    }

    /// Reads a `u32` element count and checks it is plausible: each element
    /// occupies at least `min_element_bytes`, so a count claiming more
    /// elements than the remaining bytes could hold is corrupt. Prevents
    /// pre-allocating gigantic vectors from a few flipped bits.
    pub fn count(&mut self, min_element_bytes: usize, context: &'static str) -> Result<usize> {
        let n = self.u32(context)? as usize;
        if n.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(StoreError::Truncated { context });
        }
        Ok(n)
    }
}

/// Writes one length-prefixed, checksummed section: `u64` length, the raw
/// body, then the body's FNV-1a checksum. The framing of both snapshot
/// sections.
pub fn write_section(w: &mut ByteWriter, body: &[u8]) {
    w.u64(body.len() as u64);
    w.bytes(body);
    w.u64(checksum(body));
}

/// Reads one length-prefixed, checksummed section and verifies its checksum.
pub fn read_section<'a>(r: &mut ByteReader<'a>, section: &'static str) -> Result<&'a [u8]> {
    let len = r.u64("section length")? as usize;
    if len > r.remaining() {
        return Err(StoreError::Truncated {
            context: "section body",
        });
    }
    let body = r.bytes(len, "section body")?;
    let stored = r.u64("section checksum")?;
    if checksum(body) != stored {
        return Err(StoreError::ChecksumMismatch { section });
    }
    Ok(body)
}

/// FNV-1a checksum over a byte slice — the same deterministic hash family as
/// `loop_ir::StructuralHasher`, so section checksums are stable across
/// platforms and Rust versions.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut state: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.string("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("c").unwrap(), u64::MAX);
        assert_eq!(r.i64("d").unwrap(), -42);
        assert_eq!(r.f64("e").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64("f").unwrap().is_nan());
        assert_eq!(r.string("g").unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_error_out() {
        let mut w = ByteWriter::new();
        w.u32(5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.u64("needs 8"),
            Err(StoreError::Truncated { .. })
        ));
        // The string length claims 5 bytes but only the prefix exists.
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.string("short"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn huge_claimed_count_is_rejected_before_allocating() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.count(8, "elems"),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt_not_panic() {
        let mut w = ByteWriter::new();
        w.u32(2);
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.string("s"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn checksum_is_stable() {
        // Pinned value: the checksum is part of the on-disk format.
        assert_eq!(checksum(b""), 0xCBF2_9CE4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
    }
}
