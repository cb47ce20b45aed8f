//! Binary state-codec primitives for snapshot persistence.
//!
//! The workspace builds offline (no `serde`/`bincode`), so snapshots use the
//! same hand-rolled philosophy as `cora_stream::json`, but binary: a compact
//! little-endian, length-prefixed format written through [`ByteWriter`] and
//! read back through [`ByteReader`]. Sketches implement [`StateCodec`] to
//! serialise their *counter state only* — hash functions are deterministic
//! functions of the construction parameters (dimensions + seed), so a
//! snapshot is decoded **into a freshly constructed, same-seeded sketch**
//! rather than carrying coefficient tables. The encoder writes the
//! dimensions/seed anyway and the decoder verifies them, so restoring into a
//! mismatched sketch fails loudly instead of silently mixing hash families.
//!
//! Framing (magic, version, checksum) is layered on top by
//! `cora_core::snapshot`; this module is only the byte-level vocabulary
//! shared by every crate that persists state.

use crate::exact::ExactFrequencies;
use crate::fast_ams::FastAmsSketch;
use crate::traits::{SpaceUsage, StreamSketch};
use std::fmt;

/// Errors produced while decoding snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the expected value was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The bytes decoded but describe an impossible or mismatched state.
    Corrupt(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} more bytes, {available} available"
            ),
            CodecError::Corrupt(detail) => write!(f, "snapshot corrupt: {detail}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Result alias for decoding.
pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// FNV-1a 64-bit hash over a byte slice — the snapshot payload checksum.
///
/// Not cryptographic; it guards against torn writes, truncation, and bit rot,
/// which is all a local snapshot file needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An append-only little-endian byte sink.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (snapshots are portable across pointer
    /// widths).
    pub fn put_len(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (exact round-trip,
    /// including NaN payloads — these are gating weights, not display
    /// values).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `Option<u64>` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Append raw bytes (no length prefix; pair with [`Self::put_len`]).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// A cursor over snapshot bytes with checked little-endian reads.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume `n` raw bytes.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (rejecting anything but 0/1).
    pub fn get_bool(&mut self) -> CodecResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::Corrupt(format!("invalid bool byte {other}"))),
        }
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("take(4)")))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// Read an `i64`.
    pub fn get_i64(&mut self) -> CodecResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("take(8)")))
    }

    /// Read a length written by [`ByteWriter::put_len`]. Only the `usize`
    /// conversion is checked here; when the length drives an allocation,
    /// prefer [`Self::get_count`], which also bounds it by the remaining
    /// input.
    pub fn get_len(&mut self) -> CodecResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CodecError::Corrupt(format!("length {v} exceeds the address space")))
    }

    /// Read an element count whose elements occupy at least
    /// `min_entry_bytes` each, rejecting counts the remaining input cannot
    /// possibly hold — so a corrupt (or forged-checksum) length can never
    /// drive a huge up-front allocation.
    pub fn get_count(&mut self, min_entry_bytes: usize) -> CodecResult<usize> {
        let n = self.get_len()?;
        let needed = n.saturating_mul(min_entry_bytes.max(1));
        if needed > self.remaining() {
            return Err(CodecError::Corrupt(format!(
                "count {n} needs at least {needed} bytes, {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read an `f64` bit pattern.
    pub fn get_f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an `Option<u64>`.
    pub fn get_opt_u64(&mut self) -> CodecResult<Option<u64>> {
        Ok(if self.get_bool()? {
            Some(self.get_u64()?)
        } else {
            None
        })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> CodecResult<String> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Corrupt(format!("invalid UTF-8 string: {e}")))
    }

    /// Require that every byte was consumed (payloads are exact-length).
    pub fn expect_end(&self) -> CodecResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Corrupt(format!(
                "{} unexpected trailing bytes",
                self.remaining()
            )))
        }
    }
}

/// Counter-state serialisation for a sketch.
///
/// `encode_state` writes the sketch's dimensions/seed and its counter state;
/// `decode_state` is called on a **freshly constructed sketch with the same
/// construction parameters** (hash functions are re-derived from the seed,
/// never serialised) and fails if the encoded dimensions or seed differ.
/// After a successful decode the sketch answers every query bit-identically
/// to the encoded one.
pub trait StateCodec {
    /// Serialise dimensions, seed, and counter state.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Load state encoded by [`Self::encode_state`] into `self` (freshly
    /// constructed, same parameters).
    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()>;
}

/// Verify an encoded `(name, actual)` dimension pair.
pub(crate) fn check_dim(name: &str, encoded: u64, actual: u64) -> CodecResult<()> {
    if encoded != actual {
        return Err(CodecError::Corrupt(format!(
            "{name} mismatch: snapshot has {encoded}, receiving sketch has {actual}"
        )));
    }
    Ok(())
}

impl StateCodec for ExactFrequencies {
    fn encode_state(&self, w: &mut ByteWriter) {
        // Entries sorted by item: the in-memory map order is arbitrary, the
        // wire order must not be (snapshots of equal states are equal bytes).
        let mut entries: Vec<(u64, i64)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(item, _)| item);
        w.put_len(entries.len());
        for (item, f) in entries {
            w.put_u64(item);
            w.put_i64(f);
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        if self.stored_tuples() != 0 {
            return Err(CodecError::Corrupt(
                "ExactFrequencies::decode_state requires an empty receiver".into(),
            ));
        }
        let n = r.get_len()?;
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let item = r.get_u64()?;
            if prev.is_some_and(|p| p >= item) {
                return Err(CodecError::Corrupt(
                    "ExactFrequencies entries out of order".into(),
                ));
            }
            prev = Some(item);
            let f = r.get_i64()?;
            if f == 0 {
                return Err(CodecError::Corrupt(
                    "ExactFrequencies entry with zero frequency".into(),
                ));
            }
            self.update(item, f);
        }
        Ok(())
    }
}

impl StateCodec for FastAmsSketch {
    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_u64(self.width() as u64);
        w.put_u64(self.depth() as u64);
        w.put_u64(self.seed());
        for row in self.row_counters() {
            // A zero sum of squares means every counter is zero: skip the row.
            let empty = row.iter().all(|&c| c == 0);
            w.put_bool(empty);
            if !empty {
                for &c in row {
                    w.put_i64(c);
                }
            }
        }
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> CodecResult<()> {
        check_dim("FastAMS width", r.get_u64()?, self.width() as u64)?;
        check_dim("FastAMS depth", r.get_u64()?, self.depth() as u64)?;
        check_dim("FastAMS seed", r.get_u64()?, self.seed())?;
        let width = self.width();
        let depth = self.depth();
        let mut rows: Vec<Option<Vec<i64>>> = Vec::with_capacity(depth);
        for _ in 0..depth {
            if r.get_bool()? {
                rows.push(None);
            } else {
                let mut counters = Vec::with_capacity(width);
                for _ in 0..width {
                    counters.push(r.get_i64()?);
                }
                rows.push(Some(counters));
            }
        }
        self.load_row_counters(&rows);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Estimate;

    fn round_trip<T: StateCodec>(src: &T, dst: &mut T) {
        let mut w = ByteWriter::new();
        src.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        dst.decode_state(&mut r).expect("decode");
        r.expect_end().expect("exact length");
    }

    #[test]
    fn primitive_round_trips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(0.1);
        w.put_opt_u64(None);
        w.put_opt_u64(Some(99));
        w.put_str("héllo\n");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 0.1);
        assert_eq!(r.get_opt_u64().unwrap(), None);
        assert_eq!(r.get_opt_u64().unwrap(), Some(99));
        assert_eq!(r.get_str().unwrap(), "héllo\n");
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = ByteWriter::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(r.get_u64(), Err(CodecError::Truncated { .. })));
        let mut r = ByteReader::new(&bytes);
        r.get_u64().unwrap();
        assert!(r.expect_end().is_ok());
        let mut r = ByteReader::new(&bytes);
        r.get_u32().unwrap();
        assert!(r.expect_end().is_err());
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a64(b"cora");
        let mut flipped = b"cora".to_vec();
        flipped[1] ^= 1;
        assert_ne!(a, fnv1a64(&flipped));
    }

    #[test]
    fn exact_frequencies_round_trip_bit_identical() {
        let mut src = ExactFrequencies::new();
        for i in 0..40u64 {
            src.update(i * 17 % 101, (i % 9) as i64 + 1);
        }
        src.update(7, -2);
        let mut dst = ExactFrequencies::new();
        round_trip(&src, &mut dst);
        assert_eq!(src.stored_tuples(), dst.stored_tuples());
        assert_eq!(src.total_weight(), dst.total_weight());
        assert_eq!(src.frequency_moment(2), dst.frequency_moment(2));
        for item in 0..101u64 {
            assert_eq!(src.frequency(item), dst.frequency(item));
        }
    }

    #[test]
    fn exact_frequencies_rejects_disorder_and_zero_entries() {
        let mut w = ByteWriter::new();
        w.put_len(2);
        w.put_u64(5);
        w.put_i64(1);
        w.put_u64(5);
        w.put_i64(1);
        let bytes = w.into_bytes();
        let mut dst = ExactFrequencies::new();
        assert!(dst.decode_state(&mut ByteReader::new(&bytes)).is_err());

        let mut w = ByteWriter::new();
        w.put_len(1);
        w.put_u64(5);
        w.put_i64(0);
        let bytes = w.into_bytes();
        let mut dst = ExactFrequencies::new();
        assert!(dst.decode_state(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn fast_ams_round_trip_bit_identical() {
        let mut src = FastAmsSketch::with_dimensions(64, 5, 11);
        for i in 0..500u64 {
            src.update(i % 73, (i % 5) as i64 - 2);
        }
        let mut dst = FastAmsSketch::with_dimensions(64, 5, 11);
        round_trip(&src, &mut dst);
        assert_eq!(src.estimate(), dst.estimate());
        for item in 0..73u64 {
            assert_eq!(src.frequency_estimate(item), dst.frequency_estimate(item));
        }
        // Empty sketches round-trip in a handful of bytes (rows skipped).
        let empty = FastAmsSketch::with_dimensions(4096, 7, 3);
        let mut w = ByteWriter::new();
        empty.encode_state(&mut w);
        assert!(w.len() < 64, "empty rows must be skipped, got {}", w.len());
    }

    #[test]
    fn fast_ams_rejects_mismatched_receiver() {
        let src = FastAmsSketch::with_dimensions(64, 5, 11);
        let mut w = ByteWriter::new();
        src.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut wrong_seed = FastAmsSketch::with_dimensions(64, 5, 12);
        assert!(wrong_seed.decode_state(&mut ByteReader::new(&bytes)).is_err());
        let mut wrong_width = FastAmsSketch::with_dimensions(32, 5, 11);
        assert!(wrong_width.decode_state(&mut ByteReader::new(&bytes)).is_err());
    }
}
