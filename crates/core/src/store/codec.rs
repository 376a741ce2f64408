//! Byte-level encode/decode primitives for the SweepStore formats.
//!
//! Everything on disk (and everything fingerprinted) flows through these
//! two types, so the wire conventions live in one place: little-endian
//! fixed-width integers, `f64` as raw IEEE-754 bits (bit-identical
//! round-trips — no shortest-float formatting anywhere near the cache),
//! strings and sequences length-prefixed with a `u64`. Hand-rolled on
//! purpose: the build is offline and the workspace's only non-std
//! dependencies are the `compat/` shims.
//!
//! Decoding never panics. Every read is bounds-checked and every failure
//! comes back as a typed [`DecodeError`], because a corrupted cache
//! record must surface as a cache miss, not abort a sweep.

use std::fmt;

/// Where an encoding goes, in the store's conventions (little-endian
/// fixed-width integers, `f64` as raw bits, `u64` length prefixes): a
/// [`ByteWriter`], or the fingerprint's streaming digest. Implementors
/// supply only `put_raw`.
pub(crate) trait Sink {
    /// Append raw bytes verbatim (magic numbers, fingerprint digests).
    fn put_raw(&mut self, bytes: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_raw(&[v]);
    }

    /// Append a little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Append a `usize` widened to `u64` (lengths, node indices).
    fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its raw IEEE-754 bit pattern.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_raw(s.as_bytes());
    }
}

/// An append-only byte buffer with the store's encoding conventions.
#[derive(Debug, Default)]
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub(crate) fn new() -> Self {
        ByteWriter::default()
    }

    /// The encoded bytes.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

impl Sink for ByteWriter {
    fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Why a byte stream failed to decode. Positions are byte offsets into
/// the payload being decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before a fixed-width read completed.
    UnexpectedEof {
        /// Offset of the failed read.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
    },
    /// An enum tag byte was outside the known range.
    BadTag {
        /// Offset of the tag byte.
        offset: usize,
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length prefix was absurd (larger than the remaining stream or
    /// than `usize`).
    BadLength {
        /// What was being decoded.
        what: &'static str,
    },
    /// A string's bytes were not valid UTF-8.
    BadUtf8 {
        /// Offset of the string payload.
        offset: usize,
    },
    /// Structurally well-formed bytes that violate an invariant (e.g.
    /// histogram bucket shape).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes {
        /// How many bytes remained.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { offset, needed } => {
                write!(
                    f,
                    "unexpected end of record at byte {offset} (needed {needed} more)"
                )
            }
            DecodeError::BadTag { offset, what, tag } => {
                write!(f, "unknown {what} tag {tag} at byte {offset}")
            }
            DecodeError::BadLength { what } => {
                write!(f, "implausible length prefix while decoding {what}")
            }
            DecodeError::BadUtf8 { offset } => write!(f, "invalid UTF-8 at byte {offset}"),
            DecodeError::Invalid { what } => write!(f, "invalid {what}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete record")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let eof = DecodeError::UnexpectedEof {
            offset: self.pos,
            needed: n,
        };
        let end = self.pos.checked_add(n).ok_or(eof.clone())?;
        let slice = self.buf.get(self.pos..end).ok_or(eof)?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub(crate) fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?.first().copied().unwrap_or_default())
    }

    /// Read a little-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let mut word = [0u8; 4];
        word.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(word))
    }

    /// Read a little-endian `u64`.
    pub(crate) fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    /// Read an `f64` from its raw bit pattern.
    pub(crate) fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool byte; anything but 0/1 is a [`DecodeError::BadTag`].
    pub(crate) fn get_bool(&mut self) -> Result<bool, DecodeError> {
        let offset = self.pos;
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::BadTag {
                offset,
                what: "bool",
                tag,
            }),
        }
    }

    /// Read a sequence-length prefix, rejecting counts that could not fit
    /// in the remaining bytes at `min_elem_bytes` each — a corrupted
    /// length must fail cleanly, not drive a huge allocation.
    pub(crate) fn get_seq_len(
        &mut self,
        what: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, DecodeError> {
        let raw = self.get_u64()?;
        let len = usize::try_from(raw).map_err(|_| DecodeError::BadLength { what })?;
        let cap = match min_elem_bytes {
            0 => usize::MAX,
            per => self.remaining() / per,
        };
        if len > cap {
            return Err(DecodeError::BadLength { what });
        }
        Ok(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub(crate) fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_seq_len("string", 1)?;
        let offset = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8 { offset })
    }

    /// Read raw bytes verbatim.
    pub(crate) fn get_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Assert the stream is fully consumed.
    pub(crate) fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(DecodeError::TrailingBytes { remaining }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_str("phase: fft");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        // Bit-exact: -0.0 must come back as -0.0, not 0.0.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_str().unwrap(), "phase: fft");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_reads_are_typed_errors() {
        let mut w = ByteWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..5]);
        assert!(matches!(
            r.get_u64(),
            Err(DecodeError::UnexpectedEof { needed: 8, .. })
        ));
    }

    #[test]
    fn absurd_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_seq_len("samples", 8),
            Err(DecodeError::BadLength { what: "samples" })
        );
    }

    #[test]
    fn bad_bool_and_trailing_bytes() {
        let mut r = ByteReader::new(&[9, 1]);
        assert!(matches!(
            r.get_bool(),
            Err(DecodeError::BadTag {
                what: "bool",
                tag: 9,
                ..
            })
        ));
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.put_usize(2);
        w.put_raw(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_str(), Err(DecodeError::BadUtf8 { .. })));
    }
}
