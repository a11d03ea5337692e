//! Minimal explicit wire codec for the distributed backend.
//!
//! The workspace has no serialization framework, so the distributed
//! protocol encodes every field by hand with an explicit, documented byte
//! layout (PROTOCOL.md §2):
//!
//! * all integers little-endian, fixed width (`u8`/`u32`/`u64`);
//! * `f64` as the little-endian bytes of [`f64::to_bits`] — bit-exact
//!   round-trips, which the backend-differential digests rely on;
//! * `bytes`/`str` as a `u32` length followed by the raw payload;
//! * `Vec<T>` as a `u32` count followed by the elements;
//! * `Option<T>` as a presence byte (0/1) followed by the value.
//!
//! Decoding never panics: every read returns a structured [`WireError`] on
//! truncation or malformed input, and length prefixes are validated against
//! the remaining buffer before any allocation.

use std::fmt;

/// Upper bound accepted for a single length-prefixed field, guarding
/// against hostile length prefixes causing huge allocations.
pub const MAX_FIELD: usize = 256 * 1024 * 1024;

/// Structured decode failure. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the expected field (wanted, available).
    Truncated {
        /// Bytes the decoder needed.
        wanted: usize,
        /// Bytes left in the buffer.
        available: usize,
    },
    /// A length prefix exceeded [`MAX_FIELD`] or the remaining input.
    BadLength {
        /// The claimed length.
        claimed: usize,
        /// Bytes left in the buffer.
        available: usize,
    },
    /// A `str` field held invalid UTF-8.
    BadUtf8,
    /// An enum tag byte was not a known variant.
    BadTag {
        /// Name of the enum being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// Decoder finished with unconsumed bytes where none were expected.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { wanted, available } => {
                write!(
                    f,
                    "truncated input: wanted {wanted} bytes, have {available}"
                )
            }
            WireError::BadLength { claimed, available } => {
                write!(f, "bad length prefix: claimed {claimed}, have {available}")
            }
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a byte vector.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Write a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as the little-endian bytes of its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Write a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a count-prefixed vector of `u32`.
    pub fn vec_u32(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }

    /// Write a count-prefixed vector of `u64`.
    pub fn vec_u64(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }

    /// Write an `Option<u64>` as presence byte + value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
}

/// Cursor-based decoder over a byte slice. Every accessor validates
/// remaining length first and returns [`WireError`] instead of panicking.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                wanted: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool byte (any nonzero is true).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        Ok(self.u8()? != 0)
    }

    /// Validate a count/length prefix against the remaining input assuming
    /// each element occupies at least `min_elem_size` bytes.
    fn checked_len(&self, claimed: usize, min_elem_size: usize) -> Result<usize, WireError> {
        let need = claimed.saturating_mul(min_elem_size);
        if claimed > MAX_FIELD || need > self.remaining() {
            return Err(WireError::BadLength {
                claimed,
                available: self.remaining(),
            });
        }
        Ok(claimed)
    }

    /// Read a length-prefixed byte slice (borrowed).
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.u32()? as usize;
        let n = self.checked_len(n, 1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string (owned).
    pub fn string(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    /// Read a count-prefixed vector of `u32`.
    pub fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
        let n = self.checked_len(n, 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Read a count-prefixed vector of `u64`.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u32()? as usize;
        let n = self.checked_len(n, 8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Read an `Option<u64>` written by [`WireWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            _ => Ok(Some(self.u64()?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.bool(true);
        w.str("hello ⚙");
        w.bytes(&[1, 2, 3]);
        w.vec_u32(&[9, 8, 7]);
        w.vec_u64(&[]);
        w.opt_u64(Some(42));
        w.opt_u64(None);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert!(r.bool().unwrap());
        assert_eq!(r.string().unwrap(), "hello ⚙");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.vec_u32().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.vec_u64().unwrap(), Vec::<u64>::new());
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.opt_u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = WireWriter::new();
        w.u64(123);
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(matches!(r.u64(), Err(WireError::Truncated { .. })));
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Claims 4 GiB of string payload with 2 bytes behind it.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        w.u8(1);
        w.u8(2);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.bytes(), Err(WireError::BadLength { .. })));
        // Same guard on element vectors.
        let mut w = WireWriter::new();
        w.u32(1 << 30);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert!(matches!(r.vec_u64(), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = WireWriter::new();
        w.u32(5);
        w.u8(0);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        let _ = r.u32().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn bad_utf8_rejected() {
        let mut w = WireWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let buf = w.into_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.string(), Err(WireError::BadUtf8));
    }
}
