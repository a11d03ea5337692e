//! Length-prefixed frames with magic, version, and checksum.
//!
//! Every protocol message travels in exactly one frame (PROTOCOL.md §1):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"SMPD"
//! 4       1     version (currently 3)
//! 5       4     payload length, u32 little-endian (<= MAX_FRAME)
//! 9       8     FNV-1a 64 checksum of the payload, u64 little-endian
//! 17      len   payload (one encoded `Msg`)
//! ```
//!
//! Reading validates magic, version, length bound, and checksum before the
//! payload is handed to the message decoder, and returns a structured
//! [`FrameError`] on any mismatch — corrupt or truncated frames can never
//! panic the peer, nor make it allocate much more than they actually
//! send. The frame layer is transport-agnostic: it only needs
//! `Read`/`Write`.

use std::io::{self, Read, Write};

/// Frame preamble: ASCII "SMPD".
pub const MAGIC: [u8; 4] = *b"SMPD";
/// Current protocol version. Bumped on any wire-incompatible change
/// (2: `Done` carries a batch of results and is acknowledged by `seq`;
/// 3: no `Cancel`, and `Init`, `StealAsk` and `Hello` lose the fields no
/// receiver read).
pub const VERSION: u8 = 3;
/// Maximum accepted payload size (64 MiB); larger frames are rejected
/// before allocation.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;
/// Largest payload buffer allocated on the header's word alone. The
/// checksum can only be verified once the payload is in, so a longer
/// claim is believed only as far as bytes have actually arrived: the
/// buffer at most doubles per completed read, bounding what a 17-byte
/// header can make a peer allocate.
const EAGER_PAYLOAD: usize = 64 * 1024;
/// Fixed header size in bytes (magic + version + length + checksum).
pub const HEADER_LEN: usize = 17;

/// Structured framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended mid-frame (connection closed or truncated input).
    Truncated,
    /// The 4-byte preamble was not [`MAGIC`].
    BadMagic {
        /// The bytes actually read.
        found: [u8; 4],
    },
    /// The version byte did not match [`VERSION`].
    BadVersion {
        /// The version actually read.
        found: u8,
    },
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        claimed: u64,
    },
    /// The payload checksum did not match the header.
    ChecksumMismatch {
        /// Checksum stated in the header.
        expected: u64,
        /// Checksum computed over the received payload.
        actual: u64,
    },
    /// Underlying transport error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            FrameError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (want {VERSION})")
            }
            FrameError::Oversized { claimed } => {
                write!(f, "frame payload of {claimed} bytes exceeds {MAX_FRAME}")
            }
            FrameError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#x}, payload {actual:#x}"
                )
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        // EOF between frames surfaces as Truncated so callers can treat a
        // cleanly closed peer uniformly with a torn one.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    }
}

/// FNV-1a 64-bit over `bytes` — the same hash family the digest layer uses,
/// chosen for determinism and zero dependencies, not cryptography.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serialize one frame around `payload` and write it to `w` — header and
/// payload in a single write, so an unbuffered socket sees one syscall
/// (and its reader one wake-up) per frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME {
        return Err(FrameError::Oversized {
            claimed: payload.len() as u64,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read exactly one frame from `r`, validating header and checksum.
///
/// Returns the payload bytes. A peer that closed the connection cleanly
/// between frames yields `FrameError::Truncated`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut magic = [0u8; 4];
    magic.copy_from_slice(&header[..4]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    if header[4] != VERSION {
        return Err(FrameError::BadVersion { found: header[4] });
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Oversized {
            claimed: len as u64,
        });
    }
    let expected = u64::from_le_bytes([
        header[9], header[10], header[11], header[12], header[13], header[14], header[15],
        header[16],
    ]);
    let mut payload = vec![0u8; len.min(EAGER_PAYLOAD)];
    r.read_exact(&mut payload)?;
    while payload.len() < len {
        let have = payload.len();
        payload.resize(len.min(have * 2), 0);
        r.read_exact(&mut payload[have..])?;
    }
    let actual = fnv1a(&payload);
    if actual != expected {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let payload = b"steal ten tasks".to_vec();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[]).unwrap();
        let got = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn every_truncation_is_truncated_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload bytes").unwrap();
        for cut in 0..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, FrameError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn corrupt_magic_version_and_payload() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(FrameError::BadMagic { .. })
        ));

        // A peer one version ahead, and one still speaking version 2.
        for found in [VERSION + 1, 2] {
            let mut bad = buf.clone();
            bad[4] = found;
            assert!(matches!(
                read_frame(&mut Cursor::new(&bad)),
                Err(FrameError::BadVersion { found: f }) if f == found
            ));
        }

        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(&bad)),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn oversized_rejected_without_allocation() {
        let mut header = [0u8; HEADER_LEN];
        header[..4].copy_from_slice(&MAGIC);
        header[4] = VERSION;
        header[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(&header)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
    }
}
