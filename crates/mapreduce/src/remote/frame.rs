//! Length-delimited, checksummed framing for the worker TCP protocol.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! ┌────────────┬────────────┬───────────┬──────────┬──────────────┬─────────┐
//! │ magic: u32 │ opcode: u16│ flags: u16│ len: u32 │ checksum: u64│ payload │
//! └────────────┴────────────┴───────────┴──────────┴──────────────┴─────────┘
//!     "SPQF"      dispatch       0        payload     FNV-1a over    len
//!                                          bytes        payload      bytes
//! ```
//!
//! All header fields are little-endian. The checksum lets the receiver
//! reject a corrupted payload *before* any structural decoding happens,
//! and the explicit length (capped at [`MAX_FRAME_LEN`]) bounds the
//! allocation a frame can demand. The payload buffer grows as bytes
//! arrive rather than being sized from the unverified header, so a
//! header that lies about its length costs nothing. A short read
//! anywhere — header or payload — surfaces as [`FrameError::Truncated`],
//! which is how a peer hanging up mid-frame is observed.

use std::io::{Read, Write};

/// Frame magic: `"SPQF"` as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"SPQF");

/// Upper bound on a frame payload (64 MiB). A length field above this is
/// treated as corruption, not as a real allocation request.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// Liveness probe; the payload is echoed back in the [`OP_PONG`] reply.
pub const OP_PING: u16 = 1;
/// Reply to [`OP_PING`].
pub const OP_PONG: u16 = 2;
/// Typed error reply to any request.
pub const OP_ERROR: u16 = 5;
/// Installs a query shard (executor config + data slice + features).
pub const OP_PROVISION: u16 = 6;
/// Acknowledges [`OP_PROVISION`].
pub const OP_PROVISION_OK: u16 = 7;
/// Runs one SPQ query against a provisioned shard.
pub const OP_SHARD_QUERY: u16 = 8;
/// Shard query reply: 12-byte wire records + stats.
pub const OP_SHARD_RESULT: u16 = 9;
/// Installs a [`FaultPlan`](super::FaultPlan) on the worker.
pub const OP_SET_FAULT: u16 = 10;
/// Acknowledges [`OP_SET_FAULT`] (never subject to fault injection).
pub const OP_FAULT_OK: u16 = 11;
/// Asks the worker to stop serving and exit its accept loop.
pub const OP_SHUTDOWN: u16 = 12;
/// Asks a shard host which shards it currently serves (empty payload).
/// A manager re-admitting a recovered worker uses the answer to decide
/// whether the worker's copies are still warm or must be re-provisioned.
pub const OP_SHARD_STATUS: u16 = 13;
/// Reply to [`OP_SHARD_STATUS`]: the hosted shard ids.
pub const OP_SHARD_STATUS_OK: u16 = 14;

/// Transport-level failure while reading or writing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header did not start with [`MAGIC`] — the peer is not speaking
    /// this protocol, or the stream lost sync.
    BadMagic {
        /// The four bytes found where the magic was expected.
        found: u32,
    },
    /// The length field exceeded [`MAX_FRAME_LEN`].
    Oversize {
        /// The claimed payload length.
        len: u32,
    },
    /// The payload did not match its checksum.
    Corrupt {
        /// Checksum the header promised.
        expected: u64,
        /// Checksum of the bytes actually received.
        found: u64,
    },
    /// The stream ended (peer hung up) before the frame was complete.
    Truncated,
    /// Any other I/O failure, by kind (timeouts surface here).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (want {MAGIC:#010x})")
            }
            FrameError::Oversize { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            FrameError::Corrupt { expected, found } => write!(
                f,
                "frame payload corrupt: checksum {found:#018x}, header says {expected:#018x}"
            ),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(kind) => write!(f, "frame i/o error: {kind}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
            kind => FrameError::Io(kind),
        }
    }
}

/// 64-bit FNV-1a over a byte slice — tiny, dependency-free, and plenty to
/// catch torn or bit-flipped payloads (this is an integrity check against
/// accidents, not an authentication code).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, opcode: u16, payload: &[u8]) -> Result<(), FrameError> {
    write_frame_with(w, opcode, payload, false)
}

/// Writes one frame, optionally corrupting the payload *after* the
/// checksum is computed — the fault-injection seam behind
/// [`FaultPlan::corrupt_response`](super::FaultPlan::corrupt_response).
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    opcode: u16,
    payload: &[u8],
    corrupt: bool,
) -> Result<(), FrameError> {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload of {} bytes exceeds the {MAX_FRAME_LEN} cap",
        payload.len()
    );
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&opcode.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    if corrupt && !payload.is_empty() {
        // Flip every bit of the payload's first byte; the header (and its
        // checksum field) still describe the original bytes.
        let first = HEADER_LEN;
        buf[first] = !buf[first];
    } else if corrupt {
        // An empty payload has no byte to flip; lie in the checksum
        // instead so the receiver still observes corruption.
        buf[12..20].copy_from_slice(&fnv1a(&[0xab]).to_le_bytes());
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

/// Largest payload buffer reserved before any payload byte has arrived;
/// beyond it the buffer grows with the bytes actually received.
const INITIAL_PAYLOAD_CAPACITY: usize = 64 << 10;

/// The `N` header bytes starting at `at`.
fn header_field<const N: usize>(header: &[u8; HEADER_LEN], at: usize) -> [u8; N] {
    std::array::from_fn(|i| header[at + i])
}

/// Reads one frame, verifying magic, length cap and checksum.
pub fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header_field(&header, 0));
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let opcode = u16::from_le_bytes(header_field(&header, 4));
    let len = u32::from_le_bytes(header_field(&header, 8));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversize { len });
    }
    let expected = u64::from_le_bytes(header_field(&header, 12));
    let mut payload = Vec::with_capacity((len as usize).min(INITIAL_PAYLOAD_CAPACITY));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(FrameError::Truncated);
    }
    let found = fnv1a(&payload);
    if found != expected {
        return Err(FrameError::Corrupt { expected, found });
    }
    Ok((opcode, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello").unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_PING);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn empty_payload_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_SHUTDOWN, &[]).unwrap();
        let (op, payload) = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(op, OP_SHUTDOWN);
        assert!(payload.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversize_length_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"x").unwrap();
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Oversize { len: u32::MAX })
        );
    }

    #[test]
    fn truncation_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, b"hello world").unwrap();
        buf.truncate(buf.len() - 3); // torn payload
        assert_eq!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Truncated)
        );
        // Torn header too.
        assert_eq!(
            read_frame(&mut Cursor::new(&buf[..7])),
            Err(FrameError::Truncated)
        );
    }

    /// A reader that records the largest buffer `read` is handed.
    struct LargestBuffer<R> {
        inner: R,
        largest: usize,
    }

    impl<R: Read> Read for LargestBuffer<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.inner.read(buf)
        }
    }

    #[test]
    fn lying_length_is_truncated_without_a_cap_sized_buffer() {
        // A header claiming the full cap, then EOF: the payload buffer
        // must grow with the bytes that arrive, not with the claim.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PING, &[]).unwrap();
        buf[8..12].copy_from_slice(&MAX_FRAME_LEN.to_le_bytes());
        let mut reader = LargestBuffer {
            inner: Cursor::new(buf),
            largest: 0,
        };
        assert_eq!(read_frame(&mut reader), Err(FrameError::Truncated));
        assert!(
            reader.largest <= INITIAL_PAYLOAD_CAPACITY,
            "read_frame handed the reader a {}-byte buffer",
            reader.largest
        );
    }

    #[test]
    fn corruption_is_detected_by_checksum() {
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, b"payload", true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
        // Even an empty payload can be corrupted (via the checksum field).
        let mut buf = Vec::new();
        write_frame_with(&mut buf, OP_PONG, &[], true).unwrap();
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
