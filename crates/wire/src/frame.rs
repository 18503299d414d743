//! Stream framing for the socket transport.
//!
//! The wire crate's core job is encoding *images* — self-contained byte
//! buffers.  Moving those buffers over a byte stream (a `TcpStream`)
//! needs one more layer: message boundaries.  This module is that layer,
//! deliberately minimal:
//!
//! ```text
//! frame := [kind: u8] [len: u32 LE] [payload: len bytes]
//! ```
//!
//! plus the two handshake payloads ([`Hello`], [`Welcome`]) that open
//! every connection.  Everything above frames — RPC payload schemas, the
//! cluster protocol state machine — lives in `mojave-cluster`; everything
//! below — the canonical encoding of the payloads themselves — is the
//! ordinary [`WireWriter`]/[`WireReader`] machinery.
//!
//! Like the rest of the format, frames arrive from untrusted peers: every
//! decode path returns a precise [`FrameError`] and never panics, never
//! allocates more than a bounded amount before the input has paid for it
//! (payloads are read in [`READ_CHUNK`]-sized steps, so a hostile header
//! declaring [`MAX_FRAME_LEN`] bytes costs only as much memory as the
//! peer actually transmits).

use crate::{WireError, WireReader, WireWriter, FORMAT_VERSION, MAGIC};
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the *transport* protocol (framing + handshake + RPC
/// numbering).  Independent of the image [`FORMAT_VERSION`]: a transport
/// bump changes how bytes move, not what they decode to.
///
/// v2 added the observability scrape messages ([`FrameKind::ObsPush`]
/// through [`FrameKind::ObsReply`]).  v3 dropped the `Welcome`'s
/// determinism byte and the timeout and coalesced reply values: every
/// cluster is a seeded simulation, receives never time out and every
/// checkpoint is delivered.
pub const TRANSPORT_VERSION: u32 = 3;

/// Upper bound on a single frame's payload (1 GiB).  A frame carries at
/// most one wire image plus small metadata; anything larger is corruption
/// or an attack, and rejecting it at the header keeps a hostile peer from
/// requesting unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// Incremental read size for frame payloads: memory is committed as the
/// bytes actually arrive, never all at once on the header's say-so.
const READ_CHUNK: usize = 64 * 1024;

/// Every message kind in transport v1, in protocol-number order.
///
/// The split mirrors the trait surface it transports: `Tick`/`Send`/
/// `Recv`/`Fail`/`Deliver`/`HasBase` are the six operations of the
/// cluster crate's `ClusterOps` (the first four issued by a worker's
/// externals, the last two by its migration sink), and the rest is
/// connection lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: open a connection (magic, versions, node id,
    /// codec bits, architecture tag).
    Hello = 1,
    /// Server → client: handshake accepted; cluster shape and the
    /// negotiated codec set.
    Welcome = 2,
    /// Either direction: a fatal protocol error, described in UTF-8,
    /// sent as a courtesy before closing the connection.
    Error = 3,
    /// Server → client: the program to run (worker source + options).
    Job = 4,
    /// Client → server: `msg_send` RPC.
    Send = 5,
    /// Server → client: `msg_send` acknowledged.
    SendAck = 6,
    /// Client → server: `msg_recv` RPC (blocks server-side).
    Recv = 7,
    /// Server → client: `msg_recv` outcome.
    RecvReply = 8,
    /// Client → server: per-external-call failure/clock tick probe.
    Tick = 9,
    /// Server → client: failure flag, then the virtual clock (alive) or
    /// the failure epoch (failed).
    TickReply = 10,
    /// Client → server: `inject_failure` RPC.
    Fail = 11,
    /// Server → client: failure injected, at this failure epoch.
    FailAck = 12,
    /// Client → server: a wire image delivery (`MigrationSink::deliver`).
    Deliver = 13,
    /// Server → client: delivery outcome.
    DeliverAck = 14,
    /// Client → server: `MigrationSink::has_base` probe.
    HasBase = 15,
    /// Server → client: `has_base` answer.
    HasBaseReply = 16,
    /// Client → server: final run statistics for this node.
    Stats = 17,
    /// Server → client: statistics recorded.
    StatsAck = 18,
    /// Client → server: clean shutdown; the connection closes after.
    Bye = 19,
    /// Client → server: a node's observability report (metrics snapshot
    /// plus flight-recorder events) pushed at end of run.
    ObsPush = 20,
    /// Server → client: observability report recorded.
    ObsAck = 21,
    /// Client → server: scrape request — send back the observability
    /// reports collected so far.
    ObsQuery = 22,
    /// Server → client: the aggregated observability reports.
    ObsReply = 23,
}

impl FrameKind {
    /// Decode a protocol-number byte.
    pub fn from_u8(byte: u8) -> Option<FrameKind> {
        use FrameKind::*;
        const ALL: [FrameKind; 23] = [
            Hello,
            Welcome,
            Error,
            Job,
            Send,
            SendAck,
            Recv,
            RecvReply,
            Tick,
            TickReply,
            Fail,
            FailAck,
            Deliver,
            DeliverAck,
            HasBase,
            HasBaseReply,
            Stats,
            StatsAck,
            Bye,
            ObsPush,
            ObsAck,
            ObsQuery,
            ObsReply,
        ];
        ALL.into_iter().find(|k| *k as u8 == byte)
    }
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors produced while reading or writing frames on a stream.
///
/// Unlike [`WireError`] this has to absorb I/O failures, so it is not
/// `PartialEq`; match on variants instead.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The stream ended cleanly *between* frames — an orderly close.
    Closed,
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the header promised.
        expected: usize,
    },
    /// The kind byte named no known message.
    UnknownKind(u8),
    /// The header declared a payload larger than [`MAX_FRAME_LEN`].
    Oversized {
        /// The message kind carrying the implausible length.
        kind: FrameKind,
        /// The declared payload length.
        len: u32,
    },
    /// A frame payload failed to decode.
    Wire(WireError),
    /// The peer sent a well-formed frame that violates the protocol
    /// (wrong kind for the state, bad handshake values, an explicit
    /// [`FrameKind::Error`] message).
    Protocol(String),
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> FrameError {
        FrameError::Wire(e)
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { got, expected } => {
                write!(
                    f,
                    "connection closed mid-frame: got {got} of {expected} bytes"
                )
            }
            FrameError::UnknownKind(byte) => write!(f, "unknown frame kind {byte:#04x}"),
            FrameError::Oversized { kind, len } => {
                write!(f, "{kind} frame declares implausible length {len}")
            }
            FrameError::Wire(e) => write!(f, "frame payload rejected: {e}"),
            FrameError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame: kind byte, little-endian length, payload.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or(FrameError::Oversized {
            kind,
            len: u32::MAX,
        })?;
    let mut header = [0u8; 5];
    header[0] = kind as u8;
    header[1..5].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame.  Blocks until a full frame arrives (or the stream's
/// read timeout fires, surfacing as [`FrameError::Io`]).
///
/// A clean EOF before any header byte is [`FrameError::Closed`]; an EOF
/// anywhere after is [`FrameError::Truncated`] — the two cases a
/// connection handler must treat differently (orderly close vs. a peer
/// dying mid-message).
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let mut header = [0u8; 5];
    let mut filled = 0usize;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated {
                        got: filled,
                        expected: header.len(),
                    }
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let kind = FrameKind::from_u8(header[0]).ok_or(FrameError::UnknownKind(header[0]))?;
    let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { kind, len });
    }
    let expected = len as usize;
    let mut payload = Vec::new();
    while payload.len() < expected {
        let want = (expected - payload.len()).min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + want, 0);
        match r.read(&mut payload[start..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    got: start + header.len(),
                    expected: expected + header.len(),
                });
            }
            Ok(n) => payload.truncate(start + n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => payload.truncate(start),
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok((kind, payload))
}

/// Per-connection (or per-node) transport traffic accounting.
///
/// All counters are atomics so one `Arc<LinkStats>` can be shared
/// between a connection handler and whoever reports the totals; byte
/// counts include the 5-byte frame header, so they match what actually
/// crossed the socket.
#[derive(Debug, Default)]
pub struct LinkStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl LinkStats {
    /// Fresh zeroed counters.
    pub fn new() -> LinkStats {
        LinkStats::default()
    }

    /// Account one outbound frame of `payload_len` bytes.
    pub fn note_sent(&self, payload_len: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent
            .fetch_add(5 + payload_len as u64, Ordering::Relaxed);
    }

    /// Account one inbound frame of `payload_len` bytes.
    pub fn note_received(&self, payload_len: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(5 + payload_len as u64, Ordering::Relaxed);
    }

    /// Frames written to the peer.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames read from the peer.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// Bytes written to the peer (headers included).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes read from the peer (headers included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }
}

/// [`write_frame`] plus accounting into `stats`.
pub fn write_frame_counted(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
    stats: &LinkStats,
) -> Result<(), FrameError> {
    write_frame(w, kind, payload)?;
    stats.note_sent(payload.len());
    Ok(())
}

/// [`read_frame`] plus accounting into `stats`.
pub fn read_frame_counted(
    r: &mut impl Read,
    stats: &LinkStats,
) -> Result<(FrameKind, Vec<u8>), FrameError> {
    let (kind, payload) = read_frame(r)?;
    stats.note_received(payload.len());
    Ok((kind, payload))
}

/// The client's opening message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Transport protocol version ([`TRANSPORT_VERSION`]).
    pub transport_version: u32,
    /// Image format version the client encodes ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Which cluster node this connection embodies.
    pub node: u32,
    /// Codec membership bits the client can *encode*
    /// (`CodecSet::bits()`).
    pub codec_bits: u8,
    /// Architecture tag the client's machine runs
    /// (e.g. `"ia32-sim"`).
    pub arch: String,
}

impl Hello {
    /// Encode as a `Hello` frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.write_u32(MAGIC);
        w.write_u32(self.transport_version);
        w.write_u32(self.format_version);
        w.write_u32(self.node);
        w.write_u8(self.codec_bits);
        w.write_str(&self.arch);
        w.into_bytes()
    }

    /// Decode a `Hello` frame payload, validating the magic.
    pub fn from_payload(payload: &[u8]) -> Result<Hello, FrameError> {
        let mut r = WireReader::new(payload);
        let magic = r.read_u32()?;
        if magic != MAGIC {
            return Err(FrameError::Wire(WireError::BadMagic { found: magic }));
        }
        let hello = Hello {
            transport_version: r.read_u32()?,
            format_version: r.read_u32()?,
            node: r.read_u32()?,
            codec_bits: r.read_u8()?,
            arch: r.read_str()?.to_owned(),
        };
        if !r.is_empty() {
            return Err(FrameError::Wire(WireError::TrailingBytes {
                remaining: r.remaining(),
            }));
        }
        Ok(hello)
    }

    /// A hello for the current runtime's versions.
    pub fn current(node: u32, codec_bits: u8, arch: impl Into<String>) -> Hello {
        Hello {
            transport_version: TRANSPORT_VERSION,
            format_version: FORMAT_VERSION,
            node,
            codec_bits,
            arch: arch.into(),
        }
    }
}

/// The server's handshake acceptance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Welcome {
    /// Transport protocol version the server speaks.
    pub transport_version: u32,
    /// Image format version the server decodes.
    pub format_version: u32,
    /// Total nodes in the cluster.
    pub num_nodes: u32,
    /// Per-node RNG seed for the connected node.
    pub node_seed: u64,
    /// Architecture tag the node must emulate.
    pub arch: String,
    /// Negotiated codec bits: the intersection of the client's
    /// advertised set and the server's accepted set.
    pub codec_bits: u8,
}

impl Welcome {
    /// Encode as a `Welcome` frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.write_u32(MAGIC);
        w.write_u32(self.transport_version);
        w.write_u32(self.format_version);
        w.write_u32(self.num_nodes);
        w.write_u64(self.node_seed);
        w.write_str(&self.arch);
        w.write_u8(self.codec_bits);
        w.into_bytes()
    }

    /// Decode a `Welcome` frame payload, validating the magic.
    pub fn from_payload(payload: &[u8]) -> Result<Welcome, FrameError> {
        let mut r = WireReader::new(payload);
        let magic = r.read_u32()?;
        if magic != MAGIC {
            return Err(FrameError::Wire(WireError::BadMagic { found: magic }));
        }
        let welcome = Welcome {
            transport_version: r.read_u32()?,
            format_version: r.read_u32()?,
            num_nodes: r.read_u32()?,
            node_seed: r.read_u64()?,
            arch: r.read_str()?.to_owned(),
            codec_bits: r.read_u8()?,
        };
        if !r.is_empty() {
            return Err(FrameError::Wire(WireError::TrailingBytes {
                remaining: r.remaining(),
            }));
        }
        Ok(welcome)
    }
}

/// Send an [`FrameKind::Error`] frame (best-effort: failures to deliver
/// the courtesy message are swallowed — the connection is dying anyway).
pub fn send_error(w: &mut impl Write, message: &str) {
    let mut payload = WireWriter::new();
    payload.write_str(message);
    let _ = write_frame(w, FrameKind::Error, &payload.into_bytes());
}

/// Decode an [`FrameKind::Error`] frame's message.
pub fn decode_error(payload: &[u8]) -> String {
    let mut r = WireReader::new(payload);
    r.read_str()
        .map(str::to_owned)
        .unwrap_or_else(|_| "<malformed error frame>".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Deliver, b"payload bytes").unwrap();
        write_frame(&mut buf, FrameKind::Bye, b"").unwrap();
        let mut cursor = &buf[..];
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Deliver);
        assert_eq!(payload, b"payload bytes");
        let (kind, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(kind, FrameKind::Bye);
        assert!(payload.is_empty());
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn truncation_is_distinguished_from_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Send, &[7u8; 100]).unwrap();
        // Cut inside the header.
        let mut cursor = &buf[..3];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated { got: 3, .. })
        ));
        // Cut inside the payload.
        let mut cursor = &buf[..40];
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_headers_rejected_without_allocation() {
        // Unknown kind byte.
        let bytes = [0xEEu8, 1, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::UnknownKind(0xEE))
        ));
        // A length past MAX_FRAME_LEN is rejected at the header; the
        // reader must not try to allocate it.
        let mut bytes = vec![FrameKind::Deliver as u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bytes[..]),
            Err(FrameError::Oversized {
                kind: FrameKind::Deliver,
                len: u32::MAX,
            })
        ));
    }

    #[test]
    fn handshake_payload_roundtrip() {
        let hello = Hello::current(3, 0b1111, "ia32-sim");
        let back = Hello::from_payload(&hello.to_payload()).unwrap();
        assert_eq!(back, hello);

        let welcome = Welcome {
            transport_version: TRANSPORT_VERSION,
            format_version: FORMAT_VERSION,
            num_nodes: 4,
            node_seed: 0xDEAD_BEEF_F00D,
            arch: "risc-sim".to_owned(),
            codec_bits: 0b0101,
        };
        let back = Welcome::from_payload(&welcome.to_payload()).unwrap();
        assert_eq!(back, welcome);
    }

    #[test]
    fn handshake_rejects_bad_magic_and_trailing_bytes() {
        let mut payload = Hello::current(0, 0xF, "ia32-sim").to_payload();
        payload[0] ^= 0xFF;
        assert!(matches!(
            Hello::from_payload(&payload),
            Err(FrameError::Wire(WireError::BadMagic { .. }))
        ));

        let mut payload = Hello::current(0, 0xF, "ia32-sim").to_payload();
        payload.push(0);
        assert!(matches!(
            Hello::from_payload(&payload),
            Err(FrameError::Wire(WireError::TrailingBytes { remaining: 1 }))
        ));
    }

    #[test]
    fn obs_frame_kinds_roundtrip() {
        for kind in [
            FrameKind::ObsPush,
            FrameKind::ObsAck,
            FrameKind::ObsQuery,
            FrameKind::ObsReply,
        ] {
            assert_eq!(FrameKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(FrameKind::from_u8(24), None);
    }

    #[test]
    fn counted_io_accounts_frames_and_bytes() {
        let stats = LinkStats::new();
        let mut buf = Vec::new();
        write_frame_counted(&mut buf, FrameKind::ObsPush, &[1, 2, 3], &stats).unwrap();
        write_frame_counted(&mut buf, FrameKind::Bye, &[], &stats).unwrap();
        assert_eq!(stats.frames_sent(), 2);
        assert_eq!(stats.bytes_sent(), (5 + 3) + 5);
        assert_eq!(stats.bytes_sent(), buf.len() as u64);

        let peer = LinkStats::new();
        let mut cursor = &buf[..];
        read_frame_counted(&mut cursor, &peer).unwrap();
        read_frame_counted(&mut cursor, &peer).unwrap();
        assert_eq!(peer.frames_received(), 2);
        assert_eq!(peer.bytes_received(), stats.bytes_sent());
    }

    #[test]
    fn error_frames_carry_their_message() {
        let mut buf = Vec::new();
        send_error(&mut buf, "codec negotiation failed");
        let (kind, payload) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(kind, FrameKind::Error);
        assert_eq!(decode_error(&payload), "codec negotiation failed");
    }
}
