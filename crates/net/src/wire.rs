//! The PTF-FedRec wire codec: length-prefixed, versioned binary frames.
//!
//! Every message on a transport is one frame:
//!
//! ```text
//! [magic u16 = 0x7074] [version u8] [kind u8] [body_len u32] [body …]
//! ```
//!
//! All integers are little-endian; `f32` values travel as their raw IEEE
//! bit patterns (`to_bits`/`from_bits`), so encode → decode is exact for
//! every value including NaN — a requirement for the loopback parity
//! guarantee that a networked run is bit-identical to the in-process
//! engine.
//!
//! The *data* sections of [`Frame::Upload`] and [`Frame::Disperse`] are
//! exactly `count` packed 12-byte `(user, item, score)` triples — the
//! paper's message unit, and the unit [`ptf_comm::Payload::Triples`]
//! prices at [`ptf_comm::message::BYTES_PER_TRIPLE`] bytes each. That makes the
//! `CommLedger` byte accounting authoritative for the encoded protocol
//! data: [`Frame::payload`] returns the ledger-side size model of a data
//! frame, and [`Frame::data_section_bytes`] the encoded data length —
//! the codec tests assert they agree for every possible frame. Frame
//! headers and routing metadata (~8–16 bytes/frame) are transport
//! overhead, deliberately excluded from the paper-comparable metric.
//!
//! Versioning: `MAGIC` never changes; decoders reject any frame whose
//! `version` byte they do not speak (see `docs/wire-protocol.md` for the
//! compatibility rules). Unknown kinds and oversized bodies are errors,
//! not skips — peers of the same version agree on the full kind set.

use crate::error::NetError;
use ptf_comm::message::BYTES_PER_TRIPLE;
use ptf_comm::Payload;
use std::io::{ErrorKind, Read, Write};

/// First two bytes of every frame (`"pt"` little-endian).
pub const MAGIC: u16 = 0x7074;
/// The protocol version this build speaks.
pub const VERSION: u8 = 2;
/// Bytes in the fixed frame header.
pub const HEADER_BYTES: usize = 8;
/// Upper bound on a frame body (~5.5 M triples); corrupt length prefixes
/// fail fast instead of attempting a giant allocation.
pub const MAX_BODY_BYTES: usize = 64 << 20;

/// One `(user, item, score)` prediction triple — the only data unit the
/// protocol ever transmits (the paper's headline privacy property).
pub type Triple = (u32, u32, f32);

/// Why a server refused a `Hello`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Client and server disagree on config/model/dataset fingerprint.
    BadFingerprint,
    /// Client id outside the fleet the server was configured for.
    UnknownClient,
    /// Client id already registered on a live connection.
    DuplicateClient,
}

impl RejectReason {
    fn code(self) -> u8 {
        match self {
            RejectReason::BadFingerprint => 1,
            RejectReason::UnknownClient => 2,
            RejectReason::DuplicateClient => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(RejectReason::BadFingerprint),
            2 => Some(RejectReason::UnknownClient),
            3 => Some(RejectReason::DuplicateClient),
            _ => None,
        }
    }

    /// Human-readable refusal, for error messages.
    pub fn message(self) -> &'static str {
        match self {
            RejectReason::BadFingerprint => {
                "config fingerprint mismatch (client and server must share dataset, scale, seed, rounds, and model settings)"
            }
            RejectReason::UnknownClient => "client id outside the server's fleet",
            RejectReason::DuplicateClient => "client id already connected",
        }
    }
}

/// The `kind` byte of every frame, as a real enum so the kind table is
/// one parseable artifact: `docs/wire-protocol.md`'s frame-kind table is
/// checked against these discriminants by `ptf-lint` (spec-conformance).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    Hello = 1,
    Welcome = 2,
    Reject = 3,
    Announce = 4,
    Upload = 5,
    Disperse = 6,
    Dropped = 7,
    Finished = 8,
}

impl FrameKind {
    /// Decodes a wire `kind` byte; `None` for unknown kinds.
    pub fn from_u8(kind: u8) -> Option<Self> {
        match kind {
            1 => Some(FrameKind::Hello),
            2 => Some(FrameKind::Welcome),
            3 => Some(FrameKind::Reject),
            4 => Some(FrameKind::Announce),
            5 => Some(FrameKind::Upload),
            6 => Some(FrameKind::Disperse),
            7 => Some(FrameKind::Dropped),
            8 => Some(FrameKind::Finished),
            _ => None,
        }
    }
}

/// Every message of the networked protocol. See `docs/wire-protocol.md`
/// for the byte-level layout and the handshake/round state machine.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: register logical client `client`. `trainable`
    /// mirrors the in-process `num_positives() > 0` check; `fingerprint`
    /// is [`crate::config_fingerprint`] of the client's local config.
    Hello { client: u32, trainable: bool, fingerprint: u64 },
    /// Server → client: `Hello` accepted; echoes the fleet size and the
    /// configured round budget.
    Welcome { client: u32, fleet: u32, rounds: u32 },
    /// Server → client: `Hello` refused.
    Reject { client: u32, reason: RejectReason },
    /// Server → client: the connection's `clients` sampled this round, in
    /// ascending order, one frame per connection; each uploads within
    /// `deadline_ms` or is dropped (partial participation).
    Announce { round: u32, deadline_ms: u32, clients: Vec<u32> },
    /// Client → server: the round's prediction upload `D̂ᵗᵢ` plus the
    /// local training loss (trace telemetry, not protocol data).
    Upload { client: u32, round: u32, loss: f32, triples: Vec<Triple> },
    /// Server → client: the dispersal set `D̃ᵢ` for this round.
    Disperse { client: u32, round: u32, triples: Vec<Triple> },
    /// Server → client: `client` missed the round deadline and was
    /// dropped from this round (informational).
    Dropped { client: u32, round: u32 },
    /// Server → client: the run is complete after `rounds` rounds.
    Finished { rounds: u32 },
}

impl Frame {
    /// This frame's wire kind.
    pub fn kind(&self) -> FrameKind {
        match self {
            Frame::Hello { .. } => FrameKind::Hello,
            Frame::Welcome { .. } => FrameKind::Welcome,
            Frame::Reject { .. } => FrameKind::Reject,
            Frame::Announce { .. } => FrameKind::Announce,
            Frame::Upload { .. } => FrameKind::Upload,
            Frame::Disperse { .. } => FrameKind::Disperse,
            Frame::Dropped { .. } => FrameKind::Dropped,
            Frame::Finished { .. } => FrameKind::Finished,
        }
    }

    /// The [`ptf_comm`] size model of this frame's protocol data — what a
    /// `CommLedger` records for it. `None` for control frames (handshake,
    /// announcements), which carry no protocol data and are priced as
    /// transport overhead.
    pub fn payload(&self) -> Option<Payload> {
        match self {
            Frame::Upload { triples, .. } | Frame::Disperse { triples, .. } => {
                Some(Payload::Triples { count: triples.len() })
            }
            _ => None,
        }
    }

    /// Encoded size of this frame's data section (the packed triples).
    /// The codec guarantees this equals `self.payload().bytes()` — the
    /// byte-accounting parity the ledger tests pin down.
    pub fn data_section_bytes(&self) -> usize {
        match self {
            Frame::Upload { triples, .. } | Frame::Disperse { triples, .. } => {
                triples.len() * BYTES_PER_TRIPLE
            }
            _ => 0,
        }
    }

    /// Appends the full frame (header + body) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(self.kind() as u8);
        let len_at = buf.len();
        buf.extend_from_slice(&0u32.to_le_bytes()); // patched below
        match *self {
            Frame::Hello { client, trainable, fingerprint } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.push(trainable as u8);
                buf.extend_from_slice(&fingerprint.to_le_bytes());
            }
            Frame::Welcome { client, fleet, rounds } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&fleet.to_le_bytes());
                buf.extend_from_slice(&rounds.to_le_bytes());
            }
            Frame::Reject { client, reason } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.push(reason.code());
            }
            Frame::Announce { round, deadline_ms, ref clients } => {
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&deadline_ms.to_le_bytes());
                buf.extend_from_slice(&(clients.len() as u32).to_le_bytes());
                for &client in clients {
                    buf.extend_from_slice(&client.to_le_bytes());
                }
            }
            Frame::Upload { client, round, loss, ref triples } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&loss.to_bits().to_le_bytes());
                encode_triples(buf, triples);
            }
            Frame::Disperse { client, round, ref triples } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&round.to_le_bytes());
                encode_triples(buf, triples);
            }
            Frame::Dropped { client, round } => {
                buf.extend_from_slice(&client.to_le_bytes());
                buf.extend_from_slice(&round.to_le_bytes());
            }
            Frame::Finished { rounds } => {
                buf.extend_from_slice(&rounds.to_le_bytes());
            }
        }
        let body_len = (buf.len() - len_at - 4) as u32;
        buf[len_at..len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Encodes into a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_BYTES + 16 + self.data_section_bytes());
        self.encode(&mut buf);
        buf
    }
}

fn encode_triples(buf: &mut Vec<u8>, triples: &[Triple]) {
    buf.extend_from_slice(&(triples.len() as u32).to_le_bytes());
    for &(user, item, score) in triples {
        buf.extend_from_slice(&user.to_le_bytes());
        buf.extend_from_slice(&item.to_le_bytes());
        buf.extend_from_slice(&score.to_bits().to_le_bytes());
    }
}

/// A bounds-checked little-endian reader over a frame body.
struct Body<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Body<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or(NetError::Truncated("frame body"))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f32(&mut self) -> Result<f32, NetError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn triples(&mut self) -> Result<Vec<Triple>, NetError> {
        let count = self.u32()? as usize;
        let want = count
            .checked_mul(BYTES_PER_TRIPLE)
            .ok_or(NetError::Truncated("triple count overflows"))?;
        if self.bytes.len() - self.at != want {
            return Err(NetError::Truncated("triple section length mismatch"));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let user = self.u32()?;
            let item = self.u32()?;
            let score = self.f32()?;
            out.push((user, item, score));
        }
        Ok(out)
    }

    /// A `count u32` then `count` ids. A count past the end of the body
    /// is an error before anything is allocated; one short of it leaves
    /// trailing bytes for [`Body::finish`].
    fn ids(&mut self) -> Result<Vec<u32>, NetError> {
        let count = self.u32()? as usize;
        if count > (self.bytes.len() - self.at) / 4 {
            return Err(NetError::Truncated("id count overruns the body"));
        }
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            ids.push(self.u32()?);
        }
        Ok(ids)
    }

    fn finish(self, kind: u8) -> Result<(), NetError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(NetError::TrailingBytes { kind })
        }
    }
}

/// Validates a header and returns `(kind, body_len)`.
fn decode_header(header: &[u8; HEADER_BYTES]) -> Result<(u8, usize), NetError> {
    let magic = u16::from_le_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = header[2];
    if version != VERSION {
        return Err(NetError::Version { got: version, want: VERSION });
    }
    let kind = header[3];
    let body_len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if body_len > MAX_BODY_BYTES {
        return Err(NetError::Oversized { kind, len: body_len });
    }
    Ok((kind, body_len))
}

fn decode_body(kind: u8, bytes: &[u8]) -> Result<Frame, NetError> {
    let mut b = Body::new(bytes);
    let frame = match FrameKind::from_u8(kind).ok_or(NetError::UnknownKind(kind))? {
        FrameKind::Hello => {
            Frame::Hello { client: b.u32()?, trainable: b.u8()? != 0, fingerprint: b.u64()? }
        }
        FrameKind::Welcome => {
            Frame::Welcome { client: b.u32()?, fleet: b.u32()?, rounds: b.u32()? }
        }
        FrameKind::Reject => {
            let client = b.u32()?;
            let code = b.u8()?;
            let reason =
                RejectReason::from_code(code).ok_or(NetError::Truncated("bad reject code"))?;
            Frame::Reject { client, reason }
        }
        FrameKind::Announce => {
            Frame::Announce { round: b.u32()?, deadline_ms: b.u32()?, clients: b.ids()? }
        }
        FrameKind::Upload => Frame::Upload {
            client: b.u32()?,
            round: b.u32()?,
            loss: b.f32()?,
            triples: b.triples()?,
        },
        FrameKind::Disperse => {
            Frame::Disperse { client: b.u32()?, round: b.u32()?, triples: b.triples()? }
        }
        FrameKind::Dropped => Frame::Dropped { client: b.u32()?, round: b.u32()? },
        FrameKind::Finished => Frame::Finished { rounds: b.u32()? },
    };
    b.finish(kind)?;
    Ok(frame)
}

/// Decodes exactly one frame from `bytes` (which must contain exactly
/// one frame — the loopback transport's message unit).
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, NetError> {
    if bytes.len() < HEADER_BYTES {
        return Err(NetError::Truncated("frame header"));
    }
    let mut header = [0u8; HEADER_BYTES];
    header.copy_from_slice(&bytes[..HEADER_BYTES]);
    let (kind, body_len) = decode_header(&header)?;
    let body = &bytes[HEADER_BYTES..];
    if body.len() != body_len {
        return Err(NetError::Truncated("frame body length mismatch"));
    }
    decode_body(kind, body)
}

/// Reads one frame from a byte stream. Returns `Ok(None)` on a clean EOF
/// at a frame boundary (the peer closed its connection); EOF inside a
/// frame is an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, NetError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0;
    while filled < HEADER_BYTES {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(NetError::Truncated("eof inside frame header")),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let (kind, body_len) = decode_header(&header)?;
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == ErrorKind::UnexpectedEof {
            NetError::Truncated("eof inside frame body")
        } else {
            NetError::Io(e)
        }
    })?;
    decode_body(kind, &body).map(Some)
}

/// Writes one frame to a byte stream (no flush — the caller owns
/// buffering policy).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    w.write_all(&frame.to_bytes()).map_err(NetError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello { client: 7, trainable: true, fingerprint: 0xDEAD_BEEF_0BAD_CAFE },
            Frame::Welcome { client: 7, fleet: 120, rounds: 40 },
            Frame::Reject { client: 9, reason: RejectReason::BadFingerprint },
            Frame::Announce { round: 3, deadline_ms: 5000, clients: vec![2, 7, 40] },
            Frame::Announce { round: 4, deadline_ms: 5000, clients: Vec::new() },
            Frame::Upload {
                client: 7,
                round: 3,
                loss: 0.625,
                triples: vec![(7, 1, 0.5), (7, 2, -1.25), (7, 3, f32::NAN)],
            },
            Frame::Disperse { client: 7, round: 3, triples: vec![(7, 9, 1.0)] },
            Frame::Dropped { client: 7, round: 3 },
            Frame::Finished { rounds: 40 },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for frame in samples() {
            let bytes = frame.to_bytes();
            let back = decode_frame(&bytes).expect("decode");
            // NaN scores break PartialEq; compare re-encoded bytes, which
            // is the actually-load-bearing equality (bit-exactness)
            assert_eq!(back.to_bytes(), bytes, "{frame:?}");
        }
    }

    #[test]
    fn header_layout_is_stable() {
        let bytes = Frame::Finished { rounds: 1 }.to_bytes();
        assert_eq!(&bytes[..2], &MAGIC.to_le_bytes());
        assert_eq!(bytes[2], VERSION);
        assert_eq!(bytes[3], 8);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 4);
        assert_eq!(bytes.len(), HEADER_BYTES + 4);
    }

    #[test]
    fn data_section_matches_ledger_size_model() {
        for frame in samples() {
            if let Some(payload) = frame.payload() {
                assert_eq!(frame.data_section_bytes(), payload.bytes(), "{frame:?}");
            } else {
                assert_eq!(frame.data_section_bytes(), 0);
            }
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind_and_lengths() {
        let good = Frame::Finished { rounds: 1 }.to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = 0xFF;
        assert!(matches!(decode_frame(&bad_magic), Err(NetError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[2] = VERSION + 1;
        assert!(matches!(
            decode_frame(&bad_version),
            Err(NetError::Version { got, .. }) if got == VERSION + 1
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 99;
        assert!(matches!(decode_frame(&bad_kind), Err(NetError::UnknownKind(99))));

        assert!(matches!(decode_frame(&good[..5]), Err(NetError::Truncated(_))));
        assert!(matches!(decode_frame(&good[..good.len() - 1]), Err(NetError::Truncated(_))));

        let mut oversized = good.clone();
        oversized[4..8].copy_from_slice(&(MAX_BODY_BYTES as u32 + 1).to_le_bytes());
        assert!(matches!(decode_frame(&oversized), Err(NetError::Oversized { .. })));

        let mut trailing = Frame::Dropped { client: 1, round: 2 }.to_bytes();
        trailing.push(0);
        let len = (trailing.len() - HEADER_BYTES) as u32;
        trailing[4..8].copy_from_slice(&len.to_le_bytes());
        assert!(matches!(decode_frame(&trailing), Err(NetError::TrailingBytes { kind: 7 })));
    }

    #[test]
    fn an_announcement_count_must_fit_the_body_exactly() {
        let good = Frame::Announce { round: 1, deadline_ms: 2, clients: vec![3, 4] }.to_bytes();
        let count_at = HEADER_BYTES + 8;
        let with_count = |count: u32| {
            let mut bytes = good.clone();
            bytes[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
            decode_frame(&bytes)
        };
        assert!(with_count(2).is_ok());
        assert!(matches!(with_count(3), Err(NetError::Truncated(_))));
        assert!(matches!(with_count(u32::MAX), Err(NetError::Truncated(_))));
        assert!(matches!(with_count(1), Err(NetError::TrailingBytes { kind: 4 })));
    }

    #[test]
    fn a_version_1_frame_is_refused() {
        let mut v1 = Frame::Finished { rounds: 1 }.to_bytes();
        v1[2] = 1;
        assert!(matches!(decode_frame(&v1), Err(NetError::Version { got: 1, want: VERSION })));
    }

    #[test]
    fn stream_reader_handles_eof_at_and_inside_boundaries() {
        let frame = Frame::Announce { round: 2, deadline_ms: 3, clients: vec![1] };
        let mut bytes = frame.to_bytes();
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes);
        let mut cursor = std::io::Cursor::new(two);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame.clone()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);

        bytes.truncate(bytes.len() - 2);
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Truncated(_))));
    }
}
