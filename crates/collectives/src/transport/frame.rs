//! Length-prefixed frame codec for the TCP transport.
//!
//! Every frame is `u32` little-endian body length followed by the body;
//! the first body byte is a tag. Decoding is a *pull parser* over an
//! append-only byte buffer ([`FrameReader`]): the socket reader feeds
//! whatever `read` returned — one byte or a megabyte — and drains complete
//! frames, so arbitrarily split reads and short writes can never corrupt
//! framing. The handshake is versioned and carries (world size, epoch,
//! rank); [`validate_handshake`] is the single accept/refuse decision both
//! the dialing and accepting side use, so stale-epoch or wrong-world
//! connections are refused identically everywhere.

use crate::nonblocking::CollKind;

/// First four bytes of every handshake ("DCHG") — a connection from
/// anything that is not this transport fails immediately, not after a
/// garbage length prefix allocates gigabytes.
pub const MAGIC: u32 = 0x4443_4847;

/// Wire protocol version; bumped on any frame-layout change. Version 2
/// dropped version 1's rendezvous-exchange data path (barrier tokens,
/// split colors) — every data frame now names the engine collective it
/// feeds — and renumbered the data-frame kind and body tags.
pub const VERSION: u16 = 2;

/// Upper bound on one frame's body (64 MiB): a corrupt or hostile length
/// prefix surfaces as a codec error instead of an allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Decode failure — framing is unrecoverable after this (the stream
/// position is unknown), so the connection must be torn down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame codec error: {}", self.0)
    }
}

/// One remote contribution: rank `sender` (a *group* rank) of group
/// `group` deposits `body` as its `seq`-th collective, a `kind`.
#[derive(Clone, Debug, PartialEq)]
pub struct DataFrame {
    pub group: u64,
    pub sender: u32,
    pub seq: u64,
    pub kind: CollKind,
    pub dims: Vec<usize>,
    /// The contribution's f32 values.
    pub body: Vec<f32>,
}

/// Every frame kind the transport speaks.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// First frame on every connection, in both directions.
    Handshake {
        version: u16,
        world: u32,
        epoch: u64,
        rank: u32,
    },
    /// Accept/refuse verdict from the accepting side; on refusal the
    /// expected (epoch, world) are echoed so the dialer can report why.
    HandshakeAck {
        accept: bool,
        epoch: u64,
        world: u32,
    },
    Data(DataFrame),
    /// Cumulative receipt: every frame of `group` with `seq <= upto` from
    /// the peer on this connection has been processed (prunes the sender's
    /// retransmit buffer).
    Ack {
        group: u64,
        upto: u64,
    },
    /// Idle-timer keepalive; its absence past the heartbeat deadline is a
    /// failure signal.
    Heartbeat,
    /// Regroup agreement: the sender proposes that epoch `epoch` be built
    /// over everyone except `failed` (world ranks).
    Regroup {
        epoch: u64,
        failed: Vec<u32>,
    },
    /// Graceful departure: a following EOF is a completed rank, not a
    /// failure.
    Bye,
}

const TAG_HANDSHAKE: u8 = 1;
const TAG_HANDSHAKE_ACK: u8 = 2;
const TAG_DATA: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_HEARTBEAT: u8 = 5;
const TAG_REGROUP: u8 = 6;
const TAG_BYE: u8 = 7;

/// Body-kind byte of a data frame: f32 values. Kind 1 was the retired
/// bf16 wire and is refused on decode.
const BODY_F32: u8 = 0;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialize one frame, length prefix included.
pub fn encode_frame(f: &Frame) -> Vec<u8> {
    let mut b = Vec::with_capacity(32);
    b.extend_from_slice(&[0, 0, 0, 0]); // length prefix, patched below
    match f {
        Frame::Handshake {
            version,
            world,
            epoch,
            rank,
        } => {
            b.push(TAG_HANDSHAKE);
            put_u32(&mut b, MAGIC);
            put_u16(&mut b, *version);
            put_u32(&mut b, *world);
            put_u64(&mut b, *epoch);
            put_u32(&mut b, *rank);
        }
        Frame::HandshakeAck {
            accept,
            epoch,
            world,
        } => {
            b.push(TAG_HANDSHAKE_ACK);
            b.push(u8::from(*accept));
            put_u64(&mut b, *epoch);
            put_u32(&mut b, *world);
        }
        Frame::Data(d) => {
            b.push(TAG_DATA);
            put_u64(&mut b, d.group);
            put_u32(&mut b, d.sender);
            put_u64(&mut b, d.seq);
            let (kind, axis) = match d.kind {
                CollKind::AllReduceSum => (0u8, 0usize),
                CollKind::ReduceScatterSum => (1, 0),
                CollKind::AllGatherCat { axis } => (2, axis),
            };
            b.push(kind);
            put_u32(&mut b, axis as u32);
            b.push(d.dims.len() as u8);
            for &dim in &d.dims {
                put_u32(&mut b, dim as u32);
            }
            b.push(BODY_F32);
            put_u64(&mut b, d.body.len() as u64);
            for &x in &d.body {
                put_u32(&mut b, x.to_bits());
            }
        }
        Frame::Ack { group, upto } => {
            b.push(TAG_ACK);
            put_u64(&mut b, *group);
            put_u64(&mut b, *upto);
        }
        Frame::Heartbeat => b.push(TAG_HEARTBEAT),
        Frame::Regroup { epoch, failed } => {
            b.push(TAG_REGROUP);
            put_u64(&mut b, *epoch);
            put_u32(&mut b, failed.len() as u32);
            for &r in failed {
                put_u32(&mut b, r);
            }
        }
        Frame::Bye => b.push(TAG_BYE),
    }
    let len = (b.len() - 4) as u32;
    b[..4].copy_from_slice(&len.to_le_bytes());
    b
}

/// Bounds-checked reader over one frame body.
struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.b.len() {
            return Err(CodecError(format!(
                "truncated body: wanted {n} bytes at offset {}, body is {}",
                self.pos,
                self.b.len()
            )));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.b.len() {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing bytes in body",
                self.b.len() - self.pos
            )))
        }
    }
}

fn decode_body(body: &[u8]) -> Result<Frame, CodecError> {
    let mut c = Cursor { b: body, pos: 0 };
    let frame = match c.u8()? {
        TAG_HANDSHAKE => {
            let magic = c.u32()?;
            if magic != MAGIC {
                return Err(CodecError(format!("bad handshake magic {magic:#x}")));
            }
            Frame::Handshake {
                version: c.u16()?,
                world: c.u32()?,
                epoch: c.u64()?,
                rank: c.u32()?,
            }
        }
        TAG_HANDSHAKE_ACK => Frame::HandshakeAck {
            accept: c.u8()? != 0,
            epoch: c.u64()?,
            world: c.u32()?,
        },
        TAG_DATA => {
            let group = c.u64()?;
            let sender = c.u32()?;
            let seq = c.u64()?;
            let kind_tag = c.u8()?;
            let axis = c.u32()? as usize;
            let kind = match kind_tag {
                0 => CollKind::AllReduceSum,
                1 => CollKind::ReduceScatterSum,
                2 => CollKind::AllGatherCat { axis },
                t => return Err(CodecError(format!("bad collective kind tag {t}"))),
            };
            let ndim = c.u8()? as usize;
            let mut dims = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                dims.push(c.u32()? as usize);
            }
            match c.u8()? {
                BODY_F32 => {}
                t => return Err(CodecError(format!("bad body kind tag {t}"))),
            }
            let n = c.u64()? as usize;
            let body = c
                .take(n.saturating_mul(4))?
                .chunks_exact(4)
                .map(|ch| f32::from_bits(u32::from_le_bytes(ch.try_into().unwrap())))
                .collect();
            Frame::Data(DataFrame {
                group,
                sender,
                seq,
                kind,
                dims,
                body,
            })
        }
        TAG_ACK => Frame::Ack {
            group: c.u64()?,
            upto: c.u64()?,
        },
        TAG_HEARTBEAT => Frame::Heartbeat,
        TAG_REGROUP => {
            let epoch = c.u64()?;
            let n = c.u32()? as usize;
            if n > (1 << 20) {
                return Err(CodecError(format!("absurd failed-set size {n}")));
            }
            let mut failed = Vec::with_capacity(n);
            for _ in 0..n {
                failed.push(c.u32()?);
            }
            Frame::Regroup { epoch, failed }
        }
        TAG_BYE => Frame::Bye,
        t => return Err(CodecError(format!("unknown frame tag {t}"))),
    };
    c.done()?;
    Ok(frame)
}

/// Incremental frame parser: feed bytes as they arrive, pull complete
/// frames out. Partial frames stay buffered until completed by later
/// feeds; a frame split at *any* byte boundary decodes identically.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix, compacted lazily so steady-state parsing never
    /// memmoves per frame.
    pos: usize,
}

impl FrameReader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes read off the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame — nonzero
    /// after EOF means the peer died mid-frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, CodecError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(CodecError(format!("frame body of {len} bytes exceeds cap")));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_body(&avail[4..4 + len])?;
        self.pos += 4 + len;
        if self.pos > (1 << 20) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(frame))
    }
}

/// What the accepting side requires of an inbound handshake.
#[derive(Clone, Copy, Debug)]
pub struct HandshakeExpect {
    pub world: u32,
    pub epoch: u64,
}

/// The single accept/refuse decision for a received handshake: returns the
/// peer's world rank on acceptance, or the refusal reason. A stale-epoch
/// dialer (e.g. a zombie from before a regroup) is refused here.
pub fn validate_handshake(f: &Frame, expect: HandshakeExpect) -> Result<u32, String> {
    match f {
        Frame::Handshake {
            version,
            world,
            epoch,
            rank,
        } => {
            if *version != VERSION {
                Err(format!("version mismatch: got {version}, want {VERSION}"))
            } else if *world != expect.world {
                Err(format!(
                    "world-size mismatch: got {world}, want {}",
                    expect.world
                ))
            } else if *epoch != expect.epoch {
                Err(format!(
                    "stale epoch: got {epoch}, current is {}",
                    expect.epoch
                ))
            } else {
                Ok(*rank)
            }
        }
        other => Err(format!("expected handshake, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) -> Frame {
        let bytes = encode_frame(f);
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let out = r.next_frame().expect("decodes").expect("complete");
        assert_eq!(r.pending_bytes(), 0);
        out
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        let frames = vec![
            Frame::Handshake {
                version: VERSION,
                world: 4,
                epoch: 7,
                rank: 2,
            },
            Frame::HandshakeAck {
                accept: false,
                epoch: 9,
                world: 3,
            },
            Frame::Data(DataFrame {
                group: 0xDEAD_BEEF,
                sender: 3,
                seq: 41,
                kind: CollKind::AllGatherCat { axis: 1 },
                dims: vec![2, 5],
                body: vec![1.5, -0.25, f32::MIN_POSITIVE],
            }),
            Frame::Data(DataFrame {
                group: 1,
                sender: 0,
                seq: 0,
                kind: CollKind::AllGatherCat { axis: 0 },
                dims: vec![1, 0],
                body: vec![],
            }),
            Frame::Data(DataFrame {
                group: 2,
                sender: 1,
                seq: 3,
                kind: CollKind::ReduceScatterSum,
                dims: vec![8],
                body: vec![1.0, -0.5, 0.0],
            }),
            Frame::Ack {
                group: 5,
                upto: u64::MAX,
            },
            Frame::Heartbeat,
            Frame::Regroup {
                epoch: 2,
                failed: vec![1, 3],
            },
            Frame::Bye,
        ];
        for f in &frames {
            assert_eq!(&roundtrip(f), f);
        }
    }

    #[test]
    fn split_feeds_at_every_byte_boundary() {
        let f = Frame::Data(DataFrame {
            group: 3,
            sender: 1,
            seq: 12,
            kind: CollKind::AllReduceSum,
            dims: vec![3],
            body: vec![0.1, 0.2, 0.3],
        });
        let bytes = encode_frame(&f);
        for cut in 0..=bytes.len() {
            let mut r = FrameReader::new();
            r.feed(&bytes[..cut]);
            if cut < bytes.len() {
                assert_eq!(r.next_frame().unwrap(), None, "cut at {cut} must not yield");
                r.feed(&bytes[cut..]);
            }
            assert_eq!(r.next_frame().unwrap(), Some(f.clone()), "cut at {cut}");
        }
    }

    #[test]
    fn back_to_back_frames_in_one_feed() {
        let a = Frame::Heartbeat;
        let b = Frame::Ack { group: 1, upto: 2 };
        let mut bytes = encode_frame(&a);
        bytes.extend(encode_frame(&b));
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert_eq!(r.next_frame().unwrap(), Some(a));
        assert_eq!(r.next_frame().unwrap(), Some(b));
        assert_eq!(r.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_an_error_not_an_allocation() {
        let mut r = FrameReader::new();
        r.feed(&(u32::MAX).to_le_bytes());
        assert!(r.next_frame().is_err());
    }

    #[test]
    fn bad_magic_and_bad_tags_are_errors() {
        // Handshake with corrupted magic.
        let mut bytes = encode_frame(&Frame::Handshake {
            version: VERSION,
            world: 2,
            epoch: 0,
            rank: 0,
        });
        bytes[5] ^= 0xFF; // first magic byte
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert!(r.next_frame().unwrap_err().0.contains("magic"));
        // Unknown frame tag.
        let mut r = FrameReader::new();
        r.feed(&1u32.to_le_bytes());
        r.feed(&[99]);
        assert!(r.next_frame().unwrap_err().0.contains("unknown frame tag"));
    }

    #[test]
    fn truncated_header_detected_by_handshake_wait() {
        // A body that claims to be a handshake but is cut short decodes as
        // a hard error (the length prefix promised a complete body).
        let full = encode_frame(&Frame::Handshake {
            version: VERSION,
            world: 2,
            epoch: 0,
            rank: 1,
        });
        let body = &full[4..full.len() - 3]; // drop last 3 body bytes
        let mut r = FrameReader::new();
        r.feed(&(body.len() as u32).to_le_bytes());
        r.feed(body);
        assert!(r.next_frame().unwrap_err().0.contains("truncated"));
    }

    #[test]
    fn handshake_validation_refuses_stale_epoch_wrong_world_and_version() {
        let expect = HandshakeExpect { world: 4, epoch: 2 };
        let good = Frame::Handshake {
            version: VERSION,
            world: 4,
            epoch: 2,
            rank: 3,
        };
        assert_eq!(validate_handshake(&good, expect), Ok(3));
        let stale = Frame::Handshake {
            version: VERSION,
            world: 4,
            epoch: 1,
            rank: 3,
        };
        assert!(validate_handshake(&stale, expect)
            .unwrap_err()
            .contains("stale epoch"));
        let wrong_world = Frame::Handshake {
            version: VERSION,
            world: 8,
            epoch: 2,
            rank: 3,
        };
        assert!(validate_handshake(&wrong_world, expect)
            .unwrap_err()
            .contains("world-size mismatch"));
        let wrong_version = Frame::Handshake {
            version: VERSION + 1,
            world: 4,
            epoch: 2,
            rank: 3,
        };
        assert!(validate_handshake(&wrong_version, expect)
            .unwrap_err()
            .contains("version mismatch"));
        // A version-1 peer still speaks the rendezvous-exchange frames.
        let v1 = Frame::Handshake {
            version: 1,
            world: 4,
            epoch: 2,
            rank: 3,
        };
        assert!(validate_handshake(&v1, expect)
            .unwrap_err()
            .contains("version mismatch"));
        assert!(validate_handshake(&Frame::Heartbeat, expect)
            .unwrap_err()
            .contains("expected handshake"));
    }
}
