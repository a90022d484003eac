//! Property tests over the TCP transport's frame codec (ISSUE 9).
//!
//! The stream property is the one a real socket exercises: an arbitrary
//! *sequence* of frames, concatenated and then fed to the [`FrameReader`]
//! through a throttling mock stream that delivers arbitrary-sized slices
//! (including single bytes) — every split point lands inside length
//! prefixes, headers, and payloads. Whatever the fragmentation, the reader
//! must reproduce the exact frame sequence, and re-encoding each decoded
//! frame must reproduce the exact original bytes (catching lossy decode
//! paths that `PartialEq` on floats would forgive, e.g. `-0.0 == 0.0`).
//! Handshake validation properties pin the refusal conditions the
//! transport's zombie/stale-epoch defense relies on.

use dchag_collectives::nonblocking::CollKind;
use dchag_collectives::transport::frame::{
    encode_frame, validate_handshake, DataFrame, Frame, FrameReader, HandshakeExpect, VERSION,
};
use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig};

/// Deterministic splitmix64 so every proptest case derives its frame
/// sequence and fragmentation pattern from one drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f32_finite(&mut self) -> f32 {
        // Arbitrary bit patterns incl. subnormals and -0.0, but finite:
        // NaN payloads are not guaranteed bit-stable through from_bits on
        // every platform, and the byte-level re-encode check needs
        // identity.
        let v = f32::from_bits(self.next() as u32);
        if v.is_finite() {
            v
        } else {
            f32::from_bits((self.next() as u32) & 0x007F_FFFF)
        }
    }

    fn body(&mut self) -> Vec<f32> {
        let n = self.below(64) as usize;
        (0..n).map(|_| self.f32_finite()).collect()
    }

    fn frame(&mut self) -> Frame {
        match self.below(8) {
            0 => Frame::Handshake {
                version: self.next() as u16,
                world: self.below(64) as u32,
                epoch: self.below(1 << 20),
                rank: self.below(64) as u32,
            },
            1 => Frame::HandshakeAck {
                accept: self.below(2) == 0,
                epoch: self.below(1 << 20),
                world: self.below(64) as u32,
            },
            2 => Frame::Ack {
                group: self.next(),
                upto: self.next(),
            },
            3 => Frame::Heartbeat,
            4 => Frame::Regroup {
                epoch: self.below(1 << 20),
                failed: (0..self.below(5)).map(|_| self.below(64) as u32).collect(),
            },
            5 => Frame::Bye,
            _ => {
                let kind = match self.below(3) {
                    0 => CollKind::AllReduceSum,
                    1 => CollKind::ReduceScatterSum,
                    _ => CollKind::AllGatherCat {
                        axis: self.below(4) as usize,
                    },
                };
                let ndims = self.below(4) as usize;
                Frame::Data(DataFrame {
                    group: self.next(),
                    sender: self.below(64) as u32,
                    seq: self.below(1 << 30),
                    kind,
                    dims: (0..ndims).map(|_| 1 + self.below(8) as usize).collect(),
                    body: self.body(),
                })
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Frame sequences survive arbitrary stream fragmentation: split
    /// reads / short writes of any size reassemble into the exact frames,
    /// and re-encoding reproduces the exact bytes.
    #[test]
    fn frame_stream_survives_arbitrary_fragmentation(seed in 0u64..1_000_000_000) {
        let mut g = Gen(seed);
        let frames: Vec<Frame> = (0..1 + g.below(8)).map(|_| g.frame()).collect();
        let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
        let stream: Vec<u8> = encoded.iter().flatten().copied().collect();

        // Throttling mock stream: deliver the bytes in arbitrary slices —
        // mostly tiny (1..=7 bytes) with occasional larger bursts — and
        // drain the reader after every delivery, as a socket loop would.
        let mut reader = FrameReader::new();
        let mut decoded = Vec::new();
        let mut off = 0usize;
        while off < stream.len() {
            let take = if g.below(4) == 0 {
                1 + g.below(256) as usize
            } else {
                1 + g.below(7) as usize
            }
            .min(stream.len() - off);
            reader.feed(&stream[off..off + take]);
            off += take;
            while let Some(f) = reader.next_frame().expect("valid stream never errors") {
                decoded.push(f);
            }
        }
        prop_assert_eq!(reader.pending_bytes(), 0, "no residue after a whole stream");
        prop_assert_eq!(&decoded, &frames);
        for (f, bytes) in decoded.iter().zip(&encoded) {
            prop_assert_eq!(&encode_frame(f), bytes, "re-encode must be byte-identical");
        }
    }

    /// A handshake is accepted iff version, world size, and epoch all
    /// match — and then yields exactly the sender's rank. Any single
    /// mismatch (a zombie from an old epoch, a differently-sized world, a
    /// version skew) is refused, as is any non-handshake opener.
    #[test]
    fn handshake_validation_accepts_exactly_matching_peers(seed in 0u64..1_000_000_000) {
        let mut g = Gen(seed);
        let expect = HandshakeExpect { world: 2 + g.below(62) as u32, epoch: g.below(1 << 20) };
        let rank = g.below(expect.world as u64) as u32;

        let good = Frame::Handshake { version: VERSION, world: expect.world, epoch: expect.epoch, rank };
        prop_assert_eq!(validate_handshake(&good, expect), Ok(rank));

        let bad_version = Frame::Handshake {
            version: VERSION + 1 + g.below(100) as u16,
            world: expect.world,
            epoch: expect.epoch,
            rank,
        };
        prop_assert!(validate_handshake(&bad_version, expect).is_err_and(|e| e.contains("version")));

        let bad_world = Frame::Handshake {
            version: VERSION,
            world: expect.world + 1 + g.below(16) as u32,
            epoch: expect.epoch,
            rank,
        };
        prop_assert!(validate_handshake(&bad_world, expect).is_err_and(|e| e.contains("world")));

        // The zombie case: a peer still living in a pre-regroup epoch.
        let stale = Frame::Handshake {
            version: VERSION,
            world: expect.world,
            epoch: expect.epoch + 1 + g.below(1 << 10),
            rank,
        };
        prop_assert!(validate_handshake(&stale, expect).is_err_and(|e| e.contains("epoch")));

        let not_hs = Frame::Heartbeat;
        prop_assert!(validate_handshake(&not_hs, expect).is_err());
    }

    /// Corrupt streams fail loudly, not silently: flipping the magic or
    /// truncating mid-frame never yields a wrong frame — either an error
    /// or (for truncation) an indefinite wait for more bytes.
    #[test]
    fn corruption_is_an_error_never_a_wrong_frame(seed in 0u64..1_000_000_000) {
        let mut g = Gen(seed);
        let frame = g.frame();
        let bytes = encode_frame(&frame);

        // Truncation: every strict prefix decodes to "incomplete", never a frame.
        let cut = g.below(bytes.len() as u64) as usize;
        let mut r = FrameReader::new();
        r.feed(&bytes[..cut]);
        match r.next_frame() {
            Ok(None) => {}
            Ok(Some(f)) => prop_assert!(false, "truncated stream produced a frame: {:?}", f),
            Err(_) => {} // a cut inside the length prefix may look corrupt — fine
        }

        // Magic corruption (byte 4 is the first magic byte after the
        // length prefix): must surface a codec error.
        if bytes.len() > 4 {
            let mut evil = bytes.clone();
            evil[4] ^= 0xFF;
            let mut r = FrameReader::new();
            r.feed(&evil);
            prop_assert!(r.next_frame().is_err(), "corrupt magic must fail decode");
        }
    }
}

/// A data frame whose body-kind byte is 1 (the retired bf16 wire) is a
/// codec error, not a frame.
#[test]
fn bf16_body_kind_is_refused() {
    let frame = Frame::Data(DataFrame {
        group: 7,
        sender: 1,
        seq: 2,
        kind: CollKind::AllReduceSum,
        dims: vec![2],
        body: vec![1.0, -0.5],
    });
    let mut bytes = encode_frame(&frame);
    // The body-kind byte sits just before the u64 element count and the
    // two f32 values that end the frame.
    let kind_at = bytes.len() - 2 * 4 - 8 - 1;
    assert_eq!(bytes[kind_at], 0, "f32 body kind");
    let mut r = FrameReader::new();
    r.feed(&bytes);
    assert_eq!(r.next_frame(), Ok(Some(frame)));

    bytes[kind_at] = 1;
    let mut r = FrameReader::new();
    r.feed(&bytes);
    assert!(r.next_frame().is_err(), "bf16 body must be refused");
}
