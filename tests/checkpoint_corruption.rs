//! Property tests over checkpoint format v2 corruption (ISSUE 10).
//!
//! The invariant the durable tier stands on: **corruption is an error,
//! never wrong data**. Whatever prefix a torn write leaves behind and
//! whichever bit media corruption flips, deserializing must return a typed
//! [`CheckpointError`] — an `Ok` carrying different state than was saved
//! would silently fork the training trajectory. The whole-file CRC32
//! footer guarantees this for every single-bit flip and every proper
//! prefix; these properties drive both through arbitrary offsets on a
//! checkpoint that exercises every section (params, AdamW moments, step
//! counter, RNG state). Files holding data of the retired bf16 tier are
//! refused with a typed error too.

use dchag::prelude::*;
use dchag_tensor::checkpoint::{content_digest, crc32, OptimEntry, OptimState, Snapshot};
use dchag_tensor::{CheckpointError, RngState};
use proptest::prelude::{prop_assert, proptest, ProptestConfig};

/// Deterministic splitmix64 so each case derives its offsets from one
/// drawn seed.
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
}

/// A checkpoint with every v2 section populated: params, optimizer
/// moments, a step counter, and RNG state.
fn full_snapshot() -> Snapshot {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(9);
    let w = Tensor::randn([4, 3], 1.0, &mut rng);
    let b = Tensor::randn([3], 1.0, &mut rng);
    store.add("w", w);
    store.add("b", b);
    let mut snap = Snapshot::of_store(&store, 7);
    snap.optim = Some(OptimState {
        t: 7,
        entries: vec![OptimEntry {
            name: "w".to_string(),
            m: Some(Tensor::randn([4, 3], 0.1, &mut rng)),
            v: Some(Tensor::randn([4, 3], 0.1, &mut rng)),
        }],
    });
    snap.rng = Some(RngState {
        s: [1, 2, 3, 4],
        spare: Some(0.25),
    });
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any proper prefix of a checkpoint file — a torn write — must fail
    /// to deserialize with a typed error.
    #[test]
    fn checkpoint_truncation_at_any_offset_is_a_typed_error(seed in 0u64..1_000_000) {
        let bytes = full_snapshot().to_bytes();
        let mut g = Gen(seed);
        let cut = g.below(bytes.len() as u64) as usize; // 0 <= cut < len
        let torn = &bytes[..cut];
        let res = Snapshot::from_bytes(torn);
        prop_assert!(
            res.is_err(),
            "a {cut}-byte prefix of a {}-byte checkpoint deserialized as Ok",
            bytes.len()
        );
    }

    /// Any single flipped bit — media corruption at rest — must fail to
    /// deserialize with a typed error: the whole-file CRC32 footer detects
    /// every 1-bit change, including flips inside the footer itself.
    #[test]
    fn checkpoint_bit_flip_at_any_offset_is_a_typed_error(seed in 0u64..1_000_000) {
        let mut bytes = full_snapshot().to_bytes();
        let mut g = Gen(seed);
        let byte = g.below(bytes.len() as u64) as usize;
        let bit = g.below(8) as u32;
        bytes[byte] ^= 1 << bit;
        let res = Snapshot::from_bytes(&bytes);
        prop_assert!(
            res.is_err(),
            "bit {bit} of byte {byte}/{} flipped, yet the checkpoint deserialized as Ok",
            bytes.len()
        );
    }
}

/// The unflipped baseline round-trips — the properties above fail for the
/// right reason, not because `full_snapshot` is malformed.
#[test]
fn checkpoint_corruption_baseline_roundtrips() {
    let snap = full_snapshot();
    let bytes = snap.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("intact checkpoint loads");
    assert_eq!(back.to_bytes(), bytes, "round-trip must be byte-identical");
    assert_eq!(back.step, 7);
    assert!(back.optim.is_some() && back.rng.is_some());
}

/// A v2 file around hand-built section bodies, every checksum correct:
/// each section is `tag | u64 len | body | crc32(body)`, then the end tag
/// and the whole-file footer.
fn v2_file(sections: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let mut out = b"DCHK".to_vec();
    out.extend_from_slice(&2u32.to_le_bytes());
    for (tag, body) in sections {
        out.push(*tag);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
    }
    out.push(0xFF);
    let footer = crc32(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// A params section holding one unsharded `[2]` entry named `name` whose
/// dtype byte is `tag` and whose payload is `payload`, with a correct
/// entry CRC.
fn params_section(name: &str, tag: u8, payload: &[u8]) -> (u8, Vec<u8>) {
    let mut entry = Vec::new();
    entry.extend_from_slice(&(name.len() as u32).to_le_bytes());
    entry.extend_from_slice(name.as_bytes());
    entry.push(tag);
    entry.push(0); // flags: not a shard
    entry.extend_from_slice(&1u32.to_le_bytes());
    entry.extend_from_slice(&2u64.to_le_bytes());
    entry.extend_from_slice(payload);
    let crc = crc32(&entry);
    entry.extend_from_slice(&crc.to_le_bytes());
    let mut body = 1u32.to_le_bytes().to_vec();
    body.extend_from_slice(&entry);
    (1, body)
}

fn step_section() -> (u8, Vec<u8>) {
    (3, 7u64.to_le_bytes().to_vec())
}

#[test]
fn bf16_parameter_entry_is_refused_as_retired() {
    // Two bf16 values (1.0 and -0.5) at 2 bytes each, as the bf16 tier wrote
    // them.
    let payload: Vec<u8> = [0x3F80u16, 0xBF00]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let bytes = v2_file(&[params_section("w16", 1, &payload), step_section()]);
    let retired = CheckpointError::RetiredBf16 { name: "w16".into() };
    assert_eq!(Snapshot::from_bytes(&bytes).err(), Some(retired.clone()));
    assert_eq!(content_digest(&bytes), Err(retired));

    // The same file with an f32 payload loads, and any other unknown tag
    // is plain malformed.
    let f32s: Vec<u8> = [1.0f32, -0.5]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let ok = Snapshot::from_bytes(&v2_file(&[params_section("w", 0, &f32s), step_section()]))
        .expect("an f32 entry loads");
    assert_eq!(ok.entries[0].value.to_vec(), vec![1.0, -0.5]);
    let odd = v2_file(&[params_section("w", 2, &f32s), step_section()]);
    assert!(matches!(
        Snapshot::from_bytes(&odd),
        Err(CheckpointError::Malformed(_))
    ));
}

#[test]
fn optimizer_master_copy_is_refused_as_retired() {
    // One optimizer entry whose mask sets m (bit 0) and the retired f32
    // master copy (bit 2), each a `[2]` f32 tensor.
    let tensor = |vals: [f32; 2]| {
        let mut t = 1u32.to_le_bytes().to_vec();
        t.extend_from_slice(&2u64.to_le_bytes());
        t.extend(vals.iter().flat_map(|x| x.to_le_bytes()));
        t
    };
    let mut optim = 7u64.to_le_bytes().to_vec();
    optim.extend_from_slice(&1u32.to_le_bytes()); // one entry
    optim.extend_from_slice(&1u32.to_le_bytes()); // name length
    optim.extend_from_slice(b"w");
    optim.push(1 | 1 << 2);
    optim.extend(tensor([0.1, 0.2]));
    optim.extend(tensor([1.0, -0.5]));
    let f32s: Vec<u8> = [1.0f32, -0.5]
        .iter()
        .flat_map(|x| x.to_le_bytes())
        .collect();
    let bytes = v2_file(&[params_section("w", 0, &f32s), (2, optim), step_section()]);
    assert_eq!(
        Snapshot::from_bytes(&bytes).err(),
        Some(CheckpointError::RetiredBf16 { name: "w".into() })
    );
}
