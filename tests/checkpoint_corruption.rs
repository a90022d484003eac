//! Property tests over checkpoint format v2 corruption (ISSUE 10).
//!
//! The invariant the durable tier stands on: **corruption is an error,
//! never wrong data**. Whatever prefix a torn write leaves behind and
//! whichever bit media corruption flips, deserializing must return a typed
//! [`CheckpointError`] — an `Ok` carrying different state than was saved
//! would silently fork the training trajectory. The whole-file CRC32
//! footer guarantees this for every single-bit flip and every proper
//! prefix; these properties drive both through arbitrary offsets on a
//! checkpoint that exercises every section (f32 + bf16 params, AdamW
//! moments and masters, step counter, RNG state).

use dchag::prelude::*;
use dchag_tensor::checkpoint::{OptimEntry, OptimState, Snapshot};
use dchag_tensor::{DType, RngState};
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

/// A checkpoint with every v2 section populated: mixed-dtype params,
/// optimizer moments with an f32 master, a step counter, and RNG state.
fn full_snapshot() -> Snapshot {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(9);
    let w = Tensor::randn([4, 3], 1.0, &mut rng);
    let b = Tensor::randn([3], 1.0, &mut rng).to_dtype(DType::Bf16);
    store.add("w", w.clone());
    store.add("b", b);
    let mut snap = Snapshot::of_store(&store, 7);
    snap.optim = Some(OptimState {
        t: 7,
        entries: vec![OptimEntry {
            name: "w".to_string(),
            m: Some(Tensor::randn([4, 3], 0.1, &mut rng)),
            v: Some(Tensor::randn([4, 3], 0.1, &mut rng)),
            master: Some(w),
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
