//! Edge-case coverage for paths the main suites exercise only at friendly
//! sizes: FSDP shard padding with non-divisible worlds, odd channel
//! partitions through the full D-CHAG stack, checkpoint properties over
//! arbitrary shapes, and degenerate model geometries.

use dchag::prelude::*;
use dchag_collectives::run_ranks;
use dchag_model::layers::Linear;
use dchag_model::AdamW;
use dchag_parallel::{FsdpBinder, FsdpParams};
use dchag_tensor::checkpoint;
use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

/// FSDP with a world size that does not divide the parameter counts:
/// the zero-padding path must preserve exact reconstruction and exact
/// gradients.
#[test]
fn fsdp_padding_path_exact_on_three_ranks() {
    // 7 and 5 are coprime with world=3: every shard is padded.
    let build = |store: &mut ParamStore| {
        let mut rng = Rng::new(11);
        Linear::new(store, &mut rng, "l", 7, 5, true)
    };

    // reference grads on one device
    let mut rng = Rng::new(2);
    let x = Tensor::randn([4, 7], 1.0, &mut rng);
    let mut ref_store = ParamStore::new();
    let lin = build(&mut ref_store);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &ref_store);
    let xv = tape.leaf(x.clone());
    let y = lin.forward(&bind, &xv);
    let loss = tape.mean_all(&tape.mul(&y, &y));
    let grads = tape.backward(&loss);
    let want: Vec<Tensor> = bind.grads(&grads).into_iter().map(|g| g.unwrap()).collect();

    let run = run_ranks(3, move |ctx| {
        let mut store = ParamStore::new();
        let lin = build(&mut store);
        let fsdp = FsdpParams::from_store(&store, &ctx.comm);
        // reconstruction through padded shards
        for (i, (_, _, value)) in store.iter().enumerate() {
            assert_eq!(fsdp.gather_full(i).to_vec(), value.to_vec());
        }
        // gradient equality: same data on every rank => sharded grads must
        // reassemble to the reference gradient (sum of identical thirds
        // scaled: reduce-scatter sums 3 copies, so divide by world).
        let tape = Tape::new();
        let bind = FsdpBinder::new(&tape, &fsdp);
        let xv = tape.leaf(x.clone());
        let y = lin.forward(&bind, &xv);
        let loss = tape.mean_all(&tape.mul(&y, &y));
        let loss = tape.scale(&loss, 1.0 / ctx.comm.size() as f32);
        let _ = tape.backward(&loss);
        let sharded = bind.sharded_grads();
        // gather each param's gradient shards and compare
        let mut diffs = Vec::new();
        for (i, g) in sharded.iter().enumerate() {
            let g = g.as_ref().expect("grad present");
            // Matrix shards are [1, s]; gather them flat.
            let full_padded = ctx.comm.all_gather_cat(&g.reshape(&[g.numel()]), 0);
            let numel = want[i].numel();
            let flat = dchag_tensor::ops::slice(&full_padded, 0, 0, numel);
            diffs.push(flat.reshape(want[i].dims()).max_abs_diff(&want[i]));
        }
        diffs
    });
    for diffs in run.outputs {
        for d in diffs {
            assert!(d < 1e-5, "padded-shard grad diff {d}");
        }
    }
}

/// FSDP training remains stable when padding is active (no NaNs leaking
/// from the pad region into Adam state).
#[test]
fn fsdp_training_with_padding_stays_finite() {
    let run = run_ranks(3, |ctx| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(11);
        let lin = Linear::new(&mut store, &mut rng, "l", 7, 5, true);
        let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
        let mut opt = AdamW::new(0.01).with_weight_decay(0.1);
        let mut last = f32::NAN;
        for step in 0..5 {
            let x = Tensor::randn([4, 7], 1.0, &mut Rng::new(step as u64));
            let pg = {
                let tape = Tape::new();
                let bind = FsdpBinder::new(&tape, &fsdp);
                let xv = tape.leaf(x);
                let y = lin.forward(&bind, &xv);
                let loss = tape.mean_all(&tape.mul(&y, &y));
                last = loss.value().item();
                let _ = tape.backward(&loss);
                bind.sharded_grads()
            };
            opt.step(&mut fsdp.shard_store, &pg);
        }
        // all shards finite after updates
        let finite = (0..fsdp.len()).all(|i| fsdp.gather_full(i).all_finite());
        (last, finite)
    });
    for (loss, finite) in run.outputs {
        assert!(loss.is_finite());
        assert!(finite);
    }
}

/// D-CHAG with uneven head-per-rank split (heads = tp) and the smallest
/// legal geometry: one head per rank, one channel per rank.
#[test]
fn dchag_minimal_geometry_one_channel_one_head_per_rank() {
    let run = run_ranks(4, |ctx| {
        let cfg = ModelConfig {
            embed_dim: 16,
            heads: 4,
            depth: 1,
            mlp_ratio: 2,
            patch: 4,
            img_h: 8,
            img_w: 8,
            channels: 4, // one channel per rank
            out_channels: 4,
            decoder_dim: 8,
            decoder_depth: 0, // linear decoder
        };
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let mae = dchag_core::build_mae(
            &mut store,
            &mut rng,
            &cfg,
            1,
            TreeConfig::tree0(UnitKind::Linear),
            &ctx.comm,
        );
        let imgs = Tensor::randn([1, 4, 8, 8], 0.5, &mut Rng::new(9));
        let mask = PatchMask::random(cfg.num_patches(), 0.5, &mut Rng::new(1));
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
        let grads = tape.backward(&loss);
        let all_present = bind.grads(&grads).iter().all(|g| g.is_some());
        (loss.value().item(), all_present)
    });
    for (loss, all_present) in run.outputs {
        assert!(loss.is_finite() && loss > 0.0);
        assert!(all_present, "every param trains at minimal geometry");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint save/load roundtrips arbitrary parameter shapes exactly.
    #[test]
    fn checkpoint_roundtrip_arbitrary_shapes(
        dims in proptest::collection::vec(1usize..6, 1..4),
        count in 1usize..5,
        seed in 0u64..1000
    ) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        for i in 0..count {
            store.add(
                format!("p{i}"),
                Tensor::randn(Shape::new(&dims), 1.0, &mut rng),
            );
        }
        let mut buf = Vec::new();
        checkpoint::save_store(&store, &mut buf).unwrap();

        let mut fresh = ParamStore::new();
        for i in 0..count {
            fresh.add(format!("p{i}"), Tensor::zeros(Shape::new(&dims)));
        }
        let restored = checkpoint::load_store(&mut fresh, &mut buf.as_slice()).unwrap();
        prop_assert_eq!(restored, count);
        for ((_, _, a), (_, _, b)) in store.iter().zip(fresh.iter()) {
            prop_assert_eq!(a.to_vec(), b.to_vec());
        }
    }

    /// FSDP shard reconstruction is exact for arbitrary parameter sizes and
    /// world sizes (the padding property).
    #[test]
    fn fsdp_reconstruction_exact_any_size(n in 1usize..40, world in 1usize..5, seed in 0u64..500) {
        let value = Tensor::randn([n], 1.0, &mut Rng::new(seed));
        let v2 = value.clone();
        let run = run_ranks(world, move |ctx| {
            let mut store = ParamStore::new();
            store.add("p", v2.clone());
            let fsdp = FsdpParams::from_store(&store, &ctx.comm);
            fsdp.gather_full(0).to_vec()
        });
        for out in run.outputs {
            prop_assert_eq!(&out, &value.to_vec());
        }
    }
}
