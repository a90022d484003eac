//! Cross-crate equivalence invariants (DESIGN.md §5):
//!
//! 1. distributed tokenization ≡ single-device baseline (exact),
//! 2. TP model ≡ single-device model (forward and input gradient),
//! 3. FSDP ≡ DP ≡ single-device big-batch training step, with and
//!    without weight decay.

use dchag::prelude::*;
use dchag_collectives::run_ranks;
use dchag_core::{train_step, train_step_fsdp, TrainConfig};
use dchag_model::layers::Linear;
use dchag_model::{AdamW, PatchTokenizer, ViTEncoder};
use dchag_parallel::{tp_group, DataParallel, DistTokenizer, FsdpBinder, FsdpParams};
use dchag_tensor::ops;

/// §3.1: tokenize-locally + AllGather must reproduce the baseline token
/// tensor bit-for-bit, at any world size that divides the channels.
#[test]
fn distributed_tokenization_equals_baseline_exactly() {
    let channels = 12usize;
    let (patch, dim) = (4usize, 16usize);
    let mut rng = Rng::new(501);
    let imgs = Tensor::randn([2, channels, 16, 16], 1.0, &mut rng);

    let mut store = ParamStore::new();
    let ids: Vec<usize> = (0..channels).collect();
    let tok = PatchTokenizer::new(&mut store, 99, &ids, patch, dim);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &store);
    let want = tok.forward(&bind, &imgs).value().clone();

    for world in [2usize, 3, 4, 6] {
        let imgs = imgs.clone();
        let want = want.clone();
        let run = run_ranks(world, move |ctx| {
            let mut store = ParamStore::new();
            let dt = DistTokenizer::new(&mut store, 99, channels, patch, dim, &ctx.comm);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            dt.forward_gathered(&bind, &ctx.comm, &imgs)
                .value()
                .max_abs_diff(&want)
        });
        for d in run.outputs {
            assert_eq!(d, 0.0, "world={world}: must be exact");
        }
    }
}

/// Megatron algebra: the TP ViT computes the same function and the same
/// input gradient as the single-device ViT, for every divisor of the heads.
#[test]
fn tp_vit_equivalence_forward_and_grad() {
    let (dim, depth, heads) = (24usize, 2usize, 4usize);
    let mut rng = Rng::new(601);
    let x = Tensor::randn([2, 5, dim], 0.8, &mut rng);
    let readout = Tensor::randn([2, 5, dim], 1.0, &mut rng);

    let mut store = ParamStore::new();
    let mut brng = Rng::new(9);
    let vit = ViTEncoder::new(&mut store, &mut brng, "vit", dim, depth, heads, dim * 2);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &store);
    let xv = tape.leaf(x.clone());
    let y = vit.forward(&bind, &xv);
    let rv = tape.leaf(readout.clone());
    let loss = tape.sum_all(&tape.mul(&y, &rv));
    let want_y = y.value().clone();
    let want_g = tape.backward(&loss).get(&xv).unwrap().clone();

    for tp in [2usize, 4] {
        let (x, readout) = (x.clone(), readout.clone());
        let (want_y, want_g) = (want_y.clone(), want_g.clone());
        let run = run_ranks(tp, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(9);
            let group = tp_group(&ctx.comm);
            let vit = ViTEncoder::sharded(
                &mut store,
                &mut rng,
                "vit",
                dim,
                depth,
                heads,
                dim * 2,
                &group,
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            let y = vit.forward(&bind, &xv);
            let rv = tape.leaf(readout.clone());
            let loss = tape.sum_all(&tape.mul(&y, &rv));
            let g = tape.backward(&loss).get(&xv).unwrap().clone();
            (y.value().rel_l2_diff(&want_y), g.rel_l2_diff(&want_g))
        });
        for (dy, dg) in run.outputs {
            assert!(dy < 1e-4, "tp={tp} forward diff {dy}");
            assert!(dg < 1e-3, "tp={tp} gradient diff {dg}");
        }
    }
}

fn two_layer(store: &mut ParamStore) -> (Linear, Linear) {
    let mut rng = Rng::new(77);
    let l1 = Linear::new(store, &mut rng, "l1", 6, 10, true);
    let l2 = Linear::new(store, &mut rng, "l2", 10, 3, true);
    (l1, l2)
}

fn forward_loss(bind: &dyn Binder, l1: &Linear, l2: &Linear, x: &Tensor) -> dchag_tensor::Var {
    let tape = bind.tape();
    let xv = tape.leaf(x.clone());
    let y = l2.forward(bind, &tape.gelu(&l1.forward(bind, &xv)));
    tape.mean_all(&tape.mul(&y, &y))
}

/// FSDP ≡ DP ≡ single-device: one optimizer step on the same global batch
/// produces identical parameters under all three executions.
#[test]
fn fsdp_dp_single_device_training_agree() {
    let mut rng = Rng::new(88);
    let shards: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([4, 6], 1.0, &mut rng))
        .collect();
    let full = ops::concat(&[&shards[0], &shards[1]], 0);

    // single device, global batch
    let mut store = ParamStore::new();
    let (l1, l2) = two_layer(&mut store);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &store);
    let loss = forward_loss(&bind, &l1, &l2, &full);
    let grads = tape.backward(&loss);
    let pg = bind.grads(&grads);
    let mut opt = AdamW::new(0.01);
    opt.step(&mut store, &pg);
    let want: Vec<f32> = store.iter().flat_map(|(_, _, v)| v.to_vec()).collect();

    // DP on two ranks
    let dp_want = want.clone();
    let dp_shards = shards.clone();
    let run = run_ranks(2, move |ctx| {
        let dp = DataParallel::new(ctx.comm.clone());
        let mut store = ParamStore::new();
        let (l1, l2) = two_layer(&mut store);
        let mut pg = {
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            // per-rank mean loss == global mean when shards are equal size
            let loss = forward_loss(&bind, &l1, &l2, &dp_shards[ctx.comm.rank()]);
            let grads = tape.backward(&loss);
            bind.grads(&grads)
        };
        dp.sync_grads(&mut pg);
        let mut opt = AdamW::new(0.01);
        opt.step(&mut store, &pg);
        let got: Vec<f32> = store.iter().flat_map(|(_, _, v)| v.to_vec()).collect();
        got.iter()
            .zip(&dp_want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    });
    for d in run.outputs {
        assert!(d < 1e-5, "DP vs single-device diff {d}");
    }

    // FSDP on two ranks
    let run = run_ranks(2, move |ctx| {
        let mut store = ParamStore::new();
        let (l1, l2) = two_layer(&mut store);
        let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
        let pg = {
            let tape = Tape::new();
            let bind = FsdpBinder::new(&tape, &fsdp);
            let l = forward_loss(&bind, &l1, &l2, &shards[ctx.comm.rank()]);
            // shard losses average to the global mean; scale before backward
            let loss = tape.scale(&l, 1.0 / ctx.comm.size() as f32);
            let _ = tape.backward(&loss);
            bind.sharded_grads()
        };
        let mut opt = AdamW::new(0.01);
        opt.step(&mut fsdp.shard_store, &pg);
        let got: Vec<f32> = (0..fsdp.len())
            .flat_map(|i| fsdp.gather_full(i).to_vec())
            .collect();
        got.iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    });
    for d in run.outputs {
        assert!(d < 1e-5, "FSDP vs single-device diff {d}");
    }
}

/// FSDP keeps AdamW's decoupled weight decay: matrix shards are stored
/// `[1, s]`, so the "decay only ndim >= 2" rule reaches them. Three
/// `train_step_fsdp` steps on two ranks match unsharded `train_step` on the
/// global batch, and differ from the same run without decay.
#[test]
fn fsdp_weight_decay_matches_unsharded_train_step() {
    let cfg = TrainConfig {
        lr: 0.01,
        weight_decay: 0.1,
        clip: f32::INFINITY,
    };
    let mut rng = Rng::new(89);
    let batches: Vec<Vec<Tensor>> = (0..3)
        .map(|_| {
            (0..2)
                .map(|_| Tensor::randn([4, 6], 1.0, &mut rng))
                .collect()
        })
        .collect();

    let unsharded = |weight_decay: f32| -> Vec<f32> {
        let mut store = ParamStore::new();
        let (l1, l2) = two_layer(&mut store);
        let mut opt = TrainConfig {
            weight_decay,
            ..cfg.clone()
        }
        .optimizer();
        for b in &batches {
            let full = ops::concat(&[&b[0], &b[1]], 0);
            train_step(&mut store, &mut opt, cfg.clip, None, |bind| {
                forward_loss(bind, &l1, &l2, &full)
            });
        }
        store.iter().flat_map(|(_, _, v)| v.to_vec()).collect()
    };
    let want = unsharded(cfg.weight_decay);
    let undecayed = unsharded(0.0);

    let run = run_ranks(2, |ctx| {
        let mut store = ParamStore::new();
        let (l1, l2) = two_layer(&mut store);
        let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
        let mut opt = cfg.optimizer();
        for b in &batches {
            train_step_fsdp(&mut fsdp, &mut opt, cfg.clip, None, |bind| {
                let l = forward_loss(bind, &l1, &l2, &b[ctx.comm.rank()]);
                // shard losses average to the global mean
                bind.tape().scale(&l, 1.0 / ctx.comm.size() as f32)
            });
        }
        (0..fsdp.len())
            .flat_map(|i| fsdp.gather_full(i).to_vec())
            .collect::<Vec<f32>>()
    });
    let max_diff = |a: &[f32], b: &[f32]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max)
    };
    for got in run.outputs {
        let d = max_diff(&got, &want);
        assert!(d < 1e-5, "FSDP vs unsharded with weight decay: diff {d}");
        let d0 = max_diff(&got, &undecayed);
        assert!(
            d0 > 1e-4,
            "weight decay must move the FSDP step (diff {d0})"
        );
    }
}
