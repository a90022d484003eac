//! Nonblocking chunked collectives: cross-crate determinism and failure
//! invariants.
//!
//! 1. the chunked engine's all-reduce, reduce-scatter and gather-cat equal
//!    a manual rank-order fold over `all_gather_vec` bitwise, across chunk
//!    boundaries;
//! 2. an FSDP step (unit gathers with next-unit prefetch, unit
//!    reduce-scatters issued during backward) equals the DP step
//!    (`sync_grads` after backward) bitwise at 2/4 ranks;
//! 3. the DP step's averaged gradients match the single-device gradients
//!    of the concatenated batch;
//! 4. a rank that panics with collectives in flight poisons the group: no
//!    deadlock, root cause propagated.

use dchag::prelude::*;
use dchag_collectives::{run_ranks, RankCtx, COMM_CHUNK_ELEMS};
use dchag_model::AdamW;
use dchag_parallel::{DataParallel, FsdpBinder, FsdpParams};
use dchag_tensor::ops;

// ----- engine vs rank-order fold ---------------------------------------------

/// The rank-order reduction of the chunked engine must match a manual
/// rank-order fold over the gathered contributions — bitwise — including
/// shapes that straddle chunk boundaries.
#[test]
fn chunked_collectives_match_exchange_fold_bitwise() {
    let n = 2 * COMM_CHUNK_ELEMS + 17; // 3 chunks, ragged tail
    let run = run_ranks(4, move |ctx| {
        let mut rng = Rng::new(10 + ctx.comm.rank() as u64);
        let t = Tensor::randn([n], 1.0, &mut rng);

        // gather every contribution, then fold in rank order
        let parts = ctx.comm.all_gather_vec(&t);
        let mut manual = parts[0].clone();
        for p in &parts[1..] {
            manual = ops::add(&manual, p);
        }

        let reduced = ctx.comm.all_reduce_sum(&t);
        let ar_ok = reduced.to_vec() == manual.to_vec();

        // reduce-scatter: this rank's slice of the same fold
        let k = n / 4 * 4;
        let t4 = ops::slice(&t, 0, 0, k);
        let scattered = ctx.comm.reduce_scatter_sum(&t4);
        let want = ops::slice(&manual, 0, ctx.comm.rank() * (k / 4), k / 4);
        let rs_ok = scattered.to_vec() == want.to_vec();

        // gather-cat: rank-order concat of the same contributions
        let cat = ctx.comm.all_gather_cat(&t, 0);
        let refs: Vec<&Tensor> = parts.iter().collect();
        let cat_ok = cat.to_vec() == ops::concat(&refs, 0).to_vec();

        (ar_ok, rs_ok, cat_ok)
    });
    for (ar, rs, cat) in run.outputs {
        assert!(ar, "all_reduce differs from rank-order fold");
        assert!(rs, "reduce_scatter differs from fold slice");
        assert!(cat, "all_gather_cat differs from concat");
    }
}

// ----- DP determinism --------------------------------------------------------

const DIM: usize = 32;
const LAYERS: usize = 4;

fn build_layers(store: &mut ParamStore) -> Vec<(ParamId, ParamId)> {
    let mut rng = Rng::new(71);
    (0..LAYERS)
        .map(|i| {
            (
                store.add(format!("w{i}"), Tensor::randn([DIM, DIM], 0.3, &mut rng)),
                store.add(format!("b{i}"), Tensor::randn([DIM], 0.3, &mut rng)),
            )
        })
        .collect()
}

fn forward(bind: &dyn Binder, tape: &Tape, layers: &[(ParamId, ParamId)], x: Tensor) -> Var {
    let mut h = tape.leaf(x);
    for &(w, b) in layers {
        h = tape.linear_gelu(&h, &bind.bind(w), &bind.bind(b));
    }
    tape.mean_all(&tape.mul(&h, &h))
}

/// Two DP optimizer steps, so second-step state (Adam moments) is covered
/// too; returns post-step parameter bytes.
fn dp_train(ctx: &RankCtx) -> Vec<Vec<f32>> {
    let mut store = ParamStore::new();
    let layers = build_layers(&mut store);
    let mut opt = AdamW::new(0.01);
    for step in 0..2u64 {
        let mut drng = Rng::new(1000 + step * 10 + ctx.comm.rank() as u64);
        let x = Tensor::randn([6, DIM], 1.0, &mut drng);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let loss = forward(&bind, &tape, &layers, x);
        let g = tape.backward(&loss);
        let mut grads = bind.grads(&g);
        DataParallel::new(ctx.comm.clone()).sync_grads(&mut grads);
        opt.step(&mut store, &grads);
    }
    store.iter().map(|(_, _, v)| v.to_vec()).collect()
}

// ----- FSDP determinism ------------------------------------------------------

/// Two FSDP steps; returns post-step parameter bytes.
fn fsdp_train(ctx: &RankCtx) -> Vec<Vec<f32>> {
    let mut store = ParamStore::new();
    let layers = build_layers(&mut store);
    let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
    let mut opt = AdamW::new(0.01);
    for step in 0..2u64 {
        // same per-rank batches as `dp_train`, so the two paths optimize
        // the same objective
        let mut drng = Rng::new(1000 + step * 10 + ctx.comm.rank() as u64);
        let x = Tensor::randn([6, DIM], 1.0, &mut drng);
        let tape = Tape::new();
        let bind = FsdpBinder::new(&tape, &fsdp);
        let loss = forward(&bind, &tape, &layers, x);
        let loss = tape.scale(&loss, 1.0 / ctx.comm.size() as f32);
        let _ = tape.backward(&loss);
        let g = bind.sharded_grads();
        opt.step(&mut fsdp.shard_store, &g);
    }
    (0..fsdp.len())
        .map(|i| fsdp.gather_full(i).to_vec())
        .collect()
}

/// DP and FSDP train on the same per-rank batches and must produce the
/// same parameters — bitwise: shard grads sum across ranks with the loss
/// pre-scaled by 1/world, which is a power-of-two rescale of the exact DP
/// mean, and AdamW is elementwise on either layout.
#[test]
fn overlapped_dp_and_fsdp_agree_at_2_and_4_ranks() {
    for world in [2usize, 4] {
        let run = run_ranks(world, |ctx| {
            let dp = dp_train(&ctx);
            let fsdp = fsdp_train(&ctx);
            (dp, fsdp)
        });
        for (dp, fsdp) in run.outputs {
            assert_eq!(dp, fsdp, "world={world}: DP and FSDP steps diverged");
        }
    }
}

// ----- failure propagation ---------------------------------------------------

#[test]
#[should_panic(expected = "rank 1 died with requests in flight")]
fn panic_with_inflight_requests_poisons_not_deadlocks() {
    run_ranks(4, |ctx| {
        // Everyone issues a first collective; rank 1 dies before waiting.
        let req = ctx
            .comm
            .iall_reduce_sum(&Tensor::ones([COMM_CHUNK_ELEMS + 5]));
        if ctx.comm.rank() == 1 {
            panic!("rank 1 died with requests in flight");
        }
        let _ = req.wait(); // completes: rank 1 already deposited
                            // The next collective can never be matched by rank 1 — waiters must
                            // be woken by the poison, not hang.
        ctx.comm.iall_reduce_sum(&Tensor::ones([8])).wait().at(0)
    });
}

/// The DP mean must also match the single-device step on the concatenated
/// batch (the classic DP invariant).
#[test]
fn overlapped_dp_matches_single_device_big_batch() {
    let world = 2usize;
    // single device: both ranks' batches concatenated
    let mut store = ParamStore::new();
    let layers = build_layers(&mut store);
    let mut drng0 = Rng::new(1000);
    let x0 = Tensor::randn([6, DIM], 1.0, &mut drng0);
    let mut drng1 = Rng::new(1001);
    let x1 = Tensor::randn([6, DIM], 1.0, &mut drng1);
    let x_all = ops::concat(&[&x0, &x1], 0);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, &store);
    let loss = forward(&bind, &tape, &layers, x_all);
    let grads = tape.backward(&loss);
    let want: Vec<Option<Tensor>> = bind.grads(&grads);

    let run = run_ranks(world, |ctx| {
        let mut store = ParamStore::new();
        let layers = build_layers(&mut store);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut drng = Rng::new(1000 + ctx.comm.rank() as u64);
        let x = Tensor::randn([6, DIM], 1.0, &mut drng);
        let loss = forward(&bind, &tape, &layers, x);
        let g = tape.backward(&loss);
        let mut grads = bind.grads(&g);
        DataParallel::new(ctx.comm.clone()).sync_grads(&mut grads);
        grads
    });
    for got in run.outputs {
        for (g, w) in got.iter().zip(&want) {
            let (g, w) = (g.as_ref().unwrap(), w.as_ref().unwrap());
            // mean over replicas of per-replica means == mean over the
            // concatenated batch (equal shard sizes)
            assert!(g.max_abs_diff(w) < 1e-5, "{}", g.max_abs_diff(w));
        }
    }
}
