//! End-to-end D-CHAG training invariants (DESIGN.md §5): the
//! no-backward-communication claim on the full task model, hybrid replica
//! consistency, and determinism.

use dchag::prelude::*;
use dchag_collectives::{run_ranks, CollOp};
use dchag_core::{build_mae, train_step};
use dchag_model::AdamW;
use dchag_parallel::{DataParallel, HybridGroups};

fn tiny_cfg(channels: usize) -> ModelConfig {
    ModelConfig {
        embed_dim: 32,
        heads: 4,
        depth: 2,
        mlp_ratio: 2,
        patch: 4,
        img_h: 16,
        img_w: 16,
        channels,
        out_channels: channels,
        decoder_dim: 16,
        decoder_depth: 1,
    }
}

/// The paper's claim, proven on the *whole* MAE model: the backward pass
/// issues zero AllGather / ReduceScatter collectives — only the TP
/// AllReduces the baseline pays as well.
#[test]
fn full_model_backward_has_no_gather_collectives() {
    let run = run_ranks(2, |ctx| {
        let cfg = tiny_cfg(8);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let mae = build_mae(
            &mut store,
            &mut rng,
            &cfg,
            3,
            TreeConfig::tree(2, UnitKind::Linear),
            &ctx.comm,
        );
        let mut drng = Rng::new(7);
        let imgs = Tensor::randn([2, 8, 16, 16], 0.5, &mut drng);
        let mask = PatchMask::random(cfg.num_patches(), 0.5, &mut drng);

        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
        let fwd_gathers = ctx
            .comm
            .traffic()
            .events()
            .iter()
            .filter(|e| e.op == CollOp::AllGather)
            .count();
        let cursor = ctx.comm.traffic().cursor();
        let _ = tape.backward(&loss);
        ctx.comm.barrier();
        let bwd = ctx.comm.traffic().since(cursor);
        (
            fwd_gathers,
            bwd.iter().filter(|e| e.op == CollOp::AllGather).count(),
            bwd.iter().filter(|e| e.op == CollOp::ReduceScatter).count(),
        )
    });
    for (fwd_gathers, bwd_gathers, bwd_scatters) in run.outputs {
        assert_eq!(
            fwd_gathers, 1,
            "exactly one forward AllGather (one token per rank)"
        );
        assert_eq!(bwd_gathers, 0, "no backward AllGather");
        assert_eq!(bwd_scatters, 0, "no backward ReduceScatter");
    }
}

/// Hybrid D-CHAG × DP on a 2×2 grid: after several optimizer steps on
/// different data, the two DP replicas hold bit-identical parameters.
#[test]
fn hybrid_dchag_dp_replicas_stay_identical() {
    let mut drng = Rng::new(42);
    let data: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([2, 8, 16, 16], 0.5, &mut drng))
        .collect();
    let run = run_ranks(4, move |ctx| {
        let g = HybridGroups::build(&ctx.comm, 2, 1, 2);
        let cfg = tiny_cfg(8);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let mae = build_mae(
            &mut store,
            &mut rng,
            &cfg,
            3,
            TreeConfig::tree0(UnitKind::Linear),
            &g.tp,
        );
        let dp = DataParallel::new(g.dp.clone());
        let mut opt = AdamW::new(5e-3);
        let mask = PatchMask::random(cfg.num_patches(), 0.5, &mut Rng::new(1));
        for _ in 0..3 {
            let imgs = &data[g.coord.dp];
            train_step(&mut store, &mut opt, 1.0, Some(&dp), |bind| {
                let (loss, _) = mae.forward_loss(bind, imgs, &mask);
                loss
            });
        }
        // compare every parameter across the DP group
        let mut max_diff = 0.0f32;
        for (_, _, value) in store.iter() {
            let gathered = g.dp.all_gather_vec(value);
            max_diff = max_diff.max(gathered[0].max_abs_diff(&gathered[1]));
        }
        max_diff
    });
    for d in run.outputs {
        assert_eq!(d, 0.0, "DP replicas must remain bit-identical");
    }
}

/// Same seed, same machine layout — same losses, run-to-run.
#[test]
fn dchag_training_deterministic() {
    let once = || {
        let run = run_ranks(2, |ctx| {
            let cfg = tiny_cfg(4);
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let mae = build_mae(
                &mut store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
            let mut drng = Rng::new(7);
            let imgs = Tensor::randn([1, 4, 16, 16], 0.5, &mut drng);
            let mask = PatchMask::random(cfg.num_patches(), 0.5, &mut drng);
            let mut opt = AdamW::new(5e-3);
            let mut losses = Vec::new();
            for _ in 0..3 {
                let l = train_step(&mut store, &mut opt, 1.0, None, |bind| {
                    let (loss, _) = mae.forward_loss(bind, &imgs, &mask);
                    loss
                });
                losses.push(l);
            }
            losses
        });
        run.outputs
    };
    assert_eq!(once(), once());
}

/// Memory observability: the per-rank D-CHAG peak allocation is well below
/// the single-device baseline peak for the same workload (the functional
/// analogue of the analytical memory gains).
#[test]
fn dchag_peak_memory_below_baseline() {
    let cfg = tiny_cfg(16);
    let mut drng = Rng::new(7);
    let imgs = Tensor::randn([2, 16, 16, 16], 0.5, &mut drng);
    let mask = PatchMask::random(cfg.num_patches(), 0.5, &mut drng);

    // baseline on one simulated GPU
    let base_run = {
        let cfg = cfg.clone();
        let imgs = imgs.clone();
        let mask = mask.clone();
        run_ranks(1, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let mae = MaeModel::new(
                &mut store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree0(UnitKind::CrossAttention),
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
            let _ = tape.backward(&loss);
            ctx.mem.peak()
        })
    };
    let baseline_peak = base_run.outputs[0];

    // D-CHAG on four simulated GPUs
    let run = run_ranks(4, move |ctx| {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let mae = build_mae(
            &mut store,
            &mut rng,
            &cfg,
            3,
            TreeConfig::tree0(UnitKind::Linear),
            &ctx.comm,
        );
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
        let _ = tape.backward(&loss);
        ctx.mem.peak()
    });
    for peak in run.outputs {
        assert!(
            peak < baseline_peak,
            "per-rank peak {peak} must be below baseline {baseline_peak}"
        );
    }
}
