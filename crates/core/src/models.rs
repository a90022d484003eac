//! Task models on the D-CHAG backbone: MAE pretraining and ClimaX-style
//! forecasting, via the generic heads of `dchag-model`.

use dchag_collectives::Communicator;
use dchag_model::config::{ModelConfig, TreeConfig};
use dchag_model::{ClimaxModel, MaeModel};
use dchag_tensor::prelude::*;

use crate::dchag::DChagEncoder;

/// MAE over the distributed D-CHAG encoder (decoder replicated per rank —
/// replicated inputs produce replicated gradients, so no extra sync is
/// needed inside a TP group).
pub type DChagMae = MaeModel<DChagEncoder>;

/// Forecasting model over the distributed D-CHAG encoder.
pub type DChagClimax = ClimaxModel<DChagEncoder>;

/// Build a D-CHAG MAE on this rank. `rng` must be identically seeded on all
/// ranks of `comm`.
pub fn build_mae(
    store: &mut ParamStore,
    rng: &mut Rng,
    cfg: &ModelConfig,
    base_seed: u64,
    tree: TreeConfig,
    comm: &Communicator,
) -> DChagMae {
    let enc = DChagEncoder::new(store, rng, cfg, base_seed, tree, comm);
    MaeModel::with_encoder(store, rng, enc)
}

/// Build a D-CHAG forecasting model on this rank.
pub fn build_climax(
    store: &mut ParamStore,
    rng: &mut Rng,
    cfg: &ModelConfig,
    base_seed: u64,
    tree: TreeConfig,
    comm: &Communicator,
) -> DChagClimax {
    let enc = DChagEncoder::new(store, rng, cfg, base_seed, tree, comm);
    ClimaxModel::with_encoder(store, rng, enc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train_step;
    use dchag_collectives::run_ranks;
    use dchag_model::config::UnitKind;
    use dchag_model::{AdamW, PatchMask};

    #[test]
    fn dchag_mae_trains_and_losses_match_across_ranks() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let cfg = ModelConfig::tiny(8);
            let mae = build_mae(
                &mut store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree0(UnitKind::Linear),
                &ctx.comm,
            );
            let mut drng = Rng::new(7);
            let imgs = Tensor::randn([2, 8, 16, 16], 0.5, &mut drng);
            let mask = PatchMask::random(16, 0.5, &mut drng);
            let mut opt = AdamW::new(5e-3);
            let mut losses = Vec::new();
            for _ in 0..6 {
                losses.push(train_step(&mut store, &mut opt, 5.0, None, |bind| {
                    mae.forward_loss(bind, &imgs, &mask).0
                }));
            }
            losses
        });
        // identical losses on both ranks (replicated loss), decreasing
        assert_eq!(run.outputs[0], run.outputs[1]);
        assert!(
            run.outputs[0].last().unwrap() < run.outputs[0].first().unwrap(),
            "{:?}",
            run.outputs[0]
        );
    }

    #[test]
    fn dchag_climax_forward_loss_finite() {
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let cfg = ModelConfig::tiny(8);
            let m = build_climax(
                &mut store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree(2, UnitKind::CrossAttention),
                &ctx.comm,
            );
            let mut drng = Rng::new(7);
            let x = Tensor::randn([1, 8, 16, 16], 0.5, &mut drng);
            let y = x.map(|v| 0.8 * v);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let (loss, pred) = m.forward_loss(&bind, &x, &y, 0.25);
            (loss.value().item(), pred.value().all_finite())
        });
        for (l, finite) in run.outputs {
            assert!(l.is_finite() && l > 0.0);
            assert!(finite);
        }
    }

    /// Fill this thread's buffer pool with NaN buffers, from the smallest
    /// pooled size up to 1 MiB in steps under 2×, so every tensor or
    /// scratch request of the step below can be served a dirty buffer.
    fn dirty_pool() {
        let mut n = dchag_tensor::scratch::MIN_RECYCLED;
        while n <= 1 << 18 {
            for _ in 0..2 {
                dchag_tensor::scratch::recycle(vec![f32::NAN; n]);
            }
            n = n * 5 / 4;
        }
    }

    /// Loss and gradient bits of one MAE forward and backward (flat on one
    /// rank, D-CHAG-L on two) on fresh rank threads, with their pools cold
    /// or dirtied first, and each rank's `MemCounter` peak.
    fn step_bits(world: usize, dirty: bool) -> (Vec<Vec<u32>>, Vec<usize>) {
        let cfg = ModelConfig::tiny(32);
        let mut drng = Rng::new(7);
        let imgs = Tensor::randn([2, 32, 16, 16], 0.5, &mut drng);
        let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut drng);
        let run = run_ranks(world, |ctx| {
            if dirty {
                dirty_pool();
            }
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let tape = Tape::new();
            let (loss, grads) = if world == 1 {
                let tree = TreeConfig::tree0(UnitKind::CrossAttention);
                let m = MaeModel::new(&mut store, &mut rng, &cfg, 3, tree);
                let bind = LocalBinder::new(&tape, &store);
                let loss = m.forward_loss(&bind, &imgs, &mask).0;
                let g = tape.backward(&loss);
                (loss.value().item(), bind.grads(&g))
            } else {
                let tree = TreeConfig::tree(4, UnitKind::Linear);
                let m = build_mae(&mut store, &mut rng, &cfg, 3, tree, &ctx.comm);
                let bind = LocalBinder::new(&tape, &store);
                let loss = m.forward_loss(&bind, &imgs, &mask).0;
                let g = tape.backward(&loss);
                (loss.value().item(), bind.grads(&g))
            };
            let mut bits = vec![loss.to_bits()];
            for g in grads.iter().flatten() {
                bits.extend(g.data().iter().map(|x| x.to_bits()));
            }
            bits
        });
        (run.outputs, run.mems.iter().map(|m| m.peak()).collect())
    }

    #[test]
    fn dirty_buffer_pool_leaves_step_bitwise_and_peak_unchanged() {
        for world in [1, 2] {
            let (cold, cold_peak) = step_bits(world, false);
            let (dirty, dirty_peak) = step_bits(world, true);
            assert!(cold[0].len() > 1, "gradients were read");
            assert!(cold == dirty, "world {world}: loss or a gradient moved");
            assert_eq!(cold_peak, dirty_peak, "world {world}: peak moved");
        }
    }

    /// Bytes allocated after one forward and backward on a live tape,
    /// against what may remain: the pre-forward level, the parameter
    /// gradients, and the `loss` and `pred` values the caller holds.
    fn held_after_backward<E: dchag_model::encoder::EncoderBackbone>(
        ctx: &dchag_collectives::RankCtx,
        store: &ParamStore,
        mae: &MaeModel<E>,
        imgs: &Tensor,
        mask: &PatchMask,
    ) -> (usize, usize) {
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, store);
        let before = ctx.mem.current();
        let (loss, pred) = mae.forward_loss(&bind, imgs, mask);
        let grads = tape.backward(&loss);
        let grad_bytes: usize = bind
            .grads(&grads)
            .iter()
            .flatten()
            .map(Tensor::size_bytes)
            .sum();
        let allowed = before + grad_bytes + loss.value().size_bytes() + pred.value().size_bytes();
        (ctx.mem.current(), allowed)
    }

    #[test]
    fn no_activation_outlives_the_backward() {
        let cfg = ModelConfig::tiny(8);
        let mut drng = Rng::new(7);
        let imgs = Tensor::randn([2, 8, 16, 16], 0.5, &mut drng);
        let mask = PatchMask::random(16, 0.5, &mut drng);
        let run = run_ranks(2, |ctx| {
            let mut rng = Rng::new(5);
            let mut flat_store = ParamStore::new();
            let flat = MaeModel::new(
                &mut flat_store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree0(UnitKind::CrossAttention),
            );
            let mut store = ParamStore::new();
            let dchag = build_mae(
                &mut store,
                &mut rng,
                &cfg,
                3,
                TreeConfig::tree(2, UnitKind::Linear),
                &ctx.comm,
            );
            [
                held_after_backward(&ctx, &flat_store, &flat, &imgs, &mask),
                held_after_backward(&ctx, &store, &dchag, &imgs, &mask),
            ]
        });
        for (rank, held) in run.outputs.iter().enumerate() {
            for ((now, allowed), model) in held.iter().zip(["flat", "D-CHAG"]) {
                assert!(
                    now <= allowed,
                    "{model} rank {rank}: {now} bytes held after backward, \
                     at most {allowed} expected"
                );
            }
        }
    }

    #[test]
    fn replicated_head_gradients_identical_across_tp_ranks() {
        // The decoder/head are replicated; their gradients must agree
        // bit-for-bit across the TP group (no sync needed).
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let cfg = ModelConfig::tiny(4);
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
            let mask = PatchMask::random(16, 0.5, &mut drng);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
            let grads = tape.backward(&loss);
            let pg = bind.grads(&grads);
            let head_grad = pg[mae.head.w.index()].clone().unwrap();
            let gathered = ctx.comm.all_gather_vec(&head_grad);
            gathered[0].max_abs_diff(&gathered[1])
        });
        for d in run.outputs {
            assert!(d < 1e-6, "replicated head grads diverged: {d}");
        }
    }
}
