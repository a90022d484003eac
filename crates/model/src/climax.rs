//! ClimaX-style weather forecasting model (paper §5.2): the shared encoder
//! plus a metadata (lead-time) token and a per-patch linear head predicting
//! all output channels at a future timestep, trained with latitude-weighted
//! MSE.

use dchag_tensor::ops;
use dchag_tensor::prelude::*;

use crate::config::{ModelConfig, TreeConfig};
use crate::embeddings::{latitude_weights, tile_patch_mask, MetaToken};
use crate::encoder::{EncoderBackbone, FmEncoder};
use crate::layers::Linear;

/// Forecasting model, generic over the encoder backbone (single-device or
/// D-CHAG distributed).
pub struct ClimaxModel<E: EncoderBackbone = FmEncoder> {
    pub enc: E,
    pub meta: MetaToken,
    pub head: Linear,
    /// Latitude weights in patch layout `[1, 1, P, p²]`.
    lat_patch: Tensor,
}

impl ClimaxModel<FmEncoder> {
    /// Single-device forecasting model with the standard encoder.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        cfg: &ModelConfig,
        base_seed: u64,
        tree: TreeConfig,
    ) -> Self {
        let enc = FmEncoder::new(store, rng, cfg, base_seed, tree);
        Self::with_encoder(store, rng, enc)
    }
}

impl<E: EncoderBackbone> ClimaxModel<E> {
    /// Attach the forecasting head to any backbone.
    pub fn with_encoder(store: &mut ParamStore, rng: &mut Rng, enc: E) -> Self {
        let cfg = enc.config().clone();
        let meta = MetaToken::new(store, rng, cfg.embed_dim);
        let head = Linear::new(
            store,
            rng,
            "head",
            cfg.embed_dim,
            cfg.patch * cfg.patch * cfg.out_channels,
            true,
        );
        let lat = latitude_weights(cfg.img_h, cfg.img_w);
        let lat_patch = ops::patchify(&lat, cfg.patch); // [1, 1, P, p²]
        ClimaxModel {
            enc,
            meta,
            head,
            lat_patch,
        }
    }

    /// Predict patch-space fields: `[B,C,H,W] -> [B, C_out, P, p²]`.
    pub fn forward(&self, bind: &dyn Binder, images: &Tensor, lead_time: f32) -> Var {
        let tape = bind.tape();
        let cfg = self.enc.config();
        let (b, p) = (images.dims()[0], cfg.num_patches());

        let x = self.enc.embed(bind, images); // [B, P, D]
        let x = self.meta.append(bind, &x, lead_time); // [B, P+1, D]
        let h = self.enc.encode(bind, &x);
        let h = tape.slice(&h, 1, 0, p); // drop metadata token
        let out = self.head.forward(bind, &h); // [B, P, p²·C_out]
        let out = tape.reshape(&out, &[b, p, cfg.out_channels, cfg.patch * cfg.patch]);
        tape.swap_axes12(&out) // [B, C_out, P, p²]
    }

    /// Latitude-weighted MSE between patch-space prediction and target
    /// images.
    pub fn loss(&self, bind: &dyn Binder, pred: &Var, target: &Tensor) -> Var {
        let cfg = self.enc.config();
        let tgt = ops::patchify(target, cfg.patch); // [B, C, P, p²]
        assert_eq!(pred.dims(), tgt.dims(), "pred/target layout");
        let weights = tile_patch_mask(&self.lat_patch, tgt.dims()[0], tgt.dims()[1]);
        bind.tape().masked_mse(pred, &tgt, &weights)
    }

    /// Combined forward + loss for a training step.
    pub fn forward_loss(
        &self,
        bind: &dyn Binder,
        inputs: &Tensor,
        targets: &Tensor,
        lead_time: f32,
    ) -> (Var, Var) {
        let pred = self.forward(bind, inputs, lead_time);
        let loss = self.loss(bind, &pred, targets);
        (loss, pred)
    }

    /// Reassemble patch-space prediction into images `[B, C_out, H, W]`.
    pub fn predict_image(&self, pred_patches: &Tensor) -> Tensor {
        let cfg = self.enc.config();
        ops::unpatchify(pred_patches, cfg.img_h, cfg.img_w, cfg.patch)
    }
}

/// Latitude-weighted RMSE per channel for `[B, C, H, W]` tensors.
pub fn latitude_rmse(pred: &Tensor, target: &Tensor) -> Vec<f32> {
    assert_eq!(pred.dims(), target.dims());
    let (b, c, h, w) = (
        pred.dims()[0],
        pred.dims()[1],
        pred.dims()[2],
        pred.dims()[3],
    );
    let lat = latitude_weights(h, w);
    let mut out = Vec::with_capacity(c);
    for ci in 0..c {
        let mut acc = 0f64;
        for bi in 0..b {
            let off = (bi * c + ci) * h * w;
            for i in 0..h * w {
                let d = (pred.at(off + i) - target.at(off + i)) as f64;
                acc += d * d * lat.at(i) as f64;
            }
        }
        out.push(((acc / (b * h * w) as f64).sqrt()) as f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitKind;

    fn tiny_climax() -> (ParamStore, ClimaxModel) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(9);
        let cfg = ModelConfig::tiny(5);
        let m = ClimaxModel::new(
            &mut store,
            &mut rng,
            &cfg,
            55,
            TreeConfig::tree0(UnitKind::Linear),
        );
        (store, m)
    }

    #[test]
    fn forward_shape_is_patch_space() {
        let (store, m) = tiny_climax();
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(1);
        let x = Tensor::randn([2, 5, 16, 16], 1.0, &mut rng);
        let pred = m.forward(&bind, &x, 0.25);
        assert_eq!(pred.dims(), &[2, 5, 16, 16]); // [B, C_out, P, p²]
    }

    #[test]
    fn loss_zero_when_prediction_equals_target() {
        let (store, m) = tiny_climax();
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(2);
        let target = Tensor::randn([1, 5, 16, 16], 1.0, &mut rng);
        let tgt_patches = ops::patchify(&target, 4);
        let pred = tape.leaf(tgt_patches);
        let l = m.loss(&bind, &pred, &target);
        assert!(l.value().item().abs() < 1e-8);
    }

    #[test]
    fn lead_time_changes_prediction() {
        let (store, m) = tiny_climax();
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(3);
        let x = Tensor::randn([1, 5, 16, 16], 1.0, &mut rng);
        let p1 = m.forward(&bind, &x, 0.0);
        let p2 = m.forward(&bind, &x, 2.0);
        assert!(p1.value().max_abs_diff(p2.value()) > 1e-6);
    }

    #[test]
    fn rmse_zero_for_identical_and_positive_otherwise() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let r = latitude_rmse(&a, &a);
        assert!(r.iter().all(|&x| x == 0.0));
        let b = a.map(|x| x + 1.0);
        let r = latitude_rmse(&a, &b);
        // constant offset of 1 with normalized weights -> RMSE ≈ 1
        for x in r {
            assert!((x - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn training_step_reduces_forecast_loss() {
        let (mut store, m) = tiny_climax();
        let mut rng = Rng::new(5);
        let x = Tensor::randn([2, 5, 16, 16], 0.5, &mut rng);
        let y = x.map(|v| 0.9 * v); // learnable damping target
        let mut opt = crate::optim::AdamW::new(1e-2);
        let mut losses = Vec::new();
        for _ in 0..8 {
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let (loss, _) = m.forward_loss(&bind, &x, &y, 0.25);
            losses.push(loss.value().item());
            let grads = tape.backward(&loss);
            let mut pg = bind.grads(&grads);
            crate::optim::clip_global_norm(&mut pg, 5.0);
            opt.step(&mut store, &pg);
        }
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "{losses:?}"
        );
    }

    #[test]
    fn predict_image_inverts_patching() {
        let (_, m) = tiny_climax();
        let mut rng = Rng::new(6);
        let img = Tensor::randn([1, 5, 16, 16], 1.0, &mut rng);
        let patches = ops::patchify(&img, 4);
        assert!(m.predict_image(&patches).max_abs_diff(&img) < 1e-6);
    }
}
