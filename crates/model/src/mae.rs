//! Masked-autoencoder wrapper (paper §5.1, Fig. 10): mask spatial patches
//! after channel aggregation, encode the visible ones, reconstruct all
//! channels of the masked patches with a lightweight decoder.

use dchag_tensor::ops;
use dchag_tensor::prelude::*;
use dchag_tensor::scratch;
use dchag_tensor::Shape;

use crate::config::{ModelConfig, TreeConfig};
use crate::embeddings::PosEmbed;
use crate::encoder::{EncoderBackbone, FmEncoder};
use crate::layers::{LayerNorm, Linear};
use crate::vit::TransformerBlock;

/// A spatial patch mask shared across the batch.
#[derive(Clone, Debug)]
pub struct PatchMask {
    /// Patch indices the encoder sees, ascending.
    pub visible: Vec<usize>,
    /// Patch indices to reconstruct, ascending.
    pub masked: Vec<usize>,
    /// Total patch count.
    pub total: usize,
}

impl PatchMask {
    /// Random mask of `ratio` of the `total` patches.
    ///
    /// One mask per batch (not per sample) — a simplification over MAE's
    /// per-sample masks that keeps token selection a shared index list; the
    /// masking statistics that drive learning are unchanged.
    pub fn random(total: usize, ratio: f32, rng: &mut Rng) -> Self {
        assert!((0.0..1.0).contains(&ratio));
        let n_masked = ((total as f32) * ratio).round() as usize;
        let n_masked = n_masked.min(total.saturating_sub(1)).max(1);
        let perm = rng.permutation(total);
        let mut masked: Vec<usize> = perm[..n_masked].to_vec();
        let mut visible: Vec<usize> = perm[n_masked..].to_vec();
        masked.sort_unstable();
        visible.sort_unstable();
        PatchMask {
            visible,
            masked,
            total,
        }
    }

    /// The permutation that reorders `[visible ++ masked]` back to patch
    /// order: `inverse[p] = position of patch p in the concatenation`.
    pub fn inverse_permutation(&self) -> Vec<usize> {
        let mut inv = vec![0usize; self.total];
        for (i, &p) in self.visible.iter().chain(self.masked.iter()).enumerate() {
            inv[p] = i;
        }
        inv
    }

    /// Mask ratio actually realized.
    pub fn ratio(&self) -> f32 {
        self.masked.len() as f32 / self.total as f32
    }
}

/// MAE = encoder on visible tokens + decoder over the full grid.
///
/// Generic over the backbone so the D-CHAG distributed encoder slots in
/// without touching the task head.
pub struct MaeModel<E: EncoderBackbone = FmEncoder> {
    pub enc: E,
    pub dec_embed: Linear,
    pub mask_token: ParamId,
    pub dec_pos: PosEmbed,
    pub dec_blocks: Vec<TransformerBlock>,
    pub dec_ln: LayerNorm,
    pub head: Linear,
}

impl MaeModel<FmEncoder> {
    /// Single-device MAE with the standard encoder.
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

impl<E: EncoderBackbone> MaeModel<E> {
    /// Attach the MAE decoder head to any backbone (decoder parameters are
    /// drawn from `rng` after the encoder's).
    pub fn with_encoder(store: &mut ParamStore, rng: &mut Rng, enc: E) -> Self {
        let cfg = enc.config().clone();
        let dd = cfg.decoder_dim;
        let dec_embed = Linear::new(store, rng, "dec.embed", cfg.embed_dim, dd, true);
        let mask_token = store.add(
            "dec.mask_token",
            dchag_tensor::init::trunc_normal(&[1, dd], 0.02, rng),
        );
        let dec_pos = PosEmbed::new(store, rng, "dec.pos_embed", cfg.num_patches(), dd);
        let dec_blocks = (0..cfg.decoder_depth)
            .map(|i| {
                TransformerBlock::new(
                    store,
                    rng,
                    &format!("dec.blk{i}"),
                    dd,
                    cfg.heads.min(dd / 4).max(1),
                    dd * 2,
                )
            })
            .collect();
        let dec_ln = LayerNorm::new(store, "dec.ln", dd);
        let head = Linear::new(
            store,
            rng,
            "dec.head",
            dd,
            cfg.patch * cfg.patch * cfg.out_channels,
            true,
        );
        MaeModel {
            enc,
            dec_embed,
            mask_token,
            dec_pos,
            dec_blocks,
            dec_ln,
            head,
        }
    }

    /// Reconstruction target: `[B,C,H,W] -> [B, P, C·p²]` (channel-major
    /// per patch, matching the head's output layout).
    pub fn target_patches(&self, images: &Tensor) -> Tensor {
        let cfg = self.enc.config();
        let patches = ops::patchify(images, cfg.patch); // [B, C, P, p²]
        let by_pos = ops::swap_axes12(&patches); // [B, P, C, p²]
        let (b, p) = (by_pos.dims()[0], by_pos.dims()[1]);
        by_pos.reshape(&[b, p, cfg.out_channels * cfg.patch * cfg.patch])
    }

    /// Run the decoder over an embedded-and-masked token sequence.
    fn decode(&self, bind: &dyn Binder, visible_encoded: &Var, mask: &PatchMask) -> Var {
        let tape = bind.tape();
        let b = visible_encoded.dims()[0];
        let dd = self.dec_embed.out_dim;
        let n_masked = mask.masked.len();

        let vis = self.dec_embed.forward(bind, visible_encoded); // [B, Pv, Dd]

        // [B, Pm, Dd] of mask tokens.
        let mt = bind.bind(self.mask_token); // [1, Dd]
        let mt_rows: Vec<Var> = (0..n_masked).map(|_| mt.clone()).collect();
        let mt_refs: Vec<&Var> = mt_rows.iter().collect();
        let mt_block = tape.concat(&mt_refs, 0); // [Pm, Dd]
        let mt_batch = tape.broadcast_to_batch(&mt_block, b);

        // Restore patch order, add decoder positions, run blocks.
        let seq = tape.concat(&[&vis, &mt_batch], 1); // [B, P, Dd] permuted
        let restored = tape.select_axis1(&seq, &mask.inverse_permutation());
        let mut h = self.dec_pos.forward(bind, &restored);
        for blk in &self.dec_blocks {
            h = blk.forward(bind, &h);
        }
        let h = self.dec_ln.forward(bind, &h);
        let _ = dd;
        self.head.forward(bind, &h) // [B, P, C·p²]
    }

    /// Full forward pass: returns `(masked-MSE loss, prediction [B,P,C·p²])`.
    pub fn forward_loss(&self, bind: &dyn Binder, images: &Tensor, mask: &PatchMask) -> (Var, Var) {
        let tape = bind.tape();
        let cfg = self.enc.config();
        assert_eq!(mask.total, cfg.num_patches());

        let x = self.enc.embed(bind, images); // [B, P, D]
        let visible = tape.select_axis1(&x, &mask.visible);
        let encoded = self.enc.encode(bind, &visible);
        let pred = self.decode(bind, &encoded, mask);

        let target = self.target_patches(images);
        let loss_mask = self.loss_mask(images.dims()[0], mask);
        let loss = tape.masked_mse(&pred, &target, &loss_mask);
        (loss, pred)
    }

    /// Binary mask `[B, P, C·p²]`: ones on masked patches.
    fn loss_mask(&self, b: usize, mask: &PatchMask) -> Tensor {
        let cfg = self.enc.config();
        let row = cfg.out_channels * cfg.patch * cfg.patch;
        let p = cfg.num_patches();
        let mut data = scratch::zeroed(b * p * row);
        for bi in 0..b {
            for &m in &mask.masked {
                let off = (bi * p + m) * row;
                data[off..off + row].fill(1.0);
            }
        }
        Tensor::from_vec(data, Shape::new(&[b, p, row]))
    }

    /// Reassemble a full predicted image `[B, C, H, W]` from patch
    /// predictions (visualization path, plain value computation).
    pub fn reconstruct(&self, pred_patches: &Tensor) -> Tensor {
        let cfg = self.enc.config();
        let (b, p) = (pred_patches.dims()[0], pred_patches.dims()[1]);
        let by_pos = pred_patches.reshape(&[b, p, cfg.out_channels, cfg.patch * cfg.patch]);
        let by_chan = ops::swap_axes12(&by_pos); // [B, C, P, p²]
        ops::unpatchify(&by_chan, cfg.img_h, cfg.img_w, cfg.patch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitKind;

    fn tiny_mae() -> (ParamStore, MaeModel) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let cfg = ModelConfig::tiny(4);
        let mae = MaeModel::new(
            &mut store,
            &mut rng,
            &cfg,
            77,
            TreeConfig::tree0(UnitKind::Linear),
        );
        (store, mae)
    }

    #[test]
    fn mask_partitions_patches() {
        let mut rng = Rng::new(1);
        let m = PatchMask::random(16, 0.75, &mut rng);
        assert_eq!(m.visible.len() + m.masked.len(), 16);
        assert_eq!(m.masked.len(), 12);
        let mut all: Vec<usize> = m.visible.iter().chain(&m.masked).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn inverse_permutation_restores_order() {
        let mut rng = Rng::new(2);
        let m = PatchMask::random(8, 0.5, &mut rng);
        let concat: Vec<usize> = m.visible.iter().chain(&m.masked).copied().collect();
        let inv = m.inverse_permutation();
        for p in 0..8 {
            assert_eq!(concat[inv[p]], p);
        }
    }

    #[test]
    fn forward_loss_runs_and_is_finite() {
        let (store, mae) = tiny_mae();
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(4);
        let imgs = Tensor::randn([2, 4, 16, 16], 1.0, &mut rng);
        let mask = PatchMask::random(16, 0.75, &mut rng);
        let (loss, pred) = mae.forward_loss(&bind, &imgs, &mask);
        assert!(loss.value().item().is_finite());
        assert!(loss.value().item() > 0.0);
        assert_eq!(pred.dims(), &[2, 16, 4 * 16]);
    }

    #[test]
    fn loss_ignores_visible_patches() {
        // Perturbing the prediction at visible positions must not change the
        // loss (it is masked out) — verified through the mask construction.
        let (_, mae) = tiny_mae();
        let mut rng = Rng::new(5);
        let mask = PatchMask::random(16, 0.5, &mut rng);
        let lm = mae.loss_mask(1, &mask);
        for &v in &mask.visible {
            let row = 4 * 16;
            let off = v * row;
            assert!(lm.data()[off..off + row].iter().all(|&x| x == 0.0));
        }
        for &m in &mask.masked {
            let row = 4 * 16;
            let off = m * row;
            assert!(lm.data()[off..off + row].iter().all(|&x| x == 1.0));
        }
    }

    #[test]
    fn reconstruct_roundtrips_target() {
        // Feeding the target patches through reconstruct() recovers images.
        let (_, mae) = tiny_mae();
        let mut rng = Rng::new(6);
        let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut rng);
        let target = mae.target_patches(&imgs);
        let back = mae.reconstruct(&target);
        assert!(back.max_abs_diff(&imgs) < 1e-6);
    }

    #[test]
    fn one_training_step_reduces_loss_on_fixed_batch() {
        let (mut store, mae) = tiny_mae();
        let mut rng = Rng::new(7);
        let imgs = Tensor::randn([2, 4, 16, 16], 0.5, &mut rng);
        let mask = PatchMask::random(16, 0.5, &mut rng);
        let mut opt = crate::optim::AdamW::new(1e-2);
        let mut losses = Vec::new();
        for _ in 0..8 {
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let (loss, _) = mae.forward_loss(&bind, &imgs, &mask);
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
}
