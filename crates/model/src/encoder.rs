//! The full single-device foundation-model encoder (paper Fig. 1):
//! per-channel tokenization (with the channel-ID embeddings) → channel
//! aggregation → positional embedding → ViT blocks.
//!
//! The distributed variants (`dchag-parallel`, `dchag-core`) re-compose
//! these same stages across ranks; this module is the ground-truth baseline
//! they are checked against.

use dchag_tensor::prelude::*;

use crate::config::{ModelConfig, TreeConfig};
use crate::embeddings::PosEmbed;
use crate::hierarchy::HierarchicalAggregator;
use crate::tokenizer::PatchTokenizer;
use crate::vit::ViTEncoder;

/// Abstraction over encoder backbones so task heads (MAE, forecasting) work
/// unchanged on top of the single-device encoder *and* the distributed
/// D-CHAG encoder.
pub trait EncoderBackbone {
    /// Tokenize + aggregate + position-embed: `[B,C,H,W] -> [B,P,D]`.
    fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var;
    /// Run the ViT stack: `[B,S,D] -> [B,S,D]` (S may include extra tokens).
    fn encode(&self, bind: &dyn Binder, x: &Var) -> Var;
    /// The architecture this backbone realizes.
    fn config(&self) -> &ModelConfig;
}

/// Single-device encoder over all `cfg.channels` input channels.
pub struct FmEncoder {
    pub cfg: ModelConfig,
    pub tokenizer: PatchTokenizer,
    pub agg: HierarchicalAggregator,
    pub pos: PosEmbed,
    pub vit: ViTEncoder,
}

impl FmEncoder {
    /// `base_seed` keys the channel-owned parameters (tokenizer, channel
    /// embeddings) so distributed layouts reproduce identical weights;
    /// `rng` initializes the shared modules (aggregator, ViT).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        cfg: &ModelConfig,
        base_seed: u64,
        tree: TreeConfig,
    ) -> Self {
        let channels: Vec<usize> = (0..cfg.channels).collect();
        let tokenizer = PatchTokenizer::new(store, base_seed, &channels, cfg.patch, cfg.embed_dim);
        let agg = HierarchicalAggregator::new(
            store,
            rng,
            "agg",
            cfg.channels,
            tree,
            cfg.embed_dim,
            cfg.heads,
        );
        let pos = PosEmbed::new(store, rng, "pos_embed", cfg.num_patches(), cfg.embed_dim);
        let vit = ViTEncoder::new(
            store,
            rng,
            "vit",
            cfg.embed_dim,
            cfg.depth,
            cfg.heads,
            cfg.mlp_dim(),
        );
        FmEncoder {
            cfg: cfg.clone(),
            tokenizer,
            agg,
            pos,
            vit,
        }
    }

    /// Tokenize + aggregate + position-embed: `[B,C,H,W] -> [B,P,D]`.
    /// (Stops before the ViT so callers like MAE can drop masked tokens.)
    pub fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let tape = bind.tape();
        let b = images.dims()[0];
        let p = self.cfg.num_patches();
        let d = self.cfg.embed_dim;

        let tokens = self.tokenizer.forward(bind, images); // [B, C, P, D]
        let by_pos = tape.swap_axes12(&tokens); // [B, P, C, D]
        let folded = tape.reshape(&by_pos, &[b * p, self.cfg.channels, d]);
        let agg = self.agg.forward(bind, &folded); // [B·P, D]
        let x = tape.reshape(&agg, &[b, p, d]);
        self.pos.forward(bind, &x)
    }

    /// Full encoder: `[B,C,H,W] -> [B,P,D]`.
    pub fn forward(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        let x = self.embed(bind, images);
        self.vit.forward(bind, &x)
    }
}

impl EncoderBackbone for FmEncoder {
    fn embed(&self, bind: &dyn Binder, images: &Tensor) -> Var {
        FmEncoder::embed(self, bind, images)
    }

    fn encode(&self, bind: &dyn Binder, x: &Var) -> Var {
        self.vit.forward(bind, x)
    }

    fn config(&self) -> &ModelConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitKind;

    fn tiny_encoder(channels: usize, tree: TreeConfig) -> (ParamStore, FmEncoder) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(33);
        let cfg = ModelConfig::tiny(channels);
        let enc = FmEncoder::new(&mut store, &mut rng, &cfg, 1234, tree);
        (store, enc)
    }

    #[test]
    fn forward_shapes() {
        let (store, enc) = tiny_encoder(6, TreeConfig::tree0(UnitKind::CrossAttention));
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(1);
        let imgs = Tensor::randn([2, 6, 16, 16], 1.0, &mut rng);
        let y = enc.forward(&bind, &imgs);
        assert_eq!(y.dims(), &[2, 16, 32]); // P = (16/4)² = 16, D = 32
        assert!(y.value().all_finite());
    }

    #[test]
    fn tree_and_flat_encoders_share_tokenizer_weights() {
        let (s1, _) = tiny_encoder(6, TreeConfig::tree0(UnitKind::CrossAttention));
        let (s2, _) = tiny_encoder(6, TreeConfig::tree(2, UnitKind::Linear));
        // tokenizer params are the first-registered and channel-keyed
        let w1: Vec<f32> = s1.get(s1.ids().next().unwrap()).to_vec();
        let w2: Vec<f32> = s2.get(s2.ids().next().unwrap()).to_vec();
        assert_eq!(w1, w2);
    }

    #[test]
    fn every_parameter_participates_in_training() {
        let (store, enc) = tiny_encoder(4, TreeConfig::tree(2, UnitKind::CrossAttention));
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let mut rng = Rng::new(2);
        let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut rng);
        let y = enc.forward(&bind, &imgs);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        let pg = bind.grads(&grads);
        let missing: Vec<_> = store
            .iter()
            .filter(|(id, _, _)| pg[id.index()].is_none())
            .map(|(_, n, _)| n.to_string())
            .collect();
        assert!(missing.is_empty(), "dead params: {missing:?}");
    }

    #[test]
    fn deterministic_given_seeds() {
        let out = |seed| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(33);
            let cfg = ModelConfig::tiny(4);
            let enc = FmEncoder::new(
                &mut store,
                &mut rng,
                &cfg,
                seed,
                TreeConfig::tree0(UnitKind::Linear),
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let imgs = Tensor::randn([1, 4, 16, 16], 1.0, &mut Rng::new(5));
            enc.forward(&bind, &imgs).value().to_vec()
        };
        assert_eq!(out(7), out(7));
        assert_ne!(out(7), out(8));
    }
}
