//! Vision-transformer encoder: pre-LN blocks of spatial self-attention and
//! GELU MLP (paper Fig. 1, right). The `sharded` constructors build a
//! tensor-parallel rank's slice; LayerNorms stay replicated.

use std::sync::Arc;

use dchag_tensor::prelude::*;

use crate::attention::MultiHeadAttention;
use crate::layers::{LayerNorm, Mlp, TpGroup};

/// One pre-LN transformer block.
pub struct TransformerBlock {
    pub ln1: LayerNorm,
    pub attn: MultiHeadAttention,
    pub ln2: LayerNorm,
    pub mlp: Mlp,
}

impl TransformerBlock {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
    ) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::new(store, rng, &format!("{name}.attn"), dim, heads),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            mlp: Mlp::new(store, rng, &format!("{name}.mlp"), dim, mlp_hidden),
        }
    }

    /// TP shard: head-sharded attention, hidden-sharded MLP.
    pub fn sharded(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        let attn = format!("{name}.attn");
        TransformerBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            attn: MultiHeadAttention::sharded(store, rng, &attn, dim, heads, group),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            mlp: Mlp::sharded(store, rng, &format!("{name}.mlp"), dim, mlp_hidden, group),
        }
    }

    /// `[B, S, D] -> [B, S, D]`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let a = self.attn.forward(bind, &self.ln1.forward(bind, x));
        let x = tape.add(x, &a);
        let m = self.mlp.forward(bind, &self.ln2.forward(bind, &x));
        tape.add(&x, &m)
    }
}

/// A stack of transformer blocks with a final LayerNorm.
pub struct ViTEncoder {
    pub blocks: Vec<TransformerBlock>,
    pub ln_f: LayerNorm,
    pub dim: usize,
}

impl ViTEncoder {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        depth: usize,
        heads: usize,
        mlp_hidden: usize,
    ) -> Self {
        Self::stack(store, name, dim, depth, |store, blk| {
            TransformerBlock::new(store, rng, blk, dim, heads, mlp_hidden)
        })
    }

    /// TP shard of every block.
    #[allow(clippy::too_many_arguments)] // `new`'s arguments plus the group
    pub fn sharded(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        depth: usize,
        heads: usize,
        mlp_hidden: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        Self::stack(store, name, dim, depth, |store, blk| {
            TransformerBlock::sharded(store, rng, blk, dim, heads, mlp_hidden, group)
        })
    }

    fn stack(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        depth: usize,
        mut block: impl FnMut(&mut ParamStore, &str) -> TransformerBlock,
    ) -> Self {
        let blocks = (0..depth)
            .map(|i| block(store, &format!("{name}.blk{i}")))
            .collect();
        ViTEncoder {
            blocks,
            ln_f: LayerNorm::new(store, &format!("{name}.ln_f"), dim),
            dim,
        }
    }

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let mut h = x.clone();
        for blk in &self.blocks {
            h = blk.forward(bind, &h);
        }
        self.ln_f.forward(bind, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_preserves_shape() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(1);
        let blk = TransformerBlock::new(&mut store, &mut rng, "b", 16, 4, 32);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, 5, 16], 1.0, &mut rng));
        let y = blk.forward(&bind, &x);
        assert_eq!(y.dims(), &[2, 5, 16]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn encoder_stacks_depth_blocks() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let enc = ViTEncoder::new(&mut store, &mut rng, "vit", 8, 3, 2, 16);
        assert_eq!(enc.blocks.len(), 3);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([1, 4, 8], 1.0, &mut rng));
        let y = enc.forward(&bind, &x);
        assert_eq!(y.dims(), &[1, 4, 8]);
    }

    #[test]
    fn residual_path_at_init_keeps_signal() {
        // With fresh params the block output should stay on the same order
        // of magnitude as the input (no exploding activations).
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let enc = ViTEncoder::new(&mut store, &mut rng, "vit", 32, 4, 4, 64);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, 6, 32], 1.0, &mut rng));
        let y = enc.forward(&bind, &x);
        let ratio = y.value().max_abs() / x.value().max_abs();
        assert!(ratio < 20.0, "activations exploded: {ratio}");
    }

    #[test]
    fn all_block_params_get_grads() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(4);
        let blk = TransformerBlock::new(&mut store, &mut rng, "b", 8, 2, 16);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([1, 3, 8], 1.0, &mut rng));
        let y = blk.forward(&bind, &x);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        let pg = bind.grads(&grads);
        let missing: Vec<_> = store
            .iter()
            .filter(|(id, _, _)| pg[id.index()].is_none())
            .map(|(_, n, _)| n.to_string())
            .collect();
        assert!(missing.is_empty(), "params without grads: {missing:?}");
        let _ = blk;
    }
}
