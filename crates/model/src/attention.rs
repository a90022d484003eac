//! Multi-head attention (self and cross), the shared engine behind both the
//! ViT blocks (spatial self-attention) and the channel-aggregation modules
//! (cross-channel attention).

use std::sync::Arc;

use dchag_tensor::prelude::*;

use crate::layers::{Linear, TpGroup};

/// Multi-head attention with separate Q/K/V/O projections.
///
/// A TP shard ([`MultiHeadAttention::sharded`]) computes whole heads:
/// `heads / tp` of them, through column-parallel Q/K/V projections and a
/// row-parallel output projection.
pub struct MultiHeadAttention {
    pub wq: Linear,
    pub wk: Linear,
    pub wv: Linear,
    pub wo: Linear,
    /// Heads computed by this module.
    pub heads: usize,
    /// Model (input/output) width.
    pub dim: usize,
    /// Per-head width; the projections' inner width is `heads · head_dim`.
    pub head_dim: usize,
}

impl MultiHeadAttention {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
    ) -> Self {
        assert!(dim.is_multiple_of(heads), "heads {heads} must divide {dim}");
        let mut proj = |p: &str| Linear::new(store, rng, &format!("{name}.{p}"), dim, dim, true);
        MultiHeadAttention {
            wq: proj("wq"),
            wk: proj("wk"),
            wv: proj("wv"),
            wo: proj("wo"),
            heads,
            dim,
            head_dim: dim / heads,
        }
    }

    /// TP shard: the weights [`new`](Self::new) would draw, sliced to this
    /// rank's `heads / tp` heads.
    pub fn sharded(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        let tp = group.size();
        assert!(dim.is_multiple_of(heads), "heads {heads} must divide {dim}");
        assert!(
            heads.is_multiple_of(tp),
            "TP {tp} must divide {heads} heads"
        );
        let mut col =
            |p: &str| Linear::column_parallel(store, rng, &format!("{name}.{p}"), dim, dim, group);
        let (wq, wk, wv) = (col("wq"), col("wk"), col("wv"));
        MultiHeadAttention {
            wq,
            wk,
            wv,
            wo: Linear::row_parallel(store, rng, &format!("{name}.wo"), dim, dim, group),
            heads: heads / tp,
            dim,
            head_dim: dim / heads,
        }
    }

    /// `[B, S, inner] -> [B·H, S, dh]` head split.
    pub fn split_heads(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (b, s) = (x.dims()[0], x.dims()[1]);
        let r = tape.reshape(x, &[b, s, self.heads, self.head_dim]);
        let sw = tape.swap_axes12(&r); // [B, H, S, dh]
        tape.reshape(&sw, &[b * self.heads, s, self.head_dim])
    }

    /// `[B·H, S, dh] -> [B, S, inner]` head merge.
    fn merge_heads(&self, bind: &dyn Binder, x: &Var, b: usize) -> Var {
        let tape = bind.tape();
        let s = x.dims()[1];
        let r = tape.reshape(x, &[b, self.heads, s, self.head_dim]);
        let sw = tape.swap_axes12(&r); // [B, S, H, dh]
        tape.reshape(&sw, &[b, s, self.heads * self.head_dim])
    }

    /// Self-attention over the middle axis of `[B, S, D]`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        self.forward_kv(bind, x, x)
    }

    /// Cross-attention: queries from `q_in` `[B, Sq, D]`, keys/values from
    /// `kv_in` `[B, Sk, D]`. Output `[B, Sq, D]`.
    pub fn forward_kv(&self, bind: &dyn Binder, q_in: &Var, kv_in: &Var) -> Var {
        let tape = bind.tape();
        assert_eq!(kv_in.dims()[0], q_in.dims()[0], "batch mismatch");
        // A TP shard enters its region once per distinct input, so
        // self-attention issues one `f` for Q, K and V.
        let qf = self.wo.tp_enter(tape, q_in);
        let kvf = if q_in.id() == kv_in.id() {
            qf.clone()
        } else {
            self.wo.tp_enter(tape, kv_in)
        };
        let q = self.split_heads(bind, &self.wq.forward(bind, &qf));
        let k = self.split_heads(bind, &self.wk.forward(bind, &kvf));
        let v = self.split_heads(bind, &self.wv.forward(bind, &kvf));
        self.wo.forward(bind, &self.attend(bind, &q, &k, &v))
    }

    /// Split-head queries `[B·H, Sq, dh]` against split-head keys/values
    /// `[B·H, Sk, dh]`: the merged context `[B, Sq, inner]` for `wo`.
    /// Sequence parallelism calls it with local queries, gathered K/V.
    pub fn attend(&self, bind: &dyn Binder, q: &Var, k: &Var, v: &Var) -> Var {
        let tape = bind.tape();

        // Flash attention: one tape node, tiled online softmax, O(S) memory
        // — the `[B·H, Sq, Sk]` score matrix never materializes and the
        // 1/√d factor rides in the tile GEMM packing.
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let ctx = tape.flash_attention(q, k, v, scale); // [B·H, Sq, dh]

        // Debug-only parity path: the naive composition (which *does*
        // materialize the score matrix) must agree to 1e-4 on every shape
        // the model ever runs. It is a check, not part of the model, so
        // its buffers are not charged to the device's memory counter.
        #[cfg(debug_assertions)]
        {
            use dchag_tensor::device::set_tracker;
            let tracker = set_tracker(None);
            let want = dchag_tensor::ops::naive_attention(q.value(), k.value(), v.value(), scale);
            let diff = ctx.value().max_abs_diff(&want);
            set_tracker(tracker);
            debug_assert!(
                diff <= 1e-4,
                "flash attention diverged from naive composition by {diff}"
            );
        }

        self.merge_heads(bind, &ctx, q.dims()[0] / self.heads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::autograd::check::grad_check;

    fn mha(dim: usize, heads: usize) -> (ParamStore, MultiHeadAttention, Rng) {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(7);
        let m = MultiHeadAttention::new(&mut store, &mut rng, "attn", dim, heads);
        (store, m, rng)
    }

    #[test]
    fn self_attention_shape_preserved() {
        let (store, m, mut rng) = mha(16, 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, 5, 16], 1.0, &mut rng));
        let y = m.forward(&bind, &x);
        assert_eq!(y.dims(), &[2, 5, 16]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn cross_attention_output_follows_query_length() {
        let (store, m, mut rng) = mha(16, 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let q = tape.leaf(Tensor::randn([2, 3, 16], 1.0, &mut rng));
        let kv = tape.leaf(Tensor::randn([2, 9, 16], 1.0, &mut rng));
        let y = m.forward_kv(&bind, &q, &kv);
        assert_eq!(y.dims(), &[2, 3, 16]);
    }

    #[test]
    fn permutation_of_kv_tokens_is_equivariant_for_uniform_values() {
        // With identical K/V tokens, attention output is independent of Sk
        // ordering; stronger: for *any* kv permutation, output is unchanged
        // because softmax-weighted sums are permutation invariant.
        let (store, m, mut rng) = mha(8, 2);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let q = tape.leaf(Tensor::randn([1, 2, 8], 1.0, &mut rng));
        let kv_data = Tensor::randn([1, 4, 8], 1.0, &mut rng);
        let kv = tape.leaf(kv_data.clone());
        let y1 = m.forward_kv(&bind, &q, &kv);

        // permute tokens 0..4 -> [2,0,3,1]
        let perm = [2usize, 0, 1, 3];
        let mut permuted = vec![0.0; 32];
        for (i, &pi) in perm.iter().enumerate() {
            permuted[i * 8..(i + 1) * 8].copy_from_slice(&kv_data.data()[pi * 8..(pi + 1) * 8]);
        }
        let kv2 = tape.leaf(Tensor::from_vec(permuted, [1, 4, 8]));
        let y2 = m.forward_kv(&bind, &q, &kv2);
        assert!(y1.value().max_abs_diff(y2.value()) < 1e-5);
    }

    #[test]
    fn attention_gradcheck_small() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(3);
        let m = MultiHeadAttention::new(&mut store, &mut rng, "a", 4, 2);
        let x0 = Tensor::randn([1, 3, 4], 0.5, &mut rng);
        grad_check(
            &[x0],
            |tape, leaves| {
                let bind = LocalBinder::new(tape, &store);
                let y = m.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn long_nontile_sequence_exercises_flash_tiling() {
        // 130 tokens spans three Q/K tiles with a ragged tail; the
        // debug-assert parity path inside forward_kv checks the flash
        // kernel against the naive composition on this shape.
        let (store, m, mut rng) = mha(16, 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([1, 130, 16], 1.0, &mut rng));
        let y = m.forward(&bind, &x);
        assert_eq!(y.dims(), &[1, 130, 16]);
        assert!(y.value().all_finite());
        // Backward through the fused node must produce a finite input grad.
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        assert!(grads.get(&x).unwrap().all_finite());
    }

    #[test]
    fn tp_sharded_geometry_allowed() {
        // Rank 1 of a 2-way group holds 2 of 4 logical heads: inner = 8 <
        // dim = 16. The stand-in group never communicates, so only the
        // geometry is under test here; dchag_parallel checks the numerics.
        struct Detached;
        impl TpGroup for Detached {
            fn rank(&self) -> usize {
                1
            }
            fn size(&self) -> usize {
                2
            }
            fn f(&self, _: &Tape, x: &Var) -> Var {
                x.clone()
            }
            fn g(&self, _: &Tape, x: &Var) -> Var {
                x.clone()
            }
        }
        let group: Arc<dyn TpGroup> = Arc::new(Detached);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let m = MultiHeadAttention::sharded(&mut store, &mut rng, "a", 16, 4, &group);
        assert_eq!((m.heads, m.head_dim, m.wq.out_dim), (2, 4, 8));
        assert_eq!(m.wo.in_dim, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([1, 3, 16], 1.0, &mut rng));
        let y = m.forward(&bind, &x);
        assert_eq!(y.dims(), &[1, 3, 16]);
    }
}
