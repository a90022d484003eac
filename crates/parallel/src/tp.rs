//! Megatron-style tensor parallelism (the paper's baseline, §4.3).
//!
//! Column-parallel linears shard the output dimension; row-parallel linears
//! shard the input dimension and AllReduce their partial products (the `g`
//! op). Attention shards whole heads. The embedding axis of the final
//! shared cross-attention aggregator is sharded the same way (paper §3.3).
//!
//! Construction draws the *full* weights from the same seeded stream as the
//! single-device modules and then slices the local shard, so a TP model is
//! numerically identical to its baseline — asserted by the equivalence
//! tests.

#![allow(clippy::too_many_arguments)] // constructors mirror (store, rng, name, dims…, rank, tp)

use dchag_collectives::Communicator;
use dchag_tensor::prelude::*;
use dchag_tensor::{init, ops};

use dchag_model::layers::LayerNorm;

use crate::comm_ops::{tp_f, tp_g};

/// Slice columns `[in, out_full] -> [in, out_local]` for `rank` of `n`.
fn column_shard(full: &Tensor, rank: usize, n: usize) -> Tensor {
    let out = full.dims()[1];
    assert!(
        out.is_multiple_of(n),
        "column dim {out} not divisible by TP size {n}"
    );
    ops::slice(full, 1, rank * (out / n), out / n)
}

/// Slice rows `[in_full, out] -> [in_local, out]` for `rank` of `n`.
fn row_shard(full: &Tensor, rank: usize, n: usize) -> Tensor {
    let inp = full.dims()[0];
    assert!(
        inp.is_multiple_of(n),
        "row dim {inp} not divisible by TP size {n}"
    );
    ops::slice(full, 0, rank * (inp / n), inp / n)
}

/// Column-parallel linear: holds `[in, out/T]`; output is this rank's shard
/// of the activation.
pub struct ColumnParallelLinear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_local: usize,
}

impl ColumnParallelLinear {
    /// Draws the full `[in, out_full]` weight from `rng` (same stream as the
    /// baseline `Linear`) and keeps the local shard.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_full: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        let full = init::xavier_uniform(in_dim, out_full, rng);
        let w = store.add(format!("{name}.w"), column_shard(&full, rank, tp));
        let b = store.add(format!("{name}.b"), Tensor::zeros([out_full / tp]));
        ColumnParallelLinear {
            w,
            b,
            in_dim,
            out_local: out_full / tp,
        }
    }

    /// `[.., in] -> [.., out/T]` (input replicated, output sharded).
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let y = tape.matmul(x, &bind.bind(self.w));
        tape.add_bias(&y, &bind.bind(self.b))
    }
}

/// Row-parallel linear: holds `[in/T, out]`; input is sharded, output is
/// AllReduced (the `g` op) and the bias added once, replicated.
pub struct RowParallelLinear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_local: usize,
    pub out_dim: usize,
}

impl RowParallelLinear {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_full: usize,
        out_dim: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        let full = init::xavier_uniform(in_full, out_dim, rng);
        let w = store.add(format!("{name}.w"), row_shard(&full, rank, tp));
        let b = store.add(format!("{name}.b"), Tensor::zeros([out_dim]));
        RowParallelLinear {
            w,
            b,
            in_local: in_full / tp,
            out_dim,
        }
    }

    /// `[.., in/T] -> [.., out]` (AllReduce inside).
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let partial = tape.matmul(x, &bind.bind(self.w));
        let full = tp_g(tape, comm, &partial);
        tape.add_bias(&full, &bind.bind(self.b))
    }
}

/// Head-sharded multi-head attention: each TP rank computes `heads/T` heads.
pub struct TpAttention {
    pub wq: ColumnParallelLinear,
    pub wk: ColumnParallelLinear,
    pub wv: ColumnParallelLinear,
    pub wo: RowParallelLinear,
    pub local_heads: usize,
    pub head_dim: usize,
    pub dim: usize,
}

impl TpAttention {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        assert!(
            heads.is_multiple_of(tp),
            "heads {heads} not divisible by TP {tp}"
        );
        assert!(dim.is_multiple_of(heads));
        let head_dim = dim / heads;
        TpAttention {
            wq: ColumnParallelLinear::new(store, rng, &format!("{name}.wq"), dim, dim, rank, tp),
            wk: ColumnParallelLinear::new(store, rng, &format!("{name}.wk"), dim, dim, rank, tp),
            wv: ColumnParallelLinear::new(store, rng, &format!("{name}.wv"), dim, dim, rank, tp),
            wo: RowParallelLinear::new(store, rng, &format!("{name}.wo"), dim, dim, rank, tp),
            local_heads: heads / tp,
            head_dim,
            dim,
        }
    }

    fn split_heads(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (b, s) = (x.dims()[0], x.dims()[1]);
        let r = tape.reshape(x, &[b, s, self.local_heads, self.head_dim]);
        let sw = tape.swap_axes12(&r);
        tape.reshape(&sw, &[b * self.local_heads, s, self.head_dim])
    }

    fn merge_heads(&self, bind: &dyn Binder, x: &Var, b: usize) -> Var {
        let tape = bind.tape();
        let s = x.dims()[1];
        let r = tape.reshape(x, &[b, self.local_heads, s, self.head_dim]);
        let sw = tape.swap_axes12(&r);
        tape.reshape(&sw, &[b, s, self.local_heads * self.head_dim])
    }

    /// Self-attention `[B,S,D] -> [B,S,D]`; `x` replicated on entry, output
    /// replicated on exit.
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        self.forward_kv(bind, comm, x, x)
    }

    /// Cross-attention with separate query/key-value streams.
    pub fn forward_kv(
        &self,
        bind: &dyn Binder,
        comm: &Communicator,
        q_in: &Var,
        kv_in: &Var,
    ) -> Var {
        let tape = bind.tape();
        let b = q_in.dims()[0];

        let qf = tp_f(tape, comm, q_in);
        let kvf = if q_in.id() == kv_in.id() {
            qf.clone()
        } else {
            tp_f(tape, comm, kv_in)
        };

        let q = self.split_heads(bind, &self.wq.forward(bind, &qf));
        let k = self.split_heads(bind, &self.wk.forward(bind, &kvf));
        let v = self.split_heads(bind, &self.wv.forward(bind, &kvf));

        let scores = tape.bmm_nt(&q, &k);
        let scaled = tape.scale(&scores, 1.0 / (self.head_dim as f32).sqrt());
        let attn = tape.softmax_last(&scaled);
        let ctx = tape.bmm(&attn, &v);

        let merged = self.merge_heads(bind, &ctx, b);
        self.wo.forward(bind, comm, &merged)
    }
}

/// Tensor-parallel MLP: column fc1, GELU, row fc2.
pub struct TpMlp {
    pub fc1: ColumnParallelLinear,
    pub fc2: RowParallelLinear,
}

impl TpMlp {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        hidden: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        TpMlp {
            fc1: ColumnParallelLinear::new(
                store,
                rng,
                &format!("{name}.fc1"),
                dim,
                hidden,
                rank,
                tp,
            ),
            fc2: RowParallelLinear::new(store, rng, &format!("{name}.fc2"), hidden, dim, rank, tp),
        }
    }

    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let xf = tp_f(tape, comm, x);
        let h = self.fc1.forward(bind, &xf);
        let h = tape.gelu(&h);
        self.fc2.forward(bind, comm, &h)
    }
}

/// Tensor-parallel pre-LN transformer block (LayerNorms replicated).
pub struct TpBlock {
    pub ln1: LayerNorm,
    pub attn: TpAttention,
    pub ln2: LayerNorm,
    pub mlp: TpMlp,
}

impl TpBlock {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        TpBlock {
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), dim),
            attn: TpAttention::new(store, rng, &format!("{name}.attn"), dim, heads, rank, tp),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), dim),
            mlp: TpMlp::new(
                store,
                rng,
                &format!("{name}.mlp"),
                dim,
                mlp_hidden,
                rank,
                tp,
            ),
        }
    }

    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let a = self.attn.forward(bind, comm, &self.ln1.forward(bind, x));
        let x = tape.add(x, &a);
        let m = self.mlp.forward(bind, comm, &self.ln2.forward(bind, &x));
        tape.add(&x, &m)
    }
}

/// Tensor-parallel ViT encoder, drop-in parallel to
/// [`dchag_model::ViTEncoder`].
pub struct TpViT {
    pub blocks: Vec<TpBlock>,
    pub ln_f: LayerNorm,
}

impl TpViT {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        depth: usize,
        heads: usize,
        mlp_hidden: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        let blocks = (0..depth)
            .map(|i| {
                TpBlock::new(
                    store,
                    rng,
                    &format!("{name}.blk{i}"),
                    dim,
                    heads,
                    mlp_hidden,
                    rank,
                    tp,
                )
            })
            .collect();
        TpViT {
            blocks,
            ln_f: LayerNorm::new(store, &format!("{name}.ln_f"), dim),
        }
    }

    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let mut h = x.clone();
        for blk in &self.blocks {
            h = blk.forward(bind, comm, &h);
        }
        self.ln_f.forward(bind, &h)
    }
}

/// Tensor-parallel version of the final cross-attention channel aggregator
/// (the shared layer of D-CHAG, embedding-sharded per paper §3.3).
pub struct TpCrossAttnAggregator {
    pub ln: LayerNorm,
    pub attn: TpAttention,
    pub pool_w: ParamId,
    pub in_channels: usize,
    pub dim: usize,
}

impl TpCrossAttnAggregator {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_channels: usize,
        dim: usize,
        heads: usize,
        rank: usize,
        tp: usize,
    ) -> Self {
        let ln = LayerNorm::new(store, &format!("{name}.ln"), dim);
        let attn = TpAttention::new(store, rng, &format!("{name}.attn"), dim, heads, rank, tp);
        let pool_w = store.add(format!("{name}.pool_w"), init::xavier_uniform(dim, 1, rng));
        TpCrossAttnAggregator {
            ln,
            attn,
            pool_w,
            in_channels,
            dim,
        }
    }

    /// `[N, C, D] -> [N, D]`, same math as the baseline aggregator.
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let (n, c, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(c, self.in_channels);
        let h = self.ln.forward(bind, x);
        let a = self.attn.forward(bind, comm, &h);
        let y = tape.add(x, &a);
        let logits = tape.matmul(&y, &bind.bind(self.pool_w));
        let logits = tape.reshape(&logits, &[n, c]);
        let weights = tape.softmax_last(&logits);
        let weights = tape.reshape(&weights, &[n, 1, c]);
        let pooled = tape.bmm(&weights, &y);
        tape.reshape(&pooled, &[n, d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_model::{CrossAttnAggregator, ViTEncoder};

    /// Baseline forward of a ViT encoder for comparison.
    fn baseline_vit(seed: u64, dim: usize, depth: usize, heads: usize, x: &Tensor) -> Tensor {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(seed);
        let vit = ViTEncoder::new(&mut store, &mut rng, "vit", dim, depth, heads, dim * 2);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        vit.forward(&bind, &xv).value().clone()
    }

    #[test]
    fn tp_vit_matches_baseline_forward() {
        let mut rng = Rng::new(100);
        let x = Tensor::randn([2, 5, 16], 1.0, &mut rng);
        let want = baseline_vit(7, 16, 2, 4, &x);
        for tp in [1usize, 2, 4] {
            let x = x.clone();
            let want = want.clone();
            let run = run_ranks(tp, move |ctx| {
                let mut store = ParamStore::new();
                let mut rng = Rng::new(7);
                let vit = TpViT::new(
                    &mut store,
                    &mut rng,
                    "vit",
                    16,
                    2,
                    4,
                    32,
                    ctx.comm.rank(),
                    ctx.comm.size(),
                );
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let xv = tape.leaf(x.clone());
                let y = vit.forward(&bind, &ctx.comm, &xv);
                y.value().rel_l2_diff(&want)
            });
            for d in run.outputs {
                assert!(d < 1e-4, "tp={tp}: rel diff {d}");
            }
        }
    }

    #[test]
    fn tp_input_gradient_matches_baseline() {
        let mut rng = Rng::new(200);
        let x = Tensor::randn([1, 4, 16], 0.7, &mut rng);
        // Random linear readout: Σ y⊙r. (Σ y² would be degenerate — the
        // final LayerNorm makes every row's Σŷ² constant, so its gradient
        // is ~0 and comparisons drown in fp noise.)
        let r = Tensor::randn([1, 4, 16], 1.0, &mut rng);

        // baseline grad
        let mut store = ParamStore::new();
        let mut brng = Rng::new(9);
        let vit = ViTEncoder::new(&mut store, &mut brng, "vit", 16, 1, 2, 32);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        let y = vit.forward(&bind, &xv);
        let rv = tape.leaf(r.clone());
        let loss = tape.sum_all(&tape.mul(&y, &rv));
        let want = tape.backward(&loss).get(&xv).unwrap().clone();
        assert!(want.max_abs() > 1e-3, "readout must be non-degenerate");

        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(9);
            let vit = TpViT::new(
                &mut store,
                &mut rng,
                "vit",
                16,
                1,
                2,
                32,
                ctx.comm.rank(),
                ctx.comm.size(),
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            let y = vit.forward(&bind, &ctx.comm, &xv);
            let rv = tape.leaf(r.clone());
            let loss = tape.sum_all(&tape.mul(&y, &rv));
            let g = tape.backward(&loss).get(&xv).unwrap().clone();
            g.rel_l2_diff(&want)
        });
        for d in run.outputs {
            assert!(d < 1e-3, "grad rel diff {d}");
        }
    }

    #[test]
    fn tp_weight_shards_tile_the_full_matrix() {
        // Two ranks' column shards concatenated must equal the full init.
        let mut rng_full = Rng::new(42);
        let full = init::xavier_uniform(8, 12, &mut rng_full);
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(42);
            let lin = ColumnParallelLinear::new(
                &mut store,
                &mut rng,
                "l",
                8,
                12,
                ctx.comm.rank(),
                ctx.comm.size(),
            );
            store.get(lin.w).to_vec()
        });
        let shard0 = Tensor::from_vec(run.outputs[0].clone(), [8, 6]);
        let shard1 = Tensor::from_vec(run.outputs[1].clone(), [8, 6]);
        let tiled = ops::concat(&[&shard0, &shard1], 1);
        assert_eq!(tiled.to_vec(), full.to_vec());
    }

    #[test]
    fn tp_aggregator_matches_baseline() {
        let mut rng = Rng::new(300);
        let x = Tensor::randn([6, 4, 16], 1.0, &mut rng);

        let mut store = ParamStore::new();
        let mut brng = Rng::new(11);
        let agg = CrossAttnAggregator::new(&mut store, &mut brng, "agg", 4, 16, 4);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        let want = agg.forward(&bind, &xv).value().clone();

        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(11);
            let agg = TpCrossAttnAggregator::new(
                &mut store,
                &mut rng,
                "agg",
                4,
                16,
                4,
                ctx.comm.rank(),
                ctx.comm.size(),
            );
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            agg.forward(&bind, &ctx.comm, &xv)
                .value()
                .rel_l2_diff(&want)
        });
        for d in run.outputs {
            assert!(d < 1e-4, "agg rel diff {d}");
        }
    }

    #[test]
    fn tp_shards_reduce_per_rank_params() {
        let count = |tp: usize| {
            let run = run_ranks(tp, move |ctx| {
                let mut store = ParamStore::new();
                let mut rng = Rng::new(1);
                let _ = TpViT::new(
                    &mut store,
                    &mut rng,
                    "v",
                    32,
                    2,
                    4,
                    64,
                    ctx.comm.rank(),
                    ctx.comm.size(),
                );
                store.num_params()
            });
            run.outputs[0]
        };
        let p1 = count(1);
        let p2 = count(2);
        // matrix params halve; LN/bias params replicate
        assert!(p2 < p1 && p2 > p1 / 2, "p1={p1} p2={p2}");
    }
}
