//! Sequence parallelism (paper §3.5).
//!
//! The paper argues D-CHAG composes with SP because SP "could operate on
//! the same model segments — just before the self-attention layers — to
//! distribute sequence length". This module implements that substrate:
//! each rank owns `P/sp` of the spatial tokens; LayerNorm and MLP run on
//! the local shard, and attention gathers the full sequence for keys and
//! values while keeping only local queries (so the score matrix is
//! `[P/sp, P]` per rank — sequence memory is sharded).
//!
//! Parameters are fully replicated (SP shards *activations*, not weights);
//! gradient equivalence therefore requires an AllReduce of parameter
//! gradients at the end of the step, which [`SpGradSync`] provides —
//! bucketed like DP, because it is mathematically the same reduction.

use dchag_collectives::Communicator;
use dchag_tensor::prelude::*;

use dchag_model::vit::TransformerBlock;

use crate::comm_ops::{all_gather_cat, issue_all_gather_rs};

/// Slice this rank's token shard out of a replicated `[B, S, D]` sequence.
pub fn scatter_sequence(tape: &Tape, comm: &Communicator, x: &Var) -> Var {
    let n = comm.size();
    let s = x.dims()[1];
    assert!(
        s.is_multiple_of(n),
        "sequence {s} not divisible by SP size {n}"
    );
    let per = s / n;
    tape.slice(x, 1, comm.rank() * per, per)
}

/// Reassemble the full `[B, S, D]` sequence from shards (AllGather on the
/// token axis; backward = local slice, no communication).
pub fn gather_sequence(tape: &Tape, comm: &Communicator, x: &Var) -> Var {
    all_gather_cat(tape, comm, x, 1)
}

/// A sequence-parallel pre-LN transformer block: replicated parameters,
/// sharded tokens. Attention queries stay local; keys/values are gathered.
pub struct SpBlock {
    pub inner: TransformerBlock,
}

impl SpBlock {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        heads: usize,
        mlp_hidden: usize,
    ) -> Self {
        SpBlock {
            inner: TransformerBlock::new(store, rng, name, dim, heads, mlp_hidden),
        }
    }

    /// `x: [B, S/sp, D] -> [B, S/sp, D]` (token-sharded in and out).
    ///
    /// Q/K/V are projected from the *local* tokens and only the projected
    /// K/V are gathered — so every weight sees each token exactly once and
    /// parameter gradients sum correctly across the SP group.
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let attn = &self.inner.attn;
        let (b, _s_local) = (x.dims()[0], x.dims()[1]);
        let (heads, dh) = (attn.heads, attn.head_dim);

        let h = self.inner.ln1.forward(bind, x);
        let q = attn.wq.forward(bind, &h); // [B, S/sp, inner]
                                           // K/V feed every rank's queries: gather with a reduce-scatter
                                           // adjoint so cross-rank gradient contributions come home. K's
                                           // gather is issued nonblocking so its chunk pipeline runs under the
                                           // V projection's GEMM (and V's under the head-split reshapes).
        let k_pending = issue_all_gather_rs(comm, &attn.wk.forward(bind, &h), 1);
        let v_pending = issue_all_gather_rs(comm, &attn.wv.forward(bind, &h), 1);
        let k = k_pending.wait(tape); // [B, S, inner]
        let v = v_pending.wait(tape);

        // head split: [B, S, H·dh] -> [B·H, S, dh]
        let split = |t: &Var| {
            let s = t.dims()[1];
            let r = tape.reshape(t, &[b, s, heads, dh]);
            let sw = tape.swap_axes12(&r);
            tape.reshape(&sw, &[b * heads, s, dh])
        };
        let (qh, kh, vh) = (split(&q), split(&k), split(&v));
        let scores = tape.bmm_nt(&qh, &kh); // [B·H, S/sp, S]
        let scaled = tape.scale(&scores, 1.0 / (dh as f32).sqrt());
        let probs = tape.softmax_last(&scaled);
        let ctx = tape.bmm(&probs, &vh); // [B·H, S/sp, dh]
        let s_local = ctx.dims()[1];
        let merged = {
            let r = tape.reshape(&ctx, &[b, heads, s_local, dh]);
            let sw = tape.swap_axes12(&r);
            tape.reshape(&sw, &[b, s_local, heads * dh])
        };
        let a = attn.wo.forward(bind, &merged);
        let x = tape.add(x, &a);

        // MLP is pointwise over tokens: fully local.
        let m = self
            .inner
            .mlp
            .forward(bind, &self.inner.ln2.forward(bind, &x));
        tape.add(&x, &m)
    }
}

/// Sequence-parallel ViT encoder (replicated weights, sharded tokens).
pub struct SpViT {
    pub blocks: Vec<SpBlock>,
    pub ln_f: dchag_model::layers::LayerNorm,
}

impl SpViT {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        depth: usize,
        heads: usize,
        mlp_hidden: usize,
    ) -> Self {
        let blocks = (0..depth)
            .map(|i| {
                SpBlock::new(
                    store,
                    rng,
                    &format!("{name}.blk{i}"),
                    dim,
                    heads,
                    mlp_hidden,
                )
            })
            .collect();
        SpViT {
            blocks,
            ln_f: dchag_model::layers::LayerNorm::new(store, &format!("{name}.ln_f"), dim),
        }
    }

    /// Shard a replicated sequence, run all blocks token-parallel, gather
    /// the result back: `[B, S, D] -> [B, S, D]` replicated.
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let mut h = scatter_sequence(tape, comm, x);
        for blk in &self.blocks {
            h = blk.forward(bind, comm, &h);
        }
        let h = self.ln_f.forward(bind, &h);
        gather_sequence(tape, comm, &h)
    }
}

/// Parameter-gradient synchronization for SP (weights are replicated but
/// each rank's backward only sees its token shard's contribution).
pub struct SpGradSync {
    pub comm: Communicator,
}

impl SpGradSync {
    pub fn new(comm: Communicator) -> Self {
        SpGradSync { comm }
    }

    /// Sum gradients across the SP group (one bucketed AllReduce).
    pub fn sync(&self, grads: &mut [Option<dchag_tensor::Tensor>]) {
        crate::dp::all_reduce_flat(&self.comm, grads, 1.0);
    }
}

/// Convenience: is a sequence shardable over this group?
pub fn sp_compatible(seq_len: usize, comm: &Communicator) -> bool {
    seq_len.is_multiple_of(comm.size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_model::ViTEncoder;

    #[test]
    fn scatter_gather_roundtrip() {
        let run = run_ranks(4, |ctx| {
            let tape = Tape::new();
            let mut rng = Rng::new(1);
            let x = tape.leaf(Tensor::randn([2, 8, 4], 1.0, &mut rng));
            let shard = scatter_sequence(&tape, &ctx.comm, &x);
            assert_eq!(shard.dims(), &[2, 2, 4]);
            let back = gather_sequence(&tape, &ctx.comm, &shard);
            back.value().max_abs_diff(x.value())
        });
        for d in run.outputs {
            assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn sp_vit_matches_baseline_forward() {
        let (dim, depth, heads) = (16usize, 2usize, 4usize);
        let mut rng = Rng::new(11);
        let x = Tensor::randn([2, 8, dim], 0.8, &mut rng);

        let mut store = ParamStore::new();
        let mut brng = Rng::new(3);
        let vit = ViTEncoder::new(&mut store, &mut brng, "vit", dim, depth, heads, dim * 2);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        let want = vit.forward(&bind, &xv).value().clone();

        for sp in [2usize, 4] {
            let x = x.clone();
            let want = want.clone();
            let run = run_ranks(sp, move |ctx| {
                let mut store = ParamStore::new();
                let mut rng = Rng::new(3);
                let vit = SpViT::new(&mut store, &mut rng, "vit", dim, depth, heads, dim * 2);
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let xv = tape.leaf(x.clone());
                vit.forward(&bind, &ctx.comm, &xv)
                    .value()
                    .rel_l2_diff(&want)
            });
            for d in run.outputs {
                assert!(d < 1e-4, "sp={sp}: rel diff {d}");
            }
        }
    }

    #[test]
    fn sp_grads_match_baseline_after_sync() {
        let (dim, depth, heads) = (8usize, 1usize, 2usize);
        let mut rng = Rng::new(21);
        let x = Tensor::randn([1, 4, dim], 0.8, &mut rng);
        let r = Tensor::randn([1, 4, dim], 1.0, &mut rng);

        // baseline parameter gradients
        let mut store = ParamStore::new();
        let mut brng = Rng::new(5);
        let vit = ViTEncoder::new(&mut store, &mut brng, "vit", dim, depth, heads, dim * 2);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let xv = tape.leaf(x.clone());
        let y = vit.forward(&bind, &xv);
        let rv = tape.leaf(r.clone());
        let loss = tape.sum_all(&tape.mul(&y, &rv));
        let grads = tape.backward(&loss);
        let want: Vec<Option<Tensor>> = bind.grads(&grads);

        let run = run_ranks(2, move |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(5);
            let vit = SpViT::new(&mut store, &mut rng, "vit", dim, depth, heads, dim * 2);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            let y = vit.forward(&bind, &ctx.comm, &xv);
            let rv = tape.leaf(r.clone());
            let loss = tape.sum_all(&tape.mul(&y, &rv));
            let grads = tape.backward(&loss);
            let mut pg = bind.grads(&grads);
            SpGradSync::new(ctx.comm.clone()).sync(&mut pg);
            // max diff vs baseline over all params
            let mut max = 0.0f32;
            for (g, w) in pg.iter().zip(&want) {
                if let (Some(g), Some(w)) = (g, w) {
                    max = max.max(g.max_abs_diff(w));
                } else {
                    assert_eq!(g.is_some(), w.is_some(), "grad presence mismatch");
                }
            }
            max
        });
        for d in run.outputs {
            assert!(d < 1e-3, "param grad diff {d}");
        }
    }

    #[test]
    fn sp_score_memory_is_sharded() {
        // the attention score matrix per rank is [S/sp, S], not [S, S] —
        // verified through the gathered kv length vs local q length.
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(7);
            let blk = SpBlock::new(&mut store, &mut rng, "b", 8, 2, 16);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let x = tape.leaf(Tensor::randn([1, 3, 8], 1.0, &mut Rng::new(1)));
            let y = blk.forward(&bind, &ctx.comm, &x);
            y.dims().to_vec()
        });
        // local shard length preserved
        for d in run.outputs {
            assert_eq!(d, vec![1, 3, 8]);
        }
    }

    #[test]
    fn sp_compatibility_check() {
        let run = run_ranks(4, |ctx| {
            (sp_compatible(16, &ctx.comm), sp_compatible(18, &ctx.comm))
        });
        for (ok, bad) in run.outputs {
            assert!(ok);
            assert!(!bad);
        }
    }
}
