//! Sequence parallelism (paper §3.5).
//!
//! The paper argues D-CHAG composes with SP because SP "could operate on
//! the same model segments — just before the self-attention layers — to
//! distribute sequence length". This module implements that substrate:
//! each rank owns `P/sp` of the spatial tokens; LayerNorm and MLP run on
//! the local shard, and attention gathers the full sequence for keys and
//! values while keeping only local queries. Attention runs the model's
//! flash kernel ([`dchag_model::MultiHeadAttention::attend`]), so no rank
//! ever stores a `[P/sp, P]` score matrix.
//!
//! Parameters are fully replicated (SP shards *activations*, not weights);
//! gradient equivalence therefore requires an AllReduce of parameter
//! gradients at the end of the step, which [`SpGradSync`] provides —
//! bucketed like DP, because it is mathematically the same reduction.

use dchag_collectives::Communicator;
use dchag_tensor::prelude::*;

use dchag_model::{LayerNorm, TransformerBlock, ViTEncoder};

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

/// The model's pre-LN transformer block run sequence-parallel: replicated
/// parameters, sharded tokens. Attention queries stay local; keys/values
/// are gathered.
pub struct SpBlock(pub TransformerBlock);

impl SpBlock {
    /// `x: [B, S/sp, D] -> [B, S/sp, D]` (token-sharded in and out).
    ///
    /// Q/K/V are projected from the *local* tokens and only the projected
    /// K/V are gathered — so every weight sees each token exactly once and
    /// parameter gradients sum correctly across the SP group.
    pub fn forward(&self, bind: &dyn Binder, comm: &Communicator, x: &Var) -> Var {
        let tape = bind.tape();
        let TransformerBlock {
            ln1,
            attn,
            ln2,
            mlp,
        } = &self.0;

        let h = ln1.forward(bind, x);
        let q = attn.split_heads(bind, &attn.wq.forward(bind, &h)); // [B·H, S/sp, dh]

        // K/V feed every rank's queries: gather with a reduce-scatter
        // adjoint so cross-rank gradient contributions come home. K's
        // gather is issued nonblocking so its chunk pipeline runs under the
        // V projection's GEMM (and V's under K's head split).
        let k_pending = issue_all_gather_rs(comm, &attn.wk.forward(bind, &h), 1);
        let v_pending = issue_all_gather_rs(comm, &attn.wv.forward(bind, &h), 1);
        let k = attn.split_heads(bind, &k_pending.wait(tape)); // [B·H, S, dh]
        let v = attn.split_heads(bind, &v_pending.wait(tape));

        // Local queries against the full sequence, through the model's own
        // flash path: no `[S/sp, S]` score matrix is ever stored.
        let ctx = attn.attend(bind, &q, &k, &v); // [B, S/sp, inner]
        let a = attn.wo.forward(bind, &ctx);
        let x = tape.add(x, &a);

        // MLP is pointwise over tokens: fully local.
        let m = mlp.forward(bind, &ln2.forward(bind, &x));
        tape.add(&x, &m)
    }
}

/// The model's ViT encoder run sequence-parallel (replicated weights,
/// sharded tokens).
pub struct SpViT {
    pub blocks: Vec<SpBlock>,
    pub ln_f: LayerNorm,
}

impl From<ViTEncoder> for SpViT {
    fn from(vit: ViTEncoder) -> Self {
        SpViT {
            blocks: vit.blocks.into_iter().map(SpBlock).collect(),
            ln_f: vit.ln_f,
        }
    }
}

impl SpViT {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;

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
                let vit = ViTEncoder::new(&mut store, &mut rng, "vit", dim, depth, heads, dim * 2);
                let vit = SpViT::from(vit);
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
            let vit = ViTEncoder::new(&mut store, &mut rng, "vit", dim, depth, heads, dim * 2);
            let vit = SpViT::from(vit);
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
    fn attention_peak_stays_below_the_unfused_score_matrix() {
        // An unfused attention chain stores a `[B·H, Sq, Sk]` score matrix
        // (and scaled and softmaxed copies). At S = 256 and eight sequences
        // that one matrix outweighs every activation of a narrow block plus
        // the flash kernel's fixed tile workspace, so a forward and backward
        // that peaks below it never built one. Checked for a head-sharded
        // block (w=2: two of four heads, Sq = Sk = S) and an SP block (all
        // four heads, Sq = S/2 local queries, Sk = S gathered keys).
        const S: usize = 256;
        fn peak_above_start(ctx: &dchag_collectives::RankCtx, run: impl FnOnce()) -> usize {
            let start = ctx.mem.current();
            ctx.mem.reset_peak();
            run();
            ctx.mem.peak() - start
        }
        let run = run_ranks(2, |ctx| {
            let (batch, dim, heads) = (8usize, 4usize, 4usize);
            let x = Tensor::randn([batch, S, dim], 1.0, &mut Rng::new(1));
            let mut store = ParamStore::new();
            let mut rng = Rng::new(7);
            let group = crate::tp::tp_group(&ctx.comm);
            let tp = TransformerBlock::sharded(&mut store, &mut rng, "tp", dim, heads, 8, &group);
            let sp = SpBlock(TransformerBlock::new(
                &mut store, &mut rng, "sp", dim, heads, 8,
            ));
            let tp_peak = peak_above_start(&ctx, || {
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let y = tp.forward(&bind, &tape.leaf(x.clone()));
                let _ = tape.backward(&tape.sum_all(&y));
            });
            let sp_peak = peak_above_start(&ctx, || {
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let local = scatter_sequence(&tape, &ctx.comm, &tape.leaf(x.clone()));
                let y = sp.forward(&bind, &ctx.comm, &local);
                let _ = tape.backward(&tape.sum_all(&y));
            });
            let f32s = std::mem::size_of::<f32>();
            let tp_scores = batch * (heads / 2) * S * S * f32s;
            let sp_scores = batch * heads * (S / 2) * S * f32s;
            (tp_peak, tp_scores, sp_peak, sp_scores)
        });
        for (tp_peak, tp_scores, sp_peak, sp_scores) in run.outputs {
            assert!(
                tp_peak < tp_scores,
                "TP block peaked {tp_peak} B, score matrix {tp_scores} B"
            );
            assert!(
                sp_peak < sp_scores,
                "SP block peaked {sp_peak} B, score matrix {sp_scores} B"
            );
        }
    }
}
