//! Megatron-style tensor parallelism (the paper's baseline, §4.3).
//!
//! TP is a construction-time shard of the model's own modules: the
//! `sharded` constructors of `dchag_model`'s attention, MLP, transformer
//! block, ViT encoder and cross-attention aggregator split heads and the
//! MLP hidden width across the group (column-parallel Q/K/V and `fc1`,
//! row-parallel `wo` and `fc2`). They draw the *full* weights from the
//! single-device stream and keep the local slice, so a TP model is
//! numerically its baseline, as the tests below assert. This module hands
//! them the group: a communicator whose `f`/`g` are [`crate::comm_ops`]'s.

use std::sync::Arc;

use dchag_collectives::Communicator;
use dchag_model::TpGroup;
use dchag_tensor::{Tape, Var};

use crate::comm_ops::{tp_f, tp_g};

/// A communicator in the role of a TP group. (A newtype: neither the trait
/// nor `Communicator` belongs to this crate.)
struct TpComm(Communicator);

impl TpGroup for TpComm {
    fn rank(&self) -> usize {
        self.0.rank()
    }

    fn size(&self) -> usize {
        self.0.size()
    }

    fn f(&self, tape: &Tape, x: &Var) -> Var {
        tp_f(tape, &self.0, x)
    }

    fn g(&self, tape: &Tape, x: &Var) -> Var {
        tp_g(tape, &self.0, x)
    }
}

/// The TP group the model's `sharded` constructors take: modules shard
/// over `comm`'s ranks and run their `f`/`g` collectives on it.
pub fn tp_group(comm: &Communicator) -> Arc<dyn TpGroup> {
    Arc::new(TpComm(comm.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_model::{CrossAttnAggregator, Linear, TransformerBlock, ViTEncoder};
    use dchag_tensor::prelude::*;
    use dchag_tensor::{init, ops};

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
                let group = tp_group(&ctx.comm);
                let vit = ViTEncoder::sharded(&mut store, &mut rng, "vit", 16, 2, 4, 32, &group);
                let tape = Tape::new();
                let bind = LocalBinder::new(&tape, &store);
                let xv = tape.leaf(x.clone());
                let y = vit.forward(&bind, &xv);
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
            let group = tp_group(&ctx.comm);
            let vit = ViTEncoder::sharded(&mut store, &mut rng, "vit", 16, 1, 2, 32, &group);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            let y = vit.forward(&bind, &xv);
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
        // Two ranks' column shards concatenated must equal the full init,
        // and so must their row shards stacked.
        let mut rng_full = Rng::new(42);
        let full = init::xavier_uniform(8, 12, &mut rng_full);
        let run = run_ranks(2, |ctx| {
            let group = tp_group(&ctx.comm);
            let mut store = ParamStore::new();
            let col = Linear::column_parallel(&mut store, &mut Rng::new(42), "c", 8, 12, &group);
            let row = Linear::row_parallel(&mut store, &mut Rng::new(42), "r", 8, 12, &group);
            assert_eq!((col.out_dim, row.in_dim), (6, 4));
            (store.get(col.w).clone(), store.get(row.w).clone())
        });
        let [(c0, r0), (c1, r1)] = [run.outputs[0].clone(), run.outputs[1].clone()];
        assert_eq!(ops::concat(&[&c0, &c1], 1).to_vec(), full.to_vec());
        assert_eq!(ops::concat(&[&r0, &r1], 0).to_vec(), full.to_vec());
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
            let group = tp_group(&ctx.comm);
            let agg = CrossAttnAggregator::sharded(&mut store, &mut rng, "agg", 4, 16, 4, &group);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let xv = tape.leaf(x.clone());
            agg.forward(&bind, &xv).value().rel_l2_diff(&want)
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
                let group = tp_group(&ctx.comm);
                let _ = ViTEncoder::sharded(&mut store, &mut rng, "v", 32, 2, 4, 64, &group);
                store.num_params()
            });
            run.outputs[0]
        };
        let p1 = count(1);
        let p2 = count(2);
        // matrix params halve; LN/bias params replicate
        assert!(p2 < p1 && p2 > p1 / 2, "p1={p1} p2={p2}");
    }

    #[test]
    fn tp_block_issues_one_f_and_one_g_per_sublayer() {
        // Attention enters its TP region once for Q, K and V; each
        // sublayer leaves it once. So a block costs two AllReduces forward
        // (the `g`s) and two backward (the `f`s). Group rank 0 logs every
        // collective as it issues it, so its own cursors bracket exactly
        // its own calls.
        use dchag_collectives::CollOp;
        let run = run_ranks(2, |ctx| {
            let mut store = ParamStore::new();
            let mut rng = Rng::new(3);
            let group = tp_group(&ctx.comm);
            let blk = TransformerBlock::sharded(&mut store, &mut rng, "b", 16, 4, 32, &group);
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let x = tape.leaf(Tensor::randn([1, 4, 16], 1.0, &mut Rng::new(2)));
            let reduces = |from| {
                ctx.comm
                    .traffic()
                    .since(from)
                    .iter()
                    .filter(|e| e.op == CollOp::AllReduce)
                    .count()
            };
            let start = ctx.comm.traffic().cursor();
            let y = blk.forward(&bind, &x);
            let fwd = reduces(start);
            let mid = ctx.comm.traffic().cursor();
            let _ = tape.backward(&tape.sum_all(&y));
            (fwd, reduces(mid))
        });
        assert_eq!(run.outputs[0], (2, 2));
    }
}
