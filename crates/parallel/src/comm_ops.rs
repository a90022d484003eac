//! Autograd-integrated collectives.
//!
//! These register communication as differentiable tape nodes with
//! hand-written adjoints:
//!
//! * [`tp_f`] / [`tp_g`] — the Megatron conjugate pair. `f` is identity
//!   forward / AllReduce backward (entering a column-parallel region);
//!   `g` is AllReduce forward / identity backward (leaving a row-parallel
//!   region).
//! * [`all_gather_cat`] — AllGather forward; the backward is a **local
//!   slice, no collective** (paper §3.3: "during the backward pass, we
//!   gather only the relevant gradients for each GPU, avoiding any
//!   additional communication"). The traffic log proves this in tests.
//! * [`issue_all_gather_cat`] / [`issue_all_gather_rs`] — the nonblocking
//!   split of the above: issue the gather now, keep recording compute on
//!   the tape, and [`PendingGatherVar::wait`] where the value is needed.
//!   The sequence-parallel block uses this to hide the K gather under the V
//!   projection's GEMM.

use dchag_collectives::{CommRequest, Communicator};
use dchag_tensor::ops;
use dchag_tensor::{Tape, Var};

/// Backward rule of a pending gather.
#[derive(Clone, Copy)]
enum GatherAdjoint {
    /// Local slice, no communication (replicated downstream consumers).
    Slice,
    /// AllReduce-then-slice (rank-divergent downstream consumers).
    ReduceSlice,
}

/// An all-gather in flight at the autograd level: issued now, recorded on
/// the tape at [`wait`](PendingGatherVar::wait). Everything between issue
/// and wait — typically the next projection's GEMM — overlaps the gather's
/// chunk pipeline.
pub struct PendingGatherVar {
    req: CommRequest,
    xid: usize,
    rank: usize,
    axis: usize,
    local: usize,
    comm: Communicator,
    adjoint: GatherAdjoint,
}

impl PendingGatherVar {
    /// Complete the gather and record the tape node carrying its adjoint.
    pub fn wait(self, tape: &Tape) -> Var {
        let PendingGatherVar {
            req,
            xid,
            rank,
            axis,
            local,
            comm,
            adjoint,
        } = self;
        let gathered = req.wait();
        match adjoint {
            GatherAdjoint::Slice => tape.custom(gathered, move |g, emit| {
                emit(xid, ops::slice(&g, axis, rank * local, local));
            }),
            GatherAdjoint::ReduceSlice => tape.custom(gathered, move |g, emit| {
                let summed = comm.all_reduce_sum(&g);
                emit(xid, ops::slice(&summed, axis, rank * local, local));
            }),
        }
    }
}

/// Issue the AllGather behind [`all_gather_cat`] without waiting.
pub fn issue_all_gather_cat(comm: &Communicator, x: &Var, axis: usize) -> PendingGatherVar {
    PendingGatherVar {
        req: comm.iall_gather_cat(x.value(), axis),
        xid: x.id(),
        rank: comm.rank(),
        axis,
        local: x.dims()[axis],
        comm: comm.clone(),
        adjoint: GatherAdjoint::Slice,
    }
}

/// Issue an AllGather along `axis` whose adjoint is a **reduce-scatter**:
/// the gathered value feeds *rank-divergent* downstream computation (e.g.
/// sequence-parallel keys/values consumed by every rank's local queries),
/// so each rank's gradient contribution to every shard must be summed
/// before slicing. Contrast with [`all_gather_cat`], whose slice adjoint is
/// only correct when the downstream computation is replicated (D-CHAG's
/// shared final aggregation).
pub fn issue_all_gather_rs(comm: &Communicator, x: &Var, axis: usize) -> PendingGatherVar {
    PendingGatherVar {
        adjoint: GatherAdjoint::ReduceSlice,
        ..issue_all_gather_cat(comm, x, axis)
    }
}

/// Megatron `f`: identity forward, AllReduce-sum backward.
///
/// Place at the *input* of a TP region whose forward consumes a replicated
/// activation: each rank's backward contributes a partial input-gradient
/// that must be summed.
pub fn tp_f(tape: &Tape, comm: &Communicator, x: &Var) -> Var {
    let xid = x.id();
    let comm = comm.clone();
    tape.custom(x.value().clone(), move |g, emit| {
        emit(xid, comm.all_reduce_sum(&g));
    })
}

/// Megatron `g`: AllReduce-sum forward, identity backward.
///
/// Place at the *output* of a row-parallel matmul: forward partial sums are
/// combined; the output gradient is already replicated.
pub fn tp_g(tape: &Tape, comm: &Communicator, x: &Var) -> Var {
    let xid = x.id();
    tape.custom(comm.all_reduce_sum(x.value()), move |g, emit| emit(xid, g))
}

/// AllGather along `axis` with rank-order concatenation. Backward slices the
/// local contribution out of the incoming gradient — **no communication**.
/// Thin `issue + wait` over [`issue_all_gather_cat`]; call that directly
/// when there is compute to overlap.
///
/// All ranks must contribute identical shapes.
pub fn all_gather_cat(tape: &Tape, comm: &Communicator, x: &Var, axis: usize) -> Var {
    issue_all_gather_cat(comm, x, axis).wait(tape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::{run_ranks, CollOp};
    use dchag_tensor::{Rng, Tensor};

    #[test]
    fn f_and_g_are_conjugate() {
        // Forward: g(f(x)·w_r) where each rank holds a partial product;
        // checks f passes values and g sums them.
        let run = run_ranks(2, |ctx| {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
            let xf = tp_f(&tape, &ctx.comm, &x);
            let scaled = tape.scale(&xf, (ctx.comm.rank() + 1) as f32);
            let y = tp_g(&tape, &ctx.comm, &scaled);
            // y = 1x + 2x = 3x on both ranks
            assert_eq!(y.value().to_vec(), vec![3.0, 6.0]);
            let grads = tape.backward_seeded(&y, Tensor::ones([2]));
            grads.get(&x).unwrap().to_vec()
        });
        // dy/dx per rank = rank+1, f backward all-reduces: 1 + 2 = 3.
        for g in run.outputs {
            assert_eq!(g, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn all_gather_cat_forward_orders_by_rank() {
        let run = run_ranks(3, |ctx| {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::full([1, 2], ctx.comm.rank() as f32));
            let g = all_gather_cat(&tape, &ctx.comm, &x, 0);
            g.value().to_vec()
        });
        for out in run.outputs {
            assert_eq!(out, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn all_gather_backward_is_local_slice_with_no_comm() {
        let run = run_ranks(2, |ctx| {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::full([2], (ctx.comm.rank() + 1) as f32));
            let gathered = all_gather_cat(&tape, &ctx.comm, &x, 0);
            let y = tape.mul(&gathered, &gathered);
            let s = tape.sum_all(&y);
            let before = ctx.comm.traffic().cursor();
            let grads = tape.backward(&s);
            ctx.comm.barrier();
            let comm_events = ctx
                .comm
                .traffic()
                .since(before)
                .into_iter()
                .filter(|e| e.op != CollOp::Barrier)
                .count();
            (grads.get(&x).unwrap().to_vec(), comm_events)
        });
        // d(Σ g²)/dg = 2g; rank r's slice = 2(r+1)
        assert_eq!(run.outputs[0].0, vec![2.0, 2.0]);
        assert_eq!(run.outputs[1].0, vec![4.0, 4.0]);
        assert_eq!(run.outputs[0].1, 0, "backward must not communicate");
        assert_eq!(run.outputs[1].1, 0);
    }

    #[test]
    fn gathered_value_gradcheck_against_replicated_math() {
        // Verify through the tape: loss = Σ (gather(x))² ; analytic dx vs
        // manual 2x per-rank.
        let mut rng = Rng::new(1);
        let base: Vec<Tensor> = (0..2).map(|_| Tensor::randn([3], 0.5, &mut rng)).collect();
        let run = run_ranks(2, |ctx| {
            let tape = Tape::new();
            let x = tape.leaf(base[ctx.comm.rank()].clone());
            let g = all_gather_cat(&tape, &ctx.comm, &x, 0);
            let s = tape.sum_all(&tape.mul(&g, &g));
            let grads = tape.backward(&s);
            let want = base[ctx.comm.rank()].map(|v| 2.0 * v);
            grads.get(&x).unwrap().max_abs_diff(&want)
        });
        for d in run.outputs {
            assert!(d < 1e-6);
        }
    }
}
