//! # dchag-collectives
//!
//! Simulated multi-rank communication substrate for the D-CHAG
//! reproduction: OS threads stand in for GPUs, and NCCL/RCCL-style
//! collectives (AllGather, AllReduce, ReduceScatter, Broadcast, Barrier)
//! all run on one deterministic chunked engine ([`nonblocking`]).
//!
//! What is preserved from the real thing:
//! * collective *semantics* — what data every rank contributes and receives;
//! * *process-group structure* — `split` builds the TP × FSDP × DP grids of
//!   the paper's Fig. 5 with `MPI_Comm_split` semantics;
//! * *observability* — a traffic log records every collective with its
//!   payload size and group placement (intra- vs inter-node on a Frontier
//!   topology), which is how tests assert the paper's "no backward-pass
//!   communication" claim.
//!
//! What is intentionally different: transport. Payloads move through shared
//! memory (or loopback TCP, see [`transport`]); the analytical α-β cost
//! model in `dchag-perf` is responsible for timing, not this crate.
//!
//! Failure is a first-class citizen (see the crate README's "Failure
//! model"): every blocking primitive has a fallible, deadline-bounded
//! `try_*` twin surfacing a typed [`CommError`]; [`FaultPlan`] injects
//! deterministic, schedule-addressable rank deaths for testing; and
//! [`Communicator::regroup`] rebuilds a shrunk world over the survivors.

pub mod fault;
pub mod group;
pub mod launch;
pub mod nonblocking;
pub mod topology;
pub mod traffic;
pub mod transport;

pub use fault::{
    comm_error_of, describe_payload, CommError, CommPanic, FaultPlan, FaultPoint, InjectedFault,
};
pub use group::{Communicator, WorldShared};
pub use launch::{
    run_ranks, run_ranks_faulty, run_topology, run_topology_faulty, FaultyRun, RankCtx, WorldRun,
};
pub use nonblocking::{CommRequest, COMM_CHUNK_ELEMS};
pub use topology::Topology;
pub use traffic::{
    ChunkEvent, CollEvent, CollOp, FailureSource, FaultCause, FaultEvent, TrafficLog,
    TransportEvent, TransportEventKind,
};
pub use transport::{
    connect_world, run_tcp_ranks, run_tcp_ranks_faulty, run_transport_ranks, spawn_world,
    tcp_world_from_env, TcpConfig, TcpEnv, TcpRun, Transport, TransportFault, TransportFaultPlan,
};

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::Tensor;

    #[test]
    fn all_gather_vec_rank_order() {
        let run = run_ranks(4, |ctx| {
            let t = Tensor::full([2], ctx.comm.rank() as f32);
            let parts = ctx.comm.all_gather_vec(&t);
            parts.iter().map(|p| p.at(0)).collect::<Vec<_>>()
        });
        for out in run.outputs {
            assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn all_gather_cat_concatenates_on_axis() {
        let run = run_ranks(3, |ctx| {
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec(vec![r, r], [1, 2]);
            ctx.comm.all_gather_cat(&t, 0).to_vec()
        });
        for out in run.outputs {
            assert_eq!(out, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn all_reduce_sum_identical_on_all_ranks() {
        let run = run_ranks(4, |ctx| {
            let t = Tensor::full([3], (ctx.comm.rank() + 1) as f32);
            ctx.comm.all_reduce_sum(&t).to_vec()
        });
        for out in &run.outputs {
            assert_eq!(out, &vec![10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn reduce_scatter_gives_each_rank_its_chunk() {
        let run = run_ranks(2, |ctx| {
            // Every rank contributes [1,2,3,4]; sums = [2,4,6,8];
            // rank 0 gets [2,4], rank 1 gets [6,8].
            let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
            ctx.comm.reduce_scatter_sum(&t).to_vec()
        });
        assert_eq!(run.outputs[0], vec![2.0, 4.0]);
        assert_eq!(run.outputs[1], vec![6.0, 8.0]);
    }

    #[test]
    fn reduce_scatter_then_all_gather_is_all_reduce() {
        // The classic ring identity: RS + AG == AR.
        let run = run_ranks(4, |ctx| {
            let r = ctx.comm.rank() as f32;
            let t = Tensor::from_vec((0..8).map(|i| i as f32 + r).collect(), [8]);
            let via_rs = ctx.comm.all_gather_cat(&ctx.comm.reduce_scatter_sum(&t), 0);
            let via_ar = ctx.comm.all_reduce_sum(&t);
            via_rs.max_abs_diff(&via_ar)
        });
        for d in run.outputs {
            assert_eq!(d, 0.0);
        }
    }

    #[test]
    fn broadcast_takes_root_value() {
        let run = run_ranks(3, |ctx| {
            let t = Tensor::full([2], ctx.comm.rank() as f32);
            ctx.comm.broadcast(&t, 1).to_vec()
        });
        for out in run.outputs {
            assert_eq!(out, vec![1.0, 1.0]);
        }
    }

    #[test]
    fn split_builds_tp_and_dp_grids() {
        // 4 ranks, TP groups {0,1} {2,3}, DP groups {0,2} {1,3} (Fig. 5).
        let run = run_ranks(4, |ctx| {
            let r = ctx.comm.rank();
            let tp = ctx.comm.split(r / 2);
            let dp = ctx.comm.split(r % 2);
            (
                tp.rank(),
                tp.group_ranks().to_vec(),
                dp.rank(),
                dp.group_ranks().to_vec(),
            )
        });
        assert_eq!(run.outputs[0], (0, vec![0, 1], 0, vec![0, 2]));
        assert_eq!(run.outputs[1], (1, vec![0, 1], 0, vec![1, 3]));
        assert_eq!(run.outputs[2], (0, vec![2, 3], 1, vec![0, 2]));
        assert_eq!(run.outputs[3], (1, vec![2, 3], 1, vec![1, 3]));
    }

    #[test]
    fn subgroup_collectives_stay_in_group() {
        let run = run_ranks(4, |ctx| {
            let tp = ctx.comm.split(ctx.comm.rank() / 2);
            let t = Tensor::full([1], ctx.comm.rank() as f32);
            tp.all_reduce_sum(&t).item()
        });
        // {0,1} sums to 1, {2,3} sums to 5.
        assert_eq!(run.outputs, vec![1.0, 1.0, 5.0, 5.0]);
    }

    #[test]
    fn traffic_log_counts_collectives() {
        let run = run_ranks(2, |ctx| {
            let t = Tensor::ones([16]);
            let _ = ctx.comm.all_gather_vec(&t);
            let _ = ctx.comm.all_reduce_sum(&t);
            ctx.comm.barrier();
        });
        assert_eq!(run.traffic.count(CollOp::AllGather), 1);
        assert_eq!(run.traffic.count(CollOp::AllReduce), 1);
        assert_eq!(run.traffic.count(CollOp::Barrier), 1);
        assert_eq!(run.traffic.bytes(CollOp::AllGather), 16 * 4);
    }

    #[test]
    fn split_groups_know_their_node_placement() {
        let run = run_topology(Topology::new(4, 2), |ctx| {
            let r = ctx.comm.rank();
            let intra = ctx.comm.split(r / 2); // {0,1} {2,3}: same node
            let inter = ctx.comm.split(r % 2); // {0,2} {1,3}: across nodes
            (intra.is_intra_node(), inter.is_intra_node())
        });
        for (intra, inter) in run.outputs {
            assert!(intra);
            assert!(!inter);
        }
    }

    #[test]
    fn nested_split_of_split() {
        // Split 8 ranks into two groups of 4, then each into two of 2.
        let run = run_ranks(8, |ctx| {
            let g4 = ctx.comm.split(ctx.comm.rank() / 4);
            let g2 = g4.split(g4.rank() / 2);
            let t = Tensor::full([1], ctx.comm.rank() as f32);
            g2.all_reduce_sum(&t).item()
        });
        assert_eq!(run.outputs, vec![1.0, 1.0, 5.0, 5.0, 9.0, 9.0, 13.0, 13.0]);
    }

    #[test]
    fn single_rank_metadata_collectives_return_own_payload() {
        // A one-rank round freezes at its own deposit: nothing to wait for.
        let run = run_ranks(1, |ctx| {
            let t = Tensor::from_vec(vec![41.0, 42.0], [2]);
            let parts = ctx.comm.all_gather_vec(&t);
            let b = ctx.comm.broadcast(&t, 0);
            ctx.comm.barrier();
            let solo = ctx.comm.split(7);
            (parts.len(), parts[0].to_vec(), b.to_vec(), solo.size())
        });
        assert_eq!(
            run.outputs,
            vec![(1, vec![41.0, 42.0], vec![41.0, 42.0], 1)]
        );
    }

    #[test]
    fn split_member_dropping_its_handle_early_strands_no_peer() {
        // Rank 0 fires one collective on its sub-communicator and drops both
        // the moment `split` returns, while peers may still be inside `split`
        // looking the group up: they must find the very engine rank 0 used.
        let run = run_ranks(3, |ctx| {
            (0..50)
                .map(|_| {
                    let sub = ctx.comm.split(0);
                    let req = sub.iall_reduce_sum(&Tensor::full([1], ctx.comm.rank() as f32 + 1.0));
                    if ctx.comm.rank() == 0 {
                        drop((req, sub));
                        6.0
                    } else {
                        req.wait().item()
                    }
                })
                .collect::<Vec<f32>>()
        });
        for out in run.outputs {
            assert!(out.iter().all(|&s| s == 6.0), "{out:?}");
        }
    }
}
