//! Data parallelism: replicated parameters, per-rank batch shards, and
//! one gradient AllReduce per step.
//!
//! [`DataParallel::sync_grads`] runs after `tape.backward` returns: one
//! blocking AllReduce over the parameter-order concatenation of every
//! gradient (paper §2.2: "lightweight communication via AllReduce occurs
//! at the end of the backward pass"). It is the only DP gradient path;
//! sequence parallelism reduces its replicated gradients through the same
//! `all_reduce_flat`.

use dchag_collectives::Communicator;
use dchag_tensor::ops;
use dchag_tensor::prelude::*;

/// One rank's handle to a data-parallel replica group.
#[derive(Clone)]
pub struct DataParallel {
    pub comm: Communicator,
}

impl DataParallel {
    pub fn new(comm: Communicator) -> Self {
        DataParallel { comm }
    }

    /// This rank's slice of a global batch along axis 0.
    pub fn shard_batch(&self, batch: &Tensor) -> Tensor {
        let n = self.comm.size();
        let b = batch.dims()[0];
        assert!(
            b.is_multiple_of(n),
            "batch {b} not divisible by DP size {n}"
        );
        let per = b / n;
        ops::slice(batch, 0, self.comm.rank() * per, per)
    }

    /// Average gradients across replicas with a *single* bucketed
    /// AllReduce: all Some-gradients are flattened into one buffer in
    /// parameter order, reduced, and unflattened in place.
    ///
    /// The Some/None pattern must be identical across ranks (it is, because
    /// every replica runs the same program).
    pub fn sync_grads(&self, grads: &mut [Option<Tensor>]) {
        all_reduce_flat(&self.comm, grads, 1.0 / self.comm.size() as f32);
    }
}

/// Sum the Some-gradients across `comm` with one AllReduce over their
/// parameter-order concatenation, then unflatten in place with every
/// element multiplied by `scale` — `1/n` averages, exactly like
/// `ops::scale` after the sum; `1.0` leaves the sum unchanged. A no-op
/// (no collective) on a single rank or when every gradient is None.
pub(crate) fn all_reduce_flat(comm: &Communicator, grads: &mut [Option<Tensor>], scale: f32) {
    if comm.size() == 1 {
        return;
    }
    let total: usize = grads.iter().flatten().map(|g| g.numel()).sum();
    if total == 0 {
        return;
    }
    let mut flat = Vec::with_capacity(total);
    for g in grads.iter().flatten() {
        flat.extend_from_slice(g.data());
    }
    let reduced = comm.all_reduce_sum(&Tensor::from_vec(flat, [total]));
    let mut off = 0;
    for g in grads.iter_mut().flatten() {
        let n = g.numel();
        let chunk = reduced.data()[off..off + n]
            .iter()
            .map(|&x| scale * x)
            .collect();
        *g = Tensor::from_vec(chunk, g.shape().clone());
        off += n;
    }
}

/// α and bandwidth of the **running host's** comm fabric, fit from the
/// chunk timestamps a [`dchag_collectives::TrafficLog`] already records.
///
/// Chunk events are aggregated per *collective round* (their `coll_seq`):
/// a round contributes one `(Σ bytes_on_wire, last done − ready)` sample —
/// the wall time from the round becoming runnable to its final chunk
/// retiring, over the bytes it moved. The least-squares α-β fit
/// (`dchag_perf::comm::estimate_alpha_beta`) then reads α as the
/// per-collective launch/claim overhead (the same quantity
/// `MachineSpec::alpha_*` models) and the slope as sustained wire
/// bandwidth. The first few collectives of a run suffice, provided their
/// payloads vary in size.
/// `None` until the log holds an identifiable sample set (≥ 4 rounds of
/// ≥ 2 distinct sizes). A measurement only: nothing sizes collectives
/// from it.
pub fn measured_alpha_beta(log: &dchag_collectives::TrafficLog) -> Option<(f64, f64)> {
    use std::collections::BTreeMap;
    // (bytes, ready_us, last_done_us) per round. `ready_us` is stamped
    // once per round at schedule freeze, so any event's copy is the
    // round's; unattributed events (coll_seq sentinel) are dropped rather
    // than merged into one fake round. BTreeMap, not HashMap: the fit
    // sums f64 terms in sample order, so iteration order is part of the
    // result's rounding — seq order keeps the fit identical on every
    // rank reading the same log, and across repeated calls.
    let mut rounds: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new();
    for e in log.chunk_events() {
        if e.coll_seq == usize::MAX {
            continue;
        }
        // Rounds aborted by a peer failure have partial chunk sets whose
        // "wall time" spans the death, not a transfer — they would bias α
        // arbitrarily high. The log marks them; the fit drops them.
        if log.is_round_aborted(e.coll_seq) {
            continue;
        }
        // Rounds disturbed by a transport reconnect *completed*, but their
        // wall time includes dial backoff and frame retransmission — the
        // same arbitrary α bias as an abort. The TCP transport marks them;
        // the fit drops them too.
        if log.is_round_disturbed(e.coll_seq) {
            continue;
        }
        let r = rounds
            .entry(e.coll_seq)
            .or_insert((0.0, e.ready_us, e.done_us));
        r.0 += e.bytes_on_wire as f64;
        r.2 = r.2.max(e.done_us);
    }
    let samples: Vec<(f64, f64)> = rounds
        .values()
        .map(|&(bytes, ready, done)| (bytes, (done - ready).max(0.0) * 1e-6))
        .collect();
    dchag_perf::comm::estimate_alpha_beta(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::{run_ranks, ChunkEvent, CollOp};
    use dchag_tensor::Rng;

    #[test]
    fn measured_alpha_beta_fits_real_chunk_timestamps() {
        // Pipelined all-reduces of strongly varying payload: the
        // per-round (bytes, wall) samples then have a slope lever far
        // above timer noise, so the fit is reliably identifiable.
        let run = run_ranks(2, |ctx| {
            for round in 0..10 {
                let n = dchag_collectives::COMM_CHUNK_ELEMS * (1 + 7 * (round % 2));
                let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([n])).wait();
            }
            ctx.comm.barrier();
            (
                measured_alpha_beta(ctx.comm.traffic().as_ref()),
                ctx.comm.traffic().chunk_events().len(),
            )
        });
        for (fit, events) in run.outputs {
            assert_eq!(events, 5 + 5 * 8, "5 one-chunk + 5 eight-chunk rounds");
            let (alpha, bw) = fit.expect("identifiable sample set must fit");
            assert!(alpha > 0.0 && alpha < 1.0, "α {alpha} s plausible");
            assert!(bw > 1e3, "bw {bw} B/s plausible");
        }
    }

    #[test]
    fn disturbed_rounds_are_excluded_from_fit() {
        // Two logs: `clean` holds six well-behaved samples; `noisy` holds
        // the same six plus a reconnect-disturbed round whose wall time is
        // three orders of magnitude off (dial backoff + retransmit). With
        // the round marked disturbed the fits must be identical; an
        // unmarked copy of the same round visibly corrupts the fit.
        let mk = |rounds: &[(usize, usize, f64)]| {
            let log = dchag_collectives::TrafficLog::new();
            for &(seq, bytes, wall_s) in rounds {
                log.record_chunk(ChunkEvent {
                    op: CollOp::AllReduce,
                    coll_seq: seq,
                    chunk: 0,
                    bytes_on_wire: bytes,
                    issued_us: 0.0,
                    ready_us: 0.0,
                    done_us: wall_s * 1e6,
                });
            }
            log
        };
        let (alpha, bw) = (10e-6, 20e9);
        let clean: Vec<(usize, usize, f64)> = [65536usize, 65536, 65536, 65536, 16384, 32768]
            .iter()
            .enumerate()
            .map(|(i, &b)| (i, b, alpha + b as f64 / bw))
            .collect();
        let wild = (6usize, 65536usize, 0.25); // crossed a reconnect
        let mut noisy = clean.clone();
        noisy.push(wild);

        let base = measured_alpha_beta(&mk(&clean)).expect("clean log fits");
        let marked = mk(&noisy);
        marked.mark_round_disturbed(wild.0);
        assert!(marked.is_round_disturbed(wild.0));
        assert_eq!(
            measured_alpha_beta(&marked),
            Some(base),
            "disturbed round must not perturb the fit at all"
        );
        let unmarked = measured_alpha_beta(&mk(&noisy)).expect("still identifiable");
        assert!(
            (unmarked.0 - base.0).abs() > 0.5 * base.0,
            "sanity: the wild round really would have biased α ({} vs {})",
            unmarked.0,
            base.0
        );
    }

    #[test]
    fn fault_aborted_rounds_do_not_skew_alpha_beta_fit() {
        // Same synthetic exact-model log as above, plus one wildly skewed
        // round (tiny payload, huge wall time — the shape a peer death
        // leaves behind). Aborting it must restore the clean fit.
        let log = dchag_collectives::TrafficLog::new();
        let (alpha, bw) = (10e-6, 20e9);
        for (i, &bytes) in [65536usize, 65536, 65536, 65536, 16384, 32768]
            .iter()
            .enumerate()
        {
            log.record_chunk(ChunkEvent {
                op: CollOp::AllReduce,
                coll_seq: i,
                chunk: 0,
                bytes_on_wire: bytes,
                issued_us: 0.0,
                ready_us: 0.0,
                done_us: (alpha + bytes as f64 / bw) * 1e6,
            });
        }
        let clean = measured_alpha_beta(&log).expect("identifiable");
        log.record_chunk(ChunkEvent {
            op: CollOp::AllReduce,
            coll_seq: 6,
            chunk: 0,
            bytes_on_wire: 1024,
            issued_us: 0.0,
            ready_us: 0.0,
            done_us: 5e6, // five "seconds" of wall: a deadline, not a transfer
        });
        // Sanity: the poisoned sample really perturbs the fit (here it
        // flips the slope negative, which the fitter rejects outright).
        assert_ne!(measured_alpha_beta(&log), Some(clean));
        log.mark_round_aborted(6);
        assert_eq!(
            measured_alpha_beta(&log),
            Some(clean),
            "aborted round dropped from fit"
        );
    }

    #[test]
    fn shard_batch_partitions_rows() {
        let run = run_ranks(2, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let batch = Tensor::arange(8).reshape(&[4, 2]);
            dp.shard_batch(&batch).to_vec()
        });
        assert_eq!(run.outputs[0], vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(run.outputs[1], vec![4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn sync_grads_averages_and_preserves_none() {
        let run = run_ranks(2, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let r = ctx.comm.rank() as f32;
            let mut grads = vec![
                Some(Tensor::full([2], r)), // avg -> 0.5
                None,
                Some(Tensor::full([3], 2.0 * r)), // avg -> 1.0
            ];
            dp.sync_grads(&mut grads);
            (
                grads[0].as_ref().unwrap().to_vec(),
                grads[1].is_none(),
                grads[2].as_ref().unwrap().to_vec(),
            )
        });
        for (g0, none1, g2) in run.outputs {
            assert_eq!(g0, vec![0.5, 0.5]);
            assert!(none1);
            assert_eq!(g2, vec![1.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn sync_is_single_allreduce() {
        let run = run_ranks(4, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let mut grads: Vec<Option<Tensor>> =
                (0..10).map(|_| Some(Tensor::ones([16]))).collect();
            dp.sync_grads(&mut grads);
            ctx.comm.traffic().count(CollOp::AllReduce)
        });
        assert_eq!(run.outputs[0], 1, "bucketed into one collective");
    }

    #[test]
    fn replicas_agree_after_sync() {
        let mut rng = Rng::new(3);
        let per_rank: Vec<Tensor> = (0..2).map(|_| Tensor::randn([8], 1.0, &mut rng)).collect();
        let run = run_ranks(2, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let mut grads = vec![Some(per_rank[ctx.comm.rank()].clone())];
            dp.sync_grads(&mut grads);
            grads[0].as_ref().unwrap().to_vec()
        });
        assert_eq!(run.outputs[0], run.outputs[1]);
    }

    #[test]
    fn single_rank_sync_is_noop_no_comm() {
        let run = run_ranks(1, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let mut grads = vec![Some(Tensor::ones([4]))];
            dp.sync_grads(&mut grads);
            ctx.comm.traffic().count(CollOp::AllReduce)
        });
        assert_eq!(run.outputs[0], 0);
    }
}
