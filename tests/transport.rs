//! TCP transport acceptance tests (ISSUE 9).
//!
//! The parity tests prove the transport seam is invisible: identical
//! closures over `Transport::Thread` and `Transport::Tcp` produce bitwise
//! identical outputs at world 2 and 4, across every collective shape,
//! subgroup splits, and overlapped nonblocking rounds.
//! The fault tests then drive each [`TransportFault`] arm end-to-end over
//! real loopback sockets and assert the *existing* typed error surface —
//! `CommError::PeerFailed` / `CommError::Timeout` — is what surfaces, and
//! that survivors regroup onto a working shrunk world. Finally the
//! resilient-training test runs the full checkpoint-driven recovery loop
//! over TCP and checks its post-recovery trajectory bitwise against a
//! fresh thread-transport run from the same checkpoint bytes — recovery is
//! transport-agnostic down to the last ulp.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use dchag::prelude::*;
use dchag_collectives::{
    comm_error_of, run_ranks, run_tcp_ranks, run_tcp_ranks_faulty, run_transport_ranks, CollOp,
    CommError, Communicator, FailureSource, FaultCause, RankCtx, TcpConfig, Transport,
    TransportFault, TransportFaultPlan,
};
use dchag_core::{
    resilient_train_loop, train_step, train_step_fsdp, ResilienceConfig, RestorePoint, TrainConfig,
};
use dchag_model::{AdamW, Linear};
use dchag_parallel::fsdp::FSDP_UNIT_ELEMS;
use dchag_parallel::{DataParallel, FsdpParams};
use dchag_tensor::checkpoint::{content_digest, Snapshot};

const REGROUP_DEADLINE: Duration = Duration::from_secs(2);

/// Default config with a short failure-detection horizon so negative tests
/// finish in test time rather than production time.
fn fast_cfg() -> TcpConfig {
    TcpConfig {
        heartbeat_timeout: Duration::from_millis(600),
        bringup_timeout: Duration::from_secs(5),
        ..TcpConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Parity: thread and TCP transports agree bitwise.
// ---------------------------------------------------------------------------

fn bits_of(t: &Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|x| x.to_bits()).collect()
}

/// Every collective shape the engine offers, in one deterministic
/// per-rank program. Returns the raw bit stream of every result.
fn parity_workload(ctx: &RankCtx) -> Vec<u32> {
    let w = ctx.comm.size();
    let r = ctx.comm.rank();
    let mut rng = Rng::new(97 + r as u64);
    let mut bits = Vec::new();

    let x = Tensor::randn([4, 8], 1.0, &mut rng);
    bits.extend(bits_of(&ctx.comm.all_reduce_sum(&x)));
    for part in ctx.comm.all_gather_vec(&x) {
        bits.extend(bits_of(&part));
    }
    bits.extend(bits_of(&ctx.comm.all_gather_cat(&x, 0)));
    bits.extend(bits_of(&ctx.comm.reduce_scatter_sum(&Tensor::randn(
        [8 * w],
        1.0,
        &mut rng,
    ))));
    bits.extend(bits_of(
        &ctx.comm
            .broadcast(&Tensor::randn([6], 1.0, &mut rng), w - 1),
    ));

    // Two overlapped nonblocking rounds, retired out of issue order.
    let a = ctx
        .comm
        .iall_reduce_sum(&Tensor::randn([32], 1.0, &mut rng));
    let b = ctx
        .comm
        .iall_reduce_sum(&Tensor::randn([16], 1.0, &mut rng));
    bits.extend(bits_of(&b.wait()));
    bits.extend(bits_of(&a.wait()));

    // Interleaved subgroups ({0,2..} / {1,3..}) exercise split + subgroup
    // routing; at w == 2 these are singleton groups, also a valid shape.
    let half = ctx.comm.split(r % 2);
    bits.extend(bits_of(&half.all_reduce_sum(&x)));
    bits.extend(bits_of(
        &half.all_gather_cat(&Tensor::full([2], r as f32), 0),
    ));
    half.barrier();

    ctx.comm.barrier();
    bits
}

#[test]
fn transport_parity_is_bitwise_at_w2_and_w4() {
    for w in [2usize, 4] {
        let thread = run_transport_ranks(&Transport::Thread, w, |ctx| parity_workload(&ctx));
        let tcp = run_transport_ranks(&Transport::Tcp(TcpConfig::default()), w, |ctx| {
            parity_workload(&ctx)
        });
        for r in 0..w {
            let a = thread.outputs[r].as_ref().expect("thread rank ok");
            let b = tcp.outputs[r].as_ref().expect("tcp rank ok");
            assert!(!a.is_empty());
            assert_eq!(a, b, "rank {r} of {w} diverged across transports");
        }
    }
}

/// Two FSDP training steps on a model of two units: `l0.weight` alone
/// fills one ([`FSDP_UNIT_ELEMS`] elements), the rest form the second.
/// Returns the losses and the post-step parameters as raw bits, and the
/// all-gathers rank 0 logged in the first step.
fn fsdp_units_workload(ctx: &RankCtx) -> (Vec<u32>, usize) {
    const WIDTH: usize = 512;
    assert_eq!(WIDTH * WIDTH, FSDP_UNIT_ELEMS);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(23);
    let l0 = Linear::new(&mut store, &mut rng, "l0", WIDTH, WIDTH, true);
    let l1 = Linear::new(&mut store, &mut rng, "l1", WIDTH, 8, true);
    let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
    let cfg = TrainConfig::default();
    let mut opt = cfg.optimizer();
    let mut drng = Rng::new(300 + ctx.comm.rank() as u64);
    let mut bits = Vec::new();
    let mut gathers = 0;
    for step in 0..2 {
        let x = Tensor::randn([4, WIDTH], 1.0, &mut drng);
        let mark = ctx.comm.traffic().cursor();
        let loss = train_step_fsdp(&mut fsdp, &mut opt, cfg.clip, None, |bind| {
            let tape = bind.tape();
            let h = tape.gelu(&l0.forward(bind, &tape.leaf(x)));
            let y = l1.forward(bind, &h);
            tape.mean_all(&tape.mul(&y, &y))
        });
        if step == 0 {
            let events = ctx.comm.traffic().since(mark);
            gathers = events.iter().filter(|e| e.op == CollOp::AllGather).count();
        }
        bits.push(loss.to_bits());
    }
    for i in 0..fsdp.len() {
        bits.extend(bits_of(&fsdp.gather_full(i)));
    }
    ctx.comm.barrier();
    (bits, gathers)
}

#[test]
fn transport_fsdp_unit_step_is_bitwise_at_w2_and_w4() {
    for w in [2usize, 4] {
        let thread = run_transport_ranks(&Transport::Thread, w, |ctx| fsdp_units_workload(&ctx));
        let tcp = Transport::Tcp(TcpConfig::default());
        let tcp = run_transport_ranks(&tcp, w, |ctx| fsdp_units_workload(&ctx));
        let (_, gathers) = thread.outputs[0].as_ref().expect("thread rank 0 ok");
        assert_eq!(*gathers, 2, "one all-gather per unit");
        for r in 0..w {
            let (a, _) = thread.outputs[r].as_ref().expect("thread rank ok");
            let (b, _) = tcp.outputs[r].as_ref().expect("tcp rank ok");
            assert_eq!(
                a, b,
                "rank {r} of {w}: FSDP step diverged across transports"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Fault arms: each socket-level failure surfaces as the existing typed
// cause, never a new error shape.
// ---------------------------------------------------------------------------

#[test]
fn tcp_gone_dark_peer_is_peerfailed_for_survivors_timeout_for_itself() {
    let victim = 2;
    // One warmup send completes everywhere; the victim's second send is
    // dropped and its endpoint goes dark (EOF without Bye, no heartbeats).
    let plan = TransportFaultPlan::for_rank(victim, TransportFault::DropAfterFrames(1));
    let run = run_tcp_ranks_faulty(3, fast_cfg(), &plan, |ctx| {
        let r = ctx.comm.rank();
        assert_eq!(
            ctx.comm.all_reduce_sum(&Tensor::ones([8])).to_vec(),
            vec![3.0; 8]
        );
        if r == victim {
            // Our own sends are black-holed: nothing completes, nobody is
            // blamed — the local surface is a plain deadline Timeout. Every
            // collective shares one engine sequence, so the victim issues
            // the survivors' collectives in their order: the peers'
            // all-reduce may already have landed here before we went dark,
            // but no peer ever reaches the barrier.
            let deadline = Some(Duration::from_secs(2));
            let err = ctx
                .comm
                .try_all_reduce_sum(&Tensor::ones([8]), deadline)
                .and_then(|_| ctx.comm.try_barrier(deadline))
                .expect_err("a dark endpoint cannot complete a barrier");
            assert!(
                matches!(err, CommError::Timeout { .. }),
                "victim saw {err:?}"
            );
            return "victim-timeout".to_string();
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = ctx.comm.all_reduce_sum(&Tensor::ones([8]));
            ctx.comm.barrier();
        }));
        let payload = caught.expect_err("survivors must detect the dark peer");
        let cause = comm_error_of(payload.as_ref()).expect("typed cause");
        assert_eq!(
            cause,
            CommError::PeerFailed {
                rank: victim,
                epoch: 0
            }
        );
        let survivor = ctx
            .comm
            .regroup(REGROUP_DEADLINE)
            .expect("survivors regroup");
        assert_eq!(survivor.size(), 2);
        assert_eq!(
            survivor.all_reduce_sum(&Tensor::ones([4])).to_vec(),
            vec![2.0; 4]
        );
        survivor.barrier();
        format!("survivor-{}", survivor.rank())
    });
    assert_eq!(run.outputs[victim].as_ref().unwrap(), "victim-timeout");
    assert_eq!(run.outputs[0].as_ref().unwrap(), "survivor-0");
    assert_eq!(run.outputs[1].as_ref().unwrap(), "survivor-1");
    // Survivor logs carry the transport-attributed fault record.
    for r in [0usize, 1] {
        let faults = run.traffic[r].fault_events();
        assert!(
            faults.iter().any(|f| matches!(
                f.cause,
                FaultCause::Declared {
                    rank: 2,
                    source: FailureSource::Transport { .. },
                    ..
                }
            )),
            "rank {r} fault log: {faults:?}"
        );
    }
}

#[test]
fn tcp_black_hole_reads_times_out_victim_while_peers_complete() {
    let victim = 0;
    let plan = TransportFaultPlan::for_rank(victim, TransportFault::BlackHoleReads);
    let run = run_tcp_ranks_faulty(3, fast_cfg(), &plan, |ctx| {
        if ctx.comm.rank() == victim {
            // Socket stays live (heartbeats flow), so peers never blame us;
            // we simply never see their contributions.
            let err = ctx
                .comm
                .try_all_reduce_sum(&Tensor::ones([8]), Some(Duration::from_millis(800)))
                .expect_err("black-holed reads cannot complete a reduction");
            assert!(
                matches!(err, CommError::Timeout { .. }),
                "victim saw {err:?}"
            );
            "victim-timeout"
        } else {
            // The victim's *sends* still flow, so peers finish normally.
            let s = ctx.comm.all_reduce_sum(&Tensor::ones([8]));
            assert_eq!(s.to_vec(), vec![3.0; 8]);
            // Stay up past the victim's deadline: a peer that *exits* closes
            // its sockets, and the victim would then (correctly) diagnose
            // the dead connection instead of its own starved reads.
            std::thread::sleep(Duration::from_secs(2));
            "peer-complete"
        }
    });
    assert_eq!(run.outputs[0].as_ref().unwrap(), &"victim-timeout");
    assert_eq!(run.outputs[1].as_ref().unwrap(), &"peer-complete");
    assert_eq!(run.outputs[2].as_ref().unwrap(), &"peer-complete");
}

#[test]
fn tcp_refused_accepts_fail_the_refusing_rank_at_bringup() {
    let victim = 0; // every other rank dials rank 0
    let plan = TransportFaultPlan::for_rank(victim, TransportFault::RefuseAccept);
    let cfg = TcpConfig {
        bringup_timeout: Duration::from_secs(2),
        ..fast_cfg()
    };
    let run = run_tcp_ranks_faulty(3, cfg, &plan, |ctx| {
        let r = ctx.comm.rank();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let _ = ctx.comm.all_reduce_sum(&Tensor::ones([4]));
            ctx.comm.barrier();
        }));
        let payload = caught.expect_err("bring-up through a refusing rank cannot succeed");
        let cause = comm_error_of(payload.as_ref()).expect("typed cause");
        if r == victim {
            // The refuser never gets a usable link either; it blames a peer
            // whose accept window expired (which one is timing-dependent).
            assert!(
                matches!(cause, CommError::PeerFailed { .. }),
                "victim saw {cause:?}"
            );
            "refused".to_string()
        } else {
            assert_eq!(
                cause,
                CommError::PeerFailed {
                    rank: victim,
                    epoch: 0
                }
            );
            let survivor = ctx
                .comm
                .regroup(REGROUP_DEADLINE)
                .expect("survivors regroup");
            assert_eq!(survivor.size(), 2);
            survivor.barrier();
            format!("survivor-{}", survivor.rank())
        }
    });
    assert_eq!(run.outputs[0].as_ref().unwrap(), "refused");
    assert_eq!(run.outputs[1].as_ref().unwrap(), "survivor-0");
    assert_eq!(run.outputs[2].as_ref().unwrap(), "survivor-1");
}

#[test]
fn tcp_severed_connection_heals_transparently_and_marks_disturbed_rounds() {
    let victim = 1; // the dialer side of the {0,1} pair — sever lands here
    let plan = TransportFaultPlan::for_rank(victim, TransportFault::SeverOnce(2));
    let workload = |ctx: &RankCtx| {
        let mut bits = Vec::new();
        for i in 0..6usize {
            let n = 256 * (1 + i % 3);
            let t = Tensor::full([n], (ctx.comm.rank() + i) as f32);
            bits.extend(bits_of(&ctx.comm.iall_reduce_sum(&t).wait()));
        }
        ctx.comm.barrier();
        bits
    };
    let severed = run_tcp_ranks_faulty(2, TcpConfig::default(), &plan, |ctx| workload(&ctx));
    let clean = run_transport_ranks(&Transport::Thread, 2, |ctx| workload(&ctx));
    for r in 0..2 {
        assert_eq!(
            severed.outputs[r]
                .as_ref()
                .expect("sever must heal, not kill"),
            clean.outputs[r].as_ref().unwrap(),
            "healed rank {r} diverged from the undisturbed run"
        );
    }
    // The victim's own log records the healing: dial attempts, a
    // reconnect, and the in-flight round marked disturbed so the α-β
    // fitter will skip it (`measured_alpha_beta` drops disturbed rounds).
    let log = &severed.traffic[victim];
    assert!(log.reconnect_attempts() >= 1, "no reconnect recorded");
    assert!(
        !log.disturbed_rounds().is_empty(),
        "the round in flight across the sever must be marked disturbed"
    );
    for seq in log.disturbed_rounds() {
        assert!(log.is_round_disturbed(seq));
    }
}

// ---------------------------------------------------------------------------
// The full recovery loop over sockets: a 4-rank resilient training run that
// loses rank 2 mid-step regroups (epoch bump, renumbered ranks), restores
// the step-2 checkpoint, and finishes with losses and parameters bitwise
// identical to a fresh *thread-transport* 3-rank run resumed from the same
// checkpoint bytes.
// ---------------------------------------------------------------------------

type DpModel = (Linear, DataParallel, AdamW);

fn dp_build(comm: &Communicator) -> (ParamStore, DpModel) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let lin = Linear::new(&mut store, &mut rng, "l", 4, 2, true);
    (
        store,
        (lin, DataParallel::new(comm.clone()), AdamW::new(0.05)),
    )
}

fn dp_step(store: &mut ParamStore, m: &mut DpModel, batch: &Tensor) -> f32 {
    let (lin, dp, opt) = m;
    let x = dp.shard_batch(batch);
    train_step(store, opt, 10.0, Some(dp), |bind| {
        let tape = bind.tape();
        let xv = tape.leaf(x.clone());
        let y = lin.forward(bind, &xv);
        tape.mean_all(&tape.mul(&y, &y))
    })
}

fn store_bits(store: &ParamStore) -> Vec<u32> {
    store
        .iter()
        .flat_map(|(_, _, t)| t.to_vec())
        .map(f32::to_bits)
        .collect()
}

#[test]
fn tcp_resilient_training_recovers_bitwise_onto_survivors() {
    const STEPS: usize = 6;
    let batches: Vec<Tensor> = {
        let mut rng = Rng::new(41);
        (0..STEPS)
            .map(|_| Tensor::randn([12, 4], 1.0, &mut rng))
            .collect()
    };
    let rcfg = ResilienceConfig {
        checkpoint_every: 2,
        regroup_deadline: REGROUP_DEADLINE,
        ..ResilienceConfig::default()
    };

    let faulty = run_tcp_ranks(4, fast_cfg(), |ctx| {
        let report =
            resilient_train_loop(&ctx.comm, &rcfg, STEPS, dp_build, |store, m, comm, i| {
                // Rank 2 dies mid-step-3 on the 4-rank world: the panic
                // aborts its endpoint, so peers see EOF-without-Bye — the
                // real process-death signal — not an injected poison.
                if i == 3 && comm.size() == 4 && comm.rank() == 2 {
                    panic!("synthetic rank death");
                }
                dp_step(store, m, &batches[i])
            })
            .expect("survivors complete the run");
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_world, 3);
        let rp = report.restored_from.expect("one recovery happened");
        assert_eq!(rp.step, 2, "recovery must restore the step-2 checkpoint");
        (report.losses.clone(), store_bits(&report.store), rp)
    });

    let msg = faulty.outputs[2].as_ref().expect_err("rank 2 must die");
    assert!(msg.contains("synthetic rank death"), "victim cause: {msg}");
    let survivors: Vec<&(Vec<f32>, Vec<u32>, RestorePoint)> = [0, 1, 3]
        .iter()
        .map(|&r| faulty.outputs[r].as_ref().expect("survivor ok"))
        .collect();
    let (_, params, rp) = survivors[0];
    for s in &survivors[1..] {
        assert_eq!(&s.1, params, "survivors disagree on params");
        assert_eq!(&s.2, rp, "survivors disagree on the restore point");
    }

    // The report carries only (step, digest) — reconstruct the checkpoint
    // independently: DP training is deterministic, so a clean 4-rank
    // thread-transport run of the first two steps rebuilds the exact
    // snapshot the recovery restored from, proven by the matching digest.
    let rebuilt = run_ranks(4, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        for batch in &batches[..2] {
            dp_step(&mut store, &mut m, batch);
        }
        Snapshot::of_store(&store, 2).to_bytes()
    });
    let ck = &rebuilt.outputs[0];
    assert_eq!(
        content_digest(ck).expect("a valid checkpoint"),
        rp.digest,
        "reconstructed checkpoint must match the restore point"
    );

    // Cross-transport: the reference run uses the thread transport.
    let fresh = run_ranks(3, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        dchag_tensor::checkpoint::load_store(&mut store, &mut ck.as_slice())
            .expect("checkpoint loads");
        let mut losses = Vec::new();
        for batch in &batches[2..STEPS] {
            losses.push(dp_step(&mut store, &mut m, batch));
        }
        (losses, store_bits(&store))
    });
    for (new_rank, s) in survivors.iter().enumerate() {
        let (fresh_losses, fresh_params) = &fresh.outputs[new_rank];
        assert_eq!(
            &s.0[2..],
            &fresh_losses[..],
            "survivor {new_rank} losses diverged"
        );
        assert_eq!(params, fresh_params, "post-recovery parameters diverged");
    }
}
