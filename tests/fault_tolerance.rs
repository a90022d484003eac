//! End-to-end fault-tolerance acceptance tests (ISSUE 7).
//!
//! The matrix kills one rank at every protocol point (before deposit,
//! mid-chunk-claim, inside wait) under every communication workload
//! (DP gradient sync, FSDP gather/reduce-scatter, sequence-parallel
//! gather, the D-CHAG encoder's embedding) at world sizes 2 and 4,
//! and asserts the survivors (a) detect a *typed* cause within a bound,
//! (b) regroup to a working `world - 1` communicator, and (c) can run
//! fresh collectives on it. The bitwise test then proves the full
//! checkpoint-driven recovery loop: a 4-rank run that loses rank 2
//! mid-training produces, after regroup + restore, exactly the losses
//! and parameters of a fresh 3-rank run resumed from the same
//! checkpoint.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dchag::prelude::*;
use dchag_collectives::{
    comm_error_of, run_ranks, run_ranks_faulty, CollOp, CommError, Communicator, FaultPlan,
    FaultPoint, RankCtx,
};
use dchag_core::{resilient_train_loop, train_step, ResilienceConfig, RestorePoint};
use dchag_model::encoder::EncoderBackbone;
use dchag_model::{AdamW, Linear};
use dchag_parallel::{gather_sequence, scatter_sequence, DataParallel, FsdpBinder, FsdpParams};

/// Generous upper bound on failure detection: the engine parks with a
/// finite backoff, so a poisoned wait must wake well inside this.
const DETECT_BOUND: Duration = Duration::from_secs(5);
const REGROUP_DEADLINE: Duration = Duration::from_secs(2);

// ---------------------------------------------------------------------------
// Workloads. Each issues at least two collectives (so fault count 1 always
// lands inside) and ends with a barrier the victim never reaches — that
// guarantees every survivor blocks on something the dead rank will never
// complete, whatever the interleaving.
// ---------------------------------------------------------------------------

fn wl_dp(ctx: &RankCtx) {
    let dp = DataParallel::new(ctx.comm.clone());
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let lin = Linear::new(&mut store, &mut rng, "l", 4, 2, true);
    let mut opt = AdamW::new(0.05);
    for _ in 0..2 {
        let x = Tensor::ones([2, 4]);
        train_step(&mut store, &mut opt, 10.0, Some(&dp), |bind| {
            let tape = bind.tape();
            let xv = tape.leaf(x.clone());
            let y = lin.forward(bind, &xv);
            tape.mean_all(&tape.mul(&y, &y))
        });
    }
    ctx.comm.barrier();
}

fn wl_fsdp(ctx: &RankCtx) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    // The 512×512 weight fills one FSDP unit (`FSDP_UNIT_ELEMS` elements)
    // and the bias forms a second: two gathers, then two reduce-scatters.
    let lin = Linear::new(&mut store, &mut rng, "l", 512, 512, true);
    let fsdp = FsdpParams::from_store(&store, &ctx.comm);
    let tape = Tape::new();
    let bind = FsdpBinder::new(&tape, &fsdp);
    let xv = tape.leaf(Tensor::ones([2, 512]));
    let y = lin.forward(&bind, &xv);
    let loss = tape.sum_all(&y);
    let _ = tape.backward(&loss);
    let _ = bind.sharded_grads();
    ctx.comm.barrier();
}

fn wl_sp(ctx: &RankCtx) {
    let w = ctx.comm.size();
    let tape = Tape::new();
    let mut rng = Rng::new(7);
    let x = tape.leaf(Tensor::randn([2, 2 * w, 4], 1.0, &mut rng));
    let shard = scatter_sequence(&tape, &ctx.comm, &x);
    let _ = gather_sequence(&tape, &ctx.comm, &shard);
    let _ = gather_sequence(&tape, &ctx.comm, &shard);
    ctx.comm.barrier();
}

/// The D-CHAG embedding as shipped: per-rank tokenizer and partial tree,
/// the one-token AllGather, and the TP-sharded shared cross-attention,
/// forward and backward.
fn wl_dchag(ctx: &RankCtx) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(77);
    let cfg = ModelConfig::tiny(8);
    let enc = DChagEncoder::new(
        &mut store,
        &mut rng,
        &cfg,
        7,
        TreeConfig::tree(2, UnitKind::Linear),
        &ctx.comm,
    );
    let mut drng = Rng::new(5);
    for _ in 0..2 {
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let imgs = Tensor::randn([1, 8, 16, 16], 1.0, &mut drng);
        let x = enc.embed(&bind, &imgs);
        let loss = tape.sum_all(&tape.mul(&x, &x));
        let _ = tape.backward(&loss);
    }
    ctx.comm.barrier();
}

// ---------------------------------------------------------------------------
// The matrix driver: kill the last rank at `point`, assert typed detection,
// bounded latency, regroup to world-1, and a working post-regroup world.
// ---------------------------------------------------------------------------

fn assert_detect_and_regroup(world: usize, point: FaultPoint, wl: fn(&RankCtx)) {
    let victim = world - 1;
    let plan = FaultPlan::kill(victim, point);
    let run = run_ranks_faulty(world, &plan, move |ctx| {
        let t0 = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| wl(&ctx)));
        let Err(payload) = caught else {
            panic!("survivor finished the workload without detecting the failure")
        };
        let Some(cause) = comm_error_of(payload.as_ref()) else {
            // The victim's own injected death — let the launcher record it.
            resume_unwind(payload)
        };
        let detect = t0.elapsed();
        assert!(detect < DETECT_BOUND, "detection took {detect:?} (point {point:?})");
        assert_eq!(
            cause,
            CommError::PeerFailed { rank: victim, epoch: 0 },
            "survivor rank {} saw the wrong cause at {point:?}",
            ctx.comm.rank()
        );
        let survivor = ctx.comm.regroup(REGROUP_DEADLINE).expect("survivors must regroup");
        assert_eq!(survivor.size(), world - 1);
        // The shrunk world is fully functional: fresh collectives work.
        let s = survivor.all_reduce_sum(&Tensor::ones([4]));
        assert_eq!(s.to_vec(), vec![(world - 1) as f32; 4]);
        survivor.barrier();
    });
    for (r, out) in run.outputs.iter().enumerate() {
        if r == victim {
            let msg = out.as_ref().expect_err("victim must die");
            assert!(msg.contains("injected fault"), "victim cause: {msg}");
        } else {
            assert!(out.is_ok(), "rank {r} at {point:?} (w={world}): {:?}", out.as_ref().err());
        }
    }
    let faults = run.traffic.fault_events();
    assert!(!faults.is_empty(), "fault log empty at {point:?} (w={world})");
}

fn run_matrix(wl: fn(&RankCtx)) {
    for world in [2usize, 4] {
        for point in [
            FaultPoint::BeforeIssue(1),
            FaultPoint::MidChunkClaim(1),
            FaultPoint::InsideWait(1),
        ] {
            assert_detect_and_regroup(world, point, wl);
        }
    }
}

#[test]
fn fault_matrix_dp_gradient_sync() {
    run_matrix(wl_dp);
}

#[test]
fn fault_matrix_fsdp_gather_reduce_scatter() {
    run_matrix(wl_fsdp);
    // Also kill inside the reduce-scatter wait (waits 0-1 are the forward
    // gathers; 2-3 drain the gradient reduce-scatters).
    assert_detect_and_regroup(4, FaultPoint::InsideWait(3), wl_fsdp);
}

#[test]
fn fault_matrix_sequence_parallel_gather() {
    run_matrix(wl_sp);
}

#[test]
fn fault_matrix_dchag_encoder() {
    run_matrix(wl_dchag);
}

// ---------------------------------------------------------------------------
// Rank 0 is not special: its death is survivable and the renumbered world
// keeps recording traffic.
// ---------------------------------------------------------------------------

#[test]
fn fault_rank_zero_death_is_survivable() {
    let plan = FaultPlan::kill(0, FaultPoint::BeforeIssue(1));
    let run = run_ranks_faulty(4, &plan, |ctx| {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..2 {
                let _ = ctx.comm.all_reduce_sum(&Tensor::ones([8]));
            }
            ctx.comm.barrier();
        }));
        let Err(payload) = caught else { panic!("failure must be detected") };
        if comm_error_of(payload.as_ref()).is_none() {
            resume_unwind(payload)
        }
        let survivor = ctx.comm.regroup(REGROUP_DEADLINE).expect("regroup");
        assert_eq!(survivor.size(), 3);
        assert_eq!(survivor.group_ranks(), &[1, 2, 3]);
        // The traffic log is world-shared, so fence the snapshot with
        // barriers: no rank snapshots late (after a peer's allreduce is
        // already logged) or counts early (before the round is logged).
        survivor.barrier();
        let before = survivor.traffic().count(CollOp::AllReduce);
        survivor.barrier();
        let s = survivor.all_reduce_sum(&Tensor::ones([4]));
        assert_eq!(s.to_vec(), vec![3.0; 4]);
        survivor.barrier();
        // Rounds on the shrunk world keep being logged — observability
        // survives the root's death.
        assert!(survivor.traffic().count(CollOp::AllReduce) > before);
        survivor.rank()
    });
    assert!(run.outputs[0].is_err());
    let survivors: Vec<usize> =
        run.outputs[1..].iter().map(|o| *o.as_ref().expect("survivor ok")).collect();
    assert_eq!(survivors, vec![0, 1, 2]);
}

// ---------------------------------------------------------------------------
// Two simultaneous failures: the regroup converges on the 2-rank world.
// ---------------------------------------------------------------------------

#[test]
fn fault_simultaneous_failures_regroup_to_remaining_pair() {
    // Both victims die at their very first deposit — `probe_issue` runs
    // before any poison check, so neither can be "rescued" into a survivor
    // by detecting the other's death first.
    let plan = FaultPlan::kill(1, FaultPoint::BeforeIssue(0))
        .and_kill(2, FaultPoint::BeforeIssue(0));
    let run = run_ranks_faulty(4, &plan, |ctx| {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..2 {
                let _ = ctx.comm.all_reduce_sum(&Tensor::ones([8]));
            }
            ctx.comm.barrier();
        }));
        let Err(payload) = caught else { panic!("failure must be detected") };
        if comm_error_of(payload.as_ref()).is_none() {
            resume_unwind(payload)
        }
        let survivor = ctx.comm.regroup(REGROUP_DEADLINE).expect("regroup");
        assert_eq!(survivor.size(), 2);
        assert_eq!(survivor.group_ranks(), &[0, 3]);
        let s = survivor.all_reduce_sum(&Tensor::ones([4]));
        assert_eq!(s.to_vec(), vec![2.0; 4]);
        survivor.barrier();
    });
    assert!(run.outputs[0].is_ok() && run.outputs[3].is_ok());
    assert!(run.outputs[1].is_err() && run.outputs[2].is_err());
}

// ---------------------------------------------------------------------------
// The acceptance test: a 4-rank resilient training run that loses rank 2 in
// step 3 recovers from the step-2 checkpoint onto the 3 survivors, and its
// post-recovery trajectory is BITWISE identical to a fresh 3-rank run
// resumed from the same checkpoint bytes.
// ---------------------------------------------------------------------------

type DpModel = (Linear, DataParallel, AdamW);

fn dp_build(comm: &Communicator) -> (ParamStore, DpModel) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let lin = Linear::new(&mut store, &mut rng, "l", 4, 2, true);
    (store, (lin, DataParallel::new(comm.clone()), AdamW::new(0.05)))
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
    store.iter().flat_map(|(_, _, t)| t.to_vec()).map(f32::to_bits).collect()
}

#[test]
fn fault_recovery_is_bitwise_identical_to_fresh_survivor_run() {
    const STEPS: usize = 6;
    // Deterministic global batches; batch 12 divides both world 4 and 3.
    let batches: Vec<Tensor> = {
        let mut rng = Rng::new(41);
        (0..STEPS).map(|_| Tensor::randn([12, 4], 1.0, &mut rng)).collect()
    };

    // `train_step` with DP issues exactly one collective per step, so
    // BeforeIssue(3) kills rank 2 deterministically inside step 3 — one
    // step after the step-2 checkpoint.
    let plan = FaultPlan::kill(2, FaultPoint::BeforeIssue(3));
    let rcfg = ResilienceConfig {
        checkpoint_every: 2,
        regroup_deadline: REGROUP_DEADLINE,
        ..ResilienceConfig::default()
    };
    let faulty = run_ranks_faulty(4, &plan, |ctx| {
        let report = resilient_train_loop(
            &ctx.comm,
            &rcfg,
            STEPS,
            dp_build,
            |store, m, _comm, i| dp_step(store, m, &batches[i]),
        )
        .expect("survivors complete the run");
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.final_world, 3);
        assert_eq!(report.losses.len(), STEPS);
        assert!(!report.recovery_us.is_empty());
        let rp = report.restored_from.expect("one recovery happened");
        assert_eq!(rp.step, 2, "recovery must restore the step-2 checkpoint");
        (report.losses.clone(), store_bits(&report.store), rp)
    });

    // Victim died of its injected fault. DP params and the restore point
    // are replica-identical, so every survivor must agree on those bitwise;
    // losses are computed on each rank's own batch shard and are compared
    // per-rank against the fresh run below.
    let msg = faulty.outputs[2].as_ref().expect_err("rank 2 must die");
    assert!(msg.contains("injected fault"), "victim cause: {msg}");
    let survivors: Vec<&(Vec<f32>, Vec<u32>, RestorePoint)> = [0, 1, 3]
        .iter()
        .map(|&r| faulty.outputs[r].as_ref().expect("survivor ok"))
        .collect();
    let (_, params, rp) = survivors[0];
    for s in &survivors[1..] {
        assert_eq!(&s.1, params, "survivors disagree on params");
        assert_eq!(&s.2, rp, "survivors disagree on the restore point");
    }

    // The report names the checkpoint by (step, crc32) only; rebuild it
    // with a clean deterministic 4-rank run of the first two steps and
    // prove it is the one the recovery used via the crc.
    let rebuilt = run_ranks(4, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        for batch in &batches[..2] {
            dp_step(&mut store, &mut m, batch);
        }
        dchag_tensor::checkpoint::Snapshot::of_store(&store, 2).to_bytes()
    });
    let ck = &rebuilt.outputs[0];
    assert_eq!(
        dchag_tensor::checkpoint::crc32(ck),
        rp.crc32,
        "reconstructed checkpoint must match the restore point"
    );

    // Fresh 3-rank run resumed from exactly those checkpoint bytes. The
    // regroup renumbers survivors in ascending old-rank order, so old
    // ranks [0, 1, 3] become fresh ranks [0, 1, 2] for batch sharding.
    let fresh = run_ranks(3, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        dchag_tensor::checkpoint::load_store(&mut store, &mut ck.as_slice())
            .expect("checkpoint loads");
        let mut fresh_losses = Vec::new();
        for batch in &batches[2..STEPS] {
            fresh_losses.push(dp_step(&mut store, &mut m, batch));
        }
        (fresh_losses, store_bits(&store))
    });
    for (new_rank, s) in survivors.iter().enumerate() {
        let (fresh_losses, fresh_params) = &fresh.outputs[new_rank];
        assert_eq!(
            &s.0[2..],
            &fresh_losses[..],
            "post-recovery losses of survivor {new_rank} must match a fresh run bitwise"
        );
        assert_eq!(
            params, fresh_params,
            "post-recovery parameters must be bitwise identical to a fresh survivor run"
        );
    }
}

// ---------------------------------------------------------------------------
// Property: whatever the seed schedules, the failure is detected and the
// survivors end up on a working (world - 1) communicator.
// ---------------------------------------------------------------------------

use proptest::prelude::{prop_assert, proptest, ProptestConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn fault_seeded_injection_always_recovers(seed in 0u64..1_000_000) {
        let world = 2 + (seed % 3) as usize; // 2..=4
        // max_n = 4 < the 5 collectives below, so the fault always fires.
        let plan = FaultPlan::seeded(seed, world, 4);
        let victims = plan.victims();
        let victim = victims[0];
        let run = run_ranks_faulty(world, &plan, |ctx| {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..4 {
                    let _ = ctx.comm.all_reduce_sum(&Tensor::ones([64]));
                }
                ctx.comm.barrier();
            }));
            let Err(payload) = caught else { return "undetected" };
            if comm_error_of(payload.as_ref()).is_none() {
                resume_unwind(payload)
            }
            let Ok(survivor) = ctx.comm.regroup(REGROUP_DEADLINE) else {
                return "regroup-failed";
            };
            let s = survivor.all_reduce_sum(&Tensor::ones([2]));
            if survivor.size() == world - 1 && s.to_vec() == vec![(world - 1) as f32; 2] {
                "recovered"
            } else {
                "bad-regroup"
            }
        });
        for (r, out) in run.outputs.iter().enumerate() {
            if r == victim {
                prop_assert!(
                    out.as_ref().is_err_and(|m| m.contains("injected fault")),
                    "victim {} (seed {}): {:?}", r, seed, out
                );
            } else {
                prop_assert!(
                    matches!(out, Ok(s) if *s == "recovered"),
                    "survivor {} (seed {}): {:?}", r, seed, out
                );
            }
        }
    }
}
