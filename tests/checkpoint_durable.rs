//! Durable crash-consistent checkpointing acceptance tests (ISSUE 10).
//!
//! The tentpole scenario: a 4-process TCP training run whose ranks are
//! **all** SIGKILLed after the step-4 checkpoint commits — total loss, no
//! surviving rank to regroup with. A fresh 4-process launch pointed at the
//! same checkpoint directory must select the newest valid on-disk
//! checkpoint, restore parameters *and* optimizer state from its own
//! shard, and finish with losses and final parameters **bitwise
//! identical** to an uninterrupted run. The in-process tests then drive
//! the fallback path: when injected disk faults corrupt the newest
//! checkpoint (torn write, stale manifest), a restart resumes from the
//! previous intact step and reports the typed cause.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dchag::prelude::*;
use dchag_collectives::{run_ranks, spawn_world, tcp_world_from_env, Communicator, TcpConfig};
use dchag_core::{
    resilient_train_loop_with, train_step, DurableConfig, ResilienceConfig, StateAccess,
};
use dchag_model::{AdamW, Linear};
use dchag_parallel::DataParallel;
use dchag_tensor::checkpoint::{CheckpointError, DiskFault, DiskFaultPlan};

const STEPS: usize = 6;
const WORLD: usize = 4;

type DpModel = (Linear, DataParallel, AdamW);

fn batches() -> Vec<Tensor> {
    let mut rng = Rng::new(41);
    (0..STEPS)
        .map(|_| Tensor::randn([12, 4], 1.0, &mut rng))
        .collect()
}

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

fn dp_opt(m: &mut DpModel) -> &mut AdamW {
    &mut m.2
}

/// Checkpoints carry AdamW moments, so a resumed run continues the exact
/// optimizer trajectory of the run it replaces.
fn access() -> StateAccess<DpModel> {
    StateAccess {
        optimizer: Some(dp_opt),
        rng: None,
    }
}

fn store_bits(store: &ParamStore) -> Vec<u32> {
    store
        .iter()
        .flat_map(|(_, _, t)| t.to_vec())
        .map(f32::to_bits)
        .collect()
}

fn write_u32s(path: &std::path::Path, vals: &[u32]) {
    let text: String = vals.iter().map(|v| format!("{v:08x}\n")).collect();
    std::fs::write(path, text).expect("write result file");
}

fn read_u32s(path: &std::path::Path) -> Vec<u32> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|l| u32::from_str_radix(l.trim(), 16).expect("hex word"))
        .collect()
}

/// Child entry point — a no-op in a normal test run; does rank duty when
/// `spawn_world`'s env is present. Phase 1 ranks hang at step 5 (after the
/// step-4 checkpoint is on disk) until the parent SIGKILLs them; phase 2
/// ranks are the fresh launch that must resume from the durable tier.
#[test]
fn checkpoint_durable_child() {
    let Some(env) = tcp_world_from_env() else {
        return;
    };
    let ckpt = PathBuf::from(std::env::var("DCHAG_CKPT_DIR").expect("ckpt dir"));
    let phase: u32 = std::env::var("DCHAG_CKPT_PHASE")
        .expect("phase")
        .parse()
        .expect("phase");
    let my_rank = env.rank;
    let (comm, _world, ep) = dchag_collectives::connect_world(
        &env,
        TcpConfig {
            heartbeat_timeout: Duration::from_millis(800),
            ..TcpConfig::default()
        },
    );
    let data = batches();
    let rcfg = ResilienceConfig {
        checkpoint_every: 2,
        regroup_deadline: Duration::from_secs(5),
        durable: Some(DurableConfig::new(&ckpt)),
        ..ResilienceConfig::default()
    };
    let report = resilient_train_loop_with(
        &comm,
        &rcfg,
        STEPS,
        access(),
        dp_build,
        |store, m, _c, i| {
            if phase == 1 && i == 5 {
                // The step-4 checkpoint is already committed (or about to
                // be, by the background writer); hang so the parent can
                // SIGKILL every rank at once — total loss, zero survivors.
                std::thread::sleep(Duration::from_secs(600));
            }
            dp_step(store, m, &data[i])
        },
    )
    .expect("run completes");

    assert_eq!(phase, 2, "phase-1 ranks die by SIGKILL and never get here");
    assert_eq!(
        report.recoveries, 0,
        "a restart is a fresh launch, not a regroup"
    );
    assert_eq!(
        report.resumed_at,
        Some(4),
        "must resume from the step-4 checkpoint"
    );
    assert!(
        report.durable_skipped.is_empty(),
        "durable tier must be clean: {:?}",
        report.durable_skipped
    );
    assert_eq!(report.losses.len(), STEPS - 4, "only the resumed steps run");

    write_u32s(
        &env.dir.join(format!("rank{my_rank}.losses")),
        &report
            .losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>(),
    );
    write_u32s(
        &env.dir.join(format!("rank{my_rank}.params")),
        &store_bits(&report.store),
    );
    ep.shutdown_graceful();
}

#[test]
fn checkpoint_total_loss_sigkill_restart_resumes_from_disk_bitwise() {
    if tcp_world_from_env().is_some() {
        return; // never recurse inside a spawned child
    }
    let base = std::env::temp_dir().join(format!("dchag_durable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let ckpt = base.join("ckpt");
    let run1 = base.join("run1");
    std::fs::create_dir_all(&run1).expect("create rendezvous dir");

    let mut children = spawn_world(
        WORLD,
        &run1,
        "checkpoint_durable_child",
        &[
            ("DCHAG_CKPT_DIR", ckpt.display().to_string()),
            ("DCHAG_CKPT_PHASE", "1".to_string()),
        ],
    )
    .expect("spawn phase-1 children");

    // The manifest is published by atomic rename *after* every rank's
    // shard file is durable, so its existence alone means the step-4
    // checkpoint is complete — kill every rank the moment it appears.
    let manifest = ckpt.join("step-00000004.manifest");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !manifest.exists() {
        assert!(
            Instant::now() < deadline,
            "step-4 checkpoint never committed"
        );
        for (rank, child) in children.iter_mut().enumerate() {
            if let Some(status) = child.try_wait().expect("poll child") {
                panic!("rank {rank} exited early ({status}) before total loss");
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for child in children.iter_mut() {
        child.kill().expect("SIGKILL rank");
    }
    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(
            !status.success(),
            "rank {rank} must die by SIGKILL, got {status}"
        );
    }

    // Total loss: every process is gone; only the checkpoint directory
    // survives. A fresh 4-process launch (new rendezvous, same checkpoint
    // dir) must restore from disk and finish the run.
    let run2 = base.join("run2");
    std::fs::create_dir_all(&run2).expect("create rendezvous dir");
    let mut children = spawn_world(
        WORLD,
        &run2,
        "checkpoint_durable_child",
        &[
            ("DCHAG_CKPT_DIR", ckpt.display().to_string()),
            ("DCHAG_CKPT_PHASE", "2".to_string()),
        ],
    )
    .expect("spawn phase-2 children");
    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait child");
        assert!(status.success(), "restarted rank {rank} failed: {status}");
    }

    // Reference: one uninterrupted in-process 4-rank run of all six steps.
    // The restart restored params + AdamW moments from the step-4 shard,
    // so its steps 4..6 must reproduce the reference bitwise.
    let data = batches();
    let reference = run_ranks(WORLD, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        let mut losses = Vec::new();
        for batch in &data {
            losses.push(dp_step(&mut store, &mut m, batch));
        }
        (losses, store_bits(&store))
    });
    for rank in 0..WORLD {
        let (ref_losses, ref_params) = &reference.outputs[rank];
        assert_eq!(
            read_u32s(&run2.join(format!("rank{rank}.losses"))),
            ref_losses[4..]
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
            "rank {rank}: resumed losses diverged from the uninterrupted run"
        );
        assert_eq!(
            &read_u32s(&run2.join(format!("rank{rank}.params"))),
            ref_params,
            "rank {rank}: restart params must be bitwise identical to the uninterrupted run"
        );
    }

    let _ = std::fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// Fallback path, driven in-process at world 1: corrupt the newest on-disk
// checkpoint and prove a restart resumes from the previous intact step with
// the typed cause in the report.
// ---------------------------------------------------------------------------

/// `(losses, param bits, resumed_at, durable_skipped)` of one w=1 run.
type W1Run = (
    Vec<f32>,
    Vec<u32>,
    Option<usize>,
    Vec<(u64, CheckpointError)>,
);

/// Run `steps` steps of the DP workload at world 1 against `root`, with
/// `faults` armed on the durable tier, and return the report.
fn durable_run_w1(root: &std::path::Path, steps: usize, faults: DiskFaultPlan) -> W1Run {
    let data = batches();
    let root = root.to_path_buf();
    let run = run_ranks(1, move |ctx| {
        let mut d = DurableConfig::new(&root);
        d.retain = 8; // keep every step: the fallback target must survive GC
        d.faults = faults.clone();
        let rcfg = ResilienceConfig {
            checkpoint_every: 2,
            durable: Some(d),
            ..ResilienceConfig::default()
        };
        let report = resilient_train_loop_with(
            &ctx.comm,
            &rcfg,
            steps,
            access(),
            dp_build,
            |store, m, _c, i| dp_step(store, m, &data[i]),
        )
        .expect("run completes");
        (
            report.losses,
            store_bits(&report.store),
            report.resumed_at,
            report.durable_skipped,
        )
    });
    run.outputs.into_iter().next().unwrap()
}

#[test]
fn checkpoint_corrupt_newest_restart_falls_back_with_typed_cause() {
    let root = std::env::temp_dir().join(format!("dchag_durable_torn_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // First run commits steps 0, 2, 4 — but save #2 (the step-4 shard) is
    // torn mid-write, so the newest checkpoint on disk is garbage.
    let torn = DiskFaultPlan::on_save(2, DiskFault::TruncateAt(33));
    let (_, _, resumed, skipped) = durable_run_w1(&root, 4, torn);
    assert_eq!(resumed, None, "first run starts fresh");
    assert!(
        skipped.is_empty(),
        "the tear is silent until a reader hits it: {skipped:?}"
    );

    // The restart must skip the torn step 4 with a typed cause and resume
    // from step 2 — then replay to the exact state of a clean 4-step run.
    let (losses, params, resumed, skipped) = durable_run_w1(&root, 4, DiskFaultPlan::none());
    assert_eq!(
        resumed,
        Some(2),
        "restart resumes from the previous intact step"
    );
    assert_eq!(losses.len(), 2, "only steps 2..4 replay");
    assert!(
        skipped
            .iter()
            .any(|(s, e)| *s == 4 && matches!(e, CheckpointError::FileCrc)),
        "the torn step-4 checkpoint must be skipped with its typed cause: {skipped:?}"
    );

    let clean = std::env::temp_dir().join(format!("dchag_durable_clean_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&clean);
    let (_, clean_params, _, clean_skipped) = durable_run_w1(&clean, 4, DiskFaultPlan::none());
    assert!(clean_skipped.is_empty());
    assert_eq!(
        params, clean_params,
        "fallback + replay must land bitwise on the uninterrupted trajectory"
    );

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&clean);
}

#[test]
fn checkpoint_stale_manifest_restart_falls_back_with_shard_crc_cause() {
    let root = std::env::temp_dir().join(format!("dchag_durable_stale_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Commit #2 (step 4) publishes a manifest whose recorded checksum
    // disagrees with the shard bytes on disk — a lost write under the
    // manifest's feet. The manifest itself is internally consistent, so
    // only shard-level validation can reject it.
    let stale = DiskFaultPlan::on_save(2, DiskFault::StaleManifest);
    let (_, _, resumed, _) = durable_run_w1(&root, 4, stale);
    assert_eq!(resumed, None);

    let (_, params, resumed, skipped) = durable_run_w1(&root, 4, DiskFaultPlan::none());
    assert_eq!(
        resumed,
        Some(2),
        "restart resumes from the previous intact step"
    );
    assert!(
        skipped
            .iter()
            .any(|(s, e)| *s == 4 && matches!(e, CheckpointError::ShardCrc { step: 4, rank: 0 })),
        "the stale manifest must be rejected as a rank-0 shard checksum mismatch: {skipped:?}"
    );

    let clean = std::env::temp_dir().join(format!("dchag_durable_stale2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&clean);
    let (_, clean_params, _, _) = durable_run_w1(&clean, 4, DiskFaultPlan::none());
    assert_eq!(
        params, clean_params,
        "fallback + replay lands on the clean trajectory"
    );

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&clean);
}
