//! Multi-process SIGKILL recovery acceptance test (ISSUE 9 tentpole).
//!
//! The parent test spawns **4 real OS processes** (re-executions of this
//! test binary, rank identity via env, file rendezvous) running a
//! resilient DP training loop over TCP. Rank 2 announces step-3 entry by
//! dropping a marker file and then hangs; the parent SIGKILLs it — the
//! kernel closes its sockets, so survivors get the genuine process-death
//! signal (EOF without `Bye`), not an injected fault. The three survivors
//! must detect a typed failure, regroup to a 3-rank epoch-1 world, restore
//! the step-2 checkpoint, and finish — with losses and final parameters
//! **bitwise identical** to a fresh in-process 3-rank thread-transport run
//! resumed from the same checkpoint bytes.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dchag::prelude::*;
use dchag_collectives::{run_ranks, spawn_world, tcp_world_from_env, Communicator, TcpConfig};
use dchag_core::{resilient_train_loop, train_step, ResilienceConfig};
use dchag_model::{AdamW, Linear};
use dchag_parallel::DataParallel;

const STEPS: usize = 6;
const WORLD: usize = 4;
const VICTIM: usize = 2;

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

fn store_bits(store: &ParamStore) -> Vec<u32> {
    store
        .iter()
        .flat_map(|(_, _, t)| t.to_vec())
        .map(f32::to_bits)
        .collect()
}

fn write_u32s(path: &Path, vals: &[u32]) {
    let text: String = vals.iter().map(|v| format!("{v:08x}\n")).collect();
    std::fs::write(path, text).expect("write result file");
}

fn read_u32s(path: &Path) -> Vec<u32> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .lines()
        .map(|l| u32::from_str_radix(l.trim(), 16).expect("hex word"))
        .collect()
}

/// Child entry point — a no-op in a normal test run; does rank duty when
/// `spawn_world`'s env is present. Must live in this file so the re-exec'd
/// binary can reach it by exact libtest name.
#[test]
fn transport_recovery_child() {
    let Some(env) = tcp_world_from_env() else {
        return;
    };
    let marker = PathBuf::from(std::env::var("DCHAG_TR_MARKER").expect("marker path"));
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
        ..ResilienceConfig::default()
    };
    let report = resilient_train_loop(&comm, &rcfg, STEPS, dp_build, |store, m, comm, i| {
        if my_rank == VICTIM && i == 3 && comm.size() == WORLD {
            // Announce step-3 entry, then hang: the parent SIGKILLs this
            // process mid-step while the survivors are already blocked in
            // the step's collective.
            std::fs::write(&marker, b"at step 3").expect("write marker");
            std::thread::sleep(Duration::from_secs(600));
        }
        dp_step(store, m, &data[i])
    })
    .expect("survivor completes the run");

    assert_eq!(report.recoveries, 1, "exactly one recovery");
    assert_eq!(report.final_world, WORLD - 1);
    let rp = report.restored_from.expect("one recovery happened");
    assert_eq!(rp.step, 2, "recovery must restore the step-2 checkpoint");

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
    write_u32s(
        &env.dir.join(format!("rank{my_rank}.ck")),
        &[rp.step as u32, rp.digest],
    );
    ep.shutdown_graceful();
}

#[test]
fn multi_process_sigkill_recovery_is_bitwise_identical() {
    if tcp_world_from_env().is_some() {
        return; // never recurse inside a spawned child
    }
    let dir = std::env::temp_dir().join(format!("dchag_tr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create rendezvous dir");
    let marker = dir.join("victim.marker");

    let mut children = spawn_world(
        WORLD,
        &dir,
        "transport_recovery_child",
        &[("DCHAG_TR_MARKER", marker.display().to_string())],
    )
    .expect("spawn children");

    // SIGKILL the victim the moment it reports step-3 entry.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !marker.exists() {
        assert!(Instant::now() < deadline, "victim never reached step 3");
        if let Some(status) = children[VICTIM].try_wait().expect("poll victim") {
            panic!("victim exited early ({status}) instead of reaching step 3");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    children[VICTIM].kill().expect("SIGKILL victim");

    for (rank, child) in children.iter_mut().enumerate() {
        let status = child.wait().expect("wait child");
        if rank == VICTIM {
            assert!(!status.success(), "the killed victim cannot exit cleanly");
        } else {
            assert!(status.success(), "survivor rank {rank} failed: {status}");
        }
    }

    // Survivors agree bitwise on the restore point and final parameters.
    let survivors: Vec<usize> = (0..WORLD).filter(|&r| r != VICTIM).collect();
    let rp = read_u32s(&dir.join(format!("rank{}.ck", survivors[0])));
    let params = read_u32s(&dir.join(format!("rank{}.params", survivors[0])));
    for &r in &survivors[1..] {
        assert_eq!(
            read_u32s(&dir.join(format!("rank{r}.ck"))),
            rp,
            "rank {r} disagrees on the restore point"
        );
        assert_eq!(
            read_u32s(&dir.join(format!("rank{r}.params"))),
            params,
            "rank {r} disagrees on final params"
        );
    }
    assert_eq!(rp[0], 2, "restore point must name step 2");

    // The report names the checkpoint by (step, digest) only; DP training
    // is deterministic and transport-independent, so rebuild it with a
    // clean in-process 4-rank thread run of the first two steps and prove
    // it is the one the survivors restored via the digest.
    let data = batches();
    let rebuilt = run_ranks(WORLD, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        for batch in &data[..2] {
            dp_step(&mut store, &mut m, batch);
        }
        dchag_tensor::checkpoint::Snapshot::of_store(&store, 2).to_bytes()
    });
    let ck = &rebuilt.outputs[0];
    assert_eq!(
        dchag_tensor::checkpoint::content_digest(ck).expect("a valid checkpoint"),
        rp[1],
        "reconstructed checkpoint must match the survivors' restore point"
    );

    // Fresh in-process 3-rank run over the *thread* transport, resumed from
    // the surviving processes' checkpoint bytes. Regroup renumbers old
    // ranks [0, 1, 3] to fresh ranks [0, 1, 2] in order, so batch shards
    // line up rank-for-rank.
    let fresh = run_ranks(WORLD - 1, |ctx| {
        let (mut store, mut m) = dp_build(&ctx.comm);
        dchag_tensor::checkpoint::load_store(&mut store, &mut ck.as_slice())
            .expect("checkpoint loads");
        let mut losses = Vec::new();
        for batch in &data[2..STEPS] {
            losses.push(dp_step(&mut store, &mut m, batch));
        }
        (losses, store_bits(&store))
    });
    for (new_rank, &old_rank) in survivors.iter().enumerate() {
        let (fresh_losses, fresh_params) = &fresh.outputs[new_rank];
        let proc_losses = read_u32s(&dir.join(format!("rank{old_rank}.losses")));
        assert_eq!(
            &proc_losses[2..],
            &fresh_losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>()[..],
            "post-recovery losses of old rank {old_rank} diverged from the fresh run"
        );
        assert_eq!(
            &params, fresh_params,
            "final parameters diverged from the fresh run"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
