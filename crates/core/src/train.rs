//! Training-step orchestration: local, data-parallel, and FSDP variants
//! (the hybrid compositions of paper §3.4), plus the fault-tolerant
//! [`resilient_train_loop`] driver (checkpoint → detect → regroup →
//! restore → continue).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dchag_collectives::{comm_error_of, CommError, Communicator};
use dchag_model::{clip_global_norm, AdamW};
use dchag_parallel::dp::DataParallel;
use dchag_parallel::fsdp::{FsdpBinder, FsdpParams};
use dchag_tensor::checkpoint::{
    apply_entries, content_digest, merge_shards, CheckpointDir, CheckpointError, DiskFaultPlan,
    Snapshot, SnapshotWriter,
};
use dchag_tensor::prelude::*;

/// Hyper-parameters of a training run.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub lr: f32,
    pub weight_decay: f32,
    pub clip: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lr: 1e-3,
            weight_decay: 0.01,
            clip: 1.0,
        }
    }
}

impl TrainConfig {
    pub fn optimizer(&self) -> AdamW {
        AdamW::new(self.lr).with_weight_decay(self.weight_decay)
    }
}

/// One optimizer step with locally-held parameters. `forward` builds the
/// loss on the given binder; gradients are optionally DP-synchronized,
/// clipped, and applied. Returns the loss value.
pub fn train_step<F>(
    store: &mut ParamStore,
    opt: &mut AdamW,
    clip: f32,
    dp: Option<&DataParallel>,
    forward: F,
) -> f32
where
    F: FnOnce(&LocalBinder) -> Var,
{
    let (loss_value, mut pg) = {
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, store);
        let loss = forward(&bind);
        let grads = tape.backward(&loss);
        (loss.value().item(), bind.grads(&grads))
    };
    if let Some(dp) = dp {
        dp.sync_grads(&mut pg);
    }
    clip_global_norm(&mut pg, clip);
    opt.step(store, &pg);
    loss_value
}

/// One optimizer step with FSDP-sharded parameters. The forward gathers
/// shards on demand; the backward reduce-scatters gradients; the optimizer
/// updates shards only. An optional DP group layers replica averaging on
/// top (sharded grads are synchronized across DP peers holding the same
/// shard index).
pub fn train_step_fsdp<F>(
    fsdp: &mut FsdpParams,
    opt: &mut AdamW,
    clip: f32,
    dp: Option<&DataParallel>,
    forward: F,
) -> f32
where
    F: FnOnce(&FsdpBinder) -> Var,
{
    let (loss_value, mut pg) = {
        let tape = Tape::new();
        let bind = FsdpBinder::new(&tape, fsdp);
        let loss = forward(&bind);
        let grads = tape.backward(&loss);
        drop(grads);
        (loss.value().item(), bind.sharded_grads())
    };
    if let Some(dp) = dp {
        dp.sync_grads(&mut pg);
    }
    clip_global_norm(&mut pg, clip);
    opt.step(&mut fsdp.shard_store, &pg);
    loss_value
}

/// Configuration of the durable (on-disk) recovery tier: where checkpoints
/// live and how the [`CheckpointDir`] protocol is parameterized.
#[derive(Clone, Debug)]
pub struct DurableConfig {
    /// Shared directory all ranks save shards into (one per run).
    pub dir: PathBuf,
    /// Committed steps kept by garbage collection.
    pub retain: usize,
    /// Process-grid axes recorded in each manifest.
    pub grid: Vec<usize>,
    /// Deterministic disk fault injection (tests only; armed on the
    /// background writer's directory handle, counters reset per regroup).
    pub faults: DiskFaultPlan,
    /// How long rank 0's commit waits for the other ranks' shard files.
    pub commit_deadline: Duration,
}

impl DurableConfig {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            retain: 2,
            grid: Vec::new(),
            faults: DiskFaultPlan::none(),
            commit_deadline: Duration::from_secs(10),
        }
    }
}

/// Knobs of the [`resilient_train_loop`] recovery driver.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Snapshot the parameter store every `checkpoint_every` completed
    /// steps (an in-memory per-rank checkpoint; step 0 is always saved).
    pub checkpoint_every: usize,
    /// How many failed regroup attempts to tolerate before giving up.
    pub max_retries: usize,
    /// Base delay between regroup retries (doubles per attempt).
    pub backoff: Duration,
    /// Deadline handed to [`Communicator::regroup`]: peers missing past it
    /// are declared failed too.
    pub regroup_deadline: Duration,
    /// Optional durable tier: every in-memory checkpoint is also handed to
    /// a background [`SnapshotWriter`] over a [`CheckpointDir`], and on
    /// launch the loop resumes from the newest valid on-disk checkpoint —
    /// this is what survives *total* loss (all ranks killed, host reboot).
    pub durable: Option<DurableConfig>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            checkpoint_every: 10,
            max_retries: 3,
            backoff: Duration::from_millis(10),
            regroup_deadline: Duration::from_secs(2),
            durable: None,
        }
    }
}

/// How [`resilient_train_loop_with`] reaches the optimizer and RNG inside
/// the caller's opaque model state `M`, so checkpoints can carry AdamW
/// moments and the data-order RNG. Plain `fn` pointers:
/// the default (`None`) keeps the params-only behaviour of
/// [`resilient_train_loop`].
pub struct StateAccess<M> {
    pub optimizer: Option<fn(&mut M) -> &mut AdamW>,
    pub rng: Option<fn(&mut M) -> &mut Rng>,
}

impl<M> Default for StateAccess<M> {
    fn default() -> Self {
        StateAccess {
            optimizer: None,
            rng: None,
        }
    }
}

impl<M> Clone for StateAccess<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for StateAccess<M> {}

/// Identity of the checkpoint a recovery restored from: the step it was
/// taken at and the [`content_digest`] of its serialized (format-v2)
/// bytes — enough for an external reference run to prove bitwise-equal
/// state without the report hauling the full checkpoint around. (A CRC of
/// the whole file would not do: it is the same residue for every valid
/// checkpoint.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestorePoint {
    pub step: usize,
    pub digest: u32,
}

/// What a survivor's [`resilient_train_loop`] can report back.
pub struct ResilientReport {
    /// Per-step losses of the steps that *count* — steps rolled back by a
    /// recovery are truncated and replaced by their replay.
    pub losses: Vec<f32>,
    /// Completed detect→regroup→restore cycles.
    pub recoveries: usize,
    /// Wall time of each recovery cycle, µs.
    pub recovery_us: Vec<f64>,
    /// Identity of the checkpoint the most recent recovery restored from
    /// (`None` if the run never failed). A fresh run launched with the
    /// survivor world from exactly this checkpoint must reproduce
    /// `losses[step..]` bitwise — the acceptance test of the regroup path.
    pub restored_from: Option<RestorePoint>,
    /// Step the loop *started* at after resuming from the durable tier
    /// (`None` when no valid on-disk checkpoint existed at launch).
    pub resumed_at: Option<usize>,
    /// Durable-tier incidents: on-disk steps skipped as corrupt during
    /// newest-valid selection at launch, plus any background-writer save
    /// or commit failures, each with its typed cause. Empty means every
    /// durable checkpoint written and read back cleanly.
    pub durable_skipped: Vec<(u64, CheckpointError)>,
    /// World size at exit (shrinks by one per dead rank).
    pub final_world: usize,
    /// The communicator the run finished on (post-regroup survivors use
    /// this for anything after training).
    pub comm: Communicator,
    /// Final parameter store.
    pub store: ParamStore,
}

/// Fault-tolerant training driver: runs `steps` optimizer steps of
/// `step_fn`, checkpointing every [`ResilienceConfig::checkpoint_every`]
/// steps, and on a detected peer failure regroups the survivors, rebuilds
/// model state over the shrunk world via `build`, restores the last
/// checkpoint, and replays from there.
///
/// `build(comm)` constructs the rank's parameter store and whatever model /
/// optimizer / DP state `step_fn` needs (`M`); it is re-invoked after every
/// regroup, so optimizer moments restart fresh at the restored step — the
/// same convention as checkpoint-resume (params-only checkpoints). Use
/// [`resilient_train_loop_with`] and a [`StateAccess`] to carry optimizer
/// moments and RNG state through checkpoints instead. For the replay to be
/// bitwise faithful, `build` and `step_fn` must depend only on `comm` and
/// the step index, not on ambient state.
///
/// Failure semantics:
/// * A step that unwinds with a typed comm cause ([`comm_error_of`]) starts
///   a recovery: regroup under [`ResilienceConfig::regroup_deadline`] with
///   [`ResilienceConfig::max_retries`] exponential-backoff attempts, then
///   restore and replay. `Err` is returned only when this rank was itself
///   evicted (its peers' deadline expired first) or the retry budget ran
///   out.
/// * Any other panic — a genuine bug in model code — is re-raised
///   unchanged.
pub fn resilient_train_loop<M, B, F>(
    world: &Communicator,
    rcfg: &ResilienceConfig,
    steps: usize,
    build: B,
    step_fn: F,
) -> Result<ResilientReport, CommError>
where
    B: FnMut(&Communicator) -> (ParamStore, M),
    F: FnMut(&mut ParamStore, &mut M, &Communicator, usize) -> f32,
{
    resilient_train_loop_with(world, rcfg, steps, StateAccess::default(), build, step_fn)
}

/// [`resilient_train_loop`] with [`StateAccess`] accessors: checkpoints
/// (both the in-memory tier and the durable [`CheckpointDir`] tier) carry
/// AdamW moments and RNG state alongside parameters, so a
/// restore — after a regroup *or* from disk after total loss — continues
/// the exact optimizer trajectory instead of silently resetting moments.
///
/// With [`ResilienceConfig::durable`] set, the loop additionally:
/// * resumes at launch from the newest *valid* on-disk checkpoint
///   (corrupt or torn newer steps are skipped with typed causes in
///   [`ResilientReport::durable_skipped`]); a checkpoint saved by a
///   different world size restores parameters via [`merge_shards`]
///   reshard-on-load (optimizer/RNG sections are shard-local and only
///   restored on a world-size match);
/// * hands every in-memory checkpoint to a background [`SnapshotWriter`]
///   (clone-on-snapshot, O(1) per tensor) — the training step never
///   blocks on checkpoint I/O, and rank 0 commits each step's manifest
///   once all shards are on disk.
pub fn resilient_train_loop_with<M, B, F>(
    world: &Communicator,
    rcfg: &ResilienceConfig,
    steps: usize,
    access: StateAccess<M>,
    mut build: B,
    mut step_fn: F,
) -> Result<ResilientReport, CommError>
where
    B: FnMut(&Communicator) -> (ParamStore, M),
    F: FnMut(&mut ParamStore, &mut M, &Communicator, usize) -> f32,
{
    assert!(
        rcfg.checkpoint_every > 0,
        "checkpoint_every must be positive"
    );
    let take_snapshot = |store: &ParamStore, model: &mut M, step: usize| -> Snapshot {
        let mut snap = Snapshot::of_store(store, step as u64);
        if let Some(get_opt) = access.optimizer {
            snap.optim = Some(get_opt(model).export_state(store));
        }
        if let Some(get_rng) = access.rng {
            snap.rng = Some(get_rng(model).state());
        }
        snap
    };
    let restore = |snap: &Snapshot, store: &mut ParamStore, model: &mut M| {
        snap.apply_to(store)
            .expect("checkpoint restores into rebuilt store");
        if let Some(get_opt) = access.optimizer {
            if let Some(os) = &snap.optim {
                get_opt(model).import_state(store, os);
            }
        }
        if let Some(get_rng) = access.rng {
            if let Some(rs) = &snap.rng {
                *get_rng(model) = Rng::from_state(rs);
            }
        }
    };
    let spawn_writer = |comm: &Communicator, d: &DurableConfig| -> SnapshotWriter {
        let dir = CheckpointDir::open(&d.dir, comm.rank(), comm.size())
            .expect("open durable checkpoint dir")
            .with_retain(d.retain)
            .with_grid(d.grid.clone())
            .with_faults(d.faults.clone());
        SnapshotWriter::spawn(dir, d.commit_deadline)
    };

    let mut comm = world.clone();
    let (mut store, mut model) = build(&comm);
    let mut step = 0usize;
    let mut resumed_at: Option<usize> = None;
    let mut durable_skipped: Vec<(u64, CheckpointError)> = Vec::new();

    // Durable tier, resume side: select the newest checkpoint that survives
    // full validation and restore from it before the first step.
    let mut writer: Option<SnapshotWriter> = None;
    if let Some(d) = &rcfg.durable {
        let probe = CheckpointDir::open(&d.dir, comm.rank(), comm.size())
            .expect("open durable checkpoint dir");
        match probe.latest_valid() {
            Ok(v) => {
                durable_skipped.extend(v.skipped.iter().cloned());
                if v.world == comm.size() {
                    let snap = probe
                        .load_shard(v.step, comm.rank())
                        .expect("validated shard loads");
                    restore(&snap, &mut store, &mut model);
                } else {
                    // World size changed since the save: reassemble full
                    // parameters from all shards (reshard-on-load).
                    let shards = probe
                        .load_all_shards(v.step)
                        .expect("validated shards load");
                    let entries = merge_shards(&shards).expect("validated shards merge");
                    apply_entries(&mut store, &entries)
                        .expect("merged checkpoint restores into rebuilt store");
                }
                step = v.step as usize;
                resumed_at = Some(step);
            }
            Err(CheckpointError::NoValidCheckpoint) => {}
            Err(e) => durable_skipped.push((0, e)),
        }
    }

    let mut mem_ckpt = take_snapshot(&store, &mut model, step);
    let mut checkpoint_step = step;
    if let Some(d) = &rcfg.durable {
        let w = spawn_writer(&comm, d);
        if resumed_at.is_none() {
            // Fresh start: the step-0 state goes to disk like every later
            // checkpoint (resumed runs already have it there).
            if w.snapshot(mem_ckpt.clone()).is_err() {
                durable_skipped.push((step as u64, CheckpointError::WriterDead));
            }
        }
        writer = Some(w);
    }

    let mut losses: Vec<f32> = Vec::with_capacity(steps.saturating_sub(step));
    let mut recoveries = 0usize;
    let mut recovery_us: Vec<f64> = Vec::new();
    let mut restored_from: Option<RestorePoint> = None;
    while step < steps {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            step_fn(&mut store, &mut model, &comm, step)
        }));
        match out {
            Ok(loss) => {
                losses.push(loss);
                step += 1;
                if step.is_multiple_of(rcfg.checkpoint_every) {
                    mem_ckpt = take_snapshot(&store, &mut model, step);
                    checkpoint_step = step;
                    if let Some(w) = &writer {
                        if w.snapshot(mem_ckpt.clone()).is_err() {
                            durable_skipped.push((step as u64, CheckpointError::WriterDead));
                        }
                    }
                }
            }
            Err(payload) => {
                if comm_error_of(payload.as_ref()).is_none() {
                    // Not a comm failure: a real bug must stay loud.
                    std::panic::resume_unwind(payload);
                }
                let t0 = Instant::now();
                let mut attempt = 0u32;
                comm = loop {
                    match comm.regroup(rcfg.regroup_deadline) {
                        Ok(c) => break c,
                        Err(e) => {
                            attempt += 1;
                            if attempt as usize > rcfg.max_retries {
                                return Err(e);
                            }
                            std::thread::sleep(rcfg.backoff * 2u32.pow(attempt - 1));
                        }
                    }
                };
                // Survivor world agreed: rebuild, restore, roll back, replay.
                let (s, m) = build(&comm);
                (store, model) = (s, m);
                restore(&mem_ckpt, &mut store, &mut model);
                losses.truncate(losses.len() - (step - checkpoint_step));
                step = checkpoint_step;
                recoveries += 1;
                recovery_us.push(t0.elapsed().as_secs_f64() * 1e6);
                restored_from = Some(RestorePoint {
                    step: checkpoint_step,
                    digest: content_digest(&mem_ckpt.to_bytes())
                        .expect("a snapshot serialized here parses"),
                });
                // The world shrank: the durable writer must save/commit
                // under the survivor rank numbering and world size.
                if let Some(d) = &rcfg.durable {
                    if let Some(old) = writer.take() {
                        let _ = old.flush();
                        durable_skipped.extend(old.take_errors());
                    }
                    writer = Some(spawn_writer(&comm, d));
                }
            }
        }
    }
    if let Some(w) = writer.take() {
        let _ = w.flush();
        durable_skipped.extend(w.take_errors());
    }
    Ok(ResilientReport {
        losses,
        recoveries,
        recovery_us,
        restored_from,
        resumed_at,
        durable_skipped,
        final_world: comm.size(),
        comm,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_collectives::run_ranks;
    use dchag_model::layers::Linear;
    use dchag_parallel::groups::HybridGroups;
    use dchag_tensor::ops;

    fn model(store: &mut ParamStore) -> Linear {
        let mut rng = Rng::new(5);
        Linear::new(store, &mut rng, "l", 4, 2, true)
    }

    #[test]
    fn local_step_reduces_loss() {
        let mut store = ParamStore::new();
        let lin = model(&mut store);
        let mut opt = AdamW::new(0.05);
        let mut rng = Rng::new(1);
        let x = Tensor::randn([8, 4], 1.0, &mut rng);
        let mut prev = f32::INFINITY;
        for _ in 0..10 {
            let loss = train_step(&mut store, &mut opt, 10.0, None, |bind| {
                let xv = bind.tape().leaf(x.clone());
                let y = lin.forward(bind, &xv);
                bind.tape().mean_all(&bind.tape().mul(&y, &y))
            });
            assert!(loss.is_finite());
            prev = prev.min(loss);
        }
        assert!(prev < 1.0);
    }

    #[test]
    fn dp_replicas_stay_bit_identical() {
        let mut drng = Rng::new(9);
        let shards: Vec<Tensor> = (0..2)
            .map(|_| Tensor::randn([4, 4], 1.0, &mut drng))
            .collect();
        let run = run_ranks(2, |ctx| {
            let dp = DataParallel::new(ctx.comm.clone());
            let mut store = ParamStore::new();
            let lin = model(&mut store);
            let mut opt = AdamW::new(0.05);
            for _ in 0..5 {
                let x = shards[ctx.comm.rank()].clone();
                train_step(&mut store, &mut opt, 10.0, Some(&dp), |bind| {
                    let xv = bind.tape().leaf(x.clone());
                    let y = lin.forward(bind, &xv);
                    bind.tape().mean_all(&bind.tape().mul(&y, &y))
                });
            }
            store
                .iter()
                .flat_map(|(_, _, v)| v.to_vec())
                .collect::<Vec<f32>>()
        });
        assert_eq!(run.outputs[0], run.outputs[1]);
    }

    #[test]
    fn fault_resilient_loop_failure_free_matches_plain_loop() {
        // With no failures injected, the driver is a transparent wrapper:
        // same losses, same parameters, zero recoveries.
        let mut drng = Rng::new(9);
        let data: Vec<Tensor> = (0..2)
            .map(|_| Tensor::randn([4, 4], 1.0, &mut drng))
            .collect();
        let run = run_ranks(2, |ctx| {
            let forward = |lin: &Linear, bind: &LocalBinder, x: &Tensor| {
                let xv = bind.tape().leaf(x.clone());
                let y = lin.forward(bind, &xv);
                bind.tape().mean_all(&bind.tape().mul(&y, &y))
            };
            let (plain_losses, plain_params) = {
                let mut store = ParamStore::new();
                let lin = model(&mut store);
                let dp = DataParallel::new(ctx.comm.clone());
                let mut opt = AdamW::new(0.05);
                let mut losses = Vec::new();
                for _ in 0..4 {
                    let x = data[ctx.comm.rank()].clone();
                    losses.push(train_step(&mut store, &mut opt, 10.0, Some(&dp), |bind| {
                        forward(&lin, bind, &x)
                    }));
                }
                let params: Vec<f32> = store.iter().flat_map(|(_, _, v)| v.to_vec()).collect();
                (losses, params)
            };
            let rcfg = ResilienceConfig {
                checkpoint_every: 2,
                ..Default::default()
            };
            let report = resilient_train_loop(
                &ctx.comm,
                &rcfg,
                4,
                |comm| {
                    let mut store = ParamStore::new();
                    let lin = model(&mut store);
                    (
                        store,
                        (lin, DataParallel::new(comm.clone()), AdamW::new(0.05)),
                    )
                },
                |store, (lin, dp, opt), comm, _step| {
                    let x = data[comm.rank()].clone();
                    train_step(store, opt, 10.0, Some(&*dp), |bind| forward(lin, bind, &x))
                },
            )
            .expect("failure-free run cannot be evicted");
            assert_eq!(report.recoveries, 0);
            assert!(report.restored_from.is_none());
            assert_eq!(report.final_world, 2);
            let params: Vec<f32> = report
                .store
                .iter()
                .flat_map(|(_, _, v)| v.to_vec())
                .collect();
            (plain_losses == report.losses, plain_params == params)
        });
        for (losses_eq, params_eq) in run.outputs {
            assert!(losses_eq && params_eq, "wrapper must be transparent");
        }
    }

    #[test]
    fn fsdp_step_runs_within_hybrid_grid() {
        // 4 ranks = FSDP 2 × DP 2 (TP = 1): shard within FSDP groups,
        // average across DP groups.
        let mut drng = Rng::new(9);
        let data: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn([4, 4], 1.0, &mut drng))
            .collect();
        let run = run_ranks(4, |ctx| {
            let g = HybridGroups::build(&ctx.comm, 1, 2, 2);
            let mut store = ParamStore::new();
            let lin = model(&mut store);
            let mut fsdp = FsdpParams::from_store(&store, &g.fsdp);
            let dp = DataParallel::new(g.dp.clone());
            let mut opt = AdamW::new(0.05);
            let mut last = 0.0;
            for _ in 0..3 {
                let x = data[ctx.comm.rank()].clone();
                last = train_step_fsdp(&mut fsdp, &mut opt, 10.0, Some(&dp), |bind| {
                    let xv = bind.tape().leaf(x.clone());
                    let y = lin.forward(bind, &xv);
                    bind.tape().mean_all(&bind.tape().mul(&y, &y))
                });
            }
            // reconstruct full params
            let full: Vec<f32> = (0..fsdp.len())
                .flat_map(|i| fsdp.gather_full(i).to_vec())
                .collect();
            (last, full)
        });
        // all ranks converge to the same full parameters
        let reference = &run.outputs[0].1;
        for (l, full) in &run.outputs {
            assert!(l.is_finite());
            let d = ops::sub(
                &Tensor::from_vec(full.clone(), [full.len()]),
                &Tensor::from_vec(reference.clone(), [reference.len()]),
            )
            .max_abs();
            assert!(d < 1e-5, "replicas diverged by {d}");
        }
    }
}
