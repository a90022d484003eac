//! One episode = one world launch: bring-up, model build, optional
//! checkpoint restore, warm-up steps, timed steps, teardown.
//!
//! Untraced episodes run the library's own step functions
//! (`dchag_core::train_step` / `train_step_fsdp`). Traced episodes run the
//! same public calls one by one, each inside a span, so the traced loss must
//! equal the untraced loss bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dchag_collectives::{
    run_ranks, run_tcp_ranks, CollOp, Communicator, RankCtx, TcpConfig, TrafficLog,
};
use dchag_core::{build_mae, train_step, train_step_fsdp};
use dchag_model::encoder::EncoderBackbone;
use dchag_model::{clip_global_norm, AdamW, ClimaxModel, MaeModel, TreeConfig, UnitKind};
use dchag_parallel::fsdp::{FsdpBinder, FsdpParams};
use dchag_tensor::checkpoint::{CheckpointDir, SnapshotWriter};
use dchag_tensor::{LocalBinder, MemCounter, ParamId, ParamStore, Rng, Tape};

use crate::inputs::{ClimaxInputs, Inputs, MaeInputs, Plan, BASE_SEED, CLIP, LR, MODEL_SEED};
use crate::trace::{Span, Tracer};

/// How long rank 0's checkpoint commit waits for the other shard.
const COMMIT_DEADLINE: Duration = Duration::from_secs(10);

/// Collective counters read from a rank's [`TrafficLog`] at one instant.
#[derive(Clone, Copy, Debug, Default)]
struct TrafficMark {
    all_gather: usize,
    all_reduce: usize,
    reduce_scatter: usize,
    wire_bytes: usize,
    at_us: f64,
}

impl TrafficMark {
    fn take(log: &TrafficLog) -> Self {
        TrafficMark {
            all_gather: log.count(CollOp::AllGather),
            all_reduce: log.count(CollOp::AllReduce),
            reduce_scatter: log.count(CollOp::ReduceScatter),
            wire_bytes: log.bytes_on_wire(),
            at_us: log.now_us(),
        }
    }
}

/// Collective work during an episode's timed steps (rank 0's log).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Traffic {
    pub all_gather: usize,
    pub all_reduce: usize,
    pub reduce_scatter: usize,
    pub wire_bytes: usize,
    /// Σ(ready − issued) over pipelined chunks: waiting for the slowest rank.
    pub wait_ms: f64,
    /// Σ(done − ready): the copy/reduction itself.
    pub xfer_ms: f64,
}

impl Traffic {
    fn between(log: &TrafficLog, a: TrafficMark, b: TrafficMark) -> Self {
        let (mut wait_us, mut xfer_us) = (0.0, 0.0);
        for ev in log.chunk_events() {
            if ev.issued_us >= a.at_us && ev.done_us <= b.at_us {
                wait_us += ev.ready_us - ev.issued_us;
                xfer_us += ev.done_us - ev.ready_us;
            }
        }
        Traffic {
            all_gather: b.all_gather - a.all_gather,
            all_reduce: b.all_reduce - a.all_reduce,
            reduce_scatter: b.reduce_scatter - a.reduce_scatter,
            wire_bytes: b.wire_bytes - a.wire_bytes,
            wait_ms: wait_us / 1e3,
            xfer_ms: xfer_us / 1e3,
        }
    }
}

/// What the resume found in the checkpoint directory.
#[derive(Clone, Debug)]
pub(crate) struct Resumed {
    pub step: u64,
    pub world: usize,
    pub skipped: usize,
    /// Parameters restored, and parameters the model has.
    pub restored: usize,
    pub params: usize,
}

/// One rank's account of an episode.
pub(crate) struct RankOut {
    pub losses: Vec<f32>,
    /// Wall time of each timed step.
    pub step_ms: Vec<f64>,
    /// Whether each timed step saved a checkpoint.
    pub saved: Vec<bool>,
    pub first_step_at: Instant,
    pub timed_start: Instant,
    /// End of the last timed step, or of the checkpoint drain after it.
    pub timed_end: Instant,
    pub traffic: Traffic,
    pub resumed: Option<Result<Resumed, String>>,
    pub writer_errors: usize,
    /// Reconnect attempts + retransmitted frames this rank's transport
    /// logged up to `timed_end` (teardown excluded).
    pub retries: usize,
    pub spans: Vec<Span>,
}

/// One episode as the run sees it.
pub(crate) struct Episode {
    pub traced: bool,
    pub setup_s: f64,
    /// Rank 0 (all ranks' outputs are checked against it).
    pub rank0: RankOut,
    /// Per-rank `MemCounter::peak` in bytes.
    pub peak_bytes: Vec<usize>,
    pub teardown_ms: f64,
    /// Transport retries up to the end of the timed work, and during teardown.
    pub transport_retries: usize,
    pub teardown_retries: usize,
    /// Bytes of shard files on disk per committed checkpoint (0 when the
    /// workload saves none).
    pub bytes_per_save: f64,
    /// Steps this episode ran (warm-up included), as attempted operations.
    pub attempted: usize,
    /// Gate failures found while assembling the episode.
    pub failures: Vec<String>,
    /// Spans of every rank plus the teardown, for the trace file.
    pub spans: Vec<Span>,
}

/// Fixed context of every episode of a run.
pub(crate) struct Ctx<'a> {
    pub plan: Plan,
    pub inputs: &'a Inputs,
    pub epoch: Instant,
    /// Checkpoint directories: the committed resume point, and where
    /// the episode saves (emptied before each episode).
    pub resume_dir: PathBuf,
    pub save_dir: PathBuf,
}

/// What [`step_loop`] saw on one rank.
struct Loop {
    losses: Vec<f32>,
    step_ms: Vec<f64>,
    saved: Vec<bool>,
    first_step_at: Instant,
    timed_start: Instant,
    marks: (TrafficMark, TrafficMark),
}

/// The loop every rank runs: `step(i, parent_span)` performs step `i`
/// and returns its loss and whether it saved a checkpoint.
fn step_loop(
    tr: &Tracer,
    log: &TrafficLog,
    plan: &Plan,
    mut step: impl FnMut(usize, Option<u64>) -> (f32, bool),
) -> Loop {
    let total = plan.warmup + plan.timed;
    let mut losses = Vec::with_capacity(total);
    let mut step_ms = Vec::with_capacity(plan.timed);
    let mut saved = Vec::with_capacity(plan.timed);
    let first_step_at = Instant::now();
    let mut timed_start = first_step_at;
    let mut start_mark = TrafficMark::default();
    for i in 0..total {
        if i == plan.warmup {
            start_mark = TrafficMark::take(log);
            timed_start = Instant::now();
        }
        tr.set_step(Some(i));
        let open = tr.open();
        let t = Instant::now();
        let (loss, did_save) = step(i, open.id());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        tr.close(open, "step", None);
        losses.push(loss);
        if i >= plan.warmup {
            step_ms.push(ms);
            saved.push(did_save);
        }
    }
    tr.set_step(None);
    let end_mark = TrafficMark::take(log);
    Loop {
        losses,
        step_ms,
        saved,
        first_step_at,
        timed_start,
        marks: (start_mark, end_mark),
    }
}

fn rank_out(
    lp: Loop,
    comm: &Communicator,
    timed_end: Instant,
    resumed: Option<Result<Resumed, String>>,
    writer_errors: usize,
    tr: Tracer,
) -> RankOut {
    let log = comm.traffic();
    // Read the retry counters while every rank is still inside the world,
    // then hold each rank until all have: a peer that shuts down early
    // makes the others' transports log reconnects that belong to teardown.
    let retries = log.reconnect_attempts() + log.retransmitted_frames();
    comm.barrier();
    RankOut {
        traffic: Traffic::between(log, lp.marks.0, lp.marks.1),
        losses: lp.losses,
        step_ms: lp.step_ms,
        saved: lp.saved,
        first_step_at: lp.first_step_at,
        timed_start: lp.timed_start,
        timed_end,
        resumed,
        writer_errors,
        retries,
        spans: tr.into_spans(),
    }
}

// ----- hyperspectral MAE ----------------------------------------------------

fn mae_rank(ctx: RankCtx, c: &Ctx, inp: &MaeInputs, traced: bool, episode: usize) -> RankOut {
    let comm = &ctx.comm;
    let tr = Tracer::new(traced, c.epoch, comm.rank(), episode);
    tr.span("collectives.first_coll", None, || comm.barrier());
    let mut store = ParamStore::new();
    let mut rng = Rng::new(MODEL_SEED);
    if c.plan.world == 1 {
        let model = tr.span("model.build", None, || {
            let tree = TreeConfig::tree0(UnitKind::CrossAttention);
            MaeModel::new(&mut store, &mut rng, &inp.cfg, BASE_SEED, tree)
        });
        mae_steps(tr, comm, &c.plan, inp, store, &model)
    } else {
        let model = tr.span("model.build", None, || {
            let tree = TreeConfig::tree(4, UnitKind::Linear);
            build_mae(&mut store, &mut rng, &inp.cfg, BASE_SEED, tree, comm)
        });
        mae_steps(tr, comm, &c.plan, inp, store, &model)
    }
}

fn mae_steps<E: EncoderBackbone>(
    tr: Tracer,
    comm: &Communicator,
    plan: &Plan,
    inp: &MaeInputs,
    mut store: ParamStore,
    model: &MaeModel<E>,
) -> RankOut {
    let log = comm.traffic();
    let mut opt = AdamW::new(LR);
    let lp = step_loop(&tr, log, plan, |i, parent| {
        let slot = i % inp.batches.len();
        let (imgs, mask) = (&inp.batches[slot], &inp.masks[slot]);
        if !tr.enabled() {
            let loss = train_step(&mut store, &mut opt, CLIP, None, |bind| {
                model.forward_loss(bind, imgs, mask).0
            });
            return (loss, false);
        }
        // `train_step`, one public call per span.
        let (loss, mut grads) = {
            let tape = Tape::new();
            let bind = LocalBinder::new(&tape, &store);
            let loss = tr.span("model.forward", parent, || {
                model.forward_loss(&bind, imgs, mask).0
            });
            let g = tr.span("tensor.backward", parent, || tape.backward(&loss));
            let grads = tr.span("tensor.grads", parent, || bind.grads(&g));
            (loss.value().item(), grads)
        };
        tr.span("model.optim", parent, || {
            clip_global_norm(&mut grads, CLIP);
            opt.step(&mut store, &grads);
        });
        (loss, false)
    });
    let end = Instant::now();
    rank_out(lp, comm, end, None, 0, tr)
}

// ----- ClimaX over FSDP + TCP, with durable checkpoints ----------------------

fn climax_build(comm: &Communicator, inp: &ClimaxInputs) -> (ClimaxModel, FsdpParams) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(MODEL_SEED);
    // Linear aggregation keeps compute small next to the per-parameter
    // TCP gathers and reduce-scatters this workload is meant to expose.
    let tree = TreeConfig::tree0(UnitKind::Linear);
    let model = ClimaxModel::new(&mut store, &mut rng, &inp.cfg, BASE_SEED, tree);
    // The full store is dropped here: each rank keeps only its shards.
    let fsdp = FsdpParams::from_store(&store, comm);
    (model, fsdp)
}

fn climax_step(
    model: &ClimaxModel,
    fsdp: &mut FsdpParams,
    opt: &mut AdamW,
    inp: &ClimaxInputs,
    slot: usize,
    rank: usize,
) -> f32 {
    let (x, y) = &inp.pairs[slot][rank];
    train_step_fsdp(fsdp, opt, CLIP, None, |bind| {
        model.forward_loss(bind, x, y, inp.lead_time).0
    })
}

/// Train `resume_step` steps over a thread world and commit the sharded
/// state (parameters + AdamW moments) at that step: the checkpoint every
/// episode resumes from. Runs before the clock starts.
pub(crate) fn write_resume_checkpoint(inp: &ClimaxInputs, plan: &Plan, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    run_ranks(plan.world, |ctx| {
        let rank = ctx.comm.rank();
        let (model, mut fsdp) = climax_build(&ctx.comm, inp);
        let mut opt = AdamW::new(LR);
        for s in 0..plan.resume_step {
            climax_step(&model, &mut fsdp, &mut opt, inp, s % inp.pairs.len(), rank);
        }
        let step = plan.resume_step as u64;
        let mut snap = fsdp.shard_snapshot(step);
        snap.optim = Some(opt.export_state(&fsdp.shard_store));
        let d = CheckpointDir::open(dir, rank, plan.world).expect("create resume checkpoint dir");
        d.save_shard(&snap).expect("save resume shard");
        ctx.comm.barrier();
        if rank == 0 {
            d.commit(step, COMMIT_DEADLINE)
                .expect("commit resume checkpoint");
        }
        ctx.comm.barrier();
    });
}

/// Resume: newest valid committed step, this rank's shard, AdamW state.
fn restore(
    dir: &Path,
    comm: &Communicator,
    fsdp: &mut FsdpParams,
    opt: &mut AdamW,
) -> Result<Resumed, String> {
    let probe = CheckpointDir::open(dir, comm.rank(), comm.size()).map_err(|e| e.to_string())?;
    let v = probe.latest_valid().map_err(|e| e.to_string())?;
    let snap = probe
        .load_shard(v.step, comm.rank())
        .map_err(|e| e.to_string())?;
    let mut restored = 0;
    for e in &snap.entries {
        // Shard-store slot `i` holds parameter `i`'s shard.
        if let Some(i) = (0..fsdp.len()).find(|&i| fsdp.name(i) == e.name) {
            fsdp.shard_store
                .set(ParamId::from_index(i), e.value.clone());
            restored += 1;
        }
    }
    let optim = snap
        .optim
        .as_ref()
        .ok_or("checkpoint carries no optimizer state")?;
    opt.import_state(&fsdp.shard_store, optim);
    Ok(Resumed {
        step: v.step,
        world: v.world,
        skipped: v.skipped.len(),
        restored,
        params: fsdp.len(),
    })
}

fn climax_rank(ctx: RankCtx, c: &Ctx, inp: &ClimaxInputs, traced: bool, episode: usize) -> RankOut {
    let comm = &ctx.comm;
    let rank = comm.rank();
    let plan = &c.plan;
    let tr = Tracer::new(traced, c.epoch, rank, episode);
    // The first collective pays the lazy TCP connect.
    tr.span("collectives.first_coll", None, || comm.barrier());
    let (model, mut fsdp) = tr.span("model.build", None, || climax_build(comm, inp));
    let mut opt = AdamW::new(LR);
    let resumed = tr.span("checkpoint.restore", None, || {
        restore(&c.resume_dir, comm, &mut fsdp, &mut opt)
    });
    let start = resumed.as_ref().map_or(0, |r| r.step as usize);
    let save_dir = CheckpointDir::open(&c.save_dir, rank, plan.world)
        .expect("create checkpoint save dir")
        .with_retain(2);
    let writer = SnapshotWriter::spawn(save_dir, COMMIT_DEADLINE);
    let mut enqueue_errors = 0;

    let log = comm.traffic();
    let lp = step_loop(&tr, log, plan, |i, parent| {
        let slot = (start + i) % inp.pairs.len();
        let loss = if !tr.enabled() {
            climax_step(&model, &mut fsdp, &mut opt, inp, slot, rank)
        } else {
            // `train_step_fsdp`, one public call per span.
            let (x, y) = &inp.pairs[slot][rank];
            let (loss, mut grads) = {
                let tape = Tape::new();
                let bind = FsdpBinder::new(&tape, &fsdp);
                let loss = tr.span("model.forward", parent, || {
                    model.forward_loss(&bind, x, y, inp.lead_time).0
                });
                let g = tr.span("tensor.backward", parent, || tape.backward(&loss));
                drop(g);
                let grads = tr.span("parallel.sharded_grads", parent, || bind.sharded_grads());
                (loss.value().item(), grads)
            };
            tr.span("model.optim", parent, || {
                clip_global_norm(&mut grads, CLIP);
                opt.step(&mut fsdp.shard_store, &grads);
            });
            loss
        };
        let done = start + i + 1;
        let save = plan.save_every > 0 && done.is_multiple_of(plan.save_every);
        if save {
            let snap = tr.span("checkpoint.snapshot", parent, || {
                let mut snap = fsdp.shard_snapshot(done as u64);
                snap.optim = Some(opt.export_state(&fsdp.shard_store));
                snap
            });
            if tr
                .span("checkpoint.enqueue", parent, || writer.snapshot(snap))
                .is_err()
            {
                enqueue_errors += 1;
            }
        }
        (loss, save)
    });
    // The checkpoint is not durable until the writer drains: the drain
    // belongs to the timed work.
    let drained = tr.span("checkpoint.drain", None, || writer.flush());
    let end = Instant::now();
    let writer_errors = enqueue_errors + writer.take_errors().len() + usize::from(drained.is_err());
    rank_out(lp, comm, end, Some(resumed), writer_errors, tr)
}

// ----- episode launcher ------------------------------------------------------

/// Launch one world, run one episode, and collect what every rank saw.
pub(crate) fn episode(c: &Ctx, traced: bool, index: usize) -> Episode {
    let plan = c.plan;
    let (launched, outputs, mems, retries) = match c.inputs {
        Inputs::Mae(inp) => {
            let launched = Instant::now();
            let run = run_ranks(plan.world, |ctx| mae_rank(ctx, c, inp, traced, index));
            let outputs = run.outputs.into_iter().map(Ok).collect();
            (launched, outputs, run.mems, 0)
        }
        Inputs::Climax(inp) => {
            let _ = std::fs::remove_dir_all(&c.save_dir);
            let launched = Instant::now();
            let run = run_tcp_ranks(plan.world, TcpConfig::default(), |ctx| {
                climax_rank(ctx, c, inp, traced, index)
            });
            let retries = run
                .traffic
                .iter()
                .map(|l| l.reconnect_attempts() + l.retransmitted_frames())
                .sum();
            (launched, run.outputs, run.mems, retries)
        }
    };
    let returned = Instant::now();
    assemble(
        c, traced, index, launched, returned, outputs, &mems, retries,
    )
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    c: &Ctx,
    traced: bool,
    index: usize,
    launched: Instant,
    returned: Instant,
    outputs: Vec<Result<RankOut, String>>,
    mems: &[Arc<MemCounter>],
    all_retries: usize,
) -> Episode {
    let plan = c.plan;
    let attempted = plan.warmup + plan.timed;
    let mut failures = Vec::new();
    let mut ranks = Vec::with_capacity(outputs.len());
    for (r, out) in outputs.into_iter().enumerate() {
        match out {
            Ok(o) => ranks.push(o),
            Err(e) => failures.push(format!("rank {r} failed: {e}")),
        }
    }
    if ranks.len() != plan.world {
        // A rank died: nothing to time, every step failed.
        let rank0 = RankOut {
            losses: vec![f32::NAN],
            step_ms: Vec::new(),
            saved: Vec::new(),
            first_step_at: returned,
            timed_start: returned,
            timed_end: returned,
            traffic: Traffic::default(),
            resumed: None,
            writer_errors: 0,
            retries: 0,
            spans: Vec::new(),
        };
        return Episode {
            traced,
            setup_s: 0.0,
            rank0,
            peak_bytes: mems.iter().map(|m| m.peak()).collect(),
            teardown_ms: 0.0,
            transport_retries: all_retries,
            teardown_retries: 0,
            bytes_per_save: 0.0,
            attempted,
            failures,
            spans: Vec::new(),
        };
    }

    let losses = &ranks[0].losses;
    // Gate: every rank of a replicated-loss world reports the same loss.
    if let Inputs::Mae(_) = c.inputs {
        for (r, o) in ranks.iter().enumerate().skip(1) {
            let diverged = (0..losses.len().max(o.losses.len())).find(|&k| {
                o.losses.get(k).map(|l| l.to_bits()) != losses.get(k).map(|l| l.to_bits())
            });
            if let Some(k) = diverged {
                failures.push(format!(
                    "rank {r} loss differs from rank 0 from step {k}: {:?} vs {:?}",
                    o.losses.get(k),
                    losses.get(k)
                ));
            }
        }
    }
    // Gates of the checkpointing workload.
    let mut bytes_per_save = 0.0;
    let writer_errors: usize = ranks.iter().map(|o| o.writer_errors).sum();
    if plan.resume_step > 0 {
        for (r, o) in ranks.iter().enumerate() {
            match &o.resumed {
                Some(Ok(v)) => {
                    if v.step != plan.resume_step as u64
                        || v.world != plan.world
                        || v.skipped != 0
                        || v.restored != v.params
                    {
                        failures.push(format!("rank {r} resumed wrongly: {v:?}"));
                    }
                }
                Some(Err(e)) => failures.push(format!("rank {r} resume failed: {e}")),
                None => failures.push(format!("rank {r} did not resume")),
            }
        }
        if writer_errors != 0 {
            failures.push(format!("{writer_errors} checkpoint writer errors"));
        }
        match saved_checkpoints(&c.save_dir, &plan) {
            Ok(b) => bytes_per_save = b,
            Err(e) => failures.push(e),
        }
    }
    let transport_retries: usize = ranks.iter().map(|o| o.retries).sum();
    if transport_retries != 0 {
        failures.push(format!("{transport_retries} transport retries"));
    }

    let mut spans: Vec<Span> = ranks
        .iter_mut()
        .flat_map(|o| std::mem::take(&mut o.spans))
        .collect();
    let rank0 = ranks.swap_remove(0);
    let to_us = |t: Instant| t.duration_since(c.epoch).as_secs_f64() * 1e6;
    if traced {
        spans.push(Span {
            id: u64::MAX - index as u64,
            parent: None,
            name: "collectives.teardown",
            rank: 0,
            episode: index,
            step: None,
            start_us: to_us(rank0.timed_end),
            end_us: to_us(returned),
        });
    }
    Episode {
        traced,
        setup_s: rank0.first_step_at.duration_since(launched).as_secs_f64(),
        peak_bytes: mems.iter().map(|m| m.peak()).collect(),
        teardown_ms: returned.duration_since(rank0.timed_end).as_secs_f64() * 1e3,
        rank0,
        transport_retries,
        teardown_retries: all_retries - transport_retries,
        bytes_per_save,
        attempted,
        failures,
        spans,
    }
}

/// Check the episode's saves on disk: the newest valid committed step is
/// the last one saved, nothing was skipped, and report the shard bytes
/// per committed step.
fn saved_checkpoints(dir: &Path, plan: &Plan) -> Result<f64, String> {
    let last_step = plan.resume_step + plan.warmup + plan.timed;
    let expect = (last_step / plan.save_every * plan.save_every) as u64;
    let d = CheckpointDir::open(dir, 0, plan.world).map_err(|e| e.to_string())?;
    let v = d
        .latest_valid()
        .map_err(|e| format!("saved checkpoints unreadable: {e}"))?;
    if v.step != expect || !v.skipped.is_empty() {
        return Err(format!(
            "newest valid save is step {} (want {expect}), skipped {:?}",
            v.step, v.skipped
        ));
    }
    let committed = d.committed_steps().map_err(|e| e.to_string())?.len().max(1);
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name().to_string_lossy().ends_with(".ckpt") {
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(bytes as f64 / committed as f64)
}
