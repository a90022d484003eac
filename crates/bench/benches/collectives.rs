//! Collectives benchmarks: rendezvous overhead per op, plus the
//! blocking-vs-pipelined comparison that *measures* the comm/compute
//! overlap the nonblocking chunked engine buys.
//!
//! Overlap scenarios use rank-heterogeneous compute (odd ranks do twice the
//! work — the ragged shapes of hierarchical aggregation trees), because
//! that is where a blocking rendezvous hurts: every round stalls at the
//! slowest rank, then pays the reduction on top. The pipelined variant
//! issues first, computes, then waits — so fast ranks drain the chunk
//! pipeline inside the window where they would otherwise idle.
//!
//! The `emit_collectives_json` target refreshes the `collectives` section
//! of `BENCH_kernels.json` (section-wise splice; the `kernels` bench owns
//! the other sections) with blocking/pipelined wall clocks, the measured
//! overlap fraction, wire bytes, and the FSDP-vs-DP bitwise-parity verdict.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dchag_bench::bench_json::update_sections;
use dchag_collectives::{run_ranks, RankCtx};
use dchag_model::AdamW;
use dchag_parallel::dp::DataParallel;
use dchag_parallel::fsdp::{FsdpBinder, FsdpParams};
use dchag_perf::comm::overlap_fraction;
use dchag_tensor::prelude::*;
use dchag_tensor::{ops, Tensor};

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    for &world in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("world", world), &world, |bench, &w| {
            bench.iter(|| {
                let run = run_ranks(w, |ctx| {
                    let t = Tensor::full([1024], ctx.comm.rank() as f32);
                    // several rounds per launch to amortize thread spawn
                    let mut out = 0.0;
                    for _ in 0..8 {
                        out = ctx.comm.all_reduce_sum(&t).at(0);
                    }
                    out
                });
                black_box(run.outputs)
            })
        });
    }
    g.finish();
}

fn bench_allgather_payload(c: &mut Criterion) {
    let mut g = c.benchmark_group("allgather_payload");
    for &len in &[256usize, 4096, 65536] {
        g.bench_with_input(BenchmarkId::new("f32", len), &len, |bench, &n| {
            bench.iter(|| {
                let run = run_ranks(4, move |ctx| {
                    let t = Tensor::full([n], ctx.comm.rank() as f32);
                    let mut total = 0usize;
                    for _ in 0..4 {
                        total = ctx.comm.all_gather_cat(&t, 0).numel();
                    }
                    total
                });
                black_box(run.outputs)
            })
        });
    }
    g.finish();
}

fn bench_split(c: &mut Criterion) {
    c.bench_function("split_8_ranks_into_grid", |bench| {
        bench.iter(|| {
            let run = run_ranks(8, |ctx| {
                let tp = ctx.comm.split(ctx.comm.rank() / 2);
                let dp = ctx.comm.split(ctx.comm.rank() % 2);
                (tp.size(), dp.size())
            });
            black_box(run.outputs)
        })
    });
}

// ----- overlap scenarios -----------------------------------------------------

/// Payload for the overlap microbenches: 1 MiB of f32 = 16 pipeline chunks.
const OVERLAP_ELEMS: usize = 256 * 1024;
/// Rounds per world launch (amortizes thread spawn).
const OVERLAP_ROUNDS: usize = 6;

/// Rank-heterogeneous busywork: odd ranks run 2× the GEMMs (below the
/// parallel-dispatch gate, so each stays on its rank's thread).
fn ragged_compute(rank: usize, a: &Tensor, b: &Tensor) -> f32 {
    let reps = 4 * (1 + rank % 2);
    let mut acc = 0.0;
    for _ in 0..reps {
        acc += ops::matmul(a, b).at(0);
    }
    acc
}

fn compute_inputs() -> (Tensor, Tensor) {
    let mut rng = Rng::new(42);
    (
        Tensor::randn([64, 64], 1.0, &mut rng),
        Tensor::randn([64, 64], 1.0, &mut rng),
    )
}

/// One world launch of the all-reduce overlap scenario. `pipelined` selects
/// issue→compute→wait vs compute→blocking-collective; `comm`/`compute`
/// toggle the two legs so the same function also measures each in
/// isolation.
fn allreduce_rounds(world: usize, pipelined: bool, comm: bool, compute: bool) -> f64 {
    let t0 = std::time::Instant::now();
    let run = run_ranks(world, |ctx| {
        let (a, b) = compute_inputs();
        let t = Tensor::full([OVERLAP_ELEMS], (ctx.comm.rank() + 1) as f32);
        let mut sink = 0.0f32;
        for _ in 0..OVERLAP_ROUNDS {
            match (comm, compute, pipelined) {
                (true, true, true) => {
                    let req = ctx.comm.iall_reduce_sum(&t);
                    sink += ragged_compute(ctx.comm.rank(), &a, &b);
                    sink += req.wait().at(0);
                }
                (true, true, false) => {
                    sink += ragged_compute(ctx.comm.rank(), &a, &b);
                    sink += ctx.comm.all_reduce_sum(&t).at(0);
                }
                (true, false, _) => sink += ctx.comm.all_reduce_sum(&t).at(0),
                (false, true, _) => sink += ragged_compute(ctx.comm.rank(), &a, &b),
                (false, false, _) => {}
            }
        }
        black_box(sink)
    });
    black_box(run.outputs);
    t0.elapsed().as_secs_f64() * 1e9
}

/// Same shape for reduce-scatter; `compute = false` measures the comm leg
/// alone (the overlap-fraction denominator).
fn reduce_scatter_rounds(world: usize, pipelined: bool, compute: bool) -> f64 {
    let t0 = std::time::Instant::now();
    let run = run_ranks(world, |ctx| {
        let (a, b) = compute_inputs();
        let n = OVERLAP_ELEMS / world * world;
        let t = Tensor::full([n], (ctx.comm.rank() + 1) as f32);
        let mut sink = 0.0f32;
        for _ in 0..OVERLAP_ROUNDS {
            if pipelined && compute {
                let req = ctx.comm.ireduce_scatter_sum(&t);
                sink += ragged_compute(ctx.comm.rank(), &a, &b);
                sink += req.wait().at(0);
            } else {
                if compute {
                    sink += ragged_compute(ctx.comm.rank(), &a, &b);
                }
                sink += ctx.comm.reduce_scatter_sum(&t).at(0);
            }
        }
        black_box(sink)
    });
    black_box(run.outputs);
    t0.elapsed().as_secs_f64() * 1e9
}

fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives_overlap");
    for &world in &[2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("allreduce_blocking", world), &world, |b, &w| {
            b.iter(|| black_box(allreduce_rounds(w, false, true, true)))
        });
        g.bench_with_input(BenchmarkId::new("allreduce_pipelined", world), &world, |b, &w| {
            b.iter(|| black_box(allreduce_rounds(w, true, true, true)))
        });
    }
    g.bench_function("reduce_scatter_blocking_w4", |b| {
        b.iter(|| black_box(reduce_scatter_rounds(4, false, true)))
    });
    g.bench_function("reduce_scatter_pipelined_w4", |b| {
        b.iter(|| black_box(reduce_scatter_rounds(4, true, true)))
    });
    g.finish();
}

// ----- fault tolerance -------------------------------------------------------

use dchag_collectives::{run_ranks_faulty, Communicator, FaultPlan, FaultPoint};
use dchag_core::{resilient_train_loop, train_step, ResilienceConfig};
use dchag_model::Linear;
use std::time::{Duration, Instant};

const FT_ELEMS: usize = 64 * 1024;
const FT_ROUNDS: usize = 128;

/// N allreduce rounds through either the infallible `wait()` path or the
/// deadline-checked `try_wait(Some(..))` path. The ratio of the two is the
/// failure-free cost of detection (acceptance: ≤ 1% overhead). Only the
/// round loop is timed — barriers fence out world spawn and teardown, and
/// the slowest rank's clock is the wall that matters.
fn allreduce_ft_rounds(world: usize, deadline_checked: bool) -> f64 {
    let run = run_ranks(world, |ctx| {
        let t = Tensor::full([FT_ELEMS], (ctx.comm.rank() + 1) as f32);
        let mut sink = 0.0f32;
        ctx.comm.barrier();
        let t0 = Instant::now();
        for _ in 0..FT_ROUNDS {
            sink += if deadline_checked {
                ctx.comm
                    .try_all_reduce_sum(&t, Some(Duration::from_secs(1)))
                    .expect("no faults injected")
                    .at(0)
            } else {
                ctx.comm.all_reduce_sum(&t).at(0)
            };
        }
        ctx.comm.barrier();
        black_box(sink);
        t0.elapsed().as_secs_f64() * 1e9
    });
    run.outputs.iter().fold(0.0f64, |a, &b| a.max(b))
}

/// Failure-detection latency: rank 1 of a 2-rank world dies before its
/// first deposit; returns how long rank 0's deadline-checked allreduce took
/// to surface the typed error, in µs.
fn detection_latency_us() -> f64 {
    let plan = FaultPlan::kill(1, FaultPoint::BeforeIssue(0));
    let run = run_ranks_faulty(2, &plan, |ctx| {
        let t = Tensor::full([FT_ELEMS], 1.0);
        let t0 = Instant::now();
        let r = ctx.comm.try_all_reduce_sum(&t, Some(Duration::from_secs(5)));
        assert!(r.is_err(), "peer death must surface");
        t0.elapsed().as_secs_f64() * 1e6
    });
    run.outputs[0].as_ref().ok().copied().unwrap_or(f64::NAN)
}

type FtModel = (Linear, DataParallel, dchag_model::AdamW);

fn ft_build(comm: &Communicator) -> (ParamStore, FtModel) {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(5);
    let lin = Linear::new(&mut store, &mut rng, "l", 16, 4, true);
    (store, (lin, DataParallel::new(comm.clone()), AdamW::new(0.05)))
}

fn ft_step(store: &mut ParamStore, m: &mut FtModel, batch: &Tensor) -> f32 {
    let (lin, dp, opt) = m;
    let x = dp.shard_batch(batch);
    train_step(store, opt, 10.0, Some(dp), |bind| {
        let tape = bind.tape();
        let xv = tape.leaf(x.clone());
        let y = lin.forward(bind, &xv);
        tape.mean_all(&tape.mul(&y, &y))
    })
}

/// End-to-end time of one detect→regroup→restore cycle: a 4-rank DP run
/// loses rank 2 in step 3 and recovers onto 3 survivors from the step-2
/// checkpoint. Returns the slowest survivor's recovery wall, in µs.
fn time_to_recover_us() -> f64 {
    let batches: Vec<Tensor> = {
        let mut rng = Rng::new(41);
        (0..6).map(|_| Tensor::randn([12, 16], 1.0, &mut rng)).collect()
    };
    let plan = FaultPlan::kill(2, FaultPoint::BeforeIssue(3));
    let rcfg = ResilienceConfig {
        checkpoint_every: 2,
        regroup_deadline: Duration::from_secs(2),
        ..ResilienceConfig::default()
    };
    let run = run_ranks_faulty(4, &plan, |ctx| {
        let report = resilient_train_loop(&ctx.comm, &rcfg, 6, ft_build, |store, m, _c, i| {
            ft_step(store, m, &batches[i])
        })
        .expect("survivors recover");
        report.recovery_us.first().copied().unwrap_or(f64::NAN)
    });
    run.outputs.iter().filter_map(|o| o.as_ref().ok()).fold(0.0f64, |a, &b| a.max(b))
}

fn bench_fault_tolerance(c: &mut Criterion) {
    let mut g = c.benchmark_group("fault_tolerance");
    g.bench_function("allreduce_infallible_w4", |b| {
        b.iter(|| black_box(allreduce_ft_rounds(4, false)))
    });
    g.bench_function("allreduce_deadline_checked_w4", |b| {
        b.iter(|| black_box(allreduce_ft_rounds(4, true)))
    });
    g.bench_function("detection_latency_w2", |b| b.iter(|| black_box(detection_latency_us())));
    g.finish();
}

// ----- parity checks + JSON emitter ------------------------------------------

/// The criterion shim's positional filter skips *benchmark ids*, but the
/// emitter targets below never register one — without this guard a
/// filtered run (e.g. CI's `-- fault_tolerance --test`) would still pay
/// for every emitter. Mirrors the shim's substring semantics.
fn emitter_enabled(name: &str) -> bool {
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    filter.is_none_or(|f| name.contains(&f))
}

/// FSDP: a unit-sharded step with the loss pre-scaled by 1/world must
/// reproduce the DP step's (`sync_grads` after backward) post-step
/// parameters bitwise (the check `tests/overlap.rs` makes at 2 and 4
/// ranks: a power-of-two rescale of the same rank-order sums, and AdamW is
/// elementwise on either layout). The model is eight 96-wide GELU layers;
/// rank r trains on `8·(1+r)` rows.
fn fsdp_parity(world: usize) -> bool {
    const DIM: usize = 96;
    let run = run_ranks(world, |ctx| {
        let mut rng = Rng::new(17);
        let mut store = ParamStore::new();
        let layers: Vec<(ParamId, ParamId)> = (0..8)
            .map(|i| {
                (
                    store.add(format!("w{i}"), Tensor::randn([DIM, DIM], 0.3, &mut rng)),
                    store.add(format!("b{i}"), Tensor::randn([DIM], 0.3, &mut rng)),
                )
            })
            .collect();
        let mut fsdp = FsdpParams::from_store(&store, &ctx.comm);
        let rank = ctx.comm.rank();
        let x = Tensor::randn([8 * (1 + rank), DIM], 1.0, &mut Rng::new(900 + rank as u64));
        let forward = |bind: &dyn Binder, tape: &Tape| {
            let mut h = tape.leaf(x.clone());
            for &(w, b) in &layers {
                h = tape.add_bias_gelu(&tape.matmul(&h, &bind.bind(w)), &bind.bind(b));
            }
            tape.mean_all(&tape.mul(&h, &h))
        };

        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let loss = forward(&bind, &tape);
        let grads = tape.backward(&loss);
        let mut dp_grads = bind.grads(&grads);
        DataParallel::new(ctx.comm.clone()).sync_grads(&mut dp_grads);
        AdamW::new(0.01).step(&mut store, &dp_grads);

        let tape = Tape::new();
        let bind = FsdpBinder::new(&tape, &fsdp);
        let loss = forward(&bind, &tape);
        let loss = tape.scale(&loss, 1.0 / ctx.comm.size() as f32);
        let _ = tape.backward(&loss);
        let fsdp_grads = bind.sharded_grads();
        AdamW::new(0.01).step(&mut fsdp.shard_store, &fsdp_grads);

        let same = store
            .iter()
            .enumerate()
            .all(|(i, (_, _, v))| fsdp.gather_full(i).to_vec() == v.to_vec());
        same
    });
    run.outputs.into_iter().all(|ok| ok)
}

/// Median of a few world launches (each already multi-round).
fn median_run(mut f: impl FnMut() -> f64, quick: bool) -> f64 {
    if quick {
        return f();
    }
    let mut ns: Vec<f64> = (0..5).map(|_| f()).collect();
    ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ns[ns.len() / 2]
}

/// Wire bytes one pipelined all-reduce scenario moves (from the traffic
/// log's chunk accounting).
fn measured_wire_bytes(world: usize) -> usize {
    let run = run_ranks(world, |ctx| {
        let t = Tensor::full([OVERLAP_ELEMS], 1.0);
        let _ = ctx.comm.iall_reduce_sum(&t).wait();
        ctx.comm.barrier();
        ctx.comm.traffic().bytes_on_wire()
    });
    run.outputs[0]
}

/// Refresh the `collectives` section of `BENCH_kernels.json`: blocking vs
/// pipelined wall clocks, measured overlap fraction, wire bytes, and the
/// bitwise-parity verdicts the acceptance criteria call for.
fn emit_collectives_json(_c: &mut Criterion) {
    if !emitter_enabled("emit_collectives_json") {
        return;
    }
    let quick = std::env::args().any(|a| a == "--test");
    let mut lines: Vec<String> = Vec::new();

    // Overlap numbers are only meaningful relative to the cores that ran
    // them: on a single-core host the chunk pipeline can eliminate
    // rendezvous stalls but never hide reduction work behind compute, so
    // `overlap_fraction` legitimately reads ≈ 0 there. Recording `threads`
    // (and the explicit flag) next to every overlap number keeps a 0.00
    // from being misread as a pipeline regression.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let single_core = threads == 1;
    lines.push(
        "\"note\": \"Blocking vs pipelined chunked collectives; read overlap_fraction next to \
         threads (single_core=true: the pipeline can only remove rendezvous stalls, so ~0 \
         overlap is expected, not a regression). measured_alpha_beta is fitted from this run's \
         TrafficLog chunk timestamps. fsdp_parity_bitwise: a unit-sharded FSDP step equals the \
         DP step (sync_grads after backward) bitwise.\""
            .to_string(),
    );

    for &world in &[1usize, 2, 4, 8] {
        let comm_only = median_run(|| allreduce_rounds(world, false, true, false), quick);
        let compute_only = median_run(|| allreduce_rounds(world, false, false, true), quick);
        let blocking = median_run(|| allreduce_rounds(world, false, true, true), quick);
        let pipelined = median_run(|| allreduce_rounds(world, true, true, true), quick);
        let frac = overlap_fraction(blocking, pipelined, comm_only);
        lines.push(format!(
            "\"allreduce_1MiB_w{world}\": {{ \"blocking_ns\": {blocking:.0}, \"pipelined_ns\": {pipelined:.0}, \
             \"comm_ns\": {comm_only:.0}, \"compute_ns\": {compute_only:.0}, \
             \"overlap_fraction\": {frac:.2}, \"chunks\": {}, \
             \"threads\": {threads}, \"single_core\": {single_core} }}",
            OVERLAP_ELEMS.div_ceil(dchag_collectives::COMM_CHUNK_ELEMS)
        ));
    }

    {
        let blocking = median_run(|| reduce_scatter_rounds(4, false, true), quick);
        let pipelined = median_run(|| reduce_scatter_rounds(4, true, true), quick);
        let comm_only = median_run(|| reduce_scatter_rounds(4, false, false), quick);
        let frac = overlap_fraction(blocking, pipelined, comm_only);
        lines.push(format!(
            "\"reduce_scatter_1MiB_w4\": {{ \"blocking_ns\": {blocking:.0}, \"pipelined_ns\": {pipelined:.0}, \
             \"overlap_fraction\": {frac:.2}, \"threads\": {threads}, \"single_core\": {single_core} }}"
        ));
    }

    lines.push(format!(
        "\"fsdp_parity_bitwise\": {{ \"w2\": {}, \"w4\": {} }}",
        fsdp_parity(2),
        fsdp_parity(4)
    ));

    // Topology-measured α-β: fit the running host's fabric from this
    // run's own chunk timestamps (varying payloads give the slope its
    // lever), so the Frontier constants of the cost model are auditable
    // against reality.
    {
        let run = run_ranks(4, |ctx| {
            for round in 0..10 {
                let n = dchag_collectives::COMM_CHUNK_ELEMS * (1 + 7 * (round % 2));
                let _ = ctx.comm.iall_reduce_sum(&Tensor::full([n], 1.0)).wait();
            }
            ctx.comm.barrier();
            dchag_parallel::measured_alpha_beta(ctx.comm.traffic().as_ref())
        });
        let line = match run.outputs[0] {
            Some((alpha, bw)) => format!(
                "\"measured_alpha_beta\": {{ \"alpha_us\": {:.3}, \"bw_mb_s\": {:.1}, \
                 \"threads\": {threads} }}",
                alpha * 1e6,
                bw / 1e6
            ),
            None => format!(
                "\"measured_alpha_beta\": {{ \"fit\": null, \"threads\": {threads}, \
                 \"note\": \"unidentifiable sample set\" }}"
            ),
        };
        lines.push(line);
    }

    lines.push(format!(
        "\"allreduce_1MiB_w4_bytes_on_wire\": {{ \"bytes_on_wire\": {} }}",
        measured_wire_bytes(4)
    ));

    let mut body = String::from("{\n");
    for (i, l) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        body.push_str(&format!("    {l}{comma}\n"));
    }
    body.push_str("  }");

    // Smoke runs park their (noise) numbers under target/.
    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_collectives.smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    update_sections(std::path::Path::new(path), &[("collectives", body)]);
    eprintln!("wrote {path}");
}

/// Refresh the `fault_tolerance` section of `BENCH_kernels.json`: the
/// failure-free cost of deadline-checked waits (acceptance: ≤ 1%), the
/// latency from peer death to a typed error, and the wall clock of one
/// full detect→regroup→restore cycle.
fn emit_fault_tolerance_json(_c: &mut Criterion) {
    if !emitter_enabled("emit_fault_tolerance_json") {
        return;
    }
    let quick = std::env::args().any(|a| a == "--test");
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Interleave the two paths in back-to-back pairs and take the median
    // of per-pair ratios: on a busy single-core host the launch-to-launch
    // drift dwarfs the true difference, and pairing cancels it.
    let pairs = if quick { 1 } else { 15 };
    let mut inf = Vec::new();
    let mut chk = Vec::new();
    let mut ratios = Vec::new();
    for i in 0..pairs {
        // Alternate which path runs first so cache/scheduler warmth does
        // not systematically favor one side of the ratio.
        let (a, b) = if i % 2 == 0 {
            let a = allreduce_ft_rounds(4, false);
            (a, allreduce_ft_rounds(4, true))
        } else {
            let b = allreduce_ft_rounds(4, true);
            (allreduce_ft_rounds(4, false), b)
        };
        inf.push(a);
        chk.push(b);
        ratios.push(b / a);
    }
    let med = |xs: &mut Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let infallible = med(&mut inf);
    let deadline_checked = med(&mut chk);
    let overhead_pct = (med(&mut ratios) - 1.0) * 100.0;
    // The spread tells a reader whether `overhead_pct` means anything on
    // this host or is below the measurement noise floor.
    let spread_pct = (ratios[ratios.len() - 1] - ratios[0]) * 100.0;
    let detect = median_run(detection_latency_us, quick);
    let recover = median_run(time_to_recover_us, quick);

    let body = format!(
        "{{\n    \"note\": \"Failure-free cost of deadline-checked waits (median of paired \
         runs), peer death to typed error, and one detect-regroup-restore cycle.\",\n    \
         \"allreduce_512KiB_w4\": {{ \"infallible_ns\": {infallible:.0}, \
         \"deadline_checked_ns\": {deadline_checked:.0}, \
         \"failure_free_overhead_pct\": {overhead_pct:.2}, \
         \"pair_ratio_spread_pct\": {spread_pct:.2}, \"threads\": {threads} }},\n    \
         \"detection_latency_w2\": {{ \"issue_to_typed_error_us\": {detect:.1} }},\n    \
         \"time_to_recover_w4_to_w3\": {{ \"detect_regroup_restore_us\": {recover:.1} }}\n  }}"
    );

    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_fault_tolerance.smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    update_sections(std::path::Path::new(path), &[("fault_tolerance", body)]);
    eprintln!("wrote {path}");
}

// ---------------------------------------------------------------------------
// Transport: thread vs real loopback TCP, reconnect healing, and the α-β
// fit over actual sockets.
// ---------------------------------------------------------------------------

use dchag_collectives::{
    run_tcp_ranks, run_tcp_ranks_faulty, run_transport_ranks, TcpConfig, Transport,
    TransportFault, TransportFaultPlan,
};

const TRANSPORT_ELEMS: usize = 64 * 1024; // 256 KiB payload
const TRANSPORT_ROUNDS: usize = 8;

/// Wall clock of `TRANSPORT_ROUNDS` blocking all-reduces over the given
/// transport (slowest rank, bring-up excluded by the leading barrier).
fn transport_allreduce_rounds(transport: &Transport, world: usize) -> f64 {
    let run = run_transport_ranks(transport, world, |ctx| {
        let t = Tensor::full([TRANSPORT_ELEMS], (ctx.comm.rank() + 1) as f32);
        let mut sink = 0.0f32;
        ctx.comm.barrier();
        let t0 = std::time::Instant::now();
        for _ in 0..TRANSPORT_ROUNDS {
            sink += ctx.comm.all_reduce_sum(&t).at(0);
        }
        ctx.comm.barrier();
        black_box(sink);
        t0.elapsed().as_secs_f64() * 1e9
    });
    run.outputs.iter().map(|o| *o.as_ref().expect("rank ok")).fold(0.0f64, f64::max)
}

fn bench_transport(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport");
    for (name, tr) in
        [("thread", Transport::Thread), ("tcp_loopback", Transport::Tcp(TcpConfig::default()))]
    {
        g.bench_with_input(BenchmarkId::new("allreduce_256KiB_w2", name), &tr, |bench, tr| {
            bench.iter(|| black_box(transport_allreduce_rounds(tr, 2)));
        });
    }
    g.finish();
}

/// One severed-then-healed 2-rank run: wall clock of six pipelined rounds
/// across the reconnect, plus the victim-side transport event counts.
fn sever_heal_stats() -> (f64, usize, usize) {
    let plan = TransportFaultPlan::for_rank(1, TransportFault::SeverOnce(2));
    let run = run_tcp_ranks_faulty(2, TcpConfig::default(), &plan, |ctx| {
        let t = Tensor::full([4096], (ctx.comm.rank() + 1) as f32);
        ctx.comm.barrier();
        let t0 = std::time::Instant::now();
        for _ in 0..6 {
            let _ = ctx.comm.iall_reduce_sum(&t).wait();
        }
        ctx.comm.barrier();
        t0.elapsed().as_secs_f64() * 1e6
    });
    let wall = run.outputs.iter().map(|o| *o.as_ref().expect("heal, not kill")).fold(0.0, f64::max);
    (wall, run.traffic[1].reconnect_attempts(), run.traffic[1].retransmitted_frames())
}

/// Fit α-β from a per-process TCP traffic log — the production shape of
/// `measured_alpha_beta` (each endpoint fits what its own socket saw).
fn tcp_alpha_beta() -> Option<(f64, f64)> {
    let run = run_tcp_ranks(2, TcpConfig::default(), |ctx| {
        for round in 0..10 {
            let n = dchag_collectives::COMM_CHUNK_ELEMS * (1 + 7 * (round % 2));
            let _ = ctx.comm.iall_reduce_sum(&Tensor::ones([n])).wait();
        }
        ctx.comm.barrier();
        dchag_parallel::measured_alpha_beta(ctx.comm.traffic().as_ref())
    });
    run.outputs[0].as_ref().ok().copied().flatten()
}

/// Thread-vs-TCP bitwise parity verdict on a mixed collective workload.
fn transport_parity(world: usize) -> bool {
    let wl = |ctx: RankCtx| {
        let t = Tensor::full([1024], (ctx.comm.rank() + 1) as f32);
        let mut bits: Vec<u32> =
            ctx.comm.all_reduce_sum(&t).to_vec().iter().map(|x| x.to_bits()).collect();
        bits.extend(ctx.comm.iall_reduce_sum(&t).wait().to_vec().iter().map(|x| x.to_bits()));
        ctx.comm.barrier();
        bits
    };
    let a = run_transport_ranks(&Transport::Thread, world, wl);
    let b = run_transport_ranks(&Transport::Tcp(TcpConfig::default()), world, wl);
    (0..world).all(|r| {
        a.outputs[r].as_ref().ok().is_some() && a.outputs[r].as_ref().ok() == b.outputs[r].as_ref().ok()
    })
}

/// Refresh the `transport` section of `BENCH_kernels.json`: loopback-TCP
/// vs thread all-reduce wall clocks, the cost and event counts of one
/// sever-and-heal cycle, the α-β fit over real sockets, and the
/// cross-transport bitwise-parity verdicts.
fn emit_transport_json(_c: &mut Criterion) {
    if !emitter_enabled("emit_transport_json") {
        return;
    }
    let quick = std::env::args().any(|a| a == "--test");
    let thread_ns = median_run(|| transport_allreduce_rounds(&Transport::Thread, 2), quick);
    let tcp_ns =
        median_run(|| transport_allreduce_rounds(&Transport::Tcp(TcpConfig::default()), 2), quick);
    let (heal_us, reconnects, retransmits) = sever_heal_stats();
    // Timer noise can make a single run's fit unidentifiable (a negative
    // α is rejected); a few attempts make that rare. -1 sentinels keep
    // the JSON valid when the host never identifies (NaN is not JSON).
    let fit = (0..5).find_map(|_| tcp_alpha_beta());
    let (alpha_us, bw) = fit.map_or((-1.0, -1.0), |(a, b)| (a * 1e6, b));
    let parity_w2 = transport_parity(2);
    let parity_w4 = transport_parity(4);

    let body = format!(
        "{{\n    \"note\": \"Loopback TCP vs thread transport all-reduce, one sever-and-heal \
         cycle, the alpha-beta fit over real sockets, and thread-vs-TCP bitwise parity.\",\n    \
         \"allreduce_256KiB_w2_{TRANSPORT_ROUNDS}rounds\": {{ \"thread_ns\": {thread_ns:.0}, \
         \"tcp_loopback_ns\": {tcp_ns:.0}, \"tcp_over_thread\": {:.2} }},\n    \
         \"sever_and_heal_w2\": {{ \"six_rounds_across_reconnect_us\": {heal_us:.1}, \
         \"reconnect_attempts\": {reconnects}, \"retransmitted_frames\": {retransmits} }},\n    \
         \"measured_alpha_beta_tcp_w2\": {{ \"alpha_us\": {alpha_us:.2}, \
         \"bw_bytes_per_s\": {bw:.0} }},\n    \
         \"parity_bitwise\": {{ \"w2\": {parity_w2}, \"w4\": {parity_w4} }}\n  }}",
        tcp_ns / thread_ns.max(1.0),
    );

    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_transport.smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    update_sections(std::path::Path::new(path), &[("transport", body)]);
    eprintln!("wrote {path}");
}

// ---------------------------------------------------------------------------
// Checkpoint: durable-tier save/load throughput and the cost the training
// loop actually pays per checkpoint (an Arc-clone snapshot + channel
// enqueue — the background writer does the disk I/O).
// ---------------------------------------------------------------------------

use dchag_tensor::checkpoint::{CheckpointDir, Snapshot, SnapshotWriter};

/// A ~4 MiB single-tensor store: large enough that fsync'd disk I/O is
/// visible next to the O(1) snapshot path the training loop takes.
fn ckpt_store() -> ParamStore {
    let mut store = ParamStore::new();
    let mut rng = Rng::new(11);
    store.add("block.w", Tensor::randn([1024, 1024], 1.0, &mut rng));
    store
}

fn ckpt_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("dchag_bench_ckpt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint");
    let snap = Snapshot::of_store(&ckpt_store(), 4);
    let root = ckpt_root("crit");
    let dir = CheckpointDir::open(&root, 0, 1).expect("open ckpt dir").with_retain(4);
    g.bench_function("save_commit_4MiB_w1", |b| {
        b.iter(|| {
            dir.save_shard(black_box(&snap)).expect("save shard");
            dir.commit(4, Duration::from_secs(10)).expect("commit");
        })
    });
    g.bench_function("load_validate_4MiB", |b| {
        b.iter(|| black_box(dir.load_shard(4, 0).expect("load shard")))
    });
    // What the training loop pays at checkpoint cadence: tensors are
    // Arc-shared, so taking the snapshot never copies the payloads.
    let store = ckpt_store();
    g.bench_function("snapshot_of_store_1M_f32", |b| {
        b.iter(|| black_box(Snapshot::of_store(black_box(&store), 4)))
    });
    let _ = std::fs::remove_dir_all(&root);
    g.finish();
}

/// Refresh the `checkpoint` section of `BENCH_kernels.json`: durable
/// save/load throughput, the enqueue cost the loop pays vs the synchronous
/// save the background writer hides, and the round-trip bitwise verdict.
fn emit_checkpoint_json(_c: &mut Criterion) {
    if !emitter_enabled("emit_checkpoint_json") {
        return;
    }
    let quick = std::env::args().any(|a| a == "--test");
    let snap = Snapshot::of_store(&ckpt_store(), 4);
    let bytes = snap.to_bytes().len();
    let mb = bytes as f64 / (1024.0 * 1024.0);

    let root = ckpt_root("emit");
    let dir = CheckpointDir::open(&root, 0, 1).expect("open ckpt dir").with_retain(4);
    let sync_save_us = median_run(
        || {
            let t0 = std::time::Instant::now();
            dir.save_shard(&snap).expect("save shard");
            dir.commit(4, Duration::from_secs(10)).expect("commit");
            t0.elapsed().as_secs_f64() * 1e6
        },
        quick,
    );
    let load_us = median_run(
        || {
            let t0 = std::time::Instant::now();
            black_box(dir.load_shard(4, 0).expect("load shard"));
            t0.elapsed().as_secs_f64() * 1e6
        },
        quick,
    );
    let roundtrip = dir.load_shard(4, 0).expect("load shard").to_bytes() == snap.to_bytes();

    // Enqueue cost of handing the snapshot to the background writer — the
    // only checkpoint cost on the training thread's critical path.
    let writer = SnapshotWriter::spawn(
        CheckpointDir::open(&root, 0, 1).expect("open ckpt dir").with_retain(4),
        Duration::from_secs(10),
    );
    let mut enq: Vec<f64> = (0..if quick { 1 } else { 7 })
        .map(|_| writer.snapshot(snap.clone()).expect("enqueue").as_secs_f64() * 1e6)
        .collect();
    writer.flush().expect("writer drains");
    enq.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let enqueue_us = enq[enq.len() / 2];
    drop(writer);
    let _ = std::fs::remove_dir_all(&root);

    let body = format!(
        "{{\n    \"note\": \"Durable-tier shard save+commit and load+validate throughput, \
         and the training thread's cost per checkpoint (enqueue) against a synchronous save.\",\n    \
         \"shard_4MiB_w1\": {{ \"bytes\": {bytes}, \
         \"save_commit_mb_per_s\": {:.1}, \"load_validate_mb_per_s\": {:.1} }},\n    \
         \"train_thread_cost\": {{ \"enqueue_us\": {enqueue_us:.2}, \
         \"hidden_sync_save_us\": {sync_save_us:.1} }},\n    \
         \"roundtrip_bitwise\": {roundtrip}\n  }}",
        mb / (sync_save_us / 1e6),
        mb / (load_us / 1e6),
    );

    let path = if quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_checkpoint.smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    update_sections(std::path::Path::new(path), &[("checkpoint", body)]);
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_allreduce, bench_allgather_payload, bench_split, bench_overlap,
              bench_fault_tolerance, bench_transport,
              bench_checkpoint, emit_collectives_json, emit_fault_tolerance_json,
              emit_transport_json, emit_checkpoint_json
}
criterion_main!(benches);
