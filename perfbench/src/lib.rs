//! Training-step benchmark of the D-CHAG workspace.
//!
//! A run executes one workload for a fixed time as a sequence of
//! *episodes*: each launches a world, builds the model, optionally resumes
//! from a checkpoint, runs warm-up steps and then a fixed number of timed
//! optimizer steps, and tears the world down. Every episode runs the same
//! steps on the same inputs, so every episode must end on the same loss.
//!
//! With tracing off a run reports the end-to-end metrics; with tracing on it
//! alternates untraced and traced episodes and reports the per-layer
//! metrics measured by the spans (see `README.md`).

mod inputs;
mod trace;
mod world;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use inputs::{Inputs, Plan};
use trace::Span;
use world::{Ctx, Episode};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-worker MAE on hyperspectral cubes, flat cross-attention.
    MaeHyperFlatW1,
    /// The same MAE as D-CHAG-L over two thread ranks.
    MaeHyperDchagW2,
    /// ClimaX forecasting, FSDP over two loopback-TCP ranks, resumed from
    /// and saving durable checkpoints.
    ClimaxFsdpTcpW2,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MaeHyperFlatW1,
        Workload::MaeHyperDchagW2,
        Workload::ClimaxFsdpTcpW2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MaeHyperFlatW1 => "mae_hyper_flat_w1",
            Workload::MaeHyperDchagW2 => "mae_hyper_dchag_w2",
            Workload::ClimaxFsdpTcpW2 => "climax_fsdp_tcp_w2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmark's shapes, or tiny ones for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time; a run has at least `MIN_EPISODES` episodes.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where checkpoints and the trace file go.
    pub out_dir: PathBuf,
    /// Turn the last episode's final loss into NaN before the gates run:
    /// proves that a failed gate becomes failed operations.
    pub force_gate_failure: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A run's outcome: the result line plus human-readable notes.
#[derive(Clone, Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

impl Report {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { -1.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Percentile by linear interpolation between closest ranks.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A fixed scalar loop owned by the benchmark, run at once on one thread
/// per available CPU; returns the wall time until all finish. It tracks how
/// fast the host runs at the moment, independent of the program under
/// test, and also slows when any one CPU is taken away.
fn host_ref_loop_ms() -> f64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let iters = std::hint::black_box(40_000_000u64);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for i in 0..iters {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x = x.wrapping_add(i);
                }
                std::hint::black_box(x);
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e3
}

/// Fewest episodes a run has, whatever `seconds` asks: medians over
/// episodes need a few of them.
const MIN_EPISODES: usize = 3;

/// Run one workload and gate its outputs.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let plan = Plan::of(w, opts.scale);
    let work_dir = opts.out_dir.join(format!("{}-seed{}", w.name(), opts.seed));
    let _ = std::fs::remove_dir_all(&work_dir);

    // Before the clock: inputs, the resume checkpoint, the host reference.
    let inputs = Inputs::generate(w, opts.scale, opts.seed);
    let ctx = Ctx {
        plan,
        inputs: &inputs,
        epoch: Instant::now(),
        resume_dir: work_dir.join("resume"),
        save_dir: work_dir.join("save"),
    };
    if let Inputs::Climax(inp) = &inputs {
        world::write_resume_checkpoint(inp, &plan, &ctx.resume_dir);
    }
    let ref_before = host_ref_loop_ms();

    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        if episodes.len() >= MIN_EPISODES && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        // Traced runs alternate untraced and traced episodes, so both
        // halves see the same host phases.
        let traced = opts.trace && episodes.len() % 2 == 1;
        episodes.push(world::episode(&ctx, traced, episodes.len()));
    }
    let ref_after = host_ref_loop_ms();
    let _ = std::fs::remove_dir_all(&work_dir);

    if opts.force_gate_failure {
        let last = episodes.last_mut().expect("a run has episodes");
        if let Some(l) = last.rank0.losses.last_mut() {
            *l = f32::NAN;
        }
    }

    // Gate: the loss is finite and ends below its first-step value.
    for e in episodes.iter_mut() {
        let losses = &e.rank0.losses;
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        if !losses.iter().all(|l| l.is_finite()) || last >= first {
            e.failures.push(format!(
                "loss not finite or not decreasing: first {first}, last {last}"
            ));
        }
    }
    // Gate: every episode (traced or not) has the same losses, bitwise.
    let bits = |e: &Episode| {
        e.rank0
            .losses
            .iter()
            .map(|l| l.to_bits())
            .collect::<Vec<_>>()
    };
    let reference = bits(&episodes[0]);
    for e in episodes.iter_mut().skip(1) {
        if bits(e) != reference {
            let kind = if e.traced { "traced" } else { "untraced" };
            e.failures
                .push(format!("{kind} losses differ from the first episode's"));
        }
    }

    let attempted: usize = episodes.iter().map(|e| e.attempted).sum();
    let failed: usize = episodes
        .iter()
        .filter(|e| !e.failures.is_empty())
        .map(|e| e.attempted)
        .sum();
    let mut notes: Vec<String> = episodes
        .iter()
        .enumerate()
        .flat_map(|(i, e)| e.failures.iter().map(move |f| format!("episode {i}: {f}")))
        .collect();
    let rates: Vec<String> = episodes
        .iter()
        .map(|e| format!("{:.2}", samples_per_s(&plan, &[e])))
        .collect();
    notes.push(format!("samples_per_s by episode: {}", rates.join(" ")));
    notes.push(format!(
        "{} episodes ({} traced), host.ref_loop_ms before {ref_before:.2} after {ref_after:.2}",
        episodes.len(),
        episodes.iter().filter(|e| e.traced).count()
    ));

    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let mut trace_file = None;
    let metrics = if opts.trace {
        let spans: Vec<Span> = traced
            .iter()
            .flat_map(|e| e.spans.iter().cloned())
            .collect();
        let path = opts
            .out_dir
            .join(format!("trace-{}-seed{}.json", w.name(), opts.seed));
        match std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            Ok(()) => trace_file = Some(path),
            Err(e) => notes.push(format!("trace file not written: {e}")),
        }
        per_layer(
            &plan,
            &episodes,
            &untraced,
            &traced,
            (ref_before + ref_after) / 2.0,
        )
    } else {
        let steps: Vec<f64> = untraced
            .iter()
            .flat_map(|e| e.rank0.step_ms.iter().copied())
            .collect();
        notes.push(format!(
            "step_ms_p90 = {:.4} ms over {} timed steps (informational, not in the result: \
             on a shared 2-vCPU VM it does not repeat within a tenth from run to run)",
            percentile(&steps, 0.9),
            steps.len()
        ));
        end_to_end(&plan, &untraced)
    };
    Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        trace_file,
    }
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// Median over episodes of global samples per second of timed wall time
/// (a checkpoint drain after the last step counts as timed).
fn samples_per_s(plan: &Plan, eps: &[&Episode]) -> f64 {
    let per_episode: Vec<f64> = eps
        .iter()
        .map(|e| {
            let wall = e
                .rank0
                .timed_end
                .duration_since(e.rank0.timed_start)
                .as_secs_f64();
            (e.rank0.step_ms.len() * plan.samples_per_step) as f64 / wall
        })
        .collect();
    median(&per_episode)
}

/// Mean training loss over the last `plan.pool` steps: one pass over
/// every input batch, so the figure does not hinge on the last batch.
fn loss_final(plan: &Plan, e: &Episode) -> f64 {
    let l = &e.rank0.losses;
    let tail = &l[l.len().saturating_sub(plan.pool)..];
    tail.iter().map(|&x| f64::from(x)).sum::<f64>() / tail.len() as f64
}

fn peak_mb(e: &Episode) -> f64 {
    e.peak_bytes.iter().copied().max().unwrap_or(0) as f64 / 1e6
}

fn end_to_end(plan: &Plan, eps: &[&Episode]) -> Vec<Metric> {
    let steps: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.rank0.step_ms.iter().copied())
        .collect();
    let setups: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    let peaks: Vec<f64> = eps.iter().map(|e| peak_mb(e)).collect();
    vec![
        metric("samples_per_s", "1/s", samples_per_s(plan, eps)),
        metric("step_ms_p50", "ms", percentile(&steps, 0.5)),
        metric("peak_mem_mb", "MB", median(&peaks)),
        metric("loss_final", "loss", loss_final(plan, eps[0])),
        metric("setup_s", "s", median(&setups)),
    ]
}

/// Whether a span belongs to a warm-up step.
fn in_warmup(plan: &Plan, s: &Span) -> bool {
    s.step.is_some_and(|i| i < plan.warmup)
}

/// Durations (ms) of rank 0's spans called `name` over `eps`, warm-up
/// steps left out.
fn span_ms(plan: &Plan, eps: &[&Episode], name: &str) -> Vec<f64> {
    eps.iter()
        .flat_map(|e| e.spans.iter())
        .filter(|s| s.rank == 0 && s.name == name && !in_warmup(plan, s))
        .map(Span::dur_ms)
        .collect()
}

/// Per step on rank 0: the share of the step span its child spans leave
/// uncovered, in percent.
fn unaccounted_pct(plan: &Plan, eps: &[&Episode]) -> Vec<f64> {
    let mut out = Vec::new();
    for e in eps {
        let rank0: Vec<&Span> = e.spans.iter().filter(|s| s.rank == 0).collect();
        for step in rank0
            .iter()
            .filter(|s| s.name == "step" && !in_warmup(plan, s))
        {
            let covered: f64 = rank0
                .iter()
                .filter(|s| s.parent == Some(step.id))
                .map(|s| s.dur_ms())
                .sum();
            out.push(100.0 * (step.dur_ms() - covered) / step.dur_ms());
        }
    }
    out
}

fn per_layer(
    plan: &Plan,
    all: &[Episode],
    untraced: &[&Episode],
    traced: &[&Episode],
    ref_loop_ms: f64,
) -> Vec<Metric> {
    let p50 = |name: &str| median(&span_ms(plan, traced, name));
    let timed: usize = traced
        .iter()
        .map(|e| e.rank0.step_ms.len())
        .sum::<usize>()
        .max(1);
    let per_step =
        |f: &dyn Fn(&Episode) -> f64| traced.iter().map(|e| f(e)).sum::<f64>() / timed as f64;
    let peak = |r: usize| {
        median(
            &traced
                .iter()
                .map(|e| e.peak_bytes.get(r).copied().unwrap_or(0) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let step_walls = |save: bool| {
        let v: Vec<f64> = traced
            .iter()
            .flat_map(|e| e.rank0.step_ms.iter().zip(&e.rank0.saved))
            .filter(|(_, &s)| s == save)
            .map(|(&ms, _)| ms)
            .collect();
        median(&v)
    };
    let saves = plan.save_every > 0;
    let sps_untraced = samples_per_s(plan, untraced);
    let sps_traced = samples_per_s(plan, traced);
    vec![
        metric("model.build_ms", "ms", p50("model.build")),
        metric("model.forward_ms_p50", "ms", p50("model.forward")),
        metric("tensor.backward_ms_p50", "ms", p50("tensor.backward")),
        metric("tensor.grads_ms_p50", "ms", p50("tensor.grads")),
        metric(
            "parallel.sharded_grads_ms_p50",
            "ms",
            p50("parallel.sharded_grads"),
        ),
        metric("model.optim_ms_p50", "ms", p50("model.optim")),
        metric("tensor.peak_mem_mb.rank0", "MB", peak(0)),
        metric("tensor.peak_mem_mb.rank1", "MB", peak(1)),
        metric(
            "collectives.all_gather_per_step",
            "count",
            per_step(&|e| e.rank0.traffic.all_gather as f64),
        ),
        metric(
            "collectives.all_reduce_per_step",
            "count",
            per_step(&|e| e.rank0.traffic.all_reduce as f64),
        ),
        metric(
            "collectives.reduce_scatter_per_step",
            "count",
            per_step(&|e| e.rank0.traffic.reduce_scatter as f64),
        ),
        metric(
            "collectives.wire_mb_per_step",
            "MB",
            per_step(&|e| e.rank0.traffic.wire_bytes as f64 / 1e6),
        ),
        metric(
            "collectives.wait_ms_per_step",
            "ms",
            per_step(&|e| e.rank0.traffic.wait_ms),
        ),
        metric(
            "collectives.xfer_ms_per_step",
            "ms",
            per_step(&|e| e.rank0.traffic.xfer_ms),
        ),
        metric(
            "collectives.first_coll_ms",
            "ms",
            p50("collectives.first_coll"),
        ),
        // Mean over every episode, so a rare multi-second stall shows.
        metric(
            "collectives.teardown_ms",
            "ms",
            all.iter().map(|e| e.teardown_ms).sum::<f64>() / all.len() as f64,
        ),
        metric(
            "collectives.transport_retries",
            "count",
            all.iter().map(|e| e.transport_retries as f64).sum(),
        ),
        metric(
            "collectives.teardown_retries",
            "count",
            all.iter().map(|e| e.teardown_retries as f64).sum(),
        ),
        metric("checkpoint.restore_ms", "ms", p50("checkpoint.restore")),
        metric("checkpoint.snapshot_ms", "ms", p50("checkpoint.snapshot")),
        metric(
            "checkpoint.enqueue_us",
            "us",
            1e3 * p50("checkpoint.enqueue"),
        ),
        metric(
            "checkpoint.save_step_ms_p50",
            "ms",
            if saves { step_walls(true) } else { 0.0 },
        ),
        metric(
            "checkpoint.plain_step_ms_p50",
            "ms",
            if saves { step_walls(false) } else { 0.0 },
        ),
        metric("checkpoint.drain_ms", "ms", p50("checkpoint.drain")),
        metric(
            "checkpoint.mb_per_save",
            "MB",
            median(
                &traced
                    .iter()
                    .map(|e| e.bytes_per_save / 1e6)
                    .collect::<Vec<_>>(),
            ),
        ),
        metric(
            "checkpoint.writer_errors",
            "count",
            all.iter().map(|e| e.rank0.writer_errors as f64).sum(),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            100.0 * (sps_untraced - sps_traced) / sps_untraced,
        ),
        metric(
            "trace.unaccounted_pct",
            "%",
            median(&unaccounted_pct(plan, traced)),
        ),
        metric("host.ref_loop_ms", "ms", ref_loop_ms),
    ]
}
