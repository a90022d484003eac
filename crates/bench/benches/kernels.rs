//! Microbenchmarks for the tensor kernels backing the simulation: GEMM
//! variants, attention primitives, normalization, and patchification.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dchag_bench::bench_json::{measure_ns, update_sections};
use dchag_tensor::ops::gemm::{bench_api, GemmLayout};
use dchag_tensor::{ops, Rng, Tape, Tensor};

/// Requests of this many bytes or more are the `train_step_alloc` entry's
/// large blocks (64 KiB): sizes the system allocator serves by mapping
/// pages it unmaps or trims again on free.
const LARGE_BLOCK: usize = 64 * 1024;

/// System allocator that, while `LARGE_COUNTING` is set, counts the large
/// blocks requested on any thread; otherwise one relaxed load per request.
struct LargeBlockCounter;

static LARGE_COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_request(size: usize) {
    if size >= LARGE_BLOCK && LARGE_COUNTING.load(Ordering::Relaxed) {
        LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counting touches only atomics and never
// allocates.
unsafe impl GlobalAlloc for LargeBlockCounter {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_request(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_request(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        note_request(new);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: LargeBlockCounter = LargeBlockCounter;

/// This process's minor page faults so far (`minflt`, field 10 of
/// `/proc/self/stat`); `None` where procfs is not there to read.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The seed repository's scalar GEMM kernels (rows-parallel AXPY/dot loops),
/// kept verbatim as the "before" baseline for the `gemm_blocking` group and
/// the `BENCH_kernels.json` emitter.
mod seed {
    use rayon::prelude::*;

    const PAR_THRESHOLD: usize = 16 * 1024;

    #[inline]
    fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    #[inline]
    fn dot(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 4];
        let chunks = a.len() / 4;
        for i in 0..chunks {
            let j = i * 4;
            acc[0] += a[j] * b[j];
            acc[1] += a[j + 1] * b[j + 1];
            acc[2] += a[j + 2] * b[j + 2];
            acc[3] += a[j + 3] * b[j + 3];
        }
        let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for j in chunks * 4..a.len() {
            s += a[j] * b[j];
        }
        s
    }

    pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let body = |(i, c_row): (usize, &mut [f32])| {
            let a_row = &a[i * k..(i + 1) * k];
            for (p, &aip) in a_row.iter().enumerate() {
                if aip != 0.0 {
                    axpy(aip, &b[p * n..(p + 1) * n], c_row);
                }
            }
        };
        if m * n >= PAR_THRESHOLD {
            c.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            c.chunks_mut(n).enumerate().for_each(body);
        }
    }

    pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let body = |(i, c_row): (usize, &mut [f32])| {
            let a_row = &a[i * k..(i + 1) * k];
            for (j, cij) in c_row.iter_mut().enumerate() {
                *cij = dot(a_row, &b[j * k..(j + 1) * k]);
            }
        };
        if m * n >= PAR_THRESHOLD {
            c.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            c.chunks_mut(n).enumerate().for_each(body);
        }
    }

    pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        let body = |(i, c_row): (usize, &mut [f32])| {
            for p in 0..k {
                let aip = a[p * m + i];
                if aip != 0.0 {
                    axpy(aip, &b[p * n..(p + 1) * n], c_row);
                }
            }
        };
        if m * n >= PAR_THRESHOLD {
            c.par_chunks_mut(n).enumerate().for_each(body);
        } else {
            c.chunks_mut(n).enumerate().for_each(body);
        }
    }

    /// The seed's serial bias + libm-tanh GELU sweep: the "before" side of
    /// the vectorized-GELU entry (the libm `tanh` call blocks
    /// auto-vectorization, which is what the polynomial rewrite removes).
    pub fn add_bias_gelu(a: &[f32], bias: &[f32], out: &mut [f32]) {
        let n = bias.len();
        for (o_row, a_row) in out.chunks_mut(n).zip(a.chunks(n)) {
            for ((o, &av), &bv) in o_row.iter_mut().zip(a_row).zip(bias) {
                let x = av + bv;
                let u = 0.797_884_6 * (x + 0.044_715 * x * x * x);
                *o = 0.5 * x * (1.0 + u.tanh());
            }
        }
    }

    /// The pre-`exp_fast` softmax rows: libm `expf` per element — the
    /// "before" side of the vectorized-exp entry (same structure as
    /// `ops::softmax_last`, only the exponential differs).
    pub fn softmax_last(a: &[f32], n: usize, out: &mut [f32]) {
        out.copy_from_slice(a);
        for row in out.chunks_mut(n) {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            let inv = 1.0 / sum;
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// Seed-vs-blocked comparison across layouts and sizes: the acceptance
/// numbers for the micro-kernel rewrite.
fn bench_gemm_blocking(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_blocking");
    for &n in &[64usize, 128, 256] {
        let mut rng = Rng::new(11);
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("seed_nn", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                seed::gemm_nn(a.data(), b.data(), &mut out, n, n, n);
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("blocked_nn", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("seed_nt", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                seed::gemm_nt(a.data(), b.data(), &mut out, n, n, n);
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("blocked_nt", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul_nt(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("seed_tn", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                seed::gemm_tn(a.data(), b.data(), &mut out, n, n, n);
                black_box(out)
            })
        });
        g.bench_with_input(BenchmarkId::new("blocked_tn", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul_tn(&a, &b)))
        });
    }
    // The FLOPs-gating fix: skinny [4, 512k] × [512k, 8] stays serial under
    // the seed's m·n threshold but parallelizes (split-K) when gated on
    // m·n·k.
    let mut rng = Rng::new(12);
    let skinny_a = Tensor::randn([4, 1 << 19], 0.1, &mut rng);
    let skinny_b = Tensor::randn([1 << 19, 8], 0.1, &mut rng);
    g.bench_function("seed_nn_skinny_4x512kx8", |bench| {
        bench.iter(|| {
            let mut out = vec![0.0f32; 4 * 8];
            seed::gemm_nn(skinny_a.data(), skinny_b.data(), &mut out, 4, 1 << 19, 8);
            black_box(out)
        })
    });
    g.bench_function("blocked_nn_skinny_4x512kx8", |bench| {
        bench.iter(|| black_box(ops::matmul(&skinny_a, &skinny_b)))
    });
    g.finish();
}

/// Ragged (non-tile-multiple) shapes through the masked-tail + SIMD-pack
/// fast path on the serial blocked driver, and a ragged batched product
/// through the flattened (batch × tile) grid.
fn bench_gemm_ragged(c: &mut Criterion) {
    use dchag_tensor::ops::gemm::bench_api;
    let mut g = c.benchmark_group("gemm_ragged");
    for &n in &[129usize, 257] {
        let mut rng = Rng::new(41);
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("masked_nn", n), &n, |bench, &n| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                bench_api::gemm_fast_serial(
                    ops::GemmLayout::NN,
                    1.0,
                    a.data(),
                    b.data(),
                    &mut out,
                    n,
                    n,
                    n,
                );
                black_box(out)
            })
        });
    }
    let mut rng = Rng::new(42);
    let (bs, m, k, n) = (6usize, 161usize, 67usize, 161usize);
    let a = Tensor::randn([bs, m, k], 1.0, &mut rng);
    let b = Tensor::randn([bs, k, n], 1.0, &mut rng);
    g.bench_function("bmm_ragged_batched_6x161x67x161", |bench| {
        bench.iter(|| black_box(ops::bmm(&a, &b)))
    });
    g.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul_nt(&a, &b)))
        });
        g.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(ops::matmul_tn(&a, &b)))
        });
    }
    g.finish();
}

/// The seed repository's two-pass serial LayerNorm, kept as the fusion
/// baseline.
fn seed_layernorm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Tensor {
    let n = x.shape().last();
    let (g, b) = (gamma.data(), beta.data());
    let mut out = vec![0.0f32; x.numel()];
    for (o_row, x_row) in out.chunks_mut(n).zip(x.data().chunks(n)) {
        let mu = x_row.iter().sum::<f32>() / n as f32;
        let var = x_row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / n as f32;
        let rs = 1.0 / (var + ops::LN_EPS).sqrt();
        for (j, (o, &xv)) in o_row.iter_mut().zip(x_row).enumerate() {
            *o = (xv - mu) * rs * g[j] + b[j];
        }
    }
    Tensor::from_vec(out, x.shape().clone())
}

/// Fused vs unfused transformer-layer primitives: the allocation-churn
/// half of the kernels rewrite.
fn bench_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("fusion");
    let mut rng = Rng::new(21);

    // LayerNorm: two-pass serial (seed) vs one-pass chunked-Welford.
    let x = Tensor::randn([512, 256], 1.0, &mut rng);
    let gamma = Tensor::ones([256]);
    let beta = Tensor::zeros([256]);
    g.bench_function("layernorm_unfused_512x256", |bench| {
        bench.iter(|| black_box(seed_layernorm(&x, &gamma, &beta)))
    });
    g.bench_function("layernorm_fused_512x256", |bench| {
        bench.iter(|| black_box(ops::layernorm(&x, &gamma, &beta)))
    });

    // Bias + GELU: two passes + two tensors vs one fused sweep.
    let h = Tensor::randn([512, 512], 1.0, &mut rng);
    let bias = Tensor::randn([512], 1.0, &mut rng);
    g.bench_function("add_bias_gelu_unfused_512x512", |bench| {
        bench.iter(|| black_box(ops::gelu(&ops::add_bias(&h, &bias))))
    });
    g.bench_function("add_bias_gelu_fused_512x512", |bench| {
        bench.iter(|| black_box(ops::add_bias_gelu(&h, &bias)))
    });

    // Linear forward: seed GEMM + bias pass vs bias folded into the GEMM
    // epilogue. The seed kernels are the baseline — comparing against
    // `ops::matmul` + `add_bias` would measure the (noise-level) saving of
    // one broadcast pass against this repo's own blocked GEMM, which is
    // how the old entry pinned itself at 1.00×.
    let xm = Tensor::randn([256, 256], 1.0, &mut rng);
    let w = Tensor::randn([256, 256], 1.0, &mut rng);
    let wb = Tensor::randn([256], 1.0, &mut rng);
    g.bench_function("matmul_bias_seed_256", |bench| {
        bench.iter(|| {
            let mut out = vec![0.0f32; 256 * 256];
            seed::gemm_nn(xm.data(), w.data(), &mut out, 256, 256, 256);
            for row in out.chunks_mut(256) {
                for (o, &b) in row.iter_mut().zip(wb.data()) {
                    *o += b;
                }
            }
            black_box(out)
        })
    });
    g.bench_function("matmul_bias_fused_256", |bench| {
        bench.iter(|| black_box(ops::matmul_bias(&xm, &w, &wb)))
    });

    // Softmax exponential sweep: libm expf (seed) vs polynomial exp_fast.
    let sm = Tensor::randn([256, 128], 3.0, &mut rng);
    g.bench_function("softmax_libm_exp_256x128", |bench| {
        bench.iter(|| {
            let mut out = vec![0.0f32; sm.numel()];
            seed::softmax_last(sm.data(), 128, &mut out);
            black_box(out)
        })
    });
    g.bench_function("softmax_exp_fast_256x128", |bench| {
        bench.iter(|| black_box(ops::softmax_last(&sm)))
    });

    // Aggregator pooling: matmul → softmax → bmm chain vs fused sweep.
    let (n, ch, d) = (1024, 16, 64);
    let y = Tensor::randn([n, ch, d], 1.0, &mut rng);
    let pw = Tensor::randn([d, 1], 1.0, &mut rng);
    g.bench_function("softmax_pool_unfused_1024x16x64", |bench| {
        bench.iter(|| {
            let logits = ops::matmul(&y, &pw).reshape(&[n, ch]);
            let weights = ops::softmax_last(&logits).reshape(&[n, 1, ch]);
            black_box(ops::bmm(&weights, &y))
        })
    });
    g.bench_function("softmax_pool_fused_1024x16x64", |bench| {
        bench.iter(|| black_box(ops::softmax_pool(&y, &pw)))
    });
    g.finish();
}

/// `flash_bwd_{b}x{sq}x{sk}x{d}`: flash attention's backward over
/// `[B·H, Sq, Sk, d]`, per batch, through the public parallel op; next to
/// one batch of the same shape alone, which runs on one thread (a batch is
/// one backward task). With `threads` workers the per-batch time could
/// reach the one-batch time over `threads`.
fn flash_bwd_per_batch(
    rng: &mut Rng,
    (b, sq, sk, d): (usize, usize, usize, usize),
    quick: bool,
) -> String {
    let scale = 1.0 / (d as f32).sqrt();
    let [q, dout] = [(); 2].map(|_| Tensor::randn([b, sq, d], 1.0, rng));
    let [k, v] = [(); 2].map(|_| Tensor::randn([b, sk, d], 1.0, rng));
    let time = |q: &Tensor, k: &Tensor, v: &Tensor, dout: &Tensor| {
        let (out, lse) = ops::flash_attention(q, k, v, scale);
        measure_ns(
            || {
                black_box(ops::flash_attention_backward(
                    q, k, v, scale, &out, &lse, dout,
                ));
            },
            quick,
        )
    };
    let per_batch = time(&q, &k, &v, &dout) / b as f64;
    let first = |t: &Tensor| {
        let s = t.dims()[1];
        Tensor::from_vec(t.data()[..s * d].to_vec(), [1, s, d])
    };
    let one = time(&first(&q), &first(&k), &first(&v), &first(&dout));
    format!(
        "    \"flash_bwd_{b}x{sq}x{sk}x{d}\": {{ \"per_batch_ns\": {per_batch:.0}, \"one_batch_serial_ns\": {one:.0}, \"per_batch_over_serial\": {:.2}, \"threads\": {} }},\n",
        per_batch / one,
        rayon::current_num_threads()
    )
}

/// `train_step_alloc`: what one flat MAE training step at perfbench's
/// `mae_hyper_flat_w1` shape (128 bands of 32×32, patch 8, embed 64, depth
/// 4, batch 4, mask 0.75, Tree0-C) asks of the system allocator once warm:
/// minor page faults per step, and the blocks of [`LARGE_BLOCK`] bytes or
/// more it requests on any thread, with the step's wall time. Three
/// warm-up steps, then the mean over the timed steps.
fn train_step_alloc(quick: bool) -> String {
    use dchag_core::train_step;
    use dchag_model::config::{ModelConfig, TreeConfig, UnitKind};
    use dchag_model::{AdamW, MaeModel, PatchMask};
    use dchag_tensor::ParamStore;

    let cfg = ModelConfig {
        embed_dim: 64,
        depth: 4,
        heads: 4,
        mlp_ratio: 2,
        patch: 8,
        img_h: 32,
        img_w: 32,
        channels: 128,
        out_channels: 128,
        decoder_dim: 32,
        decoder_depth: 1,
    };
    let mut rng = Rng::new(11);
    let imgs = Tensor::randn([4, 128, 32, 32], 0.5, &mut rng);
    let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut rng);
    let mut store = ParamStore::new();
    let tree = TreeConfig::tree0(UnitKind::CrossAttention);
    let model = MaeModel::new(&mut store, &mut rng, &cfg, 3, tree);
    let mut opt = AdamW::new(1e-3);
    let mut step = || {
        train_step(&mut store, &mut opt, 1.0, None, |bind| {
            model.forward_loss(bind, &imgs, &mask).0
        })
    };
    for _ in 0..3 {
        step();
    }
    let steps = if quick { 2 } else { 20 };
    LARGE_BLOCKS.store(0, Ordering::SeqCst);
    LARGE_BYTES.store(0, Ordering::SeqCst);
    let faults0 = minor_faults();
    LARGE_COUNTING.store(true, Ordering::SeqCst);
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        black_box(step());
    }
    let step_ns = t0.elapsed().as_nanos() as f64 / steps as f64;
    LARGE_COUNTING.store(false, Ordering::SeqCst);
    let faults = match (faults0, minor_faults()) {
        (Some(a), Some(b)) => format!("{:.1}", (b - a) as f64 / steps as f64),
        _ => "null".into(),
    };
    let per_step = |n: &AtomicUsize| n.load(Ordering::SeqCst) as f64 / steps as f64;
    format!(
        "    \"train_step_alloc\": {{ \"minor_faults_per_step\": {faults}, \"large_blocks_per_step\": {:.1}, \"large_block_bytes_per_step\": {:.0}, \"step_ns\": {step_ns:.0}, \"threads\": {} }},\n",
        per_step(&LARGE_BLOCKS),
        per_step(&LARGE_BYTES),
        rayon::current_num_threads()
    )
}

/// Flag under which the bench binary prints the allocation entries and
/// exits.
const ALLOC_ENTRIES_FLAG: &str = "--alloc-entries";

/// The `flash_bwd_*` and `train_step_alloc` entries, measured in a child
/// run of this bench binary. Earlier benchmarks in this process free large
/// blocks, and the system allocator answers by keeping later ones mapped,
/// so measured here the entries would miss the page faults a fresh
/// training process takes.
fn fresh_process_alloc_entries(quick: bool) -> String {
    let exe = std::env::current_exe().expect("the bench binary's path");
    let mode = if quick { "--test" } else { "--bench" };
    let out = std::process::Command::new(exe)
        .args([ALLOC_ENTRIES_FLAG, mode])
        .output()
        .expect("the allocation entries' child run starts");
    assert!(
        out.status.success(),
        "the allocation entries' child run failed"
    );
    String::from_utf8(out.stdout).expect("the child prints JSON text")
}

/// The first benchmark group: under [`ALLOC_ENTRIES_FLAG`] it prints the
/// allocation entries and exits before any other group allocates. They
/// run on a spawned thread, as a rank does: the system allocator serves a
/// non-main thread from an arena of its own.
fn alloc_entries_child(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == ALLOC_ENTRIES_FLAG) {
        return;
    }
    let quick = std::env::args().any(|a| a == "--test");
    let entries = std::thread::scope(|s| {
        s.spawn(|| {
            // flat_w1's Tree0-C channel attention (256 batches of a
            // 128-channel, 16-wide head) and ClimaX's ViT (128 patches plus
            // the metadata token, 8 batch·heads of width 32).
            let mut rng = Rng::new(31);
            let flat = flash_bwd_per_batch(&mut rng, (256, 128, 128, 16), quick);
            let climax = flash_bwd_per_batch(&mut rng, (8, 129, 129, 32), quick);
            flat + &climax + &train_step_alloc(quick)
        })
        .join()
        .expect("the allocation entries' thread panicked")
    });
    print!("{entries}");
    std::process::exit(0);
}

/// Emit the `kernels` section of `BENCH_kernels.json` at the workspace
/// root: before (seed kernels) vs after (blocked/fused kernels) wall times
/// and the resulting speedups. Section-wise splice, so the `collectives`
/// bench's sections and the frozen `retired_*` sections survive.
/// Runs as a criterion target so `cargo bench --bench kernels` refreshes
/// the file; in `--test` (smoke) mode it still writes, with single-shot
/// timings.
fn emit_kernels_json(_c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--test");
    let mut rng = Rng::new(31);
    // (name, before_ns, after_ns, flops-per-call (0 = no GFLOP/s entry),
    // threads the after side runs on)
    let pool = rayon::current_num_threads();
    let mut entries: Vec<(String, f64, f64, usize, usize)> = Vec::new();

    // GEMM products on the serial blocked driver, so the entries time the
    // kernel, not the pool size.
    let serial = |layout: GemmLayout, a: &Tensor, b: &Tensor, out: &mut [f32], n: usize| {
        bench_api::gemm_fast_serial(layout, 1.0, a.data(), b.data(), out, n, n, n);
        black_box(out);
    };
    for &n in &[64usize, 128, 256] {
        let a = Tensor::randn([n, n], 1.0, &mut rng);
        let b = Tensor::randn([n, n], 1.0, &mut rng);
        let flops = 2 * n * n * n;
        let before = measure_ns(
            || {
                let mut out = vec![0.0f32; n * n];
                seed::gemm_nn(a.data(), b.data(), &mut out, n, n, n);
                black_box(&out);
            },
            quick,
        );
        let mut out = vec![0.0f32; n * n];
        let after = measure_ns(|| serial(GemmLayout::NN, &a, &b, &mut out, n), quick);
        entries.push((format!("gemm_nn_{n}x{n}x{n}"), before, after, flops, 1));
        if n == 256 {
            let before = measure_ns(
                || {
                    let mut out = vec![0.0f32; n * n];
                    seed::gemm_nt(a.data(), b.data(), &mut out, n, n, n);
                    black_box(&out);
                },
                quick,
            );
            let after = measure_ns(|| serial(GemmLayout::NT, &a, &b, &mut out, n), quick);
            entries.push((format!("gemm_nt_{n}x{n}x{n}"), before, after, flops, 1));
            let before = measure_ns(
                || {
                    let mut out = vec![0.0f32; n * n];
                    seed::gemm_tn(a.data(), b.data(), &mut out, n, n, n);
                    black_box(&out);
                },
                quick,
            );
            let after = measure_ns(|| serial(GemmLayout::TN, &a, &b, &mut out, n), quick);
            entries.push((format!("gemm_tn_{n}x{n}x{n}"), before, after, flops, 1));
        }
    }

    // Pack time split out: one MC×KC A-panel gather pack (the strided
    // case), scalar tier vs the active tier's 8×8 shuffle transpose — the
    // claim that small-k shapes are pack-bound is only checkable with
    // this measured separately.
    // (name, tn_ns, nn_ns, flops-per-call): transposed-A work next to its
    // non-transposed counterpart of the same dimensions, the TN layout's
    // ceiling.
    let mut tn_entries: Vec<(String, f64, f64, usize)> = Vec::new();
    {
        use dchag_tensor::simd::{active_isa, Isa};
        let (m, k) = (257usize, 257usize);
        let a = Tensor::randn([m, k], 1.0, &mut rng);
        let mut buf = vec![0.0f32; bench_api::pack_a_buf_len()];
        let mut pack = |isa: Isa, layout: GemmLayout| {
            measure_ns(
                || {
                    black_box(bench_api::pack_a_block(
                        isa,
                        layout,
                        a.data(),
                        m,
                        k,
                        &mut buf,
                    ));
                },
                quick,
            )
        };
        let before = pack(Isa::Scalar, GemmLayout::NN);
        let after = pack(active_isa(), GemmLayout::NN);
        entries.push(("pack_a_gather_120x256".into(), before, after, 0, 1));
        let contig = pack(active_isa(), GemmLayout::TN);
        tn_entries.push(("pack_a_contig_120x256".into(), contig, after, 0));

        // Flash backward's dV = Pᵀ·dO tile, and a Linear weight gradient
        // over flat_w1's 8192 aggregator tokens; serial driver on both.
        for &(m, k, n) in &[(128usize, 128usize, 16usize), (64, 8192, 64)] {
            let a = Tensor::randn([m, k], 1.0, &mut rng);
            let b = Tensor::randn([k, n], 1.0, &mut rng);
            let mut out = vec![0.0f32; m * n];
            let mut product = |layout: GemmLayout| {
                measure_ns(
                    || {
                        bench_api::gemm_fast_serial(
                            layout,
                            1.0,
                            a.data(),
                            b.data(),
                            &mut out,
                            m,
                            k,
                            n,
                        );
                        black_box(&out);
                    },
                    quick,
                )
            };
            let tn = product(GemmLayout::TN);
            let nn = product(GemmLayout::NN);
            tn_entries.push((format!("gemm_tn_{m}x{k}x{n}"), tn, nn, 2 * m * k * n));
        }
    }

    let x = Tensor::randn([512, 256], 1.0, &mut rng);
    let gamma = Tensor::ones([256]);
    let beta = Tensor::zeros([256]);
    let before = measure_ns(
        || {
            black_box(seed_layernorm(&x, &gamma, &beta));
        },
        quick,
    );
    let after = measure_ns(
        || {
            black_box(ops::layernorm(&x, &gamma, &beta));
        },
        quick,
    );
    entries.push(("layernorm_512x256".into(), before, after, 0, pool));

    let h = Tensor::randn([512, 512], 1.0, &mut rng);
    let bias = Tensor::randn([512], 1.0, &mut rng);
    let before = measure_ns(
        || {
            let mut out = vec![0.0f32; h.numel()];
            seed::add_bias_gelu(h.data(), bias.data(), &mut out);
            black_box(&out);
        },
        quick,
    );
    let after = measure_ns(
        || {
            black_box(ops::add_bias_gelu(&h, &bias));
        },
        quick,
    );
    entries.push(("add_bias_gelu_512x512".into(), before, after, 0, pool));

    // Fused Linear forward vs the seed GEMM + bias pass (the seed kernels
    // are every entry's baseline; the pre-SIMD version of this entry
    // compared against this repo's own blocked `ops::matmul`, which is why
    // it sat at speedup 1.00).
    let xm = Tensor::randn([256, 256], 1.0, &mut rng);
    let w = Tensor::randn([256, 256], 1.0, &mut rng);
    let wb = Tensor::randn([256], 1.0, &mut rng);
    let before = measure_ns(
        || {
            let mut out = vec![0.0f32; 256 * 256];
            seed::gemm_nn(xm.data(), w.data(), &mut out, 256, 256, 256);
            for row in out.chunks_mut(256) {
                for (o, &b) in row.iter_mut().zip(wb.data()) {
                    *o += b;
                }
            }
            black_box(&out);
        },
        quick,
    );
    let mut out = vec![0.0f32; 256 * 256];
    let after = measure_ns(
        || {
            let (a, b, bias) = (xm.data(), w.data(), wb.data());
            bench_api::gemm_bias_serial(GemmLayout::NN, 1.0, a, b, bias, &mut out, 256, 256, 256);
            black_box(&out);
        },
        quick,
    );
    let flops = 2 * 256 * 256 * 256;
    entries.push(("matmul_bias_256".into(), before, after, flops, 1));

    // Vectorized exp: the seed softmax's libm expf sweep vs exp_fast.
    let sm = Tensor::randn([256, 128], 3.0, &mut rng);
    let before = measure_ns(
        || {
            let mut out = vec![0.0f32; sm.numel()];
            seed::softmax_last(sm.data(), 128, &mut out);
            black_box(&out);
        },
        quick,
    );
    let after = measure_ns(
        || {
            black_box(ops::softmax_last(&sm));
        },
        quick,
    );
    entries.push(("softmax_exp_256x128".into(), before, after, 0, pool));

    let (n, ch, d) = (1024usize, 16usize, 64usize);
    let y = Tensor::randn([n, ch, d], 1.0, &mut rng);
    let pw = Tensor::randn([d, 1], 1.0, &mut rng);
    let before = measure_ns(
        || {
            let logits = ops::matmul(&y, &pw).reshape(&[n, ch]);
            let weights = ops::softmax_last(&logits).reshape(&[n, 1, ch]);
            black_box(ops::bmm(&weights, &y));
        },
        quick,
    );
    let after = measure_ns(
        || {
            black_box(ops::softmax_pool(&y, &pw));
        },
        quick,
    );
    entries.push(("softmax_pool_1024x16x64".into(), before, after, 0, pool));

    // The same pooling at flat_w1's aggregator shape (batch 4 × 16 patches,
    // 128 channels, embed 64), forward and backward through the tape: the
    // composed matmul → softmax_last → bmm chain (before) vs the fused op.
    let mut pool_rng = Rng::new(41);
    let (n, ch, d) = (64usize, 128usize, 64usize);
    let y = Tensor::randn([n, ch, d], 1.0, &mut pool_rng);
    let pw = Tensor::randn([d, 1], 1.0, &mut pool_rng);
    let dpooled = Tensor::randn([n, d], 1.0, &mut pool_rng);
    let pool_fwd_bwd = |fused: bool| {
        let tape = Tape::new();
        let (yv, pv) = (tape.leaf(y.clone()), tape.leaf(pw.clone()));
        let pooled = if fused {
            tape.softmax_pool(&yv, &pv)
        } else {
            let logits = tape.reshape(&tape.matmul(&yv, &pv), &[n, ch]);
            let weights = tape.reshape(&tape.softmax_last(&logits), &[n, 1, ch]);
            tape.reshape(&tape.bmm(&weights, &yv), &[n, d])
        };
        black_box(tape.backward_seeded(&pooled, dpooled.clone()));
    };
    let before = measure_ns(|| pool_fwd_bwd(false), quick);
    let after = measure_ns(|| pool_fwd_bwd(true), quick);
    entries.push(("softmax_pool_64x128x64".into(), before, after, 0, pool));

    // Attention: naive composed chain (before) vs flash (after), wall time
    // plus an analytic peak-resident-bytes estimate per variant.
    let (bh, d) = (8usize, 64usize);
    let scale = 1.0 / (d as f32).sqrt();
    let mut attn_entries: Vec<(String, f64, f64, usize, usize)> = Vec::new();
    for &s in &[128usize, 256, 512] {
        let q = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let k = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let v = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let before = measure_ns(
            || {
                black_box(ops::naive_attention(&q, &k, &v, scale));
            },
            quick,
        );
        let after = measure_ns(
            || {
                black_box(ops::flash_attention(&q, &k, &v, scale));
            },
            quick,
        );
        attn_entries.push((
            format!("attention_fwd_S{s}_BH{bh}_d{d}"),
            before,
            after,
            ops::naive_attention_peak_bytes(bh, s, s, d),
            ops::flash_attention_peak_bytes(bh, s, s, d, rayon::current_num_threads()),
        ));
    }

    let alloc_entries = fresh_process_alloc_entries(quick);

    let mut body = String::from(
        "{\n    \"note\": \"Seed scalar kernels (before) vs explicit-SIMD blocked GEMM and fused \
         kernels (after) on the simd section's ISA; gflops = effective after-side GFLOP/s. \
         threads = the pool size the after side runs on: the gemm_* and matmul_bias \
         entries time the serial blocked driver (threads 1) against the seed's \
         row-parallel loops. pack_a_gather packs one A block on the scalar tier (before) \
         vs the active tier (after). softmax_pool_64x128x64 times a tape forward and \
         backward at flat_w1's aggregator shape: the composed matmul->softmax_last->bmm \
         chain (before) vs the fused op (after). flash_bwd_256x128x128x16 and \
         flash_bwd_8x129x129x32 are the flash backward at flat_w1's Tree0-C shape and \
         at ClimaX's ViT shape, per batch through the parallel op, next to one batch \
         alone on one thread. train_step_alloc is one warm flat MAE step at flat_w1's \
         shape: minor page faults, and blocks of 64 KiB or more requested from the \
         system allocator, per step. retired_unpooled holds flash_bwd_256x128x128x16 \
         and train_step_alloc measured before tensor buffers were pooled. \
         pack_a_contig_120x256, gemm_tn_128x128x16 and gemm_tn_64x8192x64 time \
         transposed-A work (tn_ns) next to the non-transposed pack or product of the same \
         dimensions (nn_ns, its ceiling), both serial on the active tier. attention_* \
         compare the naive bmm_nt_scaled->softmax->bmm chain with the flash kernel, plus \
         analytic peak-resident bytes per variant.\",\n",
    );
    for (name, before, after, flops, threads) in entries.iter() {
        // Effective GFLOP/s of the "after" kernel, so BENCH entries are
        // comparable across hosts independent of wall-clock.
        let gflops = if *flops > 0 {
            format!(", \"gflops\": {:.1}", *flops as f64 / after)
        } else {
            String::new()
        };
        body.push_str(&format!(
            "    \"{name}\": {{ \"before_ns\": {before:.0}, \"after_ns\": {after:.0}, \"speedup\": {:.2}{gflops}, \"threads\": {threads} }},\n",
            before / after
        ));
    }
    body.push_str(&alloc_entries);
    for (name, tn, nn, flops) in tn_entries.iter() {
        let gflops = if *flops > 0 {
            format!(", \"gflops\": {:.1}", *flops as f64 / tn)
        } else {
            String::new()
        };
        body.push_str(&format!(
            "    \"{name}\": {{ \"tn_ns\": {tn:.0}, \"nn_ns\": {nn:.0}, \"tn_over_nn\": {:.2}{gflops} }},\n",
            tn / nn
        ));
    }
    for (i, (name, before, after, naive_b, flash_b)) in attn_entries.iter().enumerate() {
        let comma = if i + 1 == attn_entries.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{name}\": {{ \"before_ns\": {before:.0}, \"after_ns\": {after:.0}, \"speedup\": {:.2}, \"naive_peak_bytes\": {naive_b}, \"flash_peak_bytes\": {flash_b}, \"peak_mem_ratio\": {:.1} }}{comma}\n",
            before / after,
            *naive_b as f64 / *flash_b as f64
        ));
    }
    body.push_str("  }");
    // Smoke runs (`-- --test`, e.g. CI) produce single-shot timings whose
    // speedups are noise — keep them out of the committed file at the
    // workspace root and park them under target/ instead.
    let path = if quick {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_kernels.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json")
    };
    let desc = "Kernel, collectives, fault-tolerance, transport and checkpoint \
                microbenchmarks (ns per call, median unless noted); each section's note says \
                what it compares, and `cargo bench --bench kernels` / `--bench collectives` \
                regenerate every section except the frozen `retired_*` sections.";
    let isa = dchag_tensor::simd::active_isa();
    let (mr, nr) = dchag_tensor::simd::gemm_tile_shape(isa);
    let simd = format!(
        "{{ \"isa\": \"{}\", \"gemm_micro_tile\": \"{mr}x{nr}\", \"threads\": {} }}",
        isa.name(),
        rayon::current_num_threads()
    );
    update_sections(
        std::path::Path::new(path),
        &[
            ("description", format!("\"{desc}\"")),
            ("quick_mode", format!("{quick}")),
            ("simd", simd),
            ("kernels", body),
        ],
    );
    eprintln!("wrote {path}");
}

fn bench_attention_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("attention");
    // [B·H, S, dh] shapes typical of the functional experiments
    for &s in &[32usize, 128] {
        let mut rng = Rng::new(2);
        let q = Tensor::randn([8, s, 32], 1.0, &mut rng);
        let k = Tensor::randn([8, s, 32], 1.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("scores_bmm_nt", s), &s, |bench, _| {
            bench.iter(|| black_box(ops::bmm_nt(&q, &k)))
        });
        let scores = ops::bmm_nt(&q, &k);
        g.bench_with_input(BenchmarkId::new("softmax", s), &s, |bench, _| {
            bench.iter(|| black_box(ops::softmax_last(&scores)))
        });
    }
    // Naive composition (materialized [B·H,S,S] scores) vs the tiled
    // online-softmax flash kernel, with an analytic peak-resident-bytes
    // estimate per variant printed once per size.
    let (bh, d) = (8usize, 64usize);
    let scale = 1.0 / (d as f32).sqrt();
    for &s in &[128usize, 256, 512] {
        let mut rng = Rng::new(5);
        let q = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let k = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let v = Tensor::randn([bh, s, d], 1.0, &mut rng);
        eprintln!(
            "attention S={s}: naive peak ≈ {} KiB, flash peak ≈ {} KiB",
            ops::naive_attention_peak_bytes(bh, s, s, d) / 1024,
            ops::flash_attention_peak_bytes(bh, s, s, d, rayon::current_num_threads()) / 1024,
        );
        g.bench_with_input(BenchmarkId::new("naive_fwd", s), &s, |bench, _| {
            bench.iter(|| black_box(ops::naive_attention(&q, &k, &v, scale)))
        });
        g.bench_with_input(BenchmarkId::new("flash_fwd", s), &s, |bench, _| {
            bench.iter(|| black_box(ops::flash_attention(&q, &k, &v, scale)))
        });
    }
    // Full fwd+bwd through the tape: three-node naive chain vs one fused
    // node with tile recompute.
    {
        let s = 256usize;
        let mut rng = Rng::new(6);
        let q = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let k = Tensor::randn([bh, s, d], 1.0, &mut rng);
        let v = Tensor::randn([bh, s, d], 1.0, &mut rng);
        g.bench_function("naive_fwd_bwd_256", |bench| {
            bench.iter(|| {
                let tape = Tape::new();
                let (qv, kv, vv) = (
                    tape.leaf(q.clone()),
                    tape.leaf(k.clone()),
                    tape.leaf(v.clone()),
                );
                let sc = tape.bmm_nt_scaled(&qv, &kv, scale);
                let p = tape.softmax_last(&sc);
                let y = tape.bmm(&p, &vv);
                let loss = tape.sum_all(&y);
                black_box(tape.backward(&loss))
            })
        });
        g.bench_function("flash_fwd_bwd_256", |bench| {
            bench.iter(|| {
                let tape = Tape::new();
                let (qv, kv, vv) = (
                    tape.leaf(q.clone()),
                    tape.leaf(k.clone()),
                    tape.leaf(v.clone()),
                );
                let y = tape.flash_attention(&qv, &kv, &vv, scale);
                let loss = tape.sum_all(&y);
                black_box(tape.backward(&loss))
            })
        });
    }
    g.finish();
}

fn bench_norm_and_patchify(c: &mut Criterion) {
    let mut g = c.benchmark_group("layers");
    let mut rng = Rng::new(3);
    let x = Tensor::randn([256, 256], 1.0, &mut rng);
    let gamma = Tensor::ones([256]);
    let beta = Tensor::zeros([256]);
    g.bench_function("layernorm_256x256", |bench| {
        bench.iter(|| black_box(ops::layernorm(&x, &gamma, &beta)))
    });
    let img = Tensor::randn([4, 16, 64, 64], 1.0, &mut rng);
    g.bench_function("patchify_4x16x64x64_p8", |bench| {
        bench.iter(|| black_box(ops::patchify(&img, 8)))
    });
    g.bench_function("gelu_64k", |bench| {
        let t = Tensor::randn([65536], 1.0, &mut rng);
        bench.iter(|| black_box(ops::gelu(&t)))
    });
    g.finish();
}

fn bench_autograd_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("autograd");
    let mut rng = Rng::new(4);
    let a = Tensor::randn([64, 64], 1.0, &mut rng);
    let b = Tensor::randn([64, 64], 1.0, &mut rng);
    g.bench_function("matmul_fwd_bwd_64", |bench| {
        bench.iter(|| {
            let tape = Tape::new();
            let av = tape.leaf(a.clone());
            let bv = tape.leaf(b.clone());
            let y = tape.matmul(&av, &bv);
            let loss = tape.sum_all(&y);
            black_box(tape.backward(&loss))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = alloc_entries_child, bench_matmul, bench_gemm_blocking, bench_gemm_ragged, bench_fusion, bench_attention_primitives, bench_norm_and_patchify, bench_autograd_overhead, emit_kernels_json
}
criterion_main!(benches);
