//! Flash-style fused attention: tiled online-softmax forward and backward.
//!
//! [`flash_attention`] computes `softmax(scale · Q·Kᵀ) · V` without ever
//! materializing the `[B, Sq, Sk]` score matrix. K/V stream through
//! cache-sized tiles ([`FLASH_BC`] rows) against a resident Q tile
//! ([`FLASH_BR`] rows); a running row-max / row-sum pair maintains the
//! softmax online, and only the `[B, Sq]` logsumexp survives the forward
//! pass. The backward pass recomputes score tiles from Q/K and the saved
//! logsumexp — `exp(s − lse)` *is* the softmax row, exactly — so attention
//! activation memory is O(Sq·d) instead of O(Sq·Sk).
//!
//! Every tile product routes through the packed GEMM micro-panels
//! (`gemm_serial_or_small`), so the kernel inherits the cache blocking and
//! register tiling of the matmul layer. The forward fans out over
//! (batch, Q-tile) tasks, gated on total FLOPs like the GEMM dispatch, so
//! ragged hierarchical-aggregation shapes still saturate cores. The
//! backward is one task per batch that walks its (Q-tile, K-tile) pairs,
//! recomputes each score tile once and emits dQ, dK and dV from it (the
//! single-pass structure of FlashAttention-2's backward). Within a task the
//! tile loops are strictly serial and the tile sizes are fixed constants,
//! so partial-sum groupings are shape-derived and results are bitwise
//! reproducible at any thread count.

use crate::ops::gemm::{gemm_serial_or_small, Epilogue, GemmLayout};
use crate::par;
use crate::scratch::{self, with_scratch};
use crate::shape::Shape;
use crate::simd::{self, exp_fast};
use crate::tensor::Tensor;

/// Query rows resident per task: small enough that (batch·Q-tiles) still
/// yields a deep task grid for ragged aggregation shapes, large enough to
/// amortize the per-tile GEMM dispatch. Retuned from 64 for the
/// explicit-SIMD micro-kernels, whose higher FLOP rate shifts the balance
/// toward packing overhead: each K/V panel pack is now amortized over
/// twice the Q rows.
pub const FLASH_BR: usize = 128;
/// Key/value rows streamed per inner step. The `BR×BC` score tile
/// (128 KiB) plus the Q tile stays L2-resident next to the GEMM pack
/// buffers. (BR, BC) = (128, 256) measured fastest of
/// {64, 128} × {128, 256} at S ∈ {256, 512} on the AVX-512 kernels
/// (1.2× over the pre-SIMD (64, 128) tuning at S = 512).
pub const FLASH_BC: usize = 256;

fn attn_dims(q: &Tensor, k: &Tensor, v: &Tensor) -> (usize, usize, usize, usize) {
    assert_eq!(
        q.ndim(),
        3,
        "flash_attention q must be [B, Sq, d], got {}",
        q.shape()
    );
    assert_eq!(
        k.ndim(),
        3,
        "flash_attention k must be [B, Sk, d], got {}",
        k.shape()
    );
    let (b, sq, d) = (q.dims()[0], q.dims()[1], q.dims()[2]);
    let (bk, sk, dk) = (k.dims()[0], k.dims()[1], k.dims()[2]);
    assert_eq!(
        b,
        bk,
        "flash_attention batch {} vs {}",
        q.shape(),
        k.shape()
    );
    assert_eq!(
        d,
        dk,
        "flash_attention head dim {} vs {}",
        q.shape(),
        k.shape()
    );
    assert_eq!(
        v.dims(),
        &[b, sk, d],
        "flash_attention v shape {} vs expected [{b}, {sk}, {d}]",
        v.shape()
    );
    (b, sq, sk, d)
}

/// Exclusive writer over pairwise-disjoint slabs of a flat output buffer,
/// the same raw-window pattern as the GEMM layer's `CTile`: forward tasks
/// write (batch, Q-tile) row ranges and backward tasks whole-batch ranges
/// that never overlap, so a mutable slice only materializes per disjoint
/// slab.
struct Slabs {
    base: *mut f32,
    len: usize,
}

// SAFETY: a `Slabs` is an exclusive capability over its buffer for the
// duration of one parallel region, and every `slab` range handed out is
// pairwise disjoint (one per task).
unsafe impl Send for Slabs {}
unsafe impl Sync for Slabs {}

impl Slabs {
    fn new(buf: &mut [f32]) -> Self {
        Slabs {
            base: buf.as_mut_ptr(),
            len: buf.len(),
        }
    }

    /// SAFETY: caller must ensure ranges handed out are pairwise disjoint
    /// and in-bounds while any returned slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slab(&self, start: usize, len: usize) -> &mut [f32] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.base.add(start), len)
    }
}

/// Fused attention forward: `out = softmax(scale · Q·Kᵀ) · V` over
/// `q: [B, Sq, d]`, `k/v: [B, Sk, d]` (B is already batch·heads).
///
/// Returns `(out [B, Sq, d], lse [B, Sq])` where `lse` is the per-row
/// logsumexp of the scaled scores — the only softmax state the backward
/// pass needs.
pub fn flash_attention(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> (Tensor, Tensor) {
    let (b, sq, sk, d) = attn_dims(q, k, v);
    let q_tiles = sq.div_ceil(FLASH_BR).max(1);
    let mut out = scratch::zeroed(b * sq * d);
    let mut lse = scratch::zeroed(b * sq);
    if b * sq * sk * d > 0 {
        let out_s = Slabs::new(&mut out);
        let lse_s = Slabs::new(&mut lse);
        let par_ok = b * sq * sk * d >= par::PAR_FLOPS;
        par::for_each_task_if(par_ok, b * q_tiles, |t| {
            let (bi, qt) = (t / q_tiles, t % q_tiles);
            let i0 = qt * FLASH_BR;
            let br = FLASH_BR.min(sq - i0);
            // SAFETY: (batch, Q-tile) tasks cover disjoint row ranges.
            let o_tile = unsafe { out_s.slab((bi * sq + i0) * d, br * d) };
            let l_tile = unsafe { lse_s.slab(bi * sq + i0, br) };
            flash_fwd_tile(
                &q.data()[(bi * sq + i0) * d..(bi * sq + i0 + br) * d],
                &k.data()[bi * sk * d..(bi + 1) * sk * d],
                &v.data()[bi * sk * d..(bi + 1) * sk * d],
                scale,
                (br, sk, d),
                o_tile,
                l_tile,
            );
        });
    }
    (
        Tensor::from_vec(out, Shape::new(&[b, sq, d])),
        Tensor::from_vec(lse, Shape::new(&[b, sq])),
    )
}

/// One (batch, Q-tile) forward task: stream K/V tiles, maintain the online
/// softmax, accumulate the unnormalized context into `out` (which arrives
/// zeroed and doubles as the accumulator), finish with the `1/l` rescale.
fn flash_fwd_tile(
    qt: &[f32],
    kb: &[f32],
    vb: &[f32],
    scale: f32,
    (br, sk, d): (usize, usize, usize),
    out: &mut [f32],
    lse: &mut [f32],
) {
    // Tile state comes from the per-thread scratch arena: `m`/`l` are
    // filled here, the score tile is fully Assign-stored before any read,
    // so recycled contents never leak into the online softmax.
    with_scratch(br * (FLASH_BC + 2), |scratch| {
        let (ml, s) = scratch.split_at_mut(2 * br);
        let (m, l) = ml.split_at_mut(br);
        m.fill(f32::NEG_INFINITY);
        l.fill(0.0);
        let mut j0 = 0;
        while j0 < sk {
            let bc = FLASH_BC.min(sk - j0);
            let st = &mut s[..br * bc];
            // S = scale · Q_tile · K_tileᵀ (scale folded into the packing; the
            // assign epilogue overwrites the reused scratch tile, no fill).
            gemm_serial_or_small(
                GemmLayout::NT,
                scale,
                qt,
                &kb[j0 * d..(j0 + bc) * d],
                Epilogue::Assign,
                st,
                br,
                d,
                bc,
            );
            // Online-softmax update: rescale the running sum and the context
            // accumulator by exp(m_old − m_new), then exponentiate in place.
            for (i, srow) in st.chunks_mut(bc).enumerate() {
                let row_max = simd::row_max(srow);
                if row_max > m[i] {
                    let corr = exp_fast(m[i] - row_max);
                    l[i] *= corr;
                    for o in out[i * d..(i + 1) * d].iter_mut() {
                        *o *= corr;
                    }
                    m[i] = row_max;
                }
                // Lane-parallel exp in its own pass, then the sum re-reads the
                // cache-hot row with a fixed lane grouping (a fused serial
                // `sum +=` would chain every lane through one accumulator).
                simd::exp_sub_sweep(srow, m[i]);
                l[i] += simd::row_sum(srow);
            }
            // out += P_tile · V_tile.
            gemm_serial_or_small(
                GemmLayout::NN,
                1.0,
                &s[..br * bc],
                &vb[j0 * d..(j0 + bc) * d],
                Epilogue::Add,
                out,
                br,
                bc,
                d,
            );
            j0 += bc;
        }
        for i in 0..br {
            let inv = 1.0 / l[i];
            for o in out[i * d..(i + 1) * d].iter_mut() {
                *o *= inv;
            }
            lse[i] = m[i] + l[i].ln();
        }
    })
}

/// Fused attention backward. Given the forward inputs, the forward output
/// `out`, the saved logsumexp `lse`, and the upstream gradient `dout`,
/// returns `(dq, dk, dv)`.
///
/// Score tiles are recomputed from Q/K and the saved logsumexp — the
/// classic flash recompute tradeoff that buys O(S) activation memory for
/// more attention FLOPs. Each batch is one task (`flash_bwd_batch`) that
/// walks its (Q-tile, K-tile) pairs and recomputes each score tile once,
/// emitting dV, dQ and dK from it: five tile products per pair.
pub fn flash_attention_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    scale: f32,
    out: &Tensor,
    lse: &Tensor,
    dout: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (b, sq, sk, d) = attn_dims(q, k, v);
    assert_eq!(out.dims(), &[b, sq, d], "flash backward out shape");
    assert_eq!(lse.dims(), &[b, sq], "flash backward lse shape");
    assert_eq!(dout.dims(), &[b, sq, d], "flash backward dout shape");
    // The softmax-backward row dots D_i = Σ_j dO_ij · O_ij.
    let mut drow = scratch::zeroed(b * sq);
    par::for_each_row_indexed_if(
        b * sq * d >= par::PAR_NUMEL,
        &mut drow,
        sq.max(1),
        |bi, dr| {
            for (i, dv) in dr.iter_mut().enumerate() {
                let base = (bi * sq + i) * d;
                let o = &out.data()[base..base + d];
                let g = &dout.data()[base..base + d];
                let mut acc = 0.0f32;
                for (&ov, &gv) in o.iter().zip(g) {
                    acc = ov.mul_add(gv, acc);
                }
                *dv = acc;
            }
        },
    );
    let mut dq = scratch::zeroed(b * sq * d);
    let mut dk = scratch::zeroed(b * sk * d);
    let mut dv = scratch::zeroed(b * sk * d);
    if b * sq * sk * d > 0 {
        let (dq_s, dk_s, dv_s) = (
            Slabs::new(&mut dq),
            Slabs::new(&mut dk),
            Slabs::new(&mut dv),
        );
        par::for_each_task_if(b * sq * sk * d >= par::PAR_FLOPS, b, |bi| {
            let (qs, ks) = (
                bi * sq * d..(bi + 1) * sq * d,
                bi * sk * d..(bi + 1) * sk * d,
            );
            // SAFETY: one task per batch, so the slabs are disjoint.
            let grads = unsafe {
                (
                    dq_s.slab(qs.start, sq * d),
                    dk_s.slab(ks.start, sk * d),
                    dv_s.slab(ks.start, sk * d),
                )
            };
            flash_bwd_batch(
                &q.data()[qs.clone()],
                &k.data()[ks.clone()],
                &v.data()[ks],
                &dout.data()[qs],
                &lse.data()[bi * sq..(bi + 1) * sq],
                &drow[bi * sq..(bi + 1) * sq],
                scale,
                (sq, sk, d),
                grads,
            );
        });
    }
    scratch::recycle(drow);
    (
        Tensor::from_vec(dq, Shape::new(&[b, sq, d])),
        Tensor::from_vec(dk, Shape::new(&[b, sk, d])),
        Tensor::from_vec(dv, Shape::new(&[b, sk, d])),
    )
}

/// Recompute one probability tile `P = exp(scale·Q·Kᵀ − lse)` (exactly the
/// forward softmax rows, via the saved logsumexp) into `s`.
fn recompute_p_tile(
    qt: &[f32],
    kt: &[f32],
    lse: &[f32],
    scale: f32,
    (br, bc, d): (usize, usize, usize),
    s: &mut [f32],
) {
    gemm_serial_or_small(
        GemmLayout::NT,
        scale,
        qt,
        kt,
        Epilogue::Assign,
        s,
        br,
        d,
        bc,
    );
    for (i, srow) in s.chunks_mut(bc).enumerate() {
        // The SIMD exp sweep keeps the recompute lane-parallel — this loop
        // is the bulk of flash backward's extra FLOPs.
        simd::exp_sub_sweep(srow, lse[i]);
    }
}

/// `dS = P ⊙ (dP − D)` in place over `p`, with `dp = dO·Vᵀ` already in `dp`.
fn ds_from_p_dp(p: &mut [f32], dp: &[f32], drow: &[f32], bc: usize) {
    for (i, (prow, dprow)) in p.chunks_mut(bc).zip(dp.chunks(bc)).enumerate() {
        let di = drow[i];
        for (pv, &dpv) in prow.iter_mut().zip(dprow) {
            *pv *= dpv - di;
        }
    }
}

/// One batch's backward. Q tiles ([`FLASH_BR`] rows) run outer and K/V
/// tiles ([`FLASH_BC`] rows) inner; per tile pair: recompute P, then
/// `dV_j += Pᵀ·dO_i` (before dS overwrites P), `dP = dO_i·V_jᵀ`, dS,
/// `dQ_i += scale · dS·K_j` and `dK_j += scale · dSᵀ·Q_i`. Both loops are
/// serial, so dQ_i sums its K tiles in order and dK_j/dV_j sum their Q
/// tiles in order: the groupings depend on the shape alone.
#[allow(clippy::too_many_arguments)]
fn flash_bwd_batch(
    qb: &[f32],
    kb: &[f32],
    vb: &[f32],
    dout_b: &[f32],
    lse_b: &[f32],
    drow_b: &[f32],
    scale: f32,
    (sq, sk, d): (usize, usize, usize),
    (dq, dk, dv): (&mut [f32], &mut [f32], &mut [f32]),
) {
    // One score tile and one dP tile at full K width. Both are
    // Assign-stored before any read, so pooled (dirty) scratch is safe.
    let br_max = sq.min(FLASH_BR);
    with_scratch(2 * br_max * FLASH_BC, |scratch| {
        let (s, dp) = scratch.split_at_mut(br_max * FLASH_BC);
        for i0 in (0..sq).step_by(FLASH_BR) {
            let br = FLASH_BR.min(sq - i0);
            let rows = i0 * d..(i0 + br) * d;
            let (qt, dout_t) = (&qb[rows.clone()], &dout_b[rows.clone()]);
            let (lse_t, drow_t) = (&lse_b[i0..i0 + br], &drow_b[i0..i0 + br]);
            let dq_t = &mut dq[rows];
            for j0 in (0..sk).step_by(FLASH_BC) {
                let bc = FLASH_BC.min(sk - j0);
                let cols = j0 * d..(j0 + bc) * d;
                let (kt, vt) = (&kb[cols.clone()], &vb[cols.clone()]);
                let (st, dpt) = (&mut s[..br * bc], &mut dp[..br * bc]);
                recompute_p_tile(qt, kt, lse_t, scale, (br, bc, d), st);
                // dV += Pᵀ · dO  (P is [br, bc] row-major = the TN layout's [k, m]).
                let dv_t = &mut dv[cols.clone()];
                gemm_serial_or_small(
                    GemmLayout::TN,
                    1.0,
                    st,
                    dout_t,
                    Epilogue::Add,
                    dv_t,
                    bc,
                    br,
                    d,
                );
                // dP = dO · Vᵀ, then dS in place over P.
                gemm_serial_or_small(
                    GemmLayout::NT,
                    1.0,
                    dout_t,
                    vt,
                    Epilogue::Assign,
                    dpt,
                    br,
                    d,
                    bc,
                );
                ds_from_p_dp(st, dpt, drow_t, bc);
                // dQ += scale · dS · K
                gemm_serial_or_small(
                    GemmLayout::NN,
                    scale,
                    st,
                    kt,
                    Epilogue::Add,
                    dq_t,
                    br,
                    bc,
                    d,
                );
                // dK += scale · dSᵀ · Q
                let dk_t = &mut dk[cols];
                gemm_serial_or_small(
                    GemmLayout::TN,
                    scale,
                    st,
                    qt,
                    Epilogue::Add,
                    dk_t,
                    bc,
                    br,
                    d,
                );
            }
        }
    })
}

/// The unfused reference composition `bmm(softmax(scale·Q·Kᵀ), V)` — the
/// "before" side of parity tests, debug asserts, and the attention benches.
pub fn naive_attention(q: &Tensor, k: &Tensor, v: &Tensor, scale: f32) -> Tensor {
    let scores = crate::ops::bmm_nt_scaled(q, k, scale);
    let p = crate::ops::softmax_last(&scores);
    crate::ops::bmm(&p, v)
}

/// Analytic peak-resident-bytes estimate for one naive attention forward:
/// the `[B,Sq,Sk]` score tensor, the softmax's same-shaped copy (both alive
/// while softmax runs), and the `[B,Sq,d]` context output.
pub fn naive_attention_peak_bytes(b: usize, sq: usize, sk: usize, d: usize) -> usize {
    4 * (2 * b * sq * sk + b * sq * d)
}

/// Analytic peak-resident-bytes estimate for one flash attention forward:
/// the `[B,Sq,d]` output, the `[B,Sq]` logsumexp, and per-worker tile state
/// (score tile + running max/sum) — no term scales with `Sq·Sk`.
pub fn flash_attention_peak_bytes(
    b: usize,
    sq: usize,
    _sk: usize,
    d: usize,
    workers: usize,
) -> usize {
    let per_task = FLASH_BR * FLASH_BC + 2 * FLASH_BR;
    4 * (b * sq * d + b * sq + workers.max(1) * per_task)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn randn3(b: usize, s: usize, d: usize, rng: &mut Rng) -> Tensor {
        Tensor::randn([b, s, d], 1.0, rng)
    }

    #[test]
    fn forward_matches_naive_across_shapes() {
        // S ∈ {1, 7, 64, 130, 520}: degenerate, tiny, sub-tile, a
        // non-multiple spanning several Q tiles, and one spanning multiple
        // K/V tiles (S > FLASH_BC) so the online-softmax streaming path
        // runs.
        let mut rng = Rng::new(1);
        for &(b, s, d) in &[
            (1usize, 1usize, 4usize),
            (2, 7, 8),
            (1, 64, 16),
            (2, 130, 8),
            (1, 520, 8),
        ] {
            let q = randn3(b, s, d, &mut rng);
            let k = randn3(b, s, d, &mut rng);
            let v = randn3(b, s, d, &mut rng);
            let scale = 1.0 / (d as f32).sqrt();
            let (out, lse) = flash_attention(&q, &k, &v, scale);
            let want = naive_attention(&q, &k, &v, scale);
            assert!(
                out.max_abs_diff(&want) <= 1e-4,
                "B={b} S={s} d={d}: {}",
                out.max_abs_diff(&want)
            );
            assert_eq!(lse.dims(), &[b, s]);
            assert!(lse.all_finite());
        }
    }

    #[test]
    fn cross_attention_sq_ne_sk_matches_naive() {
        let mut rng = Rng::new(2);
        for &(sq, sk) in &[(3usize, 130usize), (130, 7), (65, 64), (1, 200), (130, 520)] {
            let q = randn3(2, sq, 8, &mut rng);
            let k = randn3(2, sk, 8, &mut rng);
            let v = randn3(2, sk, 8, &mut rng);
            let (out, _) = flash_attention(&q, &k, &v, 0.35);
            let want = naive_attention(&q, &k, &v, 0.35);
            assert!(
                out.max_abs_diff(&want) <= 1e-4,
                "Sq={sq} Sk={sk}: {}",
                out.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn lse_is_the_scores_logsumexp() {
        let mut rng = Rng::new(3);
        let (q, k, v) = (
            randn3(1, 5, 4, &mut rng),
            randn3(1, 9, 4, &mut rng),
            randn3(1, 9, 4, &mut rng),
        );
        let scale = 0.5;
        let (_, lse) = flash_attention(&q, &k, &v, scale);
        let scores = crate::ops::bmm_nt_scaled(&q, &k, scale);
        for i in 0..5 {
            let row = &scores.data()[i * 9..(i + 1) * 9];
            let m = row.iter().fold(f32::NEG_INFINITY, |a, &x| a.max(x));
            let want = m + row.iter().map(|&x| (x - m).exp()).sum::<f32>().ln();
            assert!(
                (lse.at(i) - want).abs() < 1e-4,
                "row {i}: {} vs {want}",
                lse.at(i)
            );
        }
    }

    #[test]
    fn large_scores_stay_stable() {
        // Online softmax must survive score magnitudes that overflow a
        // naive exp (unshifted e^x saturates past ~88).
        let mut rng = Rng::new(4);
        let q = Tensor::randn([1, 70, 8], 8.0, &mut rng);
        let k = Tensor::randn([1, 70, 8], 8.0, &mut rng);
        let v = randn3(1, 70, 8, &mut rng);
        let (out, lse) = flash_attention(&q, &k, &v, 1.0);
        assert!(out.all_finite());
        assert!(lse.all_finite());
        let want = naive_attention(&q, &k, &v, 1.0);
        assert!(out.max_abs_diff(&want) <= 1e-3);
    }

    #[test]
    fn parallel_task_grid_matches_per_batch_serial() {
        // Big enough to clear the FLOPs gate: 4·256·256·32 = 8.4M ≥ 2^19.
        let mut rng = Rng::new(5);
        let (b, s, d) = (4usize, 256usize, 32usize);
        let q = randn3(b, s, d, &mut rng);
        let k = randn3(b, s, d, &mut rng);
        let v = randn3(b, s, d, &mut rng);
        let (out, lse) = flash_attention(&q, &k, &v, 0.2);
        // Per-batch slices go below the gate → serial path; the results must
        // be bitwise identical (partial-sum groupings are shape-derived).
        for bi in 0..b {
            let qs = Tensor::from_vec(q.data()[bi * s * d..(bi + 1) * s * d].to_vec(), [1, s, d]);
            let ks = Tensor::from_vec(k.data()[bi * s * d..(bi + 1) * s * d].to_vec(), [1, s, d]);
            let vs = Tensor::from_vec(v.data()[bi * s * d..(bi + 1) * s * d].to_vec(), [1, s, d]);
            let (os, ls) = flash_attention(&qs, &ks, &vs, 0.2);
            for j in 0..s * d {
                assert_eq!(out.at(bi * s * d + j), os.at(j), "batch {bi} elem {j}");
            }
            for j in 0..s {
                assert_eq!(lse.at(bi * s + j), ls.at(j));
            }
        }
    }

    #[test]
    fn backward_parallel_task_grid_matches_per_batch_serial() {
        // Several Q and K tiles per batch, and above the FLOPs gate:
        // 4·260·300·32 = 10M ≥ 2^19, so the four batch tasks run on the
        // pool; a one-batch call is one task, so it runs serially.
        let mut rng = Rng::new(8);
        let (b, sq, sk, d) = (4usize, 260usize, 300usize, 32usize);
        let q = randn3(b, sq, d, &mut rng);
        let k = randn3(b, sk, d, &mut rng);
        let v = randn3(b, sk, d, &mut rng);
        let g = randn3(b, sq, d, &mut rng);
        let scale = 1.0 / (d as f32).sqrt();
        let (out, lse) = flash_attention(&q, &k, &v, scale);
        let (dq, dk, dv) = flash_attention_backward(&q, &k, &v, scale, &out, &lse, &g);
        let batch = |t: &Tensor, bi: usize, s: usize| {
            Tensor::from_vec(t.data()[bi * s * d..(bi + 1) * s * d].to_vec(), [1, s, d])
        };
        for bi in 0..b {
            let (qs, ks, vs, gs) = (
                batch(&q, bi, sq),
                batch(&k, bi, sk),
                batch(&v, bi, sk),
                batch(&g, bi, sq),
            );
            let (os, ls) = flash_attention(&qs, &ks, &vs, scale);
            let (dqs, dks, dvs) = flash_attention_backward(&qs, &ks, &vs, scale, &os, &ls, &gs);
            for (name, whole, one, s) in [
                ("dq", &dq, &dqs, sq),
                ("dk", &dk, &dks, sk),
                ("dv", &dv, &dvs, sk),
            ] {
                for (j, x) in one.data().iter().enumerate() {
                    assert_eq!(
                        whole.at(bi * s * d + j).to_bits(),
                        x.to_bits(),
                        "{name} batch {bi} elem {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn backward_matches_composed_autograd() {
        use crate::autograd::Tape;
        let mut rng = Rng::new(6);
        let mut shapes = vec![
            (7usize, 7usize, 4usize),
            (5, 130, 8),
            (70, 3, 8),
            (9, 300, 4),
            // Several Q tiles: ClimaX's 128 patches plus the metadata
            // token, and a shape with ragged Q and K tails.
            (129, 129, 32),
            (300, 520, 4),
        ];
        // Tile corners: one row, a full tile, and one row past it.
        for sq in [1, FLASH_BR, FLASH_BR + 1] {
            for sk in [1, FLASH_BC, FLASH_BC + 1] {
                shapes.push((sq, sk, 8));
            }
        }
        for &(sq, sk, d) in &shapes {
            let q = randn3(2, sq, d, &mut rng);
            let k = randn3(2, sk, d, &mut rng);
            let v = randn3(2, sk, d, &mut rng);
            let scale = 1.0 / (d as f32).sqrt();
            let g = randn3(2, sq, d, &mut rng);

            let (out, lse) = flash_attention(&q, &k, &v, scale);
            let (dq, dk, dv) = flash_attention_backward(&q, &k, &v, scale, &out, &lse, &g);
            // `max_abs_diff` skips NaN, so finiteness is checked on its own.
            assert!(
                dq.all_finite() && dk.all_finite() && dv.all_finite(),
                "Sq={sq} Sk={sk}"
            );

            let tape = Tape::new();
            let (qv, kv, vv) = (
                tape.leaf(q.clone()),
                tape.leaf(k.clone()),
                tape.leaf(v.clone()),
            );
            let scores = tape.bmm_nt_scaled(&qv, &kv, scale);
            let p = tape.softmax_last(&scores);
            let ctx = tape.bmm(&p, &vv);
            let grads = tape.backward_seeded(&ctx, g.clone());
            assert!(
                dq.max_abs_diff(grads.get(&qv).unwrap()) <= 1e-4,
                "dq Sq={sq} Sk={sk}"
            );
            assert!(
                dk.max_abs_diff(grads.get(&kv).unwrap()) <= 1e-4,
                "dk Sq={sq} Sk={sk}"
            );
            assert!(
                dv.max_abs_diff(grads.get(&vv).unwrap()) <= 1e-4,
                "dv Sq={sq} Sk={sk}"
            );
        }
    }

    #[test]
    fn peak_bytes_estimates_favor_flash_quadratically() {
        let naive = naive_attention_peak_bytes(8, 512, 512, 64);
        let flash = flash_attention_peak_bytes(8, 512, 512, 64, 16);
        assert!(naive >= 2 * flash, "naive {naive} vs flash {flash}");
        // Naive grows with Sq·Sk; flash does not.
        assert_eq!(
            flash_attention_peak_bytes(8, 512, 2048, 64, 16),
            flash_attention_peak_bytes(8, 512, 512, 64, 16)
        );
    }
}
