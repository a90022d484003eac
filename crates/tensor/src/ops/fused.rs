//! Fused multi-op kernels for the transformer hot path.
//!
//! Each function here replaces a chain of primitive ops (and the
//! intermediate tensors plus tape nodes between them) with one kernel:
//!
//! * [`matmul_bias`] — `x·W + b` with the bias broadcast into the GEMM
//!   output buffer *before* accumulation, so the bias add is free.
//! * [`linear_gelu`] — a full fused `gelu(x·W + b)` feed-forward layer.
//! * [`softmax_pool`] — the cross-attention aggregator's learned pooling
//!   (`softmax(y·p)ᵀ · y`) without materializing `[N,C,1]` logits /
//!   `[N,1,C]` weights / `[N,1,D]` pooled as separate batched-matmul
//!   tensors.

use crate::ops::gemm::{gemm, gemm_batch_into, gemm_bias, GemmJob, GemmLayout};
use crate::ops::reduce::softmax_last;
use crate::par;
use crate::scratch;
use crate::shape::Shape;
use crate::tensor::Tensor;

fn linear_dims(a: &Tensor, w: &Tensor, bias: &Tensor) -> (usize, usize, usize) {
    assert_eq!(w.ndim(), 2, "weight must be 2-D, got {}", w.shape());
    let (k, n) = (w.dims()[0], w.dims()[1]);
    assert_eq!(
        a.shape().last(),
        k,
        "matmul_bias inner dims {} vs {}",
        a.shape(),
        w.shape()
    );
    assert_eq!(bias.numel(), n, "bias len {} vs out dim {n}", bias.numel());
    (a.shape().rows(), k, n)
}

/// Fused `x·W + b`: the Linear layer forward in one GEMM, with the bias
/// added in the GEMM epilogue (during the micro-kernel store of the first
/// depth block) — no broadcast pre-pass over the output buffer.
/// Leading axes of `x` are preserved.
pub fn matmul_bias(a: &Tensor, w: &Tensor, bias: &Tensor) -> Tensor {
    let (m, k, n) = linear_dims(a, w, bias);
    let mut c = scratch::zeroed(m * n);
    gemm_bias(
        GemmLayout::NN,
        1.0,
        a.data(),
        w.data(),
        bias.data(),
        &mut c,
        m,
        k,
        n,
    );
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().unwrap() = n;
    Tensor::from_vec(c, Shape::new(&out_dims))
}

/// Fused `gelu(x·W + b)` (the MLP up-projection + activation).
///
/// Returns `(y, h)` with `h = x·W + b` saved for the backward pass.
pub fn linear_gelu(a: &Tensor, w: &Tensor, bias: &Tensor) -> (Tensor, Tensor) {
    let (m, k, n) = linear_dims(a, w, bias);
    let mut h = scratch::zeroed(m * n);
    gemm_bias(
        GemmLayout::NN,
        1.0,
        a.data(),
        w.data(),
        bias.data(),
        &mut h,
        m,
        k,
        n,
    );
    let mut y = scratch::zeroed(h.len());
    par::for_each_row_zip(&mut y, n, &mut h, n, |_, y_row, h_row| {
        crate::simd::gelu_into(h_row, y_row);
    });
    let mut out_dims = a.dims().to_vec();
    *out_dims.last_mut().unwrap() = n;
    let shape = Shape::new(&out_dims);
    (
        Tensor::from_vec(y, shape.clone()),
        Tensor::from_vec(h, shape),
    )
}

/// Learned softmax pooling over the channel axis, fused.
///
/// `y: [N, C, D]`, `pw: [D, 1]` (or `[D]`). Computes per position `n`:
///
/// ```text
/// w[n, :]   = softmax_c(y[n, c, :] · pw)
/// out[n, :] = Σ_c w[n, c] · y[n, c, :]
/// ```
///
/// Returns `(pooled [N, D], weights [N, C])`; the weights are what the
/// backward pass needs. Replaces a matmul → reshape → softmax → reshape →
/// bmm chain (five tape nodes, three materialized intermediates) with one
/// node. The logits fold into a single `[N·C, D] × [D, 1]` GEMV, and the
/// per-position `[1,C]×[C,D]` pooling products — individually far too small
/// to amortize a GEMM dispatch — run as one ragged batch through
/// `gemm_batch_into`, which picks the small-product kernel per job and
/// parallelizes across the whole batch.
pub fn softmax_pool(y: &Tensor, pw: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(
        y.ndim(),
        3,
        "softmax_pool wants [N, C, D], got {}",
        y.shape()
    );
    let (nn, c, d) = (y.dims()[0], y.dims()[1], y.dims()[2]);
    assert_eq!(pw.numel(), d, "pool weight len {} vs dim {d}", pw.numel());
    let yo = y.data();

    // Logits: every position's `[C,D]·[D,1]` product is the same GEMV over
    // consecutive rows, so the whole thing folds into ONE `[N·C, D]×[D, 1]`
    // product — one dispatch instead of N tiny ones.
    let mut logits = scratch::zeroed(nn * c);
    gemm(
        GemmLayout::NN,
        1.0,
        yo,
        pw.data(),
        &mut logits,
        nn * c,
        d,
        1,
    );

    let weights = softmax_last(&Tensor::from_vec(logits, [nn, c]));

    // Pooling: out[n,:] = w[n,:]·y[n,:,:] is genuinely batched (a distinct
    // weight row per position) — hand the ragged batch to gemm_batch_into.
    let wd = weights.data();
    let jobs: Vec<GemmJob<'_>> = (0..nn)
        .map(|n_idx| GemmJob {
            layout: GemmLayout::NN,
            alpha: 1.0,
            a: &wd[n_idx * c..(n_idx + 1) * c],
            b: &yo[n_idx * c * d..(n_idx + 1) * c * d],
            m: 1,
            k: c,
            n: d,
            c_off: n_idx * d,
        })
        .collect();
    let mut out = scratch::zeroed(nn * d);
    gemm_batch_into(&jobs, &mut out);

    (Tensor::from_vec(out, [nn, d]), weights)
}

/// Backward of [`softmax_pool`]. Given the op input `y`, pool weights `pw`,
/// saved softmax `weights` and upstream gradient `g [N, D]`, returns
/// `(dy, dpw)`.
pub fn softmax_pool_backward(
    y: &Tensor,
    pw: &Tensor,
    weights: &Tensor,
    g: &Tensor,
) -> (Tensor, Tensor) {
    let (nn, c, d) = (y.dims()[0], y.dims()[1], y.dims()[2]);
    assert_eq!(g.dims(), &[nn, d], "softmax_pool grad shape");
    let p = pw.data();
    let par = nn * c * d >= par::PAR_NUMEL;

    // Pass 1 — dl[n,c]: ds[c] = g·y[c] (grad wrt each softmax weight) run
    // through the softmax backward per position.
    let mut dl = scratch::zeroed(nn * c);
    par::for_each_row_indexed_if(par, &mut dl, c, |n_idx, dl_row| {
        let g_row = &g.data()[n_idx * d..(n_idx + 1) * d];
        let w_row = &weights.data()[n_idx * c..(n_idx + 1) * c];
        for (ci, v) in dl_row.iter_mut().enumerate() {
            let row = &y.data()[(n_idx * c + ci) * d..(n_idx * c + ci + 1) * d];
            let mut s = 0.0f32;
            for (&rv, &gv) in row.iter().zip(g_row) {
                s = rv.mul_add(gv, s);
            }
            *v = s;
        }
        let dot: f32 = dl_row.iter().zip(w_row).map(|(&a, &b)| a * b).sum();
        for (v, &w) in dl_row.iter_mut().zip(w_row) {
            *v = (*v - dot) * w;
        }
    });

    // Pass 2 — dy[n,c,:] = w[n,c]·g[n,:] + dl[n,c]·pw (disjoint per-position
    // slabs, fully parallel).
    let mut dy = scratch::zeroed(nn * c * d);
    par::for_each_row_indexed_if(par, &mut dy, c * d, |n_idx, dy_slab| {
        let g_row = &g.data()[n_idx * d..(n_idx + 1) * d];
        for (ci, dy_row) in dy_slab.chunks_mut(d).enumerate() {
            let wv = weights.at(n_idx * c + ci);
            let dlv = dl[n_idx * c + ci];
            for ((o, &gv), &pv) in dy_row.iter_mut().zip(g_row).zip(p) {
                *o = wv.mul_add(gv, dlv * pv);
            }
        }
    });

    // Pass 3 — dpw = Σ_{n,c} dl[n,c]·y[n,c,:], which is exactly
    // yᵀ·dl over the folded [N·C, D] view: one TN GEMM.
    let mut dpw = scratch::zeroed(d);
    gemm(GemmLayout::TN, 1.0, y.data(), &dl, &mut dpw, d, nn * c, 1);
    scratch::recycle(dl);

    (
        Tensor::from_vec(dy, Shape::new(&[nn, c, d])),
        Tensor::from_vec(dpw, pw.shape().clone()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::rng::Rng;

    #[test]
    fn matmul_bias_matches_unfused() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn([3, 5, 8], 1.0, &mut rng);
        let w = Tensor::randn([8, 6], 1.0, &mut rng);
        let b = Tensor::randn([6], 1.0, &mut rng);
        let fused = matmul_bias(&x, &w, &b);
        let unfused = ops::add_bias(&ops::matmul(&x, &w), &b);
        assert_eq!(fused.dims(), &[3, 5, 6]);
        assert!(fused.max_abs_diff(&unfused) < 1e-5);
    }

    #[test]
    fn matmul_bias_blocked_path_matches_unfused() {
        // Big enough to take the packed GEMM path.
        let mut rng = Rng::new(2);
        let x = Tensor::randn([130, 70], 1.0, &mut rng);
        let w = Tensor::randn([70, 90], 1.0, &mut rng);
        let b = Tensor::randn([90], 1.0, &mut rng);
        let fused = matmul_bias(&x, &w, &b);
        let unfused = ops::add_bias(&ops::matmul(&x, &w), &b);
        assert!(fused.rel_l2_diff(&unfused) < 1e-5);
    }

    #[test]
    fn linear_gelu_matches_unfused() {
        let mut rng = Rng::new(3);
        let x = Tensor::randn([4, 7], 1.0, &mut rng);
        let w = Tensor::randn([7, 9], 1.0, &mut rng);
        let b = Tensor::randn([9], 1.0, &mut rng);
        let (y, h) = linear_gelu(&x, &w, &b);
        let h_ref = ops::add_bias(&ops::matmul(&x, &w), &b);
        assert!(h.max_abs_diff(&h_ref) < 1e-5);
        assert!(y.max_abs_diff(&ops::gelu(&h_ref)) < 1e-5);
    }

    #[test]
    fn softmax_pool_matches_composed_ops() {
        let mut rng = Rng::new(4);
        let (n, c, d) = (6, 5, 8);
        let y = Tensor::randn([n, c, d], 1.0, &mut rng);
        let pw = Tensor::randn([d, 1], 1.0, &mut rng);
        let (pooled, weights) = softmax_pool(&y, &pw);

        // composed reference: logits = y·pw, softmax, bmm
        let logits = ops::matmul(&y, &pw).reshape(&[n, c]);
        let w_ref = ops::softmax_last(&logits);
        assert!(weights.max_abs_diff(&w_ref) < 1e-5);
        let pooled_ref = ops::bmm(&w_ref.reshape(&[n, 1, c]), &y).reshape(&[n, d]);
        assert!(pooled.max_abs_diff(&pooled_ref) < 1e-5);
    }

    #[test]
    fn softmax_pool_weights_sum_to_one() {
        let mut rng = Rng::new(5);
        let y = Tensor::randn([3, 7, 4], 2.0, &mut rng);
        let pw = Tensor::randn([4], 1.0, &mut rng);
        let (_, weights) = softmax_pool(&y, &pw);
        for row in weights.data().chunks(7) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_pool_backward_matches_finite_difference() {
        let mut rng = Rng::new(6);
        let (n, c, d) = (2, 3, 4);
        let y = Tensor::randn([n, c, d], 0.7, &mut rng);
        let pw = Tensor::randn([d, 1], 0.7, &mut rng);
        let g = Tensor::randn([n, d], 1.0, &mut rng);

        let (_, weights) = softmax_pool(&y, &pw);
        let (dy, dpw) = softmax_pool_backward(&y, &pw, &weights, &g);

        let loss = |y: &Tensor, pw: &Tensor| -> f32 {
            let (pooled, _) = softmax_pool(y, pw);
            pooled
                .data()
                .iter()
                .zip(g.data())
                .map(|(&a, &b)| a * b)
                .sum()
        };
        let h = 1e-3;
        for i in 0..n * c * d {
            let mut yp = y.to_vec();
            yp[i] += h;
            let mut ym = y.to_vec();
            ym[i] -= h;
            let fd = (loss(&Tensor::from_vec(yp, [n, c, d]), &pw)
                - loss(&Tensor::from_vec(ym, [n, c, d]), &pw))
                / (2.0 * h);
            assert!(
                (dy.at(i) - fd).abs() < 2e-2,
                "dy[{i}]: {} vs {fd}",
                dy.at(i)
            );
        }
        for i in 0..d {
            let mut pp = pw.to_vec();
            pp[i] += h;
            let mut pm = pw.to_vec();
            pm[i] -= h;
            let fd = (loss(&y, &Tensor::from_vec(pp, [d, 1]))
                - loss(&y, &Tensor::from_vec(pm, [d, 1])))
                / (2.0 * h);
            assert!(
                (dpw.at(i) - fd).abs() < 2e-2,
                "dpw[{i}]: {} vs {fd}",
                dpw.at(i)
            );
        }
    }

    #[test]
    fn softmax_pool_parallel_band_path_matches_serial() {
        let mut rng = Rng::new(7);
        // 200×8×48 = 76.8k ≥ threshold → banded parallel backward.
        let (n, c, d) = (200, 8, 48);
        let y = Tensor::randn([n, c, d], 1.0, &mut rng);
        let pw = Tensor::randn([d], 1.0, &mut rng);
        let g = Tensor::randn([n, d], 1.0, &mut rng);
        let (_, weights) = softmax_pool(&y, &pw);
        let (dy, dpw) = softmax_pool_backward(&y, &pw, &weights, &g);

        // serial reference computed per-position on slices
        let mut want_dpw = vec![0.0f32; d];
        for n_idx in 0..n {
            let ys = Tensor::from_vec(
                y.data()[n_idx * c * d..(n_idx + 1) * c * d].to_vec(),
                [1, c, d],
            );
            let gs = Tensor::from_vec(g.data()[n_idx * d..(n_idx + 1) * d].to_vec(), [1, d]);
            let (_, ws) = softmax_pool(&ys, &pw);
            let (dys, dpws) = softmax_pool_backward(&ys, &pw, &ws, &gs);
            // The batched forward computes logits through the blocked GEMV
            // path while the per-position reference takes the small-product
            // kernel; accumulation order differs, so the softmax weights
            // (and hence dy) agree to rounding, not bitwise.
            for j in 0..c * d {
                assert!((dy.at(n_idx * c * d + j) - dys.at(j)).abs() < 1e-4);
            }
            for (j, w) in want_dpw.iter_mut().enumerate() {
                *w += dpws.at(j);
            }
        }
        for (j, &w) in want_dpw.iter().enumerate() {
            assert!((dpw.at(j) - w).abs() < 1e-3 * w.abs().max(1.0));
        }
    }
}
