//! Layer normalization, forward and backward.
//!
//! The forward pass computes per-row statistics in a single sweep using a
//! chunked Welford scheme: each 64-element chunk accumulates a plain
//! lane-parallel sum and sum-of-squares (the runtime-dispatched SIMD sweep
//! in [`crate::simd::welford_stats`]), and chunk statistics are folded into
//! the running `(mean, M2)` pair with Chan's parallel-combine update. This
//! keeps Welford's numerical robustness (no catastrophic cancellation for
//! large means) while the inner loops stay branch-free and explicitly
//! vectorized, and it reads each row once instead of twice.
//!
//! Rows are independent, so both passes parallelize over row bands; the
//! backward's `dγ`/`dβ` cross-row reductions are computed as per-band
//! partials and folded serially at the end.

use rayon::prelude::*;

use crate::par::{self, PAR_NUMEL};
use crate::scratch;
use crate::tensor::Tensor;

pub const LN_EPS: f32 = 1e-5;

/// Saved statistics from the forward pass, needed by the backward pass.
pub struct LayerNormCtx {
    /// Per-row mean, length = rows.
    pub mean: Vec<f32>,
    /// Per-row reciprocal std, length = rows.
    pub rstd: Vec<f32>,
}

impl Drop for LayerNormCtx {
    fn drop(&mut self) {
        scratch::recycle(std::mem::take(&mut self.mean));
        scratch::recycle(std::mem::take(&mut self.rstd));
    }
}

/// Single-sweep `(mean, variance)` of one row via chunked Welford — the
/// runtime-dispatched lane-parallel sweep in the SIMD core.
fn row_stats(row: &[f32]) -> (f32, f32) {
    crate::simd::welford_stats(row)
}

/// LayerNorm over the last axis: `y = (x − μ)/σ · γ + β`.
pub fn layernorm(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> (Tensor, LayerNormCtx) {
    let n = x.shape().last();
    assert_eq!(gamma.numel(), n, "gamma len");
    assert_eq!(beta.numel(), n, "beta len");
    let rows = x.shape().rows();
    let (g, b) = (gamma.data(), beta.data());
    let mut out = scratch::zeroed(x.numel());
    // (mean, rstd) interleaved so one parallel sweep fills both.
    let mut stats = scratch::zeroed(rows * 2);

    if n > 0 {
        par::for_each_row_zip(&mut out, n, &mut stats, 2, |r, o_row, stat| {
            let x_row = &x.data()[r * n..(r + 1) * n];
            let (mu, var) = row_stats(x_row);
            let rs = 1.0 / (var + LN_EPS).sqrt();
            stat[0] = mu;
            stat[1] = rs;
            for (j, (o, &xv)) in o_row.iter_mut().zip(x_row).enumerate() {
                *o = ((xv - mu) * rs).mul_add(g[j], b[j]);
            }
        });
    }

    let mut mean = scratch::with_capacity(rows);
    mean.extend(stats.iter().step_by(2));
    let mut rstd = scratch::with_capacity(rows);
    rstd.extend(stats.iter().skip(1).step_by(2));
    scratch::recycle(stats);
    (
        Tensor::from_vec(out, x.shape().clone()),
        LayerNormCtx { mean, rstd },
    )
}

/// Backward of LayerNorm. Returns `(dx, dgamma, dbeta)`.
pub fn layernorm_backward(
    x: &Tensor,
    gamma: &Tensor,
    ctx: &LayerNormCtx,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let n = x.shape().last();
    let rows = x.shape().rows();
    let g = gamma.data();
    let mut dx = scratch::zeroed(x.numel());

    // dx rows are independent.
    let dx_row = |r: usize, dx_row: &mut [f32]| {
        let x_row = &x.data()[r * n..(r + 1) * n];
        let dy_row = &dy.data()[r * n..(r + 1) * n];
        let (mu, rs) = (ctx.mean[r], ctx.rstd[r]);
        // xhat = (x − μ)·rs ; dy_g = dy ⊙ γ
        // dx = rs·(dy_g − mean(dy_g) − xhat·mean(dy_g ⊙ xhat))
        let mut sum_dyg = 0.0f32;
        let mut sum_dyg_xhat = 0.0f32;
        for j in 0..n {
            let xhat = (x_row[j] - mu) * rs;
            let dyg = dy_row[j] * g[j];
            sum_dyg += dyg;
            sum_dyg_xhat = dyg.mul_add(xhat, sum_dyg_xhat);
        }
        let m1 = sum_dyg / n as f32;
        let m2 = sum_dyg_xhat / n as f32;
        for j in 0..n {
            let xhat = (x_row[j] - mu) * rs;
            let dyg = dy_row[j] * g[j];
            dx_row[j] = rs * (dyg - m1 - xhat * m2);
        }
    };

    // dγ/dβ reduce across rows: per-band partials, folded at the end.
    let band_partials = |r0: usize, r1: usize| {
        let mut dgamma = scratch::zeroed(n);
        let mut dbeta = scratch::zeroed(n);
        for r in r0..r1 {
            let x_row = &x.data()[r * n..(r + 1) * n];
            let dy_row = &dy.data()[r * n..(r + 1) * n];
            let (mu, rs) = (ctx.mean[r], ctx.rstd[r]);
            for j in 0..n {
                let xhat = (x_row[j] - mu) * rs;
                dgamma[j] = dy_row[j].mul_add(xhat, dgamma[j]);
                dbeta[j] += dy_row[j];
            }
        }
        (dgamma, dbeta)
    };

    let (dgamma, dbeta) = if x.numel() >= PAR_NUMEL && rows > 1 {
        par::for_each_row_indexed(&mut dx, n, dx_row);
        // Band count depends on the problem size only, never the thread
        // count, so the dγ/dβ partial-sum grouping — and the f32 result,
        // bit for bit — is identical on every machine.
        const BAND_ROWS: usize = 64;
        const MAX_BANDS: usize = 32;
        let bands = rows.div_ceil(BAND_ROWS).min(MAX_BANDS);
        let per = rows.div_ceil(bands);
        let partials: Vec<(Vec<f32>, Vec<f32>)> = (0..bands)
            .into_par_iter()
            .map(|t| band_partials(t * per, ((t + 1) * per).min(rows)))
            .collect();
        let mut dgamma = scratch::zeroed(n);
        let mut dbeta = scratch::zeroed(n);
        for (pg, pb) in partials {
            for (d, p) in dgamma.iter_mut().zip(&pg) {
                *d += p;
            }
            for (d, p) in dbeta.iter_mut().zip(&pb) {
                *d += p;
            }
        }
        (dgamma, dbeta)
    } else {
        for (r, row) in dx.chunks_mut(n).enumerate() {
            dx_row(r, row);
        }
        band_partials(0, rows)
    };

    (
        Tensor::from_vec(dx, x.shape().clone()),
        Tensor::from_vec(dgamma, [n]),
        Tensor::from_vec(dbeta, [n]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn normalized_rows_have_zero_mean_unit_var() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn([5, 32], 2.0, &mut rng);
        let g = Tensor::ones([32]);
        let b = Tensor::zeros([32]);
        let (y, _) = layernorm(&x, &g, &b);
        for row in y.data().chunks(32) {
            let mu: f32 = row.iter().sum::<f32>() / 32.0;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / 32.0;
            assert!(mu.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn gamma_beta_affine_applied() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 4]);
        let g = Tensor::full([4], 2.0);
        let b = Tensor::full([4], 10.0);
        let (y, _) = layernorm(&x, &g, &b);
        let mu: f32 = y.data().iter().sum::<f32>() / 4.0;
        assert!((mu - 10.0).abs() < 1e-4); // mean shifts to β
    }

    #[test]
    fn welford_stats_match_two_pass() {
        let mut rng = Rng::new(3);
        // Width deliberately not a multiple of the chunk size; offset mean
        // exercises the cancellation robustness Welford buys.
        let x = Tensor::randn([1, 301], 1.0, &mut rng).map(|v| v + 1000.0);
        let (mu, var) = row_stats(x.data());
        let naive_mu = x.data().iter().sum::<f32>() / 301.0;
        let naive_var = x
            .data()
            .iter()
            .map(|&v| (v - naive_mu) * (v - naive_mu))
            .sum::<f32>()
            / 301.0;
        assert!((mu - naive_mu).abs() < 1e-3, "{mu} vs {naive_mu}");
        assert!(
            (var - naive_var).abs() / naive_var < 1e-2,
            "{var} vs {naive_var}"
        );
    }

    #[test]
    fn parallel_rows_match_serial_rows() {
        // Same input, once below and once above the parallel threshold
        // (replicated rows), must normalize each row identically.
        let mut rng = Rng::new(4);
        let row = Tensor::randn([1, 128], 1.5, &mut rng);
        let g = Tensor::randn([128], 0.3, &mut rng).map(|v| v + 1.0);
        let b = Tensor::randn([128], 0.3, &mut rng);
        let (small, _) = layernorm(&row, &g, &b);
        let reps = 512; // 512×128 = 64k ≥ threshold
        let big_in = Tensor::from_vec(row.data().repeat(reps), [reps, 128]);
        let (big, _) = layernorm(&big_in, &g, &b);
        for r in 0..reps {
            let got = &big.data()[r * 128..(r + 1) * 128];
            for (x, y) in got.iter().zip(small.data()) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn([3, 8], 1.0, &mut rng);
        let g = Tensor::randn([8], 0.5, &mut rng).map(|v| v + 1.0);
        let b = Tensor::randn([8], 0.5, &mut rng);
        let dy = Tensor::randn([3, 8], 1.0, &mut rng);

        let (_, ctx) = layernorm(&x, &g, &b);
        let (dx, dgamma, dbeta) = layernorm_backward(&x, &g, &ctx, &dy);

        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| -> f32 {
            let (y, _) = layernorm(x, g, b);
            y.data()
                .iter()
                .zip(dy.data())
                .map(|(&yy, &dd)| yy * dd)
                .sum()
        };
        let h = 1e-3;
        // dx check on a handful of coordinates
        for &i in &[0usize, 5, 12, 23] {
            let mut xp = x.to_vec();
            xp[i] += h;
            let mut xm = x.to_vec();
            xm[i] -= h;
            let fd = (loss(&Tensor::from_vec(xp, x.shape().clone()), &g, &b)
                - loss(&Tensor::from_vec(xm, x.shape().clone()), &g, &b))
                / (2.0 * h);
            assert!(
                (dx.at(i) - fd).abs() < 2e-2,
                "dx[{i}]: {} vs {fd}",
                dx.at(i)
            );
        }
        // dgamma / dbeta
        for i in 0..8 {
            let mut gp = g.to_vec();
            gp[i] += h;
            let mut gm = g.to_vec();
            gm[i] -= h;
            let fd = (loss(&x, &Tensor::from_vec(gp, [8usize]), &b)
                - loss(&x, &Tensor::from_vec(gm, [8usize]), &b))
                / (2.0 * h);
            assert!((dgamma.at(i) - fd).abs() < 2e-2);

            let mut bp = b.to_vec();
            bp[i] += h;
            let mut bm = b.to_vec();
            bm[i] -= h;
            let fd = (loss(&x, &g, &Tensor::from_vec(bp, [8usize]))
                - loss(&x, &g, &Tensor::from_vec(bm, [8usize])))
                / (2.0 * h);
            assert!((dbeta.at(i) - fd).abs() < 2e-2);
        }
    }

    #[test]
    fn parallel_backward_matches_serial() {
        let mut rng = Rng::new(8);
        let reps = 1200; // 1200×64 ≥ the shared PAR_NUMEL threshold
        let x = Tensor::randn([reps, 64], 1.0, &mut rng);
        let g = Tensor::randn([64], 0.4, &mut rng).map(|v| v + 1.0);
        let dy = Tensor::randn([reps, 64], 1.0, &mut rng);
        let b = Tensor::zeros([64]);
        let (_, ctx) = layernorm(&x, &g, &b);
        let (dx, dgamma, dbeta) = layernorm_backward(&x, &g, &ctx, &dy);

        // serial reference over the first rows only
        let rows_small = 4;
        let xs = Tensor::from_vec(x.data()[..rows_small * 64].to_vec(), [rows_small, 64]);
        let dys = Tensor::from_vec(dy.data()[..rows_small * 64].to_vec(), [rows_small, 64]);
        let (_, ctx_s) = layernorm(&xs, &g, &b);
        let (dx_s, _, _) = layernorm_backward(&xs, &g, &ctx_s, &dys);
        for i in 0..rows_small * 64 {
            assert!((dx.at(i) - dx_s.at(i)).abs() < 1e-5);
        }
        // dγ/dβ partial-fold consistency: recompute serially
        let mut want_g = vec![0.0f32; 64];
        let mut want_b = vec![0.0f32; 64];
        for r in 0..reps {
            for j in 0..64 {
                let xhat = (x.at(r * 64 + j) - ctx.mean[r]) * ctx.rstd[r];
                want_g[j] += dy.at(r * 64 + j) * xhat;
                want_b[j] += dy.at(r * 64 + j);
            }
        }
        for j in 0..64 {
            assert!((dgamma.at(j) - want_g[j]).abs() < 2e-2 * want_g[j].abs().max(1.0));
            assert!((dbeta.at(j) - want_b[j]).abs() < 2e-2 * want_b[j].abs().max(1.0));
        }
    }

    #[test]
    fn dx_rows_orthogonal_to_ones_when_gamma_const() {
        // With γ constant, Σ_j dx_j = 0 per row (projection property).
        let mut rng = Rng::new(9);
        let x = Tensor::randn([4, 16], 1.0, &mut rng);
        let g = Tensor::full([16], 1.3);
        let b = Tensor::zeros([16]);
        let dy = Tensor::randn([4, 16], 1.0, &mut rng);
        let (_, ctx) = layernorm(&x, &g, &b);
        let (dx, _, _) = layernorm_backward(&x, &g, &ctx, &dy);
        for row in dx.data().chunks(16) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-4, "row sum {s}");
        }
    }
}
