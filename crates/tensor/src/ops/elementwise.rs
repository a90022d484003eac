//! Elementwise kernels and their derivative helpers.
//!
//! The broadcast over the last axis (`add_bias`) parallelizes over rows
//! past a size threshold, and the transformer hot path gets fused variants
//! that avoid materializing intermediates: `add_bias_gelu` (bias +
//! activation in one sweep, returning the pre-activation the backward pass
//! needs) and `add_scaled_into` / `scale_into` (which reuse the destination
//! buffer when it is uniquely owned).

use crate::par::for_each_row;
use crate::scratch;
use crate::tensor::Tensor;

/// `a + b`, same shapes.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x + y)
}

/// `a - b`, same shapes.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x - y)
}

/// Hadamard product, same shapes.
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |x, y| x * y)
}

/// `alpha * a`.
pub fn scale(a: &Tensor, alpha: f32) -> Tensor {
    scale_into(a.clone(), alpha)
}

/// `alpha * a`, reusing `a`'s buffer when `a` is its sole owner — how the
/// `scale` adjoint rescales the gradient it owns.
pub fn scale_into(a: Tensor, alpha: f32) -> Tensor {
    let shape = a.shape().clone();
    let mut data = a.into_data();
    crate::par::map_in_place(&mut data, |x| alpha * x);
    Tensor::from_vec(data, shape)
}

/// `a + alpha * b` (AXPY), same shapes.
pub fn add_scaled(a: &Tensor, b: &Tensor, alpha: f32) -> Tensor {
    a.zip(b, |x, y| x + alpha * y)
}

/// `a + alpha * b`, reusing `a`'s buffer when `a` is its sole owner — the
/// gradient-accumulation fast path in `Tape::backward_seeded` (no
/// allocation, one read of `b`). With `alpha = 1.0` the FMA rounds exactly
/// like a plain add, so results match [`add`] bit-for-bit.
pub fn add_scaled_into(a: Tensor, b: &Tensor, alpha: f32) -> Tensor {
    assert_eq!(a.dims(), b.dims(), "add_scaled_into shape mismatch");
    let shape = a.shape().clone();
    let mut data = a.into_data();
    for (x, &y) in data.iter_mut().zip(b.data()) {
        *x = alpha.mul_add(y, *x);
    }
    Tensor::from_vec(data, shape)
}

/// Broadcast-add a `[n]` bias over the last axis of `a` (`[..., n]`).
pub fn add_bias(a: &Tensor, bias: &Tensor) -> Tensor {
    let n = a.shape().last();
    assert_eq!(
        bias.numel(),
        n,
        "bias len {} vs last dim {}",
        bias.numel(),
        n
    );
    let b = bias.data();
    let mut out = a.to_vec();
    for_each_row(&mut out, n, |row| {
        for (x, &bb) in row.iter_mut().zip(b) {
            *x += bb;
        }
    });
    Tensor::from_vec(out, a.shape().clone())
}

// The scalar polynomial kernels (and their lane-parallel SIMD twins) live
// in the explicit-SIMD core; re-exported here so `ops::exp_fast` etc. keep
// their historical paths.
pub use crate::simd::{exp_fast, gelu_scalar, tanh_fast};

use crate::simd::{GELU_C, SQRT_2_OVER_PI};

/// d/dx of the tanh-approximated GELU.
#[inline]
pub fn gelu_grad_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_C * x * x * x);
    let t = tanh_fast(u);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * x * x)
}

/// GELU over a tensor: the sweep chunks through the pool and each chunk
/// runs the runtime-dispatched SIMD kernel ([`crate::simd::gelu_sweep`]).
pub fn gelu(a: &Tensor) -> Tensor {
    let mut out = a.to_vec();
    crate::par::for_each_chunk(&mut out, crate::simd::gelu_sweep);
    Tensor::from_vec(out, a.shape().clone())
}

/// Fused bias + GELU: `y = gelu(a + bias)` in one sweep.
///
/// Returns `(y, h)` where `h = a + bias` is the pre-activation the backward
/// pass needs — the two tensors the unfused `add_bias` → `gelu` chain would
/// have produced, minus one full read/write pass and one tape node.
pub fn add_bias_gelu(a: &Tensor, bias: &Tensor) -> (Tensor, Tensor) {
    let n = a.shape().last();
    assert_eq!(
        bias.numel(),
        n,
        "bias len {} vs last dim {}",
        bias.numel(),
        n
    );
    let b = bias.data();
    let mut pre = a.to_vec();
    let mut out = scratch::zeroed(pre.len());
    // Two tight passes rather than one interleaved loop: the bias add
    // vectorizes cleanly on its own, and the (tanh-bound) activation pass
    // reads `pre` straight back out of cache. Versus the unfused
    // `add_bias` → `gelu` chain this saves an allocation and a tape node.
    crate::par::for_each_row_zip(&mut pre, n, &mut out, n, |_, h_row, y_row| {
        for (h, &bb) in h_row.iter_mut().zip(b) {
            *h += bb;
        }
        crate::simd::gelu_into(h_row, y_row);
    });
    (
        Tensor::from_vec(out, a.shape().clone()),
        Tensor::from_vec(pre, a.shape().clone()),
    )
}

/// Backward of [`add_bias_gelu`]: given the saved pre-activation `h` and
/// upstream gradient `g`, returns `(dx, dbias)` (`dx` is also `dh`).
pub fn add_bias_gelu_backward(h: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
    assert_eq!(h.dims(), g.dims());
    let n = h.shape().last();
    let dx = h.zip(g, |hv, gv| gelu_grad_scalar(hv) * gv);
    let mut dbias = scratch::zeroed(n);
    for row in dx.data().chunks(n) {
        for (d, &v) in dbias.iter_mut().zip(row) {
            *d += v;
        }
    }
    (dx, Tensor::from_vec(dbias, [n]))
}

/// Elementwise square.
pub fn square(a: &Tensor) -> Tensor {
    a.map(|x| x * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([4, 5], 1.0, &mut rng);
        let b = Tensor::randn([4, 5], 1.0, &mut rng);
        let c = sub(&add(&a, &b), &b);
        assert!(a.max_abs_diff(&c) < 1e-6);
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        let c = add_bias(&a, &b);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn bias_parallel_path_matches_serial() {
        let mut rng = Rng::new(2);
        let bias = Tensor::randn([64], 1.0, &mut rng);
        let small = Tensor::randn([4, 64], 1.0, &mut rng);
        let small_out = add_bias(&small, &bias);
        // 2048×64 = 128k elements ⇒ parallel path; same rows replicated.
        let big = Tensor::from_vec(small.data().repeat(512), [2048, 64]);
        let big_out = add_bias(&big, &bias);
        for r in 0..2048 {
            let got = &big_out.data()[r * 64..(r + 1) * 64];
            let want = &small_out.data()[(r % 4) * 64..(r % 4 + 1) * 64];
            for (x, y) in got.iter().zip(want) {
                assert_eq!(x, y);
            }
        }
    }

    #[test]
    fn tanh_fast_matches_libm() {
        // Dense sweep across the rational approximation's domain plus the
        // saturated tails.
        let mut x = -10.0f32;
        while x <= 10.0 {
            let got = tanh_fast(x);
            let want = x.tanh();
            assert!(
                (got - want).abs() < 2e-7 + 1e-6 * want.abs(),
                "tanh_fast({x}) = {got} vs {want}"
            );
            x += 0.0137;
        }
        assert_eq!(tanh_fast(0.0), 0.0);
        assert!(tanh_fast(f32::NAN).is_nan());
    }

    #[test]
    fn exp_fast_matches_libm() {
        // Dense sweep over the softmax-relevant range and the full domain.
        let mut x = -87.0f32;
        while x <= 88.0 {
            let got = exp_fast(x);
            let want = x.exp();
            assert!(
                (got - want).abs() <= 2.5e-7 * want,
                "exp_fast({x}) = {got} vs {want} (rel {})",
                (got - want).abs() / want
            );
            x += 0.003_11;
        }
        assert_eq!(exp_fast(0.0), 1.0);
        assert!(exp_fast(f32::NAN).is_nan());
        // Clamped tails stay finite and monotone-consistent.
        assert!(exp_fast(-1000.0) > 0.0 && exp_fast(-1000.0) < 1e-37);
        assert!(exp_fast(1000.0).is_finite());
    }

    #[test]
    fn gelu_known_values() {
        // gelu(0) = 0; gelu(x) ≈ x for large x; gelu(-x) ≈ 0 for large x.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
        // reference value gelu(1.0) ≈ 0.8412 (tanh approx)
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!(
                (gelu_grad_scalar(x) - fd).abs() < 1e-3,
                "x={x}: {} vs {}",
                gelu_grad_scalar(x),
                fd
            );
        }
    }

    #[test]
    fn fused_bias_gelu_matches_unfused() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([6, 33], 1.0, &mut rng);
        let b = Tensor::randn([33], 1.0, &mut rng);
        let (y, h) = add_bias_gelu(&a, &b);
        let h_ref = add_bias(&a, &b);
        let y_ref = gelu(&h_ref);
        assert!(h.max_abs_diff(&h_ref) < 1e-6);
        assert!(y.max_abs_diff(&y_ref) < 1e-6);
    }

    #[test]
    fn fused_bias_gelu_backward_matches_chain() {
        let mut rng = Rng::new(4);
        let a = Tensor::randn([5, 7], 0.8, &mut rng);
        let b = Tensor::randn([7], 0.8, &mut rng);
        let g = Tensor::randn([5, 7], 1.0, &mut rng);
        let (_, h) = add_bias_gelu(&a, &b);
        let (dx, dbias) = add_bias_gelu_backward(&h, &g);
        // chain: dh = gelu'(h)·g, dx = dh, dbias = Σ_rows dh
        let dh = h.zip(&g, |hv, gv| gelu_grad_scalar(hv) * gv);
        assert!(dx.max_abs_diff(&dh) < 1e-6);
        let want = crate::ops::sum_to_last(&dh);
        assert!(dbias.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn scale_and_axpy() {
        let a = Tensor::arange(3);
        let b = Tensor::ones([3]);
        assert_eq!(scale(&a, 2.0).to_vec(), vec![0.0, 2.0, 4.0]);
        assert_eq!(add_scaled(&a, &b, 0.5).to_vec(), vec![0.5, 1.5, 2.5]);
    }

    #[test]
    fn add_scaled_into_unique_buffer_is_in_place() {
        let a = Tensor::arange(4);
        let b = Tensor::ones([4]);
        let out = add_scaled_into(a, &b, 2.0);
        assert_eq!(out.to_vec(), vec![2.0, 3.0, 4.0, 5.0]);
        // shared buffer still works (copy path)
        let c = Tensor::arange(4);
        let keep = c.clone();
        let out2 = add_scaled_into(c, &b, 1.0);
        assert_eq!(out2.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(keep.to_vec(), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
