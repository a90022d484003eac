//! Reductions and row-wise softmax.

use rayon::prelude::*;

use crate::scratch;
use crate::simd;
use crate::tensor::Tensor;

/// Sum over every axis except the last: `[..., n] -> [n]`.
/// This is the bias-gradient reduction.
pub fn sum_to_last(a: &Tensor) -> Tensor {
    let n = a.shape().last();
    let mut out = scratch::zeroed(n);
    for row in a.data().chunks(n) {
        for (o, &x) in out.iter_mut().zip(row) {
            *o += x;
        }
    }
    Tensor::from_vec(out, [n])
}

/// Sum of all elements as a scalar tensor.
pub fn sum_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.sum())
}

/// Mean of all elements as a scalar tensor.
pub fn mean_all(a: &Tensor) -> Tensor {
    Tensor::scalar(a.mean())
}

/// Mean over the second axis of a 3-D tensor: `[b, c, d] -> [b, d]`.
pub fn mean_axis1(a: &Tensor) -> Tensor {
    assert_eq!(a.ndim(), 3, "mean_axis1 wants 3-D, got {}", a.shape());
    let (b, c, d) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let mut out = scratch::zeroed(b * d);
    for bi in 0..b {
        let o = &mut out[bi * d..(bi + 1) * d];
        for ci in 0..c {
            let row = &a.data()[(bi * c + ci) * d..(bi * c + ci + 1) * d];
            for (oo, &x) in o.iter_mut().zip(row) {
                *oo += x;
            }
        }
        let inv = 1.0 / c as f32;
        for oo in o.iter_mut() {
            *oo *= inv;
        }
    }
    Tensor::from_vec(out, [b, d])
}

/// Numerically-stable softmax over the last axis. The max, exponential,
/// and sum passes run on the runtime-dispatched SIMD sweeps in
/// [`crate::simd`] (polynomial `exp_fast` lanes, fixed-tree horizontal
/// folds), so a row costs three vector passes over cache-hot data and no
/// libm calls.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let n = a.shape().last();
    let mut out = a.to_vec();
    let body = |row: &mut [f32]| {
        let max = simd::row_max(row);
        // Exponentiate and sum in separate passes: a fused `sum +=` would
        // chain every lane through one serial accumulator. The standalone
        // sum re-reads the row out of cache with a fixed lane grouping, so
        // results are identical at any thread count.
        simd::exp_sub_sweep(row, max);
        let sum = simd::row_sum(row);
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    };
    if out.len() >= 64 * 1024 {
        out.par_chunks_mut(n).for_each(body);
    } else {
        out.chunks_mut(n).for_each(body);
    }
    Tensor::from_vec(out, a.shape().clone())
}

/// Backward of softmax over the last axis:
/// `dx = (dy − Σ(dy⊙y)) ⊙ y` per row.
pub fn softmax_last_backward(y: &Tensor, dy: &Tensor) -> Tensor {
    assert_eq!(y.dims(), dy.dims());
    let n = y.shape().last();
    let mut out = scratch::zeroed(y.numel());
    for ((o_row, y_row), dy_row) in out
        .chunks_mut(n)
        .zip(y.data().chunks(n))
        .zip(dy.data().chunks(n))
    {
        let dot: f32 = y_row.iter().zip(dy_row).map(|(&a, &b)| a * b).sum();
        for ((o, &yv), &dv) in o_row.iter_mut().zip(y_row).zip(dy_row) {
            *o = (dv - dot) * yv;
        }
    }
    Tensor::from_vec(out, y.shape().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([7, 13], 3.0, &mut rng);
        let s = softmax_last(&a);
        for row in s.data().chunks(13) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn softmax_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], [1, 3]);
        assert!(softmax_last(&a).max_abs_diff(&softmax_last(&b)) < 1e-6);
    }

    #[test]
    fn softmax_extreme_values_stable() {
        let a = Tensor::from_vec(vec![1e4, -1e4, 0.0], [1, 3]);
        let s = softmax_last(&a);
        assert!(s.all_finite());
        assert!((s.at(0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn sum_to_last_is_bias_grad() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(sum_to_last(&a).to_vec(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn mean_axis1_averages_channels() {
        // [1, 2, 3]: two "channels" of 3 dims
        let a = Tensor::from_vec(vec![0.0, 2.0, 4.0, 2.0, 4.0, 6.0], [1, 2, 3]);
        assert_eq!(mean_axis1(&a).to_vec(), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn softmax_backward_matches_jacobian() {
        // For small n, compare against explicit J = diag(y) − y yᵀ.
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.1, 0.2], [1, 4]);
        let y = softmax_last(&x);
        let dy = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9], [1, 4]);
        let dx = softmax_last_backward(&y, &dy);
        for i in 0..4 {
            let mut want = 0.0;
            for j in 0..4 {
                let jac = if i == j {
                    y.at(i) * (1.0 - y.at(i))
                } else {
                    -y.at(i) * y.at(j)
                };
                want += jac * dy.at(j);
            }
            assert!((dx.at(i) - want).abs() < 1e-5);
        }
    }
}
