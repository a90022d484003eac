//! Data-movement kernels: axis swaps, concatenation, slicing, token
//! selection, batch broadcasts and image patchification.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Swap axes 1 and 2 of a 4-D tensor: `[a, b, c, d] -> [a, c, b, d]`.
///
/// This is the rearrangement between channel-major `[B, C, P, D]` and
/// position-major `[B, P, C, D]` token layouts, and between `[B, S, H, dh]`
/// and head-major `[B, H, S, dh]` in attention.
pub fn swap_axes12(t: &Tensor) -> Tensor {
    assert_eq!(t.ndim(), 4, "swap_axes12 wants 4-D, got {}", t.shape());
    let (a, b, c, d) = (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]);
    let src = t.data();
    let mut out = vec![0.0f32; t.numel()];
    for ai in 0..a {
        for bi in 0..b {
            for ci in 0..c {
                let s = ((ai * b + bi) * c + ci) * d;
                let o = ((ai * c + ci) * b + bi) * d;
                out[o..o + d].copy_from_slice(&src[s..s + d]);
            }
        }
    }
    Tensor::from_vec(out, [a, c, b, d])
}

/// Concatenate tensors along `axis`. All other axes must match.
pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
    assert!(!tensors.is_empty(), "concat of nothing");
    let nd = tensors[0].ndim();
    assert!(axis < nd, "axis {axis} out of range for {nd}-D");
    let mut out_dims = tensors[0].dims().to_vec();
    let mut axis_total = 0;
    for t in tensors {
        assert_eq!(t.ndim(), nd, "rank mismatch in concat");
        for (i, (&a, &b)) in t.dims().iter().zip(tensors[0].dims()).enumerate() {
            if i != axis {
                assert_eq!(a, b, "concat non-axis dim mismatch at {i}");
            }
        }
        axis_total += t.dims()[axis];
    }
    out_dims[axis] = axis_total;

    let outer: usize = out_dims[..axis].iter().product();
    let inner: usize = out_dims[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * axis_total * inner];
    let out_stride = axis_total * inner;

    let mut offset = 0usize;
    for t in tensors {
        let ax = t.dims()[axis];
        let block = ax * inner;
        for o in 0..outer {
            let src = &t.data()[o * block..(o + 1) * block];
            let dst = &mut out[o * out_stride + offset..o * out_stride + offset + block];
            dst.copy_from_slice(src);
        }
        offset += block;
    }
    Tensor::from_vec(out, Shape::new(&out_dims))
}

/// Take `len` entries starting at `start` along `axis`.
pub fn slice(t: &Tensor, axis: usize, start: usize, len: usize) -> Tensor {
    let nd = t.ndim();
    assert!(axis < nd);
    let ax = t.dims()[axis];
    assert!(
        start + len <= ax,
        "slice {start}..{} beyond axis size {ax}",
        start + len
    );
    let outer: usize = t.dims()[..axis].iter().product();
    let inner: usize = t.dims()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * len * inner];
    for o in 0..outer {
        let src = &t.data()[(o * ax + start) * inner..(o * ax + start + len) * inner];
        out[o * len * inner..(o + 1) * len * inner].copy_from_slice(src);
    }
    let mut dims = t.dims().to_vec();
    dims[axis] = len;
    Tensor::from_vec(out, Shape::new(&dims))
}

/// Scatter-add `grad` (shaped like the slice) back into a zero tensor shaped
/// like the original — the adjoint of [`slice()`].
pub fn slice_backward(grad: &Tensor, orig_dims: &[usize], axis: usize, start: usize) -> Tensor {
    let len = grad.dims()[axis];
    let ax = orig_dims[axis];
    let outer: usize = orig_dims[..axis].iter().product();
    let inner: usize = orig_dims[axis + 1..].iter().product();
    let mut out = vec![0.0f32; orig_dims.iter().product()];
    for o in 0..outer {
        let dst = &mut out[(o * ax + start) * inner..(o * ax + start + len) * inner];
        let src = &grad.data()[o * len * inner..(o + 1) * len * inner];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d += s;
        }
    }
    Tensor::from_vec(out, Shape::new(orig_dims))
}

/// Select entries along axis 1 of a 3-D tensor with a shared index list:
/// `out[b, i, :] = t[b, idx[i], :]`. Used for MAE visible-token selection.
pub fn select_axis1(t: &Tensor, idx: &[usize]) -> Tensor {
    assert_eq!(t.ndim(), 3, "select_axis1 wants 3-D, got {}", t.shape());
    let (b, s, d) = (t.dims()[0], t.dims()[1], t.dims()[2]);
    let mut out = vec![0.0f32; b * idx.len() * d];
    for bi in 0..b {
        for (i, &j) in idx.iter().enumerate() {
            assert!(j < s, "select index {j} out of {s}");
            let src = &t.data()[(bi * s + j) * d..(bi * s + j + 1) * d];
            out[(bi * idx.len() + i) * d..(bi * idx.len() + i + 1) * d].copy_from_slice(src);
        }
    }
    Tensor::from_vec(out, [b, idx.len(), d])
}

/// Adjoint of [`select_axis1`].
pub fn select_axis1_backward(grad: &Tensor, idx: &[usize], s: usize) -> Tensor {
    let (b, k, d) = (grad.dims()[0], grad.dims()[1], grad.dims()[2]);
    assert_eq!(k, idx.len());
    let mut out = vec![0.0f32; b * s * d];
    for bi in 0..b {
        for (i, &j) in idx.iter().enumerate() {
            let dst = &mut out[(bi * s + j) * d..(bi * s + j + 1) * d];
            let src = &grad.data()[(bi * k + i) * d..(bi * k + i + 1) * d];
            for (o, &g) in dst.iter_mut().zip(src) {
                *o += g;
            }
        }
    }
    Tensor::from_vec(out, [b, s, d])
}

/// Split an image batch into flattened patches:
/// `[B, C, H, W] -> [B, C, P, p²]` with `P = (H/p)·(W/p)`.
/// Patches are ordered row-major over the patch grid; each patch is
/// flattened row-major. The adjoint is [`unpatchify`] (they are mutually
/// inverse permutations).
pub fn patchify(img: &Tensor, p: usize) -> Tensor {
    assert_eq!(
        img.ndim(),
        4,
        "patchify wants [B,C,H,W], got {}",
        img.shape()
    );
    let (b, c, h, w) = (img.dims()[0], img.dims()[1], img.dims()[2], img.dims()[3]);
    assert!(
        h % p == 0 && w % p == 0,
        "image {h}x{w} not divisible by patch {p}"
    );
    let (gh, gw) = (h / p, w / p);
    let np = gh * gw;
    let src = img.data();
    let mut out = vec![0.0f32; img.numel()];
    for bc in 0..b * c {
        let plane = &src[bc * h * w..(bc + 1) * h * w];
        let dst = &mut out[bc * np * p * p..(bc + 1) * np * p * p];
        for gy in 0..gh {
            for gx in 0..gw {
                let patch = (gy * gw + gx) * p * p;
                for py in 0..p {
                    let row = (gy * p + py) * w + gx * p;
                    dst[patch + py * p..patch + (py + 1) * p].copy_from_slice(&plane[row..row + p]);
                }
            }
        }
    }
    Tensor::from_vec(out, [b, c, np, p * p])
}

/// Inverse of [`patchify`]: `[B, C, P, p²] -> [B, C, H, W]`.
pub fn unpatchify(t: &Tensor, h: usize, w: usize, p: usize) -> Tensor {
    assert_eq!(
        t.ndim(),
        4,
        "unpatchify wants [B,C,P,p²], got {}",
        t.shape()
    );
    let (b, c, np, pp) = (t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]);
    assert_eq!(pp, p * p);
    let (gh, gw) = (h / p, w / p);
    assert_eq!(np, gh * gw, "patch count mismatch");
    let src = t.data();
    let mut out = vec![0.0f32; b * c * h * w];
    for bc in 0..b * c {
        let patches = &src[bc * np * pp..(bc + 1) * np * pp];
        let plane = &mut out[bc * h * w..(bc + 1) * h * w];
        for gy in 0..gh {
            for gx in 0..gw {
                let patch = (gy * gw + gx) * pp;
                for py in 0..p {
                    let row = (gy * p + py) * w + gx * p;
                    plane[row..row + p]
                        .copy_from_slice(&patches[patch + py * p..patch + (py + 1) * p]);
                }
            }
        }
    }
    Tensor::from_vec(out, [b, c, h, w])
}

/// Broadcast a `[s, d]` tensor to `[b, s, d]` by repetition.
pub fn broadcast_to_batch(t: &Tensor, b: usize) -> Tensor {
    assert_eq!(t.ndim(), 2);
    let (s, d) = (t.dims()[0], t.dims()[1]);
    let mut out = Vec::with_capacity(b * s * d);
    for _ in 0..b {
        out.extend_from_slice(t.data());
    }
    Tensor::from_vec(out, [b, s, d])
}

/// Adjoint of [`broadcast_to_batch`]: sum over the batch axis.
pub fn sum_over_batch(grad: &Tensor) -> Tensor {
    assert_eq!(grad.ndim(), 3);
    let (b, s, d) = (grad.dims()[0], grad.dims()[1], grad.dims()[2]);
    let mut out = vec![0.0f32; s * d];
    for bi in 0..b {
        for (o, &g) in out
            .iter_mut()
            .zip(&grad.data()[bi * s * d..(bi + 1) * s * d])
        {
            *o += g;
        }
    }
    Tensor::from_vec(out, [s, d])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn swap12_roundtrip_and_layout() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn([2, 3, 4, 5], 1.0, &mut rng);
        let s = swap_axes12(&t);
        assert_eq!(s.dims(), &[2, 4, 3, 5]);
        // element check: t[a,b,c,:] == s[a,c,b,:]
        let (a, b, c, d) = (1, 2, 3, 0);
        assert_eq!(
            t.at(((a * 3 + b) * 4 + c) * 5 + d),
            s.at(((a * 4 + c) * 3 + b) * 5 + d)
        );
        assert_eq!(swap_axes12(&s).to_vec(), t.to_vec());
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        assert_eq!(concat(&[&a, &b], 0).to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let c = concat(&[&a, &b], 1);
        assert_eq!(c.dims(), &[1, 4]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_then_slice_recovers_parts() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([2, 3, 4], 1.0, &mut rng);
        let b = Tensor::randn([2, 5, 4], 1.0, &mut rng);
        let cat = concat(&[&a, &b], 1);
        assert_eq!(cat.dims(), &[2, 8, 4]);
        assert_eq!(slice(&cat, 1, 0, 3).to_vec(), a.to_vec());
        assert_eq!(slice(&cat, 1, 3, 5).to_vec(), b.to_vec());
    }

    #[test]
    fn slice_backward_is_adjoint() {
        // <slice(x), g> == <x, slice_backward(g)> for random x, g.
        let mut rng = Rng::new(4);
        let x = Tensor::randn([3, 6, 2], 1.0, &mut rng);
        let g = Tensor::randn([3, 2, 2], 1.0, &mut rng);
        let y = slice(&x, 1, 1, 2);
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let gx = slice_backward(&g, x.dims(), 1, 1);
        let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn select_axis1_picks_tokens() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [1, 4, 3]);
        let s = select_axis1(&t, &[3, 1]);
        assert_eq!(s.to_vec(), vec![9.0, 10.0, 11.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn patchify_unpatchify_roundtrip() {
        let mut rng = Rng::new(6);
        let img = Tensor::randn([2, 3, 8, 8], 1.0, &mut rng);
        let p = patchify(&img, 4);
        assert_eq!(p.dims(), &[2, 3, 4, 16]);
        let back = unpatchify(&p, 8, 8, 4);
        assert_eq!(img.to_vec(), back.to_vec());
    }

    #[test]
    fn patchify_layout_first_patch_is_topleft_block() {
        // 4x4 image, 2x2 patches: first patch = rows 0..2 x cols 0..2
        let img = Tensor::from_vec((0..16).map(|x| x as f32).collect(), [1, 1, 4, 4]);
        let p = patchify(&img, 2);
        assert_eq!(&p.to_vec()[..4], &[0.0, 1.0, 4.0, 5.0]);
        // second patch = rows 0..2 x cols 2..4
        assert_eq!(&p.to_vec()[4..8], &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn broadcast_sum_adjoint() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn([4, 3], 1.0, &mut rng);
        let g = Tensor::randn([2, 4, 3], 1.0, &mut rng);
        let y = broadcast_to_batch(&x, 2);
        let lhs: f32 = y.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let gx = sum_over_batch(&g);
        let rhs: f32 = x.data().iter().zip(gx.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }
}
