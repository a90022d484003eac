//! Differentiable operation constructors on [`Tape`].
//!
//! Each method runs the forward kernel from [`crate::ops`] immediately and
//! records a closure implementing the adjoint. Saved tensors are `Arc`
//! clones — no data is copied for bookkeeping — and are freed when the
//! backward pass drops the adjoint after running it. Adjoints own their
//! output gradient: pass-through ops hand it on, and `scale` rescales it
//! in place.

use super::{Tape, Var};
use crate::ops as k;
use crate::tensor::Tensor;

impl Tape {
    // ----- arithmetic -------------------------------------------------------

    pub fn add(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        self.custom(k::add(a.value(), b.value()), move |g, emit| {
            emit(ia, g.clone());
            emit(ib, g);
        })
    }

    pub fn mul(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let (va, vb) = (a.value().clone(), b.value().clone());
        self.custom(k::mul(a.value(), b.value()), move |g, emit| {
            emit(ia, k::mul(&g, &vb));
            emit(ib, k::mul(&g, &va));
        })
    }

    pub fn scale(&self, a: &Var, alpha: f32) -> Var {
        let ia = a.id;
        self.custom(k::scale(a.value(), alpha), move |g, emit| {
            emit(ia, k::scale_into(g, alpha));
        })
    }

    /// Broadcast-add a `[n]` bias over the last axis.
    pub fn add_bias(&self, a: &Var, bias: &Var) -> Var {
        let (ia, ib) = (a.id, bias.id);
        self.custom(k::add_bias(a.value(), bias.value()), move |g, emit| {
            emit(ib, k::sum_to_last(&g));
            emit(ia, g);
        })
    }

    // ----- matmul family ----------------------------------------------------

    /// `[..., k] × [k, n]`, leading axes of `a` folded (the Linear layer).
    pub fn matmul(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let (va, vb) = (a.value().clone(), b.value().clone());
        self.custom(k::matmul(a.value(), b.value()), move |g, emit| {
            // dA = dY · Bᵀ ; dB = Aᵀ · dY  (2-D folded forms)
            let da = k::matmul_nt(&g, &vb);
            emit(ia, da.reshape(va.dims()));
            emit(ib, k::matmul_tn(&va, &g));
        })
    }

    /// Fused Linear layer: `x·W + b` in one kernel and one tape node (the
    /// bias broadcast rides in the GEMM output buffer).
    pub fn matmul_bias(&self, a: &Var, w: &Var, bias: &Var) -> Var {
        let (ia, iw, ib) = (a.id, w.id, bias.id);
        let (va, vw) = (a.value().clone(), w.value().clone());
        self.custom(
            k::matmul_bias(a.value(), w.value(), bias.value()),
            move |g, emit| {
                let da = k::matmul_nt(&g, &vw);
                emit(ia, da.reshape(va.dims()));
                emit(iw, k::matmul_tn(&va, &g));
                emit(ib, k::sum_to_last(&g));
            },
        )
    }

    /// Fully fused feed-forward up-projection: `gelu(x·W + b)` as one tape
    /// node, saving only the pre-activation for the backward pass.
    pub fn linear_gelu(&self, a: &Var, w: &Var, bias: &Var) -> Var {
        let (ia, iw, ib) = (a.id, w.id, bias.id);
        let (va, vw) = (a.value().clone(), w.value().clone());
        let (y, pre) = k::linear_gelu(a.value(), w.value(), bias.value());
        self.custom(y, move |g, emit| {
            // dpre = gelu'(pre) ⊙ g, then the usual Linear adjoints.
            let (dpre, dbias) = k::add_bias_gelu_backward(&pre, &g);
            let da = k::matmul_nt(&dpre, &vw);
            emit(ia, da.reshape(va.dims()));
            emit(iw, k::matmul_tn(&va, &dpre));
            emit(ib, dbias);
        })
    }

    /// Batched `[B,m,k] × [B,k,n]`.
    pub fn bmm(&self, a: &Var, b: &Var) -> Var {
        let (ia, ib) = (a.id, b.id);
        let (va, vb) = (a.value().clone(), b.value().clone());
        self.custom(k::bmm(a.value(), b.value()), move |g, emit| {
            // Y = A·B : dA = dY·Bᵀ (bmm_nt applies the transpose), dB = Aᵀ·dY.
            emit(ia, k::bmm_nt(&g, &vb));
            emit(ib, k::bmm_tn(&va, &g));
        })
    }

    /// Batched scaled attention scores `α · Q·Kᵀ`: `[B,m,d] × [B,n,d] ->
    /// [B,m,n]`. The `1/√d` factor rides in the GEMM packing instead of
    /// materializing a scaled copy of the score tensor.
    pub fn bmm_nt_scaled(&self, q: &Var, key: &Var, alpha: f32) -> Var {
        let (iq, ik) = (q.id, key.id);
        let (vq, vk) = (q.value().clone(), key.value().clone());
        self.custom(
            k::bmm_nt_scaled(q.value(), key.value(), alpha),
            move |g, emit| {
                // Y = α·Q Kᵀ : dQ = α·dY · K ; dK = α·dYᵀ · Q
                emit(iq, k::bmm_scaled(&g, &vk, alpha));
                emit(ik, k::bmm_tn_scaled(&g, &vq, alpha));
            },
        )
    }

    /// Fused flash attention: `softmax(scale · Q·Kᵀ) · V` as ONE tape node
    /// over `q: [B,Sq,d]`, `k/v: [B,Sk,d]` (B is already batch·heads).
    ///
    /// The tiled online-softmax kernel never materializes the `[B,Sq,Sk]`
    /// score matrix; only the `[B,Sq]` logsumexp is saved, and the adjoint
    /// recomputes score tiles through the same tiling
    /// (see [`crate::ops::attention`]). Replaces the three-node
    /// `bmm_nt_scaled → softmax_last → bmm` chain and its two `S×S`
    /// intermediates.
    pub fn flash_attention(&self, q: &Var, k: &Var, v: &Var, scale: f32) -> Var {
        let (iq, ik, iv) = (q.id, k.id, v.id);
        let (vq, vk, vv) = (q.value().clone(), k.value().clone(), v.value().clone());
        let (out, lse) = k::flash_attention(q.value(), k.value(), v.value(), scale);
        let out_saved = out.clone();
        self.custom(out, move |g, emit| {
            let (dq, dk, dv) =
                k::flash_attention_backward(&vq, &vk, &vv, scale, &out_saved, &lse, &g);
            emit(iq, dq);
            emit(ik, dk);
            emit(iv, dv);
        })
    }

    // ----- activations / normalization --------------------------------------

    pub fn gelu(&self, a: &Var) -> Var {
        let ia = a.id;
        let va = a.value().clone();
        self.custom(k::gelu(a.value()), move |g, emit| {
            let dx = va.zip(&g, |x, gg| k::gelu_grad_scalar(x) * gg);
            emit(ia, dx);
        })
    }

    /// Fused learned softmax pooling over channels: `[N,C,D] × [D,1] ->
    /// [N,D]` (see [`crate::ops::softmax_pool`]). One tape node instead of
    /// the matmul → reshape → softmax → reshape → bmm chain.
    pub fn softmax_pool(&self, y: &Var, pool_w: &Var) -> Var {
        let (iy, ip) = (y.id, pool_w.id);
        let (vy, vp) = (y.value().clone(), pool_w.value().clone());
        let (pooled, weights) = k::softmax_pool(y.value(), pool_w.value());
        self.custom(pooled, move |g, emit| {
            let (dy, dpw) = k::softmax_pool_backward(&vy, &vp, &weights, &g);
            emit(iy, dy);
            emit(ip, dpw);
        })
    }

    pub fn softmax_last(&self, a: &Var) -> Var {
        let ia = a.id;
        let y = k::softmax_last(a.value());
        let y_saved = y.clone();
        self.custom(y, move |g, emit| {
            emit(ia, k::softmax_last_backward(&y_saved, &g));
        })
    }

    pub fn layernorm(&self, x: &Var, gamma: &Var, beta: &Var) -> Var {
        let (ix, ig, ib) = (x.id, gamma.id, beta.id);
        let (vx, vg) = (x.value().clone(), gamma.value().clone());
        let (y, ctx) = k::layernorm(x.value(), gamma.value(), beta.value());
        self.custom(y, move |g, emit| {
            let (dx, dgamma, dbeta) = k::layernorm_backward(&vx, &vg, &ctx, &g);
            emit(ix, dx);
            emit(ig, dgamma);
            emit(ib, dbeta);
        })
    }

    // ----- shape manipulation -----------------------------------------------

    pub fn reshape(&self, a: &Var, dims: &[usize]) -> Var {
        let ia = a.id;
        let orig: Vec<usize> = a.value().dims().to_vec();
        self.custom(a.value().reshape(dims), move |g, emit| {
            emit(ia, g.reshape(&orig));
        })
    }

    pub fn swap_axes12(&self, a: &Var) -> Var {
        let ia = a.id;
        self.custom(k::swap_axes12(a.value()), move |g, emit| {
            emit(ia, k::swap_axes12(&g));
        })
    }

    pub fn concat(&self, parts: &[&Var], axis: usize) -> Var {
        let ids: Vec<usize> = parts.iter().map(|v| v.id).collect();
        let sizes: Vec<usize> = parts.iter().map(|v| v.dims()[axis]).collect();
        let tensors: Vec<&Tensor> = parts.iter().map(|v| v.value()).collect();
        self.custom(k::concat(&tensors, axis), move |g, emit| {
            let mut start = 0;
            for (id, &len) in ids.iter().zip(&sizes) {
                emit(*id, k::slice(&g, axis, start, len));
                start += len;
            }
        })
    }

    /// `len` entries of `a` along `axis` from `start`. A full-range slice
    /// is the identity: it returns `a` itself and records nothing.
    pub fn slice(&self, a: &Var, axis: usize, start: usize, len: usize) -> Var {
        if start == 0 && len == a.dims()[axis] {
            return a.clone();
        }
        let ia = a.id;
        let orig: Vec<usize> = a.value().dims().to_vec();
        self.custom(k::slice(a.value(), axis, start, len), move |g, emit| {
            emit(ia, k::slice_backward(&g, &orig, axis, start));
        })
    }

    /// Token selection along axis 1 of `[b, s, d]` with a shared index list.
    pub fn select_axis1(&self, a: &Var, idx: &[usize]) -> Var {
        let ia = a.id;
        let s = a.dims()[1];
        let idx = idx.to_vec();
        self.custom(k::select_axis1(a.value(), &idx), move |g, emit| {
            emit(ia, k::select_axis1_backward(&g, &idx, s));
        })
    }

    /// Broadcast `[s, d] -> [b, s, d]` (e.g. positional embeddings).
    pub fn broadcast_to_batch(&self, a: &Var, b: usize) -> Var {
        let ia = a.id;
        self.custom(k::broadcast_to_batch(a.value(), b), move |g, emit| {
            emit(ia, k::sum_over_batch(&g));
        })
    }

    // ----- reductions / losses ----------------------------------------------

    pub fn sum_all(&self, a: &Var) -> Var {
        let ia = a.id;
        let shape = a.value().shape().clone();
        self.custom(k::sum_all(a.value()), move |g, emit| {
            emit(ia, Tensor::full(shape, g.item()));
        })
    }

    pub fn mean_all(&self, a: &Var) -> Var {
        let ia = a.id;
        let shape = a.value().shape().clone();
        let inv = 1.0 / a.value().numel() as f32;
        self.custom(k::mean_all(a.value()), move |g, emit| {
            emit(ia, Tensor::full(shape, g.item() * inv));
        })
    }

    /// Weighted squared error of the prediction `a` against `target`,
    /// normalized by the weight sum: `Σ mask·(a−target)² / max(Σ mask, 1)`.
    /// `mask` is a 0/1 selection (MAE's masked patches) or real weights
    /// (latitude weighting), shaped like `a`.
    ///
    /// One tape node: `target` and `mask` are data, so nothing is recorded
    /// for them and the adjoint emits only `d/da = 2·((ĝ·mask)·(a−target))`
    /// with `ĝ = g / max(Σ mask, 1)`, multiplied in that order so the
    /// gradient rounds exactly as the unfused `sub → mul → mul → sum_all →
    /// scale` chain does.
    ///
    /// The forward is one pass over `(a, target, mask)` that writes only
    /// `d = a − target`, which the adjoint keeps. Both sums follow
    /// [`Tensor::sum`]'s order (f32 within each 4096-element chunk, f64
    /// across chunks), so the loss is bitwise that of the unfused chain.
    pub fn masked_mse(&self, a: &Var, target: &Tensor, mask: &Tensor) -> Var {
        assert_eq!(a.dims(), target.dims(), "masked_mse target shape");
        assert_eq!(a.dims(), mask.dims(), "masked_mse mask shape");
        let ia = a.id;
        let mask = mask.clone();
        let av = a.value();
        let mut d = vec![0.0f32; av.numel()];
        let (sq_sums, mask_sums): (Vec<f64>, Vec<f64>) = d
            .chunks_mut(4096)
            .zip(av.data().chunks(4096))
            .zip(target.data().chunks(4096))
            .zip(mask.data().chunks(4096))
            .map(|(((dc, ac), tc), mc)| {
                for ((dv, &x), &t) in dc.iter_mut().zip(ac).zip(tc) {
                    *dv = x - t;
                }
                let sq = dc.iter().zip(mc).map(|(&x, &m)| (x * x) * m);
                (sq.sum::<f32>() as f64, mc.iter().sum::<f32>() as f64)
            })
            .unzip();
        let inv = 1.0 / (mask_sums.iter().sum::<f64>() as f32).max(1.0);
        let loss = inv * sq_sums.iter().sum::<f64>() as f32;
        let d = Tensor::from_vec(d, av.shape().clone());
        self.custom(Tensor::scalar(loss), move |g, emit| {
            let gs = inv * g.item();
            emit(ia, mask.zip(&d, |m, dv| 2.0 * ((gs * m) * dv)));
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::check::grad_check;
    use super::*;
    use crate::device::{with_tracker, MemCounter};
    use crate::rng::Rng;

    #[test]
    fn elementwise_gradchecks() {
        let mut rng = Rng::new(1);
        let a = Tensor::randn([3, 4], 0.7, &mut rng);
        let b = Tensor::randn([3, 4], 0.7, &mut rng);
        grad_check(
            &[a.clone(), b.clone()],
            |t, l| {
                let x = t.mul(&l[0], &l[1]);
                let y = t.add(&x, &t.scale(&l[0], -1.0));
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn bias_and_gain_gradcheck() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn([4, 5], 0.5, &mut rng);
        let bias = Tensor::randn([5], 0.5, &mut rng);
        grad_check(
            &[x, bias],
            |t, l| {
                let y = t.add_bias(&l[0], &l[1]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn bmm_gradcheck() {
        let mut rng = Rng::new(3);
        let a = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let b = Tensor::randn([2, 4, 3], 0.5, &mut rng);
        grad_check(
            &[a, b],
            |t, l| {
                let y = t.bmm(&l[0], &l[1]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn softmax_gelu_layernorm_gradcheck() {
        let mut rng = Rng::new(5);
        let x = Tensor::randn([3, 6], 0.8, &mut rng);
        let g = Tensor::randn([6], 0.3, &mut rng).map(|v| v + 1.0);
        let b = Tensor::randn([6], 0.3, &mut rng);
        grad_check(
            &[x, g, b],
            |t, l| {
                let n = t.layernorm(&l[0], &l[1], &l[2]);
                let a = t.gelu(&n);
                let s = t.softmax_last(&a);
                t.sum_all(&t.mul(&s, &s))
            },
            3e-2,
        );
    }

    #[test]
    fn concat_slice_gradcheck() {
        let mut rng = Rng::new(6);
        let a = Tensor::randn([2, 2, 3], 0.5, &mut rng);
        let b = Tensor::randn([2, 4, 3], 0.5, &mut rng);
        grad_check(
            &[a, b],
            |t, l| {
                let c = t.concat(&[&l[0], &l[1]], 1);
                let s = t.slice(&c, 1, 1, 4);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn gather_select_gradcheck() {
        let mut rng = Rng::new(7);
        let x = Tensor::randn([2, 5, 3], 0.5, &mut rng);
        grad_check(
            &[x],
            |t, l| {
                let v = t.select_axis1(&l[0], &[4, 0, 1]);
                t.sum_all(&t.mul(&v, &v))
            },
            2e-2,
        );
    }

    #[test]
    fn transpose_swap_gradcheck() {
        let mut rng = Rng::new(8);
        let a = Tensor::randn([2, 3, 2, 4], 0.5, &mut rng);
        grad_check(
            &[a],
            |t, l| {
                let s = t.swap_axes12(&l[0]);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn mse_matches_manual() {
        // An all-ones mask makes masked_mse the plain mean squared error.
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], [2]));
        let target = Tensor::from_vec(vec![0.0, 4.0], [2]);
        let l = tape.masked_mse(&a, &target, &Tensor::ones([2]));
        assert!((l.value().item() - (1.0 + 4.0) / 2.0).abs() < 1e-6);
        let grads = tape.backward(&l);
        // d/da = 2(a-b)/n = [1, -2]
        assert_eq!(grads.get(&a).unwrap().to_vec(), vec![1.0, -2.0]);
    }

    #[test]
    fn masked_mse_ignores_unmasked() {
        let tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(vec![1.0, 100.0], [2]));
        let target = Tensor::from_vec(vec![0.0, -100.0], [2]);
        let mask = Tensor::from_vec(vec![1.0, 0.0], [2]);
        let l = tape.masked_mse(&a, &target, &mask);
        assert!((l.value().item() - 1.0).abs() < 1e-6);
        assert_eq!(tape.backward(&l).get(&a).unwrap().to_vec(), vec![2.0, 0.0]);
    }

    /// The loss as it was composed from generic nodes, with the target and
    /// the mask recorded as leaves and `a − target` as a two-input node.
    fn composed_masked_mse(tape: &Tape, a: &Var, target: &Tensor, mask: &Tensor) -> Var {
        let t = tape.leaf(target.clone());
        let (ia, it) = (a.id, t.id);
        let d = tape.custom(k::sub(a.value(), target), move |g, emit| {
            emit(ia, g.clone());
            emit(it, k::scale(&g, -1.0));
        });
        let sq = tape.mul(&d, &d);
        let m = tape.leaf(mask.clone());
        let s = tape.sum_all(&tape.mul(&sq, &m));
        tape.scale(&s, 1.0 / mask.sum().max(1.0))
    }

    #[test]
    fn masked_mse_bitwise_matches_composed_chain() {
        let mut rng = Rng::new(12);
        let (b, p, q) = (2usize, 6usize, 5usize);
        let pred = Tensor::randn([b, p, q], 1.0, &mut rng);
        let target = Tensor::randn([b, p, q], 1.0, &mut rng);
        let select = Tensor::from_vec(
            (0..b * p * q)
                .map(|i| ((i / q) % 3 == 1) as u8 as f32)
                .collect(),
            [b, p, q],
        );
        // Latitude weights cos φ / mean cos φ over the p rows.
        let lat: Vec<f32> = (0..p)
            .map(|i| (std::f32::consts::PI * ((i as f32 + 0.5) / p as f32 - 0.5)).cos())
            .collect();
        let mean = lat.iter().sum::<f32>() / p as f32;
        let weights = Tensor::from_vec(
            (0..b * p * q).map(|i| lat[(i / q) % p] / mean).collect(),
            [b, p, q],
        );
        for mask in [&select, &weights] {
            let run = |fused: bool| {
                let tape = Tape::new();
                let a = tape.leaf(pred.clone());
                let before = tape.len();
                let l = if fused {
                    tape.masked_mse(&a, &target, mask)
                } else {
                    composed_masked_mse(&tape, &a, &target, mask)
                };
                let nodes = tape.len() - before;
                let grads = tape.backward_seeded(&l, Tensor::scalar(0.37));
                (l.value().item(), grads.get(&a).unwrap().to_vec(), nodes)
            };
            let (loss, grad, nodes) = run(true);
            let (want_loss, want_grad, _) = run(false);
            assert_eq!(loss.to_bits(), want_loss.to_bits());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grad), bits(&want_grad));
            assert_eq!(nodes, 1, "masked_mse must record one node and no leaf");
        }
    }

    #[test]
    fn masked_mse_forward_keeps_only_the_difference() {
        // Four 4096-element chunks and a ragged tail, so the chunked sums
        // are exercised against the unfused kernels' order.
        let n = 4 * 4096 + 37;
        let mut rng = Rng::new(19);
        let pred = Tensor::randn([n], 1.0, &mut rng);
        let target = Tensor::randn([n], 1.0, &mut rng);
        let mask = Tensor::rand_uniform([n], 0.0, 2.0, &mut rng);
        let counter = MemCounter::new();
        let loss = with_tracker(counter.clone(), || {
            let tape = Tape::new();
            let a = tape.leaf(pred.clone());
            counter.reset_peak();
            let l = tape.masked_mse(&a, &target, &mask);
            // `d` (kept for the adjoint) and the scalar loss, nothing more.
            let (d_bytes, out_bytes) = (n * 4, 4);
            assert!(
                counter.peak() <= d_bytes + out_bytes,
                "forward peaked at {} bytes",
                counter.peak()
            );
            assert_eq!(counter.current(), d_bytes + out_bytes);
            l.value().item()
        });
        let d = k::sub(&pred, &target);
        let want = k::scale(
            &k::sum_all(&k::mul(&k::mul(&d, &d), &mask)),
            1.0 / mask.sum(),
        );
        assert_eq!(loss.to_bits(), want.item().to_bits());
    }

    #[test]
    fn full_range_slice_is_the_input() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(6).reshape(&[1, 3, 2]));
        let before = tape.len();
        let s = tape.slice(&x, 1, 0, 3);
        assert_eq!((s.id(), tape.len()), (x.id(), before));
        // A partial slice still records its node.
        let p = tape.slice(&x, 1, 0, 2);
        assert_eq!(p.dims(), &[1, 2, 2]);
        assert_eq!(tape.len(), before + 1);
    }

    #[test]
    fn matmul_bias_gradcheck() {
        let mut rng = Rng::new(10);
        let x = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 5], 0.5, &mut rng);
        let b = Tensor::randn([5], 0.5, &mut rng);
        grad_check(
            &[x, w, b],
            |t, l| {
                let y = t.matmul_bias(&l[0], &l[1], &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn matmul_bias_matches_unfused_chain() {
        let mut rng = Rng::new(11);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 2], 0.5, &mut rng);
        let b = Tensor::randn([2], 0.5, &mut rng);
        let run = |fused: bool| {
            let tape = Tape::new();
            let (xv, wv, bv) = (
                tape.leaf(x.clone()),
                tape.leaf(w.clone()),
                tape.leaf(b.clone()),
            );
            let y = if fused {
                tape.matmul_bias(&xv, &wv, &bv)
            } else {
                let m = tape.matmul(&xv, &wv);
                tape.add_bias(&m, &bv)
            };
            let loss = tape.sum_all(&tape.mul(&y, &y));
            let grads = tape.backward(&loss);
            (
                y.value().clone(),
                grads.get(&xv).unwrap().clone(),
                grads.get(&wv).unwrap().clone(),
                grads.get(&bv).unwrap().clone(),
            )
        };
        let (yf, dxf, dwf, dbf) = run(true);
        let (yu, dxu, dwu, dbu) = run(false);
        assert!(yf.max_abs_diff(&yu) < 1e-5);
        assert!(dxf.max_abs_diff(&dxu) < 1e-5);
        assert!(dwf.max_abs_diff(&dwu) < 1e-5);
        assert!(dbf.max_abs_diff(&dbu) < 1e-5);
    }

    #[test]
    fn linear_gelu_gradcheck() {
        let mut rng = Rng::new(12);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 6], 0.5, &mut rng);
        let b = Tensor::randn([6], 0.5, &mut rng);
        grad_check(
            &[x, w, b],
            |t, l| {
                let y = t.linear_gelu(&l[0], &l[1], &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn bmm_nt_gradcheck() {
        // α = 1 is the plain `Q·Kᵀ` the backward of `bmm` relies on.
        let mut rng = Rng::new(4);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key],
            |t, l| {
                let s = t.bmm_nt_scaled(&l[0], &l[1], 1.0);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn bmm_nt_scaled_gradcheck() {
        let mut rng = Rng::new(14);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key],
            |t, l| {
                let s = t.bmm_nt_scaled(&l[0], &l[1], 0.5);
                t.sum_all(&t.mul(&s, &s))
            },
            2e-2,
        );
    }

    #[test]
    fn flash_attention_gradcheck() {
        let mut rng = Rng::new(16);
        let q = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let key = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        let v = Tensor::randn([2, 5, 4], 0.5, &mut rng);
        grad_check(
            &[q, key, v],
            |t, l| {
                let y = t.flash_attention(&l[0], &l[1], &l[2], 0.5);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn flash_attention_matches_composed_chain() {
        // Forward value AND all three input gradients must match the
        // bmm_nt_scaled → softmax_last → bmm composition, including a
        // non-tile-multiple cross-attention shape.
        let mut rng = Rng::new(17);
        for &(sq, sk) in &[(4usize, 6usize), (70, 130)] {
            let q = Tensor::randn([2, sq, 8], 0.6, &mut rng);
            let key = Tensor::randn([2, sk, 8], 0.6, &mut rng);
            let v = Tensor::randn([2, sk, 8], 0.6, &mut rng);
            let run = |fused: bool| {
                let tape = Tape::new();
                let (qv, kv, vv) = (
                    tape.leaf(q.clone()),
                    tape.leaf(key.clone()),
                    tape.leaf(v.clone()),
                );
                let y = if fused {
                    tape.flash_attention(&qv, &kv, &vv, 0.35)
                } else {
                    let s = tape.bmm_nt_scaled(&qv, &kv, 0.35);
                    let p = tape.softmax_last(&s);
                    tape.bmm(&p, &vv)
                };
                let loss = tape.sum_all(&tape.mul(&y, &y));
                let grads = tape.backward(&loss);
                (
                    y.value().clone(),
                    grads.get(&qv).unwrap().clone(),
                    grads.get(&kv).unwrap().clone(),
                    grads.get(&vv).unwrap().clone(),
                )
            };
            let (yf, dqf, dkf, dvf) = run(true);
            let (yu, dqu, dku, dvu) = run(false);
            assert!(yf.max_abs_diff(&yu) <= 1e-4, "fwd Sq={sq} Sk={sk}");
            assert!(dqf.max_abs_diff(&dqu) <= 1e-4, "dq Sq={sq} Sk={sk}");
            assert!(dkf.max_abs_diff(&dku) <= 1e-4, "dk Sq={sq} Sk={sk}");
            assert!(dvf.max_abs_diff(&dvu) <= 1e-4, "dv Sq={sq} Sk={sk}");
        }
    }

    #[test]
    fn softmax_pool_gradcheck() {
        let mut rng = Rng::new(15);
        let y = Tensor::randn([2, 4, 3], 0.6, &mut rng);
        let pw = Tensor::randn([3, 1], 0.6, &mut rng);
        grad_check(
            &[y, pw],
            |t, l| {
                let p = t.softmax_pool(&l[0], &l[1]);
                t.sum_all(&t.mul(&p, &p))
            },
            3e-2,
        );
    }

    #[test]
    fn linear_gelu_per_tier_gradcheck() {
        let mut rng = Rng::new(18);
        let x = Tensor::randn([3, 4], 0.5, &mut rng);
        let w = Tensor::randn([4, 6], 0.5, &mut rng);
        let b = Tensor::randn([6], 0.5, &mut rng);

        // f32 tier (the only tier): the graph must pass the ordinary
        // finite-difference check at the f32-tier tolerance.
        grad_check(
            &[x, w, b],
            |t, l| {
                let y = t.linear_gelu(&l[0], &l[1], &l[2]);
                t.sum_all(&t.mul(&y, &y))
            },
            3e-2,
        );
    }
}
