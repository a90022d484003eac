//! Channel-aggregation modules (paper §2.1, §3.2).
//!
//! [`CrossAttnAggregator`] is the paper's cross-attention aggregation layer:
//! full attention among the C channel tokens at every spatial position
//! (quadratic memory in C — the cost D-CHAG attacks), followed by a learned
//! softmax pooling down to one token.
//!
//! [`LinearChannelMix`] is the lightweight `-L` replacement: a learned
//! per-(channel, dim) mixing weight, linear in C with ~`C·D` parameters.

use std::sync::Arc;

use dchag_tensor::prelude::*;
use dchag_tensor::Shape;

use crate::attention::MultiHeadAttention;
use crate::layers::{LayerNorm, TpGroup};

/// Full cross-attention aggregation: `[N, C, D] -> [N, D]`.
pub struct CrossAttnAggregator {
    pub ln: LayerNorm,
    pub attn: MultiHeadAttention,
    /// Pooling query projection `[D, 1]`.
    pub pool_w: ParamId,
    pub in_channels: usize,
    pub dim: usize,
}

impl CrossAttnAggregator {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_channels: usize,
        dim: usize,
        heads: usize,
    ) -> Self {
        CrossAttnAggregator {
            ln: LayerNorm::new(store, &format!("{name}.ln"), dim),
            attn: MultiHeadAttention::new(store, rng, &format!("{name}.attn"), dim, heads),
            pool_w: store.add(
                format!("{name}.pool_w"),
                dchag_tensor::init::xavier_uniform(dim, 1, rng),
            ),
            in_channels,
            dim,
        }
    }

    /// TP shard: heads sharded, LayerNorm and pooling query replicated.
    /// D-CHAG's final shared aggregation layer runs this way (paper §3.3).
    pub fn sharded(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_channels: usize,
        dim: usize,
        heads: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        let attn = format!("{name}.attn");
        CrossAttnAggregator {
            ln: LayerNorm::new(store, &format!("{name}.ln"), dim),
            attn: MultiHeadAttention::sharded(store, rng, &attn, dim, heads, group),
            pool_w: store.add(
                format!("{name}.pool_w"),
                dchag_tensor::init::xavier_uniform(dim, 1, rng),
            ),
            in_channels,
            dim,
        }
    }

    /// `x: [N, C, D] -> [N, D]` where `N` folds batch and spatial position.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (c, d) = (x.dims()[1], x.dims()[2]);
        assert_eq!(c, self.in_channels, "aggregator channel arity");
        assert_eq!(d, self.dim);

        // Channel self-attention with residual (the C×C score matrix is the
        // quadratic-memory term).
        let h = self.ln.forward(bind, x);
        let a = self.attn.forward(bind, &h);
        let y = tape.add(x, &a);

        // Learned softmax pooling over channels, fused: one tape node
        // instead of matmul → reshape → softmax → reshape → bmm, and no
        // [N,C,1]/[N,1,C]/[N,1,D] intermediates.
        tape.softmax_pool(&y, &bind.bind(self.pool_w))
    }
}

/// Linear channel mixing: `out[n,d] = b[d] + Σ_c w[c,d]·x[n,c,d]`.
pub struct LinearChannelMix {
    pub w: ParamId,
    pub b: ParamId,
    pub in_channels: usize,
    pub dim: usize,
}

impl LinearChannelMix {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_channels: usize,
        dim: usize,
    ) -> Self {
        // Initialize near an average so early training matches the
        // cross-attention pooling scale.
        let mut w = vec![1.0 / in_channels as f32; in_channels * dim];
        for v in w.iter_mut() {
            *v += rng.normal() * 0.01 / in_channels as f32;
        }
        LinearChannelMix {
            w: store.add(format!("{name}.w"), Tensor::from_vec(w, [in_channels, dim])),
            b: store.add(format!("{name}.b"), Tensor::zeros([dim])),
            in_channels,
            dim,
        }
    }

    /// `x: [N, C, D] -> [N, D]`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        let (n, c, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        assert_eq!(c, self.in_channels, "mix channel arity");
        assert_eq!(d, self.dim);

        let wv = bind.bind(self.w);
        let bv = bind.bind(self.b);
        let (xid, wid, bid) = (x.id(), wv.id(), bv.id());
        let (xval, wval, bval) = (x.value().clone(), wv.value().clone(), bv.value().clone());

        let mut out = vec![0.0f32; n * d];
        for ni in 0..n {
            let o = &mut out[ni * d..(ni + 1) * d];
            o.copy_from_slice(bval.data());
            for ci in 0..c {
                let xr = &xval.data()[(ni * c + ci) * d..(ni * c + ci + 1) * d];
                let wr = &wval.data()[ci * d..(ci + 1) * d];
                for ((ov, &xvv), &wvv) in o.iter_mut().zip(xr).zip(wr) {
                    *ov += xvv * wvv;
                }
            }
        }
        let out = Tensor::from_vec(out, Shape::new(&[n, d]));
        tape.custom(out, move |g, emit| {
            // dx[n,c,:] = g[n,:] ⊙ w[c,:]
            let mut dx = vec![0.0f32; n * c * d];
            // dw[c,:]  = Σ_n x[n,c,:] ⊙ g[n,:]
            let mut dw = vec![0.0f32; c * d];
            // db = Σ_n g[n,:]
            let mut db = vec![0.0f32; d];
            for ni in 0..n {
                let gr = &g.data()[ni * d..(ni + 1) * d];
                for (o, &gv) in db.iter_mut().zip(gr) {
                    *o += gv;
                }
                for ci in 0..c {
                    let wr = &wval.data()[ci * d..(ci + 1) * d];
                    let xr = &xval.data()[(ni * c + ci) * d..(ni * c + ci + 1) * d];
                    let dxr = &mut dx[(ni * c + ci) * d..(ni * c + ci + 1) * d];
                    let dwr = &mut dw[ci * d..(ci + 1) * d];
                    for j in 0..d {
                        dxr[j] = gr[j] * wr[j];
                        dwr[j] += xr[j] * gr[j];
                    }
                }
            }
            emit(xid, Tensor::from_vec(dx, Shape::new(&[n, c, d])));
            emit(wid, Tensor::from_vec(dw, Shape::new(&[c, d])));
            emit(bid, Tensor::from_vec(db, Shape::new(&[d])));
        })
    }
}

/// A single aggregation unit of either kind (paper's `-C` / `-L`).
#[allow(clippy::large_enum_variant)] // few instances per model; boxing buys nothing
pub enum AggUnit {
    Cross(CrossAttnAggregator),
    Linear(LinearChannelMix),
}

impl AggUnit {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        kind: crate::config::UnitKind,
        in_channels: usize,
        dim: usize,
        heads: usize,
    ) -> Self {
        match kind {
            crate::config::UnitKind::CrossAttention => AggUnit::Cross(CrossAttnAggregator::new(
                store,
                rng,
                name,
                in_channels,
                dim,
                heads,
            )),
            crate::config::UnitKind::Linear => {
                AggUnit::Linear(LinearChannelMix::new(store, rng, name, in_channels, dim))
            }
        }
    }

    pub fn in_channels(&self) -> usize {
        match self {
            AggUnit::Cross(u) => u.in_channels,
            AggUnit::Linear(u) => u.in_channels,
        }
    }

    /// Which flavor this unit is (`-C` cross-attention / `-L` linear).
    pub fn kind(&self) -> crate::config::UnitKind {
        match self {
            AggUnit::Cross(_) => crate::config::UnitKind::CrossAttention,
            AggUnit::Linear(_) => crate::config::UnitKind::Linear,
        }
    }

    /// `[N, C, D] -> [N, D]`.
    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        match self {
            AggUnit::Cross(u) => u.forward(bind, x),
            AggUnit::Linear(u) => u.forward(bind, x),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::UnitKind;
    use dchag_tensor::autograd::check::grad_check;
    use dchag_tensor::ops;

    #[test]
    fn cross_aggregator_reduces_channels() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(1);
        let agg = CrossAttnAggregator::new(&mut store, &mut rng, "agg", 5, 8, 2);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([6, 5, 8], 1.0, &mut rng));
        let y = agg.forward(&bind, &x);
        assert_eq!(y.dims(), &[6, 8]);
        assert!(y.value().all_finite());
    }

    #[test]
    fn linear_mix_initial_state_is_near_channel_mean() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(2);
        let mix = LinearChannelMix::new(&mut store, &mut rng, "mix", 4, 8);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = Tensor::randn([3, 4, 8], 1.0, &mut rng);
        let xv = tape.leaf(x.clone());
        let y = mix.forward(&bind, &xv);
        let mean = ops::mean_axis1(&x);
        assert!(y.value().max_abs_diff(&mean) < 0.1, "init ≈ channel mean");
    }

    #[test]
    fn linear_mix_gradcheck_all_inputs() {
        let mut rng = Rng::new(3);
        let x0 = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        let w0 = Tensor::randn([3, 4], 0.5, &mut rng);
        let b0 = Tensor::randn([4], 0.5, &mut rng);
        grad_check(
            &[x0, w0, b0],
            |tape, leaves| {
                // inline the custom op against explicit leaves
                let mut store = ParamStore::new();
                let mix = LinearChannelMix {
                    w: store.add("w", leaves[1].value().clone()),
                    b: store.add("b", leaves[2].value().clone()),
                    in_channels: 3,
                    dim: 4,
                };
                // manual binder that reuses the provided leaves
                struct Fixed<'a> {
                    tape: &'a Tape,
                    w: Var,
                    b: Var,
                }
                impl Binder for Fixed<'_> {
                    fn tape(&self) -> &Tape {
                        self.tape
                    }
                    fn bind(&self, id: ParamId) -> Var {
                        if id.index() == 0 {
                            self.w.clone()
                        } else {
                            self.b.clone()
                        }
                    }
                }
                let bind = Fixed {
                    tape,
                    w: leaves[1].clone(),
                    b: leaves[2].clone(),
                };
                let y = mix.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn cross_aggregator_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(4);
        let agg = CrossAttnAggregator::new(&mut store, &mut rng, "agg", 3, 4, 2);
        let x0 = Tensor::randn([2, 3, 4], 0.5, &mut rng);
        grad_check(
            &[x0],
            |tape, leaves| {
                let bind = LocalBinder::new(tape, &store);
                let y = agg.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn unit_kinds_expose_channel_arity() {
        let mut store = ParamStore::new();
        let mut rng = Rng::new(5);
        let c = AggUnit::new(&mut store, &mut rng, "c", UnitKind::CrossAttention, 7, 8, 2);
        let l = AggUnit::new(&mut store, &mut rng, "l", UnitKind::Linear, 9, 8, 2);
        assert_eq!(c.in_channels(), 7);
        assert_eq!(l.in_channels(), 9);
    }

    #[test]
    fn linear_unit_has_far_fewer_params_than_cross() {
        let mut s1 = ParamStore::new();
        let mut rng = Rng::new(6);
        let _ = AggUnit::new(&mut s1, &mut rng, "c", UnitKind::CrossAttention, 16, 64, 4);
        let cross_params = s1.num_params();
        let mut s2 = ParamStore::new();
        let _ = AggUnit::new(&mut s2, &mut rng, "l", UnitKind::Linear, 16, 64, 4);
        let lin_params = s2.num_params();
        assert!(
            cross_params > 10 * lin_params,
            "cross {cross_params} vs linear {lin_params}"
        );
    }
}
