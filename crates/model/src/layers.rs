//! Reusable building blocks: Linear, LayerNorm, MLP.
//!
//! Modules hold [`ParamId`]s into a [`ParamStore`]; the forward pass binds
//! them onto the current tape through a [`Binder`], which is where FSDP
//! interposes its parameter gathers.
//!
//! Tensor parallelism (TP) is a way of constructing these modules, not a
//! second set of them: a sharded layer draws the full weight from the same
//! stream as [`Linear::new`] and keeps this rank's slice, and its forward
//! pass adds the Megatron `f`/`g` collectives of its [`TpGroup`].

use std::sync::Arc;

use dchag_tensor::prelude::*;
use dchag_tensor::{init, ops};

/// A tensor-parallel group: Megatron's conjugate pair of autograd
/// collectives, implemented over a communicator by `dchag_parallel`.
pub trait TpGroup: Send + Sync {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;
    /// Identity forward, AllReduce-sum backward: the replicated input of a
    /// column-parallel region.
    fn f(&self, tape: &Tape, x: &Var) -> Var;
    /// AllReduce-sum forward, identity backward: the partial products of a
    /// row-parallel matmul.
    fn g(&self, tape: &Tape, x: &Var) -> Var;
}

/// This rank's `1/tp` slice of `full` along `axis`.
fn shard(full: &Tensor, axis: usize, group: &dyn TpGroup) -> Tensor {
    let (len, n) = (full.dims()[axis], group.size());
    assert!(len.is_multiple_of(n), "TP {n} must divide {len}");
    ops::slice(full, axis, group.rank() * (len / n), len / n)
}

/// Fully-connected layer `[..., in] -> [..., out]`; `in_dim` and `out_dim`
/// are this rank's widths when the layer is TP-sharded.
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub in_dim: usize,
    pub out_dim: usize,
    /// The group a row-parallel layer sums its partial products over.
    row_group: Option<Arc<dyn TpGroup>>,
}

impl Linear {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = init::xavier_uniform(in_dim, out_dim, rng);
        Self::from_weight(store, name, w, bias, None)
    }

    /// Column-parallel shard of a biased layer: this rank's `out / tp`
    /// columns of the weight and bias. Replicated input, sharded output.
    pub fn column_parallel(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        let full = init::xavier_uniform(in_dim, out_dim, rng);
        let w = shard(&full, 1, group.as_ref());
        Self::from_weight(store, name, w, true, None)
    }

    /// Row-parallel shard of a biased layer: this rank's `in / tp` rows of
    /// the weight and the whole bias. Sharded input, replicated output.
    pub fn row_parallel(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        let full = init::xavier_uniform(in_dim, out_dim, rng);
        let w = shard(&full, 0, group.as_ref());
        Self::from_weight(store, name, w, true, Some(group.clone()))
    }

    fn from_weight(
        store: &mut ParamStore,
        name: &str,
        w: Tensor,
        bias: bool,
        row_group: Option<Arc<dyn TpGroup>>,
    ) -> Self {
        let (in_dim, out_dim) = (w.dims()[0], w.dims()[1]);
        let w = store.add(format!("{name}.w"), w);
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros([out_dim])));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
            row_group,
        }
    }

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        debug_assert_eq!(*x.dims().last().unwrap(), self.in_dim, "Linear input width");
        let w = bind.bind(self.w);
        match (self.b, &self.row_group) {
            // Fused kernel: bias broadcast into the GEMM output buffer,
            // one tape node, no intermediate `x·W` tensor.
            (Some(b), None) => tape.matmul_bias(x, &w, &bind.bind(b)),
            (None, None) => tape.matmul(x, &w),
            // Row-parallel: sum the partial products, then add the bias once.
            (Some(b), Some(g)) => tape.add_bias(&g.g(tape, &tape.matmul(x, &w)), &bind.bind(b)),
            (None, Some(g)) => g.g(tape, &tape.matmul(x, &w)),
        }
    }

    /// Fused `gelu(x·W + b)` forward (the MLP up-projection). Falls back to
    /// the unfused pair when the layer has no bias or is row-parallel.
    pub fn forward_gelu(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        match (self.b, &self.row_group) {
            (Some(b), None) => tape.linear_gelu(x, &bind.bind(self.w), &bind.bind(b)),
            _ => tape.gelu(&self.forward(bind, x)),
        }
    }

    /// Megatron's `f` for the TP region this row-parallel layer closes,
    /// applied once to the replicated input of the layers that feed it;
    /// identity on any other layer.
    pub(crate) fn tp_enter(&self, tape: &Tape, x: &Var) -> Var {
        match &self.row_group {
            Some(g) => g.f(tape, x),
            None => x.clone(),
        }
    }
}

/// LayerNorm over the last axis with learned affine.
pub struct LayerNorm {
    pub gamma: ParamId,
    pub beta: ParamId,
    pub dim: usize,
}

impl LayerNorm {
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::ones([dim]));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros([dim]));
        LayerNorm { gamma, beta, dim }
    }

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        bind.tape()
            .layernorm(x, &bind.bind(self.gamma), &bind.bind(self.beta))
    }
}

/// Two-layer GELU MLP (the transformer feed-forward block).
pub struct Mlp {
    pub fc1: Linear,
    pub fc2: Linear,
}

impl Mlp {
    pub fn new(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        hidden: usize,
    ) -> Self {
        Mlp {
            fc1: Linear::new(store, rng, &format!("{name}.fc1"), dim, hidden, true),
            fc2: Linear::new(store, rng, &format!("{name}.fc2"), hidden, dim, true),
        }
    }

    /// TP shard holding `hidden / tp` of the hidden width.
    pub fn sharded(
        store: &mut ParamStore,
        rng: &mut Rng,
        name: &str,
        dim: usize,
        hidden: usize,
        group: &Arc<dyn TpGroup>,
    ) -> Self {
        Mlp {
            fc1: Linear::column_parallel(store, rng, &format!("{name}.fc1"), dim, hidden, group),
            fc2: Linear::row_parallel(store, rng, &format!("{name}.fc2"), hidden, dim, group),
        }
    }

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let x = self.fc2.tp_enter(bind.tape(), x);
        let h = self.fc1.forward_gelu(bind, &x);
        self.fc2.forward(bind, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_tensor::autograd::check::grad_check;

    fn setup() -> (ParamStore, Rng) {
        (ParamStore::new(), Rng::new(42))
    }

    #[test]
    fn linear_shapes() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, &mut rng, "l", 8, 3, true);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([2, 5, 8], 1.0, &mut rng));
        let y = lin.forward(&bind, &x);
        assert_eq!(y.dims(), &[2, 5, 3]);
    }

    #[test]
    fn linear_zero_input_gives_bias() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 2, true);
        store.set(lin.b.unwrap(), Tensor::from_vec(vec![1.5, -2.5], [2]));
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::zeros([3, 4]));
        let y = lin.forward(&bind, &x);
        assert_eq!(y.value().to_vec(), vec![1.5, -2.5, 1.5, -2.5, 1.5, -2.5]);
    }

    #[test]
    fn mlp_gradcheck_through_params() {
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(&mut store, &mut rng, "m", 4, 8);
        let x0 = Tensor::randn([3, 4], 0.5, &mut rng);
        // grad-check wrt input by closing over params
        grad_check(
            &[x0],
            |tape, leaves| {
                let bind = LocalBinder::new(tape, &store);
                let y = mlp.forward(&bind, &leaves[0]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            3e-2,
        );
    }

    #[test]
    fn layernorm_layer_normalizes() {
        let (mut store, mut rng) = setup();
        let ln = LayerNorm::new(&mut store, "ln", 16);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([4, 16], 3.0, &mut rng));
        let y = ln.forward(&bind, &x);
        for row in y.value().data().chunks(16) {
            let mu: f32 = row.iter().sum::<f32>() / 16.0;
            assert!(mu.abs() < 1e-5);
        }
    }

    #[test]
    fn params_receive_gradients() {
        let (mut store, mut rng) = setup();
        let lin = Linear::new(&mut store, &mut rng, "l", 4, 2, true);
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let x = tape.leaf(Tensor::randn([3, 4], 1.0, &mut rng));
        let y = lin.forward(&bind, &x);
        let loss = tape.sum_all(&tape.mul(&y, &y));
        let grads = tape.backward(&loss);
        let pgrads = bind.grads(&grads);
        assert!(pgrads[lin.w.index()].is_some());
        assert!(pgrads[lin.b.unwrap().index()].is_some());
    }
}
