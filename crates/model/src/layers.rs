//! Reusable building blocks: Linear, LayerNorm, MLP.
//!
//! Modules hold [`ParamId`]s into a [`ParamStore`]; the forward pass binds
//! them onto the current tape through a [`Binder`], which is where the
//! distributed strategies (FSDP gather, TP sharding) interpose.

use dchag_tensor::init;
use dchag_tensor::prelude::*;

/// Fully-connected layer `[..., in] -> [..., out]`.
pub struct Linear {
    pub w: ParamId,
    pub b: Option<ParamId>,
    pub in_dim: usize,
    pub out_dim: usize,
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
        let w = store.add(
            format!("{name}.w"),
            init::xavier_uniform(in_dim, out_dim, rng),
        );
        let b = bias.then(|| store.add(format!("{name}.b"), Tensor::zeros([out_dim])));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        debug_assert_eq!(*x.dims().last().unwrap(), self.in_dim, "Linear input width");
        match self.b {
            // Fused kernel: bias broadcast into the GEMM output buffer,
            // one tape node, no intermediate `x·W` tensor.
            Some(b) => tape.matmul_bias(x, &bind.bind(self.w), &bind.bind(b)),
            None => tape.matmul(x, &bind.bind(self.w)),
        }
    }

    /// Fused `gelu(x·W + b)` forward (the MLP up-projection). Falls back to
    /// the unfused pair when the layer has no bias.
    pub fn forward_gelu(&self, bind: &dyn Binder, x: &Var) -> Var {
        let tape = bind.tape();
        match self.b {
            Some(b) => tape.linear_gelu(x, &bind.bind(self.w), &bind.bind(b)),
            None => tape.gelu(&tape.matmul(x, &bind.bind(self.w))),
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

    pub fn forward(&self, bind: &dyn Binder, x: &Var) -> Var {
        let h = self.fc1.forward_gelu(bind, x);
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
