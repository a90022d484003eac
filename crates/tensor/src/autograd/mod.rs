//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward pass; [`Tape::backward`] replays it in
//! reverse. Node ids are assigned in creation order, so reverse-id order is
//! a valid reverse-topological order — no explicit sort is needed.
//!
//! Distributed layers (tensor parallelism, FSDP, D-CHAG) plug in through
//! [`Tape::custom`], which lets them register collective operations with
//! hand-written adjoints (e.g. AllGather forward / local-slice backward).

mod ops;

pub mod check;

use std::cell::RefCell;

use crate::tensor::Tensor;

type BackwardFn = Box<dyn Fn(&Tensor, &mut dyn FnMut(usize, Tensor))>;

struct Node {
    /// `None` for leaves; otherwise the adjoint, which receives the output
    /// gradient and emits `(input_node_id, gradient_contribution)` pairs.
    backward: Option<BackwardFn>,
}

/// A value recorded on the tape.
///
/// Cheap to clone (the tensor buffer is reference-counted).
#[derive(Clone)]
pub struct Var {
    pub(crate) id: usize,
    value: Tensor,
}

impl Var {
    /// Node id on the owning tape (stable for the life of the tape).
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The forward value.
    #[inline]
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    #[inline]
    pub fn dims(&self) -> &[usize] {
        self.value.dims()
    }
}

/// Records a computation graph for one forward pass.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: RefCell::new(Vec::new()),
        }
    }

    /// Number of recorded nodes (for tests / diagnostics).
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a leaf. Gradients accumulate here.
    ///
    /// Models record only parameters (through a `Binder`); data such as
    /// images, targets and masks enters ops as plain tensors, so no adjoint
    /// is spent on a gradient nothing reads.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, None)
    }

    /// Register an arbitrary differentiable operation.
    ///
    /// `backward(grad_out, emit)` must call `emit(input_id, grad)` for every
    /// input that requires a gradient contribution. Input ids should be
    /// captured from the input `Var`s at recording time.
    pub fn custom(
        &self,
        value: Tensor,
        backward: impl Fn(&Tensor, &mut dyn FnMut(usize, Tensor)) + 'static,
    ) -> Var {
        self.push(value, Some(Box::new(backward)))
    }

    fn push(&self, value: Tensor, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { backward });
        Var { id, value }
    }

    /// Run the reverse pass from `root`, seeding with ones.
    ///
    /// For training, `root` is the scalar loss; seeding a non-scalar root
    /// with ones computes the gradient of its sum.
    pub fn backward(&self, root: &Var) -> Grads {
        self.backward_seeded(root, Tensor::ones(root.value.shape().clone()))
    }

    /// Run the reverse pass with an explicit output gradient.
    pub fn backward_seeded(&self, root: &Var, seed: Tensor) -> Grads {
        assert_eq!(
            seed.dims(),
            root.value.dims(),
            "seed shape {:?} vs root shape {:?}",
            seed.dims(),
            root.value.dims()
        );
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[root.id] = Some(seed);
        for id in (0..=root.id).rev() {
            // Take the gradient out so `emit` can borrow `grads` mutably.
            let Some(g) = grads[id].take() else { continue };
            if let Some(backward) = &nodes[id].backward {
                backward(&g, &mut |input_id, contribution| {
                    debug_assert!(input_id < id, "graph must be topological");
                    match &mut grads[input_id] {
                        Some(acc) => {
                            // Accumulate in place: the slot holds the sole
                            // reference, so the AXPY reuses its buffer
                            // instead of allocating per contribution.
                            let prev = std::mem::replace(acc, Tensor::scalar(0.0));
                            *acc = crate::ops::add_scaled_into(prev, &contribution, 1.0);
                        }
                        slot @ None => *slot = Some(contribution),
                    }
                });
            }
            // Leaves keep their gradient for retrieval.
            if nodes[id].backward.is_none() {
                grads[id] = Some(g);
            }
        }
        Grads { grads }
    }
}

/// Gradients produced by [`Tape::backward`], indexed by node id.
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of `v`, if it participated in the backward pass.
    pub fn get(&self, v: &Var) -> Option<&Tensor> {
        self.grads.get(v.id).and_then(|g| g.as_ref())
    }

    /// Gradient of `v`, defaulting to zeros of the value's shape.
    pub fn get_or_zeros(&self, v: &Var) -> Tensor {
        self.get(v)
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(v.value().shape().clone()))
    }

    /// Take ownership of the gradient of `v`.
    pub fn take(&mut self, v: &Var) -> Option<Tensor> {
        self.grads.get_mut(v.id).and_then(|g| g.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn leaf_gradient_of_sum_is_ones() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(4));
        let s = tape.sum_all(&x);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![1.0; 4]);
    }

    #[test]
    fn chain_rule_through_two_ops() {
        // y = sum(2 * x) => dy/dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.scale(&x, 2.0);
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0; 3]);
    }

    #[test]
    fn gradient_accumulates_across_uses() {
        // y = sum(x + x) => dy/dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.add(&x, &x);
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0; 3]);
    }

    #[test]
    fn unused_branches_get_no_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.leaf(Tensor::arange(3));
        let s = tape.sum_all(&x);
        let grads = tape.backward(&s);
        assert!(grads.get(&y).is_none());
    }

    #[test]
    fn matmul_gradcheck() {
        let mut rng = Rng::new(1);
        let a0 = Tensor::randn([3, 4], 0.5, &mut rng);
        let b0 = Tensor::randn([4, 2], 0.5, &mut rng);
        check::grad_check(
            &[a0, b0],
            |tape, leaves| {
                let y = tape.matmul(&leaves[0], &leaves[1]);
                tape.sum_all(&tape.mul(&y, &y))
            },
            2e-2,
        );
    }

    #[test]
    fn custom_op_backward_invoked() {
        // custom y = 3x with handwritten adjoint
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let xid = x.id();
        let y_val = crate::ops::scale(x.value(), 3.0);
        let y = tape.custom(y_val, move |g, emit| {
            emit(xid, crate::ops::scale(g, 3.0));
        });
        let s = tape.sum_all(&y);
        let grads = tape.backward(&s);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![3.0; 3]);
    }

    #[test]
    fn backward_seeded_scales_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let y = tape.scale(&x, 1.0);
        let grads = tape.backward_seeded(&y, Tensor::full([3], 5.0));
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![5.0; 3]);
    }
}
