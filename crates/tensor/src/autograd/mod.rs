//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records one forward pass; [`Tape::backward`] replays it in
//! reverse. Node ids are assigned in creation order, so reverse-id order is
//! a valid reverse-topological order — no explicit sort is needed.
//!
//! The tape is single-use and its backward pass consumes it: each adjoint
//! is an `FnOnce` that owns its output gradient and the tensors it saved,
//! runs at most once, and is dropped as soon as it has run. Activations
//! are therefore freed as the backward walks past them, not when the tape
//! is dropped, and a second backward over the same tape panics.
//!
//! Distributed layers (tensor parallelism, FSDP, D-CHAG) plug in through
//! [`Tape::custom`], which lets them register collective operations with
//! hand-written adjoints (e.g. AllGather forward / local-slice backward).
//! Adjoints run in the same reverse-id order on every rank, so collective
//! adjoints issue in the same order everywhere.

mod ops;

pub mod check;

use std::cell::{Cell, RefCell};

use crate::tensor::Tensor;

type BackwardFn = Box<dyn FnOnce(Tensor, &mut dyn FnMut(usize, Tensor))>;

struct Node {
    /// Leaves keep their gradient for retrieval; every other node passes
    /// it on through its adjoint.
    leaf: bool,
    /// The adjoint, which receives the output gradient and emits
    /// `(input_node_id, gradient_contribution)` pairs. `None` for leaves
    /// and once the backward pass has taken it.
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
///
/// A tape runs one backward pass; record a fresh tape for the next step.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    /// Set by the backward pass, whose adjoints have run and are gone.
    spent: Cell<bool>,
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
            spent: Cell::new(false),
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
        self.push(value, true, None)
    }

    /// Register an arbitrary differentiable operation.
    ///
    /// `backward(grad_out, emit)` must call `emit(input_id, grad)` for every
    /// input that requires a gradient contribution. Input ids should be
    /// captured from the input `Var`s at recording time.
    ///
    /// The adjoint runs at most once, during the tape's one backward pass,
    /// and is dropped right after, together with everything it captured.
    /// It owns `grad_out`, so it may pass it on to an input or reuse its
    /// buffer instead of copying.
    pub fn custom(
        &self,
        value: Tensor,
        backward: impl FnOnce(Tensor, &mut dyn FnMut(usize, Tensor)) + 'static,
    ) -> Var {
        self.push(value, false, Some(Box::new(backward)))
    }

    fn push(&self, value: Tensor, leaf: bool, backward: Option<BackwardFn>) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let id = nodes.len();
        nodes.push(Node { leaf, backward });
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
    ///
    /// Consumes the tape's adjoints: each one is taken out of its node,
    /// run, and dropped before the next, so the tensors it saved are freed
    /// as the pass goes. Panics if the tape has already run its backward.
    pub fn backward_seeded(&self, root: &Var, seed: Tensor) -> Grads {
        assert_eq!(
            seed.dims(),
            root.value.dims(),
            "seed shape {:?} vs root shape {:?}",
            seed.dims(),
            root.value.dims()
        );
        assert!(
            !self.spent.replace(true),
            "Tape::backward called twice: a tape runs one backward pass, \
             which consumes its adjoints; record a new tape"
        );
        let mut nodes = self.nodes.borrow_mut();
        // Nothing recorded after the root feeds it: free those adjoints now.
        for node in &mut nodes[root.id + 1..] {
            node.backward = None;
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; root.id + 1];
        grads[root.id] = Some(seed);
        for id in (0..=root.id).rev() {
            // Taken before the check below, so an adjoint the root does not
            // reach is dropped here too.
            let backward = nodes[id].backward.take();
            let Some(g) = grads[id].take() else { continue };
            if nodes[id].leaf {
                grads[id] = Some(g);
                continue;
            }
            let backward = backward.expect("a non-leaf node records an adjoint");
            backward(g, &mut |input_id, contribution| {
                debug_assert!(input_id < id, "graph must be topological");
                let slot = &mut grads[input_id];
                *slot = Some(match slot.take() {
                    // Accumulate in place: when the slot holds the sole
                    // reference, the AXPY reuses its buffer instead of
                    // allocating per contribution.
                    Some(acc) => crate::ops::add_scaled_into(acc, &contribution, 1.0),
                    None => contribution,
                });
            });
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
    use crate::device::{with_tracker, MemCounter};
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
            emit(xid, crate::ops::scale_into(g, 3.0));
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

    #[test]
    fn backward_frees_adjoints_as_it_runs() {
        let counter = MemCounter::new();
        with_tracker(counter.clone(), || {
            let tape = Tape::new();
            let x = tape.leaf(Tensor::zeros([4]));
            // Eight pass-through nodes, each saving a 256 KiB tensor.
            let mut y = x.clone();
            for _ in 0..8 {
                let (iy, saved) = (y.id(), Tensor::zeros([1 << 16]));
                y = tape.custom(y.value().clone(), move |g, emit| {
                    let _keep = saved;
                    emit(iy, g);
                });
            }
            let seed = Tensor::ones([4]);
            let entry = counter.current();
            counter.reset_peak();
            let grads = tape.backward_seeded(&y, seed);
            assert!(
                counter.peak() <= entry,
                "backward peak {} above its entry level {entry}",
                counter.peak()
            );
            // Every saved tensor is gone; what is left is the leaf's value
            // and its gradient (the seed, passed through).
            let grad = grads.get(&x).unwrap();
            assert_eq!(
                counter.current(),
                x.value().size_bytes() + grad.size_bytes()
            );
        });
    }

    #[test]
    #[should_panic(expected = "a tape runs one backward pass")]
    fn second_backward_panics() {
        let tape = Tape::new();
        let x = tape.leaf(Tensor::arange(3));
        let s = tape.sum_all(&x);
        let _ = tape.backward(&s);
        let _ = tape.backward(&s);
    }
}
