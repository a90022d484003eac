//! Numeric gradient checking, shared by downstream crates' test suites.

use super::{Tape, Var};
use crate::tensor::Tensor;

/// Verify analytic gradients of a scalar-valued graph against central
/// differences.
///
/// `f(tape, leaves)` must build the graph from freshly-created leaf vars (one
/// per input tensor, same order) and return a scalar. Panics if any checked
/// coordinate deviates by more than `tol` in a mixed absolute/relative sense.
///
/// At most 16 coordinates per input are probed (deterministic stride) to keep
/// large-tensor checks cheap.
pub fn grad_check(inputs: &[Tensor], f: impl Fn(&Tape, &[Var]) -> Var, tol: f32) {
    // Analytic pass.
    let tape = Tape::new();
    let leaves: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&tape, &leaves);
    assert_eq!(out.value().numel(), 1, "grad_check needs a scalar output");
    let grads = tape.backward(&out);

    let eval = |perturbed: &[Tensor]| -> f32 {
        let tape = Tape::new();
        let leaves: Vec<Var> = perturbed.iter().map(|t| tape.leaf(t.clone())).collect();
        f(&tape, &leaves).value().item()
    };

    let h = 1e-3f32;
    for (which, input) in inputs.iter().enumerate() {
        let analytic = grads.get_or_zeros(&leaves[which]);
        let n = input.numel();
        let stride = (n / 16).max(1);
        for i in (0..n).step_by(stride) {
            let mut plus = inputs.to_vec();
            let mut v = input.to_vec();
            v[i] += h;
            plus[which] = Tensor::from_vec(v, input.shape().clone());

            let mut minus = inputs.to_vec();
            let mut v = input.to_vec();
            v[i] -= h;
            minus[which] = Tensor::from_vec(v, input.shape().clone());

            let fd = (eval(&plus) - eval(&minus)) / (2.0 * h);
            let got = analytic.at(i);
            let denom = 1.0f32.max(fd.abs()).max(got.abs());
            assert!(
                (got - fd).abs() / denom <= tol,
                "input {which} coord {i}: analytic {got} vs numeric {fd} (tol {tol})"
            );
        }
    }
}
