//! Non-differentiable compute kernels.
//!
//! Everything here is a pure function `&Tensor -> Tensor`; the autograd layer
//! in [`crate::autograd`] wraps these with backward rules.

pub mod attention;
pub mod elementwise;
pub mod fused;
pub mod gemm;
pub mod norm;
pub mod reduce;
pub mod shape_ops;

pub use attention::{
    flash_attention, flash_attention_backward, flash_attention_peak_bytes, naive_attention,
    naive_attention_peak_bytes, FLASH_BC, FLASH_BR,
};
pub use elementwise::{
    add, add_bias, add_bias_gelu, add_bias_gelu_backward, add_scaled, add_scaled_into, exp_fast,
    gelu, gelu_grad_scalar, gelu_scalar, mul, scale, scale_into, square, sub, tanh_fast,
};
pub use fused::{linear_gelu, matmul_bias, softmax_pool, softmax_pool_backward};
pub use gemm::{
    bmm, bmm_nt, bmm_nt_scaled, bmm_scaled, bmm_tn, bmm_tn_scaled, gemm, gemm_bias, matmul,
    matmul_nt, matmul_tn, GemmLayout,
};
pub use norm::{layernorm, layernorm_backward, LayerNormCtx, LN_EPS};
pub use reduce::{mean_all, mean_axis1, softmax_last, softmax_last_backward, sum_all, sum_to_last};
pub use shape_ops::{
    broadcast_to_batch, concat, patchify, select_axis1, select_axis1_backward, slice,
    slice_backward, sum_over_batch, swap_axes12, unpatchify,
};
