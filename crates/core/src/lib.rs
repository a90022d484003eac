//! # dchag-core
//!
//! **D-CHAG — Distributed Cross-Channel Hierarchical Aggregation** (Tsaris
//! et al., SC 2025): the paper's primary contribution.
//!
//! D-CHAG scales vision foundation models along the *channel* dimension,
//! the axis no existing model-parallel method addresses. Each TP rank
//! tokenizes a slice of the input channels and reduces them to a single
//! token per spatial position through a hierarchical partial-channel
//! aggregation module ([`dchag::DChagEncoder`]); one lightweight AllGather
//! and a shared, embedding-sharded cross-attention produce the fused
//! representation the ViT consumes. The AllGather's adjoint is a local
//! slice, so the backward pass adds **zero communication** over the TP
//! baseline.
//!
//! The crate also provides the hybrid compositions of paper §3.4
//! ([`train`]): D-CHAG ∘ TP ∘ FSDP ∘ DP over the process grids of
//! `dchag-parallel`.

pub mod dchag;
pub mod models;
pub mod planner;
pub mod train;

pub use dchag::DChagEncoder;
pub use models::{build_climax, build_mae, DChagClimax, DChagMae};
pub use planner::{Plan, Planner};
pub use train::{
    resilient_train_loop, resilient_train_loop_with, train_step, train_step_fsdp, DurableConfig,
    ResilienceConfig, ResilientReport, RestorePoint, StateAccess, TrainConfig,
};
