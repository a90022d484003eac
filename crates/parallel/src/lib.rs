//! # dchag-parallel
//!
//! The distributed-training substrates the D-CHAG paper builds on and
//! compares against, implemented over the simulated collectives:
//!
//! * [`tp`] — Megatron-style tensor parallelism (the paper's baseline):
//!   [`tp_group`] hands a communicator to the `sharded` constructors of
//!   the model's own modules (column/row-parallel linears, head-sharded
//!   attention, the embedding-sharded cross-attention aggregator of
//!   D-CHAG's final shared layer), which then run the `f`/`g` autograd
//!   collectives.
//! * [`fsdp`] — fully-sharded data parallelism: per-parameter shards moved
//!   in flat units (one AllGather per unit on bind, next unit prefetched;
//!   one ReduceScatter per unit in backward), sharded Adam state.
//! * [`dp`] — replica data parallelism: one gradient AllReduce after the
//!   backward pass (`DataParallel::sync_grads`).
//! * [`dist_token`] — distributed channel tokenization alone (paper §3.1),
//!   the negative result of Fig. 8.
//! * [`sp`] — sequence parallelism (paper §3.5: D-CHAG composes with SP).
//! * [`groups`] — the TP × FSDP × DP process grid of Fig. 5.
//! * [`comm_ops`] — collectives as differentiable tape nodes.

pub mod comm_ops;
pub mod dist_token;
pub mod dp;
pub mod fsdp;
pub mod groups;
pub mod sp;
pub mod tp;

pub use comm_ops::{all_gather_cat, tp_f, tp_g};
pub use dist_token::{partition_channels, DistTokenizer};
pub use dp::{measured_alpha_beta, DataParallel};
pub use fsdp::{FsdpBinder, FsdpParams};
pub use groups::{refit_grid, GridCoord, HybridGroups};
pub use sp::{gather_sequence, scatter_sequence, SpBlock, SpGradSync, SpViT};
pub use tp::tp_group;
