//! # dchag-model
//!
//! The multi-channel vision foundation-model architecture the D-CHAG paper
//! targets (its Fig. 1): per-channel patch tokenization, cross-channel
//! aggregation (flat or hierarchical, cross-attention or linear units),
//! special tokens, a ViT encoder, and the two evaluation task heads —
//! masked-autoencoder pretraining and ClimaX-style weather forecasting.
//!
//! The crate depends only on `dchag-tensor`. Its transformer modules also
//! build tensor-parallel shards of themselves over a [`TpGroup`], whose
//! collectives `dchag-parallel` supplies; the other distributed
//! decompositions live in `dchag-parallel` (FSDP / DP / SP) and
//! `dchag-core` (D-CHAG itself). All are tested for equivalence against
//! the single-device modules.

pub mod aggregation;
pub mod attention;
pub mod climax;
pub mod config;
pub mod embeddings;
pub mod encoder;
pub mod hierarchy;
pub mod layers;
pub mod mae;
pub mod optim;
pub mod tokenizer;
pub mod vit;

pub use aggregation::{AggUnit, CrossAttnAggregator, LinearChannelMix};
pub use attention::MultiHeadAttention;
pub use climax::{latitude_rmse, ClimaxModel};
pub use config::{ModelConfig, TreeConfig, UnitKind};
pub use embeddings::{latitude_weights, MetaToken, PosEmbed};
pub use encoder::FmEncoder;
pub use hierarchy::{HierarchicalAggregator, TreePlan};
pub use layers::{LayerNorm, Linear, Mlp, TpGroup};
pub use mae::{MaeModel, PatchMask};
pub use optim::{clip_global_norm, AdamW};
pub use tokenizer::PatchTokenizer;
pub use vit::{TransformerBlock, ViTEncoder};
