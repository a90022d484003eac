//! Closed-form per-GPU memory model.
//!
//! Accounting conventions (mixed-precision bf16 training, as on Frontier):
//! * per parameter: 2 B working copy (bf16) + 2 B gradient + 8 B Adam
//!   moments (fp32 m, v) = 12 B; FSDP shards everything except the working
//!   copy, i.e. `2 + 10/fsdp` B/param — which reproduces the paper's
//!   observation that "at some point the entire model parameters must fit
//!   into the memory of a single GPU".
//! * activations: bf16 (2 B), saved for backward. The ViT self-attention is
//!   FlashAttention-2 (paper §4.1), so it stores no `P²` score matrix; the
//!   cross-channel aggregation is *not* flash (uneven input/output arity,
//!   paper §3.2) and stores its `C²` scores — the quadratic term D-CHAG
//!   attacks.
//!
//! Components follow the paper's three-way split: tokenization, channel
//! aggregation, transformer (ViT) blocks.

use dchag_model::config::{ModelConfig, TreeConfig, UnitKind};

use crate::hw::MachineSpec;
use crate::strategy::{ChannelPlan, Strategy};

/// bf16 bytes per element.
const ACT: f64 = 2.0;
/// AllGather buffers count the gathered output plus half again for the
/// collective's staging workspace.
const GATHER_STAGING: f64 = 1.5;
/// Working-copy bytes per parameter.
const PARAM_RESIDENT: f64 = 2.0;
/// Shardable bytes per parameter (grad + Adam moments).
const PARAM_STATE: f64 = 10.0;

/// Bytes for one component.
#[derive(Clone, Copy, Debug, Default)]
pub struct Component {
    pub params: f64,
    pub acts: f64,
}

impl Component {
    pub fn total(&self) -> f64 {
        self.params + self.acts
    }
}

/// Per-GPU memory breakdown for one strategy.
#[derive(Clone, Copy, Debug)]
pub struct MemBreakdown {
    pub tok: Component,
    pub agg: Component,
    pub vit: Component,
    /// Usable HBM per GPU.
    pub cap: f64,
}

impl MemBreakdown {
    pub fn total(&self) -> f64 {
        self.tok.total() + self.agg.total() + self.vit.total()
    }

    pub fn fits(&self) -> bool {
        self.total() <= self.cap
    }

    /// Fraction of usable HBM consumed.
    pub fn frac_of_cap(&self) -> f64 {
        self.total() / self.cap
    }

    /// Share of memory going to tokenization + aggregation (the paper's
    /// 50–90% claim at high channel counts).
    pub fn tok_agg_fraction(&self) -> f64 {
        (self.tok.total() + self.agg.total()) / self.total()
    }
}

/// Parameter count of one aggregation unit over `k` channels.
fn unit_params(kind: UnitKind, k: usize, d: f64) -> f64 {
    match kind {
        // Wq,Wk,Wv,Wo + LN affine + pool: 4D² + 3D.
        UnitKind::CrossAttention => 4.0 * d * d + 3.0 * d,
        // channel-mix weight [k, D] + bias.
        UnitKind::Linear => k as f64 * d + d,
    }
}

/// Forward activations of one aggregation unit over `k` channels, full
/// embedding width (partial modules are rank-local, not embedding-split),
/// batch factor excluded.
fn unit_acts(kind: UnitKind, k: usize, p: f64, d: f64, heads: f64) -> f64 {
    let k = k as f64;
    match kind {
        // ln+residual (2 full-width copies) + qkv/attn-out etc. (6 copies)
        // + C² scores and probs.
        UnitKind::CrossAttention => (9.0 * k * p * d + 2.0 * heads * p * k * k) * ACT,
        // one output token per position.
        UnitKind::Linear => p * d * ACT,
    }
}

/// First-level group sizes of a tree over `channels`.
fn tree_groups(tree: &TreeConfig, channels: usize) -> Vec<usize> {
    let g = tree.level1_units(channels);
    let base = channels / g;
    let extra = channels % g;
    (0..g).map(|i| base + usize::from(i < extra)).collect()
}

/// The analytical memory model over a machine spec.
#[derive(Clone, Copy, Debug)]
pub struct MemoryModel {
    pub machine: MachineSpec,
}

impl MemoryModel {
    pub fn frontier() -> Self {
        MemoryModel {
            machine: MachineSpec::frontier(),
        }
    }

    fn param_bytes(&self, numel: f64, fsdp: usize) -> f64 {
        numel * (PARAM_RESIDENT + PARAM_STATE / fsdp as f64)
    }

    /// Per-GPU breakdown of `cfg` under `strat`.
    pub fn breakdown(&self, cfg: &ModelConfig, strat: &Strategy) -> MemBreakdown {
        let d = cfg.embed_dim as f64;
        let p = cfg.num_patches() as f64;
        let pp = (cfg.patch * cfg.patch) as f64;
        let c = cfg.channels as f64;
        let heads = cfg.heads as f64;
        let layers = cfg.depth as f64;
        let m = cfg.mlp_dim() as f64;
        let tp = strat.tp as f64;
        let b = strat.micro_batch as f64;
        let fsdp = strat.fsdp;

        // ----- tokenization ---------------------------------------------
        let c_tok_local = match strat.plan {
            ChannelPlan::Replicated => c,
            ChannelPlan::DistTokenOnly | ChannelPlan::DChag(_) => c / tp,
        };
        let tok = Component {
            // per channel: conv p²·D + bias D + channel-ID embed D
            params: self.param_bytes(c_tok_local * (pp * d + 2.0 * d), fsdp),
            // patches + token outputs
            acts: b * c_tok_local * p * (pp + d) * ACT,
        };

        // ----- channel aggregation --------------------------------------
        // flat cross-attention over `cin` channels, embedding split by `te`
        let flat_params = |te: f64| 4.0 * d * d / te + 3.0 * d;
        let flat_acts = |cin: f64, te: f64| {
            b * (3.0 * cin * p * d            // LN in/out + residual, full width
                + 6.0 * cin * p * d / te      // qkv, attn-out, pooling streams
                + 2.0 * (heads / te) * p * cin * cin // scores + probs (no flash)
                + cin * p)
                * ACT
        };
        let agg = match strat.plan {
            ChannelPlan::Replicated => Component {
                params: self.param_bytes(flat_params(tp), fsdp),
                acts: flat_acts(c, tp),
            },
            ChannelPlan::DistTokenOnly => Component {
                params: self.param_bytes(flat_params(tp), fsdp),
                // gathered full token tensor (output + collective staging
                // workspace: ×2) + the same flat aggregation — this is what
                // "effectively negates" the tokenization savings (Fig. 8)
                acts: GATHER_STAGING * b * c * p * d * ACT + flat_acts(c, tp),
            },
            ChannelPlan::DChag(tree) => {
                let local = (c / tp) as usize;
                let groups = tree_groups(&tree, local);
                let mut params = 0.0;
                let mut acts = 0.0;
                for &k in &groups {
                    params += unit_params(tree.unit, k, d);
                    acts += b * unit_acts(tree.unit, k, p, d, heads);
                }
                if groups.len() > 1 {
                    params += unit_params(tree.unit, groups.len(), d);
                    acts += b * unit_acts(tree.unit, groups.len(), p, d, heads);
                }
                // one-token-per-rank gather buffer + final shared layer
                acts += GATHER_STAGING * b * tp * p * d * ACT;
                params += flat_params(tp);
                acts += flat_acts(tp, tp);
                Component {
                    params: self.param_bytes(params, fsdp),
                    acts,
                }
            }
        };

        // ----- transformer (ViT) blocks ----------------------------------
        let vit = Component {
            // 12D² matrices split by TP, LN + biases replicated; pos embed.
            params: self.param_bytes(layers * (12.0 * d * d / tp + 6.0 * d) + p * d, fsdp),
            // FA2: linear in P. Full-width LN/residual streams + sharded
            // qkv/mlp streams.
            acts: layers * b * p * (3.0 * d + (5.0 * d + 2.0 * m) / tp) * ACT,
        };

        MemBreakdown {
            tok,
            agg,
            vit,
            cap: self.machine.mem_cap(),
        }
    }

    /// Whether the strategy fits in HBM.
    pub fn fits(&self, cfg: &ModelConfig, strat: &Strategy) -> bool {
        self.breakdown(cfg, strat).fits()
    }

    /// Largest micro-batch that fits (activations scale linearly in B).
    /// Returns 0 when even the parameters do not fit.
    pub fn max_micro_batch(&self, cfg: &ModelConfig, strat: &Strategy) -> usize {
        let probe = strat.with_batch(1);
        let bd = self.breakdown(cfg, &probe);
        let fixed = bd.tok.params + bd.agg.params + bd.vit.params;
        let per_b = bd.tok.acts + bd.agg.acts + bd.vit.acts;
        if fixed > bd.cap {
            return 0;
        }
        ((bd.cap - fixed) / per_b).floor() as usize
    }

    /// Smallest power-of-two TP degree (≤ `max_tp`) at which the model fits,
    /// or None. Respects the head-divisibility constraint.
    pub fn min_tp(
        &self,
        cfg: &ModelConfig,
        plan: ChannelPlan,
        micro_batch: usize,
        max_tp: usize,
    ) -> Option<usize> {
        let mut tp = 1;
        while tp <= max_tp && cfg.heads.is_multiple_of(tp) {
            let strat = Strategy {
                plan,
                tp,
                fsdp: 1,
                dp: 1,
                micro_batch,
            };
            let divisible = cfg.channels.is_multiple_of(tp);
            if divisible && self.fits(cfg, &strat) {
                return Some(tp);
            }
            tp *= 2;
        }
        None
    }

    /// Memory *gain* of `candidate` over `baseline` in the paper's framing:
    /// `mem_baseline / mem_candidate − 1` (e.g. +0.70 = "70% improvement").
    pub fn gain_over(&self, cfg: &ModelConfig, baseline: &Strategy, candidate: &Strategy) -> f64 {
        let b = self.breakdown(cfg, baseline).total();
        let c = self.breakdown(cfg, candidate).total();
        b / c - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(preset: ModelConfig, channels: usize) -> ModelConfig {
        preset.with_channels(channels)
    }

    #[test]
    fn memory_monotone_in_channels_and_batch() {
        let m = MemoryModel::frontier();
        let s = Strategy::tp(2, 4);
        let a = m.breakdown(&model(ModelConfig::p1_7b(), 128), &s).total();
        let b = m.breakdown(&model(ModelConfig::p1_7b(), 256), &s).total();
        assert!(b > a);
        let c = m
            .breakdown(&model(ModelConfig::p1_7b(), 128), &s.with_batch(8))
            .total();
        assert!(c > a);
    }

    #[test]
    fn tp_reduces_vit_not_tokenization() {
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p1_7b(), 512);
        let t1 = m.breakdown(&cfg, &Strategy::tp(1, 4));
        let t4 = m.breakdown(&cfg, &Strategy::tp(4, 4));
        assert!(t4.vit.total() < t1.vit.total() / 2.0);
        assert_eq!(
            t4.tok.total(),
            t1.tok.total(),
            "TP never touches tokenization"
        );
    }

    #[test]
    fn dchag_reduces_tok_and_agg() {
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p1_7b(), 512);
        let tp = m.breakdown(&cfg, &Strategy::tp(8, 4));
        let dc = m.breakdown(
            &cfg,
            &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 4),
        );
        assert!(dc.tok.total() < tp.tok.total() / 4.0);
        assert!(dc.agg.total() < tp.agg.total() / 4.0);
        assert!(
            (dc.vit.total() - tp.vit.total()).abs() < 1.0,
            "ViT unchanged"
        );
    }

    #[test]
    fn dist_token_alone_gives_memory_back_to_agg() {
        // Fig. 8: tokenization shrinks but the gathered buffer makes the
        // aggregation module *bigger* than TP alone.
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p1_7b(), 1024);
        let tp = m.breakdown(&cfg, &Strategy::tp(8, 8));
        let dt = m.breakdown(&cfg, &Strategy::dist_token(8, 8));
        assert!(
            dt.tok.total() < tp.tok.total() / 4.0,
            "tokenization shrinks"
        );
        assert!(dt.agg.total() > tp.agg.total(), "aggregation grows");
    }

    #[test]
    fn fsdp_param_floor_is_working_copy() {
        // Even infinite sharding leaves the bf16 working copy resident:
        // a 26B model can never fit on one Frontier node (paper §6.1).
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p26b(), 64);
        let s = Strategy::fsdp(8, 1);
        let bd = m.breakdown(&cfg, &s);
        assert!(
            !bd.fits(),
            "26B on a single node must OOM (got {:.1} GB)",
            bd.total() / 1e9
        );
    }

    #[test]
    fn gain_definition_matches_convention() {
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p7b(), 512);
        let base = Strategy::tp(16, 2);
        let cand = Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 16, 2);
        let gain = m.gain_over(&cfg, &base, &cand);
        assert!(gain > 0.0, "D-CHAG must reduce memory here");
        let b = m.breakdown(&cfg, &base).total();
        let c = m.breakdown(&cfg, &cand).total();
        assert!((gain - (b / c - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn max_micro_batch_boundary_exact() {
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p1_7b(), 256);
        let s = Strategy::tp(2, 1);
        let bmax = m.max_micro_batch(&cfg, &s);
        assert!(bmax >= 1);
        assert!(m.fits(&cfg, &s.with_batch(bmax)));
        assert!(!m.fits(&cfg, &s.with_batch(bmax + 1)));
    }

    #[test]
    fn deeper_c_trees_cost_params_linear_trees_do_not() {
        let m = MemoryModel::frontier();
        let cfg = model(ModelConfig::p1_7b(), 512);
        let t0c = m
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree0(UnitKind::CrossAttention), 2, 8),
            )
            .agg
            .params;
        let t8c = m
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree(8, UnitKind::CrossAttention), 2, 8),
            )
            .agg
            .params;
        assert!(t8c > 2.0 * t0c, "8 extra cross-attention units add params");
        let t0l = m
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 2, 8),
            )
            .agg
            .params;
        let t8l = m
            .breakdown(
                &cfg,
                &Strategy::dchag(TreeConfig::tree(8, UnitKind::Linear), 2, 8),
            )
            .agg
            .params;
        assert!(t8l < 1.5 * t0l, "linear units stay cheap");
    }
}
