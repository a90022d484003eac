//! Per-GPU FLOP model (forward + backward ≈ 3× forward for matmuls).

use dchag_model::config::{ModelConfig, UnitKind};

use crate::strategy::{ChannelPlan, Strategy};

/// Forward+backward multiplier.
const FB: f64 = 3.0;

/// FLOPs per GPU per step, split by the paper's three components.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlopsBreakdown {
    pub tok: f64,
    pub agg: f64,
    pub vit: f64,
}

impl FlopsBreakdown {
    pub fn total(&self) -> f64 {
        self.tok + self.agg + self.vit
    }
}

/// Per-GPU training FLOPs for one micro-batch step.
pub fn flops_per_gpu(cfg: &ModelConfig, strat: &Strategy) -> FlopsBreakdown {
    let d = cfg.embed_dim as f64;
    let p = cfg.num_patches() as f64;
    let pp = (cfg.patch * cfg.patch) as f64;
    let c = cfg.channels as f64;
    let layers = cfg.depth as f64;
    let m = cfg.mlp_dim() as f64;
    let tp = strat.tp as f64;
    let b = strat.micro_batch as f64;

    let c_local = match strat.plan {
        ChannelPlan::Replicated => c,
        ChannelPlan::DistTokenOnly | ChannelPlan::DChag(_) => c / tp,
    };
    let tok = FB * 2.0 * b * c_local * p * pp * d;

    // flat cross-attention over `cin` channels, embedding split `te`
    let flat = |cin: f64, te: f64| {
        FB * b * p * (4.0 * 2.0 * cin * d * d / te + 2.0 * 2.0 * cin * cin * d / te)
    };
    let agg = match strat.plan {
        ChannelPlan::Replicated | ChannelPlan::DistTokenOnly => flat(c, tp),
        ChannelPlan::DChag(tree) => {
            let local = (c / tp) as usize;
            let groups = {
                let g = tree.level1_units(local);
                let base = local / g;
                let extra = local % g;
                (0..g)
                    .map(|i| base + usize::from(i < extra))
                    .collect::<Vec<_>>()
            };
            let unit = |k: f64| match tree.unit {
                UnitKind::CrossAttention => FB * b * p * (8.0 * k * d * d + 4.0 * k * k * d),
                UnitKind::Linear => FB * b * p * 2.0 * k * d,
            };
            let mut f: f64 = groups.iter().map(|&k| unit(k as f64)).sum();
            if groups.len() > 1 {
                f += unit(groups.len() as f64);
            }
            f + flat(tp, tp)
        }
    };

    // transformer blocks: the 12D² projection/MLP matmuls (2·12·D²/tp MACs
    // per token; MLP width m = 4D is folded into the 12D²) plus the two
    // attention bmms (4·P·D/tp per token).
    let _ = m;
    let vit = FB * layers * b * p * (2.0 * 12.0 * d * d / tp + 4.0 * p * d / tp);

    FlopsBreakdown { tok, agg, vit }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_model::config::TreeConfig;

    #[test]
    fn tokenization_flops_grow_with_channels() {
        let cfg = ModelConfig::p100m();
        let a = flops_per_gpu(&cfg.clone().with_channels(128), &Strategy::tp(1, 1));
        let b = flops_per_gpu(&cfg.with_channels(512), &Strategy::tp(1, 1));
        assert!(b.tok > 3.9 * a.tok);
        assert!((b.vit - a.vit).abs() < 1e-6, "ViT flops independent of C");
    }

    #[test]
    fn aggregation_flops_quadratic_in_channels() {
        let cfg = ModelConfig::p100m();
        let a = flops_per_gpu(&cfg.clone().with_channels(128), &Strategy::tp(1, 1));
        let b = flops_per_gpu(&cfg.with_channels(512), &Strategy::tp(1, 1));
        // quadratic term should push ratio well past linear
        assert!(b.agg / a.agg > 4.0);
    }

    #[test]
    fn dchag_cuts_per_gpu_tok_agg_flops() {
        let cfg = ModelConfig::p7b().with_channels(512);
        let tp = flops_per_gpu(&cfg, &Strategy::tp(8, 1));
        let dc = flops_per_gpu(
            &cfg,
            &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 1),
        );
        assert!(dc.tok < tp.tok / 4.0);
        assert!(dc.agg < tp.agg);
        assert!((dc.vit - tp.vit).abs() / tp.vit < 1e-9);
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let cfg = ModelConfig::p1b().with_channels(256);
        let f1 = flops_per_gpu(&cfg, &Strategy::tp(2, 1)).total();
        let f4 = flops_per_gpu(&cfg, &Strategy::tp(2, 4)).total();
        assert!((f4 / f1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn paper_observation_compute_shifts_to_channels() {
        // Fig. 6 bottom: as channels grow, tokenization+aggregation dominate
        // the FLOPs even for the 3B model.
        let cfg = ModelConfig::p3b().with_channels(512);
        let f = flops_per_gpu(&cfg, &Strategy::tp(1, 1));
        assert!(f.tok + f.agg > f.vit * 0.3, "channel work is significant");
    }
}
