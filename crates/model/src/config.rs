//! Model configuration and the paper's named presets.

/// Kind of aggregation unit inside a channel-aggregation module.
///
/// The paper's `-C` variants use cross-attention units; `-L` variants use
/// lightweight linear (channel-mixing) units. The *final* shared layer is
/// always cross-attention (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnitKind {
    /// Full cross-attention over the unit's input channels (quadratic
    /// memory in the channel count).
    CrossAttention,
    /// Linear channel mixing (linear memory, far fewer parameters).
    Linear,
}

impl UnitKind {
    pub fn suffix(&self) -> &'static str {
        match self {
            UnitKind::CrossAttention => "-C",
            UnitKind::Linear => "-L",
        }
    }
}

/// Hierarchy layout of a channel-aggregation module (paper §3.2, Fig. 3).
///
/// `Tree(g)` splits the input channels into `g` first-level groups, each
/// handled by its own aggregation unit; a second-level unit then reduces the
/// `g` partial tokens to one. `Tree(0)` (the paper's "Tree0") is a single
/// unit over all channels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TreeConfig {
    pub groups: usize,
    pub unit: UnitKind,
}

impl TreeConfig {
    pub fn tree0(unit: UnitKind) -> Self {
        TreeConfig { groups: 0, unit }
    }

    pub fn tree(groups: usize, unit: UnitKind) -> Self {
        TreeConfig { groups, unit }
    }

    /// Paper-style display name, e.g. "Tree2-L".
    pub fn name(&self) -> String {
        format!("Tree{}{}", self.groups, self.unit.suffix())
    }

    /// Number of first-level units actually instantiated for `channels`.
    pub fn level1_units(&self, channels: usize) -> usize {
        if self.groups <= 1 {
            1
        } else {
            self.groups.min(channels)
        }
    }

    /// Maximum input channels seen by any first-level unit.
    pub fn max_channels_per_unit(&self, channels: usize) -> usize {
        channels.div_ceil(self.level1_units(channels))
    }
}

/// Full architecture description of the foundation model (paper Fig. 1).
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Transformer embedding width.
    pub embed_dim: usize,
    /// Number of transformer (ViT) blocks.
    pub depth: usize,
    /// Attention heads.
    pub heads: usize,
    /// MLP hidden = `mlp_ratio · embed_dim`.
    pub mlp_ratio: usize,
    /// Patch side length.
    pub patch: usize,
    /// Input image height/width.
    pub img_h: usize,
    pub img_w: usize,
    /// Input channel count (the axis D-CHAG distributes).
    pub channels: usize,
    /// Output channels of the task head (forecast variables or
    /// reconstruction channels).
    pub out_channels: usize,
    /// MAE decoder width / depth (0 depth = linear decoder).
    pub decoder_dim: usize,
    pub decoder_depth: usize,
}

impl ModelConfig {
    /// Patches per image.
    pub fn num_patches(&self) -> usize {
        assert!(self.img_h.is_multiple_of(self.patch) && self.img_w.is_multiple_of(self.patch));
        (self.img_h / self.patch) * (self.img_w / self.patch)
    }

    pub fn head_dim(&self) -> usize {
        assert!(
            self.embed_dim.is_multiple_of(self.heads),
            "heads must divide embed"
        );
        self.embed_dim / self.heads
    }

    pub fn mlp_dim(&self) -> usize {
        self.embed_dim * self.mlp_ratio
    }

    /// Approximate transformer-block parameter count (the figure used when
    /// the paper says "7B model"): `depth · 12 · d²`.
    pub fn transformer_params(&self) -> u64 {
        self.depth as u64 * 12 * (self.embed_dim as u64).pow(2)
    }

    /// Per-channel tokenizer parameters: conv `p²→d` plus bias plus the
    /// channel-ID embedding.
    pub fn tokenizer_params(&self) -> u64 {
        self.channels as u64
            * ((self.patch * self.patch * self.embed_dim) as u64 + 2 * self.embed_dim as u64)
    }

    pub fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }

    fn base(embed_dim: usize, depth: usize, heads: usize) -> Self {
        ModelConfig {
            embed_dim,
            depth,
            heads,
            mlp_ratio: 4,
            patch: 16,
            img_h: 224,
            img_w: 224,
            channels: 128,
            out_channels: 128,
            decoder_dim: embed_dim / 2,
            decoder_depth: 1,
        }
    }

    // ----- the paper's named model sizes ------------------------------------

    /// "100M" single-GPU analysis model (Fig. 6).
    pub fn p100m() -> Self {
        Self::base(768, 12, 12)
    }

    /// "1B" single-GPU analysis model (Fig. 6).
    pub fn p1b() -> Self {
        Self::base(1792, 24, 16)
    }

    /// "3B" single-GPU analysis model (Fig. 6).
    pub fn p3b() -> Self {
        Self::base(2560, 32, 20)
    }

    /// "1.7B" TP-analysis model (Figs. 7–9).
    pub fn p1_7b() -> Self {
        Self::base(2048, 32, 16)
    }

    /// "7B": 4096 embed, 32 layers, 32 heads (paper §6.1).
    pub fn p7b() -> Self {
        Self::base(4096, 32, 32)
    }

    /// "15B": 6144 embed, 32 layers, 32 heads (paper §6.1).
    pub fn p15b() -> Self {
        Self::base(6144, 32, 32)
    }

    /// "26B": 8192 embed, 32 layers, 32 heads (paper §6.1).
    pub fn p26b() -> Self {
        Self::base(8192, 32, 32)
    }

    /// "53M" ClimaX-style model for the weather evaluation (Fig. 12).
    pub fn climax53m() -> Self {
        let mut c = Self::base(640, 8, 8);
        c.img_h = 32;
        c.img_w = 64;
        c.patch = 4;
        c.channels = 80;
        c.out_channels = 80;
        c
    }

    /// Tiny config for unit tests and CPU training runs.
    pub fn tiny(channels: usize) -> Self {
        ModelConfig {
            embed_dim: 32,
            depth: 2,
            heads: 4,
            mlp_ratio: 2,
            patch: 4,
            img_h: 16,
            img_w: 16,
            channels,
            out_channels: channels,
            decoder_dim: 16,
            decoder_depth: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes_match_stated_params() {
        // §6.1 gives exact (embed, depth, heads); check ~params land near
        // the names.
        let within = |cfg: ModelConfig, b: f64, tol: f64| {
            let p = cfg.transformer_params() as f64 / 1e9;
            assert!((p - b).abs() / b < tol, "{p} vs {b}");
        };
        within(ModelConfig::p7b(), 6.4, 0.15);
        within(ModelConfig::p15b(), 14.5, 0.15);
        within(ModelConfig::p26b(), 25.8, 0.15);
        within(ModelConfig::p1_7b(), 1.6, 0.15);
    }

    #[test]
    fn patches_and_head_dim() {
        let c = ModelConfig::climax53m();
        assert_eq!(c.num_patches(), (32 / 4) * (64 / 4));
        assert_eq!(c.head_dim(), 80);
    }

    #[test]
    fn tree_config_worked_example() {
        // Paper §4.5: 512 channels on two GPUs -> 256 per GPU.
        // Tree2 => two units with max 128 channels each;
        // Tree8 => eight units with max 32 channels each.
        let t2 = TreeConfig::tree(2, UnitKind::CrossAttention);
        assert_eq!(t2.level1_units(256), 2);
        assert_eq!(t2.max_channels_per_unit(256), 128);
        let t8 = TreeConfig::tree(8, UnitKind::Linear);
        assert_eq!(t8.level1_units(256), 8);
        assert_eq!(t8.max_channels_per_unit(256), 32);
        let t0 = TreeConfig::tree0(UnitKind::Linear);
        assert_eq!(t0.level1_units(256), 1);
        assert_eq!(t0.max_channels_per_unit(256), 256);
        assert_eq!(t0.name(), "Tree0-L");
    }

    #[test]
    fn tree_units_never_exceed_channels() {
        let t = TreeConfig::tree(8, UnitKind::Linear);
        assert_eq!(t.level1_units(3), 3);
    }
}
