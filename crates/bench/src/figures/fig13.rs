//! Figure 13: D-CHAG memory gains over TP alone for 7B / 15B / 26B models —
//! gains grow with the channel count and shrink with model size; linear
//! units beat cross-attention units.

use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::ModelConfig;
use dchag_perf::{pct_gain, ChannelPlan, MemoryModel, Strategy, Table};

pub const BATCH: usize = 8;

/// (model name, config, channel pair) — the two channel counts per model,
/// in the regime where TP is necessary (paper §6.1).
pub fn cases() -> Vec<(&'static str, ModelConfig, [usize; 2])> {
    vec![
        ("7B", ModelConfig::p7b(), [256, 512]),
        ("15B", ModelConfig::p15b(), [128, 256]),
        ("26B", ModelConfig::p26b(), [64, 128]),
    ]
}

/// Gain of D-CHAG over TP at the smallest TP degree where *D-CHAG* fits
/// (matching the paper's fixed-GPU comparisons; the baseline may OOM there,
/// in which case the baseline memory is still well-defined analytically).
pub fn gain(cfg: &ModelConfig, c: usize, unit: UnitKind) -> (usize, f64) {
    let mem = MemoryModel::frontier();
    let cfg = cfg.clone().with_channels(c);
    let tree = TreeConfig::tree0(unit);
    let tp = mem
        .min_tp(&cfg, ChannelPlan::DChag(tree), BATCH, 64)
        .expect("D-CHAG must fit at some TP degree");
    let g = mem.gain_over(
        &cfg,
        &Strategy::tp(tp, BATCH),
        &Strategy::dchag(tree, tp, BATCH),
    );
    (tp, g)
}

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "Fig 13: D-CHAG memory gain over TP alone (Tree0)",
        &["model", "channels", "TP", "gain -L", "gain -C"],
    );
    for (name, cfg, chans) in cases() {
        for c in chans {
            let (tp, gl) = gain(&cfg, c, UnitKind::Linear);
            let (_, gc) = gain(&cfg, c, UnitKind::CrossAttention);
            t.row(vec![
                name.to_string(),
                c.to_string(),
                tp.to_string(),
                pct_gain(gl),
                pct_gain(gc),
            ]);
        }
    }
    t.note(format!(
        "micro-batch {BATCH}; gain = mem_TP / mem_D-CHAG − 1"
    ));
    t.note(
        "paper: 7B ≈ +30%/+70% (-L), +10%/+60% (-C); 15B > +20%/+50%; \
         26B +10–30%; gains grow with C, shrink with model size, -L ≥ -C",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gains_grow_with_channels_within_each_model() {
        for (name, cfg, [c_lo, c_hi]) in cases() {
            let (_, lo) = gain(&cfg, c_lo, UnitKind::Linear);
            let (_, hi) = gain(&cfg, c_hi, UnitKind::Linear);
            assert!(
                hi > lo,
                "{name}: gain {lo:.2} @{c_lo}ch vs {hi:.2} @{c_hi}ch"
            );
        }
    }

    #[test]
    fn gains_shrink_with_model_size_at_matched_channels_and_tp() {
        // At fixed channels AND fixed TP degree, a bigger transformer
        // dilutes the tok+agg savings (paper: "as the model parameters of
        // the transformer blocks grow larger, the memory gains become
        // smaller").
        use dchag_perf::{MemoryModel, Strategy};
        let mem = MemoryModel::frontier();
        let tree = TreeConfig::tree0(UnitKind::Linear);
        let g = |cfg: ModelConfig| {
            let cfg = cfg.with_channels(128);
            mem.gain_over(
                &cfg,
                &Strategy::tp(8, BATCH),
                &Strategy::dchag(tree, 8, BATCH),
            )
        };
        let (g7, g15, g26) = (
            g(ModelConfig::p7b()),
            g(ModelConfig::p15b()),
            g(ModelConfig::p26b()),
        );
        assert!(
            g7 > g15 && g15 > g26,
            "{g7:.2} > {g15:.2} > {g26:.2} expected"
        );
    }

    #[test]
    fn linear_at_least_as_good_as_cross() {
        for (name, cfg, chans) in cases() {
            for c in chans {
                let (_, gl) = gain(&cfg, c, UnitKind::Linear);
                let (_, gc) = gain(&cfg, c, UnitKind::CrossAttention);
                assert!(gl >= gc - 1e-9, "{name}@{c}: -L {gl:.2} vs -C {gc:.2}");
            }
        }
    }

    #[test]
    fn gains_in_paper_magnitude_band() {
        // 7B: paper reports ~30% (256ch) and ~70% (512ch) for -L; accept a
        // generous band since our substrate differs.
        let (_, g256) = gain(&ModelConfig::p7b(), 256, UnitKind::Linear);
        let (_, g512) = gain(&ModelConfig::p7b(), 512, UnitKind::Linear);
        assert!((0.1..=1.5).contains(&g256), "7B@256 gain {g256}");
        assert!((0.3..=2.5).contains(&g512), "7B@512 gain {g512}");
        assert!(g512 > 1.5 * g256, "512ch gain well above 256ch");
    }
}
