//! Figure 11: MAE pretraining on hyperspectral plant images — training-loss
//! parity between the single-device baseline and D-CHAG-L on two ranks,
//! plus a pseudo-RGB reconstruction.
//!
//! This is a *functional* experiment: real training on the CPU tensor
//! engine with simulated ranks, scaled down from the paper's 40M-parameter
//! / 500-band setting (see EXPERIMENTS.md for the scaling table). All
//! hyper-parameters are tuned for the baseline and reused unchanged for
//! D-CHAG, exactly as in the paper.

use dchag_collectives::run_ranks;
use dchag_core::{build_mae, train_step};
use dchag_data::{ascii_render, pseudo_rgb, HyperspectralConfig, HyperspectralDataset};
use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::{AdamW, MaeModel, ModelConfig, PatchMask};
use dchag_perf::Table;
use dchag_tensor::prelude::*;

/// Scaled-down experiment parameters.
#[derive(Clone, Copy, Debug)]
pub struct Fig11Opts {
    pub bands: usize,
    pub img: usize,
    pub iters: usize,
    pub batch: usize,
    pub lr: f32,
    pub seed: u64,
    /// D-CHAG group size.
    pub ranks: usize,
}

impl Default for Fig11Opts {
    fn default() -> Self {
        Fig11Opts {
            bands: 32,
            img: 32,
            iters: 40,
            batch: 4,
            lr: 2e-3,
            seed: 2025,
            ranks: 2,
        }
    }
}

fn model_config(o: &Fig11Opts) -> ModelConfig {
    ModelConfig {
        embed_dim: 64,
        depth: 4,
        heads: 4,
        mlp_ratio: 2,
        patch: 8,
        img_h: o.img,
        img_w: o.img,
        channels: o.bands,
        out_channels: o.bands,
        decoder_dim: 32,
        decoder_depth: 1,
    }
}

fn dataset(o: &Fig11Opts) -> HyperspectralDataset {
    HyperspectralDataset::new(HyperspectralConfig {
        bands: o.bands,
        h: o.img,
        w: o.img,
        images: 16,
        seed: o.seed,
    })
}

/// The deterministic batch/mask schedule shared by both runs.
fn schedule(o: &Fig11Opts, cfg: &ModelConfig) -> Vec<(Vec<usize>, PatchMask)> {
    let mut rng = Rng::new(o.seed ^ 0xBA7C);
    (0..o.iters)
        .map(|_| {
            let idx: Vec<usize> = (0..o.batch).map(|_| rng.below(16)).collect();
            let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut rng);
            (idx, mask)
        })
        .collect()
}

/// Train the single-device baseline; returns per-iteration losses.
pub fn train_baseline(o: &Fig11Opts) -> Vec<f32> {
    let cfg = model_config(o);
    let ds = dataset(o);
    let sched = schedule(o, &cfg);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(o.seed);
    let mae = MaeModel::new(
        &mut store,
        &mut rng,
        &cfg,
        o.seed ^ 0x70_6b,
        TreeConfig::tree0(UnitKind::CrossAttention),
    );
    let mut opt = AdamW::new(o.lr);
    let mut losses = Vec::with_capacity(o.iters);
    for (idx, mask) in &sched {
        let imgs = ds.batch(idx);
        losses.push(train_step(&mut store, &mut opt, 1.0, None, |bind| {
            mae.forward_loss(bind, &imgs, mask).0
        }));
    }
    losses
}

/// Train D-CHAG-L on `o.ranks` simulated GPUs; returns per-iteration losses
/// and an ASCII reconstruction pair (original, predicted).
pub fn train_dchag(o: &Fig11Opts) -> (Vec<f32>, String, String) {
    let cfg = model_config(o);
    let ds_cfg = HyperspectralConfig {
        bands: o.bands,
        h: o.img,
        w: o.img,
        images: 16,
        seed: o.seed,
    };
    let sched = schedule(o, &cfg);
    let o = *o;
    let run = run_ranks(o.ranks, move |ctx| {
        let ds = HyperspectralDataset::new(ds_cfg.clone());
        let mut store = ParamStore::new();
        let mut rng = Rng::new(o.seed);
        let mae = build_mae(
            &mut store,
            &mut rng,
            &cfg,
            o.seed ^ 0x70_6b,
            TreeConfig::tree0(UnitKind::Linear),
            &ctx.comm,
        );
        let mut opt = AdamW::new(o.lr);
        let mut losses = Vec::new();
        for (idx, mask) in &sched {
            let imgs = ds.batch(idx);
            losses.push(train_step(&mut store, &mut opt, 1.0, None, |bind| {
                mae.forward_loss(bind, &imgs, mask).0
            }));
        }
        // reconstruction of image 0 with the trained model
        let imgs = ds.batch(&[0]);
        let mask = PatchMask::random(cfg.num_patches(), 0.75, &mut Rng::new(99));
        let tape = Tape::new();
        let bind = LocalBinder::new(&tape, &store);
        let (_, pred) = mae.forward_loss(&bind, &imgs, &mask);
        let recon = mae.reconstruct(pred.value());
        (losses, recon, imgs)
    });
    let (losses, recon, imgs) = run.outputs.into_iter().next().unwrap();
    let ds = dataset(&o);
    let wl = ds.wavelengths();
    let orig_rgb = pseudo_rgb(&imgs.reshape(&[o.bands, o.img, o.img]), &wl);
    let recon_rgb = pseudo_rgb(&recon.reshape(&[o.bands, o.img, o.img]), &wl);
    (
        losses,
        ascii_render(&orig_rgb, 32),
        ascii_render(&recon_rgb, 32),
    )
}

pub fn run() -> Vec<Table> {
    let o = Fig11Opts::default();
    let base = train_baseline(&o);
    let (dchag, orig_art, recon_art) = train_dchag(&o);

    let mut t = Table::new(
        "Fig 11: MAE training loss — baseline (1 GPU) vs D-CHAG-L (2 GPUs)",
        &["iter", "baseline", "D-CHAG-L", "ratio"],
    );
    for i in (0..o.iters).step_by(5).chain([o.iters - 1]) {
        t.row(vec![
            i.to_string(),
            format!("{:.4}", base[i]),
            format!("{:.4}", dchag[i]),
            format!("{:.2}", dchag[i] / base[i]),
        ]);
    }
    let rel = (dchag[o.iters - 1] - base[o.iters - 1]).abs() / base[o.iters - 1];
    t.note(format!(
        "final losses: baseline {:.4}, D-CHAG-L {:.4} (rel diff {:.1}%)",
        base[o.iters - 1],
        dchag[o.iters - 1],
        rel * 100.0
    ));
    t.note("paper: good agreement of the loss curves as training progresses");

    let mut art = Table::new(
        "Fig 11 (right): pseudo-RGB original vs D-CHAG reconstruction",
        &["original", "reconstruction"],
    );
    for (a, b) in orig_art.lines().zip(recon_art.lines()) {
        art.row(vec![a.to_string(), b.to_string()]);
    }
    vec![t, art]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Fig11Opts {
        Fig11Opts {
            bands: 8,
            img: 16,
            iters: 10,
            batch: 2,
            lr: 2e-3,
            seed: 7,
            ranks: 2,
        }
    }

    #[test]
    fn baseline_loss_decreases() {
        let o = quick_opts();
        let losses = train_baseline(&o);
        assert_eq!(losses.len(), o.iters);
        assert!(losses[o.iters - 1] < losses[0], "{losses:?}");
    }

    #[test]
    fn schedules_are_deterministic() {
        let o = quick_opts();
        let cfg = model_config(&o);
        let a = schedule(&o, &cfg);
        let b = schedule(&o, &cfg);
        assert_eq!(a.len(), b.len());
        for ((ia, ma), (ib, mb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert_eq!(ma.visible, mb.visible);
        }
    }

    #[test]
    fn baseline_reproducible() {
        let o = quick_opts();
        assert_eq!(train_baseline(&o), train_baseline(&o));
    }
}
