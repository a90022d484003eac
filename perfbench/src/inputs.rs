//! Workload shapes and seeded input generation.
//!
//! Every input tensor is generated here, from the workload seed, before any
//! world is launched and before the clock starts: the program under test
//! only ever receives ready tensors.

use dchag_data::{HyperspectralConfig, HyperspectralDataset, WeatherConfig, WeatherDataset};
use dchag_model::{ModelConfig, PatchMask};
use dchag_tensor::{Rng, Tensor};

use crate::{Scale, Workload};

/// Seed of the model initialisation. The workload seed varies the inputs
/// only, so a run's figures differ from seed to seed by its inputs alone.
pub(crate) const MODEL_SEED: u64 = 2025;
/// Per-channel parameter seed (tokenizer rows), as in the paper figures.
pub(crate) const BASE_SEED: u64 = MODEL_SEED ^ 0x70_6b;
/// Optimizer settings of the paper-figure reproductions (Fig. 11).
pub(crate) const CLIP: f32 = 1.0;
pub(crate) const LR: f32 = 2e-3;
/// Seed of the synthetic corpora (the stand-ins for the APPL cubes and for
/// ERA5). Like a real dataset they stay fixed; the workload seed draws the
/// samples, time windows and masks from them.
const CORPUS_SEED: u64 = 0xA991;
/// Hyperspectral images in the corpus; batches draw from them.
const CORPUS_IMAGES: usize = 64;

/// Shape of one episode (one world launch) of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Ranks in the world.
    pub world: usize,
    /// Untimed steps at the start of each episode.
    pub warmup: usize,
    /// Timed steps per episode.
    pub timed: usize,
    /// Distinct input batches the steps cycle through; `loss_final`
    /// averages the last this many steps, one pass over all of them.
    pub pool: usize,
    /// Save a checkpoint every this many optimizer steps (0 = never).
    pub save_every: usize,
    /// Steps the pre-clock run trains before it commits the checkpoint
    /// the episodes resume from (0 = no resume).
    pub resume_step: usize,
    /// Global samples per optimizer step.
    pub samples_per_step: usize,
}

impl Plan {
    pub fn of(w: Workload, scale: Scale) -> Plan {
        let tiny = scale == Scale::Tiny;
        let (warmup, timed) = match (w, tiny) {
            (_, true) => (1, 4),
            (Workload::MaeHyperFlatW1, false) => (2, 24),
            (Workload::MaeHyperDchagW2, false) => (4, 64),
            (Workload::ClimaxFsdpTcpW2, false) => (2, 12),
        };
        let climax = w == Workload::ClimaxFsdpTcpW2;
        let world = if w == Workload::MaeHyperFlatW1 { 1 } else { 2 };
        Plan {
            world,
            warmup,
            timed,
            pool: if climax {
                ClimaxShape::of(scale).pool
            } else {
                MaeShape::of(scale).pool
            },
            save_every: match (climax, tiny) {
                (false, _) => 0,
                (true, true) => 2,
                (true, false) => 4,
            },
            resume_step: if climax { 2 } else { 0 },
            // FSDP ranks each take their own batch; a TP group shares one.
            samples_per_step: if climax {
                world * ClimaxShape::of(scale).batch_per_rank
            } else {
                MaeShape::of(scale).batch
            },
        }
    }
}

/// Hyperspectral MAE shape (both MAE workloads share it).
#[derive(Clone, Copy, Debug)]
pub(crate) struct MaeShape {
    pub bands: usize,
    pub img: usize,
    pub patch: usize,
    pub embed: usize,
    pub depth: usize,
    pub heads: usize,
    pub decoder_dim: usize,
    pub batch: usize,
    pub mask_ratio: f32,
    /// Distinct (batch, mask) pairs the steps cycle through.
    pub pool: usize,
}

impl MaeShape {
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => MaeShape {
                bands: 128,
                img: 32,
                patch: 8,
                embed: 64,
                depth: 4,
                heads: 4,
                decoder_dim: 32,
                batch: 4,
                mask_ratio: 0.75,
                pool: 8,
            },
            Scale::Tiny => MaeShape {
                bands: 8,
                img: 16,
                patch: 4,
                embed: 16,
                depth: 1,
                heads: 2,
                decoder_dim: 8,
                batch: 2,
                mask_ratio: 0.75,
                pool: 2,
            },
        }
    }

    pub fn model(&self) -> ModelConfig {
        ModelConfig {
            embed_dim: self.embed,
            depth: self.depth,
            heads: self.heads,
            mlp_ratio: 2,
            patch: self.patch,
            img_h: self.img,
            img_w: self.img,
            channels: self.bands,
            out_channels: self.bands,
            decoder_dim: self.decoder_dim,
            decoder_depth: 1,
        }
    }
}

/// ClimaX-on-weather shape.
#[derive(Clone, Debug)]
pub(crate) struct ClimaxShape {
    pub h: usize,
    pub w: usize,
    pub levels: Vec<usize>,
    pub patch: usize,
    pub embed: usize,
    pub depth: usize,
    pub heads: usize,
    pub batch_per_rank: usize,
    pub lead: usize,
    pub pool: usize,
}

impl ClimaxShape {
    pub fn of(scale: Scale) -> Self {
        let default = WeatherConfig::default();
        match scale {
            Scale::Full => ClimaxShape {
                h: default.h,
                w: default.w,
                levels: default.levels,
                patch: 4,
                embed: 128,
                depth: 4,
                heads: 4,
                batch_per_rank: 2,
                lead: 2,
                pool: 8,
            },
            Scale::Tiny => ClimaxShape {
                h: 16,
                w: 32,
                levels: vec![500, 850],
                patch: 4,
                embed: 16,
                depth: 1,
                heads: 2,
                batch_per_rank: 1,
                lead: 2,
                pool: 2,
            },
        }
    }
}

pub(crate) struct MaeInputs {
    pub cfg: ModelConfig,
    /// `[B, bands, H, W]` cubes, one per pool slot.
    pub batches: Vec<Tensor>,
    pub masks: Vec<PatchMask>,
}

pub(crate) struct ClimaxInputs {
    pub cfg: ModelConfig,
    /// `pairs[slot][rank]` = (input, target) of that rank's batch.
    pub pairs: Vec<Vec<(Tensor, Tensor)>>,
    pub lead_time: f32,
}

pub(crate) enum Inputs {
    Mae(MaeInputs),
    Climax(ClimaxInputs),
}

impl Inputs {
    pub fn generate(w: Workload, scale: Scale, seed: u64) -> Inputs {
        match w {
            Workload::MaeHyperFlatW1 | Workload::MaeHyperDchagW2 => Inputs::Mae(mae(scale, seed)),
            Workload::ClimaxFsdpTcpW2 => Inputs::Climax(climax(scale, seed)),
        }
    }
}

fn mae(scale: Scale, seed: u64) -> MaeInputs {
    let s = MaeShape::of(scale);
    let cfg = s.model();
    let images = CORPUS_IMAGES;
    let ds = HyperspectralDataset::new(HyperspectralConfig {
        bands: s.bands,
        h: s.img,
        w: s.img,
        images,
        seed: CORPUS_SEED,
    });
    let mut rng = Rng::new(seed ^ 0xBA7C);
    let mut batches = Vec::with_capacity(s.pool);
    let mut masks = Vec::with_capacity(s.pool);
    for _ in 0..s.pool {
        let idx: Vec<usize> = (0..s.batch).map(|_| rng.below(images)).collect();
        batches.push(ds.batch(&idx));
        masks.push(PatchMask::random(cfg.num_patches(), s.mask_ratio, &mut rng));
    }
    MaeInputs {
        cfg,
        batches,
        masks,
    }
}

fn climax(scale: Scale, seed: u64) -> ClimaxInputs {
    let s = ClimaxShape::of(scale);
    let ds = WeatherDataset::new(WeatherConfig {
        h: s.h,
        w: s.w,
        levels: s.levels.clone(),
        seed: CORPUS_SEED,
    });
    let channels = ds.channels();
    let cfg = ModelConfig {
        embed_dim: s.embed,
        depth: s.depth,
        heads: s.heads,
        mlp_ratio: 2,
        patch: s.patch,
        img_h: s.h,
        img_w: s.w,
        channels,
        out_channels: channels,
        decoder_dim: s.embed / 2,
        decoder_depth: 1,
    };
    let mut rng = Rng::new(seed ^ 0x77EA);
    let pairs = (0..s.pool)
        .map(|_| {
            (0..2)
                .map(|_| {
                    let times: Vec<usize> = (0..s.batch_per_rank).map(|_| rng.below(200)).collect();
                    ds.forecast_batch(&times, s.lead)
                })
                .collect()
        })
        .collect();
    ClimaxInputs {
        cfg,
        pairs,
        lead_time: s.lead as f32 / 10.0,
    }
}
