//! Figure 12: weather forecasting — training loss and test RMSE (Z500,
//! T850, U10) for the baseline vs D-CHAG-C and D-CHAG-L on four ranks.
//!
//! Functional experiment on the synthetic ERA5 substitute (80 channels at
//! the paper's 5.625° grid), scaled down from the 53M-parameter setting.
//! Hyper-parameters are tuned for the baseline and reused for D-CHAG.

use dchag_collectives::run_ranks;
use dchag_core::{build_climax, train_step};
use dchag_data::{WeatherConfig, WeatherDataset};
use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::{AdamW, ClimaxModel, ModelConfig};
use dchag_perf::Table;
use dchag_tensor::prelude::*;

#[derive(Clone, Copy, Debug)]
pub struct Fig12Opts {
    pub steps: usize,
    pub batch: usize,
    pub lead: usize,
    pub lr: f32,
    pub seed: u64,
    pub ranks: usize,
}

impl Default for Fig12Opts {
    fn default() -> Self {
        Fig12Opts {
            steps: 30,
            batch: 4,
            lead: 2,
            lr: 2e-3,
            seed: 4242,
            ranks: 4,
        }
    }
}

fn model_config(ds: &WeatherDataset) -> ModelConfig {
    ModelConfig {
        embed_dim: 64,
        depth: 4,
        heads: 4,
        mlp_ratio: 2,
        patch: 8,
        img_h: ds.cfg.h,
        img_w: ds.cfg.w,
        channels: ds.channels(),
        out_channels: ds.channels(),
        decoder_dim: 32,
        decoder_depth: 1,
    }
}

/// Training times are `0..200`; the held-out test year is `500..`.
fn train_schedule(o: &Fig12Opts) -> Vec<Vec<usize>> {
    let mut rng = Rng::new(o.seed ^ 0x77EA);
    (0..o.steps)
        .map(|_| (0..o.batch).map(|_| rng.below(200)).collect())
        .collect()
}

const TEST_TIMES: [usize; 4] = [500, 520, 540, 560];

/// Outcome of one training run.
pub struct RunResult {
    pub losses: Vec<f32>,
    /// (name, RMSE) for Z500, T850, U10.
    pub rmse: Vec<(String, f32)>,
}

/// Shared train-and-evaluate loop, generic over the backbone.
fn train_eval<E: dchag_model::encoder::EncoderBackbone>(
    model: &ClimaxModel<E>,
    store: &mut ParamStore,
    ds: &WeatherDataset,
    o: &Fig12Opts,
) -> RunResult {
    let sched = train_schedule(o);
    let mut opt = AdamW::new(o.lr);
    let mut losses = Vec::with_capacity(o.steps);
    for times in &sched {
        let (x, y) = ds.forecast_batch(times, o.lead);
        losses.push(train_step(store, &mut opt, 1.0, None, |bind| {
            model.forward_loss(bind, &x, &y, o.lead as f32 / 10.0).0
        }));
    }
    // held-out evaluation
    let (x, y) = ds.forecast_batch(&TEST_TIMES, o.lead);
    let tape = Tape::new();
    let bind = LocalBinder::new(&tape, store);
    let pred = model.forward(&bind, &x, o.lead as f32 / 10.0);
    let pred_img = model.predict_image(pred.value());
    let all = dchag_model::latitude_rmse(&pred_img, &y);
    let rmse = ds
        .eval_channels()
        .iter()
        .map(|(name, idx)| (name.clone(), all[*idx]))
        .collect();
    RunResult { losses, rmse }
}

/// Baseline: single device, flat cross-attention aggregation.
pub fn train_baseline(o: &Fig12Opts) -> RunResult {
    let ds = WeatherDataset::new(WeatherConfig::default());
    let cfg = model_config(&ds);
    let mut store = ParamStore::new();
    let mut rng = Rng::new(o.seed);
    let model = ClimaxModel::new(
        &mut store,
        &mut rng,
        &cfg,
        o.seed ^ 0x70_6b,
        TreeConfig::tree0(UnitKind::CrossAttention),
    );
    train_eval(&model, &mut store, &ds, o)
}

/// D-CHAG variant on `o.ranks` simulated GPUs.
pub fn train_dchag(o: &Fig12Opts, unit: UnitKind) -> RunResult {
    let o = *o;
    let run = run_ranks(o.ranks, move |ctx| {
        let ds = WeatherDataset::new(WeatherConfig::default());
        let cfg = model_config(&ds);
        let mut store = ParamStore::new();
        let mut rng = Rng::new(o.seed);
        let model = build_climax(
            &mut store,
            &mut rng,
            &cfg,
            o.seed ^ 0x70_6b,
            TreeConfig::tree0(unit),
            &ctx.comm,
        );
        let r = train_eval(&model, &mut store, &ds, &o);
        (r.losses, r.rmse)
    });
    let (losses, rmse) = run.outputs.into_iter().next().unwrap();
    RunResult { losses, rmse }
}

pub fn run() -> Vec<Table> {
    let o = Fig12Opts::default();
    let base = train_baseline(&o);
    let dc_l = train_dchag(&o, UnitKind::Linear);
    let dc_c = train_dchag(&o, UnitKind::CrossAttention);

    let mut t = Table::new(
        "Fig 12 (left): weather training loss — baseline vs D-CHAG (4 GPUs)",
        &["step", "baseline", "D-CHAG-L", "D-CHAG-C"],
    );
    for i in (0..o.steps).step_by(5).chain([o.steps - 1]) {
        t.row(vec![
            i.to_string(),
            format!("{:.4}", base.losses[i]),
            format!("{:.4}", dc_l.losses[i]),
            format!("{:.4}", dc_c.losses[i]),
        ]);
    }
    t.note("paper: training loss matches almost exactly");

    let mut r = Table::new(
        "Fig 12 (right): test RMSE on the held-out period",
        &["variable", "baseline", "D-CHAG-L", "D-CHAG-C", "L vs base"],
    );
    for i in 0..3 {
        let (name, b) = &base.rmse[i];
        let (_, l) = &dc_l.rmse[i];
        let (_, c) = &dc_c.rmse[i];
        r.row(vec![
            name.clone(),
            format!("{b:.4}"),
            format!("{l:.4}"),
            format!("{c:.4}"),
            format!("{:+.1}%", (l / b - 1.0) * 100.0),
        ]);
    }
    r.note("paper: test RMSE within ~1% of the baseline");
    vec![t, r]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig12Opts {
        Fig12Opts {
            steps: 6,
            batch: 2,
            lead: 2,
            lr: 2e-3,
            seed: 11,
            ranks: 2,
        }
    }

    #[test]
    fn baseline_trains_and_evaluates() {
        let r = train_baseline(&quick());
        assert_eq!(r.losses.len(), 6);
        assert!(r.losses[5] < r.losses[0], "{:?}", r.losses);
        assert_eq!(r.rmse.len(), 3);
        assert!(r.rmse.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn dchag_trains_on_two_ranks() {
        let r = train_dchag(&quick(), UnitKind::Linear);
        assert_eq!(r.losses.len(), 6);
        assert!(r.losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn test_times_disjoint_from_training() {
        assert!(TEST_TIMES.iter().all(|&t| t >= 200));
    }
}
