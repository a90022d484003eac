//! Figure 16: sustained TFLOP/s while scaling the global batch (via DP) to
//! 1,024 GPUs. The baseline replica needs two nodes (TP across the slow
//! fabric); the Hybrid-D-CHAG replica fits in one node, so DP starts
//! earlier, the heavy collectives stay on Infinity Fabric, and sustained
//! throughput more than doubles.

use dchag_model::ModelConfig;
use dchag_perf::{pct_gain, Strategy, Table, ThroughputModel};

use super::fig15;

pub fn model() -> ModelConfig {
    fig15::model()
}

/// Scale a per-replica configuration by DP factor so that total GPUs hits
/// the target.
fn scaled(unit: &Strategy, gpus: usize) -> Option<Strategy> {
    let unit_gpus = unit.tp * unit.fsdp;
    gpus.is_multiple_of(unit_gpus)
        .then(|| unit.with_dp(gpus / unit_gpus))
}

pub fn run() -> Vec<Table> {
    let cfg = model();
    let tm = ThroughputModel::frontier();
    let (base_unit, hybrid_unit) = fig15::best_configs();
    // strip the 16-GPU DP factor down to the replica unit
    let base_unit = base_unit.with_dp(1);
    let hybrid_unit = hybrid_unit.with_dp(1);

    let mut t = Table::new(
        "Fig 16: sustained TFLOPs/s scaling the batch to 1024 GPUs",
        &[
            "GPUs",
            "baseline batch",
            "baseline TFLOPs/s",
            "hybrid batch",
            "hybrid TFLOPs/s",
            "gain",
        ],
    );
    for &gpus in &[16usize, 32, 64, 128, 256, 512, 1024] {
        let b = scaled(&base_unit, gpus);
        let h = scaled(&hybrid_unit, gpus);
        let (mut cells, mut tb, mut th) = (vec![gpus.to_string()], None, None);
        match b {
            Some(s) => {
                let tf = tm.tflops_total(&cfg, &s);
                cells.push(s.global_batch().to_string());
                cells.push(format!("{tf:.0}"));
                tb = Some(tf);
            }
            None => {
                cells.push("-".into());
                cells.push("-".into());
            }
        }
        match h {
            Some(s) => {
                let tf = tm.tflops_total(&cfg, &s);
                cells.push(s.global_batch().to_string());
                cells.push(format!("{tf:.0}"));
                th = Some(tf);
            }
            None => {
                cells.push("-".into());
                cells.push("-".into());
            }
        }
        cells.push(match (tb, th) {
            (Some(b), Some(h)) => pct_gain(h / b - 1.0),
            _ => "-".into(),
        });
        t.row(cells);
    }
    t.note(format!(
        "baseline replica: {} | hybrid replica: {}",
        base_unit.name(),
        hybrid_unit.name()
    ));
    t.note("paper: Hybrid D-CHAG sustains >2× the baseline throughput (up to +239%)");
    vec![t]
}

/// Peak gain across the sweep (for EXPERIMENTS.md).
pub fn peak_gain() -> f64 {
    let cfg = model();
    let tm = ThroughputModel::frontier();
    let (base_unit, hybrid_unit) = fig15::best_configs();
    let base_unit = base_unit.with_dp(1);
    let hybrid_unit = hybrid_unit.with_dp(1);
    let mut peak: f64 = 0.0;
    for &gpus in &[16usize, 32, 64, 128, 256, 512, 1024] {
        if let (Some(b), Some(h)) = (scaled(&base_unit, gpus), scaled(&hybrid_unit, gpus)) {
            let g = tm.tflops_total(&cfg, &h) / tm.tflops_total(&cfg, &b) - 1.0;
            peak = peak.max(g);
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_more_than_doubles_at_scale() {
        let cfg = model();
        let tm = ThroughputModel::frontier();
        let (base_unit, hybrid_unit) = fig15::best_configs();
        let b = scaled(&base_unit.with_dp(1), 1024).unwrap();
        let h = scaled(&hybrid_unit.with_dp(1), 1024).unwrap();
        let gain = tm.tflops_total(&cfg, &h) / tm.tflops_total(&cfg, &b) - 1.0;
        assert!(
            gain > 1.0,
            "paper reports >2x sustained throughput; got {:.0}%",
            gain * 100.0
        );
    }

    #[test]
    fn gain_does_not_collapse_with_scale() {
        // the hybrid advantage must persist (or grow) as DP scales
        let cfg = model();
        let tm = ThroughputModel::frontier();
        let (base_unit, hybrid_unit) = fig15::best_configs();
        let gain_at = |gpus| {
            let b = scaled(&base_unit.with_dp(1), gpus).unwrap();
            let h = scaled(&hybrid_unit.with_dp(1), gpus).unwrap();
            tm.tflops_total(&cfg, &h) / tm.tflops_total(&cfg, &b) - 1.0
        };
        assert!(gain_at(1024) > 0.5 * gain_at(32));
    }

    #[test]
    fn peak_gain_in_paper_band() {
        let g = peak_gain();
        // paper: up to +239%; accept a broad band for the substituted
        // substrate but demand "more than doubled".
        assert!(g > 1.0, "peak gain {:.0}%", g * 100.0);
        assert!(g < 6.0, "peak gain suspiciously large: {:.0}%", g * 100.0);
    }

    #[test]
    fn throughput_grows_monotonically_with_gpus() {
        let cfg = model();
        let tm = ThroughputModel::frontier();
        let (_, hybrid_unit) = fig15::best_configs();
        let mut prev = 0.0;
        for gpus in [16usize, 64, 256, 1024] {
            let s = scaled(&hybrid_unit.with_dp(1), gpus).unwrap();
            let tf = tm.tflops_total(&cfg, &s);
            assert!(tf > prev);
            prev = tf;
        }
    }
}
