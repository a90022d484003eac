//! Figure 8: distributed tokenization alone (§3.1) — tokenization memory
//! drops by the TP factor, but the AllGather buffer makes the aggregation
//! module *larger* than TP alone, negating the benefit (the paper's
//! negative result motivating D-CHAG).

use dchag_model::ModelConfig;
use dchag_perf::{gb, MemoryModel, Strategy, Table};

pub const BATCH: usize = 8;

/// Minimum feasible TP per channel count (from Fig 7): 512ch on two GPUs,
/// 1024ch on a full node — the same settings the paper measures.
pub fn tp_for(channels: usize) -> usize {
    if channels <= 512 {
        2
    } else {
        8
    }
}

pub fn run() -> Vec<Table> {
    let mem = MemoryModel::frontier();
    let mut t = Table::new(
        "Fig 8: distributed tokenization vs TP baseline (1.7B, per-GPU GB)",
        &[
            "channels",
            "TP tok+agg (blue)",
            "TP tok (red)",
            "DistTok tok (green)",
            "DistTok tok+agg (yellow)",
        ],
    );
    for &c in &[512usize, 1024] {
        let cfg = ModelConfig::p1_7b().with_channels(c);
        let tp = tp_for(c);
        let base = mem.breakdown(&cfg, &Strategy::tp(tp, BATCH));
        let dist = mem.breakdown(&cfg, &Strategy::dist_token(tp, BATCH));
        t.row(vec![
            format!("{c} (TP{tp})"),
            gb(base.tok.total() + base.agg.total()),
            gb(base.tok.total()),
            gb(dist.tok.total()),
            gb(dist.tok.total() + dist.agg.total()),
        ]);
    }
    t.note(format!(
        "micro-batch {BATCH}; TP = minimum feasible per Fig 7"
    ));
    t.note(
        "paper: green << red (tokenization shrinks) but yellow ≈/> blue \
         (AllGather hands the memory back to aggregation)",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_tok_shrinks_tokenization_by_tp_factor() {
        let mem = MemoryModel::frontier();
        let cfg = ModelConfig::p1_7b().with_channels(1024);
        let tp = tp_for(1024);
        let base = mem.breakdown(&cfg, &Strategy::tp(tp, BATCH));
        let dist = mem.breakdown(&cfg, &Strategy::dist_token(tp, BATCH));
        let ratio = base.tok.total() / dist.tok.total();
        assert!(
            (0.8 * tp as f64..=1.2 * tp as f64).contains(&ratio),
            "tokenization ratio {ratio}"
        );
    }

    #[test]
    fn benefit_negated_at_512_channels() {
        // paper: "for images with 512 channels, we observe a drop in
        // performance" — total tok+agg with distributed tokenization is not
        // better than the baseline.
        let mem = MemoryModel::frontier();
        let cfg = ModelConfig::p1_7b().with_channels(512);
        let tp = tp_for(512);
        let base = mem.breakdown(&cfg, &Strategy::tp(tp, BATCH));
        let dist = mem.breakdown(&cfg, &Strategy::dist_token(tp, BATCH));
        let base_ta = base.tok.total() + base.agg.total();
        let dist_ta = dist.tok.total() + dist.agg.total();
        assert!(
            dist_ta > 0.9 * base_ta,
            "512ch: dist-tok {dist_ta} should not beat baseline {base_ta} meaningfully"
        );
    }

    #[test]
    fn modest_improvement_at_1024_channels() {
        // paper: "for images with 1024 channels, only modest improvements"
        let mem = MemoryModel::frontier();
        let cfg = ModelConfig::p1_7b().with_channels(1024);
        let tp = tp_for(1024);
        let base = mem.breakdown(&cfg, &Strategy::tp(tp, BATCH));
        let dist = mem.breakdown(&cfg, &Strategy::dist_token(tp, BATCH));
        let base_ta = base.tok.total() + base.agg.total();
        let dist_ta = dist.tok.total() + dist.agg.total();
        assert!(dist_ta < base_ta, "1024ch: some improvement expected");
        assert!(
            dist_ta > 0.5 * base_ta,
            "1024ch: improvement stays modest (not the D-CHAG-level win)"
        );
    }
}
