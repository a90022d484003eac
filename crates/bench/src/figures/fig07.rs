//! Figure 7: per-GPU memory of 1.7B and 7B models under tensor
//! parallelism; tokenization + aggregation account for 50–90% of memory at
//! high channel counts, and TP cannot reduce them.

use dchag_model::ModelConfig;
use dchag_perf::{gb, pct, ChannelPlan, MemoryModel, Strategy, Table};

/// Micro-batch for the 1.7B rows.
pub const BATCH_1_7B: usize = 8;
/// Micro-batch for the 7B rows (the paper's 7B runs target the
/// hyperspectral workload with a larger per-GPU batch; see EXPERIMENTS.md).
pub const BATCH_7B: usize = 10;

pub fn run() -> Vec<Table> {
    let mem = MemoryModel::frontier();
    let mut t = Table::new(
        "Fig 7: TP memory per GPU by component",
        &[
            "model", "channels", "TP", "tok GB", "agg GB", "vit GB", "total GB", "tok+agg",
            "status",
        ],
    );
    let cases: [(&str, ModelConfig, usize, usize, &[usize]); 4] = [
        ("1.7B", ModelConfig::p1_7b(), BATCH_1_7B, 512, &[1, 2, 4]),
        ("1.7B", ModelConfig::p1_7b(), BATCH_1_7B, 1024, &[4, 8]),
        ("7B", ModelConfig::p7b(), BATCH_7B, 256, &[2, 4, 8]),
        ("7B", ModelConfig::p7b(), BATCH_7B, 512, &[8, 16]),
    ];
    for (name, cfg, batch, c, tps) in cases {
        let cfg = cfg.with_channels(c);
        for &tp in tps {
            let s = Strategy::tp(tp, batch);
            let bd = mem.breakdown(&cfg, &s);
            t.row(vec![
                name.to_string(),
                c.to_string(),
                tp.to_string(),
                gb(bd.tok.total()),
                gb(bd.agg.total()),
                gb(bd.vit.total()),
                gb(bd.total()),
                pct(bd.tok_agg_fraction()),
                if bd.fits() { "ok" } else { "OOM" }.to_string(),
            ]);
        }
    }
    t.note(format!(
        "micro-batch {BATCH_1_7B} (1.7B) / {BATCH_7B} (7B); paper: 1.7B@512 needs 2 GPUs, \
         1.7B@1024 a full node, 7B@256 half a node, 7B@512 two nodes; \
         tok+agg = 50-90% at high C"
    ));
    vec![t]
}

/// Minimum-TP anchors from the paper.
pub fn check_anchors() -> Result<(), String> {
    let mem = MemoryModel::frontier();
    let cases = [
        (
            "1.7B@512",
            ModelConfig::p1_7b().with_channels(512),
            BATCH_1_7B,
            2usize,
        ),
        (
            "1.7B@1024",
            ModelConfig::p1_7b().with_channels(1024),
            BATCH_1_7B,
            8,
        ),
        ("7B@256", ModelConfig::p7b().with_channels(256), BATCH_7B, 4),
        (
            "7B@512",
            ModelConfig::p7b().with_channels(512),
            BATCH_7B,
            16,
        ),
    ];
    for (name, cfg, batch, want_tp) in cases {
        match mem.min_tp(&cfg, ChannelPlan::Replicated, batch, 32) {
            Some(tp) if tp == want_tp => {}
            other => return Err(format!("{name}: min TP {other:?}, paper says {want_tp}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_min_tp_anchors_hold() {
        check_anchors().unwrap();
    }

    #[test]
    fn tok_agg_dominates_at_high_channels() {
        let mem = MemoryModel::frontier();
        let bd = mem.breakdown(
            &ModelConfig::p1_7b().with_channels(1024),
            &Strategy::tp(8, BATCH_1_7B),
        );
        let f = bd.tok_agg_fraction();
        assert!(
            (0.5..=0.95).contains(&f),
            "tok+agg fraction {f} out of the paper's 50-90% band"
        );
    }

    #[test]
    fn table_marks_undersized_tp_oom() {
        let tables = run();
        let rendered = tables[0].render();
        assert!(rendered.contains("OOM"));
        assert!(rendered.contains("ok"));
    }
}
