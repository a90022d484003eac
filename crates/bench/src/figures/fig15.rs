//! Figure 15: hybrid configurations on a fixed two-node (16-GPU) budget,
//! 7B model, 500 channels (the real-hyperspectral setting). D-CHAG frees
//! enough memory to fit the model on a single node, which buys a larger
//! batch and higher TFLOP/s per node.

use dchag_model::config::{TreeConfig, UnitKind};
use dchag_model::ModelConfig;
use dchag_perf::{gb, MemoryModel, Strategy, Table, ThroughputModel};

pub const GPUS: usize = 16;
/// Reference micro-batch for the fit claims (matches the Fig 7 calibration
/// for the 7B hyperspectral runs).
pub const REF_BATCH: usize = 10;
/// Throughput figures use the cross-attention variant so per-sample model
/// FLOPs are architecturally comparable to the baseline (the -L variant
/// computes far fewer FLOPs by construction, which would make a
/// "TFLOPs/sec" comparison meaningless).
pub const TREE: TreeConfig = TreeConfig {
    groups: 0,
    unit: UnitKind::CrossAttention,
};

pub fn model() -> ModelConfig {
    ModelConfig::p7b().with_channels(500)
}

/// The strategy grid explored on 16 GPUs (batch filled to capacity).
pub fn candidates() -> Vec<Strategy> {
    vec![
        // baselines (no D-CHAG)
        Strategy::tp(16, 1),
        Strategy::tp(8, 1).with_fsdp(2),
        Strategy::tp(8, 1).with_dp(2),
        Strategy::tp(4, 1).with_fsdp(4),
        Strategy::tp(4, 1).with_fsdp(2).with_dp(2),
        // hybrids
        Strategy::dchag(TREE, 16, 1),
        Strategy::dchag(TREE, 8, 1).with_fsdp(2),
        Strategy::dchag(TREE, 8, 1).with_dp(2),
        Strategy::dchag(TREE, 4, 1).with_fsdp(2).with_dp(2),
        Strategy::dchag(TREE, 4, 1).with_fsdp(4),
        Strategy::dchag(TREE, 2, 1).with_fsdp(8),
    ]
}

/// Fill a candidate to its max batch, requiring at least the reference
/// micro-batch (a replica that cannot sustain the training batch is not a
/// viable configuration — this is what forces the TP baseline onto two
/// nodes, as in the paper).
pub fn fill(s: &Strategy) -> Option<Strategy> {
    let tm = ThroughputModel::frontier();
    tm.at_max_batch(&model(), s)
        .filter(|f| f.micro_batch >= REF_BATCH)
}

/// Best baseline and best hybrid at max batch (used by Fig 16).
pub fn best_configs() -> (Strategy, Strategy) {
    let cfg = model();
    let tm = ThroughputModel::frontier();
    let pick = |dchag: bool| {
        candidates()
            .into_iter()
            .filter(|s| matches!(s.plan, dchag_perf::ChannelPlan::DChag(_)) == dchag)
            .filter_map(|s| fill(&s))
            .max_by(|a, b| {
                tm.tflops_per_node(&cfg, a)
                    .total_cmp(&tm.tflops_per_node(&cfg, b))
            })
            .expect("at least one config fits")
    };
    (pick(false), pick(true))
}

pub fn run() -> Vec<Table> {
    let cfg = model();
    let mem = MemoryModel::frontier();
    let tm = ThroughputModel::frontier();
    let mut t = Table::new(
        "Fig 15: 7B / 500ch on 16 GPUs — memory and throughput per config",
        &[
            "config",
            "max batch/replica",
            "mem GB/GPU",
            "TFLOPs/s/node",
            "status",
        ],
    );
    for s in candidates() {
        match fill(&s) {
            Some(filled) => {
                let bd = mem.breakdown(&cfg, &filled);
                t.row(vec![
                    filled.name(),
                    filled.micro_batch.to_string(),
                    gb(bd.total()),
                    format!("{:.0}", tm.tflops_per_node(&cfg, &filled)),
                    "ok".to_string(),
                ]);
            }
            None => {
                t.row(vec![
                    s.name(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    format!("OOM @batch {REF_BATCH}"),
                ]);
            }
        }
    }
    let (b, h) = best_configs();
    t.note(format!(
        "best baseline: {} (batch {}); best hybrid: {} (batch {})",
        b.name(),
        b.micro_batch,
        h.name(),
        h.micro_batch
    ));
    t.note("paper: TP-only needs both nodes; D-CHAG fits on one node (even 2 GPUs) and converts the freed memory into batch and TFLOP/s");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_perf::ChannelPlan;

    #[test]
    fn tp_only_needs_both_nodes() {
        // TP16 fits; TP8 (one node) alone does not at the reference batch
        // (paper: two Frontier nodes minimum for 7B@500ch with TP).
        let mem = MemoryModel::frontier();
        let cfg = model();
        assert!(mem.fits(&cfg, &Strategy::tp(16, REF_BATCH)));
        assert!(!mem.fits(&cfg, &Strategy::tp(8, REF_BATCH)));
    }

    #[test]
    fn dchag_fits_on_fewer_gpus() {
        // paper: "by using the D-CHAG method, we can fit the model on a
        // single Frontier node, even with just two GPUs" — with sharding
        // and the best-performing (-L) partial module.
        let mem = MemoryModel::frontier();
        let cfg = model();
        let tree_l = TreeConfig::tree0(UnitKind::Linear);
        assert!(mem.fits(&cfg, &Strategy::dchag(tree_l, 8, REF_BATCH)));
        assert!(mem.fits(&cfg, &Strategy::dchag(tree_l, 2, REF_BATCH).with_fsdp(8)));
    }

    #[test]
    fn hybrid_beats_baseline_throughput() {
        let tm = ThroughputModel::frontier();
        let cfg = model();
        let (base, hybrid) = best_configs();
        let tb = tm.tflops_per_node(&cfg, &base);
        let th = tm.tflops_per_node(&cfg, &hybrid);
        assert!(
            th > tb,
            "hybrid {th:.0} must beat baseline {tb:.0} TF/s/node"
        );
    }

    #[test]
    fn hybrid_allows_larger_batch() {
        let (base, hybrid) = best_configs();
        assert!(
            hybrid.micro_batch * hybrid.fsdp * hybrid.dp >= base.micro_batch * base.fsdp * base.dp
        );
    }

    #[test]
    fn best_hybrid_is_dchag() {
        let (_, hybrid) = best_configs();
        assert!(matches!(hybrid.plan, ChannelPlan::DChag(_)));
    }
}
