//! Step-time and sustained-throughput estimation.
//!
//! `step_time = compute + TP comm + (1−overlap)·FSDP comm + (1−overlap)·DP
//! comm`. TP collectives sit on the critical path (activations);
//! FSDP/DP collectives overlap partially with compute, DP best of all
//! (paper §2.2: "DP scales efficiently because computation grows with
//! communication").

use dchag_model::config::ModelConfig;

use crate::comm::{allgather_time, allreduce_time, reduce_scatter_time, wire_for_group, Wire};
use crate::flops::flops_per_gpu;
use crate::hw::MachineSpec;
use crate::memory::MemoryModel;
use crate::strategy::{ChannelPlan, Strategy};

/// Overlap fractions (how much of the collective hides under compute).
const FSDP_OVERLAP: f64 = 0.5;
const DP_OVERLAP: f64 = 0.7;

/// Estimated per-step timing, per GPU.
#[derive(Clone, Copy, Debug)]
pub struct StepEstimate {
    pub compute_s: f64,
    pub tp_comm_s: f64,
    pub fsdp_comm_s: f64,
    pub dp_comm_s: f64,
    /// Useful model FLOPs executed by this GPU per step.
    pub flops_per_gpu: f64,
}

impl StepEstimate {
    pub fn step_time(&self) -> f64 {
        self.compute_s
            + self.tp_comm_s
            + (1.0 - FSDP_OVERLAP) * self.fsdp_comm_s
            + (1.0 - DP_OVERLAP) * self.dp_comm_s
    }

    /// Sustained TFLOP/s per GPU.
    pub fn tflops_per_gpu(&self) -> f64 {
        self.flops_per_gpu / self.step_time() / 1e12
    }
}

/// The throughput model.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputModel {
    pub machine: MachineSpec,
}

impl ThroughputModel {
    pub fn frontier() -> Self {
        ThroughputModel {
            machine: MachineSpec::frontier(),
        }
    }

    /// Canonical model FLOPs per training sample: the single-device flat
    /// architecture, computed once. Sustained-throughput comparisons across
    /// strategies use `samples/sec × canonical` (MFU-style accounting), so
    /// a method cannot look better by *executing* redundant work, nor worse
    /// by eliminating it.
    pub fn canonical_flops_per_sample(&self, cfg: &ModelConfig) -> f64 {
        flops_per_gpu(cfg, &Strategy::tp(1, 1)).total()
    }

    /// Total (non-embedding) parameters per model replica, for gradient
    /// collectives.
    fn replica_params(&self, cfg: &ModelConfig) -> f64 {
        (cfg.transformer_params() + cfg.tokenizer_params()) as f64
    }

    pub fn estimate(&self, cfg: &ModelConfig, strat: &Strategy) -> StepEstimate {
        let m = &self.machine;
        let fl = flops_per_gpu(cfg, strat);
        // Tokenization runs at its own (lower) efficiency: skinny per-channel
        // GEMMs. This is what makes the baseline's *replicated* tokenization
        // so expensive in wall-clock, not just in memory.
        let compute_s = fl.tok / m.sustained_tok_flops() + (fl.agg + fl.vit) / m.sustained_flops();
        // Useful (model) FLOPs: the TP baseline re-tokenizes every channel
        // on every rank; that redundant work burns time but is not model
        // throughput. D-CHAG and distributed tokenization have no redundant
        // component.
        let useful = match strat.plan {
            ChannelPlan::Replicated => fl.total() - fl.tok * (1.0 - 1.0 / strat.tp as f64),
            _ => fl.total(),
        };

        let d = cfg.embed_dim as f64;
        let p = cfg.num_patches() as f64;
        let b = strat.micro_batch as f64;
        let act_bytes = 2.0; // bf16

        // --- TP collectives on the activation critical path -------------
        let tp_wire = wire_for_group(m, strat.tp, true);
        let mut tp_comm_s = 0.0;
        if strat.tp > 1 {
            // per ViT block: 2 forward AllReduce (g ops) + 2 backward (f ops)
            let msg = b * p * d * act_bytes;
            tp_comm_s += cfg.depth as f64 * 4.0 * allreduce_time(m, msg, strat.tp, tp_wire);
            // aggregation-module collectives
            match strat.plan {
                ChannelPlan::Replicated => {
                    // flat CA fwd+bwd AllReduce over [B,C,P,D]
                    let msg = b * cfg.channels as f64 * p * d * act_bytes;
                    tp_comm_s += 2.0 * allreduce_time(m, msg, strat.tp, tp_wire);
                }
                ChannelPlan::DistTokenOnly => {
                    // gather of full channel tokens + flat CA AllReduces
                    let contrib = b * (cfg.channels / strat.tp) as f64 * p * d * act_bytes;
                    tp_comm_s += allgather_time(m, contrib, strat.tp, tp_wire);
                    let msg = b * cfg.channels as f64 * p * d * act_bytes;
                    tp_comm_s += 2.0 * allreduce_time(m, msg, strat.tp, tp_wire);
                }
                ChannelPlan::DChag(_) => {
                    // one token per rank gather + final CA AllReduces over
                    // [B, tp, P, D] — both tiny
                    let contrib = b * p * d * act_bytes;
                    tp_comm_s += allgather_time(m, contrib, strat.tp, tp_wire);
                    let msg = b * strat.tp as f64 * p * d * act_bytes;
                    tp_comm_s += 2.0 * allreduce_time(m, msg, strat.tp, tp_wire);
                }
            }
        }

        // --- FSDP: gather params (fwd+bwd) + reduce-scatter grads --------
        let mut fsdp_comm_s = 0.0;
        if strat.fsdp > 1 {
            // FSDP groups stride across TP groups: contiguous only if tp*fsdp
            // fits a node.
            let contiguous = strat.tp * strat.fsdp <= m.gpus_per_node;
            let wire = if contiguous { Wire::Intra } else { Wire::Inter };
            let params_local = self.replica_params(cfg) / strat.tp as f64;
            let shard = params_local * 2.0 / strat.fsdp as f64; // bf16 shard
                                                                // 2 gathers (fwd + bwd re-gather) + 1 reduce-scatter
            fsdp_comm_s += 2.0 * allgather_time(m, shard, strat.fsdp, wire);
            fsdp_comm_s += reduce_scatter_time(m, params_local * 2.0, strat.fsdp, wire);
        }

        // --- DP: one gradient AllReduce per step -------------------------
        let mut dp_comm_s = 0.0;
        if strat.dp > 1 {
            let grads = self.replica_params(cfg) * 2.0 / (strat.tp * strat.fsdp) as f64;
            // DP replicas stride across TP×FSDP blocks, so their rings
            // cross node boundaries in every layout we model.
            dp_comm_s += allreduce_time(m, grads, strat.dp, Wire::Inter);
        }

        StepEstimate {
            compute_s,
            tp_comm_s,
            fsdp_comm_s,
            dp_comm_s,
            flops_per_gpu: useful,
        }
    }

    /// Training samples per second across the whole strategy (every
    /// FSDP × DP group processes its own micro-batch per step).
    pub fn samples_per_sec(&self, cfg: &ModelConfig, strat: &Strategy) -> f64 {
        let est = self.estimate(cfg, strat);
        strat.global_batch() as f64 / est.step_time()
    }

    /// Total sustained TFLOP/s: samples/sec × canonical model FLOPs.
    pub fn tflops_total(&self, cfg: &ModelConfig, strat: &Strategy) -> f64 {
        self.samples_per_sec(cfg, strat) * self.canonical_flops_per_sample(cfg) / 1e12
    }

    /// Sustained TFLOP/s per *node* (the paper's Fig. 15 metric).
    pub fn tflops_per_node(&self, cfg: &ModelConfig, strat: &Strategy) -> f64 {
        self.tflops_total(cfg, strat) / self.machine.nodes_for(strat.gpus()) as f64
    }

    /// Fill HBM: return the strategy with the largest micro-batch that fits.
    pub fn at_max_batch(&self, cfg: &ModelConfig, strat: &Strategy) -> Option<Strategy> {
        let mem = MemoryModel {
            machine: self.machine,
        };
        let b = mem.max_micro_batch(cfg, strat);
        (b > 0).then(|| strat.with_batch(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dchag_model::config::{TreeConfig, UnitKind};

    #[test]
    fn step_time_positive_and_composable() {
        let t = ThroughputModel::frontier();
        let cfg = ModelConfig::p7b().with_channels(512);
        let est = t.estimate(&cfg, &Strategy::tp(16, 1));
        assert!(est.compute_s > 0.0);
        assert!(est.tp_comm_s > 0.0);
        assert!(est.step_time() >= est.compute_s);
    }

    #[test]
    fn intra_node_tp_beats_cross_node_tp() {
        // Same model, same math: TP8 (one node) vs TP16 (two nodes) per-GPU
        // efficiency.
        let t = ThroughputModel::frontier();
        let cfg = ModelConfig::p7b().with_channels(256);
        let tp8 = t.estimate(&cfg, &Strategy::tp(8, 2));
        let tp16 = t.estimate(&cfg, &Strategy::tp(16, 2));
        assert!(
            tp8.tflops_per_gpu() > tp16.tflops_per_gpu(),
            "{} vs {}",
            tp8.tflops_per_gpu(),
            tp16.tflops_per_gpu()
        );
    }

    #[test]
    fn dchag_gather_cheaper_than_dist_token_gather() {
        let t = ThroughputModel::frontier();
        let cfg = ModelConfig::p1_7b().with_channels(1024);
        let dt = t.estimate(&cfg, &Strategy::dist_token(8, 1));
        let dc = t.estimate(
            &cfg,
            &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 1),
        );
        assert!(dc.tp_comm_s < dt.tp_comm_s);
    }

    #[test]
    fn dp_overlaps_better_than_tp() {
        // Adding DP grows aggregate throughput almost linearly.
        let t = ThroughputModel::frontier();
        let cfg = ModelConfig::p7b().with_channels(500);
        let one = t.tflops_total(
            &cfg,
            &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 8),
        );
        let eight = t.tflops_total(
            &cfg,
            &Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 8).with_dp(8),
        );
        assert!(eight > 6.0 * one, "DP scaling {} -> {}", one, eight);
    }

    #[test]
    fn max_batch_strategy_fits() {
        let t = ThroughputModel::frontier();
        let mem = MemoryModel::frontier();
        let cfg = ModelConfig::p7b().with_channels(500);
        let s = Strategy::dchag(TreeConfig::tree0(UnitKind::Linear), 8, 1);
        let filled = t.at_max_batch(&cfg, &s).expect("fits");
        assert!(filled.micro_batch >= 1);
        assert!(mem.fits(&cfg, &filled));
    }
}
